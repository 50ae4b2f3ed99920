//! A small functional TCP data path (the smoltcp/lwIP stand-in).
//!
//! The simulated transports route the *actual RPC bytes* through this code:
//! segments are produced with real headers and — when checksum offload is
//! not negotiated — really computed Internet checksums, and the receive side
//! really verifies them. The wire between the two simulated hosts is
//! lossless and ordered, so no retransmission machinery is required; what
//! matters for the reproduction is that the offload feature bits select
//! genuinely different code paths.

use simnet::checksum::ones_complement_sum;

/// TCP connection states (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// No connection.
    Closed,
    /// Active open sent SYN.
    SynSent,
    /// Passive open received SYN, sent SYN-ACK.
    SynReceived,
    /// Three-way handshake complete.
    Established,
}

/// Segment header (the fields the data path needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegHeader {
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgment.
    pub ack: u32,
    /// SYN flag.
    pub syn: bool,
    /// ACK flag.
    pub ack_flag: bool,
    /// Checksum over header-pseudo + payload; 0 when offloaded to the
    /// device (which fills it before the wire).
    pub checksum: u16,
    /// True when the sender deferred checksumming to the device.
    pub csum_offloaded: bool,
}

/// One TCP segment. The payload is borrowed from the sender's buffer: a
/// segment is a view of the bytes in flight, never a copy of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Header.
    pub header: SegHeader,
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl Segment<'_> {
    /// Ones'-complement sum of the pseudo-header (seq, ack, length — enough
    /// to catch corruption in tests; a real stack also covers addresses and
    /// ports) with `trailer`, built on the stack, and the payload summed in
    /// place: an odd last byte counts high-order, as RFC 1071's zero pad.
    fn sum(&self, trailer: u16) -> u16 {
        let mut pseudo = [0u8; 14];
        pseudo[..4].copy_from_slice(&self.header.seq.to_be_bytes());
        pseudo[4..8].copy_from_slice(&self.header.ack.to_be_bytes());
        pseudo[8..12].copy_from_slice(&(self.payload.len() as u32).to_be_bytes());
        pseudo[12..].copy_from_slice(&trailer.to_be_bytes());
        let sum = ones_complement_sum(&pseudo) as u32 + ones_complement_sum(self.payload) as u32;
        ((sum & 0xffff) + (sum >> 16)) as u16
    }

    /// Compute the checksum this segment should carry.
    pub fn expected_checksum(&self) -> u16 {
        !self.sum(0)
    }

    /// Verify an on-wire segment's checksum.
    pub fn verify(&self) -> bool {
        // Sum including the transmitted checksum must be 0xffff.
        self.sum(self.header.checksum) == 0xffff
    }
}

/// One endpoint of a connection.
#[derive(Debug)]
pub struct TcpEndpoint {
    /// Connection state.
    pub state: State,
    /// Next sequence number to send.
    pub snd_nxt: u32,
    /// Next sequence number expected.
    pub rcv_nxt: u32,
    /// Maximum segment size (MTU minus 40 bytes of IP+TCP headers).
    pub mss: usize,
    /// Driver computes checksums in software (no `VIRTIO_NET_F_CSUM`).
    pub tx_csum_in_software: bool,
    /// Driver verifies RX checksums in software (no `GUEST_CSUM`).
    pub rx_verify_in_software: bool,
    /// In-order reassembled receive data; pooled — consuming it keeps the
    /// capacity, so a steady stream of calls reassembles without allocating.
    rx_buffer: Vec<u8>,
    /// Segments dropped due to checksum failure (telemetry).
    pub rx_checksum_failures: u64,
}

impl TcpEndpoint {
    /// New endpoint for a link `mtu`, with software checksums per flags.
    pub fn new(mtu: usize, tx_csum_in_software: bool, rx_verify_in_software: bool) -> Self {
        Self {
            state: State::Closed,
            snd_nxt: 0x1000, // deterministic ISS for reproducibility
            rcv_nxt: 0,
            mss: mtu.saturating_sub(40).max(1),
            tx_csum_in_software,
            rx_verify_in_software,
            rx_buffer: Vec::new(),
            rx_checksum_failures: 0,
        }
    }

    fn make_segment<'a>(
        &self,
        seq: u32,
        ack: u32,
        syn: bool,
        ack_flag: bool,
        payload: &'a [u8],
    ) -> Segment<'a> {
        let mut seg = Segment {
            header: SegHeader {
                seq,
                ack,
                syn,
                ack_flag,
                checksum: 0,
                csum_offloaded: !self.tx_csum_in_software,
            },
            payload,
        };
        if self.tx_csum_in_software {
            seg.header.checksum = seg.expected_checksum();
        }
        seg
    }

    /// Active open: produce the SYN.
    pub fn connect(&mut self) -> Segment<'static> {
        assert_eq!(self.state, State::Closed);
        self.state = State::SynSent;
        let seg = self.make_segment(self.snd_nxt, 0, true, false, &[]);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        seg
    }

    /// Passive side: process a SYN, produce the SYN-ACK.
    pub fn accept(&mut self, syn: &Segment) -> Option<Segment<'static>> {
        if self.state != State::Closed || !syn.header.syn {
            return None;
        }
        self.rcv_nxt = syn.header.seq.wrapping_add(1);
        self.state = State::SynReceived;
        let seg = self.make_segment(self.snd_nxt, self.rcv_nxt, true, true, &[]);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        Some(seg)
    }

    /// Active side: process the SYN-ACK, produce the final ACK.
    pub fn complete_handshake(&mut self, synack: &Segment) -> Option<Segment<'static>> {
        if self.state != State::SynSent || !synack.header.syn || !synack.header.ack_flag {
            return None;
        }
        if synack.header.ack != self.snd_nxt {
            return None;
        }
        self.rcv_nxt = synack.header.seq.wrapping_add(1);
        self.state = State::Established;
        Some(self.make_segment(self.snd_nxt, self.rcv_nxt, false, true, &[]))
    }

    /// Passive side: process the final ACK.
    pub fn finish_accept(&mut self, ack: &Segment) -> bool {
        if self.state != State::SynReceived || !ack.header.ack_flag {
            return false;
        }
        if ack.header.ack != self.snd_nxt {
            return false;
        }
        self.state = State::Established;
        true
    }

    /// Segment `data` into MSS-sized segments with sequence numbers and
    /// (when not offloaded) software checksums, handing each to its consumer
    /// as it is produced. The one segmenter: `send` is its collecting form.
    pub fn segments<'a, 's>(&'s mut self, data: &'a [u8]) -> impl Iterator<Item = Segment<'a>> + 's
    where
        'a: 's,
    {
        assert_eq!(self.state, State::Established, "send before handshake");
        data.chunks(self.mss).map(move |chunk| {
            let seg = self.make_segment(self.snd_nxt, self.rcv_nxt, false, true, chunk);
            self.snd_nxt = self.snd_nxt.wrapping_add(chunk.len() as u32);
            seg
        })
    }

    /// [`Self::segments`], run to the end: every segment of `data`, checksums
    /// computed, before this returns.
    pub fn send<'a>(&mut self, data: &'a [u8]) -> Vec<Segment<'a>> {
        self.segments(data).collect()
    }

    /// Receive one in-order segment and hand its verified payload to `sink`,
    /// for a reader that reassembles into a buffer of its own. `None` if the
    /// segment was dropped (bad checksum / wrong seq); `sink` then never runs.
    pub fn receive_with<R>(&mut self, seg: &Segment, sink: impl FnOnce(&[u8]) -> R) -> Option<R> {
        assert_eq!(self.state, State::Established, "receive before handshake");
        if self.rx_verify_in_software && !seg.header.csum_offloaded && !seg.verify() {
            self.rx_checksum_failures += 1;
            return None;
        }
        if seg.header.seq != self.rcv_nxt {
            return None; // out-of-order: lossless FIFO wire never does this
        }
        self.rcv_nxt = self.rcv_nxt.wrapping_add(seg.payload.len() as u32);
        Some(sink(seg.payload))
    }

    /// [`Self::receive_with`] into the endpoint's own buffer (the reassembly
    /// copy — the only one this stack makes of a payload). Returns false if
    /// the segment was dropped.
    pub fn receive(&mut self, seg: &Segment) -> bool {
        let mut rx = std::mem::take(&mut self.rx_buffer);
        let kept = self.receive_with(seg, |payload| rx.extend_from_slice(payload));
        self.rx_buffer = rx;
        kept.is_some()
    }

    /// The reassembled data not yet consumed, in place.
    pub fn readable(&self) -> &[u8] {
        &self.rx_buffer
    }

    /// Drop up to `max` bytes from the head of the reassembled data.
    pub fn consume(&mut self, max: usize) {
        self.rx_buffer.drain(..max.min(self.rx_buffer.len()));
    }

    /// Bytes available to read.
    pub fn available(&self) -> usize {
        self.rx_buffer.len()
    }
}

/// Run the three-way handshake between two endpoints.
pub fn handshake(client: &mut TcpEndpoint, server: &mut TcpEndpoint) {
    let syn = client.connect();
    let synack = server.accept(&syn).expect("server accepts SYN");
    let ack = client
        .complete_handshake(&synack)
        .expect("client completes");
    assert!(server.finish_accept(&ack), "server finishes");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpEndpoint, TcpEndpoint) {
        let mut c = TcpEndpoint::new(9000, true, true);
        let mut s = TcpEndpoint::new(9000, true, true);
        handshake(&mut c, &mut s);
        (c, s)
    }

    #[test]
    fn handshake_reaches_established() {
        let (c, s) = pair();
        assert_eq!(c.state, State::Established);
        assert_eq!(s.state, State::Established);
    }

    #[test]
    fn handshake_rejects_wrong_ack() {
        let mut c = TcpEndpoint::new(9000, true, true);
        let mut s = TcpEndpoint::new(9000, true, true);
        let _syn = c.connect();
        let bogus = Segment {
            header: SegHeader {
                seq: 1,
                ack: 0xbad,
                syn: true,
                ack_flag: true,
                checksum: 0,
                csum_offloaded: true,
            },
            payload: &[],
        };
        assert!(c.complete_handshake(&bogus).is_none());
        // A second connect attempt from a non-Closed state is also refused.
        assert!(
            s.accept(&bogus).is_some(),
            "fresh passive endpoint accepts a SYN"
        );
        assert!(s.accept(&bogus).is_none(), "but only once");
    }

    #[test]
    fn data_flows_and_reassembles() {
        let (mut c, mut s) = pair();
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let segs = c.send(&data);
        assert_eq!(segs.len(), data.len().div_ceil(8960));
        for seg in &segs {
            assert!(s.receive(seg));
        }
        assert_eq!(s.available(), data.len());
        assert_eq!(s.readable(), data);
    }

    #[test]
    fn software_checksums_catch_corruption() {
        let (mut c, mut s) = pair();
        let segs = c.send(b"important gpu data");
        let mut corrupted = segs[0].payload.to_vec();
        corrupted[3] ^= 0x40;
        let seg = Segment {
            payload: &corrupted,
            ..segs[0]
        };
        assert!(!s.receive(&seg));
        assert_eq!(s.rx_checksum_failures, 1);
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn offloaded_checksums_skip_software_verify() {
        // Sender offloads (checksum 0), receiver trusts the device.
        let mut c = TcpEndpoint::new(9000, false, false);
        let mut s = TcpEndpoint::new(9000, false, false);
        handshake(&mut c, &mut s);
        let segs = c.send(b"hello");
        assert!(segs[0].header.csum_offloaded);
        assert_eq!(segs[0].header.checksum, 0);
        assert!(s.receive(&segs[0]));
        assert_eq!(s.readable(), b"hello");
    }

    #[test]
    fn out_of_order_segment_rejected() {
        let (mut c, mut s) = pair();
        let data = vec![7u8; 20_000];
        let segs = c.send(&data);
        assert!(segs.len() >= 3);
        assert!(!s.receive(&segs[1]), "skipping a segment must fail");
        assert!(s.receive(&segs[0]));
        assert!(s.receive(&segs[1]));
    }

    #[test]
    fn duplex_traffic() {
        let (mut c, mut s) = pair();
        for seg in c.send(b"request") {
            s.receive(&seg);
        }
        assert_eq!(s.readable(), b"request");
        s.consume(64);
        assert_eq!(s.available(), 0);
        for seg in s.send(b"reply!") {
            c.receive(&seg);
        }
        assert_eq!(c.readable(), b"reply!");
    }

    #[test]
    fn mss_respects_mtu() {
        let e = TcpEndpoint::new(1500, true, true);
        assert_eq!(e.mss, 1460);
        let e = TcpEndpoint::new(9000, true, true);
        assert_eq!(e.mss, 8960);
    }

    #[test]
    #[should_panic(expected = "send before handshake")]
    fn send_before_handshake_panics() {
        let mut e = TcpEndpoint::new(9000, true, true);
        let _ = e.send(b"nope");
    }
}
