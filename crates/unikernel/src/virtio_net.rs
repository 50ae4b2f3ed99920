//! Virtio-net frame layer: `virtio_net_hdr`, host-side TSO splitting, and
//! merged receive buffers.
//!
//! With TSO negotiated, the guest hands the device one super-frame of up to
//! 64 KiB with `gso_size` set; the *host* (vhost/NIC) splits it into wire
//! segments — that splitting really happens here, in [`host_segment`].
//! On receive, with `MRG_RXBUF` the device writes a large packet across
//! several guest buffers ([`deliver_mrg`]); without it the guest must post
//! worst-case buffers and copy once more ([`deliver_fixed`]).

use crate::features::VirtioFeatures;
use crate::tcp::Segment;
use simnet::segment::TSO_SEGMENT;

/// The `virtio_net_hdr` prepended to every frame on the virtqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtioNetHdr {
    /// Checksum must be completed by the device (`VIRTIO_NET_HDR_F_NEEDS_CSUM`).
    pub needs_csum: bool,
    /// GSO segment size (0 = no GSO).
    pub gso_size: u16,
    /// Number of merged buffers this packet spans (RX with MRG_RXBUF).
    pub num_buffers: u16,
}

/// One frame as it crosses the virtqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Virtio header.
    pub hdr: VirtioNetHdr,
    /// The TCP segment (super-segment when GSO).
    pub segment: Segment<'a>,
}

/// Guest TX: wrap a TCP segment into a virtqueue frame according to the
/// negotiated features. With TSO the caller should have produced a
/// super-segment (MSS up to 64 KiB); this function marks it for GSO.
pub fn guest_tx(features: VirtioFeatures, segment: Segment<'_>, wire_mss: usize) -> Frame<'_> {
    let tso = features.contains(VirtioFeatures::HOST_TSO4);
    let gso = tso && segment.payload.len() > wire_mss;
    Frame {
        hdr: VirtioNetHdr {
            needs_csum: features.contains(VirtioFeatures::CSUM),
            gso_size: if gso { wire_mss as u16 } else { 0 },
            num_buffers: 1,
        },
        segment,
    }
}

/// Host side: finalize a frame for the wire — complete deferred checksums
/// and split GSO super-frames into MSS-sized wire segments, each a
/// sub-slice of the frame's payload. This is the work TSO/checksum offload
/// moves off the guest's vCPU.
pub fn host_segment(frame: Frame<'_>) -> impl Iterator<Item = Segment<'_>> {
    let Frame { hdr, segment } = frame;
    let len = segment.payload.len();
    let split = hdr.gso_size != 0 && len > hdr.gso_size as usize;
    let mss = if split {
        hdr.gso_size as usize
    } else {
        len.max(1)
    };
    // An empty frame (a bare ACK) still crosses the wire as one segment.
    (0..len.div_ceil(mss).max(1)).map(move |i| {
        let at = i * mss;
        let mut seg = Segment {
            header: segment.header,
            payload: &segment.payload[at..len.min(at + mss)],
        };
        if split {
            seg.header.seq = seg.header.seq.wrapping_add(at as u32);
            seg.header.syn = false;
        }
        if split || hdr.needs_csum {
            seg.header.checksum = seg.expected_checksum();
            seg.header.csum_offloaded = false; // now valid on the wire
        }
        seg
    })
}

/// Largest super-segment the guest may hand down with TSO.
pub const GSO_MAX: usize = TSO_SEGMENT;

/// RX with merged buffers: the device writes the packet across as many
/// `buf_size` buffers as needed and the stack reassembles straight out of
/// them — that reassembly is the one copy per buffer, so nothing is staged
/// here. Returns (packet bytes, buffers consumed, copies performed).
pub fn deliver_mrg(payload: &[u8], buf_size: usize) -> (&[u8], usize, usize) {
    let buffers = payload.len().div_ceil(buf_size).max(1);
    (payload, buffers, buffers)
}

/// RX without merged buffers: each packet lands in one worst-case `posted`
/// buffer (copy 1, done here) and the stack linearizes out of it (copy 2,
/// the reassembly of the returned bytes) — 2 copies total.
pub fn deliver_fixed<'b>(payload: &[u8], posted: &'b mut Vec<u8>) -> (&'b [u8], usize, usize) {
    posted.clear();
    posted.extend_from_slice(payload);
    (posted, 1, 2)
}

/// Device-side checksum validation for RX when the guest negotiated
/// `GUEST_CSUM` (the device marks the packet valid; guest skips verify).
pub fn device_validates(seg: &Segment) -> bool {
    if seg.header.csum_offloaded {
        // Sender deferred; device computed it before the wire in
        // host_segment, so a still-offloaded segment only appears on
        // loopback paths — accept it.
        true
    } else {
        seg.verify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{handshake, TcpEndpoint};

    fn established_pair(mtu: usize, sw_csum: bool) -> (TcpEndpoint, TcpEndpoint) {
        let mut c = TcpEndpoint::new(mtu, sw_csum, sw_csum);
        let mut s = TcpEndpoint::new(mtu, sw_csum, sw_csum);
        handshake(&mut c, &mut s);
        (c, s)
    }

    #[test]
    fn tso_path_splits_on_host() {
        // Guest with TSO: TCP layer uses a 64 KiB MSS; host splits to 8960.
        let mut guest = TcpEndpoint::new(GSO_MAX + 40, false, false);
        let mut peer = TcpEndpoint::new(9000, true, true);
        handshake(&mut guest, &mut peer);
        let data = vec![0xa5u8; 100_000];
        let supers = guest.send(&data);
        assert_eq!(supers.len(), 2, "two 64 KiB super-segments");
        let mut wire: Vec<Segment> = Vec::new();
        for s in supers {
            wire.extend(host_segment(guest_tx(
                VirtioFeatures::qemu_device(),
                s,
                9000 - 40,
            )));
        }
        assert_eq!(wire.len(), 100_000usize.div_ceil(8960));
        // Receiver (software verify) accepts every host-built segment.
        for seg in &wire {
            assert!(seg.verify(), "host-computed checksum must verify");
            assert!(peer.receive(seg));
        }
        assert_eq!(peer.readable(), data);
    }

    #[test]
    fn non_tso_guest_segments_itself() {
        let (mut c, _s) = established_pair(9000, true);
        let data = vec![1u8; 50_000];
        let segs = c.send(&data);
        let frames: Vec<Frame> = segs
            .into_iter()
            .map(|s| guest_tx(VirtioFeatures::MRG_RXBUF, s, 8960))
            .collect();
        // No GSO marking, no device checksum work.
        assert!(frames
            .iter()
            .all(|f| f.hdr.gso_size == 0 && !f.hdr.needs_csum));
        let wire: Vec<Segment> = frames.into_iter().flat_map(host_segment).collect();
        assert_eq!(wire.len(), 50_000usize.div_ceil(8960));
        assert!(wire.iter().all(|s| s.verify()));
    }

    #[test]
    fn csum_offload_defers_to_host() {
        let (mut c, _s) = established_pair(9000, false);
        let segs = c.send(b"needs checksum");
        assert!(segs[0].header.csum_offloaded);
        let frame = guest_tx(VirtioFeatures::CSUM, segs[0], 8960);
        assert!(frame.hdr.needs_csum);
        let wire: Vec<Segment> = host_segment(frame).collect();
        assert!(!wire[0].header.csum_offloaded);
        assert!(wire[0].verify());
    }

    #[test]
    fn mrg_rxbuf_uses_fewer_copies_for_big_packets() {
        let payload = vec![3u8; 60_000];
        let (out_m, bufs_m, copies_m) = deliver_mrg(&payload, 4096);
        let mut posted = Vec::new();
        let (out_f, bufs_f, copies_f) = deliver_fixed(&payload, &mut posted);
        assert_eq!(out_m, payload);
        assert_eq!(out_f, payload);
        assert_eq!(bufs_m, 60_000usize.div_ceil(4096));
        assert_eq!(bufs_f, 1);
        // Mrg: one copy per buffer but no linearization; fixed: 2 full copies.
        assert_eq!(copies_m, bufs_m);
        assert_eq!(copies_f, 2);
    }

    #[test]
    fn device_validation_detects_corruption() {
        let (mut c, _s) = established_pair(9000, true);
        let segs = c.send(b"payload under test");
        assert!(device_validates(&segs[0]));
        let mut corrupted = segs[0].payload.to_vec();
        corrupted[0] ^= 1;
        let seg = Segment {
            payload: &corrupted,
            ..segs[0]
        };
        assert!(!device_validates(&seg));
    }
}
