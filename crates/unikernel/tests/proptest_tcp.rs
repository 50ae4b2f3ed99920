//! Property tests on the functional guest TCP/virtio data path: arbitrary
//! payloads must survive segmentation → (optional host TSO split) →
//! checksum verification → reassembly, and corruption must always be
//! detected when software verification is active.

use proptest::prelude::*;
use simnet::checksum::{internet_checksum, ones_complement_sum};
use unikernel::features::VirtioFeatures;
use unikernel::tcp::{handshake, SegHeader, Segment, TcpEndpoint};
use unikernel::virtio_net::{guest_tx, host_segment, GSO_MAX};

fn carry(data: &[u8], mtu: usize, sw_csum: bool, tso: bool) -> Vec<u8> {
    let client_mtu = if tso { GSO_MAX + 40 } else { mtu };
    let mut tx = TcpEndpoint::new(client_mtu, sw_csum, sw_csum);
    let mut rx = TcpEndpoint::new(mtu, sw_csum, sw_csum);
    handshake(&mut tx, &mut rx);
    let features = if tso {
        VirtioFeatures::qemu_device()
    } else if sw_csum {
        VirtioFeatures::MRG_RXBUF
    } else {
        VirtioFeatures::CSUM | VirtioFeatures::GUEST_CSUM
    };
    for seg in tx.segments(data) {
        let frame = guest_tx(features, seg, mtu.saturating_sub(40).max(1));
        for seg in host_segment(frame) {
            assert!(rx.receive(&seg), "in-order valid segment must be accepted");
        }
    }
    rx.readable().to_vec()
}

/// The checksum as the owning pipeline computed it: pseudo-header and
/// payload materialised into one zero-padded buffer. Kept here as the
/// reference the streamed `expected_checksum` / `verify` must equal.
fn reference_input(seq: u32, ack: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(14 + payload.len());
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&ack.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    if buf.len() % 2 != 0 {
        buf.push(0);
    }
    buf
}

fn reference_verify(seg: &Segment) -> bool {
    let mut input = reference_input(seg.header.seq, seg.header.ack, seg.payload);
    input.extend_from_slice(&seg.header.checksum.to_be_bytes());
    ones_complement_sum(&input) == 0xffff
}

fn data_segment(seq: u32, ack: u32, checksum: u16, payload: &[u8]) -> Segment<'_> {
    Segment {
        header: SegHeader {
            seq,
            ack,
            syn: false,
            ack_flag: true,
            checksum,
            csum_offloaded: false,
        },
        payload,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streamed_checksum_equals_materialised_reference(
        seq in any::<u32>(),
        ack in any::<u32>(),
        wrong in any::<u16>(),
        mss in 1usize..300,
        fill in proptest::collection::vec(any::<u8>(), 600),
    ) {
        // Every length 0..=2*mss, so every odd length and both sides of
        // the segment boundary.
        for len in 0..=2 * mss {
            let payload = &fill[..len];
            let expected = internet_checksum(&reference_input(seq, ack, payload));
            prop_assert_eq!(data_segment(seq, ack, 0, payload).expected_checksum(), expected);
            for checksum in [expected, wrong, 0, 0xffff] {
                let seg = data_segment(seq, ack, checksum, payload);
                prop_assert_eq!(seg.verify(), reference_verify(&seg));
            }
            prop_assert!(data_segment(seq, ack, expected, payload).verify());
        }
    }

    #[test]
    fn verify_rejects_every_single_bit_flip(
        seq in any::<u32>(),
        ack in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let good = data_segment(seq, ack, 0, &payload).expected_checksum();
        for bit in 0..32 {
            prop_assert!(!data_segment(seq ^ (1 << bit), ack, good, &payload).verify());
            prop_assert!(!data_segment(seq, ack ^ (1 << bit), good, &payload).verify());
        }
        for bit in 0..16 {
            prop_assert!(!data_segment(seq, ack, good ^ (1 << bit), &payload).verify());
        }
        let mut flipped = payload.clone();
        for bit in 0..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(!data_segment(seq, ack, good, &flipped).verify(), "payload bit {}", bit);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn payloads_survive_software_path(
        data in proptest::collection::vec(any::<u8>(), 0..60_000),
        mtu in 100usize..9_500,
    ) {
        prop_assert_eq!(carry(&data, mtu, true, false), data);
    }

    #[test]
    fn payloads_survive_tso_path(
        data in proptest::collection::vec(any::<u8>(), 0..200_000),
    ) {
        prop_assert_eq!(carry(&data, 9000, false, true), data);
    }

    #[test]
    fn payloads_survive_offloaded_csum_path(
        data in proptest::collection::vec(any::<u8>(), 0..60_000),
    ) {
        prop_assert_eq!(carry(&data, 9000, false, false), data);
    }

    #[test]
    fn single_bitflips_always_detected_by_software_verify(
        data in proptest::collection::vec(any::<u8>(), 16..5_000),
        flip_byte_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let mut tx = TcpEndpoint::new(9000, true, true);
        let mut rx = TcpEndpoint::new(9000, true, true);
        handshake(&mut tx, &mut rx);
        let segs = tx.send(&data);
        let mut corrupted = segs[0].payload.to_vec();
        let idx = ((corrupted.len() - 1) as f64 * flip_byte_frac) as usize;
        corrupted[idx] ^= 1 << flip_bit;
        let seg = Segment { payload: &corrupted, ..segs[0] };
        prop_assert!(!rx.receive(&seg), "corrupted segment must be dropped");
        prop_assert_eq!(rx.available(), 0);
    }

    #[test]
    fn sequence_numbers_are_contiguous(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..5_000), 1..10),
    ) {
        let mut tx = TcpEndpoint::new(9000, true, true);
        let mut rx = TcpEndpoint::new(9000, true, true);
        handshake(&mut tx, &mut rx);
        let mut expected_seq = tx.snd_nxt;
        let mut total = 0usize;
        for chunk in &chunks {
            for seg in tx.send(chunk) {
                prop_assert_eq!(seg.header.seq, expected_seq);
                expected_seq = expected_seq.wrapping_add(seg.payload.len() as u32);
                prop_assert!(rx.receive(&seg));
            }
            total += chunk.len();
        }
        prop_assert_eq!(rx.available(), total);
        let all: Vec<u8> = chunks.concat();
        prop_assert_eq!(rx.readable(), all);
    }
}
