//! Property tests on the cost model: monotonicity and sanity bounds that
//! must hold for *any* parameterization the harness might sweep. Plus the
//! checksum engine against a reference that cannot overflow.

use proptest::prelude::*;
use simnet::checksum::ones_complement_sum;
use simnet::{segment_plan, GuestCosts, NetPath, Wire};

fn any_bytes() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..4096, 4096usize..10_000_000]
}

proptest! {
    #[test]
    fn tx_cost_monotone_in_size(a in any_bytes(), b in any_bytes()) {
        let g = GuestCosts::native_linux();
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(g.tx_cost(small).total_ns() <= g.tx_cost(large).total_ns());
        prop_assert!(g.rx_cost(small).total_ns() <= g.rx_cost(large).total_ns());
    }

    #[test]
    fn rpc_round_monotone_in_payload(req in any_bytes(), resp in any_bytes()) {
        let p = NetPath::to_gpu_node(GuestCosts::native_linux());
        let base = p.rpc_round(0, 0, 0).total_ns();
        let t = p.rpc_round(req, resp, 0).total_ns();
        prop_assert!(t >= base);
        // Adding server exec time adds exactly that amount.
        prop_assert_eq!(p.rpc_round(req, resp, 12_345).total_ns(), t + 12_345);
    }

    #[test]
    fn bandwidth_never_exceeds_wire(bytes in 1usize..64_000_000) {
        let p = NetPath::to_gpu_node(GuestCosts::native_linux());
        let bw = p.bulk_bandwidth_bps(bytes, true);
        prop_assert!(bw <= p.wire.bandwidth_bps * 1.01, "{bw}");
        let bw = p.bulk_bandwidth_bps(bytes, false);
        prop_assert!(bw <= p.wire.bandwidth_bps * 1.01, "{bw}");
    }

    #[test]
    fn segment_plan_accounts_every_byte(
        bytes in 0usize..10_000_000,
        mtu in 60usize..65_000,
        tso: bool,
        csum: bool,
    ) {
        let plan = segment_plan(bytes, mtu, tso, csum);
        let payload_per_mtu = mtu.saturating_sub(40).max(1);
        // Segments must be able to carry all bytes, without one spare.
        prop_assert!(plan.wire_segments * payload_per_mtu >= bytes);
        if plan.wire_segments > 1 {
            prop_assert!((plan.wire_segments - 1) * payload_per_mtu < bytes);
        }
        prop_assert!(plan.software_segments <= plan.wire_segments);
        prop_assert_eq!(plan.checksum_bytes, if csum { 0 } else { bytes });
    }

    #[test]
    fn disabling_offloads_never_helps(bytes in 1usize..32_000_000) {
        let mut with = GuestCosts::native_linux();
        with.virtualized = true;
        with.vmexit_ns = 10_000;
        let mut without = with.clone();
        without.offloads.tso = false;
        without.offloads.tx_csum = false;
        without.offloads.scatter_gather = false;
        prop_assert!(
            with.tx_cost(bytes).total_ns() <= without.tx_cost(bytes).total_ns(),
            "offloads must never hurt"
        );
    }

    #[test]
    fn wire_times_additive(a in 0usize..10_000_000, b in 0usize..10_000_000) {
        let w = Wire::ethernet_100g();
        let sum = w.serialize_ns(a) + w.serialize_ns(b);
        let joint = w.serialize_ns(a + b);
        // Integer truncation allows 1-2 ns slack.
        prop_assert!(joint.abs_diff(sum) <= 2);
    }

    /// Against a sum folded after every word, so its accumulator never
    /// exceeds 17 bits: lengths past 131 072 bytes of `0xff` wrapped the old
    /// `u32` accumulator.
    #[test]
    fn checksum_matches_fold_every_word_reference(
        len in 0usize..=300_000,
        fill in prop_oneof![Just(0xffu8), any::<u8>()],
        stride in 1usize..=7,
    ) {
        let data: Vec<u8> = (0..len)
            .map(|i| if i % stride == 0 { fill } else { 0xff })
            .collect();
        let mut want = 0u32;
        for c in data.chunks(2) {
            want += (u32::from(c[0]) << 8) | u32::from(*c.get(1).unwrap_or(&0));
            want = (want & 0xffff) + (want >> 16);
        }
        prop_assert_eq!(u32::from(ones_complement_sum(&data)), want, "len {}", len);
    }

    /// The sum's 16-byte pieces and its 16-bit tail, against the same
    /// fold-every-word reference: random bytes from every start offset
    /// 0..16 (every alignment of the pieces) at every length remainder
    /// mod 16 (every tail, odd ones too); two halves split at an even offset
    /// and added ones'-complement equal the whole, which
    /// `unikernel::tcp::Segment::sum` relies on.
    #[test]
    fn checksum_matches_the_reference_at_every_offset_tail_and_even_split(
        bytes in proptest::collection::vec(any::<u8>(), 32..4096),
        split in 0usize..4096,
    ) {
        for start in 0..16 {
            for rem in 0..16 {
                let len = (bytes.len() - start - rem) / 16 * 16 + rem;
                let data = &bytes[start..start + len];
                prop_assert_eq!(
                    u32::from(ones_complement_sum(data)),
                    fold_every_word(data),
                    "start {} len {}",
                    start,
                    len
                );
            }
        }
        let at = split.min(bytes.len()) & !1;
        let (head, tail) = bytes.split_at(at);
        let halves = u32::from(ones_complement_sum(head)) + u32::from(ones_complement_sum(tail));
        let halves = (halves & 0xffff) + (halves >> 16);
        prop_assert_eq!(halves, fold_every_word(&bytes), "split at {}", at);
    }
}

/// At least 1 MiB of `0xff`, every word at its largest, at every tail
/// length: the deferred carries of the widest lanes against the reference.
#[test]
fn checksum_of_a_mebibyte_of_ones_matches_the_reference() {
    let ff = vec![0xffu8; (1 << 20) + 16];
    for len in (1 << 20)..ff.len() {
        let data = &ff[..len];
        assert_eq!(
            u32::from(ones_complement_sum(data)),
            fold_every_word(data),
            "len {len}"
        );
    }
}

/// Big-endian 16-bit words, an odd last byte high-order, folded after every
/// word so the accumulator never exceeds 17 bits.
fn fold_every_word(data: &[u8]) -> u32 {
    let mut sum = 0u32;
    for c in data.chunks(2) {
        sum += (u32::from(c[0]) << 8) | u32::from(*c.get(1).unwrap_or(&0));
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum
}
