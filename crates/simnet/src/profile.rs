//! Guest-side cost profiles.
//!
//! A [`GuestCosts`] table describes how expensive the network send/receive
//! paths of one execution environment are, in terms of the mechanisms the
//! paper discusses: syscalls, guest context switches, vm-exits (virtio
//! kicks/interrupts), per-segment stack processing, software checksums and
//! buffer copies. The concrete per-environment tables (native Linux, Linux
//! VM, Unikraft, RustyHermit) are built by the `unikernel` crate from
//! negotiated virtio features; [`GuestCosts::native_linux`] lives here
//! because the Cricket server side always runs native Linux.

use crate::segment::{segment_plan, TSO_SEGMENT};
use crate::virtio::{rx_accounting, tx_accounting, VirtqueueConfig};

/// Offload features negotiated between guest driver and device.
///
/// Mirrors `VIRTIO_NET_F_*`: `tx_csum` ↔ `F_CSUM` (device computes TX
/// checksums), `rx_csum` ↔ `F_GUEST_CSUM` (device validates RX checksums),
/// `mrg_rxbuf` ↔ `F_MRG_RXBUF`, `tso` ↔ `F_HOST_TSO4/6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadFeatures {
    /// TCP segmentation offload (guest hands 64 KiB super-segments down).
    pub tso: bool,
    /// Transmit checksum offload.
    pub tx_csum: bool,
    /// Receive checksum offload.
    pub rx_csum: bool,
    /// Merged receive buffers.
    pub mrg_rxbuf: bool,
    /// Scatter-gather DMA (avoids linearizing copies on TX).
    pub scatter_gather: bool,
}

impl OffloadFeatures {
    /// Everything on (modern native Linux / virtio with full negotiation).
    pub(crate) fn all() -> Self {
        Self {
            tso: true,
            tx_csum: true,
            rx_csum: true,
            mrg_rxbuf: true,
            scatter_gather: true,
        }
    }
}

/// Fixed + per-unit CPU costs of one environment's network data path.
#[derive(Debug, Clone, PartialEq)]
pub struct GuestCosts {
    /// Environment name (diagnostics and reports).
    pub name: String,
    /// Whether kicks/interrupts cross a hypervisor boundary (vm-exits).
    pub virtualized: bool,
    /// Cost of entering the kernel for a send/recv call. Unikernels run in a
    /// single address space, so this is a function call (~100 ns); Linux
    /// pays a real syscall.
    pub syscall_ns: u64,
    /// Guest-internal context switch charged when a blocked receiver wakes
    /// up. Zero for unikernels (no separate kernel threads to switch to) —
    /// the paper: "no classic context switches within the guest".
    pub context_switch_ns: u64,
    /// Cost of one virtio kick or interrupt crossing the hypervisor
    /// (vm-exit + host-side handling + re-entry). Zero when not virtualized.
    pub vmexit_ns: u64,
    /// Fixed per-send stack traversal cost.
    pub tx_fixed_ns: u64,
    /// Fixed per-receive stack traversal cost.
    pub rx_fixed_ns: u64,
    /// Per-software-segment TX processing cost.
    pub tx_seg_ns: u64,
    /// Per-wire-segment RX processing cost.
    pub rx_seg_ns: u64,
    /// memcpy cost per byte (ns). ~0.05 ns/B ≈ 20 GB/s single core.
    pub copy_ns_per_byte: f64,
    /// Software Internet-checksum cost per byte (ns), charged only when the
    /// corresponding offload is missing. ~0.4 ns/B ≈ 2.5 GB/s.
    pub csum_ns_per_byte: f64,
    /// Extra copies on the TX path beyond the unavoidable one
    /// (0 with scatter-gather, 1 without; +1 inside vhost for VMs).
    pub tx_extra_copies: u32,
    /// Virtqueue configuration (ring size, kick batching, mrg_rxbuf).
    pub virtq: VirtqueueConfig,
    /// RX interrupt coalescing factor (segments per interrupt).
    pub rx_coalesce: usize,
    /// Generic receive offload: the host/device merges wire segments into
    /// 64 KiB units before the guest processes them (the RX analogue of
    /// TSO; negotiated via `VIRTIO_NET_F_GUEST_TSO4` by Linux guests, not
    /// yet by the unikernels). Independent of the TX offloads, so the
    /// paper's §4.2 TX-side ablation leaves it on.
    pub rx_gro: bool,
    /// Negotiated offloads.
    pub offloads: OffloadFeatures,
    /// Link MTU seen by the stack.
    pub mtu: usize,
}

/// A data-path cost split into a size-independent and a size-dependent part,
/// so round-trip latency (fixed-dominated) and streaming bandwidth
/// (bulk-dominated, pipelined) can both be derived from one table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParts {
    /// Cost paid regardless of payload size (first segment, first kick,
    /// syscall, fixed stack traversal).
    pub fixed_ns: u64,
    /// Additional cost that scales with the payload.
    pub bulk_ns: u64,
}

impl CostParts {
    /// Total serial cost.
    pub fn total_ns(&self) -> u64 {
        self.fixed_ns + self.bulk_ns
    }
}

impl GuestCosts {
    /// Native Linux on the paper's EPYC nodes: no virtualization, full
    /// offloads. Calibrated so a small Cricket RPC round trip lands near
    /// 30 µs and bulk single-core sends near 10 GB/s of the paper's setup.
    pub fn native_linux() -> Self {
        Self {
            name: "native-linux".into(),
            virtualized: false,
            syscall_ns: 1_300,
            context_switch_ns: 1_200,
            vmexit_ns: 0,
            tx_fixed_ns: 1_500,
            rx_fixed_ns: 1_600,
            tx_seg_ns: 500,
            rx_seg_ns: 600,
            copy_ns_per_byte: 0.05,
            csum_ns_per_byte: 0.40,
            tx_extra_copies: 0,
            virtq: VirtqueueConfig::linux_default(),
            rx_coalesce: 16,
            rx_gro: true,
            offloads: OffloadFeatures::all(),
            mtu: 9000,
        }
    }

    /// CPU cost of transmitting `bytes` of payload.
    pub fn tx_cost(&self, bytes: usize) -> CostParts {
        let plan = segment_plan(bytes, self.mtu, self.offloads.tso, self.offloads.tx_csum);
        let acc = tx_accounting(&self.virtq, plan.software_segments);
        let vmexit = if self.virtualized { self.vmexit_ns } else { 0 };

        let seg_total = plan.software_segments as u64 * self.tx_seg_ns;
        let kick_total = acc.kicks as u64 * vmexit;
        let copies = 1 + self.tx_extra_copies + if self.offloads.scatter_gather { 0 } else { 1 };
        let byte_costs = (plan.checksum_bytes as f64 * self.csum_ns_per_byte
            + bytes as f64 * self.copy_ns_per_byte * copies as f64) as u64;

        // First segment + first kick are unavoidable per message → fixed.
        let fixed_ns = self.syscall_ns + self.tx_fixed_ns + self.tx_seg_ns + vmexit;
        let bulk_ns = (seg_total - self.tx_seg_ns) + (kick_total - vmexit) + byte_costs;
        CostParts { fixed_ns, bulk_ns }
    }

    /// CPU cost of receiving `bytes` of payload.
    pub fn rx_cost(&self, bytes: usize) -> CostParts {
        // With GRO the device/host merges wire segments into 64 KiB units
        // before the guest touches them, so per-segment RX work amortizes
        // the way TSO amortizes TX work. Linux guests negotiate it; the
        // unikernels do not, which is half of their Fig. 7 gap.
        let rx_mtu = if self.rx_gro {
            TSO_SEGMENT + 40
        } else {
            self.mtu
        };
        let plan = segment_plan(bytes, rx_mtu, false, self.offloads.rx_csum);
        let acc = rx_accounting(&self.virtq, plan.wire_segments, self.rx_coalesce);
        let vmexit = if self.virtualized { self.vmexit_ns } else { 0 };

        let seg_total = plan.wire_segments as u64 * self.rx_seg_ns;
        let intr_total = acc.interrupts as u64 * vmexit;
        let byte_costs = (plan.checksum_bytes as f64 * self.csum_ns_per_byte
            + bytes as f64 * self.copy_ns_per_byte * acc.copies_per_segment as f64)
            as u64;

        let fixed_ns =
            self.syscall_ns + self.rx_fixed_ns + self.rx_seg_ns + vmexit + self.context_switch_ns;
        let bulk_ns = (seg_total - self.rx_seg_ns) + (intr_total - vmexit) + byte_costs;
        CostParts { fixed_ns, bulk_ns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_small_message_costs_are_fixed_dominated() {
        let g = GuestCosts::native_linux();
        let tx = g.tx_cost(64);
        assert!(tx.fixed_ns > tx.bulk_ns);
        // Native small send ≈ 3.3 µs per the calibration note.
        assert!((2_000..6_000).contains(&tx.total_ns()), "{tx:?}");
        let rx = g.rx_cost(64);
        assert!((3_000..8_000).contains(&rx.total_ns()), "{rx:?}");
    }

    #[test]
    fn bulk_cost_scales_linearly() {
        let g = GuestCosts::native_linux();
        let a = g.tx_cost(10 << 20).bulk_ns;
        let b = g.tx_cost(20 << 20).bulk_ns;
        let ratio = b as f64 / a as f64;
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn disabling_tx_csum_charges_checksum_bytes() {
        let mut g = GuestCosts::native_linux();
        let with = g.tx_cost(1 << 20).total_ns();
        g.offloads.tx_csum = false;
        let without = g.tx_cost(1 << 20).total_ns();
        let delta = without - with;
        let expected = (1u64 << 20) as f64 * g.csum_ns_per_byte;
        assert!(
            (delta as f64 - expected).abs() / expected < 0.05,
            "delta {delta}, expected {expected}"
        );
    }

    #[test]
    fn disabling_tso_multiplies_segment_work() {
        let mut g = GuestCosts::native_linux();
        let with = g.tx_cost(4 << 20);
        g.offloads.tso = false;
        let without = g.tx_cost(4 << 20);
        // 4 MiB / 8960 B ≈ 469 software segments instead of 64; the extra
        // ~405 segments cost ~200 µs at 500 ns each.
        let delta = without.bulk_ns - with.bulk_ns;
        assert!(
            (150_000..300_000).contains(&delta),
            "delta {delta} ns (with={with:?}, without={without:?})"
        );
    }

    #[test]
    fn vmexits_charged_only_when_virtualized() {
        let mut g = GuestCosts::native_linux();
        g.vmexit_ns = 10_000;
        let not_virt = g.tx_cost(64).total_ns();
        g.virtualized = true;
        let virt = g.tx_cost(64).total_ns();
        assert_eq!(virt - not_virt, 10_000);
    }

    #[test]
    fn scatter_gather_removes_a_copy() {
        let mut g = GuestCosts::native_linux();
        let with = g.tx_cost(1 << 20).total_ns();
        g.offloads.scatter_gather = false;
        let without = g.tx_cost(1 << 20).total_ns();
        let expected = ((1u64 << 20) as f64 * g.copy_ns_per_byte) as u64;
        let delta = without - with;
        assert!(delta.abs_diff(expected) < expected / 10, "delta {delta}");
    }

    #[test]
    fn mrg_rxbuf_halves_rx_copy_bytes() {
        let mut g = GuestCosts::native_linux();
        let with = g.rx_cost(1 << 20).total_ns();
        g.virtq.mrg_rxbuf = false;
        let without = g.rx_cost(1 << 20).total_ns();
        let expected = ((1u64 << 20) as f64 * g.copy_ns_per_byte) as u64;
        assert!(
            (without - with).abs_diff(expected) < expected / 10,
            "with={with} without={without}"
        );
    }
}
