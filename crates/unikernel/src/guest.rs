//! Per-environment guests: negotiated features + calibrated cost tables.
//!
//! Calibration (see DESIGN.md §4 for the paper anchors):
//!
//! * Fig. 6 shape — per small RPC round trip: native ≈ 27 µs, RustyHermit
//!   ≈ 2.0–2.2× native (smallest virtualized overhead), Unikraft slightly
//!   above Hermit, Linux VM the slowest.
//! * Fig. 7 shape — bulk H2D: native near wire speed (single-core bound),
//!   Linux VM ≥ 80 % of native, RustyHermit ≈ 10 % in the worse direction,
//!   Unikraft slightly below Hermit; the §4.2 ablation (Linux VM with
//!   TSO/csum/SG off) ≈ 920 MiB/s.
//!
//! The per-event constants are chosen from public measurements of the
//! mechanisms (KVM vm-exit + vhost notify ≈ 10 µs; Linux syscall ≈ 1.3 µs;
//! single-address-space "syscall" = function call ≈ 0.1–0.2 µs; guest
//! context switch 1–3 µs) and then nudged within plausible ranges so the
//! emergent end-to-end numbers match the anchors.

use crate::features::{negotiate, VirtioFeatures};
use simnet::virtio::VirtqueueConfig;
use simnet::GuestCosts;

/// The five client environments of the paper's Table 1 (the C and Rust
/// native configurations share the `NativeLinux` guest; their difference is
/// client-library behavior, modeled in `cricket-client`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuestKind {
    /// Bare-metal Rocky Linux (the paper's "C" and "Rust" rows).
    NativeLinux,
    /// Fedora VM under QEMU/KVM with virtio-net.
    LinuxVm,
    /// Unikraft unikernel (lwIP).
    Unikraft,
    /// RustyHermit unikernel (smoltcp), with the paper's virtio additions.
    RustyHermit,
    /// RustyHermit before the paper's §3.1 improvements (ablation).
    RustyHermitLegacy,
    /// RustyHermit with TCP segmentation offload — the paper's future work
    /// ("there are ongoing efforts to support TCP segmentation offloading,
    /// which we expect to increase performance significantly", §5).
    RustyHermitTso,
}

impl GuestKind {
    /// All evaluated kinds in Table 1 order (legacy Hermit excluded).
    pub fn table1() -> [GuestKind; 4] {
        [
            GuestKind::NativeLinux,
            GuestKind::LinuxVm,
            GuestKind::Unikraft,
            GuestKind::RustyHermit,
        ]
    }
}

/// A fully configured guest environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Guest {
    /// Which environment this is.
    pub kind: GuestKind,
    /// Features negotiated with the (QEMU) device.
    pub features: VirtioFeatures,
    /// The cost table the path model consumes.
    pub costs: GuestCosts,
}

/// KVM vm-exit + host-side virtio notify handling + guest re-entry.
const VMEXIT_NS: u64 = 12_500;

impl Guest {
    /// Build a guest of `kind` with an IP MTU of 9000 (the paper's setup).
    pub fn new(kind: GuestKind) -> Self {
        Self::with_mtu(kind, 9000)
    }

    /// Build a guest with an explicit MTU.
    pub(crate) fn with_mtu(kind: GuestKind, mtu: usize) -> Self {
        let device = VirtioFeatures::qemu_device();
        match kind {
            GuestKind::NativeLinux => {
                let mut costs = GuestCosts::native_linux();
                costs.mtu = mtu;
                Self {
                    kind,
                    // Native hardware offers the same offload set.
                    features: VirtioFeatures::linux_driver(),
                    costs,
                }
            }
            GuestKind::LinuxVm => {
                let features = negotiate(device, VirtioFeatures::linux_driver());
                let costs = GuestCosts {
                    name: "linux-vm".into(),
                    virtualized: true,
                    // Full Linux guest: real syscalls, scheduler wakeups,
                    // softirq RX path — the deepest stack of the four.
                    syscall_ns: 1_300,
                    context_switch_ns: 2_800,
                    vmexit_ns: VMEXIT_NS,
                    tx_fixed_ns: 5_000,
                    rx_fixed_ns: 7_000,
                    tx_seg_ns: 1_000,
                    rx_seg_ns: 1_200,
                    copy_ns_per_byte: 0.05,
                    csum_ns_per_byte: 0.40,
                    // vhost zero-copy TX: with scatter-gather the host
                    // transmits guest pages directly (no extra copy).
                    tx_extra_copies: 0,
                    virtq: VirtqueueConfig {
                        ring_size: 256,
                        kick_batch: 4,
                        mrg_rxbuf: features.contains(VirtioFeatures::MRG_RXBUF),
                    },
                    rx_coalesce: 16,
                    rx_gro: true,
                    offloads: features.offloads(),
                    mtu,
                };
                Self {
                    kind,
                    features,
                    costs,
                }
            }
            GuestKind::Unikraft => {
                let features = negotiate(device, VirtioFeatures::unikraft_driver());
                let costs = GuestCosts {
                    name: "unikraft".into(),
                    virtualized: true,
                    // Single address space: "syscalls" are function calls
                    // into lib-lwip; no guest context switches.
                    syscall_ns: 200,
                    context_switch_ns: 0,
                    vmexit_ns: VMEXIT_NS,
                    tx_fixed_ns: 4_500,
                    rx_fixed_ns: 5_500,
                    // lwIP's per-segment pbuf handling is heavier than
                    // Linux's skb fast path.
                    tx_seg_ns: 3_000,
                    rx_seg_ns: 3_500,
                    copy_ns_per_byte: 0.05,
                    csum_ns_per_byte: 0.40,
                    tx_extra_copies: 1, // no scatter-gather: linearize
                    virtq: VirtqueueConfig {
                        ring_size: 256,
                        kick_batch: 2,
                        mrg_rxbuf: features.contains(VirtioFeatures::MRG_RXBUF),
                    },
                    rx_coalesce: 4,
                    rx_gro: false,
                    offloads: features.offloads(),
                    mtu,
                };
                Self {
                    kind,
                    features,
                    costs,
                }
            }
            GuestKind::RustyHermit => {
                let features = negotiate(device, VirtioFeatures::hermit_driver());
                let costs = GuestCosts {
                    name: "rustyhermit".into(),
                    virtualized: true,
                    syscall_ns: 150,
                    context_switch_ns: 0,
                    vmexit_ns: VMEXIT_NS,
                    tx_fixed_ns: 3_500,
                    rx_fixed_ns: 4_500,
                    // smoltcp per-segment work; reduced internal copies per
                    // the paper's §3.1 ("reduced the amount of internal
                    // copies") reflected in tx_extra_copies = 1 despite no
                    // scatter-gather (copy_ns counts it once).
                    tx_seg_ns: 3_000,
                    rx_seg_ns: 3_000,
                    copy_ns_per_byte: 0.05,
                    csum_ns_per_byte: 0.40,
                    tx_extra_copies: 1,
                    virtq: VirtqueueConfig {
                        ring_size: 256,
                        kick_batch: 2,
                        mrg_rxbuf: features.contains(VirtioFeatures::MRG_RXBUF),
                    },
                    rx_coalesce: 4,
                    rx_gro: false,
                    offloads: features.offloads(),
                    mtu,
                };
                Self {
                    kind,
                    features,
                    costs,
                }
            }
            GuestKind::RustyHermitTso => {
                let mut g = Self::with_mtu(GuestKind::RustyHermit, mtu);
                g.kind = GuestKind::RustyHermitTso;
                g.features = g.features | VirtioFeatures::HOST_TSO4;
                g.costs.name = "rustyhermit-tso".into();
                g.costs.offloads.tso = true;
                // TSO batches kicks naturally: one descriptor chain per
                // 64 KiB super-segment.
                g.costs.virtq.kick_batch = 4;
                g
            }
            GuestKind::RustyHermitLegacy => {
                let mut g = Self::with_mtu(GuestKind::RustyHermit, mtu);
                let features = negotiate(device, VirtioFeatures::hermit_legacy_driver());
                g.kind = GuestKind::RustyHermitLegacy;
                g.features = features;
                g.costs.name = "rustyhermit-legacy".into();
                g.costs.offloads = features.offloads();
                g.costs.virtq.mrg_rxbuf = false;
                // Pre-paper driver also made more internal copies.
                g.costs.tx_extra_copies = 2;
                g
            }
        }
    }

    /// The §4.2 outlook: vDPA "removes the virtualization overhead from the
    /// data path by allowing direct access to hardware queues" — kicks
    /// become doorbell writes to hardware instead of vm-exits.
    pub fn with_vdpa(mut self) -> Self {
        assert!(
            self.costs.virtualized,
            "vDPA only applies to virtualized guests"
        );
        self.costs.name = format!("{}+vdpa", self.costs.name);
        // A doorbell write to a hardware queue costs ~0.5 µs instead of a
        // ~12.5 µs trap into the hypervisor.
        self.costs.vmexit_ns = 500;
        self
    }

    /// The paper's §4.2 ablation: Linux VM with TSO, TX checksum offload
    /// and scatter-gather disabled.
    pub fn linux_vm_offloads_disabled() -> Self {
        let mut g = Self::new(GuestKind::LinuxVm);
        g.costs.name = "linux-vm-no-offload".into();
        g.costs.offloads.tso = false;
        g.costs.offloads.tx_csum = false;
        g.costs.offloads.scatter_gather = false;
        // vhost zero-copy TX requires scatter-gather; the copy returns.
        g.costs.tx_extra_copies = 1;
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NetPath;

    fn round_ns(kind: GuestKind) -> u64 {
        let g = Guest::new(kind);
        NetPath::to_gpu_node(g.costs)
            .rpc_round(48, 32, 8_000)
            .total_ns()
    }

    #[test]
    fn fig6_latency_ordering_matches_paper() {
        let native = round_ns(GuestKind::NativeLinux);
        let hermit = round_ns(GuestKind::RustyHermit);
        let unikraft = round_ns(GuestKind::Unikraft);
        let vm = round_ns(GuestKind::LinuxVm);
        // "the Linux VM requires the most time for all evaluated APIs,
        //  while RustyHermit shows the smallest overhead, but still requires
        //  more than double the time of the native executions"
        assert!(
            hermit < unikraft && unikraft < vm,
            "hermit={hermit} unikraft={unikraft} vm={vm}"
        );
        assert!(
            hermit > 2 * native,
            "hermit {hermit} must exceed 2x native {native}"
        );
        assert!(
            vm < 4 * native,
            "vm {vm} implausibly slow vs native {native}"
        );
    }

    #[test]
    fn fig7_bandwidth_shape_matches_paper() {
        let bw = |g: Guest| NetPath::to_gpu_node(g.costs).bulk_bandwidth_bps(512 << 20, true);
        let native = bw(Guest::new(GuestKind::NativeLinux));
        let vm = bw(Guest::new(GuestKind::LinuxVm));
        let hermit = bw(Guest::new(GuestKind::RustyHermit));
        let unikraft = bw(Guest::new(GuestKind::Unikraft));
        let vm_noofl = bw(Guest::linux_vm_offloads_disabled());

        // "the Linux VM can retain at least 80 % of performance"
        assert!(vm / native > 0.70, "vm/native = {}", vm / native);
        // "RustyHermit can only reach approx. 9.8 % in one direction"
        let hermit_frac = hermit / native;
        assert!(
            (0.05..0.25).contains(&hermit_frac),
            "hermit/native = {hermit_frac}"
        );
        // Unikraft (no checksum offload) below Hermit.
        assert!(unikraft < hermit, "unikraft={unikraft} hermit={hermit}");
        // Ablation: ≈ 923.9 MiB/s host-to-device.
        let mibps = vm_noofl / (1024.0 * 1024.0);
        assert!(
            (500.0..2000.0).contains(&mibps),
            "VM-without-offloads H2D = {mibps} MiB/s"
        );
    }

    #[test]
    fn legacy_hermit_is_worse_than_paper_hermit() {
        let new = Guest::new(GuestKind::RustyHermit);
        let old = Guest::new(GuestKind::RustyHermitLegacy);
        let bw_new = NetPath::to_gpu_node(new.costs).bulk_bandwidth_bps(64 << 20, true);
        let bw_old = NetPath::to_gpu_node(old.costs).bulk_bandwidth_bps(64 << 20, true);
        assert!(
            bw_old < bw_new,
            "paper's virtio work must improve bandwidth: {bw_old} vs {bw_new}"
        );
    }

    #[test]
    fn features_match_kind() {
        assert!(Guest::new(GuestKind::RustyHermit)
            .features
            .contains(VirtioFeatures::MRG_RXBUF));
        assert!(!Guest::new(GuestKind::Unikraft)
            .features
            .contains(VirtioFeatures::CSUM));
        assert!(Guest::new(GuestKind::LinuxVm)
            .features
            .contains(VirtioFeatures::HOST_TSO4));
        assert_eq!(
            Guest::new(GuestKind::RustyHermitLegacy).features,
            VirtioFeatures::empty()
        );
    }

    #[test]
    fn unikernels_have_no_guest_context_switches() {
        assert_eq!(
            Guest::new(GuestKind::RustyHermit).costs.context_switch_ns,
            0
        );
        assert_eq!(Guest::new(GuestKind::Unikraft).costs.context_switch_ns, 0);
        assert!(Guest::new(GuestKind::LinuxVm).costs.context_switch_ns > 0);
    }

    #[test]
    fn future_work_tso_improves_hermit_bandwidth() {
        let plain = Guest::new(GuestKind::RustyHermit);
        let tso = Guest::new(GuestKind::RustyHermitTso);
        let bw = |g: Guest| NetPath::to_gpu_node(g.costs).bulk_bandwidth_bps(256 << 20, true);
        let (b_plain, b_tso) = (bw(plain), bw(tso));
        assert!(
            b_tso > 3.0 * b_plain,
            "TSO should increase Hermit H2D significantly: {b_plain} -> {b_tso}"
        );
    }

    #[test]
    fn future_work_vdpa_cuts_per_call_latency() {
        let plain = Guest::new(GuestKind::RustyHermit);
        let vdpa = Guest::new(GuestKind::RustyHermit).with_vdpa();
        let t = |g: Guest| {
            NetPath::to_gpu_node(g.costs)
                .rpc_round(48, 32, 8_000)
                .total_ns()
        };
        let (t_plain, t_vdpa) = (t(plain), t(vdpa));
        assert!(
            t_vdpa + 15_000 < t_plain,
            "vDPA removes ~2 vm-exits per round: {t_plain} -> {t_vdpa}"
        );
    }

    #[test]
    fn mtu_parameter_respected() {
        let g = Guest::with_mtu(GuestKind::RustyHermit, 1500);
        assert_eq!(g.costs.mtu, 1500);
    }
}
