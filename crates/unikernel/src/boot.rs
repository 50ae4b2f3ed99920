//! Deployment-footprint model: boot time, image size, memory floor.
//!
//! The paper's motivation rests on deployment density: unikernels are
//! "customizable, lightweight, and robust" (§1), RustyHermit showed "lower
//! memory footprint, disk overhead, and system call latencies when compared
//! to a Linux VM" (§3.1 citing \[13\]), and the §5 conclusion argues that
//! *"Because the use case of unikernels involves using many unikernels to
//! run isolated applications, mapping entire GPUs to individual unikernels
//! is not feasible"* — the A100 offers at most **7** SR-IOV partitions
//! (§1 citing \[17\]).
//!
//! This module quantifies that argument with literature-scale footprint
//! numbers per guest type, so the `motivation` harness can print how many
//! instances fit the paper's GPU node against how many GPU partitions exist.

use crate::guest::GuestKind;

/// Static deployment footprint of one guest instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    /// Kernel+app image size on disk, MiB.
    pub image_mib: f64,
    /// Cold boot to application start, milliseconds.
    pub boot_ms: f64,
    /// Minimum practical guest memory, MiB.
    pub min_memory_mib: f64,
    /// System-call / kernel-entry latency, nanoseconds.
    pub syscall_ns: f64,
}

impl Footprint {
    /// Footprint table per guest kind. Sources: HermitCore/RustyHermit
    /// papers (MiB-scale images, sub-100 ms boots, ~100 ns "syscalls"),
    /// Unikraft EuroSys'21 (ms-scale boots, ~1 MiB images), typical cloud
    /// Fedora images for the VM row.
    pub fn of(kind: GuestKind) -> Self {
        match kind {
            GuestKind::NativeLinux => Footprint {
                image_mib: 0.0, // no guest image: the host itself
                boot_ms: 0.0,
                min_memory_mib: 0.0,
                syscall_ns: 1_300.0,
            },
            GuestKind::LinuxVm => Footprint {
                image_mib: 350.0,
                boot_ms: 8_000.0,
                min_memory_mib: 512.0,
                syscall_ns: 1_300.0,
            },
            GuestKind::Unikraft => Footprint {
                image_mib: 2.0,
                boot_ms: 40.0,
                min_memory_mib: 16.0,
                syscall_ns: 200.0,
            },
            GuestKind::RustyHermit | GuestKind::RustyHermitLegacy | GuestKind::RustyHermitTso => {
                Footprint {
                    image_mib: 4.0,
                    boot_ms: 60.0,
                    min_memory_mib: 32.0,
                    syscall_ns: 150.0,
                }
            }
        }
    }
}

/// SR-IOV partitions an A100 supports (paper §1: "the A100 GPU supports
/// partitioning using SR-IOV, but only allows for seven such partitions").
pub const A100_SRIOV_PARTITIONS: u32 = 7;

/// How many instances of `kind` fit into `node_memory_gib` of host memory
/// (ignoring CPU; the memory floor is the binding constraint for unikernel
/// fleets).
pub fn instances_per_node(kind: GuestKind, node_memory_gib: u64) -> u64 {
    let fp = Footprint::of(kind);
    if fp.min_memory_mib == 0.0 {
        return 1; // native: the host runs one OS
    }
    ((node_memory_gib * 1024) as f64 / fp.min_memory_mib) as u64
}

/// The paper's density argument: instances per node divided by the GPU
/// partitions available with static assignment. A ratio ≫ 1 means static
/// GPU assignment cannot serve a unikernel fleet — Cricket-style sharing is
/// required.
pub fn sharing_pressure(kind: GuestKind, node_memory_gib: u64, gpus_per_node: u32) -> f64 {
    let instances = instances_per_node(kind, node_memory_gib) as f64;
    let partitions = (gpus_per_node * A100_SRIOV_PARTITIONS) as f64;
    instances / partitions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unikernels_are_far_lighter_than_vms() {
        let vm = Footprint::of(GuestKind::LinuxVm);
        let hermit = Footprint::of(GuestKind::RustyHermit);
        let unikraft = Footprint::of(GuestKind::Unikraft);
        assert!(hermit.image_mib < vm.image_mib / 10.0);
        assert!(unikraft.image_mib < vm.image_mib / 10.0);
        assert!(hermit.boot_ms < vm.boot_ms / 10.0);
        assert!(hermit.min_memory_mib < vm.min_memory_mib / 4.0);
        assert!(hermit.syscall_ns < vm.syscall_ns);
    }

    #[test]
    fn density_on_the_papers_gpu_node() {
        // The paper's GPU node has 1.5 TiB of memory and 4 GPUs.
        let hermit = instances_per_node(GuestKind::RustyHermit, 1536);
        let vms = instances_per_node(GuestKind::LinuxVm, 1536);
        assert!(hermit > 10_000, "hermit fleet size {hermit}");
        assert!(vms < 4_000, "vm fleet size {vms}");
        assert!(hermit > 10 * vms);
    }

    #[test]
    fn sharing_pressure_motivates_cricket() {
        // With 4 GPUs × 7 partitions = 28 static assignments against tens of
        // thousands of unikernels, static assignment is infeasible.
        let pressure = sharing_pressure(GuestKind::RustyHermit, 1536, 4);
        assert!(
            pressure > 100.0,
            "unikernel fleets need >100x more GPU contexts than SR-IOV offers ({pressure:.0}x)"
        );
        // For classic VMs the pressure is far lower (though still > 1).
        let vm_pressure = sharing_pressure(GuestKind::LinuxVm, 1536, 4);
        assert!(vm_pressure < pressure / 10.0);
    }

    #[test]
    fn native_is_one_instance() {
        assert_eq!(instances_per_node(GuestKind::NativeLinux, 1536), 1);
    }
}
