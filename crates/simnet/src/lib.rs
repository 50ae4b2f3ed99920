//! Network-path simulation for the Cricket-in-unikernels reproduction.
//!
//! The paper's evaluation hardware — two nodes on 100 Gbit/s Ethernet (IPoIB),
//! QEMU/KVM with virtio-net — is not available here, so this crate provides a
//! *mechanistic* stand-in: the paper attributes every performance difference
//! between its five configurations to concrete mechanisms (TCP segmentation
//! offload, checksum offload, merged receive buffers, scatter-gather, virtio
//! kicks/vm-exits, guest context switches, extra copies), and this crate
//! models exactly those mechanisms, charging their costs to a shared
//! [`SimClock`].
//!
//! The actual RPC bytes still flow through the real XDR / record-marking /
//! dispatch code; only *time* is simulated. Costs are split into
//!
//! * **per-event** costs (syscalls, vm-exits, context switches, per-segment
//!   processing) — dominant for the paper's Fig. 6 micro-benchmarks, and
//! * **per-byte** costs (software checksums, copies, wire serialization) —
//!   dominant for the Fig. 7 bandwidth tests, where the pipeline bottleneck
//!   stage sets the rate.
//!
//! Calibration anchors (constants in `profile`) come from the paper's text;
//! see DESIGN.md §4 for the target shapes.

pub mod checksum;
pub mod clock;
mod path;
mod profile;
pub mod segment;
pub mod virtio;
mod wire;

pub use clock::SimClock;
pub use path::{NetPath, RpcTiming};
pub use profile::{GuestCosts, OffloadFeatures};
pub use segment::segment_plan;
pub use wire::Wire;

/// Nanoseconds per second, as f64 (for rate math).
pub(crate) const NS_PER_SEC: f64 = 1e9;
