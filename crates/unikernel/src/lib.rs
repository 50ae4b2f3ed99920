//! Guest environment models for the five evaluated configurations.
//!
//! The paper runs its client application natively, in a Fedora VM, and in
//! the Unikraft and RustyHermit unikernels. This crate models those guests:
//!
//! * [`features`] — virtio-net feature bits and device↔driver negotiation.
//!   The per-guest driver capabilities encode exactly the paper's situation:
//!   RustyHermit gained `CSUM`/`GUEST_CSUM`/`MRG_RXBUF` in the paper (§3.1)
//!   but has no TSO; Unikraft lacks checksum offload ("has been proposed",
//!   §4.2); the Linux guest negotiates everything.
//! * [`tcp`] — a small functional TCP data path (smoltcp-stand-in):
//!   handshake, MSS segmentation, really-computed Internet checksums when
//!   the checksum offload is not negotiated, in-order reassembly. The
//!   simulated transports route real RPC bytes through this code.
//! * [`virtio_net`] — the virtio-net frame layer: `virtio_net_hdr` with
//!   GSO/checksum flags, host-side TSO splitting, merged RX buffers.
//! * `guest` — ties a negotiated feature set to a [`simnet::GuestCosts`]
//!   table per environment, with the calibration notes.
//! * [`boot`] — deployment footprints (image size, boot time, memory floor)
//!   quantifying the paper's density argument for GPU sharing.

pub mod boot;
pub mod features;
mod guest;
pub mod tcp;
pub mod virtio_net;

pub use features::VirtioFeatures;
pub use guest::{Guest, GuestKind};
