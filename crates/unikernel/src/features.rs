//! Virtio-net feature bits and negotiation (virtio spec §5.1.3).
//!
//! During device initialization the driver reads the device's offered
//! feature bits and acknowledges the subset it supports; only features both
//! sides know end up active. The paper's RustyHermit contribution is
//! precisely adding driver support for three of these bits.

use simnet::OffloadFeatures;
use std::fmt;
use std::ops::{BitAnd, BitOr};

/// A set of virtio-net feature bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtioFeatures(pub u64);

impl VirtioFeatures {
    /// Device handles packets with partial checksum (`VIRTIO_NET_F_CSUM`).
    pub const CSUM: VirtioFeatures = VirtioFeatures(1 << 0);
    /// Driver handles packets with partial checksum
    /// (`VIRTIO_NET_F_GUEST_CSUM`).
    pub const GUEST_CSUM: VirtioFeatures = VirtioFeatures(1 << 1);
    /// Device can receive merged RX buffers (`VIRTIO_NET_F_MRG_RXBUF`).
    pub const MRG_RXBUF: VirtioFeatures = VirtioFeatures(1 << 15);
    /// Device handles TSOv4 (`VIRTIO_NET_F_HOST_TSO4`).
    pub(crate) const HOST_TSO4: VirtioFeatures = VirtioFeatures(1 << 11);
    /// Device handles TSOv6 (`VIRTIO_NET_F_HOST_TSO6`).
    pub(crate) const HOST_TSO6: VirtioFeatures = VirtioFeatures(1 << 12);
    /// Driver can merge receive buffers — guest side of GSO
    /// (`VIRTIO_NET_F_GUEST_TSO4`).
    pub(crate) const GUEST_TSO4: VirtioFeatures = VirtioFeatures(1 << 7);
    /// Scatter-gather on TX (part of `VIRTIO_NET_F_*` / `NETIF_F_SG` in
    /// practice; modeled as its own bit).
    pub(crate) const SG: VirtioFeatures = VirtioFeatures(1 << 33);

    /// Empty set.
    pub(crate) const fn empty() -> Self {
        VirtioFeatures(0)
    }

    /// True if every bit of `other` is present.
    pub(crate) fn contains(&self, other: VirtioFeatures) -> bool {
        self.0 & other.0 == other.0
    }

    /// What a modern QEMU/vhost virtio-net device offers.
    pub fn qemu_device() -> Self {
        Self::CSUM
            | Self::GUEST_CSUM
            | Self::MRG_RXBUF
            | Self::HOST_TSO4
            | Self::HOST_TSO6
            | Self::GUEST_TSO4
            | Self::SG
    }

    /// Linux guest driver: supports everything QEMU offers.
    pub fn linux_driver() -> Self {
        Self::qemu_device()
    }

    /// RustyHermit driver *after the paper's improvements*: checksum
    /// offloads and merged RX buffers, but no TSO and no scatter-gather.
    pub(crate) fn hermit_driver() -> Self {
        Self::CSUM | Self::GUEST_CSUM | Self::MRG_RXBUF
    }

    /// RustyHermit driver *before* the paper (ablation A2): none of the
    /// three contributed features.
    pub(crate) fn hermit_legacy_driver() -> Self {
        Self::empty()
    }

    /// Unikraft (lwIP) driver: merged RX buffers only; "Unikraft does not
    /// support checksum offloading, yet" (§4.2).
    pub(crate) fn unikraft_driver() -> Self {
        Self::MRG_RXBUF
    }

    /// Decode into the offload flags the cost model consumes.
    pub(crate) fn offloads(&self) -> OffloadFeatures {
        OffloadFeatures {
            tso: self.contains(Self::HOST_TSO4),
            tx_csum: self.contains(Self::CSUM),
            rx_csum: self.contains(Self::GUEST_CSUM),
            mrg_rxbuf: self.contains(Self::MRG_RXBUF),
            scatter_gather: self.contains(Self::SG),
        }
    }
}

impl BitOr for VirtioFeatures {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        VirtioFeatures(self.0 | rhs.0)
    }
}

impl BitAnd for VirtioFeatures {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        VirtioFeatures(self.0 & rhs.0)
    }
}

impl fmt::Display for VirtioFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Self::CSUM, "CSUM"),
            (Self::GUEST_CSUM, "GUEST_CSUM"),
            (Self::MRG_RXBUF, "MRG_RXBUF"),
            (Self::HOST_TSO4, "HOST_TSO4"),
            (Self::HOST_TSO6, "HOST_TSO6"),
            (Self::GUEST_TSO4, "GUEST_TSO4"),
            (Self::SG, "SG"),
        ];
        let mut first = true;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

/// Negotiate: the intersection of what the device offers and the driver
/// acknowledges.
pub(crate) fn negotiate(device: VirtioFeatures, driver: VirtioFeatures) -> VirtioFeatures {
    device & driver
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_is_intersection() {
        let n = negotiate(
            VirtioFeatures::qemu_device(),
            VirtioFeatures::hermit_driver(),
        );
        assert!(n.contains(VirtioFeatures::CSUM));
        assert!(n.contains(VirtioFeatures::GUEST_CSUM));
        assert!(n.contains(VirtioFeatures::MRG_RXBUF));
        assert!(!n.contains(VirtioFeatures::HOST_TSO4));
        assert!(!n.contains(VirtioFeatures::SG));
    }

    #[test]
    fn device_cannot_grant_unoffered_features() {
        let limited_device = VirtioFeatures::CSUM;
        let n = negotiate(limited_device, VirtioFeatures::linux_driver());
        assert_eq!(n, VirtioFeatures::CSUM);
    }

    #[test]
    fn linux_negotiates_everything() {
        let n = negotiate(
            VirtioFeatures::qemu_device(),
            VirtioFeatures::linux_driver(),
        );
        let o = n.offloads();
        assert!(o.tso && o.tx_csum && o.rx_csum && o.mrg_rxbuf && o.scatter_gather);
    }

    #[test]
    fn hermit_offloads_match_paper() {
        let o = negotiate(
            VirtioFeatures::qemu_device(),
            VirtioFeatures::hermit_driver(),
        )
        .offloads();
        assert!(!o.tso, "RustyHermit has no TSO (the paper's future work)");
        assert!(
            o.tx_csum && o.rx_csum && o.mrg_rxbuf,
            "the paper's §3.1 additions"
        );
    }

    #[test]
    fn unikraft_offloads_match_paper() {
        let o = negotiate(
            VirtioFeatures::qemu_device(),
            VirtioFeatures::unikraft_driver(),
        )
        .offloads();
        assert!(
            !o.tx_csum && !o.rx_csum,
            "no checksum offload in Unikraft yet"
        );
        assert!(!o.tso);
        assert!(o.mrg_rxbuf);
    }

    #[test]
    fn legacy_hermit_has_nothing() {
        let o = negotiate(
            VirtioFeatures::qemu_device(),
            VirtioFeatures::hermit_legacy_driver(),
        )
        .offloads();
        assert!(!o.tx_csum && !o.rx_csum && !o.mrg_rxbuf && !o.tso);
    }

    #[test]
    fn display_lists_features() {
        let s = VirtioFeatures::hermit_driver().to_string();
        assert!(s.contains("CSUM") && s.contains("MRG_RXBUF"));
        assert_eq!(VirtioFeatures::empty().to_string(), "(none)");
    }
}
