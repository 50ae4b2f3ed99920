//! Virtio virtqueue model (split ring, virtio-net).
//!
//! The guest posts buffers into a descriptor ring and *kicks* the device; a
//! kick from inside a VM is a vm-exit to the hypervisor, which is the largest
//! fixed cost on the virtualized data path. Received packets land in
//! guest-posted RX buffers; with `VIRTIO_NET_F_MRG_RXBUF` (one of the paper's
//! RustyHermit contributions) large packets can span several smaller buffers
//! instead of requiring worst-case-sized buffers, halving RX copies in
//! practice.

/// Static configuration of a virtqueue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtqueueConfig {
    /// Ring size (descriptors).
    pub ring_size: usize,
    /// Segments the guest batches per kick (drivers suppress notifications
    /// while the device is still processing; 1 = kick per segment).
    pub kick_batch: usize,
    /// Merged RX buffers negotiated.
    pub mrg_rxbuf: bool,
}

impl VirtqueueConfig {
    /// Typical Linux virtio-net defaults.
    pub(crate) fn linux_default() -> Self {
        Self {
            ring_size: 256,
            kick_batch: 8,
            mrg_rxbuf: true,
        }
    }
}

/// Accounting for moving `segments` buffers through the TX queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TxAccounting {
    /// Number of kicks (vm-exits when virtualized).
    pub kicks: usize,
    /// Descriptors consumed.
    pub descriptors: usize,
}

/// Accounting for receiving `segments` buffers from the RX queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RxAccounting {
    /// Interrupt deliveries into the guest.
    pub interrupts: usize,
    /// Copies out of the ring into stack/socket buffers. Without merged RX
    /// buffers the guest must copy through a reassembly buffer (2 copies per
    /// segment); with them, 1.
    pub copies_per_segment: usize,
}

/// TX-side accounting for a burst of `segments`.
pub(crate) fn tx_accounting(cfg: &VirtqueueConfig, segments: usize) -> TxAccounting {
    let kicks = segments.div_ceil(cfg.kick_batch.max(1)).max(1);
    TxAccounting {
        kicks,
        descriptors: segments,
    }
}

/// RX-side accounting for a burst of `segments`, with interrupt coalescing
/// factor `coalesce` (NAPI-style polling batches).
pub(crate) fn rx_accounting(
    cfg: &VirtqueueConfig,
    segments: usize,
    coalesce: usize,
) -> RxAccounting {
    RxAccounting {
        interrupts: segments.div_ceil(coalesce.max(1)).max(1),
        copies_per_segment: if cfg.mrg_rxbuf { 1 } else { 2 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kick_batching() {
        let cfg = VirtqueueConfig {
            ring_size: 256,
            kick_batch: 8,
            mrg_rxbuf: true,
        };
        assert_eq!(tx_accounting(&cfg, 1).kicks, 1);
        assert_eq!(tx_accounting(&cfg, 8).kicks, 1);
        assert_eq!(tx_accounting(&cfg, 9).kicks, 2);
        assert_eq!(tx_accounting(&cfg, 64).kicks, 8);
    }

    #[test]
    fn kick_per_segment_without_batching() {
        let cfg = VirtqueueConfig {
            ring_size: 256,
            kick_batch: 1,
            mrg_rxbuf: false,
        };
        assert_eq!(tx_accounting(&cfg, 10).kicks, 10);
    }

    #[test]
    fn mrg_rxbuf_halves_copies() {
        let with = VirtqueueConfig {
            ring_size: 256,
            kick_batch: 1,
            mrg_rxbuf: true,
        };
        let without = VirtqueueConfig {
            mrg_rxbuf: false,
            ..with
        };
        assert_eq!(rx_accounting(&with, 16, 4).copies_per_segment, 1);
        assert_eq!(rx_accounting(&without, 16, 4).copies_per_segment, 2);
    }

    #[test]
    fn interrupt_coalescing() {
        let cfg = VirtqueueConfig::linux_default();
        assert_eq!(rx_accounting(&cfg, 64, 16).interrupts, 4);
        assert_eq!(rx_accounting(&cfg, 1, 16).interrupts, 1);
    }

    #[test]
    fn zero_segments_still_one_event() {
        let cfg = VirtqueueConfig::linux_default();
        assert_eq!(tx_accounting(&cfg, 0).kicks, 1);
        assert_eq!(rx_accounting(&cfg, 0, 4).interrupts, 1);
    }
}
