//! TCP segmentation engine.
//!
//! When TCP segmentation offload (TSO) is available, the guest hands the NIC
//! (or vhost backend) super-segments of up to 64 KiB and the hardware slices
//! them; without TSO the guest's own stack produces one segment per MTU and
//! pays per-segment CPU. This is the mechanism the paper blames for most of
//! the unikernels' bandwidth gap (§4.2), so it is modeled explicitly.

/// Maximum super-segment size with TSO (64 KiB, the TCP length field limit).
pub const TSO_SEGMENT: usize = 65_536;

/// The plan for transmitting one buffer through a TCP stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Segments the *guest software* must produce (what per-segment CPU is
    /// charged for).
    pub software_segments: usize,
    /// Segments that appear on the wire (always per-MTU).
    pub wire_segments: usize,
    /// Bytes of payload the guest must checksum in software
    /// (0 when checksum offload is active).
    pub checksum_bytes: usize,
    /// Total payload bytes.
    pub payload_bytes: usize,
}

/// Compute the transmission plan for `bytes` of payload.
///
/// `mtu` is the link MTU; `tso` selects hardware segmentation; `csum_offload`
/// selects hardware checksumming.
pub fn segment_plan(bytes: usize, mtu: usize, tso: bool, csum_offload: bool) -> SegmentPlan {
    assert!(mtu > 0, "mtu must be positive");
    let payload_per_mtu = mtu.saturating_sub(40).max(1); // IP + TCP headers
    let wire_segments = bytes.div_ceil(payload_per_mtu).max(1);
    let software_segments = if tso {
        bytes.div_ceil(TSO_SEGMENT).max(1)
    } else {
        wire_segments
    };
    let checksum_bytes = if csum_offload { 0 } else { bytes };
    SegmentPlan {
        software_segments,
        wire_segments,
        checksum_bytes,
        payload_bytes: bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Functionally slice `data` into per-MTU payload segments: the
    /// reference [`segment_plan`]'s wire segment count is checked against.
    fn slice_segments(data: &[u8], mtu: usize) -> impl Iterator<Item = &[u8]> {
        let payload_per_mtu = mtu.saturating_sub(40).max(1);
        data.chunks(payload_per_mtu)
    }

    #[test]
    fn tso_reduces_software_segments() {
        let bytes = 1 << 20;
        let no_tso = segment_plan(bytes, 9000, false, true);
        let tso = segment_plan(bytes, 9000, true, true);
        assert_eq!(no_tso.software_segments, bytes.div_ceil(8960));
        assert_eq!(tso.software_segments, 16);
        // Wire segment count is identical: TSO changes who does the work.
        assert_eq!(no_tso.wire_segments, tso.wire_segments);
    }

    #[test]
    fn checksum_offload_zeroes_checksum_bytes() {
        assert_eq!(segment_plan(5000, 9000, false, true).checksum_bytes, 0);
        assert_eq!(segment_plan(5000, 9000, false, false).checksum_bytes, 5000);
    }

    #[test]
    fn small_message_is_one_segment() {
        let p = segment_plan(100, 9000, false, false);
        assert_eq!(p.software_segments, 1);
        assert_eq!(p.wire_segments, 1);
        let p = segment_plan(0, 9000, true, true);
        assert_eq!(p.software_segments, 1, "empty send still costs a segment");
    }

    #[test]
    fn slice_segments_covers_all_bytes() {
        let data: Vec<u8> = (0..25_000u32).map(|i| i as u8).collect();
        let rejoined: Vec<u8> = slice_segments(&data, 9000).flatten().copied().collect();
        assert_eq!(rejoined, data);
        assert_eq!(
            slice_segments(&data, 9000).count(),
            segment_plan(data.len(), 9000, false, true).wire_segments
        );
    }

    #[test]
    fn mtu_1500_makes_more_segments_than_9000() {
        let a = segment_plan(1 << 20, 1500, false, true);
        let b = segment_plan(1 << 20, 9000, false, true);
        assert!(a.wire_segments > 5 * b.wire_segments);
    }
}
