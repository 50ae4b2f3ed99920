//! Internet checksum (RFC 1071), as computed by guests that lack
//! `VIRTIO_NET_F_CSUM` offloading.
//!
//! The paper's §3.1 lists enabling `VIRTIO_NET_F_CSUM` / `GUEST_CSUM` in
//! RustyHermit among its contributions; in this reproduction the checksum is
//! really computed over payload bytes on the non-offloaded paths (and its
//! per-byte cost is charged to the virtual clock), so the offload features
//! change actual work, not just a constant.

/// Compute the 16-bit ones'-complement Internet checksum of `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// Ones'-complement 16-bit sum (before final inversion), with odd trailing
/// byte treated as high-order (RFC 1071 big-endian convention).
///
/// The total is kept in `u64`, so no input length can overflow it (a lone
/// `u32` accumulator wrapped past 131 072 bytes of `0xff`); within a block
/// too short to overflow one, words are still summed in `u32`, the loop the
/// compiler vectorises. Widening is a correctness fix, not a speed-up: the
/// 2-bytes-per-iteration loop is already memory-bound — a
/// 4-bytes-per-iteration variant measured 104 374 → 97 102 ns/MiB on
/// `unikernel.tcp.send_ns_per_mib.csum` and moved `bulk_h2d_sim` not at
/// all — and summing every word straight into a `u64` is 2.7× slower
/// (94 → 255 µs/MiB).
pub fn ones_complement_sum(data: &[u8]) -> u16 {
    /// Even, and 32 768 words of `0xffff` stay below `u32::MAX`.
    const BLOCK: usize = 1 << 16;
    let mut sum: u64 = 0;
    for block in data.chunks(BLOCK) {
        let mut part: u32 = 0;
        let mut words = block.chunks_exact(2);
        for c in &mut words {
            part += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = words.remainder() {
            part += (*last as u32) << 8;
        }
        sum += part as u64;
    }
    // Fold carries.
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// Verify a packet whose checksum field has been folded into `data`
/// (sum over data including checksum must be 0xffff).
pub fn verify(data: &[u8]) -> bool {
    ones_complement_sum(data) == 0xffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // RFC 1071 §3 example: 00 01 f2 03 f4 f5 f6 f7 → sum 0xddf2.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data), 0xddf2);
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length() {
        // Trailing byte is padded with zero (treated as high byte).
        assert_eq!(ones_complement_sum(&[0xab]), 0xab00);
        assert_eq!(ones_complement_sum(&[0x12, 0x34, 0x56]), 0x1234 + 0x5600);
    }

    #[test]
    fn empty_is_zero_sum() {
        assert_eq!(ones_complement_sum(&[]), 0);
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn checksum_verifies_after_insertion() {
        let mut packet = vec![0x45, 0x00, 0x01, 0x02, 0x03, 0x04, 0x00, 0x00];
        // Checksum over packet with zeroed field (last two bytes).
        let csum = internet_checksum(&packet);
        packet[6..8].copy_from_slice(&csum.to_be_bytes());
        assert!(verify(&packet));
        packet[0] ^= 1; // corrupt
        assert!(!verify(&packet));
    }

    #[test]
    fn carry_folding() {
        // All-0xff data exercises repeated carry folds.
        let data = vec![0xffu8; 64];
        assert_eq!(ones_complement_sum(&data), 0xffff);
        assert_eq!(internet_checksum(&data), 0);
    }
}
