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
/// The sum is byte-order independent and its carries can wait (RFC 1071
/// §2(B)–(C)): native-endian 32-bit words go into four `u64` lanes (a loop
/// the compiler vectorises at the SSE2 baseline), the last 0–15 bytes in
/// native 16-bit words, an odd last byte zero-padded; the lanes fold every
/// 2^30 bytes, so no length overflows them, and the sum is swapped once.
/// The path sums an L1-resident one-MSS buffer, so the old swap per word was
/// the cost, not memory: 57 → 23 µs/MiB over 8 960 bytes (EXPERIMENTS.md).
pub fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum: u64 = 0;
    for block in data.chunks(1 << 30) {
        let words = block.chunks_exact(16);
        let pairs = words.remainder().chunks_exact(2);
        let odd = pairs.remainder().iter().map(|&b| [b, 0]);
        let tail = pairs.map(|w| [w[0], w[1]]).chain(odd);
        let tail: u64 = tail.map(|w| u64::from(u16::from_ne_bytes(w))).sum();
        let mut lanes = [sum + tail, 0, 0, 0];
        words.for_each(|piece| {
            for (lane, w) in lanes.iter_mut().zip(piece.chunks_exact(4)) {
                *lane += u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]]));
            }
        });
        sum = lanes.iter().map(|l| (l >> 32) + (l & 0xffff_ffff)).sum();
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    u16::from_be(sum as u16)
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
