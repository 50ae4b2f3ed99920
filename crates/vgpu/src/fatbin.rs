//! Fat-binary style compression.
//!
//! NVIDIA compresses the device code inside fatbins/cubins with a
//! proprietary LZ variant; the paper's authors had to reverse-engineer it so
//! Cricket could extract kernel metadata from compressed images
//! (their `cuda-fatbin-decompression` project, reference \[2\] of the paper).
//! This module reproduces the *mechanism* with an LZSS scheme of our own:
//! the loader must genuinely decompress images before it can read kernel
//! names and parameter layouts.
//!
//! Format: little-endian `u32` uncompressed length, then a token stream of
//! flag bytes (LSB-first; 1 = literal byte follows, 0 = match) where a match
//! is two bytes encoding a 12-bit backward distance (1-based) and a 4-bit
//! length with bias 3 (lengths 4..=18).

use crate::error::{VgpuError, VgpuResult};

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 18;

/// Compress `data` with the LZSS scheme.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());

    // Chained hash table over 3-byte prefixes for match finding.
    const HASH_SIZE: usize = 1 << 13;
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; data.len().max(1)];
    let hash = |d: &[u8]| -> usize {
        ((d[0] as usize) << 6 ^ (d[1] as usize) << 3 ^ (d[2] as usize)) & (HASH_SIZE - 1)
    };

    let mut i = 0;
    let mut flag_pos = None::<usize>;
    let mut flag_bit = 8;
    let push_flag =
        |out: &mut Vec<u8>, bit: bool, flag_pos: &mut Option<usize>, flag_bit: &mut usize| {
            if *flag_bit == 8 {
                out.push(0);
                *flag_pos = Some(out.len() - 1);
                *flag_bit = 0;
            }
            if bit {
                let p = flag_pos.expect("flag byte exists");
                out[p] |= 1 << *flag_bit;
            }
            *flag_bit += 1;
        };

    while i < data.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= data.len() {
            let mut cand = head[hash(&data[i..])];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < 32 {
                let max = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == MAX_MATCH {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            push_flag(&mut out, false, &mut flag_pos, &mut flag_bit);
            let dist = (best_dist - 1) as u16; // 12 bits
            let len = (best_len - MIN_MATCH + 1) as u16; // 4 bits, 1..=15
            let word = (dist << 4) | len;
            out.extend_from_slice(&word.to_le_bytes());
            // Insert hash entries for the covered positions.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash(&data[i..]);
                    prev[i] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            push_flag(&mut out, true, &mut flag_pos, &mut flag_bit);
            out.push(data[i]);
            if i + MIN_MATCH <= data.len() {
                let h = hash(&data[i..]);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    out
}

/// Decompress an LZSS stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> VgpuResult<Vec<u8>> {
    if data.len() < 4 {
        return Err(VgpuError::BadModule("compressed image too short".into()));
    }
    let expected = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
    // Guard against absurd declared sizes relative to the input.
    if expected > data.len().saturating_mul(EXPANSION_LIMIT) + 64 {
        return Err(VgpuError::BadModule(format!(
            "declared size {expected} implausible for {} compressed bytes",
            data.len()
        )));
    }
    let mut out = Vec::with_capacity(expected);
    let mut i = 4;
    while out.len() < expected {
        if i >= data.len() {
            return Err(VgpuError::BadModule("truncated compressed stream".into()));
        }
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if out.len() >= expected {
                break;
            }
            if flags & (1 << bit) != 0 {
                let Some(&b) = data.get(i) else {
                    return Err(VgpuError::BadModule("truncated literal".into()));
                };
                out.push(b);
                i += 1;
            } else {
                if i + 1 >= data.len() {
                    return Err(VgpuError::BadModule("truncated match token".into()));
                }
                let word = u16::from_le_bytes([data[i], data[i + 1]]);
                i += 2;
                let dist = (word >> 4) as usize + 1;
                let len = (word & 0xf) as usize + MIN_MATCH - 1;
                if dist > out.len() {
                    return Err(VgpuError::BadModule(format!(
                        "match distance {dist} exceeds output {}",
                        out.len()
                    )));
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

/// Max plausible expansion ratio (LZSS with 18-byte matches from 2-byte
/// tokens ≈ 9×; allow headroom).
const EXPANSION_LIMIT: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        for data in [
            &b""[..],
            &b"a"[..],
            &b"hello hello hello hello"[..],
            &[0u8; 1000][..],
        ] {
            let c = compress(data);
            assert_eq!(decompress(&c).unwrap(), data);
        }
    }

    #[test]
    fn repetitive_data_compresses() {
        let data: Vec<u8> = b"__cuda_kernel_matrixMul_fp32_tile32"
            .iter()
            .cycle()
            .take(10_000)
            .copied()
            .collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 3,
            "expected >3x compression, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes (xorshift) — no exploitable matches.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_streams_rejected() {
        let data = b"some compressible compressible data".repeat(20);
        let c = compress(&data);
        for cut in [0, 2, 4, 5, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn absurd_declared_size_rejected() {
        let mut c = vec![0xff, 0xff, 0xff, 0x7f]; // ~2 GiB declared
        c.push(0xff);
        c.push(b'x');
        assert!(decompress(&c).is_err());
    }

    #[test]
    fn bad_match_distance_rejected() {
        // Declared length 4, first token is a match with distance > output.
        let mut c = (4u32).to_le_bytes().to_vec();
        c.push(0x00); // flags: 8 matches
        c.extend_from_slice(&((100u16) << 4 | 1).to_le_bytes());
        assert!(decompress(&c).is_err());
    }
}
