//! SplitMix64: the one source of seeded randomness. The same `--seed`
//! yields the same op order, sizes and payload bytes on every machine.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so each workload part
    /// (op order, sizes, payloads) draws independently.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `base` moved by at most `spread` either way.
    pub fn jitter(&mut self, base: u64, spread: u64) -> u64 {
        base - spread + self.below(2 * spread + 1)
    }

    /// Dense pseudo-random bytes: no all-zero page, so the client's
    /// zero-page elision never applies unless a workload asks for it.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next() | 0x0101_0101_0101_0101;
            chunk.copy_from_slice(&v.to_le_bytes()[..chunk.len()]);
        }
    }

    /// `n` allocation sizes from 256 B to 1 MiB, evenly spaced on a log
    /// scale, in seeded order. Every seed gets the same sizes — so the same
    /// bytes, and the same number of requests above the allocator's mmap
    /// threshold, whose cost dwarfs a small call's — and its own order.
    pub fn size_ladder(&mut self, n: usize) -> Vec<u64> {
        let mut sizes: Vec<u64> = (0..n)
            .map(|i| {
                let octaves = 12.0 * i as f64 / (n.max(2) - 1) as f64;
                (256.0 * octaves.exp2()).round() as u64
            })
            .collect();
        self.shuffle(&mut sizes);
        sizes
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn size_ladder_is_the_same_sizes_in_seeded_order() {
        let a = Rng::new(1, 1).size_ladder(513);
        let b = Rng::new(2, 1).size_ladder(513);
        assert_ne!(a, b);
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a.clone()), sorted(b));
        assert_eq!(
            (*a.iter().min().unwrap(), *a.iter().max().unwrap()),
            (256, 1 << 20)
        );
    }

    #[test]
    fn fill_has_no_zero_byte() {
        let mut buf = vec![0u8; 4099];
        Rng::new(1, 2).fill(&mut buf);
        assert!(buf.iter().all(|&b| b != 0));
    }
}
