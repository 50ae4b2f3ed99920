//! Collection strategies (`collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// Anything usable as a length specification for [`vec()`].
pub trait IntoSizeRange {
    /// Lower bound (inclusive) and upper bound (exclusive).
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        (self.start, self.end)
    }
}

impl IntoSizeRange for RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end() + 1)
    }
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self + 1)
    }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max: usize,
}

/// `Vec<T>` with a length drawn from `size` and elements from `element`.
pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    assert!(min < max, "empty size range for collection::vec");
    VecStrategy { element, min, max }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.range_u64(self.min as u64, self.max as u64) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn vec_respects_size_range() {
        let mut rng = TestRng::from_name("collection");
        let s = vec(any::<u8>(), 3..7);
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()), "len {}", v.len());
        }
    }

    #[test]
    fn nested_vec_composes() {
        let mut rng = TestRng::from_name("collection-nested");
        let s = vec(vec(any::<u8>(), 0..4), 1..3);
        let v = s.generate(&mut rng);
        assert!(!v.is_empty() && v.len() < 3);
        assert!(v.iter().all(|inner| inner.len() < 4));
    }
}
