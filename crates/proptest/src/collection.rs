//! Collection strategies (`prop::collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Acceptable size arguments for [`vec()`]: an exact length, `a..b`, or
/// `a..=b`.
pub trait IntoSizeRange {
    /// Inclusive `(min, max)` length bounds.
    fn size_bounds(self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn size_bounds(self) -> (usize, usize) {
        (self, self)
    }
}

impl IntoSizeRange for Range<usize> {
    fn size_bounds(self) -> (usize, usize) {
        assert!(self.start < self.end, "empty vec size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for std::ops::RangeInclusive<usize> {
    fn size_bounds(self) -> (usize, usize) {
        assert!(self.start() <= self.end(), "empty vec size range");
        (*self.start(), *self.end())
    }
}

/// Strategy for vectors whose elements come from `elem`.
#[derive(Clone)]
pub struct VecStrategy<S> {
    elem: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = rng.in_range(self.min, self.max);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }
}

/// `Vec<T>` of a length drawn from `size`, elements drawn from `elem`.
pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min, max) = size.size_bounds();
    VecStrategy { elem, min, max }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_respect_bounds() {
        let mut rng = TestRng::new(21);
        let s = vec(0u8..255, 2..7);
        let mut seen = [false; 8];
        for _ in 0..200 {
            let v = s.generate(&mut rng);
            assert!((2..=6).contains(&v.len()));
            seen[v.len()] = true;
        }
        assert!(seen[2] && seen[6], "both bounds reachable");
        let exact = vec(0u8..255, 4usize);
        assert_eq!(exact.generate(&mut rng).len(), 4);
    }
}
