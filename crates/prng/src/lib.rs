//! Deterministic pseudo-random sources for reproducible EDA runs.
//!
//! Every stochastic component in the `musa` workspace (pseudo-random test
//! pattern generation, mutant sampling, hill-climbing search) draws its
//! randomness from this crate so that a single `u64` seed reproduces an
//! entire experiment bit-for-bit, across platforms and crate versions.
//!
//! Two sources are provided:
//!
//! * [`SplitMix64`] — the seeding workhorse; also a fine general stream.
//! * [`Lfsr`] — an external-feedback linear-feedback shift register, the
//!   classic hardware pseudo-random test-pattern source the paper's
//!   random baseline models.
//!
//! # Examples
//!
//! ```
//! use musa_prng::{Prng, SplitMix64};
//!
//! let mut rng = SplitMix64::new(42);
//! let a = rng.next_u64();
//! let b = rng.next_u64();
//! assert_ne!(a, b);
//!
//! // Same seed, same stream.
//! let mut rng2 = SplitMix64::new(42);
//! assert_eq!(rng2.next_u64(), a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lfsr;
mod splitmix;

pub use lfsr::{Lfsr, LfsrError};
pub use splitmix::SplitMix64;

/// A deterministic stream of pseudo-random `u64` values.
///
/// The trait deliberately mirrors the tiny core of `rand::RngCore` without
/// depending on it: EDA reproducibility requires the stream definition to
/// live in this workspace, pinned by these implementations' tests.
///
/// # Examples
///
/// ```
/// use musa_prng::{Prng, SplitMix64};
///
/// let mut rng = SplitMix64::new(7);
/// let dice = rng.below(6) + 1;
/// assert!((1..=6).contains(&dice));
/// ```
pub trait Prng {
    /// Returns the next 64 uniformly distributed pseudo-random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a pseudo-random value in `0..bound`.
    ///
    /// Uses Lemire's multiply-shift reduction with rejection so the result
    /// is unbiased for every `bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a non-zero bound");
        // Lemire 2019: unbiased bounded integers via 128-bit multiply.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a pseudo-random `f64` uniformly distributed in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Returns a pseudo-random value masked to the low `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > 64`.
    fn bits(&mut self, width: u32) -> u64 {
        assert!((1..=64).contains(&width), "bit width must be in 1..=64");
        if width == 64 {
            self.next_u64()
        } else {
            self.next_u64() & ((1u64 << width) - 1)
        }
    }

    /// Shuffles `slice` in place with the Fisher–Yates algorithm.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (reservoir sampling).
    ///
    /// The result is sorted ascending. If `k >= n` all indices are
    /// returned.
    fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.below(i as u64 + 1) as usize;
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir.sort_unstable();
        reservoir
    }

    /// Picks a reference to a uniformly random element of `slice`.
    ///
    /// Returns `None` when the slice is empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_is_in_range() {
        let mut rng = SplitMix64::new(1);
        for bound in [1u64, 2, 3, 7, 64, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn below_zero_panics() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.below(0);
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bits_masks_width() {
        let mut rng = SplitMix64::new(3);
        for width in 1..=64u32 {
            let v = rng.bits(width);
            if width < 64 {
                assert!(v < (1u64 << width));
            }
        }
    }

    #[test]
    #[should_panic]
    fn bits_zero_width_panics() {
        let mut rng = SplitMix64::new(3);
        let _ = rng.bits(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_sorted() {
        let mut rng = SplitMix64::new(11);
        let sample = rng.sample_indices(1000, 50);
        assert_eq!(sample.len(), 50);
        for w in sample.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*sample.last().unwrap() < 1000);
    }

    #[test]
    fn sample_indices_k_ge_n_returns_all() {
        let mut rng = SplitMix64::new(11);
        assert_eq!(rng.sample_indices(5, 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(rng.sample_indices(5, 99), vec![0, 1, 2, 3, 4]);
        assert_eq!(rng.sample_indices(0, 0), Vec::<usize>::new());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SplitMix64::new(2);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut rng = SplitMix64::new(23);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "hits = {hits}");
    }
}
