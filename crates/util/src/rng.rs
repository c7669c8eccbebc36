//! Deterministic pseudo-random number generation.
//!
//! The whole repository uses [`SplitMix64`] for anything stochastic (profiler
//! perturbations, runtime jitter, random-primitive search). SplitMix64 is
//! tiny, fast, passes BigCrush, and — unlike thread-local or OS entropy —
//! makes every experiment reproducible from its seed.

/// A seeded SplitMix64 pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use aceso_util::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// Returns 0 when `n == 0`.
    pub fn next_below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        // Multiply-shift bounded sampling; bias is negligible for our ranges.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Returns a uniform value in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a multiplicative jitter factor in `[1 - spread, 1 + spread]`.
    ///
    /// Used to perturb simulated measurements around their analytic value.
    pub fn jitter(&mut self, spread: f64) -> f64 {
        1.0 + self.range_f64(-spread, spread)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.next_below(xs.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(4);
        for n in 1..50 {
            for _ in 0..20 {
                assert!(r.next_below(n) < n);
            }
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn below_covers_range() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.next_below(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn jitter_within_spread() {
        let mut r = SplitMix64::new(6);
        for _ in 0..1000 {
            let j = r.jitter(0.05);
            assert!((0.95..=1.05).contains(&j));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(7);
        let mut xs: Vec<u32> = (0..32).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = SplitMix64::new(8);
        assert_eq!(r.choose::<u8>(&[]), None);
        assert!(r.choose(&[1, 2, 3]).is_some());
    }
}
