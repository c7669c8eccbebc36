//! Stable hashing.
//!
//! The search deduplicates configurations by a *semantic* hash that must be
//! stable across processes and platforms, so we cannot use
//! `std::collections::hash_map::DefaultHasher` (randomly seeded). FNV-1a is
//! simple, stable, and good enough for dedup sets of a few million entries.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` for `k` in `0..=8`: `k` zero bytes fed to the hasher
/// multiply its state by exactly this (`(h ^ 0) · P = h · P`).
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Hashes a byte slice with 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental, platform-stable FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use aceso_util::FnvHasher;
///
/// let mut h = FnvHasher::new();
/// h.write_u64(7);
/// h.write_bytes(b"stage");
/// let a = h.finish();
/// assert_ne!(a, FnvHasher::new().finish());
/// ```
#[derive(Debug, Clone)]
pub struct FnvHasher {
    state: u64,
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FnvHasher {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian), with the value
    /// `write_bytes(&v.to_le_bytes())` gives.
    ///
    /// The high zero bytes cost one multiply together: the bytes up to
    /// the highest non-zero one are fed as usual, and the remaining
    /// `8 - n` zero bytes multiply the state by `P^(8 - n)`. Wrapping
    /// multiplication is associative, so the value is the same; the
    /// small counts and degrees a stage hash feeds take 1 or 2 steps
    /// instead of 8.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let n = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
        let mut h = self.state;
        let mut rest = v;
        for _ in 0..n {
            h ^= rest & 0xFF;
            h = h.wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        self.state = h.wrapping_mul(PRIME_POW[8 - n]);
    }

    /// Feeds a `usize` as `u64`.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a `bool` as one byte.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Returns the current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Multiplier of [`FoldHasher`]: the 64-bit constant of FxHash, odd and
/// with well-spread bits.
const FOLD_SEED: u64 = 0x51_7C_C1_B7_27_22_0A_95;

/// A fold hasher for in-memory tables whose keys are already mixed:
/// one rotate, xor and multiply per word, where std's default SipHash
/// runs a keyed permutation (INV-FOLD-HASH in docs/SEARCH.md).
///
/// Only for tables keyed by FNV-mixed values (fingerprints, stage
/// content hashes) and small integers, that are never iterated into an
/// output: such a table's hasher changes how fast it answers, never
/// what. Anything stored, compared across processes or fingerprinted
/// hashes with [`FnvHasher`].
///
/// # Examples
///
/// ```
/// use aceso_util::hash::FoldState;
/// use std::collections::HashSet;
///
/// let mut seen: HashSet<u64, FoldState> = HashSet::default();
/// assert!(seen.insert(0xCBF2_9CE4_8422_2325));
/// assert!(!seen.insert(0xCBF2_9CE4_8422_2325));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    state: u64,
}

impl FoldHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(FOLD_SEED);
    }
}

impl std::hash::Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.fold(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the rotate
    /// brings them down to the low bits a table indexes by.
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

/// The [`std::hash::BuildHasher`] of [`FoldHasher`] tables
/// (INV-FOLD-HASH).
pub type FoldState = std::hash::BuildHasherDefault<FoldHasher>;

/// Derives a deterministic perturbation factor in `[1 - spread, 1 + spread]`
/// from a hash key.
///
/// The simulated profiler uses this to give each (operator, parallelism)
/// combination a stable, repeatable "measurement" deviation from the pure
/// analytic cost — the same role per-kernel efficiency quirks play on real
/// hardware.
pub fn keyed_jitter(key: u64, spread: f64) -> f64 {
    // One SplitMix64 finalisation round turns the key into white bits.
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    1.0 + spread * (2.0 * unit - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") per the reference implementation.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }

    #[test]
    fn hasher_matches_one_shot() {
        let mut h = FnvHasher::new();
        h.write_bytes(b"hello world");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }

    #[test]
    fn write_u64_equals_its_bytes() {
        let values = [
            0,
            1,
            255,
            256,
            1 << 40,
            u64::MAX,
            0x00FF_0000_1200_0034,
            0x0100_0000_0000_0000,
        ];
        for v in values {
            let mut h = FnvHasher::new();
            h.write_u64(v);
            assert_eq!(h.finish(), fnv1a(&v.to_le_bytes()), "v = {v:#x}");
            // And mid-stream, after a non-trivial state.
            let mut a = FnvHasher::new();
            a.write_bytes(b"stage");
            a.write_u64(v);
            let mut b = FnvHasher::new();
            b.write_bytes(b"stage");
            b.write_bytes(&v.to_le_bytes());
            assert_eq!(a.finish(), b.finish(), "v = {v:#x}");
        }
    }

    #[test]
    fn order_sensitive() {
        let mut a = FnvHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = FnvHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fold_hasher_is_stable_and_spreads_fingerprints() {
        use std::hash::{BuildHasher, Hash, Hasher};
        let hash = |v: u64| FoldState::default().hash_one(v);
        // Unkeyed: the same key hashes the same in every table.
        assert_eq!(hash(7), hash(7));
        let mut bytes = FoldHasher::default();
        bytes.write(&7u64.to_le_bytes());
        let mut word = FoldHasher::default();
        7u64.hash(&mut word);
        assert_eq!(bytes.finish(), word.finish());
        // Fingerprint-like keys fill the low bits a table indexes by.
        let buckets: std::collections::HashSet<u64> = (0..256u64)
            .map(|k| hash(fnv1a(&k.to_le_bytes())) & 0xFF)
            .collect();
        assert!(buckets.len() > 128, "{} of 256 buckets", buckets.len());
        // So do small integers.
        let small: std::collections::HashSet<u64> = (0..256u64).map(|k| hash(k) & 0xFF).collect();
        assert!(small.len() > 128, "{} of 256 buckets", small.len());
    }

    #[test]
    fn keyed_jitter_bounded_and_stable() {
        for key in 0..1000u64 {
            let j = keyed_jitter(key, 0.03);
            assert!((0.97..=1.03).contains(&j));
            assert_eq!(j, keyed_jitter(key, 0.03));
        }
    }

    #[test]
    fn keyed_jitter_spreads() {
        let lo = (0..1000).filter(|&k| keyed_jitter(k, 0.05) < 1.0).count();
        assert!(lo > 300 && lo < 700, "jitter should be roughly centred");
    }
}
