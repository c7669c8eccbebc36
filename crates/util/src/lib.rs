//! Shared infrastructure for the Aceso reproduction.
//!
//! Everything in this crate is deterministic: the RNG is a seeded
//! SplitMix64, hashing is stable FNV-1a (in-memory tables keyed by
//! FNV-mixed values use the unkeyed `FoldHasher`), and the jitter helpers derive
//! perturbations from hashes rather than from any ambient entropy. This is
//! what makes every experiment in the repository reproducible bit-for-bit.

pub mod fsio;
pub mod hash;
pub mod json;
pub mod retention;
pub mod rng;
pub mod stats;
pub mod table;

pub use hash::{fnv1a, FnvHasher, FoldState};
pub use rng::SplitMix64;
