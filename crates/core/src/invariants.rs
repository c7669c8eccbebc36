//! Runtime invariant checks for debug builds.
//!
//! In a debug build (`debug_assertions` on, as under `cargo test`) the
//! transforms, the candidate generator, and the search panic at the
//! exact point an invariant breaks — the dynamic twin of the static
//! analyzers in `aceso-audit`. In a release build every body here folds
//! to nothing, so release binaries pay nothing.

use crate::primitives::Candidate;
use aceso_cluster::ClusterSpec;
use aceso_config::ParallelConfig;
use aceso_model::ModelGraph;
use aceso_perf::PerfModel;

/// Panics unless `config` passes full validation against the model and
/// the cluster. Used where both are in scope (candidate generation, the
/// search's accept path).
pub fn assert_valid(model: &ModelGraph, cluster: &ClusterSpec, config: &ParallelConfig, ctx: &str) {
    if !cfg!(debug_assertions) {
        return;
    }
    if let Err(e) = aceso_config::validate::validate(config, model, cluster) {
        panic!("invariant[{ctx}]: invalid configuration: {e}");
    }
}

/// Panics unless `config` keeps the cluster-independent structural
/// invariants every transform must preserve: stage op ranges partition the
/// model, `tp·dp` matches each stage's GPU count, degrees stay powers of
/// two within the op's tp limit, partition dims exist, the microbatch
/// divides the global batch, every dp divides the microbatch, and ZeRO is
/// clamped off wherever `dp == 1`.
///
/// The cluster-size check is deliberately absent: transforms see no
/// cluster, they must merely conserve the configuration's own GPU total
/// (which [`assert_valid`] pins to the cluster at the call sites that
/// have one).
pub fn assert_structure(model: &ModelGraph, config: &ParallelConfig, ctx: &str) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut expect = 0usize;
    for (i, s) in config.stages().iter().enumerate() {
        assert_eq!(
            s.op_start, expect,
            "invariant[{ctx}]: stage {i} op range breaks the partition"
        );
        assert!(
            s.op_end > s.op_start,
            "invariant[{ctx}]: stage {i} is empty"
        );
        assert_eq!(
            s.ops.len(),
            s.num_ops(),
            "invariant[{ctx}]: stage {i} ops length mismatch"
        );
        expect = s.op_end;
        for (j, op) in s.ops.iter().enumerate() {
            let g = s.op_start + j;
            assert_eq!(
                op.gpus() as usize,
                s.gpus,
                "invariant[{ctx}]: stage {i} op {g}: tp*dp != stage gpus"
            );
            assert!(
                op.tp.is_power_of_two() && op.dp.is_power_of_two(),
                "invariant[{ctx}]: stage {i} op {g}: degrees not powers of two"
            );
            assert!(
                op.tp <= model.ops[g].tp_limit,
                "invariant[{ctx}]: stage {i} op {g}: tp over operator limit"
            );
            assert!(
                usize::from(op.dim_index) < model.ops[g].partitions.len(),
                "invariant[{ctx}]: stage {i} op {g}: bad partition dim"
            );
            assert!(
                config.microbatch.is_multiple_of(op.dp as usize),
                "invariant[{ctx}]: stage {i} op {g}: dp does not divide microbatch"
            );
            assert!(
                !(op.zero && op.dp == 1),
                "invariant[{ctx}]: stage {i} op {g}: unclamped zero on dp == 1"
            );
        }
    }
    assert_eq!(
        expect,
        model.len(),
        "invariant[{ctx}]: op ranges do not cover the model"
    );
    assert!(
        config.microbatch > 0 && model.global_batch.is_multiple_of(config.microbatch),
        "invariant[{ctx}]: microbatch does not divide the global batch"
    );
}

/// Panics if a stage count's backtrack heap holds more than `2 × cap`
/// entries after a push, where `cap` is the most pops the stage count
/// has left (INV-BACKTRACK-BOUND in docs/SEARCH.md).
pub fn assert_backtrack_bound(len: usize, cap: usize) {
    if !cfg!(debug_assertions) {
        return;
    }
    assert!(
        len <= cap.saturating_mul(2),
        "invariant[backtrack]: heap holds {len} entries, over twice the {cap} it can still pop"
    );
}

/// Checks what candidate generation hands the search (INV-SCORE-ONCE and
/// INV-STAGE-HASH in docs/SEARCH.md): every cached stage hash equals a
/// from-scratch recomputation, the carried fingerprint is the
/// configuration's semantic hash, and a carried estimate equals a
/// from-scratch evaluation to the last bit. It scores through the
/// stage's own `PerfModel`, which counts nothing, so checking moves no
/// counter.
pub struct ScoreCheck<'a> {
    pm: &'a PerfModel<'a>,
}

impl<'a> ScoreCheck<'a> {
    /// A checker scoring through `pm`.
    pub fn new(pm: &'a PerfModel<'a>) -> Self {
        Self { pm }
    }

    /// Panics unless `cand`'s stage hashes, fingerprint and carried
    /// estimate are what the search would have computed from scratch.
    pub fn assert_carried(&self, cand: &Candidate) {
        if !cfg!(debug_assertions) {
            return;
        }
        let name = cand.primitive.name();
        for (i, s) in cand.config.stages().iter().enumerate() {
            assert_eq!(
                s.content_hash(),
                s.compute_content_hash(),
                "invariant[{name}]: stage {i}'s cached hash is stale"
            );
        }
        assert_eq!(
            cand.fingerprint,
            cand.config.semantic_hash(),
            "invariant[{name}]: carried fingerprint is not the configuration's hash"
        );
        if let Some(est) = &cand.estimate {
            assert!(
                est.bit_identical(&self.pm.evaluate_unchecked(&cand.config)),
                "invariant[{name}]: carried estimate differs from a fresh evaluation"
            );
        }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use aceso_cluster::ClusterSpec;
    use aceso_config::balanced_init;
    use aceso_model::zoo::gpt3_custom;
    use aceso_profile::ProfileDb;

    #[test]
    fn accepts_valid_config() {
        let model = gpt3_custom("t", 2, 256, 4, 128, 1000, 64);
        let cluster = ClusterSpec::v100(1, 4);
        let cfg = balanced_init(&model, &cluster, 2).expect("init");
        assert_structure(&model, &cfg, "test");
        assert_valid(&model, &cluster, &cfg, "test");
    }

    /// A generated candidate that carries an estimate, with its checker.
    fn carried_candidate(f: impl FnOnce(&ScoreCheck<'_>, Candidate)) {
        use crate::primitives::{generate, Primitive};
        use crate::Resource;
        let model = gpt3_custom("t", 2, 256, 4, 128, 1000, 64);
        let cluster = ClusterSpec::v100(1, 4);
        let db = ProfileDb::build(&model, &cluster);
        let pm = PerfModel::new(&model, &cluster, &db);
        let cfg = balanced_init(&model, &cluster, 2).expect("init");
        let est = pm.evaluate_unchecked(&cfg);
        let cand = generate(&pm, &cfg, &est, Primitive::DecOp, 0, Resource::Compute)
            .into_iter()
            .find(|c| c.estimate.is_some())
            .expect("an unchanged fix-up carries its estimate");
        f(&ScoreCheck::new(&pm), cand);
    }

    #[test]
    fn accepts_carried_candidate() {
        carried_candidate(|check, cand| check.assert_carried(&cand));
    }

    #[test]
    #[should_panic(expected = "carried fingerprint")]
    fn panics_on_stale_fingerprint() {
        carried_candidate(|check, mut cand| {
            cand.fingerprint ^= 1;
            check.assert_carried(&cand);
        });
    }

    #[test]
    #[should_panic(expected = "carried estimate")]
    fn panics_on_stale_estimate() {
        carried_candidate(|check, mut cand| {
            if let Some(est) = cand.estimate.as_mut() {
                est.iteration_time = f64::from_bits(est.iteration_time.to_bits() ^ 1);
            }
            check.assert_carried(&cand);
        });
    }

    #[test]
    fn backtrack_bound_allows_twice_the_remaining_pops() {
        assert_backtrack_bound(0, 0);
        assert_backtrack_bound(6, 3);
        assert_backtrack_bound(usize::MAX, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "over twice the 3 it can still pop")]
    fn panics_on_an_unbounded_backtrack_heap() {
        assert_backtrack_bound(7, 3);
    }

    #[test]
    #[should_panic(expected = "unclamped zero")]
    fn panics_on_unclamped_zero() {
        let model = gpt3_custom("t", 2, 256, 4, 128, 1000, 64);
        let cluster = ClusterSpec::v100(1, 4);
        let mut cfg = balanced_init(&model, &cluster, 4).expect("init");
        cfg.stage_mut(0).ops[0].zero = true; // dp == 1 in a 1-GPU stage
        assert_structure(&model, &cfg, "test");
    }
}
