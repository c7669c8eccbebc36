//! Op-level fine-tuning (paper §4.2).
//!
//! After each improving search iteration, two greedy op-level passes run
//! on the accepted configuration:
//!
//! 1. **Flexible tensor-parallel dimension** — try each operator's
//!    alternative partition dimensions (row↔column for matmuls,
//!    in↔out-channel for convolutions) and keep flips that improve the
//!    estimate.
//! 2. **Flexible in-stage tp/dp combination** — try converting the tp/dp
//!    mix of each stage's suffix `[k..]` (both directions) at a handful of
//!    cut points, accepting changes that pay for their resharding cost.

use crate::transform::{self, Mechanism};
use aceso_config::ParallelConfig;
use aceso_perf::Evaluator;

/// Runs both fine-tuning passes; returns a configuration scoring no worse
/// than the input, plus the number of configurations evaluated.
///
/// Generic over the scoring oracle so the search can pass its memoizing
/// [`aceso_perf::CachedEvaluator`] while tests and baselines keep using a
/// plain [`aceso_perf::PerfModel`].
pub fn fine_tune<E: Evaluator>(pm: &E, config: ParallelConfig) -> (ParallelConfig, usize) {
    let mut best = config;
    let mut best_score = pm.evaluate_unchecked(&best).score();
    let mut evals = 1usize;

    // Pass 1: partition-dimension flips, one greedy sweep.
    let model = pm.model();
    for si in 0..best.stages().len() {
        for j in 0..best.stages()[si].ops.len() {
            let g = best.stages()[si].op_start + j;
            let n_dims = model.ops[g].partitions.len();
            if n_dims < 2 || best.stages()[si].ops[j].tp <= 1 {
                continue;
            }
            let cur = best.stages()[si].ops[j].dim_index;
            for d in 0..n_dims as u8 {
                if d == cur {
                    continue;
                }
                let mut cand = best.clone();
                cand.stage_mut(si).ops[j].dim_index = d;
                let score = pm.evaluate_unchecked(&cand).score();
                evals += 1;
                if score < best_score {
                    best = cand;
                    best_score = score;
                }
            }
        }
    }

    // Pass 2: suffix tp/dp conversions at sampled cut points.
    for si in 0..best.stages().len() {
        let n = best.stages()[si].ops.len();
        let step = (n / 8).max(1);
        let mut start = 0usize;
        while start < n {
            for toward in [Mechanism::Tp, Mechanism::Dp] {
                if let Some(cand) = transform::convert_suffix(model, &best, si, start, toward) {
                    let score = pm.evaluate_unchecked(&cand).score();
                    evals += 1;
                    if score < best_score {
                        best = cand;
                        best_score = score;
                    }
                }
            }
            start += step;
        }
    }

    (best, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_cluster::ClusterSpec;
    use aceso_config::balanced_init;
    use aceso_config::validate::validate;
    use aceso_model::zoo::gpt3_custom;
    use aceso_perf::PerfModel;
    use aceso_profile::ProfileDb;

    #[test]
    fn fine_tune_never_regresses() {
        let m = gpt3_custom("t", 4, 512, 8, 256, 8192, 64);
        let c = ClusterSpec::v100(1, 8);
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let before = pm.evaluate_unchecked(&cfg).score();
        let (tuned, evals) = fine_tune(&pm, cfg);
        let after = pm.evaluate_unchecked(&tuned).score();
        assert!(after <= before);
        assert!(evals > 1);
        assert!(validate(&tuned, &m, &c).is_ok());
    }

    #[test]
    fn fine_tune_output_is_deterministic() {
        let m = gpt3_custom("t", 4, 512, 8, 256, 8192, 64);
        let c = ClusterSpec::v100(1, 8);
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let (a, _) = fine_tune(&pm, cfg.clone());
        let (b, _) = fine_tune(&pm, cfg);
        assert_eq!(a.semantic_hash(), b.semantic_hash());
    }
}
