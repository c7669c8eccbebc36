//! Initial-configuration generators.
//!
//! The search starts from a balanced partition with minimum microbatch size
//! (§5.1); Exp#7 additionally probes robustness with deliberately
//! imbalanced starting points (`imbalance-op`, `imbalance-GPU`).

use crate::parallel::{OpParallel, ParallelConfig, StageConfig};
use crate::validate::{validate, ConfigError};
use aceso_cluster::ClusterSpec;
use aceso_model::ModelGraph;

/// Splits `total` GPUs into `p` power-of-two stage sizes that sum exactly
/// to `total`, as evenly as a power-of-two constraint allows.
///
/// Returns `None` when impossible (`p > total` or `total == 0`).
pub fn split_gpus_pow2(total: usize, p: usize) -> Option<Vec<usize>> {
    if p == 0 || total < p {
        return None;
    }
    let mut parts = vec![1usize; p];
    let mut sum = p;
    while sum < total {
        // Double the smallest part that still fits.
        let mut candidate: Option<usize> = None;
        for (i, &v) in parts.iter().enumerate() {
            if sum + v <= total {
                match candidate {
                    Some(c) if parts[c] <= v => {}
                    _ => candidate = Some(i),
                }
            }
        }
        let i = candidate?;
        sum += parts[i];
        parts[i] *= 2;
    }
    // Largest stages last: later pipeline stages tolerate less memory
    // headroom (fewer in-flight microbatches), and keeping the vector
    // sorted makes the split deterministic.
    parts.sort_unstable();
    Some(parts)
}

/// Cuts the model's ops into `p` contiguous ranges whose FLOP totals are
/// proportional to `weights` (each range gets ≥ 1 op).
pub fn split_ops_weighted(model: &ModelGraph, weights: &[f64]) -> Vec<(usize, usize)> {
    let p = weights.len();
    let n = model.len();
    debug_assert!(p >= 1 && n >= p);
    let total_w: f64 = weights.iter().sum();
    let total_flops: f64 = model.total_flops();
    let mut cuts = Vec::with_capacity(p + 1);
    cuts.push(0usize);
    let mut acc = 0.0;
    let mut target_acc = 0.0;
    let mut op = 0usize;
    for (i, w) in weights.iter().enumerate().take(p - 1) {
        target_acc += w / total_w * total_flops;
        while op < n && (acc < target_acc || op < cuts[i] + 1) {
            // Never advance so far that the remaining stages can't each get
            // one op.
            if n - (op + 1) < p - (i + 1) {
                break;
            }
            acc += model.ops[op].flops;
            op += 1;
        }
        cuts.push(op.max(cuts[i] + 1));
        op = *cuts.last().expect("non-empty");
    }
    cuts.push(n);
    cuts.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Builds a stage list from op ranges and GPU counts with pure data
/// parallelism per stage (`tp = 1`, no recomputation).
fn stages_from(ranges: &[(usize, usize)], gpus: &[usize]) -> Vec<StageConfig> {
    ranges
        .iter()
        .zip(gpus)
        .map(|(&(s, e), &g)| StageConfig::uniform(s, e, OpParallel::data_parallel(g as u32)))
        .collect()
}

/// Minimum feasible global microbatch: the largest per-op dp (every dp is a
/// power of two, so the max divides nothing smaller).
fn min_microbatch(stages: &[StageConfig], global_batch: usize) -> usize {
    let max_dp = stages
        .iter()
        .flat_map(|s| s.ops.iter().map(|o| o.dp as usize))
        .max()
        .unwrap_or(1);
    max_dp.min(global_batch)
}

/// The default starting point: FLOP-balanced op ranges proportional to each
/// stage's GPU share, near-even power-of-two device split, pure dp,
/// minimum microbatch.
pub fn balanced_init(
    model: &ModelGraph,
    cluster: &ClusterSpec,
    num_stages: usize,
) -> Result<ParallelConfig, ConfigError> {
    let total = cluster.total_gpus();
    let gpus = split_gpus_pow2(total, num_stages).ok_or(ConfigError::NoStages)?;
    if model.len() < num_stages {
        return Err(ConfigError::NoStages);
    }
    let weights: Vec<f64> = gpus.iter().map(|&g| g as f64).collect();
    let ranges = split_ops_weighted(model, &weights);
    let stages = stages_from(&ranges, &gpus);
    let microbatch = min_microbatch(&stages, model.global_batch);
    let cfg = ParallelConfig::new(stages, microbatch);
    validate(&cfg, model, cluster)?;
    Ok(cfg)
}

/// Exp#7 `imbalance-op`: the first stage is loaded with ~3× its fair FLOP
/// share.
pub fn imbalance_op_init(
    model: &ModelGraph,
    cluster: &ClusterSpec,
    num_stages: usize,
) -> Result<ParallelConfig, ConfigError> {
    let total = cluster.total_gpus();
    let gpus = split_gpus_pow2(total, num_stages).ok_or(ConfigError::NoStages)?;
    if model.len() < num_stages {
        return Err(ConfigError::NoStages);
    }
    let mut weights: Vec<f64> = gpus.iter().map(|&g| g as f64).collect();
    weights[0] *= 3.0;
    let ranges = split_ops_weighted(model, &weights);
    let stages = stages_from(&ranges, &gpus);
    let microbatch = min_microbatch(&stages, model.global_batch);
    let cfg = ParallelConfig::new(stages, microbatch);
    validate(&cfg, model, cluster)?;
    Ok(cfg)
}

/// Exp#7 `imbalance-GPU`: FLOP-even op ranges but a maximally skewed
/// power-of-two device split (half the cluster on the first stage).
pub fn imbalance_gpu_init(
    model: &ModelGraph,
    cluster: &ClusterSpec,
    num_stages: usize,
) -> Result<ParallelConfig, ConfigError> {
    let total = cluster.total_gpus();
    if num_stages < 2 || total < num_stages {
        return balanced_init(model, cluster, num_stages);
    }
    // First stage takes half the GPUs (or as much as leaves one per
    // remaining stage); the rest split evenly.
    let mut first = total / 2;
    while first >= 1 && total - first < num_stages - 1 {
        first /= 2;
    }
    let first = first.max(1);
    let rest = split_gpus_pow2(total - first, num_stages - 1).ok_or(ConfigError::NoStages)?;
    let mut gpus = vec![first];
    gpus.extend(rest);
    if model.len() < num_stages {
        return Err(ConfigError::NoStages);
    }
    // Op ranges still even-by-flops per *stage count*, ignoring GPU skew —
    // that is what makes this starting point imbalanced.
    let weights = vec![1.0; num_stages];
    let ranges = split_ops_weighted(model, &weights);
    let stages = stages_from(&ranges, &gpus);
    let microbatch = min_microbatch(&stages, model.global_batch);
    let cfg = ParallelConfig::new(stages, microbatch);
    validate(&cfg, model, cluster)?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;

    #[test]
    fn pow2_split_exact_and_pow2() {
        for total in [1usize, 2, 4, 8, 16, 32] {
            for p in 1..=total.min(8) {
                let parts = split_gpus_pow2(total, p).unwrap_or_else(|| {
                    panic!("no split for total={total} p={p}");
                });
                assert_eq!(parts.len(), p);
                assert_eq!(parts.iter().sum::<usize>(), total);
                assert!(parts.iter().all(|x| x.is_power_of_two()));
            }
        }
    }

    #[test]
    fn pow2_split_rejects_impossible() {
        assert!(split_gpus_pow2(2, 3).is_none());
        assert!(split_gpus_pow2(0, 1).is_none());
        assert!(split_gpus_pow2(4, 0).is_none());
    }

    #[test]
    fn pow2_split_is_balanced() {
        let parts = split_gpus_pow2(32, 4).expect("split exists");
        assert_eq!(parts, vec![8, 8, 8, 8]);
        let parts = split_gpus_pow2(32, 3).expect("split exists");
        assert_eq!(parts, vec![8, 8, 16]);
    }

    #[test]
    fn weighted_op_split_covers_model() {
        let m = gpt3_custom("t", 4, 256, 4, 128, 1000, 64);
        let ranges = split_ops_weighted(&m, &[1.0, 1.0, 2.0]);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().expect("nonempty").1, m.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            assert!(w[0].1 > w[0].0);
        }
        // The double-weight stage should get roughly twice the flops.
        let fl = |r: (usize, usize)| -> f64 { m.ops[r.0..r.1].iter().map(|o| o.flops).sum() };
        assert!(fl(ranges[2]) > fl(ranges[0]));
    }

    #[test]
    fn balanced_init_validates() {
        let m = gpt3_custom("t", 4, 256, 4, 128, 1000, 64);
        let c = ClusterSpec::v100(1, 8);
        for p in 1..=4 {
            let cfg = balanced_init(&m, &c, p).expect("init ok");
            assert_eq!(cfg.num_stages(), p);
            assert!(validate(&cfg, &m, &c).is_ok());
        }
    }

    #[test]
    fn imbalanced_inits_validate_and_differ() {
        let m = gpt3_custom("t", 8, 256, 4, 128, 1000, 64);
        let c = ClusterSpec::v100(1, 8);
        let bal = balanced_init(&m, &c, 4).expect("balanced");
        let iop = imbalance_op_init(&m, &c, 4).expect("imbalance-op");
        let igpu = imbalance_gpu_init(&m, &c, 4).expect("imbalance-gpu");
        assert!(validate(&iop, &m, &c).is_ok());
        assert!(validate(&igpu, &m, &c).is_ok());
        assert_ne!(bal.semantic_hash(), iop.semantic_hash());
        assert_ne!(bal.semantic_hash(), igpu.semantic_hash());
        // imbalance-op loads stage 0 with more ops than balanced does.
        assert!(iop.stages()[0].num_ops() > bal.stages()[0].num_ops());
        // imbalance-gpu gives stage 0 at least as many GPUs as any other.
        assert!(igpu.stages()[0].gpus >= igpu.stages()[1].gpus);
    }

    #[test]
    fn single_gpu_init() {
        let m = gpt3_custom("t", 2, 256, 4, 128, 1000, 64);
        let c = ClusterSpec::v100(1, 1);
        let cfg = balanced_init(&m, &c, 1).expect("init ok");
        assert_eq!(cfg.total_gpus(), 1);
        assert_eq!(cfg.microbatch, 1);
    }
}
