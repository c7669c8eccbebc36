//! Megatron-LM baseline: global (tp, dp, pp, b, recomp) grid search.
//!
//! Megatron-LM sets its five options globally — every layer shares the
//! same tensor/data-parallel degrees, stages are uniform, recomputation is
//! all-or-nothing. The paper makes it a strong baseline by grid-searching
//! these options with Aceso's performance model (§5); this module does the
//! same.

use crate::BaselineResult;
use aceso_cluster::ClusterSpec;
use aceso_config::init::{split_gpus_pow2, split_ops_weighted};
use aceso_config::{OpParallel, ParallelConfig, StageConfig};
use aceso_model::ModelGraph;
use aceso_perf::PerfModel;
use aceso_profile::ProfileDb;
use std::time::Instant;

/// Grid bounds for the Megatron search.
#[derive(Debug, Clone)]
pub struct MegatronOptions {
    /// Largest tensor-parallel degree to try (Megatron keeps tp within a
    /// node).
    pub max_tp: u32,
    /// Largest global microbatch size to try.
    pub max_microbatch: usize,
}

impl Default for MegatronOptions {
    fn default() -> Self {
        Self {
            max_tp: 8,
            max_microbatch: 512,
        }
    }
}

/// The Megatron-LM grid searcher.
pub struct MegatronSearch<'a> {
    model: &'a ModelGraph,
    cluster: &'a ClusterSpec,
    db: &'a ProfileDb,
    options: MegatronOptions,
}

impl<'a> MegatronSearch<'a> {
    /// Creates a searcher.
    pub fn new(
        model: &'a ModelGraph,
        cluster: &'a ClusterSpec,
        db: &'a ProfileDb,
        options: MegatronOptions,
    ) -> Self {
        Self {
            model,
            cluster,
            db,
            options,
        }
    }

    /// Builds the uniform Megatron config for one grid point, or `None`
    /// when the point is structurally impossible.
    fn build(
        &self,
        tp: u32,
        pp: usize,
        dp: u32,
        microbatch: usize,
        recompute: bool,
    ) -> Option<ParallelConfig> {
        let n = self.model.len();
        if n < pp {
            return None;
        }
        let gpus_per_stage = (tp * dp) as usize;
        // Uniform stages: equal device counts, flop-even op ranges.
        let splits = split_gpus_pow2(self.cluster.total_gpus(), pp)?;
        if splits.iter().any(|&g| g != gpus_per_stage) {
            return None;
        }
        let weights = vec![1.0; pp];
        let ranges = split_ops_weighted(self.model, &weights);
        let stages = ranges
            .iter()
            .map(|&(s, e)| {
                let ops = (s..e)
                    .map(|g| {
                        // Megatron clamps tp at each op's divisibility.
                        let limit = self.model.ops[g].tp_limit;
                        let op_tp = clamp_pow2(tp.min(limit), gpus_per_stage as u32);
                        OpParallel {
                            tp: op_tp,
                            dp: gpus_per_stage as u32 / op_tp,
                            dim_index: 0,
                            recompute,
                            zero: false,
                        }
                    })
                    .collect();
                StageConfig {
                    op_start: s,
                    op_end: e,
                    gpus: gpus_per_stage,
                    ops,
                }
            })
            .collect();
        Some(ParallelConfig::new(stages, microbatch))
    }

    /// Runs the grid search; `None` when no grid point is valid.
    pub fn run(&self) -> Option<BaselineResult> {
        let start = Instant::now();
        let pm = PerfModel::new(self.model, self.cluster, self.db);
        let total = self.cluster.total_gpus();
        let mut best: Option<BaselineResult> = None;
        let mut explored = 0usize;

        let mut tp = 1u32;
        while tp as usize <= total.min(self.options.max_tp as usize) {
            let mut pp = 1usize;
            while pp * tp as usize <= total {
                if !total.is_multiple_of(pp * tp as usize) {
                    pp += 1;
                    continue;
                }
                let dp = (total / (pp * tp as usize)) as u32;
                if !dp.is_power_of_two() {
                    pp += 1;
                    continue;
                }
                let mut mbs = dp as usize;
                while mbs <= self.options.max_microbatch.min(self.model.global_batch) {
                    if self.model.global_batch.is_multiple_of(mbs) {
                        for recompute in [false, true] {
                            let Some(cfg) = self.build(tp, pp, dp, mbs, recompute) else {
                                continue;
                            };
                            let Ok(est) = pm.evaluate(&cfg) else {
                                continue;
                            };
                            explored += 1;
                            let cand = BaselineResult {
                                iteration_time: est.iteration_time,
                                score: est.score(),
                                oom: est.oom(),
                                config: cfg,
                                explored: 0,
                                wall_time: start.elapsed(),
                                modeled_seconds: 0.0,
                            };
                            if best.as_ref().is_none_or(|b| cand.score < b.score) {
                                best = Some(cand);
                            }
                        }
                    }
                    mbs *= 2;
                }
                pp += 1;
            }
            tp *= 2;
        }
        best.map(|mut b| {
            b.explored = explored;
            b.wall_time = start.elapsed();
            b.modeled_seconds = start.elapsed().as_secs_f64();
            b
        })
    }
}

/// Largest power of two ≤ `want` that divides `gpus`.
fn clamp_pow2(want: u32, gpus: u32) -> u32 {
    let mut tp = want.max(1);
    if !tp.is_power_of_two() {
        tp = tp.next_power_of_two() / 2;
    }
    while tp > 1 && !gpus.is_multiple_of(tp) {
        tp /= 2;
    }
    tp
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_config::validate::validate;
    use aceso_model::zoo::gpt3_custom;

    fn setup() -> (ModelGraph, ClusterSpec) {
        (
            gpt3_custom("t", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(1, 8),
        )
    }

    #[test]
    fn grid_finds_feasible_config() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = MegatronSearch::new(&m, &c, &db, MegatronOptions::default())
            .run()
            .expect("grid non-empty");
        assert!(!r.oom);
        assert!(r.explored > 10);
        assert!(validate(&r.config, &m, &c).is_ok());
    }

    #[test]
    fn configs_are_uniform() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = MegatronSearch::new(&m, &c, &db, MegatronOptions::default())
            .run()
            .expect("grid non-empty");
        // All stages share one device count; recompute is all-or-nothing.
        let g0 = r.config.stages()[0].gpus;
        assert!(r.config.stages().iter().all(|s| s.gpus == g0));
        let rc: usize = r.config.stages().iter().map(|s| s.num_recomputed()).sum();
        let n: usize = r.config.stages().iter().map(|s| s.num_ops()).sum();
        assert!(rc == 0 || rc == n, "recompute must be global, got {rc}/{n}");
    }

    #[test]
    fn clamp_pow2_works() {
        assert_eq!(clamp_pow2(8, 8), 8);
        assert_eq!(clamp_pow2(6, 8), 4);
        assert_eq!(clamp_pow2(8, 4), 4);
        assert_eq!(clamp_pow2(0, 8), 1);
    }

    #[test]
    fn single_gpu_grid() {
        let m = gpt3_custom("t", 2, 256, 4, 128, 1000, 16);
        let c = ClusterSpec::v100(1, 1);
        let db = ProfileDb::build(&m, &c);
        let r = MegatronSearch::new(&m, &c, &db, MegatronOptions::default())
            .run()
            .expect("1-gpu grid works");
        assert_eq!(r.config.total_gpus(), 1);
    }

    #[test]
    fn handles_wide_resnet_fp32() {
        let m = aceso_model::zoo::wide_resnet_custom("t-wrn", &[1, 1, 1, 1], 1, 64);
        let c = ClusterSpec::v100(1, 4);
        let db = ProfileDb::build(&m, &c);
        let r = MegatronSearch::new(&m, &c, &db, MegatronOptions::default())
            .run()
            .expect("wrn grid works");
        assert!(!r.oom);
        assert!(validate(&r.config, &m, &c).is_ok());
    }

    #[test]
    fn handles_t5_encoder_decoder() {
        let m = aceso_model::zoo::t5_custom("t-t5", 2, 2, 512, 8, 64);
        let c = ClusterSpec::v100(1, 4);
        let db = ProfileDb::build(&m, &c);
        let r = MegatronSearch::new(&m, &c, &db, MegatronOptions::default())
            .run()
            .expect("t5 grid works");
        assert!(validate(&r.config, &m, &c).is_ok());
    }

    #[test]
    fn grid_is_deterministic() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let a = MegatronSearch::new(&m, &c, &db, MegatronOptions::default())
            .run()
            .expect("a");
        let b = MegatronSearch::new(&m, &c, &db, MegatronOptions::default())
            .run()
            .expect("b");
        assert_eq!(a.config.semantic_hash(), b.config.semantic_hash());
        assert_eq!(a.explored, b.explored);
    }

    #[test]
    fn tp_capped_at_node_size() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = MegatronSearch::new(
            &m,
            &c,
            &db,
            MegatronOptions {
                max_tp: 2,
                ..MegatronOptions::default()
            },
        )
        .run()
        .expect("runs");
        for s in r.config.stages() {
            assert!(s.ops.iter().all(|o| o.tp <= 2));
        }
    }
}
