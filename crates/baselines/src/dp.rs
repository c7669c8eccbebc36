//! Pruned dynamic-programming search (Exp#4's comparison point).
//!
//! A classic mathematical-programming formulation at operator granularity:
//! choose contiguous op ranges as pipeline stages and, per stage, a device
//! mesh plus a uniform `(tp, dp, recompute)` plan, minimising the maximum
//! stage steady time, with the prunings the paper describes (bounded
//! microbatch, power-of-two tp/dp, bounded meshes). Every (range, plan)
//! candidate the DP examines is counted — this count is what Fig. 10
//! compares against Aceso's explored-configuration count.
//!
//! Stage costs accumulate incrementally while the range end advances, so
//! examining tens of millions of candidates stays tractable.

use crate::BaselineResult;
use aceso_cluster::{ClusterSpec, Collective, CommGroup};
use aceso_config::{OpParallel, ParallelConfig, StageConfig};
use aceso_model::ModelGraph;
use aceso_perf::PerfModel;
use aceso_profile::ProfileDb;
use std::time::Instant;

/// Pruning bounds of the DP search.
#[derive(Debug, Clone)]
pub struct DpOptions {
    /// Largest global microbatch to try.
    pub max_microbatch: usize,
    /// Largest op count per stage (`∞` = model length).
    pub max_ops_per_stage: usize,
    /// In-flight microbatch bounds to sweep for the memory prune (the DP
    /// does not know the final stage count while pruning, so it is run
    /// once per assumption and the best fully-evaluated result kept).
    pub assumed_in_flight: Vec<u64>,
}

impl Default for DpOptions {
    fn default() -> Self {
        Self {
            max_microbatch: 64,
            max_ops_per_stage: usize::MAX,
            assumed_in_flight: vec![1, 2, 4, 8],
        }
    }
}

/// The DP searcher.
pub struct DpSearch<'a> {
    model: &'a ModelGraph,
    cluster: &'a ClusterSpec,
    db: &'a ProfileDb,
    options: DpOptions,
}

/// Recompute policy of one DP plan. `Heavy` recomputes only the
/// operators whose stash exceeds twice the model's mean (attention cores
/// and similar) — a coarse, DP-friendly form of selective recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RcMode {
    None,
    Heavy,
    All,
}

/// One uniform stage plan considered by the DP.
#[derive(Debug, Clone, Copy)]
struct Plan {
    mesh: usize,
    tp: u32,
    dp: u32,
    recompute: RcMode,
}

impl<'a> DpSearch<'a> {
    /// Creates a searcher.
    pub fn new(
        model: &'a ModelGraph,
        cluster: &'a ClusterSpec,
        db: &'a ProfileDb,
        options: DpOptions,
    ) -> Self {
        Self {
            model,
            cluster,
            db,
            options,
        }
    }

    /// All (mesh, tp, dp, rc) plans to try per stage range.
    fn plans(&self) -> Vec<Plan> {
        let total = self.cluster.total_gpus();
        let mut out = Vec::new();
        let mut mesh = 1usize;
        while mesh <= total {
            let mut tp = 1u32;
            while tp as usize <= mesh {
                let dp = (mesh / tp as usize) as u32;
                for recompute in [RcMode::None, RcMode::Heavy, RcMode::All] {
                    out.push(Plan {
                        mesh,
                        tp,
                        dp,
                        recompute,
                    });
                }
                tp *= 2;
            }
            mesh *= 2;
        }
        out
    }

    /// Runs the DP for every microbatch in the grid; returns the best
    /// configuration plus the total number of candidates examined.
    pub fn run(&self) -> Option<BaselineResult> {
        let start = Instant::now();
        let pm = PerfModel::new(self.model, self.cluster, self.db);
        let mut explored = 0usize;
        let mut best: Option<BaselineResult> = None;

        let mut mbs = 1usize;
        while mbs <= self.options.max_microbatch.min(self.model.global_batch) {
            if !self.model.global_batch.is_multiple_of(mbs) {
                mbs *= 2;
                continue;
            }
            for &aif in &self.options.assumed_in_flight {
                let Some(cfg) = self.solve_for_microbatch(mbs, aif, &mut explored) else {
                    continue;
                };
                let Ok(est) = pm.evaluate(&cfg) else { continue };
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
            mbs *= 2;
        }
        best.map(|mut b| {
            b.explored = explored;
            b.wall_time = start.elapsed();
            b.modeled_seconds = start.elapsed().as_secs_f64();
            b
        })
    }

    /// Minimax DP for one microbatch size and one in-flight assumption.
    fn solve_for_microbatch(
        &self,
        mbs: usize,
        assumed_in_flight: u64,
        explored: &mut usize,
    ) -> Option<ParallelConfig> {
        let l = self.model.len();
        let total = self.cluster.total_gpus();
        let plans = self.plans();
        let act_bytes = self.model.precision.bytes();
        let capacity = self.cluster.device.mem_bytes;
        // Ops the `Heavy` recompute mode targets.
        let mean_stash = self.model.ops.iter().map(|o| o.stash_elems).sum::<u64>()
            / self.model.len().max(1) as u64;
        let heavy: Vec<bool> = self
            .model
            .ops
            .iter()
            .map(|o| o.stash_elems > 2 * mean_stash)
            .collect();

        // f[i][r] = (minimax cost over suffix, chosen j, chosen plan idx)
        let inf = (f64::INFINITY, 0usize, usize::MAX);
        let mut f = vec![vec![inf; total + 1]; l + 1];
        f[l][0] = (0.0, l, usize::MAX);

        for i in (0..l).rev() {
            for (pi, plan) in plans.iter().enumerate() {
                if !mbs.is_multiple_of(plan.dp as usize) {
                    continue;
                }
                // Incremental accumulation over the range end j.
                let mut compute = 0.0f64;
                let mut comm = 0.0f64;
                let mut grad_bytes = 0u64;
                let mut mem = 0u64;
                let tp_group = CommGroup::contiguous(0, plan.tp as usize);
                let dp_group = CommGroup::strided(0, plan.dp as usize, plan.tp as usize);
                let max_j = i.saturating_add(self.options.max_ops_per_stage).min(l);
                for j in (i + 1)..=max_j {
                    let op = &self.model.ops[j - 1];
                    let op_tp = clamp_tp(plan.tp, op.tp_limit, plan.mesh as u32);
                    let op_dp = plan.mesh as u32 / op_tp;
                    if !mbs.is_multiple_of(op_dp as usize) {
                        break;
                    }
                    let per_dev = (mbs / op_dp as usize) as u64;
                    let rc = match plan.recompute {
                        RcMode::None => false,
                        RcMode::Heavy => heavy[j - 1],
                        RcMode::All => true,
                    };
                    let fwd = self.db.op_fwd_time(op, op_tp, 0, per_dev);
                    compute += fwd * if rc { 4.0 } else { 3.0 };
                    let spec = op.partition(0);
                    if op_tp > 1 {
                        let fb = spec.fwd_comm_elems * per_dev * act_bytes;
                        let bb = spec.bwd_comm_elems * per_dev * act_bytes;
                        comm += self
                            .db
                            .collective_time(Collective::AllReduce, fb, &tp_group);
                        comm += self
                            .db
                            .collective_time(Collective::AllReduce, bb, &tp_group);
                    }
                    let params_rank = op.params_per_rank(0, op_tp);
                    grad_bytes += params_rank * act_bytes;
                    mem += params_rank * (2 * act_bytes + self.model.precision.optimizer_bytes());
                    if !rc {
                        mem +=
                            op.stash_per_rank(0, op_tp) * per_dev * act_bytes * assumed_in_flight;
                    }

                    *explored += 1;
                    if mem > capacity {
                        // Memory prune: extending further only grows memory.
                        break;
                    }
                    let dp_sync = if plan.dp > 1 {
                        self.db
                            .collective_time(Collective::AllReduce, grad_bytes, &dp_group)
                    } else {
                        0.0
                    };
                    let stage_cost = compute + comm + dp_sync;
                    for r in plan.mesh..=total {
                        let rest = f[j][r - plan.mesh].0;
                        if !rest.is_finite() {
                            continue;
                        }
                        let cost = stage_cost.max(rest);
                        if cost < f[i][r].0 {
                            f[i][r] = (cost, j, pi);
                        }
                    }
                }
            }
        }

        if !f[0][total].0.is_finite() {
            return None;
        }
        // Reconstruct.
        let mut stages = Vec::new();
        let (mut i, mut r) = (0usize, total);
        while i < l {
            let (_, j, pi) = f[i][r];
            if pi == usize::MAX {
                return None;
            }
            let plan = plans[pi];
            let mean_stash = self.model.ops.iter().map(|o| o.stash_elems).sum::<u64>()
                / self.model.len().max(1) as u64;
            let ops = (i..j)
                .map(|g| {
                    let limit = self.model.ops[g].tp_limit;
                    let op_tp = clamp_tp(plan.tp, limit, plan.mesh as u32);
                    let recompute = match plan.recompute {
                        RcMode::None => false,
                        RcMode::Heavy => self.model.ops[g].stash_elems > 2 * mean_stash,
                        RcMode::All => true,
                    };
                    OpParallel {
                        tp: op_tp,
                        dp: plan.mesh as u32 / op_tp,
                        dim_index: 0,
                        recompute,
                        zero: false,
                    }
                })
                .collect();
            stages.push(StageConfig {
                op_start: i,
                op_end: j,
                gpus: plan.mesh,
                ops,
            });
            i = j;
            r -= plan.mesh;
        }
        Some(ParallelConfig::new(stages, mbs))
    }
}

/// Largest power of two ≤ `want` accepted by the op that divides `gpus`.
fn clamp_tp(want: u32, limit: u32, gpus: u32) -> u32 {
    let mut tp = want.min(limit).max(1);
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
            gpt3_custom("t", 2, 256, 4, 128, 1000, 16),
            ClusterSpec::v100(1, 4),
        )
    }

    #[test]
    fn dp_finds_valid_config() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = DpSearch::new(&m, &c, &db, DpOptions::default())
            .run()
            .expect("dp finds config");
        assert!(validate(&r.config, &m, &c).is_ok());
        assert!(!r.oom);
        assert!(r.explored > 100);
    }

    #[test]
    fn explored_count_scales_with_model() {
        let c = ClusterSpec::v100(1, 4);
        let small = gpt3_custom("s", 2, 256, 4, 128, 1000, 16);
        let large = gpt3_custom("l", 4, 256, 4, 128, 1000, 16);
        let dbs = ProfileDb::build(&small, &c);
        let dbl = ProfileDb::build(&large, &c);
        let rs = DpSearch::new(&small, &c, &dbs, DpOptions::default())
            .run()
            .expect("small");
        let rl = DpSearch::new(&large, &c, &dbl, DpOptions::default())
            .run()
            .expect("large");
        assert!(rl.explored > 2 * rs.explored);
    }

    #[test]
    fn dp_is_deterministic() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let a = DpSearch::new(&m, &c, &db, DpOptions::default())
            .run()
            .expect("a");
        let b = DpSearch::new(&m, &c, &db, DpOptions::default())
            .run()
            .expect("b");
        assert_eq!(a.config.semantic_hash(), b.config.semantic_hash());
        assert_eq!(a.explored, b.explored);
    }

    #[test]
    fn ops_per_stage_prune_respected() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = DpSearch::new(
            &m,
            &c,
            &db,
            DpOptions {
                max_ops_per_stage: 8,
                ..DpOptions::default()
            },
        )
        .run()
        .expect("dp runs");
        assert!(r.config.stages().iter().all(|s| s.num_ops() <= 8));
    }
}
