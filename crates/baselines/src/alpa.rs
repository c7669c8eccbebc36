//! Alpa-like two-level automated search.
//!
//! Alpa (OSDI '22) splits the problem into an *inter-op* pass — a dynamic
//! program assigning contiguous operator groups to submeshes — and an
//! *intra-op* pass choosing each stage's partition plan. This
//! reimplementation keeps the three simplifications the paper credits for
//! Aceso's advantage (§5.1):
//!
//! 1. operators are coarsened into `l` uniform layer groups (grid over
//!    `l`), so stages are built from groups, never single operators;
//! 2. the intra-op plan is chosen by a *communication-only* estimator
//!    (computation-time differences between plans are ignored) and is
//!    uniform across the stage;
//! 3. recomputation is model-global and grid-searched (`recomp ∈ {off,
//!    on}`), never per-operator.
//!
//! Search cost model: like the real Alpa, every distinct (stage range ×
//! submesh) candidate triggers an XLA-style compile + on-demand profile;
//! we account a modelled `compile_seconds_per_stage` for each. Beyond
//! `max_layers` model layers the compile step fails, reproducing the
//! behaviour Fig. 9 reports for >64-layer models.

use crate::BaselineResult;
use aceso_cluster::{ClusterSpec, Collective, CommGroup};
use aceso_config::init::split_ops_weighted;
use aceso_config::{OpParallel, ParallelConfig, StageConfig};
use aceso_model::ModelGraph;
use aceso_perf::PerfModel;
use aceso_profile::ProfileDb;
use std::collections::HashMap;
use std::time::Instant;

/// Alpa search options.
#[derive(Debug, Clone)]
pub struct AlpaOptions {
    /// Layer-group counts to grid over (`l`).
    pub layer_group_counts: Vec<usize>,
    /// Largest global microbatch to try.
    pub max_microbatch: usize,
    /// Modelled XLA compile + profile cost per distinct stage candidate,
    /// per 8 operators it contains (XLA compile time grows with the
    /// stage's op count, which is what makes the real Alpa's search cost
    /// scale linearly with model depth — Fig. 9).
    pub compile_seconds_per_stage: f64,
    /// Model layer count beyond which compilation fails (Fig. 9 observes
    /// 64 on the real system).
    pub max_layers: usize,
}

impl Default for AlpaOptions {
    fn default() -> Self {
        Self {
            layer_group_counts: vec![4, 8, 16],
            max_microbatch: 512,
            compile_seconds_per_stage: 0.25,
            max_layers: 64,
        }
    }
}

/// Alpa failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlpaError {
    /// XLA compilation blow-up on very deep models (Exp#3).
    CompileFailure {
        /// Approximate layer count of the model.
        layers: usize,
    },
    /// No grid point produced a valid configuration.
    NoConfig,
}

impl std::fmt::Display for AlpaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlpaError::CompileFailure { layers } => {
                write!(f, "XLA compilation failed for {layers}-layer model")
            }
            AlpaError::NoConfig => write!(f, "no valid configuration in the grid"),
        }
    }
}

impl std::error::Error for AlpaError {}

/// The Alpa-like searcher.
pub struct AlpaSearch<'a> {
    model: &'a ModelGraph,
    cluster: &'a ClusterSpec,
    db: &'a ProfileDb,
    options: AlpaOptions,
}

/// Cached stage candidate: chosen plan and its costs.
#[derive(Debug, Clone, Copy)]
struct StagePlan {
    tp: u32,
    /// Steady-state seconds per microbatch (compute + comm).
    steady: f64,
    /// Whether the optimistic memory check passes.
    mem_ok: bool,
}

impl<'a> AlpaSearch<'a> {
    /// Creates a searcher.
    pub fn new(
        model: &'a ModelGraph,
        cluster: &'a ClusterSpec,
        db: &'a ProfileDb,
        options: AlpaOptions,
    ) -> Self {
        Self {
            model,
            cluster,
            db,
            options,
        }
    }

    /// Approximate transformer-layer count of the model (8 ops per layer).
    fn approx_layers(&self) -> usize {
        (self.model.len() / 8).max(1)
    }

    /// Runs the two-level search.
    pub fn run(&self) -> Result<BaselineResult, AlpaError> {
        let layers = self.approx_layers();
        if layers > self.options.max_layers {
            return Err(AlpaError::CompileFailure { layers });
        }
        let start = Instant::now();
        let pm = PerfModel::new(self.model, self.cluster, self.db);
        let total = self.cluster.total_gpus();
        let meshes: Vec<usize> = (0..)
            .map(|i| 1usize << i)
            .take_while(|&m| m <= total)
            .collect();

        let mut best: Option<BaselineResult> = None;
        let mut explored = 0usize;
        let mut compiled_stages = 0usize;

        for &l in &self.options.layer_group_counts {
            let l = l.min(self.model.len());
            if l == 0 {
                continue;
            }
            let groups = split_ops_weighted(self.model, &vec![1.0; l]);
            let mut mbs = 1usize;
            while mbs <= self.options.max_microbatch.min(self.model.global_batch) {
                if !self.model.global_batch.is_multiple_of(mbs) {
                    mbs *= 2;
                    continue;
                }
                for recompute in [false, true] {
                    let mut cache: HashMap<(usize, usize, usize), Option<StagePlan>> =
                        HashMap::new();
                    let plan = self.inter_op_dp(
                        &groups,
                        &meshes,
                        mbs,
                        recompute,
                        &mut cache,
                        &mut compiled_stages,
                    );
                    explored += cache.len();
                    let Some(stage_list) = plan else { continue };
                    let Some(cfg) = self.build_config(&groups, &stage_list, mbs, recompute) else {
                        continue;
                    };
                    let Ok(est) = pm.evaluate(&cfg) else { continue };
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
                mbs *= 2;
            }
        }

        let mut best = best.ok_or(AlpaError::NoConfig)?;
        best.explored = explored;
        best.wall_time = start.elapsed();
        best.modeled_seconds = start.elapsed().as_secs_f64()
            + compiled_stages as f64 * self.options.compile_seconds_per_stage;
        Ok(best)
    }

    /// Inter-op pass: minimax DP over (group index, gpus remaining).
    /// Returns the stage list as `(group_start, group_end, mesh)` triples.
    #[allow(clippy::too_many_arguments)] // DP state threading is clearer flat.
    fn inter_op_dp(
        &self,
        groups: &[(usize, usize)],
        meshes: &[usize],
        mbs: usize,
        recompute: bool,
        cache: &mut HashMap<(usize, usize, usize), Option<StagePlan>>,
        compiled: &mut usize,
    ) -> Option<Vec<(usize, usize, usize)>> {
        let l = groups.len();
        let total = self.cluster.total_gpus();
        // memo[(i, r)] = (best minimax cost, k, mesh)
        let mut memo: HashMap<(usize, usize), (f64, usize, usize)> = HashMap::new();

        fn solve(
            this: &AlpaSearch<'_>,
            i: usize,
            r: usize,
            l: usize,
            groups: &[(usize, usize)],
            meshes: &[usize],
            mbs: usize,
            recompute: bool,
            cache: &mut HashMap<(usize, usize, usize), Option<StagePlan>>,
            compiled: &mut usize,
            memo: &mut HashMap<(usize, usize), (f64, usize, usize)>,
        ) -> f64 {
            if i == l {
                return if r == 0 { 0.0 } else { f64::INFINITY };
            }
            if r == 0 {
                return f64::INFINITY;
            }
            if let Some(&(c, _, _)) = memo.get(&(i, r)) {
                return c;
            }
            let mut best = (f64::INFINITY, 0usize, 0usize);
            for k in 1..=(l - i) {
                for &m in meshes {
                    if m > r {
                        break;
                    }
                    let plan = *cache.entry((i, i + k, m)).or_insert_with(|| {
                        // One XLA compile per stage candidate, costed by
                        // its operator count (≈ per layer).
                        let ops = groups[i + k - 1].1 - groups[i].0;
                        *compiled += (ops / 8).max(1);
                        this.intra_op_plan(groups[i].0, groups[i + k - 1].1, m, mbs, recompute)
                    });
                    let Some(plan) = plan else { continue };
                    if !plan.mem_ok {
                        continue;
                    }
                    let rest = solve(
                        this,
                        i + k,
                        r - m,
                        l,
                        groups,
                        meshes,
                        mbs,
                        recompute,
                        cache,
                        compiled,
                        memo,
                    );
                    let cost = plan.steady.max(rest);
                    if cost < best.0 {
                        best = (cost, k, m);
                    }
                }
            }
            memo.insert((i, r), best);
            best.0
        }

        let c = solve(
            self, 0, total, l, groups, meshes, mbs, recompute, cache, compiled, &mut memo,
        );
        if !c.is_finite() {
            return None;
        }
        // Reconstruct.
        let mut out = Vec::new();
        let (mut i, mut r) = (0usize, total);
        while i < l {
            let &(_, k, m) = memo.get(&(i, r))?;
            if k == 0 {
                return None;
            }
            out.push((i, i + k, m));
            i += k;
            r -= m;
        }
        Some(out)
    }

    /// Intra-op pass with Alpa's simplified estimator: among the uniform
    /// `(tp, dp)` factorisations of `mesh`, pick the plan with the least
    /// *communication* (computation differences between plans ignored).
    /// The returned steady time does include compute — Alpa profiles the
    /// chosen stage — but the *choice* never sees it.
    fn intra_op_plan(
        &self,
        op_start: usize,
        op_end: usize,
        mesh: usize,
        mbs: usize,
        recompute: bool,
    ) -> Option<StagePlan> {
        let mut best: Option<(f64, StagePlan)> = None;
        let mut tp = 1u32;
        while tp as usize <= mesh {
            let dp = (mesh / tp as usize) as u32;
            if mbs.is_multiple_of(dp as usize) {
                if let Some((comm, plan)) =
                    self.stage_cost(op_start, op_end, mesh, tp, dp, mbs, recompute)
                {
                    if best.as_ref().is_none_or(|(c, _)| comm < *c) {
                        best = Some((comm, plan));
                    }
                }
            }
            tp *= 2;
        }
        best.map(|(_, p)| p)
    }

    /// Costs one uniform stage candidate. Returns `(comm_only, plan)`.
    #[allow(clippy::too_many_arguments)]
    fn stage_cost(
        &self,
        op_start: usize,
        op_end: usize,
        mesh: usize,
        tp: u32,
        dp: u32,
        mbs: usize,
        recompute: bool,
    ) -> Option<(f64, StagePlan)> {
        let act_bytes = self.model.precision.bytes();
        let param_bytes = 2 * act_bytes;
        let opt_bytes = self.model.precision.optimizer_bytes();
        let capacity = self.cluster.device.mem_bytes;
        // Representative placement at GPU 0 (stages are placed later).
        let tp_group = CommGroup::contiguous(0, tp as usize);
        let dp_group = CommGroup::strided(0, dp as usize, tp as usize);

        let mut compute = 0.0f64;
        let mut comm = 0.0f64;
        let mut grad_bytes = 0u64;
        let mut mem = 0u64;
        for g in op_start..op_end {
            let op = &self.model.ops[g];
            let op_tp = clamp_tp(tp, op.tp_limit, mesh as u32);
            let op_dp = mesh as u32 / op_tp;
            if !mbs.is_multiple_of(op_dp as usize) {
                return None;
            }
            let per_dev = (mbs / op_dp as usize) as u64;
            let f = self.db.op_fwd_time(op, op_tp, 0, per_dev);
            compute += f * if recompute { 4.0 } else { 3.0 };
            let spec = op.partition(0);
            if op_tp > 1 {
                let fwd = spec.fwd_comm_elems * per_dev * act_bytes;
                let bwd = spec.bwd_comm_elems * per_dev * act_bytes;
                comm += self
                    .db
                    .collective_time(Collective::AllReduce, fwd, &tp_group)
                    * if recompute { 2.0 } else { 1.0 };
                comm += self
                    .db
                    .collective_time(Collective::AllReduce, bwd, &tp_group);
            }
            let params_rank = op.params_per_rank(0, op_tp);
            grad_bytes += params_rank * act_bytes;
            mem += params_rank * (param_bytes + opt_bytes);
            if !recompute {
                mem += op.stash_per_rank(0, op_tp) * per_dev * act_bytes;
            }
        }
        if dp > 1 {
            comm += self
                .db
                .collective_time(Collective::AllReduce, grad_bytes, &dp_group);
        }
        Some((
            comm,
            StagePlan {
                tp,
                steady: compute + comm,
                // Optimistic single-in-flight check; the full evaluation of
                // the final configuration applies Eq. 1 properly.
                mem_ok: mem <= capacity,
            },
        ))
    }

    /// Materialises the DP's stage list into a full configuration.
    fn build_config(
        &self,
        groups: &[(usize, usize)],
        stages: &[(usize, usize, usize)],
        mbs: usize,
        recompute: bool,
    ) -> Option<ParallelConfig> {
        let mut out = Vec::with_capacity(stages.len());
        for &(gi, gj, mesh) in stages {
            let op_start = groups[gi].0;
            let op_end = groups[gj - 1].1;
            let plan = self.intra_op_plan(op_start, op_end, mesh, mbs, recompute)?;
            let ops = (op_start..op_end)
                .map(|g| {
                    let limit = self.model.ops[g].tp_limit;
                    let op_tp = clamp_tp(plan.tp, limit, mesh as u32);
                    OpParallel {
                        tp: op_tp,
                        dp: mesh as u32 / op_tp,
                        dim_index: 0,
                        recompute,
                        zero: false,
                    }
                })
                .collect();
            out.push(StageConfig {
                op_start,
                op_end,
                gpus: mesh,
                ops,
            });
        }
        Some(ParallelConfig::new(out, mbs))
    }
}

/// Largest power of two ≤ `want` that the op accepts and divides `gpus`.
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
    use aceso_model::zoo::{deepnet, gpt3_custom};

    fn setup() -> (ModelGraph, ClusterSpec) {
        (
            gpt3_custom("t", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(1, 8),
        )
    }

    fn opts() -> AlpaOptions {
        AlpaOptions {
            layer_group_counts: vec![2, 4],
            max_microbatch: 64,
            ..AlpaOptions::default()
        }
    }

    #[test]
    fn finds_valid_config() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = AlpaSearch::new(&m, &c, &db, opts())
            .run()
            .expect("alpa runs");
        assert!(validate(&r.config, &m, &c).is_ok());
        assert!(!r.oom);
        assert!(r.explored > 0);
        assert!(r.modeled_seconds > r.wall_time.as_secs_f64());
    }

    #[test]
    fn stage_plans_are_uniform_and_recompute_global() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = AlpaSearch::new(&m, &c, &db, opts())
            .run()
            .expect("alpa runs");
        for s in r.config.stages() {
            let rc = s.num_recomputed();
            assert!(rc == 0 || rc == s.num_ops());
        }
    }

    #[test]
    fn compile_failure_beyond_64_layers() {
        let m = deepnet(128);
        let c = ClusterSpec::v100(1, 8);
        let db = ProfileDb::build(&m, &c);
        let r = AlpaSearch::new(&m, &c, &db, AlpaOptions::default()).run();
        assert!(matches!(r, Err(AlpaError::CompileFailure { .. })));
    }

    #[test]
    fn succeeds_at_64_layers() {
        let m = deepnet(64);
        let c = ClusterSpec::v100(1, 8);
        let db = ProfileDb::build(&m, &c);
        let r = AlpaSearch::new(
            &m,
            &c,
            &db,
            AlpaOptions {
                layer_group_counts: vec![8],
                max_microbatch: 16,
                ..AlpaOptions::default()
            },
        )
        .run();
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn clamp_tp_behaviour() {
        assert_eq!(clamp_tp(8, 4, 8), 4);
        assert_eq!(clamp_tp(8, 64, 8), 8);
        assert_eq!(clamp_tp(1, 64, 8), 1);
    }

    #[test]
    fn deterministic_and_modeled_cost_scales_with_depth() {
        let c = ClusterSpec::v100(1, 4);
        let shallow = gpt3_custom("s", 4, 256, 4, 128, 8192, 32);
        let deep = gpt3_custom("d", 16, 256, 4, 128, 8192, 32);
        let dbs = ProfileDb::build(&shallow, &c);
        let dbd = ProfileDb::build(&deep, &c);
        let o = AlpaOptions {
            layer_group_counts: vec![4],
            max_microbatch: 16,
            ..AlpaOptions::default()
        };
        let rs = AlpaSearch::new(&shallow, &c, &dbs, o.clone())
            .run()
            .expect("shallow");
        let rs2 = AlpaSearch::new(&shallow, &c, &dbs, o.clone())
            .run()
            .expect("shallow again");
        assert_eq!(rs.config.semantic_hash(), rs2.config.semantic_hash());
        let rd = AlpaSearch::new(&deep, &c, &dbd, o).run().expect("deep");
        // The XLA compile model makes cost grow with model depth (Fig. 9's
        // linear trend).
        assert!(
            rd.modeled_seconds > 1.5 * rs.modeled_seconds,
            "deep {} vs shallow {}",
            rd.modeled_seconds,
            rs.modeled_seconds
        );
    }

    #[test]
    fn wider_grid_never_worse() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let narrow = AlpaSearch::new(
            &m,
            &c,
            &db,
            AlpaOptions {
                layer_group_counts: vec![2],
                max_microbatch: 16,
                ..AlpaOptions::default()
            },
        )
        .run()
        .expect("narrow");
        let wide = AlpaSearch::new(
            &m,
            &c,
            &db,
            AlpaOptions {
                layer_group_counts: vec![2, 4, 8],
                max_microbatch: 64,
                ..AlpaOptions::default()
            },
        )
        .run()
        .expect("wide");
        assert!(wide.score <= narrow.score + 1e-9);
        assert!(wide.explored > narrow.explored);
    }
}
