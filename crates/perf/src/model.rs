//! The performance-model implementation.

use crate::estimate::{ConfigEstimate, StageEstimate};
use crate::grid::CostGrid;
use aceso_cluster::{ClusterSpec, Collective, CommGroup};
use aceso_config::validate::validate;
use aceso_config::{ConfigError, OpParallel, ParallelConfig};
use aceso_model::{Layout, ModelGraph, Operator, PartitionSpec};
use aceso_profile::ProfileDb;
use std::sync::Arc;

/// Deliberate pessimism of the reserved-memory estimate (§3.3): the max
/// per-op working set is tripled and a fixed CUDA-context/allocator-pool
/// term added. "Given the intricacy of the memory allocator and the risk
/// of underestimating memory consumption … we opt to overestimate."
const RESERVED_MULTIPLIER: u64 = 3;
/// Fixed per-device framework/context overhead assumed by the estimate.
const CONTEXT_BYTES: u64 = 1 << 30;

/// Profile-driven analytic performance model for one (model, cluster) pair.
///
/// A plain value: it borrows its inputs, shares its one derived table,
/// and counts nothing, so one model is built per search and shared (by
/// reference or by clone, a pointer copy) across its stage-count threads.
#[derive(Clone)]
pub struct PerfModel<'a> {
    model: &'a ModelGraph,
    cluster: &'a ClusterSpec,
    db: &'a ProfileDb,
    /// Per-op cost records (bit-identical fast path over `db`).
    grid: Arc<CostGrid>,
}

/// Effective layout of a tensor: sharding only exists when `tp > 1`.
fn effective_layout(layout: Layout, tp: u32) -> Layout {
    if tp > 1 {
        layout
    } else {
        Layout::Full
    }
}

/// Data-parallel sync payload per `(tp, dp)` mesh, kept sorted by mesh so
/// `dp_sync` adds its ring times in ascending key order. Payloads are
/// exact integer sums, so the order of `add` calls does not matter.
#[derive(Default)]
struct Buckets(Vec<((u32, u32), u64)>);

impl Buckets {
    fn add(&mut self, mesh: (u32, u32), bytes: u64) {
        match self.0.binary_search_by_key(&mesh, |&(k, _)| k) {
            Ok(i) => self.0[i].1 += bytes,
            Err(i) => self.0.insert(i, (mesh, bytes)),
        }
    }
}

impl<'a> PerfModel<'a> {
    /// Creates a performance model over a profiled database.
    pub fn new(model: &'a ModelGraph, cluster: &'a ClusterSpec, db: &'a ProfileDb) -> Self {
        Self {
            model,
            cluster,
            db,
            grid: Arc::new(CostGrid::build(model, cluster, db)),
        }
    }

    /// The model being evaluated.
    pub fn model(&self) -> &ModelGraph {
        self.model
    }

    /// The cluster being evaluated against.
    pub fn cluster(&self) -> &ClusterSpec {
        self.cluster
    }

    /// The underlying profile database.
    pub fn db(&self) -> &ProfileDb {
        self.db
    }

    /// Validates and evaluates a configuration.
    pub fn evaluate(&self, config: &ParallelConfig) -> Result<ConfigEstimate, ConfigError> {
        validate(config, self.model, self.cluster)?;
        Ok(self.evaluate_unchecked(config))
    }

    /// Evaluates a configuration assumed to be structurally valid.
    ///
    /// The multi-hop search validates once per primitive application and
    /// then scores many neighbours through this entry point. Every stage
    /// is estimated from scratch, and nothing is counted: counted
    /// evaluations go through [`crate::CachedEvaluator`].
    pub fn evaluate_unchecked(&self, config: &ParallelConfig) -> ConfigEstimate {
        let p = config.num_stages();
        let mut stages: Vec<StageEstimate> = Vec::with_capacity(p);
        for i in 0..p {
            stages.push(self.stage_with_boundaries(config, i));
        }
        self.assemble(config, stages)
    }

    /// One stage's breakdown with its boundary p2p folded in — the
    /// memoizable unit of evaluation. Everything here depends only on the
    /// stage's content, its first global device id, the predecessor's
    /// trailing data-parallel degree and whether a successor exists (the
    /// [`crate::CachedEvaluator`] cache key); position-dependent fields
    /// (`in_flight`, `mem_total`, `stage_time`) are assigned by
    /// [`Self::assemble`].
    pub(crate) fn stage_with_boundaries(&self, config: &ParallelConfig, i: usize) -> StageEstimate {
        let p = config.num_stages();
        let range = config.device_range(i);
        let mut est = self.stage_breakdown(config, i);

        // Boundary p2p with the next stage: activations forward,
        // gradients backward; both endpoints spend the transfer time.
        if i + 1 < p {
            let next_range = config.device_range(i + 1);
            let t = self.boundary_p2p(config, i, range.end() - 1, next_range.start);
            est.comm_fwd += t;
            est.comm_bwd += t;
        }
        if i > 0 {
            let prev_range = config.device_range(i - 1);
            let t = self.boundary_p2p(config, i - 1, prev_range.end() - 1, range.start);
            est.comm_fwd += t;
            est.comm_bwd += t;
        }
        est
    }

    /// Recombines per-stage estimates into the configuration-level
    /// prediction: assigns the position-dependent fields, runs the Eq. 2
    /// roll-up and the max scans. Shared by the full and the incremental
    /// path, so both produce bit-identical [`ConfigEstimate`]s from equal
    /// inputs (the floating-point summation order is fixed: stage order).
    pub(crate) fn assemble(
        &self,
        config: &ParallelConfig,
        mut stages: Vec<StageEstimate>,
    ) -> ConfigEstimate {
        let p = config.num_stages();
        let n_mb = config.num_microbatches(self.model.global_batch);
        for (i, s) in stages.iter_mut().enumerate() {
            s.in_flight = p - i;
            s.mem_total =
                s.mem_params + s.mem_opt + s.mem_act_per_mb * s.in_flight as u64 + s.mem_reserved;
        }

        // Eq. 2: per-stage time = pipeline warmup (one microbatch's forward
        // through all stages) + N steady periods + cooldown (backward
        // through all stages).
        let warmup: f64 = stages.iter().map(|s| s.comp_fwd + s.comm_fwd).sum();
        let cooldown: f64 = stages.iter().map(|s| s.comp_bwd + s.comm_bwd).sum();
        for s in &mut stages {
            s.stage_time = warmup + n_mb as f64 * s.steady_per_mb() + cooldown;
        }

        let mut slowest = 0usize;
        let mut iteration_time = 0.0f64;
        let mut max_memory = 0u64;
        let mut max_memory_stage = 0usize;
        for (i, s) in stages.iter().enumerate() {
            let t = s.stage_time + s.dp_sync;
            if t > iteration_time {
                iteration_time = t;
                slowest = i;
            }
            if s.mem_total > max_memory {
                max_memory = s.mem_total;
                max_memory_stage = i;
            }
        }

        ConfigEstimate {
            stages,
            num_microbatches: n_mb,
            iteration_time,
            slowest_stage: slowest,
            max_memory,
            max_memory_stage,
            mem_capacity: self.cluster.device.mem_bytes,
        }
    }

    /// Per-microbatch compute/comm and memory of one stage, *excluding*
    /// boundary p2p and the Eq. 2 roll-up (`stage_time` is left 0 and
    /// `mem_total` unassembled). The runtime simulator composes these raw
    /// ingredients with a true event-driven 1F1B schedule.
    pub fn stage_breakdown(&self, config: &ParallelConfig, stage_idx: usize) -> StageEstimate {
        let stage = &config.stages()[stage_idx];
        let range = config.device_range(stage_idx);
        let m = config.microbatch as u64;
        let act_bytes = self.model.precision.bytes();
        // Parameters and gradients both live at model precision.
        let param_bytes = 2 * act_bytes;
        let opt_bytes = self.model.precision.optimizer_bytes();

        let mut est = StageEstimate {
            comp_fwd: 0.0,
            comp_bwd: 0.0,
            comm_fwd: 0.0,
            comm_bwd: 0.0,
            dp_sync: 0.0,
            mem_params: 0,
            mem_opt: 0,
            mem_act_per_mb: 0,
            in_flight: 1,
            mem_reserved: 0,
            mem_total: 0,
            stage_time: 0.0,
        };
        // Gradient-sync and ZeRO-1 parameter all-gather payloads per mesh.
        let mut grad_buckets = Buckets::default();
        let mut zero_buckets = Buckets::default();
        // The previous op: its global index, partition dim and settings.
        let mut prev: Option<(usize, usize, OpParallel)> = None;

        // The ops are walked as runs of equal settings. What a run shares
        // (batch share, tp group, grid key, gradient payload) is derived
        // once per run; every f64 term is still added per op, in op
        // order, so each sum is the value the per-op fold gave.
        let mut start = 0;
        while start < stage.ops.len() {
            let para = stage.ops[start];
            let mut end = start + 1;
            while end < stage.ops.len() && stage.ops[end] == para {
                end += 1;
            }
            let dim = usize::from(para.dim_index);
            let per_dev_batch = m / u64::from(para.dp);
            assert!(per_dev_batch >= 1, "validation guarantees dp | microbatch");
            // The ops' cost records: grid slots at one key offset, or the
            // one fallback for keys off the grid and tp groups that span
            // nodes.
            let tp_group = CommGroup::contiguous(range.start, para.tp as usize);
            let offset = if tp_group.crosses_nodes(self.cluster) {
                None
            } else {
                self.grid.key_offset(para.tp, dim, per_dev_batch)
            };
            // Gradient-sync payload of the run: an exact integer sum, so
            // one `Buckets::add` per run gives the per-op total.
            let mut grad_bytes = 0u64;

            for j in start..end {
                let g = stage.op_start + j;
                let op = &self.model.ops[g];
                let cost = match offset.and_then(|o| self.grid.at(g, o)) {
                    Some(&cost) => cost,
                    None => {
                        self.grid
                            .compute(self.db, op, g, para.tp, dim, per_dev_batch, &tp_group)
                    }
                };

                // Compute (backward ≈ 2× forward; recompute re-runs forward).
                let f = cost.fwd;
                est.comp_fwd += f;
                est.comp_bwd += 2.0 * f + if para.recompute { f } else { 0.0 };

                // Tensor-parallel collectives.
                if para.tp > 1 {
                    est.comm_fwd += cost.tp_fwd;
                    est.comm_bwd += cost.tp_bwd + if para.recompute { cost.tp_fwd } else { 0.0 };
                }

                // Resharding against the previous op in the stage (§4.2's
                // all-gather between tp/dp concurrency changes). Between
                // two ops with tp ≤ 1 and equal dp, `reshard_time` is
                // exactly 0.0: both layouts are `Full`, so nothing is
                // gathered, and no samples move. The comm sums start at
                // +0.0 and only add non-negative terms, so adding +0.0
                // leaves every bit as it is, and the call is skipped.
                if let Some((pg, pdim, ppara)) = prev {
                    if ppara.tp > 1 || para.tp > 1 || ppara.dp != para.dp {
                        let pop = &self.model.ops[pg];
                        let t = self.reshard_time(
                            range.start,
                            pop,
                            pop.partition(pdim),
                            ppara,
                            op.partition(dim),
                            para,
                            m,
                        );
                        est.comm_fwd += t;
                        est.comm_bwd += t;
                    }
                }

                // Memory.
                let params_rank = cost.params_rank;
                est.mem_params += params_rank * param_bytes;
                // ZeRO-1 extension: optimiser states shard across the dp
                // group. Per op: the division truncates.
                if para.zero && para.dp > 1 {
                    est.mem_opt += params_rank * opt_bytes / u64::from(para.dp);
                    zero_buckets.add((para.tp, para.dp), params_rank * act_bytes);
                } else {
                    est.mem_opt += params_rank * opt_bytes;
                }
                grad_bytes += params_rank * act_bytes;
                est.mem_reserved = est
                    .mem_reserved
                    .max(RESERVED_MULTIPLIER * cost.working_set + CONTEXT_BYTES);

                // Activation stash: recomputed runs keep only the run's
                // input. Inside a settings run the previous op shares the
                // flag, so only a run's first op can start a recompute run.
                if !para.recompute {
                    est.mem_act_per_mb += cost.stash_bytes;
                } else if j == start && (j == 0 || !stage.ops[j - 1].recompute) {
                    est.mem_act_per_mb += cost.recompute_in_bytes;
                }

                prev = Some((g, dim, para));
            }
            if para.dp > 1 {
                grad_buckets.add((para.tp, para.dp), grad_bytes);
            }
            start = end;
        }

        // Data-parallel gradient sync, one ring per mesh bucket.
        for ((tp, dp), bytes) in grad_buckets.0 {
            let group = CommGroup::strided(range.start, dp as usize, tp as usize);
            est.dp_sync += self
                .db
                .collective_time(Collective::AllReduce, bytes, &group);
        }
        // ZeRO-1: each replica re-gathers the freshly updated parameters.
        for ((tp, dp), bytes) in zero_buckets.0 {
            let group = CommGroup::strided(range.start, dp as usize, tp as usize);
            est.dp_sync += self
                .db
                .collective_time(Collective::AllGather, bytes, &group);
        }
        est
    }

    /// Communication cost of moving a tensor between two consecutive ops
    /// whose parallelisms differ (layout gather + batch redistribution).
    #[allow(clippy::too_many_arguments)]
    fn reshard_time(
        &self,
        group_start: usize,
        prev_op: &Operator,
        prev_spec: &PartitionSpec,
        prev: OpParallel,
        next_spec: &PartitionSpec,
        next: OpParallel,
        microbatch: u64,
    ) -> f64 {
        let act_bytes = self.model.precision.bytes();
        let out_layout = effective_layout(prev_spec.output_layout, prev.tp);
        let in_layout = effective_layout(next_spec.input_layout, next.tp);
        let mut t = 0.0;

        // Gather when the produced sharding can't be consumed directly:
        // consumer wants it Full, or the tp degree changes.
        let sharding_mismatch =
            out_layout == Layout::Sharded && (in_layout == Layout::Full || next.tp != prev.tp);
        if sharding_mismatch {
            let replica_bytes =
                prev_op.output_elems * (microbatch / u64::from(prev.dp)) * act_bytes;
            let group = CommGroup::contiguous(group_start, prev.tp as usize);
            t += self
                .db
                .collective_time(Collective::AllGather, replica_bytes, &group);
        }

        // Batch redistribution when the data-parallel degree changes: each
        // device sheds/acquires the sample-count difference over NVLink.
        if next.dp != prev.dp {
            let per_prev = microbatch / u64::from(prev.dp);
            let per_next = microbatch / u64::from(next.dp);
            let moved = per_prev.abs_diff(per_next);
            let bytes = prev_op.output_elems * moved * act_bytes;
            t += bytes as f64 / self.cluster.nvlink_bw + self.cluster.lat_intra;
        }
        t
    }

    /// Forward p2p time of the boundary after `stage_idx` for one
    /// microbatch (the producing replica's full output tensor).
    pub fn boundary_p2p(
        &self,
        config: &ParallelConfig,
        stage_idx: usize,
        from: usize,
        to: usize,
    ) -> f64 {
        let stage = &config.stages()[stage_idx];
        let last = stage.ops.last().expect("validated stage is non-empty");
        let op = &self.model.ops[stage.op_end - 1];
        let bytes = op.output_elems
            * (config.microbatch as u64 / u64::from(last.dp))
            * self.model.precision.bytes();
        self.db.p2p_time(bytes, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_cluster::ClusterSpec;
    use aceso_config::{balanced_init, StageConfig};
    use aceso_model::zoo::{gpt3_custom, wide_resnet, WideResnetSize};

    fn setup(gpus: usize) -> (ModelGraph, ClusterSpec) {
        (
            gpt3_custom("t", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(1, gpus),
        )
    }

    fn eval(model: &ModelGraph, cluster: &ClusterSpec, config: &ParallelConfig) -> ConfigEstimate {
        let db = ProfileDb::build(model, cluster);
        let pm = PerfModel::new(model, cluster, &db);
        pm.evaluate(config).expect("valid config evaluates")
    }

    #[test]
    fn balanced_config_evaluates() {
        let (m, c) = setup(4);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let est = eval(&m, &c, &cfg);
        assert!(est.iteration_time > 0.0);
        assert_eq!(est.stages.len(), 2);
        assert!(est.num_microbatches >= 1);
        assert!(est.throughput(m.global_batch) > 0.0);
        // Earlier stages keep more in-flight microbatches.
        assert_eq!(est.stages[0].in_flight, 2);
        assert_eq!(est.stages[1].in_flight, 1);
    }

    #[test]
    fn recompute_trades_time_for_memory() {
        let (m, c) = setup(4);
        let mut cfg = balanced_init(&m, &c, 2).expect("init");
        let base = eval(&m, &c, &cfg);
        for op in &mut cfg.stage_mut(0).ops {
            op.recompute = true;
        }
        let rc = eval(&m, &c, &cfg);
        assert!(rc.stages[0].mem_act_per_mb < base.stages[0].mem_act_per_mb);
        assert!(rc.stages[0].comp_bwd > base.stages[0].comp_bwd);
        assert!((rc.stages[0].comp_fwd - base.stages[0].comp_fwd).abs() < 1e-12);
    }

    #[test]
    fn tensor_parallel_shrinks_params_adds_comm() {
        let (m, c) = setup(4);
        let n = m.len();
        let dp4 = ParallelConfig::new(
            vec![StageConfig::uniform(0, n, OpParallel::data_parallel(4))],
            4,
        );
        let tp4 = ParallelConfig::new(
            vec![StageConfig::uniform(
                0,
                n,
                OpParallel {
                    tp: 4,
                    dp: 1,
                    dim_index: 0,
                    recompute: false,
                    zero: false,
                },
            )],
            4,
        );
        let a = eval(&m, &c, &dp4);
        let b = eval(&m, &c, &tp4);
        assert!(b.stages[0].mem_params < a.stages[0].mem_params);
        assert!(b.stages[0].comm_per_mb() > a.stages[0].comm_per_mb());
        // dp pays gradient sync instead.
        assert!(a.stages[0].dp_sync > b.stages[0].dp_sync);
    }

    #[test]
    fn oom_detected_for_oversized_model() {
        // A 2.6B-param model on one 32 GB GPU cannot fit: params, grads and
        // optimiser states alone need ≈ 47 GB.
        let m = gpt3_custom("big", 32, 2560, 32, 2048, 51200, 1024);
        let c = ClusterSpec::v100(1, 1);
        let cfg = balanced_init(&m, &c, 1).expect("init");
        let est = eval(&m, &c, &cfg);
        assert!(est.oom());
        assert!(est.score() > est.iteration_time * 1000.0);
    }

    #[test]
    fn memory_eq1_components_sum() {
        let (m, c) = setup(4);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let est = eval(&m, &c, &cfg);
        for s in &est.stages {
            assert_eq!(
                s.mem_total,
                s.mem_params + s.mem_opt + s.mem_act_per_mb * s.in_flight as u64 + s.mem_reserved
            );
        }
    }

    #[test]
    fn smaller_microbatch_means_more_microbatches() {
        let (m, c) = setup(4);
        let mut cfg = balanced_init(&m, &c, 2).expect("init");
        cfg.microbatch = 4;
        let a = eval(&m, &c, &cfg);
        cfg.microbatch = 8;
        let b = eval(&m, &c, &cfg);
        assert_eq!(a.num_microbatches, 2 * b.num_microbatches);
        // Larger microbatch stashes more per in-flight microbatch.
        assert!(b.stages[0].mem_act_per_mb > a.stages[0].mem_act_per_mb);
    }

    #[test]
    fn pipeline_bottleneck_is_max_stage() {
        let (m, c) = setup(4);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let est = eval(&m, &c, &cfg);
        let max = est
            .stages
            .iter()
            .map(|s| s.stage_time + s.dp_sync)
            .fold(0.0f64, f64::max);
        assert!((est.iteration_time - max).abs() < 1e-12);
    }

    #[test]
    fn wide_resnet_evaluates() {
        let m = wide_resnet(WideResnetSize::S0_5b);
        let c = ClusterSpec::v100(1, 4);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let est = eval(&m, &c, &cfg);
        assert!(est.iteration_time > 0.0);
    }

    #[test]
    fn deterministic_evaluation() {
        let (m, c) = setup(4);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let a = eval(&m, &c, &cfg);
        let b = eval(&m, &c, &cfg);
        assert_eq!(a.iteration_time, b.iteration_time);
        assert_eq!(a.max_memory, b.max_memory);
    }

    #[test]
    fn in_stage_tp_change_charges_resharding() {
        // §4.2: altering tp/dp inside a stage needs an all-gather at the
        // seam; the model must charge communication for it.
        let (m, c) = setup(4);
        let n = m.len();
        let uniform = ParallelConfig::new(
            vec![StageConfig::uniform(
                0,
                n,
                OpParallel {
                    tp: 4,
                    dp: 1,
                    dim_index: 0,
                    recompute: false,
                    zero: false,
                },
            )],
            4,
        );
        let mut mixed = uniform.clone();
        for op in mixed.stage_mut(0).ops.iter_mut().skip(n / 2) {
            op.tp = 1;
            op.dp = 4;
        }
        let a = eval(&m, &c, &uniform);
        let b = eval(&m, &c, &mixed);
        assert!(a.stages[0].comm_per_mb() > 0.0);
        assert!(b.stages[0].comm_per_mb() > 0.0);
        assert_ne!(a.stages[0].comm_per_mb(), b.stages[0].comm_per_mb());
    }

    #[test]
    fn boundary_p2p_charged() {
        let (m, c) = setup(4);
        let cfg2 = balanced_init(&m, &c, 2).expect("init");
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let boundary = pm.boundary_p2p(&cfg2, 0, cfg2.stages()[0].gpus - 1, cfg2.stages()[0].gpus);
        assert!(boundary > 0.0);
        // Stage comm in the full evaluation includes that transfer.
        let bd = pm.stage_breakdown(&cfg2, 0);
        let full = pm.evaluate_unchecked(&cfg2);
        assert!(full.stages[0].comm_fwd >= bd.comm_fwd + boundary * 0.99);
    }
}
