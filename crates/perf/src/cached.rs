//! Incremental evaluation: per-stage memoization over the perf model.
//!
//! The search's inner loop evaluates tens of thousands of configurations,
//! but every reconfiguration primitive touches at most two stages — the
//! other stages' breakdowns are recomputed from scratch anyway. The
//! [`CachedEvaluator`] memoizes per-stage estimates keyed by stage
//! *content* plus the minimal boundary context, so scoring a neighbour
//! only re-estimates the touched stage(s) and recombines the pipeline
//! total via the same `PerfModel::assemble` arithmetic the full path
//! uses — the incremental result is **bit-identical** to a from-scratch
//! evaluation (enforced by `tests/perf_equivalence.rs`).
//!
//! ## Cache key
//!
//! A stage's breakdown-plus-boundaries depends only on:
//!
//! - the stage content: op range, device count and per-op settings
//!   (run-length hashed exactly like `ParallelConfig::semantic_hash`),
//! - the global microbatch size,
//! - the stage's first global device id (collective and p2p times depend
//!   on node crossings; device ranges are contiguous, so both boundary
//!   endpoints derive from it),
//! - the predecessor's trailing data-parallel degree (sizes the inbound
//!   boundary transfer; `0` encodes "no predecessor"), and
//! - whether a successor exists (the outbound transfer's size and
//!   endpoints already follow from the stage's own content).
//!
//! Position-dependent fields (`in_flight`, `mem_total`, `stage_time`) are
//! *not* cached — `PerfModel::assemble` assigns them on every
//! evaluation, so one cached entry serves the same stage content at any
//! pipeline position or depth.

use crate::estimate::{ConfigEstimate, StageEstimate};
use crate::model::PerfModel;
use aceso_cluster::ClusterSpec;
use aceso_config::ParallelConfig;
use aceso_model::ModelGraph;
use aceso_obs::{Counter, HistKind};
use aceso_util::FnvHasher;
use std::cell::RefCell;
use std::collections::HashMap;

/// Memo-table entry cap; the table is cleared wholesale when it fills
/// (simple, deterministic, and a search stays far below this in
/// practice).
const MEMO_CAP: usize = 1 << 20;

/// The scoring oracle interface shared by the plain [`PerfModel`] and the
/// memoizing [`CachedEvaluator`]: everything the search, fine-tuning and
/// candidate generation need from an evaluator.
pub trait Evaluator {
    /// The model being evaluated.
    fn model(&self) -> &ModelGraph;
    /// The cluster being evaluated against.
    fn cluster(&self) -> &ClusterSpec;
    /// Evaluates a configuration assumed to be structurally valid.
    fn evaluate_unchecked(&self, config: &ParallelConfig) -> ConfigEstimate;
}

impl Evaluator for PerfModel<'_> {
    fn model(&self) -> &ModelGraph {
        PerfModel::model(self)
    }
    fn cluster(&self) -> &ClusterSpec {
        PerfModel::cluster(self)
    }
    fn evaluate_unchecked(&self, config: &ParallelConfig) -> ConfigEstimate {
        PerfModel::evaluate_unchecked(self, config)
    }
}

/// Memoization key of one stage's breakdown-plus-boundaries (see the
/// module docs for why exactly these fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct StageKey {
    /// FNV over op range, device count and run-length-encoded op settings.
    content: u64,
    /// Global microbatch size.
    microbatch: usize,
    /// First global device id of the stage.
    dev_start: usize,
    /// Trailing op's `dp` of the predecessor stage; `0` = first stage.
    prev_last_dp: u32,
    /// Whether a successor stage exists.
    has_next: bool,
}

/// One exported memo-table entry: the internal stage-key fields
/// (flattened, so callers never depend on the private key type) plus the
/// estimate. Field meanings match the cache-key description in the
/// module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoEntry {
    /// FNV over op range, device count and run-length-encoded op settings.
    pub content: u64,
    /// Global microbatch size.
    pub microbatch: usize,
    /// First global device id of the stage.
    pub dev_start: usize,
    /// Trailing op's `dp` of the predecessor stage; `0` = first stage.
    pub prev_last_dp: u32,
    /// Whether a successor stage exists.
    pub has_next: bool,
    /// The memoized per-stage estimate.
    pub estimate: StageEstimate,
}

fn stage_key(config: &ParallelConfig, i: usize, dev_start: usize) -> StageKey {
    let s = &config.stages[i];
    let mut h = FnvHasher::new();
    h.write_usize(s.op_start);
    h.write_usize(s.op_end);
    h.write_usize(s.gpus);
    // Run-length encode per-op settings, mirroring `semantic_hash`.
    let mut j = 0;
    while j < s.ops.len() {
        let o = s.ops[j];
        let mut run = 1;
        while j + run < s.ops.len() && s.ops[j + run] == o {
            run += 1;
        }
        h.write_usize(run);
        h.write_u64(u64::from(o.tp));
        h.write_u64(u64::from(o.dp));
        h.write_u64(u64::from(o.dim_index));
        h.write_bool(o.recompute);
        h.write_bool(o.zero);
        j += run;
    }
    StageKey {
        content: h.finish(),
        microbatch: config.microbatch,
        dev_start,
        prev_last_dp: if i == 0 {
            0
        } else {
            config.stages[i - 1].ops.last().map_or(0, |o| o.dp)
        },
        has_next: i + 1 < config.stages.len(),
    }
}

/// A [`PerfModel`] wrapper that serves per-stage estimates from a memo
/// table. Single-threaded by design (interior mutability via `RefCell`):
/// each stage-count search thread owns its own evaluator, exactly like it
/// owns its own [`aceso_obs::Recorder`].
pub struct CachedEvaluator<'a> {
    pm: PerfModel<'a>,
    memo: RefCell<HashMap<StageKey, StageEstimate>>,
}

impl<'a> CachedEvaluator<'a> {
    /// Wraps a performance model (taking over its observability recorder,
    /// if attached).
    pub fn new(pm: PerfModel<'a>) -> Self {
        Self {
            pm,
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// The wrapped performance model.
    pub fn inner(&self) -> &PerfModel<'a> {
        &self.pm
    }

    /// Number of memoized per-stage estimates.
    pub fn memo_len(&self) -> usize {
        self.memo.borrow().len()
    }

    /// Drops every memoized estimate.
    pub fn clear(&self) {
        self.memo.borrow_mut().clear();
    }

    /// Exports the memo table as [`MemoEntry`] values in a deterministic
    /// (key-sorted) order, for checkpointing. Restoring the export with
    /// [`CachedEvaluator::import_memo`] reproduces the table exactly, so a
    /// resumed search sees the same hit/miss sequence — and therefore the
    /// same counter splits — as an uninterrupted one.
    pub fn export_memo(&self) -> Vec<MemoEntry> {
        let memo = self.memo.borrow();
        let mut entries: Vec<(StageKey, StageEstimate)> =
            memo.iter().map(|(k, v)| (*k, v.clone())).collect();
        entries.sort_by_key(|(k, _)| *k);
        entries
            .into_iter()
            .map(|(k, estimate)| MemoEntry {
                content: k.content,
                microbatch: k.microbatch,
                dev_start: k.dev_start,
                prev_last_dp: k.prev_last_dp,
                has_next: k.has_next,
                estimate,
            })
            .collect()
    }

    /// Replaces the memo table with previously exported entries.
    pub fn import_memo(&self, entries: Vec<MemoEntry>) {
        let mut memo = self.memo.borrow_mut();
        memo.clear();
        for e in entries {
            memo.insert(
                StageKey {
                    content: e.content,
                    microbatch: e.microbatch,
                    dev_start: e.dev_start,
                    prev_last_dp: e.prev_last_dp,
                    has_next: e.has_next,
                },
                e.estimate,
            );
        }
    }

    /// The evaluation body; returns the estimate and whether at least one
    /// stage was served from the memo table.
    fn evaluate_cached(&self, config: &ParallelConfig) -> (ConfigEstimate, bool) {
        let p = config.num_stages();
        let mut stages: Vec<StageEstimate> = Vec::with_capacity(p);
        let mut hits = 0usize;
        let mut dev_start = 0usize;
        for i in 0..p {
            let key = stage_key(config, i, dev_start);
            let cached = self.memo.borrow().get(&key).cloned();
            match cached {
                Some(e) => {
                    hits += 1;
                    stages.push(e);
                }
                None => {
                    let e = self.pm.stage_with_boundaries(config, i);
                    let mut memo = self.memo.borrow_mut();
                    if memo.len() >= MEMO_CAP {
                        memo.clear();
                    }
                    memo.insert(key, e.clone());
                    stages.push(e);
                }
            }
            dev_start += config.stages[i].gpus;
        }
        (self.pm.assemble(config, stages), hits > 0)
    }
}

impl Evaluator for CachedEvaluator<'_> {
    fn model(&self) -> &ModelGraph {
        self.pm.model()
    }
    fn cluster(&self) -> &ClusterSpec {
        self.pm.cluster()
    }
    fn evaluate_unchecked(&self, config: &ParallelConfig) -> ConfigEstimate {
        match self.pm.recorder() {
            Some(rec) if rec.enabled() => {
                let start = std::time::Instant::now();
                let (est, hit) = self.evaluate_cached(config);
                rec.observe(HistKind::EvalLatencyUs, start.elapsed().as_secs_f64() * 1e6);
                rec.count(Counter::PerfEvaluations);
                rec.count(if hit {
                    Counter::PerfIncrementalHits
                } else {
                    Counter::PerfFullEvals
                });
                if est.oom() {
                    rec.count(Counter::OomPredictions);
                }
                est
            }
            _ => self.evaluate_cached(config).0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_cluster::ClusterSpec;
    use aceso_config::{balanced_init, OpParallel, StageConfig};
    use aceso_model::zoo::gpt3_custom;
    use aceso_profile::ProfileDb;

    fn setup() -> (ModelGraph, ClusterSpec) {
        (
            gpt3_custom("t", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(1, 4),
        )
    }

    fn assert_bit_identical(a: &ConfigEstimate, b: &ConfigEstimate) {
        assert_eq!(a.iteration_time.to_bits(), b.iteration_time.to_bits());
        assert_eq!(a.max_memory, b.max_memory);
        assert_eq!(a.slowest_stage, b.slowest_stage);
        assert_eq!(a.stages.len(), b.stages.len());
        for (x, y) in a.stages.iter().zip(&b.stages) {
            assert_eq!(x.comp_fwd.to_bits(), y.comp_fwd.to_bits());
            assert_eq!(x.comp_bwd.to_bits(), y.comp_bwd.to_bits());
            assert_eq!(x.comm_fwd.to_bits(), y.comm_fwd.to_bits());
            assert_eq!(x.comm_bwd.to_bits(), y.comm_bwd.to_bits());
            assert_eq!(x.dp_sync.to_bits(), y.dp_sync.to_bits());
            assert_eq!(x.stage_time.to_bits(), y.stage_time.to_bits());
            assert_eq!(x.mem_total, y.mem_total);
            assert_eq!(x.in_flight, y.in_flight);
        }
    }

    #[test]
    fn cold_then_warm_matches_full() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let full = pm.evaluate_unchecked(&balanced_init(&m, &c, 2).expect("init"));
        let ev = CachedEvaluator::new(PerfModel::new(&m, &c, &db));
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let cold = ev.evaluate_unchecked(&cfg);
        assert!(ev.memo_len() > 0);
        let warm = ev.evaluate_unchecked(&cfg);
        assert_bit_identical(&full, &cold);
        assert_bit_identical(&full, &warm);
    }

    #[test]
    fn single_stage_change_reuses_untouched_stages() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let ev = CachedEvaluator::new(PerfModel::new(&m, &c, &db));
        let cfg = balanced_init(&m, &c, 4).expect("init");
        ev.evaluate_unchecked(&cfg);
        let before = ev.memo_len();
        // Flip recompute in the last stage: stages 0..p-2 are unchanged
        // (content, device start, boundary context all identical).
        let mut touched = cfg.clone();
        for op in &mut touched.stages[3].ops {
            op.recompute = true;
        }
        ev.evaluate_unchecked(&touched);
        // Only the touched stage gains a memo entry.
        assert_eq!(ev.memo_len(), before + 1);
        // And the result still matches a from-scratch evaluation.
        let pm = PerfModel::new(&m, &c, &db);
        assert_bit_identical(
            &pm.evaluate_unchecked(&touched),
            &ev.evaluate_unchecked(&touched),
        );
    }

    #[test]
    fn predecessor_dp_change_invalidates_successor() {
        // Changing the trailing dp of stage 0 resizes the boundary
        // transfer into stage 1, so stage 1's cached estimate must not be
        // reused.
        let (m, c) = setup();
        let n = m.len();
        // Both variants use 2 GPUs per stage, so stage 1's content and
        // device start are identical — only the inbound boundary differs.
        let mk = |para0: OpParallel| ParallelConfig {
            stages: vec![
                StageConfig::uniform(0, n / 2, para0),
                StageConfig::uniform(n / 2, n, OpParallel::data_parallel(2)),
            ],
            microbatch: 8,
        };
        let db = ProfileDb::build(&m, &c);
        let ev = CachedEvaluator::new(PerfModel::new(&m, &c, &db));
        let pm = PerfModel::new(&m, &c, &db);
        let a = mk(OpParallel::data_parallel(2));
        let b = mk(OpParallel {
            tp: 2,
            dp: 1,
            dim_index: 0,
            recompute: false,
            zero: false,
        });
        ev.evaluate_unchecked(&a);
        assert_bit_identical(&pm.evaluate_unchecked(&b), &ev.evaluate_unchecked(&b));
    }

    #[test]
    fn clear_resets_memo() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let ev = CachedEvaluator::new(PerfModel::new(&m, &c, &db));
        ev.evaluate_unchecked(&balanced_init(&m, &c, 2).expect("init"));
        assert!(ev.memo_len() > 0);
        ev.clear();
        assert_eq!(ev.memo_len(), 0);
    }

    #[test]
    fn memo_export_import_round_trips() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let ev = CachedEvaluator::new(PerfModel::new(&m, &c, &db));
        ev.evaluate_unchecked(&balanced_init(&m, &c, 2).expect("init"));
        ev.evaluate_unchecked(&balanced_init(&m, &c, 4).expect("init"));
        let exported = ev.export_memo();
        assert_eq!(exported.len(), ev.memo_len());
        // Deterministic order: exporting twice yields identical sequences.
        assert_eq!(exported, ev.export_memo());
        let other = CachedEvaluator::new(PerfModel::new(&m, &c, &db));
        other.import_memo(exported.clone());
        assert_eq!(other.memo_len(), exported.len());
        assert_eq!(other.export_memo(), exported);
        // Imported entries actually serve lookups: re-evaluating a seen
        // configuration adds no new entries.
        other.evaluate_unchecked(&balanced_init(&m, &c, 2).expect("init"));
        assert_eq!(other.memo_len(), exported.len());
    }

    #[test]
    fn trait_object_free_generics_work_for_both() {
        fn score<E: Evaluator>(ev: &E, cfg: &ParallelConfig) -> f64 {
            ev.evaluate_unchecked(cfg).score()
        }
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let pm = PerfModel::new(&m, &c, &db);
        let ev = CachedEvaluator::new(PerfModel::new(&m, &c, &db));
        assert_eq!(score(&pm, &cfg).to_bits(), score(&ev, &cfg).to_bits());
    }
}
