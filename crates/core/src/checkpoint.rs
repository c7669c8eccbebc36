//! Versioned search checkpoints: pause a search, serialise its complete
//! per-stage state to JSON, and resume later with **bit-identical**
//! results — the resumed run's best configuration, `best_time` float
//! bits, merged event stream, and every counter equal an uninterrupted
//! run's.
//!
//! Bit-identity is only achievable because every piece of
//! nondeterministic or float-typed state is captured exactly:
//!
//! * floats are stored as `u64` **bit patterns** (`f64::to_bits`), so
//!   `NaN` payloads and the `±inf` sentinels of empty histograms
//!   survive the JSON round-trip;
//! * the visited-fingerprint set and the unexplored heap are drained in
//!   a canonical order before serialisation and rebuilt on resume —
//!   heap pop order is arrangement-independent because every entry's
//!   `(score, tie)` pair is unique;
//! * the per-thread RNG is snapshotted by internal state, not by seed;
//! * the [`CachedEvaluator`](aceso_perf::CachedEvaluator) stage memo is
//!   exported and re-imported so the incremental-vs-full evaluation
//!   counter split does not diverge on resume.
//!
//! A checkpoint is bound to its search by three fingerprints (model,
//! cluster, options) plus the metrics flag; resuming against anything
//! else fails with [`CheckpointError::Mismatch`] — callers degrade to a
//! fresh search, they never resume across incompatible inputs.

use crate::primitives::{Primitive, Resource};
use crate::search::{ScoredConfig, SearchOptions};
use crate::trace::{AcceptedConfig, ConvergencePoint, IterationRecord, SearchTrace};
use aceso_cluster::ClusterSpec;
use aceso_config::{OpParallel, ParallelConfig, StageConfig};
use aceso_model::ModelGraph;
use aceso_obs::{Event, Metrics};
use aceso_perf::MemoEntry;
use aceso_profile::ProfileDb;
use aceso_util::json::{obj, JsonError, ToJson, Value};
use aceso_util::FnvHasher;

/// Version of the checkpoint wire format. Bumped on any change to the
/// JSON shape; a daemon that finds a checkpoint with an unknown version
/// runs a fresh search instead of guessing.
///
/// History: v1 was the original format; v2 added an informational
/// worker-count field for an in-stage search pool and the
/// `search_worker_batches` counter; v3 removes that field together with
/// the pool. v4 keeps v3's shape, but a v3 spool's counters include a
/// second evaluation of every candidate the recompute fix-up left
/// unchanged, which the search no longer makes (INV-SCORE-ONCE in
/// docs/SEARCH.md); resuming one would give counters matching neither
/// version's uninterrupted run. v5 keeps v4's shape, but its saved event
/// stream is observability schema 11: no `candidate_rejected` events,
/// and each `iteration` event carries its rejection summary (a v4 spool
/// would splice per-candidate events into a v11 stream). The summary is
/// taken when the `iteration` event is emitted and slices pause only
/// between iterations, so no field holds a half-built one. Older spools
/// are not migrated: they fail with
/// [`CheckpointError::UnknownSchemaVersion`] and the daemon runs a fresh
/// search.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 5;

/// Stable fingerprint of a model's profile-relevant content: the
/// sequence of operator signatures (order-sensitively hashed — op order
/// is part of the model), precision, and global batch.
pub fn model_fingerprint(model: &ModelGraph) -> u64 {
    let mut h = FnvHasher::new();
    for op in &model.ops {
        h.write_u64(ProfileDb::op_signature(op));
    }
    h.write_bytes(
        model
            .precision
            .to_json_value()
            .to_string_compact()
            .as_bytes(),
    );
    h.write_usize(model.global_batch);
    h.finish()
}

/// Stable fingerprint of a cluster topology (its canonical JSON form).
pub fn cluster_fingerprint(cluster: &ClusterSpec) -> u64 {
    let mut h = FnvHasher::new();
    h.write_bytes(cluster.to_json_value().to_string_compact().as_bytes());
    h.finish()
}

/// Stable fingerprint of every [`SearchOptions`] field that affects the
/// deterministic result. `time_budget` and `parallel` are deliberately
/// excluded: neither changes what an unexpired search computes, and a
/// resumed search must be allowed a fresh wall-clock budget.
pub fn options_fingerprint(o: &SearchOptions) -> u64 {
    let mut h = FnvHasher::new();
    h.write_usize(o.max_hops);
    h.write_usize(o.max_iterations);
    match &o.stage_counts {
        Some(cs) => {
            h.write_bool(true);
            h.write_usize(cs.len());
            for &c in cs {
                h.write_usize(c);
            }
        }
        None => h.write_bool(false),
    }
    h.write_usize(o.top_k);
    h.write_bool(o.fine_tune);
    h.write_bool(o.use_heuristic2);
    h.write_u64(o.seed);
    h.write_usize(o.branch_limit);
    h.write_usize(o.max_bottlenecks);
    h.write_bool(o.gen_options.attach_rc);
    h.write_bool(o.gen_options.relay_moves);
    h.write_bool(o.gen_options.enable_zero);
    match &o.initial {
        Some(c) => {
            h.write_bool(true);
            h.write_u64(c.semantic_hash());
        }
        None => h.write_bool(false),
    }
    h.finish()
}

/// Maps a deserialised string back to the `&'static str` the search
/// vocabulary uses in events and metric keys: resource names, primitive
/// names, pipeline schedules, and the `"-"` no-resource placeholder.
/// Returns `None` for anything outside the vocabulary, which callers
/// surface as a shape error (and then degrade to a fresh search).
pub fn intern_obs_str(s: &str) -> Option<&'static str> {
    if s == "-" {
        return Some("-");
    }
    if let Some(r) = Resource::ALL.iter().find(|r| r.name() == s) {
        return Some(r.name());
    }
    if let Some(p) = Primitive::EXTENDED.iter().find(|p| p.name() == s) {
        return Some(p.name());
    }
    ["1f1b", "gpipe"].iter().find(|&&w| w == s).copied()
}

/// Why a checkpoint could not be loaded or resumed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Malformed JSON, or JSON of the wrong shape (including truncation).
    Json(JsonError),
    /// The checkpoint was written by an unknown (likely newer) format.
    UnknownSchemaVersion(u64),
    /// The checkpoint belongs to a different search (the named
    /// fingerprint or flag does not match).
    Mismatch(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Json(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::UnknownSchemaVersion(v) => {
                write!(
                    f,
                    "unknown checkpoint schema version {v} (this build writes \
                     {CHECKPOINT_SCHEMA_VERSION})"
                )
            }
            CheckpointError::Mismatch(what) => {
                write!(
                    f,
                    "checkpoint belongs to a different search: {what} differs"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Json(e)
    }
}

/// A configuration plus its exact score bits — the serialised form of
/// [`ScoredConfig`], kept bit-exact so resuming never re-evaluates (a
/// re-evaluation would shift the evaluation counters).
#[derive(Debug, Clone)]
pub struct CheckpointedScore {
    /// The configuration.
    pub config: ParallelConfig,
    /// `score` as `f64::to_bits`.
    pub score_bits: u64,
    /// `iteration_time` as `f64::to_bits`.
    pub iteration_time_bits: u64,
    /// Whether the prediction exceeds device memory.
    pub oom: bool,
}

impl CheckpointedScore {
    /// Captures a [`ScoredConfig`] bit-exactly.
    pub fn from_scored(s: &ScoredConfig) -> Self {
        Self {
            config: s.config.clone(),
            score_bits: s.score.to_bits(),
            iteration_time_bits: s.iteration_time.to_bits(),
            oom: s.oom,
        }
    }

    /// Restores the [`ScoredConfig`] bit-exactly.
    pub fn to_scored(&self) -> ScoredConfig {
        ScoredConfig {
            config: self.config.clone(),
            score: f64::from_bits(self.score_bits),
            iteration_time: f64::from_bits(self.iteration_time_bits),
            oom: self.oom,
        }
    }
}

/// One entry of the unexplored-configurations pool, with exact score
/// bits and the tie-break id that makes heap pop order deterministic.
#[derive(Debug, Clone)]
pub struct ParkedConfig {
    /// Heap score as `f64::to_bits`.
    pub score_bits: u64,
    /// Tie-break id (insertion order at record time).
    pub tie: u64,
    /// The parked configuration.
    pub config: ParallelConfig,
}

/// In-flight state of one stage-count sub-search (absent once the stage
/// has finished).
#[derive(Debug, Clone)]
pub struct StageProgress {
    /// The next iteration index the resumed loop will run.
    pub next_iter: usize,
    /// The configuration the loop is currently improving.
    pub current: ParallelConfig,
    /// Best configuration found so far, bit-exact.
    pub best: CheckpointedScore,
    /// Visited semantic hashes, sorted ascending (canonical order; the
    /// live `HashSet` iterates nondeterministically).
    pub visited: Vec<u64>,
    /// The unexplored heap, drained in deterministic order. Rebuilt by
    /// pushing on resume — pop order only depends on the unique
    /// `(score, tie)` pairs, not on the heap's internal arrangement.
    pub unexplored: Vec<ParkedConfig>,
    /// Configurations evaluated so far in this stage.
    pub explored: usize,
    /// Last tie-break id handed out.
    pub tie_counter: u64,
    /// Internal RNG state (not the seed — the stream must continue).
    pub rng_state: u64,
    /// The cached evaluator's stage memo, exported in canonical key
    /// order. Re-imported on resume so the incremental-hit/full-eval
    /// counter split matches an uninterrupted run.
    pub memo: Vec<MemoEntry>,
}

/// Checkpoint of one stage-count sub-search: its recorded events and
/// metrics so far, its trace, and either in-flight progress or (when
/// `done`) its final top-k pool.
#[derive(Debug, Clone)]
pub struct StageCheckpoint {
    /// Pipeline stage count this sub-search explores.
    pub stage_count: usize,
    /// Whether the sub-search has finished.
    pub done: bool,
    /// Events recorded so far (resume appends to these).
    pub events: Vec<Event>,
    /// Metrics recorded so far (resume accumulates onto these).
    pub metrics: Metrics,
    /// The trace built so far (complete when `done`).
    pub trace: SearchTrace,
    /// In-flight state; `Some` exactly when `done` is false.
    pub progress: Option<StageProgress>,
    /// Final top-k pool, bit-exact; non-empty only when `done`.
    pub tops: Vec<CheckpointedScore>,
}

/// A complete, versioned search checkpoint.
///
/// Produced by [`AcesoSearch::run_partial`](crate::search::AcesoSearch::run_partial)
/// and consumed by
/// [`AcesoSearch::resume_partial`](crate::search::AcesoSearch::resume_partial);
/// serialises to a single JSON document via [`SearchCheckpoint::to_json_string`].
#[derive(Debug, Clone)]
pub struct SearchCheckpoint {
    /// Wire-format version ([`CHECKPOINT_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// [`model_fingerprint`] of the search's model.
    pub model_fingerprint: u64,
    /// [`cluster_fingerprint`] of the search's cluster.
    pub cluster_fingerprint: u64,
    /// [`options_fingerprint`] of the search's options.
    pub options_fingerprint: u64,
    /// Whether the run records observability (must match on resume —
    /// half-recorded streams cannot be spliced).
    pub metrics: bool,
    /// Wall-clock seconds consumed by previous slices, as `f64::to_bits`
    /// (accumulated into the final `wall_time`).
    pub elapsed_secs_bits: u64,
    /// Events emitted before any stage ran (the `search_start` record).
    pub head_events: Vec<Event>,
    /// Per-stage-count checkpoints, sorted by stage count.
    pub stages: Vec<StageCheckpoint>,
}

impl SearchCheckpoint {
    /// Wall-clock seconds consumed by previous slices.
    pub fn elapsed_secs(&self) -> f64 {
        f64::from_bits(self.elapsed_secs_bits)
    }

    /// Total search iterations completed across all stage counts.
    pub fn iterations_done(&self) -> usize {
        self.stages.iter().map(|s| s.trace.iterations.len()).sum()
    }

    /// Whether every stage has finished (resuming yields the final
    /// result without any further search work).
    pub fn is_complete(&self) -> bool {
        self.stages.iter().all(|s| s.done)
    }

    /// The pause bound this checkpoint was taken under: the highest
    /// per-stage iteration index any open stage will resume at. Callers
    /// slicing a search (`resume_partial` with a fresh `pause_after`)
    /// add their step to this to schedule the next pause; `0` when every
    /// stage already finished.
    pub fn resume_bound(&self) -> usize {
        self.stages
            .iter()
            .filter_map(|s| s.progress.as_ref().map(|p| p.next_iter))
            .max()
            .unwrap_or(0)
    }

    /// Serialises to a compact single-line JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_string_compact()
    }

    /// The checkpoint as a JSON value.
    pub fn to_json_value(&self) -> Value {
        obj([
            ("schema_version", Value::UInt(self.schema_version)),
            ("model_fingerprint", Value::UInt(self.model_fingerprint)),
            ("cluster_fingerprint", Value::UInt(self.cluster_fingerprint)),
            ("options_fingerprint", Value::UInt(self.options_fingerprint)),
            ("metrics", Value::Bool(self.metrics)),
            ("elapsed_secs_bits", Value::UInt(self.elapsed_secs_bits)),
            ("head_events", events_to_json(&self.head_events)),
            (
                "stages",
                Value::Array(self.stages.iter().map(stage_to_json).collect()),
            ),
        ])
    }

    /// Parses a checkpoint document. The schema version is checked
    /// before anything else so a newer format fails with
    /// [`CheckpointError::UnknownSchemaVersion`], not a shape error.
    pub fn from_json_str(text: &str) -> Result<Self, CheckpointError> {
        let v = Value::parse(text).map_err(CheckpointError::Json)?;
        let schema_version = v.field("schema_version")?.as_u64()?;
        if schema_version != CHECKPOINT_SCHEMA_VERSION {
            return Err(CheckpointError::UnknownSchemaVersion(schema_version));
        }
        let mut stages = Vec::new();
        for s in v.field("stages")?.as_array()? {
            stages.push(stage_from_json(s)?);
        }
        Ok(Self {
            schema_version,
            model_fingerprint: v.field("model_fingerprint")?.as_u64()?,
            cluster_fingerprint: v.field("cluster_fingerprint")?.as_u64()?,
            options_fingerprint: v.field("options_fingerprint")?.as_u64()?,
            metrics: v.field("metrics")?.as_bool()?,
            elapsed_secs_bits: v.field("elapsed_secs_bits")?.as_u64()?,
            head_events: events_from_json(v.field("head_events")?)?,
            stages,
        })
    }
}

/// Compact checkpoint-local encoding of a [`ParallelConfig`]. The
/// public JSON form serialises every operator as a five-field object —
/// fine for result frames and plans, but a checkpoint parks thousands
/// of configurations in the unexplored backtrack heap, and at hundreds
/// of ops each that form reached hundreds of megabytes per spool.
/// Per-operator settings come in long uniform runs (the property
/// `ParallelConfig::semantic_hash` exploits), so checkpoints store a
/// configuration as `[microbatch, [stage, ...]]`, each stage as
/// `[op_start, op_end, gpus, [run, ...]]`, and each run as `[len, tp,
/// dp, dim_index, flags]` with `flags = recompute | zero << 1`.
/// Lossless, so the resume bit-identity contract is unaffected.
fn config_to_json(c: &ParallelConfig) -> Value {
    let stages = c
        .stages
        .iter()
        .map(|s| {
            let mut runs = Vec::new();
            let mut i = 0;
            while i < s.ops.len() {
                let o = s.ops[i];
                let mut run = 1;
                while i + run < s.ops.len() && s.ops[i + run] == o {
                    run += 1;
                }
                runs.push(Value::Array(vec![
                    Value::UInt(run as u64),
                    Value::UInt(u64::from(o.tp)),
                    Value::UInt(u64::from(o.dp)),
                    Value::UInt(u64::from(o.dim_index)),
                    Value::UInt(u64::from(o.recompute) | u64::from(o.zero) << 1),
                ]));
                i += run;
            }
            Value::Array(vec![
                Value::UInt(s.op_start as u64),
                Value::UInt(s.op_end as u64),
                Value::UInt(s.gpus as u64),
                Value::Array(runs),
            ])
        })
        .collect();
    Value::Array(vec![Value::UInt(c.microbatch as u64), Value::Array(stages)])
}

fn config_from_json(v: &Value) -> Result<ParallelConfig, JsonError> {
    let top = v.as_array()?;
    if top.len() != 2 {
        return Err(JsonError::shape("config must be [microbatch, stages]"));
    }
    let mut stages = Vec::new();
    for s in top[1].as_array()? {
        let s = s.as_array()?;
        if s.len() != 4 {
            return Err(JsonError::shape(
                "config stage must be [op_start, op_end, gpus, op_runs]",
            ));
        }
        let op_start = s[0].as_usize()?;
        let op_end = s[1].as_usize()?;
        if op_end < op_start {
            return Err(JsonError::shape("stage op range is inverted"));
        }
        let mut ops = Vec::new();
        for r in s[3].as_array()? {
            let r = r.as_array()?;
            if r.len() != 5 {
                return Err(JsonError::shape(
                    "op run must be [len, tp, dp, dim_index, flags]",
                ));
            }
            let len = r[0].as_usize()?;
            let flags = r[4].as_u64()?;
            if flags > 3 {
                return Err(JsonError::shape("op run flags out of range"));
            }
            // Bound before expanding: run lengths must fit the declared
            // op range, so a corrupt length cannot force a huge
            // allocation.
            if len == 0 || ops.len() + len > op_end - op_start {
                return Err(JsonError::shape("op runs do not fit the stage's op range"));
            }
            ops.resize(
                ops.len() + len,
                OpParallel {
                    tp: r[1].as_u32()?,
                    dp: r[2].as_u32()?,
                    dim_index: r[3].as_u8()?,
                    recompute: flags & 1 != 0,
                    zero: flags & 2 != 0,
                },
            );
        }
        if ops.len() != op_end - op_start {
            return Err(JsonError::shape(
                "op runs do not cover the stage's op range",
            ));
        }
        stages.push(StageConfig {
            op_start,
            op_end,
            gpus: s[2].as_usize()?,
            ops,
        });
    }
    Ok(ParallelConfig {
        stages,
        microbatch: top[0].as_usize()?,
    })
}

fn events_to_json(events: &[Event]) -> Value {
    Value::Array(events.iter().map(Event::to_json_value).collect())
}

fn events_from_json(v: &Value) -> Result<Vec<Event>, JsonError> {
    let mut out = Vec::new();
    for e in v.as_array()? {
        out.push(Event::from_json_value(e, &intern_obs_str)?);
    }
    Ok(out)
}

fn scored_to_json(s: &CheckpointedScore) -> Value {
    obj([
        ("config", config_to_json(&s.config)),
        ("score_bits", Value::UInt(s.score_bits)),
        ("iteration_time_bits", Value::UInt(s.iteration_time_bits)),
        ("oom", Value::Bool(s.oom)),
    ])
}

fn scored_from_json(v: &Value) -> Result<CheckpointedScore, JsonError> {
    Ok(CheckpointedScore {
        config: config_from_json(v.field("config")?)?,
        score_bits: v.field("score_bits")?.as_u64()?,
        iteration_time_bits: v.field("iteration_time_bits")?.as_u64()?,
        oom: v.field("oom")?.as_bool()?,
    })
}

fn trace_to_json(t: &SearchTrace) -> Value {
    obj([
        ("stage_count", Value::UInt(t.stage_count as u64)),
        ("max_hops", Value::UInt(t.max_hops as u64)),
        ("initial_score_bits", Value::UInt(t.initial_score.to_bits())),
        ("explored", Value::UInt(t.explored as u64)),
        (
            "iterations",
            Value::Array(
                t.iterations
                    .iter()
                    .map(|r| {
                        obj([
                            ("bottlenecks_tried", Value::UInt(r.bottlenecks_tried as u64)),
                            ("hops_used", Value::UInt(r.hops_used as u64)),
                            ("improved", Value::Bool(r.improved)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "convergence",
            Value::Array(
                t.convergence
                    .iter()
                    .map(|c| {
                        obj([
                            ("elapsed_bits", Value::UInt(c.elapsed.to_bits())),
                            ("explored", Value::UInt(c.explored as u64)),
                            ("best_score_bits", Value::UInt(c.best_score.to_bits())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "accepted",
            Value::Array(
                t.accepted
                    .iter()
                    .map(|a| {
                        obj([
                            ("fingerprint", Value::UInt(a.fingerprint)),
                            ("score_bits", Value::UInt(a.score.to_bits())),
                            ("config", config_to_json(&a.config)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn trace_from_json(v: &Value) -> Result<SearchTrace, JsonError> {
    let mut iterations = Vec::new();
    for r in v.field("iterations")?.as_array()? {
        iterations.push(IterationRecord {
            bottlenecks_tried: r.field("bottlenecks_tried")?.as_usize()?,
            hops_used: r.field("hops_used")?.as_usize()?,
            improved: r.field("improved")?.as_bool()?,
        });
    }
    let mut convergence = Vec::new();
    for c in v.field("convergence")?.as_array()? {
        convergence.push(ConvergencePoint {
            elapsed: f64::from_bits(c.field("elapsed_bits")?.as_u64()?),
            explored: c.field("explored")?.as_usize()?,
            best_score: f64::from_bits(c.field("best_score_bits")?.as_u64()?),
        });
    }
    let mut accepted = Vec::new();
    for a in v.field("accepted")?.as_array()? {
        accepted.push(AcceptedConfig {
            fingerprint: a.field("fingerprint")?.as_u64()?,
            score: f64::from_bits(a.field("score_bits")?.as_u64()?),
            config: config_from_json(a.field("config")?)?,
        });
    }
    Ok(SearchTrace {
        stage_count: v.field("stage_count")?.as_usize()?,
        max_hops: v.field("max_hops")?.as_usize()?,
        initial_score: f64::from_bits(v.field("initial_score_bits")?.as_u64()?),
        iterations,
        convergence,
        accepted,
        explored: v.field("explored")?.as_usize()?,
    })
}

/// Memo entries are the second-largest checkpoint component (a mature
/// stage memo holds ~10k entries), so they serialise as one flat
/// 17-element array — `[content, microbatch, dev_start, prev_last_dp,
/// has_next, <6 time fields as f64 bits>, <5 memory fields>,
/// in_flight]` — instead of nested field-named objects.
fn memo_entry_to_json(e: &MemoEntry) -> Value {
    let est = &e.estimate;
    Value::Array(vec![
        Value::UInt(e.content),
        Value::UInt(e.microbatch as u64),
        Value::UInt(e.dev_start as u64),
        Value::UInt(u64::from(e.prev_last_dp)),
        Value::UInt(u64::from(e.has_next)),
        Value::UInt(est.comp_fwd.to_bits()),
        Value::UInt(est.comp_bwd.to_bits()),
        Value::UInt(est.comm_fwd.to_bits()),
        Value::UInt(est.comm_bwd.to_bits()),
        Value::UInt(est.dp_sync.to_bits()),
        Value::UInt(est.stage_time.to_bits()),
        Value::UInt(est.mem_params),
        Value::UInt(est.mem_opt),
        Value::UInt(est.mem_act_per_mb),
        Value::UInt(est.mem_reserved),
        Value::UInt(est.mem_total),
        Value::UInt(est.in_flight as u64),
    ])
}

fn memo_entry_from_json(v: &Value) -> Result<MemoEntry, JsonError> {
    let a = v.as_array()?;
    if a.len() != 17 {
        return Err(JsonError::shape("memo entry must be a 17-element array"));
    }
    let has_next = match a[4].as_u64()? {
        0 => false,
        1 => true,
        _ => return Err(JsonError::shape("memo has_next flag out of range")),
    };
    Ok(MemoEntry {
        content: a[0].as_u64()?,
        microbatch: a[1].as_usize()?,
        dev_start: a[2].as_usize()?,
        prev_last_dp: a[3].as_u32()?,
        has_next,
        estimate: aceso_perf::StageEstimate {
            comp_fwd: f64::from_bits(a[5].as_u64()?),
            comp_bwd: f64::from_bits(a[6].as_u64()?),
            comm_fwd: f64::from_bits(a[7].as_u64()?),
            comm_bwd: f64::from_bits(a[8].as_u64()?),
            dp_sync: f64::from_bits(a[9].as_u64()?),
            stage_time: f64::from_bits(a[10].as_u64()?),
            mem_params: a[11].as_u64()?,
            mem_opt: a[12].as_u64()?,
            mem_act_per_mb: a[13].as_u64()?,
            mem_reserved: a[14].as_u64()?,
            mem_total: a[15].as_u64()?,
            in_flight: a[16].as_usize()?,
        },
    })
}

fn progress_to_json(p: &StageProgress) -> Value {
    obj([
        ("next_iter", Value::UInt(p.next_iter as u64)),
        ("current", config_to_json(&p.current)),
        ("best", scored_to_json(&p.best)),
        (
            "visited",
            Value::Array(p.visited.iter().map(|&h| Value::UInt(h)).collect()),
        ),
        (
            // Flat `[score_bits, tie, config]` triples: the parked
            // backtrack heap is the largest checkpoint component.
            "unexplored",
            Value::Array(
                p.unexplored
                    .iter()
                    .map(|e| {
                        Value::Array(vec![
                            Value::UInt(e.score_bits),
                            Value::UInt(e.tie),
                            config_to_json(&e.config),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("explored", Value::UInt(p.explored as u64)),
        ("tie_counter", Value::UInt(p.tie_counter)),
        ("rng_state", Value::UInt(p.rng_state)),
        (
            "memo",
            Value::Array(p.memo.iter().map(memo_entry_to_json).collect()),
        ),
    ])
}

fn progress_from_json(v: &Value) -> Result<StageProgress, JsonError> {
    let mut visited = Vec::new();
    for h in v.field("visited")?.as_array()? {
        visited.push(h.as_u64()?);
    }
    let mut unexplored = Vec::new();
    for e in v.field("unexplored")?.as_array()? {
        let e = e.as_array()?;
        if e.len() != 3 {
            return Err(JsonError::shape(
                "unexplored entry must be [score_bits, tie, config]",
            ));
        }
        unexplored.push(ParkedConfig {
            score_bits: e[0].as_u64()?,
            tie: e[1].as_u64()?,
            config: config_from_json(&e[2])?,
        });
    }
    let mut memo = Vec::new();
    for e in v.field("memo")?.as_array()? {
        memo.push(memo_entry_from_json(e)?);
    }
    Ok(StageProgress {
        next_iter: v.field("next_iter")?.as_usize()?,
        current: config_from_json(v.field("current")?)?,
        best: scored_from_json(v.field("best")?)?,
        visited,
        unexplored,
        explored: v.field("explored")?.as_usize()?,
        tie_counter: v.field("tie_counter")?.as_u64()?,
        rng_state: v.field("rng_state")?.as_u64()?,
        memo,
    })
}

fn stage_to_json(s: &StageCheckpoint) -> Value {
    obj([
        ("stage_count", Value::UInt(s.stage_count as u64)),
        ("done", Value::Bool(s.done)),
        ("events", events_to_json(&s.events)),
        ("metrics", s.metrics.to_checkpoint_value()),
        ("trace", trace_to_json(&s.trace)),
        (
            "progress",
            s.progress.as_ref().map_or(Value::Null, progress_to_json),
        ),
        (
            "tops",
            Value::Array(s.tops.iter().map(scored_to_json).collect()),
        ),
    ])
}

fn stage_from_json(v: &Value) -> Result<StageCheckpoint, JsonError> {
    let done = v.field("done")?.as_bool()?;
    let progress = match v.field("progress")? {
        Value::Null => None,
        p => Some(progress_from_json(p)?),
    };
    if done == progress.is_some() {
        return Err(JsonError::shape(
            "stage checkpoint must carry progress exactly when not done",
        ));
    }
    let mut tops = Vec::new();
    for t in v.field("tops")?.as_array()? {
        tops.push(scored_from_json(t)?);
    }
    Ok(StageCheckpoint {
        stage_count: v.field("stage_count")?.as_usize()?,
        done,
        events: events_from_json(v.field("events")?)?,
        metrics: Metrics::from_checkpoint_value(v.field("metrics")?, &intern_obs_str)?,
        trace: trace_from_json(v.field("trace")?)?,
        progress,
        tops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let m = gpt3_custom("t", 4, 512, 8, 256, 8192, 64);
        let m2 = gpt3_custom("u", 6, 512, 8, 256, 8192, 64);
        assert_eq!(model_fingerprint(&m), model_fingerprint(&m));
        assert_ne!(model_fingerprint(&m), model_fingerprint(&m2));
        let c2 = ClusterSpec::v100(1, 2);
        let c4 = ClusterSpec::v100(1, 4);
        assert_eq!(cluster_fingerprint(&c2), cluster_fingerprint(&c2));
        assert_ne!(cluster_fingerprint(&c2), cluster_fingerprint(&c4));
    }

    #[test]
    fn options_fingerprint_tracks_result_affecting_knobs_only() {
        let base = SearchOptions::default();
        let same = options_fingerprint(&base);
        assert_eq!(same, options_fingerprint(&SearchOptions::default()));
        // Result-affecting knobs change the fingerprint.
        let seeded = SearchOptions {
            seed: 7,
            ..SearchOptions::default()
        };
        assert_ne!(same, options_fingerprint(&seeded));
        let hops = SearchOptions {
            max_hops: 3,
            ..SearchOptions::default()
        };
        assert_ne!(same, options_fingerprint(&hops));
        // Wall-clock budget and threading do not.
        let budgeted = SearchOptions {
            time_budget: Some(std::time::Duration::from_secs(1)),
            parallel: false,
            ..SearchOptions::default()
        };
        assert_eq!(same, options_fingerprint(&budgeted));
    }

    #[test]
    fn interner_covers_the_search_vocabulary_and_nothing_else() {
        for r in Resource::ALL {
            assert_eq!(intern_obs_str(r.name()), Some(r.name()));
        }
        for p in Primitive::EXTENDED {
            assert_eq!(intern_obs_str(p.name()), Some(p.name()));
        }
        assert_eq!(intern_obs_str("-"), Some("-"));
        assert_eq!(intern_obs_str("1f1b"), Some("1f1b"));
        assert_eq!(intern_obs_str("gpipe"), Some("gpipe"));
        assert_eq!(intern_obs_str("inc-banana"), None);
        assert_eq!(intern_obs_str(""), None);
    }

    #[test]
    fn compact_config_encoding_roundtrips_losslessly() {
        // Two stages with run breaks mid-stage: tp/dp changes, a
        // recompute toggle, and a zero toggle all terminate runs.
        let mk = |tp, dp, recompute, zero| OpParallel {
            tp,
            dp,
            dim_index: 0,
            recompute,
            zero,
        };
        let mut s0 = StageConfig::uniform(0, 7, mk(2, 2, false, false));
        s0.ops[3] = mk(1, 4, false, false);
        s0.ops[4] = mk(1, 4, true, false);
        let mut s1 = StageConfig::uniform(7, 12, mk(4, 1, true, false));
        s1.ops[4] = mk(4, 1, true, true);
        let config = ParallelConfig {
            stages: vec![s0, s1],
            microbatch: 16,
        };
        let encoded = config_to_json(&config);
        let text = encoded.to_string_compact();
        assert!(
            text.len() < config.to_json_value().to_string_compact().len(),
            "compact form must be smaller than the public per-op form"
        );
        let decoded = config_from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, config);
    }

    #[test]
    fn compact_config_decoding_rejects_malformed_runs() {
        let mk = |tp, dp| OpParallel {
            tp,
            dp,
            dim_index: 0,
            recompute: false,
            zero: false,
        };
        let config = ParallelConfig {
            stages: vec![StageConfig::uniform(0, 5, mk(1, 2))],
            microbatch: 8,
        };
        let good = config_to_json(&config).to_string_compact();
        // A run length that overflows the declared op range is rejected
        // before any expansion.
        let overflow = good.replacen("[5,1,2,0,0]", "[5000000000,1,2,0,0]", 1);
        assert_ne!(overflow, good);
        assert!(config_from_json(&Value::parse(&overflow).unwrap()).is_err());
        // A run set that under-covers the range is rejected too.
        let short = good.replacen("[5,1,2,0,0]", "[4,1,2,0,0]", 1);
        assert!(config_from_json(&Value::parse(&short).unwrap()).is_err());
        // Flags outside the two defined bits are rejected.
        let flags = good.replacen("[5,1,2,0,0]", "[5,1,2,0,4]", 1);
        assert!(config_from_json(&Value::parse(&flags).unwrap()).is_err());
    }

    #[test]
    fn unknown_schema_version_is_detected_before_shape_errors() {
        // A document with a future version and an otherwise-garbage body
        // must fail on the version, not the body.
        let text = r#"{"schema_version":99,"nonsense":true}"#;
        match SearchCheckpoint::from_json_str(text) {
            Err(CheckpointError::UnknownSchemaVersion(99)) => {}
            other => panic!("expected UnknownSchemaVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_json_is_a_json_error() {
        let text = r#"{"schema_version":3,"model_fingerprint":12,"#;
        match SearchCheckpoint::from_json_str(text) {
            Err(CheckpointError::Json(_)) => {}
            other => panic!("expected Json error, got {other:?}"),
        }
    }
}
