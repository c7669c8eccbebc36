//! The Aceso search: Algorithm 1 (iterative loop) and Algorithm 2
//! (multi-hop search), run in parallel over pipeline stage counts (§4.3).

use crate::bottleneck::{ranked_bottlenecks, Bottleneck};
use crate::checkpoint::{
    cluster_fingerprint, model_fingerprint, options_fingerprint, CheckpointError,
    CheckpointedScore, ParkedConfig, SearchCheckpoint, StageCheckpoint, StageProgress,
    CHECKPOINT_SCHEMA_VERSION,
};
use crate::finetune::fine_tune;
use crate::invariants::ScoreCheck;
use crate::primitives::{generate_with, Candidate, GenOptions, Primitive, Resource};
use crate::trace::{AcceptedConfig, ConvergencePoint, IterationRecord, SearchTrace};
use aceso_cluster::ClusterSpec;
use aceso_config::{balanced_init, ConfigError, ParallelConfig};
use aceso_model::ModelGraph;
use aceso_obs::{Counter, Event, HistKind, Metrics, ObsReport, Recorder};
use aceso_perf::{CachedEvaluator, ConfigEstimate, Evaluator, P2pMemo, PerfModel};
use aceso_profile::ProfileDb;
use aceso_util::SplitMix64;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// Tunable knobs of the search.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Maximum multi-hop depth (`MaxHops`, paper default 7).
    pub max_hops: usize,
    /// Iteration budget per stage count (deterministic budget).
    pub max_iterations: usize,
    /// Optional wall-clock budget shared by all stage counts (the paper
    /// uses 200 s); `None` = iterations only.
    pub time_budget: Option<Duration>,
    /// Pipeline stage counts to search (in parallel); `None` = automatic.
    pub stage_counts: Option<Vec<usize>>,
    /// How many best configurations to return (paper keeps the top 5 and
    /// picks the best in real execution).
    pub top_k: usize,
    /// Run the op-level fine-tuning pass (§4.2).
    pub fine_tune: bool,
    /// Heuristic-2 ranking; `false` = random primitive order (Exp#5
    /// ablation).
    pub use_heuristic2: bool,
    /// RNG seed (only consumed when `use_heuristic2` is off).
    pub seed: u64,
    /// Search stage counts on parallel threads.
    pub parallel: bool,
    /// Backtracking breadth per hop (candidates recursed into).
    pub branch_limit: usize,
    /// Secondary bottlenecks attempted per iteration.
    pub max_bottlenecks: usize,
    /// §4.3 primitive-combination toggles (ablation knobs).
    pub gen_options: GenOptions,
    /// Start from this configuration instead of the balanced default
    /// (Exp#7 robustness); forces its stage count.
    pub initial: Option<ParallelConfig>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            max_hops: 7,
            max_iterations: 48,
            time_budget: None,
            stage_counts: None,
            top_k: 5,
            fine_tune: true,
            use_heuristic2: true,
            seed: 0x000A_CE50,
            parallel: true,
            branch_limit: 3,
            max_bottlenecks: 3,
            gen_options: GenOptions::default(),
            initial: None,
        }
    }
}

/// A configuration with its predicted quality.
#[derive(Debug, Clone)]
pub struct ScoredConfig {
    /// The configuration.
    pub config: ParallelConfig,
    /// Comparison score (iteration time, OOM-penalised).
    pub score: f64,
    /// Predicted iteration time in seconds.
    pub iteration_time: f64,
    /// Whether the prediction exceeds device memory.
    pub oom: bool,
}

/// Search failure modes.
#[derive(Debug)]
pub enum SearchError {
    /// No stage count admitted a valid initial configuration.
    NoInitialConfig(ConfigError),
    /// The search finished without any feasible configuration.
    NoFeasibleConfig,
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::NoInitialConfig(e) => write!(f, "no valid initial configuration: {e}"),
            SearchError::NoFeasibleConfig => write!(f, "no feasible configuration found"),
        }
    }
}

impl std::error::Error for SearchError {}

/// Result of a full search.
#[derive(Debug)]
pub struct SearchResult {
    /// The best configuration found.
    pub best_config: ParallelConfig,
    /// Its predicted iteration time (seconds).
    pub best_time: f64,
    /// Whether even the best configuration is predicted OOM.
    pub best_oom: bool,
    /// The `top_k` best configurations across all stage counts.
    pub top_configs: Vec<ScoredConfig>,
    /// Total configurations evaluated.
    pub explored: usize,
    /// Wall-clock search time.
    pub wall_time: Duration,
    /// Per-stage-count traces.
    pub traces: Vec<SearchTrace>,
}

/// Outcome of a pausable search slice ([`AcesoSearch::run_partial`] /
/// [`AcesoSearch::resume_partial`]).
#[derive(Debug)]
// `Done` is the one-shot terminal value; boxing it would add an allocation
// to every completed search to shrink a type that is never stored in bulk.
#[allow(clippy::large_enum_variant)]
pub enum SearchStep {
    /// Every stage count ran to completion; the result and report are
    /// bit-identical to an uninterrupted [`AcesoSearch::run_observed`].
    Done(SearchResult, ObsReport),
    /// At least one stage count hit the pause bound; the checkpoint
    /// captures the complete search state.
    Paused(Box<SearchCheckpoint>),
}

/// Why a checkpoint resume failed.
#[derive(Debug)]
pub enum ResumeError {
    /// The checkpoint does not belong to this search (wrong model,
    /// cluster, options, metrics flag, or schema version).
    Incompatible(CheckpointError),
    /// The resumed search itself failed.
    Search(SearchError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Incompatible(e) => write!(f, "cannot resume: {e}"),
            ResumeError::Search(e) => write!(f, "resumed search failed: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Min-heap entry for the unexplored-configurations pool. Its config
/// shares every stage with the candidate's other copies
/// (INV-STAGE-HASH), so parking one copies a pointer per stage.
struct HeapEntry {
    score: f64,
    tie: u64,
    config: ParallelConfig,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.tie == other.tie
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest score.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

/// The Aceso configuration searcher.
pub struct AcesoSearch<'a> {
    model: &'a ModelGraph,
    cluster: &'a ClusterSpec,
    db: &'a ProfileDb,
    options: SearchOptions,
}

impl<'a> AcesoSearch<'a> {
    /// Creates a searcher.
    pub fn new(
        model: &'a ModelGraph,
        cluster: &'a ClusterSpec,
        db: &'a ProfileDb,
        options: SearchOptions,
    ) -> Self {
        Self {
            model,
            cluster,
            db,
            options,
        }
    }

    /// Stage counts to explore: every count from 1 to the device count
    /// that admits a power-of-two split, capped at the op count. Beyond
    /// 10 counts it keeps 1–8 plus the even counts above, at most 12
    /// entries.
    fn default_stage_counts(&self) -> Vec<usize> {
        let gpus = self.cluster.total_gpus();
        let max_p = gpus.min(self.model.len() / 2).max(1);
        let mut counts: Vec<usize> = (1..=max_p.min(16)).collect();
        if counts.len() > 10 {
            // Keep 1–8 plus even counts beyond.
            counts.retain(|&p| p <= 8 || p % 2 == 0);
            counts.truncate(12);
        }
        counts
    }

    /// Runs the search (Algorithm 1, parallelised over stage counts).
    pub fn run(&self) -> Result<SearchResult, SearchError> {
        self.run_observed(false).map(|(r, _)| r)
    }

    /// Runs the search with observability: when `metrics` is on, every
    /// sub-search records events and counters into a per-thread
    /// [`Recorder`] (no locks on the hot path) and the recorders are
    /// merged in stage-count order — so the returned [`ObsReport`]'s
    /// event stream is byte-identical across identical seeded runs.
    /// When `metrics` is off the instrumentation compiles down to a
    /// branch per site and the report comes back empty.
    pub fn run_observed(&self, metrics: bool) -> Result<(SearchResult, ObsReport), SearchError> {
        match self.drive(metrics, None, None)? {
            SearchStep::Done(result, report) => Ok((result, report)),
            SearchStep::Paused(_) => unreachable!("no pause bound was set"),
        }
    }

    /// Runs the search until every stage count finishes or reaches
    /// iteration `pause_after`, whichever comes first. On pause the
    /// returned [`SearchCheckpoint`] captures the complete state;
    /// feeding it to [`AcesoSearch::resume_partial`] continues exactly
    /// where the slice stopped, and running resumed slices to completion
    /// yields results bit-identical to an uninterrupted run.
    pub fn run_partial(
        &self,
        metrics: bool,
        pause_after: usize,
    ) -> Result<SearchStep, SearchError> {
        self.drive(metrics, None, Some(pause_after))
    }

    /// Checks that `ckpt` was produced by a search over the same model,
    /// cluster, result-affecting options, and metrics flag.
    pub fn checkpoint_compatible(
        &self,
        ckpt: &SearchCheckpoint,
        metrics: bool,
    ) -> Result<(), CheckpointError> {
        if ckpt.schema_version != CHECKPOINT_SCHEMA_VERSION {
            return Err(CheckpointError::UnknownSchemaVersion(ckpt.schema_version));
        }
        if ckpt.model_fingerprint != model_fingerprint(self.model) {
            return Err(CheckpointError::Mismatch("model fingerprint"));
        }
        if ckpt.cluster_fingerprint != cluster_fingerprint(self.cluster) {
            return Err(CheckpointError::Mismatch("cluster fingerprint"));
        }
        if ckpt.options_fingerprint != options_fingerprint(&self.options) {
            return Err(CheckpointError::Mismatch("options fingerprint"));
        }
        if ckpt.metrics != metrics {
            return Err(CheckpointError::Mismatch("metrics flag"));
        }
        Ok(())
    }

    /// Resumes from a checkpoint, running until every stage finishes or
    /// reaches the (absolute) iteration bound `pause_after`; `None`
    /// runs to completion. Fails with [`ResumeError::Incompatible`]
    /// before doing any work when the checkpoint belongs to a different
    /// search.
    pub fn resume_partial(
        &self,
        metrics: bool,
        ckpt: &SearchCheckpoint,
        pause_after: Option<usize>,
    ) -> Result<SearchStep, ResumeError> {
        self.checkpoint_compatible(ckpt, metrics)
            .map_err(ResumeError::Incompatible)?;
        self.drive(metrics, Some(ckpt), pause_after)
            .map_err(ResumeError::Search)
    }

    /// Resumes from a checkpoint and runs to completion. The result and
    /// report are bit-identical to an uninterrupted
    /// [`AcesoSearch::run_observed`] with the same inputs.
    pub fn resume_from(
        &self,
        metrics: bool,
        ckpt: &SearchCheckpoint,
    ) -> Result<(SearchResult, ObsReport), ResumeError> {
        match self.resume_partial(metrics, ckpt, None)? {
            SearchStep::Done(result, report) => Ok((result, report)),
            SearchStep::Paused(_) => unreachable!("no pause bound was set"),
        }
    }

    /// The engine behind [`AcesoSearch::run_observed`] and the partial
    /// variants: drives every stage count either fresh or from its
    /// checkpointed state, to completion or to the pause bound.
    fn drive(
        &self,
        metrics: bool,
        restore: Option<&SearchCheckpoint>,
        pause_after: Option<usize>,
    ) -> Result<SearchStep, SearchError> {
        let start = Instant::now();
        let prior_elapsed = restore.map_or(0.0, SearchCheckpoint::elapsed_secs);
        // A resumed search gets the *remaining* budget: previous slices'
        // wall time already counted against it.
        let deadline = self.options.time_budget.map(|b| {
            let remaining = (b.as_secs_f64() - prior_elapsed).max(0.0);
            start + Duration::from_secs_f64(remaining)
        });
        let counts = match (&self.options.initial, &self.options.stage_counts) {
            (Some(init), _) => vec![init.num_stages()],
            (None, Some(c)) => c.clone(),
            (None, None) => self.default_stage_counts(),
        };

        let head_events: Vec<Event> = match restore {
            Some(c) => c.head_events.clone(),
            None => {
                let head = Recorder::new(metrics);
                head.emit(|| Event::SearchStart {
                    stage_counts: counts.clone(),
                    max_hops: self.options.max_hops,
                    max_iterations: self.options.max_iterations,
                    top_k: self.options.top_k,
                    seed: self.options.seed,
                    heuristic2: self.options.use_heuristic2,
                });
                head.into_parts().0
            }
        };
        let restored: HashMap<usize, &StageCheckpoint> = restore
            .map(|c| c.stages.iter().map(|s| (s.stage_count, s)).collect())
            .unwrap_or_default();

        let mut outcomes: Vec<StageOutcome> = Vec::new();
        // One boundary-p2p memo for the whole search: sub-searches at
        // different stage counts cut the model at many of the same device
        // boundaries, so whichever thread computes a (bytes, from, to)
        // triple first serves every other thread. Values are exact
        // `ProfileDb::p2p_time` results — sharing cannot change any score,
        // so it is deliberately *not* checkpointed (a cold memo on resume
        // recomputes identical values and touches no counter; INV-MEMO in
        // docs/SEARCH.md).
        let p2p = P2pMemo::new();
        let env = |p| SliceEnv {
            p,
            deadline,
            metrics,
            pause_after,
        };
        if self.options.parallel && counts.len() > 1 {
            outcomes = std::thread::scope(|scope| {
                let handles: Vec<_> = counts
                    .iter()
                    .map(|&p| {
                        let p2p = &p2p;
                        let prev = restored.get(&p).copied();
                        scope.spawn(move || self.stage_slice(env(p), p2p, prev))
                    })
                    .collect();
                join_stages(handles)
            });
        } else {
            for &p in &counts {
                let prev = restored.get(&p).copied();
                if let Some(o) = self.stage_slice(env(p), &p2p, prev) {
                    outcomes.push(o);
                }
            }
        }
        // Deterministic merge order regardless of thread completion order
        // (INV-MERGE-ORDER).
        outcomes.sort_by_key(StageOutcome::stage_count);

        if outcomes
            .iter()
            .any(|o| matches!(o, StageOutcome::Paused(_)))
        {
            let elapsed = prior_elapsed + start.elapsed().as_secs_f64();
            let stages = outcomes
                .into_iter()
                .map(|o| match o {
                    StageOutcome::Finished { tops, trace, rec } => {
                        let (events, mets) = rec.into_parts();
                        StageCheckpoint {
                            stage_count: trace.stage_count,
                            done: true,
                            events,
                            metrics: mets,
                            trace,
                            progress: None,
                            tops: tops.iter().map(CheckpointedScore::from_scored).collect(),
                        }
                    }
                    StageOutcome::Paused(sc) => sc,
                })
                .collect();
            return Ok(SearchStep::Paused(Box::new(SearchCheckpoint {
                schema_version: CHECKPOINT_SCHEMA_VERSION,
                model_fingerprint: model_fingerprint(self.model),
                cluster_fingerprint: cluster_fingerprint(self.cluster),
                options_fingerprint: options_fingerprint(&self.options),
                metrics,
                elapsed_secs_bits: elapsed.to_bits(),
                head_events,
                stages,
            })));
        }

        let mut report = ObsReport::new();
        report.absorb(Recorder::from_parts(head_events, Metrics::default()));
        let mut all: Vec<ScoredConfig> = Vec::new();
        let mut traces = Vec::new();
        let mut explored = 0usize;
        for o in outcomes {
            let StageOutcome::Finished { tops, trace, rec } = o else {
                unreachable!("paused outcomes already returned a checkpoint")
            };
            explored += trace.explored;
            traces.push(trace);
            all.extend(tops);
            report.absorb(rec);
        }
        all.sort_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        all.truncate(self.options.top_k.max(1));
        let best = all.first().ok_or(SearchError::NoFeasibleConfig)?.clone();

        let tail = Recorder::new(metrics);
        tail.emit(|| Event::SearchEnd {
            explored,
            stage_counts_searched: traces.len(),
            best_score: best.score,
            best_fingerprint: best.config.semantic_hash(),
        });
        report.absorb(tail);
        report.set_wall_time(prior_elapsed + start.elapsed().as_secs_f64());

        Ok(SearchStep::Done(
            SearchResult {
                best_config: best.config,
                best_time: best.iteration_time,
                best_oom: best.oom,
                top_configs: all,
                explored,
                wall_time: Duration::from_secs_f64(prior_elapsed) + start.elapsed(),
                traces,
            },
            report,
        ))
    }

    /// One stage-count search slice (Algorithm 1): fresh or restored
    /// from `prev`, running to completion or to the `pause_after`
    /// iteration bound.
    fn stage_slice(
        &self,
        env: SliceEnv,
        p2p: &P2pMemo,
        prev: Option<&StageCheckpoint>,
    ) -> Option<StageOutcome> {
        let SliceEnv {
            p,
            deadline,
            metrics,
            pause_after,
        } = env;
        // A stage that already finished in a previous slice replays its
        // saved outcome verbatim — its events, metrics, trace, and
        // bit-exact top-k pool re-enter the merge unchanged.
        if let Some(sc) = prev {
            if sc.done {
                return Some(StageOutcome::Finished {
                    tops: sc.tops.iter().map(CheckpointedScore::to_scored).collect(),
                    trace: sc.trace.clone(),
                    rec: Recorder::from_parts(sc.events.clone(), sc.metrics.clone()),
                });
            }
        }
        let progress = prev.and_then(|sc| sc.progress.as_ref());
        // The recorder outlives everything that borrows it (`ev`, `ctx`);
        // it is returned by value to the parent for deterministic merging.
        // Resuming splices the restored slice onto the saved stream: the
        // events and metrics recorded so far are pre-loaded, so the merged
        // output equals an uninterrupted run's. (With metrics off the
        // saved parts are empty by construction — the checkpoint's
        // `metrics` flag is enforced before resuming.)
        let rec = match (progress.is_some(), metrics) {
            (true, true) => {
                let sc = prev.expect("progress implies a previous checkpoint");
                Recorder::from_parts(sc.events.clone(), sc.metrics.clone())
            }
            _ => Recorder::new(metrics),
        };
        // Per-thread memoizing evaluator: primitives touch at most two
        // stages, so most candidate scores reuse cached stage estimates
        // (bit-identical to scoring from scratch). Boundary p2p estimates
        // additionally go through the search-wide shared memo.
        let ev = CachedEvaluator::new(
            PerfModel::new(self.model, self.cluster, self.db)
                .with_obs(&rec)
                .with_p2p_memo(p2p),
        );
        let start = Instant::now();
        let mut ctx = Ctx {
            ev,
            check: ScoreCheck::new(self.model, self.cluster, self.db),
            opts: &self.options,
            rec: &rec,
            stage_count: p,
            visited: HashSet::new(),
            unexplored: BinaryHeap::new(),
            explored: 0,
            deadline,
            rng: SplitMix64::new(self.options.seed ^ (p as u64)),
            tie_counter: 0,
            rejected: RejectSummary::default(),
        };
        let mut trace;
        let mut config;
        let mut best;
        let mut iter;
        match progress {
            Some(pr) => {
                // Restore every piece of mutable sub-search state
                // bit-exactly; nothing is re-evaluated here, so no
                // counter moves until the loop resumes.
                trace = prev
                    .expect("progress implies a previous checkpoint")
                    .trace
                    .clone();
                config = pr.current.clone();
                best = pr.best.to_scored();
                iter = pr.next_iter;
                ctx.visited.extend(pr.visited.iter().copied());
                for e in &pr.unexplored {
                    ctx.unexplored.push(HeapEntry {
                        score: f64::from_bits(e.score_bits),
                        tie: e.tie,
                        config: e.config.clone(),
                    });
                }
                ctx.explored = pr.explored;
                ctx.rng = SplitMix64::from_state(pr.rng_state);
                ctx.tie_counter = pr.tie_counter;
                ctx.ev.import_memo(pr.memo.clone());
            }
            None => {
                let init = match &self.options.initial {
                    Some(c) if c.num_stages() == p => c.clone(),
                    _ => balanced_init(self.model, self.cluster, p).ok()?,
                };
                trace = SearchTrace {
                    stage_count: p,
                    max_hops: self.options.max_hops,
                    ..SearchTrace::default()
                };
                config = init;
                ctx.visited.insert(config.semantic_hash());
                best = ctx.scored(&config);
                trace.initial_score = best.score;
                ctx.explored += 1;
                rec.count(Counter::StageSearches);
                rec.emit(|| Event::StageStart {
                    stage_count: p,
                    init_fingerprint: config.semantic_hash(),
                    init_score: best.score,
                });
                iter = 0;
            }
        }

        let mut paused = false;
        while iter < self.options.max_iterations {
            if pause_after.is_some_and(|bound| iter >= bound) {
                paused = true;
                break;
            }
            if ctx.expired() {
                break;
            }
            let est = ctx.ev.evaluate_unchecked(&config);
            let init_score = est.score();
            let bottlenecks = ranked_bottlenecks(&est);
            let mut found: Option<(ParallelConfig, usize)> = None;
            let mut tried = 0usize;
            for b in bottlenecks.iter().take(self.options.max_bottlenecks) {
                tried += 1;
                rec.emit(|| Event::Bottleneck {
                    stage_count: p,
                    iteration: iter,
                    stage: b.stage,
                    resource: b.resources.first().map_or("-", |r| r.name()),
                });
                if let Some(hit) = ctx.multi_hop(&config, &est, 0, b, init_score) {
                    found = Some(hit);
                    break;
                }
            }
            trace.iterations.push(IterationRecord {
                bottlenecks_tried: tried,
                hops_used: found.as_ref().map_or(0, |(_, h)| *h),
                improved: found.is_some(),
            });
            rec.count(Counter::IterationsTotal);
            if found.is_some() {
                rec.count(Counter::IterationsImproved);
            }
            let rejected = std::mem::take(&mut ctx.rejected);
            rec.emit(|| Event::Iteration {
                stage_count: p,
                iteration: iter,
                bottlenecks_tried: tried,
                hops_used: found.as_ref().map_or(0, |(_, h)| *h),
                improved: found.is_some(),
                candidates_rejected: rejected.count,
                lowest_rejected: rejected.lowest,
            });
            match found {
                Some((mut next, _)) => {
                    if self.options.fine_tune {
                        let pre_hash = next.semantic_hash();
                        let (tuned, evals) = fine_tune(&ctx.ev, next.clone());
                        ctx.explored += evals;
                        rec.add(Counter::FinetuneEvals, evals as u64);
                        // Only adopt the tuned configuration when it is new
                        // (or a no-op): tuning two different configurations
                        // to the same optimum must not make the search
                        // accept one fingerprint twice.
                        let tuned_hash = tuned.semantic_hash();
                        let adopted = tuned_hash == pre_hash || ctx.visited.insert(tuned_hash);
                        rec.emit(|| Event::Finetune {
                            stage_count: p,
                            evaluations: evals,
                            fingerprint: tuned_hash,
                            adopted,
                        });
                        if adopted {
                            next = tuned;
                        }
                    }
                    crate::invariants::assert_valid(
                        self.model,
                        self.cluster,
                        &next,
                        "search accept",
                    );
                    let scored = ctx.scored(&next);
                    trace.accepted.push(AcceptedConfig {
                        fingerprint: next.semantic_hash(),
                        score: scored.score,
                        config: next.clone(),
                    });
                    if scored.score < best.score {
                        best = scored;
                    }
                    config = next;
                }
                None => match ctx.unexplored.pop() {
                    Some(e) => {
                        rec.count(Counter::Backtracks);
                        rec.emit(|| Event::Backtrack {
                            stage_count: p,
                            fingerprint: e.config.semantic_hash(),
                            score: e.score,
                        });
                        config = e.config;
                    }
                    None => break,
                },
            }
            // Wall-clock only (never part of bit-identity): on a resumed
            // slice the clock restarts, so convergence timestamps are
            // per-slice, not cumulative.
            trace.convergence.push(ConvergencePoint {
                elapsed: start.elapsed().as_secs_f64(),
                explored: ctx.explored,
                best_score: best.score,
            });
            iter += 1;
        }

        if paused {
            let memo = ctx.ev.export_memo();
            // Canonical orders: hash-set iteration order and the heap's
            // internal arrangement both depend on insertion history, so
            // both are sorted — a checkpoint serialises to the same bytes
            // however the slice got here (INV-CANONICAL-EXPORT).
            let mut parked_visited: Vec<u64> = ctx.visited.iter().copied().collect();
            parked_visited.sort_unstable();
            let unexplored: Vec<ParkedConfig> = std::mem::take(&mut ctx.unexplored)
                .into_sorted_vec()
                .into_iter()
                .map(|e| ParkedConfig {
                    score_bits: e.score.to_bits(),
                    tie: e.tie,
                    config: e.config,
                })
                .collect();
            let progress = StageProgress {
                next_iter: iter,
                current: config,
                best: CheckpointedScore::from_scored(&best),
                visited: parked_visited,
                unexplored,
                explored: ctx.explored,
                tie_counter: ctx.tie_counter,
                rng_state: ctx.rng.state(),
                memo,
            };
            drop(ctx);
            let (events, mets) = rec.into_parts();
            return Some(StageOutcome::Paused(StageCheckpoint {
                stage_count: p,
                done: false,
                events,
                metrics: mets,
                trace,
                progress: Some(progress),
                tops: Vec::new(),
            }));
        }

        trace.explored = ctx.explored;
        rec.emit(|| Event::StageEnd {
            stage_count: p,
            iterations: trace.iterations.len(),
            explored: ctx.explored,
            best_score: best.score,
            best_fingerprint: best.config.semantic_hash(),
        });
        // Return the best plus the best few unexplored leftovers as the
        // top-k pool for this stage count.
        let mut tops = vec![best];
        for _ in 0..self.options.top_k {
            match ctx.unexplored.pop() {
                Some(e) => tops.push(ctx.scored(&e.config)),
                None => break,
            }
        }
        drop(ctx);
        Some(StageOutcome::Finished { tops, trace, rec })
    }
}

/// Joins stage-count threads in spawn order, keeping the outcomes of
/// the counts that had one. A thread's panic is re-raised here, as the
/// serial path raises it: a stage count never silently drops out of the
/// merge.
fn join_stages<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, Option<T>>>) -> Vec<T> {
    handles
        .into_iter()
        .filter_map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
        .collect()
}

/// Per-slice parameters of [`AcesoSearch::stage_slice`] (bundled to keep
/// the signature small).
#[derive(Clone, Copy)]
struct SliceEnv {
    p: usize,
    deadline: Option<Instant>,
    metrics: bool,
    pause_after: Option<usize>,
}

/// Outcome of one stage-count slice.
enum StageOutcome {
    /// The sub-search ran to its natural end this slice (or had already
    /// finished in a previous one).
    Finished {
        tops: Vec<ScoredConfig>,
        trace: SearchTrace,
        rec: Recorder,
    },
    /// The sub-search hit the pause bound.
    Paused(StageCheckpoint),
}

impl StageOutcome {
    fn stage_count(&self) -> usize {
        match self {
            StageOutcome::Finished { trace, .. } => trace.stage_count,
            StageOutcome::Paused(sc) => sc.stage_count,
        }
    }
}

/// Mutable state of one stage-count search.
struct Ctx<'a> {
    /// The slice's memoizing evaluator; its memo state is checkpointed.
    ev: CachedEvaluator<'a>,
    /// `debug-invariants` check of what generation carries (a no-op
    /// stub otherwise).
    check: ScoreCheck<'a>,
    opts: &'a SearchOptions,
    rec: &'a Recorder,
    stage_count: usize,
    /// Fingerprints of every configuration generated so far.
    visited: HashSet<u64>,
    unexplored: BinaryHeap<HeapEntry>,
    explored: usize,
    deadline: Option<Instant>,
    rng: SplitMix64,
    tie_counter: u64,
    /// Rejections of the running iteration, folded into its `iteration`
    /// event. Taken when that event is emitted, so it is empty between
    /// iterations — where slices pause — and needs no checkpoint field.
    rejected: RejectSummary,
}

/// Per-iteration summary of rejected candidates.
#[derive(Default)]
struct RejectSummary {
    count: usize,
    /// `(fingerprint, score)` of the lowest-scoring rejection; strict `<`
    /// keeps the first seen on a tie.
    lowest: Option<(u64, f64)>,
}

impl RejectSummary {
    fn note(&mut self, fingerprint: u64, score: f64) {
        self.count += 1;
        if self.lowest.is_none_or(|(_, low)| score < low) {
            self.lowest = Some((fingerprint, score));
        }
    }
}

/// One (bottleneck, resource) generation step of a multi-hop call.
struct HopStep<'h> {
    config: &'h ParallelConfig,
    est: &'h ConfigEstimate,
    hop: usize,
    bottleneck: &'h Bottleneck,
    init_score: f64,
    resource: Resource,
}

/// Rejected candidates pooled for the bounded multi-hop recursion:
/// (score, primitives applied, config, estimate).
type PoolEntry = (f64, usize, ParallelConfig, ConfigEstimate);

impl Ctx<'_> {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn scored(&self, config: &ParallelConfig) -> ScoredConfig {
        let est = self.ev.evaluate_unchecked(config);
        ScoredConfig {
            config: config.clone(),
            score: est.score(),
            iteration_time: est.iteration_time,
            oom: est.oom(),
        }
    }

    /// Algorithm 2: multi-hop search from `config` toward any configuration
    /// scoring better than `init_score`. Returns the configuration and the
    /// hop depth that reached it.
    fn multi_hop(
        &mut self,
        config: &ParallelConfig,
        est: &ConfigEstimate,
        hop: usize,
        bottleneck: &Bottleneck,
        init_score: f64,
    ) -> Option<(ParallelConfig, usize)> {
        if hop >= self.opts.max_hops || self.expired() {
            return None;
        }
        let mut resources = bottleneck.resources.clone();
        if !self.opts.use_heuristic2 {
            self.rng.shuffle(&mut resources);
        }
        for resource in resources {
            let mut prims: Vec<Primitive> = if self.opts.gen_options.enable_zero {
                Primitive::eligible_for_extended(resource)
            } else {
                Primitive::eligible_for(resource)
            };
            if !self.opts.use_heuristic2 {
                self.rng.shuffle(&mut prims);
            }
            let step = HopStep {
                config,
                est,
                hop,
                bottleneck,
                init_score,
                resource,
            };
            // Generate and score every candidate of every eligible
            // primitive (Heuristic-2's best-performance-first needs the
            // estimates anyway). Rejected candidates land in `pool` for
            // the bounded recursion below.
            let mut pool: Vec<PoolEntry> = Vec::new();
            let hit = self.hop_resource_serial(&step, &prims, &mut pool);
            if hit.is_some() {
                return hit;
            }
            if self.opts.use_heuristic2 {
                pool.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            } else {
                // Fisher–Yates over indices to keep the pool order random
                // (the exact index permutation is part of the rng-stream
                // bit-identity contract), permuting by moving entries
                // instead of cloning them.
                let mut idx: Vec<usize> = (0..pool.len()).collect();
                self.rng.shuffle(&mut idx);
                let mut slots: Vec<Option<PoolEntry>> = pool.into_iter().map(Some).collect();
                pool = idx
                    .into_iter()
                    .map(|i| slots[i].take().expect("indices form a permutation"))
                    .collect();
            }
            for (_, applied, ccfg, cest) in pool.into_iter().take(self.opts.branch_limit) {
                let next_bottlenecks = ranked_bottlenecks(&cest);
                if let Some(b) = next_bottlenecks.first() {
                    if let Some(hit) = self.multi_hop(&ccfg, &cest, hop + applied, b, init_score) {
                        return Some(hit);
                    }
                }
            }
        }
        None
    }

    /// One generation step: primitive by primitive in order, generating
    /// and scoring candidates lazily, stopping at the first acceptance.
    /// Each primitive counts one `search_worker_batches` step. A
    /// candidate is hashed and scored once: the search reuses the
    /// fingerprint and fix-up estimate generation carries, and evaluates
    /// only candidates the fix-up rewrote (INV-SCORE-ONCE).
    fn hop_resource_serial(
        &mut self,
        step: &HopStep<'_>,
        prims: &[Primitive],
        pool: &mut Vec<PoolEntry>,
    ) -> Option<(ParallelConfig, usize)> {
        for &prim in prims {
            self.rec.count(Counter::SearchWorkerBatches);
            for mut cand in generate_with(
                &self.ev,
                step.config,
                step.est,
                prim,
                step.bottleneck.stage,
                step.resource,
                self.opts.gen_options,
            ) {
                if !self.visited.insert(cand.fingerprint) {
                    self.rec.count(Counter::CandidatesDeduped);
                    continue;
                }
                self.check.assert_carried(&cand);
                let cest = cand
                    .estimate
                    .take()
                    .unwrap_or_else(|| self.ev.evaluate_unchecked(&cand.config));
                if let Some(hit) = self.settle_candidate(step, cand, cest, pool) {
                    return Some(hit);
                }
            }
        }
        None
    }

    /// Bookkeeping for one freshly deduplicated, freshly scored
    /// candidate: accept it, or park it in the heap and the hop pool.
    fn settle_candidate(
        &mut self,
        step: &HopStep<'_>,
        cand: Candidate,
        cest: ConfigEstimate,
        pool: &mut Vec<PoolEntry>,
    ) -> Option<(ParallelConfig, usize)> {
        let h = cand.fingerprint;
        self.explored += 1;
        self.rec.count(Counter::CandidatesGenerated);
        let score = cest.score();
        let hop = step.hop;
        let init_score = step.init_score;
        if score < init_score {
            self.rec.count(Counter::CandidatesAccepted);
            self.rec.emit(|| Event::CandidateAccepted {
                stage_count: self.stage_count,
                fingerprint: h,
                score,
                bottleneck_stage: step.bottleneck.stage,
                primitive: cand.primitive.name(),
                primitives_applied: cand.primitives_applied,
                hop_depth: hop + cand.primitives_applied,
            });
            self.rec
                .count_primitive(cand.primitive.name(), cand.primitives_applied as u64);
            self.rec
                .observe(HistKind::ScoreDelta, (init_score - score) / init_score);
            self.rec
                .observe(HistKind::HopDepth, (hop + cand.primitives_applied) as f64);
            return Some((cand.config, hop + cand.primitives_applied));
        }
        self.rec.count(Counter::CandidatesRejected);
        self.rejected.note(h, score);
        self.tie_counter += 1;
        self.unexplored.push(HeapEntry {
            score,
            tie: self.tie_counter,
            config: cand.config.clone(),
        });
        pool.push((score, cand.primitives_applied, cand.config, cest));
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;

    fn setup() -> (ModelGraph, ClusterSpec) {
        (
            gpt3_custom("t", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(1, 4),
        )
    }

    fn opts() -> SearchOptions {
        SearchOptions {
            max_iterations: 12,
            parallel: false,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn search_improves_over_initial() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let search = AcesoSearch::new(&m, &c, &db, opts());
        let (result, report) = search.run_observed(true).expect("search finds a config");
        assert!(!result.best_oom, "best config must be feasible");
        assert!(result.explored > 10);
        // A search that accepts nothing can still tie the baseline; it
        // must actually have moved.
        assert!(report.counter(Counter::CandidatesAccepted) > 0);
        assert!(report.counter(Counter::IterationsImproved) > 0);
        // Compare against the 2-stage balanced baseline.
        let pm = PerfModel::new(&m, &c, &db);
        let baseline = pm.evaluate_unchecked(&balanced_init(&m, &c, 2).expect("init"));
        assert!(
            result.best_time <= baseline.score(),
            "search {} vs baseline {}",
            result.best_time,
            baseline.score()
        );
        // A balanced two-stage split always has operator moves. A stale
        // stage hash fingerprints a move like its input, and generation
        // then drops it as a duplicate, so the search explores less.
        let init = balanced_init(&m, &c, 2).expect("init");
        let est = pm.evaluate_unchecked(&init);
        for prim in [Primitive::DecOp, Primitive::IncOp] {
            let cands = generate_with(
                &pm,
                &init,
                &est,
                prim,
                0,
                Resource::Compute,
                GenOptions::default(),
            );
            assert!(!cands.is_empty(), "{} found no move", prim.name());
        }
    }

    #[test]
    fn search_is_deterministic() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let a = AcesoSearch::new(&m, &c, &db, opts()).run().expect("a");
        let b = AcesoSearch::new(&m, &c, &db, opts()).run().expect("b");
        assert_eq!(a.best_config.semantic_hash(), b.best_config.semantic_hash());
        assert_eq!(a.explored, b.explored);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let seq = AcesoSearch::new(&m, &c, &db, opts()).run().expect("seq");
        let par = AcesoSearch::new(
            &m,
            &c,
            &db,
            SearchOptions {
                parallel: true,
                ..opts()
            },
        )
        .run()
        .expect("par");
        assert_eq!(
            seq.best_config.semantic_hash(),
            par.best_config.semantic_hash()
        );
    }

    #[test]
    fn random_mode_still_finds_configs() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = AcesoSearch::new(
            &m,
            &c,
            &db,
            SearchOptions {
                use_heuristic2: false,
                seed: 7,
                ..opts()
            },
        )
        .run()
        .expect("random search runs");
        assert!(r.best_time > 0.0);
    }

    #[test]
    fn custom_initial_pins_stage_count() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let init = balanced_init(&m, &c, 2).expect("init");
        let r = AcesoSearch::new(
            &m,
            &c,
            &db,
            SearchOptions {
                initial: Some(init),
                ..opts()
            },
        )
        .run()
        .expect("runs");
        assert_eq!(r.traces.len(), 1);
        assert_eq!(r.traces[0].stage_count, 2);
    }

    #[test]
    fn traces_record_iterations() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = AcesoSearch::new(&m, &c, &db, opts()).run().expect("runs");
        let total_iters: usize = r.traces.iter().map(|t| t.iterations.len()).sum();
        assert!(total_iters > 0);
        assert!(r.traces.iter().any(|t| !t.convergence.is_empty()));
    }

    #[test]
    fn heap_entry_orders_min_first() {
        let cfg = balanced_init(
            &gpt3_custom("t", 2, 256, 4, 128, 1000, 16),
            &ClusterSpec::v100(1, 2),
            1,
        )
        .expect("init");
        let mut heap = BinaryHeap::new();
        for (score, tie) in [(3.0, 1), (1.0, 2), (2.0, 3), (1.0, 4)] {
            heap.push(HeapEntry {
                score,
                tie,
                config: cfg.clone(),
            });
        }
        let first = heap.pop().expect("non-empty");
        assert_eq!(first.score, 1.0);
        // Tie broken deterministically: lower tie id first.
        assert_eq!(first.tie, 2);
        assert_eq!(heap.pop().expect("second").score, 1.0);
        assert_eq!(heap.pop().expect("third").score, 2.0);
    }

    #[test]
    fn join_stages_keeps_outcomes_in_spawn_order() {
        let got = std::thread::scope(|scope| {
            join_stages(vec![
                scope.spawn(|| Some(1)),
                scope.spawn(|| None),
                scope.spawn(|| Some(3)),
            ])
        });
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "stage thread failed")]
    fn join_stages_reraises_a_stage_thread_panic() {
        std::thread::scope(|scope| {
            join_stages(vec![
                scope.spawn(|| Some(1)),
                scope.spawn(|| -> Option<i32> { panic!("stage thread failed") }),
            ])
        });
    }

    #[test]
    fn default_stage_counts_bounded() {
        let (m, _) = setup();
        for gpus in [1usize, 2, 8] {
            let c = ClusterSpec::v100(1, gpus);
            let db = ProfileDb::build(&m, &c);
            let s = AcesoSearch::new(&m, &c, &db, SearchOptions::default());
            let counts = s.default_stage_counts();
            assert!(!counts.is_empty());
            assert!(counts.iter().all(|&p| p >= 1 && p <= gpus.max(1)));
            assert!(counts.len() <= 12);
        }
    }

    #[test]
    fn secondary_bottleneck_limit_respected() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = AcesoSearch::new(
            &m,
            &c,
            &db,
            SearchOptions {
                max_bottlenecks: 1,
                ..opts()
            },
        )
        .run()
        .expect("runs");
        for t in &r.traces {
            assert!(t.iterations.iter().all(|i| i.bottlenecks_tried <= 1));
        }
    }

    #[test]
    fn time_budget_respected() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = AcesoSearch::new(
            &m,
            &c,
            &db,
            SearchOptions {
                max_iterations: 100_000,
                time_budget: Some(Duration::from_millis(300)),
                parallel: false,
                ..SearchOptions::default()
            },
        )
        .run()
        .expect("runs");
        assert!(r.wall_time < Duration::from_secs(20));
    }
}
