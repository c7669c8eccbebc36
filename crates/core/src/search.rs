//! The Aceso search: Algorithm 1 (iterative loop) and Algorithm 2
//! (multi-hop search), run in parallel over pipeline stage counts (§4.3).

use crate::bottleneck::{ranked_bottlenecks, Bottleneck};
use crate::checkpoint::{
    cluster_fingerprint, model_fingerprint, options_fingerprint, CheckpointError, PositionError,
    SearchCheckpoint, StagePosition, CHECKPOINT_SCHEMA_VERSION,
};
use crate::finetune::fine_tune;
use crate::invariants::ScoreCheck;
use crate::primitives::{generate_with, Candidate, GenOptions, Primitive, Resource};
use crate::trace::{AcceptedConfig, ConvergencePoint, IterationRecord, SearchTrace};
use aceso_cluster::ClusterSpec;
use aceso_config::{balanced_init, ConfigError, ParallelConfig};
use aceso_model::ModelGraph;
use aceso_obs::{Counter, Event, Family, HistKind, ObsReport, Recorder};
use aceso_perf::{CachedEvaluator, ConfigEstimate, Evaluator, PerfModel};
use aceso_profile::ProfileDb;
use aceso_util::SplitMix64;
use std::collections::{BinaryHeap, HashSet};
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

/// Outcome of a round-driven search ([`AcesoSearch::run_rounds`],
/// [`AcesoSearch::run_partial`]).
#[derive(Debug)]
// `Done` is the one-shot terminal value; boxing it would add an allocation
// to every completed search to shrink a type that is never stored in bulk.
#[allow(clippy::large_enum_variant)]
pub enum SearchStep {
    /// Every stage count ran to completion; the result and report are
    /// bit-identical to an uninterrupted [`AcesoSearch::run_observed`].
    Done(SearchResult, ObsReport),
    /// The hook paused the search at a round boundary; the checkpoint
    /// records each stage count's position there.
    Paused(Box<SearchCheckpoint>),
}

impl SearchStep {
    /// The finished search, or `None` when the hook paused it.
    pub fn done(self) -> Option<(SearchResult, ObsReport)> {
        match self {
            SearchStep::Done(result, report) => Some((result, report)),
            SearchStep::Paused(_) => None,
        }
    }
}

/// What the round driver does after a round that left a stage count
/// open: the answer of [`AcesoSearch::run_rounds`]'s hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AfterRound {
    /// Run the next round, `every` iterations further.
    Next,
    /// Run every open stage count to its end in one last round, without
    /// asking the hook again.
    Finish,
    /// Stop, and return the snapshot the hook was shown as
    /// [`SearchStep::Paused`].
    Pause,
}

/// Why a checkpoint resume failed.
#[derive(Debug)]
pub enum ResumeError {
    /// The checkpoint does not belong to this search (wrong model,
    /// cluster, options, metrics flag, or schema version).
    Incompatible(CheckpointError),
    /// The search itself failed (fresh or resumed alike).
    Search(SearchError),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Incompatible(e) => write!(f, "cannot resume: {e}"),
            ResumeError::Search(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A rejected candidate in a stage count's backtrack heap, kept while it
/// can still be popped (INV-BACKTRACK-BOUND). The lowest score pops
/// first, then the lowest `tie`; `tie` is unique, so the order is total.
/// Its config shares every stage with the candidate's other copies
/// (INV-STAGE-HASH), so keeping one copies a pointer per stage.
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

/// A stage count's backtrack heap, bounded to the entries it can still
/// pop (INV-BACKTRACK-BOUND in docs/SEARCH.md). Each `push` states
/// `cap`, the most pops left to the stage count; once the heap holds
/// more than `2 × cap` entries it keeps only the `cap` that pop first.
/// An entry outside those can never pop, whatever arrives later, so
/// every pop returns what an unbounded heap would.
#[derive(Default)]
struct Backtrack {
    heap: BinaryHeap<HeapEntry>,
}

impl Backtrack {
    /// The most pops left to a stage count while iteration `next_iter`
    /// runs: one backtrack in it and in each later iteration, then the
    /// `top_k` drain in `end`. Saturates, so an unlimited budget
    /// (`usize::MAX` iterations) never compacts.
    fn cap(max_iterations: usize, next_iter: usize, top_k: usize) -> usize {
        max_iterations
            .saturating_sub(next_iter)
            .saturating_add(top_k)
    }

    fn push(&mut self, entry: HeapEntry, cap: usize) {
        self.heap.push(entry);
        if self.heap.len() > cap.saturating_mul(2) {
            let mut kept = std::mem::take(&mut self.heap).into_vec();
            // The greatest entry pops first: sort descending to `cap`.
            kept.select_nth_unstable_by(cap, |a, b| b.cmp(a));
            kept.truncate(cap);
            self.heap = BinaryHeap::from(kept);
        }
        crate::invariants::assert_backtrack_bound(self.len(), cap);
    }

    fn pop(&mut self) -> Option<HeapEntry> {
        self.heap.pop()
    }

    fn len(&self) -> usize {
        self.heap.len()
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
        self.drive(metrics, None, None, &mut |_| AfterRound::Next)
            .map(|step| step.done().expect("no round pauses"))
    }

    /// Runs the search until every stage count finishes or reaches
    /// iteration `pause_after`: [`AcesoSearch::run_rounds`] with a hook
    /// that pauses.
    pub fn run_partial(
        &self,
        metrics: bool,
        pause_after: usize,
    ) -> Result<SearchStep, SearchError> {
        self.drive(metrics, None, Some(pause_after), &mut |_| AfterRound::Pause)
    }

    /// The stage counts this search runs.
    fn stage_counts(&self) -> Vec<usize> {
        match (&self.options.initial, &self.options.stage_counts) {
            (Some(init), _) => vec![init.num_stages()],
            (None, Some(c)) => c.clone(),
            (None, None) => self.default_stage_counts(),
        }
    }

    /// Checks that `ckpt` was produced by a search over the same model,
    /// cluster, result-affecting options, and metrics flag, and that
    /// each of its positions is one this search can reach: a stage count
    /// it runs, at most once, within the iteration budget.
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
        let counts = self.stage_counts();
        for (i, pos) in ckpt.stages.iter().enumerate() {
            let p = pos.stage_count;
            let bad = if !counts.contains(&p) {
                PositionError::UnknownStageCount(p)
            } else if ckpt.stages[..i].iter().any(|s| s.stage_count == p) {
                PositionError::DuplicateStageCount(p)
            } else if pos.iterations > self.options.max_iterations {
                PositionError::IterationsOverBudget {
                    stage_count: p,
                    iterations: pos.iterations,
                }
            } else {
                continue;
            };
            return Err(CheckpointError::Position(bad));
        }
        Ok(())
    }

    /// Runs the search fresh or from `resume`, in rounds that end at the
    /// resume point (0 when fresh) plus k × `every` iterations (`None`:
    /// one round to the end). After each round that leaves a stage count
    /// open, `hook` is shown a snapshot of the live search and answers
    /// what happens next. The result is bit-identical to
    /// [`AcesoSearch::run_observed`]'s. Fails with
    /// [`ResumeError::Incompatible`] before any work when `resume`
    /// belongs to a different search.
    pub fn run_rounds(
        &self,
        metrics: bool,
        resume: Option<&SearchCheckpoint>,
        every: Option<usize>,
        mut hook: impl FnMut(&SearchCheckpoint) -> AfterRound,
    ) -> Result<SearchStep, ResumeError> {
        if let Some(ckpt) = resume {
            self.checkpoint_compatible(ckpt, metrics)
                .map_err(ResumeError::Incompatible)?;
        }
        self.drive(metrics, resume, every, &mut hook)
            .map_err(ResumeError::Search)
    }

    /// The round driver behind every entry point (docs/SEARCH.md, "One
    /// round driver").
    fn drive(
        &self,
        metrics: bool,
        restore: Option<&SearchCheckpoint>,
        every: Option<usize>,
        hook: &mut dyn FnMut(&SearchCheckpoint) -> AfterRound,
    ) -> Result<SearchStep, SearchError> {
        // The wall time covers the whole call, replay included. The time
        // budget runs from the call's start, or on a resume from the end
        // of its replay: the banked seconds already paid for that work.
        let start = Instant::now();
        let prior_elapsed = restore.map_or(0.0, SearchCheckpoint::elapsed_secs);
        let remaining = self
            .options
            .time_budget
            .map(|b| Duration::from_secs_f64((b.as_secs_f64() - prior_elapsed).max(0.0)));
        let deadline = remaining.map(|r| start + r);
        let counts = self.stage_counts();
        let head = Recorder::new(metrics);
        head.emit(|| Event::SearchStart {
            stage_counts: counts.clone(),
            max_hops: self.options.max_hops,
            max_iterations: self.options.max_iterations,
            top_k: self.options.top_k,
            seed: self.options.seed,
            heuristic2: self.options.use_heuristic2,
        });
        let positions = restore.map_or(&[][..], |c| &c.stages[..]);
        // The furthest iteration an open stage count resumes at.
        let resume_point = positions
            .iter()
            .filter(|s| !s.done)
            .map(|s| s.iterations)
            .max()
            .unwrap_or(0);
        // The round's iteration bound; `None` runs to the end.
        let mut bound = every.map(|e| resume_point.saturating_add(e));

        // One performance model for the whole search; each stage count's
        // evaluator holds a clone of it (INV-MEMO in docs/SEARCH.md). A
        // fresh stage count runs its first round on the thread that
        // builds it; a resumed one is replayed to its position there.
        let pm = PerfModel::new(self.model, self.cluster, self.db);
        let mut stages = self.on_stage_threads(counts, |p| {
            let mut stage = StageSearch::new(self, p, metrics, &pm)?;
            if restore.is_none() {
                stage.step(self, bound, deadline);
            } else if let Some(pos) = positions.iter().find(|s| s.stage_count == p) {
                stage.replay(self, pos);
            }
            Some(stage)
        });
        // Deterministic merge order regardless of thread completion order
        // (INV-MERGE-ORDER); later rounds keep it.
        stages.sort_by_key(|s| s.stage_count);
        let clock = if restore.is_some() {
            Instant::now()
        } else {
            start
        };
        let deadline = remaining.map(|r| clock + r);
        let step_open = |stages: &mut [StageSearch<'_>], bound| {
            let open: Vec<&mut StageSearch> = stages.iter_mut().filter(|s| s.is_open()).collect();
            self.on_stage_threads(open, |stage| {
                stage.step(self, bound, deadline);
                Some(())
            });
        };
        // A resume's first round starts at the replayed positions.
        if restore.is_some() {
            step_open(&mut stages, bound);
        }
        let mut fingerprints = None;
        while stages.iter().any(StageSearch::is_open) {
            let (model_fp, cluster_fp, options_fp) = *fingerprints.get_or_insert_with(|| {
                (
                    model_fingerprint(self.model),
                    cluster_fingerprint(self.cluster),
                    options_fingerprint(&self.options),
                )
            });
            let ckpt = SearchCheckpoint {
                schema_version: CHECKPOINT_SCHEMA_VERSION,
                model_fingerprint: model_fp,
                cluster_fingerprint: cluster_fp,
                options_fingerprint: options_fp,
                metrics,
                elapsed_secs_bits: (prior_elapsed + clock.elapsed().as_secs_f64()).to_bits(),
                stages: stages.iter().map(StageSearch::position).collect(),
            };
            match hook(&ckpt) {
                // A round advances at least one iteration, so a zero
                // `every` (a pause before the first iteration) cannot spin.
                AfterRound::Next => {
                    bound = bound.zip(every).map(|(b, e)| b.saturating_add(e.max(1)))
                }
                AfterRound::Finish => bound = None,
                AfterRound::Pause => return Ok(SearchStep::Paused(Box::new(ckpt))),
            }
            step_open(&mut stages, bound);
        }

        let mut report = ObsReport::new();
        report.absorb(head);
        let mut all: Vec<ScoredConfig> = Vec::new();
        let mut traces = Vec::new();
        let mut explored = 0usize;
        for stage in stages {
            let (tops, trace, rec) = stage.finish();
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

    /// Runs `f` over `items`, one scoped thread each when there is more
    /// than one, keeping the results that had one in `items` order.
    fn on_stage_threads<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        f: impl Fn(T) -> Option<R> + Sync,
    ) -> Vec<R> {
        if items.len() <= 1 {
            return items.into_iter().filter_map(f).collect();
        }
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = items
                .into_iter()
                .map(|item| scope.spawn(move || f(item)))
                .collect();
            join_stages(handles)
        })
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

/// One stage count's search (Algorithm 1) as a value the round driver
/// steps.
struct StageSearch<'a> {
    stage_count: usize,
    trace: SearchTrace,
    /// Origin of the convergence timestamps. A live search keeps it
    /// across rounds; a resume's replay restarts it.
    started: Instant,
    state: StageState<'a>,
}

enum StageState<'a> {
    /// Still searching. The evaluator holds a clone of the search's one
    /// model, the memo table and the recorder, and lives from `new` to
    /// the end of the stage count's search (INV-MEMO).
    Open(CachedEvaluator<'a>, Box<OpenStage>),
    /// Ran to its end: its top-k pool and its recorder. The evaluator,
    /// memo table included, is already gone.
    Done(Vec<ScoredConfig>, Recorder),
}

/// The in-flight state of an open stage count.
struct OpenStage {
    /// The next iteration index to run.
    next_iter: usize,
    /// The configuration the loop is currently improving.
    current: ParallelConfig,
    best: ScoredConfig,
    /// Fingerprints of every configuration generated so far.
    visited: HashSet<u64>,
    /// Rejected candidates the search can still backtrack to.
    unexplored: Backtrack,
    explored: usize,
    rng: SplitMix64,
    tie_counter: u64,
}

impl<'a> StageSearch<'a> {
    /// A fresh search from the stage count's initial configuration;
    /// `None` when the stage count admits none.
    fn new(search: &AcesoSearch<'_>, p: usize, metrics: bool, pm: &PerfModel<'a>) -> Option<Self> {
        let opts = &search.options;
        let init = match &opts.initial {
            Some(c) if c.num_stages() == p => c.clone(),
            _ => balanced_init(search.model, search.cluster, p).ok()?,
        };
        let ev = CachedEvaluator::with_recorder(pm.clone(), Recorder::new(metrics));
        let best = scored(&ev, &init);
        let rec = ev.recorder();
        rec.count(Counter::StageSearches);
        rec.emit(|| Event::StageStart {
            stage_count: p,
            init_fingerprint: init.semantic_hash(),
            init_score: best.score,
        });
        let trace = SearchTrace {
            stage_count: p,
            max_hops: opts.max_hops,
            initial_score: best.score,
            ..SearchTrace::default()
        };
        Some(Self {
            stage_count: p,
            trace,
            started: Instant::now(),
            state: StageState::Open(
                ev,
                Box::new(OpenStage {
                    next_iter: 0,
                    visited: HashSet::from([init.semantic_hash()]),
                    current: init,
                    best,
                    unexplored: Backtrack::default(),
                    explored: 1,
                    rng: SplitMix64::new(opts.seed ^ (p as u64)),
                    tie_counter: 0,
                }),
            ),
        })
    }

    /// Replays the search to `pos`, with no deadline: the stage count
    /// then holds the state it had at that position, bit for bit. A
    /// `done` position that the replay leaves open (a deadline ended it,
    /// not its iteration budget or an empty heap) is ended there. The one
    /// place a checkpoint is read.
    fn replay(&mut self, search: &AcesoSearch<'_>, pos: &StagePosition) {
        self.step(search, Some(pos.iterations), None);
        if pos.done && self.is_open() {
            self.end(search.options.top_k);
        }
    }

    fn is_open(&self) -> bool {
        matches!(self.state, StageState::Open(..))
    }

    /// Advances an open search to `bound`, or to its end (the iteration
    /// budget, the deadline, or an empty backtrack heap), where it emits
    /// its `stage_end` and takes its top-k pool.
    fn step(&mut self, search: &AcesoSearch<'_>, bound: Option<usize>, deadline: Option<Instant>) {
        let StageState::Open(ev, open) = &mut self.state else {
            return;
        };
        let p = self.stage_count;
        let rec = ev.recorder();
        let trace = &mut self.trace;
        let opts = &search.options;
        // Primitives touch at most two stages, so most candidate scores
        // reuse the memo table's stage estimates (bit-identical to scoring
        // from scratch).
        let mut ctx = Ctx {
            ev,
            check: ScoreCheck::new(ev.perf_model()),
            opts,
            rec,
            stage_count: p,
            st: open,
            deadline,
            rejected: RejectSummary::default(),
        };
        while ctx.st.next_iter < opts.max_iterations {
            let iter = ctx.st.next_iter;
            // The deadline before the bound: a stage count the deadline
            // touched ends here, so one that a round leaves open is
            // reproduced exactly by replaying its position.
            if ctx.expired() {
                break;
            }
            if bound.is_some_and(|bound| iter >= bound) {
                return;
            }
            let current = ctx.st.current.clone();
            let est = ctx.ev.evaluate_unchecked(&current);
            let init_score = est.score();
            let bottlenecks = ranked_bottlenecks(&est);
            let mut found: Option<(ParallelConfig, usize)> = None;
            let mut tried = 0usize;
            for b in bottlenecks.iter().take(opts.max_bottlenecks) {
                tried += 1;
                rec.emit(|| Event::Bottleneck {
                    stage_count: p,
                    iteration: iter,
                    stage: b.stage,
                    resource: b.resources.first().map_or("-", |r| r.name()),
                });
                if let Some(hit) = ctx.multi_hop(&current, &est, 0, b, init_score) {
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
                    if opts.fine_tune {
                        let pre_hash = next.semantic_hash();
                        let (tuned, evals) = fine_tune(ctx.ev, next.clone());
                        ctx.st.explored += evals;
                        rec.add(Counter::FinetuneEvals, evals as u64);
                        // Only adopt the tuned configuration when it is new
                        // (or a no-op): tuning two different configurations
                        // to the same optimum must not make the search
                        // accept one fingerprint twice.
                        let tuned_hash = tuned.semantic_hash();
                        let adopted = tuned_hash == pre_hash || ctx.st.visited.insert(tuned_hash);
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
                        search.model,
                        search.cluster,
                        &next,
                        "search accept",
                    );
                    let next_scored = scored(ctx.ev, &next);
                    trace.accepted.push(AcceptedConfig {
                        fingerprint: next.semantic_hash(),
                        score: next_scored.score,
                        config: next.clone(),
                    });
                    if next_scored.score < ctx.st.best.score {
                        ctx.st.best = next_scored;
                    }
                    ctx.st.current = next;
                }
                None => match ctx.st.unexplored.pop() {
                    Some(e) => {
                        rec.count(Counter::Backtracks);
                        rec.emit(|| Event::Backtrack {
                            stage_count: p,
                            fingerprint: e.config.semantic_hash(),
                            score: e.score,
                        });
                        ctx.st.current = e.config;
                    }
                    None => break,
                },
            }
            // Wall-clock only (never part of bit-identity): measured from
            // when this value was built, so a live search's timestamps
            // run on across rounds and only a resume restarts them.
            trace.convergence.push(ConvergencePoint {
                elapsed: self.started.elapsed().as_secs_f64(),
                explored: ctx.st.explored,
                best_score: ctx.st.best.score,
            });
            ctx.st.next_iter += 1;
        }

        self.end(opts.top_k);
    }

    /// Ends an open search: emits its `stage_end`, takes its top-k pool
    /// (the best plus the best few unexplored leftovers), and drops its
    /// evaluator, memo table and model clone included.
    fn end(&mut self, top_k: usize) {
        let placeholder = StageState::Done(Vec::new(), Recorder::default());
        let StageState::Open(ev, mut open) = std::mem::replace(&mut self.state, placeholder) else {
            unreachable!("only an open stage count ends")
        };
        let p = self.stage_count;
        let trace = &mut self.trace;
        trace.explored = open.explored;
        ev.recorder().emit(|| Event::StageEnd {
            stage_count: p,
            iterations: trace.iterations.len(),
            explored: trace.explored,
            best_score: open.best.score,
            best_fingerprint: open.best.config.semantic_hash(),
        });
        let mut tops = vec![open.best];
        for _ in 0..top_k {
            match open.unexplored.pop() {
                Some(e) => tops.push(scored(&ev, &e.config)),
                None => break,
            }
        }
        self.state = StageState::Done(tops, ev.into_recorder());
    }

    /// How far the search has run.
    fn position(&self) -> StagePosition {
        StagePosition {
            stage_count: self.stage_count,
            iterations: self.trace.iterations.len(),
            done: !self.is_open(),
        }
    }

    /// The finished search's top-k pool, trace and recorder.
    fn finish(self) -> (Vec<ScoredConfig>, SearchTrace, Recorder) {
        let StageState::Done(tops, rec) = self.state else {
            unreachable!("the driver merges only finished stage counts")
        };
        (tops, self.trace, rec)
    }
}

/// `config` with its predicted quality.
fn scored(ev: &CachedEvaluator<'_>, config: &ParallelConfig) -> ScoredConfig {
    let est = ev.evaluate_unchecked(config);
    ScoredConfig {
        config: config.clone(),
        score: est.score(),
        iteration_time: est.iteration_time,
        oom: est.oom(),
    }
}

/// One step's view of an open stage count: its evaluator and its state,
/// borrowed in place.
struct Ctx<'a> {
    ev: &'a CachedEvaluator<'a>,
    /// Debug-build check of what generation carries (compiled out in
    /// release builds).
    check: ScoreCheck<'a>,
    opts: &'a SearchOptions,
    rec: &'a Recorder,
    stage_count: usize,
    st: &'a mut OpenStage,
    deadline: Option<Instant>,
    /// Rejections of the running iteration, folded into its `iteration`
    /// event. Taken when that event is emitted, so it is empty between
    /// iterations — where rounds end — and needs no checkpoint field.
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
            self.st.rng.shuffle(&mut resources);
        }
        for resource in resources {
            let mut prims: Vec<Primitive> = if self.opts.gen_options.enable_zero {
                Primitive::eligible_for_extended(resource)
            } else {
                Primitive::eligible_for(resource)
            };
            if !self.opts.use_heuristic2 {
                self.st.rng.shuffle(&mut prims);
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
                self.st.rng.shuffle(&mut idx);
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
                self.ev,
                step.config,
                step.est,
                prim,
                step.bottleneck.stage,
                step.resource,
                self.opts.gen_options,
            ) {
                if !self.st.visited.insert(cand.fingerprint) {
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
    /// candidate: accept it, or offer it to the backtrack heap and put it
    /// in the hop pool.
    fn settle_candidate(
        &mut self,
        step: &HopStep<'_>,
        cand: Candidate,
        cest: ConfigEstimate,
        pool: &mut Vec<PoolEntry>,
    ) -> Option<(ParallelConfig, usize)> {
        let h = cand.fingerprint;
        self.st.explored += 1;
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
            self.rec.count_keyed(
                Family::PrimitivesApplied,
                cand.primitive.name(),
                cand.primitives_applied as u64,
            );
            self.rec
                .observe(HistKind::ScoreDelta, (init_score - score) / init_score);
            self.rec
                .observe(HistKind::HopDepth, (hop + cand.primitives_applied) as f64);
            return Some((cand.config, hop + cand.primitives_applied));
        }
        self.rec.count(Counter::CandidatesRejected);
        self.rejected.note(h, score);
        self.st.tie_counter += 1;
        let cap = Backtrack::cap(self.opts.max_iterations, self.st.next_iter, self.opts.top_k);
        self.st.unexplored.push(
            HeapEntry {
                score,
                tie: self.st.tie_counter,
                config: cand.config.clone(),
            },
            cap,
        );
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
        let cfg = tiny_config();
        let mut heap = BinaryHeap::new();
        for (score, tie) in [(3.0, 1), (1.0, 2), (2.0, 3), (1.0, 4)] {
            heap.push(entry(&cfg, score, tie));
        }
        let first = heap.pop().expect("non-empty");
        assert_eq!(first.score, 1.0);
        // Tie broken deterministically: lower tie id first.
        assert_eq!(first.tie, 2);
        assert_eq!(heap.pop().expect("second").score, 1.0);
        assert_eq!(heap.pop().expect("third").score, 2.0);
    }

    fn tiny_config() -> ParallelConfig {
        balanced_init(
            &gpt3_custom("t", 2, 256, 4, 128, 1000, 16),
            &ClusterSpec::v100(1, 2),
            1,
        )
        .expect("init")
    }

    fn entry(cfg: &ParallelConfig, score: f64, tie: u64) -> HeapEntry {
        HeapEntry {
            score,
            tie,
            config: cfg.clone(),
        }
    }

    fn popped(e: HeapEntry) -> (u64, u64) {
        (e.score.to_bits(), e.tie)
    }

    /// What one schedule popped, as `(score bits, tie)`: from the
    /// `Backtrack`, from the plain heap, and the `Backtrack`'s largest
    /// length.
    type Schedule = (Vec<(u64, u64)>, Vec<(u64, u64)>, usize);

    /// Runs one seeded stage-count schedule through a `Backtrack` and a
    /// plain heap: each of `iterations` iterations pushes up to 40
    /// entries drawn from 6 scores (so most tie) under that iteration's
    /// cap, then pops at most once; the end drains `top_k`.
    fn backtrack_schedule(
        seed: u64,
        max_iterations: usize,
        iterations: usize,
        top_k: usize,
    ) -> Schedule {
        let cfg = tiny_config();
        let mut rng = SplitMix64::new(seed);
        let mut bounded = Backtrack::default();
        let mut reference = BinaryHeap::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut tie = 0;
        let mut longest = 0;
        for iter in 0..iterations {
            let cap = Backtrack::cap(max_iterations, iter, top_k);
            for _ in 0..rng.next_below(41) {
                tie += 1;
                let score = 1.0 + rng.next_below(6) as f64;
                bounded.push(entry(&cfg, score, tie), cap);
                reference.push(entry(&cfg, score, tie));
                longest = longest.max(bounded.len());
            }
            if rng.next_below(2) == 0 {
                got.extend(bounded.pop().map(popped));
                want.extend(reference.pop().map(popped));
            }
        }
        for _ in 0..top_k {
            got.extend(bounded.pop().map(popped));
            want.extend(reference.pop().map(popped));
        }
        (got, want, longest)
    }

    #[test]
    fn backtrack_pops_what_an_unbounded_heap_pops() {
        for seed in 0..64 {
            for max_iterations in [1, 3, 8, 12] {
                for top_k in [0, 1, 5] {
                    let (got, want, longest) =
                        backtrack_schedule(seed, max_iterations, max_iterations, top_k);
                    assert_eq!(got, want, "seed {seed}, {max_iterations} its, top {top_k}");
                    assert!(longest <= 2 * (max_iterations + top_k));
                }
            }
        }
    }

    #[test]
    fn backtrack_with_an_unlimited_budget_keeps_everything() {
        assert_eq!(Backtrack::cap(usize::MAX, 0, 5), usize::MAX);
        assert_eq!(Backtrack::cap(usize::MAX, 7, usize::MAX), usize::MAX);
        for seed in 0..8 {
            let (got, want, longest) = backtrack_schedule(seed, usize::MAX, 30, 5);
            assert_eq!(got, want, "seed {seed}");
            assert!(longest > 2 * (30 + 5), "seed {seed}: nothing dropped");
        }
    }

    #[test]
    fn backtrack_with_no_pops_left_keeps_nothing() {
        let cfg = tiny_config();
        assert_eq!(Backtrack::cap(3, 3, 0), 0);
        let mut heap = Backtrack::default();
        for tie in 0..5 {
            heap.push(entry(&cfg, 1.0, tie), 0);
            assert_eq!(heap.len(), 0);
        }
        assert!(heap.pop().is_none());
    }

    #[test]
    fn backtrack_under_a_large_cap_keeps_every_push() {
        let cfg = tiny_config();
        let mut heap = Backtrack::default();
        let mut reference = BinaryHeap::new();
        for tie in 0..20 {
            let score = (tie % 3) as f64;
            heap.push(entry(&cfg, score, tie), 100);
            reference.push(entry(&cfg, score, tie));
        }
        assert_eq!(heap.len(), 20);
        let got: Vec<_> = std::iter::from_fn(|| heap.pop().map(popped)).collect();
        let want: Vec<_> = std::iter::from_fn(|| reference.pop().map(popped)).collect();
        assert_eq!(got, want);
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
    fn a_past_deadline_ends_the_stage_count_whatever_the_bound() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let search = AcesoSearch::new(&m, &c, &db, opts());
        let pm = PerfModel::new(&m, &c, &db);
        for bound in [Some(0), Some(5), None] {
            let mut stage = StageSearch::new(&search, 2, false, &pm).expect("init");
            stage.step(&search, bound, Some(Instant::now()));
            assert!(!stage.is_open(), "bound {bound:?}: a past deadline ends it");
            assert_eq!(stage.position().iterations, 0);
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
                ..SearchOptions::default()
            },
        )
        .run()
        .expect("runs");
        assert!(r.wall_time < Duration::from_secs(20));
    }

    #[test]
    fn an_unlimited_iteration_budget_ends_at_its_deadline() {
        // A library call, or a request to a daemon whose
        // `--max-iterations 0` lifts the limit, can ask for `usize::MAX`
        // iterations: the backtrack cap must saturate, not overflow.
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let r = AcesoSearch::new(
            &m,
            &c,
            &db,
            SearchOptions {
                max_iterations: usize::MAX,
                time_budget: Some(Duration::from_millis(200)),
                ..SearchOptions::default()
            },
        )
        .run()
        .expect("runs");
        assert!(r.wall_time < Duration::from_secs(20));
    }
}
