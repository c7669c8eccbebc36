//! Monotonic counters and fixed-bucket histograms.
//!
//! All metric identities the schema documents are enforced here or by
//! the cross-crate tests: counters only ever increase, merging is
//! commutative summation, and histogram buckets are compile-time
//! constants so two runs bucket identically.

use aceso_util::json::{obj, Value};
use std::collections::BTreeMap;

/// The fixed monotonic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Performance-model evaluations (checked + unchecked).
    PerfEvaluations,
    /// Evaluations served incrementally: at least one per-stage estimate
    /// was reused from the `CachedEvaluator`'s memo table.
    PerfIncrementalHits,
    /// Evaluations that estimated every stage from scratch (cached-path
    /// cold misses plus every uncached `PerfModel` evaluation).
    PerfFullEvals,
    /// Evaluations predicting out-of-memory.
    OomPredictions,
    /// Candidates generated and evaluated by the multi-hop search
    /// (post-deduplication).
    CandidatesGenerated,
    /// Generated candidates that improved on their iteration's starting
    /// score and were accepted.
    CandidatesAccepted,
    /// Generated candidates that did not improve, each offered to the
    /// backtrack heap, which keeps only those it can still pop.
    CandidatesRejected,
    /// Candidates skipped because their fingerprint was already visited.
    CandidatesDeduped,
    /// Algorithm-1 iterations run.
    IterationsTotal,
    /// Iterations that found an improving configuration.
    IterationsImproved,
    /// Configurations evaluated by the §4.2 fine-tuning pass.
    FinetuneEvals,
    /// Backtracks to the best rejected configuration left in the
    /// backtrack heap.
    Backtracks,
    /// Stage-count sub-searches started.
    StageSearches,
    /// Discrete-event simulator executions.
    SimRuns,
    /// Pipeline tasks executed by the simulator.
    SimTasks,
    /// Serve-mode requests resolved from the cross-request
    /// `ProfileCache` without rebuilding the `ProfileDb`.
    ProfileCacheHits,
    /// Serve-mode requests that had to build (or partially rebuild) a
    /// `ProfileDb` before searching.
    ProfileCacheMisses,
    /// Well-formed search requests accepted by the serve daemon.
    ServeRequests,
    /// Requests rejected by the serve daemon (backpressure, budget, or
    /// validation failures).
    ServeRejected,
    /// Search checkpoints the serve daemon spooled to durable storage.
    CheckpointsWritten,
    /// Searches resumed from a previously written checkpoint.
    SearchResumed,
    /// Resubmissions of an already-spooled request id observed by the
    /// serve daemon (client-side retries after a crash or disconnect).
    ClientRetries,
    /// Per-primitive generation steps: one per (primitive, bottleneck
    /// resource) candidate-generation call of the multi-hop search.
    SearchWorkerBatches,
    /// Connections currently open on the serve daemon, sampled at
    /// snapshot time (a gauge rendered through the counter machinery).
    /// **Timing-dependent** — listed in
    /// [`crate::schema::NONDETERMINISTIC_COUNTERS`]; server-level only.
    ServeConnectionsOpen,
    /// Cache misses resolved from the persistent on-disk profile store
    /// instead of a fresh build; server-level only.
    StoreHits,
    /// Store consultations that found no usable entry (absent file, or
    /// one that degraded to a rebuild); server-level only.
    StoreMisses,
    /// Profile databases written back to the persistent store after a
    /// fresh build; server-level only.
    StoreWrites,
    /// Store entries evicted from disk by the LRU byte budget;
    /// server-level only.
    StoreEvictions,
    /// Store entries that decoded cleanly but were skipped because their
    /// precision mismatched the request's build (the in-memory merge
    /// path's precision-filter rule, applied to the disk tier);
    /// server-level only.
    StoreRejected,
    /// Retention-sweep removals (spool TTL or store LRU) that failed for
    /// a reason other than the file already being gone. Hygiene errors
    /// used to be swallowed; they now surface here plus a
    /// `sweep_degraded` event (INV-CHAOS-SWEEP); server-level only.
    RetentionSweepErrors,
}

impl Counter {
    /// All counters, in snapshot order.
    pub const ALL: [Counter; 30] = [
        Counter::PerfEvaluations,
        Counter::PerfIncrementalHits,
        Counter::PerfFullEvals,
        Counter::OomPredictions,
        Counter::CandidatesGenerated,
        Counter::CandidatesAccepted,
        Counter::CandidatesRejected,
        Counter::CandidatesDeduped,
        Counter::IterationsTotal,
        Counter::IterationsImproved,
        Counter::FinetuneEvals,
        Counter::Backtracks,
        Counter::StageSearches,
        Counter::SimRuns,
        Counter::SimTasks,
        Counter::ProfileCacheHits,
        Counter::ProfileCacheMisses,
        Counter::ServeRequests,
        Counter::ServeRejected,
        Counter::CheckpointsWritten,
        Counter::SearchResumed,
        Counter::ClientRetries,
        Counter::SearchWorkerBatches,
        Counter::ServeConnectionsOpen,
        Counter::StoreHits,
        Counter::StoreMisses,
        Counter::StoreWrites,
        Counter::StoreEvictions,
        Counter::StoreRejected,
        Counter::RetentionSweepErrors,
    ];

    /// The counter's snapshot-key name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PerfEvaluations => "perf_evaluations",
            Counter::PerfIncrementalHits => "perf_incremental_hits",
            Counter::PerfFullEvals => "perf_full_evals",
            Counter::OomPredictions => "oom_predictions",
            Counter::CandidatesGenerated => "candidates_generated",
            Counter::CandidatesAccepted => "candidates_accepted",
            Counter::CandidatesRejected => "candidates_rejected",
            Counter::CandidatesDeduped => "candidates_deduped",
            Counter::IterationsTotal => "iterations_total",
            Counter::IterationsImproved => "iterations_improved",
            Counter::FinetuneEvals => "finetune_evals",
            Counter::Backtracks => "backtracks",
            Counter::StageSearches => "stage_searches",
            Counter::SimRuns => "sim_runs",
            Counter::SimTasks => "sim_tasks",
            Counter::ProfileCacheHits => "profile_cache_hits",
            Counter::ProfileCacheMisses => "profile_cache_misses",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeRejected => "serve_rejected",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::SearchResumed => "search_resumed",
            Counter::ClientRetries => "client_retries",
            Counter::SearchWorkerBatches => "search_worker_batches",
            Counter::ServeConnectionsOpen => "serve_connections_open",
            Counter::StoreHits => "store_hits",
            Counter::StoreMisses => "store_misses",
            Counter::StoreWrites => "store_writes",
            Counter::StoreEvictions => "store_evictions",
            Counter::StoreRejected => "store_rejected",
            Counter::RetentionSweepErrors => "retention_sweep_errors",
        }
    }
}

/// The fixed histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistKind {
    /// Performance-model evaluation latency, microseconds (wall clock —
    /// the one non-deterministic metric; excluded from the event
    /// stream).
    EvalLatencyUs,
    /// Relative score improvement of accepted candidates,
    /// `(init − new) / init`.
    ScoreDelta,
    /// Multi-hop depth of accepted candidates (Table-1 primitives
    /// applied on the path).
    HopDepth,
}

impl HistKind {
    /// All histograms, in snapshot order.
    pub const ALL: [HistKind; 3] = [
        HistKind::EvalLatencyUs,
        HistKind::ScoreDelta,
        HistKind::HopDepth,
    ];

    /// The histogram's snapshot-key name.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::EvalLatencyUs => "eval_latency_us",
            HistKind::ScoreDelta => "score_delta",
            HistKind::HopDepth => "hop_depth",
        }
    }

    /// Upper bucket edges (inclusive); values above the last edge land
    /// in an implicit overflow bucket.
    pub fn edges(self) -> &'static [f64] {
        match self {
            HistKind::EvalLatencyUs => &[
                1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
                10_000.0, 25_000.0, 50_000.0, 100_000.0,
            ],
            HistKind::ScoreDelta => &[1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.2, 0.5, 1.0],
            HistKind::HopDepth => &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 16.0],
        }
    }

    fn index(self) -> usize {
        match self {
            HistKind::EvalLatencyUs => 0,
            HistKind::ScoreDelta => 1,
            HistKind::HopDepth => 2,
        }
    }
}

/// One fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    kind: HistKind,
    /// One count per edge, plus the trailing overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(kind: HistKind) -> Self {
        Self {
            kind,
            buckets: vec![0; kind.edges().len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let edges = self.kind.edges();
        let idx = edges.iter().position(|&e| v <= e).unwrap_or(edges.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another histogram of the same kind into this one.
    fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.kind, other.kind);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot as JSON: count/sum/min/max plus `{le, count}` buckets
    /// (the final bucket has `le: null` — the overflow bucket).
    pub fn to_json_value(&self) -> Value {
        let edges = self.kind.edges();
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let le = edges.get(i).map_or(Value::Null, |&e| Value::Float(e));
                obj([("le", le), ("count", Value::UInt(c))])
            })
            .collect();
        obj([
            ("count", Value::UInt(self.count)),
            ("sum", Value::Float(self.sum)),
            (
                "min",
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.min)
                },
            ),
            (
                "max",
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.max)
                },
            ),
            ("buckets", Value::Array(buckets)),
        ])
    }
}

/// The keyed counter families: monotone counts under string keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Accepted candidates by headline primitive, weighted by the
    /// Table-1 applications each bundles.
    PrimitivesApplied,
    /// Static-verifier findings by audit rule (schema v5). Stays empty
    /// in search and serve runs; `aceso audit` fills it.
    AuditFindings,
    /// Injected filesystem faults by kind (`eio`, `enospc`,
    /// `short_write`, `rename_fail`, `crash`; schema v9). Stays empty in
    /// production runs; `aceso chaos` fills it. Fault placement depends
    /// on the seeded schedule, so the family is nondeterministic-masked
    /// (see [`crate::schema::NONDETERMINISTIC_FAMILIES`]).
    ChaosFaultsInjected,
}

impl Family {
    /// All families, in snapshot order.
    pub const ALL: [Family; 3] = [
        Family::PrimitivesApplied,
        Family::AuditFindings,
        Family::ChaosFaultsInjected,
    ];

    /// The family's snapshot-key name.
    pub fn name(self) -> &'static str {
        match self {
            Family::PrimitivesApplied => "primitives_applied",
            Family::AuditFindings => "audit_findings",
            Family::ChaosFaultsInjected => "chaos_faults_injected",
        }
    }

    /// Row-label prefix of the family's keys in summary and diff tables
    /// (`primitive[inc-dp]`).
    pub fn label(self) -> &'static str {
        match self {
            Family::PrimitivesApplied => "primitive",
            Family::AuditFindings => "audit",
            Family::ChaosFaultsInjected => "chaos",
        }
    }
}

/// A full metric set: fixed counters, the keyed counter [`Family`]s,
/// and the fixed histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Indexed by `Counter as usize` ([`Counter::ALL`] order).
    counters: [u64; Counter::ALL.len()],
    /// Indexed by `Family as usize` ([`Family::ALL`] order).
    keyed: [BTreeMap<&'static str, u64>; Family::ALL.len()],
    histograms: Vec<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            counters: [0; Counter::ALL.len()],
            keyed: Default::default(),
            histograms: HistKind::ALL.iter().map(|&k| Histogram::new(k)).collect(),
        }
    }
}

impl Metrics {
    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c as usize] += n;
    }

    /// Current value of a counter.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Adds `n` to `key` of a keyed counter family.
    pub fn add_keyed(&mut self, f: Family, key: &'static str, n: u64) {
        *self.keyed[f as usize].entry(key).or_insert(0) += n;
    }

    /// The counters of one keyed family, sorted by key.
    pub fn keyed(&self, f: Family) -> &BTreeMap<&'static str, u64> {
        &self.keyed[f as usize]
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, h: HistKind, v: f64) {
        self.histograms[h.index()].observe(v);
    }

    /// The histogram of one kind.
    pub fn histogram(&self, h: HistKind) -> &Histogram {
        &self.histograms[h.index()]
    }

    /// Merges another metric set into this one (commutative sums).
    pub fn merge(&mut self, other: &Metrics) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (mine, theirs) in self.keyed.iter_mut().zip(&other.keyed) {
            for (&k, &v) in theirs {
                *mine.entry(k).or_insert(0) += v;
            }
        }
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            a.merge(b);
        }
    }

    /// Snapshot of all counters as a JSON object (schema order).
    pub fn counters_json(&self) -> Value {
        Value::Object(
            Counter::ALL
                .iter()
                .map(|&c| (c.name().to_string(), Value::UInt(self.counter(c))))
                .collect(),
        )
    }

    /// Snapshot of all histograms as a JSON object (schema order).
    pub fn histograms_json(&self) -> Value {
        Value::Object(
            HistKind::ALL
                .iter()
                .map(|&h| (h.name().to_string(), self.histogram(h).to_json_value()))
                .collect(),
        )
    }

    /// Snapshot of one keyed family as a JSON object (sorted keys).
    pub fn keyed_json(&self, f: Family) -> Value {
        Value::Object(
            self.keyed(f)
                .iter()
                .map(|(&k, &v)| (k.to_string(), Value::UInt(v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Metrics::default();
        a.add(Counter::PerfEvaluations, 3);
        a.add(Counter::CandidatesAccepted, 1);
        let mut b = Metrics::default();
        b.add(Counter::PerfEvaluations, 2);
        b.add_keyed(Family::PrimitivesApplied, "inc-dp", 2);
        b.add_keyed(Family::AuditFindings, "oom", 1);
        a.add_keyed(Family::AuditFindings, "oom", 1);
        a.merge(&b);
        assert_eq!(a.counter(Counter::PerfEvaluations), 5);
        assert_eq!(a.counter(Counter::CandidatesAccepted), 1);
        assert_eq!(a.keyed(Family::PrimitivesApplied)["inc-dp"], 2);
        assert_eq!(a.keyed(Family::AuditFindings)["oom"], 2);
        assert!(a.keyed(Family::ChaosFaultsInjected).is_empty());
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut m = Metrics::default();
        for v in [1.0, 2.0, 3.0, 100.0] {
            m.observe(HistKind::HopDepth, v);
        }
        let h = m.histogram(HistKind::HopDepth);
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), 26.5);
        // 100.0 exceeds the last edge (16) → overflow bucket.
        let v = h.to_json_value();
        let buckets = v.field("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.last().unwrap().field("le").unwrap(), &Value::Null);
        assert_eq!(
            buckets
                .last()
                .unwrap()
                .field("count")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
    }

    #[test]
    fn empty_histogram_has_null_min_max() {
        let m = Metrics::default();
        let v = m.histogram(HistKind::ScoreDelta).to_json_value();
        assert_eq!(v.field("min").unwrap(), &Value::Null);
        assert_eq!(v.field("max").unwrap(), &Value::Null);
    }

    #[test]
    fn snapshots_cover_all_names() {
        let m = Metrics::default();
        let c = m.counters_json();
        for counter in Counter::ALL {
            assert!(c.get(counter.name()).is_some(), "{}", counter.name());
        }
        let h = m.histograms_json();
        for hist in HistKind::ALL {
            assert!(h.get(hist.name()).is_some(), "{}", hist.name());
        }
    }

    /// `add` and `counter` index by `Counter as usize`, and `Family`
    /// storage by `Family as usize`: each `ALL` must list its variants
    /// in declaration order.
    #[test]
    fn all_lists_variants_in_declaration_order() {
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{}", c.name());
        }
        for (i, f) in Family::ALL.into_iter().enumerate() {
            assert_eq!(f as usize, i, "{}", f.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Family::ALL.iter().map(|f| f.name()));
        names.extend(HistKind::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
