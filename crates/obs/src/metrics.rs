//! Monotonic counters and fixed-bucket histograms.
//!
//! All metric identities the schema documents are enforced here or by
//! the cross-crate tests: counters only ever increase, merging is
//! commutative summation, and histogram buckets are compile-time
//! constants so two runs bucket identically.

use aceso_util::json::{obj, JsonError, Value};
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
    /// Generated candidates that did not improve and were parked.
    CandidatesRejected,
    /// Candidates skipped because their fingerprint was already visited.
    CandidatesDeduped,
    /// Algorithm-1 iterations run.
    IterationsTotal,
    /// Iterations that found an improving configuration.
    IterationsImproved,
    /// Configurations evaluated by the §4.2 fine-tuning pass.
    FinetuneEvals,
    /// Backtracks to parked configurations from the unexplored pool.
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
    /// Search checkpoints written to durable storage (CLI `--checkpoint`
    /// or serve-daemon spooling).
    CheckpointsWritten,
    /// Searches resumed from a previously written checkpoint.
    SearchResumed,
    /// Resubmissions of an already-spooled request id observed by the
    /// serve daemon (client-side retries after a crash or disconnect).
    ClientRetries,
    /// Per-primitive generation steps: one per (primitive, bottleneck
    /// resource) candidate-generation call of the multi-hop search.
    SearchWorkerBatches,
    /// Connections currently open on the serve reactor, sampled at
    /// snapshot time (a gauge rendered through the counter machinery).
    /// **Timing-dependent** — listed in
    /// [`crate::schema::NONDETERMINISTIC_COUNTERS`]; server-level only.
    ServeConnectionsOpen,
    /// Request frames that joined a connection already carrying queued
    /// or in-flight work (pipelining). **Timing-dependent** — whether a
    /// follow-up request counts as pipelined depends on when its
    /// predecessor finished; server-level only.
    ServePipelinedRequests,
    /// Dispatch decisions where the reactor's round-robin preferred a
    /// connection with no work in flight while another connection's
    /// pipelined request waited (one per waiting connection).
    /// **Scheduling-dependent**; server-level only.
    ServeFairnessDeferrals,
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
    pub const ALL: [Counter; 32] = [
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
        Counter::ServePipelinedRequests,
        Counter::ServeFairnessDeferrals,
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
            Counter::ServePipelinedRequests => "serve_pipelined_requests",
            Counter::ServeFairnessDeferrals => "serve_fairness_deferrals",
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

    /// Exact checkpoint snapshot: bucket counts plus sum/min/max as
    /// IEEE-754 bit patterns. Unlike [`Histogram::to_json_value`] (which
    /// degrades the empty-histogram `±inf` sentinels to `null`), this form
    /// restores the struct bit-for-bit via
    /// [`Histogram::from_checkpoint_value`].
    fn to_checkpoint_value(&self) -> Value {
        obj([
            (
                "buckets",
                Value::Array(self.buckets.iter().map(|&c| Value::UInt(c)).collect()),
            ),
            ("count", Value::UInt(self.count)),
            ("sum_bits", Value::UInt(self.sum.to_bits())),
            ("min_bits", Value::UInt(self.min.to_bits())),
            ("max_bits", Value::UInt(self.max.to_bits())),
        ])
    }

    /// Restores a histogram from [`Histogram::to_checkpoint_value`] output.
    fn from_checkpoint_value(kind: HistKind, v: &Value) -> Result<Histogram, JsonError> {
        let buckets: Vec<u64> = v
            .field("buckets")?
            .as_array()?
            .iter()
            .map(Value::as_u64)
            .collect::<Result<_, _>>()?;
        if buckets.len() != kind.edges().len() + 1 {
            return Err(JsonError::shape(format!(
                "histogram `{}` expects {} buckets, got {}",
                kind.name(),
                kind.edges().len() + 1,
                buckets.len()
            )));
        }
        Ok(Histogram {
            kind,
            buckets,
            count: v.field("count")?.as_u64()?,
            sum: f64::from_bits(v.field("sum_bits")?.as_u64()?),
            min: f64::from_bits(v.field("min_bits")?.as_u64()?),
            max: f64::from_bits(v.field("max_bits")?.as_u64()?),
        })
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

/// A full metric set: fixed counters, the keyed `primitives_applied`,
/// `audit_findings`, and `chaos_faults_injected` counter families, and
/// the fixed histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    counters: [u64; Counter::ALL.len()],
    /// Accepted candidates by headline primitive, weighted by the
    /// Table-1 applications each bundles.
    primitives: BTreeMap<&'static str, u64>,
    /// Static-verifier findings by audit rule (schema v5). Stays empty
    /// in search and serve runs; `aceso audit` fills it.
    audit_findings: BTreeMap<&'static str, u64>,
    /// Injected filesystem faults by kind (schema v9). Stays empty in
    /// production runs; `aceso chaos` fills it. Fault placement depends
    /// on the seeded schedule, so the family is nondeterministic-masked
    /// (see [`crate::schema::NONDETERMINISTIC_FAMILIES`]).
    chaos_faults: BTreeMap<&'static str, u64>,
    histograms: Vec<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            counters: [0; Counter::ALL.len()],
            primitives: BTreeMap::new(),
            audit_findings: BTreeMap::new(),
            chaos_faults: BTreeMap::new(),
            histograms: HistKind::ALL.iter().map(|&k| Histogram::new(k)).collect(),
        }
    }
}

impl Metrics {
    /// Adds `n` to a counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[Counter::ALL
            .iter()
            .position(|&x| x == c)
            .expect("counter in ALL")] += n;
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[Counter::ALL
            .iter()
            .position(|&x| x == c)
            .expect("counter in ALL")]
    }

    /// Adds `n` to the keyed `primitives_applied` family.
    pub fn add_primitive(&mut self, name: &'static str, n: u64) {
        *self.primitives.entry(name).or_insert(0) += n;
    }

    /// The keyed `primitives_applied` counters, sorted by key.
    pub fn primitives(&self) -> &BTreeMap<&'static str, u64> {
        &self.primitives
    }

    /// Adds `n` to the keyed `audit_findings` family, keyed by audit
    /// rule name.
    pub fn add_audit_finding(&mut self, rule: &'static str, n: u64) {
        *self.audit_findings.entry(rule).or_insert(0) += n;
    }

    /// The keyed `audit_findings` counters, sorted by rule.
    pub fn audit_findings(&self) -> &BTreeMap<&'static str, u64> {
        &self.audit_findings
    }

    /// Adds `n` to the keyed `chaos_faults_injected` family, keyed by
    /// fault kind (`eio`, `enospc`, `short_write`, `rename_fail`,
    /// `crash`).
    pub fn add_chaos_fault(&mut self, kind: &'static str, n: u64) {
        *self.chaos_faults.entry(kind).or_insert(0) += n;
    }

    /// The keyed `chaos_faults_injected` counters, sorted by kind.
    pub fn chaos_faults(&self) -> &BTreeMap<&'static str, u64> {
        &self.chaos_faults
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
        for (&k, &v) in &other.primitives {
            *self.primitives.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.audit_findings {
            *self.audit_findings.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.chaos_faults {
            *self.chaos_faults.entry(k).or_insert(0) += v;
        }
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            a.merge(b);
        }
    }

    /// Exact checkpoint snapshot of the whole metric set: counters by
    /// name, the keyed primitive family, and the histograms in their
    /// bit-exact checkpoint form. Restoring via
    /// [`Metrics::from_checkpoint_value`] reproduces the struct exactly,
    /// so a resumed search's merged snapshot equals an uninterrupted
    /// run's.
    pub fn to_checkpoint_value(&self) -> Value {
        obj([
            ("counters", self.counters_json()),
            ("primitives", self.primitives_json()),
            ("audit_findings", self.audit_findings_json()),
            ("chaos_faults_injected", self.chaos_faults_json()),
            (
                "histograms",
                Value::Object(
                    HistKind::ALL
                        .iter()
                        .map(|&h| {
                            (
                                h.name().to_string(),
                                self.histogram(h).to_checkpoint_value(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores a metric set from [`Metrics::to_checkpoint_value`] output.
    ///
    /// `intern` resolves keys of the `primitives_applied` family back to
    /// the `&'static str` names the emitting code uses; an unresolvable
    /// key (or any unknown counter/histogram name) is a shape error —
    /// callers treat that as an incompatible checkpoint, not a panic.
    pub fn from_checkpoint_value(
        v: &Value,
        intern: &dyn Fn(&str) -> Option<&'static str>,
    ) -> Result<Metrics, JsonError> {
        let mut m = Metrics::default();
        let counters = v.field("counters")?;
        let Value::Object(counter_fields) = counters else {
            return Err(JsonError::shape("`counters` must be an object"));
        };
        if counter_fields.len() != Counter::ALL.len() {
            return Err(JsonError::shape(format!(
                "expected {} counters, got {}",
                Counter::ALL.len(),
                counter_fields.len()
            )));
        }
        for (name, value) in counter_fields {
            let c = Counter::ALL
                .iter()
                .find(|c| c.name() == name)
                .ok_or_else(|| JsonError::shape(format!("unknown counter `{name}`")))?;
            m.add(*c, value.as_u64()?);
        }
        let primitives = v.field("primitives")?;
        let Value::Object(primitive_fields) = primitives else {
            return Err(JsonError::shape("`primitives` must be an object"));
        };
        for (name, value) in primitive_fields {
            let interned = intern(name)
                .ok_or_else(|| JsonError::shape(format!("unknown primitive `{name}`")))?;
            m.add_primitive(interned, value.as_u64()?);
        }
        // `audit_findings` joined the snapshot in schema v5; a missing
        // field is an older (pre-v5) checkpoint with an empty family,
        // not a shape error. Search checkpoints never carry findings,
        // so in practice this object is empty either way.
        if let Some(findings) = v.get("audit_findings") {
            let Value::Object(finding_fields) = findings else {
                return Err(JsonError::shape("`audit_findings` must be an object"));
            };
            for (name, value) in finding_fields {
                let interned = intern(name)
                    .ok_or_else(|| JsonError::shape(format!("unknown audit rule `{name}`")))?;
                m.add_audit_finding(interned, value.as_u64()?);
            }
        }
        // `chaos_faults_injected` joined in schema v9; same pre-version
        // tolerance as `audit_findings` above.
        if let Some(faults) = v.get("chaos_faults_injected") {
            let Value::Object(fault_fields) = faults else {
                return Err(JsonError::shape(
                    "`chaos_faults_injected` must be an object",
                ));
            };
            for (name, value) in fault_fields {
                let interned = intern(name)
                    .ok_or_else(|| JsonError::shape(format!("unknown fault kind `{name}`")))?;
                m.add_chaos_fault(interned, value.as_u64()?);
            }
        }
        let histograms = v.field("histograms")?;
        for kind in HistKind::ALL {
            m.histograms[kind.index()] =
                Histogram::from_checkpoint_value(kind, histograms.field(kind.name())?)?;
        }
        Ok(m)
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

    /// Snapshot of the keyed `primitives_applied` family as a JSON
    /// object (sorted keys).
    pub fn primitives_json(&self) -> Value {
        Value::Object(
            self.primitives
                .iter()
                .map(|(&k, &v)| (k.to_string(), Value::UInt(v)))
                .collect(),
        )
    }

    /// Snapshot of the keyed `audit_findings` family as a JSON object
    /// (sorted keys).
    pub fn audit_findings_json(&self) -> Value {
        Value::Object(
            self.audit_findings
                .iter()
                .map(|(&k, &v)| (k.to_string(), Value::UInt(v)))
                .collect(),
        )
    }

    /// Snapshot of the keyed `chaos_faults_injected` family as a JSON
    /// object (sorted keys).
    pub fn chaos_faults_json(&self) -> Value {
        Value::Object(
            self.chaos_faults
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
        b.add_primitive("inc-dp", 2);
        a.merge(&b);
        assert_eq!(a.counter(Counter::PerfEvaluations), 5);
        assert_eq!(a.counter(Counter::CandidatesAccepted), 1);
        assert_eq!(a.primitives()["inc-dp"], 2);
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

    #[test]
    fn checkpoint_snapshot_round_trips_exactly() {
        let mut m = Metrics::default();
        m.add(Counter::PerfEvaluations, 7);
        m.add(Counter::SearchResumed, 1);
        m.add_primitive("inc-dp", 3);
        m.observe(HistKind::ScoreDelta, 0.015);
        m.observe(HistKind::HopDepth, 4.0);
        // EvalLatencyUs stays empty: its ±inf min/max sentinels must
        // survive the round trip too.
        let intern = |s: &str| (s == "inc-dp").then_some("inc-dp");
        let back =
            Metrics::from_checkpoint_value(&m.to_checkpoint_value(), &intern).expect("round trip");
        assert_eq!(back, m);
    }

    #[test]
    fn audit_findings_round_trip_and_tolerate_pre_v5_checkpoints() {
        let mut m = Metrics::default();
        m.add_audit_finding("PLAN-MEM", 2);
        let intern = |s: &str| (s == "PLAN-MEM").then_some("PLAN-MEM");
        let back =
            Metrics::from_checkpoint_value(&m.to_checkpoint_value(), &intern).expect("round trip");
        assert_eq!(back.audit_findings()["PLAN-MEM"], 2);
        assert_eq!(back, m);
        // A pre-v5 checkpoint has no `audit_findings` field at all:
        // restore must treat it as an empty family, not a shape error.
        let mut old = Metrics::default().to_checkpoint_value();
        if let Value::Object(fields) = &mut old {
            fields.retain(|(k, _)| k != "audit_findings");
        }
        let restored = Metrics::from_checkpoint_value(&old, &|_| None).expect("pre-v5 restores");
        assert!(restored.audit_findings().is_empty());
        // Unknown rule names still fail strictly.
        let mut bad = m.to_checkpoint_value();
        if let Value::Object(fields) = &mut bad {
            if let Some(Value::Object(findings)) = fields
                .iter_mut()
                .find(|(k, _)| k == "audit_findings")
                .map(|(_, v)| v)
            {
                findings.push(("mystery-rule".to_string(), Value::UInt(1)));
            }
        }
        assert!(Metrics::from_checkpoint_value(&bad, &intern).is_err());
    }

    #[test]
    fn chaos_faults_round_trip_and_tolerate_pre_v9_checkpoints() {
        let mut m = Metrics::default();
        m.add_chaos_fault("short_write", 3);
        let intern = |s: &str| (s == "short_write").then_some("short_write");
        let back =
            Metrics::from_checkpoint_value(&m.to_checkpoint_value(), &intern).expect("round trip");
        assert_eq!(back.chaos_faults()["short_write"], 3);
        assert_eq!(back, m);
        // A pre-v9 checkpoint has no `chaos_faults_injected` field.
        let mut old = Metrics::default().to_checkpoint_value();
        if let Value::Object(fields) = &mut old {
            fields.retain(|(k, _)| k != "chaos_faults_injected");
        }
        let restored = Metrics::from_checkpoint_value(&old, &|_| None).expect("pre-v9 restores");
        assert!(restored.chaos_faults().is_empty());
    }

    #[test]
    fn checkpoint_snapshot_rejects_unknown_names() {
        let m = Metrics::default();
        let mut v = m.to_checkpoint_value();
        // Rename a counter key: strict restore must fail, not guess.
        if let Value::Object(fields) = &mut v {
            if let Some(Value::Object(counters)) = fields
                .iter_mut()
                .find(|(k, _)| k == "counters")
                .map(|(_, v)| v)
            {
                counters[0].0 = "not_a_counter".to_string();
            }
        }
        assert!(Metrics::from_checkpoint_value(&v, &|_| None).is_err());
        // Unknown primitive keys fail via the interner.
        let mut p = m.to_checkpoint_value();
        if let Value::Object(fields) = &mut p {
            if let Some(Value::Object(prims)) = fields
                .iter_mut()
                .find(|(k, _)| k == "primitives")
                .map(|(_, v)| v)
            {
                prims.push(("mystery".to_string(), Value::UInt(1)));
            }
        }
        assert!(Metrics::from_checkpoint_value(&p, &|_| None).is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(HistKind::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
