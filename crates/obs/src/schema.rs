//! The machine-checkable schema registry.
//!
//! [`EVENTS`], [`COUNTERS`], and [`HISTOGRAMS`] describe every event
//! kind, field, counter, and histogram the crate can emit. The contract
//! is enforced in two directions:
//!
//! 1. tests in this module check that the registry matches the
//!    serialiser
//!    ([`Event::to_json_value`](crate::event::Event::to_json_value))
//!    field-for-field, in order, and
//! 2. the repository's `tests/docs.rs` checks that every registry name
//!    appears in `docs/OBSERVABILITY.md`, so the human-facing schema
//!    document cannot silently drift from the code.

/// Version stamped into every metric snapshot as `schema_version`.
/// Bump when an event field or metric name changes meaning.
///
/// v2: the always-zero `perf_validated` counter was removed and the
/// incremental-evaluation counters `perf_incremental_hits` /
/// `perf_full_evals` were added.
///
/// v3: the serve-daemon counters `profile_cache_hits` /
/// `profile_cache_misses` / `serve_requests` / `serve_rejected` were
/// added (they stay zero in library-only runs).
///
/// v4: the crash-recovery counters `checkpoints_written` /
/// `search_resumed` / `client_retries` and the server-level events
/// `search_resumed` / `search_restarted` were added (all stay zero in
/// runs that never touch a checkpoint).
///
/// v5: the keyed `audit_findings` counter family was added to the
/// snapshot (static-verifier findings by audit rule, mirroring the
/// shape of `primitives_applied`; stays empty outside `aceso audit`
/// runs).
///
/// v6: the in-stage worker-pool counters were added:
/// `search_worker_batches` (deterministic) and a scheduling-dependent
/// steal count (removed in v10).
///
/// v7: the serve-reactor counters were added. `serve_connections_open`
/// (open-connection gauge sampled at snapshot time),
/// `serve_pipelined_requests` (requests that joined a connection already
/// carrying work), and `serve_fairness_deferrals` (round-robin dispatch
/// decisions that preferred an idle connection over a pipelined one)
/// are all timing- or scheduling-dependent and listed in
/// [`NONDETERMINISTIC_COUNTERS`]. They are server-level counters: they
/// appear in daemon `stats` snapshots, never in per-request response
/// metrics, so the per-request determinism contract is unaffected.
///
/// v8: the persistent profile-store counters `store_hits` /
/// `store_misses` / `store_writes` / `store_evictions` /
/// `store_rejected` and the `store_degraded` event were added. All are
/// server-level (daemon `stats` snapshots only) and deterministic for a
/// given request sequence against a given store directory; they stay
/// zero when the daemon runs without `--store-dir`.
///
/// v9: the chaos-engine surface was added. The keyed
/// `chaos_faults_injected` counter family (injected filesystem faults
/// by kind) and the `fault_injected` event exist only under
/// `aceso chaos` / `ChaosFs` runs and are nondeterministic-masked
/// ([`NONDETERMINISTIC_FAMILIES`]); the `retention_sweep_errors`
/// counter and `sweep_degraded` event surface retention-sweep removals
/// that used to fail silently (both deterministic for a fixed fault
/// schedule, zero in healthy runs).
///
/// v10: the in-stage worker pool was removed, and with it the
/// scheduling-dependent steal counter. `search_worker_batches` keeps its
/// name and values and is now described as what it counts on the serial
/// search path: per-primitive generation steps.
///
/// v11: the `candidate_rejected` event was removed. Each `iteration`
/// event now summarises its rejections instead: `candidates_rejected`
/// (the count; summed over a stream it equals the counter of the same
/// name) and the lowest-scoring rejected candidate's
/// `lowest_rejected_fingerprint` / `lowest_rejected_score` (both null
/// when the iteration rejected nothing). Counters are unchanged.
///
/// v12: the serve reactor was removed, and with it the
/// `serve_pipelined_requests` and `serve_fairness_deferrals` counters.
/// `serve_connections_open` keeps its name and meaning: the connections
/// open on the daemon's one front-end, sampled at snapshot time.
pub const SCHEMA_VERSION: u64 = 12;

/// One documented field of an event kind.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    /// JSON key of the field.
    pub name: &'static str,
    /// JSON type (`uint`, `int`, `float`, `string`, `bool`,
    /// `array[uint]`; a `|null` suffix marks a field that may be null).
    pub ty: &'static str,
    /// Unit or value domain, `-` when dimensionless.
    pub unit: &'static str,
}

/// One documented event kind.
#[derive(Debug, Clone, Copy)]
pub struct EventSpec {
    /// The `kind` tag of the event's JSONL line.
    pub kind: &'static str,
    /// What the event records.
    pub doc: &'static str,
    /// Payload fields in serialisation order (after `seq` and `kind`).
    pub fields: &'static [FieldSpec],
}

const fn f(name: &'static str, ty: &'static str, unit: &'static str) -> FieldSpec {
    FieldSpec { name, ty, unit }
}

/// Every event kind the crate can emit, in the order of
/// [`Event::samples`](crate::event::Event::samples).
pub const EVENTS: &[EventSpec] = &[
    EventSpec {
        kind: "search_start",
        doc: "a full search started",
        fields: &[
            f("stage_counts", "array[uint]", "pipeline stages"),
            f("max_hops", "uint", "hops"),
            f("max_iterations", "uint", "iterations"),
            f("top_k", "uint", "configs"),
            f("seed", "uint", "-"),
            f("heuristic2", "bool", "-"),
        ],
    },
    EventSpec {
        kind: "stage_start",
        doc: "one stage-count sub-search started",
        fields: &[
            f("stage_count", "uint", "pipeline stages"),
            f("init_fingerprint", "uint", "semantic hash"),
            f("init_score", "float", "seconds"),
        ],
    },
    EventSpec {
        kind: "bottleneck",
        doc: "a bottleneck was selected for alleviation (Heuristic-1)",
        fields: &[
            f("stage_count", "uint", "pipeline stages"),
            f("iteration", "uint", "index"),
            f("stage", "uint", "stage index"),
            f("resource", "string", "compute|communication|memory"),
        ],
    },
    EventSpec {
        kind: "candidate_accepted",
        doc: "a candidate improved the iteration's starting score and was accepted",
        fields: &[
            f("stage_count", "uint", "pipeline stages"),
            f("fingerprint", "uint", "semantic hash"),
            f("score", "float", "seconds"),
            f("bottleneck_stage", "uint", "stage index"),
            f("primitive", "string", "Table-1 name"),
            f("primitives_applied", "uint", "primitives"),
            f("hop_depth", "uint", "hops"),
        ],
    },
    EventSpec {
        kind: "iteration",
        doc: "one iteration of Algorithm 1 finished",
        fields: &[
            f("stage_count", "uint", "pipeline stages"),
            f("iteration", "uint", "index"),
            f("bottlenecks_tried", "uint", "bottlenecks"),
            f("hops_used", "uint", "hops"),
            f("improved", "bool", "-"),
            f("candidates_rejected", "uint", "candidates"),
            f("lowest_rejected_fingerprint", "uint|null", "semantic hash"),
            f("lowest_rejected_score", "float|null", "seconds"),
        ],
    },
    EventSpec {
        kind: "finetune",
        doc: "the op-level fine-tuning pass ran on an accepted configuration",
        fields: &[
            f("stage_count", "uint", "pipeline stages"),
            f("evaluations", "uint", "configs"),
            f("fingerprint", "uint", "semantic hash"),
            f("adopted", "bool", "-"),
        ],
    },
    EventSpec {
        kind: "backtrack",
        doc: "the search backtracked to a rejected configuration",
        fields: &[
            f("stage_count", "uint", "pipeline stages"),
            f("fingerprint", "uint", "semantic hash"),
            f("score", "float", "seconds"),
        ],
    },
    EventSpec {
        kind: "stage_end",
        doc: "one stage-count sub-search finished",
        fields: &[
            f("stage_count", "uint", "pipeline stages"),
            f("iterations", "uint", "iterations"),
            f("explored", "uint", "configs"),
            f("best_score", "float", "seconds"),
            f("best_fingerprint", "uint", "semantic hash"),
        ],
    },
    EventSpec {
        kind: "search_end",
        doc: "the full search finished",
        fields: &[
            f("explored", "uint", "configs"),
            f("stage_counts_searched", "uint", "sub-searches"),
            f("best_score", "float", "seconds"),
            f("best_fingerprint", "uint", "semantic hash"),
        ],
    },
    EventSpec {
        kind: "search_resumed",
        doc: "a search was resumed from a durable checkpoint (server-level only)",
        fields: &[
            f("request_id", "string", "-"),
            f("iterations_done", "uint", "iterations"),
        ],
    },
    EventSpec {
        kind: "search_restarted",
        doc: "an unusable checkpoint was discarded and the search restarted fresh (server-level only)",
        fields: &[f("request_id", "string", "-"), f("reason", "string", "-")],
    },
    EventSpec {
        kind: "sim_run",
        doc: "the discrete-event simulator executed one configuration",
        fields: &[
            f("stages", "uint", "pipeline stages"),
            f("microbatches", "uint", "microbatches"),
            f("tasks", "uint", "tasks"),
            f("iteration_time", "float", "seconds"),
            f("peak_memory", "uint", "bytes"),
            f("schedule", "string", "1f1b|gpipe"),
            f("oom", "bool", "-"),
        ],
    },
    EventSpec {
        kind: "store_degraded",
        doc: "an unusable persistent-store entry was discarded and the profile database rebuilt fresh (server-level only)",
        fields: &[f("file", "string", "-"), f("reason", "string", "-")],
    },
    EventSpec {
        kind: "fault_injected",
        doc: "the chaos engine injected one filesystem fault (chaos runs only; nondeterministic-masked)",
        fields: &[
            f("op", "uint", "operation ordinal"),
            f("fault", "string", "eio|enospc|short_write|rename_fail|crash"),
            f("path", "string", "-"),
        ],
    },
    EventSpec {
        kind: "sweep_degraded",
        doc: "a retention sweep failed to remove one or more victims (server-level only)",
        fields: &[f("dir", "string", "-"), f("errors", "uint", "failed removals")],
    },
];

/// Every counter name with its description, in snapshot order.
pub const COUNTERS: &[(&str, &str)] = &[
    ("perf_evaluations", "performance-model evaluations"),
    (
        "perf_incremental_hits",
        "evaluations that reused at least one cached per-stage estimate",
    ),
    (
        "perf_full_evals",
        "evaluations that estimated every stage from scratch",
    ),
    ("oom_predictions", "evaluations predicting out-of-memory"),
    ("candidates_generated", "candidates evaluated post-dedup"),
    (
        "candidates_accepted",
        "candidates that improved and were accepted",
    ),
    (
        "candidates_rejected",
        "candidates rejected (offered to the backtrack heap)",
    ),
    (
        "candidates_deduped",
        "candidates skipped as already visited",
    ),
    ("iterations_total", "Algorithm-1 iterations run"),
    (
        "iterations_improved",
        "iterations that improved the configuration",
    ),
    ("finetune_evals", "configurations evaluated by fine-tuning"),
    ("backtracks", "backtracks to rejected configurations"),
    ("stage_searches", "stage-count sub-searches started"),
    ("sim_runs", "simulator executions"),
    ("sim_tasks", "pipeline tasks executed by the simulator"),
    (
        "profile_cache_hits",
        "serve requests resolved from the cross-request ProfileDb cache",
    ),
    (
        "profile_cache_misses",
        "serve requests that built a ProfileDb before searching",
    ),
    (
        "serve_requests",
        "well-formed search requests accepted by the serve daemon",
    ),
    (
        "serve_rejected",
        "requests rejected by the serve daemon (backpressure, budget, validation)",
    ),
    (
        "checkpoints_written",
        "search checkpoints written to durable storage",
    ),
    (
        "search_resumed",
        "searches resumed from a previously written checkpoint",
    ),
    (
        "client_retries",
        "resubmissions of an already-spooled request id (client retries)",
    ),
    ("search_worker_batches", "per-primitive generation steps"),
    (
        "serve_connections_open",
        "connections open on the serve daemon, sampled at snapshot time",
    ),
    (
        "store_hits",
        "cache misses resolved from the persistent on-disk profile store",
    ),
    (
        "store_misses",
        "store consultations that found no usable entry",
    ),
    (
        "store_writes",
        "profile databases written back to the persistent store",
    ),
    (
        "store_evictions",
        "store entries evicted from disk by the LRU byte budget",
    ),
    (
        "store_rejected",
        "decodable store entries skipped for precision mismatch",
    ),
    (
        "retention_sweep_errors",
        "retention-sweep removals that failed (spool TTL or store LRU)",
    ),
];

/// Counters whose values legitimately vary between runs with identical
/// seeds and options: the serve daemon's open-connection gauge
/// (connection timing). Every bit-identity comparison (goldens,
/// checkpoint-resume equality) masks these names; they are server-level
/// only, so a search never moves them. Everything else in
/// [`COUNTERS`] is covered by the determinism contract.
pub const NONDETERMINISTIC_COUNTERS: &[&str] = &["serve_connections_open"];

/// Counters recorded only at server level: by the serve daemon's own
/// recorder (its `stats` snapshots and drain report) or, for
/// `checkpoints_written` / `search_resumed`, on the CLI's stderr. A
/// search's own snapshot never moves them, so a library run reports
/// them as zero; `BENCH_search.json` leaves them out.
pub const SERVER_COUNTERS: &[&str] = &[
    "profile_cache_hits",
    "profile_cache_misses",
    "serve_requests",
    "serve_rejected",
    "checkpoints_written",
    "search_resumed",
    "client_retries",
    "serve_connections_open",
    "store_hits",
    "store_misses",
    "store_writes",
    "store_evictions",
    "store_rejected",
    "retention_sweep_errors",
];

/// Keyed counter *families* whose contents legitimately vary between
/// runs: fault placement in `chaos_faults_injected` follows the seeded
/// chaos schedule, not the workload, so bit-identity comparisons mask
/// the whole family (the per-request determinism contract is unaffected
/// — the family stays empty outside chaos runs). The `fault_injected`
/// event is masked for the same reason.
pub const NONDETERMINISTIC_FAMILIES: &[&str] = &["chaos_faults_injected"];

/// Every histogram name with its unit and description, in snapshot
/// order.
pub const HISTOGRAMS: &[(&str, &str, &str)] = &[
    (
        "eval_latency_us",
        "microseconds",
        "perf-model evaluation latency (wall clock; metrics-only)",
    ),
    (
        "score_delta",
        "ratio",
        "relative score improvement of accepted candidates",
    ),
    (
        "hop_depth",
        "hops",
        "multi-hop depth of accepted candidates",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::metrics::{Counter, HistKind};
    use aceso_util::json::Value;

    /// Direction 1: the registry matches the serialiser exactly.
    #[test]
    fn registry_matches_serialiser_field_for_field() {
        let samples = Event::samples();
        assert_eq!(samples.len(), EVENTS.len(), "registry/variant count");
        for (event, spec) in samples.iter().zip(EVENTS) {
            assert_eq!(event.kind(), spec.kind);
            let v = event.to_json_value();
            let Value::Object(fields) = &v else {
                panic!("event must serialise to an object")
            };
            let emitted: Vec<&str> = fields.iter().skip(1).map(|(k, _)| k.as_str()).collect();
            let specced: Vec<&str> = spec.fields.iter().map(|f| f.name).collect();
            assert_eq!(emitted, specced, "field order for {}", spec.kind);
            for (field, fspec) in fields.iter().skip(1).zip(spec.fields) {
                let ty = match fspec.ty.strip_suffix("|null") {
                    Some(_) if field.1 == Value::Null => continue,
                    Some(ty) => ty,
                    None => fspec.ty,
                };
                let ok = match ty {
                    "uint" => matches!(field.1, Value::UInt(_)),
                    "int" => matches!(field.1, Value::Int(_) | Value::UInt(_)),
                    "float" => matches!(field.1, Value::Float(_)),
                    "string" => matches!(field.1, Value::Str(_)),
                    "bool" => matches!(field.1, Value::Bool(_)),
                    "array[uint]" => matches!(field.1, Value::Array(_)),
                    other => panic!("unknown spec type {other}"),
                };
                assert!(ok, "type of {}.{}", spec.kind, fspec.name);
            }
        }
    }

    #[test]
    fn registry_covers_all_counters_and_histograms() {
        assert_eq!(COUNTERS.len(), Counter::ALL.len());
        for (c, (name, _)) in Counter::ALL.iter().zip(COUNTERS) {
            assert_eq!(c.name(), *name);
        }
        assert_eq!(HISTOGRAMS.len(), HistKind::ALL.len());
        for (h, (name, _, _)) in HistKind::ALL.iter().zip(HISTOGRAMS) {
            assert_eq!(h.name(), *name);
        }
    }

    #[test]
    fn nondeterministic_counters_are_registered_counters() {
        for name in NONDETERMINISTIC_COUNTERS.iter().chain(SERVER_COUNTERS) {
            assert!(
                COUNTERS.iter().any(|(n, _)| n == name),
                "`{name}` is listed as non-deterministic or server-level but is not a registered counter"
            );
        }
    }
}
