//! The typed observability event stream.
//!
//! Every variant of [`Event`] is one JSONL line in the `--events-out`
//! stream. Fields are deliberately restricted to deterministic
//! quantities — fingerprints, scores, indices — never wall-clock times,
//! so identical seeded searches serialise to byte-identical streams.
//! The field-by-field contract lives in `docs/OBSERVABILITY.md` and is
//! enforced against [`crate::schema`] by tests.

use aceso_util::json::Value;

/// One structured observability event.
///
/// `stage_count` on search events identifies the pipeline-stage-count
/// sub-search (the paper searches stage counts on parallel threads);
/// `fingerprint` fields are `ParallelConfig::semantic_hash` values;
/// `score` fields are OOM-penalised predicted iteration times in
/// seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A full search started.
    SearchStart {
        /// Pipeline stage counts that will be searched.
        stage_counts: Vec<usize>,
        /// `MaxHops` bound (Algorithm 2).
        max_hops: usize,
        /// Iteration budget per stage count.
        max_iterations: usize,
        /// How many best configurations the search returns.
        top_k: usize,
        /// RNG seed (consumed only when Heuristic-2 is off).
        seed: u64,
        /// Whether Heuristic-2 ranking is on.
        heuristic2: bool,
    },
    /// One stage-count sub-search started.
    StageStart {
        /// Pipeline stage count of this sub-search.
        stage_count: usize,
        /// Fingerprint of the initial configuration.
        init_fingerprint: u64,
        /// Score of the initial configuration (seconds).
        init_score: f64,
    },
    /// A bottleneck was selected for alleviation (Heuristic-1).
    Bottleneck {
        /// Pipeline stage count of the sub-search.
        stage_count: usize,
        /// Iteration index within the sub-search (0-based).
        iteration: usize,
        /// Bottleneck stage index.
        stage: usize,
        /// Top-ranked scarce resource of that stage.
        resource: &'static str,
    },
    /// A generated candidate scored strictly better than the iteration's
    /// starting configuration and was accepted.
    CandidateAccepted {
        /// Pipeline stage count of the sub-search.
        stage_count: usize,
        /// Fingerprint of the accepted configuration.
        fingerprint: u64,
        /// Score of the accepted configuration (seconds).
        score: f64,
        /// Bottleneck stage the improving primitive targeted.
        bottleneck_stage: usize,
        /// Headline primitive that produced the candidate (Table 1 name).
        primitive: &'static str,
        /// Table-1 primitive applications the candidate bundles.
        primitives_applied: usize,
        /// Multi-hop depth at acceptance (primitives applied on the path).
        hop_depth: usize,
    },
    /// One iteration of Algorithm 1 finished.
    Iteration {
        /// Pipeline stage count of the sub-search.
        stage_count: usize,
        /// Iteration index within the sub-search (0-based).
        iteration: usize,
        /// Ranked bottlenecks attempted (1 = Heuristic-1 was right).
        bottlenecks_tried: usize,
        /// Hop depth of the improving sequence (0 when none found).
        hops_used: usize,
        /// Whether the iteration improved the configuration.
        improved: bool,
        /// Generated candidates the iteration rejected (offered to the
        /// backtrack heap, which keeps those it can still pop); sums to
        /// the `candidates_rejected` counter.
        candidates_rejected: usize,
        /// `(fingerprint, score)` of the lowest-scoring rejected
        /// candidate, the first seen on a tie; `None` when the iteration
        /// rejected nothing.
        lowest_rejected: Option<(u64, f64)>,
    },
    /// The §4.2 op-level fine-tuning pass ran on an accepted
    /// configuration.
    Finetune {
        /// Pipeline stage count of the sub-search.
        stage_count: usize,
        /// Configurations evaluated by the tuning pass.
        evaluations: usize,
        /// Fingerprint of the tuned configuration.
        fingerprint: u64,
        /// Whether the tuned configuration was adopted (it is new, or
        /// tuning was a no-op).
        adopted: bool,
    },
    /// The search backtracked to the best rejected configuration left
    /// in the backtrack heap.
    Backtrack {
        /// Pipeline stage count of the sub-search.
        stage_count: usize,
        /// Fingerprint of the configuration resumed from.
        fingerprint: u64,
        /// Its score at parking time (seconds).
        score: f64,
    },
    /// One stage-count sub-search finished.
    StageEnd {
        /// Pipeline stage count of this sub-search.
        stage_count: usize,
        /// Iterations run.
        iterations: usize,
        /// Configurations evaluated by this sub-search.
        explored: usize,
        /// Best score found (seconds).
        best_score: f64,
        /// Fingerprint of the best configuration.
        best_fingerprint: u64,
    },
    /// The full search finished.
    SearchEnd {
        /// Total configurations evaluated across all sub-searches.
        explored: usize,
        /// Stage-count sub-searches that produced a result.
        stage_counts_searched: usize,
        /// Best score across all sub-searches (seconds).
        best_score: f64,
        /// Fingerprint of the overall best configuration.
        best_fingerprint: u64,
    },
    /// A search was resumed from a durable checkpoint (server-level
    /// only: resume is transparent to the request's own event stream,
    /// which stays bit-identical to an uninterrupted run's).
    SearchResumed {
        /// Request id the checkpoint was spooled under.
        request_id: String,
        /// Algorithm-1 iterations already completed in the checkpoint;
        /// the resume replays them.
        iterations_done: usize,
    },
    /// A checkpoint could not be used (unknown schema version, truncated
    /// or corrupt JSON, fingerprint mismatch) and the search restarted
    /// fresh instead of erroring (server-level only, like
    /// [`Event::SearchResumed`]).
    SearchRestarted {
        /// Request id the unusable checkpoint was spooled under.
        request_id: String,
        /// Why the checkpoint was rejected.
        reason: String,
    },
    /// The discrete-event simulator executed one configuration.
    SimRun {
        /// Pipeline stages of the executed configuration.
        stages: usize,
        /// Microbatches per iteration.
        microbatches: usize,
        /// Pipeline tasks executed (forward + backward).
        tasks: usize,
        /// Measured iteration time (seconds).
        iteration_time: f64,
        /// Measured peak memory (bytes).
        peak_memory: u64,
        /// Pipeline schedule executed (`1f1b` or `gpipe`).
        schedule: &'static str,
        /// Whether peak memory exceeded device capacity.
        oom: bool,
    },
    /// A persistent-store entry could not be used (corrupt, truncated,
    /// foreign, or future-version file) and the profile database was
    /// rebuilt fresh instead of erroring (server-level only, mirroring
    /// the spool contract of [`Event::SearchRestarted`]).
    StoreDegraded {
        /// Store file name the unusable entry lived under.
        file: String,
        /// Why the entry was rejected.
        reason: String,
    },
    /// The chaos engine injected one filesystem fault (schema v9).
    /// Emitted only under `aceso chaos` / `ChaosFs` runs, never in
    /// production; placement follows the seeded schedule, so streams
    /// carrying it are nondeterministic-masked like the
    /// `chaos_faults_injected` family.
    FaultInjected {
        /// Ordinal of the faultable filesystem operation the fault
        /// landed on (0-based, in workload call order).
        op: u64,
        /// Injected fault kind (`eio`, `enospc`, `short_write`,
        /// `rename_fail`, `crash`).
        kind: String,
        /// Path of the operation's target.
        path: String,
    },
    /// A retention sweep (spool TTL or store LRU) failed to remove one
    /// or more victims (schema v9). Hygiene kept going — the files stay
    /// until the next sweep — but the failure is surfaced instead of
    /// swallowed (INV-CHAOS-SWEEP; pairs with the
    /// `retention_sweep_errors` counter).
    SweepDegraded {
        /// Directory the sweep ran over.
        dir: String,
        /// Removals that failed (excluding already-gone files).
        errors: u64,
    },
}

impl Event {
    /// The event's kind tag — the `kind` field of its JSONL line.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SearchStart { .. } => "search_start",
            Event::StageStart { .. } => "stage_start",
            Event::Bottleneck { .. } => "bottleneck",
            Event::CandidateAccepted { .. } => "candidate_accepted",
            Event::Iteration { .. } => "iteration",
            Event::Finetune { .. } => "finetune",
            Event::Backtrack { .. } => "backtrack",
            Event::StageEnd { .. } => "stage_end",
            Event::SearchEnd { .. } => "search_end",
            Event::SearchResumed { .. } => "search_resumed",
            Event::SearchRestarted { .. } => "search_restarted",
            Event::SimRun { .. } => "sim_run",
            Event::StoreDegraded { .. } => "store_degraded",
            Event::FaultInjected { .. } => "fault_injected",
            Event::SweepDegraded { .. } => "sweep_degraded",
        }
    }

    /// Serialises the event's payload fields (everything but `seq`,
    /// which the stream writer assigns) in schema order.
    pub fn to_json_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("kind".to_string(), Value::Str(self.kind().to_string()))];
        let mut put = |name: &str, v: Value| fields.push((name.to_string(), v));
        match self {
            Event::SearchStart {
                stage_counts,
                max_hops,
                max_iterations,
                top_k,
                seed,
                heuristic2,
            } => {
                put(
                    "stage_counts",
                    Value::Array(
                        stage_counts
                            .iter()
                            .map(|&p| Value::UInt(p as u64))
                            .collect(),
                    ),
                );
                put("max_hops", Value::UInt(*max_hops as u64));
                put("max_iterations", Value::UInt(*max_iterations as u64));
                put("top_k", Value::UInt(*top_k as u64));
                put("seed", Value::UInt(*seed));
                put("heuristic2", Value::Bool(*heuristic2));
            }
            Event::StageStart {
                stage_count,
                init_fingerprint,
                init_score,
            } => {
                put("stage_count", Value::UInt(*stage_count as u64));
                put("init_fingerprint", Value::UInt(*init_fingerprint));
                put("init_score", Value::Float(*init_score));
            }
            Event::Bottleneck {
                stage_count,
                iteration,
                stage,
                resource,
            } => {
                put("stage_count", Value::UInt(*stage_count as u64));
                put("iteration", Value::UInt(*iteration as u64));
                put("stage", Value::UInt(*stage as u64));
                put("resource", Value::Str(resource.to_string()));
            }
            Event::CandidateAccepted {
                stage_count,
                fingerprint,
                score,
                bottleneck_stage,
                primitive,
                primitives_applied,
                hop_depth,
            } => {
                put("stage_count", Value::UInt(*stage_count as u64));
                put("fingerprint", Value::UInt(*fingerprint));
                put("score", Value::Float(*score));
                put("bottleneck_stage", Value::UInt(*bottleneck_stage as u64));
                put("primitive", Value::Str(primitive.to_string()));
                put(
                    "primitives_applied",
                    Value::UInt(*primitives_applied as u64),
                );
                put("hop_depth", Value::UInt(*hop_depth as u64));
            }
            Event::Iteration {
                stage_count,
                iteration,
                bottlenecks_tried,
                hops_used,
                improved,
                candidates_rejected,
                lowest_rejected,
            } => {
                put("stage_count", Value::UInt(*stage_count as u64));
                put("iteration", Value::UInt(*iteration as u64));
                put("bottlenecks_tried", Value::UInt(*bottlenecks_tried as u64));
                put("hops_used", Value::UInt(*hops_used as u64));
                put("improved", Value::Bool(*improved));
                put(
                    "candidates_rejected",
                    Value::UInt(*candidates_rejected as u64),
                );
                put(
                    "lowest_rejected_fingerprint",
                    lowest_rejected.map_or(Value::Null, |(fp, _)| Value::UInt(fp)),
                );
                put(
                    "lowest_rejected_score",
                    lowest_rejected.map_or(Value::Null, |(_, score)| Value::Float(score)),
                );
            }
            Event::Finetune {
                stage_count,
                evaluations,
                fingerprint,
                adopted,
            } => {
                put("stage_count", Value::UInt(*stage_count as u64));
                put("evaluations", Value::UInt(*evaluations as u64));
                put("fingerprint", Value::UInt(*fingerprint));
                put("adopted", Value::Bool(*adopted));
            }
            Event::Backtrack {
                stage_count,
                fingerprint,
                score,
            } => {
                put("stage_count", Value::UInt(*stage_count as u64));
                put("fingerprint", Value::UInt(*fingerprint));
                put("score", Value::Float(*score));
            }
            Event::StageEnd {
                stage_count,
                iterations,
                explored,
                best_score,
                best_fingerprint,
            } => {
                put("stage_count", Value::UInt(*stage_count as u64));
                put("iterations", Value::UInt(*iterations as u64));
                put("explored", Value::UInt(*explored as u64));
                put("best_score", Value::Float(*best_score));
                put("best_fingerprint", Value::UInt(*best_fingerprint));
            }
            Event::SearchEnd {
                explored,
                stage_counts_searched,
                best_score,
                best_fingerprint,
            } => {
                put("explored", Value::UInt(*explored as u64));
                put(
                    "stage_counts_searched",
                    Value::UInt(*stage_counts_searched as u64),
                );
                put("best_score", Value::Float(*best_score));
                put("best_fingerprint", Value::UInt(*best_fingerprint));
            }
            Event::SearchResumed {
                request_id,
                iterations_done,
            } => {
                put("request_id", Value::Str(request_id.clone()));
                put("iterations_done", Value::UInt(*iterations_done as u64));
            }
            Event::SearchRestarted { request_id, reason } => {
                put("request_id", Value::Str(request_id.clone()));
                put("reason", Value::Str(reason.clone()));
            }
            Event::SimRun {
                stages,
                microbatches,
                tasks,
                iteration_time,
                peak_memory,
                schedule,
                oom,
            } => {
                put("stages", Value::UInt(*stages as u64));
                put("microbatches", Value::UInt(*microbatches as u64));
                put("tasks", Value::UInt(*tasks as u64));
                put("iteration_time", Value::Float(*iteration_time));
                put("peak_memory", Value::UInt(*peak_memory));
                put("schedule", Value::Str(schedule.to_string()));
                put("oom", Value::Bool(*oom));
            }
            Event::StoreDegraded { file, reason } => {
                put("file", Value::Str(file.clone()));
                put("reason", Value::Str(reason.clone()));
            }
            Event::FaultInjected { op, kind, path } => {
                // `kind` is the stream-level event tag, so the fault
                // kind serialises under `fault`.
                put("op", Value::UInt(*op));
                put("fault", Value::Str(kind.clone()));
                put("path", Value::Str(path.clone()));
            }
            Event::SweepDegraded { dir, errors } => {
                put("dir", Value::Str(dir.clone()));
                put("errors", Value::UInt(*errors));
            }
        }
        Value::Object(fields)
    }

    /// One representative instance of every variant, in stream order —
    /// the emitter registry the schema tests cross-check against
    /// `docs/OBSERVABILITY.md`.
    pub fn samples() -> Vec<Event> {
        vec![
            Event::SearchStart {
                stage_counts: vec![1, 2],
                max_hops: 7,
                max_iterations: 48,
                top_k: 5,
                seed: 0,
                heuristic2: true,
            },
            Event::StageStart {
                stage_count: 2,
                init_fingerprint: 1,
                init_score: 1.0,
            },
            Event::Bottleneck {
                stage_count: 2,
                iteration: 0,
                stage: 0,
                resource: "compute",
            },
            Event::CandidateAccepted {
                stage_count: 2,
                fingerprint: 2,
                score: 0.9,
                bottleneck_stage: 0,
                primitive: "inc-dp",
                primitives_applied: 1,
                hop_depth: 1,
            },
            Event::Iteration {
                stage_count: 2,
                iteration: 0,
                bottlenecks_tried: 1,
                hops_used: 1,
                improved: true,
                candidates_rejected: 2,
                lowest_rejected: Some((3, 1.1)),
            },
            Event::Finetune {
                stage_count: 2,
                evaluations: 4,
                fingerprint: 2,
                adopted: true,
            },
            Event::Backtrack {
                stage_count: 2,
                fingerprint: 3,
                score: 1.1,
            },
            Event::StageEnd {
                stage_count: 2,
                iterations: 1,
                explored: 10,
                best_score: 0.9,
                best_fingerprint: 2,
            },
            Event::SearchEnd {
                explored: 10,
                stage_counts_searched: 2,
                best_score: 0.9,
                best_fingerprint: 2,
            },
            Event::SearchResumed {
                request_id: "req-1".to_string(),
                iterations_done: 12,
            },
            Event::SearchRestarted {
                request_id: "req-1".to_string(),
                reason: "unknown schema version".to_string(),
            },
            Event::SimRun {
                stages: 2,
                microbatches: 8,
                tasks: 32,
                iteration_time: 0.95,
                peak_memory: 1 << 30,
                schedule: "1f1b",
                oom: false,
            },
            Event::StoreDegraded {
                file: "0000000000000007-000000000000002a.adb".to_string(),
                reason: "checksum mismatch".to_string(),
            },
            Event::FaultInjected {
                op: 3,
                kind: "short_write".to_string(),
                path: "/store/0000000000000007-000000000000002a.adb.tmp.42".to_string(),
            },
            Event::SweepDegraded {
                dir: "/spool".to_string(),
                errors: 1,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_serialises_with_kind_first() {
        for e in Event::samples() {
            let v = e.to_json_value();
            let Value::Object(fields) = &v else {
                panic!("event must serialise to an object")
            };
            assert_eq!(fields[0].0, "kind");
            assert_eq!(fields[0].1, Value::Str(e.kind().to_string()));
            // Round-trips through the JSON layer.
            let text = v.to_string_compact();
            assert_eq!(Value::parse(&text).expect("parses"), v);
        }
    }

    #[test]
    fn iteration_rejection_summary_encodes_null_or_both_fields() {
        let iteration = |candidates_rejected, lowest_rejected| Event::Iteration {
            stage_count: 4,
            iteration: 7,
            bottlenecks_tried: 2,
            hops_used: 0,
            improved: false,
            candidates_rejected,
            lowest_rejected,
        };
        let none = iteration(0, None);
        let text = none.to_json_value().to_string_compact();
        assert!(
            text.ends_with(
                "\"candidates_rejected\":0,\"lowest_rejected_fingerprint\":null,\
                 \"lowest_rejected_score\":null}"
            ),
            "{text}"
        );
        let some = iteration(31, Some((u64::MAX, 0.0412)));
        let text = some.to_json_value().to_string_compact();
        assert!(
            text.ends_with(
                "\"candidates_rejected\":31,\"lowest_rejected_fingerprint\":18446744073709551615,\
                 \"lowest_rejected_score\":0.0412}"
            ),
            "{text}"
        );
    }

    #[test]
    fn samples_cover_every_kind_once() {
        let mut kinds: Vec<&str> = Event::samples().iter().map(Event::kind).collect();
        let n = kinds.len();
        kinds.dedup();
        assert_eq!(kinds.len(), n, "duplicate kind in samples");
    }
}
