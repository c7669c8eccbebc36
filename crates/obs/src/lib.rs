//! # aceso-obs — structured observability for the Aceso search stack
//!
//! The paper's headline claim is *search cost*; tracking it requires the
//! search loop to stop being a black box. This crate provides the three
//! instrumentation shapes the stack needs, with zero external
//! dependencies and zero ambient state:
//!
//! * **Events** ([`Event`]) — a typed, documented stream of what the
//!   search did: stage-count sub-search spans, per-iteration outcomes,
//!   every accepted/rejected candidate (fingerprint, score, bottleneck
//!   stage, primitive), fine-tune passes, backtracks, and simulator runs.
//!   Events carry *only deterministic fields* (no wall-clock timestamps),
//!   so two identical seeded searches emit byte-identical JSONL streams.
//! * **Counters** ([`Counter`] plus the keyed `primitives_applied`
//!   family) — monotone totals: perf-model evaluations, candidates
//!   generated/accepted/rejected/deduplicated, OOM predictions,
//!   iterations, backtracks, simulator tasks.
//! * **Histograms** ([`HistKind`]) — fixed-bucket distributions:
//!   perf-model evaluation latency (wall clock; metrics-only, never in
//!   the event stream), relative score deltas of accepted candidates,
//!   and hop depths.
//!
//! Instrumented code records into a [`Recorder`]. Recorders are
//! *thread-scoped*: the parallel stage-count search creates one per
//! thread (no locks, no contention) and the parent merges them into an
//! [`ObsReport`] in deterministic stage-count order after join. A
//! disabled recorder ([`Recorder::disabled`]) skips even the
//! construction of event payloads — every recording call takes a closure
//! or is guarded by one branch on a plain bool — so the instrumentation
//! compiles down to nothing measurable when metrics are off.
//!
//! The JSONL event schema and the metric snapshot format are a
//! documented public contract: see `docs/OBSERVABILITY.md`, which is
//! cross-checked against [`schema`]'s registry by tests in this crate.

#![deny(missing_docs)]

pub mod diff;
pub mod event;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod schema;

pub use diff::{render_diff, DiffError};
pub use event::Event;
pub use metrics::{Counter, Family, HistKind, Histogram, Metrics};
pub use recorder::Recorder;
pub use report::{without_wall_clock, ObsReport};
pub use schema::{
    EventSpec, FieldSpec, NONDETERMINISTIC_COUNTERS, SCHEMA_VERSION, SERVER_COUNTERS,
};
