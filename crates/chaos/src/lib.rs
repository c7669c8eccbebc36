//! Deterministic whole-system chaos engine for the Aceso serve stack.
//!
//! Crash-safety claims that are only tested unit-by-unit rot at the
//! seams: the store's temp+rename discipline, the daemon's spool
//! recovery, the client's retry ladder and the retention sweeps each
//! have their own tests, but nothing exercised them *together* under
//! hostile I/O. This crate closes that gap with seeded, replayable
//! whole-system scenarios:
//!
//! * [`schedule`] — [`Schedule`], one scenario's full fault plan
//!   (filesystem faults per daemon generation via
//!   [`aceso_util::fsio::FaultSchedule`], a frame-boundary network cut,
//!   an injected worker panic, overlapping daemon generations), derived
//!   deterministically from a single `u64` seed
//!   (INV-CHAOS-DETERMINISM), plus the serialisable [`Trace`];
//! * [`engine`] — [`Engine`], which runs submit → crash → restart →
//!   resubmit daemon lifecycles in-process under a schedule and checks
//!   the standing oracles after every run (INV-CHAOS-ORACLE): no torn
//!   store entry visible, recovery succeeds within bounded retries,
//!   responses bit-identical to the fault-free reference, panics
//!   contained;
//! * [`mod@shrink`] — the greedy delta-debugger that minimises a violating
//!   schedule into a 1-minimal replayable trace (INV-CHAOS-SHRINK).
//!
//! The CLI face is `aceso chaos run --seed-range A..B` and
//! `aceso chaos replay FILE`; `--mutate store-direct-write` arms a
//! deliberate atomicity bug that the oracles must catch, which keeps
//! the whole harness honest. The guaranteed-behavior matrix these
//! scenarios enforce lives in `docs/RELIABILITY.md`.

pub mod engine;
pub mod schedule;
pub mod shrink;

pub use engine::{
    chaos_request, response_fingerprint, ChaosOptions, ChaosReport, Engine, ScenarioOutcome,
};
pub use schedule::{Schedule, Trace};
pub use shrink::shrink;
