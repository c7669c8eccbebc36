//! The analytic performance model (paper §3.3).
//!
//! Given a [`aceso_config::ParallelConfig`], [`PerfModel::evaluate`]
//! predicts, per pipeline stage: compute and communication time per
//! microbatch, memory consumption (Eq. 1, including recomputation and the
//! deliberate reserved-memory overestimate), per-stage iteration time
//! (Eq. 2: warmup + steady + cooldown under 1F1B), and rolls them into the
//! configuration's iteration time, throughput and feasibility.
//!
//! The search consumes this as its only oracle: it never needs absolute
//! accuracy, only a faithful *ordering* of configurations and a resource
//! breakdown to identify bottlenecks — the same stance the paper takes.

#![deny(missing_docs)]

pub mod cached;
pub mod estimate;
pub mod grid;
pub mod model;
pub mod p2p;

pub use cached::{CachedEvaluator, Evaluator, MemoEntry};
pub use estimate::{ConfigEstimate, StageEstimate};
pub use grid::LatencyGrid;
pub use model::PerfModel;
pub use p2p::P2pMemo;
