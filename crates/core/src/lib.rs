//! The Aceso search algorithm — the paper's primary contribution.
//!
//! Aceso treats parallel-configuration search as *iterative bottleneck
//! alleviation*: evaluate the current configuration with the performance
//! model, find the bottleneck stage (Heuristic-1, [`bottleneck`]), query
//! the reconfiguration-primitives table for primitives whose resource
//! signature relieves the constrained resource ([`primitives`], Table 1),
//! and chase sequences of primitives with a bounded multi-hop backtracking
//! search until a strictly better configuration appears ([`search`],
//! Algorithms 1 & 2). An op-level fine-tuning pass ([`finetune`], §4.2)
//! polishes each accepted configuration, and independent pipeline stage
//! counts are searched on parallel threads (§4.3).

#![deny(missing_docs)]

pub mod bottleneck;
pub mod checkpoint;
pub mod finetune;
pub mod invariants;
pub mod primitives;
pub mod search;
pub mod trace;
pub mod transform;

pub use bottleneck::{ranked_bottlenecks, Bottleneck};
pub use checkpoint::{
    cluster_fingerprint, model_fingerprint, options_fingerprint, read_checkpoint, write_checkpoint,
    CheckpointError, PositionError, SearchCheckpoint, StagePosition, CHECKPOINT_SCHEMA_VERSION,
};
pub use primitives::{Candidate, Primitive, Resource, Trend};
pub use search::{
    AcesoSearch, AfterRound, ResumeError, ScoredConfig, SearchError, SearchOptions, SearchResult,
    SearchStep,
};
pub use trace::{AcceptedConfig, ConvergencePoint, IterationRecord, SearchTrace};
