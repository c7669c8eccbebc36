//! Parallel-configuration representation (paper §3.1).
//!
//! A [`ParallelConfig`] unambiguously defines a parallel execution of a
//! model on a cluster: contiguous operator ranges grouped into pipeline
//! stages, a device count per stage, per-operator tensor/data parallelism
//! (`tp × dp == stage GPUs`), per-operator recomputation flags, and one
//! global (aggregated) microbatch size. This representation is compatible
//! with Megatron-LM's global settings and with Alpa-style per-stage plans,
//! and it is the object Aceso's reconfiguration primitives rewrite.

pub mod describe;
pub mod init;
pub mod parallel;
pub mod validate;

pub use describe::{describe, shape, ConfigShape};
pub use init::{balanced_init, imbalance_gpu_init, imbalance_op_init};
pub use parallel::{OpParallel, ParallelConfig, Stage, StageConfig, StageMut};
pub use validate::ConfigError;
