//! Simulated operator profiler and reusable profile database (paper §3.3).
//!
//! The paper builds its performance model on *profiled* per-operator
//! latencies/memory under different partitionings, plus collective times
//! under different group sizes; the profiled database is reused across
//! searches. With no GPUs available, this crate substitutes a *simulated
//! profiler*: an analytic device model ([`device_model`]) plays the role of
//! the hardware, and each "measurement" gets a deterministic per-kernel
//! perturbation (from a stable hash of the kernel identity) so that
//! profiles have the same non-ideal texture real ones do — launch
//! overheads, saturation effects at small per-device work, and
//! bandwidth-bound elementwise kernels.

pub mod db;
pub mod device_model;

pub use db::ProfileDb;
pub use device_model::{op_fwd_time, op_working_set};
