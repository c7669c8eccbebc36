//! Serve mode: a long-lived Aceso search daemon.
//!
//! Profiling a model is the expensive, amortisable part of an Aceso run
//! (the paper's §3.3 notes the profiled database "can be reused by the
//! search for models that contain the same operators"). A one-shot CLI
//! pays that cost on every invocation; this crate turns the search into
//! a std-only TCP service so the cost is paid once and shared:
//!
//! * [`wire`] — 4-byte big-endian length-prefixed JSON framing over
//!   `std::net`, reusing the in-tree JSON [`Value`] machinery;
//! * [`proto`] — the typed frame vocabulary ([`Request`], error/status/
//!   event frame builders);
//! * [`cache`] — [`ProfileCache`], the cross-request LRU profile-db
//!   cache keyed by (model fingerprint, cluster fingerprint);
//! * [`server`] — [`Server`], the daemon's one front-end: an accept
//!   loop with a thread per connection (bounded by `--max-connections`),
//!   admission that queues a request until one of the bounded worker
//!   slots frees, in-order answers to pipelined requests, graceful
//!   drain, per-connection i/o deadlines, (with `--spool-dir`)
//!   crash-recovery checkpoint spooling, and one server-level metric
//!   set that its connection threads and profile cache count into (the
//!   14 server counters behind `stats` and the drain report);
//! * [`client`] — [`read_response`], which decodes one response into a
//!   [`Response`], and the blocking helpers built on it:
//!   [`submit`], [`submit_pipelined`], [`submit_with_retries`] (bounded
//!   backoff with deterministic jitter), plus [`shutdown`] and
//!   [`server_stats`];
//! * [`fault`] — [`FaultProxy`], a frame-boundary fault-injection proxy
//!   for crash-safety tests.
//!
//! The wire contract is specified in `docs/SERVER.md`. Served results
//! are deterministic: for iteration-budget requests, the event stream
//! and metric snapshot a client collects are byte-identical to a direct
//! in-process `AcesoSearch::run_observed` run (asserted by
//! `tests/serve.rs`).
//!
//! [`Value`]: aceso_util::json::Value

#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
pub mod proto;
pub mod server;
pub mod wire;

pub use cache::{cluster_fingerprint, model_fingerprint, ProfileCache};
pub use client::{
    read_response, server_stats, shutdown, submit, submit_pipelined, submit_with_retries,
    ClientError, Response,
};
pub use fault::{FaultMode, FaultProxy};
pub use proto::{error_frame, event_frame, status_frame, Request};
pub use server::{spool_path, sweep_spools, sweep_spools_with, ServeOptions, Server};
pub use wire::{read_frame, write_frame, WireError, MAX_FRAME_BYTES, PROTOCOL_VERSION};
