//! Aceso-rs: a Rust reproduction of *Aceso: Efficient Parallel DNN Training
//! through Iterative Bottleneck Alleviation* (EuroSys 2024).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`model`] — operator-level DNN IR and the paper's model zoo.
//! * [`cluster`] — device/topology model and collective cost functions.
//! * [`config`] — parallel configuration representation (§3.1).
//! * [`profile`] — simulated operator profiler and reusable profile DB.
//! * [`perf`] — the analytic performance model (§3.3, Eq. 1 & 2).
//! * [`search`] — the Aceso search: primitives, heuristics, multi-hop (§3–4).
//! * [`obs`] — structured observability: events, counters, histograms
//!   (schema in `docs/OBSERVABILITY.md`).
//! * [`baselines`] — Megatron-LM grid, Alpa-like two-level DP, pure DP,
//!   random-primitive search.
//! * [`runtime`] — discrete-event 1F1B execution simulator ("actual" runs).
//! * [`audit`] — static invariant analysis over the primitive table,
//!   transforms, perf model and search traces.
//! * [`serve`] — long-lived TCP search daemon with a cross-request
//!   profile cache (wire contract in `docs/SERVER.md`).
//! * [`store`] — versioned, fingerprint-addressed on-disk store of
//!   profile databases; the cache's second tier (`docs/STORE.md`).
//! * [`chaos`] — deterministic whole-system chaos engine: seeded fault
//!   schedules, crash/restart daemon scenarios, standing oracles, and
//!   a shrinking fault-schedule explorer (`docs/RELIABILITY.md`).
//!
//! # Quickstart
//!
//! ```
//! use aceso::prelude::*;
//!
//! // A small GPT on a 1×4-GPU simulated cluster.
//! let model = aceso::model::zoo::gpt3_custom("demo", 4, 512, 8, 256, 8192, 64);
//! let cluster = ClusterSpec::v100(1, 4);
//! let db = ProfileDb::build(&model, &cluster);
//! let searcher = AcesoSearch::new(&model, &cluster, &db, SearchOptions::default());
//! let result = searcher.run().expect("search succeeds");
//! println!(
//!     "best predicted iteration time: {:.3}s over {} stages",
//!     result.best_time,
//!     result.best_config.num_stages()
//! );
//! ```

pub use aceso_audit as audit;
pub use aceso_baselines as baselines;
pub use aceso_chaos as chaos;
pub use aceso_cluster as cluster;
pub use aceso_config as config;
pub use aceso_core as search;
pub use aceso_model as model;
pub use aceso_obs as obs;
pub use aceso_perf as perf;
pub use aceso_profile as profile;
pub use aceso_runtime as runtime;
pub use aceso_serve as serve;
pub use aceso_store as store;
pub use aceso_util as util;

// Compile and run the README's quickstart code block as a doctest so the
// front-page example can never drift from the real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// Command-line surface shared between the binary and the doc checker.
///
/// The usage text lives here (rather than in `main.rs`) so the
/// documentation-consistency gate (`aceso-bench --bin doc_check`, run by
/// `ci.sh`) can cross-reference every `--flag` mentioned in `docs/*.md`
/// against the flags the binary actually advertises.
pub mod cli {
    /// The `aceso` binary's usage text: every subcommand, flag and
    /// default. `main.rs` prints this for `--help` and usage errors; the
    /// doc checker treats it as the registry of real CLI flags.
    pub const USAGE: &str = "\
usage: aceso [search] --model <name> [--gpus N] [--budget-secs S] [--stages P]
             [--zero] [--plan-out FILE] [--metrics-out FILE]
             [--events-out FILE] [--no-metrics] [--checkpoint FILE]
             [--resume FILE] [--checkpoint-every I]
       aceso audit [--smoke] [--full] [--json FILE] [--epsilon E]
             [--mutate M] [--metrics-out FILE]
       aceso serve [--addr HOST:PORT] [--workers N] [--cache-mb M]
             [--max-budget-secs S] [--max-gpus N] [--max-iterations I]
             [--max-deepnet-layers L] [--io-timeout-secs S]
             [--spool-dir DIR] [--checkpoint-every I]
             [--spool-ttl-secs S] [--reactor] [--max-connections N]
             [--store-dir DIR] [--store-budget-bytes N]
       aceso store (ls | verify | prune) --dir DIR
       aceso submit --addr HOST:PORT (--model <name> [--gpus N] [--stages P]
             [--zero] [--iterations I] [--budget-secs S] [--seed K]
             [--request-id ID] [--retries N]
             [--retry-deadline-secs S] [--plan-out FILE]
             [--metrics-out FILE] [--events-out FILE]
             | --stats | --shutdown)
       aceso chaos run --seed-range A..B [--mutate M] [--trace-out FILE]
       aceso chaos replay FILE
       aceso obs-diff A.json B.json

models: gpt3-{0.35b,1.3b,2.6b,6.7b,13b}, t5-{0.77b,3b,6b,11b,22b},
        wresnet-{0.5b,2b,4b,6.8b,13b}, deepnet-<layers>l
flags:
  --gpus N          simulated V100 count (default 8; ≤8 per node)
  --budget-secs S   search wall-clock budget (default 30)
  --stages P        pin the pipeline stage count (default: search 1..)
  --zero            enable the ZeRO-1 extension primitives
  --plan-out FILE   write the per-rank execution plan as JSON
  --metrics-out FILE  write the metric snapshot as JSON (see
                      docs/OBSERVABILITY.md for the schema)
  --events-out FILE   write the structured event stream as JSONL
  --no-metrics      disable observability entirely (skips the summary
                    table; conflicts with --metrics-out/--events-out)
  --checkpoint FILE   periodically write a resumable search checkpoint
                      (atomic JSON snapshot; removed on completion)
  --resume FILE       resume a search from a checkpoint; an unusable or
                      incompatible checkpoint warns and searches fresh
  --checkpoint-every I  iterations between checkpoints (default 32)

audit: run the static invariant analyzers (primitive signatures,
transform validity, perf-model consistency, search-trace replay) over
the model-zoo corpus; exits non-zero if any finding is reported
  --smoke           audit a single small model (fast CI check); includes
                    the whole-system analyzers at reduced depth
  --full            also run the whole-system analyzers at full depth:
                    plan-safety proofs and protocol state-machine
                    checking (docs/ANALYSIS.md)
  --json FILE       also write the findings report as JSON
  --epsilon E       float comparison tolerance (default 1e-9)
  --mutate M        seed a bug injection for the mutation gates; the run
                    must exit 1 with the matching finding (one of:
                    mem-bound, reorder-frame)
  --metrics-out FILE  write an observability metric snapshot with the
                    per-rule `audit_findings` counter family

serve: run the search daemon (wire contract in docs/SERVER.md)
  --addr HOST:PORT  listen address (default 127.0.0.1:7100; port 0 picks
                    an ephemeral port, printed as `listening on ...`)
  --workers N       max concurrent searches, excess rejected (default 4)
  --cache-mb M      profile-cache byte budget in MiB (default 256)
  --max-budget-secs S  reject requests with a larger wall-clock budget
                    (default 600; 0 = unlimited)
  --max-gpus N      reject requests simulating more GPUs (default 256;
                    0 = unlimited)
  --max-iterations I  reject requests with a larger per-stage-count
                    iteration budget (default 10000; 0 = unlimited)
  --max-deepnet-layers L  reject deeper deepnet-<N>l requests before the
                    graph is built (default 1024; 0 = unlimited)
  --io-timeout-secs S  per-connection read/write deadline; stalled peers
                    get a typed `timeout` error (default 30; 0 = none)
  --spool-dir DIR   spool per-request-id search checkpoints here so a
                    resubmitted request resumes after a crash or dropped
                    connection (docs/SERVER.md; default: no spooling)
  --checkpoint-every I  iterations between checkpoint spools (default 8)
  --spool-ttl-secs S  prune spooled checkpoints older than S seconds at
                    startup and periodically while serving (default: no
                    pruning; reclaims spools abandoned by crashed or
                    never-resubmitted requests)
  --reactor         serve every connection from one readiness-driven
                    event-loop thread instead of thread-per-connection:
                    idle clients cost no thread, requests may be
                    pipelined (responses tagged by request_id), and
                    dispatch into the worker pool is round-robin fair
                    (docs/SERVER.md)
  --max-connections N  reactor only: reject further connections with a
                    typed `connection-limit` error while N are open
                    (default 0 = unlimited)
  --store-dir DIR   persist built profile databases here and reload them
                    across restarts; a corrupt, truncated, foreign or
                    future-version entry degrades to a fresh build and a
                    `store_degraded` event (docs/STORE.md; default: no
                    persistent store)
  --store-budget-bytes N  on-disk byte budget for --store-dir; the
                    least-recently-used entries are evicted once the
                    total exceeds N (default 268435456)

store: inspect or repair a --store-dir directory (docs/STORE.md)
  ls                list every store entry with size, schema version,
                    entry count and status
  verify            exit 1 if any entry would degrade when loaded
                    (corrupt, truncated, foreign or future-version);
                    leftover temp files are not findings
  prune             delete undecodable entries and abandoned temp files
  --dir DIR         the store directory to operate on (required)

submit: send one search to a daemon and collect the streamed response
  --iterations I    per-stage-count iteration budget (default 48); the
                    deterministic budget — results are reproducible when
                    no --budget-secs is given
  --seed K          search RNG seed (default 0xACE50)
  --request-id ID   idempotency key: lets a --spool-dir daemon resume
                    this search if it is interrupted and resubmitted
  --retries N       retry transient failures (busy, timeout, dropped
                    connection) up to N times with jittered backoff
  --retry-deadline-secs S  total wall-clock budget across all retry
                    attempts and both backoff clocks; once exceeded the
                    client stops with a typed `retry-deadline` error
                    (default: no deadline)
  --stats           print the daemon's server-level metric snapshot
  --shutdown        ask the daemon to drain in-flight work and exit

chaos: run end-to-end daemon scenarios under seeded fault schedules —
injected filesystem faults, network fault-proxy modes and worker panics
— and check the standing oracles after every run (no torn store entry,
clean `aceso store verify`, bit-identical responses, typed degrade
events; docs/RELIABILITY.md). A violating schedule is shrunk to a
minimal replayable JSON trace
  --seed-range A..B   run one scenario per seed in [A, B) (required)
  --mutate M        seed a bug injection for the mutation gate; the run
                    must exit 1 with a shrunk trace (one of:
                    store-direct-write)
  --trace-out FILE  write the shrunk violating trace here (default:
                    chaos-trace.json next to the store dir)
  replay FILE       re-run one recorded trace and re-check the oracles;
                    exits 1 if the violation reproduces

obs-diff: print counter deltas and histogram shifts between two metric
snapshots; exits 2 when the snapshots disagree on schema_version";
}

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use aceso_cluster::ClusterSpec;
    pub use aceso_config::ParallelConfig;
    pub use aceso_core::{AcesoSearch, SearchOptions};
    pub use aceso_model::{ModelGraph, Precision};
    pub use aceso_perf::PerfModel;
    pub use aceso_profile::ProfileDb;
    pub use aceso_runtime::Simulator;
}
