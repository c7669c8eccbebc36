//! The TCP search daemon.
//!
//! One [`Server`] owns a listener, a [`ProfileCache`], and a bounded
//! worker pool. Connections are handled on spawned threads; each
//! well-formed request runs an `AcesoSearch` and streams back status
//! frames, the structured event feed, and a final result frame (see
//! `docs/SERVER.md` for the wire contract).
//!
//! Determinism note: per-request responses carry the *same* metric
//! snapshot a direct `AcesoSearch::run_observed` produces — the server's
//! own counters (`serve_requests`, `serve_rejected`,
//! `profile_cache_hits`, `profile_cache_misses`) are recorded at server
//! level only, exposed via `stats` frames and the final drain report,
//! never mixed into a request's snapshot.

use crate::cache::ProfileCache;
use crate::proto::{error_frame, event_frame, status_frame, Request};
use crate::wire::{read_frame, write_frame, FrameBatcher, WireError, PROTOCOL_VERSION};
use aceso_cluster::ClusterSpec;
use aceso_core::{AcesoSearch, ResumeError, SearchCheckpoint, SearchResult, SearchStep};
use aceso_model::zoo;
use aceso_obs::{Counter, Event, Metrics, ObsReport, Recorder};
use aceso_runtime::ExecutionPlan;
use aceso_util::fnv1a;
use aceso_util::fsio::{self, Fs, RealFs};
use aceso_util::json::{obj, FromJson, Value};
use aceso_util::retention::SweepOutcome;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Daemon configuration knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum concurrently running search requests; further requests
    /// are rejected with `rejected-busy` (no queueing). `0` rejects
    /// every search — useful for drills and tests.
    pub workers: usize,
    /// LRU byte budget of the profile cache.
    pub cache_bytes: u64,
    /// Reject requests whose `budget_secs` exceeds this bound.
    pub max_budget_secs: Option<u64>,
    /// Reject requests whose `gpus` exceeds this bound.
    pub max_gpus: Option<usize>,
    /// Reject requests whose `max_iterations` exceeds this bound — a
    /// request with no wall-clock budget occupies a worker slot for its
    /// whole iteration budget, so this caps how long one client can hold
    /// a slot.
    pub max_iterations: Option<usize>,
    /// Reject `deepnet-<N>l` models deeper than this bound. Deepnet is
    /// the one zoo family with a client-chosen size; the cap is checked
    /// *before* the operator graph is built, so an absurd depth cannot
    /// make the server allocate.
    pub max_deepnet_layers: Option<usize>,
    /// Read/write deadline on accepted connections. A peer that stalls
    /// mid-frame (or connects and sends nothing) is cut loose with a
    /// typed `timeout` error instead of pinning a connection thread
    /// forever. `None` disables the deadlines. The deadline applies per
    /// socket operation, so a long search between frames never trips it.
    pub io_timeout: Option<Duration>,
    /// Directory for crash-recovery checkpoint spools. When set,
    /// searches submitted with a `request_id` write a [`SearchCheckpoint`]
    /// here every [`ServeOptions::checkpoint_every`] iterations;
    /// resubmitting the same id resumes from the last spooled state —
    /// across dropped connections *and* daemon restarts. `None` (the
    /// default) disables spooling entirely.
    pub spool_dir: Option<PathBuf>,
    /// Per-stage iteration interval between checkpoint spools; only
    /// meaningful with [`ServeOptions::spool_dir`]. Clamped to ≥ 1.
    pub checkpoint_every: usize,
    /// Age (seconds) past which an abandoned spool file is pruned. The
    /// sweep runs once at daemon start and then periodically while the
    /// daemon is up. Spools exist precisely so clients can come back
    /// later, so the TTL should comfortably exceed any plausible retry
    /// horizon. `None` (the default) never prunes.
    pub spool_ttl_secs: Option<u64>,
    /// Serve connections through the readiness-driven reactor
    /// (`crates/serve/src/reactor.rs`, `--reactor`) instead of a thread
    /// per connection. The reactor holds thousands of idle clients on
    /// one thread, supports request pipelining (responses tagged by
    /// `request_id`), and dispatches round-robin into the bounded worker
    /// pool; see the reactor section of `docs/SERVER.md`.
    pub reactor: bool,
    /// Reactor-only cap on simultaneously open connections; a connection
    /// accepted past the cap receives a typed `connection-limit` error
    /// and is closed. `0` (the default) means unlimited. The blocking
    /// front-end ignores this knob — its natural cap is thread count.
    pub max_connections: usize,
    /// Directory of the persistent profile store — the disk tier under
    /// the [`ProfileCache`]. When set, cache misses consult the store
    /// before building and fresh builds are written back, so profile
    /// databases survive daemon restarts (see `docs/STORE.md`). `None`
    /// (the default) keeps the cache memory-only.
    pub store_dir: Option<PathBuf>,
    /// LRU byte budget of the on-disk store; least-recently-used
    /// entries are evicted past it. Only meaningful with
    /// [`ServeOptions::store_dir`].
    pub store_budget_bytes: u64,
    /// Filesystem all the daemon's durable writes go through (store
    /// entries, checkpoint spools, retention sweeps). Production keeps
    /// the default [`RealFs`] — byte-identical to direct `std::fs`
    /// calls; the chaos engine substitutes a seeded
    /// [`aceso_util::fsio::ChaosFs`] (INV-CHAOS-REALFS,
    /// `docs/RELIABILITY.md`).
    pub fs: Arc<dyn Fs>,
    /// Mutation-gate hook (`aceso chaos run --mutate store-direct-write`):
    /// makes the daemon's store skip its temp+rename discipline
    /// ([`aceso_store::Store::set_direct_writes`]), deliberately
    /// breaking the store's atomic-publish invariant (`docs/STORE.md`)
    /// so the chaos oracles can prove they catch torn entries. Never
    /// set in production paths.
    pub store_direct_writes: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            cache_bytes: 256 << 20,
            max_budget_secs: Some(600),
            max_gpus: Some(256),
            max_iterations: Some(10_000),
            max_deepnet_layers: Some(1024),
            io_timeout: Some(Duration::from_secs(30)),
            spool_dir: None,
            checkpoint_every: 8,
            spool_ttl_secs: None,
            reactor: false,
            max_connections: 0,
            store_dir: None,
            store_budget_bytes: 256 << 20,
            fs: Arc::new(RealFs),
            store_direct_writes: false,
        }
    }
}

/// State shared by the accept loop (or reactor) and every worker.
pub(crate) struct Shared {
    pub(crate) opts: ServeOptions,
    pub(crate) cache: ProfileCache,
    pub(crate) addr: SocketAddr,
    pub(crate) draining: AtomicBool,
    pub(crate) in_flight: Mutex<Slots>,
    pub(crate) idle: Condvar,
    pub(crate) requests: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) checkpoints_written: AtomicU64,
    pub(crate) searches_resumed: AtomicU64,
    pub(crate) client_retries: AtomicU64,
    /// Open-connection gauge maintained by the reactor (accepted minus
    /// closed); stays zero under the blocking front-end.
    pub(crate) connections_open: AtomicU64,
    /// Requests that arrived on a connection already carrying queued or
    /// in-flight work (reactor pipelining).
    pub(crate) pipelined_requests: AtomicU64,
    /// Round-robin dispatches that preferred a connection with nothing
    /// in flight while another connection's pipelined request waited.
    pub(crate) fairness_deferrals: AtomicU64,
    /// Server-level resume/restart events (`search_resumed`,
    /// `search_restarted`). Like the serve counters they never enter a
    /// request's own event stream — that stream must stay bit-identical
    /// to an uninterrupted direct run — so they surface only through the
    /// drain report.
    pub(crate) server_events: Mutex<Vec<Event>>,
    /// Retention-sweep removals that failed (spool TTL sweeps; the
    /// store tier's eviction errors are drained from the cache at
    /// snapshot time). Feeds `retention_sweep_errors` (INV-CHAOS-SWEEP).
    pub(crate) sweep_errors: AtomicU64,
}

impl Shared {
    /// Snapshot of the server-level counters and resume/restart/degrade
    /// events as an [`ObsReport`] (the serve counter group of
    /// `docs/OBSERVABILITY.md`, schema v8).
    pub(crate) fn report(&self) -> ObsReport {
        // Fold the store tier's eviction-sweep errors into the daemon
        // total (with a typed event) before snapshotting, so the counter
        // is monotone across snapshots.
        let store_sweep_errors = self.cache.take_store_sweep_errors();
        if store_sweep_errors > 0 {
            self.note_sweep_errors(
                &self
                    .opts
                    .store_dir
                    .as_deref()
                    .map(|d| d.display().to_string())
                    .unwrap_or_default(),
                store_sweep_errors,
            );
        }
        let events = {
            // Absorb store degradations queued since the last snapshot
            // into the durable server-event log first, so every later
            // snapshot still carries them.
            let mut events = self.server_events.lock().expect("event lock");
            for (file, reason) in self.cache.drain_degraded() {
                events.push(Event::StoreDegraded { file, reason });
            }
            events.clone()
        };
        let rec = Recorder::from_parts(events, Metrics::default());
        rec.add(Counter::ProfileCacheHits, self.cache.hits());
        rec.add(Counter::ProfileCacheMisses, self.cache.misses());
        rec.add(
            Counter::ServeRequests,
            self.requests.load(Ordering::Relaxed),
        );
        rec.add(
            Counter::ServeRejected,
            self.rejected.load(Ordering::Relaxed),
        );
        rec.add(
            Counter::CheckpointsWritten,
            self.checkpoints_written.load(Ordering::Relaxed),
        );
        rec.add(
            Counter::SearchResumed,
            self.searches_resumed.load(Ordering::Relaxed),
        );
        rec.add(
            Counter::ClientRetries,
            self.client_retries.load(Ordering::Relaxed),
        );
        rec.add(
            Counter::ServeConnectionsOpen,
            self.connections_open.load(Ordering::Relaxed),
        );
        rec.add(
            Counter::ServePipelinedRequests,
            self.pipelined_requests.load(Ordering::Relaxed),
        );
        rec.add(
            Counter::ServeFairnessDeferrals,
            self.fairness_deferrals.load(Ordering::Relaxed),
        );
        rec.add(Counter::StoreHits, self.cache.store_hits());
        rec.add(Counter::StoreMisses, self.cache.store_misses());
        rec.add(Counter::StoreWrites, self.cache.store_writes());
        rec.add(Counter::StoreEvictions, self.cache.store_evictions());
        rec.add(Counter::StoreRejected, self.cache.store_rejected());
        rec.add(
            Counter::RetentionSweepErrors,
            self.sweep_errors.load(Ordering::Relaxed),
        );
        let mut report = ObsReport::new();
        report.absorb(rec);
        report
    }

    fn reject(&self, stream: &mut TcpStream, code: &str, message: &str) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        let _ = write_frame(stream, &error_frame(code, message));
    }

    /// Records `errors` failed removals from a retention sweep over
    /// `dir`: counts them into `retention_sweep_errors` and surfaces a
    /// typed `sweep_degraded` event instead of dropping the failures on
    /// the floor (INV-CHAOS-SWEEP).
    pub(crate) fn note_sweep_errors(&self, dir: &str, errors: u64) {
        if errors == 0 {
            return;
        }
        self.sweep_errors.fetch_add(errors, Ordering::Relaxed);
        self.server_events
            .lock()
            .expect("event lock")
            .push(Event::SweepDegraded {
                dir: dir.to_string(),
                errors,
            });
    }

    /// Records that a spooled checkpoint could not be used and the
    /// search restarted fresh — graceful degradation, never an error.
    pub(crate) fn record_restart(&self, request_id: &str, reason: String) {
        self.server_events
            .lock()
            .expect("event lock")
            .push(Event::SearchRestarted {
                request_id: request_id.to_string(),
                reason,
            });
    }
}

/// Request accounting of the blocking front-end.
#[derive(Default)]
pub(crate) struct Slots {
    /// Admitted requests still searching; admission caps them at
    /// [`ServeOptions::workers`].
    searching: usize,
    /// Admitted requests not yet done responding; the drain waits for
    /// zero.
    open: usize,
}

/// One admitted request's slot. Its search share is released when the
/// result frame is about to be written, so a client that submits again
/// as soon as it has its result never finds its own finished request
/// holding the worker; the rest is released on drop, whatever path the
/// request took.
struct SlotGuard<'a> {
    shared: &'a Shared,
    searching: bool,
}

impl SlotGuard<'_> {
    fn finish_search(&mut self) {
        if std::mem::take(&mut self.searching) {
            self.shared.in_flight.lock().expect("slot lock").searching -= 1;
        }
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.finish_search();
        self.shared.in_flight.lock().expect("slot lock").open -= 1;
        self.shared.idle.notify_all();
    }
}

/// The bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, opts: ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let cache = match &opts.store_dir {
            Some(dir) => {
                let mut store = aceso_store::Store::open_with(
                    dir,
                    opts.store_budget_bytes,
                    Arc::clone(&opts.fs),
                )?;
                if opts.store_direct_writes {
                    store.set_direct_writes(true);
                }
                ProfileCache::with_store(opts.cache_bytes, store)
            }
            None => ProfileCache::new(opts.cache_bytes),
        };
        let shared = Arc::new(Shared {
            cache,
            opts,
            addr,
            draining: AtomicBool::new(false),
            in_flight: Mutex::new(Slots::default()),
            idle: Condvar::new(),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            searches_resumed: AtomicU64::new(0),
            client_retries: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            pipelined_requests: AtomicU64::new(0),
            fairness_deferrals: AtomicU64::new(0),
            sweep_errors: AtomicU64::new(0),
            server_events: Mutex::new(Vec::new()),
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (read this after binding to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Runs the accept loop until a `shutdown` frame arrives, then
    /// drains in-flight requests and returns the server-level
    /// observability report (the serve counter quartet).
    ///
    /// With [`ServeOptions::reactor`] set, connections are served by the
    /// readiness-driven reactor ([`crate::reactor`]) instead of a thread
    /// per connection; the drain-and-report contract is identical.
    pub fn run(self) -> ObsReport {
        if self.shared.opts.reactor {
            // The reactor sweeps spools from its own event loop (no
            // dedicated thread): one sweep at startup, then one per TTL.
            return crate::reactor::run(&self.listener, &self.shared);
        }
        let sweeper = self.spawn_spool_sweeper();
        for conn in self.listener.incoming() {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(&shared, stream));
        }
        // Graceful drain: wait for every admitted request to finish
        // responding.
        let mut n = self.shared.in_flight.lock().expect("slot lock");
        while n.open > 0 {
            n = self.shared.idle.wait(n).expect("slot lock");
        }
        drop(n);
        if let Some(handle) = sweeper {
            let _ = handle.join();
        }
        self.shared.report()
    }

    /// Starts the background spool sweeper when both a spool directory
    /// and a TTL are configured: one sweep immediately (reclaiming spools
    /// abandoned across daemon restarts), then one per TTL interval,
    /// polling the drain flag often enough to exit promptly.
    fn spawn_spool_sweeper(&self) -> Option<std::thread::JoinHandle<()>> {
        let ttl = Duration::from_secs(self.shared.opts.spool_ttl_secs.filter(|t| *t > 0)?);
        let dir = self.shared.opts.spool_dir.clone()?;
        let shared = Arc::clone(&self.shared);
        Some(std::thread::spawn(move || {
            let sweep = |shared: &Shared| {
                let outcome = sweep_spools_with(shared.opts.fs.as_ref(), &dir, ttl);
                shared.note_sweep_errors(&dir.display().to_string(), outcome.errors as u64);
            };
            sweep(&shared);
            let mut since_sweep = Duration::ZERO;
            loop {
                let tick = ttl.min(Duration::from_millis(200));
                std::thread::sleep(tick);
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                since_sweep += tick;
                if since_sweep >= ttl {
                    sweep(&shared);
                    since_sweep = Duration::ZERO;
                }
            }
        }))
    }
}

/// Removes every spool artifact in `dir` (`.ckpt` checkpoints and
/// `.ckpt.tmp` write leftovers) whose last modification is older than
/// `ttl`, returning how many files were pruned. Built on the shared
/// retention policies in [`aceso_util::retention`] — the same scan +
/// TTL machinery the profile store's eviction uses — and best-effort
/// throughout: the sweep is hygiene, never load-bearing.
pub fn sweep_spools(dir: &Path, ttl: Duration) -> usize {
    sweep_spools_with(&RealFs, dir, ttl).removed
}

/// [`sweep_spools`] against an explicit filesystem handle, reporting
/// failed removals alongside successful ones so callers can surface
/// them as `retention_sweep_errors` + `sweep_degraded` instead of
/// silently swallowing the fault (INV-CHAOS-SWEEP).
pub fn sweep_spools_with(fs: &dyn Fs, dir: &Path, ttl: Duration) -> SweepOutcome {
    let files = aceso_util::retention::scan_dir_with(fs, dir, &[".ckpt", ".ckpt.tmp"]);
    let expired = aceso_util::retention::expired(&files, ttl, std::time::SystemTime::now());
    aceso_util::retention::remove_all_with(fs, &expired)
}

/// True when an i/o error is a socket deadline expiring. Both kinds
/// appear in the wild: Unix reports `WouldBlock`, Windows `TimedOut`.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serves one connection: a sequence of frames until the peer closes.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    if let Some(deadline) = shared.opts.io_timeout {
        // Best-effort: a socket that cannot take a deadline still works,
        // it just falls back to the pre-deadline behaviour.
        let _ = stream.set_read_timeout(Some(deadline));
        let _ = stream.set_write_timeout(Some(deadline));
    }
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(v) => v,
            Err(WireError::Closed) => return,
            Err(WireError::Oversize(n)) => {
                // The unread payload leaves the stream unframed; reject
                // and drop the connection.
                shared.reject(
                    &mut stream,
                    "oversize-frame",
                    &WireError::Oversize(n).to_string(),
                );
                return;
            }
            Err(WireError::BadJson(e)) => {
                // Framing stayed aligned (the payload was consumed), so
                // the connection can continue after the typed error.
                shared.reject(&mut stream, "bad-frame", &e);
                continue;
            }
            Err(WireError::Io(e)) if is_timeout(&e) => {
                // The peer stalled past --io-timeout (mid-frame or just
                // idle). Tell it why, then drop the connection: a stalled
                // read may have consumed part of a frame, so the stream
                // is no longer trustworthy.
                shared.reject(
                    &mut stream,
                    "timeout",
                    "connection idled past the server's i/o deadline",
                );
                return;
            }
            Err(WireError::Io(_)) => return,
        };
        match frame.get("type").and_then(|t| t.as_str().ok()) {
            Some("request") => handle_request(shared, &mut stream, &frame),
            Some("stats") => {
                let report = shared.report();
                let metrics = report.metrics_value();
                let _ = write_frame(
                    &mut stream,
                    &obj([("type", Value::Str("stats".into())), ("metrics", metrics)]),
                );
            }
            Some("shutdown") => {
                shared.draining.store(true, Ordering::SeqCst);
                let _ = write_frame(&mut stream, &obj([("type", Value::Str("ok".into()))]));
                // Wake the blocking accept loop so it observes the flag.
                let _ = TcpStream::connect(shared.addr);
            }
            other => {
                shared.reject(
                    &mut stream,
                    "unknown-frame-type",
                    &format!("unknown frame type {other:?}"),
                );
            }
        }
    }
}

/// Layer count of a `deepnet-<N>l` model name, parsed without building
/// the graph (mirrors `zoo::by_name`'s vocabulary).
fn deepnet_layers(model: &str) -> Option<usize> {
    model
        .strip_prefix("deepnet-")?
        .strip_suffix('l')?
        .parse()
        .ok()
}

/// Where a request's response frames go: straight down the socket in
/// blocking mode ([`StreamSink`]), or into the reactor's tagged
/// outbound queue. The abstraction keeps [`execute_request`] — and
/// therefore the bytes of every response frame — identical across both
/// front-ends.
pub(crate) trait FrameSink {
    /// Sends one frame. An error means the client is unreachable and
    /// the request should stop streaming.
    fn send(&mut self, frame: &Value) -> Result<(), WireError>;

    /// Sends the final result frame and, once it has actually reached
    /// the peer, removes the request's spool file. The spool outlives
    /// the request until the client has the result in hand, so a
    /// connection lost at the last moment still resumes on resubmit.
    fn send_final(&mut self, frame: &Value, spool: Option<&Path>) -> Result<(), WireError>;
}

/// Blocking sink: frames go down the connection's socket through a
/// [`FrameBatcher`]. Event frames collect in its bounded buffer; every
/// other frame (status, error, result) writes the buffer out first and
/// then goes out in a write of its own, so status frames still reach
/// the client while the search runs. Carries the daemon's filesystem
/// handle so the final-frame spool removal goes through the same
/// injectable [`Fs`] as every other spool side-effect, and the
/// request's slot, whose search share it releases before the result
/// frame goes out.
struct StreamSink<'a> {
    out: FrameBatcher<&'a mut TcpStream>,
    fs: &'a dyn Fs,
    slot: SlotGuard<'a>,
}

impl FrameSink for StreamSink<'_> {
    fn send(&mut self, frame: &Value) -> Result<(), WireError> {
        if frame.get("type").and_then(|t| t.as_str().ok()) == Some("event") {
            self.out.batch(frame)
        } else {
            self.out.send(frame)
        }
    }

    fn send_final(&mut self, frame: &Value, spool: Option<&Path>) -> Result<(), WireError> {
        self.slot.finish_search();
        self.out.send(frame)?;
        // The write reached the kernel; the saved work is now redundant.
        if let Some(path) = spool {
            let _ = self.fs.remove_file(path);
        }
        Ok(())
    }
}

/// The cheap admission checks every request passes before it is allowed
/// anywhere near a worker: protocol version, frame shape, drain state,
/// and the resource caps. Returns the parsed request or a typed
/// `(code, message)` rejection. Deliberately excludes `zoo::by_name` —
/// the one validation that builds a graph — so the reactor can run this
/// on its event-loop thread without stalling other connections
/// (INV-NONBLOCK, `docs/SERVER.md`).
pub(crate) fn validate_request(
    shared: &Shared,
    frame: &Value,
) -> Result<Request, (&'static str, String)> {
    match frame.get("protocol_version").and_then(|v| v.as_u64().ok()) {
        Some(PROTOCOL_VERSION) => {}
        got => {
            return Err((
                "bad-protocol-version",
                format!("server speaks protocol {PROTOCOL_VERSION}, request carried {got:?}"),
            ));
        }
    }
    let req = Request::from_json_value(frame).map_err(|e| ("bad-request", e.to_string()))?;
    if shared.draining.load(Ordering::SeqCst) {
        return Err(("shutting-down", "server is draining".to_string()));
    }
    if req.gpus == 0 {
        return Err(("bad-request", "gpus must be at least 1".to_string()));
    }
    // Resource caps guard the worker pool and the allocator: gpus and
    // iterations bound how long a request can occupy a slot, and the
    // deepnet depth cap runs before `zoo::by_name` builds the graph so a
    // hostile depth cannot make the server allocate billions of ops.
    if let Some(max) = shared.opts.max_gpus {
        if req.gpus > max {
            return Err((
                "bad-request",
                format!("gpus {} exceeds the server limit of {max}", req.gpus),
            ));
        }
    }
    if let Some(max) = shared.opts.max_iterations {
        if req.max_iterations > max {
            return Err((
                "bad-request",
                format!(
                    "max_iterations {} exceeds the server limit of {max}",
                    req.max_iterations
                ),
            ));
        }
    }
    if let (Some(max), Some(layers)) = (shared.opts.max_deepnet_layers, deepnet_layers(&req.model))
    {
        if layers > max {
            return Err((
                "bad-request",
                format!("deepnet depth {layers} exceeds the server limit of {max}"),
            ));
        }
    }
    if let (Some(max), Some(b)) = (shared.opts.max_budget_secs, req.budget_secs) {
        if b > max {
            return Err((
                "budget-too-large",
                format!("budget_secs {b} exceeds the server limit of {max}"),
            ));
        }
    }
    Ok(req)
}

/// Validates, admits, runs, and streams one search request (blocking
/// front-end).
fn handle_request(shared: &Shared, stream: &mut TcpStream, frame: &Value) {
    let req = match validate_request(shared, frame) {
        Ok(r) => r,
        Err((code, message)) => {
            shared.reject(stream, code, &message);
            return;
        }
    };
    let Some(model) = zoo::by_name(&req.model) else {
        shared.reject(
            stream,
            "unknown-model",
            &format!("unknown model `{}`", req.model),
        );
        return;
    };
    // Backpressure: try-acquire a worker slot, never queue.
    let slot = {
        let mut n = shared.in_flight.lock().expect("slot lock");
        if n.searching >= shared.opts.workers {
            drop(n);
            shared.reject(
                stream,
                "rejected-busy",
                &format!("{} requests already in flight", shared.opts.workers),
            );
            return;
        }
        n.searching += 1;
        n.open += 1;
        SlotGuard {
            shared,
            searching: true,
        }
    };
    execute_request(
        shared,
        &req,
        &model,
        &mut StreamSink {
            out: FrameBatcher::new(stream),
            fs: shared.opts.fs.as_ref(),
            slot,
        },
    );
}

/// Runs one admitted request and streams its response frames into
/// `sink`. Both front-ends funnel through here, which is what keeps a
/// reactor-served response bit-identical to a blocking one (and both
/// identical to a direct `run_observed` run): the frames are built
/// once, in one place, in one order.
pub(crate) fn execute_request(
    shared: &Shared,
    req: &Request,
    model: &aceso_model::ModelGraph,
    sink: &mut dyn FrameSink,
) {
    shared.requests.fetch_add(1, Ordering::Relaxed);

    let _ = sink.send(&status_frame("profiling", None));
    let cluster = ClusterSpec::v100_gpus(req.gpus);
    let profile_start = std::time::Instant::now();
    let (db, hit) = shared.cache.get_or_build(model, &cluster);
    let profile_micros = profile_start.elapsed().as_micros() as u64;
    let cache_tag = if hit { "hit" } else { "miss" };
    let _ = sink.send(&status_frame("searching", Some(cache_tag)));

    let search = AcesoSearch::new(model, &cluster, &db, req.search_options());
    let spool = match (&shared.opts.spool_dir, &req.request_id) {
        (Some(dir), Some(id)) if !id.is_empty() => Some(spool_path(dir, id)),
        _ => None,
    };
    let searched = match &spool {
        Some(path) => run_spooled(
            shared,
            &search,
            path,
            req.request_id.as_deref().unwrap_or(""),
        ),
        None => search.run_observed(true).map_err(|e| e.to_string()),
    };
    let (result, report) = match searched {
        Ok(r) => r,
        Err(msg) => {
            let _ = sink.send(&error_frame("search-failed", &msg));
            return;
        }
    };

    // The event feed streams after the per-thread recorders merged —
    // that ordering is what makes it deterministic (docs/SERVER.md).
    for (seq, event) in report.events().iter().enumerate() {
        if sink.send(&event_frame(seq, event.to_json_value())).is_err() {
            return;
        }
    }

    let plan = if req.plan && !result.best_oom {
        ExecutionPlan::build(model, &cluster, &result.best_config)
            .ok()
            .map(|p| aceso_util::json::ToJson::to_json_value(&p))
    } else {
        None
    };
    let metrics = report.metrics_value();
    let final_frame = obj([
        ("type", Value::Str("result".into())),
        ("protocol_version", Value::UInt(PROTOCOL_VERSION)),
        ("cache", Value::Str(cache_tag.into())),
        // Wall-clock cost of the profiling phase — the one nondeterministic
        // result field; a cache hit collapses it from a full build to a
        // map probe (the integration tests assert exactly that).
        ("profile_micros", Value::UInt(profile_micros)),
        ("model", Value::Str(req.model.clone())),
        ("best_time", Value::Float(result.best_time)),
        ("best_time_bits", Value::UInt(result.best_time.to_bits())),
        (
            "best_fingerprint",
            Value::UInt(result.best_config.semantic_hash()),
        ),
        ("best_oom", Value::Bool(result.best_oom)),
        ("explored", Value::UInt(result.explored as u64)),
        (
            "stages",
            Value::UInt(result.best_config.num_stages() as u64),
        ),
        (
            "best_config",
            aceso_util::json::ToJson::to_json_value(&result.best_config),
        ),
        ("metrics", metrics),
        ("plan", plan.unwrap_or(Value::Null)),
    ]);
    let _ = sink.send_final(&final_frame, spool.as_deref());
}

/// Spool file for one request id: the id is sanitised for the
/// filesystem, and a hash of the *original* id is appended so two ids
/// that sanitise identically can never collide on one spool.
pub fn spool_path(dir: &Path, request_id: &str) -> PathBuf {
    let sanitised: String = request_id
        .chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    dir.join(format!(
        "{sanitised}-{:016x}.ckpt",
        fnv1a(request_id.as_bytes())
    ))
}

/// Atomically replaces the spool file: write to a sibling temp path,
/// then rename over the target. A crash between the two leaves either
/// the previous complete checkpoint or the new one, never a torn file.
fn write_spool(fs: &dyn Fs, path: &Path, ckpt: &SearchCheckpoint) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs.create_dir_all(parent)?;
    }
    let tmp = path.with_extension("ckpt.tmp");
    fsio::write_atomic(fs, path, &tmp, ckpt.to_json_string().as_bytes())
}

/// Loads and validates a spooled checkpoint. Returns `None` — fresh
/// search — when no spool exists, and *also* when the spool is
/// unreadable, corrupt, from an unknown schema version, or incompatible
/// with this request (graceful degradation: a bad checkpoint costs the
/// saved work, never the request). Any spool presence at all means this
/// id was submitted before, i.e. the client is retrying.
fn load_spool(
    shared: &Shared,
    search: &AcesoSearch<'_>,
    path: &Path,
    request_id: &str,
) -> Option<SearchCheckpoint> {
    let text = match shared
        .opts
        .fs
        .read(path)
        .map(|b| String::from_utf8_lossy(&b).into_owned())
    {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            shared.client_retries.fetch_add(1, Ordering::Relaxed);
            shared.record_restart(request_id, format!("unreadable spool: {e}"));
            return None;
        }
    };
    shared.client_retries.fetch_add(1, Ordering::Relaxed);
    let ckpt = match SearchCheckpoint::from_json_str(&text) {
        Ok(c) => c,
        Err(e) => {
            shared.record_restart(request_id, e.to_string());
            return None;
        }
    };
    if let Err(e) = search.checkpoint_compatible(&ckpt, true) {
        shared.record_restart(request_id, e.to_string());
        return None;
    }
    shared.searches_resumed.fetch_add(1, Ordering::Relaxed);
    shared
        .server_events
        .lock()
        .expect("event lock")
        .push(Event::SearchResumed {
            request_id: request_id.to_string(),
            iterations_done: ckpt.iterations_done(),
        });
    Some(ckpt)
}

/// Runs one search in checkpointed slices, spooling a [`SearchCheckpoint`]
/// to `path` at every pause and resuming any compatible spool that is
/// already there. The result is bit-identical to an uninterrupted
/// `run_observed` — that is the core contract `tests/checkpoint_resume.rs`
/// enforces — so spooling is invisible to the response.
fn run_spooled(
    shared: &Shared,
    search: &AcesoSearch<'_>,
    path: &Path,
    request_id: &str,
) -> Result<(SearchResult, ObsReport), String> {
    let every = shared.opts.checkpoint_every.max(1);
    let mut bound;
    let mut step = match load_spool(shared, search, path, request_id) {
        Some(ckpt) => {
            bound = ckpt.resume_bound() + every;
            match search.resume_partial(true, &ckpt, Some(bound)) {
                Ok(s) => s,
                // `load_spool` already validated compatibility, so only
                // genuine search errors can surface here.
                Err(ResumeError::Incompatible(e)) => return Err(e.to_string()),
                Err(ResumeError::Search(e)) => return Err(e.to_string()),
            }
        }
        None => {
            bound = every;
            search.run_partial(true, bound).map_err(|e| e.to_string())?
        }
    };
    loop {
        match step {
            SearchStep::Done(result, report) => return Ok((result, report)),
            SearchStep::Paused(ckpt) => {
                if write_spool(shared.opts.fs.as_ref(), path, &ckpt).is_ok() {
                    shared.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                } else {
                    // The spool directory went bad (full disk, perms…).
                    // Checkpointing is an availability feature, not a
                    // correctness one: finish the search in one go.
                    let (result, report) = match search.resume_from(true, &ckpt) {
                        Ok(r) => r,
                        Err(e) => return Err(e.to_string()),
                    };
                    return Ok((result, report));
                }
                bound += every;
                step = match search.resume_partial(true, &ckpt, Some(bound)) {
                    Ok(s) => s,
                    Err(e) => return Err(e.to_string()),
                };
            }
        }
    }
}
