//! The TCP search daemon.
//!
//! One [`Server`] owns a listener, a [`ProfileCache`], and a bounded
//! number of worker slots. Each connection is served on its own thread;
//! each well-formed request waits for a worker slot, runs an
//! `AcesoSearch` on the connection's thread, and streams back status
//! frames, the structured event feed, and a final result frame (see
//! `docs/SERVER.md` for the wire contract). Requests written ahead on
//! one connection are read and answered one after another, in order.
//!
//! Determinism note: per-request responses carry the *same* metric
//! snapshot a direct `AcesoSearch::run_observed` produces — the server's
//! own 14 counters (`obs::schema::SERVER_COUNTERS`) and its
//! resume/restart/degrade events live in one `ServerObs`, exposed via
//! `stats` frames and the final drain report, never mixed into a
//! request's snapshot.

use crate::cache::ProfileCache;
use crate::proto::{error_frame, event_frame, status_frame, Request};
use crate::wire::{read_frame, write_frame, FrameBatcher, WireError, PROTOCOL_VERSION};
use aceso_cluster::ClusterSpec;
use aceso_core::{
    read_checkpoint, write_checkpoint, AcesoSearch, AfterRound, CheckpointError, SearchCheckpoint,
    SearchResult,
};
use aceso_model::zoo;
use aceso_obs::{Counter, Event, Metrics, ObsReport, Recorder};
use aceso_runtime::ExecutionPlan;
use aceso_util::fnv1a;
use aceso_util::fsio::{Fs, RealFs};
use aceso_util::json::{obj, FromJson, Value};
use aceso_util::retention::SweepOutcome;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Daemon configuration knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Maximum concurrently running search requests; a further request
    /// waits on its connection until a slot frees. `0` rejects every
    /// search with `rejected-busy` — useful for drills and tests.
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
    /// Cap on simultaneously open connections, each of which holds one
    /// thread; a connection accepted past the cap receives a typed
    /// `connection-limit` error and is closed. `0` (the default) means
    /// unlimited.
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
            max_connections: 0,
            store_dir: None,
            store_budget_bytes: 256 << 20,
            fs: Arc::new(RealFs),
            store_direct_writes: false,
        }
    }
}

/// Most server-level events a daemon keeps: the most recent ones. The
/// counters keep the totals, so a daemon that degrades for days holds
/// a bounded list (docs/OBSERVABILITY.md).
pub(crate) const SERVER_EVENT_CAP: usize = 256;

/// How long the accept loop waits after a failed `accept` before trying
/// again, so a persistent failure (no file descriptors left) does not
/// spin a core.
const ACCEPT_RETRY_DELAY: Duration = Duration::from_millis(10);

/// The daemon's server-level observability: the counters and events
/// that never enter a request's own snapshot, which must stay
/// bit-identical to a direct run. Connection threads and the profile
/// cache count into it where things happen; `stats` frames and the drain
/// report read a snapshot. Only the last [`SERVER_EVENT_CAP`] events
/// are kept.
#[derive(Debug, Default)]
pub(crate) struct ServerObs(Mutex<(Metrics, VecDeque<Event>)>);

impl ServerObs {
    /// Locks the state, recovering from poisoning: counting never
    /// panics, so a poisoned lock still holds consistent counts.
    fn lock(&self) -> MutexGuard<'_, (Metrics, VecDeque<Event>)> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `n` to a server-level counter.
    pub(crate) fn add(&self, c: Counter, n: u64) {
        self.lock().0.add(c, n);
    }

    /// Appends a server-level event, dropping the oldest one at the cap.
    pub(crate) fn push(&self, event: Event) {
        push_bounded(&mut self.lock().1, event);
    }

    /// Records `errors` failed removals from a retention sweep over
    /// `dir`: counts them into `retention_sweep_errors` and surfaces a
    /// typed `sweep_degraded` event instead of dropping the failures on
    /// the floor (INV-CHAOS-SWEEP).
    pub(crate) fn sweep_errors(&self, dir: &Path, errors: usize) {
        if errors == 0 {
            return;
        }
        let mut state = self.lock();
        state.0.add(Counter::RetentionSweepErrors, errors as u64);
        push_bounded(
            &mut state.1,
            Event::SweepDegraded {
                dir: dir.display().to_string(),
                errors: errors as u64,
            },
        );
    }

    /// A snapshot of everything counted so far, with the open-connection
    /// gauge sampled in (the serve counter group of
    /// `docs/OBSERVABILITY.md`).
    pub(crate) fn report(&self, connections_open: u64) -> ObsReport {
        let (mut metrics, events) = self.lock().clone();
        metrics.add(Counter::ServeConnectionsOpen, connections_open);
        let mut report = ObsReport::new();
        report.absorb(Recorder::from_parts(events.into(), metrics));
        report
    }
}

fn push_bounded(events: &mut VecDeque<Event>, event: Event) {
    if events.len() == SERVER_EVENT_CAP {
        events.pop_front();
    }
    events.push_back(event);
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    opts: ServeOptions,
    cache: ProfileCache,
    /// Server-level counters and events, shared with the cache.
    obs: Arc<ServerObs>,
    addr: SocketAddr,
    draining: AtomicBool,
    in_flight: Mutex<Slots>,
    /// Signalled when a request finishes; the drain waits on it.
    idle: Condvar,
    /// Signalled once per freed worker slot, waking one queued
    /// admission: waking them all would spend the CPU the searches need.
    slot_freed: Condvar,
    /// Open-connection gauge: raised by the accept loop before a
    /// connection's thread starts, lowered when the thread ends.
    /// [`ServeOptions::max_connections`] is enforced against it.
    connections_open: AtomicU64,
}

impl Shared {
    /// The server-level snapshot `stats` frames and the drain report carry.
    fn report(&self) -> ObsReport {
        self.obs
            .report(self.connections_open.load(Ordering::Relaxed))
    }

    fn reject(&self, stream: &mut TcpStream, code: &str, message: &str) {
        self.obs.add(Counter::ServeRejected, 1);
        let _ = write_frame(stream, &error_frame(code, message));
    }
}

/// Request accounting of admission and drain.
#[derive(Default)]
struct Slots {
    /// Admitted requests still searching; admission caps them at
    /// [`ServeOptions::workers`].
    searching: usize,
    /// Requests queued for a slot or not yet done responding; the drain
    /// waits for zero.
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
    /// Releases the search share and wakes one request queued for it.
    fn finish_search(&mut self) {
        if std::mem::take(&mut self.searching) {
            self.shared.in_flight.lock().expect("slot lock").searching -= 1;
            self.shared.slot_freed.notify_one();
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
            obs: Arc::clone(&cache.obs),
            cache,
            opts,
            addr,
            draining: AtomicBool::new(false),
            in_flight: Mutex::new(Slots::default()),
            idle: Condvar::new(),
            slot_freed: Condvar::new(),
            connections_open: AtomicU64::new(0),
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (read this after binding to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Runs the accept loop until a `shutdown` frame arrives, then
    /// drains in-flight and queued requests and returns the server-level
    /// observability report: the 14 server counters and the server-level
    /// events.
    pub fn run(self) -> ObsReport {
        self.run_with(|task| std::thread::Builder::new().spawn(task).map(drop))
    }

    /// [`Self::run`] with the connection threads started by `spawn`. A
    /// connection whose thread cannot start gets the typed
    /// `connection-limit` refusal and counts as rejected.
    fn run_with(self, spawn: impl Fn(ConnTask) -> std::io::Result<()>) -> ObsReport {
        let sweeper = self.spawn_spool_sweeper();
        for conn in self.listener.incoming() {
            if self.shared.draining.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else {
                std::thread::sleep(ACCEPT_RETRY_DELAY);
                continue;
            };
            let limit = self.shared.opts.max_connections;
            if limit > 0 && self.shared.connections_open.load(Ordering::SeqCst) >= limit as u64 {
                // Typed refusal; a fresh socket's buffer always has room
                // for one small frame. Dropping the stream closes it.
                self.shared.reject(
                    &mut stream,
                    "connection-limit",
                    &format!("server holds {limit} connections already"),
                );
                continue;
            }
            self.shared.connections_open.fetch_add(1, Ordering::SeqCst);
            let conn = ConnGuard(Arc::clone(&self.shared));
            // The stream follows once the thread runs, so a failed
            // spawn still has it for the refusal; the dropped task's
            // guard lowers the gauge again.
            let (handoff, stream_rx) = std::sync::mpsc::sync_channel::<TcpStream>(1);
            let task = Box::new(move || {
                if let Ok(stream) = stream_rx.recv() {
                    handle_connection(&conn.0, stream);
                }
            });
            match spawn(task) {
                Ok(()) => {
                    let _ = handoff.send(stream);
                }
                Err(e) => self.shared.reject(
                    &mut stream,
                    "connection-limit",
                    &format!("cannot start a connection thread: {e}"),
                ),
            }
        }
        // Graceful drain: wait for every admitted or queued request to
        // finish responding.
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
                shared.obs.sweep_errors(&dir, outcome.errors);
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

/// The body of one connection thread.
type ConnTask = Box<dyn FnOnce() + Send + 'static>;

/// Holds one slot of the open-connection gauge for its connection
/// thread and releases it when the thread ends, however it ends.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.connections_open.fetch_sub(1, Ordering::SeqCst);
    }
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
/// Each request is read, run and answered before the next frame is
/// read, so requests written ahead are answered whole and in order
/// (INV-PIPELINE-ORDER), and a connection never holds more than one
/// worker slot (INV-FAIRNESS).
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

/// Where a request's response frames go: down the connection's socket
/// through a [`FrameBatcher`]. Event frames collect in its bounded
/// buffer; every other frame (status, error, result) writes the buffer
/// out first and then goes out in a write of its own, so status frames
/// still reach the client while the search runs. Carries the daemon's
/// filesystem handle so the final-frame spool removal goes through the
/// same injectable [`Fs`] as every other spool side-effect, and the
/// request's slot, whose search share it releases before the result
/// frame goes out.
struct StreamSink<'a> {
    out: FrameBatcher<&'a mut TcpStream>,
    fs: &'a dyn Fs,
    slot: SlotGuard<'a>,
}

impl StreamSink<'_> {
    /// Sends one frame. An error means the client is unreachable and
    /// the request should stop streaming.
    fn send(&mut self, frame: &Value) -> Result<(), WireError> {
        if frame.get("type").and_then(|t| t.as_str().ok()) == Some("event") {
            self.out.batch(frame)
        } else {
            self.out.send(frame)
        }
    }

    /// Sends the final result frame and, once it has reached the
    /// kernel, removes the request's spool file. The spool outlives the
    /// request until the client has the result in hand, so a connection
    /// lost at the last moment still resumes on resubmit.
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
/// `(code, message)` rejection.
fn validate_request(shared: &Shared, frame: &Value) -> Result<Request, (&'static str, String)> {
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

/// Validates, admits, runs, and streams one search request.
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
    if shared.opts.workers == 0 {
        shared.reject(stream, "rejected-busy", "the server runs no search workers");
        return;
    }
    // Admission queues: the request waits on this connection until a
    // worker slot frees. It counts as open before it waits, so a drain
    // that starts meanwhile still answers it.
    let slot = {
        let mut n = shared.in_flight.lock().expect("slot lock");
        n.open += 1;
        while n.searching >= shared.opts.workers {
            n = shared.slot_freed.wait(n).expect("slot lock");
        }
        n.searching += 1;
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
/// `sink`. The frames are built once, in one place, in one order, which
/// keeps a served response identical to a direct `run_observed` run.
fn execute_request(
    shared: &Shared,
    req: &Request,
    model: &aceso_model::ModelGraph,
    sink: &mut StreamSink<'_>,
) {
    shared.obs.add(Counter::ServeRequests, 1);

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
    let loaded = read_checkpoint(shared.opts.fs.as_ref(), path, search, true);
    if matches!(&loaded, Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound) {
        return None;
    }
    shared.obs.add(Counter::ClientRetries, 1);
    let ckpt = match loaded {
        Ok(c) => c,
        Err(e) => {
            // A spool that cannot be used restarts the search fresh:
            // graceful degradation, never an error.
            let reason = match e {
                CheckpointError::Io(e) => format!("unreadable spool: {e}"),
                e => e.to_string(),
            };
            shared.obs.push(Event::SearchRestarted {
                request_id: request_id.to_string(),
                reason,
            });
            return None;
        }
    };
    shared.obs.add(Counter::SearchResumed, 1);
    shared.obs.push(Event::SearchResumed {
        request_id: request_id.to_string(),
        iterations_done: ckpt.iterations_done(),
    });
    Some(ckpt)
}

/// Runs one search in rounds of `checkpoint_every` iterations, spooling
/// a snapshot of the live search to `path` after every round and
/// resuming any compatible spool that is already there. The result is
/// bit-identical to an uninterrupted `run_observed` — that is the core
/// contract `tests/checkpoint_resume.rs` enforces — so spooling is
/// invisible to the response.
fn run_spooled(
    shared: &Shared,
    search: &AcesoSearch<'_>,
    path: &Path,
    request_id: &str,
) -> Result<(SearchResult, ObsReport), String> {
    let every = Some(shared.opts.checkpoint_every.max(1));
    let resumed = load_spool(shared, search, path, request_id);
    search
        .run_rounds(true, resumed.as_ref(), every, |ckpt| {
            if write_checkpoint(shared.opts.fs.as_ref(), path, ckpt).is_ok() {
                shared.obs.add(Counter::CheckpointsWritten, 1);
                AfterRound::Next
            } else {
                // The spool directory went bad (full disk, perms…).
                // Checkpointing is an availability feature, not a
                // correctness one: finish the search in one go.
                AfterRound::Finish
            }
        })
        .map(|step| step.done().expect("the spool hook never pauses"))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{read_response, ClientError};
    use std::cell::Cell;

    #[test]
    fn server_events_keep_the_latest_and_counters_the_totals() {
        let obs = ServerObs::default();
        for _ in 0..1_000 {
            obs.sweep_errors(Path::new("spool"), 1);
        }
        let report = obs.report(0);
        assert_eq!(report.events().len(), SERVER_EVENT_CAP);
        assert_eq!(report.counter(Counter::RetentionSweepErrors), 1_000);
    }

    /// A connection whose thread cannot start is refused with the typed
    /// `connection-limit` error, counted as rejected, and gives its
    /// gauge slot back; the accept loop carries on. The failing spawn
    /// starts no thread, and the loop runs on the test's own thread.
    #[test]
    fn a_failed_thread_spawn_refuses_the_connection() {
        let server = Server::bind("127.0.0.1:0", ServeOptions::default()).expect("binds");
        let addr = server.local_addr();
        let shared = Arc::clone(&server.shared);
        // Both connections complete in the listen backlog: the first
        // meets the failing spawn, the second wakes the loop to see the
        // drain flag that spawn raised.
        let mut refused = TcpStream::connect(addr).expect("connects");
        let _waker = TcpStream::connect(addr).expect("connects");
        let spawns = Cell::new(0);
        let report = server.run_with(|_task| {
            spawns.set(spawns.get() + 1);
            shared.draining.store(true, Ordering::SeqCst);
            Err(std::io::Error::other("no threads left"))
        });
        assert_eq!(spawns.get(), 1);
        match read_response(&mut refused) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "connection-limit"),
            other => panic!("expected a connection-limit refusal, got {other:?}"),
        }
        assert_eq!(report.counter(Counter::ServeRejected), 1);
        assert_eq!(report.counter(Counter::ServeConnectionsOpen), 0);
    }
}
