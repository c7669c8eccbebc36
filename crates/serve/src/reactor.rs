//! Readiness-driven connection front-end (`--reactor`).
//!
//! The blocking front-end spawns one thread per connection, which caps
//! fan-in at whatever the OS will give us in stacks — it cannot hold
//! thousands of idle or slow clients. The reactor holds *every*
//! connection on one event-loop thread: sockets are nonblocking
//! (`TcpStream::set_nonblocking` — the workspace forbids `unsafe`, so
//! there is no `poll(2)` FFI; readiness is discovered by a timed sweep
//! with an adaptive tick), frames are assembled incrementally by
//! [`FrameDecoder`], and admitted requests are dispatched round-robin
//! into the bounded worker pool. The architecture contract lives in the
//! reactor section of `docs/SERVER.md`; the `INV-` anchors cited below
//! are defined there and cross-checked by `tests/serve_doc.rs`.
//!
//! Invariants (`docs/SERVER.md`):
//!
//! * **INV-NONBLOCK** — the event-loop thread never blocks on a peer:
//!   no blocking reads, writes, or graph builds happen on it, and the
//!   i/o deadline applies only to peers stalled *mid-frame* or with
//!   unflushed output — a fully idle connection is held indefinitely.
//! * **INV-PIPELINE-ORDER** — a single request's response frames are
//!   delivered in order; concurrent requests' frames may interleave on
//!   the connection but each carries its `request_id` tag.
//! * **INV-FAIRNESS** — dispatch prefers connections with nothing in
//!   flight before granting any connection a second concurrent slot, so
//!   one chatty pipeliner cannot starve other clients.

use crate::proto::{error_frame, tag_request_id, Request};
use crate::server::{execute_request, validate_request, FrameSink, Shared};
use crate::wire::{encode_frame, write_frame, FrameDecoder, WireError};
use aceso_model::zoo;
use aceso_obs::ObsReport;
use aceso_util::json::{obj, Value};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Maximum requests one connection may hold queued plus in flight;
/// the excess gets a typed `rejected-busy` error (the connection
/// survives). Bounds the memory one pipelining client can pin.
pub const PIPELINE_DEPTH: usize = 64;

/// Sweep tick while traffic is flowing.
const TICK_BUSY: Duration = Duration::from_millis(1);
/// Sweep tick after several consecutive idle sweeps.
const TICK_IDLE: Duration = Duration::from_millis(5);
/// Read buffer per sweep per connection.
const READ_CHUNK: usize = 16 * 1024;
/// Per-syscall write bound. A dead peer surfaces as an error only on
/// the write *after* the one whose bytes triggered its RST; bounded
/// chunks guarantee a multi-kilobyte response spans several syscalls,
/// so a severed connection fails before its final result frame is
/// accounted as delivered — which is what keeps the spool-deletion
/// markers honest (crash-recovery contract, `docs/SERVER.md`).
const WRITE_CHUNK: usize = 2 * 1024;
/// Compact the outbox once this many bytes are dead at its front.
const COMPACT_AT: usize = 64 * 1024;

/// One unit of worker-pool work.
enum Job {
    /// Run a validated request and stream its frames into the sink.
    Run(Box<(Request, QueueSink)>),
    /// Drain sentinel: the worker exits.
    Stop,
}

/// Messages flowing from workers back to the event loop.
enum OutMsg {
    /// Encoded frame bytes for a connection (by slot and generation).
    /// `spool` carries the request's spool file when this is the final
    /// result frame: the event loop deletes it only after these bytes
    /// have actually been written to the socket, preserving the
    /// crash-recovery contract of the blocking front-end.
    Frame {
        conn: usize,
        gen: u64,
        bytes: Vec<u8>,
        spool: Option<PathBuf>,
    },
    /// The worker finished a job (success or rejection) — frees one
    /// global slot and the connection's in-flight credit.
    Done { conn: usize, gen: u64 },
}

/// Worker-side frame sink: encodes frames (tagged with the request's
/// `request_id` when it has one — INV-PIPELINE-ORDER) and hands the
/// bytes to the event loop, which owns the socket.
struct QueueSink {
    out: Arc<Mutex<Vec<OutMsg>>>,
    conn: usize,
    gen: u64,
    tag: Option<String>,
    closed: Arc<AtomicBool>,
}

impl QueueSink {
    fn encode(&self, frame: &Value) -> Result<Vec<u8>, WireError> {
        match &self.tag {
            Some(id) => encode_frame(&tag_request_id(frame.clone(), id)),
            None => encode_frame(frame),
        }
    }

    fn push(&self, msg: OutMsg) {
        self.out.lock().expect("out queue").push(msg);
    }

    fn done(&self) {
        self.push(OutMsg::Done {
            conn: self.conn,
            gen: self.gen,
        });
    }
}

impl FrameSink for QueueSink {
    fn send(&mut self, frame: &Value) -> Result<(), WireError> {
        // A closed connection stops the stream early, like a broken
        // socket does in blocking mode; frames racing the close are
        // dropped by the event loop's generation check.
        if self.closed.load(Ordering::Relaxed) {
            return Err(WireError::Closed);
        }
        let bytes = self.encode(frame)?;
        self.push(OutMsg::Frame {
            conn: self.conn,
            gen: self.gen,
            bytes,
            spool: None,
        });
        Ok(())
    }

    fn send_final(
        &mut self,
        frame: &Value,
        spool: Option<&std::path::Path>,
    ) -> Result<(), WireError> {
        if self.closed.load(Ordering::Relaxed) {
            return Err(WireError::Closed);
        }
        let bytes = self.encode(frame)?;
        self.push(OutMsg::Frame {
            conn: self.conn,
            gen: self.gen,
            bytes,
            spool: spool.map(std::path::Path::to_path_buf),
        });
        Ok(())
    }
}

/// Per-connection state machine on the event-loop thread.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded-but-unwritten response bytes; `cursor` marks how far the
    /// socket has consumed them.
    outbox: Vec<u8>,
    cursor: usize,
    /// Total bytes ever written to the socket / enqueued to the outbox.
    written_total: u64,
    queued_total: u64,
    /// Spool files to delete once `written_total` passes the marker —
    /// i.e. once the final result frame left for the peer.
    spool_deletes: VecDeque<(u64, PathBuf)>,
    /// Admitted requests not yet dispatched to a worker.
    pending: VecDeque<Request>,
    /// Requests currently running on workers for this connection.
    in_flight: usize,
    /// Slot generation: stale worker output is dropped on mismatch.
    gen: u64,
    /// Set on close so in-flight sinks stop streaming (INV-NONBLOCK:
    /// workers never learn about sockets, only about this flag).
    closed: Arc<AtomicBool>,
    /// Peer half-closed its write side (read EOF): finish queued and
    /// in-flight work, flush, then close.
    read_closed: bool,
    /// Fatal framing error: stop reading, flush the typed error, close.
    close_after_flush: bool,
    /// Last moment bytes moved on this socket (either direction).
    last_progress: Instant,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.cursor == self.outbox.len()
    }

    fn enqueue(&mut self, bytes: &[u8], spool: Option<PathBuf>) {
        if self.flushed() {
            // The write-stall clock starts when output appears, not at
            // whatever ancient moment the conn last spoke.
            self.last_progress = Instant::now();
        }
        if let Some(path) = spool {
            self.spool_deletes
                .push_back((self.queued_total + bytes.len() as u64, path));
        }
        self.outbox.extend_from_slice(bytes);
        self.queued_total += bytes.len() as u64;
    }

    fn enqueue_frame(&mut self, frame: &Value) {
        if let Ok(bytes) = encode_frame(frame) {
            self.enqueue(&bytes, None);
        }
    }
}

/// Runs the reactor until a `shutdown` frame arrives, drains pending
/// and in-flight requests, joins the workers, and returns the
/// server-level report. Called by [`crate::server::Server::run`] when
/// [`crate::server::ServeOptions::reactor`] is set.
pub(crate) fn run(listener: &TcpListener, shared: &Arc<Shared>) -> ObsReport {
    listener
        .set_nonblocking(true)
        .expect("listener supports nonblocking mode");
    let out: Arc<Mutex<Vec<OutMsg>>> = Arc::new(Mutex::new(Vec::new()));
    let jobs: Arc<(Mutex<VecDeque<Job>>, Condvar)> =
        Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));

    // The reactor always runs at least one worker: with zero workers
    // nothing could ever drain the pending queues (the blocking
    // front-end's `workers = 0` reject-everything drill stays available
    // without `--reactor`).
    let workers = shared.opts.workers.max(1);
    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let jobs = Arc::clone(&jobs);
        let shared = Arc::clone(shared);
        worker_handles.push(std::thread::spawn(move || loop {
            let job = {
                let (queue, ready) = &*jobs;
                let mut q = queue.lock().expect("job queue");
                loop {
                    match q.pop_front() {
                        Some(job) => break job,
                        None => q = ready.wait(q).expect("job queue"),
                    }
                }
            };
            match job {
                Job::Stop => return,
                Job::Run(boxed) => {
                    let (req, mut sink) = *boxed;
                    match zoo::by_name(&req.model) {
                        None => {
                            shared.rejected.fetch_add(1, Ordering::Relaxed);
                            let _ = sink.send(&error_frame(
                                "unknown-model",
                                &format!("unknown model `{}`", req.model),
                            ));
                        }
                        Some(model) => execute_request(&shared, &req, &model, &mut sink),
                    }
                    sink.done();
                }
            }
        }));
    }

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut next_gen: u64 = 0;
    let mut global_in_flight: usize = 0;
    let mut rr: usize = 0;
    let mut idle_sweeps: u32 = 0;
    let mut read_buf = vec![0u8; READ_CHUNK];

    // Spool hygiene runs inline from the event loop instead of a
    // dedicated sweeper thread: one sweep at startup, then one whenever
    // a TTL has elapsed since the last. The sweep is O(dir entries) and
    // best-effort, so stealing one loop iteration for it is cheap.
    let spool_ttl = match (&shared.opts.spool_dir, shared.opts.spool_ttl_secs) {
        (Some(dir), Some(ttl)) if ttl > 0 => (dir.clone(), Duration::from_secs(ttl)).into(),
        _ => None,
    };
    let sweep = |dir: &std::path::PathBuf, ttl: &Duration| {
        let outcome = crate::server::sweep_spools_with(shared.opts.fs.as_ref(), dir, *ttl);
        shared.note_sweep_errors(&dir.display().to_string(), outcome.errors as u64);
    };
    if let Some((dir, ttl)) = &spool_ttl {
        sweep(dir, ttl);
    }
    let mut last_sweep = Instant::now();

    loop {
        let mut progress = false;
        if let Some((dir, ttl)) = &spool_ttl {
            if last_sweep.elapsed() >= *ttl {
                sweep(dir, ttl);
                last_sweep = Instant::now();
            }
        }
        let draining = shared.draining.load(Ordering::SeqCst);

        // --- Accept. New connections are refused during a drain.
        // (`loop`, not `while !draining`: the flag cannot change inside
        // one accept burst, only between sweeps.)
        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let open = conns.iter().flatten().count();
                        if shared.opts.max_connections > 0 && open >= shared.opts.max_connections {
                            // Typed refusal. The socket buffer of a fresh
                            // connection always has room for one small
                            // frame, so this best-effort write lands.
                            shared.rejected.fetch_add(1, Ordering::Relaxed);
                            let mut s = stream;
                            let _ = write_frame(
                                &mut s,
                                &error_frame(
                                    "connection-limit",
                                    &format!(
                                        "server holds {} connections already",
                                        shared.opts.max_connections
                                    ),
                                ),
                            );
                            let _ = s.shutdown(std::net::Shutdown::Both);
                            continue;
                        }
                        let conn = Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            outbox: Vec::new(),
                            cursor: 0,
                            written_total: 0,
                            queued_total: 0,
                            spool_deletes: VecDeque::new(),
                            pending: VecDeque::new(),
                            in_flight: 0,
                            gen: next_gen,
                            closed: Arc::new(AtomicBool::new(false)),
                            read_closed: false,
                            close_after_flush: false,
                            last_progress: Instant::now(),
                        };
                        next_gen += 1;
                        match conns.iter().position(Option::is_none) {
                            Some(slot) => conns[slot] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                        shared
                            .connections_open
                            .store((open + 1) as u64, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // --- Route worker output into per-connection outboxes.
        let msgs: Vec<OutMsg> = std::mem::take(&mut *out.lock().expect("out queue"));
        for msg in msgs {
            progress = true;
            match msg {
                OutMsg::Frame {
                    conn,
                    gen,
                    bytes,
                    spool,
                } => {
                    match conns.get_mut(conn).and_then(Option::as_mut) {
                        Some(c) if c.gen == gen => c.enqueue(&bytes, spool),
                        // Connection is gone: the bytes are undeliverable
                        // and any spool file stays on disk so a retry of
                        // the request id resumes the saved work.
                        _ => {}
                    }
                }
                OutMsg::Done { conn, gen } => {
                    global_in_flight -= 1;
                    if let Some(c) = conns.get_mut(conn).and_then(Option::as_mut) {
                        if c.gen == gen {
                            c.in_flight -= 1;
                        }
                    }
                }
            }
        }

        // --- Per-connection i/o sweep.
        for slot in 0..conns.len() {
            let Some(c) = conns[slot].as_mut() else {
                continue;
            };
            let mut close_now = false;

            // Write side first: drain whatever the socket will take.
            while c.cursor < c.outbox.len() {
                let end = (c.cursor + WRITE_CHUNK).min(c.outbox.len());
                match c.stream.write(&c.outbox[c.cursor..end]) {
                    Ok(0) => {
                        close_now = true;
                        break;
                    }
                    Ok(n) => {
                        c.cursor += n;
                        c.written_total += n as u64;
                        c.last_progress = Instant::now();
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close_now = true;
                        break;
                    }
                }
            }
            if c.flushed() {
                c.outbox.clear();
                c.cursor = 0;
            } else if c.cursor >= COMPACT_AT {
                c.outbox.drain(..c.cursor);
                c.cursor = 0;
            }
            // A result frame's bytes reached the kernel: the spool is
            // now redundant (crash-recovery contract, `docs/SERVER.md`).
            while let Some((target, _)) = c.spool_deletes.front() {
                if *target <= c.written_total {
                    let (_, path) = c.spool_deletes.pop_front().expect("front exists");
                    let _ = shared.opts.fs.remove_file(&path);
                } else {
                    break;
                }
            }

            // Read side: pull every available byte, assemble frames.
            if !close_now && !c.close_after_flush && !c.read_closed {
                loop {
                    match c.stream.read(&mut read_buf) {
                        Ok(0) => {
                            // Half-close: the peer finished sending but
                            // may still be reading; answer everything
                            // already admitted, then close.
                            c.read_closed = true;
                            break;
                        }
                        Ok(n) => {
                            c.decoder.extend(&read_buf[..n]);
                            c.last_progress = Instant::now();
                            progress = true;
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            close_now = true;
                            break;
                        }
                    }
                }
            }
            if !close_now && !c.close_after_flush {
                loop {
                    match c.decoder.next_frame() {
                        Ok(None) => break,
                        Ok(Some(frame)) => {
                            progress = true;
                            handle_frame(shared, c, &frame);
                        }
                        Err(WireError::Oversize(n)) => {
                            // The unread payload leaves the stream
                            // unframed; reject and close once the typed
                            // error has flushed.
                            shared.rejected.fetch_add(1, Ordering::Relaxed);
                            c.enqueue_frame(&error_frame(
                                "oversize-frame",
                                &WireError::Oversize(n).to_string(),
                            ));
                            c.close_after_flush = true;
                            break;
                        }
                        Err(e) => {
                            // Framing stayed aligned (the payload was
                            // consumed): typed error, keep the stream.
                            shared.rejected.fetch_add(1, Ordering::Relaxed);
                            c.enqueue_frame(&error_frame("bad-frame", &e.to_string()));
                        }
                    }
                }
            }

            // INV-NONBLOCK timeouts: only peers stalled mid-frame or
            // with unflushed output are on the clock; idle connections
            // are held indefinitely — that is the point of the reactor.
            if let Some(deadline) = shared.opts.io_timeout {
                if !close_now && c.last_progress.elapsed() > deadline {
                    if !c.flushed() {
                        // Write stall: the peer stopped reading; the
                        // typed error could not be delivered anyway.
                        close_now = true;
                    } else if c.decoder.mid_frame() {
                        // Read stall mid-frame (slow loris): typed
                        // timeout, then close. Counts as a rejection,
                        // same as the blocking front-end's deadline.
                        shared.rejected.fetch_add(1, Ordering::Relaxed);
                        c.enqueue_frame(&error_frame(
                            "timeout",
                            "connection stalled mid-frame past the server's i/o deadline",
                        ));
                        c.close_after_flush = true;
                    }
                }
            }

            let drained_out = c.flushed();
            let work_done = c.pending.is_empty() && c.in_flight == 0;
            if c.close_after_flush && drained_out {
                close_now = true;
            }
            if c.read_closed && work_done && drained_out {
                close_now = true;
            }
            if close_now {
                c.closed.store(true, Ordering::Relaxed);
                conns[slot] = None;
                progress = true;
                shared
                    .connections_open
                    .store(conns.iter().flatten().count() as u64, Ordering::Relaxed);
            }
        }

        // --- Dispatch (INV-FAIRNESS): round-robin, fresh-first. Pass 1
        // serves connections with nothing in flight; pass 2 grants
        // second (pipelined) slots only from what remains. Every pass-1
        // dispatch made while some other connection's pipelined request
        // waited is recorded as a fairness deferral.
        let mut slots = workers.saturating_sub(global_in_flight);
        if slots > 0 && !conns.is_empty() {
            let n = conns.len();
            let deferred_exists = conns
                .iter()
                .flatten()
                .any(|c| !c.pending.is_empty() && c.in_flight > 0 && !c.close_after_flush);
            for pass in 0..2u8 {
                for step in 0..n {
                    if slots == 0 {
                        break;
                    }
                    let idx = (rr + step) % n;
                    let Some(c) = conns[idx].as_mut() else {
                        continue;
                    };
                    if c.close_after_flush || c.pending.is_empty() {
                        continue;
                    }
                    let fresh = c.in_flight == 0;
                    if (pass == 0) != fresh {
                        continue;
                    }
                    let req = c.pending.pop_front().expect("pending non-empty");
                    if pass == 0 && deferred_exists {
                        shared.fairness_deferrals.fetch_add(1, Ordering::Relaxed);
                    }
                    let sink = QueueSink {
                        out: Arc::clone(&out),
                        conn: idx,
                        gen: c.gen,
                        tag: req.request_id.clone(),
                        closed: Arc::clone(&c.closed),
                    };
                    c.in_flight += 1;
                    global_in_flight += 1;
                    slots -= 1;
                    progress = true;
                    let (queue, ready) = &*jobs;
                    queue
                        .lock()
                        .expect("job queue")
                        .push_back(Job::Run(Box::new((req, sink))));
                    ready.notify_one();
                }
            }
            rr = (rr + 1) % n.max(1);
        }

        // --- Drain completion: everything admitted has been answered
        // and flushed (stragglers close via the stall deadline).
        if draining
            && global_in_flight == 0
            && conns
                .iter()
                .flatten()
                .all(|c| c.pending.is_empty() && c.flushed())
        {
            break;
        }

        if progress {
            idle_sweeps = 0;
        } else {
            idle_sweeps = idle_sweeps.saturating_add(1);
            let tick = if idle_sweeps > 8 {
                TICK_IDLE
            } else {
                TICK_BUSY
            };
            std::thread::sleep(tick);
        }
    }

    // Close every surviving connection, stop the workers, report.
    for slot in conns.iter_mut() {
        if let Some(c) = slot.take() {
            c.closed.store(true, Ordering::Relaxed);
        }
    }
    shared.connections_open.store(0, Ordering::Relaxed);
    {
        let (queue, ready) = &*jobs;
        let mut q = queue.lock().expect("job queue");
        for _ in 0..workers {
            q.push_back(Job::Stop);
        }
        ready.notify_all();
    }
    for handle in worker_handles {
        let _ = handle.join();
    }
    shared.report()
}

/// Handles one complete inbound frame on the event-loop thread. Only
/// cheap work happens here (INV-NONBLOCK): request validation without
/// the graph build, stats snapshots, and the shutdown flag.
fn handle_frame(shared: &Arc<Shared>, c: &mut Conn, frame: &Value) {
    // Error replies echo the request's id (when it sent one) so a
    // pipelining client can route the rejection (INV-PIPELINE-ORDER).
    let tag = frame
        .get("request_id")
        .and_then(|v| v.as_str().ok())
        .map(str::to_string);
    let reject = |c: &mut Conn, code: &str, msg: &str| {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        let mut err = error_frame(code, msg);
        if let Some(id) = &tag {
            err = tag_request_id(err, id);
        }
        c.enqueue_frame(&err);
    };
    match frame.get("type").and_then(|t| t.as_str().ok()) {
        Some("request") => match validate_request(shared, frame) {
            Err((code, message)) => reject(c, code, &message),
            Ok(req) => {
                if c.pending.len() + c.in_flight >= PIPELINE_DEPTH {
                    reject(
                        c,
                        "rejected-busy",
                        &format!("connection pipeline depth {PIPELINE_DEPTH} exceeded"),
                    );
                    return;
                }
                if c.pending.len() + c.in_flight > 0 {
                    shared.pipelined_requests.fetch_add(1, Ordering::Relaxed);
                }
                c.pending.push_back(req);
            }
        },
        Some("stats") => {
            let report = shared.report();
            let metrics = report.metrics_value();
            c.enqueue_frame(&obj([
                ("type", Value::Str("stats".into())),
                ("metrics", metrics),
            ]));
        }
        Some("shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            c.enqueue_frame(&obj([("type", Value::Str("ok".into()))]));
        }
        other => reject(
            c,
            "unknown-frame-type",
            &format!("unknown frame type {other:?}"),
        ),
    }
}
