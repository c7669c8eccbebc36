//! Loopback integration tests for the serve daemon (`aceso-serve`).
//!
//! The central claim under test: **serving a search changes nothing about
//! its result**. For iteration-budget requests, a served response must be
//! bit-identical to a direct in-process `AcesoSearch::run_observed` run —
//! the event stream byte-for-byte, every deterministic counter, the best
//! configuration's fingerprint, and the predicted time's bits — even with
//! eight clients in flight at once sharing one profile cache.

use aceso::obs::{without_wall_clock, Counter};
use aceso::prelude::*;
use aceso::search::{SearchStep, CHECKPOINT_SCHEMA_VERSION};
use aceso::serve::{
    self, ClientError, FaultMode, FaultProxy, Request, Response, ServeOptions, Server,
};
use aceso::serve::{read_frame, spool_path, write_frame, WireError, MAX_FRAME_BYTES};
use aceso::util::json::{obj, Value};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A per-test scratch directory under the system temp dir.
fn temp_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aceso-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp spool dir");
    dir
}

/// Waits (briefly) for a spool file to disappear. The server unlinks
/// the spool *after* the result frame reaches the kernel, so the client
/// can observe its response a beat before the deletion lands; the
/// contract is "deleted once the client has the result", not "deleted
/// before the result is readable".
fn assert_spool_removed(path: &Path, ctx: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while path.exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "{ctx}: spool {} must be removed once the client has the result",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Binds an ephemeral-port daemon and runs it on a background thread.
fn start(opts: ServeOptions) -> (String, std::thread::JoinHandle<aceso::obs::ObsReport>) {
    let server = Server::bind("127.0.0.1:0", opts).expect("binds an ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// Runs the request's search directly through the library, exactly as the
/// server does (same `Request::search_options` mapping).
fn direct_run(req: &Request) -> (aceso::search::SearchResult, aceso::obs::ObsReport) {
    let model = aceso::model::zoo::by_name(&req.model).expect("zoo model");
    let cluster = ClusterSpec::v100_gpus(req.gpus);
    let db = ProfileDb::build(&model, &cluster);
    AcesoSearch::new(&model, &cluster, &db, req.search_options())
        .run_observed(true)
        .expect("direct search succeeds")
}

/// Asserts a served response is bit-identical to the direct library run.
fn assert_matches_direct(resp: &Response, req: &Request, ctx: &str) {
    let (want, report) = direct_run(req);
    assert_eq!(
        resp.events_jsonl(),
        report.events_jsonl(),
        "{ctx}: event stream must be byte-identical"
    );
    assert_eq!(
        without_wall_clock(resp.metrics.clone()).to_string_compact(),
        without_wall_clock(report.metrics_value()).to_string_compact(),
        "{ctx}: metric snapshots without their wall-clock parts must match"
    );
    let bits = resp
        .result
        .field("best_time_bits")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        bits,
        want.best_time.to_bits(),
        "{ctx}: best_time must match to the bit"
    );
    assert_eq!(
        resp.result
            .field("best_fingerprint")
            .unwrap()
            .as_u64()
            .unwrap(),
        want.best_config.semantic_hash(),
        "{ctx}: best configuration fingerprint"
    );
    assert_eq!(
        resp.result.field("explored").unwrap().as_u64().unwrap(),
        want.explored as u64,
        "{ctx}: explored count"
    );
}

/// Eight clients at once, four distinct (model, gpus) keys — every served
/// response must be bit-identical to its direct library run, while pairs
/// of identical requests share one cached profile build.
#[test]
fn concurrent_requests_are_bit_identical_to_direct_runs() {
    let (addr, handle) = start(ServeOptions {
        workers: 8,
        ..ServeOptions::default()
    });
    let requests: Vec<Request> = [
        ("deepnet-8l", 2, 11u64),
        ("deepnet-8l", 2, 12),
        ("deepnet-12l", 2, 13),
        ("deepnet-12l", 2, 14),
        ("deepnet-8l", 4, 15),
        ("deepnet-8l", 4, 16),
        ("deepnet-16l", 4, 17),
        ("deepnet-16l", 4, 18),
    ]
    .into_iter()
    .map(|(model, gpus, seed)| Request {
        model: model.into(),
        gpus,
        seed,
        max_iterations: 8,
        ..Request::default()
    })
    .collect();

    let responses: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                let addr = addr.clone();
                s.spawn(move || serve::submit(&addr, req).expect("submit succeeds"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (resp, req)) in responses.iter().zip(&requests).enumerate() {
        assert_matches_direct(resp, req, &format!("request {i} ({})", req.model));
    }

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 8);
    assert_eq!(report.counter(Counter::ServeRejected), 0);
    // Four distinct (model, cluster) keys → four builds; the duplicate
    // requests share them (as hits or by waiting out a concurrent build).
    assert_eq!(report.counter(Counter::ProfileCacheMisses), 4);
    assert_eq!(report.counter(Counter::ProfileCacheHits), 4);
}

/// A repeated request is a profile-cache hit with measurably lower
/// profiling latency: the server reports the profiling phase's wall
/// clock in the result frame (`profile_micros`), and a hit collapses it
/// from a full `ProfileDb::build` to a map probe. (End-to-end latency is
/// search-dominated and noisy in a test run; `serve_bench` reports the
/// end-to-end cold/warm numbers.)
#[test]
fn repeated_request_is_a_faster_cache_hit() {
    let (addr, handle) = start(ServeOptions::default());
    let req = Request {
        model: "gpt3-0.35b".into(),
        gpus: 2,
        max_iterations: 2,
        ..Request::default()
    };
    let cold = serve::submit(&addr, &req).expect("cold submit");
    let warm = serve::submit(&addr, &req).expect("warm submit");
    let profile_micros = |r: &Response| r.result.field("profile_micros").unwrap().as_u64().unwrap();

    assert_eq!(cold.cache, "miss");
    assert_eq!(warm.cache, "hit");
    assert!(
        profile_micros(&warm) < profile_micros(&cold),
        "cache hit must cut profiling latency: cold {}µs vs warm {}µs",
        profile_micros(&cold),
        profile_micros(&warm)
    );
    // Bit-equality holds across the hit/miss divide too.
    assert_eq!(cold.events_jsonl(), warm.events_jsonl());
    assert_eq!(
        cold.result
            .field("best_time_bits")
            .unwrap()
            .as_u64()
            .unwrap(),
        warm.result
            .field("best_time_bits")
            .unwrap()
            .as_u64()
            .unwrap()
    );

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ProfileCacheHits), 1);
    assert_eq!(report.counter(Counter::ProfileCacheMisses), 1);
}

/// Reads the `code` field of an error frame.
fn error_code(frame: &Value) -> &str {
    assert_eq!(frame.field("type").unwrap().as_str().unwrap(), "error");
    frame.field("code").unwrap().as_str().unwrap()
}

/// Malformed frames get typed rejections: bad JSON keeps the connection
/// (framing stayed aligned), an oversize prefix ends it, and both count
/// as `serve_rejected`.
#[test]
fn malformed_frames_are_rejected_with_typed_errors() {
    let (addr, handle) = start(ServeOptions::default());

    // Bad JSON payload: typed error, connection survives for a retry.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&3u32.to_be_bytes()).unwrap();
    stream.write_all(b"{{{").unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).expect("error frame");
    assert_eq!(error_code(&reply), "bad-frame");
    write_frame(&mut stream, &obj([("type", Value::Str("stats".into()))])).unwrap();
    let stats = read_frame(&mut stream).expect("stats after bad frame");
    assert_eq!(stats.field("type").unwrap().as_str().unwrap(), "stats");
    drop(stream);

    // Oversize length prefix: typed error, then the server hangs up.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(&((MAX_FRAME_BYTES + 1) as u32).to_be_bytes())
        .unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).expect("error frame");
    assert_eq!(error_code(&reply), "oversize-frame");
    assert!(matches!(read_frame(&mut stream), Err(WireError::Closed)));

    // Unknown frame type and wrong protocol version are typed too.
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, &obj([("type", Value::Str("dance".into()))])).unwrap();
    assert_eq!(
        error_code(&read_frame(&mut stream).unwrap()),
        "unknown-frame-type"
    );
    let mut bad_version = aceso::util::json::ToJson::to_json_value(&Request {
        model: "deepnet-8l".into(),
        ..Request::default()
    });
    if let Value::Object(fields) = &mut bad_version {
        for (k, v) in fields.iter_mut() {
            if k == "protocol_version" {
                *v = Value::UInt(999);
            }
        }
    }
    write_frame(&mut stream, &bad_version).unwrap();
    assert_eq!(
        error_code(&read_frame(&mut stream).unwrap()),
        "bad-protocol-version"
    );
    drop(stream);

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 0);
    assert_eq!(report.counter(Counter::ServeRejected), 4);
}

/// With zero workers every well-formed request bounces with
/// `rejected-busy`: nothing could ever free a slot for it to wait on.
#[test]
fn zero_workers_reject_with_busy() {
    let (addr, handle) = start(ServeOptions {
        workers: 0,
        ..ServeOptions::default()
    });
    let err = serve::submit(
        &addr,
        &Request {
            model: "deepnet-8l".into(),
            gpus: 2,
            ..Request::default()
        },
    )
    .expect_err("must be rejected");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "rejected-busy"),
        other => panic!("expected a server rejection, got {other:?}"),
    }
    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 0);
    assert_eq!(report.counter(Counter::ServeRejected), 1);
}

/// With one worker, three clients submitting at once on separate
/// connections all get their answers: the requests queue for the worker
/// instead of bouncing with `rejected-busy`, and each response is
/// bit-identical to its direct run.
#[test]
fn queued_requests_wait_for_a_busy_worker() {
    let (addr, handle) = start(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let requests: Vec<Request> = [31u64, 32, 33]
        .into_iter()
        .map(|seed| Request {
            model: "deepnet-8l".into(),
            gpus: 2,
            max_iterations: 8,
            seed,
            ..Request::default()
        })
        .collect();
    let responses: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .iter()
            .map(|req| {
                let addr = addr.clone();
                s.spawn(move || serve::submit(&addr, req).expect("queued submit succeeds"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (resp, req) in responses.iter().zip(&requests) {
        assert_matches_direct(resp, req, &format!("queued request seed {}", req.seed));
    }
    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 3);
    assert_eq!(report.counter(Counter::ServeRejected), 0);
}

/// A client that submits again as soon as it has its result is never
/// bounced by its own finished request: the worker slot is released
/// before the result frame is written, not after, so even one worker
/// serves back-to-back submissions.
#[test]
fn back_to_back_submits_fit_one_worker() {
    let (addr, handle) = start(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 1,
        ..Request::default()
    };
    for i in 0..500 {
        serve::submit(&addr, &req).unwrap_or_else(|e| panic!("submit {i}: {e:?}"));
    }
    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 500);
    assert_eq!(report.counter(Counter::ServeRejected), 0);
}

/// Server-side resource caps bound what one request may ask for: an
/// absurd deepnet depth is rejected before the operator graph is even
/// built, and oversized gpus / iteration budgets bounce the same way,
/// all counting as `serve_rejected`.
#[test]
fn resource_caps_reject_oversized_requests() {
    let (addr, handle) = start(ServeOptions {
        max_deepnet_layers: Some(64),
        max_gpus: Some(8),
        max_iterations: Some(100),
        ..ServeOptions::default()
    });
    let expect_bad_request =
        |req: &Request| match serve::submit(&addr, req).expect_err("must be rejected") {
            ClientError::Server { code, .. } => assert_eq!(code, "bad-request"),
            other => panic!("expected a server rejection, got {other:?}"),
        };
    // Would be billions of ops if the graph were built; the rejection
    // must come back without the allocation (instantly).
    expect_bad_request(&Request {
        model: "deepnet-999999999l".into(),
        gpus: 2,
        ..Request::default()
    });
    expect_bad_request(&Request {
        model: "deepnet-8l".into(),
        gpus: 16,
        ..Request::default()
    });
    expect_bad_request(&Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 101,
        ..Request::default()
    });
    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 0);
    assert_eq!(report.counter(Counter::ServeRejected), 3);
}

/// Oversized request budgets are refused before any work happens.
#[test]
fn over_budget_requests_are_refused() {
    let (addr, handle) = start(ServeOptions {
        max_budget_secs: Some(10),
        ..ServeOptions::default()
    });
    let err = serve::submit(
        &addr,
        &Request {
            model: "deepnet-8l".into(),
            gpus: 2,
            budget_secs: Some(11),
            ..Request::default()
        },
    )
    .expect_err("must be rejected");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "budget-too-large"),
        other => panic!("expected a server rejection, got {other:?}"),
    }
    serve::shutdown(&addr).expect("shutdown");
    handle.join().unwrap();
}

/// Shutdown drains: the daemon acknowledges, finishes, and the listener
/// goes away; the drain report carries the session's counters.
#[test]
fn graceful_shutdown_drains_and_reports() {
    let (addr, handle) = start(ServeOptions::default());
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 4,
        ..Request::default()
    };
    serve::submit(&addr, &req).expect("submit");
    serve::shutdown(&addr).expect("shutdown acknowledged");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 1);
    assert_eq!(report.counter(Counter::ProfileCacheMisses), 1);
    // The listener is gone: a fresh connection cannot complete a request.
    match TcpStream::connect(&addr) {
        Err(_) => {}
        Ok(mut stream) => {
            // A connect may still succeed transiently (backlog); the
            // stream must be dead end-to-end though.
            let _ = write_frame(&mut stream, &obj([("type", Value::Str("stats".into()))]));
            assert!(read_frame(&mut stream).is_err(), "daemon must be gone");
        }
    }
}

/// A connection that goes quiet trips the server's i/o deadline and is
/// cut loose with a typed `timeout` error — whether it sent nothing at
/// all or stalled mid-frame — and each counts as `serve_rejected`.
#[test]
fn idle_connections_time_out_with_a_typed_error() {
    let (addr, handle) = start(ServeOptions {
        io_timeout: Some(Duration::from_millis(200)),
        ..ServeOptions::default()
    });

    // Connect and send nothing: the read deadline expires.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let reply = read_frame(&mut stream).expect("typed timeout frame");
    assert_eq!(error_code(&reply), "timeout");
    // A stalled read may have consumed part of a frame, so the server
    // drops the connection rather than trust its framing.
    assert!(read_frame(&mut stream).is_err());

    // Stall mid-frame: half a length prefix, then silence.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&[0, 0]).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).expect("typed timeout frame");
    assert_eq!(error_code(&reply), "timeout");

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRejected), 2);
    assert_eq!(report.counter(Counter::ServeRequests), 0);
}

/// The full crash-recovery loop: a connection severed mid-response loses
/// the client but not the work. The retry (queued behind the severed
/// search, which still holds the only worker slot) resumes from the
/// spooled checkpoint and gets a response bit-identical to a
/// never-interrupted direct run.
#[test]
fn severed_connection_resumes_from_spool_on_retry() {
    let spool = temp_spool("sever");
    let (addr, handle) = start(ServeOptions {
        workers: 1,
        spool_dir: Some(spool.clone()),
        checkpoint_every: 1,
        ..ServeOptions::default()
    });
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 8,
        seed: 21,
        request_id: Some("sever-job".into()),
        ..Request::default()
    };

    // First attempt through the fault proxy: the connection is severed
    // right after the two status frames, long before the result — the
    // wire view of a daemon crash or network partition.
    let proxy = FaultProxy::start(&addr, 2).expect("proxy starts");
    assert!(
        serve::submit(&proxy.addr(), &req).is_err(),
        "a severed submission must fail client-side"
    );

    // Retry directly at the daemon. The severed request still occupies
    // the only worker slot until its search finishes, so the retry waits
    // in the admission queue, then finds the spool the severed search
    // left behind.
    let resp = serve::submit_with_retries(&addr, &req, 12, None).expect("retry succeeds");
    assert_matches_direct(&resp, &req, "resumed after a severed connection");
    // Success deletes the spool: the id is safe to reuse.
    assert_spool_removed(&spool_path(&spool, "sever-job"), "sever");

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 2);
    assert_eq!(report.counter(Counter::SearchResumed), 1);
    assert_eq!(report.counter(Counter::ClientRetries), 1);
    assert!(report.counter(Counter::CheckpointsWritten) >= 1);
    assert!(
        report.events_jsonl().contains("\"search_resumed\""),
        "the drain report must carry the resume event"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

/// Spools survive the daemon itself: a checkpoint left by a previous
/// process (here: written directly, exactly as `--spool-dir` would) is
/// picked up by a freshly started daemon when the same request id is
/// resubmitted, and the resumed response is bit-identical.
#[test]
fn daemon_restart_resumes_a_preseeded_spool() {
    let spool = temp_spool("restart");
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 8,
        seed: 33,
        request_id: Some("restart-job".into()),
        ..Request::default()
    };

    // The previous daemon's life, in miniature: run the same search the
    // server would and spool its first pause, then "crash".
    let model = aceso::model::zoo::by_name(&req.model).unwrap();
    let cluster = ClusterSpec::v100_gpus(req.gpus);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, req.search_options());
    let SearchStep::Paused(ckpt) = search.run_partial(true, 2).expect("partial run") else {
        panic!("an 8-iteration search must pause at bound 2");
    };
    std::fs::write(spool_path(&spool, "restart-job"), ckpt.to_json_string()).unwrap();

    // The restarted daemon finds the spool on resubmit and resumes.
    let (addr, handle) = start(ServeOptions {
        spool_dir: Some(spool.clone()),
        ..ServeOptions::default()
    });
    let resp = serve::submit(&addr, &req).expect("resubmit succeeds");
    assert_matches_direct(&resp, &req, "resumed across a daemon restart");

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::SearchResumed), 1);
    assert_eq!(report.counter(Counter::ClientRetries), 1);
    assert!(report.events_jsonl().contains("\"search_resumed\""));
    let _ = std::fs::remove_dir_all(&spool);
}

/// A bad spool costs the saved work, never the request: corrupt JSON, a
/// future schema version and a forged position (more iterations than the
/// request's budget) all degrade to a fresh, still-bit-identical run,
/// each recorded as a `search_restarted` event in the drain report.
#[test]
fn bad_spools_degrade_to_fresh_runs() {
    let spool = temp_spool("bad");
    std::fs::write(spool_path(&spool, "garbage-job"), "{not json").unwrap();
    // A structurally valid checkpoint from a future schema version.
    let model = aceso::model::zoo::by_name("deepnet-8l").unwrap();
    let cluster = ClusterSpec::v100_gpus(2);
    let db = ProfileDb::build(&model, &cluster);
    let base = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 8,
        seed: 44,
        ..Request::default()
    };
    let search = AcesoSearch::new(&model, &cluster, &db, base.search_options());
    let SearchStep::Paused(ckpt) = search.run_partial(true, 2).expect("partial run") else {
        panic!("must pause at bound 2");
    };
    let future = ckpt.to_json_string().replacen(
        &format!("\"schema_version\":{CHECKPOINT_SCHEMA_VERSION}"),
        "\"schema_version\":999",
        1,
    );
    assert!(
        future.contains("\"schema_version\":999"),
        "failed to forge a future-version checkpoint"
    );
    std::fs::write(spool_path(&spool, "future-job"), future).unwrap();
    let mut forged = ckpt.clone();
    forged.stages[0].iterations = base.max_iterations + 1;
    std::fs::write(spool_path(&spool, "forged-job"), forged.to_json_string()).unwrap();

    let (addr, handle) = start(ServeOptions {
        spool_dir: Some(spool.clone()),
        ..ServeOptions::default()
    });
    for id in ["garbage-job", "future-job", "forged-job"] {
        let req = Request {
            request_id: Some(id.into()),
            ..base.clone()
        };
        let resp = serve::submit(&addr, &req)
            .unwrap_or_else(|e| panic!("{id}: a bad spool must not fail the request: {e}"));
        assert_matches_direct(&resp, &req, &format!("{id}: fresh run after bad spool"));
    }

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::SearchResumed), 0);
    assert_eq!(report.counter(Counter::ClientRetries), 3);
    let events = report.events_jsonl();
    assert!(
        events.contains("past the search's iteration budget"),
        "the forged position names its reason: {events}"
    );
    assert_eq!(
        events.matches("\"search_restarted\"").count(),
        3,
        "each bad spool must be recorded: {events}"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

/// Spool hygiene: the TTL sweep prunes aged checkpoints (and torn-write
/// `.tmp` leftovers) while live spools survive — both when called
/// directly and as the daemon's start-up sweep.
#[test]
fn spool_ttl_sweep_prunes_aged_spools_and_keeps_live_ones() {
    let spool = temp_spool("ttl");
    let aged = spool_path(&spool, "aged-job");
    std::fs::write(&aged, "{}").unwrap();
    let tmp = aged.with_extension("ckpt.tmp");
    std::fs::write(&tmp, "{").unwrap();
    std::thread::sleep(Duration::from_millis(1200));
    let live = spool_path(&spool, "live-job");
    std::fs::write(&live, "{}").unwrap();
    let pruned = serve::sweep_spools(&spool, Duration::from_secs(1));
    assert_eq!(pruned, 2, "the aged spool and its tmp leftover go");
    assert!(!aged.exists());
    assert!(!tmp.exists());
    assert!(live.exists(), "a spool younger than the TTL survives");

    // The daemon runs the same sweep at start when --spool-ttl-secs is
    // set: the re-aged spool disappears without any request arriving.
    std::fs::write(&aged, "{}").unwrap();
    std::thread::sleep(Duration::from_millis(1200));
    let live2 = spool_path(&spool, "live-job-2");
    std::fs::write(&live2, "{}").unwrap();
    let (addr, handle) = start(ServeOptions {
        spool_dir: Some(spool.clone()),
        spool_ttl_secs: Some(1),
        ..ServeOptions::default()
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while aged.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!aged.exists(), "daemon start must prune aged spools");
    assert!(live2.exists(), "daemon start must keep live spools");
    serve::shutdown(&addr).expect("shutdown");
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Requests written ahead on one connection change nothing about the
/// results: a sequential submission and a pipelined batch are all
/// bit-identical to direct library runs (`docs/SERVER.md`,
/// Determinism). The batch's seeds differ, so the per-request checks
/// also prove the answers came back whole and in request order
/// (INV-PIPELINE-ORDER), untagged.
#[test]
fn pipelined_responses_are_bit_identical_to_direct_runs() {
    let (addr, handle) = start(ServeOptions::default());
    let base = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 8,
        ..Request::default()
    };

    let seq = Request {
        seed: 11,
        ..base.clone()
    };
    let resp = serve::submit(&addr, &seq).expect("sequential submit");
    assert_matches_direct(&resp, &seq, "sequential");

    // Three requests written back to back on one connection.
    let reqs: Vec<Request> = [21u64, 22, 23]
        .into_iter()
        .map(|seed| Request {
            seed,
            request_id: Some(format!("pipe-{seed}")),
            ..base.clone()
        })
        .collect();
    let outcomes = serve::submit_pipelined(TcpStream::connect(&addr).unwrap(), &reqs)
        .expect("pipelined submit");
    assert_eq!(outcomes.len(), 3);
    for (outcome, req) in outcomes.iter().zip(&reqs) {
        let id = req.request_id.as_ref().unwrap();
        let resp = outcome.as_ref().unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_matches_direct(resp, req, &format!("pipelined {id}"));
        assert!(
            resp.result.get("request_id").is_none(),
            "{id}: answers are untagged"
        );
    }

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 4);
    assert_eq!(report.counter(Counter::ServeRejected), 0);
}

/// A slow-loris writer, trickling its request one byte per 300 ms past a
/// 100 ms deadline, gets a typed `timeout` and is cut loose.
#[test]
fn slow_loris_times_out_with_a_typed_error() {
    let (addr, handle) = start(ServeOptions {
        io_timeout: Some(Duration::from_millis(100)),
        ..ServeOptions::default()
    });
    let proxy = FaultProxy::start_with(
        &addr,
        FaultMode::SlowLoris {
            byte_delay: Duration::from_millis(300),
        },
    )
    .expect("proxy starts");
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        ..Request::default()
    };
    match serve::submit(&proxy.addr(), &req).expect_err("must time out") {
        ClientError::Server { code, .. } => assert_eq!(code, "timeout"),
        other => panic!("expected a typed timeout, got {other:?}"),
    }

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 0);
    assert_eq!(report.counter(Counter::ServeRejected), 1);
}

/// A half-closed socket (client EOF after one request) is not an error:
/// the admitted request is answered bit-identically down the still-open
/// write side, then the server closes cleanly.
#[test]
fn half_close_completes_the_admitted_request() {
    let (addr, handle) = start(ServeOptions::default());
    let proxy = FaultProxy::start_with(&addr, FaultMode::HalfCloseAfter(1)).expect("proxy starts");
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 8,
        seed: 5,
        request_id: Some("hc-1".into()),
        ..Request::default()
    };
    let swallowed = Request {
        request_id: Some("hc-2".into()),
        ..req.clone()
    };

    let mut stream = TcpStream::connect(proxy.addr()).unwrap();
    use aceso::util::json::ToJson as _;
    write_frame(&mut stream, &req.to_json_value()).unwrap();
    // The proxy forwards exactly one frame, then half-closes toward the
    // server; this second request never arrives.
    let _ = write_frame(&mut stream, &swallowed.to_json_value());

    let resp = serve::read_response(&mut stream).expect("response survives the half-close");
    assert_matches_direct(&resp, &req, "half-closed connection");
    // After the reply, the server closes its side too.
    assert!(matches!(
        read_frame(&mut stream),
        Err(WireError::Closed | WireError::Io(_))
    ));

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(report.counter(Counter::ServeRequests), 1);
}

/// A connection cut mid-pipeline loses its own client, never its
/// neighbours: a concurrent request on another connection completes
/// bit-identically and the daemon drains cleanly.
#[test]
fn mid_pipeline_cut_leaves_other_connections_intact() {
    let (addr, handle) = start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let base = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 8,
        seed: 9,
        ..Request::default()
    };

    let (cut, survivor) = std::thread::scope(|s| {
        let victim = {
            let (addr, base) = (addr.clone(), base.clone());
            s.spawn(move || {
                // Severed after 3 response frames — mid-way through the
                // first response, with the second request queued behind.
                let proxy = FaultProxy::start(&addr, 3).expect("proxy starts");
                let reqs: Vec<Request> = ["cut-a", "cut-b"]
                    .into_iter()
                    .map(|id| Request {
                        request_id: Some(id.into()),
                        ..base.clone()
                    })
                    .collect();
                serve::submit_pipelined(TcpStream::connect(proxy.addr())?, &reqs)
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        let survivor = serve::submit(&addr, &base).expect("survivor submit");
        (victim.join().unwrap(), survivor)
    });

    assert!(cut.is_err(), "the severed pipeline must fail client-side");
    assert_matches_direct(&survivor, &base, "connection beside a severed pipeline");
    serve::shutdown(&addr).expect("shutdown");
    handle.join().unwrap();
}

/// `--max-connections` refuses connection N+1 with a typed
/// `connection-limit` error and closes it; freeing a slot re-admits.
#[test]
fn connection_limit_rejects_excess_connections() {
    let (addr, handle) = start(ServeOptions {
        max_connections: 2,
        ..ServeOptions::default()
    });
    let held_one = TcpStream::connect(&addr).unwrap();
    let held_two = TcpStream::connect(&addr).unwrap();
    // Let the accept loop take both holders before the third arrives.
    std::thread::sleep(Duration::from_millis(50));

    let mut excess = TcpStream::connect(&addr).unwrap();
    let reply = read_frame(&mut excess).expect("typed refusal frame");
    assert_eq!(error_code(&reply), "connection-limit");
    assert!(
        read_frame(&mut excess).is_err(),
        "refused connection closes"
    );

    // Dropping a holder frees its slot once its thread reads the EOF; a
    // new connection is then admitted (poll briefly).
    drop(held_one);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let mut retry = TcpStream::connect(&addr).unwrap();
        write_frame(&mut retry, &obj([("type", Value::Str("stats".into()))])).unwrap();
        match read_frame(&mut retry) {
            Ok(frame) if frame.field("type").unwrap().as_str().unwrap() == "stats" => break frame,
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("slot never freed: {other:?}"),
        }
    };
    assert_eq!(stats.field("type").unwrap().as_str().unwrap(), "stats");
    drop(held_two);

    // The dropped connections free their slots as their threads end;
    // poll past any `connection-limit` refusal in the interim.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match serve::shutdown(&addr) {
            Ok(()) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("shutdown: {e:?}"),
        }
    }
    let report = handle.join().unwrap();
    assert!(report.counter(Counter::ServeRejected) >= 1);
}

/// Fleet smoke: 64 concurrent mixed connections — idle holders plus
/// single-shot submitters queued for the default four workers — against
/// one daemon, zero errors. (`serve_bench fleet` scales the same shape
/// to 512+ clients with latency percentiles; `obs_check` gates the
/// committed numbers.)
#[test]
fn fleet_smoke_sixty_four_clients() {
    let (addr, handle) = start(ServeOptions::default());
    // One warm-up so the fleet shares a built profile cache entry.
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 1,
        ..Request::default()
    };
    serve::submit(&addr, &req).expect("warm-up");

    let clients = 64;
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        let mut submitters = Vec::new();
        for i in 0..clients {
            let (addr, req) = (addr.clone(), req.clone());
            let stop = stop.clone();
            let builder = std::thread::Builder::new().stack_size(256 * 1024);
            if i % 2 == 0 {
                builder
                    .spawn_scoped(s, move || {
                        let conn = TcpStream::connect(&addr).expect("idle connect");
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        drop(conn);
                    })
                    .expect("spawns");
            } else {
                submitters.push(
                    builder
                        .spawn_scoped(s, move || serve::submit(&addr, &req))
                        .expect("spawns"),
                );
            }
        }
        for sub in submitters {
            sub.join().unwrap().expect("every fleet submit succeeds");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    serve::shutdown(&addr).expect("shutdown");
    let report = handle.join().unwrap();
    assert_eq!(
        report.counter(Counter::ServeRequests),
        1 + clients as u64 / 2
    );
    assert_eq!(report.counter(Counter::ServeRejected), 0);
}

/// The submitted plan round-trips: a `plan: true` request returns the
/// same JSON the runtime's `ExecutionPlan::build` produces directly.
#[test]
fn requested_plan_matches_direct_build() {
    let (addr, handle) = start(ServeOptions::default());
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 4,
        plan: true,
        ..Request::default()
    };
    let resp = serve::submit(&addr, &req).expect("submit");
    let plan = resp.plan.as_ref().expect("plan returned");
    let (result, _) = direct_run(&req);
    let direct = aceso::runtime::ExecutionPlan::build(
        &aceso::model::zoo::by_name(&req.model).unwrap(),
        &ClusterSpec::v100_gpus(req.gpus),
        &result.best_config,
    )
    .expect("plan builds");
    assert_eq!(
        plan.to_string_compact(),
        Value::parse(&direct.to_json()).unwrap().to_string_compact()
    );
    serve::shutdown(&addr).expect("shutdown");
    handle.join().unwrap();
}
