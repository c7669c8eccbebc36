//! Serve-mode harnesses (not paper experiments).
//!
//! **Fleet mode** drives the daemon with a mixed client fleet —
//! roughly half idle connection holders, a quarter slow-loris
//! writers that trickle a well-formed request byte by chunk, and a
//! quarter pipelined submitters — with SplitMix64-seeded think times.
//! It runs [`FLEET_DRAWS`] fleets one after another, prints each
//! draw's percentiles, and merges the counts into the snapshot as the
//! `serve_fleet` section (field reference in `docs/BENCHMARKS.md`;
//! `obs_check` gates the committed counts). Every well-formed request
//! must complete: `errors` other than zero fails the run.
//!
//! **Restart mode** checks what the persistent profile store
//! (`--store-dir`, `docs/STORE.md`) buys across a daemon restart: one
//! daemon pays the cold build, then fresh daemons sharing the same
//! store directory must each serve their first request off exactly one
//! store hit with no write-back, and answer with the cold response's
//! best time and fingerprint. Merges the counts and the simulated
//! profiling seconds each restart saves into the snapshot as the
//! `serve_restart` section, which `obs_check` gates exactly.
//!
//! Both modes write `BENCH_search.json` unless given another file.
//! Per-layer serve timings live in perfbench (`serve.cache_hit_us` and
//! friends), not here.
//!
//! ```console
//! $ cargo run --release -p aceso-bench --bin serve_bench fleet [clients] [out.json]
//! $ cargo run --release -p aceso-bench --bin serve_bench restart [out.json]
//! ```

use aceso_bench::harness::{
    bench_search_path, merge_bench_section, restart_sim_profiling_seconds, RESTART_KEY,
};
use aceso_obs::Counter;
use aceso_serve::{
    read_response, shutdown, submit, submit_pipelined, Request, ServeOptions, Server,
};
use aceso_util::json::{obj, ToJson, Value};
use aceso_util::table::Table;
use aceso_util::SplitMix64;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = |i: usize| args.get(i).map_or_else(bench_search_path, PathBuf::from);
    match args.first().map(String::as_str) {
        Some("fleet") => {
            let clients = args
                .get(1)
                .map_or(512, |s| s.parse().expect("clients parses"));
            run_fleet(clients, &out(2));
        }
        Some("restart") => run_restart(&out(1)),
        _ => {
            eprintln!(
                "usage: serve_bench fleet [clients] [out.json]\n       \
                 serve_bench restart [out.json]"
            );
            std::process::exit(2);
        }
    }
}

/// The shared fleet request: one small model so every client hits the
/// same profile-cache key and the measurement isolates the front-end,
/// not repeated profiling.
fn fleet_request(id: Option<String>) -> Request {
    Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 2,
        request_id: id,
        ..Request::default()
    }
}

/// Fleets per `serve_bench fleet` run: each draw is a fresh daemon
/// taking a fresh fan-in, so a fault that shows only under some
/// interleavings has more than one chance to surface as an error.
const FLEET_DRAWS: usize = 3;

/// One fleet's outcome.
struct FleetDraw {
    submitted: u64,
    errors: u64,
}

/// Runs [`FLEET_DRAWS`] fleets of `clients` mixed clients and merges
/// their counts into `out` as `serve_fleet`.
fn run_fleet(clients: usize, out: &std::path::Path) {
    let draws: Vec<FleetDraw> = (0..FLEET_DRAWS).map(|_| fleet_draw(clients)).collect();
    let errors: u64 = draws.iter().map(|d| d.errors).sum();
    merge_bench_section(
        out,
        "serve_fleet",
        obj([
            ("clients", Value::UInt(clients as u64)),
            ("draws", Value::UInt(FLEET_DRAWS as u64)),
            ("submitted", Value::UInt(draws[0].submitted)),
            ("errors", Value::UInt(errors)),
        ]),
    );
    assert_eq!(errors, 0, "every well-formed fleet request must complete");
}

/// Drives `clients` mixed clients at a fresh in-process daemon and
/// prints one fleet's percentile summary.
fn fleet_draw(clients: usize) -> FleetDraw {
    let server = Server::bind("127.0.0.1:0", ServeOptions::default()).expect("binds");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // Warm the profile cache so fleet latencies measure fan-in, not one
    // client paying the cold profiling cost for everyone.
    submit(&addr, &fleet_request(None)).expect("warm-up submit succeeds");

    eprintln!("driving {clients} mixed clients at daemon {addr}...");
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let errors = Arc::new(AtomicU64::new(0));
    let submitted = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    // Every client connects, one at a time, before any submits, so the
    // daemon really holds `clients` connections while requests flow and
    // no latency includes a connect. The daemon's accept loop falls
    // behind loopback connects, so its listen backlog (128) can fill and
    // a connect wait out a 1 s SYN retransmit; the slowest connect is
    // printed so that wait shows.
    let mut slowest_connect = Duration::ZERO;
    let streams: Vec<TcpStream> = (0..clients)
        .map(|_| {
            let start = Instant::now();
            let stream = TcpStream::connect(&addr).expect("fleet client connects");
            slowest_connect = slowest_connect.max(start.elapsed());
            stream
        })
        .collect();
    let t0 = Instant::now();
    // Submitters start together once every thread is up.
    let started = Arc::new(Barrier::new(clients));
    let mut handles = Vec::with_capacity(clients);
    for (i, stream) in streams.into_iter().enumerate() {
        let (latencies, errors, submitted, done, started) = (
            latencies.clone(),
            errors.clone(),
            submitted.clone(),
            done.clone(),
            started.clone(),
        );
        // nproc on CI boxes can be 1 and the fleet is hundreds of
        // threads; small stacks keep that cheap (clients only frame and
        // parse JSON, the searches run daemon-side).
        let handle = std::thread::Builder::new()
            .name(format!("fleet-{i}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                let mut rng = SplitMix64::new(0xF1EE7 ^ i as u64);
                started.wait();
                match i % 4 {
                    // Half the fleet: idle holders. Each costs the daemon
                    // one connection thread parked on a read; a fleet is
                    // over well inside the 30 s i/o deadline.
                    0 | 1 => {
                        while !done.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        drop(stream);
                    }
                    // A quarter: slow-loris writers. The request frame
                    // is well-formed but trickles out in small chunks
                    // with seeded think times; it must still complete.
                    2 => {
                        let mut stream = stream;
                        let req = fleet_request(None);
                        let payload = req.to_json_value().to_string_compact();
                        let bytes = payload.as_bytes();
                        let start = Instant::now();
                        let mut framed = (bytes.len() as u32).to_be_bytes().to_vec();
                        framed.extend_from_slice(bytes);
                        let mut ok = stream.write_all(&framed[..2]).is_ok();
                        let mut at = 2;
                        while ok && at < framed.len() {
                            std::thread::sleep(Duration::from_millis(1 + rng.next_u64() % 4));
                            let end = (at + 7 + (rng.next_u64() % 9) as usize).min(framed.len());
                            ok = stream
                                .write_all(&framed[at..end])
                                .and_then(|()| stream.flush())
                                .is_ok();
                            at = end;
                        }
                        submitted.fetch_add(1, Ordering::Relaxed);
                        if ok && read_response(&mut stream).is_ok() {
                            latencies
                                .lock()
                                .unwrap()
                                .push(start.elapsed().as_micros() as u64);
                        } else {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A quarter: pipelined submitters — two requests on
                    // one connection, written back to back. The clock
                    // starts at the first byte written.
                    _ => {
                        std::thread::sleep(Duration::from_millis(rng.next_u64() % 20));
                        let reqs = [
                            fleet_request(Some(format!("fleet-{i}-a"))),
                            fleet_request(Some(format!("fleet-{i}-b"))),
                        ];
                        let start = Instant::now();
                        let outcome = submit_pipelined(stream, &reqs);
                        let elapsed = start.elapsed().as_micros() as u64;
                        submitted.fetch_add(2, Ordering::Relaxed);
                        match outcome {
                            Ok(results) => {
                                for r in results {
                                    if r.is_ok() {
                                        latencies.lock().unwrap().push(elapsed);
                                    } else {
                                        errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(_) => {
                                errors.fetch_add(2, Ordering::Relaxed);
                            }
                        }
                    }
                }
            })
            .expect("fleet thread spawns");
        handles.push(handle);
    }
    // Submitting roles finish on their own; idle holders wait for them.
    let (idle, active): (Vec<_>, Vec<_>) = handles
        .into_iter()
        .enumerate()
        .partition(|(i, _)| i % 4 < 2);
    for (_, h) in active {
        h.join().expect("client thread survives");
    }
    done.store(true, Ordering::Relaxed);
    for (_, h) in idle {
        h.join().expect("idle thread survives");
    }
    let wall = t0.elapsed();
    shutdown(&addr).expect("shutdown");
    daemon.join().expect("daemon drains");

    let mut lat = latencies.lock().unwrap().clone();
    lat.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        lat[((lat.len() - 1) as f64 * p).round() as usize]
    };
    let (submitted, errors) = (
        submitted.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
    );
    let (p50, p99) = (pct(0.50), pct(0.99));
    let mut table = Table::new(
        "serve fleet fan-in: mixed idle / slow-loris / pipelined clients",
        &[
            "clients",
            "submitted",
            "errors",
            "p50",
            "p99",
            "slowest connect",
            "wall",
        ],
    );
    table.row(&[
        clients.to_string(),
        submitted.to_string(),
        errors.to_string(),
        format!("{p50} µs"),
        format!("{p99} µs"),
        format!("{} µs", slowest_connect.as_micros()),
        format!("{wall:.2?}"),
    ]);
    print!("{}", table.render());
    FleetDraw { submitted, errors }
}

/// Fresh daemons started on the warm store.
const RESTART_SAMPLES: usize = 3;

/// Checks the store-backed restart path: a cold build, then fresh
/// daemons whose first request is served off the shared `--store-dir`
/// (cache empty, store warm). Each restarted daemon must count exactly
/// one store hit and no store write, and return the cold response's
/// best time and fingerprint bit for bit.
fn run_restart(out: &std::path::Path) {
    let store = std::env::temp_dir().join(format!("aceso-restart-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let req = Request {
        model: RESTART_KEY.0.into(),
        gpus: RESTART_KEY.1,
        max_iterations: 8,
        ..Request::default()
    };
    // Starts a daemon on the store, submits `req` once and drains it:
    // the response's best time and fingerprint, plus the drain report's
    // store hits and writes.
    let serve = || {
        let opts = ServeOptions {
            store_dir: Some(store.clone()),
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", opts).expect("binds");
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());
        let resp = submit(&addr, &req).expect("submit succeeds");
        shutdown(&addr).expect("shutdown");
        let report = daemon.join().expect("daemon drains");
        let field = |name| resp.result.field(name).cloned().expect("result field");
        (
            (field("best_time_bits"), field("best_fingerprint")),
            (
                report.counter(Counter::StoreHits),
                report.counter(Counter::StoreWrites),
            ),
        )
    };

    eprintln!(
        "checking cold/restart against store dir {}...",
        store.display()
    );
    // Daemon A: the cold request profiles the model and writes the store
    // entry. Fresh daemons sharing the store dir: each first request
    // must turn its cache miss into one store load, with the cold answer.
    let (cold, _) = serve();
    let restarts: Vec<_> = (0..RESTART_SAMPLES).map(|_| serve()).collect();
    // Clean up before asserting, so a failing run leaves no store behind.
    let _ = std::fs::remove_dir_all(&store);
    for (answer, counts) in &restarts {
        assert_eq!(
            *counts,
            (1, 0),
            "a restarted daemon must serve off one store hit with no write-back"
        );
        assert_eq!(
            *answer, cold,
            "a restarted daemon must return the cold best time and fingerprint"
        );
    }
    let saved = restart_sim_profiling_seconds();
    println!(
        "store-backed restart: {RESTART_SAMPLES} restarted daemons served off 1 store hit \
         and 0 writes each; {saved:.1} simulated profiling s saved per restart"
    );
    merge_bench_section(
        out,
        "serve_restart",
        obj([
            ("restarts", Value::UInt(RESTART_SAMPLES as u64)),
            ("store_hits", Value::UInt(1)),
            ("store_writes", Value::UInt(0)),
            ("sim_profiling_s_saved", Value::Float(saved)),
        ]),
    );
}
