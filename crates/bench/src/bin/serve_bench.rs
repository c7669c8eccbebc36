//! Serve-mode harnesses (not paper experiments).
//!
//! **Latency mode** (default) measures what the cross-request profile
//! cache buys by submitting the same job to an in-process loopback
//! daemon cold (cache miss) and warm (cache hit), and reports
//! end-to-end plus profiling-phase latency for both. A final spooled
//! request (request id + `--spool-dir` checkpointing) measures what
//! crash recovery costs on top of a warm hit. The checkpoint slices
//! live between iterations — the per-evaluation hot path
//! (`eval_latency_us`) is untouched — so the printed overhead is purely
//! the pause/serialise/resume cycles.
//!
//! **Fleet mode** drives the `--reactor` front-end with a mixed client
//! fleet — roughly half idle connection holders, a quarter slow-loris
//! writers that trickle a well-formed request byte by chunk, and a
//! quarter pipelined submitters — with SplitMix64-seeded think times.
//! It runs [`FLEET_DRAWS`] fleets one after another, then merges the
//! median `p50_us` and `p99_us` over the draws, each with its
//! `[min, max]` range, into the snapshot as the `serve_fleet` section
//! (field reference in `docs/BENCHMARKS.md`; `obs_check` gates the
//! committed numbers). Every well-formed request must complete:
//! `errors` other than zero fails the run.
//!
//! **Restart mode** checks what the persistent profile store
//! (`--store-dir`, `docs/STORE.md`) buys across a daemon restart: one
//! daemon pays the cold build and warm cache hits, then fresh daemons
//! sharing the same store directory must each serve their first request
//! off exactly one store hit with no write-back, and answer with the
//! cold response's best time and fingerprint. Merges the counts and the
//! simulated profiling seconds each restart saves into the snapshot as
//! the `serve_restart` section, which `obs_check` gates exactly; the
//! `cold_us`/`warm_us`/`restart_us` latencies are information only.
//!
//! ```console
//! $ cargo run --release -p aceso-bench --bin serve_bench [model] [gpus]
//! $ cargo run --release -p aceso-bench --bin serve_bench fleet [clients] [out.json]
//! $ cargo run --release -p aceso-bench --bin serve_bench restart [out.json]
//! ```

use aceso_bench::harness::{
    bench_search_path, merge_bench_section, restart_sim_profiling_seconds, RESTART_KEY,
};
use aceso_obs::Counter;
use aceso_serve::{read_frame, shutdown, submit, submit_pipelined, Request, ServeOptions, Server};
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
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("fleet") => {
            let clients = args
                .next()
                .map(|s| s.parse().expect("clients parses"))
                .unwrap_or(512);
            let out = args
                .next()
                .map(PathBuf::from)
                .unwrap_or_else(bench_search_path);
            run_fleet(clients, &out);
        }
        Some("restart") => {
            let out = args
                .next()
                .map(PathBuf::from)
                .unwrap_or_else(bench_search_path);
            run_restart(&out);
        }
        model => run_latency(
            model.unwrap_or("gpt3-2.6b").to_string(),
            std::env::args()
                .nth(2)
                .map(|s| s.parse().expect("gpus parses"))
                .unwrap_or(8),
        ),
    }
}

/// The shared fleet request: one small model so every client hits the
/// same profile-cache key and the measurement isolates the reactor, not
/// repeated profiling.
fn fleet_request(id: Option<String>) -> Request {
    Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 2,
        request_id: id,
        ..Request::default()
    }
}

/// Fleets per `serve_bench fleet` run. One fleet's percentiles are a
/// single draw from a wide spread (p50 from 167 to 442 ms across three
/// runs on a 2-vCPU host), so the committed figures are the median of
/// this many draws, with their range beside them.
const FLEET_DRAWS: usize = 3;

/// One fleet's outcome.
struct FleetDraw {
    submitted: u64,
    errors: u64,
    p50_us: u64,
    p99_us: u64,
}

/// Runs [`FLEET_DRAWS`] fleets of `clients` mixed clients and merges the
/// median percentiles, with their ranges, into `out` as `serve_fleet`.
fn run_fleet(clients: usize, out: &std::path::Path) {
    let draws: Vec<FleetDraw> = (0..FLEET_DRAWS).map(|_| fleet_draw(clients)).collect();
    let errors: u64 = draws.iter().map(|d| d.errors).sum();
    // Median and range of one percentile over the draws.
    let spread = |pick: fn(&FleetDraw) -> u64| {
        let mut v: Vec<u64> = draws.iter().map(pick).collect();
        v.sort_unstable();
        (v[v.len() / 2], v[0], v[v.len() - 1])
    };
    let (p50, p50_min, p50_max) = spread(|d| d.p50_us);
    let (p99, p99_min, p99_max) = spread(|d| d.p99_us);
    let range = |lo, hi| Value::Array(vec![Value::UInt(lo), Value::UInt(hi)]);
    merge_bench_section(
        out,
        "serve_fleet",
        obj([
            ("clients", Value::UInt(clients as u64)),
            ("draws", Value::UInt(FLEET_DRAWS as u64)),
            ("submitted", Value::UInt(draws[0].submitted)),
            ("errors", Value::UInt(errors)),
            ("p50_us", Value::UInt(p50)),
            ("p50_us_range", range(p50_min, p50_max)),
            ("p99_us", Value::UInt(p99)),
            ("p99_us_range", range(p99_min, p99_max)),
        ]),
    );
    assert_eq!(errors, 0, "every well-formed fleet request must complete");
}

/// Drives `clients` mixed clients at a fresh in-process reactor daemon
/// and prints one fleet's percentile summary.
fn fleet_draw(clients: usize) -> FleetDraw {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            reactor: true,
            ..ServeOptions::default()
        },
    )
    .expect("binds");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    // Warm the profile cache so fleet latencies measure fan-in, not one
    // client paying the cold profiling cost for everyone.
    submit(&addr, &fleet_request(None)).expect("warm-up submit succeeds");

    eprintln!("driving {clients} mixed clients at reactor daemon {addr}...");
    let t0 = Instant::now();
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let errors = Arc::new(AtomicU64::new(0));
    let submitted = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    // All clients connect before any submits, so the daemon really holds
    // `clients` concurrent connections while requests flow.
    let connected = Arc::new(Barrier::new(clients));
    let mut handles = Vec::with_capacity(clients);
    for i in 0..clients {
        let (addr, latencies, errors, submitted, done, connected) = (
            addr.clone(),
            latencies.clone(),
            errors.clone(),
            submitted.clone(),
            done.clone(),
            connected.clone(),
        );
        // nproc on CI boxes can be 1 and the fleet is hundreds of
        // threads; small stacks keep that cheap (clients only frame and
        // parse JSON, the searches run daemon-side).
        let handle = std::thread::Builder::new()
            .name(format!("fleet-{i}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                let mut rng = SplitMix64::new(0xF1EE7 ^ i as u64);
                match i % 4 {
                    // Half the fleet: idle holders. They cost the
                    // reactor a slab slot, never a thread or a timeout —
                    // INV-NONBLOCK holds quiet connections indefinitely.
                    0 | 1 => {
                        let stream = TcpStream::connect(&addr).expect("idle connect");
                        connected.wait();
                        while !done.load(Ordering::Relaxed) {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        drop(stream);
                    }
                    // A quarter: slow-loris writers. The request frame
                    // is well-formed but trickles out in small chunks
                    // with seeded think times; it must still complete.
                    2 => {
                        let mut stream = TcpStream::connect(&addr).expect("slow connect");
                        connected.wait();
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
                        if ok && read_until_result(&mut stream) {
                            latencies
                                .lock()
                                .unwrap()
                                .push(start.elapsed().as_micros() as u64);
                        } else {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A quarter: pipelined submitters — two tagged
                    // requests on one connection, written back to back.
                    _ => {
                        connected.wait();
                        std::thread::sleep(Duration::from_millis(rng.next_u64() % 20));
                        let reqs = [
                            fleet_request(Some(format!("fleet-{i}-a"))),
                            fleet_request(Some(format!("fleet-{i}-b"))),
                        ];
                        let start = Instant::now();
                        let outcome = submit_pipelined(&addr, &reqs);
                        let elapsed = start.elapsed().as_micros() as u64;
                        submitted.fetch_add(2, Ordering::Relaxed);
                        match outcome {
                            Ok(results) => {
                                for (_, r) in results {
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
        "reactor fleet fan-in: mixed idle / slow-loris / pipelined clients",
        &["clients", "submitted", "errors", "p50", "p99", "wall"],
    );
    table.row(&[
        clients.to_string(),
        submitted.to_string(),
        errors.to_string(),
        format!("{p50} µs"),
        format!("{p99} µs"),
        format!("{wall:.2?}"),
    ]);
    print!("{}", table.render());
    FleetDraw {
        submitted,
        errors,
        p50_us: p50,
        p99_us: p99,
    }
}

/// Fresh daemons started on the warm store; warm submits sample as
/// many times and keep the minimum.
const RESTART_SAMPLES: usize = 3;

/// Measures the store-backed restart path: cold build, warm in-memory
/// cache hits, then fresh daemons whose first request is served off the
/// shared `--store-dir` (cache empty, store warm). Each restarted daemon
/// must count exactly one store hit and no store write, and return the
/// cold response's best time and fingerprint bit for bit. The latencies
/// are printed and recorded for information only: the requests are
/// search-dominated, so their ratio measures search noise.
fn run_restart(out: &std::path::Path) {
    let store = std::env::temp_dir().join(format!("aceso-restart-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let req = Request {
        model: RESTART_KEY.0.into(),
        gpus: RESTART_KEY.1,
        max_iterations: 8,
        ..Request::default()
    };
    // Starts a daemon on the store, submits `req` `submits` times and
    // drains it: each response with its latency, plus the drain report.
    let serve = |submits: usize| {
        let opts = ServeOptions {
            store_dir: Some(store.clone()),
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", opts).expect("binds");
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run());
        let runs: Vec<(aceso_serve::Response, u64)> = (0..submits)
            .map(|_| {
                let t0 = Instant::now();
                let resp = submit(&addr, &req).expect("submit succeeds");
                (resp, t0.elapsed().as_micros() as u64)
            })
            .collect();
        shutdown(&addr).expect("shutdown");
        (runs, daemon.join().expect("daemon drains"))
    };
    let outcome = |resp: &aceso_serve::Response| {
        let field = |name| resp.result.field(name).cloned().expect("result field");
        (field("best_time_bits"), field("best_fingerprint"))
    };

    eprintln!(
        "measuring cold/warm/restart against store dir {}...",
        store.display()
    );
    // Daemon A: the cold request profiles the model and writes the store
    // entry; the warm requests hit the in-memory cache.
    let (runs, _) = serve(1 + RESTART_SAMPLES);
    let (cold, cold_us) = &runs[0];
    let warm_us = runs[1..].iter().map(|r| r.1).min().unwrap();
    // Fresh daemons sharing the store dir: each first request must turn
    // its cache miss into one store load, with the cold answer.
    let restarts: Vec<_> = (0..RESTART_SAMPLES)
        .map(|_| {
            let (runs, report) = serve(1);
            let counts = (
                report.counter(Counter::StoreHits),
                report.counter(Counter::StoreWrites),
            );
            (counts, outcome(&runs[0].0), runs[0].1)
        })
        .collect();
    // Clean up before asserting, so a failing run leaves no store behind.
    let _ = std::fs::remove_dir_all(&store);
    for (counts, answer, _) in &restarts {
        assert_eq!(
            *counts,
            (1, 0),
            "a restarted daemon must serve off one store hit with no write-back"
        );
        assert_eq!(
            *answer,
            outcome(cold),
            "a restarted daemon must return the cold best time and fingerprint"
        );
    }
    let restart_us = restarts.iter().map(|r| r.2).min().unwrap();
    let saved = restart_sim_profiling_seconds();

    let mut table = Table::new(
        "store-backed restart: cold build vs warm cache vs fresh daemon on a warm store",
        &["cold", "warm", "restart", "sim profiling saved"],
    );
    table.row(&[
        format!("{cold_us} µs"),
        format!("{warm_us} µs"),
        format!("{restart_us} µs"),
        format!("{saved:.1} s"),
    ]);
    print!("{}", table.render());
    merge_bench_section(
        out,
        "serve_restart",
        obj([
            ("restarts", Value::UInt(RESTART_SAMPLES as u64)),
            ("store_hits", Value::UInt(1)),
            ("store_writes", Value::UInt(0)),
            ("sim_profiling_s_saved", Value::Float(saved)),
            ("cold_us", Value::UInt(*cold_us)),
            ("warm_us", Value::UInt(warm_us)),
            ("restart_us", Value::UInt(restart_us)),
        ]),
    );
}

/// Reads frames until the request's terminal frame; true on `result`.
fn read_until_result(stream: &mut TcpStream) -> bool {
    loop {
        match read_frame(stream) {
            Ok(frame) => match frame.get("type").and_then(|t| t.as_str().ok()) {
                Some("result") => return true,
                Some("error") => return false,
                _ => continue,
            },
            Err(_) => return false,
        }
    }
}

/// The original cold/warm/spooled cache-latency comparison.
fn run_latency(model: String, gpus: usize) {
    if aceso_model::zoo::by_name(&model).is_none() {
        eprintln!("unknown model `{model}`");
        std::process::exit(2);
    }

    let spool = std::env::temp_dir().join(format!("aceso-serve-bench-{}", std::process::id()));
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            spool_dir: Some(spool.clone()),
            ..ServeOptions::default()
        },
    )
    .expect("binds");
    let addr = server.local_addr().to_string();
    let daemon = std::thread::spawn(move || server.run());

    let req = Request {
        model: model.clone(),
        gpus,
        max_iterations: 16,
        ..Request::default()
    };
    eprintln!("submitting {model} on {gpus} GPUs to loopback daemon at {addr}...");
    let mut table = Table::new(
        "serve-mode latency: cold (cache miss) vs warm (cache hit)",
        &[
            "request",
            "cache",
            "end-to-end",
            "profiling phase",
            "explored",
        ],
    );
    let mut timings = Vec::new();
    for label in ["cold", "warm-1", "warm-2", "warm-spooled"] {
        // The last request opts into checkpoint spooling via a request
        // id — same search, same warm cache, plus the recovery spool.
        let req = Request {
            request_id: (label == "warm-spooled").then(|| "serve-bench".into()),
            ..req.clone()
        };
        let t0 = Instant::now();
        let resp = submit(&addr, &req).expect("submit succeeds");
        let total = t0.elapsed();
        let micros = resp
            .result
            .field("profile_micros")
            .unwrap()
            .as_u64()
            .unwrap();
        let explored = resp.result.field("explored").unwrap().as_u64().unwrap();
        table.row(&[
            label.to_string(),
            resp.cache.clone(),
            format!("{total:.2?}"),
            format!("{micros} µs"),
            explored.to_string(),
        ]);
        timings.push((label, resp.cache.clone(), total, micros));
    }
    shutdown(&addr).expect("shutdown");
    daemon.join().expect("daemon drains");
    let _ = std::fs::remove_dir_all(&spool);

    print!("{}", table.render());
    let (_, _, cold_total, cold_micros) = &timings[0];
    let warm_micros = timings[1..3].iter().map(|t| t.3).min().unwrap();
    let warm_total = timings[1..3].iter().map(|t| t.2).min().unwrap();
    println!(
        "profile-cache speedup: {:.1}x on the profiling phase ({} µs -> {} µs), \
         end-to-end {:.2?} -> {:.2?}",
        *cold_micros as f64 / warm_micros.max(1) as f64,
        cold_micros,
        warm_micros,
        cold_total,
        warm_total,
    );
    let (_, _, spooled_total, _) = &timings[3];
    println!(
        "checkpoint-spool overhead: warm {warm_total:.2?} -> spooled {spooled_total:.2?} \
         ({:+.1}% end-to-end)",
        100.0 * (spooled_total.as_secs_f64() / warm_total.as_secs_f64().max(1e-9) - 1.0),
    );
    assert!(
        warm_micros < *cold_micros,
        "cache hit must cut the profiling phase"
    );
}
