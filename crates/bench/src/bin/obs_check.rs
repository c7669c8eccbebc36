//! Observability smoke checker.
//!
//! Two modes:
//!
//! * `obs_check <metrics.json> <events.jsonl>` — validate CLI output:
//!   both files parse with `aceso-util::json`, the metric snapshot has a
//!   non-zero `perf_evaluations`, the candidate counters are consistent
//!   (`accepted + rejected == generated`), and every event line carries
//!   a `kind` known to the schema registry with a contiguous `seq`.
//! * `obs_check` (no args) — run a small metrics-enabled search three
//!   times, keep the median-latency run, and gate it against the
//!   *committed* `BENCH_search.json` (mean `eval_latency_us` must not
//!   regress by more than 1.5×; `configs_per_sec` is reported
//!   alongside), then refresh the snapshot from that median run and
//!   validate it with the same rules. The median discards both
//!   lucky-fast outliers (which would poison the committed baseline)
//!   and load-slow ones (which would trip the gate spuriously); the
//!   search itself is deterministic, so runs differ only in timing.
//!
//! Exits non-zero with a diagnostic on the first violated rule; `ci.sh`
//! runs both modes.

use aceso_bench::harness::{write_bench_search, ExpEnv};
use aceso_core::{SearchOptions, SearchResult};
use aceso_obs::schema::{EVENTS, SCHEMA_VERSION};
use aceso_obs::ObsReport;
use aceso_util::json::Value;

fn fail(msg: &str) -> ! {
    eprintln!("obs_check: FAIL: {msg}");
    std::process::exit(1);
}

fn counter(snapshot: &Value, name: &str) -> u64 {
    snapshot
        .field("counters")
        .and_then(|c| c.field(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|e| fail(&format!("counter {name}: {e:?}")))
}

/// Validates one metric snapshot (either the CLI's `--metrics-out` file
/// or the `metrics` object of `BENCH_search.json`).
fn check_metrics(snapshot: &Value, origin: &str) {
    match snapshot.field("schema_version").and_then(Value::as_u64) {
        Ok(v) if v == SCHEMA_VERSION => {}
        Ok(v) => fail(&format!(
            "{origin}: schema_version {v}, expected {SCHEMA_VERSION}"
        )),
        Err(e) => fail(&format!("{origin}: schema_version: {e:?}")),
    }
    let evals = counter(snapshot, "perf_evaluations");
    if evals == 0 {
        fail(&format!("{origin}: zero configurations evaluated"));
    }
    let generated = counter(snapshot, "candidates_generated");
    let accepted = counter(snapshot, "candidates_accepted");
    let rejected = counter(snapshot, "candidates_rejected");
    if accepted + rejected != generated {
        fail(&format!(
            "{origin}: accepted ({accepted}) + rejected ({rejected}) != generated ({generated})"
        ));
    }
    let incremental = counter(snapshot, "perf_incremental_hits");
    let full = counter(snapshot, "perf_full_evals");
    if incremental + full != evals {
        fail(&format!(
            "{origin}: incremental ({incremental}) + full ({full}) != evaluations ({evals})"
        ));
    }
    println!(
        "obs_check: {origin}: {evals} evaluations, {generated} candidates \
         ({accepted} accepted + {rejected} rejected) -- consistent"
    );
}

/// Validates an event stream: every line parses, carries a known kind,
/// and is numbered contiguously.
fn check_events(text: &str, origin: &str) {
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let v = Value::parse(line)
            .unwrap_or_else(|e| fail(&format!("{origin} line {}: unparseable: {e:?}", i + 1)));
        let seq = v
            .field("seq")
            .and_then(Value::as_u64)
            .unwrap_or_else(|e| fail(&format!("{origin} line {}: seq: {e:?}", i + 1)));
        if seq != i as u64 {
            fail(&format!("{origin} line {}: seq {seq}, expected {i}", i + 1));
        }
        let kind = v
            .field("kind")
            .and_then(Value::as_str)
            .unwrap_or_else(|e| fail(&format!("{origin} line {}: kind: {e:?}", i + 1)));
        if !EVENTS.iter().any(|spec| spec.kind == kind) {
            fail(&format!(
                "{origin} line {}: unknown event kind `{kind}`",
                i + 1
            ));
        }
        lines += 1;
    }
    if lines == 0 {
        fail(&format!("{origin}: empty event stream"));
    }
    println!("obs_check: {origin}: {lines} events -- all parse, kinds known");
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

/// The perf-gate figures carried by one `BENCH_search.json` snapshot.
struct PerfFigures {
    /// Mean perf-model evaluation latency, microseconds.
    mean_latency_us: f64,
    /// End-to-end search throughput, configurations per second.
    configs_per_sec: f64,
}

/// Extracts the perf-gate figures from a `BENCH_search.json` document.
/// Tolerates older schema versions: the gate only needs the latency
/// histogram and the throughput figure, both present since v1.
fn perf_figures(doc: &Value, origin: &str) -> PerfFigures {
    let hist = doc
        .field("metrics")
        .and_then(|m| m.field("histograms"))
        .and_then(|h| h.field("eval_latency_us"))
        .unwrap_or_else(|e| fail(&format!("{origin}: eval_latency_us histogram: {e:?}")));
    let count = hist
        .field("count")
        .and_then(Value::as_u64)
        .unwrap_or_else(|e| fail(&format!("{origin}: eval_latency_us count: {e:?}")));
    let sum = hist
        .field("sum")
        .and_then(Value::as_f64)
        .unwrap_or_else(|e| fail(&format!("{origin}: eval_latency_us sum: {e:?}")));
    if count == 0 {
        fail(&format!("{origin}: empty eval_latency_us histogram"));
    }
    let configs_per_sec = doc
        .field("configs_per_sec")
        .and_then(Value::as_f64)
        .unwrap_or_else(|e| fail(&format!("{origin}: configs_per_sec: {e:?}")));
    PerfFigures {
        mean_latency_us: sum / count as f64,
        configs_per_sec,
    }
}

/// Maximum tolerated mean-latency regression vs the committed baseline.
/// Calibrated above the observed median-of-3 noise band on a loaded
/// shared machine (~1.25×) while still far below what any algorithmic
/// regression in the evaluation hot path costs (2×+).
const MAX_LATENCY_REGRESSION: f64 = 1.5;

/// Number of search runs in no-args mode; the median-latency run is
/// gated and saved. A single run's mean latency swings well past the
/// gate limit under transient machine load.
const GATE_RUNS: usize = 3;

/// Compares the fresh run against the committed baseline figures. Mean
/// evaluation latency is the gate (wall-clock throughput is reported but
/// not gated — it is far noisier on shared CI machines).
fn perf_gate(baseline: &PerfFigures, fresh: &PerfFigures) {
    let ratio = fresh.mean_latency_us / baseline.mean_latency_us;
    println!(
        "obs_check: perf gate: mean eval_latency_us {:.3} -> {:.3} ({ratio:.2}x), \
         configs_per_sec {:.0} -> {:.0}",
        baseline.mean_latency_us,
        fresh.mean_latency_us,
        baseline.configs_per_sec,
        fresh.configs_per_sec,
    );
    if ratio > MAX_LATENCY_REGRESSION {
        fail(&format!(
            "mean eval_latency_us regressed {ratio:.2}x over the committed \
             BENCH_search.json (limit {MAX_LATENCY_REGRESSION}x) — \
             investigate before refreshing the baseline"
        ));
    }
}

/// Gates the `serve_fleet` fan-in section (written by `serve_bench
/// fleet` and carried across snapshot refreshes): the committed numbers
/// must come from a fleet of at least 512 mixed clients in which every
/// well-formed request completed, with sane percentiles.
fn check_serve_fleet(doc: &Value) {
    let fleet = doc.field("serve_fleet").unwrap_or_else(|e| {
        fail(&format!(
            "BENCH_search.json: serve_fleet section missing ({e:?}) — \
             run `serve_bench fleet` to regenerate it"
        ))
    });
    let get = |name: &str| {
        fleet
            .field(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|e| fail(&format!("serve_fleet.{name}: {e:?}")))
    };
    let (clients, submitted, errors) = (get("clients"), get("submitted"), get("errors"));
    let (p50, p99) = (get("p50_us"), get("p99_us"));
    if clients < 512 {
        fail(&format!(
            "serve_fleet: {clients} clients, the committed fleet must hold >= 512"
        ));
    }
    if errors != 0 {
        fail(&format!(
            "serve_fleet: {errors} errored well-formed requests (must be 0)"
        ));
    }
    if submitted == 0 || p50 == 0 || p50 > p99 {
        fail(&format!(
            "serve_fleet: implausible figures (submitted {submitted}, p50 {p50} µs, p99 {p99} µs)"
        ));
    }
    println!(
        "obs_check: serve_fleet: {clients} clients, {submitted} requests, \
         0 errors, p50 {p50} µs / p99 {p99} µs -- gated"
    );
}

/// Maximum tolerated `restart_us` / `warm_us` ratio in the committed
/// `serve_restart` section: a daemon restarting onto a warm
/// `--store-dir` must serve its first request within 10% of a warm
/// in-memory cache hit, because the store converts the restart's cache
/// miss into a decode rather than a re-profile (`docs/STORE.md`).
const MAX_RESTART_RATIO: f64 = 1.1;

/// Gates the `serve_restart` section (written by `serve_bench restart`
/// and carried across snapshot refreshes).
fn check_serve_restart(doc: &Value) {
    let restart = doc.field("serve_restart").unwrap_or_else(|e| {
        fail(&format!(
            "BENCH_search.json: serve_restart section missing ({e:?}) — \
             run `serve_bench restart` to regenerate it"
        ))
    });
    let get = |name: &str| {
        restart
            .field(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|e| fail(&format!("serve_restart.{name}: {e:?}")))
    };
    let (cold, warm, restarted) = (get("cold_us"), get("warm_us"), get("restart_us"));
    if warm == 0 || cold == 0 || restarted == 0 {
        fail(&format!(
            "serve_restart: implausible figures (cold {cold} µs, warm {warm} µs, \
             restart {restarted} µs)"
        ));
    }
    let ratio = restarted as f64 / warm as f64;
    if ratio > MAX_RESTART_RATIO {
        fail(&format!(
            "serve_restart: restart {restarted} µs is {ratio:.2}x warm {warm} µs \
             (limit {MAX_RESTART_RATIO}x) — the store-backed restart path \
             regressed; run `serve_bench restart` on a quiet machine to refresh"
        ));
    }
    println!(
        "obs_check: serve_restart: cold {cold} µs, warm {warm} µs, \
         restart {restarted} µs ({ratio:.2}x warm) -- gated"
    );
}

/// Mean `eval_latency_us` of one observed run, read from its metric
/// snapshot.
fn run_mean_latency_us(report: &ObsReport) -> f64 {
    let snapshot = Value::parse(&report.metrics_json())
        .unwrap_or_else(|e| fail(&format!("metric snapshot: unparseable: {e:?}")));
    let hist = snapshot
        .field("histograms")
        .and_then(|h| h.field("eval_latency_us"))
        .unwrap_or_else(|e| fail(&format!("metric snapshot: eval_latency_us: {e:?}")));
    let count = hist
        .field("count")
        .and_then(Value::as_u64)
        .unwrap_or_else(|e| fail(&format!("metric snapshot: eval_latency_us count: {e:?}")));
    let sum = hist
        .field("sum")
        .and_then(Value::as_f64)
        .unwrap_or_else(|e| fail(&format!("metric snapshot: eval_latency_us sum: {e:?}")));
    if count == 0 {
        fail("metric snapshot: empty eval_latency_us histogram");
    }
    sum / count as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [metrics_path, events_path] => {
            let metrics = Value::parse(&read(metrics_path))
                .unwrap_or_else(|e| fail(&format!("{metrics_path}: unparseable: {e:?}")));
            check_metrics(&metrics, metrics_path);
            check_events(&read(events_path), events_path);
        }
        [] => {
            // Capture the committed baseline before the refresh clobbers it.
            let baseline_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_search.json");
            let baseline = std::fs::read_to_string(&baseline_path).ok().map(|text| {
                let doc = Value::parse(&text).unwrap_or_else(|e| {
                    fail(&format!("committed BENCH_search.json: unparseable: {e:?}"))
                });
                perf_figures(&doc, "committed BENCH_search.json")
            });

            let env = ExpEnv::new(
                aceso_model::zoo::gpt3_custom("bench", 4, 512, 8, 256, 8192, 64),
                4,
            );
            // The search is deterministic under an iteration budget, so
            // repeated runs differ only in timing. Gate and save the
            // median-latency run of GATE_RUNS: a single run's mean is
            // hostage to machine load, and the fastest run would commit
            // an unrepeatable floor as the next baseline.
            let opts = SearchOptions {
                max_iterations: 24,
                ..SearchOptions::default()
            };
            let mut runs: Vec<(SearchResult, ObsReport, f64)> = Vec::with_capacity(GATE_RUNS);
            for run in 0..GATE_RUNS {
                let (result, report) = env
                    .run_aceso_observed(opts.clone())
                    .unwrap_or_else(|e| fail(&format!("search failed: {e}")));
                let mean = run_mean_latency_us(&report);
                println!(
                    "obs_check: gate run {}/{GATE_RUNS}: mean eval_latency_us {mean:.3}",
                    run + 1
                );
                runs.push((result, report, mean));
            }
            runs.sort_by(|a, b| a.2.total_cmp(&b.2));
            let (result, report, _) = runs.swap_remove(runs.len() / 2);
            let path = write_bench_search(&result, &report);
            let doc = Value::parse(&read(&path.display().to_string()))
                .unwrap_or_else(|e| fail(&format!("BENCH_search.json: unparseable: {e:?}")));
            let metrics = doc
                .field("metrics")
                .unwrap_or_else(|e| fail(&format!("BENCH_search.json: metrics: {e:?}")));
            check_metrics(metrics, "BENCH_search.json");
            check_serve_fleet(&doc);
            check_serve_restart(&doc);
            check_events(&report.events_jsonl(), "search event stream");
            match baseline {
                Some(b) => perf_gate(&b, &perf_figures(&doc, "fresh BENCH_search.json")),
                None => println!("obs_check: no committed baseline — perf gate skipped"),
            }
        }
        _ => {
            eprintln!("usage: obs_check [<metrics.json> <events.jsonl>]");
            std::process::exit(2);
        }
    }
    println!("obs_check: OK");
}
