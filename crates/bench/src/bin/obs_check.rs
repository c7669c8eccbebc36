//! Observability smoke checker.
//!
//! Two modes:
//!
//! * `obs_check <metrics.json> <events.jsonl>` — validate CLI output:
//!   both files parse with `aceso-util::json`, the metric snapshot has a
//!   non-zero `perf_evaluations`, the candidate counters are consistent
//!   (`accepted + rejected == generated`), every event line carries a
//!   `kind` known to the schema registry with a contiguous `seq`, and
//!   the events agree with the counters (the `iteration` events'
//!   `candidates_rejected` sum to the counter of that name; one
//!   `candidate_accepted` event per `candidates_accepted`).
//! * `obs_check` (no args) — run a small metrics-enabled search three
//!   times, keep the median-latency run, build a fresh snapshot from it
//!   and validate it with the same rules, then gate its *work* against
//!   the *committed* `BENCH_search.json`: `explored` and the `best_time`
//!   bits must be equal, and `perf_evaluations` must not grow. Only a
//!   run that passes every check overwrites `BENCH_search.json`. The
//!   search is deterministic under its iteration budget, so the gate
//!   reads no host noise. Mean `eval_latency_us` and `configs_per_sec`
//!   are printed for information only; the median run keeps the
//!   committed timing figures clear of lucky-fast and load-slow
//!   outliers.
//!
//! Exits non-zero with a diagnostic on the first violated rule; `ci.sh`
//! runs both modes.

use aceso_bench::harness::{
    bench_search_doc, restart_sim_profiling_seconds, write_bench_search, ExpEnv,
};
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
/// and is numbered contiguously. Then cross-checks it against the
/// snapshot's counters: the `iteration` events' `candidates_rejected`
/// sum to the `candidates_rejected` counter, and there is one
/// `candidate_accepted` event per `candidates_accepted`.
fn check_events(text: &str, origin: &str, snapshot: &Value) {
    let mut lines = 0usize;
    let (mut rejected, mut accepted) = (0u64, 0u64);
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
        match kind {
            "iteration" => {
                rejected += v
                    .field("candidates_rejected")
                    .and_then(Value::as_u64)
                    .unwrap_or_else(|e| {
                        fail(&format!(
                            "{origin} line {}: candidates_rejected: {e:?}",
                            i + 1
                        ))
                    });
            }
            "candidate_accepted" => accepted += 1,
            _ => {}
        }
        lines += 1;
    }
    if lines == 0 {
        fail(&format!("{origin}: empty event stream"));
    }
    let (want_rejected, want_accepted) = (
        counter(snapshot, "candidates_rejected"),
        counter(snapshot, "candidates_accepted"),
    );
    if rejected != want_rejected || accepted != want_accepted {
        fail(&format!(
            "{origin}: events disagree with the counters: iteration rejections sum to \
             {rejected} (counter {want_rejected}), {accepted} candidate_accepted events \
             (counter {want_accepted})"
        ));
    }
    println!(
        "obs_check: {origin}: {lines} events -- all parse, kinds known, \
         {rejected} rejections and {accepted} accepts match the counters"
    );
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

/// The gate figures carried by one `BENCH_search.json` snapshot: the
/// search's deterministic work, and its timing for information.
struct BenchFigures {
    /// Configurations explored.
    explored: u64,
    /// Bit pattern of the best configuration's predicted iteration time.
    best_time_bits: u64,
    /// Performance-model evaluations (`perf_evaluations`).
    perf_evaluations: u64,
    /// Mean perf-model evaluation latency, microseconds.
    mean_latency_us: f64,
    /// End-to-end search throughput, configurations per second.
    configs_per_sec: f64,
}

/// The value at `path` inside `doc`, or a failure naming it.
fn at<'a>(doc: &'a Value, path: &[&str], origin: &str) -> &'a Value {
    path.iter()
        .try_fold(doc, |v, name| v.field(name))
        .unwrap_or_else(|e| fail(&format!("{origin}: {}: {e:?}", path.join("."))))
}

/// Extracts the gate figures from a `BENCH_search.json` document.
fn bench_figures(doc: &Value, origin: &str) -> BenchFigures {
    let uint = |path: &[&str]| {
        at(doc, path, origin)
            .as_u64()
            .unwrap_or_else(|e| fail(&format!("{origin}: {}: {e:?}", path.join("."))))
    };
    let float = |path: &[&str]| {
        at(doc, path, origin)
            .as_f64()
            .unwrap_or_else(|e| fail(&format!("{origin}: {}: {e:?}", path.join("."))))
    };
    let count = uint(&["metrics", "histograms", "eval_latency_us", "count"]);
    if count == 0 {
        fail(&format!("{origin}: empty eval_latency_us histogram"));
    }
    BenchFigures {
        explored: uint(&["explored"]),
        best_time_bits: float(&["best_time"]).to_bits(),
        perf_evaluations: uint(&["metrics", "counters", "perf_evaluations"]),
        mean_latency_us: float(&["metrics", "histograms", "eval_latency_us", "sum"]) / count as f64,
        configs_per_sec: float(&["configs_per_sec"]),
    }
}

/// Gates the fresh run's work against the committed baseline. The
/// gated search runs under a fixed iteration budget, so `explored`,
/// the best time and the evaluation count are deterministic: an equal
/// `explored` and best time show the search took the same path to the
/// same plan, and `perf_evaluations` may only fall. Mean evaluation
/// latency and configurations per second vary 2× with host load, so
/// they are printed, not gated.
fn work_gate(baseline: &BenchFigures, fresh: &BenchFigures) {
    println!(
        "obs_check: work gate: explored {} -> {}, perf_evaluations {} -> {}; \
         for information: mean eval_latency_us {:.3} -> {:.3}, configs_per_sec {:.0} -> {:.0}",
        baseline.explored,
        fresh.explored,
        baseline.perf_evaluations,
        fresh.perf_evaluations,
        baseline.mean_latency_us,
        fresh.mean_latency_us,
        baseline.configs_per_sec,
        fresh.configs_per_sec,
    );
    if fresh.explored != baseline.explored || fresh.best_time_bits != baseline.best_time_bits {
        fail(&format!(
            "the gated search changed its path: explored {} -> {}, best_time {} -> {} — \
             a behaviour change; explain it and re-bless the goldens and \
             BENCH_search.json together",
            baseline.explored,
            fresh.explored,
            f64::from_bits(baseline.best_time_bits),
            f64::from_bits(fresh.best_time_bits),
        ));
    }
    if fresh.perf_evaluations > baseline.perf_evaluations {
        fail(&format!(
            "perf_evaluations grew {} -> {} over the committed BENCH_search.json \
             for the same search — investigate before refreshing the baseline",
            baseline.perf_evaluations, fresh.perf_evaluations,
        ));
    }
}

/// Number of search runs in no-args mode; the median-latency run is
/// saved. A single run's mean latency swings 2× under transient machine
/// load.
const GATE_RUNS: usize = 3;

/// Gates the `serve_fleet` fan-in section (written by `serve_bench
/// fleet` and carried across snapshot refreshes): the committed numbers
/// must come from fleets of at least 512 mixed clients in which every
/// well-formed request completed, with sane percentiles. The
/// percentiles are medians over several draws, and each must lie in
/// its committed `[min, max]` range.
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
    for (name, median) in [("p50_us", p50), ("p99_us", p99)] {
        let range = fleet
            .field(&format!("{name}_range"))
            .and_then(Value::as_array)
            .unwrap_or_else(|e| fail(&format!("serve_fleet.{name}_range: {e:?}")));
        let bound = |i: usize| range.get(i).and_then(|v| v.as_u64().ok());
        match (range.len(), bound(0), bound(1)) {
            (2, Some(lo), Some(hi)) if lo <= median && median <= hi => {}
            _ => fail(&format!(
                "serve_fleet: {name} {median} must lie in its range {range:?} ([min, max])"
            )),
        }
    }
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
         0 errors, median p50 {p50} µs / p99 {p99} µs, each within its range -- gated"
    );
}

/// Gates the `serve_restart` section (written by `serve_bench restart`
/// and carried across snapshot refreshes) exactly: each restarted daemon
/// served off one store hit with no write-back, and the section prices
/// that hit at the restart key's simulated profiling seconds. The
/// latencies are printed for information only.
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
            .and_then(Value::as_f64)
            .unwrap_or_else(|e| fail(&format!("serve_restart.{name}: {e:?}")))
    };
    let (restarts, hits, writes) = (get("restarts"), get("store_hits"), get("store_writes"));
    if restarts < 1.0 || hits != 1.0 || writes != 0.0 {
        fail(&format!(
            "serve_restart: {restarts} restarts with {hits} store hits and {writes} \
             store writes each (must be >= 1 restart, 1 hit, 0 writes) — a restarted \
             daemon did not serve off the store"
        ));
    }
    let (saved, expected) = (
        get("sim_profiling_s_saved"),
        restart_sim_profiling_seconds(),
    );
    if saved.to_bits() != expected.to_bits() {
        fail(&format!(
            "serve_restart: sim_profiling_s_saved {saved} s, but profiling the \
             restart key costs {expected} s — run `serve_bench restart` to refresh"
        ));
    }
    println!(
        "obs_check: serve_restart: {restarts} restarts, 1 store hit / 0 writes each, \
         {saved:.1} simulated profiling s saved per restart -- gated; cold {} µs, \
         warm {} µs, restart {} µs (information only)",
        get("cold_us"),
        get("warm_us"),
        get("restart_us")
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
            check_events(&read(events_path), events_path, &metrics);
        }
        [] => {
            // The committed baseline the fresh run is gated against.
            let baseline_path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_search.json");
            let baseline = std::fs::read_to_string(&baseline_path).ok().map(|text| {
                let doc = Value::parse(&text).unwrap_or_else(|e| {
                    fail(&format!("committed BENCH_search.json: unparseable: {e:?}"))
                });
                bench_figures(&doc, "committed BENCH_search.json")
            });

            let env = ExpEnv::new(
                aceso_model::zoo::gpt3_custom("bench", 4, 512, 8, 256, 8192, 64),
                4,
            );
            // The search is deterministic under an iteration budget, so
            // repeated runs differ only in timing. Save the median-latency
            // run of GATE_RUNS: a single run's mean is hostage to machine
            // load, and the fastest run would commit an unrepeatable
            // floor as the next baseline's information figures.
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
            // Every check runs on the fresh document before it is
            // written: a failing run leaves the committed baseline as it
            // was, so a second run cannot pass against the failing
            // figures.
            let doc = bench_search_doc(&result, &report);
            let metrics = doc
                .field("metrics")
                .unwrap_or_else(|e| fail(&format!("fresh BENCH_search.json: metrics: {e:?}")));
            check_metrics(metrics, "fresh BENCH_search.json");
            check_serve_fleet(&doc);
            check_serve_restart(&doc);
            check_events(&report.events_jsonl(), "search event stream", metrics);
            match baseline {
                Some(b) => work_gate(&b, &bench_figures(&doc, "fresh BENCH_search.json")),
                None => println!("obs_check: no committed baseline — work gate skipped"),
            }
            write_bench_search(&doc);
        }
        _ => {
            eprintln!("usage: obs_check [<metrics.json> <events.jsonl>]");
            std::process::exit(2);
        }
    }
    println!("obs_check: OK");
}
