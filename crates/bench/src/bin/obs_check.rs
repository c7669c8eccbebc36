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
//! * `obs_check` (no args) — run a small metrics-enabled search once,
//!   build a fresh snapshot from it and validate it with the same rules,
//!   then gate its *work* against the *committed* `BENCH_search.json`:
//!   `explored` and the `best_time` bits must be equal, and
//!   `perf_evaluations` must not grow. Only a run that passes every
//!   check overwrites `BENCH_search.json`. The search is deterministic
//!   under its iteration budget and the file holds no wall-clock figure,
//!   so the gate reads no host noise and a passing run on an unchanged
//!   tree rewrites the same bytes.
//!
//! Exits non-zero with a diagnostic on the first violated rule; `ci.sh`
//! runs both modes.

use aceso_bench::harness::{
    bench_search_doc, restart_sim_profiling_seconds, write_bench_search, ExpEnv,
};
use aceso_core::SearchOptions;
use aceso_obs::schema::{EVENTS, SCHEMA_VERSION};
use aceso_util::json::{JsonError, Value};

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
/// search's deterministic work.
struct BenchFigures {
    /// Configurations explored.
    explored: u64,
    /// Bit pattern of the best configuration's predicted iteration time.
    best_time_bits: u64,
    /// Performance-model evaluations (`perf_evaluations`).
    perf_evaluations: u64,
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
    BenchFigures {
        explored: uint(&["explored"]),
        best_time_bits: float(&["best_time"]).to_bits(),
        perf_evaluations: uint(&["metrics", "counters", "perf_evaluations"]),
    }
}

/// Gates the fresh run's work against the committed baseline. The
/// gated search runs under a fixed iteration budget, so `explored`,
/// the best time and the evaluation count are deterministic: an equal
/// `explored` and best time show the search took the same path to the
/// same plan, and `perf_evaluations` may only fall.
fn work_gate(baseline: &BenchFigures, fresh: &BenchFigures) -> Result<(), String> {
    println!(
        "obs_check: work gate: explored {} -> {}, perf_evaluations {} -> {}",
        baseline.explored, fresh.explored, baseline.perf_evaluations, fresh.perf_evaluations,
    );
    if fresh.explored != baseline.explored || fresh.best_time_bits != baseline.best_time_bits {
        return Err(format!(
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
        return Err(format!(
            "perf_evaluations grew {} -> {} over the committed BENCH_search.json \
             for the same search — investigate before refreshing the baseline",
            baseline.perf_evaluations, fresh.perf_evaluations,
        ));
    }
    Ok(())
}

/// The field `name` of the `section` object of `doc`, read by `read`.
fn section_field<T>(
    doc: &Value,
    section: &str,
    name: &str,
    read: fn(&Value) -> Result<T, JsonError>,
) -> Result<T, String> {
    doc.field(section)
        .and_then(|s| s.field(name))
        .and_then(read)
        .map_err(|e| {
            format!(
                "BENCH_search.json: {section}.{name}: {e:?} — run `serve_bench {}` to \
                 regenerate the section",
                section.trim_start_matches("serve_")
            )
        })
}

/// Gates the `serve_fleet` fan-in section (written by `serve_bench
/// fleet` and carried across snapshot refreshes): the committed counts
/// must come from fleets of at least 512 mixed clients in which every
/// well-formed request completed.
fn check_serve_fleet(doc: &Value) -> Result<(), String> {
    let get = |name| section_field(doc, "serve_fleet", name, Value::as_u64);
    let (clients, submitted, errors) = (get("clients")?, get("submitted")?, get("errors")?);
    if clients < 512 {
        return Err(format!(
            "serve_fleet: {clients} clients, the committed fleet must hold >= 512"
        ));
    }
    if submitted == 0 || errors != 0 {
        return Err(format!(
            "serve_fleet: {errors} of {submitted} well-formed requests errored \
             (must be 0 of at least 1)"
        ));
    }
    println!("obs_check: serve_fleet: {clients} clients, {submitted} requests, 0 errors -- gated");
    Ok(())
}

/// Gates the `serve_restart` section (written by `serve_bench restart`
/// and carried across snapshot refreshes) exactly: each restarted daemon
/// served off one store hit with no write-back, and the section prices
/// that hit at the restart key's simulated profiling seconds.
fn check_serve_restart(doc: &Value) -> Result<(), String> {
    let get = |name| section_field(doc, "serve_restart", name, Value::as_u64);
    let (restarts, hits, writes) = (get("restarts")?, get("store_hits")?, get("store_writes")?);
    if restarts < 1 || hits != 1 || writes != 0 {
        return Err(format!(
            "serve_restart: {restarts} restarts with {hits} store hits and {writes} \
             store writes each (must be >= 1 restart, 1 hit, 0 writes) — a restarted \
             daemon did not serve off the store"
        ));
    }
    let saved = section_field(doc, "serve_restart", "sim_profiling_s_saved", Value::as_f64)?;
    let expected = restart_sim_profiling_seconds();
    if saved.to_bits() != expected.to_bits() {
        return Err(format!(
            "serve_restart: sim_profiling_s_saved {saved} s, but profiling the \
             restart key costs {expected} s — run `serve_bench restart` to refresh"
        ));
    }
    println!(
        "obs_check: serve_restart: {restarts} restarts, 1 store hit / 0 writes each, \
         {saved:.1} simulated profiling s saved per restart -- gated"
    );
    Ok(())
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
            let baseline_path = aceso_bench::harness::bench_search_path();
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
            let opts = SearchOptions {
                max_iterations: 24,
                ..SearchOptions::default()
            };
            let (result, report) = env
                .run_aceso_observed(opts)
                .unwrap_or_else(|e| fail(&format!("search failed: {e}")));
            // Every check runs on the fresh document before it is
            // written: a failing run leaves the committed baseline as it
            // was, so a second run cannot pass against the failing
            // figures.
            let doc = bench_search_doc(&result, &report);
            let metrics = doc
                .field("metrics")
                .unwrap_or_else(|e| fail(&format!("fresh BENCH_search.json: metrics: {e:?}")));
            check_metrics(metrics, "fresh BENCH_search.json");
            check_events(&report.events_jsonl(), "search event stream", metrics);
            check_serve_fleet(&doc).unwrap_or_else(|e| fail(&e));
            check_serve_restart(&doc).unwrap_or_else(|e| fail(&e));
            match baseline {
                Some(b) => work_gate(&b, &bench_figures(&doc, "fresh BENCH_search.json"))
                    .unwrap_or_else(|e| fail(&e)),
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

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: BenchFigures = BenchFigures {
        explored: 10_333,
        best_time_bits: 0.020437212775736062f64.to_bits(),
        perf_evaluations: 25_263,
    };

    #[test]
    fn equal_or_less_work_passes_the_work_gate() {
        assert_eq!(work_gate(&BASE, &BASE), Ok(()));
        let fewer = BenchFigures {
            perf_evaluations: BASE.perf_evaluations - 1,
            ..BASE
        };
        assert_eq!(work_gate(&BASE, &fewer), Ok(()));
    }

    #[test]
    fn more_work_or_another_path_fails_the_work_gate() {
        let more = BenchFigures {
            perf_evaluations: BASE.perf_evaluations + 1,
            ..BASE
        };
        let err = work_gate(&BASE, &more).unwrap_err();
        assert!(
            err.contains("perf_evaluations grew 25263 -> 25264"),
            "{err}"
        );
        for changed in [
            BenchFigures {
                explored: BASE.explored + 1,
                ..BASE
            },
            BenchFigures {
                best_time_bits: BASE.best_time_bits + 1,
                ..BASE
            },
        ] {
            let err = work_gate(&BASE, &changed).unwrap_err();
            assert!(err.contains("changed its path"), "{err}");
        }
    }

    fn section(key: &str, fields: &str) -> Value {
        Value::parse(&format!("{{\"{key}\": {{{fields}}}}}")).unwrap()
    }

    #[test]
    fn fleet_gate_needs_512_clients_and_no_errors() {
        let fleet = |clients: u64, errors: u64| {
            section(
                "serve_fleet",
                &format!(
                    "\"clients\": {clients}, \"draws\": 3, \"submitted\": 384, \
                     \"errors\": {errors}"
                ),
            )
        };
        assert_eq!(check_serve_fleet(&fleet(512, 0)), Ok(()));
        assert!(check_serve_fleet(&fleet(512, 1)).is_err());
        assert!(check_serve_fleet(&fleet(511, 0)).is_err());
        assert!(check_serve_fleet(&Value::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn restart_gate_needs_one_hit_no_write_and_the_exact_saving() {
        let restart = |hits: u64, writes: u64, saved: f64| {
            section(
                "serve_restart",
                &format!(
                    "\"restarts\": 3, \"store_hits\": {hits}, \"store_writes\": {writes}, \
                     \"sim_profiling_s_saved\": {saved:?}"
                ),
            )
        };
        let saved = restart_sim_profiling_seconds();
        assert_eq!(check_serve_restart(&restart(1, 0, saved)), Ok(()));
        assert!(check_serve_restart(&restart(2, 0, saved)).is_err());
        assert!(check_serve_restart(&restart(1, 1, saved)).is_err());
        assert!(check_serve_restart(&restart(1, 0, saved + 1.0)).is_err());
    }
}
