//! Traced runs: the cost of each layer, timed from outside around its
//! public calls on the run's own requests, plus the layer's activity read
//! from the deterministic obs counters and the daemon's `stats`.
//!
//! A traced run drives the request list with one client, so latencies
//! carry no client contention, then measures every distinct pool key of
//! the list once: profile build, store save and load, profile-cache hit,
//! a fresh `run_observed` with its event encoding and framing, the core
//! search primitives on configurations the search accepted, and a
//! checkpoint of a half-finished search. Per-request figures weight each
//! key by how often the list holds it.

use crate::exec::{
    check_server_counters, closed_loop, counter_delta, setup, verify, Done, Env, Outcome, Profiled,
};
use crate::procstat::process_cpu;
use crate::workload::{key_of, requests, Workload};
use crate::{check_threads, median, Report};
use aceso_core::finetune::fine_tune;
use aceso_core::primitives::{generate_with, GenOptions};
use aceso_core::{ranked_bottlenecks, AcesoSearch, Primitive, SearchCheckpoint, SearchStep};
use aceso_obs::Counter;
use aceso_perf::{CachedEvaluator, Evaluator, PerfModel};
use aceso_profile::ProfileDb;
use aceso_serve::{
    cluster_fingerprint, event_frame, model_fingerprint, read_frame, write_frame, ProfileCache,
    Request,
};
use aceso_store::Store;
use aceso_util::stats::mean;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics of traced runs: name and unit, in `BENCHMARK.json`
/// order. Every traced run reports all of them.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.search_ms", "ms"),
    ("core.explored_per_request", "count"),
    ("core.accept_ratio", "ratio"),
    ("core.dedup_ratio", "ratio"),
    ("core.stage_threads_per_request", "count"),
    ("core.generate_us", "us"),
    ("core.bottleneck_us", "us"),
    ("core.finetune_us", "us"),
    ("core.hash_us", "us"),
    ("core.attributed_share", "ratio"),
    ("core.checkpoint_encode_ms", "ms"),
    ("core.checkpoint_decode_ms", "ms"),
    ("core.checkpoint_kb", "KiB"),
    ("core.checkpoints_per_request", "count"),
    ("perf.evals_per_request", "count"),
    ("perf.incremental_hit_ratio", "ratio"),
    ("perf.full_eval_us", "us"),
    ("perf.cached_eval_us", "us"),
    ("profile.build_ms", "ms"),
    ("profile.builds_per_request", "count"),
    ("profile.db_kb", "KiB"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.writes_per_request", "count"),
    ("store.evictions", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_hit_us", "us"),
    ("serve.frames_per_request", "count"),
    ("serve.kb_per_request", "KiB"),
    ("serve.frame_write_ms", "ms"),
    ("serve.client_decode_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("obs.events_per_request", "count"),
    ("obs.event_kb_per_request", "KiB"),
    ("obs.encode_ms", "ms"),
];

/// Accepted configurations sampled per stage-count trace for the core
/// micro-timings.
const CONFIGS_PER_TRACE: usize = 2;

/// Costs measured once per distinct pool key.
#[derive(Debug, Clone, Default)]
struct KeyCosts {
    search_ms: f64,
    search_cpu_ms: f64,
    attributed_ms: f64,
    generate_us: f64,
    bottleneck_us: f64,
    finetune_us: f64,
    hash_us: f64,
    full_eval_us: f64,
    cached_eval_us: f64,
    checkpoint_encode_ms: f64,
    checkpoint_decode_ms: f64,
    checkpoint_kb: f64,
    build_ms: f64,
    db_kb: f64,
    store_load_ms: f64,
    store_save_ms: f64,
    cache_hit_us: f64,
    event_kb: f64,
    encode_ms: f64,
    frame_write_ms: f64,
    client_decode_ms: f64,
}

/// Mean time of one call of `f`, in microseconds, over `reps` calls.
fn per_call_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / reps.max(1) as f64
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Measures every layer once on one pool key's request.
fn measure_key(p: &Profiled, req: &Request, store: &Store) -> Result<KeyCosts, String> {
    let mut c = KeyCosts::default();

    // aceso-profile and aceso-store.
    let mut builds: Vec<f64> = (0..3)
        .map(|_| per_call_us(1, || ProfileDb::build(&p.model, &p.cluster)) / 1e3)
        .collect();
    c.build_ms = median(&mut builds);
    c.db_kb = p.db.approx_bytes() as f64 / 1024.0;
    let (mfp, cfp) = (model_fingerprint(&p.model), cluster_fingerprint(&p.cluster));
    let start = Instant::now();
    store
        .save(mfp, cfp, &p.db)
        .map_err(|e| format!("store save: {e}"))?;
    c.store_save_ms = ms_since(start);
    let start = Instant::now();
    let loaded = store.load(mfp, cfp);
    c.store_load_ms = ms_since(start);
    if !matches!(loaded, Ok(Some(_))) {
        return Err(format!("store load of a just-saved entry gave {loaded:?}"));
    }

    // aceso-serve profile cache: a hit on a resident key.
    let cache = ProfileCache::new(u64::MAX);
    cache.get_or_build(&p.model, &p.cluster);
    c.cache_hit_us = per_call_us(200, || cache.get_or_build(&p.model, &p.cluster));

    // aceso-core search, then aceso-obs encoding and aceso-serve framing
    // of its event stream.
    let search = AcesoSearch::new(&p.model, &p.cluster, &p.db, req.search_options());
    let start = Instant::now();
    let cpu = process_cpu();
    let (result, report) = search.run_observed(true).map_err(|e| e.to_string())?;
    c.search_ms = ms_since(start);
    c.search_cpu_ms = (process_cpu() - cpu).as_secs_f64() * 1e3;
    c.event_kb = report.events_jsonl().len() as f64 / 1024.0;
    let start = Instant::now();
    let values: Vec<_> = report.events().iter().map(|e| e.to_json_value()).collect();
    c.encode_ms = ms_since(start);
    let frames: Vec<_> = values
        .into_iter()
        .enumerate()
        .map(|(seq, v)| event_frame(seq, v))
        .collect();
    let mut wire = Vec::new();
    let start = Instant::now();
    for f in &frames {
        write_frame(&mut wire, f).map_err(|e| e.to_string())?;
    }
    c.frame_write_ms = ms_since(start);
    let mut cursor = std::io::Cursor::new(&wire);
    let start = Instant::now();
    for _ in &frames {
        black_box(read_frame(&mut cursor).map_err(|e| e.to_string())?);
    }
    c.client_decode_ms = ms_since(start);

    // aceso-core primitives and aceso-perf evaluation on configurations
    // the search accepted.
    let pm = PerfModel::new(&p.model, &p.cluster, &p.db);
    let ev = CachedEvaluator::new(PerfModel::new(&p.model, &p.cluster, &p.db));
    let mut configs: Vec<_> = result
        .traces
        .iter()
        .flat_map(|t| {
            let step = (t.accepted.len() / CONFIGS_PER_TRACE).max(1);
            t.accepted.iter().step_by(step).take(CONFIGS_PER_TRACE)
        })
        .map(|a| a.config.clone())
        .collect();
    if configs.is_empty() {
        configs.push(result.best_config.clone());
    }
    let (mut gen, mut bn, mut ft, mut hash, mut full, mut cached) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for cfg in &configs {
        full.push(per_call_us(20, || pm.evaluate_unchecked(cfg)));
        ev.evaluate_unchecked(cfg);
        cached.push(per_call_us(20, || ev.evaluate_unchecked(cfg)));
        let est = pm.evaluate_unchecked(cfg);
        bn.push(per_call_us(100, || ranked_bottlenecks(&est)));
        hash.push(per_call_us(1000, || cfg.semantic_hash()));
        ft.push(per_call_us(1, || fine_tune(&ev, cfg.clone())));
        if let Some(b) = ranked_bottlenecks(&est).first() {
            if let Some(&resource) = b.resources.first() {
                for prim in Primitive::eligible_for(resource) {
                    gen.push(per_call_us(1, || {
                        generate_with(
                            &ev,
                            cfg,
                            &est,
                            prim,
                            b.stage,
                            resource,
                            GenOptions::default(),
                        )
                    }));
                }
            }
        }
    }
    c.generate_us = mean(&gen);
    c.bottleneck_us = mean(&bn);
    c.finetune_us = mean(&ft);
    c.hash_us = mean(&hash);
    c.full_eval_us = mean(&full);
    c.cached_eval_us = mean(&cached);

    // Attribution: per-call costs times how often this search made each
    // call, from its own counters, against the search's CPU time (its
    // stage counts run on parallel threads, so wall time undercounts the
    // work being priced). Candidate evaluations are priced by
    // the search's incremental/full split; evaluations inside generation
    // and fine-tuning are already inside those calls' costs.
    let n = |counter| report.counter(counter) as f64;
    let evals = n(Counter::PerfEvaluations).max(1.0);
    let eval_us = (n(Counter::PerfIncrementalHits) * c.cached_eval_us
        + n(Counter::PerfFullEvals) * c.full_eval_us)
        / evals;
    c.attributed_ms = (n(Counter::SearchWorkerBatches) * c.generate_us
        + n(Counter::IterationsTotal) * c.bottleneck_us
        + n(Counter::IterationsImproved) * c.finetune_us
        + (n(Counter::CandidatesGenerated) + n(Counter::CandidatesDeduped)) * c.hash_us
        + n(Counter::CandidatesGenerated) * eval_us)
        / 1e3;

    // aceso-core checkpoint of a search paused halfway.
    let pause = (req.max_iterations / 2).max(1);
    if let Ok(SearchStep::Paused(ckpt)) = search.run_partial(true, pause) {
        let start = Instant::now();
        let text = ckpt.to_json_string();
        c.checkpoint_encode_ms = ms_since(start);
        c.checkpoint_kb = text.len() as f64 / 1024.0;
        let start = Instant::now();
        SearchCheckpoint::from_json_str(&text).map_err(|e| format!("checkpoint decode: {e}"))?;
        c.checkpoint_decode_ms = ms_since(start);
    }
    Ok(c)
}

/// One traced run, over the request list of the untraced run.
pub fn run(w: Workload, seed: u64, work: &Path) -> Result<Report, String> {
    trace_requests(w, requests(w, seed, w.heap_passes() + w.passes()), work)
}

/// A traced run over an explicit request list.
pub fn trace_requests(w: Workload, reqs: Vec<Request>, work: &Path) -> Result<Report, String> {
    let env = setup(w, reqs, &work.join("setup"))?;
    let before = env.daemon.as_ref().map(|d| d.counters()).transpose()?;
    let start = Instant::now();
    let done = closed_loop(&env, 0..env.requests.len(), 1, true, usize::MAX).done;
    let wall = start.elapsed().as_secs_f64();
    let server = match (&env.daemon, &before) {
        (Some(d), Some(b)) => counter_delta(b, &d.counters()?),
        _ => Default::default(),
    };
    let mut problems = if w.served() {
        check_server_counters(&done, &server)
    } else {
        Vec::new()
    };
    let failures = verify(&env, &done, check_threads());
    problems.extend(
        failures
            .iter()
            .take(5)
            .map(|(i, why)| format!("request {i}: {why}")),
    );

    let store_dir = work.join("trace-store");
    let store = Store::open(&store_dir, u64::MAX).map_err(|e| format!("trace store: {e}"))?;
    let mut costs: HashMap<(String, usize, usize), KeyCosts> = HashMap::new();
    for req in &env.requests {
        if let Entry::Vacant(slot) = costs.entry(key_of(req)) {
            slot.insert(measure_key(env.profiled(req), req, &store)?);
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    let metrics = per_layer(&env, &done, &costs, &server);
    env.teardown();

    let diagnostics = vec![
        format!(
            "traced workload={} requests={} clients=1 traffic_wall_s={wall:.3}",
            w.name(),
            done.len()
        ),
        format!("distinct_keys={}", costs.len()),
    ]
    .into_iter()
    .chain(problems.iter().map(|p| format!("FAIL {p}")))
    .collect();
    Ok(Report {
        correct: problems.is_empty(),
        attempted: done.len(),
        failed: failures.len(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, metrics[name], unit))
            .collect(),
        diagnostics,
    })
}

/// Folds the traffic outcomes, daemon counters and per-key costs into
/// the [`PER_LAYER`] figures.
fn per_layer(
    env: &Env,
    done: &[Done],
    costs: &HashMap<(String, usize, usize), KeyCosts>,
    server: &std::collections::BTreeMap<&'static str, u64>,
) -> HashMap<&'static str, f64> {
    let ok: Vec<(&Request, &Done, &Outcome)> = env
        .requests
        .iter()
        .zip(done)
        .filter_map(|(r, d)| d.outcome.as_ref().ok().map(|o| (r, d, o)))
        .collect();
    let n = ok.len().max(1) as f64;
    let per_req = |f: &dyn Fn(&KeyCosts) -> f64| {
        ok.iter()
            .map(|(r, _, _)| f(&costs[&key_of(r)]))
            .sum::<f64>()
            / n
    };
    let total = |c: Counter| ok.iter().map(|(_, _, o)| o.counter(c) as f64).sum::<f64>();
    let avg = |f: &dyn Fn(&Outcome) -> f64| ok.iter().map(|(_, _, o)| f(o)).sum::<f64>() / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let srv = |c: Counter| server.get(c.name()).copied().unwrap_or(0) as f64;
    let served = env.workload.served();

    let generated = total(Counter::CandidatesGenerated);
    let deduped = total(Counter::CandidatesDeduped);
    let search_ms = per_req(&|c| c.search_ms);
    let cache_hits = ok
        .iter()
        .filter(|(_, _, o)| o.cache_hit == Some(true))
        .count() as f64;
    let overhead = ok
        .iter()
        .map(|(r, d, o)| {
            d.latency.as_secs_f64() * 1e3
                - costs[&key_of(r)].search_ms
                - o.profile_micros as f64 / 1e3
        })
        .sum::<f64>()
        / n;
    let builds = if served {
        srv(Counter::ProfileCacheMisses) - srv(Counter::StoreHits)
    } else {
        0.0
    };

    HashMap::from([
        ("core.search_ms", search_ms),
        ("core.explored_per_request", avg(&|o| o.explored as f64)),
        (
            "core.accept_ratio",
            ratio(total(Counter::CandidatesAccepted), generated),
        ),
        ("core.dedup_ratio", ratio(deduped, generated + deduped)),
        (
            "core.stage_threads_per_request",
            total(Counter::StageSearches) / n,
        ),
        ("core.generate_us", per_req(&|c| c.generate_us)),
        ("core.bottleneck_us", per_req(&|c| c.bottleneck_us)),
        ("core.finetune_us", per_req(&|c| c.finetune_us)),
        ("core.hash_us", per_req(&|c| c.hash_us)),
        (
            "core.attributed_share",
            ratio(per_req(&|c| c.attributed_ms), per_req(&|c| c.search_cpu_ms)),
        ),
        (
            "core.checkpoint_encode_ms",
            per_req(&|c| c.checkpoint_encode_ms),
        ),
        (
            "core.checkpoint_decode_ms",
            per_req(&|c| c.checkpoint_decode_ms),
        ),
        ("core.checkpoint_kb", per_req(&|c| c.checkpoint_kb)),
        (
            "core.checkpoints_per_request",
            srv(Counter::CheckpointsWritten) / n,
        ),
        (
            "perf.evals_per_request",
            total(Counter::PerfEvaluations) / n,
        ),
        (
            "perf.incremental_hit_ratio",
            ratio(
                total(Counter::PerfIncrementalHits),
                total(Counter::PerfEvaluations),
            ),
        ),
        ("perf.full_eval_us", per_req(&|c| c.full_eval_us)),
        ("perf.cached_eval_us", per_req(&|c| c.cached_eval_us)),
        ("profile.build_ms", per_req(&|c| c.build_ms)),
        ("profile.builds_per_request", builds / n),
        ("profile.db_kb", per_req(&|c| c.db_kb)),
        ("store.load_ms", per_req(&|c| c.store_load_ms)),
        ("store.save_ms", per_req(&|c| c.store_save_ms)),
        (
            "store.hit_ratio",
            ratio(
                srv(Counter::StoreHits),
                srv(Counter::StoreHits) + srv(Counter::StoreMisses),
            ),
        ),
        ("store.writes_per_request", srv(Counter::StoreWrites) / n),
        ("store.evictions", srv(Counter::StoreEvictions)),
        (
            "serve.cache_hit_ratio",
            if served { cache_hits / n } else { 0.0 },
        ),
        ("serve.cache_hit_us", per_req(&|c| c.cache_hit_us)),
        ("serve.frames_per_request", avg(&|o| o.frames as f64)),
        (
            "serve.kb_per_request",
            avg(&|o| o.frame_bytes as f64 / 1024.0),
        ),
        ("serve.frame_write_ms", per_req(&|c| c.frame_write_ms)),
        ("serve.client_decode_ms", per_req(&|c| c.client_decode_ms)),
        ("serve.overhead_ms", overhead),
        ("serve.rejected", srv(Counter::ServeRejected)),
        ("obs.events_per_request", avg(&|o| o.events as f64)),
        ("obs.event_kb_per_request", per_req(&|c| c.event_kb)),
        ("obs.encode_ms", per_req(&|c| c.encode_ms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{quick_requests, remove_test_dir, test_dir};
    use aceso_util::json::Value;

    fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
        let doc =
            Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field = |m: &Value, key: &str| {
            m.get(key)
                .and_then(|n| n.as_str().ok())
                .expect("metric field")
                .to_string()
        };
        doc.get(section)
            .and_then(|s| s.as_array().ok())
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(benchmark_metrics("per_layer"), owned(&PER_LAYER));
        assert_eq!(benchmark_metrics("end_to_end"), owned(&crate::END_TO_END));
    }

    #[test]
    fn traced_runs_emit_every_per_layer_metric() {
        for w in Workload::ALL {
            let dir = test_dir(&format!("trace-{}", w.name()));
            let mut reqs = quick_requests(w, 6);
            reqs.extend(quick_requests(w, 7));
            let report = trace_requests(w, reqs, &dir).expect("traced run");
            remove_test_dir(&dir);
            assert!(report.correct, "{:?}", report.diagnostics);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
            let v = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|m| m.0 == name)
                    .map(|m| m.1)
                    .expect("reported")
            };
            assert!(
                report.metrics.iter().all(|m| m.1.is_finite()),
                "{}",
                w.name()
            );
            // Every workload exercises the search, the evaluator and the
            // event stream; the layer costs are measured on its keys.
            for name in [
                "core.search_ms",
                "core.explored_per_request",
                "core.attributed_share",
                "core.generate_us",
                "core.hash_us",
                "perf.evals_per_request",
                "perf.full_eval_us",
                "perf.cached_eval_us",
                "profile.build_ms",
                "store.load_ms",
                "store.save_ms",
                "serve.cache_hit_us",
                "serve.frame_write_ms",
                "obs.events_per_request",
                "obs.encode_ms",
            ] {
                assert!(v(name) > 0.0, "{} {name}", w.name());
            }
            match w {
                Workload::SearchDirect => assert_eq!(v("serve.frames_per_request"), 0.0),
                Workload::ServeWarm => {
                    assert_eq!(v("serve.cache_hit_ratio"), 1.0);
                    assert!(v("serve.kb_per_request") > 0.0);
                }
                Workload::ServeDurable => {
                    for name in [
                        "core.checkpoints_per_request",
                        "profile.builds_per_request",
                        "store.writes_per_request",
                        "serve.frames_per_request",
                    ] {
                        assert!(v(name) > 0.0, "serve-durable {name}");
                    }
                }
            }
        }
    }
}
