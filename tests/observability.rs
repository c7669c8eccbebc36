//! Integration tests for the observability layer (`aceso-obs`) as wired
//! through the real search stack: determinism of the event stream, the
//! counter consistency invariant, and equivalence of observed vs
//! unobserved searches.

use aceso::obs::{
    Counter, Event, Recorder, NONDETERMINISTIC_COUNTERS, SCHEMA_VERSION, SERVER_COUNTERS,
};
use aceso::prelude::*;
use aceso::search::SearchOptions;
use aceso::serve::{Request, ServeOptions, Server};
use aceso::util::json::Value;

fn small_gpt() -> ModelGraph {
    aceso::model::zoo::gpt3_custom("obs-gpt", 4, 512, 8, 256, 8192, 64)
}

fn quick_opts() -> SearchOptions {
    SearchOptions {
        max_iterations: 12,
        ..SearchOptions::default()
    }
}

/// Two identical seeded searches must emit byte-identical event streams
/// and identical deterministic counters — even with the parallel
/// stage-count search enabled (recorders are merged in deterministic
/// stage-count order, and events carry no wall-clock fields).
#[test]
fn identical_searches_emit_byte_identical_event_streams() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);

    let run = || {
        AcesoSearch::new(&model, &cluster, &db, quick_opts())
            .run_observed(true)
            .expect("search succeeds")
    };
    let (res_a, obs_a) = run();
    let (res_b, obs_b) = run();

    assert_eq!(res_a.best_time, res_b.best_time);
    assert_eq!(obs_a.events_jsonl(), obs_b.events_jsonl());
    for c in Counter::ALL {
        // Counters in NONDETERMINISTIC_COUNTERS (the serve-reactor
        // timing counters) are exempt from the determinism contract.
        if NONDETERMINISTIC_COUNTERS.contains(&c.name()) {
            continue;
        }
        assert_eq!(
            obs_a.counter(c),
            obs_b.counter(c),
            "counter {} must be deterministic",
            c.name()
        );
    }
}

/// Every generated (post-dedup, evaluated) candidate is either accepted
/// or rejected — the documented consistency invariant.
#[test]
fn candidate_counters_are_consistent() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let (_, obs) = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run_observed(true)
        .expect("search succeeds");

    assert!(obs.counter(Counter::PerfEvaluations) > 0);
    assert_eq!(
        obs.counter(Counter::CandidatesAccepted) + obs.counter(Counter::CandidatesRejected),
        obs.counter(Counter::CandidatesGenerated),
        "accepted + rejected must equal generated"
    );
}

/// A library search moves no server-level counter, which is why
/// `BENCH_search.json` can leave them out of its snapshot.
#[test]
fn library_search_leaves_server_counters_at_zero() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let (_, obs) = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run_observed(true)
        .expect("search succeeds");
    for c in Counter::ALL {
        if SERVER_COUNTERS.contains(&c.name()) {
            assert_eq!(obs.counter(c), 0, "{}", c.name());
        }
    }
}

/// The event stream is sized by iterations, not candidates: each
/// `iteration` event summarises that iteration's rejections, and the
/// per-kind counts match the counters they mirror. Per iteration the
/// search emits at most `max_bottlenecks` `bottleneck` events, then one
/// `iteration` event, then either an accept (`candidate_accepted`, and
/// `finetune` when tuning is on) or a `backtrack`. Each stage count adds
/// `stage_start` and `stage_end`; the search adds `search_start` and
/// `search_end`.
#[test]
fn iteration_events_summarise_every_rejection() {
    let opts = SearchOptions {
        max_iterations: 6,
        ..SearchOptions::default()
    };
    for key in ["gpt3-0.35b", "t5-0.77b", "wresnet-0.5b", "deepnet-8l"] {
        let model = aceso::model::zoo::by_name(key).expect("zoo key");
        let cluster = ClusterSpec::v100(1, 4);
        let db = ProfileDb::build(&model, &cluster);
        let (_, obs) = AcesoSearch::new(&model, &cluster, &db, opts.clone())
            .run_observed(true)
            .expect("search succeeds");
        let count = |kind: &str| obs.events().iter().filter(|e| e.kind() == kind).count() as u64;
        let (mut rejected, mut lowest_seen) = (0u64, 0u64);
        for e in obs.events() {
            if let Event::Iteration {
                candidates_rejected,
                lowest_rejected,
                ..
            } = e
            {
                rejected += *candidates_rejected as u64;
                assert_eq!(
                    lowest_rejected.is_some(),
                    *candidates_rejected > 0,
                    "{key}: a lowest rejection exactly when something was rejected"
                );
                lowest_seen += u64::from(lowest_rejected.is_some());
            }
        }
        let iterations = obs.counter(Counter::IterationsTotal);
        let stages = obs.counter(Counter::StageSearches);
        assert!(lowest_seen > 0, "{key}: no iteration rejected anything");
        assert_eq!(rejected, obs.counter(Counter::CandidatesRejected), "{key}");
        assert_eq!(
            count("candidate_accepted"),
            obs.counter(Counter::CandidatesAccepted),
            "{key}"
        );
        assert_eq!(count("iteration"), iterations, "{key}");
        assert_eq!(
            count("backtrack"),
            obs.counter(Counter::Backtracks),
            "{key}"
        );
        let bound = (opts.max_bottlenecks as u64 + 3) * iterations + 2 * stages + 2;
        let events = obs.events().len() as u64;
        assert!(
            events <= bound,
            "{key}: {events} events for {iterations} iterations over {stages} stage counts \
             (bound {bound})"
        );
    }
}

/// Observability must not change what the search finds: the plain and
/// observed entry points return the same best configuration.
#[test]
fn observed_search_matches_unobserved_search() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);

    let plain = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run()
        .expect("search succeeds");
    let (observed, obs) = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run_observed(true)
        .expect("search succeeds");

    assert_eq!(plain.best_time, observed.best_time);
    assert_eq!(
        plain.best_config.semantic_hash(),
        observed.best_config.semantic_hash()
    );
    assert_eq!(plain.explored, observed.explored);
    assert!(obs.counter(Counter::StageSearches) >= 1);
}

/// The rendered artifacts are valid per the documented schema: every
/// JSONL line parses with contiguous `seq`, and the metric snapshot
/// carries the current `schema_version`.
#[test]
fn rendered_artifacts_parse_and_carry_schema_version() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let (_, mut obs) = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run_observed(true)
        .expect("search succeeds");

    // Exercise the simulator wiring too, as the CLI does.
    let rec = Recorder::new(true);
    let result = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run()
        .expect("search succeeds");
    Simulator::with_defaults(&model, &cluster, &db)
        .execute_observed(&result.best_config, &rec)
        .expect("executes");
    obs.absorb(rec);
    assert!(obs.counter(Counter::SimRuns) >= 1);
    assert!(obs.counter(Counter::SimTasks) > 0);

    for (i, line) in obs.events_jsonl().lines().enumerate() {
        let v = Value::parse(line).expect("every event line parses");
        assert_eq!(v.field("seq").unwrap().as_u64().unwrap(), i as u64);
        assert!(!v.field("kind").unwrap().as_str().unwrap().is_empty());
    }
    let snapshot = Value::parse(&obs.metrics_json()).expect("snapshot parses");
    assert_eq!(
        snapshot.field("schema_version").unwrap().as_u64().unwrap(),
        SCHEMA_VERSION
    );
}

/// Every counter in the schema must be reachable through a production
/// code path: after a scenario suite covering observed search (with its
/// incremental-evaluation hot path), simulation, and an out-of-memory
/// prediction, **all** schema counters are nonzero. A counter this suite
/// cannot move is silently dead — remove it from the schema (with a
/// version bump) or wire it up; `perf_validated` died exactly this way
/// in schema v2.
#[test]
fn no_counter_is_silently_dead() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);

    // Scenario 1: a full observed search — evaluation, candidate,
    // iteration, fine-tune, backtrack and stage-search counters, plus
    // the incremental-hit / full-eval split from the CachedEvaluator.
    let (result, mut obs) = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run_observed(true)
        .expect("search succeeds");

    let rec = Recorder::new(true);

    // Scenario 2: simulate the best configuration — sim counters.
    Simulator::with_defaults(&model, &cluster, &db)
        .execute_observed(&result.best_config, &rec)
        .expect("executes");

    // Scenario 3: grow the microbatch until the perf model predicts an
    // out-of-memory configuration — oom_predictions.
    let pm = PerfModel::new(&model, &cluster, &db).with_obs(&rec);
    let mut oversized = aceso::config::balanced_init(&model, &cluster, 2).expect("balanced init");
    while !pm.evaluate_unchecked(&oversized).oom() {
        oversized.microbatch *= 2;
        assert!(
            oversized.microbatch < 1 << 30,
            "could not construct an OOM-predicted configuration"
        );
    }

    // Scenario 4: a loopback serve session with checkpoint spooling —
    // the serve counters (v3 quartet plus the v4 crash-recovery trio)
    // live in the daemon's server-level report, never in a request's own
    // snapshot. A pre-seeded spool makes the spooled request a resume:
    // `checkpoints_written`, `search_resumed`, and `client_retries` all
    // move.
    let spool = std::env::temp_dir().join(format!("aceso-obs-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).expect("spool dir");
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            spool_dir: Some(spool.clone()),
            checkpoint_every: 1,
            ..ServeOptions::default()
        },
    )
    .expect("binds an ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let req = Request {
        model: "deepnet-8l".into(),
        gpus: 2,
        max_iterations: 4,
        ..Request::default()
    };
    let first = aceso::serve::submit(&addr, &req).expect("first submit");
    assert_eq!(first.cache, "miss");
    let second = aceso::serve::submit(&addr, &req).expect("second submit");
    assert_eq!(second.cache, "hit");
    // Spool a mid-search checkpoint for a request id, exactly as a
    // previous daemon with `--spool-dir` would have, then resubmit it.
    let spooled_req = Request {
        request_id: Some("obs-job".into()),
        max_iterations: 8,
        ..req.clone()
    };
    let serve_model = aceso::model::zoo::by_name(&spooled_req.model).unwrap();
    let serve_cluster = ClusterSpec::v100_gpus(spooled_req.gpus);
    let serve_db = ProfileDb::build(&serve_model, &serve_cluster);
    let search = AcesoSearch::new(
        &serve_model,
        &serve_cluster,
        &serve_db,
        spooled_req.search_options(),
    );
    let aceso::search::SearchStep::Paused(ckpt) = search.run_partial(true, 2).expect("partial run")
    else {
        panic!("an 8-iteration search must pause at bound 2");
    };
    std::fs::write(
        aceso::serve::spool_path(&spool, "obs-job"),
        ckpt.to_json_string(),
    )
    .expect("seed spool");
    aceso::serve::submit(&addr, &spooled_req).expect("spooled submit");
    let unknown = aceso::serve::submit(
        &addr,
        &Request {
            model: "no-such-model".into(),
            ..Request::default()
        },
    );
    assert!(unknown.is_err(), "unknown model must be rejected");
    aceso::serve::shutdown(&addr).expect("shutdown");
    let server_report = handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&spool);

    // Scenario 5: two store-enabled daemons sharing one `--store-dir` —
    // the v8 store counters live in server-level reports only. Daemon A
    // rejects a planted mismatched-precision entry (`store_rejected`),
    // misses on an absent one (`store_misses`), writes both builds back
    // (`store_writes`), and its 1-byte disk budget evicts the older
    // entry (`store_evictions`); daemon B then resolves its cold miss
    // from the surviving entry (`store_hits`).
    let store_dir = std::env::temp_dir().join(format!("aceso-obs-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut fp32 = aceso::model::zoo::by_name("deepnet-8l").unwrap();
    fp32.precision = aceso::model::Precision::Fp32;
    let plant_cluster = ClusterSpec::v100_gpus(2);
    let store = aceso::store::Store::open(&store_dir, u64::MAX).expect("store opens");
    store
        .save(
            aceso::serve::model_fingerprint(&aceso::model::zoo::by_name("deepnet-8l").unwrap()),
            aceso::serve::cluster_fingerprint(&plant_cluster),
            &ProfileDb::build(&fp32, &plant_cluster),
        )
        .expect("plant mismatched-precision entry");
    let run_store_daemon = |budget: u64, models: &[&str]| {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                store_dir: Some(store_dir.clone()),
                store_budget_bytes: budget,
                ..ServeOptions::default()
            },
        )
        .expect("binds an ephemeral port");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        for model in models {
            let req = Request {
                model: (*model).into(),
                gpus: 2,
                max_iterations: 2,
                ..Request::default()
            };
            aceso::serve::submit(&addr, &req).expect("store-daemon submit");
        }
        aceso::serve::shutdown(&addr).expect("shutdown");
        handle.join().expect("store daemon thread")
    };
    let store_report_a = run_store_daemon(1, &["deepnet-8l", "deepnet-12l"]);
    let store_report_b = run_store_daemon(u64::MAX, &["deepnet-12l"]);
    let _ = std::fs::remove_dir_all(&store_dir);

    // Scenario 6: a store daemon whose filesystem refuses deletions —
    // the v9 retention counter. With a 1-byte budget the second
    // write-back must evict the first entry; the failing removal is
    // counted (`retention_sweep_errors`) and surfaced as a typed
    // `sweep_degraded` event instead of being silently swallowed.
    #[derive(Debug)]
    struct RemoveFailFs;
    impl aceso::util::fsio::Fs for RemoveFailFs {
        fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
            aceso::util::fsio::RealFs.read(path)
        }
        fn write(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
            aceso::util::fsio::RealFs.write(path, bytes)
        }
        fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
            aceso::util::fsio::RealFs.rename(from, to)
        }
        fn remove_file(&self, _path: &std::path::Path) -> std::io::Result<()> {
            Err(std::io::Error::other("deletions refused"))
        }
        fn create_dir_all(&self, dir: &std::path::Path) -> std::io::Result<()> {
            aceso::util::fsio::RealFs.create_dir_all(dir)
        }
        fn scan_dir(
            &self,
            dir: &std::path::Path,
        ) -> std::io::Result<Vec<aceso::util::fsio::ScanEntry>> {
            aceso::util::fsio::RealFs.scan_dir(dir)
        }
        fn sync(&self, path: &std::path::Path) -> std::io::Result<()> {
            aceso::util::fsio::RealFs.sync(path)
        }
    }
    let sweep_dir = std::env::temp_dir().join(format!("aceso-obs-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sweep_dir);
    let sweep_server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            store_dir: Some(sweep_dir.clone()),
            store_budget_bytes: 1,
            fs: std::sync::Arc::new(RemoveFailFs),
            ..ServeOptions::default()
        },
    )
    .expect("binds an ephemeral port");
    let sweep_addr = sweep_server.local_addr().to_string();
    let sweep_handle = std::thread::spawn(move || sweep_server.run());
    for model in ["deepnet-8l", "deepnet-12l"] {
        let req = Request {
            model: model.into(),
            gpus: 2,
            max_iterations: 2,
            ..Request::default()
        };
        aceso::serve::submit(&sweep_addr, &req).expect("sweep-daemon submit");
    }
    aceso::serve::shutdown(&sweep_addr).expect("shutdown");
    let sweep_report = sweep_handle.join().expect("sweep daemon thread");
    let _ = std::fs::remove_dir_all(&sweep_dir);
    assert!(
        sweep_report.counter(Counter::RetentionSweepErrors) > 0,
        "a refused eviction must be counted, not swallowed"
    );
    assert!(
        sweep_report
            .events()
            .iter()
            .any(|e| e.kind() == "sweep_degraded"),
        "a refused eviction must surface as a typed sweep_degraded event"
    );

    obs.absorb(rec);
    let served = |c: Counter| {
        server_report.counter(c)
            + store_report_a.counter(c)
            + store_report_b.counter(c)
            + sweep_report.counter(c)
    };
    for c in Counter::ALL {
        // Timing-dependent reactor counters only move under concurrent
        // connections, which this scenario suite does not open; the
        // reactor tests in `tests/serve.rs` exercise them.
        if NONDETERMINISTIC_COUNTERS.contains(&c.name()) {
            continue;
        }
        assert!(
            obs.counter(c) + served(c) > 0,
            "counter `{}` stayed zero across the scenario suite — it is \
             silently dead; wire it to a production path or drop it from \
             the schema with a version bump",
            c.name()
        );
    }
}

/// A disabled recorder run produces no events and zero counters.
#[test]
fn disabled_metrics_record_nothing() {
    let model = small_gpt();
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let (_, obs) = AcesoSearch::new(&model, &cluster, &db, quick_opts())
        .run_observed(false)
        .expect("search succeeds");
    assert!(obs.events().is_empty());
    for c in Counter::ALL {
        assert_eq!(obs.counter(c), 0);
    }
}
