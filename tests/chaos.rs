//! Integration tests for the whole-system chaos engine (`aceso-chaos`,
//! `docs/RELIABILITY.md`): a wide seeded sweep with zero oracle
//! violations, the store-direct-write mutation gate (a deliberately
//! broken atomic-publish discipline must be caught and shrunk to a
//! small replayable trace), RealFs passthrough bit-identity
//! (INV-CHAOS-REALFS), and the shared-store daemon race from the
//! fault matrix.

use aceso::chaos::{ChaosOptions, Engine, Schedule, Trace};
use aceso::serve::{Request, ServeOptions, Server};
use aceso::util::fsio::{ChaosFs, FaultSchedule, RealFs};
use std::sync::Arc;

fn opts(tag: &str) -> ChaosOptions {
    ChaosOptions {
        root: std::env::temp_dir().join(format!("aceso-chaos-it-{tag}-{}", std::process::id())),
        mutate_direct_writes: false,
    }
}

fn cleanup(o: &ChaosOptions) {
    let _ = std::fs::remove_dir_all(&o.root);
}

/// The headline sweep: 200 seeded whole-system fault schedules —
/// filesystem faults in both daemon generations, frame-boundary network
/// cuts, injected worker panics, overlapping generations — and not one
/// standing-oracle violation (INV-CHAOS-ORACLE). The sweep must also
/// actually exercise the fault space: every fault kind is injected at
/// least once somewhere in the window.
#[test]
fn two_hundred_seeded_schedules_violate_no_oracle() {
    let o = opts("sweep");
    let engine = Engine::new(o.clone()).expect("fault-free reference run");
    let report = engine.run_range(0, 200);
    assert_eq!(report.runs, 200, "no seed may abort the sweep");
    assert!(
        report.failure.is_none(),
        "oracle violation in the seed sweep: {:?}",
        report.failure
    );
    assert!(
        report.faults_injected >= 50,
        "the sweep must inject a meaningful fault load, got {}",
        report.faults_injected
    );
    let kinds = report
        .report
        .metrics()
        .keyed(aceso::obs::Family::ChaosFaultsInjected)
        .clone();
    for kind in ["eio", "enospc", "short_write", "rename_fail", "crash"] {
        assert!(
            kinds.get(kind).copied().unwrap_or(0) > 0,
            "fault kind `{kind}` never injected across the sweep: {kinds:?}"
        );
    }
    // The synthesized observability matches what was injected.
    let total: u64 = kinds.values().sum();
    assert_eq!(total, report.faults_injected as u64);
    assert_eq!(
        report
            .report
            .events()
            .iter()
            .filter(|e| e.kind() == "fault_injected")
            .count(),
        report.faults_injected
    );
    cleanup(&o);
}

/// The mutation gate that keeps the harness honest: with the store's
/// temp+rename discipline disabled (`--mutate store-direct-write`,
/// deliberately breaking INV-STORE-ATOMIC), the seed sweep must catch a
/// torn entry, and the shrinker must reduce the failing schedule to a
/// minimal replayable trace (INV-CHAOS-SHRINK) that round-trips through
/// JSON and still reproduces.
#[test]
fn store_direct_write_mutant_is_caught_and_shrunk() {
    let mut o = opts("mutant");
    o.mutate_direct_writes = true;
    let engine = Engine::new(o.clone()).expect("fault-free reference run");
    let report = engine.run_range(0, 200);
    let trace = report
        .failure
        .expect("a broken atomic-publish discipline must trip the torn-entry oracle");
    assert!(
        trace.violations.iter().any(|v| v.contains("torn-entry")),
        "the mutant's violation names the torn entry: {:?}",
        trace.violations
    );
    assert!(
        trace.schedule.fault_count() <= 10,
        "shrinking must reach a small schedule, got {} fault(s)",
        trace.schedule.fault_count()
    );
    assert!(
        trace.schedule.direct_writes,
        "the mutation switch travels in the trace"
    );

    // The written artifact is the replay input: round-trip it.
    let parsed = Trace::from_json_str(&trace.to_json_string()).expect("trace parses");
    assert_eq!(parsed, trace);

    // Replay reproduces the violation deterministically
    // (INV-CHAOS-DETERMINISM).
    let replayed = engine.run_schedule(&parsed.schedule);
    assert!(
        replayed.violations.iter().any(|v| v.contains("torn-entry")),
        "replaying the shrunk trace must reproduce the torn entry: {:?}",
        replayed.violations
    );

    // 1-minimality: the shrunk schedule's faults are all load-bearing —
    // removing the injected filesystem faults makes the violation
    // disappear even with the mutant armed (a torn entry needs a fault
    // *during* the direct write).
    let mut defanged = parsed.schedule.clone();
    defanged.gen_a = FaultSchedule::none();
    defanged.gen_b = FaultSchedule::none();
    let quiet = engine.run_schedule(&defanged);
    assert!(
        quiet.violations.is_empty(),
        "without filesystem faults the mutant stays latent: {:?}",
        quiet.violations
    );
    cleanup(&o);
}

/// INV-CHAOS-REALFS: a `ChaosFs` with an empty schedule is a true
/// passthrough — a daemon run over it produces a response with the
/// same deterministic fields and byte-identical store entries as a
/// daemon on the production `RealFs`.
#[test]
fn empty_schedule_daemon_is_bit_identical_to_realfs() {
    let root = std::env::temp_dir().join(format!("aceso-chaos-realfs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let run = |tag: &str, fs: Arc<dyn aceso::util::fsio::Fs>| {
        let store_dir = root.join(tag);
        let server = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                workers: 1,
                store_dir: Some(store_dir.clone()),
                fs,
                ..ServeOptions::default()
            },
        )
        .expect("binds an ephemeral port");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let req = Request {
            model: "gpt3-0.35b".into(),
            gpus: 1,
            max_iterations: 4,
            ..Request::default()
        };
        let resp = aceso::serve::submit(&addr, &req).expect("submit succeeds");
        aceso::serve::shutdown(&addr).expect("shutdown");
        handle.join().expect("daemon thread");
        let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(&store_dir)
            .expect("store dir")
            .filter_map(|e| {
                let e = e.ok()?;
                Some((
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).ok()?,
                ))
            })
            .collect();
        entries.sort();
        (aceso::chaos::response_fingerprint(&resp.result), entries)
    };
    let (real_fp, real_entries) = run("real", Arc::new(RealFs));
    let (chaos_fp, chaos_entries) = run("chaos", Arc::new(ChaosFs::new(&FaultSchedule::none())));
    assert_eq!(real_fp, chaos_fp, "deterministic response fields differ");
    assert_eq!(
        real_entries, chaos_entries,
        "store entries must be byte-identical across RealFs and an empty-schedule ChaosFs"
    );
    assert!(
        !real_entries.is_empty(),
        "the store-backed daemon must have written an entry"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The shared-store race from the fault matrix: two live daemons on one
/// `--store-dir`, one with a 1-byte budget whose LRU eviction
/// continuously deletes entries the other is loading and touching. The
/// racing loser must degrade to a fresh build — every submission
/// succeeds with bit-identical results, and every server event stays
/// typed. (`cache_bytes: 1` forces each submission through the store
/// tier instead of the in-memory cache, maximising collisions.)
#[test]
fn shared_store_daemons_race_eviction_against_load_without_errors() {
    let store_dir = std::env::temp_dir().join(format!("aceso-chaos-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let spawn = |budget: u64| {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeOptions {
                cache_bytes: 1,
                store_dir: Some(store_dir.clone()),
                store_budget_bytes: budget,
                ..ServeOptions::default()
            },
        )
        .expect("binds an ephemeral port");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        (addr, handle)
    };
    let (addr_pruner, handle_pruner) = spawn(1);
    let (addr_keeper, handle_keeper) = spawn(u64::MAX);

    let submit_rounds = |addr: String| {
        std::thread::spawn(move || {
            let mut fingerprints = Vec::new();
            for round in 0..4 {
                for model in ["deepnet-8l", "deepnet-12l"] {
                    let req = Request {
                        model: model.into(),
                        gpus: 2,
                        max_iterations: 2,
                        ..Request::default()
                    };
                    let resp = aceso::serve::submit(&addr, &req).unwrap_or_else(|e| {
                        panic!("round {round} submit of {model} must not error: {e}")
                    });
                    fingerprints.push((model, aceso::chaos::response_fingerprint(&resp.result)));
                }
            }
            fingerprints
        })
    };
    let client_a = submit_rounds(addr_pruner.clone());
    let client_b = submit_rounds(addr_keeper.clone());
    let fps_a = client_a.join().expect("pruner-side client");
    let fps_b = client_b.join().expect("keeper-side client");

    aceso::serve::shutdown(&addr_pruner).expect("shutdown pruner");
    aceso::serve::shutdown(&addr_keeper).expect("shutdown keeper");
    let report_pruner = handle_pruner.join().expect("pruner daemon");
    let report_keeper = handle_keeper.join().expect("keeper daemon");
    let _ = std::fs::remove_dir_all(&store_dir);

    // Bit-identical results per model, on both sides of the race, no
    // matter who lost which load/evict collision.
    for fps in [&fps_a, &fps_b] {
        for (model, fp) in fps {
            let first = fps_a
                .iter()
                .find(|(m, _)| m == model)
                .expect("seen")
                .1
                .clone();
            assert_eq!(*fp, first, "response for {model} drifted under the race");
        }
    }
    // Degrades stay typed: every server event round-trips through the
    // typed codec, and the store tier was genuinely exercised.
    let mut store_traffic = 0;
    for report in [&report_pruner, &report_keeper] {
        for event in report.events() {
            let back = aceso::obs::Event::from_json_value(
                &event.to_json_value(),
                &aceso::search::intern_obs_str,
            );
            assert_eq!(back.as_ref(), Ok(event), "event must stay typed");
        }
        store_traffic += report.counter(aceso::obs::Counter::StoreHits)
            + report.counter(aceso::obs::Counter::StoreMisses);
    }
    assert!(store_traffic > 0, "the race never touched the store tier");
}

/// Schedules and traces are deterministic, serialisable artifacts: the
/// CLI contract (`aceso chaos run --seed-range` / `aceso chaos replay`)
/// rests on seed → schedule being a pure function.
#[test]
fn seed_derivation_is_stable_across_processes() {
    // Golden: seed 1's schedule (the one the mutant gate trips on in
    // `ci.sh`) carries a short write in generation A. If this changes,
    // the seed windows baked into CI need re-auditing.
    let s = Schedule::from_seed(1);
    assert!(
        s.gen_a
            .events
            .iter()
            .any(|e| e.kind.name() == "short_write"),
        "seed 1 lost its generation-A short write: {s:?}"
    );
    for seed in 0..32 {
        assert_eq!(Schedule::from_seed(seed), Schedule::from_seed(seed));
    }
}
