//! Differential checkpoint/resume tests.
//!
//! The contract under test: a search that is paused every N iterations,
//! serialised to JSON, parsed back, and resumed — repeatedly, until it
//! finishes — produces output **bit-identical** to an uninterrupted
//! run. "Bit-identical" means the merged event stream byte-for-byte,
//! every deterministic counter and histogram, the best configuration's
//! fingerprint, and the predicted time's exact `f64` bits. The only
//! masked parts are those that measure the host clock: a metric
//! snapshot's wall-clock parts (`aceso_obs::without_wall_clock`) and a
//! checkpoint's `elapsed_secs_bits`.

use aceso::cluster::ClusterSpec;
use aceso::model::{zoo, ModelGraph};
use aceso::obs::{without_wall_clock, ObsReport};
use aceso::profile::ProfileDb;
use aceso::search::{
    AcesoSearch, AfterRound, CheckpointError, PositionError, ResumeError, SearchCheckpoint,
    SearchOptions, SearchResult, SearchStep,
};
use aceso::util::json::Value;

/// Three model families, sized to stay in CI-smoke territory.
fn cases() -> Vec<(&'static str, ModelGraph, ClusterSpec, usize)> {
    vec![
        (
            "gpt3-custom/v100-1x4",
            zoo::gpt3_custom("ckpt-gpt", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(1, 4),
            1, // pause at every iteration — the adversarial case
        ),
        (
            "t5-0.77b/v100-1x4",
            zoo::t5(zoo::T5Size::S0_77b),
            ClusterSpec::v100(1, 4),
            3,
        ),
        (
            "wide-resnet-0.5b/v100-1x4",
            zoo::wide_resnet(zoo::WideResnetSize::S0_5b),
            ClusterSpec::v100(1, 4),
            3,
        ),
    ]
}

fn opts() -> SearchOptions {
    SearchOptions {
        max_iterations: 8,
        ..SearchOptions::default()
    }
}

/// A checkpoint's JSON without its elapsed wall-clock seconds.
fn without_elapsed(json: &str) -> String {
    let Value::Object(mut fields) = Value::parse(json).expect("valid JSON") else {
        panic!("a checkpoint is a JSON object")
    };
    fields.retain(|(k, _)| k != "elapsed_secs_bits");
    Value::Object(fields).to_string_compact()
}

/// Runs the search pausing every `step` iterations, putting each
/// checkpoint through a full JSON round-trip before resuming from the
/// parsed copy. Returns the final result plus the JSON of every
/// checkpoint the chain paused at (so callers can assert the run really
/// was interrupted, and where).
fn run_interrupted(
    search: &AcesoSearch<'_>,
    step: usize,
) -> (SearchResult, ObsReport, Vec<String>) {
    let mut state = search.run_partial(true, step).expect("first round");
    let mut pauses = Vec::new();
    let mut last_done = 0usize;
    loop {
        match state {
            SearchStep::Done(result, report) => return (result, report, pauses),
            SearchStep::Paused(ckpt) => {
                assert!(!ckpt.is_complete(), "paused checkpoint has open stages");
                let done = ckpt.iterations_done();
                assert!(
                    done >= last_done,
                    "iteration progress must be monotone ({done} < {last_done})"
                );
                last_done = done;
                let text = ckpt.to_json_string();
                let parsed = SearchCheckpoint::from_json_str(&text)
                    .expect("checkpoint survives a JSON round-trip");
                pauses.push(text);
                state = search
                    .run_rounds(true, Some(&parsed), Some(step), |_| AfterRound::Pause)
                    .expect("resume from round-tripped checkpoint");
            }
        }
    }
}

fn assert_bit_identical(
    name: &str,
    a: (&SearchResult, &ObsReport),
    b: (&SearchResult, &ObsReport),
) {
    let ((ra, pa), (rb, pb)) = (a, b);
    assert_eq!(
        pa.events_jsonl(),
        pb.events_jsonl(),
        "{name}: event streams must be byte-identical"
    );
    assert_eq!(
        without_wall_clock(pa.metrics_value()).to_string_compact(),
        without_wall_clock(pb.metrics_value()).to_string_compact(),
        "{name}: metric snapshots without their wall-clock parts must match"
    );
    assert_eq!(
        ra.best_config.semantic_hash(),
        rb.best_config.semantic_hash(),
        "{name}: best fingerprint"
    );
    assert_eq!(
        ra.best_time.to_bits(),
        rb.best_time.to_bits(),
        "{name}: best_time f64 bits"
    );
    assert_eq!(ra.best_oom, rb.best_oom, "{name}: best_oom");
    assert_eq!(ra.explored, rb.explored, "{name}: explored count");
    let tops_a: Vec<(u64, u64)> = ra
        .top_configs
        .iter()
        .map(|s| (s.config.semantic_hash(), s.score.to_bits()))
        .collect();
    let tops_b: Vec<(u64, u64)> = rb
        .top_configs
        .iter()
        .map(|s| (s.config.semantic_hash(), s.score.to_bits()))
        .collect();
    assert_eq!(tops_a, tops_b, "{name}: top-k pool");
}

#[test]
fn interrupted_runs_are_bit_identical_across_the_zoo() {
    for (name, model, cluster, step) in cases() {
        let db = ProfileDb::build(&model, &cluster);
        let search = AcesoSearch::new(&model, &cluster, &db, opts());
        let (want, want_report) = search.run_observed(true).expect("reference run");
        let (got, got_report, pauses) = run_interrupted(&search, step);
        assert!(
            !pauses.is_empty(),
            "{name}: the run must actually be interrupted"
        );
        assert_bit_identical(name, (&want, &want_report), (&got, &got_report));
    }
}

#[test]
fn live_snapshots_equal_the_round_tripped_chain() {
    // The hook's snapshots of a live search must be the very checkpoints
    // a chain of JSON round-trips and resumes pauses at: the live search
    // never re-imports, so this keeps its export honest.
    for (name, model, cluster, step) in cases() {
        let db = ProfileDb::build(&model, &cluster);
        let search = AcesoSearch::new(&model, &cluster, &db, opts());
        let mut snapshots = Vec::new();
        let live = search
            .run_rounds(true, None, Some(step), |ckpt| {
                snapshots.push(ckpt.to_json_string());
                AfterRound::Next
            })
            .expect("live run");
        let (live, live_report) = live.done().expect("a hook that never pauses finishes");
        let (chain, chain_report, pauses) = run_interrupted(&search, step);
        assert!(
            !pauses.is_empty(),
            "{name}: the run must actually be interrupted"
        );
        assert_eq!(
            snapshots.len(),
            pauses.len(),
            "{name}: one snapshot per pause"
        );
        for (k, (live_ckpt, chain_ckpt)) in snapshots.iter().zip(&pauses).enumerate() {
            assert_eq!(
                without_elapsed(live_ckpt),
                without_elapsed(chain_ckpt),
                "{name}: snapshot {k} must equal the chain's checkpoint byte for byte"
            );
        }
        assert_bit_identical(name, (&live, &live_report), (&chain, &chain_report));
    }
}

#[test]
fn single_pause_then_run_to_completion_is_bit_identical() {
    let model = zoo::gpt3_custom("ckpt-one", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, opts());
    let (want, want_report) = search.run_observed(true).expect("reference run");

    let SearchStep::Paused(ckpt) = search.run_partial(true, 3).expect("round") else {
        panic!("an 8-iteration search must not finish in 3 iterations");
    };
    let parsed = SearchCheckpoint::from_json_str(&ckpt.to_json_string()).expect("round-trip");
    let (got, got_report) = search
        .resume_from(true, &parsed)
        .expect("resume to completion");
    assert_bit_identical("one-pause", (&want, &want_report), (&got, &got_report));
}

#[test]
fn resuming_a_finished_checkpoint_replays_the_result() {
    // Pausing past max_iterations never fires, so pause the search late,
    // then resume that pre-completion checkpoint twice: both resumes must
    // agree bit-for-bit.
    let model = zoo::gpt3_custom("ckpt-replay", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, opts());
    let SearchStep::Paused(ckpt) = search.run_partial(true, 6).expect("round") else {
        panic!("must pause before completion");
    };
    let (a, pa) = search.resume_from(true, &ckpt).expect("first resume");
    let (b, pb) = search.resume_from(true, &ckpt).expect("second resume");
    assert_bit_identical("replay", (&a, &pa), (&b, &pb));
}

#[test]
fn a_done_position_ends_where_an_equal_budget_search_ends() {
    // A deadline that cut a stage count mid-iteration leaves a `done`
    // position. Replay runs that iteration in full and ends the stage
    // count there: the result of a search whose budget ended on that
    // iteration boundary.
    let model = zoo::gpt3_custom("ckpt-cut", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let pinned = |max_iterations| SearchOptions {
        max_iterations,
        stage_counts: Some(vec![2]),
        ..SearchOptions::default()
    };
    let search = AcesoSearch::new(&model, &cluster, &db, pinned(8));
    let SearchStep::Paused(ckpt) = search.run_partial(true, 3).expect("round") else {
        panic!("an 8-iteration search must not finish in 3 iterations");
    };
    let text = ckpt.to_json_string();
    let open = "[2,3,false]";
    assert!(text.contains(open), "stage count 2 is open at iteration 3");
    let cut = SearchCheckpoint::from_json_str(&text.replacen(open, "[2,3,true]", 1))
        .expect("a done position parses");
    let (got, _) = search.resume_from(true, &cut).expect("resume");
    let want = AcesoSearch::new(&model, &cluster, &db, pinned(3))
        .run()
        .expect("3-iteration run");
    assert_eq!(got.traces[0].iterations.len(), 3);
    assert_eq!(
        got.best_config.semantic_hash(),
        want.best_config.semantic_hash()
    );
    assert_eq!(got.best_time.to_bits(), want.best_time.to_bits());
    let tops = |r: &SearchResult| -> Vec<(u64, u64)> {
        r.top_configs
            .iter()
            .map(|s| (s.config.semantic_hash(), s.score.to_bits()))
            .collect()
    };
    assert_eq!(tops(&got), tops(&want));
}

#[test]
fn metrics_off_checkpoints_resume_bit_identically() {
    let model = zoo::gpt3_custom("ckpt-quiet", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, opts());
    let want = search.run().expect("reference");
    let SearchStep::Paused(ckpt) = search.run_partial(false, 4).expect("round") else {
        panic!("must pause");
    };
    let parsed = SearchCheckpoint::from_json_str(&ckpt.to_json_string()).expect("round-trip");
    let (got, report) = search.resume_from(false, &parsed).expect("resume");
    assert_eq!(
        want.best_config.semantic_hash(),
        got.best_config.semantic_hash()
    );
    assert_eq!(want.best_time.to_bits(), got.best_time.to_bits());
    assert_eq!(want.explored, got.explored);
    assert!(report.events().is_empty(), "metrics-off report stays empty");
}

#[test]
fn incompatible_checkpoints_are_rejected_before_any_work() {
    let model = zoo::gpt3_custom("ckpt-compat", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, opts());
    let SearchStep::Paused(ckpt) = search.run_partial(true, 2).expect("round") else {
        panic!("must pause");
    };

    // Different cluster.
    let other_cluster = ClusterSpec::v100(1, 2);
    let other_db = ProfileDb::build(&model, &other_cluster);
    let other = AcesoSearch::new(&model, &other_cluster, &other_db, opts());
    match other.resume_from(true, &ckpt) {
        Err(ResumeError::Incompatible(CheckpointError::Mismatch(what))) => {
            assert_eq!(what, "cluster fingerprint")
        }
        other => panic!("expected cluster mismatch, got {other:?}"),
    }

    // Different model.
    let other_model = zoo::gpt3_custom("ckpt-other", 6, 512, 8, 256, 8192, 64);
    let other_db = ProfileDb::build(&other_model, &cluster);
    let other = AcesoSearch::new(&other_model, &cluster, &other_db, opts());
    assert!(matches!(
        other.resume_from(true, &ckpt),
        Err(ResumeError::Incompatible(CheckpointError::Mismatch(
            "model fingerprint"
        )))
    ));

    // Different result-affecting options.
    let other = AcesoSearch::new(&model, &cluster, &db, SearchOptions { seed: 99, ..opts() });
    assert!(matches!(
        other.resume_from(true, &ckpt),
        Err(ResumeError::Incompatible(CheckpointError::Mismatch(
            "options fingerprint"
        )))
    ));

    // Different metrics flag.
    assert!(matches!(
        search.resume_from(false, &ckpt),
        Err(ResumeError::Incompatible(CheckpointError::Mismatch(
            "metrics flag"
        )))
    ));
}

#[test]
fn foreign_and_corrupt_checkpoints_fail_without_panicking() {
    let model = zoo::gpt3_custom("ckpt-corrupt", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, opts());
    let SearchStep::Paused(ckpt) = search.run_partial(true, 2).expect("round") else {
        panic!("must pause");
    };
    let text = ckpt.to_json_string();

    // Another schema version is detected before anything else: a
    // future one, and every older one (a v7 spool held the whole search
    // state: configurations, heap, visited set, memo keys, events,
    // metrics and trace; v2 also carried the worker-count field of the
    // removed in-stage worker pool). A daemon degrades each to a fresh
    // search.
    let v8 = "\"schema_version\":8,";
    assert!(text.starts_with(&format!("{{{v8}")));
    let future = text.replacen(v8, "\"schema_version\":9,", 1);
    let v2 = text.replacen(v8, "\"schema_version\":2,\"search_threads\":1,", 1);
    let mut docs = vec![(future, 9), (v2, 2)];
    for version in 3..8 {
        docs.push((
            text.replacen(v8, &format!("\"schema_version\":{version},"), 1),
            version,
        ));
    }
    for (doc, version) in &docs {
        match SearchCheckpoint::from_json_str(doc) {
            Err(CheckpointError::UnknownSchemaVersion(v)) => assert_eq!(v, *version),
            other => panic!("expected UnknownSchemaVersion({version}), got {other:?}"),
        }
    }

    // A forged position parses but cannot belong to this search: a stage
    // count it does not run, a stage count listed twice, or more
    // iterations than its budget. Each fails before any replay.
    let open = "[2,2,false]";
    assert!(text.contains(open), "stage count 2 is open at iteration 2");
    for (forged, want) in [
        ("[9,2,false]", PositionError::UnknownStageCount(9)),
        (
            "[2,2,false],[2,1,false]",
            PositionError::DuplicateStageCount(2),
        ),
        (
            "[2,9,false]",
            PositionError::IterationsOverBudget {
                stage_count: 2,
                iterations: 9,
            },
        ),
    ] {
        let doc = text.replacen(open, forged, 1);
        let ckpt = SearchCheckpoint::from_json_str(&doc).expect("a forged position parses");
        match search.resume_from(true, &ckpt) {
            Err(ResumeError::Incompatible(CheckpointError::Position(got))) => {
                assert_eq!(got, want, "{forged}")
            }
            other => panic!("{forged}: expected {want:?}, got {other:?}"),
        }
    }
    // A position of the wrong shape is a JSON error.
    let doc = text.replacen(open, "[2,2]", 1);
    assert!(matches!(
        SearchCheckpoint::from_json_str(&doc),
        Err(CheckpointError::Json(_))
    ));

    // Truncation at any prefix length is an error, never a panic.
    for cut in [0, 1, text.len() / 4, text.len() / 2, text.len() - 1] {
        assert!(
            SearchCheckpoint::from_json_str(&text[..cut]).is_err(),
            "truncated checkpoint (cut at {cut}) must be rejected"
        );
    }
}
