//! Differential checkpoint/resume tests.
//!
//! The contract under test: a search that is paused every N iterations,
//! serialised to JSON, parsed back, and resumed — repeatedly, until it
//! finishes — produces output **bit-identical** to an uninterrupted
//! run. "Bit-identical" means the merged event stream byte-for-byte,
//! every deterministic counter and histogram, the best configuration's
//! fingerprint, and the predicted time's exact `f64` bits. The only
//! masked fields are `wall_time_secs` and the `eval_latency_us`
//! histogram, which measure the host clock, and the counters the obs
//! schema registers as `NONDETERMINISTIC_COUNTERS` (serve-reactor
//! timing, which a library search never moves).

use aceso::cluster::ClusterSpec;
use aceso::model::{zoo, ModelGraph};
use aceso::obs::{ObsReport, NONDETERMINISTIC_COUNTERS};
use aceso::profile::ProfileDb;
use aceso::search::{
    AcesoSearch, CheckpointError, ResumeError, SearchCheckpoint, SearchOptions, SearchResult,
    SearchStep,
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

/// Drops the only nondeterministic parts of a metric snapshot: the
/// wall-clock field, the latency histogram, and the scheduling-dependent
/// counters the obs schema registers as nondeterministic.
fn masked(snapshot: &Value) -> Value {
    let Value::Object(fields) = snapshot else {
        return snapshot.clone();
    };
    let fields = fields
        .iter()
        .filter(|(k, _)| k != "wall_time_secs")
        .map(|(k, v)| {
            if k == "histograms" {
                if let Value::Object(hists) = v {
                    let kept = hists
                        .iter()
                        .filter(|(name, _)| name != "eval_latency_us")
                        .cloned()
                        .collect();
                    return (k.clone(), Value::Object(kept));
                }
            }
            if k == "counters" {
                if let Value::Object(counters) = v {
                    let kept = counters
                        .iter()
                        .filter(|(name, _)| !NONDETERMINISTIC_COUNTERS.contains(&name.as_str()))
                        .cloned()
                        .collect();
                    return (k.clone(), Value::Object(kept));
                }
            }
            (k.clone(), v.clone())
        })
        .collect();
    Value::Object(fields)
}

/// Runs the search pausing every `step` iterations, putting each
/// checkpoint through a full JSON round-trip before resuming from the
/// parsed copy. Returns the final result plus how many checkpoints were
/// taken (so callers can assert the run really was interrupted).
fn run_interrupted(search: &AcesoSearch<'_>, step: usize) -> (SearchResult, ObsReport, usize) {
    let mut bound = step;
    let mut state = search.run_partial(true, bound).expect("first slice");
    let mut pauses = 0usize;
    let mut last_done = 0usize;
    loop {
        match state {
            SearchStep::Done(result, report) => return (result, report, pauses),
            SearchStep::Paused(ckpt) => {
                pauses += 1;
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
                bound += step;
                state = search
                    .resume_partial(true, &parsed, Some(bound))
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
        masked(&Value::parse(&pa.metrics_json()).unwrap()).to_string_compact(),
        masked(&Value::parse(&pb.metrics_json()).unwrap()).to_string_compact(),
        "{name}: masked metric snapshots must match"
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
        assert!(pauses > 0, "{name}: the run must actually be interrupted");
        assert_bit_identical(name, (&want, &want_report), (&got, &got_report));
    }
}

#[test]
fn single_pause_then_run_to_completion_is_bit_identical() {
    let model = zoo::gpt3_custom("ckpt-one", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, opts());
    let (want, want_report) = search.run_observed(true).expect("reference run");

    let SearchStep::Paused(ckpt) = search.run_partial(true, 3).expect("slice") else {
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
    // Pausing past max_iterations never fires, so drive the search to
    // completion in slices, then resume the final pre-completion
    // checkpoint twice: both resumes must agree bit-for-bit.
    let model = zoo::gpt3_custom("ckpt-replay", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, opts());
    let SearchStep::Paused(ckpt) = search.run_partial(true, 6).expect("slice") else {
        panic!("must pause before completion");
    };
    let (a, pa) = search.resume_from(true, &ckpt).expect("first resume");
    let (b, pb) = search.resume_from(true, &ckpt).expect("second resume");
    assert_bit_identical("replay", (&a, &pa), (&b, &pb));
}

#[test]
fn metrics_off_checkpoints_resume_bit_identically() {
    let model = zoo::gpt3_custom("ckpt-quiet", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let search = AcesoSearch::new(&model, &cluster, &db, opts());
    let want = search.run().expect("reference");
    let SearchStep::Paused(ckpt) = search.run_partial(false, 4).expect("slice") else {
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
    let SearchStep::Paused(ckpt) = search.run_partial(true, 2).expect("slice") else {
        panic!("must pause");
    };

    // Different cluster.
    let other_cluster = ClusterSpec::v100(1, 2);
    let other_db = ProfileDb::build(&model, &other_cluster);
    let other = AcesoSearch::new(&model, &other_cluster, &other_db, opts());
    match other.resume_partial(true, &ckpt, None) {
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
        other.resume_partial(true, &ckpt, None),
        Err(ResumeError::Incompatible(CheckpointError::Mismatch(
            "model fingerprint"
        )))
    ));

    // Different result-affecting options.
    let other = AcesoSearch::new(&model, &cluster, &db, SearchOptions { seed: 99, ..opts() });
    assert!(matches!(
        other.resume_partial(true, &ckpt, None),
        Err(ResumeError::Incompatible(CheckpointError::Mismatch(
            "options fingerprint"
        )))
    ));

    // Different metrics flag.
    assert!(matches!(
        search.resume_partial(false, &ckpt, None),
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
    let SearchStep::Paused(ckpt) = search.run_partial(true, 2).expect("slice") else {
        panic!("must pause");
    };
    let text = ckpt.to_json_string();

    // Another schema version is detected before anything else: a
    // future one, a v4 spool (same shape, but its saved event stream
    // carries one `candidate_rejected` event per rejection instead of the
    // per-iteration summary), a v3 spool (its counters include the
    // second evaluation of fix-up-unchanged candidates that the search
    // no longer makes), and a v2 spool that still carries the
    // worker-count field of the removed in-stage worker pool (a daemon
    // degrades all four to a fresh search).
    let v5 = "\"schema_version\":5,";
    assert!(text.starts_with(&format!("{{{v5}")));
    let future = text.replacen(v5, "\"schema_version\":6,", 1);
    let v4 = text.replacen(v5, "\"schema_version\":4,", 1);
    let v3 = text.replacen(v5, "\"schema_version\":3,", 1);
    let v2 = text.replacen(v5, "\"schema_version\":2,\"search_threads\":1,", 1);
    for (doc, version) in [(&future, 6), (&v4, 4), (&v3, 3), (&v2, 2)] {
        match SearchCheckpoint::from_json_str(doc) {
            Err(CheckpointError::UnknownSchemaVersion(v)) => assert_eq!(v, version),
            other => panic!("expected UnknownSchemaVersion({version}), got {other:?}"),
        }
    }

    // Truncation at any prefix length is an error, never a panic.
    for cut in [0, 1, text.len() / 4, text.len() / 2, text.len() - 1] {
        assert!(
            SearchCheckpoint::from_json_str(&text[..cut]).is_err(),
            "truncated checkpoint (cut at {cut}) must be rejected"
        );
    }
}
