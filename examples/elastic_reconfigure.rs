//! Elastic reconfiguration — the introduction's motivating scenario.
//!
//! "Search overhead can be a huge burden when quick reconfiguration is
//! needed, e.g., in a shared cluster with frequent changes in resources."
//! This example trains on 8 GPUs, loses half the cluster, and re-searches
//! a configuration for the remaining 4 GPUs in seconds — then gets the
//! allocation back and **resumes** from the checkpoint the preempted
//! 8-GPU search left behind:
//!
//! * phase 1 (8 GPUs) runs the search in rounds, snapshotting it after
//!   each one exactly as a `--spool-dir` daemon would, and keeps the
//!   snapshot taken at the preemption point;
//! * phase 2 (4 GPUs) cannot bit-resume an 8-GPU checkpoint (the cluster
//!   fingerprint differs), but it warm-starts from the previous search's
//!   *trace*: pinning the stage count the 8-GPU search converged on
//!   shrinks the search space, and the saved wall time is measured
//!   against an unpinned search;
//! * phase 3 (8 GPUs restored) resumes the phase-1 checkpoint. A
//!   checkpoint is a position, not a state, so the resume replays the
//!   iterations the checkpoint banked (their budget stays spent) and
//!   then runs the rest; it prints how many it replayed and the wall
//!   time the whole resume took. The resumed result is bit-identical to
//!   the uninterrupted run (`SearchCheckpoint`'s core contract).
//!
//! Run with: `cargo run --release --example elastic_reconfigure`

use aceso::prelude::*;
use aceso::search::{AfterRound, SearchCheckpoint, SearchResult};
use std::time::Duration;

fn options() -> SearchOptions {
    SearchOptions {
        max_iterations: 32,
        time_budget: Some(Duration::from_secs(10)),
        ..SearchOptions::default()
    }
}

fn report_line(gpus: usize, label: &str, elapsed: Duration, result: &SearchResult) {
    println!(
        "  {gpus} GPUs ({label}): {:.2?} ({} configs) -> {} stages, predicted {:.3} s/iter",
        elapsed,
        result.explored,
        result.best_config.num_stages(),
        result.best_time,
    );
}

fn main() {
    let model = aceso::model::zoo::gpt3_custom("elastic-gpt", 12, 1536, 16, 1024, 32000, 256);
    println!(
        "model `{}` ({:.2} B params) in a shared cluster:",
        model.name,
        model.total_params() as f64 / 1e9
    );

    // Phase 1: full allocation, searched in checkpointed rounds. The
    // profile databases are per-(model, cluster) but cheap to rebuild; a
    // real deployment would persist them with `ProfileDb::to_json`.
    println!("phase 1: full allocation (checkpointing every 8 iterations)");
    let cluster8 = ClusterSpec::v100_gpus(8);
    let db8 = ProfileDb::build(&model, &cluster8);
    let search8 = AcesoSearch::new(&model, &cluster8, &db8, options());
    let t0 = std::time::Instant::now();
    let mut preemption_snapshot: Option<SearchCheckpoint> = None;
    let step = search8
        .run_rounds(true, None, Some(8), |ckpt| {
            // This is the state a preemption at this instant would have
            // left on disk.
            preemption_snapshot = Some(ckpt.clone());
            AfterRound::Next
        })
        .expect("search runs");
    let (full8, _) = step.done().expect("the hook never pauses");
    let full8_elapsed = t0.elapsed();
    report_line(8, "cold search", full8_elapsed, &full8);
    let snapshot = preemption_snapshot.expect("a 32-iteration search pauses at least once");
    println!(
        "  preemption snapshot: {} iterations ({:.2} s of search) banked",
        snapshot.iterations_done(),
        snapshot.elapsed_secs()
    );

    // Phase 2: the cluster shrinks. An 8-GPU checkpoint cannot bit-resume
    // on 4 GPUs — resume demands the same cluster fingerprint — so the
    // warm start uses the previous search's *trace* instead: pin the
    // stage count it converged on and skip the other stage-count threads.
    println!("phase 2: preemption — cluster shrinks to 4 GPUs");
    let cluster4 = ClusterSpec::v100_gpus(4);
    let db4 = ProfileDb::build(&model, &cluster4);
    let t0 = std::time::Instant::now();
    let cold4 = AcesoSearch::new(&model, &cluster4, &db4, options())
        .run()
        .expect("cold 4-GPU search");
    let cold4_elapsed = t0.elapsed();
    report_line(4, "cold search", cold4_elapsed, &cold4);

    let warm_opts = SearchOptions {
        stage_counts: Some(vec![full8.best_config.num_stages().min(4)]),
        ..options()
    };
    let t0 = std::time::Instant::now();
    let warm4 = AcesoSearch::new(&model, &cluster4, &db4, warm_opts)
        .run()
        .expect("warm 4-GPU search");
    let warm4_elapsed = t0.elapsed();
    report_line(4, "trace warm-start", warm4_elapsed, &warm4);
    println!(
        "  warm-start saved {:.2?} of wall time ({:.0}% of the cold search)",
        cold4_elapsed.saturating_sub(warm4_elapsed),
        100.0 * (1.0 - warm4_elapsed.as_secs_f64() / cold4_elapsed.as_secs_f64().max(1e-9)),
    );

    // Phase 3: allocation restored — same model, same cluster, same
    // options, so the preemption snapshot resumes bit-identically.
    println!("phase 3: allocation restored — resuming the preemption snapshot");
    let t0 = std::time::Instant::now();
    let (resumed8, _) = search8
        .resume_from(true, &snapshot)
        .expect("checkpoint resumes");
    let resumed_elapsed = t0.elapsed();
    report_line(8, "checkpoint resume", resumed_elapsed, &resumed8);
    let iterations: usize = full8.traces.iter().map(|t| t.iterations.len()).sum();
    println!(
        "  resume replayed {} of {} iterations without charging their budget \
         again ({:.2?} for the whole resume, {:.2?} cold); bit-identical result: {}",
        snapshot.iterations_done(),
        iterations,
        resumed_elapsed,
        full8_elapsed,
        resumed8.best_time.to_bits() == full8.best_time.to_bits()
            && resumed8.best_config.semantic_hash() == full8.best_config.semantic_hash(),
    );

    println!(
        "\nthroughput-critical reconfiguration never waits on a cold search:\n\
         a shrink warm-starts from the old trace, a restore resumes the\n\
         checkpoint; a mathematical-programming search costing\n\
         hours would leave the cluster idle instead."
    );
}
