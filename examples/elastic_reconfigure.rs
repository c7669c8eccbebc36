//! Elastic reconfiguration — the introduction's motivating scenario.
//!
//! "Search overhead can be a huge burden when quick reconfiguration is
//! needed, e.g., in a shared cluster with frequent changes in resources."
//! This example trains on 8 GPUs, loses half the cluster, and re-searches
//! a configuration for the remaining 4 GPUs in seconds — then gets the
//! allocation back and simply searches again:
//!
//! * phase 1 (8 GPUs) runs the search under an iteration budget only, so
//!   its result cannot depend on how fast the host is;
//! * phase 2 (4 GPUs) warm-starts from the previous search's *trace*:
//!   pinning the stage count the 8-GPU search converged on shrinks the
//!   search space, and the saved wall time is measured against an
//!   unpinned search;
//! * phase 3 (8 GPUs restored) reruns the phase-1 search. The search is
//!   deterministic under an iteration budget, so the rerun returns the
//!   bit-identical configuration and predicted time; the example
//!   asserts it.
//!
//! Run with: `cargo run --release --example elastic_reconfigure`

use aceso::prelude::*;
use aceso::search::SearchResult;
use std::time::Duration;

fn options() -> SearchOptions {
    SearchOptions {
        max_iterations: 32,
        time_budget: None,
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

    // Phase 1: full allocation. The profile databases are
    // per-(model, cluster) but cheap to rebuild; a real deployment would
    // persist them with `ProfileDb::to_json`.
    println!("phase 1: full allocation");
    let cluster8 = ClusterSpec::v100_gpus(8);
    let db8 = ProfileDb::build(&model, &cluster8);
    let search8 = AcesoSearch::new(&model, &cluster8, &db8, options());
    let t0 = std::time::Instant::now();
    let full8 = search8.run().expect("search runs");
    let full8_elapsed = t0.elapsed();
    report_line(8, "cold search", full8_elapsed, &full8);

    // Phase 2: the cluster shrinks. The warm start uses the previous
    // search's *trace*: pin the stage count it converged on and skip the
    // other stage-count threads.
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
    // options, so a rerun returns the phase-1 answer bit for bit.
    println!("phase 3: allocation restored — rerunning the 8-GPU search");
    let t0 = std::time::Instant::now();
    let rerun8 = search8.run().expect("search reruns");
    report_line(8, "rerun", t0.elapsed(), &rerun8);
    assert_eq!(
        rerun8.best_time.to_bits(),
        full8.best_time.to_bits(),
        "a rerun under an iteration budget predicts the same time"
    );
    assert_eq!(
        rerun8.best_config.semantic_hash(),
        full8.best_config.semantic_hash(),
        "a rerun under an iteration budget finds the same configuration"
    );
    println!("  bit-identical to the phase-1 result");

    println!(
        "\nthroughput-critical reconfiguration never waits on a slow search:\n\
         a shrink warm-starts from the old trace, a restore reruns a search\n\
         that takes seconds; a mathematical-programming search costing\n\
         hours would leave the cluster idle instead."
    );
}
