//! Search-quality integration tests: Aceso's stochastic search measured
//! against exhaustive/baseline references on small problems.

use aceso::baselines::{DpOptions, DpSearch};
use aceso::model::zoo;
use aceso::prelude::*;
use aceso::search::SearchOptions;

fn opts(iters: usize) -> SearchOptions {
    SearchOptions {
        max_iterations: iters,
        ..SearchOptions::default()
    }
}

#[test]
fn matches_dp_on_small_problem() {
    // On a small model the pruned DP is near-exhaustive over uniform
    // plans; Aceso must find something at least as good (its space is a
    // strict superset).
    let model = zoo::gpt3_custom("q", 4, 512, 8, 512, 16000, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let dp = DpSearch::new(&model, &cluster, &db, DpOptions::default())
        .run()
        .expect("dp finds a config");
    let aceso = AcesoSearch::new(&model, &cluster, &db, opts(32))
        .run()
        .expect("aceso finds a config");
    assert!(
        aceso.top_configs[0].score <= dp.score * 1.02,
        "aceso {} vs dp {}",
        aceso.top_configs[0].score,
        dp.score
    );
    // And explores far less.
    assert!(aceso.explored < dp.explored);
}

#[test]
fn more_iterations_never_hurt() {
    let model = zoo::gpt3_custom("q2", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let short = AcesoSearch::new(&model, &cluster, &db, opts(4))
        .run()
        .expect("short");
    let long = AcesoSearch::new(&model, &cluster, &db, opts(24))
        .run()
        .expect("long");
    assert!(long.top_configs[0].score <= short.top_configs[0].score + 1e-9);
}

#[test]
fn deeper_hops_never_hurt_quality() {
    let model = zoo::gpt3_custom("q3", 6, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 8);
    let db = ProfileDb::build(&model, &cluster);
    let mut scores = Vec::new();
    for hops in [1usize, 7] {
        let r = AcesoSearch::new(
            &model,
            &cluster,
            &db,
            SearchOptions {
                max_hops: hops,
                stage_counts: Some(vec![4]),
                ..opts(16)
            },
        )
        .run()
        .expect("runs");
        scores.push(r.top_configs[0].score);
    }
    // Not strictly monotone (deeper hops walk a different path), but
    // MaxHops=7 must never be meaningfully worse than MaxHops=1.
    assert!(
        scores[1] <= scores[0] * 1.01,
        "hops=7 ({}) much worse than hops=1 ({})",
        scores[1],
        scores[0]
    );
}

#[test]
fn heuristic2_no_worse_than_random_median() {
    let model = zoo::gpt3_custom("q4", 4, 512, 8, 256, 8192, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let base = opts(8);
    let h2 = AcesoSearch::new(&model, &cluster, &db, base.clone())
        .run()
        .expect("h2");
    let mut rand_scores: Vec<f64> = (1..=3u64)
        .map(|seed| {
            aceso::baselines::random_search(&model, &cluster, &db, &base, seed)
                .expect("random runs")
                .top_configs[0]
                .score
        })
        .collect();
    rand_scores.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = rand_scores[1];
    assert!(
        h2.top_configs[0].score <= median * 1.02,
        "h2 {} vs random median {median}",
        h2.top_configs[0].score
    );
}

#[test]
fn found_configs_respect_memory_with_margin() {
    // Every returned feasible config actually executes within memory on
    // the simulator (the overestimating prediction is the safety margin).
    let model = zoo::gpt3_custom("q5", 8, 1024, 16, 1024, 32000, 64);
    let cluster = ClusterSpec::v100(1, 4);
    let db = ProfileDb::build(&model, &cluster);
    let r = AcesoSearch::new(&model, &cluster, &db, opts(16))
        .run()
        .expect("runs");
    let sim = Simulator::with_defaults(&model, &cluster, &db);
    for sc in r.top_configs.iter().filter(|c| !c.oom) {
        let report = sim.execute(&sc.config).expect("executes");
        assert!(
            report.ok(),
            "predicted-feasible config OOMs in execution: {} > {}",
            report.peak_memory,
            report.mem_capacity
        );
    }
}
