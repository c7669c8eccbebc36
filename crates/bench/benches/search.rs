//! Benchmarks of search building blocks: candidate generation, bottleneck
//! ranking, the fine-tuning pass, and a short end-to-end search.
//!
//! Plain `harness = false` binaries: each case is warmed up, then timed
//! over a fixed iteration count, reporting mean ns/iter.

use aceso_cluster::ClusterSpec;
use aceso_config::balanced_init;
use aceso_core::{finetune, primitives, ranked_bottlenecks, AcesoSearch, SearchOptions};
use aceso_perf::PerfModel;
use aceso_profile::ProfileDb;
use std::hint::black_box;
use std::time::Instant;

fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    for _ in 0..iters.div_ceil(10) {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_nanos() / u128::from(iters.max(1));
    println!("{name:<40} {per_iter:>12} ns/iter ({iters} iters)");
}

fn setup() -> (aceso_model::ModelGraph, ClusterSpec) {
    (
        aceso_model::zoo::gpt3(aceso_model::zoo::Gpt3Size::S2_6b),
        ClusterSpec::v100_gpus(8),
    )
}

fn main() {
    let (model, cluster) = setup();
    let db = ProfileDb::build(&model, &cluster);
    let pm = PerfModel::new(&model, &cluster, &db);
    let cfg = balanced_init(&model, &cluster, 4).expect("init");
    let est = pm.evaluate_unchecked(&cfg);

    bench("generate_all_primitives_2.6b", 50, || {
        let mut n = 0usize;
        for prim in primitives::Primitive::ALL {
            for res in primitives::Resource::ALL {
                n += primitives::generate(&pm, &cfg, &est, prim, 0, res).len();
            }
        }
        n
    });

    bench("ranked_bottlenecks_4stages", 10_000, || {
        ranked_bottlenecks(black_box(&est))
    });

    bench("fine_tune_pass_2.6b", 20, || {
        finetune::fine_tune(&pm, cfg.clone())
    });

    let model = aceso_model::zoo::gpt3_custom("b", 8, 1024, 16, 1024, 32000, 128);
    let cluster = ClusterSpec::v100_gpus(4);
    let db = ProfileDb::build(&model, &cluster);
    bench("search_8_iterations_small_gpt", 5, || {
        AcesoSearch::new(
            &model,
            &cluster,
            &db,
            SearchOptions {
                max_iterations: 8,
                stage_counts: Some(vec![2]),
                ..SearchOptions::default()
            },
        )
        .run()
        .expect("runs")
        .explored
    });
}
