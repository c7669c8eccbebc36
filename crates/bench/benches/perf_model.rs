//! Micro-benchmarks of the performance model — the search's inner loop.
//! The paper's search evaluates hundreds of thousands of configurations in
//! its 200 s budget, so evaluation must stay in the tens-of-microseconds
//! range.
//!
//! Plain `harness = false` binaries: each case is warmed up, then timed
//! over a fixed iteration count, reporting mean ns/iter.
//!
//! The kernel cases time the three per-candidate passes of the search:
//! the stage fold (`stage_breakdown`, also per op), the stage content
//! hash, and the recompute fix-up, computed afresh and served from the
//! evaluator's fix-up memo. The per-candidate cases time what one
//! candidate costs before it is scored: one op move (`move_ops`), and
//! one dec-op# generation call (`generate_with`: its moves, fix-ups,
//! fingerprints and dedup) on a 4-stage gpt3 configuration through a
//! warm evaluator.

use aceso_cluster::ClusterSpec;
use aceso_config::{balanced_init, OpParallel, ParallelConfig, StageConfig};
use aceso_core::primitives::{generate_with, rc_fixup, GenOptions};
use aceso_core::transform::move_ops;
use aceso_core::{Primitive, Resource};
use aceso_model::ModelGraph;
use aceso_perf::{CachedEvaluator, ConfigEstimate, Evaluator, PerfModel};
use aceso_profile::ProfileDb;
use std::hint::black_box;
use std::time::Instant;

/// A warm [`CachedEvaluator`] without its fix-up memo: the trait's
/// default `fixup_stage` recomputes every fix-up.
struct FreshFixups<'a>(&'a CachedEvaluator<'a>);

impl Evaluator for FreshFixups<'_> {
    fn model(&self) -> &ModelGraph {
        self.0.model()
    }
    fn cluster(&self) -> &ClusterSpec {
        self.0.cluster()
    }
    fn evaluate_unchecked(&self, config: &ParallelConfig) -> ConfigEstimate {
        self.0.evaluate_unchecked(config)
    }
}

fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> u128 {
    for _ in 0..iters.div_ceil(10) {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_nanos() / u128::from(iters.max(1));
    println!("{name:<40} {per_iter:>12} ns/iter ({iters} iters)");
    per_iter
}

fn main() {
    for (label, model, gpus) in [
        (
            "evaluate/gpt3-small-68ops",
            aceso_model::zoo::gpt3_custom("b1", 8, 1024, 16, 1024, 32000, 128),
            4usize,
        ),
        (
            "evaluate/gpt3-13b-324ops",
            aceso_model::zoo::gpt3(aceso_model::zoo::Gpt3Size::S13b),
            32,
        ),
        (
            "evaluate/deepnet-256l-2052ops",
            aceso_model::zoo::deepnet(256),
            8,
        ),
    ] {
        let cluster = ClusterSpec::v100_gpus(gpus);
        let db = ProfileDb::build(&model, &cluster);
        let pm = PerfModel::new(&model, &cluster, &db);
        let cfg = balanced_init(&model, &cluster, gpus.min(4)).expect("init");
        bench(label, 200, || pm.evaluate_unchecked(black_box(&cfg)));
        let ops = cfg.stages()[0].num_ops() as f64;
        let name = label.replacen("evaluate", "stage_breakdown", 1);
        let ns = bench(&name, 2_000, || pm.stage_breakdown(black_box(&cfg), 0));
        println!(
            "{:<40} {:>12.1} ns/op ({ops} ops)",
            format!("{name}/per-op"),
            ns as f64 / ops
        );
    }

    let model = aceso_model::zoo::gpt3(aceso_model::zoo::Gpt3Size::S13b);
    let cluster = ClusterSpec::v100_gpus(32);
    let cfg = balanced_init(&model, &cluster, 8).expect("init");
    bench("semantic_hash_324ops", 10_000, || {
        black_box(&cfg).semantic_hash()
    });

    // Short settings runs: the dims alternate every op and the recompute
    // flags every other op, so most runs are one op long.
    let short_runs = StageConfig {
        op_start: 0,
        op_end: model.len(),
        gpus: 8,
        ops: (0..model.len())
            .map(|j| OpParallel {
                tp: 4,
                dp: 2,
                dim_index: (j % 2) as u8,
                recompute: j % 4 < 2,
                zero: false,
            })
            .collect(),
    };
    bench("compute_content_hash/324ops-short-runs", 10_000, || {
        black_box(&short_runs).compute_content_hash()
    });

    // An out-of-memory single-GPU config whose fix-up flags recompute.
    let model = aceso_model::zoo::gpt3_custom("oom", 32, 2048, 32, 2048, 51200, 256);
    let cluster = ClusterSpec::v100(1, 1);
    let db = ProfileDb::build(&model, &cluster);
    let cached = CachedEvaluator::new(PerfModel::new(&model, &cluster, &db));
    let cfg = balanced_init(&model, &cluster, 1).expect("init");
    assert!(cached.evaluate_unchecked(&cfg).oom(), "the fix-up must act");
    let fresh = FreshFixups(&cached);
    bench("rc_fixup/oom-cold", 2_000, || rc_fixup(&fresh, cfg.clone()));
    bench("rc_fixup/oom-memo-hit", 2_000, || {
        rc_fixup(&cached, cfg.clone())
    });

    // Per-candidate cases on the search pool's gpt3-0.35b at 4 GPUs.
    let model = aceso_model::zoo::by_name("gpt3-0.35b").expect("zoo model");
    let cluster = ClusterSpec::v100_gpus(4);
    let db = ProfileDb::build(&model, &cluster);
    let cached = CachedEvaluator::new(PerfModel::new(&model, &cluster, &db));
    let cfg = balanced_init(&model, &cluster, 4).expect("init");
    let est = cached.evaluate_unchecked(&cfg);
    bench("move_ops/gpt3-0.35b-4stage-k1", 20_000, || {
        move_ops(&model, black_box(&cfg), 1, 2, 1)
    });
    let stage = est.slowest_stage;
    let cands = generate_with(
        &cached,
        &cfg,
        &est,
        Primitive::DecOp,
        stage,
        Resource::Compute,
        GenOptions::default(),
    );
    assert!(!cands.is_empty(), "dec-op# must move ops");
    bench(
        &format!("generate_with/dec-op#-4stage-{}cands", cands.len()),
        2_000,
        || {
            generate_with(
                &cached,
                black_box(&cfg),
                &est,
                Primitive::DecOp,
                stage,
                Resource::Compute,
                GenOptions::default(),
            )
        },
    );
}
