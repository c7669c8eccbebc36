//! Differential property suite: the incremental `CachedEvaluator` must be
//! **bit-identical** to a from-scratch `PerfModel::evaluate_unchecked` at
//! every step of seeded random primitive walks over every audit-corpus
//! (model × cluster) sample.
//!
//! One long-lived cached evaluator scores the whole walk — exactly the
//! way the search uses it — so its memo table carries stage estimates
//! from *earlier* configurations into later steps. Any stale-cache bug
//! (a cache key missing a field the estimate depends on) shows up as a
//! bit difference against the fresh full evaluation.

use aceso::audit::corpus::{corpus, primitive_walk};
use aceso::perf::{CachedEvaluator, ConfigEstimate, Evaluator, PerfModel};

/// Asserts two estimates are equal to the last bit, with a labelled panic
/// naming the first diverging field.
fn assert_bit_identical(full: &ConfigEstimate, inc: &ConfigEstimate, ctx: &str) {
    assert_eq!(full.stages.len(), inc.stages.len(), "{ctx}: stage count");
    assert_eq!(
        full.num_microbatches, inc.num_microbatches,
        "{ctx}: num_microbatches"
    );
    assert_eq!(
        full.slowest_stage, inc.slowest_stage,
        "{ctx}: slowest_stage"
    );
    assert_eq!(full.max_memory, inc.max_memory, "{ctx}: max_memory");
    assert_eq!(
        full.max_memory_stage, inc.max_memory_stage,
        "{ctx}: max_memory_stage"
    );
    assert_eq!(
        full.iteration_time.to_bits(),
        inc.iteration_time.to_bits(),
        "{ctx}: iteration_time {} vs {}",
        full.iteration_time,
        inc.iteration_time
    );
    for (i, (f, c)) in full.stages.iter().zip(&inc.stages).enumerate() {
        let fields = [
            ("comp_fwd", f.comp_fwd, c.comp_fwd),
            ("comp_bwd", f.comp_bwd, c.comp_bwd),
            ("comm_fwd", f.comm_fwd, c.comm_fwd),
            ("comm_bwd", f.comm_bwd, c.comm_bwd),
            ("dp_sync", f.dp_sync, c.dp_sync),
            ("stage_time", f.stage_time, c.stage_time),
        ];
        for (name, a, b) in fields {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: stage {i} {name}: {a} vs {b}"
            );
        }
        assert_eq!(f.mem_params, c.mem_params, "{ctx}: stage {i} mem_params");
        assert_eq!(f.mem_opt, c.mem_opt, "{ctx}: stage {i} mem_opt");
        assert_eq!(
            f.mem_act_per_mb, c.mem_act_per_mb,
            "{ctx}: stage {i} mem_act_per_mb"
        );
        assert_eq!(
            f.mem_reserved, c.mem_reserved,
            "{ctx}: stage {i} mem_reserved"
        );
        assert_eq!(f.mem_total, c.mem_total, "{ctx}: stage {i} mem_total");
        assert_eq!(f.in_flight, c.in_flight, "{ctx}: stage {i} in_flight");
    }
}

/// Replays seeded walks over `smoke`-mode or full corpus samples.
fn run_walks(smoke: bool, seeds: &[u64], steps: usize) {
    let samples = corpus(smoke);
    assert!(!samples.is_empty());
    for sample in &samples {
        let full = PerfModel::new(&sample.model, &sample.cluster, &sample.db);
        // One evaluator per sample, shared across walks: maximal memo
        // reuse, maximal chance of catching stale-cache bugs.
        let cached =
            CachedEvaluator::new(PerfModel::new(&sample.model, &sample.cluster, &sample.db));
        for start in &sample.configs {
            for &seed in seeds {
                let walk = primitive_walk(sample, start, seed, steps);
                for (step, config) in walk.iter().enumerate() {
                    let want = full.evaluate_unchecked(config);
                    let got = cached.evaluate_unchecked(config);
                    let ctx = format!("{} seed {seed} step {step}", sample.label);
                    assert_bit_identical(&want, &got, &ctx);
                }
            }
        }
        assert!(
            cached.memo_len() > 0,
            "{}: walks never populated the memo table",
            sample.label
        );
    }
}

#[test]
fn smoke_walks_are_bit_identical() {
    run_walks(true, &[1, 2, 3, 4], 16);
}

#[test]
#[ignore = "full corpus sweep; run with --ignored (ci.sh does)"]
fn full_corpus_walks_are_bit_identical() {
    run_walks(false, &[1, 2], 10);
}
