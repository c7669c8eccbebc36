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
//!
//! The fix-up cases hold the recompute fix-up memo (INV-FIXUP-MEMO) to
//! the same standard: one long-lived evaluator's `rc_fixup` against a
//! fresh one on a fresh `PerfModel`, on a device small enough that the
//! walks' stages overflow it.

use aceso::audit::corpus::{corpus, primitive_walk, CorpusSample};
use aceso::cluster::ClusterSpec;
use aceso::config::validate::validate;
use aceso::config::{OpParallel, ParallelConfig, StageConfig};
use aceso::perf::{CachedEvaluator, ConfigEstimate, Evaluator, PerfModel};
use aceso::search::primitives::rc_fixup;

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

/// `sample`'s cluster with the device shrunk to the median predicted
/// stage memory of its start configurations, so about half their stages
/// overflow it by a margin the fix-up can close in several ways.
fn tight_cluster(sample: &CorpusSample) -> ClusterSpec {
    let pm = PerfModel::new(&sample.model, &sample.cluster, &sample.db);
    let mut mems: Vec<u64> = sample
        .configs
        .iter()
        .flat_map(|c| pm.evaluate_unchecked(c).stages)
        .map(|s| s.mem_total)
        .collect();
    mems.sort_unstable();
    let mut cluster = sample.cluster.clone();
    cluster.device.mem_bytes = mems[mems.len() / 2];
    cluster
}

/// Asserts two fix-up results are the same configuration, stage hash for
/// stage hash, carrying the same estimate bits or both none.
fn assert_same_fixup(
    want: &(ParallelConfig, Option<ConfigEstimate>),
    got: &(ParallelConfig, Option<ConfigEstimate>),
    ctx: &str,
) {
    assert_eq!(
        want.0.semantic_hash(),
        got.0.semantic_hash(),
        "{ctx}: fixed fingerprint"
    );
    for (i, (w, g)) in want.0.stages().iter().zip(got.0.stages()).enumerate() {
        assert_eq!(w.content_hash(), g.content_hash(), "{ctx}: stage {i} hash");
        assert_eq!(**w, **g, "{ctx}: stage {i} settings");
    }
    match (&want.1, &got.1) {
        (Some(w), Some(g)) => assert_bit_identical(w, g, ctx),
        (None, None) => {}
        _ => panic!("{ctx}: one fix-up carried an estimate, the other did not"),
    }
}

/// `config` one stage deeper: its last stage split in two halves of its
/// ops and devices, pure data parallel, when that is valid. Every other
/// stage keeps its content one `in_flight` higher, which probes that key
/// field of the fix-up memo.
fn split_last(sample: &CorpusSample, config: &ParallelConfig) -> Option<ParallelConfig> {
    let (last, head) = config.stages().split_last()?;
    let (ops, gpus) = (last.num_ops(), last.gpus);
    if ops < 2 || gpus < 2 {
        return None;
    }
    let mid = last.op_start + ops / 2;
    let mut stages: Vec<StageConfig> = head.iter().map(|s| StageConfig::clone(s)).collect();
    let half = (gpus / 2) as u32;
    stages.push(StageConfig::uniform(
        last.op_start,
        mid,
        OpParallel::data_parallel(half),
    ));
    stages.push(StageConfig::uniform(
        mid,
        last.op_end,
        OpParallel::data_parallel(gpus as u32 - half),
    ));
    let split = ParallelConfig::new(stages, config.microbatch);
    validate(&split, &sample.model, &sample.cluster)
        .is_ok()
        .then_some(split)
}

/// Replays seeded walks through `rc_fixup` on one long-lived cached
/// evaluator per sample and on a fresh model at every step, each step
/// followed by its [`split_last`] variant.
fn run_fixup_walks(smoke: bool, seeds: &[u64], steps: usize) {
    let samples = corpus(smoke);
    assert!(!samples.is_empty());
    for sample in &samples {
        let cluster = tight_cluster(sample);
        let cached = CachedEvaluator::new(PerfModel::new(&sample.model, &cluster, &sample.db));
        let mut rewrites = 0usize;
        for start in &sample.configs {
            for &seed in seeds {
                for (step, config) in primitive_walk(sample, start, seed, steps)
                    .into_iter()
                    .enumerate()
                {
                    let split = split_last(sample, &config);
                    for config in std::iter::once(config).chain(split) {
                        let fresh = PerfModel::new(&sample.model, &cluster, &sample.db);
                        let want = rc_fixup(&fresh, config.clone());
                        let ctx = format!(
                            "{} seed {seed} step {step} ({} stages)",
                            sample.label,
                            config.num_stages()
                        );
                        let got = rc_fixup(&cached, config);
                        assert_same_fixup(&want, &got, &ctx);
                        rewrites += usize::from(want.1.is_none());
                    }
                }
            }
        }
        assert!(
            rewrites > 0 && cached.fixup_memo_len() > 0,
            "{}: the walks never needed a fix-up",
            sample.label
        );
    }
}

#[test]
fn smoke_fixup_memo_matches_fresh_fixups() {
    run_fixup_walks(true, &[1, 2, 3, 4], 16);
}

#[test]
#[ignore = "full corpus sweep; run with --ignored (ci.sh does)"]
fn full_corpus_fixup_memo_matches_fresh_fixups() {
    run_fixup_walks(false, &[1, 2], 10);
}
