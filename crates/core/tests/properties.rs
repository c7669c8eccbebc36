//! Property-style tests over the primitive candidate generator: seeded
//! random walks through configuration space, asserting that every
//! candidate `generate_with` emits — under every combination-feature
//! setting — passes full validation, conserves the GPU total, reports at
//! least one applied primitive, and differs from its input. This is the
//! executable twin of the `aceso-audit` transform analyzer, run from
//! random starting points instead of the fixed corpus. A second walk
//! checks what each candidate carries into the search (INV-SCORE-ONCE in
//! docs/SEARCH.md): its fingerprint and its fix-up estimate. A third
//! sweeps the audit corpus with primitive walks and checks INV-STAGE-HASH:
//! after every transform, primitive, fix-up, fine-tune and JSON round
//! trip, each cached stage hash equals a from-scratch
//! recomputation, and no two different configurations share a
//! fingerprint. A fourth checks that the search's top bottleneck
//! (`top_bottleneck`, which ranks only the first stage) is
//! `ranked_bottlenecks`' first entry, over corpus walks, on a device
//! small enough that stages go OOM, and on hand-built ties.

use aceso_audit::corpus::{corpus, CorpusSample};
use aceso_cluster::ClusterSpec;
use aceso_config::{balanced_init, validate::validate, ParallelConfig};
use aceso_core::bottleneck::{ranked_bottlenecks, top_bottleneck};
use aceso_core::finetune::fine_tune;
use aceso_core::primitives::{generate_with, rc_fixup, Candidate, GenOptions};
use aceso_core::transform::{self, Mechanism};
use aceso_core::{Primitive, Resource};
use aceso_model::{zoo, ModelGraph};
use aceso_perf::{CachedEvaluator, ConfigEstimate, Evaluator, PerfModel, StageEstimate};
use aceso_profile::ProfileDb;
use aceso_util::json::{FromJson, ToJson};
use aceso_util::SplitMix64;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// All §4.3 combination-feature settings the walk alternates between.
const GEN_OPTIONS: [GenOptions; 4] = [
    GenOptions {
        attach_rc: false,
        relay_moves: false,
        enable_zero: false,
    },
    GenOptions {
        attach_rc: true,
        relay_moves: false,
        enable_zero: false,
    },
    GenOptions {
        attach_rc: false,
        relay_moves: true,
        enable_zero: true,
    },
    GenOptions {
        attach_rc: true,
        relay_moves: true,
        enable_zero: true,
    },
];

/// One random walk: from a balanced init, repeatedly generate candidates
/// for a random (primitive, stage, resource), check them all, then step
/// to a random candidate.
fn walk(model: &ModelGraph, cluster: &ClusterSpec, p: usize, seed: u64, steps: usize) {
    let db = ProfileDb::build(model, cluster);
    let pm = PerfModel::new(model, cluster, &db);
    let mut rng = SplitMix64::new(seed);
    let mut config: ParallelConfig = match balanced_init(model, cluster, p) {
        Ok(c) => c,
        Err(_) => return, // stage count infeasible for this pair
    };

    for step in 0..steps {
        let est = pm.evaluate_unchecked(&config);
        let stage = rng.next_below(config.num_stages());
        let prim = *rng.choose(&Primitive::EXTENDED).expect("nonempty");
        let resource = *rng.choose(&Resource::ALL).expect("nonempty");
        let opts = *rng.choose(&GEN_OPTIONS).expect("nonempty");
        let input_hash = config.semantic_hash();
        let input_gpus = config.total_gpus();

        let candidates = generate_with(&pm, &config, &est, prim, stage, resource, opts);
        for cand in &candidates {
            let ctx = format!(
                "{} seed {seed} step {step}: {} on stage {stage} ({opts:?})",
                model.name,
                prim.name()
            );
            validate(&cand.config, model, cluster)
                .unwrap_or_else(|e| panic!("{ctx}: candidate fails validation: {e}"));
            assert_eq!(
                cand.config.total_gpus(),
                input_gpus,
                "{ctx}: candidate changed the GPU total"
            );
            assert!(
                cand.primitives_applied >= 1,
                "{ctx}: candidate reports zero applied primitives"
            );
            assert_ne!(
                cand.config.semantic_hash(),
                input_hash,
                "{ctx}: candidate is identical to its input"
            );
        }

        // Step somewhere new; if this primitive had no candidates, the
        // next loop iteration rolls a different one.
        if let Some(next) = rng.choose(&candidates) {
            config = next.config.clone();
        }
    }
}

#[test]
fn random_walks_only_generate_valid_candidates() {
    let cluster = ClusterSpec::v100(1, 8);
    let model = zoo::gpt3_custom("prop-gpt", 6, 512, 8, 256, 8192, 64);
    for seed in 0..6 {
        for p in [1, 2, 3] {
            walk(&model, &cluster, p, 0xACE5_0000 + seed, 24);
        }
    }
}

#[test]
fn random_walks_hold_on_heterogeneous_models() {
    let cluster = ClusterSpec::v100(1, 4);
    for (i, model) in [zoo::t5(zoo::T5Size::S0_77b), zoo::deepnet(8)]
        .into_iter()
        .enumerate()
    {
        for p in [2, 4] {
            walk(&model, &cluster, p, 0xBEEF + i as u64, 12);
        }
    }
}

/// Every combination of the three `GenOptions` toggles.
fn every_gen_option() -> impl Iterator<Item = GenOptions> {
    (0u8..8).map(|bits| GenOptions {
        attach_rc: bits & 1 != 0,
        relay_moves: bits & 2 != 0,
        enable_zero: bits & 4 != 0,
    })
}

/// Checks the candidates of one `attach_rc` generation step: a candidate
/// carries an estimate exactly when the fix-up left it unchanged. The
/// reference replays the fix-up on the raw candidates (the same step
/// with `attach_rc` off) and compares fingerprints before and after,
/// so it does not rely on the generator's own rewrite flag.
fn check_rewrite_flags(
    pm: &PerfModel<'_>,
    input: &ParallelConfig,
    raw: Vec<Candidate>,
    cands: &[Candidate],
    ctx: &str,
) {
    // Generation dedups by fixed fingerprint, keeping the first raw
    // candidate that produced it; the raw list keeps generation order.
    let mut first: HashMap<u64, bool> = HashMap::new();
    for r in raw {
        let (fixed, _) = rc_fixup(pm, r.config);
        first
            .entry(fixed.semantic_hash())
            .or_insert(fixed.semantic_hash() != r.fingerprint);
    }
    // The raw list drops candidates equal to the input, which the
    // attached generator still fixes up; where the input fixes up to a
    // new configuration, it may be that candidate's first producer.
    let (fixed_input, _) = rc_fixup(pm, input.clone());
    let input_produces = fixed_input.semantic_hash();
    for cand in cands {
        let rewritten = match first.get(&cand.fingerprint) {
            Some(&r) if cand.fingerprint == input_produces && !r => continue, // order unknown
            Some(&r) => r,
            None => {
                assert_eq!(
                    cand.fingerprint, input_produces,
                    "{ctx}: candidate has no raw producer"
                );
                true
            }
        };
        assert_eq!(
            cand.estimate.is_none(),
            rewritten,
            "{ctx}: carried estimate present iff the fix-up left the candidate unchanged"
        );
    }
}

/// One walk checking the data candidates carry, under every `GenOptions`
/// combination: the fingerprint is the configuration's semantic hash,
/// and a carried estimate is bit-identical to a from-scratch
/// evaluation. Generation scores through one long-lived memoizing
/// evaluator, the way the search does.
fn carried_walk(model: &ModelGraph, cluster: &ClusterSpec, p: usize, seed: u64, steps: usize) {
    let db = ProfileDb::build(model, cluster);
    let pm = PerfModel::new(model, cluster, &db);
    let ev = CachedEvaluator::new(PerfModel::new(model, cluster, &db));
    let mut rng = SplitMix64::new(seed);
    let Ok(mut config) = balanced_init(model, cluster, p) else {
        return; // stage count infeasible for this pair
    };

    for step in 0..steps {
        let est = ev.evaluate_unchecked(&config);
        let stage = rng.next_below(config.num_stages());
        let prim = *rng.choose(&Primitive::EXTENDED).expect("nonempty");
        let resource = *rng.choose(&Resource::ALL).expect("nonempty");
        let mut next = Vec::new();
        for opts in every_gen_option() {
            let ctx = format!(
                "{} seed {seed} step {step}: {} on stage {stage} ({opts:?})",
                model.name,
                prim.name()
            );
            let cands = generate_with(&ev, &config, &est, prim, stage, resource, opts);
            for cand in &cands {
                assert_eq!(
                    cand.fingerprint,
                    cand.config.semantic_hash(),
                    "{ctx}: carried fingerprint is not the configuration's hash"
                );
                if let Some(carried) = &cand.estimate {
                    assert!(
                        carried.bit_identical(&pm.evaluate_unchecked(&cand.config)),
                        "{ctx}: carried estimate differs from a fresh evaluation"
                    );
                }
            }
            if opts.attach_rc {
                let raw_opts = GenOptions {
                    attach_rc: false,
                    ..opts
                };
                let raw = generate_with(&ev, &config, &est, prim, stage, resource, raw_opts);
                check_rewrite_flags(&pm, &config, raw, &cands, &ctx);
            } else {
                assert!(
                    cands.iter().all(|c| c.estimate.is_none()),
                    "{ctx}: no fix-up ran, so no estimate can be carried"
                );
            }
            next = cands;
        }
        if let Some(c) = rng.choose(&next) {
            config = c.config.clone();
        }
    }
}

#[test]
fn candidates_carry_their_fingerprint_and_fixup_estimate() {
    let cluster = ClusterSpec::v100(1, 8);
    let model = zoo::gpt3_custom("prop-gpt", 6, 512, 8, 256, 8192, 64);
    for seed in 0..4 {
        for p in [1, 2, 3] {
            carried_walk(&model, &cluster, p, 0xCA77_0000 + seed, 16);
        }
    }
    let cluster = ClusterSpec::v100(1, 4);
    for (i, model) in [zoo::t5(zoo::T5Size::S0_77b), zoo::deepnet(8)]
        .into_iter()
        .enumerate()
    {
        for p in [2, 4] {
            carried_walk(&model, &cluster, p, 0xCA77_BEEF + i as u64, 10);
        }
    }
    // Memory-tight: many raw candidates leave a stage OOM, so the fix-up
    // rewrites them.
    let cluster = ClusterSpec::v100(1, 2);
    let model = zoo::gpt3_custom("prop-gpt-tight", 32, 2048, 16, 2048, 51200, 64);
    for seed in 0..3 {
        for p in [1, 2] {
            carried_walk(&model, &cluster, p, 0xCA77_0DD0 + seed, 24);
        }
    }
}

/// Fingerprints seen so far, each with the configuration that first had
/// it.
type Seen = HashMap<u64, ParallelConfig>;

/// Panics unless every cached stage hash of `config` equals a
/// from-scratch recomputation (INV-STAGE-HASH), or when a structurally
/// different configuration already holds its fingerprint.
fn check_stage_hashes(config: &ParallelConfig, seen: &mut Seen, ctx: &str) {
    for (i, s) in config.stages().iter().enumerate() {
        assert_eq!(
            s.content_hash(),
            s.compute_content_hash(),
            "{ctx}: stage {i}'s cached hash is stale"
        );
    }
    let fingerprint = config.semantic_hash();
    match seen.entry(fingerprint) {
        Entry::Occupied(e) => assert!(
            e.get() == config,
            "{ctx}: two different configurations share fingerprint {fingerprint:#x}"
        ),
        Entry::Vacant(e) => {
            e.insert(config.clone());
        }
    }
}

/// Every public transform applied to `stage` of `config`.
fn every_transform(
    model: &ModelGraph,
    config: &ParallelConfig,
    stage: usize,
) -> Vec<ParallelConfig> {
    let others: Vec<usize> = (0..config.num_stages()).filter(|&s| s != stage).collect();
    let half = config.stages()[stage].num_ops() / 2;
    [
        transform::move_ops(model, config, stage, stage + 1, 1),
        stage
            .checked_sub(1)
            .and_then(|to| transform::move_ops(model, config, stage, to, 2)),
        transform::grow_stage(model, config, stage, Mechanism::Dp, &others),
        transform::grow_stage(model, config, stage, Mechanism::Tp, &others),
        transform::shrink_stage(model, config, stage, &others, Mechanism::Dp),
        transform::convert_stage(model, config, stage, Mechanism::Tp),
        transform::convert_stage(model, config, stage, Mechanism::Dp),
        transform::convert_suffix(model, config, stage, half, Mechanism::Tp),
        transform::scale_microbatch(model, config, true),
        transform::scale_microbatch(model, config, false),
        transform::recompute_largest(model, config, stage, 1),
        transform::uncompute_smallest(model, config, stage, usize::MAX),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// One primitive walk over a corpus sample, checking INV-STAGE-HASH on
/// everything each step builds. Transforms copy on write, so the input
/// must come out of each step with the fingerprint it went in with.
fn stage_hash_walk(sample: &CorpusSample, start: &ParallelConfig, seed: u64, seen: &mut Seen) {
    let model = &sample.model;
    let pm = PerfModel::new(model, &sample.cluster, &sample.db);
    let mut rng = SplitMix64::new(seed);
    let mut config = start.clone();
    check_stage_hashes(&config, seen, &sample.label);
    for step in 0..8 {
        let ctx = format!("{} seed {seed:#x} step {step}", sample.label);
        let input = config.semantic_hash();
        let stage = rng.next_below(config.num_stages());
        for c in every_transform(model, &config, stage) {
            check_stage_hashes(&c, seen, &format!("{ctx}: transform"));
        }
        let est = pm.evaluate_unchecked(&config);
        let prim = *rng.choose(&Primitive::EXTENDED).expect("nonempty");
        let resource = *rng.choose(&Resource::ALL).expect("nonempty");
        let opts = *rng.choose(&GEN_OPTIONS).expect("nonempty");
        let cands = generate_with(&pm, &config, &est, prim, stage, resource, opts);
        for cand in &cands {
            let ctx = format!("{ctx}: {}", prim.name());
            check_stage_hashes(&cand.config, seen, &ctx);
            let (fixed, _) = rc_fixup(&pm, cand.config.clone());
            check_stage_hashes(&fixed, seen, &format!("{ctx} + fix-up"));
            let decoded = ParallelConfig::from_json_value(&cand.config.to_json_value())
                .expect("a configuration decodes from its own JSON");
            assert_eq!(decoded, cand.config, "{ctx}: JSON round trip");
            check_stage_hashes(&decoded, seen, &format!("{ctx} via JSON"));
        }
        if step % 4 == 3 {
            let (tuned, _) = fine_tune(&pm, config.clone());
            check_stage_hashes(&tuned, seen, &format!("{ctx}: fine-tune"));
        }
        assert_eq!(config.semantic_hash(), input, "{ctx}: the input changed");
        check_stage_hashes(&config, seen, &ctx);
        if let Some(next) = rng.choose(&cands) {
            config = next.config.clone();
        }
    }
}

#[test]
fn stage_hashes_stay_fresh_and_fingerprints_stay_distinct() {
    let mut seen = Seen::new();
    for (i, sample) in corpus(false).iter().enumerate() {
        for (j, start) in sample.configs.iter().enumerate() {
            stage_hash_walk(sample, start, 0x57A6_E000 + (i * 16 + j) as u64, &mut seen);
        }
    }
    assert!(
        seen.len() > 1000,
        "only {} configurations checked",
        seen.len()
    );
}

/// Asserts that the top bottleneck of `est` is `ranked_bottlenecks`'
/// first entry, resources included.
fn check_top_bottleneck(est: &ConfigEstimate, ctx: &str) {
    assert_eq!(
        top_bottleneck(est),
        ranked_bottlenecks(est).into_iter().next(),
        "{ctx}"
    );
}

/// `sample`'s cluster with each device holding only the median stage
/// memory of its corpus configurations, so about half the stages of a
/// walk are out of memory.
fn shrunk_cluster(sample: &CorpusSample) -> ClusterSpec {
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

#[test]
fn the_top_bottleneck_is_the_first_ranked_one() {
    let (mut checked, mut oom) = (0usize, 0usize);
    for (i, sample) in corpus(false).iter().enumerate() {
        for cluster in [sample.cluster.clone(), shrunk_cluster(sample)] {
            let pm = PerfModel::new(&sample.model, &cluster, &sample.db);
            for (j, start) in sample.configs.iter().enumerate() {
                let seed = 0x70B0_0000 + (i * 16 + j) as u64;
                let mut rng = SplitMix64::new(seed);
                let mut config = start.clone();
                for step in 0..8 {
                    let ctx = format!("{} seed {seed:#x} step {step}", sample.label);
                    let est = pm.evaluate_unchecked(&config);
                    check_top_bottleneck(&est, &ctx);
                    checked += 1;
                    oom += usize::from(est.oom());
                    let stage = rng.next_below(config.num_stages());
                    let prim = *rng.choose(&Primitive::ALL).expect("nonempty");
                    let resource = *rng.choose(&Resource::ALL).expect("nonempty");
                    let opts = *rng.choose(&GEN_OPTIONS).expect("nonempty");
                    let cands = generate_with(&pm, &config, &est, prim, stage, resource, opts);
                    for cand in &cands {
                        let cest = pm.evaluate_unchecked(&cand.config);
                        check_top_bottleneck(&cest, &format!("{ctx}: {}", prim.name()));
                        checked += 1;
                        oom += usize::from(cest.oom());
                    }
                    if let Some(next) = rng.choose(&cands) {
                        config = next.config.clone();
                    }
                }
            }
        }
    }
    assert!(
        oom > 100 && checked - oom > 100,
        "{checked} estimates checked, {oom} of them OOM"
    );
}

#[test]
fn the_top_bottleneck_breaks_ties_by_lowest_stage() {
    let stage = |time: f64, mem: u64| StageEstimate {
        comp_fwd: time / 3.0,
        comp_bwd: 2.0 * time / 3.0,
        comm_fwd: 0.0,
        comm_bwd: 0.0,
        dp_sync: 0.0,
        mem_params: 0,
        mem_opt: 0,
        mem_act_per_mb: 0,
        in_flight: 1,
        mem_reserved: 0,
        mem_total: mem,
        stage_time: time,
    };
    let estimate = |stages: Vec<StageEstimate>, capacity: u64| {
        let max_memory = stages.iter().map(|s| s.mem_total).max().unwrap_or(0);
        ConfigEstimate {
            num_microbatches: 4,
            iteration_time: stages.iter().map(|s| s.stage_time).fold(0.0, f64::max),
            slowest_stage: 0,
            max_memory,
            max_memory_stage: 0,
            mem_capacity: capacity,
            stages,
        }
    };
    let cases = [
        // Equal stage times: the lower index ranks first.
        (vec![stage(1.0, 5), stage(3.0, 5), stage(3.0, 5)], 10, 1),
        (vec![stage(2.0, 5), stage(2.0, 5), stage(2.0, 5)], 10, 0),
        // Out of memory: equal `mem_total` ties the same way, whatever
        // the stage times.
        (vec![stage(1.0, 30), stage(9.0, 10), stage(1.0, 30)], 20, 0),
        (vec![stage(1.0, 10), stage(9.0, 30), stage(1.0, 30)], 20, 1),
        (vec![stage(1.0, 25), stage(9.0, 25), stage(5.0, 25)], 20, 0),
        // One stage.
        (vec![stage(1.0, 30)], 20, 0),
    ];
    for (i, (stages, capacity, want)) in cases.into_iter().enumerate() {
        let est = estimate(stages, capacity);
        check_top_bottleneck(&est, &format!("case {i}"));
        assert_eq!(
            top_bottleneck(&est).expect("stages").stage,
            want,
            "case {i}"
        );
    }
    assert_eq!(top_bottleneck(&estimate(Vec::new(), 1)), None);
}
