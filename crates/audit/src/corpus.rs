//! The audit corpus: model-zoo × cluster-preset × configuration samples.
//!
//! Every analyzer sweeps the same corpus, so one invocation proves the
//! invariants over a representative slice of the search space rather than
//! a single hand-picked configuration. The corpus is fully deterministic.

use aceso_cluster::ClusterSpec;
use aceso_config::{balanced_init, ParallelConfig};
use aceso_core::primitives::{generate_with, GenOptions};
use aceso_core::{Primitive, Resource};
use aceso_model::{zoo, ModelGraph};
use aceso_perf::PerfModel;
use aceso_profile::ProfileDb;
use aceso_util::SplitMix64;

/// One (model, cluster) pair plus the starting configurations to audit.
pub struct CorpusSample {
    /// The model.
    pub model: ModelGraph,
    /// The cluster preset.
    pub cluster: ClusterSpec,
    /// Profile database for the pair (built once, shared by analyzers).
    pub db: ProfileDb,
    /// Stable sample label, e.g. `gpt3-0.35b/v100-1x8`.
    pub label: String,
    /// Valid starting configurations (balanced inits plus variants).
    pub configs: Vec<ParallelConfig>,
}

/// Cluster presets swept by the audit.
fn cluster_presets() -> Vec<(ClusterSpec, &'static str)> {
    vec![
        (ClusterSpec::v100(1, 4), "v100-1x4"),
        (ClusterSpec::v100(1, 8), "v100-1x8"),
    ]
}

/// Model-zoo entries swept by the audit. `smoke` keeps only a small custom
/// model so the CI smoke run finishes in seconds.
fn zoo_models(smoke: bool) -> Vec<ModelGraph> {
    if smoke {
        return vec![zoo::gpt3_custom("audit-gpt", 4, 512, 8, 256, 8192, 64)];
    }
    vec![
        zoo::gpt3(zoo::Gpt3Size::S0_35b),
        zoo::t5(zoo::T5Size::S0_77b),
        zoo::wide_resnet(zoo::WideResnetSize::S0_5b),
        zoo::deepnet(12),
    ]
}

/// Deterministic configuration variants of one balanced init: microbatch
/// scaled up, everything recomputed, and ZeRO on every shardable op. Only
/// variants that validate are kept.
fn variants(
    model: &ModelGraph,
    cluster: &ClusterSpec,
    base: &ParallelConfig,
) -> Vec<ParallelConfig> {
    let mut out = vec![base.clone()];

    let mut bigger_mb = base.clone();
    bigger_mb.microbatch *= 2;
    out.push(bigger_mb);

    let mut recomputed = base.clone();
    for mut s in recomputed.stages_mut() {
        for o in &mut s.ops {
            o.recompute = true;
        }
    }
    out.push(recomputed);

    let mut zeroed = base.clone();
    let mut any = false;
    for mut s in zeroed.stages_mut() {
        for o in &mut s.ops {
            if o.dp > 1 {
                o.zero = true;
                any = true;
            }
        }
    }
    if any {
        out.push(zeroed);
    }

    out.retain(|c| aceso_config::validate::validate(c, model, cluster).is_ok());
    out
}

/// Builds the audit corpus. Full mode sweeps 4 zoo models × 2 cluster
/// presets; smoke mode keeps one small model for fast CI checks.
pub fn corpus(smoke: bool) -> Vec<CorpusSample> {
    let mut samples = Vec::new();
    for model in zoo_models(smoke) {
        for (cluster, cname) in cluster_presets() {
            let stage_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };
            let mut configs = Vec::new();
            for &p in stage_counts {
                if p > cluster.total_gpus() || p > model.len() / 2 {
                    continue;
                }
                if let Ok(base) = balanced_init(&model, &cluster, p) {
                    configs.extend(variants(&model, &cluster, &base));
                }
            }
            if configs.is_empty() {
                continue;
            }
            let db = ProfileDb::build(&model, &cluster);
            samples.push(CorpusSample {
                label: format!("{}/{}", model.name, cname),
                model: model.clone(),
                cluster,
                db,
                configs,
            });
        }
    }
    samples
}

/// A seeded random primitive walk from `start`: at each step, candidates
/// are generated for a random (primitive, stage, resource) triple and a
/// random candidate becomes the next configuration. Returns every
/// configuration visited, `start` first — all structurally valid by the
/// generator's invariants.
///
/// This is the walk the differential perf-equivalence suite replays: the
/// same sampler the transform analyzer audits, reused as a source of
/// realistic search-shaped configuration sequences.
pub fn primitive_walk(
    sample: &CorpusSample,
    start: &ParallelConfig,
    seed: u64,
    steps: usize,
) -> Vec<ParallelConfig> {
    let pm = PerfModel::new(&sample.model, &sample.cluster, &sample.db);
    let mut rng = SplitMix64::new(seed);
    let mut config = start.clone();
    let mut visited = vec![config.clone()];
    for _ in 0..steps {
        let est = pm.evaluate_unchecked(&config);
        let stage = rng.next_below(config.num_stages());
        let prim = *rng.choose(&Primitive::EXTENDED).expect("nonempty");
        let resource = *rng.choose(&Resource::ALL).expect("nonempty");
        let candidates = generate_with(
            &pm,
            &config,
            &est,
            prim,
            stage,
            resource,
            GenOptions::default(),
        );
        if let Some(next) = rng.choose(&candidates) {
            config = next.config.clone();
            visited.push(config.clone());
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_corpus_is_small_and_valid() {
        let samples = corpus(true);
        assert_eq!(samples.len(), 2); // 1 model × 2 cluster presets
        for s in &samples {
            assert!(!s.configs.is_empty());
            for c in &s.configs {
                assert!(aceso_config::validate::validate(c, &s.model, &s.cluster).is_ok());
            }
        }
    }

    #[test]
    fn full_corpus_covers_zoo_and_presets() {
        // 4 zoo models × 2 presets (model construction only — no profile
        // builds beyond what the samples need).
        let samples = corpus(false);
        assert!(samples.len() >= 6, "got {} samples", samples.len());
        let labels: Vec<&str> = samples.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.contains("v100-1x4")));
        assert!(labels.iter().any(|l| l.contains("v100-1x8")));
    }

    #[test]
    fn primitive_walk_is_deterministic_and_valid() {
        let samples = corpus(true);
        let s = &samples[0];
        let a = primitive_walk(s, &s.configs[0], 7, 6);
        let b = primitive_walk(s, &s.configs[0], 7, 6);
        assert!(a.len() > 1, "walk must make progress");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.semantic_hash(), y.semantic_hash());
        }
        for c in &a {
            assert!(aceso_config::validate::validate(c, &s.model, &s.cluster).is_ok());
        }
    }
}
