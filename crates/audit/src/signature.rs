//! Analyzer 1: resource-signature conformance (Table 1).
//!
//! For every corpus configuration, applies each primitive in its *pure*
//! form (no attached recompute fix-up, no relay bundling) and re-estimates
//! the result, then checks that the observed per-iteration change of
//! compute, communication, and memory on the target stage never *opposes*
//! a declared `Inc`/`Dec` arrow. `Same` arrows are not enforced: the paper
//! uses them for the dominant-effect view and secondary couplings (e.g.
//! recomputation re-running tensor-parallel collectives) legitimately
//! move those resources.
//!
//! In-place tp↔dp conversions emitted under the inc/dec-dp/tp primitives
//! are skipped: they bundle a `dec` of one mechanism with an `inc` of the
//! other (`primitives_applied == 2`), so the single-primitive arrows do
//! not apply to the composite.

use crate::corpus::CorpusSample;
use crate::report::{AuditFinding, AuditReport, Severity};
use aceso_core::primitives::{generate_with, GenOptions};
use aceso_core::{Primitive, Resource, Trend};
use aceso_perf::{ConfigEstimate, PerfModel};

/// The first resource a primitive's signature decreases — the bottleneck
/// resource under which the search would select it.
fn target_resource(prim: Primitive) -> Resource {
    for r in Resource::ALL {
        if prim.decreases(r) {
            return r;
        }
    }
    // Every Table-1 primitive decreases at least one resource; fall back
    // to compute for robustness.
    Resource::Compute
}

/// Per-iteration resource totals of one stage: compute seconds,
/// communication seconds, and memory bytes.
///
/// Communication counts the *stage-local* collectives (tensor-parallel
/// ops plus gradient sync), which is what the Table-1 arrows describe.
/// Boundary p2p is deliberately excluded: it is a pipeline-structure
/// cost shared with the neighbour stage, and its per-device volume
/// shrinks as the stage's concurrency grows — a secondary coupling that
/// would mask the declared collective-communication direction.
fn stage_resources(
    pm: &PerfModel,
    config: &aceso_config::ParallelConfig,
    est: &ConfigEstimate,
    stage: usize,
) -> (f64, f64, f64) {
    let sb = pm.stage_breakdown(config, stage);
    let n = est.num_microbatches as f64;
    (
        n * sb.comp_per_mb(),
        n * sb.comm_per_mb() + sb.dp_sync,
        est.stages[stage].mem_total as f64,
    )
}

/// Checks one observed delta against a declared arrow; returns a message
/// when the observation materially opposes the declaration.
fn check_arrow(name: &str, declared: Trend, before: f64, after: f64, eps: f64) -> Option<String> {
    let tol = eps * before.abs().max(after.abs()) + eps;
    match declared {
        Trend::Inc if after < before - tol => Some(format!(
            "declares Inc({name}) but observed {before:.6e} -> {after:.6e}"
        )),
        Trend::Dec if after > before + tol => Some(format!(
            "declares Dec({name}) but observed {before:.6e} -> {after:.6e}"
        )),
        _ => None,
    }
}

/// Runs the signature-conformance analyzer over one corpus sample.
pub fn audit_signatures(sample: &CorpusSample, eps: f64, report: &mut AuditReport) {
    let pm = PerfModel::new(&sample.model, &sample.cluster, &sample.db);
    let opts = GenOptions {
        attach_rc: false,
        relay_moves: false,
        enable_zero: true,
    };
    for (ci, config) in sample.configs.iter().enumerate() {
        let est = pm.evaluate_unchecked(config);
        for stage in 0..config.num_stages() {
            let before = stage_resources(&pm, config, &est, stage);
            for prim in Primitive::EXTENDED {
                let resource = target_resource(prim);
                for cand in generate_with(&pm, config, &est, prim, stage, resource, opts) {
                    let concurrency_prim = matches!(
                        prim,
                        Primitive::IncDp | Primitive::IncTp | Primitive::DecDp | Primitive::DecTp
                    );
                    let gpus_changed =
                        cand.config.stages()[stage].gpus != config.stages()[stage].gpus;
                    if concurrency_prim && !gpus_changed {
                        // In-place conversion: composite of two primitives,
                        // single-primitive arrows do not apply.
                        continue;
                    }
                    let cest = pm.evaluate_unchecked(&cand.config);
                    let after = stage_resources(&pm, &cand.config, &cest, stage);
                    let (d_comp, d_comm, d_mem) = prim.effects();
                    report.tick(3);
                    for msg in [
                        check_arrow("compute", d_comp, before.0, after.0, eps),
                        check_arrow("communication", d_comm, before.1, after.1, eps),
                        check_arrow("memory", d_mem, before.2, after.2, eps),
                    ]
                    .into_iter()
                    .flatten()
                    {
                        report.push(AuditFinding {
                            rule: "SIG-DIR",
                            severity: Severity::Error,
                            location: format!(
                                "{}#cfg{} stage {} {}",
                                sample.label,
                                ci,
                                stage,
                                prim.name()
                            ),
                            message: msg,
                            fingerprint: cand.config.semantic_hash(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_resource_picks_first_dec() {
        assert_eq!(target_resource(Primitive::IncDp), Resource::Compute);
        assert_eq!(target_resource(Primitive::IncRc), Resource::Memory);
        assert_eq!(target_resource(Primitive::DecTp), Resource::Communication);
        assert_eq!(target_resource(Primitive::IncZero), Resource::Memory);
    }

    #[test]
    fn arrow_check_tolerates_flat_and_flags_opposition() {
        // Flat observation never violates either arrow.
        assert!(check_arrow("compute", Trend::Inc, 1.0, 1.0, 1e-6).is_none());
        assert!(check_arrow("compute", Trend::Dec, 1.0, 1.0, 1e-6).is_none());
        // Material opposition is flagged.
        assert!(check_arrow("compute", Trend::Inc, 1.0, 0.5, 1e-6).is_some());
        assert!(check_arrow("compute", Trend::Dec, 1.0, 2.0, 1e-6).is_some());
        // Conforming movement passes.
        assert!(check_arrow("compute", Trend::Inc, 1.0, 2.0, 1e-6).is_none());
        // `Same` is never enforced.
        assert!(check_arrow("memory", Trend::Same, 1.0, 99.0, 1e-6).is_none());
    }
}
