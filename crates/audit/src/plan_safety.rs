//! Analyzer 5: static plan-safety proofs.
//!
//! The search promises that any configuration it emits fits the cluster.
//! This analyzer discharges that promise *statically*: it recomputes the
//! closed-form Eq. 1 peak-memory bound from first principles for every
//! corpus configuration (plus a seeded primitive walk, so search-shaped
//! configurations are covered, not just balanced inits), proves the bound
//! dominates the discrete-event simulator's measured peak under both
//! pipeline schedules, and checks that device assignment and every
//! stage-boundary resharding transition are legal.
//!
//! Rules:
//!
//! * `PLAN-EQ1` — the analyzer's independent Eq. 1 reassembly
//!   (`params + opt + act·(p−i) + reserved`) must equal the estimate's
//!   `mem_total` bit-for-bit; `in_flight` must equal `p − i`.
//! * `PLAN-MEM` — the static per-stage bound must be ≥ the simulator's
//!   measured per-stage peak for 1F1B, and the GPipe variant of the
//!   bound (`in_flight = n`, activations inflated by the allocator's
//!   worst-case fragmentation) must dominate the GPipe measurement.
//!   This is the differential proof that Eq. 1 is a true upper bound,
//!   not merely an estimate.
//! * `PLAN-FIT` — the estimate's OOM verdict must be exactly
//!   `max_memory > capacity` against the real device capacity, and
//!   `max_memory` must be achieved by some stage.
//! * `PLAN-DEV` — stage device ranges must contiguously partition
//!   `[0, cluster)`; every op's `tp·dp` must equal its stage's GPU count,
//!   `tp` must respect the operator's divisibility limit and `dim_index`
//!   must name a real partition dimension.
//! * `PLAN-RESHARD` — at every stage boundary the producing and the
//!   consuming data-parallel degrees must both divide the microbatch, so
//!   the boundary tensor can be redistributed without remainder.

use crate::corpus::{primitive_walk, CorpusSample};
use crate::report::{AuditFinding, AuditReport, Severity};
use crate::Mutation;
use aceso_config::ParallelConfig;
use aceso_perf::PerfModel;
use aceso_runtime::memory::WORST_CASE_FRAG;
use aceso_runtime::schedule::PipelineSchedule;
use aceso_runtime::{SimOptions, Simulator};

/// Walk length appended to each sample's fixed configurations.
fn walk_steps(smoke: bool) -> usize {
    if smoke {
        4
    } else {
        8
    }
}

/// Runs the plan-safety analyzer over one corpus sample.
///
/// `mutation` seeds the analyzer's own Eq. 1 reassembly with an
/// off-by-one in-flight count when set to [`Mutation::MemBound`] — the
/// mutation gate proving the bit-exact identity check has teeth.
pub fn audit_plan_safety(
    sample: &CorpusSample,
    smoke: bool,
    mutation: Option<Mutation>,
    report: &mut AuditReport,
) {
    let pm = PerfModel::new(&sample.model, &sample.cluster, &sample.db);
    let mut configs: Vec<ParallelConfig> = sample.configs.clone();
    configs.extend(
        primitive_walk(sample, &sample.configs[0], 0x9147_5AFE, walk_steps(smoke))
            .into_iter()
            .skip(1),
    );

    let sim_1f1b = Simulator::with_defaults(&sample.model, &sample.cluster, &sample.db);
    let sim_gpipe = Simulator::new(
        &sample.model,
        &sample.cluster,
        &sample.db,
        SimOptions {
            schedule: PipelineSchedule::GPipe,
            ..SimOptions::default()
        },
    );

    for (ci, config) in configs.iter().enumerate() {
        let est = pm.evaluate_unchecked(config);
        let p = config.num_stages();
        let n = config.num_microbatches(sample.model.global_batch).max(1);
        let fp = config.semantic_hash();
        let loc = |stage: usize| format!("{}#plan{} stage {}", sample.label, ci, stage);
        let whole = format!("{}#plan{}", sample.label, ci);
        let mk = |rule: &'static str, location: String, message: String| AuditFinding {
            rule,
            severity: Severity::Error,
            location,
            message,
            fingerprint: fp,
        };

        // --- PLAN-EQ1: independent closed-form reassembly -------------
        let mut static_1f1b = Vec::with_capacity(p);
        let mut static_gpipe = Vec::with_capacity(p);
        for (i, s) in est.stages.iter().enumerate() {
            let mut in_flight = p - i;
            if mutation == Some(Mutation::MemBound) {
                // Seeded injection: an off-by-one in the in-flight count
                // shrinks the bound by one activation stash.
                in_flight = in_flight.saturating_sub(1);
            }
            report.tick(2);
            if s.in_flight != in_flight {
                report.push(mk(
                    "PLAN-EQ1",
                    loc(i),
                    format!(
                        "in_flight {} != 1F1B depth p - i = {in_flight}",
                        s.in_flight
                    ),
                ));
            }
            let bound =
                s.mem_params + s.mem_opt + s.mem_act_per_mb * in_flight as u64 + s.mem_reserved;
            if bound != s.mem_total {
                report.push(mk(
                    "PLAN-EQ1",
                    loc(i),
                    format!(
                        "Eq.1 reassembly {bound} != estimate mem_total {}",
                        s.mem_total
                    ),
                ));
            }
            static_1f1b.push(bound);
            // GPipe stashes every microbatch, so the activation term can
            // dwarf the Eq. 1 reserve slack; the sound closed-form bound
            // inflates it by the allocator's worst-case fragmentation.
            let gpipe_act = (s.mem_act_per_mb as f64 * n as f64 * WORST_CASE_FRAG).ceil() as u64;
            static_gpipe.push(s.mem_params + s.mem_opt + gpipe_act + s.mem_reserved);
        }

        // --- PLAN-MEM: static bound dominates the simulator -----------
        for (schedule, sim, bounds) in [
            ("1f1b", &sim_1f1b, &static_1f1b),
            ("gpipe", &sim_gpipe, &static_gpipe),
        ] {
            match sim.execute(config) {
                Ok(r) => {
                    for (i, (&bound, &actual)) in
                        bounds.iter().zip(&r.peak_memory_per_stage).enumerate()
                    {
                        report.tick(1);
                        if bound < actual {
                            report.push(mk(
                                "PLAN-MEM",
                                loc(i),
                                format!(
                                    "static {schedule} bound {bound} < simulated peak {actual}"
                                ),
                            ));
                        }
                    }
                }
                Err(e) => report.push(mk(
                    "PLAN-MEM",
                    whole.clone(),
                    format!("{schedule} simulation rejected an audited config: {e}"),
                )),
            }
        }

        // --- PLAN-FIT: OOM verdict against the real capacity ----------
        report.tick(3);
        let capacity = sample.cluster.device.mem_bytes;
        if est.mem_capacity != capacity {
            report.push(mk(
                "PLAN-FIT",
                whole.clone(),
                format!(
                    "estimate capacity {} != device capacity {capacity}",
                    est.mem_capacity
                ),
            ));
        }
        if est.oom() != (est.max_memory > capacity) {
            report.push(mk(
                "PLAN-FIT",
                whole.clone(),
                format!(
                    "oom verdict {} inconsistent with max_memory {} vs capacity {capacity}",
                    est.oom(),
                    est.max_memory
                ),
            ));
        }
        if est.stages.iter().all(|s| s.mem_total != est.max_memory) {
            report.push(mk(
                "PLAN-FIT",
                whole.clone(),
                format!("max_memory {} achieved by no stage", est.max_memory),
            ));
        }

        // --- PLAN-DEV: device assignment partitions the cluster -------
        let mut next_device = 0usize;
        for (i, s) in config.stages().iter().enumerate() {
            let range = config.device_range(i);
            report.tick(2);
            if range.start != next_device || range.len != s.gpus || s.gpus == 0 {
                report.push(mk(
                    "PLAN-DEV",
                    loc(i),
                    format!(
                        "device range [{}, {}) breaks the contiguous partition at {next_device}",
                        range.start,
                        range.end()
                    ),
                ));
            }
            next_device = range.end();
            for (j, op) in s.ops.iter().enumerate() {
                let model_op = &sample.model.ops[s.op_start + j];
                report.tick(3);
                if op.gpus() as usize != s.gpus {
                    report.push(mk(
                        "PLAN-DEV",
                        loc(i),
                        format!("op {j}: tp*dp = {} != stage gpus {}", op.gpus(), s.gpus),
                    ));
                }
                if op.tp > model_op.tp_limit {
                    report.push(mk(
                        "PLAN-DEV",
                        loc(i),
                        format!("op {j}: tp {} over limit {}", op.tp, model_op.tp_limit),
                    ));
                }
                if usize::from(op.dim_index) >= model_op.partitions.len() {
                    report.push(mk(
                        "PLAN-DEV",
                        loc(i),
                        format!("op {j}: dim_index {} out of range", op.dim_index),
                    ));
                }
            }
        }
        report.tick(1);
        if next_device != sample.cluster.total_gpus() {
            report.push(mk(
                "PLAN-DEV",
                whole.clone(),
                format!(
                    "stages cover {next_device} devices, cluster has {}",
                    sample.cluster.total_gpus()
                ),
            ));
        }

        // --- PLAN-RESHARD: boundary transitions are legal -------------
        report.tick(1);
        if config.microbatch == 0
            || !sample
                .model
                .global_batch
                .is_multiple_of(config.microbatch.max(1))
        {
            report.push(mk(
                "PLAN-RESHARD",
                whole.clone(),
                format!("microbatch {} does not divide the batch", config.microbatch),
            ));
        }
        for i in 0..p.saturating_sub(1) {
            let produce = config.stages()[i].ops.last();
            let consume = config.stages()[i + 1].ops.first();
            let (Some(produce), Some(consume)) = (produce, consume) else {
                report.push(mk("PLAN-RESHARD", loc(i), "empty stage at boundary".into()));
                continue;
            };
            report.tick(2);
            if !config.microbatch.is_multiple_of(produce.dp as usize) {
                report.push(mk(
                    "PLAN-RESHARD",
                    loc(i),
                    format!(
                        "producing dp {} does not divide microbatch {}",
                        produce.dp, config.microbatch
                    ),
                ));
            }
            if !config.microbatch.is_multiple_of(consume.dp as usize) {
                report.push(mk(
                    "PLAN-RESHARD",
                    loc(i),
                    format!(
                        "consuming dp {} does not divide microbatch {}",
                        consume.dp, config.microbatch
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::corpus;

    #[test]
    fn smoke_plan_safety_is_clean() {
        let mut report = AuditReport::default();
        for sample in corpus(true) {
            audit_plan_safety(&sample, true, None, &mut report);
        }
        assert!(report.checks_run > 0);
        assert!(report.clean(), "plan safety violated:\n{}", report.render());
    }

    #[test]
    fn static_bound_dominates_simulation_differentially() {
        // The differential proof: for every corpus config under both
        // schedules, the closed-form bound is ≥ the measured peak. A
        // clean PLAN-MEM pass over the smoke corpus *is* the proof for
        // that slice; this test additionally pins that the comparison
        // actually ran (a silently-skipped sweep would also be "clean").
        let mut report = AuditReport::default();
        let samples = corpus(true);
        for sample in &samples {
            audit_plan_safety(sample, true, None, &mut report);
        }
        let min_mem_checks: usize = samples
            .iter()
            .map(|s| 2 * s.configs.iter().map(|c| c.num_stages()).sum::<usize>())
            .sum();
        assert!(
            report.checks_run >= min_mem_checks,
            "expected at least {min_mem_checks} checks, ran {}",
            report.checks_run
        );
        assert!(report.clean(), "{}", report.render());
    }

    #[test]
    fn mem_bound_mutation_is_caught() {
        let mut report = AuditReport::default();
        let samples = corpus(true);
        audit_plan_safety(&samples[0], true, Some(Mutation::MemBound), &mut report);
        assert!(!report.clean(), "mutation must be caught");
        assert!(
            report.findings.iter().any(|f| f.rule == "PLAN-EQ1"),
            "expected a PLAN-EQ1 finding:\n{}",
            report.render()
        );
    }
}
