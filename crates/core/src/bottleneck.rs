//! Bottleneck identification (paper §3.1, Heuristic-1) and resource
//! ranking (first half of Heuristic-2).

use crate::primitives::Resource;
use aceso_perf::ConfigEstimate;

/// One identified bottleneck: a stage plus the resources to alleviate, in
/// exploration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Bottleneck {
    /// Stage index.
    pub stage: usize,
    /// Resources ranked by Heuristic-2's highest-consumption-proportion
    /// rule (memory forced first when the stage is over capacity).
    pub resources: Vec<Resource>,
}

/// Ranks candidate bottlenecks for a configuration (Heuristic-1).
///
/// * When any stage is out of memory, stages are ordered by memory
///   consumption, largest first ("safety first").
/// * Otherwise stages are ordered by per-stage iteration time, longest
///   first.
///
/// The first entry is the top-priority bottleneck; later entries are the
/// secondary bottlenecks the search falls back to when a multi-hop from
/// the top one fails (§3.2.3).
pub fn ranked_bottlenecks(est: &ConfigEstimate) -> Vec<Bottleneck> {
    bottleneck_order(est)
        .into_iter()
        .map(|stage| Bottleneck {
            stage,
            resources: ranked_resources(est, stage),
        })
        .collect()
}

/// The stages of [`ranked_bottlenecks`], in its order, without their
/// resources: a caller that tries only the first few ranks only those.
pub(crate) fn bottleneck_order(est: &ConfigEstimate) -> Vec<usize> {
    let mut order: Vec<usize> = (0..est.stages.len()).collect();
    // Stable: equal stages keep index order.
    order.sort_by(|&a, &b| rank(est, a, b));
    order
}

/// The first entry of [`ranked_bottlenecks`], ranking no other stage:
/// among the stages that rank first, the lowest index, as the stable
/// sort leaves it. `None` for an estimate without stages.
pub fn top_bottleneck(est: &ConfigEstimate) -> Option<Bottleneck> {
    // `min_by` returns the first of equally minimal elements.
    let stage = (0..est.stages.len()).min_by(|&a, &b| rank(est, a, b))?;
    Some(Bottleneck {
        stage,
        resources: ranked_resources(est, stage),
    })
}

/// Heuristic-1's comparator: `Less` when stage `a` is the more urgent
/// bottleneck.
fn rank(est: &ConfigEstimate, a: usize, b: usize) -> std::cmp::Ordering {
    let (sa, sb) = (&est.stages[a], &est.stages[b]);
    if est.oom() {
        sb.mem_total.cmp(&sa.mem_total)
    } else {
        let ta = sa.stage_time + sa.dp_sync;
        let tb = sb.stage_time + sb.dp_sync;
        tb.partial_cmp(&ta).unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Orders the resources of one stage by consumption proportion: the
/// stage's share of the cluster-wide consumption of each resource
/// (Heuristic-2's highest-consumption-first rule). Memory is forced to the
/// front when the stage exceeds device capacity and dropped otherwise —
/// memory that fits is not a bottleneck.
pub fn ranked_resources(est: &ConfigEstimate, stage: usize) -> Vec<Resource> {
    let total_comp: f64 = est.stages.iter().map(|s| s.comp_per_mb()).sum();
    let total_comm: f64 = est.stages.iter().map(|s| s.comm_per_mb() + s.dp_sync).sum();
    let s = &est.stages[stage];
    let frac = |x: f64, total: f64| if total > 0.0 { x / total } else { 0.0 };
    let comp_frac = frac(s.comp_per_mb(), total_comp);
    let comm_frac = frac(s.comm_per_mb() + s.dp_sync, total_comm);

    let mut out = Vec::with_capacity(3);
    if s.mem_total > est.mem_capacity {
        out.push(Resource::Memory);
    }
    // Largest share first; a tie (or NaN) keeps compute first.
    if comm_frac.partial_cmp(&comp_frac) == Some(std::cmp::Ordering::Greater) {
        out.extend([Resource::Communication, Resource::Compute]);
    } else {
        out.extend([Resource::Compute, Resource::Communication]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_perf::StageEstimate;

    fn stage(comp: f64, comm: f64, mem: u64) -> StageEstimate {
        StageEstimate {
            comp_fwd: comp / 3.0,
            comp_bwd: 2.0 * comp / 3.0,
            comm_fwd: comm / 2.0,
            comm_bwd: comm / 2.0,
            dp_sync: 0.0,
            mem_params: 0,
            mem_opt: 0,
            mem_act_per_mb: 0,
            in_flight: 1,
            mem_reserved: 0,
            mem_total: mem,
            stage_time: comp + comm,
        }
    }

    fn estimate(stages: Vec<StageEstimate>, cap: u64) -> ConfigEstimate {
        let (mut it, mut slow, mut mm, mut ms) = (0.0f64, 0, 0u64, 0);
        for (i, s) in stages.iter().enumerate() {
            if s.stage_time > it {
                it = s.stage_time;
                slow = i;
            }
            if s.mem_total > mm {
                mm = s.mem_total;
                ms = i;
            }
        }
        ConfigEstimate {
            stages,
            num_microbatches: 4,
            iteration_time: it,
            slowest_stage: slow,
            max_memory: mm,
            max_memory_stage: ms,
            mem_capacity: cap,
        }
    }

    #[test]
    fn oom_prioritises_memory_heavy_stage() {
        let est = estimate(
            vec![
                stage(5.0, 1.0, 10),
                stage(1.0, 0.2, 30),
                stage(2.0, 0.5, 15),
            ],
            20,
        );
        let bs = ranked_bottlenecks(&est);
        // Stage 1 is OOM → it comes first despite being fastest.
        assert_eq!(bs[0].stage, 1);
        assert_eq!(bs[0].resources[0], Resource::Memory);
        assert_eq!(bs[1].stage, 2);
    }

    #[test]
    fn non_oom_prioritises_slowest_stage() {
        let est = estimate(vec![stage(5.0, 1.0, 10), stage(1.0, 0.2, 15)], 20);
        let bs = ranked_bottlenecks(&est);
        assert_eq!(bs[0].stage, 0);
        // No memory pressure → memory not in the resource list.
        assert!(!bs[0].resources.contains(&Resource::Memory));
        assert_eq!(bs[0].resources[0], Resource::Compute);
    }

    #[test]
    fn communication_heavy_stage_ranks_comm_first() {
        let est = estimate(vec![stage(1.0, 4.0, 10), stage(1.0, 0.1, 10)], 20);
        let bs = ranked_bottlenecks(&est);
        assert_eq!(bs[0].stage, 0);
        assert_eq!(bs[0].resources[0], Resource::Communication);
    }

    #[test]
    fn secondary_bottlenecks_listed() {
        let est = estimate(
            vec![
                stage(3.0, 0.1, 10),
                stage(2.0, 0.1, 10),
                stage(1.0, 0.1, 10),
            ],
            20,
        );
        let bs = ranked_bottlenecks(&est);
        assert_eq!(bs.len(), 3);
        assert_eq!(bs[0].stage, 0);
        assert_eq!(bs[1].stage, 1);
        assert_eq!(bs[2].stage, 2);
    }
}
