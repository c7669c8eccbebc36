//! Reconfiguration primitives (paper Table 1) and candidate generation.
//!
//! Each primitive adjusts exactly one mechanism of one stage (or, for the
//! microbatch pair, the whole model) and carries a *resource signature*:
//! the direction in which it moves the stage's computation, communication
//! and memory consumption. The search queries the table for primitives
//! whose signature *decreases* the bottleneck resource, then generates the
//! concrete candidate configurations each primitive implies — including
//! partner-stage adjustments (device donations), argument choices (how
//! many ops to move / recompute, §4.1), the relay form of op moves, and
//! the attached recompute fix-up (§4.3).

use crate::transform::{self, Mechanism};
use aceso_config::{OpParallel, ParallelConfig, Stage, StageConfig};
use aceso_perf::{ConfigEstimate, Evaluator};
use std::sync::Arc;

/// The three hardware resources of the trading view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Computation time.
    Compute,
    /// Communication time.
    Communication,
    /// Memory footprint.
    Memory,
}

impl Resource {
    /// All resources.
    pub const ALL: [Resource; 3] = [Resource::Compute, Resource::Communication, Resource::Memory];

    /// Lower-case name, as it appears in observability events.
    pub fn name(self) -> &'static str {
        match self {
            Resource::Compute => "compute",
            Resource::Communication => "communication",
            Resource::Memory => "memory",
        }
    }
}

/// Direction of a primitive's impact on one resource (Table 1 arrows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trend {
    /// Consumption increases (↗).
    Inc,
    /// Consumption unchanged (⇒).
    Same,
    /// Consumption decreases (↘).
    Dec,
}

/// The ten reconfiguration primitives of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Primitive {
    /// Increase the number of operators in a pipeline stage.
    IncOp,
    /// Decrease the number of operators in a pipeline stage.
    DecOp,
    /// Increase the (global) microbatch size.
    IncMbs,
    /// Decrease the (global) microbatch size.
    DecMbs,
    /// Increase data-parallel concurrency of a stage.
    IncDp,
    /// Decrease data-parallel concurrency of a stage.
    DecDp,
    /// Increase tensor-parallel concurrency of a stage.
    IncTp,
    /// Decrease tensor-parallel concurrency of a stage.
    DecTp,
    /// Recompute more operators in a stage.
    IncRc,
    /// Recompute fewer operators in a stage.
    DecRc,
    /// Extension (not in Table 1): shard optimiser states across the
    /// stage's data-parallel group (ZeRO-1).
    IncZero,
    /// Extension: stop sharding optimiser states.
    DecZero,
}

impl Primitive {
    /// All primitives in Table 1 order.
    pub const ALL: [Primitive; 10] = [
        Primitive::IncOp,
        Primitive::DecOp,
        Primitive::IncMbs,
        Primitive::DecMbs,
        Primitive::IncDp,
        Primitive::DecDp,
        Primitive::IncTp,
        Primitive::DecTp,
        Primitive::IncRc,
        Primitive::DecRc,
    ];

    /// Table 1 plus the ZeRO extension pair — demonstrating the paper's
    /// "Aceso can be extended with new primitives" claim end to end.
    pub const EXTENDED: [Primitive; 12] = [
        Primitive::IncOp,
        Primitive::DecOp,
        Primitive::IncMbs,
        Primitive::DecMbs,
        Primitive::IncDp,
        Primitive::DecDp,
        Primitive::IncTp,
        Primitive::DecTp,
        Primitive::IncRc,
        Primitive::DecRc,
        Primitive::IncZero,
        Primitive::DecZero,
    ];

    /// Table 1 resource signature `(compute, communication, memory)` for
    /// the stage the primitive is applied to.
    pub fn effects(self) -> (Trend, Trend, Trend) {
        use Trend::{Dec, Inc, Same};
        match self {
            Primitive::IncOp => (Inc, Same, Inc),
            Primitive::DecOp => (Dec, Same, Dec),
            // A larger microbatch amortises per-kernel fixed costs (less
            // compute time) but stashes more per in-flight microbatch.
            Primitive::IncMbs => (Dec, Same, Inc),
            Primitive::DecMbs => (Inc, Same, Dec),
            // More devices share the work and the state, for more traffic.
            Primitive::IncDp => (Dec, Inc, Dec),
            Primitive::DecDp => (Inc, Dec, Inc),
            Primitive::IncTp => (Dec, Inc, Dec),
            Primitive::DecTp => (Inc, Dec, Inc),
            // The classic trade of duplicated compute for memory.
            Primitive::IncRc => (Inc, Same, Dec),
            Primitive::DecRc => (Dec, Same, Inc),
            // ZeRO-1 trades a parameter all-gather for optimiser memory.
            Primitive::IncZero => (Same, Inc, Dec),
            Primitive::DecZero => (Same, Dec, Inc),
        }
    }

    /// Whether the primitive decreases `resource` on its target stage.
    pub fn decreases(self, resource: Resource) -> bool {
        let (comp, comm, mem) = self.effects();
        let t = match resource {
            Resource::Compute => comp,
            Resource::Communication => comm,
            Resource::Memory => mem,
        };
        t == Trend::Dec
    }

    /// Primitives that decrease `resource`, in Table 1 order — the
    /// eligibility query of §3.2.2.
    ///
    /// # Examples
    ///
    /// ```
    /// use aceso_core::{Primitive, Resource};
    ///
    /// // Only concurrency decreases relieve a communication bottleneck.
    /// assert_eq!(
    ///     Primitive::eligible_for(Resource::Communication),
    ///     vec![Primitive::DecDp, Primitive::DecTp],
    /// );
    /// ```
    pub fn eligible_for(resource: Resource) -> Vec<Primitive> {
        Primitive::eligible(resource, false).to_vec()
    }

    /// Eligibility query over the extended table (includes the ZeRO pair).
    pub fn eligible_for_extended(resource: Resource) -> Vec<Primitive> {
        Primitive::eligible(resource, true).to_vec()
    }

    /// The eligibility query as a static slice, over [`Primitive::ALL`]
    /// or, when `extended`, [`Primitive::EXTENDED`]: the primitives whose
    /// [`Primitive::effects`] decrease `resource`, in table order (the
    /// `eligibility_matches_the_signatures` test derives it from them).
    pub(crate) fn eligible(resource: Resource, extended: bool) -> &'static [Primitive] {
        use Primitive::{DecDp, DecMbs, DecOp, DecRc, DecTp, DecZero, IncDp, IncMbs, IncRc, IncTp};
        match (resource, extended) {
            (Resource::Compute, _) => &[DecOp, IncMbs, IncDp, IncTp, DecRc],
            (Resource::Communication, false) => &[DecDp, DecTp],
            (Resource::Communication, true) => &[DecDp, DecTp, DecZero],
            (Resource::Memory, false) => &[DecOp, DecMbs, IncDp, IncTp, IncRc],
            (Resource::Memory, true) => &[DecOp, DecMbs, IncDp, IncTp, IncRc, Primitive::IncZero],
        }
    }

    /// Short stable name (for traces and tables).
    pub fn name(self) -> &'static str {
        match self {
            Primitive::IncOp => "inc-op#",
            Primitive::DecOp => "dec-op#",
            Primitive::IncMbs => "inc-mbs",
            Primitive::DecMbs => "dec-mbs",
            Primitive::IncDp => "inc-dp",
            Primitive::DecDp => "dec-dp",
            Primitive::IncTp => "inc-tp",
            Primitive::DecTp => "dec-tp",
            Primitive::IncRc => "inc-rc",
            Primitive::DecRc => "dec-rc",
            Primitive::IncZero => "inc-zero",
            Primitive::DecZero => "dec-zero",
        }
    }
}

/// Toggles for the §4.3 primitive-combination optimisations (exposed so
/// the ablation harness can measure their value).
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Attach the recompute fix-up to every candidate.
    pub attach_rc: bool,
    /// Generate relay (multi-stage) op moves toward a distant idle stage.
    pub relay_moves: bool,
    /// Search the ZeRO-1 extension primitives (off by default to match the
    /// paper's Table 1 search space).
    pub enable_zero: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        Self {
            attach_rc: true,
            relay_moves: true,
            enable_zero: false,
        }
    }
}

/// One generated candidate: the rewritten configuration plus provenance.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The rewritten configuration.
    pub config: ParallelConfig,
    /// The primitive that produced it.
    pub primitive: Primitive,
    /// The stage it targeted.
    pub stage: usize,
    /// Number of Table-1 primitive applications this candidate bundles
    /// (relay moves chain several op moves; the attached recompute fix-up
    /// adds one more) — the unit the paper's hop counts are measured in.
    pub primitives_applied: usize,
    /// `config.semantic_hash()`, computed once here for generation's
    /// dedup and reused by the search's visited set.
    pub fingerprint: u64,
    /// The estimate of `config` the recompute fix-up scored, kept when
    /// the fix-up left the configuration unchanged. `None` when the
    /// fix-up rewrote it or is switched off: the search scores those.
    pub estimate: Option<ConfigEstimate>,
}

/// Ranks partner stages by how much of the bottleneck's scarce resource
/// they have to spare (paper §3.2.1: "the one with the most available
/// resources required by the bottleneck stage").
fn partners_by_slack(est: &ConfigEstimate, stage: usize, resource: Resource) -> Vec<usize> {
    let mut others: Vec<usize> = (0..est.stages.len()).filter(|&s| s != stage).collect();
    match resource {
        Resource::Memory => {
            others.sort_by(|&a, &b| est.stages[a].mem_total.cmp(&est.stages[b].mem_total));
        }
        _ => {
            others.sort_by(|&a, &b| {
                est.stages[a]
                    .steady_per_mb()
                    .partial_cmp(&est.stages[b].steady_per_mb())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
    }
    others
}

/// Generates the concrete configurations a primitive implies for a
/// bottleneck stage, given the current estimate.
///
/// Several argument values may be plausible (how many ops to move, which
/// donors to tap); all are emitted and the caller ranks them by estimated
/// performance (Heuristic-2's best-performance-first).
pub fn generate<E: Evaluator>(
    pm: &E,
    config: &ParallelConfig,
    est: &ConfigEstimate,
    prim: Primitive,
    stage: usize,
    resource: Resource,
) -> Vec<Candidate> {
    generate_with(
        pm,
        config,
        est,
        prim,
        stage,
        resource,
        GenOptions::default(),
    )
}

/// [`generate`] with explicit combination toggles.
pub fn generate_with<E: Evaluator>(
    pm: &E,
    config: &ParallelConfig,
    est: &ConfigEstimate,
    prim: Primitive,
    stage: usize,
    resource: Resource,
    gen_opts: GenOptions,
) -> Vec<Candidate> {
    let model = pm.model();
    let p = config.num_stages();
    // (candidate, primitives applied so far)
    let mut out: Vec<(ParallelConfig, usize)> = Vec::with_capacity(8);

    match prim {
        Primitive::DecOp => {
            // Move boundary ops toward the idlest side; try a few k values
            // and a relay toward a distant idlest stage (§4.3).
            let idlest = partners_by_slack(est, stage, resource).into_iter().next();
            let mut dirs: Vec<usize> = Vec::new();
            if let Some(idle) = idlest {
                if idle < stage && stage > 0 {
                    dirs.push(stage - 1);
                }
                if idle > stage && stage + 1 < p {
                    dirs.push(stage + 1);
                }
            }
            if stage > 0 && !dirs.contains(&(stage - 1)) {
                dirs.push(stage - 1);
            }
            if stage + 1 < p && !dirs.contains(&(stage + 1)) {
                dirs.push(stage + 1);
            }
            let n_ops = config.stages()[stage].num_ops();
            for to in dirs {
                // Power-of-two move sizes up to half the stage, so a
                // 1000-op stage can rebalance in few iterations.
                let mut k = 1usize;
                while k < n_ops {
                    if let Some(c) = transform::move_ops(model, config, stage, to, k) {
                        out.push((c, 1));
                    }
                    if k >= n_ops / 2 {
                        break;
                    }
                    k *= 2;
                }
            }
            // Relay move toward a non-adjacent idlest stage.
            if let Some(idle) = idlest.filter(|_| gen_opts.relay_moves) {
                if stage.abs_diff(idle) > 1 {
                    if let Some(c) = relay_move(model, config, stage, idle, 2) {
                        out.push((c, stage.abs_diff(idle)));
                    }
                }
            }
        }
        Primitive::IncOp => {
            // Pull boundary ops from a neighbour (partner of dec-op#).
            for from in [stage.wrapping_sub(1), stage + 1] {
                if from >= p || from == stage {
                    continue;
                }
                for k in [1usize, 2, 4] {
                    if let Some(c) = transform::move_ops(model, config, from, stage, k) {
                        out.push((c, 1));
                    }
                }
            }
        }
        Primitive::IncMbs => {
            out.extend(transform::scale_microbatch(model, config, true).map(|c| (c, 1)));
        }
        Primitive::DecMbs => {
            out.extend(transform::scale_microbatch(model, config, false).map(|c| (c, 1)));
        }
        Primitive::IncDp | Primitive::IncTp => {
            let mech = if prim == Primitive::IncDp {
                Mechanism::Dp
            } else {
                Mechanism::Tp
            };
            let donors = partners_by_slack(est, stage, resource);
            // A grow bundles the donor stages' dec primitives with the
            // bottleneck's inc (partner primitives, §3.2.1): ≥ 2 applications.
            out.extend(transform::grow_stage(model, config, stage, mech, &donors).map(|c| (c, 2)));
            // In-place conversion (no device movement).
            out.extend(transform::convert_stage(model, config, stage, mech).map(|c| (c, 2)));
        }
        Primitive::DecDp | Primitive::DecTp => {
            let mech = if prim == Primitive::DecDp {
                Mechanism::Dp
            } else {
                Mechanism::Tp
            };
            // Freed devices go to the *neediest* stages (reverse slack).
            let mut receivers = partners_by_slack(est, stage, resource);
            receivers.reverse();
            out.extend(
                transform::shrink_stage(model, config, stage, &receivers, mech).map(|c| (c, 2)),
            );
            // In-place conversion away from this mechanism.
            let toward = if prim == Primitive::DecDp {
                Mechanism::Tp
            } else {
                Mechanism::Dp
            };
            out.extend(transform::convert_stage(model, config, stage, toward).map(|c| (c, 2)));
        }
        Primitive::IncRc => {
            out.extend(recompute_to_fit(pm, config, est, stage).map(|fixed| {
                let mut c = config.clone();
                c.set_stage(stage, fixed);
                (c, 1)
            }));
            out.extend(transform::recompute_largest(model, config, stage, 1).map(|c| (c, 1)));
            out.extend(
                transform::recompute_largest(model, config, stage, usize::MAX).map(|c| (c, 1)),
            );
        }
        Primitive::DecRc => {
            out.extend(greedy_uncompute_in_headroom(pm, config, est, stage).map(|c| (c, 1)));
            out.extend(transform::uncompute_smallest(model, config, stage, 1).map(|c| (c, 1)));
        }
        Primitive::IncZero => {
            out.extend(set_zero(config, stage, true).map(|c| (c, 1)));
        }
        Primitive::DecZero => {
            out.extend(set_zero(config, stage, false).map(|c| (c, 1)));
        }
    }

    // §4.3: attach a recompute fix-up to every candidate so memory shifts
    // caused by the primitive do not leave a stage needlessly OOM or
    // needlessly recomputing. The fix-up counts as one more applied
    // primitive when it changes the configuration. When it does not, the
    // estimate it scored the candidate with travels on to the search
    // (INV-SCORE-ONCE). One pass fixes up, fingerprints and dedups.
    // A call yields about ten candidates at most, so the dedup is a
    // linear scan, seeded with the input: a candidate identical to the
    // configuration it rewrites is a wasted hop, never a real move.
    let input = config.semantic_hash();
    let mut candidates: Vec<Candidate> = Vec::with_capacity(out.len());
    for (c, hops) in out {
        let (config, primitives_applied, estimate) = if gen_opts.attach_rc {
            let (fixed, estimate) = rc_fixup(pm, c);
            let extra = usize::from(estimate.is_none());
            (fixed, hops + extra, estimate)
        } else {
            (c, hops, None)
        };
        let fingerprint = config.semantic_hash();
        if fingerprint == input || candidates.iter().any(|c| c.fingerprint == fingerprint) {
            continue;
        }
        crate::invariants::assert_valid(model, pm.cluster(), &config, prim.name());
        candidates.push(Candidate {
            config,
            primitive: prim,
            stage,
            primitives_applied,
            fingerprint,
            estimate,
        });
    }
    candidates
}

/// ZeRO-1 extension: flips optimiser-state sharding for every op in the
/// stage that has a non-trivial dp group. `None` when nothing changes.
fn set_zero(config: &ParallelConfig, stage: usize, on: bool) -> Option<ParallelConfig> {
    let flips = |op: &OpParallel| op.dp > 1 && op.zero != on;
    if !config.stages()[stage].ops.iter().any(flips) {
        return None;
    }
    let mut cfg = config.clone();
    for op in cfg.stage_mut(stage).ops.iter_mut().filter(|op| flips(op)) {
        op.zero = on;
    }
    Some(cfg)
}

/// Relay form of dec-op# (§4.3): shifts `k` ops per hop along the chain of
/// stages from `from` toward `idle` (`from != idle`).
fn relay_move(
    model: &aceso_model::ModelGraph,
    config: &ParallelConfig,
    from: usize,
    idle: usize,
    k: usize,
) -> Option<ParallelConfig> {
    let step = |cur: usize| if idle > cur { cur + 1 } else { cur - 1 };
    let mut cfg = transform::move_ops(model, config, from, step(from), k)?;
    let mut cur = step(from);
    while cur != idle {
        let next = step(cur);
        cfg = transform::move_ops(model, &cfg, cur, next, k)?;
        cur = next;
    }
    Some(cfg)
}

/// inc-rc argument choice (§4.1): stage `stage` of `config` with its
/// largest-stash ops flagged until its predicted memory fits the device,
/// or `None` when it fits already or nothing can be freed.
///
/// The answer is a pure function of the stage's content, the global
/// microbatch and its `in_flight`, so it goes through the evaluator's
/// fix-up memo (INV-FIXUP-MEMO): a hit returns the shared stage with no
/// copy, sort or rehash.
fn recompute_to_fit<E: Evaluator>(
    pm: &E,
    config: &ParallelConfig,
    est: &ConfigEstimate,
    stage: usize,
) -> Option<Arc<Stage>> {
    let se = &est.stages[stage];
    let capacity = pm.cluster().device.mem_bytes;
    if se.mem_total <= capacity {
        return None;
    }
    pm.fixup_stage(config, stage, se.in_flight, || {
        greedy_recompute_to_fit(pm, config, stage, se.in_flight, se.mem_total - capacity)
    })
}

/// The greedy behind [`recompute_to_fit`], using Eq. 1 arithmetic
/// directly: frees at least `overshoot` bytes at `in_flight` in-flight
/// microbatches, largest stash first.
fn greedy_recompute_to_fit<E: Evaluator>(
    pm: &E,
    config: &ParallelConfig,
    stage: usize,
    in_flight: usize,
    overshoot: u64,
) -> Option<Arc<Stage>> {
    let model = pm.model();
    let s = &config.stages()[stage];
    let in_flight = in_flight as u64;
    let act_bytes = model.precision.bytes();
    let mut items: Vec<(usize, u64)> = s
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| !o.recompute)
        .map(|(j, o)| {
            let op = &model.ops[s.op_start + j];
            let per_dev = config.microbatch as u64 / u64::from(o.dp);
            let saved = op.stash_per_rank(usize::from(o.dim_index), o.tp) * per_dev * act_bytes;
            (j, saved * in_flight)
        })
        .collect();
    items.sort_by_key(|&(_, saved)| std::cmp::Reverse(saved));
    let mut freed = 0u64;
    let mut fixed = StageConfig::clone(s);
    for (j, saved) in items {
        if freed >= overshoot {
            break;
        }
        fixed.ops[j].recompute = true;
        freed += saved;
    }
    (freed > 0).then(|| Arc::new(Stage::new(fixed)))
}

/// dec-rc argument choice: clear smallest-stash flags while staying within
/// the device's memory headroom.
fn greedy_uncompute_in_headroom<E: Evaluator>(
    pm: &E,
    config: &ParallelConfig,
    est: &ConfigEstimate,
    stage: usize,
) -> Option<ParallelConfig> {
    let capacity = pm.cluster().device.mem_bytes;
    let se = &est.stages[stage];
    if se.mem_total >= capacity {
        return None;
    }
    let mut headroom = capacity - se.mem_total;
    let model = pm.model();
    let s = &config.stages()[stage];
    let in_flight = se.in_flight as u64;
    let act_bytes = model.precision.bytes();
    let mut items: Vec<(usize, u64)> = s
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.recompute)
        .map(|(j, o)| {
            let op = &model.ops[s.op_start + j];
            let per_dev = config.microbatch as u64 / u64::from(o.dp);
            let cost = op.stash_per_rank(usize::from(o.dim_index), o.tp) * per_dev * act_bytes;
            (j, cost * in_flight)
        })
        .collect();
    items.sort_by_key(|&(_, cost)| cost);
    let mut cleared = Vec::new();
    for (j, cost) in items {
        // Keep a 5% capacity margin, mirroring the deliberate
        // overestimation stance of §3.3.
        if cost + capacity / 20 > headroom {
            break;
        }
        cleared.push(j);
        headroom -= cost;
    }
    if cleared.is_empty() {
        return None;
    }
    Some(transform::with_recompute(config, stage, cleared, false))
}

/// Attached recompute check (§4.3): after any primitive, re-fit recompute
/// flags on every stage whose memory the primitive disturbed.
///
/// Returns the fixed configuration and, when the fix-up left `config`
/// unchanged, the estimate it scored `config` with (`None` when it
/// rewrote it). A rewrite always sets at least one recompute flag, so
/// telling the two apart needs no hashing.
pub fn rc_fixup<E: Evaluator>(
    pm: &E,
    config: ParallelConfig,
) -> (ParallelConfig, Option<ConfigEstimate>) {
    let est = pm.evaluate_unchecked(&config);
    let mut cfg = config;
    let mut rewritten = false;
    for stage in 0..cfg.stages().len() {
        if let Some(fixed) = recompute_to_fit(pm, &cfg, &est, stage) {
            cfg.set_stage(stage, fixed);
            rewritten = true;
        }
    }
    (cfg, (!rewritten).then_some(est))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_cluster::ClusterSpec;
    use aceso_config::balanced_init;
    use aceso_config::validate::validate;
    use aceso_model::zoo::gpt3_custom;
    use aceso_model::ModelGraph;
    use aceso_perf::PerfModel;
    use aceso_profile::ProfileDb;

    fn setup() -> (ModelGraph, ClusterSpec) {
        (
            gpt3_custom("t", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(1, 8),
        )
    }

    #[test]
    fn table1_signatures() {
        use Trend::*;
        assert_eq!(Primitive::IncDp.effects(), (Dec, Inc, Dec));
        assert_eq!(Primitive::IncRc.effects(), (Inc, Same, Dec));
        assert_eq!(Primitive::DecOp.effects(), (Dec, Same, Dec));
        // Every inc has a dec with mirrored trends.
        for (inc, dec) in [
            (Primitive::IncOp, Primitive::DecOp),
            (Primitive::IncMbs, Primitive::DecMbs),
            (Primitive::IncDp, Primitive::DecDp),
            (Primitive::IncTp, Primitive::DecTp),
            (Primitive::IncRc, Primitive::DecRc),
        ] {
            let (a, b, c) = inc.effects();
            let (x, y, z) = dec.effects();
            let flip = |t: Trend| match t {
                Inc => Dec,
                Dec => Inc,
                Same => Same,
            };
            assert_eq!((flip(a), flip(b), flip(c)), (x, y, z), "{}", inc.name());
        }
    }

    #[test]
    fn eligibility_query() {
        let mem = Primitive::eligible_for(Resource::Memory);
        assert!(mem.contains(&Primitive::IncRc));
        assert!(mem.contains(&Primitive::IncTp));
        assert!(mem.contains(&Primitive::DecMbs));
        assert!(!mem.contains(&Primitive::DecRc));
        let comm = Primitive::eligible_for(Resource::Communication);
        assert_eq!(comm, vec![Primitive::DecDp, Primitive::DecTp]);
        let comp = Primitive::eligible_for(Resource::Compute);
        assert!(comp.contains(&Primitive::DecOp));
        assert!(comp.contains(&Primitive::IncMbs));
        assert!(comp.contains(&Primitive::DecRc));
    }

    #[test]
    fn eligibility_matches_the_signatures() {
        for resource in Resource::ALL {
            for (extended, table) in [(false, &Primitive::ALL[..]), (true, &Primitive::EXTENDED)] {
                let derived: Vec<Primitive> = table
                    .iter()
                    .copied()
                    .filter(|p| p.decreases(resource))
                    .collect();
                assert_eq!(Primitive::eligible(resource, extended), derived);
            }
        }
    }

    #[test]
    fn generate_produces_valid_candidates() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let cfg = balanced_init(&m, &c, 4).expect("init");
        let est = pm.evaluate_unchecked(&cfg);
        let mut total = 0;
        for prim in Primitive::ALL {
            for stage in 0..4 {
                for res in Resource::ALL {
                    for cand in generate(&pm, &cfg, &est, prim, stage, res) {
                        assert!(
                            validate(&cand.config, &m, &c).is_ok(),
                            "{} stage {stage} invalid",
                            prim.name()
                        );
                        total += 1;
                    }
                }
            }
        }
        assert!(total > 20, "expected many candidates, got {total}");
    }

    #[test]
    fn dec_op_moves_fewer_ops_first() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let est = pm.evaluate_unchecked(&cfg);
        let cands = generate(&pm, &cfg, &est, Primitive::DecOp, 0, Resource::Compute);
        assert!(!cands.is_empty());
        // First candidate moves exactly one op.
        let first = &cands[0].config;
        assert_eq!(first.stages()[0].num_ops(), cfg.stages()[0].num_ops() - 1);
    }

    #[test]
    fn inc_tp_conversion_available_for_single_stage() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let cfg = balanced_init(&m, &c, 1).expect("init");
        let est = pm.evaluate_unchecked(&cfg);
        let cands = generate(&pm, &cfg, &est, Primitive::IncTp, 0, Resource::Memory);
        assert!(!cands.is_empty(), "single-stage tp conversion must exist");
        assert!(cands[0].config.stages()[0].ops.iter().any(|o| o.tp > 1));
    }

    #[test]
    fn rc_fixup_resolves_oom_when_possible() {
        // A model that OOMs without recompute on 1 GPU (≈26 GB of
        // params/optimiser plus ≈16 GB of stashed activations).
        let m = gpt3_custom("t", 32, 2048, 32, 2048, 51200, 256);
        let c = ClusterSpec::v100(1, 1);
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let cfg = balanced_init(&m, &c, 1).expect("init");
        let before = pm.evaluate_unchecked(&cfg);
        assert!(before.oom(), "baseline should be OOM");
        let (fixed, estimate) = rc_fixup(&pm, cfg);
        assert!(estimate.is_none(), "a rewrite carries no estimate");
        let after = pm.evaluate_unchecked(&fixed);
        assert!(after.max_memory < before.max_memory);
        // A second pass carries its estimate exactly when it changes nothing.
        let (again, estimate) = rc_fixup(&pm, fixed.clone());
        match estimate {
            Some(e) => {
                assert_eq!(again.semantic_hash(), fixed.semantic_hash());
                assert!(e.bit_identical(&after));
            }
            None => assert_ne!(again.semantic_hash(), fixed.semantic_hash()),
        }
    }

    #[test]
    fn zero_extension_signatures() {
        use Trend::{Dec, Inc, Same};
        assert_eq!(Primitive::IncZero.effects(), (Same, Inc, Dec));
        assert_eq!(Primitive::DecZero.effects(), (Same, Dec, Inc));
        assert_eq!(Primitive::IncZero.name(), "inc-zero");
    }

    #[test]
    fn zero_extension_eligibility() {
        // Table-1 queries never see the extension pair...
        assert!(!Primitive::eligible_for(Resource::Memory).contains(&Primitive::IncZero));
        // ...the extended query does.
        let ext = Primitive::eligible_for_extended(Resource::Memory);
        assert!(ext.contains(&Primitive::IncZero));
        assert!(
            Primitive::eligible_for_extended(Resource::Communication).contains(&Primitive::DecZero)
        );
        assert_eq!(Primitive::EXTENDED.len(), Primitive::ALL.len() + 2);
    }

    #[test]
    fn inc_zero_shards_optimizer_memory() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let pm = PerfModel::new(&m, &c, &db);
        let cfg = balanced_init(&m, &c, 2).expect("init");
        let est = pm.evaluate_unchecked(&cfg);
        let cands = generate_with(
            &pm,
            &cfg,
            &est,
            Primitive::IncZero,
            0,
            Resource::Memory,
            GenOptions {
                enable_zero: true,
                ..GenOptions::default()
            },
        );
        assert_eq!(cands.len(), 1);
        let zest = pm.evaluate_unchecked(&cands[0].config);
        assert!(zest.stages[0].mem_opt < est.stages[0].mem_opt);
        assert!(zest.stages[0].dp_sync > est.stages[0].dp_sync);
        // Round trip back.
        let back = generate_with(
            &pm,
            &cands[0].config,
            &zest,
            Primitive::DecZero,
            0,
            Resource::Communication,
            GenOptions {
                enable_zero: true,
                ..GenOptions::default()
            },
        );
        assert_eq!(back[0].config.semantic_hash(), cfg.semantic_hash());
    }
}
