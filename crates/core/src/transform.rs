//! Configuration transforms underlying the reconfiguration primitives.
//!
//! Every function here rewrites a [`ParallelConfig`] into a new candidate,
//! returning `None` when the rewrite is structurally impossible (op ranges
//! would empty, no valid power-of-two factorisation exists, the microbatch
//! constraint cannot be met). All transforms are semantic-preserving: they
//! never change the aggregated batch, only how it is computed.

use aceso_config::{OpParallel, ParallelConfig, StageConfig};
use aceso_model::ModelGraph;

/// Drops ZeRO sharding when the op's data-parallel group degenerates to a
/// singleton — `validate` rejects `zero && dp == 1`, so every transform
/// that can lower dp must clamp before returning.
fn clamp_zero(op: &mut OpParallel) {
    if op.dp == 1 {
        op.zero = false;
    }
}

/// Largest power-of-two tensor-parallel degree `≤ want` that the operator
/// accepts and that divides `gpus`.
fn clamp_tp(want: u32, tp_limit: u32, gpus: u32) -> u32 {
    let mut tp = want.min(tp_limit).min(gpus);
    if !tp.is_power_of_two() {
        tp = tp.next_power_of_two() / 2;
    }
    while tp > 1 && !gpus.is_multiple_of(tp) {
        tp /= 2;
    }
    tp.max(1)
}

/// Builds per-op settings for `op` joining a stage with `gpus` devices,
/// modelled on a template setting from that stage.
fn adopt_settings(
    model: &ModelGraph,
    op_idx: usize,
    template: OpParallel,
    gpus: u32,
    microbatch: usize,
) -> Option<OpParallel> {
    let op = &model.ops[op_idx];
    let tp = clamp_tp(template.tp, op.tp_limit, gpus);
    let dp = gpus / tp;
    if !dp.is_power_of_two() || !microbatch.is_multiple_of(dp as usize) {
        // Fall back to the largest tp that leaves a batch-compatible dp.
        let mut tp2 = gpus.min(op.tp_limit.next_power_of_two());
        while tp2 >= 1 {
            if tp2.is_power_of_two() && tp2 <= op.tp_limit && gpus.is_multiple_of(tp2) {
                let dp2 = gpus / tp2;
                if dp2.is_power_of_two() && microbatch.is_multiple_of(dp2 as usize) {
                    let mut adopted = OpParallel {
                        tp: tp2,
                        dp: dp2,
                        dim_index: template.dim_index.min((op.partitions.len() - 1) as u8),
                        recompute: template.recompute,
                        zero: template.zero,
                    };
                    clamp_zero(&mut adopted);
                    return Some(adopted);
                }
            }
            tp2 /= 2;
        }
        return None;
    }
    let mut adopted = OpParallel {
        tp,
        dp,
        dim_index: template.dim_index.min((op.partitions.len() - 1) as u8),
        recompute: template.recompute,
        zero: template.zero,
    };
    clamp_zero(&mut adopted);
    Some(adopted)
}

/// Moves `k` boundary operators from stage `from` to the adjacent stage
/// `to` (the paper's inc/dec-op# pair, §4.1: only contiguous boundary runs
/// can move).
pub fn move_ops(
    model: &ModelGraph,
    config: &ParallelConfig,
    from: usize,
    to: usize,
    k: usize,
) -> Option<ParallelConfig> {
    if from >= config.stages().len() || to >= config.stages().len() {
        return None;
    }
    if from.abs_diff(to) != 1 || k == 0 || config.stages()[from].num_ops() <= k {
        return None;
    }
    let (src, dst) = (&config.stages()[from], &config.stages()[to]);
    let to_gpus = dst.gpus as u32;
    let adopt = |ops: std::ops::Range<usize>, template: OpParallel| {
        ops.map(|g| adopt_settings(model, g, template, to_gpus, config.microbatch))
            .collect::<Option<Vec<_>>>()
    };
    let mut cfg = config.clone();
    if to < from {
        // Move the first k ops of `from` to the end of `to`.
        let moved = adopt(src.op_start..src.op_start + k, *dst.ops.last()?)?;
        let mut d = cfg.stage_mut(to);
        d.ops.extend(moved);
        d.op_end += k;
        drop(d);
        let mut s = cfg.stage_mut(from);
        s.ops.drain(..k);
        s.op_start += k;
    } else {
        // Move the last k ops of `from` to the front of `to`.
        let mut front = adopt(src.op_end - k..src.op_end, *dst.ops.first()?)?;
        let mut d = cfg.stage_mut(to);
        front.extend_from_slice(&d.ops);
        d.ops = front;
        d.op_start -= k;
        drop(d);
        let mut s = cfg.stage_mut(from);
        let n = s.ops.len();
        s.ops.truncate(n - k);
        s.op_end -= k;
    }
    crate::invariants::assert_structure(model, &cfg, "move_ops");
    Some(cfg)
}

/// Direction of a dp/tp concurrency change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Change data-parallel degrees.
    Dp,
    /// Change tensor-parallel degrees.
    Tp,
}

/// Halves a stage's device count in place by halving each op's dp (or tp
/// when dp is already 1). Returns `false` when impossible (1-GPU stage).
fn halve_stage_inplace(stage: &mut StageConfig) -> bool {
    if stage.gpus <= 1 {
        return false;
    }
    for op in &mut stage.ops {
        if op.dp > 1 {
            op.dp /= 2;
        } else if op.tp > 1 {
            op.tp /= 2;
        } else {
            return false;
        }
        clamp_zero(op);
    }
    stage.gpus /= 2;
    true
}

/// Doubles a stage's device count in place through `mech`, falling back to
/// the other mechanism per-op where limits forbid the preferred one.
/// Returns `false` when no op can absorb the doubling.
fn double_stage_inplace(model: &ModelGraph, stage: &mut StageConfig, mech: Mechanism) -> bool {
    let mut ok = true;
    for (j, op) in stage.ops.iter_mut().enumerate() {
        let limit = model.ops[stage.op_start + j].tp_limit;
        match mech {
            Mechanism::Tp if op.tp * 2 <= limit => op.tp *= 2,
            Mechanism::Tp => op.dp *= 2,
            Mechanism::Dp => op.dp *= 2,
        }
        if !op.tp.is_power_of_two() || !op.dp.is_power_of_two() {
            ok = false;
        }
    }
    stage.gpus *= 2;
    ok
}

/// Grows `stage` to twice its devices via `mech`, funding the growth by
/// halving the `donors` (in order) whose halves sum exactly to the needed
/// count. Bumps the microbatch if a larger dp demands it.
pub fn grow_stage(
    model: &ModelGraph,
    config: &ParallelConfig,
    stage: usize,
    mech: Mechanism,
    donors: &[usize],
) -> Option<ParallelConfig> {
    let needed = config.stages()[stage].gpus;
    let mut cfg = config.clone();
    let mut granted = 0usize;
    for &d in donors {
        if d == stage || granted >= needed {
            continue;
        }
        let give = cfg.stages()[d].gpus / 2;
        if give == 0 || granted + give > needed {
            continue;
        }
        if !halve_stage_inplace(&mut cfg.stage_mut(d)) {
            continue;
        }
        granted += give;
    }
    if granted != needed {
        return None;
    }
    if !double_stage_inplace(model, &mut cfg.stage_mut(stage), mech) {
        return None;
    }
    fix_microbatch(&mut cfg, model)?;
    crate::invariants::assert_structure(model, &cfg, "grow_stage");
    Some(cfg)
}

/// Shrinks `stage` to half its devices (dec-dp/dec-tp), doubling
/// `receivers` (in order) whose device counts sum exactly to the freed half.
pub fn shrink_stage(
    model: &ModelGraph,
    config: &ParallelConfig,
    stage: usize,
    receivers: &[usize],
    mech: Mechanism,
) -> Option<ParallelConfig> {
    let freed = config.stages()[stage].gpus / 2;
    if freed == 0 {
        return None;
    }
    let mut cfg = config.clone();
    if !halve_stage_inplace(&mut cfg.stage_mut(stage)) {
        return None;
    }
    let mut remaining = freed;
    for &r in receivers {
        if r == stage || remaining == 0 {
            continue;
        }
        let take = cfg.stages()[r].gpus;
        if take > remaining {
            continue;
        }
        if !double_stage_inplace(model, &mut cfg.stage_mut(r), mech) {
            return None;
        }
        remaining -= take;
    }
    if remaining != 0 {
        return None;
    }
    fix_microbatch(&mut cfg, model)?;
    crate::invariants::assert_structure(model, &cfg, "shrink_stage");
    Some(cfg)
}

/// Converts parallelism inside a stage without moving devices:
/// `Tp` doubles tp and halves dp, `Dp` the reverse.
pub fn convert_stage(
    model: &ModelGraph,
    config: &ParallelConfig,
    stage: usize,
    toward: Mechanism,
) -> Option<ParallelConfig> {
    let mut cfg = config.clone();
    let mut guard = cfg.stage_mut(stage);
    let s: &mut StageConfig = &mut guard;
    for (j, op) in s.ops.iter_mut().enumerate() {
        let limit = model.ops[s.op_start + j].tp_limit;
        match toward {
            Mechanism::Tp => {
                if op.dp < 2 || op.tp * 2 > limit {
                    return None;
                }
                op.tp *= 2;
                op.dp /= 2;
            }
            Mechanism::Dp => {
                if op.tp < 2 {
                    return None;
                }
                op.tp /= 2;
                op.dp *= 2;
            }
        }
        clamp_zero(op);
    }
    drop(guard);
    fix_microbatch(&mut cfg, model)?;
    crate::invariants::assert_structure(model, &cfg, "convert_stage");
    Some(cfg)
}

/// Converts parallelism for the ops `[start..]` of a stage only — the
/// fine-tuning pass's flexible in-stage tp/dp combination (§4.2). The
/// resharding cost this introduces at the `start` boundary is charged by
/// the performance model.
pub fn convert_suffix(
    model: &ModelGraph,
    config: &ParallelConfig,
    stage: usize,
    start: usize,
    toward: Mechanism,
) -> Option<ParallelConfig> {
    if start >= config.stages()[stage].ops.len() {
        return None;
    }
    let mut cfg = config.clone();
    let mut guard = cfg.stage_mut(stage);
    let s: &mut StageConfig = &mut guard;
    for (j, op) in s.ops.iter_mut().enumerate().skip(start) {
        let limit = model.ops[s.op_start + j].tp_limit;
        match toward {
            Mechanism::Tp => {
                if op.dp < 2 || op.tp * 2 > limit {
                    return None;
                }
                op.tp *= 2;
                op.dp /= 2;
            }
            Mechanism::Dp => {
                if op.tp < 2 {
                    return None;
                }
                op.tp /= 2;
                op.dp *= 2;
            }
        }
        clamp_zero(op);
    }
    drop(guard);
    fix_microbatch(&mut cfg, model)?;
    crate::invariants::assert_structure(model, &cfg, "convert_suffix");
    Some(cfg)
}

/// Scales the global microbatch by ×2 (`up`) or ÷2, keeping every dp
/// constraint and batch divisibility intact.
pub fn scale_microbatch(
    model: &ModelGraph,
    config: &ParallelConfig,
    up: bool,
) -> Option<ParallelConfig> {
    let mut cfg = config.clone();
    let m = if up {
        cfg.microbatch.checked_mul(2)?
    } else {
        cfg.microbatch / 2
    };
    if m == 0 || m > model.global_batch || !model.global_batch.is_multiple_of(m) {
        return None;
    }
    let max_dp = cfg
        .stages()
        .iter()
        .flat_map(|s| s.ops.iter().map(|o| o.dp as usize))
        .max()
        .unwrap_or(1);
    if m % max_dp != 0 && max_dp % m != 0 {
        return None;
    }
    if m < max_dp {
        return None;
    }
    cfg.microbatch = m;
    crate::invariants::assert_structure(model, &cfg, "scale_microbatch");
    Some(cfg)
}

/// Raises the microbatch to the smallest valid value ≥ every dp after a
/// concurrency change. Returns `None` when no valid microbatch exists.
fn fix_microbatch(cfg: &mut ParallelConfig, model: &ModelGraph) -> Option<()> {
    let max_dp = cfg
        .stages()
        .iter()
        .flat_map(|s| s.ops.iter().map(|o| o.dp as usize))
        .max()
        .unwrap_or(1);
    let mut m = cfg.microbatch.max(1);
    while m < max_dp || !m.is_multiple_of(max_dp) {
        m *= 2;
        if m > model.global_batch {
            return None;
        }
    }
    if !model.global_batch.is_multiple_of(m) {
        return None;
    }
    cfg.microbatch = m;
    Some(())
}

/// Sets recompute flags of the `k` largest-stash operators in a stage (the
/// paper's greedy inc-rc argument choice, §4.1). `k == usize::MAX` flags
/// all.
pub fn recompute_largest(
    model: &ModelGraph,
    config: &ParallelConfig,
    stage: usize,
    k: usize,
) -> Option<ParallelConfig> {
    let s = &config.stages()[stage];
    let mut order: Vec<usize> = (0..s.ops.len()).filter(|&j| !s.ops[j].recompute).collect();
    if order.is_empty() {
        return None;
    }
    order.sort_by_key(|&j| std::cmp::Reverse(model.ops[s.op_start + j].stash_elems));
    let cfg = with_recompute(config, stage, order.into_iter().take(k), true);
    crate::invariants::assert_structure(model, &cfg, "recompute_largest");
    Some(cfg)
}

/// Clears recompute flags of the `k` smallest-stash recomputed operators in
/// a stage (dec-rc). `k == usize::MAX` clears all.
pub fn uncompute_smallest(
    model: &ModelGraph,
    config: &ParallelConfig,
    stage: usize,
    k: usize,
) -> Option<ParallelConfig> {
    let s = &config.stages()[stage];
    let mut order: Vec<usize> = (0..s.ops.len()).filter(|&j| s.ops[j].recompute).collect();
    if order.is_empty() {
        return None;
    }
    order.sort_by_key(|&j| model.ops[s.op_start + j].stash_elems);
    let cfg = with_recompute(config, stage, order.into_iter().take(k), false);
    crate::invariants::assert_structure(model, &cfg, "uncompute_smallest");
    Some(cfg)
}

/// `config` with the recompute flag of the operators at local indices
/// `ops` of `stage` set to `on`; the one stage is copied and rehashed
/// once.
pub(crate) fn with_recompute(
    config: &ParallelConfig,
    stage: usize,
    ops: impl IntoIterator<Item = usize>,
    on: bool,
) -> ParallelConfig {
    let mut cfg = config.clone();
    let mut s = cfg.stage_mut(stage);
    for j in ops {
        s.ops[j].recompute = on;
    }
    drop(s);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_cluster::ClusterSpec;
    use aceso_config::balanced_init;
    use aceso_config::validate::validate;
    use aceso_model::zoo::gpt3_custom;

    fn setup() -> (ModelGraph, ClusterSpec, ParallelConfig) {
        let model = gpt3_custom("t", 4, 512, 8, 256, 8192, 64);
        let cluster = ClusterSpec::v100(1, 8);
        let cfg = balanced_init(&model, &cluster, 2).expect("init");
        (model, cluster, cfg)
    }

    #[test]
    fn move_ops_preserves_partition() {
        let (m, c, cfg) = setup();
        let moved = move_ops(&m, &cfg, 0, 1, 3).expect("move ok");
        assert!(validate(&moved, &m, &c).is_ok());
        assert_eq!(moved.stages()[0].num_ops(), cfg.stages()[0].num_ops() - 3);
        assert_eq!(moved.stages()[1].num_ops(), cfg.stages()[1].num_ops() + 3);
    }

    #[test]
    fn move_ops_backward() {
        let (m, c, cfg) = setup();
        let moved = move_ops(&m, &cfg, 1, 0, 2).expect("move ok");
        assert!(validate(&moved, &m, &c).is_ok());
        assert_eq!(moved.stages()[0].op_end, cfg.stages()[0].op_end + 2);
    }

    #[test]
    fn move_ops_rejects_emptying() {
        let (m, _, cfg) = setup();
        let n0 = cfg.stages()[0].num_ops();
        assert!(move_ops(&m, &cfg, 0, 1, n0).is_none());
        assert!(move_ops(&m, &cfg, 0, 1, 0).is_none());
        assert!(move_ops(&m, &cfg, 0, 0, 1).is_none());
    }

    #[test]
    fn grow_with_donor_rebalances_gpus() {
        let (m, c, cfg) = setup();
        // Stage 0 doubles 4→8 funded by stage 1 halving 4→... needs 4,
        // donor gives 2 — insufficient; instead grow stage with both equal
        // requires donors summing to 4: stage 1 gives 2 only. Expect None.
        let r = grow_stage(&m, &cfg, 0, Mechanism::Dp, &[1]);
        assert!(r.is_none());
        // A 4-stage config [2,2,2,2]: stage 0 needs 2, stage 1 gives 1 and
        // stage 2 gives 1.
        let cfg4 = balanced_init(&m, &ClusterSpec::v100(1, 8), 4).expect("init");
        let grown = grow_stage(&m, &cfg4, 0, Mechanism::Dp, &[1, 2]).expect("grow ok");
        assert!(validate(&grown, &m, &c).is_ok());
        assert_eq!(grown.stages()[0].gpus, 4);
        assert_eq!(grown.stages()[1].gpus, 1);
        assert_eq!(grown.stages()[2].gpus, 1);
        assert_eq!(grown.stages()[3].gpus, 2);
    }

    #[test]
    fn shrink_redistributes_gpus() {
        let (m, c, _) = setup();
        let cfg4 = balanced_init(&m, &ClusterSpec::v100(1, 8), 4).expect("init");
        // Stage 3 shrinks 2→1, freeing 1; stage 2 (1 gpu... ) — sizes are
        // [2,2,2,2], so freed=1 goes to a 1-gpu stage; none exists → fail.
        assert!(shrink_stage(&m, &cfg4, 3, &[2], Mechanism::Dp).is_none());
        // Grow first to create [4,1,1,2], then shrink stage 0: frees 2 →
        // stage 3 has exactly 2? take=2 == remaining ✓.
        let grown = grow_stage(&m, &cfg4, 0, Mechanism::Dp, &[1, 2]).expect("grow");
        let shrunk = shrink_stage(&m, &grown, 0, &[3], Mechanism::Dp).expect("shrink");
        assert!(validate(&shrunk, &m, &c).is_ok());
        assert_eq!(shrunk.stages()[0].gpus, 2);
        assert_eq!(shrunk.stages()[3].gpus, 4);
    }

    #[test]
    fn convert_dp_to_tp_and_back() {
        let (m, c, cfg) = setup();
        let tp = convert_stage(&m, &cfg, 0, Mechanism::Tp).expect("convert");
        assert!(validate(&tp, &m, &c).is_ok());
        assert!(tp.stages()[0].ops.iter().all(|o| o.tp == 2 && o.dp == 2));
        let back = convert_stage(&m, &tp, 0, Mechanism::Dp).expect("convert back");
        assert_eq!(back.semantic_hash(), cfg.semantic_hash());
    }

    #[test]
    fn convert_respects_tp_limit() {
        let (m, c, _) = setup();
        // One 8-GPU stage, dp=8: conversions reach tp=8 (the attention head
        // limit); a fourth conversion would need tp=16 and must fail.
        let mut cur = balanced_init(&m, &c, 1).expect("init");
        for _ in 0..3 {
            cur = convert_stage(&m, &cur, 0, Mechanism::Tp).expect("convert");
            assert!(validate(&cur, &m, &c).is_ok());
        }
        assert!(convert_stage(&m, &cur, 0, Mechanism::Tp).is_none());
    }

    #[test]
    fn microbatch_scaling() {
        let (m, _, cfg) = setup();
        let up = scale_microbatch(&m, &cfg, true).expect("scale up");
        assert_eq!(up.microbatch, cfg.microbatch * 2);
        let down = scale_microbatch(&m, &up, false).expect("scale down");
        assert_eq!(down.microbatch, cfg.microbatch);
        // Can't go below dp.
        assert!(scale_microbatch(&m, &cfg, false).is_none());
    }

    #[test]
    fn recompute_flags_largest_first() {
        let (m, _, cfg) = setup();
        let rc = recompute_largest(&m, &cfg, 0, 1).expect("rc");
        let flagged: Vec<usize> = rc.stages()[0]
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.recompute)
            .map(|(j, _)| j)
            .collect();
        assert_eq!(flagged.len(), 1);
        let j = flagged[0];
        let max_stash = cfg.stages()[0]
            .ops
            .iter()
            .enumerate()
            .map(|(i, _)| m.ops[cfg.stages()[0].op_start + i].stash_elems)
            .max()
            .unwrap();
        assert_eq!(m.ops[cfg.stages()[0].op_start + j].stash_elems, max_stash);
    }

    #[test]
    fn uncompute_roundtrip() {
        let (m, _, cfg) = setup();
        let all = recompute_largest(&m, &cfg, 0, usize::MAX).expect("rc all");
        assert_eq!(all.stages()[0].num_recomputed(), all.stages()[0].num_ops());
        let none = uncompute_smallest(&m, &all, 0, usize::MAX).expect("unrc");
        assert_eq!(none.stages()[0].num_recomputed(), 0);
        assert!(uncompute_smallest(&m, &cfg, 0, 1).is_none());
    }

    #[test]
    fn convert_suffix_creates_in_stage_mix() {
        let (m, c, _) = setup();
        let cfg = balanced_init(&m, &c, 1).expect("init");
        let n = cfg.stages()[0].num_ops();
        let mixed = convert_suffix(&m, &cfg, 0, n / 2, Mechanism::Tp).expect("suffix converts");
        assert!(validate(&mixed, &m, &c).is_ok());
        let first = mixed.stages()[0].ops[0];
        let last = mixed.stages()[0].ops[n - 1];
        assert_eq!(first.tp, 1);
        assert_eq!(last.tp, 2);
        assert_eq!(last.dp * last.tp, first.dp * first.tp);
        // Out-of-range start is rejected.
        assert!(convert_suffix(&m, &cfg, 0, n, Mechanism::Tp).is_none());
    }

    #[test]
    fn grow_bumps_microbatch_when_dp_requires() {
        // Doubling dp beyond the current microbatch must raise it, keeping
        // the aggregated semantics valid.
        let (m, c, _) = setup();
        let cfg4 = balanced_init(&m, &ClusterSpec::v100(1, 8), 4).expect("init");
        assert_eq!(cfg4.microbatch, 2);
        let grown = grow_stage(&m, &cfg4, 0, Mechanism::Dp, &[1, 2]).expect("grow");
        assert!(validate(&grown, &m, &c).is_ok());
        // Stage 0 now has dp=4 > old microbatch 2 → microbatch bumped.
        assert!(grown.microbatch >= 4);
    }

    #[test]
    fn dp_reducing_transforms_clamp_zero() {
        let (m, c, mut cfg) = setup();
        // dp=4 stages with zero on; converting toward tp repeatedly drives
        // dp to 1, and the zero flag must drop with it.
        for mut s in cfg.stages_mut() {
            for o in &mut s.ops {
                o.zero = true;
            }
        }
        assert!(validate(&cfg, &m, &c).is_ok());
        let mut cur = cfg;
        while let Some(next) = convert_stage(&m, &cur, 0, Mechanism::Tp) {
            assert!(
                validate(&next, &m, &c).is_ok(),
                "zero must be clamped when dp hits 1"
            );
            cur = next;
        }
        assert!(cur.stages()[0].ops.iter().any(|o| o.dp == 1 && !o.zero));

        // halve_stage_inplace path (via shrink/grow) also clamps.
        let cfg4 = balanced_init(&m, &ClusterSpec::v100(1, 8), 4).expect("init");
        let mut zeroed = cfg4;
        for mut s in zeroed.stages_mut() {
            for o in &mut s.ops {
                o.zero = o.dp > 1;
            }
        }
        if let Some(grown) = grow_stage(&m, &zeroed, 0, Mechanism::Dp, &[1, 2]) {
            assert!(validate(&grown, &m, &ClusterSpec::v100(1, 8)).is_ok());
        }
    }

    #[test]
    fn clamp_tp_respects_divisibility() {
        assert_eq!(clamp_tp(8, 64, 8), 8);
        assert_eq!(clamp_tp(8, 4, 8), 4);
        assert_eq!(clamp_tp(5, 64, 8), 4);
        assert_eq!(clamp_tp(16, 64, 8), 8);
        assert_eq!(clamp_tp(0, 64, 8), 1);
    }

    #[test]
    fn move_ops_adopts_receiver_settings() {
        let (m, c, _) = setup();
        // Give stage 1 a distinctive setting; moved ops should copy it.
        let mut cfg = balanced_init(&m, &c, 2).expect("init");
        cfg = convert_stage(&m, &cfg, 1, Mechanism::Tp).expect("convert");
        let moved = move_ops(&m, &cfg, 0, 1, 2).expect("move");
        assert!(validate(&moved, &m, &c).is_ok());
        let adopted = moved.stages()[1].ops[0];
        // New front ops run at the receiving stage's gpu budget.
        assert_eq!(adopted.gpus() as usize, moved.stages()[1].gpus);
    }
}
