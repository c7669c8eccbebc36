//! Per-operator cost grid: every cost term of an operator, compiled once
//! per performance model so a stage estimate is a walk over table rows.
//!
//! A stage estimate needs, per operator and `(tp, partition dim,
//! per-device batch)` key, the profiled forward latency, the in-node
//! tensor-parallel all-reduce times, the parameters per rank, the working
//! set, and the stash and recompute-input bytes. `op_cost` computes that
//! [`OpCost`] record from the [`ProfileDb`]; [`CostGrid`] holds one record
//! per `[row][partition-dim][log2 tp][log2 batch]` slot, filled at
//! construction by the same function.
//!
//! **Bit-identity.** A record holds exactly the values the database and
//! collective queries return for its key: the forward latency is the
//! database's value for the key (a pure function of it, profiled or
//! measured on demand), and the other terms are the same calls made on
//! the same arguments. The per-rank collectives run over
//! `contiguous(0, tp)`. While a tp group stays inside one node its time
//! depends only on the payload and `tp`, so a slot serves every stage
//! whose tp group does (a tp wider than a node always crosses, and always
//! falls back). The model folds the records
//! in op order with the additions it always made, so every f64 of an
//! estimate is the same value summed in the same order. Keys outside the
//! grid (non power-of-two degrees or batches, operator-dependent
//! out-of-range slots) and tp groups that cross a node go to
//! [`CostGrid::compute`], the one fallback, which calls `op_cost` too.

use aceso_cluster::{ClusterSpec, Collective, CommGroup};
use aceso_model::{Layout, ModelGraph, Operator, Scaling};
use aceso_profile::ProfileDb;
use std::collections::HashMap;

/// One operator's cost terms at one `(tp, partition dim, per-device
/// batch)` key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCost {
    /// Profiled forward latency, seconds.
    pub fwd: f64,
    /// Forward tensor-parallel all-reduce time, seconds (0 at `tp == 1`).
    pub tp_fwd: f64,
    /// Backward tensor-parallel all-reduce time, seconds.
    pub tp_bwd: f64,
    /// Parameter elements held by one tp rank.
    pub params_rank: u64,
    /// Working-set bytes of one execution.
    pub working_set: u64,
    /// Activation bytes stashed per microbatch when not recomputed.
    pub stash_bytes: u64,
    /// Input bytes kept per microbatch when the op starts a recompute run.
    pub recompute_in_bytes: u64,
}

impl OpCost {
    /// Placeholder of a slot outside the operator's profiled range.
    const MISSING: OpCost = OpCost {
        fwd: f64::NAN,
        tp_fwd: 0.0,
        tp_bwd: 0.0,
        params_rank: 0,
        working_set: 0,
        stash_bytes: 0,
        recompute_in_bytes: 0,
    };
}

/// Activation elements of `elems` held by one rank under `layout` and
/// `scaling` at `tp` (sharding only exists when `tp > 1`).
fn elems_per_rank(elems: u64, layout: Layout, scaling: Scaling, tp: u32) -> u64 {
    match (scaling, layout) {
        (Scaling::Divided, Layout::Sharded) if tp > 1 => elems / u64::from(tp),
        _ => elems,
    }
}

/// The cost function: `op`'s record at `(tp, dim, per_dev_batch)`, with
/// its profiled forward latency looked up under signature `sig` and its
/// tp all-reduces over `tp_group`.
#[allow(clippy::too_many_arguments)]
fn op_cost(
    db: &ProfileDb,
    op: &Operator,
    sig: u64,
    act_bytes: u64,
    tp: u32,
    dim: usize,
    per_dev_batch: u64,
    tp_group: &CommGroup,
) -> OpCost {
    let fwd = db.op_fwd_time_sig(sig, op, tp, dim, per_dev_batch);
    let spec = op.partition(dim);
    let (tp_fwd, tp_bwd) = if tp > 1 {
        let fwd_bytes = spec.fwd_comm_elems * per_dev_batch * act_bytes;
        let bwd_bytes = spec.bwd_comm_elems * per_dev_batch * act_bytes;
        (
            db.collective_time(Collective::AllReduce, fwd_bytes, tp_group),
            db.collective_time(Collective::AllReduce, bwd_bytes, tp_group),
        )
    } else {
        (0.0, 0.0)
    };
    let in_rank = elems_per_rank(op.input_elems, spec.input_layout, spec.scaling, tp);
    OpCost {
        fwd,
        tp_fwd,
        tp_bwd,
        params_rank: op.params_per_rank(dim, tp),
        working_set: db.op_working_set(op, tp, dim, per_dev_batch),
        stash_bytes: op.stash_per_rank(dim, tp) * per_dev_batch * act_bytes,
        recompute_in_bytes: in_rank * per_dev_batch * act_bytes,
    }
}

/// Flattened per-operator cost table.
///
/// Rows are deduplicated by profile signature and partition specs: a
/// 40-layer GPT with identical layers contributes a handful of rows, each
/// shared by every operator index with that content.
#[derive(Debug)]
pub struct CostGrid {
    /// Row index per global operator index (`model.ops` order).
    row_of: Vec<u32>,
    /// Profile signature per global operator index (fallback lookup key).
    sig_of: Vec<u64>,
    /// Bytes per activation element (the model's precision).
    act_bytes: u64,
    /// Partition-dimension slots per row (max over all operators).
    dims: usize,
    /// Power-of-two tensor-parallel levels: `tp = 1 << level`.
    tp_levels: usize,
    /// Power-of-two per-device batch levels: `batch = 1 << level`.
    batch_levels: usize,
    /// `rows × dims × tp_levels × batch_levels` records; a `NaN` forward
    /// latency marks a slot outside the operator's profiled range.
    slots: Vec<OpCost>,
}

impl CostGrid {
    /// Builds the grid for `model` on `cluster`, filling every in-range
    /// slot from `db` in one pass.
    pub fn build(model: &ModelGraph, cluster: &ClusterSpec, db: &ProfileDb) -> Self {
        let max_tp = (cluster.total_gpus().max(1)) as u32;
        let max_batch = (model.global_batch.max(1)) as u64;
        let tp_levels = (max_tp.ilog2() + 1) as usize;
        let batch_levels = (max_batch.ilog2() + 1) as usize;
        let dims = model
            .ops
            .iter()
            .map(|o| o.partitions.len())
            .max()
            .unwrap_or(1)
            .max(1);
        let act_bytes = model.precision.bytes();
        let sig_of: Vec<u64> = model.ops.iter().map(ProfileDb::op_signature).collect();

        // One representative operator per distinct (signature, partitions).
        let mut row_of = Vec::with_capacity(model.ops.len());
        let mut reps: Vec<usize> = Vec::new();
        let mut by_sig: HashMap<u64, Vec<u32>> = HashMap::new();
        for (g, op) in model.ops.iter().enumerate() {
            let same_sig = by_sig.entry(sig_of[g]).or_default();
            let row = match same_sig
                .iter()
                .find(|&&r| model.ops[reps[r as usize]].partitions == op.partitions)
            {
                Some(&r) => r,
                None => {
                    let r = reps.len() as u32;
                    reps.push(g);
                    same_sig.push(r);
                    r
                }
            };
            row_of.push(row);
        }

        // Bit-identity (module docs): each slot is `op_cost` on the
        // arguments the fold would pass for an in-node tp group.
        let mut slots = Vec::with_capacity(reps.len() * dims * tp_levels * batch_levels);
        for &g in &reps {
            let op = &model.ops[g];
            for dim in 0..dims {
                for tpl in 0..tp_levels {
                    let tp = 1u32 << tpl;
                    let group = CommGroup::contiguous(0, tp as usize);
                    for bl in 0..batch_levels {
                        slots.push(if dim < op.partitions.len() && tp <= op.tp_limit {
                            op_cost(db, op, sig_of[g], act_bytes, tp, dim, 1 << bl, &group)
                        } else {
                            OpCost::MISSING
                        });
                    }
                }
            }
        }
        Self {
            row_of,
            sig_of,
            act_bytes,
            dims,
            tp_levels,
            batch_levels,
            slots,
        }
    }

    /// Offset of the `(tp, dim, per_dev_batch)` slot within a row, or
    /// `None` when the key falls outside the grid. One offset serves
    /// every operator of a settings run: [`Self::at`] adds the row. The
    /// tp collectives in a slot are in-node ones; a caller whose tp
    /// group crosses a node uses [`Self::compute`] instead.
    #[inline]
    pub fn key_offset(&self, tp: u32, dim: usize, per_dev_batch: u64) -> Option<usize> {
        if !tp.is_power_of_two() || !per_dev_batch.is_power_of_two() || dim >= self.dims {
            return None;
        }
        let tpl = tp.trailing_zeros() as usize;
        let bl = per_dev_batch.trailing_zeros() as usize;
        if tpl >= self.tp_levels || bl >= self.batch_levels {
            return None;
        }
        Some((dim * self.tp_levels + tpl) * self.batch_levels + bl)
    }

    /// Record of operator `g` at a [`Self::key_offset`], or `None` when
    /// the slot lies outside the operator's profiled range.
    #[inline]
    pub fn at(&self, g: usize, offset: usize) -> Option<&OpCost> {
        let row_len = self.dims * self.tp_levels * self.batch_levels;
        let slot = &self.slots[self.row_of[g] as usize * row_len + offset];
        (!slot.fwd.is_nan()).then_some(slot)
    }

    /// The fallback: operator `g`'s record computed from `db` with its
    /// tp all-reduces over `tp_group`, equal to the grid slot wherever
    /// one exists for the same group.
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        &self,
        db: &ProfileDb,
        op: &Operator,
        g: usize,
        tp: u32,
        dim: usize,
        per_dev_batch: u64,
        tp_group: &CommGroup,
    ) -> OpCost {
        op_cost(
            db,
            op,
            self.sig_of[g],
            self.act_bytes,
            tp,
            dim,
            per_dev_batch,
            tp_group,
        )
    }

    /// Number of populated (in-range) grid slots.
    pub fn populated(&self) -> usize {
        self.slots.iter().filter(|s| !s.fwd.is_nan()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;

    fn setup() -> (ModelGraph, ClusterSpec) {
        (
            gpt3_custom("g", 2, 256, 4, 128, 1000, 64),
            ClusterSpec::v100(1, 4),
        )
    }

    /// Every populated slot holds, bit for bit, what the database and
    /// collective queries return for its key over the group
    /// `contiguous(0, tp)`.
    fn assert_slots_match_db(m: &ModelGraph, c: &ClusterSpec) {
        let db = ProfileDb::build(m, c);
        let grid = CostGrid::build(m, c, &db);
        assert!(grid.populated() > 0);
        let act = m.precision.bytes();
        let mut checked = 0;
        for (g, op) in m.ops.iter().enumerate() {
            for dim in 0..op.partitions.len() {
                let spec = &op.partitions[dim];
                let mut tp = 1u32;
                while tp <= (c.total_gpus() as u32).min(op.tp_limit) {
                    let group = CommGroup::contiguous(0, tp as usize);
                    let mut b = 1u64;
                    while b <= m.global_batch as u64 {
                        let offset = grid.key_offset(tp, dim, b).expect("key on the grid");
                        let hit = grid.at(g, offset).expect("in-range slot");
                        let ar = |elems: u64| {
                            if tp > 1 {
                                db.collective_time(Collective::AllReduce, elems * b * act, &group)
                            } else {
                                0.0
                            }
                        };
                        let input =
                            elems_per_rank(op.input_elems, spec.input_layout, spec.scaling, tp);
                        let times = [hit.fwd, hit.tp_fwd, hit.tp_bwd].map(f64::to_bits);
                        let want = [
                            db.op_fwd_time(op, tp, dim, b),
                            ar(spec.fwd_comm_elems),
                            ar(spec.bwd_comm_elems),
                        ]
                        .map(f64::to_bits);
                        assert_eq!(times, want, "g={g} dim={dim} tp={tp} b={b}");
                        assert_eq!(
                            [
                                hit.params_rank,
                                hit.working_set,
                                hit.stash_bytes,
                                hit.recompute_in_bytes
                            ],
                            [
                                op.params_per_rank(dim, tp),
                                db.op_working_set(op, tp, dim, b),
                                op.stash_per_rank(dim, tp) * b * act,
                                input * b * act
                            ],
                            "g={g} dim={dim} tp={tp} b={b}"
                        );
                        assert_eq!(
                            *hit,
                            grid.compute(&db, op, g, tp, dim, b, &group),
                            "the fallback must agree with the slot"
                        );
                        checked += 1;
                        b *= 2;
                    }
                    tp *= 2;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn records_are_bit_identical_to_db_single_node() {
        let (m, c) = setup();
        assert_slots_match_db(&m, &c);
    }

    #[test]
    fn records_are_bit_identical_to_db_multi_node() {
        // tp 8 spans both 4-GPU nodes, so its slots hold cross-node times.
        let (m, _) = setup();
        assert_slots_match_db(&m, &ClusterSpec::v100(2, 4));
    }

    #[test]
    fn out_of_range_keys_miss() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let grid = CostGrid::build(&m, &c, &db);
        // Non-power-of-two degrees and oversized batches must fall back.
        assert!(grid.key_offset(3, 0, 4).is_none());
        assert!(grid.key_offset(1, 0, 3).is_none());
        assert!(grid.key_offset(1, 0, 1 << 40).is_none());
        assert!(grid.key_offset(1, 99, 4).is_none());
        // tp beyond the cluster misses too.
        assert!(grid.key_offset(1 << 20, 0, 4).is_none());
    }
}
