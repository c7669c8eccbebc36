//! Structure-of-arrays latency grid: the hot-path replacement for
//! [`ProfileDb`] hash lookups.
//!
//! The profile database is a lock-guarded hash map; every per-op forward
//! time costs a `RwLock` read plus a hash probe. The performance model
//! queries the same small key space millions of times per search, so
//! [`LatencyGrid`] flattens it into one contiguous `Vec<f64>` indexed by
//! `[op-row][partition-dim][log2 tp][log2 batch]` at construction time.
//! Values are copied out of the database verbatim (the database is a memo
//! over a pure measurement function), so a grid hit is **bit-identical**
//! to the database lookup it replaces; keys outside the grid (non
//! power-of-two degrees, out-of-range batches) fall back to the database.

use aceso_cluster::ClusterSpec;
use aceso_model::ModelGraph;
use aceso_profile::ProfileDb;
use std::collections::HashMap;

/// Flattened per-operator forward-latency table.
///
/// Rows are deduplicated by profile signature, exactly like the database
/// prefill: a 40-layer GPT with identical layers contributes a handful of
/// rows, each shared by every operator index with that signature.
#[derive(Debug, Clone)]
pub struct LatencyGrid {
    /// Row index per global operator index (`model.ops` order).
    row_of: Vec<u32>,
    /// Partition-dimension slots per row (max over all operators).
    dims: usize,
    /// Power-of-two tensor-parallel levels: `tp = 1 << level`.
    tp_levels: usize,
    /// Power-of-two per-device batch levels: `batch = 1 << level`.
    batch_levels: usize,
    /// `rows × dims × tp_levels × batch_levels` latencies, `NaN` where the
    /// slot is outside the operator's profiled range.
    values: Vec<f64>,
}

impl LatencyGrid {
    /// Builds the grid for `model` on `cluster`, copying every in-range
    /// latency out of `db`. `sigs` are the precomputed per-op profile
    /// signatures (`model.ops` order).
    pub fn build(model: &ModelGraph, cluster: &ClusterSpec, db: &ProfileDb, sigs: &[u64]) -> Self {
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

        let mut row_of = Vec::with_capacity(model.ops.len());
        let mut rows: HashMap<u64, u32> = HashMap::new();
        let mut values: Vec<f64> = Vec::new();
        for (g, op) in model.ops.iter().enumerate() {
            let sig = sigs[g];
            let row = *rows.entry(sig).or_insert_with(|| {
                let row = (values.len() / (dims * tp_levels * batch_levels)) as u32;
                for dim in 0..dims {
                    for tpl in 0..tp_levels {
                        let tp = 1u32 << tpl;
                        for bl in 0..batch_levels {
                            let batch = 1u64 << bl;
                            let in_range = dim < op.partitions.len() && tp <= op.tp_limit;
                            values.push(if in_range {
                                db.op_fwd_time_sig(sig, op, tp, dim, batch)
                            } else {
                                f64::NAN
                            });
                        }
                    }
                }
                row
            });
            row_of.push(row);
        }
        Self {
            row_of,
            dims,
            tp_levels,
            batch_levels,
            values,
        }
    }

    /// Forward latency of operator `g` at `(tp, dim, per_dev_batch)`, or
    /// `None` when the key falls outside the grid (caller falls back to
    /// the profile database, which returns the same value a grid slot
    /// would have held).
    #[inline]
    pub fn lookup(&self, g: usize, tp: u32, dim: usize, per_dev_batch: u64) -> Option<f64> {
        let batch = per_dev_batch.max(1);
        if !tp.is_power_of_two() || !batch.is_power_of_two() || dim >= self.dims {
            return None;
        }
        let tpl = tp.trailing_zeros() as usize;
        let bl = batch.trailing_zeros() as usize;
        if tpl >= self.tp_levels || bl >= self.batch_levels {
            return None;
        }
        let row = self.row_of[g] as usize;
        let idx = ((row * self.dims + dim) * self.tp_levels + tpl) * self.batch_levels + bl;
        let v = self.values[idx];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Number of populated (non-`NaN`) grid slots.
    pub fn populated(&self) -> usize {
        self.values.iter().filter(|v| !v.is_nan()).count()
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

    fn grid_for(m: &ModelGraph, c: &ClusterSpec, db: &ProfileDb) -> LatencyGrid {
        let sigs: Vec<u64> = m.ops.iter().map(ProfileDb::op_signature).collect();
        LatencyGrid::build(m, c, db, &sigs)
    }

    #[test]
    fn grid_hits_are_bit_identical_to_db() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let grid = grid_for(&m, &c, &db);
        assert!(grid.populated() > 0);
        for (g, op) in m.ops.iter().enumerate() {
            for dim in 0..op.partitions.len() {
                let mut tp = 1u32;
                while tp <= (c.total_gpus() as u32).min(op.tp_limit) {
                    for batch in [1u64, 2, 4, 16, 64] {
                        if batch > m.global_batch as u64 {
                            continue;
                        }
                        let hit = grid.lookup(g, tp, dim, batch).expect("in-range slot");
                        let want = db.op_fwd_time(op, tp, dim, batch);
                        assert_eq!(hit.to_bits(), want.to_bits(), "g={g} tp={tp} b={batch}");
                    }
                    tp *= 2;
                }
            }
        }
    }

    #[test]
    fn out_of_range_keys_miss() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let grid = grid_for(&m, &c, &db);
        // Non-power-of-two degrees and oversized batches must fall back.
        assert!(grid.lookup(0, 3, 0, 4).is_none());
        assert!(grid.lookup(0, 1, 0, 3).is_none());
        assert!(grid.lookup(0, 1, 0, 1 << 40).is_none());
        assert!(grid.lookup(0, 1, 99, 4).is_none());
        // tp beyond the cluster misses too.
        assert!(grid.lookup(0, 1 << 20, 0, 4).is_none());
    }

    #[test]
    fn zero_batch_clamps_to_one() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let grid = grid_for(&m, &c, &db);
        assert_eq!(
            grid.lookup(0, 1, 0, 0).map(f64::to_bits),
            grid.lookup(0, 1, 0, 1).map(f64::to_bits)
        );
    }
}
