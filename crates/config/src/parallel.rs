//! The configuration data structures and their semantic hash.
//!
//! A [`ParallelConfig`] holds its stages as shared, hashed [`Stage`]s.
//! Each stage's content hash is computed once, when the stage is built
//! or edited, and a configuration's fingerprint folds those hashes
//! (INV-STAGE-HASH in docs/SEARCH.md).

use aceso_cluster::DeviceRange;
use aceso_util::json::{obj, FromJson, JsonError, ToJson, Value};
use aceso_util::FnvHasher;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Per-operator parallelism settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpParallel {
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Data-parallel degree (`tp · dp` equals the stage's GPU count).
    pub dp: u32,
    /// Index into the operator's `partitions` list (partition dimension).
    pub dim_index: u8,
    /// Whether this operator's activations are recomputed in backward.
    pub recompute: bool,
    /// ZeRO-1 extension: shard this operator's optimiser states across its
    /// data-parallel group (trades an extra parameter all-gather per
    /// iteration for `1/dp` of the optimiser memory). Not part of the
    /// paper's Table 1 — see `aceso_core::primitives` for the extension
    /// primitives that toggle it.
    pub zero: bool,
}

impl OpParallel {
    /// Pure data parallelism over `gpus` devices.
    pub fn data_parallel(gpus: u32) -> Self {
        Self {
            tp: 1,
            dp: gpus,
            dim_index: 0,
            recompute: false,
            zero: false,
        }
    }

    /// Total devices this operator runs on.
    pub fn gpus(&self) -> u32 {
        self.tp * self.dp
    }
}

/// One pipeline stage: a contiguous operator range on a device group.
///
/// A plain value: build or edit one freely, then seal it into a
/// [`ParallelConfig`], which holds each stage as a shared, hashed
/// [`Stage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageConfig {
    /// First operator index (inclusive).
    pub op_start: usize,
    /// One-past-last operator index (exclusive).
    pub op_end: usize,
    /// Devices assigned to this stage.
    pub gpus: usize,
    /// Per-operator settings, `op_end - op_start` entries.
    pub ops: Vec<OpParallel>,
}

impl StageConfig {
    /// Creates a stage where every operator shares one `(tp, dp)` setting.
    pub fn uniform(op_start: usize, op_end: usize, para: OpParallel) -> Self {
        Self {
            op_start,
            op_end,
            gpus: para.gpus() as usize,
            ops: vec![para; op_end - op_start],
        }
    }

    /// Number of operators in the stage.
    pub fn num_ops(&self) -> usize {
        self.op_end - self.op_start
    }

    /// Number of recomputed operators in the stage.
    pub fn num_recomputed(&self) -> usize {
        self.ops.iter().filter(|o| o.recompute).count()
    }

    /// Settings of the operator with *global* index `op`, if it lies in
    /// this stage.
    pub fn op_parallel(&self, op: usize) -> Option<&OpParallel> {
        if op >= self.op_start && op < self.op_end {
            self.ops.get(op - self.op_start)
        } else {
            None
        }
    }

    /// The stage's content hash, computed from scratch: FNV over the op
    /// range, the device count and the per-op settings. The settings
    /// are run-length encoded, so the cost follows the number of
    /// *distinct* settings runs. [`Stage::content_hash`] caches it.
    pub fn compute_content_hash(&self) -> u64 {
        let mut h = FnvHasher::new();
        h.write_usize(self.op_start);
        h.write_usize(self.op_end);
        h.write_usize(self.gpus);
        let mut i = 0;
        while i < self.ops.len() {
            let o = self.ops[i];
            let mut run = 1;
            while i + run < self.ops.len() && self.ops[i + run] == o {
                run += 1;
            }
            h.write_usize(run);
            h.write_u64(u64::from(o.tp));
            h.write_u64(u64::from(o.dp));
            h.write_u64(u64::from(o.dim_index));
            h.write_bool(o.recompute);
            h.write_bool(o.zero);
            i += run;
        }
        h.finish()
    }
}

/// A [`StageConfig`] sealed with its content hash (INV-STAGE-HASH in
/// docs/SEARCH.md).
///
/// The fields are private and there is no `DerefMut`: a stage inside a
/// [`ParallelConfig`] changes only through [`ParallelConfig::stage_mut`],
/// whose guard rehashes when it drops. So the cached hash always equals
/// [`StageConfig::compute_content_hash`] of the settings beside it.
#[derive(Clone)]
pub struct Stage {
    config: StageConfig,
    hash: u64,
}

impl Stage {
    /// Seals `config`, hashing it once.
    pub fn new(config: StageConfig) -> Self {
        let hash = config.compute_content_hash();
        Self { config, hash }
    }

    /// The cached content hash.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

impl Deref for Stage {
    type Target = StageConfig;

    fn deref(&self) -> &StageConfig {
        &self.config
    }
}

impl PartialEq for Stage {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other) || (self.hash == other.hash && self.config == other.config)
    }
}

impl Eq for Stage {}

// The hash is derived state: a stage prints as its settings.
impl fmt::Debug for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.config.fmt(f)
    }
}

/// Write access to one stage of a [`ParallelConfig`], from
/// [`ParallelConfig::stage_mut`]. The stage is rehashed when the guard
/// drops.
pub struct StageMut<'a> {
    stage: &'a mut Stage,
}

impl Deref for StageMut<'_> {
    type Target = StageConfig;

    fn deref(&self) -> &StageConfig {
        &self.stage.config
    }
}

impl DerefMut for StageMut<'_> {
    fn deref_mut(&mut self) -> &mut StageConfig {
        &mut self.stage.config
    }
}

impl Drop for StageMut<'_> {
    fn drop(&mut self) {
        self.stage.hash = self.stage.config.compute_content_hash();
    }
}

/// A complete parallel configuration (paper Fig. 2).
///
/// Stages are shared [`Stage`]s: cloning a configuration copies one
/// pointer per stage, and a rewrite copies only the stages it touches
/// (copy-on-write through [`ParallelConfig::stage_mut`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelConfig {
    /// Pipeline stages in model order; their op ranges partition the model.
    stages: Vec<Arc<Stage>>,
    /// Global (aggregated) microbatch size; a stage replica with
    /// data-parallel degree `d` processes `microbatch / d` samples.
    pub microbatch: usize,
}

impl ParallelConfig {
    /// A configuration of `stages` (in model order) with the global
    /// `microbatch`. Hashes each stage once.
    pub fn new(stages: Vec<StageConfig>, microbatch: usize) -> Self {
        Self {
            stages: stages
                .into_iter()
                .map(|s| Arc::new(Stage::new(s)))
                .collect(),
            microbatch,
        }
    }

    /// The pipeline stages in model order.
    pub fn stages(&self) -> &[Arc<Stage>] {
        &self.stages
    }

    /// Write access to stage `i`. Copies the stage first when another
    /// configuration shares it, and rehashes it when the guard drops:
    /// keep one guard across a batch of edits to hash once.
    ///
    /// # Panics
    ///
    /// When `i` is out of range.
    pub fn stage_mut(&mut self, i: usize) -> StageMut<'_> {
        StageMut {
            stage: Arc::make_mut(&mut self.stages[i]),
        }
    }

    /// Write access to every stage in turn, as [`ParallelConfig::stage_mut`]
    /// gives to one.
    pub fn stages_mut(&mut self) -> impl Iterator<Item = StageMut<'_>> {
        self.stages.iter_mut().map(|s| StageMut {
            stage: Arc::make_mut(s),
        })
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total devices across stages.
    pub fn total_gpus(&self) -> usize {
        self.stages.iter().map(|s| s.gpus).sum()
    }

    /// Global GPU id range of stage `i` (stages own contiguous ranges in
    /// model order).
    pub fn device_range(&self, stage: usize) -> DeviceRange {
        let start = self.stages[..stage].iter().map(|s| s.gpus).sum();
        DeviceRange::new(start, self.stages[stage].gpus)
    }

    /// Number of microbatches per iteration for `global_batch`.
    pub fn num_microbatches(&self, global_batch: usize) -> usize {
        if self.microbatch == 0 {
            return 0;
        }
        global_batch / self.microbatch
    }

    /// The stage containing the operator with global index `op`.
    pub fn stage_of_op(&self, op: usize) -> Option<usize> {
        self.stages
            .iter()
            .position(|s| op >= s.op_start && op < s.op_end)
    }

    /// Semantic-aware stable hash for deduplication (paper §4.3): the
    /// configuration's fingerprint.
    ///
    /// Two configurations that define the same execution hash equally:
    /// the hash covers stage boundaries, device counts, per-op settings
    /// and the microbatch size, nothing else. It is an FNV fold of the
    /// microbatch, the stage count and each stage's cached
    /// [`Stage::content_hash`], so it costs O(stages), not O(ops).
    pub fn semantic_hash(&self) -> u64 {
        let mut h = FnvHasher::new();
        h.write_usize(self.microbatch);
        h.write_usize(self.stages.len());
        for s in &self.stages {
            h.write_u64(s.hash);
        }
        h.finish()
    }
}

impl ToJson for OpParallel {
    fn to_json_value(&self) -> Value {
        obj([
            ("tp", Value::UInt(u64::from(self.tp))),
            ("dp", Value::UInt(u64::from(self.dp))),
            ("dim_index", Value::UInt(u64::from(self.dim_index))),
            ("recompute", Value::Bool(self.recompute)),
            ("zero", Value::Bool(self.zero)),
        ])
    }
}

impl FromJson for OpParallel {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            tp: v.field("tp")?.as_u32()?,
            dp: v.field("dp")?.as_u32()?,
            dim_index: v.field("dim_index")?.as_u8()?,
            recompute: v.field("recompute")?.as_bool()?,
            // `zero` postdates early snapshots; missing means off.
            zero: match v.get("zero") {
                Some(z) => z.as_bool()?,
                None => false,
            },
        })
    }
}

impl ToJson for StageConfig {
    fn to_json_value(&self) -> Value {
        obj([
            ("op_start", Value::UInt(self.op_start as u64)),
            ("op_end", Value::UInt(self.op_end as u64)),
            ("gpus", Value::UInt(self.gpus as u64)),
            ("ops", self.ops.to_json_value()),
        ])
    }
}

impl FromJson for StageConfig {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let mut ops = Vec::new();
        for o in v.field("ops")?.as_array()? {
            ops.push(OpParallel::from_json_value(o)?);
        }
        Ok(Self {
            op_start: v.field("op_start")?.as_usize()?,
            op_end: v.field("op_end")?.as_usize()?,
            gpus: v.field("gpus")?.as_usize()?,
            ops,
        })
    }
}

impl ToJson for ParallelConfig {
    fn to_json_value(&self) -> Value {
        obj([
            (
                "stages",
                Value::Array(
                    self.stages
                        .iter()
                        .map(|s| s.config.to_json_value())
                        .collect(),
                ),
            ),
            ("microbatch", Value::UInt(self.microbatch as u64)),
        ])
    }
}

impl FromJson for ParallelConfig {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let mut stages = Vec::new();
        for s in v.field("stages")?.as_array()? {
            stages.push(StageConfig::from_json_value(s)?);
        }
        Ok(Self::new(stages, v.field("microbatch")?.as_usize()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage() -> ParallelConfig {
        ParallelConfig::new(
            vec![
                StageConfig::uniform(0, 4, OpParallel::data_parallel(4)),
                StageConfig::uniform(4, 8, OpParallel::data_parallel(4)),
            ],
            8,
        )
    }

    #[test]
    fn basics() {
        let c = two_stage();
        assert_eq!(c.num_stages(), 2);
        assert_eq!(c.total_gpus(), 8);
        assert_eq!(c.device_range(0), DeviceRange::new(0, 4));
        assert_eq!(c.device_range(1), DeviceRange::new(4, 4));
        assert_eq!(c.num_microbatches(64), 8);
        assert_eq!(c.stage_of_op(5), Some(1));
        assert_eq!(c.stage_of_op(8), None);
    }

    #[test]
    fn stage_lookup() {
        let s = StageConfig::uniform(4, 8, OpParallel::data_parallel(2));
        assert_eq!(s.num_ops(), 4);
        assert!(s.op_parallel(4).is_some());
        assert!(s.op_parallel(3).is_none());
        assert!(s.op_parallel(8).is_none());
        assert_eq!(s.num_recomputed(), 0);
    }

    #[test]
    fn hash_stable_and_sensitive() {
        let a = two_stage();
        let b = two_stage();
        assert_eq!(a.semantic_hash(), b.semantic_hash());
        let mut c = two_stage();
        c.microbatch = 4;
        assert_ne!(a.semantic_hash(), c.semantic_hash());
        let mut d = two_stage();
        d.stage_mut(0).ops[2].recompute = true;
        assert_ne!(a.semantic_hash(), d.semantic_hash());
        let mut e = two_stage();
        {
            let mut s = e.stage_mut(0);
            s.ops[1].tp = 2;
            s.ops[1].dp = 2;
        }
        assert_ne!(a.semantic_hash(), e.semantic_hash());
    }

    #[test]
    fn stage_mut_copies_on_write_and_rehashes() {
        let a = two_stage();
        let mut b = a.clone();
        b.stage_mut(1).ops[0].recompute = true;
        // The edited stage was copied and rehashed; the other is shared.
        assert!(!a.stages()[1].ops[0].recompute);
        assert!(Arc::ptr_eq(&a.stages()[0], &b.stages()[0]));
        assert!(!Arc::ptr_eq(&a.stages()[1], &b.stages()[1]));
        for s in b.stages() {
            assert_eq!(s.content_hash(), s.compute_content_hash());
        }
        assert_ne!(a.semantic_hash(), b.semantic_hash());
        // Undoing the edit restores the fingerprint.
        b.stage_mut(1).ops[0].recompute = false;
        assert_eq!(a, b);
        assert_eq!(a.semantic_hash(), b.semantic_hash());
    }

    #[test]
    fn json_round_trip_rehashes() {
        let mut a = two_stage();
        a.stage_mut(0).ops[1].tp = 2;
        let b = ParallelConfig::from_json_value(&a.to_json_value()).expect("decodes");
        assert_eq!(a, b);
        assert_eq!(a.semantic_hash(), b.semantic_hash());
    }

    #[test]
    fn op_parallel_gpus() {
        let o = OpParallel {
            tp: 4,
            dp: 2,
            dim_index: 0,
            recompute: false,
            zero: false,
        };
        assert_eq!(o.gpus(), 8);
        assert_eq!(OpParallel::data_parallel(8).gpus(), 8);
    }

    #[test]
    fn zero_microbatch_yields_zero_count() {
        let mut c = two_stage();
        c.microbatch = 0;
        assert_eq!(c.num_microbatches(64), 0);
    }
}
