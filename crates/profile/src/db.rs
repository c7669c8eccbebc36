//! The profile database.
//!
//! [`ProfileDb::build`] plays the role of the paper's offline profiling
//! run: it "measures" every distinct operator shape under every candidate
//! tensor-parallel degree, partition dimension and power-of-two per-device
//! batch, 50 repetitions each (whose simulated wall time is accounted and
//! reported, like the paper's 11 min / 5 min / 1.5 h figures), and stores
//! the averaged results. The database can be serialised and reused across
//! searches over models that share operators (§3.3).
//!
//! The database is a read-only value once built. A lookup outside the
//! prefilled grid measures on demand with the same deterministic
//! perturbation and stores nothing, so a hit and a miss return identical
//! values and a shared database needs no lock.
//!
//! Its one serialised form ([`ToJson`]/[`FromJson`]) is bit-exact: entries
//! in canonical key order, each distinct operator signature once with a
//! run count, and every `f64` as its raw bit pattern. The on-disk profile
//! store wraps this object in its own envelope.

use crate::device_model;
use aceso_cluster::{collective, ClusterSpec, Collective, CommGroup};
use aceso_model::{ModelGraph, Operator, Precision};
use aceso_util::hash::keyed_jitter;
use aceso_util::json::{obj, FromJson, JsonError, ToJson, Value};
use aceso_util::FnvHasher;
use std::collections::HashMap;

/// Relative spread of the simulated per-kernel measurement perturbation.
const KERNEL_JITTER: f64 = 0.02;
/// Relative spread of the simulated collective perturbation.
const COMM_JITTER: f64 = 0.03;
/// Profiling repetitions per operator (paper §5.3 runs each op 50×).
const PROFILE_REPS: u32 = 50;

/// Composite lookup key: operator signature × tp × dim × per-device batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    sig: u64,
    tp: u32,
    dim: u8,
    batch: u64,
}

/// Profiled per-operator latencies plus collective-time queries for one
/// cluster, reusable across searches.
#[derive(Debug)]
pub struct ProfileDb {
    cluster: ClusterSpec,
    precision: Precision,
    /// Simulated wall-clock cost of the profiling run, seconds.
    profiling_seconds: f64,
    entries: HashMap<Key, f64>,
}

impl ProfileDb {
    /// Profiles `model`'s operators on `cluster` and returns the database.
    pub fn build(model: &ModelGraph, cluster: &ClusterSpec) -> Self {
        let mut profiling = 0.0;
        let mut entries = HashMap::new();
        let max_tp = cluster
            .total_gpus()
            .min(cluster.gpus_per_node * cluster.nodes) as u32;
        let max_batch = model.global_batch as u64;
        let mut seen = std::collections::HashSet::new();
        for op in &model.ops {
            let sig = Self::op_signature(op);
            if !seen.insert(sig) {
                continue;
            }
            for dim in 0..op.partitions.len() {
                let mut tp = 1u32;
                while tp <= max_tp.min(op.tp_limit) {
                    let mut batch = 1u64;
                    while batch <= max_batch {
                        let key = Key {
                            sig,
                            tp,
                            dim: dim as u8,
                            batch,
                        };
                        let t = Self::measure(cluster, model.precision, op, key);
                        profiling += t * f64::from(PROFILE_REPS);
                        entries.insert(key, t);
                        batch *= 2;
                    }
                    tp *= 2;
                }
            }
        }
        Self {
            cluster: cluster.clone(),
            precision: model.precision,
            profiling_seconds: profiling,
            entries,
        }
    }

    /// Stable signature of an operator's cost-relevant fields.
    ///
    /// Two operators with equal signatures profile identically, so a
    /// 40-layer GPT contributes only a handful of distinct entries — the
    /// reuse property the paper relies on.
    pub fn op_signature(op: &Operator) -> u64 {
        let mut h = FnvHasher::new();
        h.write_u64(op.kind as u64);
        h.write_u64(op.flops.to_bits());
        h.write_u64(op.params);
        h.write_u64(op.input_elems);
        h.write_u64(op.output_elems);
        h.write_u64(op.stash_elems);
        h.write_u64(u64::from(op.tp_limit));
        h.write_usize(op.partitions.len());
        h.finish()
    }

    /// One simulated measurement (analytic model × stable perturbation).
    fn measure(cluster: &ClusterSpec, precision: Precision, op: &Operator, key: Key) -> f64 {
        let base = device_model::op_fwd_time(
            &cluster.device,
            precision,
            op,
            key.tp,
            key.dim as usize,
            key.batch,
        );
        let mut h = FnvHasher::new();
        h.write_u64(key.sig);
        h.write_u64(u64::from(key.tp));
        h.write_u64(u64::from(key.dim));
        h.write_u64(key.batch);
        base * keyed_jitter(h.finish(), KERNEL_JITTER)
    }

    /// Profiled forward time of `op` at (`tp`, `dim_index`) for
    /// `per_dev_batch` samples; a key off the profiled grid is measured,
    /// not stored.
    pub fn op_fwd_time(&self, op: &Operator, tp: u32, dim_index: usize, per_dev_batch: u64) -> f64 {
        self.op_fwd_time_sig(Self::op_signature(op), op, tp, dim_index, per_dev_batch)
    }

    /// Same as [`Self::op_fwd_time`] with a precomputed signature (hot path
    /// for the performance model).
    pub fn op_fwd_time_sig(
        &self,
        sig: u64,
        op: &Operator,
        tp: u32,
        dim_index: usize,
        per_dev_batch: u64,
    ) -> f64 {
        let key = Key {
            sig,
            tp,
            dim: dim_index as u8,
            batch: per_dev_batch.max(1),
        };
        match self.entries.get(&key) {
            Some(&t) => t,
            None => Self::measure(&self.cluster, self.precision, op, key),
        }
    }

    /// Working-set bytes of one execution (no jitter; memory is exact).
    pub fn op_working_set(
        &self,
        op: &Operator,
        tp: u32,
        dim_index: usize,
        per_dev_batch: u64,
    ) -> u64 {
        device_model::op_working_set(self.precision, op, tp, dim_index, per_dev_batch)
    }

    /// Profiled collective time over `group` for `bytes` payload.
    pub fn collective_time(&self, kind: Collective, bytes: u64, group: &CommGroup) -> f64 {
        let base = collective::collective_time(&self.cluster, kind, bytes, group);
        if base == 0.0 {
            return 0.0;
        }
        let mut h = FnvHasher::new();
        h.write_u64(kind as u64);
        h.write_u64(bytes.next_power_of_two());
        h.write_usize(group.size);
        h.write_bool(group.crosses_nodes(&self.cluster));
        base * keyed_jitter(h.finish(), COMM_JITTER)
    }

    /// Profiled point-to-point time between two global GPU ids.
    pub fn p2p_time(&self, bytes: u64, from: usize, to: usize) -> f64 {
        let base = collective::p2p_time(&self.cluster, bytes, from, to);
        if base == 0.0 {
            return 0.0;
        }
        let mut h = FnvHasher::new();
        h.write_u64(bytes.next_power_of_two());
        h.write_bool(self.cluster.node_of(from) == self.cluster.node_of(to));
        base * keyed_jitter(h.finish(), COMM_JITTER)
    }

    /// The cluster this database was profiled on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Precision the profile was taken at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Simulated wall-clock time the profiling run would have taken
    /// (`PROFILE_REPS` repetitions of every grid point), in seconds.
    pub fn simulated_profiling_seconds(&self) -> f64 {
        self.profiling_seconds
    }

    /// Number of profiled grid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Approximate resident size of the database in bytes, used by the
    /// serve-mode `ProfileCache` for its LRU byte budget. Counts each
    /// entry at key + value + hash-table overhead; the constant only has
    /// to be stable and monotone in entry count, not exact.
    pub fn approx_bytes(&self) -> u64 {
        const BYTES_PER_ENTRY: u64 = 48;
        self.len() as u64 * BYTES_PER_ENTRY
    }

    /// Whether the database holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonical dump of every profiled entry as
    /// `(sig, tp, dim, batch, time_bits)` tuples, sorted by key.
    ///
    /// Times are raw [`f64::to_bits`] patterns and the sort makes the
    /// dump independent of hash-map iteration order, so two databases
    /// hold the same values exactly when their dumps are equal.
    pub fn canonical_entries(&self) -> Vec<(u64, u32, u8, u64, u64)> {
        let mut out: Vec<(u64, u32, u8, u64, u64)> = self
            .entries
            .iter()
            .map(|(k, t)| (k.sig, k.tp, k.dim, k.batch, t.to_bits()))
            .collect();
        out.sort_unstable();
        out
    }

    /// Reassembles a database from [`Self::canonical_entries`] output plus
    /// the metadata the tuples do not carry, bit for bit.
    fn from_raw_parts(
        cluster: ClusterSpec,
        precision: Precision,
        profiling_seconds: f64,
        entries: impl IntoIterator<Item = (u64, u32, u8, u64, u64)>,
    ) -> Self {
        Self {
            cluster,
            precision,
            profiling_seconds,
            entries: entries
                .into_iter()
                .map(|(sig, tp, dim, batch, bits)| {
                    let key = Key {
                        sig,
                        tp,
                        dim,
                        batch,
                    };
                    (key, f64::from_bits(bits))
                })
                .collect(),
        }
    }
}

/// The bit-exact form: the cluster, the precision, the profiling cost as
/// bits, then the profiled grid in canonical key order as column arrays.
/// Each distinct signature is written once with its run count (`sigs`,
/// `counts`), and times are raw bit patterns (`times_bits`).
impl ToJson for ProfileDb {
    fn to_json_value(&self) -> Value {
        let dump = self.canonical_entries();
        let mut sigs = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut tps = Vec::with_capacity(dump.len());
        let mut dims = Vec::with_capacity(dump.len());
        let mut batches = Vec::with_capacity(dump.len());
        let mut times_bits = Vec::with_capacity(dump.len());
        let mut last_sig = None;
        for (sig, tp, dim, batch, bits) in dump {
            if last_sig != Some(sig) {
                sigs.push(Value::UInt(sig));
                counts.push(0);
                last_sig = Some(sig);
            }
            *counts.last_mut().expect("run exists") += 1;
            tps.push(Value::UInt(u64::from(tp)));
            dims.push(Value::UInt(u64::from(dim)));
            batches.push(Value::UInt(batch));
            times_bits.push(Value::UInt(bits));
        }
        obj([
            ("cluster", self.cluster.to_json_value()),
            ("precision", self.precision.to_json_value()),
            (
                "profiling_seconds_bits",
                Value::UInt(self.profiling_seconds.to_bits()),
            ),
            ("sigs", Value::Array(sigs)),
            (
                "counts",
                Value::Array(counts.into_iter().map(Value::UInt).collect()),
            ),
            ("tps", Value::Array(tps)),
            ("dims", Value::Array(dims)),
            ("batches", Value::Array(batches)),
            ("times_bits", Value::Array(times_bits)),
        ])
    }
}

impl FromJson for ProfileDb {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let u64s = |key: &str| -> Result<Vec<u64>, JsonError> {
            v.field(key)?
                .as_array()?
                .iter()
                .map(Value::as_u64)
                .collect()
        };
        let cluster = ClusterSpec::from_json_value(v.field("cluster")?)?;
        let precision = Precision::from_json_value(v.field("precision")?)?;
        let profiling_seconds = f64::from_bits(v.field("profiling_seconds_bits")?.as_u64()?);
        let sigs = u64s("sigs")?;
        let counts = u64s("counts")?;
        let tps = u64s("tps")?;
        let dims = u64s("dims")?;
        let batches = u64s("batches")?;
        let times_bits = u64s("times_bits")?;
        if sigs.len() != counts.len() {
            return Err(JsonError::shape("sigs/counts length mismatch"));
        }
        let total: u64 = counts.iter().sum();
        let total =
            usize::try_from(total).map_err(|_| JsonError::shape("entry count overflows"))?;
        if tps.len() != total
            || dims.len() != total
            || batches.len() != total
            || times_bits.len() != total
        {
            return Err(JsonError::shape("flat array length mismatch"));
        }
        let mut entries = Vec::with_capacity(total);
        let mut i = 0usize;
        for (sig, count) in sigs.iter().zip(&counts) {
            for _ in 0..*count {
                let tp = u32::try_from(tps[i]).map_err(|_| JsonError::shape("tp out of range"))?;
                let dim =
                    u8::try_from(dims[i]).map_err(|_| JsonError::shape("dim out of range"))?;
                entries.push((*sig, tp, dim, batches[i], times_bits[i]));
                i += 1;
            }
        }
        Ok(Self::from_raw_parts(
            cluster,
            precision,
            profiling_seconds,
            entries,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;

    fn setup() -> (ModelGraph, ClusterSpec) {
        (
            gpt3_custom("t", 2, 256, 4, 128, 1000, 64),
            ClusterSpec::v100(1, 4),
        )
    }

    #[test]
    fn build_dedups_identical_ops() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        // 2 identical layers → far fewer entries than ops × grid.
        assert!(!db.is_empty());
        let unique_sigs: std::collections::HashSet<u64> =
            m.ops.iter().map(ProfileDb::op_signature).collect();
        assert!(unique_sigs.len() < m.len());
        assert!(db.simulated_profiling_seconds() > 0.0);
    }

    #[test]
    fn lookup_matches_on_demand_measurement() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let op = &m.ops[1];
        let hit = db.op_fwd_time(op, 2, 0, 4);
        // A fresh db without prefill must return the same value.
        let db2 = ProfileDb {
            cluster: c.clone(),
            precision: m.precision,
            profiling_seconds: 0.0,
            entries: HashMap::new(),
        };
        let miss = db2.op_fwd_time(op, 2, 0, 4);
        assert_eq!(hit.to_bits(), miss.to_bits());
        // A miss is measured, not stored.
        let before = db.len();
        assert!(db.op_fwd_time(op, 1, 0, 3) > 0.0, "batch 3 is off the grid");
        assert_eq!(db2.len(), 0);
        assert_eq!(db.len(), before);
    }

    #[test]
    fn deterministic_across_builds() {
        let (m, c) = setup();
        let a = ProfileDb::build(&m, &c);
        let b = ProfileDb::build(&m, &c);
        let op = &m.ops[3];
        assert_eq!(a.op_fwd_time(op, 1, 0, 8), b.op_fwd_time(op, 1, 0, 8));
        assert_eq!(
            a.simulated_profiling_seconds(),
            b.simulated_profiling_seconds()
        );
    }

    #[test]
    fn jitter_stays_small() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let op = &m.ops[1];
        let measured = db.op_fwd_time(op, 1, 0, 4);
        let analytic = device_model::op_fwd_time(&c.device, m.precision, op, 1, 0, 4);
        assert!((measured / analytic - 1.0).abs() <= KERNEL_JITTER + 1e-12);
    }

    #[test]
    fn collective_and_p2p_positive() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let g = CommGroup::contiguous(0, 4);
        assert!(db.collective_time(Collective::AllReduce, 1 << 20, &g) > 0.0);
        assert_eq!(db.collective_time(Collective::AllReduce, 0, &g), 0.0);
        assert!(db.p2p_time(1 << 20, 0, 1) > 0.0);
        assert_eq!(db.p2p_time(1 << 20, 2, 2), 0.0);
    }

    #[test]
    fn canonical_entries_roundtrip_is_bit_exact() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let dump = db.canonical_entries();
        assert_eq!(dump.len(), db.len());
        // Sorted and duplicate-free.
        assert!(dump.windows(2).all(|w| w[0] < w[1]));
        let back = ProfileDb::from_raw_parts(
            c.clone(),
            db.precision(),
            db.simulated_profiling_seconds(),
            dump.iter().copied(),
        );
        assert_eq!(back.canonical_entries(), dump);
        for op in &m.ops {
            for tp in [1u32, 2, 4] {
                assert_eq!(
                    back.op_fwd_time(op, tp, 0, 4).to_bits(),
                    db.op_fwd_time(op, tp, 0, 4).to_bits()
                );
            }
        }
    }

    #[test]
    fn json_roundtrip_preserves_lookups() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let json = db.to_json_value().to_string_compact();
        let back =
            ProfileDb::from_json_value(&Value::parse(&json).expect("parses")).expect("decodes");
        assert_eq!(back.canonical_entries(), db.canonical_entries());
        assert_eq!(back.len(), db.len());
        let op = &m.ops[2];
        assert_eq!(back.op_fwd_time(op, 1, 0, 2), db.op_fwd_time(op, 1, 0, 2));
        assert_eq!(back.precision(), db.precision());
        assert_eq!(
            back.simulated_profiling_seconds().to_bits(),
            db.simulated_profiling_seconds().to_bits()
        );
        // Deterministic: the decoded database encodes to the same bytes.
        assert_eq!(back.to_json_value().to_string_compact(), json);
    }
}
