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
//! Lookups for keys outside the prefilled grid fall back to measuring on
//! demand with the same deterministic perturbation, so a hit and a miss
//! return identical values — the database is semantically a memo table.

use crate::device_model;
use aceso_cluster::{collective, ClusterSpec, Collective, CommGroup};
use aceso_model::{ModelGraph, Operator, Precision};
use aceso_util::hash::keyed_jitter;
use aceso_util::json::{obj, FromJson, JsonError, ToJson, Value};
use aceso_util::FnvHasher;
use std::collections::HashMap;
use std::sync::RwLock;

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

/// Serialisable snapshot of a [`ProfileDb`].
#[derive(Debug)]
struct Snapshot {
    cluster: ClusterSpec,
    precision: Precision,
    profiling_seconds: f64,
    entries: Vec<(Key, f64)>,
}

impl ToJson for Snapshot {
    fn to_json_value(&self) -> Value {
        let entries = self
            .entries
            .iter()
            .map(|(k, t)| {
                obj([
                    ("sig", Value::UInt(k.sig)),
                    ("tp", Value::UInt(u64::from(k.tp))),
                    ("dim", Value::UInt(u64::from(k.dim))),
                    ("batch", Value::UInt(k.batch)),
                    ("time", Value::Float(*t)),
                ])
            })
            .collect();
        obj([
            ("cluster", self.cluster.to_json_value()),
            ("precision", self.precision.to_json_value()),
            ("profiling_seconds", Value::Float(self.profiling_seconds)),
            ("entries", Value::Array(entries)),
        ])
    }
}

impl FromJson for Snapshot {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let mut entries = Vec::new();
        for e in v.field("entries")?.as_array()? {
            let key = Key {
                sig: e.field("sig")?.as_u64()?,
                tp: e.field("tp")?.as_u32()?,
                dim: e.field("dim")?.as_u8()?,
                batch: e.field("batch")?.as_u64()?,
            };
            entries.push((key, e.field("time")?.as_f64()?));
        }
        Ok(Self {
            cluster: ClusterSpec::from_json_value(v.field("cluster")?)?,
            precision: Precision::from_json_value(v.field("precision")?)?,
            profiling_seconds: v.field("profiling_seconds")?.as_f64()?,
            entries,
        })
    }
}

/// Profiled per-operator latencies plus collective-time queries for one
/// cluster, reusable across searches.
#[derive(Debug)]
pub struct ProfileDb {
    cluster: ClusterSpec,
    precision: Precision,
    /// Simulated wall-clock cost of the profiling run, seconds.
    profiling_seconds: f64,
    entries: RwLock<HashMap<Key, f64>>,
}

impl ProfileDb {
    /// Profiles `model`'s operators on `cluster` and returns the database.
    pub fn build(model: &ModelGraph, cluster: &ClusterSpec) -> Self {
        let db = Self {
            cluster: cluster.clone(),
            precision: model.precision,
            profiling_seconds: 0.0,
            entries: RwLock::new(HashMap::new()),
        };
        let mut profiling = 0.0;
        let max_tp = cluster
            .total_gpus()
            .min(cluster.gpus_per_node * cluster.nodes) as u32;
        let max_batch = model.global_batch as u64;
        let mut seen = std::collections::HashSet::new();
        {
            let mut entries = db.entries.write().expect("profile lock");
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
                            let t = Self::measure(&db.cluster, db.precision, op, key);
                            profiling += t * f64::from(PROFILE_REPS);
                            entries.insert(key, t);
                            batch *= 2;
                        }
                        tp *= 2;
                    }
                }
            }
        }
        Self {
            profiling_seconds: profiling,
            ..db
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
    /// `per_dev_batch` samples. Caches on miss.
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
        if let Some(&t) = self.entries.read().expect("profile lock").get(&key) {
            return t;
        }
        let t = Self::measure(&self.cluster, self.precision, op, key);
        self.entries.write().expect("profile lock").insert(key, t);
        t
    }

    /// [`Self::op_fwd_time_sig`] over many `(sig, op, tp, dim_index,
    /// per_dev_batch)` keys under one read guard. Keys the guard misses are
    /// then measured and memoised through `op_fwd_time_sig` itself, in key
    /// order, so each value is the one that call returns.
    pub fn op_fwd_times_sig(&self, keys: &[(u64, &Operator, u32, usize, u64)]) -> Vec<f64> {
        let mut missed = Vec::new();
        let mut out: Vec<f64> = {
            let entries = self.entries.read().expect("profile lock");
            keys.iter()
                .enumerate()
                .map(|(i, &(sig, _, tp, dim, batch))| {
                    let key = Key {
                        sig,
                        tp,
                        dim: dim as u8,
                        batch: batch.max(1),
                    };
                    entries.get(&key).copied().unwrap_or_else(|| {
                        missed.push(i);
                        f64::NAN
                    })
                })
                .collect()
        };
        for i in missed {
            let (sig, op, tp, dim, batch) = keys[i];
            out[i] = self.op_fwd_time_sig(sig, op, tp, dim, batch);
        }
        out
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
        self.entries.read().expect("profile lock").len()
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
        self.entries.read().expect("profile lock").is_empty()
    }

    /// Serialises the database to JSON.
    pub fn to_json(&self) -> String {
        let snap = Snapshot {
            cluster: self.cluster.clone(),
            precision: self.precision,
            profiling_seconds: self.profiling_seconds,
            entries: self
                .entries
                .read()
                .expect("profile lock")
                .iter()
                .map(|(k, v)| (*k, *v))
                .collect(),
        };
        snap.to_json_value().to_string_compact()
    }

    /// Restores a database from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let snap = Snapshot::from_json_value(&Value::parse(json)?)?;
        Ok(Self {
            cluster: snap.cluster,
            precision: snap.precision,
            profiling_seconds: snap.profiling_seconds,
            entries: RwLock::new(snap.entries.into_iter().collect()),
        })
    }

    /// Canonical dump of every profiled entry as
    /// `(sig, tp, dim, batch, time_bits)` tuples, sorted by key.
    ///
    /// Times are exported as raw [`f64::to_bits`] patterns so external
    /// encoders (the on-disk profile store) can round-trip them
    /// bit-exactly; the sort makes the dump deterministic regardless of
    /// hash-map iteration order.
    pub fn canonical_entries(&self) -> Vec<(u64, u32, u8, u64, u64)> {
        let mut out: Vec<(u64, u32, u8, u64, u64)> = self
            .entries
            .read()
            .expect("profile lock")
            .iter()
            .map(|(k, t)| (k.sig, k.tp, k.dim, k.batch, t.to_bits()))
            .collect();
        out.sort_unstable();
        out
    }

    /// Reassembles a database from [`Self::canonical_entries`] output plus
    /// the metadata the tuples do not carry.
    ///
    /// Times arrive as raw bit patterns ([`f64::from_bits`]), so a decode
    /// through this constructor returns *exactly* the values the source
    /// database held — the bit-identity contract the disk store's
    /// differential suite enforces.
    pub fn from_raw_parts(
        cluster: ClusterSpec,
        precision: Precision,
        profiling_seconds: f64,
        entries: impl IntoIterator<Item = (u64, u32, u8, u64, u64)>,
    ) -> Self {
        Self {
            cluster,
            precision,
            profiling_seconds,
            entries: RwLock::new(
                entries
                    .into_iter()
                    .map(|(sig, tp, dim, batch, bits)| {
                        (
                            Key {
                                sig,
                                tp,
                                dim,
                                batch,
                            },
                            f64::from_bits(bits),
                        )
                    })
                    .collect(),
            ),
        }
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
            entries: RwLock::new(HashMap::new()),
        };
        let miss = db2.op_fwd_time(op, 2, 0, 4);
        assert_eq!(hit, miss);
    }

    #[test]
    fn batched_lookup_matches_single_lookups_and_memoises_misses() {
        let (m, c) = setup();
        let db = ProfileDb::build(&m, &c);
        let op = &m.ops[1];
        let sig = ProfileDb::op_signature(op);
        // Batch 3 is off the prefilled power-of-two grid: a miss.
        let keys = [(sig, op, 2, 0, 4), (sig, op, 1, 0, 3), (sig, op, 1, 0, 0)];
        let before = db.len();
        let got = db.op_fwd_times_sig(&keys);
        assert_eq!(db.len(), before + 1, "the miss is memoised");
        for (&(sig, op, tp, dim, b), t) in keys.iter().zip(&got) {
            assert_eq!(
                t.to_bits(),
                db.op_fwd_time_sig(sig, op, tp, dim, b).to_bits()
            );
        }
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
        let json = db.to_json();
        let back = ProfileDb::from_json(&json).expect("parses");
        assert_eq!(back.len(), db.len());
        let op = &m.ops[2];
        assert_eq!(back.op_fwd_time(op, 1, 0, 2), db.op_fwd_time(op, 1, 0, 2));
        assert_eq!(back.precision(), db.precision());
    }
}
