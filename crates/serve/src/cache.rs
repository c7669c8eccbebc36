//! The cross-request profile cache.
//!
//! Building a [`ProfileDb`] is the daemon's cold-start profiling cost —
//! exactly the artifact the paper's §3.3 reuse property says should be
//! shared ("the profiled database can be reused by the search for models
//! that contain the same operators"). [`ProfileCache`] keys built
//! databases by *(model fingerprint, cluster fingerprint)* and shares
//! them across requests:
//!
//! * an exact-key hit returns the existing `Arc<ProfileDb>` without any
//!   profiling work;
//! * total resident size is bounded by an LRU byte budget over
//!   [`ProfileDb::approx_bytes`];
//! * optionally, a persistent second tier ([`aceso_store::Store`]): a
//!   miss consults the on-disk store before building (a loaded entry is
//!   bit-identical to a built one), a fresh build is written back, and
//!   unusable files degrade to a rebuild plus a typed drainable event —
//!   the cache is merely the store's client, the format contract lives
//!   in `docs/STORE.md`.
//!
//! The whole cache is one map behind one mutex, held across the hit
//! check, the store load, the build, the write-back and the eviction.
//! Concurrent requests for one key therefore cause exactly one build or
//! load (later arrivals find the entry and count as hits), and store
//! I/O for a key is single-flight within a daemon. The lock costs no
//! measurable time: a store load is ~0.2 ms and a build ~0.1 ms against
//! a search of several milliseconds (`docs/BENCHMARKS.md`).
//!
//! Sharing can never change a search result: `ProfileDb` lookups return
//! identical values on hit and miss, so a cached, loaded, or freshly
//! built database scores every configuration bit-identically.

use aceso_cluster::ClusterSpec;
use aceso_model::{ModelGraph, Precision};
use aceso_profile::ProfileDb;
use aceso_store::Store;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// The cache keys on the same fingerprints that bind search checkpoints
// to their inputs; both live in `aceso_core::checkpoint` so a daemon's
// spooled checkpoint and its profile-cache entry can never disagree on
// what "the same model" means.
pub use aceso_core::checkpoint::{cluster_fingerprint, model_fingerprint};

/// One resident cache entry.
struct Entry {
    db: Arc<ProfileDb>,
    bytes: u64,
    /// Monotone LRU clock value of the last lookup.
    last_use: u64,
}

/// Everything the cache mutates, behind its one lock.
#[derive(Default)]
struct State {
    entries: HashMap<(u64, u64), Entry>,
    tick: u64,
    /// Degraded store files as `(file, reason)` pairs, drained by the
    /// daemon into its `store_degraded` event stream.
    degraded: Vec<(String, String)>,
    hits: u64,
    misses: u64,
    store_hits: u64,
    store_misses: u64,
    store_writes: u64,
    store_evictions: u64,
    store_rejected: u64,
}

/// Shared, byte-budgeted LRU cache of built [`ProfileDb`]s.
pub struct ProfileCache {
    budget_bytes: u64,
    state: Mutex<State>,
    /// Optional persistent second tier, consulted on a miss before
    /// building and written back after a fresh build.
    store: Option<Store>,
}

impl ProfileCache {
    /// Creates a cache evicting least-recently-used entries once resident
    /// databases exceed `budget_bytes` (the entry being inserted is never
    /// evicted, so a single oversized database still serves its request).
    pub fn new(budget_bytes: u64) -> Self {
        Self {
            budget_bytes,
            state: Mutex::new(State::default()),
            store: None,
        }
    }

    /// [`ProfileCache::new`] with a persistent on-disk second tier. The
    /// store is consulted lazily on misses only, so opening it costs
    /// O(1) regardless of how many entries it holds — daemon startup
    /// never scans the store directory.
    pub fn with_store(budget_bytes: u64, store: Store) -> Self {
        Self {
            store: Some(store),
            ..Self::new(budget_bytes)
        }
    }

    /// Locks the cache state, recovering from poisoning: a panic in one
    /// request's build must not wedge every later cache call. The state
    /// stays consistent under poisoning because the map is only touched
    /// by single `insert`/`remove` calls after the build has returned.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the database for `(model, cluster)`, building it on first
    /// use. The boolean is `true` on a cache hit (including a request
    /// that waited out a concurrent build of the same key) and `false`
    /// when this call loaded or built the database.
    pub fn get_or_build(
        &self,
        model: &ModelGraph,
        cluster: &ClusterSpec,
    ) -> (Arc<ProfileDb>, bool) {
        self.get_or_build_with(model, cluster, ProfileDb::build)
    }

    /// [`ProfileCache::get_or_build`] with the build function injected.
    ///
    /// The chaos engine passes a panicking closure to prove a failed
    /// build leaves the cache usable; the production path passes
    /// `ProfileDb::build`.
    pub fn get_or_build_with(
        &self,
        model: &ModelGraph,
        cluster: &ClusterSpec,
        build: impl FnOnce(&ModelGraph, &ClusterSpec) -> ProfileDb,
    ) -> (Arc<ProfileDb>, bool) {
        let key = (model_fingerprint(model), cluster_fingerprint(cluster));
        let mut guard = self.lock_state();
        let state = &mut *guard;
        state.tick += 1;
        if let Some(entry) = state.entries.get_mut(&key) {
            entry.last_use = state.tick;
            state.hits += 1;
            return (Arc::clone(&entry.db), true);
        }
        // Disk tier first, then a real build. A fresh build is written
        // back as built, so a later load stays bit-identical to building.
        let db = match self.load_from_store(state, key, model.precision) {
            Some(db) => db,
            None => {
                let db = build(model, cluster);
                self.write_back(state, key, &db);
                db
            }
        };
        let db = Arc::new(db);
        let entry = Entry {
            db: Arc::clone(&db),
            bytes: db.approx_bytes(),
            last_use: state.tick,
        };
        state.entries.insert(key, entry);
        Self::evict_over_budget(state, self.budget_bytes, key);
        state.misses += 1;
        (db, false)
    }

    /// Evicts least-recently-used entries until resident bytes fit the
    /// budget, never evicting `keep` (the entry just inserted).
    fn evict_over_budget(state: &mut State, budget: u64, keep: (u64, u64)) {
        let mut resident: u64 = state.entries.values().map(|e| e.bytes).sum();
        while resident > budget {
            let Some(victim) = state
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
            else {
                return;
            };
            resident -= state.entries.remove(&victim).map_or(0, |e| e.bytes);
        }
    }

    /// Consults the persistent tier for `key`. Exactly one of the store
    /// counters advances per consultation; a degraded file is queued for
    /// the daemon's event stream. `None` means "build it fresh".
    fn load_from_store(
        &self,
        state: &mut State,
        key: (u64, u64),
        precision: Precision,
    ) -> Option<ProfileDb> {
        let store = self.store.as_ref()?;
        match store.load(key.0, key.1) {
            // Timings depend on the precision but entry keys do not
            // encode it, so a decodable entry at another precision is
            // skipped and the request builds fresh.
            Ok(Some(db)) if db.precision() != precision => {
                state.store_rejected += 1;
                None
            }
            Ok(Some(db)) => {
                state.store_hits += 1;
                Some(db)
            }
            Ok(None) => {
                state.store_misses += 1;
                None
            }
            Err(degraded) => {
                state.store_misses += 1;
                state
                    .degraded
                    .push((degraded.file, degraded.reason.to_string()));
                None
            }
        }
    }

    /// Writes a freshly built database back to the persistent tier.
    /// Best-effort: a full or read-only disk must not fail the request.
    fn write_back(&self, state: &mut State, key: (u64, u64), db: &ProfileDb) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        if let Ok(evicted) = store.save(key.0, key.1, db) {
            state.store_writes += 1;
            state.store_evictions += evicted as u64;
        }
    }

    /// Lifetime cache hits.
    pub fn hits(&self) -> u64 {
        self.lock_state().hits
    }

    /// Lifetime cache misses (loads and builds performed).
    pub fn misses(&self) -> u64 {
        self.lock_state().misses
    }

    /// Number of resident databases.
    pub fn len(&self) -> usize {
        self.lock_state().entries.len()
    }

    /// Whether no database is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime misses resolved from the persistent store.
    pub fn store_hits(&self) -> u64 {
        self.lock_state().store_hits
    }

    /// Lifetime store consultations that found no usable entry.
    pub fn store_misses(&self) -> u64 {
        self.lock_state().store_misses
    }

    /// Lifetime databases written back to the persistent store.
    pub fn store_writes(&self) -> u64 {
        self.lock_state().store_writes
    }

    /// Lifetime store entries evicted from disk by the byte budget.
    pub fn store_evictions(&self) -> u64 {
        self.lock_state().store_evictions
    }

    /// Lifetime store entries skipped for precision mismatch.
    pub fn store_rejected(&self) -> u64 {
        self.lock_state().store_rejected
    }

    /// Drains queued `(file, reason)` store degradations for the
    /// daemon's event stream.
    pub fn drain_degraded(&self) -> Vec<(String, String)> {
        std::mem::take(&mut self.lock_state().degraded)
    }

    /// Drains the store tier's count of failed eviction-sweep removals
    /// (zero without a store). The daemon folds the drained count into
    /// its monotone `retention_sweep_errors` total and emits a
    /// `sweep_degraded` event (INV-CHAOS-SWEEP).
    pub fn take_store_sweep_errors(&self) -> u64 {
        self.store.as_ref().map_or(0, Store::take_sweep_errors)
    }

    /// Total approximate bytes of resident databases.
    pub fn resident_bytes(&self) -> u64 {
        self.lock_state().entries.values().map(|e| e.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;
    use aceso_model::Precision;

    fn small(name: &str, layers: usize) -> ModelGraph {
        gpt3_custom(name, layers, 256, 4, 128, 1000, 16)
    }

    #[test]
    fn repeat_lookup_is_a_hit() {
        let cache = ProfileCache::new(u64::MAX);
        let m = small("a", 2);
        let c = ClusterSpec::v100(1, 2);
        let (db1, hit1) = cache.get_or_build(&m, &c);
        let (db2, hit2) = cache.get_or_build(&m, &c);
        assert!(!hit1);
        assert!(hit2);
        assert!(Arc::ptr_eq(&db1, &db2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_models_are_distinct_keys() {
        let cache = ProfileCache::new(u64::MAX);
        let c = ClusterSpec::v100(1, 2);
        cache.get_or_build(&small("a", 2), &c);
        cache.get_or_build(&small("b", 4), &c);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_clusters_are_distinct_keys() {
        let cache = ProfileCache::new(u64::MAX);
        let m = small("a", 2);
        cache.get_or_build(&m, &ClusterSpec::v100(1, 2));
        cache.get_or_build(&m, &ClusterSpec::v100(1, 4));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let m1 = small("a", 2);
        let m2 = small("b", 4);
        let c = ClusterSpec::v100(1, 2);
        // Budget fits exactly one database: inserting the second must
        // evict the first (the LRU).
        let one_db_bytes = ProfileDb::build(&m1, &c).approx_bytes();
        let cache = ProfileCache::new(one_db_bytes + one_db_bytes / 2);
        cache.get_or_build(&m1, &c);
        cache.get_or_build(&m2, &c);
        assert_eq!(cache.len(), 1, "LRU entry must have been evicted");
        // The evicted model now misses again.
        let (_, hit) = cache.get_or_build(&m1, &c);
        assert!(!hit);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn recently_used_entry_survives_eviction() {
        let m1 = small("a", 2);
        let m2 = small("b", 4);
        let c = ClusterSpec::v100(1, 2);
        let one = ProfileDb::build(&m1, &c).approx_bytes();
        // Room for two entries (the second has the same size as the
        // first: identical unique shapes), not three.
        let cache = ProfileCache::new(2 * one + one / 2);
        cache.get_or_build(&m1, &c);
        cache.get_or_build(&m2, &c);
        assert_eq!(cache.len(), 2);
        // Touch m1 so m2 becomes the LRU, then overflow with a third.
        cache.get_or_build(&m1, &c);
        cache.get_or_build(&small("c", 6), &c);
        let (_, hit_m1) = cache.get_or_build(&m1, &c);
        assert!(hit_m1, "recently-used entry must survive");
    }

    #[test]
    fn concurrent_same_key_requests_share_one_build() {
        let cache = ProfileCache::new(u64::MAX);
        let m = small("a", 2);
        let c = ClusterSpec::v100(1, 2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| cache.get_or_build(&m, &c));
            }
        });
        assert_eq!(cache.misses(), 1, "only one thread builds");
        assert_eq!(cache.hits(), 3, "the others share the build");
    }

    /// A build that panics under the lock poisons it; the next call
    /// recovers the lock, finds no half-inserted entry, and builds.
    #[test]
    fn panicking_build_leaves_the_cache_usable() {
        let cache = ProfileCache::new(u64::MAX);
        let m = small("a", 2);
        let c = ClusterSpec::v100(1, 2);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build_with(&m, &c, |_, _| panic!("injected build panic"))
        }));
        assert!(unwound.is_err(), "the build panicked");
        assert!(cache.is_empty(), "nothing inserted for the failed build");
        let (_db, hit) = cache.get_or_build(&m, &c);
        assert!(!hit, "the key is built after the panic");
        let (_db, hit) = cache.get_or_build(&m, &c);
        assert!(hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aceso-cache-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A "restart": a second cache sharing the first one's store
    /// directory resolves its cold miss from disk, bit-identically.
    #[test]
    fn store_tier_survives_cache_restart_bit_identically() {
        let dir = store_dir("restart");
        let m = small("a", 2);
        let c = ClusterSpec::v100(1, 2);
        let first = ProfileCache::with_store(u64::MAX, Store::open(&dir, u64::MAX).expect("open"));
        let (built, hit) = first.get_or_build(&m, &c);
        assert!(!hit);
        assert_eq!(first.store_misses(), 1, "cold store");
        assert_eq!(first.store_writes(), 1, "fresh build written back");
        drop(first);
        let second = ProfileCache::with_store(u64::MAX, Store::open(&dir, u64::MAX).expect("open"));
        let (loaded, hit) = second.get_or_build(&m, &c);
        assert!(!hit, "a store load is not a memory hit");
        assert_eq!(second.store_hits(), 1);
        assert_eq!(second.store_writes(), 0, "loads are not re-written");
        assert_eq!(
            loaded.canonical_entries(),
            built.canonical_entries(),
            "loaded entries return the same f64 bit patterns"
        );
        // Next lookup on the second cache is a plain memory hit.
        let (_db, hit) = second.get_or_build(&m, &c);
        assert!(hit);
        assert_eq!(second.store_hits(), 1, "store consulted on misses only");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store precision check: a decodable store entry whose
    /// precision mismatches the request's build is skipped and counted,
    /// never served. (An honest writer cannot produce one —
    /// the model fingerprint hashes the precision — so this plants a
    /// mismatched entry through the store API directly.)
    #[test]
    fn store_precision_mismatch_is_rejected_not_merged() {
        let dir = store_dir("precision");
        let m = small("a", 2);
        let c = ClusterSpec::v100(1, 2);
        let mut fp32 = small("a", 2);
        fp32.precision = Precision::Fp32;
        let key = (model_fingerprint(&m), cluster_fingerprint(&c));
        let store = Store::open(&dir, u64::MAX).expect("open");
        store
            .save(key.0, key.1, &ProfileDb::build(&fp32, &c))
            .expect("plant mismatched entry");
        let cache = ProfileCache::with_store(u64::MAX, store);
        let (db, hit) = cache.get_or_build(&m, &c);
        assert!(!hit);
        assert_eq!(cache.store_rejected(), 1);
        assert_eq!(cache.store_hits(), 0);
        assert_eq!(db.precision(), Precision::Fp16, "built fresh");
        // The fresh build's write-back healed the planted entry.
        let again = ProfileCache::with_store(u64::MAX, Store::open(&dir, u64::MAX).expect("open"));
        let (_db, _) = again.get_or_build(&m, &c);
        assert_eq!(again.store_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupt store file degrades to a fresh build plus a drainable
    /// typed event — never an error.
    #[test]
    fn corrupt_store_entry_degrades_with_typed_reason() {
        let dir = store_dir("degrade");
        let m = small("a", 2);
        let c = ClusterSpec::v100(1, 2);
        let key = (model_fingerprint(&m), cluster_fingerprint(&c));
        let store = Store::open(&dir, u64::MAX).expect("open");
        let file = aceso_store::entry_name(key.0, key.1);
        std::fs::write(dir.join(&file), "not a store file\n").expect("corrupt");
        let cache = ProfileCache::with_store(u64::MAX, store);
        let (_db, hit) = cache.get_or_build(&m, &c);
        assert!(!hit);
        assert_eq!(cache.store_misses(), 1, "degrade counts as a miss");
        let drained = cache.drain_degraded();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, file);
        assert!(!drained[0].1.is_empty(), "reason is typed and non-empty");
        assert!(cache.drain_degraded().is_empty(), "drain empties the queue");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let m = small("a", 2);
        assert_eq!(model_fingerprint(&m), model_fingerprint(&m));
        assert_ne!(model_fingerprint(&m), model_fingerprint(&small("b", 4)));
        let c2 = ClusterSpec::v100(1, 2);
        let c4 = ClusterSpec::v100(1, 4);
        assert_eq!(cluster_fingerprint(&c2), cluster_fingerprint(&c2));
        assert_ne!(cluster_fingerprint(&c2), cluster_fingerprint(&c4));
    }
}
