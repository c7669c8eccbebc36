//! Persistent on-disk store for [`ProfileDb`]s.
//!
//! Building a profile database is the serve daemon's dominant cold-start
//! cost, and the in-memory `ProfileCache` is warm only until the process
//! dies. This crate gives the cache a second tier: a directory of
//! fingerprint-addressed, versioned, checksummed files, shared across
//! restarts (and across daemons — concurrent writers are safe because
//! visibility is a single atomic rename).
//!
//! # File format
//!
//! One entry per `(model fingerprint, cluster fingerprint)` pair, named
//! `{model_fp:016x}-{cluster_fp:016x}.adb`. A file holds exactly two
//! newline-terminated lines:
//!
//! 1. a header: `{"store_schema_version": N, "checksum": C}` where `C`
//!    is FNV-1a over the raw bytes of line 2 (exclusive of its newline);
//! 2. the body: one compact JSON object with the cluster spec,
//!    precision, profiling cost, and the profiled grid encoded with the
//!    checkpoint subsystem's tricks — entries sorted by key, signatures
//!    run-length encoded (each distinct operator signature once plus a
//!    run count), and times as flat arrays of raw `f64` bit patterns so
//!    decoding is bit-exact.
//!
//! # Contract
//!
//! * INV-STORE-ATOMIC: an entry becomes visible only through `rename`
//!   of a fully written temp file, so a reader (including one racing a
//!   SIGKILL'd writer) never observes a partially written entry.
//! * INV-STORE-DEGRADE: a corrupt, truncated, foreign, or
//!   future-version file yields a typed [`DegradeReason`] — the caller
//!   rebuilds from scratch — never an error and never a wrong database.
//! * INV-STORE-BITEXACT: a database decoded from the store returns the
//!   same `f64` bit patterns as the database that was encoded.
//!
//! The full format and degradation contract live in `docs/STORE.md`,
//! whose anchors are enforced against this crate by `tests/store_doc.rs`.

use aceso_cluster::ClusterSpec;
use aceso_model::Precision;
use aceso_profile::ProfileDb;
use aceso_util::fnv1a;
use aceso_util::fsio::{self, Fs, RealFs};
use aceso_util::json::{obj, FromJson, ToJson, Value};
use aceso_util::retention;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version stamped into every store file header. Bumped whenever the
/// body encoding changes shape; files with any other version degrade to
/// a rebuild (INV-STORE-DEGRADE), they are never misread.
pub const STORE_SCHEMA_VERSION: u64 = 1;

/// Suffix of finished store entries.
pub const STORE_SUFFIX: &str = ".adb";

/// Why a store file could not be used, in decode-precedence order.
///
/// Every variant is a degrade-to-rebuild, not an error: the caller
/// builds the database fresh and reports the reason as a typed obs
/// event (INV-STORE-DEGRADE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The file could not be read (permissions, I/O error).
    Io(String),
    /// The file is empty or missing its body line entirely.
    Truncated,
    /// Line 1 is not a well-formed header object.
    MalformedHeader,
    /// The header names a schema version this build does not speak
    /// (older or newer).
    UnknownVersion(u64),
    /// The body bytes do not hash to the header's checksum (torn or
    /// flipped bits).
    ChecksumMismatch,
    /// The checksum held but the body is not a well-formed entry.
    MalformedBody(String),
    /// The body's embedded fingerprints differ from the requested key —
    /// a foreign file parked under our name.
    Foreign,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::Io(e) => write!(f, "unreadable: {e}"),
            DegradeReason::Truncated => write!(f, "truncated"),
            DegradeReason::MalformedHeader => write!(f, "malformed header"),
            DegradeReason::UnknownVersion(v) => {
                write!(f, "unknown store schema version {v}")
            }
            DegradeReason::ChecksumMismatch => write!(f, "checksum mismatch"),
            DegradeReason::MalformedBody(e) => write!(f, "malformed body: {e}"),
            DegradeReason::Foreign => write!(f, "foreign fingerprints"),
        }
    }
}

/// A load that found a file but could not use it: which file, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// File name (not full path) of the offending entry.
    pub file: String,
    /// What was wrong with it.
    pub reason: DegradeReason,
}

/// One store entry as seen by the admin CLI (`aceso store ls|verify`).
#[derive(Debug)]
pub struct EntryInfo {
    /// File name within the store directory.
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// Schema version from the header, when the header parsed.
    pub schema_version: Option<u64>,
    /// Profiled grid entries in the body, when the body decoded.
    pub entries: Option<usize>,
    /// `Ok` when the file decodes cleanly under its own file name,
    /// otherwise the degrade reason `serve` would report for it.
    pub status: Result<(), DegradeReason>,
}

/// Handle on one store directory plus its retention budget.
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    budget_bytes: u64,
    fs: Arc<dyn Fs>,
    direct_writes: bool,
    sweep_errors: Arc<AtomicU64>,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: &Path, budget_bytes: u64) -> std::io::Result<Self> {
        Self::open_with(dir, budget_bytes, Arc::new(RealFs))
    }

    /// [`Store::open`] over an injectable filesystem. Production code
    /// passes [`RealFs`] (via [`Store::open`]); the chaos engine passes
    /// a `ChaosFs` to exercise the store's fault contract.
    pub fn open_with(dir: &Path, budget_bytes: u64, fs: Arc<dyn Fs>) -> std::io::Result<Self> {
        fs.create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            budget_bytes,
            fs,
            direct_writes: false,
            sweep_errors: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Mutation-gate hook (`aceso chaos run --mutate store-direct-write`):
    /// when enabled, [`Store::save`] and touch-on-load write entries
    /// *directly* to their final path instead of via temp+rename —
    /// deliberately breaking INV-STORE-ATOMIC so the chaos engine can
    /// prove its oracles catch torn entries. Never enabled in
    /// production paths.
    pub fn set_direct_writes(&mut self, on: bool) {
        self.direct_writes = on;
    }

    /// Drains the count of retention-sweep removals that failed since
    /// the last call (INV-CHAOS-SWEEP; feeds `retention_sweep_errors`).
    pub fn take_sweep_errors(&self) -> u64 {
        self.sweep_errors.swap(0, Ordering::Relaxed)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path an entry for this key lives at (whether or not it exists).
    pub fn entry_path(&self, model_fp: u64, cluster_fp: u64) -> PathBuf {
        self.dir.join(entry_name(model_fp, cluster_fp))
    }

    /// Loads the entry for `(model_fp, cluster_fp)`.
    ///
    /// `Ok(None)` is a plain miss (no file). `Err` means a file was
    /// present but unusable; per INV-STORE-DEGRADE the caller must
    /// treat this exactly like a miss, plus report the typed reason.
    /// A successful load refreshes the entry's modification time (the
    /// disk-LRU clock) by atomically rewriting it.
    pub fn load(&self, model_fp: u64, cluster_fp: u64) -> Result<Option<ProfileDb>, Degraded> {
        let path = self.entry_path(model_fp, cluster_fp);
        let file = entry_name(model_fp, cluster_fp);
        let bytes = match self.fs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(Degraded {
                    file,
                    reason: DegradeReason::Io(e.to_string()),
                })
            }
        };
        let text = String::from_utf8_lossy(&bytes);
        let db = decode(&text, Some((model_fp, cluster_fp)))
            .map_err(|reason| Degraded { file, reason })?;
        // Touch-on-load: std cannot set mtimes, so the LRU clock is
        // refreshed by rewriting the (identical) bytes atomically. Losing
        // the race against an eviction or a concurrent writer is fine —
        // the rename either lands or the file was replaced with equally
        // valid contents (INV-STORE-ATOMIC).
        let _ = self.write_entry(&path, &bytes);
        Ok(Some(db))
    }

    /// Encodes `db` under `(model_fp, cluster_fp)` and publishes it with
    /// a temp-file write + rename (INV-STORE-ATOMIC), then enforces the
    /// byte budget by evicting least-recently-used entries (never the
    /// one just written). Returns how many entries were evicted.
    pub fn save(&self, model_fp: u64, cluster_fp: u64, db: &ProfileDb) -> std::io::Result<usize> {
        let path = self.entry_path(model_fp, cluster_fp);
        let text = encode(db, model_fp, cluster_fp);
        self.write_entry(&path, text.as_bytes())?;
        Ok(self.evict(&path))
    }

    /// Evicts oldest-first until the store fits its byte budget,
    /// sparing `keep`. Returns the number of files removed; failed
    /// removals are counted into [`Store::take_sweep_errors`] rather
    /// than swallowed (INV-CHAOS-SWEEP).
    fn evict(&self, keep: &Path) -> usize {
        let files = retention::scan_dir_with(self.fs.as_ref(), &self.dir, &[STORE_SUFFIX]);
        let victims = retention::over_budget_lru(&files, self.budget_bytes, &[keep]);
        let outcome = retention::remove_all_with(self.fs.as_ref(), &victims);
        self.sweep_errors
            .fetch_add(outcome.errors as u64, Ordering::Relaxed);
        outcome.removed
    }

    /// Publishes entry bytes at `path`: temp file + rename
    /// (INV-STORE-ATOMIC) unless the [`Store::set_direct_writes`]
    /// mutation gate is on.
    fn write_entry(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.direct_writes {
            return self.fs.write(path, bytes);
        }
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        // The pid keeps daemons sharing one store apart; the sequence
        // number keeps writers within one process apart (touch-on-load
        // rewrites an entry on every load, so concurrent loads of one
        // key would otherwise truncate each other's temp file).
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_file_name(format!("{file}.tmp.{}.{seq}", std::process::id()));
        fsio::write_atomic(self.fs.as_ref(), path, &tmp, bytes)
    }

    /// Inspects every `.adb` file in the store, decoding each under its
    /// own file name. Sorted by file name for stable CLI output.
    pub fn ls(&self) -> Vec<EntryInfo> {
        let mut files = retention::scan_dir_with(self.fs.as_ref(), &self.dir, &[STORE_SUFFIX]);
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files
            .iter()
            .map(|f| {
                let file = f
                    .path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let expected = parse_entry_name(&file);
                let (schema_version, entries, status) = match self.fs.read(&f.path) {
                    Err(e) => (None, None, Err(DegradeReason::Io(e.to_string()))),
                    Ok(bytes) => {
                        let text = String::from_utf8_lossy(&bytes);
                        let version = header_version(&text);
                        match (expected, decode(&text, expected)) {
                            (None, _) => (version, None, Err(DegradeReason::Foreign)),
                            (Some(_), Ok(db)) => (version, Some(db.len()), Ok(())),
                            (Some(_), Err(reason)) => (version, None, Err(reason)),
                        }
                    }
                };
                EntryInfo {
                    file,
                    bytes: f.len,
                    schema_version,
                    entries,
                    status,
                }
            })
            .collect()
    }

    /// Removes every entry [`Self::ls`] flags as unusable, plus leftover
    /// temp files from writers that died mid-write (their renames never
    /// happened, so they were never visible entries). Returns the number
    /// of files removed.
    pub fn prune(&self) -> usize {
        let mut removed = 0usize;
        for info in self.ls() {
            if info.status.is_err() && self.fs.remove_file(&self.dir.join(&info.file)).is_ok() {
                removed += 1;
            }
        }
        if let Ok(entries) = self.fs.scan_dir(&self.dir) {
            for entry in entries {
                let Some(name) = entry.path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if name.contains(".adb.tmp.") && self.fs.remove_file(&entry.path).is_ok() {
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// Canonical entry file name for a key.
pub fn entry_name(model_fp: u64, cluster_fp: u64) -> String {
    format!("{model_fp:016x}-{cluster_fp:016x}{STORE_SUFFIX}")
}

/// Parses a file name produced by [`entry_name`] back into its key.
pub fn parse_entry_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_suffix(STORE_SUFFIX)?;
    let (m, c) = stem.split_once('-')?;
    if m.len() != 16 || c.len() != 16 {
        return None;
    }
    Some((
        u64::from_str_radix(m, 16).ok()?,
        u64::from_str_radix(c, 16).ok()?,
    ))
}

/// Serialises `db` into the two-line store format described in the
/// crate docs. Deterministic: entries are emitted in canonical key
/// order and times as raw bit patterns (INV-STORE-BITEXACT).
pub fn encode(db: &ProfileDb, model_fp: u64, cluster_fp: u64) -> String {
    let dump = db.canonical_entries();
    let mut sigs: Vec<Value> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut tps = Vec::with_capacity(dump.len());
    let mut dims = Vec::with_capacity(dump.len());
    let mut batches = Vec::with_capacity(dump.len());
    let mut times_bits = Vec::with_capacity(dump.len());
    let mut last_sig: Option<u64> = None;
    for (sig, tp, dim, batch, bits) in dump {
        // RLE over the sorted dump: each distinct operator signature is
        // written once with a run count instead of once per grid point.
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
    let body = obj([
        ("model_fp", Value::UInt(model_fp)),
        ("cluster_fp", Value::UInt(cluster_fp)),
        ("cluster", db.cluster().to_json_value()),
        ("precision", db.precision().to_json_value()),
        (
            "profiling_seconds_bits",
            Value::UInt(db.simulated_profiling_seconds().to_bits()),
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
    .to_string_compact();
    let header = obj([
        ("store_schema_version", Value::UInt(STORE_SCHEMA_VERSION)),
        ("checksum", Value::UInt(fnv1a(body.as_bytes()))),
    ])
    .to_string_compact();
    format!("{header}\n{body}\n")
}

/// Schema version stated in a file's header line, if it parses at all
/// (used by `aceso store ls` to show versions of undecodable files).
pub fn header_version(text: &str) -> Option<u64> {
    let header = text.lines().next()?;
    let v = Value::parse(header).ok()?;
    v.field("store_schema_version").ok()?.as_u64().ok()
}

/// Decodes one store file back into a [`ProfileDb`].
///
/// Checks run in precedence order — header shape, schema version,
/// checksum, body shape, then (when `expected` is given) embedded
/// fingerprints against the requested key — so the reported
/// [`DegradeReason`] names the outermost problem. Any failure is a
/// degrade, never a partially decoded database (INV-STORE-DEGRADE).
pub fn decode(text: &str, expected: Option<(u64, u64)>) -> Result<ProfileDb, DegradeReason> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .filter(|l| !l.is_empty())
        .ok_or(DegradeReason::Truncated)?;
    let header = Value::parse(header).map_err(|_| DegradeReason::MalformedHeader)?;
    let version = header
        .field("store_schema_version")
        .and_then(|v| v.as_u64())
        .map_err(|_| DegradeReason::MalformedHeader)?;
    if version != STORE_SCHEMA_VERSION {
        return Err(DegradeReason::UnknownVersion(version));
    }
    let checksum = header
        .field("checksum")
        .and_then(|v| v.as_u64())
        .map_err(|_| DegradeReason::MalformedHeader)?;
    let body = lines.next().ok_or(DegradeReason::Truncated)?;
    if fnv1a(body.as_bytes()) != checksum {
        return Err(DegradeReason::ChecksumMismatch);
    }
    let body = Value::parse(body).map_err(|e| DegradeReason::MalformedBody(e.to_string()))?;
    parse_body(&body, expected)
}

/// Body-shape decoding behind [`decode`]'s integrity gates.
fn parse_body(body: &Value, expected: Option<(u64, u64)>) -> Result<ProfileDb, DegradeReason> {
    let bad = |e: aceso_util::json::JsonError| DegradeReason::MalformedBody(e.to_string());
    let shape = |msg: &str| DegradeReason::MalformedBody(msg.to_string());
    let model_fp = body
        .field("model_fp")
        .and_then(|v| v.as_u64())
        .map_err(bad)?;
    let cluster_fp = body
        .field("cluster_fp")
        .and_then(|v| v.as_u64())
        .map_err(bad)?;
    if let Some((m, c)) = expected {
        if (model_fp, cluster_fp) != (m, c) {
            return Err(DegradeReason::Foreign);
        }
    }
    let cluster = ClusterSpec::from_json_value(body.field("cluster").map_err(bad)?).map_err(bad)?;
    let precision =
        Precision::from_json_value(body.field("precision").map_err(bad)?).map_err(bad)?;
    let profiling_seconds = f64::from_bits(
        body.field("profiling_seconds_bits")
            .and_then(|v| v.as_u64())
            .map_err(bad)?,
    );
    let u64s = |key: &str| -> Result<Vec<u64>, DegradeReason> {
        body.field(key)
            .and_then(|v| v.as_array())
            .map_err(bad)?
            .iter()
            .map(|v| v.as_u64())
            .collect::<Result<_, _>>()
            .map_err(bad)
    };
    let sigs = u64s("sigs")?;
    let counts = u64s("counts")?;
    let tps = u64s("tps")?;
    let dims = u64s("dims")?;
    let batches = u64s("batches")?;
    let times_bits = u64s("times_bits")?;
    if sigs.len() != counts.len() {
        return Err(shape("sigs/counts length mismatch"));
    }
    let total: u64 = counts.iter().sum();
    let total = usize::try_from(total).map_err(|_| shape("entry count overflows"))?;
    if tps.len() != total
        || dims.len() != total
        || batches.len() != total
        || times_bits.len() != total
    {
        return Err(shape("flat array length mismatch"));
    }
    let mut entries = Vec::with_capacity(total);
    let mut i = 0usize;
    for (sig, count) in sigs.iter().zip(&counts) {
        for _ in 0..*count {
            let tp = u32::try_from(tps[i]).map_err(|_| shape("tp out of range"))?;
            let dim = u8::try_from(dims[i]).map_err(|_| shape("dim out of range"))?;
            entries.push((*sig, tp, dim, batches[i], times_bits[i]));
            i += 1;
        }
    }
    Ok(ProfileDb::from_raw_parts(
        cluster,
        precision,
        profiling_seconds,
        entries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;
    use aceso_util::SplitMix64;

    fn setup() -> (ProfileDb, u64, u64) {
        let model = gpt3_custom("t", 2, 256, 4, 128, 1000, 64);
        let cluster = ClusterSpec::v100(1, 4);
        let db = ProfileDb::build(&model, &cluster);
        (db, 0x1111_2222_3333_4444, 0x5555_6666_7777_8888)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aceso-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let (db, m, c) = setup();
        let text = encode(&db, m, c);
        let back = decode(&text, Some((m, c))).expect("decodes");
        assert_eq!(back.canonical_entries(), db.canonical_entries());
        assert_eq!(back.precision(), db.precision());
        assert_eq!(
            back.simulated_profiling_seconds().to_bits(),
            db.simulated_profiling_seconds().to_bits()
        );
        assert_eq!(back.cluster(), db.cluster());
        // Deterministic encoding: same db encodes to identical bytes.
        assert_eq!(text, encode(&db, m, c));
    }

    #[test]
    fn store_save_load_roundtrip_and_miss() {
        let dir = tmpdir("roundtrip");
        let store = Store::open(&dir, u64::MAX).expect("open");
        let (db, m, c) = setup();
        assert!(store.load(m, c).expect("clean miss").is_none());
        store.save(m, c, &db).expect("save");
        let back = store.load(m, c).expect("no degrade").expect("hit");
        assert_eq!(back.canonical_entries(), db.canonical_entries());
        // The touch-on-load rewrite kept the entry decodable.
        let back2 = store.load(m, c).expect("no degrade").expect("hit");
        assert_eq!(back2.len(), db.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Concurrent loads of one key, through several handles in one
    /// process, each rewrite the entry (touch-on-load); every one must
    /// still decode cleanly.
    #[test]
    fn concurrent_same_process_loads_never_degrade() {
        let dir = tmpdir("concurrent-loads");
        let model = aceso_model::zoo::by_name("gpt3-0.35b").expect("zoo model");
        let db = ProfileDb::build(&model, &ClusterSpec::v100_gpus(4));
        let (m, c) = (1, 2);
        let stores = [
            Store::open(&dir, u64::MAX).expect("open"),
            Store::open(&dir, u64::MAX).expect("open"),
        ];
        stores[0].save(m, c, &db).expect("save");
        let degraded = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..3 {
                let (store, degraded) = (&stores[t % 2], &degraded);
                s.spawn(move || {
                    for _ in 0..400 {
                        if !matches!(store.load(m, c), Ok(Some(_))) {
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(degraded.load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_degrades_as_foreign() {
        let (db, m, c) = setup();
        let text = encode(&db, m, c);
        assert_eq!(
            decode(&text, Some((m + 1, c))).expect_err("foreign"),
            DegradeReason::Foreign
        );
    }

    #[test]
    fn future_version_degrades_not_misreads() {
        let (db, m, c) = setup();
        let text = encode(&db, m, c);
        let bumped = text.replacen(
            &format!("\"store_schema_version\":{STORE_SCHEMA_VERSION}"),
            "\"store_schema_version\":999",
            1,
        );
        assert_ne!(bumped, text, "version field located");
        assert_eq!(
            decode(&bumped, Some((m, c))).expect_err("future version"),
            DegradeReason::UnknownVersion(999)
        );
    }

    #[test]
    fn every_truncation_degrades_typed() {
        let (db, m, c) = setup();
        let text = encode(&db, m, c);
        // Exhaustive over a stride (full byte-by-byte is O(n²) on a big
        // body); always include the boundary cases.
        let mut cuts: Vec<usize> = (0..text.len()).step_by(37).collect();
        cuts.extend([0, 1, text.len() - 1]);
        for cut in cuts {
            let t = &text[..cut];
            if let Ok(db2) = decode(t, Some((m, c))) {
                // Only acceptable if the cut preserved the whole payload.
                assert_eq!(db2.canonical_entries(), db.canonical_entries(), "cut={cut}");
            }
            // No panic and no wrong db is the contract; reasons vary.
        }
    }

    #[test]
    fn every_byte_flip_degrades_or_roundtrips() {
        let (db, m, c) = setup();
        let text = encode(&db, m, c);
        let bytes = text.as_bytes();
        let mut rng = SplitMix64::new(0xACE5_0057);
        for round in 0..200 {
            let mut mutated = bytes.to_vec();
            let pos = (rng.next_u64() as usize) % mutated.len();
            let flip = 1u8 << (rng.next_u64() % 8) as u8;
            mutated[pos] ^= flip;
            let mutated = String::from_utf8_lossy(&mutated).into_owned();
            // A flip inside the body must be caught by the checksum or
            // the header gates; a decode can only succeed if the flip
            // landed somewhere semantically dead — and then it must
            // still be the *right* database.
            if let Ok(db2) = decode(&mutated, Some((m, c))) {
                assert_eq!(
                    db2.canonical_entries(),
                    db.canonical_entries(),
                    "round={round} pos={pos}"
                );
            }
        }
    }

    #[test]
    fn body_flip_is_checksum_mismatch() {
        let (db, m, c) = setup();
        let text = encode(&db, m, c);
        let nl = text.find('\n').expect("two lines");
        let mut bytes = text.into_bytes();
        // Flip a digit deep in the body, keeping JSON plausibly valid.
        let pos = nl + (bytes.len() - nl) / 2;
        bytes[pos] ^= 0x01;
        let mutated = String::from_utf8_lossy(&bytes).into_owned();
        assert_eq!(
            decode(&mutated, Some((m, c))).expect_err("flip caught"),
            DegradeReason::ChecksumMismatch
        );
    }

    #[test]
    fn lru_eviction_spares_newest_write() {
        let dir = tmpdir("evict");
        let (db, m, c) = setup();
        let one_entry = encode(&db, m, c).len() as u64;
        // Budget for roughly two entries.
        let store = Store::open(&dir, one_entry * 2 + one_entry / 2).expect("open");
        for i in 0..4u64 {
            store.save(m + i, c, &db).expect("save");
        }
        let left = store.ls();
        assert!(left.len() < 4, "eviction happened");
        // The most recent write always survives its own save.
        assert!(left.iter().any(|e| e.file == entry_name(m + 3, c)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ls_verify_and_prune_flag_bad_entries() {
        let dir = tmpdir("verify");
        let store = Store::open(&dir, u64::MAX).expect("open");
        let (db, m, c) = setup();
        store.save(m, c, &db).expect("save");
        // A corrupt sibling and a stale temp file.
        std::fs::write(dir.join(entry_name(m + 1, c)), "garbage\n").expect("write");
        std::fs::write(dir.join("deadbeef.adb.tmp.42"), "partial").expect("write");
        let infos = store.ls();
        assert_eq!(infos.len(), 2, "temp files are not entries");
        let good = infos.iter().find(|e| e.status.is_ok()).expect("good entry");
        assert_eq!(good.schema_version, Some(STORE_SCHEMA_VERSION));
        assert_eq!(good.entries, Some(db.len()));
        let bad = infos.iter().find(|e| e.status.is_err()).expect("bad entry");
        assert_eq!(bad.file, entry_name(m + 1, c));
        let removed = store.prune();
        assert_eq!(removed, 2, "bad entry + stale temp");
        assert_eq!(store.ls().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_names_roundtrip() {
        assert_eq!(
            parse_entry_name(&entry_name(7, u64::MAX)),
            Some((7, u64::MAX))
        );
        assert_eq!(parse_entry_name("not-a-store-file.adb"), None);
        assert_eq!(parse_entry_name("0000000000000007.adb"), None);
    }
}
