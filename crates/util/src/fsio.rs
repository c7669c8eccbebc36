//! Injectable filesystem side-effects: the seam the chaos engine uses.
//!
//! Every durable write the system performs — store entries, checkpoint
//! spools, retention sweeps — goes through the [`Fs`] trait instead of
//! calling `std::fs` directly. Production code uses
//! [`RealFs`], a zero-cost passthrough whose behaviour is byte-identical
//! to the direct calls it replaced (INV-CHAOS-REALFS). Tests and the
//! chaos engine (`crates/chaos`, `docs/RELIABILITY.md`) substitute
//! [`ChaosFs`], which consults a seeded [`FaultSchedule`] and injects
//! one typed fault per scheduled operation: EIO, ENOSPC, a short write
//! of N bytes, a failed rename, or a simulated crash-point that freezes
//! every subsequent mutation (the writes a real crash would have lost).
//!
//! Determinism contract (INV-CHAOS-DETERMINISM): a [`ChaosFs`] numbers
//! faultable operations 0, 1, 2, … in call order and injects exactly
//! the faults its schedule maps to those ordinals — so a fixed workload
//! over a fixed schedule reproduces the same faults, which is what
//! makes failing schedules replayable and shrinkable.

use crate::json::{JsonError, Value};
use crate::SplitMix64;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::SystemTime;

/// Metadata of one directory entry returned by [`Fs::scan_dir`].
#[derive(Debug, Clone)]
pub struct ScanEntry {
    /// Absolute path of the entry.
    pub path: PathBuf,
    /// Last-modified time (`UNIX_EPOCH` when unavailable).
    pub modified: SystemTime,
    /// Size in bytes.
    pub len: u64,
    /// Whether the entry is a regular file.
    pub is_file: bool,
}

/// The filesystem operations the system's durable paths need.
///
/// Implementations must be shareable across threads; the daemon clones
/// one `Arc<dyn Fs>` into every subsystem that touches disk.
pub trait Fs: Send + Sync + std::fmt::Debug {
    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes `bytes` to `path`, creating or truncating it.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Renames `from` to `to` (the atomic-publish step).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Lists `dir` (non-recursively) with per-entry metadata.
    fn scan_dir(&self, dir: &Path) -> io::Result<Vec<ScanEntry>>;
    /// Flushes any buffered state for `path` to durable storage.
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Sets the modification time of the file at `path` to now, leaving
    /// its bytes and its inode as they are.
    fn touch(&self, path: &Path) -> io::Result<()>;
}

/// Passthrough to `std::fs` — the production implementation. Behaviour
/// is byte-identical to calling `std::fs` directly (INV-CHAOS-REALFS).
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl Fs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn scan_dir(&self, dir: &Path) -> io::Result<Vec<ScanEntry>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let Ok(entry) = entry else { continue };
            let Ok(meta) = entry.metadata() else { continue };
            out.push(ScanEntry {
                path: entry.path(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                len: meta.len(),
                is_file: meta.is_file(),
            });
        }
        Ok(out)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_modified(SystemTime::now())
    }
}

/// Writes `bytes` to `tmp`, then renames it over `path` — the shared
/// atomic-publish idiom (INV-STORE-ATOMIC and the spool contract). On a
/// failed rename the temp file is best-effort removed so it cannot be
/// mistaken for a finished artifact.
pub fn write_atomic(fs: &dyn Fs, path: &Path, tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    fs.write(tmp, bytes)?;
    match fs.rename(tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs.remove_file(tmp);
            Err(e)
        }
    }
}

/// One injectable fault kind (the per-op outcomes of a
/// [`FaultSchedule`]; `Ok` is the implicit default for unscheduled ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an injected I/O error.
    Eio,
    /// The operation fails with an injected no-space error.
    Enospc,
    /// A write persists only its first `N` bytes, then fails — a torn
    /// file at the written path.
    ShortWrite(u64),
    /// A rename fails (the publish step of an atomic write); non-rename
    /// ops scheduled with this kind fail like [`FaultKind::Eio`].
    RenameFail,
    /// Simulated crash-point: this and every later mutating operation
    /// silently never reaches disk (what a real crash would lose), and
    /// [`ChaosFs::crashed`] turns true so a driver can restart the
    /// "process".
    Crash,
}

impl FaultKind {
    /// Stable snake_case name, used in traces and the
    /// `chaos_faults_injected` counter family.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Eio => "eio",
            FaultKind::Enospc => "enospc",
            FaultKind::ShortWrite(_) => "short_write",
            FaultKind::RenameFail => "rename_fail",
            FaultKind::Crash => "crash",
        }
    }
}

/// One scheduled fault: inject `kind` at faultable operation `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Ordinal of the faultable filesystem operation (0-based, in the
    /// workload's call order).
    pub op: u64,
    /// The fault to inject there.
    pub kind: FaultKind,
}

/// A deterministic per-operation fault plan for one [`ChaosFs`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Scheduled faults, sorted by [`FaultEvent::op`].
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule: every operation succeeds, and the wrapped
    /// [`ChaosFs`] behaves exactly like [`RealFs`] (INV-CHAOS-REALFS).
    pub fn none() -> Self {
        Self::default()
    }

    /// Generates a schedule from a seed: up to `max_faults` faults
    /// spread over the first `horizon` faultable operations, with kinds
    /// and positions drawn from a [`SplitMix64`]. The same seed always
    /// produces the same schedule.
    pub fn from_seed(seed: u64, horizon: u64, max_faults: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xC4A0_5FA0_17ED);
        let mut by_op: BTreeMap<u64, FaultKind> = BTreeMap::new();
        let n = if max_faults == 0 {
            0
        } else {
            (rng.next_u64() as usize) % (max_faults + 1)
        };
        for _ in 0..n {
            let op = rng.next_u64() % horizon.max(1);
            let kind = match rng.next_u64() % 5 {
                0 => FaultKind::Eio,
                1 => FaultKind::Enospc,
                2 => FaultKind::ShortWrite(rng.next_u64() % 64),
                3 => FaultKind::RenameFail,
                _ => FaultKind::Crash,
            };
            by_op.entry(op).or_insert(kind);
        }
        Self {
            events: by_op
                .into_iter()
                .map(|(op, kind)| FaultEvent { op, kind })
                .collect(),
        }
    }

    /// Serialises the schedule for a replayable trace.
    pub fn to_json_value(&self) -> Value {
        Value::Array(
            self.events
                .iter()
                .map(|e| {
                    let mut fields = vec![
                        ("op".to_string(), Value::UInt(e.op)),
                        ("kind".to_string(), Value::Str(e.kind.name().to_string())),
                    ];
                    if let FaultKind::ShortWrite(n) = e.kind {
                        fields.push(("bytes".to_string(), Value::UInt(n)));
                    }
                    Value::Object(fields)
                })
                .collect(),
        )
    }

    /// Restores a schedule from [`FaultSchedule::to_json_value`] output.
    pub fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let mut events = Vec::new();
        for e in v.as_array()? {
            let op = e.field("op")?.as_u64()?;
            let kind = match e.field("kind")?.as_str()? {
                "eio" => FaultKind::Eio,
                "enospc" => FaultKind::Enospc,
                "short_write" => FaultKind::ShortWrite(e.field("bytes")?.as_u64()?),
                "rename_fail" => FaultKind::RenameFail,
                "crash" => FaultKind::Crash,
                other => {
                    return Err(JsonError::shape(format!("unknown fault kind `{other}`")));
                }
            };
            events.push(FaultEvent { op, kind });
        }
        events.sort_by_key(|e| e.op);
        Ok(Self { events })
    }
}

/// One fault a [`ChaosFs`] actually injected (schedules may name
/// ordinals the workload never reaches).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Ordinal of the operation the fault landed on.
    pub op: u64,
    /// The injected fault.
    pub kind: FaultKind,
    /// Path of the operation's target.
    pub path: PathBuf,
}

#[derive(Debug, Default)]
struct ChaosState {
    by_op: BTreeMap<u64, FaultKind>,
    next_op: u64,
    frozen: bool,
    injected: Vec<InjectedFault>,
}

/// A filesystem that injects the faults of a [`FaultSchedule`].
///
/// Wraps [`RealFs`]: unscheduled operations pass straight through, so a
/// `ChaosFs` with an empty schedule is byte-identical to `RealFs`
/// (INV-CHAOS-REALFS). Reads stay live after a [`FaultKind::Crash`] —
/// the disk's contents survive a crash, the in-flight writes do not.
#[derive(Debug)]
pub struct ChaosFs {
    inner: RealFs,
    state: Mutex<ChaosState>,
}

impl ChaosFs {
    /// A chaos filesystem driven by `schedule`.
    pub fn new(schedule: &FaultSchedule) -> Self {
        Self {
            inner: RealFs,
            state: Mutex::new(ChaosState {
                by_op: schedule.events.iter().map(|e| (e.op, e.kind)).collect(),
                ..ChaosState::default()
            }),
        }
    }

    /// Whether a [`FaultKind::Crash`] point has been reached (all later
    /// mutations are frozen; the driver should treat the process as
    /// dead and restart it on a fresh `Fs`).
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("chaos state").frozen
    }

    /// Every fault injected so far, in injection order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.state.lock().expect("chaos state").injected.clone()
    }

    /// How many faultable operations the workload has performed.
    pub fn ops_used(&self) -> u64 {
        self.state.lock().expect("chaos state").next_op
    }

    /// Takes the next operation ordinal and the fault scheduled for it,
    /// recording the injection. Returns `(fault, frozen)`.
    fn step(&self, path: &Path) -> (Option<FaultKind>, bool) {
        let mut state = self.state.lock().expect("chaos state");
        let op = state.next_op;
        state.next_op += 1;
        let fault = state.by_op.get(&op).copied();
        if let Some(kind) = fault {
            state.injected.push(InjectedFault {
                op,
                kind,
                path: path.to_path_buf(),
            });
            if kind == FaultKind::Crash {
                state.frozen = true;
            }
        }
        (fault, state.frozen)
    }
}

fn injected_err(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl Fs for ChaosFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // Reads survive a crash point (the disk is intact); only a
        // directly scheduled fault can fail them.
        match self.step(path).0 {
            None | Some(FaultKind::Crash) => self.inner.read(path),
            Some(FaultKind::Enospc) => Err(injected_err("ENOSPC")),
            Some(_) => Err(injected_err("EIO")),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let (fault, frozen) = self.step(path);
        match fault {
            Some(FaultKind::Eio) | Some(FaultKind::RenameFail) => Err(injected_err("EIO")),
            Some(FaultKind::Enospc) => Err(injected_err("ENOSPC")),
            Some(FaultKind::ShortWrite(n)) => {
                let cut = (n as usize).min(bytes.len());
                if !frozen {
                    // The torn prefix really lands on disk — exactly
                    // what a crash mid-write leaves behind.
                    self.inner.write(path, &bytes[..cut])?;
                }
                Err(injected_err("short write"))
            }
            // Crash (now or earlier): the write silently never happens.
            Some(FaultKind::Crash) => Ok(()),
            None if frozen => Ok(()),
            None => self.inner.write(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (fault, frozen) = self.step(to);
        match fault {
            Some(FaultKind::RenameFail) | Some(FaultKind::Eio) => Err(injected_err("EIO")),
            Some(FaultKind::Enospc) => Err(injected_err("ENOSPC")),
            Some(FaultKind::ShortWrite(_)) => Err(injected_err("EIO")),
            Some(FaultKind::Crash) => Ok(()),
            None if frozen => Ok(()),
            None => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let (fault, frozen) = self.step(path);
        match fault {
            Some(FaultKind::Enospc) => Err(injected_err("ENOSPC")),
            Some(FaultKind::Crash) => Ok(()),
            Some(_) => Err(injected_err("EIO")),
            None if frozen => Ok(()),
            None => self.inner.remove_file(path),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Directory creation is not a scheduled op: chaos scenarios
        // target entry/spool lifecycles, and a missing root directory
        // would fail every run identically instead of probing recovery.
        self.inner.create_dir_all(dir)
    }

    fn scan_dir(&self, dir: &Path) -> io::Result<Vec<ScanEntry>> {
        // Scans are read-only and best-effort at every call site.
        self.inner.scan_dir(dir)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let (fault, frozen) = self.step(path);
        match fault {
            Some(FaultKind::Enospc) => Err(injected_err("ENOSPC")),
            Some(FaultKind::Crash) => Ok(()),
            Some(_) => Err(injected_err("EIO")),
            None if frozen => Ok(()),
            None => self.inner.sync(path),
        }
    }

    fn touch(&self, path: &Path) -> io::Result<()> {
        let (fault, frozen) = self.step(path);
        match fault {
            Some(FaultKind::Enospc) => Err(injected_err("ENOSPC")),
            Some(FaultKind::Crash) => Ok(()),
            Some(_) => Err(injected_err("EIO")),
            None if frozen => Ok(()),
            None => self.inner.touch(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aceso-fsio-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    #[test]
    fn empty_schedule_is_a_passthrough() {
        let dir = tmpdir("passthrough");
        let chaos = ChaosFs::new(&FaultSchedule::none());
        let path = dir.join("a.txt");
        chaos.write(&path, b"hello").expect("write");
        assert_eq!(chaos.read(&path).expect("read"), b"hello");
        chaos.rename(&path, &dir.join("b.txt")).expect("rename");
        assert_eq!(
            std::fs::read(dir.join("b.txt")).expect("real read"),
            b"hello"
        );
        assert!(!chaos.crashed());
        assert!(chaos.injected().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_leaves_a_torn_prefix() {
        let dir = tmpdir("short");
        let chaos = ChaosFs::new(&FaultSchedule {
            events: vec![FaultEvent {
                op: 0,
                kind: FaultKind::ShortWrite(3),
            }],
        });
        let path = dir.join("torn.txt");
        assert!(chaos.write(&path, b"hello world").is_err());
        assert_eq!(std::fs::read(&path).expect("prefix on disk"), b"hel");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_point_freezes_every_later_mutation_but_not_reads() {
        let dir = tmpdir("crash");
        let chaos = ChaosFs::new(&FaultSchedule {
            events: vec![FaultEvent {
                op: 1,
                kind: FaultKind::Crash,
            }],
        });
        let before = dir.join("before.txt");
        chaos.write(&before, b"durable").expect("pre-crash write");
        let after = dir.join("after.txt");
        // The crash-point op and everything later silently never lands.
        chaos
            .write(&after, b"lost")
            .expect("frozen writes report ok");
        chaos.write(&dir.join("also.txt"), b"lost").expect("frozen");
        assert!(chaos.crashed());
        assert!(!after.exists());
        assert_eq!(chaos.read(&before).expect("reads stay live"), b"durable");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedules_are_deterministic_and_round_trip_as_json() {
        let a = FaultSchedule::from_seed(42, 32, 6);
        let b = FaultSchedule::from_seed(42, 32, 6);
        assert_eq!(a, b);
        let back = FaultSchedule::from_json_value(&a.to_json_value()).expect("round trip");
        assert_eq!(back, a);
        // Different seeds eventually differ.
        assert!((0..64).any(|s| FaultSchedule::from_seed(s, 32, 6) != a));
    }

    #[test]
    fn injected_faults_are_logged_with_ordinals() {
        let dir = tmpdir("log");
        let chaos = ChaosFs::new(&FaultSchedule {
            events: vec![FaultEvent {
                op: 1,
                kind: FaultKind::Eio,
            }],
        });
        chaos.write(&dir.join("ok.txt"), b"x").expect("op 0 clean");
        assert!(chaos.write(&dir.join("bad.txt"), b"y").is_err());
        let log = chaos.injected();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].op, 1);
        assert_eq!(log[0].kind, FaultKind::Eio);
        assert_eq!(chaos.ops_used(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_cleans_its_temp_on_rename_failure() {
        let dir = tmpdir("atomic");
        let chaos = ChaosFs::new(&FaultSchedule {
            events: vec![FaultEvent {
                op: 1,
                kind: FaultKind::RenameFail,
            }],
        });
        let path = dir.join("entry.dat");
        let tmp = dir.join("entry.dat.tmp");
        assert!(write_atomic(&chaos, &path, &tmp, b"payload").is_err());
        assert!(!path.exists(), "failed publish must not surface the entry");
        assert!(!tmp.exists(), "temp file is cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
