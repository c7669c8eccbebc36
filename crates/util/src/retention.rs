//! Shared file-retention policies.
//!
//! Two daemon-side subsystems shed old files: the spool directory drops
//! request checkpoints whose owners never came back (TTL), and the
//! profile store evicts least-recently-used entries past a byte budget
//! (LRU). Both reduce to the same two steps — scan a directory for
//! files with a given suffix, then pick victims by modification time —
//! so both live here rather than growing two divergent copies.
//!
//! Everything is best-effort: an unreadable directory or a file that
//! vanishes mid-scan (another daemon swept it first) is skipped, never
//! an error. Retention is hygiene, not correctness — but hygiene
//! failures are no longer silent: [`remove_all_with`] counts removals
//! that failed for any reason other than the file already being gone,
//! and callers surface that count through the `retention_sweep_errors`
//! counter and a `sweep_degraded` event (INV-CHAOS-SWEEP).
//!
//! All filesystem access goes through [`crate::fsio::Fs`] so the chaos
//! engine can inject faults here; the suffix-less entry points delegate
//! to the `_with` variants over [`RealFs`].

use crate::fsio::{Fs, RealFs};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// One candidate file from a retention scan.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Absolute path of the file.
    pub path: PathBuf,
    /// Last-modified time (the retention clock).
    pub modified: SystemTime,
    /// Size in bytes.
    pub len: u64,
}

/// Scans `dir` (non-recursively) for regular files whose name ends with
/// any of `suffixes`, returning their metadata sorted oldest-first.
///
/// Missing or unreadable directories and entries yield an empty/partial
/// list rather than an error — a concurrent sweeper may be removing
/// entries while we walk.
pub fn scan_dir(dir: &Path, suffixes: &[&str]) -> Vec<FileMeta> {
    scan_dir_with(&RealFs, dir, suffixes)
}

/// [`scan_dir`] over an injectable filesystem.
pub fn scan_dir_with(fs: &dyn Fs, dir: &Path, suffixes: &[&str]) -> Vec<FileMeta> {
    let Ok(entries) = fs.scan_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries {
        let Some(name) = entry.path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !suffixes.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        if !entry.is_file {
            continue;
        }
        out.push(FileMeta {
            path: entry.path,
            modified: entry.modified,
            len: entry.len,
        });
    }
    out.sort_by(|a, b| a.modified.cmp(&b.modified).then(a.path.cmp(&b.path)));
    out
}

/// TTL policy: files from `files` whose age (relative to `now`) exceeds
/// `ttl`. A file with a modification time in the future counts as age
/// zero (clock skew, never expired).
pub fn expired(files: &[FileMeta], ttl: Duration, now: SystemTime) -> Vec<&FileMeta> {
    files
        .iter()
        .filter(|f| {
            now.duration_since(f.modified)
                .map(|age| age > ttl)
                .unwrap_or(false)
        })
        .collect()
}

/// Byte-budget LRU policy: the oldest files from `files` (which must be
/// sorted oldest-first, as [`scan_dir`] returns) whose removal brings
/// the total size within `budget`. Files whose path is in `keep` are
/// never selected and always count toward the total.
pub fn over_budget_lru<'a>(
    files: &'a [FileMeta],
    budget: u64,
    keep: &[&Path],
) -> Vec<&'a FileMeta> {
    let mut total: u64 = files.iter().map(|f| f.len).sum();
    let mut victims = Vec::new();
    for f in files {
        if total <= budget {
            break;
        }
        if keep.contains(&f.path.as_path()) {
            continue;
        }
        total = total.saturating_sub(f.len);
        victims.push(f);
    }
    victims
}

/// Outcome of a retention sweep: what was removed and what failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepOutcome {
    /// Files actually removed.
    pub removed: usize,
    /// Removals that failed for a reason other than the file already
    /// being gone. These feed the `retention_sweep_errors` counter and
    /// a `sweep_degraded` event instead of being dropped on the floor
    /// (INV-CHAOS-SWEEP).
    pub errors: usize,
}

/// Removes every file in `victims`, returning how many removals
/// succeeded. A file another daemon already removed is not counted.
pub fn remove_all(victims: &[&FileMeta]) -> usize {
    remove_all_with(&RealFs, victims).removed
}

/// [`remove_all`] over an injectable filesystem, with failed removals
/// counted instead of swallowed. A `NotFound` (another daemon swept
/// the file first) is neither a removal nor an error.
pub fn remove_all_with(fs: &dyn Fs, victims: &[&FileMeta]) -> SweepOutcome {
    let mut outcome = SweepOutcome::default();
    for f in victims {
        match fs.remove_file(&f.path) {
            Ok(()) => outcome.removed += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => outcome.errors += 1,
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aceso-retention-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmpdir");
        dir
    }

    /// Writes `len` bytes to `dir/name`, last modified `age` ago.
    fn touch(dir: &Path, name: &str, len: usize, age: Duration) -> PathBuf {
        let path = dir.join(name);
        std::fs::write(&path, vec![b'x'; len]).expect("write");
        std::fs::File::options()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_modified(SystemTime::now() - age))
            .expect("set mtime");
        path
    }

    #[test]
    fn scan_filters_by_suffix_and_sorts() {
        let dir = tmpdir("scan");
        touch(&dir, "a.ckpt", 10, Duration::from_secs(10));
        touch(&dir, "b.adb", 20, Duration::from_secs(20));
        touch(&dir, "c.tmp", 30, Duration::ZERO);
        let files = scan_dir(&dir, &[".ckpt", ".adb"]);
        let names: Vec<_> = files
            .iter()
            .map(|f| f.path.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        // Oldest first, whatever the names say.
        assert_eq!(names, ["b.adb", "a.ckpt"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_of_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("aceso-retention-nonexistent-dir");
        assert!(scan_dir(&dir, &[".ckpt"]).is_empty());
    }

    #[test]
    fn ttl_policy_selects_only_old_files() {
        let dir = tmpdir("ttl");
        touch(&dir, "old.ckpt", 1, Duration::from_secs(120));
        touch(&dir, "new.ckpt", 1, Duration::ZERO);
        let files = scan_dir(&dir, &[".ckpt"]);
        // Only the file older than the TTL has expired …
        let old = expired(&files, Duration::from_secs(60), SystemTime::now());
        assert_eq!(old.len(), 1);
        assert!(old[0].path.ends_with("old.ckpt"));
        // … with `now` far in the future everything has …
        let future = SystemTime::now() + Duration::from_secs(3600);
        assert_eq!(expired(&files, Duration::from_secs(60), future).len(), 2);
        // … with `now` at the modification time nothing is.
        assert!(expired(&files, Duration::from_secs(60), files[0].modified).is_empty());
        // Future mtimes (clock skew) never expire.
        let past = SystemTime::UNIX_EPOCH;
        assert!(expired(&files, Duration::ZERO, past).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_policy_evicts_oldest_until_within_budget() {
        let dir = tmpdir("lru");
        // Ages disagree with name order: b is oldest, then c, then a.
        touch(&dir, "a.adb", 100, Duration::from_secs(10));
        touch(&dir, "b.adb", 100, Duration::from_secs(30));
        touch(&dir, "c.adb", 100, Duration::from_secs(20));
        let files = scan_dir(&dir, &[".adb"]);
        let name = |f: &FileMeta| f.path.file_name().unwrap().to_str().unwrap().to_string();
        // Budget for two files → one victim, the oldest.
        let victims = over_budget_lru(&files, 200, &[]);
        assert_eq!(victims.len(), 1);
        assert_eq!(name(victims[0]), "b.adb");
        // Under budget → no victims.
        assert!(over_budget_lru(&files, 300, &[]).is_empty());
        // A kept file is skipped; the next-oldest goes instead.
        let victims = over_budget_lru(&files, 200, &[files[0].path.as_path()]);
        assert_eq!(victims.len(), 1);
        assert_eq!(name(victims[0]), "c.adb");
        // Zero budget with everything kept → nothing to remove.
        let keep: Vec<&Path> = files.iter().map(|f| f.path.as_path()).collect();
        assert!(over_budget_lru(&files, 0, &keep).is_empty());
        let removed = remove_all(&over_budget_lru(&files, 0, &[]));
        assert_eq!(removed, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_removals_are_counted_not_swallowed() {
        use crate::fsio::{ChaosFs, FaultEvent, FaultKind, FaultSchedule};
        let dir = tmpdir("sweep-errors");
        touch(&dir, "a.ckpt", 1, Duration::ZERO);
        touch(&dir, "b.ckpt", 1, Duration::ZERO);
        let files = scan_dir(&dir, &[".ckpt"]);
        let victims: Vec<&FileMeta> = files.iter().collect();
        // First removal hits an injected EIO; the second succeeds.
        let chaos = ChaosFs::new(&FaultSchedule {
            events: vec![FaultEvent {
                op: 0,
                kind: FaultKind::Eio,
            }],
        });
        let outcome = remove_all_with(&chaos, &victims);
        assert_eq!(
            outcome,
            SweepOutcome {
                removed: 1,
                errors: 1
            }
        );
        // A file already gone is neither a removal nor an error.
        let outcome = remove_all_with(&crate::fsio::RealFs, &victims);
        assert_eq!(outcome.errors, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
