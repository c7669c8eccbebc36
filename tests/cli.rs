//! Black-box tests of the `aceso` binary's argument handling: flag
//! conflicts must fail fast with a usage error (exit 2) instead of
//! silently writing empty artifacts, `obs-diff` must refuse
//! cross-schema comparisons, and a rerun of a search must print the
//! same plan.

use std::process::Command;

fn aceso() -> Command {
    Command::new(env!("CARGO_BIN_EXE_aceso"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aceso-cli-{}-{name}", std::process::id()));
    p
}

/// `--no-metrics` disables the recorder, so combining it with
/// `--metrics-out` used to write an empty file; now it is a usage error
/// and nothing is written.
#[test]
fn no_metrics_with_metrics_out_is_a_usage_error() {
    let out = temp_path("metrics.json");
    let _ = std::fs::remove_file(&out);
    let output = aceso()
        .args(["--model", "deepnet-8l", "--no-metrics", "--metrics-out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2), "must exit with usage error");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--no-metrics"),
        "stderr must explain the conflict: {stderr}"
    );
    assert!(!out.exists(), "no empty artifact may be written");
}

/// Same conflict with `--events-out`.
#[test]
fn no_metrics_with_events_out_is_a_usage_error() {
    let out = temp_path("events.jsonl");
    let _ = std::fs::remove_file(&out);
    let output = aceso()
        .args(["--model", "deepnet-8l", "--no-metrics", "--events-out"])
        .arg(&out)
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(!out.exists());
}

/// An unknown model still exits 2 through the shared zoo lookup.
#[test]
fn unknown_model_is_a_usage_error() {
    let output = aceso()
        .args(["--model", "no-such-model"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown model"));
}

/// A file under the system temp dir, removed when dropped — also when
/// an assertion panics first.
struct TempFile(std::path::PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn write_snapshot(name: &str, version: u64, evals: u64) -> TempFile {
    let path = TempFile(temp_path(name));
    std::fs::write(
        &path.0,
        format!(
            "{{\"schema_version\": {version}, \"counters\": {{\"perf_evaluations\": {evals}}}, \
             \"primitives_applied\": {{}}, \"histograms\": {{}}}}\n"
        ),
    )
    .expect("writes snapshot");
    path
}

/// `obs-diff` renders deltas for same-schema snapshots (exit 0) and
/// refuses cross-schema comparisons (exit 2).
#[test]
fn obs_diff_diffs_and_refuses_schema_mismatch() {
    let a = write_snapshot("diff-a.json", 3, 10);
    let b = write_snapshot("diff-b.json", 3, 14);
    let output = aceso()
        .arg("obs-diff")
        .args([&a.0, &b.0])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(0), "same-schema diff succeeds");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("perf_evaluations") && stdout.contains("+4"),
        "diff must show the counter delta: {stdout}"
    );

    let old = write_snapshot("diff-old.json", 2, 10);
    let output = aceso()
        .arg("obs-diff")
        .args([&a.0, &old.0])
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(2),
        "schema mismatch must exit non-zero"
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("schema"));
}

/// A search the CLI finishes by exhausting its candidates, long before
/// its wall-clock budget (deepnet-8l on one GPU: 234 configurations),
/// so its plan is deterministic. Metrics are off so stdout holds only
/// the plan.
const SEARCH: [&str; 5] = ["--model", "deepnet-8l", "--gpus", "1", "--no-metrics"];

/// Runs `aceso SEARCH`, asserts it succeeded, and returns its stdout
/// with the wall time cut from the "explored" line.
fn search_plan() -> String {
    let output = aceso().args(SEARCH).output().expect("runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "search fails: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let plan: Vec<&str> = stdout
        .lines()
        .map(|l| l.split(" in ").next().unwrap_or(l))
        .collect();
    plan.join("\n")
}

/// A crashed search is a rerun: the search is deterministic, so running
/// it again prints the same plan.
#[test]
fn rerunning_a_search_prints_the_same_plan() {
    assert_eq!(
        search_plan(),
        search_plan(),
        "a rerun must print the same plan"
    );
}

/// The search has no checkpoint or resume flags: each is an unknown flag
/// and a usage error.
#[test]
fn search_rejects_the_retired_checkpoint_flags() {
    for flag in ["--checkpoint", "--resume", "--checkpoint-every"] {
        let output = aceso()
            .args(["search", "--model", "deepnet-8l", flag, "1"])
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flag} must be a usage error"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
    }
}
