//! Documentation-consistency gate.
//!
//! `ci.sh` runs this binary after the test suite. It fails (exit 1) when
//! any `docs/*.md`, `README.md`, or `results/README.md` mentions:
//!
//! * a `--flag` the `aceso` binary does not advertise in its usage text
//!   ([`aceso::cli::USAGE`]) — external-tool flags (cargo's) are
//!   allowlisted;
//! * a backticked `snake_case` token in a markdown table row that is not
//!   a registered counter, event kind, event field, or histogram
//!   ([`aceso::obs::schema`]) — structural/wire field names are
//!   allowlisted;
//! * a stale schema version: the phrase `checkpoint schema version: N`
//!   must match [`aceso::search::CHECKPOINT_SCHEMA_VERSION`], the phrase
//!   `store schema version: N` must match
//!   [`aceso::store::STORE_SCHEMA_VERSION`], and any other
//!   `schema version: N` / `` `schema_version` ``: N must match
//!   [`aceso::obs::SCHEMA_VERSION`].
//!
//! The registries are the single source of truth; this gate only keeps
//! the prose from drifting behind them.

use aceso::cli::USAGE;
use aceso::obs::schema::{COUNTERS, EVENTS, HISTOGRAMS};
use aceso::obs::SCHEMA_VERSION;
use aceso::search::CHECKPOINT_SCHEMA_VERSION;
use aceso::store::STORE_SCHEMA_VERSION;

/// Flags that belong to external tools (cargo) which the docs may
/// legitimately mention without the `aceso` binary advertising them.
const EXTERNAL_FLAGS: &[&str] = &[
    "--release",
    "--bin",
    "--test",
    "--example",
    "--workspace",
    "--quiet",
    "--all-targets",
];

/// Backticked snake_case tokens that appear in doc table rows but name
/// wire-protocol fields, JSON structure, or keyed metric families rather
/// than schema registry entries. Anything not here and not in the
/// registry fails the gate.
const STRUCTURAL_TOKENS: &[&str] = &[
    // JSON snapshot / event-stream structure (docs/OBSERVABILITY.md).
    "schema_version",
    "counters",
    "histograms",
    "count",
    "sum",
    "buckets",
    "audit_findings",
    "seq",
    "kind",
    "wall_time_secs",
    // BENCH_search.json fields and the tools that write/gate them
    // (docs/BENCHMARKS.md).
    "obs_check",
    "serve_bench",
    "configs_per_sec",
    "serve_fleet",
    "clients",
    "submitted",
    "errors",
    "draws",
    "p50_us",
    "p50_us_range",
    "p99_us",
    "p99_us_range",
    "serve_restart",
    "restarts",
    "store_hits",
    "store_writes",
    "sim_profiling_s_saved",
    "cold_us",
    "warm_us",
    "restart_us",
    // Store file-format fields (docs/STORE.md).
    "store_schema_version",
    "checksum",
    "model_fp",
    "cluster_fp",
    "cluster",
    "precision",
    "profiling_seconds_bits",
    "sigs",
    "counts",
    "tps",
    "dims",
    "batches",
    "times_bits",
    // Wire-protocol frame fields (docs/SERVER.md).
    "request_id",
    "type",
    "code",
    "phase",
    "cache",
    "event",
    "result",
    "metrics",
    "protocol_version",
    "model",
    "gpus",
    "stages",
    "zero",
    "budget_secs",
    "plan",
    "best_time",
    "best_oom",
    "error",
    "message",
    "length",
    "timeout",
    // Audit finding fields (docs/ANALYSIS.md).
    "rule",
    "severity",
    "location",
    "detail",
    // Resource names (docs/SEARCH.md, docs/OBSERVABILITY.md prose).
    "compute",
    "communication",
    "memory",
    // Simulator schedule names.
    "gpipe",
    // Keyed chaos metric family and its fault-kind keys
    // (docs/OBSERVABILITY.md, docs/RELIABILITY.md).
    "chaos_faults_injected",
    "eio",
    "enospc",
    "short_write",
    "rename_fail",
    "crash",
    // Covering-test names and std idioms cited in the fault matrix
    // (docs/RELIABILITY.md); tests/chaos_doc.rs checks the test names
    // actually exist, this gate only needs to know they are not schema
    // tokens.
    "store_direct_write_mutant_is_caught_and_shrunk",
    "write_atomic_cleans_its_temp_on_rename_failure",
    "every_truncation_degrades_typed",
    "shared_store_daemons_race_eviction_against_load_without_errors",
    "no_counter_is_silently_dead",
    "two_hundred_seeded_schedules_violate_no_oracle",
    "submit_with_retries",
    "retry_deadline_bounds_total_wall_clock",
    "catch_unwind",
];

/// The documentation set the gate covers.
fn doc_paths() -> Vec<std::path::PathBuf> {
    let root = aceso_bench::harness::repo_root();
    let mut paths = vec![root.join("README.md"), root.join("results/README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<_> = std::fs::read_dir(&docs)
        .unwrap_or_else(|e| fail(&format!("cannot list {}: {e}", docs.display())))
        .map(|e| e.expect("readable docs entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    entries.sort();
    paths.extend(entries);
    paths
}

fn fail(msg: &str) -> ! {
    eprintln!("doc_check: FAIL: {msg}");
    std::process::exit(1);
}

/// Every `--flag` token in `text` (same shape the usage text uses).
fn flag_tokens(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find("--") {
        let start = i + pos;
        let end = bytes[start + 2..]
            .iter()
            .position(|b| !(b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'-'))
            .map_or(text.len(), |n| start + 2 + n);
        // Require a letter right after the dashes (skips `---` rules and
        // em-dash-like runs) and a non-dash boundary before them.
        let preceded_by_dash = start > 0 && bytes[start - 1] == b'-';
        if end > start + 2 && bytes[start + 2].is_ascii_lowercase() && !preceded_by_dash {
            out.push(text[start..end].trim_end_matches('-').to_string());
        }
        i = start + 2;
    }
    out
}

/// Backticked snake_case tokens in markdown table rows (lines starting
/// with `|`).
fn table_row_tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        if !line.trim_start().starts_with('|') {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let Some(len) = rest[open + 1..].find('`') else {
                break;
            };
            let token = &rest[open + 1..open + 1 + len];
            if !token.is_empty()
                && token
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                && token.chars().next().unwrap().is_ascii_lowercase()
            {
                out.push(token.to_string());
            }
            rest = &rest[open + 1 + len + 1..];
        }
    }
    out
}

/// Parses the unsigned integer starting at the first digit at or after
/// `from`, provided only `: ` / whitespace separates it.
fn version_after(text: &str, from: usize) -> Option<u64> {
    let tail = text[from..]
        .trim_start_matches(|c: char| c == ':' || c == '`' || c.is_whitespace())
        .trim_start_matches(|c: char| c == '=' || c.is_whitespace());
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn check_file(path: &std::path::Path, failures: &mut Vec<String>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    let name = path.file_name().unwrap().to_string_lossy().to_string();
    let in_docs = path.parent().is_some_and(|p| p.ends_with("docs"));

    // 1. Every mentioned flag must exist.
    for flag in flag_tokens(&text) {
        let known = USAGE.contains(&flag) || EXTERNAL_FLAGS.contains(&flag.as_str());
        if !known {
            failures.push(format!(
                "{name}: flag `{flag}` is not advertised by the aceso binary \
                 (aceso::cli::USAGE) and is not an allowlisted external flag"
            ));
        }
    }

    // 2. Table-row schema tokens must be registered (docs/ only — README
    // tables describe repo layout, not the schema).
    if in_docs {
        for token in table_row_tokens(&text) {
            let registered = COUNTERS.iter().any(|(n, _)| *n == token)
                || HISTOGRAMS.iter().any(|(n, _, _)| *n == token)
                || EVENTS
                    .iter()
                    .any(|spec| spec.kind == token || spec.fields.iter().any(|f| f.name == token))
                || STRUCTURAL_TOKENS.contains(&token.as_str());
            if !registered {
                failures.push(format!(
                    "{name}: table row mentions `{token}`, which is not a \
                     registered counter/event/field/histogram (aceso::obs::schema) \
                     or allowlisted structural token"
                ));
            }
        }
    }

    // 3. Stated schema versions must be current.
    let lower = text.to_lowercase();
    let mut i = 0;
    while let Some(pos) = lower[i..].find("schema version") {
        let at = i + pos;
        i = at + "schema version".len();
        let Some(stated) = version_after(&lower, i) else {
            continue; // prose like "schema version history"
        };
        let prefix = lower[..at].trim_end();
        let is_checkpoint = prefix.ends_with("checkpoint");
        let is_store = prefix.ends_with("store");
        let (expected, family) = if is_checkpoint {
            (CHECKPOINT_SCHEMA_VERSION, "checkpoint")
        } else if is_store {
            (STORE_SCHEMA_VERSION, "store")
        } else {
            (SCHEMA_VERSION, "observability")
        };
        if stated != expected {
            failures.push(format!(
                "{name}: states {family} schema version {stated}, but the \
                 current version is {expected}"
            ));
        }
    }
}

fn main() {
    let mut failures = Vec::new();
    let paths = doc_paths();
    for path in &paths {
        check_file(path, &mut failures);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("doc_check: FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "doc_check: OK ({} files; flags vs USAGE, table tokens vs obs::schema, \
         schema versions vs code)",
        paths.len()
    );
}
