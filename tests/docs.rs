//! The documentation is a test-enforced contract. Two kinds of check
//! keep it from drifting behind the code, whose registries stay the
//! single source of truth:
//!
//! * one contract row per architecture document, in
//!   `tests/doc_contracts/mod.rs`: docs/OBSERVABILITY.md's row is
//!   checked here, the others by `tests/{search,serve,store,chaos}_doc.rs`;
//! * three sweeps over `README.md`, `results/README.md` and `docs/*.md`:
//!   every `--flag` is one the `aceso` binary advertises
//!   ([`aceso::cli::USAGE`]) or an allowlisted external flag, every
//!   backticked snake_case token in a `docs/` table row is a registered
//!   schema name ([`aceso::obs::schema`]) or an allowlisted structural
//!   token, and every "… schema version: N" phrase states the current
//!   version of its family (checkpoint, store, or observability).

mod doc_contracts;

use aceso::cli::USAGE;
use aceso::obs::schema::{COUNTERS, EVENTS, HISTOGRAMS};
use aceso::obs::SCHEMA_VERSION;
use aceso::search::CHECKPOINT_SCHEMA_VERSION;
use aceso::store::STORE_SCHEMA_VERSION;
use doc_contracts::{assert_none, inv_tokens, read};

/// docs/OBSERVABILITY.md names every registered event kind and field,
/// counter and histogram, and states the current schema version.
#[test]
fn observability_doc_covers_the_registry() {
    doc_contracts::check_every_promise("docs/OBSERVABILITY.md");
}

/// Flags that belong to external tools (cargo) which the docs may
/// legitimately mention without the `aceso` binary advertising them.
const EXTERNAL_FLAGS: &str = "--release --bin --test --example --workspace --quiet --all-targets";

/// Backticked snake_case tokens that appear in doc table rows but name
/// wire-protocol fields, JSON structure, or keyed metric families rather
/// than schema registry entries, whitespace-separated. Anything not here
/// and not in the registry fails the table sweep.
const STRUCTURAL_TOKENS: &[&str] = &[
    // JSON snapshot / event-stream structure (docs/OBSERVABILITY.md).
    "schema_version counters histograms count sum buckets audit_findings seq kind wall_time_secs",
    // BENCH_search.json fields and the tools that write/gate them
    // (docs/BENCHMARKS.md).
    "obs_check serve_bench serve_fleet clients submitted errors draws serve_restart restarts",
    "store_hits store_writes sim_profiling_s_saved",
    // Store file-format fields (docs/STORE.md).
    "store_schema_version checksum model_fp cluster_fp cluster precision profiling_seconds_bits",
    "sigs counts tps dims batches times_bits",
    // Wire-protocol frame fields (docs/SERVER.md).
    "request_id type code phase cache event result metrics protocol_version model gpus stages",
    "zero budget_secs plan best_time best_oom error message length timeout",
    // Audit finding fields (docs/ANALYSIS.md).
    "rule severity location detail",
    // Resource names (docs/SEARCH.md, docs/OBSERVABILITY.md prose).
    "compute communication memory",
    // Simulator schedule names.
    "gpipe",
    // Keyed chaos metric family and its fault-kind keys
    // (docs/OBSERVABILITY.md, docs/RELIABILITY.md).
    "chaos_faults_injected eio enospc short_write rename_fail crash",
    // Covering-test names and std idioms cited in the fault matrix
    // (docs/RELIABILITY.md, whose contract row requires the test names).
    "store_direct_write_mutant_is_caught_and_shrunk write_atomic_cleans_its_temp_on_rename_failure",
    "every_truncation_degrades_typed no_counter_is_silently_dead",
    "shared_store_daemons_race_eviction_against_load_without_errors",
    "two_hundred_seeded_schedules_violate_no_oracle retry_deadline_bounds_total_wall_clock",
    "submit_with_retries catch_unwind",
];

/// The swept documentation set as `(path, text)`: the two READMEs,
/// then docs/*.md in name order.
fn swept_docs() -> Vec<(String, String)> {
    let dir = format!("{}/docs", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list docs/: {e}"))
        .map(|e| {
            format!(
                "docs/{}",
                e.expect("docs entry").file_name().to_string_lossy()
            )
        })
        .filter(|p| p.ends_with(".md"))
        .collect();
    paths.sort();
    paths.splice(0..0, ["README.md".into(), "results/README.md".into()]);
    paths.into_iter().map(|p| (p.clone(), read(&p))).collect()
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

#[test]
fn every_documented_flag_is_advertised() {
    let mut failures = Vec::new();
    for (path, text) in swept_docs() {
        for flag in flag_tokens(&text) {
            if !USAGE.contains(&flag) && !EXTERNAL_FLAGS.split_whitespace().any(|f| f == flag) {
                failures.push(format!(
                    "{path}: flag `{flag}` is not advertised by the aceso binary \
                     (aceso::cli::USAGE) and is not an allowlisted external flag"
                ));
            }
        }
    }
    assert_none(&failures);
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
            if token.starts_with(|c: char| c.is_ascii_lowercase())
                && token
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                out.push(token.to_string());
            }
            rest = &rest[open + 1 + len + 1..];
        }
    }
    out
}

/// Table tokens are checked in docs/ only: README tables describe the
/// repository layout, not the schema.
#[test]
fn every_table_token_is_registered() {
    let mut failures = Vec::new();
    for (path, text) in swept_docs()
        .into_iter()
        .filter(|(p, _)| p.starts_with("docs/"))
    {
        for token in table_row_tokens(&text) {
            let registered = COUNTERS.iter().any(|(n, _)| *n == token)
                || HISTOGRAMS.iter().any(|(n, _, _)| *n == token)
                || EVENTS
                    .iter()
                    .any(|spec| spec.kind == token || spec.fields.iter().any(|f| f.name == token))
                || STRUCTURAL_TOKENS
                    .iter()
                    .any(|group| group.split_whitespace().any(|t| t == token));
            if !registered {
                failures.push(format!(
                    "{path}: table row mentions `{token}`, which is not a \
                     registered counter/event/field/histogram (aceso::obs::schema) \
                     or allowlisted structural token"
                ));
            }
        }
    }
    assert_none(&failures);
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

/// A "checkpoint schema version: N" phrase states the checkpoint
/// version, "store schema version: N" the store's, and any other
/// "schema version: N" the observability schema's.
#[test]
fn every_stated_schema_version_is_current() {
    let mut failures = Vec::new();
    for (path, text) in swept_docs() {
        let lower = text.to_lowercase();
        let mut i = 0;
        while let Some(pos) = lower[i..].find("schema version") {
            let at = i + pos;
            i = at + "schema version".len();
            let Some(stated) = version_after(&lower, i) else {
                continue; // prose like "schema version history"
            };
            let prefix = lower[..at].trim_end();
            let (expected, family) = if prefix.ends_with("checkpoint") {
                (CHECKPOINT_SCHEMA_VERSION, "checkpoint")
            } else if prefix.ends_with("store") {
                (STORE_SCHEMA_VERSION, "store")
            } else {
                (SCHEMA_VERSION, "observability")
            };
            if stated != expected {
                failures.push(format!(
                    "{path}: states {family} schema version {stated}, but the \
                     current version is {expected}"
                ));
            }
        }
    }
    assert_none(&failures);
}

#[test]
fn flag_tokens_skip_rules_and_trim_a_trailing_dash() {
    assert!(flag_tokens("---\n| --- | --- |\n----x ---y").is_empty());
    assert_eq!(
        flag_tokens("pass `--store-dir DIR`, or --seed-range- and --x2; not --9 or --Up"),
        ["--store-dir", "--seed-range", "--x2"]
    );
    assert_eq!(flag_tokens("ends with --workers"), ["--workers"]);
}

#[test]
fn table_row_tokens_read_only_snake_case_in_table_rows() {
    let text = "`store_hits` in prose\n\
                | `store_hits` | `Camel` | `--flag` | `a b` | `9lives` | `v2_x` |\n\
                  | `seq` | unclosed `kind";
    assert_eq!(table_row_tokens(text), ["store_hits", "v2_x", "seq"]);
}

#[test]
fn version_after_reads_the_number_and_skips_prose() {
    let at = |text: &str| version_after(text, text.find("version").unwrap() + "version".len());
    assert_eq!(at("checkpoint schema version: 8"), Some(8));
    assert_eq!(at("`schema version`: 12."), Some(12));
    assert_eq!(at("schema version = 3"), Some(3));
    assert_eq!(at("schema version history"), None);
    assert_eq!(at("schema version"), None);
}

#[test]
fn inv_tokens_trim_possessives_and_deduplicate() {
    assert_eq!(
        inv_tokens("INV-FAIRNESS's slot (INV-PIPELINE-ORDER-), INV-FAIRNESS, INV-x, INV-"),
        ["FAIRNESS", "PIPELINE-ORDER"]
    );
}
