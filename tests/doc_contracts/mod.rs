//! The architecture documents under `docs/` are *test-enforced*
//! contracts: every invariant anchor, counter, event, CLI flag,
//! enforcement reference and version number a document states is
//! cross-referenced here against the code, so a document cannot silently
//! drift from the implementation. One table row per document; each
//! document's test file (`tests/{search,serve,store,chaos}_doc.rs`) runs
//! the checks below against its row.

// Each test file uses the checks its row needs, not all of them.
#![allow(dead_code)]

use aceso::cli::USAGE;
use aceso::obs::schema::{COUNTERS, EVENTS, NONDETERMINISTIC_FAMILIES};
use aceso::obs::{NONDETERMINISTIC_COUNTERS, SCHEMA_VERSION};
use aceso::search::CHECKPOINT_SCHEMA_VERSION;
use aceso::serve::PROTOCOL_VERSION;
use aceso::store::STORE_SCHEMA_VERSION;

/// How the schema registry must classify a documented counter.
#[derive(Clone, Copy, PartialEq)]
enum Class {
    /// A registered counter outside `NONDETERMINISTIC_COUNTERS`.
    Deterministic,
    /// A registered counter listed in `NONDETERMINISTIC_COUNTERS`.
    Timing,
    /// A keyed counter family listed in `NONDETERMINISTIC_FAMILIES`.
    MaskedFamily,
}

/// One document and everything it promises.
struct Contract {
    /// Path relative to the repository root.
    doc: &'static str,
    /// Source directories whose `INV-` anchors must match the document:
    /// every anchor they cite must appear in it, and every anchor it
    /// defines in its own namespace must be cited by one of them.
    sources: &'static [&'static str],
    /// The document's anchor namespace (`""` = every anchor it names).
    owns: &'static str,
    /// Anchors the document must define or cite.
    anchors: &'static [&'static str],
    /// Counters the document names, with their registry class.
    counters: &'static [(&'static str, Class)],
    /// When set, every `NONDETERMINISTIC_COUNTERS` entry with this
    /// prefix must be named too.
    all_nondeterministic: Option<&'static str>,
    /// Event kinds the document names, with fields they must carry.
    events: &'static [(&'static str, &'static [&'static str])],
    /// CLI flags and subcommands: in the document and in `USAGE`.
    cli: &'static [&'static str],
    /// Enforcement references: tests, harnesses and code names.
    tokens: &'static [&'static str],
    /// Phrases stating the current version constants.
    versions: Vec<String>,
}

fn contracts() -> Vec<Contract> {
    vec![
        Contract {
            doc: "docs/SEARCH.md",
            sources: &["crates/core/src", "crates/config/src"],
            owns: "",
            anchors: &["MEMO", "MERGE-ORDER", "SCORE-ONCE", "STAGE-HASH"],
            counters: &[("search_worker_batches", Class::Deterministic)],
            all_nondeterministic: Some(""),
            events: &[],
            cli: &[],
            tokens: &[
                "tests/search_golden.rs",
                "tests/checkpoint_resume.rs",
                "live_snapshots_equal_the_round_tripped_chain",
                "a_done_position_ends_where_an_equal_budget_search_ends",
                "tests/search_doc.rs",
                "tests/perf_equivalence.rs",
                "crates/core/tests/properties.rs",
                "parallel_matches_sequential",
                "NONDETERMINISTIC_COUNTERS",
            ],
            versions: vec![format!(
                "checkpoint schema version: {CHECKPOINT_SCHEMA_VERSION}"
            )],
        },
        Contract {
            doc: "docs/SERVER.md",
            sources: &["crates/serve/src"],
            owns: "",
            anchors: &["PIPELINE-ORDER", "FAIRNESS"],
            counters: &[("serve_connections_open", Class::Timing)],
            all_nondeterministic: Some("serve_"),
            events: &[],
            cli: &["--max-connections", "--io-timeout-secs", "--workers"],
            tokens: &[
                "tests/serve_doc.rs",
                "tests/serve.rs",
                "pipelined_responses_are_bit_identical_to_direct_runs",
                "queued_requests_wait_for_a_busy_worker",
                "busy_rejections_are_not_retried",
                "serve_bench fleet",
                "serve_fleet",
                "NONDETERMINISTIC_COUNTERS",
                "submit_pipelined",
                "read_response",
            ],
            versions: vec![
                format!("`protocol_version` (currently **{PROTOCOL_VERSION}**)"),
                format!("currently {SCHEMA_VERSION})"),
            ],
        },
        Contract {
            doc: "docs/STORE.md",
            sources: &["crates/store/src"],
            owns: "STORE",
            anchors: &["STORE-ATOMIC", "STORE-DEGRADE", "STORE-BITEXACT"],
            counters: &[
                ("store_hits", Class::Deterministic),
                ("store_misses", Class::Deterministic),
                ("store_writes", Class::Deterministic),
                ("store_evictions", Class::Deterministic),
                ("store_rejected", Class::Deterministic),
            ],
            all_nondeterministic: None,
            events: &[("store_degraded", &["file", "reason"])],
            cli: &[
                "--store-dir",
                "--store-budget-bytes",
                "--dir",
                "store (ls | verify | prune)",
            ],
            tokens: &[
                "tests/store_doc.rs",
                "tests/store.rs",
                "zoo_corpus_round_trips_bit_identically",
                "concurrent_daemons_share_one_store_dir",
                "every_truncation_degrades_typed",
                "every_byte_flip_degrades_or_roundtrips",
                "store_precision_mismatch_is_rejected_not_merged",
                "no_counter_is_silently_dead",
                "serve_bench restart",
                "obs_check",
                "aceso_util::retention",
            ],
            versions: vec![format!("Store schema version: {STORE_SCHEMA_VERSION}")],
        },
        Contract {
            doc: "docs/RELIABILITY.md",
            sources: &["crates/chaos/src", "crates/util/src"],
            owns: "CHAOS",
            anchors: &[
                "CHAOS-REALFS",
                "CHAOS-DETERMINISM",
                "CHAOS-ORACLE",
                "CHAOS-SHRINK",
                "CHAOS-SWEEP",
                // Built on the store anchors defined in docs/STORE.md.
                "STORE-ATOMIC",
                "STORE-DEGRADE",
                "STORE-BITEXACT",
            ],
            counters: &[
                ("chaos_faults_injected", Class::MaskedFamily),
                ("retention_sweep_errors", Class::Deterministic),
            ],
            all_nondeterministic: None,
            events: &[
                ("fault_injected", &["op", "fault", "path"]),
                ("sweep_degraded", &["dir", "errors"]),
            ],
            cli: &[
                "--seed-range",
                "--mutate",
                "--trace-out",
                "--retry-deadline-secs",
                "chaos run",
                "chaos replay",
                "store-direct-write",
            ],
            tokens: &[
                "tests/chaos_doc.rs",
                "tests/chaos.rs",
                "two_hundred_seeded_schedules_violate_no_oracle",
                "store_direct_write_mutant_is_caught_and_shrunk",
                "empty_schedule_daemon_is_bit_identical_to_realfs",
                "shared_store_daemons_race_eviction_against_load_without_errors",
                "retry_deadline_bounds_total_wall_clock",
                "no_counter_is_silently_dead",
                "write_atomic_cleans_its_temp_on_rename_failure",
                "every_truncation_degrades_typed",
                "ci.sh",
                "aceso_util::retention",
            ],
            versions: Vec::new(),
        },
    ]
}

fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The row for the document at `path`.
fn contract(path: &str) -> Contract {
    contracts()
        .into_iter()
        .find(|c| c.doc == path)
        .unwrap_or_else(|| panic!("{path} has no row in the contract table"))
}

fn doc(c: &Contract) -> String {
    read(c.doc)
}

/// The document with runs of whitespace collapsed, so assertions can
/// match phrases that wrap across hard line breaks.
fn doc_flat(c: &Contract) -> String {
    doc(c).split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Every `INV-<NAME>` token in `text`, deduplicated. Names are
/// uppercase words joined by single dashes (`INV-PIPELINE-ORDER`), so
/// the scan accepts dashes but trims a trailing one (`INV-FAIRNESS's`
/// possessive, end of parenthesis, etc. stay out of the name).
fn inv_tokens(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find("INV-") {
        let start = i + pos + "INV-".len();
        let mut name: String = text[start..]
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || *c == '-')
            .collect();
        i = start;
        while name.ends_with('-') {
            name.pop();
        }
        if !name.is_empty() && !out.contains(&name) {
            out.push(name);
        }
    }
    out
}

/// Invariant anchors stay in sync in both directions: every `INV-` the
/// scanned sources cite is named in the document, and every `INV-` the
/// document defines in its namespace is cited by at least one source
/// file (a stale anchor in either place is drift).
pub fn invariant_anchors_match_the_code(path: &str) {
    let c = contract(path);
    let doc_invs = inv_tokens(&doc(&c));
    for required in c.anchors {
        assert!(
            doc_invs.iter().any(|i| i == required),
            "{} must define INV-{required}",
            c.doc
        );
    }
    let mut code_invs: Vec<String> = Vec::new();
    for dir in c.sources {
        let full = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&full).unwrap_or_else(|e| panic!("{dir}: {e}")) {
            let file = entry.expect("entry").path();
            if file.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&file).expect("source readable");
                for inv in inv_tokens(&text) {
                    if !code_invs.contains(&inv) {
                        code_invs.push(inv);
                    }
                }
            }
        }
    }
    for inv in &code_invs {
        assert!(
            doc_invs.contains(inv),
            "{:?} cite INV-{inv} but {} never defines it",
            c.sources,
            c.doc
        );
    }
    for inv in doc_invs.iter().filter(|i| i.starts_with(c.owns)) {
        assert!(
            code_invs.contains(inv),
            "{} defines INV-{inv} but no source in {:?} cites it",
            c.doc,
            c.sources
        );
    }
}

/// Every documented counter and event exists in the schema registry
/// with the documented shape and determinism class.
pub fn names_its_observability_surface(path: &str) {
    let c = contract(path);
    let doc = doc(&c);
    for &(name, class) in c.counters {
        let registered = match class {
            Class::MaskedFamily => NONDETERMINISTIC_FAMILIES.contains(&name),
            _ => COUNTERS.iter().any(|(n, _)| *n == name),
        };
        assert!(
            registered,
            "`{name}` is gone from the schema registry — update {} and this table together",
            c.doc
        );
        if class != Class::MaskedFamily {
            assert_eq!(
                NONDETERMINISTIC_COUNTERS.contains(&name),
                class == Class::Timing,
                "`{name}` changed determinism class in NONDETERMINISTIC_COUNTERS"
            );
        }
        assert!(
            doc.contains(&format!("`{name}`")),
            "{} is missing counter `{name}`",
            c.doc
        );
    }
    if let Some(prefix) = c.all_nondeterministic {
        for name in NONDETERMINISTIC_COUNTERS
            .iter()
            .filter(|n| n.starts_with(prefix))
        {
            assert!(
                doc.contains(&format!("`{name}`")),
                "{} must document the non-deterministic counter `{name}`",
                c.doc
            );
        }
    }
    for &(kind, fields) in c.events {
        let spec = EVENTS
            .iter()
            .find(|s| s.kind == kind)
            .unwrap_or_else(|| panic!("{kind} is a registered event kind"));
        for field in fields {
            assert!(
                spec.fields.iter().any(|f| f.name == *field),
                "{kind} must carry the `{field}` field"
            );
        }
        assert!(
            doc.contains(&format!("`{kind}`")),
            "{} must document the `{kind}` event",
            c.doc
        );
    }
}

/// The stated version and limit constants are the code's.
pub fn states_current_versions(path: &str) {
    let c = contract(path);
    let flat = doc_flat(&c);
    for phrase in &c.versions {
        assert!(
            flat.contains(phrase.as_str()),
            "{} must state `{phrase}`",
            c.doc
        );
    }
}

/// The CLI a document describes is the one the binary advertises.
pub fn covers_its_cli(path: &str) {
    let c = contract(path);
    let flat = doc_flat(&c);
    for needle in c.cli {
        assert!(flat.contains(needle), "{} must document `{needle}`", c.doc);
        assert!(
            USAGE.contains(needle),
            "the aceso binary must advertise `{needle}` (aceso::cli::USAGE)"
        );
    }
}

/// Each document points at the tests and harnesses that actually
/// enforce its claims.
pub fn references_its_enforcement_surface(path: &str) {
    let c = contract(path);
    let flat = doc_flat(&c);
    for needle in c.tokens {
        assert!(
            flat.contains(needle),
            "{} must reference its enforcement surface: missing `{needle}`",
            c.doc
        );
    }
}

/// The sibling documents and the README route readers to the
/// reliability contract.
pub fn sibling_docs_link_to_the_reliability_contract() {
    for path in ["README.md", "docs/STORE.md", "docs/SERVER.md"] {
        assert!(
            read(path).contains("RELIABILITY.md"),
            "{path} must link to docs/RELIABILITY.md"
        );
    }
}
