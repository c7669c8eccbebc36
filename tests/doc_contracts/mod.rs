//! The architecture documents under `docs/` are *test-enforced*
//! contracts: every invariant anchor, counter, event, CLI flag,
//! enforcement reference and version number a document states is
//! cross-referenced here against the code, whose registries stay the
//! single source of truth. One table row per document; each document's
//! test file (`tests/{search,serve,store,chaos}_doc.rs`, and
//! `tests/docs.rs` for docs/OBSERVABILITY.md) runs the checks below
//! against its row.

// Each test file uses the checks its row needs, not all of them.
#![allow(dead_code)]

use aceso::cli::USAGE;
use aceso::obs::schema::{COUNTERS, EVENTS, HISTOGRAMS, NONDETERMINISTIC_FAMILIES};
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
#[derive(Default)]
pub struct Contract {
    /// Path relative to the repository root.
    doc: &'static str,
    /// Source directories whose `INV-` anchors must match the document:
    /// every anchor they cite must appear in it, and every anchor it
    /// names in its own namespace must be cited by one of them.
    sources: &'static [&'static str],
    /// The document's anchor namespace (`""` = every anchor it names).
    owns: &'static str,
    /// Anchors the document must name; those in its namespace it must
    /// define, as `**INV-NAME**`.
    anchors: &'static [&'static str],
    /// Counters the document names, with their registry class.
    counters: &'static [(&'static str, Class)],
    /// When set, every `NONDETERMINISTIC_COUNTERS` entry with this
    /// prefix must be named too.
    all_nondeterministic: Option<&'static str>,
    /// Whether the document names every registered event kind, field,
    /// counter and histogram (the schema document).
    whole_registry: bool,
    /// Event kinds the document names, with fields they must carry.
    events: &'static [(&'static str, &'static [&'static str])],
    /// CLI flags and subcommands: in the document and in `USAGE`.
    cli: &'static [&'static str],
    /// Enforcement references: tests, harnesses and code names.
    tokens: &'static [&'static str],
    /// Phrases stating the current version constants.
    versions: Vec<String>,
    /// Documents that must link to this one.
    linked_from: &'static [&'static str],
}

fn contracts() -> Vec<Contract> {
    vec![
        Contract {
            doc: "docs/SEARCH.md",
            sources: &["crates/core/src", "crates/config/src", "crates/perf/src"],
            owns: "",
            anchors: &[
                "MEMO",
                "MERGE-ORDER",
                "SCORE-ONCE",
                "STAGE-HASH",
                "FIXUP-MEMO",
                "BACKTRACK-BOUND",
                "FOLD-HASH",
            ],
            counters: &[("search_worker_batches", Class::Deterministic)],
            all_nondeterministic: Some(""),
            tokens: &[
                "tests/search_golden.rs",
                "tests/checkpoint_resume.rs",
                "live_snapshots_equal_the_round_tripped_chain",
                "a_done_position_ends_where_an_equal_budget_search_ends",
                "tests/search_doc.rs",
                "tests/perf_equivalence.rs",
                "crates/core/tests/properties.rs",
                "identical_searches_emit_byte_identical_event_streams",
                "backtrack_pops_what_an_unbounded_heap_pops",
                "backtrack_step_batches_pop_what_single_pushes_pop",
                "FoldHasher",
                "NONDETERMINISTIC_COUNTERS",
            ],
            versions: vec![format!(
                "checkpoint schema version: {CHECKPOINT_SCHEMA_VERSION}"
            )],
            ..Contract::default()
        },
        Contract {
            doc: "docs/SERVER.md",
            sources: &["crates/serve/src"],
            owns: "",
            anchors: &["PIPELINE-ORDER", "FAIRNESS"],
            counters: &[("serve_connections_open", Class::Timing)],
            all_nondeterministic: Some("serve_"),
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
                "a_failed_thread_spawn_refuses_the_connection",
            ],
            versions: vec![
                format!("`protocol_version` (currently **{PROTOCOL_VERSION}**)"),
                format!("currently {SCHEMA_VERSION})"),
            ],
            ..Contract::default()
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
            ..Contract::default()
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
            linked_from: &["README.md", "docs/STORE.md", "docs/SERVER.md"],
            ..Contract::default()
        },
        Contract {
            doc: "docs/OBSERVABILITY.md",
            sources: &["crates/obs/src"],
            owns: "",
            whole_registry: true,
            tokens: &["tests/docs.rs"],
            versions: vec![format!("`schema_version`: {SCHEMA_VERSION}")],
            ..Contract::default()
        },
    ]
}

/// The file at `path`, relative to the repository root.
pub fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// `text` with runs of whitespace collapsed, so phrases that wrap
/// across hard line breaks still match.
fn flat(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Panics with every failure, one per line, unless there are none.
pub fn assert_none(failures: &[String]) {
    assert!(
        failures.is_empty(),
        "the documentation drifted from the code:\n{}",
        failures.join("\n")
    );
}

/// One kind of promise: everything a row's document states of that
/// kind that the code or the document no longer holds.
pub type Check = fn(&Contract, &str) -> Vec<String>;

/// Runs `check` on the row for the document at `path` and panics with
/// every failure it finds.
pub fn check(path: &str, promise: Check) {
    check_all(path, &[promise]);
}

/// Runs every check on the row for the document at `path`.
pub fn check_every_promise(path: &str) {
    check_all(
        path,
        &[
            invariant_anchors_match_the_code,
            names_its_observability_surface,
            covers_its_cli,
            references_its_enforcement_surface,
            states_current_versions,
            is_linked_from_its_siblings,
        ],
    );
}

fn check_all(path: &str, checks: &[Check]) {
    let c = contracts()
        .into_iter()
        .find(|c| c.doc == path)
        .unwrap_or_else(|| panic!("{path} has no row in the contract table"));
    let doc = read(c.doc);
    let failures: Vec<String> = checks
        .iter()
        .flat_map(|check| check(&c, &doc))
        .map(|msg| format!("{path}: {msg}"))
        .collect();
    assert_none(&failures);
}

/// Every `INV-<NAME>` token in `text`, deduplicated. Names are
/// uppercase words joined by single dashes (`INV-PIPELINE-ORDER`), so
/// the scan accepts dashes but trims a trailing one (`INV-FAIRNESS's`
/// possessive, end of parenthesis, etc. stay out of the name).
pub fn inv_tokens(text: &str) -> Vec<String> {
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

/// Every `INV-` anchor cited by the `.rs` files directly under `dirs`.
fn source_anchors(dirs: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for dir in dirs {
        let full = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&full).unwrap_or_else(|e| panic!("{dir}: {e}")) {
            let file = entry.expect("entry").path();
            if file.extension().is_some_and(|x| x == "rs") {
                let text = std::fs::read_to_string(&file).expect("source readable");
                for inv in inv_tokens(&text) {
                    if !out.contains(&inv) {
                        out.push(inv);
                    }
                }
            }
        }
    }
    out
}

/// Invariant anchors, in both directions: every anchor the sources
/// cite is named in the document, and every anchor named in the
/// document's namespace is defined there and cited by a source.
pub fn invariant_anchors_match_the_code(c: &Contract, doc: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let doc_invs = inv_tokens(doc);
    for required in c.anchors {
        if !doc_invs.iter().any(|i| i == required) {
            failures.push(format!("must name INV-{required}"));
        } else if required.starts_with(c.owns) && !doc.contains(&format!("**INV-{required}**")) {
            failures.push(format!(
                "must define INV-{required} as `**INV-{required}**`"
            ));
        }
    }
    let code_invs = source_anchors(c.sources);
    for inv in code_invs.iter().filter(|i| !doc_invs.contains(i)) {
        failures.push(format!(
            "{:?} cite INV-{inv} but the document never names it",
            c.sources
        ));
    }
    for inv in doc_invs.iter().filter(|i| i.starts_with(c.owns)) {
        if !code_invs.contains(inv) {
            failures.push(format!(
                "defines INV-{inv} but no source in {:?} cites it",
                c.sources
            ));
        }
    }
    failures
}

/// Every documented counter and event exists in the schema registry
/// with the documented shape and determinism class, and is named.
pub fn names_its_observability_surface(c: &Contract, doc: &str) -> Vec<String> {
    let names = |name: &str| doc.contains(&format!("`{name}`"));
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(msg);
    for &(name, class) in c.counters {
        let registered = match class {
            Class::MaskedFamily => NONDETERMINISTIC_FAMILIES.contains(&name),
            _ => COUNTERS.iter().any(|(n, _)| *n == name),
        };
        if !registered {
            fail(format!("`{name}` is gone from the schema registry"));
        }
        if class != Class::MaskedFamily
            && NONDETERMINISTIC_COUNTERS.contains(&name) != (class == Class::Timing)
        {
            fail(format!(
                "`{name}` changed determinism class in NONDETERMINISTIC_COUNTERS"
            ));
        }
        if !names(name) {
            fail(format!("is missing counter `{name}`"));
        }
    }
    if let Some(prefix) = c.all_nondeterministic {
        for name in NONDETERMINISTIC_COUNTERS
            .iter()
            .filter(|n| n.starts_with(prefix))
        {
            if !names(name) {
                fail(format!("must name the non-deterministic counter `{name}`"));
            }
        }
    }
    for &(kind, fields) in c.events {
        match EVENTS.iter().find(|s| s.kind == kind) {
            None => fail(format!("`{kind}` is not a registered event kind")),
            Some(spec) => {
                for field in fields
                    .iter()
                    .filter(|f| !spec.fields.iter().any(|s| s.name == **f))
                {
                    fail(format!("`{kind}` no longer carries the `{field}` field"));
                }
            }
        }
        if !names(kind) {
            fail(format!("must name the `{kind}` event"));
        }
    }
    if c.whole_registry {
        for spec in EVENTS {
            if !names(spec.kind) {
                fail(format!("is missing event kind `{}`", spec.kind));
            }
            for field in spec.fields.iter().filter(|f| !names(f.name)) {
                fail(format!(
                    "is missing field `{}` of `{}`",
                    field.name, spec.kind
                ));
            }
        }
        for (name, _) in COUNTERS.iter().filter(|(n, _)| !names(n)) {
            fail(format!("is missing counter `{name}`"));
        }
        for (name, _, _) in HISTOGRAMS.iter().filter(|(n, _, _)| !names(n)) {
            fail(format!("is missing histogram `{name}`"));
        }
    }
    failures
}

/// The CLI the document describes is the one the binary advertises.
pub fn covers_its_cli(c: &Contract, doc: &str) -> Vec<String> {
    let flat_doc = flat(doc);
    let mut failures = Vec::new();
    for needle in c.cli {
        if !flat_doc.contains(needle) {
            failures.push(format!("must document `{needle}`"));
        }
        if !USAGE.contains(needle) {
            failures.push(format!(
                "documents `{needle}`, which aceso::cli::USAGE does not advertise"
            ));
        }
    }
    failures
}

/// The document points at the tests and harnesses that actually
/// enforce its claims, and each one exists: a path is a file, and a
/// snake_case name is a `fn`, a binary or a `BENCH_search.json` key
/// defined outside `docs/` and `tests/doc_contracts/`.
pub fn references_its_enforcement_surface(c: &Contract, doc: &str) -> Vec<String> {
    let flat_doc = flat(doc);
    let defined = definitions();
    let mut failures = Vec::new();
    for t in c.tokens {
        if !flat_doc.contains(t) {
            failures.push(format!(
                "must reference its enforcement surface: missing `{t}`"
            ));
        }
        if t.contains('/') {
            if !std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(t)
                .is_file()
            {
                failures.push(format!("cites `{t}`, which is not a file"));
            }
        } else if is_snake_case(t) && !defined.iter().any(|d| d == t) {
            failures.push(format!(
                "cites `{t}`, which names no `fn`, binary or BENCH_search.json key"
            ));
        }
    }
    failures
}

/// Whether `token` is a lowercase snake_case identifier.
fn is_snake_case(token: &str) -> bool {
    token.starts_with(|c: char| c.is_ascii_lowercase())
        && token
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Every name an enforcement token may cite: each `fn` of the `.rs`
/// files outside `docs/`, `tests/doc_contracts/` and build output, each
/// `src/bin/` binary, and each `BENCH_search.json` key.
fn definitions() -> Vec<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let bench = read("BENCH_search.json");
    let parts: Vec<&str> = bench.split('"').collect();
    // Odd parts are quoted; a key's closing quote is followed by ':'.
    let mut names: Vec<String> = parts
        .iter()
        .zip(&parts[1..])
        .skip(1)
        .step_by(2)
        .filter(|(_, after)| after.trim_start().starts_with(':'))
        .map(|(key, _)| (*key).to_owned())
        .collect();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
            let path = entry.expect("entry").path();
            let rel = path.strip_prefix(root).expect("under the root");
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                let skip = name.starts_with('.')
                    || name == "target"
                    || rel == std::path::Path::new("docs")
                    || rel == std::path::Path::new("tests/doc_contracts");
                if !skip {
                    dirs.push(path);
                }
            } else if let Some(stem) = name.strip_suffix(".rs") {
                if dir.ends_with("src/bin") {
                    names.push(stem.to_owned());
                }
                let text = std::fs::read_to_string(&path).expect("source readable");
                names.extend(text.split("fn ").skip(1).map(|rest| {
                    rest.chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect::<String>()
                }));
            }
        }
    }
    names
}

/// The stated version constants are the code's.
pub fn states_current_versions(c: &Contract, doc: &str) -> Vec<String> {
    let flat_doc = flat(doc);
    c.versions
        .iter()
        .filter(|p| !flat_doc.contains(p.as_str()))
        .map(|p| format!("must state `{p}`"))
        .collect()
}

/// The sibling documents route readers to this one.
pub fn is_linked_from_its_siblings(c: &Contract, _doc: &str) -> Vec<String> {
    let file_name = c.doc.rsplit('/').next().expect("a file name");
    c.linked_from
        .iter()
        .filter(|p| !read(p).contains(file_name))
        .map(|p| format!("must be linked from {p}"))
        .collect()
}
