//! Golden search-trace regression tests.
//!
//! The seeded search is fully deterministic (no wall-clock values feed
//! any decision), so the best configuration's fingerprint, its predicted
//! iteration time, the explored count and every observability counter
//! can be snapshotted per zoo model. The incremental-evaluation refactor
//! (and any future hot-path change) must leave all of them untouched —
//! it may only change *speed*.
//!
//! On mismatch the failure prints an `obs-diff`-style counter delta
//! (golden vs actual, with the signed difference) before panicking, so a
//! behaviour change is immediately attributable to a phase of the search.
//!
//! To re-bless after an intentional behaviour change:
//!
//! ```text
//! ACESO_BLESS=1 cargo test --test search_golden
//! ```

use aceso::cluster::ClusterSpec;
use aceso::model::{zoo, ModelGraph};
use aceso::obs::{Counter, ObsReport, NONDETERMINISTIC_COUNTERS};
use aceso::profile::ProfileDb;
use aceso::search::{AcesoSearch, SearchOptions};
use aceso::util::json::{obj, Value};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_search.json");

/// The zoo slice the goldens cover: one entry per model family, sized so
/// the whole suite stays in CI-smoke territory.
fn cases() -> Vec<(&'static str, ModelGraph, ClusterSpec)> {
    vec![
        (
            "gpt3-custom/v100-1x4",
            zoo::gpt3_custom("golden-gpt", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(1, 4),
        ),
        (
            "t5-0.77b/v100-1x4",
            zoo::t5(zoo::T5Size::S0_77b),
            ClusterSpec::v100(1, 4),
        ),
        (
            "wide-resnet-0.5b/v100-1x4",
            zoo::wide_resnet(zoo::WideResnetSize::S0_5b),
            ClusterSpec::v100(1, 4),
        ),
        (
            "deepnet-12/v100-1x8",
            zoo::deepnet(12),
            ClusterSpec::v100(1, 8),
        ),
        // Two nodes: the only case whose stages and tp groups can span a
        // node, so it pins the cross-node collective path.
        (
            "gpt3-custom/v100-2x4",
            zoo::gpt3_custom("golden-gpt", 4, 512, 8, 256, 8192, 64),
            ClusterSpec::v100(2, 4),
        ),
    ]
}

/// Deterministic search options: iteration budget only — a wall-clock
/// budget would make the explored count machine-dependent.
fn golden_opts() -> SearchOptions {
    SearchOptions {
        max_iterations: 12,
        time_budget: None,
        ..SearchOptions::default()
    }
}

/// Server-level counters the golden leaves out: the store family and
/// `retention_sweep_errors` (schema v8 and v9). A library search never
/// moves them, and they postdate the golden file, whose counter set —
/// and so its bytes — a re-bless must reproduce. The older server-level
/// counters (the serve quartet and the crash-recovery trio) stay in it
/// as pinned zeros.
const UNGOLDENED_COUNTERS: &[&str] = &[
    "store_hits",
    "store_misses",
    "store_writes",
    "store_evictions",
    "store_rejected",
    "retention_sweep_errors",
];

struct Observed {
    label: String,
    fingerprint: u64,
    best_time: f64,
    explored: u64,
    counters: Vec<(&'static str, u64)>,
}

fn observe(label: &str, model: &ModelGraph, cluster: &ClusterSpec) -> Observed {
    let db = ProfileDb::build(model, cluster);
    let (result, report): (_, ObsReport) = AcesoSearch::new(model, cluster, &db, golden_opts())
        .run_observed(true)
        .unwrap_or_else(|e| panic!("{label}: search failed: {e}"));
    Observed {
        label: label.to_string(),
        fingerprint: result.best_config.semantic_hash(),
        best_time: result.best_time,
        explored: result.explored as u64,
        // Timing-dependent counters are excluded: the golden contract
        // covers only values that are reproducible bit-for-bit.
        counters: Counter::ALL
            .iter()
            .filter(|c| {
                !NONDETERMINISTIC_COUNTERS.contains(&c.name())
                    && !UNGOLDENED_COUNTERS.contains(&c.name())
            })
            .map(|&c| (c.name(), report.counter(c)))
            .collect(),
    }
}

fn to_json(entries: &[Observed]) -> String {
    let list: Vec<Value> = entries
        .iter()
        .map(|e| {
            let counters = Value::Object(
                e.counters
                    .iter()
                    .map(|(name, v)| (name.to_string(), Value::UInt(*v)))
                    .collect(),
            );
            obj([
                ("label", Value::Str(e.label.clone())),
                ("best_fingerprint", Value::UInt(e.fingerprint)),
                // Exact f64 bits: the golden contract is bit-level.
                ("best_time_bits", Value::UInt(e.best_time.to_bits())),
                ("best_time", Value::Float(e.best_time)),
                ("explored", Value::UInt(e.explored)),
                ("counters", counters),
            ])
        })
        .collect();
    let mut text = obj([("entries", Value::Array(list))]).to_string_pretty();
    text.push('\n');
    text
}

/// Renders the obs-diff table between golden and actual counters; the
/// flag says whether any counter actually drifted.
fn counter_diff(golden: &Value, actual: &[(&'static str, u64)]) -> (String, bool) {
    let mut rows = String::new();
    for (name, now) in actual {
        let was = golden.get(name).and_then(|v| v.as_u64().ok()).unwrap_or(0);
        if was != *now {
            let delta = *now as i64 - was as i64;
            rows.push_str(&format!(
                "  {name:24} {was:>10} -> {now:>10}  ({delta:+})\n"
            ));
        }
    }
    let drifted = !rows.is_empty();
    let mut out = String::from("counter delta (golden -> actual):\n");
    if drifted {
        out.push_str(&rows);
    } else {
        out.push_str("  (no counter drift — search outputs diverged some other way)\n");
    }
    (out, drifted)
}

#[test]
fn golden_search_traces_match() {
    let entries: Vec<Observed> = cases()
        .iter()
        .map(|(label, m, c)| observe(label, m, c))
        .collect();

    if std::env::var("ACESO_BLESS").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
            .expect("create tests/data");
        std::fs::write(GOLDEN_PATH, to_json(&entries)).expect("write golden file");
        eprintln!("blessed {} entries into {GOLDEN_PATH}", entries.len());
        return;
    }

    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!("cannot read {GOLDEN_PATH}: {e}\n(run `ACESO_BLESS=1 cargo test --test search_golden` to create it)")
    });
    let doc = Value::parse(&text).expect("golden file parses");
    let golden = doc.field("entries").unwrap().as_array().unwrap();
    assert_eq!(
        golden.len(),
        entries.len(),
        "golden entry count drifted — re-bless after reviewing"
    );

    let mut failures = Vec::new();
    for (g, e) in golden.iter().zip(&entries) {
        let label = g.field("label").unwrap().as_str().unwrap();
        assert_eq!(label, e.label, "golden order drifted");
        let want_fp = g.field("best_fingerprint").unwrap().as_u64().unwrap();
        let want_bits = g.field("best_time_bits").unwrap().as_u64().unwrap();
        let want_explored = g.field("explored").unwrap().as_u64().unwrap();
        let mut diverged = Vec::new();
        if want_fp != e.fingerprint {
            diverged.push(format!(
                "best_fingerprint {want_fp:#x} -> {:#x}",
                e.fingerprint
            ));
        }
        if want_bits != e.best_time.to_bits() {
            diverged.push(format!(
                "best_time {} -> {}",
                f64::from_bits(want_bits),
                e.best_time
            ));
        }
        if want_explored != e.explored {
            diverged.push(format!("explored {want_explored} -> {}", e.explored));
        }
        if !diverged.is_empty() {
            let (diff, _) = counter_diff(g.field("counters").unwrap(), &e.counters);
            failures.push(format!("{label}: {}\n{diff}", diverged.join(", ")));
        }
    }
    assert!(
        failures.is_empty(),
        "golden search traces diverged:\n{}",
        failures.join("\n")
    );
}

/// The golden counters themselves must match too — a counter-only drift
/// (same best config, different search effort) is still a behaviour
/// change worth reviewing.
#[test]
fn golden_counters_match() {
    // In bless mode `golden_search_traces_match` rewrites the file, maybe
    // on a parallel thread: comparing here would read the old golden.
    if std::env::var("ACESO_BLESS").is_ok() {
        return;
    }
    let text = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("cannot read {GOLDEN_PATH}: {e}"));
    let doc = Value::parse(&text).expect("golden file parses");
    let golden = doc.field("entries").unwrap().as_array().unwrap();
    let mut failures = Vec::new();
    for ((label, m, c), g) in cases().iter().zip(golden) {
        let e = observe(label, m, c);
        let gold_counters = g.field("counters").unwrap();
        let (diff, drifted) = counter_diff(gold_counters, &e.counters);
        if drifted {
            failures.push(format!("{label}:\n{diff}"));
        }
    }
    assert!(
        failures.is_empty(),
        "observability counters diverged from golden:\n{}",
        failures.join("\n")
    );
}
