//! Release golden over the benchmark's search pool.
//!
//! `perfbench`'s `search-direct` and `serve-warm` workloads cycle over
//! twelve `(model, gpus, iterations)` keys. This test searches each key
//! once at its pool iteration budget, plus one key with Heuristic-2 off
//! (so the shuffled hop pool and its rng draws are pinned too), and
//! compares against `tests/data/golden_pool.json`:
//!
//! * the best time's exact f64 bits, the best fingerprint and the
//!   explored count;
//! * an FNV digest of the metric snapshot without its wall-clock parts
//!   (`aceso_obs::without_wall_clock`), with the counters themselves
//!   kept for the failure message;
//! * an FNV digest of the event stream (`events_jsonl`) and its length.
//!
//! A hot-path change must leave every entry untouched: it may change
//! only speed. The searches are search-sized (a second or so in a
//! release build, minutes in a debug build with the invariant checks
//! on), so the test is ignored in debug builds; `ci.sh` runs it with
//! `--release`:
//!
//! ```text
//! cargo test --release --test pool_golden
//! ACESO_BLESS=1 cargo test --release --test pool_golden   # re-bless
//! ```

use aceso::cluster::ClusterSpec;
use aceso::model::zoo;
use aceso::obs::{without_wall_clock, ObsReport};
use aceso::profile::ProfileDb;
use aceso::search::{AcesoSearch, SearchOptions};
use aceso::util::fnv1a;
use aceso::util::json::{obj, Value};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden_pool.json");

/// The search pool of `perfbench/src/workload.rs`, in its order.
const POOL: [(&str, usize, usize); 12] = [
    ("gpt3-0.35b", 4, 6),
    ("gpt3-0.35b", 6, 4),
    ("gpt3-1.3b", 4, 4),
    ("gpt3-1.3b", 8, 3),
    ("t5-0.77b", 4, 7),
    ("t5-0.77b", 8, 6),
    ("wresnet-0.5b", 4, 8),
    ("wresnet-0.5b", 6, 4),
    ("wresnet-0.5b", 8, 4),
    ("deepnet-16l", 4, 3),
    ("deepnet-24l", 6, 5),
    ("deepnet-32l", 8, 5),
];

/// One golden case: a pool key and whether Heuristic-2 ranks its
/// primitives and hop pool (`false`: seeded shuffles instead).
struct Case {
    model: &'static str,
    gpus: usize,
    iterations: usize,
    heuristic2: bool,
}

impl Case {
    fn label(&self) -> String {
        let mode = if self.heuristic2 { "" } else { "/random" };
        format!("{}@{}x{}{mode}", self.model, self.gpus, self.iterations)
    }
}

fn cases() -> Vec<Case> {
    let mut cases: Vec<Case> = POOL
        .iter()
        .map(|&(model, gpus, iterations)| Case {
            model,
            gpus,
            iterations,
            heuristic2: true,
        })
        .collect();
    cases.push(Case {
        model: "gpt3-0.35b",
        gpus: 4,
        iterations: 6,
        heuristic2: false,
    });
    cases
}

/// Everything a case pins.
struct Observed {
    label: String,
    best_time_bits: u64,
    fingerprint: u64,
    explored: u64,
    metrics_digest: u64,
    events: u64,
    events_digest: u64,
    counters: Value,
}

fn observe(case: &Case) -> Observed {
    let label = case.label();
    let model = zoo::by_name(case.model).expect("pool models are zoo models");
    let cluster = ClusterSpec::v100_gpus(case.gpus);
    let db = ProfileDb::build(&model, &cluster);
    let opts = SearchOptions {
        max_iterations: case.iterations,
        use_heuristic2: case.heuristic2,
        seed: 1,
        ..SearchOptions::default()
    };
    let (result, report): (_, ObsReport) = AcesoSearch::new(&model, &cluster, &db, opts)
        .run_observed(true)
        .unwrap_or_else(|e| panic!("{label}: search failed: {e}"));
    let metrics = without_wall_clock(report.metrics_value());
    let counters = metrics
        .field("counters")
        .expect("snapshot counters")
        .clone();
    Observed {
        best_time_bits: result.best_time.to_bits(),
        fingerprint: result.best_config.semantic_hash(),
        explored: result.explored as u64,
        metrics_digest: fnv1a(metrics.to_string_compact().as_bytes()),
        events: report.events().len() as u64,
        events_digest: fnv1a(report.events_jsonl().as_bytes()),
        counters,
        label,
    }
}

/// The pinned scalar fields, by name.
fn pinned(e: &Observed) -> [(&'static str, u64); 6] {
    [
        ("best_time_bits", e.best_time_bits),
        ("best_fingerprint", e.fingerprint),
        ("explored", e.explored),
        ("metrics_digest", e.metrics_digest),
        ("events", e.events),
        ("events_digest", e.events_digest),
    ]
}

fn to_json(entries: &[Observed]) -> String {
    let list: Vec<Value> = entries
        .iter()
        .map(|e| {
            let mut fields = vec![("label".to_string(), Value::Str(e.label.clone()))];
            fields.extend(
                pinned(e)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Value::UInt(v))),
            );
            fields.push(("counters".to_string(), e.counters.clone()));
            Value::Object(fields)
        })
        .collect();
    let mut text = obj([("entries", Value::Array(list))]).to_string_pretty();
    text.push('\n');
    text
}

/// The counters whose values differ, as `name: golden -> actual` lines.
fn counter_drift(golden: &Value, actual: &Value) -> String {
    let Value::Object(fields) = actual else {
        return String::new();
    };
    fields
        .iter()
        .filter_map(|(name, now)| {
            let was = golden.get(name);
            (was != Some(now)).then(|| {
                format!(
                    "    {name}: {} -> {}\n",
                    was.map_or("-".to_string(), Value::to_string_compact),
                    now.to_string_compact()
                )
            })
        })
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "search-sized; run with --release (ci.sh does)"
)]
fn pool_searches_match_the_golden() {
    let entries: Vec<Observed> = cases().iter().map(observe).collect();

    if std::env::var("ACESO_BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, to_json(&entries)).expect("write golden file");
        eprintln!("blessed {} entries into {GOLDEN_PATH}", entries.len());
        return;
    }

    let text = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "cannot read {GOLDEN_PATH}: {e}\n(run `ACESO_BLESS=1 cargo test --release --test pool_golden` to create it)"
        )
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
        let diverged: Vec<String> = pinned(e)
            .into_iter()
            .filter_map(|(name, now)| {
                let was = g.field(name).unwrap().as_u64().unwrap();
                (was != now).then(|| format!("{name} {was:#x} -> {now:#x}"))
            })
            .collect();
        if !diverged.is_empty() {
            let drift = counter_drift(g.field("counters").unwrap(), &e.counters);
            failures.push(format!("{label}: {}\n{drift}", diverged.join(", ")));
        }
    }
    assert!(
        failures.is_empty(),
        "pool searches diverged from the golden:\n{}",
        failures.join("\n")
    );
}
