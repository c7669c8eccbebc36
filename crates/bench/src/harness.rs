//! Shared experiment harness.
//!
//! Every `exp*` binary uses this module to build (model, cluster, profile)
//! environments, run the three searchers with consistent budgets, persist
//! results under `results/`, and render the rows/series the paper reports.
//!
//! Budgets scale with the `ACESO_FULL` environment variable: unset runs a
//! quick pass (minutes, same qualitative shapes), `ACESO_FULL=1` runs
//! paper-scale budgets (the 200 s search budget of §5.1).

use aceso_baselines::{
    AlpaError, AlpaOptions, AlpaSearch, BaselineResult, MegatronOptions, MegatronSearch,
};
use aceso_cluster::ClusterSpec;
use aceso_config::ParallelConfig;
use aceso_core::{AcesoSearch, SearchOptions, SearchResult};
use aceso_model::ModelGraph;
use aceso_obs::{without_wall_clock, ObsReport, SERVER_COUNTERS};
use aceso_profile::ProfileDb;
use aceso_runtime::{SimReport, Simulator};
use aceso_util::json::{obj, FromJson, JsonError, ToJson, Value};
use std::path::PathBuf;
use std::time::Duration;

/// Whether paper-scale budgets were requested.
pub fn full_scale() -> bool {
    std::env::var("ACESO_FULL").is_ok_and(|v| v == "1")
}

/// One prepared experiment environment.
pub struct ExpEnv {
    /// The model under test.
    pub model: ModelGraph,
    /// The simulated cluster.
    pub cluster: ClusterSpec,
    /// Profiled database (built once per environment).
    pub db: ProfileDb,
}

impl ExpEnv {
    /// Builds the environment (profiles the model on the cluster).
    pub fn new(model: ModelGraph, gpus: usize) -> Self {
        let cluster = ClusterSpec::v100_gpus(gpus);
        let db = ProfileDb::build(&model, &cluster);
        Self { model, cluster, db }
    }

    /// Executes a configuration on the runtime simulator.
    pub fn execute(&self, config: &ParallelConfig) -> SimReport {
        Simulator::with_defaults(&self.model, &self.cluster, &self.db)
            .execute(config)
            .expect("searched configs are valid")
    }

    /// Runs the Aceso search with the scale-appropriate budget.
    pub fn run_aceso(&self, opts: SearchOptions) -> Result<SearchResult, aceso_core::SearchError> {
        AcesoSearch::new(&self.model, &self.cluster, &self.db, opts).run()
    }

    /// Runs the Aceso search with observability on, returning the metric
    /// report alongside the result.
    pub fn run_aceso_observed(
        &self,
        opts: SearchOptions,
    ) -> Result<(SearchResult, ObsReport), aceso_core::SearchError> {
        AcesoSearch::new(&self.model, &self.cluster, &self.db, opts).run_observed(true)
    }

    /// Runs the Megatron-LM grid search.
    pub fn run_megatron(&self) -> Option<BaselineResult> {
        MegatronSearch::new(
            &self.model,
            &self.cluster,
            &self.db,
            MegatronOptions::default(),
        )
        .run()
    }

    /// Runs the Alpa-like search.
    pub fn run_alpa(&self) -> Result<BaselineResult, AlpaError> {
        AlpaSearch::new(
            &self.model,
            &self.cluster,
            &self.db,
            alpa_opts(full_scale()),
        )
        .run()
    }
}

/// Default Aceso budget for the current scale.
pub fn aceso_opts(full: bool) -> SearchOptions {
    aceso_opts_for(full, 0)
}

/// Budget scaled to the model's operator count: evaluation cost grows
/// linearly with ops, so very deep models get proportionally more wall
/// time in quick mode (full mode always uses the paper's 200 s).
pub fn aceso_opts_for(full: bool, ops: usize) -> SearchOptions {
    if full {
        SearchOptions {
            max_iterations: 10_000,
            time_budget: Some(Duration::from_secs(200)),
            ..SearchOptions::default()
        }
    } else {
        let secs = 12 + (ops / 40) as u64;
        SearchOptions {
            max_iterations: 200,
            time_budget: Some(Duration::from_secs(secs)),
            ..SearchOptions::default()
        }
    }
}

/// Default Alpa grid for the current scale.
pub fn alpa_opts(full: bool) -> AlpaOptions {
    if full {
        AlpaOptions::default()
    } else {
        AlpaOptions {
            layer_group_counts: vec![4, 8],
            max_microbatch: 128,
            ..AlpaOptions::default()
        }
    }
}

/// The repository root: the current directory, from which `ci.sh` and
/// the documented commands run the bench binaries. It is resolved at
/// run time, so binaries built in one checkout and run in a copy read
/// and write the copy's files. Exits with status 2 and a message outside
/// a checkout.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("error: cannot read the current directory: {e}");
        std::process::exit(2)
    });
    checkout_root(cwd).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// `dir` when it is the root of an aceso-rs checkout (it holds the
/// workspace `Cargo.toml` and `crates/bench`).
fn checkout_root(dir: PathBuf) -> Result<PathBuf, String> {
    if dir.join("Cargo.toml").is_file() && dir.join("crates/bench/Cargo.toml").is_file() {
        Ok(dir)
    } else {
        Err(format!(
            "{} is not the root of an aceso-rs checkout; run the bench binaries from there",
            dir.display()
        ))
    }
}

/// The results directory (`results/` under the repository root).
pub fn results_dir() -> PathBuf {
    let dir = repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("results dir creatable");
    dir
}

/// Writes a CSV artifact into `results/`.
pub fn write_csv(name: &str, table: &aceso_util::table::Table) {
    let path = results_dir().join(name);
    std::fs::write(&path, table.to_csv()).expect("csv writes");
    println!("[saved {}]", path.display());
}

/// Builds the `BENCH_search.json` work snapshot: the search's best time
/// and explored count plus its observability metric snapshot
/// (`docs/OBSERVABILITY.md` schema) without its wall-clock parts and
/// without the server-level counters, which a library search never
/// moves. Every field is deterministic, so refreshing the file on an
/// unchanged tree rewrites the same bytes (field reference in
/// `docs/BENCHMARKS.md`).
pub fn bench_search_doc(result: &SearchResult, report: &ObsReport) -> Value {
    // Sections owned by other harnesses survive the refresh: the
    // `serve_fleet` fan-in counts come from `serve_bench fleet` and the
    // `serve_restart` store figures from `serve_bench restart`, not from
    // the search run this function snapshots.
    let carried: Vec<(String, Value)> = std::fs::read_to_string(bench_search_path())
        .ok()
        .and_then(|t| Value::parse(&t).ok())
        .map(|doc| {
            ["serve_fleet", "serve_restart"]
                .iter()
                .filter_map(|k| doc.field(k).ok().map(|v| (k.to_string(), v.clone())))
                .collect()
        })
        .unwrap_or_default();
    let mut metrics = without_wall_clock(report.metrics_value());
    if let Value::Object(fields) = &mut metrics {
        if let Some((_, Value::Object(counters))) = fields.iter_mut().find(|(k, _)| k == "counters")
        {
            counters.retain(|(c, _)| !SERVER_COUNTERS.contains(&c.as_str()));
        }
    }
    let mut doc = obj([
        ("best_time", Value::Float(result.best_time)),
        ("explored", Value::UInt(result.explored as u64)),
        ("metrics", metrics),
    ]);
    if let Value::Object(fields) = &mut doc {
        fields.extend(carried);
    }
    doc
}

/// Writes a [`bench_search_doc`] document to the workspace-root
/// `BENCH_search.json`.
pub fn write_bench_search(doc: &Value) -> PathBuf {
    let path = bench_search_path();
    let mut text = doc.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).expect("BENCH_search.json writes");
    println!("[saved {}]", path.display());
    path
}

/// The repository-root `BENCH_search.json` path.
pub fn bench_search_path() -> PathBuf {
    repo_root().join("BENCH_search.json")
}

/// Replaces one named top-level section of a bench snapshot in place,
/// preserving every other field and the key order (a new section is
/// appended; the file is created with only that section when it does
/// not exist yet). `serve_bench fleet` and `serve_bench restart` use
/// this to record their sections beside the search figures that
/// [`write_bench_search`] owns.
pub fn merge_bench_section(path: &std::path::Path, key: &str, section: Value) {
    let mut fields = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| Value::parse(&t).ok())
        .and_then(|doc| match doc {
            Value::Object(fields) => Some(fields),
            _ => None,
        })
        .unwrap_or_default();
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, value)) => *value = section,
        None => fields.push((key.to_string(), section)),
    }
    let mut text = Value::Object(fields).to_string_pretty();
    text.push('\n');
    std::fs::write(path, text).expect("bench snapshot writes");
    println!("[saved {}]", path.display());
}

/// Model and GPU count of the `serve_bench restart` request.
pub const RESTART_KEY: (&str, usize) = ("gpt3-0.35b", 4);

/// Simulated profiling seconds a store hit on [`RESTART_KEY`] saves: the
/// cost of profiling that key from scratch.
pub fn restart_sim_profiling_seconds() -> f64 {
    let model = aceso_model::zoo::by_name(RESTART_KEY.0).expect("zoo model");
    ProfileDb::build(&model, &ClusterSpec::v100_gpus(RESTART_KEY.1)).simulated_profiling_seconds()
}

/// One Exp#1 measurement row, persisted for Exp#2/8/9 and Tables 3–5.
#[derive(Debug, Clone)]
pub struct Exp1Row {
    /// Model family (`gpt3`, `t5`, `wresnet`).
    pub family: String,
    /// Size label, e.g. `gpt3-2.6b`.
    pub model: String,
    /// GPUs used.
    pub gpus: usize,
    /// System name (`aceso`, `megatron`, `alpa`).
    pub system: String,
    /// Simulated ("actual") iteration time, seconds.
    pub iteration_time: f64,
    /// Samples/second on the runtime simulator.
    pub throughput: f64,
    /// Effective TFLOPS per GPU.
    pub tflops: f64,
    /// Measured search wall time, seconds.
    pub search_wall: f64,
    /// Modelled search cost (adds compile/profile overheads), seconds.
    pub search_modeled: f64,
    /// Configurations explored by the search.
    pub explored: usize,
    /// The best configuration found.
    pub config: ParallelConfig,
    /// Predicted iteration time from the performance model, seconds.
    pub predicted_time: f64,
    /// Predicted peak memory (bytes) and measured peak memory (bytes).
    pub predicted_mem: u64,
    /// Measured peak memory from the simulator, bytes.
    pub actual_mem: u64,
}

impl ToJson for Exp1Row {
    fn to_json_value(&self) -> Value {
        obj([
            ("family", Value::Str(self.family.clone())),
            ("model", Value::Str(self.model.clone())),
            ("gpus", Value::UInt(self.gpus as u64)),
            ("system", Value::Str(self.system.clone())),
            ("iteration_time", Value::Float(self.iteration_time)),
            ("throughput", Value::Float(self.throughput)),
            ("tflops", Value::Float(self.tflops)),
            ("search_wall", Value::Float(self.search_wall)),
            ("search_modeled", Value::Float(self.search_modeled)),
            ("explored", Value::UInt(self.explored as u64)),
            ("config", self.config.to_json_value()),
            ("predicted_time", Value::Float(self.predicted_time)),
            ("predicted_mem", Value::UInt(self.predicted_mem)),
            ("actual_mem", Value::UInt(self.actual_mem)),
        ])
    }
}

impl FromJson for Exp1Row {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(Self {
            family: v.field("family")?.as_str()?.to_string(),
            model: v.field("model")?.as_str()?.to_string(),
            gpus: v.field("gpus")?.as_usize()?,
            system: v.field("system")?.as_str()?.to_string(),
            iteration_time: v.field("iteration_time")?.as_f64()?,
            throughput: v.field("throughput")?.as_f64()?,
            tflops: v.field("tflops")?.as_f64()?,
            search_wall: v.field("search_wall")?.as_f64()?,
            search_modeled: v.field("search_modeled")?.as_f64()?,
            explored: v.field("explored")?.as_usize()?,
            config: ParallelConfig::from_json_value(v.field("config")?)?,
            predicted_time: v.field("predicted_time")?.as_f64()?,
            predicted_mem: v.field("predicted_mem")?.as_u64()?,
            actual_mem: v.field("actual_mem")?.as_u64()?,
        })
    }
}

/// Persists Exp#1 rows as JSON.
pub fn save_exp1(rows: &[Exp1Row]) {
    let path = results_dir().join("exp1.json");
    let doc = Value::Array(rows.iter().map(ToJson::to_json_value).collect());
    std::fs::write(&path, doc.to_string_pretty()).expect("exp1.json writes");
    println!("[saved {}]", path.display());
}

/// Loads Exp#1 rows, if the experiment ran.
pub fn load_exp1() -> Option<Vec<Exp1Row>> {
    let path = results_dir().join("exp1.json");
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Value::parse(&text).ok()?;
    doc.as_array()
        .ok()?
        .iter()
        .map(Exp1Row::from_json_value)
        .collect::<Result<Vec<_>, _>>()
        .ok()
}

/// The Exp#1 (model size, GPU count) ladder from §5.1.
pub const SIZE_GPU_LADDER: [usize; 5] = [1, 4, 8, 16, 32];

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_model::zoo::gpt3_custom;

    #[test]
    fn env_builds_and_searches() {
        let env = ExpEnv::new(gpt3_custom("t", 2, 256, 4, 128, 1000, 16), 2);
        let r = env
            .run_aceso(SearchOptions {
                max_iterations: 4,
                ..SearchOptions::default()
            })
            .expect("search runs");
        let report = env.execute(&r.best_config);
        assert!(report.iteration_time > 0.0);
    }

    #[test]
    fn budgets_differ_by_scale() {
        assert!(aceso_opts(true).max_iterations > aceso_opts(false).max_iterations);
        assert!(alpa_opts(true).max_microbatch >= alpa_opts(false).max_microbatch);
    }

    #[test]
    fn the_repo_root_must_be_a_checkout() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(checkout_root(root.clone()), Ok(root.clone()));
        // `cargo test` runs in the crate directory, which is not a root.
        let err = checkout_root(root.join("crates/bench")).unwrap_err();
        assert!(
            err.contains("not the root of an aceso-rs checkout"),
            "{err}"
        );
    }

    #[test]
    fn merge_bench_section_preserves_unrelated_fields() {
        use aceso_util::json::obj;
        let path = std::env::temp_dir().join(format!("aceso-merge-{}.json", std::process::id()));
        std::fs::write(
            &path,
            "{\n  \"best_time\": 1.5,\n  \"serve_fleet\": {\"clients\": 1},\n  \
             \"serve_restart\": {\"store_hits\": 1}\n}\n",
        )
        .unwrap();
        merge_bench_section(&path, "serve_fleet", obj([("clients", Value::UInt(512))]));
        let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        // The unrelated field survives; the section is replaced, not
        // appended beside its stale copy.
        assert_eq!(doc.field("best_time").unwrap().as_f64().unwrap(), 1.5);
        let fleet = doc.field("serve_fleet").unwrap();
        assert_eq!(fleet.field("clients").unwrap().as_u64().unwrap(), 512);
        let Value::Object(fields) = &doc else {
            panic!("object doc")
        };
        assert_eq!(fields.iter().filter(|(k, _)| k == "serve_fleet").count(), 1);
        // The section keeps its place: a re-run moves no section.
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["best_time", "serve_fleet", "serve_restart"]);
        let _ = std::fs::remove_file(&path);
    }
}
