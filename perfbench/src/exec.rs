//! Setup, the closed-loop client loop, and the correctness check.

use crate::workload::{key_of, Workload};
use aceso_cluster::ClusterSpec;
use aceso_core::AcesoSearch;
use aceso_model::{zoo, ModelGraph};
use aceso_obs::{Counter, ObsReport};
use aceso_profile::ProfileDb;
use aceso_serve::{
    event_frame, server_stats, shutdown, status_frame, submit, Request, Response, ServeOptions,
    Server,
};
use aceso_util::json::Value;
use aceso_util::FnvHasher;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Profile-cache byte budget of the `serve-durable` daemon: room for
/// about ten of its 24 profile databases (15 KiB each on average), so
/// requests also miss the cache and read the store.
pub const DURABLE_CACHE_BYTES: u64 = 160 << 10;

/// Search counters read from every request's metric snapshot.
pub const SEARCH_COUNTERS: [Counter; 11] = [
    Counter::PerfEvaluations,
    Counter::PerfIncrementalHits,
    Counter::PerfFullEvals,
    Counter::CandidatesGenerated,
    Counter::CandidatesAccepted,
    Counter::CandidatesDeduped,
    Counter::IterationsTotal,
    Counter::IterationsImproved,
    Counter::FinetuneEvals,
    Counter::StageSearches,
    Counter::SearchWorkerBatches,
];

/// Daemon-level counters the benchmark reads from `stats` frames.
pub const SERVER_COUNTERS: [Counter; 9] = [
    Counter::ServeRequests,
    Counter::ServeRejected,
    Counter::ProfileCacheHits,
    Counter::ProfileCacheMisses,
    Counter::CheckpointsWritten,
    Counter::StoreHits,
    Counter::StoreMisses,
    Counter::StoreWrites,
    Counter::StoreEvictions,
];

/// Server counters that do not depend on how two clients interleave;
/// only these enter the work digest.
const DETERMINISTIC_SERVER_COUNTERS: [Counter; 3] = [
    Counter::ServeRequests,
    Counter::ServeRejected,
    Counter::CheckpointsWritten,
];

/// A model with its cluster and profile database, built once in setup.
pub struct Profiled {
    /// Operator graph.
    pub model: ModelGraph,
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Profile database.
    pub db: ProfileDb,
}

/// An in-process daemon running on its own thread.
pub struct Daemon {
    /// `host:port` the daemon listens on.
    pub addr: String,
    handle: JoinHandle<ObsReport>,
}

impl Daemon {
    fn start(opts: ServeOptions) -> Result<Self, String> {
        let server = Server::bind("127.0.0.1:0", opts).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Self { addr, handle })
    }

    /// Current daemon-level counters.
    pub fn counters(&self) -> Result<BTreeMap<&'static str, u64>, String> {
        let stats = server_stats(&self.addr).map_err(|e| format!("stats: {e}"))?;
        Ok(SERVER_COUNTERS
            .iter()
            .map(|c| (c.name(), counter(&stats, c.name())))
            .collect())
    }

    /// Drains the daemon and waits for its thread to end.
    pub fn stop(self) {
        let _ = shutdown(&self.addr);
        let _ = self.handle.join();
    }
}

fn counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64().ok())
        .unwrap_or(0)
}

/// Everything a run needs, built by [`setup`].
pub struct Env {
    /// The workload.
    pub workload: Workload,
    /// The run's request list.
    pub requests: Vec<Request>,
    /// Profiled models by `(model, gpus)`.
    pub profiles: HashMap<(String, usize), Profiled>,
    /// The daemon of served workloads.
    pub daemon: Option<Daemon>,
    /// Spool and store directory of `serve-durable`.
    pub dir: Option<PathBuf>,
}

impl Env {
    /// The profiled model of a request.
    pub fn profiled(&self, req: &Request) -> &Profiled {
        &self.profiles[&(req.model.clone(), req.gpus)]
    }

    /// Stops the daemon and removes the run's directories.
    pub fn teardown(self) {
        if let Some(d) = self.daemon {
            d.stop();
        }
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds a run's state: every model graph and profile database the
/// request list needs (the correctness check and `search-direct` search
/// against them), then the daemon of served workloads — warmed with
/// every profile key for `serve-warm`, on fresh spool and store
/// directories under `work_dir` for `serve-durable`.
pub fn setup(workload: Workload, requests: Vec<Request>, work_dir: &Path) -> Result<Env, String> {
    let mut profiles = HashMap::new();
    for r in &requests {
        profiles
            .entry((r.model.clone(), r.gpus))
            .or_insert_with(|| {
                let model = zoo::by_name(&r.model).expect("pool models are zoo models");
                let cluster = ClusterSpec::v100_gpus(r.gpus);
                let db = ProfileDb::build(&model, &cluster);
                Profiled { model, cluster, db }
            });
    }
    let mut env = Env {
        workload,
        requests,
        profiles,
        daemon: None,
        dir: None,
    };
    match workload {
        Workload::SearchDirect => {}
        Workload::ServeWarm => {
            let daemon = Daemon::start(ServeOptions::default())?;
            let mut keys: Vec<&(String, usize)> = env.profiles.keys().collect();
            keys.sort();
            for (model, gpus) in keys {
                let warm = Request {
                    model: model.clone(),
                    gpus: *gpus,
                    max_iterations: 0,
                    ..Request::default()
                };
                submit(&daemon.addr, &warm).map_err(|e| format!("warm-up {model}@{gpus}: {e}"))?;
            }
            env.daemon = Some(daemon);
        }
        Workload::ServeDurable => {
            std::fs::create_dir_all(work_dir)
                .map_err(|e| format!("{}: {e}", work_dir.display()))?;
            let opts = ServeOptions {
                cache_bytes: DURABLE_CACHE_BYTES,
                spool_dir: Some(work_dir.join("spool")),
                checkpoint_every: 1,
                store_dir: Some(work_dir.join("store")),
                ..ServeOptions::default()
            };
            env.dir = Some(work_dir.to_path_buf());
            env.daemon = Some(Daemon::start(opts)?);
        }
    }
    Ok(env)
}

/// What one request returned.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Predicted iteration time of the best plan (seconds).
    pub best_time: f64,
    /// `semantic_hash` of the best plan.
    pub fingerprint: u64,
    /// Configurations explored.
    pub explored: u64,
    /// Whether the best plan is predicted out of memory.
    pub oom: bool,
    /// Events in the request's stream.
    pub events: u64,
    /// Profile-cache outcome (served requests only).
    pub cache_hit: Option<bool>,
    /// Server-side profiling time (served requests only).
    pub profile_micros: u64,
    /// [`SEARCH_COUNTERS`], in order.
    pub counters: [u64; SEARCH_COUNTERS.len()],
    /// Response frames on the wire (served requests only).
    pub frames: u64,
    /// Response bytes on the wire, length prefixes included (served
    /// requests, detailed runs only).
    pub frame_bytes: u64,
}

impl Outcome {
    /// The value of one of the [`SEARCH_COUNTERS`].
    pub fn counter(&self, c: Counter) -> u64 {
        SEARCH_COUNTERS
            .iter()
            .position(|&x| x == c)
            .map_or(0, |i| self.counters[i])
    }

    fn from_direct(result: &aceso_core::SearchResult, report: &ObsReport) -> Self {
        Self {
            best_time: result.best_time,
            fingerprint: result.best_config.semantic_hash(),
            explored: result.explored as u64,
            oom: result.best_oom,
            events: report.events().len() as u64,
            counters: SEARCH_COUNTERS.map(|c| report.counter(c)),
            ..Self::default()
        }
    }

    fn from_response(resp: &Response, detail: bool) -> Result<Self, String> {
        let field = |name: &str| {
            resp.result
                .get(name)
                .ok_or_else(|| format!("result frame lacks `{name}`"))
        };
        let uint = |name: &str| field(name)?.as_u64().map_err(|e| e.message);
        let frames = resp.statuses.len() + resp.events.len() + 1;
        let frame_bytes = if detail {
            let statuses = resp
                .statuses
                .iter()
                .map(|p| status_frame(p, (p == "searching").then_some(resp.cache.as_str())));
            let events = resp
                .events
                .iter()
                .enumerate()
                .map(|(seq, e)| event_frame(seq, e.clone()));
            statuses
                .chain(events)
                .chain(std::iter::once(resp.result.clone()))
                .map(|f| 4 + f.to_string_compact().len() as u64)
                .sum()
        } else {
            0
        };
        Ok(Self {
            best_time: f64::from_bits(uint("best_time_bits")?),
            fingerprint: uint("best_fingerprint")?,
            explored: uint("explored")?,
            oom: field("best_oom")?.as_bool().map_err(|e| e.message)?,
            events: resp.events.len() as u64,
            cache_hit: Some(resp.cache == "hit"),
            profile_micros: uint("profile_micros")?,
            counters: SEARCH_COUNTERS.map(|c| counter(&resp.metrics, c.name())),
            frames: frames as u64,
            frame_bytes,
        })
    }

    fn same_plan(&self, other: &Outcome) -> bool {
        self.best_time.to_bits() == other.best_time.to_bits()
            && self.fingerprint == other.fingerprint
            && self.explored == other.explored
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Submit-to-result (served) or whole-`run_observed` (direct) time.
    pub latency: Duration,
    /// The result, or why the request failed.
    pub outcome: Result<Outcome, String>,
}

/// Runs one request the workload's way.
pub fn run_one(env: &Env, req: &Request, detail: bool) -> Result<Outcome, String> {
    match &env.daemon {
        None => direct(env, req),
        Some(d) => {
            let resp = submit(&d.addr, req).map_err(|e| e.to_string())?;
            Outcome::from_response(&resp, detail)
        }
    }
}

/// The in-process library search of a request.
pub fn direct(env: &Env, req: &Request) -> Result<Outcome, String> {
    let p = env.profiled(req);
    let (result, report) = AcesoSearch::new(&p.model, &p.cluster, &p.db, req.search_options())
        .run_observed(true)
        .map_err(|e| e.to_string())?;
    Ok(Outcome::from_direct(&result, &report))
}

/// Readings taken when the run starts and each time another window of
/// requests has completed.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// When the reading was taken.
    pub at: Instant,
    /// Process CPU time at that point.
    pub cpu: Duration,
    /// Host-wide CPU ticks at that point.
    pub host: crate::procstat::HostTicks,
}

/// The outcome of a closed-loop drive.
pub struct Loop {
    /// Per-request results, in request-list order.
    pub done: Vec<Done>,
    /// The start reading, then one per completed window.
    pub marks: Vec<Mark>,
}

fn mark() -> Mark {
    Mark {
        at: Instant::now(),
        cpu: crate::procstat::process_cpu(),
        host: crate::procstat::host_ticks(),
    }
}

/// Drives the requests `range` of `env`'s list through `clients`
/// closed-loop client threads, taking a [`Mark`] after every `window`
/// completions.
pub fn closed_loop(
    env: &Env,
    range: Range<usize>,
    clients: usize,
    detail: bool,
    window: usize,
) -> Loop {
    let reqs = &env.requests[range];
    let next = AtomicUsize::new(0);
    let state = Mutex::new((Vec::with_capacity(reqs.len()), vec![mark()]));
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = reqs.get(i) else {
                    return;
                };
                let start = Instant::now();
                let outcome = run_one(env, req, detail);
                let latency = start.elapsed();
                let mut guard = state.lock().expect("results lock");
                let (done, marks) = &mut *guard;
                done.push((i, Done { latency, outcome }));
                if done.len() % window.max(1) == 0 {
                    marks.push(mark());
                }
            });
        }
    });
    let (mut done, marks) = state.into_inner().expect("results lock");
    done.sort_by_key(|(i, _)| *i);
    Loop {
        done: done.into_iter().map(|(_, d)| d).collect(),
        marks,
    }
}

/// Maps `f` over `0..n` on `threads` threads, results in index order.
pub fn parallel_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let v = f(i);
                out.lock().expect("map lock").push((i, v));
            });
        }
    });
    let mut out = out.into_inner().expect("map lock");
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, v)| v).collect()
}

/// Checks every completed request; returns the indices of failed
/// requests with the reason.
///
/// * Every plan must fit in memory.
/// * Served responses must equal an in-process `run_observed` of the
///   same request on best-time bits, best fingerprint and explored count.
/// * Direct runs are re-run once per pool key and must reproduce.
pub fn verify(env: &Env, done: &[Done], threads: usize) -> Vec<(usize, String)> {
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut to_check: Vec<usize> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, d) in done.iter().enumerate() {
        match &d.outcome {
            Err(e) => failures.push((i, format!("request failed: {e}"))),
            Ok(o) if o.oom => failures.push((i, "best plan does not fit in memory".into())),
            Ok(_) => {
                if env.workload.served() || seen.insert(key_of(&env.requests[i])) {
                    to_check.push(i);
                }
            }
        }
    }
    let reference = parallel_map(to_check.len(), threads, |j| {
        direct(env, &env.requests[to_check[j]])
    });
    for (&i, want) in to_check.iter().zip(reference) {
        let got = done[i]
            .outcome
            .as_ref()
            .expect("only successes are checked");
        match want {
            Ok(want) if want.same_plan(got) => {}
            Ok(want) => failures.push((
                i,
                format!(
                    "{}: got (time bits {:#x}, fingerprint {:#x}, explored {}), \
                     in-process run gives ({:#x}, {:#x}, {})",
                    env.requests[i].model,
                    got.best_time.to_bits(),
                    got.fingerprint,
                    got.explored,
                    want.best_time.to_bits(),
                    want.fingerprint,
                    want.explored
                ),
            )),
            Err(e) => failures.push((i, format!("reference run failed: {e}"))),
        }
    }
    failures.sort_by_key(|(i, _)| *i);
    failures.dedup_by_key(|(i, _)| *i);
    failures
}

/// Checks that the per-request snapshots add up to the daemon's own
/// counters over the run (`delta` = after − before).
pub fn check_server_counters(done: &[Done], delta: &BTreeMap<&'static str, u64>) -> Vec<String> {
    let ok: Vec<&Outcome> = done
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok())
        .collect();
    let hits = ok.iter().filter(|o| o.cache_hit == Some(true)).count() as u64;
    let misses = ok.iter().filter(|o| o.cache_hit == Some(false)).count() as u64;
    let want = [
        (Counter::ServeRequests, done.len() as u64),
        (Counter::ServeRejected, 0),
        (Counter::ProfileCacheHits, hits),
        (Counter::ProfileCacheMisses, misses),
    ];
    want.iter()
        .filter(|(c, n)| delta.get(c.name()).copied().unwrap_or(0) != *n)
        .map(|(c, n)| {
            format!(
                "daemon counter {} moved by {} over the run, responses account for {n}",
                c.name(),
                delta.get(c.name()).copied().unwrap_or(0)
            )
        })
        .collect()
}

/// Difference of two counter snapshots.
pub fn counter_delta(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, u64> {
    after
        .iter()
        .map(|(k, v)| (*k, v.saturating_sub(before.get(k).copied().unwrap_or(0))))
        .collect()
}

/// Digest of the deterministic work a run did: every request's plan,
/// explored count and event count, taken as a sorted multiset so the
/// seeded request order does not enter it, plus the daemon counters that
/// do not depend on client interleaving. Two runs with different digests
/// did different work.
pub fn work_digest(done: &[Done], server: &BTreeMap<&'static str, u64>) -> u64 {
    let mut work: Vec<[u64; 4]> = done
        .iter()
        .map(|d| match &d.outcome {
            Ok(o) => [o.best_time.to_bits(), o.fingerprint, o.explored, o.events],
            Err(_) => [u64::MAX; 4],
        })
        .collect();
    work.sort_unstable();
    let mut h = FnvHasher::new();
    for w in work.iter().flatten() {
        h.write_u64(*w);
    }
    for c in DETERMINISTIC_SERVER_COUNTERS {
        h.write_u64(server.get(c.name()).copied().unwrap_or(0));
    }
    h.finish()
}

/// Scratch directory for self-tests, inside the checkout (ignored by git).
#[cfg(test)]
pub fn test_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.perfbench_work")
        .join(format!("test-{name}-{}", std::process::id()))
}

/// Removes a [`test_dir`] and, once empty, the scratch root.
#[cfg(test)]
pub fn remove_test_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(root) = dir.parent() {
        let _ = std::fs::remove_dir(root);
    }
}

/// A short request list for self-tests: one pass over the pool, with
/// iteration budgets cut to keep the searches quick.
#[cfg(test)]
pub fn quick_requests(w: Workload, seed: u64) -> Vec<Request> {
    crate::workload::requests(w, seed, 1)
        .into_iter()
        .map(|r| Request {
            max_iterations: r.max_iterations.min(2),
            ..r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_request_snapshots_sum_to_the_daemon_counters() {
        for w in [Workload::ServeWarm, Workload::ServeDurable] {
            let dir = test_dir(w.name());
            let env = setup(w, quick_requests(w, 4), &dir).expect("setup");
            let daemon = env.daemon.as_ref().expect("served workloads run a daemon");
            let before = daemon.counters().expect("stats");
            let drive = closed_loop(&env, 0..env.requests.len(), 2, false, usize::MAX);
            let delta = counter_delta(&before, &daemon.counters().expect("stats"));
            assert_eq!(
                check_server_counters(&drive.done, &delta),
                Vec::<String>::new()
            );
            assert_eq!(verify(&env, &drive.done, 2), Vec::new());
            if w == Workload::ServeDurable {
                assert!(delta[Counter::CheckpointsWritten.name()] >= drive.done.len() as u64);
                assert!(delta[Counter::StoreWrites.name()] > 0);
            }
            // The check has teeth: one hit the responses do not account
            // for is reported.
            let mut off = delta.clone();
            *off.get_mut(Counter::ProfileCacheHits.name())
                .expect("counter") += 1;
            assert_eq!(check_server_counters(&drive.done, &off).len(), 1);
            env.teardown();
            remove_test_dir(&dir);
        }
    }

    #[test]
    fn the_work_digest_ignores_request_order() {
        let done = |explored| Done {
            latency: Duration::ZERO,
            outcome: Ok(Outcome {
                explored,
                ..Outcome::default()
            }),
        };
        let server = BTreeMap::new();
        let list = [done(1), done(2), done(3)];
        let mut reversed = list.clone();
        reversed.reverse();
        assert_eq!(work_digest(&list, &server), work_digest(&reversed, &server));
        assert_ne!(
            work_digest(&list, &server),
            work_digest(&list[..2], &server)
        );
    }

    #[test]
    fn a_wrong_plan_fails_the_check() {
        let w = Workload::SearchDirect;
        let env = setup(w, quick_requests(w, 2), &test_dir("wrong-plan")).expect("setup");
        let mut drive = closed_loop(&env, 0..env.requests.len(), 1, false, usize::MAX);
        assert_eq!(verify(&env, &drive.done, 2), Vec::new());
        if let Ok(o) = &mut drive.done[0].outcome {
            o.explored += 1;
        }
        let failures = verify(&env, &drive.done, 2);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 0);
        env.teardown();
    }
}
