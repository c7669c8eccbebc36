//! The scenario driver: runs end-to-end daemon lifecycles under a
//! [`Schedule`] and checks the standing oracles after every run.
//!
//! One scenario is the full crash-recovery story the serve + store
//! stack promises to survive: daemon generation A (with filesystem
//! faults injected through a seeded [`ChaosFs`]) takes a submission —
//! possibly through a [`FaultProxy`] that severs the connection at a
//! frame boundary — then the "process" restarts as generation B on the
//! same store and spool directories, the request is resubmitted, and
//! the response must come back. Optionally the generations overlap on
//! one store directory (two daemons, one store) and a panicking
//! profile-build worker is injected between them.
//!
//! After every run the engine checks the standing oracles
//! (INV-CHAOS-ORACLE):
//!
//! 1. **No torn store entry is ever visible**: every `.adb` file in the
//!    store decodes cleanly (`aceso store verify` semantics via
//!    [`Store::ls`]) — INV-STORE-ATOMIC observed end to end.
//! 2. **The final resubmission succeeds** within a bounded number of
//!    client retries — faults degrade, they never wedge.
//! 3. **The response is bit-identical** to the fault-free reference on
//!    every deterministic field (INV-STORE-BITEXACT extended to the
//!    whole system: cache, store, spool and restarts are invisible).
//! 4. **Every server-surfaced event parses as a typed [`Event`]** —
//!    degrades are always surfaced, never stringly dropped.
//! 5. **Injected panics are contained** and the cache recovers.
//!
//! Violations are plain strings naming the oracle; the shrinker
//! ([`crate::shrink()`]) minimises a violating schedule into a replayable
//! trace.

use crate::schedule::Schedule;
use aceso_obs::{Event, Family, ObsReport};
use aceso_serve::{
    submit, submit_with_retries, FaultProxy, ProfileCache, Request, ServeOptions, Server,
};
use aceso_store::Store;
use aceso_util::fsio::{ChaosFs, Fs, InjectedFault, RealFs};
use aceso_util::json::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How the engine runs scenarios: where scratch directories live and
/// whether the store-atomicity mutation gate is armed.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Scratch root; every scenario gets a fresh subdirectory that is
    /// removed after the run.
    pub root: PathBuf,
    /// Arm `--mutate store-direct-write`: every scheduled scenario runs
    /// with the daemons' stores writing entries directly (no
    /// temp+rename), which the torn-entry oracle must catch.
    pub mutate_direct_writes: bool,
}

impl ChaosOptions {
    /// Options rooted under the system temp directory, uniquely named
    /// per process and `tag`.
    pub fn in_temp(tag: &str) -> Self {
        Self {
            root: std::env::temp_dir().join(format!("aceso-chaos-{tag}-{}", std::process::id())),
            mutate_direct_writes: false,
        }
    }
}

/// What one scenario run observed.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Oracle violations, empty on a clean run.
    pub violations: Vec<String>,
    /// Every filesystem fault actually injected, across both daemon
    /// generations, in injection order.
    pub injected: Vec<InjectedFault>,
    /// Whether a [`aceso_util::fsio::FaultKind::Crash`] point fired in
    /// either generation.
    pub crashed: bool,
}

/// The aggregate of a seed-range run.
#[derive(Debug)]
pub struct ChaosReport {
    /// Scenarios executed (the range is cut short at the first
    /// violation, which is shrunk instead).
    pub runs: usize,
    /// Total filesystem faults injected across all runs.
    pub faults_injected: usize,
    /// The first violating schedule, shrunk to a minimal replayable
    /// trace; `None` when every scenario passed its oracles.
    pub failure: Option<crate::schedule::Trace>,
    /// Synthesized observability: one `fault_injected` event and one
    /// `chaos_faults_injected` count per injected fault (the engine —
    /// not the daemon — owns these; schema v9, nondeterministic-masked).
    pub report: ObsReport,
}

/// The fixed request every scenario submits: a small zoo model with a
/// deterministic iteration budget (no wall-clock budget), so the
/// fault-free response is a stable reference for bit-identity checks.
pub fn chaos_request() -> Request {
    Request {
        model: "gpt3-0.35b".into(),
        gpus: 1,
        max_iterations: 4,
        request_id: Some("chaos-req".into()),
        ..Request::default()
    }
}

/// The deterministic fields of a result frame, compact-printed: the
/// fingerprint two runs must share to count as bit-identical. Masks the
/// fields that legitimately vary across runs (`profile_micros` wall
/// time, `cache` hit/miss, the metrics snapshot's histograms) — and
/// nothing else.
pub fn response_fingerprint(result: &Value) -> String {
    const DETERMINISTIC: [&str; 7] = [
        "type",
        "best_time",
        "best_oom",
        "explored",
        "stages",
        "best_config",
        "plan",
    ];
    let Value::Object(fields) = result else {
        return result.to_string_compact();
    };
    let kept: Vec<(String, Value)> = fields
        .iter()
        .filter(|(k, _)| DETERMINISTIC.contains(&k.as_str()))
        .cloned()
        .collect();
    Value::Object(kept).to_string_compact()
}

/// One in-process daemon generation.
struct Daemon {
    addr: String,
    handle: std::thread::JoinHandle<ObsReport>,
}

fn spawn_daemon(
    store_dir: &Path,
    spool_dir: &Path,
    fs: Arc<dyn Fs>,
    direct_writes: bool,
) -> std::io::Result<Daemon> {
    let opts = ServeOptions {
        workers: 1,
        spool_dir: Some(spool_dir.to_path_buf()),
        checkpoint_every: 1,
        store_dir: Some(store_dir.to_path_buf()),
        fs,
        store_direct_writes: direct_writes,
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", opts)?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    Ok(Daemon { addr, handle })
}

/// Drains a daemon and checks oracle 4 on its report: every server
/// event must round-trip through the typed [`Event`] codec.
fn stop_daemon(daemon: Daemon, violations: &mut Vec<String>) {
    if let Err(e) = aceso_serve::shutdown(&daemon.addr) {
        violations.push(format!("shutdown-failed: {e}"));
        return;
    }
    let Ok(report) = daemon.handle.join() else {
        violations.push("daemon-panicked: run() did not return".to_string());
        return;
    };
    for event in report.events() {
        let round_trip =
            Event::from_json_value(&event.to_json_value(), &aceso_core::intern_obs_str);
        if round_trip.as_ref() != Ok(event) {
            violations.push(format!(
                "untyped-event: {} does not round-trip through the typed codec",
                event.kind()
            ));
        }
    }
}

/// The torn-entry oracle (INV-CHAOS-ORACLE, INV-STORE-ATOMIC observed
/// end to end): every visible store entry decodes cleanly — `aceso
/// store verify` semantics — on the *real* filesystem, at a quiescent
/// point. A store directory that was never created is vacuously clean.
fn verify_store(store_dir: &Path, when: &str, violations: &mut Vec<String>) {
    if !store_dir.exists() {
        return;
    }
    match Store::open(store_dir, u64::MAX) {
        Ok(store) => {
            for entry in store.ls() {
                if let Err(reason) = entry.status {
                    violations.push(format!("torn-entry {when}: {} ({reason})", entry.file));
                }
            }
        }
        Err(e) => violations.push(format!("store-unopenable {when}: {e}")),
    }
}

/// Runs scenarios against one fault-free reference fingerprint.
pub struct Engine {
    opts: ChaosOptions,
    reference: String,
    run_counter: AtomicU64,
}

impl Engine {
    /// Builds the engine: runs one fault-free scenario to capture the
    /// reference response fingerprint every chaotic run is compared to.
    pub fn new(opts: ChaosOptions) -> Result<Self, String> {
        let engine = Self {
            opts,
            reference: String::new(),
            run_counter: AtomicU64::new(0),
        };
        let dir = engine.fresh_run_dir();
        let daemon = spawn_daemon(
            &dir.join("store"),
            &dir.join("spool"),
            Arc::new(RealFs),
            false,
        )
        .map_err(|e| format!("reference daemon failed to bind: {e}"))?;
        let resp = submit_with_retries(&daemon.addr, &chaos_request(), 4, None)
            .map_err(|e| format!("reference submission failed: {e}"))?;
        let mut violations = Vec::new();
        stop_daemon(daemon, &mut violations);
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(v) = violations.first() {
            return Err(format!("reference run violated an oracle: {v}"));
        }
        Ok(Self {
            reference: response_fingerprint(&resp.result),
            ..engine
        })
    }

    /// The fault-free reference fingerprint (for tests and reports).
    pub fn reference(&self) -> &str {
        &self.reference
    }

    fn fresh_run_dir(&self) -> PathBuf {
        let n = self.run_counter.fetch_add(1, Ordering::Relaxed);
        let dir = self.opts.root.join(format!("run-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("chaos scratch directory");
        dir
    }

    /// Derives seed `seed`'s schedule (arming the mutation switch when
    /// the options ask for it) and runs it.
    pub fn run_seed(&self, seed: u64) -> (Schedule, ScenarioOutcome) {
        let mut schedule = Schedule::from_seed(seed);
        schedule.direct_writes = self.opts.mutate_direct_writes;
        let outcome = self.run_schedule(&schedule);
        (schedule, outcome)
    }

    /// Runs one whole-system scenario under `schedule` and checks every
    /// standing oracle (INV-CHAOS-ORACLE). Deterministic for a given
    /// schedule (INV-CHAOS-DETERMINISM): the daemon runs one request at
    /// a time with TTL sweeps disabled, so the filesystem-op ordinals a
    /// [`ChaosFs`] numbers are reproducible run over run.
    pub fn run_schedule(&self, schedule: &Schedule) -> ScenarioOutcome {
        let dir = self.fresh_run_dir();
        let store_dir = dir.join("store");
        let spool_dir = dir.join("spool");
        let mut violations = Vec::new();
        let req = chaos_request();

        let fs_a = Arc::new(ChaosFs::new(&schedule.gen_a));
        let fs_b = Arc::new(ChaosFs::new(&schedule.gen_b));

        let daemon_a = match spawn_daemon(
            &store_dir,
            &spool_dir,
            Arc::<ChaosFs>::clone(&fs_a),
            schedule.direct_writes,
        ) {
            Ok(d) => Some(d),
            Err(e) => {
                violations.push(format!("daemon-a-failed-to-start: {e}"));
                None
            }
        };

        // Generation A's submission, optionally through the fault proxy
        // (a crash/partition at a server→client frame boundary). A cut
        // submission may fail — that is the injected fault working, and
        // resubmission below is the recovery under test. An *uncut*
        // submission must succeed and match the reference: filesystem
        // faults degrade silently, they never surface to the client.
        if let Some(daemon) = &daemon_a {
            match schedule.net_cut {
                Some(frames) => match FaultProxy::start(&daemon.addr, frames as usize) {
                    Ok(proxy) => {
                        if let Ok(resp) = submit(&proxy.addr(), &req) {
                            self.check_fingerprint(&resp.result, &mut violations);
                        }
                    }
                    Err(e) => violations.push(format!("fault-proxy-failed: {e}")),
                },
                None => match submit_with_retries(&daemon.addr, &req, 4, None) {
                    Ok(resp) => self.check_fingerprint(&resp.result, &mut violations),
                    Err(e) => violations.push(format!("submit-failed: {e}")),
                },
            }
        }

        // Generation B: the restarted "process" on the same directories
        // — overlapping generation A when the schedule says concurrent,
        // after its drain otherwise.
        let daemon_a = if schedule.concurrent {
            daemon_a
        } else {
            if let Some(d) = daemon_a {
                stop_daemon(d, &mut violations);
            }
            // The torn-entry oracle holds at *every* quiescent point,
            // not just the end of the run: generation B will heal a
            // torn entry by degrading and rebuilding, so the window
            // between the generations is where a broken atomic-publish
            // discipline (the store-direct-write mutant) is visible.
            verify_store(&store_dir, "between generations", &mut violations);
            if schedule.panic_build {
                self.inject_panic(&store_dir, &mut violations);
            }
            None
        };

        match spawn_daemon(
            &store_dir,
            &spool_dir,
            Arc::<ChaosFs>::clone(&fs_b),
            schedule.direct_writes,
        ) {
            Ok(daemon_b) => {
                // The recovery resubmission: bounded retries, then the
                // bit-identity oracle against the fault-free reference.
                match submit_with_retries(&daemon_b.addr, &req, 4, None) {
                    Ok(resp) => self.check_fingerprint(&resp.result, &mut violations),
                    Err(e) => violations.push(format!("resubmit-failed: {e}")),
                }
                if schedule.concurrent && schedule.panic_build {
                    self.inject_panic(&store_dir, &mut violations);
                }
                if let Some(d) = daemon_a {
                    stop_daemon(d, &mut violations);
                }
                stop_daemon(daemon_b, &mut violations);
            }
            Err(e) => {
                violations.push(format!("restart-failed: {e}"));
                if let Some(d) = daemon_a {
                    stop_daemon(d, &mut violations);
                }
            }
        }

        // The torn-entry oracle again, after every daemon is gone:
        // whatever the faults did, no visible store entry may fail to
        // decode (`aceso store verify` clean).
        verify_store(&store_dir, "after the run", &mut violations);

        let mut injected = fs_a.injected();
        injected.extend(fs_b.injected());
        let crashed = fs_a.crashed() || fs_b.crashed();
        let _ = std::fs::remove_dir_all(&dir);
        ScenarioOutcome {
            violations,
            injected,
            crashed,
        }
    }

    fn check_fingerprint(&self, result: &Value, violations: &mut Vec<String>) {
        let got = response_fingerprint(result);
        if got != self.reference {
            violations.push(format!(
                "response-mismatch: got {got} want {}",
                self.reference
            ));
        }
    }

    /// The worker-panic dimension: a profile build that panics mid-way
    /// must be contained by `catch_unwind`, and the cache (sharing the
    /// scenario's store directory) must recover — the next build of the
    /// same key succeeds. Exercises the cache's poisoned-lock recovery
    /// against a real store tier.
    fn inject_panic(&self, store_dir: &Path, violations: &mut Vec<String>) {
        // A tiny model unique to the panic step: its fingerprint can
        // never already be resident in the scenario's store, so the
        // build closure is guaranteed to run (and panic) — a store hit
        // would bypass the build and nothing would be injected.
        let model = aceso_model::zoo::gpt3_custom("chaos-panic-probe", 2, 128, 4, 64, 512, 16);
        let cluster = aceso_cluster::ClusterSpec::v100_gpus(1);
        let store = match Store::open(store_dir, u64::MAX) {
            Ok(s) => s,
            Err(e) => {
                violations.push(format!("panic-step: store unopenable: {e}"));
                return;
            }
        };
        let cache = ProfileCache::with_store(u64::MAX, store);
        // Silence the default panic hook for the intentional panic; the
        // previous hook is restored immediately after.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build_with(&model, &cluster, |_, _| panic!("injected worker panic"))
        }));
        std::panic::set_hook(prev_hook);
        if unwound.is_ok() {
            violations.push("panic-not-injected: the panicking build returned".to_string());
            return;
        }
        // Recovery: the slot must not be wedged.
        let (_db, _hit) = cache.get_or_build(&model, &cluster);
    }

    /// Runs every seed in `[first, last)`, stopping at (and shrinking)
    /// the first oracle violation. The returned report carries the
    /// synthesized `fault_injected` events and `chaos_faults_injected`
    /// counts for everything that was injected.
    pub fn run_range(&self, first: u64, last: u64) -> ChaosReport {
        let rec = aceso_obs::Recorder::new(true);
        let mut runs = 0usize;
        let mut faults = 0usize;
        let mut failure = None;
        for seed in first..last {
            let (schedule, outcome) = self.run_seed(seed);
            runs += 1;
            faults += outcome.injected.len();
            for f in &outcome.injected {
                rec.emit(|| Event::FaultInjected {
                    op: f.op,
                    kind: f.kind.name().to_string(),
                    path: f.path.display().to_string(),
                });
                rec.count_keyed(Family::ChaosFaultsInjected, f.kind.name(), 1);
            }
            if !outcome.violations.is_empty() {
                failure = Some(crate::shrink::shrink(self, &schedule, outcome.violations));
                break;
            }
        }
        let mut report = ObsReport::new();
        report.absorb(rec);
        ChaosReport {
            runs,
            faults_injected: faults,
            failure,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_fingerprint_is_deterministic_and_masked() {
        let engine = Engine::new(ChaosOptions::in_temp("engine-ref")).expect("reference run");
        assert!(engine.reference().contains("best_config"));
        assert!(
            !engine.reference().contains("profile_micros"),
            "wall-clock fields must be masked out of the fingerprint"
        );
        let _ = std::fs::remove_dir_all(&engine.opts.root);
    }

    #[test]
    fn a_fault_free_schedule_passes_every_oracle() {
        let engine = Engine::new(ChaosOptions::in_temp("engine-clean")).expect("reference run");
        let clean = Schedule {
            seed: 0,
            gen_a: aceso_util::fsio::FaultSchedule::none(),
            gen_b: aceso_util::fsio::FaultSchedule::none(),
            net_cut: None,
            panic_build: false,
            concurrent: false,
            direct_writes: false,
        };
        let outcome = engine.run_schedule(&clean);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
        assert!(outcome.injected.is_empty());
        assert!(!outcome.crashed);
        let _ = std::fs::remove_dir_all(&engine.opts.root);
    }
}
