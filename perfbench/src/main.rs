//! Seeded benchmark of the Aceso search, serve daemon and profile store.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload search-direct --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run is a fixed number of pool passes, so every run does the same
//! work; `--seconds` is accepted and only reported (see
//! `perfbench/README.md`). Untraced runs (`--trace 0`) time the workload
//! end to end; traced runs (`--trace 1`) drive the same requests with
//! one client and time the calls into each layer's public functions. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; lines before it starting with `#`
//! are diagnostics. See `perfbench/README.md` for the metric definitions.

mod exec;
mod heap;
mod procstat;
mod trace;
mod workload;

use aceso_serve::Request;
use exec::{check_server_counters, closed_loop, counter_delta, setup, verify, work_digest, Env};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{requests, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Fewest setups in one batch of [`setup_batch`].
const SETUP_MIN_REPS: usize = 11;

/// Shortest wall time of one batch of setups, seconds.
const SETUP_BATCH_SECS: f64 = 0.5;

/// End-to-end metrics of untraced runs: name and unit, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("peak_heap_mb", "MiB"),
    ("plan_iter_time_geomean_ms", "sim_ms"),
    ("success_ratio", "ratio"),
];

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    /// The caller's requested run length; reported next to the measured
    /// one, never used to size the run.
    seconds: Option<u64>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir()
        .unwrap_or_else(|_| PathBuf::from("."))
        .join(".perfbench_work");
    let work = root.join(format!("run-{}", std::process::id()));
    let result = if args.trace {
        trace::run(args.workload, args.seed, &work)
    } else {
        run(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match result {
        Ok(report) => {
            for line in &report.diagnostics {
                println!("# {line}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The outcome of one benchmark run.
pub struct Report {
    /// Every output matched its reference.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed or returned a wrong plan.
    pub failed: usize,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub diagnostics: Vec<String>,
}

impl Report {
    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs [`setup`] at least [`SETUP_MIN_REPS`] times and for at least
/// [`SETUP_BATCH_SECS`], tearing each environment down but the last, and
/// returns every setup's wall time in seconds with the last environment.
///
/// A run times three batches — before the heap passes, before the timed
/// passes and after them — and reports the mean of the batch medians.
/// The median keeps a preempted setup from moving a batch. The mean
/// across batches is there because the host's speed changes in phases
/// of one to ten seconds (identical setups in one process read 2.3 ms
/// for seconds at a time, then 3.5 ms): a burst of setups measures one
/// phase, and a median across bursts jumps from one phase's figure to
/// the other's with the majority.
pub fn setup_batch(
    workload: Workload,
    reqs: &[Request],
    work: &Path,
) -> Result<(Vec<f64>, Env), String> {
    let mut times = Vec::new();
    let mut env: Option<Env> = None;
    let batch = Instant::now();
    while times.len() < SETUP_MIN_REPS || batch.elapsed().as_secs_f64() < SETUP_BATCH_SECS {
        if let Some(old) = env.take() {
            Env::teardown(old);
        }
        let start = Instant::now();
        let fresh = setup(
            workload,
            reqs.to_vec(),
            &work.join(format!("setup-{}", times.len())),
        )?;
        times.push(start.elapsed().as_secs_f64());
        env = Some(fresh);
    }
    Ok((times, env.expect("at least one setup")))
}

/// Median of a sample (sorts it in place).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Interpolated percentile (`p` in 0..=100) of a sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Threads of the correctness check's reference runs.
pub fn check_threads() -> usize {
    nproc().min(2)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host steal time above which a pass measured the neighbours more than
/// the program (percent of all host ticks during the pass).
const QUIET_STEAL_PCT: f64 = 1.0;

/// Medians over the pool passes of a drive — windows of `pass`
/// completions, each holding the same keys — of throughput (1/s) and CPU
/// per request (ms), with the number of passes used and completed.
///
/// Passes during which the hypervisor stole more than
/// [`QUIET_STEAL_PCT`] of the host's time are left out, as long as at
/// least half the passes were quiet; otherwise every pass counts.
fn pass_medians(drive: &exec::Loop, pass: usize) -> ([f64; 2], usize, usize) {
    let all: Vec<&[exec::Mark]> = drive.marks.windows(2).collect();
    let quiet: Vec<&[exec::Mark]> = all
        .iter()
        .copied()
        .filter(|w| procstat::steal_percent(w[0].host, w[1].host) <= QUIET_STEAL_PCT)
        .collect();
    let used = if 2 * quiet.len() >= all.len() {
        quiet
    } else {
        all.clone()
    };
    let per_pass = |f: &dyn Fn(&exec::Mark, &exec::Mark) -> f64| {
        let mut xs: Vec<f64> = used.iter().map(|w| f(&w[0], &w[1])).collect();
        median(&mut xs)
    };
    let n = pass as f64;
    let medians = [
        per_pass(&|a, b| n / (b.at - a.at).as_secs_f64()),
        per_pass(&|a, b| (b.cpu - a.cpu).as_secs_f64() * 1e3 / n),
    ];
    (medians, used.len(), all.len())
}

/// One untraced run: setups, the untimed heap passes, more setups, the
/// timed closed loop, more setups, then the check.
///
/// The first pool passes run one request at a time with the counting
/// allocator switched on; `peak_heap_mb` is the median of their per-pass
/// high-water marks. (With two clients the peak depends on which two
/// requests overlap, and moved 12% between runs.) They also warm the
/// process up. The timed passes after them run with counting off.
/// Throughput and CPU figures are medians over the timed passes, which
/// keeps a burst of host noise inside one pass from moving them. Latency
/// percentiles pool every timed request, so `latency_p90_ms` has at
/// least ten samples beyond it.
fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let pass = w.pool().len();
    let heap_end = w.heap_passes() * pass;
    let reqs = requests(w, args.seed, w.heap_passes() + w.passes());
    let (mut first_batch, env) = setup_batch(w, &reqs, &work.join("setup-0"))?;
    let mut setup_reps = first_batch.len();
    let mut setup_medians = vec![median(&mut first_batch)];
    let mut setup_again = |tag: &str| -> Result<(), String> {
        let (mut times, spare) = setup_batch(w, &reqs, &work.join(tag))?;
        spare.teardown();
        setup_reps += times.len();
        setup_medians.push(median(&mut times));
        Ok(())
    };
    let stats_before = env.daemon.as_ref().map(|d| d.counters()).transpose()?;

    let mut done: Vec<exec::Done> = Vec::with_capacity(reqs.len());
    let mut heap_peaks = Vec::new();
    heap::start();
    for first in (0..heap_end).step_by(pass) {
        heap::reset_peak();
        let drive = closed_loop(&env, first..first + pass, 1, false, usize::MAX);
        heap_peaks.push(heap::peak_mb());
        done.extend(drive.done);
    }
    heap::stop();
    let heap_mb = median(&mut heap_peaks);
    setup_again("setup-1")?;

    let host_before = procstat::host_ticks();
    let rss_reset = procstat::reset_peak_rss();
    let start = Instant::now();
    let drive = closed_loop(&env, heap_end..reqs.len(), w.clients(), false, pass);
    let wall = start.elapsed().as_secs_f64();
    let peak_rss_mb = procstat::peak_rss_mb();
    let steal = procstat::steal_percent(host_before, procstat::host_ticks());
    let ([rps, cpu_ms], quiet, passes) = pass_medians(&drive, pass);
    let mut latencies: Vec<f64> = drive
        .done
        .iter()
        .map(|d| d.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let timed = drive.done.len();
    done.extend(drive.done);

    let server = match (&env.daemon, &stats_before) {
        (Some(d), Some(before)) => counter_delta(before, &d.counters()?),
        _ => Default::default(),
    };
    setup_again("setup-2")?;
    let setup_s = aceso_util::stats::mean(&setup_medians);

    let mut problems: Vec<String> = if w.served() {
        check_server_counters(&done, &server)
    } else {
        Vec::new()
    };
    let failures = verify(&env, &done, check_threads());
    problems.extend(
        failures
            .iter()
            .take(5)
            .map(|(i, why)| format!("request {i}: {why}")),
    );

    let ok: Vec<&exec::Outcome> = done
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok())
        .collect();
    // Sorted, so the seeded request order cannot move the last bits.
    let mut plan_times: Vec<f64> = ok.iter().map(|o| o.best_time * 1e3).collect();
    plan_times.sort_by(f64::total_cmp);
    let digest = work_digest(&done, &server);
    let explored: u64 = ok.iter().map(|o| o.explored).sum();
    let events: u64 = ok.iter().map(|o| o.events).sum();
    env.teardown();

    let mut diagnostics = vec![
        format!(
            "workload={} seed={} requests={} timed={timed} passes={passes} \
             passes_used={quiet} clients={} nproc={} timed_wall_s={wall:.3} \
             requested_seconds={} whole_run_rps={:.3}",
            w.name(),
            args.seed,
            done.len(),
            w.clients(),
            nproc(),
            args.seconds.map_or("-".into(), |s| s.to_string()),
            timed as f64 / wall
        ),
        format!(
            "setup_reps={setup_reps} host_steal_pct={steal:.2} peak_rss_mb={peak_rss_mb:.1} (reset at start: {rss_reset})"
        ),
        format!("work_digest={digest:016x} sum_explored={explored} sum_events={events}"),
        format!(
            "server_counters={}",
            server
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    diagnostics.extend(problems.iter().map(|p| format!("FAIL {p}")));

    let values = [
        setup_s,
        rps,
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        cpu_ms,
        heap_mb,
        aceso_util::stats::geomean(&plan_times),
        (done.len() - failures.len()) as f64 / done.len().max(1) as f64,
    ];
    Ok(Report {
        correct: problems.is_empty(),
        attempted: done.len(),
        failed: failures.len(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_util::json::Value;

    #[test]
    fn the_result_line_has_exactly_the_documented_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s"), ("throughput_rps", 1.0 / 3.0, "1/s")],
            diagnostics: vec![],
        };
        let v = Value::parse(&report.json()).expect("result line is JSON");
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let rps = v
            .get("metrics")
            .and_then(|m| m.get("throughput_rps"))
            .expect("metric");
        assert_eq!(
            rps.get("value").and_then(|x| x.as_f64().ok()),
            Some(1.0 / 3.0)
        );
        assert_eq!(rps.get("unit").and_then(|x| x.as_str().ok()), Some("1/s"));
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
