//! `aceso` — command-line configuration search.
//!
//! ```console
//! $ aceso --model gpt3-2.6b --gpus 8 --budget-secs 30 --plan-out plan.json
//! ```
//!
//! Searches a parallel configuration for one of the paper's models on a
//! simulated V100 cluster, prints the found configuration with predicted
//! and simulated performance, and optionally writes the per-rank execution
//! plan. `aceso serve` runs the same search as a long-lived daemon with a
//! cross-request profile cache; `aceso submit` talks to it; `aceso
//! store` inspects the daemon's on-disk profile store; `aceso obs-diff`
//! compares two metric snapshots.

use aceso::cli::USAGE;
use aceso::model::zoo;
use aceso::obs::{Family, ObsReport, Recorder};
use aceso::prelude::*;
use aceso::runtime::ExecutionPlan;
use aceso::serve::{self, Request, ServeOptions, Server};
use aceso::util::json::Value;
use aceso_audit::AuditOptions;
use std::time::Duration;

/// Parsed command-line options.
struct Args {
    /// The search itself: model, GPUs, stages, ZeRO and budgets.
    req: Request,
    plan_out: Option<String>,
    metrics: bool,
    metrics_out: Option<String>,
    events_out: Option<String>,
}

/// Takes the value of the numeric `flag` from `value` and parses it; a
/// bad value reads `--flag: <reason>`.
fn number<T: std::str::FromStr>(
    flag: &str,
    value: &mut dyn FnMut(&str) -> Result<String, String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses `flag` when it is one of the search flags `aceso search` and
/// `aceso submit` share (`--model`, `--gpus`, `--stages`, `--zero`,
/// `--budget-secs`) into `req`, taking its value from `value`. Returns
/// `None` for any other flag, which the subcommand then handles itself.
fn parse_search_flag(
    req: &mut Request,
    flag: &str,
    value: &mut dyn FnMut(&str) -> Result<String, String>,
) -> Option<Result<(), String>> {
    Some(match flag {
        "--model" => value(flag).map(|v| req.model = v),
        "--gpus" => number(flag, value).map(|n| req.gpus = n),
        "--stages" => number(flag, value).map(|p| req.stages = Some(p)),
        "--zero" => {
            req.zero = true;
            Ok(())
        }
        "--budget-secs" => number(flag, value).map(|s| req.budget_secs = Some(s)),
        _ => return None,
    })
}

/// Runs `aceso audit` and exits: 0 when clean, 1 on findings, 2 on bad
/// usage.
fn run_audit(mut it: impl Iterator<Item = String>) -> ! {
    let mut opts = AuditOptions::default();
    let mut json_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parsed = match flag.as_str() {
            "--smoke" => {
                opts.smoke = true;
                Ok(())
            }
            "--full" => {
                opts.full = true;
                Ok(())
            }
            "--json" => value("--json").map(|v| json_out = Some(v)),
            "--metrics-out" => value("--metrics-out").map(|v| metrics_out = Some(v)),
            "--mutate" => value("--mutate").and_then(|v| {
                aceso_audit::Mutation::parse(&v)
                    .map(|m| opts.mutation = Some(m))
                    .ok_or_else(|| format!("--mutate: unknown mutation `{v}`"))
            }),
            "--epsilon" => number(&flag, &mut value).map(|e| opts.epsilon = e),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => Err(format!("unknown audit flag `{other}`")),
        };
        if let Err(msg) = parsed {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    }

    eprintln!(
        "auditing {} corpus (epsilon {:.1e})...",
        if opts.smoke {
            "smoke"
        } else {
            "full model-zoo"
        },
        opts.epsilon
    );
    let report = aceso_audit::run(&opts);
    print!("{}", report.render());
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error writing {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote JSON report to {path}");
    }
    if let Some(path) = metrics_out {
        let rec = Recorder::new(true);
        for (rule, n) in report.rule_counts() {
            rec.count_keyed(Family::AuditFindings, rule, n as u64);
        }
        let mut obs = ObsReport::new();
        obs.absorb(rec);
        if let Err(e) = std::fs::write(&path, obs.metrics_json()) {
            eprintln!("error writing {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote metric snapshot to {path}");
    }
    std::process::exit(if report.clean() { 0 } else { 1 });
}

/// Runs `aceso store (ls|verify|prune) --dir DIR` and exits: 0 when the
/// store is clean (or listed / pruned), 1 when `verify` reports
/// findings, 2 on bad usage or an unreadable directory.
fn run_store(mut it: impl Iterator<Item = String>) -> ! {
    let action = match it.next().as_deref() {
        Some(a @ ("ls" | "verify" | "prune")) => a.to_string(),
        Some("--help" | "-h") => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        None => {
            eprintln!("error: store needs an action (ls | verify | prune)\n\n{USAGE}");
            std::process::exit(2);
        }
        Some(other) => {
            eprintln!("error: unknown store action `{other}`\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut dir: Option<std::path::PathBuf> = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--dir" => match it.next() {
                Some(v) => dir = Some(std::path::PathBuf::from(v)),
                None => {
                    eprintln!("error: missing value for --dir\n\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown store flag `{other}`\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("error: store {action} requires --dir\n\n{USAGE}");
        std::process::exit(2);
    };
    // Inspection never writes entries, so the byte budget is moot.
    let store = aceso::store::Store::open(&dir, u64::MAX).unwrap_or_else(|e| {
        eprintln!("error: cannot open store {}: {e}", dir.display());
        std::process::exit(2);
    });
    match action.as_str() {
        "ls" => {
            let entries = store.ls();
            println!("{} entries in {}", entries.len(), dir.display());
            for e in entries {
                let version = e
                    .schema_version
                    .map_or_else(|| "-".to_string(), |v| v.to_string());
                let ops = e.entries.map_or_else(|| "-".to_string(), |n| n.to_string());
                let status = match &e.status {
                    Ok(()) => "ok".to_string(),
                    Err(reason) => reason.to_string(),
                };
                println!(
                    "{}  {} B  v{version}  {ops} entries  {status}",
                    e.file, e.bytes
                );
            }
            std::process::exit(0);
        }
        "verify" => {
            let findings: Vec<_> = store
                .ls()
                .into_iter()
                .filter_map(|e| e.status.err().map(|r| (e.file, r)))
                .collect();
            for (file, reason) in &findings {
                println!("{file}: {reason}");
            }
            println!(
                "{} finding{} in {}",
                findings.len(),
                if findings.len() == 1 { "" } else { "s" },
                dir.display()
            );
            std::process::exit(if findings.is_empty() { 0 } else { 1 });
        }
        _ => {
            let removed = store.prune();
            println!("pruned {removed} files from {}", dir.display());
            std::process::exit(0);
        }
    }
}

/// Runs `aceso serve` and exits when the daemon drains.
fn run_serve(mut it: impl Iterator<Item = String>) -> ! {
    let mut addr = "127.0.0.1:7100".to_string();
    let mut opts = ServeOptions::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parsed = match flag.as_str() {
            "--addr" => value("--addr").map(|v| addr = v),
            "--workers" => number(&flag, &mut value).map(|n| opts.workers = n),
            "--cache-mb" => number(&flag, &mut value).map(|m: u64| opts.cache_bytes = m << 20),
            "--max-budget-secs" => {
                number(&flag, &mut value).map(|s| opts.max_budget_secs = (s > 0).then_some(s))
            }
            "--max-gpus" => number(&flag, &mut value).map(|n| opts.max_gpus = (n > 0).then_some(n)),
            "--max-iterations" => {
                number(&flag, &mut value).map(|n| opts.max_iterations = (n > 0).then_some(n))
            }
            "--max-deepnet-layers" => {
                number(&flag, &mut value).map(|n| opts.max_deepnet_layers = (n > 0).then_some(n))
            }
            "--io-timeout-secs" => number(&flag, &mut value)
                .map(|s| opts.io_timeout = (s > 0).then(|| Duration::from_secs(s))),
            "--spool-dir" => {
                value("--spool-dir").map(|v| opts.spool_dir = Some(std::path::PathBuf::from(v)))
            }
            "--checkpoint-every" => {
                number(&flag, &mut value).map(|n: usize| opts.checkpoint_every = n.max(1))
            }
            "--spool-ttl-secs" => {
                number(&flag, &mut value).map(|s| opts.spool_ttl_secs = (s > 0).then_some(s))
            }
            "--max-connections" => number(&flag, &mut value).map(|n| opts.max_connections = n),
            "--store-dir" => {
                value("--store-dir").map(|v| opts.store_dir = Some(std::path::PathBuf::from(v)))
            }
            "--store-budget-bytes" => {
                number(&flag, &mut value).map(|n| opts.store_budget_bytes = n)
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => Err(format!("unknown serve flag `{other}`")),
        };
        if let Err(msg) = parsed {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    let server = Server::bind(&addr, opts).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // The smoke harness greps this line for the resolved ephemeral port.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = server.run();
    println!("daemon drained; server-level counters:");
    print!("{}", report.summary_table());
    std::process::exit(0);
}

/// Runs `aceso submit` and exits: 0 on success, 1 on a server-side
/// failure, 2 on bad usage.
fn run_submit(mut it: impl Iterator<Item = String>) -> ! {
    let mut addr: Option<String> = None;
    // Submit's defaults: the wire's 48 iterations, no wall-clock budget.
    let mut req = Request::default();
    let mut plan_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    let mut retries = 0usize;
    let mut retry_deadline: Option<Duration> = None;
    let mut stats = false;
    let mut do_shutdown = false;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parsed = match flag.as_str() {
            "--addr" => value("--addr").map(|v| addr = Some(v)),
            "--iterations" => number(&flag, &mut value).map(|i| req.max_iterations = i),
            "--seed" => number(&flag, &mut value).map(|s| req.seed = s),
            "--request-id" => value("--request-id").map(|v| req.request_id = Some(v)),
            "--retries" => number(&flag, &mut value).map(|n| retries = n),
            "--retry-deadline-secs" => {
                number(&flag, &mut value).map(|s| retry_deadline = Some(Duration::from_secs(s)))
            }
            "--plan-out" => value("--plan-out").map(|v| {
                req.plan = true;
                plan_out = Some(v);
            }),
            "--metrics-out" => value("--metrics-out").map(|v| metrics_out = Some(v)),
            "--events-out" => value("--events-out").map(|v| events_out = Some(v)),
            "--stats" => {
                stats = true;
                Ok(())
            }
            "--shutdown" => {
                do_shutdown = true;
                Ok(())
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => parse_search_flag(&mut req, other, &mut value)
                .unwrap_or_else(|| Err(format!("unknown submit flag `{other}`"))),
        };
        if let Err(msg) = parsed {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: submit requires --addr\n\n{USAGE}");
        std::process::exit(2);
    };
    if do_shutdown {
        match serve::shutdown(&addr) {
            Ok(()) => {
                println!("daemon at {addr} is draining");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if stats {
        match serve::server_stats(&addr) {
            Ok(metrics) => {
                println!("{}", metrics.to_string_pretty());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if req.model.is_empty() {
        eprintln!("error: submit requires --model (or --stats/--shutdown)\n\n{USAGE}");
        std::process::exit(2);
    }

    eprintln!("submitting {} to {addr}...", req.model);
    let resp = match serve::submit_with_retries(&addr, &req, retries, retry_deadline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let field_f64 = |name: &str| resp.result.get(name).and_then(|v| v.as_f64().ok());
    let field_u64 = |name: &str| resp.result.get(name).and_then(|v| v.as_u64().ok());
    println!(
        "served search: profile cache {}, explored {} configurations",
        resp.cache,
        field_u64("explored").unwrap_or(0),
    );
    println!(
        "best predicted iteration {:.3} s over {} stages ({})",
        field_f64("best_time").unwrap_or(f64::NAN),
        field_u64("stages").unwrap_or(0),
        if resp
            .result
            .get("best_oom")
            .and_then(|v| v.as_bool().ok())
            .unwrap_or(false)
        {
            "OOM"
        } else {
            "fits"
        },
    );
    let write_out = |path: &Option<String>, contents: String, what: &str| {
        if let Some(path) = path {
            std::fs::write(path, contents).unwrap_or_else(|e| {
                eprintln!("error writing {path}: {e}");
                std::process::exit(1);
            });
            println!("wrote {what} to {path}");
        }
    };
    write_out(&metrics_out, resp.metrics_json(), "metrics snapshot");
    write_out(&events_out, resp.events_jsonl(), "event stream");
    if let Some(path) = &plan_out {
        match &resp.plan {
            Some(plan) => write_out(
                &Some(path.clone()),
                plan.to_string_pretty(),
                "execution plan",
            ),
            None => eprintln!("note: no execution plan returned (best configuration is OOM)"),
        }
    }
    std::process::exit(0);
}

/// Runs `aceso obs-diff A.json B.json` and exits: 0 on a rendered diff,
/// 2 on schema mismatch or unreadable input.
fn run_obs_diff(mut it: impl Iterator<Item = String>) -> ! {
    let (Some(path_a), Some(path_b)) = (it.next(), it.next()) else {
        eprintln!("error: obs-diff needs two snapshot files\n\n{USAGE}");
        std::process::exit(2);
    };
    if let Some(extra) = it.next() {
        eprintln!("error: unexpected obs-diff argument `{extra}`\n\n{USAGE}");
        std::process::exit(2);
    }
    let load = |path: &str| -> Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error reading {path}: {e}");
            std::process::exit(2);
        });
        Value::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let (a, b) = (load(&path_a), load(&path_b));
    match aceso::obs::render_diff(&a, &b) {
        Ok(rendered) => {
            print!("{rendered}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        // Search's defaults: a 30 s wall-clock budget over up to 10,000
        // iterations per stage count.
        req: Request {
            max_iterations: 10_000,
            budget_secs: Some(30),
            ..Request::default()
        },
        plan_out: None,
        metrics: true,
        metrics_out: None,
        events_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        if let Some(parsed) = parse_search_flag(&mut args.req, &flag, &mut value) {
            parsed?;
            continue;
        }
        match flag.as_str() {
            "--plan-out" => args.plan_out = Some(value("--plan-out")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--events-out" => args.events_out = Some(value("--events-out")?),
            "--no-metrics" => args.metrics = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.req.model.is_empty() {
        return Err("missing --model".into());
    }
    if !args.metrics && (args.metrics_out.is_some() || args.events_out.is_some()) {
        return Err(
            "--no-metrics disables the recorder, so --metrics-out/--events-out would \
             write empty files; drop one side of the conflict"
                .into(),
        );
    }
    Ok(args)
}

/// Runs `aceso chaos (run|replay)` and exits: 0 when every scenario
/// passed its standing oracles, 1 on an oracle violation (`run` also
/// writes the shrunk replayable trace), 2 on bad usage.
fn run_chaos(mut it: impl Iterator<Item = String>) -> ! {
    let action = match it.next().as_deref() {
        Some(a @ ("run" | "replay")) => a.to_string(),
        Some("--help" | "-h") => {
            eprintln!("{USAGE}");
            std::process::exit(0);
        }
        None => {
            eprintln!("error: chaos needs an action (run | replay)\n\n{USAGE}");
            std::process::exit(2);
        }
        Some(other) => {
            eprintln!("error: unknown chaos action `{other}`\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut opts = aceso::chaos::ChaosOptions::in_temp("cli");
    if action == "replay" {
        let Some(file) = it.next() else {
            eprintln!("error: chaos replay requires a trace file\n\n{USAGE}");
            std::process::exit(2);
        };
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
            eprintln!("error: cannot read {file}: {e}");
            std::process::exit(2);
        });
        let trace = aceso::chaos::Trace::from_json_str(&text).unwrap_or_else(|e| {
            eprintln!("error: {file} is not a chaos trace: {e}");
            std::process::exit(2);
        });
        // A mutant trace replays with the mutation gate it was recorded
        // under — the switch travels in the schedule, not the CLI.
        let engine = aceso::chaos::Engine::new(opts.clone()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let outcome = engine.run_schedule(&trace.schedule);
        let _ = std::fs::remove_dir_all(&opts.root);
        if outcome.violations.is_empty() {
            println!(
                "trace {file} (seed {}, {} scheduled faults): no oracle violation reproduced",
                trace.schedule.seed,
                trace.schedule.fault_count()
            );
            std::process::exit(0);
        }
        println!(
            "trace {file} (seed {}, {} scheduled faults) reproduces {} violation(s):",
            trace.schedule.seed,
            trace.schedule.fault_count(),
            outcome.violations.len()
        );
        for v in &outcome.violations {
            println!("  {v}");
        }
        std::process::exit(1);
    }
    let mut seed_range: Option<(u64, u64)> = None;
    let mut trace_out = "chaos-trace.json".to_string();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parsed = match flag.as_str() {
            "--seed-range" => value("--seed-range").and_then(|v| {
                let parts: Vec<&str> = v.splitn(2, "..").collect();
                match parts.as_slice() {
                    [a, b] => match (a.parse::<u64>(), b.parse::<u64>()) {
                        (Ok(a), Ok(b)) if a < b => {
                            seed_range = Some((a, b));
                            Ok(())
                        }
                        _ => Err(format!("--seed-range: `{v}` is not A..B with A < B")),
                    },
                    _ => Err(format!("--seed-range: `{v}` is not A..B")),
                }
            }),
            "--mutate" => value("--mutate").and_then(|v| match v.as_str() {
                "store-direct-write" => {
                    opts.mutate_direct_writes = true;
                    Ok(())
                }
                other => Err(format!(
                    "--mutate: unknown mutation `{other}` (expected store-direct-write)"
                )),
            }),
            "--trace-out" => value("--trace-out").map(|v| trace_out = v),
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown chaos flag `{other}`\n\n{USAGE}");
                std::process::exit(2);
            }
        };
        if let Err(msg) = parsed {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    let Some((first, last)) = seed_range else {
        eprintln!("error: chaos run requires --seed-range A..B\n\n{USAGE}");
        std::process::exit(2);
    };
    let engine = aceso::chaos::Engine::new(opts.clone()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let report = engine.run_range(first, last);
    let _ = std::fs::remove_dir_all(&opts.root);
    let by_kind: Vec<String> = report
        .report
        .metrics()
        .keyed(Family::ChaosFaultsInjected)
        .iter()
        .map(|(kind, n)| format!("{kind}={n}"))
        .collect();
    println!(
        "chaos: {} scenario(s), {} fault(s) injected [{}]",
        report.runs,
        report.faults_injected,
        by_kind.join(" ")
    );
    match report.failure {
        None => {
            println!("chaos: no oracle violations in seeds {first}..{last}");
            std::process::exit(0);
        }
        Some(trace) => {
            println!(
                "chaos: seed {} violated {} oracle(s); shrunk to {} scheduled fault(s):",
                trace.schedule.seed,
                trace.violations.len(),
                trace.schedule.fault_count()
            );
            for v in &trace.violations {
                println!("  {v}");
            }
            if let Err(e) = std::fs::write(&trace_out, trace.to_json_string()) {
                eprintln!("error: cannot write trace to {trace_out}: {e}");
            } else {
                println!("chaos: replayable trace written to {trace_out}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("audit") => {
            argv.next();
            run_audit(argv);
        }
        Some("serve") => {
            argv.next();
            run_serve(argv);
        }
        Some("store") => {
            argv.next();
            run_store(argv);
        }
        Some("submit") => {
            argv.next();
            run_submit(argv);
        }
        Some("obs-diff") => {
            argv.next();
            run_obs_diff(argv);
        }
        Some("chaos") => {
            argv.next();
            run_chaos(argv);
        }
        // `aceso search` is the explicit form of the default command.
        Some("search") => {
            argv.next();
        }
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{USAGE}");
            std::process::exit(if msg.is_empty() { 0 } else { 2 });
        }
    };
    let Some(model) = zoo::by_name(&args.req.model) else {
        eprintln!("error: unknown model `{}`\n\n{USAGE}", args.req.model);
        std::process::exit(2);
    };

    let cluster = ClusterSpec::v100_gpus(args.req.gpus);
    eprintln!(
        "model {} ({} ops, {:.2} B params) on {} simulated V100-32GB",
        model.name,
        model.len(),
        model.total_params() as f64 / 1e9,
        cluster.total_gpus()
    );
    eprintln!("profiling operators...");
    let db = ProfileDb::build(&model, &cluster);

    match args.req.budget_secs {
        Some(secs) => eprintln!("searching ({secs} s budget)..."),
        None => eprintln!("searching..."),
    }
    let search = AcesoSearch::new(&model, &cluster, &db, args.req.search_options());
    let (result, mut obs) = match search.run_observed(args.metrics) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "explored {} configurations in {:.1?}; best found:",
        result.explored, result.wall_time
    );
    print!(
        "{}",
        aceso::config::describe(&result.best_config, Some(&model))
    );

    let sim_rec = Recorder::new(args.metrics);
    let report = Simulator::with_defaults(&model, &cluster, &db)
        .execute_observed(&result.best_config, &sim_rec)
        .expect("searched configs execute");
    obs.absorb(sim_rec);
    println!(
        "predicted iteration {:.3} s | simulated {:.3} s | {:.1} samples/s | \
         {:.1} TFLOPS/GPU | peak mem {:.1} GB ({})",
        result.best_time,
        report.iteration_time,
        report.throughput,
        report.tflops_per_gpu,
        report.peak_memory as f64 / 1e9,
        if report.ok() { "fits" } else { "OOM" },
    );

    if args.metrics {
        print!("{}", obs.summary_table());
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, obs.metrics_json()).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = &args.events_out {
        std::fs::write(path, obs.events_jsonl()).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote event stream to {path}");
    }

    if let Some(path) = args.plan_out {
        let plan = ExecutionPlan::build(&model, &cluster, &result.best_config)
            .expect("valid config yields a plan");
        std::fs::write(&path, plan.to_json()).unwrap_or_else(|e| {
            eprintln!("error writing {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote execution plan to {path}");
    }
}
