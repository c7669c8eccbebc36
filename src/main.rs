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
use aceso::obs::{ObsReport, Recorder};
use aceso::prelude::*;
use aceso::runtime::ExecutionPlan;
use aceso::search::{SearchCheckpoint, SearchResult, SearchStep};
use aceso::serve::{self, Request, ServeOptions, Server};
use aceso::util::json::Value;
use aceso_audit::AuditOptions;
use std::time::Duration;

/// Parsed command-line options.
struct Args {
    model: String,
    gpus: usize,
    budget_secs: u64,
    stages: Option<usize>,
    zero: bool,
    plan_out: Option<String>,
    metrics: bool,
    metrics_out: Option<String>,
    events_out: Option<String>,
    checkpoint: Option<String>,
    resume: Option<String>,
    checkpoint_every: usize,
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
            "--epsilon" => value("--epsilon").and_then(|v| {
                v.parse()
                    .map(|e| opts.epsilon = e)
                    .map_err(|e| format!("--epsilon: {e}"))
            }),
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
            rec.count_audit_finding(rule, n as u64);
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
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|n| opts.workers = n)
                    .map_err(|e| format!("--workers: {e}"))
            }),
            "--cache-mb" => value("--cache-mb").and_then(|v| {
                v.parse::<u64>()
                    .map(|m| opts.cache_bytes = m << 20)
                    .map_err(|e| format!("--cache-mb: {e}"))
            }),
            "--max-budget-secs" => value("--max-budget-secs").and_then(|v| {
                v.parse::<u64>()
                    .map(|s| opts.max_budget_secs = (s > 0).then_some(s))
                    .map_err(|e| format!("--max-budget-secs: {e}"))
            }),
            "--max-gpus" => value("--max-gpus").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| opts.max_gpus = (n > 0).then_some(n))
                    .map_err(|e| format!("--max-gpus: {e}"))
            }),
            "--max-iterations" => value("--max-iterations").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| opts.max_iterations = (n > 0).then_some(n))
                    .map_err(|e| format!("--max-iterations: {e}"))
            }),
            "--max-deepnet-layers" => value("--max-deepnet-layers").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| opts.max_deepnet_layers = (n > 0).then_some(n))
                    .map_err(|e| format!("--max-deepnet-layers: {e}"))
            }),
            "--io-timeout-secs" => value("--io-timeout-secs").and_then(|v| {
                v.parse::<u64>()
                    .map(|s| opts.io_timeout = (s > 0).then(|| Duration::from_secs(s)))
                    .map_err(|e| format!("--io-timeout-secs: {e}"))
            }),
            "--spool-dir" => {
                value("--spool-dir").map(|v| opts.spool_dir = Some(std::path::PathBuf::from(v)))
            }
            "--checkpoint-every" => value("--checkpoint-every").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| opts.checkpoint_every = n.max(1))
                    .map_err(|e| format!("--checkpoint-every: {e}"))
            }),
            "--spool-ttl-secs" => value("--spool-ttl-secs").and_then(|v| {
                v.parse::<u64>()
                    .map(|s| opts.spool_ttl_secs = (s > 0).then_some(s))
                    .map_err(|e| format!("--spool-ttl-secs: {e}"))
            }),
            "--reactor" => {
                opts.reactor = true;
                Ok(())
            }
            "--max-connections" => value("--max-connections").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| opts.max_connections = n)
                    .map_err(|e| format!("--max-connections: {e}"))
            }),
            "--store-dir" => {
                value("--store-dir").map(|v| opts.store_dir = Some(std::path::PathBuf::from(v)))
            }
            "--store-budget-bytes" => value("--store-budget-bytes").and_then(|v| {
                v.parse::<u64>()
                    .map(|n| opts.store_budget_bytes = n)
                    .map_err(|e| format!("--store-budget-bytes: {e}"))
            }),
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
    let mut req = Request::default();
    let mut plan_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    let mut retries = 0usize;
    let mut retry_deadline: Option<std::time::Duration> = None;
    let mut stats = false;
    let mut do_shutdown = false;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let parsed = match flag.as_str() {
            "--addr" => value("--addr").map(|v| addr = Some(v)),
            "--model" => value("--model").map(|v| req.model = v),
            "--gpus" => value("--gpus").and_then(|v| {
                v.parse()
                    .map(|n| req.gpus = n)
                    .map_err(|e| format!("--gpus: {e}"))
            }),
            "--stages" => value("--stages").and_then(|v| {
                v.parse()
                    .map(|p| req.stages = Some(p))
                    .map_err(|e| format!("--stages: {e}"))
            }),
            "--zero" => {
                req.zero = true;
                Ok(())
            }
            "--iterations" => value("--iterations").and_then(|v| {
                v.parse()
                    .map(|i| req.max_iterations = i)
                    .map_err(|e| format!("--iterations: {e}"))
            }),
            "--budget-secs" => value("--budget-secs").and_then(|v| {
                v.parse()
                    .map(|s| req.budget_secs = Some(s))
                    .map_err(|e| format!("--budget-secs: {e}"))
            }),
            "--seed" => value("--seed").and_then(|v| {
                v.parse()
                    .map(|s| req.seed = s)
                    .map_err(|e| format!("--seed: {e}"))
            }),
            "--request-id" => value("--request-id").map(|v| req.request_id = Some(v)),
            "--retries" => value("--retries").and_then(|v| {
                v.parse()
                    .map(|n| retries = n)
                    .map_err(|e| format!("--retries: {e}"))
            }),
            "--retry-deadline-secs" => value("--retry-deadline-secs").and_then(|v| {
                v.parse::<u64>()
                    .map(|s| retry_deadline = Some(std::time::Duration::from_secs(s)))
                    .map_err(|e| format!("--retry-deadline-secs: {e}"))
            }),
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
            other => Err(format!("unknown submit flag `{other}`")),
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
    let resp = match serve::submit_with_retries_deadline(&addr, &req, retries, retry_deadline) {
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
        model: String::new(),
        gpus: 8,
        budget_secs: 30,
        stages: None,
        zero: false,
        plan_out: None,
        metrics: true,
        metrics_out: None,
        events_out: None,
        checkpoint: None,
        resume: None,
        checkpoint_every: 32,
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--model" => args.model = value("--model")?,
            "--gpus" => {
                args.gpus = value("--gpus")?
                    .parse()
                    .map_err(|e| format!("--gpus: {e}"))?
            }
            "--budget-secs" => {
                args.budget_secs = value("--budget-secs")?
                    .parse()
                    .map_err(|e| format!("--budget-secs: {e}"))?
            }
            "--stages" => {
                args.stages = Some(
                    value("--stages")?
                        .parse()
                        .map_err(|e| format!("--stages: {e}"))?,
                )
            }
            "--zero" => args.zero = true,
            "--plan-out" => args.plan_out = Some(value("--plan-out")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--events-out" => args.events_out = Some(value("--events-out")?),
            "--no-metrics" => args.metrics = false,
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--resume" => args.resume = Some(value("--resume")?),
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")?
                    .parse::<usize>()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
                    .max(1)
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.model.is_empty() {
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

/// Atomically replaces `path` with the serialised checkpoint: write a
/// sibling temp file, then rename over the target, so a kill mid-write
/// leaves the previous complete snapshot instead of a torn file.
fn write_checkpoint(path: &str, ckpt: &SearchCheckpoint) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    aceso::util::fsio::write_atomic(
        &aceso::util::fsio::RealFs,
        path.as_ref(),
        tmp.as_ref(),
        ckpt.to_json_string().as_bytes(),
    )
}

/// Loads `--resume FILE`, degrading gracefully: a missing, corrupt,
/// foreign-schema, or incompatible checkpoint warns on stderr and the
/// search starts fresh — resuming is an optimisation, never a gate.
fn load_resume(search: &AcesoSearch<'_>, path: &str, metrics: bool) -> Option<SearchCheckpoint> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("warning: cannot read checkpoint {path}: {e}; searching from scratch");
            return None;
        }
    };
    let loaded = SearchCheckpoint::from_json_str(&text)
        .and_then(|c| search.checkpoint_compatible(&c, metrics).map(|()| c));
    match loaded {
        Ok(ckpt) => {
            eprintln!(
                "resuming from {path}: {} iterations ({:.2} s of search) already done",
                ckpt.iterations_done(),
                ckpt.elapsed_secs()
            );
            Some(ckpt)
        }
        Err(e) => {
            eprintln!("warning: checkpoint {path} is unusable ({e}); searching from scratch");
            None
        }
    }
}

/// Runs the search honouring `--resume` / `--checkpoint`: resume state
/// is loaded first (if any), and when `--checkpoint FILE` is given the
/// search runs in slices of `--checkpoint-every` iterations, spooling an
/// atomic snapshot at each pause. Checkpointing never changes the result
/// — a resumed or sliced run is bit-identical to an uninterrupted one
/// (`tests/checkpoint_resume.rs`).
fn run_checkpointed(
    search: &AcesoSearch<'_>,
    args: &Args,
) -> Result<(SearchResult, ObsReport), String> {
    let resumed = args
        .resume
        .as_deref()
        .and_then(|path| load_resume(search, path, args.metrics));
    let Some(out_path) = args.checkpoint.as_deref() else {
        // No spooling requested: run (or finish) in one go.
        return match resumed {
            Some(ckpt) => search
                .resume_from(args.metrics, &ckpt)
                .map_err(|e| e.to_string()),
            None => search.run_observed(args.metrics).map_err(|e| e.to_string()),
        };
    };
    let every = args.checkpoint_every;
    let mut bound;
    let mut step = match resumed {
        Some(ckpt) => {
            bound = ckpt.resume_bound() + every;
            search
                .resume_partial(args.metrics, &ckpt, Some(bound))
                .map_err(|e| e.to_string())?
        }
        None => {
            bound = every;
            search
                .run_partial(args.metrics, bound)
                .map_err(|e| e.to_string())?
        }
    };
    let mut written = 0usize;
    loop {
        match step {
            SearchStep::Done(result, report) => {
                // The run completed; the spool has served its purpose.
                let _ = std::fs::remove_file(out_path);
                if written > 0 {
                    eprintln!("wrote {written} checkpoints to {out_path} (removed on completion)");
                }
                return Ok((result, report));
            }
            SearchStep::Paused(ckpt) => {
                if let Err(e) = write_checkpoint(out_path, &ckpt) {
                    eprintln!("warning: cannot write checkpoint {out_path}: {e}");
                } else {
                    written += 1;
                }
                bound += every;
                step = search
                    .resume_partial(args.metrics, &ckpt, Some(bound))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
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
        .chaos_faults()
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
    let Some(model) = zoo::by_name(&args.model) else {
        eprintln!("error: unknown model `{}`\n\n{USAGE}", args.model);
        std::process::exit(2);
    };

    let cluster = ClusterSpec::v100_gpus(args.gpus);
    eprintln!(
        "model {} ({} ops, {:.2} B params) on {} simulated V100-32GB",
        model.name,
        model.len(),
        model.total_params() as f64 / 1e9,
        cluster.total_gpus()
    );
    eprintln!("profiling operators...");
    let db = ProfileDb::build(&model, &cluster);

    let mut options = SearchOptions {
        max_iterations: 10_000,
        time_budget: Some(Duration::from_secs(args.budget_secs)),
        stage_counts: args.stages.map(|p| vec![p]),
        ..SearchOptions::default()
    };
    options.gen_options.enable_zero = args.zero;

    eprintln!("searching ({} s budget)...", args.budget_secs);
    let search = AcesoSearch::new(&model, &cluster, &db, options);
    let (result, mut obs) = match run_checkpointed(&search, &args) {
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
