//! Analyzer 4: search-trace replay.
//!
//! Runs a short deterministic search per corpus sample and re-proves the
//! search invariants from its trace: the best score is monotone
//! non-increasing, hop depths respect the `MaxHops` bound (plus the §4.3
//! bundling allowance), no configuration is accepted twice, and every
//! accepted configuration re-validates and re-estimates to its recorded
//! score. Works equally on externally supplied [`SearchResult`]s.

use crate::corpus::CorpusSample;
use crate::report::{AuditFinding, AuditReport, Severity};
use aceso_core::{AcesoSearch, SearchOptions, SearchResult, SearchTrace};
use aceso_perf::PerfModel;
use std::collections::HashSet;

fn finding(
    rule: &'static str,
    location: String,
    message: String,
    fingerprint: u64,
) -> AuditFinding {
    AuditFinding {
        rule,
        severity: Severity::Error,
        location,
        message,
        fingerprint,
    }
}

/// Audits one stage-count trace.
fn audit_trace(sample: &CorpusSample, trace: &SearchTrace, eps: f64, report: &mut AuditReport) {
    let loc = format!("{}/trace-p{}", sample.label, trace.stage_count);
    let pm = PerfModel::new(&sample.model, &sample.cluster, &sample.db);

    // Shape: one convergence point per iteration, one accepted
    // configuration per improving iteration.
    let improved = trace.iterations.iter().filter(|r| r.improved).count();
    report.tick(2);
    if trace.convergence.len() != trace.iterations.len() {
        report.push(finding(
            "TRACE-SHAPE",
            loc.clone(),
            format!(
                "{} convergence points for {} iterations",
                trace.convergence.len(),
                trace.iterations.len()
            ),
            0,
        ));
    }
    if trace.accepted.len() != improved {
        report.push(finding(
            "TRACE-SHAPE",
            loc.clone(),
            format!(
                "{} accepted configurations for {improved} improving iterations",
                trace.accepted.len()
            ),
            0,
        ));
    }

    // Monotonicity: best score never rises, never exceeds the initial
    // score, and the curve ends at the running minimum.
    let mut prev = trace.initial_score;
    for (k, pt) in trace.convergence.iter().enumerate() {
        report.tick(1);
        if pt.best_score > prev + eps {
            report.push(finding(
                "TRACE-MONO",
                loc.clone(),
                format!(
                    "best score rose from {prev:.6e} to {:.6e} at iteration {k}",
                    pt.best_score
                ),
                0,
            ));
        }
        prev = pt.best_score;
    }
    if let Some(last) = trace.convergence.last() {
        let want = trace
            .accepted
            .iter()
            .map(|a| a.score)
            .fold(trace.initial_score, f64::min);
        report.tick(1);
        if (last.best_score - want).abs() > eps * want.abs().max(1.0) {
            report.push(finding(
                "TRACE-MONO",
                loc.clone(),
                format!(
                    "final best score {:.6e} != running minimum {want:.6e}",
                    last.best_score
                ),
                0,
            ));
        }
    }
    let mut prev_explored = 0usize;
    for pt in &trace.convergence {
        report.tick(1);
        if pt.explored < prev_explored {
            report.push(finding(
                "TRACE-MONO",
                loc.clone(),
                "explored counter went backwards".into(),
                0,
            ));
        }
        prev_explored = pt.explored;
    }

    // Hop bound: a hit found at depth < MaxHops may bundle a relay chain
    // (≤ stage_count − 1 moves) plus one attached recompute fix-up.
    let hop_bound = trace.max_hops.saturating_sub(1) + trace.stage_count;
    for (k, it) in trace.iterations.iter().enumerate() {
        report.tick(2);
        if it.improved && (it.hops_used == 0 || it.hops_used > hop_bound) {
            report.push(finding(
                "TRACE-HOPS",
                loc.clone(),
                format!(
                    "iteration {k} used {} hops (bound {hop_bound}, max_hops {})",
                    it.hops_used, trace.max_hops
                ),
                0,
            ));
        }
        if !it.improved && it.hops_used != 0 {
            report.push(finding(
                "TRACE-HOPS",
                loc.clone(),
                format!("non-improving iteration {k} reports {} hops", it.hops_used),
                0,
            ));
        }
    }

    // Acceptance: unique fingerprints, each re-validating and re-scoring
    // to the recorded value.
    let mut seen: HashSet<u64> = HashSet::new();
    for (k, acc) in trace.accepted.iter().enumerate() {
        report.tick(4);
        if !seen.insert(acc.fingerprint) {
            report.push(finding(
                "TRACE-DUP",
                loc.clone(),
                format!("configuration accepted twice (acceptance {k})"),
                acc.fingerprint,
            ));
        }
        if acc.config.semantic_hash() != acc.fingerprint {
            report.push(finding(
                "TRACE-REVALID",
                loc.clone(),
                format!("acceptance {k}: fingerprint does not match the configuration"),
                acc.fingerprint,
            ));
        }
        if let Err(e) =
            aceso_config::validate::validate(&acc.config, &sample.model, &sample.cluster)
        {
            report.push(finding(
                "TRACE-REVALID",
                loc.clone(),
                format!("acceptance {k} fails validation: {e}"),
                acc.fingerprint,
            ));
            continue;
        }
        let rescore = pm.evaluate_unchecked(&acc.config).score();
        if (rescore - acc.score).abs() > eps * rescore.abs().max(1.0) {
            report.push(finding(
                "TRACE-REVALID",
                loc.clone(),
                format!(
                    "acceptance {k}: recorded score {:.6e}, re-estimate {rescore:.6e}",
                    acc.score
                ),
                acc.fingerprint,
            ));
        }
    }
}

/// Audits a finished [`SearchResult`]: result-level invariants plus every
/// per-stage-count trace.
pub fn audit_search_result(
    sample: &CorpusSample,
    result: &SearchResult,
    eps: f64,
    report: &mut AuditReport,
) {
    let loc = format!("{}/result", sample.label);
    report.tick(4);
    if result.top_configs.is_empty() {
        report.push(finding(
            "TRACE-RESULT",
            loc,
            "search result has no configurations".into(),
            0,
        ));
        return;
    }
    for w in result.top_configs.windows(2) {
        if w[0].score > w[1].score + eps {
            report.push(finding(
                "TRACE-RESULT",
                loc.clone(),
                "top configurations are not sorted by score".into(),
                w[1].config.semantic_hash(),
            ));
        }
    }
    let best = &result.top_configs[0];
    if result.best_config.semantic_hash() != best.config.semantic_hash()
        || result.best_time != best.iteration_time
        || result.best_oom != best.oom
    {
        report.push(finding(
            "TRACE-RESULT",
            loc.clone(),
            "best_config/best_time/best_oom disagree with the top entry".into(),
            best.config.semantic_hash(),
        ));
    }
    let traced: usize = result.traces.iter().map(|t| t.explored).sum();
    if result.explored != traced {
        report.push(finding(
            "TRACE-RESULT",
            loc.clone(),
            format!(
                "explored {} != sum of trace explored {traced}",
                result.explored
            ),
            0,
        ));
    }
    for sc in &result.top_configs {
        report.tick(1);
        if let Err(e) = aceso_config::validate::validate(&sc.config, &sample.model, &sample.cluster)
        {
            report.push(finding(
                "TRACE-REVALID",
                loc.clone(),
                format!("top configuration fails validation: {e}"),
                sc.config.semantic_hash(),
            ));
        }
    }
    for trace in &result.traces {
        audit_trace(sample, trace, eps, report);
    }
}

/// Runs a short deterministic search on the sample and audits its result.
pub fn audit_search(sample: &CorpusSample, smoke: bool, eps: f64, report: &mut AuditReport) {
    let mut options = SearchOptions {
        max_iterations: if smoke { 6 } else { 10 },
        top_k: 3,
        stage_counts: Some(if smoke { vec![2] } else { vec![2, 4] }),
        ..SearchOptions::default()
    };
    options.gen_options.enable_zero = true;
    let search = AcesoSearch::new(&sample.model, &sample.cluster, &sample.db, options);
    match search.run() {
        Ok(result) => audit_search_result(sample, &result, eps, report),
        Err(e) => report.push(finding(
            "TRACE-RESULT",
            format!("{}/result", sample.label),
            format!("audit search failed to run: {e}"),
            0,
        )),
    }
}
