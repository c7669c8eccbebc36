//! Cross-run metric-snapshot diffing (`aceso obs-diff`).
//!
//! Two metric snapshots written by [`crate::ObsReport::metrics_json`]
//! can be compared field-for-field: counter deltas (including the keyed
//! `primitives_applied` family) and histogram shifts (count, mean,
//! min/max) render as review-friendly tables. Snapshots with different
//! `schema_version`s refuse to diff — counter meanings may have changed
//! between versions, so a silent cross-version diff would lie.

use crate::metrics::Family;
use aceso_util::json::Value;
use aceso_util::table::Table;

/// Why two snapshots could not be diffed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The snapshots carry different `schema_version`s (left, right).
    SchemaMismatch(u64, u64),
    /// A snapshot is structurally not a metrics document.
    Malformed(String),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::SchemaMismatch(a, b) => write!(
                f,
                "schema_version mismatch: {a} vs {b} — counters may have \
                 changed meaning between versions; refusing to diff. See \
                 the \"Schema history\" notes in docs/OBSERVABILITY.md \
                 for what changed in each version"
            ),
            DiffError::Malformed(msg) => write!(f, "malformed metrics snapshot: {msg}"),
        }
    }
}

impl std::error::Error for DiffError {}

fn version_of(v: &Value, side: &str) -> Result<u64, DiffError> {
    v.field("schema_version")
        .and_then(|f| f.as_u64())
        .map_err(|e| DiffError::Malformed(format!("{side}: schema_version: {e}")))
}

/// All `name → uint` pairs of an object field, empty when absent.
fn uint_entries(v: &Value, field: &str) -> Vec<(String, u64)> {
    match v.get(field) {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(k, v)| v.as_u64().ok().map(|n| (k.clone(), n)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Union of both sides' keys, left order first, right-only keys after.
fn key_union(a: &[(String, u64)], b: &[(String, u64)]) -> Vec<String> {
    let mut keys: Vec<String> = a.iter().map(|(k, _)| k.clone()).collect();
    for (k, _) in b {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }
    keys
}

fn lookup(entries: &[(String, u64)], key: &str) -> Option<u64> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.to_string())
}

fn fmt_delta(a: Option<u64>, b: Option<u64>) -> String {
    match (a, b) {
        (Some(a), Some(b)) => {
            let d = b as i128 - a as i128;
            if d == 0 {
                String::new()
            } else {
                format!("{d:+}")
            }
        }
        _ => "±?".to_string(),
    }
}

/// Float stats of one histogram snapshot.
#[derive(Debug, Clone, Copy, Default)]
struct HistStats {
    count: u64,
    mean: f64,
}

fn hist_stats(v: &Value, name: &str) -> Option<HistStats> {
    let h = v.get("histograms")?.get(name)?;
    let count = h.get("count")?.as_u64().ok()?;
    let sum = h.get("sum")?.as_f64().ok()?;
    Some(HistStats {
        count,
        mean: if count == 0 { 0.0 } else { sum / count as f64 },
    })
}

/// Renders the counter + histogram diff between two parsed snapshots.
///
/// Counter rows cover the union of both sides' `counters` and
/// `primitives_applied` keys; unchanged counters are summarised in one
/// trailing line instead of listed. Returns [`DiffError::SchemaMismatch`]
/// when the snapshots' `schema_version`s differ.
pub fn render_diff(a: &Value, b: &Value) -> Result<String, DiffError> {
    let va = version_of(a, "left")?;
    let vb = version_of(b, "right")?;
    if va != vb {
        return Err(DiffError::SchemaMismatch(va, vb));
    }

    let mut out = String::new();
    let mut counters = Table::new(
        format!("counter deltas (schema_version {va})"),
        &["counter", "left", "right", "delta"],
    );
    let mut unchanged = 0usize;
    let families = Family::ALL.map(|f| (f.name(), f.label()));
    for (field, prefix) in std::iter::once(("counters", "")).chain(families) {
        let left = uint_entries(a, field);
        let right = uint_entries(b, field);
        for key in key_union(&left, &right) {
            let la = lookup(&left, &key);
            let rb = lookup(&right, &key);
            if la == rb {
                unchanged += 1;
                continue;
            }
            let label = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}[{key}]")
            };
            counters.row(&[label, fmt_opt(la), fmt_opt(rb), fmt_delta(la, rb)]);
        }
    }
    if counters.is_empty() {
        out.push_str(&format!(
            "no counter drift ({unchanged} counters identical, schema_version {va})\n"
        ));
    } else {
        out.push_str(&counters.render());
        out.push_str(&format!("({unchanged} counters unchanged)\n"));
    }

    let hist_names: Vec<String> = match (a.get("histograms"), b.get("histograms")) {
        (Some(Value::Object(ha)), Some(Value::Object(hb))) => {
            let la: Vec<(String, u64)> = ha.iter().map(|(k, _)| (k.clone(), 0)).collect();
            let lb: Vec<(String, u64)> = hb.iter().map(|(k, _)| (k.clone(), 0)).collect();
            key_union(&la, &lb)
        }
        _ => Vec::new(),
    };
    let mut hists = Table::new(
        "histogram shift",
        &["histogram", "count", "mean", "mean shift"],
    );
    for name in hist_names {
        let sa = hist_stats(a, &name).unwrap_or_default();
        let sb = hist_stats(b, &name).unwrap_or_default();
        if sa.count == 0 && sb.count == 0 {
            continue;
        }
        let shift = if sa.mean == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (sb.mean / sa.mean - 1.0) * 100.0)
        };
        hists.row(&[
            name,
            format!("{} -> {}", sa.count, sb.count),
            format!("{:.3} -> {:.3}", sa.mean, sb.mean),
            shift,
        ]);
    }
    if !hists.is_empty() {
        out.push('\n');
        out.push_str(&hists.render());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, HistKind};
    use crate::recorder::Recorder;
    use crate::report::ObsReport;

    fn snapshot(evals: u64, latency: Option<f64>) -> Value {
        let rec = Recorder::new(true);
        rec.add(Counter::PerfEvaluations, evals);
        rec.add(Counter::PerfFullEvals, evals);
        rec.count_keyed(Family::PrimitivesApplied, "inc-dp", 2);
        if let Some(v) = latency {
            rec.observe(HistKind::EvalLatencyUs, v);
        }
        let mut report = ObsReport::new();
        report.absorb(rec);
        report.metrics_value()
    }

    #[test]
    fn identical_snapshots_report_no_drift() {
        let a = snapshot(5, None);
        let out = render_diff(&a, &a).expect("diffs");
        assert!(out.contains("no counter drift"), "{out}");
    }

    #[test]
    fn counter_deltas_are_signed() {
        let a = snapshot(5, None);
        let b = snapshot(9, None);
        let out = render_diff(&a, &b).expect("diffs");
        assert!(out.contains("perf_evaluations"), "{out}");
        assert!(out.contains("+4"), "{out}");
        // Unchanged primitive counts are summarised, not listed.
        assert!(!out.contains("primitive[inc-dp]"), "{out}");
        assert!(out.contains("counters unchanged"), "{out}");
    }

    #[test]
    fn histogram_shift_reports_counts_and_means() {
        let a = snapshot(5, Some(10.0));
        let b = snapshot(5, Some(20.0));
        let out = render_diff(&a, &b).expect("diffs");
        assert!(out.contains("eval_latency_us"), "{out}");
        assert!(out.contains("1 -> 1"), "{out}");
        assert!(out.contains("+100.0%"), "{out}");
    }

    #[test]
    fn schema_mismatch_refuses_to_diff() {
        let a = snapshot(5, None);
        let mut b = snapshot(5, None);
        if let Value::Object(fields) = &mut b {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Value::UInt(1);
                }
            }
        }
        match render_diff(&a, &b) {
            Err(DiffError::SchemaMismatch(_, 1)) => {}
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_keys_render_as_dash() {
        let a = snapshot(5, None);
        let mut b = snapshot(5, None);
        // Drop one side's primitive family entirely.
        if let Value::Object(fields) = &mut b {
            fields.retain(|(k, _)| k != "primitives_applied");
        }
        // Also bump a counter so the table renders.
        let out = render_diff(&a, &b).expect("diffs");
        assert!(out.contains("primitive[inc-dp]"), "{out}");
        assert!(out.contains('-'), "{out}");
    }
}
