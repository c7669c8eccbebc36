//! End-of-run aggregation: merged events + metrics, renderable as a
//! JSONL stream, a metric-snapshot JSON document, or a summary table.

use crate::event::Event;
use crate::metrics::{Counter, Family, HistKind, Metrics};
use crate::recorder::Recorder;
use crate::schema::SCHEMA_VERSION;
use aceso_util::json::Value;
use aceso_util::table::Table;

/// The merged observability output of one run.
///
/// Recorders are absorbed in whatever order the caller chooses; the
/// search absorbs its per-thread stage recorders sorted by stage count
/// so the merged stream is deterministic. `seq` numbers are assigned at
/// render time ([`ObsReport::events_jsonl`]), not at record time, so
/// thread scheduling can never leak into the stream.
#[derive(Debug, Default)]
pub struct ObsReport {
    events: Vec<Event>,
    metrics: Metrics,
    wall_time_secs: Option<f64>,
}

impl ObsReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes a recorder, appending its events and merging its
    /// metrics.
    pub fn absorb(&mut self, rec: Recorder) {
        let (events, metrics) = rec.into_parts();
        self.events.extend(events);
        self.metrics.merge(&metrics);
    }

    /// Records the run's wall-clock time (metrics snapshot only; never
    /// part of the event stream).
    pub fn set_wall_time(&mut self, secs: f64) {
        self.wall_time_secs = Some(secs);
    }

    /// The merged events, in absorbed order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The merged metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.metrics.counter(c)
    }

    /// Renders the event stream as JSONL: one compact object per line,
    /// `seq` assigned 0..n in stream order. Deterministic fields only —
    /// two identical seeded runs produce byte-identical output.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, e) in self.events.iter().enumerate() {
            let mut v = e.to_json_value();
            if let Value::Object(fields) = &mut v {
                fields.insert(0, ("seq".to_string(), Value::UInt(seq as u64)));
            }
            out.push_str(&v.to_string_compact());
            out.push('\n');
        }
        out
    }

    /// The metric snapshot as a JSON value: `schema_version`,
    /// `wall_time_secs` (null unless set), `counters`, each keyed
    /// [`Family`] (`primitives_applied`, `audit_findings`,
    /// `chaos_faults_injected`), and `histograms`.
    pub fn metrics_value(&self) -> Value {
        let mut fields = vec![
            ("schema_version".to_string(), Value::UInt(SCHEMA_VERSION)),
            (
                "wall_time_secs".to_string(),
                self.wall_time_secs.map_or(Value::Null, Value::Float),
            ),
            ("counters".to_string(), self.metrics.counters_json()),
        ];
        for f in Family::ALL {
            fields.push((f.name().to_string(), self.metrics.keyed_json(f)));
        }
        fields.push(("histograms".to_string(), self.metrics.histograms_json()));
        Value::Object(fields)
    }

    /// Renders [`ObsReport::metrics_value`] as a pretty JSON document.
    pub fn metrics_json(&self) -> String {
        let mut text = self.metrics_value().to_string_pretty();
        text.push('\n');
        text
    }

    /// Renders the human-readable end-of-run summary table.
    pub fn summary_table(&self) -> String {
        let mut t = Table::new("search observability summary", &["metric", "value"]);
        for c in Counter::ALL {
            t.row(&[c.name().to_string(), self.counter(c).to_string()]);
        }
        for f in Family::ALL {
            for (key, n) in self.metrics.keyed(f) {
                t.row(&[format!("{}[{key}]", f.label()), n.to_string()]);
            }
        }
        for h in HistKind::ALL {
            let hist = self.metrics.histogram(h);
            if hist.count() > 0 {
                t.row(&[format!("{} mean", h.name()), format!("{:.3}", hist.mean())]);
            }
        }
        t.row(&["events".to_string(), self.events.len().to_string()]);
        if let Some(w) = self.wall_time_secs {
            t.row(&["wall_time_secs".to_string(), format!("{w:.3}")]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ObsReport {
        let rec = Recorder::new(true);
        for e in Event::samples() {
            rec.emit(|| e.clone());
        }
        rec.add(Counter::PerfEvaluations, 10);
        rec.add(Counter::CandidatesGenerated, 4);
        rec.add(Counter::CandidatesAccepted, 1);
        rec.add(Counter::CandidatesRejected, 3);
        rec.count_keyed(Family::PrimitivesApplied, "inc-dp", 1);
        rec.observe(HistKind::ScoreDelta, 0.1);
        let mut report = ObsReport::new();
        report.absorb(rec);
        report
    }

    #[test]
    fn jsonl_lines_parse_and_are_sequenced() {
        let report = sample_report();
        let jsonl = report.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), Event::samples().len());
        for (i, line) in lines.iter().enumerate() {
            let v = Value::parse(line).expect("line parses");
            assert_eq!(v.field("seq").unwrap().as_u64().unwrap(), i as u64);
            assert!(v.get("kind").is_some());
        }
    }

    #[test]
    fn metrics_json_parses_and_carries_schema_version() {
        let mut report = sample_report();
        report.set_wall_time(1.25);
        let v = Value::parse(&report.metrics_json()).expect("snapshot parses");
        assert_eq!(
            v.field("schema_version").unwrap().as_u64().unwrap(),
            SCHEMA_VERSION
        );
        assert_eq!(v.field("wall_time_secs").unwrap().as_f64().unwrap(), 1.25);
        let counters = v.field("counters").unwrap();
        assert_eq!(
            counters
                .field("perf_evaluations")
                .unwrap()
                .as_u64()
                .unwrap(),
            10
        );
        assert!(v.field("histograms").unwrap().get("score_delta").is_some());
        assert_eq!(
            v.field("primitives_applied")
                .unwrap()
                .field("inc-dp")
                .unwrap()
                .as_u64()
                .unwrap(),
            1
        );
    }

    #[test]
    fn summary_table_lists_every_counter() {
        let report = sample_report();
        let table = report.summary_table();
        for c in Counter::ALL {
            assert!(table.contains(c.name()), "missing {}", c.name());
        }
        assert!(table.contains("primitive[inc-dp]"));
        assert!(table.contains("events"));
    }

    #[test]
    fn absorb_order_is_stream_order() {
        let a = Recorder::new(true);
        a.emit(|| Event::Backtrack {
            stage_count: 1,
            fingerprint: 1,
            score: 1.0,
        });
        let b = Recorder::new(true);
        b.emit(|| Event::Backtrack {
            stage_count: 2,
            fingerprint: 2,
            score: 2.0,
        });
        let mut report = ObsReport::new();
        report.absorb(a);
        report.absorb(b);
        let jsonl = report.events_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"stage_count\":1"));
        assert!(lines[1].contains("\"stage_count\":2"));
    }
}
