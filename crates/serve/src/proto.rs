//! Typed frame vocabulary of the serve protocol.
//!
//! Frames travel as JSON [`Value`]s over the [`crate::wire`] framing;
//! this module gives the request frame a typed shape ([`Request`]) and
//! centralises construction of the response frames so the server, the
//! client, and `docs/SERVER.md` agree on one vocabulary.

use crate::wire::PROTOCOL_VERSION;
use aceso_core::SearchOptions;
use aceso_util::json::{obj, FromJson, JsonError, ToJson, Value};
use std::time::Duration;

/// One search job: the same knobs `aceso search` exposes, minus the
/// output-file plumbing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Zoo model name (`aceso_model::zoo::by_name` vocabulary).
    pub model: String,
    /// Simulated V100 count.
    pub gpus: usize,
    /// Pin the pipeline stage count; `None` searches automatically.
    pub stages: Option<usize>,
    /// Enable the ZeRO-1 extension primitives.
    pub zero: bool,
    /// Iteration budget per stage count (the deterministic budget).
    pub max_iterations: usize,
    /// Optional wall-clock budget in seconds. Wall-clock budgets make
    /// the explored count machine-dependent; leave `None` for
    /// reproducible results.
    pub budget_secs: Option<u64>,
    /// Search RNG seed.
    pub seed: u64,
    /// Also return the per-rank execution plan in the result frame.
    pub plan: bool,
    /// Optional idempotency key. When the server runs with `--spool-dir`,
    /// searches submitted under a request id checkpoint their state to
    /// disk periodically; resubmitting the *same* request under the same
    /// id — after a dropped connection or a daemon crash — resumes from
    /// the last spooled checkpoint instead of starting over, and the
    /// response stays bit-identical to an uninterrupted run
    /// (`docs/SERVER.md`). `None` disables spooling for this request.
    pub request_id: Option<String>,
}

impl Default for Request {
    fn default() -> Self {
        let defaults = SearchOptions::default();
        Self {
            model: String::new(),
            gpus: 8,
            stages: None,
            zero: false,
            max_iterations: defaults.max_iterations,
            budget_secs: None,
            seed: defaults.seed,
            plan: false,
            request_id: None,
        }
    }
}

impl Request {
    /// The [`SearchOptions`] this request maps to — the single source of
    /// truth shared by the server and the loopback-determinism tests, so
    /// a served search and a direct library search configure identically.
    pub fn search_options(&self) -> SearchOptions {
        let mut options = SearchOptions {
            max_iterations: self.max_iterations,
            time_budget: self.budget_secs.map(Duration::from_secs),
            stage_counts: self.stages.map(|p| vec![p]),
            seed: self.seed,
            ..SearchOptions::default()
        };
        options.gen_options.enable_zero = self.zero;
        options
    }
}

impl ToJson for Request {
    fn to_json_value(&self) -> Value {
        obj([
            ("type", Value::Str("request".into())),
            ("protocol_version", Value::UInt(PROTOCOL_VERSION)),
            ("model", Value::Str(self.model.clone())),
            ("gpus", Value::UInt(self.gpus as u64)),
            (
                "stages",
                self.stages.map_or(Value::Null, |p| Value::UInt(p as u64)),
            ),
            ("zero", Value::Bool(self.zero)),
            ("max_iterations", Value::UInt(self.max_iterations as u64)),
            (
                "budget_secs",
                self.budget_secs.map_or(Value::Null, Value::UInt),
            ),
            ("seed", Value::UInt(self.seed)),
            ("plan", Value::Bool(self.plan)),
            (
                "request_id",
                self.request_id
                    .as_ref()
                    .map_or(Value::Null, |id| Value::Str(id.clone())),
            ),
        ])
    }
}

impl FromJson for Request {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let stages = match v.get("stages") {
            None | Some(Value::Null) => None,
            Some(s) => Some(s.as_usize()?),
        };
        let budget_secs = match v.get("budget_secs") {
            None | Some(Value::Null) => None,
            Some(s) => Some(s.as_u64()?),
        };
        // Absent and null are both "no id": pre-checkpoint clients never
        // send the field at all.
        let request_id = match v.get("request_id") {
            None | Some(Value::Null) => None,
            Some(s) => Some(s.as_str()?.to_string()),
        };
        Ok(Self {
            model: v.field("model")?.as_str()?.to_string(),
            gpus: v.field("gpus")?.as_usize()?,
            stages,
            zero: v.field("zero")?.as_bool()?,
            max_iterations: v.field("max_iterations")?.as_usize()?,
            budget_secs,
            seed: v.field("seed")?.as_u64()?,
            plan: v.field("plan")?.as_bool()?,
            request_id,
        })
    }
}

/// Builds a typed error frame. Error codes are a closed vocabulary
/// documented in `docs/SERVER.md`: `bad-frame`, `oversize-frame`,
/// `unknown-frame-type`, `bad-request`, `bad-protocol-version`,
/// `unknown-model`, `budget-too-large`, `rejected-busy`,
/// `shutting-down`, `search-failed`, `timeout`, `connection-limit`.
pub fn error_frame(code: &str, message: &str) -> Value {
    obj([
        ("type", Value::Str("error".into())),
        ("code", Value::Str(code.into())),
        ("message", Value::Str(message.into())),
    ])
}

/// Appends a `request_id` field to a response frame so a pipelining
/// client can route it to the right in-flight request. The field is
/// *appended* — never inserted — so a tagged frame's other bytes are
/// identical to the untagged frame the blocking server writes, and
/// `Response::events_jsonl` (which reads only the `event` payload)
/// reconstructs the same bytes either way (INV-PIPELINE-ORDER,
/// `docs/SERVER.md`). Non-object frames pass through untouched.
pub fn tag_request_id(mut frame: Value, request_id: &str) -> Value {
    if let Value::Object(fields) = &mut frame {
        fields.push(("request_id".to_string(), Value::Str(request_id.into())));
    }
    frame
}

/// Builds a progress/status frame; `cache` is `Some("hit"|"miss")` once
/// the profile-cache outcome is known.
pub fn status_frame(phase: &str, cache: Option<&str>) -> Value {
    let mut fields = vec![
        ("type".to_string(), Value::Str("status".into())),
        ("phase".to_string(), Value::Str(phase.into())),
    ];
    if let Some(c) = cache {
        fields.push(("cache".to_string(), Value::Str(c.into())));
    }
    Value::Object(fields)
}

/// Builds one streamed-event frame: the event's own JSON payload plus
/// its stream sequence number (clients reconstruct the exact
/// `events_jsonl` bytes from these).
pub fn event_frame(seq: usize, event: Value) -> Value {
    obj([
        ("type", Value::Str("event".into())),
        ("seq", Value::UInt(seq as u64)),
        ("event", event),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_json() {
        let req = Request {
            model: "gpt3-0.35b".into(),
            gpus: 4,
            stages: Some(2),
            zero: true,
            max_iterations: 12,
            budget_secs: Some(30),
            seed: 7,
            plan: true,
            request_id: Some("job-42".into()),
        };
        let back = Request::from_json_value(&req.to_json_value()).expect("parses");
        assert_eq!(back, req);
        // Null optionals roundtrip too.
        let bare = Request {
            model: "t5-3b".into(),
            ..Request::default()
        };
        let back = Request::from_json_value(&bare.to_json_value()).expect("parses");
        assert_eq!(back, bare);
    }

    #[test]
    fn frames_from_older_clients_still_parse() {
        let req = Request {
            model: "deepnet-8l".into(),
            ..Request::default()
        };
        let frame = req.to_json_value().to_string_compact();
        let body = frame.strip_suffix('}').expect("an object frame");
        for older in [
            // A pre-checkpoint client omits `request_id` entirely.
            frame.replacen(r#","request_id":null"#, "", 1),
            // A client from before the in-stage worker pool was removed
            // still sends its worker count; unknown fields are ignored.
            format!(r#"{body},"search_threads":4}}"#),
        ] {
            assert_ne!(older, frame);
            let v = Value::parse(&older).expect("valid JSON");
            // Equal requests map to equal search options, so the older
            // frame is served exactly like the current one.
            assert_eq!(
                Request::from_json_value(&v).expect("older frame parses"),
                req
            );
        }
    }

    #[test]
    fn search_options_mirror_request_knobs() {
        let req = Request {
            model: "gpt3-0.35b".into(),
            gpus: 4,
            stages: Some(2),
            zero: true,
            max_iterations: 12,
            budget_secs: Some(5),
            seed: 9,
            plan: false,
            request_id: None,
        };
        let o = req.search_options();
        assert_eq!(o.max_iterations, 12);
        assert_eq!(o.time_budget, Some(Duration::from_secs(5)));
        assert_eq!(o.stage_counts, Some(vec![2]));
        assert_eq!(o.seed, 9);
        assert!(o.gen_options.enable_zero);
    }

    #[test]
    fn frames_carry_their_type_tags() {
        assert_eq!(
            error_frame("bad-frame", "x")
                .field("type")
                .unwrap()
                .as_str()
                .unwrap(),
            "error"
        );
        let s = status_frame("searching", Some("hit"));
        assert_eq!(s.field("cache").unwrap().as_str().unwrap(), "hit");
        assert!(status_frame("profiling", None).get("cache").is_none());
        let e = event_frame(3, Value::Null);
        assert_eq!(e.field("seq").unwrap().as_u64().unwrap(), 3);
    }

    #[test]
    fn tagging_appends_request_id_without_touching_other_fields() {
        let plain = status_frame("searching", Some("hit"));
        let tagged = tag_request_id(plain.clone(), "job-1");
        assert_eq!(
            tagged.field("request_id").unwrap().as_str().unwrap(),
            "job-1"
        );
        // Stripping the appended field restores the untagged bytes.
        let mut stripped = tagged;
        if let Value::Object(fields) = &mut stripped {
            fields.retain(|(k, _)| k != "request_id");
        }
        assert_eq!(stripped.to_string_compact(), plain.to_string_compact());
        // Non-objects pass through.
        assert_eq!(tag_request_id(Value::UInt(4), "x").as_u64().unwrap(), 4);
    }
}
