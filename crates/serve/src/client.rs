//! A blocking TCP client for the serve protocol.
//!
//! [`submit`] sends one [`Request`] and collects the streamed response
//! into a [`Response`]; [`shutdown`] and [`server_stats`] speak the
//! admin frames. The client reconstructs the exact artifact bytes a
//! direct `AcesoSearch::run_observed` run would have written —
//! [`Response::events_jsonl`] and [`Response::metrics_json`] are
//! byte-identical to `ObsReport::events_jsonl`/`metrics_json` because
//! the in-tree JSON printer roundtrips numbers exactly and objects
//! preserve field order.

use crate::proto::Request;
use crate::wire::{read_frame, write_frame, WireError};
use aceso_util::json::{obj, ToJson, Value};
use aceso_util::SplitMix64;
use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::time::Duration;

/// Why a submission failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server replied with a typed error frame.
    Server {
        /// Machine-readable error code (see `docs/SERVER.md`).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The server sent a frame the protocol does not allow here.
    Protocol(String),
    /// The total wall-clock retry deadline expired before any attempt
    /// succeeded (`--retry-deadline-secs`). Distinct from exhausting
    /// the attempt *count*: the deadline bounds elapsed time across
    /// both backoff clocks, whatever mix of failures was seen.
    RetryDeadline {
        /// The configured wall-clock budget.
        deadline: Duration,
        /// Attempts actually made before the deadline cut retries off.
        attempts: usize,
        /// The failure of the final attempt.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server rejected the request ({code}): {message}")
            }
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ClientError::RetryDeadline {
                deadline,
                attempts,
                last,
            } => write!(
                f,
                "retry-deadline: gave up after {attempts} attempt(s); \
                 wall-clock deadline of {:.1}s exceeded; last error: {last}",
                deadline.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// Everything one served search returned.
#[derive(Debug)]
pub struct Response {
    /// `"hit"` or `"miss"` — the profile-cache outcome.
    pub cache: String,
    /// Status phases observed, in order (e.g. `profiling`, `searching`).
    pub statuses: Vec<String>,
    /// The streamed event payloads, in sequence order (without the
    /// transport `seq` wrapper).
    pub events: Vec<Value>,
    /// The final result frame (type, timings, best config, …).
    pub result: Value,
    /// The per-request metric snapshot (parsed `metrics_json`).
    pub metrics: Value,
    /// The execution plan, when the request asked for one and the best
    /// configuration fits memory.
    pub plan: Option<Value>,
}

impl Response {
    /// Re-renders the streamed events as JSONL, byte-identical to
    /// `ObsReport::events_jsonl` of the equivalent direct run: each line
    /// is the event object with `seq` inserted first, compact-printed.
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, event) in self.events.iter().enumerate() {
            let Value::Object(fields) = event else {
                continue;
            };
            let mut fields = fields.clone();
            fields.insert(0, ("seq".to_string(), Value::UInt(i as u64)));
            out.push_str(&Value::Object(fields).to_string_compact());
            out.push('\n');
        }
        out
    }

    /// Re-renders the metric snapshot, byte-identical to
    /// `ObsReport::metrics_json` of the equivalent direct run.
    pub fn metrics_json(&self) -> String {
        let mut s = self.metrics.to_string_pretty();
        s.push('\n');
        s
    }
}

/// Builds a [`Response`] from a result frame plus the statuses and
/// events collected before it arrived.
fn response_from_result(
    frame: Value,
    statuses: Vec<String>,
    events: Vec<Value>,
) -> Result<Response, ClientError> {
    let cache = frame
        .get("cache")
        .and_then(|c| c.as_str().ok())
        .unwrap_or("?")
        .to_string();
    let metrics = frame
        .get("metrics")
        .cloned()
        .ok_or_else(|| ClientError::Protocol("result frame without metrics".into()))?;
    let plan = match frame.get("plan") {
        None | Some(Value::Null) => None,
        Some(p) => Some(p.clone()),
    };
    Ok(Response {
        cache,
        statuses,
        events,
        result: frame,
        metrics,
        plan,
    })
}

/// Moves the `event` payload out of an event frame.
fn take_event(frame: Value) -> Result<Value, ClientError> {
    match frame {
        Value::Object(fields) => fields
            .into_iter()
            .find_map(|(k, v)| (k == "event").then_some(v)),
        _ => None,
    }
    .ok_or_else(|| ClientError::Protocol("event frame without payload".into()))
}

/// Reads one request's whole response — status and event frames, then
/// its result — from `r`. The server answers requests whole and in
/// order (INV-PIPELINE-ORDER, `docs/SERVER.md`), so reading several
/// pipelined responses is calling this once per request. A typed error
/// frame ends the response as [`ClientError::Server`]; an event `seq`
/// out of order, or a frame the protocol does not allow, is
/// [`ClientError::Protocol`].
pub fn read_response(r: &mut impl Read) -> Result<Response, ClientError> {
    let mut statuses = Vec::new();
    let mut events = Vec::new();
    loop {
        let frame = read_frame(r)?;
        match frame.get("type").and_then(|t| t.as_str().ok()) {
            Some("status") => {
                let phase = frame
                    .get("phase")
                    .and_then(|p| p.as_str().ok())
                    .unwrap_or("?");
                statuses.push(phase.to_string());
            }
            Some("event") => {
                let seq = frame
                    .get("seq")
                    .and_then(|s| s.as_u64().ok())
                    .ok_or_else(|| ClientError::Protocol("event frame without seq".into()))?;
                if seq as usize != events.len() {
                    return Err(ClientError::Protocol(format!(
                        "event seq {seq} arrived out of order (expected {})",
                        events.len()
                    )));
                }
                events.push(take_event(frame)?);
            }
            Some("result") => return response_from_result(frame, statuses, events),
            Some("error") => return Err(server_error(&frame)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected frame type {other:?} while awaiting a result"
                )))
            }
        }
    }
}

/// Submits one search request and blocks until the result frame.
pub fn submit(addr: &str, req: &Request) -> Result<Response, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &req.to_json_value())?;
    read_response(&mut BufReader::new(stream))
}

/// Submits several requests on **one** connection without waiting for
/// responses in between (pipelining), then reads one response per
/// request. Takes a connected stream, so a caller can connect ahead of
/// time and time the requests alone. Returns per-request outcomes in
/// submission order: a typed server rejection ends only its own request
/// (the fault-injection tests rely on exactly that isolation), while a
/// wire or protocol error fails the whole call.
pub fn submit_pipelined(
    mut stream: TcpStream,
    reqs: &[Request],
) -> Result<Vec<Result<Response, ClientError>>, ClientError> {
    for req in reqs {
        write_frame(&mut stream, &req.to_json_value())?;
    }
    let mut stream = BufReader::new(stream);
    reqs.iter()
        .map(|_| match read_response(&mut stream) {
            Err(e @ (ClientError::Wire(_) | ClientError::Protocol(_))) => Err(e),
            outcome => Ok(outcome),
        })
        .collect()
}

/// How a failed submission should be retried. The two retryable classes
/// back off on different clocks because they mean different things: a
/// server that answered with a `timeout` idle cut is **up**, so trying
/// again quickly is cheap and correct; a **down** server (connection
/// refused, reset, dropped mid-response) may be restarting, and patience
/// is what lets it come back. Collapsing the two would make a client of
/// a live daemon wait seconds for an answer that comes in milliseconds.
/// `rejected-busy` is fatal: only a daemon that runs no search workers
/// sends it, and that daemon never frees a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RetryClass {
    /// The server answered with a transient cut (`timeout`): short
    /// backoff.
    Up,
    /// The transport failed — the daemon may be down or restarting:
    /// long backoff.
    Down,
    /// Typed rejections of the request itself (`bad-request`,
    /// `unknown-model`, `rejected-busy`, …) fail identically on every
    /// attempt: surface immediately.
    Fatal,
}

fn retry_class(e: &ClientError) -> RetryClass {
    match e {
        ClientError::Wire(_) => RetryClass::Down,
        ClientError::Server { code, .. } if code == "timeout" => RetryClass::Up,
        ClientError::Server { .. }
        | ClientError::Protocol(_)
        | ClientError::RetryDeadline { .. } => RetryClass::Fatal,
    }
}

/// First retry delay after a `timeout` answer; doubles up to
/// [`RETRY_UP_CAP`].
const RETRY_UP_BASE: Duration = Duration::from_millis(10);
/// Ceiling on the `timeout` backoff delay.
const RETRY_UP_CAP: Duration = Duration::from_millis(250);
/// First retry delay after a transport failure; doubles per attempt up
/// to [`RETRY_DELAY_CAP`].
const RETRY_DELAY_BASE: Duration = Duration::from_millis(50);
/// Ceiling on the transport-failure backoff delay.
const RETRY_DELAY_CAP: Duration = Duration::from_secs(2);

/// [`submit`] with bounded, class-aware exponential backoff: up to
/// `retries` extra attempts after the first. A `timeout` answer backs
/// off on the short clock (10 ms doubling to a 250 ms cap — the server
/// is up); a transport failure backs off on the long clock (50 ms doubling to a
/// 2 s cap — the daemon may be restarting). The two clocks advance
/// independently, so alternating failures cannot inflate each other.
/// Every delay gains up to 50 % jitter drawn from a [`SplitMix64`]
/// seeded by the request's own search seed — deterministic for a given
/// request, so a stampede of distinct clients still decorrelates while
/// tests stay reproducible.
///
/// An optional total wall-clock `deadline` bounds the whole ladder: once
/// it would be exceeded, no further attempt is made and the typed
/// [`ClientError::RetryDeadline`] surfaces (wrapping the last failure).
/// The deadline spans *both* backoff clocks — a client alternating
/// between `timeout` answers and transport failures is still bounded —
/// and is checked before each sleep, so the client never parks past its
/// own budget waiting to discover it expired.
///
/// Combined with a `request_id` and a `--spool-dir` daemon this is the
/// crash-recovery loop: a retry after a dropped connection or daemon
/// restart resumes the search from the last spooled checkpoint and
/// returns the same bit-identical response the first attempt would have.
pub fn submit_with_retries(
    addr: &str,
    req: &Request,
    retries: usize,
    deadline: Option<Duration>,
) -> Result<Response, ClientError> {
    let start = std::time::Instant::now();
    let mut rng = SplitMix64::new(req.seed ^ 0x5EED_BACC_0FF5);
    let mut up_delay = RETRY_UP_BASE;
    let mut down_delay = RETRY_DELAY_BASE;
    let mut attempt = 0usize;
    loop {
        match submit(addr, req) {
            Ok(resp) => return Ok(resp),
            Err(e) if attempt < retries && retry_class(&e) != RetryClass::Fatal => {
                attempt += 1;
                let delay = match retry_class(&e) {
                    RetryClass::Up => {
                        let d = up_delay;
                        up_delay = (up_delay * 2).min(RETRY_UP_CAP);
                        d
                    }
                    RetryClass::Down => {
                        let d = down_delay;
                        down_delay = (down_delay * 2).min(RETRY_DELAY_CAP);
                        d
                    }
                    RetryClass::Fatal => unreachable!("guarded above"),
                };
                let jitter_ms = rng.next_u64() % (delay.as_millis() as u64 / 2 + 1);
                let delay = delay + Duration::from_millis(jitter_ms);
                if let Some(limit) = deadline {
                    if start.elapsed() + delay >= limit {
                        return Err(ClientError::RetryDeadline {
                            deadline: limit,
                            attempts: attempt,
                            last: Box::new(e),
                        });
                    }
                }
                std::thread::sleep(delay);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Asks the daemon to drain and exit. Returns once the server
/// acknowledges; in-flight requests still finish before it exits.
pub fn shutdown(addr: &str) -> Result<(), ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &obj([("type", Value::Str("shutdown".into()))]))?;
    let reply = read_frame(&mut stream)?;
    match reply.get("type").and_then(|t| t.as_str().ok()) {
        Some("ok") => Ok(()),
        Some("error") => Err(server_error(&reply)),
        other => Err(ClientError::Protocol(format!(
            "unexpected shutdown reply {other:?}"
        ))),
    }
}

/// Fetches the server-level metric snapshot: the 14 server counters and
/// the server-level events (`docs/SERVER.md`).
pub fn server_stats(addr: &str) -> Result<Value, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &obj([("type", Value::Str("stats".into()))]))?;
    let reply = read_frame(&mut stream)?;
    match reply.get("type").and_then(|t| t.as_str().ok()) {
        Some("stats") => reply
            .get("metrics")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("stats frame without metrics".into())),
        Some("error") => Err(server_error(&reply)),
        other => Err(ClientError::Protocol(format!(
            "unexpected stats reply {other:?}"
        ))),
    }
}

fn server_error(frame: &Value) -> ClientError {
    let code = frame
        .get("code")
        .and_then(|c| c.as_str().ok())
        .unwrap_or("?")
        .to_string();
    let message = frame
        .get("message")
        .and_then(|m| m.as_str().ok())
        .unwrap_or_default()
        .to_string();
    ClientError::Server { code, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{error_frame, event_frame, status_frame};

    fn server_err(code: &str) -> ClientError {
        ClientError::Server {
            code: code.into(),
            message: String::new(),
        }
    }

    /// A `timeout` answer (server up) and connection failures (server
    /// down) must land in different backoff classes.
    #[test]
    fn retry_classes_split_up_from_down() {
        assert_eq!(retry_class(&server_err("timeout")), RetryClass::Up);
        assert_eq!(
            retry_class(&ClientError::Wire(WireError::Closed)),
            RetryClass::Down
        );
        assert_eq!(
            retry_class(&ClientError::Wire(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "refused",
            )))),
            RetryClass::Down
        );
        for fatal in [
            "bad-request",
            "unknown-model",
            "budget-too-large",
            "shutting-down",
            "rejected-busy",
        ] {
            assert_eq!(
                retry_class(&server_err(fatal)),
                RetryClass::Fatal,
                "{fatal} must not be retried"
            );
        }
        assert_eq!(
            retry_class(&ClientError::Protocol("x".into())),
            RetryClass::Fatal
        );
    }

    /// A daemon that answers `rejected-busy` runs no search workers and
    /// never frees a slot, so the client surfaces the rejection after one
    /// attempt instead of spending its retries on it.
    #[test]
    fn busy_rejections_are_not_retried() {
        let server = crate::server::Server::bind(
            "127.0.0.1:0",
            crate::server::ServeOptions {
                workers: 0,
                ..crate::server::ServeOptions::default()
            },
        )
        .expect("binds");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let req = Request {
            model: "gpt3-0.35b".into(),
            gpus: 1,
            max_iterations: 1,
            ..Request::default()
        };
        match submit_with_retries(&addr, &req, 4, None) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "rejected-busy"),
            other => panic!("expected rejected-busy, got {other:?}"),
        }
        shutdown(&addr).expect("drains");
        let report = handle.join().expect("server thread");
        assert_eq!(
            report.counter(aceso_obs::Counter::ServeRejected),
            1,
            "one attempt, not one per retry"
        );
    }

    /// Regression: the wall-clock deadline cuts retries off even when
    /// the attempt budget is effectively unlimited. The endpoint is a
    /// bound-then-dropped listener, so every attempt refuses
    /// permanently; without the deadline, 1000 down-clock retries would
    /// take minutes.
    #[test]
    fn retry_deadline_bounds_total_wall_clock() {
        let refused = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
            listener.local_addr().expect("addr").to_string()
            // Dropped here: connections to the freed port are refused.
        };
        let req = Request {
            model: "gpt3-0.35b".into(),
            gpus: 1,
            max_iterations: 1,
            ..Request::default()
        };
        let limit = Duration::from_millis(300);
        let start = std::time::Instant::now();
        let outcome = submit_with_retries(&refused, &req, 1000, Some(limit));
        let elapsed = start.elapsed();
        match outcome {
            Err(ClientError::RetryDeadline {
                deadline,
                attempts,
                last,
            }) => {
                assert_eq!(deadline, limit);
                assert!(attempts >= 1, "at least one attempt was made");
                assert!(
                    matches!(*last, ClientError::Wire(_)),
                    "the last failure is preserved, got {last:?}"
                );
            }
            other => panic!("expected RetryDeadline, got {other:?}"),
        }
        // Checked before each sleep: the client gives up without parking
        // past its own budget (generous bound for slow CI).
        assert!(
            elapsed < limit + Duration::from_secs(2),
            "deadline overshot: {elapsed:?}"
        );
    }

    fn result_frame(explored: u64) -> Value {
        obj([
            ("type", Value::Str("result".into())),
            ("cache", Value::Str("miss".into())),
            ("explored", Value::UInt(explored)),
            ("metrics", obj([("schema_version", Value::UInt(7))])),
        ])
    }

    /// The frames as they arrive on the wire.
    fn wire(frames: &[Value]) -> std::io::Cursor<Vec<u8>> {
        let mut bytes = Vec::new();
        for frame in frames {
            write_frame(&mut bytes, frame).expect("encodes");
        }
        std::io::Cursor::new(bytes)
    }

    /// Two responses back to back, as pipelined requests are answered,
    /// decode one after the other, each with its own frames.
    #[test]
    fn back_to_back_responses_decode_in_order() {
        let mut r = wire(&[
            status_frame("profiling", None),
            event_frame(0, obj([("kind", Value::Str("a".into()))])),
            result_frame(1),
            status_frame("profiling", None),
            status_frame("searching", Some("hit")),
            result_frame(2),
        ]);
        let first = read_response(&mut r).expect("first decodes");
        let second = read_response(&mut r).expect("second decodes");
        assert_eq!(first.result.field("explored").unwrap().as_u64().unwrap(), 1);
        assert_eq!(first.statuses, ["profiling"]);
        assert_eq!(first.events.len(), 1);
        assert_eq!(
            second.result.field("explored").unwrap().as_u64().unwrap(),
            2
        );
        assert_eq!(second.statuses, ["profiling", "searching"]);
        assert!(second.events.is_empty());
        assert!(matches!(
            read_response(&mut r),
            Err(ClientError::Wire(WireError::Closed))
        ));
    }

    /// A typed server error ends its own response; the result behind it
    /// still decodes.
    #[test]
    fn an_error_response_leaves_the_next_response_intact() {
        let mut r = wire(&[
            error_frame("bad-request", "gpus must be at least 1"),
            status_frame("profiling", None),
            result_frame(3),
        ]);
        assert!(matches!(
            read_response(&mut r),
            Err(ClientError::Server { code, .. }) if code == "bad-request"
        ));
        let next = read_response(&mut r).expect("the result still decodes");
        assert_eq!(next.statuses, ["profiling"]);
        assert_eq!(next.result.field("explored").unwrap().as_u64().unwrap(), 3);
    }

    /// An event `seq` out of order is a protocol violation.
    #[test]
    fn out_of_order_seq_is_a_protocol_error() {
        let event = |seq| event_frame(seq, obj([("kind", Value::Str("a".into()))]));
        let mut r = wire(&[event(0), event(2), result_frame(1)]);
        assert!(matches!(
            read_response(&mut r),
            Err(ClientError::Protocol(_))
        ));
    }
}
