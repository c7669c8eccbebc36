//! Length-prefixed JSON framing over a byte stream.
//!
//! Every frame is a 4-byte big-endian payload length followed by that
//! many bytes of UTF-8 JSON (one [`Value`] document). The format is
//! symmetric — requests and responses use the same framing — and
//! dependency-free: it reuses the in-tree JSON machinery and `std::io`.
//!
//! Frames larger than [`MAX_FRAME_BYTES`] are rejected *before* the
//! payload is read, so a malicious or confused peer cannot make the
//! server allocate unboundedly. The full frame-type vocabulary is
//! documented in `docs/SERVER.md`.

use aceso_util::json::Value;
use std::io::{Read, Write};

/// Version stamped into request and result frames as
/// `protocol_version`. Bump when a frame field changes meaning.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard ceiling on one frame's payload size (16 MiB). Large enough for
/// any event stream the bounded searches produce, small enough that an
/// adversarial length prefix cannot exhaust memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The peer closed the stream mid-frame (or before one started).
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversize(usize),
    /// The payload is not valid JSON.
    BadJson(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Closed => write!(f, "peer closed the stream"),
            WireError::Oversize(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
                )
            }
            WireError::BadJson(e) => write!(f, "frame payload is not valid JSON: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            WireError::Io(e)
        }
    }
}

/// Encodes one frame — 4-byte big-endian length, then the compact JSON
/// payload — into a single buffer.
pub(crate) fn encode_frame(v: &Value) -> Result<Vec<u8>, WireError> {
    let payload = v.to_string_compact();
    if payload.len() > MAX_FRAME_BYTES {
        return Err(WireError::Oversize(payload.len()));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload.as_bytes());
    Ok(frame)
}

/// Writes one frame: 4-byte big-endian length, then the compact JSON
/// payload, handed to the writer in one `write_all` (one syscall on a
/// socket, not one for the prefix and one for the payload).
pub fn write_frame(w: &mut impl Write, v: &Value) -> Result<(), WireError> {
    w.write_all(&encode_frame(v)?)?;
    w.flush()?;
    Ok(())
}

/// Byte budget of a [`FrameBatcher`]'s buffer.
pub(crate) const BATCH_BYTES: usize = 64 << 10;

/// Coalesces a stream of frames into few writes.
///
/// [`FrameBatcher::batch`] collects frames in a buffer of at most
/// [`BATCH_BYTES`], writing it out whenever the next frame would not
/// fit; a frame larger than the whole buffer is written straight
/// through after it. [`FrameBatcher::send`] writes the buffer out and
/// then its own frame as a separate write, so nothing queued before it
/// is held back. The bytes on the wire are exactly those of one
/// [`write_frame`] per frame, in the same order.
pub(crate) struct FrameBatcher<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameBatcher<W> {
    /// A batcher with an empty buffer in front of `inner`.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            buf: Vec::new(),
        }
    }

    /// Queues one frame, writing the buffer out first when the frame
    /// would overflow it.
    pub fn batch(&mut self, v: &Value) -> Result<(), WireError> {
        let frame = encode_frame(v)?;
        if self.buf.len() + frame.len() > BATCH_BYTES {
            self.flush()?;
        }
        if frame.len() > BATCH_BYTES {
            self.inner.write_all(&frame)?;
        } else {
            self.buf.extend_from_slice(&frame);
        }
        Ok(())
    }

    /// Writes the buffer out, then `v` in a write of its own.
    pub fn send(&mut self, v: &Value) -> Result<(), WireError> {
        self.flush()?;
        write_frame(&mut self.inner, v)
    }

    /// Writes the buffered frames out.
    fn flush(&mut self) -> Result<(), WireError> {
        if !self.buf.is_empty() {
            self.inner.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.inner.flush()?;
        Ok(())
    }
}

/// Reads one frame. Returns [`WireError::Closed`] on clean EOF before a
/// length prefix, [`WireError::Oversize`] without consuming the payload
/// when the prefix exceeds the limit.
pub fn read_frame(r: &mut impl Read) -> Result<Value, WireError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes at all) from a truncated prefix.
    let mut filled = 0usize;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            return Err(WireError::Closed);
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversize(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload).map_err(|e| WireError::BadJson(e.to_string()))?;
    Value::parse(&text).map_err(|e| WireError::BadJson(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_util::json::obj;

    #[test]
    fn roundtrip_preserves_value() {
        let v = obj([
            ("type", Value::Str("request".into())),
            ("n", Value::UInt(42)),
            ("x", Value::Float(1.25)),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).expect("writes");
        let back = read_frame(&mut buf.as_slice()).expect("reads");
        assert_eq!(back.to_string_compact(), v.to_string_compact());
    }

    #[test]
    fn multiple_frames_read_in_order() {
        let mut buf = Vec::new();
        for i in 0..3u64 {
            write_frame(&mut buf, &Value::UInt(i)).expect("writes");
        }
        let mut r = buf.as_slice();
        for i in 0..3u64 {
            assert_eq!(read_frame(&mut r).unwrap().as_u64().unwrap(), i);
        }
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));

        // A burst of event frames several times the batch buffer, with
        // one frame bigger than the whole buffer in the middle, ended by
        // a status frame. Batched, it must put exactly the bytes of one
        // `write_frame` per frame on the wire, in far fewer writes, none
        // over the buffer size except the oversized frame's own.
        let event = |seq: usize, pad: String| {
            crate::proto::event_frame(
                seq,
                obj([
                    ("kind", Value::Str("accept".into())),
                    ("pad", Value::Str(pad)),
                ]),
            )
        };
        let mut burst: Vec<Value> = (0..1200).map(|i| event(i, "x→".repeat(i % 50))).collect();
        burst[600] = event(600, "y".repeat(BATCH_BYTES));
        burst.push(crate::proto::status_frame("searching", None));
        let mut one_by_one = Recording::default();
        for frame in &burst {
            write_frame(&mut one_by_one, frame).expect("writes");
        }
        assert_eq!(one_by_one.writes.len(), burst.len(), "one write per frame");
        let mut batched = Recording::default();
        let mut batcher = FrameBatcher::new(&mut batched);
        let (last, events) = burst.split_last().expect("non-empty burst");
        for frame in events {
            batcher.batch(frame).expect("batches");
        }
        batcher.send(last).expect("sends");
        assert_eq!(batched.bytes, one_by_one.bytes);
        assert!(
            batched.writes.len() < burst.len() / 20,
            "{:?}",
            batched.writes
        );
        assert_eq!(
            batched.writes.iter().filter(|&&n| n > BATCH_BYTES).count(),
            1,
            "only the oversized frame exceeds the buffer"
        );
        assert_eq!(
            *batched.writes.last().unwrap(),
            encode_frame(last).unwrap().len(),
            "the status frame goes out in a write of its own"
        );
        let mut reader = std::io::BufReader::new(batched.bytes.as_slice());
        let mut direct = one_by_one.bytes.as_slice();
        for frame in &burst {
            let got = read_frame(&mut reader).expect("reads").to_string_compact();
            assert_eq!(got, frame.to_string_compact());
            assert_eq!(got, read_frame(&mut direct).unwrap().to_string_compact());
        }
        assert!(matches!(read_frame(&mut reader), Err(WireError::Closed)));
    }

    /// A writer that keeps what it is given and the size of every write.
    #[derive(Default)]
    struct Recording {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.bytes.extend_from_slice(buf);
            self.writes.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn empty_stream_reads_as_closed() {
        let mut r: &[u8] = &[];
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn truncated_prefix_reads_as_closed() {
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
    }

    #[test]
    fn oversize_prefix_is_rejected_without_allocating() {
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
        let mut r: &[u8] = &huge;
        match read_frame(&mut r) {
            Err(WireError::Oversize(n)) => assert_eq!(n, MAX_FRAME_BYTES + 1),
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    /// A reader that delivers its bytes across a seam: everything before
    /// `seam` arrives first (possibly ending mid-prefix or mid-payload),
    /// then the rest. Models a peer whose frame is torn across TCP
    /// segments at an arbitrary byte boundary.
    struct Torn<'a> {
        bytes: &'a [u8],
        pos: usize,
        seam: usize,
    }

    impl Read for Torn<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            // Never read across the seam in one call.
            let limit = if self.pos < self.seam {
                self.seam
            } else {
                self.bytes.len()
            };
            let n = buf.len().min(limit - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Tearing a frame at *every* byte boundary — inside the length
    /// prefix, inside the payload, between frames — must never confuse
    /// the reader: both frames always arrive intact and identical.
    #[test]
    fn frames_torn_at_every_byte_boundary_still_parse() {
        let first = obj([
            ("type", Value::Str("status".into())),
            ("phase", Value::Str("searching".into())),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &first).expect("writes");
        write_frame(&mut buf, &Value::UInt(99)).expect("writes");
        for seam in 0..=buf.len() {
            let mut r = Torn {
                bytes: &buf,
                pos: 0,
                seam,
            };
            let a = read_frame(&mut r).unwrap_or_else(|e| panic!("seam {seam}: {e}"));
            assert_eq!(a.to_string_compact(), first.to_string_compact());
            let b = read_frame(&mut r).unwrap_or_else(|e| panic!("seam {seam}: {e}"));
            assert_eq!(b.as_u64().unwrap(), 99);
            assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
        }
    }

    /// A stream truncated at *every* prefix length is an error — closed
    /// or i/o, depending on where the cut lands — and never a panic or a
    /// bogus frame.
    #[test]
    fn truncation_at_every_byte_boundary_is_an_error() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &obj([
                ("type", Value::Str("request".into())),
                ("n", Value::UInt(5)),
            ]),
        )
        .expect("writes");
        for cut in 0..buf.len() {
            assert!(
                read_frame(&mut &buf[..cut]).is_err(),
                "a frame cut at byte {cut} must not parse"
            );
        }
    }

    #[test]
    fn garbage_payload_is_bad_json() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(b"{{{");
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::BadJson(_))
        ));
    }

    /// One valid wire frame of every frame kind the protocol can emit
    /// (`docs/SERVER.md` vocabulary: request, stats, shutdown, status,
    /// event, result, error, ok).
    fn frame_corpus() -> Vec<(&'static str, Value)> {
        let request = crate::proto::Request {
            model: "gpt3-0.35b".into(),
            request_id: Some("fuzz-1".into()),
            ..crate::proto::Request::default()
        };
        vec![
            ("request", aceso_util::json::ToJson::to_json_value(&request)),
            ("stats", obj([("type", Value::Str("stats".into()))])),
            ("shutdown", obj([("type", Value::Str("shutdown".into()))])),
            (
                "status",
                crate::proto::status_frame("searching", Some("hit")),
            ),
            (
                "event",
                crate::proto::event_frame(3, obj([("kind", Value::Str("accept".into()))])),
            ),
            (
                "result",
                obj([
                    ("type", Value::Str("result".into())),
                    ("protocol_version", Value::UInt(PROTOCOL_VERSION)),
                    ("model", Value::Str("gpt3-0.35b".into())),
                    ("iteration_time", Value::Float(0.125)),
                ]),
            ),
            (
                "error",
                crate::proto::error_frame("bad-request", "fuzz probe"),
            ),
            ("ok", obj([("type", Value::Str("ok".into()))])),
        ]
    }

    /// Seeded byte-mutation fuzz over every frame kind: flipping 1–3
    /// bytes of a valid frame must decode to a typed result — `Ok` or a
    /// `WireError` — never a panic. When every mutation lands in the
    /// payload region (the length prefix is intact), the error must be
    /// `BadJson` specifically, and a pristine sentinel frame written
    /// after the mutated one must still read back exactly: a corrupt
    /// payload may poison its own frame but never the stream framing.
    #[test]
    fn mutated_frames_decode_to_typed_errors_never_panic() {
        let sentinel = obj([("type", Value::Str("ok".into())), ("seq", Value::UInt(7))]);
        let mut rng = aceso_util::SplitMix64::new(0xF0_22_ED);
        for (kind, frame) in frame_corpus() {
            let mut pristine = Vec::new();
            write_frame(&mut pristine, &frame).expect("writes");
            let payload_len = pristine.len() - 4;
            for round in 0..200 {
                let mut bytes = pristine.clone();
                let flips = 1 + rng.next_below(3);
                let mut payload_only = true;
                for _ in 0..flips {
                    let at = rng.next_below(bytes.len());
                    if at < 4 {
                        payload_only = false;
                    }
                    bytes[at] ^= (rng.next_u64() % 255 + 1) as u8;
                }
                let mut stream = bytes;
                write_frame(&mut stream, &sentinel).expect("writes");
                let mut r = stream.as_slice();
                let first = read_frame(&mut r);
                if payload_only {
                    // Prefix intact: the frame boundary is unambiguous.
                    match &first {
                        Ok(v) => {
                            // A lucky mutation can still be valid JSON;
                            // typed decoding of it must not panic either.
                            let _ = <crate::proto::Request as aceso_util::json::FromJson>::from_json_value(v);
                        }
                        Err(WireError::BadJson(_)) => {}
                        Err(other) => panic!(
                            "{kind} round {round}: payload mutation must be \
                             Ok or BadJson, got {other:?}"
                        ),
                    }
                    let next = read_frame(&mut r).unwrap_or_else(|e| {
                        panic!("{kind} round {round}: sentinel lost after mutation: {e}")
                    });
                    assert_eq!(
                        next.to_string_compact(),
                        sentinel.to_string_compact(),
                        "{kind} round {round}: framing drifted"
                    );
                } else {
                    // A mutated length prefix may swallow the sentinel or
                    // claim an oversize frame; any typed outcome is fine,
                    // silent mis-framing into a *valid parse of different
                    // length* is what the Ok arm below would surface.
                    if let Ok(v) = first {
                        assert!(
                            v.to_string_compact().len() <= payload_len + sentinel_len(&sentinel),
                            "{kind} round {round}: parsed beyond the stream"
                        );
                    }
                }
            }
        }
    }

    fn sentinel_len(v: &Value) -> usize {
        v.to_string_compact().len() + 4
    }

    /// Truncating every frame kind at every byte boundary (not just the
    /// request frame) is always a typed error.
    #[test]
    fn every_frame_kind_truncates_to_typed_errors() {
        for (kind, frame) in frame_corpus() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).expect("writes");
            for cut in 0..buf.len() {
                assert!(
                    read_frame(&mut &buf[..cut]).is_err(),
                    "{kind} cut at byte {cut} must not parse"
                );
            }
        }
    }
}
