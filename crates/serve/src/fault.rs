//! Fault-injection proxy for crash-safety tests.
//!
//! [`FaultProxy`] sits between a serve client and the daemon and cuts
//! the connection at a chosen **frame boundary**: it forwards the
//! client→server byte stream verbatim, parses the server→client stream
//! with the real wire framing (4-byte big-endian length prefixes), and
//! after forwarding the configured number of frames severs both
//! directions at once. The client observes exactly what a daemon crash
//! or network partition mid-response looks like — a clean cut between
//! frames, never a torn one — which is the scenario the checkpoint
//! spool and [`crate::client::submit_with_retries`] exist to survive
//! (`tests/serve.rs` drives the full kill → retry → resume →
//! bit-identical-result loop through this proxy).
//!
//! The proxy is deliberately minimal test infrastructure: one
//! connection at a time, threads detach, and the listener lives until
//! the process exits. It is compiled into the library (not
//! `#[cfg(test)]`) so integration tests and external harnesses can use
//! it, but nothing in the serve path depends on it.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// The adversarial behaviour a [`FaultProxy`] injects into each
/// forwarded connection.
#[derive(Debug, Clone, Copy)]
pub enum FaultMode {
    /// Sever both directions after forwarding this many server→client
    /// frames — a crash or partition landing exactly on a frame
    /// boundary (`0` cuts before the first response frame).
    CutAfterFrames(usize),
    /// Forward the client→server stream one byte at a time with this
    /// delay between bytes — a slow-loris peer that keeps a frame torn
    /// open indefinitely. Drives the server's per-read deadline
    /// (`--io-timeout-secs`, `docs/SERVER.md`).
    SlowLoris {
        /// Pause inserted before each forwarded client→server byte.
        byte_delay: Duration,
    },
    /// Forward this many client→server frames, then shut down only the
    /// write side toward the server (the server reads EOF — a
    /// half-closed socket) while continuing to relay server→client
    /// bytes. A well-behaved server answers everything it admitted
    /// before the EOF, then closes.
    HalfCloseAfter(usize),
}

/// A TCP proxy that injects one configured [`FaultMode`] into every
/// forwarded connection.
pub struct FaultProxy {
    addr: SocketAddr,
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral local port, forwarding every
    /// accepted connection to `upstream` and cutting it after
    /// `cut_after_frames` server→client frames have been relayed.
    /// `cut_after_frames` of 0 severs before the first response frame —
    /// the request may still have been delivered and run to completion
    /// server-side, exactly like a crash right after submission.
    /// Shorthand for [`FaultProxy::start_with`] and
    /// [`FaultMode::CutAfterFrames`].
    pub fn start(upstream: &str, cut_after_frames: usize) -> std::io::Result<Self> {
        Self::start_with(upstream, FaultMode::CutAfterFrames(cut_after_frames))
    }

    /// Starts a proxy on an ephemeral local port, injecting `mode` into
    /// every accepted connection.
    pub fn start_with(upstream: &str, mode: FaultMode) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let upstream = upstream.to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(client) = conn else { continue };
                let Ok(server) = TcpStream::connect(&upstream) else {
                    // Upstream gone (daemon killed): drop the client
                    // immediately, which reads as connection-refused-ish.
                    continue;
                };
                let _ = match mode {
                    FaultMode::CutAfterFrames(n) => pump(client, server, n),
                    FaultMode::SlowLoris { byte_delay } => {
                        pump_slow_loris(client, server, byte_delay)
                    }
                    FaultMode::HalfCloseAfter(n) => pump_half_close(client, server, n),
                };
            }
        });
        Ok(Self { addr })
    }

    /// The proxy's listen address — point the client here.
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }
}

/// Relays one connection pair until the frame budget is exhausted, then
/// severs both sockets in both directions.
fn pump(client: TcpStream, server: TcpStream, cut_after_frames: usize) -> std::io::Result<()> {
    // Client → server: a verbatim byte pump on its own thread; it dies
    // when either socket is shut down below.
    let mut c2s_read = client.try_clone()?;
    let mut c2s_write = server.try_clone()?;
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut c2s_read, &mut c2s_write);
        let _ = c2s_write.shutdown(Shutdown::Write);
    });

    // Server → client: frame-aware so the cut lands exactly on a frame
    // boundary.
    let mut from_server = server.try_clone()?;
    let mut to_client = client.try_clone()?;
    let mut forwarded = 0usize;
    while forwarded < cut_after_frames {
        let mut prefix = [0u8; 4];
        if from_server.read_exact(&mut prefix).is_err() {
            break; // upstream closed first — nothing left to cut
        }
        let len = u32::from_be_bytes(prefix) as usize;
        let mut payload = vec![0u8; len];
        from_server.read_exact(&mut payload)?;
        to_client.write_all(&prefix)?;
        to_client.write_all(&payload)?;
        to_client.flush()?;
        forwarded += 1;
    }
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    Ok(())
}

/// Relays a connection pair with the client→server direction throttled
/// to one byte per `byte_delay` — the frames still arrive intact, just
/// adversarially slowly. Server→client flows verbatim on its own
/// thread.
fn pump_slow_loris(
    client: TcpStream,
    server: TcpStream,
    byte_delay: Duration,
) -> std::io::Result<()> {
    let mut s2c_read = server.try_clone()?;
    let mut s2c_write = client.try_clone()?;
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut s2c_read, &mut s2c_write);
        let _ = s2c_write.shutdown(Shutdown::Write);
    });

    let mut from_client = client.try_clone()?;
    let mut to_server = server.try_clone()?;
    let mut byte = [0u8; 1];
    loop {
        match from_client.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                std::thread::sleep(byte_delay);
                if to_server.write_all(&byte).is_err() || to_server.flush().is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    Ok(())
}

/// Relays `frames` client→server frames intact, then half-closes the
/// server-facing socket (the server reads EOF) while continuing to
/// relay server→client bytes until the server itself closes.
fn pump_half_close(client: TcpStream, server: TcpStream, frames: usize) -> std::io::Result<()> {
    let mut from_client = client.try_clone()?;
    let mut to_server = server.try_clone()?;
    let mut forwarded = 0usize;
    while forwarded < frames {
        let mut prefix = [0u8; 4];
        if from_client.read_exact(&mut prefix).is_err() {
            break; // the client sent fewer frames than the budget
        }
        let len = u32::from_be_bytes(prefix) as usize;
        let mut payload = vec![0u8; len];
        from_client.read_exact(&mut payload)?;
        to_server.write_all(&prefix)?;
        to_server.write_all(&payload)?;
        to_server.flush()?;
        forwarded += 1;
    }
    // Half-close: the server sees EOF on its read side but its write
    // side — and the relay back to the client — stays open.
    let _ = to_server.shutdown(Shutdown::Write);
    let mut from_server = server.try_clone()?;
    let mut to_client = client.try_clone()?;
    let _ = std::io::copy(&mut from_server, &mut to_client);
    let _ = client.shutdown(Shutdown::Both);
    let _ = server.shutdown(Shutdown::Both);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, WireError};
    use aceso_util::json::Value;

    /// An echo "daemon" that reads frames and answers each with three
    /// reply frames, so tests can count exactly where the cut lands.
    fn echo_server(replies_per_frame: usize) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut stream) = conn else { continue };
                while let Ok(v) = read_frame(&mut stream) {
                    for _ in 0..replies_per_frame {
                        if write_frame(&mut stream, &v).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn cuts_exactly_at_the_requested_frame_boundary() {
        let upstream = echo_server(3);
        let proxy = FaultProxy::start(&upstream, 2).expect("proxy starts");
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        write_frame(&mut stream, &Value::UInt(7)).expect("request goes through");
        // Exactly two of the three replies arrive intact…
        for _ in 0..2 {
            assert_eq!(read_frame(&mut stream).unwrap().as_u64().unwrap(), 7);
        }
        // …then the connection is severed at the boundary: a clean
        // close, never a torn frame.
        assert!(matches!(
            read_frame(&mut stream),
            Err(WireError::Closed | WireError::Io(_))
        ));
    }

    #[test]
    fn zero_frame_budget_cuts_before_any_response() {
        let upstream = echo_server(1);
        let proxy = FaultProxy::start(&upstream, 0).expect("proxy starts");
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        let _ = write_frame(&mut stream, &Value::UInt(1));
        assert!(read_frame(&mut stream).is_err(), "no frame may arrive");
    }

    /// Slow loris still delivers intact frames — just slowly. The
    /// timeout consequences are asserted against the real daemon in
    /// `tests/serve.rs`; here the proxy itself must not corrupt frames.
    #[test]
    fn slow_loris_delivers_intact_frames_byte_by_byte() {
        let upstream = echo_server(1);
        let proxy = FaultProxy::start_with(
            &upstream,
            FaultMode::SlowLoris {
                byte_delay: Duration::from_millis(1),
            },
        )
        .expect("proxy starts");
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        write_frame(&mut stream, &Value::UInt(42)).expect("request trickles through");
        assert_eq!(read_frame(&mut stream).unwrap().as_u64().unwrap(), 42);
    }

    /// Half-close after one frame: the server reads EOF, but the reply
    /// to the admitted frame still flows back; a second client frame
    /// never reaches the server.
    #[test]
    fn half_close_keeps_the_response_path_open() {
        let upstream = echo_server(1);
        let proxy =
            FaultProxy::start_with(&upstream, FaultMode::HalfCloseAfter(1)).expect("proxy starts");
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        write_frame(&mut stream, &Value::UInt(9)).expect("first frame forwarded");
        // The second frame is swallowed by the half-close, not an error
        // for the client's write side.
        let _ = write_frame(&mut stream, &Value::UInt(10));
        assert_eq!(
            read_frame(&mut stream).unwrap().as_u64().unwrap(),
            9,
            "the admitted frame's reply survives the half-close"
        );
        // After the echo server closes (EOF on its reads), the stream ends.
        assert!(matches!(
            read_frame(&mut stream),
            Err(WireError::Closed | WireError::Io(_))
        ));
    }
}
