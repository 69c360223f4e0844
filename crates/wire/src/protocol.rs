//! Frames and messages.
//!
//! Every message travels in one *frame*: a 4-byte big-endian payload
//! length followed by the payload. The first payload byte is a tag; the
//! rest is tag-specific. Strings are UTF-8 and unframed (the frame length
//! delimits them); integers are big-endian.
//!
//! A session opens with a handshake: the client's first frame must be
//! [`Request::Hello`] carrying [`PROTOCOL_VERSION`], answered by
//! [`Response::Welcome`] with the same version (or a typed
//! [`Response::Error`] — admission rejection, draining shutdown, version
//! mismatch). There is exactly one protocol version: any other is refused
//! with a well-framed `Protocol` error rather than a desync. After the
//! handshake the client sends one request per frame and reads exactly
//! one response per request, in order. Every line is a
//! [`Request::TracedLine`] carrying a client-minted trace id for the
//! flight recorder.
//!
//! The one exception to request/response order is [`Response::Push`]:
//! after a `Subscribe` control op, a server may send pushes *unsolicited*,
//! so a client must tolerate them interleaved before any response.

use std::io::{self, Read, Write};

/// The protocol revision, the only one a server accepts. Bumped on any
/// frame change.
pub const PROTOCOL_VERSION: u16 = 3;

/// Hard ceiling on any frame this crate will read (64 MiB) — a defense
/// against garbage length prefixes, independent of the server's own
/// (smaller, configurable) request-size limit.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

// ----------------------------------------------------------- raw frames

/// Write one frame: `u32` BE payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame (blocking). `max_len` bounds the accepted payload
/// size; an oversized or truncated frame is an `InvalidData` error.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> io::Result<Vec<u8>> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = u32::from_be_bytes(hdr);
    if len > max_len.min(MAX_FRAME_BYTES) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// An incremental frame assembler for non-blocking readers: push raw
/// bytes as they arrive, pop complete frames as they become available.
/// (The server reads sockets with a short timeout so it can poll its
/// shutdown flag; `read_exact` cannot resume across such timeouts.)
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A fresh empty assembler.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Append newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame, if one has fully arrived. Returns an
    /// error if the pending frame's declared length exceeds `max_len`
    /// (the connection is then unrecoverable — framing is lost).
    pub fn next_frame(&mut self, max_len: u32) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > max_len.min(MAX_FRAME_BYTES) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit of {max_len}"),
            ));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }
}

// ------------------------------------------------------------- messages

/// Control operations — requests that bypass statement dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlOp {
    /// Liveness probe; answered with [`Response::Output`] (`"pong"`).
    Ping,
    /// Serving-layer telemetry (`.server`): accepted/rejected/timed-out
    /// counters, byte counts, request-latency histogram.
    ServerStats,
    /// The full engine telemetry snapshot as JSON.
    TelemetryJson,
    /// Prometheus text-format exposition of every metric.
    Metrics,
    /// The span tree of one trace from the flight recorder.
    Trace(u64),
    /// The slow-query log, rendered.
    SlowLog,
    /// Register a live subscription: `predicate` is evaluated over
    /// every object of `cluster` (deep extent) written by any commit, and
    /// matches arrive asynchronously as [`Response::Push`] frames.
    /// Answered with [`Response::Output`] carrying the subscription id as
    /// a decimal string.
    Subscribe {
        /// Cluster (class) name whose writes are watched.
        cluster: String,
        /// O++ boolean expression over the object's fields.
        predicate: String,
    },
    /// Cancel a subscription by id. Pushes already in flight may
    /// still arrive after the acknowledgement.
    Unsubscribe(u64),
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake: must be the first frame of a session.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// One shell input line (statement, meta-command, or a continuation
    /// line of a multi-line class declaration) plus the client-minted
    /// trace id that the server installs around its execution.
    TracedLine {
        /// The client-minted trace id (nonzero).
        trace: u64,
        /// The input line.
        text: String,
    },
    /// A control operation.
    Control(ControlOp),
    /// Orderly goodbye; the server answers [`Response::Goodbye`] and
    /// closes.
    Bye,
}

/// Why a request (or connection) was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame, unknown tag, handshake violation, or version
    /// mismatch. The connection is closed after this error.
    Protocol,
    /// The engine rejected the statement (parse error, constraint
    /// violation, unknown class, …). The session continues.
    Engine,
    /// Execution exceeded the server's per-request budget.
    Timeout,
    /// Admission control: the server is at its connection limit.
    Admission,
    /// The server is draining for shutdown.
    Shutdown,
    /// The request frame exceeded the server's size limit.
    TooLarge,
    /// The static analyzer rejected the statement before execution
    /// (unknown member, type mismatch, contradictory constraint, …).
    /// No transaction was opened; the session continues.
    Analysis,
    /// A transient storage failure (ENOSPC, a flaky disk) aborted the
    /// request after the engine's own retry budget ran out. The session
    /// survives and the request is safe to retry after a backoff
    /// (DESIGN.md §10).
    Unavailable,
    /// A trigger cascade hit the engine's depth limit. The
    /// triggering commit itself succeeded — weak coupling — but the
    /// over-limit tail of the cascade was cut and dead-lettered. The
    /// session continues; retrying will not help until the trigger graph
    /// is fixed.
    Cascade,
}

impl ErrorKind {
    fn to_byte(self) -> u8 {
        match self {
            ErrorKind::Protocol => 1,
            ErrorKind::Engine => 2,
            ErrorKind::Timeout => 3,
            ErrorKind::Admission => 4,
            ErrorKind::Shutdown => 5,
            ErrorKind::TooLarge => 6,
            ErrorKind::Analysis => 7,
            ErrorKind::Unavailable => 8,
            ErrorKind::Cascade => 9,
        }
    }

    fn from_byte(b: u8) -> Option<ErrorKind> {
        Some(match b {
            1 => ErrorKind::Protocol,
            2 => ErrorKind::Engine,
            3 => ErrorKind::Timeout,
            4 => ErrorKind::Admission,
            5 => ErrorKind::Shutdown,
            6 => ErrorKind::TooLarge,
            7 => ErrorKind::Analysis,
            8 => ErrorKind::Unavailable,
            9 => ErrorKind::Cascade,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Engine => "engine",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Admission => "admission",
            ErrorKind::Shutdown => "shutdown",
            ErrorKind::TooLarge => "too-large",
            ErrorKind::Analysis => "analysis",
            ErrorKind::Unavailable => "unavailable",
            ErrorKind::Cascade => "cascade",
        };
        f.write_str(s)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake accepted.
    Welcome {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Successful output (possibly empty) of a line or control op.
    Output(String),
    /// The line was absorbed; the statement needs more input lines
    /// (multi-line class declaration).
    Continue,
    /// A typed error. [`ErrorKind::Engine`] and [`ErrorKind::Timeout`]
    /// leave the session usable; every other kind closes it.
    Error {
        /// Error category.
        kind: ErrorKind,
        /// Human-oriented detail.
        message: String,
    },
    /// The session is over (after [`Request::Bye`], a `.exit`, or a
    /// server drain); the server closes the connection after sending it.
    Goodbye,
    /// An asynchronous subscription match: a commit wrote an object
    /// of the subscribed cluster that satisfies the predicate. The only
    /// unsolicited frame in the protocol — it may arrive between a
    /// request and its response, and clients must buffer it.
    Push {
        /// The subscription that matched.
        sub_id: u64,
        /// Commit epoch of the matching write.
        epoch: u64,
        /// Rendered identity of the matching object.
        object: String,
    },
}

const TAG_HELLO: u8 = 0x01;
// 0x02 was the untraced line of protocol v1; it is no longer accepted.
const TAG_CONTROL: u8 = 0x03;
const TAG_BYE: u8 = 0x04;
const TAG_TRACED_LINE: u8 = 0x05;
const TAG_WELCOME: u8 = 0x81;
const TAG_OUTPUT: u8 = 0x82;
const TAG_CONTINUE: u8 = 0x83;
const TAG_ERROR: u8 = 0x84;
const TAG_GOODBYE: u8 = 0x85;
const TAG_PUSH: u8 = 0x86;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Request {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Hello { version } => {
                let mut out = vec![TAG_HELLO];
                out.extend_from_slice(&version.to_be_bytes());
                out
            }
            Request::TracedLine { trace, text } => {
                let mut out = Vec::with_capacity(9 + text.len());
                out.push(TAG_TRACED_LINE);
                out.extend_from_slice(&trace.to_be_bytes());
                out.extend_from_slice(text.as_bytes());
                out
            }
            Request::Control(op) => match op {
                ControlOp::Ping => vec![TAG_CONTROL, 1],
                ControlOp::ServerStats => vec![TAG_CONTROL, 2],
                ControlOp::TelemetryJson => vec![TAG_CONTROL, 3],
                ControlOp::Metrics => vec![TAG_CONTROL, 4],
                ControlOp::Trace(id) => {
                    let mut out = vec![TAG_CONTROL, 5];
                    out.extend_from_slice(&id.to_be_bytes());
                    out
                }
                ControlOp::SlowLog => vec![TAG_CONTROL, 6],
                ControlOp::Subscribe { cluster, predicate } => {
                    let mut out = vec![TAG_CONTROL, 7];
                    out.extend_from_slice(&(cluster.len() as u16).to_be_bytes());
                    out.extend_from_slice(cluster.as_bytes());
                    out.extend_from_slice(predicate.as_bytes());
                    out
                }
                ControlOp::Unsubscribe(id) => {
                    let mut out = vec![TAG_CONTROL, 8];
                    out.extend_from_slice(&id.to_be_bytes());
                    out
                }
            },
            Request::Bye => vec![TAG_BYE],
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Request> {
        let (&tag, rest) = payload.split_first().ok_or_else(|| bad("empty frame"))?;
        match tag {
            TAG_HELLO => {
                let bytes: [u8; 2] = rest
                    .try_into()
                    .map_err(|_| bad("hello frame must carry a u16 version"))?;
                Ok(Request::Hello {
                    version: u16::from_be_bytes(bytes),
                })
            }
            TAG_TRACED_LINE => {
                if rest.len() < 8 {
                    return Err(bad("traced line missing trace id"));
                }
                let trace = u64::from_be_bytes(rest[..8].try_into().unwrap());
                let text = std::str::from_utf8(&rest[8..]).map_err(|_| bad("line is not UTF-8"))?;
                Ok(Request::TracedLine {
                    trace,
                    text: text.to_string(),
                })
            }
            TAG_CONTROL => match rest {
                [1] => Ok(Request::Control(ControlOp::Ping)),
                [2] => Ok(Request::Control(ControlOp::ServerStats)),
                [3] => Ok(Request::Control(ControlOp::TelemetryJson)),
                [4] => Ok(Request::Control(ControlOp::Metrics)),
                [5, id @ ..] if id.len() == 8 => Ok(Request::Control(ControlOp::Trace(
                    u64::from_be_bytes(id.try_into().unwrap()),
                ))),
                [6] => Ok(Request::Control(ControlOp::SlowLog)),
                [7, body @ ..] => {
                    if body.len() < 2 {
                        return Err(bad("subscribe op missing cluster length"));
                    }
                    let n = u16::from_be_bytes([body[0], body[1]]) as usize;
                    if body.len() < 2 + n {
                        return Err(bad("subscribe op truncated cluster name"));
                    }
                    let cluster = std::str::from_utf8(&body[2..2 + n])
                        .map_err(|_| bad("cluster name is not UTF-8"))?
                        .to_string();
                    let predicate = std::str::from_utf8(&body[2 + n..])
                        .map_err(|_| bad("predicate is not UTF-8"))?
                        .to_string();
                    Ok(Request::Control(ControlOp::Subscribe {
                        cluster,
                        predicate,
                    }))
                }
                [8, id @ ..] if id.len() == 8 => Ok(Request::Control(ControlOp::Unsubscribe(
                    u64::from_be_bytes(id.try_into().unwrap()),
                ))),
                _ => Err(bad("unknown control op")),
            },
            TAG_BYE => Ok(Request::Bye),
            other => Err(bad(format!("unknown request tag {other:#04x}"))),
        }
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Welcome { version } => {
                let mut out = vec![TAG_WELCOME];
                out.extend_from_slice(&version.to_be_bytes());
                out
            }
            Response::Output(text) => {
                let mut out = Vec::with_capacity(1 + text.len());
                out.push(TAG_OUTPUT);
                out.extend_from_slice(text.as_bytes());
                out
            }
            Response::Continue => vec![TAG_CONTINUE],
            Response::Error { kind, message } => {
                let mut out = Vec::with_capacity(2 + message.len());
                out.push(TAG_ERROR);
                out.push(kind.to_byte());
                out.extend_from_slice(message.as_bytes());
                out
            }
            Response::Goodbye => vec![TAG_GOODBYE],
            Response::Push {
                sub_id,
                epoch,
                object,
            } => {
                let mut out = Vec::with_capacity(17 + object.len());
                out.push(TAG_PUSH);
                out.extend_from_slice(&sub_id.to_be_bytes());
                out.extend_from_slice(&epoch.to_be_bytes());
                out.extend_from_slice(object.as_bytes());
                out
            }
        }
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Response> {
        let (&tag, rest) = payload.split_first().ok_or_else(|| bad("empty frame"))?;
        match tag {
            TAG_WELCOME => {
                let bytes: [u8; 2] = rest
                    .try_into()
                    .map_err(|_| bad("welcome frame must carry a u16 version"))?;
                Ok(Response::Welcome {
                    version: u16::from_be_bytes(bytes),
                })
            }
            TAG_OUTPUT => {
                let text = std::str::from_utf8(rest).map_err(|_| bad("output is not UTF-8"))?;
                Ok(Response::Output(text.to_string()))
            }
            TAG_CONTINUE => Ok(Response::Continue),
            TAG_ERROR => {
                let (&kind, msg) = rest
                    .split_first()
                    .ok_or_else(|| bad("error frame missing kind"))?;
                let kind = ErrorKind::from_byte(kind)
                    .ok_or_else(|| bad(format!("unknown error kind {kind}")))?;
                let message = std::str::from_utf8(msg)
                    .map_err(|_| bad("error message is not UTF-8"))?
                    .to_string();
                Ok(Response::Error { kind, message })
            }
            TAG_GOODBYE => Ok(Response::Goodbye),
            TAG_PUSH => {
                if rest.len() < 16 {
                    return Err(bad("push frame missing ids"));
                }
                let sub_id = u64::from_be_bytes(rest[..8].try_into().unwrap());
                let epoch = u64::from_be_bytes(rest[8..16].try_into().unwrap());
                let object = std::str::from_utf8(&rest[16..])
                    .map_err(|_| bad("push object is not UTF-8"))?
                    .to_string();
                Ok(Response::Push {
                    sub_id,
                    epoch,
                    object,
                })
            }
            other => Err(bad(format!("unknown response tag {other:#04x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_req(Request::TracedLine {
            trace: 0xdead_beef_cafe,
            text: "update …".into(),
        });
        roundtrip_req(Request::TracedLine {
            trace: 1,
            text: String::new(),
        });
        roundtrip_req(Request::Control(ControlOp::Ping));
        roundtrip_req(Request::Control(ControlOp::ServerStats));
        roundtrip_req(Request::Control(ControlOp::TelemetryJson));
        roundtrip_req(Request::Control(ControlOp::Metrics));
        roundtrip_req(Request::Control(ControlOp::Trace(42)));
        roundtrip_req(Request::Control(ControlOp::SlowLog));
        roundtrip_req(Request::Control(ControlOp::Subscribe {
            cluster: "stockitem".into(),
            predicate: "quantity < 20 && name != \"x\"".into(),
        }));
        roundtrip_req(Request::Control(ControlOp::Subscribe {
            cluster: String::new(),
            predicate: String::new(),
        }));
        roundtrip_req(Request::Control(ControlOp::Unsubscribe(7)));
        roundtrip_req(Request::Bye);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Welcome { version: 7 });
        roundtrip_resp(Response::Output("3 row(s)".into()));
        roundtrip_resp(Response::Continue);
        for kind in [
            ErrorKind::Protocol,
            ErrorKind::Engine,
            ErrorKind::Timeout,
            ErrorKind::Admission,
            ErrorKind::Shutdown,
            ErrorKind::TooLarge,
            ErrorKind::Analysis,
            ErrorKind::Unavailable,
            ErrorKind::Cascade,
        ] {
            roundtrip_resp(Response::Error {
                kind,
                message: format!("{kind} happened"),
            });
        }
        roundtrip_resp(Response::Goodbye);
        roundtrip_resp(Response::Push {
            sub_id: 3,
            epoch: 99,
            object: "stockitem:4:2.1".into(),
        });
        roundtrip_resp(Response::Push {
            sub_id: u64::MAX,
            epoch: 0,
            object: String::new(),
        });
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[0xff]).is_err());
        assert!(Request::decode(&[TAG_HELLO, 1]).is_err()); // truncated version
        assert!(Request::decode(&[TAG_CONTROL, 99]).is_err());
        assert!(Request::decode(&[TAG_TRACED_LINE, 1, 2]).is_err()); // short id
        assert!(Request::decode(&[TAG_CONTROL, 5, 1]).is_err()); // short trace op
        assert!(Request::decode(&[TAG_CONTROL, 7, 0]).is_err()); // short sub header
        assert!(Request::decode(&[TAG_CONTROL, 7, 0, 9, b'x']).is_err()); // truncated cluster
        assert!(Request::decode(&[TAG_CONTROL, 8, 1]).is_err()); // short unsubscribe id
        assert!(Response::decode(&[TAG_ERROR]).is_err());
        assert!(Response::decode(&[TAG_ERROR, 99]).is_err());
        assert!(Response::decode(&[TAG_PUSH, 1, 2, 3]).is_err()); // short push
        let mut bad_utf8 = vec![TAG_TRACED_LINE];
        bad_utf8.extend_from_slice(&7u64.to_be_bytes());
        bad_utf8.push(0xc3);
        assert!(Request::decode(&bad_utf8).is_err()); // invalid UTF-8
        assert!(Request::decode(&[0x02, b'x']).is_err()); // retired v1 line
    }

    #[test]
    fn frame_io_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"");
        assert!(read_frame(&mut r, 1024).is_err()); // EOF
    }

    #[test]
    fn read_frame_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 64]).unwrap();
        let err = read_frame(&mut &buf[..], 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_reader_handles_partial_arrival() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"defgh").unwrap();
        let mut fr = FrameReader::new();
        // Feed a byte at a time; frames pop exactly when complete.
        let mut got = Vec::new();
        for &b in &wire {
            fr.push(&[b]);
            while let Some(frame) = fr.next_frame(1024).unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"defgh".to_vec()]);
        assert_eq!(fr.pending_bytes(), 0);
    }

    #[test]
    fn frame_reader_rejects_oversize_header() {
        let mut fr = FrameReader::new();
        fr.push(&u32::to_be_bytes(1 << 20));
        assert!(fr.next_frame(1024).is_err());
    }
}
