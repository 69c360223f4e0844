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

use std::io::{self, IoSlice, Read, Write};

/// The protocol revision, the only one a server accepts. Bumped on any
/// frame change.
pub const PROTOCOL_VERSION: u16 = 3;

/// Hard ceiling on any frame this crate will read (64 MiB) — a defense
/// against garbage length prefixes, independent of the server's own
/// (smaller, configurable) request-size limit.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

// ----------------------------------------------------------- raw frames

/// Write one frame: `u32` BE payload length, then the payload, in one
/// vectored write (see [`Frame`]).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    Frame {
        head: [0; HEAD_MAX],
        head_len: 0,
        body: [payload, &[]],
    }
    .write_to(w)
}

/// Read one frame (blocking). `max_len` bounds the accepted payload
/// size; an oversized or truncated frame is an `InvalidData` error.
///
/// It reads the header and the payload separately, so it suits a reader
/// that holds whole frames (a byte slice); a socket is read through a
/// [`FrameReader`], which takes a frame in one read when it has arrived.
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

/// The longest fixed-width head of any message: a push's tag and two ids.
const HEAD_MAX: usize = 17;

/// One message as it goes on the wire, borrowed from the message: a head
/// (the tag and the fixed-width fields) and at most two variable-length
/// body slices (a string, or a subscription's cluster and predicate).
///
/// [`Frame::write_to`] sends the length prefix, the head and the body in
/// one vectored write and copies no body byte. Both ends set
/// `TCP_NODELAY`, so a frame written in two calls crossed loopback as two
/// segments and woke its reader twice (DESIGN.md §7).
#[derive(Debug)]
pub struct Frame<'a> {
    head: [u8; HEAD_MAX],
    head_len: usize,
    body: [&'a [u8]; 2],
}

impl<'a> Frame<'a> {
    fn new(tag: u8) -> Frame<'a> {
        let mut head = [0; HEAD_MAX];
        head[0] = tag;
        Frame {
            head,
            head_len: 1,
            body: [&[], &[]],
        }
    }

    /// Append fixed-width bytes to the head.
    fn put(mut self, bytes: &[u8]) -> Frame<'a> {
        self.head[self.head_len..self.head_len + bytes.len()].copy_from_slice(bytes);
        self.head_len += bytes.len();
        self
    }

    /// Append a body slice (at most two per frame). An empty slice adds
    /// no byte, so the first empty slot may take the next one.
    fn body(mut self, bytes: &'a [u8]) -> Frame<'a> {
        let free = usize::from(!self.body[0].is_empty());
        debug_assert!(
            self.body[free].is_empty(),
            "a frame has at most two body slices"
        );
        self.body[free] = bytes;
        self
    }

    /// A [`Request::TracedLine`] frame borrowing its text.
    pub fn traced_line(trace: u64, text: &'a str) -> Frame<'a> {
        Frame::new(TAG_TRACED_LINE)
            .put(&trace.to_be_bytes())
            .body(text.as_bytes())
    }

    fn payload_len(&self) -> usize {
        self.head_len + self.body[0].len() + self.body[1].len()
    }

    /// Bytes the frame takes on the wire, length prefix included.
    pub fn wire_len(&self) -> usize {
        4 + self.payload_len()
    }

    /// The frame's payload, copied into one buffer.
    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_len());
        out.extend_from_slice(&self.head[..self.head_len]);
        out.extend_from_slice(self.body[0]);
        out.extend_from_slice(self.body[1]);
        out
    }

    /// Write the frame in one `write_vectored` call, looping only when
    /// the writer takes part of it or is interrupted, then flush.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let len = u32::try_from(self.payload_len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds 4 GiB")
        })?;
        let prefix = len.to_be_bytes();
        let mut slices = [
            IoSlice::new(&prefix),
            IoSlice::new(&self.head[..self.head_len]),
            IoSlice::new(self.body[0]),
            IoSlice::new(self.body[1]),
        ];
        let mut bufs = &mut slices[..];
        while !bufs.is_empty() {
            match w.write_vectored(bufs) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failed to write whole frame",
                    ))
                }
                Ok(n) => IoSlice::advance_slices(&mut bufs, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

/// Bytes a [`FrameReader`] asks a read for when it does not yet know
/// the frame's length, or the frame lacks fewer.
const READ_MIN: usize = 4096;

/// The most a [`FrameReader`] asks one read for, however long the frame.
const READ_MAX: usize = 1 << 20;

/// The most buffer a [`FrameReader`] keeps between frames. A buffer grown
/// for a larger frame is given back once that frame is popped, so an idle
/// connection does not hold its largest reply.
const READ_KEEP: usize = 64 << 10;

/// An incremental frame assembler, the one both ends read sockets with:
/// read raw bytes as they arrive, pop complete frames as they become
/// available. Bytes of a frame not yet complete stay buffered
/// across a read that times out, so a reader may wait in short slices
/// (the server polls its shutdown flag; a client bounds its wait for a
/// push) without losing its place in the stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Received bytes are `buf[..filled]`; the rest is zeroed room the
    /// next read fills.
    buf: Vec<u8>,
    filled: usize,
}

impl FrameReader {
    /// A fresh empty assembler.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// One `read` from `r` straight into the buffer, asking for what the
    /// pending frame still lacks (so a frame that has arrived is usually
    /// taken whole), at least 4 KiB and at most 1 MiB. Returns the byte
    /// count, 0 at end of stream. A read error leaves the buffered bytes
    /// in place.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let lacking = self
            .declared_len()
            .map_or(0, |len| (4 + len as usize).saturating_sub(self.filled));
        let room = self.filled + lacking.clamp(READ_MIN, READ_MAX);
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        let n = r.read(&mut self.buf[self.filled..])?;
        self.filled += n;
        Ok(n)
    }

    /// Block until a complete frame is assembled, reading from `r` as
    /// needed. An error (a read timeout included) keeps the bytes read so
    /// far, so a later call resumes the same frame; end of stream is
    /// `UnexpectedEof`.
    pub fn read_frame(&mut self, r: &mut impl Read, max_len: u32) -> io::Result<Vec<u8>> {
        loop {
            if let Some(frame) = self.next_frame(max_len)? {
                return Ok(frame);
            }
            match self.read_from(r) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Pop the next complete frame, if one has fully arrived. Returns an
    /// error if the pending frame's declared length exceeds `max_len`
    /// (the connection is then unrecoverable — framing is lost).
    pub fn next_frame(&mut self, max_len: u32) -> io::Result<Option<Vec<u8>>> {
        let Some(len) = self.declared_len() else {
            return Ok(None);
        };
        if len > max_len.min(MAX_FRAME_BYTES) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds limit of {max_len}"),
            ));
        }
        let total = 4 + len as usize;
        if self.filled < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.copy_within(total..self.filled, 0);
        self.filled -= total;
        if self.buf.len() > READ_KEEP {
            self.buf.truncate(self.filled.max(READ_MIN));
            self.buf.shrink_to_fit();
        }
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.filled
    }

    /// The pending frame's payload length, once its header has arrived.
    fn declared_len(&self) -> Option<u32> {
        let hdr = self.buf.get(..4).filter(|_| self.filled >= 4)?;
        Some(u32::from_be_bytes(hdr.try_into().unwrap()))
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
        self.frame().payload()
    }

    /// The request's frame, borrowing its strings.
    pub fn frame(&self) -> Frame<'_> {
        match self {
            Request::Hello { version } => Frame::new(TAG_HELLO).put(&version.to_be_bytes()),
            Request::TracedLine { trace, text } => Frame::traced_line(*trace, text),
            Request::Control(op) => {
                let ctl = Frame::new(TAG_CONTROL);
                match op {
                    ControlOp::Ping => ctl.put(&[1]),
                    ControlOp::ServerStats => ctl.put(&[2]),
                    ControlOp::TelemetryJson => ctl.put(&[3]),
                    ControlOp::Metrics => ctl.put(&[4]),
                    ControlOp::Trace(id) => ctl.put(&[5]).put(&id.to_be_bytes()),
                    ControlOp::SlowLog => ctl.put(&[6]),
                    ControlOp::Subscribe { cluster, predicate } => ctl
                        .put(&[7])
                        .put(&(cluster.len() as u16).to_be_bytes())
                        .body(cluster.as_bytes())
                        .body(predicate.as_bytes()),
                    ControlOp::Unsubscribe(id) => ctl.put(&[8]).put(&id.to_be_bytes()),
                }
            }
            Request::Bye => Frame::new(TAG_BYE),
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
        self.frame().payload()
    }

    /// The response's frame, borrowing its strings.
    pub fn frame(&self) -> Frame<'_> {
        match self {
            Response::Welcome { version } => Frame::new(TAG_WELCOME).put(&version.to_be_bytes()),
            Response::Output(text) => Frame::new(TAG_OUTPUT).body(text.as_bytes()),
            Response::Continue => Frame::new(TAG_CONTINUE),
            Response::Error { kind, message } => Frame::new(TAG_ERROR)
                .put(&[kind.to_byte()])
                .body(message.as_bytes()),
            Response::Goodbye => Frame::new(TAG_GOODBYE),
            Response::Push {
                sub_id,
                epoch,
                object,
            } => Frame::new(TAG_PUSH)
                .put(&sub_id.to_be_bytes())
                .put(&epoch.to_be_bytes())
                .body(object.as_bytes()),
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
            assert_eq!(fr.read_from(&mut &[b][..]).unwrap(), 1);
            while let Some(frame) = fr.next_frame(1024).unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"defgh".to_vec()]);
        assert_eq!(fr.pending_bytes(), 0);
    }

    /// A writer that records each call and accepts at most `per_call`
    /// bytes of it, across slices.
    struct Recorder {
        bytes: Vec<u8>,
        calls: usize,
        per_call: usize,
    }

    impl Recorder {
        fn new(per_call: usize) -> Recorder {
            Recorder {
                bytes: Vec::new(),
                calls: 0,
                per_call,
            }
        }
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.per_call;
            for b in bufs {
                let n = b.len().min(room);
                self.bytes.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.per_call - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn one_write_call_per_frame() {
        let mut w = Recorder::new(usize::MAX);
        write_frame(&mut w, b"hello").unwrap();
        assert_eq!((w.calls, w.bytes.clone()), (1, framed(b"hello")));

        let reply = Response::Output("1 row(s)".into());
        let mut w = Recorder::new(usize::MAX);
        reply.frame().write_to(&mut w).unwrap();
        assert_eq!((w.calls, w.bytes), (1, framed(&reply.encode())));
    }

    #[test]
    fn partial_writes_yield_the_same_frame_bytes() {
        let requests = [
            Request::TracedLine {
                trace: 9,
                text: "forall s in stockitem".into(),
            },
            Request::Control(ControlOp::Subscribe {
                cluster: "stockitem".into(),
                predicate: "quantity < 20".into(),
            }),
            Request::Control(ControlOp::Subscribe {
                cluster: String::new(),
                predicate: "p".into(),
            }),
        ];
        let responses = [
            Response::Output("x = 2:2.0 (stockitem) { }".into()),
            Response::Push {
                sub_id: 1,
                epoch: 2,
                object: "obj".into(),
            },
            Response::Goodbye,
        ];
        let frames = requests
            .iter()
            .map(Request::frame)
            .chain(responses.iter().map(Response::frame))
            .chain([Frame::traced_line(9, "forall s in stockitem")]);
        for frame in frames {
            let mut whole = Recorder::new(usize::MAX);
            frame.write_to(&mut whole).unwrap();
            assert_eq!(whole.calls, 1);
            assert_eq!(whole.bytes, framed(&frame.payload()));
            assert_eq!(whole.bytes.len(), frame.wire_len());
            let mut trickle = Recorder::new(3);
            frame.write_to(&mut trickle).unwrap();
            assert_eq!(trickle.bytes, whole.bytes);
            assert_eq!(trickle.calls, whole.bytes.len().div_ceil(3));
        }
        let mut trickle = Recorder::new(3);
        write_frame(&mut trickle, b"defgh").unwrap();
        assert_eq!(trickle.bytes, framed(b"defgh"));
    }

    #[test]
    fn frame_reader_reads_and_resumes_across_errors() {
        use std::collections::VecDeque;

        /// Hands out its script one step per read: bytes, or an error.
        struct Script(VecDeque<io::Result<Vec<u8>>>);
        impl Read for Script {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.pop_front() {
                    Some(Ok(bytes)) => {
                        buf[..bytes.len()].copy_from_slice(&bytes);
                        Ok(bytes.len())
                    }
                    Some(Err(e)) => Err(e),
                    None => Ok(0),
                }
            }
        }

        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"defgh").unwrap();
        let timeout = || Err(io::Error::from(io::ErrorKind::WouldBlock));
        let mut r = Script(VecDeque::from([
            Ok(wire[..6].to_vec()),
            timeout(),
            Err(io::Error::from(io::ErrorKind::Interrupted)),
            Ok(wire[6..].to_vec()),
        ]));
        let mut fr = FrameReader::new();
        let err = fr.read_frame(&mut r, 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(fr.pending_bytes(), 6);
        assert_eq!(fr.read_frame(&mut r, 1024).unwrap(), b"abc");
        assert_eq!(fr.read_frame(&mut r, 1024).unwrap(), b"defgh");
        assert_eq!(fr.pending_bytes(), 0);
        let eof = fr.read_frame(&mut r, 1024).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_gives_back_a_buffer_grown_for_a_large_frame() {
        let big = vec![7u8; READ_KEEP + 1];
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"abc").unwrap();
        let mut r = &wire[..];
        let mut fr = FrameReader::new();
        while fr.read_from(&mut r).unwrap() > 0 {}
        assert_eq!(fr.next_frame(u32::MAX).unwrap().unwrap(), big);
        assert!(fr.buf.len() <= READ_KEEP);
        assert_eq!(fr.pending_bytes(), 7);
        assert_eq!(fr.next_frame(u32::MAX).unwrap().unwrap(), b"abc");
        // Small frames leave the buffer's room in place for the next read.
        assert_eq!(fr.buf.len(), READ_MIN);
        assert_eq!(fr.pending_bytes(), 0);
    }

    #[test]
    fn frame_reader_rejects_oversize_header() {
        let mut fr = FrameReader::new();
        fr.read_from(&mut &u32::to_be_bytes(1 << 20)[..]).unwrap();
        assert!(fr.next_frame(1024).is_err());
    }
}
