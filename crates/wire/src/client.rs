//! The blocking client: one `TcpStream`, one request in flight.
//!
//! [`ClientError`] is deliberately typed to keep *transport* failures
//! (connect refused, timeout, broken pipe — nothing reached the engine)
//! distinct from *engine* errors (the statement ran and was rejected:
//! parse error, constraint violation). Callers like `ode-shell
//! --connect` map the two classes to different exit codes.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    ControlOp, ErrorKind, Frame, FrameReader, Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};

/// Typed client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure: connect refused, I/O timeout, connection
    /// reset. The request may never have reached the server.
    Transport(String),
    /// The peer violated the wire protocol (bad frame, bad handshake).
    Protocol(String),
    /// Admission control refused the connection (server at capacity).
    Rejected(String),
    /// The server is draining for shutdown.
    ShuttingDown(String),
    /// The server gave up on the request (per-request budget exceeded).
    Timeout(String),
    /// The engine rejected the statement; the session remains usable.
    Engine(String),
    /// The request exceeded the server's frame-size limit.
    TooLarge(String),
    /// The static analyzer rejected the statement before execution; no
    /// transaction was opened and the session remains usable.
    Analysis(String),
    /// A transient storage failure on the server; the session survives
    /// and the request is safe to retry after a backoff (DESIGN.md §10).
    Unavailable(String),
    /// A trigger cascade hit the server's depth limit; the triggering
    /// commit itself succeeded (weak coupling) but the cascade tail was
    /// cut. The session remains usable; retrying will not help.
    Cascade(String),
}

impl ClientError {
    /// Is this a transport-class failure (as opposed to a server- or
    /// engine-reported one)?
    pub fn is_transport(&self) -> bool {
        matches!(self, ClientError::Transport(_))
    }

    /// Is this failure worth retrying after a backoff? True for the
    /// server's typed `Unavailable` (transient storage trouble; the
    /// session survives, so the same line can simply be re-sent).
    /// Transport errors are NOT retryable here: the connection state is
    /// unknown and the caller must reconnect first.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Unavailable(_))
    }

    fn from_io(e: io::Error) -> ClientError {
        ClientError::Transport(e.to_string())
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Rejected(m) => write!(f, "connection rejected: {m}"),
            ClientError::ShuttingDown(m) => write!(f, "server shutting down: {m}"),
            ClientError::Timeout(m) => write!(f, "request timed out: {m}"),
            ClientError::Engine(m) => write!(f, "{m}"),
            ClientError::TooLarge(m) => write!(f, "request too large: {m}"),
            ClientError::Analysis(m) => write!(f, "{m}"),
            ClientError::Unavailable(m) => write!(f, "server unavailable (retryable): {m}"),
            ClientError::Cascade(m) => write!(f, "trigger cascade limit exhausted: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Outcome of sending one input line to the remote session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteLine {
    /// The statement ran; here is its (possibly empty) output.
    Output(String),
    /// More input is needed (multi-line class declaration).
    Continue,
    /// The remote session ended (`.exit`, or the server drained).
    Goodbye,
}

/// Client-side backoff for retryable server errors
/// ([`ClientError::is_retryable`]). The delay doubles after each failed
/// attempt: `base_delay`, `2 × base_delay`, `4 × base_delay`, …
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 = fail immediately).
    pub attempts: u32,
    /// Sleep before the first retry; doubles each time.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 0,
            base_delay: Duration::ZERO,
        }
    }

    /// Backoff before retry number `attempt` (1-based).
    fn delay(&self, attempt: u32) -> Duration {
        self.base_delay
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
    }
}

/// An asynchronous subscription match delivered by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushEvent {
    /// The subscription that matched.
    pub sub_id: u64,
    /// Commit epoch of the matching write.
    pub epoch: u64,
    /// Rendered identity of the matching object.
    pub object: String,
}

/// A connected, handshaken session with an `ode-server`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Assembles the server's frames; bytes of a frame cut short by a
    /// read timeout stay here for the next read.
    reader: FrameReader,
    /// Trace-id minting state (every line is traced).
    next_trace: u64,
    /// The trace id attached to the most recent [`Client::line`].
    last_trace: u64,
    /// Pushes that arrived interleaved with request/response traffic,
    /// buffered for [`Client::next_push`].
    pending_pushes: VecDeque<PushEvent>,
}

impl Client {
    /// Connect and perform the protocol handshake. An admission-control
    /// rejection surfaces as [`ClientError::Rejected`], a draining server
    /// as [`ClientError::ShuttingDown`], a server speaking another
    /// protocol version as [`ClientError::Protocol`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::from_io)?;
        stream.set_nodelay(true).ok();
        // Seed trace minting so ids from concurrent clients rarely
        // collide; uniqueness is a convenience, not a requirement.
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1)
            ^ ((std::process::id() as u64) << 32);
        let mut client = Client {
            stream,
            reader: FrameReader::new(),
            next_trace: seed | 1,
            last_trace: 0,
            pending_pushes: VecDeque::new(),
        };
        client.send(
            Request::Hello {
                version: PROTOCOL_VERSION,
            }
            .frame(),
        )?;
        match client.recv()? {
            Response::Welcome {
                version: PROTOCOL_VERSION,
            } => Ok(client),
            Response::Welcome { version } => Err(ClientError::Protocol(format!(
                "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
            ))),
            Response::Error { kind, message } => Err(typed(kind, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected handshake response: {other:?}"
            ))),
        }
    }

    /// The trace id the most recent [`Client::line`] carried (0 before
    /// the first line).
    pub fn last_trace(&self) -> u64 {
        self.last_trace
    }

    /// Send one shell input line and read its response. The line carries
    /// a freshly minted trace id (readable afterwards via
    /// [`Client::last_trace`]) so the server records its spans under it.
    pub fn line(&mut self, text: &str) -> Result<RemoteLine, ClientError> {
        self.last_trace = self.next_trace;
        self.next_trace = self.next_trace.wrapping_add(2); // stays odd, never 0
        self.send(Frame::traced_line(self.last_trace, text))?;
        match self.recv()? {
            Response::Output(out) => Ok(RemoteLine::Output(out)),
            Response::Continue => Ok(RemoteLine::Continue),
            Response::Goodbye => Ok(RemoteLine::Goodbye),
            Response::Error { kind, message } => Err(typed(kind, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    /// [`Client::line`] with automatic backoff on retryable errors: when
    /// the server answers `Unavailable` (transient storage trouble — the
    /// session survives), sleep per `policy` and re-send the identical
    /// line. Every other error, and exhaustion of the retry budget,
    /// surfaces unchanged.
    pub fn line_with_retry(
        &mut self,
        text: &str,
        policy: RetryPolicy,
    ) -> Result<RemoteLine, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.line(text) {
                Err(e) if e.is_retryable() && attempt < policy.attempts => {
                    attempt += 1;
                    std::thread::sleep(policy.delay(attempt));
                }
                other => return other,
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.control(ControlOp::Ping)? {
            ref s if s == "pong" => Ok(()),
            other => Err(ClientError::Protocol(format!("ping answered `{other}`"))),
        }
    }

    /// Serving-layer telemetry, formatted as `name value` rows.
    pub fn server_stats(&mut self) -> Result<String, ClientError> {
        self.control(ControlOp::ServerStats)
    }

    /// The engine telemetry snapshot as JSON.
    pub fn telemetry_json(&mut self) -> Result<String, ClientError> {
        self.control(ControlOp::TelemetryJson)
    }

    /// Prometheus text-format metrics: engine, serving layer and workload.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        self.control(ControlOp::Metrics)
    }

    /// The rendered span tree of `trace` from the server's flight
    /// recorder.
    pub fn trace(&mut self, trace: u64) -> Result<String, ClientError> {
        self.control(ControlOp::Trace(trace))
    }

    /// The server's slow-query log, rendered.
    pub fn slow_log(&mut self) -> Result<String, ClientError> {
        self.control(ControlOp::SlowLog)
    }

    /// Register a live subscription: `predicate` is
    /// evaluated server-side against every object of `cluster` written by
    /// any commit; matches arrive asynchronously and are read with
    /// [`Client::next_push`]. Returns the subscription id.
    pub fn subscribe(&mut self, cluster: &str, predicate: &str) -> Result<u64, ClientError> {
        let out = self.control(ControlOp::Subscribe {
            cluster: cluster.to_string(),
            predicate: predicate.to_string(),
        })?;
        out.trim().parse().map_err(|_| {
            ClientError::Protocol(format!("subscribe answered non-numeric id `{out}`"))
        })
    }

    /// Cancel a subscription. Pushes already in flight may still be
    /// delivered afterwards.
    pub fn unsubscribe(&mut self, sub_id: u64) -> Result<(), ClientError> {
        self.control(ControlOp::Unsubscribe(sub_id))?;
        Ok(())
    }

    /// The next subscription push: a buffered one if any arrived
    /// interleaved with request/response traffic, otherwise wait for the
    /// server to send one, each socket read bounded by `wait`. `Ok(None)`
    /// means a read timed out without a whole push — no polling request
    /// is ever sent, and the part of a push already received is kept for
    /// the next call.
    pub fn next_push(&mut self, wait: Duration) -> Result<Option<PushEvent>, ClientError> {
        if let Some(p) = self.pending_pushes.pop_front() {
            return Ok(Some(p));
        }
        // Temporarily bound the read; the socket carries no other traffic
        // between requests, so anything that arrives is a push.
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))
            .map_err(ClientError::from_io)?;
        let result = self.reader.read_frame(&mut self.stream, MAX_FRAME_BYTES);
        self.stream
            .set_read_timeout(None)
            .map_err(ClientError::from_io)?;
        let payload = match result {
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            other => other.map_err(frame_error)?,
        };
        match Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))? {
            Response::Push {
                sub_id,
                epoch,
                object,
            } => Ok(Some(PushEvent {
                sub_id,
                epoch,
                object,
            })),
            other => Err(ClientError::Protocol(format!(
                "unsolicited non-push frame: {other:?}"
            ))),
        }
    }

    /// Orderly goodbye; consumes the client.
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.send(Request::Bye.frame())?;
        match self.recv()? {
            Response::Goodbye => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected bye response: {other:?}"
            ))),
        }
    }

    fn control(&mut self, op: ControlOp) -> Result<String, ClientError> {
        self.send(Request::Control(op).frame())?;
        match self.recv()? {
            Response::Output(out) => Ok(out),
            Response::Error { kind, message } => Err(typed(kind, message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected response: {other:?}"
            ))),
        }
    }

    fn send(&mut self, frame: Frame<'_>) -> Result<(), ClientError> {
        frame
            .write_to(&mut self.stream)
            .map_err(ClientError::from_io)
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        // Pushes are the one unsolicited frame: buffer any that
        // arrive ahead of the response we are actually waiting for.
        loop {
            let payload = self
                .reader
                .read_frame(&mut self.stream, MAX_FRAME_BYTES)
                .map_err(frame_error)?;
            match Response::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))? {
                Response::Push {
                    sub_id,
                    epoch,
                    object,
                } => self.pending_pushes.push_back(PushEvent {
                    sub_id,
                    epoch,
                    object,
                }),
                other => return Ok(other),
            }
        }
    }
}

/// A failed frame read: a bad frame is the peer's protocol violation,
/// anything else a transport failure.
fn frame_error(e: io::Error) -> ClientError {
    if e.kind() == io::ErrorKind::InvalidData {
        ClientError::Protocol(e.to_string())
    } else {
        ClientError::from_io(e)
    }
}

fn typed(kind: ErrorKind, message: String) -> ClientError {
    match kind {
        ErrorKind::Protocol => ClientError::Protocol(message),
        ErrorKind::Engine => ClientError::Engine(message),
        ErrorKind::Timeout => ClientError::Timeout(message),
        ErrorKind::Admission => ClientError::Rejected(message),
        ErrorKind::Shutdown => ClientError::ShuttingDown(message),
        ErrorKind::TooLarge => ClientError::TooLarge(message),
        ErrorKind::Analysis => ClientError::Analysis(message),
        ErrorKind::Unavailable => ClientError::Unavailable(message),
        ErrorKind::Cascade => ClientError::Cascade(message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_classification() {
        assert!(ClientError::Transport("refused".into()).is_transport());
        for e in [
            ClientError::Engine("parse".into()),
            ClientError::Rejected("full".into()),
            ClientError::Timeout("slow".into()),
            ClientError::Protocol("bad tag".into()),
        ] {
            assert!(!e.is_transport(), "{e}");
        }
    }

    #[test]
    fn connect_refused_is_transport() {
        // Port 1 on localhost is essentially never listening.
        let err = Client::connect("127.0.0.1:1").unwrap_err();
        assert!(err.is_transport(), "{err}");
    }

    #[test]
    fn typed_mapping_covers_all_kinds() {
        assert_eq!(
            typed(ErrorKind::Admission, "full".into()),
            ClientError::Rejected("full".into())
        );
        assert_eq!(
            typed(ErrorKind::Shutdown, "bye".into()),
            ClientError::ShuttingDown("bye".into())
        );
        assert_eq!(
            typed(ErrorKind::TooLarge, "big".into()),
            ClientError::TooLarge("big".into())
        );
        assert_eq!(
            typed(ErrorKind::Unavailable, "disk".into()),
            ClientError::Unavailable("disk".into())
        );
    }

    #[test]
    fn only_unavailable_is_retryable() {
        assert!(ClientError::Unavailable("enospc".into()).is_retryable());
        for e in [
            ClientError::Transport("refused".into()),
            ClientError::Engine("parse".into()),
            ClientError::Timeout("slow".into()),
            ClientError::Protocol("bad".into()),
            ClientError::Rejected("full".into()),
        ] {
            assert!(!e.is_retryable(), "{e}");
        }
    }

    #[test]
    fn next_push_keeps_a_push_cut_by_its_wait() {
        use crate::protocol::{read_frame, write_frame};
        use std::io::Write;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let push = Response::Push {
            sub_id: 7,
            epoch: 42,
            object: "2:2.0 (stockitem) { name: \"dram\" }".into(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &push.encode()).unwrap();
        let (resume, paused) = std::sync::mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            read_frame(&mut sock, MAX_FRAME_BYTES).unwrap(); // Hello
            let welcome = Response::Welcome {
                version: PROTOCOL_VERSION,
            };
            write_frame(&mut sock, &welcome.encode()).unwrap();
            // The push in two parts; the second waits until the client's
            // first wait has expired.
            sock.write_all(&wire[..10]).unwrap();
            paused.recv().unwrap();
            sock.write_all(&wire[10..]).unwrap();
            // Hold the socket open until the client hangs up.
            let _ = read_frame(&mut sock, MAX_FRAME_BYTES);
        });
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.next_push(Duration::from_millis(50)).unwrap(), None);
        resume.send(()).unwrap();
        let got = client.next_push(Duration::from_secs(5)).unwrap();
        assert_eq!(
            got,
            Some(PushEvent {
                sub_id: 7,
                epoch: 42,
                object: "2:2.0 (stockitem) { name: \"dram\" }".into(),
            })
        );
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn retry_policy_backoff_doubles() {
        let p = RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(10),
        };
        assert_eq!(p.delay(1), Duration::from_millis(10));
        assert_eq!(p.delay(2), Duration::from_millis(20));
        assert_eq!(p.delay(3), Duration::from_millis(40));
        assert_eq!(RetryPolicy::none().attempts, 0);
    }
}
