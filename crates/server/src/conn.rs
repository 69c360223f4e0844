//! Per-connection session loop: handshake, request dispatch, drain.
//!
//! Each connection runs an [`ode_shell::Session`] over the shared
//! database, so every statement and meta-command of the local shell works
//! over the wire unchanged. Sockets are read with a short timeout so the
//! loop can poll the server's shutdown flag: on drain, a connection
//! finishes the request it is executing (and flushes the response), then
//! sends `Goodbye` and closes — no in-flight request is ever dropped.
//!
//! Subscriptions ride the same loop: a client's `Subscribe` control
//! op registers a predicate with the server's scheduler, whose sink
//! encodes `Push` frames into this connection's bounded outbox. The
//! outbox is flushed inside the poll loop *between* requests, so an
//! unsolicited push can never split a request's response frame. A full
//! outbox drops the oldest-pending push for that tick (slow consumer);
//! drops are counted, framing is never at risk.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ode_core::obs::flight::set_trace;
use ode_core::obs::TraceId;
use ode_sched::PushSink;
use ode_shell::{render_object, EvalResult, Session};
use ode_wire::protocol::{
    write_frame, ControlOp, ErrorKind, FrameReader, Request, Response, PROTOCOL_VERSION,
};

use crate::ServerState;

/// Most push frames buffered per connection before a slow consumer
/// starts losing them (each loss increments `push_dropped`).
const PUSH_OUTBOX_CAP: usize = 256;

/// Why the request-wait loop stopped.
enum Wait {
    /// A complete request frame arrived.
    Frame(Vec<u8>),
    /// The peer closed (EOF) or the socket failed.
    Closed,
    /// The server is draining and no complete request is pending.
    Draining,
    /// No complete request arrived within the idle budget.
    Idle,
    /// The pending frame exceeds the request-size limit.
    TooLarge,
}

pub(crate) fn serve(stream: TcpStream, state: &Arc<ServerState>) {
    let mut conn = Conn {
        stream,
        reader: FrameReader::new(),
        state: Arc::clone(state),
        outbox: Arc::new(Mutex::new(VecDeque::new())),
        subs: Vec::new(),
    };
    // Socket tuning failures are survivable (the connection still works,
    // just slower or without a write bound) but must not be silent.
    if conn.stream.set_nodelay(true).is_err() {
        state.tel.socket_errors.inc();
    }
    if conn
        .stream
        .set_read_timeout(Some(state.cfg.poll_interval))
        .is_err()
    {
        // Without a read timeout the poll loop would block forever and
        // never observe drain; refuse the connection instead.
        state.tel.socket_errors.inc();
        return;
    }
    if conn
        .stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .is_err()
    {
        state.tel.socket_errors.inc();
    }
    conn.run();
    conn.teardown();
}

struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    state: Arc<ServerState>,
    /// Encoded `Push` frames awaiting a flush slot between requests.
    /// Shared with the scheduler sinks of this connection's
    /// subscriptions, which run on scheduler worker threads.
    outbox: Arc<Mutex<VecDeque<Vec<u8>>>>,
    /// Subscription ids registered by this connection, retracted on
    /// teardown so a closed socket stops costing sub-check work.
    subs: Vec<u64>,
}

impl Conn {
    fn run(&mut self) {
        let state = Arc::clone(&self.state);
        let tel = &state.tel;

        // ------------------------------------------------- handshake
        let first = match self.wait_for_frame() {
            Wait::Frame(f) => f,
            Wait::TooLarge => {
                tel.handshake_failures.inc();
                self.send_best_effort(&Response::Error {
                    kind: ErrorKind::TooLarge,
                    message: "handshake frame exceeds request-size limit".into(),
                });
                return;
            }
            _ => {
                tel.handshake_failures.inc();
                return;
            }
        };
        let refusal = match Request::decode(&first) {
            Ok(Request::Hello {
                version: PROTOCOL_VERSION,
            }) => None,
            Ok(Request::Hello { version }) => Some(format!(
                "server speaks protocol v{PROTOCOL_VERSION}, client sent v{version}"
            )),
            _ => Some("first frame must be Hello".into()),
        };
        if let Some(message) = refusal {
            tel.handshake_failures.inc();
            self.send_best_effort(&Response::Error {
                kind: ErrorKind::Protocol,
                message,
            });
            return;
        }
        if self
            .send(&Response::Welcome {
                version: PROTOCOL_VERSION,
            })
            .is_err()
        {
            return;
        }

        // ---------------------------------------------- request loop
        let mut session = Session::remote(Arc::clone(&self.state.db));
        loop {
            let frame = match self.wait_for_frame() {
                Wait::Frame(f) => f,
                Wait::Closed => return,
                Wait::Draining | Wait::Idle => {
                    self.send_best_effort(&Response::Goodbye);
                    return;
                }
                Wait::TooLarge => {
                    // Framing is lost past an oversized header; refuse and
                    // close rather than desynchronize.
                    self.send_best_effort(&Response::Error {
                        kind: ErrorKind::TooLarge,
                        message: format!(
                            "request exceeds the {}-byte limit",
                            self.state.cfg.max_request_bytes
                        ),
                    });
                    return;
                }
            };
            let req = match Request::decode(&frame) {
                Ok(r) => r,
                Err(e) => {
                    self.send_best_effort(&Response::Error {
                        kind: ErrorKind::Protocol,
                        message: e.to_string(),
                    });
                    return;
                }
            };
            tel.requests.inc();
            let resp = match req {
                Request::Hello { .. } => {
                    self.send_best_effort(&Response::Error {
                        kind: ErrorKind::Protocol,
                        message: "session already handshaken".into(),
                    });
                    return;
                }
                Request::Bye => {
                    self.send_best_effort(&Response::Goodbye);
                    return;
                }
                Request::Control(op) => self.control(op),
                Request::TracedLine { trace, text } => {
                    match self.eval_line(&mut session, TraceId(trace), &text) {
                        Some(resp) => resp,
                        None => {
                            self.send_best_effort(&Response::Goodbye);
                            return;
                        }
                    }
                }
            };
            if self.send(&resp).is_err() {
                return;
            }
        }
    }

    /// Evaluate one statement line under the client's trace id. `None`
    /// means the session asked to exit.
    fn eval_line(&mut self, session: &mut Session, trace: TraceId, text: &str) -> Option<Response> {
        let tel = &self.state.tel;
        // Install the client-minted trace id for this thread so every
        // span the engine records below lands in the client's trace; the
        // guard restores the previous (untraced) context on return.
        let _ctx = trace.is_traced().then(|| set_trace(trace));
        let started = Instant::now();
        let outcome = session.eval_line(text);
        let elapsed = started.elapsed();
        tel.request_latency.record_ns(elapsed.as_nanos() as u64);
        if elapsed > self.state.cfg.request_timeout {
            tel.timed_out.inc();
            return Some(Response::Error {
                kind: ErrorKind::Timeout,
                message: format!(
                    "request took {elapsed:.1?}, budget is {:.1?}",
                    self.state.cfg.request_timeout
                ),
            });
        }
        match outcome {
            EvalResult::Output(out) => Some(Response::Output(out)),
            EvalResult::Continue => Some(Response::Continue),
            EvalResult::Error(e) => {
                tel.engine_errors.inc();
                Some(Response::Error {
                    kind: error_kind(&e),
                    message: e.to_string(),
                })
            }
            EvalResult::Exit => None,
        }
    }

    fn control(&mut self, op: ControlOp) -> Response {
        let out = match op {
            ControlOp::Ping => "pong".to_string(),
            ControlOp::ServerStats => {
                let mut out = String::new();
                for (k, v) in self.state.tel.snapshot().rows() {
                    let _ = writeln!(out, "{k:<32} {v}");
                }
                out.trim_end().to_string()
            }
            ControlOp::TelemetryJson => self.state.db.telemetry().to_json(),
            ControlOp::Metrics => self.state.metrics_text(),
            ControlOp::Trace(id) => self.state.db.flight().render_trace(TraceId(id)),
            ControlOp::SlowLog => self.state.db.slow_log().render(),
            ControlOp::Subscribe { cluster, predicate } => {
                return self.subscribe(&cluster, &predicate)
            }
            ControlOp::Unsubscribe(id) => return self.unsubscribe(id),
        };
        Response::Output(out)
    }

    /// Register a live subscription: matching commits will arrive as
    /// unsolicited `Push` frames. The sink runs on scheduler worker
    /// threads and only encodes + enqueues — socket writes stay on this
    /// connection's own thread.
    fn subscribe(&mut self, cluster: &str, predicate: &str) -> Response {
        let state = Arc::clone(&self.state);
        let outbox = Arc::clone(&self.outbox);
        let sink: PushSink = Arc::new(move |m| {
            // The object as `.show` prints it, or the bare oid if it
            // vanished between the match and this snapshot read.
            let object = state
                .db
                .read(|rtx| render_object(rtx, m.oid))
                .unwrap_or_else(|_| m.oid.to_string());
            let payload = Response::Push {
                sub_id: m.sub_id,
                epoch: m.epoch,
                object,
            }
            .encode();
            let mut q = outbox.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() >= PUSH_OUTBOX_CAP {
                state.tel.push_dropped.inc();
            } else {
                q.push_back(payload);
                state.tel.push_outbox_depth.inc();
            }
        });
        match self.state.sched.subscribe(cluster, predicate, sink) {
            Ok(id) => {
                self.subs.push(id);
                self.state.tel.subscriptions.inc();
                Response::Output(id.to_string())
            }
            Err(e) => Response::Error {
                kind: error_kind(&e),
                message: e.to_string(),
            },
        }
    }

    /// Retract a subscription. Only ids this connection registered are
    /// honored — one client cannot silence another's stream.
    fn unsubscribe(&mut self, id: u64) -> Response {
        match self.subs.iter().position(|&s| s == id) {
            Some(i) if self.state.sched.unsubscribe(id) => {
                self.subs.remove(i);
                self.state.tel.subscriptions.dec();
                Response::Output(format!("unsubscribed {id}"))
            }
            _ => Response::Error {
                kind: ErrorKind::Engine,
                message: format!("no subscription {id} on this connection"),
            },
        }
    }

    /// Connection teardown: retract this connection's subscriptions so a
    /// closed socket stops costing sub-check work, and account pushes
    /// still buffered (they will never be written) as dropped.
    fn teardown(&mut self) {
        let tel = &self.state.tel;
        for id in self.subs.drain(..) {
            if self.state.sched.unsubscribe(id) {
                tel.subscriptions.dec();
            }
        }
        let mut q = self.outbox.lock().unwrap_or_else(|e| e.into_inner());
        while q.pop_front().is_some() {
            tel.push_outbox_depth.dec();
            tel.push_dropped.inc();
        }
    }

    /// Write buffered push frames to the peer. Called only from the
    /// request-wait loop, between requests, so a push can never
    /// interleave with a response frame.
    fn flush_pushes(&mut self) -> std::io::Result<()> {
        loop {
            let payload = {
                let mut q = self.outbox.lock().unwrap_or_else(|e| e.into_inner());
                match q.pop_front() {
                    Some(p) => {
                        self.state.tel.push_outbox_depth.dec();
                        p
                    }
                    None => return Ok(()),
                }
            };
            self.state.tel.bytes_out.add(payload.len() as u64 + 4);
            write_frame(&mut self.stream, &payload)?;
            self.state.tel.pushes_sent.inc();
        }
    }

    /// Block (in poll-interval ticks) until a complete request frame is
    /// available, the peer hangs up, the idle budget expires, or the
    /// server starts draining.
    fn wait_for_frame(&mut self) -> Wait {
        let deadline = Instant::now() + self.state.cfg.idle_timeout;
        loop {
            match self.reader.next_frame(self.state.cfg.max_request_bytes) {
                Ok(Some(frame)) => return Wait::Frame(frame),
                Ok(None) => {}
                Err(_) => return Wait::TooLarge,
            }
            // Between requests is the safe window for unsolicited
            // frames; a failed push write means the peer is gone.
            if self.flush_pushes().is_err() {
                return Wait::Closed;
            }
            if self.state.draining() {
                return Wait::Draining;
            }
            if Instant::now() > deadline {
                return Wait::Idle;
            }
            match self.reader.read_from(&mut self.stream) {
                Ok(0) => return Wait::Closed,
                Ok(n) => self.state.tel.bytes_in.add(n as u64),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Wait::Closed,
            }
        }
    }

    fn send(&mut self, resp: &Response) -> std::io::Result<()> {
        let frame = resp.frame();
        self.state.tel.bytes_out.add(frame.wire_len() as u64);
        frame.write_to(&mut self.stream)
    }

    fn send_best_effort(&mut self, resp: &Response) {
        let _ = self.send(resp);
    }
}

/// Map an engine error to its wire kind. `Cascade` tells the client the
/// triggering commit itself succeeded (weak coupling) — only the
/// decoupled action chain was cut off — so retrying the statement won't
/// help and would double-apply it.
fn error_kind(e: &ode_core::OdeError) -> ErrorKind {
    match e {
        ode_core::OdeError::Analysis(_) => ErrorKind::Analysis,
        ode_core::OdeError::TriggerCascade { .. } => ErrorKind::Cascade,
        e if e.is_unavailable() => ErrorKind::Unavailable,
        _ => ErrorKind::Engine,
    }
}
