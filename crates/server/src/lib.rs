//! # ode-server
//!
//! A concurrent network front-end over one shared [`Database`]: the
//! paper's "database environment" grown into a multi-client serving
//! layer. Any number of remote shells (`ode-shell --connect`) execute
//! statements — DDL, `forall` queries, DML, `explain`, meta-commands —
//! against the same engine, each connection running its own
//! [`ode_shell::Session`] so the remote surface is exactly the local one.
//!
//! Architecture (DESIGN.md §7):
//!
//! * **Wire protocol** — length-prefixed frames with typed messages and a
//!   version handshake (crate `ode-wire`; re-exported as [`wire`]).
//! * **Sessions** — thread-per-connection over a blocking `TcpListener`.
//!   Mutating statements serialize behind the engine's writer gate, so
//!   those handler threads queue at `begin()`. Read-only statements
//!   (`forall`, `explain`, `.show`, `.versions`) run as snapshot read
//!   transactions ([`Database::begin_read`]) that never touch the gate,
//!   so query-heavy connections scale across threads (DESIGN.md §8);
//!   the serving layer's job is fairness and protection.
//! * **Decoupled triggers & live subscriptions** — the server attaches
//!   an [`ode_sched::Scheduler`] to the engine, so trigger actions fired
//!   by client commits run asynchronously on a worker pool instead of
//!   inline in the committing request. A client can register a
//!   predicate over a cluster (`ControlOp::Subscribe`) and receive
//!   unsolicited `Push` frames for matching commits, delivered through a
//!   per-connection bounded outbox drained between requests (slow
//!   consumers lose pushes, never corrupt framing; drops are counted).
//! * **Admission control** — a connection-count semaphore: past
//!   [`ServerConfig::max_connections`], new connections are refused with
//!   a typed `Admission` error before any engine work happens. Oversized
//!   request frames are refused with `TooLarge`; requests whose execution
//!   exceeds [`ServerConfig::request_timeout`] are answered with a typed
//!   `Timeout` error (enforcement is post-hoc — the engine is not
//!   preemptible — so the budget bounds *reporting*, not execution).
//! * **Graceful shutdown** — [`ServerHandle::shutdown`] stops accepting,
//!   lets every in-flight request finish and its response flush, sends
//!   `Goodbye` to idle connections, and drains within
//!   [`ServerConfig::drain_timeout`].
//! * **Telemetry** — [`ode_obs::ServerTelemetry`] counters (accepted,
//!   rejected-at-admission, timed-out, bytes in/out, request-latency
//!   histogram), surfaced over the wire via the `.server` control op.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ode_core::Database;
use ode_obs::{ServerSnapshot, ServerTelemetry};
use ode_sched::{SchedConfig, Scheduler};
use ode_wire::protocol::{ErrorKind, Response};

mod conn;
mod metrics;

/// The client half of the wire (re-export of `ode-wire`'s client, so
/// hosts can write `ode_server::client::Client`).
pub mod client {
    pub use ode_wire::client::{Client, ClientError, PushEvent, RemoteLine};
}

/// The wire protocol (re-export of `ode-wire`).
pub use ode_wire as wire;

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission-control limit: connections past this are refused with a
    /// typed `Admission` error.
    pub max_connections: usize,
    /// Largest accepted request frame; larger ones are refused with a
    /// typed `TooLarge` error and the connection is closed.
    pub max_request_bytes: u32,
    /// Per-request execution budget; requests that exceed it are
    /// answered with a typed `Timeout` error instead of their output.
    pub request_timeout: Duration,
    /// How long a connection may sit idle (no complete request arriving)
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// How long [`ServerHandle::shutdown`] waits for in-flight
    /// connections to finish before giving up on them.
    pub drain_timeout: Duration,
    /// Internal tick: how often blocked reads/accepts re-check the
    /// shutdown flag. Smaller is more responsive, larger is cheaper.
    pub poll_interval: Duration,
    /// When set, bind a plain-HTTP listener here that answers
    /// `GET /metrics` with the Prometheus exposition (text format
    /// 0.0.4). `None` (the default) serves metrics only over the wire
    /// protocol's `Metrics` control op.
    pub metrics_addr: Option<SocketAddr>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_request_bytes: 1 << 20,
            request_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(20),
            metrics_addr: None,
        }
    }
}

/// Shared server state: the engine, the counters, and the admission and
/// shutdown coordination points.
pub(crate) struct ServerState {
    pub db: Arc<Database>,
    pub sched: Arc<Scheduler>,
    pub cfg: ServerConfig,
    pub tel: ServerTelemetry,
    pub shutdown: AtomicBool,
    pub active: AtomicUsize,
}

impl ServerState {
    /// Try to take an admission slot. Lock-free CAS loop: never admits
    /// past `max_connections` even under concurrent accepts.
    fn try_admit(&self) -> bool {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.cfg.max_connections {
                return false;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    fn release(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
        self.tel.active_connections.dec();
    }

    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The full Prometheus exposition — engine, serving layer,
    /// flight-recorder volume — shared by the wire `Metrics` control op
    /// and the HTTP `/metrics` listener.
    pub(crate) fn metrics_text(&self) -> String {
        let db = &self.db;
        ode_core::obs::prom::render(
            &db.telemetry(),
            Some(&self.tel.snapshot()),
            db.flight().recorded(),
        )
    }
}

/// Releases the admission slot when a connection thread ends, however it
/// ends (EOF, protocol error, panic).
struct SlotGuard(Arc<ServerState>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// The server entry point: [`Server::bind`] starts accepting and returns
/// a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the accept loop over `db`.
    pub fn bind(
        db: Arc<Database>,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Decouple trigger actions from client commits: with the
        // scheduler attached, a mutating request returns as soon as its
        // own transaction is durable, and fired actions drain on the
        // scheduler's worker pool. The same scheduler carries live
        // subscriptions registered over the wire.
        let sched = Scheduler::attach(Arc::clone(&db), SchedConfig::default());
        let state = Arc::new(ServerState {
            db,
            sched,
            cfg,
            tel: ServerTelemetry::default(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        });
        let metrics_addr = match state.cfg.metrics_addr {
            Some(maddr) => {
                let mlistener = TcpListener::bind(maddr)?;
                mlistener.set_nonblocking(true)?;
                let bound = mlistener.local_addr()?;
                let metrics_state = Arc::clone(&state);
                thread::Builder::new()
                    .name("ode-server-metrics".into())
                    .spawn(move || metrics::metrics_loop(mlistener, metrics_state))?;
                Some(bound)
            }
            None => None,
        };
        let accept_state = Arc::clone(&state);
        let accept = thread::Builder::new()
            .name("ode-server-accept".into())
            .spawn(move || accept_loop(listener, accept_state))?;
        Ok(ServerHandle {
            addr,
            metrics_addr,
            state,
            accept: Some(accept),
        })
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        if state.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.draining() {
                    state.tel.rejected_shutdown.inc();
                    refuse(
                        stream,
                        ErrorKind::Shutdown,
                        "server is draining for shutdown",
                    );
                    continue;
                }
                if !state.try_admit() {
                    state.tel.rejected_admission.inc();
                    refuse(
                        stream,
                        ErrorKind::Admission,
                        &format!(
                            "server at capacity ({} connections)",
                            state.cfg.max_connections
                        ),
                    );
                    continue;
                }
                state.tel.accepted.inc();
                state.tel.active_connections.inc();
                state
                    .tel
                    .max_concurrent
                    .observe(state.active.load(Ordering::Relaxed) as u64);
                let conn_state = Arc::clone(&state);
                let _ = thread::Builder::new()
                    .name("ode-server-conn".into())
                    .spawn(move || {
                        let _slot = SlotGuard(Arc::clone(&conn_state));
                        conn::serve(stream, &conn_state);
                    });
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                thread::sleep(state.cfg.poll_interval);
            }
            // Transient accept failures (EMFILE, aborted connections):
            // back off and keep serving.
            Err(_) => thread::sleep(state.cfg.poll_interval),
        }
    }
}

/// Best-effort typed refusal of a connection that never got a session.
fn refuse(mut stream: TcpStream, kind: ErrorKind, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = Response::Error {
        kind,
        message: message.to_string(),
    }
    .frame()
    .write_to(&mut stream);
}

/// What [`ServerHandle::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Every connection finished within the drain budget; no in-flight
    /// request was dropped.
    pub drained: bool,
    /// Connections still open when the drain budget expired (0 when
    /// `drained`).
    pub connections_remaining: usize,
}

/// A running server. Dropping the handle initiates shutdown without
/// waiting for the drain; call [`ServerHandle::shutdown`] to drain
/// deliberately.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound HTTP `/metrics` address, when
    /// [`ServerConfig::metrics_addr`] was set (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shared engine behind the server.
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.state.db)
    }

    /// The trigger scheduler attached to the engine for the server's
    /// lifetime (queue inspection, suspend/resume, dead letters).
    pub fn scheduler(&self) -> Arc<Scheduler> {
        Arc::clone(&self.state.sched)
    }

    /// Connections currently admitted.
    pub fn active_connections(&self) -> usize {
        self.state.active.load(Ordering::Relaxed)
    }

    /// Snapshot the serving-layer telemetry.
    pub fn server_stats(&self) -> ServerSnapshot {
        self.state.tel.snapshot()
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// and their responses flush, close idle connections, and wait up to
    /// [`ServerConfig::drain_timeout`] for every connection to drain.
    pub fn shutdown(mut self) -> DrainReport {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + self.state.cfg.drain_timeout;
        while self.state.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(self.state.cfg.poll_interval);
        }
        let remaining = self.state.active.load(Ordering::Acquire);
        // Let queued trigger actions finish, then restore inline firing
        // so the database keeps its paper semantics after the server is
        // gone. A bounded wait: dead-lettered work is already accounted.
        self.state.sched.wait_idle(self.state.cfg.drain_timeout);
        self.state.sched.detach();
        DrainReport {
            drained: remaining == 0,
            connections_remaining: remaining,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}
