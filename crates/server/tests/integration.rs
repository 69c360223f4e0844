//! End-to-end serving-layer tests: concurrent clients over one engine,
//! admission control, typed errors, per-request timeouts, and graceful
//! drain with zero dropped in-flight requests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ode_core::{Database, ExecResult};
use ode_server::client::{Client, ClientError, RemoteLine};
use ode_server::{Server, ServerConfig};

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

/// A database with the inventory schema every test statement targets.
fn seeded_db() -> Arc<Database> {
    let db = Database::in_memory();
    db.define_from_source("class stockitem { string name; int quantity = 0; }")
        .unwrap();
    db.create_cluster("stockitem").unwrap();
    db.create_index("stockitem", "quantity").unwrap();
    Arc::new(db)
}

fn output(line: RemoteLine) -> String {
    match line {
        RemoteLine::Output(s) => s,
        other => panic!("expected output, got {other:?}"),
    }
}

/// The acceptance scenario: 8 concurrent clients run mixed OQL (inserts,
/// `forall` with `suchthat`, `explain`) over one shared database; while
/// all 8 are connected the 9th connection is refused with a typed
/// admission error; graceful shutdown then drains with zero dropped
/// in-flight requests.
#[test]
fn eight_concurrent_clients_admission_and_drain() {
    const CLIENTS: usize = 8;
    let db = seeded_db();
    let handle = Server::bind(
        db,
        ServerConfig {
            max_connections: CLIENTS,
            ..quick_cfg()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.addr();

    let connected = Arc::new(Barrier::new(CLIENTS + 1));
    let admission_checked = Arc::new(Barrier::new(CLIENTS + 1));
    let responses = Arc::new(AtomicUsize::new(0));

    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let connected = Arc::clone(&connected);
            let admission_checked = Arc::clone(&admission_checked);
            let responses = Arc::clone(&responses);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("worker connect");
                connected.wait();
                // Hold the slot until the main thread has seen the 9th
                // connection bounce.
                admission_checked.wait();
                // Mixed OQL: inserts with per-thread tags…
                for i in 0..5 {
                    let tag = (t * 1000 + i) as i64;
                    let out = output(
                        c.line(&format!(
                            r#"pnew stockitem (name = "w{t}", quantity = {tag})"#
                        ))
                        .unwrap(),
                    );
                    assert!(out.starts_with("created "), "{out}");
                    responses.fetch_add(1, Ordering::Relaxed);
                }
                // …selections seeing exactly this thread's rows…
                let out = output(
                    c.line(&format!(
                        "forall s in stockitem suchthat (quantity >= {} && quantity < {})",
                        t * 1000,
                        t * 1000 + 1000
                    ))
                    .unwrap(),
                );
                assert!(out.contains("5 row(s)"), "thread {t}: {out}");
                assert!(out.contains(&format!("w{t}")), "thread {t}: {out}");
                responses.fetch_add(1, Ordering::Relaxed);
                // …and explain, which must report the indexed plan.
                let out = output(
                    c.line(&format!(
                        "explain forall s in stockitem suchthat (quantity == {})",
                        t * 1000
                    ))
                    .unwrap(),
                );
                assert!(out.contains("index probe on `quantity`"), "{out}");
                responses.fetch_add(1, Ordering::Relaxed);
                c.bye().unwrap();
            })
        })
        .collect();

    connected.wait();
    // All 8 slots taken: the 9th connection must bounce with a *typed*
    // admission error, not a hang or a raw disconnect.
    match Client::connect(addr) {
        Err(ClientError::Rejected(msg)) => assert!(msg.contains("capacity"), "{msg}"),
        other => panic!("expected admission rejection, got {other:?}"),
    }
    admission_checked.wait();

    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(responses.load(Ordering::Relaxed), CLIENTS * 7);

    let stats = handle.server_stats();
    assert_eq!(stats.accepted, CLIENTS as u64);
    assert_eq!(stats.rejected_admission, 1);
    assert_eq!(stats.timed_out, 0);
    assert!(stats.requests >= (CLIENTS * 7) as u64, "{stats:?}");
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0, "{stats:?}");

    // Engine state reflects every client's writes exactly once.
    let db = handle.database();
    assert_eq!(
        db.extent_size("stockitem", true).unwrap(),
        CLIENTS * 5,
        "all inserts visible"
    );

    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
    assert_eq!(report.connections_remaining, 0);
}

/// Shutdown must let requests already executing finish and flush their
/// responses: clients keep issuing scans while the server drains, and no
/// accepted request may yield a torn or missing response.
#[test]
fn graceful_shutdown_preserves_in_flight_requests() {
    let db = seeded_db();
    {
        for i in 0..2000 {
            let done = db
                .execute(&format!(
                    r#"pnew stockitem (name = "n{i}", quantity = {i})"#
                ))
                .unwrap();
            assert!(matches!(done.result, ExecResult::Created(_)));
        }
    }
    let handle = Server::bind(db, quick_cfg(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        let mut completed = 0usize;
        loop {
            // A full scan with a predicate — a deliberately chunky request.
            match c.line("forall s in stockitem suchthat (quantity >= 0)") {
                Ok(RemoteLine::Output(out)) => {
                    // A drained response must still be complete.
                    assert!(out.contains("2000 row(s)"), "torn response: …{}", {
                        let tail: String = out.chars().rev().take(40).collect();
                        tail.chars().rev().collect::<String>()
                    });
                    completed += 1;
                }
                Ok(RemoteLine::Goodbye) => break,
                Ok(other) => panic!("unexpected {other:?}"),
                // The server never kills a connection mid-request; the
                // only acceptable end is Goodbye (handled above) or EOF
                // after our *next* send once the server closed.
                Err(e) => {
                    assert!(e.is_transport(), "non-transport failure: {e}");
                    break;
                }
            }
        }
        completed
    });

    // Let the worker get a few requests in flight, then drain.
    std::thread::sleep(Duration::from_millis(150));
    let report = handle.shutdown();
    let completed = worker.join().unwrap();
    assert!(report.drained, "{report:?}");
    assert!(completed > 0, "worker never completed a request");
}

/// Admission slots are released when a client disconnects.
#[test]
fn admission_slot_released_on_disconnect() {
    let db = seeded_db();
    let handle = Server::bind(
        db,
        ServerConfig {
            max_connections: 1,
            ..quick_cfg()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = handle.addr();

    let c1 = Client::connect(addr).unwrap();
    match Client::connect(addr) {
        Err(ClientError::Rejected(_)) => {}
        other => panic!("expected rejection, got {other:?}"),
    }
    c1.bye().unwrap();

    // The slot frees as soon as the connection thread winds down.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut admitted = None;
    while Instant::now() < deadline {
        match Client::connect(addr) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(ClientError::Rejected(_)) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let mut c = admitted.expect("slot never released");
    c.ping().unwrap();
    drop(c);
    handle.shutdown();
}

/// Requests over the execution budget are answered with a typed timeout
/// error — and the session survives to serve the next request.
#[test]
fn per_request_timeout_is_typed_and_nonfatal() {
    let db = seeded_db();
    let handle = Server::bind(
        db,
        ServerConfig {
            request_timeout: Duration::ZERO,
            ..quick_cfg()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    for _ in 0..2 {
        match c.line("forall s in stockitem") {
            Err(ClientError::Timeout(msg)) => assert!(msg.contains("budget"), "{msg}"),
            other => panic!("expected typed timeout, got {other:?}"),
        }
    }
    // Control ops are not statements and carry no execution budget.
    c.ping().unwrap();
    let stats = handle.server_stats();
    assert!(stats.timed_out >= 2, "{stats:?}");
    handle.shutdown();
}

/// The handshake refuses other protocol versions with a typed error.
#[test]
fn protocol_version_mismatch_is_refused() {
    use ode_wire::protocol::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};

    let db = seeded_db();
    let handle = Server::bind(db, quick_cfg(), "127.0.0.1:0").unwrap();
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut raw, &Request::Hello { version: 999 }.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut raw, 1 << 20).unwrap()).unwrap();
    match resp {
        Response::Error {
            kind: ode_wire::protocol::ErrorKind::Protocol,
            message,
        } => assert!(
            message.contains(&format!("protocol v{PROTOCOL_VERSION}")),
            "{message}"
        ),
        other => panic!("expected protocol error, got {other:?}"),
    }
    drop(raw);

    // And through the client: a clean typed error, not a panic.
    assert!(handle.server_stats().handshake_failures >= 1);
    handle.shutdown();
}

/// Oversized requests bounce with a typed error.
#[test]
fn oversized_request_is_refused() {
    let db = seeded_db();
    let handle = Server::bind(
        db,
        ServerConfig {
            max_request_bytes: 64,
            ..quick_cfg()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let big = format!(
        "forall s in stockitem suchthat (name == \"{}\")",
        "x".repeat(256)
    );
    match c.line(&big) {
        Err(ClientError::TooLarge(msg)) => assert!(msg.contains("64"), "{msg}"),
        other => panic!("expected too-large error, got {other:?}"),
    }
    handle.shutdown();
}

/// `.server` and telemetry-JSON control ops work over the wire, and the
/// full local meta-command surface (multi-line DDL, `.stats`, `explain`,
/// `.exit`) behaves identically through a remote session.
#[test]
fn control_ops_and_shell_parity_over_the_wire() {
    let db = Arc::new(Database::in_memory());
    let handle = Server::bind(db, quick_cfg(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    // Multi-line DDL needs Continue round-trips, like the local REPL.
    assert_eq!(c.line("class doc {").unwrap(), RemoteLine::Continue);
    assert_eq!(
        c.line("    string title; int rev = 0;").unwrap(),
        RemoteLine::Continue
    );
    let out = output(c.line("}").unwrap());
    assert!(out.contains("defined class(es): doc"), "{out}");
    output(c.line("create cluster doc").unwrap());
    let out = output(c.line(r#"pnew doc (title = "paper", rev = 1)"#).unwrap());
    assert!(out.starts_with("created "), "{out}");

    // Statically detectable mistakes come back as the typed analysis
    // kind — rejected before any transaction — and do not kill the
    // session.
    match c.line("forall x in nowhere") {
        Err(ClientError::Analysis(msg)) => {
            assert!(msg.contains("unknown class"), "{msg}");
            assert!(msg.contains("A001"), "{msg}");
        }
        other => panic!("expected analysis error, got {other:?}"),
    }

    // Runtime-only failures keep the engine kind.
    match c.line(".show 99:0.0") {
        Err(ClientError::Engine(msg)) => assert!(msg.contains("no such object"), "{msg}"),
        other => panic!("expected engine error, got {other:?}"),
    }

    // Meta-commands from the local shell work remotely.
    let out = output(c.line("forall d in doc suchthat (rev == 1)").unwrap());
    assert!(out.contains("1 row(s)"), "{out}");
    let out = output(c.line(".classes").unwrap());
    assert!(out.contains("doc"), "{out}");
    let out = output(c.line(".stats").unwrap());
    assert!(out.contains("txn.committed"), "{out}");
    let out = output(c.line(".stats profiles").unwrap());
    assert!(out.contains("doc"), "{out}");

    // Control ops.
    c.ping().unwrap();
    let stats = c.server_stats().unwrap();
    assert!(stats.contains("server.accepted"), "{stats}");
    assert!(stats.contains("server.request_latency.count"), "{stats}");
    let json = c.telemetry_json().unwrap();
    assert!(json.contains("\"txn\""), "{json}");
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    // `.exit` ends the remote session with Goodbye.
    assert_eq!(c.line(".exit").unwrap(), RemoteLine::Goodbye);
    handle.shutdown();
}

/// A client holds no credentials for the server host, so it cannot make
/// the server read or write files there: `.export`, `.import` and
/// `.check` are refused with a typed usage error, nothing is written, and
/// the session survives.
#[test]
fn remote_sessions_refuse_server_side_file_commands() {
    let handle = Server::bind(seeded_db(), quick_cfg(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let dir = std::env::temp_dir().join(format!("ode-remote-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("dump.bin");
    let script = dir.join("script.ode");
    std::fs::write(&script, "forall s in stockitem\n").unwrap();

    for cmd in [
        format!(".export {}", dump.display()),
        format!(".import {}", script.display()),
        format!(".check {}", script.display()),
    ] {
        match c.line(&cmd) {
            Err(ClientError::Engine(msg)) => {
                assert!(msg.starts_with("usage error"), "{cmd}: {msg}");
                assert!(msg.contains("server host"), "{cmd}: {msg}");
            }
            other => panic!("{cmd}: expected a typed usage error, got {other:?}"),
        }
    }
    assert!(
        !dump.exists(),
        "a remote .export wrote a file on the server host"
    );
    let out = output(c.line(".classes").unwrap());
    assert!(out.contains("stockitem"), "{out}");

    c.bye().unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Read-only requests (`forall`, `explain`, `.show`) go down the
/// snapshot read path: they bump `read_txns` but never acquire the
/// writer gate, so `write_txns` and the `gate_wait` sample count stay
/// exactly flat across a burst of query traffic.
#[test]
fn read_only_requests_skip_the_writer_gate() {
    let db = seeded_db();
    let handle = Server::bind(Arc::clone(&db), quick_cfg(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    // One write so the queries below have something to see.
    let out = output(
        c.line(r#"pnew stockitem (name = "gear", quantity = 7)"#)
            .unwrap(),
    );
    let oid = out.trim_start_matches("created ").to_string();

    let before = db.telemetry().txn;
    for _ in 0..10 {
        let out = output(
            c.line("forall s in stockitem suchthat (quantity == 7)")
                .unwrap(),
        );
        assert!(out.contains("1 row(s)"), "{out}");
        let out = output(
            c.line("explain forall s in stockitem suchthat (quantity == 7)")
                .unwrap(),
        );
        assert!(out.contains("index probe"), "{out}");
        let out = output(c.line(&format!(".show {oid}")).unwrap());
        assert!(out.contains("gear"), "{out}");
    }
    let after = db.telemetry().txn;

    assert!(
        after.read_txns >= before.read_txns + 30,
        "read traffic not counted: before={} after={}",
        before.read_txns,
        after.read_txns
    );
    assert_eq!(
        after.write_txns, before.write_txns,
        "a read-only request started a write transaction"
    );
    assert_eq!(
        after.gate_wait.count, before.gate_wait.count,
        "a read-only request waited on the writer gate"
    );

    handle.shutdown();
}

/// Connections arriving during a drain are refused with a typed
/// shutdown error (when the accept loop is still winding down) or a
/// plain transport error (once the listener is gone) — never a hang.
#[test]
fn connect_after_shutdown_fails_fast() {
    let db = seeded_db();
    let handle = Server::bind(db, quick_cfg(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    handle.shutdown();
    let started = Instant::now();
    match Client::connect(addr) {
        Err(ClientError::Transport(_)) | Err(ClientError::ShuttingDown(_)) => {}
        Ok(_) => panic!("connected to a shut-down server"),
        Err(e) => panic!("unexpected error: {e}"),
    }
    assert!(started.elapsed() < Duration::from_secs(5));
}

/// The live-subscription acceptance scenario: a remote client registers
/// a predicate over a cluster and receives a `Push` frame for a matching
/// commit made by *another* connection, with one blocking wait and no
/// request polling. Non-matching commits stay silent, unsubscribe stops
/// the stream, and the serving-layer gauges account for all of it.
#[test]
fn subscriber_receives_push_without_polling() {
    let db = seeded_db();
    let handle = Server::bind(db, quick_cfg(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    let mut sub = Client::connect(addr).unwrap();
    let sub_id = sub.subscribe("stockitem", "quantity < 5").unwrap();

    let mut writer = Client::connect(addr).unwrap();
    // A non-matching commit first: it must never produce a push.
    output(
        writer
            .line(r#"pnew stockitem (name = "bulk", quantity = 900)"#)
            .unwrap(),
    );
    // Then the matching one.
    let created = output(
        writer
            .line(r#"pnew stockitem (name = "scarce", quantity = 2)"#)
            .unwrap(),
    );
    let oid = created.trim_start_matches("created ").to_string();

    // One blocking wait on the subscriber — no polling request loop —
    // must deliver the push for the matching commit.
    let push = sub
        .next_push(Duration::from_secs(10))
        .unwrap()
        .expect("no push arrived within 10s of the matching commit");
    assert_eq!(push.sub_id, sub_id);
    assert!(push.epoch > 0);
    assert!(push.object.contains("scarce"), "{}", push.object);
    assert!(push.object.contains("stockitem"), "{}", push.object);
    // Pushes and `.show` share one renderer.
    let shown = output(writer.line(&format!(".show {oid}")).unwrap());
    assert_eq!(push.object, shown);

    // No second push is owed: the quantity-900 row never matched.
    assert!(sub.next_push(Duration::from_millis(200)).unwrap().is_none());

    // After unsubscribing, further matching commits stay silent.
    sub.unsubscribe(sub_id).unwrap();
    output(
        writer
            .line(r#"pnew stockitem (name = "late", quantity = 1)"#)
            .unwrap(),
    );
    assert!(sub.next_push(Duration::from_millis(300)).unwrap().is_none());

    let stats = handle.server_stats();
    assert_eq!(stats.pushes_sent, 1, "exactly one push crossed the wire");
    assert_eq!(stats.push_dropped, 0);
    assert_eq!(
        stats.subscriptions, 0,
        "unsubscribe must release the subscription gauge"
    );
    assert_eq!(stats.push_outbox_depth, 0);

    writer.bye().unwrap();
    sub.bye().unwrap();
    handle.shutdown();
}

/// A subscription against an unknown cluster or an unparsable predicate
/// is refused with a typed error, not a dead subscription.
#[test]
fn bad_subscriptions_are_refused_typed() {
    let db = seeded_db();
    let handle = Server::bind(db, quick_cfg(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    match c.subscribe("nosuchclass", "quantity < 5") {
        Err(ClientError::Engine(msg)) => assert!(msg.contains("nosuchclass"), "{msg}"),
        other => panic!("expected engine error, got {other:?}"),
    }
    match c.subscribe("stockitem", "quantity <") {
        Err(ClientError::Engine(_)) | Err(ClientError::Analysis(_)) => {}
        other => panic!("expected parse refusal, got {other:?}"),
    }
    assert_eq!(handle.server_stats().subscriptions, 0);
    c.bye().unwrap();
    handle.shutdown();
}
