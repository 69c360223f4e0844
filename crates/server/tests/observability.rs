//! End-to-end observability over the wire: client-minted trace ids
//! landing in the server's flight recorder, metrics exposition and
//! slow-query retrieval via control ops, the HTTP `/metrics` listener,
//! and refusal of any protocol version but the current one.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ode_core::obs::{prom, SpanStage, TraceId};
use ode_core::Database;
use ode_server::client::{Client, RemoteLine};
use ode_server::{Server, ServerConfig};
use ode_wire::protocol::{read_frame, write_frame, ErrorKind, Request, Response, PROTOCOL_VERSION};

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

fn seeded_db() -> Arc<Database> {
    let db = Database::in_memory();
    db.define_from_source("class stockitem { string name; int quantity = 0; }")
        .unwrap();
    db.create_cluster("stockitem").unwrap();
    Arc::new(db)
}

fn output(line: RemoteLine) -> String {
    match line {
        RemoteLine::Output(s) => s,
        other => panic!("expected output, got {other:?}"),
    }
}

/// The acceptance scenario: a connected client issues a statement, and
/// the trace id it minted retrieves the full span tree — analyze,
/// plan/execute, and commit stages with monotonic timestamps — from the
/// server's flight recorder.
#[test]
fn traced_request_spans_reach_the_server_flight_recorder() {
    let db = seeded_db();
    let handle = Server::bind(Arc::clone(&db), quick_cfg(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    output(
        c.line(r#"pnew stockitem (name = "gear", quantity = 1)"#)
            .unwrap(),
    );
    // An update runs the whole pipeline in one request: analysis, a
    // query pass to find candidates, and a commit.
    let out = output(
        c.line("update s in stockitem suchthat (quantity == 1) set quantity = 2")
            .unwrap(),
    );
    assert!(out.contains("updated 1"), "{out}");

    let trace = TraceId(c.last_trace());
    assert!(trace.is_traced(), "client sent an untraced line");
    let spans = db.flight().for_trace(trace);
    assert!(!spans.is_empty(), "no spans for the client's trace");

    let stages: Vec<SpanStage> = spans.iter().map(|s| s.stage).collect();
    for want in [
        SpanStage::Request,
        SpanStage::Analyze,
        SpanStage::Execute,
        SpanStage::Txn,
        SpanStage::Commit,
    ] {
        assert!(stages.contains(&want), "missing {want:?} in {stages:?}");
    }
    // Every span carries the client's trace id and monotonic timestamps.
    for s in &spans {
        assert_eq!(s.trace, trace);
        assert!(s.end_ns >= s.start_ns, "{s:?}");
    }
    // The request span is the root; the commit nests under the txn.
    let request = spans
        .iter()
        .find(|s| s.stage == SpanStage::Request)
        .unwrap();
    assert_eq!(request.parent, 0, "request span must be the root");
    let txn = spans.iter().find(|s| s.stage == SpanStage::Txn).unwrap();
    let commit = spans.iter().find(|s| s.stage == SpanStage::Commit).unwrap();
    assert_eq!(commit.parent, txn.span_id);
    assert!(txn.start_ns >= request.start_ns);

    // The same tree is retrievable over the wire by trace id…
    let rendered = c.trace(trace.0).unwrap();
    assert!(rendered.contains(&format!("trace {trace}")), "{rendered}");
    assert!(rendered.contains("commit"), "{rendered}");
    // …and an unknown trace id answers with a bounded "not found", not
    // an error or a desync.
    let missing = c.trace(0xdead_beef_0000_0001).unwrap();
    assert!(missing.contains("no spans"), "{missing}");

    c.bye().unwrap();
    handle.shutdown();
}

/// The `Metrics` control op renders a parseable Prometheus exposition,
/// and the engine's query counters move when a scripted workload runs.
#[test]
fn metrics_exposition_and_workload_counters_over_the_wire() {
    let db = seeded_db();
    let handle = Server::bind(Arc::clone(&db), quick_cfg(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    let before = c.metrics().unwrap();
    prom::validate(&before).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{before}"));

    // Scripted workload: inserts then scans.
    for i in 0..4 {
        output(
            c.line(&format!(
                r#"pnew stockitem (name = "n{i}", quantity = {i})"#
            ))
            .unwrap(),
        );
    }
    for _ in 0..3 {
        output(
            c.line("forall s in stockitem suchthat (quantity >= 0)")
                .unwrap(),
        );
    }

    let after = c.metrics().unwrap();
    prom::validate(&after).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{after}"));
    for family in [
        "ode_txn_committed_total",
        "ode_storage_record_reads_total",
        "ode_server_requests_total",
        "ode_query_deep_extent_scans_total",
    ] {
        assert!(after.contains(family), "missing {family} in exposition");
    }
    let scans = |exp: &str| -> u64 {
        exp.lines()
            .find(|l| l.starts_with("ode_query_deep_extent_scans_total "))
            .and_then(|l| l.rsplit(' ').next()?.parse().ok())
            .unwrap_or(0)
    };
    assert!(
        scans(&after) >= scans(&before) + 3,
        "deep extent scan counter did not move: before={} after={}",
        scans(&before),
        scans(&after)
    );

    c.bye().unwrap();
    handle.shutdown();
}

/// Setting the slow-query threshold through the remote session makes
/// subsequent statements land in the server's slow-query log, which the
/// `SlowLog` control op retrieves.
#[test]
fn slow_query_log_over_the_wire() {
    let db = seeded_db();
    let handle = Server::bind(db, quick_cfg(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    // Threshold 0 logs every statement.
    let out = output(c.line(".slow 0").unwrap());
    assert!(out.contains("0 ms"), "{out}");
    output(c.line("forall s in stockitem").unwrap());

    let log = c.slow_log().unwrap();
    assert!(log.contains("forall s in stockitem"), "{log}");
    assert!(log.contains("stage."), "per-stage timings missing: {log}");

    c.bye().unwrap();
    handle.shutdown();
}

/// The HTTP listener answers `GET /metrics` with a valid exposition and
/// refuses other paths, without touching the wire protocol port.
#[test]
fn http_metrics_endpoint_serves_exposition() {
    let db = seeded_db();
    let handle = Server::bind(
        db,
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..quick_cfg()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let maddr = handle.metrics_addr().expect("metrics listener bound");

    let scrape = |path: &str| -> String {
        let mut s = TcpStream::connect(maddr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        buf
    };

    let resp = scrape("/metrics");
    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
    let body = resp.split("\r\n\r\n").nth(1).expect("has a body");
    prom::validate(body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    assert!(body.contains("ode_server_accepted_total"), "{body}");

    let resp = scrape("/other");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");

    handle.shutdown();
}

/// There is one protocol version: a `Hello` from an older (v1) or a
/// future client is refused with a well-framed typed error, then the
/// connection closes — no negotiation, no desync.
#[test]
fn hello_with_any_other_version_is_refused() {
    let db = seeded_db();
    let handle = Server::bind(db, quick_cfg(), "127.0.0.1:0").unwrap();
    for version in [1, PROTOCOL_VERSION + 1] {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut raw, &Request::Hello { version }.encode()).unwrap();
        match Response::decode(&read_frame(&mut raw, 1 << 20).unwrap()).unwrap() {
            Response::Error {
                kind: ErrorKind::Protocol,
                message,
            } => {
                assert!(
                    message.contains(&format!("v{PROTOCOL_VERSION}")),
                    "{message}"
                );
                assert!(message.contains(&format!("v{version}")), "{message}");
            }
            other => panic!("v{version}: expected a Protocol error, got {other:?}"),
        }
        assert!(
            read_frame(&mut raw, 1 << 20).is_err(),
            "v{version}: connection must close after the refusal"
        );
    }
    assert_eq!(handle.server_stats().handshake_failures, 2);
    // The current version is still welcomed.
    Client::connect(handle.addr()).unwrap().bye().unwrap();
    handle.shutdown();
}
