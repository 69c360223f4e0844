//! Optional plain-HTTP `/metrics` listener (Prometheus exposition,
//! text format 0.0.4).
//!
//! Scrapers speak HTTP, not the ode wire protocol, so when
//! [`crate::ServerConfig::metrics_addr`] is set the server binds a
//! second listener that answers `GET /metrics` with the same exposition
//! the wire `Metrics` control op returns. The implementation is a
//! deliberately tiny HTTP/1.0-style responder — one request per
//! connection, no keep-alive, no TLS — because a scrape endpoint needs
//! nothing more and every dependency it doesn't have is attack surface
//! it doesn't carry.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ServerState;

/// Accept loop for the metrics listener; exits when the server drains.
pub(crate) fn metrics_loop(listener: TcpListener, state: Arc<ServerState>) {
    loop {
        if state.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => serve_scrape(stream, &state),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(state.cfg.poll_interval);
            }
            Err(_) => std::thread::sleep(state.cfg.poll_interval),
        }
    }
}

/// Answer one scrape. Reads until the request head is complete (blank
/// line) or a short budget expires, then writes the full response and
/// closes.
fn serve_scrape(mut stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));

    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    let deadline = Instant::now() + Duration::from_secs(2);
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if Instant::now() > deadline || head.len() > 8192 {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }

    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n".to_string(),
        )
    } else if path == "/metrics" || path.starts_with("/metrics?") {
        let body = state.metrics_text();
        ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
    } else {
        (
            "404 Not Found",
            "text/plain",
            "only /metrics is served here\n".to_string(),
        )
    };

    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
