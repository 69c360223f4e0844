//! `ode-shell` — interactive Ode session, local or remote.
//!
//! ```text
//! ode-shell                          # in-memory scratch database
//! ode-shell /path/to/db              # durable database (created if absent)
//! ode-shell --connect 127.0.0.1:7340 # remote session over an ode-server
//! ```
//!
//! Exit codes (so scripted sessions can tell failure classes apart):
//!
//! * `0` — clean session.
//! * `1` — the engine rejected at least one statement (parse error,
//!   constraint violation, …) in a *scripted* (non-TTY stdin) session;
//!   interactive sessions report the error and keep going.
//! * `2` — transport-class failure: connection refused, server at
//!   capacity, protocol mismatch, I/O timeout, server shutdown. Nothing
//!   (more) reached the engine.

use std::io::{BufRead, IsTerminal, Write};
use std::time::Duration;

use ode_shell::{check_files, EvalResult, Session};
use ode_wire::client::{Client, ClientError, RemoteLine};

const EXIT_ENGINE: i32 = 1;
const EXIT_TRANSPORT: i32 = 2;

const USAGE: &str =
    "usage: ode-shell [--memory | <directory> | --connect HOST:PORT | --check [--json] FILE...]";

fn main() {
    let mut connect: Option<String> = None;
    let mut dir: Option<String> = None;
    let mut memory = false;
    let mut check = false;
    let mut json = false;
    let mut check_paths: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            "--memory" => memory = true,
            "--check" => check = true,
            "--json" => json = true,
            "--connect" => match args.next() {
                Some(addr) => connect = Some(addr),
                None => {
                    eprintln!("ode-shell: --connect needs HOST:PORT");
                    eprintln!("{USAGE}");
                    std::process::exit(EXIT_TRANSPORT);
                }
            },
            other if other.starts_with('-') => {
                eprintln!("ode-shell: unknown flag `{other}`");
                eprintln!("{USAGE}");
                std::process::exit(EXIT_TRANSPORT);
            }
            other if check => check_paths.push(other.to_string()),
            other => dir = Some(other.to_string()),
        }
    }

    if check {
        std::process::exit(check_main(&check_paths, json));
    }
    if json {
        eprintln!("ode-shell: --json only makes sense with --check");
        std::process::exit(EXIT_TRANSPORT);
    }

    let code = match connect {
        Some(addr) => {
            if memory || dir.is_some() {
                eprintln!("ode-shell: --connect conflicts with a local database");
                std::process::exit(EXIT_TRANSPORT);
            }
            remote_repl(&addr)
        }
        None => local_repl(dir, memory),
    };
    std::process::exit(code);
}

/// `ode-shell --check [--json] FILE...` — batch-lint O++ files without
/// executing anything. Exit 0 when every file is clean of errors
/// (warnings allowed), [`EXIT_ENGINE`] when any error-severity finding
/// exists, [`EXIT_TRANSPORT`] for unreadable files.
fn check_main(paths: &[String], json: bool) -> i32 {
    if paths.is_empty() {
        eprintln!("ode-shell: --check needs at least one file");
        eprintln!("{USAGE}");
        return EXIT_TRANSPORT;
    }
    let report = match check_files(paths) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ode-shell: {e}");
            return EXIT_TRANSPORT;
        }
    };
    // Tolerate a closed pipe: `--check ... | head` / `| grep -q` is the
    // normal CI idiom and must not panic the linter.
    let mut out = std::io::stdout();
    let rendered = if json {
        report.render_json()
    } else {
        report.render_text()
    };
    let _ = writeln!(out, "{rendered}");
    if report.has_errors() {
        EXIT_ENGINE
    } else {
        0
    }
}

/// Read one line from stdin (with a prompt when interactive). `None` at
/// EOF or on a read error.
fn read_line(continuing: bool, interactive: bool) -> Option<String> {
    if interactive {
        let prompt = if continuing { "  ... " } else { "ode> " };
        let mut out = std::io::stdout();
        let _ = write!(out, "{prompt}");
        let _ = out.flush();
    }
    let mut line = String::new();
    match std::io::stdin().lock().read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end_matches(['\n', '\r']).to_string()),
        Err(e) => {
            eprintln!("read error: {e}");
            None
        }
    }
}

fn local_repl(dir: Option<String>, _memory: bool) -> i32 {
    let mut session = match &dir {
        None => {
            eprintln!("ode-shell: in-memory database (pass a directory to persist)");
            Session::in_memory()
        }
        Some(d) => match Session::open(std::path::Path::new(d)) {
            Ok(s) => {
                eprintln!("ode-shell: database at {d}");
                s
            }
            Err(e) => {
                eprintln!("ode-shell: cannot open {d}: {e}");
                return EXIT_TRANSPORT;
            }
        },
    };
    let interactive = std::io::stdin().is_terminal();
    if interactive {
        eprintln!("type `.help` for commands, `.exit` to leave");
    }
    let mut out = std::io::stdout();
    let mut engine_errors = 0usize;
    while let Some(line) = read_line(session.is_continuing(), interactive) {
        match session.eval_line(&line) {
            EvalResult::Output(s) => {
                if !s.is_empty() {
                    let _ = writeln!(out, "{s}");
                }
            }
            EvalResult::Error(e) => {
                engine_errors += 1;
                let _ = writeln!(out, "error: {e}");
            }
            EvalResult::Continue => {}
            EvalResult::Exit => break,
        }
    }
    // Interactive users saw the errors as they happened; scripts need the
    // exit code to notice them.
    if engine_errors > 0 && !interactive {
        EXIT_ENGINE
    } else {
        0
    }
}

fn remote_repl(addr: &str) -> i32 {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ode-shell: {e}");
            return EXIT_TRANSPORT;
        }
    };
    let interactive = std::io::stdin().is_terminal();
    eprintln!("ode-shell: connected to {addr}");
    if interactive {
        eprintln!("type `.help` for commands, `.exit` to leave");
    }
    let mut out = std::io::stdout();
    let mut engine_errors = 0usize;
    let mut continuing = false;
    let mut live_subs = 0usize;
    while let Some(line) = read_line(continuing, interactive) {
        let trimmed = line.trim();
        // Client-side commands: `.server` and `.metrics` alias the
        // serving-layer stats and full-exposition control ops (the remote
        // session alone cannot see the server's own counters), and the
        // subscription commands manage live push streams (the engine's
        // `.stats` still works over the wire).
        let result = if trimmed == ".server" {
            client.server_stats().map(RemoteLine::Output)
        } else if trimmed == ".metrics" {
            client.metrics().map(RemoteLine::Output)
        } else if let Some(rest) = trimmed.strip_prefix(".subscribe ") {
            let mut it = rest.trim().splitn(2, char::is_whitespace);
            match (it.next(), it.next()) {
                (Some(cluster), Some(pred)) => client.subscribe(cluster, pred.trim()).map(|id| {
                    live_subs += 1;
                    RemoteLine::Output(format!(
                        "subscription {id} — matching commits print as \
                             `push ...`; `.watch [secs]` waits for them"
                    ))
                }),
                _ => {
                    let _ = writeln!(out, "usage: .subscribe <class> <predicate>");
                    continue;
                }
            }
        } else if let Some(rest) = trimmed.strip_prefix(".unsubscribe ") {
            match rest.trim().parse::<u64>() {
                Ok(id) => client.unsubscribe(id).map(|()| {
                    live_subs = live_subs.saturating_sub(1);
                    RemoteLine::Output(format!("unsubscribed {id}"))
                }),
                Err(_) => {
                    let _ = writeln!(out, "usage: .unsubscribe <id>");
                    continue;
                }
            }
        } else if trimmed == ".watch" || trimmed.starts_with(".watch ") {
            let secs: u64 = trimmed
                .strip_prefix(".watch")
                .unwrap()
                .trim()
                .parse()
                .unwrap_or(10);
            match watch_pushes(&mut client, &mut out, Duration::from_secs(secs)) {
                Ok(n) => {
                    continuing = false;
                    let _ = writeln!(out, "{n} push(es) in {secs}s");
                    continue;
                }
                Err(e) => {
                    eprintln!("ode-shell: {e}");
                    return EXIT_TRANSPORT;
                }
            }
        } else {
            client.line(&line)
        };
        match result {
            Ok(RemoteLine::Output(s)) => {
                continuing = false;
                if !s.is_empty() {
                    let _ = writeln!(out, "{s}");
                }
            }
            Ok(RemoteLine::Continue) => continuing = true,
            Ok(RemoteLine::Goodbye) => return 0,
            Err(ClientError::Engine(msg)) | Err(ClientError::Analysis(msg)) => {
                continuing = false;
                engine_errors += 1;
                let _ = writeln!(out, "error: {msg}");
            }
            Err(ClientError::Timeout(msg)) if interactive => {
                // The session survives a per-request timeout; keep going.
                continuing = false;
                let _ = writeln!(out, "error: {msg}");
            }
            Err(e) => {
                // Transport-class: the session is gone (or, for scripted
                // timeouts, no longer trustworthy). Fail loudly.
                eprintln!("ode-shell: {e}");
                return EXIT_TRANSPORT;
            }
        }
        // With a live subscription, pushes for commits made by this (or
        // any other) connection may already be waiting — deliver them
        // before the next prompt. The short wait covers the server's
        // outbox-flush tick; without subscriptions it costs nothing.
        if live_subs > 0 {
            match watch_pushes(&mut client, &mut out, Duration::from_millis(100)) {
                Ok(_) => {}
                Err(e) => {
                    eprintln!("ode-shell: {e}");
                    return EXIT_TRANSPORT;
                }
            }
        }
    }
    let _ = client.bye();
    if engine_errors > 0 && !interactive {
        EXIT_ENGINE
    } else {
        0
    }
}

/// Print pushes as they arrive until `budget` elapses with none
/// pending. Returns how many were delivered.
fn watch_pushes(
    client: &mut Client,
    out: &mut impl Write,
    budget: Duration,
) -> Result<usize, ClientError> {
    let mut n = 0usize;
    let mut wait = budget;
    loop {
        match client.next_push(wait)? {
            Some(p) => {
                n += 1;
                let _ = writeln!(
                    out,
                    "push [sub {} @ epoch {}] {}",
                    p.sub_id, p.epoch, p.object
                );
                // Drain whatever else is already queued promptly.
                wait = Duration::from_millis(50);
            }
            None => return Ok(n),
        }
    }
}
