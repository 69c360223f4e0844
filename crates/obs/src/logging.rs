//! Level-filtered structured logging: one JSON object per line on
//! stderr.
//!
//! Replaces the serving layer's ad-hoc `eprintln!`. Each line carries a
//! wall-clock timestamp, a severity, the emitting component, a
//! human-oriented `msg`, and any extra key/value fields. The `msg` text
//! keeps its old prose form so line-oriented consumers (the CI smoke
//! jobs grep for "listening on") continue to work against the JSON.
//!
//! Dependency-free by design: the encoder handles only what log lines
//! need (string escaping); there is no parser here.

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// The process is degraded or about to exit.
    Error = 0,
    /// Something unexpected that the process survives.
    Warn = 1,
    /// Lifecycle events (listening, draining, connections).
    Info = 2,
    /// Per-request noise; off by default.
    Debug = 3,
}

impl LogLevel {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parse `error|warn|info|debug` (case-insensitive).
    pub fn parse(s: &str) -> Option<LogLevel> {
        Some(match s.to_ascii_lowercase().as_str() {
            "error" => LogLevel::Error,
            "warn" | "warning" => LogLevel::Warn,
            "info" => LogLevel::Info,
            "debug" => LogLevel::Debug,
            _ => return None,
        })
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);

/// Set the global threshold; lines above it are dropped.
pub fn set_level(level: LogLevel) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global threshold.
pub fn level() -> LogLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => LogLevel::Error,
        1 => LogLevel::Warn,
        2 => LogLevel::Info,
        _ => LogLevel::Debug,
    }
}

/// Would a line at `l` currently be emitted?
pub fn enabled(l: LogLevel) -> bool {
    l <= level()
}

/// Append `s` to `out` escaped for the inside of a JSON string literal.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Render one log line (exposed separately so tests can check the shape
/// without capturing stderr).
pub fn format_line(level: LogLevel, component: &str, msg: &str, fields: &[(&str, &str)]) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut out = String::with_capacity(96 + msg.len());
    out.push_str(&format!(
        "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",\"component\":\"",
        level.name()
    ));
    escape_into(&mut out, component);
    out.push_str("\",\"msg\":\"");
    escape_into(&mut out, msg);
    out.push('"');
    for (k, v) in fields {
        out.push_str(",\"");
        escape_into(&mut out, k);
        out.push_str("\":\"");
        escape_into(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

/// Emit one structured line to stderr if `level` passes the threshold.
pub fn log(level: LogLevel, component: &str, msg: &str, fields: &[(&str, &str)]) {
    if !enabled(level) {
        return;
    }
    eprintln!("{}", format_line(level, component, msg, fields));
}

/// [`log`] at error severity.
pub fn error(component: &str, msg: &str, fields: &[(&str, &str)]) {
    log(LogLevel::Error, component, msg, fields);
}

/// [`log`] at warn severity.
pub fn warn(component: &str, msg: &str, fields: &[(&str, &str)]) {
    log(LogLevel::Warn, component, msg, fields);
}

/// [`log`] at info severity.
pub fn info(component: &str, msg: &str, fields: &[(&str, &str)]) {
    log(LogLevel::Info, component, msg, fields);
}

/// [`log`] at debug severity.
pub fn debug(component: &str, msg: &str, fields: &[(&str, &str)]) {
    log(LogLevel::Debug, component, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!(LogLevel::parse("WARN"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("loud"), None);
    }

    #[test]
    fn format_line_is_json_shaped() {
        let line = format_line(
            LogLevel::Info,
            "server",
            "listening on 127.0.0.1:7340",
            &[("addr", "127.0.0.1:7340")],
        );
        assert!(line.starts_with("{\"ts_ms\":"), "{line}");
        assert!(line.contains("\"level\":\"info\""), "{line}");
        assert!(
            line.contains("\"msg\":\"listening on 127.0.0.1:7340\""),
            "{line}"
        );
        assert!(line.contains("\"addr\":\"127.0.0.1:7340\""), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        let line = format_line(LogLevel::Warn, "c", "say \"hi\"\nnow", &[("k", "a\\b")]);
        assert!(line.contains("say \\\"hi\\\"\\nnow"), "{line}");
        assert!(line.contains("a\\\\b"), "{line}");
    }

    #[test]
    fn threshold_filters() {
        set_level(LogLevel::Warn);
        assert!(enabled(LogLevel::Error));
        assert!(enabled(LogLevel::Warn));
        assert!(!enabled(LogLevel::Info));
        set_level(LogLevel::Info);
        assert!(enabled(LogLevel::Info));
        assert!(!enabled(LogLevel::Debug));
    }
}
