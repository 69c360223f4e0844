//! Prometheus text-format exposition (version 0.0.4).
//!
//! Renders every engine/server metric into families a standard scraper
//! can ingest: counters as `*_total`, levels and maxima as gauges, and the
//! log₂ latency histograms as `*_seconds` summaries (count, sum, and the
//! approximate p50/p99 the snapshot already carries). Names and HELP text
//! come from the declaration tables in the crate root. [`validate`] is a
//! conservative self-check of the grammar — metric-name/label syntax, one
//! `TYPE` line per family, numeric sample values — used by the CI smoke
//! job and the integration tests.

use crate::{ServerSnapshot, TelemetrySnapshot};

/// Incrementally built exposition text with per-family bookkeeping.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    families: Vec<String>,
}

impl PromText {
    /// A fresh empty exposition.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Open a family: emits `# HELP` and `# TYPE`. Re-opening the most
    /// recent family is a no-op, so a labelled family's samples can be
    /// added one at a time; any other duplicate panics (in tests) — the
    /// exposition format forbids them.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        if self.families.last().is_some_and(|f| f == name) {
            return;
        }
        debug_assert!(
            !self.families.iter().any(|f| f == name),
            "duplicate family {name}"
        );
        self.families.push(name.to_string());
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Emit one sample for the most recent family.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
            }
            self.out.push('}');
        }
        self.out.push_str(&format!(" {value}\n"));
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render the full exposition: engine telemetry, optional serving-layer
/// telemetry, and flight-recorder volume.
pub fn render(
    engine: &TelemetrySnapshot,
    server: Option<&ServerSnapshot>,
    spans_recorded: u64,
) -> String {
    let mut p = PromText::new();
    engine.prom_into(&mut p);
    if let Some(sv) = server {
        sv.prom_into("ode_server", &mut p);
    }
    let spans = "ode_trace_spans_recorded_total";
    p.family(spans, "counter", "Spans written into the flight recorder");
    p.sample(spans, &[], spans_recorded as f64);
    p.finish()
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Conservative validation of exposition text: every sample line parses
/// (name, optional label set, float value), names and labels are
/// syntactically legal, and no family has two `TYPE` lines.
pub fn validate(text: &str) -> Result<(), String> {
    let mut families: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| Err(format!("line {}: {msg}: {line}", lineno + 1));
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !valid_metric_name(name) {
                return err("bad family name");
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return err("bad family kind");
            }
            if families.iter().any(|f| f == name) {
                return err("duplicate TYPE for family");
            }
            families.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        // Sample: name[{k="v",…}] value
        let (name_part, value_part) = match line.split_once(' ') {
            Some(pair) => pair,
            None => return err("sample missing value"),
        };
        let name = match name_part.split_once('{') {
            Some((n, labels)) => {
                let labels = match labels.strip_suffix('}') {
                    Some(l) => l,
                    None => return err("unterminated label set"),
                };
                for pair in split_labels(labels) {
                    let (k, v) = match pair.split_once('=') {
                        Some(kv) => kv,
                        None => return err("label without ="),
                    };
                    if !valid_label_name(k) {
                        return err("bad label name");
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return err("unquoted label value");
                    }
                }
                n
            }
            None => name_part,
        };
        if !valid_metric_name(name) {
            return err("bad metric name");
        }
        if value_part.trim().parse::<f64>().is_err() {
            return err("non-numeric sample value");
        }
        samples += 1;
    }
    if families.is_empty() || samples == 0 {
        return Err("no metric families found".to_string());
    }
    Ok(())
}

// Split a label body on commas outside quotes.
fn split_labels(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineTelemetry, ServerTelemetry, StorageSnapshot};

    #[test]
    fn render_validates_and_covers_families() {
        let tel = EngineTelemetry::default();
        tel.txn.begun.add(2);
        tel.txn.commit_latency.record_ns(12_000);
        let engine = tel.snapshot(StorageSnapshot::default());
        let server = ServerTelemetry::default().snapshot();
        let text = render(&engine, Some(&server), 7);
        validate(&text).unwrap();
        for family in [
            "ode_txn_begun_total 2",
            "# TYPE ode_txn_commit_latency_seconds summary",
            "ode_txn_commit_latency_seconds{quantile=\"0.99\"}",
            "ode_server_requests_total",
            "ode_sched_queue_depth",
            "ode_sched_dead_letters_total",
            "ode_trigger_cascade_exhausted_total",
            "ode_server_subscriptions",
            "ode_server_pushes_sent_total",
            "ode_trace_spans_recorded_total 7",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn render_without_server_still_validates() {
        let engine = EngineTelemetry::default().snapshot(StorageSnapshot::default());
        let text = render(&engine, None, 0);
        validate(&text).unwrap();
        assert!(!text.contains("ode_server_"));
    }

    #[test]
    fn validate_rejects_malformed_expositions() {
        assert!(validate("").is_err());
        assert!(validate("# TYPE ode_x counter\n# TYPE ode_x counter\node_x 1\n").is_err());
        assert!(validate("# TYPE ode_x counter\n1ode_x 1\n").is_err());
        assert!(validate("# TYPE ode_x counter\node_x notanumber\n").is_err());
        assert!(validate("# TYPE ode_x counter\node_x{bad-label=\"v\"} 1\n").is_err());
        assert!(validate("# TYPE ode_x counter\node_x{l=unquoted} 1\n").is_err());
        assert!(validate("# TYPE ode_x wrongkind\node_x 1\n").is_err());
        // A good one passes.
        validate("# HELP ode_x help\n# TYPE ode_x counter\node_x{l=\"a,b\"} 1\n").unwrap();
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromText::new();
        p.family("ode_t", "counter", "h");
        p.sample("ode_t", &[("k", "a\"b\\c")], 1.0);
        let text = p.finish();
        validate(&text).unwrap();
        assert!(text.contains("a\\\"b\\\\c"), "{text}");
    }
}
