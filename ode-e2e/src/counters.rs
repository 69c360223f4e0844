//! The one place the benchmark reads the program's counters, and it reads
//! them by their printed names (`txn.committed`, `analyze.passes`, ...) from
//! the public `rows()` tables — never through snapshot struct fields. A
//! counter that is renamed or removed makes its metric read as missing, with
//! a warning, instead of breaking the benchmark's build.

use std::collections::HashMap;

use ode_core::obs::ServerSnapshot;
use ode_core::{Database, TelemetrySnapshot};
use ode_server::ServerHandle;

/// Engine and serving-layer counters at one instant.
pub struct Snapshot {
    engine: TelemetrySnapshot,
    server: Option<ServerSnapshot>,
}

impl Snapshot {
    /// Snapshot the engine's counters and, when serving, the server's.
    pub fn take(db: &Database, server: Option<&ServerHandle>) -> Snapshot {
        Snapshot {
            engine: db.telemetry(),
            server: server.map(ServerHandle::server_stats),
        }
    }

    /// What moved between `before` and `self`, keyed by printed name.
    pub fn since(&self, before: &Snapshot) -> Counters {
        let mut rows = self.engine.delta(&before.engine).rows();
        if let (Some(after), Some(before)) = (&self.server, &before.server) {
            rows.extend(after.delta(before).rows());
        }
        Counters::from_rows(rows)
    }
}

/// Name-keyed counter values over one measured interval.
#[derive(Debug, Default)]
pub struct Counters(HashMap<String, f64>);

impl Counters {
    /// Build from `(name, printed value)` rows; unparsable values are dropped.
    pub fn from_rows(rows: Vec<(String, String)>) -> Counters {
        Counters(
            rows.into_iter()
                .filter_map(|(k, v)| v.parse().ok().map(|v| (k, v)))
                .collect(),
        )
    }

    /// The counter called `name`, or `None` (with a warning) if the program
    /// no longer publishes it.
    pub fn get(&self, name: &str) -> Option<f64> {
        let v = self.0.get(name).copied();
        if v.is_none() {
            eprintln!("warning: counter `{name}` is not published; its metrics read as missing");
        }
        v
    }

    /// `num / den` by name; 0 when the denominator did not move.
    pub fn ratio(&self, num: &str, den: &str) -> Option<f64> {
        let (n, d) = (self.get(num)?, self.get(den)?);
        Some(if d == 0.0 { 0.0 } else { n / d })
    }

    /// `name / den` for a denominator the benchmark counted itself.
    pub fn per(&self, name: &str, den: f64) -> Option<f64> {
        self.get(name)
            .map(|n| if den == 0.0 { 0.0 } else { n / den })
    }
}

/// The current value of a level (a gauge such as `storage.wal_bytes`), read
/// by its printed name.
pub fn level(db: &Database, name: &str) -> Option<f64> {
    db.telemetry()
        .rows()
        .into_iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
}
