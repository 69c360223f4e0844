//! Per-cluster / per-index workload statistics.
//!
//! The statistics substrate for the future cost-based planner (ROADMAP
//! item 3): every query pass and commit batch bumps read/write/scan
//! counters keyed by the cluster (or index) it touched. The engine
//! persists a snapshot into the catalog at checkpoint so the counts
//! survive restarts and accumulate across runs.
//!
//! Keys are plain strings chosen by the engine: `cluster:<class>` and
//! `index:<class>.<field>`. Keeping the registry string-keyed keeps this
//! crate dependency-free.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::Counter;

/// Live counters for one cluster or index.
#[derive(Debug, Default)]
pub struct WorkStat {
    /// Objects/entries read (candidates materialized, index probes).
    pub reads: Counter,
    /// Records written by committed batches.
    pub writes: Counter,
    /// Extent scans that enumerated this cluster.
    pub scans: Counter,
}

/// One registry entry, frozen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkStatRow {
    /// `cluster:<class>` or `index:<class>.<field>`.
    pub key: String,
    /// See [`WorkStat::reads`].
    pub reads: u64,
    /// See [`WorkStat::writes`].
    pub writes: u64,
    /// See [`WorkStat::scans`].
    pub scans: u64,
}

/// The keyed counter registry. Lookup takes a read lock on the key map;
/// the counters themselves are relaxed atomics, so the hot path after
/// the first touch of a key is lock-free.
#[derive(Debug, Default)]
pub struct WorkloadStats {
    map: RwLock<HashMap<String, Arc<WorkStat>>>,
}

fn read_map(
    map: &RwLock<HashMap<String, Arc<WorkStat>>>,
) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<WorkStat>>> {
    match map.read() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl WorkloadStats {
    /// A fresh empty registry.
    pub fn new() -> WorkloadStats {
        WorkloadStats::default()
    }

    /// The counters for `key`, created on first touch.
    pub fn entry(&self, key: &str) -> Arc<WorkStat> {
        if let Some(stat) = read_map(&self.map).get(key) {
            return Arc::clone(stat);
        }
        let mut map = match self.map.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        Arc::clone(map.entry(key.to_string()).or_default())
    }

    /// Add a persisted row's counts into the registry (catalog replay at
    /// open; counts accumulate across restarts).
    pub fn absorb(&self, row: &WorkStatRow) {
        let stat = self.entry(&row.key);
        stat.reads.add(row.reads);
        stat.writes.add(row.writes);
        stat.scans.add(row.scans);
    }

    /// Every entry, frozen and sorted by key.
    pub fn snapshot(&self) -> Vec<WorkStatRow> {
        let mut out: Vec<WorkStatRow> = read_map(&self.map)
            .iter()
            .map(|(k, s)| WorkStatRow {
                key: k.clone(),
                reads: s.reads.get(),
                writes: s.writes.get(),
                scans: s.scans.get(),
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Zero every counter (entries stay registered).
    pub fn reset(&self) {
        for stat in read_map(&self.map).values() {
            stat.reads.reset();
            stat.writes.reset();
            stat.scans.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_accumulates_and_snapshots_sorted() {
        let ws = WorkloadStats::new();
        ws.entry("cluster:stockitem").reads.add(5);
        ws.entry("cluster:stockitem").scans.inc();
        ws.entry("cluster:apple").writes.add(2);
        let snap = ws.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].key, "cluster:apple");
        assert_eq!(snap[0].writes, 2);
        assert_eq!(snap[1].reads, 5);
        assert_eq!(snap[1].scans, 1);
    }

    #[test]
    fn absorb_adds_persisted_counts() {
        let ws = WorkloadStats::new();
        ws.entry("cluster:a").reads.add(1);
        ws.absorb(&WorkStatRow {
            key: "cluster:a".into(),
            reads: 10,
            writes: 3,
            scans: 2,
        });
        let snap = ws.snapshot();
        assert_eq!(snap[0].reads, 11);
        assert_eq!(snap[0].writes, 3);
    }

    #[test]
    fn reset_zeroes_but_keeps_keys() {
        let ws = WorkloadStats::new();
        ws.entry("index:a.f").reads.add(4);
        ws.reset();
        let snap = ws.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].reads, 0);
    }
}
