//! # ode-obs
//!
//! Engine-wide telemetry for Ode. The paper's environment half promises an
//! *observable* system; this crate supplies the primitives the engine
//! threads through every layer:
//!
//! * [`Counter`] — a relaxed atomic counter cheap enough for hot paths,
//! * [`MaxGauge`] — a high-watermark gauge (trigger cascade depth),
//! * [`LatencyHisto`] — a log₂-bucketed nanosecond histogram (commit
//!   latency),
//! * [`EngineTelemetry`] — the live counter tree, grouped by subsystem
//!   (transactions, queries, versions, triggers, scheduler, analyzer),
//! * [`TelemetrySnapshot`] — a plain-data copy (including substrate
//!   counters) with [`TelemetrySnapshot::delta`] for before/after
//!   measurement and [`TelemetrySnapshot::to_json`] for reports.
//!
//! Every metric is declared once, in the `family!` tables below (field,
//! kind, Prometheus HELP); the live and frozen structs, `snapshot`,
//! `reset`, `delta`, `.stats` rows, JSON and Prometheus text all derive
//! from that one line. The crate also holds:
//!
//! * [`QueryProfile`] — the per-query execution profile behind
//!   `explain forall …`,
//! * [`flight`] — the always-on flight recorder: per-request [`TraceId`]s
//!   and a bounded lock-free span ring dumped by `.trace` or on panic,
//! * [`prom`] — Prometheus text-format exposition of every metric here,
//! * [`logging`] — level-filtered structured JSON logging,
//! * [`slowlog`] — the bounded slow-query log with captured plans.
//!
//! Per-class query work (passes, objects scanned, index probes) is
//! recorded once, in the per-(target, strategy) [`QueryProfile`] buckets.
//!
//! The crate is dependency-free so every layer of the workspace can use it.

pub mod flight;
pub mod logging;
pub mod prom;
pub mod slowlog;

pub use flight::{
    current_trace, render_spans, set_trace, FlightRecorder, SpanGuard, SpanRecord, SpanStage,
    TraceCtx, TraceId, DEFAULT_FLIGHT_CAPACITY,
};
pub use slowlog::{SlowQuery, SlowQueryLog, DEFAULT_SLOW_THRESHOLD_NS};

use std::sync::atomic::{AtomicU64, Ordering};

use prom::PromText;

// ----------------------------------------------------------- primitives

/// A monotonically increasing event counter. All operations use relaxed
/// ordering: counts are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zero the counter (benches and tests measure deltas).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An up/down level gauge (e.g. connections currently open). Like
/// [`Counter`], all operations are relaxed: the value is a statistic.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Raise the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower the level by one (saturating at zero).
    pub fn dec(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Set the level directly (for gauges mirrored from an external
    /// source of truth, e.g. a queue whose depth is recomputed on every
    /// transition).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A high-watermark gauge: remembers the largest observed value.
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// A fresh zeroed gauge.
    pub const fn new() -> MaxGauge {
        MaxGauge(AtomicU64::new(0))
    }

    /// Record `v`; the gauge keeps the maximum seen.
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Largest value observed since the last reset.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets in a [`LatencyHisto`]. Bucket `i` holds samples
/// with `ns < 2^i` (the last bucket absorbs everything larger), so the
/// range spans 1 ns to ~17 minutes — ample for commit latencies.
pub const HISTO_BUCKETS: usize = 40;

/// A lock-free latency histogram with power-of-two nanosecond buckets.
/// Recording is two relaxed atomic adds; quantiles are approximate (bucket
/// upper bounds), which is plenty for spotting fsync cliffs.
#[derive(Debug)]
pub struct LatencyHisto {
    buckets: [AtomicU64; HISTO_BUCKETS],
    sum_ns: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHisto {
    /// A fresh empty histogram.
    pub fn new() -> LatencyHisto {
        LatencyHisto::default()
    }

    fn bucket_of(ns: u64) -> usize {
        // Bucket i covers [2^(i-1), 2^i); 0 ns lands in bucket 0.
        ((64 - ns.leading_zeros()) as usize).min(HISTO_BUCKETS - 1)
    }

    /// Record one sample.
    pub fn record_ns(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Plain-data copy with approximate quantiles.
    pub fn snapshot(&self) -> HistoSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((count as f64) * q).ceil() as u64;
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    // Upper bound of bucket i.
                    return 1u64 << i.min(63);
                }
            }
            1u64 << (HISTO_BUCKETS - 1)
        };
        let max_ns = counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| 1u64 << i.min(63))
            .unwrap_or(0);
        HistoSnapshot {
            count,
            sum_ns,
            p50_ns: quantile(0.50),
            p99_ns: quantile(0.99),
            max_ns,
        }
    }

    /// Zero every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_ns.store(0, Ordering::Relaxed);
    }
}

/// Plain-data summary of a [`LatencyHisto`]. Quantiles are bucket upper
/// bounds (within 2× of the true value by construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub sum_ns: u64,
    /// Approximate median, in nanoseconds.
    pub p50_ns: u64,
    /// Approximate 99th percentile, in nanoseconds.
    pub p99_ns: u64,
    /// Approximate maximum, in nanoseconds.
    pub max_ns: u64,
}

impl HistoSnapshot {
    /// Arithmetic mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Counter-style delta: count and sum subtract; the quantile fields
    /// keep their current values (quantiles do not subtract meaningfully).
    pub fn delta(&self, baseline: &HistoSnapshot) -> HistoSnapshot {
        HistoSnapshot {
            count: self.count.saturating_sub(baseline.count),
            sum_ns: self.sum_ns.saturating_sub(baseline.sum_ns),
            ..*self
        }
    }
}

// --------------------------------------------------------- metric kinds

/// The four metric kinds, one impl each: counter ([`Counter`]), level
/// ([`Gauge`]), max ([`MaxGauge`]) and histo ([`LatencyHisto`]). These
/// impls are the whole reset/delta/Prometheus rule set; the declaration
/// tables below only name a kind per field.
trait Metric {
    /// Frozen value: `u64`, or [`HistoSnapshot`] for a histogram.
    type Value;
    /// Prometheus family-name suffix and `TYPE`.
    const PROM: (&'static str, &'static str);
    fn read(&self) -> Self::Value;
    /// What `reset` does to this kind.
    fn clear(&self);
    /// What `delta` does to this kind.
    fn delta(now: Self::Value, base: Self::Value) -> Self::Value;
}

impl Metric for Counter {
    type Value = u64;
    const PROM: (&'static str, &'static str) = ("_total", "counter");
    fn read(&self) -> u64 {
        self.get()
    }
    fn clear(&self) {
        self.reset()
    }
    fn delta(now: u64, base: u64) -> u64 {
        now.saturating_sub(base)
    }
}

impl Metric for Gauge {
    type Value = u64;
    const PROM: (&'static str, &'static str) = ("", "gauge");
    fn read(&self) -> u64 {
        self.get()
    }
    /// A level mirrors live state (open connections, queued jobs, backoff
    /// pressure); zeroing it would desynchronize the mirror.
    fn clear(&self) {}
    fn delta(now: u64, _: u64) -> u64 {
        now
    }
}

impl Metric for MaxGauge {
    type Value = u64;
    const PROM: (&'static str, &'static str) = ("", "gauge");
    fn read(&self) -> u64 {
        self.get()
    }
    fn clear(&self) {
        self.reset()
    }
    fn delta(now: u64, _: u64) -> u64 {
        now
    }
}

impl Metric for LatencyHisto {
    type Value = HistoSnapshot;
    const PROM: (&'static str, &'static str) = ("_seconds", "summary");
    fn read(&self) -> HistoSnapshot {
        self.snapshot()
    }
    fn clear(&self) {
        self.reset()
    }
    fn delta(now: HistoSnapshot, base: HistoSnapshot) -> HistoSnapshot {
        now.delta(&base)
    }
}

/// How a frozen value renders: a scalar inline, a histogram as a nested
/// JSON object (after its family's scalars), `.count`/`.mean_us`/`.p99_us`
/// rows and a Prometheus summary.
trait Render {
    fn nested(&self) -> bool;
    fn json(&self, out: &mut String);
    fn rows(&self, name: String, out: &mut Vec<(String, String)>);
    fn prom(&self, p: &mut PromText, name: &str, kind: &str, help: &str, labels: &[(&str, &str)]);
}

impl Render for u64 {
    fn nested(&self) -> bool {
        false
    }
    fn json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
    fn rows(&self, name: String, out: &mut Vec<(String, String)>) {
        out.push((name, self.to_string()));
    }
    fn prom(&self, p: &mut PromText, name: &str, kind: &str, help: &str, labels: &[(&str, &str)]) {
        p.family(name, kind, help);
        p.sample(name, labels, *self as f64);
    }
}

impl Render for HistoSnapshot {
    fn nested(&self) -> bool {
        true
    }
    fn json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            self.count, self.sum_ns, self.p50_ns, self.p99_ns, self.max_ns
        ));
    }
    fn rows(&self, name: String, out: &mut Vec<(String, String)>) {
        let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
        out.push((format!("{name}.count"), self.count.to_string()));
        out.push((format!("{name}.mean_us"), us(self.mean_ns())));
        out.push((format!("{name}.p99_us"), us(self.p99_ns)));
    }
    fn prom(&self, p: &mut PromText, name: &str, kind: &str, help: &str, _: &[(&str, &str)]) {
        p.family(name, kind, help);
        p.sample(name, &[("quantile", "0.5")], self.p50_ns as f64 / 1e9);
        p.sample(name, &[("quantile", "0.99")], self.p99_ns as f64 / 1e9);
        p.sample(&format!("{name}_sum"), &[], self.sum_ns as f64 / 1e9);
        p.sample(&format!("{name}_count"), &[], self.count as f64);
    }
}

// ---------------------------------------------------- declaration tables

/// The frozen type of a kind.
macro_rules! value_of {
    (LatencyHisto) => {
        HistoSnapshot
    };
    ($kind:ident) => {
        u64
    };
}

/// One metric family from one table. Each entry is
/// `field: Kind "Prometheus HELP" [row "name"] [label family(key = "value")];`
/// and derives the live field, the frozen field, its `snapshot`, `reset`,
/// `delta`, `.stats` rows, JSON and Prometheus rendering. Default names:
/// row `<family>.<field>`, Prometheus `<prefix>_<field><kind suffix>`.
/// `row` overrides the row name; `label` files the sample under
/// `<prefix>_<family><suffix>{key="value"}`, whose HELP is the first
/// entry's (later entries' HELP text only documents the field).
macro_rules! family {
    ($(#[$doc:meta])* $live:ident => $snap:ident { $($body:tt)* }) => {
        family!(@live $(#[$doc])* $live $snap { $($body)* });
        family!(@snap #[doc = concat!("[`", stringify!($live), "`], frozen.")] $snap { $($body)* });
    };
    ($(#[$doc:meta])* $snap:ident { $($body:tt)* }) => {
        family!(@snap $(#[$doc])* $snap { $($body)* });
    };
    (@live $(#[$doc:meta])* $live:ident $snap:ident { $(
        $(#[$fdoc:meta])* $f:ident: $kind:ident $help:literal
        $(row $row:literal)? $(label $lf:ident($lk:ident = $lv:literal))?;
    )* }) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $live { $( #[doc = $help] $(#[$fdoc])* pub $f: $kind, )* }

        impl $live {
            /// Copy the live metrics into a plain-data snapshot.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $f: Metric::read(&self.$f), )* }
            }

            /// Zero every counter, maximum and histogram; levels keep
            /// their value.
            pub fn reset(&self) {
                $( Metric::clear(&self.$f); )*
            }
        }
    };
    (@snap $(#[$doc:meta])* $snap:ident { $(
        $(#[$fdoc:meta])* $f:ident: $kind:ident $help:literal
        $(row $row:literal)? $(label $lf:ident($lk:ident = $lv:literal))?;
    )* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snap { $( #[doc = $help] pub $f: value_of!($kind), )* }

        impl $snap {
            /// `self - baseline` by kind: counters and histogram counts
            /// subtract (saturating), levels and maxima keep their value.
            pub fn delta(&self, baseline: &$snap) -> $snap {
                $snap { $( $f: <$kind as Metric>::delta(self.$f, baseline.$f), )* }
            }

            fn rows_into(&self, family: &str, out: &mut Vec<(String, String)>) {
                $( self.$f.rows(family!(@row family $f $($row)?), out); )*
            }

            fn json_into(&self, out: &mut String) {
                let mut sep = '{';
                for nested in [false, true] {
                    $( if self.$f.nested() == nested {
                        out.push(sep);
                        sep = ',';
                        out.push_str(concat!("\"", stringify!($f), "\":"));
                        self.$f.json(out);
                    } )*
                }
                out.push('}');
            }

            fn prom_into(&self, prefix: &str, p: &mut PromText) {
                $( family!(@prom p prefix self.$f, $kind $help $f $($lf $lk $lv)?); )*
            }
        }
    };
    (@row $family:ident $f:ident) => { format!("{}.{}", $family, stringify!($f)) };
    (@row $family:ident $f:ident $row:literal) => { $row.to_string() };
    (@prom $p:ident $prefix:ident $v:expr, $kind:ident $help:literal $f:ident) => {
        family!(@prom_as $p $prefix $v, $kind $help $f [])
    };
    (@prom $p:ident $prefix:ident $v:expr, $kind:ident $help:literal $f:ident $lf:ident $lk:ident $lv:literal) => {
        family!(@prom_as $p $prefix $v, $kind $help $lf [(stringify!($lk), $lv)])
    };
    (@prom_as $p:ident $prefix:ident $v:expr, $kind:ident $help:literal $name:ident $labels:tt) => {{
        let (suffix, type_) = <$kind as Metric>::PROM;
        let name = format!("{}_{}{}", $prefix, stringify!($name), suffix);
        $v.prom($p, &name, type_, $help, &$labels)
    }};
}

/// The engine-wide tree over the families: `family: Snapshot [(Live)]
/// "prometheus_prefix";`. The family name is also its row prefix and JSON
/// key; a family without a live struct (storage) is passed to
/// `snapshot`.
macro_rules! engine {
    ($( #[doc = $doc:literal] $fam:ident: $snap:ident $(($live:ident))? $prom:literal; )*) => {
        /// The engine's live counter tree. One instance lives in each
        /// `Database`; every layer increments it through relaxed atomics.
        #[derive(Debug, Default)]
        pub struct EngineTelemetry { $($( #[doc = $doc] pub $fam: $live, )?)* }

        /// A full engine + substrate telemetry snapshot: plain data,
        /// comparable, subtractable, and serializable to JSON without any
        /// dependency.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TelemetrySnapshot { $( #[doc = $doc] pub $fam: $snap, )* }

        impl EngineTelemetry {
            /// Zero every engine statistic (levels keep their value;
            /// substrate counters reset separately).
            pub fn reset(&self) {
                $($( $live::reset(&self.$fam); )?)*
            }

            /// Copy the live counters (plus the given substrate counters)
            /// into a plain-data snapshot.
            pub fn snapshot(&self, storage: StorageSnapshot) -> TelemetrySnapshot {
                TelemetrySnapshot { storage, $($( $fam: $live::snapshot(&self.$fam), )?)* }
            }
        }

        impl TelemetrySnapshot {
            /// `self - baseline` by kind, family by family (see each
            /// family's `delta`).
            pub fn delta(&self, baseline: &TelemetrySnapshot) -> TelemetrySnapshot {
                TelemetrySnapshot { $( $fam: self.$fam.delta(&baseline.$fam), )* }
            }

            /// Flat `(dotted-name, value)` rows for line-oriented display
            /// (the shell's `.stats`). Latency values are in microseconds.
            pub fn rows(&self) -> Vec<(String, String)> {
                let mut out = Vec::with_capacity(96);
                $( self.$fam.rows_into(stringify!($fam), &mut out); )*
                out
            }

            /// Serialize as a stable JSON object, one nested object per
            /// family (no external dependency).
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(2048);
                $(
                    out.push_str(concat!(",\"", stringify!($fam), "\":"));
                    self.$fam.json_into(&mut out);
                )*
                out.replace_range(..1, "{");
                out.push('}');
                out
            }

            fn prom_into(&self, p: &mut PromText) {
                $( self.$fam.prom_into($prom, p); )*
            }
        }
    };
}

engine! {
    /// Storage-layer counters.
    storage: StorageSnapshot "ode_storage";
    /// Transaction counters.
    txn: TxnSnapshot(TxnTelemetry) "ode_txn";
    /// Query-execution counters.
    query: QuerySnapshot(QueryTelemetry) "ode_query";
    /// Version counters.
    versions: VersionSnapshot(VersionTelemetry) "ode_version";
    /// Trigger counters.
    triggers: TriggerSnapshot(TriggerTelemetry) "ode_trigger";
    /// Decoupled-scheduler counters.
    sched: SchedSnapshot(SchedTelemetry) "ode_sched";
    /// Static-analyzer counters.
    analyze: AnalyzeSnapshot(AnalyzeTelemetry) "ode_analyze";
}

family! {
    /// Substrate (storage-layer) counters, flattened for snapshots. The
    /// store keeps the live values; `Database::telemetry` copies them in.
    StorageSnapshot {
        pager_hits: Counter "Buffer-pool page requests served from the pool";
        pager_misses: Counter "Page requests that read the data file";
        pager_evictions: Counter "Frames evicted to make room";
        pager_writebacks: Counter "Dirty frames written back";
        record_reads: Counter "Record reads served by the store";
        record_writes: Counter "Records written by commit batches";
        wal_appends: Counter "WAL commit groups appended";
        wal_fsyncs: Counter "WAL fsyncs issued";
        wal_bytes: Gauge "Bytes in the WAL since the last checkpoint";
        commits: Counter "Committed store batches";
        replayed_groups: Gauge "WAL commit groups replayed at the last open" row "recovery.replayed_groups";
        faults_injected: Counter "Faults injected by a fault-injection wrapper";
        checkpoint_failures: Counter "Checkpoint attempts that failed";
        commit_groups: Counter "Group-commit fsync cohorts (one shared durability phase each)";
        commit_group_members: Counter "Commits that rode a group-commit cohort";
    }
}

family! {
    /// Transaction-layer counters.
    TxnTelemetry => TxnSnapshot {
        begun: Counter "Transactions begun";
        committed: Counter "Transactions committed";
        /// Constraint-violation rollbacks (§5's abort semantics).
        aborted_constraint: Counter "Transactions rolled back, by cause" label aborted(cause = "constraint");
        aborted_other: Counter "Rollbacks from abort(), drops, or non-constraint errors" label aborted(cause = "other");
        read_txns: Counter "Snapshot read transactions begun";
        write_txns: Counter "Write transactions begun";
        commit_latency: LatencyHisto "Wall-clock commit latency";
        /// Flat under pure read traffic: the read path never takes the gate.
        gate_wait: LatencyHisto "Write-gate acquisition wait";
        release_errors: Counter "Reservation releases that failed during rollback";
        commit_retries: Counter "Store-commit attempts retried after transient failures" row "commit.retries";
        /// Surface as retryable `WriteConflict` errors (DESIGN.md §13).
        conflicts: Counter "Commits rejected by optimistic validation (write conflicts)";
        ranged_scans: Counter "Extent scans recorded with analyzer-proven key ranges";
        /// Each one is a false conflict the footprint machinery eliminated.
        narrowed_validations: Counter "Commit validations that passed via range-disjointness proofs";
        /// Raised on each scan/extent conflict, decayed on each claim.
        conflict_pressure: Gauge "Footprint-overlap pressure feeding adaptive retry backoff";
    }
}

family! {
    /// Query-execution counters.
    QueryTelemetry => QuerySnapshot {
        foralls: Counter "forall iterations started";
        joins: Counter "Join queries started";
        clusters_visited: Counter "Cluster heaps enumerated by extent scans";
        objects_scanned: Counter "Objects materialized as candidates";
        predicate_evals: Counter "suchthat predicate evaluations";
        index_probes: Counter "Index lookups/ranges that answered a conjunct";
        deep_extent_scans: Counter "Passes that enumerated a deep extent";
        fixpoint_rounds: Counter "Fixpoint re-evaluation rounds";
        fixpoint_new_objects: Counter "Newly visited objects across fixpoint rounds";
        /// Counts write-set entries an index probe tested besides its
        /// hits (a point key reads only its key map's bucket); each is
        /// borrowed in place, never cloned.
        overlay_clones: Counter "Write-set entries folded into index-probe results";
    }
}

family! {
    /// Version-subsystem counters (§4).
    VersionTelemetry => VersionSnapshot {
        newversions: Counter "newversion calls";
        generic_derefs: Counter "Generic references resolved through a version anchor";
        specific_derefs: Counter "Pinned-version dereferences";
    }
}

family! {
    /// Trigger-subsystem counters (§6).
    TriggerTelemetry => TriggerSnapshot {
        activations: Counter "Trigger activations requested";
        condition_evals: Counter "Trigger-condition evaluations at commit";
        firings: Counter "Triggers fired";
        action_failures: Counter "Fired actions whose own transaction failed";
        deferred_actions: Counter "Firings deferred past the commit point";
        /// Each also counts as an `action_failures`.
        cascade_exhausted: Counter "Firings refused at the cascade depth limit";
        max_cascade_depth: MaxGauge "Deepest trigger cascade observed";
    }
}

family! {
    /// Trigger-backlog counters, kept by the engine in both firing modes:
    /// each pending event is counted once in `enqueued` and leaves as one
    /// `drained` or `dead_letters`, so after a settle the two sides are
    /// equal. `retries` and `suspended` move only with a scheduler attached.
    SchedTelemetry => SchedSnapshot {
        enqueued: Counter "Trigger events made pending (fired, or recovered at open)";
        drained: Counter "Events whose action transaction completed";
        retries: Counter "Action attempts re-queued after transient failures";
        dead_letters: Counter "Events acknowledged without their action completing";
        /// Trigger events are never dropped: they are durable.
        overflow_dropped: Counter "Subscription checks dropped at queue capacity";
        queue_depth: Gauge "Trigger events ready to be claimed";
        suspended: Gauge "Trigger names currently suspended";
        queue_high_water: MaxGauge "Most trigger events ever ready at once";
        drain_lag: LatencyHisto "Pending-to-acknowledged latency of drained events";
    }
}

family! {
    /// Static-analyzer counters (the `ode-analyze` pass that runs before
    /// any transaction is opened).
    AnalyzeTelemetry => AnalyzeSnapshot {
        passes: Counter "Statements analyzed";
        errors: Counter "Statements rejected by the analyzer";
        warnings: Counter "Analyzer warnings";
        latency: LatencyHisto "Static-analysis pass latency";
        /// The abstract-interpretation pass of DESIGN.md §14.
        footprints: Counter "Statement footprints computed";
        /// Run on the snapshot path, skipping the write-txn machinery.
        read_only_proofs: Counter "Statements proven read-only by their footprint";
    }
}

family! {
    /// Serving-layer counters (the `ode-server` network front-end). One
    /// instance lives in each server; the `.server` control op snapshots it.
    ServerTelemetry => ServerSnapshot {
        accepted: Counter "Connections admitted";
        rejected_admission: Counter "Connections refused, by reason" label rejected(reason = "admission");
        rejected_shutdown: Counter "Connections refused because the server was draining" label rejected(reason = "shutdown");
        /// Bad magic, version mismatch, oversized or malformed first frame.
        handshake_failures: Counter "Connections dropped during the handshake";
        requests: Counter "Requests executed";
        engine_errors: Counter "Requests answered with an engine error";
        timed_out: Counter "Requests that exceeded the per-request budget";
        bytes_in: Counter "Wire bytes, by direction" label bytes(direction = "in");
        bytes_out: Counter "Wire bytes sent (frame headers included)" label bytes(direction = "out");
        socket_errors: Counter "Socket-configuration failures survived";
        request_latency: LatencyHisto "Request execution latency";
        active_connections: Gauge "Connections currently open";
        max_concurrent: MaxGauge "Most connections ever open at once";
        subscriptions: Gauge "Live subscriptions currently registered";
        pushes_sent: Counter "Push frames written to subscriber connections";
        push_dropped: Counter "Push frames dropped at a full outbox or closed connection";
        push_outbox_depth: Gauge "Push frames buffered in per-connection outboxes";
    }
}

impl ServerSnapshot {
    /// Flat `(dotted-name, value)` rows (the shell's `.server`).
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(24);
        self.rows_into("server", &mut out);
        out
    }

    /// Serialize as a stable JSON object (like
    /// [`TelemetrySnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        self.json_into(&mut out);
        out
    }
}

// -------------------------------------------------------- query profile

/// How a query's candidate set was produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Enumerate the class's deep extent (cluster hierarchy scan).
    #[default]
    DeepExtentScan,
    /// Enumerate the exact class's extent only (`only` / shallow).
    ShallowExtentScan,
    /// Answer an indexed conjunct from the B-tree on `field`, then
    /// re-check the full predicate.
    IndexProbe {
        /// The indexed field backing the probe.
        field: String,
    },
    /// A join whose inner variables stream their extents once per outer
    /// binding ([`QueryProfile::levels`] names each).
    NestedLoopJoin,
    /// A join where at least one inner variable probes a hash table built
    /// once per statement from its extent ([`QueryProfile::levels`]).
    HashJoin,
}

impl std::fmt::Display for PlanStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanStrategy::DeepExtentScan => write!(f, "deep extent scan"),
            PlanStrategy::ShallowExtentScan => write!(f, "shallow extent scan"),
            PlanStrategy::IndexProbe { field } => write!(f, "index probe on `{field}`"),
            PlanStrategy::NestedLoopJoin => write!(f, "nested-loop join"),
            PlanStrategy::HashJoin => write!(f, "hash join"),
        }
    }
}

/// How one loop variable of a join found its candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinLevel {
    /// The loop variable.
    pub var: String,
    /// Its access path.
    pub access: LevelAccess,
    /// Conjuncts of the predicate tested at this level, before the leaf
    /// tests the whole predicate.
    pub filters: usize,
}

/// A join level's access path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelAccess {
    /// Stream the variable's deep extent for each outer binding.
    ExtentScan,
    /// Stream the extent once into a table keyed by `key` (the build side
    /// of an equality conjunct), then probe it per outer binding.
    HashBuild {
        /// The build side, as written.
        key: String,
        /// Members the build kept.
        built: u64,
    },
}

impl std::fmt::Display for JoinLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.access {
            LevelAccess::ExtentScan => write!(f, "extent scan")?,
            LevelAccess::HashBuild { key, built: 1 } => {
                write!(f, "hash build on `{key}` (1 member built)")?
            }
            LevelAccess::HashBuild { key, built } => {
                write!(f, "hash build on `{key}` ({built} members built)")?
            }
        }
        match self.filters {
            0 => Ok(()),
            1 => write!(f, " + 1 pushed filter"),
            n => write!(f, " + {n} pushed filters"),
        }
    }
}

/// Execution profile of one query pass — the payload behind
/// `explain forall …` and the source of the global query counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    /// Iterated class (or comma-joined classes for a join).
    pub target: String,
    /// Chosen access path.
    pub strategy: PlanStrategy,
    /// Cluster heaps enumerated.
    pub clusters_visited: u64,
    /// Objects materialized as candidates before predicate filtering.
    pub objects_scanned: u64,
    /// `suchthat` evaluations performed.
    pub predicate_evals: u64,
    /// Index lookups/range scans performed.
    pub index_probes: u64,
    /// Bindings produced.
    pub rows: u64,
    /// Fixpoint rounds executed (0 for snapshot queries).
    pub fixpoint_rounds: u64,
    /// Newly visited objects per fixpoint round.
    pub fixpoint_new_by_round: Vec<u64>,
    /// For a join, each loop variable's access path, outermost first.
    pub levels: Vec<JoinLevel>,
}

impl QueryProfile {
    /// Merge another pass into this profile (fixpoint rounds accumulate
    /// passes; the strategy of the first pass wins).
    pub fn absorb(&mut self, other: &QueryProfile) {
        if self.target.is_empty() {
            self.target = other.target.clone();
            self.strategy = other.strategy.clone();
            self.levels = other.levels.clone();
        }
        self.clusters_visited += other.clusters_visited;
        self.objects_scanned += other.objects_scanned;
        self.predicate_evals += other.predicate_evals;
        self.index_probes += other.index_probes;
        self.rows = other.rows;
        self.fixpoint_rounds += other.fixpoint_rounds;
        self.fixpoint_new_by_round
            .extend_from_slice(&other.fixpoint_new_by_round);
    }

    /// [`QueryProfile::absorb`] a pass the caller is done with: its target,
    /// strategy and levels move in rather than being copied.
    pub fn absorb_owned(&mut self, mut other: QueryProfile) {
        if self.target.is_empty() {
            self.target = std::mem::take(&mut other.target);
            self.strategy = std::mem::take(&mut other.strategy);
            self.levels = std::mem::take(&mut other.levels);
        }
        self.absorb(&other);
    }

    /// `(column, value)` rows for tabular display (`explain` output).
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut out = vec![
            ("target".to_string(), self.target.clone()),
            ("strategy".to_string(), self.strategy.to_string()),
            (
                "clusters_visited".to_string(),
                self.clusters_visited.to_string(),
            ),
            (
                "objects_scanned".to_string(),
                self.objects_scanned.to_string(),
            ),
            (
                "predicate_evals".to_string(),
                self.predicate_evals.to_string(),
            ),
            ("index_probes".to_string(), self.index_probes.to_string()),
            ("rows".to_string(), self.rows.to_string()),
        ];
        for level in &self.levels {
            out.push((format!("level {}", level.var), level.to_string()));
        }
        if self.fixpoint_rounds > 0 {
            out.push((
                "fixpoint_rounds".to_string(),
                self.fixpoint_rounds.to_string(),
            ));
            out.push((
                "fixpoint_new_by_round".to_string(),
                format!("{:?}", self.fixpoint_new_by_round),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = MaxGauge::new();
        g.observe(3);
        g.observe(1);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHisto::new();
        for _ in 0..99 {
            h.record_ns(1_000); // bucket ~2^10
        }
        h.record_ns(1_000_000); // one slow outlier
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.p50_ns <= 2_048, "p50 {}", s.p50_ns);
        assert!(s.p99_ns <= 2_048, "p99 covers the fast mass: {}", s.p99_ns);
        assert!(s.max_ns >= 1_000_000, "max {}", s.max_ns);
        assert!(s.mean_ns() >= 1_000);
    }

    #[test]
    fn snapshot_delta_subtracts_counts() {
        let tel = EngineTelemetry::default();
        tel.txn.begun.add(3);
        tel.query.objects_scanned.add(10);
        let before = tel.snapshot(StorageSnapshot::default());
        tel.txn.begun.add(2);
        tel.query.objects_scanned.add(5);
        let after = tel.snapshot(StorageSnapshot {
            pager_hits: 7,
            ..StorageSnapshot::default()
        });
        let d = after.delta(&before);
        assert_eq!(d.txn.begun, 2);
        assert_eq!(d.query.objects_scanned, 5);
        assert_eq!(d.storage.pager_hits, 7);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let snap = EngineTelemetry::default().snapshot(StorageSnapshot::default());
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"storage\":",
            "\"txn\":",
            "\"query\":",
            "\"versions\":",
            "\"triggers\":",
            "\"sched\":",
            "\"analyze\":",
        ] {
            assert!(json.contains(key), "{json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn profile_rows_show_strategy() {
        let prof = QueryProfile {
            target: "stockitem".into(),
            strategy: PlanStrategy::IndexProbe {
                field: "quantity".into(),
            },
            objects_scanned: 12,
            rows: 3,
            ..QueryProfile::default()
        };
        let rows = prof.rows();
        assert!(rows
            .iter()
            .any(|(k, v)| k == "strategy" && v.contains("index probe")));
        assert!(rows.iter().any(|(k, v)| k == "rows" && v == "3"));
    }

    #[test]
    fn gauge_tracks_levels() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // saturates at zero
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn server_telemetry_snapshot_rows_and_reset() {
        let tel = ServerTelemetry::default();
        tel.accepted.add(3);
        tel.rejected_admission.inc();
        tel.requests.add(10);
        tel.bytes_in.add(100);
        tel.request_latency.record_ns(5_000);
        tel.active_connections.inc();
        tel.max_concurrent.observe(2);
        let snap = tel.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.rejected_admission, 1);
        assert_eq!(snap.active_connections, 1);
        let rows = snap.rows();
        assert!(rows.iter().any(|(k, v)| k == "server.accepted" && v == "3"));
        assert!(rows
            .iter()
            .any(|(k, _)| k == "server.request_latency.p99_us"));
        let json = snap.to_json();
        assert!(json.contains("\"rejected_admission\":1"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let before = snap;
        tel.requests.add(5);
        let d = tel.snapshot().delta(&before);
        assert_eq!(d.requests, 5);
        assert_eq!(d.accepted, 0);

        tel.reset();
        let snap = tel.snapshot();
        assert_eq!(snap.accepted, 0);
        assert_eq!(snap.requests, 0);
        // The live connection level survives a counter reset.
        assert_eq!(snap.active_connections, 1);
    }

    #[test]
    fn delta_saturates_when_reset_races_baseline() {
        // Regression: `.stats reset` between a baseline snapshot and the
        // delta must not wrap counters to ~u64::MAX — every delta path
        // (histogram counts included) saturates at zero instead.
        let tel = EngineTelemetry::default();
        tel.txn.begun.add(10);
        tel.txn.commit_latency.record_ns(1_000);
        tel.query.objects_scanned.add(100);
        let baseline = tel.snapshot(StorageSnapshot {
            pager_hits: 50,
            ..StorageSnapshot::default()
        });
        tel.reset(); // the race: counters go back to zero
        tel.txn.begun.add(2);
        let after = tel.snapshot(StorageSnapshot::default());
        let d = after.delta(&baseline);
        assert_eq!(d.txn.begun, 0, "2 - 10 saturates");
        assert_eq!(d.query.objects_scanned, 0);
        assert_eq!(d.storage.pager_hits, 0);
        assert_eq!(d.txn.commit_latency.count, 0);
        assert_eq!(d.txn.commit_latency.sum_ns, 0);

        let srv = ServerTelemetry::default();
        srv.requests.add(5);
        srv.request_latency.record_ns(10);
        let sbase = srv.snapshot();
        srv.reset();
        let sd = srv.snapshot().delta(&sbase);
        assert_eq!(sd.requests, 0);
        assert_eq!(sd.request_latency.count, 0);
    }

    #[test]
    fn telemetry_reset_zeroes_everything() {
        let tel = EngineTelemetry::default();
        tel.txn.begun.inc();
        tel.triggers.max_cascade_depth.observe(4);
        tel.triggers.cascade_exhausted.inc();
        tel.txn.commit_latency.record_ns(10);
        tel.sched.enqueued.add(5);
        tel.sched.dead_letters.inc();
        tel.sched.queue_high_water.observe(9);
        tel.sched.drain_lag.record_ns(10);
        tel.analyze.passes.inc();
        tel.analyze.errors.inc();
        tel.analyze.latency.record_ns(10);
        tel.reset();
        let s = tel.snapshot(StorageSnapshot::default());
        assert_eq!(s, TelemetrySnapshot::default());
    }

    #[test]
    fn sched_snapshot_delta_keeps_levels() {
        let tel = EngineTelemetry::default();
        tel.sched.enqueued.add(10);
        tel.sched.queue_depth.inc();
        let before = tel.snapshot(StorageSnapshot::default());
        tel.sched.enqueued.add(3);
        tel.sched.drained.add(12);
        tel.sched.queue_depth.inc();
        let d = tel.snapshot(StorageSnapshot::default()).delta(&before);
        assert_eq!(d.sched.enqueued, 3);
        assert_eq!(d.sched.drained, 12);
        assert_eq!(d.sched.queue_depth, 2, "gauge keeps its level");
    }
}
