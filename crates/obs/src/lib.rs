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
//!   (transactions, queries, versions, triggers),
//! * [`TelemetrySnapshot`] — a plain-data copy (including substrate
//!   counters) with [`TelemetrySnapshot::delta`] for before/after
//!   measurement and [`TelemetrySnapshot::to_json`] for reports,
//! * [`QueryProfile`] — the per-query execution profile behind
//!   `explain forall …`,
//! * [`flight`] — the always-on flight recorder: per-request [`TraceId`]s
//!   and a bounded lock-free span ring dumped by `.trace` or on panic,
//! * [`prom`] — Prometheus text-format exposition of every metric here,
//! * [`logging`] — level-filtered structured JSON logging,
//! * [`slowlog`] — the bounded slow-query log with captured plans,
//! * [`workstats`] — per-cluster/per-index read/write/scan statistics,
//!   persisted into the catalog as the future optimizer's substrate.
//!
//! The crate is dependency-free so every layer of the workspace can use it.

pub mod flight;
pub mod logging;
pub mod prom;
pub mod slowlog;
pub mod workstats;

pub use flight::{
    current_trace, render_spans, set_trace, FlightRecorder, SpanGuard, SpanRecord, SpanStage,
    TraceCtx, TraceId, DEFAULT_FLIGHT_CAPACITY,
};
pub use slowlog::{SlowQuery, SlowQueryLog, DEFAULT_SLOW_THRESHOLD_NS};
pub use workstats::{WorkStat, WorkStatRow, WorkloadStats};

use std::sync::atomic::{AtomicU64, Ordering};

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

    fn json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
            self.count, self.sum_ns, self.p50_ns, self.p99_ns, self.max_ns
        ));
    }
}

// -------------------------------------------------------- live counters

/// Transaction-layer counters.
#[derive(Debug, Default)]
pub struct TxnTelemetry {
    /// Transactions begun.
    pub begun: Counter,
    /// Transactions committed.
    pub committed: Counter,
    /// Rollbacks caused by a constraint violation (§5's abort semantics).
    pub aborted_constraint: Counter,
    /// Rollbacks from explicit `abort()`, drops, or non-constraint errors.
    pub aborted_other: Counter,
    /// Snapshot read transactions begun (`begin_read`): never queue at the
    /// write gate.
    pub read_txns: Counter,
    /// Write transactions begun (`begin`): serialized behind the gate.
    pub write_txns: Counter,
    /// Wall-clock latency of `commit()` (pipeline + weak-coupled actions).
    pub commit_latency: LatencyHisto,
    /// Time spent waiting to acquire the write gate in `begin()`. A read
    /// path that stays off the gate contributes nothing here — asserting
    /// `gate_wait.count` stays flat under read traffic proves it.
    pub gate_wait: LatencyHisto,
    /// `store.release()` failures during rollback. A failed release leaks
    /// the reserved slot until the next reopen reclaims it; the count makes
    /// that leak observable instead of silently swallowed.
    pub release_errors: Counter,
    /// Store-commit attempts retried after a transient (retryable) storage
    /// failure. The WAL rolls a failed group append back to a clean tail,
    /// so the engine can re-issue the identical batch (DESIGN.md §10).
    pub commit_retries: Counter,
    /// Commits rejected by optimistic validation: another transaction
    /// published a conflicting change after this one began (DESIGN.md
    /// §13). These surface as retryable `WriteConflict` errors.
    pub conflicts: Counter,
    /// Extent scans recorded with an analyzer-proven predicate range
    /// instead of a whole-heap entry (DESIGN.md §14). Ranged scans are
    /// eligible for narrowed validation at commit.
    pub ranged_scans: Counter,
    /// Commit validations that passed only because every newer write to a
    /// scanned heap was provably outside the scan's key range — each one
    /// is a false conflict the footprint machinery eliminated.
    pub narrowed_validations: Counter,
    /// Footprint-overlap pressure: raised on each scan/extent conflict,
    /// decayed on each successful claim. The retry loop shifts its
    /// backoff further while this is high, so hot-heap contention drains
    /// instead of thrashing.
    pub conflict_pressure: Gauge,
}

/// Query-execution counters.
#[derive(Debug, Default)]
pub struct QueryTelemetry {
    /// `forall` iterations started.
    pub foralls: Counter,
    /// Join (`forall_join`) queries started.
    pub joins: Counter,
    /// Cluster heaps enumerated by extent scans.
    pub clusters_visited: Counter,
    /// Objects materialized as candidates (scanned or probed).
    pub objects_scanned: Counter,
    /// `suchthat` predicate evaluations.
    pub predicate_evals: Counter,
    /// Index lookups/ranges that answered a conjunct.
    pub index_probes: Counter,
    /// Passes that fell back to enumerating a deep extent.
    pub deep_extent_scans: Counter,
    /// Fixpoint re-evaluation rounds (§3.2).
    pub fixpoint_rounds: Counter,
    /// Newly visited objects across all fixpoint rounds.
    pub fixpoint_new_objects: Counter,
    /// Write-set object states cloned while merging a transaction's
    /// overlay into query results. Extent scans borrow overlay states in
    /// place, so only index probes folding class-matching writes into
    /// their (selectivity-sized) result contribute — this stays near zero
    /// under scan-heavy load, proving scans no longer copy the write set.
    pub overlay_clones: Counter,
}

/// Version-subsystem counters (§4).
#[derive(Debug, Default)]
pub struct VersionTelemetry {
    /// `newversion` / `newversion_from` calls.
    pub newversions: Counter,
    /// Generic references resolved through a version anchor to the current
    /// version's record (a chain follow).
    pub generic_derefs: Counter,
    /// Specific (pinned-version) dereferences.
    pub specific_derefs: Counter,
}

/// Trigger-subsystem counters (§6).
#[derive(Debug, Default)]
pub struct TriggerTelemetry {
    /// Trigger activations requested.
    pub activations: Counter,
    /// Trigger-condition evaluations at commit.
    pub condition_evals: Counter,
    /// Triggers fired (actions dispatched).
    pub firings: Counter,
    /// Fired actions whose own transaction failed (weak coupling records
    /// these instead of propagating).
    pub action_failures: Counter,
    /// Firings deferred past the commit point (weak coupling, §6).
    pub deferred_actions: Counter,
    /// Firings refused because the cascade reached the configured depth
    /// limit (each also counts as an `action_failures`).
    pub cascade_exhausted: Counter,
    /// Deepest trigger cascade observed.
    pub max_cascade_depth: MaxGauge,
}

/// Decoupled-trigger-scheduler counters. Zero everywhere unless a
/// scheduler is attached; then commits enqueue events and the worker pool
/// drains them off the commit path.
#[derive(Debug, Default)]
pub struct SchedTelemetry {
    /// Events durably enqueued by committing transactions.
    pub enqueued: Counter,
    /// Events whose action transaction ran to completion.
    pub drained: Counter,
    /// Action attempts re-queued after a transient failure.
    pub retries: Counter,
    /// Events abandoned to the dead-letter list after exhausting retries
    /// (or failing permanently).
    pub dead_letters: Counter,
    /// Subscription-check jobs dropped because the queue was at capacity
    /// (trigger events are never dropped — they are durable and bounded by
    /// the backlog on disk, not the in-memory queue).
    pub overflow_dropped: Counter,
    /// Jobs currently sitting in the scheduler queue.
    pub queue_depth: Gauge,
    /// Trigger names currently suspended (manual or auto after repeated
    /// failure).
    pub suspended: Gauge,
    /// Most jobs ever queued at once.
    pub queue_high_water: MaxGauge,
    /// Enqueue-to-dispatch latency: how far the drain lags the commits.
    pub drain_lag: LatencyHisto,
}

/// Static-analyzer counters (the `ode-analyze` front-end pass that runs
/// before any transaction is opened).
#[derive(Debug, Default)]
pub struct AnalyzeTelemetry {
    /// Statements (and DDL batches) analyzed.
    pub passes: Counter,
    /// Error-severity diagnostics produced (statements rejected).
    pub errors: Counter,
    /// Warning-severity diagnostics produced (statement still ran).
    pub warnings: Counter,
    /// Wall-clock latency of one analysis pass — the overhead the
    /// front-end adds to each statement, visible in `.stats`.
    pub latency: LatencyHisto,
    /// Statement footprints computed (the abstract-interpretation pass of
    /// DESIGN.md §14).
    pub footprints: Counter,
    /// Statements proven read-only by their footprint: the engine runs
    /// them on the snapshot path, skipping the write-txn machinery.
    pub read_only_proofs: Counter,
}

/// Serving-layer counters (the `ode-server` network front-end). One
/// instance lives in each server; connection and request paths increment
/// it through relaxed atomics, and the `.server` control op snapshots it.
#[derive(Debug, Default)]
pub struct ServerTelemetry {
    /// Connections admitted past the admission semaphore.
    pub accepted: Counter,
    /// Connections refused because the server was at `max_connections`.
    pub rejected_admission: Counter,
    /// Connections refused because the server was draining for shutdown.
    pub rejected_shutdown: Counter,
    /// Connections dropped during the protocol handshake (bad magic,
    /// version mismatch, oversized or malformed first frame).
    pub handshake_failures: Counter,
    /// Requests executed (statements and control ops).
    pub requests: Counter,
    /// Requests answered with an engine error (constraint violation,
    /// parse error, …) — the connection survives these.
    pub engine_errors: Counter,
    /// Requests whose execution exceeded the per-request budget and were
    /// answered with a typed timeout error.
    pub timed_out: Counter,
    /// Wire bytes received (frame headers included).
    pub bytes_in: Counter,
    /// Wire bytes sent (frame headers included).
    pub bytes_out: Counter,
    /// Socket-configuration failures (nodelay, read/write timeouts) that
    /// the connection loop survives but should not silently drop.
    pub socket_errors: Counter,
    /// Wall-clock latency of request execution.
    pub request_latency: LatencyHisto,
    /// Connections currently open.
    pub active_connections: Gauge,
    /// Most connections ever open at once.
    pub max_concurrent: MaxGauge,
    /// Live subscriptions currently registered across all connections.
    pub subscriptions: Gauge,
    /// Push frames written to subscriber connections.
    pub pushes_sent: Counter,
    /// Push frames dropped because a subscriber's outbox was full (slow
    /// consumer) or its connection closed before the drain.
    pub push_dropped: Counter,
    /// Push frames currently buffered in per-connection outboxes.
    pub push_outbox_depth: Gauge,
}

impl ServerTelemetry {
    /// Copy the live counters into a plain-data snapshot.
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            accepted: self.accepted.get(),
            rejected_admission: self.rejected_admission.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            handshake_failures: self.handshake_failures.get(),
            requests: self.requests.get(),
            engine_errors: self.engine_errors.get(),
            timed_out: self.timed_out.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            socket_errors: self.socket_errors.get(),
            request_latency: self.request_latency.snapshot(),
            active_connections: self.active_connections.get(),
            max_concurrent: self.max_concurrent.get(),
            subscriptions: self.subscriptions.get(),
            pushes_sent: self.pushes_sent.get(),
            push_dropped: self.push_dropped.get(),
            push_outbox_depth: self.push_outbox_depth.get(),
        }
    }

    /// Zero every server counter.
    pub fn reset(&self) {
        for c in [
            &self.accepted,
            &self.rejected_admission,
            &self.rejected_shutdown,
            &self.handshake_failures,
            &self.requests,
            &self.engine_errors,
            &self.timed_out,
            &self.bytes_in,
            &self.bytes_out,
            &self.socket_errors,
            &self.pushes_sent,
            &self.push_dropped,
        ] {
            c.reset();
        }
        self.request_latency.reset();
        self.max_concurrent.reset();
        // `active_connections`, `subscriptions`, and `push_outbox_depth`
        // are live levels, not statistics: resetting them would
        // desynchronize the counts they mirror.
    }
}

/// Server counters, frozen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// See [`ServerTelemetry::accepted`].
    pub accepted: u64,
    /// See [`ServerTelemetry::rejected_admission`].
    pub rejected_admission: u64,
    /// See [`ServerTelemetry::rejected_shutdown`].
    pub rejected_shutdown: u64,
    /// See [`ServerTelemetry::handshake_failures`].
    pub handshake_failures: u64,
    /// See [`ServerTelemetry::requests`].
    pub requests: u64,
    /// See [`ServerTelemetry::engine_errors`].
    pub engine_errors: u64,
    /// See [`ServerTelemetry::timed_out`].
    pub timed_out: u64,
    /// See [`ServerTelemetry::bytes_in`].
    pub bytes_in: u64,
    /// See [`ServerTelemetry::bytes_out`].
    pub bytes_out: u64,
    /// See [`ServerTelemetry::socket_errors`].
    pub socket_errors: u64,
    /// See [`ServerTelemetry::request_latency`].
    pub request_latency: HistoSnapshot,
    /// See [`ServerTelemetry::active_connections`].
    pub active_connections: u64,
    /// See [`ServerTelemetry::max_concurrent`].
    pub max_concurrent: u64,
    /// See [`ServerTelemetry::subscriptions`].
    pub subscriptions: u64,
    /// See [`ServerTelemetry::pushes_sent`].
    pub pushes_sent: u64,
    /// See [`ServerTelemetry::push_dropped`].
    pub push_dropped: u64,
    /// See [`ServerTelemetry::push_outbox_depth`].
    pub push_outbox_depth: u64,
}

impl ServerSnapshot {
    /// Field-wise `self - baseline` (saturating); levels
    /// (`active_connections`, `max_concurrent`, quantiles) keep their
    /// current values.
    pub fn delta(&self, baseline: &ServerSnapshot) -> ServerSnapshot {
        ServerSnapshot {
            accepted: self.accepted.saturating_sub(baseline.accepted),
            rejected_admission: self
                .rejected_admission
                .saturating_sub(baseline.rejected_admission),
            rejected_shutdown: self
                .rejected_shutdown
                .saturating_sub(baseline.rejected_shutdown),
            handshake_failures: self
                .handshake_failures
                .saturating_sub(baseline.handshake_failures),
            requests: self.requests.saturating_sub(baseline.requests),
            engine_errors: self.engine_errors.saturating_sub(baseline.engine_errors),
            timed_out: self.timed_out.saturating_sub(baseline.timed_out),
            bytes_in: self.bytes_in.saturating_sub(baseline.bytes_in),
            bytes_out: self.bytes_out.saturating_sub(baseline.bytes_out),
            socket_errors: self.socket_errors.saturating_sub(baseline.socket_errors),
            request_latency: self.request_latency.delta(&baseline.request_latency),
            pushes_sent: self.pushes_sent.saturating_sub(baseline.pushes_sent),
            push_dropped: self.push_dropped.saturating_sub(baseline.push_dropped),
            ..*self
        }
    }

    /// Flat `(dotted-name, value)` rows for line-oriented display (the
    /// shell's `.server` over the wire).
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(16);
        let mut push = |name: &str, v: u64| out.push((name.to_string(), v.to_string()));
        push("server.accepted", self.accepted);
        push("server.rejected_admission", self.rejected_admission);
        push("server.rejected_shutdown", self.rejected_shutdown);
        push("server.handshake_failures", self.handshake_failures);
        push("server.requests", self.requests);
        push("server.engine_errors", self.engine_errors);
        push("server.timed_out", self.timed_out);
        push("server.bytes_in", self.bytes_in);
        push("server.bytes_out", self.bytes_out);
        push("server.socket_errors", self.socket_errors);
        push("server.active_connections", self.active_connections);
        push("server.max_concurrent", self.max_concurrent);
        push("server.subscriptions", self.subscriptions);
        push("server.pushes_sent", self.pushes_sent);
        push("server.push_dropped", self.push_dropped);
        push("server.push_outbox_depth", self.push_outbox_depth);
        push("server.request_latency.count", self.request_latency.count);
        out.push((
            "server.request_latency.mean_us".to_string(),
            format!("{:.1}", self.request_latency.mean_ns() as f64 / 1e3),
        ));
        out.push((
            "server.request_latency.p99_us".to_string(),
            format!("{:.1}", self.request_latency.p99_ns as f64 / 1e3),
        ));
        out
    }

    /// Serialize as a stable JSON object (dependency-free, like
    /// [`TelemetrySnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"accepted\":{},\"rejected_admission\":{},\
             \"rejected_shutdown\":{},\"handshake_failures\":{},\
             \"requests\":{},\"engine_errors\":{},\"timed_out\":{},\
             \"bytes_in\":{},\"bytes_out\":{},\"socket_errors\":{},\
             \"active_connections\":{},\
             \"max_concurrent\":{},\"subscriptions\":{},\
             \"pushes_sent\":{},\"push_dropped\":{},\
             \"push_outbox_depth\":{},\"request_latency\":",
            self.accepted,
            self.rejected_admission,
            self.rejected_shutdown,
            self.handshake_failures,
            self.requests,
            self.engine_errors,
            self.timed_out,
            self.bytes_in,
            self.bytes_out,
            self.socket_errors,
            self.active_connections,
            self.max_concurrent,
            self.subscriptions,
            self.pushes_sent,
            self.push_dropped,
            self.push_outbox_depth
        ));
        self.request_latency.json(&mut out);
        out.push('}');
        out
    }
}

/// The engine's live counter tree. One instance lives in each `Database`;
/// every layer increments it through relaxed atomics.
#[derive(Debug, Default)]
pub struct EngineTelemetry {
    /// Transaction counters.
    pub txn: TxnTelemetry,
    /// Query-execution counters.
    pub query: QueryTelemetry,
    /// Version counters.
    pub versions: VersionTelemetry,
    /// Trigger counters.
    pub triggers: TriggerTelemetry,
    /// Decoupled-scheduler counters.
    pub sched: SchedTelemetry,
    /// Static-analyzer counters.
    pub analyze: AnalyzeTelemetry,
}

impl EngineTelemetry {
    /// Zero every engine counter (substrate counters reset separately).
    pub fn reset(&self) {
        let t = &self.txn;
        for c in [
            &t.begun,
            &t.committed,
            &t.aborted_constraint,
            &t.aborted_other,
            &t.read_txns,
            &t.write_txns,
            &t.release_errors,
            &t.commit_retries,
            &t.conflicts,
            &t.ranged_scans,
            &t.narrowed_validations,
        ] {
            c.reset();
        }
        // `conflict_pressure` is a live level fed back into retry backoff;
        // zeroing it would erase real contention state.
        t.commit_latency.reset();
        t.gate_wait.reset();
        let q = &self.query;
        for c in [
            &q.foralls,
            &q.joins,
            &q.clusters_visited,
            &q.objects_scanned,
            &q.predicate_evals,
            &q.index_probes,
            &q.deep_extent_scans,
            &q.fixpoint_rounds,
            &q.fixpoint_new_objects,
            &q.overlay_clones,
        ] {
            c.reset();
        }
        let v = &self.versions;
        for c in [&v.newversions, &v.generic_derefs, &v.specific_derefs] {
            c.reset();
        }
        let g = &self.triggers;
        for c in [
            &g.activations,
            &g.condition_evals,
            &g.firings,
            &g.action_failures,
            &g.deferred_actions,
            &g.cascade_exhausted,
        ] {
            c.reset();
        }
        g.max_cascade_depth.reset();
        let sc = &self.sched;
        for c in [
            &sc.enqueued,
            &sc.drained,
            &sc.retries,
            &sc.dead_letters,
            &sc.overflow_dropped,
        ] {
            c.reset();
        }
        // Queue depth and suspensions are live levels that mirror
        // scheduler state; zeroing them would desynchronize the mirror.
        sc.queue_high_water.reset();
        sc.drain_lag.reset();
        let a = &self.analyze;
        for c in [
            &a.passes,
            &a.errors,
            &a.warnings,
            &a.footprints,
            &a.read_only_proofs,
        ] {
            c.reset();
        }
        a.latency.reset();
    }

    /// Copy the live counters (plus the given substrate counters) into a
    /// plain-data snapshot.
    pub fn snapshot(&self, storage: StorageSnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            storage,
            txn: TxnSnapshot {
                begun: self.txn.begun.get(),
                committed: self.txn.committed.get(),
                aborted_constraint: self.txn.aborted_constraint.get(),
                aborted_other: self.txn.aborted_other.get(),
                read_txns: self.txn.read_txns.get(),
                write_txns: self.txn.write_txns.get(),
                commit_latency: self.txn.commit_latency.snapshot(),
                gate_wait: self.txn.gate_wait.snapshot(),
                release_errors: self.txn.release_errors.get(),
                commit_retries: self.txn.commit_retries.get(),
                conflicts: self.txn.conflicts.get(),
                ranged_scans: self.txn.ranged_scans.get(),
                narrowed_validations: self.txn.narrowed_validations.get(),
                conflict_pressure: self.txn.conflict_pressure.get(),
            },
            query: QuerySnapshot {
                foralls: self.query.foralls.get(),
                joins: self.query.joins.get(),
                clusters_visited: self.query.clusters_visited.get(),
                objects_scanned: self.query.objects_scanned.get(),
                predicate_evals: self.query.predicate_evals.get(),
                index_probes: self.query.index_probes.get(),
                deep_extent_scans: self.query.deep_extent_scans.get(),
                fixpoint_rounds: self.query.fixpoint_rounds.get(),
                fixpoint_new_objects: self.query.fixpoint_new_objects.get(),
                overlay_clones: self.query.overlay_clones.get(),
            },
            versions: VersionSnapshot {
                newversions: self.versions.newversions.get(),
                generic_derefs: self.versions.generic_derefs.get(),
                specific_derefs: self.versions.specific_derefs.get(),
            },
            triggers: TriggerSnapshot {
                activations: self.triggers.activations.get(),
                condition_evals: self.triggers.condition_evals.get(),
                firings: self.triggers.firings.get(),
                action_failures: self.triggers.action_failures.get(),
                deferred_actions: self.triggers.deferred_actions.get(),
                cascade_exhausted: self.triggers.cascade_exhausted.get(),
                max_cascade_depth: self.triggers.max_cascade_depth.get(),
            },
            sched: SchedSnapshot {
                enqueued: self.sched.enqueued.get(),
                drained: self.sched.drained.get(),
                retries: self.sched.retries.get(),
                dead_letters: self.sched.dead_letters.get(),
                overflow_dropped: self.sched.overflow_dropped.get(),
                queue_depth: self.sched.queue_depth.get(),
                suspended: self.sched.suspended.get(),
                queue_high_water: self.sched.queue_high_water.get(),
                drain_lag: self.sched.drain_lag.snapshot(),
            },
            analyze: AnalyzeSnapshot {
                passes: self.analyze.passes.get(),
                errors: self.analyze.errors.get(),
                warnings: self.analyze.warnings.get(),
                latency: self.analyze.latency.snapshot(),
                footprints: self.analyze.footprints.get(),
                read_only_proofs: self.analyze.read_only_proofs.get(),
            },
        }
    }
}

// ------------------------------------------------------------ snapshots

/// Substrate (storage-layer) counters, flattened for snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageSnapshot {
    /// Buffer-pool page requests served from the pool.
    pub pager_hits: u64,
    /// Page requests that read the data file.
    pub pager_misses: u64,
    /// Frames evicted to make room.
    pub pager_evictions: u64,
    /// Dirty frames written back.
    pub pager_writebacks: u64,
    /// Record reads served by the store.
    pub record_reads: u64,
    /// Records written by commit batches.
    pub record_writes: u64,
    /// WAL commit groups appended.
    pub wal_appends: u64,
    /// WAL fsyncs issued.
    pub wal_fsyncs: u64,
    /// Bytes in the WAL since the last checkpoint.
    pub wal_bytes: u64,
    /// Committed store batches since open.
    pub commits: u64,
    /// WAL commit groups replayed during recovery at the last open.
    pub replayed_groups: u64,
    /// Faults injected by a fault-injection wrapper (zero in production;
    /// nonzero only under the crash-torture harness, DESIGN.md §10).
    pub faults_injected: u64,
    /// Checkpoint attempts that failed (including the best-effort one in
    /// `Drop`); each leaves the WAL intact, so durability is unharmed.
    pub checkpoint_failures: u64,
    /// Group-commit fsync cohorts: shared durability phases led by one
    /// committer on behalf of everyone queued behind it (DESIGN.md §13).
    pub commit_groups: u64,
    /// Total commits that rode those cohorts; `commit_group_members /
    /// commit_groups` is the mean cohort size (1.0 = no sharing).
    pub commit_group_members: u64,
}

/// Transaction counters, frozen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnSnapshot {
    /// See [`TxnTelemetry::begun`].
    pub begun: u64,
    /// See [`TxnTelemetry::committed`].
    pub committed: u64,
    /// See [`TxnTelemetry::aborted_constraint`].
    pub aborted_constraint: u64,
    /// See [`TxnTelemetry::aborted_other`].
    pub aborted_other: u64,
    /// See [`TxnTelemetry::read_txns`].
    pub read_txns: u64,
    /// See [`TxnTelemetry::write_txns`].
    pub write_txns: u64,
    /// See [`TxnTelemetry::commit_latency`].
    pub commit_latency: HistoSnapshot,
    /// See [`TxnTelemetry::gate_wait`].
    pub gate_wait: HistoSnapshot,
    /// See [`TxnTelemetry::release_errors`].
    pub release_errors: u64,
    /// See [`TxnTelemetry::commit_retries`].
    pub commit_retries: u64,
    /// See [`TxnTelemetry::conflicts`].
    pub conflicts: u64,
    /// See [`TxnTelemetry::ranged_scans`].
    pub ranged_scans: u64,
    /// See [`TxnTelemetry::narrowed_validations`].
    pub narrowed_validations: u64,
    /// See [`TxnTelemetry::conflict_pressure`].
    pub conflict_pressure: u64,
}

/// Query counters, frozen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuerySnapshot {
    /// See [`QueryTelemetry::foralls`].
    pub foralls: u64,
    /// See [`QueryTelemetry::joins`].
    pub joins: u64,
    /// See [`QueryTelemetry::clusters_visited`].
    pub clusters_visited: u64,
    /// See [`QueryTelemetry::objects_scanned`].
    pub objects_scanned: u64,
    /// See [`QueryTelemetry::predicate_evals`].
    pub predicate_evals: u64,
    /// See [`QueryTelemetry::index_probes`].
    pub index_probes: u64,
    /// See [`QueryTelemetry::deep_extent_scans`].
    pub deep_extent_scans: u64,
    /// See [`QueryTelemetry::fixpoint_rounds`].
    pub fixpoint_rounds: u64,
    /// See [`QueryTelemetry::fixpoint_new_objects`].
    pub fixpoint_new_objects: u64,
    /// See [`QueryTelemetry::overlay_clones`].
    pub overlay_clones: u64,
}

/// Version counters, frozen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionSnapshot {
    /// See [`VersionTelemetry::newversions`].
    pub newversions: u64,
    /// See [`VersionTelemetry::generic_derefs`].
    pub generic_derefs: u64,
    /// See [`VersionTelemetry::specific_derefs`].
    pub specific_derefs: u64,
}

/// Trigger counters, frozen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriggerSnapshot {
    /// See [`TriggerTelemetry::activations`].
    pub activations: u64,
    /// See [`TriggerTelemetry::condition_evals`].
    pub condition_evals: u64,
    /// See [`TriggerTelemetry::firings`].
    pub firings: u64,
    /// See [`TriggerTelemetry::action_failures`].
    pub action_failures: u64,
    /// See [`TriggerTelemetry::deferred_actions`].
    pub deferred_actions: u64,
    /// See [`TriggerTelemetry::cascade_exhausted`].
    pub cascade_exhausted: u64,
    /// See [`TriggerTelemetry::max_cascade_depth`].
    pub max_cascade_depth: u64,
}

/// Scheduler counters, frozen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// See [`SchedTelemetry::enqueued`].
    pub enqueued: u64,
    /// See [`SchedTelemetry::drained`].
    pub drained: u64,
    /// See [`SchedTelemetry::retries`].
    pub retries: u64,
    /// See [`SchedTelemetry::dead_letters`].
    pub dead_letters: u64,
    /// See [`SchedTelemetry::overflow_dropped`].
    pub overflow_dropped: u64,
    /// See [`SchedTelemetry::queue_depth`].
    pub queue_depth: u64,
    /// See [`SchedTelemetry::suspended`].
    pub suspended: u64,
    /// See [`SchedTelemetry::queue_high_water`].
    pub queue_high_water: u64,
    /// See [`SchedTelemetry::drain_lag`].
    pub drain_lag: HistoSnapshot,
}

/// Static-analyzer counters, frozen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeSnapshot {
    /// See [`AnalyzeTelemetry::passes`].
    pub passes: u64,
    /// See [`AnalyzeTelemetry::errors`].
    pub errors: u64,
    /// See [`AnalyzeTelemetry::warnings`].
    pub warnings: u64,
    /// See [`AnalyzeTelemetry::latency`].
    pub latency: HistoSnapshot,
    /// See [`AnalyzeTelemetry::footprints`].
    pub footprints: u64,
    /// See [`AnalyzeTelemetry::read_only_proofs`].
    pub read_only_proofs: u64,
}

/// A full engine + substrate telemetry snapshot: plain data, comparable,
/// subtractable, and serializable to JSON without any dependency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Storage-layer counters.
    pub storage: StorageSnapshot,
    /// Transaction counters.
    pub txn: TxnSnapshot,
    /// Query counters.
    pub query: QuerySnapshot,
    /// Version counters.
    pub versions: VersionSnapshot,
    /// Trigger counters.
    pub triggers: TriggerSnapshot,
    /// Decoupled-scheduler counters.
    pub sched: SchedSnapshot,
    /// Static-analyzer counters.
    pub analyze: AnalyzeSnapshot,
}

macro_rules! sub_fields {
    ($self:expr, $base:expr; $($field:ident),+ $(,)?) => {
        ($( $self.$field.saturating_sub($base.$field), )+)
    };
}

impl TelemetrySnapshot {
    /// Field-wise `self - baseline` (saturating). Gauges
    /// (`max_cascade_depth`, `wal_bytes`, quantiles) keep their current
    /// values: they are levels, not counts.
    pub fn delta(&self, baseline: &TelemetrySnapshot) -> TelemetrySnapshot {
        let s = &self.storage;
        let b = &baseline.storage;
        let (
            pager_hits,
            pager_misses,
            pager_evictions,
            pager_writebacks,
            record_reads,
            record_writes,
            wal_appends,
            wal_fsyncs,
            commits,
            faults_injected,
            checkpoint_failures,
            commit_groups,
            commit_group_members,
        ) = sub_fields!(s, b; pager_hits, pager_misses, pager_evictions,
            pager_writebacks, record_reads, record_writes, wal_appends,
            wal_fsyncs, commits, faults_injected, checkpoint_failures,
            commit_groups, commit_group_members);
        let storage = StorageSnapshot {
            pager_hits,
            pager_misses,
            pager_evictions,
            pager_writebacks,
            record_reads,
            record_writes,
            wal_appends,
            wal_fsyncs,
            wal_bytes: s.wal_bytes,
            commits,
            // A level, not a count: recovery work from the last reopen.
            replayed_groups: s.replayed_groups,
            faults_injected,
            checkpoint_failures,
            commit_groups,
            commit_group_members,
        };
        let t = &self.txn;
        let bt = &baseline.txn;
        let (
            begun,
            committed,
            aborted_constraint,
            aborted_other,
            read_txns,
            write_txns,
            release_errors,
            commit_retries,
            conflicts,
            ranged_scans,
            narrowed_validations,
        ) = sub_fields!(t, bt; begun, committed, aborted_constraint, aborted_other,
                read_txns, write_txns, release_errors, commit_retries, conflicts,
                ranged_scans, narrowed_validations);
        let txn = TxnSnapshot {
            begun,
            committed,
            aborted_constraint,
            aborted_other,
            read_txns,
            write_txns,
            commit_latency: t.commit_latency.delta(&bt.commit_latency),
            gate_wait: t.gate_wait.delta(&bt.gate_wait),
            release_errors,
            commit_retries,
            conflicts,
            ranged_scans,
            narrowed_validations,
            // A level fed into backoff, not a count.
            conflict_pressure: t.conflict_pressure,
        };
        let q = &self.query;
        let bq = &baseline.query;
        let (
            foralls,
            joins,
            clusters_visited,
            objects_scanned,
            predicate_evals,
            index_probes,
            deep_extent_scans,
            fixpoint_rounds,
            fixpoint_new_objects,
            overlay_clones,
        ) = sub_fields!(q, bq; foralls, joins, clusters_visited,
            objects_scanned, predicate_evals, index_probes,
            deep_extent_scans, fixpoint_rounds, fixpoint_new_objects,
            overlay_clones);
        let query = QuerySnapshot {
            foralls,
            joins,
            clusters_visited,
            objects_scanned,
            predicate_evals,
            index_probes,
            deep_extent_scans,
            fixpoint_rounds,
            fixpoint_new_objects,
            overlay_clones,
        };
        let v = &self.versions;
        let bv = &baseline.versions;
        let (newversions, generic_derefs, specific_derefs) =
            sub_fields!(v, bv; newversions, generic_derefs, specific_derefs);
        let versions = VersionSnapshot {
            newversions,
            generic_derefs,
            specific_derefs,
        };
        let g = &self.triggers;
        let bg = &baseline.triggers;
        let (
            activations,
            condition_evals,
            firings,
            action_failures,
            deferred_actions,
            cascade_exhausted,
        ) = sub_fields!(g, bg; activations, condition_evals, firings,
                action_failures, deferred_actions, cascade_exhausted);
        let triggers = TriggerSnapshot {
            activations,
            condition_evals,
            firings,
            action_failures,
            deferred_actions,
            cascade_exhausted,
            max_cascade_depth: g.max_cascade_depth,
        };
        let sc = &self.sched;
        let bsc = &baseline.sched;
        let (enqueued, drained, retries, dead_letters, overflow_dropped) =
            sub_fields!(sc, bsc; enqueued, drained, retries, dead_letters, overflow_dropped);
        let sched = SchedSnapshot {
            enqueued,
            drained,
            retries,
            dead_letters,
            overflow_dropped,
            // Levels, not counts.
            queue_depth: sc.queue_depth,
            suspended: sc.suspended,
            queue_high_water: sc.queue_high_water,
            drain_lag: sc.drain_lag.delta(&bsc.drain_lag),
        };
        let a = &self.analyze;
        let ba = &baseline.analyze;
        let (passes, errors, warnings, footprints, read_only_proofs) =
            sub_fields!(a, ba; passes, errors, warnings, footprints, read_only_proofs);
        let analyze = AnalyzeSnapshot {
            passes,
            errors,
            warnings,
            latency: a.latency.delta(&ba.latency),
            footprints,
            read_only_proofs,
        };
        TelemetrySnapshot {
            storage,
            txn,
            query,
            versions,
            triggers,
            sched,
            analyze,
        }
    }

    /// Flat `(dotted-name, value)` rows for line-oriented display (the
    /// shell's `.stats`). Latency values are rendered in microseconds.
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut out = Vec::with_capacity(40);
        let mut push = |name: &str, v: u64| out.push((name.to_string(), v.to_string()));
        let s = &self.storage;
        push("storage.pager_hits", s.pager_hits);
        push("storage.pager_misses", s.pager_misses);
        push("storage.pager_evictions", s.pager_evictions);
        push("storage.pager_writebacks", s.pager_writebacks);
        push("storage.record_reads", s.record_reads);
        push("storage.record_writes", s.record_writes);
        push("storage.wal_appends", s.wal_appends);
        push("storage.wal_fsyncs", s.wal_fsyncs);
        push("storage.wal_bytes", s.wal_bytes);
        push("storage.commits", s.commits);
        push("storage.faults_injected", s.faults_injected);
        push("storage.checkpoint_failures", s.checkpoint_failures);
        push("storage.commit_groups", s.commit_groups);
        push("storage.commit_group_members", s.commit_group_members);
        push("recovery.replayed_groups", s.replayed_groups);
        let t = &self.txn;
        push("txn.begun", t.begun);
        push("txn.committed", t.committed);
        push("txn.aborted_constraint", t.aborted_constraint);
        push("txn.aborted_other", t.aborted_other);
        push("txn.read_txns", t.read_txns);
        push("txn.write_txns", t.write_txns);
        push("txn.release_errors", t.release_errors);
        push("commit.retries", t.commit_retries);
        push("txn.conflicts", t.conflicts);
        push("txn.ranged_scans", t.ranged_scans);
        push("txn.narrowed_validations", t.narrowed_validations);
        push("txn.conflict_pressure", t.conflict_pressure);
        push("txn.commit_latency.count", t.commit_latency.count);
        let q = &self.query;
        let lat = &self.txn.commit_latency;
        out.push((
            "txn.commit_latency.mean_us".to_string(),
            format!("{:.1}", lat.mean_ns() as f64 / 1e3),
        ));
        out.push((
            "txn.commit_latency.p99_us".to_string(),
            format!("{:.1}", lat.p99_ns as f64 / 1e3),
        ));
        let gate = &self.txn.gate_wait;
        out.push(("txn.gate_wait.count".to_string(), gate.count.to_string()));
        out.push((
            "txn.gate_wait.mean_us".to_string(),
            format!("{:.1}", gate.mean_ns() as f64 / 1e3),
        ));
        out.push((
            "txn.gate_wait.p99_us".to_string(),
            format!("{:.1}", gate.p99_ns as f64 / 1e3),
        ));
        let mut push = |name: &str, v: u64| out.push((name.to_string(), v.to_string()));
        push("query.foralls", q.foralls);
        push("query.joins", q.joins);
        push("query.clusters_visited", q.clusters_visited);
        push("query.objects_scanned", q.objects_scanned);
        push("query.predicate_evals", q.predicate_evals);
        push("query.index_probes", q.index_probes);
        push("query.deep_extent_scans", q.deep_extent_scans);
        push("query.fixpoint_rounds", q.fixpoint_rounds);
        push("query.fixpoint_new_objects", q.fixpoint_new_objects);
        push("query.overlay_clones", q.overlay_clones);
        let v = &self.versions;
        push("versions.newversions", v.newversions);
        push("versions.generic_derefs", v.generic_derefs);
        push("versions.specific_derefs", v.specific_derefs);
        let g = &self.triggers;
        push("triggers.activations", g.activations);
        push("triggers.condition_evals", g.condition_evals);
        push("triggers.firings", g.firings);
        push("triggers.action_failures", g.action_failures);
        push("triggers.deferred_actions", g.deferred_actions);
        push("triggers.cascade_exhausted", g.cascade_exhausted);
        push("triggers.max_cascade_depth", g.max_cascade_depth);
        let sc = &self.sched;
        push("sched.enqueued", sc.enqueued);
        push("sched.drained", sc.drained);
        push("sched.retries", sc.retries);
        push("sched.dead_letters", sc.dead_letters);
        push("sched.overflow_dropped", sc.overflow_dropped);
        push("sched.queue_depth", sc.queue_depth);
        push("sched.suspended", sc.suspended);
        push("sched.queue_high_water", sc.queue_high_water);
        push("sched.drain_lag.count", sc.drain_lag.count);
        out.push((
            "sched.drain_lag.mean_us".to_string(),
            format!("{:.1}", sc.drain_lag.mean_ns() as f64 / 1e3),
        ));
        out.push((
            "sched.drain_lag.p99_us".to_string(),
            format!("{:.1}", sc.drain_lag.p99_ns as f64 / 1e3),
        ));
        let mut push = |name: &str, v: u64| out.push((name.to_string(), v.to_string()));
        let a = &self.analyze;
        push("analyze.passes", a.passes);
        push("analyze.errors", a.errors);
        push("analyze.warnings", a.warnings);
        push("analyze.footprints", a.footprints);
        push("analyze.read_only_proofs", a.read_only_proofs);
        push("analyze.latency.count", a.latency.count);
        out.push((
            "analyze.latency.mean_us".to_string(),
            format!("{:.1}", a.latency.mean_ns() as f64 / 1e3),
        ));
        out.push((
            "analyze.latency.p99_us".to_string(),
            format!("{:.1}", a.latency.p99_ns as f64 / 1e3),
        ));
        out
    }

    /// Serialize as a stable JSON object (no external dependency; every
    /// value is an unsigned integer or a nested object).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        let s = &self.storage;
        out.push_str(&format!(
            "\"storage\":{{\"pager_hits\":{},\"pager_misses\":{},\
             \"pager_evictions\":{},\"pager_writebacks\":{},\
             \"record_reads\":{},\"record_writes\":{},\"wal_appends\":{},\
             \"wal_fsyncs\":{},\"wal_bytes\":{},\"commits\":{},\
             \"replayed_groups\":{},\"faults_injected\":{},\
             \"checkpoint_failures\":{},\"commit_groups\":{},\
             \"commit_group_members\":{}}},",
            s.pager_hits,
            s.pager_misses,
            s.pager_evictions,
            s.pager_writebacks,
            s.record_reads,
            s.record_writes,
            s.wal_appends,
            s.wal_fsyncs,
            s.wal_bytes,
            s.commits,
            s.replayed_groups,
            s.faults_injected,
            s.checkpoint_failures,
            s.commit_groups,
            s.commit_group_members
        ));
        let t = &self.txn;
        out.push_str(&format!(
            "\"txn\":{{\"begun\":{},\"committed\":{},\
             \"aborted_constraint\":{},\"aborted_other\":{},\
             \"read_txns\":{},\"write_txns\":{},\
             \"release_errors\":{},\"commit_retries\":{},\
             \"conflicts\":{},\"ranged_scans\":{},\
             \"narrowed_validations\":{},\"conflict_pressure\":{},\
             \"commit_latency\":",
            t.begun,
            t.committed,
            t.aborted_constraint,
            t.aborted_other,
            t.read_txns,
            t.write_txns,
            t.release_errors,
            t.commit_retries,
            t.conflicts,
            t.ranged_scans,
            t.narrowed_validations,
            t.conflict_pressure
        ));
        t.commit_latency.json(&mut out);
        out.push_str(",\"gate_wait\":");
        t.gate_wait.json(&mut out);
        out.push_str("},");
        let q = &self.query;
        out.push_str(&format!(
            "\"query\":{{\"foralls\":{},\"joins\":{},\"clusters_visited\":{},\
             \"objects_scanned\":{},\"predicate_evals\":{},\
             \"index_probes\":{},\"deep_extent_scans\":{},\
             \"fixpoint_rounds\":{},\"fixpoint_new_objects\":{},\
             \"overlay_clones\":{}}},",
            q.foralls,
            q.joins,
            q.clusters_visited,
            q.objects_scanned,
            q.predicate_evals,
            q.index_probes,
            q.deep_extent_scans,
            q.fixpoint_rounds,
            q.fixpoint_new_objects,
            q.overlay_clones
        ));
        let v = &self.versions;
        out.push_str(&format!(
            "\"versions\":{{\"newversions\":{},\"generic_derefs\":{},\
             \"specific_derefs\":{}}},",
            v.newversions, v.generic_derefs, v.specific_derefs
        ));
        let g = &self.triggers;
        out.push_str(&format!(
            "\"triggers\":{{\"activations\":{},\"condition_evals\":{},\
             \"firings\":{},\"action_failures\":{},\"deferred_actions\":{},\
             \"cascade_exhausted\":{},\"max_cascade_depth\":{}}}",
            g.activations,
            g.condition_evals,
            g.firings,
            g.action_failures,
            g.deferred_actions,
            g.cascade_exhausted,
            g.max_cascade_depth
        ));
        let sc = &self.sched;
        out.push_str(&format!(
            ",\"sched\":{{\"enqueued\":{},\"drained\":{},\"retries\":{},\
             \"dead_letters\":{},\"overflow_dropped\":{},\
             \"queue_depth\":{},\"suspended\":{},\
             \"queue_high_water\":{},\"drain_lag\":",
            sc.enqueued,
            sc.drained,
            sc.retries,
            sc.dead_letters,
            sc.overflow_dropped,
            sc.queue_depth,
            sc.suspended,
            sc.queue_high_water
        ));
        sc.drain_lag.json(&mut out);
        out.push('}');
        let a = &self.analyze;
        out.push_str(&format!(
            ",\"analyze\":{{\"passes\":{},\"errors\":{},\"warnings\":{},\
             \"footprints\":{},\"read_only_proofs\":{},\"latency\":",
            a.passes, a.errors, a.warnings, a.footprints, a.read_only_proofs
        ));
        a.latency.json(&mut out);
        out.push('}');
        out.push('}');
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
    /// Nested-loop join (inner variables may still probe indexes; see
    /// [`QueryProfile::index_probes`]).
    NestedLoopJoin,
}

impl std::fmt::Display for PlanStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanStrategy::DeepExtentScan => write!(f, "deep extent scan"),
            PlanStrategy::ShallowExtentScan => write!(f, "shallow extent scan"),
            PlanStrategy::IndexProbe { field } => write!(f, "index probe on `{field}`"),
            PlanStrategy::NestedLoopJoin => write!(f, "nested-loop join"),
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
}

impl QueryProfile {
    /// Merge another pass into this profile (fixpoint rounds accumulate
    /// passes; the strategy of the first pass wins).
    pub fn absorb(&mut self, other: &QueryProfile) {
        if self.target.is_empty() {
            self.target = other.target.clone();
            self.strategy = other.strategy.clone();
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
