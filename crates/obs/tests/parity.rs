//! Parity reference for every telemetry rendering. All 81 engine, storage
//! and server fields are set to distinct values (histograms get several
//! samples each), then `to_json`, `rows`, `delta`, `reset` and
//! `prom::render` are compared against checked-in golden text under
//! `tests/golden/`. JSON is compared byte for byte, rows as a set of
//! `(name, value)` pairs, and the Prometheus exposition as a multiset of
//! lines. Re-bless after an intended change with `ODE_BLESS=1`.

use std::path::PathBuf;

use ode_obs::{prom, EngineTelemetry, LatencyHisto, ServerTelemetry, StorageSnapshot};

/// Strictly increasing values, so every field gets its own.
struct Seq(u64);

impl Seq {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0 * 3 + 1
    }

    fn histo(&mut self, h: &LatencyHisto) {
        for k in 1..=5 {
            h.record_ns(self.next() * 997 * k);
        }
    }
}

fn fill_engine(t: &EngineTelemetry, s: &mut Seq) {
    let x = &t.txn;
    x.begun.add(s.next());
    x.committed.add(s.next());
    x.aborted_constraint.add(s.next());
    x.aborted_other.add(s.next());
    x.read_txns.add(s.next());
    x.write_txns.add(s.next());
    s.histo(&x.commit_latency);
    s.histo(&x.gate_wait);
    x.release_errors.add(s.next());
    x.commit_retries.add(s.next());
    x.conflicts.add(s.next());
    x.ranged_scans.add(s.next());
    x.narrowed_validations.add(s.next());
    x.conflict_pressure.set(s.next());

    let q = &t.query;
    q.foralls.add(s.next());
    q.joins.add(s.next());
    q.clusters_visited.add(s.next());
    q.objects_scanned.add(s.next());
    q.predicate_evals.add(s.next());
    q.index_probes.add(s.next());
    q.deep_extent_scans.add(s.next());
    q.fixpoint_rounds.add(s.next());
    q.fixpoint_new_objects.add(s.next());
    q.overlay_clones.add(s.next());

    let v = &t.versions;
    v.newversions.add(s.next());
    v.generic_derefs.add(s.next());
    v.specific_derefs.add(s.next());

    let g = &t.triggers;
    g.activations.add(s.next());
    g.condition_evals.add(s.next());
    g.firings.add(s.next());
    g.action_failures.add(s.next());
    g.deferred_actions.add(s.next());
    g.cascade_exhausted.add(s.next());
    g.max_cascade_depth.observe(s.next());

    let sc = &t.sched;
    sc.enqueued.add(s.next());
    sc.drained.add(s.next());
    sc.retries.add(s.next());
    sc.dead_letters.add(s.next());
    sc.overflow_dropped.add(s.next());
    sc.queue_depth.set(s.next());
    sc.suspended.set(s.next());
    sc.queue_high_water.observe(s.next());
    s.histo(&sc.drain_lag);

    let a = &t.analyze;
    a.passes.add(s.next());
    a.errors.add(s.next());
    a.warnings.add(s.next());
    s.histo(&a.latency);
    a.footprints.add(s.next());
    a.read_only_proofs.add(s.next());
}

/// Substrate counters; `scale` keeps a later snapshot's fields growing by
/// distinct amounts, so their deltas differ too.
fn storage(s: &mut Seq, scale: u64) -> StorageSnapshot {
    let mut next = || s.next() * scale;
    StorageSnapshot {
        pager_hits: next(),
        pager_misses: next(),
        pager_evictions: next(),
        pager_writebacks: next(),
        record_reads: next(),
        record_writes: next(),
        wal_appends: next(),
        wal_fsyncs: next(),
        wal_bytes: next(),
        commits: next(),
        replayed_groups: next(),
        faults_injected: next(),
        checkpoint_failures: next(),
        commit_groups: next(),
        commit_group_members: next(),
    }
}

fn fill_server(t: &ServerTelemetry, s: &mut Seq) {
    t.accepted.add(s.next());
    t.rejected_admission.add(s.next());
    t.rejected_shutdown.add(s.next());
    t.handshake_failures.add(s.next());
    t.requests.add(s.next());
    t.engine_errors.add(s.next());
    t.timed_out.add(s.next());
    t.bytes_in.add(s.next());
    t.bytes_out.add(s.next());
    t.socket_errors.add(s.next());
    s.histo(&t.request_latency);
    t.active_connections.set(s.next());
    t.max_concurrent.observe(s.next());
    t.subscriptions.set(s.next());
    t.pushes_sent.add(s.next());
    t.push_dropped.add(s.next());
    t.push_outbox_depth.set(s.next());
}

/// Compare `actual` with `tests/golden/<name>`, or rewrite the file when
/// `ODE_BLESS` is set.
fn golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let actual = format!("{actual}\n");
    if std::env::var_os("ODE_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with ODE_BLESS=1)", path.display()));
    assert_eq!(actual, want, "{name} differs from its golden text");
}

/// Rows as a sorted `name value` listing: equal iff the pair sets are.
fn row_set(rows: Vec<(String, String)>) -> String {
    let mut lines: Vec<String> = rows.into_iter().map(|(k, v)| format!("{k} {v}")).collect();
    let n = lines.len();
    lines.sort();
    lines.dedup();
    assert_eq!(lines.len(), n, "duplicate row names");
    lines.join("\n")
}

/// Exposition lines sorted: equal iff the line multisets are.
fn line_multiset(text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

#[test]
fn every_rendering_matches_its_golden_text() {
    let mut s = Seq(0);
    let tel = EngineTelemetry::default();
    let srv = ServerTelemetry::default();
    fill_engine(&tel, &mut s);
    let engine = tel.snapshot(storage(&mut s, 1));
    fill_server(&srv, &mut s);
    let server = srv.snapshot();

    golden("engine.json", &engine.to_json());
    golden("server.json", &server.to_json());
    golden("engine.rows", &row_set(engine.rows()));
    golden("server.rows", &row_set(server.rows()));
    let text = prom::render(&engine, Some(&server), 4242);
    prom::validate(&text).unwrap();
    golden("metrics.prom", &line_multiset(&text));

    // Second interval: counters subtract, levels and maxima keep their
    // current value, histogram counts and sums subtract.
    fill_engine(&tel, &mut s);
    let engine2 = tel.snapshot(storage(&mut s, 2));
    fill_server(&srv, &mut s);
    let server2 = srv.snapshot();
    golden("engine_delta.json", &engine2.delta(&engine).to_json());
    golden("server_delta.json", &server2.delta(&server).to_json());

    // Reset zeroes counters, maxima and histograms; levels survive.
    tel.reset();
    srv.reset();
    golden(
        "engine_reset.json",
        &tel.snapshot(StorageSnapshot::default()).to_json(),
    );
    golden("server_reset.json", &srv.snapshot().to_json());
}
