//! Figure F14 — writer scaling under optimistic multi-writer commit.
//!
//! PR 8 replaced the single-writer `txn_gate` with optimistic
//! validation plus WAL group commit (DESIGN.md §13). This figure
//! measures what that bought writers: a durable (fsync-on-commit)
//! store is hammered by 1, 2, 4, then 8 writer threads in two modes —
//!
//! * **disjoint-key**: each thread read-modify-writes its own counter
//!   object. No read-set overlap, so no conflicts; the cost that used
//!   to serialize writers is now only the shared fsync, which group
//!   commit amortizes across the cohort.
//! * **hot-key**: every thread increments ONE shared counter. Maximum
//!   conflict pressure; losers abort with `WriteConflict` and the
//!   `Database::transaction` retry loop re-runs them. Throughput here
//!   bounds the validation + retry overhead, and the final counter
//!   value proves no update was lost.
//! * **disjoint-range**: every thread updates its own *predicate
//!   range* of one shared, unindexed cluster via OQL — the shape
//!   DESIGN.md §14's footprint-driven validation exists for. Before
//!   ranged scan entries, every overlapping pair conflicted on the
//!   whole-heap scan promise; now validation intersects the proven
//!   key ranges and admits them (`narrowed` counts those admissions).
//!
//! Per cell we report aggregate committed txns/sec, conflicts, retry
//! count, narrowed validations, fsyncs-per-commit (group-commit
//! effectiveness), and the mean cohort size. Output: a table on stderr
//! and `BENCH_f14.json` at the repo root; when a previous
//! `BENCH_f14.json` exists, each row also records
//! `prev_txn_per_sec`/`delta_pct` against it.
//! `ODE_BENCH_QUICK=1` shrinks the windows for CI.
//!
//! Credibility: writer *scaling* measured on one hardware thread is a
//! time-slicing artifact, so such runs are flagged `credible: false`
//! and the scaling assertion is gated on host parallelism — but the
//! lost-update correctness assertion always runs.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ode_bench::{workload, Figure};
use ode_core::prelude::*;
use ode_storage::filestore::FileStoreOptions;

const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

struct Row {
    mode: &'static str,
    threads: usize,
    ops_s: f64,
    conflicts: u64,
    retries: u64,
    narrowed: u64,
    fsyncs_per_commit: f64,
    mean_cohort: f64,
}

/// Fresh durable database with `counters` counter objects, fsync on
/// commit (the configuration group commit exists for).
fn writer_db(tag: &str, counters: usize) -> (Database, Vec<Oid>) {
    let dir = workload::temp_dir(tag);
    let db = Database::open_with(
        &dir,
        FileStoreOptions {
            sync_commits: true,
            ..FileStoreOptions::default()
        },
        DbConfig::default(),
    )
    .expect("open");
    db.define_class(ClassBuilder::new("counter").field_default("n", Type::Int, 0))
        .expect("schema");
    db.create_cluster("counter").expect("cluster");
    let oids = db
        .transaction(|tx| (0..counters).map(|_| tx.pnew("counter", &[])).collect())
        .expect("seed counters");
    db.checkpoint().expect("checkpoint");
    (db, oids)
}

/// Run `threads` writers for the window; thread `t` increments
/// `oids[t % oids.len()]`. Returns (committed increments, elapsed).
fn run(db: &Database, oids: &[Oid], threads: usize, window: Duration) -> (u64, Duration) {
    let start = Arc::new(Barrier::new(threads + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let start = Arc::clone(&start);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            let oid = oids[t % oids.len()];
            scope.spawn(move || {
                start.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Like a wire client: WriteConflict is retryable, so a
                    // writer that exhausts the engine's bounded retry
                    // budget backs off and resubmits.
                    match db.transaction(|tx| {
                        let n = match tx.get(oid, "n")? {
                            Value::Int(n) => n,
                            other => panic!("expected int, got {other:?}"),
                        };
                        tx.set(oid, "n", n + 1)
                    }) {
                        Ok(()) => ops += 1,
                        Err(e) if e.is_unavailable() => {
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        Err(e) => panic!("increment: {e}"),
                    }
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        start.wait();
        let t0 = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        // scope joins all writers here
        elapsed = t0.elapsed();
    });
    (total.load(Ordering::Relaxed), elapsed)
}

/// Width of each thread's private key band in `disjoint_range` mode,
/// and rows seeded per band. No index on `k`: predicates take the
/// extent-scan path, so only the analyzer-proven ranges keep the
/// writers from promising the whole heap to the validator.
const RANGE_SPAN: i64 = 100;
const ROWS_PER_RANGE: i64 = 4;

/// Fresh durable database with one shared `item` cluster holding
/// `ROWS_PER_RANGE` rows per thread band, fsync on commit.
fn range_db(tag: &str, threads: usize) -> Database {
    let dir = workload::temp_dir(tag);
    let db = Database::open_with(
        &dir,
        FileStoreOptions {
            sync_commits: true,
            ..FileStoreOptions::default()
        },
        DbConfig::default(),
    )
    .expect("open");
    db.define_class(
        ClassBuilder::new("item")
            .field_default("k", Type::Int, 0)
            .field_default("n", Type::Int, 0),
    )
    .expect("schema");
    db.create_cluster("item").expect("cluster");
    db.transaction(|tx| {
        for t in 0..threads as i64 {
            for i in 0..ROWS_PER_RANGE {
                tx.execute(&format!("pnew item (k = {})", t * RANGE_SPAN + i))?;
            }
        }
        Ok(())
    })
    .expect("seed items");
    db.checkpoint().expect("checkpoint");
    db
}

/// Run `threads` writers for the window; thread `t` repeatedly bumps
/// every row in its own key band through the OQL scan path. Returns
/// (committed updates, elapsed).
fn run_range(db: &Database, threads: usize, window: Duration) -> (u64, Duration) {
    let start = Arc::new(Barrier::new(threads + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let start = Arc::clone(&start);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            let (lo, hi) = (t as i64 * RANGE_SPAN, (t as i64 + 1) * RANGE_SPAN);
            let stmt = format!("update s in item suchthat (k >= {lo} && k < {hi}) set n = n + 1");
            scope.spawn(move || {
                start.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match db.transaction(|tx| tx.execute(&stmt).map(|_| ())) {
                        Ok(()) => ops += 1,
                        Err(e) if e.is_unavailable() => {
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        Err(e) => panic!("range update: {e}"),
                    }
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        start.wait();
        let t0 = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        elapsed = t0.elapsed();
    });
    (total.load(Ordering::Relaxed), elapsed)
}

fn counter_value(db: &Database, oid: Oid) -> i64 {
    db.read(|rtx| match rtx.get(oid, "n")? {
        Value::Int(n) => Ok(n),
        other => panic!("expected int, got {other:?}"),
    })
    .expect("read counter")
}

fn cell(mode: &'static str, threads: usize, window: Duration) -> Row {
    if mode == "disjoint_range" {
        return range_cell(threads, window);
    }
    let counters = if mode == "hot_key" { 1 } else { threads };
    let (db, oids) = writer_db(&format!("f14-{mode}-{threads}"), counters);
    let before = db.telemetry();
    let (ops, elapsed) = run(&db, &oids, threads, window);
    let d = db.telemetry().delta(&before);

    // No increment may be lost: the counters must sum to exactly the
    // number of committed increments, whatever the conflict rate was.
    let sum: i64 = oids.iter().map(|&o| counter_value(&db, o)).sum();
    assert_eq!(
        sum as u64, ops,
        "{mode}@{threads}: lost updates (counters {sum}, committed {ops})"
    );

    let commits = d.storage.commits.max(1);
    Row {
        mode,
        threads,
        ops_s: ops as f64 / elapsed.as_secs_f64(),
        conflicts: d.txn.conflicts,
        retries: d.txn.commit_retries,
        narrowed: d.txn.narrowed_validations,
        fsyncs_per_commit: d.storage.wal_fsyncs as f64 / commits as f64,
        mean_cohort: if d.storage.commit_groups == 0 {
            1.0
        } else {
            d.storage.commit_group_members as f64 / d.storage.commit_groups as f64
        },
    }
}

fn range_cell(threads: usize, window: Duration) -> Row {
    let db = range_db(&format!("f14-disjoint_range-{threads}"), threads);
    let before = db.telemetry();
    let (ops, elapsed) = run_range(&db, threads, window);
    let d = db.telemetry().delta(&before);

    // Every committed update bumped each row in its band exactly once:
    // the `n` values must sum to committed-updates × rows-per-band.
    let sum: i64 = db
        .transaction(|tx| {
            let rows = match tx.execute("forall s in item")? {
                ode_core::oql::ExecResult::Rows(rows) => rows.rows,
                other => panic!("unexpected result: {other:?}"),
            };
            let mut sum = 0i64;
            for row in rows {
                match tx.get(row[0], "n")? {
                    Value::Int(n) => sum += n,
                    other => panic!("expected int, got {other:?}"),
                }
            }
            Ok(sum)
        })
        .expect("sum items");
    assert_eq!(
        sum as u64,
        ops * ROWS_PER_RANGE as u64,
        "disjoint_range@{threads}: lost updates (sum {sum}, committed {ops})"
    );

    let commits = d.storage.commits.max(1);
    Row {
        mode: "disjoint_range",
        threads,
        ops_s: ops as f64 / elapsed.as_secs_f64(),
        conflicts: d.txn.conflicts,
        retries: d.txn.commit_retries,
        narrowed: d.txn.narrowed_validations,
        fsyncs_per_commit: d.storage.wal_fsyncs as f64 / commits as f64,
        mean_cohort: if d.storage.commit_groups == 0 {
            1.0
        } else {
            d.storage.commit_group_members as f64 / d.storage.commit_groups as f64
        },
    }
}

fn main() {
    let fig = Figure::from_env("f14_writer_scaling");
    let parallelism = fig.parallelism;
    let window = Duration::from_millis(if fig.quick { 200 } else { 1000 });
    eprintln!("f14: {window:?} window per cell, host parallelism {parallelism}");

    let mut rows = Vec::new();
    for &mode in &["disjoint_key", "hot_key", "disjoint_range"] {
        for &threads in THREAD_COUNTS {
            let r = cell(mode, threads, window);
            eprintln!(
                "f14: {:<14} threads={:<2} {:>8.0} txn/s  conflicts={:<6} retries={:<6} narrowed={:<6} fsync/commit={:.2} cohort={:.2}",
                r.mode, r.threads, r.ops_s, r.conflicts, r.retries, r.narrowed, r.fsyncs_per_commit, r.mean_cohort
            );
            rows.push(r);
        }
    }

    let base = |mode: &str| {
        rows.iter()
            .find(|r| r.mode == mode && r.threads == 1)
            .expect("1-thread row")
            .ops_s
    };
    // Rates from the last committed run, so each row can record its
    // delta — the regression ledger the figure exists for.
    let prev = prev_rates(&fig.out_path());

    let mut json = fig.json_header();
    let _ = writeln!(json, "  \"window_ms\": {},", window.as_millis());
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let delta = prev
            .iter()
            .find(|(m, t, _)| m == r.mode && *t == r.threads)
            .map_or(String::new(), |(_, _, old)| {
                format!(
                    ", \"prev_txn_per_sec\": {old:.1}, \"delta_pct\": {:.1}",
                    (r.ops_s - old) / old * 100.0
                )
            });
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"threads\": {}, \"txn_per_sec\": {:.1}, \"speedup\": {:.2}, \"conflicts\": {}, \"retries\": {}, \"narrowed\": {}, \"fsyncs_per_commit\": {:.3}, \"mean_cohort\": {:.2}{delta}}}{comma}",
            r.mode,
            r.threads,
            r.ops_s,
            r.ops_s / base(r.mode),
            r.conflicts,
            r.retries,
            r.narrowed,
            r.fsyncs_per_commit,
            r.mean_cohort,
        );
    }
    json.push_str("  ]\n}\n");

    fig.write(&json);

    // Scaling bar, gated on real parallelism: with ≥4 cores, 4 disjoint
    // writers sharing fsyncs must beat one writer paying a full fsync
    // per commit.
    let at = |mode: &str, n: usize| {
        rows.iter()
            .find(|r| r.mode == mode && r.threads == n)
            .expect("row")
            .ops_s
    };
    let speedup = at("disjoint_key", 4) / base("disjoint_key");
    if parallelism >= 4 {
        assert!(
            speedup >= 1.5,
            "disjoint writers failed to scale: 4-thread throughput is only {speedup:.2}x of 1-thread"
        );
        eprintln!("f14: 4-thread disjoint-key speedup {speedup:.2}x (>= 1.5x bar) — PASS");
    } else {
        eprintln!(
            "f14: host has {parallelism} core(s); ≥1.5x@4-threads assertion skipped (measured {speedup:.2}x)"
        );
        eprintln!("f14: NOT CREDIBLE — single-core scaling numbers are time-slicing artifacts");
    }
    // Group commit must actually share fsyncs once several writers
    // commit concurrently — even time-sliced on one core the cohort
    // window overlaps. Gate on 2 threads existing at all.
    let hot8 = rows
        .iter()
        .find(|r| r.mode == "hot_key" && r.threads == 8)
        .expect("hot_key@8");
    if hot8.conflicts == 0 {
        eprintln!("f14: note: hot_key@8 saw no conflicts (scheduler never overlapped validations)");
    }

    // Disjoint-range writers are the narrowed-validation headline: with
    // real parallelism, validations overlap and the range intersection
    // must be doing the admitting (narrowed > 0) while keeping the
    // conflict rate far below hot-key levels.
    let range8 = rows
        .iter()
        .find(|r| r.mode == "disjoint_range" && r.threads == 8)
        .expect("disjoint_range@8");
    if parallelism >= 2 {
        assert!(
            range8.narrowed > 0,
            "disjoint_range@8 never exercised narrowed validation"
        );
        eprintln!(
            "f14: disjoint_range@8 narrowed {} validations with {} conflicts — PASS",
            range8.narrowed, range8.conflicts
        );
    } else {
        eprintln!(
            "f14: disjoint_range@8 narrowed={} conflicts={} (assertion skipped on 1 core)",
            range8.narrowed, range8.conflicts
        );
    }
}

/// `(mode, threads, txn_per_sec)` triples from a previous run's JSON.
/// The file is our own line-per-row output, so a plain string scan is
/// enough — no JSON parser in the bench crate's dependency set.
fn prev_rates(path: &std::path::Path) -> Vec<(String, usize, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_string())
    };
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(mode), Some(threads), Some(rate)) = (
            field(line, "\"mode\": \""),
            field(line, "\"threads\": "),
            field(line, "\"txn_per_sec\": "),
        ) else {
            continue;
        };
        if let (Ok(threads), Ok(rate)) = (threads.parse(), rate.parse()) {
            out.push((mode, threads, rate));
        }
    }
    out
}
