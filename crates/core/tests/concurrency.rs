//! The engine behind a serving layer: one `Database` shared by many
//! threads. Transactions serialize behind the engine's gate, so
//! concurrent writers queue at `begin()` — the property under test is
//! that nothing is lost, torn, or double-applied when eight threads
//! hammer the same engine the way eight `ode-server` connections do.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use ode_core::oql::ExecResult;
use ode_core::Database;

/// `Database` must be shareable across connection threads by reference.
#[test]
fn database_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Arc<Database>>();
}

#[test]
fn eight_threads_share_one_database() {
    const THREADS: usize = 8;
    const ROWS_PER_THREAD: usize = 25;

    let db = Arc::new(Database::in_memory());
    db.define_from_source("class stockitem { string name; int quantity = 0; }")
        .unwrap();
    db.create_cluster("stockitem").unwrap();
    db.create_index("stockitem", "quantity").unwrap();

    let start = Arc::new(Barrier::new(THREADS));
    let queries_ok = Arc::new(AtomicUsize::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = Arc::clone(&db);
            let start = Arc::clone(&start);
            let queries_ok = Arc::clone(&queries_ok);
            std::thread::spawn(move || {
                start.wait();
                // Interleave inserts, updates, scans, and explains — the
                // mixed workload a pool of server sessions produces.
                for i in 0..ROWS_PER_THREAD {
                    let tag = (t * 10_000 + i) as i64;
                    db.transaction(|tx| {
                        match tx.execute(&format!(
                            r#"pnew stockitem (name = "t{t}", quantity = {tag})"#
                        ))? {
                            ExecResult::Created(_) => Ok(()),
                            other => panic!("unexpected result: {other:?}"),
                        }
                    })
                    .unwrap();
                    if i % 5 == 0 {
                        let rows = db
                            .transaction(|tx| {
                                let r = tx.execute(&format!(
                                    "forall s in stockitem suchthat (quantity >= {} && quantity < {})",
                                    t * 10_000,
                                    (t + 1) * 10_000,
                                ))?;
                                match r {
                                    ExecResult::Rows(rows) => Ok(rows.rows.len()),
                                    other => panic!("unexpected result: {other:?}"),
                                }
                            })
                            .unwrap();
                        // Own writes are always visible; other threads'
                        // rows never leak into this tag range.
                        assert_eq!(rows, i + 1, "thread {t} at step {i}");
                        queries_ok.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Every thread can explain against the shared schema.
                db.transaction(|tx| {
                    let r = tx.execute(&format!(
                        "explain forall s in stockitem suchthat (quantity == {})",
                        t * 10_000
                    ))?;
                    match r {
                        ExecResult::Explain(prof) => {
                            let strategy = prof.strategy.to_string();
                            assert!(strategy.contains("index probe"), "{strategy}")
                        }
                        other => panic!("unexpected result: {other:?}"),
                    }
                    Ok(())
                })
                .unwrap();
                // And update its own rows without touching anyone else's.
                let updated = db
                    .transaction(|tx| {
                        match tx.execute(&format!(
                            "update s in stockitem suchthat (quantity >= {} && quantity < {}) set name = \"done{t}\"",
                            t * 10_000,
                            (t + 1) * 10_000,
                        ))? {
                            ExecResult::Updated(n) => Ok(n),
                            other => panic!("unexpected result: {other:?}"),
                        }
                    })
                    .unwrap();
                assert_eq!(updated, ROWS_PER_THREAD, "thread {t}");
            })
        })
        .collect();

    for w in workers {
        w.join().unwrap();
    }

    assert_eq!(
        queries_ok.load(Ordering::Relaxed),
        THREADS * ROWS_PER_THREAD.div_ceil(5)
    );
    assert_eq!(
        db.extent_size("stockitem", true).unwrap(),
        THREADS * ROWS_PER_THREAD,
        "every thread's inserts are durable exactly once"
    );
    let snap = db.telemetry();
    assert!(snap.txn.committed >= (THREADS * ROWS_PER_THREAD) as u64);
    assert_eq!(snap.txn.aborted_constraint, 0);
    assert_eq!(snap.txn.aborted_other, 0);
}

/// Tentpole property: snapshot readers never observe a torn commit.
///
/// A writer thread moves balance between accounts, each commit keeping
/// the grand total constant. Four concurrent snapshot readers open read
/// transactions in a loop and assert that (a) the total across every
/// account is exactly the invariant — a partially-applied commit would
/// break it, (b) the extent row count never wobbles, and (c) the
/// snapshot never goes stale while it is open, because the publish
/// window excludes commits for the snapshot's whole lifetime.
#[test]
fn snapshot_readers_never_see_torn_commits() {
    use std::sync::atomic::AtomicBool;

    use ode_core::prelude::Value;

    const READERS: usize = 4;
    const ACCOUNTS: usize = 8;
    const TOTAL: i64 = 100 * ACCOUNTS as i64;
    const WRITES: usize = 300;

    let db = Arc::new(Database::in_memory());
    db.define_from_source("class acct { int bal = 100; }")
        .unwrap();
    db.create_cluster("acct").unwrap();
    let oids: Vec<_> = (0..ACCOUNTS)
        .map(|_| {
            db.transaction(|tx| match tx.execute("pnew acct")? {
                ExecResult::Created(oid) => Ok(oid),
                other => panic!("unexpected result: {other:?}"),
            })
            .unwrap()
        })
        .collect();

    let int = |v: Value| match v {
        Value::Int(n) => n,
        other => panic!("expected int, got {other:?}"),
    };

    let start = Arc::new(Barrier::new(READERS + 1));
    let done = Arc::new(AtomicBool::new(false));
    let snapshots = Arc::new(AtomicUsize::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let db = Arc::clone(&db);
            let oids = oids.clone();
            let start = Arc::clone(&start);
            let done = Arc::clone(&done);
            let snapshots = Arc::clone(&snapshots);
            std::thread::spawn(move || {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let mut rtx = db.begin_read();
                    // Point reads: the cross-object invariant holds in
                    // every snapshot.
                    let sum: i64 = oids.iter().map(|&o| int(rtx.get(o, "bal").unwrap())).sum();
                    assert_eq!(sum, TOTAL, "torn commit visible to a snapshot");
                    // Query path: the extent is never half-grown.
                    match rtx.execute("forall a in acct").unwrap() {
                        ExecResult::Rows(rows) => assert_eq!(rows.rows.len(), ACCOUNTS),
                        other => panic!("unexpected result: {other:?}"),
                    }
                    // The snapshot cannot have been overtaken while open:
                    // publishes wait for the apply gate we hold.
                    assert!(!rtx.is_stale(), "commit published under a live snapshot");
                    drop(rtx);
                    snapshots.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    start.wait();
    for i in 0..WRITES {
        let src = oids[i % ACCOUNTS];
        let dst = oids[(i + 3) % ACCOUNTS];
        let amount = 1 + (i % 7) as i64;
        db.transaction(|tx| {
            let from = int(tx.get(src, "bal")?);
            let to = int(tx.get(dst, "bal")?);
            tx.set(src, "bal", from - amount)?;
            tx.set(dst, "bal", to + amount)?;
            Ok(())
        })
        .unwrap();
    }
    done.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }

    assert!(snapshots.load(Ordering::Relaxed) > 0);
    let final_sum = db
        .read(|rtx| {
            Ok(oids
                .iter()
                .map(|&o| int(rtx.get(o, "bal").unwrap()))
                .sum::<i64>())
        })
        .unwrap();
    assert_eq!(final_sum, TOTAL);
    let snap = db.telemetry();
    assert!(snap.txn.read_txns >= snapshots.load(Ordering::Relaxed) as u64);
    assert!(snap.txn.write_txns >= WRITES as u64);
}

/// Multi-writer validation property: read-modify-write on a hot key
/// loses no updates. Every increment reads the counter, so two
/// increments racing on the same begin epoch cannot both validate —
/// the loser aborts with `WriteConflict` and `Database::transaction`
/// re-runs it against the winner's published state (DESIGN.md §13).
#[test]
fn concurrent_increments_lose_no_updates() {
    use ode_core::prelude::Value;

    const THREADS: usize = 8;
    // CI's writer-contention job turns the hammer up via the env knob.
    let increments: usize = std::env::var("ODE_CONTENTION_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);

    let db = Arc::new(Database::in_memory());
    db.define_from_source("class counter { int n = 0; }")
        .unwrap();
    db.create_cluster("counter").unwrap();
    let oid = db
        .transaction(|tx| match tx.execute("pnew counter")? {
            ExecResult::Created(oid) => Ok(oid),
            other => panic!("unexpected result: {other:?}"),
        })
        .unwrap();

    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let db = Arc::clone(&db);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..increments {
                    db.transaction(|tx| {
                        let n = match tx.get(oid, "n")? {
                            Value::Int(n) => n,
                            other => panic!("expected int, got {other:?}"),
                        };
                        tx.set(oid, "n", n + 1)
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let total = db
        .read(|rtx| match rtx.get(oid, "n")? {
            Value::Int(n) => Ok(n),
            other => panic!("expected int, got {other:?}"),
        })
        .unwrap();
    assert_eq!(
        total,
        (THREADS * increments) as i64,
        "every increment survived validation exactly once"
    );
    let snap = db.telemetry();
    assert!(snap.txn.committed >= (THREADS * increments) as u64);
    // Conflicts are transient: they show up in their own counter, never
    // in the abort taxonomy the operator alerts on.
    assert_eq!(snap.txn.aborted_other, 0);
}

/// Write skew is detected, not admitted. Two transactions each read
/// both accounts (the joint invariant `a + b >= 0`) and each debits a
/// *different* account — under plain snapshot isolation both would
/// commit and break the invariant. Our validation treats every read as
/// a promise: the second committer's read of the first's written
/// object is stale, so it aborts with `WriteConflict`.
#[test]
fn write_skew_between_overlapping_transactions_is_rejected() {
    use ode_core::prelude::{OdeError, Value};

    let db = Database::in_memory();
    db.define_from_source("class acct { int bal = 100; }")
        .unwrap();
    db.create_cluster("acct").unwrap();
    let (a, b) = db
        .transaction(|tx| {
            let a = match tx.execute("pnew acct")? {
                ExecResult::Created(oid) => oid,
                other => panic!("unexpected result: {other:?}"),
            };
            let b = match tx.execute("pnew acct")? {
                ExecResult::Created(oid) => oid,
                other => panic!("unexpected result: {other:?}"),
            };
            Ok((a, b))
        })
        .unwrap();

    let int = |v: Value| match v {
        Value::Int(n) => n,
        other => panic!("expected int, got {other:?}"),
    };

    // Both transactions open before either commits: same begin epoch,
    // overlapping read sets, disjoint write sets.
    let mut tx1 = db.begin();
    let mut tx2 = db.begin();
    let sum1 = int(tx1.get(a, "bal").unwrap()) + int(tx1.get(b, "bal").unwrap());
    let sum2 = int(tx2.get(a, "bal").unwrap()) + int(tx2.get(b, "bal").unwrap());
    assert_eq!(sum1, 200);
    assert_eq!(sum2, 200);
    // Each decides "the joint balance covers a 150 debit" and debits
    // its own account. Admitting both would leave a + b = -100.
    tx1.set(a, "bal", 100i64 - 150).unwrap();
    tx2.set(b, "bal", 100i64 - 150).unwrap();

    tx1.commit().unwrap();
    let err = tx2.commit().unwrap_err();
    assert!(
        matches!(err, OdeError::WriteConflict { .. }),
        "write skew must surface as a conflict, got: {err:?}"
    );
    assert!(err.is_unavailable(), "conflicts are retryable for clients");

    // The invariant-breaking combination never reached the store.
    let (fa, fb) = db
        .read(|rtx| {
            Ok((
                int(rtx.get(a, "bal").unwrap()),
                int(rtx.get(b, "bal").unwrap()),
            ))
        })
        .unwrap();
    assert_eq!((fa, fb), (-50, 100));
    assert!(fa + fb >= 0, "joint invariant survived the race");
    let snap = db.telemetry();
    assert!(snap.txn.conflicts >= 1, "conflict abort is counted");
}

/// A scan visitor parked mid-stream must not stall a commit on another
/// thread, and must finish once released. The scanner's predicate
/// dereferences a reference (a store read under the shared apply gate),
/// and its native filter parks on the first object; meanwhile a second
/// thread commits. An engine lock held across the visit (the scan's
/// caller holding `inner`) parks the committer inside its publish window
/// (apply gate held, waiting for `inner`), and the released scanner then
/// blocks on the apply gate behind it: a deadlock the watchdog reports.
#[test]
fn parked_scan_visitor_does_not_block_a_concurrent_commit() {
    use std::sync::mpsc;
    use std::time::Duration;
    const WATCHDOG: Duration = Duration::from_secs(10);

    let db = Arc::new(Database::in_memory());
    db.define_from_source("class owner { int n = 0; } class item { ref<owner> by; }")
        .unwrap();
    db.create_cluster("owner").unwrap();
    db.create_cluster("item").unwrap();
    let owner = db
        .transaction(|tx| {
            let o = tx.pnew("owner", &[])?;
            for _ in 0..2 {
                tx.pnew("item", &[("by", ode_core::prelude::Value::Ref(o))])?;
            }
            Ok(o)
        })
        .unwrap();

    let (parked_tx, parked_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel();
    let scanner = {
        let (db, done_tx) = (db.clone(), done_tx.clone());
        std::thread::spawn(move || {
            let mut tx = db.begin();
            let mut first = true;
            let seen = tx
                .forall("item")
                .unwrap()
                .suchthat("by.n >= 0")
                .unwrap()
                .filter(move |_| {
                    if std::mem::take(&mut first) {
                        parked_tx.send(()).unwrap();
                        resume_rx.recv().unwrap();
                    }
                    true
                })
                .count()
                .unwrap();
            done_tx.send("scanner").unwrap();
            seen
        })
    };
    parked_rx
        .recv_timeout(WATCHDOG)
        .expect("scanner reached its first object");

    let committer = {
        let db = db.clone();
        std::thread::spawn(move || {
            db.transaction(|tx| tx.set(owner, "n", 1i64)).unwrap();
            done_tx.send("committer").unwrap();
        })
    };
    // The commit needs nothing the parked scanner holds. Then the scanner
    // resumes; if the commit is stuck, the scanner's next dereference
    // queues behind it and neither finishes.
    let committed = done_rx.recv_timeout(WATCHDOG);
    resume_tx.send(()).unwrap();
    let scanned = done_rx.recv_timeout(WATCHDOG);
    assert_eq!(
        committed,
        Ok("committer"),
        "the commit waited on the parked scan visitor"
    );
    assert_eq!(scanned, Ok("scanner"), "deadlock: the scan never finished");
    assert_eq!(scanner.join().unwrap(), 2);
    committer.join().unwrap();
}
