//! Engine behavior under injected storage faults: bounded commit retry,
//! release-error accounting, the permanent-vs-transient split
//! (DESIGN.md §10), and a failed store (§13).

use std::sync::Arc;

use ode_core::{Database, DbConfig};
use ode_storage::{FailpointConfig, FailpointStore, FaultKind, MemStore, Store};

fn faulty_db(retries: usize) -> (Database, Arc<FailpointStore>) {
    let inner: Arc<dyn Store> = Arc::new(MemStore::new());
    let fp = Arc::new(FailpointStore::new(inner, FailpointConfig::disabled(1)));
    let db = Database::from_store(
        Arc::clone(&fp) as Arc<dyn Store>,
        DbConfig {
            commit_retries: retries,
            ..DbConfig::default()
        },
    )
    .unwrap();
    db.define_from_source("class item { int n = 0; }").unwrap();
    db.create_cluster("item").unwrap();
    (db, fp)
}

#[test]
fn transient_commit_failure_is_retried_and_succeeds() {
    let (db, fp) = faulty_db(2);
    fp.force(FaultKind::CommitPre);
    let oid = db
        .transaction(|tx| tx.pnew("item", &[("n", 7.into())]))
        .expect("one transient fault is absorbed by the retry budget");
    assert_eq!(fp.faults_injected(), 1);
    assert_eq!(db.telemetry().txn.commit_retries, 1);
    // The retried batch landed: the object is readable afterwards.
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "n")?.as_int()?, 7);
        Ok(())
    })
    .unwrap();
}

#[test]
fn retry_budget_exhaustion_aborts_with_unavailable() {
    let (db, fp) = faulty_db(0);
    fp.force(FaultKind::CommitPre);
    let err = db
        .transaction(|tx| tx.pnew("item", &[]))
        .expect_err("no retry budget: the transient fault surfaces");
    assert!(err.is_unavailable(), "{err}");
    assert_eq!(db.telemetry().txn.commit_retries, 0);
    // Nothing half-applied: a later transaction starts from a clean store.
    db.transaction(|tx| tx.pnew("item", &[])).unwrap();
}

#[test]
fn failed_release_on_abort_is_counted_not_swallowed() {
    let (db, fp) = faulty_db(2);
    fp.force(FaultKind::Release);
    let err = db
        .transaction(|tx| {
            tx.pnew("item", &[])?;
            Err::<(), _>(ode_core::OdeError::Usage("forced abort".into()))
        })
        .expect_err("transaction aborts");
    assert!(
        !err.is_unavailable(),
        "usage errors are not retryable: {err}"
    );
    assert_eq!(db.telemetry().txn.release_errors, 1);
}

/// A failed group fsync fails the store: that transaction and every later
/// one fail with a non-transient error (the wire's `Engine` kind, so a
/// client does not resubmit an in-doubt batch), and reads keep answering.
#[test]
fn failed_group_sync_stops_commits_but_not_reads() {
    let (db, fp) = faulty_db(2);
    let kept = db
        .transaction(|tx| tx.pnew("item", &[("n", 1.into())]))
        .unwrap();
    fp.force(FaultKind::GroupSync);
    for _ in 0..2 {
        let err = db
            .transaction(|tx| tx.pnew("item", &[("n", 2.into())]))
            .expect_err("a failed store takes no commit");
        assert!(!err.is_unavailable(), "{err}");
        assert!(err.is_store_failed(), "{err}");
    }
    assert_eq!(fp.faults_injected(), 1);
    assert_eq!(
        db.telemetry().txn.commit_retries,
        0,
        "prepare retry skips it"
    );
    let n = db.begin_read().get(kept, "n").unwrap().as_int().unwrap();
    assert_eq!(n, 1);
    let all = db
        .begin_read()
        .forall("item")
        .unwrap()
        .collect_oids()
        .unwrap();
    assert_eq!(all, vec![kept]);
}

#[test]
fn permanent_errors_are_not_unavailable() {
    let (db, _fp) = faulty_db(2);
    let err = db
        .transaction(|tx| tx.pnew("nonexistent", &[]))
        .expect_err("unknown class");
    assert!(!err.is_unavailable(), "{err}");
}

/// An indexed `forall` reads each hit through the store. A failed read is
/// the statement's error, not a silently missing row; only an entry whose
/// object is gone is skipped.
#[test]
fn failed_read_during_an_index_probe_is_an_error() {
    let (db, fp) = faulty_db(2);
    db.create_index("item", "n").unwrap();
    db.transaction(|tx| {
        for n in 0..10 {
            tx.pnew("item", &[("n", (n % 2).into())])?;
        }
        Ok(())
    })
    .unwrap();
    let select = |db: &Database| {
        db.begin_read()
            .forall("item")?
            .suchthat("n == 1")?
            .collect_oids()
    };
    assert_eq!(select(&db).unwrap().len(), 5);

    fp.force(FaultKind::Read);
    let err = select(&db).expect_err("the injected read fault surfaces");
    assert!(err.is_unavailable(), "{err}");
    assert_eq!(fp.faults_injected(), 1);

    // In a write transaction too, and the transaction stays usable.
    fp.force(FaultKind::Read);
    let err = db
        .transaction(|tx| tx.forall("item")?.suchthat("n == 1")?.collect_oids())
        .expect_err("the injected read fault surfaces");
    assert!(err.is_unavailable(), "{err}");
    assert_eq!(select(&db).unwrap().len(), 5);
}
