//! Failure-injection tests: a store wrapper that fails on command proves
//! the engine turns storage failures into clean aborts — no partial
//! commits, no corrupted in-memory catalogs, usable afterwards.

use std::sync::Arc;

use ode::core::{Database, DbConfig};
use ode::prelude::*;
use ode::storage::{FailpointConfig, FailpointStore, FaultKind, MemStore, Store};

/// A [`MemStore`] behind a [`FailpointStore`] with no scheduled faults:
/// each test forces [`FaultKind::CommitPre`], so the next `commit_prepare`
/// fails before reaching the inner store, like a full disk or an I/O
/// error at the WAL append.
fn fault_store() -> Arc<FailpointStore> {
    Arc::new(FailpointStore::new(
        Arc::new(MemStore::new()),
        FailpointConfig::disabled(1),
    ))
}

/// Retries off: these tests pin the *abort* path, and the injected fault
/// is transient, so the default `commit_retries` would paper over it.
fn no_retry() -> DbConfig {
    DbConfig {
        commit_retries: 0,
        ..DbConfig::default()
    }
}

fn setup(store: Arc<FailpointStore>) -> Database {
    let db = Database::from_store(store, no_retry()).unwrap();
    db.define_from_source("class item { string name; int qty = 0; }")
        .unwrap();
    db.create_cluster("item").unwrap();
    db.create_index("item", "qty").unwrap();
    db
}

#[test]
fn failed_commit_aborts_cleanly_and_database_stays_usable() {
    let store = fault_store();
    let db = setup(store.clone());
    let keeper = db
        .transaction(|tx| {
            tx.pnew(
                "item",
                &[("name", Value::from("keep")), ("qty", Value::Int(1))],
            )
        })
        .unwrap();

    // Inject a failure into the next commit.
    store.force(FaultKind::CommitPre);
    let mut tx = db.begin();
    let doomed = tx
        .pnew(
            "item",
            &[("name", Value::from("doomed")), ("qty", Value::Int(2))],
        )
        .unwrap();
    tx.set(keeper, "qty", 99i64).unwrap();
    let err = tx.commit().unwrap_err();
    assert!(matches!(err, OdeError::Storage(_)), "{err}");

    // Nothing of the failed transaction is visible.
    let mut tx = db.begin();
    assert!(!tx.exists(doomed));
    assert_eq!(tx.get(keeper, "qty").unwrap(), Value::Int(1));
    // The index was not poisoned by the failed commit.
    assert_eq!(
        tx.forall("item")
            .unwrap()
            .suchthat("qty == 99")
            .unwrap()
            .count()
            .unwrap(),
        0
    );
    assert_eq!(
        tx.forall("item")
            .unwrap()
            .suchthat("qty == 1")
            .unwrap()
            .count()
            .unwrap(),
        1
    );
    drop(tx);

    // The database keeps working afterwards.
    db.transaction(|tx| {
        tx.set(keeper, "qty", 5i64)?;
        Ok(())
    })
    .unwrap();
    let tx = db.begin();
    assert_eq!(tx.get(keeper, "qty").unwrap(), Value::Int(5));
}

#[test]
fn failed_commit_fires_no_triggers() {
    let store = fault_store();
    let db = Database::from_store(store.clone(), no_retry()).unwrap();
    db.define_from_source(
        "class item { int qty = 100; int hits = 0; perpetual trigger low() : qty < 10 { hits = hits + 1; qty = 100; } }",
    )
    .unwrap();
    db.create_cluster("item").unwrap();
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("item", &[])?;
            tx.activate_trigger(oid, "low", vec![])?;
            Ok(oid)
        })
        .unwrap();

    store.force(FaultKind::CommitPre);
    let mut tx = db.begin();
    tx.set(oid, "qty", 1i64).unwrap();
    assert!(tx.commit().is_err());

    // Weak coupling from a *failed* commit: nothing fired.
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "hits")?, Value::Int(0));
        assert_eq!(tx.get(oid, "qty")?, Value::Int(100));
        Ok(())
    })
    .unwrap();

    // A successful retry fires normally (the action restocks, quenching
    // the perpetual condition after one firing).
    let mut tx = db.begin();
    tx.set(oid, "qty", 1i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1);
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "hits")?, Value::Int(1));
        assert_eq!(tx.get(oid, "qty")?, Value::Int(100));
        Ok(())
    })
    .unwrap();
}

#[test]
fn failure_during_trigger_action_commit_is_reported_not_propagated() {
    let store = fault_store();
    let db = Database::from_store(store.clone(), no_retry()).unwrap();
    // The action runs a callback (which arms the fault) and then assigns a
    // marker; the action transaction's own commit then fails.
    db.define_from_source(
        "class item { int qty = 100; int marker = 0; trigger low() : qty < 10 { call sabotage; marker = 1; } }",
    )
    .unwrap();
    db.create_cluster("item").unwrap();
    let armer = store.clone();
    db.register_callback("sabotage", move |_tx, _oid, _args| {
        armer.force(FaultKind::CommitPre); // makes the *action* transaction's commit fail
        Ok(())
    });
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("item", &[])?;
            tx.activate_trigger(oid, "low", vec![])?;
            Ok(oid)
        })
        .unwrap();

    // The triggering commit succeeds; the weak-coupled action fails and is
    // reported, not propagated as a rollback of the trigger source.
    let mut tx = db.begin();
    tx.set(oid, "qty", 1i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1, "the trigger did fire");
    assert_eq!(info.failures.len(), 1, "its action's commit failed");
    assert!(matches!(info.failures[0].error, OdeError::Storage(_)));
    // Reported, not retried: the failed event was acknowledged.
    assert!(db.pending_events().is_empty());
    db.transaction(|tx| {
        // The triggering write persisted; the action's write did not.
        assert_eq!(tx.get(oid, "qty")?, Value::Int(1));
        assert_eq!(tx.get(oid, "marker")?, Value::Int(0));
        Ok(())
    })
    .unwrap();
}

#[test]
fn transient_commit_failure_is_retried_transparently() {
    // Under the default config (DESIGN.md §10) a one-shot transient
    // commit failure is absorbed by the engine's bounded retry: the
    // caller sees a successful commit, and the retry shows up in
    // telemetry rather than as an error.
    let store = fault_store();
    let db = Database::from_store(store.clone(), DbConfig::default()).unwrap();
    db.define_from_source("class item { int qty = 0; }")
        .unwrap();
    db.create_cluster("item").unwrap();

    let commits_before = store.stats().commits;
    store.force(FaultKind::CommitPre);
    let oid = db
        .transaction(|tx| tx.pnew("item", &[("qty", Value::Int(7))]))
        .expect("a transient failure within the retry budget must not surface");
    assert_eq!(
        store.stats().commits,
        commits_before + 1,
        "the retry reached the store exactly once"
    );
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "qty")?, Value::Int(7));
        Ok(())
    })
    .unwrap();
    assert!(
        db.telemetry().txn.commit_retries >= 1,
        "the absorbed failure must be visible as txn.commit_retries"
    );
}

#[test]
fn sequential_transactions_from_many_threads() {
    // The paper excludes concurrency; the engine serializes transactions
    // behind a gate. Hammer it from several threads to prove the gate and
    // the shared catalogs are sound (Database is Sync).
    let db = Arc::new(Database::in_memory());
    db.define_from_source("class counter { int n = 0; }")
        .unwrap();
    db.create_cluster("counter").unwrap();
    let oid = db.transaction(|tx| tx.pnew("counter", &[])).unwrap();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    db.transaction(|tx| {
                        let n = tx.get(oid, "n")?.as_int()?;
                        tx.set(oid, "n", n + 1)?;
                        Ok(())
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "n")?, Value::Int(400));
        Ok(())
    })
    .unwrap();
}
