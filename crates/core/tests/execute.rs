//! `Database::execute`, the one statement executor: each statement runs
//! end to end as its own transaction, with no shell in between.

use std::time::Duration;

use ode_core::oql::{ExecResult, Executed};
use ode_core::prelude::*;

fn run<'db>(db: &'db Database, src: &str) -> Executed<'db> {
    db.execute(src)
        .unwrap_or_else(|e| panic!("`{src}` failed: {e}"))
}

fn qty(db: &Database, oid: Oid) -> Value {
    db.read(|rtx| rtx.get(oid, "qty")).unwrap()
}

/// Every statement kind through `execute`, checking the typed result,
/// the route it took (commit for writes, snapshot for rows) and the
/// commit's trigger firings.
#[test]
fn execute_runs_every_statement_kind_without_a_shell() {
    let db = Database::in_memory();

    // DDL: typed outcomes, no transaction and no footprint.
    let done = run(
        &db,
        "class item { string name; int qty = 100; int on_order = 0; \
         trigger low(n) : qty < $n { on_order = $n; } }",
    );
    assert!(matches!(&done.result, ExecResult::Defined(names) if names == &["item"]));
    assert!(done.commit.is_none() && done.snapshot.is_none() && done.footprint.is_none());
    let done = run(&db, "create cluster item");
    assert!(matches!(&done.result, ExecResult::ClusterCreated(c) if c == "item"));
    let done = run(&db, "create index item qty");
    assert!(
        matches!(&done.result, ExecResult::IndexCreated { class, field } if class == "item" && field == "qty")
    );
    assert_eq!(db.index_names(), vec![("item".into(), "qty".into())]);

    // pnew: a write transaction that commits.
    let done = run(&db, r#"pnew item (name = "dram", qty = 50)"#);
    let ExecResult::Created(oid) = done.result else {
        panic!("expected Created, got {:?}", done.result);
    };
    let info = done.commit.expect("pnew commits");
    assert!(info.fired.is_empty() && info.failures.is_empty());
    assert!(done.snapshot.is_none());
    assert!(!done.footprint.expect("pnew has a footprint").read_only());

    // forall: rows on a snapshot, no commit, and the analyzer's warning.
    let done = run(&db, r#"forall i in item suchthat (name == "dram")"#);
    let ExecResult::Rows(rows) = &done.result else {
        panic!("expected Rows, got {:?}", done.result);
    };
    assert_eq!(rows.oids().unwrap(), vec![oid]);
    assert!(done.commit.is_none());
    assert!(done.footprint.as_ref().unwrap().read_only());
    let codes: Vec<&str> = done.warnings.iter().map(|w| w.code).collect();
    assert_eq!(codes, ["A102"], "unindexed equality");
    let snapshot = done.snapshot.as_ref().expect("rows keep their snapshot");
    assert_eq!(snapshot.get(oid, "name").unwrap(), Value::from("dram"));
    drop(done);

    // activate: a write transaction; nothing fires yet.
    let done = run(&db, &format!("activate low on {oid} (40)"));
    let ExecResult::Activated {
        id,
        trigger,
        oid: on,
    } = &done.result
    else {
        panic!("expected Activated, got {:?}", done.result);
    };
    assert_eq!((trigger.as_str(), on), ("low", &oid));
    assert!(id.0 > 0);
    assert!(done.commit.as_ref().unwrap().fired.is_empty());

    // update: the commit reports the firing, and its action ran.
    let done = run(
        &db,
        r#"update i in item suchthat (name == "dram") set qty = 10"#,
    );
    assert!(matches!(done.result, ExecResult::Updated(1)));
    let fired = &done.commit.as_ref().unwrap().fired;
    assert_eq!(fired.len(), 1, "{fired:?}");
    assert_eq!((fired[0].trigger.as_str(), fired[0].oid), ("low", oid));
    assert_eq!(
        db.read(|rtx| rtx.get(oid, "on_order")).unwrap(),
        Value::Int(40)
    );

    // explain: a profile, with the footprint that routed it; the
    // snapshot is not kept.
    let done = run(&db, "explain forall i in item suchthat (qty == 10)");
    let ExecResult::Explain(prof) = &done.result else {
        panic!("expected Explain, got {:?}", done.result);
    };
    assert_eq!(prof.rows, 1);
    assert!(done.snapshot.is_none() && done.commit.is_none());
    assert!(done.footprint.as_ref().unwrap().read_only());

    // delete, then destroy the cluster.
    assert!(matches!(
        run(&db, "delete i in item").result,
        ExecResult::Deleted(1)
    ));
    let done = run(&db, "destroy cluster item");
    assert!(matches!(&done.result, ExecResult::ClusterDestroyed(c) if c == "item"));
    assert!(!db.has_cluster("item"));

    // Rejections: the analyzer before any transaction, the parser before
    // the analyzer.
    let before = db.telemetry().txn;
    assert!(matches!(
        db.execute("forall i in item suchthat (missing > 3)"),
        Err(OdeError::Analysis(_))
    ));
    assert!(matches!(
        db.execute("forall in in"),
        Err(OdeError::Model(_))
    ));
    let after = db.telemetry().txn;
    assert_eq!(before.begun, after.begun);
    assert_eq!(before.read_txns, after.read_txns);
}

/// Rows render from the snapshot that selected them: a commit made after
/// `execute` returned cannot publish while the rows are held, so reading
/// them shows the state that qualified them.
#[test]
fn rows_render_from_the_snapshot_that_selected_them() {
    let db = Database::in_memory();
    run(&db, "class item { int qty = 0; }");
    run(&db, "create cluster item");
    let ExecResult::Created(oid) = run(&db, "pnew item (qty = 1)").result else {
        panic!("expected Created");
    };

    let done = run(&db, "forall i in item suchthat (qty == 1)");
    let (committing, reached) = std::sync::mpsc::channel();
    let db = &db;
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut tx = db.begin();
            tx.execute("update i in item set qty = 2")?;
            committing.send(()).unwrap();
            tx.commit()
        });
        reached.recv().unwrap();
        // The commit cannot publish while the rows' snapshot is open; the
        // pause only gives a broken build the chance to show it.
        std::thread::sleep(Duration::from_millis(50));
        assert!(!writer.is_finished(), "a commit published under held rows");
        let snapshot = done.snapshot.as_ref().unwrap();
        let ExecResult::Rows(rows) = &done.result else {
            panic!("expected Rows");
        };
        assert_eq!(rows.oids().unwrap(), vec![oid]);
        assert_eq!(snapshot.get(oid, "qty").unwrap(), Value::Int(1));
        assert!(!snapshot.is_stale());
        drop(done);
        writer.join().unwrap().unwrap();
    });
    assert_eq!(qty(db, oid), Value::Int(2));
}
