//! Counter-delta tests for the engine-wide telemetry layer: plan choice
//! (index probe vs deep extent scan), fixpoint round accounting, abort
//! cause taxonomy, trace-span ordering, and the snapshot/delta/JSON API.

use ode::core::obs::flight::set_trace;
use ode::core::SpanStage;
use ode::model::SetValue;
use ode::prelude::*;

fn parts_db() -> Database {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("part")
            .field("pname", Type::Str)
            .field_default("weight", Type::Int, 0),
    )
    .unwrap();
    db.create_cluster("part").unwrap();
    db.transaction(|tx| {
        for i in 0..50i64 {
            tx.pnew(
                "part",
                &[
                    ("pname", Value::from(format!("p{i}").as_str())),
                    ("weight", Value::Int(i)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    db
}

#[test]
fn indexed_selection_does_no_deep_extent_scan() {
    let db = parts_db();
    db.create_index("part", "weight").unwrap();

    let before = db.telemetry();
    let mut tx = db.begin();
    let mut prof = QueryProfile::default();
    let hits = tx
        .forall("part")
        .unwrap()
        .suchthat("weight == 7")
        .unwrap()
        .collect_oids_profiled(&mut prof)
        .unwrap();
    tx.commit().unwrap();
    let d = db.telemetry().delta(&before);

    assert_eq!(hits.len(), 1);
    assert_eq!(d.query.deep_extent_scans, 0, "index probe must not scan");
    assert!(d.query.index_probes >= 1);
    // The probe touches only the matching object, not the whole extent.
    assert_eq!(d.query.objects_scanned, 1);
    assert!(matches!(
        prof.strategy,
        ode::core::PlanStrategy::IndexProbe { .. }
    ));

    // The same predicate on an unindexed field falls back to a deep scan.
    let before = db.telemetry();
    let mut tx = db.begin();
    let hits = tx
        .forall("part")
        .unwrap()
        .suchthat("pname == \"p7\"")
        .unwrap()
        .collect_oids()
        .unwrap();
    tx.commit().unwrap();
    let d = db.telemetry().delta(&before);

    assert_eq!(hits.len(), 1);
    assert!(d.query.deep_extent_scans >= 1);
    assert_eq!(d.query.objects_scanned, 50, "scan visits the whole extent");
    assert_eq!(d.query.predicate_evals, 50);
}

#[test]
fn fixpoint_query_reports_rounds() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("usage")
            .field("parent", Type::Str)
            .field("child", Type::Str),
    )
    .unwrap();
    db.define_class(ClassBuilder::new("reached").field("part", Type::Str))
        .unwrap();
    db.create_cluster("usage").unwrap();
    db.create_cluster("reached").unwrap();
    db.transaction(|tx| {
        for (p, c) in [("engine", "block"), ("block", "piston"), ("piston", "ring")] {
            tx.pnew(
                "usage",
                &[("parent", Value::from(p)), ("child", Value::from(c))],
            )?;
        }
        Ok(())
    })
    .unwrap();

    let before = db.telemetry();
    let mut prof = QueryProfile::default();
    db.transaction(|tx| {
        tx.pnew("reached", &[("part", Value::from("engine"))])?;
        tx.forall("reached")?
            .fixpoint()
            .run_profiled(&mut prof, |tx, r| {
                let part = tx.get(r, "part")?.as_str()?.to_string();
                let children: Vec<String> = tx
                    .forall("usage")?
                    .suchthat(&format!("parent == \"{part}\""))?
                    .collect_values("child")?
                    .into_iter()
                    .map(|v| v.as_str().unwrap().to_string())
                    .collect();
                for c in children {
                    tx.pnew("reached", &[("part", Value::from(c.as_str()))])?;
                }
                Ok(())
            })?;
        Ok(())
    })
    .unwrap();
    let d = db.telemetry().delta(&before);

    // engine → block → piston → ring: the chain forces one new object per
    // round, so the iteration needs several rounds to drain.
    assert!(
        prof.fixpoint_rounds >= 2,
        "rounds: {}",
        prof.fixpoint_rounds
    );
    assert_eq!(
        prof.fixpoint_rounds as usize,
        prof.fixpoint_new_by_round.len()
    );
    assert_eq!(prof.fixpoint_new_by_round.iter().sum::<u64>(), 4);
    assert!(d.query.fixpoint_rounds >= 2);
    assert_eq!(d.query.fixpoint_new_objects, 4);
}

#[test]
fn abort_causes_are_split_by_kind() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("stockitem")
            .field_default("quantity", Type::Int, 0)
            .constraint("quantity >= 0"),
    )
    .unwrap();
    db.create_cluster("stockitem").unwrap();
    let oid = db
        .transaction(|tx| tx.pnew("stockitem", &[("quantity", Value::Int(5))]))
        .unwrap();

    let before = db.telemetry();

    // Constraint violation rolls the transaction back (§5).
    let mut tx = db.begin();
    let err = tx.set(oid, "quantity", -1i64);
    assert!(err.is_err());
    drop(tx);

    // Explicit abort is counted under the other cause.
    let mut tx = db.begin();
    tx.set(oid, "quantity", 9i64).unwrap();
    tx.abort();

    let d = db.telemetry().delta(&before);
    assert_eq!(d.txn.aborted_constraint, 1);
    assert_eq!(d.txn.aborted_other, 1);
    assert_eq!(d.txn.committed, 0);
    assert_eq!(d.txn.begun, 2);

    // The object is untouched by either rollback.
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "quantity")?.as_int()?, 5);
        Ok(())
    })
    .unwrap();
}

#[test]
fn trace_spans_nest_txn_query_and_trigger() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("stockitem")
            .field_default("quantity", Type::Int, 100)
            .field_default("on_order", Type::Int, 0)
            .trigger("reorder", &[], false, "quantity < 10")
            .action_assign("on_order", "on_order + 25"),
    )
    .unwrap();
    db.create_cluster("stockitem").unwrap();
    let oid = db.transaction(|tx| tx.pnew("stockitem", &[])).unwrap();
    db.transaction(|tx| {
        tx.activate_trigger(oid, "reorder", vec![])?;
        Ok(())
    })
    .unwrap();

    // One traced transaction: a query finds the item, an update trips the
    // trigger, commit fires the action in its own transaction.
    let trace = db.flight().mint_trace();
    let ctx = set_trace(trace);
    db.transaction(|tx| {
        let hit = tx
            .forall("stockitem")?
            .suchthat("quantity > 50")?
            .collect_oids()?;
        assert_eq!(hit.len(), 1);
        tx.set(oid, "quantity", 5i64)?;
        Ok(())
    })
    .unwrap();
    drop(ctx);

    let spans = db.flight().for_trace(trace);
    let find = |stage: SpanStage, detail: &str, parent: Option<u64>| {
        spans
            .iter()
            .find(|s| {
                s.stage == stage
                    && s.detail.contains(detail)
                    && parent.is_none_or(|p| s.parent == p)
            })
            .unwrap_or_else(|| panic!("missing {stage} `{detail}` in {spans:?}"))
    };
    let txn = find(SpanStage::Txn, "commit", Some(0));
    let query = find(SpanStage::Execute, "stockitem", Some(txn.span_id));
    let commit = find(SpanStage::Commit, "", Some(txn.span_id));
    let trigger = find(SpanStage::Trigger, "reorder ok", None);
    let inner = find(SpanStage::Txn, "txn#", Some(trigger.span_id));

    // Query and commit spans nest inside their transaction, in that order;
    // the trigger span opens only after the activating transaction
    // committed (the paper's post-commit firing) and closes after its own
    // inner transaction.
    assert!(txn.start_ns <= query.start_ns && query.end_ns <= commit.start_ns);
    assert!(commit.end_ns <= txn.end_ns && txn.end_ns <= trigger.start_ns);
    assert!(trigger.start_ns <= inner.start_ns && inner.end_ns <= trigger.end_ns);

    // Work outside the trace context stays out of this trace.
    db.transaction(|tx| {
        tx.set(oid, "quantity", 80i64)?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.flight().for_trace(trace).len(), spans.len());

    let d = db.telemetry();
    assert!(d.triggers.firings >= 1);
    assert!(d.triggers.max_cascade_depth >= 1);
}

#[test]
fn snapshot_delta_reset_and_json() {
    let dir = std::env::temp_dir().join(format!("ode-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    db.define_class(
        ClassBuilder::new("doc")
            .field_default("rev", Type::Int, 0)
            .field_default(
                "tags",
                Type::Set(Box::new(Type::Int)),
                Value::Set(SetValue::new()),
            ),
    )
    .unwrap();
    db.create_cluster("doc").unwrap();

    let before = db.telemetry();
    let oid = db.transaction(|tx| tx.pnew("doc", &[])).unwrap();
    db.transaction(|tx| {
        tx.newversion(oid)?;
        tx.set(oid, "rev", 1i64)?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        let v = tx.vref(oid)?;
        tx.read_version(v)?;
        let _ = tx.get(oid, "rev")?;
        Ok(())
    })
    .unwrap();
    let snap = db.telemetry();
    let d = snap.delta(&before);

    assert_eq!(d.txn.committed, 3);
    assert_eq!(d.versions.newversions, 1);
    assert!(d.versions.specific_derefs >= 1);
    // Two of the three commits wrote; the read-only one claims no epoch
    // and appends nothing (the multi-writer read-only short-circuit).
    assert!(
        d.storage.wal_appends >= 2,
        "durable write commits hit the WAL"
    );
    assert!(d.storage.record_writes >= 2);
    assert!(d.txn.commit_latency.count >= 3);

    // JSON is a single flat-ish object with every section present.
    let json = snap.to_json();
    for key in [
        "\"storage\"",
        "\"txn\"",
        "\"query\"",
        "\"versions\"",
        "\"triggers\"",
        "\"wal_appends\"",
        "\"commit_latency\"",
        "\"p99_ns\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    // rows() names every counter with its dotted path.
    let rows = snap.rows();
    assert!(rows.iter().any(|(k, _)| k == "storage.wal_appends"));
    assert!(rows.iter().any(|(k, _)| k == "txn.committed"));

    // reset_telemetry zeroes engine counters and the store's stats.
    db.reset_telemetry();
    let zero = db.telemetry();
    assert_eq!(zero.txn.committed, 0);
    assert_eq!(zero.versions.newversions, 0);
    assert_eq!(zero.storage.wal_appends, 0);
    assert_eq!(zero.storage.commits, 0);

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
