//! Engine-side observability: flight-recorder spans and the
//! trace-context plumbing the wire protocol rides on.

use ode_core::obs::{current_trace, set_trace, SpanStage, TraceId};
use ode_core::prelude::*;

fn inventory(db: &Database) {
    db.define_from_source("class stockitem { string name; int quantity = 0; }")
        .unwrap();
    db.create_cluster("stockitem").unwrap();
    db.transaction(|tx| {
        for i in 0..10 {
            tx.pnew(
                "stockitem",
                &[
                    ("name", Value::from(format!("item-{i}"))),
                    ("quantity", Value::Int(i)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn flight_recorder_captures_span_tree() {
    let db = Database::in_memory();
    inventory(&db);

    let trace = db.flight().mint_trace();
    let _ctx = set_trace(trace);
    db.transaction(|tx| {
        let n = tx.forall("stockitem")?.suchthat("quantity >= 5")?.count()?;
        assert_eq!(n, 5);
        Ok(())
    })
    .unwrap();
    drop(_ctx);

    let spans = db.flight().for_trace(trace);
    assert!(!spans.is_empty(), "trace recorded no spans");
    let stages: Vec<SpanStage> = spans.iter().map(|s| s.stage).collect();
    assert!(stages.contains(&SpanStage::Txn), "{stages:?}");
    assert!(stages.contains(&SpanStage::Execute), "{stages:?}");
    assert!(stages.contains(&SpanStage::Commit), "{stages:?}");
    // Every span belongs to the requested trace and has monotonic
    // timestamps.
    for s in &spans {
        assert_eq!(s.trace, trace);
        assert!(s.end_ns >= s.start_ns);
    }
    // The commit span nests (transitively) under the transaction span.
    let txn = spans.iter().find(|s| s.stage == SpanStage::Txn).unwrap();
    let commit = spans.iter().find(|s| s.stage == SpanStage::Commit).unwrap();
    assert_eq!(commit.parent, txn.span_id);
    assert!(commit.start_ns >= txn.start_ns);
}

#[test]
fn background_work_stays_out_of_foreign_traces() {
    let db = Database::in_memory();
    inventory(&db);
    assert_eq!(current_trace(), TraceId::NONE);
    // Work outside any trace context lands in trace 0.
    db.read(|tx| tx.forall("stockitem")?.count()).unwrap();
    let traced: Vec<_> = db
        .flight()
        .snapshot()
        .into_iter()
        .filter(|s| s.trace.is_traced())
        .collect();
    assert!(
        traced.is_empty(),
        "untraced work minted a trace: {traced:?}"
    );
}
