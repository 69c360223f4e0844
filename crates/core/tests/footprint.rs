//! Footprint-driven validation (DESIGN.md §14): the static analyzer
//! proves key-predicate ranges, the transaction layer records them in
//! its scan entries, and `claim_commit` intersects reader ranges with
//! writer ranges so provably disjoint transactions stop conflicting.
//!
//! Two families of tests live here:
//!
//! * regression tests pinning the narrowed-validation semantics —
//!   disjoint ranges commit, overlapping or unproven access still
//!   conflicts (the soundness edge);
//! * a property-based oracle checking the footprint pass itself is a
//!   sound over-approximation: every cluster the runtime actually
//!   touched was predicted by `Database::statement_footprint`.

use std::collections::HashSet;

use ode_core::prelude::{OdeError, Value};
use ode_core::Database;
use proptest::prelude::*;

/// A class with *no* index on `quantity`: predicates on it take the
/// extent-scan path, which records per-heap scan entries (not
/// per-object read-set entries) — exactly the shape the ranged
/// validation narrows.
fn stock_db() -> Database {
    let db = Database::in_memory();
    db.define_from_source("class stockitem { string name; int quantity = 0; double price = 0.0; }")
        .unwrap();
    db.create_cluster("stockitem").unwrap();
    db
}

fn seed(db: &Database, rows: &[(&str, i64)]) {
    db.transaction(|tx| {
        for (name, q) in rows {
            tx.execute(&format!(
                r#"pnew stockitem (name = "{name}", quantity = {q})"#
            ))?;
        }
        Ok(())
    })
    .unwrap();
}

/// The false-conflict regression the tentpole exists to fix: two
/// overlapping writers whose `suchthat` ranges are provably disjoint
/// both scan the same heap, but neither reads a row the other writes.
/// Before ranged stamps the second committer aborted on the whole-heap
/// scan entry; now validation intersects the ranges and admits it.
#[test]
fn disjoint_ranged_writers_both_commit() {
    let db = stock_db();
    seed(&db, &[("low", 5), ("high", 50)]);

    let mut tx1 = db.begin();
    let mut tx2 = db.begin();
    tx1.execute("update s in stockitem suchthat (quantity < 10) set price = 1.0")
        .unwrap();
    tx2.execute("update s in stockitem suchthat (quantity > 20) set price = 2.0")
        .unwrap();

    tx1.commit().unwrap();
    tx2.commit()
        .expect("disjoint quantity ranges must not conflict");

    let snap = db.telemetry();
    assert!(
        snap.txn.narrowed_validations >= 1,
        "the second commit must pass via range intersection, got {}",
        snap.txn.narrowed_validations
    );
    assert!(
        snap.txn.ranged_scans >= 2,
        "both predicate scans should record ranges, got {}",
        snap.txn.ranged_scans
    );

    // Both writes landed: each writer hit exactly its own row.
    let prices: Vec<(i64, f64)> = db
        .transaction(|tx| {
            let rows = match tx.execute("forall s in stockitem by (quantity)")? {
                ode_core::oql::ExecResult::Rows(rows) => rows.rows,
                other => panic!("unexpected result: {other:?}"),
            };
            let mut out = Vec::new();
            for row in rows {
                let q = match tx.get(row[0], "quantity")? {
                    Value::Int(q) => q,
                    other => panic!("bad quantity: {other:?}"),
                };
                let p = match tx.get(row[0], "price")? {
                    Value::Float(p) => p,
                    other => panic!("bad price: {other:?}"),
                };
                out.push((q, p));
            }
            Ok(out)
        })
        .unwrap();
    assert_eq!(prices, vec![(5, 1.0), (50, 2.0)]);
}

/// Overlapping ranges are not disjoint: a reader whose predicate range
/// intersects a committed writer's range must still abort. tx2 writes
/// to a second cluster so its commit has ops to validate.
#[test]
fn overlapping_ranged_reader_still_conflicts() {
    let db = stock_db();
    db.define_from_source("class audit { string note; }")
        .unwrap();
    db.create_cluster("audit").unwrap();
    seed(&db, &[("low", 5), ("high", 50)]);

    let mut tx1 = db.begin();
    let mut tx2 = db.begin();
    // Reader range (3, ∞) overlaps writer range (-∞, 10) on [5, 10).
    tx2.execute("forall s in stockitem suchthat (quantity > 3)")
        .unwrap();
    tx2.execute(r#"pnew audit (note = "scanned")"#).unwrap();
    tx1.execute("update s in stockitem suchthat (quantity < 10) set price = 1.0")
        .unwrap();

    tx1.commit().unwrap();
    let err = tx2.commit().unwrap_err();
    assert!(
        matches!(err, OdeError::WriteConflict { .. }),
        "overlapping ranges must conflict, got: {err:?}"
    );
}

/// A scan with no provable range promises the whole extent: any newer
/// write to the heap — however narrow — invalidates it.
#[test]
fn full_scan_reader_conflicts_with_ranged_writer() {
    let db = stock_db();
    db.define_from_source("class audit { string note; }")
        .unwrap();
    db.create_cluster("audit").unwrap();
    seed(&db, &[("low", 5), ("high", 50)]);

    let mut tx1 = db.begin();
    let mut tx2 = db.begin();
    tx2.execute("forall s in stockitem").unwrap();
    tx2.execute(r#"pnew audit (note = "scanned")"#).unwrap();
    tx1.execute("update s in stockitem suchthat (quantity > 20) set price = 2.0")
        .unwrap();

    tx1.commit().unwrap();
    let err = tx2.commit().unwrap_err();
    assert!(
        matches!(err, OdeError::WriteConflict { .. }),
        "an unranged scan promises the whole heap, got: {err:?}"
    );
}

/// The soundness edge: a writer that *moves rows across the range
/// boundary* (assigning the predicate field itself) cannot be narrowed
/// away. The self-verifying write note detects that the final state
/// left the predicate range and demotes the heap to a whole-heap
/// stamp, so the ranged reader still conflicts.
#[test]
fn writer_moving_rows_into_reader_range_conflicts() {
    let db = stock_db();
    db.define_from_source("class audit { string note; }")
        .unwrap();
    db.create_cluster("audit").unwrap();
    seed(&db, &[("mover", 1), ("high", 50)]);

    let mut tx1 = db.begin();
    let mut tx2 = db.begin();
    // Reader believes nothing below 20 matters…
    tx2.execute("forall s in stockitem suchthat (quantity > 20)")
        .unwrap();
    tx2.execute(r#"pnew audit (note = "scanned")"#).unwrap();
    // …but the writer moves a row from quantity 1 into the reader's
    // range. Its suchthat range [1,1] is disjoint from (20, ∞) — a
    // naive range intersection would wrongly admit the reader.
    tx1.execute("update s in stockitem suchthat (quantity == 1) set quantity = 30")
        .unwrap();

    tx1.commit().unwrap();
    let err = tx2.commit().unwrap_err();
    assert!(
        matches!(err, OdeError::WriteConflict { .. }),
        "a writer assigning the range field must not be narrowed, got: {err:?}"
    );
}

/// Read-only proofs: statements with no write footprint are proven
/// read-only; anything that writes is not.
#[test]
fn read_only_proofs_classify_statements() {
    let db = stock_db();
    let ro = |stmt: &str| {
        db.statement_footprint(stmt)
            .unwrap()
            .unwrap_or_else(|| panic!("no footprint for {stmt:?}"))
            .read_only()
    };
    assert!(ro("forall s in stockitem suchthat (quantity > 3)"));
    assert!(ro("forall s in stockitem by (quantity)"));
    assert!(!ro(r#"pnew stockitem (name = "x")"#));
    assert!(!ro(
        "update s in stockitem suchthat (quantity > 3) set price = 1.0"
    ));
    assert!(!ro("delete s in stockitem suchthat (quantity > 3)"));

    let snap = db.telemetry();
    assert!(snap.analyze.footprints >= 5);
    assert!(snap.analyze.read_only_proofs >= 2);
}

/// `explain`'s strategy row and the footprint's `via index(...)` come
/// from the same rule, so they name the same index: a point before a
/// one-sided range, and the field name between two points.
#[test]
fn explain_strategy_and_footprint_name_the_same_index() {
    let db = Database::in_memory();
    db.define_from_source("class part { string name; int weight; int sku; int quantity; }")
        .unwrap();
    db.create_cluster("part").unwrap();
    for field in ["name", "weight", "sku", "quantity"] {
        db.create_index("part", field).unwrap();
    }
    for (pred, field) in [
        (r#"weight == 3 && name == "bolt""#, "name"),
        ("sku == 7 && quantity > 10", "sku"),
        ("quantity > 10 && sku == 7", "sku"),
    ] {
        let stmt = format!("explain forall p in part suchthat ({pred})");
        let fp = db.statement_footprint(&stmt).unwrap().unwrap();
        assert_eq!(fp.reads[0].index.as_deref(), Some(field), "{pred}");
        let prof = match db.transaction(|tx| tx.execute(&stmt)).unwrap() {
            ode_core::oql::ExecResult::Explain(prof) => prof,
            other => panic!("unexpected result: {other:?}"),
        };
        assert_eq!(
            prof.strategy,
            ode_core::PlanStrategy::IndexProbe {
                field: field.into()
            },
            "{pred}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness oracle: the statically predicted footprint is an
    /// over-approximation of what the runtime recorded. Every heap the
    /// transaction scanned and every object it read individually must
    /// lie in a cluster the footprint predicted as read; a ranged scan
    /// entry may only exist when the analyzer proved ranges.
    #[test]
    fn predicted_footprint_covers_observed(
        quantities in prop::collection::vec(0i64..40, 0..10),
        cmp_ix in 0usize..5,
        bound in 0i64..40,
        kind in 0usize..4,
    ) {
        let db = stock_db();
        db.transaction(|tx| {
            for (i, q) in quantities.iter().enumerate() {
                tx.execute(&format!(r#"pnew stockitem (name = "r{i}", quantity = {q})"#))?;
            }
            Ok(())
        })
        .unwrap();

        let cmp = ["<", "<=", "==", ">=", ">"][cmp_ix];
        let stmt = match kind {
            0 => format!("forall s in stockitem suchthat (quantity {cmp} {bound})"),
            1 => "forall s in stockitem".to_string(),
            2 => format!("update s in stockitem suchthat (quantity {cmp} {bound}) set price = 9.0"),
            _ => format!("delete s in stockitem suchthat (quantity {cmp} {bound})"),
        };

        let fp = db.statement_footprint(&stmt).unwrap().expect("statement is analyzable");
        prop_assert_eq!(fp.read_only(), kind <= 1, "{}", stmt);

        let (scans, read_oids) = db
            .transaction(|tx| {
                tx.execute(&stmt)?;
                Ok((tx.observed_scans(), tx.observed_read_oids()))
            })
            .unwrap();

        let mut predicted: HashSet<u32> = HashSet::new();
        for acc in fp.reads.iter().chain(fp.writes.iter()) {
            predicted.extend(db.extent_heap_ids(&acc.class, acc.deep).unwrap());
        }
        let analyzer_has_ranges = fp.reads.iter().any(|a| !a.ranges.is_empty());

        for (heap, ranged) in scans {
            prop_assert!(
                predicted.contains(&heap),
                "runtime scanned heap {heap} the analyzer did not predict for {stmt:?}"
            );
            if ranged {
                prop_assert!(
                    analyzer_has_ranges,
                    "runtime recorded a ranged scan the analyzer did not prove for {stmt:?}"
                );
            }
        }
        for oid in read_oids {
            prop_assert!(
                predicted.contains(&oid.cluster),
                "runtime read cluster {} the analyzer did not predict for {stmt:?}",
                oid.cluster
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Scan-entry bracketing around streaming extents: hints and widening must
// track the *iteration*, not a pre-collected vec (DESIGN.md §14).

/// A predicate that errors mid-stream aborts the enumeration; the heaps
/// streamed so far must be widened, and the statement-scoped range hint
/// must not leak into the *next* scan (the RAII guard regression).
#[test]
fn mid_stream_eval_error_widens_and_clears_the_hint() {
    let db = stock_db();
    db.define_from_source("class audit { string note; }")
        .unwrap();
    db.create_cluster("audit").unwrap();
    seed(&db, &[("a", 1), ("b", 2)]);
    db.transaction(|tx| {
        tx.execute(r#"pnew audit (note = "x")"#)?;
        Ok(())
    })
    .unwrap();

    let mut tx = db.begin();
    // `quantity < 2` proves a range; the arithmetic on `name` (a string)
    // errors once a row survives the first conjunct.
    let err = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("quantity < 2 && name + 1 == 2")
        .unwrap()
        .count();
    assert!(err.is_err(), "string arithmetic must fail evaluation");
    let scans = tx.observed_scans();
    assert_eq!(scans.len(), 1);
    assert!(
        !scans[0].1,
        "an errored scan must be widened to a whole-heap entry"
    );

    // The failed statement's hint must not mislabel this unrelated,
    // unhinted scan as ranged.
    tx.forall("audit").unwrap().count().unwrap();
    let audit_heap = db.extent_heap_ids("audit", false).unwrap()[0];
    let scans = tx.observed_scans();
    let audit_entry = scans.iter().find(|&&(h, _)| h == audit_heap).unwrap();
    assert!(
        !audit_entry.1,
        "stale range hint leaked into the next statement's scan entry"
    );
    tx.abort();
}

/// Extent scans borrow write-set states in place; only the index-probe
/// path clones overlay entries (into its selectivity-sized result). The
/// `query.overlay_clones` counter proves scans stopped copying the write
/// set on every pass.
#[test]
fn extent_scans_do_not_clone_the_write_set() {
    let db = stock_db();
    seed(&db, &[("a", 1), ("b", 2)]);

    let mut tx = db.begin();
    for i in 0..50 {
        tx.execute(&format!(
            r#"pnew stockitem (name = "w{i}", quantity = {i})"#
        ))
        .unwrap();
    }
    let before = db.telemetry().query.overlay_clones;
    // Ten full scans over a 50-object write set: the old overlay() path
    // would have cloned 500+ states; the streaming path clones none.
    for _ in 0..10 {
        assert_eq!(tx.forall("stockitem").unwrap().count().unwrap(), 52);
    }
    assert_eq!(
        db.telemetry().query.overlay_clones,
        before,
        "extent scans must not clone overlay states"
    );
    tx.abort();

    // The index-probe fold-in is the one remaining clone site.
    db.create_index("stockitem", "quantity").unwrap();
    let mut tx = db.begin();
    tx.execute(r#"pnew stockitem (name = "probe-me", quantity = 1)"#)
        .unwrap();
    let n = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("quantity == 1")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 2); // committed "a" + overlay "probe-me"
    assert!(
        db.telemetry().query.overlay_clones > before,
        "index probes still fold (and clone) matching overlay entries"
    );
    tx.abort();
}
