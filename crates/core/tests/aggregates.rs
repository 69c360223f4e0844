//! Tests for query aggregates (sum/avg/min/max) and native-closure
//! predicates — conveniences layered over §3.1's iteration facility (the
//! paper's income example computes exactly these averages in loop bodies).

use ode_core::prelude::*;

fn db_with_items() -> Database {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("item")
            .field("name", Type::Str)
            .field_default("qty", Type::Int, 0)
            .field_default("price", Type::Float, 0.0),
    )
    .unwrap();
    db.create_cluster("item").unwrap();
    db.transaction(|tx| {
        for (name, qty, price) in [
            ("a", 10i64, 2.5f64),
            ("b", 20, 1.0),
            ("c", 30, 4.0),
            ("d", 40, 0.5),
        ] {
            tx.pnew(
                "item",
                &[
                    ("name", Value::from(name)),
                    ("qty", Value::Int(qty)),
                    ("price", Value::Float(price)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    db
}

#[test]
fn sum_int_and_float() {
    let db = db_with_items();
    let mut tx = db.begin();
    assert_eq!(
        tx.forall("item").unwrap().sum("qty").unwrap(),
        Value::Int(100)
    );
    assert_eq!(
        tx.forall("item").unwrap().sum("price * qty").unwrap(),
        Value::Float(10.0 * 2.5 + 20.0 + 30.0 * 4.0 + 40.0 * 0.5)
    );
    // Filtered sums.
    assert_eq!(
        tx.forall("item")
            .unwrap()
            .suchthat("qty >= 30")
            .unwrap()
            .sum("qty")
            .unwrap(),
        Value::Int(70)
    );
    tx.commit().unwrap();
}

#[test]
fn avg_min_max() {
    let db = db_with_items();
    let mut tx = db.begin();
    assert_eq!(tx.forall("item").unwrap().avg("qty").unwrap(), Some(25.0));
    assert_eq!(
        tx.forall("item").unwrap().min("price").unwrap(),
        Some(Value::Float(0.5))
    );
    assert_eq!(
        tx.forall("item").unwrap().max("qty").unwrap(),
        Some(Value::Int(40))
    );
    // Empty domain.
    assert_eq!(
        tx.forall("item")
            .unwrap()
            .suchthat("qty > 999")
            .unwrap()
            .avg("qty")
            .unwrap(),
        None
    );
    assert_eq!(
        tx.forall("item")
            .unwrap()
            .suchthat("qty > 999")
            .unwrap()
            .min("qty")
            .unwrap(),
        None
    );
    tx.commit().unwrap();
}

#[test]
fn sum_rejects_non_numeric() {
    let db = db_with_items();
    let mut tx = db.begin();
    assert!(tx.forall("item").unwrap().sum("name").is_err());
    tx.commit().unwrap();
}

#[test]
fn closure_filter_composes_with_suchthat() {
    let db = db_with_items();
    let mut tx = db.begin();
    let n = tx
        .forall("item")
        .unwrap()
        .suchthat("qty >= 20")
        .unwrap()
        .filter(|state| {
            // Native predicate: price below 2.0 (fields: name, qty, price).
            matches!(state.fields[2], Value::Float(p) if p < 2.0)
        })
        .count()
        .unwrap();
    assert_eq!(n, 2); // b (20, 1.0) and d (40, 0.5)
    tx.commit().unwrap();
}

#[test]
fn closure_filter_alone() {
    let db = db_with_items();
    let mut tx = db.begin();
    let oids = tx
        .forall("item")
        .unwrap()
        .filter(|s| s.fields[1] >= Value::Int(30))
        .collect_oids()
        .unwrap();
    assert_eq!(oids.len(), 2);
    tx.commit().unwrap();
}

#[test]
fn closure_filter_captures_environment() {
    let db = db_with_items();
    let mut tx = db.begin();
    let threshold = Value::Int(15);
    let mut seen = 0usize;
    tx.forall("item")
        .unwrap()
        .filter(|s| s.fields[1] > threshold)
        .run(|_tx, _oid| {
            seen += 1;
            Ok(())
        })
        .unwrap();
    assert_eq!(seen, 3);
    tx.commit().unwrap();
}

#[test]
fn paper_income_average_via_aggregates() {
    // The §3.1.1 example, restated with aggregates.
    let db = Database::in_memory();
    db.define_from_source(
        r#"
        class person  { string name; int income = 0; }
        class student : public person { }
        class faculty : public person { }
        "#,
    )
    .unwrap();
    for c in ["person", "student", "faculty"] {
        db.create_cluster(c).unwrap();
    }
    db.transaction(|tx| {
        tx.pnew("person", &[("income", Value::Int(100))])?;
        tx.pnew("student", &[("income", Value::Int(20))])?;
        tx.pnew("faculty", &[("income", Value::Int(300))])?;
        Ok(())
    })
    .unwrap();
    let mut tx = db.begin();
    assert_eq!(
        tx.forall("person").unwrap().avg("income").unwrap(),
        Some(140.0)
    );
    assert_eq!(
        tx.forall("student").unwrap().avg("income").unwrap(),
        Some(20.0)
    );
    assert_eq!(
        tx.forall("faculty").unwrap().avg("income").unwrap(),
        Some(300.0)
    );
    tx.commit().unwrap();
}

/// A projection is read with its row, once: a concurrent commit that
/// changes a projected field of a selected row still fails the reader's
/// validation, whether the rows came from a scan or an index probe, and
/// whether the writer wrote the row directly or through a ranged update.
#[test]
fn a_concurrent_write_to_a_projected_field_fails_validation() {
    for (indexed, ranged_writer) in [(false, false), (false, true), (true, false), (true, true)] {
        let db = Database::in_memory();
        db.define_from_source("class usage { int parent; int child; } class log { int n; }")
            .unwrap();
        db.create_cluster("usage").unwrap();
        db.create_cluster("log").unwrap();
        if indexed {
            db.create_index("usage", "parent").unwrap();
        }
        let row = db
            .transaction(|tx| {
                tx.pnew(
                    "usage",
                    &[("parent", Value::Int(4)), ("child", Value::Int(40))],
                )?;
                tx.pnew(
                    "usage",
                    &[("parent", Value::Int(5)), ("child", Value::Int(50))],
                )
            })
            .unwrap();

        let mut reader = db.begin();
        let children = reader
            .forall("usage")
            .unwrap()
            .suchthat("parent == 5")
            .unwrap()
            .collect_values("child")
            .unwrap();
        assert_eq!(children, [Value::Int(50)]);
        // A write of its own, so the commit validates.
        reader.pnew("log", &[("n", Value::Int(1))]).unwrap();

        let mut writer = db.begin();
        if ranged_writer {
            writer
                .execute("update u in usage suchthat (parent == 5) set child = 51")
                .unwrap();
        } else {
            writer.set(row, "child", 51i64).unwrap();
        }
        writer.commit().unwrap();

        let err = reader.commit().unwrap_err();
        assert!(
            matches!(err, OdeError::WriteConflict { .. }),
            "indexed {indexed}, ranged writer {ranged_writer}: {err}"
        );
    }
}
