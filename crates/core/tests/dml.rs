//! Tests for statement-level DML: `pnew`, `update … set`, `delete` — the
//! data-manipulation half of the "single integrated language" surface.

use ode_core::oql::ExecResult;
use ode_core::prelude::*;

fn db() -> Database {
    let db = Database::in_memory();
    db.define_from_source(
        r#"
        class stockitem {
            string name;
            int    quantity = 0;
            int    on_order = 0;
            double price = 1.0;
            constraint: quantity >= 0;
        }
        "#,
    )
    .unwrap();
    db.create_cluster("stockitem").unwrap();
    db
}

#[test]
fn pnew_statement_with_initializers() {
    let db = db();
    let oid = db
        .transaction(|tx| {
            let r =
                tx.execute(r#"pnew stockitem (name = "dram", quantity = 50 + 50, price = 2.5)"#)?;
            match r {
                ExecResult::Created(oid) => Ok(oid),
                other => panic!("expected Created, got {other:?}"),
            }
        })
        .unwrap();
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "name")?, Value::from("dram"));
        assert_eq!(tx.get(oid, "quantity")?, Value::Int(100));
        assert_eq!(tx.get(oid, "price")?, Value::Float(2.5));
        Ok(())
    })
    .unwrap();
}

#[test]
fn pnew_statement_defaults_only() {
    let db = db();
    db.transaction(|tx| {
        assert!(matches!(
            tx.execute("pnew stockitem")?,
            ExecResult::Created(_)
        ));
        assert!(matches!(
            tx.execute("pnew stockitem ()")?,
            ExecResult::Created(_)
        ));
        Ok(())
    })
    .unwrap();
    assert_eq!(db.extent_size("stockitem", true).unwrap(), 2);
}

#[test]
fn update_statement_bulk() {
    let db = db();
    db.transaction(|tx| {
        for i in 0..10i64 {
            tx.pnew(
                "stockitem",
                &[
                    ("name", Value::from(format!("p{i}"))),
                    ("quantity", Value::Int(i)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    let n = db
        .transaction(|tx| {
            match tx.execute(
                "update s in stockitem suchthat (quantity < 5) set on_order = on_order + 100, quantity = quantity + 1",
            )? {
                ExecResult::Updated(n) => Ok(n),
                other => panic!("{other:?}"),
            }
        })
        .unwrap();
    assert_eq!(n, 5);
    db.transaction(|tx| {
        // Each updated object got both assignments.
        assert_eq!(
            tx.forall("stockitem")?
                .suchthat("on_order == 100")?
                .count()?,
            5
        );
        // quantity was bumped: minimum is now 1.
        assert_eq!(
            tx.forall("stockitem")?.min("quantity")?,
            Some(Value::Int(1))
        );
        Ok(())
    })
    .unwrap();
}

#[test]
fn update_sees_pre_assignment_values_left_to_right() {
    let db = db();
    db.transaction(|tx| {
        tx.pnew("stockitem", &[("quantity", Value::Int(7))])?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        // on_order takes the *current* quantity, then quantity is zeroed:
        // left-to-right, like statements in a C++ body.
        tx.execute("update s in stockitem set on_order = quantity, quantity = 0")?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        let rows = tx.query("forall s in stockitem")?;
        let oid = rows.oids()?[0];
        assert_eq!(tx.get(oid, "on_order")?, Value::Int(7));
        assert_eq!(tx.get(oid, "quantity")?, Value::Int(0));
        Ok(())
    })
    .unwrap();
}

#[test]
fn update_respects_constraints() {
    let db = db();
    db.transaction(|tx| {
        tx.pnew("stockitem", &[("quantity", Value::Int(3))])?;
        Ok(())
    })
    .unwrap();
    let err = db
        .transaction(|tx| {
            tx.execute("update s in stockitem set quantity = quantity - 10")?;
            Ok(())
        })
        .unwrap_err();
    assert!(matches!(err, OdeError::ConstraintViolation { .. }), "{err}");
    // Rolled back.
    db.transaction(|tx| {
        assert_eq!(tx.forall("stockitem")?.sum("quantity")?, Value::Int(3));
        Ok(())
    })
    .unwrap();
}

#[test]
fn delete_statement() {
    let db = db();
    db.transaction(|tx| {
        for i in 0..6i64 {
            tx.pnew("stockitem", &[("quantity", Value::Int(i))])?;
        }
        Ok(())
    })
    .unwrap();
    let n = db
        .transaction(|tx| {
            match tx.execute("delete s in stockitem suchthat (quantity % 2 == 0)")? {
                ExecResult::Deleted(n) => Ok(n),
                other => panic!("{other:?}"),
            }
        })
        .unwrap();
    assert_eq!(n, 3);
    assert_eq!(db.extent_size("stockitem", true).unwrap(), 3);
    // Unconditional delete clears the rest.
    db.transaction(|tx| {
        tx.execute("delete s in stockitem")?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.extent_size("stockitem", true).unwrap(), 0);
}

#[test]
fn execute_dispatches_queries_too() {
    let db = db();
    db.transaction(|tx| {
        tx.execute(r#"pnew stockitem (name = "a", quantity = 1)"#)?;
        tx.execute(r#"pnew stockitem (name = "b", quantity = 2)"#)?;
        match tx.execute("forall s in stockitem suchthat (quantity > 1)")? {
            ExecResult::Rows(rows) => assert_eq!(rows.len(), 1),
            other => panic!("{other:?}"),
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn dml_parse_errors() {
    let db = db();
    let mut tx = db.begin();
    assert!(tx.execute("pnew").is_err());
    assert!(tx.execute("pnew ghost_class").is_err());
    assert!(tx.execute("pnew stockitem (name)").is_err());
    assert!(tx.execute("pnew stockitem (name = )").is_err());
    assert!(tx.execute("update s in stockitem").is_err(), "missing set");
    assert!(tx.execute("update s stockitem set a = 1").is_err());
    assert!(tx.execute("delete from stockitem").is_err());
    assert!(tx
        .execute(r#"pnew stockitem (name = "x") trailing"#)
        .is_err());
    tx.commit().unwrap();
}

#[test]
fn dml_with_string_literals_containing_delimiters() {
    let db = db();
    db.transaction(|tx| {
        tx.execute(r#"pnew stockitem (name = "a,b)c", quantity = 1)"#)?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        let n = tx
            .forall("stockitem")?
            .suchthat(r#"name == "a,b)c""#)?
            .count()?;
        assert_eq!(n, 1);
        Ok(())
    })
    .unwrap();
}

/// An assignment sees the names its `suchthat` sees: the loop variable as
/// well as the object's bare members.
#[test]
fn update_assignment_reads_the_loop_variable() {
    let db = db();
    let oid = db
        .transaction(|tx| tx.pnew("stockitem", &[("quantity", Value::Int(3))]))
        .unwrap();
    let n = db
        .transaction(|tx| {
            tx.execute(
                "update s in stockitem suchthat (quantity < 10) \
                 set quantity = s.quantity + 1, on_order = quantity + s.quantity",
            )
        })
        .unwrap();
    assert!(matches!(n, ExecResult::Updated(1)), "{n:?}");
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "quantity")?, Value::Int(4));
        assert_eq!(tx.get(oid, "on_order")?, Value::Int(8));
        Ok(())
    })
    .unwrap();
}
