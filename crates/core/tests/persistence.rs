//! Engine tests for §2 of the paper: persistent objects, object identity,
//! clusters, the dual volatile/persistent store, and transaction
//! atomicity/durability.

use ode_core::prelude::*;
use ode_core::{ExecResult, OdeError};

/// The paper's running example (§2.3): the stockitem class.
fn define_stockitem(db: &Database) {
    db.define_class(
        ClassBuilder::new("stockitem")
            .field("name", Type::Str)
            .field_default("allowance", Type::Float, 0.0)
            .field_default("quantity", Type::Int, 0)
            .field_default("max_quantity", Type::Int, 0)
            .field_default("price", Type::Float, 0.0)
            .field_default("reorder_level", Type::Int, 0)
            .field("supplier", Type::Str)
            .field("supplier_address", Type::Str),
    )
    .unwrap();
}

/// §2.4: `sip = pnew stockitem("512 dram", 0.05, 7500, 15000, 5.00, 15, …)`.
fn new_dram(tx: &mut Transaction) -> Oid {
    tx.pnew(
        "stockitem",
        &[
            ("name", Value::from("512 dram")),
            ("allowance", Value::Float(0.05)),
            ("quantity", Value::Int(7500)),
            ("max_quantity", Value::Int(15000)),
            ("price", Value::Float(5.00)),
            ("reorder_level", Value::Int(15)),
            ("supplier", Value::from("at&t")),
            ("supplier_address", Value::from("berkeley hts, nj")),
        ],
    )
    .unwrap()
}

#[test]
fn pnew_requires_cluster() {
    // §2.5: "Before creating a persistent object, the corresponding
    // cluster must exist."
    let db = Database::in_memory();
    define_stockitem(&db);
    let mut tx = db.begin();
    let err = tx.pnew("stockitem", &[]).unwrap_err();
    assert!(matches!(err, OdeError::NoSuchCluster(_)), "{err}");
}

#[test]
fn create_cluster_is_idempotent() {
    let db = Database::in_memory();
    define_stockitem(&db);
    let a = db.create_cluster("stockitem").unwrap();
    let b = db.create_cluster("stockitem").unwrap();
    assert_eq!(a, b);
    assert!(db.has_cluster("stockitem"));
    assert!(!db.has_cluster_checked("ghost"));
}

trait HasClusterChecked {
    fn has_cluster_checked(&self, name: &str) -> bool;
}

impl HasClusterChecked for Database {
    fn has_cluster_checked(&self, name: &str) -> bool {
        self.has_cluster(name)
    }
}

#[test]
fn pnew_read_roundtrip_with_defaults_and_inits() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    db.transaction(|tx| {
        let oid = new_dram(tx);
        assert_eq!(tx.get(oid, "name")?, Value::from("512 dram"));
        assert_eq!(tx.get(oid, "quantity")?, Value::Int(7500));
        Ok(())
    })
    .unwrap();
}

#[test]
fn oid_is_stable_identity_across_transactions() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    let oid = db.transaction(|tx| Ok(new_dram(tx))).unwrap();
    db.transaction(|tx| {
        tx.set(oid, "quantity", 6000i64)?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "quantity")?, Value::Int(6000));
        assert_eq!(tx.get(oid, "name")?, Value::from("512 dram"));
        Ok(())
    })
    .unwrap();
}

#[test]
fn read_your_writes_within_transaction() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    db.transaction(|tx| {
        let oid = new_dram(tx);
        tx.set(oid, "quantity", 1i64)?;
        assert_eq!(tx.get(oid, "quantity")?, Value::Int(1));
        tx.set(oid, "quantity", 2i64)?;
        assert_eq!(tx.get(oid, "quantity")?, Value::Int(2));
        Ok(())
    })
    .unwrap();
}

#[test]
fn abort_discards_everything() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    let keeper = db.transaction(|tx| Ok(new_dram(tx))).unwrap();

    // Abort a transaction that created an object and modified another.
    let mut tx = db.begin();
    let doomed = new_dram(&mut tx);
    tx.set(keeper, "quantity", 1i64).unwrap();
    tx.abort();

    let mut tx = db.begin();
    assert!(!tx.exists(doomed));
    assert_eq!(tx.get(keeper, "quantity").unwrap(), Value::Int(7500));
    // The cluster still holds exactly one object.
    assert_eq!(tx.forall("stockitem").unwrap().count().unwrap(), 1);
    tx.commit().unwrap();
}

#[test]
fn dropping_a_transaction_aborts_it() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    {
        let mut tx = db.begin();
        let _ = new_dram(&mut tx);
        // No commit: dropped here.
    }
    assert_eq!(db.extent_size("stockitem", true).unwrap(), 0);
}

#[test]
fn pdelete_removes_and_makes_refs_dangle() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    let oid = db.transaction(|tx| Ok(new_dram(tx))).unwrap();
    db.transaction(|tx| tx.pdelete(oid)).unwrap();
    let tx = db.begin();
    assert!(!tx.exists(oid));
    assert!(matches!(tx.read(oid), Err(OdeError::NoSuchObject(_))));
}

#[test]
fn pdelete_of_object_created_in_same_txn() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    db.transaction(|tx| {
        let oid = new_dram(tx);
        tx.pdelete(oid)?;
        assert!(!tx.exists(oid));
        Ok(())
    })
    .unwrap();
    assert_eq!(db.extent_size("stockitem", true).unwrap(), 0);
}

#[test]
fn double_delete_is_an_error() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    let oid = db.transaction(|tx| Ok(new_dram(tx))).unwrap();
    db.transaction(|tx| {
        tx.pdelete(oid)?;
        assert!(tx.pdelete(oid).is_err());
        Ok(())
    })
    .unwrap();
}

#[test]
fn field_type_checking_on_assignment() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    let mut tx = db.begin();
    let oid = new_dram(&mut tx);
    // int into a string field: rejected, transaction still usable (type
    // errors are not constraint violations).
    assert!(tx.set(oid, "name", 42i64).is_err());
    assert!(tx.set(oid, "ghost_field", 1i64).is_err());
    tx.set(oid, "name", "1 meg dram").unwrap();
    tx.commit().unwrap();
}

#[test]
fn objects_of_multiple_classes_live_in_their_own_clusters() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.define_class(ClassBuilder::new("supplier").field("name", Type::Str))
        .unwrap();
    db.create_cluster("stockitem").unwrap();
    db.create_cluster("supplier").unwrap();
    db.transaction(|tx| {
        new_dram(tx);
        new_dram(tx);
        tx.pnew("supplier", &[("name", Value::from("at&t"))])?;
        Ok(())
    })
    .unwrap();
    assert_eq!(db.extent_size("stockitem", true).unwrap(), 2);
    assert_eq!(db.extent_size("supplier", true).unwrap(), 1);
}

#[test]
fn references_between_objects_deref_through_transactions() {
    let db = Database::in_memory();
    db.define_class(ClassBuilder::new("dept").field("dname", Type::Str))
        .unwrap();
    db.define_class(
        ClassBuilder::new("employee")
            .field("ename", Type::Str)
            .field("dept", Type::Ref("dept".into())),
    )
    .unwrap();
    db.create_cluster("dept").unwrap();
    db.create_cluster("employee").unwrap();
    let (e, d) = db
        .transaction(|tx| {
            let d = tx.pnew("dept", &[("dname", Value::from("research"))])?;
            let e = tx.pnew(
                "employee",
                &[("ename", Value::from("ritchie")), ("dept", Value::Ref(d))],
            )?;
            Ok((e, d))
        })
        .unwrap();
    let tx = db.begin();
    let dept_ref = tx.get(e, "dept").unwrap();
    assert_eq!(dept_ref, Value::Ref(d));
    let doid = dept_ref.as_ref_oid().unwrap();
    assert_eq!(tx.get(doid, "dname").unwrap(), Value::from("research"));
}

#[test]
fn durability_across_reopen() {
    let dir = std::env::temp_dir().join(format!("ode-core-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let oid;
    {
        let db = Database::open(&dir).unwrap();
        define_stockitem(&db);
        db.create_cluster("stockitem").unwrap();
        oid = db.transaction(|tx| Ok(new_dram(tx))).unwrap();
        db.transaction(|tx| tx.set(oid, "quantity", 9999i64))
            .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        let tx = db.begin();
        assert_eq!(tx.get(oid, "quantity").unwrap(), Value::Int(9999));
        assert_eq!(tx.get(oid, "name").unwrap(), Value::from("512 dram"));
        drop(tx);
        assert_eq!(db.extent_size("stockitem", true).unwrap(), 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Older stores kept workload counters in a catalog record of kind 5. A
/// store holding one still opens: replay passes over the record and
/// everything around it comes back.
#[test]
fn retired_stats_record_replays_past() {
    use ode_core::catalog::CATALOG_HEAP;
    use ode_model::encode::{write_value, Writer};
    use ode_storage::{FileStore, Store, StoreOp};

    let dir = std::env::temp_dir().join(format!("ode-core-retired-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let oid;
    {
        let db = Database::open(&dir).unwrap();
        define_stockitem(&db);
        db.create_cluster("stockitem").unwrap();
        oid = db.transaction(|tx| Ok(new_dram(tx))).unwrap();
    }
    {
        // The record as the older engine encoded it: the kind byte, a row
        // count, then (key, reads, writes, scans) per row.
        let mut w = Writer::new();
        write_value(&mut w, &Value::Int(1));
        write_value(&mut w, &Value::from("cluster:stockitem"));
        for n in [10, 1, 2] {
            write_value(&mut w, &Value::Int(n));
        }
        let mut data = vec![5u8];
        data.extend_from_slice(&w.finish());
        let store = FileStore::open(&dir).unwrap();
        let rid = store.reserve(CATALOG_HEAP, data.len()).unwrap();
        let heap = CATALOG_HEAP;
        store
            .commit(vec![StoreOp::Put { heap, rid, data }])
            .unwrap();
        store.checkpoint().unwrap();
    }
    for _ in 0..2 {
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.extent_size("stockitem", true).unwrap(), 1);
        let tx = db.begin();
        assert_eq!(tx.get(oid, "name").unwrap(), Value::from("512 dram"));
        drop(tx);
        // New catalog records land after the retired one and replay too.
        db.create_index("stockitem", "quantity").unwrap();
        db.checkpoint().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A record over the storage limit fails its whole commit, on either
/// store: the store refuses the batch before logging it, so no write of
/// the transaction is visible, and a crash leaves nothing that replay
/// would trip on.
#[test]
fn an_oversized_record_fails_its_whole_commit() {
    fn rows(db: &Database) -> usize {
        let done = db.execute("forall d in doc").unwrap();
        let ExecResult::Rows(rows) = &done.result else {
            panic!("forall returns rows");
        };
        rows.rows.len()
    }
    fn fails_whole(db: &Database) {
        db.define_from_source("class doc { string body; }").unwrap();
        db.create_cluster("doc").unwrap();
        let mut tx = db.begin();
        tx.pnew("doc", &[("body", Value::from("small"))]).unwrap();
        tx.pnew("doc", &[("body", Value::from("x".repeat(9_000)))])
            .unwrap();
        let err = tx.commit().unwrap_err();
        assert!(!err.is_unavailable(), "not transient: {err}");
        assert_eq!(rows(db), 0, "no write of the failed commit is visible");
    }

    fails_whole(&Database::in_memory());

    let dir = std::env::temp_dir().join(format!("ode-core-oversized-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    fails_whole(&db);
    std::mem::forget(db); // crash: no close-path checkpoint
    let db = Database::open(&dir).expect("reopen after the failed commit");
    assert_eq!(rows(&db), 0);
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atomic_multi_object_commit() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    let (a, b) = db
        .transaction(|tx| {
            let a = new_dram(tx);
            let b = new_dram(tx);
            tx.set(a, "quantity", 1i64)?;
            tx.set(b, "quantity", 2i64)?;
            Ok((a, b))
        })
        .unwrap();
    let tx = db.begin();
    assert_eq!(tx.get(a, "quantity").unwrap(), Value::Int(1));
    assert_eq!(tx.get(b, "quantity").unwrap(), Value::Int(2));
}

#[test]
fn update_closure_is_atomic_on_error() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    let oid = db.transaction(|tx| Ok(new_dram(tx))).unwrap();
    let mut tx = db.begin();
    let err = tx.update(oid, |w| {
        w.set("quantity", 1i64)?;
        w.set("nonexistent", 2i64)?; // fails
        Ok(())
    });
    assert!(err.is_err());
    // The first assignment must not have leaked through.
    assert_eq!(tx.get(oid, "quantity").unwrap(), Value::Int(7500));
}

#[test]
fn methods_are_usable_through_transactions() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    db.register_method("stockitem", "stock_value", |state, _args| {
        // price * quantity — classic member function.
        let price = state.fields[4].as_float()?;
        let qty = state.fields[2].as_int()? as f64;
        Ok(Value::Float(price * qty))
    })
    .unwrap();
    let oid = db.transaction(|tx| Ok(new_dram(tx))).unwrap();
    let tx = db.begin();
    assert_eq!(
        tx.call(oid, "stock_value", &[]).unwrap(),
        Value::Float(5.0 * 7500.0)
    );
}

#[test]
fn typed_layer_roundtrip() {
    use ode_core::typed::OdeInstance;

    struct Item {
        name: String,
        quantity: i64,
    }

    impl OdeInstance for Item {
        fn class_name() -> &'static str {
            "stockitem"
        }
        fn to_fields(&self) -> Vec<(&'static str, Value)> {
            vec![
                ("name", Value::from(self.name.as_str())),
                ("quantity", Value::Int(self.quantity)),
            ]
        }
        fn from_fields(get: &dyn Fn(&str) -> Option<Value>) -> ode_core::Result<Self> {
            Ok(Item {
                name: get("name")
                    .and_then(|v| v.as_str().ok().map(String::from))
                    .unwrap_or_default(),
                quantity: get("quantity").and_then(|v| v.as_int().ok()).unwrap_or(0),
            })
        }
    }

    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    let p = db
        .transaction(|tx| {
            tx.pnew_typed(&Item {
                name: "1 meg dram".into(),
                quantity: 42,
            })
        })
        .unwrap();
    let item = db.transaction(|tx| tx.fetch(p)).unwrap();
    assert_eq!(item.name, "1 meg dram");
    assert_eq!(item.quantity, 42);
    db.transaction(|tx| {
        tx.store_typed(
            p,
            &Item {
                name: "1 meg dram".into(),
                quantity: 64,
            },
        )
    })
    .unwrap();
    let item = db.transaction(|tx| tx.fetch(p)).unwrap();
    assert_eq!(item.quantity, 64);
}

#[test]
fn many_objects_scale_past_a_single_page() {
    let db = Database::in_memory();
    define_stockitem(&db);
    db.create_cluster("stockitem").unwrap();
    db.transaction(|tx| {
        for i in 0..2000 {
            tx.pnew(
                "stockitem",
                &[
                    ("name", Value::from(format!("part-{i}"))),
                    ("quantity", Value::Int(i)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(db.extent_size("stockitem", true).unwrap(), 2000);
}
