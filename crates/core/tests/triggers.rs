//! Tests for §6: triggers — activation with arguments, once-only vs.
//! perpetual, end-of-transaction condition evaluation, weak coupling
//! (independent action transactions; aborted transactions fire nothing),
//! explicit deactivation, cascades and the cascade limit, callback
//! actions, and persistence of activations.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ode_core::prelude::*;
use ode_core::OdeError;

/// The paper's active-inventory example: reorder when stock runs low.
fn inventory(db: &Database) {
    db.define_class(
        ClassBuilder::new("stockitem")
            .field("name", Type::Str)
            .field_default("quantity", Type::Int, 100)
            .field_default("reorder_level", Type::Int, 20)
            .field_default("on_order", Type::Int, 0)
            // Once-only trigger, as in §6: fires when quantity drops to the
            // reorder level; action places an order.
            .trigger("reorder", &[], false, "quantity <= reorder_level")
            .action_assign("on_order", "on_order + 100")
            // Perpetual variant with an activation argument.
            .trigger("low_stock", &["threshold"], true, "quantity < $threshold")
            .action_callback("notify"),
    )
    .unwrap();
    db.create_cluster("stockitem").unwrap();
}

#[test]
fn trigger_fires_when_condition_becomes_true_at_commit() {
    let db = Database::in_memory();
    inventory(&db);
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "reorder", vec![])?;
            Ok(oid)
        })
        .unwrap();

    // Condition false: no firing.
    let mut tx = db.begin();
    tx.set(oid, "quantity", 50i64).unwrap();
    let info = tx.commit().unwrap();
    assert!(!info.any_fired());

    // Condition true at commit: fires, and the weak-coupled action ran.
    let mut tx = db.begin();
    tx.set(oid, "quantity", 10i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1);
    assert_eq!(info.fired[0].trigger, "reorder");
    assert!(info.failures.is_empty());
    // The firing's durable event was acknowledged by the action's commit.
    assert!(db.pending_events().is_empty());
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
}

#[test]
fn once_only_trigger_deactivates_after_firing() {
    let db = Database::in_memory();
    inventory(&db);
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "reorder", vec![])?;
            Ok(oid)
        })
        .unwrap();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1);
    // Second qualifying update: trigger is gone.
    let mut tx = db.begin();
    tx.set(oid, "quantity", 1i64).unwrap();
    let info = tx.commit().unwrap();
    assert!(!info.any_fired());
    // Reactivation re-arms it (the paper: "must then be reactivated
    // explicitly if desired").
    db.transaction(|tx| {
        tx.activate_trigger(oid, "reorder", vec![])?;
        Ok(())
    })
    .unwrap();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 2i64).unwrap();
    assert_eq!(tx.commit().unwrap().fired.len(), 1);
}

#[test]
fn perpetual_trigger_rearms() {
    let db = Database::in_memory();
    inventory(&db);
    let fired = Arc::new(AtomicUsize::new(0));
    let fired2 = fired.clone();
    db.register_callback("notify", move |_tx, _oid, _args| {
        fired2.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "low_stock", vec![Value::Int(50)])?;
            Ok(oid)
        })
        .unwrap();
    for qty in [40i64, 30, 20] {
        let mut tx = db.begin();
        tx.set(oid, "quantity", qty).unwrap();
        let info = tx.commit().unwrap();
        assert_eq!(info.fired.len(), 1, "perpetual fires every time");
    }
    assert_eq!(fired.load(Ordering::SeqCst), 3);
}

#[test]
fn activation_arguments_reach_the_condition() {
    let db = Database::in_memory();
    inventory(&db);
    db.register_callback("notify", |_tx, _oid, _args| Ok(()));
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            // threshold = 10: quantity 15 must NOT fire.
            tx.activate_trigger(oid, "low_stock", vec![Value::Int(10)])?;
            Ok(oid)
        })
        .unwrap();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 15i64).unwrap();
    assert!(!tx.commit().unwrap().any_fired());
    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    assert!(tx.commit().unwrap().any_fired());
}

#[test]
fn wrong_arity_activation_rejected() {
    let db = Database::in_memory();
    inventory(&db);
    let mut tx = db.begin();
    let oid = tx
        .pnew("stockitem", &[("name", Value::from("dram"))])
        .unwrap();
    let err = tx.activate_trigger(oid, "low_stock", vec![]).unwrap_err();
    assert!(matches!(err, OdeError::Trigger(_)), "{err}");
    let err = tx.activate_trigger(oid, "ghost", vec![]).unwrap_err();
    assert!(matches!(err, OdeError::Model(_)), "{err}");
    tx.commit().unwrap();
}

#[test]
fn aborted_transaction_fires_nothing() {
    // §6: "If the triggering transaction is aborted, the trigger actions
    // generated by it are aborted."
    let db = Database::in_memory();
    inventory(&db);
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "reorder", vec![])?;
            Ok(oid)
        })
        .unwrap();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 1i64).unwrap();
    tx.abort();
    // Action never ran; trigger still armed.
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(0));
    assert_eq!(tx.active_triggers(oid).len(), 1);
}

#[test]
fn explicit_deactivation_prevents_firing() {
    let db = Database::in_memory();
    inventory(&db);
    let (oid, tid) = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            let tid = tx.activate_trigger(oid, "reorder", vec![])?;
            Ok((oid, tid))
        })
        .unwrap();
    db.transaction(|tx| tx.deactivate_trigger(tid)).unwrap();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 1i64).unwrap();
    assert!(!tx.commit().unwrap().any_fired());
    // Deactivating twice errors.
    let mut tx = db.begin();
    assert!(tx.deactivate_trigger(tid).is_err());
    tx.commit().unwrap();
}

#[test]
fn deactivation_in_same_transaction_as_activation() {
    let db = Database::in_memory();
    inventory(&db);
    db.transaction(|tx| {
        let oid = tx.pnew(
            "stockitem",
            &[("name", Value::from("dram")), ("quantity", Value::Int(1))],
        )?;
        let tid = tx.activate_trigger(oid, "reorder", vec![])?;
        tx.deactivate_trigger(tid)?;
        Ok(())
    })
    .unwrap();
    // Nothing fired, nothing persisted.
    let db2 = db;
    let mut tx = db2.begin();
    let oids = tx.forall("stockitem").unwrap().collect_oids().unwrap();
    assert_eq!(tx.active_triggers(oids[0]).len(), 0);
    tx.commit().unwrap();
}

#[test]
fn activation_in_creating_transaction_can_fire_immediately() {
    // Activate + make the condition true in the same transaction: fires at
    // that commit.
    let db = Database::in_memory();
    inventory(&db);
    let mut tx = db.begin();
    let oid = tx
        .pnew(
            "stockitem",
            &[("name", Value::from("dram")), ("quantity", Value::Int(1))],
        )
        .unwrap();
    tx.activate_trigger(oid, "reorder", vec![]).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1);
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
    // Once-only + fired at birth: not persisted as active.
    assert_eq!(tx.active_triggers(oid).len(), 0);
}

#[test]
fn trigger_cascade_chains_and_limit() {
    // A perpetual trigger whose action keeps re-satisfying its own
    // condition must hit the cascade limit, reported as failures (weak
    // coupling: the commit itself succeeded).
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("counter")
            .field_default("n", Type::Int, 0)
            .trigger("bump", &[], true, "n >= 0") // always true
            .action_assign("n", "n + 1"),
    )
    .unwrap();
    db.create_cluster("counter").unwrap();
    let mut tx = db.begin();
    let oid = tx.pnew("counter", &[]).unwrap();
    tx.activate_trigger(oid, "bump", vec![]).unwrap();
    let info = tx.commit().unwrap();
    assert!(
        !info.failures.is_empty(),
        "runaway cascade must be reported"
    );
    assert!(info
        .failures
        .iter()
        .any(|f| matches!(f.error, OdeError::TriggerCascade { .. })));
    // The cascade made real progress before the limit.
    let tx = db.begin();
    assert!(tx.get(oid, "n").unwrap().as_int().unwrap() > 0);
}

#[test]
fn bounded_cascade_terminates_cleanly() {
    // Action increments until the condition goes false: a well-behaved
    // cascade.
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("counter")
            .field_default("n", Type::Int, 0)
            .trigger("bump", &[], true, "n < 5")
            .action_assign("n", "n + 1"),
    )
    .unwrap();
    db.create_cluster("counter").unwrap();
    let mut tx = db.begin();
    let oid = tx.pnew("counter", &[]).unwrap();
    tx.activate_trigger(oid, "bump", vec![]).unwrap();
    tx.set(oid, "n", 1i64).unwrap();
    let info = tx.commit().unwrap();
    assert!(info.failures.is_empty());
    assert_eq!(info.fired.len(), 4); // n: 1→2→3→4→5, condition false at 5
    let tx = db.begin();
    assert_eq!(tx.get(oid, "n").unwrap(), Value::Int(5));
}

#[test]
fn callback_actions_run_in_independent_transactions() {
    let db = Database::in_memory();
    inventory(&db);
    db.register_callback("notify", |tx, oid, _args| {
        // The action sees the committed post-state and may write more —
        // here it restocks, which also quenches the (perpetual) condition.
        let qty = tx.get(oid, "quantity")?.as_int()?;
        tx.update(oid, |w| {
            w.set("on_order", qty * 2)?;
            w.set("quantity", 100i64)?;
            Ok(())
        })?;
        Ok(())
    });
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "low_stock", vec![Value::Int(50)])?;
            Ok(oid)
        })
        .unwrap();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 10i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1);
    assert!(info.failures.is_empty());
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(20));
    assert_eq!(tx.get(oid, "quantity").unwrap(), Value::Int(100));
}

#[test]
fn missing_callback_is_reported_not_fatal() {
    let db = Database::in_memory();
    inventory(&db);
    // "notify" never registered.
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "low_stock", vec![Value::Int(50)])?;
            Ok(oid)
        })
        .unwrap();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 10i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1);
    assert_eq!(info.failures.len(), 1);
    assert!(matches!(info.failures[0].error, OdeError::Trigger(_)));
}

#[test]
fn deleting_the_object_drops_its_activations() {
    let db = Database::in_memory();
    inventory(&db);
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "reorder", vec![])?;
            Ok(oid)
        })
        .unwrap();
    db.transaction(|tx| tx.pdelete(oid)).unwrap();
    let tx = db.begin();
    assert!(tx.active_triggers(oid).is_empty());
}

#[test]
fn activations_survive_reopen() {
    let dir = std::env::temp_dir().join(format!("ode-core-trigreopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let oid;
    {
        let db = Database::open(&dir).unwrap();
        inventory(&db);
        oid = db
            .transaction(|tx| {
                let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
                tx.activate_trigger(oid, "reorder", vec![])?;
                Ok(oid)
            })
            .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        let tx = db.begin();
        assert_eq!(tx.active_triggers(oid).len(), 1);
        drop(tx);
        // And it still fires.
        let mut tx = db.begin();
        tx.set(oid, "quantity", 1i64).unwrap();
        let info = tx.commit().unwrap();
        assert_eq!(info.fired.len(), 1);
        let tx = db.begin();
        assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn triggers_only_evaluate_for_written_objects() {
    // An untouched object's trigger must not fire even if its condition is
    // true (conditions are only *re*-evaluated when the subject changes —
    // observationally equivalent to the paper's end-of-transaction rule,
    // since an unwritten subject's condition value cannot have changed).
    let db = Database::in_memory();
    inventory(&db);
    let (low, other) = db
        .transaction(|tx| {
            let low = tx.pnew(
                "stockitem",
                &[("name", Value::from("low")), ("quantity", Value::Int(50))],
            )?;
            let other = tx.pnew("stockitem", &[("name", Value::from("other"))])?;
            Ok((low, other))
        })
        .unwrap();
    db.transaction(|tx| {
        tx.activate_trigger(low, "reorder", vec![])?;
        Ok(())
    })
    .unwrap();
    // Write only `other`; low's condition is false anyway.
    let mut tx = db.begin();
    tx.set(other, "quantity", 99i64).unwrap();
    assert!(!tx.commit().unwrap().any_fired());
    // Now write `low` so its condition becomes true.
    let mut tx = db.begin();
    tx.set(low, "quantity", 10i64).unwrap();
    assert_eq!(tx.commit().unwrap().fired.len(), 1);
}

#[test]
fn trigger_on_derived_class_object_uses_inherited_declaration() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("item")
            .field_default("qty", Type::Int, 100)
            .trigger("low", &[], false, "qty < 10")
            .action_assign("qty", "qty + 50"),
    )
    .unwrap();
    db.define_class(
        ClassBuilder::new("special")
            .base("item")
            .field("tag", Type::Str),
    )
    .unwrap();
    db.create_cluster("item").unwrap();
    db.create_cluster("special").unwrap();
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("special", &[("tag", Value::from("s"))])?;
            tx.activate_trigger(oid, "low", vec![])?;
            Ok(oid)
        })
        .unwrap();
    let mut tx = db.begin();
    tx.set(oid, "qty", 5i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1);
    let tx = db.begin();
    assert_eq!(tx.get(oid, "qty").unwrap(), Value::Int(55));
}
