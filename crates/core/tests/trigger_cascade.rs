//! Cross-object trigger cascades: an action transaction writing *another*
//! object must evaluate that object's activations at its own commit (§6's
//! end-of-transaction rule applies to every transaction, including
//! weak-coupled action transactions).

use ode_core::prelude::*;

/// A two-stage production line: consuming widgets triggers a restock
/// order; the order's arrival (modelled by the restock callback writing
/// the warehouse) triggers a warehouse audit.
fn setup() -> (Database, Oid, Oid) {
    let db = Database::in_memory();
    db.define_from_source(
        r#"
        class widget_bin {
            int level = 100;
            int ordered = 0;
            trigger low() : level < 10 {
                call restock;
            }
        }
        class warehouse {
            int stock = 1000;
            int audits = 0;
            trigger audit() : stock < 950 {
                audits = audits + 1;
            }
        }
        "#,
    )
    .unwrap();
    db.create_cluster("widget_bin").unwrap();
    db.create_cluster("warehouse").unwrap();
    let (bin, wh) = db
        .transaction(|tx| {
            let bin = tx.pnew("widget_bin", &[])?;
            let wh = tx.pnew("warehouse", &[])?;
            tx.activate_trigger(bin, "low", vec![])?;
            tx.activate_trigger(wh, "audit", vec![])?;
            Ok((bin, wh))
        })
        .unwrap();
    (db, bin, wh)
}

#[test]
fn action_on_a_fires_trigger_on_b() {
    let (db, bin, wh) = setup();
    // The restock callback moves 100 units from the warehouse to the bin.
    db.register_callback("restock", move |tx, bin_oid, _args| {
        let level = tx.get(bin_oid, "level")?.as_int()?;
        tx.update(bin_oid, |w| {
            w.set("level", level + 100)?;
            let o = w.get("ordered")?.as_int()?;
            w.set("ordered", o + 1)
        })?;
        // Writing the *warehouse* makes its audit trigger eligible at this
        // action transaction's commit.
        let stock = tx.get(wh, "stock")?.as_int()?;
        tx.set(wh, "stock", stock - 100)?;
        Ok(())
    });

    // Drain the bin: bin.low fires; its action writes the warehouse, whose
    // audit trigger (stock 900 < 950) fires in cascade.
    let mut tx = db.begin();
    tx.set(bin, "level", 5i64).unwrap();
    let info = tx.commit().unwrap();
    let fired: Vec<&str> = info.fired.iter().map(|f| f.trigger.as_str()).collect();
    assert_eq!(fired, vec!["low", "audit"], "cross-object cascade order");
    assert!(info.failures.is_empty());

    db.transaction(|tx| {
        assert_eq!(tx.get(bin, "level")?, Value::Int(105));
        assert_eq!(tx.get(bin, "ordered")?, Value::Int(1));
        assert_eq!(tx.get(wh, "stock")?, Value::Int(900));
        assert_eq!(tx.get(wh, "audits")?, Value::Int(1));
        Ok(())
    })
    .unwrap();

    // Both triggers were once-only: they are spent now.
    let tx = db.begin();
    assert!(tx.active_triggers(bin).is_empty());
    assert!(tx.active_triggers(wh).is_empty());
}

#[test]
fn cascade_depth_counts_chained_objects() {
    // A chain of N relay objects, each once-only trigger poking the next:
    // the whole chain runs within the cascade limit and fires in order.
    let db = Database::in_memory();
    db.define_from_source(
        r#"
        class relay {
            int n = 0;
            int hot = 0;
            ref<relay> next;
            trigger fire() : hot == 1 {
                call pass_on;
            }
        }
        "#,
    )
    .unwrap();
    db.create_cluster("relay").unwrap();
    db.register_callback("pass_on", |tx, oid, _args| {
        let next = tx.get(oid, "next")?;
        if let Value::Ref(next) = next {
            tx.set(next, "hot", 1i64)?;
        }
        Ok(())
    });
    const N: usize = 10;
    let oids = db
        .transaction(|tx| {
            let mut oids = Vec::new();
            let mut next: Option<Oid> = None;
            for i in (0..N).rev() {
                let mut inits = vec![("n", Value::Int(i as i64))];
                if let Some(nx) = next {
                    inits.push(("next", Value::Ref(nx)));
                }
                let oid = tx.pnew("relay", &inits)?;
                tx.activate_trigger(oid, "fire", vec![])?;
                next = Some(oid);
                oids.push(oid);
            }
            oids.reverse(); // oids[0] is the head
            Ok(oids)
        })
        .unwrap();

    let mut tx = db.begin();
    tx.set(oids[0], "hot", 1i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), N, "every relay fired once");
    assert!(info.failures.is_empty());
    // All relays are hot at the end.
    db.transaction(|tx| {
        for &oid in &oids {
            assert_eq!(tx.get(oid, "hot")?, Value::Int(1));
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn chain_longer_than_cascade_limit_is_cut_and_reported() {
    let db = ode_core::Database::from_store(
        std::sync::Arc::new(ode_storage::MemStore::new()),
        DbConfig {
            trigger_cascade_limit: 4,
            ..DbConfig::default()
        },
    )
    .unwrap();
    db.define_from_source(
        r#"
        class relay {
            int hot = 0;
            ref<relay> next;
            trigger fire() : hot == 1 { call pass_on; }
        }
        "#,
    )
    .unwrap();
    db.create_cluster("relay").unwrap();
    db.register_callback("pass_on", |tx, oid, _args| {
        if let Value::Ref(next) = tx.get(oid, "next")? {
            tx.set(next, "hot", 1i64)?;
        }
        Ok(())
    });
    let oids = db
        .transaction(|tx| {
            let mut next: Option<Oid> = None;
            let mut oids = Vec::new();
            for _ in 0..10 {
                let mut inits = Vec::new();
                if let Some(nx) = next {
                    inits.push(("next", Value::Ref(nx)));
                }
                let oid = tx.pnew("relay", &inits)?;
                tx.activate_trigger(oid, "fire", vec![])?;
                next = Some(oid);
                oids.push(oid);
            }
            oids.reverse();
            Ok(oids)
        })
        .unwrap();
    let mut tx = db.begin();
    tx.set(oids[0], "hot", 1i64).unwrap();
    let info = tx.commit().unwrap();
    assert!(
        info.fired.len() < 10,
        "the chain must be cut by the limit (fired {})",
        info.fired.len()
    );
    assert!(
        info.failures
            .iter()
            .any(|f| matches!(f.error, OdeError::TriggerCascade { limit: 4 })),
        "the cut is reported with the limit"
    );
    // The cut event was acknowledged, not left to replay.
    assert!(db.pending_events().is_empty());
}
