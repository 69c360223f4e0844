//! Integration tests for the decoupled trigger scheduler: decoupled
//! firing, exactly-once delivery across a simulated crash, trigger storms,
//! suspend/resume, dead-lettering with auto-suspension, timed (delayed)
//! firing, cascades through the queue, live subscriptions, and the one
//! backlog the engine and the scheduler share (inline commits drain what a
//! reopen or a detach left ready; every event is counted once).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ode_core::prelude::*;
use ode_sched::{SchedConfig, Scheduler, SubMatch, FAIL_SUSPEND_THRESHOLD};

/// The paper's active-inventory schema (§6), same shape as the core
/// trigger tests: a once-only reorder trigger and a perpetual callback
/// trigger.
fn inventory(db: &Database) {
    db.define_class(
        ClassBuilder::new("stockitem")
            .field("name", Type::Str)
            .field_default("quantity", Type::Int, 100)
            .field_default("reorder_level", Type::Int, 20)
            .field_default("on_order", Type::Int, 0)
            .trigger("reorder", &[], false, "quantity <= reorder_level")
            .action_assign("on_order", "on_order + 100")
            .trigger("low_stock", &["threshold"], true, "quantity < $threshold")
            .action_callback("notify"),
    )
    .unwrap();
    db.create_cluster("stockitem").unwrap();
}

fn new_item(db: &Database, name: &str) -> Oid {
    db.transaction(|tx| {
        let oid = tx.pnew("stockitem", &[("name", Value::from(name))])?;
        tx.activate_trigger(oid, "reorder", vec![])?;
        Ok(oid)
    })
    .unwrap()
}

fn manual_sched(db: &Arc<Database>) -> Arc<Scheduler> {
    Scheduler::attach(Arc::clone(db), SchedConfig { workers: 0 })
}

/// After a settle every event the engine made pending left it exactly
/// once: drained by its action's commit, or dead-lettered.
fn assert_counted_once(db: &Database) {
    let tel = db.sched_telemetry();
    let (enqueued, drained, dead) = (
        tel.enqueued.get(),
        tel.drained.get(),
        tel.dead_letters.get(),
    );
    assert_eq!(
        enqueued,
        drained + dead,
        "enqueued {enqueued} != drained {drained} + dead letters {dead}"
    );
}

fn on_order(db: &Database, oid: Oid) -> Value {
    db.begin().get(oid, "on_order").unwrap()
}

#[test]
fn commit_enqueues_instead_of_running_inline() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = new_item(&db, "dram");
    let sched = Scheduler::attach(Arc::clone(&db), SchedConfig::default());

    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    let info = tx.commit().unwrap();
    // Decoupled: nothing ran inline, the firing was handed to the queue.
    assert!(info.fired.is_empty());
    assert_eq!(info.enqueued.len(), 1);
    assert_eq!(info.enqueued[0].trigger, "reorder");

    assert!(sched.wait_idle(Duration::from_secs(10)));
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
    drop(tx);
    // The durable event was acknowledged by the action's own commit.
    assert!(db.pending_events().is_empty());
    assert_eq!(db.sched_telemetry().drained.get(), 1);
    assert_counted_once(&db);
}

#[test]
fn detach_restores_inline_firing() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = new_item(&db, "dram");
    let sched = Scheduler::attach(Arc::clone(&db), SchedConfig::default());
    drop(sched);

    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.fired.len(), 1, "inline again after detach");
    assert!(info.enqueued.is_empty());
    // Inline firings are counted like scheduled ones.
    let tel = db.sched_telemetry();
    assert_eq!((tel.enqueued.get(), tel.drained.get()), (1, 1));
    assert_counted_once(&db);
}

#[test]
fn crash_between_commit_and_drain_is_exactly_once() {
    // Satellite 3: a commit enqueues durably; the process dies before the
    // scheduler drains; on reopen the action runs exactly once — neither
    // lost nor doubled.
    let dir = std::env::temp_dir().join(format!("ode-sched-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let oid;
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        inventory(&db);
        oid = new_item(&db, "dram");
        // workers: 0 — the queue exists but nothing drains it, so dropping
        // everything here is exactly a crash between commit and drain.
        let sched = manual_sched(&db);
        let mut tx = db.begin();
        tx.set(oid, "quantity", 5i64).unwrap();
        let info = tx.commit().unwrap();
        assert_eq!(info.enqueued.len(), 1);
        assert_eq!(db.pending_events().len(), 1);
        drop(sched);
        // "Crash": db dropped with the event still pending.
    }
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        // Not lost: recovery resurrected the pending event, action not run.
        assert_eq!(db.pending_events().len(), 1);
        let tx = db.begin();
        assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(0));
        drop(tx);
        let sched = manual_sched(&db);
        sched.drain_now();
        let tx = db.begin();
        assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
        drop(tx);
        assert!(db.pending_events().is_empty());
        // Not doubled: draining again is a no-op.
        sched.drain_now();
        let tx = db.begin();
        assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
        drop(tx);
        // The recovered backlog counts as enqueued exactly once.
        let tel = db.sched_telemetry();
        assert_eq!((tel.enqueued.get(), tel.drained.get()), (1, 1));
        assert_counted_once(&db);
    }
    {
        // And a third open finds a clean queue: the ack was durable too.
        let db = Arc::new(Database::open(&dir).unwrap());
        assert!(db.pending_events().is_empty());
        let sched = manual_sched(&db);
        sched.drain_now();
        let tx = db.begin();
        assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
        // The once-only activation was consumed by the original commit.
        assert!(tx.active_triggers(oid).is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trigger_storm_runs_every_action() {
    // A batch commit arming many triggers at once: the commit returns
    // promptly (everything queued) and every action eventually runs.
    let n: usize = std::env::var("ODE_STORM_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oids: Vec<Oid> = db
        .transaction(|tx| {
            (0..n)
                .map(|i| {
                    let oid = tx.pnew("stockitem", &[("name", Value::from(format!("it{i}")))])?;
                    tx.activate_trigger(oid, "reorder", vec![])?;
                    Ok(oid)
                })
                .collect()
        })
        .unwrap();
    let sched = Scheduler::attach(Arc::clone(&db), SchedConfig { workers: 4 });
    let mut tx = db.begin();
    for &oid in &oids {
        tx.set(oid, "quantity", 1i64).unwrap();
    }
    let info = tx.commit().unwrap();
    assert_eq!(info.enqueued.len(), n);

    assert!(sched.wait_idle(Duration::from_secs(120)), "storm drained");
    assert_eq!(db.sched_telemetry().enqueued.get() as usize, n);
    assert_eq!(db.sched_telemetry().drained.get() as usize, n);
    assert_counted_once(&db);
    assert!(db.pending_events().is_empty());
    let tx = db.begin();
    for &oid in oids.iter().step_by((n / 50).max(1)) {
        assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
    }
    drop(tx);
    assert!(sched.dead_letters().is_empty());
}

#[test]
fn suspend_parks_and_resume_replays() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = new_item(&db, "dram");
    let sched = manual_sched(&db);
    sched.suspend("reorder");

    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    tx.commit().unwrap();
    sched.drain_now();
    // Parked, not run, not acknowledged.
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(0));
    drop(tx);
    assert_eq!(db.pending_events().len(), 1);
    let rows = sched.status_rows();
    let parked = rows.iter().find(|(k, _)| k == "sched.parked").unwrap();
    assert_eq!(parked.1, "1");
    let susp = rows.iter().find(|(k, _)| k == "sched.suspended").unwrap();
    assert_eq!(susp.1, "reorder");

    sched.resume("reorder");
    sched.drain_now();
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
    drop(tx);
    assert!(db.pending_events().is_empty());
}

#[test]
fn permanent_failures_dead_letter_and_auto_suspend() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    // "notify" is never registered: every low_stock action fails
    // permanently (not a transient Unavailable), so each event is
    // dead-lettered, and after the threshold the trigger is suspended.
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "low_stock", vec![Value::Int(50)])?;
            Ok(oid)
        })
        .unwrap();
    let sched = manual_sched(&db);
    let threshold = FAIL_SUSPEND_THRESHOLD as usize;
    for qty in (0..threshold).map(|i| 40 - i as i64) {
        let mut tx = db.begin();
        tx.set(oid, "quantity", qty).unwrap();
        tx.commit().unwrap();
        sched.drain_now();
    }
    let letters = sched.dead_letters();
    assert_eq!(letters.len(), threshold);
    assert!(letters[0].error.contains("notify"), "{}", letters[0].error);
    assert_eq!(db.sched_telemetry().dead_letters.get() as usize, threshold);
    assert_counted_once(&db);
    // Threshold reached: now suspended, the next event parks instead.
    assert_eq!(db.sched_telemetry().suspended.get(), 1);
    let mut tx = db.begin();
    tx.set(oid, "quantity", 8i64).unwrap();
    tx.commit().unwrap();
    sched.drain_now();
    assert_eq!(
        sched.dead_letters().len(),
        threshold,
        "parked, not dead-lettered"
    );
    assert_eq!(db.pending_events().len(), 1);
    // Dead-lettered events were acknowledged: only the parked one is
    // pending, so a reopen would retry exactly that one.
}

#[test]
fn delayed_trigger_fires_after_its_delay() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = new_item(&db, "dram");
    let sched = Scheduler::attach(Arc::clone(&db), SchedConfig::default());
    sched.delay_trigger("reorder", Duration::from_millis(200));

    let start = Instant::now();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    tx.commit().unwrap();
    // Well before the delay elapses the action must not have run.
    std::thread::sleep(Duration::from_millis(40));
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(0));
    drop(tx);
    assert!(sched.wait_idle(Duration::from_secs(10)));
    assert!(
        start.elapsed() >= Duration::from_millis(200),
        "fired early: {:?}",
        start.elapsed()
    );
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
}

#[test]
fn bounded_cascade_drains_through_the_queue() {
    let db = Arc::new(Database::in_memory());
    db.define_class(
        ClassBuilder::new("counter")
            .field_default("n", Type::Int, 0)
            .trigger("bump", &[], true, "n < 5")
            .action_assign("n", "n + 1"),
    )
    .unwrap();
    db.create_cluster("counter").unwrap();
    let sched = manual_sched(&db);
    let mut tx = db.begin();
    let oid = tx.pnew("counter", &[]).unwrap();
    tx.activate_trigger(oid, "bump", vec![]).unwrap();
    tx.set(oid, "n", 1i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.enqueued.len(), 1);
    sched.drain_now();
    // Each action re-fired the perpetual trigger until the condition went
    // false; every link in the chain went through the queue.
    let tx = db.begin();
    assert_eq!(tx.get(oid, "n").unwrap(), Value::Int(5));
    drop(tx);
    assert_eq!(db.sched_telemetry().drained.get(), 4);
    assert!(db.pending_events().is_empty());
    assert!(sched.dead_letters().is_empty());
}

#[test]
fn runaway_cascade_hits_the_limit_and_dead_letters() {
    let db = Arc::new(Database::in_memory());
    db.define_class(
        ClassBuilder::new("counter")
            .field_default("n", Type::Int, 0)
            .trigger("bump", &[], true, "n >= 0") // never goes false
            .action_assign("n", "n + 1"),
    )
    .unwrap();
    db.create_cluster("counter").unwrap();
    let sched = manual_sched(&db);
    let mut tx = db.begin();
    let oid = tx.pnew("counter", &[]).unwrap();
    tx.activate_trigger(oid, "bump", vec![]).unwrap();
    tx.commit().unwrap();
    sched.drain_now();
    // The chain was cut at the cascade limit: the over-limit event is
    // dead-lettered with the typed error and the counter recorded it.
    let letters = sched.dead_letters();
    assert_eq!(letters.len(), 1);
    assert!(
        letters[0].error.contains("cascade"),
        "typed cascade error expected, got: {}",
        letters[0].error
    );
    assert!(db.sched_telemetry().dead_letters.get() >= 1);
    assert_eq!(db.telemetry().triggers.cascade_exhausted, 1);
    // Progress was real up to the limit, and the queue is clean.
    let tx = db.begin();
    assert!(tx.get(oid, "n").unwrap().as_int().unwrap() > 0);
    drop(tx);
    assert!(db.pending_events().is_empty());
}

#[test]
fn subscription_pushes_matching_commits() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = db
        .transaction(|tx| tx.pnew("stockitem", &[("name", Value::from("dram"))]))
        .unwrap();
    let sched = Scheduler::attach(Arc::clone(&db), SchedConfig::default());
    let matches: Arc<Mutex<Vec<SubMatch>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_matches = Arc::clone(&matches);
    let sub_id = sched
        .subscribe(
            "stockitem",
            "quantity < 20",
            Arc::new(move |m| sink_matches.lock().unwrap().push(m.clone())),
        )
        .unwrap();

    // Non-matching write: checked, no push.
    let mut tx = db.begin();
    tx.set(oid, "quantity", 50i64).unwrap();
    tx.commit().unwrap();
    assert!(sched.wait_idle(Duration::from_secs(10)));
    assert!(matches.lock().unwrap().is_empty());

    // Matching write: exactly one push, carrying the object and epoch.
    let mut tx = db.begin();
    tx.set(oid, "quantity", 10i64).unwrap();
    tx.commit().unwrap();
    assert!(sched.wait_idle(Duration::from_secs(10)));
    let got = matches.lock().unwrap().clone();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].sub_id, sub_id);
    assert_eq!(got[0].oid, oid);
    assert!(got[0].epoch > 0);

    // After unsubscribe, matching writes push nothing.
    assert!(sched.unsubscribe(sub_id));
    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    tx.commit().unwrap();
    assert!(sched.wait_idle(Duration::from_secs(10)));
    assert_eq!(matches.lock().unwrap().len(), 1);
}

/// A predicate that can never evaluate — here a misspelled member — is
/// refused when it is registered, not dropped on every check after; a
/// valid one registers and pushes.
#[test]
fn subscribe_refuses_a_misspelled_member() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = db
        .transaction(|tx| tx.pnew("stockitem", &[("name", Value::from("dram"))]))
        .unwrap();
    let sched = Scheduler::attach(Arc::clone(&db), SchedConfig::default());
    let hits = Arc::new(AtomicUsize::new(0));
    let sink = |hits: &Arc<AtomicUsize>| -> ode_sched::PushSink {
        let hits = Arc::clone(hits);
        Arc::new(move |_m| {
            hits.fetch_add(1, Ordering::SeqCst);
        })
    };
    match sched.subscribe("stockitem", "qty < 5", sink(&hits)) {
        Err(OdeError::Analysis(diags)) => {
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].code, "A002", "{diags:?}");
        }
        other => panic!("expected an analysis refusal, got {other:?}"),
    }
    sched
        .subscribe("stockitem", "quantity < 5", sink(&hits))
        .unwrap();
    let mut tx = db.begin();
    tx.set(oid, "quantity", 1i64).unwrap();
    tx.commit().unwrap();
    assert!(sched.wait_idle(Duration::from_secs(10)));
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn subscription_respects_subclass_extent() {
    let db = Arc::new(Database::in_memory());
    db.define_class(ClassBuilder::new("item").field_default("qty", Type::Int, 100))
        .unwrap();
    db.define_class(
        ClassBuilder::new("special")
            .base("item")
            .field("tag", Type::Str),
    )
    .unwrap();
    db.define_class(ClassBuilder::new("other").field_default("qty", Type::Int, 100))
        .unwrap();
    db.create_cluster("item").unwrap();
    db.create_cluster("special").unwrap();
    db.create_cluster("other").unwrap();
    let sched = Scheduler::attach(Arc::clone(&db), SchedConfig::default());
    let hits = Arc::new(AtomicUsize::new(0));
    let sink_hits = Arc::clone(&hits);
    sched
        .subscribe(
            "item",
            "qty < 10",
            Arc::new(move |_m| {
                sink_hits.fetch_add(1, Ordering::SeqCst);
            }),
        )
        .unwrap();
    db.transaction(|tx| {
        // A subclass instance matches (deep extent)…
        tx.pnew(
            "special",
            &[("tag", Value::from("s")), ("qty", Value::Int(5))],
        )?;
        // …an unrelated class does not, even with a satisfying field.
        tx.pnew("other", &[("qty", Value::Int(5))])?;
        Ok(())
    })
    .unwrap();
    assert!(sched.wait_idle(Duration::from_secs(10)));
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

#[test]
fn reattach_after_detach_keeps_working() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = new_item(&db, "dram");
    let left = new_item(&db, "sram");
    // The first scheduler never drains: its one event is left pending.
    let first = manual_sched(&db);
    let mut tx = db.begin();
    tx.set(left, "quantity", 5i64).unwrap();
    assert_eq!(tx.commit().unwrap().enqueued.len(), 1);
    first.detach();
    let second = Scheduler::attach(Arc::clone(&db), SchedConfig::default());
    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    let info = tx.commit().unwrap();
    assert_eq!(info.enqueued.len(), 1);
    assert!(second.wait_idle(Duration::from_secs(10)));
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
    assert_eq!(tx.get(left, "on_order").unwrap(), Value::Int(100));
    drop(tx);
    // The backlog the second attach picked up was already counted by its
    // own commit.
    let tel = db.sched_telemetry();
    assert_eq!((tel.enqueued.get(), tel.drained.get()), (2, 2));
    assert_counted_once(&db);
}

#[test]
fn inline_commit_drains_a_recovered_backlog() {
    // A reopen with one pending event and no scheduler: the first inline
    // commit, though it fires nothing itself, runs the backlog once.
    let dir = std::env::temp_dir().join(format!("ode-sched-inline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let oid;
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        inventory(&db);
        oid = new_item(&db, "dram");
        let _sched = manual_sched(&db);
        let mut tx = db.begin();
        tx.set(oid, "quantity", 5i64).unwrap();
        assert_eq!(tx.commit().unwrap().enqueued.len(), 1);
        // "Crash" with the event still pending.
    }
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        assert_eq!(db.pending_events().len(), 1);
        assert_eq!(on_order(&db, oid), Value::Int(0), "not drained at open");
        new_item(&db, "sram");
        assert_eq!(on_order(&db, oid), Value::Int(100));
        assert!(db.pending_events().is_empty());
        let tel = db.sched_telemetry();
        assert_eq!((tel.enqueued.get(), tel.drained.get()), (1, 1));
        assert_counted_once(&db);
        // Ran once: a later commit finds nothing left to run.
        new_item(&db, "flash");
        assert_eq!(on_order(&db, oid), Value::Int(100));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn detach_releases_parked_events_to_inline() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = new_item(&db, "dram");
    let sched = manual_sched(&db);
    sched.suspend("reorder");
    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    tx.commit().unwrap();
    sched.drain_now();
    assert_eq!(db.backlog_counts(), (0, 1), "parked: claimed, not ready");
    sched.detach();
    assert_eq!(db.backlog_counts(), (1, 0), "released to ready");
    // One inline commit that fires nothing runs the parked action…
    new_item(&db, "sram");
    assert_eq!(on_order(&db, oid), Value::Int(100));
    assert!(db.pending_events().is_empty());
    // …exactly once.
    new_item(&db, "flash");
    assert_eq!(on_order(&db, oid), Value::Int(100));
    assert_counted_once(&db);
}

#[test]
fn dispatching_an_acknowledged_event_is_a_no_op() {
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    let oid = new_item(&db, "dram");
    let _sched = manual_sched(&db);
    let mut tx = db.begin();
    tx.set(oid, "quantity", 5i64).unwrap();
    tx.commit().unwrap();
    let ev = db.pending_events().remove(0);
    assert!(db.dispatch_firing(&ev).unwrap().is_empty());
    assert!(db.dispatch_firing(&ev).unwrap().is_empty());
    let tx = db.begin();
    assert_eq!(tx.get(oid, "on_order").unwrap(), Value::Int(100));
    drop(tx);
    assert!(db.pending_events().is_empty());
}

#[test]
fn concurrent_dispatches_of_one_event_apply_once() {
    // The action only inserts a log object, so the two dispatches share
    // no object: only the pending record itself can keep one of them from
    // committing. Two threads dispatch every event at once; for each, one
    // applies and the other is a no-op or loses validation with a
    // retryable conflict.
    let db = Arc::new(Database::in_memory());
    inventory(&db);
    db.define_class(ClassBuilder::new("stocklog").field("item", Type::Ref("stockitem".into())))
        .unwrap();
    db.create_cluster("stocklog").unwrap();
    db.register_callback("notify", |tx, oid, _args| {
        tx.pnew("stocklog", &[("item", Value::Ref(oid))])?;
        Ok(())
    });
    let n = 64;
    let oids: Vec<Oid> = db
        .transaction(|tx| {
            (0..n)
                .map(|i| {
                    let oid = tx.pnew("stockitem", &[("name", Value::from(format!("it{i}")))])?;
                    tx.activate_trigger(oid, "low_stock", vec![Value::Int(50)])?;
                    Ok(oid)
                })
                .collect()
        })
        .unwrap();
    let _sched = manual_sched(&db);
    let mut tx = db.begin();
    for &oid in &oids {
        tx.set(oid, "quantity", 5i64).unwrap();
    }
    tx.commit().unwrap();
    let events = Arc::new(db.pending_events());
    assert_eq!(events.len(), n);
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let (db, events, barrier) =
                (Arc::clone(&db), Arc::clone(&events), Arc::clone(&barrier));
            std::thread::spawn(move || {
                for ev in events.iter() {
                    barrier.wait();
                    if let Err(e) = db.dispatch_firing(ev) {
                        assert!(e.is_unavailable(), "{e}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let logged = db
        .transaction(|tx| tx.forall("stocklog")?.collect_oids())
        .unwrap();
    assert_eq!(logged.len(), n, "each event applied exactly once");
    assert!(db.pending_events().is_empty());
}

#[test]
fn dead_letter_whose_ack_fails_retries_after_the_backoff() {
    use ode_sched::RETRY_BACKOFF;
    use ode_storage::{FailpointConfig, FailpointStore, FaultKind, MemStore};

    let store = Arc::new(FailpointStore::new(
        Arc::new(MemStore::new()),
        FailpointConfig::disabled(7),
    ));
    let db = Arc::new(Database::from_store(store.clone(), DbConfig::default()).unwrap());
    inventory(&db);
    // "notify" is never registered, so the action fails permanently.
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("stockitem", &[("name", Value::from("dram"))])?;
            tx.activate_trigger(oid, "low_stock", vec![Value::Int(50)])?;
            Ok(oid)
        })
        .unwrap();
    let sched = manual_sched(&db);
    db.transaction(|tx| tx.set(oid, "quantity", 40i64)).unwrap();
    // The next store commit is the dead letter's acknowledgement.
    store.force(FaultKind::CommitPre);
    let started = Instant::now();
    sched.drain_now();
    assert!(
        started.elapsed() >= RETRY_BACKOFF,
        "the failed acknowledgement was retried at once"
    );
    let letters = sched.dead_letters();
    assert_eq!(letters.len(), 2, "the failed ack, then the real one");
    assert!(
        letters[0].error.contains("ack failed"),
        "{}",
        letters[0].error
    );
    assert!(db.pending_events().is_empty());
    assert_eq!(db.sched_telemetry().dead_letters.get(), 1);
    assert_counted_once(&db);
}

#[test]
fn failed_store_parks_the_action_instead_of_dead_lettering() {
    use ode_storage::{FailpointConfig, FailpointStore, FaultKind, MemStore};

    let store = Arc::new(FailpointStore::new(
        Arc::new(MemStore::new()),
        FailpointConfig::disabled(7),
    ));
    let db = Arc::new(Database::from_store(store.clone(), DbConfig::default()).unwrap());
    inventory(&db);
    let oid = new_item(&db, "dram");
    let sched = manual_sched(&db);
    db.transaction(|tx| tx.set(oid, "quantity", 5i64)).unwrap();
    // The action's own commit hits the failed group fsync.
    store.force(FaultKind::GroupSync);
    sched.drain_now();
    assert_eq!(store.faults_injected(), 1);
    assert!(
        sched.dead_letters().is_empty(),
        "{:?}",
        sched.dead_letters()
    );
    let retries = db.sched_telemetry().retries.get();
    std::thread::sleep(ode_sched::RETRY_BACKOFF * 3);
    sched.drain_now();
    assert_eq!(db.sched_telemetry().retries.get(), retries, "no re-queue");
    assert_eq!(db.sched_telemetry().dead_letters.get(), 0);
    // Still pending in the durable backlog: it runs after the reopen.
    assert_eq!(db.pending_events().len(), 1);
}
