//! # ode-sched
//!
//! The decoupled trigger scheduler. §6's weak coupling already runs
//! trigger actions *after* the triggering commit — but without a
//! scheduler the engine dispatches them on the committing thread, so a
//! commit that armed a slow cascade pays the cascade's full latency. This
//! crate moves the actions off the commit path entirely (HiPAC's
//! decoupled mode):
//!
//! * the engine owns the one backlog: a committing transaction durably
//!   enqueues [`PendingEvent`]s, leaves them *ready* and returns
//!   immediately; [`Scheduler::attach`] only switches the engine to
//!   decoupled firing, so there is no copy of the backlog to keep in step,
//! * a worker pool claims ready events ([`Database::claim_ready`]) and runs
//!   each action in its own write transaction via
//!   [`Database::dispatch_firing`] — once-only semantics and the cascade
//!   bound are enforced by the engine, exactly-once across crashes by the
//!   durable pending record,
//! * the scheduler keeps only policy over the events it claimed:
//!   transient failures retry with backoff; persistent ones dead-letter
//!   (the event is acknowledged so it cannot replay forever), and a
//!   trigger that fails repeatedly is auto-suspended; a suspended
//!   trigger's events park until resumed,
//! * per-trigger delay turns an armed trigger into a *timed* firing: the
//!   claimed event sits in a timer heap until due,
//! * **live subscriptions** ride the same workers: a registered predicate
//!   over a cluster is re-evaluated (on a worker, against a snapshot)
//!   for every object a commit writes, and matches are delivered to the
//!   subscriber's push sink — the server turns them into wire Push frames.
//!
//! The engine's commit observer is the scheduler's only wake-up signal.
//! Detaching (drop) releases every event the scheduler still holds back to
//! the engine's ready list and switches it to inline firing, where the next
//! commit drains them. With `workers: 0` nothing runs until
//! [`Scheduler::drain_now`] — tests use this to simulate a crash between
//! commit and drain.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use ode_core::{Database, OdeError, PendingEvent, Result};
use ode_model::eval::EvalCtx;
use ode_model::{ClassId, Expr, Oid};
use ode_obs::SpanStage;

/// Subscription checks queued past this many are dropped (counted in
/// `sched.overflow_dropped`). Trigger events are never dropped: they are
/// durable, and their backlog lives in the engine.
const SUB_QUEUE_CAPACITY: usize = 16 * 1024;
/// Transient-failure retries per event before dead-lettering.
const MAX_RETRIES: u32 = 3;
/// Backoff between retries of one event: after a transient failure, and
/// after a dead letter whose acknowledgement failed.
pub const RETRY_BACKOFF: Duration = Duration::from_millis(10);
/// Most recent dead letters retained for inspection.
const MAX_DEAD_LETTERS: usize = 256;
/// Consecutive permanent failures of one trigger name before the scheduler
/// auto-suspends it.
pub const FAIL_SUSPEND_THRESHOLD: u32 = 5;

/// Configuration for [`Scheduler::attach`].
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads claiming ready events. `0` = nothing runs until
    /// [`Scheduler::drain_now`] (tests; simulated crashes).
    pub workers: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { workers: 2 }
    }
}

/// Handle returned by [`Scheduler::subscribe`].
pub type SubId = u64;

/// One subscription match, delivered to the subscriber's push sink from a
/// worker thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SubMatch {
    /// The subscription that matched.
    pub sub_id: SubId,
    /// The object that satisfied the predicate.
    pub oid: Oid,
    /// Commit epoch of the write that triggered the check.
    pub epoch: u64,
}

/// Callback receiving subscription matches. Must be cheap and must not
/// commit a write transaction synchronously (it runs on a worker thread
/// holding no engine lock, but a slow sink stalls the queue).
pub type PushSink = Arc<dyn Fn(&SubMatch) + Send + Sync>;

/// An event the scheduler gave up on. The underlying pending record has
/// been acknowledged: the action will not run.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The abandoned event.
    pub event: PendingEvent,
    /// Why it was abandoned.
    pub error: String,
}

struct Subscription {
    class: ClassId,
    predicate: Expr,
    sink: PushSink,
}

enum Job {
    Action { event: PendingEvent, attempts: u32 },
    SubCheck { sub_id: SubId, oid: Oid, epoch: u64 },
}

/// What the scheduler holds besides the engine's ready list: subscription
/// checks and due timed jobs, the timer heap, and parked events. Every
/// action job here is an event this scheduler claimed.
#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    /// Timer heap: jobs keyed by (due, sequence number).
    timed: BTreeMap<(Instant, u64), Job>,
    /// Actions parked because their trigger is suspended or the store
    /// failed (they stay pending and run after a reopen).
    parked: Vec<PendingEvent>,
    in_flight: usize,
    shutdown: bool,
}

impl QueueState {
    /// Ids of every event this scheduler holds without running it.
    fn held_events(&self) -> Vec<u64> {
        self.queue
            .iter()
            .chain(self.timed.values())
            .filter_map(|job| match job {
                Job::Action { event, .. } => Some(event.id),
                Job::SubCheck { .. } => None,
            })
            .chain(self.parked.iter().map(|e| e.id))
            .collect()
    }
}

struct SchedInner {
    db: Arc<Database>,
    workers: usize,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    idle: Condvar,
    subs: RwLock<HashMap<SubId, Subscription>>,
    suspended: RwLock<HashSet<String>>,
    /// Per-trigger-name firing delay (timed triggers, §6).
    delays: RwLock<HashMap<String, Duration>>,
    /// Per-trigger-name consecutive permanent failures (auto-suspension).
    failures: RwLock<HashMap<String, u32>>,
    dead: Mutex<VecDeque<DeadLetter>>,
    next_sub: AtomicU64,
    next_seq: AtomicU64,
}

impl SchedInner {
    fn enqueue_timed(&self, st: &mut QueueState, job: Job, due: Instant) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        st.timed.insert((due, seq), job);
    }

    /// Commit observer: wake the workers for events the commit left ready,
    /// and fan its write set out into subscription checks.
    fn observe_commit(&self, note: &ode_core::CommitNote) {
        let mut checks: Vec<Job> = Vec::new();
        {
            let subs = self.subs.read();
            if !subs.is_empty() {
                self.db.with_schema(|schema| {
                    for &(oid, class) in &note.writes {
                        for (&sub_id, sub) in subs.iter() {
                            if schema.is_subclass(class, sub.class) {
                                checks.push(Job::SubCheck {
                                    sub_id,
                                    oid,
                                    epoch: note.epoch,
                                });
                            }
                        }
                    }
                });
            }
        }
        if checks.is_empty() && note.ready == 0 {
            return;
        }
        let mut st = self.state.lock();
        if st.shutdown {
            return;
        }
        for job in checks {
            if st.queue.len() >= SUB_QUEUE_CAPACITY {
                self.db.sched_telemetry().overflow_dropped.inc();
                continue;
            }
            st.queue.push_back(job);
        }
        self.work_ready.notify_all();
    }

    /// Pull one runnable job: a queued one (due timed jobs are promoted
    /// first), else a ready event claimed from the engine — a delayed
    /// trigger's event goes to the timer heap instead. Claiming under the
    /// state lock keeps every event visible to [`Scheduler::wait_idle`] as
    /// either ready or in flight. Returns `Err(next_due)` when only
    /// not-yet-due timed work remains.
    fn next_job(&self, st: &mut QueueState) -> std::result::Result<Option<Job>, Instant> {
        let now = Instant::now();
        while st.timed.first_key_value().is_some_and(|(k, _)| k.0 <= now) {
            let (_, job) = st.timed.pop_first().expect("checked");
            st.queue.push_back(job);
        }
        if let Some(job) = st.queue.pop_front() {
            return Ok(Some(job));
        }
        while let Some(event) = self.db.claim_ready() {
            let delay = self.delays.read().get(&event.trigger).copied();
            let job = Job::Action { event, attempts: 0 };
            match delay {
                Some(d) => self.enqueue_timed(st, job, now + d),
                None => return Ok(Some(job)),
            }
        }
        match st.timed.first_key_value() {
            Some(((due, _), _)) => Err(*due),
            None => Ok(None),
        }
    }

    /// Is there nothing left to run now or later, here or in the engine's
    /// ready list? (Parked events wait for `resume` or a reopen and do not
    /// count.)
    fn is_idle(&self, st: &QueueState) -> bool {
        st.queue.is_empty()
            && st.timed.is_empty()
            && st.in_flight == 0
            && self.db.backlog_counts().0 == 0
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    match self.next_job(&mut st) {
                        Ok(Some(job)) => {
                            st.in_flight += 1;
                            break job;
                        }
                        Ok(None) => {
                            if st.in_flight == 0 {
                                self.idle.notify_all();
                            }
                            self.work_ready.wait(&mut st);
                        }
                        Err(due) => {
                            let wait = due.saturating_duration_since(Instant::now());
                            self.work_ready.wait_for(&mut st, wait);
                        }
                    }
                }
            };
            self.run_job(job);
            self.state.lock().in_flight -= 1;
        }
    }

    fn run_job(self: &Arc<Self>, job: Job) {
        match job {
            Job::Action { event, attempts } => self.run_action(event, attempts),
            Job::SubCheck { sub_id, oid, epoch } => self.run_sub_check(sub_id, oid, epoch),
        }
    }

    fn run_action(self: &Arc<Self>, event: PendingEvent, attempts: u32) {
        // A suspended trigger parks its events; `resume` releases them.
        if self.suspended.read().contains(&event.trigger) {
            self.state.lock().parked.push(event);
            return;
        }
        let mut span = self
            .db
            .flight()
            .span(SpanStage::Sched, event.trigger.as_str());
        match self.db.dispatch_firing(&event) {
            Ok(next) => {
                self.failures.write().remove(&event.trigger);
                span.set_detail(format!("{} ok", event.trigger));
                // Decoupled commits leave their cascade ready; anything
                // claimed here (the engine went inline meanwhile) goes back.
                let ids: Vec<u64> = next.iter().map(|e| e.id).collect();
                self.db.release_events(&ids);
            }
            // A failed store commits nothing until it is reopened: park
            // the event, still pending in the durable backlog.
            Err(e) if e.is_store_failed() => {
                span.set_detail(format!("{} parked: {e}", event.trigger));
                self.state.lock().parked.push(event);
            }
            Err(e) if e.is_unavailable() && attempts < MAX_RETRIES => {
                self.db.sched_telemetry().retries.inc();
                span.set_detail(format!("{} retry #{}", event.trigger, attempts + 1));
                self.retry_later(Job::Action {
                    event,
                    attempts: attempts + 1,
                });
            }
            Err(e) => {
                span.set_detail(format!("{} dead-letter: {e}", event.trigger));
                self.dead_letter(event, attempts, e);
            }
        }
    }

    /// Run `job` again once [`RETRY_BACKOFF`] has passed.
    fn retry_later(&self, job: Job) {
        let mut st = self.state.lock();
        self.enqueue_timed(&mut st, job, Instant::now() + RETRY_BACKOFF);
        self.work_ready.notify_all();
    }

    /// Abandon an event: acknowledge it durably (the engine counts the
    /// dead letter; `ack_pending` is a no-op for an event it already
    /// acknowledged) and record why.
    fn dead_letter(self: &Arc<Self>, event: PendingEvent, attempts: u32, error: OdeError) {
        if let Err(ack_err) = self.db.ack_pending(&[event.id]) {
            if ack_err.is_store_failed() {
                self.state.lock().parked.push(event);
                return;
            }
            // The event stays pending and claimed: run it again after the
            // backoff rather than spinning on a failing store. Record both
            // errors so the operator sees the whole story.
            self.push_dead(DeadLetter {
                event: event.clone(),
                error: format!("{error} (ack failed: {ack_err})"),
            });
            self.retry_later(Job::Action { event, attempts });
            return;
        }
        // Auto-suspension: a trigger that keeps failing permanently stops
        // burning workers until an operator resumes it.
        {
            let mut failures = self.failures.write();
            let n = failures.entry(event.trigger.clone()).or_insert(0);
            *n += 1;
            if *n >= FAIL_SUSPEND_THRESHOLD {
                failures.remove(&event.trigger);
                drop(failures);
                self.suspend(&event.trigger);
            }
        }
        self.push_dead(DeadLetter {
            event,
            error: error.to_string(),
        });
    }

    fn push_dead(&self, letter: DeadLetter) {
        let mut dead = self.dead.lock();
        dead.push_back(letter);
        while dead.len() > MAX_DEAD_LETTERS {
            dead.pop_front();
        }
    }

    fn run_sub_check(&self, sub_id: SubId, oid: Oid, epoch: u64) {
        let subs = self.subs.read();
        let Some(sub) = subs.get(&sub_id) else {
            return; // unsubscribed while queued
        };
        let matched = self.db.read(|rtx| {
            let Ok(state) = rtx.read(oid) else {
                return Ok(false); // deleted between commit and check
            };
            rtx.database().with_schema(|schema| {
                EvalCtx::new(schema)
                    .with_this(&state)
                    .with_resolver(rtx)
                    .eval_bool(&sub.predicate)
                    .map_err(Into::into)
            })
        });
        if matches!(matched, Ok(true)) {
            (sub.sink)(&SubMatch { sub_id, oid, epoch });
        }
    }

    fn suspend(&self, trigger: &str) {
        if self.suspended.write().insert(trigger.to_string()) {
            self.db.sched_telemetry().suspended.inc();
        }
    }

    fn resume(&self, trigger: &str) {
        if self.suspended.write().remove(trigger) {
            self.db.sched_telemetry().suspended.dec();
        }
        self.failures.write().remove(trigger);
        let mut st = self.state.lock();
        let (resumed, parked): (Vec<PendingEvent>, Vec<PendingEvent>) =
            std::mem::take(&mut st.parked)
                .into_iter()
                .partition(|e| e.trigger == trigger);
        st.parked = parked;
        let ids: Vec<u64> = resumed.iter().map(|e| e.id).collect();
        self.db.release_events(&ids);
        self.work_ready.notify_all();
    }

    fn status_rows(&self) -> Vec<(String, String)> {
        let mut suspended: Vec<String> = self.suspended.read().iter().cloned().collect();
        suspended.sort();
        if suspended.is_empty() {
            suspended.push("-".to_string());
        }
        let st = self.state.lock();
        let rows = [
            ("workers", self.workers.to_string()),
            ("queue_depth", st.queue.len().to_string()),
            ("timed", st.timed.len().to_string()),
            ("parked", st.parked.len().to_string()),
            ("in_flight", st.in_flight.to_string()),
            ("suspended", suspended.join(",")),
            ("dead_letters", self.dead.lock().len().to_string()),
            ("subscriptions", self.subs.read().len().to_string()),
        ];
        rows.into_iter()
            .map(|(k, v)| (format!("sched.{k}"), v))
            .collect()
    }
}

/// The decoupled scheduler. Attaching installs the engine hooks (commit
/// observer, status hook), switches the engine to decoupled firing — so
/// any ready backlog is simply claimed like fresh events — and spawns the
/// worker pool. Dropping the scheduler detaches: workers are joined, every
/// event the scheduler still holds goes back to the engine's ready list,
/// firing goes back inline, and the hooks are uninstalled.
pub struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Attach a scheduler to `db` and switch the engine to decoupled
    /// firing. Its workers claim whatever is ready, a backlog recovered at
    /// open (a crash between commit and drain) included.
    pub fn attach(db: Arc<Database>, config: SchedConfig) -> Arc<Scheduler> {
        let inner = Arc::new(SchedInner {
            db: Arc::clone(&db),
            workers: config.workers,
            state: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            subs: RwLock::new(HashMap::new()),
            suspended: RwLock::new(HashSet::new()),
            delays: RwLock::new(HashMap::new()),
            failures: RwLock::new(HashMap::new()),
            dead: Mutex::new(VecDeque::new()),
            next_sub: AtomicU64::new(1),
            next_seq: AtomicU64::new(1),
        });
        // Hooks hold Weak: the database must not keep its scheduler alive
        // (the scheduler holds the database). The observer goes in before
        // the mode switch, so every commit that leaves an event ready
        // wakes the workers.
        let obs_inner: Weak<SchedInner> = Arc::downgrade(&inner);
        db.set_commit_observer(Some(Arc::new(move |note| {
            if let Some(s) = obs_inner.upgrade() {
                s.observe_commit(note);
            }
        })));
        let hook_inner: Weak<SchedInner> = Arc::downgrade(&inner);
        db.set_sched_status_hook(Some(Arc::new(move || {
            hook_inner
                .upgrade()
                .map(|s| s.status_rows())
                .unwrap_or_default()
        })));
        db.set_firing_decoupled(true);
        let sched = Arc::new(Scheduler {
            inner: Arc::clone(&inner),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = sched.workers.lock();
        for i in 0..config.workers {
            let w = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ode-sched-{i}"))
                    .spawn(move || w.worker_loop())
                    .expect("spawn scheduler worker"),
            );
        }
        drop(workers);
        sched
    }

    /// The database this scheduler drives.
    pub fn database(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// Register a live subscription: `predicate` (an O++ boolean
    /// expression over the object's fields) is evaluated against every
    /// object of `class_name` (deep extent) written by any commit, and
    /// matches are delivered to `sink` asynchronously. A predicate the
    /// analyzer finds an error in is refused
    /// ([`Database::subscription_predicate`]).
    pub fn subscribe(&self, class_name: &str, predicate: &str, sink: PushSink) -> Result<SubId> {
        let (class, predicate) = self
            .inner
            .db
            .subscription_predicate(class_name, predicate)?;
        let id = self.inner.next_sub.fetch_add(1, Ordering::Relaxed);
        self.inner.subs.write().insert(
            id,
            Subscription {
                class,
                predicate,
                sink,
            },
        );
        Ok(id)
    }

    /// Remove a subscription. Checks already queued for it are dropped
    /// when dequeued.
    pub fn unsubscribe(&self, id: SubId) -> bool {
        self.inner.subs.write().remove(&id).is_some()
    }

    /// Delay every firing of `trigger` by `delay` (timed firing, §6's
    /// `within`-style deferral): its events sit in the timer heap until
    /// due. Applies to events enqueued after the call; a zero delay
    /// restores immediate firing.
    pub fn delay_trigger(&self, trigger: &str, delay: Duration) {
        if delay.is_zero() {
            self.inner.delays.write().remove(trigger);
        } else {
            self.inner.delays.write().insert(trigger.to_string(), delay);
        }
    }

    /// Suspend a trigger: its queued and future events park until
    /// [`Scheduler::resume`].
    pub fn suspend(&self, trigger: &str) {
        self.inner.suspend(trigger);
    }

    /// Resume a suspended trigger and re-queue its parked events.
    pub fn resume(&self, trigger: &str) {
        self.inner.resume(trigger);
    }

    /// Events the scheduler abandoned (acknowledged without running).
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.inner.dead.lock().iter().cloned().collect()
    }

    /// Status rows (the `.triggers` surface).
    pub fn status_rows(&self) -> Vec<(String, String)> {
        self.inner.status_rows()
    }

    /// Block until the engine's ready list, the queue and the timer heap
    /// are empty and no job is in flight, or the timeout elapses. Returns
    /// whether the scheduler went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            if self.inner.is_idle(&st) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner
                .idle
                .wait_for(&mut st, deadline.saturating_duration_since(now));
        }
    }

    /// Synchronously drain on the caller's thread (for `workers: 0`
    /// configurations). Sleeps through timer-heap waits; runs until the
    /// ready list, queue, timer heap, and cascade tail are all empty.
    pub fn drain_now(&self) {
        loop {
            let next = {
                let mut st = self.inner.state.lock();
                let next = self.inner.next_job(&mut st);
                match next {
                    Ok(Some(_)) => st.in_flight += 1,
                    Ok(None) if st.in_flight == 0 => self.inner.idle.notify_all(),
                    _ => {}
                }
                next
            };
            match next {
                Ok(Some(job)) => {
                    self.inner.run_job(job);
                    self.inner.state.lock().in_flight -= 1;
                }
                Ok(None) => return,
                Err(due) => std::thread::sleep(due.saturating_duration_since(Instant::now())),
            }
        }
    }

    /// Stop the workers, hand every event this scheduler still holds
    /// (queued, timed, parked) back to the engine's ready list, switch the
    /// engine to inline firing — its next commit drains them — and
    /// uninstall the hooks. Called by `Drop`; public so embedders can
    /// detach deterministically.
    pub fn detach(&self) {
        {
            let mut st = self.inner.state.lock();
            if std::mem::replace(&mut st.shutdown, true) {
                return;
            }
            self.inner.work_ready.notify_all();
            self.inner.idle.notify_all();
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        let db = &self.inner.db;
        db.release_events(&self.inner.state.lock().held_events());
        db.set_firing_decoupled(false);
        db.set_commit_observer(None);
        db.set_sched_status_hook(None);
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.detach();
    }
}
