//! # ode-sched
//!
//! The decoupled trigger scheduler. §6's weak coupling already runs
//! trigger actions *after* the triggering commit — but without a
//! scheduler the engine dispatches them on the committing thread, so a
//! commit that armed a slow cascade pays the cascade's full latency. This
//! crate moves the actions off the commit path entirely (HiPAC's
//! decoupled mode):
//!
//! * a committing transaction durably enqueues [`PendingEvent`]s, hands
//!   them to the engine's firing sink and returns immediately,
//! * a worker pool drains the queue, running each action in its own write
//!   transaction via [`Database::dispatch_firing`] — once-only semantics
//!   and the cascade bound are enforced by the engine, exactly-once across
//!   crashes by the durable pending record,
//! * transient failures retry with backoff; persistent ones dead-letter
//!   (the event is acknowledged so it cannot replay forever), and a
//!   trigger that fails repeatedly is auto-suspended,
//! * per-trigger delay turns an armed trigger into a *timed* firing: the
//!   event sits in a timer heap until due,
//! * **live subscriptions** ride the same queue: a registered predicate
//!   over a cluster is re-evaluated (on a worker, against a snapshot)
//!   for every object a commit writes, and matches are delivered to the
//!   subscriber's push sink — the server turns them into wire Push frames.
//!
//! Actions run through the same [`Database::dispatch_firing`] either way;
//! only the thread differs. Attach with [`Scheduler::attach`]; detaching
//! (drop) uninstalls the engine hooks, so commits dispatch their own
//! events on the committing thread again. With `workers: 0` nothing
//! runs until [`Scheduler::drain_now`] — tests use this to simulate a
//! crash between commit and drain.

use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use ode_core::{Database, OdeError, PendingEvent, Result};
use ode_model::eval::EvalCtx;
use ode_model::{parse_expr, ClassId, Expr, Oid};
use ode_obs::SpanStage;

/// Tuning knobs for [`Scheduler::attach`].
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads draining the queue. `0` = nothing runs until
    /// [`Scheduler::drain_now`] (tests; simulated crashes).
    pub workers: usize,
    /// Queue capacity for *subscription checks*. Checks past it are
    /// dropped (counted in `sched.overflow_dropped`); trigger events are
    /// never dropped — they are durable and their backlog lives on disk.
    pub queue_capacity: usize,
    /// Transient-failure retries per event before dead-lettering.
    pub max_retries: u32,
    /// Backoff between retries of one event.
    pub retry_backoff: Duration,
    /// Consecutive permanent failures of one trigger name before the
    /// scheduler auto-suspends it (0 disables auto-suspension).
    pub fail_suspend_threshold: u32,
    /// Most recent dead letters retained for inspection.
    pub max_dead_letters: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 2,
            queue_capacity: 16 * 1024,
            max_retries: 3,
            retry_backoff: Duration::from_millis(10),
            fail_suspend_threshold: 5,
            max_dead_letters: 256,
        }
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
    Action {
        event: PendingEvent,
        attempts: u32,
        enqueued_at: Instant,
    },
    SubCheck {
        sub_id: SubId,
        oid: Oid,
        epoch: u64,
    },
}

struct TimedJob {
    due: Instant,
    seq: u64,
    job: Job,
}

impl PartialEq for TimedJob {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimedJob {}
impl PartialOrd for TimedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest due is on top.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    timed: BinaryHeap<TimedJob>,
    /// Actions parked because their trigger is suspended.
    parked: Vec<Job>,
    in_flight: usize,
    shutdown: bool,
}

struct SchedInner {
    db: Arc<Database>,
    config: SchedConfig,
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
    detached: AtomicBool,
}

impl SchedInner {
    fn seq(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn note_depth(&self, st: &QueueState) {
        let tel = self.db.sched_telemetry();
        let depth = (st.queue.len() + st.timed.len()) as u64;
        tel.queue_depth.set(depth);
        tel.queue_high_water.observe(depth);
    }

    /// Enqueue trigger events (from the commit sink, a cascade, or the
    /// recovered backlog). Never drops: the durable pending record is the
    /// true bound.
    fn enqueue_events(&self, events: Vec<PendingEvent>, count_enqueued: bool) {
        if events.is_empty() {
            return;
        }
        let now = Instant::now();
        let mut st = self.state.lock();
        if st.shutdown {
            return; // backlog survives in the pending record for reattach
        }
        if count_enqueued {
            self.db.sched_telemetry().enqueued.add(events.len() as u64);
        }
        let delays = self.delays.read();
        for event in events {
            let delay = delays.get(&event.trigger).copied();
            let job = Job::Action {
                event,
                attempts: 0,
                enqueued_at: now,
            };
            match delay {
                Some(d) if !d.is_zero() => {
                    let seq = self.seq();
                    st.timed.push(TimedJob {
                        due: now + d,
                        seq,
                        job,
                    });
                }
                _ => st.queue.push_back(job),
            }
        }
        drop(delays);
        self.note_depth(&st);
        self.work_ready.notify_all();
    }

    fn enqueue_timed(&self, job: Job, due: Instant) {
        let mut st = self.state.lock();
        if st.shutdown {
            return;
        }
        let seq = self.seq();
        st.timed.push(TimedJob { due, seq, job });
        self.note_depth(&st);
        self.work_ready.notify_all();
    }

    /// Fan a committed write set out into subscription checks.
    fn observe_commit(&self, note: &ode_core::CommitNote) {
        let subs = self.subs.read();
        if subs.is_empty() {
            return;
        }
        let mut checks: Vec<Job> = Vec::new();
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
        drop(subs);
        if checks.is_empty() {
            return;
        }
        let mut st = self.state.lock();
        if st.shutdown {
            return;
        }
        let tel = self.db.sched_telemetry();
        for job in checks {
            if st.queue.len() >= self.config.queue_capacity {
                tel.overflow_dropped.inc();
                continue;
            }
            st.queue.push_back(job);
        }
        self.note_depth(&st);
        self.work_ready.notify_all();
    }

    /// Pull one runnable job, promoting due timed jobs first. Returns
    /// `Err(next_due)` when only not-yet-due timed work remains.
    fn next_job(st: &mut QueueState) -> std::result::Result<Option<Job>, Instant> {
        let now = Instant::now();
        while let Some(t) = st.timed.peek() {
            if t.due <= now {
                let t = st.timed.pop().expect("peeked");
                st.queue.push_back(t.job);
            } else {
                break;
            }
        }
        if let Some(job) = st.queue.pop_front() {
            return Ok(Some(job));
        }
        match st.timed.peek() {
            Some(t) => Err(t.due),
            None => Ok(None),
        }
    }

    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    match Self::next_job(&mut st) {
                        Ok(Some(job)) => {
                            st.in_flight += 1;
                            self.note_depth(&st);
                            break job;
                        }
                        Ok(None) => {
                            if st.in_flight == 0 {
                                self.idle.notify_all();
                            }
                            self.work_ready.wait(&mut st);
                        }
                        Err(due) => {
                            let now = Instant::now();
                            let wait = due.saturating_duration_since(now);
                            self.work_ready.wait_for(&mut st, wait);
                        }
                    }
                }
            };
            self.run_job(job);
            let mut st = self.state.lock();
            st.in_flight -= 1;
            if st.in_flight == 0 && st.queue.is_empty() && st.timed.is_empty() {
                self.idle.notify_all();
            }
        }
    }

    fn run_job(self: &Arc<Self>, job: Job) {
        match job {
            Job::Action {
                event,
                attempts,
                enqueued_at,
            } => self.run_action(event, attempts, enqueued_at),
            Job::SubCheck { sub_id, oid, epoch } => self.run_sub_check(sub_id, oid, epoch),
        }
    }

    fn run_action(self: &Arc<Self>, event: PendingEvent, attempts: u32, enqueued_at: Instant) {
        // A suspended trigger parks its events; `resume` re-queues them.
        if self.suspended.read().contains(&event.trigger) {
            let mut st = self.state.lock();
            st.parked.push(Job::Action {
                event,
                attempts,
                enqueued_at,
            });
            return;
        }
        let tel = self.db.sched_telemetry();
        let mut span = self
            .db
            .flight()
            .span(SpanStage::Sched, event.trigger.as_str());
        match self.db.dispatch_firing(&event) {
            Ok(next) => {
                tel.drained.inc();
                tel.drain_lag
                    .record_ns(enqueued_at.elapsed().as_nanos() as u64);
                self.failures.write().remove(&event.trigger);
                span.set_detail(format!("{} ok, {} cascaded", event.trigger, next.len()));
                // Cascade: the action's own commit persisted these in its
                // batch; queue them like a commit sink would.
                self.enqueue_events(next, true);
            }
            Err(e) if e.is_unavailable() && attempts < self.config.max_retries => {
                tel.retries.inc();
                span.set_detail(format!("{} retry #{}", event.trigger, attempts + 1));
                let due = Instant::now() + self.config.retry_backoff;
                self.enqueue_timed(
                    Job::Action {
                        event,
                        attempts: attempts + 1,
                        enqueued_at,
                    },
                    due,
                );
            }
            Err(e) => {
                span.set_detail(format!("{} dead-letter: {e}", event.trigger));
                self.dead_letter(event, e);
            }
        }
    }

    /// Abandon an event: acknowledge it durably (unless the engine already
    /// did — `ack_pending` is a no-op for unknown ids) and record why.
    fn dead_letter(self: &Arc<Self>, event: PendingEvent, error: OdeError) {
        let tel = self.db.sched_telemetry();
        tel.dead_letters.inc();
        if let Err(ack_err) = self.db.ack_pending(&[event.id]) {
            // The event stays pending; it will be retried after reopen.
            // Record both errors so the operator sees the whole story.
            self.push_dead(DeadLetter {
                event,
                error: format!("{error} (ack failed: {ack_err})"),
            });
            return;
        }
        // Auto-suspension: a trigger that keeps failing permanently stops
        // burning workers until an operator resumes it.
        let threshold = self.config.fail_suspend_threshold;
        if threshold > 0 {
            let mut failures = self.failures.write();
            let n = failures.entry(event.trigger.clone()).or_insert(0);
            *n += 1;
            if *n >= threshold {
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
        while dead.len() > self.config.max_dead_letters {
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
        let parked = std::mem::take(&mut st.parked);
        for job in parked {
            match &job {
                Job::Action { event, .. } if event.trigger == trigger => {
                    st.queue.push_back(job);
                }
                _ => st.parked.push(job),
            }
        }
        self.note_depth(&st);
        self.work_ready.notify_all();
    }

    fn status_rows(&self) -> Vec<(String, String)> {
        let st = self.state.lock();
        let mut rows = vec![
            ("sched.workers".to_string(), self.config.workers.to_string()),
            ("sched.queue_depth".to_string(), st.queue.len().to_string()),
            ("sched.timed".to_string(), st.timed.len().to_string()),
            ("sched.parked".to_string(), st.parked.len().to_string()),
            ("sched.in_flight".to_string(), st.in_flight.to_string()),
        ];
        drop(st);
        let suspended = self.suspended.read();
        let mut names: Vec<&String> = suspended.iter().collect();
        names.sort();
        rows.push((
            "sched.suspended".to_string(),
            if names.is_empty() {
                "-".to_string()
            } else {
                names
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            },
        ));
        drop(suspended);
        rows.push((
            "sched.dead_letters".to_string(),
            self.dead.lock().len().to_string(),
        ));
        rows.push((
            "sched.subscriptions".to_string(),
            self.subs.read().len().to_string(),
        ));
        rows
    }
}

/// The decoupled scheduler. Attaching queues any backlog left in the
/// durable pending record, installs the engine hooks (firing sink, commit
/// observer, status hook), and spawns the worker pool. Dropping the
/// scheduler detaches: hooks are uninstalled (firing goes back inline),
/// workers are joined; an undrained backlog stays durable for the next
/// attach.
pub struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Attach a scheduler to `db` and switch the engine to decoupled
    /// firing. Any backlog recovered at open (a crash between commit and
    /// drain) is queued immediately.
    pub fn attach(db: Arc<Database>, config: SchedConfig) -> Arc<Scheduler> {
        let inner = Arc::new(SchedInner {
            db: Arc::clone(&db),
            config: config.clone(),
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
            detached: AtomicBool::new(false),
        });
        // Backlog: events a previous process (or a detached scheduler) left
        // pending. Recovery counted them as enqueued at open, and their own
        // commits did before a detach, so they are queued uncounted. Taken
        // before the sink goes in, so a commit landing in between is
        // dispatched inline. One that published before the snapshot but
        // reads the sink after it is queued twice (or dispatched inline
        // beside its queued copy); `dispatch_firing` applies it once.
        inner.enqueue_events(db.pending_events(), false);
        // Hooks hold Weak: the database must not keep its scheduler alive
        // (the scheduler holds the database).
        let sink_inner: Weak<SchedInner> = Arc::downgrade(&inner);
        db.set_firing_sink(Some(Arc::new(move |events| {
            if let Some(s) = sink_inner.upgrade() {
                s.enqueue_events(events, false);
            }
        })));
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
    /// matches are delivered to `sink` asynchronously.
    pub fn subscribe(&self, class_name: &str, predicate: &str, sink: PushSink) -> Result<SubId> {
        let class = self
            .inner
            .db
            .with_schema(|schema| schema.id_of(class_name))?;
        let predicate = parse_expr(predicate)?;
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

    /// Block until the queue is empty and no action is in flight, or the
    /// timeout elapses. Returns whether the scheduler went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            if st.queue.is_empty() && st.timed.is_empty() && st.in_flight == 0 {
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

    /// Synchronously drain the queue on the caller's thread (for
    /// `workers: 0` configurations). Sleeps through timer-heap waits; runs
    /// until the queue, timer heap, and cascade tail are all empty.
    pub fn drain_now(&self) {
        loop {
            let job = {
                let mut st = self.inner.state.lock();
                match SchedInner::next_job(&mut st) {
                    Ok(Some(job)) => {
                        st.in_flight += 1;
                        Some(job)
                    }
                    Ok(None) => {
                        if st.in_flight == 0 {
                            self.inner.idle.notify_all();
                        }
                        return;
                    }
                    Err(due) => {
                        drop(st);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        None
                    }
                }
            };
            if let Some(job) = job {
                self.inner.run_job(job);
                let mut st = self.inner.state.lock();
                st.in_flight -= 1;
            }
        }
    }

    /// Uninstall the engine hooks and stop the workers. Called by `Drop`;
    /// public so embedders can detach deterministically. An undrained
    /// backlog stays durable in the pending record.
    pub fn detach(&self) {
        if self.inner.detached.swap(true, Ordering::SeqCst) {
            return;
        }
        let db = &self.inner.db;
        db.set_firing_sink(None);
        db.set_commit_observer(None);
        db.set_sched_status_hook(None);
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
            self.inner.work_ready.notify_all();
            self.inner.idle.notify_all();
        }
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.detach();
    }
}
