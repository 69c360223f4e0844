//! The [`Database`]: schema DDL, clusters, indexes, and open/recover.
//!
//! A database ties a [`Store`] (durable or in-memory) to the O++ data
//! model. Its catalog (heap 1) holds class declarations, cluster
//! registrations, index declarations, and trigger activations; opening an
//! existing store replays that catalog, then rebuilds the in-memory
//! indexes by scanning.
//!
//! Concurrency model (DESIGN.md §8, §13): the paper explicitly leaves
//! concurrency out of scope (§1); we use optimistic multi-writer
//! concurrency. Write transactions run fully in parallel, buffering
//! writes locally and recording the epoch at which each read was served;
//! commit validates the read set against the `CommitTable` inside a
//! short critical section, claims the next epoch, and publishes in epoch
//! order. Readers are unchanged from §8: [`Database::begin_read`] hands
//! out snapshot [`ReadTransaction`]s sharing the `apply_gate`
//! reader-writer lock, and a committing writer takes it exclusively only
//! around its publish window. DDL operations claim an epoch through the
//! same table and stamp `schema_stamp`, so every in-flight writer that
//! began earlier conflicts and retries against the new schema.
//!
//! Lock discipline (DESIGN.md §8): every engine lock carries a `rank`,
//! and debug builds panic on an out-of-order or recursive acquisition.
//! Statements read the schema and cluster map from an immutable
//! `Layout` snapshot that DDL replaces whole, so `inner` is locked only
//! in leaf sections that call nothing: an index probe, a catalog lookup,
//! the swap itself.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock, RwLockWriteGuard};

use ode_model::encode::{decode_class, encode_class};
use ode_model::{
    ClassBuilder, ClassId, FieldRange, ObjState, Oid, Schema, SlotMask, Statement, Value,
};
use ode_obs::{
    EngineTelemetry, FlightRecorder, PlanStrategy, QueryProfile, SlowQueryLog, SpanStage,
    StorageSnapshot, TelemetrySnapshot,
};
use ode_storage::{CommitTicket, FileStore, MemStore, RecordId, Store, StoreOp};

use crate::catalog::{CatalogRecord, CatalogState, CATALOG_HEAP};
use crate::error::{OdeError, Result};
use crate::index::{BTreeIndex, Indexes};
use crate::object::is_anchor;
use crate::read::ReadTransaction;
use crate::rules::{LazyRules, Rules};
use crate::trigger::{Activation, CommitNote, PendingEvent};
use crate::txn::{ScanEntry, Transaction};

/// Signature of a host callback invocable from trigger actions.
pub type CallbackFn = Arc<dyn Fn(&mut Transaction<'_>, Oid, &[Value]) -> Result<()> + Send + Sync>;

/// Observer notified after each published write commit with the objects it
/// wrote (live subscriptions). Invoked outside every engine lock; must be
/// cheap and must not commit a write transaction synchronously.
pub type CommitObserver = Arc<dyn Fn(&CommitNote) + Send + Sync>;

/// Hook supplying scheduler status rows to the shell's `.triggers` command
/// (queue depth, dead letters, …). Registered by an attached scheduler.
pub type SchedStatusFn = Arc<dyn Fn() -> Vec<(String, String)> + Send + Sync>;

/// Upper bound on distinct accumulated query-profile buckets. Long-lived
/// servers execute unbounded query streams; past this many distinct
/// (target, strategy) shapes, new shapes are dropped (existing buckets
/// keep accumulating) until the map is cleared by
/// [`Database::reset_telemetry`].
pub const MAX_PROFILE_BUCKETS: usize = 1024;

/// One accumulated per-query-shape profile (see
/// [`Database::query_profiles`]): every executed pass is absorbed into
/// the bucket keyed by its `(target, strategy)` shape.
#[derive(Debug, Clone, Default)]
pub struct ProfileBucket {
    /// Query passes absorbed into this bucket.
    pub passes: u64,
    /// Accumulated counters ([`QueryProfile::absorb`] semantics: sums,
    /// except `rows` which holds the last pass's value).
    pub profile: QueryProfile,
}

/// The accumulated profile buckets: target → each strategy's bucket.
pub(crate) type ProfileShapes = HashMap<String, Vec<(PlanStrategy, Mutex<ProfileBucket>)>>;

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Maximum trigger cascade depth before the engine gives up.
    pub trigger_cascade_limit: usize,
    /// How many times a transient failure to prepare (log) a commit is
    /// retried before the transaction aborts. Safe because the WAL rolls a
    /// failed group append back to a clean tail (DESIGN.md §10); nothing
    /// after the append is retried. 0 disables retries.
    pub commit_retries: usize,
}

/// How many times [`Database::transaction`] re-runs a closure whose
/// commit lost optimistic validation ([`OdeError::WriteConflict`],
/// DESIGN.md §13) before surfacing the conflict. Retries back off
/// exponentially (capped in the low milliseconds), so extent-scanning
/// transactions make progress against streams of small writers.
const CONFLICT_RETRIES: u32 = 32;

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            trigger_cascade_limit: 64,
            commit_retries: 2,
        }
    }
}

/// The engine's lock order. A thread takes ranked locks in increasing
/// level only, and never one it already holds; debug builds check both on
/// every acquisition. The publish window nests `apply_gate` → `inner`,
/// `backlog`, `publish_lock`; the commit gate nests `active_txns` (stamp
/// pruning). Every other acquisition is a leaf section.
pub(crate) mod rank {
    use parking_lot::Rank;

    pub const COMMIT_GATE: Rank = Rank::new(1, "commit_gate");
    pub const APPLY_GATE: Rank = Rank::new(2, "apply_gate");
    pub const ACTIVE_TXNS: Rank = Rank::new(3, "active_txns");
    pub const INNER: Rank = Rank::new(4, "inner");
    pub const BACKLOG: Rank = Rank::new(5, "backlog");
    pub const PUBLISH: Rank = Rank::new(6, "publish_lock");
    pub const CALLBACKS: Rank = Rank::new(7, "callbacks");
    pub const HOOKS: Rank = Rank::new(8, "hooks");
    pub const PROFILES: Rank = Rank::new(9, "profiles");
}

/// The schema and the cluster map. Never mutated in place: DDL builds a
/// new layout and swaps it in whole, so a statement reads one snapshot
/// ([`Database::layout`]) for its whole run and holds no lock doing so.
#[derive(Clone, Default)]
pub(crate) struct Layout {
    pub schema: Schema,
    /// class → cluster heap (a cluster is a type extent, §2.5).
    pub clusters: HashMap<ClassId, u32>,
    /// The schema's constraints and trigger bodies, bound.
    rules: LazyRules,
    /// Each class's extents, worked out on first use.
    extents: LazyExtents,
}

/// One class's deep or shallow extent in a layout.
pub(crate) struct Extent {
    /// The heaps it streams, each once, in first-occurrence order.
    pub heaps: Vec<u32>,
    /// The clusters of its classes (two classes sharing a heap count
    /// twice).
    pub clusters: u64,
    /// The classes an object it streams may have: those clustered in
    /// `heaps`, or the class alone for a shallow extent.
    pub members: Vec<ClassId>,
}

/// Every class's `[shallow, deep]` extents, each computed on first use
/// and then kept for the layout's life. A clone is empty: it belongs to a
/// layout whose clusters may differ.
#[derive(Default)]
struct LazyExtents(OnceLock<Box<[[OnceLock<Extent>; 2]]>>);

impl Clone for LazyExtents {
    fn clone(&self) -> Self {
        LazyExtents::default()
    }
}

impl Layout {
    /// Heaps making up the (deep or shallow) extent of `class`.
    pub fn extent_heaps(&self, class: ClassId, deep: bool) -> Vec<(ClassId, u32)> {
        let classes = if deep {
            self.schema.descendants(class)
        } else {
            vec![class]
        };
        classes
            .into_iter()
            .filter_map(|c| self.clusters.get(&c).map(|&h| (c, h)))
            .collect()
    }

    /// The (deep or shallow) extent of `class`, a class of this layout's
    /// schema.
    pub fn extent(&self, class: ClassId, deep: bool) -> &Extent {
        let all = self.extents.0.get_or_init(|| {
            let classes = self.schema.classes().len();
            (0..classes).map(|_| Default::default()).collect()
        });
        all[class.0 as usize][usize::from(deep)].get_or_init(|| self.compute_extent(class, deep))
    }

    fn compute_extent(&self, class: ClassId, deep: bool) -> Extent {
        let clustered = self.extent_heaps(class, deep);
        let heaps = crate::read::dedup_heaps(&clustered);
        let members = if deep {
            let shared = self.clusters.iter().filter(|(_, h)| heaps.contains(h));
            shared.map(|(&c, _)| c).collect()
        } else {
            vec![class]
        };
        Extent {
            clusters: clustered.len() as u64,
            heaps,
            members,
        }
    }

    /// The schema's constraints and trigger bodies, bound once for this
    /// layout.
    pub fn rules(&self) -> &Rules {
        self.rules.get(&self.schema)
    }
}

/// Mutable engine state. Changed only under the exclusive apply gate
/// (publish windows, DDL, method registration), read in leaf sections.
pub(crate) struct DbInner {
    pub layout: Arc<Layout>,
    pub catalog: CatalogState,
    /// The indexes, each covering its class's deep extent.
    pub indexes: Indexes,
    /// Live trigger activations.
    pub activations: HashMap<u64, Activation>,
    /// Subject → activation ids.
    pub activations_by_oid: HashMap<Oid, Vec<u64>>,
}

/// The trigger backlog (DESIGN.md §12): every durable pending event, each
/// either *claimed* by the thread that will dispatch it or *ready*. An
/// event leaves only with its catalog record — drained by its action's
/// commit or dead-lettered by [`Database::ack_pending`] — so
/// `sched.enqueued` = drained + dead letters + what is still here.
#[derive(Default)]
pub(crate) struct Backlog {
    /// Event id → the event, its catalog record, when it became pending.
    pub events: HashMap<u64, (PendingEvent, RecordId, Instant)>,
    /// Ids of the unclaimed events, oldest first.
    pub ready: BTreeSet<u64>,
    /// A scheduler claims the ready events; otherwise committing threads
    /// claim their own at birth and drain the rest (inline).
    pub decoupled: bool,
}

/// Commit-time validation state for optimistic multi-writer concurrency
/// (DESIGN.md §13). Guarded by `Database::commit_gate`; every committing
/// writer holds the gate for the short validate→log→claim section only.
///
/// Stamps record "this thing last changed at epoch E". A committing
/// transaction conflicts when anything it read carries a stamp newer than
/// the epoch at which it observed it. Absent entries pass — which is why
/// pruning may only drop stamps no live (or future) transaction could
/// conflict on.
pub(crate) struct CommitTable {
    /// Highest epoch handed out. Epochs are claimed here (in WAL order)
    /// and published later, in order, by their [`EpochClaim`]s.
    last_claimed: u64,
    /// Epoch of the last DDL (schema/cluster/index change). Every write
    /// transaction validates against it, so DDL conflicts all in-flight
    /// writers that began earlier.
    schema_stamp: u64,
    /// Object → epoch of its last committed write.
    write_stamps: HashMap<Oid, u64>,
    /// Heap → write stamps of the commits that inserted into / deleted
    /// from or updated it (phantom protection for extent scans). Commits
    /// whose ranged-write notes verified stamp key *ranges* instead of
    /// the whole heap, so disjoint-range scanners keep passing.
    heap_stamps: HashMap<u32, HeapStamp>,
    /// Activation id → epoch of the commit that consumed (killed) it.
    /// Prevents two committers from both deleting a once-only activation.
    killed_activations: HashMap<u64, u64>,
}

/// Soft cap on stamp-map size before a claim prunes entries no live or
/// future transaction could conflict on.
const STAMP_PRUNE_THRESHOLD: usize = 8192;

/// Cap on per-heap ranged stamps. Past it the heap collapses to one
/// whole-heap stamp at the newest epoch — strictly more conservative, so
/// always sound — keeping validation cost and memory bounded under a
/// storm of ranged writers.
const RANGED_STAMPS_PER_HEAP: usize = 32;

/// One commit's verified ranged write into a heap, as presented to the
/// validator: every object it wrote had (pre-state) each `ranges` field
/// inside its interval, and only the `assigned` fields changed.
#[derive(Debug, Clone)]
pub(crate) struct RangedWrite {
    /// Pre-state intervals proven for every written object.
    pub ranges: Vec<FieldRange>,
    /// Fields the commit actually changed on those objects (empty for
    /// pure deletes).
    pub assigned: Vec<String>,
}

/// A [`RangedWrite`] remembered in the commit table at its claim epoch.
struct RangedStamp {
    epoch: u64,
    ranges: Vec<FieldRange>,
    assigned: Vec<String>,
}

/// Per-heap phantom-protection stamps: one whole-heap epoch (writes that
/// proved nothing) plus a bounded list of ranged stamps.
#[derive(Default)]
struct HeapStamp {
    /// Epoch of the last unranged write (0 = none since the last prune).
    full: u64,
    /// Ranged writes newer than `full`.
    ranged: Vec<RangedStamp>,
}

/// The read/write footprint a committing transaction presents for
/// validation (see [`CommitTable`]). Epoch values are the publish epoch
/// observed when that item was *first* read.
pub(crate) struct WriteSummary<'a> {
    /// Publish epoch when the transaction began.
    pub begin_epoch: u64,
    /// Object → epoch at first read.
    pub read_set: &'a HashMap<Oid, u64>,
    /// Heap → scan entry at first extent scan (phantom protection;
    /// ranged entries carry the predicate-proven intervals).
    pub scan_set: &'a HashMap<u32, ScanEntry>,
    /// Objects this commit writes or deletes (logical anchor oids).
    pub write_oids: &'a [Oid],
    /// Activation ids this commit kills (once-only firings, deactivations).
    pub kills: &'a [u64],
    /// Heap → verified ranged writes (see
    /// `Transaction::verify_ranged_writes`). Heaps absent here stamp the
    /// whole heap, as before.
    pub heap_ranges: &'a HashMap<u32, Vec<RangedWrite>>,
}

/// An epoch claimed from the [`CommitTable`]. Epochs publish in claim
/// order, so one that never published would stall every later committer
/// behind it: a claim therefore publishes itself when dropped — after
/// waiting its turn, on success, error and panic alike (DESIGN.md §13).
pub(crate) struct EpochClaim<'db> {
    db: &'db Database,
    pub(crate) epoch: u64,
    /// The exclusive apply gate, once the publish window is open.
    window: Option<RwLockWriteGuard<'db, ()>>,
}

impl EpochClaim<'_> {
    /// Wait until every earlier epoch has published, then take the apply
    /// gate exclusively: the publish window, closed by the drop, which
    /// publishes this epoch before it releases the gate.
    pub(crate) fn open_window(mut self) -> Self {
        self.db.wait_turn(self.epoch);
        self.window = Some(self.db.apply_gate.write());
        self
    }
}

impl Drop for EpochClaim<'_> {
    fn drop(&mut self) {
        let db = self.db;
        if self.window.is_none() {
            db.wait_turn(self.epoch);
        }
        let _g = db.publish_lock.lock();
        db.commit_epoch.store(self.epoch, Ordering::Release);
        db.publish_cv.notify_all();
    }
}

/// An Ode database: "a collection of persistent objects" (§2) plus the
/// schema, clusters, indexes, and active triggers that govern them.
pub struct Database {
    pub(crate) store: Arc<dyn Store>,
    pub(crate) inner: RwLock<DbInner>,
    /// Commit gate: the short critical section in which a committing
    /// writer validates its read set, appends its WAL group, and claims
    /// the next epoch. Never held across fsync or page apply.
    pub(crate) commit_gate: Mutex<CommitTable>,
    /// Begin-epoch → count of live write transactions that began there.
    /// Bounds stamp-map pruning in [`CommitTable`].
    pub(crate) active_txns: Mutex<BTreeMap<u64, usize>>,
    /// Serializes epoch publication: committers wait here until every
    /// earlier-claimed epoch has published, so `commit_epoch` only ever
    /// moves through the claimed sequence in order.
    pub(crate) publish_lock: Mutex<()>,
    pub(crate) publish_cv: Condvar,
    /// Apply gate: snapshot readers hold the shared side for their whole
    /// lifetime; a committing writer (or DDL) takes the exclusive side only
    /// around the publish window (store commit + in-memory index update).
    pub(crate) apply_gate: RwLock<()>,
    /// Bumped once per published commit/DDL; lets snapshot readers detect
    /// staleness ([`ReadTransaction::is_stale`]).
    pub(crate) commit_epoch: AtomicU64,
    pub(crate) callbacks: RwLock<HashMap<String, CallbackFn>>,
    pub(crate) next_activation_id: AtomicU64,
    /// Ids for durable pending-trigger events.
    pub(crate) next_event_id: AtomicU64,
    /// The one trigger backlog.
    pub(crate) backlog: Mutex<Backlog>,
    /// Set while inline mode has ready events: tells the next commit to
    /// drain them at the cost of one relaxed load when clear. Only a hint;
    /// the events themselves are read under the backlog lock.
    pub(crate) inline_backlog: AtomicBool,
    /// When installed, notified with each published commit's write set
    /// (live subscriptions).
    pub(crate) commit_observer: RwLock<Option<CommitObserver>>,
    /// Scheduler status hook for `.triggers` (queue depth, dead letters…).
    pub(crate) sched_hook: RwLock<Option<SchedStatusFn>>,
    pub(crate) config: DbConfig,
    /// Engine-wide counters; every layer increments through relaxed atomics.
    pub(crate) tel: EngineTelemetry,
    /// Always-on flight recorder: the last N structured spans, ring-
    /// buffered in bounded memory, dumpable on panic or via `.trace`.
    pub(crate) flight: Arc<FlightRecorder>,
    /// Statements slower than the configured threshold, with their plans
    /// and per-stage span timings.
    pub(crate) slowlog: SlowQueryLog,
    /// Accumulated per-query-shape profiles, by target and then strategy.
    /// A pass finds its bucket under the read lock and updates it under the
    /// bucket's own; only a new shape takes the write lock.
    pub(crate) profiles: RwLock<ProfileShapes>,
    pub(crate) next_txn_serial: AtomicU64,
}

impl Database {
    /// Open (creating if absent) a durable database in `dir`.
    pub fn open(dir: &Path) -> Result<Database> {
        let store = FileStore::open(dir)?;
        Self::from_store(Arc::new(store), DbConfig::default())
    }

    /// Open a durable database with custom configuration.
    pub fn open_with(
        dir: &Path,
        store_opts: ode_storage::filestore::FileStoreOptions,
        config: DbConfig,
    ) -> Result<Database> {
        let store = FileStore::open_with(dir, store_opts)?;
        Self::from_store(Arc::new(store), config)
    }

    /// A volatile in-memory database (tests, benchmarks, scratch work).
    pub fn in_memory() -> Database {
        Self::from_store(Arc::new(MemStore::new()), DbConfig::default())
            .expect("in-memory open cannot fail")
    }

    /// Build a database over any store implementation.
    pub fn from_store(store: Arc<dyn Store>, config: DbConfig) -> Result<Database> {
        let flight = Arc::new(FlightRecorder::default());
        // Recovery runs before any request exists, so its span belongs to
        // the background (zero) trace.
        let mut recovery_span = flight.span(SpanStage::Recovery, "catalog replay");
        if !store.has_heap(CATALOG_HEAP) {
            let id = store.create_heap()?;
            if id != CATALOG_HEAP {
                return Err(OdeError::Usage(format!(
                    "store is not fresh: first heap id {id} != {CATALOG_HEAP}"
                )));
            }
        }
        let mut layout = Layout::default();
        let mut inner = DbInner {
            layout: Arc::default(),
            catalog: CatalogState::default(),
            indexes: Indexes::default(),
            activations: HashMap::new(),
            activations_by_oid: HashMap::new(),
        };
        let mut backlog = Backlog::default();

        // Replay the catalog in record-id order: classes are re-defined in
        // their original definition order, so base resolution always works.
        let mut records = Vec::new();
        store.scan(CATALOG_HEAP, &mut |rid, bytes| {
            records.push((rid, bytes.to_vec()));
            Ok(true)
        })?;
        let mut max_activation = 0u64;
        let mut max_event = 0u64;
        let mut index_decls = Vec::new();
        let mut replayed = 0usize;
        for (rid, bytes) in records {
            replayed += 1;
            let Some(record) = CatalogRecord::decode(&bytes)? else {
                continue;
            };
            match record {
                CatalogRecord::Class(class_bytes) => {
                    let builder = decode_class(&class_bytes)?;
                    let name = builder.name().to_string();
                    layout.schema.define(builder)?;
                    inner.catalog.class_rids.insert(name, rid);
                }
                CatalogRecord::Cluster { class_name, heap } => {
                    let class = layout.schema.id_of(&class_name)?;
                    layout.clusters.insert(class, heap);
                    inner.catalog.cluster_rids.insert(class_name, rid);
                }
                CatalogRecord::Index { class_name, field } => {
                    let class = layout.schema.id_of(&class_name)?;
                    index_decls.push((class, field.clone()));
                    inner.catalog.index_rids.insert((class_name, field), rid);
                }
                CatalogRecord::Activation {
                    id,
                    oid,
                    trigger,
                    args,
                } => {
                    max_activation = max_activation.max(id);
                    inner.activations.insert(
                        id,
                        Activation {
                            id,
                            oid,
                            trigger,
                            args,
                        },
                    );
                    inner.activations_by_oid.entry(oid).or_default().push(id);
                    inner.catalog.activation_rids.insert(id, rid);
                }
                CatalogRecord::Pending(e) => {
                    max_event = max_event.max(e.id);
                    backlog.ready.insert(e.id);
                    backlog.events.insert(e.id, (e, rid, Instant::now()));
                }
            }
        }

        // Rebuild indexes by scanning extents.
        for (class, field) in index_decls {
            let ix = build_index(store.as_ref(), &layout, class, &field)?;
            inner.indexes.insert(class, field, ix);
        }
        inner.layout = Arc::new(layout);
        recovery_span.set_detail(format!("{replayed} catalog records"));
        drop(recovery_span);
        // The recovered backlog is counted once, here, and left ready for
        // the first commit or a scheduler: callbacks register after open.
        let tel = EngineTelemetry::default();
        tel.sched.enqueued.add(backlog.events.len() as u64);

        Ok(Database {
            store,
            inner: RwLock::ranked(rank::INNER, inner),
            commit_gate: Mutex::ranked(
                rank::COMMIT_GATE,
                CommitTable {
                    last_claimed: 0,
                    schema_stamp: 0,
                    write_stamps: HashMap::new(),
                    heap_stamps: HashMap::new(),
                    killed_activations: HashMap::new(),
                },
            ),
            active_txns: Mutex::ranked(rank::ACTIVE_TXNS, BTreeMap::new()),
            publish_lock: Mutex::ranked(rank::PUBLISH, ()),
            publish_cv: Condvar::new(),
            apply_gate: RwLock::ranked(rank::APPLY_GATE, ()),
            commit_epoch: AtomicU64::new(0),
            callbacks: RwLock::ranked(rank::CALLBACKS, HashMap::new()),
            next_activation_id: AtomicU64::new(max_activation + 1),
            next_event_id: AtomicU64::new(max_event + 1),
            inline_backlog: AtomicBool::new(!backlog.ready.is_empty()),
            backlog: Mutex::ranked(rank::BACKLOG, backlog),
            commit_observer: RwLock::ranked(rank::HOOKS, None),
            sched_hook: RwLock::ranked(rank::HOOKS, None),
            slowlog: SlowQueryLog::default(),
            config,
            tel,
            flight,
            profiles: RwLock::ranked(rank::PROFILES, HashMap::new()),
            next_txn_serial: AtomicU64::new(1),
        })
    }

    // ------------------------------------------------------------- DDL

    /// Define classes from O++-flavoured declaration source (see
    /// [`ode_model::ddl`]), in order. Returns the new class ids.
    ///
    /// ```text
    /// db.define_from_source(r#"
    ///     class person { string name; int income = 0; }
    ///     class student : public person { int stipend = 0; }
    /// "#)?;
    /// ```
    pub fn define_from_source(&self, src: &str) -> Result<Vec<ClassId>> {
        let builders = ode_model::parse_classes(src)?;
        let mut ids = Vec::with_capacity(builders.len());
        for b in builders {
            ids.push(self.define_class(b)?);
        }
        Ok(ids)
    }

    /// Define a class (auto-commits its catalog record).
    ///
    /// The static analyzer runs first (DESIGN.md §9): the definition is
    /// applied to a scratch copy of the schema and the schema-level
    /// passes (§5 constraint contradictions, §6 trigger cycles, type
    /// checks) must come back clean before anything touches the catalog.
    pub fn define_class(&self, builder: ClassBuilder) -> Result<ClassId> {
        // Definition errors (duplicate class, unknown base, bad field
        // refs) are reported by the real `define` below with their
        // original error type; only analyzer findings reject here.
        self.gate(&Statement::Class(vec![builder.clone()]), "")?;
        self.define_class_unchecked(builder)
    }

    /// Define a class whose analysis the caller has already run
    /// ([`Database::gate`] over the whole `class …` statement) — the
    /// second half of [`Database::define_class`].
    pub(crate) fn define_class_unchecked(&self, builder: ClassBuilder) -> Result<ClassId> {
        // DDL claims an epoch and stamps the schema (conflicting every
        // in-flight writer that began earlier), then runs in the claim's
        // publish window. The claim publishes itself on every path out
        // (DESIGN.md §13), and the new layout is swapped in only once the
        // catalog record is durable, so a failed DDL leaves no trace.
        let _window = self.claim_schema_epoch().open_window();
        let mut layout = Layout::clone(&self.layout());
        let name = builder.name().to_string();
        let id = layout.schema.define(builder)?;
        let bytes = encode_class(&layout.schema, layout.schema.class(id)?)?;
        let rid = self.put_catalog(CatalogRecord::Class(bytes))?;
        let mut inner = self.inner.write();
        inner.layout = Arc::new(layout);
        inner.catalog.class_rids.insert(name, rid);
        Ok(id)
    }

    /// Create the cluster (type extent) for `class_name` — the paper's
    /// `create` macro (§2.5). Idempotent: re-creating returns the existing
    /// cluster.
    pub fn create_cluster(&self, class_name: &str) -> Result<u32> {
        // Checked before and again inside the window: the idempotent
        // re-create claims no epoch.
        let existing = |layout: &Layout| -> Result<Option<u32>> {
            let class = layout.schema.id_of(class_name)?;
            Ok(layout.clusters.get(&class).copied())
        };
        if let Some(heap) = existing(&self.layout())? {
            return Ok(heap);
        }
        let _window = self.claim_schema_epoch().open_window();
        let mut layout = Layout::clone(&self.layout());
        if let Some(heap) = existing(&layout)? {
            return Ok(heap);
        }
        let class = layout.schema.id_of(class_name)?;
        let heap = self.store.create_heap()?;
        let rid = self.put_catalog(CatalogRecord::Cluster {
            class_name: class_name.to_string(),
            heap,
        })?;
        layout.clusters.insert(class, heap);
        let mut inner = self.inner.write();
        inner.layout = Arc::new(layout);
        inner
            .catalog
            .cluster_rids
            .insert(class_name.to_string(), rid);
        Ok(heap)
    }

    /// Does `class_name` have a cluster?
    pub fn has_cluster(&self, class_name: &str) -> bool {
        let layout = self.layout();
        layout
            .schema
            .id_of(class_name)
            .is_ok_and(|c| layout.clusters.contains_key(&c))
    }

    /// Destroy a cluster and every object in it. Activations on its objects
    /// are dropped. Objects elsewhere holding references to these objects
    /// are left with dangling refs (dereferencing reports "no such
    /// object"), exactly like `pdelete` of an individual object.
    pub fn destroy_cluster(&self, class_name: &str) -> Result<()> {
        let _window = self.claim_schema_epoch().open_window();
        let mut layout = Layout::clone(&self.layout());
        let class = layout.schema.id_of(class_name)?;
        let Some(heap) = layout.clusters.remove(&class) else {
            return Err(OdeError::NoSuchCluster(class_name.to_string()));
        };
        // Catalog updates: drop the cluster record and activation records
        // of subjects in this cluster. Nothing else changes `inner` while
        // the window is open, so what is read here still holds at the swap.
        let (dead, ops) = {
            let inner = self.inner.read();
            let dead: Vec<u64> = inner
                .activations
                .values()
                .filter(|a| a.oid.cluster == heap)
                .map(|a| a.id)
                .collect();
            let rids = inner.catalog.cluster_rids.get(class_name).into_iter();
            let rids = rids.chain(
                dead.iter()
                    .filter_map(|id| inner.catalog.activation_rids.get(id)),
            );
            let ops: Vec<StoreOp> = rids
                .map(|&rid| StoreOp::Delete {
                    heap: CATALOG_HEAP,
                    rid,
                })
                .collect();
            (dead, ops)
        };
        self.store.commit(ops)?;
        self.store.drop_heap(heap)?;
        // Rebuild any index whose deep extent included this cluster.
        let rebuild: Vec<(ClassId, String)> = self
            .inner
            .read()
            .indexes
            .keys()
            .filter(|(c, _)| layout.schema.is_subclass(class, *c))
            .map(|(c, f)| (c, f.to_string()))
            .collect();
        let mut rebuilt = Vec::with_capacity(rebuild.len());
        for key in rebuild {
            let ix = build_index(self.store.as_ref(), &layout, key.0, &key.1)?;
            rebuilt.push((key, ix));
        }
        let mut inner = self.inner.write();
        inner.layout = Arc::new(layout);
        inner.catalog.cluster_rids.remove(class_name);
        for id in dead {
            inner.catalog.activation_rids.remove(&id);
            if let Some(a) = inner.activations.remove(&id) {
                if let Some(v) = inner.activations_by_oid.get_mut(&a.oid) {
                    v.retain(|&x| x != id);
                }
            }
        }
        for ((class, field), ix) in rebuilt {
            inner.indexes.insert(class, field, ix);
        }
        Ok(())
    }

    /// Declare (and build) a secondary index on `class_name.field`,
    /// covering the class's deep extent.
    pub fn create_index(&self, class_name: &str, field: &str) -> Result<()> {
        // Checked before and again inside the window: bad names fail
        // cheaply and idempotent re-creates claim no epoch.
        let exists = |layout: &Layout| -> Result<bool> {
            let class = layout.schema.id_of(class_name)?;
            layout.schema.class(class)?.field_index(field)?;
            Ok(self.inner.read().indexes.get(class, field).is_some())
        };
        if exists(&self.layout())? {
            return Ok(());
        }
        let _window = self.claim_schema_epoch().open_window();
        let layout = self.layout();
        if exists(&layout)? {
            return Ok(());
        }
        let class = layout.schema.id_of(class_name)?;
        let rid = self.put_catalog(CatalogRecord::Index {
            class_name: class_name.to_string(),
            field: field.to_string(),
        })?;
        let ix = build_index(self.store.as_ref(), &layout, class, field)?;
        let mut inner = self.inner.write();
        inner
            .catalog
            .index_rids
            .insert((class_name.to_string(), field.to_string()), rid);
        inner.indexes.insert(class, field.to_string(), ix);
        Ok(())
    }

    /// Write one catalog record in its own store batch at a freshly
    /// reserved rid, and return where it landed.
    fn put_catalog(&self, rec: CatalogRecord) -> Result<RecordId> {
        let data = rec.encode();
        let rid = self.store.reserve(CATALOG_HEAP, data.len())?;
        self.store.commit(vec![StoreOp::Put {
            heap: CATALOG_HEAP,
            rid,
            data,
        }])?;
        Ok(rid)
    }

    /// Register an O++ member function as a Rust closure. Methods are code:
    /// they are re-registered each open (only their *use sites* — constraint
    /// and trigger sources — persist).
    pub fn register_method(
        &self,
        class_name: &str,
        method: &str,
        f: impl Fn(&ObjState, &[Value]) -> ode_model::Result<Value> + Send + Sync + 'static,
    ) -> Result<()> {
        // A new layout like any DDL, swapped under the exclusive apply gate
        // so no snapshot reader sees the method appear mid-statement.
        let _apply = self.apply_gate.write();
        let mut layout = Layout::clone(&self.layout());
        let class = layout.schema.id_of(class_name)?;
        layout.schema.register_method(class, method, f);
        self.inner.write().layout = Arc::new(layout);
        Ok(())
    }

    /// Register a host callback invocable from trigger actions.
    pub fn register_callback(
        &self,
        name: &str,
        f: impl Fn(&mut Transaction<'_>, Oid, &[Value]) -> Result<()> + Send + Sync + 'static,
    ) {
        self.callbacks.write().insert(name.to_string(), Arc::new(f));
    }

    // ----------------------------------------------------------- access

    /// Begin a (write) transaction. Any number run concurrently: each
    /// buffers its writes locally and validates its reads at commit time,
    /// aborting with [`OdeError::WriteConflict`] (transient — retry) when
    /// a concurrent commit overlapped them (DESIGN.md §13).
    pub fn begin(&self) -> Transaction<'_> {
        Transaction::new(self, 0)
    }

    /// Begin a snapshot read transaction. Read transactions never touch
    /// the writer gate: any number run concurrently with each other, and
    /// a writer blocks them only for the short window in which it
    /// publishes a commit. The snapshot is pinned for the reader's whole
    /// lifetime — no commit can land while it is open.
    ///
    /// Caveat: do not commit a write transaction (or run DDL) on a thread
    /// that still holds an open `ReadTransaction` — the publish window
    /// needs the apply gate exclusively and would self-deadlock (a panic
    /// in debug builds, which check lock order).
    pub fn begin_read(&self) -> ReadTransaction<'_> {
        ReadTransaction::new(self)
    }

    /// Run `f` in a snapshot read transaction. (The reference is mutable
    /// only because the `forall` builder borrows its transaction mutably;
    /// nothing in a read transaction mutates the database.)
    pub fn read<R>(&self, f: impl FnOnce(&mut ReadTransaction<'_>) -> Result<R>) -> Result<R> {
        let mut rtx = self.begin_read();
        f(&mut rtx)
    }

    /// The current commit epoch: bumped once per published commit or DDL
    /// operation. [`ReadTransaction::is_stale`] compares against this.
    pub fn commit_epoch(&self) -> u64 {
        self.commit_epoch.load(Ordering::Acquire)
    }

    // -------------------------------------------- multi-writer commit

    /// Register a beginning write transaction and return its begin epoch.
    /// Holding the `active_txns` lock across the epoch load closes the
    /// race with stamp pruning: a pruner cannot compute its floor between
    /// our epoch capture and our registration.
    pub(crate) fn register_txn(&self) -> u64 {
        let mut g = self.active_txns.lock();
        let epoch = self.commit_epoch.load(Ordering::Acquire);
        *g.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Deregister a write transaction (commit, abort, or drop).
    pub(crate) fn deregister_txn(&self, begin_epoch: u64) {
        let mut g = self.active_txns.lock();
        if let Some(n) = g.get_mut(&begin_epoch) {
            *n -= 1;
            if *n == 0 {
                g.remove(&begin_epoch);
            }
        }
    }

    /// The commit gate's critical section: validate `w` against the
    /// [`CommitTable`], append the batch to the WAL (no fsync — that is
    /// the cohort's shared phase 2), claim the next epoch, and stamp the
    /// write set. Returns the claimed epoch and the prepared ticket; on
    /// [`OdeError::WriteConflict`] or storage failure nothing was claimed
    /// or stamped, so the caller may rebuild and retry.
    pub(crate) fn claim_commit(
        &self,
        w: &WriteSummary<'_>,
        ops: Vec<StoreOp>,
    ) -> Result<(EpochClaim<'_>, CommitTicket)> {
        let wait_start = std::time::Instant::now();
        let mut table = self.commit_gate.lock();
        self.tel
            .txn
            .gate_wait
            .record_ns(wait_start.elapsed().as_nanos() as u64);

        let conflict = |what: String| {
            self.tel.txn.conflicts.inc();
            Err(OdeError::WriteConflict { what })
        };
        if table.schema_stamp > w.begin_epoch {
            return conflict("schema change".into());
        }
        for (oid, &observed) in w.read_set {
            if table.write_stamps.get(oid).is_some_and(|&s| s > observed) {
                return conflict(format!("object {oid}"));
            }
        }
        for (heap, entry) in w.scan_set {
            let Some(stamp) = table.heap_stamps.get(heap) else {
                continue;
            };
            if stamp.full > entry.epoch {
                self.bump_pressure();
                return conflict(format!("extent of cluster {heap}"));
            }
            match &entry.ranges {
                // An unranged (whole-extent) scan conflicts with any newer
                // write to the heap, ranged or not.
                None => {
                    if stamp.ranged.iter().any(|rs| rs.epoch > entry.epoch) {
                        self.bump_pressure();
                        return conflict(format!("extent of cluster {heap}"));
                    }
                }
                // A ranged scan may skip a newer ranged write if some field
                // is constrained on both sides to provably disjoint
                // intervals — and the writer did not assign that field (a
                // reassigned field's post-state escapes its pre-range).
                Some(ranges) => {
                    let mut narrowed = false;
                    for rs in &stamp.ranged {
                        if rs.epoch <= entry.epoch {
                            continue;
                        }
                        let invisible = ranges.iter().any(|fr| {
                            !rs.assigned.contains(&fr.field)
                                && rs
                                    .ranges
                                    .iter()
                                    .any(|wr| wr.field == fr.field && wr.range.disjoint(&fr.range))
                        });
                        if !invisible {
                            self.bump_pressure();
                            return conflict(format!("extent of cluster {heap}"));
                        }
                        narrowed = true;
                    }
                    if narrowed {
                        self.tel.txn.narrowed_validations.inc();
                    }
                }
            }
        }
        for id in w.kills {
            if table
                .killed_activations
                .get(id)
                .is_some_and(|&s| s > w.begin_epoch)
            {
                return conflict(format!("trigger activation {id}"));
            }
        }
        // Blind writes (not read first) validate against the begin epoch.
        for oid in w.write_oids {
            if !w.read_set.contains_key(oid)
                && table
                    .write_stamps
                    .get(oid)
                    .is_some_and(|&s| s > w.begin_epoch)
            {
                return conflict(format!("object {oid}"));
            }
        }

        // Append inside the gate so WAL order equals epoch order: crash
        // recovery then replays a consistent epoch-order prefix. Transient
        // append failures retry here (the WAL rolled its tail back);
        // nothing is claimed until the append lands.
        let max_retries = self.config.commit_retries;
        let mut attempt = 0;
        let mut ops = Some(ops);
        let ticket = loop {
            // Clone only while a retry remains; the last attempt moves.
            let batch = if attempt < max_retries {
                ops.as_ref().expect("ops kept while retries remain").clone()
            } else {
                ops.take().expect("ops moved only on the final attempt")
            };
            match self.store.commit_prepare(batch) {
                Ok(t) => break t,
                Err(e) if e.is_transient() && attempt < max_retries => {
                    attempt += 1;
                    self.tel.txn.commit_retries.inc();
                }
                Err(e) => return Err(e.into()),
            }
        };

        let claim = self.claim_epoch(&mut table);
        let epoch = claim.epoch;
        // A successful claim drains contention pressure (see
        // `bump_pressure`); both run under the commit gate.
        self.tel.txn.conflict_pressure.dec();
        for oid in w.write_oids {
            table.write_stamps.insert(*oid, epoch);
        }
        let mut ranged_stamped: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for op in &ticket.ops {
            let (heap, rid) = match op {
                StoreOp::Put { heap, rid, .. } | StoreOp::Delete { heap, rid } => (*heap, *rid),
            };
            table.write_stamps.insert(Oid { cluster: heap, rid }, epoch);
            let hs = table.heap_stamps.entry(heap).or_default();
            match w.heap_ranges.get(&heap) {
                // Every write this commit made to the heap fits inside the
                // verified ranges: stamp them individually so disjoint-key
                // readers can validate past this epoch. Once per heap.
                Some(writes) if !writes.is_empty() => {
                    if ranged_stamped.insert(heap) {
                        for rw in writes {
                            hs.ranged.push(RangedStamp {
                                epoch,
                                ranges: rw.ranges.clone(),
                                assigned: rw.assigned.clone(),
                            });
                        }
                        if hs.ranged.len() > RANGED_STAMPS_PER_HEAP {
                            // Collapse rather than grow without bound; the
                            // full stamp at this epoch subsumes every entry.
                            hs.full = epoch;
                            hs.ranged.clear();
                        }
                    }
                }
                // Unranged write: the full stamp at this (newest) epoch
                // subsumes every older ranged stamp.
                _ => {
                    hs.full = epoch;
                    hs.ranged.clear();
                }
            }
        }
        for id in w.kills {
            table.killed_activations.insert(*id, epoch);
        }
        if table.write_stamps.len() > STAMP_PRUNE_THRESHOLD {
            self.prune_stamps(&mut table);
        }
        Ok((claim, ticket))
    }

    /// Raise the footprint-overlap pressure gauge. Called (under the
    /// commit gate) on each extent/scan validation failure — the
    /// conflicts that signal writers piling onto one heap. Successful
    /// claims decay it, and `transaction` stretches its retry backoff
    /// while it is high, so contention drains instead of thrashing.
    /// Capped so the extra backoff shift stays bounded.
    fn bump_pressure(&self) {
        let g = &self.tel.txn.conflict_pressure;
        if g.get() < 16 {
            g.inc();
        }
    }

    /// Drop stamps no live or future transaction could conflict on: a
    /// stamp at or below every active begin epoch *and* the current
    /// published epoch always validates as "pass", so absence is
    /// equivalent. (Future transactions begin at or above the published
    /// epoch, which is why it joins the floor.)
    fn prune_stamps(&self, table: &mut CommitTable) {
        let active = self.active_txns.lock();
        let floor = active
            .keys()
            .next()
            .copied()
            .unwrap_or(u64::MAX)
            .min(self.commit_epoch.load(Ordering::Acquire));
        drop(active);
        table.write_stamps.retain(|_, &mut s| s > floor);
        table.heap_stamps.retain(|_, hs| {
            hs.ranged.retain(|r| r.epoch > floor);
            hs.full > floor || !hs.ranged.is_empty()
        });
        table.killed_activations.retain(|_, &mut s| s > floor);
    }

    /// Claim an epoch for a DDL operation and stamp the schema: every
    /// write transaction that began earlier will conflict at validation
    /// and retry against the new catalog.
    pub(crate) fn claim_schema_epoch(&self) -> EpochClaim<'_> {
        let mut table = self.commit_gate.lock();
        let claim = self.claim_epoch(&mut table);
        table.schema_stamp = claim.epoch;
        claim
    }

    /// Hand out the next epoch (under the commit gate).
    fn claim_epoch(&self, table: &mut CommitTable) -> EpochClaim<'_> {
        table.last_claimed += 1;
        EpochClaim {
            db: self,
            epoch: table.last_claimed,
            window: None,
        }
    }

    /// Block until every epoch before `epoch` has published. Claims are
    /// totally ordered, so exactly one thread waits for each value.
    fn wait_turn(&self, epoch: u64) {
        let mut g = self.publish_lock.lock();
        while self.commit_epoch.load(Ordering::Acquire) != epoch - 1 {
            self.publish_cv.wait(&mut g);
        }
    }

    /// Run `f` in a transaction: commit on `Ok`, abort on `Err`. A commit
    /// that loses optimistic validation ([`OdeError::WriteConflict`]) is
    /// retried from scratch up to `CONFLICT_RETRIES` (32) times with
    /// exponential backoff — `f` must therefore be safe to re-run (it sees
    /// a fresh transaction each attempt).
    pub fn transaction<R>(
        &self,
        mut f: impl FnMut(&mut Transaction<'_>) -> Result<R>,
    ) -> Result<R> {
        let mut attempt: u32 = 0;
        loop {
            let mut tx = self.begin();
            match f(&mut tx) {
                Ok(r) => match tx.commit() {
                    Ok(_) => return Ok(r),
                    Err(OdeError::WriteConflict { .. }) if attempt < CONFLICT_RETRIES => {
                        attempt += 1;
                        self.tel.txn.commit_retries.inc();
                        // Exponential backoff, capped low: losers yield so
                        // a winner publishes, preventing validation
                        // livelock between extent-scanning writers. The
                        // conflict-pressure gauge adds up to two extra
                        // doublings when many writers are piling onto the
                        // same heaps (each scan conflict raises it, each
                        // successful claim drains it).
                        let pressure = (self.tel.txn.conflict_pressure.get() / 8).min(2) as u32;
                        let us = 50u64.saturating_mul(1 << (attempt + pressure).min(8));
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    tx.abort();
                    return Err(e);
                }
            }
        }
    }

    /// Names of all declared indexes, as `(class, field)` pairs.
    pub fn index_names(&self) -> Vec<(String, String)> {
        let layout = self.layout();
        let mut out: Vec<(String, String)> = self
            .index_keys()
            .into_iter()
            .filter_map(|(class, field)| {
                let class = layout.schema.class(class).ok()?;
                Some((class.name.clone(), field))
            })
            .collect();
        out.sort();
        out
    }

    /// The `(class, field)` pairs that have an index.
    pub(crate) fn index_keys(&self) -> Vec<(ClassId, String)> {
        let inner = self.inner.read();
        inner
            .indexes
            .keys()
            .map(|(c, f)| (c, f.to_string()))
            .collect()
    }

    /// The current schema and cluster map: an immutable snapshot, read
    /// with no lock held however long the caller keeps it.
    pub(crate) fn layout(&self) -> Arc<Layout> {
        self.inner.read().layout.clone()
    }

    /// Run `f` over a snapshot of the schema (no engine lock is held
    /// while it runs).
    pub fn with_schema<R>(&self, f: impl FnOnce(&Schema) -> R) -> R {
        f(&self.layout().schema)
    }

    /// Test-only: the heap ids backing `class_name`'s (deep or shallow)
    /// extent — the footprint soundness oracle maps observed scan-set
    /// entries back to the clusters the analyzer predicted.
    #[doc(hidden)]
    pub fn extent_heap_ids(&self, class_name: &str, deep: bool) -> Result<Vec<u32>> {
        let layout = self.layout();
        let class = layout.schema.id_of(class_name)?;
        Ok(layout.extent(class, deep).heaps.clone())
    }

    /// Number of objects in the (deep) extent of `class_name`.
    pub fn extent_size(&self, class_name: &str, deep: bool) -> Result<usize> {
        let layout = self.layout();
        let class = layout.schema.id_of(class_name)?;
        let mut n = 0usize;
        for (_, heap) in layout.extent_heaps(class, deep) {
            self.store.scan(heap, &mut |_, bytes| {
                if is_anchor(bytes) {
                    n += 1;
                }
                Ok(true)
            })?;
        }
        Ok(n)
    }

    // ------------------------------------------------------- telemetry

    /// Snapshot every engine and substrate counter. Snapshots are plain
    /// data: subtract two with [`TelemetrySnapshot::delta`] to measure a
    /// workload, or serialize with [`TelemetrySnapshot::to_json`].
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let s = self.store.stats();
        self.tel.snapshot(StorageSnapshot {
            pager_hits: s.pager.hits,
            pager_misses: s.pager.misses,
            pager_evictions: s.pager.evictions,
            pager_writebacks: s.pager.writebacks,
            record_reads: s.record_reads,
            record_writes: s.record_writes,
            wal_appends: s.wal_appends,
            wal_fsyncs: s.wal_fsyncs,
            wal_bytes: s.wal_bytes,
            commits: s.commits,
            replayed_groups: s.replayed_groups,
            faults_injected: s.faults_injected,
            checkpoint_failures: s.checkpoint_failures,
            commit_groups: s.commit_groups,
            commit_group_members: s.commit_group_members,
        })
    }

    /// Zero every engine and substrate counter and drop the accumulated
    /// per-query profiles (benches and the shell's `.stats reset` measure
    /// deltas between phases; long-lived servers reset periodically so
    /// telemetry does not grow without bound).
    pub fn reset_telemetry(&self) {
        self.tel.reset();
        self.store.reset_stats();
        self.profiles.write().clear();
    }

    /// Absorb one executed query pass into the per-shape profile buckets.
    pub(crate) fn record_query_pass(&self, pass: &QueryProfile) {
        let absorb = |bucket: &Mutex<ProfileBucket>| {
            let mut bucket = bucket.lock();
            bucket.passes += 1;
            bucket.profile.absorb(pass);
        };
        let bucket = |map: &ProfileShapes| {
            let shapes = map.get(pass.target.as_str())?;
            let found = shapes.iter().find(|(s, _)| *s == pass.strategy);
            found.map(|(_, bucket)| absorb(bucket))
        };
        if bucket(&self.profiles.read()).is_some() {
            return;
        }
        let mut map = self.profiles.write();
        // Another pass may have added the shape since the read.
        if bucket(&map).is_some() {
            return;
        }
        if map.values().map(Vec::len).sum::<usize>() >= MAX_PROFILE_BUCKETS {
            return; // at capacity: existing buckets keep accumulating
        }
        let shapes = map.entry(pass.target.clone()).or_default();
        shapes.push((pass.strategy.clone(), Mutex::new(ProfileBucket::default())));
        absorb(&shapes[shapes.len() - 1].1);
    }

    /// Accumulated per-query-shape profiles since open (or the last
    /// [`Database::reset_telemetry`]), sorted by shape key
    /// (`target | strategy`). Bounded at [`MAX_PROFILE_BUCKETS`] distinct
    /// shapes.
    pub fn query_profiles(&self) -> Vec<(String, ProfileBucket)> {
        let map = self.profiles.read();
        let mut out: Vec<(String, ProfileBucket)> = map
            .iter()
            .flat_map(|(target, shapes)| {
                shapes.iter().map(move |(strategy, bucket)| {
                    (format!("{target} | {strategy}"), bucket.lock().clone())
                })
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    // --------------------------------------------------- observability

    /// The always-on flight recorder: the last N spans of every request,
    /// in bounded memory. Inspect with [`FlightRecorder::for_trace`] /
    /// [`FlightRecorder::recent_traces`], or render with
    /// [`ode_obs::render_spans`].
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// The slow-query log (statements over the configured threshold).
    pub fn slow_log(&self) -> &SlowQueryLog {
        &self.slowlog
    }

    /// Drop cached pages (benchmarks: cold-cache runs).
    pub fn clear_cache(&self) -> Result<()> {
        Ok(self.store.clear_cache()?)
    }

    /// Flush everything and truncate the WAL. Safe beside committing
    /// writers: a checkpoint never truncates a group that is logged but
    /// not yet applied (the [`FileStore`]'s prepared-commit barrier), and
    /// a failed store refuses it (DESIGN.md §13).
    ///
    /// [`FileStore`]: ode_storage::FileStore
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.store.checkpoint()?)
    }

    pub(crate) fn callback(&self, name: &str) -> Result<CallbackFn> {
        self.callbacks
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| OdeError::Trigger(format!("no callback registered as `{name}`")))
    }

    pub(crate) fn alloc_activation_id(&self) -> u64 {
        self.next_activation_id.fetch_add(1, Ordering::Relaxed)
    }

    // ----------------------------------------------------------- firing

    /// Switch the firing mode. Decoupled (a scheduler is attached):
    /// commits leave their events ready for [`Database::claim_ready`] and
    /// report them in [`crate::CommitInfo::enqueued`]. Inline (the
    /// default): a committing thread claims its own events and dispatches
    /// them before `commit` returns, then drains whatever else is ready.
    /// Publishing commits hold the same lock, so no event straddles a
    /// switch.
    pub fn set_firing_decoupled(&self, decoupled: bool) {
        self.with_backlog(|b| b.decoupled = decoupled);
    }

    /// Is the database in decoupled firing mode?
    pub fn firing_decoupled(&self) -> bool {
        self.backlog.lock().decoupled
    }

    /// Claim the oldest ready event: the caller now owns its dispatch or
    /// its [`Database::release_events`].
    pub fn claim_ready(&self) -> Option<PendingEvent> {
        self.with_backlog(|b| b.ready.pop_first().map(|id| b.events[&id].0.clone()))
    }

    /// Hand claimed events back to the ready list; ids no longer pending
    /// are skipped.
    pub fn release_events(&self, ids: &[u64]) {
        if !ids.is_empty() {
            self.with_backlog(|b| {
                let pending = ids.iter().filter(|id| b.events.contains_key(id));
                b.ready.extend(pending.collect::<Vec<_>>());
            });
        }
    }

    /// The backlog's `(ready, claimed)` event counts.
    pub fn backlog_counts(&self) -> (usize, usize) {
        let b = self.backlog.lock();
        (b.ready.len(), b.events.len() - b.ready.len())
    }

    /// Inline mode: claim everything ready — a backlog recovered at open or
    /// released by a detaching scheduler.
    pub(crate) fn claim_inline_backlog(&self) -> Vec<PendingEvent> {
        if !self.inline_backlog.load(Ordering::Relaxed) {
            return Vec::new();
        }
        self.with_backlog(|b| {
            let ids = if b.decoupled {
                BTreeSet::new()
            } else {
                std::mem::take(&mut b.ready)
            };
            ids.iter().map(|id| b.events[id].0.clone()).collect()
        })
    }

    /// Publish one commit's backlog changes inside its publish window: the
    /// events its batch acknowledged are drained, and the events it fired
    /// (with their records) become pending — ready if decoupled, else
    /// claimed by the committer. Returns whether it was decoupled.
    pub(crate) fn publish_backlog(
        &self,
        acked: &[(u64, RecordId)],
        fired: &[PendingEvent],
        rids: Vec<RecordId>,
    ) -> bool {
        if acked.is_empty() && fired.is_empty() {
            return false; // no lock for a commit that fires nothing
        }
        let tel = &self.tel.sched;
        self.with_backlog(|b| {
            for (id, _) in acked {
                b.ready.remove(id);
                if let Some((_, _, since)) = b.events.remove(id) {
                    tel.drained.inc();
                    tel.drain_lag.record_ns(since.elapsed().as_nanos() as u64);
                }
            }
            let now = Instant::now();
            for (e, rid) in fired.iter().zip(rids) {
                b.events.insert(e.id, (e.clone(), rid, now));
                if b.decoupled {
                    b.ready.insert(e.id);
                }
            }
            tel.enqueued.add(fired.len() as u64);
            b.decoupled
        })
    }

    /// Run `f` under the backlog lock, then refresh the ready gauges and
    /// the inline-backlog hint.
    pub(crate) fn with_backlog<R>(&self, f: impl FnOnce(&mut Backlog) -> R) -> R {
        let mut b = self.backlog.lock();
        let out = f(&mut b);
        let ready = b.ready.len() as u64;
        self.tel.sched.queue_depth.set(ready);
        self.tel.sched.queue_high_water.observe(ready);
        let hint = !b.decoupled && ready > 0;
        self.inline_backlog.store(hint, Ordering::Relaxed);
        out
    }

    /// Install (or remove) the commit observer notified with each
    /// published write commit's write set (live subscriptions).
    pub fn set_commit_observer(&self, obs: Option<CommitObserver>) {
        *self.commit_observer.write() = obs;
    }

    /// Install (or remove) the scheduler status hook behind `.triggers`.
    pub fn set_sched_status_hook(&self, hook: Option<SchedStatusFn>) {
        *self.sched_hook.write() = hook;
    }

    /// Scheduler status rows, if a scheduler registered a hook.
    pub fn sched_status(&self) -> Option<Vec<(String, String)>> {
        let hook = self.sched_hook.read().clone();
        hook.map(|f| f())
    }

    /// Fired-trigger events not yet acknowledged, claimed or ready, in
    /// event-id order.
    pub fn pending_events(&self) -> Vec<PendingEvent> {
        let b = self.backlog.lock();
        let mut out: Vec<PendingEvent> = b.events.values().map(|p| p.0.clone()).collect();
        out.sort_by_key(|e| e.id);
        out
    }

    /// Armed trigger activations, summarized as (trigger name, count),
    /// sorted by name — the `.triggers` inspection surface.
    pub fn activation_summary(&self) -> Vec<(String, usize)> {
        let inner = self.inner.read();
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for a in inner.activations.values() {
            *counts.entry(a.trigger.as_str()).or_default() += 1;
        }
        let mut out: Vec<(String, usize)> = counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        out.sort();
        out
    }

    /// Durably remove pending events without running them (dead-letter
    /// path: the scheduler or an inline drain gave up on the action; each
    /// one removed counts in `sched.dead_letters`).
    /// Deletes the per-event catalog records in one store batch under the
    /// apply gate alone, so it is safe while write transactions run
    /// elsewhere. A dispatch of the same event racing it still applies at
    /// most once: its record delete is idempotent, and a record reused for
    /// a new event fails the dispatch's validation.
    pub fn ack_pending(&self, ids: &[u64]) -> Result<()> {
        let _apply = self.apply_gate.write();
        let ops: Vec<StoreOp> = {
            let b = self.backlog.lock();
            let rids = ids.iter().filter_map(|id| b.events.get(id).map(|p| p.1));
            rids.map(|rid| StoreOp::Delete {
                heap: CATALOG_HEAP,
                rid,
            })
            .collect()
        };
        if ops.is_empty() {
            return Ok(());
        }
        self.store.commit(ops)?;
        self.with_backlog(|b| {
            for id in ids {
                b.ready.remove(id);
                if b.events.remove(id).is_some() {
                    self.tel.sched.dead_letters.inc();
                }
            }
        });
        Ok(())
    }

    /// Run one pending event's action in its own write transaction — the
    /// only way an action runs, inline or from a scheduler. Acknowledges
    /// the event durably in the action's commit batch (`sched.drained`);
    /// returns the next-round events the action fired if the caller
    /// claimed them (inline mode). An event that is
    /// no longer pending (already applied or dead-lettered) is a no-op; of
    /// two concurrent dispatches of one event exactly one applies, and the
    /// other fails validation with a retryable [`OdeError::WriteConflict`].
    /// A cascade past the configured limit is refused with a typed
    /// [`OdeError::TriggerCascade`] and the event is acknowledged so it
    /// cannot replay forever.
    pub fn dispatch_firing(&self, event: &PendingEvent) -> Result<Vec<PendingEvent>> {
        if !self.backlog.lock().events.contains_key(&event.id) {
            return Ok(Vec::new());
        }
        if event.depth as usize > self.config.trigger_cascade_limit {
            self.tel.triggers.action_failures.inc();
            self.tel.triggers.cascade_exhausted.inc();
            self.ack_pending(&[event.id])?;
            return Err(OdeError::TriggerCascade {
                limit: self.config.trigger_cascade_limit,
            });
        }
        crate::txn::run_one_event(self, event)
    }

    /// Trigger-backlog counters (enqueued, drained, dead letters, ready
    /// depth), counted by the engine in both firing modes; an attached
    /// scheduler adds its retries and suspensions. Snapshots flow out
    /// through [`Database::telemetry`] like every other counter group.
    pub fn sched_telemetry(&self) -> &ode_obs::SchedTelemetry {
        &self.tel.sched
    }

    pub(crate) fn alloc_event_id(&self) -> u64 {
        self.next_event_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Notify the commit observer, if installed (commit path; called
    /// outside every engine lock).
    pub(crate) fn notify_commit(&self, note: &CommitNote) {
        let observer = self.commit_observer.read().clone();
        if let Some(obs) = observer {
            obs(note);
        }
    }

    /// Is a commit observer installed? (Lets the commit path skip
    /// collecting the write list entirely in the common case.)
    pub(crate) fn has_commit_observer(&self) -> bool {
        self.commit_observer.read().is_some()
    }
}

/// Scan the deep extent of `class` and build a fresh index on `field`.
fn build_index(
    store: &dyn Store,
    layout: &Layout,
    class: ClassId,
    field: &str,
) -> Result<BTreeIndex> {
    let mut ix = BTreeIndex::new();
    for (member_class, heap) in layout.extent_heaps(class, true) {
        let def = layout.schema.class(member_class)?;
        let Ok(slot) = def.field_index(field) else {
            continue; // class lacks the field (possible for siblings)
        };
        crate::read::stream_committed_heap(store, heap, &SlotMask::ALL, &mut |oid, state| {
            if let Some(v) = state.fields.get(slot) {
                if !v.is_null() {
                    ix.insert(v.clone(), oid);
                }
            }
            Ok(true)
        })?;
    }
    Ok(ix)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A claim publishes itself on every way out of its window, a panic
    /// included, so later committers never wait behind its epoch.
    #[test]
    fn an_abandoned_claim_still_publishes() {
        let db = Database::in_memory();
        drop(db.claim_schema_epoch());
        assert_eq!(db.commit_epoch(), 1, "dropped before its window opened");
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _window = db.claim_schema_epoch().open_window();
            panic!("failure inside the publish window");
        }));
        assert!(unwound.is_err());
        assert_eq!(db.commit_epoch(), 2, "published while unwinding");
        db.define_from_source("class a { int x = 0; }").unwrap();
        db.create_cluster("a").unwrap();
        db.transaction(|tx| tx.pnew("a", &[]).map(|_| ())).unwrap();
        assert_eq!(db.commit_epoch(), 5);
    }
}
