//! Transactions: deferred-update write sets, constraint enforcement,
//! commit, and weak-coupled trigger firing.
//!
//! The paper treats "any O++ program that interacts with the database" as
//! one transaction (§1); here transactions are explicit. A transaction
//! keeps every write in a private write-set (read-your-writes, invisible
//! to the store until commit), so abort is trivial and the storage layer
//! only ever sees committed batches.
//!
//! Commit pipeline, in order:
//!
//! 1. **Constraints** (§5): every object written must satisfy every
//!    constraint of its class, inherited ones included; a violation aborts
//!    and rolls back the whole transaction (footnote 17 / Cactis).
//!    Constraints are *also* checked eagerly after each `update`/`pnew`.
//! 2. **Trigger conditions** (§6): evaluated "at the end of the
//!    transaction" for every activation whose subject was written.
//! 3. The write-set is materialized into one atomic store batch (objects,
//!    version records, catalog records for trigger activations, and one
//!    durable pending event per firing).
//! 4. In-memory indexes and the activation table are updated.
//! 5. Fired trigger actions each run as an **independent transaction**
//!    (weak coupling) — they start only after the commit, and an aborted
//!    transaction fires nothing. Each pending event joins the engine's one
//!    backlog: claimed by the committing thread and dispatched before
//!    `commit` returns (inline), or left ready for an attached scheduler
//!    (decoupled); either way the action's own batch acknowledges it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use ode_model::{
    ClassId, FieldRange, Frame, ModelError, ObjState, Oid, Resolver, Schema, SlotMask,
    TriggerAction, TriggerDecl, Value, VersionNo, VersionRef,
};
use ode_obs::{SpanGuard, SpanStage};
use ode_storage::{RecordId, StoreOp};

use crate::bucket::{exact_key, Buckets};
use crate::catalog::{CatalogRecord, CATALOG_HEAP};
use crate::database::{Database, Layout, WriteSummary};
use crate::error::{OdeError, Result};
use crate::object::{encode_anchor, encode_plain, encode_vrec, VersionEntry, VersionTable};
use crate::rules::BoundTrigger;
use crate::trigger::{
    Activation, CommitInfo, CommitNote, FiredTrigger, PendingEvent, TriggerFailure, TriggerId,
};

/// What `do_commit` hands back to the caller once the batch is published:
/// the firings it durably enqueued, whether they were left ready for a
/// scheduler (decoupled) rather than claimed by this thread, and the write
/// note for an installed commit observer.
#[derive(Default)]
pub(crate) struct CommitOutcome {
    pub events: Vec<PendingEvent>,
    pub decoupled: bool,
    pub note: Option<CommitNote>,
}

/// One version row in a transaction's working table.
#[derive(Debug, Clone)]
pub(crate) struct TxnVEntry {
    pub no: VersionNo,
    pub parent: VersionNo,
    /// Record id on disk (`None` = created in this transaction).
    pub rid: Option<RecordId>,
    /// In-transaction snapshot to write at commit (`None` = disk content is
    /// already correct, or this is the current version whose state lives in
    /// [`TxnObj::state`]).
    pub frozen: Option<ObjState>,
    /// Marked deleted this transaction.
    pub deleted: bool,
}

/// A versioned object's working table.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnVersionTable {
    pub current: VersionNo,
    pub entries: Vec<TxnVEntry>,
}

impl TxnVersionTable {
    pub(crate) fn from_committed(t: &VersionTable) -> TxnVersionTable {
        TxnVersionTable {
            current: t.current,
            entries: t
                .entries
                .iter()
                .map(|e| TxnVEntry {
                    no: e.no,
                    parent: e.parent,
                    rid: Some(e.rid),
                    frozen: None,
                    deleted: false,
                })
                .collect(),
        }
    }

    pub(crate) fn next_no(&self) -> VersionNo {
        self.entries.iter().map(|e| e.no + 1).max().unwrap_or(0)
    }
}

/// Write-set entry for one object.
#[derive(Debug, Clone)]
pub(crate) struct TxnObj {
    /// Created by this transaction (`pnew`).
    pub new: bool,
    /// Current-version state was modified.
    pub dirty: bool,
    /// Working state of the *current* version.
    pub state: ObjState,
    /// Committed current state (index maintenance); `None` for new objects.
    pub pre_state: Option<ObjState>,
    /// Version table, if the object is (or became) versioned.
    pub vt: Option<TxnVersionTable>,
    /// Table structure changed (new versions, deletions, re-current).
    pub vt_dirty: bool,
}

/// Multiply-rotate hasher (the FxHash step) for engine-assigned keys: oids
/// and heap ids. The engine allocates them, no client chooses them, so the
/// flooding resistance SipHash pays for buys nothing here.
#[derive(Default, Clone, Copy)]
pub(crate) struct OidHasher(u64);

impl OidHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for OidHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
}

/// Hasher state for maps keyed by oids or heap ids.
pub(crate) type OidHash = BuildHasherDefault<OidHasher>;

/// A transaction's write set: every object created or loaded for write, in
/// creation order.
///
/// Each entry owns a stable *slot*: `pdelete` of an entry leaves a tombstone
/// instead of shifting later slots, so a slot index is a durable mark
/// ("everything written after this point") — the semi-naive fixpoint keeps
/// one per round. Each heap keeps its own slot list, so a statement walks
/// only the slots of the heaps it reads, in creation order, with no
/// per-entry hash lookup.
///
/// An equality test on a field reads a *key map* instead of a heap's
/// whole slot list: the heap's entries bucketed by that field's value,
/// built by the first lookup on the (heap, field) and exact from then on.
/// A lookup files the entries appended since the previous one and re-files
/// the ones marked by [`WriteSet::get_mut`] and removals, so it costs the
/// entries changed since then plus its bucket, never the whole write set.
#[derive(Default)]
pub(crate) struct WriteSet {
    /// `(oid, entry)` in creation order; `None` is a deleted entry.
    slots: Vec<(Oid, Option<TxnObj>)>,
    /// Oid → its live slot.
    index: HashMap<Oid, usize, OidHash>,
    /// Heap → its slots, ascending (tombstones included).
    by_heap: HashMap<u32, Vec<usize>, OidHash>,
    /// One key map per (heap, field) a lookup has asked for. Lookups take
    /// `&self`; the lock is held only while a lookup files and probes.
    keys: parking_lot::Mutex<Vec<KeyMap>>,
}

impl WriteSet {
    pub(crate) fn get(&self, oid: &Oid) -> Option<&TxnObj> {
        self.index.get(oid).and_then(|&s| self.slots[s].1.as_ref())
    }

    /// The entry, for a change in place: the heap's key maps re-file it at
    /// their next lookup.
    pub(crate) fn get_mut(&mut self, oid: &Oid) -> Option<&mut TxnObj> {
        let &slot = self.index.get(oid)?;
        self.mark_changed(oid.cluster, slot);
        self.slots[slot].1.as_mut()
    }

    pub(crate) fn contains_key(&self, oid: &Oid) -> bool {
        self.index.contains_key(oid)
    }

    /// Append an entry for an oid not in the set.
    fn insert(&mut self, oid: Oid, obj: TxnObj) {
        let slot = self.slots.len();
        self.slots.push((oid, Some(obj)));
        let prev = self.index.insert(oid, slot);
        debug_assert!(prev.is_none(), "{oid} is already in the write set");
        self.by_heap.entry(oid.cluster).or_default().push(slot);
    }

    /// Take an entry out, leaving a tombstone in its slot.
    fn remove(&mut self, oid: &Oid) -> Option<TxnObj> {
        let slot = self.index.remove(oid)?;
        self.mark_changed(oid.cluster, slot);
        self.slots[slot].1.take()
    }

    /// Have `heap`'s key maps re-file `slot` at their next lookup.
    fn mark_changed(&mut self, heap: u32, slot: usize) {
        let maps = self.keys.get_mut();
        if !maps.iter().any(|m| m.heap == heap) {
            return;
        }
        let Some(at) = self
            .by_heap
            .get(&heap)
            .and_then(|list| list.binary_search(&slot).ok())
        else {
            return;
        };
        for map in maps.iter_mut().filter(|m| m.heap == heap) {
            map.mark(at);
        }
    }

    /// The slot the next entry will take: entries at or after it are the
    /// ones written from now on.
    pub(crate) fn mark(&self) -> usize {
        self.slots.len()
    }

    /// Live entries in creation order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Oid, &TxnObj)> {
        self.slots
            .iter()
            .filter_map(|(oid, obj)| obj.as_ref().map(|o| (*oid, o)))
    }

    /// The live entry in `slot`, if any.
    pub(crate) fn at(&self, slot: usize) -> Option<(Oid, &TxnObj)> {
        match &self.slots[slot] {
            (oid, Some(obj)) => Some((*oid, obj)),
            (_, None) => None,
        }
    }

    /// Live entries of `heaps` in slots at or after `since`, in creation
    /// order across the heaps. Visits nothing from any other heap.
    pub(crate) fn in_heaps<'s>(
        &'s self,
        heaps: &[u32],
        since: usize,
    ) -> impl Iterator<Item = (Oid, &'s TxnObj)> + 's {
        let mut runs: Vec<&'s [usize]> = Vec::new();
        for (i, heap) in heaps.iter().enumerate() {
            if heaps[..i].contains(heap) {
                continue;
            }
            if let Some(list) = self.by_heap.get(heap) {
                let run = &list[list.partition_point(|&s| s < since)..];
                if !run.is_empty() {
                    runs.push(run);
                }
            }
        }
        // Merge the heaps' ascending runs by slot: the smallest head next.
        std::iter::from_fn(move || loop {
            let (i, _) = runs.iter().enumerate().min_by_key(|(_, run)| run[0])?;
            let slot = runs[i][0];
            runs[i] = &runs[i][1..];
            if runs[i].is_empty() {
                runs.swap_remove(i);
            }
            if let (oid, Some(obj)) = &self.slots[slot] {
                return Some((*oid, obj));
            }
        })
    }

    /// The slots of the live entries of `heaps` whose `field` may equal
    /// `key` — those whose field equals it, and those without a usable
    /// key ([`crate::bucket::exact_key`]), whose field is missing, or whose
    /// class `schema` does not know — ascending, so in creation order.
    /// `key` must be exact and `heaps` distinct.
    pub(crate) fn keyed(
        &self,
        schema: &Schema,
        heaps: &[u32],
        field: &str,
        key: &Value,
    ) -> Vec<u32> {
        debug_assert!(exact_key(key), "{key} cannot key a bucket");
        let mut maps = self.keys.lock();
        let mut out: Vec<u32> = Vec::new();
        for &heap in heaps {
            let Some(list) = self.by_heap.get(&heap) else {
                continue;
            };
            let at = match maps.iter().position(|m| m.heap == heap && m.field == field) {
                Some(at) => at,
                None => {
                    maps.push(KeyMap {
                        heap,
                        field: field.to_string(),
                        buckets: Buckets::default(),
                        filed: Vec::new(),
                        dirty: Vec::new(),
                        marked: Vec::new(),
                    });
                    maps.len() - 1
                }
            };
            let map = &mut maps[at];
            map.refresh(schema, list, &self.slots);
            out.extend_from_slice(&map.buckets.probe(key));
        }
        if heaps.len() > 1 {
            out.sort_unstable();
        }
        out
    }
}

/// One heap's write-set entries filed by the value of one field: what an
/// equality test on that field reads of the heap's writes. It holds one
/// bucket position and one filed key per entry, and lives as long as its
/// transaction.
struct KeyMap {
    heap: u32,
    field: String,
    /// The heap's slots by key.
    buckets: Buckets,
    /// What each entry is filed under, by its position in the heap's slot
    /// list. Entries past the end are not filed yet.
    filed: Vec<Filed>,
    /// Whether each filed entry is in `marked`.
    dirty: Vec<bool>,
    /// Positions of the filed entries changed in place or removed since
    /// the last lookup, each once.
    marked: Vec<usize>,
}

/// Where a key map filed one entry.
enum Filed {
    Key(Value),
    /// No usable key: in every lookup.
    Unkeyed,
    /// Removed: in no lookup.
    Gone,
}

impl Filed {
    /// The filing of `entry` by its `field`.
    fn of(schema: &Schema, field: &str, entry: Option<&TxnObj>) -> Filed {
        let Some(obj) = entry else {
            return Filed::Gone;
        };
        let slot = schema
            .class(obj.state.class)
            .and_then(|def| def.field_index(field));
        match slot.ok().and_then(|i| obj.state.fields.get(i)) {
            Some(v) if exact_key(v) => Filed::Key(v.clone()),
            _ => Filed::Unkeyed,
        }
    }

    /// File `slot` as `self` in `buckets`.
    fn file(&self, buckets: &mut Buckets, slot: u32) {
        match self {
            Filed::Key(v) => buckets.insert(Some(v.clone()), slot),
            Filed::Unkeyed => buckets.insert(None, slot),
            Filed::Gone => {}
        }
    }

    /// Take `slot`, filed as `self`, out of `buckets`.
    fn unfile(&self, buckets: &mut Buckets, slot: u32) {
        match self {
            Filed::Key(v) => buckets.remove(Some(v), slot),
            Filed::Unkeyed => buckets.remove(None, slot),
            Filed::Gone => {}
        }
    }
}

impl KeyMap {
    /// Have the next lookup re-file the entry at position `at` of the
    /// heap's slot list. An entry not filed yet is filed with the appended
    /// ones, so only a filed entry is marked, and at most once.
    fn mark(&mut self, at: usize) {
        if let Some(dirty @ false) = self.dirty.get_mut(at) {
            *dirty = true;
            self.marked.push(at);
        }
    }

    /// Re-file the marked entries and file the ones appended since the
    /// last lookup. `list` is the heap's slot list, `slots` the write set's.
    fn refresh(&mut self, schema: &Schema, list: &[usize], slots: &[(Oid, Option<TxnObj>)]) {
        for at in self.marked.drain(..) {
            let slot = list[at];
            let new = Filed::of(schema, &self.field, slots[slot].1.as_ref());
            let old = &mut self.filed[at];
            old.unfile(&mut self.buckets, slot_u32(slot));
            new.file(&mut self.buckets, slot_u32(slot));
            *old = new;
            self.dirty[at] = false;
        }
        while let Some(&slot) = list.get(self.filed.len()) {
            let new = Filed::of(schema, &self.field, slots[slot].1.as_ref());
            new.file(&mut self.buckets, slot_u32(slot));
            self.filed.push(new);
            self.dirty.push(false);
        }
    }
}

/// A write-set slot as a bucket position.
fn slot_u32(slot: usize) -> u32 {
    u32::try_from(slot).expect("a write set holds fewer than 2^32 entries")
}

/// Tombstone for an object deleted this transaction.
#[derive(Debug, Clone)]
pub(crate) struct DeletedObj {
    /// Committed current state (index removal).
    pub(crate) pre_state: ObjState,
    /// Version record ids to delete alongside the anchor.
    pub(crate) version_rids: Vec<RecordId>,
}

/// One scan-set entry: the publish epoch at first observation plus, when
/// the statement's predicate proved key ranges, the ranges every object
/// the scan *used* was inside. `ranges: None` is the classic whole-heap
/// entry; a ranged entry lets commit validation ignore writers whose
/// footprint is provably disjoint (DESIGN.md §14).
#[derive(Debug, Clone)]
pub(crate) struct ScanEntry {
    /// Publish epoch at first observation (older on merge — conservative).
    pub epoch: u64,
    /// Proven per-field intervals, or `None` for the whole heap.
    pub ranges: Option<Vec<FieldRange>>,
}

/// A self-verifying note for one ranged DML statement's writes: the oids
/// it wrote and the pre-state ranges its predicate proved. At commit the
/// transaction re-checks each note against the final write-set (pre-state
/// inside the range, range fields unchanged, no version machinery) and
/// only then presents the ranges to the validator — analysis can narrow
/// validation, never weaken it.
#[derive(Debug, Clone)]
pub(crate) struct WriteNote {
    pub oids: Vec<Oid>,
    pub ranges: Vec<FieldRange>,
}

/// Field-level writer handed to [`Transaction::update`] closures. Performs
/// type checking against the declared member types.
pub struct ObjWriter<'a> {
    schema: &'a ode_model::Schema,
    state: &'a mut ObjState,
}

impl ObjWriter<'_> {
    /// Read a field.
    pub fn get(&self, field: &str) -> Result<Value> {
        let def = self.schema.class(self.state.class)?;
        let i = def.field_index(field)?;
        Ok(self.state.fields[i].clone())
    }

    /// Assign a field (type-checked).
    pub fn set(&mut self, field: &str, value: impl Into<Value>) -> Result<()> {
        let value = value.into();
        let i = self.schema.check_assign(self.state.class, field, &value)?;
        self.state.fields[i] = value;
        Ok(())
    }

    /// Insert into a set-valued field; returns true if the element was new.
    pub fn set_insert(&mut self, field: &str, value: impl Into<Value>) -> Result<bool> {
        let value = value.into();
        let def = self.schema.class(self.state.class)?;
        let i = def.field_index(field)?;
        match &mut self.state.fields[i] {
            Value::Set(s) => Ok(s.insert(value)),
            Value::Null => {
                let mut s = ode_model::SetValue::new();
                s.insert(value);
                let v = Value::Set(s);
                self.schema.check_assign(self.state.class, field, &v)?;
                self.state.fields[i] = v;
                Ok(true)
            }
            other => Err(
                ModelError::Type(format!("field `{field}` is not a set (found {other})")).into(),
            ),
        }
    }

    /// Remove from a set-valued field; returns true if it was present.
    pub fn set_remove(&mut self, field: &str, value: &Value) -> Result<bool> {
        let def = self.schema.class(self.state.class)?;
        let i = def.field_index(field)?;
        match &mut self.state.fields[i] {
            Value::Set(s) => Ok(s.remove(value)),
            Value::Null => Ok(false),
            other => Err(
                ModelError::Type(format!("field `{field}` is not a set (found {other})")).into(),
            ),
        }
    }

    /// The object's dynamic class.
    pub fn class(&self) -> ClassId {
        self.state.class
    }

    /// Schema + in-progress state, for expression evaluation against the
    /// object mid-update (used by `update … set` statements).
    pub fn parts(&self) -> (&ode_model::Schema, &ObjState) {
        (self.schema, self.state)
    }
}

/// Why a transaction rolled back, for the telemetry taxonomy: constraint
/// rejections and optimistic-validation conflicts are tracked apart from
/// explicit/other aborts.
#[derive(Clone, Copy)]
enum AbortCause {
    Constraint,
    Conflict,
    Other,
}

/// An Ode transaction. Obtain with [`Database::begin`] or
/// [`Database::transaction`]; finish with [`Transaction::commit`] or
/// [`Transaction::abort`] (dropping an unfinished transaction aborts it).
pub struct Transaction<'db> {
    pub(crate) db: &'db Database,
    /// Publish epoch when this transaction began. Reads observed at later
    /// epochs record their own; validation compares each against the
    /// commit table (DESIGN.md §13).
    pub(crate) begin_epoch: u64,
    /// Object → publish epoch at *first* read of its committed image.
    /// Interior mutability: reads take `&self` but must record themselves.
    read_set: parking_lot::Mutex<HashMap<Oid, u64>>,
    /// Heap → scan entry at first extent scan (phantom protection; ranged
    /// entries narrow commit validation to the proven key intervals).
    scan_set: parking_lot::Mutex<HashMap<u32, ScanEntry>>,
    /// Ranged-write notes from `update`/`delete` statements, verified
    /// against the final write-set at commit (see [`WriteNote`]).
    ranged_writes: Vec<WriteNote>,
    pub(crate) writes: WriteSet,
    pub(crate) deleted: HashMap<Oid, DeletedObj, OidHash>,
    pending_activations: Vec<Activation>,
    pending_deactivations: Vec<u64>,
    /// Pending events (id, catalog record) this transaction acknowledges
    /// at commit (set by dispatch: the action's own commit batch removes
    /// the event from the durable pending record — exactly-once across
    /// crashes). Each record is also in the read-set, so of two
    /// concurrent dispatches of one event only one commits.
    ack_events: Vec<(u64, RecordId)>,
    pub(crate) reserved: Vec<(u32, RecordId)>,
    aborted: bool,
    committed: bool,
    depth: usize,
    /// Telemetry serial pairing this transaction's trace spans.
    serial: u64,
    /// Flight-recorder span covering the transaction's whole lifetime
    /// (recorded on drop). While this guard lives, child spans (execute,
    /// commit, trigger) parent under it.
    flight_span: SpanGuard,
    /// Skip the eager per-update constraint check; commit still checks
    /// every written object. Used by bulk loads (import) whose
    /// intermediate states are transiently inconsistent.
    defer_constraints: bool,
}

impl<'db> Transaction<'db> {
    pub(crate) fn new(db: &'db Database, depth: usize) -> Transaction<'db> {
        let serial = db
            .next_txn_serial
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        db.tel.txn.begun.inc();
        db.tel.txn.write_txns.inc();
        let flight_span = db.flight.span(SpanStage::Txn, format!("txn#{serial}"));
        // No gate: writers run concurrently, validating at commit. The
        // registration pins this begin epoch for stamp pruning.
        let begin_epoch = db.register_txn();
        Transaction {
            db,
            begin_epoch,
            read_set: parking_lot::Mutex::new(HashMap::new()),
            scan_set: parking_lot::Mutex::new(HashMap::new()),
            ranged_writes: Vec::new(),
            writes: WriteSet::default(),
            deleted: HashMap::default(),
            pending_activations: Vec::new(),
            pending_deactivations: Vec::new(),
            ack_events: Vec::new(),
            reserved: Vec::new(),
            aborted: false,
            committed: false,
            depth,
            serial,
            flight_span,
            defer_constraints: false,
        }
    }

    /// Defer constraint checking to commit time for the rest of this
    /// transaction (§5's checks still run — once, over final states —
    /// before anything becomes durable). For bulk loads and migrations
    /// whose intermediate states are transiently inconsistent.
    pub fn defer_constraints(&mut self) {
        self.defer_constraints = true;
    }

    pub(crate) fn ensure_live(&self) -> Result<()> {
        if self.aborted {
            Err(OdeError::TransactionAborted)
        } else {
            Ok(())
        }
    }

    pub(crate) fn mark_aborted(&mut self) {
        self.mark_aborted_cause(AbortCause::Other);
    }

    /// Abort because a constraint rejected the transaction's state (the
    /// rollback cause the paper's §5 semantics single out).
    pub(crate) fn mark_aborted_constraint(&mut self) {
        self.mark_aborted_cause(AbortCause::Constraint);
    }

    /// Abort because optimistic commit validation lost the race to a
    /// concurrent writer (DESIGN.md §13). Shows up under `txn.conflicts`
    /// (incremented at the validation site), not `aborted_other`: a
    /// conflict abort is transient by contract and usually retried away
    /// by [`Database::transaction`].
    pub(crate) fn mark_aborted_conflict(&mut self) {
        self.mark_aborted_cause(AbortCause::Conflict);
    }

    fn mark_aborted_cause(&mut self, cause: AbortCause) {
        if !self.aborted {
            self.aborted = true;
            let detail = match cause {
                AbortCause::Constraint => "abort:constraint",
                AbortCause::Conflict => "abort:conflict",
                AbortCause::Other => "abort",
            };
            self.flight_span.set_detail(detail);
            self.release_reservations();
            let tel = &self.db.tel.txn;
            match cause {
                AbortCause::Constraint => tel.aborted_constraint.inc(),
                // Already counted in `txn.conflicts` at the validation
                // site (`claim_commit`); a conflict abort is transient
                // by contract and stays out of the abort taxonomy.
                AbortCause::Conflict => {}
                AbortCause::Other => tel.aborted_other.inc(),
            }
        }
    }

    fn release_reservations(&mut self) {
        for (heap, rid) in self.reserved.drain(..) {
            // A failed release leaks the reserved slot until the next
            // reopen reclaims it — survivable, but it must be visible.
            if self.db.store.release(heap, rid).is_err() {
                self.db.tel.txn.release_errors.inc();
            }
        }
    }

    // ------------------------------------------------------------ reads

    /// Load the committed image of an object (ignoring the write-set).
    ///
    /// Records the read in this transaction's read-set at the epoch
    /// *observed before* the store read — if a concurrent commit publishes
    /// between the epoch capture and the read, the stamp is conservative
    /// (older), which can only produce a false conflict, never a missed
    /// one. The store reads themselves run under a shared apply-gate hold
    /// so a versioned object's anchor and current-version records are
    /// never torn across a concurrent batch apply.
    pub(crate) fn load_committed(&self, oid: Oid) -> Result<(ObjState, Option<VersionTable>)> {
        self.note_read(oid);
        let _apply = self.db.apply_gate.read();
        crate::read::load_current(self.db, oid)
    }

    /// [`Transaction::load_committed`]'s current state, decoded through
    /// `mask` into `into`: slots the mask skips are `Null`.
    pub(crate) fn load_committed_into(
        &self,
        oid: Oid,
        mask: &SlotMask,
        into: &mut ObjState,
    ) -> Result<()> {
        self.note_read(oid);
        let _apply = self.db.apply_gate.read();
        crate::read::load_current_into(self.db, oid, mask, into)
    }

    /// Record a read of `oid`'s committed image at the epoch observed now,
    /// before the store read (first read wins).
    fn note_read(&self, oid: Oid) {
        let observed = self.db.commit_epoch();
        self.read_set.lock().entry(oid).or_insert(observed);
    }

    /// Record an extent scan over `heap` at the current publish epoch.
    /// Phantom protection: commit-time validation compares this against
    /// the heap's write stamps.
    ///
    /// `ranges` are the key intervals the statement's predicate proved
    /// (empty: none); the entry records them so validation can ignore
    /// provably disjoint writers. Merging is monotone toward the
    /// conservative pole: the epoch only ever gets *older* (first
    /// observation wins) and the ranges only ever get *wider* — two
    /// different range sets, or ranged plus whole-heap, collapse to
    /// whole-heap. The ranges are compared in place and copied only into a
    /// new entry.
    pub(crate) fn note_extent_scan(&self, heap: u32, ranges: &[FieldRange]) {
        let observed = self.db.commit_epoch();
        let mut set = self.scan_set.lock();
        match set.entry(heap) {
            std::collections::hash_map::Entry::Vacant(v) => {
                let ranged = !ranges.is_empty();
                if ranged {
                    self.db.tel.txn.ranged_scans.inc();
                }
                v.insert(ScanEntry {
                    epoch: observed,
                    ranges: ranged.then(|| ranges.to_vec()),
                });
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let e = o.get_mut();
                if e.ranges.as_deref().is_some_and(|had| had != ranges) {
                    // Widen; the first-observed (older) epoch stays, which
                    // can only produce a false conflict, never a missed one.
                    e.ranges = None;
                }
            }
        }
    }

    /// Force whole-heap scan entries for `heaps`, widening any ranged
    /// entry already present. Called when a statement errors
    /// mid-evaluation: with short-circuit `&&`, whether the error fires can
    /// depend on rows *outside* the extracted ranges, so only a whole-heap
    /// entry is sound.
    pub(crate) fn note_scan_unbounded(&self, heaps: &[u32]) {
        let observed = self.db.commit_epoch();
        let mut set = self.scan_set.lock();
        for &heap in heaps {
            set.entry(heap)
                .and_modify(|e| e.ranges = None)
                .or_insert(ScanEntry {
                    epoch: observed,
                    ranges: None,
                });
        }
    }

    /// Note that a ranged DML statement wrote `oids` with predicate-proven
    /// pre-state `ranges`. Verified against the final write-set at commit.
    pub(crate) fn note_ranged_write(&mut self, oids: Vec<Oid>, ranges: Vec<FieldRange>) {
        if !ranges.is_empty() {
            self.ranged_writes.push(WriteNote { oids, ranges });
        }
    }

    /// Test-only: the oids in this transaction's read-set (the footprint
    /// soundness oracle compares them against the analyzer's prediction).
    #[doc(hidden)]
    pub fn observed_read_oids(&self) -> Vec<Oid> {
        self.read_set.lock().keys().copied().collect()
    }

    /// Test-only: `(heap, ranged)` per scan-set entry.
    #[doc(hidden)]
    pub fn observed_scans(&self) -> Vec<(u32, bool)> {
        self.scan_set
            .lock()
            .iter()
            .map(|(&h, e)| (h, e.ranges.is_some()))
            .collect()
    }

    /// Does the object exist (in this transaction's view)?
    pub fn exists(&self, oid: Oid) -> bool {
        if self.deleted.contains_key(&oid) {
            return false;
        }
        if self.writes.contains_key(&oid) {
            return true;
        }
        self.load_committed(oid).is_ok()
    }

    /// Read an object's current state (write-set overlay included) —
    /// dereferencing a *generic* reference (§4).
    pub fn read(&self, oid: Oid) -> Result<ObjState> {
        self.ensure_live()?;
        if self.deleted.contains_key(&oid) {
            return Err(OdeError::NoSuchObject(format!("{oid} (deleted)")));
        }
        if let Some(obj) = self.writes.get(&oid) {
            return Ok(obj.state.clone());
        }
        Ok(self.load_committed(oid)?.0)
    }

    /// Read one field.
    pub fn get(&self, oid: Oid, field: &str) -> Result<Value> {
        let state = self.read(oid)?;
        let layout = self.db.layout();
        let i = layout.schema.class(state.class)?.field_index(field)?;
        Ok(state.fields[i].clone())
    }

    /// The object's dynamic (most-derived) class.
    pub fn class_of(&self, oid: Oid) -> Result<ClassId> {
        Ok(self.read(oid)?.class)
    }

    /// The paper's `is` test (§3.1.1): is the object an instance of (a
    /// subclass of) `class_name`?
    pub fn instance_of(&self, oid: Oid, class_name: &str) -> Result<bool> {
        let class = self.read(oid)?.class;
        let layout = self.db.layout();
        let target = layout.schema.id_of(class_name)?;
        Ok(layout.schema.is_subclass(class, target))
    }

    /// Call a registered method on the object.
    pub fn call(&self, oid: Oid, method: &str, args: &[Value]) -> Result<Value> {
        let state = self.read(oid)?;
        let m = self.db.layout().schema.lookup_method(state.class, method)?;
        Ok(m(&state, args)?)
    }

    // ----------------------------------------------------------- writes

    /// Create a persistent object — the paper's `pnew` (§2.4). The cluster
    /// for the class must already exist (§2.5). Field initializers are
    /// applied over the class defaults, then constraints are checked
    /// (constructor semantics).
    pub fn pnew(&mut self, class_name: &str, inits: &[(&str, Value)]) -> Result<Oid> {
        self.ensure_live()?;
        let (state, heap) = {
            let layout = self.db.layout();
            let class = layout.schema.id_of(class_name)?;
            let Some(&heap) = layout.clusters.get(&class) else {
                return Err(OdeError::NoSuchCluster(class_name.to_string()));
            };
            let mut state = layout.schema.new_object(class)?;
            for (field, value) in inits {
                let i = layout.schema.check_assign(class, field, value)?;
                state.fields[i] = value.clone();
            }
            (state, heap)
        };
        let size_hint = encode_plain(&state).len();
        let rid = self.db.store.reserve(heap, size_hint)?;
        self.reserved.push((heap, rid));
        let oid = Oid { cluster: heap, rid };
        self.writes.insert(
            oid,
            TxnObj {
                new: true,
                dirty: true,
                state,
                pre_state: None,
                vt: None,
                vt_dirty: false,
            },
        );
        self.check_after_write(oid)?;
        Ok(oid)
    }

    /// Pull an object into the write-set.
    pub(crate) fn load_for_write(&mut self, oid: Oid) -> Result<()> {
        self.ensure_live()?;
        if self.deleted.contains_key(&oid) {
            return Err(OdeError::NoSuchObject(format!("{oid} (deleted)")));
        }
        if self.writes.contains_key(&oid) {
            return Ok(());
        }
        let (state, vt) = self.load_committed(oid)?;
        self.writes.insert(
            oid,
            TxnObj {
                new: false,
                dirty: false,
                pre_state: Some(state.clone()),
                state,
                vt: vt.as_ref().map(TxnVersionTable::from_committed),
                vt_dirty: false,
            },
        );
        Ok(())
    }

    /// The eager half of §5: check the object just written against its
    /// constraints, aborting the transaction on a violation. Deferred to
    /// commit under [`Transaction::defer_constraints`].
    fn check_after_write(&mut self, oid: Oid) -> Result<()> {
        if !self.defer_constraints {
            if let Err(e) = self.check_object_constraints(oid) {
                self.mark_aborted_constraint();
                return Err(e);
            }
        }
        Ok(())
    }

    /// Update an object through a closure receiving a type-checked
    /// [`ObjWriter`]. The closure's changes are applied atomically (an
    /// error inside leaves the object untouched), then the object's
    /// constraints are checked — a violation **aborts the transaction**
    /// (§5).
    pub fn update(
        &mut self,
        oid: Oid,
        f: impl FnOnce(&mut ObjWriter<'_>) -> Result<()>,
    ) -> Result<()> {
        // The closure may fail after a partial change, so it works on a
        // copy that replaces the state only on success.
        self.write_in_place(oid, |w| {
            let mut work = w.state.clone();
            f(&mut ObjWriter {
                schema: w.schema,
                state: &mut work,
            })?;
            *w.state = work;
            Ok(())
        })
    }

    /// Apply `f` to the object's working state directly, then check its
    /// constraints as [`Transaction::update`] does. Only for writer
    /// operations that check everything before they change anything, so
    /// an error still leaves the object untouched — without a copy of it.
    fn write_in_place<R>(
        &mut self,
        oid: Oid,
        f: impl FnOnce(&mut ObjWriter<'_>) -> Result<R>,
    ) -> Result<R> {
        self.load_for_write(oid)?;
        let out = {
            let layout = self.db.layout();
            let obj = self.writes.get_mut(&oid).expect("just loaded");
            let out = f(&mut ObjWriter {
                schema: &layout.schema,
                state: &mut obj.state,
            })?;
            obj.dirty = true;
            out
        };
        self.check_after_write(oid)?;
        Ok(out)
    }

    /// Assign one field.
    pub fn set(&mut self, oid: Oid, field: &str, value: impl Into<Value>) -> Result<()> {
        let value = value.into();
        self.write_in_place(oid, |w| w.set(field, value))
    }

    /// Insert into a set-valued field (§2.6).
    pub fn set_insert(&mut self, oid: Oid, field: &str, value: impl Into<Value>) -> Result<bool> {
        let value = value.into();
        self.write_in_place(oid, |w| w.set_insert(field, value))
    }

    /// Remove from a set-valued field.
    pub fn set_remove(&mut self, oid: Oid, field: &str, value: &Value) -> Result<bool> {
        self.write_in_place(oid, |w| w.set_remove(field, value))
    }

    /// Delete a persistent object — the paper's `pdelete` (§2.4). Deletes
    /// every version. References held elsewhere dangle (dereferencing them
    /// reports "no such object"), as in the paper's pointer model.
    pub fn pdelete(&mut self, oid: Oid) -> Result<()> {
        self.ensure_live()?;
        if self.deleted.contains_key(&oid) {
            return Err(OdeError::NoSuchObject(format!("{oid} (already deleted)")));
        }
        if let Some(obj) = self.writes.remove(&oid) {
            if obj.new {
                // Never existed outside this transaction: release the
                // reserved anchor and forget it entirely.
                self.reserved
                    .retain(|&(h, r)| !(h == oid.cluster && r == oid.rid));
                if self.db.store.release(oid.cluster, oid.rid).is_err() {
                    self.db.tel.txn.release_errors.inc();
                }
                self.pending_activations.retain(|a| a.oid != oid);
                return Ok(());
            }
            let version_rids = obj
                .vt
                .iter()
                .flat_map(|t| t.entries.iter().filter_map(|e| e.rid))
                .collect();
            self.deleted.insert(
                oid,
                DeletedObj {
                    pre_state: obj.pre_state.expect("committed object has pre-state"),
                    version_rids,
                },
            );
        } else {
            let (state, vt) = self.load_committed(oid)?;
            let version_rids = vt
                .iter()
                .flat_map(|t| t.entries.iter().map(|e| e.rid))
                .collect();
            self.deleted.insert(
                oid,
                DeletedObj {
                    pre_state: state,
                    version_rids,
                },
            );
        }
        self.pending_activations.retain(|a| a.oid != oid);
        Ok(())
    }

    // ------------------------------------------------------ constraints

    /// Check every constraint applying to the object's class (§5).
    pub(crate) fn check_object_constraints(&self, oid: Oid) -> Result<()> {
        let loaded;
        let state = match self.writes.get(&oid) {
            Some(o) => &o.state,
            None => {
                loaded = self.read(oid)?;
                &loaded
            }
        };
        let layout = self.db.layout();
        let schema = &layout.schema;
        let frame = Frame {
            this: Some(state),
            resolver: self,
            ..Frame::new(schema)
        };
        // Own and inherited constraints, base-most first (§5).
        for &cid in schema.class(state.class)?.linearization.iter().rev() {
            let def = schema.class(cid)?;
            for (c, bound) in def.constraints.iter().zip(layout.rules().constraints(cid)) {
                if !bound.eval_bool(&frame)? {
                    return Err(OdeError::ConstraintViolation {
                        class: def.name.clone(),
                        constraint: c.name.clone(),
                        src: c.src.clone(),
                        object: oid.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    // --------------------------------------------------------- triggers

    /// Activate a trigger on an object — the paper's
    /// `trigger-id = object->T(args)` (§6). The returned [`TriggerId`] can
    /// deactivate it later. The activation becomes durable with this
    /// transaction's commit.
    pub fn activate_trigger(
        &mut self,
        oid: Oid,
        trigger: &str,
        args: Vec<Value>,
    ) -> Result<TriggerId> {
        self.ensure_live()?;
        let class = self.class_of(oid)?;
        let layout = self.db.layout();
        let params = layout.schema.find_trigger(class, trigger)?.1.params.len();
        if params != args.len() {
            return Err(OdeError::Trigger(format!(
                "trigger `{trigger}` takes {params} argument(s), got {}",
                args.len()
            )));
        }
        let id = self.db.alloc_activation_id();
        self.db.tel.triggers.activations.inc();
        self.pending_activations.push(Activation {
            id,
            oid,
            trigger: trigger.to_string(),
            args,
        });
        Ok(TriggerId(id))
    }

    /// Deactivate a trigger before it fires (§6's explicit deactivation).
    pub fn deactivate_trigger(&mut self, id: TriggerId) -> Result<()> {
        self.ensure_live()?;
        if let Some(i) = self.pending_activations.iter().position(|a| a.id == id.0) {
            self.pending_activations.remove(i);
            return Ok(());
        }
        if !self.db.inner.read().activations.contains_key(&id.0) {
            return Err(OdeError::Trigger(format!("{id} is not active")));
        }
        if !self.pending_deactivations.contains(&id.0) {
            self.pending_deactivations.push(id.0);
        }
        Ok(())
    }

    /// Trigger activations currently attached to an object (committed view
    /// plus this transaction's pending ones).
    pub fn active_triggers(&self, oid: Oid) -> Vec<TriggerId> {
        let inner = self.db.inner.read();
        let mut ids: Vec<u64> = inner
            .activations_by_oid
            .get(&oid)
            .cloned()
            .unwrap_or_default();
        ids.retain(|id| !self.pending_deactivations.contains(id));
        ids.extend(
            self.pending_activations
                .iter()
                .filter(|a| a.oid == oid)
                .map(|a| a.id),
        );
        ids.sort_unstable();
        ids.into_iter().map(TriggerId).collect()
    }

    // ----------------------------------------------------------- commit

    /// Commit. Every firing is durably enqueued in the commit's batch.
    /// Inline mode: the events are dispatched on this thread, cascades
    /// depth-first, and the result reports what fired (weak-coupled
    /// trigger actions have already run by the time this returns); then
    /// any backlog found ready runs the same way. Decoupled mode (a
    /// scheduler is attached): the events are left ready for it, are
    /// reported in [`CommitInfo::enqueued`], and their actions run
    /// asynchronously — commit latency excludes action time.
    pub fn commit(mut self) -> Result<CommitInfo> {
        let started = std::time::Instant::now();
        let outcome = match self.do_commit() {
            Ok(o) => o,
            Err(e) => {
                if matches!(e, OdeError::ConstraintViolation { .. }) {
                    self.mark_aborted_constraint();
                } else if matches!(e, OdeError::WriteConflict { .. }) {
                    self.mark_aborted_conflict();
                } else {
                    self.mark_aborted();
                }
                return Err(e);
            }
        };
        let db = self.db;
        let serial = self.serial;
        db.tel.txn.committed.inc();
        db.tel
            .triggers
            .deferred_actions
            .add(outcome.events.len() as u64);
        self.flight_span.set_detail(format!("txn#{serial} commit"));
        drop(self); // deregister before running actions (they begin anew)
        if let Some(note) = &outcome.note {
            db.notify_commit(note);
        }
        let mut info = CommitInfo::default();
        if outcome.decoupled {
            info.enqueued = outcome.events.iter().map(FiredTrigger::of).collect();
        } else {
            drain_inline(db, outcome.events, &mut info);
            // Then whatever else is ready: a backlog recovered at open or
            // released by a detaching scheduler.
            drain_inline(db, db.claim_inline_backlog(), &mut info);
        }
        db.tel
            .txn
            .commit_latency
            .record_ns(started.elapsed().as_nanos() as u64);
        Ok(info)
    }

    /// Abort: discard the write-set and release reservations.
    pub fn abort(mut self) {
        self.mark_aborted();
    }

    /// Re-check every ranged-write note against the final write-set and
    /// return, per heap, the ranges this commit can present to the
    /// validator. A heap qualifies only when **every** batch op on it is
    /// an anchor of a note-covered, note-verified object:
    ///
    /// * written (not new, not versioned) with its committed pre-state
    ///   inside each noted range and every noted field *unchanged* by the
    ///   transaction, or
    /// * deleted (no version records) with its pre-state inside each
    ///   noted range.
    ///
    /// Anything else — a `pnew`, a version record, a note range on a
    /// changed field, an uncovered op — silently demotes the heap to the
    /// classic whole-heap stamp. Verification failure can therefore never
    /// weaken validation, only decline to narrow it.
    fn verify_ranged_writes(
        &self,
        schema: &Schema,
        write_oids: &[Oid],
        ops: &[StoreOp],
    ) -> HashMap<u32, Vec<crate::database::RangedWrite>> {
        use std::collections::BTreeSet;
        if self.ranged_writes.is_empty() {
            return HashMap::new();
        }
        let mut per_heap: HashMap<u32, Vec<crate::database::RangedWrite>> = HashMap::new();
        let mut failed_heaps: HashSet<u32> = HashSet::new();
        let mut covered: HashSet<Oid> = HashSet::new();
        for note in &self.ranged_writes {
            let mut assigned: BTreeSet<String> = BTreeSet::new();
            let mut heaps: HashSet<u32> = HashSet::new();
            let mut ok = true;
            for &oid in &note.oids {
                heaps.insert(oid.cluster);
                covered.insert(oid);
                let verified = (|| {
                    if let Some(obj) = self.writes.get(&oid) {
                        if obj.new || obj.vt.is_some() || obj.vt_dirty {
                            return false;
                        }
                        let Some(pre) = obj.pre_state.as_ref() else {
                            return false;
                        };
                        if obj.state.class != pre.class {
                            return false;
                        }
                        let Ok(def) = schema.class(pre.class) else {
                            return false;
                        };
                        for fr in &note.ranges {
                            let Ok(slot) = def.field_index(&fr.field) else {
                                return false;
                            };
                            if !fr.range.contains(&pre.fields[slot])
                                || obj.state.fields[slot] != pre.fields[slot]
                            {
                                return false;
                            }
                        }
                        for (i, f) in def.layout.iter().enumerate() {
                            if pre.fields[i] != obj.state.fields[i] {
                                assigned.insert(f.name.clone());
                            }
                        }
                        true
                    } else if let Some(dead) = self.deleted.get(&oid) {
                        if !dead.version_rids.is_empty() {
                            return false;
                        }
                        let Ok(def) = schema.class(dead.pre_state.class) else {
                            return false;
                        };
                        note.ranges.iter().all(|fr| {
                            def.field_index(&fr.field)
                                .is_ok_and(|slot| fr.range.contains(&dead.pre_state.fields[slot]))
                        })
                    } else {
                        false
                    }
                })();
                if !verified {
                    ok = false;
                    break;
                }
            }
            if ok {
                let assigned: Vec<String> = assigned.into_iter().collect();
                for h in heaps {
                    per_heap
                        .entry(h)
                        .or_default()
                        .push(crate::database::RangedWrite {
                            ranges: note.ranges.clone(),
                            assigned: assigned.clone(),
                        });
                }
            } else {
                failed_heaps.extend(heaps);
            }
        }
        per_heap.retain(|h, _| {
            !failed_heaps.contains(h)
                && write_oids
                    .iter()
                    .filter(|o| o.cluster == *h)
                    .all(|o| covered.contains(o))
                && ops.iter().all(|op| {
                    let (heap, rid) = match op {
                        StoreOp::Put { heap, rid, .. } | StoreOp::Delete { heap, rid } => {
                            (*heap, *rid)
                        }
                    };
                    heap != *h || covered.contains(&Oid { cluster: heap, rid })
                })
        });
        per_heap
    }

    /// Steps 1–4 of the commit pipeline. Returns the events durably
    /// enqueued in the batch, one per firing.
    fn do_commit(&mut self) -> Result<CommitOutcome> {
        self.ensure_live()?;
        // One layout for the whole commit. A DDL published after this
        // transaction began fails its validation, so in the publish window
        // this is still the current layout.
        let layout = self.db.layout();

        // 1. Deferred constraint check over every written object (a
        // deleted object has left the write set).
        for (oid, _) in self.writes.iter() {
            self.check_object_constraints(oid)?;
        }

        // 2. Trigger-condition evaluation on touched objects.
        let fired = self.evaluate_triggers(&layout)?;

        // Which activations stop existing: explicit deactivations, fired
        // once-only ones, and activations on deleted objects.
        let mut kill_committed: Vec<u64> = self.pending_deactivations.clone();
        let mut fired_pending: HashSet<u64> = HashSet::new();
        let kill_rids: Vec<RecordId> = {
            let inner = self.db.inner.read();
            for (a, _) in fired.iter().filter(|(_, perpetual)| !perpetual) {
                if inner.activations.contains_key(&a.id) {
                    kill_committed.push(a.id);
                } else {
                    fired_pending.insert(a.id);
                }
            }
            for oid in self.deleted.keys() {
                if let Some(ids) = inner.activations_by_oid.get(oid) {
                    kill_committed.extend_from_slice(ids);
                }
            }
            kill_committed.sort_unstable();
            kill_committed.dedup();
            let rids = kill_committed.iter();
            rids.filter_map(|id| inner.catalog.activation_rids.get(id).copied())
                .collect()
        };

        // Every firing becomes a durable pending event. The once-only kill
        // logic above already ran off `fired`, so a once-only activation
        // dies in the very batch that persists its event — a crash between
        // commit and action can neither lose the firing nor re-arm it.
        let events: Vec<PendingEvent> = fired
            .into_iter()
            .map(|(a, _)| PendingEvent {
                id: self.db.alloc_event_id(),
                activation: a.id,
                oid: a.oid,
                trigger: a.trigger,
                args: a.args,
                depth: self.depth as u64 + 1,
            })
            .collect();

        // 3. Materialize the batch.
        let collect_writes = self.db.has_commit_observer();
        let mut obs_writes: Vec<(Oid, ode_model::ClassId)> = Vec::new();
        let mut ops: Vec<StoreOp> = Vec::new();
        let mut index_updates: Vec<(Oid, Option<ObjState>, Option<ObjState>)> = Vec::new();
        for (oid, obj) in self.writes.iter() {
            Self::materialize_object(self.db, &mut self.reserved, oid, obj, &mut ops)?;
            if obj.dirty || obj.new {
                if collect_writes {
                    obs_writes.push((oid, obj.state.class));
                }
                index_updates.push((oid, obj.pre_state.clone(), Some(obj.state.clone())));
            }
        }
        for (&oid, dead) in &self.deleted {
            ops.push(StoreOp::Delete {
                heap: oid.cluster,
                rid: oid.rid,
            });
            for &rid in &dead.version_rids {
                ops.push(StoreOp::Delete {
                    heap: oid.cluster,
                    rid,
                });
            }
            index_updates.push((oid, Some(dead.pre_state.clone()), None));
        }

        // Catalog: persist surviving pending activations; delete killed ones.
        let mut persisted_activations: Vec<(Activation, RecordId)> = Vec::new();
        for a in &self.pending_activations {
            if fired_pending.contains(&a.id) {
                continue; // once-only, fired in its own birth transaction
            }
            let rec = CatalogRecord::Activation {
                id: a.id,
                oid: a.oid,
                trigger: a.trigger.clone(),
                args: a.args.clone(),
            }
            .encode();
            let rid = self.db.store.reserve(CATALOG_HEAP, rec.len())?;
            self.reserved.push((CATALOG_HEAP, rid));
            ops.push(StoreOp::Put {
                heap: CATALOG_HEAP,
                rid,
                data: rec,
            });
            persisted_activations.push((a.clone(), rid));
        }
        for rid in kill_rids {
            ops.push(StoreOp::Delete {
                heap: CATALOG_HEAP,
                rid,
            });
        }

        // 4. Firing: put one catalog record per event this commit enqueues
        // and delete the records of events this (action) transaction
        // acknowledges — all in this same batch, so the pending set moves
        // atomically with the commit. Per-event records keep a trigger
        // storm unbounded by the max record size. An acknowledged record
        // is in the read-set, so validation rejects this commit if another
        // dispatch acknowledged the same event first.
        for &(_, rid) in &self.ack_events {
            ops.push(StoreOp::Delete {
                heap: CATALOG_HEAP,
                rid,
            });
        }
        let mut event_rids: Vec<RecordId> = Vec::new();
        for e in &events {
            let rec = CatalogRecord::Pending(e.clone()).encode();
            let rid = self.db.store.reserve(CATALOG_HEAP, rec.len())?;
            self.reserved.push((CATALOG_HEAP, rid));
            ops.push(StoreOp::Put {
                heap: CATALOG_HEAP,
                rid,
                data: rec,
            });
            event_rids.push(rid);
        }

        // Read-only short-circuit: nothing to publish and nothing that can
        // conflict (each read was individually consistent) — claim no
        // epoch, touch no gate, skip validation. This gives a pure-read
        // `Database::transaction` call read-committed semantics; use
        // [`Database::begin_read`] for a full snapshot.
        // (A firing always writes its pending record, so `ops` covers it.)
        if ops.is_empty() && kill_committed.is_empty() {
            self.committed = true;
            let mut span = self.db.flight.span(SpanStage::Commit, "read-only");
            span.set_detail("read-only: no epoch claimed");
            return Ok(CommitOutcome::default());
        }

        // 5. The optimistic commit pipeline (DESIGN.md §13): validate +
        // claim an epoch + WAL-append in the short commit-gate critical
        // section; share the fsync with the cohort outside every lock;
        // then apply in epoch order under the publish window. Holding
        // `apply_gate` exclusively during the apply (lock order:
        // apply_gate before inner) keeps the whole commit invisible to
        // snapshot readers until every update has landed, so a
        // ReadTransaction can never observe a torn commit (DESIGN.md §8).
        let mut commit_span = self
            .db
            .flight
            .span(SpanStage::Commit, format!("{} ops", ops.len()));
        let mut write_oids: Vec<Oid> = self
            .writes
            .iter()
            .filter(|(_, o)| o.dirty || o.new || o.vt_dirty)
            .map(|(oid, _)| oid)
            .collect();
        write_oids.extend(self.deleted.keys().copied());
        let heap_ranges = self.verify_ranged_writes(&layout.schema, &write_oids, &ops);
        let (claim, ticket) = {
            let read_set = self.read_set.lock();
            let scan_set = self.scan_set.lock();
            let summary = WriteSummary {
                begin_epoch: self.begin_epoch,
                read_set: &read_set,
                scan_set: &scan_set,
                write_oids: &write_oids,
                kills: &kill_committed,
                heap_ranges: &heap_ranges,
            };
            self.db.claim_commit(&summary, ops)?
        };

        let epoch = claim.epoch;

        // Phase 2: durability, outside every lock — concurrent committers
        // share one fsync (group commit). A failure here is *in-doubt*:
        // the batch is in the WAL and may survive a crash even though this
        // process cannot confirm it. The store has failed (DESIGN.md §13):
        // surface its non-transient error and drop the ticket; the claim
        // publishes its epoch as a no-op, so the sequence cannot stall.
        self.db.store.commit_durable(&ticket)?;

        // Phase 3: apply in epoch order under the publish window. The
        // validation/turn wait is surfaced in the commit span so the
        // slow-query log attributes contended commits correctly.
        let turn_started = std::time::Instant::now();
        let window = claim.open_window();
        // The batch is durable, so an apply error is in doubt, never
        // retried: recovery replays the batch. The claim still publishes.
        self.db.store.commit_apply(ticket)?;
        self.committed = true;

        let schema = &layout.schema;
        let mut inner = self.db.inner.write();
        for (ixclass, field, ix) in inner.indexes.iter_mut() {
            for (oid, old, new) in &index_updates {
                let class = old
                    .as_ref()
                    .or(new.as_ref())
                    .expect("one side present")
                    .class;
                if !schema.is_subclass(class, ixclass) {
                    continue;
                }
                let slot = schema.class(class)?.field_index(field)?;
                let old_key = old.as_ref().map(|s| &s.fields[slot]);
                let new_key = new.as_ref().map(|s| &s.fields[slot]);
                if old_key == new_key {
                    continue;
                }
                if let Some(k) = old_key.filter(|k| !k.is_null()) {
                    ix.remove(k, *oid);
                }
                if let Some(k) = new_key.filter(|k| !k.is_null()) {
                    ix.insert(k.clone(), *oid);
                }
            }
        }
        for (a, rid) in persisted_activations {
            inner.catalog.activation_rids.insert(a.id, rid);
            inner
                .activations_by_oid
                .entry(a.oid)
                .or_default()
                .push(a.id);
            inner.activations.insert(a.id, a);
        }
        for id in kill_committed {
            inner.catalog.activation_rids.remove(&id);
            if let Some(a) = inner.activations.remove(&id) {
                if let Some(v) = inner.activations_by_oid.get_mut(&a.oid) {
                    v.retain(|&x| x != id);
                }
            }
        }
        drop(inner);
        let decoupled = self
            .db
            .publish_backlog(&self.ack_events, &events, event_rids);
        let note = collect_writes.then_some(CommitNote {
            epoch,
            writes: obs_writes,
            ready: if decoupled { events.len() } else { 0 },
        });
        // Publish, then release the apply gate: the epoch advance is
        // ordered inside the publish window, so a snapshot's epoch always
        // names exactly the commits it can see.
        drop(window);
        commit_span.set_detail(format!(
            "published epoch {epoch} (turn wait {}us)",
            turn_started.elapsed().as_micros()
        ));

        Ok(CommitOutcome {
            events,
            decoupled,
            note,
        })
    }

    /// Turn one write-set entry into store operations, recording the
    /// version-record slots it reserves in `reserved`.
    fn materialize_object(
        db: &Database,
        reserved: &mut Vec<(u32, RecordId)>,
        oid: Oid,
        obj: &TxnObj,
        ops: &mut Vec<StoreOp>,
    ) -> Result<()> {
        match &obj.vt {
            None => {
                if obj.dirty || obj.new {
                    ops.push(StoreOp::Put {
                        heap: oid.cluster,
                        rid: oid.rid,
                        data: encode_plain(&obj.state),
                    });
                }
            }
            Some(vt) => {
                let mut entries = Vec::new();
                let mut anchor_dirty = obj.vt_dirty;
                for e in &vt.entries {
                    if e.deleted {
                        if let Some(rid) = e.rid {
                            ops.push(StoreOp::Delete {
                                heap: oid.cluster,
                                rid,
                            });
                        }
                        anchor_dirty = true;
                        continue;
                    }
                    let state_to_write: Option<&ObjState> = if e.no == vt.current {
                        if obj.dirty || e.rid.is_none() {
                            Some(&obj.state)
                        } else {
                            None
                        }
                    } else if e.frozen.is_some() {
                        e.frozen.as_ref()
                    } else {
                        None
                    };
                    let rid = match e.rid {
                        Some(rid) => rid,
                        None => {
                            let data_len = state_to_write
                                .map(|s| encode_vrec(e.no, s).len())
                                .unwrap_or(64);
                            let rid = db.store.reserve(oid.cluster, data_len)?;
                            reserved.push((oid.cluster, rid));
                            anchor_dirty = true;
                            rid
                        }
                    };
                    if let Some(state) = state_to_write {
                        ops.push(StoreOp::Put {
                            heap: oid.cluster,
                            rid,
                            data: encode_vrec(e.no, state),
                        });
                    }
                    entries.push(VersionEntry {
                        no: e.no,
                        rid,
                        parent: e.parent,
                    });
                }
                if anchor_dirty || obj.new {
                    let table = VersionTable {
                        current: vt.current,
                        entries,
                    };
                    ops.push(StoreOp::Put {
                        heap: oid.cluster,
                        rid: oid.rid,
                        data: encode_anchor(&table),
                    });
                }
            }
        }
        Ok(())
    }

    /// Evaluate trigger conditions for every touched object (§6); returns
    /// the activations that fired, each with whether it is perpetual.
    fn evaluate_triggers(&self, layout: &Layout) -> Result<Vec<(Activation, bool)>> {
        // Only activations whose subject was written can change outcome, so
        // the per-commit cost scales with the write-set, not with the total
        // number of activations in the database (figure F7's cold sweep).
        // They are copied out first: a condition may dereference objects.
        let committed: Vec<Activation> = {
            let inner = self.db.inner.read();
            let ids = self
                .writes
                .iter()
                .filter_map(|(oid, _)| inner.activations_by_oid.get(&oid))
                .flatten();
            ids.filter_map(|id| inner.activations.get(id).cloned())
                .collect()
        };
        let mut firings = Vec::new();
        for act in committed.iter().chain(&self.pending_activations) {
            if self.pending_deactivations.contains(&act.id) {
                continue;
            }
            let Some(obj) = self.writes.get(&act.oid) else {
                continue;
            };
            if !(obj.dirty || obj.new) || self.deleted.contains_key(&act.oid) {
                continue;
            }
            let schema = &layout.schema;
            let (decl, bound) = layout
                .rules()
                .trigger(schema, obj.state.class, &act.trigger)?;
            let frame = Frame {
                this: Some(&obj.state),
                args: &act.args,
                resolver: self,
                ..Frame::new(schema)
            };
            self.db.tel.triggers.condition_evals.inc();
            if bound.condition.eval_bool(&frame)? {
                firings.push((act.clone(), decl.perpetual));
            }
        }
        // Deterministic firing order: by activation id.
        firings.sort_by_key(|(a, _)| a.id);
        Ok(firings)
    }

    // -------------------------------------------------------- misc info

    /// Objects written (created or modified) so far.
    pub fn touched(&self) -> Vec<Oid> {
        self.writes
            .iter()
            .filter(|(_, o)| o.dirty || o.new)
            .map(|(oid, _)| oid)
            .collect()
    }

    /// The database this transaction runs against.
    pub fn database(&self) -> &'db Database {
        self.db
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.committed && !self.aborted {
            self.mark_aborted();
        }
        // Runs exactly once per transaction (commit consumes self and ends
        // here too): un-pin this begin epoch from the stamp pruner's floor.
        self.db.deregister_txn(self.begin_epoch);
    }
}

impl Resolver for Transaction<'_> {
    fn deref_obj(&self, oid: Oid) -> ode_model::Result<ObjState> {
        self.read(oid).map_err(|e| ModelError::Eval(e.to_string()))
    }

    fn deref_version(&self, vref: VersionRef) -> ode_model::Result<ObjState> {
        self.read_version(vref)
            .map_err(|e| ModelError::Eval(e.to_string()))
    }
}

/// Inline firing: dispatch `events` on the committing thread, each
/// action's cascade depth-first right after it, recording what ran in
/// `info.fired` and what failed (a cascade cut included) in
/// `info.failures`. Per weak coupling, failures are reported rather than
/// propagated — the triggering transaction has already committed — and
/// not retried: a failed event is acknowledged.
fn drain_inline(db: &Database, events: Vec<PendingEvent>, info: &mut CommitInfo) {
    for event in events {
        match db.dispatch_firing(&event) {
            Ok(next) => {
                info.fired.push(FiredTrigger::of(&event));
                drain_inline(db, next, info);
            }
            Err(error) => {
                if !matches!(error, OdeError::TriggerCascade { .. }) {
                    info.fired.push(FiredTrigger::of(&event));
                }
                // An ack that fails leaves the event pending: released, so
                // the next inline commit or a scheduler retries it.
                if db.ack_pending(&[event.id]).is_err() {
                    db.release_events(&[event.id]);
                }
                info.failures.push(TriggerFailure {
                    id: TriggerId(event.activation),
                    oid: event.oid,
                    error,
                });
            }
        }
    }
}

/// Run one durably enqueued event's action in its own write transaction —
/// the one dispatch path ([`Database::dispatch_firing`]). The action's
/// commit batch acknowledges the event (removes it from the catalog's
/// pending record), so a crash at any point either replays the whole
/// action or none of it — never half, never twice. An event no longer
/// pending is a no-op. Returns the next-round events the action itself
/// fired if this thread claimed them (inline mode; cascade).
pub(crate) fn run_one_event(db: &Database, event: &PendingEvent) -> Result<Vec<PendingEvent>> {
    let mut trigger_span = db.flight.span(SpanStage::Trigger, event.trigger.as_str());
    let mut tx = Transaction::new(db, event.depth as usize);
    {
        // Under the shared apply gate the epoch and the pending table
        // agree, so the read-set stamp is exact, not conservative.
        let _apply = db.apply_gate.read();
        let observed = db.commit_epoch();
        let Some(rid) = db.backlog.lock().events.get(&event.id).map(|p| p.1) else {
            trigger_span.set_detail(format!("{} not pending", event.trigger));
            return Ok(Vec::new());
        };
        let record = Oid {
            cluster: CATALOG_HEAP,
            rid,
        };
        tx.read_set.lock().insert(record, observed);
        tx.ack_events.push((event.id, rid));
    }
    db.tel.triggers.firings.inc();
    db.tel.triggers.max_cascade_depth.observe(event.depth);
    let result: Result<CommitOutcome> = (|| {
        let class = tx.read(event.oid)?.class;
        let layout = db.layout();
        let (decl, bound) = layout
            .rules()
            .trigger(&layout.schema, class, &event.trigger)?;
        apply_actions(&mut tx, event, &layout.schema, decl, bound)?;
        tx.do_commit()
    })();
    drop(tx);
    let result = result.map(|outcome| {
        db.tel.txn.committed.inc();
        db.tel
            .triggers
            .deferred_actions
            .add(outcome.events.len() as u64);
        if let Some(note) = &outcome.note {
            db.notify_commit(note);
        }
        if outcome.decoupled {
            Vec::new()
        } else {
            outcome.events
        }
    });
    let ok = result.is_ok();
    if !ok {
        db.tel.triggers.action_failures.inc();
    }
    trigger_span.set_detail(format!(
        "{} {}",
        event.trigger,
        if ok { "ok" } else { "failed" }
    ));
    drop(trigger_span);
    result
}

/// Execute one event's actions inside `tx`, with `decl` the trigger's
/// declaration on the subject's class and `bound` its bound form.
fn apply_actions(
    tx: &mut Transaction<'_>,
    event: &PendingEvent,
    schema: &Schema,
    decl: &TriggerDecl,
    bound: &BoundTrigger,
) -> Result<()> {
    let oid = event.oid;
    for (action, value) in decl.actions.iter().zip(&bound.actions) {
        match (action, value) {
            (TriggerAction::Assign { field, .. }, Some(value)) => {
                let state = tx.read(oid)?;
                let value = value.eval(&Frame {
                    this: Some(&state),
                    args: &event.args,
                    resolver: &*tx,
                    ..Frame::new(schema)
                })?;
                tx.set(oid, field, value)?;
            }
            (TriggerAction::Assign { .. }, None) => {
                unreachable!("an Assign action binds its value")
            }
            (TriggerAction::Callback { name }, _) => {
                let cb = tx.db.callback(name)?;
                cb(tx, oid, &event.args)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Updates that alternate between two entries mark each at most once
    /// between lookups, so a key map's marks never outgrow its heap.
    #[test]
    fn alternating_updates_mark_each_entry_once() {
        let db = Database::in_memory();
        db.define_from_source("class item { int k = 0; }").unwrap();
        let schema = &db.layout().schema;
        let class = schema.id_of("item").unwrap();
        let oid = |slot| Oid {
            cluster: 7,
            rid: RecordId { page: 1, slot },
        };
        let mut ws = WriteSet::default();
        for slot in 0..2 {
            let mut state = ObjState::new(class, 1);
            state.fields[0] = Value::Int(1);
            ws.insert(
                oid(slot),
                TxnObj {
                    new: true,
                    dirty: true,
                    state,
                    pre_state: None,
                    vt: None,
                    vt_dirty: false,
                },
            );
        }
        assert_eq!(ws.keyed(schema, &[7], "k", &Value::Int(1)), [0, 1]);
        for round in 0..1_000 {
            let target = oid(round % 2);
            ws.get_mut(&target).unwrap().state.fields[0] = Value::Int(2);
        }
        assert_eq!(ws.keys.get_mut()[0].marked.len(), 2);
        assert_eq!(ws.keyed(schema, &[7], "k", &Value::Int(2)), [0, 1]);
        assert!(ws.keyed(schema, &[7], "k", &Value::Int(1)).is_empty());
        assert!(ws.keys.get_mut()[0].marked.is_empty());
        ws.remove(&oid(0));
        assert_eq!(ws.keyed(schema, &[7], "k", &Value::Int(2)), [1]);
    }
}
