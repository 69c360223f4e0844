//! Snapshot read transactions — the concurrent read path (DESIGN.md §8).
//!
//! A [`ReadTransaction`] gives a consistent, read-only view of the
//! database without entering the writer gate: any number of read
//! transactions run concurrently with each other *and* with the
//! read/compute phase of a writer. Only a committing writer's short
//! publish window (and DDL) excludes readers, which is what makes the
//! view a snapshot: no commit can become visible while a read
//! transaction is live, so every read observes the same committed state.
//!
//! The paper's model (§1) makes "any O++ program that interacts with the
//! database" one transaction; it says nothing about concurrency control
//! between such programs. We split them by intent: programs that only
//! query take this shared path, programs that mutate serialize behind
//! [`Database::begin`]'s gate.
//!
//! [`ReadContext`] is the abstraction the query layer ([`crate::query`])
//! executes against: both [`Transaction`] (write-set overlay included)
//! and [`ReadTransaction`] (committed state only) implement it, so
//! `forall`/join/aggregate machinery is written once.
//!
//! **Caveat:** do not commit a write transaction, run DDL, or call
//! [`Database::checkpoint`]-style maintenance on a thread that still holds an
//! open `ReadTransaction` — the publish window waits for all readers to
//! drain, so that thread would wait on itself (debug builds panic on the
//! recursive apply-gate acquisition instead; DESIGN.md §8).

use ode_model::{ClassId, ModelError, ObjState, Oid, Resolver, Value, VersionNo, VersionRef};
use ode_obs::{SpanGuard, SpanStage};

use crate::database::Database;
use crate::error::{OdeError, Result};
use crate::object::{decode_record, is_anchor, ObjRecord, VersionTable, NO_PARENT};
use crate::txn::Transaction;

/// The read surface the query layer needs from a transaction-like view.
///
/// Implemented by [`Transaction`] (reads see the private write-set
/// overlaid on committed state) and [`ReadTransaction`] (committed state
/// only; the overlay methods are trivially empty). `Resolver` is a
/// supertrait so predicate evaluation can dereference object references
/// through the same view.
pub trait ReadContext: Resolver + Sized {
    /// The database this view reads.
    fn db(&self) -> &Database;

    /// Was the object deleted by this transaction? (Never, for snapshots.)
    fn is_deleted(&self, oid: Oid) -> bool;

    /// Read an object's current state through this view.
    fn read_obj(&self, oid: Oid) -> Result<ObjState>;

    /// Visit the write-set overlay of `heaps`: objects in those heaps
    /// created or loaded-for-write by this transaction, in creation order,
    /// with their in-transaction states borrowed in place (no clones — the
    /// visitor copies only what it keeps). Writes to other heaps cost
    /// nothing. Empty for snapshots.
    fn for_each_overlay(
        &self,
        heaps: &[u32],
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<()>,
    ) -> Result<()>;

    /// Is the object in this transaction's write-set?
    fn overlay_contains(&self, oid: Oid) -> bool;

    /// Stream the (deep or shallow) extent of a class as seen by this
    /// view: committed members plus, for write transactions, the overlay.
    ///
    /// The extent is *never* materialized: records are decoded one store
    /// page at a time and handed to `visit` as they stream past, so N
    /// concurrent scans cost O(N pages) resident memory, not N decoded
    /// copies of the extent. Each member is visited exactly once — the
    /// write-set overlay replaces committed states in place and
    /// new-in-transaction objects are appended after the committed pass.
    /// Returning `Ok(false)` from `visit` stops the stream early (not an
    /// error); for write transactions an early stop or a visitor error
    /// widens every heap touched so far to a whole-heap scan entry, since
    /// which rows mattered is then unknowable (DESIGN.md §14).
    fn for_each_extent(
        &self,
        class_name: &str,
        deep: bool,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
    ) -> Result<()>;

    /// Record that a predicate was evaluated over the whole extent held in
    /// `heaps` (phantom protection for write transactions, DESIGN.md §13).
    /// Index probes call this too: the probe's answer depends on the same
    /// committed extent the index summarizes. No-op for snapshots.
    fn note_scan(&self, _heaps: &[u32]) {}

    /// Announce the key ranges the upcoming scan's predicate pins, so a
    /// write transaction can record predicate-level scan entries instead
    /// of whole-heap ones (narrowed validation, DESIGN.md §14). No-op for
    /// snapshots.
    fn scan_hint(&self, _ranges: Vec<ode_model::FieldRange>) {}

    /// Retire the hint installed by [`ReadContext::scan_hint`]. Must run
    /// once the enumeration is over — a stale hint would mislabel the
    /// next scan. No-op for snapshots.
    fn scan_hint_clear(&self) {}

    /// The scan over `heaps` depended on more than its recorded ranges
    /// (a predicate evaluation errored part-way, so which rows mattered
    /// is unknowable): widen to whole-heap entries. No-op for snapshots.
    fn scan_widen(&self, _heaps: &[u32]) {}
}

impl ReadContext for Transaction<'_> {
    fn db(&self) -> &Database {
        self.db
    }

    fn is_deleted(&self, oid: Oid) -> bool {
        self.deleted.contains_key(&oid)
    }

    fn read_obj(&self, oid: Oid) -> Result<ObjState> {
        self.read(oid)
    }

    fn for_each_overlay(
        &self,
        heaps: &[u32],
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<()>,
    ) -> Result<()> {
        for (oid, obj) in self.writes.in_heaps(heaps, 0) {
            visit(oid, &obj.state)?;
        }
        Ok(())
    }

    fn overlay_contains(&self, oid: Oid) -> bool {
        self.writes.contains_key(&oid)
    }

    fn for_each_extent(
        &self,
        class_name: &str,
        deep: bool,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
    ) -> Result<()> {
        self.stream_extent(class_name, deep, visit)
    }

    fn note_scan(&self, heaps: &[u32]) {
        for &heap in heaps {
            self.note_extent_scan(heap);
        }
    }

    fn scan_hint(&self, ranges: Vec<ode_model::FieldRange>) {
        self.set_scan_ranges(ranges);
    }

    fn scan_hint_clear(&self) {
        self.clear_scan_ranges();
    }

    fn scan_widen(&self, heaps: &[u32]) {
        self.note_scan_unbounded(heaps);
    }
}

/// A snapshot read transaction. Obtain with [`Database::begin_read`];
/// finished by dropping (there is nothing to commit or abort).
///
/// Holds the apply gate shared for its lifetime: readers never block each
/// other, and no writer can *publish* a commit (or run DDL) until every
/// open read transaction drops — which is exactly what guarantees the
/// snapshot is never torn. The epoch captured at begin ([`epoch`]) names
/// the committed state this snapshot sees.
///
/// [`epoch`]: ReadTransaction::epoch
pub struct ReadTransaction<'db> {
    pub(crate) db: &'db Database,
    /// Shared hold on the publish gate for the snapshot's lifetime.
    _apply: parking_lot::RwLockReadGuard<'db, ()>,
    epoch: u64,
    /// Flight-recorder span covering the snapshot's lifetime.
    _flight_span: SpanGuard,
}

impl<'db> ReadTransaction<'db> {
    pub(crate) fn new(db: &'db Database) -> ReadTransaction<'db> {
        let serial = db
            .next_txn_serial
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let apply = db.apply_gate.read();
        db.tel.txn.read_txns.inc();
        let epoch = db.commit_epoch();
        let flight_span = db
            .flight
            .span(SpanStage::Txn, format!("read txn#{serial} epoch={epoch}"));
        ReadTransaction {
            db,
            _apply: apply,
            epoch,
            _flight_span: flight_span,
        }
    }

    /// The commit epoch this snapshot reads at: the number of
    /// commits/DDL statements published before it began. Two snapshots
    /// with the same epoch see identical committed state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Has the database committed past this snapshot's epoch? While the
    /// snapshot is live this is always false — the gate excludes
    /// publishes — so it doubles as a torn-commit assertion in tests.
    pub fn is_stale(&self) -> bool {
        self.db.commit_epoch() != self.epoch
    }

    /// Does the object exist in this snapshot?
    pub fn exists(&self, oid: Oid) -> bool {
        self.read(oid).is_ok()
    }

    /// Read an object's committed current state — dereferencing a
    /// *generic* reference (§4).
    pub fn read(&self, oid: Oid) -> Result<ObjState> {
        Ok(load_current(self.db, oid)?.0)
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

    /// Dereference a *specific* reference: one pinned version (§4).
    pub fn read_version(&self, vref: VersionRef) -> Result<ObjState> {
        self.db.tel.versions.specific_derefs.inc();
        let oid = vref.oid;
        let missing = || OdeError::Version(format!("object {oid} has no version {}", vref.version));
        match read_anchor(self.db, oid)? {
            ObjRecord::Plain(state) if vref.version == 0 => Ok(state),
            ObjRecord::Anchor(table) => {
                let entry = table.entry(vref.version).ok_or_else(missing)?;
                match decode_record(&self.db.store.read(oid.cluster, entry.rid)?)? {
                    ObjRecord::VersionRec { no, state } if no == vref.version => Ok(state),
                    _ => Err(OdeError::Version(format!(
                        "version table of {oid} is inconsistent at version {}",
                        vref.version
                    ))),
                }
            }
            _ => Err(missing()),
        }
    }

    /// The current version number (0 for never-versioned objects).
    pub fn current_version(&self, oid: Oid) -> Result<VersionNo> {
        Ok(match read_anchor(self.db, oid)? {
            ObjRecord::Anchor(table) => table.current,
            _ => 0,
        })
    }

    /// A *specific* reference to the object's current version.
    pub fn vref(&self, oid: Oid) -> Result<VersionRef> {
        Ok(VersionRef {
            oid,
            version: self.current_version(oid)?,
        })
    }

    /// All live version numbers, in creation order.
    pub fn versions(&self, oid: Oid) -> Result<Vec<VersionNo>> {
        Ok(match read_anchor(self.db, oid)? {
            ObjRecord::Anchor(table) => table.versions(),
            _ => vec![0],
        })
    }

    /// The version this one was derived from (`None` for a root).
    pub fn parent_version(&self, vref: VersionRef) -> Result<Option<VersionNo>> {
        let oid = vref.oid;
        let missing = || OdeError::Version(format!("object {oid} has no version {}", vref.version));
        match read_anchor(self.db, oid)? {
            ObjRecord::Anchor(table) => {
                let entry = table.entry(vref.version).ok_or_else(missing)?;
                Ok((entry.parent != NO_PARENT).then_some(entry.parent))
            }
            _ if vref.version == 0 => Ok(None),
            _ => Err(missing()),
        }
    }

    /// The database this snapshot reads.
    pub fn database(&self) -> &'db Database {
        self.db
    }
}

impl Resolver for ReadTransaction<'_> {
    fn deref_obj(&self, oid: Oid) -> ode_model::Result<ObjState> {
        self.read(oid).map_err(|e| ModelError::Eval(e.to_string()))
    }

    fn deref_version(&self, vref: VersionRef) -> ode_model::Result<ObjState> {
        self.read_version(vref)
            .map_err(|e| ModelError::Eval(e.to_string()))
    }
}

impl ReadContext for ReadTransaction<'_> {
    fn db(&self) -> &Database {
        self.db
    }

    fn is_deleted(&self, _oid: Oid) -> bool {
        false
    }

    fn read_obj(&self, oid: Oid) -> Result<ObjState> {
        self.read(oid)
    }

    fn for_each_overlay(
        &self,
        _heaps: &[u32],
        _visit: &mut dyn FnMut(Oid, &ObjState) -> Result<()>,
    ) -> Result<()> {
        Ok(())
    }

    fn overlay_contains(&self, _oid: Oid) -> bool {
        false
    }

    fn for_each_extent(
        &self,
        class_name: &str,
        deep: bool,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
    ) -> Result<()> {
        let layout = self.db.layout();
        let class = layout.schema.id_of(class_name)?;
        for heap in layout.heap_ids(class, deep) {
            if !stream_committed_heap(self.db, heap, &mut |oid, state| visit(oid, state))? {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Heap ids to scan for an extent, first-occurrence order, each once.
/// A heap shared between two classes in the hierarchy (possible with
/// explicit cluster reuse) must not contribute its members twice — this
/// replaces the per-oid `seen` set the old materializing path kept:
/// within one heap every object surfaces exactly once (one anchor record
/// per object, reserved slots invisible to scans), so deduplicating the
/// heap list deduplicates the extent.
pub(crate) fn dedup_heaps(heaps: &[(ClassId, u32)]) -> Vec<u32> {
    // A hierarchy spans a handful of heaps: a linear check beats hashing.
    let mut out: Vec<u32> = Vec::with_capacity(heaps.len());
    for &(_, h) in heaps {
        if !out.contains(&h) {
            out.push(h);
        }
    }
    out
}

/// The anchor record of `oid`: its state inline, or its version table. A
/// version record is not an object.
fn read_anchor(db: &Database, oid: Oid) -> Result<ObjRecord> {
    let bytes = db
        .store
        .read(oid.cluster, oid.rid)
        .map_err(|_| OdeError::NoSuchObject(oid.to_string()))?;
    match decode_record(&bytes)? {
        ObjRecord::VersionRec { .. } => Err(OdeError::NoSuchObject(format!(
            "{oid} is a version record, not an object"
        ))),
        anchor => Ok(anchor),
    }
}

/// The committed current state of `oid`, with its version table if it is
/// versioned (a generic dereference, §4). The caller keeps commits from
/// publishing meanwhile, so the anchor and version record are not torn.
pub(crate) fn load_current(db: &Database, oid: Oid) -> Result<(ObjState, Option<VersionTable>)> {
    let bytes = db
        .store
        .read(oid.cluster, oid.rid)
        .map_err(|_| OdeError::NoSuchObject(oid.to_string()))?;
    match decode_record(&bytes)? {
        ObjRecord::Plain(state) => Ok((state, None)),
        ObjRecord::Anchor(table) => {
            db.tel.versions.generic_derefs.inc();
            let vrid = table.current_rid()?;
            match decode_record(&db.store.read(oid.cluster, vrid)?)? {
                ObjRecord::VersionRec { state, .. } => Ok((state, Some(table))),
                _ => Err(OdeError::Version(format!(
                    "anchor {oid} points at a non-version record"
                ))),
            }
        }
        ObjRecord::VersionRec { .. } => Err(OdeError::NoSuchObject(format!(
            "{oid} is a version record, not an object"
        ))),
    }
}

/// Stream one heap's committed objects in decoded form, page-at-a-time.
///
/// This is the shared engine under both [`ReadContext::for_each_extent`]
/// impls: the store's scan surfaces one page's records at a time (the
/// page-residency bound), version-record bodies are skipped, and anchor
/// records of versioned objects chase their current version via a store
/// read *from inside the scan callback* — safe on every store since the
/// buffer-pool split (PR 3): `FileStore` visits with no locks held,
/// `MemStore` copies out bounded chunks first, `FailpointStore` delegates.
///
/// Returns `Ok(false)` iff `visit` stopped the stream early. A `visit`
/// error aborts the scan and is returned verbatim (it is stashed across
/// the storage-error boundary, not wrapped).
pub(crate) fn stream_committed_heap(
    db: &Database,
    heap: u32,
    visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
) -> Result<bool> {
    let mut stashed: Option<OdeError> = None;
    let mut stopped = false;
    db.store.scan(heap, &mut |rid, bytes| {
        if !is_anchor(bytes) {
            return Ok(true); // version record body — not an extent member
        }
        let oid = Oid { cluster: heap, rid };
        let decoded = (|| -> Result<Option<ObjState>> {
            match decode_record(bytes)? {
                ObjRecord::Plain(s) => Ok(Some(s)),
                ObjRecord::Anchor(table) => {
                    let vrid = table.current_rid()?;
                    match decode_record(&db.store.read(heap, vrid)?)? {
                        ObjRecord::VersionRec { state, .. } => Ok(Some(state)),
                        _ => Err(OdeError::Version(format!(
                            "anchor {oid} points at a non-version record"
                        ))),
                    }
                }
                ObjRecord::VersionRec { .. } => Ok(None),
            }
        })();
        match decoded {
            Ok(Some(state)) => match visit(oid, &state) {
                Ok(true) => Ok(true),
                Ok(false) => {
                    stopped = true;
                    Ok(false)
                }
                Err(e) => {
                    stashed = Some(e);
                    Ok(false)
                }
            },
            Ok(None) => Ok(true),
            Err(e) => {
                stashed = Some(e);
                Ok(false)
            }
        }
    })?;
    if let Some(e) = stashed {
        return Err(e);
    }
    Ok(!stopped)
}
