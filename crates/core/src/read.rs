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

use ode_model::encode::decode_object_into;
use ode_model::{
    ClassId, FieldRange, ModelError, ObjState, Oid, Resolver, SlotMask, Value, VersionNo,
    VersionRef,
};
use ode_obs::{SpanGuard, SpanStage};
use ode_storage::{StorageError, Store};

use crate::database::{Database, Layout};
use crate::error::{OdeError, Result};
use crate::object::{
    current_rid, decode_record, is_anchor, ObjRecord, VersionTable, NO_PARENT, TAG_PLAIN,
    TAG_VERSIONED, TAG_VREC,
};
use crate::txn::Transaction;

/// What one statement streams of an extent, read against the layout the
/// statement started with: the class's deep or shallow extent, each
/// committed record decoded through a mask, with the key ranges and the
/// point key the statement's predicate pins. The query layer builds it;
/// [`ReadContext::for_each_extent`] builds the plain form.
pub struct ExtentScan<'s> {
    pub(crate) layout: &'s Layout,
    pub(crate) class: ClassId,
    pub(crate) deep: bool,
    /// The slots of each committed record to decode.
    pub(crate) mask: &'s SlotMask,
    /// The key intervals the predicate proved (empty: none), recorded with
    /// a write transaction's scan entries for narrowed validation
    /// (DESIGN.md §14).
    pub(crate) ranges: &'s [FieldRange],
    /// `(field, value)` when an equality test lets a write transaction
    /// read its overlay through a key map (DESIGN.md §8): only entries
    /// whose `field` may equal `value` can pass the predicate.
    pub(crate) key: Option<(&'s str, &'s Value)>,
}

impl ExtentScan<'_> {
    /// The heaps the extent streams, each once.
    pub(crate) fn heaps(&self) -> &[u32] {
        &self.layout.extent(self.class, self.deep).heaps
    }
}

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

    /// [`ReadContext::read_obj`], decoding a committed image into `into`
    /// only as far as `mask` reads it (every other slot is `Null`); a
    /// write-set state is lent whole. The read is recorded the same way.
    fn read_masked<'s>(
        &'s self,
        oid: Oid,
        mask: &SlotMask,
        into: &'s mut ObjState,
    ) -> Result<&'s ObjState>;

    /// Visit the write-set overlay of `scan`'s heaps: objects in those
    /// heaps created or loaded-for-write by this transaction, in creation
    /// order, with their in-transaction states borrowed in place. With a
    /// point key, only the entries its key map returns. Writes to other
    /// heaps cost nothing. Empty for snapshots.
    fn for_each_overlay(
        &self,
        scan: &ExtentScan<'_>,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<()>,
    ) -> Result<()>;

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
    ) -> Result<()> {
        let layout = self.db().layout();
        let scan = ExtentScan {
            layout: &layout,
            class: layout.schema.id_of(class_name)?,
            deep,
            mask: &SlotMask::ALL,
            ranges: &[],
            key: None,
        };
        self.scan_extent(&scan, visit)
    }

    /// [`ReadContext::for_each_extent`] over the extent `scan` names:
    /// committed records are decoded only as far as its mask reads them
    /// (write-set states are visited whole), and a write transaction
    /// records its scan entries with the scan's ranges.
    fn scan_extent(
        &self,
        scan: &ExtentScan<'_>,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
    ) -> Result<()>;

    /// Record that a predicate pinning `ranges` (empty: none) was
    /// evaluated over the whole extent held in `heaps` (phantom protection
    /// for write transactions, DESIGN.md §13). Index probes call this: the
    /// probe's answer depends on the same committed extent the index
    /// summarizes. No-op for snapshots.
    fn note_scan(&self, _heaps: &[u32], _ranges: &[FieldRange]) {}

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

    fn read_masked<'s>(
        &'s self,
        oid: Oid,
        mask: &SlotMask,
        into: &'s mut ObjState,
    ) -> Result<&'s ObjState> {
        self.ensure_live()?;
        if self.deleted.contains_key(&oid) {
            return Err(OdeError::NoSuchObject(format!("{oid} (deleted)")));
        }
        if let Some(obj) = self.writes.get(&oid) {
            return Ok(&obj.state);
        }
        self.load_committed_into(oid, mask, into)?;
        Ok(into)
    }

    fn for_each_overlay(
        &self,
        scan: &ExtentScan<'_>,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<()>,
    ) -> Result<()> {
        self.overlay(scan, &mut |oid, obj| {
            visit(oid, &obj.state)?;
            Ok(true)
        })?;
        Ok(())
    }

    fn scan_extent(
        &self,
        scan: &ExtentScan<'_>,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
    ) -> Result<()> {
        self.stream_extent(scan, visit)
    }

    fn note_scan(&self, heaps: &[u32], ranges: &[FieldRange]) {
        for &heap in heaps {
            self.note_extent_scan(heap, ranges);
        }
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

    fn read_masked<'s>(
        &'s self,
        oid: Oid,
        mask: &SlotMask,
        into: &'s mut ObjState,
    ) -> Result<&'s ObjState> {
        load_current_into(self.db, oid, mask, into)?;
        Ok(into)
    }

    fn for_each_overlay(
        &self,
        _scan: &ExtentScan<'_>,
        _visit: &mut dyn FnMut(Oid, &ObjState) -> Result<()>,
    ) -> Result<()> {
        Ok(())
    }

    fn scan_extent(
        &self,
        scan: &ExtentScan<'_>,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
    ) -> Result<()> {
        for &heap in scan.heaps() {
            if !stream_committed_heap(self.db.store.as_ref(), heap, scan.mask, visit)? {
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

/// The bytes of `oid`'s anchor record. A record or heap the store does not
/// have is no such object; any other store error (a failed read) is
/// returned as it is.
fn read_record(db: &Database, oid: Oid) -> Result<Vec<u8>> {
    db.store.read(oid.cluster, oid.rid).map_err(|e| match e {
        StorageError::NoSuchRecord { .. } | StorageError::NoSuchHeap(_) => {
            OdeError::NoSuchObject(oid.to_string())
        }
        e => e.into(),
    })
}

/// The anchor record of `oid`: its state inline, or its version table. A
/// version record is not an object.
fn read_anchor(db: &Database, oid: Oid) -> Result<ObjRecord> {
    let bytes = read_record(db, oid)?;
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
    let bytes = read_record(db, oid)?;
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

/// [`load_current`]'s state decoded through `mask` into `into`: slots the
/// mask skips are `Null`, and a versioned object costs the read of its
/// current version record. Fails as [`load_current`] does.
pub(crate) fn load_current_into(
    db: &Database,
    oid: Oid,
    mask: &SlotMask,
    into: &mut ObjState,
) -> Result<()> {
    let bytes = read_record(db, oid)?;
    match bytes.split_first() {
        Some((&TAG_PLAIN, body)) => Ok(decode_object_into(body, into, mask)?),
        Some((&TAG_VERSIONED, _)) => {
            db.tel.versions.generic_derefs.inc();
            current_version_into(db.store.as_ref(), oid, &bytes, mask, into)
        }
        _ => {
            decode_record(&bytes)?;
            Err(OdeError::NoSuchObject(format!(
                "{oid} is a version record, not an object"
            )))
        }
    }
}

/// Stream one heap's committed objects in decoded form, page-at-a-time.
///
/// This is the shared engine under both [`ReadContext::for_each_extent`]
/// impls and index builds: the store's scan surfaces one page's records at
/// a time (the page-residency bound), version-record bodies are skipped,
/// and anchor records of versioned objects chase their current version via
/// a store read *from inside the scan callback* — safe on every store since
/// the buffer-pool split: `FileStore` visits with no locks held,
/// `MemStore` copies out bounded chunks first, `FailpointStore` delegates.
///
/// Every object is decoded into one state reused for the whole heap
/// ([`decode_object_into`]), through `mask`: only the slots it reads are
/// filled, the rest are `Null`. So `visit` borrows a state that lives only
/// for its call, a scan allocates nothing per plain object, and a
/// versioned one costs the read of its version record.
///
/// Returns `Ok(false)` iff `visit` stopped the stream early. A `visit`
/// error aborts the scan and is returned verbatim (it is stashed across
/// the storage-error boundary, not wrapped).
pub(crate) fn stream_committed_heap(
    store: &dyn Store,
    heap: u32,
    mask: &SlotMask,
    visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
) -> Result<bool> {
    let mut stashed: Option<OdeError> = None;
    let mut stopped = false;
    let mut scratch = ObjState::new(ClassId(0), 0);
    store.scan(heap, &mut |rid, bytes| {
        if !is_anchor(bytes) {
            return Ok(true); // version record body — not an extent member
        }
        let oid = Oid { cluster: heap, rid };
        let decoded = match bytes.split_first() {
            Some((&TAG_PLAIN, body)) => {
                decode_object_into(body, &mut scratch, mask).map_err(OdeError::from)
            }
            _ => current_version_into(store, oid, bytes, mask, &mut scratch),
        };
        match decoded.and_then(|()| visit(oid, &scratch)) {
            Ok(true) => Ok(true),
            Ok(false) => {
                stopped = true;
                Ok(false)
            }
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

/// Decode the current state of the versioned object whose anchor is
/// `anchor` into `into`, through `mask`. Only the anchor's current record
/// id is read from its table, and the version body is decoded in place, so
/// the store read of the version record is the only allocation.
fn current_version_into(
    store: &dyn Store,
    oid: Oid,
    anchor: &[u8],
    mask: &SlotMask,
    into: &mut ObjState,
) -> Result<()> {
    let Some((&TAG_VERSIONED, table)) = anchor.split_first() else {
        return Err(OdeError::Version(format!(
            "{oid} is not a versioned anchor"
        )));
    };
    let record = store.read(oid.cluster, current_rid(table)?)?;
    match record.split_first() {
        // The tag, the version number, then the state.
        Some((&TAG_VREC, rest)) if rest.len() >= 4 => {
            Ok(decode_object_into(&rest[4..], into, mask)?)
        }
        // Not a version record: a malformed record fails as a full decode
        // fails, a well-formed one of another kind is misplaced.
        _ => {
            decode_record(&record)?;
            Err(OdeError::Version(format!(
                "anchor {oid} points at a non-version record"
            )))
        }
    }
}
