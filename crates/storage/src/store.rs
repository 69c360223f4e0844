//! The [`Store`] trait: the storage interface consumed by the Ode engine.
//!
//! A store is a set of *heaps* (one per Ode cluster plus one for the
//! catalog) holding byte records with stable [`RecordId`]s. The engine's
//! transaction layer keeps uncommitted changes in its own write-set and
//! funnels them into one atomic batch; the only pre-commit side effect is
//! [`Store::reserve`], which pins a record id so newly created objects
//! have their identity immediately (paper §2: the id returned by `pnew`).
//!
//! A batch commits through one protocol, in three phases:
//! [`Store::commit_prepare`] checks the batch and logs it,
//! [`Store::commit_durable`] makes it durable, and [`Store::commit_apply`]
//! makes it visible. A batch the store would refuse is refused at prepare,
//! before anything is logged. [`Store::commit`] runs the three phases back
//! to back for callers outside the engine's commit pipeline.
//!
//! A failed fsync fails the store (DESIGN.md §13): that commit, its
//! cohort, and every later log append, heap create/drop and checkpoint
//! return [`StorageError::Failed`], while reads keep working. The next
//! open replays the log as written, so the failed group lands whole or
//! not at all, like a commit whose acknowledgement was lost.

use crate::error::{Result, StorageError};
use crate::heap::{RecordId, MAX_PAYLOAD};
use crate::pager::PagerStats;

/// Identifies a heap (an Ode cluster's extent, or the catalog).
pub type HeapId = u32;

/// One mutation inside a commit batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    /// Write `data` at `rid` (which was earlier reserved or already holds a
    /// record).
    Put {
        heap: HeapId,
        rid: RecordId,
        data: Vec<u8>,
    },
    /// Remove the record at `rid`.
    Delete { heap: HeapId, rid: RecordId },
}

/// Counters for the substrate benches (figures F8/F9) and the engine's
/// telemetry snapshot.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    /// Buffer-pool counters (zero for the in-memory store).
    pub pager: PagerStats,
    /// Bytes in the WAL since the last checkpoint.
    pub wal_bytes: u64,
    /// Pages in the data file.
    pub page_count: u32,
    /// Committed batches since open or the last reset.
    pub commits: u64,
    /// Record reads served.
    pub record_reads: u64,
    /// Records written by commit batches (`Put` ops applied).
    pub record_writes: u64,
    /// WAL commit groups appended (zero for the in-memory store).
    pub wal_appends: u64,
    /// WAL fsyncs issued (zero when sync is disabled).
    pub wal_fsyncs: u64,
    /// WAL commit groups replayed during recovery at the last open.
    pub replayed_groups: u64,
    /// Faults injected by a wrapping [`crate::FailpointStore`] (always
    /// zero for the concrete stores themselves).
    pub faults_injected: u64,
    /// Checkpoint attempts that failed. A failed write leaves the WAL
    /// intact, so durability is unharmed (DESIGN.md §10); a failed fsync
    /// fails the store, and every later attempt is refused (§13).
    pub checkpoint_failures: u64,
    /// Group-commit fsync cohorts: each counts one `sync_data` that made
    /// one *or more* prepared commits durable (DESIGN.md §13).
    pub commit_groups: u64,
    /// Commits whose durability rode a cohort fsync. `commit_group_members
    /// / commit_groups` is the mean cohort size; under contention it
    /// exceeds 1 and fsyncs-per-commit drops below 1.
    pub commit_group_members: u64,
}

/// A prepared-but-not-yet-applied commit, returned by
/// [`Store::commit_prepare`] and consumed by [`Store::commit_apply`]; a
/// ticket whose durability failed is simply dropped. For stores without a
/// WAL the ticket just carries the ops; [`crate::FileStore`] stamps `seq`
/// with the WAL group sequence so followers can wait for a leader's fsync
/// to cover them.
#[derive(Debug)]
pub struct CommitTicket {
    /// WAL group sequence; 0 means no durability wait (no WAL, or
    /// commits not synced).
    pub seq: u64,
    /// The batch, carried from prepare to apply.
    pub ops: Vec<StoreOp>,
}

/// Abstract persistent store. Implementations: [`crate::FileStore`]
/// (durable) and [`crate::MemStore`] (tests/benches without I/O).
///
/// All methods take `&self`; implementations synchronize internally.
/// Mutations (commit, reserve, heap DDL) serialize behind one structural
/// lock per store, while `read` and `scan` run on a shared path — the
/// lock-striped buffer pool in [`crate::FileStore`], a reader-writer lock
/// in [`crate::MemStore`] — so concurrent readers never contend with each
/// other (DESIGN.md §8).
pub trait Store: Send + Sync {
    /// Create a new heap and return its id. Ids are assigned sequentially
    /// starting at 1, so a fresh store's first heap (the engine's catalog)
    /// is always heap 1.
    fn create_heap(&self) -> Result<HeapId>;

    /// Drop a heap and free its pages.
    fn drop_heap(&self, heap: HeapId) -> Result<()>;

    /// Does `heap` exist?
    fn has_heap(&self, heap: HeapId) -> bool;

    /// Reserve a fresh record id in `heap` without writing data.
    /// `size_hint` pre-sizes the extent for the eventual `Put`.
    fn reserve(&self, heap: HeapId, size_hint: usize) -> Result<RecordId>;

    /// Release a reservation that will never be committed (abort path).
    fn release(&self, heap: HeapId, rid: RecordId) -> Result<()>;

    /// Read a committed record.
    fn read(&self, heap: HeapId, rid: RecordId) -> Result<Vec<u8>>;

    /// Commit a batch through the three phases; on success every op is
    /// durable and visible. An error from prepare leaves nothing logged;
    /// an error after it leaves the batch in doubt, exactly as in the
    /// engine's pipeline (DESIGN.md §10).
    fn commit(&self, ops: Vec<StoreOp>) -> Result<()> {
        let ticket = self.commit_prepare(ops)?;
        self.commit_durable(&ticket)?;
        self.commit_apply(ticket)
    }

    /// Phase 1 (DESIGN.md §13): check the batch — every heap exists and
    /// every payload fits a record — and append it to the log *without*
    /// waiting for durability. Called inside the engine's commit gate, so
    /// WAL order matches epoch order. On error nothing was logged: a batch
    /// that fails the check is refused for good, and a transient append
    /// failure may be retried.
    fn commit_prepare(&self, ops: Vec<StoreOp>) -> Result<CommitTicket>;

    /// Phase 2: make the prepared batch durable. Runs *outside* the
    /// engine's locks; concurrent callers share one fsync via leader/
    /// follower handoff in [`crate::FileStore`]. An error is
    /// [`StorageError::Failed`]: the batch is in doubt, and the store
    /// takes no write until it is reopened.
    fn commit_durable(&self, _ticket: &CommitTicket) -> Result<()> {
        Ok(())
    }

    /// Phase 3: apply the batch to the live pages/heaps. Called under the
    /// engine's apply gate so snapshot readers never observe a torn batch.
    /// An error here comes after the batch is durable: it is in doubt.
    fn commit_apply(&self, ticket: CommitTicket) -> Result<()>;

    /// Visit every record of `heap` in stable (record-id) order; the
    /// callback returns `false` to stop early.
    fn scan(
        &self,
        heap: HeapId,
        visit: &mut dyn FnMut(RecordId, &[u8]) -> Result<bool>,
    ) -> Result<()>;

    /// Force all state to the data file and truncate the WAL.
    fn checkpoint(&self) -> Result<()>;

    /// Substrate counters.
    fn stats(&self) -> StoreStats;

    /// Reset counters (benches measure deltas).
    fn reset_stats(&self);

    /// Drop cached pages (benches: force cold-cache reads). No-op for the
    /// in-memory store.
    fn clear_cache(&self) -> Result<()>;
}

/// The checks every store makes at [`Store::commit_prepare`], under the
/// lock it already holds: each op names an existing heap, and each payload
/// fits a record ([`MAX_PAYLOAD`]). A batch that fails them is never
/// logged, so it can be neither durable nor half-applied.
pub(crate) fn check_batch(ops: &[StoreOp], has_heap: impl Fn(HeapId) -> bool) -> Result<()> {
    for op in ops {
        let heap = match op {
            StoreOp::Put { heap, .. } | StoreOp::Delete { heap, .. } => *heap,
        };
        if !has_heap(heap) {
            return Err(StorageError::NoSuchHeap(heap));
        }
        if let StoreOp::Put { data, .. } = op {
            if data.len() > MAX_PAYLOAD {
                return Err(StorageError::RecordTooLarge {
                    size: data.len(),
                    max: MAX_PAYLOAD,
                });
            }
        }
    }
    Ok(())
}
