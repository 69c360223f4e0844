//! Deterministic fault injection at the [`Store`] boundary.
//!
//! [`FailpointStore`] wraps any store and injects typed, seed-driven
//! faults at every I/O-shaped operation, one site per commit phase —
//! prepare failures before the WAL append (ENOSPC, a dying disk), group
//! fsync failures (which fail the wrapper as a failed fsync fails a
//! [`crate::FileStore`]), and acknowledgement loss *after* a durable
//! apply (the in-doubt window every durable system has) — plus
//! checkpoint failures, release failures on the abort path, and read
//! failures. Every commit runs the phases, so [`Store::commit`] meets all
//! three commit sites. The schedule is a pure function of the seed, so a
//! failing torture run replays exactly from its seed (DESIGN.md §10).
//!
//! Faults injected here model the *error-return* half of the failure
//! model; torn WAL tails and bit flips are file-level damage that the
//! crash-torture harness inflicts directly between crash and reopen.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::heap::RecordId;
use crate::store::{CommitTicket, HeapId, Store, StoreOp, StoreStats};

/// Which failpoint fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `commit_prepare` failed before anything reached the inner store:
    /// the batch is definitely not durable and definitely not visible.
    CommitPre,
    /// The inner `commit_apply` succeeded — the batch IS durable and
    /// applied — but the acknowledgement was "lost" and an error returned
    /// instead. The batch is in doubt from the caller's point of view.
    CommitAckLoss,
    /// The group-commit fsync failed (`commit_durable`): the batch is
    /// appended to the WAL but its durability was never confirmed, so it
    /// is in doubt until a reopen replays it whole or not at all. The
    /// commit gets [`StorageError::Failed`], and so does every later log
    /// append, heap create/drop and checkpoint through the wrapper
    /// (DESIGN.md §13).
    GroupSync,
    /// `checkpoint` failed. The WAL is left intact, so no data is lost.
    Checkpoint,
    /// `release` failed on the abort path (the reservation leaks until
    /// the next reopen reclaims it).
    Release,
    /// `read` failed transiently.
    Read,
}

impl FaultKind {
    fn error(self) -> StorageError {
        let context = match self {
            FaultKind::GroupSync => return StorageError::Failed,
            FaultKind::CommitPre => "append wal group (injected: no space left on device)",
            FaultKind::CommitAckLoss => "acknowledge commit (injected: ack lost after append)",
            FaultKind::Checkpoint => "checkpoint (injected)",
            FaultKind::Release => "release reservation (injected)",
            FaultKind::Read => "read record (injected)",
        };
        StorageError::io(context, std::io::Error::other("injected fault"))
    }
}

/// Fault schedule: each operation fires with probability `1/denominator`
/// (0 disables that failpoint). The schedule is driven by a seeded
/// SplitMix64, so two stores built with the same config inject the same
/// faults in the same order.
#[derive(Debug, Clone)]
pub struct FailpointConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// 1-in-N chance a `commit_prepare` fails before reaching the inner
    /// store.
    pub commit_pre: u32,
    /// 1-in-N chance a `commit_apply` succeeds but reports an error.
    pub commit_ack_loss: u32,
    /// 1-in-N chance a `commit_durable` (group-commit fsync) fails.
    pub group_sync: u32,
    /// 1-in-N chance a `checkpoint` fails.
    pub checkpoint: u32,
    /// 1-in-N chance a `release` fails.
    pub release: u32,
    /// 1-in-N chance a `read` fails.
    pub read: u32,
}

impl FailpointConfig {
    /// All failpoints disabled (pure pass-through; still counts nothing).
    pub fn disabled(seed: u64) -> FailpointConfig {
        FailpointConfig {
            seed,
            commit_pre: 0,
            commit_ack_loss: 0,
            group_sync: 0,
            checkpoint: 0,
            release: 0,
            read: 0,
        }
    }

    /// The torture-harness default: commit-path faults common, the rest
    /// occasional.
    pub fn torture(seed: u64) -> FailpointConfig {
        FailpointConfig {
            seed,
            commit_pre: 6,
            commit_ack_loss: 10,
            group_sync: 10,
            checkpoint: 8,
            release: 4,
            read: 0,
        }
    }
}

/// SplitMix64: tiny, deterministic, good enough for a fault schedule.
/// Embedded here so the crate keeps its single `parking_lot` dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A [`Store`] wrapper that injects deterministic faults. See the module
/// docs for the taxonomy.
pub struct FailpointStore {
    inner: Arc<dyn Store>,
    cfg: FailpointConfig,
    rng: Mutex<SplitMix64>,
    /// One-shot scripted fault, consumed by the next matching operation.
    forced: Mutex<Option<FaultKind>>,
    /// The most recent fault, for callers classifying an error they just
    /// received (the torture harness's durable/in-doubt split).
    last: Mutex<Option<FaultKind>>,
    faults: AtomicU64,
    /// Set by an injected [`FaultKind::GroupSync`]: writes are refused.
    failed: AtomicBool,
}

impl FailpointStore {
    /// Wrap `inner` with the given fault schedule.
    pub fn new(inner: Arc<dyn Store>, cfg: FailpointConfig) -> FailpointStore {
        let rng = Mutex::new(SplitMix64(cfg.seed));
        FailpointStore {
            inner,
            cfg,
            rng,
            forced: Mutex::new(None),
            last: Mutex::new(None),
            faults: AtomicU64::new(0),
            failed: AtomicBool::new(false),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &Arc<dyn Store> {
        &self.inner
    }

    /// Script exactly one fault: the next operation matching `kind` fails
    /// regardless of the probabilistic schedule.
    pub fn force(&self, kind: FaultKind) {
        *self.forced.lock() = Some(kind);
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// The most recent injected fault, cleared on read. After a failed
    /// commit, this tells the caller whether the batch is definitely
    /// absent ([`FaultKind::CommitPre`]) or in doubt
    /// ([`FaultKind::CommitAckLoss`], [`FaultKind::GroupSync`]).
    pub fn take_last_fault(&self) -> Option<FaultKind> {
        self.last.lock().take()
    }

    /// Should `kind` fire now? Consults the scripted one-shot first, then
    /// the probabilistic schedule.
    fn fires(&self, kind: FaultKind, denom: u32) -> bool {
        {
            let mut forced = self.forced.lock();
            if *forced == Some(kind) {
                *forced = None;
                return true;
            }
        }
        denom != 0 && self.rng.lock().next().is_multiple_of(denom as u64)
    }

    fn inject(&self, kind: FaultKind) -> StorageError {
        self.faults.fetch_add(1, Ordering::Relaxed);
        *self.last.lock() = Some(kind);
        kind.error()
    }

    /// [`StorageError::Failed`] once a group sync fault has fired.
    fn live(&self) -> Result<()> {
        if self.failed.load(Ordering::Acquire) {
            return Err(StorageError::Failed);
        }
        Ok(())
    }
}

impl Store for FailpointStore {
    fn create_heap(&self) -> Result<HeapId> {
        self.live()?;
        self.inner.create_heap()
    }

    fn drop_heap(&self, heap: HeapId) -> Result<()> {
        self.live()?;
        self.inner.drop_heap(heap)
    }

    fn has_heap(&self, heap: HeapId) -> bool {
        self.inner.has_heap(heap)
    }

    fn reserve(&self, heap: HeapId, size_hint: usize) -> Result<RecordId> {
        self.inner.reserve(heap, size_hint)
    }

    fn release(&self, heap: HeapId, rid: RecordId) -> Result<()> {
        if self.fires(FaultKind::Release, self.cfg.release) {
            return Err(self.inject(FaultKind::Release));
        }
        self.inner.release(heap, rid)
    }

    fn read(&self, heap: HeapId, rid: RecordId) -> Result<Vec<u8>> {
        if self.fires(FaultKind::Read, self.cfg.read) {
            return Err(self.inject(FaultKind::Read));
        }
        self.inner.read(heap, rid)
    }

    fn commit_prepare(&self, ops: Vec<StoreOp>) -> Result<CommitTicket> {
        // A pre-append failure: nothing was logged, the batch is
        // definitely absent, the caller may retry.
        self.live()?;
        if self.fires(FaultKind::CommitPre, self.cfg.commit_pre) {
            return Err(self.inject(FaultKind::CommitPre));
        }
        self.inner.commit_prepare(ops)
    }

    fn commit_durable(&self, ticket: &CommitTicket) -> Result<()> {
        // The cohort fsync "fails": the group sits in the WAL unsynced, so
        // recovery may or may not replay it — the in-doubt window — and
        // the wrapper fails as the store would.
        if self.fires(FaultKind::GroupSync, self.cfg.group_sync) {
            self.failed.store(true, Ordering::Release);
            return Err(self.inject(FaultKind::GroupSync));
        }
        self.inner.commit_durable(ticket)
    }

    fn commit_apply(&self, ticket: CommitTicket) -> Result<()> {
        // Ack loss after the batch is durable and applied (decided first,
        // so the schedule stays a pure function of the seed, independent
        // of inner outcomes).
        let ack_loss = self.fires(FaultKind::CommitAckLoss, self.cfg.commit_ack_loss);
        self.inner.commit_apply(ticket)?;
        if ack_loss {
            return Err(self.inject(FaultKind::CommitAckLoss));
        }
        Ok(())
    }

    fn scan(
        &self,
        heap: HeapId,
        visit: &mut dyn FnMut(RecordId, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        self.inner.scan(heap, visit)
    }

    fn checkpoint(&self) -> Result<()> {
        self.live()?;
        if self.fires(FaultKind::Checkpoint, self.cfg.checkpoint) {
            return Err(self.inject(FaultKind::Checkpoint));
        }
        self.inner.checkpoint()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            faults_injected: self.faults_injected(),
            ..self.inner.stats()
        }
    }

    fn reset_stats(&self) {
        self.faults.store(0, Ordering::Relaxed);
        self.inner.reset_stats();
    }

    fn clear_cache(&self) -> Result<()> {
        self.inner.clear_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::MemStore;

    fn put(heap: HeapId, rid: RecordId, data: &[u8]) -> StoreOp {
        StoreOp::Put {
            heap,
            rid,
            data: data.to_vec(),
        }
    }

    #[test]
    fn disabled_config_is_a_pass_through() {
        let fp = FailpointStore::new(Arc::new(MemStore::new()), FailpointConfig::disabled(1));
        let heap = fp.create_heap().unwrap();
        let rid = fp.reserve(heap, 8).unwrap();
        fp.commit(vec![put(heap, rid, b"x")]).unwrap();
        assert_eq!(fp.read(heap, rid).unwrap(), b"x");
        assert_eq!(fp.faults_injected(), 0);
        assert_eq!(fp.stats().faults_injected, 0);
    }

    #[test]
    fn forced_commit_pre_fails_without_touching_inner() {
        let inner: Arc<dyn Store> = Arc::new(MemStore::new());
        let fp = FailpointStore::new(Arc::clone(&inner), FailpointConfig::disabled(1));
        let heap = fp.create_heap().unwrap();
        let rid = fp.reserve(heap, 8).unwrap();
        fp.force(FaultKind::CommitPre);
        let err = fp.commit(vec![put(heap, rid, b"lost")]).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(fp.take_last_fault(), Some(FaultKind::CommitPre));
        assert!(inner.read(heap, rid).is_err(), "batch must not be applied");
        assert_eq!(fp.faults_injected(), 1);
        // Retry succeeds: the failpoint was one-shot.
        fp.commit(vec![put(heap, rid, b"retried")]).unwrap();
        assert_eq!(fp.read(heap, rid).unwrap(), b"retried");
    }

    #[test]
    fn ack_loss_leaves_the_batch_durable() {
        let inner: Arc<dyn Store> = Arc::new(MemStore::new());
        let fp = FailpointStore::new(Arc::clone(&inner), FailpointConfig::disabled(1));
        let heap = fp.create_heap().unwrap();
        let rid = fp.reserve(heap, 8).unwrap();
        fp.force(FaultKind::CommitAckLoss);
        fp.commit(vec![put(heap, rid, b"in doubt")]).unwrap_err();
        assert_eq!(fp.take_last_fault(), Some(FaultKind::CommitAckLoss));
        // The error lied: the inner store applied the batch.
        assert_eq!(inner.read(heap, rid).unwrap(), b"in doubt");
    }

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let fp = FailpointStore::new(
                Arc::new(MemStore::new()),
                FailpointConfig {
                    seed,
                    commit_pre: 3,
                    ..FailpointConfig::disabled(seed)
                },
            );
            let heap = fp.create_heap().unwrap();
            (0..64)
                .map(|_| {
                    let rid = fp.reserve(heap, 8).unwrap();
                    fp.commit(vec![put(heap, rid, b"d")]).is_err()
                })
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds, different schedules");
        assert!(run(42).iter().any(|&f| f), "denominator 3 must fire in 64");
    }

    #[test]
    fn checkpoint_and_release_faults_fire_and_count() {
        let fp = FailpointStore::new(Arc::new(MemStore::new()), FailpointConfig::disabled(7));
        let heap = fp.create_heap().unwrap();
        let rid = fp.reserve(heap, 8).unwrap();
        fp.force(FaultKind::Release);
        assert!(fp.release(heap, rid).is_err());
        fp.force(FaultKind::Checkpoint);
        assert!(fp.checkpoint().is_err());
        assert_eq!(fp.faults_injected(), 2);
        fp.reset_stats();
        assert_eq!(fp.faults_injected(), 0);
    }
}
