//! Durable [`Store`] implementation: pager + heaps + WAL in one directory.
//!
//! Layout on disk:
//! * `data.odb` — the page file; page 0 is the meta page (store magic,
//!   format version, next heap id, live heap ids),
//! * `wal.odb` — the redo log.
//!
//! Opening an existing store replays the WAL (idempotently) and then
//! rebuilds heap membership and free-space information by scanning page
//! headers, which also reclaims reservations orphaned by a crash.

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::heap::{HeapManager, RecordId};
use crate::page::{Page, PageType};
use crate::pager::Pager;
use crate::store::{check_batch, CommitTicket, HeapId, Store, StoreOp, StoreStats};
use crate::wal::{Wal, WalOp};

/// Store-level magic in the meta record.
const META_MAGIC: u32 = 0x0DE0_0001;
/// On-disk format version.
const FORMAT_VERSION: u32 = 1;
/// Checkpoint when the WAL exceeds this many bytes.
const DEFAULT_CHECKPOINT_BYTES: u64 = 16 * 1024 * 1024;
/// Default buffer-pool capacity, in pages (= 32 MiB).
pub const DEFAULT_POOL_PAGES: usize = 4096;

struct Meta {
    next_heap_id: u32,
    heaps: BTreeSet<HeapId>,
}

impl Meta {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * self.heaps.len());
        out.extend_from_slice(&META_MAGIC.to_le_bytes());
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.next_heap_id.to_le_bytes());
        out.extend_from_slice(&(self.heaps.len() as u32).to_le_bytes());
        for h in &self.heaps {
            out.extend_from_slice(&h.to_le_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Meta> {
        let word = |i: usize| -> Result<u32> {
            bytes
                .get(i..i + 4)
                .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
                .ok_or_else(|| StorageError::Corrupt("meta record truncated".into()))
        };
        if word(0)? != META_MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = word(4)?;
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion(version));
        }
        let next_heap_id = word(8)?;
        let count = word(12)? as usize;
        let mut heaps = BTreeSet::new();
        for i in 0..count {
            heaps.insert(word(16 + 4 * i)?);
        }
        Ok(Meta {
            next_heap_id,
            heaps,
        })
    }
}

/// Structural state: heap bookkeeping, the WAL, and the meta record. One
/// narrow lock guards it — mutations (commit apply, allocation, DDL) and
/// page-list snapshots take it; record reads never do, going straight to
/// the internally synchronized [`Pager`] (DESIGN.md §8).
struct StoreState {
    heaps: HeapManager,
    wal: Wal,
    meta: Meta,
    sync: bool,
    checkpoint_bytes: u64,
    /// Commits prepared ([`Store::commit_prepare`]) but not yet applied.
    /// While nonzero the WAL holds groups whose effects are not
    /// in the pages yet, so checkpoints must not truncate it (DESIGN.md
    /// §13 — the invariant replacing the old single-writer `txn_gate`).
    pending_applies: u64,
}

impl StoreState {
    /// Persist the meta record into page 0, slot 0.
    fn write_meta(&mut self, pager: &Pager) -> Result<()> {
        let bytes = self.meta.encode();
        let ok = pager.with_page_mut(0, |p| {
            if !p.ensure_slot(0) {
                return false;
            }
            p.update(0, &bytes)
        })?;
        if !ok {
            return Err(StorageError::Internal(
                "meta record exceeds the meta page (too many heaps)".into(),
            ));
        }
        Ok(())
    }

    fn apply_store_op(&mut self, pager: &Pager, op: &StoreOp) -> Result<()> {
        match op {
            StoreOp::Put { heap, rid, data } => self.heaps.put_at(pager, *heap, *rid, data),
            StoreOp::Delete { heap, rid } => self.heaps.delete(pager, *heap, *rid),
        }
    }

    fn apply_op(&mut self, pager: &Pager, op: &WalOp) -> Result<()> {
        match op {
            WalOp::EnsureHeap(h) => {
                self.heaps.create_heap(*h);
                self.meta.heaps.insert(*h);
                self.meta.next_heap_id = self.meta.next_heap_id.max(h + 1);
                self.write_meta(pager)?;
            }
            WalOp::DropHeap(h) => {
                if self.heaps.has_heap(*h) {
                    self.heaps.drop_heap(pager, *h)?;
                }
                self.meta.heaps.remove(h);
                self.write_meta(pager)?;
            }
            WalOp::Put { heap, rid, data } => {
                self.heaps.put_at(pager, *heap, *rid, data)?;
            }
            WalOp::Delete { heap, rid } => {
                self.heaps.delete(pager, *heap, *rid)?;
            }
        }
        Ok(())
    }
}

/// Leader/follower fsync handoff for WAL group commit (DESIGN.md §13).
/// One committer at a time becomes the *leader*, snapshots the highest
/// appended group sequence, and issues a single `sync_data` that covers
/// every group appended so far; the others wait on the condvar and find
/// their sequence already durable when they wake.
struct SyncShared {
    /// Highest WAL group sequence appended (commits and heap DDL).
    appended_seq: u64,
    /// Highest sequence known durable (covered by a successful fsync).
    synced_seq: u64,
    /// A leader is currently in the fsync window.
    flushing: bool,
}

/// Durable, WAL-protected store rooted at a directory.
///
/// Locking: the buffer pool is lock-striped inside [`Pager`]; `read` and
/// the page-visiting part of `scan` touch only pager shards, so concurrent
/// readers on different pages never contend. Everything that mutates
/// structure — WAL appends, commit apply, heap create/drop, reservations —
/// serializes behind the single `StoreState` mutex, which keeps the
/// WAL-before-data ordering proof exactly as simple as the old
/// one-big-lock design.
pub struct FileStore {
    pager: Pager,
    state: Mutex<StoreState>,
    /// Signalled when `pending_applies` drops to zero (checkpoint barrier).
    apply_cv: Condvar,
    /// Group-commit fsync coordination; a WAL file handle cloned at open
    /// lets the leader fsync without holding the structural lock.
    sync_shared: Mutex<SyncShared>,
    sync_cv: Condvar,
    wal_sync_handle: std::fs::File,
    /// Set by the first failed `sync_data`: the store refuses every write
    /// until it is reopened (DESIGN.md §13).
    failed: AtomicBool,
    /// Successful cohort fsyncs / commits covered by one.
    commit_groups: AtomicU64,
    commit_group_members: AtomicU64,
    commits: AtomicU64,
    record_reads: AtomicU64,
    record_writes: AtomicU64,
    /// WAL commit groups replayed when this store was opened.
    replayed_groups: u64,
    /// Checkpoint attempts that failed.
    checkpoint_failures: AtomicU64,
}

/// Tuning knobs for [`FileStore::open_with`].
#[derive(Debug, Clone)]
pub struct FileStoreOptions {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// fsync the WAL on every commit.
    pub sync_commits: bool,
    /// Checkpoint when the WAL exceeds this many bytes.
    pub checkpoint_bytes: u64,
}

impl Default for FileStoreOptions {
    fn default() -> Self {
        FileStoreOptions {
            pool_pages: DEFAULT_POOL_PAGES,
            sync_commits: true,
            checkpoint_bytes: DEFAULT_CHECKPOINT_BYTES,
        }
    }
}

impl FileStore {
    /// Open (creating if absent) a store in `dir` with default options.
    pub fn open(dir: &Path) -> Result<FileStore> {
        Self::open_with(dir, FileStoreOptions::default())
    }

    /// Open (creating if absent) a store in `dir`.
    pub fn open_with(dir: &Path, opts: FileStoreOptions) -> Result<FileStore> {
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io("create store dir", e))?;
        let data_path = dir.join("data.odb");
        let wal_path = dir.join("wal.odb");
        let fresh = !data_path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&data_path)
            .map_err(|e| StorageError::io("open data file", e))?;
        let pager = Pager::new(file, opts.pool_pages)?;

        let (wal, replay) = Wal::open(&wal_path)?;
        let replayed_groups = replay.len() as u64;
        let recovering = !fresh && pager.page_count() > 0;
        let mut state = if !recovering {
            let mut meta_page = Page::new(PageType::Meta, 0);
            let meta = Meta {
                next_heap_id: 1,
                heaps: BTreeSet::new(),
            };
            meta_page
                .insert(&meta.encode())
                .expect("meta record fits a fresh page");
            pager.allocate(meta_page)?;
            StoreState {
                heaps: HeapManager::new(),
                wal,
                meta,
                sync: opts.sync_commits,
                checkpoint_bytes: opts.checkpoint_bytes,
                pending_applies: 0,
            }
        } else {
            let meta_bytes = pager.with_page(0, |p| p.record(0).map(|r| r.to_vec()))?;
            let meta_bytes =
                meta_bytes.ok_or_else(|| StorageError::Corrupt("meta record missing".into()))?;
            let meta = Meta::decode(&meta_bytes)?;
            // Heaps live after replay = meta heaps, plus Ensure, minus Drop.
            let mut live = meta.heaps.clone();
            for batch in &replay {
                for op in batch {
                    match op {
                        WalOp::EnsureHeap(h) => {
                            live.insert(*h);
                        }
                        WalOp::DropHeap(h) => {
                            live.remove(h);
                        }
                        _ => {}
                    }
                }
            }
            let heaps = HeapManager::rebuild(&pager, &live)?;
            let mut state = StoreState {
                heaps,
                wal,
                meta,
                sync: opts.sync_commits,
                checkpoint_bytes: opts.checkpoint_bytes,
                pending_applies: 0,
            };
            // Pin every home rid the replay stream will address, so that
            // forward-target placement during replay cannot allocate a slot
            // a later replayed operation owns (pre-crash those slots were
            // held by in-memory reservations, which are not durable).
            state
                .heaps
                .pin_replay_homes(replay.iter().flatten().filter_map(|op| match op {
                    WalOp::Put { heap, rid, .. } | WalOp::Delete { heap, rid } => {
                        Some((*heap, *rid))
                    }
                    _ => None,
                }));
            for batch in &replay {
                for op in batch {
                    state.apply_op(&pager, op)?;
                }
            }
            state.heaps.clear_replay_pins();
            state
        };
        state.write_meta(&pager)?;
        let wal_sync_handle = state.wal.try_clone_file()?;
        let store = FileStore {
            pager,
            state: Mutex::new(state),
            apply_cv: Condvar::new(),
            sync_shared: Mutex::new(SyncShared {
                appended_seq: 0,
                synced_seq: 0,
                flushing: false,
            }),
            sync_cv: Condvar::new(),
            wal_sync_handle,
            failed: AtomicBool::new(false),
            commit_groups: AtomicU64::new(0),
            commit_group_members: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            record_reads: AtomicU64::new(0),
            record_writes: AtomicU64::new(0),
            replayed_groups,
            checkpoint_failures: AtomicU64::new(0),
        };
        if recovering {
            // Everything replayed is now in buffer-pool pages; checkpoint so
            // the WAL does not grow across repeated crashes.
            store.checkpoint_locked(&mut store.state.lock())?;
        }
        Ok(store)
    }

    fn run_checkpoint(&self) -> Result<()> {
        // Barrier: wait until every prepared commit has been applied
        // before truncating the WAL — a group whose effects are only in
        // the log must survive the checkpoint. The wait releases the
        // structural lock, so appliers can drain. Bounded so a leaked
        // ticket (crash-torture's `mem::forget`) degrades to a checkpoint
        // failure instead of a hang; the WAL stays intact either way. A
        // failed store's tickets never apply, so it refuses at once.
        let r = {
            let mut g = self.state.lock();
            let mut timed_out = false;
            while g.pending_applies > 0 && !timed_out && self.live().is_ok() {
                timed_out = self
                    .apply_cv
                    .wait_for(&mut g, std::time::Duration::from_secs(5))
                    .timed_out();
            }
            if g.pending_applies > 0 && self.live().is_ok() {
                Err(StorageError::Internal(
                    "checkpoint barrier: prepared commits never applied".into(),
                ))
            } else {
                self.checkpoint_locked(&mut g)
            }
        };
        if r.is_err() {
            self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Write every page back and fsync the data file, then truncate the
    /// WAL and fsync it. Refused once the store has failed.
    fn checkpoint_locked(&self, g: &mut StoreState) -> Result<()> {
        self.live()?;
        self.pager.flush_all()?;
        self.synced(self.pager.sync_data())?;
        g.wal.checkpoint()?;
        self.synced(self.wal_sync_handle.sync_data())
    }

    /// [`StorageError::Failed`] once an fsync has failed.
    fn live(&self) -> Result<()> {
        if self.failed.load(Ordering::Acquire) {
            return Err(StorageError::Failed);
        }
        Ok(())
    }

    /// The fail-stop rule (DESIGN.md §13): a failed `sync_data` fails the
    /// store. The kernel may have dropped the dirty pages it could not
    /// write, so no later fsync proves the log intact; every later write
    /// returns [`StorageError::Failed`] until a reopen recovers from the
    /// log as written.
    fn synced(&self, r: std::io::Result<()>) -> Result<()> {
        r.map_err(|e| {
            if !self.failed.swap(true, Ordering::AcqRel) {
                eprintln!("ode-storage: fsync failed, store stopped until reopened: {e}");
            }
            // Wake a checkpoint parked on the barrier: it refuses now.
            self.apply_cv.notify_all();
            StorageError::Failed
        })
    }

    /// Log one group under the structural lock, without fsync. Returns
    /// the sequence [`FileStore::durable`] waits for (0 when commits are
    /// not synced).
    fn append(&self, g: &mut StoreState, ops: &[WalOp]) -> Result<u64> {
        self.live()?;
        let seq = g.wal.append_commit(ops)?;
        if !g.sync {
            return Ok(0);
        }
        let mut s = self.sync_shared.lock();
        s.appended_seq = s.appended_seq.max(seq);
        Ok(seq)
    }

    /// Wait until group `seq` is durable (DESIGN.md §13): the first waiter
    /// becomes the leader and one `sync_data` covers every group appended
    /// so far; the others find their sequence covered when they wake. A
    /// group that a successful fsync covered stays durable after a later
    /// failure; the rest fail with the store.
    fn durable(&self, seq: u64) -> Result<()> {
        if seq == 0 {
            return Ok(()); // sync disabled when this group was appended
        }
        let mut s = self.sync_shared.lock();
        loop {
            if s.synced_seq >= seq {
                // A leader's fsync covered us: one cohort member, no fsync
                // of our own.
                self.commit_group_members.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            self.live()?;
            if !s.flushing {
                // Become the leader: fsync everything appended so far.
                s.flushing = true;
                let target = s.appended_seq;
                drop(s);
                let res = self.wal_sync_handle.sync_data();
                s = self.sync_shared.lock();
                s.flushing = false;
                let res = self.synced(res);
                if res.is_ok() {
                    s.synced_seq = s.synced_seq.max(target);
                    self.commit_groups.fetch_add(1, Ordering::Relaxed);
                    self.commit_group_members.fetch_add(1, Ordering::Relaxed);
                }
                self.sync_cv.notify_all();
                return res;
            }
            self.sync_cv.wait(&mut s);
        }
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Best-effort clean shutdown; recovery handles the rest — but the
        // failure must not vanish: count it and say why the WAL remains.
        // A failed store leaves the WAL as written for the next open.
        if self.live().is_err() {
            return;
        }
        if let Err(e) = self.run_checkpoint() {
            eprintln!("ode-storage: checkpoint on close failed (WAL retained for recovery): {e}");
        }
    }
}

impl Store for FileStore {
    fn create_heap(&self) -> Result<HeapId> {
        // Heap DDL is rare: it holds the structural lock through its fsync,
        // so the meta page never runs ahead of the log.
        let mut g = self.state.lock();
        let id = g.meta.next_heap_id;
        let seq = self.append(&mut g, &[WalOp::EnsureHeap(id)])?;
        self.durable(seq)?;
        g.meta.next_heap_id += 1;
        g.meta.heaps.insert(id);
        g.heaps.create_heap(id);
        g.write_meta(&self.pager)?;
        Ok(id)
    }

    fn drop_heap(&self, heap: HeapId) -> Result<()> {
        let mut g = self.state.lock();
        if !g.heaps.has_heap(heap) {
            return Err(StorageError::NoSuchHeap(heap));
        }
        let seq = self.append(&mut g, &[WalOp::DropHeap(heap)])?;
        self.durable(seq)?;
        g.heaps.drop_heap(&self.pager, heap)?;
        g.meta.heaps.remove(&heap);
        g.write_meta(&self.pager)?;
        Ok(())
    }

    fn has_heap(&self, heap: HeapId) -> bool {
        self.state.lock().heaps.has_heap(heap)
    }

    fn reserve(&self, heap: HeapId, size_hint: usize) -> Result<RecordId> {
        let mut g = self.state.lock();
        g.heaps.reserve(&self.pager, heap, size_hint)
    }

    fn release(&self, heap: HeapId, rid: RecordId) -> Result<()> {
        let mut g = self.state.lock();
        g.heaps.release(&self.pager, heap, rid)
    }

    fn read(&self, heap: HeapId, rid: RecordId) -> Result<Vec<u8>> {
        // No structural lock: record reads resolve entirely inside the
        // lock-striped pager, so readers on different pages run in
        // parallel and never queue behind a committing writer.
        self.record_reads.fetch_add(1, Ordering::Relaxed);
        HeapManager::read_record(&self.pager, heap, rid)
    }

    fn commit_prepare(&self, ops: Vec<StoreOp>) -> Result<CommitTicket> {
        let mut g = self.state.lock();
        // Refuse before logging: a batch that apply would refuse must never
        // reach the WAL, where it would half-apply now and fail every
        // replay after a crash.
        check_batch(&ops, |heap| g.heaps.has_heap(heap))?;
        let wal_ops: Vec<WalOp> = ops
            .iter()
            .map(|op| match op {
                StoreOp::Put { heap, rid, data } => WalOp::Put {
                    heap: *heap,
                    rid: *rid,
                    data: data.clone(),
                },
                StoreOp::Delete { heap, rid } => WalOp::Delete {
                    heap: *heap,
                    rid: *rid,
                },
            })
            .collect();
        // Append without syncing: durability is phase 2's job, shared
        // across the cohort. On a failed write nothing was logged
        // (append_commit rolls the tail back), so the caller may retry.
        let seq = self.append(&mut g, &wal_ops)?;
        g.pending_applies += 1;
        Ok(CommitTicket { seq, ops })
    }

    fn commit_durable(&self, ticket: &CommitTicket) -> Result<()> {
        self.durable(ticket.seq)
    }

    fn commit_apply(&self, ticket: CommitTicket) -> Result<()> {
        let mut g = self.state.lock();
        let mut result = Ok(());
        for op in &ticket.ops {
            if matches!(op, StoreOp::Put { .. }) {
                self.record_writes.fetch_add(1, Ordering::Relaxed);
            }
            if let Err(e) = g.apply_store_op(&self.pager, op) {
                result = Err(e);
                break;
            }
        }
        g.pending_applies -= 1;
        self.commits.fetch_add(1, Ordering::Relaxed);
        // Never truncate while prepared-but-unapplied groups exist: their
        // effects are only in the WAL, and a crash after truncation would
        // lose fsynced commits. The next commit to bring `pending_applies`
        // to zero picks the checkpoint up.
        if g.pending_applies == 0 {
            self.apply_cv.notify_all();
            if result.is_ok()
                && g.wal.len() > g.checkpoint_bytes
                && self.checkpoint_locked(&mut g).is_err()
            {
                self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn scan(
        &self,
        heap: HeapId,
        visit: &mut dyn FnMut(RecordId, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        // Snapshot the page list under a brief structural lock, then walk
        // the pages through the pager only, so a long scan does not block
        // writers (the engine's apply gate prevents a commit from landing
        // mid-scan for snapshot readers; see DESIGN.md §8).
        let pages = self.state.lock().heaps.pages_of(heap)?;
        HeapManager::scan_pages(&self.pager, heap, &pages, |rid, data| visit(rid, data))
    }

    fn checkpoint(&self) -> Result<()> {
        self.run_checkpoint()
    }

    fn stats(&self) -> StoreStats {
        let g = self.state.lock();
        StoreStats {
            pager: self.pager.stats(),
            wal_bytes: g.wal.len(),
            page_count: self.pager.page_count(),
            commits: self.commits.load(Ordering::Relaxed),
            record_reads: self.record_reads.load(Ordering::Relaxed),
            record_writes: self.record_writes.load(Ordering::Relaxed),
            wal_appends: g.wal.appends(),
            // Every WAL fsync outside checkpoint is a cohort fsync.
            wal_fsyncs: self.commit_groups.load(Ordering::Relaxed),
            replayed_groups: self.replayed_groups,
            faults_injected: 0,
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            commit_groups: self.commit_groups.load(Ordering::Relaxed),
            commit_group_members: self.commit_group_members.load(Ordering::Relaxed),
        }
    }

    fn reset_stats(&self) {
        let mut g = self.state.lock();
        self.pager.reset_stats();
        self.record_reads.store(0, Ordering::Relaxed);
        self.record_writes.store(0, Ordering::Relaxed);
        self.commits.store(0, Ordering::Relaxed);
        self.checkpoint_failures.store(0, Ordering::Relaxed);
        self.commit_groups.store(0, Ordering::Relaxed);
        self.commit_group_members.store(0, Ordering::Relaxed);
        g.wal.reset_counters();
    }

    fn clear_cache(&self) -> Result<()> {
        self.pager.clear_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ode-filestore-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_commit_reopen_read() {
        let dir = temp_dir("reopen");
        let rid;
        let heap;
        {
            let store = FileStore::open(&dir).unwrap();
            heap = store.create_heap().unwrap();
            assert_eq!(heap, 1, "first heap id is deterministic");
            rid = store.reserve(heap, 32).unwrap();
            store
                .commit(vec![StoreOp::Put {
                    heap,
                    rid,
                    data: b"durable object".to_vec(),
                }])
                .unwrap();
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.read(heap, rid).unwrap(), b"durable object");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_replay_after_simulated_crash() {
        let dir = temp_dir("crash");
        let heap;
        let rid;
        {
            let store = FileStore::open(&dir).unwrap();
            heap = store.create_heap().unwrap();
            rid = store.reserve(heap, 16).unwrap();
            store
                .commit(vec![StoreOp::Put {
                    heap,
                    rid,
                    data: b"logged but maybe not paged".to_vec(),
                }])
                .unwrap();
            // Simulate a crash: leak the store so Drop's checkpoint (which
            // would flush pages) never runs. The WAL alone must carry the
            // commit.
            std::mem::forget(store);
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(
            store.read(heap, rid).unwrap(),
            b"logged but maybe not paged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_reservation_is_reclaimed_after_crash() {
        let dir = temp_dir("orphan");
        let heap;
        let orphan;
        {
            let store = FileStore::open(&dir).unwrap();
            heap = store.create_heap().unwrap();
            orphan = store.reserve(heap, 64).unwrap();
            // Push the reservation to the data file, then "crash" without
            // committing it.
            store.pager.flush_all().unwrap();
            std::mem::forget(store);
        }
        let store = FileStore::open(&dir).unwrap();
        assert!(store.read(heap, orphan).is_err());
        let mut count = 0;
        store
            .scan(heap, &mut |_, _| {
                count += 1;
                Ok(true)
            })
            .unwrap();
        assert_eq!(count, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_batch_multiple_ops() {
        let dir = temp_dir("batch");
        let store = FileStore::open(&dir).unwrap();
        let heap = store.create_heap().unwrap();
        let a = store.reserve(heap, 8).unwrap();
        let b = store.reserve(heap, 8).unwrap();
        store
            .commit(vec![
                StoreOp::Put {
                    heap,
                    rid: a,
                    data: b"alpha".to_vec(),
                },
                StoreOp::Put {
                    heap,
                    rid: b,
                    data: b"beta".to_vec(),
                },
            ])
            .unwrap();
        store
            .commit(vec![
                StoreOp::Delete { heap, rid: a },
                StoreOp::Put {
                    heap,
                    rid: b,
                    data: b"beta2".to_vec(),
                },
            ])
            .unwrap();
        assert!(store.read(heap, a).is_err());
        assert_eq!(store.read(heap, b).unwrap(), b"beta2");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_heap_survives_reopen() {
        let dir = temp_dir("drop-heap");
        let (h1, h2);
        {
            let store = FileStore::open(&dir).unwrap();
            h1 = store.create_heap().unwrap();
            h2 = store.create_heap().unwrap();
            let rid = store.reserve(h1, 8).unwrap();
            store
                .commit(vec![StoreOp::Put {
                    heap: h1,
                    rid,
                    data: b"x".to_vec(),
                }])
                .unwrap();
            store.drop_heap(h1).unwrap();
        }
        let store = FileStore::open(&dir).unwrap();
        assert!(!store.has_heap(h1));
        assert!(store.has_heap(h2));
        // Heap ids keep advancing past dropped ids.
        let h3 = store.create_heap().unwrap();
        assert!(h3 > h2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_wal() {
        let dir = temp_dir("ckpt");
        let store = FileStore::open(&dir).unwrap();
        let heap = store.create_heap().unwrap();
        for i in 0..10u32 {
            let rid = store.reserve(heap, 16).unwrap();
            store
                .commit(vec![StoreOp::Put {
                    heap,
                    rid,
                    data: i.to_le_bytes().to_vec(),
                }])
                .unwrap();
        }
        assert!(store.stats().wal_bytes > 0);
        store.checkpoint().unwrap();
        assert_eq!(store.stats().wal_bytes, 0);
        // Data still readable after checkpoint + reopen.
        drop(store);
        let store = FileStore::open(&dir).unwrap();
        let mut n = 0;
        store
            .scan(heap, &mut |_, _| {
                n += 1;
                Ok(true)
            })
            .unwrap();
        assert_eq!(n, 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_order_is_stable() {
        let dir = temp_dir("scan-order");
        let store = FileStore::open(&dir).unwrap();
        let heap = store.create_heap().unwrap();
        let mut expected = Vec::new();
        for i in 0..100u32 {
            let rid = store.reserve(heap, 16).unwrap();
            store
                .commit(vec![StoreOp::Put {
                    heap,
                    rid,
                    data: i.to_le_bytes().to_vec(),
                }])
                .unwrap();
            expected.push(rid);
        }
        let mut seen = Vec::new();
        store
            .scan(heap, &mut |rid, _| {
                seen.push(rid);
                Ok(true)
            })
            .unwrap();
        assert_eq!(seen, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The leader's own fsync fails (`fdatasync` on `/dev/null` is EINVAL):
    /// that commit and every later write fail at once, reads keep working,
    /// and a reopen replays the logged group whole.
    #[test]
    fn failed_leader_fsync_stops_the_store_until_reopen() {
        let dir = temp_dir("failed-fsync");
        let (heap, acked, rid);
        {
            let mut store = FileStore::open(&dir).unwrap();
            heap = store.create_heap().unwrap();
            acked = store.reserve(heap, 16).unwrap();
            store.commit(vec![put(heap, acked, b"acked")]).unwrap();
            rid = store.reserve(heap, 16).unwrap();
            store.wal_sync_handle = std::fs::File::open("/dev/null").unwrap();

            let failed = |r: Result<()>| matches!(r, Err(StorageError::Failed));
            assert!(failed(store.commit(vec![put(heap, rid, b"in doubt")])));
            assert!(failed(store.commit_prepare(vec![]).map(drop)));
            assert!(failed(store.create_heap().map(drop)));
            let started = std::time::Instant::now();
            assert!(failed(store.checkpoint()));
            assert!(
                started.elapsed() < std::time::Duration::from_secs(1),
                "a failed store refuses its checkpoint without the barrier wait"
            );
            assert_eq!(store.read(heap, acked).unwrap(), b"acked");
            std::mem::forget(store);
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.read(heap, acked).unwrap(), b"acked");
        assert_eq!(
            store.read(heap, rid).unwrap(),
            b"in doubt",
            "replayed whole"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn put(heap: HeapId, rid: RecordId, data: &[u8]) -> StoreOp {
        StoreOp::Put {
            heap,
            rid,
            data: data.to_vec(),
        }
    }

    #[test]
    fn many_heaps_roundtrip_through_meta() {
        let dir = temp_dir("many-heaps");
        let mut ids = Vec::new();
        {
            let store = FileStore::open(&dir).unwrap();
            for _ in 0..50 {
                ids.push(store.create_heap().unwrap());
            }
        }
        let store = FileStore::open(&dir).unwrap();
        for id in ids {
            assert!(store.has_heap(id));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
