//! In-memory [`Store`] for tests and I/O-free benchmarking.
//!
//! Implements the same contract as [`crate::FileStore`] — including the
//! reserve/commit protocol and stable record-id scan order — with plain
//! maps behind a reader-writer lock, so concurrent readers share access
//! just as they do on the striped file store. Record ids are synthesized
//! from a per-heap counter. A reserved slot is kept apart from the
//! committed records, so a scan walks only what it returns, however many
//! slots open transactions hold.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::error::{Result, StorageError};
use crate::heap::RecordId;
use crate::store::{check_batch, CommitTicket, HeapId, Store, StoreOp, StoreStats};

#[derive(Default)]
struct Heap {
    /// Committed records, in the rid order scans return them.
    records: BTreeMap<RecordId, Vec<u8>>,
    /// Reserved slots no commit has written yet: unreadable, and not in
    /// `records`, so scans never pass them.
    reserved: HashSet<RecordId>,
    next: u64,
}

impl Heap {
    fn fresh_rid(&mut self) -> RecordId {
        let n = self.next;
        self.next += 1;
        // Mirror the file layout's page/slot split so ids look realistic.
        RecordId {
            page: (n / 64) as u32 + 1,
            slot: (n % 64) as u16,
        }
    }
}

#[derive(Default)]
struct Inner {
    heaps: BTreeMap<HeapId, Heap>,
    next_heap: HeapId,
}

impl Inner {
    fn heap_mut(&mut self, heap: HeapId) -> Result<&mut Heap> {
        self.heaps
            .get_mut(&heap)
            .ok_or(StorageError::NoSuchHeap(heap))
    }
}

/// Volatile store: everything is lost on drop. Useful for unit tests and
/// for benchmarking engine logic without I/O noise.
#[derive(Default)]
pub struct MemStore {
    inner: RwLock<Inner>,
    commits: AtomicU64,
    record_reads: AtomicU64,
    record_writes: AtomicU64,
}

impl MemStore {
    /// Create an empty in-memory store.
    pub fn new() -> MemStore {
        MemStore {
            inner: RwLock::new(Inner {
                heaps: BTreeMap::new(),
                next_heap: 1,
            }),
            commits: AtomicU64::new(0),
            record_reads: AtomicU64::new(0),
            record_writes: AtomicU64::new(0),
        }
    }
}

impl Store for MemStore {
    fn create_heap(&self) -> Result<HeapId> {
        let mut g = self.inner.write();
        let id = g.next_heap;
        g.next_heap += 1;
        g.heaps.insert(id, Heap::default());
        Ok(id)
    }

    fn drop_heap(&self, heap: HeapId) -> Result<()> {
        self.inner
            .write()
            .heaps
            .remove(&heap)
            .map(|_| ())
            .ok_or(StorageError::NoSuchHeap(heap))
    }

    fn has_heap(&self, heap: HeapId) -> bool {
        self.inner.read().heaps.contains_key(&heap)
    }

    fn reserve(&self, heap: HeapId, _size_hint: usize) -> Result<RecordId> {
        let mut g = self.inner.write();
        let h = g.heap_mut(heap)?;
        let rid = h.fresh_rid();
        h.reserved.insert(rid);
        Ok(rid)
    }

    fn release(&self, heap: HeapId, rid: RecordId) -> Result<()> {
        let mut g = self.inner.write();
        let h = g.heap_mut(heap)?;
        if h.reserved.remove(&rid) {
            Ok(())
        } else {
            Err(StorageError::Internal(format!(
                "release of non-reserved record {rid}"
            )))
        }
    }

    fn read(&self, heap: HeapId, rid: RecordId) -> Result<Vec<u8>> {
        // Shared lock: concurrent readers never serialize each other.
        self.record_reads.fetch_add(1, Ordering::Relaxed);
        let g = self.inner.read();
        let h = g.heaps.get(&heap).ok_or(StorageError::NoSuchHeap(heap))?;
        match h.records.get(&rid) {
            Some(d) => Ok(d.clone()),
            None => Err(StorageError::NoSuchRecord {
                heap,
                page: rid.page,
                slot: rid.slot,
            }),
        }
    }

    fn commit_prepare(&self, ops: Vec<StoreOp>) -> Result<CommitTicket> {
        // Nothing to log: the check is the whole prepare, and it keeps the
        // batch all-or-nothing, with the same record-size limit as the
        // durable store so programs behave identically on both.
        let g = self.inner.read();
        check_batch(&ops, |heap| g.heaps.contains_key(&heap))?;
        Ok(CommitTicket { seq: 0, ops })
    }

    fn commit_apply(&self, ticket: CommitTicket) -> Result<()> {
        let mut g = self.inner.write();
        for op in ticket.ops {
            match op {
                StoreOp::Put { heap, rid, data } => {
                    self.record_writes.fetch_add(1, Ordering::Relaxed);
                    let h = g.heap_mut(heap)?;
                    // Keep the id allocator ahead of replay-style puts.
                    let linear = (rid.page.saturating_sub(1)) as u64 * 64 + rid.slot as u64;
                    if linear >= h.next {
                        h.next = linear + 1;
                    }
                    h.reserved.remove(&rid);
                    h.records.insert(rid, data);
                }
                StoreOp::Delete { heap, rid } => {
                    let h = g.heap_mut(heap)?;
                    h.reserved.remove(&rid);
                    h.records.remove(&rid);
                }
            }
        }
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn scan(
        &self,
        heap: HeapId,
        visit: &mut dyn FnMut(RecordId, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        // Copy out one bounded chunk at a time (a B-tree range cursor
        // resumes after the last-visited rid), so scan residency is
        // O(chunk) rather than O(heap) — mirroring FileStore's
        // page-at-a-time bound — and the callback may still re-enter the
        // store: no lock is held while it runs. Every chunk is copied into
        // the same two buffers (the records' bytes back to back, and each
        // record's rid and end offset), sized from a first pass over the
        // chunk, so a scan allocates only when a chunk outgrows the ones
        // before it — never per record, and never for an empty heap.
        const SCAN_CHUNK: usize = 128;
        let mut bytes: Vec<u8> = Vec::new();
        let mut records: Vec<(RecordId, usize)> = Vec::new();
        let mut resume_after: Option<RecordId> = None;
        loop {
            bytes.clear();
            records.clear();
            {
                let g = self.inner.read();
                let h = g.heaps.get(&heap).ok_or(StorageError::NoSuchHeap(heap))?;
                let range = match resume_after {
                    None => h.records.range(..),
                    Some(last) => h
                        .records
                        .range((std::ops::Bound::Excluded(last), std::ops::Bound::Unbounded)),
                };
                let chunk = range.map(|(rid, d)| (*rid, d)).take(SCAN_CHUNK);
                let (n, len) = chunk
                    .clone()
                    .fold((0, 0), |(n, len), (_, d)| (n + 1, len + d.len()));
                records.reserve(n);
                bytes.reserve(len);
                for (rid, data) in chunk {
                    bytes.extend_from_slice(data);
                    records.push((rid, bytes.len()));
                }
            }
            let Some(&(last, _)) = records.last() else {
                return Ok(());
            };
            resume_after = Some(last);
            let mut start = 0;
            for &(rid, end) in &records {
                if !visit(rid, &bytes[start..end])? {
                    return Ok(());
                }
                start = end;
            }
        }
    }

    fn checkpoint(&self) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            commits: self.commits.load(Ordering::Relaxed),
            record_reads: self.record_reads.load(Ordering::Relaxed),
            record_writes: self.record_writes.load(Ordering::Relaxed),
            ..StoreStats::default()
        }
    }

    fn reset_stats(&self) {
        self.commits.store(0, Ordering::Relaxed);
        self.record_reads.store(0, Ordering::Relaxed);
        self.record_writes.store(0, Ordering::Relaxed);
    }

    fn clear_cache(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_matches_filestore() {
        let store = MemStore::new();
        let heap = store.create_heap().unwrap();
        assert_eq!(heap, 1);
        let rid = store.reserve(heap, 8).unwrap();
        assert!(store.read(heap, rid).is_err(), "reserved is unreadable");
        store
            .commit(vec![StoreOp::Put {
                heap,
                rid,
                data: b"v".to_vec(),
            }])
            .unwrap();
        assert_eq!(store.read(heap, rid).unwrap(), b"v");
        store.commit(vec![StoreOp::Delete { heap, rid }]).unwrap();
        assert!(store.read(heap, rid).is_err());
    }

    #[test]
    fn release_only_applies_to_reservations() {
        let store = MemStore::new();
        let heap = store.create_heap().unwrap();
        let rid = store.reserve(heap, 8).unwrap();
        store
            .commit(vec![StoreOp::Put {
                heap,
                rid,
                data: b"x".to_vec(),
            }])
            .unwrap();
        assert!(store.release(heap, rid).is_err());
    }

    #[test]
    fn scan_skips_reserved_and_orders_by_rid() {
        let store = MemStore::new();
        let heap = store.create_heap().unwrap();
        let a = store.reserve(heap, 8).unwrap();
        let _hole = store.reserve(heap, 8).unwrap();
        let b = store.reserve(heap, 8).unwrap();
        store
            .commit(vec![
                StoreOp::Put {
                    heap,
                    rid: b,
                    data: b"b".to_vec(),
                },
                StoreOp::Put {
                    heap,
                    rid: a,
                    data: b"a".to_vec(),
                },
            ])
            .unwrap();
        let mut seen = Vec::new();
        store
            .scan(heap, &mut |rid, d| {
                seen.push((rid, d.to_vec()));
                Ok(true)
            })
            .unwrap();
        assert_eq!(seen, vec![(a, b"a".to_vec()), (b, b"b".to_vec())]);
    }

    #[test]
    fn scans_pass_no_reservation_and_see_committed_ones() {
        let store = MemStore::new();
        let heap = store.create_heap().unwrap();
        let reserved: Vec<RecordId> = (0..1000).map(|_| store.reserve(heap, 8).unwrap()).collect();
        let kept = store.reserve(heap, 8).unwrap();
        store
            .commit(vec![StoreOp::Put {
                heap,
                rid: kept,
                data: b"k".to_vec(),
            }])
            .unwrap();
        let scan = || {
            let mut seen = Vec::new();
            store
                .scan(heap, &mut |rid, d| {
                    seen.push((rid, d.to_vec()));
                    Ok(true)
                })
                .unwrap();
            seen
        };
        assert_eq!(scan(), vec![(kept, b"k".to_vec())]);
        // A reservation stays unreadable and releasable until a commit
        // writes it; then it is an ordinary record.
        assert!(store.read(heap, reserved[0]).is_err());
        store.release(heap, reserved[1]).unwrap();
        assert!(store.release(heap, reserved[1]).is_err());
        store
            .commit(vec![StoreOp::Put {
                heap,
                rid: reserved[0],
                data: b"r".to_vec(),
            }])
            .unwrap();
        assert_eq!(store.read(heap, reserved[0]).unwrap(), b"r");
        assert!(store.release(heap, reserved[0]).is_err());
        assert_eq!(
            scan(),
            vec![(reserved[0], b"r".to_vec()), (kept, b"k".to_vec())]
        );
    }

    #[test]
    fn scan_callback_may_reenter_store() {
        let store = MemStore::new();
        let heap = store.create_heap().unwrap();
        for i in 0..3u8 {
            let rid = store.reserve(heap, 1).unwrap();
            store
                .commit(vec![StoreOp::Put {
                    heap,
                    rid,
                    data: vec![i],
                }])
                .unwrap();
        }
        let mut reads = 0;
        store
            .scan(heap, &mut |rid, _| {
                // Re-entrant read during scan must not deadlock.
                let _ = store.read(heap, rid).unwrap();
                reads += 1;
                Ok(true)
            })
            .unwrap();
        assert_eq!(reads, 3);
    }
}
