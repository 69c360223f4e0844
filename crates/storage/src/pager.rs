//! File-backed pager with a lock-striped LRU buffer pool.
//!
//! The pager owns the data file and a bounded cache of decoded [`Page`]s.
//! Pages are fetched on demand, verified against their checksum, and written
//! back when dirty frames are evicted or on [`Pager::flush_all`].
//!
//! The pool is split into [`STRIPES`] shards, each guarded by its own mutex
//! and holding its own strict-LRU eviction order. A page id maps to exactly
//! one shard (`page_id % STRIPES`), and since every page belongs to exactly
//! one heap this is equivalent to striping by `(heap, page)`: concurrent
//! readers touching different pages almost never contend, while two readers
//! of the *same* page serialize only on that page's shard. File I/O uses
//! positioned reads/writes (`pread`/`pwrite`), so disk access needs no lock
//! at all beyond the shard that owns the frame.
//!
//! The store that owns the pager still serializes *mutations* (allocation,
//! heap surgery, commit apply) behind its own structural lock; the pager's
//! internal synchronization is what lets pure readers bypass that lock
//! entirely (DESIGN.md §8).

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU32, Ordering};

use parking_lot::Mutex;

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};

/// Number of buffer-pool shards. A small power of two: enough that eight
/// reader threads on distinct pages collide rarely (expected collisions
/// follow the birthday bound, ~2 for 8 threads over 16 stripes), small
/// enough that per-shard LRU state stays cache-friendly.
pub const STRIPES: usize = 16;

/// Counters exposed for the buffer-pool characterization bench (figure
/// F9) and the metrics pipeline. Kept per shard — each shard counts its
/// own traffic under its own lock — and summed on demand, so hot-path
/// increments never share a cache line across shards.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PagerStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read the file.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty frames written back (evictions + flushes).
    pub writebacks: u64,
}

impl PagerStats {
    fn absorb(&mut self, other: &PagerStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
    }
}

struct Frame {
    page: Page,
    dirty: bool,
    tick: u64,
}

/// One buffer-pool shard: a bounded frame cache with strict LRU eviction.
#[derive(Default)]
struct Shard {
    frames: HashMap<PageId, Frame>,
    /// LRU order: tick -> page id. Ticks are unique within the shard.
    order: BTreeMap<u64, PageId>,
    next_tick: u64,
    /// This shard's traffic counters (mutated only under the shard lock).
    stats: PagerStats,
}

impl Shard {
    fn touch(&mut self, pid: PageId) {
        if let Some(frame) = self.frames.get_mut(&pid) {
            self.order.remove(&frame.tick);
            frame.tick = self.next_tick;
            self.order.insert(self.next_tick, pid);
            self.next_tick += 1;
        }
    }

    fn insert(&mut self, pid: PageId, page: Page, dirty: bool) {
        let tick = self.next_tick;
        self.next_tick += 1;
        self.frames.insert(pid, Frame { page, dirty, tick });
        self.order.insert(tick, pid);
    }
}

/// A bounded, internally synchronized cache of pages over a data file.
/// Every method takes `&self`; the pager is safe to share across threads.
pub struct Pager {
    file: File,
    /// Number of pages currently in the file (page 0 is the meta page).
    page_count: AtomicU32,
    /// Maximum frames cached per shard.
    shard_capacity: usize,
    shards: Vec<Mutex<Shard>>,
}

impl Pager {
    /// Wrap an open data file. `capacity` is the maximum number of cached
    /// pages pool-wide (minimum 8), divided evenly among the shards. The
    /// file length must be a multiple of the page size.
    pub fn new(file: File, capacity: usize) -> Result<Self> {
        let len = file
            .metadata()
            .map_err(|e| StorageError::io("stat data file", e))?
            .len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "data file length {len} is not a multiple of the page size"
            )));
        }
        let capacity = capacity.max(8);
        let shard_capacity = capacity.div_ceil(STRIPES).max(1);
        Ok(Pager {
            file,
            page_count: AtomicU32::new((len / PAGE_SIZE as u64) as u32),
            shard_capacity,
            shards: (0..STRIPES).map(|_| Mutex::new(Shard::default())).collect(),
        })
    }

    fn shard_of(&self, pid: PageId) -> &Mutex<Shard> {
        &self.shards[pid as usize % STRIPES]
    }

    /// Number of pages in the file.
    pub fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    /// Buffer-pool counters, summed across every shard.
    pub fn stats(&self) -> PagerStats {
        let mut total = PagerStats::default();
        for shard in &self.shards {
            total.absorb(&shard.lock().stats);
        }
        total
    }

    /// Reset the counters (benches measure deltas).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.lock().stats = PagerStats::default();
        }
    }

    fn read_from_disk(&self, pid: PageId) -> Result<Page> {
        let count = self.page_count();
        if pid >= count {
            return Err(StorageError::Internal(format!(
                "page {pid} beyond end of file ({count} pages)"
            )));
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file
            .read_exact_at(&mut buf, pid as u64 * PAGE_SIZE as u64)
            .map_err(|e| StorageError::io("read page", e))?;
        Page::from_bytes(&buf)
    }

    fn write_to_disk(&self, pid: PageId, page: &Page) -> Result<()> {
        let bytes = page.to_bytes();
        self.file
            .write_all_at(&bytes, pid as u64 * PAGE_SIZE as u64)
            .map_err(|e| StorageError::io("write page", e))?;
        Ok(())
    }

    fn evict_if_full(&self, shard: &mut Shard) -> Result<()> {
        while shard.frames.len() >= self.shard_capacity {
            let (&tick, &victim) = shard
                .order
                .iter()
                .next()
                .expect("order map tracks every frame");
            shard.order.remove(&tick);
            let frame = shard.frames.remove(&victim).expect("frame exists");
            shard.stats.evictions += 1;
            if frame.dirty {
                shard.stats.writebacks += 1;
                self.write_to_disk(victim, &frame.page)?;
            }
        }
        Ok(())
    }

    fn load(&self, shard: &mut Shard, pid: PageId) -> Result<()> {
        if shard.frames.contains_key(&pid) {
            shard.stats.hits += 1;
            shard.touch(pid);
            return Ok(());
        }
        shard.stats.misses += 1;
        let page = self.read_from_disk(pid)?;
        self.evict_if_full(shard)?;
        shard.insert(pid, page, false);
        Ok(())
    }

    /// Run `f` with read access to the page. Only the page's shard is
    /// locked; readers of other pages proceed in parallel.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let mut shard = self.shard_of(pid).lock();
        self.load(&mut shard, pid)?;
        Ok(f(&shard.frames[&pid].page))
    }

    /// Run `f` with write access to the page; the frame is marked dirty.
    pub fn with_page_mut<R>(&self, pid: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        let mut shard = self.shard_of(pid).lock();
        self.load(&mut shard, pid)?;
        let frame = shard.frames.get_mut(&pid).expect("just loaded");
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }

    /// Append a fresh page to the file and cache it clean. Returns its id.
    /// Callers serialize allocation behind the store's structural lock.
    pub fn allocate(&self, page: Page) -> Result<PageId> {
        let pid = self.page_count.fetch_add(1, Ordering::AcqRel);
        // Extend the file eagerly so page_count always matches file length
        // (recovery derives the page count from the length).
        self.write_to_disk(pid, &page)?;
        let mut shard = self.shard_of(pid).lock();
        self.evict_if_full(&mut shard)?;
        shard.insert(pid, page, false);
        Ok(pid)
    }

    /// Write back every dirty frame (without dropping the cache).
    pub fn flush_all(&self) -> Result<()> {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let dirty: Vec<PageId> = shard
                .frames
                .iter()
                .filter(|(_, f)| f.dirty)
                .map(|(&pid, _)| pid)
                .collect();
            for pid in dirty {
                let page = shard.frames[&pid].page.clone();
                self.write_to_disk(pid, &page)?;
                shard.frames.get_mut(&pid).expect("exists").dirty = false;
                shard.stats.writebacks += 1;
            }
        }
        Ok(())
    }

    /// fsync the data file; [`Pager::flush_all`] first writes the dirty
    /// frames back. The bare OS error comes back: a failed fsync fails a
    /// [`crate::FileStore`] (DESIGN.md §13).
    pub fn sync_data(&self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Drop every cached frame (after flushing). Used by tests to force
    /// cold-cache behaviour.
    pub fn clear_cache(&self) -> Result<()> {
        self.flush_all()?;
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.frames.clear();
            shard.order.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;

    fn temp_pager(capacity: usize) -> (Pager, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "ode-pager-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("data-{capacity}.odb"));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .unwrap();
        (Pager::new(file, capacity).unwrap(), path)
    }

    #[test]
    fn allocate_and_read_back() {
        let (pager, path) = temp_pager(16);
        let mut p = Page::new(PageType::Heap, 3);
        let slot = p.insert(b"persist me").unwrap();
        let pid = pager.allocate(p).unwrap();
        let data = pager
            .with_page(pid, |p| p.record(slot).unwrap().to_vec())
            .unwrap();
        assert_eq!(data, b"persist me");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eviction_respects_lru_and_persists_dirty_pages() {
        let (pager, _path) = temp_pager(8);
        let mut pids = Vec::new();
        for i in 0..40u32 {
            let mut p = Page::new(PageType::Heap, 1);
            p.insert(&i.to_le_bytes()).unwrap();
            pids.push(pager.allocate(p).unwrap());
        }
        // All pages must read back correctly even though most were evicted.
        for (i, &pid) in pids.iter().enumerate() {
            let v = pager
                .with_page(pid, |p| p.record(0).unwrap().to_vec())
                .unwrap();
            assert_eq!(v, (i as u32).to_le_bytes());
        }
        assert!(pager.stats().evictions > 0);
    }

    #[test]
    fn dirty_page_survives_eviction() {
        let (pager, path) = temp_pager(8);
        let mut first = None;
        for i in 0..10u32 {
            let p = Page::new(PageType::Heap, i);
            let pid = pager.allocate(p).unwrap();
            if i == 0 {
                first = Some(pid);
            }
        }
        let first = first.unwrap();
        pager
            .with_page_mut(first, |p| {
                p.insert(b"dirty data").unwrap();
            })
            .unwrap();
        // Push enough pages through `first`'s shard to evict it.
        for i in 100..164u32 {
            pager.allocate(Page::new(PageType::Heap, i)).unwrap();
        }
        let v = pager
            .with_page(first, |p| p.record(0).unwrap().to_vec())
            .unwrap();
        assert_eq!(v, b"dirty data");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hit_miss_accounting() {
        let (pager, path) = temp_pager(16);
        let pid = pager.allocate(Page::new(PageType::Heap, 1)).unwrap();
        pager.reset_stats();
        pager.with_page(pid, |_| ()).unwrap();
        pager.with_page(pid, |_| ()).unwrap();
        assert_eq!(pager.stats().hits, 2);
        pager.clear_cache().unwrap();
        pager.with_page(pid, |_| ()).unwrap();
        assert_eq!(pager.stats().misses, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn resident_pages_across_every_shard_read_as_hits() {
        let (pager, path) = temp_pager(64);
        let mut pids = Vec::new();
        for i in 0..32u32 {
            pids.push(pager.allocate(Page::new(PageType::Heap, i)).unwrap());
        }
        pager.reset_stats();
        for &pid in &pids {
            pager.with_page(pid, |_| ()).unwrap();
            pager.with_page(pid, |_| ()).unwrap();
        }
        // 32 sequential page ids cover every stripe (page_id % STRIPES
        // takes all residues); the pool-wide totals sum every shard.
        let total = pager.stats();
        assert_eq!(total.hits, 64);
        assert_eq!(total.misses, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn reading_past_eof_is_an_error() {
        let (pager, path) = temp_pager(8);
        assert!(pager.with_page(5, |_| ()).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn flush_then_reopen_sees_data() {
        let (pager, path) = temp_pager(8);
        let mut p = Page::new(PageType::Heap, 9);
        let slot = p.insert(b"durable").unwrap();
        let pid = pager.allocate(p).unwrap();
        pager
            .with_page_mut(pid, |p| {
                p.insert(b"second").unwrap();
            })
            .unwrap();
        pager.flush_all().unwrap();
        drop(pager);

        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let pager2 = Pager::new(file, 8).unwrap();
        let v = pager2
            .with_page(pid, |p| p.record(slot).unwrap().to_vec())
            .unwrap();
        assert_eq!(v, b"durable");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_readers_on_distinct_pages() {
        let (pager, path) = temp_pager(64);
        let mut pids = Vec::new();
        for i in 0..32u32 {
            let mut p = Page::new(PageType::Heap, 1);
            p.insert(&i.to_le_bytes()).unwrap();
            pids.push(pager.allocate(p).unwrap());
        }
        let pager = std::sync::Arc::new(pager);
        let mut handles = Vec::new();
        for t in 0..4 {
            let pager = std::sync::Arc::clone(&pager);
            let pids = pids.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200 {
                    let idx = (t * 7 + round * 3) % pids.len();
                    let v = pager
                        .with_page(pids[idx], |p| p.record(0).unwrap().to_vec())
                        .unwrap();
                    assert_eq!(v, (idx as u32).to_le_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        std::fs::remove_file(path).ok();
    }
}
