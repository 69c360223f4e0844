//! Heap files: collections of variable-length records with stable ids.
//!
//! A heap is a set of slotted pages owned by one `heap_id`. Records are
//! addressed by [`RecordId`] (page + slot), which stays stable for the life
//! of the record — Ode object identity (§2 of the paper) is built directly
//! on this. A record that outgrows its page is *forwarded*: the home slot
//! keeps a 6-byte stub pointing at the relocated body, so the id never
//! changes and reads pay at most one extra page access.
//!
//! On-page record format: `[flag u8][len u16][payload][pad…]`. The explicit
//! length (rather than the slot extent) lets home slots keep a minimum
//! extent of `HOME_MIN_EXTENT` bytes, which guarantees a forward stub can
//! always be written in place.
//!
//! Heap membership is recorded in each page's header (`heap_id`), and the
//! per-heap page lists kept here are a cache rebuilt by scanning headers at
//! open time. That makes recovery trivially correct: no page-allocation
//! bookkeeping ever needs to be logged.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PageType, MAX_RECORD};
use crate::pager::Pager;

/// Stable address of a record within a heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page number in the data file.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Pack into 6 bytes (used by forward stubs and by the object layer).
    pub fn to_bytes(self) -> [u8; 6] {
        let mut out = [0u8; 6];
        out[..4].copy_from_slice(&self.page.to_le_bytes());
        out[4..].copy_from_slice(&self.slot.to_le_bytes());
        out
    }

    /// Unpack from 6 bytes.
    pub fn from_bytes(b: &[u8]) -> Option<RecordId> {
        if b.len() < 6 {
            return None;
        }
        Some(RecordId {
            page: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            slot: u16::from_le_bytes([b[4], b[5]]),
        })
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.page, self.slot)
    }
}

/// Record flags (first byte of the on-page image).
const FLAG_NORMAL: u8 = 0;
const FLAG_RESERVED: u8 = 1;
const FLAG_FORWARD: u8 = 2;
const FLAG_FWD_TARGET: u8 = 3;

/// Record header: flag byte + explicit 16-bit payload length.
const REC_HEADER: usize = 3;
/// Minimum extent of a home record: enough to rewrite it as a forward stub
/// (header + 6-byte target id) without needing new page space.
const HOME_MIN_EXTENT: usize = REC_HEADER + 6;
/// Largest payload storable (one page minus page/record overheads).
pub const MAX_PAYLOAD: usize = MAX_RECORD - REC_HEADER;

fn encode(flag: u8, payload: &[u8], min_extent: usize) -> Result<Vec<u8>> {
    // The header stores the payload length in 16 bits: anything larger
    // would silently truncate the slot length and corrupt the page. The
    // public entry points already enforce MAX_PAYLOAD (which is smaller),
    // so this guard is the last line of defense, not the usual rejection.
    if payload.len() > u16::MAX as usize {
        return Err(StorageError::RecordTooLarge {
            size: payload.len(),
            max: u16::MAX as usize,
        });
    }
    let body = REC_HEADER + payload.len();
    let extent = body.max(min_extent);
    let mut out = vec![0u8; extent];
    out[0] = flag;
    out[1..3].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    out[REC_HEADER..body].copy_from_slice(payload);
    Ok(out)
}

fn decode(bytes: &[u8]) -> Result<(u8, &[u8])> {
    if bytes.len() < REC_HEADER {
        return Err(StorageError::Corrupt("record shorter than header".into()));
    }
    let flag = bytes[0];
    let len = u16::from_le_bytes([bytes[1], bytes[2]]) as usize;
    if REC_HEADER + len > bytes.len() {
        return Err(StorageError::Corrupt(format!(
            "record length {len} exceeds extent {}",
            bytes.len() - REC_HEADER
        )));
    }
    Ok((flag, &bytes[REC_HEADER..REC_HEADER + len]))
}

/// Per-heap free-space index: find a page with at least N free bytes in
/// `O(log pages)`.
#[derive(Default)]
struct FreeMap {
    /// free bytes -> pages with exactly that many free bytes.
    by_free: BTreeMap<usize, BTreeSet<PageId>>,
    /// page -> its current entry in `by_free`.
    of_page: HashMap<PageId, usize>,
}

impl FreeMap {
    fn set(&mut self, page: PageId, free: usize) {
        if let Some(old) = self.of_page.insert(page, free) {
            if let Some(set) = self.by_free.get_mut(&old) {
                set.remove(&page);
                if set.is_empty() {
                    self.by_free.remove(&old);
                }
            }
        }
        self.by_free.entry(free).or_default().insert(page);
    }

    fn find(&self, need: usize) -> Option<PageId> {
        self.by_free
            .range(need..)
            .next()
            .and_then(|(_, set)| set.iter().next().copied())
    }
}

#[derive(Default)]
struct HeapState {
    /// Pages owned by this heap, in allocation order (scan order).
    pages: Vec<PageId>,
    freemap: FreeMap,
}

/// Manages every heap in one data file. Operates on a borrowed [`Pager`]
/// (internally synchronized, so `read` needs no exclusive access; the store
/// serializes *mutations* of heap state behind its structural lock).
#[derive(Default)]
pub struct HeapManager {
    heaps: HashMap<u32, HeapState>,
    /// Pages released by dropped heaps, available for reuse.
    free_pages: Vec<PageId>,
    /// Home rids referenced by WAL operations not yet replayed. Pre-crash
    /// these slots were protected by in-memory reservations, which are not
    /// durable; if `place` handed one out as a forward target during
    /// replay, the later replayed put/delete at that rid would overwrite
    /// the target and dangle the forward stub pointing at it.
    replay_pins: HashSet<(u32, RecordId)>,
}

impl HeapManager {
    /// Fresh, empty manager (new store).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild heap membership, free-space, and free-page information by
    /// scanning every page header in the file, reclaiming any RESERVED slots
    /// left behind by transactions that never committed. `live_heaps` comes
    /// from the meta page; pages claiming a dead heap are freed.
    pub fn rebuild(pager: &Pager, live_heaps: &BTreeSet<u32>) -> Result<HeapManager> {
        let mut mgr = HeapManager::new();
        for h in live_heaps {
            mgr.heaps.insert(*h, HeapState::default());
        }
        for pid in 1..pager.page_count() {
            let (ty, heap_id) = pager.with_page(pid, |p| (p.page_type(), p.heap_id()))?;
            match ty {
                PageType::Meta => continue,
                PageType::Free => mgr.free_pages.push(pid),
                PageType::Heap => {
                    if !live_heaps.contains(&heap_id) {
                        // Orphan from a dropped heap or an unlogged
                        // allocation: recycle it.
                        pager.with_page_mut(pid, |p| {
                            *p = Page::new(PageType::Free, 0);
                        })?;
                        mgr.free_pages.push(pid);
                        continue;
                    }
                    // Reclaim reservations that never committed.
                    let reserved: Vec<u16> = pager.with_page(pid, |p| {
                        p.iter_records()
                            .filter_map(|(s, r)| {
                                (!r.is_empty() && r[0] == FLAG_RESERVED).then_some(s)
                            })
                            .collect()
                    })?;
                    if !reserved.is_empty() {
                        pager.with_page_mut(pid, |p| {
                            for s in reserved {
                                p.delete(s);
                            }
                        })?;
                    }
                    let free = pager.with_page(pid, |p| p.total_free())?;
                    let st = mgr.heaps.get_mut(&heap_id).expect("inserted above");
                    st.pages.push(pid);
                    st.freemap.set(pid, free);
                }
            }
        }
        for st in mgr.heaps.values_mut() {
            st.pages.sort_unstable();
        }
        Ok(mgr)
    }

    /// Pin the home slots of every operation in a WAL replay stream. Call
    /// before applying the replayed batches, and pair with
    /// [`HeapManager::clear_replay_pins`] once replay finishes.
    pub fn pin_replay_homes(&mut self, pins: impl IntoIterator<Item = (u32, RecordId)>) {
        self.replay_pins.extend(pins);
    }

    /// Forget the replay pins. Leftover pin reservations (rids whose only
    /// replayed operation was a delete) are invisible to scans and are
    /// reclaimed by the next open's rebuild.
    pub fn clear_replay_pins(&mut self) {
        self.replay_pins = HashSet::new();
    }

    /// Register a new, empty heap.
    pub fn create_heap(&mut self, heap: u32) {
        self.heaps.entry(heap).or_default();
    }

    /// Does the heap exist?
    pub fn has_heap(&self, heap: u32) -> bool {
        self.heaps.contains_key(&heap)
    }

    /// Release every page of `heap` to the free list.
    pub fn drop_heap(&mut self, pager: &Pager, heap: u32) -> Result<()> {
        let st = self
            .heaps
            .remove(&heap)
            .ok_or(StorageError::NoSuchHeap(heap))?;
        for pid in st.pages {
            pager.with_page_mut(pid, |p| {
                *p = Page::new(PageType::Free, 0);
            })?;
            self.free_pages.push(pid);
        }
        Ok(())
    }

    fn state(&self, heap: u32) -> Result<&HeapState> {
        self.heaps.get(&heap).ok_or(StorageError::NoSuchHeap(heap))
    }

    fn state_mut(&mut self, heap: u32) -> Result<&mut HeapState> {
        self.heaps
            .get_mut(&heap)
            .ok_or(StorageError::NoSuchHeap(heap))
    }

    fn grow_heap(&mut self, pager: &Pager, heap: u32) -> Result<PageId> {
        let pid = match self.free_pages.pop() {
            Some(pid) => {
                pager.with_page_mut(pid, |p| {
                    *p = Page::new(PageType::Heap, heap);
                })?;
                pid
            }
            None => pager.allocate(Page::new(PageType::Heap, heap))?,
        };
        let st = self.state_mut(heap)?;
        st.pages.push(pid);
        let free = pager.with_page(pid, |p| p.total_free())?;
        st.freemap.set(pid, free);
        Ok(pid)
    }

    /// Place an encoded extent in the heap, returning its record id.
    fn place(&mut self, pager: &Pager, heap: u32, extent: &[u8]) -> Result<RecordId> {
        if extent.len() > MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                size: extent.len(),
                max: MAX_RECORD,
            });
        }
        // Candidate from the free map; verify against the real page since
        // the map tracks total (not contiguous + slot) space.
        loop {
            let candidate = self.state(heap)?.freemap.find(extent.len() + 4);
            let pid = match candidate {
                Some(pid) => pid,
                None => self.grow_heap(pager, heap)?,
            };
            let placed = pager.with_page_mut(pid, |p| {
                let slot = p.insert(extent);
                (slot, p.total_free())
            })?;
            let (slot, free) = placed;
            self.state_mut(heap)?.freemap.set(pid, free);
            if let Some(slot) = slot {
                let rid = RecordId { page: pid, slot };
                if self.replay_pins.contains(&(heap, rid)) {
                    // This slot is the home of an operation later in the
                    // replay stream: occupy it with a reservation (so it is
                    // not chosen again) and place the extent elsewhere. The
                    // pending put/delete overwrites or clears the
                    // reservation when it replays.
                    let pin = encode(FLAG_RESERVED, &[], extent.len().max(HOME_MIN_EXTENT))?;
                    let same_size = encode(FLAG_RESERVED, &[], extent.len())?;
                    let free = pager.with_page_mut(pid, |p| {
                        if !p.update(slot, &pin) {
                            // Shrinking to the extent already there cannot
                            // fail; only the HOME_MIN_EXTENT growth can.
                            let ok = p.update(slot, &same_size);
                            debug_assert!(ok, "same-size pin rewrite failed");
                        }
                        p.total_free()
                    })?;
                    self.state_mut(heap)?.freemap.set(pid, free);
                    continue;
                }
                return Ok(rid);
            }
            // Stale free-map entry: the entry was just corrected; retry.
        }
    }

    /// Insert a new record, returning its id.
    pub fn insert(&mut self, pager: &Pager, heap: u32, payload: &[u8]) -> Result<RecordId> {
        if payload.len() > MAX_PAYLOAD {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        let extent = encode(FLAG_NORMAL, payload, HOME_MIN_EXTENT)?;
        self.place(pager, heap, &extent)
    }

    /// Reserve a record id without committing data. `size_hint` pre-sizes
    /// the extent so the eventual [`HeapManager::put_at`] usually fits in
    /// place. Reservations left behind by a crash are reclaimed at open.
    pub fn reserve(&mut self, pager: &Pager, heap: u32, size_hint: usize) -> Result<RecordId> {
        let extent = encode(
            FLAG_RESERVED,
            &[],
            (REC_HEADER + size_hint.min(MAX_PAYLOAD)).max(HOME_MIN_EXTENT),
        )?;
        self.place(pager, heap, &extent)
    }

    /// Release a reservation (transaction abort path).
    pub fn release(&mut self, pager: &Pager, heap: u32, rid: RecordId) -> Result<()> {
        let flag = pager.with_page(rid.page, |p| p.record(rid.slot).map(|r| r.first().copied()))?;
        match flag {
            Some(Some(FLAG_RESERVED)) => {
                let free = pager.with_page_mut(rid.page, |p| {
                    p.delete(rid.slot);
                    p.total_free()
                })?;
                self.state_mut(heap)?.freemap.set(rid.page, free);
                Ok(())
            }
            _ => Err(StorageError::Internal(format!(
                "release of non-reserved record {rid}"
            ))),
        }
    }

    /// Read the payload of the record at `rid`, following a forward stub if
    /// present.
    pub fn read(&self, pager: &Pager, heap: u32, rid: RecordId) -> Result<Vec<u8>> {
        Self::read_record(pager, heap, rid)
    }

    /// [`HeapManager::read`] without the manager: record reads consult only
    /// page contents, never heap bookkeeping, so the store's read path can
    /// call this with no structural lock held (DESIGN.md §8).
    pub fn read_record(pager: &Pager, heap: u32, rid: RecordId) -> Result<Vec<u8>> {
        let no_such = || StorageError::NoSuchRecord {
            heap,
            page: rid.page,
            slot: rid.slot,
        };
        if rid.page >= pager.page_count() {
            return Err(no_such());
        }
        let raw = pager.with_page(rid.page, |p| p.record(rid.slot).map(|r| r.to_vec()))?;
        let raw = raw.ok_or_else(no_such)?;
        let (flag, payload) = decode(&raw)?;
        match flag {
            FLAG_NORMAL | FLAG_FWD_TARGET => Ok(payload.to_vec()),
            FLAG_RESERVED => Err(no_such()),
            FLAG_FORWARD => {
                let target = RecordId::from_bytes(payload)
                    .ok_or_else(|| StorageError::Corrupt("short forward stub".into()))?;
                let raw = pager
                    .with_page(target.page, |p| p.record(target.slot).map(|r| r.to_vec()))?
                    .ok_or_else(|| {
                        StorageError::Corrupt(format!("dangling forward {rid} -> {target}"))
                    })?;
                let (flag, payload) = decode(&raw)?;
                if flag != FLAG_FWD_TARGET {
                    return Err(StorageError::Corrupt(format!(
                        "forward {rid} -> {target} does not point at a forward target"
                    )));
                }
                Ok(payload.to_vec())
            }
            other => Err(StorageError::Corrupt(format!(
                "unknown record flag {other}"
            ))),
        }
    }

    /// Make sure `rid.page` exists and belongs to `heap` (WAL replay may
    /// reference pages that were never flushed before a crash).
    fn ensure_page(&mut self, pager: &Pager, heap: u32, pid: PageId) -> Result<()> {
        while pager.page_count() <= pid {
            let fresh = pager.allocate(Page::new(PageType::Free, 0))?;
            self.free_pages.push(fresh);
        }
        let (ty, owner) = pager.with_page(pid, |p| (p.page_type(), p.heap_id()))?;
        match ty {
            PageType::Heap if owner == heap => Ok(()),
            PageType::Free | PageType::Heap => {
                // Adopt the page for this heap (replay path).
                self.free_pages.retain(|&p| p != pid);
                pager.with_page_mut(pid, |p| {
                    *p = Page::new(PageType::Heap, heap);
                })?;
                let st = self.state_mut(heap)?;
                if !st.pages.contains(&pid) {
                    st.pages.push(pid);
                    st.pages.sort_unstable();
                }
                let free = pager.with_page(pid, |p| p.total_free())?;
                self.state_mut(heap)?.freemap.set(pid, free);
                Ok(())
            }
            PageType::Meta => Err(StorageError::Corrupt(format!(
                "record replay targets meta page {pid}"
            ))),
        }
    }

    /// Write `payload` at exactly `rid`, creating, resizing, or forwarding as
    /// needed. Idempotent: used both for committed updates and WAL replay.
    pub fn put_at(
        &mut self,
        pager: &Pager,
        heap: u32,
        rid: RecordId,
        payload: &[u8],
    ) -> Result<()> {
        if payload.len() > MAX_PAYLOAD {
            return Err(StorageError::RecordTooLarge {
                size: payload.len(),
                max: MAX_PAYLOAD,
            });
        }
        self.ensure_page(pager, heap, rid.page)?;
        // Inspect the current occupant.
        let current = pager.with_page(rid.page, |p| p.record(rid.slot).map(|r| r.to_vec()))?;
        let old_target = match current.as_deref().map(decode).transpose()? {
            Some((FLAG_FORWARD, stub)) => RecordId::from_bytes(stub),
            _ => None,
        };
        let extent = encode(FLAG_NORMAL, payload, HOME_MIN_EXTENT)?;
        let wrote = pager.with_page_mut(rid.page, |p| {
            if !p.ensure_slot(rid.slot) {
                return false;
            }
            p.update(rid.slot, &extent)
        })?;
        let free = pager.with_page(rid.page, |p| p.total_free())?;
        self.state_mut(heap)?.freemap.set(rid.page, free);
        if wrote {
            // In (home) place; drop any previous forward target.
            if let Some(t) = old_target {
                self.delete_extent(pager, heap, t)?;
            }
            return Ok(());
        }
        // Does not fit at home: place a forward target and rewrite the home
        // slot as a stub (guaranteed to fit thanks to HOME_MIN_EXTENT).
        if let Some(t) = old_target {
            self.delete_extent(pager, heap, t)?;
        }
        let target_extent = encode(FLAG_FWD_TARGET, payload, 0)?;
        let target = self.place(pager, heap, &target_extent)?;
        let stub = encode(FLAG_FORWARD, &target.to_bytes(), HOME_MIN_EXTENT)?;
        loop {
            let ok = pager.with_page_mut(rid.page, |p| {
                if !p.ensure_slot(rid.slot) {
                    return false;
                }
                p.update(rid.slot, &stub)
            })?;
            if ok {
                break;
            }
            // Live operation guarantees every home slot holds at least
            // HOME_MIN_EXTENT bytes, but WAL replay can meet a page image
            // fuller than it ever was live (an evicted page carrying
            // *later* record states). Forward another resident off the
            // page to make room rather than failing recovery.
            if !self.make_room_on(pager, heap, rid.page, rid.slot)? {
                return Err(StorageError::Internal(format!(
                    "forward stub does not fit at {rid} despite minimum extent"
                )));
            }
        }
        let free = pager.with_page(rid.page, |p| p.total_free())?;
        self.state_mut(heap)?.freemap.set(rid.page, free);
        Ok(())
    }

    /// Free at least one byte on `pid` so a forward stub fits at slot
    /// `except`: shrink an oversized reservation in place, or forward the
    /// largest resident record's body to another page. Returns false when
    /// nothing on the page can move.
    fn make_room_on(&mut self, pager: &Pager, heap: u32, pid: PageId, except: u16) -> Result<bool> {
        let victim = pager.with_page(pid, |p| {
            p.iter_records()
                .filter(|&(s, r)| {
                    s != except
                        && r.len() > HOME_MIN_EXTENT
                        && matches!(r.first(), Some(&FLAG_NORMAL) | Some(&FLAG_RESERVED))
                })
                .max_by_key(|&(_, r)| r.len())
                .map(|(s, r)| (s, r.to_vec()))
        })?;
        let Some((slot, raw)) = victim else {
            return Ok(false);
        };
        if raw[0] == FLAG_RESERVED {
            let shrunk = encode(FLAG_RESERVED, &[], HOME_MIN_EXTENT)?;
            let free = pager.with_page_mut(pid, |p| {
                p.update(slot, &shrunk);
                p.total_free()
            })?;
            self.state_mut(heap)?.freemap.set(pid, free);
            return Ok(true);
        }
        // Relocate the record body; its id stays at `slot` via a stub, so
        // identity is preserved. `place` cannot pick this page again: the
        // body is larger than the page's free space by construction.
        let (_, payload) = decode(&raw)?;
        let body = encode(FLAG_FWD_TARGET, payload, 0)?;
        let target = self.place(pager, heap, &body)?;
        let stub = encode(FLAG_FORWARD, &target.to_bytes(), HOME_MIN_EXTENT)?;
        let free = pager.with_page_mut(pid, |p| {
            let ok = p.update(slot, &stub);
            debug_assert!(ok, "stub is no larger than the extent it replaces");
            p.total_free()
        })?;
        self.state_mut(heap)?.freemap.set(pid, free);
        Ok(true)
    }

    fn delete_extent(&mut self, pager: &Pager, heap: u32, rid: RecordId) -> Result<()> {
        if rid.page >= pager.page_count() {
            return Ok(());
        }
        let free = pager.with_page_mut(rid.page, |p| {
            p.delete(rid.slot);
            p.total_free()
        })?;
        if self.heaps.contains_key(&heap) {
            self.state_mut(heap)?.freemap.set(rid.page, free);
        }
        Ok(())
    }

    /// Delete the record at `rid` (and its forward target, if relocated).
    /// Idempotent: deleting an absent record succeeds.
    pub fn delete(&mut self, pager: &Pager, heap: u32, rid: RecordId) -> Result<()> {
        if rid.page >= pager.page_count() {
            return Ok(());
        }
        let current = pager.with_page(rid.page, |p| p.record(rid.slot).map(|r| r.to_vec()))?;
        if let Some(raw) = current {
            if let (FLAG_FORWARD, stub) = decode(&raw)? {
                if let Some(t) = RecordId::from_bytes(stub) {
                    self.delete_extent(pager, heap, t)?;
                }
            }
        }
        self.delete_extent(pager, heap, rid)
    }

    /// Snapshot of the heap's page list, in scan order. Lets a caller take
    /// the list under a brief lock and run the scan itself without one.
    pub fn pages_of(&self, heap: u32) -> Result<Vec<PageId>> {
        Ok(self.state(heap)?.pages.clone())
    }

    /// Visit every live record of the heap as `(rid, payload)`, in page
    /// order. Forwarded records are yielded at their *home* id.
    pub fn scan(
        &self,
        pager: &Pager,
        heap: u32,
        visit: impl FnMut(RecordId, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let pages = self.pages_of(heap)?;
        Self::scan_pages(pager, heap, &pages, visit)
    }

    /// [`HeapManager::scan`] over an already-snapshotted page list: needs no
    /// heap bookkeeping, so it runs with no structural lock held.
    pub fn scan_pages(
        pager: &Pager,
        heap: u32,
        pages: &[PageId],
        mut visit: impl FnMut(RecordId, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        for &pid in pages {
            let records: Vec<(u16, Vec<u8>)> = pager.with_page(pid, |p| {
                p.iter_records().map(|(s, r)| (s, r.to_vec())).collect()
            })?;
            for (slot, raw) in records {
                let (flag, payload) = decode(&raw)?;
                let rid = RecordId { page: pid, slot };
                match flag {
                    FLAG_NORMAL => {
                        if !visit(rid, payload)? {
                            return Ok(());
                        }
                    }
                    FLAG_FORWARD => {
                        let data = Self::read_record(pager, heap, rid)?;
                        if !visit(rid, &data)? {
                            return Ok(());
                        }
                    }
                    FLAG_RESERVED | FLAG_FWD_TARGET => {}
                    other => {
                        return Err(StorageError::Corrupt(format!(
                            "unknown record flag {other} during scan"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of pages owned by `heap`.
    pub fn page_count_of(&self, heap: u32) -> usize {
        self.heaps.get(&heap).map_or(0, |s| s.pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_SIZE;

    fn temp_pager(name: &str) -> (Pager, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("ode-heap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.odb"));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .unwrap();
        let pager = Pager::new(file, 64).unwrap();
        // Page 0 stands in for the meta page.
        pager.allocate(Page::new(PageType::Meta, 0)).unwrap();
        (pager, path)
    }

    #[test]
    fn insert_read_roundtrip() {
        let (pager, _p) = temp_pager("roundtrip");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let rid = mgr.insert(&pager, 1, b"stockitem 512 dram").unwrap();
        assert_eq!(mgr.read(&pager, 1, rid).unwrap(), b"stockitem 512 dram");
    }

    #[test]
    fn records_span_many_pages() {
        let (pager, _p) = temp_pager("many-pages");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let mut rids = Vec::new();
        for i in 0..500u32 {
            let data = vec![(i % 251) as u8; 100];
            rids.push((mgr.insert(&pager, 1, &data).unwrap(), data));
        }
        assert!(mgr.page_count_of(1) > 1);
        for (rid, data) in &rids {
            assert_eq!(&mgr.read(&pager, 1, *rid).unwrap(), data);
        }
    }

    #[test]
    fn update_grows_into_forwarding_and_id_stays_stable() {
        let (pager, _p) = temp_pager("forward");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        // Fill a page almost completely so growth must forward.
        let rid = mgr.insert(&pager, 1, &[1u8; 16]).unwrap();
        let mut fillers = Vec::new();
        loop {
            let f = mgr.insert(&pager, 1, &[9u8; 512]).unwrap();
            if f.page != rid.page {
                // Landed on a second page; the first is effectively full.
                mgr.delete(&pager, 1, f).unwrap();
                break;
            }
            fillers.push(f);
        }
        let big = vec![7u8; 4000];
        mgr.put_at(&pager, 1, rid, &big).unwrap();
        assert_eq!(mgr.read(&pager, 1, rid).unwrap(), big);
        // Shrink again: collapses back in place (still readable either way).
        let small = vec![3u8; 8];
        mgr.put_at(&pager, 1, rid, &small).unwrap();
        assert_eq!(mgr.read(&pager, 1, rid).unwrap(), small);
        for f in fillers {
            assert_eq!(mgr.read(&pager, 1, f).unwrap(), vec![9u8; 512]);
        }
    }

    #[test]
    fn forwarded_records_scan_at_home_id() {
        let (pager, _p) = temp_pager("scan-fwd");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let a = mgr.insert(&pager, 1, &[1u8; 3000]).unwrap();
        let b = mgr.insert(&pager, 1, &[2u8; 3000]).unwrap();
        let c = mgr.insert(&pager, 1, &[3u8; 1500]).unwrap();
        // Grow c so it forwards off the full page.
        mgr.put_at(&pager, 1, c, &[4u8; 5000]).unwrap();
        let mut seen = Vec::new();
        mgr.scan(&pager, 1, |rid, data| {
            seen.push((rid, data[0], data.len()));
            Ok(true)
        })
        .unwrap();
        assert!(seen.contains(&(a, 1, 3000)));
        assert!(seen.contains(&(b, 2, 3000)));
        assert!(seen.contains(&(c, 4, 5000)));
        assert_eq!(seen.len(), 3, "forward target must not be double-counted");
    }

    #[test]
    fn delete_frees_space_for_reuse() {
        let (pager, _p) = temp_pager("delete");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let mut rids = Vec::new();
        for _ in 0..50 {
            rids.push(mgr.insert(&pager, 1, &[5u8; 1000]).unwrap());
        }
        let pages_before = mgr.page_count_of(1);
        for rid in &rids {
            mgr.delete(&pager, 1, *rid).unwrap();
        }
        for _ in 0..50 {
            mgr.insert(&pager, 1, &[6u8; 1000]).unwrap();
        }
        assert_eq!(
            mgr.page_count_of(1),
            pages_before,
            "space from deleted records must be reused"
        );
    }

    #[test]
    fn reserve_then_put_at_then_read() {
        let (pager, _p) = temp_pager("reserve");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let rid = mgr.reserve(&pager, 1, 64).unwrap();
        assert!(matches!(
            mgr.read(&pager, 1, rid),
            Err(StorageError::NoSuchRecord { .. })
        ));
        mgr.put_at(&pager, 1, rid, b"now committed").unwrap();
        assert_eq!(mgr.read(&pager, 1, rid).unwrap(), b"now committed");
    }

    #[test]
    fn release_reclaims_reservation() {
        let (pager, _p) = temp_pager("release");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let rid = mgr.reserve(&pager, 1, 32).unwrap();
        mgr.release(&pager, 1, rid).unwrap();
        // The same slot becomes available again.
        let rid2 = mgr.insert(&pager, 1, b"x").unwrap();
        assert_eq!(rid, rid2);
    }

    #[test]
    fn reservations_skipped_by_scan() {
        let (pager, _p) = temp_pager("scan-reserved");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        mgr.reserve(&pager, 1, 16).unwrap();
        let real = mgr.insert(&pager, 1, b"real").unwrap();
        let mut seen = Vec::new();
        mgr.scan(&pager, 1, |rid, data| {
            seen.push((rid, data.to_vec()));
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, vec![(real, b"real".to_vec())]);
    }

    #[test]
    fn rebuild_reconstructs_membership_and_reclaims_reservations() {
        let (pager, path) = temp_pager("rebuild");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        mgr.create_heap(2);
        let a = mgr.insert(&pager, 1, b"heap one").unwrap();
        let b = mgr.insert(&pager, 2, b"heap two").unwrap();
        let r = mgr.reserve(&pager, 1, 16).unwrap();
        pager.flush_all().unwrap();
        drop(pager);
        drop(mgr);

        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let pager = Pager::new(file, 64).unwrap();
        let live: BTreeSet<u32> = [1u32, 2].into_iter().collect();
        let mgr = HeapManager::rebuild(&pager, &live).unwrap();
        assert_eq!(mgr.read(&pager, 1, a).unwrap(), b"heap one");
        assert_eq!(mgr.read(&pager, 2, b).unwrap(), b"heap two");
        // Reservation was reclaimed: reading it fails, slot reusable.
        assert!(mgr.read(&pager, 1, r).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn drop_heap_recycles_pages() {
        let (pager, _p) = temp_pager("drop-heap");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        for _ in 0..200 {
            mgr.insert(&pager, 1, &[1u8; 500]).unwrap();
        }
        let page_count_before = pager.page_count();
        mgr.drop_heap(&pager, 1).unwrap();
        assert!(!mgr.has_heap(1));
        mgr.create_heap(2);
        for _ in 0..200 {
            mgr.insert(&pager, 2, &[2u8; 500]).unwrap();
        }
        assert_eq!(
            pager.page_count(),
            page_count_before,
            "pages from the dropped heap must be reused"
        );
    }

    #[test]
    fn oversized_record_rejected() {
        let (pager, _p) = temp_pager("oversize");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let too_big = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            mgr.insert(&pager, 1, &too_big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn encode_rejects_payloads_past_u16_length() {
        // Regression: `payload.len() as u16` used to truncate silently,
        // writing a wrong slot length and corrupting the page.
        let huge = vec![0u8; u16::MAX as usize + 1];
        assert!(matches!(
            encode(FLAG_NORMAL, &huge, 0),
            Err(StorageError::RecordTooLarge {
                size,
                max
            }) if size == huge.len() && max == u16::MAX as usize
        ));
        // The boundary itself still encodes.
        assert!(encode(FLAG_NORMAL, &vec![0u8; u16::MAX as usize], 0).is_ok());
    }

    #[test]
    fn put_at_is_idempotent_like_wal_replay() {
        let (pager, _p) = temp_pager("idempotent");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let rid = RecordId { page: 5, slot: 3 };
        // Replay against a page that does not exist yet.
        mgr.put_at(&pager, 1, rid, b"replayed").unwrap();
        mgr.put_at(&pager, 1, rid, b"replayed").unwrap();
        assert_eq!(mgr.read(&pager, 1, rid).unwrap(), b"replayed");
        let mut n = 0;
        mgr.scan(&pager, 1, |_, _| {
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn replay_pins_protect_future_home_slots() {
        let (pager, _p) = temp_pager("replay-pins");
        let mut mgr = HeapManager::new();
        mgr.create_heap(1);
        let home = mgr.insert(&pager, 1, &[1u8; 16]).unwrap();
        // Fill the home page so growing `home` must forward to a new page.
        loop {
            let f = mgr.insert(&pager, 1, &[9u8; 512]).unwrap();
            if f.page != home.page {
                mgr.delete(&pager, 1, f).unwrap();
                break;
            }
        }
        // The forward target would land at slot 0 of the next fresh page;
        // pin that slot, as if a later WAL op addressed it as its home.
        let future_home = RecordId {
            page: pager.page_count(),
            slot: 0,
        };
        mgr.pin_replay_homes([(1, future_home)]);
        let big = vec![7u8; 4000];
        mgr.put_at(&pager, 1, home, &big).unwrap();
        assert_eq!(mgr.read(&pager, 1, home).unwrap(), big);
        // Replay the pinned op: without the pin this would overwrite the
        // forward target and dangle `home`'s stub.
        mgr.put_at(&pager, 1, future_home, b"late replayed op")
            .unwrap();
        mgr.clear_replay_pins();
        assert_eq!(
            mgr.read(&pager, 1, home).unwrap(),
            big,
            "forward target survived the pinned home's replay"
        );
        assert_eq!(
            mgr.read(&pager, 1, future_home).unwrap(),
            b"late replayed op"
        );
    }

    #[test]
    fn record_id_byte_roundtrip() {
        let rid = RecordId {
            page: 0xDEAD_BEEF,
            slot: 0x1234,
        };
        assert_eq!(RecordId::from_bytes(&rid.to_bytes()), Some(rid));
        assert_eq!(RecordId::from_bytes(&[1, 2, 3]), None);
    }
}
