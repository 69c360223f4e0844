//! Fixed-size pages with a slotted record layout.
//!
//! Every page is [`PAGE_SIZE`] bytes. A 24-byte header is followed by a slot
//! directory growing *up* and record data growing *down*; this is the classic
//! slotted-page organization, which lets variable-length records be added,
//! resized, and removed while slot numbers (and therefore record ids) stay
//! stable. Pages are checksummed with CRC-32 when written to disk.
//!
//! ```text
//! +------------------+-----------------------+ ..free.. +---------------+
//! | header (24 B)    | slot 0 | slot 1 | ... |          |  rec1 | rec0  |
//! +------------------+-----------------------+ <-.....- +---------------+
//! 0                 24                    data grows down        PAGE_SIZE
//! ```

use crate::crc::crc32;
use crate::error::{Result, StorageError};

/// Size of every page in the data file, in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Size of the fixed page header.
pub const HEADER_SIZE: usize = 24;
/// Size of one slot-directory entry.
pub const SLOT_SIZE: usize = 4;
/// Magic number identifying Ode pages.
pub const PAGE_MAGIC: u16 = 0x0DE1;
/// Largest record payload a single page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// Identifies a page within the data file. Page `0` is the meta page, so
/// `0` doubles as the "none" sentinel in page chains.
pub type PageId = u32;
/// Sentinel for "no page" in chains.
pub const NO_PAGE: PageId = 0;

/// Role of a page, stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    /// The directory/meta page chain rooted at page 0.
    Meta,
    /// A slotted page belonging to some heap.
    Heap,
    /// A page on the free list, available for reuse.
    Free,
}

impl PageType {
    fn to_u8(self) -> u8 {
        match self {
            PageType::Meta => 0,
            PageType::Heap => 1,
            PageType::Free => 2,
        }
    }

    fn from_u8(b: u8) -> Result<Self> {
        match b {
            0 => Ok(PageType::Meta),
            1 => Ok(PageType::Heap),
            2 => Ok(PageType::Free),
            other => Err(StorageError::Corrupt(format!("unknown page type {other}"))),
        }
    }
}

/// An in-memory page image plus typed accessors over its layout.
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("heap_id", &self.heap_id())
            .field("next_page", &self.next_page())
            .field("slot_count", &self.slot_count())
            .field("free_contiguous", &self.contiguous_free())
            .finish()
    }
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn write_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn write_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

impl Page {
    /// Create a freshly-initialized page of the given type and owner.
    pub fn new(ty: PageType, heap_id: u32) -> Self {
        let mut page = Page {
            buf: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap(),
        };
        write_u16(&mut page.buf[..], 0, PAGE_MAGIC);
        page.buf[2] = ty.to_u8();
        write_u32(&mut page.buf[..], 4, heap_id);
        write_u32(&mut page.buf[..], 8, NO_PAGE);
        write_u16(&mut page.buf[..], 12, 0); // slot_count
        write_u16(&mut page.buf[..], 14, PAGE_SIZE as u16); // data_start
        page
    }

    /// Wrap raw bytes read from disk, verifying magic and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image of {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        let mut buf: Box<[u8; PAGE_SIZE]> = bytes.to_vec().into_boxed_slice().try_into().unwrap();
        if read_u16(&buf[..], 0) != PAGE_MAGIC {
            return Err(StorageError::Corrupt("page magic mismatch".into()));
        }
        let stored_crc = read_u32(&buf[..], 16);
        write_u32(&mut buf[..], 16, 0);
        let computed = crc32(&buf[..]);
        if stored_crc != computed {
            return Err(StorageError::Corrupt(format!(
                "page checksum mismatch: stored {stored_crc:#x}, computed {computed:#x}"
            )));
        }
        PageType::from_u8(buf[2])?;
        Ok(Page { buf })
    }

    /// Serialize the page for disk, stamping the checksum.
    pub fn to_bytes(&self) -> [u8; PAGE_SIZE] {
        let mut out = *self.buf;
        write_u32(&mut out, 16, 0);
        let crc = crc32(&out);
        write_u32(&mut out, 16, crc);
        out
    }

    /// The page's role.
    pub fn page_type(&self) -> PageType {
        PageType::from_u8(self.buf[2]).expect("validated at construction")
    }

    /// Owning heap id (meaningful for heap pages).
    pub fn heap_id(&self) -> u32 {
        read_u32(&self.buf[..], 4)
    }

    /// Next page in this heap's chain ([`NO_PAGE`] if last).
    pub fn next_page(&self) -> PageId {
        read_u32(&self.buf[..], 8)
    }

    /// Link the next page in the chain.
    pub fn set_next_page(&mut self, next: PageId) {
        write_u32(&mut self.buf[..], 8, next);
    }

    /// Number of slot-directory entries (including freed slots).
    pub fn slot_count(&self) -> u16 {
        read_u16(&self.buf[..], 12)
    }

    fn set_slot_count(&mut self, n: u16) {
        write_u16(&mut self.buf[..], 12, n);
    }

    fn data_start(&self) -> u16 {
        read_u16(&self.buf[..], 14)
    }

    fn set_data_start(&mut self, v: u16) {
        write_u16(&mut self.buf[..], 14, v);
    }

    fn slot_dir_offset(slot: u16) -> usize {
        HEADER_SIZE + SLOT_SIZE * slot as usize
    }

    /// Raw `(offset, len)` of a slot; offset 0 means the slot is free.
    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let at = Self::slot_dir_offset(slot);
        (read_u16(&self.buf[..], at), read_u16(&self.buf[..], at + 2))
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let at = Self::slot_dir_offset(slot);
        write_u16(&mut self.buf[..], at, offset);
        write_u16(&mut self.buf[..], at + 2, len);
    }

    /// Does `slot` currently hold a record?
    pub fn slot_in_use(&self, slot: u16) -> bool {
        slot < self.slot_count() && self.slot_entry(slot).0 != 0
    }

    /// Read the record stored in `slot`.
    pub fn record(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        if off == 0 {
            return None;
        }
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Bytes free in the contiguous gap between the slot directory and the
    /// record area. A new slot costs [`SLOT_SIZE`] out of this gap.
    pub fn contiguous_free(&self) -> usize {
        let dir_end = HEADER_SIZE + SLOT_SIZE * self.slot_count() as usize;
        self.data_start() as usize - dir_end
    }

    /// Total reclaimable free bytes, counting holes left by deleted or
    /// shrunk records (recoverable via [`Page::compact`]).
    pub fn total_free(&self) -> usize {
        let mut live = 0usize;
        for s in 0..self.slot_count() {
            let (off, len) = self.slot_entry(s);
            if off != 0 {
                live += len as usize;
            }
        }
        PAGE_SIZE - HEADER_SIZE - SLOT_SIZE * self.slot_count() as usize - live
    }

    /// Find a reusable (freed) slot, if any.
    fn find_free_slot(&self) -> Option<u16> {
        (0..self.slot_count()).find(|&s| self.slot_entry(s).0 == 0)
    }

    /// Would a record of `len` bytes fit (possibly after compaction)?
    pub fn can_insert(&self, len: usize) -> bool {
        let slot_cost = if self.find_free_slot().is_some() {
            0
        } else {
            SLOT_SIZE
        };
        self.total_free() >= len + slot_cost
    }

    /// Insert a record, compacting if fragmentation requires it. Returns the
    /// slot number, or `None` if the page genuinely lacks space.
    pub fn insert(&mut self, data: &[u8]) -> Option<u16> {
        if !self.can_insert(data.len()) {
            return None;
        }
        let slot = match self.find_free_slot() {
            Some(s) => s,
            None => {
                // The directory grows into the contiguous gap; make room
                // *before* extending it, or the new entry would overwrite
                // record bytes.
                if self.contiguous_free() < SLOT_SIZE {
                    self.compact();
                }
                debug_assert!(self.contiguous_free() >= SLOT_SIZE);
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                self.set_slot_entry(s, 0, 0);
                s
            }
        };
        if self.contiguous_free() < data.len() {
            self.compact();
        }
        debug_assert!(self.contiguous_free() >= data.len());
        let new_start = self.data_start() as usize - data.len();
        self.buf[new_start..new_start + data.len()].copy_from_slice(data);
        self.set_data_start(new_start as u16);
        self.set_slot_entry(slot, new_start as u16, data.len() as u16);
        Some(slot)
    }

    /// Ensure the page has at least `slot + 1` directory entries, marking any
    /// newly added entries free. Used by idempotent WAL replay, which must
    /// recreate records at exact slots. Fails (returns false) if growing the
    /// directory would not fit.
    pub fn ensure_slot(&mut self, slot: u16) -> bool {
        while self.slot_count() <= slot {
            if self.contiguous_free() < SLOT_SIZE {
                self.compact();
                if self.contiguous_free() < SLOT_SIZE {
                    return false;
                }
            }
            let n = self.slot_count();
            self.set_slot_count(n + 1);
            self.set_slot_entry(n, 0, 0);
        }
        true
    }

    /// Replace the record in `slot` with `data`, reusing its space when the
    /// new image is no larger, otherwise relocating within the page. Returns
    /// false if the page cannot hold the new image (caller forwards the
    /// record to another page). The slot may be currently free (WAL replay).
    pub fn update(&mut self, slot: u16, data: &[u8]) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let (off, len) = self.slot_entry(slot);
        if off != 0 && data.len() <= len as usize {
            // Shrink or same-size: rewrite in place, keep the original
            // extent length so the hole stays reclaimable by compaction.
            let off = off as usize;
            self.buf[off..off + data.len()].copy_from_slice(data);
            self.set_slot_entry(slot, off as u16, data.len() as u16);
            return true;
        }
        // Grows (or slot empty): free the old extent, then insert fresh.
        let old = (off, len);
        self.set_slot_entry(slot, 0, 0);
        let total = self.total_free();
        if total < data.len() {
            // Roll back: it will not fit even after compaction.
            self.set_slot_entry(slot, old.0, old.1);
            return false;
        }
        if self.contiguous_free() < data.len() {
            self.compact();
        }
        let new_start = self.data_start() as usize - data.len();
        self.buf[new_start..new_start + data.len()].copy_from_slice(data);
        self.set_data_start(new_start as u16);
        self.set_slot_entry(slot, new_start as u16, data.len() as u16);
        true
    }

    /// Remove the record in `slot`; the slot becomes reusable. Trailing free
    /// slots are trimmed so directories do not grow without bound.
    pub fn delete(&mut self, slot: u16) {
        if slot >= self.slot_count() {
            return;
        }
        self.set_slot_entry(slot, 0, 0);
        // Trim trailing free slots.
        let mut n = self.slot_count();
        while n > 0 && self.slot_entry(n - 1).0 == 0 {
            n -= 1;
        }
        self.set_slot_count(n);
    }

    /// Slide all live records against the end of the page, eliminating holes.
    pub fn compact(&mut self) {
        let mut live: Vec<(u16, u16, u16)> = (0..self.slot_count())
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                (off != 0).then_some((s, off, len))
            })
            .collect();
        // Move records starting from the one closest to the end of the page
        // so that shifts never overwrite unmoved data.
        live.sort_by_key(|&(_, off, _)| std::cmp::Reverse(off));
        let mut cursor = PAGE_SIZE;
        for (slot, off, len) in live {
            let len_us = len as usize;
            let new_off = cursor - len_us;
            self.buf
                .copy_within(off as usize..off as usize + len_us, new_off);
            self.set_slot_entry(slot, new_off as u16, len);
            cursor = new_off;
        }
        self.set_data_start(cursor as u16);
    }

    /// Iterate over `(slot, record_bytes)` for every live slot.
    pub fn iter_records(&self) -> impl Iterator<Item = (u16, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.record(s).map(|r| (s, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_bytes() {
        let mut p = Page::new(PageType::Heap, 7);
        p.set_next_page(42);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        let bytes = p.to_bytes();
        let q = Page::from_bytes(&bytes).unwrap();
        assert_eq!(q.heap_id(), 7);
        assert_eq!(q.next_page(), 42);
        assert_eq!(q.record(s0).unwrap(), b"hello");
        assert_eq!(q.record(s1).unwrap(), b"world!");
    }

    #[test]
    fn corruption_is_detected() {
        let p = Page::new(PageType::Heap, 1);
        let mut bytes = p.to_bytes();
        bytes[100] ^= 0xFF;
        assert!(matches!(
            Page::from_bytes(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn insert_until_full_then_reject() {
        let mut p = Page::new(PageType::Heap, 1);
        let rec = vec![0xAB; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8192 - 24 header; each record costs 100 + 4 slot bytes.
        assert_eq!(n, (PAGE_SIZE - HEADER_SIZE) / 104);
        assert!(!p.can_insert(100));
        // The remaining space minus a fresh slot entry is still usable.
        assert!(p.can_insert(p.total_free() - SLOT_SIZE));
    }

    #[test]
    fn delete_reuses_slot_and_space() {
        let mut p = Page::new(PageType::Heap, 1);
        let a = p.insert(&[1u8; 50]).unwrap();
        let b = p.insert(&[2u8; 50]).unwrap();
        p.delete(a);
        assert!(p.record(a).is_none());
        assert!(p.record(b).is_some());
        let c = p.insert(&[3u8; 40]).unwrap();
        assert_eq!(c, a, "freed slot should be reused");
        assert_eq!(p.record(c).unwrap(), &[3u8; 40][..]);
    }

    #[test]
    fn trailing_slots_trimmed_on_delete() {
        let mut p = Page::new(PageType::Heap, 1);
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        assert_eq!(p.slot_count(), 2);
        p.delete(b);
        assert_eq!(p.slot_count(), 1);
        p.delete(a);
        assert_eq!(p.slot_count(), 0);
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new(PageType::Heap, 1);
        let s = p.insert(&[7u8; 64]).unwrap();
        assert!(p.update(s, &[8u8; 32]));
        assert_eq!(p.record(s).unwrap(), &[8u8; 32][..]);
        assert!(p.update(s, &[9u8; 128]));
        assert_eq!(p.record(s).unwrap(), &[9u8; 128][..]);
    }

    #[test]
    fn update_that_cannot_fit_fails_without_damage() {
        let mut p = Page::new(PageType::Heap, 1);
        let filler = p.insert(&vec![1u8; 4000]).unwrap();
        let s = p.insert(&vec![2u8; 4000]).unwrap();
        assert!(!p.update(s, &vec![3u8; 5000]));
        assert_eq!(p.record(s).unwrap(), &vec![2u8; 4000][..]);
        assert_eq!(p.record(filler).unwrap(), &vec![1u8; 4000][..]);
    }

    #[test]
    fn compaction_recovers_holes() {
        let mut p = Page::new(PageType::Heap, 1);
        let mut slots = Vec::new();
        for i in 0..20 {
            slots.push(p.insert(&vec![i as u8; 300]).unwrap());
        }
        // Delete every other record to create holes.
        for (i, &s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                p.delete(s);
            }
        }
        let big = vec![0xEE; 2000];
        assert!(p.can_insert(big.len()));
        let s = p.insert(&big).unwrap();
        assert_eq!(p.record(s).unwrap(), &big[..]);
        // Survivors unharmed.
        for (i, &s) in slots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(p.record(s).unwrap(), &vec![i as u8; 300][..]);
            }
        }
    }

    #[test]
    fn ensure_slot_extends_directory() {
        let mut p = Page::new(PageType::Heap, 1);
        assert!(p.ensure_slot(5));
        assert_eq!(p.slot_count(), 6);
        assert!(!p.slot_in_use(5));
        assert!(p.update(5, b"replayed"));
        assert_eq!(p.record(5).unwrap(), b"replayed");
    }

    #[test]
    fn iter_records_skips_holes() {
        let mut p = Page::new(PageType::Heap, 1);
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b);
        let seen: Vec<(u16, Vec<u8>)> = p.iter_records().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(seen, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    #[test]
    fn directory_growth_with_fragmented_space_does_not_corrupt() {
        // Regression (found by proptest): when contiguous space is
        // exhausted but holes exist, growing the slot directory used to
        // overwrite record bytes.
        let mut p = Page::new(PageType::Heap, 1);
        // Fill the page completely with two records.
        let half = (PAGE_SIZE - HEADER_SIZE - 2 * SLOT_SIZE) / 2;
        let a = p.insert(&vec![0xAA; half]).unwrap();
        let b = p.insert(&vec![0xBB; half]).unwrap();
        assert!(p.contiguous_free() < SLOT_SIZE);
        // Free the first record: plenty of total space, zero contiguous.
        p.delete(a);
        // Slot a is reused, no directory growth needed — fine either way.
        let c = p.insert(&[0xCC; 64]).unwrap();
        assert_eq!(c, a);
        // Now force directory growth while contiguous space is tiny.
        let d = p.insert(&[0xDD; 64]).unwrap();
        assert_eq!(p.record(b).unwrap(), &vec![0xBB; half][..]);
        assert_eq!(p.record(c).unwrap(), &[0xCC; 64][..]);
        assert_eq!(p.record(d).unwrap(), &[0xDD; 64][..]);
        // And the page still round-trips its checksum.
        let q = Page::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(q.record(b).unwrap(), &vec![0xBB; half][..]);
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut p = Page::new(PageType::Heap, 1);
        let data = vec![0x55; MAX_RECORD];
        let s = p.insert(&data).unwrap();
        assert_eq!(p.record(s).unwrap().len(), MAX_RECORD);
        assert_eq!(p.contiguous_free(), 0);
    }
}
