//! Redo-only write-ahead log.
//!
//! Because the engine defers all updates until commit (see the crate docs),
//! the log only ever needs *redo* information: each committed transaction is
//! one `Begin … ops … Commit` group, and recovery simply re-applies every
//! complete group in order. All operations are expressed as idempotent
//! "ensure" forms (`Put` at an exact record id, `Delete` of an exact id), so
//! a crash during replay is handled by replaying again.
//!
//! Framing: every record is `[len: u32][crc32: u32][payload: len bytes]`.
//! A torn or corrupt tail ends replay — everything before it is intact
//! because records are appended and fsynced in order.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::crc::crc32;
use crate::error::{Result, StorageError};
use crate::heap::RecordId;

/// One redo operation inside a committed group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Make sure the heap exists.
    EnsureHeap(u32),
    /// Drop the heap and free its pages.
    DropHeap(u32),
    /// Ensure the record at `rid` holds exactly `data`.
    Put {
        heap: u32,
        rid: RecordId,
        data: Vec<u8>,
    },
    /// Ensure no record lives at `rid`.
    Delete { heap: u32, rid: RecordId },
}

const TAG_BEGIN: u8 = 1;
const TAG_ENSURE_HEAP: u8 = 2;
const TAG_DROP_HEAP: u8 = 3;
const TAG_PUT: u8 = 4;
const TAG_DELETE: u8 = 5;
const TAG_COMMIT: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;

fn encode_op(op: &WalOp, out: &mut Vec<u8>) {
    match op {
        WalOp::EnsureHeap(h) => {
            out.push(TAG_ENSURE_HEAP);
            out.extend_from_slice(&h.to_le_bytes());
        }
        WalOp::DropHeap(h) => {
            out.push(TAG_DROP_HEAP);
            out.extend_from_slice(&h.to_le_bytes());
        }
        WalOp::Put { heap, rid, data } => {
            out.push(TAG_PUT);
            out.extend_from_slice(&heap.to_le_bytes());
            out.extend_from_slice(&rid.to_bytes());
            out.extend_from_slice(&(data.len() as u32).to_le_bytes());
            out.extend_from_slice(data);
        }
        WalOp::Delete { heap, rid } => {
            out.push(TAG_DELETE);
            out.extend_from_slice(&heap.to_le_bytes());
            out.extend_from_slice(&rid.to_bytes());
        }
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.at)?;
        self.at += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.buf.get(self.at..self.at + 4)?;
        self.at += 4;
        Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.at..self.at + n)?;
        self.at += n;
        Some(s)
    }

    fn rid(&mut self) -> Option<RecordId> {
        RecordId::from_bytes(self.bytes(6)?)
    }
}

/// A parsed log entry (only used internally and by tests).
#[derive(Debug, PartialEq, Eq)]
enum Entry {
    Begin(u64),
    Op(WalOp),
    Commit(u64),
    Checkpoint,
}

fn decode_entry(payload: &[u8]) -> Result<Entry> {
    let corrupt = |what: &str| StorageError::Corrupt(format!("wal entry: {what}"));
    let mut c = Cursor {
        buf: payload,
        at: 0,
    };
    let tag = c.u8().ok_or_else(|| corrupt("empty"))?;
    let entry = match tag {
        TAG_BEGIN => Entry::Begin(c.u64().ok_or_else(|| corrupt("short begin"))?),
        TAG_COMMIT => Entry::Commit(c.u64().ok_or_else(|| corrupt("short commit"))?),
        TAG_CHECKPOINT => Entry::Checkpoint,
        TAG_ENSURE_HEAP => Entry::Op(WalOp::EnsureHeap(
            c.u32().ok_or_else(|| corrupt("short ensure"))?,
        )),
        TAG_DROP_HEAP => Entry::Op(WalOp::DropHeap(
            c.u32().ok_or_else(|| corrupt("short drop"))?,
        )),
        TAG_PUT => {
            let heap = c.u32().ok_or_else(|| corrupt("short put heap"))?;
            let rid = c.rid().ok_or_else(|| corrupt("short put rid"))?;
            let len = c.u32().ok_or_else(|| corrupt("short put len"))? as usize;
            let data = c
                .bytes(len)
                .ok_or_else(|| corrupt("short put data"))?
                .to_vec();
            Entry::Op(WalOp::Put { heap, rid, data })
        }
        TAG_DELETE => {
            let heap = c.u32().ok_or_else(|| corrupt("short delete heap"))?;
            let rid = c.rid().ok_or_else(|| corrupt("short delete rid"))?;
            Entry::Op(WalOp::Delete { heap, rid })
        }
        other => return Err(corrupt(&format!("unknown tag {other}"))),
    };
    Ok(entry)
}

fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The write-ahead log file.
pub struct Wal {
    writer: BufWriter<File>,
    /// Bytes appended since open/truncate (drives checkpoint policy).
    len: u64,
    next_tx: u64,
    /// Commit groups appended since open (telemetry).
    appends: u64,
}

impl Wal {
    /// Open (or create) the log at `path` and return the committed batches
    /// recorded since the last checkpoint, in commit order.
    pub fn open(path: &Path) -> Result<(Wal, Vec<Vec<WalOp>>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StorageError::io("open wal", e))?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)
            .map_err(|e| StorageError::io("read wal", e))?;
        let (batches, valid_len, max_tx) = Self::parse(&raw);
        // Truncate any torn tail so future appends start on a clean frame.
        if (valid_len as u64) < raw.len() as u64 {
            file.set_len(valid_len as u64)
                .map_err(|e| StorageError::io("truncate torn wal tail", e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| StorageError::io("seek wal", e))?;
        let wal = Wal {
            writer: BufWriter::new(file),
            len: valid_len as u64,
            next_tx: max_tx + 1,
            appends: 0,
        };
        Ok((wal, batches))
    }

    /// Parse raw log bytes: returns (committed batches, bytes of valid
    /// prefix, highest tx id seen).
    fn parse(raw: &[u8]) -> (Vec<Vec<WalOp>>, usize, u64) {
        let mut batches = Vec::new();
        let mut at = 0usize;
        let mut open_tx: Option<(u64, Vec<WalOp>)> = None;
        let mut max_tx = 0u64;
        let mut valid_end = 0usize;
        while at + 8 <= raw.len() {
            let len = u32::from_le_bytes(raw[at..at + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(raw[at + 4..at + 8].try_into().unwrap());
            let Some(payload) = raw.get(at + 8..at + 8 + len) else {
                break; // torn tail
            };
            if crc32(payload) != crc {
                break; // torn or corrupt tail
            }
            let Ok(entry) = decode_entry(payload) else {
                break;
            };
            at += 8 + len;
            match entry {
                Entry::Begin(tx) => {
                    max_tx = max_tx.max(tx);
                    open_tx = Some((tx, Vec::new()));
                }
                Entry::Op(op) => {
                    if let Some((_, ops)) = open_tx.as_mut() {
                        ops.push(op);
                    }
                    // An op outside Begin/Commit is ignored (cannot happen
                    // in well-formed logs; tolerated for robustness).
                }
                Entry::Commit(tx) => {
                    max_tx = max_tx.max(tx);
                    if let Some((open, ops)) = open_tx.take() {
                        if open == tx {
                            batches.push(ops);
                            valid_end = at;
                        }
                    }
                }
                Entry::Checkpoint => {
                    // Everything before a checkpoint is already in the data
                    // file; discard it from replay.
                    batches.clear();
                    open_tx = None;
                    valid_end = at;
                }
            }
        }
        // valid_end stops at the last complete Commit/Checkpoint: an open
        // group at the tail is truncated away, matching its non-durability.
        (batches, valid_end, max_tx)
    }

    /// Append one framed record through the buffered writer. Production
    /// appends go through [`Wal::append_commit`]'s all-or-nothing group
    /// write; tests use this to hand-craft partial groups.
    #[cfg(test)]
    fn frame(&mut self, payload: &[u8]) -> Result<()> {
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        self.writer
            .write_all(&head)
            .and_then(|_| self.writer.write_all(payload))
            .map_err(|e| StorageError::io("append wal record", e))?;
        self.len += 8 + payload.len() as u64;
        Ok(())
    }

    /// Append one committed group, without fsync: the owner makes it
    /// durable ([`crate::FileStore`] shares one fsync per cohort).
    ///
    /// The whole group is assembled in memory and written with one
    /// `write_all`, and on a failed write (short write, ENOSPC) the file
    /// is truncated back to its pre-append length. The log tail stays
    /// clean, so the caller may re-issue the identical batch: this is what
    /// makes a failed prepare *retryable* (DESIGN.md §10). A failed fsync
    /// is not retryable; it fails the store (DESIGN.md §13).
    pub fn append_commit(&mut self, ops: &[WalOp]) -> Result<u64> {
        let tx = self.next_tx;
        self.next_tx += 1;
        let mut group = Vec::with_capacity(64);
        let mut payload = Vec::with_capacity(16);
        payload.push(TAG_BEGIN);
        payload.extend_from_slice(&tx.to_le_bytes());
        frame_into(&mut group, &payload);
        for op in ops {
            payload.clear();
            encode_op(op, &mut payload);
            frame_into(&mut group, &payload);
        }
        payload.clear();
        payload.push(TAG_COMMIT);
        payload.extend_from_slice(&tx.to_le_bytes());
        frame_into(&mut group, &payload);

        let start = self.len;
        let result = self
            .writer
            .flush()
            .and_then(|()| self.writer.get_mut().write_all(&group))
            .map_err(|e| StorageError::io("append wal group", e));
        if let Err(e) = result {
            // Best-effort rollback to the last complete group. If even
            // this fails, the torn tail is truncated at the next open.
            let file = self.writer.get_mut();
            let _ = file.set_len(start);
            let _ = file.seek(SeekFrom::Start(start));
            return Err(e);
        }
        self.len = start + group.len() as u64;
        self.appends += 1;
        Ok(tx)
    }

    /// Clone the underlying file handle so a group-commit leader can fsync
    /// from outside the lock protecting the `Wal` itself. Safe because
    /// `append_commit` writes through the raw fd (the `BufWriter` is
    /// flushed first), so every appended group is visible to the kernel —
    /// and hence covered by a `sync_data` on the clone — by the time
    /// `append_commit` returns.
    pub fn try_clone_file(&self) -> Result<std::fs::File> {
        self.writer
            .get_ref()
            .try_clone()
            .map_err(|e| StorageError::io("clone wal handle", e))
    }

    /// Commit groups appended since open.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Zero the append counter (benches measure deltas).
    pub fn reset_counters(&mut self) {
        self.appends = 0;
    }

    /// Truncate the log: the caller guarantees every earlier group is
    /// durably in the data file, and fsyncs the log file afterwards.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.writer
            .flush()
            .map_err(|e| StorageError::io("flush wal", e))?;
        let file = self.writer.get_mut();
        file.set_len(0)
            .map_err(|e| StorageError::io("truncate wal", e))?;
        file.seek(SeekFrom::Start(0))
            .map_err(|e| StorageError::io("rewind wal", e))?;
        self.len = 0;
        Ok(())
    }

    /// Bytes accumulated since the last checkpoint.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ode-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.wal"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn put(heap: u32, page: u32, slot: u16, data: &[u8]) -> WalOp {
        WalOp::Put {
            heap,
            rid: RecordId { page, slot },
            data: data.to_vec(),
        }
    }

    #[test]
    fn committed_batches_replay_in_order() {
        let path = temp_wal("order");
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert!(replay.is_empty());
            wal.append_commit(&[WalOp::EnsureHeap(1), put(1, 1, 0, b"first")])
                .unwrap();
            wal.append_commit(&[put(1, 1, 1, b"second")]).unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0][0], WalOp::EnsureHeap(1));
        assert_eq!(replay[0][1], put(1, 1, 0, b"first"));
        assert_eq!(replay[1][0], put(1, 1, 1, b"second"));
    }

    #[test]
    fn torn_tail_is_ignored_and_truncated() {
        let path = temp_wal("torn");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_commit(&[put(1, 1, 0, b"ok")]).unwrap();
        }
        // Simulate a crash mid-append: garbage tail.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF, 0x00, 0x12]).unwrap();
        }
        let (mut wal, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.len(), 1);
        // The log is usable again after truncation.
        wal.append_commit(&[put(1, 1, 1, b"post-crash")]).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.len(), 2);
    }

    #[test]
    fn uncommitted_group_is_not_replayed() {
        let path = temp_wal("uncommitted");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_commit(&[put(1, 1, 0, b"committed")]).unwrap();
            // Hand-write a Begin + op without a Commit.
            let mut payload = vec![TAG_BEGIN];
            payload.extend_from_slice(&99u64.to_le_bytes());
            wal.frame(&payload).unwrap();
            payload.clear();
            encode_op(&put(1, 1, 1, b"lost"), &mut payload);
            wal.frame(&payload).unwrap();
            wal.writer.flush().unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0][0], put(1, 1, 0, b"committed"));
    }

    #[test]
    fn checkpoint_clears_replay() {
        let path = temp_wal("checkpoint");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_commit(&[put(1, 1, 0, b"old")]).unwrap();
            wal.checkpoint().unwrap();
            wal.append_commit(&[put(1, 2, 0, b"new")]).unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0][0], put(1, 2, 0, b"new"));
    }

    #[test]
    fn corrupt_middle_record_stops_replay_at_last_good_commit() {
        let path = temp_wal("corrupt-mid");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_commit(&[put(1, 1, 0, b"good")]).unwrap();
            wal.append_commit(&[put(1, 1, 1, b"also good")]).unwrap();
        }
        // Flip one byte inside the second group's payload.
        {
            let mut raw = std::fs::read(&path).unwrap();
            let n = raw.len();
            raw[n - 5] ^= 0xAA;
            std::fs::write(&path, raw).unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.len(), 1);
    }

    #[test]
    fn all_op_kinds_roundtrip() {
        let path = temp_wal("kinds");
        let ops = vec![
            WalOp::EnsureHeap(7),
            put(7, 3, 9, b"payload bytes"),
            WalOp::Delete {
                heap: 7,
                rid: RecordId { page: 3, slot: 9 },
            },
            WalOp::DropHeap(7),
        ];
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_commit(&ops).unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay, vec![ops]);
    }

    #[test]
    fn tx_ids_continue_across_reopen() {
        let path = temp_wal("txids");
        let first = {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_commit(&[put(1, 1, 0, b"a")]).unwrap()
        };
        let second = {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_commit(&[put(1, 1, 1, b"b")]).unwrap()
        };
        assert!(second > first);
    }

    #[test]
    fn empty_commit_group_is_legal() {
        let path = temp_wal("empty-group");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append_commit(&[]).unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay, vec![vec![]]);
    }
}
