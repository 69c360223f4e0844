//! Targeted WAL-damage recovery tests (DESIGN.md §10): a torn tail, a
//! bit-flipped CRC, and trailing garbage must never panic or brick the
//! store — replay stops cleanly at the first damaged record, and every
//! group before the damage is recovered intact.

use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use ode_storage::filestore::{FileStore, FileStoreOptions};
use ode_storage::{RecordId, Store, StoreOp};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ode-wal-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> FileStore {
    FileStore::open_with(
        dir,
        FileStoreOptions {
            sync_commits: false,
            ..FileStoreOptions::default()
        },
    )
    .expect("open must survive WAL tail damage")
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.odb")).unwrap().len()
}

/// Build a store with two committed groups after the heap-creation group,
/// crash it (no close-path checkpoint), and report the WAL offsets where
/// group B starts and ends: `(heap, rid_a, rid_b, b_start, b_end)`.
fn two_commits_then_crash(dir: &Path) -> (u32, RecordId, RecordId, u64, u64) {
    let store = open(dir);
    let heap = store.create_heap().unwrap();
    let rid_a = store.reserve(heap, 16).unwrap();
    store
        .commit(vec![StoreOp::Put {
            heap,
            rid: rid_a,
            data: b"group A: survives any tail damage".to_vec(),
        }])
        .unwrap();
    let b_start = wal_len(dir);
    let rid_b = store.reserve(heap, 16).unwrap();
    store
        .commit(vec![StoreOp::Put {
            heap,
            rid: rid_b,
            data: b"group B: the damaged tail".to_vec(),
        }])
        .unwrap();
    let b_end = wal_len(dir);
    assert!(b_end > b_start, "commit B must have appended WAL bytes");
    std::mem::forget(store); // crash: Drop's checkpoint never flushes pages
    (heap, rid_a, rid_b, b_start, b_end)
}

#[test]
fn torn_tail_replays_up_to_the_tear() {
    let dir = temp_dir("torn-tail");
    let (heap, rid_a, rid_b, b_start, b_end) = two_commits_then_crash(&dir);
    // Tear group B in half: a crash mid-write of the final group.
    let f = OpenOptions::new()
        .write(true)
        .open(dir.join("wal.odb"))
        .unwrap();
    f.set_len(b_start + (b_end - b_start) / 2).unwrap();
    drop(f);

    let store = open(&dir);
    assert_eq!(
        store.stats().replayed_groups,
        2,
        "heap creation and group A replay; the torn group B must not"
    );
    assert_eq!(
        store.read(heap, rid_a).unwrap(),
        b"group A: survives any tail damage"
    );
    assert!(
        store.read(heap, rid_b).is_err(),
        "the torn group was never acknowledged as durable in this model"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_crc_stops_replay_cleanly() {
    let dir = temp_dir("crc-flip");
    let (heap, rid_a, rid_b, b_start, _) = two_commits_then_crash(&dir);
    // Flip one bit in group B's first CRC word ([len u32][crc u32][..]).
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("wal.odb"))
        .unwrap();
    f.seek(SeekFrom::Start(b_start + 4)).unwrap();
    let mut byte = [0u8; 1];
    f.read_exact(&mut byte).unwrap();
    f.seek(SeekFrom::Start(b_start + 4)).unwrap();
    f.write_all(&[byte[0] ^ 0x10]).unwrap();
    drop(f);

    let store = open(&dir);
    assert_eq!(store.stats().replayed_groups, 2);
    assert_eq!(
        store.read(heap, rid_a).unwrap(),
        b"group A: survives any tail damage"
    );
    assert!(store.read(heap, rid_b).is_err());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trailing_garbage_after_valid_groups_is_ignored() {
    let dir = temp_dir("trailing-garbage");
    let (heap, rid_a, rid_b, _, b_end) = two_commits_then_crash(&dir);
    let mut f = OpenOptions::new()
        .append(true)
        .open(dir.join("wal.odb"))
        .unwrap();
    f.write_all(&[0xC7; 33]).unwrap();
    drop(f);
    assert!(wal_len(&dir) > b_end);

    let store = open(&dir);
    assert_eq!(
        store.stats().replayed_groups,
        3,
        "every complete group before the garbage replays"
    );
    assert_eq!(
        store.read(heap, rid_a).unwrap(),
        b"group A: survives any tail damage"
    );
    assert_eq!(
        store.read(heap, rid_b).unwrap(),
        b"group B: the damaged tail"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_truncates_the_damaged_wal() {
    // After a recovery open, the checkpoint must clear the damaged WAL so
    // repeated crashes do not re-scan (or grow) a corrupt log.
    let dir = temp_dir("truncate-after");
    two_commits_then_crash(&dir);
    let mut f = OpenOptions::new()
        .append(true)
        .open(dir.join("wal.odb"))
        .unwrap();
    f.write_all(&[0xEE; 17]).unwrap();
    drop(f);

    let store = open(&dir);
    drop(store); // clean close checkpoints
    assert_eq!(wal_len(&dir), 0, "recovery + close must truncate the WAL");
    let store = open(&dir);
    assert_eq!(store.stats().replayed_groups, 0);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
