//! WAL group commit and the checkpoint/commit interaction (DESIGN.md
//! §13): one leader fsync covers a whole cohort of prepared commits;
//! checkpoints wait for prepared-but-unapplied groups instead of
//! truncating them away (the invariant that replaced the old
//! single-writer `txn_gate` skip); a failed group fsync stops the store
//! until a reopen replays the group whole; and a crash mid-group-commit
//! leaves every cohort member all-or-nothing on disk.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ode_storage::failpoint::{FailpointConfig, FailpointStore, FaultKind};
use ode_storage::filestore::{FileStore, FileStoreOptions};
use ode_storage::{RecordId, StorageError, Store, StoreOp};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ode-group-commit-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_sync(dir: &Path) -> FileStore {
    FileStore::open_with(
        dir,
        FileStoreOptions {
            sync_commits: true,
            ..FileStoreOptions::default()
        },
    )
    .unwrap()
}

fn put(heap: u32, rid: RecordId, data: &[u8]) -> StoreOp {
    StoreOp::Put {
        heap,
        rid,
        data: data.to_vec(),
    }
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.odb")).unwrap().len()
}

/// One fsync, issued by whichever committer leads, covers every group
/// appended before it. Deterministic version of the race: prepare three
/// groups, then confirm durability newest-first — the first
/// `commit_durable` becomes the leader and its single sync makes the
/// other two instant followers.
#[test]
fn leader_fsync_covers_the_whole_cohort() {
    let dir = temp_dir("cohort");
    let store = open_sync(&dir);
    let heap = store.create_heap().unwrap();
    store.reset_stats(); // ignore the heap-creation group's fsync

    let rids: Vec<RecordId> = (0..3).map(|_| store.reserve(heap, 16).unwrap()).collect();
    let tickets: Vec<_> = rids
        .iter()
        .enumerate()
        .map(|(i, &rid)| {
            store
                .commit_prepare(vec![put(heap, rid, format!("member {i}").as_bytes())])
                .unwrap()
        })
        .collect();

    // Newest first: the leader's fsync target is the highest appended
    // sequence, so the two older groups are already covered.
    for t in tickets.iter().rev() {
        store.commit_durable(t).unwrap();
    }
    for t in tickets {
        store.commit_apply(t).unwrap();
    }

    let stats = store.stats();
    assert_eq!(stats.commit_groups, 1, "one fsync for the whole cohort");
    assert_eq!(stats.commit_group_members, 3, "all three commits covered");
    assert_eq!(stats.wal_fsyncs, 1, "fsyncs-per-commit is 1/3 here");
    for (i, rid) in rids.iter().enumerate() {
        assert_eq!(
            store.read(heap, *rid).unwrap(),
            format!("member {i}").as_bytes()
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint barrier: while a prepared commit has not been applied,
/// its effects exist only in the WAL, so `checkpoint`
/// must wait rather than truncate. This is the invariant that replaced
/// the old single-writer gate's "no checkpoint while a txn holds the
/// gate" rule — see `Database::checkpoint`.
#[test]
fn checkpoint_waits_for_prepared_commits() {
    let dir = temp_dir("barrier");
    let store = Arc::new(open_sync(&dir));
    let heap = store.create_heap().unwrap();
    let rid = store.reserve(heap, 16).unwrap();
    let ticket = store
        .commit_prepare(vec![put(heap, rid, b"only in the WAL so far")])
        .unwrap();
    store.commit_durable(&ticket).unwrap();

    let finished = Arc::new(AtomicBool::new(false));
    let ckpt = {
        let store = Arc::clone(&store);
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            let r = store.checkpoint();
            finished.store(true, Ordering::Release);
            r
        })
    };
    // The checkpoint must still be parked behind the barrier.
    std::thread::sleep(std::time::Duration::from_millis(150));
    assert!(
        !finished.load(Ordering::Acquire),
        "checkpoint truncated the WAL under a prepared-but-unapplied commit"
    );
    assert!(wal_len(&dir) > 0, "the prepared group is still logged");

    store.commit_apply(ticket).unwrap();
    ckpt.join().unwrap().unwrap();
    assert!(finished.load(Ordering::Acquire));
    assert_eq!(wal_len(&dir), 0, "apply released the barrier");
    assert_eq!(store.read(heap, rid).unwrap(), b"only in the WAL so far");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A cohort whose fsync fails is in doubt, and the store stops: that
/// commit and every later write fail with `StorageError::Failed` until a
/// reopen, while reads keep working. The group sits in the WAL, so the
/// reopen replays it whole — the same contract as an ack-lost commit.
#[test]
fn failed_group_sync_stops_the_store_until_reopen() {
    let dir = temp_dir("group-sync-fault");
    let inner: Arc<dyn Store> = Arc::new(open_sync(&dir));
    let fp = FailpointStore::new(Arc::clone(&inner), FailpointConfig::disabled(1));
    let heap = fp.create_heap().unwrap();
    let acked = fp.reserve(heap, 16).unwrap();
    fp.commit(vec![put(heap, acked, b"acknowledged")]).unwrap();
    let rid = fp.reserve(heap, 16).unwrap();

    fp.force(FaultKind::GroupSync);
    let err = fp
        .commit(vec![put(heap, rid, b"never confirmed durable")])
        .unwrap_err();
    assert!(matches!(err, StorageError::Failed), "{err}");
    assert!(!err.is_transient(), "a failed store is not retried");
    assert_eq!(fp.take_last_fault(), Some(FaultKind::GroupSync));

    let refused = |r: ode_storage::Result<()>| matches!(r, Err(StorageError::Failed));
    let rid2 = fp.reserve(heap, 16).unwrap();
    assert!(refused(fp.commit(vec![put(heap, rid2, b"after")])));
    assert!(refused(fp.create_heap().map(drop)));
    assert!(refused(fp.drop_heap(heap)));
    assert!(refused(fp.checkpoint()));
    assert_eq!(fp.read(heap, acked).unwrap(), b"acknowledged");
    assert!(wal_len(&dir) > 0, "the failed group is still logged");
    // Crash: leak the wrapper, and with it the store, so nothing
    // checkpoints before the reopen.
    std::mem::forget(fp);
    drop(inner);

    let store = open_sync(&dir);
    assert_eq!(store.read(heap, acked).unwrap(), b"acknowledged");
    assert_eq!(
        store.read(heap, rid).unwrap(),
        b"never confirmed durable",
        "the logged group replays whole"
    );
    assert!(
        store.read(heap, rid2).is_err(),
        "the refused commit never logged"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash ("kill") in the middle of a group commit: three cohort members
/// are appended, none applied, and the process dies mid-write of the
/// last group. Recovery must replay each complete group atomically —
/// both records of a two-op member or neither — and drop the torn tail
/// group entirely. No half-applied member, ever.
#[test]
fn kill_during_group_commit_keeps_members_all_or_nothing() {
    let dir = temp_dir("kill-mid-group");
    let heap;
    let mut rids: Vec<(RecordId, RecordId)> = Vec::new();
    let mut offsets = Vec::new(); // WAL end offset after each member
    {
        let store = open_sync(&dir);
        heap = store.create_heap().unwrap();
        for i in 0..3 {
            let a = store.reserve(heap, 16).unwrap();
            let b = store.reserve(heap, 16).unwrap();
            let ticket = store
                .commit_prepare(vec![
                    put(heap, a, format!("m{i} first half").as_bytes()),
                    put(heap, b, format!("m{i} second half").as_bytes()),
                ])
                .unwrap();
            rids.push((a, b));
            offsets.push(wal_len(&dir));
            // Leak the ticket: the crash happens before durable/apply.
            std::mem::forget(ticket);
        }
        // Kill: no fsync confirmed, nothing applied, Drop never runs.
        std::mem::forget(store);
    }
    // The "kill" tears the last member's WAL group in half.
    let start2 = offsets[1];
    let end2 = offsets[2];
    let f = OpenOptions::new()
        .write(true)
        .open(dir.join("wal.odb"))
        .unwrap();
    f.set_len(start2 + (end2 - start2) / 2).unwrap();
    drop(f);

    let store = open_sync(&dir);
    assert_eq!(
        store.stats().replayed_groups,
        3,
        "heap creation + members 0 and 1; the torn member 2 must not replay"
    );
    for (i, (a, b)) in rids.iter().take(2).enumerate() {
        assert_eq!(
            store.read(heap, *a).unwrap(),
            format!("m{i} first half").as_bytes(),
            "member {i} replayed whole"
        );
        assert_eq!(
            store.read(heap, *b).unwrap(),
            format!("m{i} second half").as_bytes()
        );
    }
    let (a2, b2) = rids[2];
    assert!(store.read(heap, a2).is_err(), "torn member: no first half");
    assert!(store.read(heap, b2).is_err(), "torn member: no second half");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A leaked ticket (a committer that died between prepare and apply)
/// must degrade the checkpoint to a bounded
/// failure — WAL intact — never a hang or a silent truncation.
#[test]
fn leaked_ticket_fails_the_checkpoint_but_keeps_the_wal() {
    let dir = temp_dir("leaked-ticket");
    let store = open_sync(&dir);
    let heap = store.create_heap().unwrap();
    let rid = store.reserve(heap, 16).unwrap();
    let ticket = store
        .commit_prepare(vec![put(heap, rid, b"prepared, never finished")])
        .unwrap();
    std::mem::forget(ticket);

    let err = store.checkpoint().unwrap_err();
    assert!(
        err.to_string().contains("checkpoint barrier"),
        "unexpected error: {err}"
    );
    assert!(
        wal_len(&dir) > 0,
        "the WAL must survive the failed checkpoint"
    );
    assert!(store.stats().checkpoint_failures >= 1);
    // Leak the store too: its Drop would retry the checkpoint (another
    // bounded wait) before giving up.
    std::mem::forget(store);
    std::fs::remove_dir_all(&dir).ok();
}
