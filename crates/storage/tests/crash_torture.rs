//! Crash-torture harness: randomized commit/crash/reopen cycles against
//! a [`FileStore`] wrapped in a [`FailpointStore`] (DESIGN.md §10).
//!
//! Each cycle runs a batch workload under seed-driven fault injection,
//! "crashes" (leaks the store so the Drop-path checkpoint never runs),
//! optionally mutilates the WAL *tail* (strictly past the durable
//! prefix: appended garbage, a torn frame, a bad-CRC frame), reopens,
//! and checks the three recovery invariants:
//!
//! 1. every acknowledged commit is readable with its exact bytes,
//! 2. no unacknowledged write is visible (ack-lost batches are in doubt,
//!    but must land all-or-nothing; so must a batch whose group fsync
//!    failed, after which the store refuses every write and the cycle
//!    crashes, DESIGN.md §13),
//! 3. replay and a full scan never panic — a corrupt tail stops replay
//!    cleanly.
//!
//! The schedule is a pure function of the seed: a failure reproduces
//! with `ODE_TORTURE_SEED=<seed> ODE_TORTURE_CYCLES=<n>`.

use std::collections::{HashMap, HashSet};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ode_storage::filestore::{FileStore, FileStoreOptions};
use ode_storage::{
    FailpointConfig, FailpointStore, FaultKind, HeapId, RecordId, StorageError, Store, StoreOp,
};

/// SplitMix64 for the harness's own choices (op mix, payload sizes,
/// tail-mutilation mode). Independent of the failpoint schedule.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

type Key = (HeapId, RecordId);

/// One write of an in-doubt batch: the key, what it held before (None =
/// the key did not exist), and what the batch tried to write.
struct DoubtOp {
    key: Key,
    old: Option<Vec<u8>>,
    new: Vec<u8>,
}

/// What the harness believes the store contains.
#[derive(Default)]
struct Model {
    /// Acknowledged state: exactly the records a reopened store must show.
    acked: HashMap<Key, Vec<u8>>,
    /// Batches whose commit returned an error *after* the WAL append (ack
    /// loss, a failed group fsync). Each must resolve all-or-nothing at
    /// the next reopen.
    in_doubt: Vec<Vec<DoubtOp>>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn temp_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ode-crash-torture-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_store(dir: &Path, cycle_seed: u64) -> FailpointStore {
    let file = FileStore::open_with(
        dir,
        FileStoreOptions {
            pool_pages: 64, // small pool: evictions exercise page writeback
            sync_commits: false,
            ..FileStoreOptions::default()
        },
    )
    .expect("invariant 3 violated: reopen after crash failed");
    FailpointStore::new(
        Arc::new(file) as Arc<dyn Store>,
        FailpointConfig::torture(cycle_seed),
    )
}

/// Append damage to the WAL tail. Everything durable is already framed
/// and complete before this offset, so the damage models a torn write
/// of a *next* group that never happened — replay must stop cleanly.
fn mutilate_wal_tail(dir: &Path, rng: &mut Rng) {
    let path = dir.join("wal.odb");
    let mut f = OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("wal file exists after a crash");
    match rng.below(3) {
        0 => {
            // Raw garbage: not even a plausible length header.
            let n = 1 + rng.below(40) as usize;
            let junk: Vec<u8> = (0..n).map(|_| rng.next() as u8).collect();
            f.write_all(&junk).unwrap();
        }
        1 => {
            // Torn frame: a length header promising more bytes than exist.
            f.write_all(&200u32.to_le_bytes()).unwrap();
            f.write_all(&(rng.next() as u32).to_le_bytes()).unwrap();
            f.write_all(&[0xAB; 10]).unwrap();
        }
        _ => {
            // Complete frame with a CRC that cannot match its payload.
            let payload = [0x5C; 8];
            f.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
            f.write_all(&0xDEAD_BEEFu32.to_le_bytes()).unwrap();
            f.write_all(&payload).unwrap();
        }
    }
}

/// Resolve every in-doubt batch against the reopened store: each must be
/// fully present or fully absent. Folds landed batches into `acked`.
fn resolve_in_doubt(store: &FailpointStore, model: &mut Model) {
    for batch in std::mem::take(&mut model.in_doubt) {
        let first = &batch[0];
        let landed = match store.inner().read(first.key.0, first.key.1) {
            Ok(bytes) => {
                assert!(
                    bytes == first.new || Some(&bytes) == first.old.as_ref(),
                    "in-doubt key {:?} holds bytes from neither side",
                    first.key
                );
                bytes == first.new
            }
            Err(_) => {
                assert!(
                    first.old.is_none(),
                    "in-doubt overwrite of {:?} lost the old value too",
                    first.key
                );
                false
            }
        };
        for op in &batch {
            let got = store.inner().read(op.key.0, op.key.1).ok();
            let want = if landed {
                Some(&op.new)
            } else {
                op.old.as_ref()
            };
            assert_eq!(
                got.as_ref(),
                want,
                "in-doubt batch split: key {:?} disagrees with its batch \
                 (landed = {landed})",
                op.key
            );
        }
        if landed {
            for op in batch {
                model.acked.insert(op.key, op.new);
            }
        }
    }
}

/// Invariants 1 and 2: the reopened store holds exactly the acknowledged
/// records — nothing lost, nothing extra.
fn check_state(store: &FailpointStore, heaps: &[HeapId], model: &Model) {
    for (key, want) in &model.acked {
        let got = store
            .inner()
            .read(key.0, key.1)
            .unwrap_or_else(|e| panic!("invariant 1: acked {key:?} unreadable: {e}"));
        assert_eq!(&got, want, "invariant 1: acked {key:?} holds wrong bytes");
    }
    let mut seen: HashMap<Key, Vec<u8>> = HashMap::new();
    for &heap in heaps {
        store
            .inner()
            .scan(heap, &mut |rid, bytes| {
                seen.insert((heap, rid), bytes.to_vec());
                Ok(true)
            })
            .expect("invariant 3: post-recovery scan failed");
    }
    for (key, bytes) in &seen {
        assert_eq!(
            model.acked.get(key),
            Some(bytes),
            "invariant 2: unacknowledged write visible at {key:?}"
        );
    }
    assert_eq!(
        seen.len(),
        model.acked.len(),
        "store and model disagree on record count"
    );
}

/// Payloads carry their provenance so every value in the store is unique
/// and mismatches identify the cycle/op that wrote them.
fn payload(cycle: u64, op: u64, rng: &mut Rng) -> Vec<u8> {
    let mut v = format!("c{cycle}-o{op}-").into_bytes();
    let extra = rng.below(120) as usize;
    v.extend((0..extra).map(|_| rng.next() as u8));
    v
}

#[test]
fn randomized_crash_reopen_cycles_preserve_invariants() {
    let seed = env_u64("ODE_TORTURE_SEED", 0x0DE_0DE);
    let cycles = env_u64("ODE_TORTURE_CYCLES", 60);
    let dir = temp_dir(seed);
    let mut rng = Rng(seed);
    let mut model = Model::default();
    let mut total_faults = 0u64;
    let mut total_replayed = 0u64;
    let mut total_sync_failures = 0u64;

    // Cycle 0 creates the heaps; they persist in the meta page after that.
    let mut heaps: Vec<HeapId> = Vec::new();

    for cycle in 0..cycles {
        let store = open_store(&dir, seed ^ (cycle.wrapping_mul(0x9E37)));
        total_replayed += store.stats().replayed_groups;
        if heaps.is_empty() {
            for _ in 0..3 {
                heaps.push(store.create_heap().unwrap());
            }
        }
        resolve_in_doubt(&store, &mut model);
        check_state(&store, &heaps, &model);

        // ------------------------------------------------ workload
        // Keys touched by an ack-lost batch stay frozen for the rest of
        // the cycle so each in-doubt batch resolves independently.
        let mut frozen: HashSet<Key> = HashSet::new();
        let mut op_serial = 0u64;
        for _ in 0..20 {
            let batch_len = 1 + rng.below(3) as usize;
            let mut ops = Vec::with_capacity(batch_len);
            let mut doubt = Vec::with_capacity(batch_len);
            let mut batch_keys: HashSet<Key> = HashSet::new();
            for _ in 0..batch_len {
                let heap = heaps[rng.below(heaps.len() as u64) as usize];
                let overwrite = !model.acked.is_empty() && rng.below(3) == 0;
                let key = if overwrite {
                    let candidates: Vec<Key> = model
                        .acked
                        .keys()
                        .filter(|k| k.0 == heap && !frozen.contains(*k) && !batch_keys.contains(*k))
                        .copied()
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    candidates[rng.below(candidates.len() as u64) as usize]
                } else {
                    let rid = match store.reserve(heap, 64) {
                        Ok(rid) => rid,
                        Err(_) => continue,
                    };
                    (heap, rid)
                };
                batch_keys.insert(key);
                let new = payload(cycle, op_serial, &mut rng);
                op_serial += 1;
                doubt.push(DoubtOp {
                    key,
                    old: model.acked.get(&key).cloned(),
                    new: new.clone(),
                });
                ops.push(StoreOp::Put {
                    heap: key.0,
                    rid: key.1,
                    data: new,
                });
            }
            if ops.is_empty() {
                continue;
            }
            match store.commit(ops) {
                Ok(()) => {
                    for op in doubt {
                        model.acked.insert(op.key, op.new);
                    }
                }
                Err(_) => match store.take_last_fault() {
                    Some(FaultKind::CommitPre) => {
                        // Definitely not durable; the WAL tail was rolled
                        // back, so the model is simply unchanged.
                    }
                    Some(FaultKind::CommitAckLoss) => {
                        frozen.extend(doubt.iter().map(|d| d.key));
                        model.in_doubt.push(doubt);
                    }
                    Some(FaultKind::GroupSync) => {
                        // The store failed: the batch is in doubt exactly
                        // like an ack-lost one, every later write is
                        // refused, and the cycle crashes here.
                        model.in_doubt.push(doubt);
                        total_sync_failures += 1;
                        let next = store.commit(Vec::new());
                        assert!(
                            matches!(next, Err(StorageError::Failed)),
                            "a failed store took a commit: {next:?}"
                        );
                        break;
                    }
                    other => panic!("commit failed without a commit fault: {other:?}"),
                },
            }
            // Occasional side traffic: a leaked reservation (reclaimed on
            // reopen) and a checkpoint attempt that is allowed to fail.
            if rng.below(7) == 0 {
                let heap = heaps[rng.below(heaps.len() as u64) as usize];
                if let Ok(rid) = store.reserve(heap, 16) {
                    let _ = store.release(heap, rid);
                }
            }
            if rng.below(9) == 0 {
                let _ = store.checkpoint();
            }
        }

        // ------------------------------------------------ crash
        total_faults += store.faults_injected();
        std::mem::forget(store); // no Drop: the close-path checkpoint never runs
        if rng.below(2) == 0 {
            mutilate_wal_tail(&dir, &mut rng);
        }
    }

    // A clean final reopen-and-verify, then statistics the run must show.
    let store = open_store(&dir, 0);
    total_replayed += store.stats().replayed_groups;
    resolve_in_doubt(&store, &mut model);
    check_state(&store, &heaps, &model);
    assert!(
        total_faults > 0,
        "torture config never fired — the harness tested nothing"
    );
    assert!(
        total_replayed > 0,
        "no WAL group was ever replayed — crashes were not crashes"
    );
    assert!(
        total_sync_failures > 0,
        "no group fsync ever failed — the fail-stop path went untested"
    );
    println!(
        "crash-torture: {cycles} cycles, {} acked records, {total_faults} faults injected, \
         {total_sync_failures} group fsyncs failed, {total_replayed} groups replayed",
        model.acked.len()
    );
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
