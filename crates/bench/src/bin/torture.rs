//! Engine-level crash-torture workload (DESIGN.md §10).
//!
//! Drives the full engine — transactions, bounded commit retry, catalog
//! recovery — over a [`FailpointStore`]-wrapped [`FileStore`] through
//! randomized commit/crash/reopen cycles, checking after every reopen
//! that acknowledged objects are readable, that in-doubt transactions
//! (ack lost, or group fsync failed) landed all-or-nothing, and that
//! recovery itself never fails. A failed group fsync stops the store, so
//! the cycle checks that the next transaction is refused and crashes.
//!
//! ```text
//! cargo run --release -p ode-bench --bin torture -- \
//!     --cycles 50 --seed 3405705229 --txns 25
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ode_core::prelude::*;
use ode_storage::filestore::{FileStore, FileStoreOptions};
use ode_storage::{FailpointConfig, FailpointStore, FaultKind, Store};

struct Args {
    cycles: u64,
    seed: u64,
    txns: u64,
    dir: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cycles: 50,
        seed: 0xCAFE_F00D,
        txns: 25,
        dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--cycles" => args.cycles = value().parse().expect("--cycles takes a number"),
            "--seed" => args.seed = value().parse().expect("--seed takes a number"),
            "--txns" => args.txns = value().parse().expect("--txns takes a number"),
            "--dir" => args.dir = Some(PathBuf::from(value())),
            other => panic!("unknown flag {other} (see --cycles/--seed/--txns/--dir)"),
        }
    }
    args
}

fn open_db(dir: &Path, cfg: FailpointConfig) -> (Database, Arc<FailpointStore>) {
    let file = FileStore::open_with(
        dir,
        FileStoreOptions {
            sync_commits: false,
            ..FileStoreOptions::default()
        },
    )
    .expect("recovery invariant: reopen after crash must succeed");
    let fp = Arc::new(FailpointStore::new(Arc::new(file) as Arc<dyn Store>, cfg));
    let db = Database::from_store(
        Arc::clone(&fp) as Arc<dyn Store>,
        DbConfig {
            commit_retries: 2,
            ..DbConfig::default()
        },
    )
    .expect("recovery invariant: catalog replay must succeed");
    (db, fp)
}

fn main() {
    let args = parse_args();
    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ode-engine-torture-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Schema setup on a fault-free store, closed cleanly; every later
    // cycle recovers it from the persisted catalog.
    {
        let (db, _fp) = open_db(&dir, FailpointConfig::disabled(args.seed));
        db.define_from_source("class item { int n = 0; }").unwrap();
        db.create_cluster("item").unwrap();
    }

    let mut acked: Vec<(Oid, i64)> = Vec::new();
    let mut in_doubt: Vec<(Oid, i64)> = Vec::new();
    let mut serial = 0i64;
    let (mut faults, mut retries, mut replayed, mut aborted) = (0u64, 0u64, 0u64, 0u64);
    let mut sync_failures = 0u64;

    for cycle in 0..args.cycles {
        let (db, fp) = open_db(
            &dir,
            FailpointConfig::torture(args.seed ^ cycle.wrapping_mul(0x9E37_79B9)),
        );
        replayed += db.telemetry().storage.replayed_groups;

        // ---------------------------------------- verify after reopen
        let mut promoted: Vec<(Oid, i64)> = Vec::new();
        db.read(|tx| {
            for &(oid, n) in &acked {
                let got = tx.get(oid, "n")?.as_int()?;
                assert_eq!(got, n, "invariant 1: acked object {oid:?} lost or wrong");
            }
            for &(oid, n) in &in_doubt {
                if let Ok(v) = tx.get(oid, "n") {
                    let got = v.as_int()?;
                    assert_eq!(got, n, "in-doubt object {oid:?} holds wrong value");
                    promoted.push((oid, n));
                }
            }
            Ok(())
        })
        .expect("verification reads must not fail");
        acked.extend(promoted);
        in_doubt.clear();

        // ---------------------------------------- workload
        let mut sync_failed = false;
        for _ in 0..args.txns {
            serial += 1;
            let n = serial;
            let mut created: Option<Oid> = None;
            let outcome = db.transaction(|tx| {
                let oid = tx.pnew("item", &[("n", n.into())])?;
                created = Some(oid);
                Ok(oid)
            });
            match outcome {
                Ok(oid) => acked.push((oid, n)),
                Err(e) if e.is_unavailable() || e.is_store_failed() => {
                    aborted += 1;
                    match fp.take_last_fault() {
                        // No claim to check: `CommitPre` failed at
                        // prepare, before anything was logged.
                        Some(FaultKind::CommitPre) | Some(FaultKind::Release) | None => {}
                        // Ack loss fires after `commit_apply` fully applied
                        // the durable batch; a failed group fsync leaves
                        // the batch logged and the store stopped. Neither
                        // is retried: the next reopen must see the batch
                        // either fully present with our value or fully
                        // absent.
                        Some(kind @ (FaultKind::CommitAckLoss | FaultKind::GroupSync)) => {
                            let oid = created.expect("the commit fault follows pnew");
                            in_doubt.push((oid, n));
                            if kind == FaultKind::GroupSync {
                                sync_failed = true;
                                break;
                            }
                        }
                        Some(other) => panic!("unexpected fault class {other:?}"),
                    }
                }
                Err(e) => panic!("cycle {cycle}: non-transient abort: {e}"),
            }
        }
        if sync_failed {
            // The store failed: nothing commits until the reopen below.
            let err = db
                .transaction(|tx| tx.pnew("item", &[("n", 0.into())]))
                .expect_err("a failed store took a commit");
            assert!(err.is_store_failed(), "cycle {cycle}: {err}");
            sync_failures += 1;
        }

        let t = db.telemetry();
        faults += t.storage.faults_injected;
        retries += t.txn.commit_retries;
        std::mem::forget(db); // crash: no close-path checkpoint
    }

    // Final clean reopen: everything acknowledged must have survived.
    let (db, _fp) = open_db(&dir, FailpointConfig::disabled(args.seed));
    replayed += db.telemetry().storage.replayed_groups;
    db.read(|tx| {
        for &(oid, n) in &acked {
            assert_eq!(tx.get(oid, "n")?.as_int()?, n);
        }
        Ok(())
    })
    .unwrap();

    println!(
        "engine crash-torture: {} cycles, {} committed objects, {aborted} aborts",
        args.cycles,
        acked.len()
    );
    println!("faults injected     {faults}");
    println!("commit retries      {retries}");
    println!("groups replayed     {replayed}");
    println!("group fsyncs failed {sync_failures}");
    println!("--- final .stats rows ---");
    for (k, v) in db.telemetry().rows() {
        if ["storage.", "recovery.", "txn.", "commit."]
            .iter()
            .any(|p| k.starts_with(p))
        {
            println!("{k:<32} {v}");
        }
    }
    assert!(faults > 0, "torture run injected no faults");
    assert!(replayed > 0, "torture run never exercised recovery");
    if args.dir.is_none() {
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("ok: all invariants held");
}
