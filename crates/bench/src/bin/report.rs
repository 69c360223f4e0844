//! Regenerate the EXPERIMENTS.md measurement tables and check their
//! verdicts.
//!
//! The SIGMOD 1989 Ode paper has no quantitative evaluation section;
//! DESIGN.md defines a characterization suite in its place. This binary
//! is the one measurement of figures F1–F10 and ablation A1: it runs each
//! figure's workload with simple wall-clock timing (medians over several
//! trials), prints one markdown table per figure, and then asserts the
//! claim the figure's EXPERIMENTS.md verdict makes, so a verdict that
//! stops holding fails the run.
//!
//! Claims about work assert on `Database::telemetry()` deltas, which are
//! exact for a fixed build. Claims only a timing can show assert with at
//! least 2× headroom over the measured value: the same cell differs by
//! up to ~2× between runs on a small host.
//!
//! Run with: `cargo run -p ode-bench --release --bin report`

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use ode_bench::{median, workload};
use ode_core::prelude::*;
use ode_storage::filestore::FileStoreOptions;

/// Median wall time of `trials` runs of `f`, in microseconds.
fn time_us<T>(trials: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&mut samples)
}

/// `f`'s result and the engine work it did on `db`.
fn work<T>(db: &Database, f: impl FnOnce() -> T) -> (T, TelemetrySnapshot) {
    let before = db.telemetry();
    let out = f();
    (out, db.telemetry().delta(&before))
}

/// Assert one verdict claim, printed under the figure's table.
fn check(figure: &str, holds: bool, claim: String) {
    assert!(holds, "{figure} verdict no longer holds: {claim}");
    println!("- checked: {claim}");
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} µs")
    }
}

fn f1_cluster_scan() {
    println!("\n## F1 — cluster scan throughput (§3.1)\n");
    println!("| objects | scan time | objects/s |");
    println!("|---|---|---|");
    let mut ns_per_obj = Vec::new();
    for &n in &[1_000usize, 10_000, 50_000] {
        let (db, _) = workload::inventory_db(n, false);
        let us = time_us(5, || {
            db.transaction(|tx| tx.forall("stockitem")?.count())
                .unwrap()
        });
        println!("| {n} | {} | {:.0} |", fmt_us(us), n as f64 / (us / 1e6));
        ns_per_obj.push(us * 1e3 / n as f64);
    }
    let db = workload::university_db(5_000);
    let deep_scan = || db.transaction(|tx| tx.forall("person")?.count()).unwrap();
    let shallow_scan = || {
        db.transaction(|tx| tx.forall("person")?.shallow().count())
            .unwrap()
    };
    let deep = time_us(5, deep_scan);
    let shallow = time_us(5, shallow_scan);
    println!("| deep hierarchy (4×5k) | {} | — |", fmt_us(deep));
    println!("| shallow (1×5k) | {} | — |", fmt_us(shallow));
    println!("\ndeep/shallow time ratio: {:.1}×\n", deep / shallow);

    let deep_scanned = work(&db, deep_scan).1.query.objects_scanned;
    let shallow_scanned = work(&db, shallow_scan).1.query.objects_scanned;
    check(
        "F1",
        deep_scanned == 4 * shallow_scanned,
        format!(
            "deep scan scans 4 × the shallow scan's objects ({deep_scanned} vs {shallow_scanned})"
        ),
    );
    let growth = ns_per_obj[2] / ns_per_obj[0];
    check(
        "F1",
        growth < 3.0,
        format!("scan time per object at 50k is under 3× that at 1k (measured {growth:.2}×)"),
    );
}

fn f2_selection() {
    println!("\n## F2 — selection: full scan vs. index (§3.1)\n");
    const N: usize = 20_000;
    let (scan_db, _) = workload::inventory_db(N, false);
    let (ix_db, _) = workload::inventory_db(N, true);
    println!("| selectivity | full scan | index | speedup |");
    println!("|---|---|---|---|");
    let mut rows: Vec<(String, String)> = [1usize, 10, 100, 500]
        .iter()
        .map(|&pm| {
            let label = format!("{:.1}%", pm as f64 / 10.0);
            (label, format!("quantity < {}", N * pm / 1000))
        })
        .collect();
    // A two-sided range in the middle of the key space: the probe reads
    // only its 1% slice, not everything above the lower bound.
    let (lo, hi) = (N / 2, N / 2 + N / 100);
    rows.push((
        "1.0% two-sided".into(),
        format!("quantity >= {lo} && quantity < {hi}"),
    ));
    // (matching objects, index probes, objects scanned) of the index arm.
    let mut probes = Vec::new();
    let mut speedups = Vec::new();
    for (label, pred) in &rows {
        let select = |db: &Database| {
            db.transaction(|tx| tx.forall("stockitem")?.suchthat(pred)?.count())
                .unwrap()
        };
        let s = time_us(5, || select(&scan_db));
        let i = time_us(5, || select(&ix_db));
        println!(
            "| {label} | {} | {} | {:.1}× |",
            fmt_us(s),
            fmt_us(i),
            s / i
        );
        let (matching, w) = work(&ix_db, || select(&ix_db));
        probes.push((
            matching as u64,
            w.query.index_probes,
            w.query.objects_scanned,
        ));
        speedups.push(s / i);
    }
    println!();
    let scanned: Vec<String> = probes.iter().map(|(m, _, s)| format!("{s}/{m}")).collect();
    check(
        "F2",
        probes.iter().all(|&(m, p, s)| p > 0 && s == m),
        format!(
            "in every row the index arm probes and scans only the matching objects \
             (scanned/matching: {})",
            scanned.join(", ")
        ),
    );
    check(
        "F2",
        speedups[0] > 50.0,
        format!(
            "the index is over 50× faster at 0.1% (measured {:.0}×)",
            speedups[0]
        ),
    );
}

fn f3_join() {
    println!("\n## F3 — join strategies (§3.1)\n");
    println!("| workload | pointer navigation | nested-loop join | hash join |");
    println!("|---|---|---|---|");
    let mut joins = Vec::new();
    for &(n_emp, n_dept) in &[(1_000usize, 20usize), (4_000, 80)] {
        let db = workload::company_db(n_emp, n_dept, false);
        let nav = time_us(3, || {
            db.transaction(|tx| {
                let mut m = 0;
                tx.forall("employee")?.run(|tx, e| {
                    let d = tx.get(e, "dept")?.as_ref_oid()?;
                    let _ = tx.get(d, "dname")?;
                    m += 1;
                    Ok(())
                })?;
                Ok(m)
            })
            .unwrap()
        });
        // The planner hash-builds `department` on `d.dno`; the join's
        // non-equi form has no key, so it stays a nested loop.
        let join = |db: &Database, pred: &str| {
            db.transaction(|tx| {
                Ok(tx
                    .forall_join(&[("e", "employee"), ("d", "department")])?
                    .suchthat(pred)?
                    .collect()?
                    .len())
            })
            .unwrap()
        };
        let (equi, non_equi) = (
            "e.deptno == d.dno",
            "e.deptno <= d.dno && e.deptno >= d.dno",
        );
        let nested = time_us(3, || join(&db, non_equi));
        let hashed = time_us(3, || join(&db, equi));
        println!(
            "| {n_emp}⋈{n_dept} | {} | {} | {} |",
            fmt_us(nav),
            fmt_us(nested),
            fmt_us(hashed)
        );
        let (matched, hash) = work(&db, || join(&db, equi));
        joins.push((
            n_emp,
            n_dept,
            work(&db, || join(&db, non_equi)).1.query,
            (matched as u64, hash.query),
        ));
    }
    println!();
    for (n_emp, n_dept, nested, (matched, hash)) in joins {
        check(
            "F3",
            nested.index_probes == 0 && nested.predicate_evals == (n_emp * n_dept) as u64,
            format!(
                "{n_emp}⋈{n_dept}: the nested-loop join probes no index and tests all {} pairs",
                n_emp * n_dept
            ),
        );
        check(
            "F3",
            hash.objects_scanned == (n_emp + n_dept) as u64 && hash.predicate_evals == matched,
            format!(
                "{n_emp}⋈{n_dept}: the hash join reads each object once ({} scanned) and \
                 tests only the {matched} matching pairs",
                hash.objects_scanned
            ),
        );
    }
}

/// The F4 cluster fixpoint: the closure of `root`, grown in the `reached`
/// cluster it iterates, testing membership per child with an unindexed
/// `part == c` count. Returns the parts visited.
fn cluster_fixpoint(db: &Database, root: &str) -> usize {
    let mut tx = db.begin();
    tx.pnew("reached", &[("part", Value::from(root))]).unwrap();
    let seen = tx
        .forall("reached")
        .unwrap()
        .fixpoint()
        .run(|tx, row| {
            let part = tx.get(row, "part")?.as_str()?.to_string();
            let children = tx
                .forall("usage")?
                .suchthat(&format!("parent == \"{part}\""))?
                .collect_values("child")?;
            for child in children {
                let c = child.as_str()?.to_string();
                if tx
                    .forall("reached")?
                    .suchthat(&format!("part == \"{c}\""))?
                    .count()?
                    == 0
                {
                    tx.pnew("reached", &[("part", child)])?;
                }
            }
            Ok(())
        })
        .unwrap();
    tx.abort();
    seen
}

fn f4_fixpoint() {
    println!("\n## F4 — fixpoint query evaluation (§3.2)\n");
    println!(
        "| BOM (depth×fanout) | ode cluster fixpoint | scanned / part | ode set fixpoint | semi-naive | naive |"
    );
    println!("|---|---|---|---|---|---|");
    let mut deepest_gap = 0.0;
    let mut scanned_per_part = Vec::new();
    for &(depth, fanout) in &[(8usize, 8usize), (32, 8), (64, 16)] {
        let (db, root, parts) = workload::bom_db(depth, fanout);
        let edges = workload::bom_edges(&db);
        let cluster = time_us(3, || assert_eq!(cluster_fixpoint(&db, &root), parts));
        let (_, w) = work(&db, || cluster_fixpoint(&db, &root));
        let per_part = w.query.objects_scanned as f64 / parts as f64;
        scanned_per_part.push((parts, per_part));
        let set = time_us(3, || {
            let mut tx = db.begin();
            let wl = tx.pnew("worklist", &[]).unwrap();
            tx.set_insert(wl, "parts", root.as_str()).unwrap();
            let n = tx
                .iterate_set(wl, "parts", |tx, v| {
                    let part = v.as_str()?.to_string();
                    let children = tx
                        .forall("usage")?
                        .suchthat(&format!("parent == \"{part}\""))?
                        .collect_values("child")?;
                    for c in children {
                        tx.set_insert(wl, "parts", c)?;
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(n, parts);
            tx.abort();
        });
        let semi = time_us(5, || {
            let mut closure: BTreeSet<&str> = BTreeSet::new();
            let mut delta: BTreeSet<&str> = [root.as_str()].into();
            while !delta.is_empty() {
                closure.extend(delta.iter().copied());
                let mut next = BTreeSet::new();
                for (p, c) in &edges {
                    if delta.contains(p.as_str()) && !closure.contains(c.as_str()) {
                        next.insert(c.as_str());
                    }
                }
                delta = next;
            }
            assert_eq!(closure.len(), parts);
        });
        let naive = time_us(5, || {
            let mut closure: BTreeSet<&str> = [root.as_str()].into();
            loop {
                let mut next: BTreeSet<&str> = [root.as_str()].into();
                for (p, c) in &edges {
                    if closure.contains(p.as_str()) {
                        next.insert(c.as_str());
                    }
                }
                if next == closure {
                    break;
                }
                closure = next;
            }
            assert_eq!(closure.len(), parts);
        });
        println!(
            "| {depth}×{fanout} ({parts} parts) | {} | {per_part:.1} | {} | {} | {} |",
            fmt_us(cluster),
            fmt_us(set),
            fmt_us(semi),
            fmt_us(naive)
        );
        deepest_gap = naive / semi;
    }
    println!();
    check(
        "F4",
        deepest_gap > 2.0,
        format!("at 64×16 naive takes over 2× semi-naive (measured {deepest_gap:.1}×)"),
    );
    let (small, large) = (scanned_per_part[0], scanned_per_part[2]);
    check(
        "F4",
        large.1 <= 1.5 * small.1,
        format!(
            "the cluster fixpoint scans {:.1} objects per visited part at {} parts and {:.1} \
             at {} parts: per-part work stays within 1.5× as the closure grows",
            small.1, small.0, large.1, large.0
        ),
    );
}

fn f5_versions() {
    println!("\n## F5 — version operations vs. chain depth (§4)\n");
    println!("| chain depth | generic deref | specific deref | newversion | list versions |");
    println!("|---|---|---|---|---|");
    let deref = |db: &Database, oid: Oid| {
        db.transaction(|tx| Ok(tx.read(oid)?.fields[1].clone()))
            .unwrap()
    };
    // Record reads per generic deref, by chain depth (0 = never versioned).
    let mut reads = Vec::new();
    {
        // Ablation row: a never-versioned object stores its state inline in
        // the anchor — one record read, no version table.
        let (db, oid) = workload::versioned_db(0);
        let inline = time_us(7, || deref(&db, oid));
        println!("| unversioned (inline) | {} | — | — | — |", fmt_us(inline));
        reads.push((0, work(&db, || deref(&db, oid)).1.storage.record_reads));
    }
    for &chain in &[1usize, 16, 128, 512] {
        let (db, oid) = workload::versioned_db(chain);
        let generic = time_us(7, || deref(&db, oid));
        let mid = VersionRef {
            oid,
            version: (chain / 2) as u32,
        };
        let specific = time_us(7, || {
            db.transaction(|tx| Ok(tx.read_version(mid)?.fields[1].clone()))
                .unwrap()
        });
        let newv = time_us(7, || {
            let mut tx = db.begin();
            tx.newversion(oid).unwrap();
            tx.abort();
        });
        let list = time_us(7, || db.transaction(|tx| tx.versions(oid)).unwrap());
        println!(
            "| {chain} | {} | {} | {} | {} |",
            fmt_us(generic),
            fmt_us(specific),
            fmt_us(newv),
            fmt_us(list)
        );
        reads.push((chain, work(&db, || deref(&db, oid)).1.storage.record_reads));
    }
    println!();
    let at = |depth: usize| reads.iter().find(|r| r.0 == depth).unwrap().1;
    check(
        "F5",
        at(1) == at(512),
        format!(
            "a generic deref reads {} record(s) at depth 1 and {} at depth 512",
            at(1),
            at(512)
        ),
    );
    check(
        "F5",
        at(1) == at(0) + 1,
        format!(
            "the first newversion costs one extra record read per deref ({} unversioned)",
            at(0)
        ),
    );
}

fn f6_constraints() {
    println!("\n## F6 — constraint-checking overhead (§5)\n");
    println!("| constraints on class | update+commit |");
    println!("|---|---|");
    for &n in &[0usize, 1, 2, 4, 8] {
        let (db, oid) = workload::constrained_db(n);
        let mut v = 0i64;
        let us = time_us(7, || {
            v += 1;
            db.transaction(|tx| tx.set(oid, "quantity", v % 1000))
                .unwrap();
        });
        println!("| {n} | {} |", fmt_us(us));
    }
}

fn f7_triggers() {
    println!("\n## F7 — trigger evaluation scaling (§6)\n");
    println!("| activations | where | update+commit | condition evals/commit |");
    println!("|---|---|---|---|");
    const HOT: [usize; 4] = [0, 10, 100, 1_000];
    const COLD: [usize; 3] = [0, 1_000, 10_000];
    // (activations, where, hot, cold). The cold rows keep one activation
    // on the written object, so each of their commits must evaluate
    // exactly one condition however many cold ones exist.
    let rows = HOT
        .map(|n| (n, "on the written object", n, 0))
        .into_iter()
        .chain(COLD.map(|n| (n, "on other objects", 1, n)));
    let mut evals = Vec::new();
    for (n, place, hot, cold) in rows {
        let (db, oid) = workload::triggered_db(hot, cold);
        let mut v = 0i64;
        let (us, w) = work(&db, || {
            time_us(7, || {
                v += 1;
                db.transaction(|tx| tx.set(oid, "quantity", 1_000 + v % 100))
                    .unwrap();
            })
        });
        let per_commit = w.triggers.condition_evals as f64 / w.txn.committed as f64;
        println!("| {n} | {place} | {} | {per_commit} |", fmt_us(us));
        evals.push(per_commit);
    }
    println!();
    let (hot_evals, cold_evals) = evals.split_at(HOT.len());
    check(
        "F7",
        hot_evals == HOT.map(|n| n as f64),
        format!("condition evals per commit equal the hot activations: {hot_evals:?}"),
    );
    check(
        "F7",
        cold_evals == [1.0; COLD.len()],
        format!("with {COLD:?} cold activations a commit evaluates {cold_evals:?}"),
    );
}

fn f8_commit() {
    println!("\n## F8 — durable commit / WAL throughput (substrate)\n");
    println!("| objects per txn | fsync | nosync | fsync objs/s |");
    println!("|---|---|---|---|");
    // WAL fsyncs per commit, fsync arm then nosync arm, by batch size.
    let mut fsyncs = [Vec::new(), Vec::new()];
    for &batch in &[1usize, 10, 100, 1000] {
        let mut times = [0f64; 2];
        for (i, sync) in [true, false].into_iter().enumerate() {
            let dir = workload::temp_dir(&format!("report-f8-{batch}-{sync}"));
            let db = Database::open_with(
                &dir,
                FileStoreOptions {
                    sync_commits: sync,
                    ..FileStoreOptions::default()
                },
                DbConfig::default(),
            )
            .unwrap();
            workload::define_inventory(&db);
            let mut serial = 0usize;
            let (us, w) = work(&db, || {
                time_us(5, || {
                    db.transaction(|tx| {
                        for _ in 0..batch {
                            serial += 1;
                            tx.pnew("stockitem", &[("name", Value::from(format!("i{serial}")))])?;
                        }
                        Ok(())
                    })
                    .unwrap();
                })
            });
            times[i] = us;
            fsyncs[i].push(w.storage.wal_fsyncs as f64 / w.storage.commits as f64);
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
        println!(
            "| {batch} | {} | {} | {:.0} |",
            fmt_us(times[0]),
            fmt_us(times[1]),
            batch as f64 / (times[0] / 1e6)
        );
    }
    println!();
    let [sync, nosync] = &fsyncs;
    check(
        "F8",
        sync.iter().all(|&f| f == 1.0) && nosync.iter().all(|&f| f == 0.0),
        format!("WAL fsyncs per commit are {sync:?} with fsync and {nosync:?} without"),
    );
}

fn f9_bufpool() {
    println!("\n## F9 — buffer pool (substrate)\n");
    println!("| pool | scan time | hit rate | evictions/scan |");
    println!("|---|---|---|---|");
    const N: usize = 20_000;
    const SCANS: usize = 5;
    let mut pools = Vec::new();
    for &(tag, pool) in &[("4096 pages (fits)", 4096usize), ("16 pages (thrash)", 16)] {
        let dir = workload::temp_dir(&format!("report-f9-{pool}"));
        let db = Database::open_with(
            &dir,
            FileStoreOptions {
                pool_pages: pool,
                sync_commits: false,
                ..FileStoreOptions::default()
            },
            DbConfig::default(),
        )
        .unwrap();
        workload::define_inventory(&db);
        workload::fill_inventory(&db, N);
        db.checkpoint().unwrap();
        // Warm pass, then measure.
        db.transaction(|tx| tx.forall("stockitem")?.count())
            .unwrap();
        let (us, w) = work(&db, || {
            time_us(SCANS, || {
                db.transaction(|tx| tx.forall("stockitem")?.count())
                    .unwrap()
            })
        });
        let s = w.storage;
        let hit_rate = 100.0 * s.pager_hits as f64 / (s.pager_hits + s.pager_misses).max(1) as f64;
        println!(
            "| {tag} | {} | {hit_rate:.1}% | {:.0} |",
            fmt_us(us),
            s.pager_evictions as f64 / SCANS as f64,
        );
        pools.push((tag, hit_rate, s.pager_evictions));
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!();
    let (fits, fits_rate, _) = pools[0];
    check(
        "F9",
        fits_rate == 100.0,
        format!("{fits}: every page request hits the pool ({fits_rate:.1}%)"),
    );
    let (thrash, _, evictions) = pools[1];
    check(
        "F9",
        evictions > 0,
        format!("{thrash}: scans evict ({evictions} evictions)"),
    );
}

fn f10_sets() {
    println!("\n## F10 — sets and insert-during-iteration (§2.6, §3.2)\n");
    println!("| final size | grow during iteration | plain walk |");
    println!("|---|---|---|");
    for &n in &[200usize, 600] {
        let db = Database::in_memory();
        db.define_class(ClassBuilder::new("holder").field_default(
            "nums",
            Type::Set(Box::new(Type::Int)),
            Value::Set(SetValue::new()),
        ))
        .unwrap();
        db.create_cluster("holder").unwrap();
        let oid = db.transaction(|tx| tx.pnew("holder", &[])).unwrap();
        let grow = time_us(3, || {
            let mut tx = db.begin();
            tx.set_insert(oid, "nums", 0i64).unwrap();
            let v = tx
                .iterate_set(oid, "nums", |tx, v| {
                    let k = v.as_int()?;
                    if (k as usize) < n - 1 {
                        tx.set_insert(oid, "nums", k + 1)?;
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(v, n);
            tx.abort();
        });
        db.transaction(|tx| {
            for i in 0..n as i64 {
                tx.set_insert(oid, "nums", i)?;
            }
            Ok(())
        })
        .unwrap();
        let walk = time_us(3, || {
            let mut tx = db.begin();
            let v = tx.iterate_set(oid, "nums", |_t, _v| Ok(())).unwrap();
            assert_eq!(v, n);
            tx.abort();
        });
        println!("| {n} | {} | {} |", fmt_us(grow), fmt_us(walk));
    }

    // Value-level membership, the probe every insert pays to deduplicate.
    const LOOKUPS: usize = 1_000;
    println!("\n| set size | contains (hit) | contains (miss) |");
    println!("|---|---|---|");
    let mut miss_ns = Vec::new();
    for &n in &[100i64, 1_000, 5_000] {
        let set: SetValue = (0..n).map(Value::Int).collect();
        let lookup_ns = |probe: Value| {
            time_us(5, || {
                for _ in 0..LOOKUPS {
                    black_box(set.contains(black_box(&probe)));
                }
            }) * 1e3
                / LOOKUPS as f64
        };
        let hit = lookup_ns(Value::Int(n / 2));
        let miss = lookup_ns(Value::Int(-1));
        println!("| {n} | {hit:.0} ns | {miss:.0} ns |");
        miss_ns.push(miss);
    }
    println!();
    let growth = miss_ns[2] / miss_ns[0];
    check(
        "F10",
        growth > 10.0,
        format!(
            "membership is a linear probe: a miss at 5000 elements costs over 10× one at 100 (measured {growth:.0}×)"
        ),
    );
}

fn a1_predicate() {
    println!("\n## A1 — predicate evaluation ablation\n");
    const N: usize = 20_000;
    let (db, _) = workload::inventory_db(N, false);
    let (ix_db, _) = workload::inventory_db(N, true);
    let cut = (N / 10) as i64;
    let pred = format!("quantity < {cut}");
    let interpreted = |db: &Database| {
        db.transaction(|tx| tx.forall("stockitem")?.suchthat(&pred)?.count())
            .unwrap()
    };
    let interp = time_us(5, || interpreted(&db));
    let native = time_us(5, || {
        db.transaction(|tx| {
            tx.forall("stockitem")?
                .filter(|s| matches!(s.fields[1], Value::Int(q) if q < cut))
                .count()
        })
        .unwrap()
    });
    let indexed = time_us(5, || interpreted(&ix_db));
    println!("| strategy | time | vs native |");
    println!("|---|---|---|");
    // The bound `suchthat` decodes the one slot it reads; the closure sees
    // the whole state, so its scan decodes every slot.
    println!(
        "| bound suchthat (decodes 1 slot) | {} | {:.2}x |",
        fmt_us(interp),
        interp / native
    );
    println!(
        "| native closure (full decode) | {} | 1.0x |",
        fmt_us(native)
    );
    println!(
        "| index + recheck | {} | {:.2}x |",
        fmt_us(indexed),
        indexed / native
    );
    println!();
    let (matching, scan) = work(&db, || interpreted(&db));
    let (_, probe) = work(&ix_db, || interpreted(&ix_db));
    check(
        "A1",
        scan.query.objects_scanned == N as u64 && probe.query.objects_scanned == matching as u64,
        format!("the scans read all {N} objects, the index arm only the {matching} matching ones"),
    );
    check(
        "A1",
        indexed < native,
        format!(
            "index + recheck beats the native closure scan (measured {:.2}×)",
            indexed / native
        ),
    );
}

fn t1_telemetry() {
    println!("\n## T1 — engine telemetry by workload phase\n");
    println!("`Database::telemetry()` JSON snapshots, counters reset between phases.");
    let dir = workload::temp_dir("report-t1");
    let db = Database::open_with(
        &dir,
        FileStoreOptions {
            sync_commits: false,
            ..FileStoreOptions::default()
        },
        DbConfig::default(),
    )
    .unwrap();
    workload::define_inventory(&db);
    db.create_index("stockitem", "quantity").unwrap();
    db.define_class(
        ClassBuilder::new("watched")
            .field_default("quantity", Type::Int, 100)
            .field_default("on_order", Type::Int, 0)
            .trigger("reorder", &[], false, "quantity < 10")
            .action_assign("on_order", "on_order + 1"),
    )
    .unwrap();
    db.create_cluster("watched").unwrap();

    // Phase 1: bulk load.
    db.reset_telemetry();
    workload::fill_inventory(&db, 5_000);
    let watched = db.transaction(|tx| tx.pnew("watched", &[])).unwrap();
    println!("\n### load\n\n```json\n{}\n```", db.telemetry().to_json());

    // Phase 2: queries — one indexed probe, one deep scan, one fixpoint-free
    // aggregate, so the query section shows both plan families.
    db.reset_telemetry();
    db.transaction(|tx| {
        tx.forall("stockitem")?
            .suchthat("quantity == 42")?
            .count()?;
        tx.forall("stockitem")?
            .suchthat("supplier == \"acme\"")?
            .count()?;
        tx.forall("stockitem")?.count()
    })
    .unwrap();
    println!(
        "\n### queries\n\n```json\n{}\n```",
        db.telemetry().to_json()
    );

    // Phase 3: triggers — activate, trip, and let the once-only trigger fire
    // in its weak-coupled transaction.
    db.reset_telemetry();
    db.transaction(|tx| {
        tx.activate_trigger(watched, "reorder", vec![])?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| tx.set(watched, "quantity", 5i64))
        .unwrap();
    println!(
        "\n### triggers\n\n```json\n{}\n```",
        db.telemetry().to_json()
    );

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    println!("# Ode characterization report");
    println!("\nGenerated by `cargo run -p ode-bench --release --bin report`.");
    println!("Medians of several trials; each `checked:` line is an assertion.");
    f1_cluster_scan();
    f2_selection();
    f3_join();
    f4_fixpoint();
    f5_versions();
    f6_constraints();
    f7_triggers();
    f8_commit();
    f9_bufpool();
    f10_sets();
    a1_predicate();
    t1_telemetry();
    println!("\ndone.");
}
