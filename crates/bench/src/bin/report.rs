//! Regenerate the EXPERIMENTS.md measurement tables.
//!
//! The SIGMOD 1989 Ode paper has no quantitative evaluation section;
//! DESIGN.md defines a characterization suite (figures F1–F10) in its
//! place. This binary runs each figure's workload with simple wall-clock
//! timing (medians over several trials) and prints one markdown table per
//! figure. Criterion benches (`cargo bench`) cover the same figures with
//! statistical rigor; this report favors a compact, reproducible summary.
//!
//! Run with: `cargo run -p ode-bench --release --bin report`

use std::collections::BTreeSet;
use std::time::Instant;

use ode_bench::workload;
use ode_core::prelude::*;
use ode_storage::filestore::FileStoreOptions;

/// Median wall time of `trials` runs of `f`, in microseconds.
fn time_us(trials: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(trials);
    for _ in 0..trials {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
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
    for &n in &[1_000usize, 10_000, 50_000] {
        let (db, _) = workload::inventory_db(n, false);
        let us = time_us(5, || {
            db.transaction(|tx| tx.forall("stockitem")?.count())
                .unwrap();
        });
        println!("| {n} | {} | {:.0} |", fmt_us(us), n as f64 / (us / 1e6));
    }
    let db = workload::university_db(5_000);
    let deep = time_us(5, || {
        db.transaction(|tx| tx.forall("person")?.count()).unwrap();
    });
    let shallow = time_us(5, || {
        db.transaction(|tx| tx.forall("person")?.shallow().count())
            .unwrap();
    });
    println!("| deep hierarchy (4×5k) | {} | — |", fmt_us(deep));
    println!("| shallow (1×5k) | {} | — |", fmt_us(shallow));
    println!(
        "\ndeep/shallow ratio: {:.1}× (4 clusters vs 1, expected ≈4×)",
        deep / shallow
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
    for (label, pred) in rows {
        let s = time_us(5, || {
            scan_db
                .transaction(|tx| tx.forall("stockitem")?.suchthat(&pred)?.count())
                .unwrap();
        });
        let i = time_us(5, || {
            ix_db
                .transaction(|tx| tx.forall("stockitem")?.suchthat(&pred)?.count())
                .unwrap();
        });
        println!(
            "| {label} | {} | {} | {:.1}× |",
            fmt_us(s),
            fmt_us(i),
            s / i
        );
    }
}

fn f3_join() {
    println!("\n## F3 — join strategies (§3.1)\n");
    println!("| workload | pointer navigation | nested-loop join | indexed probe join |");
    println!("|---|---|---|---|");
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
            .unwrap();
        });
        let join = time_us(3, || {
            db.transaction(|tx| {
                Ok(tx
                    .forall_join(&[("e", "employee"), ("d", "department")])?
                    .suchthat("e.deptno == d.dno")?
                    .collect()?
                    .len())
            })
            .unwrap();
        });
        // Same declarative join, but with an index on department.dno the
        // planner probes automatically.
        let ix_db = workload::company_db(n_emp, n_dept, true);
        let probe = time_us(3, || {
            ix_db
                .transaction(|tx| {
                    Ok(tx
                        .forall_join(&[("e", "employee"), ("d", "department")])?
                        .suchthat("e.deptno == d.dno")?
                        .collect()?
                        .len())
                })
                .unwrap();
        });
        println!(
            "| {n_emp}⋈{n_dept} | {} | {} | {} |",
            fmt_us(nav),
            fmt_us(join),
            fmt_us(probe)
        );
    }
}

fn f4_fixpoint() {
    println!("\n## F4 — fixpoint query evaluation (§3.2)\n");
    println!(
        "| BOM (depth×fanout) | ode cluster fixpoint | ode set fixpoint | semi-naive | naive |"
    );
    println!("|---|---|---|---|---|");
    for &(depth, fanout) in &[(8usize, 8usize), (32, 8), (64, 16)] {
        let (db, root, parts) = workload::bom_db(depth, fanout);
        let edges = workload::bom_edges(&db);
        let cluster = time_us(3, || {
            let mut tx = db.begin();
            tx.pnew("reached", &[("part", Value::from(root.as_str()))])
                .unwrap();
            let mut seen = 0usize;
            tx.forall("reached")
                .unwrap()
                .fixpoint()
                .run(|tx, row| {
                    seen += 1;
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
            assert_eq!(seen, parts);
            tx.abort();
        });
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
            "| {depth}×{fanout} ({parts} parts) | {} | {} | {} | {} |",
            fmt_us(cluster),
            fmt_us(set),
            fmt_us(semi),
            fmt_us(naive)
        );
    }
}

fn f5_versions() {
    println!("\n## F5 — version operations vs. chain depth (§4)\n");
    println!("| chain depth | generic deref | specific deref | newversion | list versions |");
    println!("|---|---|---|---|---|");
    {
        // Ablation row: a never-versioned object stores its state inline in
        // the anchor — one record read, no version table.
        let (db, oid) = workload::versioned_db(0);
        let inline = time_us(7, || {
            db.transaction(|tx| Ok(tx.read(oid)?.fields[1].clone()))
                .unwrap();
        });
        println!("| unversioned (inline) | {} | — | — | — |", fmt_us(inline));
    }
    for &chain in &[1usize, 16, 128, 512] {
        let (db, oid) = workload::versioned_db(chain);
        let generic = time_us(7, || {
            db.transaction(|tx| Ok(tx.read(oid)?.fields[1].clone()))
                .unwrap();
        });
        let mid = VersionRef {
            oid,
            version: (chain / 2) as u32,
        };
        let specific = time_us(7, || {
            db.transaction(|tx| Ok(tx.read_version(mid)?.fields[1].clone()))
                .unwrap();
        });
        let newv = time_us(7, || {
            let mut tx = db.begin();
            tx.newversion(oid).unwrap();
            tx.abort();
        });
        let list = time_us(7, || {
            db.transaction(|tx| tx.versions(oid)).unwrap();
        });
        println!(
            "| {chain} | {} | {} | {} | {} |",
            fmt_us(generic),
            fmt_us(specific),
            fmt_us(newv),
            fmt_us(list)
        );
    }
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
    println!("| activations | where | update+commit |");
    println!("|---|---|---|");
    for &hot in &[0usize, 10, 100, 1_000] {
        let (db, oid) = workload::triggered_db(hot, 0);
        let mut v = 0i64;
        let us = time_us(7, || {
            v += 1;
            db.transaction(|tx| tx.set(oid, "quantity", 1_000 + v % 100))
                .unwrap();
        });
        println!("| {hot} | on the written object | {} |", fmt_us(us));
    }
    for &cold in &[1_000usize, 10_000] {
        let (db, oid) = workload::triggered_db(1, cold);
        let mut v = 0i64;
        let us = time_us(7, || {
            v += 1;
            db.transaction(|tx| tx.set(oid, "quantity", 1_000 + v % 100))
                .unwrap();
        });
        println!("| {cold} | on other objects | {} |", fmt_us(us));
    }
}

fn f8_commit() {
    println!("\n## F8 — durable commit / WAL throughput (substrate)\n");
    println!("| objects per txn | fsync | nosync | fsync objs/s |");
    println!("|---|---|---|---|");
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
            times[i] = time_us(5, || {
                db.transaction(|tx| {
                    for _ in 0..batch {
                        serial += 1;
                        tx.pnew("stockitem", &[("name", Value::from(format!("i{serial}")))])?;
                    }
                    Ok(())
                })
                .unwrap();
            });
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
}

fn f9_bufpool() {
    println!("\n## F9 — buffer pool (substrate)\n");
    println!("| pool | scan time | hit rate | evictions/scan |");
    println!("|---|---|---|---|");
    const N: usize = 20_000;
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
        db.reset_store_stats();
        let mut scans = 0u64;
        let us = time_us(5, || {
            scans += 1;
            db.transaction(|tx| tx.forall("stockitem")?.count())
                .unwrap();
        });
        let stats = db.store_stats();
        let total = stats.pager.hits + stats.pager.misses;
        println!(
            "| {tag} | {} | {:.1}% | {:.0} |",
            fmt_us(us),
            100.0 * stats.pager.hits as f64 / total.max(1) as f64,
            stats.pager.evictions as f64 / scans.max(1) as f64,
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
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
            Value::Set(ode_model::SetValue::new()),
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
}

fn a1_predicate() {
    println!("\n## A1 — predicate evaluation ablation\n");
    const N: usize = 20_000;
    let (db, _) = workload::inventory_db(N, false);
    let (ix_db, _) = workload::inventory_db(N, true);
    let cut = (N / 10) as i64;
    let pred = format!("quantity < {cut}");
    let interp = time_us(5, || {
        db.transaction(|tx| tx.forall("stockitem")?.suchthat(&pred)?.count())
            .unwrap();
    });
    let native = time_us(5, || {
        db.transaction(|tx| {
            tx.forall("stockitem")?
                .filter(|s| matches!(s.fields[1], ode_core::prelude::Value::Int(q) if q < cut))
                .count()
        })
        .unwrap();
    });
    let indexed = time_us(5, || {
        ix_db
            .transaction(|tx| tx.forall("stockitem")?.suchthat(&pred)?.count())
            .unwrap();
    });
    println!("| strategy | time | vs native |");
    println!("|---|---|---|");
    println!(
        "| interpreted suchthat | {} | {:.1}x |",
        fmt_us(interp),
        interp / native
    );
    println!("| native closure | {} | 1.0x |", fmt_us(native));
    println!(
        "| index + recheck | {} | {:.2}x |",
        fmt_us(indexed),
        indexed / native
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
    println!("Medians of several trials; see `cargo bench` for full statistics.");
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
