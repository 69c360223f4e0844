//! Allocation counts of the scan path: an extent scan decodes each object
//! once into a reused state, and loop variables read that state in hand,
//! so a scan allocates per statement and per row, not per object scanned —
//! except that a versioned object costs the store read of its current
//! version record.
//!
//! The disk path is pinned beside them: a `FileStore` page image lives in
//! one buffer, so a pool miss allocates only the frame's own page and a
//! checkpoint writes dirty frames back without copying them.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running in parallel do not see each other's. It counts page-sized
//! allocations apart as well.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ode_core::prelude::*;
use ode_storage::filestore::FileStoreOptions;
use ode_storage::page::PAGE_SIZE;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations of exactly one page.
    static PAGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // During thread teardown the counters may be gone; those allocations
    // belong to no measured section.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    if size == PAGE_SIZE {
        let _ = PAGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// a const-initialized thread-local `Cell` with no destructor, which does
// not allocate. `count` only reads the size it is given.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while `f` ran, and `f`'s result.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Page-sized allocations this thread made while `f` ran, and `f`'s
/// result.
fn page_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = PAGE_ALLOCS.with(Cell::get);
    let out = f();
    (PAGE_ALLOCS.with(Cell::get) - before, out)
}

/// Run `src` against a snapshot; the allocations it made, its row count
/// and the objects it scanned.
fn query(db: &Database, src: &str) -> (u64, usize, u64) {
    let mut rtx = db.begin_read();
    let scanned = db.telemetry().query.objects_scanned;
    let (n, rows) = allocs(|| rtx.query(src).unwrap());
    drop(rtx);
    let scanned = db.telemetry().query.objects_scanned - scanned;
    (n, rows.rows.len(), scanned)
}

#[test]
fn unindexed_scan_allocates_per_statement_not_per_object() {
    const ITEMS: i64 = 20_000;
    let db = Database::in_memory();
    db.define_from_source(
        "class stockitem { string name; int quantity = 0; float price = 1.0; string supplier; }",
    )
    .unwrap();
    db.create_cluster("stockitem").unwrap();
    db.transaction(|tx| {
        for i in 0..ITEMS {
            tx.pnew(
                "stockitem",
                &[
                    ("name", Value::from(format!("part-{i:07}"))),
                    ("quantity", Value::Int(i)),
                    ("price", Value::Float(0.5 + (i % 97) as f64)),
                    ("supplier", Value::from(format!("supplier-{}", i % 5))),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    for src in [
        r#"forall s in stockitem suchthat (name == "part-0012345")"#,
        r#"forall s in stockitem suchthat (s.name == "part-0012345")"#,
    ] {
        let (n, rows, scanned) = query(&db, src);
        assert_eq!((rows, scanned), (1, ITEMS as u64), "{src}");
        assert!(
            n * 100 < scanned,
            "{src}: {n} allocations for {scanned} objects scanned"
        );
    }
}

#[test]
fn hierarchy_scan_reads_the_object_in_hand() {
    const PER_CLASS: i64 = 2_500;
    let db = Database::in_memory();
    db.define_from_source(
        "class person { string name; int income = 0; }
         class student : person { int stipend = 0; }
         class faculty : person { int salary = 0; }
         class teaching_assistant : student, faculty { }",
    )
    .unwrap();
    const PEOPLE: [&str; 4] = ["person", "student", "faculty", "teaching_assistant"];
    for class in PEOPLE {
        db.create_cluster(class).unwrap();
    }
    db.transaction(|tx| {
        for i in 0..4 * PER_CLASS {
            tx.pnew(
                PEOPLE[i as usize % 4],
                &[
                    ("name", Value::from(format!("p-{i}"))),
                    ("income", Value::Int(i)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    // Students and teaching assistants with an income above 9 990.
    let (n, rows, scanned) = query(
        &db,
        "forall p in person suchthat (p is student && income > 9990)",
    );
    assert_eq!((rows, scanned), (5, 4 * PER_CLASS as u64));
    assert!(
        n * 100 < scanned,
        "{n} allocations for {scanned} objects scanned"
    );
}

/// 1 000 employees over 50 departments; employee `e` is in department
/// `e % 50` and earns `e`.
fn company() -> Database {
    const DEPARTMENTS: i64 = 50;
    let db = Database::in_memory();
    db.define_from_source(
        "class department { string dname; int dno; }
         class employee { string ename; int deptno; int salary = 0; }",
    )
    .unwrap();
    db.create_cluster("department").unwrap();
    db.create_cluster("employee").unwrap();
    db.transaction(|tx| {
        for d in 0..DEPARTMENTS {
            tx.pnew(
                "department",
                &[
                    ("dname", Value::from(format!("dept-{d}"))),
                    ("dno", Value::Int(d)),
                ],
            )?;
        }
        for e in 0..EMPLOYEES {
            tx.pnew(
                "employee",
                &[
                    ("ename", Value::from(format!("emp-{e}"))),
                    ("deptno", Value::Int(e % DEPARTMENTS)),
                    ("salary", Value::Int(e)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    db
}

const EMPLOYEES: i64 = 1_000;

#[test]
fn join_allocates_per_outer_binding_and_row_not_per_pair() {
    let db = company();
    let pairs = (EMPLOYEES * 50) as u64;
    // The non-equi form of `e.deptno == d.dno` has no key, and its
    // ordered comparisons may raise, so the salary test to their right is
    // not pushed below them: every pair is streamed.
    for (salary, expected_rows) in [(989, 10), (-1, EMPLOYEES as usize)] {
        let (n, rows, scanned) = query(
            &db,
            &format!(
                "forall e in employee, d in department \
                 suchthat (e.deptno <= d.dno && e.deptno >= d.dno && e.salary > {salary})"
            ),
        );
        assert_eq!(rows, expected_rows);
        assert_eq!(scanned, EMPLOYEES as u64 + pairs);
        let budget = 12 * (EMPLOYEES as u64 + rows as u64);
        assert!(
            n <= budget && n * 4 < pairs,
            "{n} allocations for {rows} rows of {pairs} pairs (budget {budget})"
        );
    }
}

#[test]
fn hash_join_allocates_less_than_once_per_outer_object() {
    let db = company();
    // The salary test filters the employee stream; the 50 departments are
    // hash-built once and probed by each of the 10 employees left.
    let (n, rows, scanned) = query(
        &db,
        "forall e in employee, d in department \
         suchthat (e.deptno == d.dno && e.salary > 989)",
    );
    assert_eq!((rows, scanned), (10, EMPLOYEES as u64 + 50));
    assert!(
        n < EMPLOYEES as u64,
        "{n} allocations for {EMPLOYEES} employees joined"
    );
}

#[test]
fn versioned_extent_allocates_only_the_version_record_read() {
    const ITEMS: i64 = 5_000;
    let db = Database::in_memory();
    db.define_from_source("class doc { string title; int rev = 0; string body; }")
        .unwrap();
    db.create_cluster("doc").unwrap();
    db.transaction(|tx| {
        for i in 0..ITEMS {
            let oid = tx.pnew(
                "doc",
                &[
                    ("title", Value::from(format!("doc-{i:06}"))),
                    ("body", Value::from(format!("text of document {i}"))),
                ],
            )?;
            // Two versions, the current one updated: the anchor's table
            // has more than one entry and the current is not the first.
            tx.newversion(oid)?;
            tx.set(oid, "rev", Value::Int(i))?;
        }
        Ok(())
    })
    .unwrap();
    for src in [
        r#"forall d in doc suchthat (title == "doc-001234")"#,
        "forall d in doc suchthat (d.rev == 1234)",
    ] {
        let (n, rows, scanned) = query(&db, src);
        assert_eq!((rows, scanned), (1, ITEMS as u64), "{src}");
        // One store read per object, and a per-statement remainder.
        assert!(
            n <= scanned + 100,
            "{src}: {n} allocations for {scanned} versioned objects scanned"
        );
    }
}

/// `usage(parent, child)` for `n` parents, one child each, indexed on
/// `parent` when `indexed`.
fn parts(n: i64, indexed: bool) -> Database {
    let db = Database::in_memory();
    db.define_from_source("class usage { int parent; int child; }")
        .unwrap();
    db.create_cluster("usage").unwrap();
    if indexed {
        db.create_index("usage", "parent").unwrap();
    }
    db.transaction(|tx| {
        for i in 0..n {
            tx.pnew(
                "usage",
                &[("parent", Value::Int(i)), ("child", Value::Int(i + n))],
            )?;
        }
        Ok(())
    })
    .unwrap();
    db
}

/// Allocations of a pass from after its `suchthat()`, once the write
/// transaction has run a statement of the same shape: a point statement
/// pays for what it reads, not for bookkeeping.
#[test]
fn a_point_pass_in_a_write_transaction_allocates_little() {
    let db = parts(1_000, true);
    let mut tx = db.begin();
    let warm = tx.forall("usage").unwrap().suchthat("parent == 7").unwrap();
    assert_eq!(warm.collect_values("child").unwrap(), [Value::Int(1_007)]);
    let q = tx
        .forall("usage")
        .unwrap()
        .suchthat("parent == 500")
        .unwrap();
    let (oids, found) = allocs(|| q.collect_oids().unwrap());
    assert_eq!(found.len(), 1);
    let q = tx
        .forall("usage")
        .unwrap()
        .suchthat("parent == 501")
        .unwrap();
    let (values, got) = allocs(|| q.collect_values("child").unwrap());
    assert_eq!(got, [Value::Int(1_501)]);
    assert!(oids <= 12, "{oids} allocations for a one-row probe");
    // The row is read once: projecting it costs only the projection's
    // own parse (its token list and identifier); binding it shares the
    // schema's slot table.
    assert!(
        values <= oids + 2,
        "{values} allocations projecting the row, {oids} selecting it"
    );
}

/// An unindexed equality over a write transaction's inserts reads the
/// key's bucket, not every insert.
#[test]
fn an_unindexed_point_count_reads_its_bucket() {
    let db = parts(0, false);
    let mut tx = db.begin();
    for i in 0..1_000 {
        tx.pnew("usage", &[("parent", Value::Int(i % 100))])
            .unwrap();
    }
    let count = |tx: &mut Transaction<'_>, key: i64| {
        let q = tx.forall("usage").unwrap();
        let q = q.suchthat(&format!("parent == {key}")).unwrap();
        let scanned = db.telemetry().query.objects_scanned;
        let (n, count) = allocs(|| q.count().unwrap());
        (n, count, db.telemetry().query.objects_scanned - scanned)
    };
    assert_eq!(count(&mut tx, 3).1, 10);
    let (n, rows, scanned) = count(&mut tx, 42);
    assert_eq!((rows, scanned), (10, 10));
    assert!(n <= 12, "{n} allocations counting a bucket of 10");
}

/// A `FileStore` whose 16-page pool (one frame per shard) is smaller than
/// its heap: point reads miss and evict, and a checkpoint finds dirty
/// frames. A miss allocates the frame's page and nothing else page-sized;
/// a checkpoint allocates no page.
#[test]
fn a_pool_miss_allocates_one_page_and_a_checkpoint_none() {
    const ITEMS: i64 = 5_000;
    let dir = std::env::temp_dir().join(format!("ode-scan-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open_with(
        &dir,
        FileStoreOptions {
            pool_pages: 16,
            sync_commits: false,
            ..FileStoreOptions::default()
        },
        DbConfig::default(),
    )
    .unwrap();
    db.define_from_source("class stockitem { string name; int quantity = 0; }")
        .unwrap();
    db.create_cluster("stockitem").unwrap();
    let oids = db
        .transaction(|tx| {
            (0..ITEMS)
                .map(|i| {
                    tx.pnew(
                        "stockitem",
                        &[("name", Value::from(format!("part-{i:07}")))],
                    )
                })
                .collect::<Result<Vec<Oid>>>()
        })
        .unwrap();
    db.checkpoint().unwrap();

    // Point reads striding across the heap miss on each page they enter.
    let storage = |db: &Database| db.telemetry().storage;
    let before = storage(&db);
    let mut page_sized = 0;
    for &oid in oids.iter().step_by(37) {
        let rtx = db.begin_read();
        let (n, name) = page_allocs(|| rtx.get(oid, "name").unwrap());
        assert!(matches!(name, Value::Str(_)));
        page_sized += n;
    }
    let after = storage(&db);
    let misses = after.pager_misses - before.pager_misses;
    assert!(misses >= 10 && after.pager_evictions > before.pager_evictions);
    assert_eq!(
        page_sized, misses,
        "page-sized allocations for {misses} misses"
    );

    // Dirty frames, then a checkpoint that writes them back.
    db.transaction(|tx| {
        for &oid in oids.iter().step_by(101) {
            tx.set(oid, "quantity", Value::Int(7))?;
        }
        Ok(())
    })
    .unwrap();
    let before = storage(&db);
    let (n, done) = page_allocs(|| db.checkpoint());
    done.unwrap();
    let writebacks = storage(&db).pager_writebacks - before.pager_writebacks;
    assert!(writebacks > 0, "the checkpoint found no dirty frame");
    assert_eq!(
        n, 0,
        "page-sized allocations writing back {writebacks} frames"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}
