//! Tests for §3.1.1: multiple inheritance, cluster hierarchies, `is` type
//! tests, and the paper's income-averaging example over
//! person/student/faculty.

use ode_core::prelude::*;

/// The paper's university hierarchy, including a diamond (teaching
/// assistant derives from both student and faculty, which share person).
fn university(db: &Database) {
    db.define_class(
        ClassBuilder::new("person")
            .field("name", Type::Str)
            .field_default("base_income", Type::Int, 0),
    )
    .unwrap();
    db.define_class(ClassBuilder::new("student").base("person").field_default(
        "stipend",
        Type::Int,
        0,
    ))
    .unwrap();
    db.define_class(ClassBuilder::new("faculty").base("person").field_default(
        "salary",
        Type::Int,
        0,
    ))
    .unwrap();
    db.define_class(
        ClassBuilder::new("teaching_assistant")
            .base("student")
            .base("faculty"),
    )
    .unwrap();
    for c in ["person", "student", "faculty", "teaching_assistant"] {
        db.create_cluster(c).unwrap();
    }
    // income(): the paper's virtual member function.
    db.register_method("person", "income", |s, _| {
        Ok(Value::Int(s.fields[1].as_int()?))
    })
    .unwrap();
    db.register_method("student", "income", |s, _| {
        Ok(Value::Int(s.fields[1].as_int()? + s.fields[2].as_int()?))
    })
    .unwrap();
    db.register_method("faculty", "income", |s, _| {
        Ok(Value::Int(s.fields[1].as_int()? + s.fields[2].as_int()?))
    })
    .unwrap();
}

fn populate(db: &Database) -> (Oid, Oid, Oid, Oid) {
    db.transaction(|tx| {
        let p = tx.pnew(
            "person",
            &[
                ("name", Value::from("pat")),
                ("base_income", Value::Int(100)),
            ],
        )?;
        let s = tx.pnew(
            "student",
            &[
                ("name", Value::from("sam")),
                ("base_income", Value::Int(10)),
                ("stipend", Value::Int(20)),
            ],
        )?;
        let f = tx.pnew(
            "faculty",
            &[
                ("name", Value::from("fran")),
                ("base_income", Value::Int(200)),
                ("salary", Value::Int(300)),
            ],
        )?;
        let ta = tx.pnew(
            "teaching_assistant",
            &[
                ("name", Value::from("terry")),
                ("base_income", Value::Int(5)),
            ],
        )?;
        Ok((p, s, f, ta))
    })
    .unwrap()
}

#[test]
fn deep_iteration_includes_derived_extents() {
    let db = Database::in_memory();
    university(&db);
    populate(&db);
    let mut tx = db.begin();
    // Iterating the person cluster visits persons, students, faculty, TAs.
    assert_eq!(tx.forall("person").unwrap().count().unwrap(), 4);
    // Shallow: only exact persons.
    assert_eq!(tx.forall("person").unwrap().shallow().count().unwrap(), 1);
    // Students: the student + the TA.
    assert_eq!(tx.forall("student").unwrap().count().unwrap(), 2);
    assert_eq!(tx.forall("faculty").unwrap().count().unwrap(), 2);
    tx.commit().unwrap();
}

#[test]
fn is_test_matches_hierarchy() {
    let db = Database::in_memory();
    university(&db);
    let (p, s, f, ta) = populate(&db);
    let tx = db.begin();
    assert!(tx.instance_of(p, "person").unwrap());
    assert!(!tx.instance_of(p, "student").unwrap());
    assert!(tx.instance_of(s, "person").unwrap());
    assert!(tx.instance_of(s, "student").unwrap());
    assert!(!tx.instance_of(s, "faculty").unwrap());
    assert!(tx.instance_of(ta, "student").unwrap());
    assert!(tx.instance_of(ta, "faculty").unwrap());
    assert!(tx.instance_of(ta, "person").unwrap());
    assert!(!tx.instance_of(f, "teaching_assistant").unwrap());
}

#[test]
fn is_test_in_suchthat_expressions() {
    let db = Database::in_memory();
    university(&db);
    populate(&db);
    let mut tx = db.begin();
    // The paper's §3.1.1 pattern: select subsets of the person cluster by
    // dynamic type. A loop variable bound via join gives `p is student`.
    let n = tx
        .forall_join(&[("p", "person")])
        .unwrap()
        .suchthat("p is student")
        .unwrap()
        .collect()
        .unwrap()
        .len();
    assert_eq!(n, 2); // student + TA
    tx.commit().unwrap();
}

#[test]
fn income_averages_like_the_paper() {
    // §3.1.1: compute average income of persons, students, faculty —
    // virtual dispatch through the cluster hierarchy.
    let db = Database::in_memory();
    university(&db);
    populate(&db);
    let mut tx = db.begin();

    let mut income_p = 0i64;
    let mut np = 0i64;
    let mut income_s = 0i64;
    let mut ns = 0i64;
    let mut income_f = 0i64;
    let mut nf = 0i64;
    tx.forall("person")
        .unwrap()
        .run(|tx, p| {
            let v = tx.call(p, "income", &[])?.as_int()?;
            income_p += v;
            np += 1;
            if tx.instance_of(p, "student")? {
                income_s += v;
                ns += 1;
            } else if tx.instance_of(p, "faculty")? {
                income_f += v;
                nf += 1;
            }
            Ok(())
        })
        .unwrap();

    // person: pat 100; student: sam 10+20=30; faculty: fran 200+300=500;
    // TA terry: student override first in MRO → 5+0=5.
    assert_eq!(np, 4);
    assert_eq!(income_p, 100 + 30 + 500 + 5);
    assert_eq!((ns, income_s), (2, 35)); // sam + terry
    assert_eq!((nf, income_f), (1, 500)); // fran only (terry matched student)
    tx.commit().unwrap();
}

#[test]
fn diamond_object_has_single_shared_base_state() {
    let db = Database::in_memory();
    university(&db);
    let (.., ta) = populate(&db);
    db.transaction(|tx| {
        // One write to the shared person::name is visible everywhere.
        tx.set(ta, "name", "terry the TA")?;
        Ok(())
    })
    .unwrap();
    let tx = db.begin();
    assert_eq!(tx.get(ta, "name").unwrap(), Value::from("terry the TA"));
}

#[test]
fn hierarchy_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("ode-core-hier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        university(&db);
        populate(&db);
    }
    {
        let db = Database::open(&dir).unwrap();
        let mut tx = db.begin();
        assert_eq!(tx.forall("person").unwrap().count().unwrap(), 4);
        assert_eq!(tx.forall("student").unwrap().count().unwrap(), 2);
        // The schema (with inheritance) was reloaded from the catalog.
        db.with_schema(|s| {
            let ta = s.id_of("teaching_assistant").unwrap();
            let person = s.id_of("person").unwrap();
            assert!(s.is_subclass(ta, person));
        });
        tx.commit().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn extent_of_class_without_cluster_is_empty_but_iterable() {
    let db = Database::in_memory();
    university(&db);
    db.define_class(ClassBuilder::new("visiting_scholar").base("person"))
        .unwrap();
    // No cluster created for visiting_scholar.
    populate(&db);
    let mut tx = db.begin();
    assert_eq!(tx.forall("visiting_scholar").unwrap().count().unwrap(), 0);
    // person still works and does not include the cluster-less class.
    assert_eq!(tx.forall("person").unwrap().count().unwrap(), 4);
    tx.commit().unwrap();
}

// ---------------------------------------------------------------------------
// Streaming extent scans (DESIGN.md §8): `for_each_extent` replaced the
// materializing `extent_of`. These tests pin the equivalence between what
// the stream yields and what the query layer collects, plus the
// overlay-merge and dedup semantics the old `seen`-set path guaranteed.

#[test]
fn streaming_extent_matches_collected_oids() {
    let db = Database::in_memory();
    university(&db);
    populate(&db);
    let mut tx = db.begin();
    for (class, deep) in [
        ("person", true),
        ("person", false),
        ("student", true),
        ("student", false),
        ("faculty", true),
        ("teaching_assistant", true),
    ] {
        let mut streamed: Vec<Oid> = Vec::new();
        tx.for_each_extent(class, deep, &mut |oid, state| {
            assert!(!state.fields.is_empty(), "states stream fully decoded");
            streamed.push(oid);
            Ok(true)
        })
        .unwrap();
        let forall = tx.forall(class).unwrap();
        let forall = if deep { forall } else { forall.shallow() };
        let collected = forall.collect_oids().unwrap();
        assert_eq!(streamed, collected, "class={class} deep={deep}");
    }
    tx.commit().unwrap();
}

#[test]
fn snapshot_stream_matches_write_txn_stream_without_writes() {
    let db = Database::in_memory();
    university(&db);
    populate(&db);
    let mut via_write: Vec<(Oid, String)> = Vec::new();
    {
        let tx = db.begin();
        tx.for_each_extent("person", true, &mut |oid, state| {
            via_write.push((oid, format!("{:?}", state.fields)));
            Ok(true)
        })
        .unwrap();
    }
    let via_snapshot: Vec<(Oid, String)> = db
        .read(|rtx| {
            let mut out = Vec::new();
            rtx.for_each_extent("person", true, &mut |oid, state| {
                out.push((oid, format!("{:?}", state.fields)));
                Ok(true)
            })?;
            Ok(out)
        })
        .unwrap();
    assert_eq!(via_write, via_snapshot);
    assert_eq!(via_write.len(), 4);
}

#[test]
fn streaming_extent_merges_same_txn_updates_deletes_and_inserts() {
    let db = Database::in_memory();
    university(&db);
    let (p, s, f, ta) = populate(&db);
    let mut tx = db.begin();
    // Mutations before the scan, all from this (uncommitted) transaction:
    // an update must surface its overlay state in place, a delete must
    // vanish, and inserts must arrive after the committed members in
    // creation order.
    tx.set(s, "name", "sam the elder").unwrap();
    tx.pdelete(f).unwrap();
    let n1 = tx
        .pnew("person", &[("name", Value::from("new-pat"))])
        .unwrap();
    let n2 = tx
        .pnew("student", &[("name", Value::from("new-sam"))])
        .unwrap();

    let mut visited: Vec<(Oid, Value)> = Vec::new();
    tx.for_each_extent("person", true, &mut |oid, state| {
        visited.push((oid, state.fields[0].clone()));
        Ok(true)
    })
    .unwrap();

    let oids: Vec<Oid> = visited.iter().map(|&(oid, _)| oid).collect();
    assert!(!oids.contains(&f), "deleted object must not stream");
    assert!(oids.contains(&p) && oids.contains(&ta));
    // Inserts stream after every committed member, in creation order.
    assert_eq!(&oids[oids.len() - 2..], &[n1, n2]);
    let by_oid = |o: Oid| {
        visited
            .iter()
            .find(|&&(oid, _)| oid == o)
            .map(|(_, name)| name.clone())
            .unwrap()
    };
    assert_eq!(by_oid(s), Value::from("sam the elder"));
    assert_eq!(by_oid(n2), Value::from("new-sam"));
    tx.abort();
}

#[test]
fn diamond_hierarchy_streams_each_object_exactly_once() {
    // The diamond (teaching_assistant under both student and faculty)
    // is the shape the old cross-heap `seen` set guarded; streaming must
    // keep each member unique without it.
    let db = Database::in_memory();
    university(&db);
    populate(&db);
    let tx = db.begin();
    for class in ["person", "student", "faculty"] {
        let mut seen = std::collections::HashSet::new();
        tx.for_each_extent(class, true, &mut |oid, _| {
            assert!(seen.insert(oid), "{class}: {oid} streamed twice");
            Ok(true)
        })
        .unwrap();
    }
}

#[test]
fn index_probe_folds_in_own_hierarchy_writes_and_nothing_else() {
    // An index probe on a base-class field answers from committed entries,
    // then folds in the transaction's own writes to the hierarchy's heaps:
    // inserts into subclass heaps and updates of committed members. A
    // thousand writes with the same key in an unrelated heap stay out.
    let db = Database::in_memory();
    university(&db);
    let (p, ..) = populate(&db);
    db.define_class(ClassBuilder::new("ledger").field_default("base_income", Type::Int, 0))
        .unwrap();
    db.create_cluster("ledger").unwrap();
    db.create_index("person", "base_income").unwrap();

    let mut tx = db.begin();
    for _ in 0..1000 {
        tx.pnew("ledger", &[("base_income", Value::Int(777))])
            .unwrap();
    }
    let ta = tx
        .pnew(
            "teaching_assistant",
            &[
                ("name", Value::from("tia")),
                ("base_income", Value::Int(777)),
            ],
        )
        .unwrap();
    let st = tx
        .pnew(
            "student",
            &[
                ("name", Value::from("stu")),
                ("base_income", Value::Int(777)),
            ],
        )
        .unwrap();
    tx.pnew("student", &[("base_income", Value::Int(1))])
        .unwrap();
    tx.set(p, "base_income", 777i64).unwrap();

    let before = db.telemetry();
    let mut prof = QueryProfile::default();
    let mut hits = tx
        .forall("person")
        .unwrap()
        .suchthat("base_income == 777")
        .unwrap()
        .collect_oids_profiled(&mut prof)
        .unwrap();
    let d = db.telemetry().delta(&before);
    assert!(
        matches!(prof.strategy, ode_core::PlanStrategy::IndexProbe { .. }),
        "{}",
        prof.strategy
    );
    hits.sort();
    let mut expected = vec![p, ta, st];
    expected.sort();
    assert_eq!(hits, expected);
    // Only the hierarchy's writes in the key's bucket were folded in:
    // the three written with 777, not the student written with 1 (nor
    // the ledger's thousand).
    assert_eq!(d.query.overlay_clones, 3);
    tx.abort();
}

#[test]
fn early_break_consumer_stops_the_stream() {
    let db = Database::in_memory();
    university(&db);
    populate(&db);
    let tx = db.begin();
    let mut visited = 0usize;
    tx.for_each_extent("person", true, &mut |_, _| {
        visited += 1;
        Ok(visited < 2) // stop after the second object
    })
    .unwrap();
    assert_eq!(visited, 2, "the stream must stop when the visitor says so");
}

/// A statement binds and scans against the layout it started with: a
/// cluster created between building a `forall` and running it is not
/// streamed by it, and the next statement streams it.
#[test]
fn a_statement_reads_the_layout_it_started_with() {
    let db = Database::in_memory();
    db.define_from_source("class person { int n = 0; } class student : person { }")
        .unwrap();
    db.create_cluster("person").unwrap();
    db.transaction(|tx| tx.pnew("person", &[])).unwrap();
    let mut tx = db.begin();
    let statement = tx.forall("person").unwrap().suchthat("n == 0").unwrap();
    db.create_cluster("student").unwrap();
    db.transaction(|other| other.pnew("student", &[])).unwrap();
    assert_eq!(statement.count().unwrap(), 1);
    assert_eq!(tx.forall("person").unwrap().count().unwrap(), 2);
    tx.abort();
}
