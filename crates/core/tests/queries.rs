//! Tests for §3: `forall` with `suchthat`/`by`, join queries over multiple
//! loop variables, index-accelerated selection, fixpoint (recursive)
//! queries, and set iteration with insert-during-iteration.

use ode_core::prelude::*;
use ode_model::SetValue;
use proptest::prelude::*;

fn inventory(db: &Database, n: i64) {
    db.define_class(
        ClassBuilder::new("stockitem")
            .field("name", Type::Str)
            .field_default("quantity", Type::Int, 0)
            .field("supplier", Type::Str),
    )
    .unwrap();
    db.create_cluster("stockitem").unwrap();
    db.transaction(|tx| {
        for i in 0..n {
            tx.pnew(
                "stockitem",
                &[
                    ("name", Value::from(format!("part-{i:04}"))),
                    ("quantity", Value::Int(i)),
                    (
                        "supplier",
                        Value::from(if i % 3 == 0 { "at&t" } else { "other" }),
                    ),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn suchthat_filters() {
    let db = Database::in_memory();
    inventory(&db, 100);
    let mut tx = db.begin();
    let n = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("quantity >= 90")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 10);
    let n = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("supplier == \"at&t\" && quantity < 9")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 3); // 0, 3, 6
    tx.commit().unwrap();
}

#[test]
fn by_orders_ascending_and_descending() {
    let db = Database::in_memory();
    inventory(&db, 10);
    let mut tx = db.begin();
    let names = tx
        .forall("stockitem")
        .unwrap()
        .by_desc("quantity")
        .unwrap()
        .collect_values("name")
        .unwrap();
    assert_eq!(names[0], Value::from("part-0009"));
    assert_eq!(names[9], Value::from("part-0000"));
    let quantities = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("quantity % 2 == 0")
        .unwrap()
        .by("quantity")
        .unwrap()
        .collect_values("quantity")
        .unwrap();
    assert_eq!(
        quantities,
        (0..10).step_by(2).map(Value::Int).collect::<Vec<_>>()
    );
    tx.commit().unwrap();
}

#[test]
fn projection_can_compute_expressions() {
    let db = Database::in_memory();
    inventory(&db, 4);
    let mut tx = db.begin();
    let vals = tx
        .forall("stockitem")
        .unwrap()
        .by("quantity")
        .unwrap()
        .collect_values("quantity * 2 + 1")
        .unwrap();
    assert_eq!(
        vals,
        vec![Value::Int(1), Value::Int(3), Value::Int(5), Value::Int(7)]
    );
    tx.commit().unwrap();
}

#[test]
fn iteration_sees_transaction_overlay() {
    let db = Database::in_memory();
    inventory(&db, 5);
    let mut tx = db.begin();
    // Add one uncommitted object and modify a committed one so it now
    // qualifies.
    tx.pnew(
        "stockitem",
        &[
            ("name", Value::from("fresh")),
            ("quantity", Value::Int(1000)),
        ],
    )
    .unwrap();
    let victim = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("quantity == 0")
        .unwrap()
        .collect_oids()
        .unwrap()[0];
    tx.set(victim, "quantity", 2000i64).unwrap();
    let n = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("quantity >= 1000")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 2);
    // Deleted objects disappear from iteration immediately.
    tx.pdelete(victim).unwrap();
    let n = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("quantity >= 1000")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(n, 1);
    tx.commit().unwrap();
}

#[test]
fn indexed_equality_matches_full_scan() {
    let db = Database::in_memory();
    inventory(&db, 300);
    db.create_index("stockitem", "supplier").unwrap();
    let mut tx = db.begin();
    let with_index = tx
        .forall("stockitem")
        .unwrap()
        .suchthat("supplier == \"at&t\"")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(with_index, 100);
    tx.commit().unwrap();
}

#[test]
fn indexed_range_matches_full_scan() {
    let db = Database::in_memory();
    inventory(&db, 200);
    db.create_index("stockitem", "quantity").unwrap();
    let mut tx = db.begin();
    for src in [
        "quantity < 17",
        "quantity <= 17",
        "quantity > 180",
        "quantity >= 180",
        "17 > quantity", // flipped operand order
    ] {
        let n = tx
            .forall("stockitem")
            .unwrap()
            .suchthat(src)
            .unwrap()
            .count()
            .unwrap();
        let expected = match src {
            "quantity < 17" | "17 > quantity" => 17,
            "quantity <= 17" => 18,
            "quantity > 180" => 19,
            _ => 20,
        };
        assert_eq!(n, expected, "{src}");
    }
    tx.commit().unwrap();
}

#[test]
fn index_stays_correct_after_updates_deletes_and_overlay() {
    let db = Database::in_memory();
    inventory(&db, 50);
    db.create_index("stockitem", "quantity").unwrap();
    // Committed updates move index entries.
    let oid = db
        .transaction(|tx| {
            let oid = tx
                .forall("stockitem")
                .unwrap()
                .suchthat("quantity == 7")
                .unwrap()
                .collect_oids()
                .unwrap()[0];
            tx.set(oid, "quantity", 7000i64)?;
            Ok(oid)
        })
        .unwrap();
    let mut tx = db.begin();
    assert_eq!(
        tx.forall("stockitem")
            .unwrap()
            .suchthat("quantity == 7")
            .unwrap()
            .count()
            .unwrap(),
        0
    );
    assert_eq!(
        tx.forall("stockitem")
            .unwrap()
            .suchthat("quantity == 7000")
            .unwrap()
            .collect_oids()
            .unwrap(),
        vec![oid]
    );
    drop(tx);

    // Uncommitted overlay: a new object and an in-txn update are seen even
    // though the committed index does not know them.
    let mut tx = db.begin();
    tx.pnew(
        "stockitem",
        &[("name", Value::from("x")), ("quantity", Value::Int(7000))],
    )
    .unwrap();
    tx.set(oid, "quantity", 5i64).unwrap();
    assert_eq!(
        tx.forall("stockitem")
            .unwrap()
            .suchthat("quantity == 7000")
            .unwrap()
            .count()
            .unwrap(),
        1,
        "in-txn update must hide the stale committed index entry"
    );
    drop(tx);

    // Committed deletes remove entries.
    db.transaction(|tx| tx.pdelete(oid)).unwrap();
    let mut tx = db.begin();
    assert_eq!(
        tx.forall("stockitem")
            .unwrap()
            .suchthat("quantity == 7000")
            .unwrap()
            .count()
            .unwrap(),
        0
    );
    tx.commit().unwrap();
}

#[test]
fn index_survives_reopen_via_rebuild() {
    let dir = std::env::temp_dir().join(format!("ode-core-ixreopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        db.define_class(
            ClassBuilder::new("stockitem")
                .field("name", Type::Str)
                .field_default("quantity", Type::Int, 0)
                .field("supplier", Type::Str),
        )
        .unwrap();
        db.create_cluster("stockitem").unwrap();
        db.create_index("stockitem", "supplier").unwrap();
        db.transaction(|tx| {
            for i in 0..30 {
                tx.pnew(
                    "stockitem",
                    &[
                        ("name", Value::from(format!("p{i}"))),
                        ("supplier", Value::from(if i % 2 == 0 { "a" } else { "b" })),
                    ],
                )?;
            }
            Ok(())
        })
        .unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        let mut tx = db.begin();
        let n = tx
            .forall("stockitem")
            .unwrap()
            .suchthat("supplier == \"a\"")
            .unwrap()
            .count()
            .unwrap();
        assert_eq!(n, 15);
        tx.commit().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Null keys are never indexed, so `name == null` must not be answered
/// from the index: with and without one it selects the same row.
#[test]
fn null_equality_matches_with_and_without_an_index() {
    let rows = |indexed: bool| {
        let db = Database::in_memory();
        db.define_class(ClassBuilder::new("part").field("name", Type::Str))
            .unwrap();
        db.create_cluster("part").unwrap();
        if indexed {
            db.create_index("part", "name").unwrap();
        }
        db.transaction(|tx| {
            tx.pnew("part", &[("name", Value::from("bolt"))])?;
            tx.pnew("part", &[("name", Value::Null)])?;
            Ok(())
        })
        .unwrap();
        db.transaction(|tx| tx.query("forall p in part suchthat (name == null)"))
            .unwrap()
            .len()
    };
    assert_eq!(rows(false), 1);
    assert_eq!(rows(true), 1);
}

/// `probe(id, a, b)` objects from `(id, a, b)` rows (`None` = null),
/// with `a` and `b` both indexed when `indexed`.
fn probe_db(rows: &[(i64, Option<i64>, Option<i64>)], indexed: bool) -> Database {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("probe")
            .field("id", Type::Int)
            .field("a", Type::Int)
            .field("b", Type::Int),
    )
    .unwrap();
    db.create_cluster("probe").unwrap();
    let int = |x: Option<i64>| x.map_or(Value::Null, Value::Int);
    db.transaction(|tx| {
        for &(id, a, b) in rows {
            tx.pnew(
                "probe",
                &[("id", Value::Int(id)), ("a", int(a)), ("b", int(b))],
            )?;
        }
        Ok(())
    })
    .unwrap();
    if indexed {
        db.create_index("probe", "a").unwrap();
        db.create_index("probe", "b").unwrap();
    }
    db
}

/// The sorted `id`s a predicate selects, and the query's profile.
fn select_ids(db: &Database, pred: &str) -> Result<(Vec<i64>, QueryProfile)> {
    db.transaction(|tx| {
        let mut prof = QueryProfile::default();
        let oids = tx
            .forall("probe")?
            .suchthat(pred)?
            .collect_oids_profiled(&mut prof)?;
        let mut ids = oids
            .into_iter()
            .map(|o| Ok(tx.get(o, "id")?.as_int()?))
            .collect::<Result<Vec<i64>>>()?;
        ids.sort_unstable();
        Ok((ids, prof))
    })
}

/// A two-sided range probes both bounds, whichever conjunct comes
/// first, and negative literals bound a probe like any other.
#[test]
fn two_sided_ranges_probe_both_bounds_in_either_order() {
    let rows: Vec<_> = (-1000..1000).map(|k| (k, Some(k), Some(0))).collect();
    let db = probe_db(&rows, true);
    for pred in [
        "a >= 100 && a < 110",
        "a < 110 && a >= 100",
        "110 > a && 100 <= a",
    ] {
        let (ids, prof) = select_ids(&db, pred).unwrap();
        assert_eq!(ids, (100..110).collect::<Vec<_>>(), "{pred}");
        assert_eq!(prof.objects_scanned, 10, "{pred}");
    }
    let (ids, prof) = select_ids(&db, "a > -3 && a < 5").unwrap();
    assert_eq!(ids, (-2..5).collect::<Vec<_>>());
    assert_eq!(
        prof.strategy,
        ode_core::PlanStrategy::IndexProbe { field: "a".into() }
    );
    assert_eq!(prof.objects_scanned, 7);
    // A crossed interval probes nothing, and does not panic.
    let (ids, prof) = select_ids(&db, "a > 10 && a < 5").unwrap();
    assert!(ids.is_empty());
    assert_eq!(prof.objects_scanned, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential oracle: a conjunction of comparisons over two
    /// indexed fields selects the same rows as the same conjunction
    /// scanned without indexes, whenever the scan evaluates at all
    /// (ordering against a null field or literal is an evaluation
    /// error), and a probe never panics on crossed bounds.
    #[test]
    fn probes_select_what_scans_select(
        values in prop::collection::vec((-6i64..7, -6i64..7), 1..24),
        conjuncts in prop::collection::vec(
            (0usize..2, 0usize..5, -6i64..8, 0usize..2),
            1..4,
        ),
    ) {
        // Every fifth `a` and every seventh `b` is null.
        let rows: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                (i as i64, (i % 5 != 4).then_some(a), (i % 7 != 6).then_some(b))
            })
            .collect();
        let pred = conjuncts
            .iter()
            .map(|&(field, op, lit, flipped)| {
                let field = ["a", "b"][field];
                let op = ["==", "<", "<=", ">", ">="][op];
                // 7 stands for a `null` literal.
                let lit = if lit == 7 { "null".to_string() } else { lit.to_string() };
                if flipped == 1 {
                    format!("{lit} {op} {field}")
                } else {
                    format!("{field} {op} {lit}")
                }
            })
            .collect::<Vec<_>>()
            .join(" && ");
        let probed = select_ids(&probe_db(&rows, true), &pred);
        if let Ok((scanned, _)) = select_ids(&probe_db(&rows, false), &pred) {
            let (probed, _) = probed.unwrap_or_else(|e| panic!("{pred}: {e}"));
            prop_assert_eq!(probed, scanned, "{}", pred);
        }
    }
}

/// One object of the `a`/`b` hierarchy in the model the in-transaction
/// differential test keeps.
#[derive(Debug, Clone, Copy)]
struct Row {
    id: i64,
    is_b: bool,
    f: i64,
    x: i64,
    y: i64,
}

/// The ids (and id pairs) a query selected, sorted.
fn selected(tx: &mut Transaction<'_>, src: &str) -> Vec<Vec<i64>> {
    let rows = tx.query(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let mut ids: Vec<Vec<i64>> = rows
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|&o| tx.get(o, "id").unwrap().as_int().unwrap())
                .collect()
        })
        .collect();
    ids.sort();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential oracle for loop variables read in hand: inside a
    /// write transaction that inserted, updated and deleted objects of a
    /// two-level hierarchy, `p is D && p.f > k`, the same test on bare
    /// fields, and a two-variable join select what a model of the
    /// transaction's view selects — with and without indexes on the
    /// fields they compare.
    #[test]
    fn in_transaction_queries_match_the_model(
        committed in prop::collection::vec((any::<bool>(), -3i64..4, 0i64..4, 0i64..4), 0..12),
        ops in prop::collection::vec(
            (0usize..3, 0usize..64, any::<bool>(), -3i64..4, 0i64..4, 0usize..3),
            0..16,
        ),
        k in -3i64..4,
        indexed in any::<bool>(),
    ) {
        let db = Database::in_memory();
        db.define_from_source(
            "class a { int id; int f; int x; int y; } class b : a { int g = 0; }",
        )
        .unwrap();
        db.create_cluster("a").unwrap();
        db.create_cluster("b").unwrap();
        if indexed {
            // `a.f` serves the single-variable probe, `b.y` the join's
            // inner probe on `t`.
            db.create_index("a", "f").unwrap();
            db.create_index("b", "y").unwrap();
        }
        let pnew = |tx: &mut Transaction<'_>, r: Row| {
            tx.pnew(
                if r.is_b { "b" } else { "a" },
                &[
                    ("id", Value::Int(r.id)),
                    ("f", Value::Int(r.f)),
                    ("x", Value::Int(r.x)),
                    ("y", Value::Int(r.y)),
                ],
            )
        };
        let mut live: Vec<(Oid, Row)> = Vec::new();
        let mut next_id = 0;
        let mut row = |is_b, f, x, y| {
            next_id += 1;
            Row { id: next_id, is_b, f, x, y }
        };
        let initial: Vec<Row> = committed.iter().map(|&(b, f, x, y)| row(b, f, x, y)).collect();
        db.transaction(|tx| {
            for &r in &initial {
                live.push((pnew(tx, r)?, r));
            }
            Ok(())
        })
        .unwrap();

        let mut tx = db.begin();
        for &(kind, target, is_b, value, other, field) in &ops {
            match kind {
                0 => {
                    let r = row(is_b, value, other, (value + other).rem_euclid(4));
                    live.push((pnew(&mut tx, r).unwrap(), r));
                }
                _ if live.is_empty() => {}
                1 => {
                    let at = target % live.len();
                    let (oid, r) = &mut live[at];
                    let (name, slot) = match field {
                        0 => ("f", &mut r.f),
                        1 => ("x", &mut r.x),
                        _ => ("y", &mut r.y),
                    };
                    *slot = value;
                    tx.set(*oid, name, value).unwrap();
                }
                _ => {
                    let (oid, _) = live.remove(target % live.len());
                    tx.pdelete(oid).unwrap();
                }
            }
        }

        let mut want: Vec<Vec<i64>> = live
            .iter()
            .filter(|(_, r)| r.is_b && r.f > k)
            .map(|(_, r)| vec![r.id])
            .collect();
        want.sort();
        for src in [
            format!("forall p in a suchthat (p is b && p.f > {k})"),
            format!("forall p in a suchthat (p is b && f > {k})"),
        ] {
            prop_assert_eq!(selected(&mut tx, &src), want.clone(), "{}", src);
        }
        let mut pairs: Vec<Vec<i64>> = live
            .iter()
            .flat_map(|(_, s)| {
                live.iter()
                    .filter(move |(_, t)| t.is_b && s.x == t.y)
                    .map(move |(_, t)| vec![s.id, t.id])
            })
            .collect();
        pairs.sort();
        let src = "forall s in a, t in b suchthat (s.x == t.y)";
        prop_assert_eq!(selected(&mut tx, src), pairs, "{}", src);
        tx.abort();
    }
}

/// The keys the point-key differential test stores and looks up: ints,
/// an integral float equal to one of them, ±2⁵³ and its neighbour (where
/// ints and floats stop being exact keys), strings and `null` — as a
/// value and as the literal that names it.
fn key(i: usize) -> (&'static str, Value) {
    match i {
        0 => ("0", Value::Int(0)),
        1 => ("1", Value::Int(1)),
        2 => ("1.0", Value::Float(1.0)),
        3 => ("9007199254740992", Value::Int(1 << 53)),
        4 => ("-9007199254740992", Value::Int(-(1 << 53))),
        5 => ("9007199254740992.0", Value::Float(9_007_199_254_740_992.0)),
        6 => ("9007199254740991", Value::Int((1 << 53) - 1)),
        7 => ("\"1\"", Value::from("1")),
        8 => ("\"a\"", Value::from("a")),
        _ => ("null", Value::Null),
    }
}

/// A statement's rows, in order, or its error.
fn point_rows(
    tx: &mut Transaction<'_>,
    shallow: bool,
    src: &str,
) -> std::result::Result<Vec<Oid>, String> {
    let q = tx.forall("a").unwrap().bind("p");
    let q = if shallow { q.shallow() } else { q };
    q.suchthat(src)
        .and_then(|q| q.collect_oids())
        .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential oracle for write-set key maps: inside a write
    /// transaction that inserts, updates, deletes and versions objects of
    /// a two-level hierarchy, an equality statement that a key map serves
    /// returns the same rows, in the same order, and the same first error
    /// as a statement no key map serves — indexed and not, deep and
    /// shallow, with a total or a raising conjunct left of the key, and
    /// checked between the writes as well as after them. Unindexed, the
    /// reference writes the key test `(k == c) || false`. Indexed, it must
    /// probe the same range, since a probe returns committed rows in index
    /// order and never evaluates rows outside its range: it prefixes the
    /// statement with `p.id - p.id == 0`, which never raises but is not
    /// provably total, so the fold-in walks every write.
    #[test]
    fn in_transaction_point_keys_match_the_walk(
        committed in prop::collection::vec((any::<bool>(), 0usize..10, -1i64..3), 0..10),
        ops in prop::collection::vec(
            (0usize..6, 0usize..64, any::<bool>(), 0usize..10, -1i64..3),
            0..24,
        ),
        consts in prop::collection::vec(0usize..10, 1..3),
        indexed in any::<bool>(),
    ) {
        let db = Database::in_memory();
        db.define_class(
            ClassBuilder::new("a")
                .field("id", Type::Int)
                .field("k", Type::Any)
                .field("x", Type::Int),
        )
        .unwrap();
        db.define_class(ClassBuilder::new("b").base("a").field_default("g", Type::Int, 0))
            .unwrap();
        db.create_cluster("a").unwrap();
        db.create_cluster("b").unwrap();
        if indexed {
            db.create_index("a", "k").unwrap();
        }
        let mut next_id = 0;
        let mut pnew = |tx: &mut Transaction<'_>, is_b: bool, k: usize, x: i64| {
            next_id += 1;
            tx.pnew(
                if is_b { "b" } else { "a" },
                &[("id", Value::Int(next_id)), ("k", key(k).1), ("x", Value::Int(x))],
            )
        };
        let mut live: Vec<Oid> = Vec::new();
        db.transaction(|tx| {
            for &(is_b, k, x) in &committed {
                live.push(pnew(tx, is_b, k, x)?);
            }
            Ok(())
        })
        .unwrap();

        // Each key test, and a total and a raising conjunct left of it
        // (`1 / p.x` divides by zero on x == 0); a raising one right of it
        // errors only inside the bucket.
        let shapes = [
            "{k}",
            "p.x == 1 && {k}",
            "1 / p.x == 1 && {k}",
            "{k} && 1 / p.x > 0",
        ];
        let check = |tx: &mut Transaction<'_>| -> std::result::Result<(), TestCaseError> {
            for &c in &consts {
                let lit = key(c).0;
                for (test, walk) in [
                    (format!("p.k == {lit}"), format!("(p.k == {lit} || false)")),
                    (format!("{lit} == k"), format!("({lit} == k || false)")),
                ] {
                    for shape in shapes {
                        let served = shape.replace("{k}", &test);
                        let reference = if indexed {
                            format!("p.id - p.id == 0 && {served}")
                        } else {
                            shape.replace("{k}", &walk)
                        };
                        for shallow in [false, true] {
                            prop_assert_eq!(
                                point_rows(tx, shallow, &served),
                                point_rows(tx, shallow, &reference),
                                "{} (shallow: {})", served, shallow
                            );
                        }
                    }
                }
            }
            Ok(())
        };

        let mut tx = db.begin();
        for &(kind, target, is_b, k, x) in &ops {
            match kind {
                0 => live.push(pnew(&mut tx, is_b, k, x).unwrap()),
                5 => check(&mut tx)?,
                _ if live.is_empty() => {}
                1 => tx.set(live[target % live.len()], "k", key(k).1).unwrap(),
                2 => tx.set(live[target % live.len()], "x", x).unwrap(),
                3 => {
                    tx.pdelete(live.remove(target % live.len())).unwrap();
                }
                _ => {
                    tx.newversion(live[target % live.len()]).unwrap();
                }
            }
        }
        check(&mut tx)?;
        tx.abort();
    }
}

/// Binding a loop variable to the object in hand keeps evaluation's
/// short-circuiting and its errors: a subclass-only field read on a
/// base-class object fails, unless `is` guards it.
#[test]
fn in_hand_variables_keep_short_circuits_and_errors() {
    let db = Database::in_memory();
    db.define_from_source(
        "class person { int income = 0; } class student : person { int stipend = 1; }",
    )
    .unwrap();
    db.create_cluster("person").unwrap();
    db.create_cluster("student").unwrap();
    db.transaction(|tx| {
        tx.pnew("person", &[])?;
        tx.pnew("student", &[])?;
        Ok(())
    })
    .unwrap();
    let mut tx = db.begin_read();
    let rows = |tx: &mut ode_core::ReadTransaction<'_>, src: &str| {
        tx.query(src)
            .map(|r| r.rows.len())
            .map_err(|e| e.to_string())
    };
    assert_eq!(
        rows(&mut tx, "forall p in person suchthat (false && ghost)"),
        Ok(0)
    );
    let err = rows(&mut tx, "forall p in person suchthat (true && ghost)").unwrap_err();
    assert!(err.contains("ghost"), "{err}");
    assert_eq!(
        rows(
            &mut tx,
            "forall p in person suchthat (p is student && p.stipend > 0)"
        ),
        Ok(1)
    );
    let err = rows(&mut tx, "forall p in person suchthat (p.stipend > 0)").unwrap_err();
    assert!(err.contains("stipend"), "{err}");
}

// ------------------------------------------------------------------ joins

fn company(db: &Database) {
    db.define_class(
        ClassBuilder::new("department")
            .field("dname", Type::Str)
            .field("dno", Type::Int),
    )
    .unwrap();
    db.define_class(
        ClassBuilder::new("employee")
            .field("ename", Type::Str)
            .field("deptno", Type::Int),
    )
    .unwrap();
    db.create_cluster("department").unwrap();
    db.create_cluster("employee").unwrap();
    db.transaction(|tx| {
        for d in 0..3i64 {
            tx.pnew(
                "department",
                &[
                    ("dname", Value::from(format!("dept-{d}"))),
                    ("dno", Value::Int(d)),
                ],
            )?;
        }
        for e in 0..12i64 {
            tx.pnew(
                "employee",
                &[
                    ("ename", Value::from(format!("emp-{e}"))),
                    ("deptno", Value::Int(e % 3)),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn join_with_multiple_loop_variables() {
    // §3.1: forall e in employee, d in department suchthat (e.deptno == d.dno)
    let db = Database::in_memory();
    company(&db);
    let mut tx = db.begin();
    let mut pairs = 0usize;
    tx.forall_join(&[("e", "employee"), ("d", "department")])
        .unwrap()
        .suchthat("e.deptno == d.dno")
        .unwrap()
        .run(|tx, binding| {
            let e = binding["e"];
            let d = binding["d"];
            assert_eq!(tx.get(e, "deptno")?, tx.get(d, "dno")?);
            pairs += 1;
            Ok(())
        })
        .unwrap();
    assert_eq!(pairs, 12); // every employee matches exactly one department
    tx.commit().unwrap();
}

#[test]
fn join_predicate_can_mix_variables_and_literals() {
    let db = Database::in_memory();
    company(&db);
    let mut tx = db.begin();
    let rows = tx
        .forall_join(&[("e", "employee"), ("d", "department")])
        .unwrap()
        .suchthat("e.deptno == d.dno && d.dname == \"dept-1\"")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 4);
    tx.commit().unwrap();
}

#[test]
fn cross_product_without_predicate() {
    let db = Database::in_memory();
    company(&db);
    let mut tx = db.begin();
    let rows = tx
        .forall_join(&[("e", "employee"), ("d", "department")])
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 36);
    tx.commit().unwrap();
}

#[test]
fn three_way_join() {
    let db = Database::in_memory();
    company(&db);
    db.define_class(ClassBuilder::new("project").field("pdept", Type::Int))
        .unwrap();
    db.create_cluster("project").unwrap();
    db.transaction(|tx| {
        tx.pnew("project", &[("pdept", Value::Int(0))])?;
        tx.pnew("project", &[("pdept", Value::Int(1))])?;
        Ok(())
    })
    .unwrap();
    let mut tx = db.begin();
    let rows = tx
        .forall_join(&[("e", "employee"), ("d", "department"), ("p", "project")])
        .unwrap()
        .suchthat("e.deptno == d.dno && p.pdept == d.dno")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(rows.len(), 8); // 4 employees in dept 0 + 4 in dept 1
    tx.commit().unwrap();
}

// --------------------------------------------------------------- fixpoint

/// §3.2 parts explosion: which parts (transitively) make up a given part?
#[test]
fn fixpoint_parts_explosion_via_cluster() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("usage")
            .field("parent", Type::Str)
            .field("child", Type::Str),
    )
    .unwrap();
    db.define_class(ClassBuilder::new("result").field("part", Type::Str))
        .unwrap();
    db.create_cluster("usage").unwrap();
    db.create_cluster("result").unwrap();
    // engine -> {block, piston}; block -> {bolt}; piston -> {ring, bolt}
    db.transaction(|tx| {
        for (p, c) in [
            ("engine", "block"),
            ("engine", "piston"),
            ("block", "bolt"),
            ("piston", "ring"),
            ("piston", "bolt"),
            ("wheel", "rim"), // unrelated
        ] {
            tx.pnew(
                "usage",
                &[("parent", Value::from(p)), ("child", Value::from(c))],
            )?;
        }
        Ok(())
    })
    .unwrap();

    // Transitive closure: seed the result cluster with "engine", then
    // iterate it with fixpoint semantics, adding children of each part as
    // they are discovered — new result objects are visited too.
    let mut found = std::collections::BTreeSet::new();
    db.transaction(|tx| {
        tx.pnew("result", &[("part", Value::from("engine"))])?;
        tx.forall("result").unwrap().fixpoint().run(|tx, r| {
            let part = tx.get(r, "part")?.as_str()?.to_string();
            found.insert(part.clone());
            let children: Vec<String> = tx
                .forall("usage")?
                .suchthat(&format!("parent == \"{part}\""))?
                .collect_values("child")?
                .into_iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect();
            for c in children {
                let already = tx
                    .forall("result")?
                    .suchthat(&format!("part == \"{c}\""))?
                    .count()?;
                if already == 0 {
                    tx.pnew("result", &[("part", Value::from(c.as_str()))])?;
                }
            }
            Ok(())
        })?;
        Ok(())
    })
    .unwrap();
    let expected: std::collections::BTreeSet<String> =
        ["engine", "block", "piston", "bolt", "ring"]
            .into_iter()
            .map(String::from)
            .collect();
    assert_eq!(found, expected);
}

#[test]
fn non_fixpoint_iteration_does_not_see_additions() {
    let db = Database::in_memory();
    db.define_class(ClassBuilder::new("node").field_default("gen", Type::Int, 0))
        .unwrap();
    db.create_cluster("node").unwrap();
    db.transaction(|tx| {
        tx.pnew("node", &[("gen", Value::Int(0))])?;
        tx.pnew("node", &[("gen", Value::Int(0))])?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        let mut visited = 0;
        tx.forall("node").unwrap().run(|tx, _oid| {
            visited += 1;
            // Each visit creates a new node; a plain iteration must not
            // chase them.
            tx.pnew("node", &[("gen", Value::Int(1))])?;
            Ok(())
        })?;
        assert_eq!(visited, 2);
        Ok(())
    })
    .unwrap();
    assert_eq!(db.extent_size("node", true).unwrap(), 4);
}

#[test]
fn fixpoint_terminates_when_no_new_objects() {
    let db = Database::in_memory();
    db.define_class(ClassBuilder::new("node").field_default("gen", Type::Int, 0))
        .unwrap();
    db.create_cluster("node").unwrap();
    db.transaction(|tx| {
        tx.pnew("node", &[])?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        let mut visited = 0;
        tx.forall("node").unwrap().fixpoint().run(|tx, oid| {
            visited += 1;
            let gen = tx.get(oid, "gen")?.as_int()?;
            if gen < 5 {
                tx.pnew("node", &[("gen", Value::Int(gen + 1))])?;
            }
            Ok(())
        })?;
        assert_eq!(visited, 6); // gen 0..=5
        Ok(())
    })
    .unwrap();
}

/// A `node { int n; }` class with an (empty) cluster.
fn nodes(db: &Database) {
    db.define_class(ClassBuilder::new("node").field_default("n", Type::Int, 0))
        .unwrap();
    db.create_cluster("node").unwrap();
}

fn n_of(tx: &Transaction<'_>, oid: Oid) -> i64 {
    tx.get(oid, "n").unwrap().as_int().unwrap()
}

#[test]
fn fixpoint_examines_each_insert_once() {
    // A 200-link chain: each visit inserts the next link. Semi-naive
    // evaluation tests each insert once; re-running the extent every
    // round would scan about N²/2 objects.
    let db = Database::in_memory();
    nodes(&db);
    let mut tx = db.begin();
    tx.pnew("node", &[("n", Value::Int(0))]).unwrap();
    let mut prof = QueryProfile::default();
    let visited = tx
        .forall("node")
        .unwrap()
        .fixpoint()
        .run_profiled(&mut prof, |tx, oid| {
            let n = tx.get(oid, "n")?.as_int()?;
            if n + 1 < 200 {
                tx.pnew("node", &[("n", Value::Int(n + 1))])?;
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(visited, 200);
    assert_eq!(prof.objects_scanned, 200, "each link examined once");
    assert_eq!(prof.fixpoint_rounds, 200);
    assert_eq!(prof.fixpoint_new_by_round, vec![1; 200]);
}

#[test]
fn suchthat_fixpoint_visits_only_qualifying_inserts() {
    // Each visit inserts n+1 (odd, never qualifies) and n+2 (even).
    let db = Database::in_memory();
    nodes(&db);
    let mut tx = db.begin();
    tx.pnew("node", &[("n", Value::Int(0))]).unwrap();
    let mut seen = Vec::new();
    let mut prof = QueryProfile::default();
    tx.forall("node")
        .unwrap()
        .suchthat("n % 2 == 0")
        .unwrap()
        .fixpoint()
        .run_profiled(&mut prof, |tx, oid| {
            let n = n_of(tx, oid);
            seen.push(n);
            if n < 10 {
                tx.pnew("node", &[("n", Value::Int(n + 1))])?;
                tx.pnew("node", &[("n", Value::Int(n + 2))])?;
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(seen, vec![0, 2, 4, 6, 8, 10]);
    // One evaluation per object: the seed in the full pass, then each of
    // the ten inserts in the round after its insertion.
    assert_eq!(prof.predicate_evals, 11);
}

#[test]
fn fixpoint_skips_inserts_deleted_before_their_visit() {
    let db = Database::in_memory();
    nodes(&db);
    let mut tx = db.begin();
    tx.pnew("node", &[("n", Value::Int(0))]).unwrap();
    let mut seen = Vec::new();
    let mut three = None;
    let mut prof = QueryProfile::default();
    tx.forall("node")
        .unwrap()
        .fixpoint()
        .run_profiled(&mut prof, |tx, oid| {
            let n = n_of(tx, oid);
            seen.push(n);
            match n {
                0 => {
                    // Deleted before its round is evaluated.
                    let one = tx.pnew("node", &[("n", Value::Int(1))])?;
                    tx.pnew("node", &[("n", Value::Int(2))])?;
                    three = Some(tx.pnew("node", &[("n", Value::Int(3))])?);
                    tx.pdelete(one)?;
                }
                // Deleted after its round is evaluated, before its visit.
                2 => tx.pdelete(three.expect("inserted at 0"))?,
                _ => {}
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(seen, vec![0, 2]);
    assert_eq!(prof.fixpoint_new_by_round, vec![1, 2]);
}

#[test]
fn shallow_fixpoint_skips_inserts_into_a_subclass() {
    let db = Database::in_memory();
    nodes(&db);
    db.define_class(ClassBuilder::new("leaf").base("node"))
        .unwrap();
    db.create_cluster("leaf").unwrap();
    for shallow in [true, false] {
        let mut tx = db.begin();
        tx.pnew("node", &[("n", Value::Int(0))]).unwrap();
        let mut seen = Vec::new();
        let forall = tx.forall("node").unwrap();
        let forall = if shallow { forall.shallow() } else { forall };
        forall
            .fixpoint()
            .run(|tx, oid| {
                let n = n_of(tx, oid);
                seen.push(n);
                if n == 0 {
                    tx.pnew("leaf", &[("n", Value::Int(1))])?;
                    tx.pnew("node", &[("n", Value::Int(2))])?;
                }
                Ok(())
            })
            .unwrap();
        let expected = if shallow { vec![0, 2] } else { vec![0, 1, 2] };
        assert_eq!(seen, expected, "shallow = {shallow}");
    }
}

#[test]
fn fixpoint_does_not_revisit_updated_committed_objects() {
    // The fixpoint is insert-driven: a committed object the body updates
    // into qualifying is not picked up by a later round.
    let db = Database::in_memory();
    nodes(&db);
    let (a, b) = db
        .transaction(|tx| {
            Ok((
                tx.pnew("node", &[("n", Value::Int(1))])?,
                tx.pnew("node", &[("n", Value::Int(0))])?,
            ))
        })
        .unwrap();
    let mut tx = db.begin();
    let mut seen = Vec::new();
    tx.forall("node")
        .unwrap()
        .suchthat("n == 1")
        .unwrap()
        .fixpoint()
        .run(|tx, oid| {
            seen.push(oid);
            tx.set(b, "n", 1i64)
        })
        .unwrap();
    assert_eq!(seen, vec![a]);
    let now = tx
        .forall("node")
        .unwrap()
        .suchthat("n == 1")
        .unwrap()
        .count()
        .unwrap();
    assert_eq!(now, 2, "b qualifies after the iteration");
}

// -------------------------------------------------------------------- sets

#[test]
fn set_fields_and_iteration() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("part")
            .field("name", Type::Str)
            .field_default(
                "children",
                Type::Set(Box::new(Type::Str)),
                Value::Set(SetValue::new()),
            ),
    )
    .unwrap();
    db.create_cluster("part").unwrap();
    let oid = db
        .transaction(|tx| {
            let oid = tx.pnew("part", &[("name", Value::from("engine"))])?;
            assert!(tx.set_insert(oid, "children", "block")?);
            assert!(tx.set_insert(oid, "children", "piston")?);
            assert!(!tx.set_insert(oid, "children", "block")?, "dedup");
            Ok(oid)
        })
        .unwrap();
    db.transaction(|tx| {
        let v = tx.get(oid, "children")?;
        assert_eq!(v.as_set()?.len(), 2);
        assert!(tx.set_remove(oid, "children", &Value::from("block"))?);
        assert!(!tx.set_remove(oid, "children", &Value::from("block"))?);
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        assert_eq!(tx.get(oid, "children")?.as_set()?.len(), 1);
        Ok(())
    })
    .unwrap();
}

#[test]
fn set_iteration_visits_elements_added_during_iteration() {
    // §3.2 over a set: compute 0..=10 by inserting successors while
    // iterating.
    let db = Database::in_memory();
    db.define_class(ClassBuilder::new("holder").field_default(
        "nums",
        Type::Set(Box::new(Type::Int)),
        Value::Set(SetValue::new()),
    ))
    .unwrap();
    db.create_cluster("holder").unwrap();
    db.transaction(|tx| {
        let h = tx.pnew("holder", &[])?;
        tx.set_insert(h, "nums", 0i64)?;
        let visited = tx.iterate_set(h, "nums", |tx, v| {
            let n = v.as_int()?;
            if n < 10 {
                tx.set_insert(h, "nums", n + 1)?;
            }
            Ok(())
        })?;
        assert_eq!(visited, 11);
        assert_eq!(tx.get(h, "nums")?.as_set()?.len(), 11);
        Ok(())
    })
    .unwrap();
}

#[test]
fn set_insert_into_a_non_set_field_leaves_the_object_unchanged() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("holder")
            .field_default("count", Type::Int, 7)
            .field_default(
                "nums",
                Type::Set(Box::new(Type::Int)),
                Value::Set(SetValue::new()),
            ),
    )
    .unwrap();
    db.create_cluster("holder").unwrap();
    let h = db
        .transaction(|tx| {
            let h = tx.pnew("holder", &[])?;
            tx.set_insert(h, "nums", 1i64)?;
            Ok(h)
        })
        .unwrap();
    let mut tx = db.begin();
    let before = tx.read(h).unwrap();
    assert!(tx.set_insert(h, "count", 2i64).is_err());
    assert!(tx.set_remove(h, "count", &Value::Int(7)).is_err());
    assert!(tx.set_insert(h, "missing", 2i64).is_err());
    assert_eq!(tx.read(h).unwrap(), before);
    // A type error is not a constraint violation: the transaction lives.
    assert!(tx.set_insert(h, "nums", 2i64).unwrap());
    tx.commit().unwrap();
    let nums = db.transaction(|tx| tx.get(h, "nums")).unwrap();
    assert_eq!(nums.as_set().unwrap().len(), 2);
    assert_eq!(
        db.transaction(|tx| tx.get(h, "count")).unwrap(),
        Value::Int(7)
    );
}

#[test]
fn set_insert_violating_a_constraint_aborts_the_transaction() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("holder")
            .field_default(
                "nums",
                Type::Set(Box::new(Type::Int)),
                Value::Set(SetValue::new()),
            )
            .constraint("!(13 in nums)"),
    )
    .unwrap();
    db.create_cluster("holder").unwrap();
    let h = db.transaction(|tx| tx.pnew("holder", &[])).unwrap();
    let mut tx = db.begin();
    assert!(tx.set_insert(h, "nums", 1i64).unwrap());
    let err = tx.set_insert(h, "nums", 13i64).unwrap_err();
    assert!(matches!(err, OdeError::ConstraintViolation { .. }), "{err}");
    assert!(matches!(
        tx.set_insert(h, "nums", 2i64),
        Err(OdeError::TransactionAborted)
    ));
    assert!(tx.commit().is_err());
    // Rolled back whole: not even the earlier insert survives.
    let nums = db.transaction(|tx| tx.get(h, "nums")).unwrap();
    assert!(nums.as_set().unwrap().is_empty());
}

#[test]
fn membership_operator_in_queries() {
    let db = Database::in_memory();
    db.define_class(
        ClassBuilder::new("part")
            .field("name", Type::Str)
            .field_default(
                "tags",
                Type::Set(Box::new(Type::Str)),
                Value::Set(SetValue::new()),
            ),
    )
    .unwrap();
    db.create_cluster("part").unwrap();
    db.transaction(|tx| {
        let a = tx.pnew("part", &[("name", Value::from("a"))])?;
        tx.set_insert(a, "tags", "critical")?;
        let b = tx.pnew("part", &[("name", Value::from("b"))])?;
        tx.set_insert(b, "tags", "spare")?;
        Ok(())
    })
    .unwrap();
    let mut tx = db.begin();
    let names = tx
        .forall("part")
        .unwrap()
        .suchthat("'critical' in tags")
        .unwrap()
        .collect_values("name")
        .unwrap();
    assert_eq!(names, vec![Value::from("a")]);
    tx.commit().unwrap();
}

#[test]
fn early_error_in_body_propagates() {
    let db = Database::in_memory();
    inventory(&db, 3);
    let mut tx = db.begin();
    let err = tx
        .forall("stockitem")
        .unwrap()
        .run(|_tx, _oid| Err(ode_core::OdeError::Usage("stop".into())));
    assert!(err.is_err());
    tx.commit().unwrap();
}
