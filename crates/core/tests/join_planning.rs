//! Tests for the join planner: conjuncts pushed to the shallowest level
//! that binds their variables, inner variables keyed by an equality
//! conjunct probed through a hash table, index or not, and every plan
//! returning exactly what the nested loop returns — the same rows in the
//! same order, or the same first error — under updates, inserts, deletes,
//! null keys, mixed int/float keys and hierarchy membership.

use ode_core::prelude::*;
use ode_core::{ExecResult, PlanStrategy};
use ode_model::{bind, parse_expr, BoundVar, Frame, Scope};
use proptest::prelude::*;

fn company(index: bool) -> Database {
    let db = Database::in_memory();
    db.define_from_source(
        r#"
        class department { string dname; int dno; }
        class lab : public department { string campus; }
        class employee { string ename; int deptno; }
        "#,
    )
    .unwrap();
    for c in ["department", "lab", "employee"] {
        db.create_cluster(c).unwrap();
    }
    if index {
        db.create_index("department", "dno").unwrap();
    }
    db.transaction(|tx| {
        for d in 0..4i64 {
            tx.pnew(
                "department",
                &[
                    ("dname", Value::from(format!("dept-{d}"))),
                    ("dno", Value::Int(d)),
                ],
            )?;
        }
        // A lab is a department too (deep extent must be probed correctly).
        tx.pnew(
            "lab",
            &[
                ("dname", Value::from("bell labs")),
                ("dno", Value::Int(99)),
                ("campus", Value::from("murray hill")),
            ],
        )?;
        for e in 0..10i64 {
            tx.pnew(
                "employee",
                &[
                    ("ename", Value::from(format!("emp-{e}"))),
                    ("deptno", Value::Int(if e == 9 { 99 } else { e % 4 })),
                ],
            )?;
        }
        Ok(())
    })
    .unwrap();
    db
}

fn join_rows(db: &Database) -> Vec<Vec<Oid>> {
    db.transaction(|tx| {
        let mut rows = tx
            .forall_join(&[("e", "employee"), ("d", "department")])
            .unwrap()
            .suchthat("e.deptno == d.dno")
            .unwrap()
            .collect()?;
        rows.sort();
        Ok(rows)
    })
    .unwrap()
}

#[test]
fn probed_join_agrees_with_nested_loop() {
    let plain = company(false);
    let indexed = company(true);
    let a = join_rows(&plain);
    let b = join_rows(&indexed);
    assert_eq!(a.len(), 10, "every employee matches exactly one department");
    assert_eq!(a.len(), b.len());
    // Oids are deterministic (same construction order), so rows compare.
    assert_eq!(a, b);
}

#[test]
fn probe_covers_hierarchy_members() {
    // emp-9 belongs to the lab (a department subclass); the index on
    // `department.dno` covers the deep extent, so the probe must find it.
    let db = company(true);
    db.transaction(|tx| {
        let rows = tx
            .forall_join(&[("e", "employee"), ("d", "department")])?
            .suchthat("e.deptno == d.dno && e.ename == \"emp-9\"")?
            .collect()?;
        assert_eq!(rows.len(), 1);
        let d = rows[0][1];
        assert!(tx.instance_of(d, "lab")?);
        Ok(())
    })
    .unwrap();
}

#[test]
fn probe_sees_in_transaction_changes() {
    let db = company(true);
    db.transaction(|tx| {
        // A new department, uncommitted: the committed index cannot know it.
        let fresh = tx.pnew(
            "department",
            &[("dname", Value::from("fresh")), ("dno", Value::Int(77))],
        )?;
        let e = tx.pnew(
            "employee",
            &[
                ("ename", Value::from("new hire")),
                ("deptno", Value::Int(77)),
            ],
        )?;
        let rows = tx
            .forall_join(&[("e", "employee"), ("d", "department")])?
            .suchthat("e.deptno == d.dno && e.deptno == 77")?
            .collect()?;
        assert_eq!(rows, vec![vec![e, fresh]]);

        // An in-transaction dno change: the stale committed entry must not
        // produce a row, and the new value must.
        let dept1 = tx
            .forall("department")?
            .suchthat("dno == 1")?
            .collect_oids()?[0];
        tx.set(dept1, "dno", 55i64)?;
        let rows = tx
            .forall_join(&[("e", "employee"), ("d", "department")])?
            .suchthat("e.deptno == d.dno && e.deptno == 1")?
            .collect()?;
        assert!(rows.is_empty(), "stale index entry must be filtered");

        // Deleted departments disappear from probes.
        let dept2 = tx
            .forall("department")?
            .suchthat("dno == 2")?
            .collect_oids()?[0];
        tx.pdelete(dept2)?;
        let rows = tx
            .forall_join(&[("e", "employee"), ("d", "department")])?
            .suchthat("e.deptno == d.dno && e.deptno == 2")?
            .collect()?;
        assert!(rows.is_empty());
        Ok(())
    })
    .unwrap();
}

#[test]
fn probe_with_constant_key() {
    // `d.dno == 3` has no earlier-variable references: still probeable.
    let db = company(true);
    db.transaction(|tx| {
        let rows = tx
            .forall_join(&[("e", "employee"), ("d", "department")])?
            .suchthat("d.dno == 3 && e.deptno == d.dno")?
            .collect()?;
        assert_eq!(rows.len(), 2); // emp-3 and emp-7
        Ok(())
    })
    .unwrap();
}

#[test]
fn null_keys_fall_back_to_enumeration() {
    let db = Database::in_memory();
    db.define_from_source(
        r#"
        class parent { string tag; }
        class child { string tag; ref<parent> owner; }
        "#,
    )
    .unwrap();
    db.create_cluster("parent").unwrap();
    db.create_cluster("child").unwrap();
    db.create_index("child", "owner").unwrap();
    db.transaction(|tx| {
        let p = tx.pnew("parent", &[("tag", Value::from("p"))])?;
        tx.pnew(
            "child",
            &[("tag", Value::from("owned")), ("owner", Value::Ref(p))],
        )?;
        tx.pnew("child", &[("tag", Value::from("orphan"))])?; // owner null
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        // Join on the ref field: the owned child matches its parent.
        let rows = tx
            .forall_join(&[("p", "parent"), ("c", "child")])?
            .suchthat("c.owner == p")?
            .collect()?;
        assert_eq!(rows.len(), 1);
        Ok(())
    })
    .unwrap();
}

#[test]
fn three_way_join_with_mixed_probing() {
    // department indexed, project not: middle var probes, last enumerates.
    let db = company(true);
    db.define_from_source("class project { int pdept; string pname; }")
        .unwrap();
    db.create_cluster("project").unwrap();
    db.transaction(|tx| {
        tx.pnew(
            "project",
            &[("pdept", Value::Int(0)), ("pname", Value::from("unix"))],
        )?;
        tx.pnew(
            "project",
            &[("pdept", Value::Int(1)), ("pname", Value::from("c++"))],
        )?;
        Ok(())
    })
    .unwrap();
    db.transaction(|tx| {
        let rows = tx
            .forall_join(&[("e", "employee"), ("d", "department"), ("p", "project")])?
            .suchthat("e.deptno == d.dno && p.pdept == d.dno")?
            .collect()?;
        // Employees in dept 0 (3: emp-0,4,8) and dept 1 (2: emp-1,5) with
        // their single projects: wait — dept 0 has emp 0,4,8 and dept 1 has
        // emp 1,5 (e%4 over 0..9 minus emp-9): dept0={0,4,8}, dept1={1,5}.
        assert_eq!(rows.len(), 5);
        Ok(())
    })
    .unwrap();
}

/// A join's rows, or its error as text.
type Outcome = std::result::Result<Vec<Vec<Oid>>, String>;

/// The join as a nested loop, kept as the reference the planner must
/// match: every tuple of the variables' deep extents, in stream order
/// (outermost variable slowest), tested against the whole predicate; the
/// first error is the statement's.
fn nested_loop<C: ReadContext>(tx: &C, vars: &[(&str, &str)], src: &str) -> Outcome {
    let pred = parse_expr(src).map_err(|e| e.to_string())?;
    let extents: Vec<Vec<(Oid, ObjState)>> = vars
        .iter()
        .map(|(_, class)| {
            let mut members = Vec::new();
            tx.for_each_extent(class, true, &mut |oid, state| {
                members.push((oid, state.clone()));
                Ok(true)
            })
            .map(|()| members)
        })
        .collect::<Result<_>>()
        .map_err(|e| e.to_string())?;
    tx.db().with_schema(|schema| {
        let names: Vec<&str> = vars.iter().map(|(v, _)| *v).collect();
        let pred = bind(schema, &Scope::query(&names), &pred);
        let mut rows = Vec::new();
        let mut at = vec![0usize; vars.len()];
        if extents.iter().any(Vec::is_empty) {
            return Ok(rows);
        }
        loop {
            let bound: Vec<BoundVar<'_>> = at
                .iter()
                .zip(&extents)
                .zip(&names)
                .map(|((&i, extent), name)| BoundVar {
                    name,
                    oid: extent[i].0,
                    state: &extent[i].1,
                })
                .collect();
            let frame = Frame {
                vars: &bound,
                resolver: tx,
                ..Frame::new(schema)
            };
            if pred
                .eval_bool(&frame)
                .map_err(|e| OdeError::from(e).to_string())?
            {
                rows.push(bound.iter().map(|b| b.oid).collect());
            }
            // The next tuple: the innermost variable moves fastest.
            let mut d = vars.len();
            loop {
                if d == 0 {
                    return Ok(rows);
                }
                d -= 1;
                at[d] += 1;
                if at[d] < extents[d].len() {
                    break;
                }
                at[d] = 0;
            }
        }
    })
}

fn planned(tx: &mut impl JoinSource, vars: &[(&str, &str)], src: &str) -> Outcome {
    tx.join(vars, src).map_err(|e| e.to_string())
}

/// The two transaction kinds' join entry points.
trait JoinSource: ReadContext {
    fn join(&mut self, vars: &[(&str, &str)], src: &str) -> Result<Vec<Vec<Oid>>>;
}

impl JoinSource for Transaction<'_> {
    fn join(&mut self, vars: &[(&str, &str)], src: &str) -> Result<Vec<Vec<Oid>>> {
        self.forall_join(vars)?.suchthat(src)?.collect()
    }
}

impl JoinSource for ReadTransaction<'_> {
    fn join(&mut self, vars: &[(&str, &str)], src: &str) -> Result<Vec<Vec<Oid>>> {
        self.forall_join(vars)?.suchthat(src)?.collect()
    }
}

/// Departments 0..3 and two employees: one earning 10 in department 1,
/// one with a null salary in department 42, which does not exist.
fn payroll(index: bool) -> Database {
    let db = Database::in_memory();
    db.define_from_source(
        "class department { string dname; int dno; }
         class employee { string ename; int deptno; int salary; }",
    )
    .unwrap();
    db.create_cluster("department").unwrap();
    db.create_cluster("employee").unwrap();
    if index {
        db.create_index("department", "dno").unwrap();
    }
    db.transaction(|tx| {
        for d in 0..3i64 {
            tx.pnew("department", &[("dno", Value::Int(d))])?;
        }
        tx.pnew(
            "employee",
            &[("deptno", Value::Int(1)), ("salary", Value::Int(10))],
        )?;
        tx.pnew("employee", &[("deptno", Value::Int(42))])?;
        Ok(())
    })
    .unwrap();
    db
}

#[test]
fn an_index_does_not_change_a_joins_outcome() {
    let vars = [("e", "employee"), ("d", "department")];
    let run = |index: bool, src: &str| {
        let db = payroll(index);
        let mut rtx = db.begin_read();
        let plan = planned(&mut rtx, &vars, src);
        assert_eq!(plan, nested_loop(&rtx, &vars, src), "{src}, index: {index}");
        plan
    };
    // The nested loop meets `null > 5` before it finds that department 42
    // does not exist: the statement fails, with the index or without.
    let src = "e.salary > 5 && d.dno == e.deptno";
    let (plain, indexed) = (run(false, src), run(true, src));
    assert_eq!(plain, indexed);
    let err = plain.unwrap_err();
    assert!(err.contains("cannot order null against 5"), "{err}");
    // Written to the right of the key, the salary test is never reached
    // for the employee of department 42: one row, both ways.
    let src = "d.dno == e.deptno && e.salary > 5";
    let (plain, indexed) = (run(false, src), run(true, src));
    assert_eq!(plain, indexed);
    assert_eq!(plain.unwrap().len(), 1);
}

#[test]
fn no_conjunct_right_of_one_that_raised_discards() {
    for index in [false, true] {
        let db = payroll(index);
        db.transaction(|tx| {
            tx.pnew("employee", &[("deptno", Value::Int(2))])?;
            Ok(())
        })
        .unwrap();
        let vars = [("e", "employee"), ("d", "department")];
        let mut rtx = db.begin_read();
        // The new employee matches department 2, and then `null > 2`
        // raises. `d.dno == 7` reads only `d`, yet it may not discard a
        // department before the salary test has run on the pair.
        for src in [
            "d.dno == e.deptno && e.salary > d.dno && d.dno == 7",
            "e.deptno == d.dno && e.salary > d.dno && d.dname == \"x\"",
        ] {
            let plan = planned(&mut rtx, &vars, src);
            assert_eq!(plan, nested_loop(&rtx, &vars, src), "{src}");
            assert!(plan.is_err(), "{src}");
        }
    }
}

#[test]
fn keys_past_two_to_the_53_match_the_nested_loop() {
    // From 2^53 on, `==` between ints and floats is not transitive:
    // 2^53 + 1 and 2^53 both equal the float 2^53, not each other.
    let big = 1i64 << 53;
    let keys = [
        Value::Int(big + 1),
        Value::Float(big as f64),
        Value::Int(big),
        Value::Int(-big),
        Value::Float(-(big as f64)),
        Value::Int(-big - 1),
    ];
    let db = hierarchies();
    db.transaction(|tx| {
        for class in ["r", "p"] {
            for k in &keys {
                tx.pnew(class, &[("k", k.clone())])?;
            }
        }
        Ok(())
    })
    .unwrap();
    let vars = [("x", "p"), ("y", "r")];
    let src = "x.k == y.k";
    for index in [false, true] {
        if index {
            db.create_index("r", "k").unwrap();
        }
        let mut rtx = db.begin_read();
        let want = nested_loop(&rtx, &vars, src);
        assert_eq!(want.as_ref().map(Vec::len), Ok(14), "index: {index}");
        assert_eq!(planned(&mut rtx, &vars, src), want, "index: {index}");
    }
}

#[test]
fn explain_names_each_levels_access() {
    let plain = company(false);
    let indexed = company(true);
    let explain = |db: &Database, src: &str| -> QueryProfile {
        match db.execute(src).unwrap().result {
            ExecResult::Explain(prof) => prof,
            other => panic!("{other:?}"),
        }
    };
    let join = "explain forall e in employee, d in department \
                suchthat (e.deptno == d.dno && e.ename != \"emp-0\")";
    let prof = explain(&plain, join);
    assert_eq!(prof.strategy, PlanStrategy::HashJoin);
    let levels: Vec<String> = prof.levels.iter().map(|l| l.to_string()).collect();
    assert_eq!(
        levels,
        [
            "extent scan + 1 pushed filter",
            "hash build on `d.dno` (5 members built)"
        ]
    );
    // Employees 1..9 each probe once, and the table was streamed once.
    assert_eq!((prof.rows, prof.objects_scanned), (9, 10 + 5));
    // An index on the key changes nothing: the join hash-builds anyway.
    let with_index = explain(&indexed, join);
    assert_eq!(with_index.levels, prof.levels);
    assert_eq!((with_index.rows, with_index.index_probes), (9, 0));
    // No key: the inner variable streams its extent per employee.
    let prof = explain(
        &plain,
        "explain forall e in employee, d in department suchthat (e.deptno <= d.dno)",
    );
    assert_eq!(prof.strategy, PlanStrategy::NestedLoopJoin);
    assert_eq!(prof.levels[1].to_string(), "extent scan");
    assert_eq!(prof.objects_scanned, 10 + 10 * 5);
}

/// Values a key field takes: ints, floats equal to some of them, null and
/// strings.
fn key_value(i: usize) -> Value {
    match i % 8 {
        i @ 0..=2 => Value::Int(i as i64),
        i @ 3..=4 => Value::Float((i - 3) as f64),
        5 => Value::Null,
        6 => Value::from("a"),
        _ => Value::from("b"),
    }
}

/// Values an ordered comparison reads: null and strings raise against an
/// int.
fn ordered_value(i: usize) -> Value {
    match i % 6 {
        i @ 0..=2 => Value::Int(i as i64),
        3 => Value::Null,
        4 => Value::Float(1.5),
        _ => Value::from("x"),
    }
}

/// Two hierarchies, `p` with subclass `q` and `r` with subclass `s`. Only
/// the subclasses have `w`, so reading it on a base-class object raises.
fn hierarchies() -> Database {
    let db = Database::in_memory();
    for (base, sub) in [("p", "q"), ("r", "s")] {
        db.define_class(
            ClassBuilder::new(base)
                .field("k", Type::Any)
                .field("v", Type::Any),
        )
        .unwrap();
        db.define_class(ClassBuilder::new(sub).base(base).field("w", Type::Any))
            .unwrap();
    }
    for class in ["p", "q", "r", "s"] {
        db.create_cluster(class).unwrap();
    }
    db
}

/// An object: (class among p/q/r/s, key, ordered value, `w`).
type Obj = (usize, usize, usize, usize);

fn pnew(tx: &mut Transaction<'_>, (class, k, v, w): Obj) -> Result<Oid> {
    let class = ["p", "q", "r", "s"][class % 4];
    let mut inits = vec![("k", key_value(k)), ("v", ordered_value(v))];
    if class == "q" || class == "s" {
        inits.push(("w", key_value(w)));
    }
    tx.pnew(class, &inits)
}

/// One conjunct over `vars` (names with their classes) from a generated
/// choice: equality keys, constant equalities, single-variable ordered
/// comparisons, constants, subclass-only reads, class tests and `||`.
fn conjunct(vars: &[(&str, &str)], (kind, a, b, lit): (usize, usize, usize, usize)) -> String {
    let n = vars.len();
    let x = vars[a % n].0;
    let y = vars[(a % n + 1 + b % (n - 1)) % n].0;
    let lit_of = |i: usize| ["0", "1", "2", "1.0", "null", "\"a\""][i % 6];
    match kind % 14 {
        0..=3 => format!("{x}.k == {y}.k"),
        4 => format!("{y}.k == {x}.v"),
        5 | 6 => format!("{x}.v > {}", lit % 2),
        7 => format!("{x}.k == {}", lit_of(lit)),
        8 => ["true", "false"][lit % 2].to_string(),
        9 => format!(
            "({} || {})",
            conjunct(vars, (b, a, lit, b)),
            conjunct(vars, (lit, b, a, lit))
        ),
        10 => format!("{x}.w == {}", lit_of(lit)),
        11 => format!("{x} is {}", if vars[a % n].1 == "p" { "q" } else { "s" }),
        12 => format!("{x}.k != {y}.k"),
        _ => format!("{x}.v <= {y}.v"),
    }
}

/// Check every join of `preds` in a snapshot of `db` and, after `ops`, in a
/// write transaction, against the nested loop.
fn check_joins(
    db: &Database,
    preds: &[(Vec<(&str, &str)>, String)],
    live: &[Oid],
    ops: &[(usize, usize, Obj)],
) -> std::result::Result<(), TestCaseError> {
    {
        let mut rtx = db.begin_read();
        for (vars, src) in preds {
            let want = nested_loop(&rtx, vars, src);
            prop_assert_eq!(planned(&mut rtx, vars, src), want, "snapshot: {}", src);
        }
    }
    let mut tx = db.begin();
    let mut live = live.to_vec();
    for &(kind, target, obj) in ops {
        match kind % 3 {
            0 => live.push(pnew(&mut tx, obj).unwrap()),
            _ if live.is_empty() => {}
            1 => {
                let oid = live[target % live.len()];
                let (field, value) = match obj.3 % 2 {
                    0 => ("k", key_value(obj.1)),
                    _ => ("v", ordered_value(obj.2)),
                };
                tx.set(oid, field, value).unwrap();
            }
            _ => tx.pdelete(live.remove(target % live.len())).unwrap(),
        }
    }
    for (vars, src) in preds {
        let want = nested_loop(&tx, vars, src);
        prop_assert_eq!(planned(&mut tx, vars, src), want, "in transaction: {}", src);
    }
    tx.abort();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Differential oracle for the join planner: 2- and 3-variable joins
    /// over deep extents with subclass members, with and without indexes
    /// on the keys, in a snapshot and in a write transaction after random
    /// inserts, updates and deletes, return the nested loop's rows in its
    /// order, or its first error.
    #[test]
    fn join_plans_match_the_nested_loop(
        objects in prop::collection::vec((0usize..4, 0usize..8, 0usize..6, 0usize..8), 0..12),
        two in prop::collection::vec((0usize..14, 0usize..3, 0usize..3, 0usize..6), 1..5),
        three in prop::collection::vec((0usize..14, 0usize..3, 0usize..3, 0usize..6), 1..5),
        ops in prop::collection::vec(
            (0usize..3, 0usize..16, (0usize..4, 0usize..8, 0usize..6, 0usize..8)),
            0..8,
        ),
    ) {
        let db = hierarchies();
        let live = db
            .transaction(|tx| objects.iter().map(|&o| pnew(tx, o)).collect::<Result<Vec<_>>>())
            .unwrap();
        let join = |vars: Vec<(&'static str, &'static str)>, conjuncts: &[(usize, usize, usize, usize)]| {
            let src = conjuncts
                .iter()
                .map(|&c| conjunct(&vars, c))
                .collect::<Vec<_>>()
                .join(" && ");
            (vars, src)
        };
        let preds = [
            join(vec![("x", "p"), ("y", "r")], &two),
            join(vec![("x", "p"), ("y", "r"), ("z", "p")], &three),
        ];
        check_joins(&db, &preds, &live, &ops)?;
        db.create_index("p", "k").unwrap();
        db.create_index("r", "k").unwrap();
        check_joins(&db, &preds, &live, &ops)?;
    }
}
