//! `extent_query`: unindexed scans, a hierarchy scan and a join over the
//! wire against a `MemStore`.
//!
//! More than nine tenths of a statement is the engine: heap scan, object
//! decode, predicate evaluation. The wire is noise except on `sel_20`, where
//! formatting and encoding 4 000 rows takes over. Scan-path work (slot
//! resolution, decode-skipping, join fusion) must show here; `point_lookup`
//! is its no-change control.
//!
//! Data: 20 000 `stockitem`s with no index; the §3.1.1 hierarchy
//! person / student / faculty / teaching_assistant, 2 500 each; 50
//! `department`s and 1 000 `employee`s (§3.1) joined by nested loop.
//!
//! | class | share | statement | rows |
//! |---|---|---|---|
//! | `sel_0.01` | 40 % | `name == "part-…"` | 1 of 20 000 |
//! | `sel_1` | 25 % | `price < P`, `P` in 0.9..1.1 | about 1 % |
//! | `sel_20` | 5 % | `supplier == "…"` | 4 000 |
//! | `hier_is` | 20 % | `p is student && income > X` over the deep `person` extent | 0–11 % of 5 000 |
//! | `join` | 10 % | `e.deptno == d.dno && e.salary > S` | 5–20 pairs of 50 000 |

use std::path::Path;
use std::sync::Arc;

use ode_core::prelude::*;

use crate::check::{oid_hash, Expect};
use crate::rng::Rng;
use crate::workload::{load, Env, Generator, Probe, Ranked, Stmt, Workload};
use crate::workloads::point_lookup::{define_stockitem, SUPPLIERS};

const ITEMS: usize = 20_000;
const PER_CLASS: usize = 2_500;
const DEPARTMENTS: usize = 50;
const EMPLOYEES: usize = 1_000;

struct Model {
    /// Oid hash of `part-{i:07}`.
    by_name: Vec<u64>,
    by_price: Ranked<f64>,
    by_supplier: Vec<Expect>,
    /// Students and teaching assistants: the objects `p is student` admits.
    students_by_income: Ranked<i64>,
    /// Employees with the hash of the (employee, department) pair they join to.
    pairs_by_salary: Ranked<i64>,
}

pub struct ExtentQuery {
    env: Env,
    model: Arc<Model>,
}

impl Workload for ExtentQuery {
    const NAME: &'static str = "extent_query";
    const CLASSES: &'static [&'static str] = &["sel_0.01", "sel_1", "sel_20", "hier_is", "join"];
    type Gen = Gen;

    fn setup(seed: u64, _store_dir: &Path) -> ExtentQuery {
        let mut env = Env::in_memory();
        let db = &env.db;
        let mut rng = Rng::new(seed, 0);

        define_stockitem(db);
        let items = load(db, ITEMS, |tx, i| {
            let price = 0.5 + 49.5 * rng.unit();
            let oid = tx.pnew(
                "stockitem",
                &[
                    ("name", Value::from(format!("part-{i:07}"))),
                    ("quantity", Value::Int(rng.below(ITEMS as u64) as i64)),
                    ("price", Value::Float(price)),
                    ("supplier", Value::from(SUPPLIERS[i % SUPPLIERS.len()])),
                ],
            )?;
            Ok((price, oid_hash(&oid.to_string())))
        });
        let by_supplier = (0..SUPPLIERS.len())
            .map(|s| {
                let of_s = items.iter().skip(s).step_by(SUPPLIERS.len());
                Expect::Rows {
                    count: of_s.clone().count(),
                    oid_sum: of_s.fold(0, |acc, (_, h)| acc.wrapping_add(*h)),
                }
            })
            .collect();

        db.define_class(
            ClassBuilder::new("person")
                .field("name", Type::Str)
                .field_default("income", Type::Int, 0),
        )
        .expect("schema");
        db.define_class(ClassBuilder::new("student").base("person").field_default(
            "stipend",
            Type::Int,
            0,
        ))
        .expect("schema");
        db.define_class(ClassBuilder::new("faculty").base("person").field_default(
            "salary",
            Type::Int,
            0,
        ))
        .expect("schema");
        db.define_class(
            ClassBuilder::new("teaching_assistant")
                .base("student")
                .base("faculty"),
        )
        .expect("schema");
        const PEOPLE: [&str; 4] = ["person", "student", "faculty", "teaching_assistant"];
        for class in PEOPLE {
            db.create_cluster(class).expect("cluster");
        }
        let people = load(db, 4 * PER_CLASS, |tx, i| {
            let class = PEOPLE[i % 4];
            let income = rng.range(10_000, 99_999);
            let oid = tx.pnew(
                class,
                &[
                    ("name", Value::from(format!("{class}-{i}"))),
                    ("income", Value::Int(income)),
                ],
            )?;
            Ok((class, income, oid_hash(&oid.to_string())))
        });
        let students = people
            .into_iter()
            .filter(|(class, ..)| *class == "student" || *class == "teaching_assistant")
            .map(|(_, income, h)| (income, h))
            .collect();

        db.define_class(
            ClassBuilder::new("department")
                .field("dname", Type::Str)
                .field("dno", Type::Int),
        )
        .expect("schema");
        db.define_class(
            ClassBuilder::new("employee")
                .field("ename", Type::Str)
                .field("deptno", Type::Int)
                .field_default("salary", Type::Int, 0),
        )
        .expect("schema");
        db.create_cluster("department").expect("cluster");
        db.create_cluster("employee").expect("cluster");
        let departments = load(db, DEPARTMENTS, |tx, d| {
            let oid = tx.pnew(
                "department",
                &[
                    ("dname", Value::from(format!("dept-{d}"))),
                    ("dno", Value::Int(d as i64)),
                ],
            )?;
            Ok(oid_hash(&oid.to_string()))
        });
        let pairs = load(db, EMPLOYEES, |tx, e| {
            let d = rng.below(DEPARTMENTS as u64) as usize;
            let salary = rng.range(0, 999);
            let oid = tx.pnew(
                "employee",
                &[
                    ("ename", Value::from(format!("emp-{e}"))),
                    ("deptno", Value::Int(d as i64)),
                    ("salary", Value::Int(salary)),
                ],
            )?;
            Ok((
                salary,
                oid_hash(&oid.to_string()).wrapping_add(departments[d]),
            ))
        });

        let model = Model {
            by_name: items.iter().map(|(_, h)| *h).collect(),
            by_price: Ranked::new(items),
            by_supplier,
            students_by_income: Ranked::new(students),
            pairs_by_salary: Ranked::new(pairs),
        };
        env.serve();
        ExtentQuery {
            env,
            model: Arc::new(model),
        }
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn into_env(self) -> Env {
        self.env
    }

    fn generator(&self, client: usize, seed: u64) -> Gen {
        Gen {
            rng: Rng::new(seed, 1 + client as u64),
            model: Arc::clone(&self.model),
        }
    }

    fn probe(&self) -> Probe {
        Probe {
            class: "stockitem",
            predicate: "price < 1.0",
        }
    }
}

pub struct Gen {
    rng: Rng,
    model: Arc<Model>,
}

impl Generator for Gen {
    fn next_stmt(&mut self) -> Stmt {
        let m = &self.model;
        match self.rng.below(100) {
            0..=39 => {
                let i = self.rng.below(ITEMS as u64) as usize;
                Stmt {
                    class: 0,
                    text: format!("forall s in stockitem suchthat (name == \"part-{i:07}\")"),
                    key: i as i64,
                    expect: Expect::Rows {
                        count: 1,
                        oid_sum: m.by_name[i],
                    },
                }
            }
            40..=64 => {
                let milli = self.rng.range(900, 1100);
                let text = format!(
                    "forall s in stockitem suchthat (price < {}.{:03})",
                    milli / 1000,
                    milli % 1000
                );
                Stmt {
                    class: 1,
                    text,
                    key: milli,
                    expect: m.by_price.below(milli as f64 / 1000.0),
                }
            }
            65..=69 => {
                let s = self.rng.below(SUPPLIERS.len() as u64) as usize;
                Stmt {
                    class: 2,
                    text: format!(
                        "forall s in stockitem suchthat (supplier == \"{}\")",
                        SUPPLIERS[s]
                    ),
                    key: s as i64,
                    expect: m.by_supplier[s].clone(),
                }
            }
            70..=89 => {
                let x = self.rng.range(90_000, 99_999);
                Stmt {
                    class: 3,
                    text: format!("forall p in person suchthat (p is student && income > {x})"),
                    key: x,
                    expect: m.students_by_income.above(x),
                }
            }
            _ => {
                let s = self.rng.range(980, 995);
                Stmt {
                    class: 4,
                    text: format!(
                        "forall e in employee, d in department \
                         suchthat (e.deptno == d.dno && e.salary > {s})"
                    ),
                    key: s,
                    expect: m.pairs_by_salary.above(s),
                }
            }
        }
    }
}
