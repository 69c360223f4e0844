//! `point_lookup`: small indexed reads over the wire against a `MemStore`.
//!
//! The engine's share of a statement is about a quarter here; the wire codec,
//! the server's connection loop, the shell's dispatch and formatting and the
//! analyzer/parse passes are the rest. A front-end change ("parse once", one
//! wire version) must show on this workload and nowhere else, and it is the
//! no-change control for scan-path work.
//!
//! 50 000 `stockitem`s (the paper's §2 example) with an index on `quantity`,
//! `quantity` uniform over as many keys as items. 90 % equality lookups on a
//! uniform key (about one row each); 10 % low-stock reports
//! `quantity < K by (quantity)` with `K` in 5..=15 (about ten rows, sorted).

use std::path::Path;
use std::sync::Arc;

use ode_core::prelude::*;

use crate::rng::Rng;
use crate::workload::{load, Env, Generator, Probe, Ranked, Stmt, Workload};

const ITEMS: usize = 50_000;
pub const SUPPLIERS: [&str; 5] = ["at&t", "western", "ibm", "dec", "xerox"];

pub struct PointLookup {
    env: Env,
    by_quantity: Arc<Ranked<i64>>,
}

/// The `stockitem` class both read-only stock workloads load.
pub fn define_stockitem(db: &Database) {
    db.define_class(
        ClassBuilder::new("stockitem")
            .field("name", Type::Str)
            .field_default("quantity", Type::Int, 0)
            .field_default("price", Type::Float, 1.0)
            .field("supplier", Type::Str),
    )
    .expect("schema");
    db.create_cluster("stockitem").expect("cluster");
}

impl Workload for PointLookup {
    const NAME: &'static str = "point_lookup";
    const CLASSES: &'static [&'static str] = &["point", "low_stock"];
    type Gen = Gen;

    fn setup(seed: u64, _store_dir: &Path) -> PointLookup {
        let mut env = Env::in_memory();
        define_stockitem(&env.db);
        let mut rng = Rng::new(seed, 0);
        let items = load(&env.db, ITEMS, |tx, i| {
            let quantity = rng.below(ITEMS as u64) as i64;
            let oid = tx.pnew(
                "stockitem",
                &[
                    ("name", Value::from(format!("part-{i:07}"))),
                    ("quantity", Value::Int(quantity)),
                    ("price", Value::Float(0.5 + 49.5 * rng.unit())),
                    ("supplier", Value::from(SUPPLIERS[i % SUPPLIERS.len()])),
                ],
            )?;
            Ok((quantity, crate::check::oid_hash(&oid.to_string())))
        });
        env.db.create_index("stockitem", "quantity").expect("index");
        env.serve();
        PointLookup {
            env,
            by_quantity: Arc::new(Ranked::new(items)),
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
            by_quantity: Arc::clone(&self.by_quantity),
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
    by_quantity: Arc<Ranked<i64>>,
}

impl Generator for Gen {
    fn next_stmt(&mut self) -> Stmt {
        if self.rng.below(10) > 0 {
            let k = self.rng.below(ITEMS as u64) as i64;
            Stmt {
                class: 0,
                text: format!("forall s in stockitem suchthat (quantity == {k})"),
                key: k,
                expect: self.by_quantity.equal(k),
            }
        } else {
            let k = self.rng.range(5, 15);
            Stmt {
                class: 1,
                text: format!("forall s in stockitem suchthat (quantity < {k}) by (quantity)"),
                key: k,
                expect: self.by_quantity.below(k),
            }
        }
    }
}
