//! `stock_write`: single-object writes over the wire against a `FileStore`.
//!
//! The commit path's own work and as little else as this engine allows:
//! validate → WAL append → apply → index maintenance → trigger enqueue →
//! scheduler drain.
//!
//! The WAL is written but not fsynced (`sync_commits = false`). On this host
//! an fsync costs 0.1–0.6 ms and shifts by a factor of two for minutes at a
//! time; with fsync on it was three quarters of every statement and all of
//! the run-to-run spread (0.33 to 0.47, above any bound). `mixed_oo7` keeps
//! fsynced commits.
//!
//! The two clients own disjoint keys. That alone does not make optimistic
//! conflicts zero here: a `pnew` and a trigger action are unranged writes and
//! stamp their whole cluster, so any statement of the other client that
//! probed that cluster since it began loses validation. Inserts and deletes
//! therefore go to a cluster of their own (`shipment`), which leaves the rare
//! delete-beside-insert and update-beside-action overlaps — under 2 % of
//! commits (`core.txn.conflicts_per_commit`), against 18 % with inserts in
//! the updated cluster — and the numbers repeat.
//!
//! 20 000 `stockitem`s (§2, §5, §6) in a `FileStore` with the default 32 MiB
//! pool (the data fits) and the default 16 MiB checkpoint threshold, indexed
//! on `sku` and `quantity`, with `constraint: quantity >= 0` and a perpetual
//! `reorder` trigger armed on every item; `Server::bind` attaches the
//! scheduler that runs the fired actions. `shipment`s are indexed on `id`.
//!
//! | class | share | statement |
//! |---|---|---|
//! | `update` | 57 % | `update … (sku == K) set quantity = quantity - d`, `d` in 1..=10; 1 in 20 crosses `reorder_level` and fires |
//! | `restocked` | 3 % | read a fired item back: `forall … (sku == K && quantity > reorder_level)` |
//! | `pnew` | 25 % | record a `shipment` under a client-private id |
//! | `delete` | 10 % | cancel one of the client's own shipments |
//! | `violate` | 5 % | an update that drives `quantity` negative and must abort (§5) |
//!
//! The load is the same for as long as it runs. A fired item's action adds
//! `RESTOCK` back at a moment the client cannot see, so the client sets the
//! item aside, lets [`COOLING`] of its own statements pass, and reads it back
//! in an update's place: restocked items return to the pool with the model
//! credited, the others wait another turn. Quantities start where this cycle
//! keeps them, uniform over `reorder_level + 1 ..= reorder_level + RESTOCK`,
//! so the share of updates that fire (`mean take / RESTOCK` = 5 %) is the same
//! in the first second as in the last.
//!
//! After the run: the scheduler must go idle, every fired action must have
//! run exactly once (`restocks`), and the directory, reopened, must hold
//! exactly what the models say.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

use ode_core::prelude::*;
use ode_storage::filestore::FileStoreOptions;

use crate::check::{oid_hash, parse_rows, Expect, Reply};
use crate::rng::Rng;
use crate::workload::{
    compare_state, load, reopen_and_read, Env, Generator, Probe, Stmt, Workload,
};

const ITEMS: usize = 20_000;
const REORDER_LEVEL: i64 = 100;
/// What a fired `reorder` adds back.
const RESTOCK: i64 = 110;
/// An update takes `1..=MAX_TAKE` units.
const MAX_TAKE: i64 = 10;
const UNITS: i64 = 12;
/// Statements a client sends between an item's firing and its read-back. The
/// scheduler runs an action within a statement or two of its enqueue, so
/// nearly every read-back finds the item restocked.
const COOLING: u64 = 64;

/// A base item as loaded.
struct Loaded {
    quantity: i64,
    /// [`oid_hash`] of the item's object id.
    oid: u64,
}

pub struct StockWrite {
    env: Env,
    /// Base item `sku`.
    loaded: Arc<Vec<Loaded>>,
}

impl Workload for StockWrite {
    const NAME: &'static str = "stock_write";
    const CLASSES: &'static [&'static str] = &["update", "restocked", "pnew", "delete", "violate"];
    const FLUSH_POLICY: &'static str = "sync_commits = false (WAL written, not fsynced)";
    type Gen = Gen;

    fn setup(seed: u64, store_dir: &Path) -> StockWrite {
        let mut env = Env::on_disk(
            store_dir,
            FileStoreOptions {
                sync_commits: false,
                ..FileStoreOptions::default()
            },
        );
        let db = &env.db;
        db.define_class(
            ClassBuilder::new("stockitem")
                .field("sku", Type::Int)
                .field("name", Type::Str)
                .field_default("quantity", Type::Int, 0)
                .field_default("reorder_level", Type::Int, 0)
                .field_default("restocks", Type::Int, 0)
                .constraint("quantity >= 0")
                .trigger("reorder", &["n"], true, "quantity <= reorder_level")
                .action_assign("quantity", "quantity + $n")
                .action_assign("restocks", "restocks + 1"),
        )
        .expect("schema");
        db.define_class(
            ClassBuilder::new("shipment")
                .field("id", Type::Int)
                .field("sku", Type::Int)
                .field_default("units", Type::Int, 0),
        )
        .expect("schema");
        db.create_cluster("stockitem").expect("cluster");
        db.create_cluster("shipment").expect("cluster");
        let mut rng = Rng::new(seed, 0);
        let loaded = load(db, ITEMS, |tx, sku| {
            let quantity = REORDER_LEVEL + rng.range(1, RESTOCK);
            let oid = tx.pnew(
                "stockitem",
                &[
                    ("sku", Value::Int(sku as i64)),
                    ("name", Value::from(format!("part-{sku:07}"))),
                    ("quantity", Value::Int(quantity)),
                    ("reorder_level", Value::Int(REORDER_LEVEL)),
                ],
            )?;
            tx.activate_trigger(oid, "reorder", vec![Value::Int(RESTOCK)])?;
            Ok(Loaded {
                quantity,
                oid: oid_hash(&oid.to_string()),
            })
        });
        db.create_index("stockitem", "sku").expect("index");
        db.create_index("stockitem", "quantity").expect("index");
        db.create_index("shipment", "id").expect("index");
        env.serve();
        StockWrite {
            env,
            loaded: Arc::new(loaded),
        }
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn into_env(self) -> Env {
        self.env
    }

    fn generator(&self, client: usize, seed: u64) -> Gen {
        Gen::new(client, seed, &self.loaded)
    }

    fn probe(&self) -> Probe {
        Probe {
            class: "stockitem",
            predicate: "quantity <= reorder_level",
        }
    }

    fn finish(self, gens: Vec<Gen>) -> Vec<String> {
        let mut errors = Vec::new();
        let found = reopen_and_read(
            self.env,
            &[
                ("stockitem", &["sku", "quantity", "restocks"]),
                ("shipment", &["id", "units"]),
            ],
            &mut errors,
        );
        let (mut items, mut shipments) = (HashMap::new(), HashMap::new());
        for g in &gens {
            items.extend(g.settled());
            for id in &g.shipments {
                shipments.insert(*id, vec![UNITS]);
            }
        }
        compare_state("stockitem", &found[0], &items, &mut errors);
        compare_state("shipment", &found[1], &shipments, &mut errors);
        errors
    }
}

struct Item {
    sku: i64,
    oid: u64,
    /// The quantity every confirmed reply so far accounts for.
    quantity: i64,
    /// Times the `reorder` trigger fired on this item.
    fired: i64,
}

/// The model change a statement makes once its reply is confirmed.
enum Op {
    None,
    Take {
        /// Where in `pickable` the item sits.
        slot: usize,
        item: usize,
        by: i64,
        fires: bool,
    },
    /// Of the item at the front of `cooling`.
    ReadBack,
    Insert(i64),
    Remove(usize),
}

pub struct Gen {
    rng: Rng,
    own: Vec<Item>,
    /// Indices into `own` of the items whose quantity the model knows.
    pickable: Vec<usize>,
    /// Fired items whose restock the model has not seen yet, oldest first,
    /// each with the statement count from which it may be read back.
    cooling: VecDeque<(usize, u64)>,
    /// Statements generated so far.
    sent: u64,
    /// Ids of this client's live shipments.
    shipments: Vec<i64>,
    next_shipment: i64,
    pending: Op,
}

impl Gen {
    fn new(client: usize, seed: u64, loaded: &[Loaded]) -> Gen {
        let own: Vec<Item> = (client..loaded.len())
            .step_by(StockWrite::CLIENTS)
            .map(|sku| Item {
                sku: sku as i64,
                oid: loaded[sku].oid,
                quantity: loaded[sku].quantity,
                fired: 0,
            })
            .collect();
        Gen {
            rng: Rng::new(seed, 1 + client as u64),
            pickable: (0..own.len()).collect(),
            own,
            cooling: VecDeque::new(),
            sent: 0,
            shipments: Vec::new(),
            next_shipment: 1_000_000 * (1 + client as i64),
            pending: Op::None,
        }
    }

    /// `sku → [quantity, restocks]` of the client's items once the scheduler
    /// has gone idle: each firing's action ran exactly once, those of the
    /// items still set aside included.
    fn settled(&self) -> HashMap<i64, Vec<i64>> {
        let mut items: HashMap<i64, Vec<i64>> = self
            .own
            .iter()
            .map(|item| (item.sku, vec![item.quantity, item.fired]))
            .collect();
        for (item, _) in &self.cooling {
            items.get_mut(&self.own[*item].sku).expect("own item")[0] += RESTOCK;
        }
        items
    }

    /// Any of the client's items, set aside or not.
    fn any_sku(&mut self) -> i64 {
        self.own[self.rng.below(self.own.len() as u64) as usize].sku
    }

    /// Read the item set aside longest back, if its turn has come or there
    /// is nothing left to update.
    fn read_back(&mut self) -> Option<Stmt> {
        let &(item, due) = self.cooling.front()?;
        if due > self.sent && !self.pickable.is_empty() {
            return None;
        }
        self.pending = Op::ReadBack;
        let Item { sku, oid, .. } = self.own[item];
        Some(Stmt {
            class: 1,
            text: format!(
                "forall s in stockitem suchthat (sku == {sku} && quantity > {REORDER_LEVEL})"
            ),
            key: sku,
            expect: Expect::ZeroOrOne { oid_sum: oid },
        })
    }

    fn take(&mut self) -> Stmt {
        let slot = self.rng.below(self.pickable.len() as u64) as usize;
        let item = self.pickable[slot];
        let by = self.rng.range(1, MAX_TAKE);
        let Item { sku, quantity, .. } = self.own[item];
        let fires = quantity - by <= REORDER_LEVEL;
        self.pending = Op::Take {
            slot,
            item,
            by,
            fires,
        };
        Stmt {
            class: 0,
            text: format!(
                "update s in stockitem suchthat (sku == {sku}) set quantity = quantity - {by}"
            ),
            key: sku,
            expect: Expect::Updated {
                count: 1,
                enqueued: fires as usize,
            },
        }
    }
}

impl Generator for Gen {
    fn next_stmt(&mut self) -> Stmt {
        self.sent += 1;
        self.pending = Op::None;
        let roll = self.rng.below(100);
        if roll < 60 {
            // `pickable` and `cooling` hold every item between them, so one
            // of the two has something to offer.
            match self.read_back() {
                Some(stmt) => stmt,
                None => self.take(),
            }
        } else if roll < 85 || (roll < 95 && self.shipments.is_empty()) {
            let id = self.next_shipment;
            self.next_shipment += 1;
            self.pending = Op::Insert(id);
            let sku = self.any_sku();
            Stmt {
                class: 2,
                text: format!("pnew shipment (id = {id}, sku = {sku}, units = {UNITS})"),
                key: id,
                expect: Expect::Created,
            }
        } else if roll < 95 {
            let slot = self.rng.below(self.shipments.len() as u64) as usize;
            let id = self.shipments[slot];
            self.pending = Op::Remove(slot);
            Stmt {
                class: 3,
                text: format!("delete s in shipment suchthat (id == {id})"),
                key: id,
                expect: Expect::Deleted(1),
            }
        } else {
            // Short by far more than a restock adds, whether or not the
            // item's action has run yet.
            let sku = self.any_sku();
            Stmt {
                class: 4,
                text: format!(
                    "update s in stockitem suchthat (sku == {sku}) \
                     set quantity = quantity - 1000000"
                ),
                key: sku,
                expect: Expect::ConstraintAbort,
            }
        }
    }

    fn confirmed(&mut self, reply: &Reply) {
        match std::mem::replace(&mut self.pending, Op::None) {
            Op::None => {}
            Op::Take {
                slot,
                item,
                by,
                fires,
            } => {
                self.own[item].quantity -= by;
                if fires {
                    self.own[item].fired += 1;
                    self.pickable.swap_remove(slot);
                    self.cooling.push_back((item, self.sent + COOLING));
                }
            }
            Op::ReadBack => {
                let (item, _) = self.cooling.pop_front().expect("the item read back");
                let restocked = matches!(reply, Reply::Output(out)
                    if matches!(parse_rows(out), Some((1, _))));
                if restocked {
                    self.own[item].quantity += RESTOCK;
                    self.pickable.push(item);
                } else {
                    self.cooling.push_back((item, self.sent + COOLING));
                }
            }
            Op::Insert(id) => self.shipments.push(id),
            Op::Remove(slot) => {
                self.shipments.swap_remove(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Applied;

    /// Drive one client's generator far past what a run can reach against a
    /// stand-in for the engine that applies each update and runs a fired
    /// item's action a few statements later, sometimes after the read-back.
    #[test]
    fn the_load_never_drains_and_stays_the_same() {
        const STATEMENTS: u64 = 2_000_000;
        let mut rng = Rng::new(9, 0);
        let loaded: Vec<Loaded> = (0..ITEMS)
            .map(|sku| Loaded {
                quantity: REORDER_LEVEL + rng.range(1, RESTOCK),
                oid: sku as u64,
            })
            .collect();
        let mut gen = Gen::new(0, 9, &loaded);
        let mut stored: HashMap<i64, (i64, i64)> = gen
            .own
            .iter()
            .map(|item| (item.sku, (item.quantity, 0)))
            .collect();
        // Fired actions yet to run: `(statement they run at, sku)`, in order.
        let mut actions: VecDeque<(u64, i64)> = VecDeque::new();
        let (mut updates, mut fires) = ([0u64; 10], [0u64; 10]);
        let mut early_read_backs = 0;
        for n in 0..STATEMENTS {
            while actions.front().is_some_and(|(at, _)| *at <= n) {
                let (_, sku) = actions.pop_front().expect("front");
                let item = stored.get_mut(&sku).expect("own item");
                *item = (item.0 + RESTOCK, item.1 + 1);
            }
            let stmt = gen.next_stmt();
            let pending = actions.iter().any(|(_, sku)| *sku == stmt.key);
            let reply = match StockWrite::CLASSES[stmt.class] {
                "update" => {
                    assert!(!pending, "`{}` races the item's restock", stmt.text);
                    let by: i64 = stmt.text.rsplit(' ').next().unwrap().parse().unwrap();
                    let item = stored.get_mut(&stmt.key).expect("own item");
                    item.0 -= by;
                    let fired = item.0 <= REORDER_LEVEL;
                    if fired {
                        // Usually within the cooling time, now and then not.
                        let lag = if n % 7 == 3 { 3 * COOLING } else { 2 };
                        actions.push_back((n + lag, stmt.key));
                        actions.make_contiguous().sort();
                    }
                    let tenth = (n * 10 / STATEMENTS) as usize;
                    updates[tenth] += 1;
                    fires[tenth] += fired as u64;
                    Reply::Applied(Applied::Updated {
                        count: 1,
                        enqueued: fired as usize,
                    })
                }
                "restocked" => {
                    early_read_backs += pending as u64;
                    Reply::Output(format!("{} row(s)", !pending as usize))
                }
                _ => Reply::Output(String::new()),
            };
            if matches!(stmt.expect, Expect::Updated { .. }) {
                crate::check::check(&stmt.expect, &reply).expect("the model predicts the firing");
            }
            gen.confirmed(&reply);
            assert!(
                gen.cooling.len() < 64,
                "items pile up waiting to be read back"
            );
        }
        assert!(early_read_backs > 0, "no read-back came before its restock");
        assert!(updates.iter().sum::<u64>() > 1_000_000);
        for tenth in 0..10 {
            let share = fires[tenth] as f64 / updates[tenth] as f64;
            assert!(
                (0.045..0.055).contains(&share),
                "tenth {tenth}: {share:.4} of updates fire"
            );
        }
        while let Some((_, sku)) = actions.pop_front() {
            let item = stored.get_mut(&sku).expect("own item");
            *item = (item.0 + RESTOCK, item.1 + 1);
        }
        let settled = gen.settled();
        assert_eq!(settled.len(), stored.len());
        for (sku, (quantity, restocks)) in stored {
            assert_eq!(settled[&sku], vec![quantity, restocks], "sku {sku}");
        }
    }
}
