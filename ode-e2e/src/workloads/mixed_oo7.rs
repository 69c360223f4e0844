//! `mixed_oo7`: reads beside writes over the wire against a `FileStore`
//! smaller than its data.
//!
//! The same layers as the other workloads, used differently: a working set
//! about three times the buffer pool, checkpoints in the foreground's way,
//! and real optimistic conflicts on a small shared hot set. A scan or commit
//! optimisation that helps its own workload but costs cache misses, gate
//! waits or retries shows up here.
//!
//! 60 000 `part`s of about 120 bytes (≈ 7 MB) behind `pool_pages = 256`
//! (2 MiB), `checkpoint_bytes = 256 KiB` (about ten checkpoint cycles in a
//! ten-second run), fsynced commits, indexes on `sku` and `shelf`.
//!
//! | class | share | statement |
//! |---|---|---|
//! | `point` | 60 % | `sku == K`, uniform over all parts |
//! | `shelf` | 15 % | `shelf == S by (sku)`: the 32 parts of one shelf |
//! | `update` | 18 % | `quantity = quantity + 1` on a part of the client's own half |
//! | `hot` | 2 % | the same on one of 8 parts both clients write |
//! | `pnew` / `delete` | 3 % / 2 % | client-private keys |
//!
//! After the run the directory is reopened and compared with the models; the
//! hot parts must hold exactly the sum of both clients' confirmed increments.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use ode_core::prelude::*;
use ode_storage::filestore::FileStoreOptions;

use crate::check::{oid_hash, Expect, Reply};
use crate::rng::Rng;
use crate::workload::{
    compare_state, load, reopen_and_read, Env, Generator, Probe, Stmt, Workload,
};

const PARTS: usize = 60_000;
const SHELF: usize = 32;
const HOT: usize = 8;
/// Hot parts are the skus divisible by this.
const HOT_STRIDE: usize = PARTS / HOT;
const QUANTITY: i64 = 100;
const CLIENTS: usize = MixedOo7::CLIENTS;

pub struct MixedOo7 {
    env: Env,
    /// Oid hash of base part `sku`.
    oids: Arc<Vec<u64>>,
}

impl Workload for MixedOo7 {
    const NAME: &'static str = "mixed_oo7";
    const CLASSES: &'static [&'static str] = &["point", "shelf", "update", "hot", "pnew", "delete"];
    const FLUSH_POLICY: &'static str = "sync_commits = true (every commit fsynced)";
    type Gen = Gen;

    fn setup(_seed: u64, store_dir: &Path) -> MixedOo7 {
        let mut env = Env::on_disk(
            store_dir,
            FileStoreOptions {
                pool_pages: 256,
                sync_commits: true,
                checkpoint_bytes: 256 << 10,
            },
        );
        let db = &env.db;
        db.define_class(
            ClassBuilder::new("part")
                .field("sku", Type::Int)
                .field("shelf", Type::Int)
                .field("name", Type::Str)
                .field("descr", Type::Str)
                .field_default("quantity", Type::Int, 0),
        )
        .expect("schema");
        db.create_cluster("part").expect("cluster");
        // The data is the same for every seed; the seed shapes the traffic.
        let oids = load(db, PARTS, |tx, sku| {
            let oid = tx.pnew(
                "part",
                &[
                    ("sku", Value::Int(sku as i64)),
                    ("shelf", Value::Int((sku / SHELF) as i64)),
                    ("name", Value::from(format!("part-{sku:07}"))),
                    ("descr", Value::from(format!("{sku:064}"))),
                    ("quantity", Value::Int(QUANTITY)),
                ],
            )?;
            Ok(oid_hash(&oid.to_string()))
        });
        db.create_index("part", "sku").expect("index");
        db.create_index("part", "shelf").expect("index");
        env.serve();
        MixedOo7 {
            env,
            oids: Arc::new(oids),
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
            client,
            oids: Arc::clone(&self.oids),
            increments: HashMap::new(),
            inserted: Vec::new(),
            next_insert: 1_000_000 * (1 + client as i64),
            pending: Op::None,
        }
    }

    fn probe(&self) -> Probe {
        Probe {
            class: "part",
            predicate: "quantity > 100",
        }
    }

    fn finish(self, gens: Vec<Gen>) -> Vec<String> {
        let mut errors = Vec::new();
        let found = reopen_and_read(self.env, &[("part", &["sku", "quantity"])], &mut errors);
        let mut expected: HashMap<i64, Vec<i64>> =
            (0..PARTS as i64).map(|sku| (sku, vec![QUANTITY])).collect();
        for g in &gens {
            for (sku, n) in &g.increments {
                expected.get_mut(sku).expect("base part")[0] += n;
            }
            for sku in &g.inserted {
                expected.insert(*sku, vec![QUANTITY]);
            }
        }
        compare_state("part", &found[0], &expected, &mut errors);
        errors
    }
}

/// The model change a statement makes once its reply is confirmed.
enum Op {
    None,
    Increment(i64),
    Insert(i64),
    Remove(usize),
}

pub struct Gen {
    rng: Rng,
    client: usize,
    oids: Arc<Vec<u64>>,
    /// Confirmed increments by this client, per sku (own half and hot set).
    increments: HashMap<i64, i64>,
    inserted: Vec<i64>,
    next_insert: i64,
    pending: Op,
}

impl Gen {
    fn increment(&mut self, class: usize, sku: i64) -> Stmt {
        self.pending = Op::Increment(sku);
        Stmt {
            class,
            text: format!("update p in part suchthat (sku == {sku}) set quantity = quantity + 1"),
            key: sku,
            expect: Expect::Updated {
                count: 1,
                enqueued: 0,
            },
        }
    }
}

impl Generator for Gen {
    fn next_stmt(&mut self) -> Stmt {
        self.pending = Op::None;
        let roll = self.rng.below(100);
        match roll {
            0..=59 => {
                let sku = self.rng.below(PARTS as u64) as usize;
                Stmt {
                    class: 0,
                    text: format!("forall p in part suchthat (sku == {sku})"),
                    key: sku as i64,
                    expect: Expect::Rows {
                        count: 1,
                        oid_sum: self.oids[sku],
                    },
                }
            }
            60..=74 => {
                let shelf = self.rng.below((PARTS / SHELF) as u64) as usize;
                let on_shelf = &self.oids[shelf * SHELF..(shelf + 1) * SHELF];
                Stmt {
                    class: 1,
                    text: format!("forall p in part suchthat (shelf == {shelf}) by (sku)"),
                    key: shelf as i64,
                    expect: Expect::Rows {
                        count: SHELF,
                        oid_sum: on_shelf.iter().fold(0, |acc, h| acc.wrapping_add(*h)),
                    },
                }
            }
            75..=92 => loop {
                // The client's own half: skus congruent to it modulo the
                // client count, hot parts excluded.
                let sku = self.rng.below((PARTS / CLIENTS) as u64) as usize * CLIENTS + self.client;
                if !sku.is_multiple_of(HOT_STRIDE) {
                    break self.increment(2, sku as i64);
                }
            },
            93..=94 => {
                let sku = self.rng.below(HOT as u64) as usize * HOT_STRIDE;
                self.increment(3, sku as i64)
            }
            _ if roll <= 97 || self.inserted.is_empty() => {
                let sku = self.next_insert;
                self.next_insert += 1;
                self.pending = Op::Insert(sku);
                Stmt {
                    class: 4,
                    text: format!(
                        "pnew part (sku = {sku}, shelf = -1, name = \"new-{sku}\", \
                         descr = \"{sku:064}\", quantity = {QUANTITY})"
                    ),
                    key: sku,
                    expect: Expect::Created,
                }
            }
            _ => {
                let slot = self.rng.below(self.inserted.len() as u64) as usize;
                let sku = self.inserted[slot];
                self.pending = Op::Remove(slot);
                Stmt {
                    class: 5,
                    text: format!("delete p in part suchthat (sku == {sku})"),
                    key: sku,
                    expect: Expect::Deleted(1),
                }
            }
        }
    }

    fn confirmed(&mut self, _reply: &Reply) {
        match std::mem::replace(&mut self.pending, Op::None) {
            Op::None => {}
            Op::Increment(sku) => *self.increments.entry(sku).or_insert(0) += 1,
            Op::Insert(sku) => self.inserted.push(sku),
            Op::Remove(slot) => {
                self.inserted.swap_remove(slot);
            }
        }
    }
}
