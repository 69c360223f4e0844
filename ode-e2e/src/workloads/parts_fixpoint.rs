//! `parts_fixpoint`: the paper's recursive part–subpart queries (§3.2)
//! through the embedded library API, one thread, `MemStore`.
//!
//! Fixpoint iteration has no wire statement, so this is the library user's
//! end-to-end. It bypasses wire, server, shell and storage I/O entirely: a
//! delta-driven fixpoint must show here, and any wire or shell change must
//! show no movement.
//!
//! A forest of 200 assemblies of 40 to 300 parts (sizes on a fixed grid, so
//! the latency distribution does not depend on the seed; shapes, shared
//! sub-parts and call order do), about 37 000 `usage` edges indexed on
//! `parent`. 70 % cluster fixpoints (iterate a `reached` cluster that grows
//! during iteration), 30 % set fixpoints (`iterate_set` over a growing
//! set-valued member), from a random assembly's root; the transaction is
//! aborted after each call. The closure size is checked against the
//! generator's own breadth-first count.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;

use ode_core::prelude::*;

use crate::check::{Expect, Reply};
use crate::rng::Rng;
use crate::workload::{load, Env, Executor, Generator, Probe, Stmt, Workload};

const ASSEMBLIES: usize = 200;
const MIN_PARTS: usize = 40;
const MAX_PARTS: usize = 300;

pub struct PartsFixpoint {
    env: Env,
    /// Per assembly: its root part and the size of the root's closure.
    roots: Arc<Vec<(i64, usize)>>,
}

impl Workload for PartsFixpoint {
    const NAME: &'static str = "parts_fixpoint";
    const CLASSES: &'static [&'static str] = &["cluster_fixpoint", "set_fixpoint"];
    const CLIENTS: usize = 1;
    type Gen = Gen;

    fn setup(seed: u64, _store_dir: &Path) -> PartsFixpoint {
        let env = Env::in_memory();
        let db = &env.db;
        db.define_class(
            ClassBuilder::new("usage")
                .field("parent", Type::Int)
                .field("child", Type::Int),
        )
        .expect("schema");
        db.define_class(ClassBuilder::new("reached").field("part", Type::Int))
            .expect("schema");
        db.define_class(ClassBuilder::new("worklist").field_default(
            "parts",
            Type::Set(Box::new(Type::Int)),
            Value::Set(SetValue::new()),
        ))
        .expect("schema");
        for class in ["usage", "reached", "worklist"] {
            db.create_cluster(class).expect("cluster");
        }

        // Each part after the root hangs under a random earlier part of its
        // assembly; one part in ten is also used by a second earlier part, so
        // closures meet the same sub-part along two paths.
        let mut rng = Rng::new(seed, 0);
        let mut edges: Vec<(i64, i64)> = Vec::new();
        let mut roots = Vec::with_capacity(ASSEMBLIES);
        let mut base = 0i64;
        for a in 0..ASSEMBLIES {
            let size = MIN_PARTS + a * (MAX_PARTS - MIN_PARTS) / (ASSEMBLIES - 1);
            let first_edge = edges.len();
            for j in 1..size as i64 {
                edges.push((base + rng.below(j as u64) as i64, base + j));
                if rng.below(10) == 0 {
                    edges.push((base + rng.below(j as u64) as i64, base + j));
                }
            }
            roots.push((base, closure_size(&edges[first_edge..], base, size)));
            base += size as i64;
        }
        load(db, edges.len(), |tx, i| {
            tx.pnew(
                "usage",
                &[
                    ("parent", Value::Int(edges[i].0)),
                    ("child", Value::Int(edges[i].1)),
                ],
            )
        });
        db.create_index("usage", "parent").expect("index");
        PartsFixpoint {
            env,
            roots: Arc::new(roots),
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
            roots: Arc::clone(&self.roots),
        }
    }

    fn probe(&self) -> Probe {
        Probe {
            class: "usage",
            predicate: "child == 4242",
        }
    }

    fn executor(&self) -> Box<dyn Executor + '_> {
        Box::new(Embedded(&self.env.db))
    }
}

/// The model's own count: parts reachable from `root` over one assembly's
/// edges, breadth first.
fn closure_size(edges: &[(i64, i64)], root: i64, parts: usize) -> usize {
    let mut children = vec![Vec::new(); parts];
    for (p, c) in edges {
        children[(p - root) as usize].push((c - root) as usize);
    }
    let mut seen = vec![false; parts];
    seen[0] = true;
    let mut queue = VecDeque::from([0usize]);
    let mut n = 0;
    while let Some(p) = queue.pop_front() {
        n += 1;
        for &c in &children[p] {
            if !std::mem::replace(&mut seen[c], true) {
                queue.push_back(c);
            }
        }
    }
    n
}

pub struct Gen {
    rng: Rng,
    roots: Arc<Vec<(i64, usize)>>,
}

impl Generator for Gen {
    fn next_stmt(&mut self) -> Stmt {
        let class = (self.rng.below(10) >= 7) as usize;
        let (root, closure) = self.roots[self.rng.below(ASSEMBLIES as u64) as usize];
        Stmt {
            class,
            text: format!("{} from part {root}", PartsFixpoint::CLASSES[class]),
            key: root,
            expect: Expect::Closure(closure),
        }
    }
}

/// Runs a fixpoint call through the library API, as an O++ program would.
struct Embedded<'a>(&'a Database);

impl Executor for Embedded<'_> {
    fn run(&mut self, stmt: &Stmt) -> Reply {
        let result = if stmt.class == 0 {
            cluster_fixpoint(self.0, stmt.key)
        } else {
            set_fixpoint(self.0, stmt.key)
        };
        match result {
            Ok(n) => Reply::Output(n.to_string()),
            Err(e) => Reply::Rejected(e.to_string()),
        }
    }
}

fn children(tx: &mut Transaction<'_>, part: i64) -> Result<Vec<Value>> {
    tx.forall("usage")?
        .suchthat(&format!("parent == {part}"))?
        .collect_values("child")
}

/// §3.2 over a cluster: iterate `reached` while the loop body inserts into it.
fn cluster_fixpoint(db: &Database, root: i64) -> Result<usize> {
    let mut tx = db.begin();
    tx.pnew("reached", &[("part", Value::Int(root))])?;
    let visited = tx.forall("reached")?.fixpoint().run(|tx, row| {
        let part = tx.get(row, "part")?.as_int()?;
        for child in children(tx, part)? {
            let known = tx
                .forall("reached")?
                .suchthat(&format!("part == {}", child.as_int()?))?
                .count()?;
            if known == 0 {
                tx.pnew("reached", &[("part", child)])?;
            }
        }
        Ok(())
    })?;
    tx.abort();
    Ok(visited)
}

/// §3.2 over a set: iterate a set-valued member while the body inserts into it.
fn set_fixpoint(db: &Database, root: i64) -> Result<usize> {
    let mut tx = db.begin();
    let worklist = tx.pnew("worklist", &[])?;
    tx.set_insert(worklist, "parts", root)?;
    let visited = tx.iterate_set(worklist, "parts", |tx, part| {
        for child in children(tx, part.as_int()?)? {
            tx.set_insert(worklist, "parts", child)?;
        }
        Ok(())
    })?;
    tx.abort();
    Ok(visited)
}
