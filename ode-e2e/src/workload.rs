//! What a workload is: a seeded set-up, per-client statement generators that
//! carry the in-memory model their answers are checked against, a way to
//! execute one statement, and a final check of what only the end state shows.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ode_core::prelude::*;
use ode_server::client::{Client, ClientError, RemoteLine};
use ode_server::wire::client::RetryPolicy;
use ode_server::{Server, ServerConfig, ServerHandle};
use ode_storage::filestore::FileStoreOptions;
use ode_storage::{FileStore, MemStore, Store};

use crate::check::{Expect, Reply};

/// One generated statement with the answer the model expects.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Index into the workload's `CLASSES`.
    pub class: usize,
    /// The statement as sent (or, for the embedded workload, as described).
    pub text: String,
    /// The generated key the statement is about (root part, sku, ...).
    pub key: i64,
    /// What must come back.
    pub expect: Expect,
}

/// A seeded statement stream plus the model that knows its answers.
pub trait Generator: Send {
    /// The next statement. The same seed gives the same stream as long as
    /// every reply agrees with the model.
    fn next_stmt(&mut self) -> Stmt;

    /// `reply`, to the statement generated last, agreed with its
    /// expectation: fold the statement into the model.
    fn confirmed(&mut self, _reply: &Reply) {}
}

/// Executes one statement against the system under test.
pub trait Executor {
    fn run(&mut self, stmt: &Stmt) -> Reply;
}

/// The system under test for one workload: the engine, the store handle the
/// per-layer probes scan, and the server in front of it.
pub struct Env {
    pub db: Arc<Database>,
    pub store: Arc<dyn Store>,
    pub server: Option<ServerHandle>,
    /// The `FileStore` directory, removed on [`Env::close`].
    pub dir: Option<PathBuf>,
}

impl Env {
    /// An engine over a fresh in-memory store.
    pub fn in_memory() -> Env {
        let store: Arc<dyn Store> = Arc::new(MemStore::new());
        Env::over(store, None)
    }

    /// An engine over a fresh `FileStore` in `dir`.
    pub fn on_disk(dir: &Path, opts: FileStoreOptions) -> Env {
        let _ = std::fs::remove_dir_all(dir);
        let store: Arc<dyn Store> = Arc::new(FileStore::open_with(dir, opts).expect("open store"));
        Env::over(store, Some(dir.to_path_buf()))
    }

    fn over(store: Arc<dyn Store>, dir: Option<PathBuf>) -> Env {
        let db = Database::from_store(Arc::clone(&store), DbConfig::default()).expect("open db");
        Env {
            db: Arc::new(db),
            store,
            server: None,
            dir,
        }
    }

    /// Put a server (and with it the trigger scheduler) in front of the engine.
    pub fn serve(&mut self) {
        let handle = Server::bind(Arc::clone(&self.db), ServerConfig::default(), "127.0.0.1:0")
            .expect("bind server");
        self.server = Some(handle);
    }

    /// Drain and stop the server. Returns an error line if a connection was
    /// still open when the drain budget ran out.
    pub fn stop_server(&mut self) -> Option<String> {
        let report = self.server.take()?.shutdown();
        (!report.drained).then(|| format!("server did not drain: {report:?}"))
    }

    /// Stop everything and delete the store directory.
    pub fn close(mut self) {
        self.stop_server();
        let dir = self.dir.take();
        drop(self);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Restart-durability check for the `FileStore` workloads: drain the
/// scheduler, stop the server, drop the engine, reopen the directory and read
/// every object of each `(class, fields)` back as `fields[0]` (its key) → the
/// other fields, one map per class. Problems on the way are pushed to
/// `errors`. Removes the directory.
pub fn reopen_and_read(
    mut env: Env,
    classes: &[(&str, &[&str])],
    errors: &mut Vec<String>,
) -> Vec<HashMap<i64, Vec<i64>>> {
    if let Some(server) = &env.server {
        if !server.scheduler().wait_idle(Duration::from_secs(20)) {
            errors.push("scheduler did not go idle within 20 s".into());
        }
    }
    errors.extend(env.stop_server());
    let dir = env.dir.take().expect("durable workload");
    let Env { db, store, .. } = env;
    drop(store);
    // Connection threads let go of the engine a moment after the drain.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Arc::strong_count(&db) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    if Arc::strong_count(&db) > 1 {
        errors.push("engine still shared after server shutdown".into());
    }
    drop(db);

    let mut found = vec![HashMap::new(); classes.len()];
    let read_back = Database::open(&dir).and_then(|db| {
        db.read(|tx| {
            for ((class, fields), found) in classes.iter().zip(&mut found) {
                let oids = tx.forall(class)?.collect_oids()?;
                for oid in oids {
                    let mut values = Vec::with_capacity(fields.len());
                    for field in *fields {
                        values.push(tx.get(oid, field)?.as_int()?);
                    }
                    if found.insert(values[0], values[1..].to_vec()).is_some() {
                        errors.push(format!("{class} key {} is stored twice", values[0]));
                    }
                }
            }
            Ok(())
        })
    });
    if let Err(e) = read_back {
        errors.push(format!("reopen of {} failed: {e}", dir.display()));
    }
    let _ = std::fs::remove_dir_all(dir);
    found
}

/// Compare what was read back after the restart with what the models say
/// must be there, reporting at most a few differences in full.
pub fn compare_state(
    class: &str,
    found: &HashMap<i64, Vec<i64>>,
    expected: &HashMap<i64, Vec<i64>>,
    errors: &mut Vec<String>,
) {
    let mut wrong = 0usize;
    for (key, want) in expected {
        if found.get(key) != Some(want) {
            wrong += 1;
            if wrong <= 5 {
                errors.push(format!(
                    "after restart {class} {key} holds {:?}, model says {want:?}",
                    found.get(key)
                ));
            }
        }
    }
    let extra = found.keys().filter(|k| !expected.contains_key(k)).count();
    if wrong > 5 || extra > 0 {
        errors.push(format!(
            "after restart {wrong} {class} keys differ from the model and {extra} are not in it"
        ));
    }
}

/// How the benchmark's clients retry a statement the server answers with
/// `Unavailable` (a lost optimistic validation): up to ten times, first
/// after 0.5 ms, doubling. The client library's default backs off 50 ms,
/// which would make a write workload's throughput a count of conflicts times
/// that constant; a short backoff, like the engine's own
/// `Database::transaction`, keeps a conflict's cost near one more statement.
pub const RETRY: RetryPolicy = RetryPolicy {
    attempts: 10,
    base_delay: Duration::from_micros(500),
};

/// Sends statements over loopback `ode-wire`, as a remote caller would,
/// retrying per [`RETRY`].
pub struct WireExec(Client);

impl WireExec {
    pub fn connect(env: &Env) -> WireExec {
        let addr = env.server.as_ref().expect("workload is served").addr();
        WireExec(Client::connect(addr).expect("connect"))
    }
}

impl Executor for WireExec {
    fn run(&mut self, stmt: &Stmt) -> Reply {
        match self.0.line_with_retry(&stmt.text, RETRY) {
            Ok(RemoteLine::Output(out)) => Reply::Output(out),
            Ok(other) => Reply::Failed(format!("{other:?}")),
            Err(ClientError::Engine(msg)) | Err(ClientError::Analysis(msg)) => Reply::Rejected(msg),
            Err(e) => Reply::Failed(e.to_string()),
        }
    }
}

/// A statement class and predicate the per-layer probes scan and evaluate.
pub struct Probe {
    pub class: &'static str,
    pub predicate: &'static str,
}

/// One benchmark workload.
pub trait Workload: Sized + Sync {
    const NAME: &'static str;
    /// Statement classes, indexed by [`Stmt::class`].
    const CLASSES: &'static [&'static str];
    /// Closed-loop callers, each waiting for its reply before sending again.
    const CLIENTS: usize = 2;
    /// The flush policy, stated with every result.
    const FLUSH_POLICY: &'static str = "none (MemStore)";
    type Gen: Generator;

    /// Schema, load, index build and server bind, all from `seed`. A durable
    /// workload keeps its store in `store_dir`, which it may delete first.
    fn setup(seed: u64, store_dir: &Path) -> Self;
    fn env(&self) -> &Env;
    fn into_env(self) -> Env;
    fn generator(&self, client: usize, seed: u64) -> Self::Gen;
    fn probe(&self) -> Probe;

    fn executor(&self) -> Box<dyn Executor + '_> {
        Box::new(WireExec::connect(self.env()))
    }

    /// After the last reply: check what only the final state can show
    /// against the generators' models, then tear everything down. Returns
    /// one line per disagreement.
    fn finish(self, _gens: Vec<Self::Gen>) -> Vec<String> {
        let mut env = self.into_env();
        let errors = env.stop_server().into_iter().collect();
        env.close();
        errors
    }
}

/// Load `n` objects in transactions of 4096, returning what `make` returns
/// for each.
pub fn load<T>(
    db: &Database,
    n: usize,
    mut make: impl FnMut(&mut Transaction<'_>, usize) -> Result<T>,
) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for lo in (0..n).step_by(4096) {
        db.transaction(|tx| {
            for i in lo..(lo + 4096).min(n) {
                out.push(make(tx, i)?);
            }
            Ok(())
        })
        .expect("load");
    }
    out
}

/// Items ranked by a key, with running oid checksums: the model's answer to
/// "how many objects, and which, have a key below / above / equal to x".
pub struct Ranked<K> {
    keys: Vec<K>,
    /// `sums[i]` is the checksum of the `i` lowest-keyed items.
    sums: Vec<u64>,
}

impl<K: PartialOrd + Copy> Ranked<K> {
    /// Rank `(key, oid hash)` pairs.
    pub fn new(mut items: Vec<(K, u64)>) -> Ranked<K> {
        items.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("keys are ordered"));
        let mut sums = Vec::with_capacity(items.len() + 1);
        let mut acc = 0u64;
        sums.push(acc);
        for (_, h) in &items {
            acc = acc.wrapping_add(*h);
            sums.push(acc);
        }
        Ranked {
            keys: items.into_iter().map(|(k, _)| k).collect(),
            sums,
        }
    }

    fn span(&self, lo: usize, hi: usize) -> Expect {
        Expect::Rows {
            count: hi - lo,
            oid_sum: self.sums[hi].wrapping_sub(self.sums[lo]),
        }
    }

    /// Items with `key < x`.
    pub fn below(&self, x: K) -> Expect {
        self.span(0, self.keys.partition_point(|k| *k < x))
    }

    /// Items with `key > x`.
    pub fn above(&self, x: K) -> Expect {
        self.span(self.keys.partition_point(|k| *k <= x), self.keys.len())
    }

    /// Items with `key == x`.
    pub fn equal(&self, x: K) -> Expect {
        self.span(
            self.keys.partition_point(|k| *k < x),
            self.keys.partition_point(|k| *k <= x),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_by_hand() {
        let r = Ranked::new(vec![(5, 100), (1, 1), (5, 10), (9, 1000)]);
        assert_eq!(
            r.below(5),
            Expect::Rows {
                count: 1,
                oid_sum: 1
            }
        );
        assert_eq!(
            r.equal(5),
            Expect::Rows {
                count: 2,
                oid_sum: 110
            }
        );
        assert_eq!(
            r.above(5),
            Expect::Rows {
                count: 1,
                oid_sum: 1000
            }
        );
        assert_eq!(
            r.equal(7),
            Expect::Rows {
                count: 0,
                oid_sum: 0
            }
        );
        assert_eq!(
            r.above(0),
            Expect::Rows {
                count: 4,
                oid_sum: 1111
            }
        );
    }
}
