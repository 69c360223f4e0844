//! Declarative iteration — the paper's `forall` construct (§3).
//!
//! ```text
//! for all x in cluster [suchthat (condition)] [by (expression)] statement
//! ```
//!
//! * Iterating a cluster visits its **hierarchy** by default (§3.1.1): the
//!   extent of `person` includes students and faculty, which is what makes
//!   the paper's `p is student` dispatch example meaningful. Use
//!   [`Forall::shallow`] for the exact-class extent only.
//! * [`Forall::suchthat`] takes the expression language; the interval its
//!   conjuncts pin on one indexed field (picked by
//!   [`ode_model::probe_range`]) is read from the index (§3.1's "used to
//!   advantage in query optimization"), and the whole predicate is then
//!   rechecked.
//! * [`Forall::by`] orders by an expression, ascending or descending.
//! * [`Forall::fixpoint`] also visits objects **added during the
//!   iteration** (§3.2) — the least-fixpoint facility behind recursive
//!   queries like the parts explosion.
//! * Multiple loop variables (join queries, §3.1) via
//!   [`Transaction::forall_join`]: `forall e in employee, d in dept
//!   suchthat (e.deptno == d.dno)`. The join is planned: conjuncts filter
//!   the shallowest level that binds their variables, and an equality
//!   key is probed through an index or a hash table, with the rows and
//!   first error of the nested loop (DESIGN.md §8, "Join planning").
//! * [`Transaction::iterate_set`] walks a set-valued field with the same
//!   add-during-iteration guarantee, for set-based fixpoints.
//!
//! The machinery is generic over [`ReadContext`]: queries run identically
//! inside a write [`Transaction`] (overlay included) and a snapshot
//! [`crate::read::ReadTransaction`] (committed state, shared access —
//! DESIGN.md §8). Mutating terminals ([`Forall::run`], fixpoints, join
//! bodies) exist only on the `Transaction` instantiation.

use std::cell::{OnceCell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ode_model::{
    bind, extract_field_ranges, parse_expr, probe_range, BinOp, BoundExpr, BoundVar, ClassId, Expr,
    Frame, ObjState, Oid, Resolver, Schema, Scope, SlotMask, Value,
};
use ode_obs::{JoinLevel, LevelAccess, PlanStrategy, QueryProfile, SpanStage};

use crate::bucket::{exact_key, Buckets};
use crate::database::Layout;
use crate::error::{OdeError, Result};
use crate::read::{ExtentScan, ReadContext, ReadTransaction};

/// A native predicate over object state (host-language filter).
pub type FilterFn<'t> = Box<dyn FnMut(&ObjState) -> bool + 't>;
use crate::txn::{OidHash, Transaction, TxnObj};

/// Sort direction for `by` clauses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Asc,
    Desc,
}

/// A `forall` iteration under construction, generic over the transaction
/// kind it reads through (`C` = [`Transaction`] or
/// [`ReadTransaction`]).
pub struct Forall<'t, C> {
    tx: &'t mut C,
    /// The statement's schema and cluster map, read once at its start.
    layout: Arc<Layout>,
    class_name: String,
    deep: bool,
    suchthat: Option<Expr>,
    by: Option<(Expr, Dir)>,
    fixpoint: bool,
    /// Loop-variable name bound to the current object during predicate and
    /// key evaluation, enabling `p.age` / `p is student` forms (§3.1.1).
    var: Option<String>,
    /// Native predicate (Rust closure) applied after `suchthat` — the
    /// host-language escape hatch, also used by the interpreter-overhead
    /// ablation (figure A1).
    filter: Option<FilterFn<'t>>,
}

pub(crate) fn new_forall<'t, C: ReadContext>(
    tx: &'t mut C,
    class_name: &str,
) -> Result<Forall<'t, C>> {
    tx.db().tel.query.foralls.inc();
    let layout = tx.db().layout();
    // Validate the class name early for a good error.
    layout.schema.id_of(class_name)?;
    Ok(Forall {
        tx,
        layout,
        class_name: class_name.to_string(),
        deep: true,
        suchthat: None,
        by: None,
        fixpoint: false,
        var: None,
        filter: None,
    })
}

pub(crate) fn new_forall_join<'t, C: ReadContext>(
    tx: &'t mut C,
    vars: &[(&str, &str)],
) -> Result<ForallJoin<'t, C>> {
    tx.db().tel.query.joins.inc();
    if vars.is_empty() {
        return Err(OdeError::Usage(
            "forall_join needs at least one variable".into(),
        ));
    }
    let layout = tx.db().layout();
    for (_, class) in vars {
        layout.schema.id_of(class)?;
    }
    Ok(ForallJoin {
        tx,
        layout,
        vars: vars
            .iter()
            .map(|(v, c)| (v.to_string(), c.to_string()))
            .collect(),
        suchthat: None,
    })
}

impl<'db> Transaction<'db> {
    /// Start a `forall x in <cluster>` iteration (§3.1). The cluster need
    /// not exist yet (an empty iteration results), but the class must.
    pub fn forall<'t>(&'t mut self, class_name: &str) -> Result<Forall<'t, Transaction<'db>>> {
        self.ensure_live()?;
        new_forall(self, class_name)
    }

    /// Multi-variable iteration — the join form of §3.1:
    /// `forall e in employee, d in dept suchthat (...)`.
    pub fn forall_join<'t>(
        &'t mut self,
        vars: &[(&str, &str)],
    ) -> Result<ForallJoin<'t, Transaction<'db>>> {
        self.ensure_live()?;
        new_forall_join(self, vars)
    }

    /// Iterate a set-valued field with §3.2 semantics: elements inserted
    /// into the set *during* the iteration are visited too (set fixpoint).
    /// Returns the number of elements visited.
    pub fn iterate_set(
        &mut self,
        oid: Oid,
        field: &str,
        mut f: impl FnMut(&mut Transaction<'db>, &Value) -> Result<()>,
    ) -> Result<usize> {
        let class = self.read(oid)?.class;
        let slot = self.db.layout().schema.class(class)?.field_index(field)?;
        // The committed image cannot change under this transaction; load it
        // at most once. If the body writes the object, the write-set copy
        // is borrowed in place each step (no re-decode, no clone).
        let mut committed: Option<ObjState> = None;
        let mut i = 0usize;
        loop {
            if self.deleted.contains_key(&oid) {
                return Err(OdeError::NoSuchObject(format!(
                    "{oid} (deleted mid-iteration)"
                )));
            }
            let elem: Option<Value> = if let Some(obj) = self.writes.get(&oid) {
                obj.state.fields[slot].as_set()?.get(i).cloned()
            } else {
                if committed.is_none() {
                    committed = Some(self.read(oid)?);
                }
                committed.as_ref().expect("just loaded").fields[slot]
                    .as_set()?
                    .get(i)
                    .cloned()
            };
            let Some(elem) = elem else {
                return Ok(i);
            };
            i += 1;
            f(self, &elem)?;
        }
    }

    /// Stream the extent `scan` names as this transaction sees it: the
    /// committed extent with the write-set overlaid in place (overlay
    /// states are *borrowed*, never cloned), followed by objects created by
    /// this transaction, in creation order — with a point key, only the
    /// created objects its key map returns, the only ones that can pass
    /// the predicate. Nothing is materialized — see
    /// [`ReadContext::for_each_extent`].
    ///
    /// Phantom-protection bookkeeping brackets the iteration: each heap's
    /// scan entry is recorded (epoch observed) *before* that heap streams,
    /// so a commit publishing mid-scan stamps a newer epoch and fails this
    /// transaction's validation. If the visitor stops early or errors, the
    /// recorded entries for every heap touched so far are widened to
    /// whole-heap (`note_scan_unbounded`): a partial iteration's outcome
    /// depends on enumeration order, not just the scan's key ranges, so a
    /// narrowed entry would be unsound (DESIGN.md §14).
    pub(crate) fn stream_extent(
        &self,
        scan: &ExtentScan<'_>,
        visit: &mut dyn FnMut(Oid, &ObjState) -> Result<bool>,
    ) -> Result<()> {
        let heaps = scan.heaps();
        let mut noted = 0;
        let outcome = (|| -> Result<bool> {
            for &heap in heaps {
                // Phantom protection: validation compares this heap's last
                // write stamp against the epoch observed here, before any
                // of the heap's pages are read (DESIGN.md §13).
                self.note_extent_scan(heap, scan.ranges);
                noted += 1;
                let complete = crate::read::stream_committed_heap(
                    self.db.store.as_ref(),
                    heap,
                    scan.mask,
                    &mut |oid, state| {
                        if self.deleted.contains_key(&oid) {
                            return Ok(true);
                        }
                        match self.writes.get(&oid) {
                            // Overlay replaces the committed state in place.
                            Some(obj) => visit(oid, &obj.state),
                            None => visit(oid, state),
                        }
                    },
                )?;
                if !complete {
                    return Ok(false);
                }
            }
            // Overlay tail: objects created by this transaction. Their
            // slots are reserved (invisible to committed scans) until
            // commit, so this is disjoint from the committed pass.
            self.overlay(scan, &mut |oid, obj| {
                if obj.new {
                    visit(oid, &obj.state)
                } else {
                    Ok(true)
                }
            })
        })();
        match outcome {
            Ok(true) => Ok(()),
            Ok(false) => {
                self.note_scan_unbounded(&heaps[..noted]);
                Ok(())
            }
            Err(e) => {
                self.note_scan_unbounded(&heaps[..noted]);
                Err(e)
            }
        }
    }

    /// Visit this transaction's write-set entries in `scan`'s heaps, in
    /// creation order, until `visit` returns false — with a point key, only
    /// the entries its key map returns. Returns whether it ran to the end.
    pub(crate) fn overlay(
        &self,
        scan: &ExtentScan<'_>,
        visit: &mut dyn FnMut(Oid, &TxnObj) -> Result<bool>,
    ) -> Result<bool> {
        let heaps = scan.heaps();
        match scan.key {
            Some((field, key)) => {
                let schema = &scan.layout.schema;
                for slot in self.writes.keyed(schema, heaps, field, key) {
                    if let Some((oid, obj)) = self.writes.at(slot as usize) {
                        if !visit(oid, obj)? {
                            return Ok(false);
                        }
                    }
                }
            }
            None => {
                for (oid, obj) in self.writes.in_heaps(heaps, 0) {
                    if !visit(oid, obj)? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }
}

impl<'db> ReadTransaction<'db> {
    /// Start a read-only `forall x in <cluster>` iteration (§3.1) against
    /// this snapshot. All non-mutating terminals (`collect_oids`, `count`,
    /// aggregates, `collect_values`) are available; `run`/`fixpoint` need
    /// a write [`Transaction`].
    pub fn forall<'t>(&'t mut self, class_name: &str) -> Result<Forall<'t, ReadTransaction<'db>>> {
        new_forall(self, class_name)
    }

    /// Multi-variable read-only iteration (join form of §3.1).
    pub fn forall_join<'t>(
        &'t mut self,
        vars: &[(&str, &str)],
    ) -> Result<ForallJoin<'t, ReadTransaction<'db>>> {
        new_forall_join(self, vars)
    }
}

impl<'t, C: ReadContext> Forall<'t, C> {
    /// Restrict to the exact class (no derived-class members).
    pub fn shallow(mut self) -> Self {
        self.deep = false;
        self
    }

    /// Attach a `suchthat` predicate (expression-language source).
    pub fn suchthat(mut self, src: &str) -> Result<Self> {
        self.suchthat = Some(parse_expr(src)?);
        Ok(self)
    }

    /// Attach a pre-built predicate expression.
    pub fn suchthat_expr(mut self, e: Expr) -> Self {
        self.suchthat = Some(e);
        self
    }

    /// Order ascending by an expression (the `by` clause).
    pub fn by(self, src: &str) -> Result<Self> {
        Ok(self.by_expr(parse_expr(src)?, false))
    }

    /// Order descending by an expression.
    pub fn by_desc(self, src: &str) -> Result<Self> {
        Ok(self.by_expr(parse_expr(src)?, true))
    }

    /// Order by a pre-built key expression, descending when `desc`.
    pub fn by_expr(mut self, key: Expr, desc: bool) -> Self {
        self.by = Some((key, if desc { Dir::Desc } else { Dir::Asc }));
        self
    }

    /// Bind the loop variable's name: `forall p in person` makes `p`
    /// available in `suchthat`/`by` expressions as a reference to the
    /// current object, so `p is student` and `p.name` both work alongside
    /// bare field names.
    pub fn bind(mut self, var: &str) -> Self {
        self.var = Some(var.to_string());
        self
    }

    /// Filter with a native Rust closure over the object state (the host
    /// language escape hatch — O++ bodies are C++, after all). Applied in
    /// addition to any `suchthat` expression.
    pub fn filter(mut self, f: impl FnMut(&ObjState) -> bool + 't) -> Self {
        self.filter = Some(Box::new(f));
        self
    }

    /// Materialize the qualifying oids (after suchthat/by, before body).
    pub fn collect_oids(self) -> Result<Vec<Oid>> {
        self.collect_oids_profiled(&mut QueryProfile::default())
    }

    /// Like [`Forall::collect_oids`], additionally accumulating the query's
    /// execution profile (plan choice, objects scanned, predicate
    /// evaluations) into `prof` — the engine behind OQL's `explain`.
    pub fn collect_oids_profiled(self, prof: &mut QueryProfile) -> Result<Vec<Oid>> {
        let Forall {
            tx,
            layout,
            class_name,
            deep,
            suchthat,
            by,
            fixpoint,
            var,
            filter,
        } = self;
        if fixpoint {
            return Err(OdeError::Usage(
                "collect_oids is a snapshot; fixpoint iteration needs run()".into(),
            ));
        }
        let pred = Predicate::new(&layout.schema, &suchthat, &by, None, &var, filter);
        candidates(&*tx, &layout, class_name, deep, &pred, prof, |oid, _| oid)
    }

    /// Count qualifying objects.
    pub fn count(self) -> Result<usize> {
        Ok(self.collect_oids()?.len())
    }

    /// Sum an expression over the qualifying objects (ints stay ints; any
    /// float makes the sum a float). The §3.1.1 income example is
    /// `forall("person").sum("income()")`.
    pub fn sum(self, expr_src: &str) -> Result<Value> {
        let vals = self.collect_values(expr_src)?;
        let mut int_acc: i64 = 0;
        let mut float_acc: f64 = 0.0;
        let mut saw_float = false;
        for v in vals {
            match v {
                Value::Int(i) => {
                    int_acc = int_acc
                        .checked_add(i)
                        .ok_or_else(|| OdeError::Usage("sum overflowed i64".into()))?;
                }
                Value::Float(x) => {
                    saw_float = true;
                    float_acc += x;
                }
                Value::Null => {}
                other => {
                    return Err(OdeError::Usage(format!(
                        "sum over a non-numeric value: {other}"
                    )))
                }
            }
        }
        Ok(if saw_float {
            Value::Float(float_acc + int_acc as f64)
        } else {
            Value::Int(int_acc)
        })
    }

    /// Arithmetic mean of an expression over the qualifying objects
    /// (`None` for an empty result).
    pub fn avg(self, expr_src: &str) -> Result<Option<f64>> {
        let vals = self.collect_values(expr_src)?;
        let nums: Vec<f64> = vals
            .iter()
            .filter(|v| !v.is_null())
            .map(|v| v.as_float())
            .collect::<ode_model::Result<_>>()?;
        if nums.is_empty() {
            return Ok(None);
        }
        Ok(Some(nums.iter().sum::<f64>() / nums.len() as f64))
    }

    /// Minimum of an expression over the qualifying objects.
    pub fn min(self, expr_src: &str) -> Result<Option<Value>> {
        Ok(self
            .collect_values(expr_src)?
            .into_iter()
            .filter(|v| !v.is_null())
            .min())
    }

    /// Maximum of an expression over the qualifying objects.
    pub fn max(self, expr_src: &str) -> Result<Option<Value>> {
        Ok(self
            .collect_values(expr_src)?
            .into_iter()
            .filter(|v| !v.is_null())
            .max())
    }

    /// Evaluate an expression for every qualifying object and collect the
    /// results (a projection). The projection is evaluated on each row as
    /// the scan admits it, so each row is read once; its errors wait for
    /// the scan to end, so a predicate error anywhere still wins, and
    /// then the first projection error in row order.
    pub fn collect_values(self, src: &str) -> Result<Vec<Value>> {
        let proj = parse_expr(src)?;
        let Forall {
            tx,
            layout,
            class_name,
            deep,
            suchthat,
            by,
            var,
            filter,
            ..
        } = self;
        let tx = &*tx;
        let pred = Predicate::new(&layout.schema, &suchthat, &by, Some(&proj), &var, filter);
        let project = pred.proj.as_ref().expect("bound with the predicate");
        let rows = candidates(
            tx,
            &layout,
            class_name,
            deep,
            &pred,
            &mut QueryProfile::default(),
            |oid, state| pred.eval(project, &layout.schema, tx, oid, state),
        )?;
        rows.into_iter().collect()
    }
}

impl<'t, 'db> Forall<'t, Transaction<'db>> {
    /// Also visit objects added to the extent during the iteration (§3.2's
    /// fixpoint facility). Incompatible with `by` (ordering over a growing
    /// domain is not well-defined).
    pub fn fixpoint(mut self) -> Self {
        self.fixpoint = true;
        self
    }

    /// Run the loop body over every qualifying object. The body may update,
    /// delete, and create objects; with [`Forall::fixpoint`], objects it
    /// adds to the extent are visited too. Returns the number of objects
    /// visited.
    pub fn run(self, f: impl FnMut(&mut Transaction<'db>, Oid) -> Result<()>) -> Result<usize> {
        self.run_profiled(&mut QueryProfile::default(), f)
    }

    /// Like [`Forall::run`], additionally accumulating the execution
    /// profile into `prof`; fixpoint iterations record one round (and its
    /// newly visited count) per batch of objects visited.
    ///
    /// The fixpoint is semi-naive and insert-driven: the first round is
    /// one full pass over the extent, and each later round tests only the
    /// objects the previous round's bodies inserted into it — the
    /// write set's slots since that round's mark. Committed objects and
    /// earlier inserts are never re-read, so an object updated into
    /// qualifying after its round is not visited.
    pub fn run_profiled(
        self,
        prof: &mut QueryProfile,
        mut f: impl FnMut(&mut Transaction<'db>, Oid) -> Result<()>,
    ) -> Result<usize> {
        let Forall {
            tx,
            layout,
            class_name,
            deep,
            suchthat,
            by,
            fixpoint,
            var,
            filter,
        } = self;
        if fixpoint && by.is_some() {
            return Err(OdeError::Usage(
                "fixpoint iteration cannot be ordered with by()".into(),
            ));
        }
        let class = layout.schema.id_of(&class_name)?;
        let pred = Predicate::new(&layout.schema, &suchthat, &by, None, &var, filter);
        // The full pass sees every insert made before it; the first delta
        // starts at the slot after them.
        let mut mark = tx.writes.mark();
        let mut batch = candidates(&*tx, &layout, class_name, deep, &pred, prof, |oid, _| oid)?;
        let mut n = 0usize;
        loop {
            if fixpoint && !batch.is_empty() {
                prof.fixpoint_rounds += 1;
                prof.fixpoint_new_by_round.push(batch.len() as u64);
                tx.db.tel.query.fixpoint_rounds.inc();
                tx.db.tel.query.fixpoint_new_objects.add(batch.len() as u64);
            }
            if batch.is_empty() {
                return Ok(n);
            }
            for oid in batch {
                // The body may have deleted this object in a previous step.
                if !tx.exists(oid) {
                    continue;
                }
                f(tx, oid)?;
                n += 1;
            }
            if !fixpoint {
                return Ok(n);
            }
            let since = std::mem::replace(&mut mark, tx.writes.mark());
            batch = inserted_since(tx, &layout, class, deep, since, &pred, prof)?;
        }
    }
}

/// One semi-naive fixpoint round: the objects of `class`'s (deep or
/// shallow) extent this transaction inserted at or after write-set slot
/// `since` that pass the predicate, in creation order. Each slot examined
/// counts as one object scanned, into `prof` and the global query counters.
fn inserted_since(
    tx: &Transaction<'_>,
    layout: &Layout,
    class: ClassId,
    deep: bool,
    since: usize,
    pred: &Predicate<'_, '_>,
    prof: &mut QueryProfile,
) -> Result<Vec<Oid>> {
    let heaps = &layout.extent(class, deep).heaps;
    let mut round = QueryProfile::default();
    let mut out = Vec::new();
    for (oid, obj) in tx.writes.in_heaps(heaps, since) {
        round.objects_scanned += 1;
        // Shallow iteration drops subclass members; a committed object
        // loaded for write is not an insert.
        if !obj.new || (!deep && obj.state.class != class) {
            continue;
        }
        // Only this transaction's private inserts are read, so an error
        // here leaves no committed range to widen.
        if pred.admits(
            &layout.schema,
            tx,
            oid,
            &obj.state,
            &mut round.predicate_evals,
        )? {
            out.push(oid);
        }
    }
    let q = &tx.db.tel.query;
    q.objects_scanned.add(round.objects_scanned);
    q.predicate_evals.add(round.predicate_evals);
    prof.objects_scanned += round.objects_scanned;
    prof.predicate_evals += round.predicate_evals;
    Ok(out)
}

/// The per-object work of a query, bound once per statement: the
/// `suchthat` test, then the native filter, the `by` key and the
/// projection, each with the object as `this` and, when the query names
/// its loop variable, as that variable too.
struct Predicate<'q, 't> {
    /// The `suchthat` as written, for the key ranges it pins.
    source: Option<&'q Expr>,
    /// The loop variable's name, if the query names one.
    var: Option<&'q str>,
    suchthat: Option<BoundExpr>,
    /// The `by` key and its direction.
    by: Option<(BoundExpr, Dir)>,
    /// The expression `collect_values` projects each row to.
    proj: Option<BoundExpr>,
    filter: Option<RefCell<FilterFn<'t>>>,
}

impl<'q, 't> Predicate<'q, 't> {
    fn new(
        schema: &Schema,
        suchthat: &'q Option<Expr>,
        by: &Option<(Expr, Dir)>,
        proj: Option<&Expr>,
        var: &'q Option<String>,
        filter: Option<FilterFn<'t>>,
    ) -> Self {
        let var = var.as_deref();
        // The object is `this`, and the loop variable too when the query
        // names one.
        let scope = Scope::query(var.as_slice());
        let bind = |e| bind(schema, &scope, e);
        Predicate {
            source: suchthat.as_ref(),
            var,
            suchthat: suchthat.as_ref().map(bind),
            by: by.as_ref().map(|(e, dir)| (bind(e), *dir)),
            proj: proj.map(bind),
            filter: filter.map(RefCell::new),
        }
    }

    /// The loop variable's index in the frame, if the query names one.
    fn var_index(&self) -> Option<usize> {
        self.var.map(|_| 0)
    }

    /// The slots of a scanned object the `suchthat`, the `by` key and the
    /// projection read: all of them when a native filter runs, since it
    /// sees the state.
    fn mask(&self) -> SlotMask {
        let mut mask = SlotMask::default();
        if self.filter.is_some() {
            mask.set_all();
        }
        let by = self.by.as_ref().map(|(e, _)| e);
        for e in self.suchthat.iter().chain(by).chain(&self.proj) {
            e.read_slots(true, self.var_index(), &mut mask);
        }
        mask
    }

    /// Does the object pass `suchthat` and the filter? Counts the
    /// `suchthat` evaluation in `evals`.
    fn admits(
        &self,
        schema: &Schema,
        tx: &dyn Resolver,
        oid: Oid,
        state: &ObjState,
        evals: &mut u64,
    ) -> Result<bool> {
        if let Some(expr) = &self.suchthat {
            *evals += 1;
            if !self.run(schema, tx, oid, state, |f| expr.eval_bool(f))? {
                return Ok(false);
            }
        }
        Ok(self.filter.as_ref().is_none_or(|f| (f.borrow_mut())(state)))
    }

    /// Evaluate `expr`, bound in the query's scope, over the object.
    fn eval(
        &self,
        expr: &BoundExpr,
        schema: &Schema,
        tx: &dyn Resolver,
        oid: Oid,
        state: &ObjState,
    ) -> Result<Value> {
        self.run(schema, tx, oid, state, |f| expr.eval(f))
    }

    /// Run `f` over the frame that binds the object as `this` and, when
    /// the query names its loop variable, as that variable.
    fn run<R>(
        &self,
        schema: &Schema,
        tx: &dyn Resolver,
        oid: Oid,
        state: &ObjState,
        f: impl FnOnce(&Frame<'_>) -> ode_model::Result<R>,
    ) -> Result<R> {
        let var = BoundVar {
            name: self.var.unwrap_or_default(),
            oid,
            state,
        };
        let vars = if self.var.is_some() {
            std::slice::from_ref(&var)
        } else {
            &[]
        };
        Ok(f(&Frame {
            this: Some(state),
            vars,
            resolver: tx,
            ..Frame::new(schema)
        })?)
    }
}

/// Publish one pass's profile into the database's global query counters
/// and the accumulated per-shape profile buckets.
fn publish_pass(db: &crate::database::Database, pass: &QueryProfile) {
    let q = &db.tel.query;
    q.clusters_visited.add(pass.clusters_visited);
    q.objects_scanned.add(pass.objects_scanned);
    q.predicate_evals.add(pass.predicate_evals);
    q.index_probes.add(pass.index_probes);
    if pass.strategy == PlanStrategy::DeepExtentScan {
        q.deep_extent_scans.inc();
    }
    db.record_query_pass(pass);
}

/// Enumerate + filter + order the qualifying objects, keeping `row` of
/// each. One call is one *pass*: its work is accumulated into `prof` and
/// the global query counters, and bracketed by a Query trace span. Generic
/// over the transaction kind.
///
/// No engine lock is held while predicates, sort keys or visitors run:
/// they read `layout`, and the index probe copies its range out in a leaf
/// section.
fn candidates<C: ReadContext, R>(
    tx: &C,
    layout: &Layout,
    class_name: String,
    deep: bool,
    pred: &Predicate<'_, '_>,
    prof: &mut QueryProfile,
    row: impl FnMut(Oid, &ObjState) -> R,
) -> Result<Vec<R>> {
    let db = tx.db();
    // The detail is written once, when the pass ends.
    let mut span = db.flight.span(SpanStage::Execute, String::new());
    let mut pass = QueryProfile {
        target: class_name,
        ..QueryProfile::default()
    };
    let result = (|| {
        let class = layout.schema.id_of(&pass.target)?;
        run_pass(tx, layout, class, deep, pred, &mut pass, row)
    })();
    let rows = match result {
        Ok(rows) => rows,
        Err(e) => {
            span.set_detail(pass.target.clone());
            return Err(e);
        }
    };
    pass.rows = rows.len() as u64;
    publish_pass(db, &pass);
    span.set_detail(plan_detail(&pass));
    prof.absorb_owned(pass);
    Ok(rows)
}

/// A pass's span detail, `<target> via <strategy>`, in one allocation.
fn plan_detail(pass: &QueryProfile) -> String {
    use std::fmt::Write;
    let mut detail = String::with_capacity(pass.target.len() + 64);
    let _ = write!(detail, "{} via {}", pass.target, pass.strategy);
    detail
}

/// The work of one [`candidates`] pass, counted into `pass`.
fn run_pass<C: ReadContext, R>(
    tx: &C,
    layout: &Layout,
    class: ClassId,
    deep: bool,
    pred: &Predicate<'_, '_>,
    pass: &mut QueryProfile,
    mut row: impl FnMut(Oid, &ObjState) -> R,
) -> Result<Vec<R>> {
    let db = tx.db();
    let schema = &layout.schema;
    let extent = layout.extent(class, deep);

    // The key ranges the predicate provably pins, read once. They choose
    // the index probe and give both its bounds, by the rule the footprint
    // pass shares (`probe_range`); index entries reflect *committed*
    // data, so the transaction's own writes are merged back in below.
    // They are also recorded with a write transaction's scan entries,
    // making it eligible for narrowed validation at commit (DESIGN.md
    // §14).
    let mut ranges = pred
        .source
        .map(|p| extract_field_ranges(p, pred.var))
        .unwrap_or_default();
    // The probed range's position (its field names the plan) and the hits.
    let probe: Option<(usize, Vec<Oid>)> = if deep {
        let inner = db.inner.read();
        probe_range(&ranges, |f| inner.indexes.get(class, f).is_some()).map(|r| {
            let at = ranges.iter().position(|x| std::ptr::eq(x, r));
            let ix = inner.indexes.get(class, &r.field).expect("just found");
            let at = at.expect("probe_range picks from the list");
            (at, ix.ix.range(&r.range))
        })
    } else {
        None
    };
    // A `field == constant` test with nothing that may raise before it:
    // only write-set entries in that key's bucket can pass, so the overlay
    // is read through a key map (DESIGN.md §8).
    let point = pred.suchthat.as_ref().and_then(|e| {
        let key = e.point_key(pred.var_index(), std::slice::from_ref(&extent.members));
        key.filter(|(_, v)| exact_key(v))
    });
    // Each committed record is decoded only as far as the predicate, the
    // sort key and the projection read it.
    let mask = pred.mask();
    let scan = ExtentScan {
        layout,
        class,
        deep,
        mask: &mask,
        ranges: &ranges,
        key: point.as_ref().map(|(f, v)| (*f, &**v)),
    };

    // Result accumulators — O(qualifying rows), never O(extent). With a
    // `by` clause the sort key is evaluated as each object streams past
    // and only (key, oid, row) is retained for the final sort.
    let mut plain: Vec<R> = Vec::new();
    let mut keyed: Vec<(Value, Oid, R)> = Vec::new();
    let (mut scanned, mut evals) = (0u64, 0u64);
    let mut visit = |oid: Oid, state: &ObjState| -> Result<()> {
        scanned += 1;
        // Shallow iteration drops subclass members.
        if !deep && state.class != class {
            return Ok(());
        }
        if !pred.admits(schema, tx, oid, state, &mut evals)? {
            return Ok(());
        }
        match &pred.by {
            Some((key, _)) => {
                let key = pred.eval(key, schema, tx, oid, state)?;
                keyed.push((key, oid, row(oid, state)));
            }
            None => plain.push(row(oid, state)),
        }
        Ok(())
    };

    match &probe {
        Some((_, oids)) => {
            // The probe answers from the committed deep extent: record the
            // backing heaps so commit-time validation catches phantoms the
            // same as an extent scan would.
            tx.note_scan(scan.heaps(), &ranges);
            let mut state = ObjState::new(ClassId(0), 0);
            let probed = (|| -> Result<()> {
                for &oid in oids {
                    if tx.is_deleted(oid) {
                        continue;
                    }
                    // An in-transaction write may have changed the key: the
                    // state read here is authoritative, and the predicate
                    // rechecks it. An entry deleted by a commit since the
                    // index was copied is skipped (validation fails this
                    // transaction if it matters); any other read error is
                    // the statement's.
                    match tx.read_masked(oid, &mask, &mut state) {
                        Ok(state) => visit(oid, state)?,
                        Err(OdeError::NoSuchObject(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                // Objects written in this txn are missing from the committed
                // index — fold in any written object of the right classes,
                // evaluated in place (with a point key, only its bucket).
                // The set of probed oids is built on the first class-matching
                // write: writes to other heaps are never visited, so most
                // probes build nothing.
                let mut seen: Option<HashSet<Oid, OidHash>> = None;
                tx.for_each_overlay(&scan, &mut |oid, state| {
                    if !schema.is_subclass(state.class, class) {
                        return Ok(());
                    }
                    let seen = seen.get_or_insert_with(|| oids.iter().copied().collect());
                    if seen.contains(&oid) {
                        return Ok(());
                    }
                    db.tel.query.overlay_clones.inc();
                    visit(oid, state)
                })
            })();
            // Short-circuit evaluation means an error itself can depend on
            // rows outside the proven ranges; which rows mattered is
            // unknowable, so an error widens to whole heaps — for a failed
            // `by` key or read too, since it aborts an enumeration whose
            // result the transaction may already have acted on.
            probed.inspect_err(|_| tx.scan_widen(scan.heaps()))?;
        }
        None => {
            // Predicate, filter and sort key all run *inside* the stream:
            // each decoded state lives only for its visit, so N concurrent
            // scans hold N pages, not N extents. Eval errors propagate out
            // of the visitor and the streaming layer widens every heap
            // noted so far to a whole-heap scan entry (DESIGN.md §14) —
            // heaps not yet reached recorded no entry and promised
            // nothing.
            tx.scan_extent(&scan, &mut |oid, state| {
                visit(oid, state)?;
                Ok(true)
            })?;
        }
    }
    pass.objects_scanned += scanned;
    pass.predicate_evals += evals;
    pass.strategy = match probe {
        Some((at, _)) => {
            pass.index_probes += 1;
            PlanStrategy::IndexProbe {
                field: ranges.swap_remove(at).field,
            }
        }
        None => {
            pass.clusters_visited = extent.clusters;
            if deep {
                PlanStrategy::DeepExtentScan
            } else {
                PlanStrategy::ShallowExtentScan
            }
        }
    };

    let rows = if let Some((_, dir)) = &pred.by {
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        if *dir == Dir::Desc {
            keyed.reverse();
        }
        keyed.into_iter().map(|(_, _, row)| row).collect()
    } else {
        plain
    };
    Ok(rows)
}

/// A multi-variable `forall` (join query, §3.1), generic over the
/// transaction kind like [`Forall`]. Its rows come in nested-loop order:
/// the first variable's extent order, then the second's within it, and
/// so on, however the join is planned.
pub struct ForallJoin<'t, C> {
    tx: &'t mut C,
    /// The statement's schema and cluster map, read once at its start.
    layout: Arc<Layout>,
    vars: Vec<(String, String)>,
    suchthat: Option<Expr>,
}

impl<C: ReadContext> ForallJoin<'_, C> {
    /// Attach the join predicate, e.g. `"e.deptno == d.dno"`. Loop
    /// variables appear as bare identifiers.
    pub fn suchthat(mut self, src: &str) -> Result<Self> {
        self.suchthat = Some(parse_expr(src)?);
        Ok(self)
    }

    /// Attach a pre-built predicate.
    pub fn suchthat_expr(mut self, e: Expr) -> Self {
        self.suchthat = Some(e);
        self
    }

    /// Materialize all qualifying bindings (tuples of oids, one per
    /// variable, in declaration order).
    pub fn collect(self) -> Result<Vec<Vec<Oid>>> {
        self.collect_profiled(&mut QueryProfile::default())
    }

    /// Like [`ForallJoin::collect`], additionally accumulating the join's
    /// execution profile into `prof`.
    pub fn collect_profiled(self, prof: &mut QueryProfile) -> Result<Vec<Vec<Oid>>> {
        collect_join(&*self.tx, &self.layout, &self.vars, &self.suchthat, prof)
    }
}

impl<'db> ForallJoin<'_, Transaction<'db>> {
    /// Run the body over every qualifying binding. The binding map gives
    /// each loop variable's object.
    pub fn run(
        self,
        mut f: impl FnMut(&mut Transaction<'db>, &HashMap<String, Oid>) -> Result<()>,
    ) -> Result<usize> {
        let ForallJoin {
            tx,
            layout,
            vars,
            suchthat,
        } = self;
        let rows = collect_join(
            &*tx,
            &layout,
            &vars,
            &suchthat,
            &mut QueryProfile::default(),
        )?;
        let names: Vec<String> = vars.into_iter().map(|(v, _)| v).collect();
        let mut n = 0usize;
        for row in rows {
            let map: HashMap<String, Oid> = names.iter().cloned().zip(row).collect();
            f(tx, &map)?;
            n += 1;
        }
        Ok(n)
    }
}

/// The plan of one join (DESIGN.md §8, "Join planning"): the predicate's
/// top-level `&&` chain, each conjunct placed at a level, and each inner
/// level's equality key. One classifier builds it, for hash keys and
/// pushed filters alike.
struct JoinPlan {
    /// The conjuncts, bound over the join's variables, in source order.
    conjuncts: Vec<BoundExpr>,
    /// The whole predicate, which the leaf tests.
    suchthat: Option<BoundExpr>,
    /// One per variable, outermost first.
    levels: Vec<Level>,
}

/// One loop variable of a planned join.
struct Level {
    class: ClassId,
    /// The slots of its records the predicate reads.
    mask: SlotMask,
    /// The conjuncts tested, in source order, on each candidate the level
    /// streams. Empty at the last level, where the leaf tests the whole
    /// predicate.
    filters: Vec<usize>,
    /// The table probed per outer binding; `None` streams the deep extent
    /// for each outer binding instead.
    hash: Option<HashLevel>,
}

/// A hash-built level: its extent streamed once per statement into a
/// table keyed by an equality conjunct `build == probe`, whose build side
/// reads only the level's variable and whose probe side reads only
/// earlier ones.
struct HashLevel {
    /// The key conjunct's position in the `&&` chain.
    at: usize,
    /// The build side, evaluated over each member.
    build: BoundExpr,
    /// The probe side, evaluated over the outer bindings.
    probe: BoundExpr,
    /// The build side as written, for `explain`.
    label: String,
    /// What the build evaluates on each member, in source order: the key
    /// and the level's conjuncts that read no variable but this one and
    /// that no raising-capable conjunct reading an outer variable
    /// precedes (the build filters).
    build_tests: Vec<usize>,
    /// The level's other conjuncts, tested on each probed pair (none at
    /// the last level).
    pair_filters: Vec<usize>,
    table: OnceCell<HashTable>,
}

/// The members of a hash-built level, bucketed by the build side's value.
struct HashTable {
    /// Members the build filters kept, in extent order.
    members: Vec<Member>,
    /// Indices into `members` by build-side value; a member without a
    /// usable key is in every probe.
    buckets: Buckets,
}

/// One member of a [`HashTable`]: its state decoded through the level's
/// mask, and the first conjunct that raised on it during the build
/// (`usize::MAX` if none did).
struct Member {
    oid: Oid,
    state: ObjState,
    raised: usize,
}

/// For `l == r`, the side that reads only variable `d` (the build side, as
/// written and bound) and the other side, bound, if it reads only
/// variables before `d`.
fn key_sides<'e>(
    expr: &'e Expr,
    d: usize,
    bind_join: &dyn Fn(&Expr) -> BoundExpr,
) -> Option<(&'e Expr, BoundExpr, BoundExpr)> {
    let Expr::Binary(BinOp::Eq, l, r) = expr else {
        return None;
    };
    [(l, r), (r, l)].into_iter().find_map(|(a, b)| {
        let (build, probe) = (bind_join(a), bind_join(b));
        let fits =
            build.var_span() == Some((d, d)) && probe.var_span().is_none_or(|(_, hi)| hi < d);
        fits.then_some((&**a, build, probe))
    })
}

/// The conjunct classifier. Each conjunct of the predicate's `&&` chain is
/// tagged with the loop variables it reads and placed at the shallowest
/// level where they are all bound — but never shallower than a conjunct
/// to its left that may raise, so that a conjunct discards a tuple only
/// after every conjunct before it has been evaluated on it without error
/// or cannot raise at all (the early-filter rule, which keeps the nested
/// loop's rows, order and first error). Each inner level then takes as
/// its hash key the first equality conjunct placed there whose one side
/// reads only its variable and whose other reads only earlier ones (one
/// reading an outer variable before a constant one), unless a conjunct
/// that may raise and reads an outer variable precedes it there.
fn plan_join(
    layout: &Layout,
    vars: &[(String, String)],
    suchthat: Option<&Expr>,
) -> Result<JoinPlan> {
    let schema = &layout.schema;
    let names: Vec<&str> = vars.iter().map(|(v, _)| v.as_str()).collect();
    let scope = Scope::query(&names);
    let bind_join = |e: &Expr| bind(schema, &scope, e);
    let classes = vars
        .iter()
        .map(|(_, c)| schema.id_of(c))
        .collect::<ode_model::Result<Vec<_>>>()?;
    // The classes each variable may be bound to: those clustered in the
    // heaps its deep extent streams.
    let bound_to: Vec<Vec<ClassId>> = classes
        .iter()
        .map(|&c| layout.extent(c, true).members.clone())
        .collect();
    let exprs = suchthat.map(Expr::conjuncts).unwrap_or_default();
    let conjuncts: Vec<BoundExpr> = exprs.iter().map(|e| bind_join(e)).collect();
    // (level, cannot raise, reads no variable but the level's own).
    let mut floor = 0;
    let placed: Vec<(usize, bool, bool)> = conjuncts
        .iter()
        .map(|c| {
            let span = c.var_span();
            let level = span.map_or(0, |(_, hi)| hi).max(floor);
            let total = c.is_total(&bound_to);
            if !total {
                floor = level;
            }
            (level, total, span.is_none_or(|(lo, _)| lo == level))
        })
        .collect();
    let suchthat = suchthat.map(&bind_join);
    let last = vars.len() - 1;
    let mut levels = Vec::with_capacity(vars.len());
    for (d, &class) in classes.iter().enumerate() {
        let here: Vec<usize> = (0..conjuncts.len()).filter(|&j| placed[j].0 == d).collect();
        let mut mask = SlotMask::default();
        if let Some(p) = &suchthat {
            p.read_slots(false, Some(d), &mut mask);
        }
        let filters = if d == last { Vec::new() } else { here.clone() };
        // The key: (conjunct, build side as written, build, probe).
        let mut key = None;
        for &j in here.iter().filter(|_| d > 0) {
            if let Some((src, build, probe)) = key_sides(exprs[j], d, &bind_join) {
                let outer = probe.var_span().is_some();
                if outer || key.is_none() {
                    key = Some((j, src, build, probe));
                    if outer {
                        break;
                    }
                }
            }
            let (_, total, local) = placed[j];
            if !total && !local {
                break;
            }
        }
        let hash = key.map(|(at, src, build, probe)| {
            let (mut build_tests, mut pair_filters) = (Vec::new(), Vec::new());
            let mut blocked = false;
            for &j in &here {
                let (_, total, local) = placed[j];
                if j == at || local && !blocked {
                    build_tests.push(j);
                } else if d != last {
                    pair_filters.push(j);
                }
                blocked |= !total && !local && j != at;
            }
            HashLevel {
                at,
                build,
                probe,
                label: src.to_string(),
                build_tests,
                pair_filters,
                table: OnceCell::new(),
            }
        });
        levels.push(Level {
            class,
            mask,
            filters,
            hash,
        });
    }
    Ok(JoinPlan {
        conjuncts,
        suchthat,
        levels,
    })
}

/// A join over the variables' deep extents, planned by [`plan_join`] and
/// run by [`JoinLoop`]: it returns the rows, in the order, or the first
/// error, that a nested loop testing the whole predicate on every tuple
/// would.
fn collect_join<C: ReadContext>(
    tx: &C,
    layout: &Layout,
    vars: &[(String, String)],
    suchthat: &Option<Expr>,
    prof: &mut QueryProfile,
) -> Result<Vec<Vec<Oid>>> {
    let db = tx.db();
    let target = vars
        .iter()
        .map(|(_, c)| c.as_str())
        .collect::<Vec<_>>()
        .join(",");
    // The detail is written once, when the join ends.
    let mut span = db.flight.span(SpanStage::Execute, String::new());
    let planned = plan_join(layout, vars, suchthat.as_ref());
    let plan = planned.inspect_err(|_| span.set_detail(target.clone()))?;
    let hashed = plan.levels.iter().any(|l| l.hash.is_some());
    let mut pass = QueryProfile {
        target: target.clone(),
        strategy: if hashed {
            PlanStrategy::HashJoin
        } else {
            PlanStrategy::NestedLoopJoin
        },
        ..QueryProfile::default()
    };
    for level in &plan.levels {
        pass.clusters_visited += layout.extent(level.class, true).clusters;
    }
    let mut join = JoinLoop {
        tx,
        layout,
        vars,
        plan: &plan,
        rows: Vec::new(),
        pass,
    };
    let joined = join.level(0, &[], usize::MAX);
    joined.inspect_err(|_| span.set_detail(target.clone()))?;
    let JoinLoop { rows, mut pass, .. } = join;

    pass.rows = rows.len() as u64;
    pass.levels = plan
        .levels
        .iter()
        .zip(vars)
        .map(|(level, (var, _))| {
            let (access, filters) = match &level.hash {
                None => (LevelAccess::ExtentScan, level.filters.len()),
                Some(h) => (
                    LevelAccess::HashBuild {
                        key: h.label.clone(),
                        built: h.table.get().map_or(0, |t| t.members.len() as u64),
                    },
                    h.build_tests.len() - 1 + h.pair_filters.len(),
                ),
            };
            JoinLevel {
                var: var.clone(),
                access,
                filters,
            }
        })
        .collect();
    let q = &db.tel.query;
    q.clusters_visited.add(pass.clusters_visited);
    q.objects_scanned.add(pass.objects_scanned);
    q.predicate_evals.add(pass.predicate_evals);
    q.deep_extent_scans.add(plan.levels.len() as u64);
    db.record_query_pass(&pass);
    span.set_detail(plan_detail(&pass));
    prof.absorb_owned(pass);
    Ok(rows)
}

/// The run of a [`JoinPlan`]: a level per variable, each binding its
/// variable to one candidate at a time with the outer variables' objects
/// still in hand, testing its filters under the early-filter rule, and a
/// leaf that tests the whole predicate. A scanned level streams its
/// extent again for every outer binding; a hash-built level streams it
/// once, on first use, and holds the masked state of every member its
/// build filters keep until the statement ends.
///
/// A conjunct that raises on the objects bound so far does not raise
/// there: the tuple is kept and no conjunct to its right may discard it
/// (the `raised` index passed down), so the leaf meets the error where the
/// nested loop would. A level whose key or table depends on a conjunct
/// that raised streams its extent for that outer binding instead.
struct JoinLoop<'j, C> {
    tx: &'j C,
    layout: &'j Layout,
    vars: &'j [(String, String)],
    plan: &'j JoinPlan,
    rows: Vec<Vec<Oid>>,
    pass: QueryProfile,
}

impl<'j, C: ReadContext> JoinLoop<'j, C> {
    /// Bind variable `depth` to each of its candidates in turn, the
    /// variables before it bound in `outer`, and descend. `raised` is the
    /// first conjunct that raised on `outer` (`usize::MAX` if none).
    fn level(&mut self, depth: usize, outer: &[BoundVar<'_>], raised: usize) -> Result<()> {
        if depth == self.vars.len() {
            return self.leaf(outer);
        }
        let tx = self.tx;
        let plan: &'j JoinPlan = self.plan;
        let level = &plan.levels[depth];
        let name = &self.vars[depth].0;
        // The bindings passed down: `outer` plus this level's. One buffer
        // per level call, refilled for every candidate.
        let mut buf: Vec<BoundVar<'_>> = Vec::with_capacity(depth + 1);
        let mut descend = |join: &mut Self,
                           oid: Oid,
                           state: &ObjState,
                           raised: usize,
                           filters: &[usize]|
         -> Result<()> {
            let mut bound = rebind(std::mem::take(&mut buf));
            bound.extend_from_slice(outer);
            bound.push(BoundVar { name, oid, state });
            if let Some(raised) = join.filter(&bound, raised, filters) {
                join.level(depth + 1, &bound, raised)?;
            }
            buf = rebind(bound);
            Ok(())
        };
        // The table discards by its build tests: an outer binding on which
        // a conjunct before one of them raised streams instead.
        if let Some(h) = &level.hash {
            if h.build_tests.last().is_some_and(|&j| j < raised) {
                if let Some(key) = self.probe_key(h, outer) {
                    let table = self.table(depth, h)?;
                    for &i in table.buckets.probe(&key).iter() {
                        let m = &table.members[i as usize];
                        descend(self, m.oid, &m.state, raised.min(m.raised), &h.pair_filters)?;
                    }
                    return Ok(());
                }
            }
        }
        tx.scan_extent(&self.extent(level), &mut |oid, state| {
            self.pass.objects_scanned += 1;
            descend(self, oid, state, raised, &level.filters)?;
            Ok(true)
        })
    }

    /// Test `filters` (ascending conjunct positions) on `bound`: `None` if
    /// one rejects the tuple, else the first conjunct that has raised on
    /// it. A filter right of a conjunct that raised is not tested.
    fn filter(
        &mut self,
        bound: &[BoundVar<'_>],
        mut raised: usize,
        filters: &[usize],
    ) -> Option<usize> {
        let frame = Frame {
            vars: bound,
            resolver: self.tx,
            ..Frame::new(&self.layout.schema)
        };
        let mut tested = false;
        for &j in filters {
            if j > raised {
                break;
            }
            tested = true;
            match self.plan.conjuncts[j].eval_bool(&frame) {
                Ok(true) => {}
                Ok(false) => {
                    self.pass.predicate_evals += 1;
                    return None;
                }
                Err(_) => raised = j,
            }
        }
        self.pass.predicate_evals += u64::from(tested);
        Some(raised)
    }

    /// The key's probe side over the outer bindings; `None` if it raised.
    fn probe_key(&self, h: &HashLevel, outer: &[BoundVar<'_>]) -> Option<Value> {
        h.probe
            .eval(&Frame {
                vars: outer,
                resolver: self.tx,
                ..Frame::new(&self.layout.schema)
            })
            .ok()
    }

    /// The stream of `level`'s deep extent, decoded through its mask.
    fn extent<'l>(&self, level: &'l Level) -> ExtentScan<'l>
    where
        'j: 'l,
    {
        ExtentScan {
            layout: self.layout,
            class: level.class,
            deep: true,
            mask: &level.mask,
            ranges: &[],
            key: None,
        }
    }

    /// The table of hash-built level `depth`, built on first use: its
    /// extent streamed once through the level's mask, each member tested
    /// by the build filters and bucketed by the build side's value.
    fn table(&mut self, depth: usize, h: &'j HashLevel) -> Result<&'j HashTable> {
        if let Some(table) = h.table.get() {
            return Ok(table);
        }
        let plan = self.plan;
        let level = &plan.levels[depth];
        let mut table = HashTable {
            members: Vec::new(),
            buckets: Buckets::default(),
        };
        // The build reads only this level's variable: the outer slots of
        // its frame hold a placeholder.
        let blank = ObjState::new(ClassId(0), 0);
        let mut buf: Vec<BoundVar<'_>> = Vec::with_capacity(depth + 1);
        let mut tested = 0u64;
        let mut scanned = 0u64;
        let tx = self.tx;
        let schema = &self.layout.schema;
        tx.scan_extent(&self.extent(level), &mut |oid, state| {
            scanned += 1;
            let mut vars = rebind(std::mem::take(&mut buf));
            let placeholder = BoundVar {
                name: "",
                oid,
                state: &blank,
            };
            vars.resize(depth, placeholder);
            vars.push(BoundVar {
                name: "",
                oid,
                state,
            });
            let frame = Frame {
                vars: &vars,
                resolver: tx,
                ..Frame::new(schema)
            };
            let mut raised = usize::MAX;
            let mut key = None;
            let mut kept = true;
            let mut filtered = false;
            for &j in &h.build_tests {
                if j > raised {
                    break;
                }
                if j == h.at {
                    // A key that raises or is not exact leaves the member
                    // unkeyed: in every probe, with the key not passed.
                    match h.build.eval(&frame) {
                        Ok(v) if exact_key(&v) => key = Some(v),
                        _ => raised = j,
                    }
                    continue;
                }
                filtered = true;
                match plan.conjuncts[j].eval_bool(&frame) {
                    Ok(true) => {}
                    Ok(false) => {
                        kept = false;
                        break;
                    }
                    Err(_) => raised = j,
                }
            }
            tested += u64::from(filtered);
            if kept {
                let i = table.members.len() as u32;
                table.buckets.insert(key, i);
                table.members.push(Member {
                    oid,
                    state: state.clone(),
                    raised,
                });
            }
            buf = rebind(vars);
            Ok(true)
        })?;
        self.pass.objects_scanned += scanned;
        self.pass.predicate_evals += tested;
        Ok(h.table.get_or_init(|| table))
    }

    /// Every variable is bound: keep the row if the predicate admits it.
    fn leaf(&mut self, bound: &[BoundVar<'_>]) -> Result<()> {
        if let Some(pred) = &self.plan.suchthat {
            self.pass.predicate_evals += 1;
            let admitted = pred.eval_bool(&Frame {
                vars: bound,
                resolver: self.tx,
                ..Frame::new(&self.layout.schema)
            })?;
            if !admitted {
                return Ok(());
            }
        }
        self.rows.push(bound.iter().map(|b| b.oid).collect());
        Ok(())
    }
}

/// An empty vector of bindings that keeps `v`'s allocation: collecting an
/// empty `vec::IntoIter` into a vector of the same layout reuses the buffer
/// in place, and the new vector may hold bindings of another lifetime — a
/// level refills one buffer with each candidate the stream lends it.
fn rebind<'b>(mut v: Vec<BoundVar<'_>>) -> Vec<BoundVar<'b>> {
    v.clear();
    v.into_iter()
        .map(|_| -> BoundVar<'b> { unreachable!("the vector is empty") })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    /// A complete stream under proven ranges records a narrowed (ranged)
    /// scan entry; a visitor that stops early widens it to a whole-heap
    /// entry — a partial iteration's outcome depends on enumeration order,
    /// so the ranges no longer bound what was observed (DESIGN.md §14).
    #[test]
    fn early_break_widens_scan_entries_to_whole_heap() {
        let db = Database::in_memory();
        db.define_from_source("class stockitem { string name; int quantity = 0; }")
            .unwrap();
        db.create_cluster("stockitem").unwrap();
        db.transaction(|tx| {
            for q in 1..=3 {
                tx.pnew("stockitem", &[("quantity", Value::Int(q))])?;
            }
            Ok(())
        })
        .unwrap();
        let ranges = extract_field_ranges(&parse_expr("quantity < 2").unwrap(), None);
        assert!(!ranges.is_empty(), "predicate must pin a range");
        let layout = db.layout();
        for (go_on, ranged) in [(true, true), (false, false)] {
            let tx = db.begin();
            let scan = ExtentScan {
                layout: &layout,
                class: layout.schema.id_of("stockitem").unwrap(),
                deep: true,
                mask: &SlotMask::ALL,
                ranges: &ranges,
                key: None,
            };
            tx.scan_extent(&scan, &mut |_, _| Ok(go_on)).unwrap();
            let scans = tx.observed_scans();
            assert_eq!(scans.len(), 1);
            assert_eq!(scans[0].1, ranged, "visitor continued: {go_on}");
        }
    }
}
