//! O++-flavoured query statements.
//!
//! §3.1 of the paper writes queries as
//!
//! ```text
//! for all x in cluster [suchthat (condition)] [by (expression)] statement
//! ```
//!
//! `ode_model::parse_statement` reads that form (and the DML/DDL around
//! it) into one typed [`Statement`]; this module *executes* statements
//! through the [`crate::query`] machinery. [`Database::execute`] is the
//! one statement executor: it runs a line end to end as its own
//! transaction (parse → gate → footprint → route → run → commit) and is
//! what the shell and server call. [`Database::run`],
//! [`Transaction::run`] and [`ReadTransaction::run`] take the parsed
//! statement and do no parsing and no analysis; the transactions'
//! `execute(&str)` conveniences are parse → gate → run inside a
//! transaction the caller owns.
//!
//! * in single-variable queries the variable is bound, so qualified
//!   (`e.deptno`), bare (`deptno`), and `is`-test forms all work and
//!   indexed conjuncts are planned through the secondary indexes,
//! * `by (...)` with optional `desc` orders single-variable queries.
//!
//! The *statement body* is Rust: [`Transaction::query_run`] takes a
//! closure; [`Transaction::query`] materializes the bindings.

use std::collections::HashMap;

use ode_analyze::{Diagnostic, Footprint};
use ode_model::{
    bind, extract_field_ranges, parse_statement, BoundExpr, BoundVar, Expr, FieldRange, Frame,
    ModelError, Oid, Scope, Statement, Value,
};
use ode_obs::QueryProfile;

pub use ode_model::{Binding, QueryStmt};

use crate::database::Database;
use crate::error::{OdeError, Result};
use crate::query::{new_forall, new_forall_join};
use crate::read::{ReadContext, ReadTransaction};
use crate::trigger::{CommitInfo, TriggerId};
use crate::txn::Transaction;

/// The key ranges a DML statement's `suchthat` provably pins on its
/// (single) loop variable — the write half of the footprint the analyzer
/// computes statically (DESIGN.md §14). Joins get no ranges: their write
/// sets depend on the other bindings.
fn suchthat_ranges(stmt: &QueryStmt) -> Vec<FieldRange> {
    match (&stmt.bindings[..], &stmt.suchthat) {
        ([b], Some(pred)) => extract_field_ranges(pred, Some(b.var.as_str())),
        _ => Vec::new(),
    }
}

/// Materialized query result: variable names plus one row per binding
/// combination, in iteration order.
#[derive(Debug, Clone)]
pub struct QueryRows {
    /// The loop variables, in declaration order.
    pub vars: Vec<String>,
    /// One oid per variable per row.
    pub rows: Vec<Vec<Oid>>,
}

impl QueryRows {
    /// Rows as name→oid maps.
    pub fn maps(&self) -> Vec<HashMap<String, Oid>> {
        self.rows
            .iter()
            .map(|row| self.vars.iter().cloned().zip(row.iter().copied()).collect())
            .collect()
    }

    /// Single-variable convenience: the oids of the only variable.
    pub fn oids(&self) -> Result<Vec<Oid>> {
        if self.vars.len() != 1 {
            return Err(OdeError::Usage(format!(
                "query has {} variables; oids() needs exactly one",
                self.vars.len()
            )));
        }
        Ok(self.rows.iter().map(|r| r[0]).collect())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the result empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Parse a `forall …` statement.
pub fn parse_query(src: &str) -> Result<QueryStmt> {
    match parse_statement(src)? {
        Statement::Forall(query) => Ok(query),
        _ => Err(OdeError::Model(ModelError::Parse {
            message: "expected `forall`".into(),
            at: 0,
        })),
    }
}

impl<'db> Transaction<'db> {
    /// Execute a `forall …` statement and materialize the qualifying
    /// bindings.
    pub fn query(&mut self, src: &str) -> Result<QueryRows> {
        self.ensure_live()?;
        let stmt = parse_query(src)?;
        run_query(self, &stmt, &mut QueryProfile::default())
            .map_err(|e| with_statement_context(e, src))
    }

    /// Execute a `forall …` statement, running `f` for every qualifying
    /// binding. Returns the number of bindings visited.
    pub fn query_run(
        &mut self,
        src: &str,
        mut f: impl FnMut(&mut Transaction<'db>, &HashMap<String, Oid>) -> Result<()>,
    ) -> Result<usize> {
        let rows = self.query(src)?;
        let maps = rows.maps();
        for m in &maps {
            f(self, m)?;
        }
        Ok(maps.len())
    }

    /// Execute any statement — query or DML — returning what it produced.
    ///
    /// ```text
    /// forall s in stockitem suchthat (quantity < 10)        → Rows
    /// pnew stockitem (name = "dram", quantity = 100)        → Created
    /// update s in stockitem suchthat (quantity < 10)
    ///     set on_order = on_order + 100, quantity = 10      → Updated(n)
    /// delete s in stockitem suchthat (quantity == 0)        → Deleted(n)
    /// ```
    ///
    /// Parse → gate → [`Transaction::run`]. The front-end runs first
    /// (DESIGN.md §9): a statement the analyzer rejects does no
    /// transaction work at all.
    pub fn execute(&mut self, src: &str) -> Result<ExecResult> {
        self.ensure_live()?;
        let stmt = parse_statement(src)?;
        self.db.gate(&stmt, src)?;
        self.run(&stmt).map_err(|e| with_statement_context(e, src))
    }

    /// Run one parsed (and, by the caller, analyzed) statement: no
    /// parsing and no gating happen here.
    ///
    /// DML runs inside this transaction: constraints apply per update
    /// (§5), and trigger conditions are evaluated when the transaction
    /// commits (§6). DDL is not transactional — it runs on the
    /// [`crate::Database`] — and is a usage error here.
    pub fn run(&mut self, stmt: &Statement) -> Result<ExecResult> {
        self.ensure_live()?;
        match stmt {
            Statement::Pnew { class, inits } => {
                let values = self.eval_free(inits.iter().map(|(_, expr)| expr))?;
                let pairs: Vec<(&str, Value)> = inits
                    .iter()
                    .map(|(field, _)| field.as_str())
                    .zip(values)
                    .collect();
                Ok(ExecResult::Created(self.pnew(class, &pairs)?))
            }
            Statement::Update { target, assigns } => {
                let oids = self.dml_targets(target)?;
                let n = oids.len();
                // The assigned values are bound once, in the scope of the
                // `suchthat`: the object is `this` and the loop variable.
                let layout = self.db.layout();
                let schema = &layout.schema;
                let names: Vec<&str> = target.bindings.iter().map(|b| b.var.as_str()).collect();
                let scope = Scope::query(&names);
                let assigns: Vec<(&str, BoundExpr)> = assigns
                    .iter()
                    .map(|(field, expr)| (field.as_str(), bind(schema, &scope, expr)))
                    .collect();
                for oid in oids {
                    self.update(oid, |w| {
                        for (field, value) in &assigns {
                            // Assignments see the object as the earlier
                            // ones left it, through the writer
                            // (left-to-right within one object, as in a
                            // C++ body).
                            let (_, state) = w.parts();
                            let var = BoundVar {
                                name: names[0],
                                oid,
                                state,
                            };
                            let v = value.eval(&Frame {
                                this: Some(state),
                                vars: std::slice::from_ref(&var),
                                ..Frame::new(schema)
                            })?;
                            w.set(field, v)?;
                        }
                        Ok(())
                    })?;
                }
                Ok(ExecResult::Updated(n))
            }
            Statement::Delete(target) => {
                let oids = self.dml_targets(target)?;
                let n = oids.len();
                for oid in oids {
                    self.pdelete(oid)?;
                }
                Ok(ExecResult::Deleted(n))
            }
            Statement::Activate { trigger, oid, args } => {
                let args = self.eval_free(args.iter())?;
                Ok(ExecResult::Activated {
                    id: self.activate_trigger(*oid, trigger, args)?,
                    trigger: trigger.clone(),
                    oid: *oid,
                })
            }
            Statement::Deactivate { id } => {
                self.deactivate_trigger(TriggerId(*id))?;
                Ok(ExecResult::Deactivated(TriggerId(*id)))
            }
            _ => run_read(self, stmt),
        }
    }

    /// Evaluate expressions with no object in scope (`pnew` initializers,
    /// `activate` arguments).
    fn eval_free<'e>(&self, exprs: impl Iterator<Item = &'e Expr>) -> Result<Vec<Value>> {
        let schema = &self.db.layout().schema;
        let frame = Frame::new(schema);
        exprs
            .map(|e| Ok(bind(schema, &Scope::FREE, e).eval(&frame)?))
            .collect()
    }

    /// The objects an `update`/`delete` touches, noted as a ranged write.
    ///
    /// Self-verifying note: commit re-checks that every written object
    /// really sat inside the `suchthat` ranges and only the assigned
    /// fields moved, then stamps the heap with the ranges instead of a
    /// whole-heap stamp (narrowed validation, DESIGN.md §14).
    fn dml_targets(&mut self, target: &QueryStmt) -> Result<Vec<Oid>> {
        let oids = run_query(self, target, &mut QueryProfile::default())?.oids()?;
        self.note_ranged_write(oids.clone(), suchthat_ranges(target));
        Ok(oids)
    }
}

impl ReadTransaction<'_> {
    /// Execute a `forall …` statement against this snapshot and
    /// materialize the qualifying bindings.
    pub fn query(&mut self, src: &str) -> Result<QueryRows> {
        let stmt = parse_query(src)?;
        run_query(self, &stmt, &mut QueryProfile::default())
            .map_err(|e| with_statement_context(e, src))
    }

    /// Execute a read-only statement — parse → gate →
    /// [`ReadTransaction::run`].
    pub fn execute(&mut self, src: &str) -> Result<ExecResult> {
        let stmt = parse_statement(src)?;
        self.db.gate(&stmt, src)?;
        self.run(&stmt).map_err(|e| with_statement_context(e, src))
    }

    /// Run one parsed (and, by the caller, analyzed) read-only statement:
    /// `forall` queries and `explain`. Anything else needs a write
    /// transaction (or, for DDL, the database) — requesting it here is a
    /// usage error, not a silent no-op.
    pub fn run(&mut self, stmt: &Statement) -> Result<ExecResult> {
        run_read(self, stmt)
    }
}

/// The statements either transaction kind can run.
fn run_read<C: ReadContext>(tx: &mut C, stmt: &Statement) -> Result<ExecResult> {
    let mut prof = QueryProfile::default();
    match stmt {
        Statement::Forall(query) => Ok(ExecResult::Rows(run_query(tx, query, &mut prof)?)),
        Statement::Explain(query) => {
            run_query(tx, query, &mut prof)?;
            Ok(ExecResult::Explain(prof))
        }
        stmt if stmt.is_ddl() => Err(OdeError::Usage(
            "DDL is not transactional; it runs on the Database".into(),
        )),
        _ => Err(OdeError::Usage(
            "statement mutates the database; a read transaction only runs `forall`/`explain`"
                .into(),
        )),
    }
}

/// Execute a parsed query through either transaction kind, accumulating
/// its execution profile — the engine behind `explain <query>`.
fn run_query<C: ReadContext>(
    tx: &mut C,
    stmt: &QueryStmt,
    prof: &mut QueryProfile,
) -> Result<QueryRows> {
    let vars = stmt.bindings.iter().map(|b| b.var.clone()).collect();
    if let [b] = &stmt.bindings[..] {
        let mut q = new_forall(tx, &b.cluster)?.bind(&b.var);
        if !b.deep {
            q = q.shallow();
        }
        if let Some(pred) = &stmt.suchthat {
            q = q.suchthat_expr(pred.clone());
        }
        if let Some((key, desc)) = &stmt.by {
            q = q.by_expr(key.clone(), *desc);
        }
        let oids = q.collect_oids_profiled(prof)?;
        return Ok(QueryRows {
            vars,
            rows: oids.into_iter().map(|o| vec![o]).collect(),
        });
    }
    // Join form: the parser refuses `by` and `only` on a join.
    let pairs: Vec<(&str, &str)> = stmt
        .bindings
        .iter()
        .map(|b| (b.var.as_str(), b.cluster.as_str()))
        .collect();
    let mut q = new_forall_join(tx, &pairs)?;
    if let Some(pred) = &stmt.suchthat {
        q = q.suchthat_expr(pred.clone());
    }
    let rows = q.collect_profiled(prof)?;
    Ok(QueryRows { vars, rows })
}

/// What one statement produced — the result of [`Database::execute`],
/// [`Transaction::run`] and [`ReadTransaction::run`] (the transaction
/// kinds never produce the DDL outcomes).
#[derive(Debug, Clone)]
pub enum ExecResult {
    /// A `forall` query's bindings.
    Rows(QueryRows),
    /// `pnew` created this object.
    Created(Oid),
    /// `update … set` modified this many objects.
    Updated(usize),
    /// `delete` removed this many objects.
    Deleted(usize),
    /// `explain <query>`: the executed query's plan and profile.
    Explain(QueryProfile),
    /// `activate` armed this trigger activation.
    Activated {
        /// The new activation.
        id: TriggerId,
        /// The trigger it arms.
        trigger: String,
        /// The object it is armed on.
        oid: Oid,
    },
    /// `deactivate` disarmed this trigger activation.
    Deactivated(TriggerId),
    /// `class …` defined these classes, in declaration order.
    Defined(Vec<String>),
    /// `create cluster` made (or found) this class's cluster.
    ClusterCreated(String),
    /// `destroy cluster` dropped this class's cluster and its objects.
    ClusterDestroyed(String),
    /// `create index` built (or found) this index.
    IndexCreated {
        /// The indexed class.
        class: String,
        /// The indexed member.
        field: String,
    },
}

/// One statement run end to end by [`Database::execute`].
pub struct Executed<'db> {
    /// What the statement produced.
    pub result: ExecResult,
    /// The analyzer's warnings (errors reject the statement before it
    /// runs); empty from [`Database::run`], which does not analyze.
    pub warnings: Vec<Diagnostic>,
    /// The footprint that routed the statement (`None` for DDL and
    /// trigger (de)activation).
    pub footprint: Option<Footprint>,
    /// What the commit fired, for a statement run in a write transaction.
    pub commit: Option<CommitInfo>,
    /// For [`ExecResult::Rows`]: the snapshot that selected them, held so
    /// they render from that state. No commit publishes while it is
    /// open, so drop it before this thread runs another statement.
    pub snapshot: Option<ReadTransaction<'db>>,
}

impl Database {
    /// Run one statement as its own transaction (DESIGN.md §9): parse,
    /// analyze once (errors reject it before any transaction work), then
    /// [`Database::run`].
    pub fn execute(&self, src: &str) -> Result<Executed<'_>> {
        let stmt = parse_statement(src)?;
        let warnings = self.gate(&stmt, src)?;
        let mut done = self.run(&stmt)?;
        done.warnings = warnings;
        Ok(done)
    }

    /// The parsed-statement half of [`Database::execute`]: footprint →
    /// route → run → commit, with no parsing and no analyzer pass. DDL
    /// runs on the database; a statement whose footprint proves it
    /// read-only (`forall`, `explain`) runs on a snapshot, past the
    /// writer gate (DESIGN.md §8); the rest runs in a write transaction
    /// and auto-commits.
    pub fn run(&self, stmt: &Statement) -> Result<Executed<'_>> {
        let footprint = self.footprint(stmt);
        let (result, commit, snapshot) = if let Some(ddl) = self.run_ddl(stmt) {
            (ddl?, None, None)
        } else if footprint.as_ref().is_some_and(Footprint::read_only) {
            let mut rtx = self.begin_read();
            let result = rtx.run(stmt)?;
            let keep = matches!(result, ExecResult::Rows(_));
            (result, None, keep.then_some(rtx))
        } else {
            let mut tx = self.begin();
            let result = tx.run(stmt)?;
            (result, Some(tx.commit()?), None)
        };
        Ok(Executed {
            result,
            warnings: Vec::new(),
            footprint,
            commit,
            snapshot,
        })
    }

    /// Apply a DDL statement; `None` for any other statement.
    fn run_ddl(&self, stmt: &Statement) -> Option<Result<ExecResult>> {
        let done = match stmt {
            Statement::Class(builders) => builders
                .iter()
                .map(|b| {
                    self.define_class_unchecked(b.clone())
                        .map(|_| b.name().to_string())
                })
                .collect::<Result<_>>()
                .map(ExecResult::Defined),
            Statement::CreateCluster { class } => self
                .create_cluster(class)
                .map(|_| ExecResult::ClusterCreated(class.clone())),
            Statement::DestroyCluster { class } => self
                .destroy_cluster(class)
                .map(|()| ExecResult::ClusterDestroyed(class.clone())),
            Statement::CreateIndex { class, field } => {
                self.create_index(class, field)
                    .map(|()| ExecResult::IndexCreated {
                        class: class.clone(),
                        field: field.clone(),
                    })
            }
            _ => return None,
        };
        Some(done)
    }
}

/// Annotate eval-time unbound-variable failures with the statement they
/// came from (`$param` outside a trigger body, a bare name the evaluator
/// could not resolve), so shell/server users see *where* it failed
/// instead of a naked `unknown variable`.
fn with_statement_context(e: OdeError, src: &str) -> OdeError {
    match e {
        OdeError::Model(ModelError::UnknownVar(_)) => OdeError::InStatement {
            statement: clip_statement(src),
            source: Box::new(e),
        },
        other => other,
    }
}

/// One display line of statement text: whitespace collapsed, long tails
/// elided.
fn clip_statement(src: &str) -> String {
    const MAX: usize = 120;
    let collapsed = src.split_whitespace().collect::<Vec<_>>().join(" ");
    if collapsed.chars().count() > MAX {
        let head: String = collapsed.chars().take(MAX).collect();
        format!("{head}…")
    } else {
        collapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_query_reads_forall_only() {
        let q = parse_query("for all p in only person suchthat (age > 21) by (name) desc").unwrap();
        assert_eq!(q.bindings.len(), 1);
        assert!(!q.bindings[0].deep);
        assert!(q.suchthat.is_some());
        assert!(matches!(q.by, Some((_, true))));
        for not_a_query in ["select * from person", "delete p in person"] {
            assert!(matches!(
                parse_query(not_a_query),
                Err(OdeError::Model(ModelError::Parse { .. }))
            ));
        }
    }

    /// The `by` key reaches the query builder as the parsed `Expr`: a key
    /// holding a quoted string (with a `)` and an escape-worthy quote in
    /// it) orders correctly without an `Expr: Display` → `parse_expr`
    /// round trip.
    #[test]
    fn by_key_with_a_quoted_string_runs() {
        let db = crate::Database::in_memory();
        db.define_from_source("class tag { string name; }").unwrap();
        db.create_cluster("tag").unwrap();
        let mut tx = db.begin();
        for name in ["b", "a", "c"] {
            tx.execute(&format!(r#"pnew tag (name = "{name}")"#))
                .unwrap();
        }
        let rows = match tx
            .execute(r#"forall t in tag by (name + ") 'x'") desc"#)
            .unwrap()
        {
            ExecResult::Rows(rows) => rows.oids().unwrap(),
            other => panic!("{other:?}"),
        };
        let names: Vec<Value> = rows.iter().map(|o| tx.get(*o, "name").unwrap()).collect();
        assert_eq!(
            names,
            vec![Value::from("c"), Value::from("b"), Value::from("a")]
        );
    }
}
