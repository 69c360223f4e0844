//! Static semantic analysis for O++ statements and schemas.
//!
//! The paper's O++ is a *compiled* language: unknown members, type
//! mismatches, and ill-formed constraints are rejected by the compiler,
//! never discovered halfway through a `forall` that has already visited
//! thousands of objects. This crate restores that front-end: a
//! catalog-aware checker that runs on every parsed statement *before* a
//! write transaction is opened or a snapshot is taken (§2 classes, §3.1
//! `suchthat`/`by` typing, §3.2 fixpoint safety, §5 constraints, §6
//! triggers).
//!
//! The crate deliberately depends only on `ode-model`: every pass is a
//! plain function over the [`Statement`] that `ode_model::parse_statement`
//! produced, and the engine (`ode-core`) supplies catalog facts (which
//! `(class, field)` pairs are indexed) as a [`CatalogView`]. That keeps
//! the dependency arrow pointing the same way as the rest of the stack
//! (model ← analyze ← core ← shell/server).
//!
//! Three families of passes, each producing [`Diagnostic`]s with stable
//! codes (see DESIGN.md §9 for the full table):
//!
//! * **statement analysis** ([`analyze_stmt`]) — typing of every member
//!   access, method call, and loop variable as `ode_model::bind` resolves
//!   them; lints for provably unsatisfiable `suchthat` ranges,
//!   non-orderable `by` keys, unindexed equality predicates, and
//!   `is`-tests outside the cluster hierarchy.
//! * **schema analysis** ([`analyze_class`]) — at DDL time: constraint
//!   contradictions across a class and its superclasses (§5
//!   constraint-based specialization), perpetual-trigger dependency
//!   cycles (§6), and type checks over constraint/trigger expressions.
//! * **fixpoint safety** ([`check_fixpoint_body`]) — a §3.2 recursive
//!   `forall` body may only *add* to the iterated cluster; a body that
//!   deletes from it is rejected.

mod ddl;
pub mod footprint;
mod infer;
pub mod interfere;

use std::collections::HashSet;
use std::fmt;

use ode_model::range::comparisons;
use ode_model::{
    bind, BinOp, ClassId, Expr, FieldRange, ModelError, QueryStmt, Schema, Scope, Statement,
    ValueRange,
};

use infer::{SType, Statics};

pub use ddl::{analyze_class, check_fixpoint_body, check_predicate};
pub use footprint::{footprint_of, ClusterAccess, Footprint};
pub use interfere::batch_interference;

// ------------------------------------------------------------ diagnostics

/// Where in the statement source a diagnostic points (byte offsets).
///
/// Spans are best-effort: the expression AST carries no positions, so
/// the analyzer locates the offending token by searching the statement
/// text. A span is omitted when the token cannot be found verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
}

/// Diagnostic severity. Errors abort the statement before any
/// transaction work; warnings are advisory and never block execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Advisory: the statement runs, but is probably not what was meant.
    Warning,
    /// The statement is rejected before a transaction is opened.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One analyzer finding: a stable code, severity, message, and an
/// optional span into the statement source.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`A001` …). Codes never change meaning; tools may
    /// match on them.
    pub code: &'static str,
    /// Error (blocks execution) or warning (advisory).
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// Best-effort location in the statement source.
    pub span: Option<Span>,
}

impl Diagnostic {
    pub(crate) fn new(code: &'static str, severity: Severity, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message,
            span: None,
        }
    }

    /// A001 for a class the schema does not know.
    pub(crate) fn unknown_class(class: &str, src: &str) -> Diagnostic {
        Diagnostic::new(A001, Severity::Error, format!("unknown class `{class}`"))
            .locate(src, class)
    }

    /// A000 for a statement the engine could not parse at all — used by
    /// batch lint (`.check`), where a parse failure must still be a
    /// coded, per-statement finding rather than aborting the whole file.
    pub fn parse_failure(message: String) -> Diagnostic {
        Diagnostic::new(A000, Severity::Error, message)
    }

    /// A002 for a member the class does not declare.
    pub(crate) fn unknown_member(class: &str, member: &str, src: &str) -> Diagnostic {
        Diagnostic::new(
            A002,
            Severity::Error,
            format!("class `{class}` has no member `{member}`"),
        )
        .locate(src, member)
    }

    /// Attach a span by locating `token` in `src` (first occurrence).
    pub(crate) fn locate(mut self, src: &str, token: &str) -> Diagnostic {
        if !token.is_empty() {
            if let Some(offset) = src.find(token) {
                self.span = Some(Span {
                    offset,
                    len: token.len(),
                });
            }
        }
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = self.span {
            write!(f, " (at byte {})", span.offset)?;
        }
        Ok(())
    }
}

/// Do any of the diagnostics carry [`Severity::Error`]?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

// Stable diagnostic codes. `A0xx` are errors, `A1xx` are warnings —
// except A009 (trigger cycle), which is advisory because the read/write
// graph cannot prove non-termination and the engine bounds cascades at
// runtime.
pub(crate) const A000: &str = "A000"; // statement does not parse
pub(crate) const A001: &str = "A001"; // unknown class
pub(crate) const A002: &str = "A002"; // unknown member
pub(crate) const A003: &str = "A003"; // unknown method
pub(crate) const A004: &str = "A004"; // unresolved variable
pub(crate) const A005: &str = "A005"; // type mismatch
pub(crate) const A006: &str = "A006"; // `by` key not totally ordered
pub(crate) const A007: &str = "A007"; // DML assignment type mismatch
pub(crate) const A008: &str = "A008"; // contradictory constraints (DDL)
pub(crate) const A009: &str = "A009"; // perpetual trigger cycle (DDL, warning)
pub(crate) const A010: &str = "A010"; // fixpoint body deletes from cluster
pub(crate) const A101: &str = "A101"; // suchthat provably unsatisfiable
pub(crate) const A102: &str = "A102"; // unindexed equality predicate
pub(crate) const A103: &str = "A103"; // is-test outside the hierarchy

// `A2xx` are active-database lints (warnings): trigger/scheduler shapes
// that run, but probably not the way the author meant.
pub(crate) const A201: &str = "A201"; // perpetual trigger re-satisfies itself

// `A3xx` are interference lints (warnings): footprints that cannot be
// proven disjoint, so the statements or triggers are going to serialize
// — or abort each other — at run time.
pub(crate) const A301: &str = "A301"; // interfering statement pair in a batch
pub(crate) const A302: &str = "A302"; // write-skew-prone trigger pair

// ------------------------------------------------------------ inputs

/// Catalog facts the analyzer cannot learn from the [`Schema`] alone.
/// Built by the engine from its live catalog under the schema lock.
#[derive(Debug, Clone, Default)]
pub struct CatalogView {
    /// `(class, field)` pairs backed by a B-tree index — the basis for
    /// the unindexed-predicate lint (A102, cross-referenced in
    /// `explain`'s plan strategy).
    pub indexed: HashSet<(ClassId, String)>,
}

impl CatalogView {
    fn is_indexed(&self, class: ClassId, field: &str) -> bool {
        self.indexed.contains(&(class, field.to_string()))
    }
}

// ------------------------------------------------------------ statements

/// Analyze one parsed statement against the schema and catalog. `src` is
/// the statement's source text (used only for spans); `catalog` enables
/// the index-awareness lints when present. Statements with no statically
/// analyzable shape (`destroy cluster`, `activate`, `deactivate`) come
/// back clean.
pub fn analyze_stmt(
    schema: &Schema,
    catalog: Option<&CatalogView>,
    src: &str,
    stmt: &Statement,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    match stmt {
        Statement::Forall(q) | Statement::Explain(q) => {
            analyze_query(schema, catalog, src, q, &[], &mut diags, true);
        }
        Statement::Pnew { class, inits } => {
            analyze_pnew(schema, src, class, inits, &mut diags);
        }
        Statement::Update { target, assigns } => {
            analyze_query(schema, catalog, src, target, assigns, &mut diags, false);
        }
        Statement::Delete(target) => {
            analyze_query(schema, catalog, src, target, &[], &mut diags, false);
        }
        // DDL-time analysis (§5 constraints, §6 triggers): apply the
        // definitions to a scratch copy of the schema, then run the
        // schema-level passes on each new class. A bare name in a body
        // that is no member is A004, as the binder reports it elsewhere;
        // other definition errors (dup class, unknown base) are left for
        // the real `define` to report with their original error type.
        Statement::Class(builders) => {
            let mut scratch = schema.clone();
            for b in builders {
                match scratch.define(b.clone()) {
                    Ok(id) => diags.extend(analyze_class(&scratch, id)),
                    Err(ModelError::UnknownField { class, field }) => {
                        let message = format!(
                            "unresolved identifier `{field}`: not a member of class `{class}`"
                        );
                        diags.push(
                            Diagnostic::new(A004, Severity::Error, message).locate(src, &field),
                        );
                        break;
                    }
                    Err(_) => break,
                }
            }
            return diags;
        }
        Statement::CreateCluster { class } => {
            if schema.class_by_name(class).is_err() {
                diags.push(Diagnostic::unknown_class(class, src));
            }
        }
        Statement::CreateIndex { class, field } => match schema.class_by_name(class) {
            Err(_) => diags.push(Diagnostic::unknown_class(class, src)),
            Ok(def) if def.field(field).is_err() => {
                diags.push(Diagnostic::unknown_member(&def.name, field, src));
            }
            Ok(_) => {}
        },
        Statement::DestroyCluster { .. }
        | Statement::Activate { .. }
        | Statement::Deactivate { .. } => {}
    }
    dedup(diags)
}

/// Shared analysis for the query-shaped statements (`forall`, `update`,
/// `delete`): binding resolution, predicate typing, satisfiability,
/// `by`-key orderability, the unindexed-predicate lint, and an update's
/// `assigns`, which see the same names as its `suchthat`.
fn analyze_query(
    schema: &Schema,
    catalog: Option<&CatalogView>,
    src: &str,
    query: &QueryStmt,
    assigns: &[(String, Expr)],
    diags: &mut Vec<Diagnostic>,
    lint_index: bool,
) {
    let bindings = &query.bindings[..];
    for b in bindings {
        if schema.class_by_name(&b.cluster).is_err() {
            diags.push(Diagnostic::unknown_class(&b.cluster, src));
        }
    }
    // Name/type resolution needs every binding resolved; bail out of the
    // deeper passes when a class is unknown rather than cascade.
    let Ok(classes) = bindings
        .iter()
        .map(|b| schema.id_of(&b.cluster))
        .collect::<Result<Vec<_>, _>>()
    else {
        return;
    };
    let names: Vec<&str> = bindings.iter().map(|b| b.var.as_str()).collect();
    let scope = Scope::query(&names);
    let statics = Statics {
        vars: &classes,
        this: classes.first().copied().filter(|_| scope.has_this()),
        trigger: false,
    };
    let type_of = |expr: &Expr, diags: &mut Vec<Diagnostic>| {
        infer::infer(schema, &statics, src, &bind(schema, &scope, expr), diags)
    };
    if let Some(pred) = &query.suchthat {
        let ty = type_of(pred, diags);
        if !ty.is_boolish() {
            diags.push(Diagnostic::new(
                A005,
                Severity::Error,
                format!(
                    "suchthat predicate has type {}, expected bool",
                    ty.describe(schema)
                ),
            ));
        }
        // The footprint pass's per-binding accesses carry the ranges A101
        // reads and the index choice A102 reads.
        let accesses = footprint::read_accesses(schema, catalog, query);
        check_satisfiable(src, query, pred, &accesses, diags);
        if lint_index && catalog.is_some() {
            lint_unindexed(schema, src, &accesses, diags);
        }
    }
    if let Some((key, _)) = &query.by {
        let ty = type_of(key, diags);
        if !ty.is_orderable() {
            diags.push(Diagnostic::new(
                A006,
                Severity::Error,
                format!(
                    "`by` key has type {}, which is not totally ordered \
                     (only numbers and strings sort)",
                    ty.describe(schema)
                ),
            ));
        }
    }
    let class = &bindings[0].cluster;
    for (field, expr) in assigns {
        let value_ty = type_of(expr, diags);
        check_store(schema, src, class, field, &value_ty, false, diags);
    }
}

fn analyze_pnew(
    schema: &Schema,
    src: &str,
    class: &str,
    inits: &[(String, Expr)],
    diags: &mut Vec<Diagnostic>,
) {
    if schema.class_by_name(class).is_err() {
        diags.push(Diagnostic::unknown_class(class, src));
        return;
    }
    // Initializers evaluate with no object in scope: bare identifiers
    // would be unresolved at run time, so only literal-ish expressions
    // and parameters of already-checked shape appear here.
    let statics = Statics {
        vars: &[],
        this: None,
        trigger: false,
    };
    for (field, expr) in inits {
        let bound = bind(schema, &Scope::FREE, expr);
        let value_ty = infer::infer(schema, &statics, src, &bound, diags);
        check_store(schema, src, class, field, &value_ty, true, diags);
    }
}

/// Check storing a value of type `value_ty` in `class.field`: a `pnew`
/// initializer (`init`) or an `update`'s `set`.
fn check_store(
    schema: &Schema,
    src: &str,
    class: &str,
    field: &str,
    value_ty: &SType,
    init: bool,
    diags: &mut Vec<Diagnostic>,
) {
    let Ok(def) = schema.class_by_name(class) else {
        return;
    };
    let Ok(layout) = def.field(field) else {
        diags.push(Diagnostic::unknown_member(class, field, src));
        return;
    };
    if !value_ty.assignable_to(schema, &layout.ty) {
        let (decl, ty) = (layout.ty.name(), value_ty.describe(schema));
        let message = if init {
            format!("cannot initialize `{class}.{field}` ({decl}) with a value of type {ty}")
        } else {
            format!("cannot assign a value of type {ty} to `{class}.{field}` ({decl})")
        };
        diags.push(Diagnostic::new(A007, Severity::Error, message).locate(src, field));
    }
}

/// The field whose extracted `ranges` prove `pred` contradictory, if
/// any: a range came out empty (`q > 10 && q < 5`), or a `q != v`
/// conjunct excludes the one value an equality pinned (`q == 5 && q !=
/// 5`). `ranges` must have been extracted from `pred` with the same `var`
/// and `bare` reading.
pub(crate) fn contradiction<'a>(
    pred: &'a Expr,
    var: Option<&str>,
    bare: bool,
    ranges: &'a [FieldRange],
) -> Option<&'a str> {
    if let Some(r) = ranges.iter().find(|r| r.range.is_empty()) {
        return Some(&r.field);
    }
    let mut excluded = None;
    if !ranges.is_empty() {
        comparisons(pred, var, bare, &mut |field, op, v| {
            if op == BinOp::Ne
                && excluded.is_none()
                && ranges
                    .iter()
                    .find(|r| r.field == field)
                    .is_some_and(|r| r.range == ValueRange::point(v))
            {
                excluded = Some(field);
            }
        });
    }
    excluded
}

/// A101: the `suchthat` predicate can never hold, because the ranges a
/// binding's access pins are contradictory.
fn check_satisfiable(
    src: &str,
    query: &QueryStmt,
    pred: &Expr,
    accesses: &[ClusterAccess],
    diags: &mut Vec<Diagnostic>,
) {
    // The footprint reads bare identifiers for a single binding only.
    let bare = accesses.len() == 1;
    for (b, acc) in query.bindings.iter().zip(accesses) {
        if let Some(field) = contradiction(pred, Some(&b.var), bare, &acc.ranges) {
            diags.push(
                Diagnostic::new(
                    A101,
                    Severity::Warning,
                    format!(
                        "suchthat is provably unsatisfiable: contradictory \
                         constraints on `{}.{field}` select no objects",
                        b.var
                    ),
                )
                .locate(src, field),
            );
            return;
        }
    }
}

/// A102: a single-binding query with an equality conjunct on a member
/// whose plan is an extent scan: the binding is `only` (an index covers
/// the deep extent, so a shallow query never probes one), or no extracted
/// range is on an indexed member. The access's index is the planner's own
/// choice ([`ode_model::probe_range`] over the extracted ranges), so the
/// lint fires exactly when `explain` shows an extent scan. A join is not
/// flagged: it hash-builds an inner binding on an equality key, index or
/// not.
fn lint_unindexed(
    schema: &Schema,
    src: &str,
    accesses: &[ClusterAccess],
    diags: &mut Vec<Diagnostic>,
) {
    let [acc] = accesses else {
        return;
    };
    let Ok(def) = schema.class_by_name(&acc.class) else {
        return;
    };
    let Some(eq) = acc
        .ranges
        .iter()
        .find(|r| r.range.is_probe_point() && def.field(&r.field).is_ok())
    else {
        return;
    };
    if acc.index.is_some() {
        return;
    }
    let (class, field) = (&acc.class, &eq.field);
    let message = if acc.deep {
        format!(
            "equality on `{class}.{field}` has no index; the query will scan the extent \
             (`explain` shows the plan, `create index {class} {field}` would probe)"
        )
    } else {
        format!(
            "equality on `{class}.{field}`: a query over `only {class}` never probes an \
             index; it scans the extent (`explain` shows the plan)"
        )
    };
    diags.push(Diagnostic::new(A102, Severity::Warning, message).locate(src, field));
}

/// Drop exact-duplicate diagnostics (the same unresolved name reported
/// from several sub-expressions reads as noise).
pub(crate) fn dedup(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut seen = HashSet::new();
    diags
        .into_iter()
        .filter(|d| seen.insert((d.code, d.message.clone())))
        .collect()
}

#[cfg(test)]
mod tests;
