//! Conjunct-level satisfiability: detect `suchthat` predicates (and §5
//! constraint sets) that are provably unsatisfiable because they place
//! contradictory ranges or equalities on a single member.
//!
//! The machinery is deliberately shallow — one member, literal bounds,
//! top-level `&&` conjuncts only — because that is the class of mistake
//! a person actually types (`q < 10 && q > 20`, a subclass constraint
//! fighting an inherited one). Anything deeper stays a run-time matter.

use std::collections::BTreeMap;

use ode_model::{BinOp, Expr, Value};

use crate::{Diagnostic, Severity, A008, A101};

/// A member reference a range constraint can attach to: a bare field
/// name or a single `var.field` step. Keyed textually so `q` and `s.q`
/// in the same predicate stay distinct.
fn member_key(e: &Expr) -> Option<String> {
    match e {
        Expr::Ident(name) => Some(name.clone()),
        Expr::Path(base, field) => match base.as_ref() {
            Expr::Ident(var) => Some(format!("{var}.{field}")),
            _ => None,
        },
        _ => None,
    }
}

fn literal(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Lit(v) => Some(v),
        _ => None,
    }
}

fn as_num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The feasible set for one member, narrowed conjunct by conjunct.
#[derive(Default)]
struct Feasible {
    /// Greatest lower bound and whether it is strict (`>` vs `>=`).
    lo: Option<(f64, bool)>,
    /// Least upper bound and whether it is strict.
    hi: Option<(f64, bool)>,
    /// Pinned by an equality.
    eq: Option<Value>,
    /// Excluded values (`!=`).
    ne: Vec<Value>,
}

impl Feasible {
    fn narrow(&mut self, op: BinOp, v: &Value) -> bool {
        match op {
            BinOp::Eq => {
                if let Some(prev) = &self.eq {
                    if prev != v {
                        return false;
                    }
                }
                if self.ne.iter().any(|x| x == v) {
                    return false;
                }
                self.eq = Some(v.clone());
            }
            BinOp::Ne => {
                if self.eq.as_ref() == Some(v) {
                    return false;
                }
                self.ne.push(v.clone());
            }
            BinOp::Lt | BinOp::Le => {
                if let Some(n) = as_num(v) {
                    let strict = matches!(op, BinOp::Lt);
                    let tighter = match self.hi {
                        Some((cur, cur_strict)) => n < cur || (n == cur && strict && !cur_strict),
                        None => true,
                    };
                    if tighter {
                        self.hi = Some((n, strict));
                    }
                }
            }
            BinOp::Gt | BinOp::Ge => {
                if let Some(n) = as_num(v) {
                    let strict = matches!(op, BinOp::Gt);
                    let tighter = match self.lo {
                        Some((cur, cur_strict)) => n > cur || (n == cur && strict && !cur_strict),
                        None => true,
                    };
                    if tighter {
                        self.lo = Some((n, strict));
                    }
                }
            }
            _ => {}
        }
        self.consistent()
    }

    fn consistent(&self) -> bool {
        if let (Some((lo, lo_strict)), Some((hi, hi_strict))) = (self.lo, self.hi) {
            if lo > hi || (lo == hi && (lo_strict || hi_strict)) {
                return false;
            }
        }
        if let Some(eq) = &self.eq {
            if let Some(n) = as_num(eq) {
                if let Some((lo, strict)) = self.lo {
                    if n < lo || (n == lo && strict) {
                        return false;
                    }
                }
                if let Some((hi, strict)) = self.hi {
                    if n > hi || (n == hi && strict) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Mirror `member op literal` so every comparison reads left-to-right.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn range_conjunct(e: &Expr) -> Option<(String, BinOp, Value)> {
    let Expr::Binary(op, l, r) = e else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return None;
    }
    if let (Some(key), Some(v)) = (member_key(l), literal(r)) {
        return Some((key, *op, v.clone()));
    }
    if let (Some(v), Some(key)) = (literal(l), member_key(r)) {
        return Some((key, flip(*op), v.clone()));
    }
    None
}

/// Feed `pred`'s conjuncts into per-member feasible sets; return the
/// first member whose set becomes empty.
fn first_contradiction<'a>(preds: impl Iterator<Item = &'a Expr>) -> Option<String> {
    let mut members: BTreeMap<String, Feasible> = BTreeMap::new();
    for pred in preds {
        for c in pred.conjuncts() {
            if let Some((key, op, v)) = range_conjunct(c) {
                let feasible = members.entry(key.clone()).or_default();
                if !feasible.narrow(op, &v) {
                    return Some(key);
                }
            }
        }
    }
    None
}

/// A101: the `suchthat` predicate can never hold.
pub(crate) fn check_satisfiable(src: &str, pred: &Expr, diags: &mut Vec<Diagnostic>) {
    if let Some(member) = first_contradiction(std::iter::once(pred)) {
        let token = member.rsplit('.').next().unwrap_or(&member).to_string();
        diags.push(
            Diagnostic::new(
                A101,
                Severity::Warning,
                format!(
                    "suchthat is provably unsatisfiable: contradictory \
                     constraints on `{member}` select no objects"
                ),
            )
            .locate(src, &token),
        );
    }
}

/// A008: the conjunction of a class's own and inherited constraints (§5)
/// admits no object. `exprs` is every constraint that applies.
pub(crate) fn check_constraints_satisfiable<'a>(
    class: &str,
    exprs: impl Iterator<Item = &'a Expr>,
    diags: &mut Vec<Diagnostic>,
) {
    if let Some(member) = first_contradiction(exprs) {
        diags.push(Diagnostic::new(
            A008,
            Severity::Error,
            format!(
                "constraints on class `{class}` are contradictory: no value \
                 of `{member}` can satisfy the class and its superclasses"
            ),
        ));
    }
}
