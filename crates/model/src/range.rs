//! Static value-range extraction: turn a predicate's top-level `&&`
//! conjuncts of the shape `member op literal` into per-field intervals.
//!
//! This is the abstract domain the footprint pass and the analyzer's
//! range lints (ode-analyze: A101 unsatisfiable `suchthat`, A008
//! contradictory constraints, A102 unindexed equality), the query planner
//! and the commit validator (ode-core) share. [`comparisons`] is the one
//! reader of `member op literal` conjuncts, and [`probe_range`] the one
//! place an index probe is chosen from the ranges: a predicate `P` over a
//! loop variable implies, for every extracted [`FieldRange`] `f ∈ R`,
//! that any object satisfying `P` has `f ∈ R`. The extraction is a sound
//! over-approximation — conjuncts it cannot read (disjunctions, method
//! calls, cross-variable comparisons) simply widen the result toward
//! "whole extent"; it never narrows beyond what the predicate implies.
//!
//! Interval endpoints order by [`Value`]'s total order (`Ord`), which
//! agrees with predicate evaluation on every comparison the evaluator
//! accepts (numeric/numeric and string/string); comparisons the evaluator
//! would reject error at run time, and the engine falls back to
//! whole-extent tracking on any such error.

use crate::expr::{BinOp, Expr, UnOp};
use crate::value::Value;

/// A closed/open/unbounded interval over [`Value`]'s total order.
///
/// `None` endpoints are unbounded. The `bool` in each endpoint is
/// *inclusive*: `lo: Some((5, true))` means `v >= 5`.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueRange {
    /// Greatest lower bound, if any: `(value, inclusive)`.
    pub lo: Option<(Value, bool)>,
    /// Least upper bound, if any: `(value, inclusive)`.
    pub hi: Option<(Value, bool)>,
}

impl ValueRange {
    /// The unbounded interval (every value).
    pub fn full() -> ValueRange {
        ValueRange { lo: None, hi: None }
    }

    /// The single-point interval `[v, v]` (an equality pin).
    pub fn point(v: Value) -> ValueRange {
        ValueRange {
            lo: Some((v.clone(), true)),
            hi: Some((v, true)),
        }
    }

    /// Is the interval unbounded on both sides?
    pub fn is_full(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// Does the interval contain `v` (under `Value`'s total order)?
    pub fn contains(&self, v: &Value) -> bool {
        if let Some((lo, incl)) = &self.lo {
            match v.cmp(lo) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Equal if !incl => return false,
                _ => {}
            }
        }
        if let Some((hi, incl)) = &self.hi {
            match v.cmp(hi) {
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal if !incl => return false,
                _ => {}
            }
        }
        true
    }

    /// Does the interval admit no value at all (`k > 10 && k < 5`)?
    pub fn is_empty(&self) -> bool {
        apart(&self.hi, &self.lo)
    }

    /// Are the two intervals provably disjoint (no value in both)?
    pub fn disjoint(&self, other: &ValueRange) -> bool {
        apart(&self.hi, &other.lo) || apart(&other.hi, &self.lo)
    }

    /// How an index probe ranks this interval: a point, then one bounded
    /// on both sides, then a one-sided one.
    fn probe_rank(&self) -> u8 {
        match (&self.lo, &self.hi) {
            (Some(lo), Some(hi)) if lo.1 && lo == hi => 0,
            (Some(_), Some(_)) => 1,
            _ => 2,
        }
    }

    /// Is the interval one non-null value: an equality an index could
    /// answer with a point probe?
    pub fn is_probe_point(&self) -> bool {
        self.probe_rank() == 0 && !self.has_null_endpoint()
    }

    /// Is either endpoint `null`? Null keys are never indexed.
    fn has_null_endpoint(&self) -> bool {
        [&self.lo, &self.hi]
            .into_iter()
            .any(|b| b.as_ref().is_some_and(|(v, _)| v.is_null()))
    }

    /// Do the two intervals possibly share a value?
    pub fn overlaps(&self, other: &ValueRange) -> bool {
        !self.disjoint(other)
    }

    /// Narrow by one comparison conjunct: `member op v` for an ordering
    /// or equality operator. Unknown operators leave the range unchanged.
    fn narrow(&mut self, op: BinOp, v: &Value) {
        match op {
            BinOp::Eq => {
                self.narrow_lo(v, true);
                self.narrow_hi(v, true);
            }
            BinOp::Lt => self.narrow_hi(v, false),
            BinOp::Le => self.narrow_hi(v, true),
            BinOp::Gt => self.narrow_lo(v, false),
            BinOp::Ge => self.narrow_lo(v, true),
            _ => {}
        }
    }

    fn narrow_lo(&mut self, v: &Value, incl: bool) {
        let tighter = match &self.lo {
            Some((cur, cur_incl)) => match v.cmp(cur) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *cur_incl && !incl,
                std::cmp::Ordering::Less => false,
            },
            None => true,
        };
        if tighter {
            self.lo = Some((v.clone(), incl));
        }
    }

    fn narrow_hi(&mut self, v: &Value, incl: bool) {
        let tighter = match &self.hi {
            Some((cur, cur_incl)) => match v.cmp(cur) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *cur_incl && !incl,
                std::cmp::Ordering::Greater => false,
            },
            None => true,
        };
        if tighter {
            self.hi = Some((v.clone(), incl));
        }
    }
}

/// Does upper bound `hi` lie below lower bound `lo`, leaving no value
/// between them?
fn apart(hi: &Option<(Value, bool)>, lo: &Option<(Value, bool)>) -> bool {
    match (hi, lo) {
        (Some((h, h_incl)), Some((l, l_incl))) => match h.cmp(l) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Equal => !(*h_incl && *l_incl),
            std::cmp::Ordering::Greater => false,
        },
        _ => false,
    }
}

impl std::fmt::Display for ValueRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.lo {
            Some((v, true)) => write!(f, "[{v}")?,
            Some((v, false)) => write!(f, "({v}")?,
            None => write!(f, "(-inf")?,
        }
        write!(f, ", ")?;
        match &self.hi {
            Some((v, true)) => write!(f, "{v}]"),
            Some((v, false)) => write!(f, "{v})"),
            None => write!(f, "+inf)"),
        }
    }
}

/// One field pinned to an interval: the unit of a statement footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldRange {
    /// Field name on the scanned/written class.
    pub field: String,
    /// Values the predicate admits for that field.
    pub range: ValueRange,
}

impl std::fmt::Display for FieldRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} in {}", self.field, self.range)
    }
}

/// A field reference a range conjunct can attach to: a bare identifier
/// (resolved as a field of the current object, when `bare` allows it) or
/// `var.field` where `var` is the loop variable. Returns the field name.
fn member_of<'a>(e: &'a Expr, var: Option<&str>, bare: bool) -> Option<&'a str> {
    match e {
        // A bare identifier that *is* the loop variable names the object,
        // not a field of it.
        Expr::Ident(name) => (bare && Some(name.as_str()) != var).then_some(name.as_str()),
        Expr::Path(base, field) => match base.as_ref() {
            Expr::Ident(v) => (Some(v.as_str()) == var).then_some(field.as_str()),
            _ => None,
        },
        _ => None,
    }
}

/// A literal operand, looking through unary negation of numbers.
pub fn literal_of(e: &Expr) -> Option<Value> {
    match e {
        Expr::Lit(v) => Some(v.clone()),
        Expr::Unary(UnOp::Neg, inner) => match inner.as_ref() {
            Expr::Lit(Value::Int(i)) => Some(Value::Int(-i)),
            Expr::Lit(Value::Float(x)) => Some(Value::Float(-x)),
            _ => None,
        },
        _ => None,
    }
}

/// Mirror `literal op member` into `member op literal`.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// The one reader of range conjuncts: call `visit(field, op, v)` for each
/// top-level `&&` conjunct of `pred`, left to right, of the shape
/// `field op literal` in either orientation (mirrored so the field reads
/// on the left), where `op` is `==`, `!=`, `<`, `<=`, `>` or `>=`. A
/// field is `var.field`, or a bare identifier when `bare` holds (a join
/// passes `false`: there a bare identifier could resolve against any
/// binding). Every other conjunct is skipped.
pub fn comparisons<'a>(
    pred: &'a Expr,
    var: Option<&str>,
    bare: bool,
    visit: &mut impl FnMut(&'a str, BinOp, Value),
) {
    let Expr::Binary(op, l, r) = pred else { return };
    if *op == BinOp::And {
        comparisons(l, var, bare, visit);
        comparisons(r, var, bare, visit);
        return;
    }
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return;
    }
    if let (Some(f), Some(v)) = (member_of(l, var, bare), literal_of(r)) {
        visit(f, *op, v);
    } else if let (Some(v), Some(f)) = (literal_of(l), member_of(r, var, bare)) {
        visit(f, flip(*op), v);
    }
}

/// Extract the per-field intervals a predicate implies for objects bound
/// to `var` (or, with `var: None`, for the implicit current object).
///
/// Only the [`comparisons`] narrow a range (`!=` excludes one value, not
/// an interval, so it narrows nothing); everything else is ignored,
/// keeping the result a sound over-approximation: `P(obj) ⇒ obj.f ∈ R_f`
/// for every returned range. Fields are returned in name order
/// (deterministic).
pub fn extract_field_ranges(pred: &Expr, var: Option<&str>) -> Vec<FieldRange> {
    extract_ranges(pred, var, true)
}

/// Like [`extract_field_ranges`], but only `var.field` references narrow
/// a range — bare identifiers are ignored. Use this for multi-variable
/// joins, where a bare identifier could resolve against any binding.
pub fn extract_qualified_ranges(pred: &Expr, var: &str) -> Vec<FieldRange> {
    extract_ranges(pred, Some(var), false)
}

fn extract_ranges(pred: &Expr, var: Option<&str>, bare: bool) -> Vec<FieldRange> {
    // Sorted by field.
    let mut ranges: Vec<FieldRange> = Vec::new();
    comparisons(pred, var, bare, &mut |field, op, v| {
        if op == BinOp::Ne {
            return;
        }
        let at = match ranges.binary_search_by(|r| r.field.as_str().cmp(field)) {
            Ok(at) => at,
            Err(at) => {
                let range = ValueRange::full();
                let field = field.to_string();
                ranges.insert(at, FieldRange { field, range });
                at
            }
        };
        ranges[at].range.narrow(op, &v);
    });
    ranges.retain(|r| !r.range.is_full());
    ranges
}

/// The one rule choosing which extracted range an index probe answers a
/// predicate from, shared by the query planner and the footprint pass:
/// among ranges on fields `is_indexed` accepts, a point (equality) first,
/// then a range bounded on both sides, then a one-sided one; ties go to
/// the field name, the order [`extract_field_ranges`] returns. A range
/// with a `null` endpoint is never probed, because null keys are not
/// indexed.
pub fn probe_range(
    ranges: &[FieldRange],
    mut is_indexed: impl FnMut(&str) -> bool,
) -> Option<&FieldRange> {
    ranges
        .iter()
        .filter(|r| !r.range.has_null_endpoint() && is_indexed(&r.field))
        .min_by_key(|r| r.range.probe_rank())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn ranges(src: &str, var: Option<&str>) -> Vec<FieldRange> {
        extract_field_ranges(&parse_expr(src).unwrap(), var)
    }

    #[test]
    fn extracts_bare_and_dotted_members() {
        let r = ranges("k >= 5 && k < 10", None);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].field, "k");
        assert!(r[0].range.contains(&Value::Int(5)));
        assert!(r[0].range.contains(&Value::Int(9)));
        assert!(!r[0].range.contains(&Value::Int(10)));
        assert!(!r[0].range.contains(&Value::Int(4)));

        let r = ranges("s.k == 7", Some("s"));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].field, "k");
        assert!(r[0].range.contains(&Value::Int(7)));
        assert!(!r[0].range.contains(&Value::Int(8)));
    }

    #[test]
    fn loop_variable_itself_is_not_a_field() {
        assert!(ranges("s == 5", Some("s")).is_empty());
    }

    #[test]
    fn flipped_and_negated_literals() {
        let r = ranges("10 > k && k > -3", None);
        assert_eq!(r.len(), 1);
        assert!(r[0].range.contains(&Value::Int(-2)));
        assert!(!r[0].range.contains(&Value::Int(-3)));
        assert!(!r[0].range.contains(&Value::Int(10)));
    }

    #[test]
    fn non_range_conjuncts_are_ignored_soundly() {
        // `||` at top level: nothing extractable.
        assert!(ranges("k < 5 || k > 10", None).is_empty());
        // Mixed: the `&&` side still narrows.
        let r = ranges("k < 5 && (q < 1 || q > 2)", None);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].field, "k");
    }

    #[test]
    fn disjointness() {
        let a = ranges("k < 50", None).remove(0).range;
        let b = ranges("k >= 50", None).remove(0).range;
        assert!(a.disjoint(&b));
        assert!(b.disjoint(&a));

        let c = ranges("k >= 40 && k < 60", None).remove(0).range;
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));

        let p5 = ValueRange::point(Value::Int(5));
        let p6 = ValueRange::point(Value::Int(6));
        assert!(p5.disjoint(&p6));
        assert!(!p5.disjoint(&p5.clone()));

        // Touching endpoints: [.., 50) vs [50, ..] disjoint; [.., 50] vs
        // [50, ..] overlap at 50.
        let le = ranges("k <= 50", None).remove(0).range;
        assert!(!le.disjoint(&b));
    }

    #[test]
    fn strings_order_lexicographically() {
        let r = ranges("name >= \"m\"", None);
        assert!(r[0].range.contains(&Value::Str("zeta".into())));
        assert!(!r[0].range.contains(&Value::Str("alpha".into())));
    }

    #[test]
    fn contradictory_ranges_stay_empty_and_disjoint_from_everything() {
        let r = ranges("k > 10 && k < 5", None).remove(0).range;
        assert!(r.is_empty());
        assert!(!r.contains(&Value::Int(7)));
        assert!(r.disjoint(&ValueRange::point(Value::Int(7))));
        assert!(ranges("k > 5 && k < 5", None)[0].range.is_empty());
        assert!(ranges("k >= 5 && k < 5", None)[0].range.is_empty());
        assert!(!ranges("k >= 5 && k <= 5", None)[0].range.is_empty());
    }

    fn probed(src: &str, indexed: &[&str]) -> Option<String> {
        let r = ranges(src, None);
        probe_range(&r, |f| indexed.contains(&f)).map(|r| r.field.clone())
    }

    #[test]
    fn probe_prefers_points_then_two_sided_then_name_order() {
        let all = ["sku", "quantity", "weight", "name", "k"];
        assert_eq!(
            probed("quantity > 10 && sku == 3", &all).as_deref(),
            Some("sku")
        );
        assert_eq!(
            probed("weight == 3 && name == \"bolt\"", &all).as_deref(),
            Some("name")
        );
        assert_eq!(
            probed("k < 3 && weight >= 1 && weight < 9", &all).as_deref(),
            Some("weight")
        );
        assert_eq!(probed("k >= 5 && k <= 5", &all).as_deref(), Some("k"));
        assert_eq!(probed("sku == 3", &["quantity"]), None);
    }

    #[test]
    fn null_endpoints_are_never_probed() {
        assert_eq!(probed("name == null", &["name"]), None);
        assert_eq!(
            probed("name == null && k > 2", &["name", "k"]).as_deref(),
            Some("k")
        );
    }
}
