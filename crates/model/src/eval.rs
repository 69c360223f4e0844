//! Expression evaluation: running a [`BoundExpr`].
//!
//! [`mod@crate::bind`] resolves every name in an expression once; this module
//! runs the result against a [`Frame`], which supplies what the names were
//! bound to:
//!
//! * the **schema** (method dispatch, and the class names errors report),
//! * an optional **current object** (`this`) — constraint bodies, trigger
//!   conditions and single-variable queries read its fields by slot,
//! * **loop variables** — the objects a `forall` binds, in the order of the
//!   scope's names ([`BoundVar`]): `v` is a reference to one, and `v.f` and
//!   `v is C` read the state the scan already holds,
//! * **arguments** — the trigger activation's, read by `$name` position,
//! * a **resolver** — the engine hook that dereferences object references
//!   (generic refs follow the current version, §4).
//!
//! Nothing is looked up by name per object: a field read indexes its slot
//! table by the object's class, and `is` indexes a precomputed class set.
//! [`EvalCtx`] is the bind-then-run convenience for one-off evaluations.
//!
//! Semantics follow C++ where the paper leans on it: `&&`/`||`
//! short-circuit, `/` on two ints is integer division, ints promote to
//! doubles in mixed arithmetic.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::bind::{bind, BoundExpr, Field, Node, Recv, Scope};
use crate::error::{ModelError, Result};
use crate::expr::{BinOp, Expr, UnOp};
use crate::oid::{Oid, VersionRef};
use crate::schema::Schema;
use crate::value::{ObjState, Value};

/// The evaluator's own result: the error boxed, so the result of a step
/// that succeeds — nearly every one — is small enough to return in
/// registers.
type Run<T> = std::result::Result<T, Box<ModelError>>;

/// Engine hook for dereferencing object references during evaluation.
pub trait Resolver {
    /// Load the *current version* of the object (generic reference, §4).
    fn deref_obj(&self, oid: Oid) -> Result<ObjState>;

    /// Load one pinned version (specific reference, §4).
    fn deref_version(&self, vref: VersionRef) -> Result<ObjState>;
}

/// A resolver for contexts with no database at hand: any dereference fails.
pub struct NoResolver;

impl Resolver for NoResolver {
    fn deref_obj(&self, oid: Oid) -> Result<ObjState> {
        Err(ModelError::Eval(format!(
            "cannot dereference {oid} outside a transaction"
        )))
    }

    fn deref_version(&self, vref: VersionRef) -> Result<ObjState> {
        Err(ModelError::Eval(format!(
            "cannot dereference {vref} outside a transaction"
        )))
    }
}

/// A loop variable bound to the object it ranges over (§3.1): its name,
/// the object's identity, and the state the query already holds for it.
/// A [`Frame`] reads only the object; the name is for [`EvalCtx`], which
/// binds by it.
#[derive(Debug, Clone, Copy)]
pub struct BoundVar<'a> {
    /// The variable's name.
    pub name: &'a str,
    /// The object the variable is bound to.
    pub oid: Oid,
    /// That object's state, as the view running the query sees it.
    pub state: &'a ObjState,
}

/// What a [`BoundExpr`] runs against. It must match the [`Scope`] the
/// expression was bound in: `vars[i]` is the scope's `i`th variable and
/// `args[i]` its `i`th parameter. Start from [`Frame::new`] and fill the
/// rest with struct-update syntax.
#[derive(Clone, Copy)]
pub struct Frame<'a> {
    /// The schema the expression was bound against.
    pub schema: &'a Schema,
    /// The current object, if the scope has one.
    pub this: Option<&'a ObjState>,
    /// The loop variables' objects.
    pub vars: &'a [BoundVar<'a>],
    /// The trigger activation's arguments.
    pub args: &'a [Value],
    /// Dereferences object references.
    pub resolver: &'a dyn Resolver,
}

impl<'a> Frame<'a> {
    /// A frame with nothing bound and no database to dereference through.
    pub fn new(schema: &'a Schema) -> Frame<'a> {
        Frame {
            schema,
            this: None,
            vars: &[],
            args: &[],
            resolver: &NoResolver,
        }
    }
}

impl BoundExpr {
    /// Evaluate to a value.
    pub fn eval(&self, frame: &Frame<'_>) -> Result<Value> {
        frame.eval(&self.root).map_err(|e| *e)
    }

    /// Evaluate and require a boolean (suchthat / constraint / trigger).
    pub fn eval_bool(&self, frame: &Frame<'_>) -> Result<bool> {
        frame.test(&self.root).map_err(|e| *e)
    }
}

/// Bind-then-run evaluation of one expression. Build with [`EvalCtx::new`]
/// and chain the `with_*` setters. Each call binds again: code that
/// evaluates one expression many times binds it once with
/// [`crate::bind::bind`] and runs the [`BoundExpr`].
pub struct EvalCtx<'a> {
    frame: Frame<'a>,
    params: Option<&'a HashMap<String, Value>>,
}

impl<'a> EvalCtx<'a> {
    /// Minimal context: schema only.
    pub fn new(schema: &'a Schema) -> EvalCtx<'a> {
        EvalCtx {
            frame: Frame::new(schema),
            params: None,
        }
    }

    /// Bind the current object (`this`).
    pub fn with_this(mut self, obj: &'a ObjState) -> Self {
        self.frame.this = Some(obj);
        self
    }

    /// Bind loop variables. A later binding of a name shadows an earlier
    /// one, and every binding shadows a field of `this` with its name.
    pub fn with_bindings(mut self, vars: &'a [BoundVar<'a>]) -> Self {
        self.frame.vars = vars;
        self
    }

    /// Bind trigger activation parameters (`$name`).
    pub fn with_params(mut self, params: &'a HashMap<String, Value>) -> Self {
        self.params = Some(params);
        self
    }

    /// Attach the engine's reference resolver.
    pub fn with_resolver(mut self, r: &'a dyn Resolver) -> Self {
        self.frame.resolver = r;
        self
    }

    /// Bind `expr` against this context's names and evaluate it.
    pub fn eval(&self, expr: &Expr) -> Result<Value> {
        self.with_bound(expr, BoundExpr::eval)
    }

    /// Evaluate and require a boolean (suchthat / constraint / trigger).
    pub fn eval_bool(&self, expr: &Expr) -> Result<bool> {
        self.with_bound(expr, BoundExpr::eval_bool)
    }

    /// Bind `expr` against this context's names and run `f` on it with the
    /// frame it runs against.
    pub fn with_bound<R>(
        &self,
        expr: &Expr,
        f: impl FnOnce(&BoundExpr, &Frame<'_>) -> Result<R>,
    ) -> Result<R> {
        let vars: Vec<&str> = self.frame.vars.iter().map(|b| b.name).collect();
        let (params, args): (Vec<&str>, Vec<Value>) = self
            .params
            .into_iter()
            .flatten()
            .map(|(name, v)| (name.as_str(), v.clone()))
            .unzip();
        let scope = Scope {
            vars: &vars,
            this: self.frame.this.is_some(),
            params: &params,
        };
        let frame = Frame {
            args: &args,
            ..self.frame
        };
        f(&bind(self.frame.schema, &scope, expr), &frame)
    }
}

impl<'a> Frame<'a> {
    /// Evaluate a node that must be a boolean. The shapes a predicate is
    /// made of — connectives, comparisons, `is` on a loop variable — are
    /// answered without building a [`Value`]; every other node is
    /// evaluated and its value required to be a boolean, which is also what
    /// the shapes answer, error for error.
    fn test(&self, node: &Node) -> Run<bool> {
        match node {
            Node::Lit(Value::Bool(b)) => Ok(*b),
            Node::Binary(BinOp::And, l, r) => Ok(self.test(l)? && self.test(r)?),
            Node::Binary(BinOp::Or, l, r) => Ok(self.test(l)? || self.test(r)?),
            Node::Binary(
                op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                l,
                r,
            ) => {
                let lv = self.operand(l)?;
                let rv = self.operand(r)?;
                relate(*op, &lv, &rv)
            }
            Node::VarIs(i, classes) => Ok(classes.contains(self.vars[*i].state.class)?),
            _ => Ok(self.eval(node)?.as_bool()?),
        }
    }

    fn eval(&self, node: &Node) -> Run<Value> {
        match node {
            Node::Lit(v) => Ok(v.clone()),
            Node::Var(i) => Ok(Value::Ref(self.vars[*i].oid)),
            Node::ThisField(f) => Ok(self.this_field(f)?.clone()),
            Node::VarField(i, f) => Ok(self.field(self.vars[*i].state, f)?.clone()),
            Node::Path(base, f) => {
                let obj = self.deref(base)?;
                Ok(self.field(&obj, f)?.clone())
            }
            Node::Param(i, name) => self
                .args
                .get(*i)
                .cloned()
                .ok_or_else(|| ModelError::UnknownVar(format!("${name}")).into()),
            Node::Unary(op, e) => unary(*op, self.eval(e)?),
            Node::Binary(op, l, r) => self.binary(*op, l, r),
            Node::Call { recv, name, args } => {
                let argv: Vec<Value> = args.iter().map(|a| self.eval(a)).collect::<Run<_>>()?;
                let obj = match recv {
                    Recv::This => Cow::Borrowed(self.this.ok_or_else(|| {
                        ModelError::Eval(format!("method `{name}` called with no current object"))
                    })?),
                    Recv::Var(i) => Cow::Borrowed(self.vars[*i].state),
                    Recv::Expr(e) => Cow::Owned(self.deref(e)?),
                };
                let m = self.schema.lookup_method(obj.class, name)?;
                Ok(m(&obj, &argv)?)
            }
            Node::Cond(c, a, b) => {
                if self.eval(c)?.as_bool()? {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            Node::Index(base, ix) => {
                let container = self.eval(base)?;
                let i = self.eval(ix)?.as_int()?;
                match container {
                    Value::Array(items) => {
                        let idx = usize::try_from(i)
                            .map_err(|_| ModelError::Eval(format!("negative array index {i}")))?;
                        items.get(idx).cloned().ok_or_else(|| {
                            ModelError::Eval(format!(
                                "array index {i} out of bounds (len {})",
                                items.len()
                            ))
                            .into()
                        })
                    }
                    Value::Str(s) => {
                        let idx = usize::try_from(i)
                            .map_err(|_| ModelError::Eval(format!("negative string index {i}")))?;
                        s.chars()
                            .nth(idx)
                            .map(|c| Value::Str(c.to_string()))
                            .ok_or_else(|| {
                                ModelError::Eval(format!("string index {i} out of bounds")).into()
                            })
                    }
                    other => Err(ModelError::Type(format!("cannot subscript {other}")).into()),
                }
            }
            Node::VarIs(i, classes) => {
                Ok(Value::Bool(classes.contains(self.vars[*i].state.class)?))
            }
            Node::Is(e, classes) => {
                // An unknown class fails before the operand is evaluated.
                classes.set()?;
                let class = match self.eval(e)? {
                    Value::Ref(oid) => self.resolver.deref_obj(oid)?.class,
                    Value::VRef(vr) => self.resolver.deref_version(vr)?.class,
                    Value::Null => return Ok(Value::Bool(false)),
                    other => {
                        return Err(ModelError::Type(format!(
                            "`is` needs an object reference, got {other}"
                        ))
                        .into())
                    }
                };
                Ok(Value::Bool(classes.contains(class)?))
            }
            Node::Fail(name) => Err(ModelError::UnknownVar(name.clone()).into()),
        }
    }

    /// A field of `this`, named by a bare identifier: a class without the
    /// member leaves the name unbound.
    #[inline]
    fn this_field(&self, f: &Field) -> Run<&'a Value> {
        match self.this {
            Some(this) => match f.slot(this.class) {
                Some(i) => Ok(&this.fields[i]),
                None => {
                    f.check_class(this.class)?;
                    Err(ModelError::UnknownVar(f.name.to_string()).into())
                }
            },
            None => Err(ModelError::UnknownVar(f.name.to_string()).into()),
        }
    }

    /// Member `f` of `obj`, by the slot its dynamic class lays it out at.
    #[inline]
    fn field<'o>(&self, obj: &'o ObjState, f: &Field) -> Run<&'o Value> {
        match f.slot(obj.class) {
            Some(i) => Ok(&obj.fields[i]),
            None => {
                f.check_class(obj.class)?;
                Err(ModelError::UnknownField {
                    class: self.schema.class(obj.class)?.name.clone(),
                    field: f.name.to_string(),
                }
                .into())
            }
        }
    }

    /// Evaluate an expression that must denote an object, dereferencing
    /// Ref/VRef values through the resolver.
    fn deref(&self, node: &Node) -> Run<ObjState> {
        match self.eval(node)? {
            Value::Ref(oid) => Ok(self.resolver.deref_obj(oid)?),
            Value::VRef(vr) => Ok(self.resolver.deref_version(vr)?),
            Value::Null => Err(ModelError::Eval("null dereference".into()).into()),
            other => {
                Err(ModelError::Type(format!("expected an object reference, got {other}")).into())
            }
        }
    }

    /// Evaluate a binary operand, borrowing literals and the fields of the
    /// objects in hand instead of cloning them (a string or set compared
    /// per scanned object would otherwise be copied each time).
    #[inline]
    fn operand<'x>(&'x self, node: &'x Node) -> Run<Cow<'x, Value>> {
        match node {
            Node::Lit(v) => Ok(Cow::Borrowed(v)),
            Node::ThisField(f) => self.this_field(f).map(Cow::Borrowed),
            Node::VarField(i, f) => self.field(self.vars[*i].state, f).map(Cow::Borrowed),
            _ => self.eval(node).map(Cow::Owned),
        }
    }

    fn binary(&self, op: BinOp, l: &Node, r: &Node) -> Run<Value> {
        // Short-circuit logicals first.
        match op {
            BinOp::And => return Ok(Value::Bool(self.test(l)? && self.test(r)?)),
            BinOp::Or => return Ok(Value::Bool(self.test(l)? || self.test(r)?)),
            _ => {}
        }
        let lv = self.operand(l)?;
        let rv = self.operand(r)?;
        let (lv, rv) = (lv.as_ref(), rv.as_ref());
        match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                relate(op, lv, rv).map(Value::Bool)
            }
            BinOp::In => match rv {
                Value::Set(s) => Ok(Value::Bool(s.contains(lv))),
                Value::Array(items) => Ok(Value::Bool(items.contains(lv))),
                other => Err(ModelError::Type(format!(
                    "`in` needs a set or array on the right, got {other}"
                ))
                .into()),
            },
            BinOp::Add => match (lv, rv) {
                (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
                _ => arith(op, lv, rv),
            },
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, lv, rv),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}

fn unary(op: UnOp, v: Value) -> Run<Value> {
    match (op, v) {
        (UnOp::Neg, Value::Int(i)) => match i.checked_neg() {
            Some(n) => Ok(Value::Int(n)),
            None => Err(ModelError::Eval("integer overflow in negation".into()).into()),
        },
        (UnOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::Neg, other) => Err(ModelError::Type(format!("cannot negate {other}")).into()),
        (UnOp::Not, other) => {
            Err(ModelError::Type(format!("`!` needs a boolean, got {other}")).into())
        }
    }
}

/// Apply a comparison operator: equality is defined for all values, order
/// only where [`compare`] defines it.
fn relate(op: BinOp, l: &Value, r: &Value) -> Run<bool> {
    Ok(match op {
        BinOp::Eq => l == r,
        BinOp::Ne => l != r,
        BinOp::Lt => compare(l, r)?.is_lt(),
        BinOp::Le => compare(l, r)?.is_le(),
        BinOp::Gt => compare(l, r)?.is_gt(),
        _ => compare(l, r)?.is_ge(),
    })
}

/// Ordered comparison: numbers compare across int/float; strings compare
/// lexicographically; anything else is a type error (equality, by contrast,
/// is defined for all values).
fn compare(l: &Value, r: &Value) -> Run<std::cmp::Ordering> {
    match (l, r) {
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
        | (Value::Str(_), Value::Str(_)) => Ok(l.cmp(r)),
        _ => Err(ModelError::Type(format!("cannot order {l} against {r}")).into()),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Run<Value> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(ModelError::Eval("integer division by zero".into()).into());
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(ModelError::Eval("integer modulo by zero".into()).into());
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Value::Int)
                .ok_or_else(|| ModelError::Eval("integer overflow".into()).into())
        }
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => return Err(ModelError::Type("`%` needs integers".into()).into()),
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
        _ => Err(ModelError::Type(format!("cannot apply `{}` to {l} and {r}", op.symbol())).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassBuilder;
    use crate::parser::parse_expr;
    use crate::value::Type;

    fn schema_with_item() -> (Schema, crate::class::ClassId) {
        let mut s = Schema::new();
        let id = s
            .define(
                ClassBuilder::new("stockitem")
                    .field("name", Type::Str)
                    .field_default("quantity", Type::Int, 100)
                    .field_default("reorder_level", Type::Int, 20)
                    .field_default("price", Type::Float, 1.5),
            )
            .unwrap();
        (s, id)
    }

    fn eval_with(src: &str, schema: &Schema, this: &ObjState) -> Result<Value> {
        let e = parse_expr(src).unwrap();
        EvalCtx::new(schema).with_this(this).eval(&e)
    }

    #[test]
    fn fields_resolve_on_this() {
        let (s, id) = schema_with_item();
        let mut obj = s.new_object(id).unwrap();
        obj.fields[0] = Value::Str("512 dram".into());
        assert_eq!(
            eval_with("name", &s, &obj).unwrap(),
            Value::Str("512 dram".into())
        );
        assert_eq!(
            eval_with("quantity <= reorder_level", &s, &obj).unwrap(),
            Value::Bool(false)
        );
        obj.fields[1] = Value::Int(5);
        assert_eq!(
            eval_with("quantity <= reorder_level", &s, &obj).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn arithmetic_and_promotion() {
        let (s, id) = schema_with_item();
        let obj = s.new_object(id).unwrap();
        assert_eq!(eval_with("2 + 3 * 4", &s, &obj).unwrap(), Value::Int(14));
        assert_eq!(eval_with("7 / 2", &s, &obj).unwrap(), Value::Int(3));
        assert_eq!(eval_with("7.0 / 2", &s, &obj).unwrap(), Value::Float(3.5));
        assert_eq!(eval_with("7 % 3", &s, &obj).unwrap(), Value::Int(1));
        assert_eq!(
            eval_with("price * quantity", &s, &obj).unwrap(),
            Value::Float(150.0)
        );
        assert_eq!(eval_with("-quantity", &s, &obj).unwrap(), Value::Int(-100));
    }

    #[test]
    fn division_by_zero_is_an_eval_error() {
        let (s, id) = schema_with_item();
        let obj = s.new_object(id).unwrap();
        assert!(matches!(
            eval_with("1 / 0", &s, &obj),
            Err(ModelError::Eval(_))
        ));
        assert!(matches!(
            eval_with("1 % 0", &s, &obj),
            Err(ModelError::Eval(_))
        ));
        // Float division by zero is IEEE infinity, like C++.
        assert_eq!(
            eval_with("1.0 / 0.0", &s, &obj).unwrap(),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        let (s, id) = schema_with_item();
        let obj = s.new_object(id).unwrap();
        // RHS would fail (unknown var) but is never evaluated.
        assert_eq!(
            eval_with("false && ghost", &s, &obj).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_with("true || ghost", &s, &obj).unwrap(),
            Value::Bool(true)
        );
        assert!(eval_with("true && ghost", &s, &obj).is_err());
    }

    #[test]
    fn string_ops() {
        let (s, id) = schema_with_item();
        let obj = s.new_object(id).unwrap();
        assert_eq!(
            eval_with(r#""at" + "&t""#, &s, &obj).unwrap(),
            Value::Str("at&t".into())
        );
        assert_eq!(
            eval_with(r#""abc" < "abd""#, &s, &obj).unwrap(),
            Value::Bool(true)
        );
        assert!(eval_with(r#""a" < 3"#, &s, &obj).is_err());
    }

    #[test]
    fn params_resolve_through_dollar() {
        let (s, id) = schema_with_item();
        let obj = s.new_object(id).unwrap();
        let e = parse_expr("quantity < $threshold").unwrap();
        let params: HashMap<String, Value> = [("threshold".to_string(), Value::Int(200))].into();
        let got = EvalCtx::new(&s)
            .with_this(&obj)
            .with_params(&params)
            .eval(&e)
            .unwrap();
        assert_eq!(got, Value::Bool(true));
        // Missing param is an error.
        assert!(EvalCtx::new(&s).with_this(&obj).eval(&e).is_err());
    }

    fn oid(page: u32) -> Oid {
        Oid {
            cluster: 1,
            rid: ode_storage::RecordId { page, slot: 0 },
        }
    }

    #[test]
    fn vars_shadow_fields() {
        let (s, id) = schema_with_item();
        let mut obj = s.new_object(id).unwrap();
        obj.fields[1] = Value::Int(1);
        let mut other = s.new_object(id).unwrap();
        other.fields[1] = Value::Int(999);
        let vars = [BoundVar {
            name: "quantity",
            oid: oid(7),
            state: &other,
        }];
        let ctx = EvalCtx::new(&s).with_this(&obj).with_bindings(&vars);
        assert_eq!(
            ctx.eval(&parse_expr("quantity").unwrap()).unwrap(),
            Value::Ref(oid(7))
        );
        assert_eq!(
            ctx.eval(&parse_expr("quantity.quantity").unwrap()).unwrap(),
            Value::Int(999)
        );
        // A later binding of the same name shadows an earlier one.
        let inner = [
            vars[0],
            BoundVar {
                oid: oid(8),
                ..vars[0]
            },
        ];
        let ctx = EvalCtx::new(&s).with_this(&obj).with_bindings(&inner);
        assert_eq!(
            ctx.eval(&parse_expr("quantity").unwrap()).unwrap(),
            Value::Ref(oid(8))
        );
    }

    #[test]
    fn methods_dispatch_with_args() {
        let (mut s, id) = schema_with_item();
        s.register_method(id, "value", |o, args| {
            let qty = o.fields[1].as_int()?;
            let scale = args.first().map(|v| v.as_int()).transpose()?.unwrap_or(1);
            Ok(Value::Int(qty * scale))
        });
        let obj = s.new_object(id).unwrap();
        assert_eq!(eval_with("value()", &s, &obj).unwrap(), Value::Int(100));
        assert_eq!(eval_with("value(3)", &s, &obj).unwrap(), Value::Int(300));
        assert_eq!(
            eval_with("value(2) > 150", &s, &obj).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn membership_in_sets_and_arrays() {
        let (mut s, id) = schema_with_item();
        let holder = s
            .define(
                ClassBuilder::new("holder")
                    .field("supplies", Type::Set(Box::new(Type::Str)))
                    .field("arr", Type::Array(Box::new(Type::Int))),
            )
            .unwrap();
        let obj = s.new_object(id).unwrap();
        let mut h = s.new_object(holder).unwrap();
        h.fields[0] = Value::Set(crate::value::SetValue::from_iter([
            Value::Str("dram".into()),
            Value::Str("cpu".into()),
        ]));
        h.fields[1] = Value::Array(vec![Value::Int(1), Value::Int(2)]);
        let vars = [BoundVar {
            name: "h",
            oid: oid(3),
            state: &h,
        }];
        let ctx = EvalCtx::new(&s).with_this(&obj).with_bindings(&vars);
        assert_eq!(
            ctx.eval(&parse_expr("'dram' in h.supplies").unwrap())
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            ctx.eval(&parse_expr("3 in h.arr").unwrap()).unwrap(),
            Value::Bool(false)
        );
        assert!(ctx.eval(&parse_expr("1 in quantity").unwrap()).is_err());
    }

    /// Resolves the objects it was built with.
    struct Objects(Vec<(Oid, ObjState)>);

    impl Resolver for Objects {
        fn deref_obj(&self, oid: Oid) -> Result<ObjState> {
            self.0
                .iter()
                .find(|(o, _)| *o == oid)
                .map(|(_, s)| s.clone())
                .ok_or_else(|| ModelError::Eval(format!("no object {oid}")))
        }

        fn deref_version(&self, vref: VersionRef) -> Result<ObjState> {
            Err(ModelError::Eval(format!("no version {vref}")))
        }
    }

    /// A loop variable reads the object in hand exactly as a reference
    /// stored in a field reads it through the resolver: same values, same
    /// `is` answers, same errors, same short-circuiting.
    #[test]
    fn bound_variables_read_like_dereferenced_references() {
        let mut s = Schema::new();
        let person = s
            .define(
                ClassBuilder::new("person")
                    .field("name", Type::Str)
                    .field_default("income", Type::Int, 7),
            )
            .unwrap();
        s.define(ClassBuilder::new("student").base("person").field_default(
            "stipend",
            Type::Int,
            3,
        ))
        .unwrap();
        let link = s
            .define(ClassBuilder::new("link").field("p", Type::Ref("person".into())))
            .unwrap();
        let p = s.new_object(person).unwrap();
        let mut this = s.new_object(link).unwrap();
        this.fields[0] = Value::Ref(oid(5));
        let objects = Objects(vec![(oid(5), p.clone())]);
        let vars = [BoundVar {
            name: "q",
            oid: oid(5),
            state: &p,
        }];
        let ctx = EvalCtx::new(&s)
            .with_this(&this)
            .with_bindings(&vars)
            .with_resolver(&objects);
        let eval = |src: &str| {
            ctx.eval(&parse_expr(src).unwrap())
                .map_err(|e| e.to_string())
        };
        for (in_hand, through_resolver) in [
            ("q", "p"),
            ("q.income + 1", "p.income + 1"),
            ("q is student", "p is student"),
            ("q is person", "p is person"),
            // A subclass-only field read on a base-class object.
            ("q.stipend", "p.stipend"),
            ("q.stipend > 0", "p.stipend > 0"),
            ("false && q.ghost", "false && p.ghost"),
            ("true && q.ghost", "true && p.ghost"),
            ("q is nosuchclass", "p is nosuchclass"),
        ] {
            assert_eq!(eval(in_hand), eval(through_resolver), "{in_hand}");
        }
        assert!(eval("q.stipend").is_err());
        assert_eq!(eval("false && ghost"), Ok(Value::Bool(false)));
        assert_eq!(
            eval("true && ghost"),
            Err(ModelError::UnknownVar("ghost".into()).to_string())
        );
    }

    #[test]
    fn null_behaviour() {
        let (s, id) = schema_with_item();
        let obj = s.new_object(id).unwrap();
        assert_eq!(
            eval_with("null == null", &s, &obj).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_with("name == null", &s, &obj).unwrap(),
            Value::Bool(true),
            "unset string field is null"
        );
        assert!(eval_with("null < 3", &s, &obj).is_err());
    }

    #[test]
    fn deref_without_resolver_fails_cleanly() {
        let (s, id) = schema_with_item();
        let mut obj = s.new_object(id).unwrap();
        obj.fields[0] = Value::Ref(crate::oid::Oid {
            cluster: 1,
            rid: ode_storage::RecordId { page: 1, slot: 0 },
        });
        let err = eval_with("name.quantity", &s, &obj).unwrap_err();
        assert!(matches!(err, ModelError::Eval(_)), "{err}");
    }

    #[test]
    fn overflow_is_caught() {
        let (s, id) = schema_with_item();
        let obj = s.new_object(id).unwrap();
        let big = i64::MAX;
        let src = format!("{big} + 1");
        assert!(matches!(
            eval_with(&src, &s, &obj),
            Err(ModelError::Eval(_))
        ));
    }
}
