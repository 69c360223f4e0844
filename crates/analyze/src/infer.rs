//! Static type inference over bound expressions.
//!
//! Name resolution has one home, `ode-model`'s binder (`bind.rs`): a
//! bare identifier names the innermost loop variable of that name, else a
//! member of the current object. This pass types the binder's output with
//! the static classes of its loop variables and of `this`, and touches no
//! objects: a name the binder could not resolve is A004, a member with no
//! slot in its static class A002, and an `is` test of an unknown class
//! A001. Arithmetic works on numbers (ints coerce to doubles,
//! `+` also concatenates strings); ordering compares numbers with numbers
//! and strings with strings; `==`/`!=` accept any pair of *compatible*
//! types. `Any`/`Null` absorb — inference is deliberately lenient where
//! the evaluator is dynamic, so the analyzer only reports what is
//! provably wrong.

use ode_model::bind::{Classes, Field, Node, Recv};
use ode_model::{BinOp, BoundExpr, ClassId, Schema, Type, UnOp, Value};

use crate::{Diagnostic, Severity, A001, A002, A003, A004, A005, A103};

/// The analyzer's abstract type lattice.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SType {
    Int,
    Float,
    Bool,
    Str,
    /// An object of (statically) this class; the dynamic class may be
    /// any subclass (cluster-hierarchy iteration, §3.1.1).
    Obj(ClassId),
    Array(Box<SType>),
    Set(Box<SType>),
    /// The `null` literal: admitted by every field type.
    Null,
    /// Unknown — from `any`-typed fields, method returns, parameters, or
    /// an earlier error. Absorbs every check.
    Any,
}

impl SType {
    pub(crate) fn from_decl(schema: &Schema, ty: &Type) -> SType {
        match ty {
            Type::Int => SType::Int,
            Type::Float => SType::Float,
            Type::Bool => SType::Bool,
            Type::Str => SType::Str,
            Type::Ref(c) | Type::VRef(c) => match schema.id_of(c) {
                Ok(id) => SType::Obj(id),
                Err(_) => SType::Any,
            },
            Type::Array(e) => SType::Array(Box::new(SType::from_decl(schema, e))),
            Type::Set(e) => SType::Set(Box::new(SType::from_decl(schema, e))),
            Type::Any => SType::Any,
        }
    }

    fn from_value(v: &Value) -> SType {
        match v {
            Value::Null => SType::Null,
            Value::Bool(_) => SType::Bool,
            Value::Int(_) => SType::Int,
            Value::Float(_) => SType::Float,
            Value::Str(_) => SType::Str,
            Value::Ref(_) | Value::VRef(_) => SType::Any,
            Value::Array(_) => SType::Array(Box::new(SType::Any)),
            Value::Set(_) => SType::Set(Box::new(SType::Any)),
        }
    }

    pub(crate) fn is_wild(&self) -> bool {
        matches!(self, SType::Any | SType::Null)
    }

    fn is_numeric(&self) -> bool {
        matches!(self, SType::Int | SType::Float) || self.is_wild()
    }

    pub(crate) fn is_boolish(&self) -> bool {
        matches!(self, SType::Bool) || self.is_wild()
    }

    /// Can `<`/`<=`/`by` order this type? The evaluator's `compare`
    /// orders numbers (cross int/double) and strings, nothing else.
    pub(crate) fn is_orderable(&self) -> bool {
        matches!(self, SType::Int | SType::Float | SType::Str) || self.is_wild()
    }

    /// Are two static types possibly equal at run time? Disjoint
    /// primitives (`"x" == 3`) are a provable mistake.
    fn comparable(&self, other: &SType) -> bool {
        if self.is_wild() || other.is_wild() {
            return true;
        }
        match (self, other) {
            (SType::Int | SType::Float, SType::Int | SType::Float) => true,
            (SType::Obj(_), SType::Obj(_)) => true,
            (SType::Array(_), SType::Array(_)) | (SType::Set(_), SType::Set(_)) => true,
            (a, b) => a == b,
        }
    }

    /// Would a value of this static type be admitted into a field
    /// declared as `decl`? Mirrors `Type::admits` (ints coerce into
    /// double fields; `null` goes anywhere; `any` admits everything).
    pub(crate) fn assignable_to(&self, schema: &Schema, decl: &Type) -> bool {
        if self.is_wild() || matches!(decl, Type::Any) {
            return true;
        }
        match (decl, self) {
            (Type::Int, SType::Int) => true,
            (Type::Float, SType::Float | SType::Int) => true,
            (Type::Bool, SType::Bool) => true,
            (Type::Str, SType::Str) => true,
            (Type::Ref(c) | Type::VRef(c), SType::Obj(id)) => match schema.id_of(c) {
                // A subclass object fits a superclass-typed field.
                Ok(want) => schema.is_subclass(*id, want) || schema.is_subclass(want, *id),
                Err(_) => true,
            },
            (Type::Array(e), SType::Array(got)) => got.is_wild() || got.assignable_to(schema, e),
            (Type::Set(e), SType::Set(got)) => got.is_wild() || got.assignable_to(schema, e),
            _ => false,
        }
    }

    pub(crate) fn describe(&self, schema: &Schema) -> String {
        match self {
            SType::Int => "int".into(),
            SType::Float => "double".into(),
            SType::Bool => "bool".into(),
            SType::Str => "string".into(),
            SType::Obj(id) => match schema.class(*id) {
                Ok(def) => format!("object of class `{}`", def.name),
                Err(_) => "object".into(),
            },
            SType::Array(e) => format!("array of {}", e.describe(schema)),
            SType::Set(e) => format!("set of {}", e.describe(schema)),
            SType::Null => "null".into(),
            SType::Any => "any".into(),
        }
    }
}

/// The static classes behind the names of one bound expression: loop
/// variable `i` ranges over `vars[i]` (and its subclasses, §3.1.1), and
/// `this`, where the scope binds one, is an object of class `this`.
pub(crate) struct Statics<'a> {
    pub(crate) vars: &'a [ClassId],
    pub(crate) this: Option<ClassId>,
    /// Is the expression a trigger body? Only the wording of the finding
    /// for an undeclared `$param` depends on it.
    pub(crate) trigger: bool,
}

/// Infer the static type of `expr`, as the binder resolved it, pushing
/// diagnostics for everything provably wrong. Returns [`SType::Any`]
/// after reporting an error so one mistake does not cascade.
pub(crate) fn infer(
    schema: &Schema,
    statics: &Statics<'_>,
    src: &str,
    expr: &BoundExpr,
    diags: &mut Vec<Diagnostic>,
) -> SType {
    Typer {
        schema,
        statics,
        src,
        diags,
    }
    .node(expr.root())
}

struct Typer<'t> {
    schema: &'t Schema,
    statics: &'t Statics<'t>,
    src: &'t str,
    diags: &'t mut Vec<Diagnostic>,
}

impl Typer<'_> {
    /// Report error `code`, located at `token` in the source.
    fn error(&mut self, code: &'static str, message: String, token: &str) {
        self.diags
            .push(Diagnostic::new(code, Severity::Error, message).locate(self.src, token));
    }

    /// The declared type of `field` in `class`, or A002 when the binder
    /// found no slot for it there.
    fn field(&mut self, class: ClassId, field: &Field) -> SType {
        let Ok(def) = self.schema.class(class) else {
            return SType::Any;
        };
        match field.slot(class) {
            Some(slot) => SType::from_decl(self.schema, &def.layout[slot].ty),
            None => {
                let message = format!("class `{}` has no member `{}`", def.name, field.name());
                self.error(A002, message, field.name());
                SType::Any
            }
        }
    }

    fn node(&mut self, node: &Node) -> SType {
        let schema = self.schema;
        match node {
            Node::Lit(v) => SType::from_value(v),
            Node::Var(i) => SType::Obj(self.statics.vars[*i]),
            Node::ThisField(f) => match self.statics.this {
                Some(this) => self.field(this, f),
                None => SType::Any,
            },
            Node::VarField(i, f) => self.field(self.statics.vars[*i], f),
            Node::Path(base, member) => match self.node(base) {
                SType::Obj(class) => self.field(class, member),
                ref t if t.is_wild() => SType::Any,
                other => {
                    let message = format!(
                        "member access `.{}` on a value of type {}",
                        member.name(),
                        other.describe(schema)
                    );
                    self.error(A005, message, member.name());
                    SType::Any
                }
            },
            Node::Param(..) => SType::Any,
            Node::Fail(name) => {
                let (message, token) = match name.strip_prefix('$') {
                    Some(param) if self.statics.trigger => (
                        format!("`{name}` is not a parameter of this trigger"),
                        param,
                    ),
                    Some(param) => (
                        format!(
                            "activation parameter `{name}` is only available \
                             in trigger bodies, not in queries"
                        ),
                        param,
                    ),
                    None => (
                        format!(
                            "unresolved identifier `{name}`: not a loop variable \
                             (join predicates must qualify members as `var.member`)"
                        ),
                        name.as_str(),
                    ),
                };
                self.error(A004, message, token);
                SType::Any
            }
            Node::Unary(op, e) => {
                let t = self.node(e);
                match op {
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            let message =
                                format!("cannot negate a value of type {}", t.describe(schema));
                            self.error(A005, message, "");
                            SType::Any
                        } else {
                            t
                        }
                    }
                    UnOp::Not => {
                        if !t.is_boolish() {
                            let message =
                                format!("`!` applies to bool, got {}", t.describe(schema));
                            self.error(A005, message, "");
                        }
                        SType::Bool
                    }
                }
            }
            Node::Binary(op, l, r) => {
                let lt = self.node(l);
                let rt = self.node(r);
                self.binary(*op, &lt, &rt)
            }
            Node::Call { recv, name, args } => {
                for a in args {
                    self.node(a);
                }
                let recv_class = match recv {
                    Recv::This => self.statics.this,
                    Recv::Var(i) => Some(self.statics.vars[*i]),
                    Recv::Expr(r) => match self.node(r) {
                        SType::Obj(c) => Some(c),
                        ref t if t.is_wild() => return SType::Any,
                        other => {
                            let message = format!(
                                "method call `.{name}()` on a value of type {}",
                                other.describe(schema)
                            );
                            self.error(A005, message, name);
                            return SType::Any;
                        }
                    },
                };
                let Some(class) = recv_class else {
                    let message = format!("method `{name}()` called without a receiver object");
                    self.error(A004, message, name);
                    return SType::Any;
                };
                // Methods are registered at run time; the dynamic class may
                // be any subclass of the static one, so only report when no
                // class in the hierarchy knows the method.
                let known_here = schema.lookup_method(class, name).is_ok();
                let known_below = schema
                    .descendants(class)
                    .into_iter()
                    .any(|d| schema.lookup_method(d, name).is_ok());
                if !known_here && !known_below {
                    let cname = schema
                        .class(class)
                        .map(|d| d.name.clone())
                        .unwrap_or_default();
                    let message = format!(
                        "no method `{name}` registered on class `{cname}` or its subclasses"
                    );
                    self.error(A003, message, name);
                }
                SType::Any
            }
            Node::VarIs(i, classes) => {
                let base = SType::Obj(self.statics.vars[*i]);
                self.is(base, classes)
            }
            Node::Is(base, classes) => {
                let base = self.node(base);
                self.is(base, classes)
            }
            Node::Cond(c, a, b) => {
                let ct = self.node(c);
                if !ct.is_boolish() {
                    let message =
                        format!("condition has type {}, expected bool", ct.describe(schema));
                    self.error(A005, message, "");
                }
                let at = self.node(a);
                let bt = self.node(b);
                if at == bt {
                    at
                } else {
                    SType::Any
                }
            }
            Node::Index(base, ix) => {
                let bt = self.node(base);
                let it = self.node(ix);
                if !matches!(it, SType::Int) && !it.is_wild() {
                    let message = format!("index has type {}, expected int", it.describe(schema));
                    self.error(A005, message, "");
                }
                match bt {
                    SType::Array(e) => *e,
                    SType::Str => SType::Str,
                    ref t if t.is_wild() => SType::Any,
                    other => {
                        let message =
                            format!("cannot index a value of type {}", other.describe(schema));
                        self.error(A005, message, "");
                        SType::Any
                    }
                }
            }
        }
    }

    fn binary(&mut self, op: BinOp, lt: &SType, rt: &SType) -> SType {
        let (schema, sym) = (self.schema, op.symbol());
        let mismatch = |t: &mut Self| {
            let (l, r) = (lt.describe(schema), rt.describe(schema));
            t.error(A005, format!("`{sym}` cannot combine {l} with {r}"), "");
            SType::Any
        };
        let is_str = |t: &SType| matches!(t, SType::Str);
        match op {
            BinOp::Add if is_str(lt) && is_str(rt) => SType::Str,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div
                if lt.is_numeric() && rt.is_numeric() =>
            {
                if matches!(lt, SType::Float) || matches!(rt, SType::Float) {
                    SType::Float
                } else if lt.is_wild() || rt.is_wild() {
                    SType::Any
                } else {
                    SType::Int
                }
            }
            BinOp::Add if (is_str(lt) && rt.is_wild()) || (lt.is_wild() && is_str(rt)) => {
                SType::Str
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => mismatch(self),
            BinOp::Mod => {
                let int_ok = |t: &SType| matches!(t, SType::Int) || t.is_wild();
                if int_ok(lt) && int_ok(rt) {
                    SType::Int
                } else {
                    mismatch(self)
                }
            }
            BinOp::Eq | BinOp::Ne => {
                if !lt.comparable(rt) {
                    let (l, r) = (lt.describe(schema), rt.describe(schema));
                    let message =
                        format!("`{sym}` compares {l} with {r}: these types are never equal");
                    self.error(A005, message, "");
                }
                SType::Bool
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let ordered = (lt.is_numeric() && rt.is_numeric())
                    || (is_str(lt) && is_str(rt))
                    || lt.is_wild()
                    || rt.is_wild();
                if !ordered {
                    let (l, r) = (lt.describe(schema), rt.describe(schema));
                    let message = format!("`{sym}` orders numbers or strings, got {l} and {r}");
                    self.error(A005, message, "");
                }
                SType::Bool
            }
            BinOp::And | BinOp::Or => {
                for t in [lt, rt] {
                    if !t.is_boolish() {
                        let message =
                            format!("`{sym}` takes bool operands, got {}", t.describe(schema));
                        self.error(A005, message, "");
                    }
                }
                SType::Bool
            }
            BinOp::In => {
                let elem_ok = match rt {
                    SType::Set(e) | SType::Array(e) => lt.comparable(e),
                    t => t.is_wild(),
                };
                if !elem_ok {
                    mismatch(self);
                }
                SType::Bool
            }
        }
    }

    /// `base is C`, for a `base` of static type `base`.
    fn is(&mut self, base: SType, classes: &Classes) -> SType {
        let schema = self.schema;
        let (target, set) = match classes {
            Classes::Known { class, set } => (*class, set),
            Classes::Unknown(name) => {
                let message = format!("unknown class `{name}` in `is` test");
                self.error(A001, message, name);
                return SType::Bool;
            }
        };
        let class_name = schema.class(target).map(|d| d.name.as_str()).unwrap_or("");
        match base {
            SType::Obj(static_class) => {
                // `x is C` can only be true if some class is at once a
                // subclass of x's static class (a possible dynamic class)
                // and of C.
                let overlaps = schema
                    .classes()
                    .iter()
                    .any(|d| set[d.id.0 as usize] && schema.is_subclass(d.id, static_class));
                if !overlaps {
                    let sname = schema
                        .class(static_class)
                        .map(|d| d.name.clone())
                        .unwrap_or_default();
                    self.diags.push(
                        Diagnostic::new(
                            A103,
                            Severity::Warning,
                            format!(
                                "`is {class_name}` is never true here: `{class_name}` is \
                                 outside `{sname}`'s cluster hierarchy"
                            ),
                        )
                        .locate(self.src, class_name),
                    );
                }
            }
            ref t if t.is_wild() => {}
            other => {
                let message = format!(
                    "`is` tests an object, got a value of type {}",
                    other.describe(schema)
                );
                self.error(A005, message, class_name);
            }
        }
        SType::Bool
    }
}
