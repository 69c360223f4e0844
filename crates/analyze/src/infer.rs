//! Static type inference over [`Expr`] trees.
//!
//! Name resolution has one home, `ode-model`'s binder (`bind.rs`): a
//! bare identifier names the innermost loop variable of that name, else a
//! member of the current object. This pass walks the same names with
//! static types and touches no objects; it does not yet run on the
//! binder's output. Arithmetic works on numbers (ints coerce to doubles,
//! `+` also concatenates strings); ordering compares numbers with numbers
//! and strings with strings; `==`/`!=` accept any pair of *compatible*
//! types. `Any`/`Null` absorb — inference is deliberately lenient where
//! the evaluator is dynamic, so the analyzer only reports what is
//! provably wrong.

use ode_model::{BinOp, Binding, ClassId, Expr, Schema, Type, UnOp, Value};

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

/// Name-resolution context for one expression: the loop variables in
/// scope, the implicit `this` class (single-binding queries, constraint
/// and trigger bodies), and the `$param`s declared here (`None` outside
/// a trigger body).
pub(crate) struct Scope<'a> {
    vars: Vec<(&'a str, ClassId)>,
    this_class: Option<ClassId>,
    params: Option<&'a [String]>,
}

impl<'a> Scope<'a> {
    /// Scope of a query's bindings. `None` if any binding's class is
    /// unknown (already reported as A001 by the caller).
    ///
    /// A single-binding query evaluates its predicate with the candidate
    /// as `this`, so bare names may also be members; join predicates run
    /// without `this` — bare names must be loop variables.
    pub(crate) fn for_bindings(schema: &Schema, bindings: &'a [Binding]) -> Option<Scope<'a>> {
        let mut vars = Vec::with_capacity(bindings.len());
        for b in bindings {
            vars.push((b.var.as_str(), schema.id_of(&b.cluster).ok()?));
        }
        let this_class = (bindings.len() == 1).then(|| vars[0].1);
        Some(Scope {
            vars,
            this_class,
            params: None,
        })
    }

    /// Scope with an implicit `this` of `class`: constraint expressions
    /// (`params` is `None`), trigger conditions/actions (`params` names
    /// the trigger's declared `$arg`s).
    pub(crate) fn for_this(class: ClassId, params: Option<&'a [String]>) -> Scope<'a> {
        Scope {
            vars: Vec::new(),
            this_class: Some(class),
            params,
        }
    }

    /// No variables, no `this`: `pnew` initializer expressions.
    pub(crate) fn free(_schema: &Schema) -> Scope<'a> {
        Scope {
            vars: Vec::new(),
            this_class: None,
            params: None,
        }
    }

    fn lookup_var(&self, name: &str) -> Option<ClassId> {
        self.vars
            .iter()
            .find(|(v, _)| *v == name)
            .map(|(_, id)| *id)
    }
}

/// Infer the static type of `expr`, pushing diagnostics for everything
/// provably wrong. Returns [`SType::Any`] after reporting an error so
/// one mistake does not cascade.
pub(crate) fn infer(
    schema: &Schema,
    scope: &Scope<'_>,
    src: &str,
    expr: &Expr,
    diags: &mut Vec<Diagnostic>,
) -> SType {
    match expr {
        Expr::Lit(v) => SType::from_value(v),
        Expr::Ident(name) => {
            if let Some(class) = scope.lookup_var(name) {
                return SType::Obj(class);
            }
            if let Some(this) = scope.this_class {
                if let Ok(def) = schema.class(this) {
                    if let Ok(field) = def.field(name) {
                        return SType::from_decl(schema, &field.ty);
                    }
                    diags.push(
                        Diagnostic::new(
                            A002,
                            Severity::Error,
                            format!("class `{}` has no member `{name}`", def.name),
                        )
                        .locate(src, name),
                    );
                    return SType::Any;
                }
            }
            diags.push(
                Diagnostic::new(
                    A004,
                    Severity::Error,
                    format!(
                        "unresolved identifier `{name}`: not a loop variable \
                         (join predicates must qualify members as `var.member`)"
                    ),
                )
                .locate(src, name),
            );
            SType::Any
        }
        Expr::Param(name) => {
            let message = match scope.params {
                Some(params) if params.contains(name) => return SType::Any,
                Some(_) => format!("`${name}` is not a parameter of this trigger"),
                None => format!(
                    "activation parameter `${name}` is only available \
                     in trigger bodies, not in queries"
                ),
            };
            diags.push(Diagnostic::new(A004, Severity::Error, message).locate(src, name));
            SType::Any
        }
        Expr::Path(base, member) => {
            let base_ty = infer(schema, scope, src, base, diags);
            match base_ty {
                SType::Obj(class) => {
                    let Ok(def) = schema.class(class) else {
                        return SType::Any;
                    };
                    match def.field(member) {
                        Ok(field) => SType::from_decl(schema, &field.ty),
                        Err(_) => {
                            diags.push(
                                Diagnostic::new(
                                    A002,
                                    Severity::Error,
                                    format!("class `{}` has no member `{member}`", def.name),
                                )
                                .locate(src, member),
                            );
                            SType::Any
                        }
                    }
                }
                ref t if t.is_wild() => SType::Any,
                other => {
                    diags.push(
                        Diagnostic::new(
                            A005,
                            Severity::Error,
                            format!(
                                "member access `.{member}` on a value of type {}",
                                other.describe(schema)
                            ),
                        )
                        .locate(src, member),
                    );
                    SType::Any
                }
            }
        }
        Expr::Unary(op, e) => {
            let t = infer(schema, scope, src, e, diags);
            match op {
                UnOp::Neg => {
                    if !t.is_numeric() {
                        diags.push(Diagnostic::new(
                            A005,
                            Severity::Error,
                            format!("cannot negate a value of type {}", t.describe(schema)),
                        ));
                        SType::Any
                    } else {
                        t
                    }
                }
                UnOp::Not => {
                    if !t.is_boolish() {
                        diags.push(Diagnostic::new(
                            A005,
                            Severity::Error,
                            format!("`!` applies to bool, got {}", t.describe(schema)),
                        ));
                    }
                    SType::Bool
                }
            }
        }
        Expr::Binary(op, l, r) => {
            let lt = infer(schema, scope, src, l, diags);
            let rt = infer(schema, scope, src, r, diags);
            infer_binary(schema, src, *op, &lt, &rt, diags)
        }
        Expr::Call { recv, name, args } => {
            for a in args {
                infer(schema, scope, src, a, diags);
            }
            let recv_class = match recv {
                Some(r) => match infer(schema, scope, src, r, diags) {
                    SType::Obj(c) => Some(c),
                    ref t if t.is_wild() => return SType::Any,
                    other => {
                        diags.push(
                            Diagnostic::new(
                                A005,
                                Severity::Error,
                                format!(
                                    "method call `.{name}()` on a value of type {}",
                                    other.describe(schema)
                                ),
                            )
                            .locate(src, name),
                        );
                        return SType::Any;
                    }
                },
                None => scope.this_class,
            };
            let Some(class) = recv_class else {
                diags.push(
                    Diagnostic::new(
                        A004,
                        Severity::Error,
                        format!("method `{name}()` called without a receiver object"),
                    )
                    .locate(src, name),
                );
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
                diags.push(
                    Diagnostic::new(
                        A003,
                        Severity::Error,
                        format!(
                            "no method `{name}` registered on class `{cname}` or its subclasses"
                        ),
                    )
                    .locate(src, name),
                );
            }
            SType::Any
        }
        Expr::Is(base, class_name) => {
            let base_ty = infer(schema, scope, src, base, diags);
            let Ok(target) = schema.id_of(class_name) else {
                diags.push(
                    Diagnostic::new(
                        A001,
                        Severity::Error,
                        format!("unknown class `{class_name}` in `is` test"),
                    )
                    .locate(src, class_name),
                );
                return SType::Bool;
            };
            match base_ty {
                SType::Obj(static_class) => {
                    // `x is C` can only be true if some class is at once
                    // a subclass of x's static class (a possible dynamic
                    // class) and of C.
                    let overlaps = schema.classes().iter().any(|d| {
                        schema.is_subclass(d.id, static_class) && schema.is_subclass(d.id, target)
                    });
                    if !overlaps {
                        let sname = schema
                            .class(static_class)
                            .map(|d| d.name.clone())
                            .unwrap_or_default();
                        diags.push(
                            Diagnostic::new(
                                A103,
                                Severity::Warning,
                                format!(
                                    "`is {class_name}` is never true here: `{class_name}` is \
                                     outside `{sname}`'s cluster hierarchy"
                                ),
                            )
                            .locate(src, class_name),
                        );
                    }
                }
                ref t if t.is_wild() => {}
                other => {
                    diags.push(
                        Diagnostic::new(
                            A005,
                            Severity::Error,
                            format!(
                                "`is` tests an object, got a value of type {}",
                                other.describe(schema)
                            ),
                        )
                        .locate(src, class_name),
                    );
                }
            }
            SType::Bool
        }
        Expr::Cond(c, a, b) => {
            let ct = infer(schema, scope, src, c, diags);
            if !ct.is_boolish() {
                diags.push(Diagnostic::new(
                    A005,
                    Severity::Error,
                    format!("condition has type {}, expected bool", ct.describe(schema)),
                ));
            }
            let at = infer(schema, scope, src, a, diags);
            let bt = infer(schema, scope, src, b, diags);
            if at == bt {
                at
            } else {
                SType::Any
            }
        }
        Expr::Index(base, ix) => {
            let bt = infer(schema, scope, src, base, diags);
            let it = infer(schema, scope, src, ix, diags);
            if !matches!(it, SType::Int) && !it.is_wild() {
                diags.push(Diagnostic::new(
                    A005,
                    Severity::Error,
                    format!("index has type {}, expected int", it.describe(schema)),
                ));
            }
            match bt {
                SType::Array(e) => *e,
                SType::Str => SType::Str,
                ref t if t.is_wild() => SType::Any,
                other => {
                    diags.push(Diagnostic::new(
                        A005,
                        Severity::Error,
                        format!("cannot index a value of type {}", other.describe(schema)),
                    ));
                    SType::Any
                }
            }
        }
    }
}

fn infer_binary(
    schema: &Schema,
    _src: &str,
    op: BinOp,
    lt: &SType,
    rt: &SType,
    diags: &mut Vec<Diagnostic>,
) -> SType {
    let mismatch = |diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic::new(
            A005,
            Severity::Error,
            format!(
                "`{}` cannot combine {} with {}",
                op.symbol(),
                lt.describe(schema),
                rt.describe(schema)
            ),
        ));
    };
    match op {
        BinOp::Add => {
            if matches!(lt, SType::Str) && matches!(rt, SType::Str) {
                SType::Str
            } else if lt.is_numeric() && rt.is_numeric() {
                if matches!(lt, SType::Float) || matches!(rt, SType::Float) {
                    SType::Float
                } else if lt.is_wild() || rt.is_wild() {
                    SType::Any
                } else {
                    SType::Int
                }
            } else if (matches!(lt, SType::Str) && rt.is_wild())
                || (lt.is_wild() && matches!(rt, SType::Str))
            {
                SType::Str
            } else {
                mismatch(diags);
                SType::Any
            }
        }
        BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if lt.is_numeric() && rt.is_numeric() {
                if matches!(lt, SType::Float) || matches!(rt, SType::Float) {
                    SType::Float
                } else if lt.is_wild() || rt.is_wild() {
                    SType::Any
                } else {
                    SType::Int
                }
            } else {
                mismatch(diags);
                SType::Any
            }
        }
        BinOp::Mod => {
            let int_ok = |t: &SType| matches!(t, SType::Int) || t.is_wild();
            if int_ok(lt) && int_ok(rt) {
                SType::Int
            } else {
                mismatch(diags);
                SType::Any
            }
        }
        BinOp::Eq | BinOp::Ne => {
            if !lt.comparable(rt) {
                diags.push(Diagnostic::new(
                    A005,
                    Severity::Error,
                    format!(
                        "`{}` compares {} with {}: these types are never equal",
                        op.symbol(),
                        lt.describe(schema),
                        rt.describe(schema)
                    ),
                ));
            }
            SType::Bool
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ordered = (lt.is_numeric() && rt.is_numeric())
                || (matches!(lt, SType::Str) && matches!(rt, SType::Str))
                || lt.is_wild()
                || rt.is_wild();
            if !ordered {
                diags.push(Diagnostic::new(
                    A005,
                    Severity::Error,
                    format!(
                        "`{}` orders numbers or strings, got {} and {}",
                        op.symbol(),
                        lt.describe(schema),
                        rt.describe(schema)
                    ),
                ));
            }
            SType::Bool
        }
        BinOp::And | BinOp::Or => {
            for t in [lt, rt] {
                if !t.is_boolish() {
                    diags.push(Diagnostic::new(
                        A005,
                        Severity::Error,
                        format!(
                            "`{}` takes bool operands, got {}",
                            op.symbol(),
                            t.describe(schema)
                        ),
                    ));
                }
            }
            SType::Bool
        }
        BinOp::In => {
            let elem_ok = match rt {
                SType::Set(e) | SType::Array(e) => lt.comparable(e),
                t if t.is_wild() => true,
                _ => {
                    mismatch(diags);
                    true
                }
            };
            if !elem_ok {
                mismatch(diags);
            }
            SType::Bool
        }
    }
}
