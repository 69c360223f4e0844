//! Expression AST.
//!
//! This small language stands in for the C++ expressions O++ embeds in
//! `suchthat (...)` and `by (...)` clauses (§3.1), constraint bodies (§5),
//! and trigger conditions (§6). Examples straight from the paper:
//!
//! * `sex == 'f' || sex == 'F'` — the `female` specialization constraint,
//! * `quantity <= reorder_level` — the stock reorder trigger condition,
//! * `e.deptno == d.dno` — a join predicate over two loop variables,
//! * `p is student` — the hierarchy type test of §3.1.1.

use crate::value::Value;

/// Binary operators, in O++/C++ spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numbers; string concatenation).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers).
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit).
    And,
    /// `||` (short-circuit).
    Or,
    /// `in` — set/array membership (left `in` right).
    In,
}

impl BinOp {
    /// C++ spelling (used by `Display` and error messages).
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::In => "in",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Bare identifier. Resolution order at evaluation time: bound
    /// variable (loop variable) first, then field of the current object.
    Ident(String),
    /// Explicit activation parameter, written `$name` (trigger arguments).
    Param(String),
    /// Member access through an object value: `e.deptno` / `e->deptno`.
    Path(Box<Expr>, String),
    /// Unary operator application.
    Unary(UnOp, Box<Expr>),
    /// Binary operator application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Method call. With `recv == None` the method is looked up on the
    /// current object (constraint bodies); otherwise on the receiver.
    Call {
        /// Receiver object expression, if any.
        recv: Option<Box<Expr>>,
        /// Method name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// The paper's type test (§3.1.1): `p is student`. True when the
    /// operand references an object whose class is (a subclass of) the
    /// named class.
    Is(Box<Expr>, String),
    /// C++ conditional: `cond ? a : b` (lazy in the untaken branch).
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Array subscript: `arr[i]` (0-based, as in C++).
    Index(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Convenience constructor for an identifier.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// Convenience constructor for a binary application.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// The top-level `&&` conjuncts, left to right (just `self` when it
    /// is not a conjunction).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let (mut out, mut stack) = (Vec::new(), vec![self]);
        while let Some(e) = stack.pop() {
            match e {
                Expr::Binary(BinOp::And, l, r) => {
                    stack.push(r);
                    stack.push(l);
                }
                other => out.push(other),
            }
        }
        out
    }

    /// All identifiers this expression reads at the *top level* (not through
    /// paths): `Schema::check_field_refs` requires each bare name of a
    /// constraint or trigger body to be a member, and the analyzer reads a
    /// trigger condition's read set from them.
    pub fn free_idents(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_idents(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_idents<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Ident(name) => out.push(name),
            Expr::Path(base, _) | Expr::Is(base, _) => base.collect_idents(out),
            Expr::Cond(c, a, b) => {
                c.collect_idents(out);
                a.collect_idents(out);
                b.collect_idents(out);
            }
            Expr::Index(base, ix) => {
                base.collect_idents(out);
                ix.collect_idents(out);
            }
            Expr::Unary(_, e) => e.collect_idents(out),
            Expr::Binary(_, l, r) => {
                l.collect_idents(out);
                r.collect_idents(out);
            }
            Expr::Call { recv, args, .. } => {
                if let Some(r) = recv {
                    r.collect_idents(out);
                }
                for a in args {
                    a.collect_idents(out);
                }
            }
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Ident(n) => write!(f, "{n}"),
            Expr::Param(n) => write!(f, "${n}"),
            Expr::Path(b, n) => write!(f, "{b}.{n}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "!({e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Call { recv, name, args } => {
                if let Some(r) = recv {
                    write!(f, "{r}.")?;
                }
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Is(e, class) => write!(f, "({e} is {class})"),
            Expr::Cond(c, a, b) => write!(f, "({c} ? {a} : {b})"),
            Expr::Index(base, ix) => write!(f, "{base}[{ix}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips_structure() {
        let e = Expr::bin(
            BinOp::Or,
            Expr::bin(BinOp::Eq, Expr::ident("sex"), Expr::lit("f")),
            Expr::bin(BinOp::Eq, Expr::ident("sex"), Expr::lit("F")),
        );
        assert_eq!(e.to_string(), r#"((sex == "f") || (sex == "F"))"#);
    }

    #[test]
    fn free_idents_dedup_and_skip_paths() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::Eq,
                Expr::Path(Box::new(Expr::ident("e")), "deptno".into()),
                Expr::Path(Box::new(Expr::ident("d")), "dno".into()),
            ),
            Expr::bin(BinOp::Gt, Expr::ident("e"), Expr::lit(0)),
        );
        assert_eq!(e.free_idents(), vec!["d", "e"]);
    }
}
