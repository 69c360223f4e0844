//! The statement surface: one typed [`Statement`] per input line.
//!
//! O++ is a compiled language — the paper's compiler reads a
//! `forall … suchthat … by` statement (§3.1) once and every later phase
//! works on that parsed form. [`parse_statement`] is that one read: it is
//! the only function in the tree that looks at statement keywords, and
//! the analyzer, the footprint pass and the executors are all plain
//! functions over the [`Statement`] it returns.
//!
//! ```text
//! class stockitem { string name; int quantity = 0; }     DDL (see crate::ddl)
//! create cluster stockitem
//! create index stockitem quantity                        (or stockitem.quantity)
//! destroy cluster stockitem
//! activate reorder on 2:1.0 (25)
//! deactivate trigger#3
//! forall e in employee, d in department suchthat (e.deptno == d.dno)
//! forall p in person suchthat (p is student && income > 1000) by (name) desc
//! forall s in only stockitem suchthat (quantity < 10)
//! explain forall s in stockitem suchthat (quantity == 100)
//! pnew stockitem (name = "dram", quantity = 100)
//! update s in stockitem suchthat (quantity < 10) set on_order = on_order + 100
//! delete s in stockitem suchthat (quantity == 0)
//! ```
//!
//! * several `var in cluster` bindings make a join (§3.1),
//! * `only` before the cluster name restricts to the exact class
//!   (otherwise iteration covers the cluster hierarchy, §3.1.1),
//! * `by (...)` with optional `desc` orders single-variable queries.

use crate::class::ClassBuilder;
use crate::ddl::parse_classes;
use crate::error::{ModelError, Result};
use crate::expr::Expr;
use crate::oid::Oid;
use crate::parser::parse_expr;

/// One loop variable: `var in [only] cluster`.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The loop variable's name.
    pub var: String,
    /// The cluster (class) it ranges over.
    pub cluster: String,
    /// Iterate the whole cluster hierarchy (§3.1.1); `false` after `only`.
    pub deep: bool,
}

/// The query-shaped core shared by `forall`, `explain`, `update` and
/// `delete`: bindings, predicate, ordering.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryStmt {
    /// Loop variables, in declaration order (more than one is a join).
    pub bindings: Vec<Binding>,
    /// The `suchthat` predicate.
    pub suchthat: Option<Expr>,
    /// The `by` key and descending flag (`forall`/`explain` only).
    pub by: Option<(Expr, bool)>,
}

/// A parsed statement — everything the shell, the analyzer and the
/// executors need, with no source text left to re-read.
#[derive(Debug, Clone)]
pub enum Statement {
    /// `class … { … }` declarations, in order.
    Class(Vec<ClassBuilder>),
    /// `create cluster <class>`.
    CreateCluster {
        /// The class whose extent to create.
        class: String,
    },
    /// `destroy cluster <class>`.
    DestroyCluster {
        /// The class whose extent (and objects) to drop.
        class: String,
    },
    /// `create index <class> <field>` (also spelled `<class>.<field>`).
    CreateIndex {
        /// The indexed class.
        class: String,
        /// The indexed member.
        field: String,
    },
    /// `activate <trigger> on <oid> [(arg, …)]` (§6).
    Activate {
        /// Trigger name, resolved against the object's class.
        trigger: String,
        /// The object to arm it on.
        oid: Oid,
        /// Trigger arguments (evaluated with no object in scope).
        args: Vec<Expr>,
    },
    /// `deactivate trigger#<id>` (the `trigger#` prefix is optional).
    Deactivate {
        /// The activation id `activate` printed.
        id: u64,
    },
    /// `forall …`.
    Forall(QueryStmt),
    /// `explain forall …`: run the query, report plan and profile.
    Explain(QueryStmt),
    /// `pnew <class> [(field = expr, …)]`.
    Pnew {
        /// Target class.
        class: String,
        /// Field initializers.
        inits: Vec<(String, Expr)>,
    },
    /// `update <v> in <class> [suchthat (…)] set field = expr [, …]`.
    Update {
        /// The objects to update (one binding, no `by`).
        target: QueryStmt,
        /// `set` assignments, left to right.
        assigns: Vec<(String, Expr)>,
    },
    /// `delete <v> in <class> [suchthat (…)]` (one binding, no `by`).
    Delete(QueryStmt),
}

impl Statement {
    /// Does the statement shape the schema or catalog (`class`,
    /// `create cluster`, `destroy cluster`, `create index`)? Such
    /// statements run on the database, not inside a transaction.
    pub fn is_ddl(&self) -> bool {
        matches!(
            self,
            Statement::Class(_)
                | Statement::CreateCluster { .. }
                | Statement::DestroyCluster { .. }
                | Statement::CreateIndex { .. }
        )
    }
}

/// Parse one statement. The only place statement keywords are matched.
pub fn parse_statement(src: &str) -> Result<Statement> {
    let mut p = Lex { src, at: 0 };
    if p.eat_kw("class") {
        return Ok(Statement::Class(parse_classes(src)?));
    }
    let stmt = if p.eat_kw("create") {
        if p.eat_kw("cluster") {
            Statement::CreateCluster { class: p.ident()? }
        } else if p.eat_kw("index") {
            let class = p.ident()?;
            p.eat_sym(".");
            Statement::CreateIndex {
                class,
                field: p.ident()?,
            }
        } else {
            return Err(p.err("expected `cluster` or `index` after `create`"));
        }
    } else if p.eat_kw("destroy") {
        if !p.eat_kw("cluster") {
            return Err(p.err("expected `cluster` after `destroy`"));
        }
        Statement::DestroyCluster { class: p.ident()? }
    } else if p.eat_kw("activate") {
        let trigger = p.ident()?;
        if !p.eat_kw("on") {
            return Err(p.err("usage: activate <trigger> on <oid> (args)"));
        }
        let oid = p.word().parse()?;
        let args = p
            .paren_list(|p| p.expr_until(&[',', ')']))?
            .unwrap_or_default();
        Statement::Activate { trigger, oid, args }
    } else if p.eat_kw("deactivate") {
        let word = p.word();
        let id = word
            .trim_start_matches("trigger#")
            .parse()
            .map_err(|_| p.err(format!("`{word}` is not a trigger id")))?;
        Statement::Deactivate { id }
    } else if p.eat_kw("pnew") {
        let class = p.ident()?;
        let inits = p
            .paren_list(|p| p.assignment(&[',', ')']))?
            .unwrap_or_default();
        Statement::Pnew { class, inits }
    } else if p.eat_kw("update") {
        let target = p.target()?;
        if !p.eat_kw("set") {
            return Err(p.err("expected `set`"));
        }
        let mut assigns = vec![p.assignment(&[','])?];
        while p.eat_sym(",") {
            assigns.push(p.assignment(&[','])?);
        }
        Statement::Update { target, assigns }
    } else if p.eat_kw("delete") {
        Statement::Delete(p.target()?)
    } else {
        let explain = p.eat_kw("explain");
        if !(p.eat_kw("forall") || (p.eat_kw("for") && p.eat_kw("all"))) {
            return Err(p.err("expected `forall`"));
        }
        let query = p.query()?;
        if explain {
            Statement::Explain(query)
        } else {
            Statement::Forall(query)
        }
    };
    if !p.at_end() {
        p.skip_ws();
        return Err(p.err(format!(
            "unexpected trailing input `{}`",
            p.rest().chars().take(16).collect::<String>()
        )));
    }
    Ok(stmt)
}

struct Lex<'a> {
    src: &'a str,
    at: usize,
}

impl<'a> Lex<'a> {
    fn rest(&self) -> &'a str {
        &self.src[self.at..]
    }

    fn at_end(&self) -> bool {
        self.rest().trim().is_empty()
    }

    fn err(&self, message: impl Into<String>) -> ModelError {
        ModelError::Parse {
            message: message.into(),
            at: self.at,
        }
    }

    fn skip_ws(&mut self) {
        let rest = self.rest();
        let trimmed = rest.trim_start();
        self.at += rest.len() - trimmed.len();
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        if let Some(tail) = rest.strip_prefix(kw) {
            let after = tail.chars().next();
            if !matches!(after, Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                self.at += kw.len();
                return true;
            }
        }
        false
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(sym) {
            self.at += sym.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let rest = self.rest();
        let mut end = 0;
        for (i, c) in rest.char_indices() {
            if (i == 0 && (c.is_ascii_alphabetic() || c == '_'))
                || (i > 0 && (c.is_ascii_alphanumeric() || c == '_'))
            {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            return Err(self.err(format!(
                "expected an identifier, found `{}`",
                rest.chars().take(12).collect::<String>()
            )));
        }
        self.at += end;
        Ok(rest[..end].to_string())
    }

    /// The next run of characters up to whitespace or `(` — oids and
    /// trigger ids, which are not identifiers.
    fn word(&mut self) -> &'a str {
        self.skip_ws();
        let rest = self.rest();
        let end = rest
            .find(|c: char| c.is_whitespace() || c == '(')
            .unwrap_or(rest.len());
        self.at += end;
        &rest[..end]
    }

    /// `var in [only] cluster`.
    fn binding(&mut self) -> Result<Binding> {
        let var = self.ident()?;
        if !self.eat_kw("in") {
            return Err(self.err("expected `in` after the loop variable"));
        }
        let deep = !self.eat_kw("only");
        let cluster = self.ident()?;
        Ok(Binding { var, cluster, deep })
    }

    /// Everything after the `forall` opener.
    fn query(&mut self) -> Result<QueryStmt> {
        let mut bindings = vec![self.binding()?];
        while self.eat_sym(",") {
            let b = self.binding()?;
            // Duplicate variable names would make bindings ambiguous.
            if bindings.iter().any(|seen| seen.var == b.var) {
                return Err(self.err(format!("loop variable `{}` is bound twice", b.var)));
            }
            bindings.push(b);
        }
        let suchthat = self.suchthat()?;
        let mut by = None;
        if self.eat_kw("by") {
            let key = self.paren_expr()?;
            by = Some((key, self.eat_kw("desc")));
        }
        Ok(QueryStmt {
            bindings,
            suchthat,
            by,
        })
    }

    /// The single-binding `<v> in <class> [suchthat (…)]` of DML.
    fn target(&mut self) -> Result<QueryStmt> {
        Ok(QueryStmt {
            bindings: vec![self.binding()?],
            suchthat: self.suchthat()?,
            by: None,
        })
    }

    fn suchthat(&mut self) -> Result<Option<Expr>> {
        if self.eat_kw("suchthat") {
            Ok(Some(self.paren_expr()?))
        } else {
            Ok(None)
        }
    }

    /// `field = expr`, the expression running to a top-level stop char.
    fn assignment(&mut self, stops: &[char]) -> Result<(String, Expr)> {
        let field = self.ident()?;
        if !self.eat_sym("=") {
            return Err(self.err("expected `=` after the field name"));
        }
        Ok((field, self.expr_until(stops)?))
    }

    /// An optional `(item, item, …)` list; `None` when there is no `(`.
    fn paren_list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Option<Vec<T>>> {
        if !self.eat_sym("(") {
            return Ok(None);
        }
        let mut items = Vec::new();
        if self.eat_sym(")") {
            return Ok(Some(items));
        }
        loop {
            items.push(item(self)?);
            if self.eat_sym(")") {
                return Ok(Some(items));
            }
            if !self.eat_sym(",") {
                return Err(self.err("expected `,` or `)` in list"));
            }
        }
    }

    /// Parse an expression running up to a top-level occurrence of any
    /// stop char (respecting nested parens and string literals), leaving
    /// the stop character unconsumed. End of input is also a valid stop.
    fn expr_until(&mut self, stops: &[char]) -> Result<Expr> {
        self.skip_ws();
        let rest = self.rest();
        let mut depth = 0usize;
        let mut in_str: Option<char> = None;
        let mut end = rest.len();
        for (i, c) in rest.char_indices() {
            match in_str {
                Some(q) => {
                    if c == q {
                        in_str = None;
                    }
                }
                None => match c {
                    '\'' | '"' => in_str = Some(c),
                    '(' => depth += 1,
                    ')' if depth > 0 => depth -= 1,
                    _ if depth == 0 && stops.contains(&c) => {
                        end = i;
                        break;
                    }
                    _ => {}
                },
            }
        }
        let text = rest[..end].trim();
        if text.is_empty() {
            return Err(self.err("expected an expression"));
        }
        let expr = parse_expr(text)?;
        self.at += end;
        Ok(expr)
    }

    /// Parse a parenthesized expression, respecting nested parens and
    /// string literals.
    fn paren_expr(&mut self) -> Result<Expr> {
        if !self.eat_sym("(") {
            return Err(self.err("expected `(`"));
        }
        let expr = self.expr_until(&[')'])?;
        if !self.eat_sym(")") {
            return Err(self.err("unbalanced parenthesis in clause"));
        }
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(src: &str) -> QueryStmt {
        match parse_statement(src).unwrap() {
            Statement::Forall(q) => q,
            other => panic!("{src:?} parsed as {other:?}"),
        }
    }

    fn binding(var: &str, cluster: &str, deep: bool) -> Binding {
        Binding {
            var: var.into(),
            cluster: cluster.into(),
            deep,
        }
    }

    #[test]
    fn statement_forms_parse() {
        let q = query("forall p in person");
        assert_eq!(q.bindings, vec![binding("p", "person", true)]);
        assert!(q.suchthat.is_none() && q.by.is_none());

        let q = query("for all p in only person suchthat (age > 21) by (name) desc");
        assert_eq!(q.bindings, vec![binding("p", "person", false)]);
        assert!(q.suchthat.is_some());
        assert!(matches!(q.by, Some((_, true))));

        let q = query("forall e in employee, d in department suchthat (e.deptno == d.dno)");
        assert_eq!(q.bindings.len(), 2);

        // A `by` key is handed to the executor as the parsed `Expr`, so a
        // quoted string in it needs no `Display` → `parse_expr` round trip.
        let q = query(r#"forall p in person by (name + ") by (x") desc"#);
        assert_eq!(
            q.by,
            Some((parse_expr(r#"name + ") by (x""#).unwrap(), true))
        );
    }

    #[test]
    fn every_statement_variant_parses() {
        use Statement::*;
        let parse = |src: &str| parse_statement(src).unwrap();
        assert!(matches!(
            parse("class a { int x = 0; } class b : public a { string y; }"),
            Class(builders) if builders.len() == 2
        ));
        assert!(matches!(parse("create cluster a"), CreateCluster { class } if class == "a"));
        // Whitespace between the two keywords is free-form.
        assert!(matches!(parse("create   cluster a"), CreateCluster { class } if class == "a"));
        assert!(matches!(parse("destroy cluster a"), DestroyCluster { class } if class == "a"));
        // Both `create index` spellings are one statement.
        for src in ["create index item qty", "create index item.qty"] {
            assert!(
                matches!(parse(src), CreateIndex { class, field } if class == "item" && field == "qty"),
                "{src}"
            );
        }
        match parse(r#"activate low on 2:1.0 (30, "a,b")"#) {
            Activate { trigger, oid, args } => {
                assert_eq!(trigger, "low");
                assert_eq!(oid.to_string(), "2:1.0");
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(parse("activate low on 2:1.0"), Activate { args, .. } if args.is_empty()));
        assert!(matches!(
            parse("deactivate trigger#7"),
            Deactivate { id: 7 }
        ));
        assert!(matches!(parse("deactivate 7"), Deactivate { id: 7 }));
        assert!(matches!(parse("forall p in person"), Forall(_)));
        assert!(matches!(
            parse("explain forall p in person suchthat (age > 1)"),
            Explain(q) if q.suchthat.is_some()
        ));
        assert!(matches!(parse("pnew person"), Pnew { inits, .. } if inits.is_empty()));
        assert!(matches!(parse("pnew person ()"), Pnew { inits, .. } if inits.is_empty()));
        assert!(matches!(
            parse(r#"pnew person (name = "a, (b", age = (1 + 2) * 3)"#),
            Pnew { class, inits } if class == "person" && inits.len() == 2
        ));
        match parse("update p in only person suchthat (age > 1) set age = age + 1, name = \"x\"") {
            Update { target, assigns } => {
                assert_eq!(target.bindings, vec![binding("p", "person", false)]);
                assert!(target.suchthat.is_some() && target.by.is_none());
                assert_eq!(assigns.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse("delete p in person suchthat (age > 1)"),
            Delete(q) if q.suchthat.is_some()
        ));
    }

    #[test]
    fn parse_errors() {
        for src in [
            "select * from person",
            "forall in person",
            "forall p person",
            "forall p in person suchthat age > 1",
            "forall p in person suchthat (age > 1",
            "forall p in person trailing junk",
            "forall p in a, p in b", // duplicate loop variable
            "explain pnew person",
            "create table person",
            "create index a b c",
            "create cluster",
            "activate low 2:1.0",
            "activate low on nowhere",
            "deactivate soon",
            "pnew person (name)",
            "update p in person",
            "update p in person set",
            "delete p in person by (age)",
        ] {
            assert!(
                matches!(parse_statement(src), Err(ModelError::Parse { .. })),
                "{src}"
            );
        }
    }

    #[test]
    fn nested_parens_and_strings_in_clauses() {
        let q = query(r#"forall p in person suchthat ((age + 1) * 2 > 4 && name != "a)b")"#);
        assert!(q.suchthat.is_some());
    }
}
