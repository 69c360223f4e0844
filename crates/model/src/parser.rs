//! Recursive-descent parser for the expression language.
//!
//! The surface syntax follows C++ (the host language of O++) closely enough
//! that the paper's predicates parse verbatim: `quantity <= reorder_level`,
//! `sex == 'f' || sex == 'F'`, `e->deptno == d.dno` (`->` and `.` are
//! interchangeable, as both appear in the paper's examples), `p is student`,
//! `$threshold` for trigger activation arguments, and `x in children` for
//! set membership.
//!
//! Grammar (precedence climbing, loosest first):
//!
//! ```text
//! expr     := ternary
//! ternary  := or ('?' expr ':' expr)?
//! or       := and    ('||' and)*
//! and      := rel    ('&&' rel)*
//! rel      := sum    (('=='|'!='|'<'|'<='|'>'|'>=') sum
//!                     | 'is' IDENT | 'in' sum)?
//! sum      := term   (('+'|'-') term)*
//! term     := unary  (('*'|'/'|'%') unary)*
//! unary    := ('-'|'!') unary | postfix
//! postfix  := primary (('.'|'->') IDENT args? | '[' expr ']')*
//! primary  := NUMBER | STRING | CHAR | 'true' | 'false' | 'null'
//!           | '$' IDENT | IDENT args? | '(' expr ')'
//! args     := '(' (expr (',' expr)*)? ')'
//! ```

use crate::error::{ModelError, Result};
use crate::expr::{BinOp, Expr, UnOp};
use crate::value::Value;

/// Parse `src` into an expression tree.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        at: 0,
        src_len: src.len(),
    };
    let e = p.expr()?;
    match p.peek() {
        Token::Eof => Ok(e),
        t => Err(p.error(format!("unexpected {t} after expression"))),
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    Dollar,
    LParen,
    RParen,
    Comma,
    Dot, // also covers `->`
    Question,
    Colon,
    LBracket,
    RBracket,
    Op(&'static str),
    Eof,
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Int(i) => write!(f, "`{i}`"),
            Token::Float(x) => write!(f, "`{x}`"),
            Token::Str(s) => write!(f, "string {s:?}"),
            Token::Ident(s) => write!(f, "`{s}`"),
            Token::Dollar => write!(f, "`$`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::Comma => write!(f, "`,`"),
            Token::Dot => write!(f, "`.`"),
            Token::Question => write!(f, "`?`"),
            Token::Colon => write!(f, "`:`"),
            Token::LBracket => write!(f, "`[`"),
            Token::RBracket => write!(f, "`]`"),
            Token::Op(s) => write!(f, "`{s}`"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// Lexed token plus its byte offset (for error positions).
type Spanned = (Token, usize);

fn lex(src: &str) -> Result<Vec<Spanned>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let err = |at: usize, message: String| ModelError::Parse { message, at };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push((Token::LParen, i));
                i += 1;
            }
            ')' => {
                out.push((Token::RParen, i));
                i += 1;
            }
            ',' => {
                out.push((Token::Comma, i));
                i += 1;
            }
            '$' => {
                out.push((Token::Dollar, i));
                i += 1;
            }
            '?' => {
                out.push((Token::Question, i));
                i += 1;
            }
            ':' => {
                out.push((Token::Colon, i));
                i += 1;
            }
            '[' => {
                out.push((Token::LBracket, i));
                i += 1;
            }
            ']' => {
                out.push((Token::RBracket, i));
                i += 1;
            }
            '.' if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() => {
                // `.5` style float
                let (tok, next) = lex_number(src, i)?;
                out.push((tok, i));
                i = next;
            }
            '.' => {
                out.push((Token::Dot, i));
                i += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => {
                out.push((Token::Dot, i));
                i += 2;
            }
            '"' | '\'' => {
                let quote = c;
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(err(start, "unterminated string literal".into()));
                    }
                    // Read whole characters: literals may contain multibyte
                    // text.
                    let ch = src[i..].chars().next().expect("i is a char boundary");
                    if ch == quote {
                        i += 1;
                        break;
                    }
                    if ch == '\\' {
                        i += 1;
                        if i >= bytes.len() {
                            return Err(err(start, "unterminated escape".into()));
                        }
                        let esc = src[i..].chars().next().expect("i is a char boundary");
                        s.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            '\\' => '\\',
                            '\'' => '\'',
                            '"' => '"',
                            other => return Err(err(i, format!("unknown escape `\\{other}`"))),
                        });
                        i += esc.len_utf8();
                    } else {
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                out.push((Token::Str(s), start));
            }
            '0'..='9' => {
                let (tok, next) = lex_number(src, i)?;
                out.push((tok, i));
                i = next;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push((Token::Ident(src[start..i].to_string()), start));
            }
            _ => {
                // Multi-char operators first (byte-wise: the source may
                // contain multibyte characters and must never be sliced on
                // a non-boundary).
                let next = bytes.get(i + 1).copied();
                let op2 = match (bytes[i], next) {
                    (b'=', Some(b'=')) => Some("=="),
                    (b'!', Some(b'=')) => Some("!="),
                    (b'<', Some(b'=')) => Some("<="),
                    (b'>', Some(b'=')) => Some(">="),
                    (b'&', Some(b'&')) => Some("&&"),
                    (b'|', Some(b'|')) => Some("||"),
                    _ => None,
                };
                if let Some(op) = op2 {
                    out.push((Token::Op(op), i));
                    i += 2;
                    continue;
                }
                let op1 = match c {
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    '%' => "%",
                    '<' => "<",
                    '>' => ">",
                    '!' => "!",
                    _ => {
                        // Report the full (possibly multibyte) character.
                        let full = src[i..].chars().next().unwrap_or('?');
                        return Err(err(i, format!("unexpected character `{full}`")));
                    }
                };
                out.push((Token::Op(op1), i));
                i += 1;
            }
        }
    }
    out.push((Token::Eof, src.len()));
    Ok(out)
}

fn lex_number(src: &str, start: usize) -> Result<(Token, usize)> {
    let bytes = src.as_bytes();
    let mut i = start;
    let mut saw_dot = false;
    let mut saw_exp = false;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => i += 1,
            b'.' if !saw_dot && !saw_exp => {
                // A dot followed by an identifier is member access on an int
                // (not valid anyway); followed by a digit, it's a float.
                if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    saw_dot = true;
                    i += 1;
                } else {
                    break;
                }
            }
            b'e' | b'E' if !saw_exp && i > start => {
                let next = bytes.get(i + 1).copied();
                let next2 = bytes.get(i + 2).copied();
                let exp_ok = matches!(next, Some(b'0'..=b'9'))
                    || (matches!(next, Some(b'+') | Some(b'-'))
                        && matches!(next2, Some(b'0'..=b'9')));
                if exp_ok {
                    saw_exp = true;
                    i += if matches!(next, Some(b'+') | Some(b'-')) {
                        2
                    } else {
                        1
                    };
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    let text = &src[start..i];
    let tok = if saw_dot || saw_exp {
        Token::Float(text.parse().map_err(|_| ModelError::Parse {
            message: format!("bad float literal `{text}`"),
            at: start,
        })?)
    } else {
        Token::Int(text.parse().map_err(|_| ModelError::Parse {
            message: format!("bad int literal `{text}`"),
            at: start,
        })?)
    };
    Ok((tok, i))
}

struct Parser {
    tokens: Vec<Spanned>,
    at: usize,
    src_len: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at].0
    }

    fn pos(&self) -> usize {
        self.tokens
            .get(self.at)
            .map(|(_, p)| *p)
            .unwrap_or(self.src_len)
    }

    /// Consume the current token. The parser never looks back, so a
    /// consumed token is moved out rather than copied; the last one (the
    /// end of input) stays for `peek`.
    fn bump(&mut self) -> Token {
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
            std::mem::replace(&mut self.tokens[self.at - 1].0, Token::Eof)
        } else {
            self.tokens[self.at].0.clone()
        }
    }

    fn error(&self, message: String) -> ModelError {
        ModelError::Parse {
            message,
            at: self.pos(),
        }
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Token::Op(o) if *o == op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token, what: &str) -> Result<()> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {}", self.peek())))
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        let cond = self.or()?;
        if *self.peek() == Token::Question {
            self.bump();
            let then = self.expr()?;
            self.expect(&Token::Colon, "`:`")?;
            let otherwise = self.expr()?;
            return Ok(Expr::Cond(
                Box::new(cond),
                Box::new(then),
                Box::new(otherwise),
            ));
        }
        Ok(cond)
    }

    fn or(&mut self) -> Result<Expr> {
        let mut lhs = self.and()?;
        while self.eat_op("||") {
            let rhs = self.and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr> {
        let mut lhs = self.rel()?;
        while self.eat_op("&&") {
            let rhs = self.rel()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn rel(&mut self) -> Result<Expr> {
        let lhs = self.sum()?;
        // `is` / `in` keywords.
        if let Token::Ident(kw) = self.peek() {
            if kw == "is" {
                self.bump();
                let class = match self.bump() {
                    Token::Ident(name) => name,
                    other => {
                        return Err(
                            self.error(format!("expected class name after `is`, found {other}"))
                        )
                    }
                };
                return Ok(Expr::Is(Box::new(lhs), class));
            }
            if kw == "in" {
                self.bump();
                let rhs = self.sum()?;
                return Ok(Expr::bin(BinOp::In, lhs, rhs));
            }
        }
        for (sym, op) in [
            ("==", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat_op(sym) {
                let rhs = self.sum()?;
                return Ok(Expr::bin(op, lhs, rhs));
            }
        }
        Ok(lhs)
    }

    fn sum(&mut self) -> Result<Expr> {
        let mut lhs = self.term()?;
        loop {
            if self.eat_op("+") {
                lhs = Expr::bin(BinOp::Add, lhs, self.term()?);
            } else if self.eat_op("-") {
                lhs = Expr::bin(BinOp::Sub, lhs, self.term()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn term(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            if self.eat_op("*") {
                lhs = Expr::bin(BinOp::Mul, lhs, self.unary()?);
            } else if self.eat_op("/") {
                lhs = Expr::bin(BinOp::Div, lhs, self.unary()?);
            } else if self.eat_op("%") {
                lhs = Expr::bin(BinOp::Mod, lhs, self.unary()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_op("-") {
            return Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?)));
        }
        if self.eat_op("!") {
            return Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        loop {
            if *self.peek() == Token::Dot {
                self.bump();
                let name = match self.bump() {
                    Token::Ident(n) => n,
                    other => {
                        return Err(
                            self.error(format!("expected member name after `.`, found {other}"))
                        )
                    }
                };
                if *self.peek() == Token::LParen {
                    let args = self.args()?;
                    e = Expr::Call {
                        recv: Some(Box::new(e)),
                        name,
                        args,
                    };
                } else {
                    e = Expr::Path(Box::new(e), name);
                }
            } else if *self.peek() == Token::LBracket {
                self.bump();
                let ix = self.expr()?;
                self.expect(&Token::RBracket, "`]`")?;
                e = Expr::Index(Box::new(e), Box::new(ix));
            } else {
                return Ok(e);
            }
        }
    }

    fn args(&mut self) -> Result<Vec<Expr>> {
        self.expect(&Token::LParen, "`(`")?;
        let mut args = Vec::new();
        if *self.peek() == Token::RParen {
            self.bump();
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            match self.bump() {
                Token::Comma => continue,
                Token::RParen => return Ok(args),
                other => return Err(self.error(format!("expected `,` or `)`, found {other}"))),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(i) => Ok(Expr::Lit(Value::Int(i))),
            Token::Float(x) => Ok(Expr::Lit(Value::Float(x))),
            Token::Str(s) => Ok(Expr::Lit(Value::Str(s))),
            Token::Dollar => match self.bump() {
                Token::Ident(n) => Ok(Expr::Param(n)),
                other => {
                    Err(self.error(format!("expected parameter name after `$`, found {other}")))
                }
            },
            Token::Ident(name) => match name.as_str() {
                "true" => Ok(Expr::Lit(Value::Bool(true))),
                "false" => Ok(Expr::Lit(Value::Bool(false))),
                "null" => Ok(Expr::Lit(Value::Null)),
                _ => {
                    if *self.peek() == Token::LParen {
                        let args = self.args()?;
                        Ok(Expr::Call {
                            recv: None,
                            name,
                            args,
                        })
                    } else {
                        Ok(Expr::Ident(name))
                    }
                }
            },
            Token::LParen => {
                let e = self.expr()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            other => Err(self.error(format!("expected an expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Expr {
        parse_expr(src).unwrap_or_else(|e| panic!("parse {src:?}: {e}"))
    }

    #[test]
    fn paper_examples_parse() {
        // §5: constraint-based specialization of class female.
        p("sex == 'f' || sex == 'F'");
        // §6: reorder trigger condition.
        p("quantity <= reorder_level");
        // §3.1: join predicate over two loop variables (both arrows work).
        assert_eq!(p("e->deptno == d.dno"), p("e.deptno == d.dno"));
        // §3.1.1: hierarchy type test.
        p("p is student");
    }

    #[test]
    fn precedence() {
        assert_eq!(p("1 + 2 * 3").to_string(), "(1 + (2 * 3))");
        assert_eq!(p("a || b && c").to_string(), "(a || (b && c))");
        assert_eq!(
            p("1 + 2 < 4 && true").to_string(),
            "(((1 + 2) < 4) && true)"
        );
        assert_eq!(p("-2 + 3").to_string(), "(-(2) + 3)");
        assert_eq!(p("!a && b").to_string(), "(!(a) && b)");
    }

    #[test]
    fn literals() {
        assert_eq!(p("42"), Expr::Lit(Value::Int(42)));
        assert_eq!(p("4.25"), Expr::Lit(Value::Float(4.25)));
        assert_eq!(p("1e3"), Expr::Lit(Value::Float(1000.0)));
        assert_eq!(p("2.5e-1"), Expr::Lit(Value::Float(0.25)));
        assert_eq!(p("'f'"), Expr::Lit(Value::Str("f".into())));
        assert_eq!(p(r#""at&t""#), Expr::Lit(Value::Str("at&t".into())));
        assert_eq!(p("true"), Expr::Lit(Value::Bool(true)));
        assert_eq!(p("null"), Expr::Lit(Value::Null));
        assert_eq!(
            p(r#""line\nbreak""#),
            Expr::Lit(Value::Str("line\nbreak".into()))
        );
    }

    #[test]
    fn params_and_membership() {
        assert_eq!(
            p("quantity < $threshold"),
            Expr::bin(
                BinOp::Lt,
                Expr::ident("quantity"),
                Expr::Param("threshold".into())
            )
        );
        assert_eq!(
            p("x in children"),
            Expr::bin(BinOp::In, Expr::ident("x"), Expr::ident("children"))
        );
    }

    #[test]
    fn method_calls() {
        assert_eq!(
            p("income()"),
            Expr::Call {
                recv: None,
                name: "income".into(),
                args: vec![]
            }
        );
        assert_eq!(
            p("p.income(2, 'y')"),
            Expr::Call {
                recv: Some(Box::new(Expr::ident("p"))),
                name: "income".into(),
                args: vec![Expr::lit(2), Expr::lit("y")]
            }
        );
        // Chained access after a call result is still a path.
        p("dept().budget > 100");
    }

    #[test]
    fn deep_paths() {
        assert_eq!(
            p("a.b.c"),
            Expr::Path(
                Box::new(Expr::Path(Box::new(Expr::ident("a")), "b".into())),
                "c".into()
            )
        );
        assert_eq!(p("a->b->c"), p("a.b.c"));
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_expr("a ++ b").unwrap_err();
        match e {
            ModelError::Parse { at, .. } => assert!(at >= 3, "at={at}"),
            other => panic!("wrong error {other}"),
        }
        assert!(parse_expr("(a").is_err());
        assert!(parse_expr("a b").is_err());
        assert!(parse_expr("'unterminated").is_err());
        assert!(parse_expr("").is_err());
        assert!(parse_expr("x is 3").is_err());
        assert!(parse_expr("$3").is_err());
        assert!(parse_expr("f(a,,b)").is_err());
        assert!(parse_expr("a @ b").is_err());
    }

    #[test]
    fn leading_dot_float() {
        assert_eq!(p(".5"), Expr::Lit(Value::Float(0.5)));
    }
}
