//! The binder: an expression resolved once against a schema and a scope.
//!
//! O++ compiles a `suchthat` to C++ (§3.1), so its predicate reads member
//! offsets. [`bind`] gives this reproduction the same shape: every name in
//! an [`Expr`] is resolved once, before any object is seen, and
//! [`crate::eval`] runs only the resulting [`BoundExpr`]. Binding
//! resolves
//!
//! * a loop variable to its index in the scope (the innermost binding of a
//!   name wins, and every binding shadows a field of `this`),
//! * a field to a slot table indexed by [`ClassId`] over every class in
//!   the schema — C3 layouts differ between subclasses, so the slot is
//!   picked by the dynamic class of the object read,
//! * `$param` to its position in the activation's arguments,
//! * `is C` to the set of classes that are `C` or derive from it.
//!
//! Which names are in scope at all is decided here too: every site takes
//! its [`Scope`] from one of its constructors.
//!
//! A name or class that resolves to nothing binds to a node that raises
//! the error evaluation has always raised for it, and only when it is
//! evaluated, so `false && ghost` is still `false`.
//!
//! A bound expression also reports the slots it reads of the object a scan
//! holds ([`BoundExpr::read_slots`]), as a [`SlotMask`]; the codec decodes
//! only those slots ([`crate::encode::decode_object_into`]).

use std::borrow::Cow;
use std::sync::Arc;

use crate::class::ClassId;
use crate::error::ModelError;
use crate::expr::{BinOp, Expr, UnOp};
use crate::schema::{Schema, NO_SLOT};
use crate::value::Value;

/// The names an expression may mention besides the members of classes.
/// Every site that binds an expression takes its scope from one of the
/// constructors, so the rule for which names are in scope lives here.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'s> {
    /// Loop variables, outermost first. At run time the frame binds the
    /// variable at index `i` to the `i`th object of its `vars`.
    pub(crate) vars: &'s [&'s str],
    /// Does the frame hold a current object (`this`) whose fields bare
    /// identifiers name?
    pub(crate) this: bool,
    /// Trigger parameter names, in the order of the activation's
    /// arguments.
    pub(crate) params: &'s [&'s str],
}

impl<'s> Scope<'s> {
    /// The scope of a statement over loop variables `vars`: a query's
    /// `suchthat` and `by`, and an update's assignments. `this` is in
    /// scope iff the statement binds at most one variable: a
    /// single-variable statement runs with the object in hand as `this`,
    /// a join with none.
    pub fn query(vars: &'s [&'s str]) -> Scope<'s> {
        Scope {
            vars,
            this: vars.len() <= 1,
            params: &[],
        }
    }

    /// The scope of an expression over one object: a constraint, a
    /// subscription predicate, or a trigger's condition and actions, which
    /// also see the trigger's `params`.
    pub fn object(params: &'s [&'s str]) -> Scope<'s> {
        Scope {
            vars: &[],
            this: true,
            params,
        }
    }

    /// The scope with no names: `pnew` initializers and `activate`
    /// arguments.
    pub const FREE: Scope<'static> = Scope {
        vars: &[],
        this: false,
        params: &[],
    };

    /// Is there a current object whose fields bare identifiers name?
    pub fn has_this(&self) -> bool {
        self.this
    }
}

/// An expression with every name resolved. Build with [`bind`]; run with
/// [`BoundExpr::eval`]; read with [`BoundExpr::root`].
#[derive(Debug, Clone)]
pub struct BoundExpr {
    pub(crate) root: Node,
}

/// One node of a bound expression. The tree is public to read (the
/// analyzer types it); only [`bind`] builds a [`BoundExpr`].
#[derive(Debug, Clone)]
pub enum Node {
    Lit(Value),
    /// A loop variable: a reference to the object it is bound to.
    Var(usize),
    /// A bare identifier naming a field of `this`.
    ThisField(Field),
    /// `v.f` on a loop variable: read in the object in hand.
    VarField(usize, Field),
    /// `e.f` on any other object expression, dereferenced.
    Path(Box<Node>, Field),
    /// `$name`: the argument at this position.
    Param(usize, String),
    Unary(UnOp, Box<Node>),
    Binary(BinOp, Box<Node>, Box<Node>),
    Call {
        recv: Recv,
        name: String,
        args: Vec<Node>,
    },
    Cond(Box<Node>, Box<Node>, Box<Node>),
    Index(Box<Node>, Box<Node>),
    /// `v is C` on a loop variable: the class of the object in hand.
    VarIs(usize, Classes),
    /// `e is C` on any other expression.
    Is(Box<Node>, Classes),
    /// A name that resolves to nothing (`$p` for a parameter): evaluating
    /// it raises [`ModelError::UnknownVar`] of the name.
    Fail(String),
}

/// The receiver of a method call.
#[derive(Debug, Clone)]
pub enum Recv {
    /// No receiver written: the current object.
    This,
    /// A loop variable.
    Var(usize),
    /// Any other object expression.
    Expr(Box<Node>),
}

/// A member name resolved to its slot in every class's layout. The
/// schema keeps the table of every member its classes have, so binding
/// one shares it.
#[derive(Debug, Clone)]
pub struct Field {
    pub(crate) name: Arc<str>,
    /// Indexed by class id; [`NO_SLOT`] where the class lacks the member.
    slots: Arc<[u32]>,
}

impl Field {
    fn new(schema: &Schema, name: &str) -> Field {
        match schema.member(name) {
            Some((name, slots)) => Field {
                name: Arc::clone(name),
                slots: Arc::clone(slots),
            },
            None => Field {
                name: Arc::from(name),
                slots: schema.slots_of(name),
            },
        }
    }

    /// The member's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The member's slot in `class`; `None` if `class` has no such member
    /// or is not in the schema.
    #[inline]
    pub fn slot(&self, class: ClassId) -> Option<usize> {
        match self.slots.get(class.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Is `class` in the schema the slots were resolved against? If not,
    /// the error naming it.
    pub(crate) fn check_class(&self, class: ClassId) -> Result<(), ModelError> {
        match self.slots.get(class.0 as usize) {
            Some(_) => Ok(()),
            None => Err(ModelError::UnknownClass(format!("{class}"))),
        }
    }
}

/// The right side of `is C`.
#[derive(Debug, Clone)]
pub enum Classes {
    /// `C` names a class.
    Known {
        /// `C`.
        class: ClassId,
        /// Is the class at this index `C` or derived from it?
        set: Box<[bool]>,
    },
    /// `C` names no class.
    Unknown(String),
}

impl Classes {
    fn new(schema: &Schema, name: &str) -> Classes {
        match schema.id_of(name) {
            Ok(class) => Classes::Known {
                class,
                set: (0..schema.len())
                    .map(|c| schema.is_subclass(ClassId(c as u32), class))
                    .collect(),
            },
            Err(_) => Classes::Unknown(name.to_string()),
        }
    }

    /// The set, indexed by class id. An unknown `C` is an error whatever
    /// the operand.
    pub(crate) fn set(&self) -> Result<&[bool], ModelError> {
        match self {
            Classes::Known { set, .. } => Ok(set),
            Classes::Unknown(name) => Err(ModelError::UnknownClass(name.clone())),
        }
    }

    /// Is `class` in the set?
    pub(crate) fn contains(&self, class: ClassId) -> Result<bool, ModelError> {
        Ok(self.set()?.get(class.0 as usize).copied().unwrap_or(false))
    }
}

/// Resolve every name in `expr` against `schema` and `scope`.
pub fn bind(schema: &Schema, scope: &Scope<'_>, expr: &Expr) -> BoundExpr {
    BoundExpr {
        root: Binder { schema, scope }.node(expr),
    }
}

struct Binder<'b> {
    schema: &'b Schema,
    scope: &'b Scope<'b>,
}

impl Binder<'_> {
    /// The innermost loop variable named `name`.
    fn var(&self, name: &str) -> Option<usize> {
        self.scope.vars.iter().rposition(|v| *v == name)
    }

    /// The loop variable `expr` names, if it is one.
    fn var_of(&self, expr: &Expr) -> Option<usize> {
        match expr {
            Expr::Ident(name) => self.var(name),
            _ => None,
        }
    }

    fn boxed(&self, e: &Expr) -> Box<Node> {
        Box::new(self.node(e))
    }

    fn node(&self, expr: &Expr) -> Node {
        match expr {
            Expr::Lit(v) => Node::Lit(v.clone()),
            Expr::Ident(name) => match self.var(name) {
                Some(i) => Node::Var(i),
                None if self.scope.this => Node::ThisField(Field::new(self.schema, name)),
                None => Node::Fail(name.clone()),
            },
            // A later parameter of the same name wins, as it did when the
            // arguments were collected into a map.
            Expr::Param(name) => match self.scope.params.iter().rposition(|p| p == name) {
                Some(i) => Node::Param(i, name.clone()),
                None => Node::Fail(format!("${name}")),
            },
            Expr::Path(base, field) => {
                let field = Field::new(self.schema, field);
                match self.var_of(base) {
                    Some(i) => Node::VarField(i, field),
                    None => Node::Path(self.boxed(base), field),
                }
            }
            Expr::Unary(op, e) => Node::Unary(*op, self.boxed(e)),
            Expr::Binary(op, l, r) => Node::Binary(*op, self.boxed(l), self.boxed(r)),
            Expr::Call { recv, name, args } => Node::Call {
                recv: match recv {
                    None => Recv::This,
                    Some(r) => match self.var_of(r) {
                        Some(i) => Recv::Var(i),
                        None => Recv::Expr(self.boxed(r)),
                    },
                },
                name: name.clone(),
                args: args.iter().map(|a| self.node(a)).collect(),
            },
            Expr::Cond(c, a, b) => Node::Cond(self.boxed(c), self.boxed(a), self.boxed(b)),
            Expr::Index(base, ix) => Node::Index(self.boxed(base), self.boxed(ix)),
            Expr::Is(e, class) => {
                let classes = Classes::new(self.schema, class);
                match self.var_of(e) {
                    Some(i) => Node::VarIs(i, classes),
                    None => Node::Is(self.boxed(e), classes),
                }
            }
        }
    }
}

impl BoundExpr {
    /// The root of the bound tree.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Add to `mask` the slots this expression reads of one object: the
    /// frame's `this` when `this` is set, and loop variable `var` when
    /// given (a single-variable query binds both to the scanned object). A
    /// method called on that object reads all of it.
    pub fn read_slots(&self, this: bool, var: Option<usize>, mask: &mut SlotMask) {
        let subject = |i: &usize| var == Some(*i);
        self.walk(|node| match node {
            Node::ThisField(f) if this => mask.insert_field(f),
            Node::VarField(i, f) if subject(i) => mask.insert_field(f),
            Node::Call {
                recv: Recv::This, ..
            } if this => mask.set_all(),
            Node::Call {
                recv: Recv::Var(i), ..
            } if subject(i) => mask.set_all(),
            _ => {}
        });
    }

    /// The lowest and highest loop variable this expression reads of the
    /// objects in hand (`v`, `v.f`, `v is C`, `v.m()`); `None` if it reads
    /// none. A join evaluates a conjunct at the level of its highest.
    pub fn var_span(&self) -> Option<(usize, usize)> {
        let mut span: Option<(usize, usize)> = None;
        self.walk(|node| {
            let i = match node {
                Node::Var(i) | Node::VarField(i, _) | Node::VarIs(i, _) => *i,
                Node::Call {
                    recv: Recv::Var(i), ..
                } => *i,
                _ => return,
            };
            span = Some(span.map_or((i, i), |(lo, hi)| (lo.min(i), hi.max(i))));
        });
        span
    }

    /// Can this expression, tested as a predicate, never raise? `classes[i]`
    /// lists the classes loop variable `i` may be bound to. Total are `==`
    /// and `!=` (equality is defined for all values) over literals, loop
    /// variables and members every one of a variable's classes has; `v is
    /// C` for a known `C`; `true` and `false`; and `!`, `&&` and `||` over
    /// those. Ordered comparisons are not: `null` cannot be ordered.
    pub fn is_total(&self, classes: &[Vec<ClassId>]) -> bool {
        total_test(&self.root, classes)
    }

    /// The equality that lets a scan skip every object but those equal to
    /// a constant on one field: the first top-level `&&` conjunct of the
    /// form `member == literal` (either way round, a literal being a
    /// constant or a negated number) with only total conjuncts (see
    /// [`BoundExpr::is_total`]) to its left. An object whose member does
    /// not equal the literal fails the predicate without raising. A member
    /// is a field of `this` or of loop variable `var`; `classes` is as for
    /// `is_total`. Returns the member's name and the literal.
    pub fn point_key(
        &self,
        var: Option<usize>,
        classes: &[Vec<ClassId>],
    ) -> Option<(&str, Cow<'_, Value>)> {
        let mut blocked = false;
        point_key(&self.root, var, classes, &mut blocked)
    }

    /// Visit every node, parents before children.
    fn walk<'n>(&'n self, mut visit: impl FnMut(&'n Node)) {
        fn go<'n>(node: &'n Node, visit: &mut impl FnMut(&'n Node)) {
            visit(node);
            match node {
                Node::Lit(_)
                | Node::Var(_)
                | Node::ThisField(_)
                | Node::VarField(..)
                | Node::Param(..)
                | Node::VarIs(..)
                | Node::Fail(_) => {}
                Node::Path(e, _) | Node::Unary(_, e) | Node::Is(e, _) => go(e, visit),
                Node::Binary(_, l, r) | Node::Index(l, r) => {
                    go(l, visit);
                    go(r, visit);
                }
                Node::Cond(c, a, b) => {
                    go(c, visit);
                    go(a, visit);
                    go(b, visit);
                }
                Node::Call { recv, args, .. } => {
                    if let Recv::Expr(e) = recv {
                        go(e, visit);
                    }
                    for arg in args {
                        go(arg, visit);
                    }
                }
            }
        }
        go(&self.root, &mut visit);
    }
}

/// [`BoundExpr::is_total`] for a node tested as a boolean.
fn total_test(node: &Node, classes: &[Vec<ClassId>]) -> bool {
    match node {
        Node::Lit(Value::Bool(_)) | Node::VarIs(_, Classes::Known { .. }) => true,
        Node::Binary(BinOp::Eq | BinOp::Ne, l, r) => {
            total_operand(l, classes) && total_operand(r, classes)
        }
        Node::Binary(BinOp::And | BinOp::Or, l, r) => {
            total_test(l, classes) && total_test(r, classes)
        }
        Node::Unary(UnOp::Not, e) => total_test(e, classes),
        _ => false,
    }
}

/// [`BoundExpr::point_key`] over the `&&` chain rooted at `node`, left to
/// right; `blocked` is set once a conjunct that may raise has been passed.
fn point_key<'n>(
    node: &'n Node,
    var: Option<usize>,
    classes: &[Vec<ClassId>],
    blocked: &mut bool,
) -> Option<(&'n str, Cow<'n, Value>)> {
    if let Node::Binary(BinOp::And, l, r) = node {
        return point_key(l, var, classes, blocked).or_else(|| point_key(r, var, classes, blocked));
    }
    if *blocked {
        return None;
    }
    let member = |n: &'n Node| match n {
        Node::ThisField(f) => Some(&*f.name),
        Node::VarField(i, f) if var == Some(*i) => Some(&*f.name),
        _ => None,
    };
    let literal = |n: &'n Node| match n {
        Node::Lit(v) => Some(Cow::Borrowed(v)),
        Node::Unary(UnOp::Neg, e) => match &**e {
            Node::Lit(Value::Int(i)) => i.checked_neg().map(|i| Cow::Owned(Value::Int(i))),
            Node::Lit(Value::Float(x)) => Some(Cow::Owned(Value::Float(-x))),
            _ => None,
        },
        _ => None,
    };
    if let Node::Binary(BinOp::Eq, l, r) = node {
        let key = [(l, r), (r, l)]
            .into_iter()
            .find_map(|(m, c)| Some((member(m)?, literal(c)?)));
        if key.is_some() {
            return key;
        }
    }
    *blocked = !total_test(node, classes);
    None
}

/// Does this comparison operand evaluate without raising?
fn total_operand(node: &Node, classes: &[Vec<ClassId>]) -> bool {
    match node {
        Node::Lit(_) | Node::Var(_) => true,
        Node::VarField(i, f) => classes
            .get(*i)
            .is_some_and(|cs| cs.iter().all(|&c| f.slot(c).is_some())),
        _ => false,
    }
}

/// Which slots of an object a reader needs, per class. Decoding through a
/// mask ([`crate::encode::decode_object_into`]) fills only these slots and
/// leaves every other one `Null`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotMask {
    /// Every slot of every class.
    all: bool,
    /// Indexed by class id, a bitset over the class's slots. Classes past
    /// the end, and slots past a class's words, are not read.
    classes: Vec<Vec<u64>>,
}

impl SlotMask {
    /// Every slot of every class: a full decode.
    pub const ALL: SlotMask = SlotMask {
        all: true,
        classes: Vec::new(),
    };

    /// Read every slot from now on.
    pub fn set_all(&mut self) {
        *self = SlotMask::ALL;
    }

    /// Read `slot` of objects of `class`.
    pub fn insert(&mut self, class: ClassId, slot: usize) {
        if self.all {
            return;
        }
        let c = class.0 as usize;
        if self.classes.len() <= c {
            self.classes.resize_with(c + 1, Vec::new);
        }
        let words = &mut self.classes[c];
        if words.len() <= slot / 64 {
            words.resize(slot / 64 + 1, 0);
        }
        words[slot / 64] |= 1 << (slot % 64);
    }

    /// Read the member `field` names in every class that has it.
    fn insert_field(&mut self, field: &Field) {
        for (c, &s) in field.slots.iter().enumerate() {
            if s != NO_SLOT {
                self.insert(ClassId(c as u32), s as usize);
            }
        }
    }

    /// The bitset of `class`'s slots read, `None` when every slot is.
    pub(crate) fn words(&self, class: ClassId) -> Option<&[u64]> {
        if self.all {
            return None;
        }
        Some(
            self.classes
                .get(class.0 as usize)
                .map_or(&[], Vec::as_slice),
        )
    }

    /// Is `slot` of objects of `class` read?
    pub fn reads(&self, class: ClassId, slot: usize) -> bool {
        self.words(class).is_none_or(|w| word_reads(w, slot))
    }
}

/// Is bit `slot` set in `words`?
#[inline]
pub(crate) fn word_reads(words: &[u64], slot: usize) -> bool {
    words
        .get(slot / 64)
        .is_some_and(|w| w >> (slot % 64) & 1 == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassBuilder;
    use crate::parser::parse_expr;
    use crate::value::Type;

    /// person { name, income }, student : person { stipend }, and a
    /// diamond whose layout puts `name` at a different slot.
    fn schema() -> Schema {
        let mut s = Schema::new();
        s.define(
            ClassBuilder::new("person")
                .field("name", Type::Str)
                .field("income", Type::Int),
        )
        .unwrap();
        s.define(
            ClassBuilder::new("student")
                .base("person")
                .field("stipend", Type::Int),
        )
        .unwrap();
        s.define(ClassBuilder::new("tagged").field("tag", Type::Str))
            .unwrap();
        s.define(
            ClassBuilder::new("tagged_person")
                .base("person")
                .base("tagged"),
        )
        .unwrap();
        s
    }

    fn mask_of(src: &str, vars: &[&str], this: bool, var: Option<usize>) -> SlotMask {
        let s = schema();
        let scope = Scope {
            vars,
            this,
            params: &[],
        };
        let mut mask = SlotMask::default();
        bind(&s, &scope, &parse_expr(src).unwrap()).read_slots(this, var, &mut mask);
        mask
    }

    #[test]
    fn a_field_reads_its_slot_in_every_class() {
        let m = mask_of("name == 'x'", &["p"], true, Some(0));
        let (person, tagged_person) = (ClassId(0), ClassId(3));
        assert!(m.reads(person, 0) && !m.reads(person, 1));
        // `tagged_person` lays out its last base's `tag` first.
        assert!(!m.reads(tagged_person, 0) && m.reads(tagged_person, 1));
        assert!(!m.reads(ClassId(2), 0), "`tagged` has no `name`");
        assert_eq!(m, mask_of("p.name == 'x'", &["p"], true, Some(0)));
    }

    #[test]
    fn class_tests_and_references_read_no_slot() {
        for src in ["p is student", "p == p", "q.income > 0", "$n > 1"] {
            assert_eq!(
                mask_of(src, &["p", "q"], true, Some(0)),
                SlotMask::default()
            );
        }
    }

    #[test]
    fn a_method_on_the_subject_reads_everything() {
        assert_eq!(mask_of("total() > 0", &["p"], true, Some(0)), SlotMask::ALL);
        assert_eq!(
            mask_of("p.total() > 0", &["p"], false, Some(0)),
            SlotMask::ALL
        );
        assert_ne!(
            mask_of("q.total() > 0", &["p", "q"], false, Some(0)),
            SlotMask::ALL
        );
    }

    #[test]
    fn shadowing_binds_the_innermost_variable() {
        // `p` at index 1 shadows index 0: only the scan of index 1 reads.
        assert!(mask_of("p.income > 0", &["p", "p"], false, Some(0)) == SlotMask::default());
        assert!(mask_of("p.income > 0", &["p", "p"], false, Some(1)).reads(ClassId(0), 1));
    }

    #[test]
    fn var_spans_and_totality() {
        let s = schema();
        let scope = Scope::query(&["p", "q"]);
        let bound = |src: &str| bind(&s, &scope, &parse_expr(src).unwrap());
        assert_eq!(bound("p.income == 1").var_span(), Some((0, 0)));
        assert_eq!(bound("p.name == q.name").var_span(), Some((0, 1)));
        assert_eq!(
            bound("q is student || q.total() > 0").var_span(),
            Some((1, 1))
        );
        assert_eq!(bound("1 == 1 && ghost > 2").var_span(), None);
        // Every person has `income`; only students have `stipend`.
        let people = vec![ClassId(0), ClassId(1), ClassId(3)];
        let both = [people.clone(), people];
        let total = |src: &str| bound(src).is_total(&both);
        assert!(total("p.income == q.income && !(p is student) || p != q"));
        assert!(total("p.name != null && true"));
        assert!(!total("p.stipend == 1"), "a person has no stipend");
        assert!(bound("p.stipend == 1").is_total(&[vec![ClassId(1)]]));
        assert!(!total("p.income > 1"), "null cannot be ordered");
        assert!(!total("p is ghost"));
        assert!(!total("p.income + 1 == 2"));
    }

    #[test]
    fn all_and_wide_layouts() {
        let mut m = mask_of("name == 'x' && income > 0", &[], true, None);
        assert!(m.reads(ClassId(0), 0) && m.reads(ClassId(0), 1));
        assert!(!m.reads(ClassId(1), 2));
        m.set_all();
        assert!(m.reads(ClassId(9), 99));
        let mut wide = SlotMask::default();
        wide.insert(ClassId(1), 130);
        assert!(wide.reads(ClassId(1), 130) && !wide.reads(ClassId(1), 66));
    }
}
