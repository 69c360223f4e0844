//! Property-based tests for the data-model layer: the value codec, the
//! total order on values, set algebra laws, the expression parser/printer
//! pair, and the bound evaluator against the name-resolving rules it
//! replaced.

use proptest::prelude::*;

use ode_model::encode::{
    decode_object, decode_object_into, decode_value, encode_object, encode_value,
};
use ode_model::{
    parse_expr, ClassBuilder, ClassId, ObjState, Oid, Schema, SetValue, SlotMask, Type, Value,
    VersionRef,
};
use ode_storage::RecordId;

fn leaf_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        ".*{0,24}".prop_map(Value::Str),
        (any::<u32>(), any::<u32>(), any::<u16>()).prop_map(|(c, p, s)| {
            Value::Ref(Oid {
                cluster: c,
                rid: RecordId { page: p, slot: s },
            })
        }),
        (any::<u32>(), any::<u32>(), any::<u16>(), any::<u32>()).prop_map(|(c, p, s, v)| {
            Value::VRef(VersionRef {
                oid: Oid {
                    cluster: c,
                    rid: RecordId { page: p, slot: s },
                },
                version: v,
            })
        }),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    leaf_value().prop_recursive(3, 32, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::vec(inner, 0..6)
                .prop_map(|items| Value::Set(SetValue::from_iter(items))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode/decode is the identity on all values.
    #[test]
    fn value_codec_roundtrip(v in value()) {
        let bytes = encode_value(&v);
        let back = decode_value(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// The order on values is total and antisymmetric; equal values hash
    /// equally.
    #[test]
    fn value_order_is_lawful(a in value(), b in value(), c in value()) {
        use std::cmp::Ordering;
        // Totality + antisymmetry.
        match a.cmp(&b) {
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => {
                prop_assert_eq!(b.cmp(&a), Ordering::Equal);
                use std::collections::hash_map::DefaultHasher;
                use std::hash::{Hash, Hasher};
                let h = |v: &Value| {
                    let mut s = DefaultHasher::new();
                    v.hash(&mut s);
                    s.finish()
                };
                prop_assert_eq!(h(&a), h(&b), "Eq ⇒ same hash");
            }
        }
        // Transitivity (on the ≤ relation).
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    /// Set insertion is idempotent and order-insensitive for equality.
    #[test]
    fn set_laws(items in prop::collection::vec(value(), 0..12)) {
        let s1 = SetValue::from_iter(items.clone());
        let mut rev = items.clone();
        rev.reverse();
        let s2 = SetValue::from_iter(rev);
        prop_assert_eq!(&s1, &s2, "set equality ignores insertion order");
        // Inserting an existing element changes nothing.
        let mut s3 = s1.clone();
        for v in items.iter() {
            prop_assert!(!s3.insert(v.clone()), "duplicate insert must report false");
        }
        prop_assert_eq!(&s3, &s1);
        // Union/intersection/difference respect cardinality.
        prop_assert_eq!(s1.union(&s2).len(), s1.len());
        prop_assert_eq!(s1.intersection(&s2).len(), s1.len());
        prop_assert_eq!(s1.difference(&s2).len(), 0);
    }

    /// Codec preserves set iteration (insertion) order, which the fixpoint
    /// cursor of §3.2 depends on.
    #[test]
    fn codec_preserves_set_order(items in prop::collection::vec(any::<i64>(), 0..20)) {
        let s = SetValue::from_iter(items.into_iter().map(Value::Int));
        let order: Vec<Value> = s.iter().cloned().collect();
        let v = Value::Set(s);
        let Value::Set(back) = decode_value(&encode_value(&v)).unwrap() else {
            return Err(TestCaseError::fail("wrong variant"));
        };
        let back_order: Vec<Value> = back.iter().cloned().collect();
        prop_assert_eq!(back_order, order);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Decoding into one reused state gives what a fresh decode gives,
    /// whatever the previous record left in it — other classes, arities
    /// and value kinds — and every truncated or corrupted record fails
    /// with the same error.
    #[test]
    fn codec_decode_into_matches_decode_object(
        records in prop::collection::vec(
            (
                0u32..4,
                prop::collection::vec(value(), 0..6),
                prop::collection::vec(0usize..4096, 3),
                prop::collection::vec((0usize..4096, any::<u8>()), 3),
            ),
            1..8,
        ),
    ) {
        let mut scratch = ObjState::new(ClassId(0), 0);
        let mut decode_into = |bytes: &[u8]| {
            decode_object_into(bytes, &mut scratch, &SlotMask::ALL)
                .map(|()| scratch.clone())
                .map_err(|e| e.to_string())
        };
        let decode = |bytes: &[u8]| decode_object(bytes).map_err(|e| e.to_string());
        for (class, fields, cuts, flips) in records {
            let obj = ObjState { class: ClassId(class), fields };
            let bytes = encode_object(&obj);
            prop_assert_eq!(decode_into(&bytes), Ok(obj));
            for cut in cuts {
                let short = &bytes[..cut % bytes.len()];
                prop_assert_eq!(decode_into(short), decode(short));
            }
            for (at, byte) in flips {
                let mut bad = bytes.clone();
                bad[at % bytes.len()] = byte;
                prop_assert_eq!(decode_into(&bad), decode(&bad));
            }
            let mut long = bytes.clone();
            long.push(0);
            prop_assert_eq!(decode_into(&long), decode(&long));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Decoding through a mask fills the slots it reads exactly as a full
    /// decode fills them and leaves every other slot `Null`, whatever the
    /// reused state held before; and a truncated record, or one with a
    /// byte overwritten (a bad tag, a bad UTF-8 byte in a string, a bad
    /// length), fails with the error a full decode fails with, whichever
    /// slots are read.
    #[test]
    fn codec_masked_decode_reads_only_masked_slots(
        records in prop::collection::vec(
            (
                0u32..4,
                prop::collection::vec(value(), 0..6),
                prop::collection::vec((0u32..5, 0usize..7), 0..8),
                prop::collection::vec(0usize..4096, 3),
                prop::collection::vec(
                    (0usize..4096, prop_oneof![Just(0xFFu8), Just(99u8), any::<u8>()]),
                    4,
                ),
            ),
            1..8,
        ),
    ) {
        let mut scratch = ObjState::new(ClassId(0), 0);
        for (class, fields, picks, cuts, flips) in records {
            let mut mask = SlotMask::default();
            for (c, slot) in picks {
                mask.insert(ClassId(c), slot);
            }
            let obj = ObjState { class: ClassId(class), fields };
            let bytes = encode_object(&obj);
            decode_object_into(&bytes, &mut scratch, &mask).unwrap();
            prop_assert_eq!(scratch.class, obj.class);
            prop_assert_eq!(scratch.fields.len(), obj.fields.len());
            for (i, (got, full)) in scratch.fields.iter().zip(&obj.fields).enumerate() {
                let want = if mask.reads(obj.class, i) { full } else { &Value::Null };
                prop_assert_eq!(got, want, "slot {}", i);
            }
            let mut masked = |b: &[u8]| {
                decode_object_into(b, &mut scratch, &mask).map_err(|e| e.to_string())
            };
            let full = |b: &[u8]| decode_object(b).map(drop).map_err(|e| e.to_string());
            for cut in cuts {
                let short = &bytes[..cut % bytes.len()];
                prop_assert_eq!(masked(short), full(short));
            }
            for (at, byte) in flips {
                let mut bad = bytes.clone();
                bad[at % bytes.len()] = byte;
                prop_assert_eq!(masked(&bad), full(&bad));
            }
        }
    }
}

// ------------------------------------------------------------ expressions

/// Source text generator for expressions over fields `a`–`d`, `r` and
/// `s`, loop variables `v` and `w`, parameter `$p`, classes `k0`–`k3`, and
/// names that resolve to nothing (`ghost`, `$q`, class `nosuch`).
fn expr_src() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        prop::sample::select(vec!["a", "b", "c", "d", "r", "s", "v", "w", "ghost"])
            .prop_map(str::to_string),
        prop::sample::select(vec!["$p", "$q", "null", "1.5", "true", "'x'"])
            .prop_map(str::to_string),
        (0i64..1000).prop_map(|n| n.to_string()),
        (
            prop::sample::select(vec!["v", "w", "r", "a", "null"]),
            prop::sample::select(vec!["a", "b", "d", "r", "s", "ghost"]),
        )
            .prop_map(|(base, field)| format!("{base}.{field}")),
        (
            prop::sample::select(vec!["v", "w", "r", "a"]),
            prop::sample::select(vec!["k0", "k1", "k2", "k3", "nosuch"]),
        )
            .prop_map(|(e, class)| format!("({e} is {class})")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (inner.clone(), inner).prop_flat_map(|(l, r)| {
            prop_oneof![
                Just(format!("({l} + {r})")),
                Just(format!("({l} - {r})")),
                Just(format!("({l} * {r})")),
                Just(format!("({l} == {r})")),
                Just(format!("({l} < {r})")),
                Just(format!("({l} && {r})")),
                Just(format!("({l} || {r})")),
                Just(format!("!({l})")),
                Just(format!("-({l})")),
            ]
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse ∘ print = identity on parsed expressions: printing an AST and
    /// re-parsing yields the same AST (printer/parser agreement).
    #[test]
    fn parse_print_roundtrip(src in expr_src()) {
        let e1 = parse_expr(&src).unwrap();
        let printed = e1.to_string();
        let e2 = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse of {printed:?}: {err}"));
        prop_assert_eq!(e1, e2);
    }

    /// The parser never panics on arbitrary input (total function).
    #[test]
    fn parser_is_total(src in ".{0,80}") {
        let _ = parse_expr(&src);
    }

    /// Expanding whitespace between tokens does not change parse results.
    #[test]
    fn whitespace_insensitive(src in expr_src()) {
        prop_assume!(!src.contains('\'') && !src.contains('"'));
        let spaced = format!("  \t{}\n ", src.replace(' ', " \t\n  "));
        prop_assert_eq!(parse_expr(&src).unwrap(), parse_expr(&spaced).unwrap());
    }

    /// String literals round-trip multibyte content through the parser.
    #[test]
    fn multibyte_string_literals(content in "\\PC{0,12}") {
        prop_assume!(!content.contains(['"', '\\']));
        let src = format!("\"{content}\"");
        let e = parse_expr(&src).unwrap();
        prop_assert_eq!(e, ode_model::Expr::Lit(Value::Str(content)));
    }
}

// ------------------------------------------------------- bound evaluator

/// The name-resolving evaluator the binder replaced, kept as the reference
/// the bound one must agree with: every identifier is looked up when it
/// is evaluated — loop variables by name (innermost first), then a field
/// of `this` by name, `$name` in a map, and `is C` by class name.
mod reference {
    use std::borrow::Cow;
    use std::collections::HashMap;

    use ode_model::{
        BinOp, BoundVar, Expr, ModelError, ObjState, Resolver, Result, Schema, UnOp, Value,
    };

    pub struct Ctx<'a> {
        pub schema: &'a Schema,
        pub this: Option<&'a ObjState>,
        pub vars: &'a [BoundVar<'a>],
        pub params: Option<&'a HashMap<String, Value>>,
        pub resolver: &'a dyn Resolver,
    }

    impl<'a> Ctx<'a> {
        pub fn eval(&self, expr: &Expr) -> Result<Value> {
            match expr {
                Expr::Lit(v) => Ok(v.clone()),
                Expr::Param(name) => self
                    .params
                    .and_then(|p| p.get(name))
                    .cloned()
                    .ok_or_else(|| ModelError::UnknownVar(format!("${name}"))),
                Expr::Ident(name) => Ok(self.ident(name)?.into_owned()),
                Expr::Path(base, field) => {
                    let obj = self.object(base)?;
                    Ok(self.field_ref(&obj, field)?.clone())
                }
                Expr::Unary(op, e) => {
                    let v = self.eval(e)?;
                    match (op, v) {
                        (UnOp::Neg, Value::Int(i)) => {
                            Ok(Value::Int(i.checked_neg().ok_or_else(|| {
                                ModelError::Eval("integer overflow in negation".into())
                            })?))
                        }
                        (UnOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
                        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                        (UnOp::Neg, other) => {
                            Err(ModelError::Type(format!("cannot negate {other}")))
                        }
                        (UnOp::Not, other) => Err(ModelError::Type(format!(
                            "`!` needs a boolean, got {other}"
                        ))),
                    }
                }
                Expr::Binary(op, l, r) => self.binary(*op, l, r),
                Expr::Call { recv, name, args } => {
                    let argv: Vec<Value> =
                        args.iter().map(|a| self.eval(a)).collect::<Result<_>>()?;
                    let obj = match recv {
                        Some(r) => self.object(r)?,
                        None => Cow::Borrowed(self.this.ok_or_else(|| {
                            ModelError::Eval(format!(
                                "method `{name}` called with no current object"
                            ))
                        })?),
                    };
                    let m = self.schema.lookup_method(obj.class, name)?;
                    m(&obj, &argv)
                }
                Expr::Cond(c, a, b) => {
                    if self.eval(c)?.as_bool()? {
                        self.eval(a)
                    } else {
                        self.eval(b)
                    }
                }
                Expr::Index(..) => unreachable!("not generated"),
                Expr::Is(e, class_name) => {
                    let target = self.schema.id_of(class_name)?;
                    if let Some(state) = self.bound_state(e) {
                        return Ok(Value::Bool(self.schema.is_subclass(state.class, target)));
                    }
                    let class = match self.eval(e)? {
                        Value::Ref(oid) => self.resolver.deref_obj(oid)?.class,
                        Value::VRef(vr) => self.resolver.deref_version(vr)?.class,
                        Value::Null => return Ok(Value::Bool(false)),
                        other => {
                            return Err(ModelError::Type(format!(
                                "`is` needs an object reference, got {other}"
                            )))
                        }
                    };
                    Ok(Value::Bool(self.schema.is_subclass(class, target)))
                }
            }
        }

        fn binding(&self, name: &str) -> Option<&'a BoundVar<'a>> {
            self.vars.iter().rev().find(|b| b.name == name)
        }

        fn bound_state(&self, expr: &Expr) -> Option<&'a ObjState> {
            match expr {
                Expr::Ident(name) => self.binding(name).map(|b| b.state),
                _ => None,
            }
        }

        fn ident(&self, name: &str) -> Result<Cow<'a, Value>> {
            if let Some(b) = self.binding(name) {
                return Ok(Cow::Owned(Value::Ref(b.oid)));
            }
            if let Some(this) = self.this {
                let def = self.schema.class(this.class)?;
                if let Ok(idx) = def.field_index(name) {
                    return Ok(Cow::Borrowed(&this.fields[idx]));
                }
            }
            Err(ModelError::UnknownVar(name.to_string()))
        }

        fn object(&self, expr: &Expr) -> Result<Cow<'a, ObjState>> {
            if let Some(state) = self.bound_state(expr) {
                return Ok(Cow::Borrowed(state));
            }
            match self.eval(expr)? {
                Value::Ref(oid) => self.resolver.deref_obj(oid).map(Cow::Owned),
                Value::VRef(vr) => self.resolver.deref_version(vr).map(Cow::Owned),
                Value::Null => Err(ModelError::Eval("null dereference".into())),
                other => Err(ModelError::Type(format!(
                    "expected an object reference, got {other}"
                ))),
            }
        }

        fn field_ref<'o>(&self, obj: &'o ObjState, field: &str) -> Result<&'o Value> {
            let def = self.schema.class(obj.class)?;
            let idx = def.field_index(field)?;
            Ok(&obj.fields[idx])
        }

        fn binary(&self, op: BinOp, l: &Expr, r: &Expr) -> Result<Value> {
            match op {
                BinOp::And => {
                    return Ok(Value::Bool(
                        self.eval(l)?.as_bool()? && self.eval(r)?.as_bool()?,
                    ))
                }
                BinOp::Or => {
                    return Ok(Value::Bool(
                        self.eval(l)?.as_bool()? || self.eval(r)?.as_bool()?,
                    ))
                }
                _ => {}
            }
            let (lv, rv) = (self.eval(l)?, self.eval(r)?);
            match op {
                BinOp::Eq => Ok(Value::Bool(lv == rv)),
                BinOp::Ne => Ok(Value::Bool(lv != rv)),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let ord = match (&lv, &rv) {
                        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_))
                        | (Value::Str(_), Value::Str(_)) => lv.cmp(&rv),
                        _ => {
                            return Err(ModelError::Type(format!("cannot order {lv} against {rv}")))
                        }
                    };
                    Ok(Value::Bool(match op {
                        BinOp::Lt => ord.is_lt(),
                        BinOp::Le => ord.is_le(),
                        BinOp::Gt => ord.is_gt(),
                        _ => ord.is_ge(),
                    }))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul => arith(op, &lv, &rv),
                _ => unreachable!("not generated"),
            }
        }
    }

    fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
        match (l, r, op) {
            (Value::Str(a), Value::Str(b), BinOp::Add) => Ok(Value::Str(format!("{a}{b}"))),
            (Value::Int(a), Value::Int(b), _) => match op {
                BinOp::Add => a.checked_add(*b),
                BinOp::Sub => a.checked_sub(*b),
                _ => a.checked_mul(*b),
            }
            .map(Value::Int)
            .ok_or_else(|| ModelError::Eval("integer overflow".into())),
            (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_), _) => {
                let (a, b) = (l.as_float()?, r.as_float()?);
                Ok(Value::Float(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    _ => a * b,
                }))
            }
            _ => Err(ModelError::Type(format!(
                "cannot apply `{}` to {l} and {r}",
                op.symbol()
            ))),
        }
    }
}

/// The fields a generated expression may name, and their types.
const FIELDS: [(&str, Type); 6] = [
    ("a", Type::Int),
    ("b", Type::Int),
    ("c", Type::Int),
    ("d", Type::Int),
    ("r", Type::Any),
    ("s", Type::Str),
];

/// Classes `k0`–`k3`: class `i` lists up to two earlier classes as bases
/// (a second base sharing an ancestor with the first makes a diamond),
/// and each field of [`FIELDS`] is declared by one class or none, so
/// layouts differ between subclasses and a field may exist only below a
/// class. A class whose bases admit no C3 linearization gets none.
fn hierarchy() -> impl Strategy<Value = Schema> {
    (
        1usize..5,
        prop::collection::vec(prop::collection::vec(0usize..4, 0..3), 4),
        prop::collection::vec(0usize..5, FIELDS.len()),
    )
        .prop_map(|(n, bases, owners)| {
            let mut schema = Schema::new();
            for (i, picks) in bases.iter().enumerate().take(n) {
                let mut b = ClassBuilder::new(format!("k{i}"));
                for (f, (name, ty)) in FIELDS.iter().enumerate() {
                    if owners[f] == i {
                        b = b.field(*name, ty.clone());
                    }
                }
                let mut with_bases = b.clone();
                let mut listed = Vec::new();
                for &p in picks.iter().filter(|&&p| p < i) {
                    if !listed.contains(&p) {
                        listed.push(p);
                        with_bases = with_bases.base(format!("k{p}"));
                    }
                }
                if schema.define(with_bases).is_err() {
                    schema.define(b).unwrap();
                }
            }
            schema
        })
}

fn small_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        Just(Value::Int(i64::MAX)),
        Just(Value::Float(1.5)),
        Just(Value::Bool(true)),
        Just(Value::Str("x".into())),
        (0u32..5).prop_map(|j| Value::Ref(obj_oid(j))),
    ]
}

fn obj_oid(j: u32) -> Oid {
    Oid {
        cluster: 1,
        rid: RecordId { page: j, slot: 0 },
    }
}

/// Resolves objects `0..n` of a generated case (oids past them dangle).
struct Objects(Vec<ObjState>);

impl ode_model::Resolver for Objects {
    fn deref_obj(&self, oid: Oid) -> ode_model::Result<ObjState> {
        self.0
            .get(oid.rid.page as usize)
            .cloned()
            .ok_or_else(|| ode_model::ModelError::Eval(format!("no object {oid}")))
    }

    fn deref_version(&self, vref: VersionRef) -> ode_model::Result<ObjState> {
        Err(ode_model::ModelError::Eval(format!("no version {vref}")))
    }
}

/// A state encoded and decoded through `mask`: what a masked scan holds.
fn masked(state: &ObjState, mask: &SlotMask) -> ObjState {
    let mut out = ObjState::new(ClassId(0), 0);
    decode_object_into(&encode_object(state), &mut out, mask).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The bound evaluator returns the value or the error the
    /// name-resolving rules return, over random hierarchies (single
    /// inheritance and diamonds), objects, loop variables (a repeated name
    /// shadows), `this` present or not, and parameters present or not.
    /// Covered on the way: `&&`/`||` short circuits, `null` dereference, a
    /// subclass-only field read on a base-class object, unknown names,
    /// parameters and `is` classes. Evaluating against the objects decoded
    /// through the expression's own read mask changes nothing either.
    #[test]
    fn bound_evaluator_matches_name_resolution(
        schema in hierarchy(),
        objects in prop::collection::vec(
            (0u32..4, prop::collection::vec(small_value(), FIELDS.len())),
            1..5,
        ),
        this in 0usize..7,
        vars in prop::collection::vec((prop::sample::select(vec!["v", "w"]), 0usize..5), 0..4),
        param in prop::collection::vec(small_value(), 0..2),
        srcs in prop::collection::vec(expr_src(), 1..8),
    ) {
        use ode_model::{BoundVar, EvalCtx, Frame};
        use std::collections::HashMap;

        let states: Vec<ObjState> = objects
            .into_iter()
            .map(|(class, values)| {
                let class = ClassId(class % schema.len() as u32);
                let mut state = schema.new_object(class).unwrap();
                for (slot, v) in state.fields.iter_mut().zip(values) {
                    *slot = v;
                }
                state
            })
            .collect();
        let n = states.len();
        let resolver = Objects(states.clone());
        // One case in seven has no current object.
        let this = (this < 6).then(|| &states[this % n]);
        let vars: Vec<BoundVar> = vars
            .iter()
            .map(|&(name, i)| BoundVar { name, oid: obj_oid((i % n) as u32), state: &states[i % n] })
            .collect();
        let params: HashMap<String, Value> = param.into_iter().map(|v| ("p".into(), v)).collect();
        let reference = reference::Ctx {
            schema: &schema,
            this,
            vars: &vars,
            params: Some(&params),
            resolver: &resolver,
        };
        let ctx = EvalCtx::new(&schema).with_bindings(&vars).with_params(&params).with_resolver(&resolver);
        let ctx = match this {
            Some(t) => ctx.with_this(t),
            None => ctx,
        };
        for src in srcs {
            let expr = parse_expr(&src).unwrap();
            let want = reference.eval(&expr);
            prop_assert_eq!(&ctx.eval(&expr), &want, "{}", src);

            // The objects in hand decoded through the bound expression's
            // read mask: the object that is `this`, and each variable's.
            let masked_eval = ctx.with_bound(&expr, |bound, frame| {
                let mut this_mask = SlotMask::default();
                bound.read_slots(true, None, &mut this_mask);
                let this_masked = this.map(|t| masked(t, &this_mask));
                let var_masked: Vec<ObjState> = vars
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let mut mask = SlotMask::default();
                        bound.read_slots(false, Some(i), &mut mask);
                        masked(b.state, &mask)
                    })
                    .collect();
                let masked_vars: Vec<BoundVar> = vars
                    .iter()
                    .zip(&var_masked)
                    .map(|(b, state)| BoundVar { state, ..*b })
                    .collect();
                Ok(bound.eval(&Frame {
                    this: this_masked.as_ref(),
                    vars: &masked_vars,
                    ..*frame
                }))
            });
            prop_assert_eq!(&masked_eval.unwrap(), &want, "{} (masked)", src);
        }
    }
}
