//! Property-based tests for the data-model layer: the value codec, the
//! total order on values, set algebra laws, and the expression
//! parser/printer pair.

use proptest::prelude::*;

use ode_model::encode::{
    decode_object, decode_object_into, decode_value, encode_object, encode_value,
};
use ode_model::{parse_expr, ClassId, ObjState, Oid, SetValue, Value, VersionRef};
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
            decode_object_into(bytes, &mut scratch)
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

// ------------------------------------------------------------ expressions

/// Source text generator for well-formed expressions over fields a, b, c.
fn expr_src() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("$p".to_string()),
        (0i64..1000).prop_map(|n| n.to_string()),
        Just("1.5".to_string()),
        Just("true".to_string()),
        Just("'x'".to_string()),
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
