//! Runtime values, field types, and object state.
//!
//! Values carry everything an O++ object member can hold: primitives,
//! strings, object references (generic and specific, §4), arrays, and sets
//! (§2.6). The total order on [`Value`] (variant rank first, then payload;
//! floats via `total_cmp`) is what lets values key B-tree indexes and sort
//! `by` clauses deterministically.

use std::cmp::Ordering;

use crate::class::ClassId;
use crate::error::{ModelError, Result};
use crate::oid::{Oid, VersionRef};

/// Declared type of a field (O++ member declarations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// `int` — 64-bit signed.
    Int,
    /// `double` — 64-bit float.
    Float,
    /// Truth value.
    Bool,
    /// `char*` / string.
    Str,
    /// Pointer to a persistent object of (a subclass of) the named class —
    /// a generic reference.
    Ref(String),
    /// A specific (pinned-version) reference to the named class.
    VRef(String),
    /// Fixed-element-type array.
    Array(Box<Type>),
    /// A set of elements (§2.6 `set of`).
    Set(Box<Type>),
    /// Escape hatch: any value (used sparingly, e.g. generic containers).
    Any,
}

impl Type {
    /// Does `value` inhabit this type, structurally? Reference *class*
    /// conformance needs the cluster→class map and is checked by the
    /// engine; here `Ref`/`VRef` only require the right value shape.
    pub fn admits(&self, value: &Value) -> bool {
        match (self, value) {
            (_, Value::Null) => true, // null pointer / absent value
            (Type::Int, Value::Int(_)) => true,
            (Type::Float, Value::Float(_)) => true,
            // Ints coerce into float fields, as in C++.
            (Type::Float, Value::Int(_)) => true,
            (Type::Bool, Value::Bool(_)) => true,
            (Type::Str, Value::Str(_)) => true,
            (Type::Ref(_), Value::Ref(_)) => true,
            (Type::VRef(_), Value::VRef(_)) => true,
            (Type::Array(elem), Value::Array(items)) => items.iter().all(|v| elem.admits(v)),
            (Type::Set(elem), Value::Set(s)) => s.iter().all(|v| elem.admits(v)),
            (Type::Any, _) => true,
            _ => false,
        }
    }

    /// Human-readable type name for error messages.
    pub fn name(&self) -> String {
        match self {
            Type::Int => "int".into(),
            Type::Float => "double".into(),
            Type::Bool => "bool".into(),
            Type::Str => "string".into(),
            Type::Ref(c) => format!("persistent {c}*"),
            Type::VRef(c) => format!("version of {c}"),
            Type::Array(e) => format!("array of {}", e.name()),
            Type::Set(e) => format!("set of {}", e.name()),
            Type::Any => "any".into(),
        }
    }
}

/// A set value (§2.6). Insertion order is preserved — the fixpoint
/// iteration of §3.2 visits elements *added during the iteration*, which
/// requires appended elements to come after the cursor.
#[derive(Debug, Clone, Default)]
pub struct SetValue {
    items: Vec<Value>,
}

impl SetValue {
    /// Empty set.
    pub fn new() -> SetValue {
        SetValue::default()
    }

    /// Build from an iterator, dropping duplicates (first occurrence wins).
    /// (Also available through the `FromIterator` impl / `collect()`.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(items: impl IntoIterator<Item = Value>) -> SetValue {
        let mut s = SetValue::new();
        for v in items {
            s.insert(v);
        }
        s
    }

    /// Insert; returns true if the element was new.
    pub fn insert(&mut self, v: Value) -> bool {
        if self.items.contains(&v) {
            false
        } else {
            self.items.push(v);
            true
        }
    }

    /// Remove; returns true if the element was present.
    pub fn remove(&mut self, v: &Value) -> bool {
        match self.items.iter().position(|x| x == v) {
            Some(i) => {
                self.items.remove(i);
                true
            }
            None => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, v: &Value) -> bool {
        self.items.contains(v)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Elements in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.items.iter()
    }

    /// Element by insertion position (used by the fixpoint cursor).
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.items.get(i)
    }

    /// Set union (self ∪ other), preserving self's order first.
    pub fn union(&self, other: &SetValue) -> SetValue {
        let mut out = self.clone();
        for v in other.iter() {
            out.insert(v.clone());
        }
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &SetValue) -> SetValue {
        SetValue {
            items: self
                .items
                .iter()
                .filter(|v| other.contains(v))
                .cloned()
                .collect(),
        }
    }

    /// Set difference (self ∖ other).
    pub fn difference(&self, other: &SetValue) -> SetValue {
        SetValue {
            items: self
                .items
                .iter()
                .filter(|v| !other.contains(v))
                .cloned()
                .collect(),
        }
    }

    fn sorted(&self) -> Vec<&Value> {
        let mut v: Vec<&Value> = self.items.iter().collect();
        v.sort();
        v
    }
}

impl PartialEq for SetValue {
    /// Set equality ignores insertion order.
    fn eq(&self, other: &Self) -> bool {
        self.items.len() == other.items.len() && self.sorted() == other.sorted()
    }
}

impl Eq for SetValue {}

impl PartialOrd for SetValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SetValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sorted().cmp(&other.sorted())
    }
}

impl FromIterator<Value> for SetValue {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        SetValue::from_iter(iter)
    }
}

/// A runtime value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Null pointer / absent.
    #[default]
    Null,
    /// Truth value.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String (O++ `char*` members and `'c'` literals).
    Str(String),
    /// Generic reference to a persistent object (tracks current version).
    Ref(Oid),
    /// Specific reference to one version of a persistent object.
    VRef(VersionRef),
    /// Array value.
    Array(Vec<Value>),
    /// Set value (§2.6).
    Set(SetValue),
}

impl Value {
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2, // numerics compare cross-type
            Value::Str(_) => 4,
            Value::Ref(_) => 5,
            Value::VRef(_) => 6,
            Value::Array(_) => 7,
            Value::Set(_) => 8,
        }
    }

    /// Is this the null value?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean (for `suchthat`, constraints, triggers).
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ModelError::Type(format!(
                "expected a boolean condition, got {other}"
            ))),
        }
    }

    /// Interpret as an integer.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(ModelError::Type(format!("expected an int, got {other}"))),
        }
    }

    /// Interpret as a float, coercing ints.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(ModelError::Type(format!("expected a number, got {other}"))),
        }
    }

    /// Interpret as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(ModelError::Type(format!("expected a string, got {other}"))),
        }
    }

    /// Interpret as a generic reference.
    pub fn as_ref_oid(&self) -> Result<Oid> {
        match self {
            Value::Ref(oid) => Ok(*oid),
            other => Err(ModelError::Type(format!(
                "expected an object reference, got {other}"
            ))),
        }
    }

    /// Interpret as a set (mutable access goes through the engine).
    pub fn as_set(&self) -> Result<&SetValue> {
        match self {
            Value::Set(s) => Ok(s),
            other => Err(ModelError::Type(format!("expected a set, got {other}"))),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // What `cmp` answers, without ordering the bytes.
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Cross-numeric comparison, so `by (salary)` works over mixed
            // int/float data.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Ref(a), Ref(b)) => a.cmp(b),
            (VRef(a), VRef(b)) => a.cmp(b),
            (Array(a), Array(b)) => a.cmp(b),
            (Set(a), Set(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash must agree with Eq: numerics hash via their f64 bit image
        // when fractional, via i64 when integral.
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(x) => {
                2u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::Ref(o) => {
                5u8.hash(state);
                o.hash(state);
            }
            Value::VRef(v) => {
                6u8.hash(state);
                v.hash(state);
            }
            Value::Array(items) => {
                7u8.hash(state);
                for v in items {
                    v.hash(state);
                }
            }
            Value::Set(s) => {
                8u8.hash(state);
                for v in s.sorted() {
                    v.hash(state);
                }
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Ref(oid) => write!(f, "&{oid}"),
            Value::VRef(v) => write!(f, "&{v}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Oid> for Value {
    fn from(v: Oid) -> Self {
        Value::Ref(v)
    }
}

impl From<VersionRef> for Value {
    fn from(v: VersionRef) -> Self {
        Value::VRef(v)
    }
}

/// The in-memory state of one object: its dynamic class plus one value per
/// slot of the class's (linearized) field layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjState {
    /// The object's most-derived class.
    pub class: ClassId,
    /// One value per layout slot, in layout order.
    pub fields: Vec<Value>,
}

impl ObjState {
    /// New state with every field `Null` (defaults are applied by the
    /// schema when constructing through it).
    pub fn new(class: ClassId, field_count: usize) -> ObjState {
        ObjState {
            class,
            fields: vec![Value::Null; field_count],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_storage::RecordId;

    fn oid(n: u32) -> Oid {
        Oid {
            cluster: 1,
            rid: RecordId { page: n, slot: 0 },
        }
    }

    #[test]
    fn total_order_is_consistent() {
        let mut vals = [
            Value::Str("b".into()),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
            Value::Bool(true),
            Value::Str("a".into()),
            Value::Int(1),
        ];
        vals.sort();
        // Nulls first, then bools, then numerics in numeric order, strings last.
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::Float(1.5));
        assert_eq!(vals[4], Value::Int(2));
        assert_eq!(vals[5], Value::Str("a".into()));
    }

    #[test]
    fn cross_numeric_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn nan_has_a_stable_place() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn hash_agrees_with_eq_for_cross_numerics() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
    }

    #[test]
    fn set_insert_dedups_and_preserves_order() {
        let mut s = SetValue::new();
        assert!(s.insert(Value::Int(3)));
        assert!(s.insert(Value::Int(1)));
        assert!(!s.insert(Value::Int(3)));
        assert!(s.insert(Value::Int(2)));
        let order: Vec<i64> = s.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(order, vec![3, 1, 2], "insertion order preserved");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn set_equality_ignores_order() {
        let a = SetValue::from_iter([Value::Int(1), Value::Int(2)]);
        let b = SetValue::from_iter([Value::Int(2), Value::Int(1)]);
        assert_eq!(a, b);
        let c = SetValue::from_iter([Value::Int(1)]);
        assert_ne!(a, c);
    }

    #[test]
    fn set_algebra() {
        let a = SetValue::from_iter([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let b = SetValue::from_iter([Value::Int(3), Value::Int(4)]);
        assert_eq!(a.union(&b), SetValue::from_iter((1..=4).map(Value::Int)));
        assert_eq!(a.intersection(&b), SetValue::from_iter([Value::Int(3)]));
        assert_eq!(
            a.difference(&b),
            SetValue::from_iter([Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn set_remove() {
        let mut s = SetValue::from_iter([Value::Int(1), Value::Int(2)]);
        assert!(s.remove(&Value::Int(1)));
        assert!(!s.remove(&Value::Int(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn type_admits() {
        assert!(Type::Int.admits(&Value::Int(4)));
        assert!(!Type::Int.admits(&Value::Str("4".into())));
        assert!(Type::Float.admits(&Value::Int(4)), "int coerces to double");
        assert!(Type::Ref("person".into()).admits(&Value::Ref(oid(1))));
        assert!(Type::Str.admits(&Value::Null), "null admitted everywhere");
        let set_ty = Type::Set(Box::new(Type::Int));
        assert!(set_ty.admits(&Value::Set(SetValue::from_iter([Value::Int(1)]))));
        assert!(!set_ty.admits(&Value::Set(SetValue::from_iter([Value::Str("x".into())]))));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(
            Value::Array(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(
            Value::Set(SetValue::from_iter([Value::Int(1)])).to_string(),
            "{1}"
        );
    }
}
