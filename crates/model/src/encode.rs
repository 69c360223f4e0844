//! Binary codec for values, object states, and the schema catalog.
//!
//! The engine stores object records and the class catalog through this
//! module. The format is deliberately hand-rolled (a database owns its disk
//! format): little-endian, length-prefixed, tag-per-variant.
//!
//! Schema persistence round-trips through [`ClassBuilder`]s: the catalog
//! stores *declarations* (including constraint/trigger source text), and
//! decoding re-runs [`Schema::define`], so linearizations and layouts are
//! always recomputed by the same checked code path that built them.

use crate::bind::{word_reads, SlotMask};
use crate::class::{ClassBuilder, ClassDef, TriggerAction};
use crate::error::{ModelError, Result};
use crate::oid::{Oid, VersionRef};
use crate::schema::Schema;
use crate::value::{ObjState, SetValue, Type, Value};
use crate::ClassId;

/// Incremented when the record encoding changes shape.
pub const CODEC_VERSION: u8 = 1;

// ---------------------------------------------------------------- writer

/// Append-only byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw pre-encoded bytes (length must be framed by the caller).
    pub fn append_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

// ---------------------------------------------------------------- reader

/// Sequential byte reader with bounds checking.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Have all bytes been consumed?
    pub fn at_end(&self) -> bool {
        self.at == self.buf.len()
    }

    /// Consume exactly `n` raw bytes (caller framed them).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)
    }

    #[inline]
    fn need(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .buf
            .get(self.at..self.at + n)
            .ok_or_else(|| ModelError::Decode("unexpected end of record".into()))?;
        self.at += n;
        Ok(s)
    }

    #[inline]
    fn u8(&mut self) -> Result<u8> {
        Ok(self.need(1)?[0])
    }

    #[inline]
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.need(4)?.try_into().unwrap()))
    }

    #[inline]
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.need(8)?.try_into().unwrap()))
    }

    #[inline]
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.need(8)?.try_into().unwrap()))
    }

    #[inline]
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    #[inline]
    fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    #[inline]
    fn str_ref(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.need(n)?)
            .map_err(|_| ModelError::Decode("invalid utf-8 string".into()))
    }

    fn str(&mut self) -> Result<String> {
        Ok(self.str_ref()?.to_owned())
    }
}

// ---------------------------------------------------------------- values

const V_NULL: u8 = 0;
const V_BOOL: u8 = 1;
const V_INT: u8 = 2;
const V_FLOAT: u8 = 3;
const V_STR: u8 = 4;
const V_REF: u8 = 5;
const V_VREF: u8 = 6;
const V_ARRAY: u8 = 7;
const V_SET: u8 = 8;

/// Encode one value into the writer.
pub fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(V_NULL),
        Value::Bool(b) => {
            w.u8(V_BOOL);
            w.bool(*b);
        }
        Value::Int(i) => {
            w.u8(V_INT);
            w.i64(*i);
        }
        Value::Float(x) => {
            w.u8(V_FLOAT);
            w.f64(*x);
        }
        Value::Str(s) => {
            w.u8(V_STR);
            w.str(s);
        }
        Value::Ref(oid) => {
            w.u8(V_REF);
            w.bytes(&oid.to_bytes());
        }
        Value::VRef(vr) => {
            w.u8(V_VREF);
            w.bytes(&vr.to_bytes());
        }
        Value::Array(items) => {
            w.u8(V_ARRAY);
            w.u32(items.len() as u32);
            for it in items {
                write_value(w, it);
            }
        }
        Value::Set(s) => {
            w.u8(V_SET);
            w.u32(s.len() as u32);
            for it in s.iter() {
                write_value(w, it);
            }
        }
    }
}

/// Decode one value.
pub fn read_value(r: &mut Reader) -> Result<Value> {
    let tag = r.u8()?;
    read_tagged(r, tag)
}

/// Decode the rest of a value whose tag was read.
#[inline]
fn read_tagged(r: &mut Reader, tag: u8) -> Result<Value> {
    Ok(match tag {
        V_NULL => Value::Null,
        V_BOOL => Value::Bool(r.bool()?),
        V_INT => Value::Int(r.i64()?),
        V_FLOAT => Value::Float(r.f64()?),
        V_STR => Value::Str(r.str()?),
        V_REF => Value::Ref(
            Oid::from_bytes(r.need(10)?).ok_or_else(|| ModelError::Decode("bad oid".into()))?,
        ),
        V_VREF => Value::VRef(
            VersionRef::from_bytes(r.need(14)?)
                .ok_or_else(|| ModelError::Decode("bad version ref".into()))?,
        ),
        V_ARRAY => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(read_value(r)?);
            }
            Value::Array(items)
        }
        V_SET => {
            let n = r.u32()? as usize;
            let mut s = SetValue::new();
            for _ in 0..n {
                s.insert(read_value(r)?);
            }
            Value::Set(s)
        }
        other => return Err(ModelError::Decode(format!("unknown value tag {other}"))),
    })
}

/// Decode the rest of a value whose tag was read into `slot`. A string
/// decoded over a string keeps the slot's buffer, and the scalars a record
/// holds most are written in place; any other value replaces the slot.
#[inline]
fn read_tagged_into(r: &mut Reader, tag: u8, slot: &mut Value) -> Result<()> {
    match (tag, slot) {
        (V_STR, Value::Str(s)) => {
            let text = r.str_ref()?;
            s.clear();
            s.push_str(text);
        }
        (V_INT, slot) => *slot = Value::Int(r.i64()?),
        (V_FLOAT, slot) => *slot = Value::Float(r.f64()?),
        (tag, slot) => *slot = read_tagged(r, tag)?,
    }
    Ok(())
}

/// Encode a value to a standalone byte vector.
pub fn encode_value(v: &Value) -> Vec<u8> {
    let mut w = Writer::new();
    write_value(&mut w, v);
    w.finish()
}

/// Decode a standalone value.
pub fn decode_value(bytes: &[u8]) -> Result<Value> {
    let mut r = Reader::new(bytes);
    let v = read_value(&mut r)?;
    if !r.at_end() {
        return Err(ModelError::Decode("trailing bytes after value".into()));
    }
    Ok(v)
}

// ---------------------------------------------------------------- objects

/// Encode an object's state (class + field values).
pub fn encode_object(obj: &ObjState) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(CODEC_VERSION);
    w.u32(obj.class.0);
    w.u32(obj.fields.len() as u32);
    for f in &obj.fields {
        write_value(&mut w, f);
    }
    w.finish()
}

/// Decode an object's state.
pub fn decode_object(bytes: &[u8]) -> Result<ObjState> {
    let mut state = ObjState::new(ClassId(0), 0);
    decode_object_into(bytes, &mut state, &SlotMask::ALL)?;
    Ok(state)
}

/// Decode the slots of an object that `mask` reads into `into`, reusing its
/// field vector and the buffers of its string slots, so a scan that decodes
/// every record into one state allocates only where a record outgrows the
/// one before. Every other slot is left `Null`; [`SlotMask::ALL`] is a full
/// decode. A skipped slot is still checked — tags, lengths, UTF-8 and
/// references — so every mask makes every check [`decode_object`] makes
/// and fails with the same error; after an error `into` holds some valid
/// but unspecified state.
pub fn decode_object_into(bytes: &[u8], into: &mut ObjState, mask: &SlotMask) -> Result<()> {
    let mut r = Reader::new(bytes);
    let ver = r.u8()?;
    if ver != CODEC_VERSION {
        return Err(ModelError::Decode(format!(
            "object codec version {ver} not supported"
        )));
    }
    into.class = ClassId(r.u32()?);
    let read = mask.words(into.class);
    let n = r.u32()? as usize;
    let fields = &mut into.fields;
    // The count is untrusted: reserve at most 64 Ki slots up front.
    fields.reserve(n.min(1 << 16).saturating_sub(fields.len()));
    for i in 0..n {
        if fields.len() == i {
            fields.push(Value::Null);
        }
        let slot = &mut fields[i];
        let tag = r.u8()?;
        if read.is_none_or(|w| word_reads(w, i)) {
            read_tagged_into(&mut r, tag, slot)?;
        } else {
            skip_tagged(&mut r, tag)?;
            if !slot.is_null() {
                *slot = Value::Null;
            }
        }
    }
    fields.truncate(n);
    if !r.at_end() {
        return Err(ModelError::Decode("trailing bytes after object".into()));
    }
    Ok(())
}

/// Step over one value, making every check [`read_value`] makes and
/// building nothing.
fn skip_value(r: &mut Reader) -> Result<()> {
    let tag = r.u8()?;
    skip_tagged(r, tag)
}

/// Step over the rest of a value whose tag was read.
#[inline]
fn skip_tagged(r: &mut Reader, tag: u8) -> Result<()> {
    match tag {
        V_NULL => {}
        V_BOOL => {
            r.need(1)?;
        }
        V_INT | V_FLOAT => {
            r.need(8)?;
        }
        // Most text is ASCII, which is valid UTF-8 and is checked faster.
        V_STR => {
            let n = r.u32()? as usize;
            let bytes = r.need(n)?;
            if !bytes.is_ascii() && std::str::from_utf8(bytes).is_err() {
                return Err(ModelError::Decode("invalid utf-8 string".into()));
            }
        }
        V_REF => {
            Oid::from_bytes(r.need(10)?).ok_or_else(|| ModelError::Decode("bad oid".into()))?;
        }
        V_VREF => {
            VersionRef::from_bytes(r.need(14)?)
                .ok_or_else(|| ModelError::Decode("bad version ref".into()))?;
        }
        V_ARRAY | V_SET => {
            for _ in 0..r.u32()? {
                skip_value(r)?;
            }
        }
        other => return Err(ModelError::Decode(format!("unknown value tag {other}"))),
    }
    Ok(())
}

// ---------------------------------------------------------------- types

const T_INT: u8 = 0;
const T_FLOAT: u8 = 1;
const T_BOOL: u8 = 2;
const T_STR: u8 = 3;
const T_REF: u8 = 4;
const T_VREF: u8 = 5;
const T_ARRAY: u8 = 6;
const T_SET: u8 = 7;
const T_ANY: u8 = 8;

fn write_type(w: &mut Writer, ty: &Type) {
    match ty {
        Type::Int => w.u8(T_INT),
        Type::Float => w.u8(T_FLOAT),
        Type::Bool => w.u8(T_BOOL),
        Type::Str => w.u8(T_STR),
        Type::Ref(c) => {
            w.u8(T_REF);
            w.str(c);
        }
        Type::VRef(c) => {
            w.u8(T_VREF);
            w.str(c);
        }
        Type::Array(e) => {
            w.u8(T_ARRAY);
            write_type(w, e);
        }
        Type::Set(e) => {
            w.u8(T_SET);
            write_type(w, e);
        }
        Type::Any => w.u8(T_ANY),
    }
}

fn read_type(r: &mut Reader) -> Result<Type> {
    Ok(match r.u8()? {
        T_INT => Type::Int,
        T_FLOAT => Type::Float,
        T_BOOL => Type::Bool,
        T_STR => Type::Str,
        T_REF => Type::Ref(r.str()?),
        T_VREF => Type::VRef(r.str()?),
        T_ARRAY => Type::Array(Box::new(read_type(r)?)),
        T_SET => Type::Set(Box::new(read_type(r)?)),
        T_ANY => Type::Any,
        other => return Err(ModelError::Decode(format!("unknown type tag {other}"))),
    })
}

// ---------------------------------------------------------------- catalog

const A_ASSIGN: u8 = 0;
const A_CALLBACK: u8 = 1;

/// Encode one class *declaration* (what `Schema::define` consumed). The
/// caller provides the schema to map base ids back to names.
pub fn encode_class(schema: &Schema, def: &ClassDef) -> Result<Vec<u8>> {
    let mut w = Writer::new();
    w.u8(CODEC_VERSION);
    w.str(&def.name);
    w.u32(def.bases.len() as u32);
    for b in &def.bases {
        w.str(&schema.class(*b)?.name);
    }
    w.u32(def.own_fields.len() as u32);
    for f in &def.own_fields {
        w.str(&f.name);
        write_type(&mut w, &f.ty);
        match &f.default {
            Some(v) => {
                w.bool(true);
                write_value(&mut w, v);
            }
            None => w.bool(false),
        }
    }
    w.u32(def.constraints.len() as u32);
    for c in &def.constraints {
        w.str(&c.name);
        w.str(&c.src);
    }
    w.u32(def.triggers.len() as u32);
    for t in &def.triggers {
        w.str(&t.name);
        w.u32(t.params.len() as u32);
        for p in &t.params {
            w.str(p);
        }
        w.bool(t.perpetual);
        w.str(&t.condition_src);
        w.u32(t.actions.len() as u32);
        for a in &t.actions {
            match a {
                TriggerAction::Assign { field, src, .. } => {
                    w.u8(A_ASSIGN);
                    w.str(field);
                    w.str(src);
                }
                TriggerAction::Callback { name } => {
                    w.u8(A_CALLBACK);
                    w.str(name);
                }
            }
        }
    }
    Ok(w.finish())
}

/// Decode a class declaration back into a builder (re-`define` it to get a
/// checked [`ClassDef`]).
pub fn decode_class(bytes: &[u8]) -> Result<ClassBuilder> {
    let mut r = Reader::new(bytes);
    let ver = r.u8()?;
    if ver != CODEC_VERSION {
        return Err(ModelError::Decode(format!(
            "catalog codec version {ver} not supported"
        )));
    }
    let name = r.str()?;
    let mut b = ClassBuilder::new(name);
    for _ in 0..r.u32()? {
        b = b.base(r.str()?);
    }
    for _ in 0..r.u32()? {
        let fname = r.str()?;
        let ty = read_type(&mut r)?;
        let has_default = r.bool()?;
        b = if has_default {
            let v = read_value(&mut r)?;
            b.field_default(fname, ty, v)
        } else {
            b.field(fname, ty)
        };
    }
    for _ in 0..r.u32()? {
        let cname = r.str()?;
        let src = r.str()?;
        b = b.constraint_named(cname, src);
    }
    for _ in 0..r.u32()? {
        let tname = r.str()?;
        let mut params = Vec::new();
        for _ in 0..r.u32()? {
            params.push(r.str()?);
        }
        let param_refs: Vec<&str> = params.iter().map(|s| s.as_str()).collect();
        let perpetual = r.bool()?;
        let condition = r.str()?;
        b = b.trigger(tname, &param_refs, perpetual, condition);
        for _ in 0..r.u32()? {
            match r.u8()? {
                A_ASSIGN => {
                    let field = r.str()?;
                    let src = r.str()?;
                    b = b.action_assign(field, src);
                }
                A_CALLBACK => {
                    b = b.action_callback(r.str()?);
                }
                other => return Err(ModelError::Decode(format!("unknown action tag {other}"))),
            }
        }
    }
    if !r.at_end() {
        return Err(ModelError::Decode("trailing bytes after class".into()));
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassBuilder;
    use ode_storage::RecordId;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NEG_INFINITY),
            Value::Str("512 dram".into()),
            Value::Ref(Oid {
                cluster: 3,
                rid: RecordId { page: 9, slot: 1 },
            }),
            Value::VRef(VersionRef {
                oid: Oid {
                    cluster: 3,
                    rid: RecordId { page: 9, slot: 1 },
                },
                version: 4,
            }),
            Value::Array(vec![Value::Int(1), Value::Str("two".into())]),
            Value::Set(SetValue::from_iter([Value::Int(5), Value::Int(3)])),
        ]
    }

    #[test]
    fn value_roundtrip() {
        for v in sample_values() {
            let bytes = encode_value(&v);
            assert_eq!(decode_value(&bytes).unwrap(), v, "{v}");
        }
    }

    #[test]
    fn nested_containers_roundtrip() {
        let v = Value::Array(vec![
            Value::Set(SetValue::from_iter([Value::Array(vec![Value::Int(1)])])),
            Value::Null,
        ]);
        assert_eq!(decode_value(&encode_value(&v)).unwrap(), v);
    }

    #[test]
    fn set_order_survives_roundtrip() {
        let s = SetValue::from_iter([Value::Int(3), Value::Int(1), Value::Int(2)]);
        let v = Value::Set(s);
        let back = decode_value(&encode_value(&v)).unwrap();
        let Value::Set(bs) = back else { panic!() };
        let order: Vec<i64> = bs.iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn object_roundtrip() {
        let obj = ObjState {
            class: ClassId(7),
            fields: sample_values(),
        };
        let back = decode_object(&encode_object(&obj)).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn masked_decode_fills_read_slots_and_checks_the_rest() {
        let obj = ObjState {
            class: ClassId(2),
            fields: sample_values(),
        };
        let mut mask = SlotMask::default();
        mask.insert(ClassId(2), 5);
        mask.insert(ClassId(3), 0);
        let mut into = ObjState::new(ClassId(0), 0);
        decode_object_into(&encode_object(&obj), &mut into, &mask).unwrap();
        for (i, v) in into.fields.iter().enumerate() {
            let want = if i == 5 { &obj.fields[5] } else { &Value::Null };
            assert_eq!(v, want, "slot {i}");
        }
        // A bad byte in a skipped string fails as a full decode fails.
        let mut only_int = ObjState {
            class: ClassId(2),
            fields: vec![Value::Int(1), Value::Str("ab".into())],
        };
        let mut bad = encode_object(&only_int);
        let last = bad.len() - 1;
        bad[last] = 0xFF;
        let mut mask = SlotMask::default();
        mask.insert(ClassId(2), 0);
        assert_eq!(
            decode_object_into(&bad, &mut only_int, &mask),
            decode_object(&bad).map(drop)
        );
        assert!(decode_object(&bad).is_err());
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        assert!(decode_value(&[]).is_err());
        assert!(decode_value(&[99]).is_err());
        assert!(decode_value(&[V_STR, 10, 0, 0, 0, b'x']).is_err());
        assert!(decode_object(&[CODEC_VERSION, 1, 0]).is_err());
        let mut good = encode_value(&Value::Int(1));
        good.push(0xFF);
        assert!(decode_value(&good).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn class_declaration_roundtrip() {
        let mut schema = Schema::new();
        schema
            .define(ClassBuilder::new("person").field("name", Type::Str))
            .unwrap();
        let id = schema
            .define(
                ClassBuilder::new("stockitem")
                    .base("person")
                    .field("supplier", Type::Str)
                    .field_default("quantity", Type::Int, 0)
                    .field_default("price", Type::Float, 1.0)
                    .field("tags", Type::Set(Box::new(Type::Str)))
                    .constraint_named("non_negative", "quantity >= 0")
                    .trigger("reorder", &["amount"], true, "quantity < $amount")
                    .action_assign("quantity", "quantity + 100")
                    .action_callback("notify_purchasing"),
            )
            .unwrap();
        let def = schema.class(id).unwrap();
        let bytes = encode_class(&schema, def).unwrap();

        // Re-define into a fresh schema.
        let mut schema2 = Schema::new();
        schema2
            .define(ClassBuilder::new("person").field("name", Type::Str))
            .unwrap();
        let id2 = schema2.define(decode_class(&bytes).unwrap()).unwrap();
        let def2 = schema2.class(id2).unwrap();
        assert_eq!(def2.name, "stockitem");
        assert_eq!(def2.own_fields.len(), 4);
        assert_eq!(def2.constraints.len(), 1);
        assert_eq!(def2.constraints[0].name, "non_negative");
        assert_eq!(def2.triggers.len(), 1);
        let t = &def2.triggers[0];
        assert_eq!(t.params, vec!["amount"]);
        assert!(t.perpetual);
        assert_eq!(t.actions.len(), 2);
        // Layout identical to the original.
        let names: Vec<&str> = def2.layout.iter().map(|f| f.name.as_str()).collect();
        let orig: Vec<&str> = def.layout.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, orig);
    }
}
