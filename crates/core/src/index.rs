//! Secondary indexes.
//!
//! §3.1 notes that `suchthat`/`by` clauses "can be used to advantage in
//! query optimization"; this module is that advantage. An index is declared
//! on `(class, field)` and covers the class's **deep extent** (the class
//! and every class derived from it, mirroring cluster-hierarchy iteration).
//! The forall planner probes an index with the interval the `suchthat`
//! predicate's conjuncts pin on the indexed field, bounded on one side or
//! both (`k >= 100 && k < 110` reads ten keys, in either order);
//! `ode_model::probe_range` picks the field (figure F2 measures the
//! crossover against a full scan).
//!
//! Null keys are not indexed, so an interval with a `null` endpoint
//! (`name == null`) is answered by a scan, never by a probe.
//!
//! Index *declarations* persist in the catalog; the entries themselves are
//! rebuilt by a scan at open time, which keeps commit batches small and
//! recovery trivial (an acceptable trade documented in DESIGN.md).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Bound;

use ode_model::{ClassId, Oid, Value, ValueRange};

/// Every declared index, by class and then field, so a probe finds one by
/// the field's name without building a key.
#[derive(Default)]
pub(crate) struct Indexes(HashMap<ClassId, Vec<FieldIndex>>);

/// One declared index.
pub(crate) struct FieldIndex {
    pub field: String,
    pub ix: BTreeIndex,
}

impl Indexes {
    /// The index on `class`'s `field`, if one is declared.
    pub fn get(&self, class: ClassId, field: &str) -> Option<&FieldIndex> {
        self.0.get(&class)?.iter().find(|f| f.field == field)
    }

    /// Declare (or replace) the index on `class`'s `field`.
    pub fn insert(&mut self, class: ClassId, field: String, ix: BTreeIndex) {
        let fields = self.0.entry(class).or_default();
        fields.retain(|f| f.field != field);
        fields.push(FieldIndex { field, ix });
    }

    /// Every `(class, field)` with an index.
    pub fn keys(&self) -> impl Iterator<Item = (ClassId, &str)> {
        let fields = self
            .0
            .iter()
            .flat_map(|(&c, fs)| fs.iter().map(move |f| (c, f)));
        fields.map(|(c, f)| (c, f.field.as_str()))
    }

    /// Every index, mutably, with its class and field.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ClassId, &str, &mut BTreeIndex)> {
        let fields = self
            .0
            .iter_mut()
            .flat_map(|(&c, fs)| fs.iter_mut().map(move |f| (c, f)));
        fields.map(|(c, f)| (c, f.field.as_str(), &mut f.ix))
    }
}

/// An in-memory B-tree index over one field.
#[derive(Debug, Default)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Vec<Oid>>,
    len: usize,
}

impl BTreeIndex {
    /// Empty index.
    pub fn new() -> BTreeIndex {
        BTreeIndex::default()
    }

    /// Add an entry.
    pub fn insert(&mut self, key: Value, oid: Oid) {
        let bucket = self.map.entry(key).or_default();
        if !bucket.contains(&oid) {
            bucket.push(oid);
            self.len += 1;
        }
    }

    /// Remove an entry (no-op when absent).
    pub fn remove(&mut self, key: &Value, oid: Oid) {
        if let Some(bucket) = self.map.get_mut(key) {
            if let Some(i) = bucket.iter().position(|&o| o == oid) {
                bucket.remove(i);
                self.len -= 1;
                if bucket.is_empty() {
                    self.map.remove(key);
                }
            }
        }
    }

    /// Entries under exactly `key`.
    pub fn lookup(&self, key: &Value) -> Vec<Oid> {
        self.map.get(key).cloned().unwrap_or_default()
    }

    /// Entries whose key lies in `range`, in key order. An empty interval
    /// has none; it never reaches `BTreeMap::range`, which panics when the
    /// bounds cross.
    pub fn range(&self, range: &ValueRange) -> Vec<Oid> {
        if range.is_empty() {
            return Vec::new();
        }
        fn bound(b: &Option<(Value, bool)>) -> Bound<&Value> {
            match b {
                Some((v, true)) => Bound::Included(v),
                Some((v, false)) => Bound::Excluded(v),
                None => Bound::Unbounded,
            }
        }
        let mut out = Vec::new();
        for (_, bucket) in self
            .map
            .range::<Value, _>((bound(&range.lo), bound(&range.hi)))
        {
            out.extend_from_slice(bucket);
        }
        out
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every entry for the given oids (used when objects change
    /// values: callers remove old keys precisely; this is the slow fallback
    /// for bulk deletion).
    pub fn purge(&mut self, oids: &HashSet<Oid>) {
        // Track removals bucket-by-bucket instead of recounting the whole
        // map afterwards (that full walk made purge O(index size) even for
        // a single-oid purge).
        let mut removed = 0usize;
        self.map.retain(|_, bucket| {
            let before = bucket.len();
            bucket.retain(|o| !oids.contains(o));
            removed += before - bucket.len();
            !bucket.is_empty()
        });
        self.len -= removed;
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
    fn insert_lookup_remove() {
        let mut ix = BTreeIndex::new();
        ix.insert(Value::Str("att".into()), oid(1));
        ix.insert(Value::Str("att".into()), oid(2));
        ix.insert(Value::Str("ibm".into()), oid(3));
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.lookup(&Value::Str("att".into())), vec![oid(1), oid(2)]);
        ix.remove(&Value::Str("att".into()), oid(1));
        assert_eq!(ix.lookup(&Value::Str("att".into())), vec![oid(2)]);
        assert_eq!(ix.lookup(&Value::Str("ghost".into())), Vec::<Oid>::new());
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut ix = BTreeIndex::new();
        ix.insert(Value::Int(1), oid(1));
        ix.insert(Value::Int(1), oid(1));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn range_queries() {
        let mut ix = BTreeIndex::new();
        for i in 0..10 {
            ix.insert(Value::Int(i), oid(i as u32));
        }
        let range = |lo, hi| ValueRange { lo, hi };
        let got = ix.range(&range(
            Some((Value::Int(3), true)),
            Some((Value::Int(6), false)),
        ));
        assert_eq!(got, vec![oid(3), oid(4), oid(5)]);
        let got = ix.range(&range(None, Some((Value::Int(1), true))));
        assert_eq!(got, vec![oid(0), oid(1)]);
        // Crossed or touching-open bounds: empty, and no panic.
        let got = ix.range(&range(
            Some((Value::Int(6), false)),
            Some((Value::Int(3), false)),
        ));
        assert!(got.is_empty());
        let got = ix.range(&range(
            Some((Value::Int(3), false)),
            Some((Value::Int(3), false)),
        ));
        assert!(got.is_empty());
        assert_eq!(ix.range(&ValueRange::point(Value::Int(4))), vec![oid(4)]);
    }

    #[test]
    fn purge_bulk() {
        let mut ix = BTreeIndex::new();
        for i in 0..6 {
            ix.insert(Value::Int(i % 2), oid(i as u32));
        }
        let victims: HashSet<Oid> = [oid(0), oid(2), oid(4)].into_iter().collect();
        ix.purge(&victims);
        assert_eq!(ix.len(), 3);
        assert!(ix.lookup(&Value::Int(0)).is_empty());
        assert_eq!(ix.lookup(&Value::Int(1)), vec![oid(1), oid(3), oid(5)]);
    }
}
