//! Positions bucketed by an exact key: the one structure behind a
//! hash-built join level ([`crate::query`]) and a write set's key maps
//! ([`crate::txn`]). Each holds ascending positions — extent order for a
//! join level, creation order for a write set — so a probe answers in the
//! order a walk would have visited them.

use std::borrow::Cow;
use std::collections::HashMap;

use ode_model::Value;

/// Can `v` key a hash bucket? `==` is an equivalence relation on these
/// values, so one bucket holds every member equal to a probe. From ±2⁵³
/// on, an int equals the float nearest it, and so do its neighbours, which
/// differ from each other; arrays and sets compare their elements the
/// same way.
pub(crate) fn exact_key(v: &Value) -> bool {
    match v {
        Value::Int(i) => i.unsigned_abs() < 1 << 53,
        Value::Float(x) => x.abs() < 9_007_199_254_740_992.0 || x.is_nan(),
        Value::Array(_) | Value::Set(_) => false,
        _ => true,
    }
}

/// Ascending positions filed by key. A position without a usable key —
/// its key is not exact, or reading it raised — is unkeyed, and every
/// probe returns it.
#[derive(Default)]
pub(crate) struct Buckets {
    keyed: HashMap<Value, Vec<u32>>,
    unkeyed: Vec<u32>,
}

impl Buckets {
    /// File position `i` under `key` (`None`: unkeyed). A position past
    /// every other one is appended; an earlier one is inserted in order.
    pub(crate) fn insert(&mut self, key: Option<Value>, i: u32) {
        let list = match key {
            Some(k) => self.keyed.entry(k).or_default(),
            None => &mut self.unkeyed,
        };
        let at = list.partition_point(|&j| j < i);
        list.insert(at, i);
    }

    /// Take position `i` out of `key`'s list (`None`: the unkeyed one).
    /// A key left with no position is dropped.
    pub(crate) fn remove(&mut self, key: Option<&Value>, i: u32) {
        let Some(k) = key else {
            if let Ok(at) = self.unkeyed.binary_search(&i) {
                self.unkeyed.remove(at);
            }
            return;
        };
        if let Some(list) = self.keyed.get_mut(k) {
            if let Ok(at) = list.binary_search(&i) {
                list.remove(at);
            }
            if list.is_empty() {
                self.keyed.remove(k);
            }
        }
    }

    /// The positions filed under `key`, and the unkeyed ones, ascending.
    pub(crate) fn probe(&self, key: &Value) -> Cow<'_, [u32]> {
        let keyed = self.keyed.get(key).map_or(&[][..], Vec::as_slice);
        if self.unkeyed.is_empty() {
            return Cow::Borrowed(keyed);
        }
        let mut all = [keyed, self.unkeyed.as_slice()].concat();
        all.sort_unstable();
        Cow::Owned(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_merge_the_unkeyed_in_order_and_removals_drop_empty_keys() {
        let mut b = Buckets::default();
        b.insert(Some(Value::Int(1)), 0);
        b.insert(None, 1);
        b.insert(Some(Value::Float(1.0)), 3);
        b.insert(Some(Value::Int(2)), 2);
        // Re-filing an earlier position keeps the list ascending.
        b.remove(Some(&Value::Int(1)), 0);
        b.insert(Some(Value::Int(1)), 0);
        assert_eq!(&*b.probe(&Value::Int(1)), &[0, 1, 3]);
        assert_eq!(&*b.probe(&Value::Int(9)), &[1]);
        b.remove(None, 1);
        b.remove(Some(&Value::Int(2)), 2);
        assert!(!b.keyed.contains_key(&Value::Int(2)));
        assert_eq!(&*b.probe(&Value::Int(2)), &[] as &[u32]);
    }
}
