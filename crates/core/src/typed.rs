//! Typed Rust facade over the dynamic object model.
//!
//! O++ programs manipulate persistent objects with the host language's own
//! types; the Rust analogue is a struct implementing [`OdeInstance`], which
//! maps between the struct and the engine's field/value representation.
//! [`Persistent<T>`] is a typed wrapper around an [`Oid`] — the moral
//! equivalent of the paper's `persistent stockitem *` pointer type.
//!
//! ```no_run
//! use ode_core::prelude::*;
//! use ode_core::typed::OdeInstance;
//!
//! struct StockItem {
//!     name: String,
//!     quantity: i64,
//! }
//!
//! impl OdeInstance for StockItem {
//!     fn class_name() -> &'static str {
//!         "stockitem"
//!     }
//!     fn to_fields(&self) -> Vec<(&'static str, Value)> {
//!         vec![
//!             ("name", Value::from(self.name.as_str())),
//!             ("quantity", Value::Int(self.quantity)),
//!         ]
//!     }
//!     fn from_fields(get: &dyn Fn(&str) -> Option<Value>) -> ode_core::Result<Self> {
//!         Ok(StockItem {
//!             name: get("name").and_then(|v| v.as_str().ok().map(String::from)).unwrap_or_default(),
//!             quantity: get("quantity").and_then(|v| v.as_int().ok()).unwrap_or(0),
//!         })
//!     }
//! }
//! ```

use std::marker::PhantomData;

use ode_model::{Oid, Value};

use crate::error::Result;
use crate::txn::Transaction;

/// A Rust type mirroring an Ode class.
pub trait OdeInstance: Sized {
    /// The Ode class this type maps to.
    fn class_name() -> &'static str;

    /// Project the struct into `(field, value)` pairs (used by `pnew` and
    /// store-back).
    fn to_fields(&self) -> Vec<(&'static str, Value)>;

    /// Rebuild the struct from field values. `get` returns `None` for
    /// unknown field names.
    fn from_fields(get: &dyn Fn(&str) -> Option<Value>) -> Result<Self>;
}

/// A typed persistent pointer — `persistent T*` in the paper's notation.
pub struct Persistent<T: OdeInstance> {
    /// The underlying object identity.
    pub oid: Oid,
    _marker: PhantomData<fn() -> T>,
}

impl<T: OdeInstance> Clone for Persistent<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: OdeInstance> Copy for Persistent<T> {}

impl<T: OdeInstance> std::fmt::Debug for Persistent<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Persistent<{}>({})", T::class_name(), self.oid)
    }
}

impl<T: OdeInstance> PartialEq for Persistent<T> {
    fn eq(&self, other: &Self) -> bool {
        self.oid == other.oid
    }
}

impl<T: OdeInstance> Eq for Persistent<T> {}

impl<T: OdeInstance> Persistent<T> {
    /// Wrap a raw oid (checked on first access).
    pub fn from_oid(oid: Oid) -> Persistent<T> {
        Persistent {
            oid,
            _marker: PhantomData,
        }
    }
}

impl<'db> Transaction<'db> {
    /// Typed `pnew`: persist a Rust value as a new object of its class.
    pub fn pnew_typed<T: OdeInstance>(&mut self, value: &T) -> Result<Persistent<T>> {
        let fields = value.to_fields();
        let inits: Vec<(&str, Value)> = fields.iter().map(|(n, v)| (*n, v.clone())).collect();
        let oid = self.pnew(T::class_name(), &inits)?;
        Ok(Persistent::from_oid(oid))
    }

    /// Typed read: materialize the object as its Rust type.
    pub fn fetch<T: OdeInstance>(&self, p: Persistent<T>) -> Result<T> {
        let state = self.read(p.oid)?;
        let layout = self.db.layout();
        let def = layout.schema.class(state.class)?;
        let get = |name: &str| -> Option<Value> {
            def.field_index(name).ok().map(|i| state.fields[i].clone())
        };
        T::from_fields(&get)
    }

    /// Typed write-back: overwrite the object's fields from the Rust value.
    pub fn store_typed<T: OdeInstance>(&mut self, p: Persistent<T>, value: &T) -> Result<()> {
        let fields = value.to_fields();
        self.update(p.oid, |w| {
            for (name, v) in fields {
                w.set(name, v)?;
            }
            Ok(())
        })
    }
}
