//! # ode-model
//!
//! The O++ data model from Agrawal & Gehani's SIGMOD 1989 Ode paper,
//! independent of any storage engine:
//!
//! * [`oid`] — object identity: "a database is a collection of persistent
//!   objects, each identified by a unique identifier" (§2), plus version
//!   references (§4),
//! * [`value`] — runtime values, including sets (§2.6) and object
//!   references, with a total order so values can key indexes and drive
//!   `by` clauses,
//! * [`class`] / [`schema`] — class definitions with data encapsulation
//!   and *multiple inheritance* (§1), C3-linearized into a flat field
//!   layout with shared diamond bases; constraints (§5) and trigger
//!   declarations (§6) attach to classes,
//! * [`expr`] / [`parser`] / [`mod@bind`] / [`eval`] — the expression language
//!   standing in for O++'s embedded C++ expressions: it powers `suchthat`
//!   and `by` clauses (§3.1), constraint bodies (§5), and trigger
//!   conditions (§6); an expression is bound once (names to slots) and the
//!   bound form is what runs,
//! * [`stmt`] — the statement surface: one [`parse_statement`] turning a
//!   line into the typed [`Statement`] every later phase works on,
//! * [`encode`] — the binary catalog/object codec used by the engine.
//!
//! The engine built on top lives in `ode-core`.

pub mod bind;
pub mod class;
pub mod ddl;
pub mod encode;
pub mod error;
pub mod eval;
pub mod expr;
pub mod oid;
pub mod parser;
pub mod range;
pub mod schema;
pub mod stmt;
pub mod value;

pub use bind::{bind, BoundExpr, Scope, SlotMask};
pub use class::{ClassBuilder, ClassDef, ClassId, FieldDef, TriggerAction, TriggerDecl};
pub use ddl::parse_classes;
pub use error::{ModelError, Result};
pub use eval::{BoundVar, EvalCtx, Frame, Resolver};
pub use expr::{BinOp, Expr, UnOp};
pub use oid::{Oid, VersionNo, VersionRef};
pub use parser::parse_expr;
pub use range::{
    extract_field_ranges, extract_qualified_ranges, probe_range, FieldRange, ValueRange,
};
pub use schema::Schema;
pub use stmt::{parse_statement, Binding, QueryStmt, Statement};
pub use value::{ObjState, SetValue, Type, Value};
