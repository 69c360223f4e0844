//! # ode-core
//!
//! The Ode engine: a faithful Rust implementation of the database system
//! described in Agrawal & Gehani, *"ODE (Object Database and Environment):
//! The Language and the Data Model"*, SIGMOD 1989.
//!
//! | Paper facility | Here |
//! |---|---|
//! | persistent objects, `pnew`/`pdelete`, object ids (§2) | [`Transaction::pnew`], [`Transaction::pdelete`], [`ode_model::Oid`] |
//! | clusters = type extents, `create` (§2.5) | [`Database::create_cluster`], cluster-per-class heaps |
//! | sets (§2.6) | set-valued fields, [`Transaction::set_insert`], [`Transaction::iterate_set`] |
//! | `forall … suchthat … by` (§3.1) | [`query::Forall`] |
//! | cluster-hierarchy iteration + `is` (§3.1.1) | deep extents (default), [`Transaction::instance_of`] |
//! | join queries, multiple loop variables (§3.1) | [`query::ForallJoin`] |
//! | fixpoint / recursive queries (§3.2) | [`query::Forall::fixpoint`], [`Transaction::iterate_set`] |
//! | versions: `newversion`, generic & specific refs (§4) | [`version`] module ops on [`Transaction`] |
//! | constraints with abort + rollback (§5) | class constraints, checked per-update and at commit |
//! | once-only & perpetual triggers, weak coupling (§6) | [`Transaction::activate_trigger`], [`trigger`] |
//!
//! Start with [`Database::open`] (durable) or [`Database::in_memory`],
//! define classes with [`ode_model::ClassBuilder`], create clusters, and
//! work inside [`Transaction`]s.

pub mod analyze;
pub mod backup;
mod bucket;
pub mod catalog;
pub mod database;
pub mod error;
pub mod index;
pub mod object;
pub mod oql;
pub mod query;
pub mod read;
mod rules;
pub mod trigger;
pub mod txn;
pub mod typed;
pub mod version;

/// Telemetry primitives and snapshot types (re-export of `ode-obs`).
pub use ode_obs as obs;

/// Static-analysis diagnostics and footprints (re-export of
/// `ode-analyze`).
pub use ode_analyze::{batch_interference, has_errors, Diagnostic, Footprint, Severity};

pub use backup::DumpStats;
pub use database::{
    CallbackFn, CommitObserver, Database, DbConfig, ProfileBucket, SchedStatusFn,
    MAX_PROFILE_BUCKETS,
};
pub use error::{OdeError, Result};
pub use obs::{
    render_spans, FlightRecorder, JoinLevel, LevelAccess, PlanStrategy, QueryProfile, SlowQuery,
    SlowQueryLog, SpanRecord, SpanStage, TelemetrySnapshot, TraceId,
};
pub use ode_model::{parse_statement, Statement};
pub use oql::{parse_query, Binding, ExecResult, Executed, QueryRows, QueryStmt};
pub use query::{Forall, ForallJoin};
pub use read::{ReadContext, ReadTransaction};
pub use trigger::{CommitInfo, CommitNote, FiredTrigger, PendingEvent, TriggerFailure, TriggerId};
pub use txn::{ObjWriter, Transaction};
pub use typed::{OdeInstance, Persistent};

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::database::{Database, DbConfig};
    pub use crate::error::{OdeError, Result};
    pub use crate::read::{ReadContext, ReadTransaction};
    pub use crate::trigger::{CommitInfo, TriggerId};
    pub use crate::txn::{ObjWriter, Transaction};
    pub use crate::typed::{OdeInstance, Persistent};
    pub use ode_analyze::{Diagnostic, Severity};
    pub use ode_model::{ClassBuilder, Expr, ObjState, Oid, SetValue, Type, Value, VersionRef};
    pub use ode_obs::{QueryProfile, TelemetrySnapshot};
}
