//! Engine error type.

use std::fmt;

use ode_analyze::Diagnostic;
use ode_model::ModelError;
use ode_storage::StorageError;

/// Errors surfaced by the Ode engine.
#[derive(Debug)]
pub enum OdeError {
    /// Substrate failure.
    Storage(StorageError),
    /// Schema/expression failure.
    Model(ModelError),
    /// `pnew` into a cluster that was never created (§2.5: "Before creating
    /// a persistent object, the corresponding cluster must exist").
    NoSuchCluster(String),
    /// Named object/oid does not denote a live persistent object.
    NoSuchObject(String),
    /// A constraint evaluated to false: the transaction is aborted and
    /// rolled back (§5, footnote 17).
    ConstraintViolation {
        /// Class declaring the violated constraint.
        class: String,
        /// Constraint name.
        constraint: String,
        /// Constraint source text.
        src: String,
        /// Display form of the offending object's id.
        object: String,
    },
    /// Version-related misuse (deleting the current version, dereferencing
    /// a deleted version, writing a frozen version).
    Version(String),
    /// Trigger-related misuse (unknown trigger, wrong arity, unknown id).
    Trigger(String),
    /// Trigger cascade exceeded the configured depth limit (perpetual
    /// triggers can loop; the paper leaves this unbounded, we do not).
    TriggerCascade {
        /// The configured limit that was hit.
        limit: usize,
    },
    /// Commit-time validation found that another transaction committed a
    /// conflicting change after this one began (optimistic concurrency,
    /// DESIGN.md §13). Transient: the work is rolled back and a retry
    /// against the new state will usually succeed.
    WriteConflict {
        /// What collided, for diagnostics ("object 3:1.0", "extent of
        /// cluster 5", "schema change").
        what: String,
    },
    /// The transaction was already aborted and cannot be used further.
    TransactionAborted,
    /// The static analyzer rejected the statement before any transaction
    /// work (O++ is a compiled language; see DESIGN.md §9). Carries every
    /// diagnostic the pass produced, errors and warnings alike.
    Analysis(Vec<Diagnostic>),
    /// An evaluation error annotated with the statement it came from, so
    /// shell/server users see *where* it failed.
    InStatement {
        /// The originating statement text (truncated for display).
        statement: String,
        /// The underlying failure.
        source: Box<OdeError>,
    },
    /// Generic misuse of the API.
    Usage(String),
}

impl fmt::Display for OdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdeError::Storage(e) => write!(f, "storage: {e}"),
            OdeError::Model(e) => write!(f, "model: {e}"),
            OdeError::NoSuchCluster(name) => {
                write!(f, "cluster `{name}` does not exist (create it before pnew)")
            }
            OdeError::NoSuchObject(what) => write!(f, "no such object: {what}"),
            OdeError::ConstraintViolation {
                class,
                constraint,
                src,
                object,
            } => write!(
                f,
                "constraint `{constraint}` of class `{class}` violated by object {object}: {src}"
            ),
            OdeError::Version(msg) => write!(f, "version error: {msg}"),
            OdeError::Trigger(msg) => write!(f, "trigger error: {msg}"),
            OdeError::TriggerCascade { limit } => {
                write!(f, "trigger cascade exceeded {limit} rounds")
            }
            OdeError::WriteConflict { what } => {
                write!(f, "write conflict on {what} (concurrent commit; retry)")
            }
            OdeError::TransactionAborted => write!(f, "transaction already aborted"),
            OdeError::Analysis(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == ode_analyze::Severity::Error)
                    .count();
                write!(f, "analysis rejected the statement ({errors} error(s))")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            OdeError::InStatement { statement, source } => {
                write!(f, "{source} (in statement `{statement}`)")
            }
            OdeError::Usage(msg) => write!(f, "usage error: {msg}"),
        }
    }
}

impl std::error::Error for OdeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OdeError::Storage(e) => Some(e),
            OdeError::Model(e) => Some(e),
            OdeError::InStatement { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl OdeError {
    /// Is this *transient* — worth retrying after a backoff? True when
    /// the root cause is a retryable [`StorageError`] (see
    /// [`StorageError::is_transient`]) or a commit-time
    /// [`OdeError::WriteConflict`]; the server maps these to the wire
    /// protocol's retryable `Unavailable` kind.
    pub fn is_unavailable(&self) -> bool {
        match self {
            OdeError::Storage(e) => e.is_transient(),
            OdeError::WriteConflict { .. } => true,
            OdeError::InStatement { source, .. } => source.is_unavailable(),
            _ => false,
        }
    }

    /// Has the store failed ([`StorageError::Failed`])? Nothing commits
    /// until the database is reopened (DESIGN.md §13).
    pub fn is_store_failed(&self) -> bool {
        match self {
            OdeError::Storage(StorageError::Failed) => true,
            OdeError::InStatement { source, .. } => source.is_store_failed(),
            _ => false,
        }
    }
}

impl From<StorageError> for OdeError {
    fn from(e: StorageError) -> Self {
        OdeError::Storage(e)
    }
}

impl From<ModelError> for OdeError {
    fn from(e: ModelError) -> Self {
        OdeError::Model(e)
    }
}

/// Result alias for the engine.
pub type Result<T> = std::result::Result<T, OdeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: OdeError = StorageError::NoSuchHeap(4).into();
        assert!(e.to_string().contains("storage"));
        let e: OdeError = ModelError::UnknownClass("x".into()).into();
        assert!(e.to_string().contains("unknown class"));
        let e = OdeError::ConstraintViolation {
            class: "female".into(),
            constraint: "female#0".into(),
            src: "sex == 'f'".into(),
            object: "2:1.0".into(),
        };
        let s = e.to_string();
        assert!(s.contains("female") && s.contains("sex == 'f'"), "{s}");
    }
}
