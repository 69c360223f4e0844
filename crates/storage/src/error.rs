//! Error type shared by every storage component.

use std::fmt;

/// Errors surfaced by the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error, tagged with the operation that failed.
    Io {
        /// Short description of what the store was doing ("read page", …).
        context: &'static str,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A page or WAL record failed its CRC check.
    Corrupt(String),
    /// A record id that does not name a live record.
    NoSuchRecord { heap: u32, page: u32, slot: u16 },
    /// A heap id that does not name a live heap.
    NoSuchHeap(u32),
    /// A record larger than a page can hold even after forwarding.
    RecordTooLarge { size: usize, max: usize },
    /// The data file does not look like an Ode store.
    BadMagic,
    /// The on-disk format version is newer than this library understands.
    UnsupportedVersion(u32),
    /// An internal invariant was violated; indicates a bug, not user error.
    Internal(String),
    /// An fsync failed, so nothing later proves the log intact: the store
    /// refuses every write until it is reopened and recovers from the log
    /// (DESIGN.md §13). Reads keep working.
    Failed,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { context, source } => {
                write!(f, "i/o error while trying to {context}: {source}")
            }
            StorageError::Corrupt(what) => write!(f, "corruption detected: {what}"),
            StorageError::NoSuchRecord { heap, page, slot } => {
                write!(f, "no record at heap {heap}, page {page}, slot {slot}")
            }
            StorageError::NoSuchHeap(h) => write!(f, "no heap with id {h}"),
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds the maximum of {max}")
            }
            StorageError::BadMagic => write!(f, "not an Ode data file (bad magic)"),
            StorageError::UnsupportedVersion(v) => {
                write!(f, "on-disk format version {v} is not supported")
            }
            StorageError::Internal(msg) => write!(f, "internal storage invariant violated: {msg}"),
            StorageError::Failed => write!(f, "store failed; reopen"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StorageError {
    /// Wrap an [`std::io::Error`] with a short context string.
    pub fn io(context: &'static str, source: std::io::Error) -> Self {
        StorageError::Io { context, source }
    }

    /// Is this failure worth retrying? Operating-system I/O errors
    /// (ENOSPC, a flaky disk) can clear up; after a failed WAL write the
    /// log rolls its tail back to the last complete group, so re-issuing
    /// the identical batch is safe (DESIGN.md §10). A failed store,
    /// corruption, missing records, and format errors are permanent.
    pub fn is_transient(&self) -> bool {
        matches!(self, StorageError::Io { .. })
    }
}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = StorageError::io("read page", std::io::Error::other("boom"));
        let s = e.to_string();
        assert!(s.contains("read page"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn display_no_such_record() {
        let e = StorageError::NoSuchRecord {
            heap: 3,
            page: 7,
            slot: 2,
        };
        assert_eq!(e.to_string(), "no record at heap 3, page 7, slot 2");
    }

    #[test]
    fn error_source_is_preserved() {
        use std::error::Error;
        let e = StorageError::io("sync wal", std::io::Error::other("disk gone"));
        assert!(e.source().is_some());
        let e2 = StorageError::BadMagic;
        assert!(e2.source().is_none());
    }
}
