//! On-disk object layout: anchor records and version records.
//!
//! Every persistent object owns one **anchor record** in its cluster's
//! heap; the anchor's record id *is* the object's identity (its oid never
//! changes). Unversioned objects — the common case — store their state
//! inline in the anchor. The first `newversion` (§4) migrates the object to
//! the indirect layout: the anchor holds a **version table** (version
//! number → record id + parent version), and each version's state lives in
//! its own version record in the same heap.
//!
//! This split keeps generic-reference dereference O(1) (anchor → current
//! version record) while specific references (pinned versions) are a table
//! lookup — figure F5 measures exactly this.
//!
//! Record tags (first payload byte) let cluster scans distinguish object
//! anchors from version records, which must not be enumerated as objects.

use ode_model::encode::{decode_object, encode_object};
use ode_model::{ModelError, ObjState, VersionNo};
use ode_storage::RecordId;

use crate::error::{OdeError, Result};

/// Tag: anchor of an unversioned object (state inline).
pub const TAG_PLAIN: u8 = 0x01;
/// Tag: anchor of a versioned object (version table inline).
pub const TAG_VERSIONED: u8 = 0x02;
/// Tag: a version record (state of one version).
pub const TAG_VREC: u8 = 0x03;

/// Parent marker for a root version.
pub const NO_PARENT: VersionNo = VersionNo::MAX;

/// One row of an anchor's version table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionEntry {
    /// Version number (dense, assigned in creation order).
    pub no: VersionNo,
    /// Record id of the version record holding this version's state.
    pub rid: RecordId,
    /// Version this one was derived from ([`NO_PARENT`] for the root).
    /// Linear histories have `parent == no - 1`; trees branch (§4 footnote
    /// 15 / the Ode versioning paper).
    pub parent: VersionNo,
}

/// A versioned object's table, stored in its anchor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VersionTable {
    /// The current (updatable, default-dereferenced) version.
    pub current: VersionNo,
    /// All live versions, in creation order.
    pub entries: Vec<VersionEntry>,
}

impl VersionTable {
    /// Look up a version's table row.
    pub fn entry(&self, no: VersionNo) -> Option<&VersionEntry> {
        self.entries.iter().find(|e| e.no == no)
    }

    /// Record id of the current version's record.
    pub fn current_rid(&self) -> Result<RecordId> {
        self.entry(self.current)
            .map(|e| e.rid)
            .ok_or_else(|| OdeError::Version("anchor table missing its current version".into()))
    }

    /// Next unused version number.
    pub fn next_no(&self) -> VersionNo {
        self.entries.iter().map(|e| e.no + 1).max().unwrap_or(0)
    }

    /// Version numbers in creation order.
    pub fn versions(&self) -> Vec<VersionNo> {
        self.entries.iter().map(|e| e.no).collect()
    }

    /// Children of `no` (versions derived from it).
    pub fn children(&self, no: VersionNo) -> Vec<VersionNo> {
        self.entries
            .iter()
            .filter(|e| e.parent == no)
            .map(|e| e.no)
            .collect()
    }
}

/// Decoded payload of a cluster-heap record.
#[derive(Debug, Clone)]
pub enum ObjRecord {
    /// Unversioned anchor: the state is right here.
    Plain(ObjState),
    /// Versioned anchor: state lives in version records.
    Anchor(VersionTable),
    /// One version's state.
    VersionRec {
        /// Which version this record holds.
        no: VersionNo,
        /// The state.
        state: ObjState,
    },
}

/// Encode an unversioned anchor.
pub fn encode_plain(state: &ObjState) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(TAG_PLAIN);
    out.extend_from_slice(&encode_object(state));
    out
}

/// Encode a versioned anchor.
pub fn encode_anchor(table: &VersionTable) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 14 * table.entries.len());
    out.push(TAG_VERSIONED);
    out.extend_from_slice(&table.current.to_le_bytes());
    out.extend_from_slice(&(table.entries.len() as u32).to_le_bytes());
    for e in &table.entries {
        out.extend_from_slice(&e.no.to_le_bytes());
        out.extend_from_slice(&e.rid.to_bytes());
        out.extend_from_slice(&e.parent.to_le_bytes());
    }
    out
}

/// Encode a version record.
pub fn encode_vrec(no: VersionNo, state: &ObjState) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(TAG_VREC);
    out.extend_from_slice(&no.to_le_bytes());
    out.extend_from_slice(&encode_object(state));
    out
}

/// Decode any cluster-heap record.
pub fn decode_record(bytes: &[u8]) -> Result<ObjRecord> {
    let Some((&tag, rest)) = bytes.split_first() else {
        return Err(ModelError::Decode("empty object record".into()).into());
    };
    match tag {
        TAG_PLAIN => Ok(ObjRecord::Plain(decode_object(rest)?)),
        TAG_VERSIONED => {
            let mut entries = Vec::new();
            let current = walk_table(rest, |_, e| entries.push(e))?;
            Ok(ObjRecord::Anchor(VersionTable { current, entries }))
        }
        TAG_VREC => {
            if rest.len() < 4 {
                return Err(ModelError::Decode("truncated version record".into()).into());
            }
            let no = u32::from_le_bytes(rest[..4].try_into().unwrap());
            Ok(ObjRecord::VersionRec {
                no,
                state: decode_object(&rest[4..])?,
            })
        }
        other => Err(ModelError::Decode(format!("unknown object tag {other}")).into()),
    }
}

/// Walk the version table in a versioned anchor's body (the bytes after
/// its tag), handing the current version number and each entry to `f` in
/// order, with every framing check [`decode_record`] makes. Returns the
/// current version number.
fn walk_table(rest: &[u8], mut f: impl FnMut(VersionNo, VersionEntry)) -> Result<VersionNo> {
    let u32_at = |i: usize| -> Result<u32> {
        rest.get(i..i + 4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
            .ok_or_else(|| ModelError::Decode("truncated anchor table".into()).into())
    };
    let current = u32_at(0)?;
    let count = u32_at(4)? as usize;
    let mut at = 8;
    for _ in 0..count {
        let no = u32_at(at)?;
        let rid = rest
            .get(at + 4..at + 10)
            .and_then(RecordId::from_bytes)
            .ok_or_else(|| OdeError::from(ModelError::Decode("truncated anchor rid".into())))?;
        let parent = u32_at(at + 10)?;
        f(current, VersionEntry { no, rid, parent });
        at += 14;
    }
    if at != rest.len() {
        return Err(ModelError::Decode("trailing bytes after anchor".into()).into());
    }
    Ok(current)
}

/// The record id of the current version in a versioned anchor's table
/// (the anchor's bytes after its tag), read without building the table:
/// the checks and errors of [`decode_record`] and
/// [`VersionTable::current_rid`].
pub(crate) fn current_rid(table: &[u8]) -> Result<RecordId> {
    let mut found = None;
    walk_table(table, |current, e| {
        if found.is_none() && e.no == current {
            found = Some(e.rid);
        }
    })?;
    found.ok_or_else(|| OdeError::Version("anchor table missing its current version".into()))
}

/// Is this record an object anchor (vs. a version record)? Used by cluster
/// scans to skip version records without fully decoding them.
pub fn is_anchor(bytes: &[u8]) -> bool {
    matches!(bytes.first(), Some(&TAG_PLAIN) | Some(&TAG_VERSIONED))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_model::{ClassId, Value};

    fn state() -> ObjState {
        ObjState {
            class: ClassId(3),
            fields: vec![Value::Int(5), Value::Str("x".into())],
        }
    }

    #[test]
    fn plain_roundtrip() {
        let bytes = encode_plain(&state());
        assert!(is_anchor(&bytes));
        match decode_record(&bytes).unwrap() {
            ObjRecord::Plain(s) => assert_eq!(s, state()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn anchor_roundtrip() {
        let table = VersionTable {
            current: 2,
            entries: vec![
                VersionEntry {
                    no: 0,
                    rid: RecordId { page: 1, slot: 1 },
                    parent: NO_PARENT,
                },
                VersionEntry {
                    no: 1,
                    rid: RecordId { page: 1, slot: 2 },
                    parent: 0,
                },
                VersionEntry {
                    no: 2,
                    rid: RecordId { page: 2, slot: 0 },
                    parent: 1,
                },
            ],
        };
        let bytes = encode_anchor(&table);
        assert!(is_anchor(&bytes));
        match decode_record(&bytes).unwrap() {
            ObjRecord::Anchor(t) => assert_eq!(t, table),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn vrec_roundtrip_and_not_anchor() {
        let bytes = encode_vrec(7, &state());
        assert!(!is_anchor(&bytes));
        match decode_record(&bytes).unwrap() {
            ObjRecord::VersionRec { no, state: s } => {
                assert_eq!(no, 7);
                assert_eq!(s, state());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn table_queries() {
        let table = VersionTable {
            current: 1,
            entries: vec![
                VersionEntry {
                    no: 0,
                    rid: RecordId { page: 1, slot: 1 },
                    parent: NO_PARENT,
                },
                VersionEntry {
                    no: 1,
                    rid: RecordId { page: 1, slot: 2 },
                    parent: 0,
                },
                VersionEntry {
                    no: 2,
                    rid: RecordId { page: 1, slot: 3 },
                    parent: 0,
                },
            ],
        };
        assert_eq!(table.next_no(), 3);
        assert_eq!(table.versions(), vec![0, 1, 2]);
        assert_eq!(table.children(0), vec![1, 2]);
        assert_eq!(table.current_rid().unwrap(), RecordId { page: 1, slot: 2 });
        assert!(table.entry(9).is_none());
    }

    #[test]
    fn corrupt_records_rejected() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[0x99, 1, 2]).is_err());
        assert!(decode_record(&[TAG_VERSIONED, 1]).is_err());
        assert!(decode_record(&[TAG_VREC, 1, 0, 0]).is_err());
        let mut good = encode_anchor(&VersionTable::default());
        good.push(0);
        assert!(decode_record(&good).is_err());
    }
}
