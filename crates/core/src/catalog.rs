//! The persistent catalog.
//!
//! Heap 1 of the store holds the database's self-description: class
//! declarations, cluster registrations, index declarations, and trigger
//! activations. Each catalog entry is one record; [`crate::Database`]
//! replays the catalog heap in record-id order at open time (classes must
//! be re-defined in their original order for base resolution to succeed —
//! record-id order gives exactly that).

use ode_model::encode::{read_value, write_value, Reader, Writer};
use ode_model::{ModelError, Oid, Value};
use ode_storage::RecordId;
use std::collections::HashMap;

use crate::error::Result;
use crate::trigger::PendingEvent;

/// Heap id of the catalog: the first heap a fresh store creates.
pub const CATALOG_HEAP: u32 = 1;

const K_CLASS: u8 = 1;
const K_CLUSTER: u8 = 2;
const K_INDEX: u8 = 3;
const K_ACTIVATION: u8 = 4;
/// Retired: older stores kept workload counters under this tag. Replay
/// skips such a record, and the tag is never reused.
const K_STATS: u8 = 5;
const K_PENDING: u8 = 6;

/// One catalog entry.
#[derive(Debug, Clone, PartialEq)]
pub enum CatalogRecord {
    /// A class declaration (payload: `ode_model::encode::encode_class`).
    Class(Vec<u8>),
    /// A cluster (type extent): class name → heap id.
    Cluster {
        /// Class whose extent this cluster is.
        class_name: String,
        /// The heap holding the extent.
        heap: u32,
    },
    /// A secondary index declaration.
    Index {
        /// Indexed class (covers its deep extent).
        class_name: String,
        /// Indexed field.
        field: String,
    },
    /// A live trigger activation (§6): `object->T(args)`.
    Activation {
        /// Activation (trigger) id, unique database-wide.
        id: u64,
        /// Subject object.
        oid: Oid,
        /// Trigger name (resolved on the subject's class).
        trigger: String,
        /// Activation arguments, bound to the declaration's parameters.
        args: Vec<Value>,
    },
    /// One fired-trigger event awaiting the decoupled scheduler. Each
    /// event is its own record (a 100k-trigger storm must not be bounded
    /// by the max record size): enqueueing puts the record and
    /// acknowledging deletes it, both in the same store batch as the
    /// commit that fires or runs the action, so the pending set is exactly
    /// as durable as the commits that produced it.
    Pending(PendingEvent),
}

impl CatalogRecord {
    /// Serialize for the catalog heap.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            CatalogRecord::Class(bytes) => {
                let mut out = vec![K_CLASS];
                out.extend_from_slice(bytes);
                out
            }
            CatalogRecord::Cluster { class_name, heap } => {
                let mut out = vec![K_CLUSTER];
                write_value(&mut w, &Value::Str(class_name.clone()));
                write_value(&mut w, &Value::Int(*heap as i64));
                out.extend_from_slice(&w.finish());
                out
            }
            CatalogRecord::Index { class_name, field } => {
                let mut out = vec![K_INDEX];
                write_value(&mut w, &Value::Str(class_name.clone()));
                write_value(&mut w, &Value::Str(field.clone()));
                out.extend_from_slice(&w.finish());
                out
            }
            CatalogRecord::Activation {
                id,
                oid,
                trigger,
                args,
            } => {
                let mut out = vec![K_ACTIVATION];
                write_value(&mut w, &Value::Int(*id as i64));
                write_value(&mut w, &Value::Ref(*oid));
                write_value(&mut w, &Value::Str(trigger.clone()));
                write_value(&mut w, &Value::Array(args.clone()));
                out.extend_from_slice(&w.finish());
                out
            }
            CatalogRecord::Pending(e) => {
                let mut out = vec![K_PENDING];
                write_value(&mut w, &Value::Int(e.id as i64));
                write_value(&mut w, &Value::Int(e.activation as i64));
                write_value(&mut w, &Value::Ref(e.oid));
                write_value(&mut w, &Value::Str(e.trigger.clone()));
                write_value(&mut w, &Value::Array(e.args.clone()));
                write_value(&mut w, &Value::Int(e.depth as i64));
                out.extend_from_slice(&w.finish());
                out
            }
        }
    }

    /// Deserialize from the catalog heap. A record of a retired kind is
    /// `None`: replay passes over it.
    pub fn decode(bytes: &[u8]) -> Result<Option<CatalogRecord>> {
        let Some((&kind, rest)) = bytes.split_first() else {
            return Err(ModelError::Decode("empty catalog record".into()).into());
        };
        let mut r = Reader::new(rest);
        let rec = match kind {
            K_CLASS => CatalogRecord::Class(rest.to_vec()),
            K_CLUSTER => {
                let name = read_value(&mut r)?;
                let heap = read_value(&mut r)?;
                CatalogRecord::Cluster {
                    class_name: name.as_str()?.to_string(),
                    heap: heap.as_int()? as u32,
                }
            }
            K_INDEX => {
                let name = read_value(&mut r)?;
                let field = read_value(&mut r)?;
                CatalogRecord::Index {
                    class_name: name.as_str()?.to_string(),
                    field: field.as_str()?.to_string(),
                }
            }
            K_ACTIVATION => {
                let id = read_value(&mut r)?.as_int()? as u64;
                let oid = read_value(&mut r)?.as_ref_oid()?;
                let trigger = read_value(&mut r)?.as_str()?.to_string();
                let args = match read_value(&mut r)? {
                    Value::Array(a) => a,
                    _ => return Err(ModelError::Decode("activation args not array".into()).into()),
                };
                CatalogRecord::Activation {
                    id,
                    oid,
                    trigger,
                    args,
                }
            }
            K_STATS => return Ok(None),
            K_PENDING => {
                let id = read_value(&mut r)?.as_int()? as u64;
                let activation = read_value(&mut r)?.as_int()? as u64;
                let oid = read_value(&mut r)?.as_ref_oid()?;
                let trigger = read_value(&mut r)?.as_str()?.to_string();
                let args = match read_value(&mut r)? {
                    Value::Array(a) => a,
                    _ => {
                        return Err(ModelError::Decode("pending-event args not array".into()).into())
                    }
                };
                let depth = read_value(&mut r)?.as_int()? as u64;
                CatalogRecord::Pending(PendingEvent {
                    id,
                    activation,
                    oid,
                    trigger,
                    args,
                    depth,
                })
            }
            other => return Err(ModelError::Decode(format!("unknown catalog kind {other}")).into()),
        };
        Ok(Some(rec))
    }
}

/// In-memory map from catalog entries to their record ids, so entries can
/// be updated/deleted later.
#[derive(Debug, Default)]
pub struct CatalogState {
    /// class name → rid of its class record.
    pub class_rids: HashMap<String, RecordId>,
    /// class name → rid of its cluster record.
    pub cluster_rids: HashMap<String, RecordId>,
    /// (class name, field) → rid of the index record.
    pub index_rids: HashMap<(String, String), RecordId>,
    /// activation id → rid of the activation record.
    pub activation_rids: HashMap<u64, RecordId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ode_storage::RecordId;

    fn oid() -> Oid {
        Oid {
            cluster: 2,
            rid: RecordId { page: 3, slot: 4 },
        }
    }

    #[test]
    fn all_kinds_roundtrip() {
        let records = vec![
            CatalogRecord::Class(vec![1, 2, 3, 4]),
            CatalogRecord::Cluster {
                class_name: "person".into(),
                heap: 7,
            },
            CatalogRecord::Index {
                class_name: "stockitem".into(),
                field: "supplier".into(),
            },
            CatalogRecord::Activation {
                id: 99,
                oid: oid(),
                trigger: "reorder".into(),
                args: vec![Value::Int(10), Value::Str("rush".into())],
            },
            CatalogRecord::Pending(PendingEvent {
                id: 12,
                activation: 99,
                oid: oid(),
                trigger: "reorder".into(),
                args: vec![Value::Int(10)],
                depth: 2,
            }),
            CatalogRecord::Pending(PendingEvent {
                id: 13,
                activation: 1,
                oid: oid(),
                trigger: "low_stock".into(),
                args: Vec::new(),
                depth: 0,
            }),
        ];
        for rec in records {
            let bytes = rec.encode();
            assert_eq!(CatalogRecord::decode(&bytes).unwrap(), Some(rec));
        }
    }

    #[test]
    fn retired_stats_record_decodes_to_nothing() {
        // An older store's workload-statistics record: a row count, then
        // (key, reads, writes, scans) per row.
        let mut w = Writer::new();
        write_value(&mut w, &Value::Int(1));
        write_value(&mut w, &Value::Str("cluster:stockitem".into()));
        for n in [100, 20, 3] {
            write_value(&mut w, &Value::Int(n));
        }
        let mut bytes = vec![K_STATS];
        bytes.extend_from_slice(&w.finish());
        assert_eq!(CatalogRecord::decode(&bytes).unwrap(), None);
    }

    #[test]
    fn garbage_rejected() {
        assert!(CatalogRecord::decode(&[]).is_err());
        assert!(CatalogRecord::decode(&[77]).is_err());
        assert!(CatalogRecord::decode(&[K_CLUSTER, 0xFF]).is_err());
    }
}
