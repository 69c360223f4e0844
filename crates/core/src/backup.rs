//! Whole-database export and import.
//!
//! A dump captures everything the catalog and clusters hold: class
//! declarations (with constraints and triggers), cluster and index
//! declarations, every object — including its full version history — and
//! live trigger activations. Importing into an *empty* database rebuilds
//! it all, remapping object identities (oids are physical addresses and
//! never survive a move) and compacting version numbers.
//!
//! This is also the practical answer to schema evolution, which the paper
//! explicitly leaves out (§1): dump, transform the text/classes offline,
//! reload.
//!
//! Format: the crate's own binary codec (`ode_model::encode`), with object
//! references rewritten to *ordinals* (position in the dump) and restored
//! to fresh oids on import. Dangling references (targets deleted before
//! the export) become `null`, and are counted in the report.

use std::collections::HashMap;

use ode_model::encode::{decode_class, encode_class, read_value, write_value, Reader, Writer};
use ode_model::{ModelError, ObjState, Oid, Value, VersionNo, VersionRef};
use ode_storage::RecordId;

use crate::database::Database;
use crate::error::{OdeError, Result};
use crate::object::{decode_record, is_anchor, ObjRecord, NO_PARENT};

/// Dump format magic.
const MAGIC: &str = "ODEDUMP1";

/// Counters reported by [`Database::import`] (and produced during export).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DumpStats {
    /// Classes defined.
    pub classes: usize,
    /// Clusters created.
    pub clusters: usize,
    /// Indexes declared.
    pub indexes: usize,
    /// Objects restored.
    pub objects: usize,
    /// Version records restored (beyond each object's current state).
    pub versions: usize,
    /// Trigger activations restored.
    pub activations: usize,
    /// References that dangled at export time and became `null`.
    pub dangling_refs: usize,
}

/// Synthetic cluster id marking a remapped reference inside a dump.
const ORDINAL_CLUSTER: u32 = u32::MAX;

fn ordinal_oid(ordinal: u32) -> Oid {
    Oid {
        cluster: ORDINAL_CLUSTER,
        rid: RecordId {
            page: ordinal,
            slot: 0,
        },
    }
}

/// Rewrite every object reference in `v` through `map` (export: oid →
/// ordinal; import: ordinal → fresh oid). Unmappable refs become `Null`.
fn remap_value(
    v: &Value,
    map: &mut impl FnMut(Oid, Option<VersionNo>) -> Option<Value>,
    dangling: &mut usize,
) -> Value {
    match v {
        Value::Ref(oid) => match map(*oid, None) {
            Some(v) => v,
            None => {
                *dangling += 1;
                Value::Null
            }
        },
        Value::VRef(vr) => match map(vr.oid, Some(vr.version)) {
            Some(v) => v,
            None => {
                *dangling += 1;
                Value::Null
            }
        },
        Value::Array(items) => Value::Array(
            items
                .iter()
                .map(|i| remap_value(i, map, dangling))
                .collect(),
        ),
        Value::Set(s) => Value::Set(s.iter().map(|i| remap_value(i, map, dangling)).collect()),
        other => other.clone(),
    }
}

fn write_fields(w: &mut Writer, fields: &[Value]) {
    w_u32(w, fields.len() as u32);
    for f in fields {
        write_value(w, f);
    }
}

fn read_fields(r: &mut Reader) -> Result<Vec<Value>> {
    let n = r_u32(r)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(read_value(r)?);
    }
    Ok(out)
}

// Small numeric helpers over the model codec (which exposes value-level
// primitives only).
fn w_u32(w: &mut Writer, v: u32) {
    write_value(w, &Value::Int(v as i64));
}

fn r_u32(r: &mut Reader) -> Result<u32> {
    let v = read_value(r)?.as_int()?;
    u32::try_from(v).map_err(|_| ModelError::Decode(format!("bad u32 {v}")).into())
}

fn w_str(w: &mut Writer, s: &str) {
    write_value(w, &Value::Str(s.to_string()));
}

fn r_str(r: &mut Reader) -> Result<String> {
    Ok(read_value(r)?.as_str()?.to_string())
}

/// One exported version of one object.
struct DumpVersion {
    no: VersionNo,
    parent: VersionNo,
    fields: Vec<Value>,
}

/// One exported object.
struct DumpObject {
    class: String,
    /// `None` for unversioned objects (single current state).
    versions: Option<Vec<DumpVersion>>,
    /// Current state (also version `current` for versioned objects).
    fields: Vec<Value>,
}

impl Database {
    /// Serialize the entire database (schema, clusters, indexes, objects
    /// with version histories, trigger activations) into a self-contained
    /// dump.
    pub fn export(&self) -> Result<Vec<u8>> {
        // Shared apply gate: commits and DDL cannot publish while the
        // dump walks the store, but concurrent readers (and running write
        // transactions short of their publish window) proceed freely.
        // Nothing changes the layout, indexes or activations meanwhile.
        let _apply = self.apply_gate.read();
        let layout = self.layout();
        let mut w = Writer::new();
        w_str(&mut w, MAGIC);

        // 1. Classes, in definition order.
        let classes = layout.schema.classes();
        w_u32(&mut w, classes.len() as u32);
        for def in classes {
            let bytes = encode_class(&layout.schema, def)?;
            w_u32(&mut w, bytes.len() as u32);
            w.append_bytes(&bytes);
        }

        // 2. Clusters + indexes (by class name).
        let mut cluster_names: Vec<String> = Vec::new();
        for def in classes {
            if layout.clusters.contains_key(&def.id) {
                cluster_names.push(def.name.clone());
            }
        }
        w_u32(&mut w, cluster_names.len() as u32);
        for name in &cluster_names {
            w_str(&mut w, name);
        }
        let index_pairs = self.index_names();
        w_u32(&mut w, index_pairs.len() as u32);
        for (class, field) in &index_pairs {
            w_str(&mut w, class);
            w_str(&mut w, field);
        }

        // 3. Enumerate objects (shallow per cluster so each appears once),
        //    assigning ordinals, then write them with remapped refs.
        let mut objects: Vec<(Oid, DumpObject)> = Vec::new();
        let mut ordinal_of: HashMap<Oid, u32> = HashMap::new();
        for name in &cluster_names {
            let class = layout.schema.id_of(name)?;
            let heap = *layout.clusters.get(&class).expect("cluster listed");
            let mut raw: Vec<(RecordId, Vec<u8>)> = Vec::new();
            self.store.scan(heap, &mut |rid, bytes| {
                if is_anchor(bytes) {
                    raw.push((rid, bytes.to_vec()));
                }
                Ok(true)
            })?;
            for (rid, bytes) in raw {
                let oid = Oid { cluster: heap, rid };
                let dump = match decode_record(&bytes)? {
                    ObjRecord::Plain(state) => DumpObject {
                        class: layout.schema.class(state.class)?.name.clone(),
                        versions: None,
                        fields: state.fields,
                    },
                    ObjRecord::Anchor(table) => {
                        let mut versions = Vec::new();
                        let mut current_fields = Vec::new();
                        let mut class_name = String::new();
                        let mut entries = table.entries.clone();
                        entries.sort_by_key(|e| e.no);
                        for e in &entries {
                            let rec = self.store.read(heap, e.rid)?;
                            let ObjRecord::VersionRec { state, .. } = decode_record(&rec)? else {
                                return Err(OdeError::Version(format!(
                                    "anchor {oid} points at a non-version record"
                                )));
                            };
                            if class_name.is_empty() {
                                class_name = layout.schema.class(state.class)?.name.clone();
                            }
                            if e.no == table.current {
                                current_fields = state.fields.clone();
                            }
                            versions.push(DumpVersion {
                                no: e.no,
                                parent: e.parent,
                                fields: state.fields,
                            });
                        }
                        DumpObject {
                            class: class_name,
                            versions: Some(versions),
                            fields: current_fields,
                        }
                    }
                    ObjRecord::VersionRec { .. } => continue,
                };
                ordinal_of.insert(oid, objects.len() as u32);
                objects.push((oid, dump));
            }
        }

        let mut dangling = 0usize;
        let mut to_ordinal = |oid: Oid, version: Option<VersionNo>| -> Option<Value> {
            let ord = *ordinal_of.get(&oid)?;
            Some(match version {
                None => Value::Ref(ordinal_oid(ord)),
                Some(v) => Value::VRef(VersionRef {
                    oid: ordinal_oid(ord),
                    version: v,
                }),
            })
        };
        w_u32(&mut w, objects.len() as u32);
        for (_, obj) in &objects {
            w_str(&mut w, &obj.class);
            match &obj.versions {
                None => {
                    w_u32(&mut w, 0); // unversioned marker
                    let fields: Vec<Value> = obj
                        .fields
                        .iter()
                        .map(|v| remap_value(v, &mut to_ordinal, &mut dangling))
                        .collect();
                    write_fields(&mut w, &fields);
                }
                Some(versions) => {
                    w_u32(&mut w, versions.len() as u32);
                    for v in versions {
                        w_u32(&mut w, v.no);
                        w_u32(&mut w, v.parent);
                        let fields: Vec<Value> = v
                            .fields
                            .iter()
                            .map(|f| remap_value(f, &mut to_ordinal, &mut dangling))
                            .collect();
                        write_fields(&mut w, &fields);
                    }
                }
            }
        }
        // 4. Trigger activations.
        let mut acts: Vec<_> = self.inner.read().activations.values().cloned().collect();
        acts.sort_by_key(|a| a.id);
        let live_acts: Vec<_> = acts
            .iter()
            .filter(|a| ordinal_of.contains_key(&a.oid))
            .collect();
        w_u32(&mut w, live_acts.len() as u32);
        for a in live_acts {
            let ord = ordinal_of[&a.oid];
            w_u32(&mut w, ord);
            w_str(&mut w, &a.trigger);
            let args: Vec<Value> = a
                .args
                .iter()
                .map(|v| remap_value(v, &mut to_ordinal, &mut dangling))
                .collect();
            write_value(&mut w, &Value::Array(args));
        }

        // Trailer: references that already dangled at export time (their
        // targets were deleted); import reports them in its stats.
        w_u32(&mut w, dangling as u32);

        Ok(w.finish())
    }

    /// Rebuild a database from a dump produced by [`Database::export`].
    /// The database must be empty (no classes defined). Object identities
    /// are remapped; version numbers are compacted per object (specific
    /// references inside the data are adjusted to match). Returns what was
    /// restored.
    pub fn import(&self, bytes: &[u8]) -> Result<DumpStats> {
        if self.with_schema(|s| !s.is_empty()) {
            return Err(OdeError::Usage(
                "import requires an empty database (no classes defined)".into(),
            ));
        }
        let mut stats = DumpStats::default();
        let mut r = Reader::new(bytes);
        if r_str(&mut r)? != MAGIC {
            return Err(ModelError::Decode("not an Ode dump".into()).into());
        }

        // 1. Classes.
        let n_classes = r_u32(&mut r)? as usize;
        for _ in 0..n_classes {
            let len = r_u32(&mut r)? as usize;
            let class_bytes = r.take(len)?;
            self.define_class(decode_class(class_bytes)?)?;
            stats.classes += 1;
        }

        // 2. Clusters + indexes.
        for _ in 0..r_u32(&mut r)? {
            self.create_cluster(&r_str(&mut r)?)?;
            stats.clusters += 1;
        }
        for _ in 0..r_u32(&mut r)? {
            let class = r_str(&mut r)?;
            let field = r_str(&mut r)?;
            self.create_index(&class, &field)?;
            stats.indexes += 1;
        }

        // 3. Objects: parse them all first.
        struct InObject {
            class: String,
            versions: Option<Vec<DumpVersion>>,
            fields: Vec<Value>,
        }
        let n_objects = r_u32(&mut r)? as usize;
        let mut parsed: Vec<InObject> = Vec::with_capacity(n_objects.min(1 << 20));
        for _ in 0..n_objects {
            let class = r_str(&mut r)?;
            let n_versions = r_u32(&mut r)? as usize;
            if n_versions == 0 {
                let fields = read_fields(&mut r)?;
                parsed.push(InObject {
                    class,
                    versions: None,
                    fields,
                });
            } else {
                let mut versions = Vec::with_capacity(n_versions);
                for _ in 0..n_versions {
                    let no = r_u32(&mut r)?;
                    let parent = r_u32(&mut r)?;
                    let fields = read_fields(&mut r)?;
                    versions.push(DumpVersion { no, parent, fields });
                }
                versions.sort_by_key(|v| v.no);
                // Current state = highest-numbered version (the engine's
                // invariant: the current version is the newest live one).
                let fields = versions.last().expect("non-empty").fields.clone();
                parsed.push(InObject {
                    class,
                    versions: Some(versions),
                    fields,
                });
            }
        }
        let n_activations = r_u32(&mut r)? as usize;
        let mut activations = Vec::with_capacity(n_activations.min(1 << 20));
        for _ in 0..n_activations {
            let ord = r_u32(&mut r)?;
            let trigger = r_str(&mut r)?;
            let Value::Array(args) = read_value(&mut r)? else {
                return Err(ModelError::Decode("activation args not array".into()).into());
            };
            activations.push((ord, trigger, args));
        }
        let exported_dangling = r_u32(&mut r)? as usize;
        if !r.at_end() {
            return Err(ModelError::Decode("trailing bytes after dump".into()).into());
        }

        // 4. Materialize in one transaction with deferred constraints (the
        //    final commit re-validates everything).
        let mut tx = self.begin();
        tx.defer_constraints();
        // Pass 1: anchors (defaults only) so every ordinal has an oid.
        let mut oid_of: Vec<Oid> = Vec::with_capacity(parsed.len());
        for obj in &parsed {
            oid_of.push(tx.pnew(&obj.class, &[])?);
        }
        // Version-number compaction map per ordinal.
        let mut vmap: Vec<HashMap<VersionNo, VersionNo>> = vec![HashMap::new(); parsed.len()];
        for (i, obj) in parsed.iter().enumerate() {
            if let Some(versions) = &obj.versions {
                for (k, v) in versions.iter().enumerate() {
                    vmap[i].insert(v.no, k as VersionNo);
                }
            } else {
                vmap[i].insert(0, 0);
            }
        }
        let mut dangling = 0usize;
        // Pass 2: states (all ordinals now resolvable).
        for (i, obj) in parsed.iter().enumerate() {
            let oid = oid_of[i];
            let mut from_ordinal = |o: Oid, version: Option<VersionNo>| -> Option<Value> {
                if o.cluster != ORDINAL_CLUSTER {
                    return None; // corrupt/foreign ref: drop it
                }
                let ord = o.rid.page as usize;
                let target = *oid_of.get(ord)?;
                Some(match version {
                    None => Value::Ref(target),
                    Some(v) => {
                        let new_v = *vmap.get(ord)?.get(&v)?;
                        Value::VRef(VersionRef {
                            oid: target,
                            version: new_v,
                        })
                    }
                })
            };
            let apply = |tx: &mut crate::txn::Transaction<'_>,
                         oid: Oid,
                         fields: &[Value],
                         dangling: &mut usize,
                         from_ordinal: &mut dyn FnMut(Oid, Option<VersionNo>) -> Option<Value>|
             -> Result<()> {
                let names: Vec<String> = self.with_schema(|s| {
                    let state = ObjState {
                        class: s.id_of(&obj.class).expect("defined above"),
                        fields: Vec::new(),
                    };
                    s.class(state.class)
                        .map(|c| c.layout.iter().map(|f| f.name.clone()).collect())
                })?;
                tx.update(oid, |w| {
                    for (name, value) in names.iter().zip(fields.iter()) {
                        let v = remap_value(value, &mut |o, ver| from_ordinal(o, ver), dangling);
                        w.set(name, v)?;
                    }
                    Ok(())
                })
            };
            match &obj.versions {
                None => {
                    apply(&mut tx, oid, &obj.fields, &mut dangling, &mut from_ordinal)?;
                }
                Some(versions) => {
                    // First (lowest-numbered) version is the root state.
                    apply(
                        &mut tx,
                        oid,
                        &versions[0].fields,
                        &mut dangling,
                        &mut from_ordinal,
                    )?;
                    for v in &versions[1..] {
                        let new_parent = if v.parent == NO_PARENT {
                            0
                        } else {
                            *vmap[i].get(&v.parent).ok_or_else(|| {
                                OdeError::Version(format!(
                                    "dump references deleted parent version {}",
                                    v.parent
                                ))
                            })?
                        };
                        tx.newversion_from(VersionRef {
                            oid,
                            version: new_parent,
                        })?;
                        apply(&mut tx, oid, &v.fields, &mut dangling, &mut from_ordinal)?;
                        stats.versions += 1;
                    }
                }
            }
            stats.objects += 1;
        }
        // Pass 3: activations.
        for (ord, trigger, args) in activations {
            let Some(&oid) = oid_of.get(ord as usize) else {
                continue;
            };
            let mut from_ordinal = |o: Oid, version: Option<VersionNo>| -> Option<Value> {
                if o.cluster != ORDINAL_CLUSTER {
                    return None;
                }
                let t = *oid_of.get(o.rid.page as usize)?;
                Some(match version {
                    None => Value::Ref(t),
                    Some(v) => Value::VRef(VersionRef { oid: t, version: v }),
                })
            };
            let args: Vec<Value> = args
                .iter()
                .map(|v| remap_value(v, &mut from_ordinal, &mut dangling))
                .collect();
            tx.activate_trigger(oid, &trigger, args)?;
            stats.activations += 1;
        }
        tx.commit()?;
        stats.dangling_refs = dangling + exported_dangling;
        Ok(stats)
    }
}
