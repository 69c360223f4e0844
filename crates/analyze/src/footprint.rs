//! The footprint pass: infer, per statement, a sound over-approximation
//! of the clusters it reads and writes — which classes, deep or shallow,
//! which index could answer it, which key ranges the predicate pins, and
//! which fields an update assigns.
//!
//! A footprint is a *proof obligation carrier*: everything a statement
//! can read is inside `reads`, everything it can write inside `writes`.
//! The interference analyzer ([`crate::interfere`]) intersects footprints
//! to find statically-guaranteed conflicts, and the engine narrows its
//! commit-time validation to the proven key ranges (DESIGN.md §14).

use ode_model::range::{
    extract_field_ranges, extract_qualified_ranges, literal_of, probe_range, FieldRange, ValueRange,
};
use ode_model::{QueryStmt, Schema, Statement};

use crate::CatalogView;

/// One cluster touched by a statement: the class (hence its extent
/// heaps), how much of the hierarchy, the index that could answer it,
/// the key ranges the predicate pins, and — for writes — the assigned
/// fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterAccess {
    /// Class whose extent is touched.
    pub class: String,
    /// Deep (hierarchy) access, or shallow (`only`).
    pub deep: bool,
    /// Indexed field an index probe could answer this access from.
    pub index: Option<String>,
    /// Per-field intervals the predicate implies for every touched
    /// object (empty = whole extent).
    pub ranges: Vec<FieldRange>,
    /// Fields written (`update … set`, `pnew` initializers). Empty for
    /// reads and for whole-object writes (`delete`).
    pub fields: Vec<String>,
}

impl ClusterAccess {
    fn read(class: &str, deep: bool) -> ClusterAccess {
        ClusterAccess {
            class: class.to_string(),
            deep,
            index: None,
            ranges: Vec::new(),
            fields: Vec::new(),
        }
    }
}

impl std::fmt::Display for ClusterAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.deep {
            write!(f, "only ")?;
        }
        write!(f, "{}", self.class)?;
        if !self.ranges.is_empty() {
            let parts: Vec<String> = self.ranges.iter().map(|r| r.to_string()).collect();
            write!(f, "[{}]", parts.join(", "))?;
        }
        if let Some(field) = &self.index {
            write!(f, " via index({field})")?;
        }
        if !self.fields.is_empty() {
            write!(f, " set {}", self.fields.join(", "))?;
        }
        Ok(())
    }
}

/// A statement's inferred read/write footprint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Footprint {
    /// Clusters (and ranges) the statement may read.
    pub reads: Vec<ClusterAccess>,
    /// Clusters (and ranges/fields) the statement may write.
    pub writes: Vec<ClusterAccess>,
}

impl Footprint {
    /// Is the statement proven to write nothing? A read-only statement
    /// needs no epoch claim, no commit validation, and can run on the
    /// snapshot read path.
    pub fn read_only(&self) -> bool {
        self.writes.is_empty()
    }
}

impl std::fmt::Display for Footprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let join = |accs: &[ClusterAccess]| -> String {
            if accs.is_empty() {
                "-".to_string()
            } else {
                accs.iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            }
        };
        write!(
            f,
            "reads {}; writes {}{}",
            join(&self.reads),
            join(&self.writes),
            if self.read_only() { " (read-only)" } else { "" }
        )
    }
}

/// Infer the footprint of one statement; `None` for statements without
/// an analyzable access shape (DDL, trigger activation). Sound by
/// construction: ranges come from [`extract_field_ranges`], which only
/// narrows on conjuncts the predicate implies; anything unanalyzable
/// widens to whole-extent.
pub fn footprint_of(
    schema: &Schema,
    catalog: Option<&CatalogView>,
    stmt: &Statement,
) -> Option<Footprint> {
    Some(match stmt {
        Statement::Forall(q) | Statement::Explain(q) => Footprint {
            reads: read_accesses(schema, catalog, q),
            writes: Vec::new(),
        },
        Statement::Update { target, assigns } => {
            let reads = read_accesses(schema, catalog, target);
            let mut write = reads[0].clone();
            write.fields = assigns.iter().map(|(f, _)| f.clone()).collect();
            write.fields.sort();
            write.fields.dedup();
            // An assigned field's range only holds for the *pre-write*
            // state (`suchthat k == 1 set k = 5` writes objects whose
            // post-state escapes [1,1]); drop those ranges so no
            // disjointness proof leans on them.
            write.ranges.retain(|r| !write.fields.contains(&r.field));
            Footprint {
                reads,
                writes: vec![write],
            }
        }
        Statement::Delete(target) => {
            let reads = read_accesses(schema, catalog, target);
            let write = reads[0].clone();
            Footprint {
                reads,
                writes: vec![write],
            }
        }
        Statement::Pnew { class, inits } => {
            let mut ranges = Vec::new();
            let mut fields = Vec::new();
            for (field, expr) in inits.iter() {
                fields.push(field.clone());
                if let Some(v) = literal_of(expr) {
                    ranges.push(FieldRange {
                        field: field.clone(),
                        range: ValueRange::point(v),
                    });
                }
            }
            fields.sort();
            fields.dedup();
            Footprint {
                reads: Vec::new(),
                writes: vec![ClusterAccess {
                    class: class.to_string(),
                    deep: false,
                    index: None,
                    ranges,
                    fields,
                }],
            }
        }
        Statement::Class(_)
        | Statement::CreateCluster { .. }
        | Statement::DestroyCluster { .. }
        | Statement::CreateIndex { .. }
        | Statement::Activate { .. }
        | Statement::Deactivate { .. } => return None,
    })
}

/// Per-binding read accesses for the query-shaped statements (one per
/// binding, so never empty). The analyzer's A101 and A102 lints read
/// them too.
pub(crate) fn read_accesses(
    schema: &Schema,
    catalog: Option<&CatalogView>,
    query: &QueryStmt,
) -> Vec<ClusterAccess> {
    let single = query.bindings.len() == 1;
    query
        .bindings
        .iter()
        .map(|b| {
            let mut acc = ClusterAccess::read(&b.cluster, b.deep);
            if let Some(pred) = &query.suchthat {
                // In a join, a bare identifier could resolve against any
                // binding — only `var.field` references are attributable.
                acc.ranges = if single {
                    extract_field_ranges(pred, Some(&b.var))
                } else {
                    extract_qualified_ranges(pred, &b.var)
                };
                // The engine probes an index only for a single binding over
                // the deep extent (committed index entries summarize the
                // hierarchy), and picks it by the same rule as here. A join
                // streams or hash-builds every binding's extent.
                if single && b.deep {
                    if let (Some(cat), Ok(def)) = (catalog, schema.class_by_name(&b.cluster)) {
                        acc.index = probe_range(&acc.ranges, |f| cat.is_indexed(def.id, f))
                            .map(|r| r.field.clone());
                    }
                }
            }
            acc
        })
        .collect()
}
