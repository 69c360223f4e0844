//! The interference pass: intersect statement footprints to find
//! conflicts *before* anything runs.
//!
//! Two footprints interfere when a write access of one can touch the
//! same objects as a read or write access of the other. "Can touch" is
//! decided conservatively from the key ranges: accesses on the same
//! class are assumed to overlap **unless** some field is constrained in
//! both and the two intervals are provably disjoint — the exact dual of
//! the commit-time narrowed validation in `ode-core` (DESIGN.md §14).
//!
//! * **A301** — two statements in a batch have interfering footprints:
//!   run under one transaction they serialize on the same objects; run
//!   as concurrent transactions one of them is guaranteed to abort.
//! * **A302** — two triggers are write-skew-prone: each one's condition
//!   reads members the other's action writes, so decoupled firing order
//!   decides the outcome (the classic write-skew anomaly, §6).

use std::collections::BTreeSet;

use crate::footprint::{ClusterAccess, Footprint};
use crate::{Diagnostic, Severity, A301, A302};

/// Can `a` and `b` touch the same objects? Disjointness must be proven;
/// everything unprovable counts as overlap.
fn accesses_overlap(a: &ClusterAccess, b: &ClusterAccess) -> bool {
    // Distinct classes only provably share objects through a common
    // hierarchy; footprints record the binding class, and the engine
    // stores every object in its exact class's heap — a deep access of
    // class C touches heaps of C and its subclasses, so identical names
    // are the conservative overlap test at this layer. (Sub/superclass
    // pairs are handled by the runtime's heap-level validation.)
    if a.class != b.class {
        return false;
    }
    // One field pinned to provably disjoint intervals on both sides is
    // enough: no object satisfies both predicates.
    for ra in &a.ranges {
        for rb in &b.ranges {
            if ra.field == rb.field && ra.range.disjoint(&rb.range) {
                return false;
            }
        }
    }
    true
}

/// A write access interferes with any overlapping access; two reads
/// never interfere.
fn interferes(a: &Footprint, b: &Footprint) -> Option<String> {
    for wa in &a.writes {
        for wb in &b.writes {
            if accesses_overlap(wa, wb) {
                return Some(format!("both write `{}`", wa.class));
            }
        }
    }
    for wa in &a.writes {
        for rb in &b.reads {
            if accesses_overlap(wa, rb) {
                return Some(format!(
                    "one writes `{}` while the other reads it",
                    wa.class
                ));
            }
        }
    }
    for wb in &b.writes {
        for ra in &a.reads {
            if accesses_overlap(wb, ra) {
                return Some(format!(
                    "one writes `{}` while the other reads it",
                    wb.class
                ));
            }
        }
    }
    None
}

/// A301 over a batch: every pair of statements whose footprints cannot
/// be proven disjoint. `stmts` carries `(line, footprint)`; lines label
/// the diagnostics.
pub fn batch_interference(stmts: &[(usize, Footprint)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, (line_a, fp_a)) in stmts.iter().enumerate() {
        for (line_b, fp_b) in stmts.iter().skip(i + 1) {
            if let Some(why) = interferes(fp_a, fp_b) {
                diags.push(Diagnostic::new(
                    A301,
                    Severity::Warning,
                    format!(
                        "statements at lines {line_a} and {line_b} interfere: {why}; \
                         run concurrently one is guaranteed to abort \
                         (disjoint `suchthat` ranges would decouple them)"
                    ),
                ));
            }
        }
    }
    diags
}

/// One trigger's footprint as member sets: the members its condition
/// reads and the members its `Assign` actions write.
pub(crate) struct TriggerMembers<'a> {
    pub(crate) name: &'a str,
    pub(crate) perpetual: bool,
    pub(crate) reads: BTreeSet<&'a str>,
    pub(crate) writes: BTreeSet<&'a str>,
}

/// A302 over a class's triggers: every pair that reads the other's
/// writes *in both directions* is write-skew-prone under decoupled
/// firing. Pairs where both triggers are perpetual are skipped: a mutual
/// read/write crossing between perpetual triggers is a two-trigger cycle,
/// which the A009 cycle check already reports.
pub(crate) fn trigger_write_skew(triggers: &[TriggerMembers<'_>]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, a) in triggers.iter().enumerate() {
        for b in triggers.iter().skip(i + 1) {
            if a.perpetual && b.perpetual {
                continue;
            }
            let a_reads_b: Vec<&str> = a.reads.intersection(&b.writes).copied().collect();
            let b_reads_a: Vec<&str> = b.reads.intersection(&a.writes).copied().collect();
            if !a_reads_b.is_empty() && !b_reads_a.is_empty() {
                let fmt = |xs: &[&str]| {
                    xs.iter()
                        .map(|s| format!("`{s}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                let (name_a, name_b) = (a.name, b.name);
                diags.push(Diagnostic::new(
                    A302,
                    Severity::Warning,
                    format!(
                        "triggers `{name_a}` and `{name_b}` are write-skew-prone: \
                         `{name_a}` reads {} which `{name_b}` writes, and `{name_b}` \
                         reads {} which `{name_a}` writes; decoupled firing order \
                         decides the outcome",
                        fmt(&a_reads_b),
                        fmt(&b_reads_a),
                    ),
                ));
            }
        }
    }
    diags
}
