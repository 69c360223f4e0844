//! Schema-level analysis, run at DDL time: constraint contradictions
//! across a class and its superclasses (§5 constraint-based
//! specialization), perpetual-trigger dependency cycles (§6), type
//! checks over constraint and trigger expressions, and the §3.2
//! fixpoint-safety check.

use std::collections::HashMap;

use ode_model::{
    bind, extract_field_ranges, BinOp, Binding, ClassId, Expr, Schema, Scope, Statement,
    TriggerAction,
};

use crate::infer::{self, SType, Statics};
use crate::interfere::TriggerMembers;
use crate::{
    contradiction, dedup, interfere, Diagnostic, Severity, A002, A003, A005, A007, A008, A009,
    A010, A201,
};

/// Analyze a just-defined class (and everything it inherits). Called by
/// the engine after the definition has been applied to a scratch copy of
/// the schema, so the class is fully linearized here but nothing has
/// been committed to the catalog yet.
pub fn analyze_class(schema: &Schema, class: ClassId) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let Ok(def) = schema.class(class) else {
        return diags;
    };
    let name = def.name.clone();

    // §5 — constraints: each must type-check as a boolean over the
    // class's members, and their conjunction must be satisfiable.
    let Ok(constraints) = schema.all_constraints(class) else {
        return diags;
    };
    for (_, cons) in &constraints {
        let what = format!("constraint `{}`", cons.name);
        diags.extend(check_predicate(schema, class, &what, &cons.src, &cons.expr));
    }
    let all = constraints
        .iter()
        .map(|(_, c)| c.expr.clone())
        .reduce(|a, b| Expr::Binary(BinOp::And, Box::new(a), Box::new(b)));
    if let Some(all) = all {
        let ranges = extract_field_ranges(&all, None);
        if let Some(field) = contradiction(&all, None, true, &ranges) {
            diags.push(Diagnostic::new(
                A008,
                Severity::Error,
                format!(
                    "constraints on class `{name}` are contradictory: no value \
                     of `{field}` can satisfy the class and its superclasses"
                ),
            ));
        }
    }

    // §6 — triggers: conditions are boolean predicates over the members
    // (activation parameters allowed), actions assign type-correct
    // values to real members.
    let Ok(triggers) = schema.all_triggers(class) else {
        return diags;
    };
    for (_, trig) in &triggers {
        let params: Vec<&str> = trig.params.iter().map(String::as_str).collect();
        let type_of = |src: &str, expr: &Expr, diags: &mut Vec<Diagnostic>| {
            infer_object(schema, class, Some(&params), src, expr, diags)
        };
        let ty = type_of(&trig.condition_src, &trig.condition, &mut diags);
        if !ty.is_boolish() {
            diags.push(Diagnostic::new(
                A005,
                Severity::Error,
                format!(
                    "trigger `{}` on class `{name}` has a condition of type {}, expected bool",
                    trig.name,
                    ty.describe(schema)
                ),
            ));
        }
        for action in &trig.actions {
            if let TriggerAction::Assign { field, src, expr } = action {
                let value_ty = type_of(src, expr, &mut diags);
                match def.field(field) {
                    Ok(layout) => {
                        if !value_ty.assignable_to(schema, &layout.ty) {
                            diags.push(Diagnostic::new(
                                A007,
                                Severity::Error,
                                format!(
                                    "trigger `{}` assigns a value of type {} to \
                                     `{name}.{field}` ({})",
                                    trig.name,
                                    value_ty.describe(schema),
                                    layout.ty.name()
                                ),
                            ));
                        }
                    }
                    Err(_) => diags.push(Diagnostic::new(
                        A002,
                        Severity::Error,
                        format!(
                            "trigger `{}` assigns to `{field}`, which is not a \
                             member of class `{name}`",
                            trig.name
                        ),
                    )),
                }
            }
        }
    }
    // Each trigger's footprint as member sets, built once for the cycle
    // check and A302: the condition's free identifiers are its read set,
    // `Assign` targets the write set.
    let footprints: Vec<TriggerMembers<'_>> = triggers
        .iter()
        .map(|(_, t)| TriggerMembers {
            name: &t.name,
            perpetual: t.perpetual,
            reads: t.condition.free_idents().into_iter().collect(),
            writes: t
                .actions
                .iter()
                .filter_map(|a| match a {
                    TriggerAction::Assign { field, .. } => Some(field.as_str()),
                    TriggerAction::Callback { .. } => None,
                })
                .collect(),
        })
        .collect();
    check_trigger_cycles(&name, &footprints, &mut diags);
    // A302 — write-skew-prone pairs: unlike the cycle check, this covers
    // *all* triggers (a once-only trigger still races a concurrent one
    // under decoupled firing).
    diags.extend(interfere::trigger_write_skew(&footprints));
    // Methods are registered at runtime *after* the class is defined
    // (registration needs the class to exist), so an unknown method in a
    // constraint or trigger at DDL time is not evidence of an error —
    // drop A003 here. Query analysis keeps it: by then the schema has
    // settled and every method the program uses is registered.
    diags.retain(|d| d.code != A003);
    dedup(diags)
}

/// Type `expr` (`src` its text), a predicate over one object of `class`:
/// a constraint, or a subscription predicate checked when it is
/// registered. `what` names it in the finding for a non-boolean type.
pub fn check_predicate(
    schema: &Schema,
    class: ClassId,
    what: &str,
    src: &str,
    expr: &Expr,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let ty = infer_object(schema, class, None, src, expr, &mut diags);
    if !ty.is_boolish() {
        let name = schema.class(class).map_or("", |d| d.name.as_str());
        diags.push(Diagnostic::new(
            A005,
            Severity::Error,
            format!(
                "{what} on class `{name}` has type {}, expected bool",
                ty.describe(schema)
            ),
        ));
    }
    diags
}

/// Type `expr` in the object scope of `class`; `params` are a trigger's
/// parameters, `None` outside a trigger body.
fn infer_object(
    schema: &Schema,
    class: ClassId,
    params: Option<&[&str]>,
    src: &str,
    expr: &Expr,
    diags: &mut Vec<Diagnostic>,
) -> SType {
    let scope = Scope::object(params.unwrap_or_default());
    let statics = Statics {
        vars: &[],
        this: Some(class),
        trigger: params.is_some(),
    };
    infer::infer(schema, &statics, src, &bind(schema, &scope, expr), diags)
}

/// A201 and A009: perpetual triggers that can re-arm themselves or each
/// other.
///
/// Edge `T → U` when an action of `T` assigns a member that `U`'s
/// condition reads: firing `T` re-evaluates `U`'s condition with a value
/// `T` just changed. Once-only triggers fire at most once, so they break
/// any cycle they are on and are excluded from the graph.
///
/// A *self-loop* — a perpetual trigger whose own action can re-satisfy
/// its condition — gets the dedicated A201 lint naming the overlapping
/// member, because the fix is local to one trigger; self-edges are then
/// excluded from the A009 cycle search, which reports only genuine
/// multi-trigger cycles.
///
/// Both are warnings, not errors: the read/write graph cannot see
/// whether the condition eventually goes false (`n < 5` with `n = n + 1`
/// is a self-loop that terminates), and the engine bounds runaway
/// cascades at runtime anyway (the trigger cascade depth limit).
fn check_trigger_cycles(class: &str, triggers: &[TriggerMembers<'_>], diags: &mut Vec<Diagnostic>) {
    let perpetual: Vec<&TriggerMembers<'_>> = triggers.iter().filter(|t| t.perpetual).collect();
    if perpetual.is_empty() {
        return;
    }
    let n = perpetual.len();
    for t in &perpetual {
        let overlap: Vec<&str> = t.writes.intersection(&t.reads).copied().collect();
        if !overlap.is_empty() {
            diags.push(Diagnostic::new(
                A201,
                Severity::Warning,
                format!(
                    "perpetual trigger `{}` on class `{class}` assigns `{}`, \
                     which its own condition reads — each firing can \
                     re-satisfy the condition and fire again (bounded only \
                     by the runtime cascade limit)",
                    t.name,
                    overlap.join("`, `"),
                ),
            ));
        }
    }
    let edges: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && !perpetual[i].writes.is_disjoint(&perpetual[j].reads))
                .collect()
        })
        .collect();
    // Iterative DFS with colors; report the first cycle found.
    let mut color: HashMap<usize, u8> = HashMap::new(); // 1 = on stack, 2 = done
    for start in 0..n {
        if color.contains_key(&start) {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color.insert(start, 1);
        let mut path = vec![start];
        while let Some((node, next)) = stack.pop() {
            if next < edges[node].len() {
                stack.push((node, next + 1));
                let to = edges[node][next];
                match color.get(&to) {
                    Some(1) => {
                        let names: Vec<&str> = path
                            .iter()
                            .skip_while(|&&p| p != to)
                            .map(|&p| perpetual[p].name)
                            .chain(std::iter::once(perpetual[to].name))
                            .collect();
                        diags.push(Diagnostic::new(
                            A009,
                            Severity::Warning,
                            format!(
                                "perpetual trigger cycle on class `{class}`: \
                                 {} — each firing re-arms the next; the \
                                 cascade may not quiesce (bounded only by \
                                 the runtime cascade limit)",
                                names.join(" -> ")
                            ),
                        ));
                        return;
                    }
                    Some(_) => {}
                    None => {
                        color.insert(to, 1);
                        path.push(to);
                        stack.push((to, 0));
                    }
                }
            } else {
                color.insert(node, 2);
                if path.last() == Some(&node) {
                    path.pop();
                }
            }
        }
    }
}

/// A010 — §3.2 fixpoint safety: the body of a recursive `forall` may
/// only *add* to the cluster being iterated. A body that deletes from
/// the iterated hierarchy could remove objects the fixpoint has not yet
/// visited, so its termination and coverage guarantees evaporate.
pub fn check_fixpoint_body(schema: &Schema, iterated: &str, body: &Statement) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let Ok(iter_id) = schema.id_of(iterated) else {
        return diags;
    };
    if let Statement::Delete(query) = body {
        for Binding { cluster: class, .. } in &query.bindings {
            let Ok(target) = schema.id_of(class) else {
                continue;
            };
            let overlaps = schema
                .classes()
                .iter()
                .any(|d| schema.is_subclass(d.id, iter_id) && schema.is_subclass(d.id, target));
            if overlaps {
                diags.push(Diagnostic::new(
                    A010,
                    Severity::Error,
                    format!(
                        "fixpoint body deletes from `{class}`, which is inside \
                         the iterated `{iterated}` hierarchy; a recursive \
                         forall body may only add objects (§3.2)"
                    ),
                ));
            }
        }
    }
    diags
}
