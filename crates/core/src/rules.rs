//! Constraint bodies (§5), trigger conditions and trigger `Assign` actions
//! (§6), bound once per layout.
//!
//! A [`Layout`] is never mutated in place — DDL builds a new one and swaps
//! it in whole — so the expressions its classes declare are bound against
//! its schema once ([`ode_model::bind`]), the first time a write needs
//! them, and every check or firing after that runs the bound form. A
//! layout cloned to start a DDL change starts without them.
//!
//! [`Layout`]: crate::database::Layout

use std::sync::OnceLock;

use ode_model::{bind, BoundExpr, ClassId, Expr, Schema, Scope, TriggerAction, TriggerDecl};

use crate::error::Result;

/// The bound rules of every class, indexed by the id of the class that
/// declares them, each list in declaration order.
pub(crate) struct Rules {
    constraints: Vec<Vec<BoundExpr>>,
    triggers: Vec<Vec<BoundTrigger>>,
}

/// One trigger declaration, bound.
pub(crate) struct BoundTrigger {
    /// The firing condition, over the subject's fields and the
    /// parameters.
    pub condition: BoundExpr,
    /// Per action, the bound value of an `Assign`; `None` for a callback.
    pub actions: Vec<Option<BoundExpr>>,
}

impl Rules {
    fn bind(schema: &Schema) -> Rules {
        let trigger = |t: &TriggerDecl| {
            let params: Vec<&str> = t.params.iter().map(String::as_str).collect();
            BoundTrigger {
                condition: bind_this(schema, &params, &t.condition),
                actions: t
                    .actions
                    .iter()
                    .map(|a| match a {
                        TriggerAction::Assign { expr, .. } => {
                            Some(bind_this(schema, &params, expr))
                        }
                        TriggerAction::Callback { .. } => None,
                    })
                    .collect(),
            }
        };
        Rules {
            constraints: schema
                .classes()
                .iter()
                .map(|c| {
                    c.constraints
                        .iter()
                        .map(|k| bind_this(schema, &[], &k.expr))
                        .collect()
                })
                .collect(),
            triggers: schema
                .classes()
                .iter()
                .map(|c| c.triggers.iter().map(trigger).collect())
                .collect(),
        }
    }

    /// The bound constraints `class` declares, in declaration order.
    pub fn constraints(&self, class: ClassId) -> &[BoundExpr] {
        self.constraints
            .get(class.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// The trigger `name` as objects of `class` see it
    /// ([`Schema::find_trigger`]: a derived class overrides), with its
    /// bound form.
    pub fn trigger<'r>(
        &'r self,
        schema: &'r Schema,
        class: ClassId,
        name: &str,
    ) -> Result<(&'r TriggerDecl, &'r BoundTrigger)> {
        let (def, decl) = schema.find_trigger(class, name)?;
        let i = def
            .triggers
            .iter()
            .position(|t| std::ptr::eq(t, decl))
            .expect("find_trigger returns one of its class's declarations");
        Ok((decl, &self.triggers[def.id.0 as usize][i]))
    }
}

/// Bind an expression over the subject object, with trigger `params`.
fn bind_this(schema: &Schema, params: &[&str], expr: &Expr) -> BoundExpr {
    bind(schema, &Scope::object(params), expr)
}

/// [`Rules`] bound on first use. A clone starts empty: a layout is cloned
/// only to be changed.
#[derive(Default)]
pub(crate) struct LazyRules(OnceLock<Rules>);

impl LazyRules {
    /// The rules of `schema`, bound the first time they are asked for.
    pub fn get(&self, schema: &Schema) -> &Rules {
        self.0.get_or_init(|| Rules::bind(schema))
    }
}

impl Clone for LazyRules {
    fn clone(&self) -> Self {
        LazyRules::default()
    }
}
