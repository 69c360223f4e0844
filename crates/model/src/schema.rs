//! The schema: every class known to the database, linearized and checked.
//!
//! Multiple inheritance is resolved with **C3 linearization** (the
//! method-resolution order used by modern OO languages). The paper's
//! person/student/faculty hierarchy and its diamond variants (a class
//! appearing through several base paths) resolve to layouts in which every
//! shared base contributes its members exactly once — matching the shared
//! (virtual-base) reading the paper's examples rely on.
//!
//! The schema also hosts the *method registry*: O++ member functions become
//! Rust closures registered per class. Method lookup follows the
//! linearization, giving virtual-function dispatch. Methods are code, not
//! data — they are re-registered by the application at open time; only
//! their use sites (constraint/trigger sources) persist in the catalog.

use std::collections::HashMap;
use std::sync::Arc;

use crate::class::{
    ClassBuilder, ClassDef, ClassId, ConstraintDef, LayoutField, TriggerAction, TriggerDecl,
};
use crate::error::{ModelError, Result};
use crate::parser::parse_expr;
use crate::value::{ObjState, Value};

/// Slot-table entry of a class that has no such member.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Signature of a registered method (an O++ member function): receives the
/// object's state and evaluated arguments, returns a value.
pub type MethodFn = Arc<dyn Fn(&ObjState, &[Value]) -> Result<Value> + Send + Sync>;

/// All class definitions plus the method registry.
#[derive(Default, Clone)]
pub struct Schema {
    classes: Vec<ClassDef>,
    by_name: HashMap<String, ClassId>,
    /// Direct subclasses (inverse of `bases`).
    derived: HashMap<ClassId, Vec<ClassId>>,
    methods: HashMap<(ClassId, String), MethodFn>,
    /// Each member name → its slot in every class's layout, indexed by
    /// class id ([`NO_SLOT`] where a class lacks it): the table the binder
    /// resolves a field to, built once per `define` rather than once per
    /// bound expression.
    members: HashMap<Arc<str>, Arc<[u32]>>,
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schema")
            .field("classes", &self.classes.len())
            .field("methods", &self.methods.len())
            .finish()
    }
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// All classes, in definition order.
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// Look a class up by id.
    pub fn class(&self, id: ClassId) -> Result<&ClassDef> {
        self.classes
            .get(id.0 as usize)
            .ok_or_else(|| ModelError::UnknownClass(format!("{id}")))
    }

    /// Look a class up by name.
    pub fn class_by_name(&self, name: &str) -> Result<&ClassDef> {
        let id = self.id_of(name)?;
        self.class(id)
    }

    /// Id of the class named `name`.
    pub fn id_of(&self, name: &str) -> Result<ClassId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ModelError::UnknownClass(name.to_string()))
    }

    /// Is `sub` the same class as, or a (transitive) subclass of, `sup`?
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.classes
            .get(sub.0 as usize)
            .map(|c| c.linearization.contains(&sup))
            .unwrap_or(false)
    }

    /// `class` itself plus every class derived from it, in BFS order —
    /// the shape of a cluster-hierarchy iteration (§3.1.1).
    pub fn descendants(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = vec![class];
        let mut i = 0;
        while i < out.len() {
            if let Some(children) = self.derived.get(&out[i]) {
                for c in children {
                    if !out.contains(c) {
                        out.push(*c);
                    }
                }
            }
            i += 1;
        }
        out
    }

    /// Define a class from a builder: resolves bases, computes the C3
    /// linearization and field layout, parses constraint and trigger
    /// sources.
    pub fn define(&mut self, builder: ClassBuilder) -> Result<ClassId> {
        if self.by_name.contains_key(&builder.name) {
            return Err(ModelError::Inheritance(format!(
                "class `{}` is already defined",
                builder.name
            )));
        }
        let bases: Vec<ClassId> = builder
            .bases
            .iter()
            .map(|b| self.id_of(b))
            .collect::<Result<_>>()?;
        {
            let mut seen = Vec::new();
            for b in &bases {
                if seen.contains(b) {
                    return Err(ModelError::Inheritance(format!(
                        "class `{}` lists base `{}` twice",
                        builder.name,
                        self.class(*b)?.name
                    )));
                }
                seen.push(*b);
            }
        }
        let id = ClassId(self.classes.len() as u32);
        let linearization = self.linearize(id, &bases, &builder.name)?;
        let layout = self.build_layout(&linearization, &builder)?;

        // Parse constraints.
        let mut constraints = Vec::new();
        for (i, (name, src)) in builder.constraints.iter().enumerate() {
            let expr = parse_expr(src)?;
            constraints.push(ConstraintDef {
                name: name
                    .clone()
                    .unwrap_or_else(|| format!("{}#{}", builder.name, i)),
                src: src.clone(),
                expr,
            });
        }

        // Parse triggers.
        let mut triggers = Vec::new();
        for spec in &builder.triggers {
            if triggers.iter().any(|t: &TriggerDecl| t.name == spec.name) {
                return Err(ModelError::Inheritance(format!(
                    "class `{}` declares trigger `{}` twice",
                    builder.name, spec.name
                )));
            }
            let condition = parse_expr(&spec.condition_src)?;
            let mut actions = Vec::new();
            for a in &spec.actions {
                actions.push(match a {
                    crate::class::ActionSpec::Assign { field, src } => TriggerAction::Assign {
                        field: field.clone(),
                        src: src.clone(),
                        expr: parse_expr(src)?,
                    },
                    crate::class::ActionSpec::Callback { name } => {
                        TriggerAction::Callback { name: name.clone() }
                    }
                });
            }
            triggers.push(TriggerDecl {
                name: spec.name.clone(),
                params: spec.params.clone(),
                perpetual: spec.perpetual,
                condition_src: spec.condition_src.clone(),
                condition,
                actions,
            });
        }

        // Validate that constraint/trigger-action field references resolve
        // against the layout (catches typos at definition time).
        for c in &constraints {
            self.check_field_refs(&c.expr, &layout, &builder.name)?;
        }
        for t in &triggers {
            self.check_field_refs(&t.condition, &layout, &builder.name)?;
            for a in &t.actions {
                if let TriggerAction::Assign { field, expr, .. } = a {
                    if !layout.iter().any(|f| &f.name == field) {
                        return Err(ModelError::UnknownField {
                            class: builder.name.clone(),
                            field: field.clone(),
                        });
                    }
                    self.check_field_refs(expr, &layout, &builder.name)?;
                }
            }
        }

        let def = ClassDef {
            id,
            name: builder.name.clone(),
            bases: bases.clone(),
            own_fields: builder.fields.clone(),
            constraints,
            triggers,
            linearization,
            layout,
        };
        for b in &bases {
            self.derived.entry(*b).or_default().push(id);
        }
        self.by_name.insert(builder.name, id);
        self.classes.push(def);
        self.members = self.member_slots();
        Ok(id)
    }

    /// Every member name with its slot table over the classes defined so
    /// far.
    fn member_slots(&self) -> HashMap<Arc<str>, Arc<[u32]>> {
        let names: std::collections::BTreeSet<&str> = self
            .classes
            .iter()
            .flat_map(|c| c.layout.iter().map(|f| f.name.as_str()))
            .collect();
        names
            .into_iter()
            .map(|name| (Arc::from(name), self.slots_of(name)))
            .collect()
    }

    /// The slot of member `name` in every class's layout, indexed by class
    /// id; [`NO_SLOT`] where a class has no such member.
    pub(crate) fn slots_of(&self, name: &str) -> Arc<[u32]> {
        let slot = |c: &ClassDef| c.layout.iter().position(|f| f.name == name);
        let slots = self.classes.iter().map(slot);
        slots.map(|s| s.map_or(NO_SLOT, |i| i as u32)).collect()
    }

    /// The name and slot table of member `name`, if some class has it.
    pub(crate) fn member(&self, name: &str) -> Option<(&Arc<str>, &Arc<[u32]>)> {
        self.members.get_key_value(name)
    }

    /// Bare identifiers in constraint/trigger expressions must name layout
    /// fields or methods (loop variables never appear there; `$params` are
    /// checked at activation).
    fn check_field_refs(
        &self,
        expr: &crate::expr::Expr,
        layout: &[LayoutField],
        class_name: &str,
    ) -> Result<()> {
        for ident in expr.free_idents() {
            if !layout.iter().any(|f| f.name == ident) {
                return Err(ModelError::UnknownField {
                    class: class_name.to_string(),
                    field: ident.to_string(),
                });
            }
        }
        Ok(())
    }

    /// C3 linearization of a new class with the given direct bases.
    fn linearize(&self, this: ClassId, bases: &[ClassId], name: &str) -> Result<Vec<ClassId>> {
        // merge(L(B1), …, L(Bn), [B1 … Bn])
        let mut sequences: Vec<Vec<ClassId>> = bases
            .iter()
            .map(|b| self.classes[b.0 as usize].linearization.clone())
            .collect();
        if !bases.is_empty() {
            sequences.push(bases.to_vec());
        }
        let mut result = vec![this];
        loop {
            sequences.retain(|s| !s.is_empty());
            if sequences.is_empty() {
                return Ok(result);
            }
            // Find a head that appears in no other sequence's tail.
            let mut chosen = None;
            for s in &sequences {
                let head = s[0];
                let in_tail = sequences
                    .iter()
                    .any(|other| other.iter().skip(1).any(|&c| c == head));
                if !in_tail {
                    chosen = Some(head);
                    break;
                }
            }
            let Some(head) = chosen else {
                return Err(ModelError::Inheritance(format!(
                    "no C3 linearization exists for class `{name}` (inconsistent base order)"
                )));
            };
            result.push(head);
            for s in &mut sequences {
                s.retain(|&c| c != head);
            }
        }
    }

    /// Flatten fields: base-most classes first (reverse linearization), each
    /// class exactly once, duplicate member names rejected.
    fn build_layout(
        &self,
        linearization: &[ClassId],
        builder: &ClassBuilder,
    ) -> Result<Vec<LayoutField>> {
        let mut layout: Vec<LayoutField> = Vec::new();
        for &cid in linearization.iter().rev() {
            let (class_name, fields): (&str, &[crate::class::FieldDef]) =
                if cid.0 as usize == self.classes.len() {
                    (&builder.name, &builder.fields)
                } else {
                    let c = &self.classes[cid.0 as usize];
                    (&c.name, &c.own_fields)
                };
            for f in fields {
                if let Some(existing) = layout.iter().find(|lf| lf.name == f.name) {
                    let declared_in = self
                        .classes
                        .get(existing.declared_in.0 as usize)
                        .map(|c| c.name.clone())
                        .unwrap_or_else(|| builder.name.clone());
                    return Err(ModelError::Inheritance(format!(
                        "member `{}` of `{class_name}` collides with the one declared in `{declared_in}`",
                        f.name
                    )));
                }
                layout.push(LayoutField {
                    name: f.name.clone(),
                    ty: f.ty.clone(),
                    declared_in: cid,
                    default: f.default.clone(),
                });
            }
        }
        Ok(layout)
    }

    /// Construct a fresh object of `class` with defaults applied.
    pub fn new_object(&self, class: ClassId) -> Result<ObjState> {
        let def = self.class(class)?;
        let fields = def
            .layout
            .iter()
            .map(|f| f.default.clone().unwrap_or(Value::Null))
            .collect();
        Ok(ObjState { class, fields })
    }

    /// Type-check `value` against the declared type of `field` on `class`.
    pub fn check_assign(&self, class: ClassId, field: &str, value: &Value) -> Result<usize> {
        let def = self.class(class)?;
        let idx = def.field_index(field)?;
        let slot = &def.layout[idx];
        if !slot.ty.admits(value) {
            return Err(ModelError::Type(format!(
                "cannot assign {value} to `{}.{}` of type {}",
                def.name,
                field,
                slot.ty.name()
            )));
        }
        Ok(idx)
    }

    /// Register a method (O++ member function) on a class. Derived classes
    /// inherit it; re-registering on a derived class overrides (virtual
    /// dispatch).
    pub fn register_method(
        &mut self,
        class: ClassId,
        name: impl Into<String>,
        f: impl Fn(&ObjState, &[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.methods.insert((class, name.into()), Arc::new(f));
    }

    /// Resolve a method along the linearization of the *dynamic* class.
    pub fn lookup_method(&self, class: ClassId, name: &str) -> Result<MethodFn> {
        let def = self.class(class)?;
        for &cid in &def.linearization {
            if let Some(m) = self.methods.get(&(cid, name.to_string())) {
                return Ok(m.clone());
            }
        }
        Err(ModelError::UnknownMethod {
            class: def.name.clone(),
            method: name.to_string(),
        })
    }

    /// Every constraint that applies to `class`: its own plus all inherited
    /// ones (a derived object "must satisfy all the constraints associated
    /// with the corresponding class", §5), base-most first.
    pub fn all_constraints(&self, class: ClassId) -> Result<Vec<(&ClassDef, &ConstraintDef)>> {
        let def = self.class(class)?;
        let mut out = Vec::new();
        for &cid in def.linearization.iter().rev() {
            let c = self.class(cid)?;
            for k in &c.constraints {
                out.push((c, k));
            }
        }
        Ok(out)
    }

    /// Every trigger declaration visible on `class` (own + inherited),
    /// base-most first. A derived class may redeclare a name to override.
    pub fn all_triggers(&self, class: ClassId) -> Result<Vec<(&ClassDef, &TriggerDecl)>> {
        let def = self.class(class)?;
        let mut out: Vec<(&ClassDef, &TriggerDecl)> = Vec::new();
        for &cid in def.linearization.iter().rev() {
            let c = self.class(cid)?;
            for t in &c.triggers {
                if let Some(slot) = out.iter_mut().find(|(_, existing)| existing.name == t.name) {
                    *slot = (c, t); // override by the more-derived class
                } else {
                    out.push((c, t));
                }
            }
        }
        Ok(out)
    }

    /// Find a trigger by name on `class` (following inheritance).
    pub fn find_trigger(&self, class: ClassId, name: &str) -> Result<(&ClassDef, &TriggerDecl)> {
        self.all_triggers(class)?
            .into_iter()
            .find(|(_, t)| t.name == name)
            .ok_or_else(|| ModelError::UnknownMethod {
                class: self
                    .class(class)
                    .map(|c| c.name.clone())
                    .unwrap_or_default(),
                method: format!("trigger {name}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Type;

    fn person_schema() -> (Schema, ClassId, ClassId, ClassId, ClassId) {
        let mut s = Schema::new();
        let person = s
            .define(
                ClassBuilder::new("person")
                    .field("name", Type::Str)
                    .field_default("income_base", Type::Int, 0),
            )
            .unwrap();
        let student = s
            .define(
                ClassBuilder::new("student")
                    .base("person")
                    .field("gpa", Type::Float),
            )
            .unwrap();
        let faculty = s
            .define(
                ClassBuilder::new("faculty")
                    .base("person")
                    .field("dept", Type::Str),
            )
            .unwrap();
        // The classic diamond: a teaching assistant is both.
        let ta = s
            .define(
                ClassBuilder::new("teaching_assistant")
                    .base("student")
                    .base("faculty")
                    .field("hours", Type::Int),
            )
            .unwrap();
        (s, person, student, faculty, ta)
    }

    #[test]
    fn single_inheritance_layout() {
        let (s, person, student, ..) = person_schema();
        let st = s.class(student).unwrap();
        let names: Vec<&str> = st.layout.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["name", "income_base", "gpa"]);
        assert!(s.is_subclass(student, person));
        assert!(!s.is_subclass(person, student));
        assert!(s.is_subclass(person, person));
    }

    #[test]
    fn diamond_shares_the_common_base() {
        let (s, person, student, faculty, ta) = person_schema();
        let def = s.class(ta).unwrap();
        // person appears exactly once in the linearization.
        assert_eq!(
            def.linearization.iter().filter(|&&c| c == person).count(),
            1
        );
        // Layout is reverse-MRO: person's fields exactly once (base-most
        // first), then faculty's, then student's, then ta's own.
        let names: Vec<&str> = def.layout.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["name", "income_base", "dept", "gpa", "hours"]);
        assert!(s.is_subclass(ta, student));
        assert!(s.is_subclass(ta, faculty));
        assert!(s.is_subclass(ta, person));
    }

    #[test]
    fn c3_order_respects_base_declaration_order() {
        let (s, person, student, faculty, ta) = person_schema();
        let def = s.class(ta).unwrap();
        assert_eq!(def.linearization, vec![ta, student, faculty, person]);
    }

    #[test]
    fn descendants_mirror_the_cluster_hierarchy() {
        let (s, person, student, faculty, ta) = person_schema();
        let d = s.descendants(person);
        assert_eq!(d[0], person);
        assert!(d.contains(&student));
        assert!(d.contains(&faculty));
        assert!(d.contains(&ta));
        assert_eq!(d.len(), 4);
        assert_eq!(s.descendants(ta), vec![ta]);
    }

    #[test]
    fn field_collision_across_unrelated_bases_is_rejected() {
        let mut s = Schema::new();
        s.define(ClassBuilder::new("a").field("x", Type::Int))
            .unwrap();
        s.define(ClassBuilder::new("b").field("x", Type::Int))
            .unwrap();
        let err = s
            .define(ClassBuilder::new("c").base("a").base("b"))
            .unwrap_err();
        assert!(matches!(err, ModelError::Inheritance(_)), "{err}");
    }

    #[test]
    fn duplicate_class_name_rejected() {
        let mut s = Schema::new();
        s.define(ClassBuilder::new("a")).unwrap();
        assert!(s.define(ClassBuilder::new("a")).is_err());
    }

    #[test]
    fn unknown_base_rejected() {
        let mut s = Schema::new();
        assert!(matches!(
            s.define(ClassBuilder::new("x").base("ghost")),
            Err(ModelError::UnknownClass(_))
        ));
    }

    #[test]
    fn inconsistent_hierarchy_has_no_linearization() {
        // Classic C3 failure: order conflict between bases.
        let mut s = Schema::new();
        s.define(ClassBuilder::new("o")).unwrap();
        s.define(ClassBuilder::new("a").base("o")).unwrap();
        s.define(ClassBuilder::new("b").base("o")).unwrap();
        s.define(ClassBuilder::new("ab").base("a").base("b"))
            .unwrap();
        s.define(ClassBuilder::new("ba").base("b").base("a"))
            .unwrap();
        let err = s
            .define(ClassBuilder::new("boom").base("ab").base("ba"))
            .unwrap_err();
        assert!(matches!(err, ModelError::Inheritance(_)), "{err}");
    }

    #[test]
    fn defaults_applied_to_new_objects() {
        let (s, person, ..) = person_schema();
        let obj = s.new_object(person).unwrap();
        assert_eq!(obj.fields[0], Value::Null); // name: no default
        assert_eq!(obj.fields[1], Value::Int(0)); // income_base: default
    }

    #[test]
    fn check_assign_enforces_types() {
        let (s, person, ..) = person_schema();
        assert!(s
            .check_assign(person, "name", &Value::Str("ann".into()))
            .is_ok());
        assert!(s.check_assign(person, "name", &Value::Int(5)).is_err());
        assert!(matches!(
            s.check_assign(person, "ghost", &Value::Null),
            Err(ModelError::UnknownField { .. })
        ));
    }

    #[test]
    fn method_dispatch_follows_linearization() {
        let (mut s, person, student, _f, ta) = person_schema();
        s.register_method(person, "income", |_o, _a| Ok(Value::Int(100)));
        s.register_method(student, "income", |_o, _a| Ok(Value::Int(25)));
        let o = s.new_object(ta).unwrap();
        // ta inherits student's override (student precedes person in MRO).
        let m = s.lookup_method(ta, "income").unwrap();
        assert_eq!(m(&o, &[]).unwrap(), Value::Int(25));
        let m = s.lookup_method(person, "income").unwrap();
        assert_eq!(m(&o, &[]).unwrap(), Value::Int(100));
        assert!(s.lookup_method(person, "ghost").is_err());
    }

    #[test]
    fn constraints_are_inherited() {
        let mut s = Schema::new();
        s.define(
            ClassBuilder::new("person")
                .field("age", Type::Int)
                .constraint("age >= 0"),
        )
        .unwrap();
        let female = s
            .define(
                ClassBuilder::new("female")
                    .base("person")
                    .field("sex", Type::Str)
                    .constraint("sex == 'f' || sex == 'F'"),
            )
            .unwrap();
        let all = s.all_constraints(female).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1.src, "age >= 0");
        assert_eq!(all[1].1.src, "sex == 'f' || sex == 'F'");
    }

    #[test]
    fn constraint_with_unknown_field_rejected_at_definition() {
        let mut s = Schema::new();
        let err = s
            .define(
                ClassBuilder::new("x")
                    .field("a", Type::Int)
                    .constraint("b > 0"),
            )
            .unwrap_err();
        assert!(err.to_string().contains("`b`"), "{err}");
    }

    #[test]
    fn trigger_override_in_derived_class() {
        let mut s = Schema::new();
        s.define(ClassBuilder::new("item").field("qty", Type::Int).trigger(
            "low",
            &[],
            false,
            "qty < 10",
        ))
        .unwrap();
        let special = s
            .define(ClassBuilder::new("special_item").base("item").trigger(
                "low",
                &[],
                false,
                "qty < 100",
            ))
            .unwrap();
        let trigs = s.all_triggers(special).unwrap();
        assert_eq!(trigs.len(), 1);
        assert_eq!(trigs[0].1.condition_src, "qty < 100");
        let (_, t) = s.find_trigger(special, "low").unwrap();
        assert_eq!(t.condition_src, "qty < 100");
    }

    #[test]
    fn trigger_params_are_exempt_from_field_checking() {
        let mut s = Schema::new();
        s.define(ClassBuilder::new("stock").field("qty", Type::Int).trigger(
            "low",
            &["threshold"],
            false,
            "qty < $threshold",
        ))
        .unwrap();
    }
}
