use ode_model::{parse_expr, Binding, ClassBuilder, Schema, Type};

use super::*;

fn fixture() -> Schema {
    let mut s = Schema::new();
    s.define(
        ClassBuilder::new("stockitem")
            .field("name", Type::Str)
            .field_default("quantity", Type::Int, 0i64)
            .field_default("on_order", Type::Int, 0i64)
            .field_default("price", Type::Float, 1.0f64)
            .field("supplies", Type::Set(Box::new(Type::Str)))
            .constraint("quantity >= 0"),
    )
    .unwrap();
    s.define(
        ClassBuilder::new("person")
            .field("name", Type::Str)
            .field_default("age", Type::Int, 0i64)
            .field("friend", Type::Ref("person".into())),
    )
    .unwrap();
    s.define(
        ClassBuilder::new("student")
            .base("person")
            .field_default("gpa", Type::Float, 0.0f64),
    )
    .unwrap();
    s.define(ClassBuilder::new("building").field("floors", Type::Int))
        .unwrap();
    s
}

fn binding(var: &str, cluster: &str, deep: bool) -> Binding {
    Binding {
        var: var.to_string(),
        cluster: cluster.to_string(),
        deep,
    }
}

fn bindings(pairs: &[(&str, &str)]) -> Vec<Binding> {
    pairs.iter().map(|(v, c)| binding(v, c, false)).collect()
}

fn query(bindings: &[Binding], suchthat: Option<&Expr>, by: Option<(&Expr, bool)>) -> QueryStmt {
    QueryStmt {
        bindings: bindings.to_vec(),
        suchthat: suchthat.cloned(),
        by: by.map(|(key, desc)| (key.clone(), desc)),
    }
}

fn forall(bindings: &[Binding], suchthat: Option<&Expr>, by: Option<(&Expr, bool)>) -> Statement {
    Statement::Forall(query(bindings, suchthat, by))
}

fn pnew(class: &str, inits: &[(String, Expr)]) -> Statement {
    Statement::Pnew {
        class: class.to_string(),
        inits: inits.to_vec(),
    }
}

fn update(bindings: &[Binding], suchthat: Option<&Expr>, assigns: &[(String, Expr)]) -> Statement {
    Statement::Update {
        target: query(bindings, suchthat, None),
        assigns: assigns.to_vec(),
    }
}

fn delete(bindings: &[Binding], suchthat: Option<&Expr>) -> Statement {
    Statement::Delete(query(bindings, suchthat, None))
}

fn check_query(schema: &Schema, binds: &[(&str, &str)], suchthat: &str) -> Vec<Diagnostic> {
    let b = bindings(binds);
    let pred = parse_expr(suchthat).unwrap();
    analyze_stmt(schema, None, suchthat, &forall(&b, Some(&pred), None))
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn clean_queries_produce_no_diagnostics() {
    let s = fixture();
    for pred in [
        "quantity > 10 && price < 3.5",
        "name == \"dram\"",
        "\"dram\" in supplies",
        "quantity + on_order >= 100",
        "friend.age > 21",
        "p is student",
    ] {
        let binds = if pred.contains("friend") || pred.contains("is student") {
            vec![("p", "person")]
        } else {
            vec![("s", "stockitem")]
        };
        let diags = check_query(&s, &binds, pred);
        assert!(diags.is_empty(), "{pred}: {diags:?}");
    }
}

#[test]
fn unknown_class_is_a001() {
    let s = fixture();
    let b = bindings(&[("x", "nowhere")]);
    let diags = analyze_stmt(&s, None, "forall x in nowhere", &forall(&b, None, None));
    assert_eq!(codes(&diags), vec![A001]);
    assert!(diags[0].message.contains("unknown class"), "{diags:?}");
}

#[test]
fn unknown_member_is_a002_with_span() {
    let s = fixture();
    let diags = check_query(&s, &[("s", "stockitem")], "ghost > 1");
    assert_eq!(codes(&diags), vec![A002]);
    assert_eq!(diags[0].span, Some(Span { offset: 0, len: 5 }));
}

#[test]
fn unknown_member_through_path_is_a002() {
    let s = fixture();
    let diags = check_query(&s, &[("p", "person")], "p.salary > 10");
    assert_eq!(codes(&diags), vec![A002]);
    let diags = check_query(&s, &[("p", "person")], "friend.salary > 10");
    assert_eq!(codes(&diags), vec![A002]);
}

#[test]
fn unknown_method_is_a003() {
    let s = fixture();
    let diags = check_query(&s, &[("p", "person")], "p.income() > 10");
    assert_eq!(codes(&diags), vec![A003]);
}

#[test]
fn registered_method_resolves_even_on_a_subclass() {
    let mut s = fixture();
    let student = s.id_of("student").unwrap();
    s.register_method(student, "income", |_, _| Ok(0i64.into()));
    // Static class `person`, method on `student`: deep iteration may
    // legitimately reach students, so this must not be rejected.
    let diags = check_query(&s, &[("p", "person")], "p.income() > 10");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn bare_ident_in_join_is_a004() {
    let s = fixture();
    let diags = check_query(
        &s,
        &[("p", "person"), ("q", "person")],
        "age > 10 && p.name == q.name",
    );
    assert_eq!(codes(&diags), vec![A004]);
}

#[test]
fn join_members_resolve_per_binding() {
    let s = fixture();
    let diags = check_query(
        &s,
        &[("p", "person"), ("s", "stockitem")],
        "p.name == s.name && s.quantity > p.age",
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn activation_param_in_query_is_a004() {
    let s = fixture();
    let diags = check_query(&s, &[("s", "stockitem")], "quantity < $threshold");
    assert_eq!(codes(&diags), vec![A004]);
}

#[test]
fn type_mismatches_are_a005() {
    let s = fixture();
    for pred in [
        "name > 3",         // string ordered against int
        "name == 3",        // disjoint equality
        "quantity && true", // int as bool operand
        "quantity + name == 0",
        "name in quantity", // membership in a non-collection
    ] {
        let diags = check_query(&s, &[("s", "stockitem")], pred);
        assert!(
            codes(&diags).contains(&A005),
            "{pred} should be A005, got {diags:?}"
        );
    }
    // A non-boolean suchthat is also a type error.
    let diags = check_query(&s, &[("s", "stockitem")], "quantity + 1");
    assert_eq!(codes(&diags), vec![A005]);
}

#[test]
fn unordered_by_key_is_a006() {
    let s = fixture();
    let b = bindings(&[("s", "stockitem")]);
    let key = parse_expr("supplies").unwrap();
    let diags = analyze_stmt(
        &s,
        None,
        "forall s in stockitem by (supplies)",
        &forall(&b, None, Some((&key, false))),
    );
    assert_eq!(codes(&diags), vec![A006]);
    // Numeric and string keys are fine.
    for good in ["quantity", "name", "price + 1.0"] {
        let key = parse_expr(good).unwrap();
        let diags = analyze_stmt(&s, None, good, &forall(&b, None, Some((&key, true))));
        assert!(diags.is_empty(), "{good}: {diags:?}");
    }
}

#[test]
fn pnew_checks_members_and_types() {
    let s = fixture();
    let inits = vec![("ghost".to_string(), parse_expr("1").unwrap())];
    let diags = analyze_stmt(
        &s,
        None,
        "pnew stockitem (ghost = 1)",
        &pnew("stockitem", &inits),
    );
    assert_eq!(codes(&diags), vec![A002]);

    let inits = vec![("quantity".to_string(), parse_expr("\"many\"").unwrap())];
    let diags = analyze_stmt(
        &s,
        None,
        "pnew stockitem (quantity = \"many\")",
        &pnew("stockitem", &inits),
    );
    assert_eq!(codes(&diags), vec![A007]);

    // Int into a double field coerces, as in C++.
    let inits = vec![("price".to_string(), parse_expr("3").unwrap())];
    let diags = analyze_stmt(
        &s,
        None,
        "pnew stockitem (price = 3)",
        &pnew("stockitem", &inits),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn update_checks_assignments() {
    let s = fixture();
    let b = bindings(&[("s", "stockitem")]);
    let assigns = vec![("quantity".to_string(), parse_expr("name").unwrap())];
    let diags = analyze_stmt(
        &s,
        None,
        "update s in stockitem set quantity = name",
        &update(&b, None, &assigns),
    );
    assert_eq!(codes(&diags), vec![A007]);
}

#[test]
fn unsatisfiable_suchthat_is_a101() {
    let s = fixture();
    for pred in [
        "quantity < 10 && quantity > 20",
        "quantity == 1 && quantity == 2",
        "quantity == 5 && quantity != 5",
        "quantity >= 10 && quantity < 10",
        "name == \"a\" && name == \"b\"",
        // A bare member and its `s.` path are one member.
        "quantity < 10 && s.quantity > 20",
        // Negative literals read through unary minus.
        "quantity > -5 && quantity < -10",
    ] {
        let diags = check_query(&s, &[("s", "stockitem")], pred);
        assert_eq!(codes(&diags), vec![A101], "{pred}: {diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
    }
    // Satisfiable ranges stay silent.
    for pred in [
        "quantity > 10 && quantity < 20",
        "quantity >= 10 && quantity <= 10",
        "quantity != 5 && quantity != 6",
    ] {
        let diags = check_query(&s, &[("s", "stockitem")], pred);
        assert!(diags.is_empty(), "{pred}: {diags:?}");
    }
}

#[test]
fn unindexed_equality_is_a102_only_without_an_index() {
    let s = fixture();
    let b = [binding("s", "stockitem", true)];
    let pred = parse_expr("quantity == 7").unwrap();
    let stmt = forall(&b, Some(&pred), None);
    let empty = CatalogView::default();
    let diags = analyze_stmt(&s, Some(&empty), "quantity == 7", &stmt);
    assert_eq!(codes(&diags), vec![A102]);
    assert_eq!(diags[0].severity, Severity::Warning);

    let mut indexed = CatalogView::default();
    indexed
        .indexed
        .insert((s.id_of("stockitem").unwrap(), "quantity".to_string()));
    let diags = analyze_stmt(&s, Some(&indexed), "quantity == 7", &stmt);
    assert!(diags.is_empty(), "{diags:?}");

    // An `only` query never probes an index, so it warns with one too.
    let only = forall(&[binding("s", "stockitem", false)], Some(&pred), None);
    let diags = analyze_stmt(&s, Some(&indexed), "quantity == 7", &only);
    assert_eq!(codes(&diags), vec![A102]);
    assert!(diags[0].message.contains("only stockitem"), "{diags:?}");

    // Without a catalog (pure schema checking) the lint is off.
    let diags = analyze_stmt(&s, None, "quantity == 7", &stmt);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn is_test_outside_the_hierarchy_is_a103() {
    let s = fixture();
    let diags = check_query(&s, &[("p", "person")], "p is building");
    assert_eq!(codes(&diags), vec![A103]);
    assert_eq!(diags[0].severity, Severity::Warning);
    // Unknown class in an `is` test is a hard error.
    let diags = check_query(&s, &[("p", "person")], "p is nowhere");
    assert_eq!(codes(&diags), vec![A001]);
}

#[test]
fn contradictory_constraints_are_a008() {
    let mut s = fixture();
    let id = s
        .define(
            ClassBuilder::new("scarce")
                .base("stockitem")
                .constraint("quantity < 0"), // fights inherited quantity >= 0
        )
        .unwrap();
    let diags = analyze_class(&s, id);
    assert_eq!(codes(&diags), vec![A008]);
    assert_eq!(diags[0].severity, Severity::Error);

    // The base class alone is consistent.
    let base = s.id_of("stockitem").unwrap();
    assert!(analyze_class(&s, base).is_empty());

    // An equality pin against an excluded value.
    let id = s
        .define(
            ClassBuilder::new("pinned")
                .base("stockitem")
                .constraint("quantity == 5")
                .constraint("quantity != 5"),
        )
        .unwrap();
    let diags = analyze_class(&s, id);
    assert_eq!(codes(&diags), vec![A008], "{diags:?}");
}

#[test]
fn perpetual_trigger_cycle_is_a009() {
    let mut s = Schema::new();
    let id = s
        .define(
            ClassBuilder::new("acct")
                .field_default("a", Type::Int, 0i64)
                .field_default("b", Type::Int, 0i64)
                .trigger("ping", &[], true, "a > 0")
                .action_assign("b", "b + 1")
                .trigger("pong", &[], true, "b > 0")
                .action_assign("a", "a + 1"),
        )
        .unwrap();
    let diags = analyze_class(&s, id);
    assert_eq!(codes(&diags), vec![A009]);
    assert!(diags[0].message.contains("ping"), "{diags:?}");
}

#[test]
fn once_triggers_do_not_cycle() {
    let mut s = Schema::new();
    let id = s
        .define(
            ClassBuilder::new("acct")
                .field_default("a", Type::Int, 0i64)
                .field_default("b", Type::Int, 0i64)
                // Same dependency shape as above, but once-only triggers
                // fire at most once each: no unbounded cascade, so no
                // A009. The pair is still write-skew-prone — each one's
                // condition reads what the other writes, so decoupled
                // firing order decides the outcome — which is A302.
                .trigger("ping", &[], false, "a > 0")
                .action_assign("b", "b + 1")
                .trigger("pong", &[], false, "b > 0")
                .action_assign("a", "a + 1"),
        )
        .unwrap();
    let diags = analyze_class(&s, id);
    assert_eq!(codes(&diags), vec![A302]);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("ping"), "{diags:?}");
    assert!(diags[0].message.contains("pong"), "{diags:?}");
}

#[test]
fn self_resatisfying_perpetual_trigger_is_a201() {
    let mut s = Schema::new();
    let id = s
        .define(
            ClassBuilder::new("counter")
                .field_default("n", Type::Int, 0i64)
                // Writes `n`, which its own condition reads: every firing
                // can re-satisfy the condition. A201, not a cycle.
                .trigger("tick", &[], true, "n >= 0")
                .action_assign("n", "n + 1"),
        )
        .unwrap();
    let diags = analyze_class(&s, id);
    assert_eq!(codes(&diags), vec![A201]);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("tick"), "{diags:?}");
    assert!(diags[0].message.contains("`n`"), "{diags:?}");

    // The same shape once-only is harmless: it fires at most once.
    let mut s = Schema::new();
    let id = s
        .define(
            ClassBuilder::new("counter")
                .field_default("n", Type::Int, 0i64)
                .trigger("tick", &[], false, "n >= 0")
                .action_assign("n", "n + 1"),
        )
        .unwrap();
    assert!(analyze_class(&s, id).is_empty());
}

#[test]
fn undeclared_trigger_param_is_a004() {
    let mut s = Schema::new();
    let id = s
        .define(
            ClassBuilder::new("stock")
                .field_default("qty", Type::Int, 0i64)
                .field_default("on_order", Type::Int, 0i64)
                .trigger("low", &["n"], true, "qty < $ghost")
                .action_assign("on_order", "$n + $other"),
        )
        .unwrap();
    let diags = analyze_class(&s, id);
    assert_eq!(codes(&diags), vec![A004, A004], "{diags:?}");
    assert!(diags[0].message.contains("`$ghost`"), "{diags:?}");
    assert!(diags[1].message.contains("`$other`"), "{diags:?}");
}

#[test]
fn reorder_style_trigger_is_not_a_cycle() {
    let mut s = Schema::new();
    let id = s
        .define(
            ClassBuilder::new("stockitem")
                .field_default("quantity", Type::Int, 0i64)
                .field_default("on_order", Type::Int, 0i64)
                // The paper's reorder trigger: reads quantity, writes
                // on_order. No edge back to itself.
                .trigger("reorder", &["n"], true, "quantity < $n")
                .action_assign("on_order", "on_order + 10"),
        )
        .unwrap();
    assert!(analyze_class(&s, id).is_empty());
}

#[test]
fn trigger_condition_type_errors_are_a005() {
    let mut s = Schema::new();
    let id = s
        .define(ClassBuilder::new("doc").field("title", Type::Str).trigger(
            "bad",
            &[],
            false,
            "title + 1 > 0",
        ))
        .unwrap();
    assert!(codes(&analyze_class(&s, id)).contains(&A005));
}

#[test]
fn fixpoint_body_may_add_but_not_delete() {
    let s = fixture();
    let b = bindings(&[("p", "person")]);
    let del = delete(&b, None);
    let diags = check_fixpoint_body(&s, "person", &del);
    assert_eq!(codes(&diags), vec![A010]);
    // Deleting students still shrinks the deep person extent.
    let bs = bindings(&[("x", "student")]);
    let del = delete(&bs, None);
    assert_eq!(codes(&check_fixpoint_body(&s, "person", &del)), vec![A010]);
    // Deleting from an unrelated cluster is fine, as is inserting.
    let bb = bindings(&[("x", "building")]);
    let del = delete(&bb, None);
    assert!(check_fixpoint_body(&s, "person", &del).is_empty());
    let inits: Vec<(String, Expr)> = Vec::new();
    let add = pnew("person", &inits);
    assert!(check_fixpoint_body(&s, "person", &add).is_empty());
}

#[test]
fn diagnostics_render_with_code_and_severity() {
    let d = Diagnostic::new(A002, Severity::Error, "class `x` has no member `y`".into());
    assert_eq!(d.to_string(), "error[A002]: class `x` has no member `y`");
    let d = d.locate("forall s in x suchthat (y > 1)", "y");
    assert!(d.to_string().ends_with("(at byte 24)"), "{d}");
    assert!(has_errors(&[d]));
    assert!(!has_errors(&[Diagnostic::new(
        A102,
        Severity::Warning,
        String::new()
    )]));
}

// ------------------------------------------------------------ footprints

fn update_footprint(schema: &Schema, binds: &[(&str, &str)], pred: &str, set: &str) -> Footprint {
    let b = bindings(binds);
    let p = parse_expr(pred).unwrap();
    let assigns: Vec<(String, Expr)> = set
        .split(',')
        .map(|a| {
            let (f, e) = a.split_once('=').unwrap();
            (f.trim().to_string(), parse_expr(e.trim()).unwrap())
        })
        .collect();
    footprint_of(schema, None, &update(&b, Some(&p), &assigns)).unwrap()
}

#[test]
fn query_footprint_is_read_only_with_predicate_ranges() {
    let s = fixture();
    let b = bindings(&[("s", "stockitem")]);
    let pred = parse_expr("quantity > 10 && quantity < 20 && name == \"dram\"").unwrap();
    let fp = footprint_of(&s, None, &forall(&b, Some(&pred), None)).unwrap();
    assert!(fp.read_only());
    assert_eq!(fp.reads.len(), 1);
    let acc = &fp.reads[0];
    assert_eq!(acc.class, "stockitem");
    assert!(!acc.deep);
    let fields: Vec<&str> = acc.ranges.iter().map(|r| r.field.as_str()).collect();
    assert_eq!(fields, vec!["name", "quantity"]);
    let rendered = fp.to_string();
    assert!(rendered.contains("read-only"), "{rendered}");
    assert!(rendered.contains("quantity"), "{rendered}");
}

#[test]
fn update_footprint_drops_ranges_on_assigned_fields() {
    let s = fixture();
    let fp = update_footprint(
        &s,
        &[("s", "stockitem")],
        "quantity == 5 && on_order == 0",
        "quantity = 9",
    );
    assert!(!fp.read_only());
    // The read side keeps both ranges; the write side must drop the
    // range on `quantity`, whose post-state escapes [5,5].
    let read_fields: Vec<&str> = fp.reads[0]
        .ranges
        .iter()
        .map(|r| r.field.as_str())
        .collect();
    assert_eq!(read_fields, vec!["on_order", "quantity"]);
    let write = &fp.writes[0];
    assert_eq!(write.fields, vec!["quantity"]);
    let write_fields: Vec<&str> = write.ranges.iter().map(|r| r.field.as_str()).collect();
    assert_eq!(write_fields, vec!["on_order"]);
}

#[test]
fn deep_binding_with_catalog_reports_the_probing_index() {
    let s = fixture();
    let mut cat = CatalogView::default();
    cat.indexed
        .insert((s.id_of("stockitem").unwrap(), "quantity".to_string()));
    let b = vec![binding("s", "stockitem", true)];
    let pred = parse_expr("quantity == 7").unwrap();
    let fp = footprint_of(&s, Some(&cat), &forall(&b, Some(&pred), None)).unwrap();
    assert_eq!(fp.reads[0].index.as_deref(), Some("quantity"));
}

#[test]
fn pnew_footprint_is_a_point_write() {
    let s = fixture();
    let inits = vec![
        ("name".to_string(), parse_expr("\"dram\"").unwrap()),
        ("quantity".to_string(), parse_expr("5").unwrap()),
    ];
    let fp = footprint_of(&s, None, &pnew("stockitem", &inits)).unwrap();
    assert!(!fp.read_only());
    assert!(fp.reads.is_empty());
    let w = &fp.writes[0];
    assert_eq!(w.class, "stockitem");
    assert_eq!(w.fields, vec!["name", "quantity"]);
    assert_eq!(w.ranges.len(), 2);
}

#[test]
fn batch_interference_proves_disjoint_ranges_apart() {
    let s = fixture();
    let lo = update_footprint(&s, &[("s", "stockitem")], "quantity < 10", "price = 1.0");
    let hi = update_footprint(&s, &[("s", "stockitem")], "quantity > 20", "price = 2.0");
    assert!(batch_interference(&[(1, lo.clone()), (2, hi)]).is_empty());

    // Overlapping ranges on the same cluster interfere: A301.
    let mid = update_footprint(&s, &[("s", "stockitem")], "quantity < 15", "price = 3.0");
    let diags = batch_interference(&[(1, lo.clone()), (2, mid)]);
    assert_eq!(codes(&diags), vec![A301]);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("lines 1 and 2"), "{diags:?}");

    // A read overlapping a write interferes too.
    let b = bindings(&[("s", "stockitem")]);
    let pred = parse_expr("quantity == 5").unwrap();
    let reader = footprint_of(&s, None, &forall(&b, Some(&pred), None)).unwrap();
    assert_eq!(
        codes(&batch_interference(&[(1, lo), (2, reader.clone())])),
        vec![A301]
    );

    // Two readers never interfere; different clusters never interfere.
    assert!(batch_interference(&[(1, reader.clone()), (2, reader.clone())]).is_empty());
    let other = update_footprint(&s, &[("p", "person")], "age > 0", "age = 1");
    assert!(batch_interference(&[(1, reader), (2, other)]).is_empty());
}

#[test]
fn interference_never_trusts_ranges_on_assigned_fields() {
    let s = fixture();
    // Writer moves rows INTO the reader's range: suchthat quantity == 1
    // set quantity = 5 vs a reader of quantity == 5. The pre-state
    // ranges are disjoint, but the post-state lands on the reader.
    let mover = update_footprint(&s, &[("s", "stockitem")], "quantity == 1", "quantity = 5");
    let b = bindings(&[("s", "stockitem")]);
    let pred = parse_expr("quantity == 5").unwrap();
    let reader = footprint_of(&s, None, &forall(&b, Some(&pred), None)).unwrap();
    assert_eq!(
        codes(&batch_interference(&[(1, mover), (2, reader)])),
        vec![A301]
    );
}

#[test]
fn join_equality_is_not_a102() {
    // A join hash-builds its inner binding on the equality key whether or
    // not the member is indexed: there is no per-outer-row scan to flag.
    let s = fixture();
    let b = bindings(&[("s", "stockitem"), ("p", "person")]);
    let src = "s.name == p.name && p.name == \"x\"";
    let pred = parse_expr(src).unwrap();
    let stmt = forall(&b, Some(&pred), None);
    let diags = analyze_stmt(&s, Some(&CatalogView::default()), src, &stmt);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn mixed_perpetual_and_once_trigger_pair_is_a302() {
    let mut s = Schema::new();
    let id = s
        .define(
            ClassBuilder::new("acct")
                .field_default("a", Type::Int, 0i64)
                .field_default("b", Type::Int, 0i64)
                // One perpetual, one once-only: the cycle check skips the
                // pair (once-only triggers break cycles), but the mutual
                // read/write crossing is still order-dependent.
                .trigger("ping", &[], true, "a > 0")
                .action_assign("b", "b + 1")
                .trigger("pong", &[], false, "b > 0")
                .action_assign("a", "a + 1"),
        )
        .unwrap();
    let diags = analyze_class(&s, id);
    assert_eq!(codes(&diags), vec![A302], "{diags:?}");
}
