//! The static-analysis gate (DESIGN.md §9): every statement class runs
//! through the analyzer before the engine does any transaction work,
//! statically bad statements come back as [`OdeError::Analysis`] with
//! coded diagnostics, and DDL-time schema analysis rejects contradictory
//! constraints before they reach the catalog.

use ode_core::oql::ExecResult;
use ode_core::prelude::*;
use ode_core::{parse_statement, PlanStrategy};

fn db() -> Database {
    let db = Database::in_memory();
    db.define_from_source(
        r#"
        class stockitem {
            string name;
            int    quantity = 0;
            int    on_order = 0;
            double price = 1.0;
            constraint: quantity >= 0;
        }
        "#,
    )
    .unwrap();
    db.create_cluster("stockitem").unwrap();
    db
}

fn analysis_codes(e: &OdeError) -> Vec<&'static str> {
    match e {
        OdeError::Analysis(diags) => diags.iter().map(|d| d.code).collect(),
        other => panic!("expected OdeError::Analysis, got {other}"),
    }
}

#[test]
fn execute_gates_every_statement_class() {
    let db = db();
    // Query in a write transaction.
    let mut tx = db.begin();
    let e = tx.execute("forall s in stockitem suchthat (missing > 1)");
    assert_eq!(analysis_codes(&e.unwrap_err()), ["A002"]);
    // DML: pnew, update, delete.
    let e = tx.execute("pnew stockitem (quantity = \"lots\")");
    assert_eq!(analysis_codes(&e.unwrap_err()), ["A007"]);
    let e = tx.execute("update s in stockitem set missing = 1");
    assert_eq!(analysis_codes(&e.unwrap_err()), ["A002"]);
    let e = tx.execute("delete z in zombie");
    assert_eq!(analysis_codes(&e.unwrap_err()), ["A001"]);
    // The transaction survives analysis rejections and still works.
    let r = tx.execute("pnew stockitem (name = \"dram\", quantity = 5)");
    assert!(matches!(r, Ok(ExecResult::Created(_))), "{r:?}");
    tx.commit().unwrap();

    // Read transactions gate too, including through `explain`.
    let mut rtx = db.begin_read();
    let e = rtx.execute("forall s in stockitem suchthat (missing > 1)");
    assert_eq!(analysis_codes(&e.unwrap_err()), ["A002"]);
    let e = rtx.execute("explain forall s in stockitem suchthat (missing > 1)");
    assert_eq!(analysis_codes(&e.unwrap_err()), ["A002"]);
    let r = rtx.execute("forall s in stockitem suchthat (quantity > 1)");
    assert!(r.is_ok(), "{r:?}");
}

#[test]
fn parse_errors_keep_their_original_type() {
    let db = db();
    let mut tx = db.begin();
    // Unparsable statements are not the analyzer's to report: the
    // executor returns the original parse error.
    let e = tx.execute("forall suchthat quantity").unwrap_err();
    assert!(matches!(e, OdeError::Model(_)), "{e}");
    tx.commit().unwrap();
}

#[test]
fn ddl_analysis_rejects_contradictory_constraints() {
    let db = db();
    // A subclass whose constraint contradicts the inherited one (§5):
    // rejected before the catalog sees it.
    let e = db
        .define_from_source("class scarce : public stockitem { constraint: quantity < 0; }")
        .unwrap_err();
    assert_eq!(analysis_codes(&e), ["A008"]);
    // The class was never defined.
    assert!(db.with_schema(|s| s.class_by_name("scarce").is_err()));
    // A sane subclass still defines fine.
    db.define_from_source("class bulk : public stockitem { int pallets = 0; }")
        .unwrap();
}

#[test]
fn analyze_statement_reports_without_executing() {
    let db = db();
    let before = db.telemetry();
    let diags = db
        .analyze_statement("forall s in stockitem suchthat (quantity > 10 && quantity < 5)")
        .unwrap();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "A101");
    assert_eq!(diags[0].severity, Severity::Warning);
    let after = db.telemetry();
    assert_eq!(after.analyze.passes, before.analyze.passes + 1);
    assert_eq!(after.analyze.warnings, before.analyze.warnings + 1);
    assert_eq!(after.txn.begun, before.txn.begun);
    assert!(after.analyze.latency.count > before.analyze.latency.count);
}

#[test]
fn eval_time_unknown_var_names_the_statement() {
    let db = db();
    // `$param` survives parsing and analysis only where parameters are
    // legal; `query()` (no gate) lets it reach the evaluator, which
    // must now say *which statement* had the unbound variable.
    let mut tx = db.begin();
    // The predicate only evaluates against an object.
    tx.pnew("stockitem", &[("name", Value::from("dram"))])
        .unwrap();
    let e = tx
        .query("forall s in stockitem suchthat ($floor > quantity)")
        .unwrap_err();
    let msg = e.to_string();
    assert!(msg.contains("unbound variable `$floor`"), "{msg}");
    assert!(msg.contains("in statement"), "{msg}");
    assert!(msg.contains("$floor > quantity"), "{msg}");
    // The typed source is preserved underneath.
    assert!(
        matches!(&e, OdeError::InStatement { source, .. }
            if matches!(**source, OdeError::Model(_))),
        "{e:?}"
    );
    tx.commit().unwrap();
}

/// A102 warns exactly when a query has an equality conjunct and `explain`
/// shows an extent scan: the lint and the planner read a `suchthat` by
/// the same rule, for deep and `only` bindings alike.
#[test]
fn unindexed_lint_follows_the_plan() {
    // (predicate, has an equality conjunct)
    let preds = [
        ("qty == 7", true),
        ("qty > 2 && qty < 9", false),
        ("qty == -5", true),
        ("s.name == \"a\" && s.qty > 5", true),
    ];
    let mut warned = [0usize; 2];
    for index in [None, Some("qty"), Some("name")] {
        let db = Database::in_memory();
        db.define_from_source("class item { string name; int qty = 0; }")
            .unwrap();
        db.create_cluster("item").unwrap();
        if let Some(field) = index {
            db.create_index("item", field).unwrap();
        }
        for (pred, has_eq) in preds {
            for only in ["", "only "] {
                let stmt = format!("explain forall s in {only}item suchthat ({pred})");
                let diags = db.analyze_statement(&stmt).unwrap();
                let a102 = diags.iter().any(|d| d.code == "A102");
                let strategy = match db.begin_read().execute(&stmt) {
                    Ok(ExecResult::Explain(prof)) => prof.strategy,
                    other => panic!("{stmt}: {other:?}"),
                };
                let scan = matches!(
                    strategy,
                    PlanStrategy::DeepExtentScan | PlanStrategy::ShallowExtentScan
                );
                assert_eq!(
                    a102,
                    has_eq && scan,
                    "{stmt} with index {index:?}: plan {strategy}, diagnostics {diags:?}"
                );
                warned[usize::from(a102)] += 1;
            }
        }
    }
    // Both outcomes occur, so the agreement above is not vacuous.
    assert!(warned[0] > 0 && warned[1] > 0, "{warned:?}");
}

/// Did evaluation fail on a name that resolves to nothing: an unbound
/// variable or parameter, or a member the object's class lacks?
fn unresolved_name(e: &OdeError) -> bool {
    use ode_model::ModelError;
    match e {
        OdeError::InStatement { source, .. } => unresolved_name(source),
        OdeError::Model(ModelError::UnknownVar(_) | ModelError::UnknownField { .. }) => true,
        _ => false,
    }
}

/// The analyzer and the engine resolve names by one rule: at every
/// expression site, `Database::analyze` reports an unresolved name (A002,
/// A004) exactly when running the statement ungated (`Database::run`, the
/// half of `Database::execute` after the gate) raises an unresolved-name
/// error. In a trigger body a bare name that is no member never reaches
/// either: the schema refuses it when the class is defined.
#[test]
fn analyzer_and_engine_resolve_names_alike() {
    // (site, statement with `{}` for the expression).
    let sites: [(&str, &str); 5] = [
        ("update assignment", "update s in item set val = {}"),
        (
            "query predicate",
            "forall s in item suchthat (({}) != null)",
        ),
        (
            "join predicate",
            "forall s in item, t in item suchthat (({}) != null)",
        ),
        ("pnew initializer", "pnew item (val = {})"),
        (
            "trigger body",
            "class watch { int qty = 0; any val; trigger t(p) : ({}) != null { val = {}; } }",
        ),
    ];
    let exprs = ["s", "qty", "ghost", "s.ghost", "s.qty", "$p", "$q"];
    let mut outcomes = [0usize; 2];
    for (site, template) in sites {
        for expr in exprs {
            let db = Database::in_memory();
            db.define_from_source("class item { int qty = 0; any val; }")
                .unwrap();
            db.create_cluster("item").unwrap();
            db.execute("pnew item (qty = 1)").unwrap();
            let src = template.replace("{}", expr);
            let stmt = parse_statement(&src).unwrap();
            let flagged = db
                .analyze(&stmt, &src)
                .iter()
                .any(|d| matches!(d.code, "A002" | "A004"));
            let mut outcome = db.run(&stmt).map(|_| ());
            if site == "trigger body" && outcome.is_ok() {
                // The condition runs when an activated object commits.
                db.create_cluster("watch").unwrap();
                outcome = db
                    .transaction(|tx| {
                        let oid = tx.pnew("watch", &[])?;
                        tx.activate_trigger(oid, "t", vec![Value::Int(1)])?;
                        Ok(())
                    })
                    .map(|_| ());
            }
            let raised = outcome.as_ref().is_err_and(unresolved_name);
            assert_eq!(
                flagged, raised,
                "{site}: `{src}`: analyzer flags {flagged}, engine gives {outcome:?}"
            );
            outcomes[usize::from(raised)] += 1;
        }
    }
    // Both outcomes occur, so the agreement above is not vacuous.
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}
