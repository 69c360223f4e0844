//! Smoke tests of the benchmark itself: its inputs repeat for a seed, its
//! oracle catches a wrong answer, a short run of every workload is correct
//! and reports every metric it declares, and those declarations match
//! `BENCHMARK.json`.

use std::path::PathBuf;

use ode_e2e::check::{check, oid_hash, Expect, Reply};
use ode_e2e::report::{run_end_to_end, Report, END_TO_END};
use ode_e2e::trace::{run_traced, PER_LAYER};
use ode_e2e::workload::{Generator, Workload};
use ode_e2e::workloads::extent_query::ExtentQuery;
use ode_e2e::workloads::mixed_oo7::MixedOo7;
use ode_e2e::workloads::parts_fixpoint::PartsFixpoint;
use ode_e2e::workloads::point_lookup::PointLookup;
use ode_e2e::workloads::stock_write::StockWrite;

/// A scratch directory of this test's own under Cargo's test tmpdir.
fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Hash of the first 300 statements both clients of `W` generate for `seed`,
/// every reply taken to agree with the model.
fn stream_hash<W: Workload>(seed: u64, test: &str) -> u64 {
    let workload = W::setup(seed, &scratch(test).join(W::NAME));
    let mut text = String::new();
    // The one reply a generator looks into is `stock_write`'s read-back.
    let agreed = Reply::Output("1 row(s)".into());
    for client in 0..W::CLIENTS {
        let mut gen = workload.generator(client, seed);
        for _ in 0..300 {
            let stmt = gen.next_stmt();
            text.push_str(&stmt.text);
            text.push('\n');
            gen.confirmed(&agreed);
        }
    }
    workload.into_env().close();
    oid_hash(&text)
}

fn same_seed_same_stream<W: Workload>() {
    let test = "stream";
    let a = stream_hash::<W>(7, test);
    assert_eq!(a, stream_hash::<W>(7, test), "{}: same seed", W::NAME);
    assert_ne!(a, stream_hash::<W>(8, test), "{}: other seed", W::NAME);
}

#[test]
fn statement_streams_repeat_per_seed_and_differ_across_seeds() {
    same_seed_same_stream::<PointLookup>();
    same_seed_same_stream::<ExtentQuery>();
    same_seed_same_stream::<StockWrite>();
    same_seed_same_stream::<PartsFixpoint>();
    same_seed_same_stream::<MixedOo7>();
}

#[test]
fn oracle_catches_an_injected_wrong_answer() {
    let workload = PointLookup::setup(3, &scratch("oracle"));
    let mut gen = workload.generator(0, 3);
    let mut exec = workload.executor();
    for _ in 0..50 {
        let stmt = gen.next_stmt();
        let reply = exec.run(&stmt);
        assert_eq!(check(&stmt.expect, &reply), Ok(()), "`{}`", stmt.text);
        let Expect::Rows { count, oid_sum } = stmt.expect else {
            panic!("point_lookup only queries");
        };
        let one_more = Expect::Rows {
            count: count + 1,
            oid_sum,
        };
        assert!(check(&one_more, &reply).is_err(), "flipped count passed");
        let other_object = Expect::Rows {
            count,
            oid_sum: oid_sum.wrapping_add(1),
        };
        assert!(check(&other_object, &reply).is_err(), "wrong object passed");
    }
    drop(exec);
    workload.into_env().close();
}

fn assert_complete(report: &Report, declared: &[(&str, &str)]) {
    assert!(report.correct, "{}: wrong answers", report.workload);
    assert_eq!(report.failed, 0, "{}", report.workload);
    assert!(report.attempted > 0, "{}", report.workload);
    let reported: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(reported, declared, "{}", report.workload);
    for m in &report.metrics {
        let value = m
            .value
            .unwrap_or_else(|| panic!("{}: {} is missing", report.workload, m.name));
        assert!(
            value.is_finite(),
            "{}: {} = {value}",
            report.workload,
            m.name
        );
    }
    let json = report.to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
}

fn short_runs<W: Workload>() {
    let dir = scratch("short").join(W::NAME);
    let report = run_end_to_end::<W>(11, 0.5, &dir.join("e2e"));
    assert_complete(&report, END_TO_END);
    for m in &report.metrics {
        assert!(
            m.value > Some(0.0),
            "{}: {} must never be 0",
            W::NAME,
            m.name
        );
    }
    let report = run_traced::<W>(11, 1.0, &dir.join("traced"));
    assert_complete(&report, PER_LAYER);
    let span_file = dir.join("traced").join(format!("trace_{}.json", W::NAME));
    let spans = std::fs::read_to_string(span_file).expect("span file written");
    assert!(
        spans.contains("\"phase\":\"ladder\""),
        "{}: no ladder spans",
        W::NAME
    );
}

#[test]
fn short_run_point_lookup() {
    short_runs::<PointLookup>();
}

#[test]
fn short_run_extent_query() {
    short_runs::<ExtentQuery>();
}

#[test]
fn short_run_stock_write() {
    short_runs::<StockWrite>();
}

#[test]
fn short_run_parts_fixpoint() {
    short_runs::<PartsFixpoint>();
}

#[test]
fn short_run_mixed_oo7() {
    short_runs::<MixedOo7>();
}

/// The `"name": …, "unit": …` pairs of one array of `BENCHMARK.json`.
fn declared(json: &str, array: &str) -> Vec<(String, String)> {
    let from = json.find(&format!("\"{array}\"")).expect("array present");
    let body = &json[from..from + json[from..].find(']').expect("array closes")];
    let field = |object: &str, key: &str| -> Option<String> {
        let at = object.find(&format!("\"{key}\""))?;
        let value = object[at..].split('"').nth(3)?;
        Some(value.to_string())
    };
    body.split('{')
        .skip(1)
        .map(|object| {
            (
                field(object, "name").expect("name"),
                field(object, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

#[test]
fn declarations_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(
        workloads,
        [
            PointLookup::NAME,
            ExtentQuery::NAME,
            StockWrite::NAME,
            PartsFixpoint::NAME,
            MixedOo7::NAME
        ]
    );
}
