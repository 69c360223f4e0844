//! Figure F12 — always-on tracing overhead.
//!
//! The flight recorder (PR 6) records a handful of spans per request —
//! txn, query pass, commit — into a bounded lock-free ring. This figure
//! measures what that costs on F1's cluster-scan workload: the same
//! scan transaction timed with the recorder enabled (the default) and
//! disabled, trials interleaved so drift hits both arms equally.
//!
//! The acceptance bar: enabled/disabled median ratio ≤ 1.05 (spans are
//! per-transaction, not per-object, so a scan's cost is dominated by the
//! object walk and the recorder should disappear into it).
//!
//! Output: a table on stderr and `BENCH_f12.json` at the repo root.
//! Set `ODE_BENCH_QUICK=1` for a seconds-long smoke run (CI).

use std::fmt::Write as _;
use std::time::Instant;

use ode_bench::{median, workload, Figure};

struct Config {
    objects: usize,
    trials: usize,
}

impl Config {
    fn for_run(fig: &Figure) -> Self {
        if fig.quick {
            Config {
                objects: 10_000,
                trials: 15,
            }
        } else {
            Config {
                objects: 50_000,
                trials: 31,
            }
        }
    }
}

fn main() {
    let fig = Figure::from_env("f12_trace_overhead");
    let cfg = Config::for_run(&fig);
    eprintln!(
        "f12: {} objects, {} interleaved trials per arm, host parallelism {}",
        cfg.objects, cfg.trials, fig.parallelism
    );

    let (db, _) = workload::inventory_db(cfg.objects, false);
    let scan = || {
        let n = db
            .transaction(|tx| tx.forall("stockitem")?.count())
            .expect("scan");
        assert_eq!(n, cfg.objects);
    };
    // Warm both arms before measuring.
    scan();

    let mut enabled = Vec::with_capacity(cfg.trials);
    let mut disabled = Vec::with_capacity(cfg.trials);
    for _ in 0..cfg.trials {
        db.flight().set_enabled(true);
        let t = Instant::now();
        scan();
        enabled.push(t.elapsed().as_secs_f64() * 1e6);

        db.flight().set_enabled(false);
        let t = Instant::now();
        scan();
        disabled.push(t.elapsed().as_secs_f64() * 1e6);
    }
    db.flight().set_enabled(true);

    let on = median(&mut enabled);
    let off = median(&mut disabled);
    let ratio = on / off;
    eprintln!("f12: recorder on  {on:>10.1} µs/scan");
    eprintln!("f12: recorder off {off:>10.1} µs/scan");
    eprintln!("f12: overhead ratio {ratio:.3}x");

    // One core still yields a valid ratio here (both arms run on the
    // same thread), but the header's `credible` flag is kept consistent
    // with the scaling figures.
    let mut json = fig.json_header();
    let _ = writeln!(json, "  \"objects\": {},", cfg.objects);
    let _ = writeln!(json, "  \"trials\": {},", cfg.trials);
    let _ = writeln!(json, "  \"scan_us_recorder_on\": {on:.1},");
    let _ = writeln!(json, "  \"scan_us_recorder_off\": {off:.1},");
    let _ = writeln!(json, "  \"overhead_ratio\": {ratio:.4}");
    json.push_str("}\n");
    fig.write(&json);

    assert!(
        ratio <= 1.05,
        "always-on tracing costs {:.1}% on a cluster scan (budget: 5%)",
        (ratio - 1.0) * 100.0
    );
    eprintln!(
        "f12: tracing overhead {:.1}% (≤5% bar) — PASS",
        (ratio - 1.0) * 100.0
    );
}
