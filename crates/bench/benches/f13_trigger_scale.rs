//! Figure F13 — commit latency vs. armed-trigger count, decoupled mode.
//!
//! The point of the PR-7 scheduler is that arming triggers must not tax
//! writers: a commit pays only for activations on the objects it
//! actually wrote (and merely *enqueues* any firings instead of running
//! their actions inline). This figure arms 0 / 1 / 1k / 100k perpetual
//! triggers on *other* objects, attaches a scheduler (the server's
//! configuration), and measures the p50 latency of a single-object
//! commit at each level, trials interleaved across levels so drift hits
//! all arms equally.
//!
//! The acceptance bar: with 100k armed non-matching triggers, p50 commit
//! latency within 10% of the zero-trigger baseline.
//!
//! Output: a table on stderr and `BENCH_f13.json` at the repo root.
//! Set `ODE_BENCH_QUICK=1` for a seconds-long smoke run (CI) — same 100k
//! top level, fewer trials.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ode_bench::{median, workload, Figure};
use ode_sched::{SchedConfig, Scheduler};

const LEVELS: [usize; 4] = [0, 1, 1_000, 100_000];

struct Config {
    commits: usize,
    warmup: usize,
}

impl Config {
    fn for_run(fig: &Figure) -> Self {
        if fig.quick {
            Config {
                commits: 200,
                warmup: 20,
            }
        } else {
            Config {
                commits: 800,
                warmup: 50,
            }
        }
    }
}

fn main() {
    let fig = Figure::from_env("f13_trigger_scale");
    let cfg = Config::for_run(&fig);
    eprintln!(
        "f13: {} interleaved commits per level, levels {:?}, host parallelism {}",
        cfg.commits, LEVELS, fig.parallelism
    );

    // One database per level, all built before any measurement so setup
    // cost (100k activations) stays out of the timed region. The armed
    // triggers sit on *other* objects with a never-true condition; the
    // measured commit writes one unencumbered object.
    let arms: Vec<_> = LEVELS
        .iter()
        .map(|&armed| {
            let (db, oid) = workload::triggered_db(0, armed);
            let db = Arc::new(db);
            let sched = Scheduler::attach(Arc::clone(&db), SchedConfig::default());
            (db, oid, sched)
        })
        .collect();

    let mut v = 0i64;
    for (db, oid, _) in &arms {
        for _ in 0..cfg.warmup {
            v += 1;
            db.transaction(|tx| tx.set(*oid, "quantity", 1_000 + v % 100))
                .expect("warmup commit");
        }
    }

    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(cfg.commits); LEVELS.len()];
    for _ in 0..cfg.commits {
        for (i, (db, oid, _)) in arms.iter().enumerate() {
            v += 1;
            let t = Instant::now();
            db.transaction(|tx| tx.set(*oid, "quantity", 1_000 + v % 100))
                .expect("timed commit");
            samples[i].push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let p50s: Vec<f64> = samples.iter_mut().map(|s| median(s)).collect();
    for (&armed, &p50) in LEVELS.iter().zip(&p50s) {
        eprintln!("f13: {armed:>7} armed  commit p50 {p50:>8.2} µs");
    }
    let ratio = p50s[LEVELS.len() - 1] / p50s[0];
    eprintln!(
        "f13: {} armed vs baseline ratio {ratio:.3}x",
        LEVELS[LEVELS.len() - 1]
    );

    for (db, _, sched) in &arms {
        sched.wait_idle(std::time::Duration::from_secs(5));
        sched.detach();
        assert!(
            db.pending_events().is_empty(),
            "non-matching triggers must never enqueue"
        );
    }

    let mut json = fig.json_header();
    let _ = writeln!(json, "  \"commits_per_level\": {},", cfg.commits);
    json.push_str("  \"levels\": [\n");
    for (i, (&armed, &p50)) in LEVELS.iter().zip(&p50s).enumerate() {
        let _ = writeln!(
            json,
            "    {{\"armed\": {armed}, \"commit_p50_us\": {p50:.2}}}{}",
            if i + 1 < LEVELS.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"ratio_100k_vs_baseline\": {ratio:.4}");
    json.push_str("}\n");
    fig.write(&json);

    assert!(
        ratio <= 1.10,
        "100k armed non-matching triggers cost {:.1}% on commit p50 (budget: 10%)",
        (ratio - 1.0) * 100.0
    );
    eprintln!(
        "f13: armed-trigger commit overhead {:.1}% (≤10% bar) — PASS",
        (ratio - 1.0) * 100.0
    );
}
