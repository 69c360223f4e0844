//! Running one workload and reporting it: the end-to-end run (tracing off)
//! and the result line the harness reads.

use std::path::Path;
use std::time::Instant;

use crate::driver::{run_load, RoundMedian, Schedule};
use crate::host::peak_rss_mb;
use crate::stats::median;
use crate::workload::Workload;

/// The end-to-end metrics, in the order and with the units `BENCHMARK.json`
/// declares them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("stmt_per_s", "1/s"),
    ("p50_us", "us"),
    ("cpu_us_per_stmt", "us"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups per run, at least; `setup_s` is the median of them all.
const SETUPS: usize = 5;
/// A run keeps setting up until its set-ups have taken this long together:
/// the cheap ones (50 ms) are the noisy ones, and five of them gave a median
/// that moved by 0.14 between two sets of ten runs.
const SETUP_SECONDS: f64 = 1.5;

/// One measured value. `None` means the program no longer publishes the
/// counter behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

/// Pair measured `(name, value)`s with the units a metric table declares,
/// insisting that every declared metric is there, in the declared order.
pub fn declared_metrics(
    declared: &'static [(&'static str, &'static str)],
    values: Vec<(&str, Option<f64>)>,
) -> Vec<Metric> {
    assert_eq!(
        values.len(),
        declared.len(),
        "one value per declared metric"
    );
    declared
        .iter()
        .zip(values)
        .map(|(&(name, unit), (measured, value))| {
            assert_eq!(name, measured, "metrics are reported in declared order");
            Metric { name, unit, value }
        })
        .collect()
}

/// What one invocation reports.
pub struct Report {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// A missing counter's metric in the result line: every real value is ≥ 0.
const MISSING: f64 = -1.0;

impl Report {
    /// The single JSON object the harness reads from the last stdout line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value.unwrap_or(MISSING),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        eprintln!(
            "{}: attempted {} failed {} fail_ratio {:.6} correct {}",
            self.workload,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct
        );
        for m in &self.metrics {
            match m.value {
                Some(v) => eprintln!("  {:<44} {:>16.4} {}", m.name, v, m.unit),
                None => eprintln!("  {:<44} {:>16} {}", m.name, "null", m.unit),
            }
        }
    }
}

/// Set up `W`, load it for `seconds` with tracing off, verify, set up again
/// (`SETUPS` times in all, or `SETUP_SECONDS`' worth) for `setup_s`, and
/// report the end-to-end metrics.
pub fn run_end_to_end<W: Workload>(seed: u64, seconds: f64, scratch: &Path) -> Report {
    let dir = scratch.join(format!("{}-{}", W::NAME, std::process::id()));
    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let started = Instant::now();
        let workload = W::setup(seed, &dir);
        setup_s.push(started.elapsed().as_secs_f64());
        workload
    };
    let workload = timed_setup(&mut setup_s);

    let gens = (0..W::CLIENTS)
        .map(|c| workload.generator(c, seed))
        .collect();
    let load = run_load(
        &workload,
        gens,
        seed,
        Schedule::for_seconds(seconds),
        false,
        None,
    );
    // One set-up and the load: what a process serving this workload holds at
    // most. The final check's read-back and the further set-ups come after,
    // so neither they nor what the allocator keeps of them are in it.
    let peak_rss_mb = peak_rss_mb();
    let errors = workload.finish(load.gens);
    while setup_s.len() < SETUPS || setup_s.iter().sum::<f64>() < SETUP_SECONDS {
        timed_setup(&mut setup_s).into_env().close();
    }

    // A disagreement the final check finds counts like a wrong reply.
    let failed = load.failed + errors.len() as u64;
    for note in load.failure_notes.iter().chain(&errors) {
        eprintln!("MISMATCH {note}");
    }
    eprintln!(
        "  flush policy: {}; closed loop, {} client(s), no think time; \
         n = {} statements measured, {} a round; latencies are this sandbox's, not a device's",
        W::FLUSH_POLICY,
        W::CLIENTS,
        load.measured,
        load.measured / load.p99_us.rounds.len().max(1) as u64
    );
    // The tail is shown, not gated: a slow minute of this host doubles it
    // (README, "End-to-end metrics").
    eprintln!(
        "  p99_us (not gated)   {:.1} us, round spread {:.3}",
        load.p99_us.value, load.p99_us.spread
    );
    for (c, class) in W::CLASSES.iter().enumerate() {
        eprintln!(
            "  class {class:<18} n {:>8}  p50 {:>12.1} us  p99 {:>12.1} us",
            load.class_count[c], load.class_p50_us[c], load.class_p99_us[c]
        );
    }
    let round = |name: &'static str, m: &RoundMedian| {
        let rounds: Vec<String> = m.rounds.iter().map(|v| format!("{v:.1}")).collect();
        eprintln!(
            "  {name:<18} round spread (max-min)/median {:.3}  rounds {}",
            m.spread,
            rounds.join(" ")
        );
        (name, Some(m.value))
    };
    let metrics = declared_metrics(
        END_TO_END,
        vec![
            ("setup_s", Some(median(&setup_s))),
            round("stmt_per_s", &load.stmt_per_s),
            round("p50_us", &load.p50_us),
            round("cpu_us_per_stmt", &load.cpu_us_per_stmt),
            // 1 − fail_ratio: a gated metric may never read 0, and its bound
            // is a share of the parent's value, so 0.001 of 1 is the issue's
            // "+0.001 absolute" on the fail ratio.
            (
                "ok_ratio",
                Some(1.0 - failed as f64 / load.attempted.max(1) as f64),
            ),
            ("peak_rss_mb", Some(peak_rss_mb)),
        ],
    );
    Report {
        workload: W::NAME,
        correct: failed == 0,
        attempted: load.attempted,
        failed,
        metrics,
    }
}
