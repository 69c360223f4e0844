//! The closed-loop load: each client sends its next statement only when the
//! previous reply has been decoded and checked. No think time, so a slow
//! system receives less load; throughput and latency move together.

use std::time::{Duration, Instant};

use crate::check::{check, Expect};
use crate::host::cpu_seconds;
use crate::stats::{median, percentile, spread};
use crate::workload::{Generator, Workload};

/// How long to load before measuring, and how the measured time is cut.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub warmup: Duration,
    pub rounds: usize,
    pub round: Duration,
}

impl Schedule {
    /// `seconds` of measurement in ten rounds after a warm-up as long as one
    /// round. Every end-to-end number is the median of the ten round values,
    /// so a few disturbed rounds do not move it.
    pub fn for_seconds(seconds: f64) -> Schedule {
        let round = Duration::from_secs_f64(seconds / 10.0);
        Schedule {
            warmup: round,
            rounds: 10,
            round,
        }
    }

    pub fn total(&self) -> Duration {
        self.warmup + self.round * self.rounds as u32
    }
}

/// Work that runs beside the clients, on its own thread, for as long as the
/// load lasts (the traced run's ping probe).
pub type SideTask<'a> = &'a (dyn Fn(Duration) + Sync);

/// One statement as a client saw it, kept in memory by a traced load.
#[derive(Debug, Clone, Copy)]
pub struct StmtSpan {
    pub client: usize,
    pub class: usize,
    /// Nanoseconds since the load began.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Latencies of one round, in ns, by statement class.
type RoundSamples = Vec<Vec<u32>>;

/// What one client saw.
struct ClientLog<G> {
    gen: G,
    /// `rounds[r][class]`.
    rounds: Vec<RoundSamples>,
    attempted: u64,
    failed: u64,
    /// The first few failures in full.
    failure_notes: Vec<String>,
    /// Rows the model expected back, warm-up included.
    rows: u64,
    spans: Vec<StmtSpan>,
}

/// Failures printed in full per client; the rest are only counted.
const NOTES_PER_CLIENT: usize = 5;

/// One end-to-end number: the median over rounds, how far the rounds lie
/// apart, `(max − min) / median`, and the round values themselves.
#[derive(Debug, Clone)]
pub struct RoundMedian {
    pub value: f64,
    pub spread: f64,
    pub rounds: Vec<f64>,
}

impl RoundMedian {
    fn of(values: &[f64]) -> RoundMedian {
        RoundMedian {
            value: median(values),
            spread: spread(values),
            rounds: values.to_vec(),
        }
    }
}

/// The outcome of one load phase.
pub struct LoadResult<G> {
    /// The generators, with the models the final check compares against.
    pub gens: Vec<G>,
    pub stmt_per_s: RoundMedian,
    pub p50_us: RoundMedian,
    pub p99_us: RoundMedian,
    pub cpu_us_per_stmt: RoundMedian,
    /// Median latency per statement class over all measured rounds, µs.
    pub class_p50_us: Vec<f64>,
    /// 99th percentile latency per statement class over all measured rounds, µs.
    pub class_p99_us: Vec<f64>,
    /// Statements per class over all measured rounds.
    pub class_count: Vec<u64>,
    /// Statements in the measured rounds (the sample behind the percentiles).
    pub measured: u64,
    /// Statements sent and checked, warm-up included.
    pub attempted: u64,
    /// Statements whose reply disagreed with the model or that failed
    /// outright (after the client's own retries).
    pub failed: u64,
    /// The first few of those, with statement and seed.
    pub failure_notes: Vec<String>,
    /// Rows the model expected back, warm-up included.
    pub rows: u64,
    /// One span per statement, if the load was traced.
    pub spans: Vec<StmtSpan>,
}

/// Drive one closed-loop client per generator in `gens` for `schedule`,
/// continuing their streams and checking every reply against the generator's
/// model. In a `traced` load every statement also leaves a span in memory.
pub fn run_load<W: Workload>(
    workload: &W,
    gens: Vec<W::Gen>,
    seed: u64,
    schedule: Schedule,
    traced: bool,
    side: Option<SideTask<'_>>,
) -> LoadResult<W::Gen> {
    let classes = W::CLASSES.len();
    let start = Instant::now();
    let mut cpu_at = Vec::with_capacity(schedule.rounds + 1);
    let logs: Vec<ClientLog<W::Gen>> = std::thread::scope(|scope| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(client, gen)| {
                scope.spawn(move || {
                    client_loop(workload, client, gen, seed, start, schedule, traced)
                })
            })
            .collect();
        if let Some(side) = side {
            scope.spawn(move || side(schedule.total()));
        }
        // Process CPU at every round boundary, read while the clients run.
        for r in 0..=schedule.rounds {
            let boundary = schedule.warmup + schedule.round * r as u32;
            std::thread::sleep(boundary.saturating_sub(start.elapsed()));
            cpu_at.push(cpu_seconds());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut rate = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut cpu = Vec::new();
    let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); classes];
    for r in 0..schedule.rounds {
        let mut pooled: Vec<u32> = Vec::new();
        for log in &logs {
            for (class, samples) in log.rounds[r].iter().enumerate() {
                pooled.extend_from_slice(samples);
                by_class[class].extend_from_slice(samples);
            }
        }
        pooled.sort_unstable();
        let n = pooled.len().max(1) as f64;
        rate.push(pooled.len() as f64 / schedule.round.as_secs_f64());
        p50.push(percentile(&pooled, 0.5) as f64 / 1e3);
        p99.push(percentile(&pooled, 0.99) as f64 / 1e3);
        cpu.push((cpu_at[r + 1] - cpu_at[r]) * 1e6 / n);
    }
    let class_count: Vec<u64> = by_class.iter().map(|s| s.len() as u64).collect();
    for samples in &mut by_class {
        samples.sort_unstable();
    }
    let class_percentile = |p: f64| -> Vec<f64> {
        by_class
            .iter()
            .map(|s| percentile(s, p) as f64 / 1e3)
            .collect()
    };
    let (class_p50_us, class_p99_us) = (class_percentile(0.5), class_percentile(0.99));

    let mut result = LoadResult {
        gens: Vec::with_capacity(logs.len()),
        stmt_per_s: RoundMedian::of(&rate),
        p50_us: RoundMedian::of(&p50),
        p99_us: RoundMedian::of(&p99),
        cpu_us_per_stmt: RoundMedian::of(&cpu),
        class_p50_us,
        class_p99_us,
        measured: class_count.iter().sum(),
        class_count,
        attempted: 0,
        failed: 0,
        failure_notes: Vec::new(),
        rows: 0,
        spans: Vec::new(),
    };
    for log in logs {
        result.spans.extend(log.spans);
        result.gens.push(log.gen);
        result.attempted += log.attempted;
        result.failed += log.failed;
        result.failure_notes.extend(log.failure_notes);
        result.rows += log.rows;
    }
    result
}

fn client_loop<W: Workload>(
    workload: &W,
    client: usize,
    mut gen: W::Gen,
    seed: u64,
    start: Instant,
    schedule: Schedule,
    traced: bool,
) -> ClientLog<W::Gen> {
    let mut exec = workload.executor();
    let mut rounds: Vec<RoundSamples> = vec![vec![Vec::new(); W::CLASSES.len()]; schedule.rounds];
    let (mut attempted, mut failed, mut rows) = (0u64, 0u64, 0u64);
    let mut failure_notes = Vec::new();
    let mut spans = Vec::new();
    while start.elapsed() < schedule.total() {
        let stmt = gen.next_stmt();
        let sent = Instant::now();
        let reply = exec.run(&stmt);
        let done = Instant::now();
        attempted += 1;
        if traced {
            spans.push(StmtSpan {
                client,
                class: stmt.class,
                start_ns: (sent - start).as_nanos() as u64,
                end_ns: (done - start).as_nanos() as u64,
            });
        }
        if let Expect::Rows { count, .. } = stmt.expect {
            rows += count as u64;
        }
        match check(&stmt.expect, &reply) {
            Ok(()) => gen.confirmed(&reply),
            Err(why) => {
                failed += 1;
                if failure_notes.len() < NOTES_PER_CLIENT {
                    failure_notes.push(format!("seed {seed}: `{}`: {why}", stmt.text));
                }
            }
        }
        // A statement belongs to the round it completed in; warm-up
        // statements are checked but not timed.
        if let Some(since) = (done - start).checked_sub(schedule.warmup) {
            let r = (since.as_nanos() / schedule.round.as_nanos()) as usize;
            let ns = (done - sent).as_nanos().min(u32::MAX as u128) as u32;
            rounds[r.min(schedule.rounds - 1)][stmt.class].push(ns);
        }
    }
    ClientLog {
        gen,
        rounds,
        attempted,
        failed,
        failure_notes,
        rows,
        spans,
    }
}
