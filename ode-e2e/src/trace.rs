//! The traced run: where a statement's time goes, layer by layer, measured
//! from outside the program.
//!
//! End-to-end numbers come from a run with tracing off ([`crate::report`]).
//! This separate run gives the per-layer numbers, in five phases on one
//! set-up:
//!
//! 1. **untraced load** — the same closed loop, briefly, for the rate the
//!    traced load is compared with;
//! 2. **traced load** — the closed loop again, every statement leaving a span
//!    in memory, and the public counters snapshotted before and after: the
//!    counted metrics are name-keyed deltas over this phase;
//! 3. **floor** — one client keeps sending statements while the other
//!    connection pings in a closed loop: the median ping is the wire +
//!    connection loop + TCP floor of a busy server, no shell;
//! 4. **ladder** — a seeded sample of at most 2 000 statements executed one
//!    at a time, stage by stage, in this process: wire codec on the
//!    statement's real request and reply, the analyzer pass, the footprint
//!    pass, the parser, execute, commit, and for reads the whole statement
//!    through a shell session — one span per call ([`crate::ladder`]);
//! 5. **probes** — what a statement's time is made of further down: a raw
//!    store scan, object decode, predicate evaluation and encode per object,
//!    the environment's loopback and fsync floors, a timed checkpoint
//!    ([`crate::probes`]).
//!
//! The spans of phases 2 (a sample) and 4 are written to
//! `<scratch>/trace_<workload>.json` when the run ends.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ode_core::Database;
use ode_storage::page::PAGE_SIZE;

use crate::counters::{level, Snapshot};
use crate::driver::{run_load, LoadResult, Schedule, StmtSpan};
use crate::host::{fsync_us, loopback_rtt_us};
use crate::ladder::run_ladder;
use crate::probes::{ping_probe, run_probes};
use crate::recorder::{Recorder, Stage};
use crate::report::{declared_metrics, Report};
use crate::stats::{median, percentile};
use crate::workload::Workload;

/// The per-layer metrics, in the order and with the units `BENCHMARK.json`
/// declares them. Layers are named after the repository's crates and modules.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.loopback_rtt_us", "us"),
    ("host.fsync_us", "us"),
    ("wire.codec_us", "us"),
    ("wire.bytes_in_per_stmt", "B"),
    ("wire.bytes_out_per_stmt", "B"),
    ("wire.client_retries_per_stmt", "ratio"),
    ("server.ping_rtt_us", "us"),
    ("server.requests_per_stmt", "ratio"),
    ("server.timed_out", "count"),
    ("server.socket_errors", "count"),
    ("shell.line_us", "us"),
    ("shell.residual_us", "us"),
    ("analyze.stmt_us", "us"),
    ("analyze.footprint_us", "us"),
    ("analyze.passes_per_stmt", "ratio"),
    ("model.parse_us", "us"),
    ("model.decode_ns_per_obj", "ns"),
    ("model.eval_ns_per_obj", "ns"),
    ("model.encode_ns_per_obj", "ns"),
    ("core.query.exec_us", "us"),
    ("core.query.scan_ns_per_obj", "ns"),
    ("core.query.objects_scanned_per_row", "ratio"),
    ("core.query.index_probe_share", "ratio"),
    ("core.query.fixpoint_rounds_per_call", "ratio"),
    ("core.query.fixpoint_scanned_per_visit", "ratio"),
    ("core.txn.exec_us", "us"),
    ("core.txn.commit_us", "us"),
    ("core.txn.commit_p99_us", "us"),
    ("core.txn.conflicts_per_commit", "ratio"),
    ("core.txn.retries_per_commit", "ratio"),
    ("core.txn.gate_wait_us", "us"),
    ("core.txn.constraint_aborts_per_stmt", "ratio"),
    ("core.trigger.condition_evals_per_commit", "ratio"),
    ("core.trigger.firings_per_commit", "ratio"),
    ("sched.drained_per_enqueued", "ratio"),
    ("sched.drain_lag_us", "us"),
    ("sched.queue_high_water", "count"),
    ("sched.dead_letters", "count"),
    ("sched.settle_ms", "ms"),
    ("storage.scan_ns_per_obj", "ns"),
    ("storage.pager_hit_ratio", "ratio"),
    ("storage.pager_evictions_per_stmt", "ratio"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.fsyncs_per_commit", "ratio"),
    ("storage.mean_cohort", "ratio"),
    ("storage.write_amp", "ratio"),
    ("storage.space_amp", "ratio"),
    ("storage.checkpoint_ms", "ms"),
    ("obs.flight_span_coverage", "ratio"),
    ("e2e.p99_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.ladder_coverage", "ratio"),
];

/// Client spans of the traced load kept for the span file, per client.
const LOAD_SPANS_KEPT: usize = 1_000;

/// Set up `W` once and run the four traced phases within about `seconds`.
pub fn run_traced<W: Workload>(seed: u64, seconds: f64, scratch: &Path) -> Report {
    let dir = scratch.join(format!("{}-{}", W::NAME, std::process::id()));
    let workload = W::setup(seed, &dir);
    let env = workload.env();
    let db: &Database = &env.db;
    let phase = |share: f64| Schedule::for_seconds(seconds * share / 1.1);

    // Phase 1: untraced.
    let gens = (0..W::CLIENTS)
        .map(|c| workload.generator(c, seed))
        .collect();
    let untraced = run_load(&workload, gens, seed, phase(0.25), false, None);

    // Phase 2: traced, between two counter snapshots, then let the scheduler settle.
    let before = Snapshot::take(db, env.server.as_ref());
    let traced = run_load(&workload, untraced.gens, seed, phase(0.3), true, None);
    let settle = Instant::now();
    let settled = env
        .server
        .as_ref()
        .is_none_or(|s| s.scheduler().wait_idle(Duration::from_secs(20)));
    let settle_ms = settle.elapsed().as_secs_f64() * 1e3;
    let counters = Snapshot::take(db, env.server.as_ref()).since(&before);
    let queue_high_water = level(db, "sched.queue_high_water");
    let LoadResult {
        mut gens,
        spans: load_spans,
        ..
    } = traced;

    // Phase 3: the floor. Client 0 keeps the server busy; the other
    // connection pings.
    let pings = Mutex::new(Vec::new());
    let side = |total: Duration| ping_probe(env, total, &pings);
    let busy = gens.drain(..1).collect();
    let floor = run_load(&workload, busy, seed, phase(0.1), false, Some(&side));
    gens.splice(0..0, floor.gens);
    let mut pings = pings.into_inner().expect("ping samples");
    pings.sort_unstable();

    // Phase 4: the ladder, continuing client 0's stream.
    let mut rec = Recorder::new(W::CLASSES.len());
    let ladder = run_ladder(
        &workload,
        &mut gens[0],
        seed,
        Duration::from_secs_f64(seconds * 0.25),
        &mut rec,
    );

    // Phase 5: probes and floors.
    let probes = run_probes(&workload);
    let loopback_us = loopback_rtt_us(2_000);
    let (fsync, checkpoint_ms, space_amp) = match &env.dir {
        Some(dir) => {
            let fsync = fsync_us(dir, 100);
            let t = Instant::now();
            db.checkpoint().expect("checkpoint");
            let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
            let file_bytes: u64 = std::fs::read_dir(dir)
                .expect("store dir")
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum();
            (
                fsync,
                checkpoint_ms,
                file_bytes as f64 / probes.heap_bytes.max(1.0),
            )
        }
        None => (0.0, 0.0, 0.0),
    };

    // ---- assemble the metrics -------------------------------------------
    let stmts = traced.attempted as f64;
    let ping_us = percentile(&pings, 0.5) as f64 / 1e3;
    let measured: f64 = traced.class_count.iter().sum::<u64>() as f64;
    let shares: Vec<f64> = traced
        .class_count
        .iter()
        .map(|n| *n as f64 / measured.max(1.0))
        .collect();
    let weighted = |stage| rec.weighted_us(stage, &shares);
    let p50_us: f64 = shares
        .iter()
        .zip(&traced.class_p50_us)
        .map(|(share, p50)| share * p50)
        .sum();
    // What the engine's stages explain of a loaded statement's median, with
    // the server floor under load and the codec. `core.exec` already
    // contains its own analyzer pass and parse.
    let engine_us = |class: usize| -> f64 {
        [Stage::Analyze, Stage::Footprint, Stage::Exec, Stage::Commit]
            .into_iter()
            .map(|stage| rec.stage_us(stage, class).unwrap_or(0.0))
            .sum()
    };
    let floor_us = |class: usize| ping_us + rec.stage_us(Stage::Codec, class).unwrap_or(0.0);
    // What the whole ladder explains: where a class went through a shell
    // session in process, that call stands for the engine stages inside it.
    let explained_us = |class: usize| -> f64 {
        floor_us(class)
            + rec
                .stage_us(Stage::Shell, class)
                .unwrap_or_else(|| engine_us(class))
    };
    let over_classes = |per_class: &dyn Fn(usize) -> f64| -> f64 {
        shares
            .iter()
            .enumerate()
            .map(|(class, share)| share * per_class(class))
            .sum()
    };
    let explained = over_classes(&explained_us);
    let engine_explained = over_classes(&|class| floor_us(class) + engine_us(class));
    // Execute cost split by statement kind. A wire read is a class the
    // ladder sent over the idle connection; the embedded calls are queries.
    let served = env.server.is_some();
    let (mut query_exec, mut txn_exec) = (0.0, 0.0);
    for (c, share) in shares.iter().enumerate() {
        let exec = share * rec.stage_us(Stage::Exec, c).unwrap_or(0.0);
        if !served || rec.stage_us(Stage::IdleRoundtrip, c).is_some() {
            query_exec += exec;
        } else {
            txn_exec += exec;
        }
    }
    let mut commit_ns = ladder.commit_ns.clone();
    commit_ns.sort_unstable();

    let c = &counters;
    let wire_per_stmt = |name: &str| {
        if served {
            c.per(name, stmts)
        } else {
            Some(0.0)
        }
    };
    let requests_per_stmt = wire_per_stmt("server.requests");
    let pager_hit_ratio = match (c.get("storage.pager_hits"), c.get("storage.pager_misses")) {
        (Some(h), Some(m)) if h + m > 0.0 => Some(h / (h + m)),
        // Nothing went through a pager (`MemStore`): nothing missed.
        (Some(_), Some(_)) => Some(1.0),
        _ => None,
    };
    let wal_bytes_per_commit = median(&ladder.wal_bytes);
    let write_amp =
        c.ratio("storage.pager_writebacks", "storage.commits")
            .map(|writebacks_per_commit| {
                if probes.mean_record_bytes == 0.0 || wal_bytes_per_commit == 0.0 {
                    0.0
                } else {
                    (wal_bytes_per_commit + writebacks_per_commit * PAGE_SIZE as f64)
                        / probes.mean_record_bytes
                }
            });

    let server_count = |name: &str| if served { c.get(name) } else { Some(0.0) };
    let values: Vec<(&str, Option<f64>)> = vec![
        ("host.loopback_rtt_us", Some(loopback_us)),
        ("host.fsync_us", Some(fsync)),
        ("wire.codec_us", Some(weighted(Stage::Codec))),
        ("wire.bytes_in_per_stmt", wire_per_stmt("server.bytes_in")),
        ("wire.bytes_out_per_stmt", wire_per_stmt("server.bytes_out")),
        (
            "wire.client_retries_per_stmt",
            requests_per_stmt.map(|r| (r - 1.0).max(0.0)),
        ),
        ("server.ping_rtt_us", Some(ping_us)),
        ("server.requests_per_stmt", requests_per_stmt),
        ("server.timed_out", server_count("server.timed_out")),
        ("server.socket_errors", server_count("server.socket_errors")),
        ("shell.line_us", Some(weighted(Stage::Shell))),
        (
            "shell.residual_us",
            Some(if served {
                p50_us - engine_explained
            } else {
                0.0
            }),
        ),
        ("analyze.stmt_us", Some(weighted(Stage::Analyze))),
        ("analyze.footprint_us", Some(weighted(Stage::Footprint))),
        ("analyze.passes_per_stmt", c.per("analyze.passes", stmts)),
        ("model.parse_us", Some(weighted(Stage::Parse))),
        ("model.decode_ns_per_obj", Some(probes.decode_ns_per_obj)),
        ("model.eval_ns_per_obj", Some(probes.eval_ns_per_obj)),
        ("model.encode_ns_per_obj", Some(probes.encode_ns_per_obj)),
        ("core.query.exec_us", Some(query_exec)),
        (
            "core.query.scan_ns_per_obj",
            Some(probes.query_scan_ns_per_obj),
        ),
        (
            "core.query.objects_scanned_per_row",
            c.per("query.objects_scanned", traced.rows as f64),
        ),
        (
            "core.query.index_probe_share",
            c.ratio("query.index_probes", "query.foralls"),
        ),
        (
            "core.query.fixpoint_rounds_per_call",
            c.per("query.fixpoint_rounds", stmts),
        ),
        (
            "core.query.fixpoint_scanned_per_visit",
            c.ratio("query.objects_scanned", "query.fixpoint_new_objects"),
        ),
        ("core.txn.exec_us", Some(txn_exec)),
        (
            "core.txn.commit_us",
            Some(percentile(&commit_ns, 0.5) as f64 / 1e3),
        ),
        (
            "core.txn.commit_p99_us",
            Some(percentile(&commit_ns, 0.99) as f64 / 1e3),
        ),
        (
            "core.txn.conflicts_per_commit",
            c.ratio("txn.conflicts", "txn.committed"),
        ),
        (
            "core.txn.retries_per_commit",
            c.ratio("commit.retries", "txn.committed"),
        ),
        ("core.txn.gate_wait_us", c.get("txn.gate_wait.mean_us")),
        (
            "core.txn.constraint_aborts_per_stmt",
            c.per("txn.aborted_constraint", stmts),
        ),
        (
            "core.trigger.condition_evals_per_commit",
            c.ratio("triggers.condition_evals", "txn.committed"),
        ),
        (
            "core.trigger.firings_per_commit",
            c.ratio("triggers.firings", "txn.committed"),
        ),
        (
            "sched.drained_per_enqueued",
            match (c.get("sched.enqueued"), c.get("sched.drained")) {
                // Nothing fired: nothing left undrained.
                (Some(0.0), Some(_)) => Some(1.0),
                (Some(enqueued), Some(drained)) => Some(drained / enqueued),
                _ => None,
            },
        ),
        ("sched.drain_lag_us", c.get("sched.drain_lag.mean_us")),
        ("sched.queue_high_water", queue_high_water),
        ("sched.dead_letters", c.get("sched.dead_letters")),
        ("sched.settle_ms", Some(settle_ms)),
        (
            "storage.scan_ns_per_obj",
            Some(probes.store_scan_ns_per_obj),
        ),
        ("storage.pager_hit_ratio", pager_hit_ratio),
        (
            "storage.pager_evictions_per_stmt",
            c.per("storage.pager_evictions", stmts),
        ),
        ("storage.wal_bytes_per_commit", Some(wal_bytes_per_commit)),
        (
            "storage.fsyncs_per_commit",
            c.ratio("storage.wal_fsyncs", "storage.commits"),
        ),
        (
            "storage.mean_cohort",
            c.ratio("storage.commit_group_members", "storage.commit_groups"),
        ),
        ("storage.write_amp", write_amp),
        ("storage.space_amp", Some(space_amp)),
        ("storage.checkpoint_ms", Some(checkpoint_ms)),
        (
            "obs.flight_span_coverage",
            Some(ladder.flight_ns as f64 / (ladder.engine_wall_ns as f64).max(1.0)),
        ),
        ("e2e.p99_us", Some(untraced.p99_us.value)),
        (
            "bench.trace_overhead_ratio",
            Some(traced.stmt_per_s.value / untraced.stmt_per_s.value.max(f64::MIN_POSITIVE)),
        ),
        (
            "bench.ladder_coverage",
            Some(explained / p50_us.max(f64::MIN_POSITIVE)),
        ),
    ];
    let metrics = declared_metrics(PER_LAYER, values);

    // ---- the ladder, for people -----------------------------------------
    eprintln!(
        "  traced load: n = {} statements; floor: {} pings beside {} statements; \
         ladder: {} statements; flush policy: {}",
        traced.measured,
        pings.len(),
        floor.attempted,
        ladder.attempted,
        W::FLUSH_POLICY
    );
    eprintln!(
        "  {:<18} {:>8} {:>10} {:>10} stages (us): codec analyze footprint parse exec commit \
         shell_line idle_roundtrip",
        "class", "share", "p50_us", "explained"
    );
    for (cl, class) in W::CLASSES.iter().enumerate() {
        let s = |stage| rec.stage_us(stage, cl).unwrap_or(0.0);
        eprintln!(
            "  {:<18} {:>8.3} {:>10.1} {:>10.1} {:.1} {:.1} {:.1} {:.1} {:.1} {:.1} {:.1} {:.1}",
            class,
            shares[cl],
            traced.class_p50_us[cl],
            explained_us(cl),
            s(Stage::Codec),
            s(Stage::Analyze),
            s(Stage::Footprint),
            s(Stage::Parse),
            s(Stage::Exec),
            s(Stage::Commit),
            s(Stage::Shell),
            s(Stage::IdleRoundtrip)
        );
    }
    eprintln!(
        "  read / write / space: storage.pager_hit_ratio, storage.write_amp and \
         storage.space_amp are reported together below"
    );

    let kept: Vec<StmtSpan> = (0..W::CLIENTS)
        .flat_map(|client| {
            load_spans
                .iter()
                .filter(move |s| s.client == client)
                .take(LOAD_SPANS_KEPT)
                .copied()
        })
        .collect();
    rec.write_json(
        &kept,
        W::CLASSES,
        &scratch.join(format!("trace_{}.json", W::NAME)),
    );

    let mut errors: Vec<String> = Vec::new();
    if !settled {
        errors.push("scheduler did not go idle within 20 s of the traced load".into());
    }
    errors.extend(workload.finish(gens));
    for note in untraced
        .failure_notes
        .iter()
        .chain(&traced.failure_notes)
        .chain(&floor.failure_notes)
        .chain(&ladder.notes)
        .chain(&errors)
    {
        eprintln!("MISMATCH {note}");
    }
    let failed = untraced.failed + traced.failed + floor.failed + ladder.failed;
    Report {
        workload: W::NAME,
        correct: failed == 0 && errors.is_empty(),
        attempted: untraced.attempted + traced.attempted + floor.attempted + ladder.attempted,
        failed: failed + errors.len() as u64,
        metrics,
    }
}
