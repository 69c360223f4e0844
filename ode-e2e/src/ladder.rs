//! The ladder: a seeded sample of statements executed one at a time, stage by
//! stage, in this process — wire codec on the statement's real request and
//! reply, the analyzer pass, the footprint pass, the parser, execute, commit,
//! and for reads the whole statement through a shell session — one span per
//! call into a layer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ode_core::obs::flight::set_trace;
use ode_core::{parse_query, Database, ExecResult};
use ode_model::parse_expr;
use ode_server::wire::protocol::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES};
use ode_shell::Session;

use crate::check::{check, Applied, Reply};
use crate::counters::level;
use crate::recorder::{Recorder, Stage};
use crate::workload::{Executor, Generator, Stmt, Workload, RETRY};

/// Statements the ladder executes stage by stage, at most.
const LADDER_SAMPLE: usize = 2_000;

/// Stands in for a DML statement's reply when the codec is timed: the shell
/// answers DML with one short line, and only its size matters to the codec.
const DML_REPLY: &str = "updated 1 object(s)";

/// Encode, frame, unframe and decode one message through a `Vec`, as the two
/// ends of the socket do between them.
fn through_codec(request: &Request, response: &Response) {
    let mut wire = Vec::new();
    write_frame(&mut wire, &request.encode()).expect("frame request");
    let payload = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES).expect("unframe request");
    std::hint::black_box(Request::decode(&payload).expect("decode request"));
    wire.clear();
    write_frame(&mut wire, &response.encode()).expect("frame response");
    let payload = read_frame(&mut wire.as_slice(), MAX_FRAME_BYTES).expect("unframe response");
    std::hint::black_box(Response::decode(&payload).expect("decode response"));
}

/// The predicate text of an `update`/`delete` statement, for the parser probe.
fn predicate_of(text: &str) -> Option<&str> {
    let rest = &text[text.find("suchthat (")? + "suchthat (".len()..];
    let mut depth = 1usize;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// What the ladder measured beside the per-stage samples.
#[derive(Default)]
pub struct LadderTotals {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Σ root-span durations of the engine's own flight recorder, and the
    /// bench-timed wall of the same calls, over the sampled statements.
    pub flight_ns: u64,
    pub engine_wall_ns: u64,
    /// Growth of the WAL over one single-threaded commit, bytes.
    pub wal_bytes: Vec<f64>,
    /// Commit durations of all DML samples, ns.
    pub commit_ns: Vec<u32>,
}

impl LadderTotals {
    /// Run the in-process part of one statement under a fresh trace id of
    /// the engine's flight recorder, and add what the recorder saw of it (its
    /// root spans) and what the bench timed to the coverage totals.
    fn under_flight<R>(&mut self, db: &Database, f: impl FnOnce(&mut LadderTotals) -> R) -> R {
        let flight = db.flight();
        let trace = flight.mint_trace();
        let ctx = set_trace(trace);
        let started = Instant::now();
        let out = f(self);
        self.engine_wall_ns += started.elapsed().as_nanos() as u64;
        drop(ctx);
        self.flight_ns += flight
            .for_trace(trace)
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.duration_ns())
            .sum::<u64>();
        out
    }
}

/// Execute and commit one DML statement in this process, one span each. A
/// fired trigger's action can commit between this statement's begin and its
/// commit; a validation lost that way is retried as the wire clients do.
fn ladder_dml(
    db: &Database,
    text: &str,
    rec: &mut Recorder,
    root: usize,
    totals: &mut LadderTotals,
) -> Reply {
    let mut attempt = 0;
    loop {
        let wal_before = level(db, "storage.wal_bytes");
        let outcome = rec
            .stage(Stage::Exec, root, || {
                let mut tx = db.begin();
                tx.execute(text).map(|result| (tx, result))
            })
            .and_then(|(tx, result)| {
                let committed = rec.stage(Stage::Commit, root, || tx.commit());
                totals.commit_ns.push(rec.last_ns);
                committed.map(|info| (result, info.enqueued.len()))
            });
        let (result, enqueued) = match outcome {
            Ok(done) => done,
            Err(e) if e.is_unavailable() && attempt < RETRY.attempts => {
                std::thread::sleep(RETRY.base_delay * (1 << attempt));
                attempt += 1;
                continue;
            }
            Err(e) => return Reply::Rejected(e.to_string()),
        };
        if let (Some(before), Some(after)) = (wal_before, level(db, "storage.wal_bytes")) {
            // A checkpoint in between truncates the WAL; skip that sample.
            if after > before {
                totals.wal_bytes.push(after - before);
            }
        }
        return match result {
            ExecResult::Created(_) => Reply::Applied(Applied::Created),
            ExecResult::Updated(count) => Reply::Applied(Applied::Updated { count, enqueued }),
            ExecResult::Deleted(n) => Reply::Applied(Applied::Deleted(n)),
            other => Reply::Failed(format!("not a DML result: {other:?}")),
        };
    }
}

/// Execute one wire statement stage by stage in this process. A read also
/// goes whole through a shell session, and over an idle connection for the
/// real reply the oracle checks; DML runs only here, stage by stage, so it is
/// applied once, and the oracle checks its typed result.
fn ladder_wire_stmt(
    db: &Database,
    wire: &mut dyn Executor,
    shell: &mut Session,
    stmt: &Stmt,
    rec: &mut Recorder,
    root: usize,
    totals: &mut LadderTotals,
) -> Reply {
    let text = stmt.text.as_str();
    let is_read = text.starts_with("forall");
    let reply = totals.under_flight(db, |totals| {
        let _ = rec.warm_stage(Stage::Analyze, root, || db.analyze_statement(text));
        let _ = rec.warm_stage(Stage::Footprint, root, || db.statement_footprint(text));
        if is_read {
            let _ = rec.warm_stage(Stage::Exec, root, || db.begin_read().execute(text));
            None
        } else {
            Some(ladder_dml(db, text, rec, root, totals))
        }
    });
    let (reply, response) = match reply {
        Some(applied) => (applied, Response::Output(DML_REPLY.into())),
        None => {
            rec.warm_stage(Stage::Parse, root, || parse_query(text).map(|_| ()).ok());
            rec.warm_stage(Stage::Shell, root, || shell.eval_line(text));
            let reply = rec.stage(Stage::IdleRoundtrip, root, || wire.run(stmt));
            let response = match &reply {
                Reply::Output(out) => Response::Output(out.clone()),
                other => Response::Output(format!("{other:?}")),
            };
            (reply, response)
        }
    };
    if let (false, Some(predicate)) = (is_read, predicate_of(text)) {
        rec.warm_stage(Stage::Parse, root, || {
            parse_expr(predicate).map(|_| ()).ok()
        });
    }
    let request = Request::TracedLine {
        trace: 1,
        text: text.to_string(),
    };
    rec.warm_stage(Stage::Codec, root, || through_codec(&request, &response));
    reply
}

/// Up to [`LADDER_SAMPLE`] statements of `gen`'s stream, or as many as fit in
/// `budget`, one at a time.
pub fn run_ladder<W: Workload>(
    workload: &W,
    gen: &mut W::Gen,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
) -> LadderTotals {
    let env = workload.env();
    let db: &Database = &env.db;
    let served = env.server.is_some();
    let mut totals = LadderTotals::default();
    let mut exec = workload.executor();
    let mut shell = Session::with_shared(Arc::clone(&env.db));
    let started = Instant::now();
    while (totals.attempted as usize) < LADDER_SAMPLE && started.elapsed() < budget {
        let stmt = gen.next_stmt();
        let root = rec.open_stmt(totals.attempted as usize, stmt.class);
        let reply = if served {
            ladder_wire_stmt(db, exec.as_mut(), &mut shell, &stmt, rec, root, &mut totals)
        } else {
            // The embedded workload's statement is one library call: the
            // whole ladder is its execute stage.
            totals.under_flight(db, |_| rec.stage(Stage::Exec, root, || exec.run(&stmt)))
        };
        rec.close(root);
        totals.attempted += 1;
        match check(&stmt.expect, &reply) {
            Ok(()) => gen.confirmed(&reply),
            Err(why) => {
                totals.failed += 1;
                if totals.notes.len() < 5 {
                    totals
                        .notes
                        .push(format!("seed {seed}: `{}`: {why}", stmt.text));
                }
            }
        }
    }
    totals
}
