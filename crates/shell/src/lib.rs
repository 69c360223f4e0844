//! # ode-shell
//!
//! The interactive *environment* half of "Object Database and
//! Environment": a REPL session over an Ode database. One statement per
//! input (class declarations may span lines until their braces balance),
//! each statement run by [`Database::execute`] as its own transaction —
//! mirroring the paper's "any O++ program that interacts with the
//! database is a single transaction" stance at statement granularity.
//! The session assembles lines, answers meta-commands and renders
//! results; the engine runs the statements.
//!
//! Supported input:
//!
//! * **DDL** — `class … { … }` declarations (O++ syntax, see
//!   `ode_model::ddl`), `create cluster <class>`,
//!   `create index <class> <field>`, `destroy cluster <class>`,
//! * **queries** — `forall …` statements (printed as a table),
//! * **DML** — `pnew …`, `update … set …`, `delete …`,
//! * **meta commands** — `.help`, `.classes`, `.describe <class>`,
//!   `.clusters`, `.indexes`, `.show <oid>`, `.versions <oid>`, `.exit`.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use ode_core::analyze::statement_head;
use ode_core::obs::flight::{current_trace, set_trace};
use ode_core::obs::logging::escape_into;
use ode_core::obs::{prom, render_spans, SlowQuery, SpanStage, TraceId};
use ode_core::oql::{ExecResult, Executed};
use ode_core::prelude::*;
use ode_core::{batch_interference, has_errors, parse_statement, Footprint};
use ode_model::{Oid, VersionRef};

/// A live shell session over one (possibly shared) database. Sessions
/// hold the database behind an [`Arc`], so any number of them — local
/// REPLs, `ode-server` connections — can run over the same engine.
pub struct Session {
    db: Arc<Database>,
    /// Buffered partial input (multi-line class declarations).
    lines: Assembler,
    /// Set by `.exit`.
    done: bool,
    /// Trace id of the most recent statement (what a bare `.trace`
    /// shows). Inherited from the wire frame when the server set a trace
    /// context, minted locally otherwise.
    last_trace: TraceId,
    /// Built by the server for a remote client: its meta-commands run on
    /// the server host, so the ones that name a file there are refused.
    remote: bool,
}

/// Outcome of feeding one line to a session. `ode-server` maps
/// [`EvalResult::Error`] to a typed wire error; the REPL prints it as
/// `error: …`.
#[derive(Debug)]
pub enum EvalResult {
    /// Output to print (possibly empty).
    Output(String),
    /// The statement ran and the engine rejected it.
    Error(OdeError),
    /// The line was absorbed; more input is needed (unbalanced braces).
    Continue,
    /// `.exit` was requested.
    Exit,
}

/// Joins input lines into statements the way the shell reads them:
/// blank and `//` lines are skipped, and a `class` line is continued
/// until its braces balance. The REPL and `.check` share it.
#[derive(Default)]
struct Assembler {
    pending: String,
}

/// What one line gave the [`Assembler`].
enum Assembled<'a> {
    /// A blank or comment line outside any statement.
    Blank,
    /// The line was absorbed into an unfinished statement.
    Continue,
    /// A complete statement (or meta-command), untrimmed.
    Statement(Cow<'a, str>),
}

impl Assembler {
    /// Feed one line.
    fn push<'a>(&mut self, line: &'a str) -> Assembled<'a> {
        if !self.pending.is_empty() {
            self.pending.push('\n');
            self.pending.push_str(line);
            if balanced(&self.pending) {
                return Assembled::Statement(Cow::Owned(std::mem::take(&mut self.pending)));
            }
            return Assembled::Continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("//") {
            return Assembled::Blank;
        }
        if trimmed.starts_with("class") && !balanced(trimmed) {
            self.pending = line.to_string();
            return Assembled::Continue;
        }
        Assembled::Statement(Cow::Borrowed(line))
    }

    /// Is a statement still waiting for more lines?
    fn is_continuing(&self) -> bool {
        !self.pending.is_empty()
    }
}

impl Session {
    /// Open a durable session.
    pub fn open(dir: &Path) -> Result<Session> {
        Ok(Session::with_database(Database::open(dir)?))
    }

    /// Open a volatile in-memory session.
    pub fn in_memory() -> Session {
        Session::with_database(Database::in_memory())
    }

    /// Wrap an existing database.
    pub fn with_database(db: Database) -> Session {
        Session::with_shared(Arc::new(db))
    }

    /// A session over an already-shared database (one of many — the
    /// server opens one per connection).
    pub fn with_shared(db: Arc<Database>) -> Session {
        Session {
            db,
            lines: Assembler::default(),
            done: false,
            last_trace: TraceId::NONE,
            remote: false,
        }
    }

    /// A session the server runs for one remote client. It refuses
    /// `.export`, `.import` and `.check`: their file paths would be read
    /// or written on the server host, on behalf of a client that holds no
    /// credentials for it.
    pub fn remote(db: Arc<Database>) -> Session {
        Session {
            remote: true,
            ..Session::with_shared(db)
        }
    }

    /// Trace id of the most recent statement this session executed.
    pub fn last_trace(&self) -> TraceId {
        self.last_trace
    }

    /// Access the underlying database (tests, host integration).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Has `.exit` been issued?
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Is the session waiting for more lines of a multi-line declaration?
    pub fn is_continuing(&self) -> bool {
        self.lines.is_continuing()
    }

    /// Feed one input line: the session's single entry point.
    pub fn eval_line(&mut self, line: &str) -> EvalResult {
        let stmt = match self.lines.push(line) {
            Assembled::Blank => return EvalResult::Output(String::new()),
            Assembled::Continue => return EvalResult::Continue,
            Assembled::Statement(stmt) => stmt,
        };
        let trimmed = stmt.trim();
        if trimmed == ".exit" || trimmed == ".quit" {
            self.done = true;
            return EvalResult::Exit;
        }
        let out = match trimmed.strip_prefix('.') {
            Some(meta) => self.meta(meta),
            None => self.statement(trimmed),
        };
        match out {
            Ok(out) => EvalResult::Output(out),
            Err(e) => EvalResult::Error(e),
        }
    }

    /// Execute and render one statement under a request span, offering
    /// it to the slow-query log; rendering is part of the request.
    fn statement(&mut self, stmt: &str) -> Result<String> {
        // Trace context: adopt the caller's trace (the server sets one
        // from the wire frame before dispatching) or mint a fresh one, so
        // every statement's spans are retrievable by id afterwards.
        let flight = Arc::clone(self.db.flight());
        let inherited = current_trace();
        let _ctx = if inherited.is_traced() {
            None
        } else {
            Some(set_trace(flight.mint_trace()))
        };
        let trace = current_trace();
        self.last_trace = trace;
        let started = std::time::Instant::now();

        let result = {
            let mut span = flight.span(SpanStage::Request, statement_head(stmt));
            let r = self.db.execute(stmt).and_then(render);
            if r.is_err() {
                span.set_detail(format!("{} (error)", statement_head(stmt)));
            }
            r
        };

        // Slow-query log: over-threshold statements are captured with
        // their plan (execute-span details) and per-stage timings.
        let total_ns = started.elapsed().as_nanos() as u64;
        if total_ns >= self.db.slow_log().threshold_ns() {
            let spans = flight.for_trace(trace);
            let mut stages: Vec<(String, u64)> = Vec::new();
            let mut plan: Vec<(String, String)> = Vec::new();
            for s in &spans {
                let name = s.stage.name().to_string();
                match stages.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, ns)) => *ns += s.duration_ns(),
                    None => stages.push((name, s.duration_ns())),
                }
                if s.stage == SpanStage::Execute && !s.detail.is_empty() {
                    plan.push(("strategy".to_string(), s.detail.clone()));
                }
                // The commit span's detail carries the published epoch and
                // the validation/turn wait (DESIGN.md §13) — keep it so a
                // slow commit shows *where* the time went.
                if s.stage == SpanStage::Commit && !s.detail.is_empty() {
                    plan.push(("commit".to_string(), s.detail.clone()));
                }
            }
            self.db.slow_log().offer(SlowQuery {
                trace,
                statement: stmt.to_string(),
                total_ns,
                plan,
                stages,
                at_ms: 0,
            });
        }
        result
    }

    fn meta(&mut self, cmd: &str) -> Result<String> {
        let mut parts = cmd.split_whitespace();
        let head = parts.next().unwrap_or("");
        if self.remote && matches!(head, "export" | "import" | "check") {
            return Err(OdeError::Usage(format!(
                ".{head} reads or writes files on the server host and is refused \
                 over a connection; run it in a local ode-shell"
            )));
        }
        match head {
            "help" => Ok(HELP.trim().to_string()),
            "classes" => {
                let mut out = String::new();
                self.db.with_schema(|s| {
                    for c in s.classes() {
                        let bases: Vec<&str> = c
                            .bases
                            .iter()
                            .filter_map(|b| s.class(*b).ok().map(|d| d.name.as_str()))
                            .collect();
                        let _ = writeln!(
                            out,
                            "{} ({} fields{}{})",
                            c.name,
                            c.layout.len(),
                            if bases.is_empty() { "" } else { ", bases: " },
                            bases.join(", ")
                        );
                    }
                });
                if out.is_empty() {
                    out.push_str("no classes defined");
                }
                Ok(out.trim_end().to_string())
            }
            "describe" => {
                let name = parts
                    .next()
                    .ok_or_else(|| OdeError::Usage("usage: .describe <class>".into()))?;
                self.db.with_schema(|s| -> Result<String> {
                    let def = s.class_by_name(name)?;
                    let mut out = format!("class {}", def.name);
                    if !def.bases.is_empty() {
                        let bases: Vec<&str> = def
                            .bases
                            .iter()
                            .filter_map(|b| s.class(*b).ok().map(|d| d.name.as_str()))
                            .collect();
                        let _ = write!(out, " : {}", bases.join(", "));
                    }
                    let _ = writeln!(out, " {{");
                    for f in &def.layout {
                        let declared = s
                            .class(f.declared_in)
                            .map(|c| c.name.clone())
                            .unwrap_or_default();
                        let _ = writeln!(
                            out,
                            "    {} {};{}",
                            f.ty.name(),
                            f.name,
                            if declared == def.name {
                                String::new()
                            } else {
                                format!("  // from {declared}")
                            }
                        );
                    }
                    for (owner, c) in s.all_constraints(def.id)? {
                        let _ = writeln!(
                            out,
                            "    constraint {}: {};  // from {}",
                            c.name, c.src, owner.name
                        );
                    }
                    for (owner, t) in s.all_triggers(def.id)? {
                        let _ = writeln!(
                            out,
                            "    {}trigger {}({}) : {};  // from {}",
                            if t.perpetual { "perpetual " } else { "" },
                            t.name,
                            t.params.join(", "),
                            t.condition_src,
                            owner.name
                        );
                    }
                    out.push('}');
                    Ok(out)
                })
            }
            "clusters" => {
                let mut out = String::new();
                let names: Vec<String> = self
                    .db
                    .with_schema(|s| s.classes().iter().map(|c| c.name.clone()).collect());
                for name in names {
                    if self.db.has_cluster(&name) {
                        let n = self.db.extent_size(&name, false)?;
                        let deep = self.db.extent_size(&name, true)?;
                        let _ = writeln!(out, "{name}: {n} object(s), {deep} in hierarchy");
                    }
                }
                if out.is_empty() {
                    out.push_str("no clusters");
                }
                Ok(out.trim_end().to_string())
            }
            "indexes" => {
                let mut out = String::new();
                for (class, field) in self.db.index_names() {
                    let _ = writeln!(out, "{class}.{field}");
                }
                if out.is_empty() {
                    out.push_str("no indexes");
                }
                Ok(out.trim_end().to_string())
            }
            "triggers" => {
                let mut out = String::new();
                let armed = self.db.activation_summary();
                if armed.is_empty() {
                    let _ = writeln!(out, "no armed activations");
                } else {
                    let _ = writeln!(out, "armed activations:");
                    for (trigger, count) in armed {
                        let _ = writeln!(out, "  {trigger:<24} {count}");
                    }
                }
                let (ready, claimed) = self.db.backlog_counts();
                let _ = writeln!(
                    out,
                    "firing: {} ({ready} ready, {claimed} claimed)",
                    if self.db.firing_decoupled() {
                        "decoupled (scheduler attached)"
                    } else {
                        "inline"
                    }
                );
                if let Some(rows) = self.db.sched_status() {
                    for (k, v) in rows {
                        let _ = writeln!(out, "  {k:<24} {v}");
                    }
                }
                Ok(out.trim_end().to_string())
            }
            "export" => {
                let path = parts
                    .next()
                    .ok_or_else(|| OdeError::Usage("usage: .export <file>".into()))?;
                let dump = self.db.export()?;
                std::fs::write(path, &dump)
                    .map_err(|e| OdeError::Usage(format!("cannot write {path}: {e}")))?;
                Ok(format!("wrote {} bytes to {path}", dump.len()))
            }
            "import" => {
                let path = parts
                    .next()
                    .ok_or_else(|| OdeError::Usage("usage: .import <file>".into()))?;
                let dump = std::fs::read(path)
                    .map_err(|e| OdeError::Usage(format!("cannot read {path}: {e}")))?;
                let stats = self.db.import(&dump)?;
                Ok(format!(
                    "imported {} class(es), {} object(s), {} version(s), {} activation(s)",
                    stats.classes, stats.objects, stats.versions, stats.activations
                ))
            }
            "show" => {
                let spec = parts
                    .next()
                    .ok_or_else(|| OdeError::Usage("usage: .show <cluster:page.slot>".into()))?;
                render_object(&self.db.begin_read(), parse_oid(spec)?)
            }
            "stats" => match parts.next() {
                Some("reset") => {
                    self.db.reset_telemetry();
                    Ok("telemetry counters and query profiles reset".to_string())
                }
                Some("profiles") => {
                    let profiles = self.db.query_profiles();
                    if profiles.is_empty() {
                        return Ok("no query profiles".to_string());
                    }
                    let mut out = String::new();
                    for (key, bucket) in profiles {
                        let p = &bucket.profile;
                        let _ = writeln!(
                            out,
                            "{key}: passes={} scanned={} pred_evals={} probes={} rows={}",
                            bucket.passes,
                            p.objects_scanned,
                            p.predicate_evals,
                            p.index_probes,
                            p.rows
                        );
                    }
                    Ok(out.trim_end().to_string())
                }
                Some(other) => Err(OdeError::Usage(format!(
                    "usage: .stats [reset|profiles] (got `{other}`)"
                ))),
                None => {
                    let snap = self.db.telemetry();
                    let mut out = String::new();
                    for (k, v) in snap.rows() {
                        let _ = writeln!(out, "{k:<32} {v}");
                    }
                    // Derived: how many commits each cohort fsync covered
                    // (1.00 = no group-commit sharing).
                    if snap.storage.commit_groups > 0 {
                        let mean = snap.storage.commit_group_members as f64
                            / snap.storage.commit_groups as f64;
                        let _ = writeln!(out, "{:<32} {mean:.2}", "storage.mean_cohort");
                    }
                    Ok(out.trim_end().to_string())
                }
            },
            "trace" => match parts.next() {
                None => {
                    if !self.last_trace.is_traced() {
                        return Ok("no statement traced yet".to_string());
                    }
                    let spans = self.db.flight().for_trace(self.last_trace);
                    Ok(render_spans(&spans))
                }
                Some("on") => {
                    self.db.flight().set_enabled(true);
                    Ok("flight recorder enabled".to_string())
                }
                Some("off") => {
                    self.db.flight().set_enabled(false);
                    Ok("flight recorder disabled".to_string())
                }
                Some("recent") => {
                    let ids = self.db.flight().recent_traces(16);
                    if ids.is_empty() {
                        return Ok("no traces recorded".to_string());
                    }
                    let mut out = String::new();
                    for id in ids {
                        let _ = writeln!(out, "{id}");
                    }
                    Ok(out.trim_end().to_string())
                }
                Some(spec) => Ok(self.db.flight().render_trace(parse_trace_id(spec)?)),
            },
            "slow" => match parts.next() {
                None => Ok(self.db.slow_log().render()),
                Some("clear") => {
                    self.db.slow_log().clear();
                    Ok("slow-query log cleared".to_string())
                }
                Some(ms) => {
                    let ms: u64 = ms.parse().map_err(|_| {
                        OdeError::Usage(format!("usage: .slow [<threshold-ms>|clear] (got `{ms}`)"))
                    })?;
                    self.db.slow_log().set_threshold_ns(ms * 1_000_000);
                    Ok(format!("slow-query threshold set to {ms} ms"))
                }
            },
            "metrics" => {
                let engine = self.db.telemetry();
                let workload = self.db.workload_stats();
                Ok(prom::render(
                    &engine,
                    None,
                    &workload,
                    self.db.flight().recorded(),
                ))
            }
            "check" => {
                let mut json = false;
                let mut files = Vec::new();
                for p in parts {
                    if p == "--json" {
                        json = true;
                    } else {
                        files.push(p.to_string());
                    }
                }
                if files.is_empty() {
                    return Err(OdeError::Usage("usage: .check [--json] <file> ...".into()));
                }
                let report = check_files(&files).map_err(OdeError::Usage)?;
                let out = if json {
                    report.render_json()
                } else {
                    report.render_text()
                };
                if report.has_errors() {
                    // Scripted sessions need a non-zero exit: surface the
                    // findings as a typed analysis error, each annotated
                    // with its file and line.
                    let diags = report
                        .findings
                        .iter()
                        .map(|f| {
                            let mut d = f.diag.clone();
                            d.message = format!("{}:{}: {}", f.file, f.line, d.message);
                            d
                        })
                        .collect();
                    return Err(OdeError::Analysis(diags));
                }
                Ok(out)
            }
            "versions" => {
                let spec = parts.next().ok_or_else(|| {
                    OdeError::Usage("usage: .versions <cluster:page.slot>".into())
                })?;
                let oid = parse_oid(spec)?;
                let tx = self.db.begin_read();
                let versions = tx.versions(oid)?;
                let current = tx.current_version(oid)?;
                let mut out = String::new();
                for v in versions {
                    let parent = tx.parent_version(VersionRef { oid, version: v })?;
                    let _ = writeln!(
                        out,
                        "v{v}{}{}",
                        match parent {
                            Some(p) => format!(" (parent v{p})"),
                            None => " (root)".to_string(),
                        },
                        if v == current { "  <- current" } else { "" }
                    );
                }
                Ok(out.trim_end().to_string())
            }
            other => Err(OdeError::Usage(format!(
                "unknown command `.{other}` (try .help)"
            ))),
        }
    }
}

// ------------------------------------------------------------ rendering

/// Render an executed statement: the analyzer's warnings, then the
/// result, then what its commit fired. Rows render from the snapshot
/// that selected them.
fn render(done: Executed<'_>) -> Result<String> {
    let mut out = String::new();
    for w in &done.warnings {
        let _ = writeln!(out, "{w}");
    }
    let reply = match &done.result {
        ExecResult::Rows(rows) => {
            let snapshot = done
                .snapshot
                .as_ref()
                .expect("Database::execute returns rows with the snapshot that selected them");
            for row in &rows.rows {
                for (var, oid) in rows.vars.iter().zip(row.iter()) {
                    let line = render_object(snapshot, *oid)?;
                    let _ = writeln!(out, "{var} = {line}");
                }
            }
            format!("{} row(s)", rows.rows.len())
        }
        ExecResult::Explain(prof) => format_explain(prof, done.footprint.as_ref()),
        ExecResult::Created(oid) => format!("created {oid}"),
        ExecResult::Updated(n) => format!("updated {n} object(s)"),
        ExecResult::Deleted(n) => format!("deleted {n} object(s)"),
        ExecResult::Activated { id, trigger, oid } => {
            format!("activated {id} ({trigger} on {oid})")
        }
        ExecResult::Deactivated(id) => format!("deactivated {id}"),
        ExecResult::Defined(names) => format!("defined class(es): {}", names.join(", ")),
        ExecResult::ClusterCreated(class) => format!("cluster `{class}` ready"),
        ExecResult::ClusterDestroyed(class) => format!("cluster `{class}` destroyed"),
        ExecResult::IndexCreated { class, field } => format!("index on {class}.{field} ready"),
    };
    out.push_str(&reply);
    if let Some(info) = &done.commit {
        for f in &info.fired {
            let _ = write!(out, "\ntrigger `{}` fired on {}", f.trigger, f.oid);
        }
        // Decoupled mode (a scheduler is attached): the commit returned
        // before the actions ran, so report what it left ready.
        for f in &info.enqueued {
            let _ = write!(out, "\ntrigger `{}` enqueued on {}", f.trigger, f.oid);
        }
        for fail in &info.failures {
            let _ = write!(
                out,
                "\ntrigger action failed on {}: {}",
                fail.oid, fail.error
            );
        }
    }
    Ok(out)
}

/// Render one object as the shell prints it:
/// `oid (class) { field: value, … }`.
pub fn render_object<C: ReadContext>(tx: &C, oid: Oid) -> Result<String> {
    let state = tx.read_obj(oid)?;
    tx.db().with_schema(|schema| -> Result<String> {
        let def = schema.class(state.class)?;
        let mut s = format!("{oid} ({})", def.name);
        s.push_str(" { ");
        for (i, f) in def.layout.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", f.name, state.fields[i]);
        }
        s.push_str(" }");
        Ok(s)
    })
}

// ------------------------------------------------------------ batch lint

/// One `.check` finding: an analyzer diagnostic tied back to the file
/// and line of the statement that produced it.
#[derive(Debug, Clone)]
pub struct CheckFinding {
    /// The file (or label) the statement came from.
    pub file: String,
    /// 1-based line where the statement starts.
    pub line: usize,
    /// The analyzer's finding.
    pub diag: Diagnostic,
}

/// The static footprint of one checked statement (DML and queries;
/// DDL has no statement footprint).
#[derive(Debug, Clone)]
pub struct CheckFootprint {
    /// The file (or label) the statement came from.
    pub file: String,
    /// 1-based line where the statement starts.
    pub line: usize,
    /// Rendered `reads …; writes …` form (see
    /// [`ode_core::Footprint`]'s `Display`).
    pub footprint: String,
    /// Proven to touch no write machinery.
    pub read_only: bool,
}

/// Accumulated results of batch-linting one or more O++ source files.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Every finding, in file/statement order.
    pub findings: Vec<CheckFinding>,
    /// Per-statement footprints, in file/statement order.
    pub footprints: Vec<CheckFootprint>,
    /// A301 batch-interference findings: statement pairs in one file
    /// whose footprints cannot be proven disjoint. Advisory, kept apart
    /// from `findings` — a script's statements run sequentially, where
    /// interference is normal; the pairs matter when the statements are
    /// dispatched as concurrent transactions.
    pub interference: Vec<CheckFinding>,
    /// Files checked.
    pub files: usize,
    /// Statements checked (across all files).
    pub statements: usize,
}

impl CheckReport {
    /// Error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.diag.severity == Severity::Error)
            .count()
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// Should a batch run exit non-zero?
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// `file:line: severity[code]: message` lines plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: {}[{}]: {}",
                f.file, f.line, f.diag.severity, f.diag.code, f.diag.message
            );
        }
        let _ = write!(
            out,
            "{} file(s), {} statement(s): {} error(s), {} warning(s)",
            self.files,
            self.statements,
            self.errors(),
            self.warnings()
        );
        out
    }

    /// Machine-readable report: one JSON object with the schema
    ///
    /// ```json
    /// {
    ///   "files": <int>, "statements": <int>,
    ///   "errors": <int>, "warnings": <int>,
    ///   "findings": [
    ///     {"file": <string>, "line": <int>, "code": "A301",
    ///      "severity": "error" | "warning", "message": <string>}, …
    ///   ],
    ///   "footprints": [
    ///     {"file": <string>, "line": <int>,
    ///      "footprint": "reads stockitem[quantity in [5, 5]]; …",
    ///      "read_only": <bool>}, …
    ///   ],
    ///   "interference": [ <same object shape as findings> ]
    /// }
    /// ```
    ///
    /// Keys appear in exactly this order; `findings` follow
    /// file/statement order, `footprints` cover each analyzable DML or
    /// query statement (DDL contributes none), and `interference` holds
    /// the advisory A301 pairs (excluded from the `warnings` count — see
    /// [`CheckReport::interference`]). The schema only grows — consumers
    /// should ignore unknown keys.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"files\":{},\"statements\":{},\"errors\":{},\"warnings\":{},\"findings\":[",
            self.files,
            self.statements,
            self.errors(),
            self.warnings()
        );
        write_findings(&mut out, &self.findings);
        out.push_str("],\"footprints\":[");
        for (i, fp) in self.footprints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"file\":\"");
            escape_into(&mut out, &fp.file);
            let _ = write!(out, "\",\"line\":{},\"footprint\":\"", fp.line);
            escape_into(&mut out, &fp.footprint);
            let _ = write!(out, "\",\"read_only\":{}}}", fp.read_only);
        }
        out.push_str("],\"interference\":[");
        write_findings(&mut out, &self.interference);
        out.push_str("]}");
        out
    }
}

/// The JSON objects of `findings`, comma-separated (see
/// [`CheckReport::render_json`]).
fn write_findings(out: &mut String, findings: &[CheckFinding]) {
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":\"");
        escape_into(out, &f.file);
        let _ = write!(
            out,
            "\",\"line\":{},\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"",
            f.line, f.diag.code, f.diag.severity
        );
        escape_into(out, &f.diag.message);
        out.push_str("\"}");
    }
}

/// Read and batch-lint each file into one [`CheckReport`]. `Err` only
/// for I/O failures (unreadable file); findings — including statements
/// that do not parse — go into the report.
pub fn check_files(paths: &[String]) -> std::result::Result<CheckReport, String> {
    let mut report = CheckReport::default();
    for path in paths {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        check_source(path, &source, &mut report);
    }
    Ok(report)
}

/// Batch-lint one O++ source: every statement is analyzed against a
/// scratch in-memory database, with DDL (`class`, `create cluster`,
/// `create index`, `destroy cluster`) *applied* as it passes so later
/// statements resolve against the schema and catalog the file builds up.
/// DML and queries are analyzed but never executed. Statement assembly
/// mirrors the REPL: `//` comments and blank lines skipped, `.meta`
/// lines skipped (they are interactive-only), class declarations span
/// lines until their braces balance.
pub fn check_source(file: &str, source: &str, report: &mut CheckReport) {
    let db = Database::in_memory();
    report.files += 1;
    let mut lines = Assembler::default();
    let mut start_line = 0usize;
    let mut batch: Vec<(usize, Footprint)> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        if !lines.is_continuing() {
            start_line = idx + 1;
        }
        match lines.push(raw) {
            Assembled::Statement(stmt) if !stmt.trim().starts_with('.') => {
                check_statement(&db, file, start_line, &stmt, report, &mut batch);
            }
            _ => {}
        }
    }
    // A301 — the file's statements treated as a batch: every pair whose
    // footprints the interference pass cannot prove disjoint. Pairwise
    // so each finding anchors on the earlier statement's line.
    for i in 0..batch.len() {
        for j in i + 1..batch.len() {
            for diag in batch_interference(&[batch[i].clone(), batch[j].clone()]) {
                report.interference.push(CheckFinding {
                    file: file.to_string(),
                    line: batch[i].0,
                    diag,
                });
            }
        }
    }
    if lines.is_continuing() {
        report.statements += 1;
        report.findings.push(CheckFinding {
            file: file.to_string(),
            line: start_line,
            diag: Diagnostic::parse_failure(
                "unterminated class declaration (braces unbalanced at end of file)".into(),
            ),
        });
    }
}

fn check_statement(
    db: &Database,
    file: &str,
    line: usize,
    src: &str,
    report: &mut CheckReport,
    batch: &mut Vec<(usize, Footprint)>,
) {
    report.statements += 1;
    let src = src.trim();
    let diags = match parse_statement(src) {
        Err(e) => vec![Diagnostic::parse_failure(OdeError::from(e).to_string())],
        Ok(stmt) => {
            let mut diags = db.analyze(&stmt, src);
            if !has_errors(&diags) {
                if let Some(fp) = db.footprint(&stmt) {
                    report.footprints.push(CheckFootprint {
                        file: file.to_string(),
                        line,
                        footprint: fp.to_string(),
                        read_only: fp.read_only(),
                    });
                    batch.push((line, fp));
                }
                // Apply schema-shaping statements so the rest of the file
                // resolves.
                if stmt.is_ddl() {
                    if let Err(e) = db.run(&stmt) {
                        diags.push(Diagnostic::parse_failure(e.to_string()));
                    }
                }
            }
            diags
        }
    };
    report
        .findings
        .extend(diags.into_iter().map(|diag| CheckFinding {
            file: file.to_string(),
            line,
            diag,
        }));
}

/// Render an `explain` profile as aligned `key value` lines, with the
/// statement's static footprint appended: what the analyzer proved about
/// the clusters, index, and key ranges the statement can touch, next to
/// what the executor actually did.
fn format_explain(prof: &QueryProfile, footprint: Option<&Footprint>) -> String {
    let mut out = String::new();
    for (k, v) in prof.rows() {
        let _ = writeln!(out, "{k:<24} {v}");
    }
    if let Some(fp) = footprint {
        let _ = writeln!(out, "{:<24} {}", "footprint", fp);
    }
    out.trim_end().to_string()
}

/// Parse a trace id as the shell prints it (`0x`-prefixed hex) or as
/// plain hex/decimal digits.
pub fn parse_trace_id(spec: &str) -> Result<TraceId> {
    let bad = || {
        OdeError::Usage(format!(
            "`{spec}` is not a trace id (hex, e.g. 0x68958f2a00001)"
        ))
    };
    let raw = spec.trim();
    let id = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|_| bad())?
    } else {
        // Bare ids are hex too (that is how they print); fall back to
        // decimal for hand-typed small numbers.
        u64::from_str_radix(raw, 16)
            .or_else(|_| raw.parse())
            .map_err(|_| bad())?
    };
    Ok(TraceId(id))
}

/// Parse `cluster:page.slot` — the textual oid form the shell prints.
pub fn parse_oid(spec: &str) -> Result<Oid> {
    spec.parse()
        .map_err(|_| OdeError::Usage(format!("`{spec}` is not an oid (cluster:page.slot)")))
}

/// Are braces balanced (outside string literals)? Drives multi-line DDL.
fn balanced(src: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str: Option<char> = None;
    for c in src.chars() {
        match in_str {
            Some(q) => {
                if c == q {
                    in_str = None;
                }
            }
            None => match c {
                '\'' | '"' => in_str = Some(c),
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            },
        }
    }
    depth <= 0 && in_str.is_none()
}

const HELP: &str = r#"
Ode shell — every statement is its own transaction.

schema:
  class <name> [: public <base>, ...] { <members> }   define a class
  create cluster <class>                              create the type extent
  create index <class> <field>                        secondary index
  destroy cluster <class>                             drop extent + objects

queries (forall ... suchthat ... by ...):
  forall s in stockitem suchthat (quantity < 10) by (name)
  forall e in employee, d in dept suchthat (e.dno == d.dno)
  forall p in only person                             exact class, no subclasses
  explain forall ...                                  plan + execution profile

data manipulation:
  pnew <class> (field = expr, ...)
  update <v> in <class> [suchthat (...)] set f = expr [, ...]
  delete <v> in <class> [suchthat (...)]

triggers:
  activate <trigger> on <oid> (arg, ...)      arm a trigger (§6)
  deactivate trigger#<id>                     disarm before it fires

meta:
  .classes   .describe <class>   .clusters   .indexes
  .show <oid>   .versions <oid>
  .triggers                            armed activations, firing mode
                                       (inline/decoupled), scheduler status
  .check [--json] <file> ...           batch-lint O++ files (no execution)
  .stats [reset]                       engine telemetry counters
  .stats profiles                      accumulated per-query profiles
  .trace [<id>|recent|on|off]          flight-recorder spans (last statement,
                                       a specific trace, or toggle recording)
  .slow [<threshold-ms>|clear]         slow-query log / set threshold
  .metrics                             Prometheus text exposition of all counters
                                       (remote: the server's own counters too)
  .export <file>   .import <file>      whole-database dump / restore
  .help   .exit

remote sessions (ode-shell --connect) refuse .export, .import and .check
(their files would live on the server host) and additionally understand:
  .server                              serving-layer stats
  .subscribe <class> <predicate>       live-stream commits matching the
                                       predicate (printed as `push ...`)
  .unsubscribe <id>   .watch [secs]    stop a stream / wait for pushes

Every statement is statically analyzed before it runs: errors (unknown
members, type mismatches, contradictory constraints) reject the
statement before a transaction is opened; warnings (unsatisfiable
suchthat, unindexed equality, trigger cycles) print inline.
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(s: &mut Session, line: &str) -> String {
        match s.eval_line(line) {
            EvalResult::Output(o) => o,
            EvalResult::Error(e) => format!("error: {e}"),
            EvalResult::Continue => String::new(),
            EvalResult::Exit => "<exit>".into(),
        }
    }

    #[test]
    fn full_session() {
        let mut s = Session::in_memory();
        // Multi-line DDL.
        assert!(matches!(
            s.eval_line("class stockitem {"),
            EvalResult::Continue
        ));
        assert!(s.is_continuing());
        assert!(matches!(
            s.eval_line("    string name; int quantity = 0;"),
            EvalResult::Continue
        ));
        let out = feed(&mut s, "}");
        assert!(out.contains("defined class(es): stockitem"), "{out}");
        assert!(!s.is_continuing());

        let out = feed(&mut s, "create cluster stockitem");
        assert!(out.contains("ready"), "{out}");

        let out = feed(&mut s, r#"pnew stockitem (name = "dram", quantity = 9)"#);
        assert!(out.starts_with("created "), "{out}");

        let out = feed(&mut s, "forall s in stockitem suchthat (quantity > 5)");
        assert!(out.contains("dram"), "{out}");
        assert!(out.contains("1 row(s)"), "{out}");

        let out = feed(&mut s, "update s in stockitem set quantity = 20");
        assert!(out.contains("updated 1"), "{out}");

        let out = feed(&mut s, ".clusters");
        assert!(out.contains("stockitem: 1 object(s)"), "{out}");

        let out = feed(&mut s, "delete s in stockitem");
        assert!(out.contains("deleted 1"), "{out}");

        assert!(matches!(s.eval_line(".exit"), EvalResult::Exit));
        assert!(s.finished());
    }

    #[test]
    fn single_line_ddl_and_describe() {
        let mut s = Session::in_memory();
        feed(&mut s, "class a { int x = 0; constraint: x >= 0; }");
        feed(&mut s, "class b : public a { string y; }");
        let out = feed(&mut s, ".describe b");
        assert!(out.contains("class b : a"), "{out}");
        assert!(out.contains("int x;  // from a"), "{out}");
        assert!(out.contains("constraint"), "{out}");
        let out = feed(&mut s, ".classes");
        assert!(out.contains("a (1 fields)"), "{out}");
        assert!(out.contains("b (2 fields, bases: a)"), "{out}");
    }

    #[test]
    fn trigger_firings_are_reported() {
        let mut s = Session::in_memory();
        feed(
            &mut s,
            "class item { int qty = 100; int on_order = 0; trigger low(n) : qty < $n { on_order = $n; } }",
        );
        feed(&mut s, "create cluster item");
        let out = feed(&mut s, "pnew item (qty = 50)");
        let oid = out.trim_start_matches("created ").to_string();
        // Activate through the API (the shell has no activation statement;
        // hosts do this in code).
        let oid_parsed = parse_oid(&oid).unwrap();
        s.database()
            .transaction(|tx| {
                tx.activate_trigger(oid_parsed, "low", vec![Value::Int(40)])?;
                Ok(())
            })
            .unwrap();
        let out = feed(&mut s, "update i in item set qty = 10");
        assert!(out.contains("trigger `low` fired"), "{out}");
        let out = feed(&mut s, &format!(".show {oid}"));
        assert!(out.contains("on_order: 40"), "{out}");
    }

    #[test]
    fn versions_meta_command() {
        let mut s = Session::in_memory();
        feed(&mut s, "class doc { int rev = 0; }");
        feed(&mut s, "create cluster doc");
        let out = feed(&mut s, "pnew doc");
        let oid = parse_oid(out.trim_start_matches("created ")).unwrap();
        s.database()
            .transaction(|tx| {
                tx.newversion(oid)?;
                tx.set(oid, "rev", 1i64)?;
                Ok(())
            })
            .unwrap();
        let out = feed(
            &mut s,
            &format!(".versions {}", out.trim_start_matches("created ")),
        );
        assert!(out.contains("v0 (root)"), "{out}");
        assert!(out.contains("v1 (parent v0)  <- current"), "{out}");
    }

    #[test]
    fn errors_do_not_kill_the_session() {
        let mut s = Session::in_memory();
        let out = feed(&mut s, "forall x in nowhere");
        assert!(out.starts_with("error:"), "{out}");
        let out = feed(&mut s, ".bogus");
        assert!(out.contains("unknown command"), "{out}");
        let out = feed(&mut s, "create index a b c");
        assert!(out.starts_with("error:"), "{out}");
        // Still usable.
        feed(&mut s, "class ok { int v; }");
        let out = feed(&mut s, ".classes");
        assert!(out.contains("ok"), "{out}");
    }

    #[test]
    fn stats_and_explain_commands() {
        let mut s = Session::in_memory();
        feed(&mut s, "class part { string name; int weight = 0; }");
        feed(&mut s, "create cluster part");
        feed(&mut s, "create index part weight");
        feed(&mut s, r#"pnew part (name = "bolt", weight = 3)"#);
        feed(&mut s, r#"pnew part (name = "plate", weight = 11)"#);
        feed(&mut s, "forall p in part suchthat (weight == 3)");

        // `.stats` shows nonzero counters after the workload above.
        let out = feed(&mut s, ".stats");
        assert!(out.contains("txn.committed"), "{out}");
        assert!(out.contains("query.foralls"), "{out}");
        let counter = |name: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        // The two `pnew`s committed write transactions; the `forall` ran
        // on the snapshot read path and so shows up in read_txns only.
        assert!(counter("txn.committed") >= 2, "{out}");
        assert!(counter("txn.read_txns") >= 1, "{out}");
        assert_eq!(counter("txn.write_txns"), counter("txn.committed"), "{out}");
        // The multi-writer counters are reported (zero on this serial
        // workload, but the operator must be able to see them).
        assert_eq!(counter("txn.conflicts"), 0, "{out}");
        assert_eq!(counter("commit.retries"), 0, "{out}");
        assert!(out.contains("storage.commit_groups"), "{out}");

        // `explain` returns a plan + profile instead of rows.
        let out = feed(&mut s, "explain forall p in part suchthat (weight == 3)");
        assert!(out.contains("strategy"), "{out}");
        assert!(out.contains("index probe on `weight`"), "{out}");
        assert!(out.contains("rows"), "{out}");

        let out = feed(
            &mut s,
            "explain forall p in part suchthat (name == \"bolt\")",
        );
        assert!(out.contains("deep extent scan"), "{out}");

        // Reset zeroes the counters.
        let out = feed(&mut s, ".stats reset");
        assert!(out.contains("reset"), "{out}");
        let out = feed(&mut s, ".stats");
        let committed: u64 = out
            .lines()
            .find(|l| l.starts_with("txn.committed"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(committed, 0, "{out}");

        // Bad sub-command is a usage error, not a crash.
        let out = feed(&mut s, ".stats bogus");
        assert!(out.starts_with("error:"), "{out}");

        // Help mentions the new surfaces.
        let out = feed(&mut s, ".help");
        assert!(out.contains(".stats [reset]"), "{out}");
        assert!(out.contains("explain forall"), "{out}");
    }

    #[test]
    fn stats_reset_clears_query_profiles() {
        let mut s = Session::in_memory();
        feed(&mut s, "class part { string name; int weight = 0; }");
        feed(&mut s, "create cluster part");
        feed(&mut s, r#"pnew part (name = "bolt", weight = 3)"#);
        assert_eq!(feed(&mut s, ".stats profiles"), "no query profiles");
        feed(&mut s, "forall p in part suchthat (weight == 3)");
        feed(&mut s, "forall p in part suchthat (weight == 3)");
        let out = feed(&mut s, ".stats profiles");
        assert!(out.contains("part | deep extent scan"), "{out}");
        assert!(out.contains("passes=2"), "{out}");
        // Reset clears counters AND the accumulated profiles, so a
        // long-lived server session cannot grow telemetry unboundedly.
        let out = feed(&mut s, ".stats reset");
        assert!(out.contains("query profiles reset"), "{out}");
        assert_eq!(feed(&mut s, ".stats profiles"), "no query profiles");
        assert!(s.database().query_profiles().is_empty());
    }

    #[test]
    fn trace_slow_and_metrics_commands() {
        let mut s = Session::in_memory();
        feed(&mut s, "class item { int qty = 0; }");
        feed(&mut s, "create cluster item");
        feed(&mut s, "pnew item (qty = 1)");
        feed(&mut s, "forall i in item");
        // Bare `.trace` shows the last statement's span tree; the
        // read-only forall ran inside a snapshot txn with an execute
        // child.
        let out = feed(&mut s, ".trace");
        assert!(out.contains("trace 0x"), "{out}");
        assert!(out.contains("txn"), "{out}");
        assert!(out.contains("execute"), "{out}");
        // `.trace <id>` retrieves the same spans by id.
        let id = format!("{}", s.last_trace());
        let out2 = feed(&mut s, &format!(".trace {id}"));
        assert_eq!(out, out2);
        // Unknown trace ids are reported, not fatal.
        let out = feed(&mut s, ".trace 0xdeadbeef");
        assert!(out.contains("no spans"), "{out}");
        let out = feed(&mut s, ".trace bogus!");
        assert!(out.starts_with("error:"), "{out}");

        // Slow log: threshold 0 captures everything.
        feed(&mut s, ".slow 0");
        feed(&mut s, "forall i in item suchthat (qty == 1)");
        let out = feed(&mut s, ".slow");
        assert!(out.contains("slow-query log"), "{out}");
        assert!(out.contains("forall i in item"), "{out}");
        assert!(out.contains("stage."), "{out}");
        feed(&mut s, ".slow clear");
        let out = feed(&mut s, ".slow");
        assert!(out.contains("0 entr"), "{out}");
        let out = feed(&mut s, ".slow 250");
        assert!(out.contains("250 ms"), "{out}");
        assert_eq!(s.database().slow_log().threshold_ns(), 250_000_000);

        // `.metrics` renders valid Prometheus exposition text.
        let out = feed(&mut s, ".metrics");
        assert!(out.contains("ode_txn_committed_total"), "{out}");
        assert!(out.contains("ode_cluster_reads_total"), "{out}");
        prom::validate(&out).unwrap();

        // The recorder can be toggled off (and back on).
        feed(&mut s, ".trace off");
        let before = s.database().flight().recorded();
        feed(&mut s, "forall i in item");
        assert_eq!(s.database().flight().recorded(), before);
        feed(&mut s, ".trace on");
        feed(&mut s, "forall i in item");
        assert!(s.database().flight().recorded() > before);
    }

    #[test]
    fn typed_eval_distinguishes_engine_errors() {
        let mut s = Session::in_memory();
        match s.eval_line("forall x in nowhere") {
            EvalResult::Error(e) => assert!(e.to_string().contains("unknown class"), "{e}"),
            other => panic!("expected typed engine error, got {other:?}"),
        }
        match s.eval_line("class partial {") {
            EvalResult::Continue => {}
            other => panic!("expected continuation, got {other:?}"),
        }
        match s.eval_line("}") {
            EvalResult::Output(o) => assert!(o.contains("defined"), "{o}"),
            other => panic!("expected output, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let mut s = Session::in_memory();
        assert_eq!(feed(&mut s, ""), "");
        assert_eq!(feed(&mut s, "   "), "");
        assert_eq!(feed(&mut s, "// a comment"), "");
    }

    #[test]
    fn trigger_statements_in_shell() {
        let mut s = Session::in_memory();
        feed(
            &mut s,
            "class item { int qty = 100; int on_order = 0; trigger low(n) : qty < $n { on_order = $n; } }",
        );
        feed(&mut s, "create cluster item");
        let out = feed(&mut s, "pnew item");
        let oid = out.trim_start_matches("created ").to_string();
        let out = feed(&mut s, &format!("activate low on {oid} (30)"));
        assert!(out.contains("activated trigger#"), "{out}");
        // Condition false: nothing fires yet.
        let out = feed(&mut s, "update i in item set qty = 50");
        assert!(!out.contains("fired"), "{out}");
        // Condition true: fires, action applied.
        let out = feed(&mut s, "update i in item set qty = 10");
        assert!(out.contains("trigger `low` fired"), "{out}");
        let out = feed(&mut s, &format!(".show {oid}"));
        assert!(out.contains("on_order: 30"), "{out}");
        // Re-arm then deactivate before it can fire.
        let out = feed(&mut s, &format!("activate low on {oid} (99)"));
        let tid = out.split_whitespace().nth(1).unwrap().to_string();
        let out = feed(&mut s, &format!("deactivate {tid}"));
        assert!(out.contains("deactivated"), "{out}");
        let out = feed(&mut s, "update i in item set qty = 1");
        assert!(!out.contains("fired"), "{out}");
    }

    #[test]
    fn export_import_through_the_shell() {
        let path = std::env::temp_dir().join(format!("ode-shell-dump-{}.odd", std::process::id()));
        let mut s1 = Session::in_memory();
        feed(&mut s1, "class item { string name; int qty = 0; }");
        feed(&mut s1, "create cluster item");
        feed(&mut s1, r#"pnew item (name = "dram", qty = 7)"#);
        let out = feed(&mut s1, &format!(".export {}", path.display()));
        assert!(out.contains("wrote"), "{out}");

        let mut s2 = Session::in_memory();
        let out = feed(&mut s2, &format!(".import {}", path.display()));
        assert!(out.contains("imported 1 class(es), 1 object(s)"), "{out}");
        let out = feed(&mut s2, "forall i in item suchthat (qty == 7)");
        assert!(out.contains("dram"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn indexes_meta_command() {
        let mut s = Session::in_memory();
        feed(&mut s, "class item { int qty = 0; }");
        feed(&mut s, "create cluster item");
        assert_eq!(feed(&mut s, ".indexes"), "no indexes");
        feed(&mut s, "create index item qty");
        assert_eq!(feed(&mut s, ".indexes"), "item.qty");
    }

    #[test]
    fn triggers_meta_command() {
        let mut s = Session::in_memory();
        feed(
            &mut s,
            "class item { int qty = 100; int on_order = 0; \
             trigger low(n) : qty < $n { on_order = $n; } }",
        );
        feed(&mut s, "create cluster item");
        let out = feed(&mut s, ".triggers");
        assert!(out.contains("no armed activations"), "{out}");
        assert!(out.contains("firing: inline"), "{out}");
        let out = feed(&mut s, "pnew item");
        let oid = out.trim_start_matches("created ").to_string();
        feed(&mut s, &format!("activate low on {oid} (30)"));
        let out = feed(&mut s, ".triggers");
        assert!(out.contains("armed activations:"), "{out}");
        assert!(out.contains("low"), "{out}");
    }

    #[test]
    fn oid_parsing() {
        let oid = parse_oid("3:7.2").unwrap();
        assert_eq!(oid.cluster, 3);
        assert_eq!(oid.rid.page, 7);
        assert_eq!(oid.rid.slot, 2);
        assert!(parse_oid("junk").is_err());
        assert!(parse_oid("1:2").is_err());
        assert!(parse_oid("a:b.c").is_err());
    }

    #[test]
    fn analysis_rejects_before_any_transaction() {
        let mut s = Session::in_memory();
        feed(&mut s, "class item { string name; int qty = 0; }");
        feed(&mut s, "create cluster item");
        let before = s.database().telemetry();
        // A read-only query with an unknown member: rejected with a coded
        // diagnostic, and no snapshot was ever taken.
        match s.eval_line("forall i in item suchthat (missing > 3)") {
            EvalResult::Error(OdeError::Analysis(diags)) => {
                assert_eq!(diags.len(), 1, "{diags:?}");
                assert_eq!(diags[0].code, "A002");
                assert_eq!(diags[0].severity, Severity::Error);
            }
            other => panic!("expected analysis error, got {other:?}"),
        }
        // DML with a type mismatch: rejected before a write transaction.
        match s.eval_line("pnew item (qty = \"lots\")") {
            EvalResult::Error(OdeError::Analysis(diags)) => {
                assert_eq!(diags[0].code, "A007");
            }
            other => panic!("expected analysis error, got {other:?}"),
        }
        let after = s.database().telemetry();
        assert_eq!(before.txn.read_txns, after.txn.read_txns);
        assert_eq!(before.txn.write_txns, after.txn.write_txns);
        assert_eq!(before.txn.begun, after.txn.begun);
        // The analyzer itself was counted.
        assert!(after.analyze.errors >= before.analyze.errors + 2);
        assert!(after.analyze.passes > before.analyze.passes);
    }

    #[test]
    fn warnings_print_inline_and_do_not_block() {
        let mut s = Session::in_memory();
        feed(&mut s, "class item { string name; int qty = 0; }");
        feed(&mut s, "create cluster item");
        let out = feed(&mut s, "forall i in item suchthat (name == \"x\")");
        assert!(out.contains("warning[A102]"), "{out}");
        assert!(out.contains("0 row(s)"), "{out}");
        // With the index the warning disappears.
        feed(&mut s, "create index item name");
        let out = feed(&mut s, "forall i in item suchthat (name == \"x\")");
        assert!(!out.contains("warning"), "{out}");
    }

    /// Parse once, analyze once, footprint at most once — per line, for
    /// every statement class (DESIGN.md §9), pinned by the `analyze.*`
    /// counters.
    #[test]
    fn one_analyzer_pass_and_one_footprint_per_line() {
        let mut s = Session::in_memory();
        for line in [
            "class item { string name; int qty = 0; }",
            "create cluster item",
            "create index item qty",
            r#"pnew item (name = "dram", qty = 5)"#,
            "forall i in item suchthat (qty == 5)",
            "forall i in item suchthat (qty > 1) by (name) desc",
            "explain forall i in item suchthat (qty == 5)",
            "update i in item suchthat (qty == 5) set qty = 6",
            "delete i in item suchthat (qty == 6)",
        ] {
            let before = s.database().telemetry().analyze;
            match s.eval_line(line) {
                EvalResult::Output(_) => {}
                other => panic!("{line}: {other:?}"),
            }
            let after = s.database().telemetry().analyze;
            assert_eq!(after.passes - before.passes, 1, "{line}");
            assert!(after.footprints - before.footprints <= 1, "{line}");
        }
    }

    #[test]
    fn create_cluster_keywords_take_any_whitespace() {
        let mut s = Session::in_memory();
        feed(&mut s, "class item { int qty = 0; }");
        let out = feed(&mut s, "create  cluster\titem");
        assert_eq!(out, "cluster `item` ready");
        assert!(s.database().has_cluster("item"));
    }

    /// Both `create index` spellings are the same statement to the shell,
    /// the analyzer and `--check`: the dotted form is applied, so a later
    /// equality query is not falsely flagged as unindexed (A102).
    #[test]
    fn check_applies_dotted_create_index() {
        let mut report = CheckReport::default();
        check_source(
            "inline.ode",
            "class item { string name; int qty = 0; }\n\
             create cluster item\n\
             create index item.qty\n\
             forall i in item suchthat (qty == 5)\n\
             create index item.bogus\n",
            &mut report,
        );
        let got: Vec<(usize, &str)> = report
            .findings
            .iter()
            .map(|f| (f.line, f.diag.code))
            .collect();
        assert_eq!(got, vec![(5, "A002")], "{}", report.render_text());
        assert!(
            report.footprints[0].footprint.contains("via index(qty)"),
            "{:?}",
            report.footprints
        );
    }

    fn corpus_path() -> String {
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/negative.ode").to_string()
    }

    fn example_script_paths() -> Vec<String> {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scripts");
        [
            "stock_items.ode",
            "persons_students.ode",
            "parts_explosion.ode",
            "versioned_docs.ode",
        ]
        .iter()
        .map(|f| format!("{root}/{f}"))
        .collect()
    }

    #[test]
    fn example_scripts_are_analyzer_clean() {
        let report = check_files(&example_script_paths()).unwrap();
        assert_eq!(report.files, 4);
        assert!(report.statements >= 60, "{}", report.statements);
        assert!(!report.has_errors(), "{}", report.render_text());
        assert_eq!(report.findings.len(), 0, "{}", report.render_text());
    }

    #[test]
    fn negative_corpus_produces_exact_codes() {
        let report = check_files(&[corpus_path()]).unwrap();
        assert!(report.has_errors());
        let got: Vec<(usize, &str)> = report
            .findings
            .iter()
            .map(|f| (f.line, f.diag.code))
            .collect();
        let expected: Vec<(usize, &str)> = vec![
            (15, "A001"), // forall over unknown class
            (16, "A001"), // pnew into unknown class
            (17, "A001"), // create cluster for unknown class
            (18, "A002"), // create index on unknown member
            (19, "A001"), // delete from unknown class
            (20, "A002"), // unknown member in suchthat
            (21, "A002"), // unknown member via path
            (22, "A003"), // unknown method
            (23, "A004"), // bare ident in join predicate
            (24, "A004"), // $param in a query
            (27, "A005"), // string ordered against int
            (28, "A005"), // int compared with string
            (29, "A006"), // bool `by` key
            (30, "A007"), // pnew init type mismatch
            (31, "A007"), // update assignment type mismatch
            (32, "A002"), // update assigns unknown member
            (35, "A008"), // contradictory constraints in one class
            (36, "A008"), // contradiction with inherited constraint
            (37, "A009"), // perpetual trigger cycle (warning)
            (38, "A201"), // trigger re-satisfies its own condition (warning)
            (41, "A101"), // unsatisfiable suchthat (warning)
            (42, "A102"), // unindexed equality (warning)
            (43, "A103"), // is-test outside hierarchy (warning)
            (46, "A000"), // statement does not parse
        ];
        assert_eq!(got, expected, "{}", report.render_text());
        assert_eq!(report.errors(), 19);
        assert_eq!(report.warnings(), 5);
    }

    #[test]
    fn check_meta_command_reports_and_fails_typed() {
        let mut s = Session::in_memory();
        // Errors: surfaced as a typed analysis error (scripted sessions
        // exit non-zero; servers answer the analysis wire kind).
        match s.eval_line(&format!(".check {}", corpus_path())) {
            EvalResult::Error(OdeError::Analysis(diags)) => {
                assert!(diags.iter().any(|d| d.code == "A001"), "{diags:?}");
                assert!(
                    diags.iter().any(|d| d.message.contains("negative.ode:15:")),
                    "{diags:?}"
                );
            }
            other => panic!("expected analysis error, got {other:?}"),
        }
        // Clean file: a summary comes back.
        let paths = example_script_paths();
        let out = feed(&mut s, &format!(".check {}", paths[0]));
        assert!(out.contains("0 error(s)"), "{out}");
        // Missing operand / unreadable file are usage errors.
        let out = feed(&mut s, ".check");
        assert!(out.contains("usage"), "{out}");
        let out = feed(&mut s, ".check /no/such/file.ode");
        assert!(out.contains("cannot read"), "{out}");
    }

    #[test]
    fn check_json_is_machine_readable() {
        let mut report = CheckReport::default();
        check_source("inline.ode", "forall x in nowhere", &mut report);
        let json = report.render_json();
        assert!(json.contains("\"errors\":1"), "{json}");
        assert!(json.contains("\"code\":\"A001\""), "{json}");
        assert!(json.contains("\"line\":1"), "{json}");
        assert!(json.contains("\"severity\":\"error\""), "{json}");
        assert!(json.contains("unknown class `nowhere`"), "{json}");
    }

    #[test]
    fn balanced_checks() {
        assert!(balanced("{}"));
        assert!(!balanced("{"));
        assert!(balanced("{ { } }"));
        // Braces inside string literals do not count.
        assert!(!balanced("class a { string s = \"}\";"));
        assert!(balanced("class a { string s = \"{\"; }"));
    }
}
