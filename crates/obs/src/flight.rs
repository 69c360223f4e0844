//! The flight recorder: an always-on, bounded ring of request spans.
//!
//! Every request that enters the engine (from the shell, the server, or
//! an embedding) is assigned a [`TraceId`] and unwinds into a tree of
//! [`SpanRecord`]s — analyze, plan/execute, commit, trigger — written
//! into a fixed-size ring. The writer path takes no global lock: slot
//! reservation is a single `fetch_add` and publication touches only the
//! reserved slot, so recording stays cheap enough to leave on in
//! production. Old spans are overwritten ring-wise; memory is bounded by
//! construction.
//!
//! The current trace context travels in a thread-local (requests run
//! synchronously on one thread), installed with [`set_trace`] and
//! consumed by [`FlightRecorder::span`], which nests spans automatically:
//! a span opened while another is live becomes its child.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Default ring capacity: enough for a few hundred requests' spans.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Identifies one end-to-end request across the wire and through every
/// engine layer. Zero means "untraced" (background work, recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The untraced id.
    pub const NONE: TraceId = TraceId(0);

    /// Is this a real (client-minted) trace id?
    pub fn is_traced(&self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Which pipeline stage a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStage {
    /// The whole request (root span): one shell line or wire frame.
    Request,
    /// The static-analysis pass.
    Analyze,
    /// Query planning + candidate enumeration (one query pass).
    Execute,
    /// A transaction's lifetime (begin → commit/abort).
    Txn,
    /// The commit pipeline (constraints, triggers, store batch, publish).
    Commit,
    /// One trigger firing (weak-coupled action transaction).
    Trigger,
    /// Decoupled-scheduler work: draining one queued event or evaluating
    /// a subscription predicate on a worker thread.
    Sched,
    /// WAL replay / catalog rebuild at open.
    Recovery,
}

impl SpanStage {
    /// Stable lowercase name (used in dumps and tests).
    pub fn name(&self) -> &'static str {
        match self {
            SpanStage::Request => "request",
            SpanStage::Analyze => "analyze",
            SpanStage::Execute => "execute",
            SpanStage::Txn => "txn",
            SpanStage::Commit => "commit",
            SpanStage::Trigger => "trigger",
            SpanStage::Sched => "sched",
            SpanStage::Recovery => "recovery",
        }
    }
}

impl std::fmt::Display for SpanStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One completed span in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request this span belongs to (zero for background work).
    pub trace: TraceId,
    /// Recorder-unique span id (monotonically minted).
    pub span_id: u64,
    /// The enclosing span's id, zero for roots.
    pub parent: u64,
    /// Pipeline stage.
    pub stage: SpanStage,
    /// Human-oriented detail (statement, plan strategy, outcome).
    pub detail: String,
    /// Nanoseconds since the recorder's epoch at span open.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch at span close.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

// Thread-local trace context: (trace id, innermost open span id).
thread_local! {
    static CTX: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The trace id installed on this thread ([`TraceId::NONE`] outside any
/// request).
pub fn current_trace() -> TraceId {
    TraceId(CTX.with(|c| c.get().0))
}

/// RAII guard restoring the previous thread trace context on drop.
#[derive(Debug)]
pub struct TraceCtx {
    prev: (u64, u64),
}

/// Install `id` as this thread's trace (with no open parent span) for the
/// guard's lifetime. Nested installs stack.
pub fn set_trace(id: TraceId) -> TraceCtx {
    let prev = CTX.with(|c| c.replace((id.0, 0)));
    TraceCtx { prev }
}

impl Drop for TraceCtx {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// The bounded span ring. One instance lives in each `Database`; the
/// server shares it through the database handle.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    next_slot: AtomicUsize,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    enabled: AtomicBool,
    epoch: Instant,
}

fn unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The recorder must stay readable from a panic hook, so a slot
    // poisoned by a panicking writer is still dumped.
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` spans (minimum 16).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(16);
        // Seed trace minting with wall time so ids from successive
        // processes rarely collide (uniqueness is a convenience, not a
        // correctness requirement).
        let seed = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next_slot: AtomicUsize::new(0),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new((seed << 20) | 1),
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
        }
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next_slot.load(Ordering::Relaxed) as u64
    }

    /// Is span recording on? (Trace-context plumbing still works while
    /// off; only ring writes are skipped.)
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Toggle span recording (the overhead bench measures the delta).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the recorder was created. Monotonic — span
    /// timestamps from one recorder order consistently.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Mint a fresh trace id (for local shells; remote clients mint their
    /// own and carry them over the wire).
    pub fn mint_trace(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// Append a completed span. Lock scope is the one reserved slot.
    pub fn record(&self, span: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        let n = self.next_slot.fetch_add(1, Ordering::Relaxed);
        *unpoisoned(&self.slots[n % self.slots.len()]) = Some(span);
    }

    /// Open a span at the current thread's trace context. The span
    /// becomes the context's innermost parent until the guard drops,
    /// which records it (children therefore appear before their parent
    /// in the ring, but ids and timestamps reconstruct the tree).
    pub fn span(self: &Arc<Self>, stage: SpanStage, detail: impl Into<String>) -> SpanGuard {
        let (trace, parent) = CTX.with(|c| c.get());
        let span_id = self.next_span.fetch_add(1, Ordering::Relaxed);
        CTX.with(|c| c.set((trace, span_id)));
        SpanGuard {
            rec: Arc::clone(self),
            trace,
            span_id,
            parent,
            stage,
            detail: detail.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Every live span, oldest first (by start time, then id).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| unpoisoned(s).clone())
            .collect();
        out.sort_by_key(|s| (s.start_ns, s.span_id));
        out
    }

    /// The spans of one trace, oldest first.
    pub fn for_trace(&self, id: TraceId) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|s| unpoisoned(s).clone())
            .filter(|s| s.trace == id)
            .collect();
        out.sort_by_key(|s| (s.start_ns, s.span_id));
        out
    }

    /// One trace's span tree as text ([`render_spans`]), or a line saying
    /// the ring no longer (or never) held it — the reply to `.trace <id>`.
    pub fn render_trace(&self, id: TraceId) -> String {
        let spans = self.for_trace(id);
        if spans.is_empty() {
            return format!(
                "no spans for trace {id} (ring holds {} of {} recorded)",
                self.capacity(),
                self.recorded()
            );
        }
        render_spans(&spans)
    }

    /// Trace ids still present in the ring, most recent first.
    pub fn recent_traces(&self, limit: usize) -> Vec<TraceId> {
        let mut spans = self.snapshot();
        spans.reverse();
        let mut seen = Vec::new();
        for s in spans {
            if s.trace.is_traced() && !seen.contains(&s.trace) {
                seen.push(s.trace);
                if seen.len() == limit {
                    break;
                }
            }
        }
        seen
    }

    /// Install a panic hook that dumps the recorder's most recent spans
    /// to stderr before the previous hook runs. Intended for binaries
    /// (`ode-server`), not libraries.
    pub fn install_panic_dump(rec: &Arc<FlightRecorder>) {
        let rec = Arc::clone(rec);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let spans = rec.snapshot();
            let tail = &spans[spans.len().saturating_sub(32)..];
            eprintln!("flight recorder ({} of {} spans):", tail.len(), spans.len());
            eprint!("{}", render_spans(tail));
            prev(info);
        }));
    }
}

/// An open span; records itself on drop and restores the parent context.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Arc<FlightRecorder>,
    trace: u64,
    span_id: u64,
    parent: u64,
    stage: SpanStage,
    detail: String,
    start_ns: u64,
}

impl SpanGuard {
    /// Replace the detail recorded at close (e.g. the chosen plan, the
    /// commit outcome), known only after the work ran.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }

    /// The span's id (for correlating externally).
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set((self.trace, self.parent)));
        let end_ns = self.rec.now_ns();
        self.rec.record(SpanRecord {
            trace: TraceId(self.trace),
            span_id: self.span_id,
            parent: self.parent,
            stage: self.stage,
            detail: std::mem::take(&mut self.detail),
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

/// Render spans as an indented tree, one line per span:
/// `stage  @offset +duration  detail`, grouped under their trace.
pub fn render_spans(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    if spans.is_empty() {
        out.push_str("(no spans)\n");
        return out;
    }
    // Children of each span, in start order (spans is already sorted).
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut trace_of_last = None;
    let mut base_ns = 0u64;
    // Roots: parent missing from the set (zero or overwritten).
    fn emit(out: &mut String, spans: &[SpanRecord], node: &SpanRecord, depth: usize, base_ns: u64) {
        out.push_str(&format!(
            "{:indent$}{:<8} @{} +{}  {}\n",
            "",
            node.stage.name(),
            fmt_ns(node.start_ns.saturating_sub(base_ns)),
            fmt_ns(node.duration_ns()),
            node.detail,
            indent = 2 + depth * 2,
        ));
        for child in spans.iter().filter(|s| s.parent == node.span_id) {
            emit(out, spans, child, depth + 1, base_ns);
        }
    }
    for s in spans {
        if trace_of_last != Some(s.trace) {
            trace_of_last = Some(s.trace);
            base_ns = s.start_ns;
            if s.trace.is_traced() {
                out.push_str(&format!("trace {}\n", s.trace));
            } else {
                out.push_str("trace (background)\n");
            }
        }
        if !ids.contains(&s.parent) {
            emit(&mut out, spans, s, 0, base_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_and_bounds_memory() {
        let rec = FlightRecorder::with_capacity(16);
        for i in 0..40u64 {
            rec.record(SpanRecord {
                trace: TraceId(1),
                span_id: i,
                parent: 0,
                stage: SpanStage::Request,
                detail: String::new(),
                start_ns: i,
                end_ns: i + 1,
            });
        }
        assert_eq!(rec.recorded(), 40);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 16);
        // Only the newest 16 survive.
        assert!(spans.iter().all(|s| s.span_id >= 24));
    }

    #[test]
    fn span_guard_nests_and_restores_context() {
        let rec = Arc::new(FlightRecorder::with_capacity(64));
        let trace = rec.mint_trace();
        {
            let _ctx = set_trace(trace);
            let _root = rec.span(SpanStage::Request, "line");
            {
                let mut child = rec.span(SpanStage::Analyze, "");
                child.set_detail("ok");
            }
            {
                let _child = rec.span(SpanStage::Commit, "commit");
            }
        }
        assert_eq!(current_trace(), TraceId::NONE);
        let spans = rec.for_trace(trace);
        assert_eq!(spans.len(), 3);
        let root = spans
            .iter()
            .find(|s| s.stage == SpanStage::Request)
            .unwrap();
        let analyze = spans
            .iter()
            .find(|s| s.stage == SpanStage::Analyze)
            .unwrap();
        let commit = spans.iter().find(|s| s.stage == SpanStage::Commit).unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(analyze.parent, root.span_id);
        assert_eq!(commit.parent, root.span_id);
        assert_eq!(analyze.detail, "ok");
        // Timestamps are monotonic within the trace.
        assert!(root.start_ns <= analyze.start_ns);
        assert!(analyze.start_ns <= commit.start_ns);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn disabled_recorder_drops_spans_but_keeps_context() {
        let rec = Arc::new(FlightRecorder::with_capacity(16));
        rec.set_enabled(false);
        let trace = rec.mint_trace();
        {
            let _ctx = set_trace(trace);
            let _s = rec.span(SpanStage::Request, "x");
        }
        assert!(rec.for_trace(trace).is_empty());
        assert_eq!(current_trace(), TraceId::NONE);
        rec.set_enabled(true);
    }

    #[test]
    fn recent_traces_newest_first() {
        let rec = Arc::new(FlightRecorder::with_capacity(64));
        let (a, b) = (rec.mint_trace(), rec.mint_trace());
        for t in [a, b] {
            let _ctx = set_trace(t);
            let _s = rec.span(SpanStage::Request, "");
        }
        assert_eq!(rec.recent_traces(8), vec![b, a]);
    }

    #[test]
    fn render_builds_a_tree() {
        let rec = Arc::new(FlightRecorder::with_capacity(64));
        let trace = rec.mint_trace();
        {
            let _ctx = set_trace(trace);
            let _root = rec.span(SpanStage::Request, "update …");
            let _child = rec.span(SpanStage::Execute, "stockitem via index probe");
        }
        let text = render_spans(&rec.for_trace(trace));
        assert!(text.contains("request"), "{text}");
        assert!(text.contains("    execute"), "child indented: {text}");
        assert!(text.contains("index probe"), "{text}");
    }
}
