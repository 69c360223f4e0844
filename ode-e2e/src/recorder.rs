//! Spans in memory: one per call into a layer on behalf of one statement,
//! written out when the traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::driver::StmtSpan;
use crate::stats::percentile;

/// The stages of the ladder, one span per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One statement over an idle connection (reads only; yields the real reply).
    IdleRoundtrip,
    /// The statement through a shell session in this process (reads only):
    /// analyzer pass, footprint, execute, row formatting, bookkeeping.
    Shell,
    Codec,
    Analyze,
    Footprint,
    Parse,
    Exec,
    Commit,
}

impl Stage {
    const ALL: [Stage; 8] = [
        Stage::IdleRoundtrip,
        Stage::Shell,
        Stage::Codec,
        Stage::Analyze,
        Stage::Footprint,
        Stage::Parse,
        Stage::Exec,
        Stage::Commit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::IdleRoundtrip => "wire.idle_roundtrip",
            Stage::Shell => "shell.line",
            Stage::Codec => "wire.codec",
            Stage::Analyze => "analyze.stmt",
            Stage::Footprint => "analyze.footprint",
            Stage::Parse => "model.parse",
            Stage::Exec => "core.exec",
            Stage::Commit => "core.commit",
        }
    }
}

/// One recorded span: a call into one layer on behalf of one statement.
struct Span {
    id: usize,
    /// The span that caused this one; 0 for a statement's root span.
    parent: usize,
    stmt: usize,
    class: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans in memory until the run ends, and the ladder's samples by stage.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// `stage_ns[stage][class]`: one sample per ladder statement that ran the stage.
    stage_ns: Vec<Vec<Vec<u32>>>,
    /// Duration of the stage recorded last.
    pub last_ns: u32,
}

impl Recorder {
    pub fn new(classes: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stage_ns: vec![vec![Vec::new(); classes]; Stage::ALL.len()],
            last_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a statement's root span; returns its id.
    pub fn open_stmt(&mut self, stmt: usize, class: usize) -> usize {
        let id = self.spans.len() + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: 0,
            stmt,
            class,
            name: "stmt",
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id - 1].end_ns = self.now_ns();
    }

    /// [`Recorder::stage`] for a call that may be repeated: one unrecorded
    /// call first, so the timed one runs on warm caches, as a statement does
    /// on a server that is kept busy. (The ladder blocks on a socket between
    /// statements; timed cold, every stage read two to five times its cost
    /// under load.)
    pub fn warm_stage<R>(&mut self, stage: Stage, parent: usize, mut f: impl FnMut() -> R) -> R {
        std::hint::black_box(f());
        self.stage(stage, parent, f)
    }

    /// Time one call into a layer as a child span of `parent`.
    pub fn stage<R>(&mut self, stage: Stage, parent: usize, f: impl FnOnce() -> R) -> R {
        let (stmt, class) = (self.spans[parent - 1].stmt, self.spans[parent - 1].class);
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        let end_ns = self.now_ns();
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent,
            stmt,
            class,
            name: stage.name(),
            start_ns,
            end_ns,
        });
        self.last_ns = (end_ns - start_ns).min(u32::MAX as u64) as u32;
        self.stage_ns[stage as usize][class].push(self.last_ns);
        out
    }

    /// Median of a stage for one statement class, µs; `None` if the class
    /// never ran the stage.
    pub fn stage_us(&self, stage: Stage, class: usize) -> Option<f64> {
        let mut ns = self.stage_ns[stage as usize][class].clone();
        if ns.is_empty() {
            return None;
        }
        ns.sort_unstable();
        Some(percentile(&ns, 0.5) as f64 / 1e3)
    }

    /// A stage's cost per statement of the workload: the class medians
    /// weighted by each class's share of the load. Classes that never ran the
    /// stage contribute nothing (a read has no commit).
    pub fn weighted_us(&self, stage: Stage, shares: &[f64]) -> f64 {
        shares
            .iter()
            .enumerate()
            .map(|(c, share)| share * self.stage_us(stage, c).unwrap_or(0.0))
            .sum()
    }

    pub fn write_json(&self, load_spans: &[StmtSpan], classes: &[&str], path: &Path) {
        let mut out = String::from("[\n");
        for s in load_spans {
            let _ = writeln!(
                out,
                "{{\"phase\":\"load\",\"name\":\"wire.stmt\",\"client\":{},\"class\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}},",
                s.client, classes[s.class], s.start_ns, s.end_ns
            );
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"phase\":\"ladder\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"stmt\":{},\
                 \"class\":\"{}\",\"start_ns\":{},\"end_ns\":{}}},",
                s.name, s.id, s.parent, s.stmt, classes[s.class], s.start_ns, s.end_ns
            );
        }
        // Close the array on a last object so every line may end in a comma.
        out.push_str("{\"phase\":\"end\"}\n]\n");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, out) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}
