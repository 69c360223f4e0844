//! Bridge between the engine and the `ode-analyze` front-end (DESIGN.md
//! §9): catalog extraction, telemetry, and the analysis gate that
//! `Transaction::execute`/`ReadTransaction::execute` run before touching
//! any data.
//!
//! O++ is a compiled language: the paper's compiler rejects unknown
//! members, type mismatches, and ill-formed constraints before a program
//! runs. This module restores that boundary for the statement surface —
//! every [`Statement`] (DDL, DML, `forall`, `explain`) is analyzed
//! against the live schema and catalog *before* a write transaction is
//! opened or a snapshot is taken, so a bad statement costs no gate
//! acquisition, no iteration, and no rollback.

use std::time::Instant;

use ode_analyze::{analyze_stmt, footprint_of, has_errors, CatalogView, Diagnostic, Footprint};
use ode_model::{parse_statement, Statement};

use crate::database::Database;
use crate::error::{OdeError, Result};

impl Database {
    /// Parse one statement and run static analysis on it without
    /// executing anything — [`parse_statement`] then
    /// [`Database::analyze`]. Statements that do not parse return the
    /// parse error unchanged.
    pub fn analyze_statement(&self, src: &str) -> Result<Vec<Diagnostic>> {
        Ok(self.analyze(&parse_statement(src)?, src))
    }

    /// Run static analysis on one parsed statement (`src` is its text,
    /// used only for diagnostic spans).
    ///
    /// Returns every diagnostic the pass produced — warnings and errors
    /// alike; [`ode_analyze::has_errors`] tells them apart. Statements
    /// with no analyzable form (`activate`, `deactivate`, …) come back
    /// clean.
    ///
    /// Analysis runs against a snapshot of the committed schema and
    /// catalog, holding no lock; no transaction is opened and no counters
    /// beyond the `analyze.*` family move.
    pub fn analyze(&self, stmt: &Statement, src: &str) -> Vec<Diagnostic> {
        let start = Instant::now();
        let mut span = self
            .flight
            .span(ode_obs::SpanStage::Analyze, statement_head(src));
        let diags = analyze_stmt(&self.layout().schema, Some(&self.catalog_view()), src, stmt);
        let tel = &self.tel.analyze;
        tel.passes.inc();
        tel.latency.record_ns(start.elapsed().as_nanos() as u64);
        let mut errors = 0;
        for d in &diags {
            match d.severity {
                ode_analyze::Severity::Error => {
                    errors += 1;
                    tel.errors.inc();
                }
                ode_analyze::Severity::Warning => tel.warnings.inc(),
            }
        }
        if errors > 0 {
            span.set_detail(format!("{} ({errors} errors)", statement_head(src)));
        }
        diags
    }

    /// [`Database::analyze`], rejecting on error-severity diagnostics and
    /// handing back the warnings otherwise.
    pub fn gate(&self, stmt: &Statement, src: &str) -> Result<Vec<Diagnostic>> {
        let diags = self.analyze(stmt, src);
        if has_errors(&diags) {
            return Err(OdeError::Analysis(diags));
        }
        Ok(diags)
    }

    /// Parse one statement and compute its static access footprint —
    /// [`parse_statement`] then [`Database::footprint`]. Parse errors
    /// propagate so callers can distinguish "no footprint" from "not a
    /// statement".
    pub fn statement_footprint(&self, src: &str) -> Result<Option<Footprint>> {
        Ok(self.footprint(&parse_statement(src)?))
    }

    /// Compute the static access footprint of one parsed statement
    /// (DESIGN.md §14): the clusters it reads and writes, with the
    /// key-predicate ranges and index the analyzer can prove. `None` for
    /// statements without an analyzable shape (DDL, trigger activation).
    ///
    /// A footprint with no writes is a *read-only proof*: the statement
    /// cannot touch the write-txn machinery, so executors may run it on
    /// the snapshot path.
    pub fn footprint(&self, stmt: &Statement) -> Option<Footprint> {
        let fp = footprint_of(&self.layout().schema, Some(&self.catalog_view()), stmt)?;
        self.tel.analyze.footprints.inc();
        if fp.read_only() {
            self.tel.analyze.read_only_proofs.inc();
        }
        Some(fp)
    }

    /// The catalog facts the analyzer wants: which `(class, field)` pairs
    /// have B-tree indexes.
    fn catalog_view(&self) -> CatalogView {
        CatalogView {
            indexed: self.index_keys().into_iter().collect(),
        }
    }
}

/// First few words of a statement, for span details (bounded so one huge
/// statement cannot bloat the flight recorder).
pub fn statement_head(src: &str) -> String {
    let trimmed = src.trim();
    let mut head: String = trimmed.chars().take(48).collect();
    if head.len() < trimmed.len() {
        head.push('…');
    }
    head
}
