//! Golden transcripts: each script is replayed line by line through one
//! in-memory [`Session`], and what a scripted `ode-shell` would print —
//! the prompt and input line, then the output, or `error: …` for an
//! engine error — is compared byte for byte with a file under
//! `tests/golden/`. The scripts are `examples/scripts/*.ode` plus
//! `tests/corpus/every_reply.ode`, which produces every reply kind the
//! shell renders (DDL, DML, rows, `explain`, triggers, warnings,
//! analysis and parse errors).
//!
//! Regenerate after an intentional change with
//! `ODE_UPDATE_GOLDEN=1 cargo test -p ode-shell --test transcript`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ode_shell::{EvalResult, Session};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Replay `script` and return the transcript.
fn replay(script: &str) -> String {
    let mut session = Session::in_memory();
    let mut out = String::new();
    for line in script.lines() {
        let prompt = if session.is_continuing() {
            "  ..."
        } else {
            "ode>"
        };
        let _ = writeln!(out, "{prompt} {line}");
        match session.eval_line(line) {
            EvalResult::Output(s) if !s.is_empty() => {
                let _ = writeln!(out, "{s}");
            }
            EvalResult::Error(e) => {
                let _ = writeln!(out, "error: {e}");
            }
            EvalResult::Output(_) | EvalResult::Continue => {}
            EvalResult::Exit => break,
        }
    }
    out
}

/// Compare the replay of `script` with `tests/golden/<name>.golden`.
fn check(script: &Path, name: &str) {
    let source = std::fs::read_to_string(script)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", script.display()));
    let got = replay(&source);
    let golden = manifest_dir().join(format!("tests/golden/{name}.golden"));
    if std::env::var("ODE_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!(
            "{} missing; regenerate with ODE_UPDATE_GOLDEN=1",
            golden.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "transcript of {} drifted from {} at line {}:\n  got:  {:?}\n  want: {:?}\n\
             if the change is intentional, regenerate with ODE_UPDATE_GOLDEN=1",
            script.display(),
            golden.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

fn example(name: &str) {
    check(
        &manifest_dir().join(format!("../../examples/scripts/{name}.ode")),
        name,
    );
}

#[test]
fn stock_items_transcript() {
    example("stock_items");
}

#[test]
fn persons_students_transcript() {
    example("persons_students");
}

#[test]
fn parts_explosion_transcript() {
    example("parts_explosion");
}

#[test]
fn versioned_docs_transcript() {
    example("versioned_docs");
}

#[test]
fn every_reply_transcript() {
    check(
        &manifest_dir().join("tests/corpus/every_reply.ode"),
        "every_reply",
    );
}

/// The four example scripts are the whole of `examples/scripts`: a new
/// script needs a transcript test above.
#[test]
fn every_example_script_has_a_transcript() {
    let mut names: Vec<String> = std::fs::read_dir(manifest_dir().join("../../examples/scripts"))
        .unwrap()
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            Some(name.strip_suffix(".ode")?.to_string())
        })
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "parts_explosion",
            "persons_students",
            "stock_items",
            "versioned_docs"
        ]
    );
}
