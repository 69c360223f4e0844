//! Workload generators and the helpers the characterization figures share.
//!
//! The SIGMOD 1989 Ode paper has no quantitative evaluation section; the
//! figures in this crate are the characterization suite DESIGN.md defines
//! in its place. The `report` binary measures F1–F10 and A1 and asserts
//! each verdict; the f11–f14 benches measure concurrency and tracing and
//! write `BENCH_fNN.json` at the repository root. [`workload`] holds the
//! deterministic builders they share.

pub mod workload;

use std::path::PathBuf;

/// Median of `samples`, which are sorted in place.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One run of an f11–f14 figure: its name, whether it is the
/// seconds-long smoke run CI makes (`ODE_BENCH_QUICK=1`), and the host
/// parallelism its numbers depend on.
pub struct Figure {
    /// Figure name, e.g. `f11_concurrent_readers`.
    name: &'static str,
    /// Shrunken sizes and windows for a smoke run.
    pub quick: bool,
    /// `std::thread::available_parallelism` of the measuring host.
    pub parallelism: usize,
}

impl Figure {
    /// Read the run mode from the environment.
    pub fn from_env(name: &'static str) -> Figure {
        Figure {
            name,
            quick: std::env::var("ODE_BENCH_QUICK").is_ok_and(|v| v != "0"),
            parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        }
    }

    /// `BENCH_fNN.json` at the repository root: where the run writes its
    /// results, and where f11 and f14 find the previous run's rates.
    pub fn out_path(&self) -> PathBuf {
        let short = self.name.split('_').next().unwrap_or(self.name);
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("BENCH_{short}.json"))
    }

    /// The opening of the figure's JSON object, up to and including the
    /// `credible` line; the figure appends its own fields and the `}`.
    pub fn json_header(&self) -> String {
        // Scaling measured on one hardware thread says nothing — every
        // thread count time-slices the same core — so such runs are
        // recorded but flagged non-credible, in every figure alike.
        format!(
            "{{\n  \"figure\": \"{}\",\n  \"quick\": {},\n  \"host_parallelism\": {},\n  \"credible\": {},\n",
            self.name,
            self.quick,
            self.parallelism,
            self.parallelism >= 2
        )
    }

    /// Write the finished JSON to [`Figure::out_path`].
    pub fn write(&self, json: &str) {
        let out = self.out_path();
        std::fs::write(&out, json).expect("write the figure's BENCH json");
        eprintln!("{}: wrote {}", self.name, out.display());
    }
}
