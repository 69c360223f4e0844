//! `ode-e2e --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]`
//!
//! Runs one workload and prints every metric by name with its unit on
//! stderr and one JSON result object as the last line of stdout. With
//! `--trace 0` (the default) the metrics are the end-to-end ones, measured
//! with tracing off; with `--trace 1` they are the per-layer ones from a
//! separate traced run. Exits non-zero if the arguments are wrong; a wrong
//! answer is reported in the result (`correct`, `failed`), not by the exit code.

use std::path::PathBuf;
use std::process::ExitCode;

use ode_e2e::report::{run_end_to_end, Report};
use ode_e2e::trace::run_traced;
use ode_e2e::workload::Workload;
use ode_e2e::workloads::extent_query::ExtentQuery;
use ode_e2e::workloads::mixed_oo7::MixedOo7;
use ode_e2e::workloads::parts_fixpoint::PartsFixpoint;
use ode_e2e::workloads::point_lookup::PointLookup;
use ode_e2e::workloads::stock_write::StockWrite;

/// Default seed when none is given.
const DEFAULT_SEED: u64 = 0x0DE_5EED;

/// Where durable workloads keep their stores and traced runs their span
/// files: inside the directory the benchmark is run from, ignored by git.
const SCRATCH: &str = ".ode-e2e";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    Ok(args)
}

fn run<W: Workload>(args: &Args) -> Report {
    let scratch = PathBuf::from(SCRATCH);
    if args.trace {
        run_traced::<W>(args.seed, args.seconds, &scratch)
    } else {
        run_end_to_end::<W>(args.seed, args.seconds, &scratch)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ode-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        PointLookup::NAME => run::<PointLookup>(&args),
        ExtentQuery::NAME => run::<ExtentQuery>(&args),
        StockWrite::NAME => run::<StockWrite>(&args),
        PartsFixpoint::NAME => run::<PartsFixpoint>(&args),
        MixedOo7::NAME => run::<MixedOo7>(&args),
        other => {
            eprintln!(
                "ode-e2e: unknown workload `{other}`; one of point_lookup, extent_query, \
                 stock_write, parts_fixpoint, mixed_oo7"
            );
            return ExitCode::from(2);
        }
    };
    report.print_table();
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
