//! The seqver benchmark: one command per workload, end-to-end metrics
//! untraced, per-layer metrics traced.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|chain|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The report goes to standard output, and
//! its last line is the JSON result. Spans of a traced run and the
//! `serve` workload's proof stores are written under `.perfbench/`. A
//! wrong verdict, a traced-run identity mismatch, a count that differs
//! between repeats of one program or a growing `serve` backlog aborts
//! the run with exit code 1 and no result. See README.md for the
//! workloads, the metrics and the layer table.

mod closed;
mod inputs;
mod open;
mod report;
mod rng;
mod stats;
mod traced;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload corpus|chain|serve --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    let out_dir = Path::new(".perfbench");
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let report = match args.workload.as_str() {
        "corpus" => closed::run(
            &closed::Closed {
                name: "corpus",
                make_inputs: inputs::corpus,
                audit: true,
                fastest_repeat: true,
            },
            args.seed,
            args.seconds,
            args.trace,
            out_dir,
        )?,
        "chain" => closed::run(
            &closed::Closed {
                name: "chain",
                make_inputs: inputs::chain,
                audit: false,
                fastest_repeat: false,
            },
            args.seed,
            args.seconds,
            args.trace,
            out_dir,
        )?,
        "serve" => open::run(args.seed, args.seconds, args.trace, out_dir)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    println!(
        "workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    report.print(args.trace);
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
