//! End-to-end and per-layer benchmark of the DSR workspace.
//!
//! ```text
//! dsr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--plant-wrong]
//! ```
//!
//! Runs one workload in this process, so peak memory and the pool and
//! service threads belong to that workload alone. Diagnostics go to
//! standard error; the last line of standard output is the result object.
//! The process exits with code 1 when any checked answer or consistency
//! check is wrong. `--tiny` shrinks graphs, pools and phases for the
//! self-test; `--plant-wrong` corrupts the first checked answer;
//! `--setup-only` times one set-up and prints its seconds.

mod inputs;
mod open_loop;
mod oracle;
mod report;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use oracle::Checker;
use report::{result_line, Metrics, Tally};
use workloads::{Run, SPECS};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    eprintln!(
        "{problem}\nusage: dsr-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--plant-wrong]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(name) = value("--workload") else {
        return usage("missing --workload");
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == name) else {
        return usage(&format!("unknown workload {name}"));
    };
    let Some(seed) = value("--seed").and_then(|v| v.parse::<u64>().ok()) else {
        return usage("--seed needs a whole number");
    };
    let tiny = args.iter().any(|a| a == "--tiny");
    if args.iter().any(|a| a == "--setup-only") {
        println!("{}", workloads::setup_only(spec, tiny));
        return ExitCode::SUCCESS;
    }
    let Some(seconds) = value("--seconds")
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
    else {
        return usage("--seconds needs a positive number");
    };
    let trace = match value("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return usage(&format!("--trace must be 0 or 1, not {other}")),
    };
    let mut run = Run {
        workload: spec.name,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        tiny,
        checker: Checker {
            plant: args.iter().any(|a| a == "--plant-wrong"),
        },
        tally: Tally::default(),
        metrics: Metrics::default(),
    };
    workloads::run(spec, &mut run);
    eprintln!(
        "{} operations attempted, {} failed, {} answers checked, {} mismatches",
        run.tally.attempted, run.tally.failed, run.tally.checked, run.tally.mismatches
    );
    println!("{}", result_line(&run.tally, &run.metrics));
    if run.tally.mismatches > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
