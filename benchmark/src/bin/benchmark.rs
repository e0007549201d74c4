//! Run one benchmark workload, or compare two sets of runs.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!           [--smoke] [--trace-out <file>]
//! benchmark --compare <A> <B>
//! ```
//!
//! The last line of standard output is the run's result:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the detail document (lap quartiles, result digest, every metric). The
//! exit code is non-zero when an output check fails.

use dike_benchmark::bench::{run, RunArgs};
use dike_benchmark::compare::compare;
use dike_benchmark::trace::Trace;
use dike_benchmark::workloads::Kind;
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark --workload <fleet_wide|failover_deep|numa_closed|paper_fig6> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke] [--trace-out <file>]\n       \
benchmark --compare <A> <B>";

/// Seed used when none is given; seed 7 is held out for checking claims.
const DEFAULT_SEED: u64 = 42;

/// Lapping time when none is given (the `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 25.0;

enum Command {
    Run(RunArgs, Option<String>),
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer".to_string())?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--trace-out" => trace_out = Some(value()?),
            "--smoke" => smoke = true,
            "--compare" => {
                let a = value()?;
                let b = value()?;
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(
        RunArgs {
            workload,
            seed,
            seconds,
            trace,
            smoke,
        },
        trace_out,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Compare(a, b) => {
            let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let outcome =
                read("BENCHMARK.json").and_then(|bench| compare(&bench, &read(&a)?, &read(&b)?));
            match outcome {
                Ok((table, agree)) => {
                    print!("{table}");
                    if agree {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Command::Run(args, trace_out) => {
            let mut trace = Trace::new();
            let report = run(&args, &mut trace);
            if let Some(path) = trace_out {
                if let Err(e) = std::fs::write(&path, trace.to_json().render()) {
                    eprintln!("benchmark: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            println!("{}", report.detail.render());
            println!("{}", report.result.render());
            for f in &report.failures {
                eprintln!("benchmark: check failed on {}: {f}", args.workload.name());
            }
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
