//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```sh
//! # every workload, every metric, the correctness checks:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//! # one run of one workload, as the driver calls it:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload steady_fleet --seed 1 --seconds 10 --trace 0
//! ```

mod adapter;
mod json;
mod metrics;
mod plan;
mod report;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: turbine-benchmark [--seed S] [--workload NAME] [--seconds N] \
                     [--trace 0|1] [--sets N]\n\
                     without --workload every workload runs, untraced and traced";

/// Parsed command line.
struct Args {
    seed: u64,
    workload: Option<&'static workloads::Workload>,
    seconds: u64,
    trace: Option<bool>,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        workload: None,
        seconds: workloads::RUN_SECONDS,
        trace: None,
        sets: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--seed" => parsed.seed = number()?,
            "--seconds" => {
                parsed.seconds = number()?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--sets" => {
                parsed.sets = number()? as usize;
                if parsed.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--workload" => {
                parsed.workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => {
            let traced = args.trace.unwrap_or(false);
            let run = runner::run(workload, args.seed, args.seconds, traced);
            report::print_run(workload, args.seed, args.seconds, traced, &run);
            ExitCode::SUCCESS
        }
        None => {
            if report::run_all(args.seed, args.seconds, args.trace, args.sets) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
