//! `re2x-benchmark --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Without `--workload` every workload runs in turn and each
//! prints its own block and JSON line.

use re2x_benchmark::run::{run, Options};
use re2x_benchmark::sys::fingerprint;
use re2x_benchmark::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: re2x-benchmark [--workload explore_star|explore_mton|synth_ambiguous|serve_live] \
[--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke] [--dir PATH]";

fn parse(args: &[String]) -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut options = Options {
        workload: Workload::ExploreStar,
        seed: 1,
        seconds: 24.0,
        trace: false,
        smoke: false,
        dir: PathBuf::from("benchmark/results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads =
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => options.trace = true,
            "--smoke" => options.smoke = true,
            "--dir" => options.dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workloads, options))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, mut options) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (key, value) in fingerprint() {
        println!("# {key}: {value}");
    }
    let mut all_correct = true;
    for workload in workloads {
        options.workload = workload;
        match run(&options) {
            Ok(report) => {
                print!("{}", report.to_text());
                println!("{}", report.to_json());
                all_correct &= report.correct;
            }
            Err(message) => {
                eprintln!("{}: {message}", workload.name());
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
