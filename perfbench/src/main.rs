//! `weakgpu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `<s>` seconds of measurement and prints,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits 1 when an output check fails and 2 when
//! the run could not be made.

use std::path::PathBuf;
use std::process::ExitCode;

use weakgpu_perfbench::{run, RunSpec, Scale, WORKLOADS};

const USAGE: &str =
    "usage: weakgpu-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, RunSpec), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("missing --workload\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let root = PathBuf::from(".bench_work");
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    let trace = trace.ok_or_else(|| format!("missing --trace\n{USAGE}"))?;
    let spec = RunSpec {
        seed: seed.ok_or_else(|| format!("missing --seed\n{USAGE}"))?,
        seconds: seconds.ok_or_else(|| format!("missing --seconds\n{USAGE}"))?,
        trace,
        scale: Scale::Full,
        work_dir: root.join(format!("{workload}-{}", std::process::id())),
        workers,
        span_path: trace.then(|| root.join(format!("spans-{workload}.tsv"))),
    };
    Ok((workload, spec))
}

fn main() -> ExitCode {
    let (workload, spec) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, &spec) {
        Ok(result) => {
            for note in &result.notes {
                println!("{note}");
            }
            for problem in &result.problems {
                println!("CHECK FAILED: {problem}");
            }
            println!(
                "workers: {} (available parallelism {})",
                spec.workers,
                std::thread::available_parallelism().map_or(0, |n| n.get())
            );
            println!("{}", result.to_json(spec.trace));
            if result.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            ExitCode::from(2)
        }
    }
}
