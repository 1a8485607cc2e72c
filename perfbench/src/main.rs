//! Command line of the service benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pbs_backlog --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a description of the run, one `name value unit` line per
//! metric, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 on any wrong output or
//! failed reconciliation, 2 when the run could not be carried out.

use std::process::ExitCode;

use strix_perfbench::workloads::Workload;
use strix_perfbench::{report, run, Options};

const USAGE: &str = "usage: strix-perfbench \
                     --workload <pbs_backlog|tenants_backlog|nn_sessions|tenants_open> \
                     --seed <n> --seconds <s> --trace <0|1> [--fast]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut fast = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--fast" => fast = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options { workload, seed, seconds, trace, fast })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let output = match run(&options) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!("run {}", output.info);
    for m in &output.metrics {
        println!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    if output.wrong > 0 {
        eprintln!("{} wrong outputs", output.wrong);
    }
    if let Some(rec) = output.reconciliation.as_ref().filter(|r| !r.holds()) {
        eprintln!("reconciliation failed: {rec:?}");
    }
    println!("{}", report::result_line(output.correct, output.counts, &output.metrics));
    if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
