//! `perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Exits non-zero on
//! a correctness failure or when the run cannot report its metrics. Run
//! from the repository root: the specs are read from `specs/`.

use std::process::ExitCode;

use perfbench::report::result_json;
use perfbench::workloads::{self, Args, WORKLOADS};

fn usage() -> &'static str {
    "usage: perfbench --workload <backfill|cohort|fleet_churn|all> --seed <n> --seconds <n> --trace <0|1>"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value\n{}", argv[i], usage()))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{} must be a whole number, got `{v}`", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number(value)?,
            "--seconds" => args.seconds = number(value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
        i += 2;
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required\n{}", usage()));
    }
    Ok(args)
}

/// `--workload all`: each workload in its own process, so that peak
/// memory is per workload.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for name in WORKLOADS {
        let mut child_args: Vec<String> = argv.to_vec();
        if let Some(pos) = child_args.iter().position(|a| a == "--workload") {
            child_args[pos + 1] = name.to_string();
        }
        let status = std::process::Command::new(&exe).args(&child_args).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: workload {name} exited with {s}");
                failed = true;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {name}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let outcome = match workloads::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = match result_json(outcome.correct, &outcome.ops, &outcome.metrics) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{line}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: correctness check failed (see the ops and generator lines)");
        ExitCode::FAILURE
    }
}
