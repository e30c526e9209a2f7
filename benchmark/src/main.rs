//! The repository's benchmark.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark compare A.json.. -- B.json..
//! ```
//!
//! `run` with a `--workload` measures that workload in this process
//! and ends its output with the one-line JSON result the driver reads.
//! Without one it re-executes itself once per workload and pass, so
//! each gets a fresh process and `peak_rss_mb` and `setup_s` are per
//! workload. Without `--trace` both passes run: untraced for the
//! end-to-end metrics, traced for the per-layer ones. Run it from the
//! repository root; result files go to `benchmark/results/`.

mod affinity;
mod check;
mod compare;
mod layers;
mod pipeline;
mod procfs;
mod report;
mod run;
mod socket;
mod stats;
mod timed_store;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n       benchmark compare A.json.. -- B.json..";

/// Directory of this package inside the checkout the command runs in.
const PACKAGE_DIR: &str = "benchmark";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: workload::DEFAULT_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&parsed.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn result_path(workload: &str, seed: u64, traced: bool, suffix: &str) -> PathBuf {
    Path::new(PACKAGE_DIR).join("results").join(format!(
        "{workload}-seed{seed}-trace{}{suffix}",
        traced as u8
    ))
}

/// Measures one workload in this process.
fn run_one(name: &str, args: &RunArgs) -> Result<bool, String> {
    let workload = workload::by_name(name).ok_or_else(|| format!("no workload named {name}"))?;
    let traced = args.trace.unwrap_or(false);
    // The host as it is, before the process confines itself.
    let provenance = report::Provenance::collect();
    let cpu = affinity::pin_to_one_cpu();
    let mut outcome = run::run(&workload, args.seed, args.seconds, traced, args.smoke);
    outcome.notes.push(match cpu {
        Some(cpu) => format!("every thread pinned to CPU {cpu}"),
        None => "NOT PINNED: the kernel refused; cross-CPU wake-ups are in the numbers".into(),
    });
    report::print_table(&outcome, name, args.seed, traced);

    let json = result_path(name, args.seed, traced, ".json");
    let dir = json.parent().expect("results directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = report::result_file(
        &outcome,
        &provenance,
        name,
        args.seed,
        args.seconds,
        traced,
        args.smoke,
    );
    std::fs::write(&json, file).map_err(|e| format!("{}: {e}", json.display()))?;
    println!("  result file: {}", json.display());
    if let Some(trace) = &outcome.chrome_trace {
        let path = result_path(name, args.seed, traced, ".chrome-trace.json");
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  chrome trace: {}", path.display());
    }
    println!("{}", report::result_line(&outcome, traced));
    Ok(outcome.correct())
}

/// Runs every workload and pass asked for, each in a fresh process.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut all_correct = true;
    for w in &workload::WORKLOADS {
        for &traced in passes {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["run", "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("{}: {e}", w.name))?;
            if !status.success() {
                eprintln!("{} (trace {}) failed: {status}", w.name, traced as u8);
                all_correct = false;
            }
        }
    }
    println!(
        "{}",
        if all_correct {
            "all workloads passed their output checks"
        } else {
            "SOME WORKLOADS FAILED"
        }
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|parsed| {
            if !Path::new(PACKAGE_DIR).join("Cargo.toml").is_file() {
                return Err(format!(
                    "run from the repository root ({PACKAGE_DIR}/Cargo.toml not found here)"
                ));
            }
            match &parsed.workload {
                Some(name) => run_one(name, &parsed),
                None => run_all(&parsed),
            }
        }),
        Some((cmd, rest)) if cmd == "compare" => {
            let mut sides = rest.split(|a| a == "--");
            match (sides.next(), sides.next(), sides.next()) {
                (Some(a), Some(b), None) if !a.is_empty() && !b.is_empty() => {
                    std::fs::read_to_string("BENCHMARK.json")
                        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))
                        .and_then(|rules| compare::compare(a, b, &rules))
                }
                _ => Err(USAGE.into()),
            }
        }
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
