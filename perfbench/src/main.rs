//! End-to-end and per-layer benchmark of the DDoShield-IoT testbed.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload live_kmeans --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a readable report, then one JSON object as the last line of
//! standard output. `--workload all` runs every workload, each in its own
//! process. See `perfbench/README.md` for the workloads and metrics.

mod cpu;
mod fleet;
mod live;
mod report;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use report::Outcome;

const WORKLOADS: [&str; 4] = [
    "live_kmeans",
    "live_kmeans_refresh3",
    "live_cnn",
    "sharded_fleet",
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_workload(args: &Args) -> Outcome {
    let mut outcome = match args.workload.as_str() {
        "live_kmeans" => live::run("K-Means", 1, args.seed, args.seconds, args.trace),
        "live_kmeans_refresh3" => live::run("K-Means", 3, args.seed, args.seconds, args.trace),
        "live_cnn" => live::run("CNN", 1, args.seed, args.seconds, args.trace),
        "sharded_fleet" => fleet::run(args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} was validated"),
    };
    let (shard_workers, ml_threads) = if args.workload == "sharded_fleet" {
        (cores().min(8), 0)
    } else {
        (0, ml::par::effective_threads())
    };
    outcome.notes.insert(
        0,
        format!(
            "# workload={} seed={} seconds={} trace={} cores={} shard_workers={shard_workers} \
             ml_threads={ml_threads} profile={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            cores(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        ),
    );
    outcome
}

/// Runs every workload in a child process of this binary, one after
/// another, passing its output through.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawning a workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let outcome = run_workload(&args);
    if let Some(spans) = &outcome.spans_tsv {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans written to {}", path.display());
    }
    print!("{}", outcome.render_table());
    println!("{}", outcome.render_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "live_cnn",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "live_cnn".into(),
                seed: 7,
                seconds: 30,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        let base = [
            "--workload",
            "live_kmeans",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0",
        ];
        assert!(parse_args(&strings(&base)).is_ok());
        for (i, bad) in [(1, "nope"), (3, "-1"), (5, "0"), (7, "2")] {
            let mut args = base;
            args[i] = bad;
            assert!(parse_args(&strings(&args)).is_err(), "{args:?}");
        }
        assert!(parse_args(&strings(&base[..6])).is_err(), "missing --trace");
        assert!(parse_args(&strings(&["--bogus", "1"])).is_err());
    }
}
