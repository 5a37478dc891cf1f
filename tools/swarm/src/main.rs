//! The seed-swarm runner: N buggify seeds of each golden scenario,
//! machine-readable invariants checked after every run.
//!
//! ```text
//! cargo run --profile swarm -p swarm-runner --bin swarm -- \
//!     --case all --seed 42 --swarm-seed 0 --runs 64 [--threads 8] \
//!     [--determinism-every 16]
//! ```
//!
//! Exit code 0 means every run passed every invariant. On failure the
//! offending seeds print as copy-pasteable repro commands. Build with
//! `--profile swarm` so the kernel's `debug_assert!` invariants
//! (monotone clock, ChunkQueue accounting) are armed at release speed.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ddoshield::experiments::ExperimentScale;
use ddoshield::swarm::{
    check_determinism, run_swarm_case, swarm_models, SwarmCase, SwarmModels, SwarmReport,
};

struct Args {
    cases: Vec<SwarmCase>,
    scenario_seed: u64,
    first_swarm_seed: u64,
    runs: u64,
    threads: usize,
    determinism_every: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut cases = SwarmCase::ALL.to_vec();
    let mut scenario_seed = 42u64;
    let mut first_swarm_seed = 0u64;
    let mut runs = 64u64;
    let mut threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut determinism_every = 16u64;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--case" => {
                cases = if value == "all" {
                    SwarmCase::ALL.to_vec()
                } else {
                    vec![SwarmCase::parse(value).ok_or_else(|| {
                        format!("unknown case {value} (chaos|lifecycle|serving|sharded|all)")
                    })?]
                };
            }
            "--seed" => scenario_seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--swarm-seed" => {
                first_swarm_seed = value.parse().map_err(|e| format!("--swarm-seed: {e}"))?
            }
            "--runs" => runs = value.parse().map_err(|e| format!("--runs: {e}"))?,
            "--threads" => threads = value.parse().map_err(|e| format!("--threads: {e}"))?,
            "--determinism-every" => {
                determinism_every =
                    value.parse().map_err(|e| format!("--determinism-every: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(Args { cases, scenario_seed, first_swarm_seed, runs, threads: threads.max(1), determinism_every })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("swarm: {msg}");
            std::process::exit(2);
        }
    };
    let scale = ExperimentScale::swarm();

    // Training happens before the perturbed phase, so every swarm seed
    // replays the same models (champion + serving challenger): train
    // once, clone per run.
    eprintln!(
        "swarm: training IDS for scenario seed {} (cases: {})",
        args.scenario_seed,
        args.cases.iter().map(|c| c.name()).collect::<Vec<_>>().join(",")
    );
    let models = swarm_models(args.scenario_seed, &scale);

    let failures: Mutex<Vec<SwarmReport>> = Mutex::new(Vec::new());
    let done = AtomicU64::new(0);
    let next = AtomicU64::new(0);
    let total = args.runs * args.cases.len() as u64;

    std::thread::scope(|scope| {
        for _ in 0..args.threads {
            let models: SwarmModels = models.clone();
            let args = &args;
            let scale = &scale;
            let failures = &failures;
            let done = &done;
            let next = &next;
            scope.spawn(move || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= total {
                    break;
                }
                let case = args.cases[(k % args.cases.len() as u64) as usize];
                let swarm_seed = args.first_swarm_seed + k / args.cases.len() as u64;
                let mut report =
                    run_swarm_case(case, args.scenario_seed, swarm_seed, scale, &models);
                // Rerun a deterministic sample of seeds once and compare
                // the two fingerprints.
                if args.determinism_every > 0 && swarm_seed.is_multiple_of(args.determinism_every) {
                    if let Some(v) = check_determinism(&report, scale, &models) {
                        report.violations.push(v);
                    }
                }
                if !report.passed() {
                    failures.lock().unwrap().push(report);
                }
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                if n.is_multiple_of(32) || n == total {
                    eprintln!("swarm: {n}/{total} runs complete");
                }
            });
        }
    });

    let mut failures = failures.into_inner().unwrap();
    failures.sort_by_key(|r| (r.case.name(), r.swarm_seed));
    // A closed stdout (`swarm … | head -1`) ends the output early; the
    // exit code still carries the verdict.
    if let Err(e) = print_verdict(&failures, total) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

fn print_verdict(failures: &[SwarmReport], total: u64) -> io::Result<()> {
    let mut out = io::stdout().lock();
    if failures.is_empty() {
        return writeln!(out, "swarm: PASS ({total} runs, 0 violations)");
    }
    writeln!(out, "swarm: FAIL ({} of {total} runs violated invariants)", failures.len())?;
    for report in failures {
        for violation in &report.violations {
            writeln!(
                out,
                "  case={} swarm_seed={} invariant={} detail={}",
                report.case.name(),
                report.swarm_seed,
                violation.invariant,
                violation.detail
            )?;
        }
        writeln!(out, "  repro: {}", report.repro_command())?;
    }
    Ok(())
}
