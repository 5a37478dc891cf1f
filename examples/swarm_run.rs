//! Single-seed swarm repro: replays one golden scenario under one
//! buggify swarm seed and prints the invariant verdicts. This is the
//! command `SwarmReport::repro_command` emits — a failing swarm seed
//! pasted here replays bit-identically.
//!
//! Run with:
//! `cargo run --profile swarm --example swarm_run -- --case chaos --seed 42 --swarm-seed 7`

use std::io::{self, Write};

use ddoshield::experiments::ExperimentScale;
use ddoshield::swarm::{run_swarm_case, swarm_models, SwarmCase, SwarmReport};

fn main() {
    let mut case = SwarmCase::Chaos;
    let mut scenario_seed = 42u64;
    let mut swarm_seed = 0u64;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).map(String::as_str).unwrap_or_default();
        match flag {
            "--case" => case = SwarmCase::parse(value).expect("case: chaos|lifecycle|serving|sharded"),
            "--seed" => scenario_seed = value.parse().expect("--seed takes a u64"),
            "--swarm-seed" => swarm_seed = value.parse().expect("--swarm-seed takes a u64"),
            other => panic!("unknown flag {other}"),
        }
        i += 2;
    }

    let scale = ExperimentScale::swarm();
    let models = swarm_models(scenario_seed, &scale);
    let report = run_swarm_case(case, scenario_seed, swarm_seed, &scale, &models);

    // A closed stdout (`swarm_run … | head -1`) ends the output early;
    // the exit code still carries the verdict.
    if let Err(e) = print_report(&report) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
    }
    if !report.passed() {
        std::process::exit(1);
    }
}

fn print_report(report: &SwarmReport) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "case={} seed={} swarm_seed={} windows={} degraded={} fires={} fingerprint={:#018x}",
        report.case.name(),
        report.scenario_seed,
        report.swarm_seed,
        report.windows,
        report.degraded,
        report.buggify_fires,
        report.fingerprint
    )?;
    for v in &report.violations {
        writeln!(out, "violation invariant={} detail={}", v.invariant, v.detail)?;
    }
    let verdict = if report.passed() { "PASS" } else { "FAIL" };
    writeln!(out, "verdict={verdict}")
}
