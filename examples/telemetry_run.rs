//! Telemetry run: the fault-free detection phase, printing only the
//! [`RunTelemetry`](obs::RunTelemetry) export — netsim event-loop phase
//! histograms, per-link counters, botnet life-cycle traces, per-protocol
//! traffic outcomes, IDS stage timings and the ML predict-work profile.
//!
//! Every line printed is a pure function of the seed: the CI
//! `determinism-smoke` (telemetry) job runs this twice with the same
//! seed and diffs the output byte for byte. Keep wall-clock-dependent
//! values out.
//!
//! Run with: `cargo run --release --example telemetry_run [seed] [--json]`

use ddoshield::experiments::{run_baseline_detection, ExperimentScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let seed: u64 =
        args.iter().find_map(|a| a.parse().ok()).unwrap_or(42);
    let scale = ExperimentScale::quick();
    let outcome = run_baseline_detection(seed, &scale);

    if json {
        println!("{}", outcome.live.telemetry.render_json());
    } else {
        println!("seed={seed}");
        print!("{}", outcome.live.telemetry.render_text());
    }
}
