//! Chaos run: the real-time detection phase under an injected fault
//! plan — a bridge outage, a transient loss ramp, latency jitter, a
//! bandwidth throttle, and a CPU-pressure spike on the IDS node.
//!
//! Every line printed is a pure function of the seed: the CI
//! `determinism-smoke` (chaos) job runs this twice with the same seed
//! and diffs the output byte for byte. Keep wall-clock-dependent values
//! (measured CPU percent, timings) out of the output.
//!
//! Run with: `cargo run --release --example chaos_run [seed]`

use ddoshield::experiments::{run_chaos_detection, ExperimentScale};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let scale = ExperimentScale::quick();
    let outcome = run_chaos_detection(seed, &scale);

    println!("seed={seed}");
    println!("# per-window detection log");
    print!("{}", outcome.live.log.serialize_compact());
    println!("# bridge counters");
    println!("{:?}", outcome.bridge_stats);
    println!("# robustness");
    println!("{}", outcome.live.robustness);
    println!(
        "mean_accuracy={:.6} min_accuracy={:.6} degraded={}",
        outcome.live.log.mean_accuracy(),
        outcome.live.log.min_accuracy(),
        outcome.live.log.degraded_count()
    );
    println!("# telemetry");
    print!("{}", outcome.live.telemetry.render_text());
}
