//! Lifecycle run: the real-time detection phase while containers crash
//! and reboot — a device reboot that wipes its memory-resident bot
//! (evicted by the C2, then re-scanned and reinfected) and a TServer
//! reboot that fails benign transactions until the retry budget pulls
//! them through.
//!
//! Every line printed is a pure function of the seed: the CI
//! `determinism-smoke` (lifecycle) job runs this twice with the same
//! seed and diffs the output byte for byte. Keep wall-clock-dependent
//! values (measured CPU percent, timings) out of the output.
//!
//! Run with: `cargo run --release --example lifecycle_run [seed]`

use ddoshield::experiments::{run_lifecycle_detection, ExperimentScale};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let scale = ExperimentScale::quick();
    let outcome = run_lifecycle_detection(seed, &scale);

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
