//! Serving run: the long-lived IDS serving layer under chaos — two
//! tenants with different backpressure policies, a mid-run
//! champion/challenger promotion, and periodic background retrains
//! that hot-swap the model at window boundaries.
//!
//! Every line printed is a pure function of the seed: the CI
//! `determinism-smoke` (serving) job runs this twice with the same seed
//! and diffs the output byte for byte. Keep wall-clock-dependent values
//! (measured CPU percent, timings) out of the output.
//!
//! Run with: `cargo run --release --example serving_run [seed]`

use ddoshield::experiments::{run_serving_detection, ExperimentScale};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let scale = ExperimentScale::quick();
    let outcome = run_serving_detection(seed, &scale);
    let report = &outcome.report;

    println!("seed={seed}");
    println!(
        "generation={} swaps={} retrains={} retrains_failed={}",
        report.generation, report.swaps, report.retrains, report.retrains_failed
    );
    for tenant in &report.tenants {
        let c = &tenant.counters;
        println!("# tenant {}", tenant.name);
        println!(
            "windows ingested={} classified={} degraded={} shed={}",
            c.windows_ingested, c.windows_classified, c.windows_degraded, c.windows_shed
        );
        println!(
            "records offered={} processed={} shed={} sampled_out={}",
            c.records_offered, c.records_processed, c.records_shed, c.records_sampled_out
        );
        println!(
            "shadow challenger_windows={} verdict_disagreements={}",
            c.challenger_windows, c.verdict_disagreements
        );
        print!("{}", tenant.log.serialize_compact());
    }
    println!("# bridge counters");
    println!("{:?}", outcome.bridge_stats);
    println!("# robustness");
    println!("{}", report.robustness);
    println!("# telemetry");
    print!("{}", report.telemetry.render_text());
}
