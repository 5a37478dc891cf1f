//! Sharded run: the sharded chaos scenario (per-cell worlds advancing
//! under conservative cross-shard time-sync) reduced to a detection
//! log and telemetry section.
//!
//! Every line printed is a pure function of the seed and scale — the
//! shard count is *not* part of that function. The CI
//! `determinism-smoke` (shard) job runs this at `--shards 1`, `2` and
//! `8` with the same seed and diffs the full output byte for byte.
//!
//! Run with: `cargo run --release --example shard_run [seed] [--shards N] [--buggify SWARM_SEED]`

use ddoshield::shardplan::{run_sharded_chaos, ShardPlanConfig};
use netsim::BuggifyConfig;

fn main() {
    let mut seed: u64 = 42;
    let mut shards: usize = 1;
    let mut buggify: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => {
                let value = args.next().expect("--shards takes a count");
                shards = value.parse().expect("--shards takes a count");
            }
            "--buggify" => {
                let value = args.next().expect("--buggify takes a swarm seed");
                buggify = Some(value.parse().expect("--buggify takes a swarm seed"));
            }
            other => seed = other.parse().expect("seed must be a u64"),
        }
    }

    let mut config = ShardPlanConfig::smoke(seed);
    config.shards = shards;
    if let Some(swarm_seed) = buggify {
        config.buggify = BuggifyConfig::swarm(swarm_seed);
    }
    let report = run_sharded_chaos(&config);

    println!("seed={seed}");
    println!("# per-window detection log");
    print!("{}", report.output());

    if let Some(detail) = report.stats.conservation_violation() {
        eprintln!("VIOLATION: {detail}");
        std::process::exit(1);
    }
    let end = netsim::time::SimTime::ZERO + config.duration;
    if let Some(detail) = report.stats.clock_violation(end) {
        eprintln!("VIOLATION: {detail}");
        std::process::exit(1);
    }
}
