//! Shard-count invariance and golden-fixture guard for the sharded
//! simulation path.
//!
//! The tentpole contract of `netsim::shard`: a sharded run's artifacts
//! are a pure function of the cell partition — the worker-shard count
//! is a wall-clock knob only. This test pins three things:
//!
//! - same-seed, same-shards runs are byte-identical (plain determinism),
//! - 1-shard, 2-shard and 8-shard runs of the same seed produce
//!   byte-identical detection logs and telemetry (the invariance the
//!   `determinism-smoke` (shard) CI job also diffs end to end),
//! - the artifact matches a committed golden fixture
//!   (`tests/golden/shard_chaos.txt`), so the cross-shard merge order
//!   cannot silently drift between refactors.
//!
//! To regenerate after an *intentional* behaviour change:
//! `UPDATE_IDENTITY_FIXTURES=1 cargo test --test shard`.

mod common;

use common::check_fixture;
use ddoshield::shardplan::{run_sharded_chaos, ShardPlanConfig};
use netsim::time::SimTime;
use netsim::BuggifyConfig;

const SEED: u64 = 11;

fn run_at(shards: usize) -> (String, ddoshield::ShardedChaosReport) {
    let mut config = ShardPlanConfig::smoke(SEED);
    config.shards = shards;
    let report = run_sharded_chaos(&config);
    (report.output(), report)
}

#[test]
fn sharded_artifacts_are_invariant_across_shard_counts_and_match_golden() {
    let (one, report) = run_at(1);

    // Plain same-seed determinism.
    let (again, _) = run_at(1);
    assert_eq!(one, again, "same-seed sharded runs differ");

    // Shard-count invariance: the worker count must not leak a byte.
    let (two, _) = run_at(2);
    let (eight, _) = run_at(8);
    assert_eq!(one, two, "1-shard and 2-shard artifacts differ");
    assert_eq!(one, eight, "1-shard and 8-shard artifacts differ");

    // Cross-shard accounting balances and every cell clock landed on
    // the configured end.
    let end = SimTime::ZERO + ShardPlanConfig::smoke(SEED).duration;
    assert_eq!(report.stats.conservation_violation(), None);
    assert_eq!(report.stats.clock_violation(end), None);
    assert!(report.stats.cross_sent > 0, "cross-cell traffic flowed");

    // Golden fixture: the merge order itself is pinned.
    check_fixture("shard_chaos.txt", &one);
}

#[test]
fn buggified_sharded_runs_stay_invariant_across_shard_counts() {
    let run = |shards: usize| {
        let mut config = ShardPlanConfig::smoke(SEED);
        config.shards = shards;
        config.buggify = BuggifyConfig::swarm(3);
        run_sharded_chaos(&config).output()
    };
    let one = run(1);
    assert_eq!(one, run(2), "buggified 1-shard and 2-shard artifacts differ");
    assert_eq!(one, run(8), "buggified 1-shard and 8-shard artifacts differ");
}
