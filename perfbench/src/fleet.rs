//! The sharded-fleet workload: `ShardPlanConfig::bench_100k` through
//! `run_sharded_chaos` — 100k nodes on 64 CSMA cells, cross-cell
//! mailboxes and conservative sync windows, no model.

use std::time::Instant;

use ddoshield::{run_sharded_chaos, ShardPlanConfig, ShardedChaosReport};
use netsim::time::SimTime;

use crate::report::{Metric, Outcome};
use crate::stats::{fnv1a, median, peak_rss_mb};

/// One timed fleet run and its invariant check.
fn timed(config: &ShardPlanConfig) -> (ShardedChaosReport, f64, Option<String>) {
    let started = Instant::now();
    let report = run_sharded_chaos(config);
    let secs = started.elapsed().as_secs_f64();
    let end = SimTime::ZERO + config.duration;
    let violation = report
        .stats
        .conservation_violation()
        .or_else(|| report.stats.clock_violation(end));
    (report, secs, violation)
}

/// Runs the fleet at `min(cores, 8)` workers for about `seconds`.
/// Traced, it also reruns the plan at one worker: the artifact must
/// not change, and the time ratio is the parallel speed-up.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let workers = crate::cores().min(8);
    let config = ShardPlanConfig {
        shards: workers,
        ..ShardPlanConfig::bench_100k(seed)
    };
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    outcome.notes.push(format!("shard workers: {workers}"));

    let mut runs = Vec::new();
    let measure_started = Instant::now();
    loop {
        runs.push(timed(&config));
        let secs: Vec<f64> = runs.iter().map(|r| r.1).collect();
        if measure_started.elapsed().as_secs_f64() + median(&secs) > seconds as f64 {
            break;
        }
    }
    let first_output = runs[0].0.output();
    for (i, (report, secs, violation)) in runs.iter().enumerate() {
        let output = report.output();
        outcome.notes.push(format!(
            "run {i}: {secs:.3} s digest={:016x} records={} events={} rounds={}",
            fnv1a(output.as_bytes()),
            report.records,
            report.stats.events_processed,
            report.stats.rounds
        ));
        let problem = violation.clone().or_else(|| {
            (output != first_output).then(|| "artifact differs from the first run".to_string())
        });
        if let Some(problem) = problem {
            outcome.correct = false;
            outcome.failed += 1;
            outcome
                .notes
                .push(format!("CHECK FAILED run {i}: {problem}"));
        }
    }
    outcome.attempted = runs.len() as u64;

    let busy = median(&runs.iter().map(|r| r.1).collect::<Vec<_>>());
    let rss = peak_rss_mb().expect("VmHWM is readable");
    if !traced {
        outcome.metrics = vec![
            Metric::new("sim_speed", config.duration.as_secs_f64() / busy, "vsec/s"),
            Metric::new("peak_rss_mb", rss, "MB"),
        ];
        outcome.shown = vec![Metric::new(
            "fail_rate",
            outcome.failed as f64 / outcome.attempted as f64,
            "fraction",
        )];
        return outcome;
    }

    let serial = ShardPlanConfig {
        shards: 1,
        ..config.clone()
    };
    let (one, one_secs, violation) = timed(&serial);
    if let Some(problem) = violation.or_else(|| {
        (one.output() != first_output).then(|| "one-worker artifact differs".to_string())
    }) {
        outcome.correct = false;
        outcome
            .notes
            .push(format!("CHECK FAILED one-worker rerun: {problem}"));
    }
    let stats = &runs[0].0.stats;
    let events = stats.events_processed as f64;
    outcome.metrics = vec![
        Metric::new("shard.busy_s", busy, "s"),
        Metric::new("shard.rounds", stats.rounds as f64, "count"),
        Metric::new("shard.cross_sent", stats.cross_sent as f64, "count"),
        Metric::new(
            "shard.cross_delivered",
            stats.cross_delivered as f64,
            "count",
        ),
        Metric::new("shard.events", events, "count"),
        Metric::new("shard.ns_per_event", busy * 1e9 / events, "ns"),
        Metric::new("shard.records", runs[0].0.records as f64, "count"),
        Metric::new("shard.parallel_speedup", one_secs / busy, "x"),
        Metric::new("cores", crate::cores() as f64, "count"),
    ];
    outcome
}
