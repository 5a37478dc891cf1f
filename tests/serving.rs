//! Acceptance tests for the long-lived IDS serving layer: a chaos
//! scenario (CPU-pressure spike + link flap + loss/jitter/throttle
//! ramps) against a two-tenant service must complete with zero panics,
//! every dropped/shed/degraded window accounted (`ingested ==
//! classified + degraded + shed` per tenant), a mid-run hot-swap that
//! changes the generation in the `DetectionLog` without losing a
//! window, and byte-identical output across same-seed runs. The seed-42
//! run's signature is pinned in `tests/golden/serving.txt`.
//!
//! To regenerate the fixture after an *intentional* behaviour change:
//! `UPDATE_IDENTITY_FIXTURES=1 cargo test --test serving`.

mod common;

use common::check_fixture;
use ddoshield::experiments::{run_serving_detection, ExperimentScale};
use ddoshield::ServingOutcome;

fn run(seed: u64) -> ServingOutcome {
    run_serving_detection(seed, &ExperimentScale::swarm())
}

/// One run's full deterministic signature: per-tenant compact logs,
/// counters, robustness line and the telemetry export.
fn signature(outcome: &ServingOutcome) -> String {
    let mut out = String::new();
    for tenant in &outcome.report.tenants {
        out.push_str(&format!("== {} ==\n{:?}\n", tenant.name, tenant.counters));
        out.push_str(&tenant.log.serialize_compact());
    }
    out.push_str(&format!(
        "generation={} swaps={} retrains={} retrains_failed={}\n",
        outcome.report.generation,
        outcome.report.swaps,
        outcome.report.retrains,
        outcome.report.retrains_failed
    ));
    out.push_str(&outcome.report.robustness.to_string());
    out.push('\n');
    out.push_str(&outcome.report.telemetry.render_text());
    out
}

#[test]
fn serving_chaos_run_is_accounted_and_hot_swaps() {
    let outcome = run(42);
    let report = &outcome.report;

    // Probe output for tuning (visible with --nocapture).
    for t in &report.tenants {
        println!("{}: {:?} log_windows={}", t.name, t.counters, t.log.len());
    }
    println!(
        "generation={} swaps={} retrains={} retrains_failed={}",
        report.generation, report.swaps, report.retrains, report.retrains_failed
    );
    println!("robustness: {}", report.robustness);

    // Conservation: every window and record accounted, per tenant.
    assert_eq!(report.handle.conservation_violation(), None);
    assert_eq!(report.tenants.len(), 2);
    for tenant in &report.tenants {
        assert!(!tenant.log.is_empty(), "tenant {} logged no windows", tenant.name);
        assert_eq!(tenant.counters.conservation_violation(), None);
        // Generations in the log never regress.
        assert_eq!(tenant.log.generation_violation(), None);
        // Window indices stay live and strictly increasing.
        assert_eq!(tenant.log.liveness_violation(), None);
    }

    // The mid-run promotion landed: the champion's generation moved and
    // windows on both sides of the boundary are in the log.
    assert!(report.swaps >= 1, "no hot-swap happened");
    assert!(report.generation >= 1);
    let tserver = &report.tenants[0];
    let generations = tserver.log.generations();
    assert!(
        generations.len() >= 2,
        "expected windows under at least two generations, got {generations:?}"
    );

    // Backpressure actually engaged somewhere: the chaos plan's flood
    // phases must overflow the bounded queues.
    let total_shed: u64 = report
        .tenants
        .iter()
        .map(|t| t.counters.records_shed + t.counters.records_sampled_out)
        .sum();
    assert!(total_shed > 0, "chaos run never engaged a backpressure policy");
    let degraded: u64 = report.tenants.iter().map(|t| t.counters.windows_degraded).sum();
    assert!(degraded > 0, "CPU-pressure spike never degraded a window");

    // Every count above, the logs and the telemetry export, byte for byte.
    check_fixture("serving.txt", &signature(&outcome));
}

#[test]
fn serving_same_seed_runs_are_byte_identical() {
    let a = signature(&run(7));
    let b = signature(&run(7));
    assert_eq!(a, b, "same-seed serving runs diverged");
}
