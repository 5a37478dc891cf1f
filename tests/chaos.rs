//! Chaos integration tests: deterministic fault injection and the
//! overload-hardened IDS loop.
//!
//! The fault plan (bridge flap, loss ramp, jitter, throttle, IDS CPU
//! pressure) is compiled from the scenario config at deploy time and
//! driven entirely by the simulated clock and seeded RNG, so every run
//! of the same seed endures byte-identical chaos — and the IDS must
//! account for every window even while overloaded. The seed-42
//! lifecycle run, which takes every benign client's retry path, is
//! pinned in `tests/golden/lifecycle.txt`.
//!
//! To regenerate the fixture after an *intentional* behaviour change:
//! `UPDATE_IDENTITY_FIXTURES=1 cargo test --test chaos`.

mod common;

use common::check_fixture;
use ddoshield::experiments::{
    run_baseline_detection, run_chaos_detection, run_lifecycle_detection, ExperimentScale,
};

/// Two same-seed chaos runs produce byte-identical detection logs and
/// identical link counters — fault injection does not break the
/// simulator's determinism contract.
#[test]
fn chaos_runs_are_byte_identical() {
    let scale = ExperimentScale::quick();
    let a = run_chaos_detection(42, &scale);
    let b = run_chaos_detection(42, &scale);

    assert!(!a.live.log.is_empty(), "live run produced windows");
    assert_eq!(
        a.live.log.serialize_compact(),
        b.live.log.serialize_compact(),
        "detection logs must match byte for byte"
    );
    assert_eq!(a.bridge_stats, b.bridge_stats, "link counters must match");
    assert_eq!(a.live.robustness.feed_dropped, b.live.robustness.feed_dropped);
    assert_eq!(a.live.robustness.windows_degraded, b.live.robustness.windows_degraded);

    // The chaos actually happened: the flap destroyed in-flight frames
    // and the loss ramp drew extra channel losses.
    assert!(a.bridge_stats.drops_link_down > 0, "flap drops: {:?}", a.bridge_stats);
    assert!(a.bridge_stats.drops_lost > 0, "loss-ramp drops: {:?}", a.bridge_stats);
}

/// Under injected CPU pressure the IDS never loses a window: every
/// window is either classified normally or marked `degraded`, and the
/// robustness report's books balance against the log.
#[test]
fn overloaded_ids_accounts_for_every_window() {
    let scale = ExperimentScale::quick();
    let outcome = run_chaos_detection(7, &scale);
    let log = &outcome.live.log;
    let robustness = &outcome.live.robustness;

    assert_eq!(robustness.windows_total, log.len(), "every window is logged");
    assert_eq!(robustness.windows_degraded, log.degraded_count());
    assert!(
        robustness.windows_degraded > 0,
        "the CPU-pressure spike must push some windows over their interval"
    );
    assert!(
        robustness.windows_degraded < robustness.windows_total,
        "pressure is transient, so most windows classify in time"
    );
    // Degraded windows still carry a verdict — degradation is a flag,
    // not a dropped result.
    for w in log.results() {
        assert!(w.packets > 0, "window {} logged without packets", w.window_index);
        assert!(w.correct <= w.packets);
    }
}

/// §IV / E4 under chaos: windows straddling an attack boundary drag
/// accuracy below the steady-state windows — and the effect holds both
/// with and without fault injection on the very same traffic scenario.
#[test]
fn attack_boundary_dip_holds_with_and_without_faults() {
    let scale = ExperimentScale::quick();

    let clean = run_baseline_detection(21, &scale);
    let chaos = run_chaos_detection(21, &scale);

    for (name, outcome) in [("clean", &clean), ("chaos", &chaos)] {
        let log = &outcome.live.log;
        let mixed = log.mean_accuracy_mixed().unwrap_or_else(|| panic!("{name}: no mixed windows"));
        let pure = log.mean_accuracy_pure().unwrap_or_else(|| panic!("{name}: no pure windows"));
        assert!(
            mixed < pure,
            "{name}: boundary windows ({mixed:.3}) must trail steady-state ({pure:.3})"
        );
        assert!(pure > 0.85, "{name}: steady-state accuracy stays high ({pure:.3})");
        assert!(
            log.min_accuracy() < log.mean_accuracy(),
            "{name}: the worst window dips below the mean"
        );
    }

    // Only the chaos run flaps the bridge; the baseline keeps it up.
    assert_eq!(clean.bridge_stats.drops_link_down, 0);
    assert!(chaos.bridge_stats.drops_link_down > 0);
    // The baseline suffers no overload, so no window is degraded.
    assert_eq!(clean.live.robustness.windows_degraded, 0);
}

/// Two same-seed lifecycle chaos runs — a device reboot that wipes its
/// memory-resident bot, then a TServer reboot mid-run — are
/// byte-identical: the container state machine, C2 eviction sweep,
/// re-infection and client retry backoff all draw on the seeded clock
/// and RNG streams only. The run's log, bridge counters, robustness
/// line and telemetry (whose `traffic.client.*` counters count every
/// protocol's retries and failures) match the committed fixture.
#[test]
fn lifecycle_runs_are_byte_identical() {
    let scale = ExperimentScale::quick();
    let a = run_lifecycle_detection(42, &scale);
    let b = run_lifecycle_detection(42, &scale);

    assert!(!a.live.log.is_empty(), "live run produced windows");
    assert_eq!(
        a.live.log.serialize_compact(),
        b.live.log.serialize_compact(),
        "detection logs must match byte for byte"
    );
    assert_eq!(a.bridge_stats, b.bridge_stats, "link counters must match");
    assert_eq!(a.live.robustness, b.live.robustness, "robustness reports must match");

    let signature = format!(
        "{}# bridge counters\n{:?}\n# robustness\n{}\n# telemetry\n{}",
        a.live.log.serialize_compact(),
        a.bridge_stats,
        a.live.robustness,
        a.live.telemetry.render_text()
    );
    check_fixture("lifecycle.txt", &signature);
}

/// The lifecycle scenario actually exercises the recovery machinery:
/// both containers accrue exactly their configured downtime, the C2
/// evicts the rebooted device's bot and reinfects it after a positive
/// delay, and the benign workload degrades but survives the TServer
/// outage thanks to the retry budget.
#[test]
fn reboots_cause_eviction_reinfection_and_benign_recovery() {
    let scale = ExperimentScale::quick();
    let outcome = run_lifecycle_detection(42, &scale);
    let robustness = &outcome.live.robustness;

    // Downtime accounting: each reboot accrues its exact boot delay.
    let down: std::collections::HashMap<&str, u64> = robustness
        .container_downtime
        .iter()
        .map(|(name, ns)| (name.as_str(), *ns))
        .collect();
    assert_eq!(down.get("dev-0"), Some(&3_000_000_000), "device boot delay");
    assert_eq!(down.get("tserver"), Some(&4_000_000_000), "tserver boot delay");
    assert!(robustness.total_downtime_nanos() >= 7_000_000_000);

    // The rebooted device lost its memory-resident bot: the C2 evicted
    // it and the scanner re-compromised it some positive time later.
    assert!(robustness.bots_evicted >= 1, "eviction: {robustness}");
    assert!(robustness.reinfections >= 1, "reinfection: {robustness}");
    let latency = robustness
        .mean_reinfection_latency_nanos()
        .expect("reinfection implies a recorded latency");
    assert!(latency > 0, "time-to-reinfection must be positive, got {latency}ns");

    // Benign clients dipped (failures and retries happened during the
    // TServer outage) but the success rate recovered.
    assert!(robustness.benign_retried > 0, "outage triggered retries: {robustness}");
    assert!(robustness.benign_failed > 0, "outage exhausted some budgets: {robustness}");
    let rate = robustness.benign_success_rate().expect("clients ran");
    assert!(rate > 0.95, "benign success rate recovered, got {rate:.4}");
    assert!(
        robustness.benign_completed < robustness.benign_started,
        "the dip is visible: some transactions never completed"
    );
}

/// The fault schedule is a pure function of the scenario seed: two
/// deploys that differ in fleet size, client mix and the churn toggle —
/// knobs that consume different amounts of the deploy RNG before the
/// fault plan is compiled — still flap the bridge at byte-identical
/// times. (Regression: the fault stream used to be a conditional
/// `fork()` of the deploy stream, so any upstream draw reshuffled the
/// chaos; it now lives on the named `"deploy.faults"` stream.)
#[test]
fn fault_schedule_survives_unrelated_scenario_knobs() {
    use ddoshield::{rotation, FaultPlanConfig, RandomFlapSpec, ScenarioConfig, Testbed};
    use netsim::time::{SimDuration, SimTime};

    let mk = |devices: usize, clients: usize, churn: f64| {
        let mut config = ScenarioConfig::paper_default(1717);
        config.devices = devices;
        config.clients_per_device = clients;
        config.churn_rate_per_min = churn;
        config.infection_lead = SimDuration::from_secs(1);
        // Attacks start after the sampled window; only the flap plan
        // touches the bridge's administrative state before then.
        config.attacks = rotation(&[40], 5, 50);
        config.faults = FaultPlanConfig {
            random_flap: Some(RandomFlapSpec {
                start: SimDuration::from_secs(1),
                until: SimDuration::from_secs(22),
                mean_up_secs: 3.0,
                mean_down_secs: 1.0,
            }),
            ..FaultPlanConfig::default()
        };
        config
    };

    let sample = |mut tb: Testbed| -> Vec<bool> {
        let bridge = tb.runtime().bridge();
        (1..=500u64)
            .map(|step| {
                tb.runtime_mut().world_mut().run_until(SimTime::from_millis(step * 50));
                tb.runtime().world().link_is_up(bridge)
            })
            .collect()
    };

    let a = sample(Testbed::deploy(mk(4, 1, 0.0)));
    let b = sample(Testbed::deploy(mk(8, 2, 3.0)));
    assert_eq!(a, b, "random-flap schedule moved with unrelated deploy knobs");
    assert!(a.iter().any(|up| !up), "the flap plan actually fired");
}
