//! Determinism guarantees of the buggify perturbation layer.
//!
//! Buggify is only useful if a failing swarm seed replays exactly, and
//! only safe if the disabled layer is invisible. This test pins both
//! halves at full byte granularity (the swarm runner compares
//! fingerprints; here we diff the actual artifacts):
//!
//! - the same swarm seed produces byte-identical telemetry and alert
//!   streams across two in-process runs,
//! - different swarm seeds genuinely diverge,
//! - a *disabled* config carrying a nonzero swarm seed produces output
//!   byte-identical to the default config — the seed must be inert
//!   until `enabled` flips,
//! - a buggified export counts every layer's decision points (kernel,
//!   sniffers, serving layer) under `netsim.buggify.*` and nowhere else.
//!
//! The disabled-vs-golden-fixture half of the guarantee lives in
//! `tests/identity.rs`, which runs the golden scenarios with the
//! default (disabled) config against committed fixtures.

use ddoshield::experiments::{
    deploy_to_live, detection_scenario, run_serving_plan, ExperimentScale,
};
use ddoshield::swarm::swarm_models;
use netsim::buggify::{BuggifyConfig, DecisionPoint};
use netsim::time::SimDuration;

const SEED: u64 = 11;

fn scale() -> ExperimentScale {
    ExperimentScale::swarm()
}

/// One perturbed live run; returns (telemetry text, alert stream).
fn run_with(buggify: BuggifyConfig) -> (String, String) {
    let scale = scale();
    let ids = swarm_models(SEED, &scale).champion;

    let mut scenario = detection_scenario(SEED, scale.live_secs, scale.epoch_offset_secs());
    scenario.buggify = buggify;
    let mut live = deploy_to_live(scenario, &scale);
    let report = live.run_live(SimDuration::from_secs(scale.live_secs), ids);
    (report.telemetry.render_text(), report.log.serialize_compact())
}

#[test]
fn same_swarm_seed_is_byte_identical_and_seeds_diverge() {
    let (telemetry_a, alerts_a) = run_with(BuggifyConfig::swarm(7));
    let (telemetry_b, alerts_b) = run_with(BuggifyConfig::swarm(7));
    assert_eq!(telemetry_a, telemetry_b, "telemetry differs across same-swarm-seed runs");
    assert_eq!(alerts_a, alerts_b, "alert stream differs across same-swarm-seed runs");
    assert!(
        telemetry_a.contains("netsim.buggify."),
        "enabled buggify must export its decision-point counters"
    );

    let (telemetry_c, _) = run_with(BuggifyConfig::swarm(8));
    assert_ne!(
        telemetry_a, telemetry_c,
        "different swarm seeds must perturb the run differently"
    );
}

#[test]
fn disabled_config_with_seed_is_inert() {
    let inert = BuggifyConfig { enabled: false, swarm_seed: 0xdead_beef, intensity: 1.0 };
    let (telemetry_a, alerts_a) = run_with(inert);
    let (telemetry_b, alerts_b) = run_with(BuggifyConfig::default());
    assert_eq!(
        telemetry_a, telemetry_b,
        "a disabled buggify config must not leak its swarm seed into the run"
    );
    assert_eq!(alerts_a, alerts_b);
    assert!(
        !telemetry_a.contains("netsim.buggify."),
        "disabled buggify must not export decision-point counters"
    );
}

#[test]
fn buggified_export_counts_every_layer_once() {
    let scale = scale();
    let models = swarm_models(SEED, &scale);
    let mut scenario = detection_scenario(SEED, scale.live_secs, scale.epoch_offset_secs());
    scenario.buggify = BuggifyConfig::swarm(7);
    let mut live = deploy_to_live(scenario, &scale);
    let report = run_serving_plan(&mut live, &scale, models.champion, models.challenger, None);
    let telemetry = &report.telemetry;
    for point in [
        DecisionPoint::CaptureDrainPartial,
        DecisionPoint::CaptureRecordTruncate,
        DecisionPoint::ServeModelSwapDelay,
        DecisionPoint::ServeIngestQueueFull,
        DecisionPoint::FeaturesStateCull,
    ] {
        let key = format!("netsim.buggify.{}.evals", point.name());
        assert!(telemetry.gauge(&key).unwrap_or(0) > 0, "{key} must count the layer's draws");
    }
    let text = telemetry.render_text();
    for stale in ["capture.chaos.", "ids.serving.chaos."] {
        assert!(!text.contains(stale), "fires must export only under netsim.buggify: {stale}");
    }
}
