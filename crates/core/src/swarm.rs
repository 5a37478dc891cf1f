//! Seed-swarm testing: the golden scenarios under buggify perturbation.
//!
//! A swarm run executes one golden scenario (chaos, lifecycle, serving
//! or sharded) with the [`netsim::buggify`] layer armed under a *swarm
//! seed*, then checks machine-readable invariants: the run must not
//! panic, the IDS must stay live (every window classified or degraded,
//! indices strictly increasing), the paper-preset IDS tenant must never
//! shed, the sniffer feed must conserve records, the packet pool must
//! stay healthy, and the virtual clock must land exactly where the phase
//! arithmetic says. Every case runs under one panic guard
//! ([`run_swarm_case`]); the three testbed cases share one live-run path
//! ([`crate::experiments::deploy_to_live`]) and one set of testbed
//! checks. Monotone-clock and ChunkQueue-accounting checks ride along as
//! `debug_assert!`s, which is why swarm binaries are built with debug
//! assertions on (the `swarm` profile).
//!
//! A failing swarm seed replays bit-identically:
//! [`SwarmReport::repro_command`] prints the exact command.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ids::pipeline::TrainedIds;
use ids::realtime::DetectionLog;
use netsim::buggify::BuggifyConfig;
use netsim::time::{SimDuration, SimTime};
use obs::RunTelemetry;

use crate::experiments::{
    chaos_scenario, deploy_to_live, lifecycle_scenario, run_serving_plan, run_training_capture,
    train_serving_models, ExperimentScale,
};
use crate::shardplan::{run_sharded_chaos, ShardPlanConfig};
use crate::testbed::Testbed;

/// Which golden scenario a swarm run perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwarmCase {
    /// [`chaos_scenario`]: bridge outage, loss/jitter ramps, throttle,
    /// CPU-pressure spike on the IDS.
    Chaos,
    /// [`lifecycle_scenario`]: device and TServer reboots mid-run.
    Lifecycle,
    /// The serving layer under [`chaos_scenario`]: two tenants with
    /// bounded queues, a mid-run champion hot-swap, and the two
    /// `serve.*` decision points armed alongside the kernel's.
    Serving,
    /// The sharded chaos scenario
    /// ([`crate::shardplan::run_sharded_chaos`]) at two shard counts,
    /// with the kernel decision points armed per cell plus the
    /// coordinator's `shard.boundary_delay`: cross-shard packets must
    /// conserve, every cell clock must land on the horizon, and the
    /// two shard counts must produce byte-identical artifacts.
    Sharded,
}

impl SwarmCase {
    /// All cases, in runner order.
    pub const ALL: [SwarmCase; 4] =
        [SwarmCase::Chaos, SwarmCase::Lifecycle, SwarmCase::Serving, SwarmCase::Sharded];

    /// The case's stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            SwarmCase::Chaos => "chaos",
            SwarmCase::Lifecycle => "lifecycle",
            SwarmCase::Serving => "serving",
            SwarmCase::Sharded => "sharded",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<SwarmCase> {
        match s {
            "chaos" => Some(SwarmCase::Chaos),
            "lifecycle" => Some(SwarmCase::Lifecycle),
            "serving" => Some(SwarmCase::Serving),
            "sharded" => Some(SwarmCase::Sharded),
            _ => None,
        }
    }
}

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwarmViolation {
    /// Stable invariant name (`no-panic`, `ids-liveness`,
    /// `feed-conservation`, `pool-health`, `clock-horizon`,
    /// `determinism`; chaos and lifecycle cases also:
    /// `paper-tenant-never-sheds`; serving case also: `serving-conservation`,
    /// `flow-state-conservation`, `generation-monotone`, `swap-landed`;
    /// sharded case also:
    /// `shard-conservation`, `shard-invariance`).
    pub invariant: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

/// The machine-readable outcome of one swarm run.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Which golden scenario ran.
    pub case: SwarmCase,
    /// The scenario seed (fixed across a swarm).
    pub scenario_seed: u64,
    /// The buggify swarm seed (varies across a swarm).
    pub swarm_seed: u64,
    /// Every invariant violation found (empty = the run passed).
    pub violations: Vec<SwarmViolation>,
    /// Detection windows logged.
    pub windows: usize,
    /// Windows that ran degraded.
    pub degraded: usize,
    /// Total buggify decision-point fires.
    pub buggify_fires: u64,
    /// FNV-1a fingerprint over the detection log and deterministic
    /// telemetry, for same-seed determinism comparisons.
    pub fingerprint: u64,
}

impl SwarmReport {
    /// `true` when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The copy-pasteable command replaying this exact run.
    pub fn repro_command(&self) -> String {
        format!(
            "cargo run --profile swarm --example swarm_run -- --case {} --seed {} --swarm-seed {}",
            self.case.name(),
            self.scenario_seed,
            self.swarm_seed
        )
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The models a swarm runner trains once per scenario seed: the
/// champion every case deploys, plus the cheaper challenger the serving
/// case hot-swaps in. Every swarm seed replays the *same* trained
/// models (training happens before the perturbed phase), so a runner
/// trains once per scenario seed and clones per run.
#[derive(Debug, Clone)]
pub struct SwarmModels {
    /// The standard K-Means IDS (all cases).
    pub champion: TrainedIds,
    /// The coarser shadow model (serving case only).
    pub challenger: TrainedIds,
}

/// Trains the swarm's champion + challenger once for a scenario seed.
pub fn swarm_models(scenario_seed: u64, scale: &ExperimentScale) -> SwarmModels {
    let capture = run_training_capture(scenario_seed, scale);
    let (champion, challenger) = train_serving_models(&capture, scale, scenario_seed);
    SwarmModels { champion, challenger }
}

/// Runs one golden scenario under one buggify swarm seed and checks
/// every invariant. Pure function of its arguments — a failing seed
/// replays bit-identically.
pub fn run_swarm_case(
    case: SwarmCase,
    scenario_seed: u64,
    swarm_seed: u64,
    scale: &ExperimentScale,
    models: &SwarmModels,
) -> SwarmReport {
    let guarded = catch_unwind(AssertUnwindSafe(|| match case {
        SwarmCase::Sharded => sharded_run(scenario_seed, swarm_seed),
        _ => testbed_run(case, scenario_seed, swarm_seed, scale, models),
    }));
    let mut report = SwarmReport {
        case,
        scenario_seed,
        swarm_seed,
        violations: Vec::new(),
        windows: 0,
        degraded: 0,
        buggify_fires: 0,
        fingerprint: 0,
    };
    match guarded {
        Ok(run) => {
            report.violations = run
                .checks
                .into_iter()
                .filter_map(|(invariant, detail)| {
                    Some(SwarmViolation { invariant, detail: detail? })
                })
                .collect();
            report.windows = run.windows;
            report.degraded = run.degraded;
            report.buggify_fires = run.fires;
            report.fingerprint =
                fnv1a(run.log.as_bytes()) ^ fnv1a(run.telemetry.as_bytes()).rotate_left(17);
        }
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            report.violations.push(SwarmViolation { invariant: "no-panic", detail });
        }
    }
    report
}

/// What a case's body hands back to [`run_swarm_case`]'s guard.
struct CaseRun {
    /// Every checked invariant, with a detail when it was violated.
    checks: Vec<(&'static str, Option<String>)>,
    windows: usize,
    degraded: usize,
    fires: u64,
    /// The detection log and telemetry text the fingerprint hashes.
    log: String,
    telemetry: String,
}

/// The chaos, lifecycle and serving cases: the case's scenario under the
/// swarm seed, brought up to its live phase, the case's live phase, then
/// the testbed checks every case shares.
fn testbed_run(
    case: SwarmCase,
    scenario_seed: u64,
    swarm_seed: u64,
    scale: &ExperimentScale,
    models: &SwarmModels,
) -> CaseRun {
    let build = if case == SwarmCase::Lifecycle { lifecycle_scenario } else { chaos_scenario };
    let mut scenario = build(scenario_seed, scale.live_secs, scale.epoch_offset_secs());
    scenario.buggify = BuggifyConfig::swarm(swarm_seed);
    let horizon = SimTime::ZERO
        + scenario.infection_lead
        + SimDuration::from_secs(scale.epoch_offset_secs() + scale.live_secs);
    let mut tb = deploy_to_live(scenario, scale);
    let live_phase = if case == SwarmCase::Serving { serving_live } else { paper_live };
    let mut run = live_phase(&mut tb, scale, models);
    run.fires = tb.runtime().world().buggify_counts().iter().map(|&(_, _, f)| f).sum();
    run.checks.extend(testbed_checks(&tb, horizon));
    run
}

/// The invariants every testbed case shares: the sniffer feed conserves
/// records, the packet pool's accounting holds, and the clock lands
/// exactly on `horizon`.
fn testbed_checks(tb: &Testbed, horizon: SimTime) -> [(&'static str, Option<String>); 3] {
    let sniffer = tb.sniffer();
    let (captured, drained) = (sniffer.captured_total(), sniffer.drained_total());
    let buffered = sniffer.buffered() as u64;
    let pool = tb.runtime().world().packet_pool();
    let (live, high_water, capacity) = (pool.live(), pool.high_water(), pool.capacity());
    let now = tb.runtime().now();
    [
        (
            "feed-conservation",
            (captured != drained + buffered)
                .then(|| format!("captured {captured} != drained {drained} + buffered {buffered}")),
        ),
        (
            "pool-health",
            (!(live <= high_water && high_water <= capacity)).then(|| {
                format!("live {live} <= high_water {high_water} <= capacity {capacity} violated")
            }),
        ),
        (
            "clock-horizon",
            (now != horizon).then(|| format!("clock ended at {now:?}, expected {horizon:?}")),
        ),
    ]
}

/// The chaos and lifecycle cases' live phase: [`Testbed::run_live`]'s
/// paper-preset tenant.
fn paper_live(tb: &mut Testbed, scale: &ExperimentScale, models: &SwarmModels) -> CaseRun {
    let report = tb.run_live(SimDuration::from_secs(scale.live_secs), models.champion.clone());
    CaseRun {
        checks: vec![
            ("ids-liveness", report.log.liveness_violation()),
            ("paper-tenant-never-sheds", paper_tenant_shed_violation(&report.telemetry)),
        ],
        windows: report.log.len(),
        degraded: report.log.degraded_count(),
        fires: 0,
        log: report.log.serialize_compact(),
        telemetry: report.telemetry.render_text(),
    }
}

/// The `paper-tenant-never-sheds` invariant: [`Testbed::run_live`]'s
/// single tenant (the paper preset, named `tserver`) sheds no record and
/// no window, however the feed is perturbed. Read back from the run's
/// telemetry export; a missing counter is a violation too.
fn paper_tenant_shed_violation(telemetry: &RunTelemetry) -> Option<String> {
    for name in ["records_shed", "records_sampled_out", "windows_shed"] {
        let key = format!("ids.serving.tserver.{name}");
        match telemetry.counter(&key) {
            Some(0) => {}
            Some(n) => return Some(format!("{key} = {n}")),
            None => return Some(format!("{key} missing from the telemetry export")),
        }
    }
    None
}

/// The serving case's live phase: the two-tenant serving plan
/// ([`run_serving_plan`], no retrain) with a mid-run challenger
/// promotion and the `serve.*` decision points armed. It checks
/// *serving conservation* on the handle (per tenant, `windows_ingested
/// == windows_classified + windows_degraded + windows_shed`, the
/// record-level analogue, and the log against the counters),
/// *flow-state conservation* (after every `features.state_cull` forced
/// cull, each tenant's incremental flow aggregates must still account
/// for every pushed record byte-for-byte), *generation monotonicity* in
/// every log, and that the staged hot-swap actually landed despite
/// `serve.model_swap_delay` perturbation.
fn serving_live(tb: &mut Testbed, scale: &ExperimentScale, models: &SwarmModels) -> CaseRun {
    let champion = models.champion.clone();
    let report = run_serving_plan(tb, scale, champion, models.challenger.clone(), None);
    let logs = || report.tenants.iter().map(|tenant| &tenant.log);
    let mut log = String::new();
    for tenant in &report.tenants {
        log.push_str(&format!("== {} ==\n", tenant.name));
        log.push_str(&tenant.log.serialize_compact());
    }
    let swap_missing = report.swaps == 0 || report.generation == 0;
    CaseRun {
        checks: vec![
            ("ids-liveness", logs().find_map(DetectionLog::liveness_violation)),
            ("serving-conservation", report.handle.conservation_violation()),
            ("flow-state-conservation", report.handle.flow_state_violation()),
            ("generation-monotone", logs().find_map(DetectionLog::generation_violation)),
            (
                "swap-landed",
                swap_missing.then(|| "the staged challenger promotion never swapped in".to_owned()),
            ),
        ],
        windows: logs().map(DetectionLog::len).sum(),
        degraded: logs().map(DetectionLog::degraded_count).sum(),
        fires: 0,
        log,
        telemetry: report.telemetry.render_text(),
    }
}

/// The sharded swarm case: the smoke-scale sharded chaos scenario
/// ([`ShardPlanConfig::smoke`]) under the swarm seed, executed at one
/// and at two worker shards. It checks *shard conservation* (every
/// cross-shard packet is delivered, unroutable, or in flight at the
/// end), *clock-horizon agreement* (every cell's clock lands exactly on
/// the configured end), and *shard invariance* (the two shard counts
/// produce byte-identical detection logs and telemetry — the
/// determinism contract, exercised under perturbation).
fn sharded_run(scenario_seed: u64, swarm_seed: u64) -> CaseRun {
    let mut config = ShardPlanConfig::smoke(scenario_seed);
    config.buggify = BuggifyConfig::swarm(swarm_seed);
    config.shards = 1;
    let one = run_sharded_chaos(&config);
    config.shards = 2;
    let two = run_sharded_chaos(&config);
    let mut checks = Vec::new();
    for (label, report) in [("1-shard", &one), ("2-shard", &two)] {
        let labelled = |detail: Option<String>| detail.map(|d| format!("{label}: {d}"));
        let clock = report.stats.clock_violation(SimTime::ZERO + config.duration);
        checks.push(("shard-conservation", labelled(report.stats.conservation_violation())));
        checks.push(("clock-horizon", labelled(clock)));
    }
    let (a, b) = (one.output(), two.output());
    checks.push((
        "shard-invariance",
        (a != b).then(|| {
            format!("1-shard and 2-shard artifacts differ ({} vs {} bytes)", a.len(), b.len())
        }),
    ));
    CaseRun {
        checks,
        windows: one.log.lines().count(),
        degraded: 0,
        fires: one.stats.cell_buggify_fires + one.stats.boundary_delay_fires,
        log: one.log,
        telemetry: one.telemetry,
    }
}

/// Runs `first`'s case and seeds once more and reports a `determinism`
/// violation if the rerun's fingerprint differs from `first`'s. Used by
/// the runner on a sample of seeds — the rerun costs a full extra
/// execution.
pub fn check_determinism(
    first: &SwarmReport,
    scale: &ExperimentScale,
    models: &SwarmModels,
) -> Option<SwarmViolation> {
    let again = run_swarm_case(first.case, first.scenario_seed, first.swarm_seed, scale, models);
    (again.fingerprint != first.fingerprint).then(|| SwarmViolation {
        invariant: "determinism",
        detail: format!(
            "same swarm seed {} produced fingerprints {:#018x} and {:#018x}",
            first.swarm_seed, first.fingerprint, again.fingerprint
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale::swarm()
    }

    /// `(windows, degraded, buggify_fires, fingerprint)`: the values
    /// pinned below were recorded at scenario seed 11, swarm seed 1, so a
    /// change that moves one byte of a case's log or telemetry fails
    /// here, not only in a same-binary determinism check.
    fn pinned(report: &SwarmReport) -> (usize, usize, u64, u64) {
        (report.windows, report.degraded, report.buggify_fires, report.fingerprint)
    }

    #[test]
    fn case_names_round_trip() {
        for case in SwarmCase::ALL {
            assert_eq!(SwarmCase::parse(case.name()), Some(case));
        }
        assert_eq!(SwarmCase::parse("nope"), None);
    }

    #[test]
    fn swarm_run_engages_buggify_and_passes_invariants() {
        let scale = tiny_scale();
        let models = swarm_models(11, &scale);
        let report = run_swarm_case(SwarmCase::Chaos, 11, 1, &scale, &models);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.buggify_fires > 0, "the perturbation layer must engage");
        assert!(report.windows > 0, "the IDS must classify windows");
        assert!(report.repro_command().contains("--swarm-seed 1"));
        assert_eq!(pinned(&report), (28, 9, 47044, 0x73ec_ab0a_587f_8ae1));
    }

    #[test]
    fn lifecycle_swarm_run_passes_its_invariants() {
        let scale = tiny_scale();
        let models = swarm_models(11, &scale);
        let report = run_swarm_case(SwarmCase::Lifecycle, 11, 1, &scale, &models);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.buggify_fires > 0, "the perturbation layer must engage");
        assert!(report.windows > 0, "the IDS must classify windows");
        assert!(report.repro_command().contains("--case lifecycle"));
        assert_eq!(pinned(&report), (29, 0, 47632, 0x306d_76bb_9eeb_0f45));
    }

    #[test]
    fn serving_swarm_run_passes_its_invariants() {
        let scale = tiny_scale();
        let models = swarm_models(11, &scale);
        let report = run_swarm_case(SwarmCase::Serving, 11, 1, &scale, &models);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.buggify_fires > 0, "the perturbation layer must engage");
        assert!(report.windows > 0, "the service must classify windows");
        assert!(report.repro_command().contains("--case serving"));
        assert_eq!(pinned(&report), (57, 52, 47135, 0x3a96_eb70_4f33_2acc));
    }

    #[test]
    fn sharded_swarm_run_passes_its_invariants() {
        let scale = tiny_scale();
        let models = swarm_models(11, &scale);
        let report = run_swarm_case(SwarmCase::Sharded, 11, 1, &scale, &models);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.buggify_fires > 0, "the perturbation layer must engage");
        assert!(report.windows > 0, "the detector must log windows");
        assert!(report.repro_command().contains("--case sharded"));
        assert_eq!(pinned(&report), (10, 0, 741, 0xb628_2f66_3b6b_2796));
        assert_eq!(check_determinism(&report, &scale, &models), None);
    }

    #[test]
    fn same_swarm_seed_reports_identical_fingerprints() {
        let scale = tiny_scale();
        let models = swarm_models(11, &scale);
        let a = run_swarm_case(SwarmCase::Chaos, 11, 3, &scale, &models);
        assert_eq!(check_determinism(&a, &scale, &models), None);
        let b = run_swarm_case(SwarmCase::Chaos, 11, 4, &scale, &models);
        assert_ne!(
            a.fingerprint, b.fingerprint,
            "different swarm seeds must perturb the run differently"
        );
    }

    #[test]
    fn serving_same_swarm_seed_is_deterministic() {
        let scale = tiny_scale();
        let models = swarm_models(11, &scale);
        let first = run_swarm_case(SwarmCase::Serving, 11, 5, &scale, &models);
        assert_eq!(check_determinism(&first, &scale, &models), None);
    }
}
