//! Seed-swarm testing: the golden scenarios under buggify perturbation.
//!
//! A swarm run executes one golden scenario (chaos or lifecycle) with
//! the [`netsim::buggify`] layer armed under a *swarm seed*, then checks
//! machine-readable invariants: the run must not panic, the IDS must
//! stay live (every window classified or degraded, indices strictly
//! increasing), the paper-preset IDS tenant must never shed, the sniffer
//! feed must conserve records, the packet pool must stay healthy, and
//! the virtual clock must land exactly where the phase arithmetic says.
//! Monotone-clock and ChunkQueue-accounting checks ride along as
//! `debug_assert!`s, which is why swarm binaries are built with debug
//! assertions on (the `swarm` profile).
//!
//! A failing swarm seed replays bit-identically:
//! [`SwarmReport::repro_command`] prints the exact command.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ids::pipeline::{IdsConfig, ModelKind, TrainedIds};
use ml::kmeans::KMeansConfig;
use netsim::buggify::BuggifyConfig;
use netsim::rng::SimRng;
use netsim::time::{SimDuration, SimTime};
use obs::RunTelemetry;

use crate::experiments::{
    chaos_scenario, lifecycle_scenario, run_training_capture, train_serving_models,
    ExperimentScale,
};
use crate::testbed::{ServingTenantTarget, Testbed};

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

/// Trains the swarm's K-Means IDS once for a scenario seed (the
/// champion of [`swarm_models`], for callers that only deploy the
/// single-model cases).
pub fn swarm_trained_ids(scenario_seed: u64, scale: &ExperimentScale) -> TrainedIds {
    let capture = run_training_capture(scenario_seed, scale);
    let ids_config =
        IdsConfig { max_train_samples: scale.max_train_samples, ..IdsConfig::default() };
    let mut rng = SimRng::seed_from(scenario_seed ^ 0x7ea1);
    TrainedIds::train(
        &capture,
        &ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() }),
        ids_config,
        &mut rng,
    )
    .expect("training capture contains both classes")
    .ids
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
    if case == SwarmCase::Serving {
        return run_swarm_serving(scenario_seed, swarm_seed, scale, models);
    }
    if case == SwarmCase::Sharded {
        return run_swarm_sharded(scenario_seed, swarm_seed);
    }
    let epoch_offset = scale.capture_secs + 5;
    let mut scenario = match case {
        SwarmCase::Chaos => chaos_scenario(scenario_seed, scale.live_secs, epoch_offset),
        SwarmCase::Lifecycle => lifecycle_scenario(scenario_seed, scale.live_secs, epoch_offset),
        SwarmCase::Serving | SwarmCase::Sharded => unreachable!("dispatched above"),
    };
    scenario.buggify = BuggifyConfig::swarm(swarm_seed);

    let mut violations = Vec::new();
    let ids = models.champion.clone();
    let lead = scenario.infection_lead;
    let live_secs = scale.live_secs;
    let run = catch_unwind(AssertUnwindSafe(move || {
        let mut tb = Testbed::deploy(scenario);
        tb.run_infection_lead();
        let _ = tb.run_capture(SimDuration::from_secs(epoch_offset));
        let report = tb.run_live(SimDuration::from_secs(live_secs), ids);
        let sniffer = tb.sniffer();
        let feed = (
            sniffer.captured_total(),
            sniffer.drained_total(),
            sniffer.buffered() as u64,
            sniffer.dropped_overflow(),
        );
        let pool = tb.runtime().world().packet_pool();
        let pool_health = (pool.live(), pool.high_water(), pool.capacity());
        let fires: u64 =
            tb.runtime().world().buggify_counts().iter().map(|&(_, _, f)| f).sum();
        let now = tb.runtime().now();
        let log_text = report.log.serialize_compact();
        let liveness = report.log.liveness_violation();
        let shed = paper_tenant_shed_violation(&report.telemetry);
        let telemetry = report.telemetry.render_text();
        let windows = report.log.len();
        let degraded = report.log.degraded_count();
        (feed, pool_health, fires, now, log_text, liveness, shed, telemetry, windows, degraded)
    }));

    let (windows, degraded, fires, fingerprint) = match run {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            violations.push(SwarmViolation { invariant: "no-panic", detail: msg });
            (0, 0, 0, 0)
        }
        Ok((feed, pool, fires, now, log_text, liveness, shed, telemetry, windows, degraded)) => {
            let (captured, drained, buffered, _dropped) = feed;
            if captured != drained + buffered {
                violations.push(SwarmViolation {
                    invariant: "feed-conservation",
                    detail: format!(
                        "captured {captured} != drained {drained} + buffered {buffered}"
                    ),
                });
            }
            let (live, high_water, capacity) = pool;
            if !(live <= high_water && high_water <= capacity) {
                violations.push(SwarmViolation {
                    invariant: "pool-health",
                    detail: format!(
                        "live {live} <= high_water {high_water} <= capacity {capacity} violated"
                    ),
                });
            }
            if let Some(detail) = liveness {
                violations.push(SwarmViolation { invariant: "ids-liveness", detail });
            }
            if let Some(detail) = shed {
                violations.push(SwarmViolation { invariant: "paper-tenant-never-sheds", detail });
            }
            let expected =
                SimTime::ZERO + lead + SimDuration::from_secs(epoch_offset + live_secs);
            if now != expected {
                violations.push(SwarmViolation {
                    invariant: "clock-horizon",
                    detail: format!("clock ended at {now:?}, expected {expected:?}"),
                });
            }
            let mut fp = fnv1a(log_text.as_bytes());
            fp ^= fnv1a(telemetry.as_bytes()).rotate_left(17);
            (windows, degraded, fires, fp)
        }
    };

    SwarmReport {
        case,
        scenario_seed,
        swarm_seed,
        violations,
        windows,
        degraded,
        buggify_fires: fires,
        fingerprint,
    }
}

/// The `paper-tenant-never-sheds` invariant: [`Testbed::run_live`]'s
/// single tenant (the paper preset, named `tserver`) sheds no record and
/// no window, however the feed is perturbed. Read back from the run's
/// telemetry export, as the serving case reads its conservation
/// counters; a missing counter is a violation too.
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

/// The serving-layer swarm case: [`chaos_scenario`] + kernel buggify +
/// the two `serve.*` decision points, against a two-tenant
/// [`ids::serving::IdsService`] with a mid-run challenger promotion.
/// On top of the shared invariants it checks *serving conservation*
/// (per tenant, `windows_ingested == windows_classified +
/// windows_degraded + windows_shed`, via both the handle and the
/// telemetry export), *flow-state conservation* (after every
/// `features.state_cull` forced cull, each tenant's incremental flow
/// aggregates must still account for every pushed record byte-for-byte),
/// *generation monotonicity* in every log, and that the staged hot-swap
/// actually landed despite `serve.model_swap_delay` perturbation.
fn run_swarm_serving(
    scenario_seed: u64,
    swarm_seed: u64,
    scale: &ExperimentScale,
    models: &SwarmModels,
) -> SwarmReport {
    let epoch_offset = scale.capture_secs + 5;
    let mut scenario = chaos_scenario(scenario_seed, scale.live_secs, epoch_offset);
    scenario.buggify = BuggifyConfig::swarm(swarm_seed);

    let mut violations = Vec::new();
    let champion = models.champion.clone();
    let challenger = models.challenger.clone();
    let lead = scenario.infection_lead;
    let live_secs = scale.live_secs;
    let run = catch_unwind(AssertUnwindSafe(move || {
        let mut tb = Testbed::deploy(scenario.clone());
        tb.run_infection_lead();
        let _ = tb.run_capture(SimDuration::from_secs(epoch_offset));

        let mut config = ids::serving::ServingConfig::new(champion);
        config.challenger = Some(challenger);
        config.promote_challenger_at_tick = Some(live_secs / 2);
        config.promote_delay_ticks = 2;
        config.chaos = Some((scenario.buggify.swarm_seed, scenario.buggify.intensity));
        let tenants = vec![
            (
                {
                    let mut t = ids::serving::TenantConfig::new("tserver");
                    t.queue_capacity = 512;
                    t.policy = ids::serving::BackpressurePolicy::DropOldest;
                    t.budget.drain_records_per_tick = 256;
                    t
                },
                ServingTenantTarget::TServer,
            ),
            (
                {
                    let mut t = ids::serving::TenantConfig::new("dev0");
                    t.queue_capacity = 256;
                    t.policy = ids::serving::BackpressurePolicy::DegradeSampled { keep: 2 };
                    t.budget.drain_records_per_tick = 128;
                    t
                },
                ServingTenantTarget::Device(0),
            ),
        ];
        let report = tb.run_live_serving(SimDuration::from_secs(live_secs), config, tenants);

        let sniffer = tb.sniffer();
        let feed = (
            sniffer.captured_total(),
            sniffer.drained_total(),
            sniffer.buffered() as u64,
            sniffer.dropped_overflow(),
        );
        let pool = tb.runtime().world().packet_pool();
        let pool_health = (pool.live(), pool.high_water(), pool.capacity());
        let fires: u64 =
            tb.runtime().world().buggify_counts().iter().map(|&(_, _, f)| f).sum();
        let now = tb.runtime().now();

        let serving_conservation = report.handle.conservation_violation();
        let flow_state_conservation = report.handle.flow_state_violation();
        let mut log_text = String::new();
        let mut liveness = None;
        let mut generation_violation = None;
        let mut windows = 0usize;
        let mut degraded = 0usize;
        let mut telemetry_conservation = None;
        for tenant in &report.tenants {
            log_text.push_str(&format!("== {} ==\n", tenant.name));
            log_text.push_str(&tenant.log.serialize_compact());
            windows += tenant.log.len();
            degraded += tenant.log.degraded_count();
            if liveness.is_none() {
                liveness = tenant.log.liveness_violation();
            }
            if generation_violation.is_none() {
                generation_violation = tenant.log.generation_violation();
            }
            // The same conservation equation, read back from the
            // telemetry snapshot the report carries: every shed window
            // must be accounted in the export, not only in a live read.
            if telemetry_conservation.is_none() {
                let prefix = format!("ids.serving.{}.", tenant.name);
                let get = |name: &str| {
                    report.telemetry.counter(&format!("{prefix}{name}")).unwrap_or(0)
                };
                let ingested = get("windows_ingested");
                let out = get("windows_classified") + get("windows_degraded")
                    + get("windows_shed");
                if ingested != out {
                    telemetry_conservation = Some(format!(
                        "telemetry {prefix}: ingested {ingested} != accounted {out}"
                    ));
                }
            }
        }
        let swap_landed = report.swaps >= 1 && report.generation >= 1;
        let telemetry_text = report.telemetry.render_text();
        (
            feed,
            pool_health,
            fires,
            now,
            log_text,
            liveness,
            serving_conservation,
            flow_state_conservation,
            generation_violation,
            telemetry_conservation,
            swap_landed,
            telemetry_text,
            windows,
            degraded,
        )
    }));

    let (windows, degraded, fires, fingerprint) = match run {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            violations.push(SwarmViolation { invariant: "no-panic", detail: msg });
            (0, 0, 0, 0)
        }
        Ok((
            feed,
            pool,
            fires,
            now,
            log_text,
            liveness,
            serving_conservation,
            flow_state_conservation,
            generation_violation,
            telemetry_conservation,
            swap_landed,
            telemetry_text,
            windows,
            degraded,
        )) => {
            let (captured, drained, buffered, _dropped) = feed;
            if captured != drained + buffered {
                violations.push(SwarmViolation {
                    invariant: "feed-conservation",
                    detail: format!(
                        "captured {captured} != drained {drained} + buffered {buffered}"
                    ),
                });
            }
            let (live, high_water, capacity) = pool;
            if !(live <= high_water && high_water <= capacity) {
                violations.push(SwarmViolation {
                    invariant: "pool-health",
                    detail: format!(
                        "live {live} <= high_water {high_water} <= capacity {capacity} violated"
                    ),
                });
            }
            if let Some(detail) = liveness {
                violations.push(SwarmViolation { invariant: "ids-liveness", detail });
            }
            if let Some(detail) = serving_conservation {
                violations.push(SwarmViolation { invariant: "serving-conservation", detail });
            }
            if let Some(detail) = telemetry_conservation {
                violations.push(SwarmViolation { invariant: "serving-conservation", detail });
            }
            if let Some(detail) = flow_state_conservation {
                violations.push(SwarmViolation { invariant: "flow-state-conservation", detail });
            }
            if let Some(detail) = generation_violation {
                violations.push(SwarmViolation { invariant: "generation-monotone", detail });
            }
            if !swap_landed {
                violations.push(SwarmViolation {
                    invariant: "swap-landed",
                    detail: "the staged challenger promotion never swapped in".to_owned(),
                });
            }
            let expected =
                SimTime::ZERO + lead + SimDuration::from_secs(epoch_offset + live_secs);
            if now != expected {
                violations.push(SwarmViolation {
                    invariant: "clock-horizon",
                    detail: format!("clock ended at {now:?}, expected {expected:?}"),
                });
            }
            let mut fp = fnv1a(log_text.as_bytes());
            fp ^= fnv1a(telemetry_text.as_bytes()).rotate_left(17);
            (windows, degraded, fires, fp)
        }
    };

    SwarmReport {
        case: SwarmCase::Serving,
        scenario_seed,
        swarm_seed,
        violations,
        windows,
        degraded,
        buggify_fires: fires,
        fingerprint,
    }
}

/// The sharded swarm case: the smoke-scale sharded chaos scenario
/// ([`crate::shardplan::ShardPlanConfig::smoke`]) under the swarm seed,
/// executed at one and at two worker shards. On top of `no-panic` it
/// checks *shard conservation* (every cross-shard packet is delivered,
/// unroutable, or in flight at the end), *clock-horizon agreement*
/// (every cell's clock lands exactly on the configured end), and
/// *shard invariance* (the two shard counts produce byte-identical
/// detection logs and telemetry — the tentpole determinism contract,
/// now also exercised under perturbation).
fn run_swarm_sharded(scenario_seed: u64, swarm_seed: u64) -> SwarmReport {
    let mut violations = Vec::new();
    let run = catch_unwind(AssertUnwindSafe(move || {
        let mut config = crate::shardplan::ShardPlanConfig::smoke(scenario_seed);
        config.buggify = BuggifyConfig::swarm(swarm_seed);
        config.shards = 1;
        let one = crate::shardplan::run_sharded_chaos(&config);
        config.shards = 2;
        let two = crate::shardplan::run_sharded_chaos(&config);
        (one, two, config.duration)
    }));

    let (windows, fires, fingerprint) = match run {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            violations.push(SwarmViolation { invariant: "no-panic", detail: msg });
            (0, 0, 0)
        }
        Ok((one, two, duration)) => {
            for (label, report) in [("1-shard", &one), ("2-shard", &two)] {
                if let Some(detail) = report.stats.conservation_violation() {
                    violations.push(SwarmViolation {
                        invariant: "shard-conservation",
                        detail: format!("{label}: {detail}"),
                    });
                }
                if let Some(detail) = report.stats.clock_violation(SimTime::ZERO + duration) {
                    violations.push(SwarmViolation {
                        invariant: "clock-horizon",
                        detail: format!("{label}: {detail}"),
                    });
                }
            }
            if one.output() != two.output() {
                violations.push(SwarmViolation {
                    invariant: "shard-invariance",
                    detail: format!(
                        "1-shard and 2-shard artifacts differ ({} vs {} bytes)",
                        one.output().len(),
                        two.output().len()
                    ),
                });
            }
            let fires = one.stats.cell_buggify_fires + one.stats.boundary_delay_fires;
            let mut fp = fnv1a(one.log.as_bytes());
            fp ^= fnv1a(one.telemetry.as_bytes()).rotate_left(17);
            (one.log.lines().count(), fires, fp)
        }
    };

    SwarmReport {
        case: SwarmCase::Sharded,
        scenario_seed,
        swarm_seed,
        violations,
        windows,
        degraded: 0,
        buggify_fires: fires,
        fingerprint,
    }
}

/// Runs a swarm seed twice and reports a `determinism` violation if the
/// two runs' fingerprints differ. Used by the runner on a sample of
/// seeds — the double run costs a full extra execution.
pub fn check_determinism(
    case: SwarmCase,
    scenario_seed: u64,
    swarm_seed: u64,
    scale: &ExperimentScale,
    models: &SwarmModels,
) -> Option<SwarmViolation> {
    let a = run_swarm_case(case, scenario_seed, swarm_seed, scale, models);
    let b = run_swarm_case(case, scenario_seed, swarm_seed, scale, models);
    if a.fingerprint != b.fingerprint {
        return Some(SwarmViolation {
            invariant: "determinism",
            detail: format!(
                "same swarm seed {} produced fingerprints {:#018x} and {:#018x}",
                swarm_seed, a.fingerprint, b.fingerprint
            ),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale::swarm()
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
        assert_eq!(check_determinism(SwarmCase::Sharded, 11, 5, &scale, &models), None);
    }

    #[test]
    fn same_swarm_seed_reports_identical_fingerprints() {
        let scale = tiny_scale();
        let models = swarm_models(11, &scale);
        assert_eq!(check_determinism(SwarmCase::Chaos, 11, 2, &scale, &models), None);
        let a = run_swarm_case(SwarmCase::Chaos, 11, 3, &scale, &models);
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
        assert_eq!(check_determinism(SwarmCase::Serving, 11, 5, &scale, &models), None);
    }
}
