//! Canned experiment runners: one function per table/figure of the paper
//! (the per-experiment index lives in DESIGN.md §4).
//!
//! The paper's runs are 10 minutes of capture + 5 minutes of live
//! detection on a physical laptop; ours are virtual-time runs whose
//! durations scale via [`ExperimentScale`]. Crucially, the live run is a
//! *fresh deployment with a different seed and shifted traffic
//! intensities* — like the paper's separate detection run — which is the
//! distribution shift that exposes the RF's brittleness on
//! window-statistical features (Table I).
//!
//! Every runner that trains or deploys an IDS, the testbed swarm cases
//! and the `training_metrics` binary take one capture → train → live
//! path, built from four shared pieces: [`run_training_capture`],
//! [`train_ids`] (with [`kmeans_profile`] for the single-model runs),
//! [`deploy_to_live`], and for the serving runs [`run_serving_plan`].

use capture::dataset::{ClassCounts, Dataset};
use ids::pipeline::{IdsConfig, ModelKind, TrainedIds, TrainingOutcome};
use ids::realtime::DetectionLog;
use ids::resources::SustainabilityReport;
use ids::serving::{BackpressurePolicy, RetrainPolicy, ServingConfig, TenantConfig};
use ml::cnn::CnnConfig;
use ml::kmeans::KMeansConfig;
use ml::metrics::MetricsReport;
use ml::rf::{ForestConfig, TreeConfig};
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::scenario::{
    rotation, CpuPressureSpec, FaultPlanConfig, JitterSpec, LifecycleTarget, LinkFlapSpec,
    LossRampSpec, RebootSpec, ScenarioConfig, ThrottleSpec,
};
use crate::testbed::{LiveReport, ServingRunReport, ServingTenantTarget, Testbed};

/// How long the capture and detection phases run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Capture (training) phase length in virtual seconds.
    pub capture_secs: u64,
    /// Live detection phase length in virtual seconds.
    pub live_secs: u64,
    /// Cap on training samples after feature extraction.
    pub max_train_samples: usize,
    /// CNN training epochs.
    pub cnn_epochs: usize,
}

impl ExperimentScale {
    /// Fast profile for tests (seconds of wall-clock).
    pub fn quick() -> Self {
        ExperimentScale { capture_secs: 90, live_secs: 70, max_train_samples: 4_000, cnn_epochs: 4 }
    }

    /// The swarm-testing profile: the shortest run that still trains a
    /// two-class model and pushes a handful of windows through the live
    /// IDS. A thousand-seed swarm must finish locally in minutes.
    pub fn swarm() -> Self {
        ExperimentScale { capture_secs: 30, live_secs: 30, max_train_samples: 1_500, cnn_epochs: 1 }
    }

    /// The default benchmarking profile.
    pub fn standard() -> Self {
        ExperimentScale { capture_secs: 140, live_secs: 70, max_train_samples: 12_000, cnn_epochs: 6 }
    }

    /// Durations matching the paper's 10 min + 5 min runs.
    pub fn paper() -> Self {
        ExperimentScale {
            capture_secs: 600,
            live_secs: 300,
            max_train_samples: 40_000,
            cnn_epochs: 8,
        }
    }

    /// Where the live phase starts, in virtual seconds after the
    /// infection lead: the training epoch plus a 5 s gap. The detection
    /// run follows the training run on the continuing clock (as in the
    /// paper's back-to-back runs), so live timestamps exceed trained ones.
    pub fn epoch_offset_secs(&self) -> u64 {
        self.capture_secs + 5
    }

    /// The IDS configuration every experiment trains with: the defaults,
    /// capped at this scale's training samples.
    pub fn ids_config(&self) -> IdsConfig {
        IdsConfig { max_train_samples: self.max_train_samples, ..IdsConfig::default() }
    }
}

/// The training-run scenario.
pub fn training_scenario(seed: u64, capture_secs: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_default(seed);
    config.attacks = attack_plan(capture_secs, 8, 140, 12, 25);
    config
}

/// The detection-run scenario: same topology, different seed, shifted
/// intensities — the out-of-training-distribution conditions of a
/// separate live run. The benign side is much busier (every device runs
/// the full three-protocol client mix with shorter think times) while
/// the floods are *slower-and-longer* per bot, so live window volumes
/// land in the gap between the two training clusters. Basic per-packet
/// features keep their meaning, but decision trees cannot extrapolate
/// into that unseen interior and the RF's axis-aligned thresholds flip
/// whole windows — the mechanism behind Table I's RF collapse — whereas
/// centroid distances (K-Means) and a smooth learned decision function
/// (CNN) degrade gracefully.
pub fn detection_scenario(seed: u64, live_secs: u64, epoch_offset_secs: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_default(seed ^ 0x5eed_0fde_7ec7);
    // The live run happens *after* the training run on the same
    // continuing clock (the paper's separate 5-minute detection run):
    // its attacks start `epoch_offset_secs` in, once the training
    // epoch has elapsed, and are phase-shifted relative to training.
    config.attacks = attack_plan(live_secs, epoch_offset_secs + 16, 34, 16, 24);
    config.clients_per_device = 3;
    config.workload.http_think_mean *= 0.25;
    config.workload.ftp_think_mean *= 0.5;
    config.workload.video_think_mean *= 0.5;
    config
}

/// Evenly spaced SYN/ACK/UDP rotation over the
/// `[first_start, first_start + run_secs]` span, leaving a quiet tail.
fn attack_plan(
    run_secs: u64,
    first_start: u64,
    pps: u32,
    duration: u32,
    spacing: u64,
) -> Vec<crate::scenario::AttackPhase> {
    let end = first_start + run_secs;
    let mut starts = Vec::new();
    let mut t = first_start;
    while t + duration as u64 + 8 < end {
        starts.push(t);
        t += spacing;
    }
    if starts.is_empty() {
        starts.push(end.saturating_sub(duration as u64 + 3).max(1));
    }
    rotation(&starts, duration, pps)
}

/// The three model profiles evaluated in Tables I and II, mirroring the
/// paper's toolchain defaults (scikit-learn's unbounded-depth forests, a
/// compact TensorFlow CNN, U-K-Means).
pub fn paper_models(scale: &ExperimentScale) -> Vec<ModelKind> {
    vec![
        ModelKind::RandomForest(ForestConfig {
            n_trees: 60,
            tree: TreeConfig {
                max_depth: 22,
                min_samples_split: 2,
                max_features: None,
                threshold_candidates: 24,
            },
            bootstrap: true,
        }),
        kmeans_profile(),
        ModelKind::Cnn(CnnConfig { epochs: scale.cnn_epochs, ..CnnConfig::default() }),
    ]
}

/// The paper's K-Means profile (U-K-Means over up to 24 clusters): the
/// Table I model, and the IDS of every single-model live run.
pub fn kmeans_profile() -> ModelKind {
    ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() })
}

/// Trains `kind` on `capture` as every experiment does: with
/// [`ExperimentScale::ids_config`], from the `seed ^ 0x7ea1` stream.
pub fn train_ids(
    capture: &Dataset,
    kind: &ModelKind,
    seed: u64,
    scale: &ExperimentScale,
) -> TrainingOutcome {
    train_from(capture, kind, scale.ids_config(), seed ^ 0x7ea1)
}

/// Trains from the RNG stream `stream`. Experiment captures always hold
/// both classes, so a training error is a bug.
fn train_from(
    capture: &Dataset,
    kind: &ModelKind,
    config: IdsConfig,
    stream: u64,
) -> TrainingOutcome {
    TrainedIds::train(capture, kind, config, &mut SimRng::seed_from(stream))
        .expect("training capture contains both classes")
}

/// Deploys `scenario` and runs it up to its live phase: the infection
/// lead, then [`ExperimentScale::epoch_offset_secs`] of traffic whose
/// capture is discarded. Build `scenario` with the same offset, so its
/// attacks land in the live phase.
pub fn deploy_to_live(scenario: ScenarioConfig, scale: &ExperimentScale) -> Testbed {
    let mut live = Testbed::deploy(scenario);
    live.run_infection_lead();
    let _ = live.run_capture(SimDuration::from_secs(scale.epoch_offset_secs()));
    live
}

/// The two-tenant serving plan of E13 and the serving swarm case, run as
/// the live phase of `live` (brought up by [`deploy_to_live`]). The
/// champion serves two tenants, the TServer link on a drop-oldest
/// bounded queue and one device link on sampled degradation; the
/// challenger is promoted mid-run; `retrain` optionally stages
/// background retrains. Armed
/// buggify in the testbed's scenario also arms the serving layer's
/// decision points, through a fork of the testbed world's layer.
pub fn run_serving_plan(
    live: &mut Testbed,
    scale: &ExperimentScale,
    champion: TrainedIds,
    challenger: TrainedIds,
    retrain: Option<RetrainPolicy>,
) -> ServingRunReport {
    let mut config = ServingConfig::new(champion);
    config.challenger = Some(challenger);
    config.promote_challenger_at_tick = Some(scale.live_secs / 2);
    config.promote_delay_ticks = 2;
    config.retrain = retrain;
    config.buggify = live.runtime().world().buggify_fork();
    let mut tserver = TenantConfig::new("tserver");
    tserver.queue_capacity = 512;
    tserver.policy = BackpressurePolicy::DropOldest;
    tserver.budget.drain_records_per_tick = 256;
    let mut dev0 = TenantConfig::new("dev0");
    dev0.queue_capacity = 256;
    dev0.policy = BackpressurePolicy::DegradeSampled { keep: 2 };
    dev0.budget.drain_records_per_tick = 128;
    let tenants =
        vec![(tserver, ServingTenantTarget::TServer), (dev0, ServingTenantTarget::Device(0))];
    live.run_live_serving(SimDuration::from_secs(scale.live_secs), config, tenants)
}

/// Everything one full evaluation produces: Table I, Table II, the
/// dataset statistics (§IV-D) and the per-second accuracy series.
#[derive(Debug)]
pub struct FullReport {
    /// Composition of the training capture (E3).
    pub dataset: ClassCounts,
    /// Duration of the training capture in virtual seconds.
    pub capture_secs: f64,
    /// Per-model results.
    pub models: Vec<ModelReport>,
}

/// One model's end-to-end results.
#[derive(Debug)]
pub struct ModelReport {
    /// Model display name ("RF", "K-Means", "CNN").
    pub name: &'static str,
    /// Train-time holdout metrics (E5: §IV-D "training metrics").
    pub train_metrics: MetricsReport,
    /// Samples used for fitting.
    pub train_samples: usize,
    /// Real-time per-window log (E1 / E4).
    pub log: DetectionLog,
    /// Sustainability row (E2 / Table II).
    pub sustainability: SustainabilityReport,
}

impl ModelReport {
    /// The Table I cell: average real-time accuracy in percent.
    pub fn accuracy_percent(&self) -> f64 {
        self.log.mean_accuracy() * 100.0
    }
}

/// Runs the complete evaluation: one training capture, three model
/// trainings, and one (identical, same-seed) live deployment per model.
pub fn run_full_evaluation(seed: u64, scale: &ExperimentScale) -> FullReport {
    evaluate_models(seed, scale, paper_models(scale))
}

/// E8 (§V extension): evaluates the paper's *planned* additional models
/// — SVM, Isolation Forest and an autoencoder — in the identical
/// capture-train-live pipeline as Table I, alongside the original three.
pub fn run_extended_evaluation(seed: u64, scale: &ExperimentScale) -> FullReport {
    let mut kinds = paper_models(scale);
    kinds.push(ModelKind::Svm(Default::default()));
    kinds.push(ModelKind::IsolationForest(Default::default()));
    kinds.push(ModelKind::Autoencoder(Default::default()));
    evaluate_models(seed, scale, kinds)
}

/// The body of E1 and E8: one training capture, then per model a
/// training and a fresh live deployment. The same detection seed for
/// every model makes the live packet streams identical across models.
fn evaluate_models(seed: u64, scale: &ExperimentScale, kinds: Vec<ModelKind>) -> FullReport {
    let capture = run_training_capture(seed, scale);
    let models = kinds
        .iter()
        .map(|kind| {
            let outcome = train_ids(&capture, kind, seed, scale);
            let mut live = deploy_to_live(
                detection_scenario(seed, scale.live_secs, scale.epoch_offset_secs()),
                scale,
            );
            let report = live.run_live(SimDuration::from_secs(scale.live_secs), outcome.ids);
            ModelReport {
                name: kind.name(),
                train_metrics: outcome.holdout_metrics,
                train_samples: outcome.train_samples,
                log: report.log,
                sustainability: report.sustainability,
            }
        })
        .collect();
    FullReport { dataset: capture.class_counts(), capture_secs: capture.duration_secs(), models }
}

/// The outcome of the federated-learning experiment (E9).
#[derive(Debug)]
pub struct FederatedReport {
    /// Coordinator-holdout accuracy after each FedAvg round.
    pub round_accuracy: Vec<f64>,
    /// Live real-time accuracy of the federated global model (%).
    pub federated_live_percent: f64,
    /// Live real-time accuracy of the centrally trained CNN (%).
    pub centralized_live_percent: f64,
    /// Number of participating clients.
    pub clients: usize,
}

/// E9 (§VI future work): emulates the FL-based NIDS the paper plans —
/// several monitoring sites capture their own traffic (separate testbed
/// deployments with different seeds), train the shared CNN locally, and
/// only exchange parameters (FedAvg). The federated global model is then
/// pitted against a centrally trained CNN on the same live run.
pub fn run_federated_experiment(
    seed: u64,
    scale: &ExperimentScale,
    clients: usize,
) -> FederatedReport {
    use ids::federated::{train_federated, FederatedConfig};

    // Each client is an independent site: same topology (so addresses
    // transfer), different seed.
    let shards: Vec<Dataset> = (0..clients)
        .map(|i| run_training_capture(seed.wrapping_add(i as u64 * 101), scale))
        .collect();
    let holdout = run_training_capture(seed.wrapping_add(7_777), scale);

    let mut rng = SimRng::seed_from(seed ^ 0xfed);
    let fed_config = FederatedConfig {
        rounds: 5,
        local_epochs: scale.cnn_epochs.max(2) / 2 + 1,
        cnn: CnnConfig { ..CnnConfig::default() },
        window_secs: 1,
    };
    let outcome =
        train_federated(&shards, &holdout, &fed_config, &mut rng).expect("clients have both classes");
    let round_accuracy: Vec<f64> = outcome.round_metrics.iter().map(|m| m.accuracy).collect();

    let federated_ids =
        TrainedIds::from_parts(Box::new(outcome.global), outcome.scaler, scale.ids_config());

    // Centralised baseline: the ordinary pipeline on the first shard.
    let cnn = ModelKind::Cnn(CnnConfig { epochs: scale.cnn_epochs, ..CnnConfig::default() });
    let central = train_ids(&shards[0], &cnn, seed, scale);

    let live_accuracy = |ids: TrainedIds| {
        let mut live = deploy_to_live(
            detection_scenario(seed, scale.live_secs, scale.epoch_offset_secs()),
            scale,
        );
        let report = live.run_live(SimDuration::from_secs(scale.live_secs), ids);
        report.log.mean_accuracy() * 100.0
    };

    FederatedReport {
        round_accuracy,
        federated_live_percent: live_accuracy(federated_ids),
        centralized_live_percent: live_accuracy(central.ids),
        clients,
    }
}

/// One vector's live-detection outcome in the detectability comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VectorDetectability {
    /// The attack vector (display name).
    pub vector: String,
    /// Mean real-time accuracy (%).
    pub accuracy_percent: f64,
    /// Malicious-packet recall over the whole run (%): the fraction of
    /// the flood's packets the IDS flagged.
    pub malicious_recall_percent: f64,
}

/// E10 (extension): per-vector detectability. The IDS trains on the
/// paper's three vectors, then faces live runs that each use a single
/// vector — including the HTTP flood the paper defers because it
/// "necessitates additional application-level analysis". The expected
/// shape: SYN/ACK/UDP floods remain detectable; the HTTP flood (real
/// GET requests over real connections) is much harder for the
/// flow-statistics IDS.
pub fn run_vector_detectability(seed: u64, scale: &ExperimentScale) -> Vec<VectorDetectability> {
    use botnet::commands::AttackVector;
    let capture = run_training_capture(seed, scale);
    // One deployed IDS facing each attack in turn.
    let ids = train_ids(&capture, &kmeans_profile(), seed, scale).ids;

    AttackVector::EXTENDED
        .iter()
        .map(|&vector| {
            let mut config = detection_scenario(seed, scale.live_secs, scale.epoch_offset_secs());
            // Single-vector schedule at the same cadence.
            for phase in &mut config.attacks {
                phase.vector = vector;
                if vector == AttackVector::HttpFlood {
                    phase.pps = 120; // requests/s per bot
                }
            }
            let mut live = deploy_to_live(config, scale);
            let report = live.run_live(SimDuration::from_secs(scale.live_secs), ids.clone());
            VectorDetectability {
                vector: vector.to_string(),
                accuracy_percent: report.log.mean_accuracy() * 100.0,
                malicious_recall_percent: report
                    .log
                    .malicious_recall()
                    .map_or(f64::NAN, |r| r * 100.0),
            }
        })
        .collect()
}

/// The detection scenario under chaos: the standard live run plus a
/// full fault plan — a bridge outage mid-flood, a transient loss ramp,
/// a latency-jitter ramp, a bandwidth throttle, and a CPU-pressure
/// spike on the IDS node strong enough to drive windows into
/// `degraded`. All offsets are relative to the end of the infection
/// lead, scaled to land inside the live phase.
pub fn chaos_scenario(seed: u64, live_secs: u64, epoch_offset_secs: u64) -> ScenarioConfig {
    let mut config = detection_scenario(seed, live_secs, epoch_offset_secs);
    let live_start = epoch_offset_secs; // live phase begins after the epoch gap
    let at = |frac: f64| SimDuration::from_secs_f64(live_start as f64 + live_secs as f64 * frac);
    config.faults = FaultPlanConfig {
        flaps: vec![LinkFlapSpec { start: at(0.20), down_for: SimDuration::from_secs(2) }],
        random_flap: None,
        loss_ramps: vec![LossRampSpec {
            start: at(0.40),
            duration: SimDuration::from_secs(6),
            peak: 0.25,
            steps: 6,
        }],
        jitter: vec![JitterSpec {
            start: at(0.55),
            duration: SimDuration::from_secs(6),
            peak: SimDuration::from_millis(40),
            steps: 6,
        }],
        throttles: vec![ThrottleSpec {
            start: at(0.70),
            duration: SimDuration::from_secs(5),
            factor: 0.25,
        }],
        ids_pressure: vec![CpuPressureSpec {
            start: at(0.30),
            duration: SimDuration::from_secs(10),
            factor: 5_000.0,
        }],
        crashes: Vec::new(),
        reboots: Vec::new(),
    };
    config
}

/// The detection scenario under container-lifecycle faults: a device
/// reboots mid-run (losing its memory-resident bot, as a Mirai
/// infection would), and later the TServer itself reboots, failing
/// benign transactions until it returns. Offsets are relative to the
/// end of the infection lead, scaled to land inside the live phase
/// with enough tail for the C2 to evict the silent bot (heartbeat
/// timeout, ~25 s) and re-scan the rebooted device.
pub fn lifecycle_scenario(seed: u64, live_secs: u64, epoch_offset_secs: u64) -> ScenarioConfig {
    let mut config = detection_scenario(seed, live_secs, epoch_offset_secs);
    let live_start = epoch_offset_secs;
    let at = |frac: f64| SimDuration::from_secs_f64(live_start as f64 + live_secs as f64 * frac);
    config.faults.reboots = vec![
        RebootSpec {
            target: LifecycleTarget::Device(0),
            start: at(0.25),
            down_for: SimDuration::from_secs(3),
        },
        RebootSpec {
            target: LifecycleTarget::TServer,
            start: at(0.35),
            down_for: SimDuration::from_secs(4),
        },
    ];
    config
}

/// The outcome of a single-model live run under chaos (E11), container
/// lifecycle faults (E12) or neither (the baseline): the detection log,
/// robustness accounting (downtime, benign success rate,
/// eviction/reinfection) and bridge counters. A pure function of the
/// seed: repeated runs are byte-identical.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The live phase's detection log, sustainability and robustness.
    pub live: LiveReport,
    /// Bridge counters after the run — fault drops are visible as
    /// `drops_link_down` and the loss ramp as `drops_lost`.
    pub bridge_stats: netsim::link::LinkStats,
    /// The exact scenario that ran (fault plan included).
    pub scenario: ScenarioConfig,
}

/// E11: the detection pipeline under injected faults. Trains on a clean
/// capture, then deploys the live run with the [`chaos_scenario`] fault
/// plan. The whole run is a pure function of `seed`: repeated
/// invocations produce byte-identical detection logs
/// ([`ids::realtime::DetectionLog::serialize_compact`]) and link counters.
pub fn run_chaos_detection(seed: u64, scale: &ExperimentScale) -> ChaosOutcome {
    run_kmeans_live(seed, scale, chaos_scenario)
}

/// E12: the detection pipeline while containers crash and reboot.
/// Trains the K-Means IDS on a clean capture, then deploys the live
/// run with the [`lifecycle_scenario`] reboot plan. The robustness
/// report shows the benign success-rate dip during the TServer outage
/// and the eviction → reinfection cycle after the device reboot.
pub fn run_lifecycle_detection(seed: u64, scale: &ExperimentScale) -> ChaosOutcome {
    run_kmeans_live(seed, scale, lifecycle_scenario)
}

/// The fault-free twin of [`run_chaos_detection`]: identical training,
/// identical scenario, empty fault plan. Pairing the two isolates the
/// effect of the injected chaos on the same traffic.
pub fn run_baseline_detection(seed: u64, scale: &ExperimentScale) -> ChaosOutcome {
    run_kmeans_live(seed, scale, detection_scenario)
}

/// The body of E11, E12 and the baseline: the K-Means IDS trained on
/// the training capture, live on the scenario `build` makes.
fn run_kmeans_live(
    seed: u64,
    scale: &ExperimentScale,
    build: fn(u64, u64, u64) -> ScenarioConfig,
) -> ChaosOutcome {
    let capture = run_training_capture(seed, scale);
    let ids = train_ids(&capture, &kmeans_profile(), seed, scale).ids;
    let mut live = deploy_to_live(build(seed, scale.live_secs, scale.epoch_offset_secs()), scale);
    let report = live.run_live(SimDuration::from_secs(scale.live_secs), ids);
    let (bridge_stats, scenario) = (live.bridge_stats(), live.config().clone());
    ChaosOutcome { live: report, bridge_stats, scenario }
}

/// Champion and challenger for a serving run, trained deterministically
/// from one capture: the champion is the standard K-Means IDS, the
/// challenger a coarser (cheaper) K-Means fitted from an independent
/// RNG stream.
pub fn train_serving_models(
    capture: &Dataset,
    scale: &ExperimentScale,
    seed: u64,
) -> (TrainedIds, TrainedIds) {
    let champion = train_ids(capture, &kmeans_profile(), seed, scale);
    let coarse = ModelKind::KMeans(KMeansConfig { k_max: 8, ..KMeansConfig::default() });
    let challenger = train_from(capture, &coarse, scale.ids_config(), seed ^ 0xc4a1);
    (champion.ids, challenger.ids)
}

/// The outcome of a serving-layer run (E13).
#[derive(Debug)]
pub struct ServingOutcome {
    /// Per-tenant logs, accounting, swap history and telemetry.
    pub report: ServingRunReport,
    /// Bridge counters after the run.
    pub bridge_stats: netsim::link::LinkStats,
    /// The exact scenario that ran.
    pub scenario: ScenarioConfig,
}

/// E13: the long-lived serving layer under the full chaos plan (CPU
/// pressure spike + link flap + loss/jitter/throttle ramps). Trains a
/// champion and a cheaper challenger, deploys a two-tenant
/// [`ids::serving::IdsService`] — the TServer link on a drop-oldest
/// bounded queue, one device link on sampled degradation — promotes the
/// challenger mid-run (a boundary hot-swap that bumps the generation in
/// the `DetectionLog`), and retrains in the background from the replay
/// buffer. Budgets are sized so the flood phases actually overflow the
/// queues: the run exercises every shed/degrade path while conservation
/// (`ingested == classified + degraded + shed`) holds exactly.
///
/// A pure function of `seed`: repeated runs (and runs under different
/// `ml::par` thread counts) are byte-identical.
pub fn run_serving_detection(seed: u64, scale: &ExperimentScale) -> ServingOutcome {
    let capture = run_training_capture(seed, scale);
    let (champion, challenger) = train_serving_models(&capture, scale, seed);
    let mut live =
        deploy_to_live(chaos_scenario(seed, scale.live_secs, scale.epoch_offset_secs()), scale);
    let retrain = RetrainPolicy {
        every_windows: (scale.live_secs / 4).max(4),
        delay_windows: 2,
        kind: ModelKind::KMeans(KMeansConfig { k_max: 8, ..KMeansConfig::default() }),
        replay_capacity: scale.max_train_samples.min(4_000),
        rng_salt: seed ^ 0x5e47e,
    };
    let report = run_serving_plan(&mut live, scale, champion, challenger, Some(retrain));
    ServingOutcome { report, bridge_stats: live.bridge_stats(), scenario: live.config().clone() }
}

/// Runs just the training capture (E3's dataset statistics).
pub fn run_training_capture(seed: u64, scale: &ExperimentScale) -> Dataset {
    let mut testbed = Testbed::deploy(training_scenario(seed, scale.capture_secs));
    testbed.run_infection_lead();
    testbed.run_capture(SimDuration::from_secs(scale.capture_secs))
}

/// One churn/duration grid point of the attack-impact experiment (E6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackImpactPoint {
    /// Churn rate (departures per device per minute).
    pub churn_per_min: f64,
    /// Attack duration in seconds.
    pub attack_secs: u32,
    /// Bots connected to the C2 at the end of the run.
    pub connected_bots: u64,
    /// Flood packets that reached the victim's NIC.
    pub victim_recv_packets: u64,
    /// SYNs the victim's HTTP backlog had to drop.
    pub victim_syn_drops: u64,
    /// Benign HTTP transactions completed during the run.
    pub benign_completed: u64,
    /// Benign HTTP transactions that failed during the run.
    pub benign_failed: u64,
}

/// E6: how churn and attack duration shape attack impact on the TServer
/// (the scenario axes DDoSim/the paper call out in §III-A).
pub fn run_attack_impact(seed: u64, churn_rates: &[f64], attack_secs: &[u32]) -> Vec<AttackImpactPoint> {
    let mut out = Vec::new();
    for &churn in churn_rates {
        for &duration in attack_secs {
            let mut config = ScenarioConfig::paper_default(seed);
            config.churn_rate_per_min = churn;
            config.attacks = rotation(&[10], duration, 400);
            let run_secs = 10 + duration as u64 + 10;
            let mut testbed = Testbed::deploy(config);
            testbed.run_infection_lead();
            let before_recv =
                testbed.runtime().world().node_stats(testbed.runtime().node(testbed.tserver())).recv_packets;
            let _ = testbed.run_capture(SimDuration::from_secs(run_secs));
            let stats =
                testbed.runtime().world().node_stats(testbed.runtime().node(testbed.tserver()));
            let (_, syn_drops) = testbed.tserver_backlog_pressure();
            let http = testbed.client_stats().http.snapshot();
            out.push(AttackImpactPoint {
                churn_per_min: churn,
                attack_secs: duration,
                connected_bots: testbed.botnet_stats().snapshot().connected_bots,
                victim_recv_packets: stats.recv_packets - before_recv,
                victim_syn_drops: syn_drops,
                benign_completed: http.completed,
                benign_failed: http.failed,
            });
        }
    }
    out
}

/// One point of the statistical-feature-period ablation (E7: §IV-E's
/// CPU mitigation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowAblationPoint {
    /// Statistical-feature recomputation period, in 1-second windows.
    pub stats_period: u64,
    /// Mean IDS CPU utilisation (%).
    pub cpu_percent: f64,
    /// Mean real-time accuracy (%).
    pub accuracy_percent: f64,
    /// Distinct flows folded at window closes over the run
    /// (`features.incremental.flows_touched`) — the deterministic
    /// measure of statistical-feature work: downgraded windows track
    /// handshakes only and fold nothing, so a longer period folds
    /// strictly fewer flows.
    pub flows_folded: u64,
}

/// E7: "extending the period for computing these features" reduces CPU
/// use (at some accuracy cost from staler statistics) — the mitigation
/// §IV-E proposes. Detection windows stay at 1 s; the statistical
/// features are recomputed only every `stats_period`-th window.
pub fn run_window_ablation(seed: u64, scale: &ExperimentScale, periods: &[u64]) -> Vec<WindowAblationPoint> {
    let capture = run_training_capture(seed, scale);
    periods
        .iter()
        .map(|&stats_period| {
            let config =
                IdsConfig { stats_refresh: stats_period.max(1) as usize, ..scale.ids_config() };
            let ids = train_from(&capture, &kmeans_profile(), config, seed ^ 0xab1a).ids;
            let mut live = deploy_to_live(
                detection_scenario(seed, scale.live_secs, scale.epoch_offset_secs()),
                scale,
            );
            let report = live.run_live(SimDuration::from_secs(scale.live_secs), ids);
            WindowAblationPoint {
                stats_period,
                cpu_percent: report.sustainability.cpu_percent,
                accuracy_percent: report.log.mean_accuracy() * 100.0,
                flows_folded: report
                    .telemetry
                    .counter("features.incremental.flows_touched")
                    .unwrap_or(0),
            }
        })
        .collect()
}
