//! Integration tests of the IDS pipeline against real testbed captures:
//! training, persistence (the PKL analogue), window ablation and the
//! live Real-Time IDS Unit running inside the IDS container.

use ddoshield::experiments::{
    paper_models, run_window_ablation, training_scenario, ExperimentScale,
};
use ddoshield::Testbed;
use features::extract::extract_matrix;
use ids::pipeline::{IdsConfig, ModelKind, TrainedIds};
use ml::autoencoder::Autoencoder;
use ml::classifier::Classifier;
use ml::cnn::Cnn;
use ml::codec::DecodeError;
use ml::iforest::IsolationForest;
use ml::kmeans::{KMeansConfig, KMeansDetector};
use ml::matrix::FeatureMatrix;
use ml::rf::RandomForest;
use ml::svm::LinearSvm;
use netsim::rng::SimRng;
use netsim::time::SimDuration;

fn small_capture(seed: u64) -> capture::Dataset {
    let mut testbed = Testbed::deploy(training_scenario(seed, 40));
    testbed.run_infection_lead();
    testbed.run_capture(SimDuration::from_secs(40))
}

/// Decodes a blob with the decoder of the model `kind` names.
fn decode(kind: &ModelKind, blob: &[u8]) -> Result<Box<dyn Classifier>, DecodeError> {
    Ok(match kind {
        ModelKind::RandomForest(_) => Box::new(RandomForest::decode(blob)?),
        ModelKind::KMeans(_) => Box::new(KMeansDetector::decode(blob)?),
        ModelKind::Cnn(_) => Box::new(Cnn::decode(blob)?),
        ModelKind::Svm(_) => Box::new(LinearSvm::decode(blob)?),
        ModelKind::IsolationForest(_) => Box::new(IsolationForest::decode(blob)?),
        ModelKind::Autoencoder(_) => Box::new(Autoencoder::decode(blob)?),
    })
}

/// Models persisted to bytes (the paper's PKL files) reload and keep
/// their predictions, end to end on real capture features, for all six
/// model kinds of E8.
#[test]
fn model_persistence_roundtrips_on_real_features() {
    let capture = small_capture(21);
    let config = IdsConfig { max_train_samples: 2_000, ..IdsConfig::default() };
    let scale = ExperimentScale {
        capture_secs: 40,
        live_secs: 40,
        max_train_samples: 2_000,
        cnn_epochs: 2,
    };
    let mut kinds = paper_models(&scale);
    kinds.push(ModelKind::Svm(Default::default()));
    kinds.push(ModelKind::IsolationForest(Default::default()));
    kinds.push(ModelKind::Autoencoder(Default::default()));
    let (x, _) = extract_matrix(&capture, 1);
    let mut sample = FeatureMatrix::new(x.n_cols());
    for row in x.rows().take(500) {
        sample.push_row(row);
    }
    assert_eq!(sample.n_rows(), 500);
    for kind in &kinds {
        let mut rng = SimRng::seed_from(1);
        let ids = TrainedIds::train(&capture, kind, config, &mut rng).expect("training works").ids;
        let restored = decode(kind, &ids.model().encode()).expect("decodes");
        assert_eq!(restored.input_dims(), ids.model().input_dims(), "{}", kind.name());
        let mut scaled = sample.clone();
        ids.scaler().transform_matrix(&mut scaled);
        for row in scaled.rows() {
            assert_eq!(ids.model().predict(row), restored.predict(row), "{}", kind.name());
        }
    }
}

/// E7's shape: recomputing statistical features less often costs less
/// CPU in the live IDS.
#[test]
fn window_ablation_reduces_cpu() {
    let scale = ExperimentScale {
        capture_secs: 40,
        live_secs: 40,
        max_train_samples: 2_000,
        cnn_epochs: 2,
    };
    let points = run_window_ablation(31, &scale, &[1, 10]);
    assert_eq!(points.len(), 2);
    let w1 = &points[0];
    let w10 = &points[1];
    assert!(w1.cpu_percent > 0.0, "CPU work is measured: {}", w1.cpu_percent);
    assert!(w10.cpu_percent > 0.0, "CPU work is measured: {}", w10.cpu_percent);
    // The cost claim is asserted on the deterministic fold-work counter,
    // not wall-clock CPU: the incremental extractor makes a window close
    // cost O(flows touched), so the refresh-period saving is exactly the
    // flows the downgraded windows never fold — measurable bit-for-bit,
    // while the wall-clock delta sits inside host noise.
    assert!(w1.flows_folded > 0, "per-second stats fold flows: {}", w1.flows_folded);
    assert!(
        w10.flows_folded < w1.flows_folded,
        "period-10 stats ({} flows folded) should cost less than per-second stats ({})",
        w10.flows_folded,
        w1.flows_folded
    );
    // Detection still works at both window lengths.
    assert!(w1.accuracy_percent > 70.0, "period-1 accuracy {}", w1.accuracy_percent);
    assert!(w10.accuracy_percent > 60.0, "period-10 accuracy {}", w10.accuracy_percent);
}

/// The live IDS unit (hosted app in the IDS container) logs one window
/// per second of virtual time.
#[test]
fn realtime_ids_logs_every_second() {
    let capture = small_capture(41);
    let config = IdsConfig { max_train_samples: 2_000, ..IdsConfig::default() };
    let mut rng = SimRng::seed_from(2);
    let outcome =
        TrainedIds::train(&capture, &ModelKind::KMeans(KMeansConfig::default()), config, &mut rng)
            .expect("training works");

    let mut live = Testbed::deploy(training_scenario(77, 30));
    live.run_infection_lead();
    let report = live.run_live(SimDuration::from_secs(30), outcome.ids);
    // One window per second, minus the first (still aggregating) and any
    // trailing partial window.
    assert!(
        (25..=31).contains(&report.log.len()),
        "expected ~30 windows, got {}",
        report.log.len()
    );
    assert!(report.sustainability.cpu_percent > 0.0);
    assert!(report.sustainability.model_size_kb > 0.0);
    // Every logged window actually contains packets.
    assert!(report.log.results().iter().all(|d| d.packets > 0));
}

/// Alerts over a real live run: the m-of-n policy fires on the
/// scheduled floods, measures time-to-detect, and raises no false
/// alarms during the quiet periods.
#[test]
fn alerts_fire_on_real_attacks() {
    use ids::alerts::{summarize, AlertPolicy};

    let capture = small_capture(61);
    let config = IdsConfig { max_train_samples: 3_000, ..IdsConfig::default() };
    let mut rng = SimRng::seed_from(3);
    let outcome = TrainedIds::train(
        &capture,
        &ModelKind::KMeans(KMeansConfig { k_max: 24, ..KMeansConfig::default() }),
        config,
        &mut rng,
    )
    .expect("training works");

    // Same-distribution live run (same scenario family, later seed): the
    // alerts should catch the scheduled attacks promptly.
    let mut live = Testbed::deploy(training_scenario(61, 40));
    live.run_infection_lead();
    let report = live.run_live(SimDuration::from_secs(40), outcome.ids);
    let summary = summarize(&report.log.results(), &AlertPolicy::default());
    assert!(summary.attacks >= 1, "the schedule contains attacks: {summary:?}");
    assert_eq!(summary.detected, summary.attacks, "every attack alerted: {summary:?}");
    assert!(summary.mean_latency_windows <= 5.0, "prompt detection: {summary:?}");
    assert_eq!(summary.false_alarms, 0, "quiet periods stay quiet: {summary:?}");
}
