//! The IDS pipeline: preprocessing + model training and window
//! classification (Fig. 2 of the paper: monitor → preprocess → detect).

use capture::dataset::Dataset;
use capture::record::Label;
use features::extract::{extract_matrix, Window, TOTAL_FEATURES};
use features::scaling::{Scaler, ScalingMethod};
use ml::autoencoder::{Autoencoder, AutoencoderConfig};
use ml::classifier::{evaluate_view, Classifier, RowSpan, TrainError};
use ml::matrix::{gather, FeatureMatrix, MatrixView};
use ml::cnn::{Cnn, CnnConfig};
use ml::iforest::{IsolationForest, IsolationForestConfig};
use ml::kmeans::{KMeansConfig, KMeansDetector};
use ml::metrics::MetricsReport;
use ml::rf::{ForestConfig, RandomForest};
use ml::svm::{LinearSvm, SvmConfig};
use netsim::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Which model the IDS unit runs (the paper's user-selectable choice).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// Random Forest.
    RandomForest(ForestConfig),
    /// Unsupervised entropy-penalised K-Means with cluster labelling.
    KMeans(KMeansConfig),
    /// 1-D convolutional neural network.
    Cnn(CnnConfig),
    /// Linear SVM (§V extension model).
    Svm(SvmConfig),
    /// Isolation Forest (§V extension model).
    IsolationForest(IsolationForestConfig),
    /// Autoencoder anomaly detector (§V extension model, VAE stand-in).
    Autoencoder(AutoencoderConfig),
}

impl ModelKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::RandomForest(_) => "RF",
            ModelKind::KMeans(_) => "K-Means",
            ModelKind::Cnn(_) => "CNN",
            ModelKind::Svm(_) => "SVM",
            ModelKind::IsolationForest(_) => "IF",
            ModelKind::Autoencoder(_) => "AE",
        }
    }

    /// All three models with their default configurations, in the
    /// paper's table order.
    pub fn defaults() -> Vec<ModelKind> {
        vec![
            ModelKind::RandomForest(ForestConfig::default()),
            ModelKind::KMeans(KMeansConfig::default()),
            ModelKind::Cnn(CnnConfig::default()),
        ]
    }

    /// The paper's three models plus the §V extension models (SVM,
    /// Isolation Forest, autoencoder), all with default configurations.
    pub fn extended() -> Vec<ModelKind> {
        let mut kinds = ModelKind::defaults();
        kinds.push(ModelKind::Svm(SvmConfig::default()));
        kinds.push(ModelKind::IsolationForest(IsolationForestConfig::default()));
        kinds.push(ModelKind::Autoencoder(AutoencoderConfig::default()));
        kinds
    }
}

/// Preprocessing and training options of the IDS unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdsConfig {
    /// Feature-window length in seconds (1 s in the paper).
    pub window_secs: u64,
    /// Feature scaling method.
    pub scaling: ScalingMethod,
    /// Cap on training samples (stratified subsample above this; keeps
    /// CNN training tractable on multi-hundred-thousand-packet captures).
    pub max_train_samples: usize,
    /// Fraction of the training capture held out for train-time metrics.
    pub holdout_fraction: f64,
    /// Recompute statistical features only every N-th window at
    /// detection time (the paper's §IV-E CPU mitigation; 1 = always).
    pub stats_refresh: usize,
}

impl Default for IdsConfig {
    fn default() -> Self {
        IdsConfig {
            window_secs: 1,
            scaling: ScalingMethod::MinMax,
            max_train_samples: 20_000,
            holdout_fraction: 0.2,
            stats_refresh: 1,
        }
    }
}

/// A trained IDS: scaler + model, ready for real-time detection.
#[derive(Clone)]
pub struct TrainedIds {
    model: Box<dyn Classifier>,
    scaler: Scaler,
    config: IdsConfig,
}

impl std::fmt::Debug for TrainedIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedIds")
            .field("model", &self.model.name())
            .field("config", &self.config)
            .finish()
    }
}

/// The outcome of training: the IDS plus its train-time metric row.
#[derive(Debug)]
pub struct TrainingOutcome {
    /// The deployable IDS.
    pub ids: TrainedIds,
    /// Metrics on the held-out part of the training capture (the
    /// paper's accuracy / precision / recall / F1 row).
    pub holdout_metrics: MetricsReport,
    /// Samples actually used for fitting (after subsampling).
    pub train_samples: usize,
}

impl TrainedIds {
    /// Assembles an IDS from an externally trained model and scaler
    /// (e.g. a federated global model, or a model loaded from its
    /// persisted blob).
    pub fn from_parts(model: Box<dyn Classifier>, scaler: Scaler, config: IdsConfig) -> Self {
        TrainedIds { model, scaler, config }
    }

    /// Trains an IDS of the given kind on a labelled capture.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] if the capture is unusable (empty or
    /// single-class).
    pub fn train(
        dataset: &Dataset,
        kind: &ModelKind,
        config: IdsConfig,
        rng: &mut SimRng,
    ) -> Result<TrainingOutcome, TrainError> {
        let (mut x, y) = extract_matrix(dataset, config.window_secs);
        if x.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        let scaler = Scaler::fit_transform_matrix(config.scaling, &mut x);

        // Hold out a random fraction for the paper's train-time metrics.
        // Both splits are index views into the shared matrix — no feature
        // value is copied.
        let mut indices: Vec<usize> = (0..x.n_rows()).collect();
        rng.shuffle(&mut indices);
        let holdout =
            ((x.n_rows() as f64 * config.holdout_fraction) as usize).min(x.n_rows() / 2);
        let (test_idx, train_idx) = indices.split_at(holdout);

        // Stratified cap on training samples.
        let train_idx = stratified_cap(train_idx, &y, config.max_train_samples, rng);
        let yt = gather(&y, &train_idx);

        let model = train_model_view(kind, x.subset(&train_idx), &yt, rng)?;

        let holdout_metrics = if test_idx.is_empty() {
            evaluate_view(model.as_ref(), x.subset(&train_idx), &yt)
        } else {
            let yh = gather(&y, test_idx);
            evaluate_view(model.as_ref(), x.subset(test_idx), &yh)
        };

        Ok(TrainingOutcome {
            ids: TrainedIds { model, scaler, config },
            holdout_metrics,
            train_samples: train_idx.len(),
        })
    }

    /// The configured window length in seconds.
    pub fn window_secs(&self) -> u64 {
        self.config.window_secs
    }

    /// The configured statistical-feature refresh period (in windows).
    pub fn stats_refresh(&self) -> usize {
        self.config.stats_refresh
    }

    /// The underlying model.
    pub fn model(&self) -> &dyn Classifier {
        self.model.as_ref()
    }

    /// The fitted scaler.
    pub fn scaler(&self) -> &Scaler {
        &self.scaler
    }

    /// Classifies every packet of a completed window, returning the
    /// per-window detection result (the paper's per-second accuracy).
    ///
    /// # Panics
    ///
    /// Panics if the fitted scaler's or the model's arity does not match
    /// the feature layout; [`TrainedIds::try_classify_window`] reports
    /// that as a [`ClassifyError`] instead.
    pub fn classify_window(&self, window: &Window) -> WindowDetection {
        let mut scratch = FeatureMatrix::new(TOTAL_FEATURES);
        self.try_classify_window(window, &mut scratch, &mut Vec::new())
            .unwrap_or_else(|e| panic!("classify_window: {e}"))
    }

    /// Fallible core of [`TrainedIds::classify_window`]: extracts
    /// features into a caller-owned scratch matrix and predicts into a
    /// caller-owned buffer through the model's span kernel, with the
    /// whole matrix as one span. Both buffers are reused window after
    /// window; the one-entry span-work vector is built per call. Arity
    /// mismatches between the scratch matrix, the fitted scaler, the
    /// model and the feature layout come back as a [`ClassifyError`]
    /// instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`ClassifyError::ScratchArity`] when `scratch` was not
    /// created with [`TOTAL_FEATURES`] columns,
    /// [`ClassifyError::ScalerArity`] when the fitted scaler expects a
    /// different feature count, and [`ClassifyError::ModelArity`] when
    /// the model was fitted on rows of another width (e.g. parts
    /// assembled via [`TrainedIds::from_parts`] from an incompatible
    /// pipeline).
    pub fn try_classify_window(
        &self,
        window: &Window,
        scratch: &mut FeatureMatrix,
        predictions: &mut Vec<usize>,
    ) -> Result<WindowDetection, ClassifyError> {
        self.check_classify_arity(scratch)?;
        scratch.clear();
        window.append_features(scratch);
        self.scaler.transform_matrix(scratch);
        let whole = [RowSpan { start: 0, len: scratch.n_rows() }];
        self.model.predict_batch_spans_into(scratch.view(), &whole, predictions, &mut Vec::new());
        Ok(detection_from_predictions(window, predictions))
    }

    /// The arity preconditions of a classify pass, shared by the
    /// per-window path and the serving layer's coalesced batch (which
    /// checks once per batch instead of once per window — the checks
    /// depend only on the scratch matrix, the fitted scaler and the
    /// model, never on the windows). A model that reads any width
    /// ([`Classifier::input_dims`] is `None`) passes the model check.
    ///
    /// # Errors
    ///
    /// The same [`ClassifyError`] variants as
    /// [`TrainedIds::try_classify_window`].
    pub fn check_classify_arity(&self, scratch: &FeatureMatrix) -> Result<(), ClassifyError> {
        if scratch.n_cols() != TOTAL_FEATURES {
            return Err(ClassifyError::ScratchArity {
                expected: TOTAL_FEATURES,
                got: scratch.n_cols(),
            });
        }
        if self.scaler.dims() != TOTAL_FEATURES {
            return Err(ClassifyError::ScalerArity {
                expected: TOTAL_FEATURES,
                got: self.scaler.dims(),
            });
        }
        if let Some(got) = self
            .model
            .input_dims()
            .filter(|&dims| dims != TOTAL_FEATURES)
        {
            return Err(ClassifyError::ModelArity {
                expected: TOTAL_FEATURES,
                got,
            });
        }
        Ok(())
    }
}

/// Folds one window's per-packet predictions into its
/// [`WindowDetection`] (generation and degradation are stamped by the
/// caller). `predictions` must be packet-aligned with the window — in a
/// coalesced batch, the window's [`ml::classifier::RowSpan`] slice.
pub fn detection_from_predictions(window: &Window, predictions: &[usize]) -> WindowDetection {
    let truth = window.labels();
    debug_assert_eq!(predictions.len(), truth.len(), "predictions not packet-aligned");
    let correct = predictions.iter().zip(&truth).filter(|(p, t)| p == t).count();
    let predicted_malicious = predictions.iter().filter(|&&p| p == 1).count();
    let truth_malicious = truth.iter().filter(|&&t| t == 1).count();
    let malicious_correct =
        predictions.iter().zip(&truth).filter(|(&p, &t)| p == 1 && t == 1).count();
    WindowDetection {
        window_index: window.index,
        packets: window.records.len(),
        correct,
        predicted_malicious,
        truth_malicious,
        malicious_correct,
        mixed: window.is_mixed(),
        majority_truth: window.majority_label(),
        generation: 0,
        degraded: false,
    }
}

/// Why a window could not be classified (recoverable — the serving
/// layer accounts the window as degraded instead of panicking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifyError {
    /// The caller-owned scratch matrix has the wrong column count.
    ScratchArity {
        /// Expected column count ([`TOTAL_FEATURES`]).
        expected: usize,
        /// The scratch matrix's actual column count.
        got: usize,
    },
    /// The fitted scaler expects a different feature arity than the
    /// extraction layout produces.
    ScalerArity {
        /// Expected feature count ([`TOTAL_FEATURES`]).
        expected: usize,
        /// The scaler's fitted dimensionality.
        got: usize,
    },
    /// The model was fitted on rows of a different width than the
    /// extraction layout produces.
    ModelArity {
        /// Expected feature count ([`TOTAL_FEATURES`]).
        expected: usize,
        /// The model's input width ([`Classifier::input_dims`]).
        got: usize,
    },
}

impl std::fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassifyError::ScratchArity { expected, got } => {
                write!(f, "scratch matrix has {got} columns, feature layout needs {expected}")
            }
            ClassifyError::ScalerArity { expected, got } => {
                write!(f, "scaler fitted for {got} features, feature layout needs {expected}")
            }
            ClassifyError::ModelArity { expected, got } => {
                write!(
                    f,
                    "model fitted for {got} features, feature layout needs {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ClassifyError {}

/// Trains the concrete model behind the [`Classifier`] interface on the
/// rows of a matrix view (whole, or a [`FeatureMatrix::subset`] split).
pub fn train_model_view(
    kind: &ModelKind,
    view: MatrixView<'_>,
    y: &[usize],
    rng: &mut SimRng,
) -> Result<Box<dyn Classifier>, TrainError> {
    Ok(match kind {
        ModelKind::RandomForest(config) => Box::new(RandomForest::fit_view(view, y, config, rng)?),
        ModelKind::KMeans(config) => Box::new(KMeansDetector::fit_view(view, y, config, rng)?),
        ModelKind::Cnn(config) => Box::new(Cnn::fit_view(view, y, config, rng)?),
        ModelKind::Svm(config) => Box::new(LinearSvm::fit_view(view, y, config, rng)?),
        ModelKind::IsolationForest(config) => {
            Box::new(IsolationForest::fit_view(view, y, config, rng)?)
        }
        ModelKind::Autoencoder(config) => Box::new(Autoencoder::fit_view(view, y, config, rng)?),
    })
}

/// Caps sample indices at `max`, stratified by class.
fn stratified_cap(indices: &[usize], y: &[usize], max: usize, rng: &mut SimRng) -> Vec<usize> {
    if indices.len() <= max {
        return indices.to_vec();
    }
    let mut by_class: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for &i in indices {
        by_class[y[i].min(1)].push(i);
    }
    let frac = max as f64 / indices.len() as f64;
    let mut out = Vec::with_capacity(max);
    for class in &mut by_class {
        rng.shuffle(class);
        let take = ((class.len() as f64 * frac).round() as usize).min(class.len());
        out.extend_from_slice(&class[..take]);
    }
    out.sort_unstable();
    out
}

/// One window's real-time detection result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowDetection {
    /// Window index on the virtual clock.
    pub window_index: u64,
    /// Packets classified.
    pub packets: usize,
    /// Correctly classified packets.
    pub correct: usize,
    /// Packets predicted malicious.
    pub predicted_malicious: usize,
    /// Packets actually malicious.
    pub truth_malicious: usize,
    /// Malicious packets correctly flagged (for recall).
    pub malicious_correct: usize,
    /// Whether the window mixed both classes (attack boundary).
    pub mixed: bool,
    /// The window's majority ground truth.
    pub majority_truth: Label,
    /// Model generation that scored this window (0 for the initial
    /// model; bumped by every hot-swap — see `ml::handle::SwapHandle`).
    /// Every window is classified by exactly one generation.
    #[serde(default)]
    pub generation: u64,
    /// `true` if the detector's modelled compute for this window
    /// exceeded the window interval (overload): the result is still
    /// recorded, but it arrived late and downstream consumers should
    /// treat it as best-effort.
    pub degraded: bool,
}

impl WindowDetection {
    /// Per-window packet accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.packets == 0 {
            1.0
        } else {
            self.correct as f64 / self.packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capture::record::PacketRecord;
    use netsim::packet::{Protocol, TcpFlags};
    use netsim::time::SimTime;
    use netsim::Addr;

    /// Builds a synthetic capture alternating benign seconds (diverse
    /// ports, handshakes) and attack seconds (SYN flood signature).
    fn synthetic_capture(seconds: u64, attack_every: u64) -> Dataset {
        let mut records = Vec::new();
        for s in 0..seconds {
            let attack = s % attack_every == attack_every - 1;
            for i in 0..40u32 {
                let ts = SimTime::from_millis(s * 1000 + (i as u64) * 20);
                let record = if attack {
                    PacketRecord {
                        ts,
                        src: Addr::new(10, 0, 0, (10 + i % 5) as u8),
                        src_port: 2000 + (i * 131 % 5000) as u16,
                        dst: Addr::new(10, 0, 0, 2),
                        dst_port: 80,
                        protocol: Protocol::Tcp,
                        flags: TcpFlags::SYN,
                        wire_len: 40,
                        payload_len: 0,
                        seq: i.wrapping_mul(2_654_435_761),
                        label: Label::Malicious,
                    }
                } else {
                    PacketRecord {
                        ts,
                        src: Addr::new(10, 0, 0, (3 + i % 3) as u8),
                        src_port: 50_000 + (i % 3) as u16,
                        dst: Addr::new(10, 0, 0, 2),
                        dst_port: [80u16, 1935, 21][(i % 3) as usize],
                        protocol: Protocol::Tcp,
                        flags: TcpFlags::ACK | TcpFlags::PSH,
                        wire_len: 200 + i % 7 * 100,
                        payload_len: 160,
                        seq: 1000 + i * 160,
                        label: Label::Benign,
                    }
                };
                records.push(record);
            }
        }
        Dataset::from_records(records)
    }

    #[test]
    fn all_three_models_train_and_detect() {
        let capture = synthetic_capture(30, 3);
        let config = IdsConfig { max_train_samples: 2_000, ..IdsConfig::default() };
        for kind in [
            ModelKind::RandomForest(ForestConfig { n_trees: 10, ..Default::default() }),
            ModelKind::KMeans(KMeansConfig::default()),
            ModelKind::Cnn(CnnConfig { epochs: 4, ..CnnConfig::default() }),
        ] {
            let mut rng = SimRng::seed_from(11);
            let outcome = TrainedIds::train(&capture, &kind, config, &mut rng)
                .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
            assert!(
                outcome.holdout_metrics.accuracy > 0.9,
                "{} holdout accuracy {}",
                kind.name(),
                outcome.holdout_metrics.accuracy
            );
            // Real-time detection on fresh windows of the same shape.
            let live = synthetic_capture(12, 3);
            let windows = features::extract::windows_of(&live, 1);
            let mut correct = 0usize;
            let mut total = 0usize;
            for w in &windows {
                let det = outcome.ids.classify_window(w);
                correct += det.correct;
                total += det.packets;
            }
            let acc = correct as f64 / total as f64;
            assert!(acc > 0.85, "{} live accuracy {acc}", kind.name());
        }
    }

    #[test]
    fn stratified_cap_respects_limit_and_classes() {
        let mut rng = SimRng::seed_from(3);
        let y: Vec<usize> = (0..1000).map(|i| usize::from(i % 4 == 0)).collect();
        let indices: Vec<usize> = (0..1000).collect();
        let capped = stratified_cap(&indices, &y, 100, &mut rng);
        assert!(capped.len() <= 101);
        let positives = capped.iter().filter(|&&i| y[i] == 1).count();
        let frac = positives as f64 / capped.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "stratification kept class balance: {frac}");
    }

    #[test]
    fn window_detection_accuracy() {
        let det = WindowDetection {
            window_index: 0,
            packets: 10,
            correct: 7,
            predicted_malicious: 5,
            truth_malicious: 6,
            malicious_correct: 4,
            mixed: true,
            majority_truth: Label::Malicious,
            generation: 0,
            degraded: false,
        };
        assert!((det.accuracy() - 0.7).abs() < 1e-12);
        let empty = WindowDetection { packets: 0, correct: 0, ..det };
        assert_eq!(empty.accuracy(), 1.0);
    }

    #[test]
    fn arity_mismatch_is_an_error_not_a_panic() {
        // A model assembled from an incompatible pipeline (2-feature
        // scaler vs. the TOTAL_FEATURES layout) must come back as a
        // recoverable ClassifyError so a bad hot-swap degrades windows
        // instead of killing the serving loop.
        let mut rows = FeatureMatrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![5.0, 5.0],
            vec![5.1, 5.0],
        ])
        .unwrap();
        let labels = vec![0usize, 0, 1, 1];
        let mut rng = SimRng::seed_from(9);
        let bad_scaler = Scaler::fit_transform_matrix(ScalingMethod::MinMax, &mut rows);
        let model = train_model_view(
            &ModelKind::KMeans(KMeansConfig { k_max: 2, ..KMeansConfig::default() }),
            rows.view(),
            &labels,
            &mut rng,
        )
        .unwrap();
        let bad_ids = TrainedIds::from_parts(model, bad_scaler, IdsConfig::default());

        let live = synthetic_capture(2, 2);
        let windows = features::extract::windows_of(&live, 1);
        let mut scratch = FeatureMatrix::new(TOTAL_FEATURES);
        let mut predictions = Vec::new();
        let err = bad_ids
            .try_classify_window(&windows[0], &mut scratch, &mut predictions)
            .unwrap_err();
        assert_eq!(err, ClassifyError::ScalerArity { expected: TOTAL_FEATURES, got: 2 });
        assert!(err.to_string().contains("scaler fitted for 2 features"));

        // Wrong scratch arity is likewise recoverable.
        let good = synthetic_capture(6, 3);
        let mut rng = SimRng::seed_from(10);
        let outcome = TrainedIds::train(
            &good,
            &ModelKind::KMeans(KMeansConfig::default()),
            IdsConfig { max_train_samples: 2_000, ..IdsConfig::default() },
            &mut rng,
        )
        .unwrap();
        let mut bad_scratch = FeatureMatrix::new(3);
        let err = outcome
            .ids
            .try_classify_window(&windows[0], &mut bad_scratch, &mut predictions)
            .unwrap_err();
        assert_eq!(err, ClassifyError::ScratchArity { expected: TOTAL_FEATURES, got: 3 });
    }

    /// Two-class rows `dims` wide, far apart in every feature.
    fn two_class_rows(dims: usize) -> (FeatureMatrix, Vec<usize>) {
        let mut rows = FeatureMatrix::new(dims);
        for i in 0..40 {
            let row: Vec<f64> = (0..dims).map(|j| ((i % 2) * 5 + i * (j + 1) % 3) as f64).collect();
            rows.push_row(&row);
        }
        (rows, (0..40).map(|i| i % 2).collect())
    }

    /// A model fitted one feature narrower or wider than the layout is a
    /// typed error before predict, for each of the paper's models and the
    /// Isolation Forest: the CNN would trip its arity assert, a wider
    /// K-Means would slice past the row and a narrower one read a prefix
    /// of it, and both forests read features by index. A model of the
    /// layout's width passes.
    #[test]
    fn wrong_width_model_is_an_arity_error() {
        let mut scaler_rows =
            FeatureMatrix::from_rows(&[vec![0.0; TOTAL_FEATURES], vec![1.0; TOTAL_FEATURES]])
                .unwrap();
        let scaler = Scaler::fit_transform_matrix(ScalingMethod::MinMax, &mut scaler_rows);
        let live = synthetic_capture(2, 2);
        let windows = features::extract::windows_of(&live, 1);
        let kinds = [
            ModelKind::RandomForest(ForestConfig {
                n_trees: 3,
                ..ForestConfig::default()
            }),
            ModelKind::KMeans(KMeansConfig {
                k_max: 2,
                ..KMeansConfig::default()
            }),
            ModelKind::Cnn(CnnConfig {
                epochs: 1,
                ..CnnConfig::default()
            }),
            ModelKind::IsolationForest(IsolationForestConfig::default()),
        ];
        for kind in &kinds {
            for dims in [TOTAL_FEATURES - 1, TOTAL_FEATURES, TOTAL_FEATURES + 1] {
                let (rows, labels) = two_class_rows(dims);
                let mut rng = SimRng::seed_from(dims as u64);
                let model = train_model_view(kind, rows.view(), &labels, &mut rng).unwrap();
                assert_eq!(model.input_dims(), Some(dims), "{}", kind.name());
                let ids = TrainedIds::from_parts(model, scaler.clone(), IdsConfig::default());
                let mut scratch = FeatureMatrix::new(TOTAL_FEATURES);
                let result = ids.try_classify_window(&windows[0], &mut scratch, &mut Vec::new());
                if dims == TOTAL_FEATURES {
                    assert!(result.is_ok(), "{}: {result:?}", kind.name());
                } else {
                    let err = result.unwrap_err();
                    assert_eq!(
                        err,
                        ClassifyError::ModelArity {
                            expected: TOTAL_FEATURES,
                            got: dims
                        },
                        "{}",
                        kind.name()
                    );
                    assert!(err
                        .to_string()
                        .contains(&format!("model fitted for {dims} features")));
                }
            }
        }
    }

    #[test]
    fn training_on_empty_capture_errors() {
        let mut rng = SimRng::seed_from(4);
        let err = TrainedIds::train(
            &Dataset::new(),
            &ModelKind::KMeans(KMeansConfig::default()),
            IdsConfig::default(),
            &mut rng,
        );
        assert!(err.is_err());
    }
}
