//! The common interface the IDS uses to drive any of the three models.

use crate::codec::DecodeError;
use crate::matrix::MatrixView;
use crate::metrics::{ConfusionMatrix, MetricsReport};
use crate::par;

/// A contiguous run of matrix rows belonging to one logical unit (a
/// window, a tenant) inside a coalesced batch. The serving layer stacks
/// every tenant's ready windows into one [`crate::matrix::FeatureMatrix`]
/// and classifies them in a single
/// [`Classifier::predict_batch_spans_into`] pass; the spans are what let
/// per-tenant budgets, degradation ladders and per-window work
/// attribution survive the coalescing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSpan {
    /// First row of the span.
    pub start: usize,
    /// Number of rows in the span.
    pub len: usize,
}

impl RowSpan {
    /// The row range the span covers.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// A trained binary traffic classifier (0 = benign, 1 = malicious).
///
/// Object-safe so the IDS can hold `Box<dyn Classifier>` and swap models
/// at deployment time, the way the paper's IDS container selects one of
/// RF / K-Means / CNN "based on user needs". `Send + Sync` is a
/// supertrait so batch prediction can fan rows out across threads
/// (models are plain parameter data; none hold interior mutability).
pub trait Classifier: Send + Sync {
    /// Human-readable model name ("RF", "K-Means", "CNN").
    fn name(&self) -> &'static str;

    /// Classifies one feature vector.
    fn predict(&self, features: &[f64]) -> usize;

    /// Classifies one feature vector and reports the *deterministic*
    /// work the prediction performed, in model-specific units (RF: tree
    /// nodes visited; CNN: multiply-accumulates; K-Means: distance
    /// multiply-adds). Work units are a pure function of the model and
    /// the input — never wall-clock time — so telemetry built on them
    /// stays byte-identical across same-seed runs and thread counts.
    ///
    /// The default reports zero work for models without an instrumented
    /// hot path.
    fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
        (self.predict(features), 0)
    }

    /// The one batch kernel: classifies the rows of several disjoint,
    /// in-order [`RowSpan`]s in one serial pass. `out` is cleared and
    /// receives every span's predictions back to back (span order),
    /// `span_work` is cleared and receives one deterministic work total
    /// per span, and the return value is the grand total. Per-row classes
    /// and work equal [`Classifier::predict_with_work`] on each row, for
    /// any tiling of the rows into spans — which is what lets the serving
    /// layer coalesce all tenants' windows into one matrix pass while
    /// keeping per-window work attribution exact.
    ///
    /// This is the real-time IDS hot path: both buffers are reused, so
    /// once they have grown to the working set a call touches the
    /// allocator not at all (`crates/ml/tests/zero_alloc.rs` counts).
    /// The default is the per-row loop; models with a faster batch walk
    /// override it. Whole-view prediction is [`predict_view`].
    fn predict_batch_spans_into(
        &self,
        view: MatrixView<'_>,
        spans: &[RowSpan],
        out: &mut Vec<usize>,
        span_work: &mut Vec<u64>,
    ) -> u64 {
        out.clear();
        out.reserve(spans.iter().map(|s| s.len).sum());
        span_work.clear();
        span_work.reserve(spans.len());
        let mut total = 0u64;
        for span in spans {
            let mut work = 0u64;
            for i in span.range() {
                let (class, w) = self.predict_with_work(view.row(i));
                out.push(class);
                work += w;
            }
            span_work.push(work);
            total += work;
        }
        total
    }

    /// The row width the model was fitted on, for a model that reads a
    /// fixed number of features; `None` (the default) for one that takes
    /// rows of any width. The IDS compares it with its feature layout
    /// before it predicts, so a model of the wrong width is a typed
    /// error there rather than a panic or a silent prefix read here.
    fn input_dims(&self) -> Option<usize> {
        None
    }

    /// Serialises the model (the PKL-file analogue). The blob length is
    /// the paper's "Model Size" metric.
    fn encode(&self) -> Vec<u8>;

    /// Approximate resident memory of the model's parameters and
    /// buffers, in bytes (the paper's "Memory" metric).
    fn memory_bytes(&self) -> u64;

    /// Clones the model behind the trait object, so one training phase
    /// can feed several independent deployments (e.g. a swarm of
    /// buggify runs replaying the same trained IDS under many seeds).
    fn clone_box(&self) -> Box<dyn Classifier>;
}

impl Clone for Box<dyn Classifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Rows per block of [`predict_view`]. A constant, never derived from
/// the thread count, so the blocks — and with them every output — are
/// the same on any machine. Of 64, 256 and 1024 rows, 256 ran the
/// forest fastest (DESIGN.md §11.1).
const VIEW_BLOCK_ROWS: usize = 256;

/// Classifies every row of a view, returning the classes in row order
/// and the summed deterministic work units. Fixed 256-row blocks spread
/// across threads, each one [`Classifier::predict_batch_spans_into`]
/// call with a single span; the kernel's per-row outputs do not depend
/// on the tiling and the work total is an integer sum, so the result is
/// identical at any thread count.
pub fn predict_view(model: &dyn Classifier, view: MatrixView<'_>) -> (Vec<usize>, u64) {
    let parts = par::par_chunks(view.n_rows(), VIEW_BLOCK_ROWS, |rows| {
        let span = [RowSpan { start: rows.start, len: rows.len() }];
        let mut classes = Vec::new();
        let work = model.predict_batch_spans_into(view, &span, &mut classes, &mut Vec::new());
        (classes, work)
    });
    let mut classes = Vec::with_capacity(view.n_rows());
    let mut work = 0u64;
    for (part, w) in parts {
        classes.extend(part);
        work += w;
    }
    (classes, work)
}

/// Evaluates a classifier on the labelled rows of a matrix view,
/// producing the paper's train-time metric row.
pub fn evaluate_view(model: &dyn Classifier, view: MatrixView<'_>, y: &[usize]) -> MetricsReport {
    let (predictions, _) = predict_view(model, view);
    let m = ConfusionMatrix::from_predictions(y, &predictions);
    MetricsReport::from_confusion(&m)
}

/// Error training a model on unusable data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// No training samples.
    EmptyDataset,
    /// Rows have inconsistent arity.
    RaggedFeatures,
    /// Labels and features differ in length.
    LabelMismatch,
    /// Training needs both classes present.
    SingleClass,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TrainError::EmptyDataset => "empty training dataset",
            TrainError::RaggedFeatures => "ragged feature matrix",
            TrainError::LabelMismatch => "labels and features differ in length",
            TrainError::SingleClass => "training data contains a single class",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TrainError {}

/// Validates a supervised training view, returning its feature arity
/// (views are rectangular by construction, so ragged rows cannot occur).
pub fn validate_matrix(view: MatrixView<'_>, y: &[usize]) -> Result<usize, TrainError> {
    if view.is_empty() {
        return Err(TrainError::EmptyDataset);
    }
    if view.n_rows() != y.len() {
        return Err(TrainError::LabelMismatch);
    }
    if y.iter().all(|&l| l == y[0]) {
        return Err(TrainError::SingleClass);
    }
    Ok(view.n_cols())
}

/// Error loading a serialised model.
pub type LoadError = DecodeError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn::{Cnn, CnnConfig};
    use crate::kmeans::{KMeansConfig, KMeansDetector};
    use crate::matrix::tests::gather_rows;
    use crate::matrix::FeatureMatrix;
    use crate::rf::{ForestConfig, RandomForest};
    use netsim::rng::SimRng;

    struct Always(usize);
    impl Classifier for Always {
        fn name(&self) -> &'static str {
            "always"
        }
        fn predict(&self, _features: &[f64]) -> usize {
            self.0
        }
        fn encode(&self) -> Vec<u8> {
            vec![self.0 as u8]
        }
        fn memory_bytes(&self) -> u64 {
            1
        }
        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(Always(self.0))
        }
    }

    #[test]
    fn evaluate_scores_a_constant_model() {
        let x = vec![vec![0.0]; 4];
        let y = vec![1, 1, 0, 0];
        let m = FeatureMatrix::from_rows(&x).unwrap();
        let report = evaluate_view(&Always(1), m.view(), &y);
        assert!((report.accuracy - 0.5).abs() < 1e-12);
        assert!((report.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluate_view_covers_subsets() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1, 0, 1, 0];
        let m = FeatureMatrix::from_rows(&x).unwrap();
        let full = evaluate_view(&Always(1), m.view(), &y);
        assert!((full.accuracy - 0.5).abs() < 1e-12);
        let subset = gather_rows(&m, &[0, 2]);
        let sub = evaluate_view(&Always(1), subset.view(), &[1, 1]);
        assert!((sub.accuracy - 1.0).abs() < 1e-12);
    }

    /// Wraps `Always` with work proportional to the row's first value,
    /// so per-span work attribution is observable.
    struct Weighted;
    impl Classifier for Weighted {
        fn name(&self) -> &'static str {
            "weighted"
        }
        fn predict(&self, features: &[f64]) -> usize {
            usize::from(features[0] > 1.0)
        }
        fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
            (self.predict(features), features[0] as u64)
        }
        fn encode(&self) -> Vec<u8> {
            Vec::new()
        }
        fn memory_bytes(&self) -> u64 {
            0
        }
        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(Weighted)
        }
    }

    /// Spans tiling the matrix must reproduce per-row
    /// `predict_with_work` exactly — same predictions, same total work —
    /// while splitting the work by span, and a second pass must reuse
    /// the output buffer.
    #[test]
    fn span_batch_matches_plain_batch() {
        let x: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64]).collect();
        let m = FeatureMatrix::from_rows(&x).unwrap();
        let model = Weighted;
        let per_row: Vec<(usize, u64)> = x.iter().map(|row| model.predict_with_work(row)).collect();
        let spans =
            [RowSpan { start: 0, len: 3 }, RowSpan { start: 3, len: 0 }, RowSpan { start: 3, len: 4 }];
        let mut spanned = Vec::new();
        let mut span_work = Vec::new();
        let total = model.predict_batch_spans_into(m.view(), &spans, &mut spanned, &mut span_work);
        assert_eq!(spanned, per_row.iter().map(|&(c, _)| c).collect::<Vec<_>>());
        assert_eq!(total, per_row.iter().map(|&(_, w)| w).sum::<u64>());
        assert_eq!(span_work, vec![1 + 2, 0, 3 + 4 + 5 + 6]);
        let ptr = spanned.as_ptr();
        let _ = model.predict_batch_spans_into(m.view(), &spans, &mut spanned, &mut span_work);
        assert_eq!(ptr, spanned.as_ptr(), "the kernel must reuse its output buffer");
    }

    /// Whole-view prediction splits the rows into fixed blocks and fans
    /// them out across threads: for row counts around the block size, at
    /// 1 and at 4 threads, every model's classes and work equal its
    /// per-row `predict_with_work`.
    #[test]
    fn predict_view_matches_per_row_at_any_thread_count() {
        const DIMS: usize = 8;
        let rows = |n: usize| {
            let mut rng = SimRng::seed_from(41);
            let mut m = FeatureMatrix::new(DIMS);
            for _ in 0..n {
                let row: Vec<f64> = (0..DIMS).map(|_| rng.uniform_range(-1.0, 3.0)).collect();
                m.push_row(&row);
            }
            m
        };
        let train = rows(300);
        let labels: Vec<usize> =
            (0..train.n_rows()).map(|i| usize::from(train.row(i)[0] > 1.0)).collect();
        let mut rng = SimRng::seed_from(42);
        let forest_config = ForestConfig { n_trees: 5, ..ForestConfig::default() };
        let cnn_config = CnnConfig { input_len: DIMS, epochs: 1, ..CnnConfig::default() };
        let models: [Box<dyn Classifier>; 4] = [
            Box::new(Weighted),
            Box::new(RandomForest::fit_view(train.view(), &labels, &forest_config, &mut rng).unwrap()),
            Box::new(
                KMeansDetector::fit_view(train.view(), &labels, &KMeansConfig::default(), &mut rng)
                    .unwrap(),
            ),
            Box::new(Cnn::fit_view(train.view(), &labels, &cnn_config, &mut rng).unwrap()),
        ];
        for n in [0, 1, 255, 256, 257, 3 * 256 + 5] {
            let m = rows(n);
            for model in &models {
                let per_row: Vec<(usize, u64)> =
                    (0..n).map(|i| model.predict_with_work(m.row(i))).collect();
                let want = (
                    per_row.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
                    per_row.iter().map(|&(_, w)| w).sum::<u64>(),
                );
                for threads in [1, 4] {
                    let got = par::with_threads(threads, || predict_view(model.as_ref(), m.view()));
                    assert_eq!(got, want, "{}: {n} rows, {threads} threads", model.name());
                }
            }
        }
    }

    #[test]
    fn matrix_validation_mirrors_row_validation() {
        let m = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(validate_matrix(m.view(), &[0]), Err(TrainError::LabelMismatch));
        assert_eq!(validate_matrix(m.view(), &[1, 1]), Err(TrainError::SingleClass));
        assert_eq!(validate_matrix(m.view(), &[0, 1]), Ok(1));
        let empty = gather_rows(&m, &[]);
        assert_eq!(validate_matrix(empty.view(), &[]), Err(TrainError::EmptyDataset));
    }
}
