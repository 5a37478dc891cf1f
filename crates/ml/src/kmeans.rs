//! K-Means clustering: classic Lloyd's algorithm plus the unsupervised
//! entropy-penalised variant (U-K-Means, Sinaga & Yang 2020) the paper's
//! K-Means IDS is built on.
//!
//! U-K-Means starts from a generous cluster budget and *learns the number
//! of clusters*: each iteration re-estimates mixing proportions with an
//! entropy penalty, discards clusters whose proportion collapses, and
//! biases assignment towards popular clusters — "dynamically determines
//! the optimal number of clusters by incorporating entropy-based penalty
//! terms into its objective function" (§III-B).
//!
//! For IDS use the learned clusters are mapped to classes post-hoc by
//! majority ground-truth label ([`KMeansDetector`]), the standard recipe
//! for unsupervised intrusion detection.
//!
//! The Lloyd iterations are chunk-parallel: assignment and centroid
//! accumulation run over fixed-size row chunks (`CHUNK` rows) whose
//! partial results fold in chunk order — same input, same seed, same
//! model at any thread count.

use netsim::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::classifier::{Classifier, RowSpan, TrainError};
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::matrix::MatrixView;
use crate::par;

const KMEANS_MAGIC: u32 = 0x6b6d_6e73; // "kmns"

/// Rows per parallel work unit. Fixed (never derived from the thread
/// count) so floating-point partial sums always fold in the same order.
const CHUNK: usize = 1024;

/// Hyper-parameters for Lloyd / U-K-Means.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Initial cluster budget (U-K-Means prunes down from here).
    pub k_max: usize,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on centroid movement.
    pub tol: f64,
    /// Initial entropy-penalty weight (0 disables pruning → plain Lloyd).
    pub beta: f64,
    /// Multiplicative decay of the penalty per iteration.
    pub beta_decay: f64,
    /// Minimum mixing proportion a cluster needs to survive.
    pub min_proportion: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k_max: 16,
            max_iters: 60,
            tol: 1e-6,
            beta: 1.0,
            beta_decay: 0.9,
            min_proportion: 0.01,
        }
    }
}

/// A fitted K-Means model.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    proportions: Vec<f64>,
    inertia: f64,
    iterations: usize,
}

impl KMeans {
    /// Fits on a matrix view with k-means++ initialisation and
    /// entropy-penalised Lloyd iterations (set `beta = 0` for the classic
    /// algorithm).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyDataset`] on an empty view.
    pub fn fit_view(
        view: MatrixView<'_>,
        config: &KMeansConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        let n = view.n_rows();
        if n == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let dims = view.n_cols();
        let k0 = config.k_max.clamp(1, n);
        let mut centroids = kmeans_plus_plus(view, k0, rng);
        let mut proportions = vec![1.0 / k0 as f64; k0];
        let mut beta = config.beta;
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        for iter in 0..config.max_iters {
            iterations = iter + 1;
            // Assignment step: distance biased by -beta * ln(alpha_k).
            assign_all(view, &centroids, &proportions, beta, &mut assignments);
            // Update proportions and prune collapsed clusters.
            let k = centroids.len();
            let mut counts = vec![0usize; k];
            for &a in &assignments {
                counts[a] += 1;
            }
            proportions = counts.iter().map(|&c| c as f64 / n as f64).collect();
            if beta > 0.0 && k > 1 {
                let keep: Vec<usize> =
                    (0..k).filter(|&j| proportions[j] >= config.min_proportion).collect();
                if keep.len() < k && !keep.is_empty() {
                    centroids = keep.iter().map(|&j| centroids[j].clone()).collect();
                    let total: f64 = keep.iter().map(|&j| proportions[j]).sum();
                    proportions = keep.iter().map(|&j| proportions[j] / total).collect();
                    assign_all(view, &centroids, &proportions, beta, &mut assignments);
                }
            }
            // Centroid update: per-chunk partial (sums, counts) folded in
            // chunk order.
            let k = centroids.len();
            let partials = par::par_chunks(n, CHUNK, |range| {
                let mut sums = vec![vec![0.0; dims]; k];
                let mut counts = vec![0usize; k];
                for i in range {
                    let a = assignments[i];
                    counts[a] += 1;
                    for (s, v) in sums[a].iter_mut().zip(view.row(i)) {
                        *s += v;
                    }
                }
                (sums, counts)
            });
            let mut sums = vec![vec![0.0; dims]; k];
            let mut counts = vec![0usize; k];
            for (part_sums, part_counts) in partials {
                for (acc, part) in sums.iter_mut().zip(&part_sums) {
                    for (a, p) in acc.iter_mut().zip(part) {
                        *a += p;
                    }
                }
                for (a, p) in counts.iter_mut().zip(&part_counts) {
                    *a += p;
                }
            }
            let mut movement: f64 = 0.0;
            for j in 0..k {
                if counts[j] == 0 {
                    continue; // keep the old centroid; it may be pruned next round
                }
                for d in 0..dims {
                    let new = sums[j][d] / counts[j] as f64;
                    movement += (new - centroids[j][d]).abs();
                    centroids[j][d] = new;
                }
            }
            beta *= config.beta_decay;
            if movement < config.tol {
                break;
            }
        }

        let inertia = par::par_chunks(n, CHUNK, |range| {
            range
                .map(|i| {
                    let xi = view.row(i);
                    centroids
                        .iter()
                        .map(|c| squared_distance(xi, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum::<f64>()
        })
        .into_iter()
        .fold(0.0, |acc, s| acc + s);
        let k = centroids.len();
        let counts = par::par_chunks(n, CHUNK, |range| {
            let mut counts = vec![0usize; k];
            for i in range {
                counts[nearest(view.row(i), &centroids)] += 1;
            }
            counts
        })
        .into_iter()
        .fold(vec![0usize; k], |mut acc, part| {
            for (a, p) in acc.iter_mut().zip(&part) {
                *a += p;
            }
            acc
        });
        let proportions = counts.iter().map(|&c| c as f64 / n as f64).collect();
        Ok(KMeans { centroids, proportions, inertia, iterations })
    }

    /// The surviving cluster count.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// The cluster centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Final mixing proportions.
    pub fn proportions(&self) -> &[f64] {
        &self.proportions
    }

    /// Sum of squared distances of samples to their nearest centroid.
    pub fn inertia(&self) -> f64 {
        self.inertia
    }

    /// Iterations run before convergence.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Index of the nearest centroid.
    pub fn assign(&self, x: &[f64]) -> usize {
        nearest(x, &self.centroids)
    }
}

/// Chunk-parallel assignment of every row to its best cluster, written
/// into `out` in row order.
fn assign_all(
    view: MatrixView<'_>,
    centroids: &[Vec<f64>],
    proportions: &[f64],
    beta: f64,
    out: &mut Vec<usize>,
) {
    let n = view.n_rows();
    let parts = par::par_chunks(n, CHUNK, |range| {
        range
            .map(|i| best_cluster(view.row(i), centroids, proportions, beta))
            .collect::<Vec<usize>>()
    });
    out.clear();
    for part in parts {
        out.extend(part);
    }
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
}

fn nearest(x: &[f64], centroids: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (j, c) in centroids.iter().enumerate() {
        let d = squared_distance(x, c);
        if d < best_d {
            best_d = d;
            best = j;
        }
    }
    best
}

fn best_cluster(x: &[f64], centroids: &[Vec<f64>], proportions: &[f64], beta: f64) -> usize {
    let mut best = 0;
    let mut best_score = f64::INFINITY;
    for (j, c) in centroids.iter().enumerate() {
        let penalty = if beta > 0.0 { -beta * proportions[j].max(1e-12).ln() } else { 0.0 };
        let score = squared_distance(x, c) + penalty;
        if score < best_score {
            best_score = score;
            best = j;
        }
    }
    best
}

/// k-means++ seeding (serial: each draw conditions on the previous one).
fn kmeans_plus_plus(view: MatrixView<'_>, k: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
    let n = view.n_rows();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(view.row(rng.below(n as u64) as usize).to_vec());
    let mut dist: Vec<f64> =
        (0..n).map(|i| squared_distance(view.row(i), &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dist.iter().sum();
        let next = if total <= 0.0 {
            rng.below(n as u64) as usize
        } else {
            let mut draw = rng.uniform() * total;
            let mut chosen = n - 1;
            for (i, &d) in dist.iter().enumerate() {
                draw -= d;
                if draw <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(view.row(next).to_vec());
        let newest = centroids.last().expect("just pushed");
        for (i, d) in dist.iter_mut().enumerate() {
            *d = d.min(squared_distance(view.row(i), newest));
        }
    }
    centroids
}

/// The K-Means IDS: U-K-Means clusters mapped to classes by majority
/// ground-truth label.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansDetector {
    model: KMeans,
    cluster_labels: Vec<usize>,
}

impl KMeansDetector {
    /// Clusters the view's rows unsupervised, then labels each cluster
    /// with the majority class of its members.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for unusable training data.
    pub fn fit_view(
        view: MatrixView<'_>,
        y: &[usize],
        config: &KMeansConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        if view.n_rows() != y.len() {
            return Err(TrainError::LabelMismatch);
        }
        let model = KMeans::fit_view(view, config, rng)?;
        let k = model.k();
        let mut positives = vec![0usize; k];
        let mut totals = vec![0usize; k];
        for (i, &yi) in y.iter().enumerate() {
            let c = model.assign(view.row(i));
            totals[c] += 1;
            positives[c] += usize::from(yi == 1);
        }
        let cluster_labels =
            (0..k).map(|j| usize::from(positives[j] * 2 > totals[j].max(1))).collect();
        Ok(KMeansDetector { model, cluster_labels })
    }

    /// The underlying clustering.
    pub fn model(&self) -> &KMeans {
        &self.model
    }

    /// Per-cluster class labels.
    pub fn cluster_labels(&self) -> &[usize] {
        &self.cluster_labels
    }

    /// Distance multiply-adds of one prediction, the deterministic work
    /// unit: one squared distance per centroid, each a dims-long sweep.
    fn work_per_row(&self) -> u64 {
        (self.model.k() * self.model.centroids().first().map_or(0, Vec::len)) as u64
    }

    /// Classifies `rows` of `view`, appending one class per row to
    /// `out`. Same arithmetic (a sequential squared-distance sweep per
    /// centroid) and the same strict-`<` tie-breaking as
    /// [`KMeans::assign`], so batch predictions are bit-identical to the
    /// per-row path. The centroids are swept in place, so a call
    /// allocates nothing beyond `out`'s growth.
    fn assign_rows(&self, view: MatrixView<'_>, rows: std::ops::Range<usize>, out: &mut Vec<usize>) {
        let centroids = self.model.centroids();
        let dims = centroids.first().map_or(0, Vec::len);
        // Four rows share each pass over the centroids. A single row's
        // distance is a sequential dims-long add chain — latency bound —
        // but different rows' chains are independent, so interleaving
        // four hides that latency without touching any row's operation
        // order: each accumulator still sums its squared differences in
        // dimension order, bit-identical to the one-row `predict`.
        // Zero-width centroids leave every distance at zero, so they
        // pick cluster 0, as `assign` does.
        let mut i = rows.start;
        while i + 4 <= rows.end {
            let x0 = &view.row(i)[..dims];
            let x1 = &view.row(i + 1)[..dims];
            let x2 = &view.row(i + 2)[..dims];
            let x3 = &view.row(i + 3)[..dims];
            let mut best = [0usize; 4];
            let mut best_d = [f64::INFINITY; 4];
            for (j, c) in centroids.iter().enumerate() {
                // The same length as the row slices, so indexing them by
                // `jd` needs no bounds check (decode rejects ragged
                // centroids).
                let c = &c[..dims];
                let mut d = [0.0f64; 4];
                for (jd, &cv) in c.iter().enumerate() {
                    d[0] += (x0[jd] - cv).powi(2);
                    d[1] += (x1[jd] - cv).powi(2);
                    d[2] += (x2[jd] - cv).powi(2);
                    d[3] += (x3[jd] - cv).powi(2);
                }
                for (lane, &dist) in d.iter().enumerate() {
                    if dist < best_d[lane] {
                        best_d[lane] = dist;
                        best[lane] = j;
                    }
                }
            }
            for lane in best {
                out.push(self.cluster_labels[lane]);
            }
            i += 4;
        }
        out.extend((i..rows.end).map(|i| self.predict(view.row(i))));
    }

    /// Decodes a detector from its binary blob.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input, including blobs
    /// predict could not run on: no clusters, centroids of different
    /// lengths, or a cluster labelled outside {0, 1}.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(blob);
        d.expect_magic(KMEANS_MAGIC)?;
        let k = d.get_usize()?;
        if k == 0 || k > 1 << 16 {
            return Err(DecodeError::Corrupt("cluster count"));
        }
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        for _ in 0..k {
            let centroid = d.get_f64_slice()?;
            if centroids.first().is_some_and(|first| first.len() != centroid.len()) {
                return Err(DecodeError::Corrupt("ragged centroids"));
            }
            centroids.push(centroid);
        }
        let proportions = d.get_f64_slice()?;
        let cluster_labels = d.get_usize_slice()?;
        if cluster_labels.len() != k || proportions.len() != k {
            return Err(DecodeError::Corrupt("label/proportion arity"));
        }
        if cluster_labels.iter().any(|&label| label > 1) {
            return Err(DecodeError::Corrupt("cluster label"));
        }
        Ok(KMeansDetector {
            model: KMeans { centroids, proportions, inertia: 0.0, iterations: 0 },
            cluster_labels,
        })
    }
}

impl Classifier for KMeansDetector {
    fn name(&self) -> &'static str {
        "K-Means"
    }

    fn predict(&self, features: &[f64]) -> usize {
        self.cluster_labels[self.model.assign(features)]
    }

    fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
        (self.predict(features), self.work_per_row())
    }

    fn input_dims(&self) -> Option<usize> {
        // Fitting and decoding both leave at least one centroid, all of
        // one width.
        self.model.centroids().first().map(Vec::len)
    }

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
        let per_row = self.work_per_row();
        let mut total = 0u64;
        for span in spans {
            self.assign_rows(view, span.range(), out);
            let work = span.len as u64 * per_row;
            span_work.push(work);
            total += work;
        }
        total
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(KMEANS_MAGIC);
        e.put_usize(self.model.k());
        for c in self.model.centroids() {
            e.put_f64_slice(c);
        }
        e.put_f64_slice(self.model.proportions());
        e.put_usize_slice(&self.cluster_labels);
        e.finish()
    }

    fn memory_bytes(&self) -> u64 {
        let dims = self.model.centroids().first().map_or(0, Vec::len);
        ((self.model.k() * dims + self.model.k()) * std::mem::size_of::<f64>()
            + self.cluster_labels.len() * std::mem::size_of::<usize>()) as u64
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::FeatureMatrix;
    use crate::classifier::predict_view;

    fn blobs(n: usize, centers: &[(f64, f64)], rng: &mut SimRng) -> (FeatureMatrix, Vec<usize>) {
        let mut x = FeatureMatrix::new(2);
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % centers.len();
            let (cx, cy) = centers[class];
            x.push_row(&[cx + 0.3 * rng.standard_normal(), cy + 0.3 * rng.standard_normal()]);
            y.push(usize::from(class >= centers.len() / 2));
        }
        (x, y)
    }

    /// The span kernel and `predict_view` are bit-identical to per-row
    /// prediction on classes and work, across ragged tilings.
    #[test]
    fn flat_batch_predict_is_bit_identical_to_per_row() {
        let mut rng = SimRng::seed_from(7);
        let (x, y) = blobs(240, &[(-5.0, 0.0), (0.0, 5.0), (5.0, 0.0), (0.0, -5.0)], &mut rng);
        let detector = KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap();
        let per_row: Vec<(usize, u64)> = x.rows().map(|row| detector.predict_with_work(row)).collect();
        let classes: Vec<usize> = per_row.iter().map(|&(c, _)| c).collect();
        let work: u64 = per_row.iter().map(|&(_, w)| w).sum();
        assert_eq!(predict_view(&detector, x.view()), (classes.clone(), work));
        let tilings: [&[RowSpan]; 2] = [
            &[RowSpan { start: 0, len: 240 }],
            &[
                RowSpan { start: 0, len: 101 },
                RowSpan { start: 101, len: 0 },
                RowSpan { start: 101, len: 139 },
            ],
        ];
        for spans in tilings {
            let mut spanned = Vec::new();
            let mut span_work = Vec::new();
            let total =
                detector.predict_batch_spans_into(x.view(), spans, &mut spanned, &mut span_work);
            let expected: Vec<u64> =
                spans.iter().map(|span| span.range().map(|i| per_row[i].1).sum()).collect();
            assert_eq!(spanned, classes, "{spans:?}");
            assert_eq!(span_work, expected, "{spans:?}");
            assert_eq!(total, work, "{spans:?}");
        }
    }

    /// Zero-width centroids give every row distance zero to each
    /// cluster, so the kernel picks cluster 0 for every row, as
    /// `assign` does, and reports no work.
    #[test]
    fn zero_width_centroids_pick_the_first_cluster() {
        let detector = KMeansDetector {
            model: KMeans {
                centroids: vec![Vec::new(), Vec::new()],
                proportions: vec![0.5, 0.5],
                inertia: 0.0,
                iterations: 0,
            },
            cluster_labels: vec![1, 0],
        };
        let m = FeatureMatrix::from_rows(&vec![vec![3.0, -1.0]; 6]).unwrap();
        let (mut out, mut span_work) = (Vec::new(), Vec::new());
        let spans = [RowSpan { start: 0, len: 6 }];
        assert_eq!(detector.predict_batch_spans_into(m.view(), &spans, &mut out, &mut span_work), 0);
        assert_eq!(out, vec![1; 6]);
        assert_eq!(detector.predict_with_work(m.row(0)), (1, 0));
    }

    #[test]
    fn ukmeans_discovers_the_true_cluster_count() {
        let mut rng = SimRng::seed_from(1);
        let (x, _) = blobs(600, &[(-5.0, 0.0), (0.0, 5.0), (5.0, 0.0)], &mut rng);
        let model = KMeans::fit_view(x.view(), &KMeansConfig::default(), &mut rng).unwrap();
        assert_eq!(model.k(), 3, "entropy pruning collapses 16 -> 3 clusters");
    }

    #[test]
    fn plain_lloyd_keeps_all_clusters() {
        let mut rng = SimRng::seed_from(2);
        let (x, _) = blobs(300, &[(-5.0, 0.0), (5.0, 0.0)], &mut rng);
        let config = KMeansConfig { k_max: 4, beta: 0.0, ..KMeansConfig::default() };
        let model = KMeans::fit_view(x.view(), &config, &mut rng).unwrap();
        assert_eq!(model.k(), 4, "beta=0 disables pruning");
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let mut rng = SimRng::seed_from(3);
        let (x, _) = blobs(400, &[(-5.0, 0.0), (0.0, 5.0), (5.0, 0.0), (0.0, -5.0)], &mut rng);
        let fit_k = |k: usize, rng: &mut SimRng| {
            let config = KMeansConfig { k_max: k, beta: 0.0, ..KMeansConfig::default() };
            KMeans::fit_view(x.view(), &config, rng).unwrap().inertia()
        };
        let i1 = fit_k(1, &mut rng);
        let i2 = fit_k(2, &mut rng);
        let i4 = fit_k(4, &mut rng);
        assert!(i1 > i2, "{i1} > {i2}");
        assert!(i2 > i4, "{i2} > {i4}");
    }

    #[test]
    fn detector_classifies_separated_classes() {
        let mut rng = SimRng::seed_from(4);
        let (x, y) = blobs(500, &[(-4.0, -4.0), (4.0, 4.0)], &mut rng);
        let detector = KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap();
        let correct = x.rows().zip(&y).filter(|(xi, &yi)| detector.predict(xi) == yi).count();
        assert!(correct as f64 / x.n_rows() as f64 > 0.95, "acc {correct}/500");
    }

    #[test]
    fn predict_with_work_counts_distance_multiply_adds() {
        let mut rng = SimRng::seed_from(14);
        let (x, y) = blobs(200, &[(-4.0, 0.0), (4.0, 0.0)], &mut rng);
        let detector = KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap();
        let (class, work) = detector.predict_with_work(x.row(0));
        assert_eq!(class, detector.predict(x.row(0)));
        // k centroids × 2 feature dims.
        assert_eq!(work, detector.model().k() as u64 * 2);
    }

    #[test]
    fn detector_codec_roundtrip() {
        let mut rng = SimRng::seed_from(5);
        let (x, y) = blobs(200, &[(-4.0, 0.0), (4.0, 0.0)], &mut rng);
        let detector = KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap();
        let blob = detector.encode();
        let back = KMeansDetector::decode(&blob).unwrap();
        for xi in x.rows() {
            assert_eq!(detector.predict(xi), back.predict(xi));
        }
    }

    /// Field mutations of a trained detector's blob: every count,
    /// length and label word is overwritten with 0, its own value ±1 and
    /// `u64::MAX`. Every mutant must fail to decode or decode to a
    /// detector whose span kernel, whole-view and per-row predictions
    /// agree, finish without panicking and answer a binary class; every
    /// truncation must fail.
    #[test]
    fn decode_mutants_error_or_predict_cleanly() {
        let mut rng = SimRng::seed_from(15);
        let (x, y) = blobs(240, &[(-5.0, 0.0), (0.0, 5.0), (5.0, 0.0), (0.0, -5.0)], &mut rng);
        let detector = KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap();
        let k = detector.model().k();
        assert!(k >= 2);
        let blob = detector.encode();
        let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        // Offsets of the cluster count, each centroid's length, the
        // proportion and label lengths, and each label.
        let mut fields = vec![4];
        let mut at = 4 + 8;
        for _ in 0..k {
            fields.push(at);
            at += 8 + 8 * word(at) as usize;
        }
        fields.push(at);
        at += 8 + 8 * k;
        fields.extend((0..=k).map(|i| at + 8 * i));
        at += 8 + 8 * k;
        assert_eq!(at, blob.len());

        let first: Vec<usize> = (0..40).collect();
        let rows = x.subset(&first);
        let spans = [RowSpan { start: 0, len: 15 }, RowSpan { start: 15, len: 25 }];
        let mut decoded = 0;
        for &field in &fields {
            let own = word(field);
            for value in [0, own.wrapping_sub(1), own.wrapping_add(1), u64::MAX] {
                let mut mutant = blob.clone();
                mutant[field..field + 8].copy_from_slice(&value.to_le_bytes());
                let Ok(back) = KMeansDetector::decode(&mutant) else {
                    continue;
                };
                decoded += 1;
                let (batch, work) = predict_view(&back, rows);
                let (mut spanned, mut span_work) = (Vec::new(), Vec::new());
                let spanned_work = back.predict_batch_spans_into(
                    rows,
                    &spans,
                    &mut spanned,
                    &mut span_work,
                );
                assert_eq!((spanned_work, &spanned), (work, &batch));
                for (row, &class) in rows.rows().zip(&batch) {
                    assert!(class <= 1, "word at {field} set to {value}: class {class}");
                    assert_eq!(back.predict_with_work(row).0, class);
                }
            }
        }
        // Labels that stay binary still decode.
        assert!(decoded > 0);
        for cut in 0..blob.len() {
            assert!(KMeansDetector::decode(&blob[..cut]).is_err(), "truncated at {cut}");
        }
    }

    /// Blobs no single-word mutation reaches: no clusters, centroids of
    /// different lengths, and a cluster labelled outside {0, 1}.
    #[test]
    fn decode_rejects_empty_ragged_and_non_binary_models() {
        let blob = |centroids: &[&[f64]], labels: &[usize]| {
            let mut e = Encoder::new();
            e.put_u32(KMEANS_MAGIC);
            e.put_usize(centroids.len());
            for c in centroids {
                e.put_f64_slice(c);
            }
            e.put_f64_slice(&vec![0.5; centroids.len()]);
            e.put_usize_slice(labels);
            e.finish()
        };
        assert!(KMeansDetector::decode(&blob(&[&[0.0, 1.0], &[1.0, 0.0]], &[0, 1])).is_ok());
        for (bad, why) in [
            (blob(&[], &[]), "cluster count"),
            (blob(&[&[0.0, 1.0], &[1.0]], &[0, 1]), "ragged centroids"),
            (blob(&[&[0.0, 1.0], &[1.0, 0.0]], &[0, 7]), "cluster label"),
        ] {
            assert_eq!(KMeansDetector::decode(&bad).err(), Some(DecodeError::Corrupt(why)));
        }
    }

    #[test]
    fn kmeans_model_is_tiny() {
        // Table II: the paper's K-Means model is ~11 Kb vs ~712 Kb for RF.
        let mut rng = SimRng::seed_from(6);
        let (x, y) = blobs(300, &[(-4.0, 0.0), (4.0, 0.0)], &mut rng);
        let detector = KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap();
        assert!(detector.encode().len() < 4_096, "encoded {} bytes", detector.encode().len());
    }

    #[test]
    fn empty_and_ragged_inputs_error() {
        let mut rng = SimRng::seed_from(7);
        assert_eq!(
            KMeans::fit_view(FeatureMatrix::new(2).view(), &KMeansConfig::default(), &mut rng),
            Err(TrainError::EmptyDataset)
        );
        let ragged = vec![vec![1.0], vec![1.0, 2.0]];
        assert_eq!(FeatureMatrix::from_rows(&ragged), Err(TrainError::RaggedFeatures));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = SimRng::seed_from(8);
            let (x, y) = blobs(200, &[(-4.0, 0.0), (4.0, 0.0)], &mut rng);
            KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap().encode()
        };
        assert_eq!(run(), run());
    }

    /// Chunked reductions must make the fit independent of the thread
    /// budget, even with several chunks in play (n > CHUNK).
    #[test]
    fn fit_is_thread_count_invariant() {
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut rng = SimRng::seed_from(9);
                let (x, y) =
                    blobs(CHUNK + 600, &[(-5.0, 0.0), (0.0, 5.0), (5.0, 0.0)], &mut rng);
                KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap().encode()
            })
        };
        assert_eq!(run(1), run(4));
    }
}
