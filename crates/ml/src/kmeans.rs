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
//!
//! Every squared distance, in fitting, labelling and prediction, comes
//! from one lane kernel: eight rows at a time, copied lane-major, with
//! each lane adding its squared differences in dimension order — the
//! same operations in the same order as a row-at-a-time sweep, so every
//! model and prediction is bit-identical to it (DESIGN.md §11.6).

use std::cell::RefCell;

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

/// Rows per block of the distance kernel. Eight `f64` lanes fill two
/// AVX2 registers, so the two centroids [`sweep`] carries per pass need
/// four accumulators and two registers of row values; at sixteen lanes
/// that is twelve of the sixteen registers, and the AVX2 copy spilled.
/// Eight ran faster per row than sixteen there (DESIGN.md §11.6).
const LANES: usize = 8;

thread_local! {
    /// Per-thread lane-major copy of one block's rows, `[dims][LANES]`,
    /// behind every block sweep, so warm prediction allocates nothing.
    static BLOCK: RefCell<Vec<[f64; LANES]>> = const { RefCell::new(Vec::new()) };
}

/// Which compiled copy of the block loop a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockLoop {
    /// The AVX2 copy on a CPU that has AVX2, else the baseline copy.
    Dispatched,
    /// The baseline copy, whatever the CPU.
    #[cfg_attr(not(test), allow(dead_code))]
    Baseline,
}

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
        Self::fit(view, config, rng, BlockLoop::Dispatched)
    }

    /// [`KMeans::fit_view`] with every distance sweep through
    /// `block_loop`.
    fn fit(
        view: MatrixView<'_>,
        config: &KMeansConfig,
        rng: &mut SimRng,
        block_loop: BlockLoop,
    ) -> Result<Self, TrainError> {
        let n = view.n_rows();
        if n == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let dims = view.n_cols();
        let k0 = config.k_max.clamp(1, n);
        let mut centroids = kmeans_plus_plus(block_loop, view, k0, rng);
        let mut proportions = vec![1.0 / k0 as f64; k0];
        let mut beta = config.beta;
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        for iter in 0..config.max_iters {
            iterations = iter + 1;
            // Assignment step: distance biased by -beta * ln(alpha_k).
            assign_all(block_loop, view, &centroids, &proportions, beta, &mut assignments);
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
                    assign_all(block_loop, view, &centroids, &proportions, beta, &mut assignments);
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

        // Each row's distance to its nearest centroid, an `f64::min` fold
        // in centroid order, summed in row order per chunk.
        let inertia = par::par_chunks(n, CHUNK, |range| {
            let mut nearest = Vec::with_capacity(range.len());
            let start = MinDistance([f64::INFINITY; LANES]);
            lane_blocks(block_loop, view, range, &centroids, start, |min, n| {
                nearest.extend_from_slice(&min.0[..n])
            });
            nearest.into_iter().sum::<f64>()
        })
        .into_iter()
        .fold(0.0, |acc, s| acc + s);
        let k = centroids.len();
        let counts = par::par_chunks(n, CHUNK, |range| {
            let mut counts = vec![0usize; k];
            nearest_rows(block_loop, view, range, &centroids, |j| counts[j] += 1);
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

    /// Index of the nearest centroid, through the one-lane kernel.
    /// A row longer than the centroids is compared on their width.
    pub fn assign(&self, x: &[f64]) -> usize {
        let width = x.len().min(self.centroids.first().map_or(0, Vec::len));
        let (x, _) = x[..width].as_chunks::<1>();
        let mut best = Nearest::<1>::NONE;
        sweep(x, &self.centroids, &mut best);
        best.index(0)
    }
}

/// The distance kernel: the squared distance from each of the `L`
/// lane-major rows in `x` (`[dims][L]`) to each centroid, folded into
/// `acc` in centroid order. Each lane starts from `+0.0` and adds
/// `t * t`, `t = x - c`, dimension by dimension in order: the
/// row-at-a-time sweep's operations in its order, so every lane's
/// distance is bit-identical to it (its `-0.0` start differs only on a
/// zero width). Lanes never mix, and `t * t` is `powi(2)`'s one
/// multiply. Two centroids share each pass over `x`. Centroids must be
/// at least `x.len()` wide.
#[inline(always)]
fn sweep<const L: usize, F: Fold<L>>(x: &[[f64; L]], centroids: &[Vec<f64>], acc: &mut F) {
    let dims = x.len();
    let mut pairs = centroids.chunks_exact(2);
    for (p, pair) in (&mut pairs).enumerate() {
        let (a, b) = (&pair[0][..dims], &pair[1][..dims]);
        let mut da = [0.0; L];
        let mut db = [0.0; L];
        for ((xd, &ca), &cb) in x.iter().zip(a).zip(b) {
            for l in 0..L {
                let t = xd[l] - ca;
                da[l] += t * t;
                let u = xd[l] - cb;
                db[l] += u * u;
            }
        }
        acc.fold(2 * p, &da);
        acc.fold(2 * p + 1, &db);
    }
    if let [c] = pairs.remainder() {
        let mut d = [0.0; L];
        for (xd, &cv) in x.iter().zip(&c[..dims]) {
            for l in 0..L {
                let t = xd[l] - cv;
                d[l] += t * t;
            }
        }
        acc.fold(centroids.len() - 1, &d);
    }
}

/// What a sweep keeps of its lanes' distances, folded in centroid by
/// centroid. Every `fold` is always inlined, so each compiled copy of
/// the block loop compiles its fold with its own target features.
trait Fold<const L: usize>: Copy {
    /// Folds in centroid `j`'s distance for every lane.
    fn fold(&mut self, j: usize, d: &[f64; L]);
}

/// Each lane's nearest centroid so far: the first index of the lowest
/// distance. The compare is a strict `<` from `+inf`, so ties keep the
/// earlier index, NaN never wins and a lane with no distance below
/// `+inf` keeps index 0. The selects are branch-free and choose as a
/// branch would. The index is held as an `f64` (exact below 2^53), so
/// one compare mask selects both arrays as vectors.
#[derive(Debug, Clone, Copy)]
struct Nearest<const L: usize> {
    index: [f64; L],
    score: [f64; L],
}

impl<const L: usize> Nearest<L> {
    const NONE: Self = Nearest { index: [0.0; L], score: [f64::INFINITY; L] };

    /// Lane `l`'s nearest centroid.
    fn index(&self, l: usize) -> usize {
        self.index[l] as usize
    }
}

impl<const L: usize> Fold<L> for Nearest<L> {
    #[inline(always)]
    fn fold(&mut self, j: usize, d: &[f64; L]) {
        // Selects of loaded values into fresh arrays, so the lanes
        // vectorise without a branch.
        let (j, score, index) = (j as f64, self.score, self.index);
        self.score = std::array::from_fn(|l| if d[l] < score[l] { d[l] } else { score[l] });
        self.index = std::array::from_fn(|l| if d[l] < score[l] { j } else { index[l] });
    }
}

/// [`Nearest`] by distance plus the fit's per-cluster entropy penalty.
#[derive(Debug, Clone, Copy)]
struct Penalised<'a, const L: usize> {
    nearest: Nearest<L>,
    penalties: &'a [f64],
}

impl<const L: usize> Fold<L> for Penalised<'_, L> {
    #[inline(always)]
    fn fold(&mut self, j: usize, d: &[f64; L]) {
        let penalty = self.penalties[j];
        self.nearest.fold(j, &d.map(|d| d + penalty));
    }
}

/// Each lane's smallest distance: `f64::min` folded from `+inf` in
/// centroid order, as the inertia sums it.
#[derive(Debug, Clone, Copy)]
struct MinDistance<const L: usize>([f64; L]);

impl<const L: usize> Fold<L> for MinDistance<L> {
    #[inline(always)]
    fn fold(&mut self, _: usize, d: &[f64; L]) {
        for (min, &d) in self.0.iter_mut().zip(d) {
            *min = f64::min(*min, d);
        }
    }
}

/// Each lane's distance to the last centroid swept; the k-means++
/// seeding sweeps one at a time.
#[derive(Debug, Clone, Copy)]
struct Distance<const L: usize>([f64; L]);

impl<const L: usize> Fold<L> for Distance<L> {
    #[inline(always)]
    fn fold(&mut self, _: usize, d: &[f64; L]) {
        self.0 = *d;
    }
}

/// Runs the `view` rows named by `rows` through [`sweep`], [`LANES`] at
/// a time, on the width the view and the centroids share. Each block
/// folds from `start` and is handed to `sink(fold, n)`, whose first `n`
/// lanes are the block's rows in order. A partial block repeats its
/// first row in its spare lanes.
///
/// The rows are copied lane-major into the thread's [`BLOCK`] scratch.
/// On an x86-64 CPU with AVX2, [`BlockLoop::Dispatched`] runs the block
/// loop as [`blocks_avx2`], the same source compiled for AVX2;
/// otherwise it runs as [`blocks`]. Both give the same bits.
fn lane_blocks<F: Fold<LANES>>(
    block_loop: BlockLoop,
    view: MatrixView<'_>,
    rows: impl Iterator<Item = usize>,
    centroids: &[Vec<f64>],
    start: F,
    sink: impl FnMut(&F, usize),
) {
    let width = view.n_cols().min(centroids.first().map_or(0, Vec::len));
    BLOCK.with(|x| {
        let mut x = x.borrow_mut();
        x.resize(width, [0.0; LANES]);
        // Inside the closure for the reason `Cnn::forward_rows` gives: a
        // closure keeps the target features of the function defining it.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        if block_loop == BlockLoop::Dispatched && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `blocks_avx2` enables only `avx2`, and the CPU
            // running this thread was just found to support it.
            return unsafe { blocks_avx2(view, rows, centroids, start, sink, &mut x) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = block_loop;
        blocks(view, rows, centroids, start, sink, &mut x);
    });
}

/// The block loop of [`lane_blocks`] over a `[width][LANES]` scratch.
/// Always inlined, as are [`sweep`] and every [`Fold`], so this body is
/// the baseline copy and [`blocks_avx2`] the AVX2 copy.
#[inline(always)]
fn blocks<F: Fold<LANES>>(
    view: MatrixView<'_>,
    mut rows: impl Iterator<Item = usize>,
    centroids: &[Vec<f64>],
    start: F,
    mut sink: impl FnMut(&F, usize),
    x: &mut [[f64; LANES]],
) {
    loop {
        let mut block = [0usize; LANES];
        let mut n = 0;
        for (slot, row) in block.iter_mut().zip(&mut rows) {
            *slot = row;
            n += 1;
        }
        if n == 0 {
            break;
        }
        for (l, &i) in block.iter().enumerate() {
            let row = view.row(if l < n { i } else { block[0] });
            for (cell, &v) in x.iter_mut().zip(row) {
                cell[l] = v;
            }
        }
        let mut acc = start;
        sweep(x, centroids, &mut acc);
        sink(&acc, n);
    }
}

/// [`blocks`] compiled for AVX2, on the terms of `Cnn::lane_blocks_avx2`:
/// four lanes per register instead of two, the same adds and multiplies
/// in the same order (`avx2` does not enable `fma`, and Rust never
/// contracts `a * b + c`). Code not compiled for AVX2 must find AVX2 on
/// the CPU before it calls this, as [`lane_blocks`] does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blocks_avx2<F: Fold<LANES>>(
    view: MatrixView<'_>,
    rows: impl Iterator<Item = usize>,
    centroids: &[Vec<f64>],
    start: F,
    sink: impl FnMut(&F, usize),
    x: &mut [[f64; LANES]],
) {
    blocks(view, rows, centroids, start, sink, x);
}

/// The nearest centroid of each `view` row named by `rows`, handed to
/// `sink` in row order.
fn nearest_rows(
    block_loop: BlockLoop,
    view: MatrixView<'_>,
    rows: impl Iterator<Item = usize>,
    centroids: &[Vec<f64>],
    mut sink: impl FnMut(usize),
) {
    lane_blocks(block_loop, view, rows, centroids, Nearest::NONE, |best, n| {
        (0..n).for_each(|l| sink(best.index(l)))
    });
}

/// Chunk-parallel assignment of every row to its best cluster, written
/// into `out` in row order. A cluster scores its distance plus the
/// entropy penalty `-beta * ln(alpha_j)`, evaluated once per cluster.
fn assign_all(
    block_loop: BlockLoop,
    view: MatrixView<'_>,
    centroids: &[Vec<f64>],
    proportions: &[f64],
    beta: f64,
    out: &mut Vec<usize>,
) {
    let penalties: Vec<f64> = proportions
        .iter()
        .map(|p| if beta > 0.0 { -beta * p.max(1e-12).ln() } else { 0.0 })
        .collect();
    let start = Penalised { nearest: Nearest::NONE, penalties: &penalties };
    let parts = par::par_chunks(view.n_rows(), CHUNK, |range| {
        let mut part = Vec::with_capacity(range.len());
        lane_blocks(block_loop, view, range, centroids, start, |best, n| {
            part.extend((0..n).map(|l| best.nearest.index(l)))
        });
        part
    });
    out.clear();
    for part in parts {
        out.extend(part);
    }
}

/// Hands `sink` each row's squared distance to `centroid`, a block at a
/// time, in row order.
fn distances_to(
    block_loop: BlockLoop,
    view: MatrixView<'_>,
    centroid: &Vec<f64>,
    mut sink: impl FnMut(&[f64]),
) {
    let one = std::slice::from_ref(centroid);
    lane_blocks(block_loop, view, 0..view.n_rows(), one, Distance([0.0; LANES]), |d, n| {
        sink(&d.0[..n])
    });
}

/// k-means++ seeding (serial: each draw conditions on the previous one).
fn kmeans_plus_plus(
    block_loop: BlockLoop,
    view: MatrixView<'_>,
    k: usize,
    rng: &mut SimRng,
) -> Vec<Vec<f64>> {
    let n = view.n_rows();
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(view.row(rng.below(n as u64) as usize).to_vec());
    let mut dist: Vec<f64> = Vec::with_capacity(n);
    distances_to(block_loop, view, &centroids[0], |d| dist.extend_from_slice(d));
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
        let mut slots = dist.iter_mut();
        distances_to(block_loop, view, newest, |block| {
            // The block on the left: `zip` pulls from its left side
            // first, so a spent block takes no slot.
            for (&d, slot) in block.iter().zip(&mut slots) {
                *slot = slot.min(d);
            }
        });
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
        Self::fit(view, y, config, rng, BlockLoop::Dispatched)
    }

    /// [`KMeansDetector::fit_view`] with every distance sweep through
    /// `block_loop`.
    fn fit(
        view: MatrixView<'_>,
        y: &[usize],
        config: &KMeansConfig,
        rng: &mut SimRng,
        block_loop: BlockLoop,
    ) -> Result<Self, TrainError> {
        if view.n_rows() != y.len() {
            return Err(TrainError::LabelMismatch);
        }
        let model = KMeans::fit(view, config, rng, block_loop)?;
        let k = model.k();
        let mut positives = vec![0usize; k];
        let mut totals = vec![0usize; k];
        let mut labels = y.iter();
        nearest_rows(block_loop, view, 0..y.len(), model.centroids(), |c| {
            totals[c] += 1;
            positives[c] += usize::from(labels.next() == Some(&1));
        });
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

    /// Classifies the `view` rows named by `rows`, in order, appending
    /// one class per row to `out`, through the lane kernel: the same
    /// choice as [`KMeans::assign`] for every row. A warm call
    /// allocates nothing beyond `out`'s growth.
    fn predict_rows(
        &self,
        block_loop: BlockLoop,
        view: MatrixView<'_>,
        rows: impl Iterator<Item = usize>,
        out: &mut Vec<usize>,
    ) {
        nearest_rows(block_loop, view, rows, self.model.centroids(), |j| {
            out.push(self.cluster_labels[j])
        });
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
        d.finish()?;
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
        self.predict_rows(BlockLoop::Dispatched, view, spans.iter().flat_map(RowSpan::range), out);
        let per_row = self.work_per_row();
        let mut total = 0u64;
        for span in spans {
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
    use crate::classifier::predict_view;
    use crate::codec::tests::assert_trailing_byte_rejected;
    use crate::matrix::tests::gather_rows;
    use crate::matrix::FeatureMatrix;

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

    // The row-at-a-time reference the lane kernel is pinned to: the
    // distance, assignment and fit code the kernel replaced, kept here
    // as the oracle.

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

    fn reference_assign_all(
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

    fn reference_plus_plus(view: MatrixView<'_>, k: usize, rng: &mut SimRng) -> Vec<Vec<f64>> {
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

    fn reference_fit(
        view: MatrixView<'_>,
        config: &KMeansConfig,
        rng: &mut SimRng,
    ) -> Result<KMeans, TrainError> {
        let n = view.n_rows();
        if n == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let dims = view.n_cols();
        let k0 = config.k_max.clamp(1, n);
        let mut centroids = reference_plus_plus(view, k0, rng);
        let mut proportions = vec![1.0 / k0 as f64; k0];
        let mut beta = config.beta;
        let mut assignments = vec![0usize; n];
        let mut iterations = 0;

        for iter in 0..config.max_iters {
            iterations = iter + 1;
            reference_assign_all(view, &centroids, &proportions, beta, &mut assignments);
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
                    reference_assign_all(view, &centroids, &proportions, beta, &mut assignments);
                }
            }
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
                    continue;
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

    fn reference_detector(
        view: MatrixView<'_>,
        y: &[usize],
        config: &KMeansConfig,
        rng: &mut SimRng,
    ) -> Result<KMeansDetector, TrainError> {
        let model = reference_fit(view, config, rng)?;
        let k = model.k();
        let mut positives = vec![0usize; k];
        let mut totals = vec![0usize; k];
        for (i, &yi) in y.iter().enumerate() {
            let c = nearest(view.row(i), model.centroids());
            totals[c] += 1;
            positives[c] += usize::from(yi == 1);
        }
        let cluster_labels =
            (0..k).map(|j| usize::from(positives[j] * 2 > totals[j].max(1))).collect();
        Ok(KMeansDetector { model, cluster_labels })
    }

    const BLOCK_LOOPS: [BlockLoop; 2] = [BlockLoop::Dispatched, BlockLoop::Baseline];

    /// Says so when [`lane_blocks`] cannot take its AVX2 arm on this
    /// CPU: the dispatched path is then the baseline copy again, and the
    /// AVX2 copy goes untested.
    fn report_missing_avx2_arm() {
        #[cfg(target_arch = "x86_64")]
        let runs = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let runs = false;
        if !runs {
            println!("no AVX2 on this CPU: the AVX2 arm of the K-Means block loop did not run");
        }
    }

    /// `n` rows of `dims` values around three centres, about one value
    /// in seven a signed zero. With `special`, about one value in nine
    /// is NaN, ±0.0 or ±inf instead. Every fourth row repeats an earlier
    /// one, so distances tie exactly.
    fn probe_rows(n: usize, dims: usize, special: bool, rng: &mut SimRng) -> FeatureMatrix {
        let mut m = FeatureMatrix::new(dims);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        for i in 0..n {
            let row = if i % 4 == 3 {
                rows[rng.below(i as u64) as usize].clone()
            } else {
                let centre = (i % 3) as f64 * 4.0 - 4.0;
                (0..dims)
                    .map(|_| {
                        if special && rng.below(9) == 0 {
                            let values = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
                            values[rng.below(5) as usize]
                        } else if rng.below(7) == 0 {
                            [0.0, -0.0][rng.below(2) as usize]
                        } else {
                            centre + rng.standard_normal()
                        }
                    })
                    .collect()
            };
            m.push_row(&row);
            rows.push(row);
        }
        m
    }

    /// Spans over `0..n`: one whole span, a ragged tiling with empty
    /// spans, spans across lane blocks and skipped rows, and no span.
    fn tilings(n: usize, rng: &mut SimRng) -> [Vec<RowSpan>; 3] {
        let mut ragged = Vec::new();
        let mut at = 0;
        while at < n {
            let len = (rng.below(20) as usize).min(n - at);
            ragged.push(RowSpan { start: at, len });
            at += len + usize::from(rng.below(4) == 0);
        }
        [vec![RowSpan { start: 0, len: n }], ragged, Vec::new()]
    }

    /// Every prediction path of `detector` over the rows of `m` against
    /// the reference's nearest centroid: `KMeans::assign`,
    /// `predict_with_work`, both copies of the block loop, the span
    /// kernel over ragged tilings (classes and per-span work) and
    /// `predict_view`. And the penalised assignment of the fit, both
    /// copies, against `best_cluster` at each of `betas`.
    fn assert_predictions_match_reference(
        detector: &KMeansDetector,
        m: &FeatureMatrix,
        betas: &[f64],
        rng: &mut SimRng,
        what: &str,
    ) {
        let centroids = detector.model.centroids();
        let per_row = (centroids.len() * centroids[0].len()) as u64;
        let want: Vec<usize> = m.rows().map(|row| nearest(row, centroids)).collect();
        let classes: Vec<usize> = want.iter().map(|&j| detector.cluster_labels[j]).collect();
        for (i, row) in m.rows().enumerate() {
            assert_eq!(detector.model.assign(row), want[i], "{what}: one lane, row {i}");
            assert_eq!(detector.predict_with_work(row), (classes[i], per_row), "{what}: row {i}");
        }
        let n = m.n_rows();
        for block_loop in BLOCK_LOOPS {
            let mut got = Vec::new();
            nearest_rows(block_loop, m.view(), 0..n, centroids, |j| got.push(j));
            assert_eq!(got, want, "{what}, {block_loop:?}: assignments");
            let mut out = Vec::new();
            detector.predict_rows(block_loop, m.view(), 0..n, &mut out);
            assert_eq!(out, classes, "{what}, {block_loop:?}: predictions");
            for &beta in betas {
                // Proportions with an empty and a whole cluster among them.
                let proportions: Vec<f64> = (0..centroids.len())
                    .map(|j| [0.0, 1.0, rng.uniform()][j % 3])
                    .collect();
                let want: Vec<usize> = m
                    .rows()
                    .map(|row| best_cluster(row, centroids, &proportions, beta))
                    .collect();
                let mut got = vec![7; 2];
                assign_all(block_loop, m.view(), centroids, &proportions, beta, &mut got);
                assert_eq!(got, want, "{what}, {block_loop:?}: penalised at beta {beta}");
            }
        }
        for spans in tilings(n, rng) {
            let (mut out, mut span_work) = (vec![9; 3], vec![7]);
            let total = detector.predict_batch_spans_into(m.view(), &spans, &mut out, &mut span_work);
            let rows = spans.iter().flat_map(RowSpan::range);
            assert_eq!(out, rows.map(|i| classes[i]).collect::<Vec<_>>(), "{what}: {spans:?}");
            let work: Vec<u64> = spans.iter().map(|span| span.len as u64 * per_row).collect();
            assert_eq!(total, work.iter().sum::<u64>(), "{what}: {spans:?}");
            assert_eq!(span_work, work, "{what}: {spans:?}");
        }
        assert_eq!(predict_view(detector, m.view()), (classes, n as u64 * per_row), "{what}");
    }

    /// A fit's every float as bits, its iteration count and its blob.
    type FitBits = (Vec<Vec<u64>>, Vec<u64>, u64, usize, Vec<u8>);

    fn fit_bits(fit: Result<KMeansDetector, TrainError>) -> Result<FitBits, TrainError> {
        fit.map(|d| {
            let m = &d.model;
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            (
                m.centroids.iter().map(|c| bits(c)).collect(),
                bits(&m.proportions),
                m.inertia.to_bits(),
                m.iterations,
                d.encode(),
            )
        })
    }

    /// The fit through both copies of the block loop, at one and two
    /// threads, against the reference fit bit for bit: centroids,
    /// proportions, inertia, iterations and the detector's blob.
    fn assert_fit_matches_reference(m: &FeatureMatrix, y: &[usize], config: &KMeansConfig, seed: u64, what: &str) {
        let want = fit_bits(reference_detector(m.view(), y, config, &mut SimRng::seed_from(seed)));
        for threads in [1, 2] {
            for block_loop in BLOCK_LOOPS {
                let got = par::with_threads(threads, || {
                    let mut rng = SimRng::seed_from(seed);
                    fit_bits(KMeansDetector::fit(m.view(), y, config, &mut rng, block_loop))
                });
                assert_eq!(got, want, "{what}, {threads} threads, {block_loop:?}");
            }
        }
    }

    /// The lane kernel, in both compiled copies, against the
    /// row-at-a-time reference, bit for bit: at widths 0, 1, 7, 26 (the
    /// IDS's) and 33, for k from 1 to 24, on 1 to 50 rows with repeated
    /// rows and signed zeros, with and without NaN and ±inf, at beta 0
    /// and 1. Prediction runs a fitted detector and one whose centroids
    /// repeat with alternating labels, so exact ties decide the class,
    /// also on rows wider than the centroids. The fit also runs on three
    /// chunks of rows.
    #[test]
    fn lane_kernel_matches_the_reference_bits() {
        report_missing_avx2_arm();
        let row_counts = [1, 2, 7, 8, 9, 15, 16, 17, 33, 50];
        for seed in 0..2u64 {
            let special = seed == 1;
            for dims in [0, 1, 7, 26, 33] {
                for k in 1..=24 {
                    let mut rng = SimRng::seed_from(seed * 10_000 + dims as u64 * 100 + k as u64);
                    let n = row_counts[(k + dims + seed as usize) % row_counts.len()];
                    let m = probe_rows(n, dims, special, &mut rng);
                    let y: Vec<usize> = (0..m.n_rows()).map(|i| (i / 3) % 2).collect();
                    let what = format!("seed {seed}, width {dims}, k {k}, {n} rows");
                    for beta in [0.0, 1.0] {
                        let config = KMeansConfig { k_max: k, beta, ..KMeansConfig::default() };
                        let fit_seed = rng.below(1 << 20);
                        assert_fit_matches_reference(&m, &y, &config, fit_seed, &what);
                        if let Ok(detector) = KMeansDetector::fit_view(m.view(), &y, &config, &mut SimRng::seed_from(fit_seed)) {
                            assert_predictions_match_reference(&detector, &m, &[0.0, 0.5], &mut rng, &what);
                        }
                    }
                    // Centroids cut from a wider matrix's rows, five of
                    // them repeating, labelled by index parity.
                    let wide = probe_rows(50, dims + 3, special, &mut rng);
                    let centroids: Vec<Vec<f64>> =
                        (0..k).map(|j| wide.row((j * 7 + seed as usize) % 5)[..dims].to_vec()).collect();
                    let ties = KMeansDetector {
                        model: KMeans { centroids, proportions: vec![1.0 / k as f64; k], inertia: 0.0, iterations: 0 },
                        cluster_labels: (0..k).map(|j| j % 2).collect(),
                    };
                    let what = format!("{what}, repeated centroids");
                    assert_predictions_match_reference(&ties, &wide, &[0.0, 2.0], &mut rng, &what);
                    if m.n_rows() > 0 {
                        assert_predictions_match_reference(&ties, &m, &[3.0], &mut rng, &what);
                    }
                }
            }
        }
        let mut rng = SimRng::seed_from(26);
        let m = probe_rows(2 * CHUNK + 37, 26, false, &mut rng);
        let y: Vec<usize> = (0..m.n_rows()).map(|i| usize::from(i % 5 < 2)).collect();
        for (k, beta) in [(11, 0.0), (16, 1.0)] {
            let config = KMeansConfig { k_max: k, beta, ..KMeansConfig::default() };
            assert_fit_matches_reference(&m, &y, &config, 7, &format!("three chunks, k {k}, beta {beta}"));
        }
    }

    /// The span kernel and `predict_view` are bit-identical to the
    /// reference's per-row nearest centroid on classes and work, across
    /// ragged tilings.
    #[test]
    fn flat_batch_predict_is_bit_identical_to_per_row() {
        let mut rng = SimRng::seed_from(7);
        let (x, y) = blobs(240, &[(-5.0, 0.0), (0.0, 5.0), (5.0, 0.0), (0.0, -5.0)], &mut rng);
        let detector = KMeansDetector::fit_view(x.view(), &y, &KMeansConfig::default(), &mut rng).unwrap();
        let centroids = detector.model().centroids();
        let per_row: Vec<(usize, u64)> = x
            .rows()
            .map(|row| (detector.cluster_labels[nearest(row, centroids)], (centroids.len() * 2) as u64))
            .collect();
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
        let first = gather_rows(&x, &first);
        let rows = first.view();
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
        assert_trailing_byte_rejected(&blob, KMeansDetector::decode);
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
