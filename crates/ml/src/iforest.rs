//! Isolation Forest — the second of the paper's §V extension models.
//!
//! Anomalies are easier to isolate: random axis-aligned splits separate
//! them from the bulk in fewer steps, so short average path lengths mean
//! high anomaly scores (Liu, Ting & Zhou 2008). For IDS use the anomaly
//! score is thresholded; the threshold is fitted on the labelled
//! training capture to maximise accuracy (the supervised calibration
//! step any deployed anomaly detector needs).

use netsim::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::classifier::{validate_matrix, Classifier, TrainError};
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::matrix::MatrixView;

const IFOREST_MAGIC: u32 = 0x69666f31; // "ifo1"

/// Isolation Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsolationForestConfig {
    /// Number of isolation trees.
    pub n_trees: usize,
    /// Sub-sample size per tree (the classic ψ = 256).
    pub sample_size: usize,
}

impl Default for IsolationForestConfig {
    fn default() -> Self {
        IsolationForestConfig { n_trees: 50, sample_size: 256 }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// External node: `size` training points ended here.
    Leaf { size: u32 },
    Split { feature: u32, threshold: f64, left: u32, right: u32 },
}

#[derive(Debug, Clone, PartialEq)]
struct IsolationTree {
    nodes: Vec<Node>,
}

impl IsolationTree {
    fn fit(view: MatrixView<'_>, sample: &[usize], max_depth: usize, rng: &mut SimRng) -> Self {
        let mut tree = IsolationTree { nodes: Vec::new() };
        tree.grow(view, sample.to_vec(), 0, max_depth, rng);
        tree
    }

    /// Grows the subtree over `indices` in pre-order: a split's slot is
    /// reserved before its children grow, so every child index lies
    /// after its parent's (what [`IsolationForest::decode`] checks).
    fn grow(
        &mut self,
        view: MatrixView<'_>,
        indices: Vec<usize>,
        depth: usize,
        max_depth: usize,
        rng: &mut SimRng,
    ) -> u32 {
        let id = self.nodes.len() as u32;
        if depth >= max_depth || indices.len() <= 1 {
            self.nodes.push(Node::Leaf { size: indices.len() as u32 });
            return id;
        }
        let dims = view.n_cols();
        // Pick a random feature with spread; give up after a few tries.
        let mut chosen = None;
        for _ in 0..8 {
            let feature = rng.below(dims as u64) as usize;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for &i in &indices {
                lo = lo.min(view.row(i)[feature]);
                hi = hi.max(view.row(i)[feature]);
            }
            if hi - lo > 1e-12 {
                chosen = Some((feature, rng.uniform_range(lo, hi)));
                break;
            }
        }
        let Some((feature, threshold)) = chosen else {
            self.nodes.push(Node::Leaf { size: indices.len() as u32 });
            return id;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| view.row(i)[feature] < threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            self.nodes.push(Node::Leaf { size: indices.len() as u32 });
            return id;
        }
        self.nodes.push(Node::Leaf { size: 0 }); // placeholder
        let left = self.grow(view, left_idx, depth + 1, max_depth, rng);
        let right = self.grow(view, right_idx, depth + 1, max_depth, rng);
        self.nodes[id as usize] =
            Node::Split { feature: feature as u32, threshold, left, right };
        id
    }

    /// Path length of a point, with the standard `c(size)` adjustment at
    /// external nodes.
    fn path_length(&self, features: &[f64]) -> f64 {
        let mut node = 0u32;
        let mut depth = 0.0;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { size } => return depth + c_factor(*size as usize),
                Node::Split { feature, threshold, left, right } => {
                    depth += 1.0;
                    node = if features[*feature as usize] < *threshold { *left } else { *right };
                }
            }
        }
    }
}

/// Average unsuccessful-search path length of a BST with `n` nodes.
fn c_factor(n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let n = n as f64;
    2.0 * ((n - 1.0).ln() + 0.577_215_664_901_532_9) - 2.0 * (n - 1.0) / n
}

/// A fitted Isolation Forest with a calibrated decision threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationForest {
    trees: Vec<IsolationTree>,
    /// The row width the forest was fitted on.
    dims: usize,
    sample_size: usize,
    /// Scores above this are classified malicious.
    threshold: f64,
}

impl IsolationForest {
    /// Fits the forest on the rows of a matrix view and calibrates the
    /// score threshold on the labels. Tree sampling draws from one
    /// shared rng stream, so the build is sequential.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for unusable training data.
    pub fn fit_view(
        view: MatrixView<'_>,
        y: &[usize],
        config: &IsolationForestConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        let dims = validate_matrix(view, y)?;
        let n = view.n_rows();
        let sample_size = config.sample_size.clamp(2, n);
        let max_depth = (sample_size as f64).log2().ceil() as usize;
        let trees: Vec<IsolationTree> = (0..config.n_trees.max(1))
            .map(|_| {
                let sample: Vec<usize> =
                    (0..sample_size).map(|_| rng.below(n as u64) as usize).collect();
                IsolationTree::fit(view, &sample, max_depth, rng)
            })
            .collect();
        let mut forest = IsolationForest { trees, dims, sample_size, threshold: 0.5 };

        // Calibrate the threshold: scan candidate quantiles of the
        // training scores for the best accuracy.
        let scores: Vec<f64> = view.rows().map(|xi| forest.score(xi)).collect();
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let mut best = (0usize, forest.threshold);
        for q in 1..40 {
            let threshold = sorted[(q * sorted.len() / 40).min(sorted.len() - 1)];
            let correct = scores
                .iter()
                .zip(y)
                .filter(|(&s, &label)| usize::from(s > threshold) == label)
                .count();
            if correct > best.0 {
                best = (correct, threshold);
            }
        }
        forest.threshold = best.1;
        Ok(forest)
    }

    /// The anomaly score in `(0, 1)`: ~0.5 is average, near 1 anomalous.
    pub fn score(&self, features: &[f64]) -> f64 {
        let mean_path: f64 = self.trees.iter().map(|t| t.path_length(features)).sum::<f64>()
            / self.trees.len() as f64;
        let c = c_factor(self.sample_size).max(1e-12);
        2f64.powf(-mean_path / c)
    }

    /// The calibrated decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Decodes a model from its binary blob, rejecting any blob whose
    /// walk could panic or fail to end: an empty tree, a child outside
    /// `(parent, count)` (the grower writes each child after its parent,
    /// so this also rules out cycles) or a split feature at or past the
    /// forest's width.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(blob);
        d.expect_magic(IFOREST_MAGIC)?;
        let dims = d.get_usize()?;
        let sample_size = d.get_usize()?;
        let threshold = d.get_f64()?;
        let n_trees = d.get_usize()?;
        if n_trees > 1 << 16 {
            return Err(DecodeError::Corrupt("tree count"));
        }
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            let count = d.get_usize()?;
            if count == 0 {
                return Err(DecodeError::Corrupt("empty tree"));
            }
            if count > 1 << 24 {
                return Err(DecodeError::Corrupt("node count"));
            }
            let mut nodes = Vec::with_capacity(count.min(1 << 20));
            for id in 0..count {
                let node = match d.get_u8()? {
                    0 => Node::Leaf { size: d.get_u32()? },
                    1 => {
                        let feature = d.get_u32()?;
                        let threshold = d.get_f64()?;
                        let (left, right) = (d.get_u32()?, d.get_u32()?);
                        if feature as usize >= dims {
                            return Err(DecodeError::Corrupt("split feature"));
                        }
                        if [left, right].iter().any(|&c| c as usize <= id || c as usize >= count) {
                            return Err(DecodeError::Corrupt("split child"));
                        }
                        Node::Split { feature, threshold, left, right }
                    }
                    _ => return Err(DecodeError::Corrupt("node tag")),
                };
                nodes.push(node);
            }
            trees.push(IsolationTree { nodes });
        }
        Ok(IsolationForest { trees, dims, sample_size, threshold })
    }
}

impl Classifier for IsolationForest {
    fn name(&self) -> &'static str {
        "IF"
    }

    fn predict(&self, features: &[f64]) -> usize {
        usize::from(self.score(features) > self.threshold)
    }

    fn input_dims(&self) -> Option<usize> {
        Some(self.dims)
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(IFOREST_MAGIC);
        e.put_usize(self.dims);
        e.put_usize(self.sample_size);
        e.put_f64(self.threshold);
        e.put_usize(self.trees.len());
        for tree in &self.trees {
            e.put_usize(tree.nodes.len());
            for node in &tree.nodes {
                match node {
                    Node::Leaf { size } => {
                        e.put_u8(0);
                        e.put_u32(*size);
                    }
                    Node::Split { feature, threshold, left, right } => {
                        e.put_u8(1);
                        e.put_u32(*feature);
                        e.put_f64(*threshold);
                        e.put_u32(*left);
                        e.put_u32(*right);
                    }
                }
            }
        }
        e.finish()
    }

    fn memory_bytes(&self) -> u64 {
        let nodes: usize = self.trees.iter().map(|t| t.nodes.len()).sum();
        (nodes * std::mem::size_of::<Node>()) as u64
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::FeatureMatrix;

    /// A dense benign cluster plus scattered anomalies, `dims` wide.
    fn anomaly_data(n: usize, dims: usize, rng: &mut SimRng) -> (FeatureMatrix, Vec<usize>) {
        let mut x = FeatureMatrix::new(dims);
        let mut y = Vec::new();
        for i in 0..n {
            let row: Vec<f64> = if i % 10 == 0 {
                // Anomaly: far from the cluster.
                y.push(1);
                (0..dims).map(|_| rng.uniform_range(5.0, 15.0)).collect()
            } else {
                y.push(0);
                (0..dims).map(|_| rng.standard_normal() * 0.5).collect()
            };
            x.push_row(&row);
        }
        (x, y)
    }

    #[test]
    fn anomalies_score_higher() {
        let mut rng = SimRng::seed_from(1);
        let (x, y) = anomaly_data(500, 2, &mut rng);
        let forest =
            IsolationForest::fit_view(x.view(), &y, &IsolationForestConfig::default(), &mut rng)
                .unwrap();
        let mean_score = |class: usize| {
            let scores: Vec<f64> =
                x.rows().zip(&y).filter(|(_, &l)| l == class).map(|(xi, _)| forest.score(xi)).collect();
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        let (benign_mean, anomaly_mean) = (mean_score(0), mean_score(1));
        assert!(anomaly_mean > benign_mean + 0.1, "{anomaly_mean} vs {benign_mean}");
    }

    #[test]
    fn calibrated_forest_classifies_well() {
        let mut rng = SimRng::seed_from(2);
        let (x, y) = anomaly_data(600, 2, &mut rng);
        let forest =
            IsolationForest::fit_view(x.view(), &y, &IsolationForestConfig::default(), &mut rng)
                .unwrap();
        let correct = x.rows().zip(&y).filter(|(xi, &yi)| forest.predict(xi) == yi).count();
        assert!(correct as f64 / x.n_rows() as f64 > 0.93, "acc {correct}/600");
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let mut rng = SimRng::seed_from(3);
        let (x, y) = anomaly_data(200, 2, &mut rng);
        let forest =
            IsolationForest::fit_view(x.view(), &y, &IsolationForestConfig::default(), &mut rng)
                .unwrap();
        for xi in x.rows() {
            let s = forest.score(xi);
            assert!((0.0..=1.0).contains(&s), "{s}");
        }
    }

    #[test]
    fn codec_roundtrip_preserves_predictions() {
        let mut rng = SimRng::seed_from(4);
        let (x, y) = anomaly_data(200, 2, &mut rng);
        let config = IsolationForestConfig { n_trees: 10, sample_size: 64 };
        let forest = IsolationForest::fit_view(x.view(), &y, &config, &mut rng).unwrap();
        let back = IsolationForest::decode(&forest.encode()).unwrap();
        assert_eq!(back, forest);
        assert_eq!(back.input_dims(), Some(2));
        for xi in x.rows() {
            assert_eq!(forest.predict(xi), back.predict(xi));
        }
    }

    /// Structure-aware decoder fuzzing: the forest's dims word, each
    /// tree's node count and each split's feature and child words in a
    /// trained forest's blob are overwritten with 0, the node's own
    /// index (a self-loop for a child), the tree's node count and
    /// `u32::MAX`. Every mutant must fail to decode or decode to a
    /// forest that predicts every row of a 26-wide probe, and every
    /// truncation must fail to decode.
    #[test]
    fn decode_mutants_error_or_predict_cleanly() {
        let mut rng = SimRng::seed_from(5);
        let (x, y) = anomaly_data(200, 26, &mut rng);
        let config = IsolationForestConfig { n_trees: 4, sample_size: 32 };
        let forest = IsolationForest::fit_view(x.view(), &y, &config, &mut rng).unwrap();
        let blob = forest.encode();
        let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        // (offset, width in bytes, own node index, tree node count)
        let mut fields: Vec<(usize, usize, u64, u64)> = Vec::new();
        let mut at = 4 + 8 + 8 + 8 + 8;
        fields.push((4, 8, 0, word(at)));
        for _ in 0..forest.trees.len() {
            let count = word(at);
            fields.push((at, 8, 0, count));
            at += 8;
            for id in 0..count {
                if blob[at] == 0 {
                    at += 1 + 4;
                } else {
                    // After the tag: feature, threshold, left, right.
                    fields.push((at + 1, 4, id, count));
                    fields.push((at + 13, 4, id, count));
                    fields.push((at + 17, 4, id, count));
                    at += 1 + 4 + 8 + 4 + 4;
                }
            }
        }
        assert_eq!(at, blob.len());
        let mut decoded = 0;
        for &(field, width, id, count) in &fields {
            for value in [0, id, count, u64::from(u32::MAX)] {
                let mut mutant = blob.clone();
                mutant[field..field + width].copy_from_slice(&value.to_le_bytes()[..width]);
                let Ok(back) = IsolationForest::decode(&mutant) else {
                    continue;
                };
                decoded += 1;
                for row in x.rows() {
                    let _ = back.predict(row);
                }
            }
        }
        // Feature and child words that stay in range still decode.
        assert!(decoded > 0);
        for cut in 0..blob.len() {
            assert!(IsolationForest::decode(&blob[..cut]).is_err(), "truncated at {cut}");
        }
    }

    #[test]
    fn c_factor_grows_logarithmically() {
        assert_eq!(c_factor(1), 0.0);
        assert!(c_factor(256) > c_factor(16));
        assert!(c_factor(256) < 2.0 * (256f64).ln());
    }
}
