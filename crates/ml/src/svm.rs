//! A linear Support Vector Machine — the first of the additional models
//! the paper's §V names for its extended investigation ("e.g., Support
//! Vector Machine (SVM), Isolation Forest (IF), Variational Autoencoder
//! (VAE)").
//!
//! Trained with the Pegasos primal sub-gradient method: stochastic
//! updates on the hinge loss with L2 regularisation and the classic
//! `1/(λ t)` step size.

use netsim::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::classifier::{validate_matrix, Classifier, TrainError};
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::matrix::MatrixView;

const SVM_MAGIC: u32 = 0x73766d31; // "svm1"

/// SVM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// L2 regularisation strength λ.
    pub lambda: f64,
    /// Passes over the training set.
    pub epochs: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig { lambda: 1e-4, epochs: 10 }
    }
}

/// A trained linear SVM (binary: 0 = benign, 1 = malicious).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Trains on the rows of a matrix view with Pegasos sub-gradient
    /// descent (inherently sequential: each update reads the last).
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for unusable training data.
    pub fn fit_view(
        view: MatrixView<'_>,
        y: &[usize],
        config: &SvmConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        let dims = validate_matrix(view, y)?;
        let mut weights = vec![0.0; dims];
        let mut bias = 0.0;
        let lambda = config.lambda.max(1e-12);
        let mut order: Vec<usize> = (0..view.n_rows()).collect();
        let mut t = 0usize;
        for _ in 0..config.epochs.max(1) {
            rng.shuffle(&mut order);
            for &i in &order {
                t += 1;
                let eta = 1.0 / (lambda * t as f64);
                let label = if y[i] == 1 { 1.0 } else { -1.0 };
                let row = view.row(i);
                let margin = label * (dot(&weights, row) + bias);
                // w <- (1 - eta*lambda) w  [+ eta*y*x on margin violation]
                let shrink = 1.0 - eta * lambda;
                for w in &mut weights {
                    *w *= shrink;
                }
                if margin < 1.0 {
                    for (w, &v) in weights.iter_mut().zip(row) {
                        *w += eta * label * v;
                    }
                    bias += eta * label;
                }
            }
        }
        Ok(LinearSvm { weights, bias })
    }

    /// The signed decision value `w·x + b`.
    pub fn decision(&self, features: &[f64]) -> f64 {
        dot(&self.weights, features) + self.bias
    }

    /// The learned weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Decodes a model from its binary blob.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(blob);
        d.expect_magic(SVM_MAGIC)?;
        let weights = d.get_f64_slice()?;
        let bias = d.get_f64()?;
        Ok(LinearSvm { weights, bias })
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl Classifier for LinearSvm {
    fn name(&self) -> &'static str {
        "SVM"
    }

    fn predict(&self, features: &[f64]) -> usize {
        usize::from(self.decision(features) >= 0.0)
    }

    fn input_dims(&self) -> Option<usize> {
        Some(self.weights.len())
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(SVM_MAGIC);
        e.put_f64_slice(&self.weights);
        e.put_f64(self.bias);
        e.finish()
    }

    fn memory_bytes(&self) -> u64 {
        ((self.weights.len() + 1) * std::mem::size_of::<f64>()) as u64
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::FeatureMatrix;

    fn blobs(n: usize, rng: &mut SimRng) -> (FeatureMatrix, Vec<usize>) {
        let mut x = FeatureMatrix::new(2);
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let center = if class == 0 { -2.0 } else { 2.0 };
            x.push_row(&[center + rng.standard_normal(), rng.standard_normal()]);
            y.push(class);
        }
        (x, y)
    }

    #[test]
    fn svm_separates_blobs() {
        let mut rng = SimRng::seed_from(1);
        let (x, y) = blobs(400, &mut rng);
        let svm = LinearSvm::fit_view(x.view(), &y, &SvmConfig::default(), &mut rng).unwrap();
        let correct = x.rows().zip(&y).filter(|(xi, &yi)| svm.predict(xi) == yi).count();
        assert!(correct as f64 / x.n_rows() as f64 > 0.95, "acc {correct}/400");
        // The separating direction is along feature 0.
        assert!(svm.weights()[0].abs() > svm.weights()[1].abs());
    }

    #[test]
    fn codec_roundtrip() {
        let mut rng = SimRng::seed_from(2);
        let (x, y) = blobs(100, &mut rng);
        let svm = LinearSvm::fit_view(x.view(), &y, &SvmConfig::default(), &mut rng).unwrap();
        let back = LinearSvm::decode(&svm.encode()).unwrap();
        assert_eq!(back, svm);
    }

    #[test]
    fn svm_model_is_tiny() {
        let mut rng = SimRng::seed_from(3);
        let (x, y) = blobs(100, &mut rng);
        let svm = LinearSvm::fit_view(x.view(), &y, &SvmConfig::default(), &mut rng).unwrap();
        assert!(svm.encode().len() < 256);
        assert_eq!(svm.memory_bytes(), 3 * 8);
    }

    #[test]
    fn rejects_single_class() {
        let mut rng = SimRng::seed_from(4);
        let x = FeatureMatrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(
            LinearSvm::fit_view(x.view(), &[0, 0], &SvmConfig::default(), &mut rng),
            Err(TrainError::SingleClass)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = SimRng::seed_from(5);
            let (x, y) = blobs(100, &mut rng);
            LinearSvm::fit_view(x.view(), &y, &SvmConfig::default(), &mut rng).unwrap().encode()
        };
        assert_eq!(run(), run());
    }
}
