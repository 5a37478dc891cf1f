//! A dense autoencoder anomaly detector — standing in for the
//! "Variational Autoencoder (VAE)" of the paper's §V extension list.
//!
//! The encoder compresses a feature vector through a bottleneck and the
//! decoder reconstructs it; trained on *benign traffic only*, the
//! reconstruction error is small for benign inputs and large for attack
//! traffic the network never saw. The decision threshold is calibrated
//! on the labelled training capture. (A deterministic autoencoder keeps
//! the reproduction dependency-free; the VAE's KL term changes the
//! latent geometry, not the detection principle.)

use netsim::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::classifier::{validate_matrix, Classifier, TrainError};
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::matrix::MatrixView;
use crate::nn::{relu, relu_grad, Adam, Dense};

const AE_MAGIC: u32 = 0x61653131; // "ae11"

/// Autoencoder hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoencoderConfig {
    /// Bottleneck width.
    pub latent: usize,
    /// Hidden width of encoder/decoder.
    pub hidden: usize,
    /// Training epochs (on benign samples only).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

impl Default for AutoencoderConfig {
    fn default() -> Self {
        AutoencoderConfig { latent: 6, hidden: 16, epochs: 12, batch_size: 64, learning_rate: 1e-3 }
    }
}

/// A trained autoencoder anomaly detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Autoencoder {
    enc1: Dense,
    enc2: Dense,
    dec1: Dense,
    dec2: Dense,
    threshold: f64,
}

impl Autoencoder {
    /// Trains on the benign rows of a matrix view and calibrates the
    /// error threshold on both classes. SGD over the benign subset is
    /// inherently sequential.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for unusable training data.
    pub fn fit_view(
        view: MatrixView<'_>,
        y: &[usize],
        config: &AutoencoderConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        let dims = validate_matrix(view, y)?;
        let benign: Vec<usize> = (0..view.n_rows()).filter(|&i| y[i] == 0).collect();

        let mut net = Autoencoder {
            enc1: Dense::new(dims, config.hidden, rng),
            enc2: Dense::new(config.hidden, config.latent, rng),
            dec1: Dense::new(config.latent, config.hidden, rng),
            dec2: Dense::new(config.hidden, dims, rng),
            threshold: 0.0,
        };

        let mut adams = (
            Adam::new(net.enc1.w.len()),
            Adam::new(net.enc1.b.len()),
            Adam::new(net.enc2.w.len()),
            Adam::new(net.enc2.b.len()),
            Adam::new(net.dec1.w.len()),
            Adam::new(net.dec1.b.len()),
            Adam::new(net.dec2.w.len()),
            Adam::new(net.dec2.b.len()),
        );
        let mut order = benign.clone();
        let mut t = 0usize;
        for _ in 0..config.epochs {
            rng.shuffle(&mut order);
            for batch in order.chunks(config.batch_size.max(1)) {
                let mut g = [
                    vec![0.0; net.enc1.w.len()],
                    vec![0.0; net.enc1.b.len()],
                    vec![0.0; net.enc2.w.len()],
                    vec![0.0; net.enc2.b.len()],
                    vec![0.0; net.dec1.w.len()],
                    vec![0.0; net.dec1.b.len()],
                    vec![0.0; net.dec2.w.len()],
                    vec![0.0; net.dec2.b.len()],
                ];
                for &i in batch {
                    net.accumulate_gradients(view.row(i), &mut g);
                }
                let scale = 1.0 / batch.len() as f64;
                for grads in &mut g {
                    for v in grads.iter_mut() {
                        *v *= scale;
                    }
                }
                t += 1;
                let lr = config.learning_rate;
                adams.0.step(&mut net.enc1.w, &g[0], lr, t);
                adams.1.step(&mut net.enc1.b, &g[1], lr, t);
                adams.2.step(&mut net.enc2.w, &g[2], lr, t);
                adams.3.step(&mut net.enc2.b, &g[3], lr, t);
                adams.4.step(&mut net.dec1.w, &g[4], lr, t);
                adams.5.step(&mut net.dec1.b, &g[5], lr, t);
                adams.6.step(&mut net.dec2.w, &g[6], lr, t);
                adams.7.step(&mut net.dec2.b, &g[7], lr, t);
            }
        }

        // Calibrate: choose the error threshold with the best training
        // accuracy across candidate quantiles.
        let errors: Vec<f64> = view.rows().map(|xi| net.reconstruction_error(xi)).collect();
        // total_cmp: NaN reconstruction errors (degenerate inputs can
        // overflow the forward pass) sort last instead of panicking, and
        // the quantile candidates below come from the finite prefix.
        let mut sorted = errors.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut best = (0usize, sorted[sorted.len() / 2]);
        for q in 1..40 {
            let threshold = sorted[(q * sorted.len() / 40).min(sorted.len() - 1)];
            let correct = errors
                .iter()
                .zip(y)
                .filter(|(&e, &label)| usize::from(e > threshold) == label)
                .count();
            if correct > best.0 {
                best = (correct, threshold);
            }
        }
        net.threshold = best.1;
        Ok(net)
    }

    #[allow(clippy::type_complexity)]
    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let z1 = self.enc1.forward(x);
        let mut a1 = z1.clone();
        relu(&mut a1);
        let latent = self.enc2.forward(&a1);
        let z2 = self.dec1.forward(&latent);
        let mut a2 = z2.clone();
        relu(&mut a2);
        let output = self.dec2.forward(&a2);
        (z1, a1, latent, z2, output)
    }

    fn accumulate_gradients(&self, x: &[f64], g: &mut [Vec<f64>; 8]) {
        let (z1, a1, latent, z2, output) = self.forward(x);
        let mut a2 = z2.clone();
        relu(&mut a2);
        let [g0, g1, g2, g3, g4, g5, g6, g7] = g;
        // L = mean squared error; dL/dout = 2 (out - x) / dims.
        let dims = x.len() as f64;
        let dout: Vec<f64> = output.iter().zip(x).map(|(o, v)| 2.0 * (o - v) / dims).collect();
        let mut da2 = self.dec2.backward(&a2, &dout, g6, g7);
        relu_grad(&z2, &mut da2);
        let dlatent = self.dec1.backward(&latent, &da2, g4, g5);
        let mut da1 = self.enc2.backward(&a1, &dlatent, g2, g3);
        relu_grad(&z1, &mut da1);
        let _ = self.enc1.backward(x, &da1, g0, g1);
    }

    /// Mean-squared reconstruction error of a sample.
    pub fn reconstruction_error(&self, x: &[f64]) -> f64 {
        let (_, _, _, _, output) = self.forward(x);
        output.iter().zip(x).map(|(o, v)| (o - v).powi(2)).sum::<f64>() / x.len() as f64
    }

    /// The calibrated error threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Decodes a model from its binary blob.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(blob);
        d.expect_magic(AE_MAGIC)?;
        let threshold = d.get_f64()?;
        let mut layer = || -> Result<Dense, DecodeError> {
            let input = d.get_usize()?;
            let output = d.get_usize()?;
            let w = d.get_f64_slice()?;
            let b = d.get_f64_slice()?;
            if w.len() != input * output || b.len() != output {
                return Err(DecodeError::Corrupt("dense arity"));
            }
            Ok(Dense { input, output, w, b })
        };
        Ok(Autoencoder {
            enc1: layer()?,
            enc2: layer()?,
            dec1: layer()?,
            dec2: layer()?,
            threshold,
        })
    }
}

impl Classifier for Autoencoder {
    fn name(&self) -> &'static str {
        "AE"
    }

    fn predict(&self, features: &[f64]) -> usize {
        usize::from(self.reconstruction_error(features) > self.threshold)
    }

    fn input_dims(&self) -> Option<usize> {
        Some(self.enc1.input)
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(AE_MAGIC);
        e.put_f64(self.threshold);
        for layer in [&self.enc1, &self.enc2, &self.dec1, &self.dec2] {
            e.put_usize(layer.input);
            e.put_usize(layer.output);
            e.put_f64_slice(&layer.w);
            e.put_f64_slice(&layer.b);
        }
        e.finish()
    }

    fn memory_bytes(&self) -> u64 {
        let params: usize = [&self.enc1, &self.enc2, &self.dec1, &self.dec2]
            .iter()
            .map(|l| l.w.len() + l.b.len())
            .sum();
        (params * std::mem::size_of::<f64>()) as u64
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::FeatureMatrix;

    /// Benign points on a low-dimensional structure; anomalies off it.
    fn structured_data(n: usize, rng: &mut SimRng) -> (FeatureMatrix, Vec<usize>) {
        let mut x = FeatureMatrix::new(4);
        let mut y = Vec::new();
        for i in 0..n {
            if i % 8 == 0 {
                // Anomaly: breaks the correlation structure.
                x.push_row(&[
                    rng.uniform_range(-3.0, 3.0),
                    rng.uniform_range(-3.0, 3.0),
                    rng.uniform_range(-3.0, 3.0),
                    rng.uniform_range(-3.0, 3.0),
                ]);
                y.push(1);
            } else {
                // Benign: 1-dimensional manifold x -> (x, 2x, -x, 0.5x).
                let t = rng.standard_normal();
                x.push_row(&[t, 2.0 * t, -t, 0.5 * t]);
                y.push(0);
            }
        }
        (x, y)
    }

    #[test]
    fn reconstruction_error_separates_classes() {
        let mut rng = SimRng::seed_from(1);
        let (x, y) = structured_data(800, &mut rng);
        let net = Autoencoder::fit_view(x.view(), &y, &AutoencoderConfig::default(), &mut rng).unwrap();
        let mean = |label: usize| {
            let items: Vec<f64> = x
                .rows()
                .zip(&y)
                .filter(|(_, &l)| l == label)
                .map(|(xi, _)| net.reconstruction_error(xi))
                .collect();
            items.iter().sum::<f64>() / items.len() as f64
        };
        assert!(mean(1) > 3.0 * mean(0), "anomaly err {} vs benign {}", mean(1), mean(0));
    }

    #[test]
    fn calibrated_detector_classifies_well() {
        let mut rng = SimRng::seed_from(2);
        let (x, y) = structured_data(800, &mut rng);
        let net = Autoencoder::fit_view(x.view(), &y, &AutoencoderConfig::default(), &mut rng).unwrap();
        let correct = x.rows().zip(&y).filter(|(xi, &yi)| net.predict(xi) == yi).count();
        assert!(correct as f64 / x.n_rows() as f64 > 0.9, "acc {correct}/800");
    }

    #[test]
    fn fit_survives_nan_features_in_calibration() {
        // A NaN feature row (corrupt capture, divide-by-zero upstream)
        // yields a NaN reconstruction error during threshold calibration.
        // The quantile sort must order it with total_cmp instead of
        // panicking in partial_cmp.
        let mut rng = SimRng::seed_from(4);
        let (mut x, mut y) = structured_data(200, &mut rng);
        x.push_row(&[f64::NAN, 1.0, 2.0, 3.0]);
        y.push(1);
        let config = AutoencoderConfig { epochs: 2, ..AutoencoderConfig::default() };
        let net = Autoencoder::fit_view(x.view(), &y, &config, &mut rng).expect("NaN row must not abort fit");
        // The calibrated threshold comes from the finite error prefix.
        assert!(net.threshold.is_finite());
        assert_eq!(net.predict(x.row(1)), net.predict(x.row(1)), "model is usable");
    }

    #[test]
    fn codec_roundtrip_preserves_predictions() {
        let mut rng = SimRng::seed_from(3);
        let (x, y) = structured_data(300, &mut rng);
        let config = AutoencoderConfig { epochs: 4, ..AutoencoderConfig::default() };
        let net = Autoencoder::fit_view(x.view(), &y, &config, &mut rng).unwrap();
        let back = Autoencoder::decode(&net.encode()).unwrap();
        assert_eq!(back, net);
        for xi in x.rows().take(50) {
            assert_eq!(net.predict(xi), back.predict(xi));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = SimRng::seed_from(4);
            let (x, y) = structured_data(200, &mut rng);
            let config = AutoencoderConfig { epochs: 2, ..AutoencoderConfig::default() };
            Autoencoder::fit_view(x.view(), &y, &config, &mut rng).unwrap().encode()
        };
        assert_eq!(run(), run());
    }
}
