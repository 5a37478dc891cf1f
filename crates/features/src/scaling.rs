//! Feature scaling: min-max and z-score normalisation.
//!
//! Scalers are fitted on the training matrix and reused unchanged at
//! detection time (fitting on live traffic would leak the test
//! distribution).

use ml::matrix::FeatureMatrix;
use serde::{Deserialize, Serialize};

/// The scaling method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingMethod {
    /// Map each feature to `[0, 1]` by its training min/max.
    MinMax,
    /// Standardise each feature to zero mean and unit variance.
    ZScore,
}

/// A fitted per-feature scaler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    method: ScalingMethod,
    /// Per-feature (offset, scale): transformed = (x - offset) / scale.
    params: Vec<(f64, f64)>,
}

impl Scaler {
    /// The method this scaler was fitted with.
    pub fn method(&self) -> ScalingMethod {
        self.method
    }

    /// Number of features the scaler expects.
    pub fn dims(&self) -> usize {
        self.params.len()
    }

    /// Fits a scaler on a training matrix (rows = samples): per-column
    /// min and span, or mean and population standard deviation, each
    /// accumulated in row order. A constant column gets scale 1.
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows.
    pub fn fit_matrix(method: ScalingMethod, data: &FeatureMatrix) -> Self {
        assert!(!data.is_empty(), "cannot fit a scaler on no data");
        let dims = data.n_cols();
        let params = match method {
            ScalingMethod::MinMax => {
                let mut lo = vec![f64::INFINITY; dims];
                let mut hi = vec![f64::NEG_INFINITY; dims];
                for row in data.rows() {
                    for (j, &v) in row.iter().enumerate() {
                        lo[j] = lo[j].min(v);
                        hi[j] = hi[j].max(v);
                    }
                }
                lo.iter()
                    .zip(&hi)
                    .map(|(&lo, &hi)| {
                        let span = hi - lo;
                        (lo, if span.abs() < 1e-12 { 1.0 } else { span })
                    })
                    .collect()
            }
            ScalingMethod::ZScore => {
                let n = data.n_rows() as f64;
                let mut sums = vec![0.0; dims];
                for row in data.rows() {
                    for (s, &v) in sums.iter_mut().zip(row) {
                        *s += v;
                    }
                }
                let means: Vec<f64> = sums.iter().map(|s| s / n).collect();
                let mut sq = vec![0.0; dims];
                for row in data.rows() {
                    for (j, &v) in row.iter().enumerate() {
                        sq[j] += (v - means[j]).powi(2);
                    }
                }
                means
                    .iter()
                    .zip(&sq)
                    .map(|(&mean, &sq)| {
                        let std = (sq / n).sqrt();
                        (mean, if std < 1e-12 { 1.0 } else { std })
                    })
                    .collect()
            }
        };
        Scaler { method, params }
    }

    /// Transforms a flat matrix in place.
    ///
    /// # Panics
    ///
    /// Panics if the matrix arity differs from the fitted arity.
    pub fn transform_matrix(&self, data: &mut FeatureMatrix) {
        // Split the per-column affine params into two plain slices:
        // LLVM vectorizes the (v - offset) / scale sweep over
        // contiguous slices (packed divides), which the array-of-pairs
        // layout blocks. Element-wise IEEE results are unchanged.
        let offsets: Vec<f64> = self.params.iter().map(|p| p.0).collect();
        let scales: Vec<f64> = self.params.iter().map(|p| p.1).collect();
        for row in data.rows_mut() {
            assert_eq!(row.len(), offsets.len(), "feature arity mismatch");
            for ((value, &offset), &scale) in row.iter_mut().zip(&offsets).zip(&scales) {
                *value = (*value - offset) / scale;
            }
        }
    }

    /// Fits on a flat matrix and transforms it in place, returning the
    /// scaler.
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows.
    pub fn fit_transform_matrix(method: ScalingMethod, data: &mut FeatureMatrix) -> Self {
        let scaler = Scaler::fit_matrix(method, data);
        scaler.transform_matrix(data);
        scaler
    }

    /// The element-wise mean of several compatible scalers — the shared
    /// preprocessing used in federated settings where no party may pool
    /// raw data to fit a global scaler.
    ///
    /// Returns `None` if the slice is empty or the scalers disagree in
    /// method or arity.
    pub fn average(scalers: &[Scaler]) -> Option<Scaler> {
        let first = scalers.first()?;
        if scalers
            .iter()
            .any(|s| s.method != first.method || s.params.len() != first.params.len())
        {
            return None;
        }
        let n = scalers.len() as f64;
        let params = (0..first.params.len())
            .map(|j| {
                let offset = scalers.iter().map(|s| s.params[j].0).sum::<f64>() / n;
                let scale = scalers.iter().map(|s| s.params[j].1).sum::<f64>() / n;
                (offset, scale)
            })
            .collect();
        Some(Scaler { method: first.method, params })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> FeatureMatrix {
        FeatureMatrix::from_rows(&[vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]]).unwrap()
    }

    /// Transforms one sample with a fitted scaler.
    fn transformed(scaler: &Scaler, row: &[f64]) -> Vec<f64> {
        let mut m = FeatureMatrix::new(row.len());
        m.push_row(row);
        scaler.transform_matrix(&mut m);
        m.row(0).to_vec()
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let mut data = matrix();
        let scaler = Scaler::fit_transform_matrix(ScalingMethod::MinMax, &mut data);
        assert_eq!(scaler.dims(), 2);
        assert_eq!(data.row(0), &[0.0, 0.0]);
        assert_eq!(data.row(2), &[1.0, 1.0]);
        assert_eq!(data.row(1), &[0.5, 0.5]);
    }

    #[test]
    fn zscore_standardises() {
        let mut data = matrix();
        Scaler::fit_transform_matrix(ScalingMethod::ZScore, &mut data);
        for j in 0..2 {
            let mean: f64 = data.rows().map(|r| r[j]).sum::<f64>() / 3.0;
            let var: f64 = data.rows().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_features_do_not_divide_by_zero() {
        let mut data = FeatureMatrix::from_rows(&[vec![7.0], vec![7.0]]).unwrap();
        let scaler = Scaler::fit_transform_matrix(ScalingMethod::MinMax, &mut data);
        assert!(data.rows().all(|r| r[0].is_finite()));
        assert!(transformed(&scaler, &[7.0])[0].is_finite());
    }

    #[test]
    fn unseen_data_uses_training_parameters() {
        let mut train = matrix();
        let scaler = Scaler::fit_transform_matrix(ScalingMethod::MinMax, &mut train);
        let row = transformed(&scaler, &[20.0, 40.0]); // beyond the training max
        assert_eq!(row, vec![2.0, 1.5], "extrapolates rather than re-fitting");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let scaler = Scaler::fit_matrix(ScalingMethod::MinMax, &matrix());
        transformed(&scaler, &[1.0]);
    }
}
