//! Flat, cache-friendly feature storage — the one format in which
//! feature rows enter extraction, scaling, training and prediction.
//!
//! [`FeatureMatrix`] stores all samples in one contiguous row-major
//! `Vec<f64>`: no heap allocation per sample and no pointer-chasing on
//! row access. [`MatrixView`] lends the whole matrix to a trainer or a
//! predictor without copying a single feature value. A subset of rows,
//! such as a training sample or a holdout, is built as a matrix of its
//! own, so every row read is one slice.

use crate::classifier::TrainError;

/// A dense row-major feature matrix: `n_rows × n_cols` values in one
/// contiguous allocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    n_cols: usize,
}

impl FeatureMatrix {
    /// An empty matrix whose rows will have `n_cols` features.
    pub fn new(n_cols: usize) -> Self {
        FeatureMatrix { data: Vec::new(), n_cols }
    }

    /// An empty matrix with storage reserved for `rows` rows.
    pub fn with_capacity(rows: usize, n_cols: usize) -> Self {
        FeatureMatrix { data: Vec::with_capacity(rows * n_cols), n_cols }
    }

    /// Copies a row-of-`Vec`s matrix into flat storage.
    ///
    /// # Errors
    ///
    /// [`TrainError::EmptyDataset`] when `rows` is empty,
    /// [`TrainError::RaggedFeatures`] when arities disagree.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, TrainError> {
        let first = rows.first().ok_or(TrainError::EmptyDataset)?;
        let n_cols = first.len();
        let mut m = FeatureMatrix::with_capacity(rows.len(), n_cols);
        for row in rows {
            if row.len() != n_cols {
                return Err(TrainError::RaggedFeatures);
            }
            m.data.extend_from_slice(row);
        }
        Ok(m)
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != n_cols`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.n_cols, "feature arity mismatch");
        self.data.extend_from_slice(row);
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.data.len().checked_div(self.n_cols).unwrap_or(0)
    }

    /// Number of columns (features per row).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// `true` when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drops all rows, keeping the allocation (for reuse as a per-window
    /// scratch buffer).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Iterates over rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.n_cols.max(1))
    }

    /// Iterates over rows mutably, in order.
    pub fn rows_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.data.chunks_exact_mut(self.n_cols.max(1))
    }

    /// The backing storage, row-major.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A borrowing view of every row.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView { data: &self.data, n_cols: self.n_cols }
    }
}

/// A borrowed view of every row of a [`FeatureMatrix`].
///
/// `Copy`, two words, and `Sync` — cheap to hand to every worker
/// thread of a parallel training loop.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    n_cols: usize,
}

impl<'a> MatrixView<'a> {
    /// Number of rows in the view.
    pub fn n_rows(&self) -> usize {
        self.data.len().checked_div(self.n_cols).unwrap_or(0)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// `true` when the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.n_cols..(i + 1) * self.n_cols]
    }

    /// Iterates over the rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &'a [f64]> + '_ {
        (0..self.n_rows()).map(|i| self.row(i))
    }
}

/// Gathers `values[i]` for each index, in index order, repeats allowed:
/// the labels of a sampled or held-out set of rows.
pub fn gather<T: Copy>(values: &[T], indices: &[usize]) -> Vec<T> {
    indices.iter().map(|&i| values[i]).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The rows of `m` named by `indices`, in that order, repeats
    /// allowed, as a matrix of their own.
    pub(crate) fn gather_rows(m: &FeatureMatrix, indices: &[usize]) -> FeatureMatrix {
        let mut out = FeatureMatrix::with_capacity(indices.len(), m.n_cols());
        for &i in indices {
            out.push_row(m.row(i));
        }
        out
    }

    fn sample() -> FeatureMatrix {
        FeatureMatrix::from_rows(&[
            vec![0.0, 1.0],
            vec![2.0, 3.0],
            vec![4.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn rows_roundtrip_through_flat_storage() {
        let m = sample();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 2);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(m.view().rows().eq(m.rows()));
    }

    #[test]
    fn from_rows_rejects_bad_input() {
        assert_eq!(FeatureMatrix::from_rows(&[]), Err(TrainError::EmptyDataset));
        assert_eq!(
            FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(TrainError::RaggedFeatures)
        );
    }

    #[test]
    fn push_row_reuses_cleared_allocation() {
        let mut m = sample();
        let cap = m.data.capacity();
        m.clear();
        assert!(m.is_empty());
        m.push_row(&[9.0, 8.0]);
        assert_eq!(m.n_rows(), 1);
        assert_eq!(m.row(0), &[9.0, 8.0]);
        assert_eq!(m.data.capacity(), cap, "clear keeps the allocation");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_row_rejects_wrong_arity() {
        sample().push_row(&[1.0]);
    }

    #[test]
    fn full_view_iterates_all_rows() {
        let m = sample();
        let v = m.view();
        assert_eq!(v.n_rows(), 3);
        assert_eq!(v.rows().count(), 3);
        assert_eq!(v.rows().last().unwrap(), &[4.0, 5.0]);
    }

    #[test]
    fn gather_maps_labels_through_indices() {
        assert_eq!(gather(&[10, 20, 30], &[2, 0]), vec![30, 10]);
    }

    #[test]
    fn mutable_rows_update_in_place() {
        let mut m = sample();
        m.row_mut(0)[1] = 7.0;
        for row in m.rows_mut() {
            row[0] += 1.0;
        }
        assert_eq!(m.row(0), &[1.0, 7.0]);
        assert_eq!(m.row(2), &[5.0, 5.0]);
    }
}
