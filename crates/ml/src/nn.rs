//! Shared neural-network primitives: dense layers, activations and the
//! Adam optimiser, used by the CNN ([`crate::cnn`]) and the autoencoder
//! ([`crate::autoencoder`]).

use netsim::rng::SimRng;

/// A fully connected layer with He-initialised weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// Input arity.
    pub input: usize,
    /// Output arity.
    pub output: usize,
    /// `[output][input]` flattened weights.
    pub w: Vec<f64>,
    /// Per-output biases.
    pub b: Vec<f64>,
}

impl Dense {
    /// Randomly initialised layer.
    pub fn new(input: usize, output: usize, rng: &mut SimRng) -> Self {
        let scale = (2.0 / input as f64).sqrt();
        let w = (0..input * output).map(|_| scale * rng.standard_normal()).collect();
        Dense { input, output, w, b: vec![0.0; output] }
    }

    /// `y = W x + b`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        (0..self.output)
            .map(|o| {
                self.b[o]
                    + self.w[o * self.input..(o + 1) * self.input]
                        .iter()
                        .zip(x)
                        .map(|(w, v)| w * v)
                        .sum::<f64>()
            })
            .collect()
    }

    /// `y = W x + b` for `L` inputs at once, lane-minor: `x` is
    /// `[input][L]` and `out` is `[output][L]`. Each lane adds in
    /// [`Dense::forward`]'s order — the products folded left to right
    /// from `Iterator::sum`'s starting value, then added to the bias — so
    /// every lane is bit-identical to a one-row pass. The `L`
    /// accumulators stay in registers across the whole input.
    #[inline(always)]
    pub(crate) fn forward_lanes<const L: usize>(&self, x: &[[f64; L]], out: &mut [[f64; L]]) {
        let start: f64 = std::iter::empty::<f64>().sum();
        for (o, y) in out.iter_mut().enumerate() {
            let mut acc = [start; L];
            for (&w, xj) in self.w[o * self.input..(o + 1) * self.input].iter().zip(x) {
                for (a, &v) in acc.iter_mut().zip(xj) {
                    *a += w * v;
                }
            }
            for (v, a) in y.iter_mut().zip(acc) {
                *v = self.b[o] + a;
            }
        }
    }

    /// Adds the parameter gradients of the first `n` of `L` rows to `gw`
    /// and `gb`: `x_rows` is the layer's input lane-major (`[n][input]`),
    /// `grad_out` its output gradient lane-minor (`[output][L]`). Each
    /// parameter adds one product per row, in row order, as
    /// [`Dense::backward`] called row by row does; the products of one
    /// row run across the weights, never across rows.
    #[inline(always)]
    pub(crate) fn param_grads_lanes<const L: usize>(
        &self,
        x_rows: &[f64],
        grad_out: &[[f64; L]],
        n: usize,
        gw: &mut [f64],
        gb: &mut [f64],
    ) {
        for l in 0..n {
            let x = &x_rows[l * self.input..(l + 1) * self.input];
            for (o, g) in grad_out.iter().enumerate() {
                let g = g[l];
                gb[o] += g;
                for (w, &v) in gw[o * self.input..(o + 1) * self.input].iter_mut().zip(x) {
                    *w += g * v;
                }
            }
        }
    }

    /// The input gradient of `L` rows, lane-minor (`grad_out` is
    /// `[output][L]`, `grad_in` is `[input][L]`): each input folds
    /// `grad_out[o] · w[o][i]` over the outputs in order from zero, as
    /// [`Dense::backward`] does for one row.
    #[inline(always)]
    pub(crate) fn input_grad_lanes<const L: usize>(
        &self,
        grad_out: &[[f64; L]],
        grad_in: &mut [[f64; L]],
    ) {
        for (i, dst) in grad_in.iter_mut().enumerate() {
            let mut acc = [0.0; L];
            for (o, g) in grad_out.iter().enumerate() {
                let w = self.w[o * self.input + i];
                for (a, &g) in acc.iter_mut().zip(g) {
                    *a += g * w;
                }
            }
            *dst = acc;
        }
    }

    /// Backpropagates `grad_out`, accumulating parameter gradients into
    /// `gw`/`gb` and returning the gradient w.r.t. the input.
    pub fn backward(&self, x: &[f64], grad_out: &[f64], gw: &mut [f64], gb: &mut [f64]) -> Vec<f64> {
        let mut grad_in = vec![0.0; self.input];
        for o in 0..self.output {
            let g = grad_out[o];
            gb[o] += g;
            for i in 0..self.input {
                gw[o * self.input + i] += g * x[i];
                grad_in[i] += g * self.w[o * self.input + i];
            }
        }
        grad_in
    }
}

/// In-place ReLU. Always inlined, so the CNN's AVX2 kernel copy
/// (`Cnn::lane_blocks_avx2`) compiles it with its own features.
#[inline(always)]
pub fn relu(x: &mut [f64]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Zeroes gradient entries whose pre-activation was non-positive.
/// [`relu`]'s output is non-positive at exactly the same entries
/// (`-0.0` and NaN pass through unchanged), so it may stand in for
/// `pre`. Always inlined, like [`relu`].
#[inline(always)]
pub fn relu_grad(pre: &[f64], grad: &mut [f64]) {
    for (g, &z) in grad.iter_mut().zip(pre) {
        *g = if z <= 0.0 { 0.0 } else { *g };
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; logits.len()];
    softmax_into(logits, &mut out);
    out
}

/// Numerically stable softmax into a caller-owned slice of the same
/// length. Operation order matches [`softmax`] exactly, so the two
/// produce bit-identical distributions.
pub fn softmax_into(logits: &[f64], out: &mut [f64]) {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    for (e, &l) in out.iter_mut().zip(logits) {
        *e = (l - max).exp();
    }
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// Per-parameter-group Adam state.
#[derive(Debug, Clone)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Zeroed state for `len` parameters.
    pub fn new(len: usize) -> Self {
        Adam { m: vec![0.0; len], v: vec![0.0; len] }
    }

    /// One Adam update (`t` is the 1-based step count).
    pub fn step(&mut self, params: &mut [f64], grads: &[f64], lr: f64, t: usize) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let t = t as i32;
        // Bias corrections depend only on the step; dividing by them (not
        // multiplying by reciprocals) keeps every update's rounding.
        let (m_correction, v_correction) = (1.0 - B1.powi(t), 1.0 - B2.powi(t));
        for i in 0..params.len() {
            self.m[i] = B1 * self.m[i] + (1.0 - B1) * grads[i];
            self.v[i] = B2 * self.v[i] + (1.0 - B2) * grads[i] * grads[i];
            let m_hat = self.m[i] / m_correction;
            let v_hat = self.v[i] / v_correction;
            params[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_is_affine() {
        let layer = Dense { input: 2, output: 1, w: vec![2.0, -1.0], b: vec![0.5] };
        assert_eq!(layer.forward(&[3.0, 4.0]), vec![2.0 * 3.0 - 4.0 + 0.5]);
    }

    #[test]
    fn dense_backward_matches_finite_difference() {
        let mut rng = SimRng::seed_from(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = [0.5, -1.0, 2.0];
        // Loss = sum of outputs; grad_out = 1s.
        let mut gw = vec![0.0; layer.w.len()];
        let mut gb = vec![0.0; layer.b.len()];
        let grad_in = layer.backward(&x, &[1.0, 1.0], &mut gw, &mut gb);
        let eps = 1e-6;
        for i in 0..layer.w.len() {
            let orig = layer.w[i];
            layer.w[i] = orig + eps;
            let plus: f64 = layer.forward(&x).iter().sum();
            layer.w[i] = orig - eps;
            let minus: f64 = layer.forward(&x).iter().sum();
            layer.w[i] = orig;
            assert!((gw[i] - (plus - minus) / (2.0 * eps)).abs() < 1e-6);
        }
        // dL/dx = sum over outputs of w[o][i].
        for i in 0..3 {
            let expected: f64 = (0..2).map(|o| layer.w[o * 3 + i]).sum();
            assert!((grad_in[i] - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn adam_reduces_a_quadratic() {
        // Minimise f(w) = (w - 3)^2 from w = 0.
        let mut w = vec![0.0];
        let mut adam = Adam::new(1);
        for t in 1..=500 {
            let grad = vec![2.0 * (w[0] - 3.0)];
            adam.step(&mut w, &grad, 0.05, t);
        }
        assert!((w[0] - 3.0).abs() < 0.05, "w = {}", w[0]);
    }
}
