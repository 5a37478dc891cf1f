#![allow(clippy::needless_range_loop)] // index arithmetic mirrors the math
//! A trainable 1-D convolutional neural network.
//!
//! The paper's CNN IDS (TensorFlow in the original) is reproduced from
//! scratch: two 1-D convolution layers (the second dilated, per the
//! paper's §III-B discussion of dilated convolution), ReLU activations,
//! max-pooling for down-sampling, and two dense layers ending in a
//! softmax over {benign, malicious}. Training is mini-batch SGD with the
//! Adam optimiser on the cross-entropy loss, with full backpropagation
//! implemented by hand (verified against numerical gradients in the
//! tests).
//!
//! A feature vector is treated as a 1-channel signal of length
//! `input_len`, so convolution mixes neighbouring features — local
//! connections and weight sharing, as the paper describes.
//!
//! Mini-batch gradients are computed in parallel: each batch is cut into
//! fixed `MICRO_BATCH`-example chunks, one partial `Grads` per chunk,
//! folded in chunk order before the Adam step — so the fitted network is
//! identical at any thread count.
//!
//! Inference runs one serial kernel over sixteen rows at a time
//! (`Cnn::forward_lanes`, DESIGN.md §11.2), as AVX2 code on a CPU that
//! has it, bit-identical to the training forward pass row by row.

use std::cell::RefCell;

use netsim::rng::SimRng;
use serde::{Deserialize, Serialize};

use crate::classifier::{validate_matrix, Classifier, RowSpan, TrainError};
use crate::matrix::MatrixView;
use crate::nn::{relu, relu_grad, softmax, softmax_into, Adam, Dense};
use crate::codec::{DecodeError, Decoder, Encoder};
use crate::par;

const CNN_MAGIC: u32 = 0x636e_6e31; // "cnn1"

/// Examples per parallel gradient work unit. Fixed (never derived from
/// the thread count) so partial-gradient sums always fold in the same
/// order.
const MICRO_BATCH: usize = 16;

/// Architecture and training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CnnConfig {
    /// Input feature count (signal length).
    pub input_len: usize,
    /// Filters in the first convolution.
    pub conv1_filters: usize,
    /// Filters in the second convolution.
    pub conv2_filters: usize,
    /// Kernel width (odd, for symmetric same-padding).
    pub kernel: usize,
    /// Dilation of the second convolution.
    pub dilation2: usize,
    /// Hidden units in the first dense layer.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

impl Default for CnnConfig {
    fn default() -> Self {
        CnnConfig {
            input_len: 23,
            conv1_filters: 8,
            conv2_filters: 16,
            kernel: 3,
            dilation2: 2,
            hidden: 32,
            epochs: 8,
            batch_size: 64,
            learning_rate: 1e-3,
        }
    }
}

const CLASSES: usize = 2;

/// Rows per block of the inference kernel ([`Cnn::forward_lanes`]).
/// Sixteen `f64` lanes fill four AVX2 registers, so the two accumulator
/// sets a fused conv output needs (even and odd pool positions) take
/// eight of the sixteen. Both copies of the block loop use this one
/// width, so [`Cnn::memory_bytes`] does not depend on the host; sixteen
/// ran faster per row than eight in both copies (DESIGN.md §11.2).
const LANES: usize = 16;

/// A 1-D convolution layer with same-padding.
#[derive(Debug, Clone, PartialEq)]
struct Conv1d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    dilation: usize,
    /// `[out_ch][in_ch][kernel]` flattened.
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Conv1d {
    fn new(in_ch: usize, out_ch: usize, kernel: usize, dilation: usize, rng: &mut SimRng) -> Self {
        let fan_in = (in_ch * kernel) as f64;
        let scale = (2.0 / fan_in).sqrt(); // He init for ReLU nets
        let w = (0..out_ch * in_ch * kernel).map(|_| scale * rng.standard_normal()).collect();
        Conv1d { in_ch, out_ch, kernel, dilation, w, b: vec![0.0; out_ch] }
    }

    #[inline]
    fn widx(&self, o: usize, i: usize, k: usize) -> usize {
        (o * self.in_ch + i) * self.kernel + k
    }

    /// `input` is `[in_ch][len]`; output is `[out_ch][len]` (same pad).
    fn forward(&self, input: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let len = input[0].len();
        let half = (self.kernel / 2) as isize;
        let mut out = vec![vec![0.0; len]; self.out_ch];
        for o in 0..self.out_ch {
            for p in 0..len {
                let mut acc = self.b[o];
                for i in 0..self.in_ch {
                    for k in 0..self.kernel {
                        let offset = (k as isize - half) * self.dilation as isize;
                        let src = p as isize + offset;
                        if src >= 0 && (src as usize) < len {
                            acc += self.w[self.widx(o, i, k)] * input[i][src as usize];
                        }
                    }
                }
                out[o][p] = acc;
            }
        }
        out
    }

    /// Same-padding width: how far the outermost tap reaches past
    /// either end of the input.
    fn pad(&self) -> usize {
        (self.kernel / 2) * self.dilation
    }

    /// The lane kernel's convolution over `positions` input positions,
    /// fused with ReLU and the 2:1 max pool. `input` is lane-minor
    /// `[in_ch][positions + 2·pad][L]`, zero-padded by [`Conv1d::pad`] on
    /// both sides. Pooled output `q` of channel `o` lands in
    /// `out[o · out_width + out_pad + q]`, so conv1 writes straight into
    /// conv2's padded input. The odd tail position the pool drops is not
    /// computed.
    ///
    /// Each output starts from the bias and adds `w · x` over
    /// `(i, k)` in [`Conv1d::forward`]'s order. A tap that falls in the
    /// padding adds `w · 0.0`, which the reference skips; with finite
    /// weights that leaves every nonzero sum unchanged (DESIGN.md §11.2).
    #[inline(always)]
    fn forward_lanes<const L: usize>(
        &self,
        input: &[[f64; L]],
        positions: usize,
        out: &mut [[f64; L]],
        out_width: usize,
        out_pad: usize,
    ) {
        let width = positions + 2 * self.pad();
        let pooled = positions / 2;
        let taps = self.in_ch * self.kernel;
        for o in 0..self.out_ch {
            let w = &self.w[o * taps..(o + 1) * taps];
            let dst = &mut out[o * out_width + out_pad..][..pooled];
            for (q, cell) in dst.iter_mut().enumerate() {
                let mut even = [self.b[o]; L];
                let mut odd = [self.b[o]; L];
                for i in 0..self.in_ch {
                    let channel = &input[i * width..(i + 1) * width];
                    for k in 0..self.kernel {
                        let wk = w[i * self.kernel + k];
                        let at = 2 * q + k * self.dilation;
                        let (xe, xo) = (&channel[at], &channel[at + 1]);
                        for l in 0..L {
                            even[l] += wk * xe[l];
                            odd[l] += wk * xo[l];
                        }
                    }
                }
                relu(&mut even);
                relu(&mut odd);
                // Ties (and NaNs) resolve as in `maxpool2`.
                for l in 0..L {
                    cell[l] = if even[l] >= odd[l] { even[l] } else { odd[l] };
                }
            }
        }
    }

    /// Backward pass: returns gradient wrt input; accumulates parameter
    /// gradients into `gw`/`gb`.
    fn backward(
        &self,
        input: &[Vec<f64>],
        grad_out: &[Vec<f64>],
        gw: &mut [f64],
        gb: &mut [f64],
    ) -> Vec<Vec<f64>> {
        let len = input[0].len();
        let half = (self.kernel / 2) as isize;
        let mut grad_in = vec![vec![0.0; len]; self.in_ch];
        for o in 0..self.out_ch {
            for p in 0..len {
                let g = grad_out[o][p];
                if g == 0.0 {
                    continue;
                }
                gb[o] += g;
                for i in 0..self.in_ch {
                    for k in 0..self.kernel {
                        let offset = (k as isize - half) * self.dilation as isize;
                        let src = p as isize + offset;
                        if src >= 0 && (src as usize) < len {
                            gw[self.widx(o, i, k)] += g * input[i][src as usize];
                            grad_in[i][src as usize] += g * self.w[self.widx(o, i, k)];
                        }
                    }
                }
            }
        }
        grad_in
    }
}

/// Max pool with window 2, stride 2. Returns (pooled, argmax positions).
fn maxpool2(x: &[Vec<f64>]) -> (Vec<Vec<f64>>, Vec<Vec<usize>>) {
    let out_len = x[0].len() / 2;
    let mut out = vec![vec![0.0; out_len]; x.len()];
    let mut arg = vec![vec![0usize; out_len]; x.len()];
    for (c, channel) in x.iter().enumerate() {
        for p in 0..out_len {
            let (a, b) = (channel[2 * p], channel[2 * p + 1]);
            if a >= b {
                out[c][p] = a;
                arg[c][p] = 2 * p;
            } else {
                out[c][p] = b;
                arg[c][p] = 2 * p + 1;
            }
        }
    }
    (out, arg)
}

fn maxpool2_backward(grad_out: &[Vec<f64>], arg: &[Vec<usize>], in_len: usize) -> Vec<Vec<f64>> {
    let mut grad_in = vec![vec![0.0; in_len]; grad_out.len()];
    for c in 0..grad_out.len() {
        for p in 0..grad_out[c].len() {
            grad_in[c][arg[c][p]] += grad_out[c][p];
        }
    }
    grad_in
}

/// The lane kernel's buffers, all lane-minor (`[channel][position][lane]`)
/// and sized by [`LaneScratch::prepare`] for one network and lane count.
/// Each is cleared and refilled, never dropped, so a warmed-up scratch
/// makes prediction allocation-free.
#[derive(Debug, Default)]
struct LaneScratch {
    /// conv1 input, `[input_len + 2 · pad1][L]`; the padding stays zero.
    x0: Vec<f64>,
    /// Pooled conv1 output = conv2 input, `[c1][pooled1 + 2 · pad2][L]`;
    /// the padding stays zero.
    x1: Vec<f64>,
    /// Pooled conv2 output = dense input, `[c2 · pooled2][L]`.
    flat: Vec<f64>,
    /// Hidden dense activations, `[hidden][L]`.
    hidden: Vec<f64>,
}

impl LaneScratch {
    /// Zero-fills every buffer at `net`'s shape for `lanes` rows.
    fn prepare(&mut self, net: &Cnn, lanes: usize) {
        let [x0, x1, flat, hidden] = net.lane_buffer_lens();
        for (buf, len) in [
            (&mut self.x0, x0),
            (&mut self.x1, x1),
            (&mut self.flat, flat),
            (&mut self.hidden, hidden),
        ] {
            buf.clear();
            buf.resize(len * lanes, 0.0);
        }
    }
}

thread_local! {
    /// Per-thread lane scratch behind the span kernel and single-row
    /// prediction, so steady-state inference allocates nothing without
    /// threading a buffer through the [`Classifier`] trait.
    static PREDICT_SCRATCH: RefCell<LaneScratch> = RefCell::new(LaneScratch::default());
}

struct ForwardCache {
    x0: Vec<Vec<f64>>,
    z1: Vec<Vec<f64>>,
    a1: Vec<Vec<f64>>,
    p1: Vec<Vec<f64>>,
    arg1: Vec<Vec<usize>>,
    z2: Vec<Vec<f64>>,
    a2: Vec<Vec<f64>>,
    arg2: Vec<Vec<usize>>,
    flat: Vec<f64>,
    z3: Vec<f64>,
    a3: Vec<f64>,
    probs: Vec<f64>,
}

struct Grads {
    c1w: Vec<f64>,
    c1b: Vec<f64>,
    c2w: Vec<f64>,
    c2b: Vec<f64>,
    f1w: Vec<f64>,
    f1b: Vec<f64>,
    f2w: Vec<f64>,
    f2b: Vec<f64>,
}

impl Grads {
    fn zero_like(net: &Cnn) -> Self {
        Grads {
            c1w: vec![0.0; net.conv1.w.len()],
            c1b: vec![0.0; net.conv1.b.len()],
            c2w: vec![0.0; net.conv2.w.len()],
            c2b: vec![0.0; net.conv2.b.len()],
            f1w: vec![0.0; net.fc1.w.len()],
            f1b: vec![0.0; net.fc1.b.len()],
            f2w: vec![0.0; net.fc2.w.len()],
            f2b: vec![0.0; net.fc2.b.len()],
        }
    }

    /// Element-wise accumulation of another gradient set (folding the
    /// per-micro-batch partials).
    fn add(&mut self, other: &Grads) {
        let pairs: [(&mut Vec<f64>, &Vec<f64>); 8] = [
            (&mut self.c1w, &other.c1w),
            (&mut self.c1b, &other.c1b),
            (&mut self.c2w, &other.c2w),
            (&mut self.c2b, &other.c2b),
            (&mut self.f1w, &other.f1w),
            (&mut self.f1b, &other.f1b),
            (&mut self.f2w, &other.f2w),
            (&mut self.f2b, &other.f2b),
        ];
        for (dst, src) in pairs {
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }

    fn scale(&mut self, factor: f64) {
        for g in [
            &mut self.c1w,
            &mut self.c1b,
            &mut self.c2w,
            &mut self.c2b,
            &mut self.f1w,
            &mut self.f1b,
            &mut self.f2w,
            &mut self.f2b,
        ] {
            for v in g.iter_mut() {
                *v *= factor;
            }
        }
    }
}

/// The trained CNN classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Cnn {
    config: CnnConfig,
    conv1: Conv1d,
    conv2: Conv1d,
    fc1: Dense,
    fc2: Dense,
}

impl Cnn {
    /// Randomly initialised network (exposed for training experiments).
    pub fn init(config: CnnConfig, rng: &mut SimRng) -> Self {
        let pooled1 = config.input_len / 2;
        let pooled2 = pooled1 / 2;
        let flat = config.conv2_filters * pooled2;
        Cnn {
            config,
            conv1: Conv1d::new(1, config.conv1_filters, config.kernel, 1, rng),
            conv2: Conv1d::new(config.conv1_filters, config.conv2_filters, config.kernel, config.dilation2, rng),
            fc1: Dense::new(flat, config.hidden, rng),
            fc2: Dense::new(config.hidden, CLASSES, rng),
        }
    }

    /// Trains a CNN on the rows of a matrix view.
    ///
    /// # Errors
    ///
    /// Returns a [`TrainError`] for unusable training data.
    pub fn fit_view(
        view: MatrixView<'_>,
        y: &[usize],
        config: &CnnConfig,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        let dims = validate_matrix(view, y)?;
        let mut config = *config;
        config.input_len = dims;
        let mut net = Cnn::init(config, rng);
        net.train_view(view, y, rng);
        Ok(net)
    }

    /// Runs additional training epochs on the rows of a matrix view.
    pub fn train_view(&mut self, view: MatrixView<'_>, y: &[usize], rng: &mut SimRng) {
        let mut adam = (
            Adam::new(self.conv1.w.len()),
            Adam::new(self.conv1.b.len()),
            Adam::new(self.conv2.w.len()),
            Adam::new(self.conv2.b.len()),
            Adam::new(self.fc1.w.len()),
            Adam::new(self.fc1.b.len()),
            Adam::new(self.fc2.w.len()),
            Adam::new(self.fc2.b.len()),
        );
        let mut t = 0usize;
        let mut indices: Vec<usize> = (0..view.n_rows()).collect();
        for _ in 0..self.config.epochs {
            rng.shuffle(&mut indices);
            for batch in indices.chunks(self.config.batch_size.max(1)) {
                let mut grads = self.batch_grads(view, y, batch);
                grads.scale(1.0 / batch.len() as f64);
                t += 1;
                let lr = self.config.learning_rate;
                adam.0.step(&mut self.conv1.w, &grads.c1w, lr, t);
                adam.1.step(&mut self.conv1.b, &grads.c1b, lr, t);
                adam.2.step(&mut self.conv2.w, &grads.c2w, lr, t);
                adam.3.step(&mut self.conv2.b, &grads.c2b, lr, t);
                adam.4.step(&mut self.fc1.w, &grads.f1w, lr, t);
                adam.5.step(&mut self.fc1.b, &grads.f1b, lr, t);
                adam.6.step(&mut self.fc2.w, &grads.f2w, lr, t);
                adam.7.step(&mut self.fc2.b, &grads.f2b, lr, t);
            }
        }
    }

    /// Summed (unscaled) gradients over one mini-batch: fixed
    /// [`MICRO_BATCH`]-example chunks in parallel, partials folded in
    /// chunk order.
    fn batch_grads(&self, view: MatrixView<'_>, y: &[usize], batch: &[usize]) -> Grads {
        let n_micro = batch.len().div_ceil(MICRO_BATCH);
        let partials = par::par_map_indexed(n_micro, |m| {
            let lo = m * MICRO_BATCH;
            let hi = (lo + MICRO_BATCH).min(batch.len());
            let mut g = Grads::zero_like(self);
            for &i in &batch[lo..hi] {
                let cache = self.forward(view.row(i));
                self.backward(&cache, y[i], &mut g);
            }
            g
        });
        let mut parts = partials.into_iter();
        let mut grads = parts.next().unwrap_or_else(|| Grads::zero_like(self));
        for p in parts {
            grads.add(&p);
        }
        grads
    }

    fn forward(&self, features: &[f64]) -> ForwardCache {
        let x0 = vec![features.to_vec()];
        let z1 = self.conv1.forward(&x0);
        let mut a1 = z1.clone();
        for c in &mut a1 {
            relu(c);
        }
        let (p1, arg1) = maxpool2(&a1);
        let z2 = self.conv2.forward(&p1);
        let mut a2 = z2.clone();
        for c in &mut a2 {
            relu(c);
        }
        let (p2, arg2) = maxpool2(&a2);
        let flat: Vec<f64> = p2.iter().flatten().copied().collect();
        let z3 = self.fc1.forward(&flat);
        let mut a3 = z3.clone();
        relu(&mut a3);
        let z4 = self.fc2.forward(&a3);
        let probs = softmax(&z4);
        ForwardCache { x0, z1, a1, p1, arg1, z2, a2, arg2, flat, z3, a3, probs }
    }

    fn backward(&self, cache: &ForwardCache, label: usize, grads: &mut Grads) {
        // Softmax + cross-entropy gradient.
        let mut dlogits = cache.probs.clone();
        dlogits[label] -= 1.0;
        let mut da3 = self.fc2.backward(&cache.a3, &dlogits, &mut grads.f2w, &mut grads.f2b);
        relu_grad(&cache.z3, &mut da3);
        let dflat = self.fc1.backward(&cache.flat, &da3, &mut grads.f1w, &mut grads.f1b);
        // Un-flatten into [C2][pooled2].
        let pooled2 = cache.flat.len() / self.conv2.out_ch;
        let dp2: Vec<Vec<f64>> =
            dflat.chunks(pooled2).map(<[f64]>::to_vec).collect();
        let mut da2 = maxpool2_backward(&dp2, &cache.arg2, cache.a2[0].len());
        for (channel, pre) in da2.iter_mut().zip(&cache.z2) {
            relu_grad(pre, channel);
        }
        let dp1 = self.conv2.backward(&cache.p1, &da2, &mut grads.c2w, &mut grads.c2b);
        let mut da1 = maxpool2_backward(&dp1, &cache.arg1, cache.a1[0].len());
        for (channel, pre) in da1.iter_mut().zip(&cache.z1) {
            relu_grad(pre, channel);
        }
        let _ = self.conv1.backward(&cache.x0, &da1, &mut grads.c1w, &mut grads.c1b);
    }

    /// Per-row lengths of the lane kernel's buffers, in [`LaneScratch`]
    /// field order: padded conv1 input, padded conv2 input, dense input,
    /// hidden activations.
    fn lane_buffer_lens(&self) -> [usize; 4] {
        let len = self.config.input_len;
        [
            len + 2 * self.conv1.pad(),
            self.conv1.out_ch * (len / 2 + 2 * self.conv2.pad()),
            self.fc1.input,
            self.fc1.output,
        ]
    }

    /// The inference kernel: one forward pass over `L` rows at once,
    /// returning each row's class probabilities. `s` must be prepared
    /// for this network and `L` lanes. Rows are transposed into the
    /// lane-minor padded conv1 input, then every layer runs once per
    /// block with `L` accumulators per output. Each lane adds in exactly
    /// the reference's order, so its probabilities are bit-identical to
    /// the nested-`Vec` [`Cnn::forward`], which stays as the oracle and
    /// the training path.
    #[inline(always)]
    fn forward_lanes<const L: usize>(
        &self,
        rows: &[&[f64]; L],
        s: &mut LaneScratch,
    ) -> [[f64; CLASSES]; L] {
        let len = self.config.input_len;
        let pad1 = self.conv1.pad();
        let (x0, _) = s.x0.as_chunks_mut::<L>();
        for (p, cell) in x0[pad1..pad1 + len].iter_mut().enumerate() {
            for (v, row) in cell.iter_mut().zip(rows) {
                *v = row[p];
            }
        }
        let (pooled1, pad2) = (len / 2, self.conv2.pad());
        let width2 = pooled1 + 2 * pad2;
        let (x1, _) = s.x1.as_chunks_mut::<L>();
        self.conv1.forward_lanes(x0, len, x1, width2, pad2);
        // The pooled channel-major conv2 output *is* the reference's
        // flatten order, so it feeds the dense head directly.
        let (flat, _) = s.flat.as_chunks_mut::<L>();
        self.conv2.forward_lanes(x1, pooled1, flat, pooled1 / 2, 0);
        let (hidden, _) = s.hidden.as_chunks_mut::<L>();
        self.fc1.forward_lanes(flat, hidden);
        relu(hidden.as_flattened_mut());
        let mut logits = [[0.0; L]; CLASSES];
        self.fc2.forward_lanes(hidden, &mut logits);
        std::array::from_fn(|l| {
            let mut probs = [0.0; CLASSES];
            softmax_into(&logits.map(|class| class[l]), &mut probs);
            probs
        })
    }

    /// Runs the `view` rows named by `rows` through the kernel in order,
    /// [`LANES`] at a time, handing each block's probabilities to `sink`.
    /// Blocks ignore span boundaries; a partial tail block fills its
    /// spare lanes with its first row and drops their outputs.
    ///
    /// On an x86-64 CPU with AVX2 the block loop runs as
    /// [`Cnn::lane_blocks_avx2`], the same source compiled for AVX2;
    /// everywhere else it runs as [`Cnn::lane_blocks`]. Both give the
    /// same bits (DESIGN.md §11.2).
    ///
    /// # Panics
    ///
    /// Panics if a non-empty view's row arity differs from the network's
    /// `input_len`.
    fn forward_rows(
        &self,
        view: MatrixView<'_>,
        rows: impl Iterator<Item = usize>,
        sink: impl FnMut(&[[f64; CLASSES]]),
    ) {
        assert!(
            view.is_empty() || view.n_cols() == self.config.input_len,
            "CNN expects {} features per row, got {}",
            self.config.input_len,
            view.n_cols()
        );
        PREDICT_SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.prepare(self, LANES);
            // The dispatch sits inside this closure: a closure keeps the
            // target features of the function that defines it, so an
            // AVX2 function around `with` would leave the loop SSE2.
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: `lane_blocks_avx2` enables only `avx2`, and the
                // CPU running this thread was just found to support it.
                return unsafe { self.lane_blocks_avx2(view, rows, sink, &mut s) };
            }
            self.lane_blocks(view, rows, sink, &mut s);
        });
    }

    /// The block loop of [`Cnn::forward_rows`] over a scratch prepared
    /// for [`LANES`] lanes. Always inlined, as are the layer kernels it
    /// calls, so each caller compiles the whole kernel with its own
    /// target features: this body is the baseline copy, and
    /// [`Cnn::lane_blocks_avx2`] is the AVX2 copy.
    #[inline(always)]
    fn lane_blocks(
        &self,
        view: MatrixView<'_>,
        mut rows: impl Iterator<Item = usize>,
        mut sink: impl FnMut(&[[f64; CLASSES]]),
        s: &mut LaneScratch,
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
            let lanes: [&[f64]; LANES] =
                std::array::from_fn(|l| view.row(block[if l < n { l } else { 0 }]));
            sink(&self.forward_lanes(&lanes, s)[..n]);
        }
    }

    /// [`Cnn::lane_blocks`] compiled for AVX2, whose 256-bit registers
    /// hold four `f64` lanes where SSE2's hold two. The lanes' adds and
    /// multiplies, and their order, are unchanged: `avx2` does not
    /// enable `fma`, and Rust never contracts `a * b + c` into one.
    /// Code not compiled for AVX2 must find AVX2 on the CPU before it
    /// calls this, as [`Cnn::forward_rows`] does.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lane_blocks_avx2(
        &self,
        view: MatrixView<'_>,
        rows: impl Iterator<Item = usize>,
        sink: impl FnMut(&[[f64; CLASSES]]),
        s: &mut LaneScratch,
    ) {
        self.lane_blocks(view, rows, sink, s);
    }

    /// Class probabilities of one row, through the one-lane kernel.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the network's `input_len`.
    fn forward_one(&self, features: &[f64]) -> [f64; CLASSES] {
        assert_eq!(features.len(), self.config.input_len, "CNN input arity");
        PREDICT_SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            s.prepare(self, 1);
            self.forward_lanes(&[features], &mut s)[0]
        })
    }

    /// Multiply-accumulates of one forward pass, the CNN's deterministic
    /// work unit: each conv layer slides its full weight tensor across
    /// its (unclipped) output positions, and each dense layer touches
    /// every weight once. A function of the architecture alone —
    /// boundary clipping and the pool's dropped tail are ignored.
    fn macs_per_row(&self) -> u64 {
        let pooled1 = self.config.input_len / 2;
        (self.conv1.w.len() * self.config.input_len
            + self.conv2.w.len() * pooled1
            + self.fc1.w.len()
            + self.fc2.w.len()) as u64
    }

    /// Cross-entropy loss on one sample (used by the gradient check).
    pub fn loss(&self, features: &[f64], label: usize) -> f64 {
        let cache = self.forward(features);
        -cache.probs[label].max(1e-12).ln()
    }

    /// Class probabilities for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the network's `input_len`.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        self.forward_one(features).to_vec()
    }

    /// The architecture configuration.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// Federated averaging (McMahan et al.'s FedAvg aggregation step):
    /// the element-wise mean of the networks' parameters, weighted by
    /// `weights` (typically each client's sample count).
    ///
    /// Returns `None` if the slice is empty, lengths mismatch, or
    /// architectures differ.
    pub fn federated_average(nets: &[Cnn], weights: &[f64]) -> Option<Cnn> {
        let first = nets.first()?;
        if nets.len() != weights.len() || nets.iter().any(|n| n.config != first.config) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let mut out = first.clone();
        let zero = |v: &mut Vec<f64>| v.iter_mut().for_each(|x| *x = 0.0);
        zero(&mut out.conv1.w);
        zero(&mut out.conv1.b);
        zero(&mut out.conv2.w);
        zero(&mut out.conv2.b);
        zero(&mut out.fc1.w);
        zero(&mut out.fc1.b);
        zero(&mut out.fc2.w);
        zero(&mut out.fc2.b);
        for (net, &weight) in nets.iter().zip(weights) {
            let share = weight / total;
            let acc = |dst: &mut [f64], src: &[f64]| {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += share * s;
                }
            };
            acc(&mut out.conv1.w, &net.conv1.w);
            acc(&mut out.conv1.b, &net.conv1.b);
            acc(&mut out.conv2.w, &net.conv2.w);
            acc(&mut out.conv2.b, &net.conv2.b);
            acc(&mut out.fc1.w, &net.fc1.w);
            acc(&mut out.fc1.b, &net.fc1.b);
            acc(&mut out.fc2.w, &net.fc2.w);
            acc(&mut out.fc2.b, &net.fc2.b);
        }
        Some(out)
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.conv1.w.len()
            + self.conv1.b.len()
            + self.conv2.w.len()
            + self.conv2.b.len()
            + self.fc1.w.len()
            + self.fc1.b.len()
            + self.fc2.w.len()
            + self.fc2.b.len()
    }

    /// Decodes a CNN from its binary blob. Every parameter vector must
    /// have exactly the length its layer's shape implies, and the shape
    /// itself must be one the inference kernel can run, so a decoded
    /// network never panics predicting rows of its input width.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(blob: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(blob);
        d.expect_magic(CNN_MAGIC)?;
        let config = CnnConfig {
            input_len: d.get_usize()?,
            conv1_filters: d.get_usize()?,
            conv2_filters: d.get_usize()?,
            kernel: d.get_usize()?,
            dilation2: d.get_usize()?,
            hidden: d.get_usize()?,
            epochs: d.get_usize()?,
            batch_size: d.get_usize()?,
            learning_rate: d.get_f64()?,
        };
        check_architecture(&config)?;
        let (c1, c2, kernel) = (config.conv1_filters, config.conv2_filters, config.kernel);
        let mut conv = |in_ch: usize, out_ch: usize, dilation: usize| {
            let weights = out_ch
                .checked_mul(in_ch)
                .and_then(|n| n.checked_mul(kernel));
            Ok::<_, DecodeError>(Conv1d {
                in_ch,
                out_ch,
                kernel,
                dilation,
                w: read_params(&mut d, weights, "conv layer arity")?,
                b: read_params(&mut d, Some(out_ch), "conv layer arity")?,
            })
        };
        let conv1 = conv(1, c1, 1)?;
        let conv2 = conv(c1, c2, config.dilation2)?;
        let pooled2 = config.input_len / 2 / 2;
        let flat = c2
            .checked_mul(pooled2)
            .ok_or(DecodeError::Corrupt("dense layer arity"))?;
        let mut dense = |input: usize, output: usize| {
            Ok::<_, DecodeError>(Dense {
                input,
                output,
                w: read_params(&mut d, input.checked_mul(output), "dense layer arity")?,
                b: read_params(&mut d, Some(output), "dense layer arity")?,
            })
        };
        let fc1 = dense(flat, config.hidden)?;
        let fc2 = dense(config.hidden, CLASSES)?;
        Ok(Cnn { config, conv1, conv2, fc1, fc2 })
    }
}

/// The architecture [`Cnn::decode`] accepts: a shape the inference
/// kernel can run. Both pools must leave at least one position, every
/// layer must have a unit, the kernel must be odd (symmetric
/// same-padding) and each conv's padding width must be bounded by the
/// input, since the kernel's padded buffers are sized from it.
fn check_architecture(config: &CnnConfig) -> Result<(), DecodeError> {
    if config.input_len < 4 {
        return Err(DecodeError::Corrupt("input too short for two pools"));
    }
    if config.conv1_filters == 0 || config.conv2_filters == 0 || config.hidden == 0 {
        return Err(DecodeError::Corrupt("empty layer"));
    }
    if config.kernel.is_multiple_of(2) {
        return Err(DecodeError::Corrupt("kernel width must be odd"));
    }
    if config.dilation2 == 0 {
        return Err(DecodeError::Corrupt("zero dilation"));
    }
    for dilation in [1, config.dilation2] {
        let pad = (config.kernel / 2).checked_mul(dilation);
        if pad.is_none_or(|pad| pad > config.input_len) {
            return Err(DecodeError::Corrupt("padding wider than the input"));
        }
    }
    Ok(())
}

/// Reads one parameter vector, which must hold exactly `len` values
/// (`None`: the expected length overflowed `usize`).
fn read_params(
    d: &mut Decoder<'_>,
    len: Option<usize>,
    what: &'static str,
) -> Result<Vec<f64>, DecodeError> {
    let values = d.get_f64_slice()?;
    if Some(values.len()) == len {
        Ok(values)
    } else {
        Err(DecodeError::Corrupt(what))
    }
}

/// The predicted class of one probability pair: malicious only when it
/// is strictly more likely.
fn class_of(probs: &[f64; CLASSES]) -> usize {
    usize::from(probs[1] > probs[0])
}

impl Classifier for Cnn {
    fn name(&self) -> &'static str {
        "CNN"
    }

    fn predict(&self, features: &[f64]) -> usize {
        class_of(&self.forward_one(features))
    }

    fn predict_with_work(&self, features: &[f64]) -> (usize, u64) {
        (self.predict(features), self.macs_per_row())
    }

    fn input_dims(&self) -> Option<usize> {
        Some(self.config.input_len)
    }

    fn predict_batch_spans_into(
        &self,
        view: MatrixView<'_>,
        spans: &[RowSpan],
        out: &mut Vec<usize>,
        span_work: &mut Vec<u64>,
    ) -> u64 {
        // The spans' rows run back to back through the serial lane
        // kernel; blocks may straddle span boundaries because lanes
        // never mix.
        out.clear();
        self.forward_rows(view, spans.iter().flat_map(RowSpan::range), |probs| {
            out.extend(probs.iter().map(class_of))
        });
        let macs = self.macs_per_row();
        span_work.clear();
        span_work.extend(spans.iter().map(|span| macs * span.len as u64));
        span_work.iter().sum()
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(CNN_MAGIC);
        e.put_usize(self.config.input_len);
        e.put_usize(self.config.conv1_filters);
        e.put_usize(self.config.conv2_filters);
        e.put_usize(self.config.kernel);
        e.put_usize(self.config.dilation2);
        e.put_usize(self.config.hidden);
        e.put_usize(self.config.epochs);
        e.put_usize(self.config.batch_size);
        e.put_f64(self.config.learning_rate);
        for layer in [&self.conv1, &self.conv2] {
            e.put_f64_slice(&layer.w);
            e.put_f64_slice(&layer.b);
        }
        for layer in [&self.fc1, &self.fc2] {
            e.put_f64_slice(&layer.w);
            e.put_f64_slice(&layer.b);
        }
        e.finish()
    }

    fn memory_bytes(&self) -> u64 {
        // Parameters plus the lane scratch a batch pass holds: `LANES`
        // rows of every activation buffer.
        let activations = self.lane_buffer_lens().iter().sum::<usize>() * LANES;
        ((self.parameter_count() + activations) * std::mem::size_of::<f64>()) as u64
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

    fn tiny_config() -> CnnConfig {
        CnnConfig {
            input_len: 8,
            conv1_filters: 2,
            conv2_filters: 3,
            kernel: 3,
            dilation2: 2,
            hidden: 4,
            epochs: 30,
            batch_size: 16,
            learning_rate: 5e-3,
        }
    }

    /// The profiling hook agrees with `predict` and reports a fixed,
    /// input-independent MAC count (the architecture is static).
    #[test]
    fn predict_with_work_reports_architecture_macs() {
        let mut rng = SimRng::seed_from(42);
        let config = tiny_config();
        let net = Cnn::init(config, &mut rng);
        let a: Vec<f64> = (0..config.input_len).map(|_| rng.standard_normal()).collect();
        let b: Vec<f64> = (0..config.input_len).map(|_| rng.standard_normal()).collect();
        let (class_a, work_a) = net.predict_with_work(&a);
        let (class_b, work_b) = net.predict_with_work(&b);
        assert_eq!(class_a, net.predict(&a));
        assert_eq!(class_b, net.predict(&b));
        assert!(work_a > 0);
        assert_eq!(work_a, work_b, "MACs depend only on the architecture");
    }

    /// Numerical gradient check on a tiny network: analytic backprop
    /// must match central finite differences.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SimRng::seed_from(1);
        let config = tiny_config();
        let mut net = Cnn::init(config, &mut rng);
        let x: Vec<f64> = (0..config.input_len).map(|_| rng.standard_normal()).collect();
        let label = 1usize;

        let mut grads = Grads::zero_like(&net);
        let cache = net.forward(&x);
        net.backward(&cache, label, &mut grads);

        let eps = 1e-5;
        // Check a sample of parameters in every group.
        let checks: Vec<(&str, usize)> = vec![
            ("c1w", 0),
            ("c1w", 3),
            ("c1b", 1),
            ("c2w", 5),
            ("c2b", 2),
            ("f1w", 7),
            ("f1b", 0),
            ("f2w", 3),
            ("f2b", 1),
        ];
        for (group, idx) in checks {
            let analytic = match group {
                "c1w" => grads.c1w[idx],
                "c1b" => grads.c1b[idx],
                "c2w" => grads.c2w[idx],
                "c2b" => grads.c2b[idx],
                "f1w" => grads.f1w[idx],
                "f1b" => grads.f1b[idx],
                "f2w" => grads.f2w[idx],
                _ => grads.f2b[idx],
            };
            let param: &mut f64 = match group {
                "c1w" => &mut net.conv1.w[idx],
                "c1b" => &mut net.conv1.b[idx],
                "c2w" => &mut net.conv2.w[idx],
                "c2b" => &mut net.conv2.b[idx],
                "f1w" => &mut net.fc1.w[idx],
                "f1b" => &mut net.fc1.b[idx],
                "f2w" => &mut net.fc2.w[idx],
                _ => &mut net.fc2.b[idx],
            };
            let original = *param;
            *param = original + eps;
            let plus = net.loss(&x, label);
            let param: &mut f64 = match group {
                "c1w" => &mut net.conv1.w[idx],
                "c1b" => &mut net.conv1.b[idx],
                "c2w" => &mut net.conv2.w[idx],
                "c2b" => &mut net.conv2.b[idx],
                "f1w" => &mut net.fc1.w[idx],
                "f1b" => &mut net.fc1.b[idx],
                "f2w" => &mut net.fc2.w[idx],
                _ => &mut net.fc2.b[idx],
            };
            *param = original - eps;
            let minus = net.loss(&x, label);
            let param: &mut f64 = match group {
                "c1w" => &mut net.conv1.w[idx],
                "c1b" => &mut net.conv1.b[idx],
                "c2w" => &mut net.conv2.w[idx],
                "c2b" => &mut net.conv2.b[idx],
                "f1w" => &mut net.fc1.w[idx],
                "f1b" => &mut net.fc1.b[idx],
                "f2w" => &mut net.fc2.w[idx],
                _ => &mut net.fc2.b[idx],
            };
            *param = original;
            let numeric = (plus - minus) / (2.0 * eps);
            let denom = analytic.abs().max(numeric.abs()).max(1e-8);
            assert!(
                (analytic - numeric).abs() / denom < 1e-4,
                "{group}[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    fn separable_data(n: usize, dims: usize, rng: &mut SimRng) -> (FeatureMatrix, Vec<usize>) {
        let mut x = FeatureMatrix::new(dims);
        let mut y = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let base = if class == 0 { -1.0 } else { 1.0 };
            let row: Vec<f64> = (0..dims).map(|_| base + 0.5 * rng.standard_normal()).collect();
            x.push_row(&row);
            y.push(class);
        }
        (x, y)
    }

    #[test]
    fn cnn_learns_a_separable_problem() {
        let mut rng = SimRng::seed_from(2);
        let (x, y) = separable_data(300, 8, &mut rng);
        let net = Cnn::fit_view(x.view(), &y, &tiny_config(), &mut rng).unwrap();
        let correct = x.rows().zip(&y).filter(|(xi, &yi)| net.predict(xi) == yi).count();
        assert!(correct as f64 / x.n_rows() as f64 > 0.95, "train acc {correct}/300");
    }

    fn bits(probs: &[f64]) -> Vec<u64> {
        probs.iter().map(|p| p.to_bits()).collect()
    }

    /// The two copies of the block loop a test can reach: the one
    /// `forward_rows` dispatches to (the AVX2 copy on a CPU with AVX2),
    /// and the baseline body, called directly.
    #[derive(Debug, Clone, Copy)]
    enum BlockLoop {
        Dispatched,
        Baseline,
    }

    const BLOCK_LOOPS: [BlockLoop; 2] = [BlockLoop::Dispatched, BlockLoop::Baseline];

    /// Says so when `forward_rows` cannot take its AVX2 arm on this CPU:
    /// the dispatched path is then the baseline copy again, and the
    /// AVX2 copy goes untested.
    fn report_missing_avx2_arm() {
        #[cfg(target_arch = "x86_64")]
        let runs = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let runs = false;
        if !runs {
            println!("no AVX2 on this CPU: the AVX2 arm of the CNN block loop did not run");
        }
    }

    /// The lane kernel's probabilities for the `view` rows named by
    /// `rows`, through `block_loop`, as bit patterns.
    fn lane_bits(
        net: &Cnn,
        view: MatrixView<'_>,
        rows: impl Iterator<Item = usize>,
        block_loop: BlockLoop,
    ) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        let sink = |probs: &[[f64; CLASSES]]| out.extend(probs.iter().map(|p| bits(p)));
        match block_loop {
            BlockLoop::Dispatched => net.forward_rows(view, rows, sink),
            BlockLoop::Baseline => {
                let mut s = LaneScratch::default();
                s.prepare(net, LANES);
                net.lane_blocks(view, rows, sink, &mut s);
            }
        }
        out
    }

    /// `predict_view` over `view`, and the span kernel over the in-order
    /// `spans`, agree with per-row `predict_with_work` on classes and
    /// work totals.
    fn assert_batch_matches_per_row(net: &Cnn, view: MatrixView<'_>, spans: &[RowSpan]) {
        let per_row: Vec<(usize, u64)> = (0..view.n_rows())
            .map(|i| net.predict_with_work(view.row(i)))
            .collect();
        let classes: Vec<usize> = per_row.iter().map(|&(c, _)| c).collect();
        let work: u64 = per_row.iter().map(|&(_, w)| w).sum();
        assert_eq!(predict_view(net, view), (classes.clone(), work));
        let mut out = vec![9; 3];
        let mut span_work = vec![7];
        let total = net.predict_batch_spans_into(view, spans, &mut out, &mut span_work);
        let span_rows: Vec<usize> = spans.iter().flat_map(RowSpan::range).collect();
        assert_eq!(
            out,
            span_rows.iter().map(|&i| classes[i]).collect::<Vec<_>>()
        );
        let expected: Vec<u64> = spans
            .iter()
            .map(|span| span.range().map(|i| per_row[i].1).sum())
            .collect();
        assert_eq!(span_work, expected);
        assert_eq!(total, expected.iter().sum::<u64>());
    }

    /// The lane kernel must reproduce the nested-`Vec` reference forward
    /// pass bit for bit: on freshly initialised and trained networks
    /// across seeds, for single rows (one lane) and for every row count
    /// through two full blocks and a partial tail, on subset views with
    /// repeats and on span tilings with empty spans and spans straddling
    /// a lane block, through both copies of the block loop. The span
    /// kernel and `predict_view` must agree with per-row prediction on
    /// classes and work.
    #[test]
    fn lane_kernel_matches_reference_bits() {
        report_missing_avx2_arm();
        for seed in 31..36u64 {
            let mut rng = SimRng::seed_from(seed);
            let config = tiny_config();
            let init = Cnn::init(config, &mut rng);
            let (m, y) = separable_data(80, config.input_len, &mut rng);
            let trained =
                Cnn::fit_view(m.view(), &y, &CnnConfig { epochs: 3, ..config }, &mut rng).unwrap();
            for net in [&init, &trained] {
                let reference: Vec<Vec<u64>> =
                    m.rows().map(|xi| bits(&net.forward(xi).probs)).collect();
                for (xi, want) in m.rows().zip(&reference) {
                    assert_eq!(
                        &bits(&net.predict_proba(xi)),
                        want,
                        "seed {seed}: one-lane kernel diverged"
                    );
                }
                for block_loop in BLOCK_LOOPS {
                    assert_eq!(
                        lane_bits(net, m.view(), 0..m.n_rows(), block_loop),
                        reference,
                        "seed {seed}, {block_loop:?}: full view"
                    );
                }
                for n in 0..=2 * LANES + 1 {
                    let ix: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % 11).collect();
                    let view = m.subset(&ix);
                    let want: Vec<Vec<u64>> = ix.iter().map(|&i| reference[i].clone()).collect();
                    for block_loop in BLOCK_LOOPS {
                        assert_eq!(
                            lane_bits(net, view, 0..n, block_loop),
                            want,
                            "seed {seed}, {block_loop:?}: {n} subset rows"
                        );
                    }
                    let all = [RowSpan { start: 0, len: n }];
                    assert_batch_matches_per_row(net, view, &all);
                }
                // Spans straddling the first block boundary, empty spans
                // between and at both ends, and skipped rows.
                let first: Vec<usize> = (0..2 * LANES + 1).collect();
                let view = m.subset(&first);
                let tilings: [&[RowSpan]; 3] = [
                    &[
                        RowSpan { start: 0, len: 0 },
                        RowSpan { start: 0, len: 3 },
                        RowSpan { start: 3, len: 0 },
                        RowSpan {
                            start: 3,
                            len: LANES + 1,
                        },
                        RowSpan {
                            start: LANES + 4,
                            len: LANES - 3,
                        },
                        RowSpan {
                            start: 2 * LANES + 1,
                            len: 0,
                        },
                    ],
                    &[
                        RowSpan {
                            start: 1,
                            len: LANES - 1,
                        },
                        RowSpan {
                            start: LANES,
                            len: 0,
                        },
                        RowSpan {
                            start: LANES + 2,
                            len: LANES - 1,
                        },
                    ],
                    &[],
                ];
                for spans in tilings {
                    let rows: Vec<usize> = spans.iter().flat_map(RowSpan::range).collect();
                    let want: Vec<Vec<u64>> = rows.iter().map(|&i| reference[i].clone()).collect();
                    for block_loop in BLOCK_LOOPS {
                        assert_eq!(
                            lane_bits(net, view, rows.iter().copied(), block_loop),
                            want,
                            "seed {seed}, {block_loop:?}: spans {spans:?}"
                        );
                    }
                    assert_batch_matches_per_row(net, view, spans);
                }
            }
        }
    }

    /// Rows for exercising a decoded network of any input width.
    fn probe_rows(dims: usize) -> FeatureMatrix {
        let mut m = FeatureMatrix::new(dims);
        for i in 0..2 * LANES + 1 {
            let row: Vec<f64> = (0..dims)
                .map(|j| ((i * 31 + j * 7) % 13) as f64 - 6.0)
                .collect();
            m.push_row(&row);
        }
        m
    }

    /// Runs every prediction path of `net` once, and checks both copies
    /// of the block loop against the reference forward pass bit for bit.
    fn exercise(net: &Cnn) {
        let m = probe_rows(net.config().input_len);
        let (classes, _) = predict_view(net, m.view());
        assert_eq!(classes.len(), m.n_rows());
        assert_eq!(net.predict(m.row(0)), classes[0]);
        assert_eq!(net.predict_proba(m.row(1)).len(), CLASSES);
        let spans = [
            RowSpan {
                start: 0,
                len: LANES + 1,
            },
            RowSpan {
                start: LANES + 1,
                len: LANES,
            },
        ];
        let mut out = Vec::new();
        let _ = net.predict_batch_spans_into(m.view(), &spans, &mut out, &mut Vec::new());
        assert_eq!(out, classes);
        let reference: Vec<Vec<u64>> = (0..m.n_rows())
            .map(|i| bits(&net.forward(m.row(i)).probs))
            .collect();
        for block_loop in BLOCK_LOOPS {
            assert_eq!(
                lane_bits(net, m.view(), 0..m.n_rows(), block_loop),
                reference
            );
        }
    }

    /// The unchecked decoder's two shown defects — a conv1 weight vector
    /// with 5 values instead of its shape's 24, and a zero kernel width —
    /// and every other shape the kernel cannot run are typed errors.
    #[test]
    fn decode_rejects_shapes_the_kernel_cannot_run() {
        let mut rng = SimRng::seed_from(9);
        let net = Cnn::init(CnnConfig::default(), &mut rng);
        assert_eq!(net.conv1.w.len(), 24);
        assert_eq!(Cnn::decode(&net.encode()).as_ref(), Ok(&net));
        type Mutant = (&'static str, fn(&mut Cnn));
        let mutants: [Mutant; 16] = [
            ("short conv1 weights", |n| n.conv1.w.truncate(5)),
            ("zero kernel", |n| n.config.kernel = 0),
            ("even kernel", |n| n.config.kernel = 2),
            ("zero dilation", |n| n.config.dilation2 = 0),
            ("padding past the input", |n| n.config.dilation2 = 24),
            ("padding overflow", |n| n.config.dilation2 = usize::MAX),
            ("kernel past the input", |n| n.config.kernel = 49),
            ("input too short", |n| n.config.input_len = 3),
            ("no conv1 filters", |n| n.config.conv1_filters = 0),
            ("no conv2 filters", |n| n.config.conv2_filters = 0),
            ("no hidden units", |n| n.config.hidden = 0),
            ("long conv1 bias", |n| n.conv1.b.push(0.0)),
            ("short conv2 weights", |n| {
                n.conv2.w.pop();
            }),
            ("short conv2 bias", |n| {
                n.conv2.b.pop();
            }),
            ("long fc1 bias", |n| n.fc1.b.push(0.0)),
            ("short fc2 bias", |n| {
                n.fc2.b.pop();
            }),
        ];
        for (what, mutate) in mutants {
            let mut bad = net.clone();
            mutate(&mut bad);
            assert!(
                matches!(Cnn::decode(&bad.encode()), Err(DecodeError::Corrupt(_))),
                "{what} must be a corrupt blob"
            );
        }
    }

    /// Structure-aware decoder fuzzing: each config field and each
    /// parameter-vector length prefix of a valid blob is overwritten with
    /// a spread of values. Every mutant must either fail to decode or
    /// decode to a network whose prediction paths all run to completion
    /// without panicking, with both copies of the block loop matching
    /// the reference forward pass.
    #[test]
    fn decode_mutants_error_or_predict_cleanly() {
        report_missing_avx2_arm();
        let mut rng = SimRng::seed_from(10);
        let (x, y) = separable_data(64, 8, &mut rng);
        let net = Cnn::fit_view(
            x.view(),
            &y,
            &CnnConfig {
                epochs: 1,
                ..tiny_config()
            },
            &mut rng,
        )
        .unwrap();
        let blob = net.encode();
        let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        // The nine config words follow the 4-byte magic; then come the
        // eight length-prefixed parameter vectors.
        let mut fields: Vec<usize> = (0..9).map(|f| 4 + 8 * f).collect();
        let mut at = 4 + 8 * 9;
        for _ in 0..8 {
            fields.push(at);
            at += 8 + 8 * word(at) as usize;
        }
        assert_eq!(at, blob.len());
        let mut decoded = 0;
        for &field in &fields {
            let original = word(field);
            let values = [
                0,
                1,
                2,
                3,
                4,
                5,
                9,
                original.wrapping_sub(1),
                original.wrapping_add(1),
                original.wrapping_mul(2),
                original.wrapping_mul(3).wrapping_add(1),
                1 << 20,
                1 << 32,
                u64::MAX / 2,
                u64::MAX,
            ];
            for value in values {
                let mut mutant = blob.clone();
                mutant[field..field + 8].copy_from_slice(&value.to_le_bytes());
                if let Ok(decoded_net) = Cnn::decode(&mutant) {
                    exercise(&decoded_net);
                    decoded += 1;
                }
            }
        }
        // Epochs, batch size and the learning rate never reach predict,
        // and a slightly wider input keeps every layer's shape.
        assert!(decoded > 0);
        for cut in 0..blob.len() {
            assert!(Cnn::decode(&blob[..cut]).is_err(), "truncated at {cut}");
        }
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let mut rng = SimRng::seed_from(3);
        let net = Cnn::init(tiny_config(), &mut rng);
        let x: Vec<f64> = (0..8).map(|_| rng.standard_normal()).collect();
        let probs = net.predict_proba(&x);
        assert_eq!(probs.len(), 2);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn codec_roundtrip_preserves_predictions() {
        let mut rng = SimRng::seed_from(4);
        let (x, y) = separable_data(100, 8, &mut rng);
        let config = CnnConfig { epochs: 3, ..tiny_config() };
        let net = Cnn::fit_view(x.view(), &y, &config, &mut rng).unwrap();
        let back = Cnn::decode(&net.encode()).unwrap();
        for xi in x.rows() {
            assert_eq!(net.predict(xi), back.predict(xi));
            let a = net.predict_proba(xi);
            let b = back.predict_proba(xi);
            assert!((a[0] - b[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let mut rng = SimRng::seed_from(5);
        let net = Cnn::init(tiny_config(), &mut rng);
        // conv1: 2*1*3 + 2; conv2: 3*2*3 + 3; fc1: (3*2)*4 + 4; fc2: 4*2 + 2
        assert_eq!(net.parameter_count(), (6 + 2) + (18 + 3) + (24 + 4) + (8 + 2));
    }

    #[test]
    fn training_rejects_bad_input() {
        let mut rng = SimRng::seed_from(6);
        assert_eq!(
            Cnn::fit_view(FeatureMatrix::new(8).view(), &[], &tiny_config(), &mut rng),
            Err(TrainError::EmptyDataset)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = SimRng::seed_from(7);
            let (x, y) = separable_data(60, 8, &mut rng);
            let config = CnnConfig { epochs: 2, ..tiny_config() };
            Cnn::fit_view(x.view(), &y, &config, &mut rng).unwrap().encode()
        };
        assert_eq!(run(), run());
    }

    /// Batches larger than one micro-batch must fold their partial
    /// gradients identically at any thread budget.
    #[test]
    fn training_is_thread_count_invariant() {
        let run = |threads: usize| {
            crate::par::with_threads(threads, || {
                let mut rng = SimRng::seed_from(8);
                let (x, y) = separable_data(200, 8, &mut rng);
                let config = CnnConfig { epochs: 2, batch_size: 64, ..tiny_config() };
                Cnn::fit_view(x.view(), &y, &config, &mut rng).unwrap().encode()
            })
        };
        assert_eq!(run(1), run(4));
    }
}
