//! Proof that steady-state batch prediction is allocation-free, and
//! that CNN training allocates per mini-batch, never per row.
//!
//! A counting global allocator wraps the system allocator (the same
//! harness as `netsim`'s flood test; the crate-level
//! `#![deny(unsafe_code)]` covers `src/`, the shim lives in this
//! integration test only). After one warm-up pass grows every reusable
//! buffer — the caller's prediction and span-work `Vec`s, the CNN's
//! thread-local lane scratch — repeated `predict_batch_spans_into`
//! passes (the one batch kernel, which the live IDS tick calls) over a
//! random forest, a CNN and a K-Means detector, and single-row CNN
//! predictions, must perform **zero** heap allocations. A one-thread
//! CNN training epoch may allocate at most once per row.
//!
//! This is the teeth behind the inference memory model: the SoA node
//! pool walks flat slices, the CNN's lane kernel reuses one scratch per
//! thread, K-Means sweeps its centroids in place, and any regression
//! that reintroduces a per-call, per-row, per-block or per-layer `Vec`
//! fails here rather than showing up only as a bench slowdown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ml::classifier::{Classifier, RowSpan};
use ml::cnn::{Cnn, CnnConfig};
use ml::kmeans::{KMeansConfig, KMeansDetector};
use ml::matrix::FeatureMatrix;
use ml::rf::{ForestConfig, RandomForest};
use netsim::rng::SimRng;

struct CountingAllocator;

thread_local! {
    /// `true` only on the test thread (every measured path is serial) —
    /// the libtest main thread lazily allocates channel-wait state at a
    /// wall-clock-dependent moment, which must not count against us.
    /// Const-initialised so the allocator's read never itself allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread, so tests running side by
    /// side never count each other's.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_here() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

/// Allocations counted on this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_here();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const DIMS: usize = 23;

fn synth(n: usize, dims: usize, seed: u64) -> (FeatureMatrix, Vec<usize>) {
    let mut rng = SimRng::seed_from(seed);
    let mut matrix = FeatureMatrix::new(dims);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let class = rng.chance(0.5);
        let shift = if class { 0.8 } else { 0.0 };
        let row: Vec<f64> = (0..dims).map(|_| rng.standard_normal() + shift).collect();
        matrix.push_row(&row);
        labels.push(usize::from(class));
    }
    (matrix, labels)
}

#[test]
fn steady_state_prediction_allocates_nothing() {
    let (matrix, labels) = synth(400, DIMS, 99);
    let mut rng = SimRng::seed_from(7);
    let forest = RandomForest::fit_view(
        matrix.view(),
        &labels,
        &ForestConfig { n_trees: 9, ..ForestConfig::default() },
        &mut rng,
    )
    .unwrap();
    let cnn_config = CnnConfig { input_len: DIMS, epochs: 1, ..CnnConfig::default() };
    let cnn = Cnn::fit_view(matrix.view(), &labels, &cnn_config, &mut rng).unwrap();
    let kmeans =
        KMeansDetector::fit_view(matrix.view(), &labels, &KMeansConfig::default(), &mut rng)
            .unwrap();
    let models: [&dyn Classifier; 3] = [&forest, &cnn, &kmeans];

    let n = matrix.n_rows();
    // One span over every row, and uneven spans, so lane blocks straddle
    // span boundaries and passes end on partial blocks.
    let whole = [RowSpan { start: 0, len: n }];
    let uneven = [
        RowSpan { start: 0, len: 13 },
        RowSpan { start: 13, len: 0 },
        RowSpan {
            start: 13,
            len: n - 20,
        },
        RowSpan {
            start: n - 7,
            len: 6,
        },
    ];

    // Warm-up: grow the caller's output buffers and the CNN's
    // thread-local lane scratch to their working set.
    let mut predictions = Vec::new();
    let mut span_work = Vec::new();
    let mut warm = Vec::new();
    for model in models {
        for spans in [&whole[..], &uneven[..]] {
            let work =
                model.predict_batch_spans_into(matrix.view(), spans, &mut predictions, &mut span_work);
            assert!(work > 0, "{}", model.name());
            warm.push((work, predictions.clone()));
        }
    }
    let warm_class = cnn.predict(matrix.row(0));

    // Steady state: every model's span passes and per-row CNN calls,
    // with the allocator watching, for each model on its own so a
    // failure names the model that allocated.
    let mut checksum = 0usize;
    for (m, model) in models.iter().enumerate() {
        COUNTING.with(|c| c.set(true));
        let before = allocations();
        for _ in 0..5 {
            for (s, spans) in [&whole[..], &uneven[..]].into_iter().enumerate() {
                let work = model.predict_batch_spans_into(
                    matrix.view(),
                    spans,
                    &mut predictions,
                    &mut span_work,
                );
                assert_eq!((work, &predictions), (warm[2 * m + s].0, &warm[2 * m + s].1));
                checksum += predictions.iter().sum::<usize>();
            }
        }
        let after = allocations();
        COUNTING.with(|c| c.set(false));
        assert_eq!(
            after - before,
            0,
            "{}: steady-state span passes allocated {} times (checksum {checksum})",
            model.name(),
            after - before
        );
    }

    COUNTING.with(|c| c.set(true));
    let before = allocations();
    for i in 0..matrix.n_rows() {
        checksum += cnn.predict(matrix.row(i));
    }
    let after = allocations();
    COUNTING.with(|c| c.set(false));
    assert_eq!(
        after - before,
        0,
        "CNN single-row prediction allocated {} times (checksum {checksum})",
        after - before
    );
    assert_eq!(cnn.predict(matrix.row(0)), warm_class);
}

/// A one-thread epoch of the default CNN over 26-wide rows allocates a
/// fixed set of buffers (the network, its Adam state, the shuffled
/// index, the thread's training scratch) and a few per mini-batch (the
/// partial gradients and their list), never one per row or per layer:
/// at most one allocation per row, at two dataset sizes.
#[test]
fn cnn_training_allocates_at_most_once_per_row() {
    let config = CnnConfig {
        epochs: 1,
        ..CnnConfig::default()
    };
    for n in [640, 6_400] {
        let (matrix, labels) = synth(n, 26, 5);
        let mut rng = SimRng::seed_from(3);
        COUNTING.with(|c| c.set(true));
        let before = allocations();
        let net = ml::par::with_threads(1, || {
            Cnn::fit_view(matrix.view(), &labels, &config, &mut rng)
        });
        let after = allocations();
        COUNTING.with(|c| c.set(false));
        let net = net.unwrap();
        assert_eq!(net.config().input_len, 26);
        assert!(
            after - before <= n as u64,
            "a one-thread epoch over {n} rows allocated {} times",
            after - before
        );
    }
}
