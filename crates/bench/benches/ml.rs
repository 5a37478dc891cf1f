//! ML hot-path benchmarks: training and batch prediction.
//!
//! `rf_train` compares the presorted, cache-friendly CART implementation
//! against `legacy_node_sort`, a self-contained replica of the previous
//! per-node-sorting split search (bit-for-bit the old algorithm, kept
//! here so the speedup is measured against the real thing rather than a
//! strawman). The remaining targets track absolute training/prediction
//! cost of the other detectors over the flat [`FeatureMatrix`] path.
//!
//! Run with `CRITERION_JSON_OUT=BENCH_ml.json cargo bench -p bench
//! --bench ml` to capture the summary numbers. Parallel speedups only
//! show on multi-core hosts; on a single-core runner the presort is the
//! measurable win and the rayon path degrades gracefully to serial.

use capture::dataset::Dataset;
use capture::record::{Label, PacketRecord};
use criterion::{criterion_group, criterion_main, Criterion};
use features::extract::WindowAggregator;
use ids::pipeline::{IdsConfig, ModelKind, TrainedIds};
use ids::serving::{BackpressurePolicy, IngestQueue};
use ml::classifier::{predict_view, Classifier, RowSpan};
use ml::cnn::{Cnn, CnnConfig};
use ml::kmeans::{KMeans, KMeansConfig};
use ml::matrix::FeatureMatrix;
use ml::rf::{ForestConfig, RandomForest};
use netsim::packet::{Addr, Protocol};
use netsim::rng::SimRng;
use netsim::time::SimTime;
use std::hint::black_box;

/// Feature arity: matches the paper's 23-dimensional windowed set.
const DIMS: usize = 23;
/// Training-set size for the forest / clustering benches.
const N_SAMPLES: usize = 1500;
/// Smaller subset for the CNN (one epoch dominates the others anyway).
const N_CNN: usize = 400;

/// Synthetic two-class dataset with correlated features and label
/// noise — enough structure that trees actually split to depth.
fn synth(n: usize, seed: u64) -> (FeatureMatrix, Vec<usize>, Vec<Vec<f64>>) {
    let mut rng = SimRng::seed_from(seed);
    let mut matrix = FeatureMatrix::new(DIMS);
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let class = rng.chance(0.5);
        let shift = if class { 0.6 } else { 0.0 };
        let mut row = [0.0f64; DIMS];
        for (j, v) in row.iter_mut().enumerate() {
            // A few discrete features (ports/flags analogues), the rest
            // continuous; class-dependent shift on half the columns.
            *v = if j % 5 == 0 {
                rng.below(6) as f64
            } else {
                rng.standard_normal() + if j % 2 == 0 { shift } else { 0.0 }
            };
        }
        let label = if rng.chance(0.08) { usize::from(!class) } else { usize::from(class) };
        matrix.push_row(&row);
        rows.push(row.to_vec());
        labels.push(label);
    }
    (matrix, labels, rows)
}

// ---------------------------------------------------------------------
// Legacy baseline: the previous CART split search, which re-sorted the
// candidate feature values at every node and re-scanned all bag indices
// per threshold. Replicated verbatim (modulo trimming) from the
// pre-rework `ml::rf` so the benchmark ratio is honest.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct LegacyTreeConfig {
    max_depth: usize,
    min_samples_split: usize,
    max_features: usize,
    threshold_candidates: usize,
}

enum LegacyNode {
    Leaf,
    // Fields are written but never read back: the baseline only trains,
    // it never predicts, but the stores are part of the measured work.
    #[allow(dead_code)]
    Split { feature: usize, threshold: f64, left: u32, right: u32 },
}

struct LegacyTree {
    nodes: Vec<LegacyNode>,
}

fn legacy_gini(pos: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    2.0 * p * (1.0 - p)
}

fn legacy_best_split(
    x: &[Vec<f64>],
    y: &[usize],
    indices: &[usize],
    config: &LegacyTreeConfig,
    rng: &mut SimRng,
) -> Option<(usize, f64)> {
    let dims = x[0].len();
    let mut features: Vec<usize> = (0..dims).collect();
    rng.shuffle(&mut features);
    features.truncate(config.max_features.min(dims));

    let total = indices.len();
    let total_pos = indices.iter().filter(|&&i| y[i] == 1).count();
    let parent = legacy_gini(total_pos, total);

    let mut best: Option<(f64, usize, f64)> = None;
    for &feature in &features {
        // The hot spot being replaced: a fresh sort of the node's values
        // for every (node, feature) pair...
        let mut values: Vec<f64> = indices.iter().map(|&i| x[i][feature]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        let midpoints: Vec<f64> = values.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
        let budget = config.threshold_candidates.max(1);
        let chosen: Vec<f64> = if midpoints.len() <= budget {
            midpoints
        } else {
            (0..budget)
                .map(|c| midpoints[c * (midpoints.len() - 1) / (budget - 1).max(1)])
                .collect()
        };
        for threshold in chosen {
            // ...followed by a full rescan of the bag per threshold.
            let mut left_n = 0usize;
            let mut left_pos = 0usize;
            for &i in indices {
                if x[i][feature] <= threshold {
                    left_n += 1;
                    left_pos += usize::from(y[i] == 1);
                }
            }
            let right_n = total - left_n;
            if left_n == 0 || right_n == 0 {
                continue;
            }
            let right_pos = total_pos - left_pos;
            let weighted = (left_n as f64 * legacy_gini(left_pos, left_n)
                + right_n as f64 * legacy_gini(right_pos, right_n))
                / total as f64;
            let gain = parent - weighted;
            if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, feature, threshold));
            }
        }
    }
    best.map(|(_, feature, threshold)| (feature, threshold))
}

fn legacy_grow(
    tree: &mut LegacyTree,
    x: &[Vec<f64>],
    y: &[usize],
    indices: Vec<usize>,
    depth: usize,
    config: &LegacyTreeConfig,
    rng: &mut SimRng,
) -> u32 {
    let node_id = tree.nodes.len() as u32;
    let first = y[indices[0]];
    let pure = indices.iter().all(|&i| y[i] == first);
    if depth >= config.max_depth || indices.len() < config.min_samples_split || pure {
        tree.nodes.push(LegacyNode::Leaf);
        return node_id;
    }
    let Some((feature, threshold)) = legacy_best_split(x, y, &indices, config, rng) else {
        tree.nodes.push(LegacyNode::Leaf);
        return node_id;
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| x[i][feature] <= threshold);
    if left_idx.is_empty() || right_idx.is_empty() {
        tree.nodes.push(LegacyNode::Leaf);
        return node_id;
    }
    tree.nodes.push(LegacyNode::Leaf);
    let left = legacy_grow(tree, x, y, left_idx, depth + 1, config, rng);
    let right = legacy_grow(tree, x, y, right_idx, depth + 1, config, rng);
    tree.nodes[node_id as usize] = LegacyNode::Split { feature, threshold, left, right };
    node_id
}

/// The old serial forest loop: bootstrap bag then fit, one tree at a
/// time, all from a single rng stream.
fn legacy_forest_fit(
    x: &[Vec<f64>],
    y: &[usize],
    config: &ForestConfig,
    rng: &mut SimRng,
) -> Vec<LegacyTree> {
    let dims = x[0].len();
    let legacy = LegacyTreeConfig {
        max_depth: config.tree.max_depth,
        min_samples_split: config.tree.min_samples_split,
        max_features: config
            .tree
            .max_features
            .unwrap_or_else(|| (dims as f64).sqrt().ceil() as usize),
        threshold_candidates: config.tree.threshold_candidates,
    };
    let n = x.len();
    (0..config.n_trees.max(1))
        .map(|_| {
            let indices: Vec<usize> = if config.bootstrap {
                (0..n).map(|_| rng.below(n as u64) as usize).collect()
            } else {
                (0..n).collect()
            };
            let mut tree = LegacyTree { nodes: Vec::new() };
            legacy_grow(&mut tree, x, y, indices, 0, &legacy, rng);
            tree
        })
        .collect()
}

fn bench_ml(c: &mut Criterion) {
    let (matrix, labels, rows) = synth(N_SAMPLES, 42);
    let forest_config = ForestConfig::default();

    // Untimed warmup: fault in the dataset and let the first-fit page
    // allocations happen outside the measured window.
    {
        let mut rng = SimRng::seed_from(7);
        black_box(RandomForest::fit_view(matrix.view(), &labels, &forest_config, &mut rng).unwrap());
        let mut rng = SimRng::seed_from(7);
        black_box(legacy_forest_fit(&rows, &labels, &forest_config, &mut rng));
    }

    let mut group = c.benchmark_group("rf_train");
    group.sample_size(10);
    group.bench_function("presorted", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(7);
            black_box(
                RandomForest::fit_view(matrix.view(), &labels, &forest_config, &mut rng).unwrap(),
            )
        })
    });
    group.bench_function("presorted_threads_1", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(7);
            ml::par::with_threads(1, || {
                black_box(
                    RandomForest::fit_view(matrix.view(), &labels, &forest_config, &mut rng)
                        .unwrap(),
                )
            })
        })
    });
    group.bench_function("legacy_node_sort", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(7);
            black_box(legacy_forest_fit(&rows, &labels, &forest_config, &mut rng))
        })
    });
    group.finish();

    let (cnn_matrix, cnn_labels, _) = synth(N_CNN, 43);
    let cnn_config = CnnConfig { input_len: DIMS, epochs: 1, ..CnnConfig::default() };
    let mut group = c.benchmark_group("cnn_train");
    group.sample_size(10);
    group.bench_function("one_epoch", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(7);
            black_box(
                Cnn::fit_view(cnn_matrix.view(), &cnn_labels, &cnn_config, &mut rng).unwrap(),
            )
        })
    });
    // Identical results by construction; the ratio to `one_epoch` is the
    // parallel speedup (≈ 1 on a single-core host).
    group.bench_function("one_epoch_threads_1", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(7);
            ml::par::with_threads(1, || {
                black_box(
                    Cnn::fit_view(cnn_matrix.view(), &cnn_labels, &cnn_config, &mut rng).unwrap(),
                )
            })
        })
    });
    group.finish();

    let kmeans_config = KMeansConfig::default();
    let mut group = c.benchmark_group("kmeans_train");
    group.sample_size(10);
    group.bench_function("fit", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed_from(7);
            black_box(KMeans::fit_view(matrix.view(), &kmeans_config, &mut rng).unwrap())
        })
    });
    group.finish();

    let mut rng = SimRng::seed_from(7);
    let forest = RandomForest::fit_view(matrix.view(), &labels, &forest_config, &mut rng).unwrap();
    let mut group = c.benchmark_group("predict_batch");
    group.sample_size(20);
    group.bench_function("rf", |b| b.iter(|| black_box(predict_view(&forest, matrix.view()))));
    // The CNN classifies the same matrix through its serial span kernel,
    // one span over every row, reusing the output buffers as the IDS
    // tick does.
    let mut rng = SimRng::seed_from(7);
    let cnn = Cnn::fit_view(cnn_matrix.view(), &cnn_labels, &cnn_config, &mut rng).unwrap();
    let whole = [RowSpan { start: 0, len: matrix.n_rows() }];
    let (mut predictions, mut span_work) = (Vec::new(), Vec::new());
    group.bench_function("cnn", |b| {
        b.iter(|| {
            black_box(cnn.predict_batch_spans_into(
                matrix.view(),
                &whole,
                &mut predictions,
                &mut span_work,
            ))
        })
    });
    group.finish();

    bench_serving_window(c);
}

/// Synthetic labeled packet stream: `per_window` packets per second for
/// `secs` seconds, benign HTTP-ish flows mixed with a malicious flood.
fn synth_packets(secs: u64, per_window: u64, seed: u64) -> Vec<PacketRecord> {
    let mut rng = SimRng::seed_from(seed);
    let mut records = Vec::with_capacity((secs * per_window) as usize);
    for s in 0..secs {
        for i in 0..per_window {
            let malicious = rng.chance(0.4);
            let (src, dst_port, wire_len, label) = if malicious {
                (Addr::new(10, 0, 1, 1 + rng.below(8) as u8), 80, 60, Label::Malicious)
            } else {
                (
                    Addr::new(10, 0, 0, 1 + rng.below(8) as u8),
                    1024 + rng.below(4000) as u16,
                    200 + rng.below(1000) as u32,
                    Label::Benign,
                )
            };
            records.push(PacketRecord {
                ts: SimTime::from_millis(s * 1000 + i * 1000 / per_window.max(1)),
                src,
                src_port: 1024 + rng.below(30_000) as u16,
                dst: Addr::new(10, 0, 0, 250),
                dst_port,
                protocol: Protocol::Udp,
                flags: Default::default(),
                wire_len,
                payload_len: wire_len.saturating_sub(42),
                seq: 0,
                label,
            });
        }
    }
    records
}

/// The serving layer's per-window hot path, end to end: offer a
/// window's records into the bounded ingest queue, drain them through
/// the window aggregator, and classify the completed window against a
/// trained model — the work [`ids::serving::IdsService`] does per tick
/// and per tenant, minus the simulator around it. The queue and
/// aggregator persist across iterations (as they do in the long-lived
/// service): each iteration streams one epoch's records — the same
/// window shifted by the epoch offset — whose closing record hands the
/// previous window to the classifier, so the measured cost is the
/// steady-state incremental path, not first-window setup.
fn bench_serving_window(c: &mut Criterion) {
    let train = Dataset::from_records(synth_packets(20, 400, 44));
    let config = IdsConfig { holdout_fraction: 0.0, max_train_samples: 4_000, ..IdsConfig::default() };
    let kind = ModelKind::KMeans(KMeansConfig { k_max: 8, ..KMeansConfig::default() });
    let mut rng = SimRng::seed_from(45);
    let model: TrainedIds =
        TrainedIds::train(&train, &kind, config, &mut rng).expect("two-class synth trains").ids;

    // One window of live records; each epoch replays them shifted one
    // second later, with the first record doubling as the closer of the
    // previous epoch's window.
    let live = synth_packets(1, 1_000, 46);

    let mut scratch = FeatureMatrix::new(features::extract::TOTAL_FEATURES);
    let mut predictions = Vec::new();
    let mut group = c.benchmark_group("serving");
    group.sample_size(20);
    group.bench_function("serving_window_e2e", |b| {
        let mut queue = IngestQueue::new(2_048, BackpressurePolicy::DropOldest, 1);
        let mut aggregator = WindowAggregator::new(1);
        let mut epoch = 0u64;
        b.iter(|| {
            let offset_nanos = epoch * 1_000_000_000;
            for record in &live {
                let mut shifted = *record;
                shifted.ts = SimTime::from_nanos(offset_nanos + shifted.ts.as_nanos());
                queue.offer(shifted);
            }
            let mut detections = 0u64;
            while let Some(record) = queue.pop() {
                if let Some(window) = aggregator.push(record) {
                    let detection = model
                        .try_classify_window(&window, &mut scratch, &mut predictions)
                        .expect("arity matches");
                    black_box(detection);
                    detections += 1;
                }
            }
            assert!(queue.conservation_violation().is_none());
            epoch += 1;
            black_box(detections)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_ml
}
criterion_main!(benches);
