//! Property-based tests of the ML substrate's invariants.

use ml::classifier::Classifier;
use ml::codec::{Decoder, Encoder};
use ml::kmeans::{KMeans, KMeansConfig, KMeansDetector};
use ml::matrix::FeatureMatrix;
use ml::metrics::ConfusionMatrix;
use ml::rf::{DecisionTree, ForestConfig, RandomForest, TreeConfig};
use netsim::rng::SimRng;
use proptest::prelude::*;

proptest! {
    /// The binary codec round-trips arbitrary scalar/slice sequences.
    #[test]
    fn codec_roundtrips(
        u8s in proptest::collection::vec(any::<u8>(), 0..20),
        u64s in proptest::collection::vec(any::<u64>(), 0..20),
        f64s in proptest::collection::vec(any::<f64>().prop_filter("finite", |v| v.is_finite()), 0..50),
    ) {
        let mut e = Encoder::new();
        for &v in &u8s {
            e.put_u8(v);
        }
        for &v in &u64s {
            e.put_u64(v);
        }
        e.put_f64_slice(&f64s);
        let blob = e.finish();
        let mut d = Decoder::new(&blob);
        for &v in &u8s {
            prop_assert_eq!(d.get_u8().unwrap(), v);
        }
        for &v in &u64s {
            prop_assert_eq!(d.get_u64().unwrap(), v);
        }
        prop_assert_eq!(d.get_f64_slice().unwrap(), f64s);
        prop_assert!(d.is_exhausted());
    }

    /// Decoding arbitrary garbage never panics: it returns an error or
    /// (harmlessly) a structurally valid model.
    #[test]
    fn decoders_never_panic_on_garbage(blob in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = RandomForest::decode(&blob);
        let _ = KMeansDetector::decode(&blob);
        let _ = ml::cnn::Cnn::decode(&blob);
    }

    /// Confusion-matrix identities: counts partition the total; accuracy
    /// in [0,1]; merging equals concatenating.
    #[test]
    fn confusion_matrix_identities(
        pairs in proptest::collection::vec((0usize..2, 0usize..2), 1..200),
    ) {
        let (truth, pred): (Vec<usize>, Vec<usize>) = pairs.iter().copied().unzip();
        let m = ConfusionMatrix::from_predictions(&truth, &pred);
        prop_assert_eq!(m.total(), truth.len() as u64);
        prop_assert!((0.0..=1.0).contains(&m.accuracy()));
        if let Some(p) = m.precision() {
            prop_assert!((0.0..=1.0).contains(&p));
        }
        if let Some(r) = m.recall() {
            prop_assert!((0.0..=1.0).contains(&r));
        }
        // Split/merge agrees with whole-set construction.
        let half = truth.len() / 2;
        let mut merged = ConfusionMatrix::from_predictions(&truth[..half], &pred[..half]);
        merged.merge(&ConfusionMatrix::from_predictions(&truth[half..], &pred[half..]));
        prop_assert_eq!(merged, m);
    }
}

fn two_blobs(n: usize, gap: f64, seed: u64) -> (FeatureMatrix, Vec<usize>) {
    let mut rng = SimRng::seed_from(seed);
    let mut x = FeatureMatrix::new(2);
    let mut y = Vec::new();
    for i in 0..n {
        let class = i % 2;
        let center = if class == 0 { -gap } else { gap };
        x.push_row(&[center + rng.standard_normal(), rng.standard_normal()]);
        y.push(class);
    }
    (x, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// K-Means inertia is non-increasing in the cluster budget (plain
    /// Lloyd, no pruning).
    #[test]
    fn kmeans_inertia_monotone_in_k(seed in any::<u64>()) {
        let (x, _) = two_blobs(200, 4.0, seed);
        let mut inertias = Vec::new();
        for k in [1usize, 2, 4, 8] {
            let mut rng = SimRng::seed_from(seed ^ 1);
            let config = KMeansConfig { k_max: k, beta: 0.0, ..KMeansConfig::default() };
            inertias.push(KMeans::fit_view(x.view(), &config, &mut rng).unwrap().inertia());
        }
        for pair in inertias.windows(2) {
            // k-means++ with a fixed seed: larger budgets never fit worse
            // by more than numerical noise.
            prop_assert!(pair[1] <= pair[0] * 1.001, "{} -> {}", pair[0], pair[1]);
        }
    }

    /// A trained tree fits its own training data at least as well as the
    /// majority-class baseline.
    #[test]
    fn tree_beats_majority_baseline(seed in any::<u64>(), gap in 0.5f64..4.0) {
        let (x, y) = two_blobs(150, gap, seed);
        let mut rng = SimRng::seed_from(seed ^ 2);
        let all: Vec<usize> = (0..x.n_rows()).collect();
        let tree = DecisionTree::fit_view(x.view(), &y, &all, &TreeConfig::default(), &mut rng);
        let correct = x.rows().zip(&y).filter(|(xi, &yi)| tree.predict(xi) == yi).count();
        let majority = y.iter().filter(|&&l| l == 1).count().max(y.len() / 2);
        prop_assert!(correct >= majority, "correct {correct} vs majority {majority}");
    }

    /// Forest predictions are invariant under codec round-trip for
    /// arbitrary training seeds and shapes.
    #[test]
    fn forest_roundtrip_predictions(seed in any::<u64>(), n_trees in 1usize..12) {
        let (x, y) = two_blobs(80, 2.0, seed);
        let mut rng = SimRng::seed_from(seed ^ 3);
        let config = ForestConfig { n_trees, ..ForestConfig::default() };
        let forest = RandomForest::fit_view(x.view(), &y, &config, &mut rng).unwrap();
        let blob = forest.encode();
        let back = RandomForest::decode(&blob).unwrap();
        for xi in x.rows() {
            prop_assert_eq!(forest.predict(xi), back.predict(xi));
        }
        // Size metric equals blob length by definition.
        prop_assert_eq!(back.encode().len(), blob.len());
    }

    /// The U-K-Means cluster count never exceeds its budget and its
    /// proportions form a distribution.
    #[test]
    fn ukmeans_proportions_are_a_distribution(seed in any::<u64>(), k_max in 2usize..20) {
        let (x, _) = two_blobs(150, 3.0, seed);
        let mut rng = SimRng::seed_from(seed ^ 4);
        let config = KMeansConfig { k_max, ..KMeansConfig::default() };
        let model = KMeans::fit_view(x.view(), &config, &mut rng).unwrap();
        prop_assert!(model.k() >= 1);
        prop_assert!(model.k() <= k_max);
        let total: f64 = model.proportions().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "proportions sum {total}");
        prop_assert!(model.proportions().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// Thread-count invariance: the serialized bytes of every parallel
    /// trainer are a pure function of the seed, whether the data-parallel
    /// helpers run on one thread or many. This is the repo's determinism
    /// contract for the rayon-based hot path — `DDOSHIELD_SEED` must mean
    /// the same model on a laptop and a 64-core runner.
    #[test]
    fn parallel_training_is_thread_count_invariant(seed in any::<u64>()) {
        let (m, y) = two_blobs(90, 2.0, seed);

        let forest_config = ForestConfig { n_trees: 6, ..ForestConfig::default() };
        let rf = |threads: usize| {
            ml::par::with_threads(threads, || {
                let mut rng = SimRng::seed_from(seed ^ 5);
                RandomForest::fit_view(m.view(), &y, &forest_config, &mut rng).unwrap().encode()
            })
        };
        prop_assert_eq!(rf(1), rf(4));

        let kmeans_config = KMeansConfig { k_max: 6, ..KMeansConfig::default() };
        let km = |threads: usize| {
            ml::par::with_threads(threads, || {
                let mut rng = SimRng::seed_from(seed ^ 6);
                KMeansDetector::fit_view(m.view(), &y, &kmeans_config, &mut rng)
                    .unwrap()
                    .encode()
            })
        };
        prop_assert_eq!(km(1), km(4));

        // The CNN needs a few pooling stages of width, so tile the two
        // blob coordinates out to eight features.
        let mut mw = FeatureMatrix::new(8);
        for row in m.rows() {
            let wide: Vec<f64> = row.iter().cycle().copied().take(8).collect();
            mw.push_row(&wide);
        }
        let cnn_config = ml::cnn::CnnConfig {
            input_len: 8,
            conv1_filters: 2,
            conv2_filters: 2,
            kernel: 3,
            dilation2: 1,
            hidden: 4,
            epochs: 1,
            batch_size: 32,
            learning_rate: 1e-3,
        };
        let cnn = |threads: usize| {
            ml::par::with_threads(threads, || {
                let mut rng = SimRng::seed_from(seed ^ 7);
                ml::cnn::Cnn::fit_view(mw.view(), &y, &cnn_config, &mut rng).unwrap().encode()
            })
        };
        prop_assert_eq!(cnn(1), cnn(4));
    }

    /// CNN probabilities are a distribution for arbitrary finite inputs.
    #[test]
    fn cnn_probabilities_are_distributions(
        seed in any::<u64>(),
        input in proptest::collection::vec(-1e3f64..1e3, 8),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let config = ml::cnn::CnnConfig {
            input_len: 8,
            conv1_filters: 2,
            conv2_filters: 2,
            kernel: 3,
            dilation2: 1,
            hidden: 4,
            epochs: 0,
            batch_size: 8,
            learning_rate: 1e-3,
        };
        let net = ml::cnn::Cnn::init(config, &mut rng);
        let probs = net.predict_proba(&input);
        prop_assert_eq!(probs.len(), 2);
        prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        prop_assert!(net.predict(&input) < 2);
    }
}
