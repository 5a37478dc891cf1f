//! Property-based tests of the feature-extraction invariants.

use capture::dataset::Dataset;
use capture::record::{Label, PacketRecord};
use features::extract::{
    extract_matrix, windows_of, CaptureRows, WindowAggregator, TOTAL_FEATURES,
};
use features::scaling::{Scaler, ScalingMethod};
use features::window::{entropy, mean_std};
use ml::matrix::FeatureMatrix;
use netsim::packet::{Protocol, TcpFlags};
use netsim::time::SimTime;
use netsim::Addr;
use proptest::prelude::*;

/// Every value's bits, row by row, so signed zeros and NaNs compare
/// exactly.
fn bits<'a>(rows: impl Iterator<Item = &'a [f64]>) -> Vec<Vec<u64>> {
    rows.map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
}

prop_compose! {
    fn record_strategy()(
        ts_ms in 0u64..30_000,
        src_host in 1u8..20,
        src_port in 1024u16..65_535,
        dst_port in 1u16..65_535,
        proto in 0u8..2,
        wire_len in 40u32..1_500,
        seq in any::<u32>(),
        flag_bits in 0u8..32,
        malicious in any::<bool>(),
    ) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            src: Addr::new(10, 0, 0, src_host),
            src_port,
            dst: Addr::new(10, 0, 0, 2),
            dst_port,
            protocol: if proto == 0 { Protocol::Tcp } else { Protocol::Udp },
            flags: if proto == 0 { TcpFlags::from_bits(flag_bits) } else { TcpFlags::EMPTY },
            wire_len,
            payload_len: wire_len.saturating_sub(40),
            seq,
            label: if malicious { Label::Malicious } else { Label::Benign },
        }
    }
}

proptest! {
    /// Windows partition the packet stream: nothing lost, nothing
    /// duplicated, indices strictly increasing, and every packet is in
    /// the window its timestamp belongs to.
    #[test]
    fn windows_partition_stream(
        records in proptest::collection::vec(record_strategy(), 1..500),
        window_secs in 1u64..5,
    ) {
        let dataset = Dataset::from_records(records);
        let windows = windows_of(&dataset, window_secs);
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        prop_assert_eq!(total, dataset.len());
        for pair in windows.windows(2) {
            prop_assert!(pair[0].index < pair[1].index);
        }
        for w in &windows {
            for r in &w.records {
                prop_assert_eq!(r.window_index(window_secs), w.index);
            }
            prop_assert!(!w.records.is_empty(), "no empty windows are emitted");
        }
    }

    /// Entropy of a count distribution is within [0, log2(n)].
    #[test]
    fn entropy_bounds(counts in proptest::collection::vec(1u64..10_000, 1..64)) {
        let h = entropy(counts.iter().copied());
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (counts.len() as f64).log2() + 1e-9);
    }

    /// mean_std returns the exact mean and a non-negative finite std.
    #[test]
    fn mean_std_is_consistent(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let (mean, std) = mean_std(values.iter().copied());
        let expected: f64 = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((mean - expected).abs() < 1e-6 * expected.abs().max(1.0));
        prop_assert!(std >= 0.0);
        prop_assert!(std.is_finite());
    }

    /// Every feature vector has the declared arity and finite values,
    /// and the statistical tail is identical across a window.
    #[test]
    fn vectors_are_finite_and_shared(
        records in proptest::collection::vec(record_strategy(), 2..300),
    ) {
        let dataset = Dataset::from_records(records);
        for window in windows_of(&dataset, 1) {
            let mut matrix = FeatureMatrix::new(TOTAL_FEATURES);
            window.append_features(&mut matrix);
            prop_assert_eq!(matrix.n_rows(), window.records.len());
            let first_tail = &matrix.row(0)[features::extract::BASIC_FEATURES..];
            for row in matrix.rows() {
                prop_assert_eq!(row.len(), TOTAL_FEATURES);
                prop_assert!(row.iter().all(|v| v.is_finite()));
                prop_assert_eq!(&row[features::extract::BASIC_FEATURES..], first_tail);
            }
        }
    }

    /// Min-max scaling maps every training value into [0, 1] and is
    /// idempotent in arity.
    #[test]
    fn minmax_maps_training_data_to_unit_box(
        records in proptest::collection::vec(record_strategy(), 2..200),
    ) {
        let dataset = Dataset::from_records(records);
        let (mut matrix, _) = extract_matrix(&dataset, 1);
        let scaler = Scaler::fit_transform_matrix(ScalingMethod::MinMax, &mut matrix);
        prop_assert_eq!(scaler.dims(), TOTAL_FEATURES);
        for row in matrix.rows() {
            for &v in row {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "{v}");
            }
        }
    }

    /// The streaming aggregator and the batch splitter agree.
    #[test]
    fn streaming_equals_batch(
        records in proptest::collection::vec(record_strategy(), 1..300),
    ) {
        let dataset = Dataset::from_records(records);
        let batch = windows_of(&dataset, 1);
        let mut agg = WindowAggregator::new(1);
        let mut streaming = Vec::new();
        for &r in dataset.records() {
            if let Some(w) = agg.push(r) {
                streaming.push(w);
            }
        }
        if let Some(w) = agg.flush() {
            streaming.push(w);
        }
        prop_assert_eq!(batch.len(), streaming.len());
        for (a, b) in batch.iter().zip(&streaming) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(&a.records, &b.records);
            prop_assert_eq!(a.stats, b.stats);
        }
    }

    /// Stats-refresh reuse yields exactly the same *packets* per window,
    /// and recomputes stats on the refresh cadence.
    #[test]
    fn stats_refresh_reuses_cached_stats(
        records in proptest::collection::vec(record_strategy(), 50..400),
        refresh in 2usize..6,
    ) {
        let dataset = Dataset::from_records(records);
        let mut agg = WindowAggregator::new(1).with_stats_refresh(refresh);
        let mut windows = Vec::new();
        for &r in dataset.records() {
            if let Some(w) = agg.push(r) {
                windows.push(w);
            }
        }
        if let Some(w) = agg.flush() {
            windows.push(w);
        }
        let exact = windows_of(&dataset, 1);
        prop_assert_eq!(windows.len(), exact.len());
        for (i, (w, e)) in windows.iter().zip(&exact).enumerate() {
            prop_assert_eq!(&w.records, &e.records);
            if i % refresh == 0 {
                // Refresh windows carry freshly computed statistics.
                prop_assert_eq!(w.stats, e.stats);
            }
        }
    }

    /// The capture row source builds the rows and labels of the
    /// per-window path (`windows_of`, then `Window::append_features`),
    /// bit for bit, and so does `extract_matrix`.
    #[test]
    fn capture_rows_match_the_window_rows(
        records in proptest::collection::vec(record_strategy(), 1..300),
        window_secs in 1u64..4,
    ) {
        let dataset = Dataset::from_records(records);
        let mut expected = FeatureMatrix::new(TOTAL_FEATURES);
        let mut expected_labels = Vec::new();
        for window in windows_of(&dataset, window_secs) {
            window.append_features(&mut expected);
            expected_labels.extend(window.labels());
        }
        let rows = CaptureRows::new(&dataset, window_secs);
        let every: Vec<usize> = (0..rows.n_rows()).collect();
        prop_assert_eq!(bits(rows.gather(&every).rows()), bits(expected.rows()));
        prop_assert_eq!(&rows.labels(), &expected_labels);
        let (matrix, labels) = extract_matrix(&dataset, window_secs);
        prop_assert_eq!(bits(matrix.rows()), bits(expected.rows()));
        prop_assert_eq!(&labels, &expected_labels);
    }

    /// Gathering any index list (repeats, any order, empty) builds the
    /// named rows of the whole matrix, in index order.
    #[test]
    fn gather_matches_the_whole_matrix_rows(
        records in proptest::collection::vec(record_strategy(), 1..300),
        picks in proptest::collection::vec(any::<usize>(), 0..100),
    ) {
        let dataset = Dataset::from_records(records);
        let (matrix, _) = extract_matrix(&dataset, 1);
        let indices: Vec<usize> = picks.iter().map(|p| p % matrix.n_rows()).collect();
        let gathered = CaptureRows::new(&dataset, 1).gather(&indices);
        prop_assert_eq!(gathered.n_rows(), indices.len());
        prop_assert_eq!(gathered.n_cols(), TOTAL_FEATURES);
        let picked = indices.iter().map(|&i| matrix.row(i));
        prop_assert_eq!(bits(gathered.rows()), bits(picked));
    }

    /// A scaler fitted from the row source has the parameters, bit for
    /// bit, of one fitted on the built matrix, for both methods (an
    /// `f64` prints in a form that reads back to the same bits).
    #[test]
    fn scaler_fit_from_rows_matches_the_matrix_fit(
        records in proptest::collection::vec(record_strategy(), 1..300),
        window_secs in 1u64..4,
    ) {
        let dataset = Dataset::from_records(records);
        let (matrix, _) = extract_matrix(&dataset, window_secs);
        let rows = CaptureRows::new(&dataset, window_secs);
        for method in [ScalingMethod::MinMax, ScalingMethod::ZScore] {
            prop_assert_eq!(
                format!("{:?}", Scaler::fit_rows(method, &rows)),
                format!("{:?}", Scaler::fit_matrix(method, &matrix))
            );
        }
    }
}
