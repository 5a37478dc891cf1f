//! Per-packet feature vectors and the streaming window aggregator.
//!
//! A packet's feature vector is its **basic** features (timestamp,
//! addresses, protocol, ports, lengths, flags — exactly the attribute
//! list of the paper's §IV-A) concatenated with the **statistical**
//! features of the window it belongs to
//! ([`crate::window::WindowStats`]).
//!
//! Note that the paper's basic features *include the capture timestamp
//! and raw IP addresses*, and the paper explicitly skips any
//! feature-usefulness selection ("beyond the scope of our work",
//! footnote 4, revisited in §IV-D's future work). Keeping them is part
//! of faithfully reproducing the evaluation: a model that memorises the
//! training run's attack *schedule* through the timestamp column aces
//! its training metrics and collapses on a live run whose schedule
//! differs — the very gap between the paper's train-time metrics and
//! its Table I real-time numbers.

use std::ops::Range;

use capture::dataset::Dataset;
use capture::record::{Label, PacketRecord};
use ml::matrix::FeatureMatrix;
use netsim::packet::{Protocol, TcpFlags};

use crate::incremental::FlowDelta;
use crate::scaling::FitInput;
use crate::window::{AckGrace, WindowStats, STAT_FEATURES, STAT_FEATURE_NAMES};

/// Number of basic per-packet features.
pub const BASIC_FEATURES: usize = 13;

/// Total features per packet (basic ⊕ statistical).
pub const TOTAL_FEATURES: usize = BASIC_FEATURES + STAT_FEATURES;

/// Names of the basic features, aligned with [`basic_features`].
pub const BASIC_FEATURE_NAMES: [&str; BASIC_FEATURES] = [
    "ts_secs",
    "src_addr",
    "dst_addr",
    "proto_tcp",
    "src_port",
    "dst_port",
    "wire_len",
    "payload_len",
    "flag_syn",
    "flag_ack",
    "flag_fin",
    "flag_rst",
    "flag_psh",
];

/// All feature names in vector order.
pub fn feature_names() -> Vec<&'static str> {
    BASIC_FEATURE_NAMES.iter().chain(STAT_FEATURE_NAMES.iter()).copied().collect()
}

/// The basic (per-packet) features.
pub fn basic_features(r: &PacketRecord) -> [f64; BASIC_FEATURES] {
    let flag = |f: TcpFlags| if r.flags.contains(f) { 1.0 } else { 0.0 };
    [
        r.ts.as_secs_f64(),
        r.src.to_bits() as f64,
        r.dst.to_bits() as f64,
        if r.protocol == Protocol::Tcp { 1.0 } else { 0.0 },
        r.src_port as f64,
        r.dst_port as f64,
        r.wire_len as f64,
        r.payload_len as f64,
        flag(TcpFlags::SYN),
        flag(TcpFlags::ACK),
        flag(TcpFlags::FIN),
        flag(TcpFlags::RST),
        flag(TcpFlags::PSH),
    ]
}

/// A completed time window: its packets and their shared statistics.
#[derive(Debug, Clone)]
pub struct Window {
    /// The window's index (whole multiples of the window length).
    pub index: u64,
    /// Statistics shared by every packet in the window.
    pub stats: WindowStats,
    /// The packets, in time order.
    pub records: Vec<PacketRecord>,
}

/// The one feature-row builder: a window's statistics fill the row's
/// tail once, and each record rewrites only the basic head.
struct RowBuilder([f64; TOTAL_FEATURES]);

impl RowBuilder {
    fn new(stats: &[f64; STAT_FEATURES]) -> Self {
        let mut builder = RowBuilder([0.0; TOTAL_FEATURES]);
        builder.set_stats(stats);
        builder
    }

    fn set_stats(&mut self, stats: &[f64; STAT_FEATURES]) {
        self.0[BASIC_FEATURES..].copy_from_slice(stats);
    }

    /// `record`'s row: its basic features, then the window statistics.
    fn row(&mut self, record: &PacketRecord) -> &[f64; TOTAL_FEATURES] {
        self.0[..BASIC_FEATURES].copy_from_slice(&basic_features(record));
        &self.0
    }
}

/// A record's ground-truth label (0 = benign, 1 = malicious).
fn label_of(record: &PacketRecord) -> usize {
    usize::from(record.label == Label::Malicious)
}

impl Window {
    /// Appends every packet's feature row to a flat matrix — no per-row
    /// allocation, so a cleared scratch matrix can be reused window after
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `out` was not created with [`TOTAL_FEATURES`] columns.
    pub fn append_features(&self, out: &mut FeatureMatrix) {
        let mut rows = RowBuilder::new(&self.stats.as_features());
        for r in &self.records {
            out.push_row(rows.row(r));
        }
    }

    /// Ground-truth labels (0 = benign, 1 = malicious), packet-aligned.
    pub fn labels(&self) -> Vec<usize> {
        self.records.iter().map(label_of).collect()
    }

    /// The majority ground-truth class of the window.
    pub fn majority_label(&self) -> Label {
        let malicious = self.records.iter().filter(|r| r.label == Label::Malicious).count();
        if malicious * 2 > self.records.len() {
            Label::Malicious
        } else {
            Label::Benign
        }
    }

    /// `true` if both classes are present (an attack-boundary window).
    pub fn is_mixed(&self) -> bool {
        let malicious = self.records.iter().filter(|r| r.label == Label::Malicious).count();
        malicious > 0 && malicious < self.records.len()
    }
}

/// Streaming window aggregation: push records in time order, receive
/// completed windows.
///
/// ```
/// use features::extract::WindowAggregator;
///
/// let mut agg = WindowAggregator::new(1);
/// // for r in records { if let Some(window) = agg.push(r) { ... } }
/// assert!(agg.flush().is_none());
/// ```
#[derive(Debug)]
pub struct WindowAggregator {
    window_secs: u64,
    stats_refresh: usize,
    ack_carry: AckGrace,
    windows_emitted: usize,
    cached_stats: Option<WindowStats>,
    current_index: Option<u64>,
    /// Absolute end of the in-progress window, in nanoseconds: the
    /// steady-state push compares timestamps against this cached
    /// boundary instead of dividing every record down to a window
    /// index (a per-record `u64` division otherwise).
    current_end_nanos: u64,
    current: Vec<PacketRecord>,
    /// Incremental per-flow state for the in-progress window: running
    /// aggregates updated per record, folded (flows touched only) at
    /// close. Its scratch maps are cleared (not dropped) at every
    /// window close. Bit-identical to the batch oracle
    /// ([`WindowStats::compute_streaming`]).
    delta: FlowDelta,
    /// Whether the in-progress window tracks full statistics or only
    /// handshake state (its stats will come from the refresh cache).
    /// Decided when the window opens; stable until it closes.
    full_tracking: bool,
}

/// The aggregator's cross-window handshake grace, in seconds: a SYN this
/// close to a window boundary waits for its ACK in the next window
/// before being counted as unanswered.
pub const DEFAULT_ACK_GRACE_SECS: f64 = 0.1;

impl WindowAggregator {
    /// Creates an aggregator with the given window length in seconds
    /// (the paper uses 1 s; zero clamps to one).
    pub fn new(window_secs: u64) -> Self {
        WindowAggregator {
            window_secs: window_secs.max(1),
            stats_refresh: 1,
            ack_carry: AckGrace::default(),
            windows_emitted: 0,
            cached_stats: None,
            current_index: None,
            current_end_nanos: 0,
            current: Vec::new(),
            delta: FlowDelta::new(),
            full_tracking: true,
        }
    }

    /// Recomputes the statistical features only every `refresh`-th
    /// window, reusing the cached values in between — the paper's §IV-E
    /// mitigation ("extending the period for computing these features"
    /// to reduce CPU usage). `refresh = 1` (the default) recomputes
    /// every window.
    pub fn with_stats_refresh(mut self, refresh: usize) -> Self {
        self.stats_refresh = refresh.max(1);
        self
    }

    /// The configured window length in seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// The configured statistical-feature refresh period, in windows.
    pub fn stats_refresh(&self) -> usize {
        self.stats_refresh
    }

    /// Pushes the next record (must be in non-decreasing time order).
    /// Returns the previous window when `record` starts a new one.
    pub fn push(&mut self, record: PacketRecord) -> Option<Window> {
        let completed = if self.current_index.is_some()
            && record.ts.as_nanos() >= self.current_end_nanos
        {
            self.take_window(false)
        } else {
            None
        };
        if self.current.is_empty() {
            // A window is opening: locate it — the only per-window
            // division; in-window records just compare against the
            // cached boundary above — and decide its tracking mode now.
            // The inputs (cache state, emitted count) cannot change
            // until it closes, so this matches the refresh decision at
            // close.
            let index = record.window_index(self.window_secs);
            self.current_index = Some(index);
            self.current_end_nanos = (index + 1)
                .saturating_mul(self.window_secs.saturating_mul(1_000_000_000));
            self.full_tracking = self.cached_stats.is_none()
                || self.windows_emitted.is_multiple_of(self.stats_refresh);
        }
        if self.full_tracking {
            self.delta.push(&record);
        } else {
            self.delta.push_handshake_only(&record);
        }
        self.current.push(record);
        completed
    }

    /// Completes and returns the in-progress window, if any. The final
    /// window is usually *partial*: its rate features are computed over
    /// the span it actually covers, not the nominal window length, and
    /// handshake deferral is disabled (there is no next window for an
    /// ACK to land in).
    pub fn flush(&mut self) -> Option<Window> {
        self.take_window(true)
    }

    fn take_window(&mut self, is_flush: bool) -> Option<Window> {
        let index = self.current_index?;
        if self.current.is_empty() {
            return None;
        }
        let records = std::mem::take(&mut self.current);
        // Pre-size the next window like this one: the replacement Vec
        // otherwise regrows from empty every window, re-copying the
        // records log at each doubling.
        self.current = Vec::with_capacity(records.len());
        self.current_index = None;
        let nominal = self.window_secs as f64;
        let window_start = (index * self.window_secs) as f64;
        let (span, window_end) = if is_flush {
            let last_ts = records.last().expect("non-empty window").ts.as_secs_f64();
            // The actual covered span, never beyond the nominal window
            // and floored so rates stay finite for a single packet.
            ((last_ts - window_start).clamp(1e-3, nominal), f64::INFINITY)
        } else {
            (nominal, window_start + nominal)
        };
        // The same predicate that selected the window's tracking mode
        // when it opened, so a fully tracked window always closes with
        // full statistics and a handshake-only window never needs them.
        let refresh_due = self.full_tracking;
        let stats = if refresh_due {
            // No record slice: everything order-sensitive was logged at
            // push time, so close cost is O(flows touched), not
            // O(records) re-walked.
            let (stats, carry) =
                self.delta.close(span, window_end, DEFAULT_ACK_GRACE_SECS, &self.ack_carry);
            self.ack_carry = carry;
            self.cached_stats = Some(stats);
            stats
        } else {
            // Cached stats are reused, but the handshake carry must
            // still track this window or the next fresh computation
            // would resolve SYNs against a stale boundary.
            self.ack_carry = self.delta.advance_carry(window_end, DEFAULT_ACK_GRACE_SECS);
            self.cached_stats.expect("cache checked above")
        };
        self.windows_emitted += 1;
        Some(Window { index, stats, records })
    }

    /// Forces an immediate stale-key cull on the incremental state's
    /// scratch maps — the `features.state_cull` fault-injection hook.
    /// Semantically invisible: culling only evicts entries no live
    /// window can see.
    pub fn force_cull(&mut self) {
        self.delta.force_cull();
    }

    /// Total distinct flows folded across all closed windows (the
    /// `features.incremental.flows_touched` observability feed).
    pub fn flows_touched(&self) -> u64 {
        self.delta.flows_touched()
    }

    /// Checks flow-state conservation on the in-progress window: the
    /// live per-flow aggregates must account for exactly the records
    /// pushed since the last boundary. Returns the first violation
    /// found, if any.
    pub fn state_conservation_violation(&self) -> Option<String> {
        if self.full_tracking {
            self.delta.state_conservation_violation()
        } else {
            // Handshake-only windows deliberately skip the flow
            // aggregates; there is nothing to conserve.
            None
        }
    }
}

/// Splits a whole dataset into completed windows.
pub fn windows_of(dataset: &Dataset, window_secs: u64) -> Vec<Window> {
    let mut agg = WindowAggregator::new(window_secs);
    let mut out = Vec::new();
    for &r in dataset.records() {
        if let Some(w) = agg.push(r) {
            out.push(w);
        }
    }
    if let Some(w) = agg.flush() {
        out.push(w);
    }
    out
}

/// A capture's feature rows, built only when asked for.
///
/// One [`WindowAggregator`] pass keeps, per window, its row range and
/// its statistics; the records stay in the dataset. Row `i` is record
/// `i`'s basic features, then its window's statistics — the row
/// [`extract_matrix`] stores — because the windows partition the
/// records in order. [`CaptureRows::gather`] builds just the rows a
/// caller reads, such as a training sample and a holdout.
#[derive(Debug)]
pub struct CaptureRows<'a> {
    records: &'a [PacketRecord],
    windows: Vec<WindowRows>,
}

/// One window of a [`CaptureRows`]: the rows it covers and the
/// statistics they share.
#[derive(Debug)]
struct WindowRows {
    rows: Range<usize>,
    stats: [f64; STAT_FEATURES],
}

impl<'a> CaptureRows<'a> {
    /// Windows `dataset` into `window_secs`-second windows (zero clamps
    /// to one, as in [`WindowAggregator::new`]).
    pub fn new(dataset: &'a Dataset, window_secs: u64) -> Self {
        let mut agg = WindowAggregator::new(window_secs);
        let mut windows = Vec::new();
        let mut keep = |w: Window| {
            let start = windows.last().map_or(0, |last: &WindowRows| last.rows.end);
            let rows = start..start + w.records.len();
            windows.push(WindowRows { rows, stats: w.stats.as_features() });
        };
        for &r in dataset.records() {
            if let Some(w) = agg.push(r) {
                keep(w);
            }
        }
        if let Some(w) = agg.flush() {
            keep(w);
        }
        CaptureRows { records: dataset.records(), windows }
    }

    /// Number of rows: one per record.
    pub fn n_rows(&self) -> usize {
        self.records.len()
    }

    /// `true` when the capture holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Ground-truth labels (0 = benign, 1 = malicious), one per row.
    pub fn labels(&self) -> Vec<usize> {
        self.records.iter().map(label_of).collect()
    }

    /// Builds the rows named by `indices`, in that order (repeats
    /// allowed): row `k` of the result is row `indices[k]` of the
    /// capture.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn gather(&self, indices: &[usize]) -> FeatureMatrix {
        let mut out = FeatureMatrix::with_capacity(indices.len(), TOTAL_FEATURES);
        let mut rows = RowBuilder::new(&[0.0; STAT_FEATURES]);
        let mut current = 0..0;
        for &i in indices {
            if !current.contains(&i) {
                let window = &self.windows[self.windows.partition_point(|w| w.rows.end <= i)];
                rows.set_stats(&window.stats);
                current = window.rows.clone();
            }
            out.push_row(rows.row(&self.records[i]));
        }
        out
    }
}

impl FitInput for CaptureRows<'_> {
    fn n_rows(&self) -> usize {
        self.records.len()
    }

    fn n_cols(&self) -> usize {
        TOTAL_FEATURES
    }

    /// Each record's basic features once, then each window's statistics
    /// once: the rows of a window share theirs.
    fn for_each_run(&self, mut fold: impl FnMut(usize, &[f64])) {
        for r in self.records {
            fold(0, &basic_features(r));
        }
        for w in &self.windows {
            fold(BASIC_FEATURES, &w.stats);
        }
    }

    fn for_each_row(&self, mut f: impl FnMut(&[f64])) {
        for w in &self.windows {
            let mut rows = RowBuilder::new(&w.stats);
            for r in &self.records[w.rows.clone()] {
                f(rows.row(r));
            }
        }
    }
}

/// Extracts the full per-packet feature matrix and labels of a dataset
/// into one flat row-major matrix, one row per packet in time order:
/// every row of [`CaptureRows`].
pub fn extract_matrix(dataset: &Dataset, window_secs: u64) -> (FeatureMatrix, Vec<usize>) {
    let rows = CaptureRows::new(dataset, window_secs);
    let every: Vec<usize> = (0..rows.n_rows()).collect();
    (rows.gather(&every), rows.labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::{Scaler, ScalingMethod};
    use netsim::time::SimTime;
    use netsim::Addr;

    fn record(ts_ms: u64, label: Label) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            src: Addr::new(10, 0, 0, 1),
            src_port: 5000,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
            protocol: Protocol::Tcp,
            flags: TcpFlags::ACK,
            wire_len: 100,
            payload_len: 60,
            seq: 1,
            label,
        }
    }

    #[test]
    fn vectors_have_declared_arity() {
        let window = Window {
            index: 0,
            stats: WindowStats::default(),
            records: vec![record(0, Label::Benign)],
        };
        let mut m = FeatureMatrix::new(TOTAL_FEATURES);
        window.append_features(&mut m);
        assert_eq!(m.n_rows(), 1);
        assert_eq!(m.row(0).len(), TOTAL_FEATURES);
        assert_eq!(feature_names().len(), TOTAL_FEATURES);
    }

    #[test]
    fn aggregator_partitions_by_second() {
        let mut agg = WindowAggregator::new(1);
        assert!(agg.push(record(100, Label::Benign)).is_none());
        assert!(agg.push(record(900, Label::Benign)).is_none());
        let w = agg.push(record(1_100, Label::Malicious)).expect("first window closes");
        assert_eq!(w.index, 0);
        assert_eq!(w.records.len(), 2);
        let w = agg.flush().expect("final window flushes");
        assert_eq!(w.index, 1);
        assert_eq!(w.records.len(), 1);
        assert!(agg.flush().is_none());
    }

    #[test]
    fn aggregator_handles_gaps() {
        let mut agg = WindowAggregator::new(1);
        agg.push(record(0, Label::Benign));
        let w = agg.push(record(10_000, Label::Benign)).expect("gap closes window");
        assert_eq!(w.index, 0);
        let w = agg.flush().unwrap();
        assert_eq!(w.index, 10);
    }

    #[test]
    fn windows_partition_the_dataset() {
        let records: Vec<PacketRecord> = (0..500)
            .map(|i| record(i * 17, if i % 3 == 0 { Label::Malicious } else { Label::Benign }))
            .collect();
        let ds = Dataset::from_records(records);
        let windows = windows_of(&ds, 1);
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, 500, "no packet lost or duplicated");
        // Indices strictly increase.
        for pair in windows.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
    }

    #[test]
    fn stats_are_shared_within_a_window() {
        let records = vec![record(0, Label::Benign), record(10, Label::Malicious)];
        let ds = Dataset::from_records(records);
        let (features, labels) = extract_matrix(&ds, 1);
        assert_eq!(features.n_rows(), 2);
        assert_eq!(labels, vec![0, 1]);
        // The statistical tail of both vectors is identical — the paper's
        // central design decision (and source of boundary noise).
        assert_eq!(features.row(0)[BASIC_FEATURES..], features.row(1)[BASIC_FEATURES..]);
    }

    #[test]
    fn matrix_extraction_matches_row_extraction() {
        let records: Vec<PacketRecord> = (0..200)
            .map(|i| record(i * 23, if i % 4 == 0 { Label::Malicious } else { Label::Benign }))
            .collect();
        let ds = Dataset::from_records(records);
        // Independent reference: each packet's basic features followed
        // by its window's statistics, built one packet at a time,
        // bypassing the flat-matrix row fill.
        let mut expected_rows: Vec<Vec<f64>> = Vec::new();
        let mut expected_labels: Vec<usize> = Vec::new();
        for window in windows_of(&ds, 1) {
            let stats = window.stats.as_features();
            expected_rows.extend(window.records.iter().map(|r| {
                let mut row = basic_features(r).to_vec();
                row.extend_from_slice(&stats);
                row
            }));
            expected_labels.extend(window.labels());
        }
        let (flat, flat_labels) = extract_matrix(&ds, 1);
        assert_eq!(flat_labels, expected_labels);
        assert_eq!(flat.n_rows(), expected_rows.len());
        assert_eq!(flat.n_cols(), TOTAL_FEATURES);
        for (a, b) in expected_rows.iter().zip(flat.rows()) {
            assert_eq!(a.as_slice(), b, "rows must be bit-identical");
        }
    }

    /// The min-max fold reads each window's statistics once; folding a
    /// column's values per row, as a fit on the built matrix does, must
    /// give the same bits where `f64::min` and `f64::max` choose between
    /// equal zeros or skip a NaN. Real captures carry `-0.0`: the entropy
    /// of a window with one port is `-(1 * log2 1)`.
    #[test]
    fn min_max_fold_matches_the_row_fold_on_signed_zeros_and_nan() {
        let records: Vec<PacketRecord> = (0..6).map(|i| record(i * 10, Label::Benign)).collect();
        let (z, n, nan) = (0.0, -0.0, f64::NAN);
        // Column j's statistic in each of the three windows.
        let columns: [[f64; 3]; STAT_FEATURES] = [
            [n, z, n],
            [z, n, z],
            [nan, z, n],
            [nan, n, z],
            [n, nan, z],
            [z, nan, n],
            [nan, nan, nan],
            [n, n, n],
            [z, z, z],
            [1.0, n, nan],
            [-1.0, z, nan],
            [nan, 2.0, n],
            [z, -3.0, nan],
        ];
        let stats = |w: usize| std::array::from_fn(|j| columns[j][w]);
        let rows = CaptureRows {
            records: &records,
            windows: vec![
                WindowRows { rows: 0..3, stats: stats(0) },
                WindowRows { rows: 3..4, stats: stats(1) },
                WindowRows { rows: 4..6, stats: stats(2) },
            ],
        };
        let matrix = rows.gather(&[0, 1, 2, 3, 4, 5]);
        for (i, row) in matrix.rows().enumerate() {
            let w = usize::from(i >= 3) + usize::from(i >= 4);
            let expected: Vec<u64> = stats(w).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = row[BASIC_FEATURES..].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected, "row {i} carries its window's statistics");
        }
        for method in [ScalingMethod::MinMax, ScalingMethod::ZScore] {
            assert_eq!(
                format!("{:?}", Scaler::fit_rows(method, &rows)),
                format!("{:?}", Scaler::fit_matrix(method, &matrix)),
                "{method:?}"
            );
        }
    }

    #[test]
    fn flushed_partial_window_uses_actual_span() {
        // 250 ms of traffic inside window 3 (3.0 s – 3.25 s), then flush.
        let mut agg = WindowAggregator::new(1);
        for i in 0..5u64 {
            agg.push(record(3_000 + i * 62, Label::Benign));
        }
        let w = agg.flush().expect("partial window flushes");
        assert_eq!(w.index, 3);
        let span = 0.248; // last ts 3.248 s − window start 3.0 s
        let expected_rate = 5.0 * 100.0 / span;
        assert!(
            (w.stats.byte_rate - expected_rate).abs() < 1e-6,
            "rate over actual span, got {} expected {expected_rate}",
            w.stats.byte_rate
        );
        // The nominal-length division would claim a 4× lower rate.
        assert!(w.stats.byte_rate > 3.9 * 500.0);
    }

    #[test]
    fn single_packet_flush_keeps_rates_finite() {
        let mut agg = WindowAggregator::new(1);
        agg.push(record(2_000, Label::Benign));
        let w = agg.flush().unwrap();
        assert!(w.stats.byte_rate.is_finite());
        assert!(w.stats.flow_rate.is_finite());
        // Clamped at the 1 ms span floor: 100 bytes / 1e-3 s.
        assert!((w.stats.byte_rate - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn aggregator_carries_handshake_grace_across_windows() {
        // The handshaking endpoint is 10.0.0.1:6000; the window filler
        // comes from an unrelated endpoint so it cannot answer the SYN.
        let syn = |ts_ms: u64| PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            src_port: 6000,
            flags: TcpFlags::SYN,
            ..record(0, Label::Benign)
        };
        let ack = |ts_ms: u64| PacketRecord { src_port: 6000, ..record(ts_ms, Label::Benign) };
        let filler = |ts_ms: u64| PacketRecord { src_port: 7777, ..record(ts_ms, Label::Benign) };

        let mut agg = WindowAggregator::new(1);
        agg.push(filler(100));
        agg.push(syn(950));
        // The ACK lands 20 ms into the next window.
        let w0 = agg.push(ack(1_020)).expect("window 0 closes");
        assert_eq!(w0.stats.syn_without_ack, 0.0, "boundary handshake not miscounted");
        let w1 = agg.flush().unwrap();
        assert_eq!(w1.stats.syn_without_ack, 0.0, "resolved by the grace carry");
    }

    #[test]
    fn mixed_and_majority_labels() {
        let w = Window {
            index: 0,
            stats: WindowStats::default(),
            records: vec![
                record(0, Label::Malicious),
                record(1, Label::Malicious),
                record(2, Label::Benign),
            ],
        };
        assert!(w.is_mixed());
        assert_eq!(w.majority_label(), Label::Malicious);
    }
}
