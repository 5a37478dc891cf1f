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

use capture::dataset::Dataset;
use capture::record::{Label, PacketRecord};
use ml::matrix::FeatureMatrix;
use netsim::packet::{Protocol, TcpFlags};

use crate::incremental::FlowDelta;
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

/// Writes one packet's full feature vector into a caller-provided
/// buffer — the allocation-free primitive behind [`feature_vector`] and
/// the matrix extractors.
///
/// # Panics
///
/// Panics if `out.len() != TOTAL_FEATURES`.
pub fn fill_feature_row(r: &PacketRecord, stats: &WindowStats, out: &mut [f64]) {
    assert_eq!(out.len(), TOTAL_FEATURES, "feature arity mismatch");
    out[..BASIC_FEATURES].copy_from_slice(&basic_features(r));
    out[BASIC_FEATURES..].copy_from_slice(&stats.as_features());
}

/// Builds one packet's full feature vector from its basic features and
/// its window's statistics.
pub fn feature_vector(r: &PacketRecord, stats: &WindowStats) -> Vec<f64> {
    let mut v = vec![0.0; TOTAL_FEATURES];
    fill_feature_row(r, stats, &mut v);
    v
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

impl Window {
    /// Appends every packet's feature row to a flat matrix — no per-row
    /// allocation, so a cleared scratch matrix can be reused window after
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `out` was not created with [`TOTAL_FEATURES`] columns.
    pub fn append_features(&self, out: &mut FeatureMatrix) {
        // The statistical half of the row is shared by every packet in
        // the window: fill it once and only refresh the per-packet
        // basic half inside the loop.
        let mut row = [0.0; TOTAL_FEATURES];
        row[BASIC_FEATURES..].copy_from_slice(&self.stats.as_features());
        for r in &self.records {
            row[..BASIC_FEATURES].copy_from_slice(&basic_features(r));
            out.push_row(&row);
        }
    }

    /// Ground-truth labels (0 = benign, 1 = malicious), packet-aligned.
    pub fn labels(&self) -> Vec<usize> {
        self.records.iter().map(|r| usize::from(r.label == Label::Malicious)).collect()
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

/// Extracts the full per-packet feature matrix and labels of a dataset —
/// the model-training input, as nested rows for callers that need owned
/// `Vec<f64>` vectors. Routed through [`extract_matrix`]'s flat row-fill;
/// prefer that directly in hot paths.
pub fn extract_dataset(dataset: &Dataset, window_secs: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let (matrix, labels) = extract_matrix(dataset, window_secs);
    (matrix.rows().map(<[f64]>::to_vec).collect(), labels)
}

/// Extracts the dataset's features straight into one flat row-major
/// matrix (row values identical to [`extract_dataset`], without the
/// per-packet `Vec` allocations).
pub fn extract_matrix(dataset: &Dataset, window_secs: u64) -> (FeatureMatrix, Vec<usize>) {
    let mut features = FeatureMatrix::with_capacity(dataset.len(), TOTAL_FEATURES);
    let mut labels = Vec::with_capacity(dataset.len());
    for window in windows_of(dataset, window_secs) {
        window.append_features(&mut features);
        labels.extend(window.labels());
    }
    (features, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let r = record(0, Label::Benign);
        let stats = WindowStats::default();
        let v = feature_vector(&r, &stats);
        assert_eq!(v.len(), TOTAL_FEATURES);
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
        let (features, labels) = extract_dataset(&ds, 1);
        assert_eq!(features.len(), 2);
        assert_eq!(labels, vec![0, 1]);
        // The statistical tail of both vectors is identical — the paper's
        // central design decision (and source of boundary noise).
        assert_eq!(features[0][BASIC_FEATURES..], features[1][BASIC_FEATURES..]);
    }

    #[test]
    fn matrix_extraction_matches_row_extraction() {
        let records: Vec<PacketRecord> = (0..200)
            .map(|i| record(i * 23, if i % 4 == 0 { Label::Malicious } else { Label::Benign }))
            .collect();
        let ds = Dataset::from_records(records);
        // Independent reference: per-window feature vectors built one
        // packet at a time, bypassing the flat-matrix row fill.
        let mut expected_rows: Vec<Vec<f64>> = Vec::new();
        let mut expected_labels: Vec<usize> = Vec::new();
        for window in windows_of(&ds, 1) {
            expected_rows.extend(window.records.iter().map(|r| feature_vector(r, &window.stats)));
            expected_labels.extend(window.labels());
        }
        let (rows, row_labels) = extract_dataset(&ds, 1);
        let (flat, flat_labels) = extract_matrix(&ds, 1);
        assert_eq!(row_labels, expected_labels);
        assert_eq!(flat_labels, expected_labels);
        assert_eq!(rows, expected_rows);
        assert_eq!(flat.n_rows(), expected_rows.len());
        assert_eq!(flat.n_cols(), TOTAL_FEATURES);
        for (a, b) in expected_rows.iter().zip(flat.rows()) {
            assert_eq!(a.as_slice(), b, "rows must be bit-identical");
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
