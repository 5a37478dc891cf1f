//! Time-window statistics — the paper's "statistical features".
//!
//! Per §III-B and §IV-A, the IDS aggregates packets over a user-chosen
//! time window (1 s in the paper's experiments) and computes statistical
//! features that are **identical for every packet in the window**:
//! packet counts, destination-port entropy, port-frequency concentration,
//! short-lived-connection and repeated-connection-attempt counts,
//! SYN-without-ACK counts, flow rates and sequence-number variance. Each
//! packet's final feature vector is its basic features concatenated with
//! the window's statistics. The shared statistics are exactly what causes
//! the accuracy dips at attack boundaries the paper reports (mixed
//! windows give both classes the same statistical half).

use std::collections::HashMap;

use capture::record::PacketRecord;
use netsim::packet::{Protocol, TcpFlags};
use serde::{Deserialize, Serialize};

/// The statistical features of one time window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Packets in the window.
    pub packet_count: f64,
    /// Bytes per second over the window.
    pub byte_rate: f64,
    /// Shannon entropy (bits) of destination ports.
    pub dst_port_entropy: f64,
    /// Shannon entropy (bits) of source addresses.
    pub src_addr_entropy: f64,
    /// Fraction of packets aimed at the most common destination port.
    pub top_dst_port_fraction: f64,
    /// Flows seen with at most two packets (short-lived connections).
    pub short_lived_flows: f64,
    /// Sources that sent more than one bare SYN (repeated attempts).
    pub repeated_syn_sources: f64,
    /// Bare SYNs never followed by an ACK from the same endpoint.
    pub syn_without_ack: f64,
    /// Distinct flows per second.
    pub flow_rate: f64,
    /// Standard deviation of TCP sequence numbers.
    pub seq_std: f64,
    /// Mean wire length.
    pub mean_pkt_len: f64,
    /// Standard deviation of wire lengths.
    pub std_pkt_len: f64,
    /// Fraction of UDP packets.
    pub udp_fraction: f64,
}

/// Number of statistical features.
pub const STAT_FEATURES: usize = 13;

/// Handshake state carried between adjacent windows so that a SYN
/// answered by an ACK *just across* the window boundary is not counted
/// as unanswered (see [`WindowStats::compute_streaming`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AckGrace {
    /// The window boundary (in seconds) at which these SYNs were
    /// deferred; an ACK within the grace period of this instant
    /// resolves them.
    pub(crate) boundary_secs: f64,
    /// Per-endpoint `(src_addr, src_port)` count of bare SYNs still
    /// awaiting an ACK across the boundary.
    pub(crate) pending: HashMap<(u32, u16), u64>,
}

impl AckGrace {
    /// `true` if no handshakes straddle the boundary.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Total SYNs awaiting cross-boundary resolution.
    pub fn pending_syns(&self) -> u64 {
        self.pending.values().sum()
    }

    /// Advances the carry across a window *without* recomputing its
    /// statistics — the cheap companion of
    /// [`WindowStats::compute_streaming`] for aggregators that reuse
    /// cached stats (`stats_refresh > 1`). Produces the same carry the
    /// full computation would, so the next freshly computed window sees
    /// identical handshake state.
    pub fn advance(
        &self,
        records: &[PacketRecord],
        window_end_secs: f64,
        grace_secs: f64,
    ) -> AckGrace {
        let mut pending: HashMap<(u32, u16), u64> = HashMap::new();
        if grace_secs > 0.0 && window_end_secs.is_finite() {
            let mut syns: HashMap<(u32, u16), (u64, f64)> = HashMap::new();
            let mut acked: std::collections::HashSet<(u32, u16)> = std::collections::HashSet::new();
            for r in records {
                if r.protocol != Protocol::Tcp {
                    continue;
                }
                let endpoint = (r.src.to_bits(), r.src_port);
                if r.is_bare_syn() {
                    let entry = syns.entry(endpoint).or_insert((0, 0.0));
                    entry.0 += 1;
                    entry.1 = r.ts.as_secs_f64();
                } else if r.flags.contains(TcpFlags::ACK) {
                    acked.insert(endpoint);
                }
            }
            let defer_after = window_end_secs - grace_secs;
            for (endpoint, (count, last_ts)) in syns {
                if !acked.contains(&endpoint) && last_ts > defer_after {
                    pending.insert(endpoint, count);
                }
            }
        }
        AckGrace { boundary_secs: window_end_secs, pending }
    }
}

impl WindowStats {
    /// Computes the statistics of a window's packets.
    ///
    /// `window_secs` is the window span used for the rate features —
    /// pass the *actual* covered span for a partial (flushed) final
    /// window, not the nominal length, or its rates read artificially
    /// low. A non-finite or non-positive span falls back to a nominal
    /// 1 s denominator. Returns the default (all zeros) for an empty
    /// window.
    pub fn compute(records: &[PacketRecord], window_secs: f64) -> Self {
        Self::compute_streaming(records, window_secs, f64::INFINITY, 0.0, &AckGrace::default()).0
    }

    /// Streaming form of [`WindowStats::compute`] with cross-window
    /// handshake grace.
    ///
    /// A bare SYN within `grace_secs` of the window end (`window_end_secs`,
    /// absolute) is *deferred* into the returned [`AckGrace`] instead of
    /// being counted: if the endpoint's ACK lands within `grace_secs`
    /// after the boundary, the handshake was answered and is never
    /// counted; otherwise the deferred SYN is added to the *next*
    /// window's `syn_without_ack`. Totals over a run are preserved —
    /// only the boundary misattribution is fixed. `grace_secs = 0.0`
    /// reproduces the plain per-window accounting exactly, and an
    /// infinite `window_end_secs` disables deferral (used for the final
    /// flushed window, which has no successor).
    pub fn compute_streaming(
        records: &[PacketRecord],
        span_secs: f64,
        window_end_secs: f64,
        grace_secs: f64,
        carry: &AckGrace,
    ) -> (Self, AckGrace) {
        if records.is_empty() {
            return (WindowStats::default(), carry.clone());
        }
        let n = records.len() as f64;
        // Guard the rate denominator: a zero, negative, infinite or NaN
        // span (a single-timestamp flush, or an uninitialised caller)
        // must not explode byte_rate/flow_rate by 1e9 or silently zero
        // them. Fall back to the nominal 1 s window so rates degrade to
        // per-window totals.
        let secs = if span_secs.is_finite() && span_secs > 0.0 { span_secs } else { 1.0 };

        let total_bytes: u64 = records.iter().map(|r| r.wire_len as u64).sum();

        let mut dst_ports: HashMap<u16, u64> = HashMap::new();
        let mut src_addrs: HashMap<u32, u64> = HashMap::new();
        let mut flows: HashMap<(u32, u16, u32, u16, u8), u64> = HashMap::new();
        let mut syns_per_source: HashMap<(u32, u16), u64> = HashMap::new();
        let mut last_syn_ts: HashMap<(u32, u16), f64> = HashMap::new();
        let mut first_ack_ts: HashMap<(u32, u16), f64> = HashMap::new();
        let mut seq_values: Vec<f64> = Vec::new();
        let mut udp_count = 0u64;

        for r in records {
            *dst_ports.entry(r.dst_port).or_default() += 1;
            *src_addrs.entry(r.src.to_bits()).or_default() += 1;
            *flows
                .entry((r.src.to_bits(), r.src_port, r.dst.to_bits(), r.dst_port, r.protocol.number()))
                .or_default() += 1;
            match r.protocol {
                Protocol::Udp => udp_count += 1,
                Protocol::Tcp => {
                    seq_values.push(r.seq as f64);
                    let endpoint = (r.src.to_bits(), r.src_port);
                    if r.is_bare_syn() {
                        *syns_per_source.entry(endpoint).or_default() += 1;
                        last_syn_ts.insert(endpoint, r.ts.as_secs_f64());
                    } else if r.flags.contains(TcpFlags::ACK) {
                        first_ack_ts.entry(endpoint).or_insert_with(|| r.ts.as_secs_f64());
                    }
                }
            }
        }

        // SYNs deferred at the previous boundary: answered if the
        // endpoint ACKed within the grace period of that boundary,
        // otherwise they count against this window.
        let unresolved_carry: u64 = carry
            .pending
            .iter()
            .filter(|(endpoint, _)| match first_ack_ts.get(*endpoint) {
                Some(&ts) => ts > carry.boundary_secs + grace_secs,
                None => true,
            })
            .map(|(_, &count)| count)
            .sum();

        // SYNs near this window's end with no ACK yet: defer rather
        // than count — their ACK may land just across the boundary.
        let defer_after = window_end_secs - grace_secs;
        let mut next_carry = AckGrace { boundary_secs: window_end_secs, pending: HashMap::new() };
        let syn_without_ack: u64 = unresolved_carry
            + syns_per_source
                .iter()
                .filter(|(endpoint, _)| !first_ack_ts.contains_key(*endpoint))
                .map(|(endpoint, &count)| {
                    if grace_secs > 0.0
                        && last_syn_ts.get(endpoint).is_some_and(|&ts| ts > defer_after)
                    {
                        next_carry.pending.insert(*endpoint, count);
                        0
                    } else {
                        count
                    }
                })
                .sum::<u64>();

        let dst_port_entropy = entropy(dst_ports.values().copied());
        let src_addr_entropy = entropy(src_addrs.values().copied());
        let top_dst_port = dst_ports.values().copied().max().unwrap_or(0) as f64;
        let short_lived = flows.values().filter(|&&c| c <= 2).count() as f64;
        let repeated_syn = syns_per_source.values().filter(|&&c| c > 1).count() as f64;

        let (mean_len, std_len) = mean_std(records.iter().map(|r| r.wire_len as f64));
        let (_, seq_std) = mean_std(seq_values.iter().copied());

        let stats = WindowStats {
            packet_count: n,
            byte_rate: total_bytes as f64 / secs,
            dst_port_entropy,
            src_addr_entropy,
            top_dst_port_fraction: top_dst_port / n,
            short_lived_flows: short_lived,
            repeated_syn_sources: repeated_syn,
            syn_without_ack: syn_without_ack as f64,
            flow_rate: flows.len() as f64 / secs,
            seq_std,
            mean_pkt_len: mean_len,
            std_pkt_len: std_len,
            udp_fraction: udp_count as f64 / n,
        };
        (stats, next_carry)
    }

    /// The statistics as a feature slice, in [`STAT_FEATURE_NAMES`] order.
    pub fn as_features(&self) -> [f64; STAT_FEATURES] {
        [
            self.packet_count,
            self.byte_rate,
            self.dst_port_entropy,
            self.src_addr_entropy,
            self.top_dst_port_fraction,
            self.short_lived_flows,
            self.repeated_syn_sources,
            self.syn_without_ack,
            self.flow_rate,
            self.seq_std,
            self.mean_pkt_len,
            self.std_pkt_len,
            self.udp_fraction,
        ]
    }
}

/// [`entropy`] with a caller-owned scratch vector instead of a fresh
/// allocation — identical float-operation order (counts sorted before
/// the probability summation), identical result.
pub(crate) fn entropy_sorted(scratch: &mut Vec<u64>, counts: impl IntoIterator<Item = u64>) -> f64 {
    scratch.clear();
    scratch.extend(counts.into_iter().filter(|&c| c > 0));
    scratch.sort_unstable();
    let total: u64 = scratch.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    -scratch
        .iter()
        .map(|&c| {
            let p = c as f64 / total;
            p * p.log2()
        })
        .sum::<f64>()
}

/// [`mean_std`] without collecting into a vector: two passes over a
/// cloneable iterator, adding terms in the same order as the collected
/// form, so the result is bit-identical.
pub(crate) fn mean_std_two_pass(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let mut n = 0u64;
    let mut sum = 0.0f64;
    for v in values.clone() {
        n += 1;
        sum += v;
    }
    if n == 0 {
        return (0.0, 0.0);
    }
    let n = n as f64;
    let mean = sum / n;
    let var = values.map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Names of the statistical features, aligned with
/// [`WindowStats::as_features`].
pub const STAT_FEATURE_NAMES: [&str; STAT_FEATURES] = [
    "packet_count",
    "byte_rate",
    "dst_port_entropy",
    "src_addr_entropy",
    "top_dst_port_fraction",
    "short_lived_flows",
    "repeated_syn_sources",
    "syn_without_ack",
    "flow_rate",
    "seq_std",
    "mean_pkt_len",
    "std_pkt_len",
    "udp_fraction",
];

/// Shannon entropy in bits of a count distribution.
///
/// The counts are sorted before summation so the result is independent
/// of iteration order (hash maps iterate in arbitrary order, and float
/// addition is not associative — without sorting, bit-for-bit run
/// reproducibility would silently break).
pub fn entropy(counts: impl IntoIterator<Item = u64>) -> f64 {
    let mut counts: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
    counts.sort_unstable();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    -counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Mean and **population** standard deviation (divides the variance by
/// `n`, not the Bessel-corrected `n - 1`; a single observation yields
/// deviation 0). Window features describe the complete set of packets in
/// the window — a population, not a sample drawn from one.
pub fn mean_std(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use capture::record::Label;
    use netsim::time::SimTime;
    use netsim::Addr;

    fn record(src_host: u8, src_port: u16, dst_port: u16, flags: TcpFlags, seq: u32) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(100),
            src: Addr::new(10, 0, 0, src_host),
            src_port,
            dst: Addr::new(10, 0, 0, 2),
            dst_port,
            protocol: Protocol::Tcp,
            flags,
            wire_len: 40,
            payload_len: 0,
            seq,
            label: Label::Benign,
        }
    }

    fn udp_record(src_host: u8, dst_port: u16) -> PacketRecord {
        PacketRecord {
            protocol: Protocol::Udp,
            flags: TcpFlags::EMPTY,
            wire_len: 540,
            ..record(src_host, 1000, dst_port, TcpFlags::EMPTY, 0)
        }
    }

    #[test]
    fn empty_window_is_all_zero() {
        let stats = WindowStats::compute(&[], 1.0);
        assert_eq!(stats, WindowStats::default());
        assert_eq!(stats.as_features(), [0.0; STAT_FEATURES]);
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(entropy([]), 0.0);
        assert_eq!(entropy([10]), 0.0);
        // Uniform over 4 symbols = 2 bits.
        assert!((entropy([5, 5, 5, 5]) - 2.0).abs() < 1e-12);
        // Any distribution over n symbols has entropy <= log2(n).
        assert!(entropy([1, 2, 3, 4]) <= 2.0);
    }

    #[test]
    fn syn_flood_window_signature() {
        // 50 bare SYNs from distinct sources and ports, never ACKed.
        let records: Vec<PacketRecord> = (0..50)
            .map(|i| record(3, 2000 + i as u16, 80, TcpFlags::SYN, i * 7919))
            .collect();
        let stats = WindowStats::compute(&records, 1.0);
        assert_eq!(stats.packet_count, 50.0);
        assert_eq!(stats.syn_without_ack, 50.0);
        assert_eq!(stats.top_dst_port_fraction, 1.0, "all SYNs hit port 80");
        assert!(stats.dst_port_entropy < 1e-9);
        assert_eq!(stats.short_lived_flows, 50.0);
        assert!(stats.seq_std > 1_000.0, "random sequence numbers spread");
    }

    #[test]
    fn udp_flood_window_signature() {
        let records: Vec<PacketRecord> =
            (0..64).map(|i| udp_record(4, 1000 + (i * 523 % 60000) as u16)).collect();
        let stats = WindowStats::compute(&records, 1.0);
        assert_eq!(stats.udp_fraction, 1.0);
        assert!(stats.dst_port_entropy > 5.0, "random ports → high entropy");
        assert!((stats.byte_rate - 64.0 * 540.0).abs() < 1e-6);
    }

    #[test]
    fn benign_window_signature() {
        // A handshake plus data exchange: SYN answered by ACKs.
        let mut records = vec![
            record(5, 5000, 80, TcpFlags::SYN, 1),
            record(5, 5000, 80, TcpFlags::ACK, 2),
        ];
        for i in 0..10 {
            records.push(record(5, 5000, 80, TcpFlags::ACK | TcpFlags::PSH, 2 + i));
        }
        let stats = WindowStats::compute(&records, 1.0);
        assert_eq!(stats.syn_without_ack, 0.0, "SYN followed by ACKs from same endpoint");
        assert_eq!(stats.repeated_syn_sources, 0.0);
        assert_eq!(stats.short_lived_flows, 0.0, "one long flow");
    }

    #[test]
    fn repeated_attempts_are_counted() {
        let records = vec![
            record(6, 7000, 80, TcpFlags::SYN, 1),
            record(6, 7000, 80, TcpFlags::SYN, 1),
            record(6, 7000, 80, TcpFlags::SYN, 1),
        ];
        let stats = WindowStats::compute(&records, 1.0);
        assert_eq!(stats.repeated_syn_sources, 1.0);
        assert_eq!(stats.syn_without_ack, 3.0);
    }

    #[test]
    fn rates_scale_with_window_length() {
        let records: Vec<PacketRecord> = (0..10).map(|i| udp_record(7, 1000 + i)).collect();
        let one = WindowStats::compute(&records, 1.0);
        let two = WindowStats::compute(&records, 2.0);
        assert!((one.byte_rate - 2.0 * two.byte_rate).abs() < 1e-9);
        assert!((one.flow_rate - 2.0 * two.flow_rate).abs() < 1e-9);
    }

    #[test]
    fn degenerate_window_span_falls_back_to_nominal_rates() {
        let records: Vec<PacketRecord> = (0..10).map(|i| udp_record(7, 1000 + i)).collect();
        let total_bytes = 10.0 * 540.0;
        // A zero span (all packets share one timestamp) must not blow
        // the rate up by the 1e-9 clamp's factor of a billion...
        let zero = WindowStats::compute(&records, 0.0);
        assert_eq!(zero.byte_rate, total_bytes);
        assert_eq!(zero.flow_rate, 10.0);
        // ...nor should infinite or NaN spans zero the rates out.
        for bad in [f64::INFINITY, f64::NAN, -1.0] {
            let stats = WindowStats::compute(&records, bad);
            assert_eq!(stats.byte_rate, total_bytes, "span {bad}");
            assert_eq!(stats.flow_rate, 10.0, "span {bad}");
        }
    }

    #[test]
    fn mean_std_is_population_form() {
        // Population deviation of {2, 4}: sqrt(((2-3)² + (4-3)²)/2) = 1,
        // where the sample (n-1) form would give sqrt(2).
        let (mean, std) = mean_std([2.0, 4.0].into_iter());
        assert_eq!(mean, 3.0);
        assert_eq!(std, 1.0);
        // A single observation is its own population: deviation 0.
        assert_eq!(mean_std([7.0].into_iter()), (7.0, 0.0));
    }

    #[test]
    fn boundary_ack_within_grace_is_not_a_missed_handshake() {
        // SYN at 0.95 s (window 0), the client's ACK at 1.02 s (window 1):
        // a perfectly normal handshake straddling the boundary.
        let syn = PacketRecord { ts: SimTime::from_millis(950), ..record(8, 9000, 80, TcpFlags::SYN, 1) };
        let ack =
            PacketRecord { ts: SimTime::from_millis(1_020), ..record(8, 9000, 80, TcpFlags::ACK, 2) };

        // Strict per-window accounting miscounts the SYN as unanswered.
        let strict = WindowStats::compute(&[syn], 1.0);
        assert_eq!(strict.syn_without_ack, 1.0);

        // With grace, window 0 defers the SYN...
        let (w0, carry) =
            WindowStats::compute_streaming(&[syn], 1.0, 1.0, 0.1, &AckGrace::default());
        assert_eq!(w0.syn_without_ack, 0.0);
        assert_eq!(carry.pending_syns(), 1);
        // ...and window 1's early ACK resolves it silently.
        let (w1, carry) = WindowStats::compute_streaming(&[ack], 1.0, 2.0, 0.1, &carry);
        assert_eq!(w1.syn_without_ack, 0.0);
        assert!(carry.is_empty());
    }

    #[test]
    fn deferred_syn_with_no_ack_lands_in_the_next_window() {
        let syn = PacketRecord { ts: SimTime::from_millis(980), ..record(8, 9100, 80, TcpFlags::SYN, 1) };
        // Unrelated traffic in window 1, never an ACK from the SYN's endpoint.
        let other = PacketRecord {
            ts: SimTime::from_millis(1_500),
            ..record(9, 1234, 80, TcpFlags::ACK | TcpFlags::PSH, 5)
        };
        let (w0, carry) =
            WindowStats::compute_streaming(&[syn], 1.0, 1.0, 0.1, &AckGrace::default());
        assert_eq!(w0.syn_without_ack, 0.0, "deferred, not dropped");
        let (w1, carry) = WindowStats::compute_streaming(&[other], 1.0, 2.0, 0.1, &carry);
        assert_eq!(w1.syn_without_ack, 1.0, "the run's total is preserved");
        assert!(carry.is_empty());
    }

    #[test]
    fn late_ack_beyond_grace_does_not_resolve() {
        let syn = PacketRecord { ts: SimTime::from_millis(950), ..record(8, 9200, 80, TcpFlags::SYN, 1) };
        // ACK 400 ms after the boundary: far beyond handshake latency.
        let ack =
            PacketRecord { ts: SimTime::from_millis(1_400), ..record(8, 9200, 80, TcpFlags::ACK, 2) };
        let (_, carry) =
            WindowStats::compute_streaming(&[syn], 1.0, 1.0, 0.1, &AckGrace::default());
        let (w1, _) = WindowStats::compute_streaming(&[ack], 1.0, 2.0, 0.1, &carry);
        assert_eq!(w1.syn_without_ack, 1.0);
    }

    #[test]
    fn zero_grace_reproduces_strict_accounting() {
        let records: Vec<PacketRecord> =
            (0..20).map(|i| record(3, 2000 + i as u16, 80, TcpFlags::SYN, i * 7)).collect();
        let strict = WindowStats::compute(&records, 1.0);
        let (streaming, carry) =
            WindowStats::compute_streaming(&records, 1.0, 1.0, 0.0, &AckGrace::default());
        assert_eq!(strict, streaming);
        assert!(carry.is_empty());
    }

    #[test]
    fn feature_names_align_with_vector() {
        assert_eq!(STAT_FEATURE_NAMES.len(), STAT_FEATURES);
        let stats = WindowStats { packet_count: 42.0, ..WindowStats::default() };
        assert_eq!(stats.as_features()[0], 42.0);
        assert_eq!(STAT_FEATURE_NAMES[0], "packet_count");
    }
}
