//! Incremental per-flow feature state: busy-window cost scales with
//! *new* records only.
//!
//! The batch oracle ([`WindowStats::compute_streaming`]) builds three
//! count maps (destination port, source address, flow five-tuple) from
//! the window's record slice, one update per record in each, and walks
//! the slice again for the order-sensitive mean/std sweeps.
//! [`FlowDelta`] collapses the per-record map work to **one** [`GenMap`]
//! update as each record arrives — the flow's
//! running aggregate ([`FlowAgg`]: packet/byte counts and timestamp
//! span) — and recovers the port/address distributions at window close
//! by folding only the flows touched since the last boundary: each
//! record belongs to exactly one flow, and the flow key carries the
//! destination port and source address, so summing `FlowAgg::packets`
//! per port (and per address) reproduces the per-record tallies
//! exactly. Every downstream reduction over those counts is
//! order-insensitive (entropy sorts, the top-port fold is a plain max,
//! short-lived/repeated-SYN are count filters), so the fold order
//! cannot leak into any output.
//!
//! The two order-sensitive features (packet-length and TCP
//! sequence-number mean/std, two-pass sweeps in record order) are fed
//! from dense logs appended at push time — push order *is* record
//! order — which is what lets [`FlowDelta::close`] drop the record
//! slice from its signature entirely. Same input stream →
//! bit-identical [`crate::window::WindowStats`] and
//! [`crate::window::AckGrace`] carry, pinned by the oracle-equivalence
//! tests below and the repo-level identity fixtures.

use std::collections::HashMap;

use capture::record::{flow_key_dst_port, flow_key_src, PacketRecord};
use netsim::packet::{Protocol, TcpFlags};

use crate::genmap::GenMap;
use crate::window::{entropy_sorted, mean_std_two_pass, AckGrace, WindowStats};

/// Running aggregates of one flow inside the current window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowAgg {
    /// Packets pushed for this flow since the last window boundary.
    pub packets: u64,
    /// Wire bytes pushed for this flow since the last window boundary.
    pub bytes: u64,
    /// Timestamp of the flow's first packet in the window, in nanos.
    pub first_ts_nanos: u64,
    /// Timestamp of the flow's latest packet in the window, in nanos.
    pub last_ts_nanos: u64,
}

impl FlowAgg {
    /// The flow's in-window inter-arrival span in nanoseconds (zero for
    /// a single-packet flow).
    pub fn iat_span_nanos(&self) -> u64 {
        self.last_ts_nanos - self.first_ts_nanos
    }
}

/// Persistent incremental window state: per-flow running aggregates
/// updated as records stream in, folded into
/// [`WindowStats`] at window close.
///
/// The intended driver is [`crate::extract::WindowAggregator`]; the
/// call protocol is [`FlowDelta::push`] per record (or
/// [`FlowDelta::push_handshake_only`] for cached-stats windows), then
/// exactly one of [`FlowDelta::close`] / [`FlowDelta::advance_carry`]
/// at the boundary. Unlike the oracle, `close` needs no record slice:
/// everything order-sensitive was logged at push time.
#[derive(Debug, Default)]
pub struct FlowDelta {
    /// The single per-record map: flow five-tuple (packed,
    /// [`PacketRecord::flow_key_packed`]) → running aggregate.
    flows: GenMap<u128, FlowAgg>,
    /// Folded from `flows` at close (destination-port packet counts).
    dst_ports: GenMap<u16, u64>,
    /// Folded from `flows` at close (source-address packet counts).
    src_addrs: GenMap<u32, u64>,
    syns_per_source: GenMap<(u32, u16), u64>,
    last_syn_ts: GenMap<(u32, u16), f64>,
    first_ack_ts: GenMap<(u32, u16), f64>,
    total_bytes: u64,
    udp_count: u64,
    /// Wire lengths in push order — the order-sensitive mean/std input.
    len_log: Vec<f64>,
    /// TCP sequence numbers in push order (TCP records only).
    seq_log: Vec<f64>,
    /// Reusable scratch for entropy's sorted-count summation.
    count_scratch: Vec<u64>,
    /// Flows touched across all closed windows (observability feed).
    flows_touched_total: u64,
}

impl FlowDelta {
    /// Creates empty incremental state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one record of the current window: one flow-aggregate
    /// update plus handshake tracking and the dense logs.
    pub fn push(&mut self, r: &PacketRecord) {
        let wire_len = r.wire_len as u64;
        self.total_bytes += wire_len;
        let ts_nanos = r.ts.as_nanos();
        let agg = self.flows.entry_or(
            r.flow_key_packed(),
            FlowAgg { packets: 0, bytes: 0, first_ts_nanos: ts_nanos, last_ts_nanos: ts_nanos },
        );
        agg.packets += 1;
        agg.bytes += wire_len;
        agg.last_ts_nanos = ts_nanos;
        self.len_log.push(r.wire_len as f64);
        match r.protocol {
            Protocol::Udp => self.udp_count += 1,
            Protocol::Tcp => {
                self.seq_log.push(r.seq as f64);
                self.track_handshake(r);
            }
        }
    }

    /// Absorbs one record tracking *only* the SYN/ACK handshake state —
    /// all that [`FlowDelta::advance_carry`] needs. Used for windows
    /// whose statistics will be served from cache (`stats_refresh > 1`),
    /// so the §IV-E mitigation's CPU saving is preserved: cached windows
    /// skip the flow-aggregate update and the dense logs entirely. Not
    /// valid before [`FlowDelta::close`].
    pub fn push_handshake_only(&mut self, r: &PacketRecord) {
        if r.protocol == Protocol::Tcp {
            self.track_handshake(r);
        }
    }

    fn track_handshake(&mut self, r: &PacketRecord) {
        let endpoint = (r.src.to_bits(), r.src_port);
        if r.is_bare_syn() {
            *self.syns_per_source.entry_or(endpoint, 0) += 1;
            self.last_syn_ts.insert(endpoint, r.ts.as_secs_f64());
        } else if r.flags.contains(TcpFlags::ACK) {
            // First touch wins: `entry_or` only writes the timestamp the
            // first time this window sees the endpoint ACK.
            self.first_ack_ts.entry_or(endpoint, r.ts.as_secs_f64());
        }
    }

    /// Closes the window from the accumulated deltas alone — no record
    /// slice — computing its statistics and the handshake carry for the
    /// next window, then resets (keeping map capacity).
    ///
    /// Bit-identical to [`WindowStats::compute_streaming`] over the
    /// records pushed since the last boundary.
    pub fn close(
        &mut self,
        span_secs: f64,
        window_end_secs: f64,
        grace_secs: f64,
        carry: &AckGrace,
    ) -> (WindowStats, AckGrace) {
        if self.len_log.is_empty() {
            self.clear();
            return (WindowStats::default(), carry.clone());
        }
        let n = self.len_log.len() as f64;
        let secs = if span_secs.is_finite() && span_secs > 0.0 { span_secs } else { 1.0 };

        // The delta fold: recover the port/address packet counts from
        // the flows touched this window. O(flows touched), not
        // O(records) — and exact, because the flow key partitions the
        // window's records by (dst_port, src_addr) among everything
        // else.
        for (&key, agg) in self.flows.iter() {
            *self.dst_ports.entry_or(flow_key_dst_port(key), 0) += agg.packets;
            *self.src_addrs.entry_or(flow_key_src(key), 0) += agg.packets;
        }
        self.flows_touched_total += self.flows.len() as u64;

        let unresolved_carry: u64 = carry
            .pending
            .iter()
            .filter(|(endpoint, _)| match self.first_ack_ts.get(*endpoint) {
                Some(&ts) => ts > carry.boundary_secs + grace_secs,
                None => true,
            })
            .map(|(_, &count)| count)
            .sum();

        let defer_after = window_end_secs - grace_secs;
        let mut next_carry = AckGrace { boundary_secs: window_end_secs, pending: HashMap::new() };
        let syn_without_ack: u64 = unresolved_carry
            + self
                .syns_per_source
                .iter()
                .filter(|(endpoint, _)| !self.first_ack_ts.contains_key(*endpoint))
                .map(|(endpoint, &count)| {
                    if grace_secs > 0.0
                        && self.last_syn_ts.get(endpoint).is_some_and(|&ts| ts > defer_after)
                    {
                        next_carry.pending.insert(*endpoint, count);
                        0
                    } else {
                        count
                    }
                })
                .sum::<u64>();

        let dst_port_entropy =
            entropy_sorted(&mut self.count_scratch, self.dst_ports.values().copied());
        let src_addr_entropy =
            entropy_sorted(&mut self.count_scratch, self.src_addrs.values().copied());
        let top_dst_port = self.dst_ports.values().copied().max().unwrap_or(0) as f64;
        let short_lived = self.flows.values().filter(|a| a.packets <= 2).count() as f64;
        let repeated_syn = self.syns_per_source.values().filter(|&&c| c > 1).count() as f64;

        let (mean_len, std_len) = mean_std_two_pass(self.len_log.iter().copied());
        let (_, seq_std) = mean_std_two_pass(self.seq_log.iter().copied());

        let stats = WindowStats {
            packet_count: n,
            byte_rate: self.total_bytes as f64 / secs,
            dst_port_entropy,
            src_addr_entropy,
            top_dst_port_fraction: top_dst_port / n,
            short_lived_flows: short_lived,
            repeated_syn_sources: repeated_syn,
            syn_without_ack: syn_without_ack as f64,
            flow_rate: self.flows.len() as f64 / secs,
            seq_std,
            mean_pkt_len: mean_len,
            std_pkt_len: std_len,
            udp_fraction: self.udp_count as f64 / n,
        };
        self.clear();
        (stats, next_carry)
    }

    /// Advances the handshake carry across the current window *without*
    /// computing its statistics (the `stats_refresh > 1` cached path),
    /// then resets. Produces the same carry [`FlowDelta::close`] would,
    /// matching [`AckGrace::advance`] over the pushed records.
    pub fn advance_carry(&mut self, window_end_secs: f64, grace_secs: f64) -> AckGrace {
        let mut pending: HashMap<(u32, u16), u64> = HashMap::new();
        if grace_secs > 0.0 && window_end_secs.is_finite() {
            let defer_after = window_end_secs - grace_secs;
            for (endpoint, &count) in self.syns_per_source.iter() {
                if !self.first_ack_ts.contains_key(endpoint)
                    && self.last_syn_ts.get(endpoint).is_some_and(|&ts| ts > defer_after)
                {
                    pending.insert(*endpoint, count);
                }
            }
        }
        self.clear();
        AckGrace { boundary_secs: window_end_secs, pending }
    }

    /// Ends the window: O(keys touched this window), not O(map
    /// capacity). Key sets (and map/scratch capacity) persist so that
    /// recurring flows keep their hash slots across windows.
    pub fn clear(&mut self) {
        self.flows.clear();
        self.dst_ports.clear();
        self.src_addrs.clear();
        self.syns_per_source.clear();
        self.last_syn_ts.clear();
        self.first_ack_ts.clear();
        self.total_bytes = 0;
        self.udp_count = 0;
        self.len_log.clear();
        self.seq_log.clear();
    }

    /// Forces an immediate stale-key cull on every [`GenMap`] — the
    /// `features.state_cull` buggify hook. Must be semantically
    /// invisible: live in-window state survives untouched
    /// ([`FlowDelta::state_conservation_violation`] checks it).
    pub fn force_cull(&mut self) {
        self.flows.force_cull();
        self.dst_ports.force_cull();
        self.src_addrs.force_cull();
        self.syns_per_source.force_cull();
        self.last_syn_ts.force_cull();
        self.first_ack_ts.force_cull();
    }

    /// Total flows touched across every window closed so far (feeds the
    /// `features.incremental.flows_touched` counter).
    pub fn flows_touched(&self) -> u64 {
        self.flows_touched_total
    }

    /// Flow-state conservation: the live per-flow aggregates must
    /// account for exactly the records pushed since the last boundary
    /// (packets and bytes). Valid mid-window, and in particular right
    /// after a forced cull — a cull that disturbed live state shows up
    /// here. Returns a description of the first violation, if any.
    pub fn state_conservation_violation(&self) -> Option<String> {
        let flow_packets: u64 = self.flows.values().map(|a| a.packets).sum();
        let flow_bytes: u64 = self.flows.values().map(|a| a.bytes).sum();
        let pushed = self.len_log.len() as u64;
        if flow_packets != pushed {
            return Some(format!(
                "flow packet aggregates {flow_packets} != records pushed {pushed}"
            ));
        }
        if flow_bytes != self.total_bytes {
            return Some(format!(
                "flow byte aggregates {flow_bytes} != bytes pushed {}",
                self.total_bytes
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capture::record::Label;
    use netsim::time::SimTime;
    use netsim::Addr;

    /// Deterministic pseudo-random record stream (xorshift, fixed seed)
    /// with mixed protocols, bare SYNs, ACKs and boundary-straddling
    /// handshakes — adversarial input for the oracle-equivalence checks
    /// below.
    fn scrambled_records(n: usize, seed: u64) -> Vec<PacketRecord> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ts = 0u64;
        (0..n)
            .map(|_| {
                ts += next() % 120;
                let r = next();
                let proto = if r % 3 == 0 { Protocol::Udp } else { Protocol::Tcp };
                let flags = if proto == Protocol::Udp {
                    TcpFlags::EMPTY
                } else {
                    match r % 5 {
                        0 | 1 => TcpFlags::SYN,
                        2 => TcpFlags::ACK,
                        3 => TcpFlags::ACK | TcpFlags::PSH,
                        _ => TcpFlags::SYN | TcpFlags::ACK,
                    }
                };
                PacketRecord {
                    ts: SimTime::from_millis(ts),
                    src: Addr::new(10, 0, 0, (r % 7) as u8 + 1),
                    src_port: 1024 + (r % 13) as u16,
                    dst: Addr::new(10, 0, 0, 2),
                    dst_port: [80u16, 443, 53, 8080][(r % 4) as usize],
                    protocol: proto,
                    flags,
                    wire_len: 40 + (r % 1460) as u32,
                    payload_len: (r % 1460) as u32,
                    seq: (r >> 8) as u32,
                    label: Label::Benign,
                }
            })
            .collect()
    }

    fn windows_by_second(records: Vec<PacketRecord>) -> Vec<Vec<PacketRecord>> {
        let mut windows: Vec<Vec<PacketRecord>> = Vec::new();
        let mut current_index = u64::MAX;
        for r in records {
            let index = r.ts.as_nanos() / 1_000_000_000;
            if index != current_index {
                windows.push(Vec::new());
                current_index = index;
            }
            windows.last_mut().unwrap().push(r);
        }
        windows
    }

    /// A TCP record at 100 ms from `10.0.0.<src_host>:<src_port>` to
    /// port 80.
    fn record(src_host: u8, src_port: u16, flags: TcpFlags, seq: u32) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(100),
            src: Addr::new(10, 0, 0, src_host),
            src_port,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
            protocol: Protocol::Tcp,
            flags,
            wire_len: 40,
            payload_len: 0,
            seq,
            label: Label::Benign,
        }
    }

    /// The incremental path must be bit-identical to the batch oracle,
    /// window after window, including the handshake carry chain.
    #[test]
    fn flow_delta_matches_batch_oracle() {
        let windows = windows_by_second(scrambled_records(4_000, 0x5eed));
        assert!(windows.len() > 10, "stream must span many windows");

        let mut delta = FlowDelta::new();
        let mut delta_carry = AckGrace::default();
        let mut oracle_carry = AckGrace::default();
        for (i, window) in windows.iter().enumerate() {
            let end = (i + 1) as f64;
            for r in window {
                delta.push(r);
            }
            assert_eq!(delta.state_conservation_violation(), None, "window {i}");
            let (oracle_stats, oracle_next) =
                WindowStats::compute_streaming(window, 1.0, end, 0.1, &oracle_carry);
            let (delta_stats, delta_next) = delta.close(1.0, end, 0.1, &delta_carry);
            assert_eq!(delta_stats, oracle_stats, "window {i} stats diverged");
            assert_eq!(delta_next, oracle_next, "window {i} carry diverged");
            delta_carry = delta_next;
            oracle_carry = oracle_next;
        }
    }

    /// Persistent keys must never leak *values* across windows: an ACK
    /// timestamp recorded for an endpoint in one window sits in the map
    /// with a stale generation afterwards, and a bare SYN from the same
    /// endpoint in the next window must still count as unanswered.
    #[test]
    fn stale_generation_handshake_state_is_invisible() {
        let mut delta = FlowDelta::new();
        let ack = record(8, 9000, TcpFlags::ACK, 2);
        delta.push(&ack);
        let (w0, carry) = delta.close(1.0, 1.0, 0.1, &AckGrace::default());
        assert_eq!(w0.syn_without_ack, 0.0);

        // Same endpoint, next window, SYN never answered — and sent well
        // before the boundary so the grace deferral doesn't apply.
        let syn = record(8, 9000, TcpFlags::SYN, 3);
        delta.push(&syn);
        let (w1, _) = delta.close(1.0, 2.0, 0.1, &carry);
        assert_eq!(w1.syn_without_ack, 1.0, "stale first-ACK timestamp must not resolve a new SYN");
        assert_eq!(w1, WindowStats::compute_streaming(&[syn], 1.0, 2.0, 0.1, &carry).0);
    }

    /// A huge key burst followed by many sparse windows crosses the
    /// stale-key compaction threshold; the culled state must keep
    /// matching the batch oracle exactly.
    #[test]
    fn flow_delta_survives_stale_key_compaction() {
        let mut delta = FlowDelta::new();
        let mut carry = AckGrace::default();
        let mut oracle_carry = AckGrace::default();
        for round in 0..40u32 {
            let window: Vec<PacketRecord> = if round == 0 {
                // ~2 000 distinct flows/endpoints in one window.
                (0..2000u32)
                    .map(|i| record((i % 200) as u8, 1024 + (i % 40000) as u16, TcpFlags::SYN, i))
                    .collect()
            } else {
                (0..5u32).map(|i| record(1, 5000 + (round * 5 + i) as u16, TcpFlags::SYN, i)).collect()
            };
            let end = (round + 1) as f64;
            for r in &window {
                delta.push(r);
            }
            let (stats, next) = delta.close(1.0, end, 0.1, &carry);
            let (oracle_stats, oracle_next) =
                WindowStats::compute_streaming(&window, 1.0, end, 0.1, &oracle_carry);
            assert_eq!(stats, oracle_stats, "round {round}");
            assert_eq!(next, oracle_next, "round {round}");
            carry = next;
            oracle_carry = oracle_next;
        }
    }

    /// Closing resets the state completely: a second window sees no
    /// residue from the first.
    #[test]
    fn close_resets_state() {
        let records = scrambled_records(600, 0xabcd);
        let (first, second) = records.split_at(300);

        let mut delta = FlowDelta::new();
        for r in first {
            delta.push(r);
        }
        let _ = delta.close(1.0, f64::INFINITY, 0.0, &AckGrace::default());
        for r in second {
            delta.push(r);
        }
        let (reused, _) = delta.close(1.0, f64::INFINITY, 0.0, &AckGrace::default());

        let fresh = WindowStats::compute(second, 1.0);
        assert_eq!(reused, fresh, "second window must not see the first's counts");
    }

    /// The cheap carry advance (cached-stats path, handshake-only
    /// pushes) must match the records-based [`AckGrace::advance`].
    #[test]
    fn advance_carry_matches_handshake_only_downgrade() {
        let records = scrambled_records(1_500, 0xfeed);
        let mut delta = FlowDelta::new();
        for chunk in records.chunks(100) {
            let end = chunk.last().unwrap().ts.as_secs_f64() + 0.05;
            let reference = AckGrace::default().advance(chunk, end, 0.1);
            for r in chunk {
                delta.push_handshake_only(r);
            }
            let advanced = delta.advance_carry(end, 0.1);
            assert_eq!(advanced, reference);
        }
    }

    /// A forced cull at a window boundary (and mid-window) must change
    /// nothing: stale keys were already invisible.
    #[test]
    fn forced_cull_is_semantically_invisible() {
        let windows = windows_by_second(scrambled_records(3_000, 0xc011));
        let mut culled = FlowDelta::new();
        let mut plain = FlowDelta::new();
        let mut culled_carry = AckGrace::default();
        let mut plain_carry = AckGrace::default();
        for (i, window) in windows.iter().enumerate() {
            let end = (i + 1) as f64;
            if i % 3 == 0 {
                culled.force_cull(); // at the boundary
            }
            for (j, r) in window.iter().enumerate() {
                culled.push(r);
                plain.push(r);
                if i % 5 == 0 && j == window.len() / 2 {
                    culled.force_cull(); // mid-window
                    assert_eq!(culled.state_conservation_violation(), None);
                }
            }
            let (a, an) = culled.close(1.0, end, 0.1, &culled_carry);
            let (b, bn) = plain.close(1.0, end, 0.1, &plain_carry);
            assert_eq!(a, b, "window {i} stats diverged under forced culls");
            assert_eq!(an, bn, "window {i} carry diverged under forced culls");
            culled_carry = an;
            plain_carry = bn;
        }
    }

    /// Flow aggregates carry real per-flow telemetry: packets, bytes
    /// and the in-window timestamp span.
    #[test]
    fn flow_aggregates_accumulate() {
        let mut delta = FlowDelta::new();
        let base = PacketRecord {
            ts: SimTime::from_millis(100),
            src: Addr::new(10, 0, 0, 1),
            src_port: 5000,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
            protocol: Protocol::Udp,
            flags: TcpFlags::EMPTY,
            wire_len: 120,
            payload_len: 80,
            seq: 0,
            label: Label::Benign,
        };
        delta.push(&base);
        delta.push(&PacketRecord { ts: SimTime::from_millis(400), wire_len: 80, ..base });
        let agg = *delta.flows.get(&base.flow_key_packed()).expect("flow tracked");
        assert_eq!(agg.packets, 2);
        assert_eq!(agg.bytes, 200);
        assert_eq!(agg.iat_span_nanos(), 300_000_000);
        assert_eq!(delta.state_conservation_violation(), None);
        let (_, _) = delta.close(1.0, 1.0, 0.1, &AckGrace::default());
        assert_eq!(delta.flows_touched(), 1);
    }

    /// `flows_touched` accumulates per closed window, counting distinct
    /// flows, not records.
    #[test]
    fn flows_touched_counts_distinct_flows_per_window() {
        let mut delta = FlowDelta::new();
        let windows = windows_by_second(scrambled_records(600, 0xabcd));
        let mut expected = 0u64;
        for (i, window) in windows.iter().enumerate() {
            let mut distinct: std::collections::HashSet<_> = Default::default();
            for r in window {
                delta.push(r);
                distinct.insert(r.flow_key());
            }
            expected += distinct.len() as u64;
            let _ = delta.close(1.0, (i + 1) as f64, 0.1, &AckGrace::default());
        }
        assert_eq!(delta.flows_touched(), expected);
    }
}
