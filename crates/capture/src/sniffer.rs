//! The sniffer tap: a `tcpdump` on the simulated bridge.
//!
//! A [`Sniffer`] implements [`netsim::tap::PacketTap`] and is installed
//! into the world with [`netsim::world::World::add_tap`]; its paired
//! [`SnifferHandle`] is kept by the orchestrator (or the IDS container)
//! and drained periodically. The paper's IDS monitors the traffic
//! reaching the TServer, so the default filter captures packets whose
//! source or destination is the monitored address.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::buggify::{Buggify, DecisionPoint};
use netsim::packet::Packet;
use netsim::tap::{PacketTap, TapMeta};
use netsim::Addr;

use crate::record::PacketRecord;

/// Which packets a sniffer keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnifferFilter {
    /// Keep every delivered packet on the network.
    #[default]
    All,
    /// Keep packets whose source or destination matches the address
    /// (monitoring one host, like the IDS watching the TServer).
    Involving(Addr),
}

impl SnifferFilter {
    fn matches(self, packet: &Packet) -> bool {
        match self {
            SnifferFilter::All => true,
            SnifferFilter::Involving(addr) => packet.src == addr || packet.dst == addr,
        }
    }
}

#[derive(Debug, Default)]
struct SnifferState {
    records: Vec<PacketRecord>,
    captured_total: u64,
    drained_total: u64,
    /// `None` = unbounded (offline capture); `Some(n)` = ring-buffer-less
    /// tail drop once `records.len()` reaches `n` (live IDS feed).
    capacity: Option<usize>,
    dropped_overflow: u64,
    /// The capture path's decision points (partial drains, truncated
    /// records); disabled by default.
    buggify: Buggify,
}

/// The tap half: installed into the world.
#[derive(Debug)]
pub struct Sniffer {
    filter: SnifferFilter,
    state: Rc<RefCell<SnifferState>>,
}

/// The reader half: drained by the orchestrator or the IDS.
#[derive(Debug, Clone)]
pub struct SnifferHandle {
    state: Rc<RefCell<SnifferState>>,
}

/// Creates a connected sniffer/handle pair.
///
/// ```
/// use capture::sniffer::{sniffer_pair, SnifferFilter};
///
/// let (tap, handle) = sniffer_pair(SnifferFilter::All);
/// // world.add_tap(Box::new(tap));
/// # let _ = (tap, handle);
/// ```
pub fn sniffer_pair(filter: SnifferFilter) -> (Sniffer, SnifferHandle) {
    let state = Rc::new(RefCell::new(SnifferState::default()));
    (Sniffer { filter, state: Rc::clone(&state) }, SnifferHandle { state })
}

/// Creates a sniffer/handle pair whose buffer tail-drops beyond
/// `capacity` undrained records, mirroring a real capture socket's
/// finite kernel buffer. Drops are counted, never silent — see
/// [`SnifferHandle::dropped_overflow`].
pub fn bounded_sniffer_pair(filter: SnifferFilter, capacity: usize) -> (Sniffer, SnifferHandle) {
    let (tap, handle) = sniffer_pair(filter);
    handle.set_capacity(Some(capacity));
    (tap, handle)
}

impl PacketTap for Sniffer {
    fn on_packet(&mut self, meta: &TapMeta, packet: &Packet) {
        if !self.filter.matches(packet) {
            return;
        }
        let mut state = self.state.borrow_mut();
        if let Some(capacity) = state.capacity {
            if state.records.len() >= capacity {
                state.dropped_overflow += 1;
                return;
            }
        }
        state.captured_total += 1;
        let mut record = PacketRecord::from_packet(meta.time, packet);
        let truncate = DecisionPoint::CaptureRecordTruncate;
        if state.buggify.fire(truncate) {
            // A truncated write: the record survives but reports a
            // snaplen-style clipped wire length (never below the
            // payload accounting's 1-byte floor).
            let frac = state.buggify.magnitude(truncate, 0.1, 0.9);
            record.wire_len = ((record.wire_len as f64 * frac) as u32).max(1);
        }
        state.records.push(record);
    }
}

impl SnifferHandle {
    /// Removes and returns all buffered records (real-time consumption).
    ///
    /// Allocates a fresh buffer per call; steady-state consumers should
    /// prefer [`SnifferHandle::drain_into`].
    pub fn drain(&self) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Moves all buffered records into `out` (cleared first): the
    /// unbounded [`SnifferHandle::drain_up_to`].
    pub fn drain_into(&self, out: &mut Vec<PacketRecord>) {
        self.drain_up_to(usize::MAX, out);
    }

    /// Moves up to `max` of the oldest buffered records into `out`
    /// (cleared first), leaving the rest buffered. The serving layer's
    /// block-upstream backpressure uses this to drain only what its
    /// ingestion queue has room for; records left behind stay subject to
    /// the sniffer's own capacity/tail-drop accounting.
    ///
    /// A take of everything swaps buffers: the sniffer keeps capturing
    /// into the allocation `out` brought back, so a consumer draining on
    /// a cadence ping-pongs two buffers and never allocates after
    /// warmup. The `capture.drain.partial` decision point may shorten
    /// any take of two or more records: a random suffix of it stays
    /// buffered, as if the consumer's read returned short. Conservation
    /// is preserved — the suffix counts as buffered, not drained.
    pub fn drain_up_to(&self, max: usize, out: &mut Vec<PacketRecord>) {
        out.clear();
        if max == 0 {
            return;
        }
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        let buffered = state.records.len();
        let mut take = buffered.min(max);
        let partial = DecisionPoint::CaptureDrainPartial;
        if take >= 2 && state.buggify.fire(partial) {
            take -= state.buggify.magnitude_int(partial, 1, take as u64 - 1) as usize;
        }
        if take == buffered {
            std::mem::swap(&mut state.records, out);
        } else {
            out.extend(state.records.drain(..take));
        }
        state.drained_total += take as u64;
    }

    /// Arms the capture path's decision points with `buggify`, usually
    /// a [`netsim::world::World::buggify_fork`], so their evaluations
    /// and fires export with the kernel's.
    pub fn set_buggify(&self, buggify: Buggify) {
        self.state.borrow_mut().buggify = buggify;
    }

    /// Total records handed to consumers via drains so far. Together
    /// with [`SnifferHandle::buffered`] this must always account for
    /// every captured record:
    /// `captured_total == drained_total + buffered`.
    pub fn drained_total(&self) -> u64 {
        self.state.borrow().drained_total
    }

    /// Number of records currently buffered.
    pub fn buffered(&self) -> usize {
        self.state.borrow().records.len()
    }

    /// Total packets ever captured through this sniffer.
    pub fn captured_total(&self) -> u64 {
        self.state.borrow().captured_total
    }

    /// Sets (or clears) the buffer capacity. A consumer that drains on
    /// a cadence bounds its worst-case memory; packets arriving while
    /// the buffer is full are dropped and counted.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        self.state.borrow_mut().capacity = capacity;
    }

    /// The current capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.state.borrow().capacity
    }

    /// Packets discarded because the buffer was at capacity.
    pub fn dropped_overflow(&self) -> u64 {
        self.state.borrow().dropped_overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::buggify::BuggifyConfig;
    use netsim::ids::{LinkId, NodeId};
    use netsim::packet::Provenance;
    use netsim::time::SimTime;

    fn meta() -> TapMeta {
        TapMeta { time: SimTime::from_secs(1), link: LinkId::from_raw(0), receiver: NodeId::from_raw(0) }
    }

    fn udp(src: Addr, dst: Addr) -> Packet {
        Packet::udp(src, dst, 1, 2, Bytes::new()).with_provenance(Provenance::Benign)
    }

    /// Arms `handle` with a fork of a swarm layer at `intensity` times
    /// the standard fire rate; the returned original reads the counts.
    fn arm(handle: &SnifferHandle, swarm_seed: u64, intensity: f64) -> Buggify {
        let buggify = Buggify::new(BuggifyConfig { enabled: true, swarm_seed, intensity });
        handle.set_buggify(buggify.fork());
        buggify
    }

    /// `(partial drains, truncated records)` fired so far.
    fn fires(buggify: &Buggify) -> (u64, u64) {
        let counts = buggify.counts();
        let fires = |point: DecisionPoint| counts.iter().find(|c| c.0 == point.name()).unwrap().2;
        (fires(DecisionPoint::CaptureDrainPartial), fires(DecisionPoint::CaptureRecordTruncate))
    }

    #[test]
    fn all_filter_captures_everything() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        tap.on_packet(&meta(), &udp(Addr::new(3, 0, 0, 1), Addr::new(4, 0, 0, 1)));
        assert_eq!(handle.buffered(), 2);
        assert_eq!(handle.captured_total(), 2);
    }

    #[test]
    fn involving_filter_matches_either_direction() {
        let victim = Addr::new(10, 0, 0, 2);
        let (mut tap, handle) = sniffer_pair(SnifferFilter::Involving(victim));
        tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), victim)); // towards
        tap.on_packet(&meta(), &udp(victim, Addr::new(1, 0, 0, 1))); // from
        tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(9, 0, 0, 9))); // unrelated
        assert_eq!(handle.buffered(), 2);
    }

    #[test]
    fn bounded_buffer_tail_drops_and_counts() {
        let (mut tap, handle) = bounded_sniffer_pair(SnifferFilter::All, 2);
        for _ in 0..5 {
            tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        }
        assert_eq!(handle.buffered(), 2);
        assert_eq!(handle.captured_total(), 2);
        assert_eq!(handle.dropped_overflow(), 3);
        // Draining frees the buffer; capture resumes.
        handle.drain();
        tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        assert_eq!(handle.buffered(), 1);
        assert_eq!(handle.dropped_overflow(), 3);
    }

    #[test]
    fn capacity_can_be_changed_live() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        assert_eq!(handle.capacity(), None);
        for _ in 0..4 {
            tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        }
        assert_eq!(handle.buffered(), 4);
        handle.set_capacity(Some(4));
        tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        assert_eq!(handle.buffered(), 4);
        assert_eq!(handle.dropped_overflow(), 1);
    }

    #[test]
    fn drain_empties_the_buffer_but_keeps_totals() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        let drained = handle.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(handle.buffered(), 0);
        assert_eq!(handle.captured_total(), 1);
        assert_eq!(handle.drained_total(), 1);
    }

    #[test]
    fn drain_into_swaps_buffers_and_reuses_capacity() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        let mut buf = Vec::new();
        for round in 0..3 {
            for _ in 0..10 {
                tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
            }
            handle.drain_into(&mut buf);
            assert_eq!(buf.len(), 10, "round {round}");
            assert_eq!(handle.buffered(), 0);
        }
        // After warmup both ping-pong buffers hold >= 10 records of
        // capacity; a fresh round must not grow either.
        let cap_before = buf.capacity();
        for _ in 0..10 {
            tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        }
        handle.drain_into(&mut buf);
        assert_eq!(buf.capacity(), cap_before);
    }

    #[test]
    fn drop_accounting_is_conserved_under_overflow() {
        // Every packet offered to the sniffer is exactly one of:
        // captured (then drained or still buffered) or dropped on
        // overflow. The counters must never lose one.
        let (mut tap, handle) = bounded_sniffer_pair(SnifferFilter::All, 8);
        let mut buf = Vec::new();
        let mut offered = 0u64;
        for round in 0..13 {
            for _ in 0..5 {
                tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
                offered += 1;
            }
            if round % 3 == 0 {
                handle.drain_into(&mut buf);
            }
            assert_eq!(
                handle.captured_total(),
                handle.drained_total() + handle.buffered() as u64,
                "captured must equal drained + buffered (round {round})"
            );
            assert_eq!(
                offered,
                handle.captured_total() + handle.dropped_overflow(),
                "offered must equal captured + dropped (round {round})"
            );
        }
        assert!(handle.dropped_overflow() > 0, "test must exercise overflow");
    }

    #[test]
    fn chaos_partial_drains_preserve_conservation() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        let buggify = arm(&handle, 1234, 20.0); // inflate so partial drains fire often
        let mut buf = Vec::new();
        let mut offered = 0u64;
        for round in 0..50 {
            for _ in 0..6 {
                tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
                offered += 1;
            }
            handle.drain_into(&mut buf);
            assert_eq!(
                handle.captured_total(),
                handle.drained_total() + handle.buffered() as u64,
                "conservation must survive chaos (round {round})"
            );
            assert_eq!(offered, handle.captured_total() + handle.dropped_overflow());
        }
        let (partials, _) = fires(&buggify);
        assert!(partials > 0, "chaos at 20x intensity must fire at least once");
    }

    #[test]
    fn chaos_truncation_clips_wire_len_but_loses_no_record() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        let buggify = arm(&handle, 77, 100.0); // 100x => truncation probability 1.0
        for _ in 0..20 {
            tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        }
        // Drain-partial chaos also always fires at this intensity, so
        // keep draining until the buffer empties.
        let mut records = Vec::new();
        while handle.buffered() > 0 {
            records.extend(handle.drain());
        }
        assert_eq!(records.len(), 20, "truncation must never drop records");
        let (_, truncated) = fires(&buggify);
        assert_eq!(truncated, 20);
        let untouched = {
            let (mut tap2, handle2) = sniffer_pair(SnifferFilter::All);
            tap2.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
            handle2.drain()[0].wire_len
        };
        for r in &records {
            assert!(r.wire_len >= 1);
            assert!(r.wire_len < untouched, "truncated record must report a shorter wire");
        }
    }

    #[test]
    fn drain_up_to_caps_the_take_and_conserves() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        for _ in 0..10 {
            tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        }
        let mut buf = Vec::new();
        handle.drain_up_to(4, &mut buf);
        assert_eq!(buf.len(), 4);
        assert_eq!(handle.buffered(), 6);
        assert_eq!(handle.drained_total(), 4);
        handle.drain_up_to(0, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(handle.buffered(), 6);
        handle.drain_up_to(usize::MAX, &mut buf);
        assert_eq!(buf.len(), 6);
        assert_eq!(handle.buffered(), 0);
        assert_eq!(handle.captured_total(), handle.drained_total());
    }

    #[test]
    fn drain_up_to_keeps_oldest_first_order() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        for i in 0..6u64 {
            let m = TapMeta {
                time: SimTime::from_secs(i),
                link: LinkId::from_raw(0),
                receiver: NodeId::from_raw(0),
            };
            tap.on_packet(&m, &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
        }
        let mut buf = Vec::new();
        handle.drain_up_to(3, &mut buf);
        let first: Vec<_> = buf.iter().map(|r| r.ts).collect();
        handle.drain_up_to(3, &mut buf);
        let second: Vec<_> = buf.iter().map(|r| r.ts).collect();
        assert!(first.iter().max() < second.iter().min());
    }

    #[test]
    fn drain_up_to_chaos_preserves_conservation() {
        let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
        let buggify = arm(&handle, 99, 20.0);
        let mut buf = Vec::new();
        for round in 0..50 {
            for _ in 0..6 {
                tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
            }
            handle.drain_up_to(4, &mut buf);
            assert!(buf.len() <= 4, "round {round}");
            assert_eq!(
                handle.captured_total(),
                handle.drained_total() + handle.buffered() as u64,
                "conservation must survive capped chaos drains (round {round})"
            );
        }
        let (partials, _) = fires(&buggify);
        assert!(partials > 0);
    }

    #[test]
    fn chaos_replays_identically_per_swarm_seed() {
        let run = |seed: u64| {
            let (mut tap, handle) = sniffer_pair(SnifferFilter::All);
            let buggify = arm(&handle, seed, 10.0);
            let mut buf = Vec::new();
            let mut trace = Vec::new();
            for _ in 0..40 {
                for _ in 0..4 {
                    tap.on_packet(&meta(), &udp(Addr::new(1, 0, 0, 1), Addr::new(2, 0, 0, 1)));
                }
                handle.drain_into(&mut buf);
                trace.push((buf.len(), handle.buffered()));
            }
            (trace, fires(&buggify))
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
