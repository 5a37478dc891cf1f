//! Link models: full-duplex point-to-point links and shared CSMA buses.
//!
//! Both models serialise packets at a configured bandwidth, apply a
//! propagation delay, and drop on tail when a transmit queue is full —
//! which is exactly the mechanism by which a volumetric DDoS congests the
//! victim's access link. The CSMA bus mirrors NS-3's `CsmaChannel`: every
//! attached device has its own transmit queue, and a single transmission
//! occupies the shared medium at a time, arbitrated round-robin.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::event::{Event, EventQueue};
use crate::ids::{LinkId, NodeId};
use crate::packet::{Addr, Packet};
use crate::pool::{PacketId, PacketPool};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Static configuration of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Channel bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Per-lane transmit queue capacity in packets.
    pub queue_packets: usize,
    /// Independent per-packet loss probability (0 disables).
    pub loss_rate: f64,
}

impl LinkConfig {
    /// A 100 Mbit/s LAN profile with 50 µs delay, the default testbed link.
    pub fn lan_100mbps() -> Self {
        LinkConfig {
            bandwidth_bps: 100_000_000,
            delay: SimDuration::from_micros(50),
            queue_packets: 100,
            loss_rate: 0.0,
        }
    }

    /// A 54 Mbit/s Wi-Fi profile (802.11g-class) with mild channel loss.
    pub fn wifi_54mbps() -> Self {
        LinkConfig {
            bandwidth_bps: 54_000_000,
            delay: SimDuration::from_micros(20),
            queue_packets: 100,
            loss_rate: 0.002,
        }
    }

    /// Time to serialise `bytes` onto the wire at this bandwidth.
    pub fn serialization_time(&self, bytes: usize) -> SimDuration {
        let nanos = (bytes as u128 * 8 * 1_000_000_000) / self.bandwidth_bps as u128;
        SimDuration::from_nanos(nanos.max(1) as u64)
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::lan_100mbps()
    }
}

/// Reason a packet never made it onto (or across) a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// The transmit queue was full (tail drop).
    QueueFull,
    /// Random channel loss.
    Lost,
    /// No attached node has the destination address.
    Unroutable,
    /// The sending or receiving node was administratively down.
    NodeDown,
    /// The link itself was administratively down (fault-plan flap).
    LinkDown,
}

/// Traffic counters for a link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets fully serialised onto the wire.
    pub tx_packets: u64,
    /// Bytes fully serialised onto the wire.
    pub tx_bytes: u64,
    /// Packets handed to receivers.
    pub delivered_packets: u64,
    /// Bytes handed to receivers.
    pub delivered_bytes: u64,
    /// Tail drops at full transmit queues.
    pub drops_queue_full: u64,
    /// Random channel losses.
    pub drops_lost: u64,
    /// Packets addressed to nobody on the link.
    pub drops_unroutable: u64,
    /// Packets rejected or destroyed because the link was down.
    pub drops_link_down: u64,
}

/// A queued transmission: the pool handle plus the two packet fields
/// the link layer needs (serialisation length and routing target),
/// cached so the hot path never dereferences the pool.
#[derive(Debug, Clone, Copy)]
struct QueuedFrame {
    id: PacketId,
    wire_len: u32,
    dst: Addr,
}

#[derive(Debug)]
struct Lane {
    owner: NodeId,
    queue: VecDeque<QueuedFrame>,
    in_flight: Option<QueuedFrame>,
}

impl Lane {
    fn new(owner: NodeId) -> Self {
        Lane { owner, queue: VecDeque::new(), in_flight: None }
    }
}

#[derive(Debug)]
enum LinkKind {
    P2p { a: NodeId, b: NodeId },
    Csma { bus_busy: bool, rr_next: usize },
    /// IEEE 802.11-style shared medium: like CSMA, but every frame pays
    /// DIFS plus a random contention backoff before transmitting (DCF
    /// without collision modelling). Backoff randomness comes from a
    /// link-local LCG so links stay deterministic without threading the
    /// world RNG through the hot path.
    Wifi { medium_busy: bool, rr_next: usize, backoff_state: u64 },
}

/// 802.11 DIFS (distributed inter-frame space) before each frame.
const WIFI_DIFS: SimDuration = SimDuration::from_micros(34);
/// 802.11 slot time; backoff draws 0..WIFI_CW_SLOTS of these.
const WIFI_SLOT: SimDuration = SimDuration::from_micros(9);
/// Contention-window size in slots (fixed CWmin, no exponential growth).
const WIFI_CW_SLOTS: u64 = 16;

/// A simulated link.
#[derive(Debug)]
pub struct Link {
    id: LinkId,
    kind: LinkKind,
    config: LinkConfig,
    lanes: Vec<Lane>,
    /// Frames queued or in flight across all lanes: +1 on enqueue, −1
    /// when a frame leaves `in_flight`. The event loop samples it on
    /// every link event, so it is kept rather than summed per lane.
    queued: usize,
    /// Frames waiting in lane queues, not yet on the wire: +1 on
    /// enqueue, −1 in `begin_tx`. At zero, arbitration has nothing to
    /// start and returns at once.
    waiting: usize,
    stats: LinkStats,
    /// Administrative state; fault plans flap this.
    up: bool,
    /// Fault-plan replacement for `config.loss_rate` while `Some`.
    loss_override: Option<f64>,
    /// Fault-plan bandwidth multiplier (1.0 = nominal).
    bandwidth_scale: f64,
    /// Fault-plan extra one-way delay on top of `config.delay`.
    extra_delay: SimDuration,
    /// Private RNG for channel-loss draws. One value is consumed per
    /// transmitted frame regardless of loss configuration or queue
    /// state, so enabling loss on this link never shifts the random
    /// stream of any other component.
    loss_rng: SimRng,
}

/// Minimal view of a node the link needs for delivery resolution.
#[derive(Debug, Clone, Copy)]
pub struct EndpointInfo {
    /// The node's address.
    pub addr: Addr,
    /// Whether the node is administratively up.
    pub up: bool,
}

/// Resolves endpoint info for delivery targeting.
pub trait EndpointResolver {
    /// Looks up address/state for a node attached to the link.
    fn endpoint(&self, node: NodeId) -> EndpointInfo;
}

impl<F: Fn(NodeId) -> EndpointInfo> EndpointResolver for F {
    fn endpoint(&self, node: NodeId) -> EndpointInfo {
        self(node)
    }
}

impl Link {
    /// Seed for a link's private loss RNG when none is supplied via
    /// [`Link::seed_loss_rng`] (golden-ratio mix of the link id, the
    /// same idiom as the Wi-Fi backoff LCG).
    fn default_loss_seed(id: LinkId) -> u64 {
        0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.as_raw() as u64 + 1)
    }

    fn with_kind(id: LinkId, kind: LinkKind, config: LinkConfig, lanes: Vec<Lane>) -> Self {
        Link {
            id,
            kind,
            config,
            lanes,
            queued: 0,
            waiting: 0,
            stats: LinkStats::default(),
            up: true,
            loss_override: None,
            bandwidth_scale: 1.0,
            extra_delay: SimDuration::ZERO,
            loss_rng: SimRng::seed_from(Self::default_loss_seed(id)),
        }
    }

    /// Creates a full-duplex point-to-point link between `a` and `b`.
    pub fn p2p(id: LinkId, a: NodeId, b: NodeId, config: LinkConfig) -> Self {
        Link::with_kind(id, LinkKind::P2p { a, b }, config, vec![Lane::new(a), Lane::new(b)])
    }

    /// Creates a shared CSMA bus over `members`.
    ///
    /// The bus may start empty; members can be attached later with
    /// [`Link::add_member`] (containers join the testbed bridge one at a
    /// time as they are deployed).
    pub fn csma(id: LinkId, members: &[NodeId], config: LinkConfig) -> Self {
        Link::with_kind(
            id,
            LinkKind::Csma { bus_busy: false, rr_next: 0 },
            config,
            members.iter().copied().map(Lane::new).collect(),
        )
    }

    /// Creates an 802.11-style shared medium over `members` (DDoSim's
    /// Wi-Fi network option): CSMA semantics plus DIFS + random backoff
    /// per frame, so contention overhead and jitter are modelled.
    pub fn wifi(id: LinkId, members: &[NodeId], config: LinkConfig) -> Self {
        Link::with_kind(
            id,
            LinkKind::Wifi {
                medium_busy: false,
                rr_next: 0,
                backoff_state: 0x9e37_79b9_7f4a_7c15 ^ id.as_raw() as u64,
            },
            config,
            members.iter().copied().map(Lane::new).collect(),
        )
    }

    /// Reseeds the private loss RNG (the world mixes its root seed in at
    /// link creation so whole runs stay a pure function of one seed).
    pub fn seed_loss_rng(&mut self, seed: u64) {
        self.loss_rng = SimRng::seed_from(seed);
    }

    /// The link's identifier.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Current traffic counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Whether the link is administratively up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Raises or cuts the link. Cutting destroys nothing that is
    /// already queued, but frames finishing serialisation while the
    /// link is down are destroyed (counted in `drops_link_down`), and
    /// new enqueues are rejected. Restoring the link restarts any
    /// stalled lanes.
    pub fn set_up(&mut self, now: SimTime, up: bool, queue: &mut EventQueue) {
        if self.up == up {
            return;
        }
        self.up = up;
        if up {
            self.try_start_tx(now, queue);
        }
    }

    /// Overrides the configured loss rate (`None` restores it).
    pub fn set_loss_override(&mut self, rate: Option<f64>) {
        self.loss_override = rate.map(|r| r.clamp(0.0, 1.0));
    }

    /// The loss probability currently in force.
    pub fn effective_loss_rate(&self) -> f64 {
        self.loss_override.unwrap_or(self.config.loss_rate)
    }

    /// Scales the effective bandwidth (throttling). Clamped to a small
    /// positive floor so serialisation time stays finite.
    pub fn set_bandwidth_scale(&mut self, scale: f64) {
        self.bandwidth_scale = scale.max(1e-6);
    }

    /// The current bandwidth multiplier.
    pub fn bandwidth_scale(&self) -> f64 {
        self.bandwidth_scale
    }

    /// Sets extra one-way delay on top of the configured propagation
    /// delay (latency jitter).
    pub fn set_extra_delay(&mut self, delay: SimDuration) {
        self.extra_delay = delay;
    }

    /// The extra one-way delay currently in force.
    pub fn extra_delay(&self) -> SimDuration {
        self.extra_delay
    }

    /// Nodes attached to this link.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.lanes.iter().map(|l| l.owner)
    }

    /// Attaches another member to a CSMA bus.
    ///
    /// # Panics
    ///
    /// Panics on point-to-point links.
    pub fn add_member(&mut self, node: NodeId) {
        match self.kind {
            LinkKind::Csma { .. } | LinkKind::Wifi { .. } => self.lanes.push(Lane::new(node)),
            LinkKind::P2p { .. } => panic!("cannot add members to a point-to-point link"),
        }
    }

    fn lane_of(&self, node: NodeId) -> Option<usize> {
        self.lanes.iter().position(|l| l.owner == node)
    }

    /// Total packets currently queued or in flight (all lanes).
    pub fn queued_packets(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.lane_sum(),
            "queued count diverged from the lanes"
        );
        self.queued
    }

    /// The lanes' own count of queued and in-flight frames: the oracle
    /// for the running `queued` total.
    fn lane_sum(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len() + usize::from(l.in_flight.is_some())).sum()
    }

    /// The lanes' own count of waiting frames: the oracle for the
    /// running `waiting` total.
    #[cfg(test)]
    fn lane_waiting(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// Accepts a packet from `from` for transmission.
    ///
    /// Returns the drop reason if the packet was not accepted. The
    /// packet body enters `pool` only on acceptance: drop paths never
    /// touch the pool, so rejected packets cost no slot churn.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not attached to the link.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        from: NodeId,
        packet: Packet,
        pool: &mut PacketPool,
        queue: &mut EventQueue,
    ) -> Result<(), DropReason> {
        let lane_idx = self.lane_of(from).expect("sender is not attached to link");
        if !self.up {
            self.stats.drops_link_down += 1;
            return Err(DropReason::LinkDown);
        }
        if self.lanes[lane_idx].queue.len() >= self.config.queue_packets {
            self.stats.drops_queue_full += 1;
            return Err(DropReason::QueueFull);
        }
        let frame = QueuedFrame {
            wire_len: packet.wire_len() as u32,
            dst: packet.dst,
            id: pool.insert(packet),
        };
        self.lanes[lane_idx].queue.push_back(frame);
        self.queued += 1;
        self.waiting += 1;
        self.try_start_tx(now, queue);
        Ok(())
    }

    /// Starts transmissions on any idle lane/bus with pending packets.
    fn try_start_tx(&mut self, now: SimTime, queue: &mut EventQueue) {
        if !self.up || self.waiting == 0 {
            return;
        }
        match &mut self.kind {
            LinkKind::P2p { .. } => {
                for lane_idx in 0..self.lanes.len() {
                    self.start_lane_if_idle(now, lane_idx, queue);
                }
            }
            LinkKind::Csma { bus_busy, rr_next } => {
                if *bus_busy {
                    return;
                }
                if let Some(lane_idx) = next_waiting_lane(&self.lanes, rr_next) {
                    *bus_busy = true;
                    self.begin_tx(now, lane_idx, SimDuration::ZERO, queue);
                }
            }
            LinkKind::Wifi { medium_busy, rr_next, backoff_state } => {
                if *medium_busy {
                    return;
                }
                if let Some(lane_idx) = next_waiting_lane(&self.lanes, rr_next) {
                    *medium_busy = true;
                    // xorshift* step for the backoff draw.
                    let mut x = *backoff_state;
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    *backoff_state = x;
                    let slots = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % WIFI_CW_SLOTS;
                    let overhead = WIFI_DIFS + WIFI_SLOT * slots;
                    self.begin_tx(now, lane_idx, overhead, queue);
                }
            }
        }
    }

    fn start_lane_if_idle(&mut self, now: SimTime, lane_idx: usize, queue: &mut EventQueue) {
        if self.lanes[lane_idx].in_flight.is_none() && !self.lanes[lane_idx].queue.is_empty() {
            self.begin_tx(now, lane_idx, SimDuration::ZERO, queue);
        }
    }

    fn begin_tx(
        &mut self,
        now: SimTime,
        lane_idx: usize,
        access_overhead: SimDuration,
        queue: &mut EventQueue,
    ) {
        // Invariant: every caller (`start_lane_if_idle` and the CSMA /
        // Wi-Fi arbitration loops) selects `lane_idx` only after
        // observing a non-empty queue, and nothing dequeues in between.
        let frame = self.lanes[lane_idx]
            .queue
            .pop_front()
            .expect("begin_tx called on a lane whose queue was checked non-empty");
        let base = self.config.serialization_time(frame.wire_len as usize);
        let ser = if self.bandwidth_scale == 1.0 {
            base
        } else {
            SimDuration::from_secs_f64(base.as_secs_f64() / self.bandwidth_scale)
        };
        self.lanes[lane_idx].in_flight = Some(frame);
        self.waiting -= 1;
        queue.schedule(
            now + access_overhead + ser,
            Event::LinkTxComplete { link: self.id, lane: lane_idx },
        );
    }

    /// Completes the in-flight transmission on `lane`, scheduling delivery
    /// events and starting the next pending transmission.
    ///
    /// # Panics
    ///
    /// Panics if the lane has no in-flight packet. Each
    /// `LinkTxComplete` event is scheduled by exactly one `begin_tx`
    /// (which sets `in_flight`), and nothing else clears the slot, so
    /// this fires only on a corrupted event stream — e.g. a
    /// hand-crafted or double-delivered event.
    pub fn on_tx_complete<R: EndpointResolver>(
        &mut self,
        now: SimTime,
        lane_idx: usize,
        resolver: &R,
        pool: &mut PacketPool,
        queue: &mut EventQueue,
    ) {
        let frame = self.lanes[lane_idx]
            .in_flight
            .take()
            .expect("tx-complete event for an idle lane");
        self.queued -= 1;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += frame.wire_len as u64;
        let sender = self.lanes[lane_idx].owner;

        match &mut self.kind {
            LinkKind::Csma { bus_busy, .. } => *bus_busy = false,
            LinkKind::Wifi { medium_busy, .. } => *medium_busy = false,
            LinkKind::P2p { .. } => {}
        }

        // Exactly one draw per transmitted frame, unconditionally: the
        // stream position is a function of the frame sequence alone, so
        // loss configuration (or a fault-plan override toggling mid-run)
        // never shifts which later frames get lost.
        let lost = self.loss_rng.chance(self.effective_loss_rate());
        if !self.up {
            // The link was cut while the frame was on the wire.
            self.stats.drops_link_down += 1;
            pool.release(frame.id);
        } else if lost {
            self.stats.drops_lost += 1;
            pool.release(frame.id);
        } else {
            self.deliver_targets(now, sender, frame, resolver, pool, queue);
        }

        self.try_start_tx(now, queue);
    }

    fn deliver_targets<R: EndpointResolver>(
        &mut self,
        now: SimTime,
        sender: NodeId,
        frame: QueuedFrame,
        resolver: &R,
        pool: &mut PacketPool,
        queue: &mut EventQueue,
    ) {
        let arrive = now + self.config.delay + self.extra_delay;
        match self.kind {
            LinkKind::P2p { a, b } => {
                let target = if sender == a { b } else { a };
                self.stats.delivered_packets += 1;
                self.stats.delivered_bytes += frame.wire_len as u64;
                queue.schedule(arrive, Event::Deliver { link: self.id, node: target, packet: frame.id });
            }
            LinkKind::Csma { .. } | LinkKind::Wifi { .. } => {
                if frame.dst == Addr::BROADCAST {
                    // Fan-out bumps the pool refcount per extra receiver
                    // instead of cloning the packet body; the last
                    // receiver's `release` recycles the slot.
                    let mut targets = 0u32;
                    for i in 0..self.lanes.len() {
                        let target = self.lanes[i].owner;
                        if target == sender {
                            continue;
                        }
                        if targets > 0 {
                            pool.retain(frame.id);
                        }
                        targets += 1;
                        self.stats.delivered_packets += 1;
                        self.stats.delivered_bytes += frame.wire_len as u64;
                        queue.schedule(
                            arrive,
                            Event::Deliver { link: self.id, node: target, packet: frame.id },
                        );
                    }
                    if targets == 0 {
                        // A one-member bus: nobody to receive.
                        pool.release(frame.id);
                    }
                } else {
                    let target =
                        self.lanes.iter().map(|l| l.owner).find(|&n| resolver.endpoint(n).addr == frame.dst);
                    match target {
                        Some(target) => {
                            self.stats.delivered_packets += 1;
                            self.stats.delivered_bytes += frame.wire_len as u64;
                            queue.schedule(arrive, Event::Deliver { link: self.id, node: target, packet: frame.id });
                        }
                        None => {
                            self.stats.drops_unroutable += 1;
                            pool.release(frame.id);
                        }
                    }
                }
            }
        }
    }
}

/// Round-robin arbitration of a shared medium: the first lane from
/// `rr_next` on, wrapping, with a frame waiting, with `rr_next` moved to
/// the lane after it. `None` when every queue is empty.
fn next_waiting_lane(lanes: &[Lane], rr_next: &mut usize) -> Option<usize> {
    let n = lanes.len();
    let mut lane_idx = *rr_next;
    for _ in 0..n {
        let next = if lane_idx + 1 == n { 0 } else { lane_idx + 1 };
        if !lanes[lane_idx].queue.is_empty() {
            *rr_next = next;
            return Some(lane_idx);
        }
        lane_idx = next;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn packet(dst: Addr, len: usize) -> Packet {
        Packet::udp(Addr::new(10, 0, 0, 1), dst, 1111, 2222, Bytes::from(vec![0u8; len]))
    }

    fn resolver(table: Vec<(NodeId, Addr)>) -> impl EndpointResolver {
        move |node: NodeId| {
            let addr = table.iter().find(|(n, _)| *n == node).map(|(_, a)| *a).unwrap_or(Addr::UNSPECIFIED);
            EndpointInfo { addr, up: true }
        }
    }

    fn drain(
        link: &mut Link,
        pool: &mut PacketPool,
        queue: &mut EventQueue,
        resolver: &impl EndpointResolver,
    ) -> Vec<(SimTime, NodeId, Packet)> {
        let mut deliveries = Vec::new();
        while let Some((t, ev)) = queue.pop() {
            match ev {
                Event::LinkTxComplete { lane, .. } => {
                    link.on_tx_complete(t, lane, resolver, pool, queue)
                }
                Event::Deliver { node, packet, .. } => {
                    let body = pool.get(packet).clone();
                    pool.release(packet);
                    deliveries.push((t, node, body));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(pool.live(), link.queued_packets(), "pool leaks packets beyond queued frames");
        deliveries
    }

    #[test]
    fn serialization_time_scales_with_bytes() {
        let cfg = LinkConfig { bandwidth_bps: 8_000_000, ..LinkConfig::lan_100mbps() };
        // 8 Mbit/s = 1 byte/us.
        assert_eq!(cfg.serialization_time(1000), SimDuration::from_micros(1000));
    }

    #[test]
    fn p2p_delivers_to_peer_after_ser_plus_delay() {
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let cfg = LinkConfig {
            bandwidth_bps: 8_000_000,
            delay: SimDuration::from_millis(1),
            queue_packets: 10,
            loss_rate: 0.0,
        };
        let mut link = Link::p2p(LinkId::from_raw(0), a, b, cfg);
        let mut pool = PacketPool::new();
        let mut queue = EventQueue::new();
        let res = resolver(vec![(a, Addr::new(10, 0, 0, 1)), (b, Addr::new(10, 0, 0, 2))]);

        let p = packet(Addr::new(10, 0, 0, 2), 972); // 1000 bytes on the wire
        let wire = p.wire_len();
        assert_eq!(wire, 1000);
        link.enqueue(SimTime::ZERO, a, p, &mut pool, &mut queue).unwrap();
        let deliveries = drain(&mut link, &mut pool, &mut queue, &res);
        assert_eq!(deliveries.len(), 1);
        let (t, node, _) = &deliveries[0];
        assert_eq!(*node, b);
        assert_eq!(*t, SimTime::ZERO + SimDuration::from_micros(1000) + SimDuration::from_millis(1));
        assert_eq!(link.stats().tx_packets, 1);
        assert_eq!(link.stats().delivered_packets, 1);
    }

    #[test]
    fn queue_overflow_tail_drops() {
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let cfg = LinkConfig { queue_packets: 2, ..LinkConfig::lan_100mbps() };
        let mut link = Link::p2p(LinkId::from_raw(0), a, b, cfg);
        let mut pool = PacketPool::new();
        let mut queue = EventQueue::new();

        // First fill: one in flight + two queued, the rest dropped.
        for _ in 0..5 {
            let _ = link.enqueue(SimTime::ZERO, a, packet(Addr::new(10, 0, 0, 2), 100), &mut pool, &mut queue);
        }
        assert_eq!(link.stats().drops_queue_full, 2);
        assert_eq!(link.queued_packets(), 3);
        // Tail-dropped packets never entered the pool.
        assert_eq!(pool.live(), 3);
    }

    #[test]
    fn csma_shares_the_bus_round_robin() {
        let nodes: Vec<NodeId> = (0..3).map(NodeId::from_raw).collect();
        let addrs: Vec<Addr> = (0..3).map(|i| Addr::new(10, 0, 0, i as u8 + 1)).collect();
        let cfg = LinkConfig {
            bandwidth_bps: 8_000_000,
            delay: SimDuration::from_micros(10),
            queue_packets: 10,
            loss_rate: 0.0,
        };
        let mut link = Link::csma(LinkId::from_raw(0), &nodes, cfg);
        let mut pool = PacketPool::new();
        let mut queue = EventQueue::new();
        let res = resolver(nodes.iter().copied().zip(addrs.iter().copied()).collect());

        // Nodes 0 and 1 both flood node 2; transmissions must interleave.
        for _ in 0..3 {
            link.enqueue(SimTime::ZERO, nodes[0], packet(addrs[2], 100), &mut pool, &mut queue).unwrap();
            link.enqueue(SimTime::ZERO, nodes[1], packet(addrs[2], 100), &mut pool, &mut queue).unwrap();
        }
        let deliveries = drain(&mut link, &mut pool, &mut queue, &res);
        assert_eq!(deliveries.len(), 6);
        // Delivery times strictly increase: the bus serialises one at a time.
        for w in deliveries.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn csma_unroutable_is_counted_not_delivered() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId::from_raw).collect();
        let mut link = Link::csma(LinkId::from_raw(0), &nodes, LinkConfig::lan_100mbps());
        let mut pool = PacketPool::new();
        let mut queue = EventQueue::new();
        let res = resolver(vec![
            (nodes[0], Addr::new(10, 0, 0, 1)),
            (nodes[1], Addr::new(10, 0, 0, 2)),
        ]);
        link.enqueue(SimTime::ZERO, nodes[0], packet(Addr::new(10, 0, 0, 99), 100), &mut pool, &mut queue).unwrap();
        let deliveries = drain(&mut link, &mut pool, &mut queue, &res);
        assert!(deliveries.is_empty());
        assert_eq!(link.stats().drops_unroutable, 1);
    }

    #[test]
    fn csma_broadcast_reaches_everyone_but_sender() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId::from_raw).collect();
        let mut link = Link::csma(LinkId::from_raw(0), &nodes, LinkConfig::lan_100mbps());
        let mut pool = PacketPool::new();
        let mut queue = EventQueue::new();
        let res = resolver(nodes.iter().map(|&n| (n, Addr::new(10, 0, 0, n.as_raw() as u8 + 1))).collect());
        link.enqueue(SimTime::ZERO, nodes[0], packet(Addr::BROADCAST, 10), &mut pool, &mut queue).unwrap();
        let deliveries = drain(&mut link, &mut pool, &mut queue, &res);
        let mut receivers: Vec<u32> = deliveries.iter().map(|(_, n, _)| n.as_raw()).collect();
        receivers.sort_unstable();
        assert_eq!(receivers, vec![1, 2, 3]);
        // Fan-out shared one pool slot; all receivers released it.
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn total_loss_drops_everything() {
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let cfg = LinkConfig { loss_rate: 1.0, ..LinkConfig::lan_100mbps() };
        let mut link = Link::p2p(LinkId::from_raw(0), a, b, cfg);
        let mut pool = PacketPool::new();
        let mut queue = EventQueue::new();
        let res = resolver(vec![(a, Addr::new(10, 0, 0, 1)), (b, Addr::new(10, 0, 0, 2))]);
        for _ in 0..5 {
            link.enqueue(SimTime::ZERO, a, packet(Addr::new(10, 0, 0, 2), 100), &mut pool, &mut queue).unwrap();
        }
        let deliveries = drain(&mut link, &mut pool, &mut queue, &res);
        assert!(deliveries.is_empty());
        assert_eq!(link.stats().drops_lost, 5);
        // Lost frames were released back to the pool.
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn wifi_pays_contention_overhead() {
        // Identical traffic over CSMA vs Wi-Fi: Wi-Fi finishes later
        // because every frame pays DIFS + backoff.
        let nodes: Vec<NodeId> = (0..2).map(NodeId::from_raw).collect();
        let addrs = [Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2)];
        let cfg = LinkConfig {
            bandwidth_bps: 8_000_000,
            delay: SimDuration::from_micros(10),
            queue_packets: 64,
            loss_rate: 0.0,
        };
        let res = resolver(nodes.iter().copied().zip(addrs.iter().copied()).collect());
        let finish = |mut link: Link| {
            let mut pool = PacketPool::new();
            let mut queue = EventQueue::new();
            for _ in 0..20 {
                link.enqueue(SimTime::ZERO, nodes[0], packet(addrs[1], 100), &mut pool, &mut queue).unwrap();
            }
            let deliveries = drain(&mut link, &mut pool, &mut queue, &res);
            assert_eq!(deliveries.len(), 20);
            deliveries.last().unwrap().0
        };
        let csma_done = finish(Link::csma(LinkId::from_raw(0), &nodes, cfg));
        let wifi_done = finish(Link::wifi(LinkId::from_raw(1), &nodes, cfg));
        assert!(wifi_done > csma_done, "wifi {wifi_done} vs csma {csma_done}");
        // Overhead is bounded: at most DIFS + CW slots per frame.
        let max_overhead = (SimDuration::from_micros(34)
            + SimDuration::from_micros(9) * 16)
            * 20;
        assert!(wifi_done - csma_done <= max_overhead);
    }

    #[test]
    fn wifi_backoff_is_deterministic_per_link() {
        let nodes: Vec<NodeId> = (0..2).map(NodeId::from_raw).collect();
        let addrs = [Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2)];
        let res = resolver(nodes.iter().copied().zip(addrs.iter().copied()).collect());
        let run = || {
            let mut link = Link::wifi(LinkId::from_raw(3), &nodes, LinkConfig::wifi_54mbps());
            let mut pool = PacketPool::new();
            let mut queue = EventQueue::new();
            for _ in 0..10 {
                link.enqueue(SimTime::ZERO, nodes[0], packet(addrs[1], 200), &mut pool, &mut queue).unwrap();
            }
            drain(&mut link, &mut pool, &mut queue, &res)
                .into_iter()
                .map(|(t, _, _)| t)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_on_one_link_does_not_perturb_another() {
        // Two independent links share one event queue. Enabling heavy
        // loss on link A must leave link B's deliveries — times and
        // loss pattern — completely unchanged, because each link draws
        // from its own private RNG stream.
        let run = |loss_a: f64| -> Vec<(SimTime, u32)> {
            let a0 = NodeId::from_raw(0);
            let a1 = NodeId::from_raw(1);
            let b0 = NodeId::from_raw(2);
            let b1 = NodeId::from_raw(3);
            let cfg_a = LinkConfig { loss_rate: loss_a, ..LinkConfig::lan_100mbps() };
            let cfg_b = LinkConfig { loss_rate: 0.3, ..LinkConfig::lan_100mbps() };
            let mut link_a = Link::p2p(LinkId::from_raw(0), a0, a1, cfg_a);
            let mut link_b = Link::p2p(LinkId::from_raw(1), b0, b1, cfg_b);
            let mut pool = PacketPool::new();
            let mut queue = EventQueue::new();
            let res = resolver(vec![
                (a0, Addr::new(10, 0, 0, 1)),
                (a1, Addr::new(10, 0, 0, 2)),
                (b0, Addr::new(10, 0, 1, 1)),
                (b1, Addr::new(10, 0, 1, 2)),
            ]);
            for _ in 0..30 {
                link_a.enqueue(SimTime::ZERO, a0, packet(Addr::new(10, 0, 0, 2), 100), &mut pool, &mut queue).unwrap();
                link_b.enqueue(SimTime::ZERO, b0, packet(Addr::new(10, 0, 1, 2), 100), &mut pool, &mut queue).unwrap();
            }
            let mut deliveries = Vec::new();
            while let Some((t, ev)) = queue.pop() {
                match ev {
                    Event::LinkTxComplete { link, lane } => {
                        if link == LinkId::from_raw(0) {
                            link_a.on_tx_complete(t, lane, &res, &mut pool, &mut queue);
                        } else {
                            link_b.on_tx_complete(t, lane, &res, &mut pool, &mut queue);
                        }
                    }
                    Event::Deliver { node, packet, .. } => {
                        if node == b1 {
                            deliveries.push((t, node.as_raw()));
                        }
                        pool.release(packet);
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
            assert_eq!(pool.live(), 0);
            deliveries
        };
        assert_eq!(run(0.0), run(0.9));
    }

    #[test]
    fn loss_stream_position_is_per_frame_regardless_of_config() {
        // The loss draw consumes exactly one RNG value per transmitted
        // frame even while loss is zero, so toggling an override mid-run
        // reproduces the same per-frame loss pattern as an uninterrupted
        // lossy run at the same frame positions.
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let res = resolver(vec![(a, Addr::new(10, 0, 0, 1)), (b, Addr::new(10, 0, 0, 2))]);
        let send_batch = |link: &mut Link, pool: &mut PacketPool, queue: &mut EventQueue, n: usize| {
            for _ in 0..n {
                link.enqueue(SimTime::ZERO, a, packet(Addr::new(10, 0, 0, 2), 100), pool, queue).unwrap();
            }
        };

        // Reference: 40 frames, all at loss 0.5.
        let cfg = LinkConfig { loss_rate: 0.5, ..LinkConfig::lan_100mbps() };
        let mut reference = Link::p2p(LinkId::from_raw(7), a, b, cfg);
        let mut pool = PacketPool::new();
        let mut queue = EventQueue::new();
        send_batch(&mut reference, &mut pool, &mut queue, 40);
        drain(&mut reference, &mut pool, &mut queue, &res);
        let reference_lost = reference.stats().drops_lost;

        // Same link id (same private seed): 20 lossless frames, then an
        // override for the last 20. Lost count over frames 20..40 must
        // match the reference's draws at the same positions.
        let mut toggled =
            Link::p2p(LinkId::from_raw(7), a, b, LinkConfig::lan_100mbps());
        let mut queue = EventQueue::new();
        send_batch(&mut toggled, &mut pool, &mut queue, 20);
        drain(&mut toggled, &mut pool, &mut queue, &res);
        assert_eq!(toggled.stats().drops_lost, 0);
        toggled.set_loss_override(Some(0.5));
        send_batch(&mut toggled, &mut pool, &mut queue, 20);
        drain(&mut toggled, &mut pool, &mut queue, &res);

        // Count the reference's losses among its last 20 frames only.
        let cfg_first_half = LinkConfig { loss_rate: 0.5, ..LinkConfig::lan_100mbps() };
        let mut first_half = Link::p2p(LinkId::from_raw(7), a, b, cfg_first_half);
        let mut queue = EventQueue::new();
        send_batch(&mut first_half, &mut pool, &mut queue, 20);
        drain(&mut first_half, &mut pool, &mut queue, &res);
        let reference_last_20 = reference_lost - first_half.stats().drops_lost;
        assert_eq!(toggled.stats().drops_lost, reference_last_20);
    }

    #[test]
    fn down_link_rejects_and_destroys_frames() {
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let mut link = Link::p2p(LinkId::from_raw(0), a, b, LinkConfig::lan_100mbps());
        let mut pool = PacketPool::new();
        let mut queue = EventQueue::new();
        let res = resolver(vec![(a, Addr::new(10, 0, 0, 1)), (b, Addr::new(10, 0, 0, 2))]);

        // One frame goes in flight, then the link is cut: the in-flight
        // frame is destroyed at tx-complete time.
        link.enqueue(SimTime::ZERO, a, packet(Addr::new(10, 0, 0, 2), 100), &mut pool, &mut queue).unwrap();
        link.set_up(SimTime::ZERO, false, &mut queue);
        assert_eq!(
            link.enqueue(SimTime::ZERO, a, packet(Addr::new(10, 0, 0, 2), 100), &mut pool, &mut queue),
            Err(DropReason::LinkDown)
        );
        let deliveries = drain(&mut link, &mut pool, &mut queue, &res);
        assert!(deliveries.is_empty());
        assert_eq!(link.stats().drops_link_down, 2);
        assert_eq!(pool.live(), 0, "destroyed in-flight frame must be released");

        // Restoring the link lets traffic flow again.
        link.set_up(SimTime::from_secs(1), true, &mut queue);
        link.enqueue(SimTime::from_secs(1), a, packet(Addr::new(10, 0, 0, 2), 100), &mut pool, &mut queue).unwrap();
        let deliveries = drain(&mut link, &mut pool, &mut queue, &res);
        assert_eq!(deliveries.len(), 1);
    }

    #[test]
    fn throttle_and_jitter_stretch_delivery() {
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        let cfg = LinkConfig {
            bandwidth_bps: 8_000_000,
            delay: SimDuration::from_millis(1),
            queue_packets: 10,
            loss_rate: 0.0,
        };
        let res = resolver(vec![(a, Addr::new(10, 0, 0, 1)), (b, Addr::new(10, 0, 0, 2))]);
        let deliver_at = |scale: Option<f64>, extra: Option<SimDuration>| {
            let mut link = Link::p2p(LinkId::from_raw(0), a, b, cfg);
            if let Some(s) = scale {
                link.set_bandwidth_scale(s);
            }
            if let Some(d) = extra {
                link.set_extra_delay(d);
            }
            let mut pool = PacketPool::new();
            let mut queue = EventQueue::new();
            link.enqueue(SimTime::ZERO, a, packet(Addr::new(10, 0, 0, 2), 972), &mut pool, &mut queue).unwrap();
            drain(&mut link, &mut pool, &mut queue, &res)[0].0
        };
        let nominal = deliver_at(None, None);
        // Quartering the bandwidth quadruples the 1000 µs serialisation time.
        assert_eq!(
            deliver_at(Some(0.25), None) - nominal,
            SimDuration::from_micros(3000)
        );
        // Extra delay shifts arrival one-for-one.
        assert_eq!(
            deliver_at(None, Some(SimDuration::from_millis(5))) - nominal,
            SimDuration::from_millis(5)
        );
    }

    /// The running `queued` and `waiting` counts against the lanes' own
    /// sums, on every link kind, under random enqueues (to members,
    /// broadcast and nobody), tx completions, channel loss, tail drops
    /// at a tiny queue, link cuts and restores, and a member joining
    /// mid-run.
    #[test]
    fn queued_count_tracks_the_lane_sum() {
        let nodes: Vec<NodeId> = (0..4).map(NodeId::from_raw).collect();
        let addr = |n: NodeId| Addr::new(10, 0, 0, n.as_raw() as u8 + 1);
        let res = resolver(nodes.iter().map(|&n| (n, addr(n))).collect());
        let cfg = LinkConfig {
            queue_packets: 3,
            ..LinkConfig::lan_100mbps()
        };
        for seed in 0..6u64 {
            let mut rng = SimRng::seed_from(seed);
            let id = LinkId::from_raw(0);
            let mut link = match seed % 3 {
                0 => Link::p2p(id, nodes[0], nodes[1], cfg),
                1 => Link::csma(id, &nodes[..3], cfg),
                _ => Link::wifi(id, &nodes[..3], cfg),
            };
            let mut pool = PacketPool::new();
            let mut queue = EventQueue::new();
            let mut now = SimTime::ZERO;
            for op in 0..3000 {
                match rng.below(10) {
                    0..=4 => {
                        let members: Vec<NodeId> = link.members().collect();
                        let from = members[rng.below(members.len() as u64) as usize];
                        let dst = match rng.below(4) {
                            0 => Addr::BROADCAST,
                            1 => Addr::new(192, 168, 0, 1),
                            _ => addr(members[rng.below(members.len() as u64) as usize]),
                        };
                        let _ = link.enqueue(now, from, packet(dst, 64), &mut pool, &mut queue);
                    }
                    5..=7 => {
                        if let Some((t, ev)) = queue.pop() {
                            now = t;
                            match ev {
                                Event::LinkTxComplete { lane, .. } => {
                                    link.on_tx_complete(t, lane, &res, &mut pool, &mut queue)
                                }
                                Event::Deliver { packet, .. } => {
                                    pool.release(packet);
                                }
                                other => panic!("unexpected event {other:?}"),
                            }
                        }
                    }
                    8 => link.set_up(now, !link.is_up(), &mut queue),
                    _ => {
                        let rate = [None, Some(0.5), Some(1.0)][rng.below(3) as usize];
                        link.set_loss_override(rate);
                    }
                }
                if op == 1500 && !matches!(link.kind, LinkKind::P2p { .. }) {
                    link.add_member(nodes[3]);
                }
                assert_eq!(link.queued, link.lane_sum(), "seed {seed} op {op}");
                assert_eq!(link.waiting, link.lane_waiting(), "seed {seed} op {op}");
            }
            link.set_up(now, true, &mut queue);
            drain(&mut link, &mut pool, &mut queue, &res);
            assert_eq!(
                (link.queued_packets(), link.lane_sum(), link.waiting),
                (0, 0, 0),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "point-to-point")]
    fn p2p_rejects_extra_members() {
        let mut link = Link::p2p(
            LinkId::from_raw(0),
            NodeId::from_raw(0),
            NodeId::from_raw(1),
            LinkConfig::default(),
        );
        link.add_member(NodeId::from_raw(2));
    }
}
