//! The simulation world: event loop, application hosting, and the
//! kernel services applications use (sockets, timers, raw sends).
//!
//! A [`World`] owns the network (nodes, links), the event queue, and the
//! applications. Applications implement [`App`] and interact with the
//! world exclusively through the [`Ctx`] handed to their callbacks, which
//! keeps borrow-checking trivial: during a callback the application is
//! temporarily moved out of the registry while `Ctx` borrows the kernel.

use bytes::Bytes;
use obs::{pow2_bounds, Counter, Histogram, Scope};

use crate::buggify::{Buggify, BuggifyConfig, DecisionPoint};
use crate::event::{Event, EventQueue};
use crate::faults::{FaultAction, FaultPlan};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ids::{AppId, ConnId, LinkId, NodeId, TimerId};
use crate::link::{DropReason, EndpointInfo, Link, LinkConfig, LinkStats};
use crate::node::{Node, NodeStats};
use crate::packet::{Addr, Packet, Provenance, TcpFlags, TcpHeader, Transport};
use crate::pool::{PacketId, PacketPool};
use crate::rng::SimRng;
use crate::tap::{PacketTap, TapMeta};
use crate::tcp::{Listener, TcpConfig, TcpConn, TcpEffects, TcpEvent};
use crate::time::{SimDuration, SimTime};
use crate::udp::Datagram;

/// A hosted application (an "IoT binary" in testbed terms).
///
/// All callbacks receive a [`Ctx`] giving access to the node's sockets,
/// timers and randomness. Default implementations ignore events, so apps
/// implement only what they need.
#[allow(unused_variables)]
pub trait App {
    /// Called once when the application is started.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {}
    /// Called for every TCP socket event owned by this application.
    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {}
    /// Called for every UDP datagram on a port bound by this application.
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, datagram: Datagram) {}
    /// Called when a timer set with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {}
    /// Called when the hosting node changes administrative state (churn).
    fn on_link_state(&mut self, ctx: &mut Ctx<'_>, up: bool) {}
}

enum AppEvent {
    Start,
    Tcp(TcpEvent),
    Udp(Datagram),
    Timer(u64),
    LinkState(bool),
}

/// Stable names for the event-loop dispatch phases, indexed by
/// [`phase_index`]. These appear verbatim in exported telemetry.
const PHASE_NAMES: [&str; 7] =
    ["link_tx_complete", "deliver", "tcp_timer", "app_timer", "app_start", "set_node_up", "fault"];

fn phase_index(event: &Event) -> usize {
    match event {
        Event::LinkTxComplete { .. } => 0,
        Event::Deliver { .. } => 1,
        // Deferred connect failures account under the tcp_timer phase:
        // they are TCP bookkeeping events, and PHASE_NAMES is part of
        // the exported telemetry schema (golden fixtures pin it), so a
        // rare event does not get a name of its own.
        Event::TcpTimer { .. } | Event::TcpConnectFailed { .. } => 2,
        Event::AppTimer { .. } => 3,
        Event::AppStart { .. } => 4,
        Event::SetNodeUp { .. } => 5,
        Event::Fault { .. } => 6,
    }
}

/// `(min_pow, max_pow)` of the per-phase virtual-clock advance
/// histograms: 1 ns up to ~4.3 s.
const ADVANCE_POW2: (u32, u32) = (0, 32);
/// `(min_pow, max_pow)` of the per-link transmit queue-depth
/// histogram: 1 up to 1024 packets.
const DEPTH_POW2: (u32, u32) = (0, 10);

/// Event-loop instrumentation handles, created once by
/// [`World::set_obs`] so the hot path never does name lookups.
///
/// Everything recorded here is a pure function of simulation state:
/// event counts per dispatch phase, virtual-clock advance per phase,
/// and link transmit-queue depths sampled at link events.
///
/// The per-event path records into plain local accumulators (no
/// registry access); [`WorldObs::flush`] folds them into the shared
/// registry before a snapshot. The flushed result is byte-identical to
/// having updated the registry per event.
struct WorldObs {
    scope: Scope,
    phase_events: [Counter; 7],
    phase_advance_ns: [Histogram; 7],
    queue_depth: Histogram,
    local_events: [u64; 7],
    local_advance: [LocalHist; 7],
    local_depth: LocalHist,
}

/// A histogram accumulator private to the event loop: same bucketing as
/// the `pow2_bounds(min_pow, max_pow)` registry histogram it flushes
/// into, but plain memory — no `Rc<RefCell>` traffic per event — and
/// an O(1) bucket choice instead of a search over the bounds.
#[derive(Debug)]
struct LocalHist {
    min_pow: u32,
    max_pow: u32,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

/// The bucket `value` falls in under `pow2_bounds(min_pow, max_pow)`:
/// the number of bounds strictly below it (the registry's
/// `partition_point(|b| b < value)`), in closed form. A bound `2^p` is
/// below `value` exactly when `p < ceil(log2(value))`.
#[inline]
fn pow2_bucket(value: u64, min_pow: u32, max_pow: u32) -> usize {
    let ceil_log2 = u64::BITS - value.saturating_sub(1).leading_zeros();
    ceil_log2.saturating_sub(min_pow).min(max_pow - min_pow + 1) as usize
}

impl LocalHist {
    fn new((min_pow, max_pow): (u32, u32)) -> Self {
        let buckets = pow2_bounds(min_pow, max_pow).len() + 1;
        LocalHist {
            min_pow,
            max_pow,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    fn observe(&mut self, value: u64) {
        let idx = pow2_bucket(value, self.min_pow, self.max_pow);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    fn flush_into(&mut self, hist: &Histogram) {
        if self.count == 0 {
            return;
        }
        hist.add_batch(&self.counts, self.count, self.sum);
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
    }
}

impl WorldObs {
    fn new(scope: Scope) -> Self {
        let phases = scope.child("phase");
        let advance_bounds = pow2_bounds(ADVANCE_POW2.0, ADVANCE_POW2.1);
        let depth_bounds = pow2_bounds(DEPTH_POW2.0, DEPTH_POW2.1);
        let phase_scopes = PHASE_NAMES.map(|name| phases.child(name));
        let phase_events = std::array::from_fn(|i| phase_scopes[i].counter("events"));
        let phase_advance_ns =
            std::array::from_fn(|i| phase_scopes[i].histogram("advance_ns", &advance_bounds));
        let queue_depth = scope.child("link").histogram("queue_depth", &depth_bounds);
        WorldObs {
            scope,
            phase_events,
            phase_advance_ns,
            queue_depth,
            local_events: [0; 7],
            local_advance: std::array::from_fn(|_| LocalHist::new(ADVANCE_POW2)),
            local_depth: LocalHist::new(DEPTH_POW2),
        }
    }

    /// Folds the locally accumulated per-event records into the shared
    /// registry. Must run before the registry is snapshotted.
    fn flush(&mut self) {
        for (counter, n) in self.phase_events.iter().zip(&mut self.local_events) {
            if *n > 0 {
                counter.add(*n);
                *n = 0;
            }
        }
        for (hist, local) in self.phase_advance_ns.iter().zip(&mut self.local_advance) {
            local.flush_into(hist);
        }
        self.local_depth.flush_into(&self.queue_depth);
    }
}

/// Everything in the world except the applications themselves.
///
/// Exposed to applications through [`Ctx`] and to orchestrators through
/// accessor methods on [`World`].
pub struct Kernel {
    clock: SimTime,
    queue: EventQueue,
    root_seed: u64,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// In-flight packet bodies, shared by every link and the delivery
    /// path. The event queue and lane queues hold [`PacketId`] handles
    /// into this pool.
    pool: PacketPool,
    taps: Vec<Box<dyn PacketTap>>,
    rng: SimRng,
    tcp_config: TcpConfig,
    next_conn_id: u64,
    next_timer_id: u64,
    cancelled_timers: FxHashSet<TimerId>,
    app_nodes: Vec<NodeId>,
    app_provenance: Vec<Provenance>,
    events_processed: u64,
    obs: Option<WorldObs>,
    /// Reusable buffer for notifications produced inside [`Ctx`]
    /// callbacks (socket calls re-entering the kernel), so the hot path
    /// never allocates a fresh `Vec` per call.
    ctx_scratch: Vec<(AppId, AppEvent)>,
    /// Reusable [`TcpEffects`] sink shared by every TCP entry point
    /// (segment input, RTO expiry, socket calls). Drained by
    /// [`Kernel::finish_conn_activity`] before being handed back, so
    /// connection activity reuses two warm `Vec`s instead of allocating
    /// per event.
    effects_scratch: TcpEffects,
    /// Deterministic decision-point perturbation layer. Disabled by
    /// default: the hot path pays one branch per decision point and
    /// consumes no randomness (see [`crate::buggify`]).
    buggify: Buggify,
    /// Every node address in this world, for O(1) duplicate detection
    /// and — when this world is one cell of a sharded run — the "is
    /// this destination local?" test on the send path.
    local_addrs: FxHashMap<Addr, NodeId>,
    /// When `true`, packets addressed outside this world are captured
    /// into `egress` (stamped with the send time) instead of being
    /// routed onto the default link. Off by default: a standalone world
    /// keeps its exact pre-shard semantics.
    egress_enabled: bool,
    /// Captured boundary packets, drained by the shard coordinator
    /// after each synchronization window (see [`crate::shard`]).
    egress: Vec<(SimTime, Packet)>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("clock", &self.clock)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("apps", &self.app_nodes.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

impl Kernel {
    fn new(seed: u64) -> Self {
        Kernel {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            root_seed: seed,
            nodes: Vec::new(),
            links: Vec::new(),
            pool: PacketPool::new(),
            taps: Vec::new(),
            rng: SimRng::seed_from(seed),
            tcp_config: TcpConfig::default(),
            next_conn_id: 0,
            next_timer_id: 0,
            cancelled_timers: FxHashSet::default(),
            app_nodes: Vec::new(),
            app_provenance: Vec::new(),
            events_processed: 0,
            obs: None,
            ctx_scratch: Vec::new(),
            effects_scratch: TcpEffects::new(),
            buggify: Buggify::disabled(),
            local_addrs: FxHashMap::default(),
            egress_enabled: false,
            egress: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The kernel-wide RNG (components should usually `fork` their own).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// The TCP configuration shared by all hosts.
    pub fn tcp_config(&self) -> &TcpConfig {
        &self.tcp_config
    }

    fn alloc_conn_id(&mut self) -> ConnId {
        let id = ConnId::from_raw(self.next_conn_id);
        self.next_conn_id += 1;
        id
    }

    /// Sends a fully formed packet from `node` onto the routed link.
    ///
    /// Used directly by flood generators (spoofed raw packets) and by the
    /// transport layers. Returns the reason if the packet was dropped at
    /// the source.
    pub fn send_packet(&mut self, node_id: NodeId, packet: Packet) -> Result<(), DropReason> {
        let node = &mut self.nodes[node_id.index()];
        if !node.up {
            node.stats.dropped_down += 1;
            return Err(DropReason::NodeDown);
        }
        if self.egress_enabled && !self.local_addrs.contains_key(&packet.dst) {
            // Boundary send: the destination lives in another shard
            // cell. The packet leaves this world here and re-enters the
            // destination cell via the coordinator's mailbox, which adds
            // the boundary latency.
            node.stats.sent_packets += 1;
            node.stats.sent_bytes += packet.wire_len() as u64;
            self.egress.push((self.clock, packet));
            return Ok(());
        }
        let Some(link_id) = node.route(packet.dst) else {
            node.stats.dropped_no_route += 1;
            return Err(DropReason::Unroutable);
        };
        node.stats.sent_packets += 1;
        node.stats.sent_bytes += packet.wire_len() as u64;
        let clock = self.clock;
        self.links[link_id.index()].enqueue(clock, node_id, packet, &mut self.pool, &mut self.queue)
    }

    fn handle_tx_complete(&mut self, link: LinkId, lane: usize) {
        // Split borrows: the link needs an endpoint resolver over nodes
        // while it mutates the pool and the queue.
        let Kernel { nodes, links, pool, queue, clock, .. } = self;
        let resolver = |node: NodeId| EndpointInfo {
            addr: nodes[node.index()].addr,
            up: nodes[node.index()].up,
        };
        links[link.index()].on_tx_complete(*clock, lane, &resolver, pool, queue);
    }

    fn apply_fault(&mut self, action: FaultAction, out: &mut Vec<(AppId, AppEvent)>) {
        let clock = self.clock;
        match action {
            FaultAction::SetLinkUp { link, up } => {
                self.links[link.index()].set_up(clock, up, &mut self.queue);
            }
            FaultAction::SetLossOverride { link, rate } => {
                self.links[link.index()].set_loss_override(rate);
            }
            FaultAction::SetBandwidthScale { link, scale } => {
                self.links[link.index()].set_bandwidth_scale(scale);
            }
            FaultAction::SetExtraDelay { link, delay } => {
                self.links[link.index()].set_extra_delay(delay);
            }
            FaultAction::SetCpuPressure { node, factor } => {
                self.nodes[node.index()].cpu_pressure = factor.max(0.0);
            }
            FaultAction::NodeCrash { node } => self.set_node_up(node, false, out),
            FaultAction::NodeReboot { node, boot_delay } => {
                // The restore is an ordinary node-up event so app
                // notifications flow through the same path as churn.
                self.queue.schedule(clock + boot_delay, Event::SetNodeUp { node, up: true });
                self.set_node_up(node, false, out);
            }
        }
    }

    /// Evaluates buggify decision points against a just-popped event.
    /// Returns `true` when the event was *deferred* (rescheduled into
    /// the near future) and must not be dispatched now; side-effect
    /// perturbations (duplicates, lifecycle blips) schedule extra
    /// events and return `false` so the original still dispatches.
    ///
    /// Only called when buggify is enabled, so the disabled hot path
    /// pays exactly one branch in [`World::dispatch`]. Deferred events are
    /// re-evaluated on their next pop; fire probabilities are well
    /// below 1, so repeated deferral terminates almost surely.
    fn buggify_perturb(&mut self, time: SimTime, event: &Event) -> bool {
        match *event {
            Event::Deliver { node, packet, .. } => {
                let (pure_ack, is_syn, has_payload) = {
                    let p = self.pool.get(packet);
                    match p.transport {
                        Transport::Tcp(ref h) => (
                            h.flags == TcpFlags::ACK && p.payload.is_empty(),
                            h.flags.contains(TcpFlags::SYN),
                            !p.payload.is_empty(),
                        ),
                        Transport::Udp(_) => (false, false, !p.payload.is_empty()),
                    }
                };
                if pure_ack && self.buggify.fire(DecisionPoint::TcpAckStretch) {
                    // Delayed-ACK stretch: 1–40 ms.
                    let ns = self.buggify.magnitude(DecisionPoint::TcpAckStretch, 1e6, 4e7);
                    self.queue.schedule(time + SimDuration::from_nanos(ns as u64), event.clone());
                    return true;
                }
                if self.buggify.fire(DecisionPoint::LinkExtraDelay) {
                    // Link-scale extra latency: 0.1–20 ms.
                    let ns = self.buggify.magnitude(DecisionPoint::LinkExtraDelay, 1e5, 2e7);
                    self.queue.schedule(time + SimDuration::from_nanos(ns as u64), event.clone());
                    return true;
                }
                if self.buggify.fire(DecisionPoint::LinkReorder) {
                    // Small nudge: 1–200 µs, enough to swap with close
                    // neighbours but bounded well under an RTT.
                    let ns = self.buggify.magnitude(DecisionPoint::LinkReorder, 1e3, 2e5);
                    self.queue.schedule(time + SimDuration::from_nanos(ns as u64), event.clone());
                    return true;
                }
                if self.buggify.fire(DecisionPoint::LinkDuplicate) {
                    // Deliver the frame twice: the copy holds its own
                    // pool reference and arrives 1–50 µs later.
                    self.pool.retain(packet);
                    let ns = self.buggify.magnitude(DecisionPoint::LinkDuplicate, 1e3, 5e4);
                    self.queue.schedule(time + SimDuration::from_nanos(ns as u64), event.clone());
                }
                if is_syn && self.buggify.fire(DecisionPoint::CtrRebootHandshake) {
                    // Reboot the receiver right after the SYN lands:
                    // down for 20–200 ms, then back up.
                    let ns = self.buggify.magnitude(DecisionPoint::CtrRebootHandshake, 2e7, 2e8);
                    self.queue.schedule(time, Event::SetNodeUp { node, up: false });
                    self.queue
                        .schedule(time + SimDuration::from_nanos(ns as u64), Event::SetNodeUp { node, up: true });
                } else if has_payload && self.buggify.fire(DecisionPoint::CtrCrashTransfer) {
                    // Crash mid-transfer: a watchdog-style blip of
                    // 50–500 ms before the container returns.
                    let ns = self.buggify.magnitude(DecisionPoint::CtrCrashTransfer, 5e7, 5e8);
                    self.queue.schedule(time, Event::SetNodeUp { node, up: false });
                    self.queue
                        .schedule(time + SimDuration::from_nanos(ns as u64), Event::SetNodeUp { node, up: true });
                }
                false
            }
            Event::AppTimer { .. } => {
                if self.buggify.fire(DecisionPoint::SchedTiebreak) {
                    // Nudge by up to one scheduler tick: same-instant
                    // ties break the other way.
                    let ns = self.buggify.magnitude(DecisionPoint::SchedTiebreak, 1.0, 1024.0);
                    self.queue.schedule(time + SimDuration::from_nanos(ns as u64), event.clone());
                    return true;
                }
                false
            }
            _ => false,
        }
    }

    fn deliver(
        &mut self,
        link: LinkId,
        node_id: NodeId,
        packet_id: PacketId,
        out: &mut Vec<(AppId, AppEvent)>,
    ) {
        {
            let meta = TapMeta { time: self.clock, link, receiver: node_id };
            let packet = self.pool.get(packet_id);
            for tap in &mut self.taps {
                tap.on_packet(&meta, packet);
            }
        }
        let wire_len = self.pool.get(packet_id).wire_len() as u64;
        let node = &mut self.nodes[node_id.index()];
        if !node.up {
            node.stats.dropped_down += 1;
            self.pool.release(packet_id);
            return;
        }
        node.stats.recv_packets += 1;
        node.stats.recv_bytes += wire_len;
        // This receiver is done with the pool slot. If it was the last
        // one, `release` hands back the owned body and the payload moves
        // without touching the refcount; a broadcast sibling still
        // holding the slot costs one payload `Bytes` clone (refcount
        // bump, not a copy).
        let (src, transport, provenance, payload) = match self.pool.release(packet_id) {
            Some(packet) => (packet.src, packet.transport, packet.provenance, packet.payload),
            None => {
                let packet = self.pool.get(packet_id);
                (packet.src, packet.transport, packet.provenance, packet.payload.clone())
            }
        };
        match transport {
            Transport::Tcp(header) => self.tcp_input(node_id, header, src, provenance, payload, out),
            Transport::Udp(header) => {
                let node = &mut self.nodes[node_id.index()];
                match node.udp.lookup(header.dst_port) {
                    Some(app) => out.push((
                        app,
                        AppEvent::Udp(Datagram {
                            src,
                            src_port: header.src_port,
                            dst_port: header.dst_port,
                            payload,
                        }),
                    )),
                    None => {
                        node.udp.unreachable += 1;
                    }
                }
            }
        }
    }

    fn tcp_input(
        &mut self,
        node_id: NodeId,
        header: TcpHeader,
        src: Addr,
        provenance: Provenance,
        payload: Bytes,
        out: &mut Vec<(AppId, AppEvent)>,
    ) {
        let key = (header.dst_port, src, header.src_port);
        let mut effects = std::mem::take(&mut self.effects_scratch);
        let node = &mut self.nodes[node_id.index()];

        if let Some(&conn_id) = node.tcp.by_key.get(&key) {
            let cfg = self.tcp_config;
            let conn = node.tcp.conns.get_mut(&conn_id).expect("demux table is consistent");
            conn.on_segment(self.clock, &header, payload, &cfg, &mut effects);
            self.finish_conn_activity(node_id, conn_id, &mut effects, out);
            self.effects_scratch = effects;
            return;
        }

        // No connection: a SYN may create one via a listener.
        let is_bare_syn = header.flags.contains(TcpFlags::SYN) && !header.flags.contains(TcpFlags::ACK);
        if is_bare_syn {
            if let Some(listener) = node.tcp.listeners.get_mut(&header.dst_port) {
                if !listener.has_capacity() {
                    // SYN backlog exhausted: the flood is winning. Drop.
                    listener.syn_drops += 1;
                    self.effects_scratch = effects;
                    return;
                }
                let app = listener.app;
                let local = (node.addr, header.dst_port);
                let remote = (src, header.src_port);
                let conn_id = self.alloc_conn_id();
                let iss = self.rng.next_u64() as u32;
                let cfg = self.tcp_config;
                let conn = TcpConn::open_passive(
                    conn_id,
                    app,
                    local,
                    remote,
                    provenance,
                    iss,
                    header.seq,
                    &cfg,
                    &mut effects,
                );
                let node = &mut self.nodes[node_id.index()];
                node.tcp.conns.insert(conn_id, conn);
                node.tcp.by_key.insert(key, conn_id);
                node.tcp
                    .listeners
                    .get_mut(&header.dst_port)
                    .expect("listener just seen")
                    .half_open
                    .push(conn_id);
                self.finish_conn_activity(node_id, conn_id, &mut effects, out);
                self.effects_scratch = effects;
                return;
            }
        }
        self.effects_scratch = effects;

        // Stray segment: answer with RST (but never RST a RST).
        if !header.flags.contains(TcpFlags::RST) {
            let node = &mut self.nodes[node_id.index()];
            node.tcp.rst_sent += 1;
            let rst_header = TcpHeader {
                src_port: header.dst_port,
                dst_port: header.src_port,
                seq: header.ack,
                ack: header.seq.wrapping_add(1),
                flags: TcpFlags::RST | TcpFlags::ACK,
                window: 0,
            };
            let node_addr = node.addr;
            let rst = Packet::tcp(node_addr, src, rst_header, Bytes::new())
                .with_provenance(provenance);
            let _ = self.send_packet(node_id, rst);
        }
    }

    /// Sends a connection's queued segments, re-arms its timer, promotes
    /// or reaps it, and converts TCP events into app notifications
    /// (pushed onto `out`).
    fn finish_conn_activity(
        &mut self,
        node_id: NodeId,
        conn_id: ConnId,
        effects: &mut TcpEffects,
        out: &mut Vec<(AppId, AppEvent)>,
    ) {
        for segment in effects.segments.drain(..) {
            let _ = self.send_packet(node_id, segment);
        }
        for (app, event) in effects.events.drain(..) {
            if let TcpEvent::Accepted { conn, local_port, .. } = event {
                self.nodes[node_id.index()].tcp.promote_half_open(local_port, conn);
            }
            out.push((app, AppEvent::Tcp(event)));
        }
        let node = &mut self.nodes[node_id.index()];
        if let Some(conn) = node.tcp.conns.get_mut(&conn_id) {
            if conn.is_closed() {
                node.tcp.remove_conn(conn_id);
            } else if conn.needs_timer() {
                let generation = conn.next_timer_generation();
                let mut rto = conn.rto();
                if self.buggify.enabled() {
                    // Perturb only the scheduled deadline, never the
                    // connection's own RTO estimate: early fires look
                    // like spurious timeouts, late fires like a stalled
                    // timer wheel.
                    if self.buggify.fire(DecisionPoint::TcpRtoEarly) {
                        rto = rto.mul_f64(self.buggify.magnitude(DecisionPoint::TcpRtoEarly, 0.25, 0.95));
                    } else if self.buggify.fire(DecisionPoint::TcpRtoLate) {
                        rto = rto.mul_f64(self.buggify.magnitude(DecisionPoint::TcpRtoLate, 1.05, 3.0));
                    }
                }
                let when = self.clock + rto;
                self.queue.schedule(when, Event::TcpTimer { node: node_id, conn: conn_id, generation });
            } else {
                // Invalidate any outstanding timer.
                conn.next_timer_generation();
            }
        }
    }

    fn handle_tcp_timer(
        &mut self,
        node_id: NodeId,
        conn_id: ConnId,
        generation: u64,
        out: &mut Vec<(AppId, AppEvent)>,
    ) {
        let cfg = self.tcp_config;
        let mut effects = std::mem::take(&mut self.effects_scratch);
        let node = &mut self.nodes[node_id.index()];
        if let Some(conn) = node.tcp.conns.get_mut(&conn_id) {
            if conn.timer_generation() == generation {
                conn.on_rto(self.clock, &cfg, &mut effects);
                self.finish_conn_activity(node_id, conn_id, &mut effects, out);
            }
        }
        self.effects_scratch = effects;
    }

    fn set_node_up(&mut self, node_id: NodeId, up: bool, out: &mut Vec<(AppId, AppEvent)>) {
        let clock = self.clock;
        let node = &mut self.nodes[node_id.index()];
        if node.up == up {
            return;
        }
        node.up = up;
        if up {
            if let Some(since) = node.down_since.take() {
                node.downtime_total += clock - since;
            }
        } else {
            node.down_since = Some(clock);
        }
        if !up {
            // Power loss: connections vanish without emitting segments.
            let mut conn_ids: Vec<ConnId> = node.tcp.conns.keys().copied().collect();
            conn_ids.sort_unstable();
            for conn_id in conn_ids {
                let conn = node.tcp.conns.get(&conn_id).expect("key just collected");
                out.push((conn.app, AppEvent::Tcp(TcpEvent::Closed { conn: conn_id })));
                node.tcp.remove_conn(conn_id);
            }
        }
        // Tell every app hosted on this node about the state change.
        let mut apps: Vec<AppId> = self
            .app_nodes
            .iter()
            .enumerate()
            .filter(|(_, &n)| n == node_id)
            .map(|(i, _)| AppId::from_raw(i as u32))
            .collect();
        apps.sort_unstable();
        for app in apps {
            out.push((app, AppEvent::LinkState(up)));
        }
    }
}

/// The simulation world: network, applications and the event loop.
///
/// ```
/// use netsim::world::World;
/// use netsim::packet::Addr;
/// use netsim::link::LinkConfig;
/// use netsim::time::SimDuration;
///
/// let mut world = World::new(42);
/// let a = world.add_node(Addr::new(10, 0, 0, 1), "a");
/// let b = world.add_node(Addr::new(10, 0, 0, 2), "b");
/// world.add_csma_link(&[a, b], LinkConfig::lan_100mbps());
/// world.run_for(SimDuration::from_secs(1));
/// assert_eq!(world.now().whole_secs(), 1);
/// ```
pub struct World {
    kernel: Kernel,
    apps: Vec<Option<Box<dyn App>>>,
    /// Reusable notification buffer for the event loop: filled by the
    /// kernel during [`World::step`], drained by dispatch, kept around
    /// so steady-state stepping never allocates.
    notify_scratch: Vec<(AppId, AppEvent)>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World").field("kernel", &self.kernel).field("apps", &self.apps.len()).finish()
    }
}

impl World {
    /// Creates an empty world with the given deterministic root seed.
    pub fn new(seed: u64) -> Self {
        World { kernel: Kernel::new(seed), apps: Vec::new(), notify_scratch: Vec::new() }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.clock
    }

    /// Adds a node with the given address.
    ///
    /// # Panics
    ///
    /// Panics if the address is already in use.
    pub fn add_node(&mut self, addr: Addr, name: impl Into<String>) -> NodeId {
        let id = NodeId::from_raw(self.kernel.nodes.len() as u32);
        let previous = self.kernel.local_addrs.insert(addr, id);
        assert!(previous.is_none(), "duplicate node address {addr}");
        self.kernel.nodes.push(Node::new(id, addr, name));
        id
    }

    /// Mixes the world's root seed into a link's private loss RNG so
    /// loss patterns vary with the run seed while staying independent
    /// of every other random stream.
    fn seed_link(&mut self, id: LinkId) {
        let mix = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(id.as_raw() as u64 + 1);
        let seed = self.kernel.root_seed ^ mix;
        self.kernel.links[id.index()].seed_loss_rng(seed);
    }

    /// Creates a CSMA bus over the given nodes and attaches them.
    pub fn add_csma_link(&mut self, members: &[NodeId], config: LinkConfig) -> LinkId {
        let id = LinkId::from_raw(self.kernel.links.len() as u32);
        self.kernel.links.push(Link::csma(id, members, config));
        self.seed_link(id);
        for &m in members {
            self.kernel.nodes[m.index()].attach(id);
        }
        id
    }

    /// Creates an 802.11-style Wi-Fi medium over the given nodes and
    /// attaches them.
    pub fn add_wifi_link(&mut self, members: &[NodeId], config: LinkConfig) -> LinkId {
        let id = LinkId::from_raw(self.kernel.links.len() as u32);
        self.kernel.links.push(Link::wifi(id, members, config));
        self.seed_link(id);
        for &m in members {
            self.kernel.nodes[m.index()].attach(id);
        }
        id
    }

    /// Creates a point-to-point link between `a` and `b` and attaches them.
    pub fn add_p2p_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> LinkId {
        let id = LinkId::from_raw(self.kernel.links.len() as u32);
        self.kernel.links.push(Link::p2p(id, a, b, config));
        self.seed_link(id);
        self.kernel.nodes[a.index()].attach(id);
        self.kernel.nodes[b.index()].attach(id);
        id
    }

    /// Attaches an extra member to an existing CSMA bus.
    pub fn join_csma_link(&mut self, link: LinkId, node: NodeId) {
        self.kernel.links[link.index()].add_member(node);
        self.kernel.nodes[node.index()].attach(link);
    }

    /// Registers an application on a node. All traffic it originates is
    /// stamped with `provenance`. The app does not run until
    /// [`World::start_app`] schedules it.
    pub fn add_app(
        &mut self,
        node: NodeId,
        app: Box<dyn App>,
        provenance: Provenance,
    ) -> AppId {
        let id = AppId::from_raw(self.apps.len() as u32);
        self.apps.push(Some(app));
        self.kernel.app_nodes.push(node);
        self.kernel.app_provenance.push(provenance);
        id
    }

    /// Schedules an application's `on_start` at the given time.
    pub fn start_app(&mut self, app: AppId, at: SimTime) {
        self.kernel.queue.schedule(at, Event::AppStart { app });
    }

    /// Registers a packet tap observing every delivered packet.
    pub fn add_tap(&mut self, tap: Box<dyn PacketTap>) {
        self.kernel.taps.push(tap);
    }

    /// Schedules an administrative state change (churn) for a node.
    pub fn schedule_node_up(&mut self, node: NodeId, up: bool, at: SimTime) {
        self.kernel.queue.schedule(at, Event::SetNodeUp { node, up });
    }

    /// Schedules every entry of a [`FaultPlan`] relative to the current
    /// virtual time. Fault transitions become ordinary queue events, so
    /// they interleave deterministically with traffic.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let now = self.kernel.clock;
        for entry in plan.entries() {
            self.kernel.queue.schedule(now + entry.at, Event::Fault { action: entry.action });
        }
    }

    /// Schedules a single fault action at an absolute time.
    pub fn schedule_fault(&mut self, at: SimTime, action: FaultAction) {
        self.kernel.queue.schedule(at, Event::Fault { action });
    }

    /// Immediately changes a node's administrative state.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        let mut notifications = std::mem::take(&mut self.notify_scratch);
        notifications.clear();
        self.kernel.set_node_up(node, up, &mut notifications);
        self.dispatch_notifications(&mut notifications);
        self.notify_scratch = notifications;
    }

    /// Traffic counters of a node.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        self.kernel.nodes[node.index()].stats
    }

    /// A node's address.
    pub fn node_addr(&self, node: NodeId) -> Addr {
        self.kernel.nodes[node.index()].addr
    }

    /// Whether a node is administratively up.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.kernel.nodes[node.index()].up
    }

    /// Total time a node has spent administratively down so far,
    /// including any still-open down interval (crashes, reboots and
    /// churn all accrue here).
    pub fn node_downtime(&self, node: NodeId) -> SimDuration {
        self.kernel.nodes[node.index()].downtime(self.kernel.clock)
    }

    /// Traffic counters of a link.
    pub fn link_stats(&self, link: LinkId) -> LinkStats {
        self.kernel.links[link.index()].stats()
    }

    /// Whether a link is administratively up (fault plans flap this).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.kernel.links[link.index()].is_up()
    }

    /// A node's current CPU-pressure factor (1.0 = unloaded).
    pub fn cpu_pressure(&self, node: NodeId) -> f64 {
        self.kernel.nodes[node.index()].cpu_pressure
    }

    /// Packets currently queued or in flight on a link's lanes.
    pub fn link_queued_packets(&self, link: LinkId) -> usize {
        self.kernel.links[link.index()].queued_packets()
    }

    /// Number of live TCP connections on a node.
    pub fn tcp_conn_count(&self, node: NodeId) -> usize {
        self.kernel.nodes[node.index()].tcp.conns.len()
    }

    /// Number of half-open connections in a port's listener backlog,
    /// plus the count of SYNs it had to drop.
    pub fn listener_pressure(&self, node: NodeId, port: u16) -> Option<(usize, u64)> {
        self.kernel.nodes[node.index()]
            .tcp
            .listeners
            .get(&port)
            .map(|l| (l.half_open.len(), l.syn_drops))
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.kernel.events_processed
    }

    /// Attaches observability: per-phase event counters and clock-advance
    /// histograms, plus link queue-depth sampling, recorded under `scope`.
    /// Call [`World::publish_link_obs`] at export time to also mirror the
    /// per-link traffic counters into gauges.
    pub fn set_obs(&mut self, scope: Scope) {
        self.kernel.obs = Some(WorldObs::new(scope));
    }

    /// Mirrors every link's [`LinkStats`] (tx/delivered/drop counters),
    /// up/down state and residual queue depth into gauges under
    /// `<scope>.link.<id>.*`. Idempotent; call once before snapshotting
    /// the registry.
    pub fn publish_link_obs(&mut self) {
        let Some(obs) = &mut self.kernel.obs else { return };
        obs.flush();
        let obs = &*obs;
        let links_scope = obs.scope.child("link");
        for link in &self.kernel.links {
            let scope = links_scope.child(&link.id().as_raw().to_string());
            let stats = link.stats();
            scope.gauge("tx_packets").set(stats.tx_packets as i64);
            scope.gauge("tx_bytes").set(stats.tx_bytes as i64);
            scope.gauge("delivered_packets").set(stats.delivered_packets as i64);
            scope.gauge("delivered_bytes").set(stats.delivered_bytes as i64);
            scope.gauge("drops_queue_full").set(stats.drops_queue_full as i64);
            scope.gauge("drops_lost").set(stats.drops_lost as i64);
            scope.gauge("drops_unroutable").set(stats.drops_unroutable as i64);
            scope.gauge("drops_link_down").set(stats.drops_link_down as i64);
            scope.gauge("up").set(link.is_up() as i64);
            scope.gauge("queued_packets").set(link.queued_packets() as i64);
        }
        // Packet-pool health: all pure functions of simulation state.
        let pool_scope = obs.scope.child("pool");
        let pool = &self.kernel.pool;
        pool_scope.gauge("live").set(pool.live() as i64);
        pool_scope.gauge("high_water").set(pool.high_water() as i64);
        pool_scope.gauge("capacity").set(pool.capacity() as i64);
        pool_scope.gauge("inserted_total").set(pool.inserted_total() as i64);
        pool_scope.gauge("reused_total").set(pool.reused_total() as i64);
        // Buggify counters of every layer (the kernel and its forks),
        // only when the layer is active: the gauges must not appear in
        // baseline telemetry, which is pinned byte-for-byte by the
        // golden fixtures.
        if self.kernel.buggify.enabled() {
            let bscope = obs.scope.child("buggify");
            for (name, evals, fires) in self.kernel.buggify.counts() {
                let pscope = bscope.child(name);
                pscope.gauge("evals").set(evals as i64);
                pscope.gauge("fires").set(fires as i64);
            }
        }
    }

    /// The kernel's packet pool (slot-reuse and high-water diagnostics).
    pub fn packet_pool(&self) -> &PacketPool {
        &self.kernel.pool
    }

    /// Installs (or clears, when `cfg.enabled` is false) the buggify
    /// perturbation layer. Call before the workload starts so every
    /// decision-point stream observes the run from the beginning.
    pub fn set_buggify(&mut self, cfg: BuggifyConfig) {
        self.kernel.buggify = Buggify::new(cfg);
    }

    /// A [`Buggify::fork`] of the world's layer, for decision points
    /// evaluated outside the kernel (the sniffer, the serving layer).
    /// Its evaluations and fires count into this world's table. Take
    /// forks after [`World::set_buggify`].
    pub fn buggify_fork(&self) -> Buggify {
        self.kernel.buggify.fork()
    }

    /// Per-decision-point `(name, evaluations, fires)` counters, forks
    /// included. Empty when buggify is disabled.
    pub fn buggify_counts(&self) -> Vec<(&'static str, u64, u64)> {
        self.kernel.buggify.counts()
    }

    /// Mutable access to the kernel RNG, for orchestration code.
    ///
    /// The kernel stream is shared: TCP initial sequence numbers are
    /// drawn from it interleaved with whatever callers take. Draws whose
    /// position must not shift when unrelated setup code is reordered
    /// (fault plans, churn schedules, shard partitioning) belong on a
    /// named sub-stream instead — see [`SimRng::named`].
    pub fn rng_mut(&mut self) -> &mut SimRng {
        self.kernel.rng_mut()
    }

    /// Processes a single event, if one is pending. Returns `false` when
    /// the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((time, event)) = self.kernel.queue.pop() else {
            return false;
        };
        self.dispatch(time, event);
        true
    }

    /// The one event-loop body: every popped event goes through here,
    /// whichever of [`World::step`], [`World::run_until`] or
    /// [`World::run_before`] popped it.
    fn dispatch(&mut self, time: SimTime, event: Event) {
        debug_assert!(time >= self.kernel.clock, "time went backwards");
        // Buggify runs before any accounting: a deferred event is not
        // "processed" (it will be popped again later), so the per-phase
        // counters still partition `events_processed` exactly.
        if self.kernel.buggify.enabled() && self.kernel.buggify_perturb(time, &event) {
            return;
        }
        let advance_ns = time.as_nanos().saturating_sub(self.kernel.clock.as_nanos());
        let phase = phase_index(&event);
        let touched_link = match &event {
            // Boundary deliveries carry the sentinel link, which indexes
            // no real link and has no queue to sample.
            Event::LinkTxComplete { link, .. } | Event::Deliver { link, .. }
                if *link != BOUNDARY_LINK =>
            {
                Some(*link)
            }
            _ => None,
        };
        if let Some(obs) = &mut self.kernel.obs {
            obs.local_events[phase] += 1;
            obs.local_advance[phase].observe(advance_ns);
        }
        self.kernel.clock = time;
        self.kernel.events_processed += 1;
        let mut notifications = std::mem::take(&mut self.notify_scratch);
        notifications.clear();
        match event {
            Event::LinkTxComplete { link, lane } => {
                self.kernel.handle_tx_complete(link, lane);
            }
            Event::Deliver { link, node, packet } => {
                self.kernel.deliver(link, node, packet, &mut notifications)
            }
            Event::TcpTimer { node, conn, generation } => {
                self.kernel.handle_tcp_timer(node, conn, generation, &mut notifications)
            }
            Event::AppTimer { app, token, timer } => {
                if !self.kernel.cancelled_timers.remove(&timer) {
                    notifications.push((app, AppEvent::Timer(token)));
                }
            }
            Event::AppStart { app } => notifications.push((app, AppEvent::Start)),
            Event::SetNodeUp { node, up } => {
                self.kernel.set_node_up(node, up, &mut notifications)
            }
            Event::Fault { action } => self.kernel.apply_fault(action, &mut notifications),
            Event::TcpConnectFailed { app, conn } => {
                notifications.push((app, AppEvent::Tcp(TcpEvent::ConnectFailed { conn })));
            }
        };
        if let (Some(obs), Some(link)) = (&mut self.kernel.obs, touched_link) {
            let depth = self.kernel.links[link.index()].queued_packets() as u64;
            obs.local_depth.observe(depth);
        }
        self.dispatch_notifications(&mut notifications);
        self.notify_scratch = notifications;
    }

    fn dispatch_notifications(&mut self, notifications: &mut Vec<(AppId, AppEvent)>) {
        for (app_id, event) in notifications.drain(..) {
            let Some(slot) = self.apps.get_mut(app_id.index()) else { continue };
            let Some(mut app) = slot.take() else { continue };
            let node = self.kernel.app_nodes[app_id.index()];
            let mut ctx = Ctx { kernel: &mut self.kernel, app: app_id, node };
            match event {
                AppEvent::Start => app.on_start(&mut ctx),
                AppEvent::Tcp(e) => app.on_tcp(&mut ctx, e),
                AppEvent::Udp(d) => app.on_udp(&mut ctx, d),
                AppEvent::Timer(token) => app.on_timer(&mut ctx, token),
                AppEvent::LinkState(up) => app.on_link_state(&mut ctx, up),
            }
            self.apps[app_id.index()] = Some(app);
        }
    }

    /// Runs until the virtual clock reaches `until` (events at exactly
    /// `until` are processed). The clock is left at `until`.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_while_due(|t| t <= until, until);
    }

    /// Dispatches events while `due` accepts the earliest one's time,
    /// popping each with a single queue call, then advances the clock
    /// to `end`.
    fn run_while_due(&mut self, due: impl Fn(SimTime) -> bool, end: SimTime) {
        while let Some((time, event)) = self.kernel.queue.pop_if(&due) {
            self.dispatch(time, event);
        }
        if self.kernel.clock < end {
            self.kernel.clock = end;
        }
    }

    /// Runs for a span of virtual time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let until = self.kernel.clock + duration;
        self.run_until(until);
    }

    /// Runs every event strictly *before* `horizon`, then advances the
    /// clock to `horizon`. This is the conservative-synchronization
    /// primitive for sharded execution: events at exactly `horizon` stay
    /// queued, because a cross-shard packet arriving *at* the horizon
    /// may still be injected before they run (see [`crate::shard`]).
    pub fn run_before(&mut self, horizon: SimTime) {
        self.run_while_due(|t| t < horizon, horizon);
    }

    /// The timestamp of the earliest pending event, if any. Takes
    /// `&mut self` because peeking may compact the timer wheel's
    /// overflow levels to find the true minimum.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.kernel.queue.peek_time()
    }

    /// Enables (or disables) boundary egress: with it on, packets
    /// addressed to a destination with no node in this world are
    /// captured into the egress buffer instead of being flooded onto
    /// the sender's default link. Off by default, so a standalone world
    /// behaves exactly as before sharding existed.
    pub fn set_boundary_egress(&mut self, enabled: bool) {
        self.kernel.egress_enabled = enabled;
    }

    /// Moves all captured boundary packets (send-time stamped, in send
    /// order) into `out`. The per-cell send order is what the shard
    /// coordinator's `(time, cell, seq)` merge key is built from.
    pub fn drain_egress(&mut self, out: &mut Vec<(SimTime, Packet)>) {
        out.append(&mut self.kernel.egress);
    }

    /// Delivers a packet that originated outside this world to a local
    /// node at virtual time `at` (which must not precede the clock).
    /// The delivery is an ordinary [`Event::Deliver`] carrying the
    /// sentinel [`BOUNDARY_LINK`], so taps, node accounting, buggify
    /// perturbation, and transport demux all treat it exactly like a
    /// packet that crossed a local link.
    pub fn inject_packet(&mut self, at: SimTime, node: NodeId, packet: Packet) {
        debug_assert!(
            at >= self.kernel.clock,
            "cross-boundary injection at {at} precedes the clock {}",
            self.kernel.clock
        );
        let id = self.kernel.pool.insert(packet);
        self.kernel.queue.schedule(at, Event::Deliver { link: BOUNDARY_LINK, node, packet: id });
    }
}

/// The sentinel link id stamped on cross-boundary deliveries injected
/// with [`World::inject_packet`]. It indexes no real link, so the event
/// loop skips link-queue sampling for it.
pub const BOUNDARY_LINK: LinkId = LinkId::from_raw(u32::MAX);

/// The capability handle applications use inside callbacks.
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    app: AppId,
    node: NodeId,
}

impl std::fmt::Debug for Ctx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("app", &self.app).field("node", &self.node).finish()
    }
}

impl<'a> Ctx<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.kernel.clock
    }

    /// This application's id.
    pub fn app_id(&self) -> AppId {
        self.app
    }

    /// The hosting node's id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The hosting node's address.
    pub fn addr(&self) -> Addr {
        self.kernel.nodes[self.node.index()].addr
    }

    /// Whether the hosting node is administratively up.
    pub fn is_up(&self) -> bool {
        self.kernel.nodes[self.node.index()].up
    }

    /// The kernel RNG (deterministic).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.kernel.rng
    }

    fn provenance(&self) -> Provenance {
        self.kernel.app_provenance[self.app.index()]
    }

    /// Starts listening on a TCP port. Returns `false` if the port is
    /// already bound.
    pub fn tcp_listen(&mut self, port: u16, backlog: usize) -> bool {
        let node = &mut self.kernel.nodes[self.node.index()];
        if node.tcp.listeners.contains_key(&port) {
            return false;
        }
        node.tcp.listeners.insert(port, Listener::new(self.app, backlog));
        true
    }

    /// Starts listening on an unused high port and returns it (FTP
    /// passive-mode data channels use this).
    ///
    /// # Panics
    ///
    /// Panics if no free port can be found.
    pub fn tcp_listen_ephemeral(&mut self, backlog: usize) -> u16 {
        let node = &mut self.kernel.nodes[self.node.index()];
        for candidate in 20_000..30_000u16 {
            if let std::collections::hash_map::Entry::Vacant(e) = node.tcp.listeners.entry(candidate) {
                e.insert(Listener::new(self.app, backlog));
                return candidate;
            }
        }
        panic!("no free ephemeral listening port");
    }

    /// Stops listening on a port previously bound with
    /// [`Ctx::tcp_listen`] or [`Ctx::tcp_listen_ephemeral`].
    pub fn tcp_unlisten(&mut self, port: u16) {
        self.kernel.nodes[self.node.index()].tcp.listeners.remove(&port);
    }

    /// Opens a TCP connection to `dst:port`. Completion is reported via
    /// [`TcpEvent::Connected`] or [`TcpEvent::ConnectFailed`].
    pub fn tcp_connect(&mut self, dst: Addr, port: u16) -> ConnId {
        let provenance = self.provenance();
        let conn_id = self.kernel.alloc_conn_id();
        let iss = self.kernel.rng.next_u64() as u32;
        let cfg = self.kernel.tcp_config;
        let mut effects = std::mem::take(&mut self.kernel.effects_scratch);
        let node = &mut self.kernel.nodes[self.node.index()];
        let Some(local_port) = node.tcp.alloc_ephemeral((dst, port)) else {
            // Ephemeral ports exhausted: fail the open asynchronously so
            // the caller sees the same `ConnectFailed` path as any other
            // failed connect (socket calls never notify re-entrantly).
            self.kernel.effects_scratch = effects;
            let now = self.kernel.clock;
            self.kernel.queue.schedule(now, Event::TcpConnectFailed { app: self.app, conn: conn_id });
            return conn_id;
        };
        let local = (node.addr, local_port);
        let conn =
            TcpConn::open_active(conn_id, self.app, local, (dst, port), provenance, iss, &cfg, &mut effects);
        node.tcp.conns.insert(conn_id, conn);
        node.tcp.by_key.insert((local_port, dst, port), conn_id);
        self.finish_quiet(conn_id, &mut effects, "open_active");
        self.kernel.effects_scratch = effects;
        conn_id
    }

    /// Runs [`Kernel::finish_conn_activity`] through the kernel's
    /// reusable scratch buffer, asserting the call produced no app
    /// events (socket calls made *by* an app never notify one).
    fn finish_quiet(&mut self, conn: ConnId, effects: &mut TcpEffects, what: &str) {
        let mut scratch = std::mem::take(&mut self.kernel.ctx_scratch);
        scratch.clear();
        self.kernel.finish_conn_activity(self.node, conn, effects, &mut scratch);
        debug_assert!(scratch.is_empty(), "{what} produced app events");
        scratch.clear();
        self.kernel.ctx_scratch = scratch;
    }

    /// Queues bytes on an open connection.
    pub fn tcp_send(&mut self, conn: ConnId, data: &[u8]) {
        let cfg = self.kernel.tcp_config;
        let now = self.kernel.clock;
        let mut effects = std::mem::take(&mut self.kernel.effects_scratch);
        let node = &mut self.kernel.nodes[self.node.index()];
        if let Some(c) = node.tcp.conns.get_mut(&conn) {
            c.send(data, now, &cfg, &mut effects);
        }
        self.finish_quiet(conn, &mut effects, "send");
        self.kernel.effects_scratch = effects;
    }

    /// Queues an owned buffer on an open connection without copying it:
    /// the connection slices the chunk (refcount bumps) as it segments
    /// it onto the wire. Use for large or repeated payloads a sender
    /// already holds as [`Bytes`] (streaming chunks, cached bodies).
    pub fn tcp_send_bytes(&mut self, conn: ConnId, data: Bytes) {
        let cfg = self.kernel.tcp_config;
        let now = self.kernel.clock;
        let mut effects = std::mem::take(&mut self.kernel.effects_scratch);
        let node = &mut self.kernel.nodes[self.node.index()];
        if let Some(c) = node.tcp.conns.get_mut(&conn) {
            c.send_bytes(data, now, &cfg, &mut effects);
        }
        self.finish_quiet(conn, &mut effects, "send");
        self.kernel.effects_scratch = effects;
    }

    /// Gracefully closes a connection (FIN after queued data drains).
    pub fn tcp_close(&mut self, conn: ConnId) {
        let cfg = self.kernel.tcp_config;
        let now = self.kernel.clock;
        let mut effects = std::mem::take(&mut self.kernel.effects_scratch);
        let node = &mut self.kernel.nodes[self.node.index()];
        if let Some(c) = node.tcp.conns.get_mut(&conn) {
            c.close(now, &cfg, &mut effects);
        }
        self.finish_swallowed(conn, &mut effects);
        self.kernel.effects_scratch = effects;
    }

    /// Like [`Ctx::finish_quiet`] but discards any produced events (the
    /// app initiated the transition, so its own notifications are
    /// swallowed).
    fn finish_swallowed(&mut self, conn: ConnId, effects: &mut TcpEffects) {
        let mut scratch = std::mem::take(&mut self.kernel.ctx_scratch);
        scratch.clear();
        self.kernel.finish_conn_activity(self.node, conn, effects, &mut scratch);
        scratch.clear();
        self.kernel.ctx_scratch = scratch;
    }

    /// Aborts a connection with a RST.
    pub fn tcp_abort(&mut self, conn: ConnId) {
        let cfg = self.kernel.tcp_config;
        let mut effects = std::mem::take(&mut self.kernel.effects_scratch);
        let node = &mut self.kernel.nodes[self.node.index()];
        if let Some(c) = node.tcp.conns.get_mut(&conn) {
            c.abort(&cfg, &mut effects);
        }
        // The app initiated the abort; swallow its own Closed event.
        self.finish_swallowed(conn, &mut effects);
        self.kernel.effects_scratch = effects;
    }

    /// Binds a UDP port. Returns `false` if the port is taken.
    pub fn udp_bind(&mut self, port: u16) -> bool {
        self.kernel.nodes[self.node.index()].udp.bind(port, self.app)
    }

    /// Sends a UDP datagram from `src_port` to `dst:dst_port`.
    pub fn udp_send(&mut self, src_port: u16, dst: Addr, dst_port: u16, payload: Bytes) {
        let provenance = self.provenance();
        let src = self.addr();
        let packet = Packet::udp(src, dst, src_port, dst_port, payload).with_provenance(provenance);
        let _ = self.kernel.send_packet(self.node, packet);
    }

    /// Sends a raw, fully formed packet (flood generators use this to
    /// spoof sources and skip connection state). The packet is stamped
    /// with the app's provenance.
    pub fn send_raw(&mut self, packet: Packet) -> Result<(), DropReason> {
        let provenance = self.provenance();
        self.kernel.send_packet(self.node, packet.with_provenance(provenance))
    }

    /// Schedules a timer; `token` is handed back to
    /// [`App::on_timer`] when it fires.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let timer = TimerId::from_raw(self.kernel.next_timer_id);
        self.kernel.next_timer_id += 1;
        let when = self.kernel.clock + delay;
        self.kernel.queue.schedule(when, Event::AppTimer { app: self.app, token, timer });
        timer
    }

    /// Cancels a timer scheduled with [`Ctx::set_timer`].
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.kernel.cancelled_timers.insert(timer);
    }

    /// Segments retransmitted so far on a connection (diagnostics).
    pub fn conn_retransmitted(&self, conn: ConnId) -> Option<u64> {
        self.kernel.nodes[self.node.index()]
            .tcp
            .conns
            .get(&conn)
            .map(|c| c.retransmitted_segments())
    }

    /// The hosting node's CPU-pressure factor (1.0 = unloaded). Apps
    /// that model compute cost — the IDS service — multiply their
    /// nominal per-window cost by this, so injected pressure stretches
    /// metered compute deterministically.
    pub fn cpu_pressure(&self) -> f64 {
        self.kernel.nodes[self.node.index()].cpu_pressure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Default)]
    struct EchoServerState {
        accepted: usize,
        bytes: Vec<u8>,
    }

    struct EchoServer {
        port: u16,
        state: Rc<RefCell<EchoServerState>>,
    }

    impl App for EchoServer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            assert!(ctx.tcp_listen(self.port, 16));
        }
        fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Accepted { .. } => self.state.borrow_mut().accepted += 1,
                TcpEvent::Data { conn, data } => {
                    self.state.borrow_mut().bytes.extend_from_slice(&data);
                    ctx.tcp_send(conn, &data); // echo
                }
                _ => {}
            }
        }
    }

    #[derive(Default)]
    struct ClientState {
        connected: bool,
        echoed: Vec<u8>,
        closed: bool,
    }

    struct Client {
        server: Addr,
        port: u16,
        message: Vec<u8>,
        state: Rc<RefCell<ClientState>>,
    }

    impl App for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.tcp_connect(self.server, self.port);
        }
        fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Connected { conn } => {
                    self.state.borrow_mut().connected = true;
                    ctx.tcp_send(conn, &self.message);
                }
                TcpEvent::Data { conn, data } => {
                    let mut st = self.state.borrow_mut();
                    st.echoed.extend_from_slice(&data);
                    if st.echoed.len() >= self.message.len() {
                        drop(st);
                        ctx.tcp_close(conn);
                    }
                }
                TcpEvent::Closed { .. } => self.state.borrow_mut().closed = true,
                _ => {}
            }
        }
    }

    fn echo_world(
        message: Vec<u8>,
        loss: f64,
    ) -> (World, Rc<RefCell<EchoServerState>>, Rc<RefCell<ClientState>>) {
        let mut world = World::new(7);
        let server_node = world.add_node(Addr::new(10, 0, 0, 1), "server");
        let client_node = world.add_node(Addr::new(10, 0, 0, 2), "client");
        let cfg = LinkConfig { loss_rate: loss, ..LinkConfig::lan_100mbps() };
        world.add_csma_link(&[server_node, client_node], cfg);

        let server_state = Rc::new(RefCell::new(EchoServerState::default()));
        let client_state = Rc::new(RefCell::new(ClientState::default()));
        let server = world.add_app(
            server_node,
            Box::new(EchoServer { port: 80, state: Rc::clone(&server_state) }),
            Provenance::Benign,
        );
        let client = world.add_app(
            client_node,
            Box::new(Client {
                server: Addr::new(10, 0, 0, 1),
                port: 80,
                message,
                state: Rc::clone(&client_state),
            }),
            Provenance::Benign,
        );
        world.start_app(server, SimTime::ZERO);
        world.start_app(client, SimTime::from_nanos(1));
        (world, server_state, client_state)
    }

    #[test]
    fn echo_roundtrip_over_clean_link() {
        let message = vec![7u8; 10_000];
        let (mut world, server_state, client_state) = echo_world(message.clone(), 0.0);
        world.run_for(SimDuration::from_secs(5));
        assert!(client_state.borrow().connected);
        assert_eq!(server_state.borrow().accepted, 1);
        assert_eq!(server_state.borrow().bytes, message);
        assert_eq!(client_state.borrow().echoed, message);
    }

    #[test]
    fn echo_roundtrip_survives_lossy_link() {
        let message = vec![9u8; 20_000];
        let (mut world, _server_state, client_state) = echo_world(message.clone(), 0.05);
        world.run_for(SimDuration::from_secs(30));
        assert_eq!(client_state.borrow().echoed, message, "retransmissions recover all bytes");
    }

    #[test]
    fn connect_to_missing_port_fails_with_rst() {
        struct Probe {
            failed: Rc<RefCell<bool>>,
        }
        impl App for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.tcp_connect(Addr::new(10, 0, 0, 1), 9999);
            }
            fn on_tcp(&mut self, _ctx: &mut Ctx<'_>, event: TcpEvent) {
                if matches!(event, TcpEvent::ConnectFailed { .. }) {
                    *self.failed.borrow_mut() = true;
                }
            }
        }
        let mut world = World::new(1);
        let a = world.add_node(Addr::new(10, 0, 0, 1), "a");
        let b = world.add_node(Addr::new(10, 0, 0, 2), "b");
        world.add_csma_link(&[a, b], LinkConfig::lan_100mbps());
        let failed = Rc::new(RefCell::new(false));
        let probe = world.add_app(b, Box::new(Probe { failed: Rc::clone(&failed) }), Provenance::Benign);
        world.start_app(probe, SimTime::ZERO);
        world.run_for(SimDuration::from_secs(2));
        assert!(*failed.borrow());
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerApp {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl App for TimerApp {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let cancelled = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.cancel_timer(cancelled);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.borrow_mut().push(token);
            }
        }
        let mut world = World::new(1);
        let a = world.add_node(Addr::new(10, 0, 0, 1), "a");
        let b = world.add_node(Addr::new(10, 0, 0, 2), "b");
        world.add_csma_link(&[a, b], LinkConfig::lan_100mbps());
        let fired = Rc::new(RefCell::new(Vec::new()));
        let app = world.add_app(a, Box::new(TimerApp { fired: Rc::clone(&fired) }), Provenance::Benign);
        world.start_app(app, SimTime::ZERO);
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(*fired.borrow(), vec![1, 3]);
    }

    #[test]
    fn down_node_drops_traffic_and_kills_conns() {
        // Bring the server down mid-transfer: its connections disappear
        // and the client eventually gives up via RTO.
        let message = vec![5u8; 200_000];
        let (mut world, server_state, client_state) = echo_world(message, 0.0);
        world.run_for(SimDuration::from_millis(5));
        assert!(client_state.borrow().connected);
        let server_node = NodeId::from_raw(0);
        world.set_node_up(server_node, false);
        let bytes_at_cut = server_state.borrow().bytes.len();
        world.run_for(SimDuration::from_secs(120));
        // No further bytes arrive and the client's connection dies.
        assert_eq!(server_state.borrow().bytes.len(), bytes_at_cut);
        assert!(client_state.borrow().closed);
        assert!(world.node_stats(server_node).dropped_down > 0);
    }

    #[test]
    fn node_churn_notifies_apps() {
        struct Watcher {
            seen: Rc<RefCell<Vec<bool>>>,
        }
        impl App for Watcher {
            fn on_link_state(&mut self, _ctx: &mut Ctx<'_>, up: bool) {
                self.seen.borrow_mut().push(up);
            }
        }
        let mut world = World::new(1);
        let a = world.add_node(Addr::new(10, 0, 0, 1), "a");
        let b = world.add_node(Addr::new(10, 0, 0, 2), "b");
        world.add_csma_link(&[a, b], LinkConfig::lan_100mbps());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let app = world.add_app(a, Box::new(Watcher { seen: Rc::clone(&seen) }), Provenance::Benign);
        world.start_app(app, SimTime::ZERO);
        world.schedule_node_up(a, false, SimTime::from_millis(100));
        world.schedule_node_up(a, true, SimTime::from_millis(200));
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(*seen.borrow(), vec![false, true]);
        assert!(world.node_is_up(a));
    }

    #[test]
    fn deterministic_event_counts_across_runs() {
        let run = || {
            let message = vec![3u8; 5000];
            let (mut world, _s, _c) = echo_world(message, 0.02);
            world.run_for(SimDuration::from_secs(10));
            world.events_processed()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn obs_counts_every_event_and_is_reproducible() {
        use obs::Registry;

        let run = || {
            let message = vec![8u8; 50_000];
            let (mut world, _s, _c) = echo_world(message, 0.02);
            let registry = Registry::new();
            world.set_obs(registry.scope("netsim"));
            world.run_for(SimDuration::from_secs(10));
            world.publish_link_obs();
            (world.events_processed(), registry.snapshot())
        };
        let (events, telemetry) = run();

        // Per-phase counters partition the total event count.
        let phase_total: u64 = telemetry
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("netsim.phase.") && name.ends_with(".events"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(phase_total, events);

        // Link traffic shows up in both the sampled histogram and the
        // published gauges.
        assert!(telemetry.histogram("netsim.link.queue_depth").expect("sampled").count > 0);
        assert!(telemetry.gauge("netsim.link.0.delivered_packets").expect("published") > 0);
        assert_eq!(telemetry.gauge("netsim.link.0.up"), Some(1));

        // The whole artifact is byte-identical across same-seed runs.
        let (_, telemetry2) = run();
        assert_eq!(telemetry.render_text(), telemetry2.render_text());
    }

    /// The local histograms' closed-form bucket against the registry's
    /// own rule, `partition_point(|b| b < value)` over the same
    /// `pow2_bounds`: at every power-of-two edge, at the extremes and
    /// on random values of every magnitude.
    #[test]
    fn pow2_bucket_matches_the_bounds_search() {
        let mut rng = SimRng::seed_from(0xb0c4);
        for (min_pow, max_pow) in [ADVANCE_POW2, DEPTH_POW2, (3, 7), (5, 5)] {
            let bounds = pow2_bounds(min_pow, max_pow);
            let mut values = vec![0, u64::MAX - 1, u64::MAX];
            for k in 0..64 {
                values.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
            }
            values.extend((0..4000).map(|_| rng.next_u64() >> rng.below(64)));
            for v in values {
                assert_eq!(
                    pow2_bucket(v, min_pow, max_pow),
                    bounds.partition_point(|&b| b < v),
                    "value {v}, bounds ({min_pow}, {max_pow})"
                );
            }
        }
    }

    #[test]
    fn fault_plan_flap_blocks_then_restores_traffic() {
        use crate::faults::FaultPlan;

        let message = vec![4u8; 500_000];
        let (mut world, _server_state, client_state) = echo_world(message.clone(), 0.0);
        let bridge = LinkId::from_raw(0);
        let mut plan = FaultPlan::new();
        plan.link_flap(bridge, SimDuration::from_millis(5), SimDuration::from_secs(2));
        world.apply_fault_plan(&plan);

        // Mid-flap: the link is down and the transfer is stalled.
        world.run_for(SimDuration::from_secs(1));
        assert!(!world.link_is_up(bridge));
        let echoed_mid_flap = client_state.borrow().echoed.len();
        assert!(echoed_mid_flap < message.len());
        assert!(world.link_stats(bridge).drops_link_down > 0);

        // After restoration, RTO-driven retransmission recovers the
        // whole transfer.
        world.run_for(SimDuration::from_secs(120));
        assert!(world.link_is_up(bridge));
        assert_eq!(client_state.borrow().echoed, message);
    }

    #[test]
    fn fault_plan_runs_are_byte_reproducible() {
        use crate::faults::FaultPlan;

        let run = || {
            let message = vec![6u8; 100_000];
            let (mut world, _s, client_state) = echo_world(message, 0.01);
            let bridge = LinkId::from_raw(0);
            let mut plan = FaultPlan::new();
            let mut plan_rng = SimRng::seed_from(99);
            plan.link_flap_random(
                bridge,
                SimDuration::from_millis(10),
                SimDuration::from_secs(20),
                4.0,
                1.0,
                &mut plan_rng,
            );
            plan.loss_ramp(bridge, SimDuration::from_secs(2), SimDuration::from_secs(5), 0.2, 4);
            plan.throttle(bridge, SimDuration::from_secs(8), SimDuration::from_secs(3), 0.2);
            world.apply_fault_plan(&plan);
            world.run_for(SimDuration::from_secs(60));
            let echoed = client_state.borrow().echoed.len();
            (world.events_processed(), world.link_stats(bridge), echoed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn node_reboot_fault_notifies_apps_and_accrues_downtime() {
        use crate::faults::FaultPlan;

        struct Watcher {
            seen: Rc<RefCell<Vec<bool>>>,
        }
        impl App for Watcher {
            fn on_link_state(&mut self, _ctx: &mut Ctx<'_>, up: bool) {
                self.seen.borrow_mut().push(up);
            }
        }
        let mut world = World::new(5);
        let a = world.add_node(Addr::new(10, 0, 0, 1), "a");
        let b = world.add_node(Addr::new(10, 0, 0, 2), "b");
        world.add_csma_link(&[a, b], LinkConfig::lan_100mbps());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let app = world.add_app(a, Box::new(Watcher { seen: Rc::clone(&seen) }), Provenance::Benign);
        world.start_app(app, SimTime::ZERO);

        let mut plan = FaultPlan::new();
        plan.node_reboot(a, SimDuration::from_secs(2), SimDuration::from_secs(3));
        plan.node_crash(a, SimDuration::from_secs(10));
        world.apply_fault_plan(&plan);

        world.run_for(SimDuration::from_secs(6));
        // The reboot produced a clean down → up pair.
        assert_eq!(*seen.borrow(), vec![false, true]);
        assert!(world.node_is_up(a));
        assert_eq!(world.node_downtime(a), SimDuration::from_secs(3));

        // The crash leaves the node down; its open interval accrues.
        world.run_for(SimDuration::from_secs(6));
        assert!(!world.node_is_up(a));
        assert_eq!(*seen.borrow(), vec![false, true, false]);
        assert_eq!(world.node_downtime(a), SimDuration::from_secs(5));
        // The untouched node accrued nothing.
        assert_eq!(world.node_downtime(b), SimDuration::ZERO);
    }

    #[test]
    fn cpu_pressure_reaches_apps_and_relaxes() {
        use crate::faults::FaultPlan;

        struct PressureProbe {
            seen: Rc<RefCell<Vec<f64>>>,
        }
        impl App for PressureProbe {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                self.seen.borrow_mut().push(ctx.cpu_pressure());
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
        let mut world = World::new(3);
        let a = world.add_node(Addr::new(10, 0, 0, 1), "a");
        let b = world.add_node(Addr::new(10, 0, 0, 2), "b");
        world.add_csma_link(&[a, b], LinkConfig::lan_100mbps());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let app =
            world.add_app(a, Box::new(PressureProbe { seen: Rc::clone(&seen) }), Provenance::Benign);
        world.start_app(app, SimTime::ZERO);
        let mut plan = FaultPlan::new();
        plan.cpu_pressure(a, SimDuration::from_millis(1500), SimDuration::from_secs(2), 50.0);
        world.apply_fault_plan(&plan);
        world.run_for(SimDuration::from_millis(4500));
        assert_eq!(*seen.borrow(), vec![1.0, 50.0, 50.0, 1.0]);
        assert_eq!(world.cpu_pressure(a), 1.0);
    }

    #[test]
    fn ephemeral_port_exhaustion_reports_connect_failed() {
        // Regression: exhausting the ephemeral range used to panic the
        // kernel. Now the open fails asynchronously via ConnectFailed.
        struct Exhauster {
            failures: Rc<RefCell<usize>>,
        }
        impl App for Exhauster {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                // One more connect than the range (32768..49152) holds.
                for _ in 0..16_385u32 {
                    ctx.tcp_connect(Addr::new(10, 0, 0, 1), 80);
                }
            }
            fn on_tcp(&mut self, _ctx: &mut Ctx<'_>, event: TcpEvent) {
                if matches!(event, TcpEvent::ConnectFailed { .. }) {
                    *self.failures.borrow_mut() += 1;
                }
            }
        }
        let mut world = World::new(2);
        let a = world.add_node(Addr::new(10, 0, 0, 1), "server");
        let b = world.add_node(Addr::new(10, 0, 0, 2), "client");
        world.add_csma_link(&[a, b], LinkConfig::lan_100mbps());
        let failures = Rc::new(RefCell::new(0usize));
        let app =
            world.add_app(b, Box::new(Exhauster { failures: Rc::clone(&failures) }), Provenance::Benign);
        world.start_app(app, SimTime::ZERO);
        // Short horizon: the exhaustion failure is scheduled at `now`,
        // long before any SYN retransmission timer would fire.
        world.run_for(SimDuration::from_millis(1));
        assert!(*failures.borrow() >= 1, "exhausted connect must fail, not panic");
    }

    #[test]
    fn buggify_enabled_echo_still_delivers_every_byte() {
        // Chaos may delay, reorder, duplicate and crash, but TCP still
        // delivers the exact byte stream.
        let message = vec![11u8; 30_000];
        let (mut world, _server_state, client_state) = echo_world(message.clone(), 0.0);
        let mut cfg = BuggifyConfig::swarm(424242);
        // Keep lifecycle blips out of this test: a crash on the server
        // kills the echo connection outright, which is exercised (and
        // asserted on) by the swarm harness instead.
        cfg.intensity = 1.0;
        world.set_buggify(cfg);
        world.run_for(SimDuration::from_secs(240));
        let echoed = client_state.borrow().echoed.clone();
        if echoed != message {
            // A lifecycle blip may legitimately kill the transfer;
            // in that case the connection must at least have closed
            // cleanly rather than wedged.
            assert!(client_state.borrow().closed, "transfer neither completed nor closed");
        }
        assert!(world.buggify_counts().iter().any(|&(_, evals, _)| evals > 0));
    }

    #[test]
    fn buggify_runs_are_byte_reproducible_per_swarm_seed() {
        let run = |swarm_seed: u64| {
            let message = vec![13u8; 40_000];
            let (mut world, _s, client_state) = echo_world(message, 0.01);
            world.set_buggify(BuggifyConfig::swarm(swarm_seed));
            world.run_for(SimDuration::from_secs(60));
            let echoed = client_state.borrow().echoed.len();
            (world.events_processed(), world.buggify_counts(), echoed)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1, "different swarm seeds must perturb differently");
    }
}
