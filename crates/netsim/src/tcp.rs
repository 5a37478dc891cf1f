//! A miniature TCP implementation.
//!
//! Implements the parts of TCP that matter for the testbed's observables:
//! the three-way handshake (with a bounded SYN backlog, so SYN floods
//! genuinely exhaust the target), reliable in-order byte streams with
//! cumulative ACKs, out-of-order reassembly, retransmission timeouts with
//! exponential backoff and Karn-style RTT sampling, fast retransmit on
//! three duplicate ACKs, slow-start/congestion-avoidance (AIMD), and
//! graceful FIN teardown. TIME_WAIT and urgent data are omitted.
//!
//! The state machine is *pure*: connection methods mutate connection state
//! and append packets/application events to a [`TcpEffects`] sink; the
//! [`World`](crate::world::World) decides what to do with those effects.
//! This keeps the protocol unit-testable without a network.

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::fxhash::FxHashMap;
use crate::ids::{AppId, ConnId};
use crate::packet::{Addr, Packet, Provenance, TcpFlags, TcpHeader};
use crate::time::{SimDuration, SimTime};

/// Maximum segment size used by all simulated hosts.
pub const MSS: usize = 1460;

/// Tunable parameters of the TCP implementation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Maximum payload bytes per segment.
    pub mss: usize,
    /// Initial congestion window in bytes.
    pub initial_cwnd: usize,
    /// Initial slow-start threshold in bytes.
    pub initial_ssthresh: usize,
    /// Initial retransmission timeout.
    pub initial_rto: SimDuration,
    /// Lower bound on the RTO.
    pub min_rto: SimDuration,
    /// Upper bound on the RTO.
    pub max_rto: SimDuration,
    /// Retries before a handshake is abandoned.
    pub max_syn_retries: u32,
    /// Retries before an established connection is abandoned.
    pub max_retries: u32,
    /// Advertised receive window in bytes.
    pub recv_window: u16,
    /// Cap on buffered out-of-order segments.
    pub max_ooo_segments: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: MSS,
            initial_cwnd: 10 * MSS,
            initial_ssthresh: 64 * 1024,
            initial_rto: SimDuration::from_millis(200),
            min_rto: SimDuration::from_millis(50),
            max_rto: SimDuration::from_secs(8),
            max_syn_retries: 4,
            max_retries: 6,
            recv_window: u16::MAX,
            max_ooo_segments: 256,
        }
    }
}

/// `a < b` in sequence-number space.
#[inline]
pub fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// `a <= b` in sequence-number space.
#[inline]
pub fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

/// Protocol state of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TcpState {
    /// Active open sent a SYN, awaiting SYN-ACK.
    SynSent,
    /// Passive open replied SYN-ACK, awaiting final ACK.
    SynReceived,
    /// Handshake complete, data may flow.
    Established,
    /// We sent a FIN and wait for its ACK and/or the peer's FIN.
    FinWait,
    /// Peer sent a FIN; we may still send data.
    CloseWait,
    /// Peer FIN'd and we sent our FIN, awaiting its ACK.
    LastAck,
    /// Fully closed; the connection can be reaped.
    Closed,
}

/// Notifications a connection delivers to its owning application.
#[derive(Debug, Clone, PartialEq)]
pub enum TcpEvent {
    /// A passive connection completed its handshake.
    Accepted {
        /// The new connection.
        conn: ConnId,
        /// The local listening port it arrived on.
        local_port: u16,
        /// Remote address and port.
        peer: (Addr, u16),
    },
    /// An active connection completed its handshake.
    Connected {
        /// The connection.
        conn: ConnId,
    },
    /// In-order payload bytes arrived.
    Data {
        /// The connection.
        conn: ConnId,
        /// The delivered bytes.
        data: Bytes,
    },
    /// The peer closed its sending direction (FIN received).
    PeerClosed {
        /// The connection.
        conn: ConnId,
    },
    /// The connection is fully closed (graceful or reset after data).
    Closed {
        /// The connection.
        conn: ConnId,
    },
    /// An active open failed (reset or handshake timeout).
    ConnectFailed {
        /// The connection.
        conn: ConnId,
    },
}

impl TcpEvent {
    /// The connection the event concerns.
    pub fn conn(&self) -> ConnId {
        match *self {
            TcpEvent::Accepted { conn, .. }
            | TcpEvent::Connected { conn }
            | TcpEvent::Data { conn, .. }
            | TcpEvent::PeerClosed { conn }
            | TcpEvent::Closed { conn }
            | TcpEvent::ConnectFailed { conn } => conn,
        }
    }
}

/// Sink for the side effects of driving a connection state machine.
#[derive(Debug, Default)]
pub struct TcpEffects {
    /// Segments to transmit from the local node.
    pub segments: Vec<Packet>,
    /// Events to deliver to applications.
    pub events: Vec<(AppId, TcpEvent)>,
}

impl TcpEffects {
    /// An empty effects sink.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A FIFO byte queue stored as refcounted [`Bytes`] chunks.
///
/// Application writes and transmitted segments enter as whole chunks;
/// segmentation carves them up with zero-copy slices. Only a segment
/// that straddles two application writes (coalescing small writes, or a
/// retransmission after a partial ACK) pays a copy — the steady-state
/// streaming path moves payload bytes zero times between the sending
/// app's buffer and the wire.
#[derive(Debug, Default)]
struct ChunkQueue {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl ChunkQueue {
    /// Total queued bytes.
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.len += data.len();
        self.chunks.push_back(data);
        self.assert_accounting();
    }

    /// Debug-only accounting check: the cached byte count must equal the
    /// sum of chunk lengths. Every `expect("queue holds >= ...")` in this
    /// file relies on this invariant, so each mutation re-verifies it
    /// under `debug_assertions` (swarm runs build with them on).
    #[inline]
    fn assert_accounting(&self) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.len,
            self.chunks.iter().map(Bytes::len).sum::<usize>(),
            "ChunkQueue len diverged from chunk contents"
        );
    }

    /// Removes and returns the first `take` bytes (`take <= len`). Stays
    /// within one chunk → zero-copy slice; straddles chunks → one copy.
    fn pop_front_bytes(&mut self, take: usize) -> Bytes {
        debug_assert!(take > 0 && take <= self.len);
        self.len -= take;
        let front = self.chunks.front_mut().expect("queue holds >= take bytes");
        if front.len() > take {
            let head = front.slice(..take);
            *front = front.slice(take..);
            self.assert_accounting();
            return head;
        }
        let first = self.chunks.pop_front().expect("queue holds >= take bytes");
        if first.len() == take {
            self.assert_accounting();
            return first;
        }
        let mut buf = Vec::with_capacity(take);
        buf.extend_from_slice(&first);
        while buf.len() < take {
            let need = take - buf.len();
            let chunk = self.chunks.front_mut().expect("queue holds >= take bytes");
            if chunk.len() > need {
                buf.extend_from_slice(&chunk[..need]);
                *chunk = chunk.slice(need..);
            } else {
                buf.extend_from_slice(chunk);
                self.chunks.pop_front();
            }
        }
        self.assert_accounting();
        Bytes::from(buf)
    }

    /// Returns the first `take` bytes without consuming them.
    fn peek_front_bytes(&self, take: usize) -> Bytes {
        debug_assert!(take > 0 && take <= self.len);
        let front = self.chunks.front().expect("queue holds >= take bytes");
        if front.len() >= take {
            return front.slice(..take);
        }
        let mut buf = Vec::with_capacity(take);
        for chunk in &self.chunks {
            let need = take - buf.len();
            if chunk.len() >= need {
                buf.extend_from_slice(&chunk[..need]);
                break;
            }
            buf.extend_from_slice(chunk);
        }
        Bytes::from(buf)
    }

    /// Discards the first `n` bytes (`n <= len`).
    fn drain_front(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.len -= n;
        let mut rem = n;
        while rem > 0 {
            let front = self.chunks.front_mut().expect("queue holds >= n bytes");
            if front.len() > rem {
                *front = front.slice(rem..);
                break;
            }
            rem -= front.len();
            self.chunks.pop_front();
        }
        self.assert_accounting();
    }
}

/// One endpoint of a TCP connection.
#[derive(Debug)]
pub struct TcpConn {
    /// Globally unique identifier.
    pub id: ConnId,
    /// Owning application.
    pub app: AppId,
    /// Local address and port.
    pub local: (Addr, u16),
    /// Remote address and port.
    pub remote: (Addr, u16),
    /// Ground-truth class stamped on every emitted segment.
    pub provenance: Provenance,

    state: TcpState,
    accepted_from_listener: bool,

    // Send side.
    snd_una: u32,
    snd_nxt: u32,
    unacked: ChunkQueue,
    unsent: ChunkQueue,
    cwnd: usize,
    ssthresh: usize,
    peer_window: usize,
    dup_acks: u32,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    retries: u32,
    rtt_probe: Option<(u32, SimTime)>,
    /// NewReno recovery point: `snd_nxt` at the moment loss was detected.
    /// While `Some`, a partial ACK (below this point) means the next
    /// in-sequence segment is also lost, so it is retransmitted at once
    /// instead of waiting out another full RTO — without this, a burst
    /// loss (link flap) recovers one segment per RTO.
    recover_point: Option<u32>,
    close_requested: bool,
    fin_sent: bool,
    fin_seq: u32,
    fin_acked: bool,

    // Receive side.
    rcv_nxt: u32,
    ooo: BTreeMap<u32, Bytes>,
    peer_fin_seen: bool,

    // Timer bookkeeping (owned by the kernel, stamped here).
    timer_generation: u64,

    // Counters.
    bytes_sent: u64,
    bytes_received: u64,
    retransmitted_segments: u64,
}

impl TcpConn {
    /// Opens a connection actively: emits the initial SYN.
    #[allow(clippy::too_many_arguments)]
    pub fn open_active(
        id: ConnId,
        app: AppId,
        local: (Addr, u16),
        remote: (Addr, u16),
        provenance: Provenance,
        iss: u32,
        cfg: &TcpConfig,
        effects: &mut TcpEffects,
    ) -> Self {
        let mut conn = TcpConn::blank(id, app, local, remote, provenance, iss, cfg);
        conn.state = TcpState::SynSent;
        conn.snd_nxt = iss.wrapping_add(1);
        let syn = conn.control_segment(iss, 0, TcpFlags::SYN, cfg);
        effects.segments.push(syn);
        conn
    }

    /// Opens a connection passively in response to a received SYN: emits
    /// the SYN-ACK.
    #[allow(clippy::too_many_arguments)]
    pub fn open_passive(
        id: ConnId,
        app: AppId,
        local: (Addr, u16),
        remote: (Addr, u16),
        provenance: Provenance,
        iss: u32,
        peer_seq: u32,
        cfg: &TcpConfig,
        effects: &mut TcpEffects,
    ) -> Self {
        let mut conn = TcpConn::blank(id, app, local, remote, provenance, iss, cfg);
        conn.state = TcpState::SynReceived;
        conn.accepted_from_listener = true;
        conn.snd_nxt = iss.wrapping_add(1);
        conn.rcv_nxt = peer_seq.wrapping_add(1);
        let syn_ack = conn.control_segment(iss, conn.rcv_nxt, TcpFlags::SYN | TcpFlags::ACK, cfg);
        effects.segments.push(syn_ack);
        conn
    }

    fn blank(
        id: ConnId,
        app: AppId,
        local: (Addr, u16),
        remote: (Addr, u16),
        provenance: Provenance,
        iss: u32,
        cfg: &TcpConfig,
    ) -> Self {
        TcpConn {
            id,
            app,
            local,
            remote,
            provenance,
            state: TcpState::Closed,
            accepted_from_listener: false,
            snd_una: iss,
            snd_nxt: iss,
            unacked: ChunkQueue::default(),
            unsent: ChunkQueue::default(),
            cwnd: cfg.initial_cwnd,
            ssthresh: cfg.initial_ssthresh,
            peer_window: cfg.recv_window as usize,
            dup_acks: 0,
            srtt: None,
            rttvar: 0.0,
            rto: cfg.initial_rto,
            retries: 0,
            rtt_probe: None,
            recover_point: None,
            close_requested: false,
            fin_sent: false,
            fin_seq: 0,
            fin_acked: false,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            peer_fin_seen: false,
            timer_generation: 0,
            bytes_sent: 0,
            bytes_received: 0,
            retransmitted_segments: 0,
        }
    }

    /// Current protocol state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// `true` once the connection can be reaped.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// `true` while the connection has unacknowledged work needing a timer.
    pub fn needs_timer(&self) -> bool {
        !self.is_closed()
            && (matches!(self.state, TcpState::SynSent | TcpState::SynReceived)
                || !self.unacked.is_empty()
                || (self.fin_sent && !self.fin_acked))
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Bumps and returns the timer generation, invalidating older timers.
    pub fn next_timer_generation(&mut self) -> u64 {
        self.timer_generation += 1;
        self.timer_generation
    }

    /// The currently valid timer generation.
    pub fn timer_generation(&self) -> u64 {
        self.timer_generation
    }

    /// Total payload bytes handed to `send`.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total in-order payload bytes delivered to the application.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Number of retransmitted segments.
    pub fn retransmitted_segments(&self) -> u64 {
        self.retransmitted_segments
    }

    /// Congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn control_segment(&self, seq: u32, ack: u32, flags: TcpFlags, cfg: &TcpConfig) -> Packet {
        let header = TcpHeader {
            src_port: self.local.1,
            dst_port: self.remote.1,
            seq,
            ack,
            flags,
            window: cfg.recv_window,
        };
        Packet::tcp(self.local.0, self.remote.0, header, Bytes::new()).with_provenance(self.provenance)
    }

    fn data_segment(&self, seq: u32, payload: Bytes, cfg: &TcpConfig) -> Packet {
        let header = TcpHeader {
            src_port: self.local.1,
            dst_port: self.remote.1,
            seq,
            ack: self.rcv_nxt,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: cfg.recv_window,
        };
        Packet::tcp(self.local.0, self.remote.0, header, payload).with_provenance(self.provenance)
    }

    /// Queues application bytes for transmission (copies once, into a
    /// fresh chunk). Callers that already hold a [`Bytes`] should prefer
    /// [`TcpConn::send_bytes`].
    pub fn send(&mut self, data: &[u8], now: SimTime, cfg: &TcpConfig, effects: &mut TcpEffects) {
        self.send_bytes(Bytes::from(data.to_vec()), now, cfg, effects);
    }

    /// Queues an owned buffer for transmission without copying it: the
    /// chunk is sliced (refcount bumps) as it is segmented onto the wire.
    pub fn send_bytes(&mut self, data: Bytes, now: SimTime, cfg: &TcpConfig, effects: &mut TcpEffects) {
        if matches!(self.state, TcpState::Closed | TcpState::FinWait | TcpState::LastAck) {
            return;
        }
        self.bytes_sent += data.len() as u64;
        self.unsent.push(data);
        self.try_transmit(now, cfg, effects);
    }

    /// Requests a graceful close: a FIN is emitted once queued data drains.
    pub fn close(&mut self, now: SimTime, cfg: &TcpConfig, effects: &mut TcpEffects) {
        if self.close_requested || self.is_closed() {
            return;
        }
        self.close_requested = true;
        self.try_transmit(now, cfg, effects);
    }

    /// Aborts the connection immediately with a RST.
    pub fn abort(&mut self, cfg: &TcpConfig, effects: &mut TcpEffects) {
        if self.is_closed() {
            return;
        }
        let rst = self.control_segment(self.snd_nxt, self.rcv_nxt, TcpFlags::RST | TcpFlags::ACK, cfg);
        effects.segments.push(rst);
        self.state = TcpState::Closed;
        effects.events.push((self.app, TcpEvent::Closed { conn: self.id }));
    }

    /// Sends as much queued data as the congestion and peer windows allow,
    /// plus the FIN if a close was requested and the send queue drained.
    pub fn try_transmit(&mut self, now: SimTime, cfg: &TcpConfig, effects: &mut TcpEffects) {
        if !matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            return;
        }
        let window = self.cwnd.min(self.peer_window);
        while !self.unsent.is_empty() && self.unacked.len() < window {
            let budget = window - self.unacked.len();
            let take = self.unsent.len().min(cfg.mss).min(budget);
            if take == 0 {
                break;
            }
            let chunk = self.unsent.pop_front_bytes(take);
            let seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
            // The in-flight copy is the same refcounted chunk that rides
            // the wire, so unacked chunk boundaries == segment boundaries
            // and a head retransmission is usually a pure slice.
            self.unacked.push(chunk.clone());
            if self.rtt_probe.is_none() && self.retries == 0 {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            effects.segments.push(self.data_segment(seq, chunk, cfg));
        }
        if self.close_requested && !self.fin_sent && self.unsent.is_empty() {
            self.fin_seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_sent = true;
            let fin = self.control_segment(self.fin_seq, self.rcv_nxt, TcpFlags::FIN | TcpFlags::ACK, cfg);
            effects.segments.push(fin);
            self.state = match self.state {
                TcpState::CloseWait => TcpState::LastAck,
                _ => TcpState::FinWait,
            };
        }
    }

    /// Handles an incoming segment addressed to this connection.
    pub fn on_segment(
        &mut self,
        now: SimTime,
        header: &TcpHeader,
        payload: Bytes,
        cfg: &TcpConfig,
        effects: &mut TcpEffects,
    ) {
        if self.is_closed() {
            return;
        }
        if header.flags.contains(TcpFlags::RST) {
            self.on_reset(effects);
            return;
        }
        self.peer_window = header.window as usize;

        match self.state {
            TcpState::SynSent => {
                if header.flags.contains(TcpFlags::SYN | TcpFlags::ACK)
                    && header.ack == self.snd_nxt
                {
                    self.snd_una = header.ack;
                    self.rcv_nxt = header.seq.wrapping_add(1);
                    self.retries = 0;
                    self.state = TcpState::Established;
                    let ack = self.control_segment(self.snd_nxt, self.rcv_nxt, TcpFlags::ACK, cfg);
                    effects.segments.push(ack);
                    effects.events.push((self.app, TcpEvent::Connected { conn: self.id }));
                    self.try_transmit(now, cfg, effects);
                }
                // Anything else in SynSent is ignored (no simultaneous open).
                return;
            }
            TcpState::SynReceived => {
                if header.flags.contains(TcpFlags::ACK) && header.ack == self.snd_nxt {
                    self.snd_una = header.ack;
                    self.retries = 0;
                    self.state = TcpState::Established;
                    effects.events.push((
                        self.app,
                        TcpEvent::Accepted {
                            conn: self.id,
                            local_port: self.local.1,
                            peer: self.remote,
                        },
                    ));
                    // Fall through: the ACK may carry data.
                } else {
                    // Retransmitted SYN: re-send the SYN-ACK.
                    if header.flags.contains(TcpFlags::SYN) {
                        let iss = self.snd_nxt.wrapping_sub(1);
                        let syn_ack =
                            self.control_segment(iss, self.rcv_nxt, TcpFlags::SYN | TcpFlags::ACK, cfg);
                        effects.segments.push(syn_ack);
                    }
                    return;
                }
            }
            _ => {}
        }

        if header.flags.contains(TcpFlags::ACK) {
            self.process_ack(header.ack, payload.is_empty(), now, cfg, effects);
        }
        if !payload.is_empty() {
            self.process_payload(header.seq, payload, cfg, effects);
        }
        if header.flags.contains(TcpFlags::FIN) {
            self.process_fin(header, cfg, effects);
        }
        self.try_transmit(now, cfg, effects);
        self.maybe_finish(effects);
    }

    fn on_reset(&mut self, effects: &mut TcpEffects) {
        let event = match self.state {
            TcpState::SynSent | TcpState::SynReceived => TcpEvent::ConnectFailed { conn: self.id },
            _ => TcpEvent::Closed { conn: self.id },
        };
        self.state = TcpState::Closed;
        effects.events.push((self.app, event));
    }

    fn process_ack(
        &mut self,
        ack: u32,
        bare_ack: bool,
        now: SimTime,
        cfg: &TcpConfig,
        effects: &mut TcpEffects,
    ) {
        if seq_lt(self.snd_una, ack) && seq_le(ack, self.snd_nxt) {
            let mut advanced = ack.wrapping_sub(self.snd_una) as usize;
            if self.fin_sent && ack == self.fin_seq.wrapping_add(1) {
                self.fin_acked = true;
                advanced = advanced.saturating_sub(1);
            }
            let drained = advanced.min(self.unacked.len());
            self.unacked.drain_front(drained);
            self.snd_una = ack;
            self.retries = 0;
            self.dup_acks = 0;
            // RFC 6298 §5.7: exponential backoff is abandoned as soon as
            // new data is acknowledged (Karn's rule blocks RTT samples
            // during recovery, so without this the RTO stays pinned at
            // its backed-off value for the rest of the transfer).
            self.rto = self.computed_rto(cfg);
            if let Some(rp) = self.recover_point {
                if seq_lt(ack, rp) {
                    // NewReno partial ACK: the hole right above `ack` was
                    // part of the same loss burst; resend it immediately.
                    self.retransmit_head(cfg, effects);
                } else {
                    self.recover_point = None;
                }
            }
            // Congestion control: slow start below ssthresh, then AIMD.
            if self.cwnd < self.ssthresh {
                self.cwnd += drained.min(cfg.mss);
            } else if self.cwnd > 0 {
                self.cwnd += (cfg.mss * cfg.mss) / self.cwnd.max(1);
            }
            if let Some((probe_seq, sent_at)) = self.rtt_probe {
                if seq_le(probe_seq, ack) {
                    self.sample_rtt(now.saturating_since(sent_at).as_secs_f64(), cfg);
                    self.rtt_probe = None;
                }
            }
        } else if ack == self.snd_una && bare_ack && !self.unacked.is_empty() {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                // Fast retransmit.
                self.recover_point = Some(self.snd_nxt);
                self.retransmit_head(cfg, effects);
                let flight = self.unacked.len();
                self.ssthresh = (flight / 2).max(2 * cfg.mss);
                self.cwnd = self.ssthresh;
            }
        }
    }

    fn sample_rtt(&mut self, r: f64, cfg: &TcpConfig) {
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        self.rto = self.computed_rto(cfg);
    }

    /// The un-backed-off RTO implied by the current RTT estimate (the
    /// configured initial RTO before any sample exists).
    fn computed_rto(&self, cfg: &TcpConfig) -> SimDuration {
        match self.srtt {
            Some(srtt) => SimDuration::from_secs_f64((srtt + 4.0 * self.rttvar).max(1e-9))
                .clamp(cfg.min_rto, cfg.max_rto),
            None => cfg.initial_rto,
        }
    }

    fn process_payload(&mut self, seq: u32, payload: Bytes, cfg: &TcpConfig, effects: &mut TcpEffects) {
        if seq == self.rcv_nxt {
            self.accept_in_order(payload, effects);
            // Drain any now-contiguous out-of-order segments. The
            // `expect` is sound because `first_key_value` just returned
            // the key and nothing between the two calls mutates the map.
            while let Some((&next_seq, _)) = self.ooo.first_key_value() {
                if next_seq == self.rcv_nxt {
                    let data = self.ooo.remove(&next_seq).expect("key just seen");
                    self.accept_in_order(data, effects);
                } else if seq_lt(next_seq, self.rcv_nxt) {
                    // Overlap: `rcv_nxt` advanced past this segment's
                    // start. Retransmissions re-chunk the stream (an
                    // RTO resend packs up to a full MSS from `snd_una`
                    // regardless of original boundaries), so a buffered
                    // segment can be *partially* stale. Deliver its
                    // unseen tail rather than dropping it and waiting
                    // for yet another retransmission of those bytes.
                    let data = self.ooo.remove(&next_seq).expect("key just seen");
                    let overlap = self.rcv_nxt.wrapping_sub(next_seq) as usize;
                    if overlap < data.len() {
                        self.accept_in_order(data.slice(overlap..), effects);
                    }
                } else {
                    break;
                }
            }
        } else if seq_lt(self.rcv_nxt, seq) && self.ooo.len() < cfg.max_ooo_segments {
            self.ooo.insert(seq, payload);
        }
        // Always acknowledge what we have (duplicate ACKs signal gaps).
        let ack = self.control_segment(self.snd_nxt, self.rcv_nxt, TcpFlags::ACK, cfg);
        effects.segments.push(ack);
    }

    fn accept_in_order(&mut self, data: Bytes, effects: &mut TcpEffects) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
        self.bytes_received += data.len() as u64;
        effects.events.push((self.app, TcpEvent::Data { conn: self.id, data }));
    }

    fn process_fin(&mut self, header: &TcpHeader, cfg: &TcpConfig, effects: &mut TcpEffects) {
        // The FIN occupies the sequence slot right after its payload.
        let fin_seq = header.seq.wrapping_add(header_payload_len(header) as u32);
        if self.peer_fin_seen || fin_seq != self.rcv_nxt {
            // Out-of-order FIN (data still missing) — ack current state.
            let ack = self.control_segment(self.snd_nxt, self.rcv_nxt, TcpFlags::ACK, cfg);
            effects.segments.push(ack);
            return;
        }
        self.peer_fin_seen = true;
        self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
        effects.events.push((self.app, TcpEvent::PeerClosed { conn: self.id }));
        let ack = self.control_segment(self.snd_nxt, self.rcv_nxt, TcpFlags::ACK, cfg);
        effects.segments.push(ack);
        self.state = match self.state {
            TcpState::Established => TcpState::CloseWait,
            TcpState::FinWait => TcpState::FinWait, // resolved in maybe_finish
            other => other,
        };
    }

    fn maybe_finish(&mut self, effects: &mut TcpEffects) {
        let fully_closed = self.fin_sent && self.fin_acked && self.peer_fin_seen;
        let last_ack_done = self.state == TcpState::LastAck && self.fin_acked;
        if (fully_closed || last_ack_done) && self.state != TcpState::Closed {
            self.state = TcpState::Closed;
            effects.events.push((self.app, TcpEvent::Closed { conn: self.id }));
        }
    }

    fn retransmit_head(&mut self, cfg: &TcpConfig, effects: &mut TcpEffects) {
        if !self.unacked.is_empty() {
            let take = self.unacked.len().min(cfg.mss);
            let chunk = self.unacked.peek_front_bytes(take);
            self.retransmitted_segments += 1;
            effects.segments.push(self.data_segment(self.snd_una, chunk, cfg));
        } else if self.fin_sent && !self.fin_acked {
            self.retransmitted_segments += 1;
            let fin = self.control_segment(self.fin_seq, self.rcv_nxt, TcpFlags::FIN | TcpFlags::ACK, cfg);
            effects.segments.push(fin);
        }
        // Karn: never sample RTT across retransmissions.
        self.rtt_probe = None;
    }

    /// Handles a retransmission-timer expiry.
    pub fn on_rto(&mut self, _now: SimTime, cfg: &TcpConfig, effects: &mut TcpEffects) {
        if self.is_closed() || !self.needs_timer() {
            return;
        }
        let limit = match self.state {
            TcpState::SynSent | TcpState::SynReceived => cfg.max_syn_retries,
            _ => cfg.max_retries,
        };
        if self.retries >= limit {
            let event = match self.state {
                TcpState::SynSent => TcpEvent::ConnectFailed { conn: self.id },
                TcpState::SynReceived => TcpEvent::ConnectFailed { conn: self.id },
                _ => TcpEvent::Closed { conn: self.id },
            };
            self.state = TcpState::Closed;
            effects.events.push((self.app, event));
            return;
        }
        self.retries += 1;
        match self.state {
            TcpState::SynSent => {
                let iss = self.snd_nxt.wrapping_sub(1);
                self.retransmitted_segments += 1;
                effects.segments.push(self.control_segment(iss, 0, TcpFlags::SYN, cfg));
            }
            TcpState::SynReceived => {
                let iss = self.snd_nxt.wrapping_sub(1);
                self.retransmitted_segments += 1;
                effects.segments.push(self.control_segment(
                    iss,
                    self.rcv_nxt,
                    TcpFlags::SYN | TcpFlags::ACK,
                    cfg,
                ));
            }
            _ => {
                self.recover_point = Some(self.snd_nxt);
                self.retransmit_head(cfg, effects);
                // Multiplicative decrease on loss.
                self.ssthresh = (self.unacked.len() / 2).max(2 * cfg.mss);
                self.cwnd = cfg.mss;
            }
        }
        self.rto = (self.rto * 2).clamp(cfg.min_rto, cfg.max_rto);
    }
}

/// Payload length implied by a header in this codebase.
///
/// Headers travel next to their payload (`on_segment` receives both), so
/// connections never need to reconstruct the length from the header; this
/// helper exists for the FIN sequence-slot computation where the payload
/// has already been consumed.
fn header_payload_len(_header: &TcpHeader) -> usize {
    0
}

/// A passive listener on a local port.
#[derive(Debug, Clone)]
pub struct Listener {
    /// Application receiving `Accepted` events.
    pub app: AppId,
    /// Maximum simultaneous half-open (SYN_RCVD) connections.
    pub backlog: usize,
    /// Connections currently in the half-open state.
    pub half_open: Vec<ConnId>,
    /// SYNs dropped because the backlog was full.
    pub syn_drops: u64,
}

impl Listener {
    /// Creates a listener owned by `app` with the given backlog.
    pub fn new(app: AppId, backlog: usize) -> Self {
        Listener { app, backlog, half_open: Vec::new(), syn_drops: 0 }
    }

    /// `true` if another half-open connection fits in the backlog.
    pub fn has_capacity(&self) -> bool {
        self.half_open.len() < self.backlog
    }
}

/// Per-node TCP state: listeners and live connections.
#[derive(Debug, Default)]
pub struct TcpHost {
    /// Listeners keyed by local port.
    pub listeners: FxHashMap<u16, Listener>,
    /// Live connections keyed by id.
    pub conns: FxHashMap<ConnId, TcpConn>,
    /// Demultiplexing table: (local port, remote addr, remote port) → conn.
    pub by_key: FxHashMap<(u16, Addr, u16), ConnId>,
    next_ephemeral: u16,
    /// RSTs this host sent in response to stray segments.
    pub rst_sent: u64,
    /// Active opens that failed because no ephemeral port was free.
    pub ephemeral_exhausted: u64,
}

impl TcpHost {
    /// Creates an empty host.
    pub fn new() -> Self {
        TcpHost { next_ephemeral: 49_152, ..TcpHost::default() }
    }

    /// Allocates an ephemeral source port not currently in use, or
    /// `None` when all 16 384 ports towards `remote` are taken. Callers
    /// surface the failure as a `ConnectFailed` (feeding retry backoff)
    /// rather than aborting the simulation.
    pub fn alloc_ephemeral(&mut self, remote: (Addr, u16)) -> Option<u16> {
        for _ in 0..16_384 {
            let port = self.next_ephemeral;
            self.next_ephemeral =
                if self.next_ephemeral == u16::MAX { 49_152 } else { self.next_ephemeral + 1 };
            if !self.by_key.contains_key(&(port, remote.0, remote.1)) {
                return Some(port);
            }
        }
        self.ephemeral_exhausted += 1;
        None
    }

    /// Removes a connection and its demux entry.
    pub fn remove_conn(&mut self, conn_id: ConnId) {
        if let Some(conn) = self.conns.remove(&conn_id) {
            self.by_key.remove(&(conn.local.1, conn.remote.0, conn.remote.1));
            for listener in self.listeners.values_mut() {
                listener.half_open.retain(|&c| c != conn_id);
            }
        }
    }

    /// Marks a half-open connection as promoted out of its listener backlog.
    pub fn promote_half_open(&mut self, port: u16, conn_id: ConnId) {
        if let Some(listener) = self.listeners.get_mut(&port) {
            listener.half_open.retain(|&c| c != conn_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Transport;

    const A: Addr = Addr::new(10, 0, 0, 1);
    const B: Addr = Addr::new(10, 0, 0, 2);

    /// Shuttles every pending segment between two connections until quiet.
    /// An optional filter can drop segments to simulate loss.
    fn pump(
        a: &mut TcpConn,
        b: &mut TcpConn,
        cfg: &TcpConfig,
        mut drop_nth: Option<usize>,
    ) -> Vec<(AppId, TcpEvent)> {
        let mut events = Vec::new();
        let mut fx_a = TcpEffects::new();
        let mut fx_b = TcpEffects::new();
        let now = SimTime::ZERO;
        let mut count = 0usize;
        loop {
            let mut moved = false;
            let segs_a: Vec<Packet> = std::mem::take(&mut fx_a.segments);
            for seg in segs_a {
                count += 1;
                if drop_nth == Some(count) {
                    drop_nth = None;
                    continue;
                }
                if let Transport::Tcp(h) = seg.transport {
                    b.on_segment(now, &h, seg.payload, cfg, &mut fx_b);
                    moved = true;
                }
            }
            let segs_b: Vec<Packet> = std::mem::take(&mut fx_b.segments);
            for seg in segs_b {
                count += 1;
                if drop_nth == Some(count) {
                    drop_nth = None;
                    continue;
                }
                if let Transport::Tcp(h) = seg.transport {
                    a.on_segment(now, &h, seg.payload, cfg, &mut fx_a);
                    moved = true;
                }
            }
            events.append(&mut fx_a.events);
            events.append(&mut fx_b.events);
            if !moved && fx_a.segments.is_empty() && fx_b.segments.is_empty() {
                break;
            }
        }
        events
    }

    fn pair(cfg: &TcpConfig) -> (TcpConn, TcpConn, Vec<(AppId, TcpEvent)>) {
        let mut fx = TcpEffects::new();
        let mut client = TcpConn::open_active(
            ConnId::from_raw(1),
            AppId::from_raw(0),
            (A, 50_000),
            (B, 80),
            Provenance::Benign,
            1000,
            cfg,
            &mut fx,
        );
        let syn = fx.segments.remove(0);
        let Transport::Tcp(syn_h) = syn.transport else { panic!("not tcp") };
        assert!(syn_h.flags.contains(TcpFlags::SYN));

        let mut fx2 = TcpEffects::new();
        let mut server = TcpConn::open_passive(
            ConnId::from_raw(2),
            AppId::from_raw(1),
            (B, 80),
            (A, 50_000),
            Provenance::Benign,
            7000,
            syn_h.seq,
            cfg,
            &mut fx2,
        );
        // Deliver SYN-ACK to the client, then its ACK to the server.
        let syn_ack = fx2.segments.remove(0);
        let Transport::Tcp(sa_h) = syn_ack.transport else { panic!("not tcp") };
        let mut fx3 = TcpEffects::new();
        client.on_segment(SimTime::ZERO, &sa_h, Bytes::new(), cfg, &mut fx3);
        let mut events: Vec<_> = fx3.events.clone();
        let ack = fx3.segments.remove(0);
        let Transport::Tcp(ack_h) = ack.transport else { panic!("not tcp") };
        let mut fx4 = TcpEffects::new();
        server.on_segment(SimTime::ZERO, &ack_h, Bytes::new(), cfg, &mut fx4);
        events.extend(fx4.events);
        (client, server, events)
    }

    #[test]
    fn three_way_handshake_establishes_both_sides() {
        let cfg = TcpConfig::default();
        let (client, server, events) = pair(&cfg);
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        assert!(events.iter().any(|(_, e)| matches!(e, TcpEvent::Connected { .. })));
        assert!(events.iter().any(|(_, e)| matches!(e, TcpEvent::Accepted { .. })));
    }

    #[test]
    fn data_flows_in_order() {
        let cfg = TcpConfig::default();
        let (mut client, mut server, _) = pair(&cfg);
        let mut fx = TcpEffects::new();
        let message = vec![42u8; 5000]; // spans several MSS
        client.send(&message, SimTime::ZERO, &cfg, &mut fx);
        // Move client's queued segments to the server through the pump.
        let mut received = Vec::new();
        let mut fx_b = TcpEffects::new();
        for seg in fx.segments.drain(..) {
            if let Transport::Tcp(h) = seg.transport {
                server.on_segment(SimTime::ZERO, &h, seg.payload, &cfg, &mut fx_b);
            }
        }
        for (_, ev) in fx_b.events.drain(..) {
            if let TcpEvent::Data { data, .. } = ev {
                received.extend_from_slice(&data);
            }
        }
        assert_eq!(received, message);
        assert_eq!(server.bytes_received(), 5000);
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let cfg = TcpConfig::default();
        let (mut client, mut server, _) = pair(&cfg);
        let mut fx = TcpEffects::new();
        client.send(&[1u8; 1460], SimTime::ZERO, &cfg, &mut fx);
        client.send(&[2u8; 1460], SimTime::ZERO, &cfg, &mut fx);
        assert_eq!(fx.segments.len(), 2);
        let seg1 = fx.segments.remove(0);
        let seg2 = fx.segments.remove(0);
        let mut fx_b = TcpEffects::new();
        // Deliver the second segment first.
        if let Transport::Tcp(h) = seg2.transport {
            server.on_segment(SimTime::ZERO, &h, seg2.payload, &cfg, &mut fx_b);
        }
        assert!(fx_b.events.iter().all(|(_, e)| !matches!(e, TcpEvent::Data { .. })));
        if let Transport::Tcp(h) = seg1.transport {
            server.on_segment(SimTime::ZERO, &h, seg1.payload, &cfg, &mut fx_b);
        }
        let data: Vec<u8> = fx_b
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                TcpEvent::Data { data, .. } => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(data.len(), 2920);
        assert_eq!(&data[..1460], &[1u8; 1460]);
        assert_eq!(&data[1460..], &[2u8; 1460]);
    }

    #[test]
    fn rto_retransmits_lost_segment() {
        let cfg = TcpConfig::default();
        let (mut client, mut server, _) = pair(&cfg);
        let mut fx = TcpEffects::new();
        client.send(b"hello", SimTime::ZERO, &cfg, &mut fx);
        // Lose the segment entirely; fire the RTO.
        fx.segments.clear();
        assert!(client.needs_timer());
        client.on_rto(SimTime::from_secs(1), &cfg, &mut fx);
        assert_eq!(fx.segments.len(), 1);
        assert_eq!(client.retransmitted_segments(), 1);
        let seg = fx.segments.remove(0);
        let mut fx_b = TcpEffects::new();
        if let Transport::Tcp(h) = seg.transport {
            server.on_segment(SimTime::from_secs(1), &h, seg.payload, &cfg, &mut fx_b);
        }
        let got: Vec<u8> = fx_b
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                TcpEvent::Data { data, .. } => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(got, b"hello");
    }

    #[test]
    fn rto_backoff_doubles_and_gives_up() {
        let cfg = TcpConfig::default();
        let mut fx = TcpEffects::new();
        let mut conn = TcpConn::open_active(
            ConnId::from_raw(1),
            AppId::from_raw(0),
            (A, 50_000),
            (B, 80),
            Provenance::Benign,
            1,
            &cfg,
            &mut fx,
        );
        let rto0 = conn.rto();
        for _ in 0..cfg.max_syn_retries {
            conn.on_rto(SimTime::ZERO, &cfg, &mut fx);
        }
        assert!(conn.rto() > rto0);
        // One more expiry exceeds the retry budget.
        fx.events.clear();
        conn.on_rto(SimTime::ZERO, &cfg, &mut fx);
        assert!(conn.is_closed());
        assert!(matches!(fx.events[0].1, TcpEvent::ConnectFailed { .. }));
    }

    #[test]
    fn graceful_close_closes_both_sides() {
        let cfg = TcpConfig::default();
        let (mut client, mut server, _) = pair(&cfg);
        let mut fx = TcpEffects::new();
        client.close(SimTime::ZERO, &cfg, &mut fx);
        assert_eq!(client.state(), TcpState::FinWait);
        // Server receives FIN, then closes its side too.
        let mut all_events = Vec::new();
        let fin = fx.segments.remove(0);
        let mut fx_b = TcpEffects::new();
        if let Transport::Tcp(h) = fin.transport {
            server.on_segment(SimTime::ZERO, &h, fin.payload, &cfg, &mut fx_b);
        }
        all_events.append(&mut fx_b.events);
        assert_eq!(server.state(), TcpState::CloseWait);
        server.close(SimTime::ZERO, &cfg, &mut fx_b);
        all_events.extend(pump(&mut client, &mut server, &cfg, None));
        // Deliver outstanding segments from fx_b to client manually.
        let mut fx_a = TcpEffects::new();
        for seg in fx_b.segments.drain(..) {
            if let Transport::Tcp(h) = seg.transport {
                client.on_segment(SimTime::ZERO, &h, seg.payload, &cfg, &mut fx_a);
            }
        }
        // And the client's final ACK back to the server.
        for seg in fx_a.segments.drain(..) {
            if let Transport::Tcp(h) = seg.transport {
                server.on_segment(SimTime::ZERO, &h, seg.payload, &cfg, &mut fx_b);
            }
        }
        all_events.extend(fx_a.events);
        all_events.extend(fx_b.events);
        assert!(client.is_closed(), "client state {:?}", client.state());
        assert!(server.is_closed(), "server state {:?}", server.state());
        assert!(all_events.iter().any(|(_, e)| matches!(e, TcpEvent::PeerClosed { .. })));
        let closed = all_events.iter().filter(|(_, e)| matches!(e, TcpEvent::Closed { .. })).count();
        assert_eq!(closed, 2);
    }

    #[test]
    fn abort_emits_rst_and_resets_peer() {
        let cfg = TcpConfig::default();
        let (mut client, mut server, _) = pair(&cfg);
        let mut fx = TcpEffects::new();
        client.abort(&cfg, &mut fx);
        assert!(client.is_closed());
        let rst = fx.segments.remove(0);
        assert!(rst.tcp_flags().contains(TcpFlags::RST));
        let mut fx_b = TcpEffects::new();
        if let Transport::Tcp(h) = rst.transport {
            server.on_segment(SimTime::ZERO, &h, rst.payload, &cfg, &mut fx_b);
        }
        assert!(server.is_closed());
        assert!(matches!(fx_b.events[0].1, TcpEvent::Closed { .. }));
    }

    #[test]
    fn cwnd_grows_on_acks() {
        let cfg = TcpConfig { initial_cwnd: MSS, ..TcpConfig::default() };
        let (mut client, mut server, _) = pair(&cfg);
        // open_active used default initial_cwnd from cfg — re-check growth:
        let before = client.cwnd();
        let mut fx = TcpEffects::new();
        client.send(&vec![0u8; MSS], SimTime::ZERO, &cfg, &mut fx);
        let seg = fx.segments.remove(0);
        let mut fx_b = TcpEffects::new();
        if let Transport::Tcp(h) = seg.transport {
            server.on_segment(SimTime::ZERO, &h, seg.payload, &cfg, &mut fx_b);
        }
        let ack = fx_b.segments.remove(0);
        let mut fx_a = TcpEffects::new();
        if let Transport::Tcp(h) = ack.transport {
            client.on_segment(SimTime::ZERO, &h, ack.payload, &cfg, &mut fx_a);
        }
        assert!(client.cwnd() > before, "cwnd {} !> {}", client.cwnd(), before);
    }

    #[test]
    fn listener_backlog_tracks_capacity() {
        let mut listener = Listener::new(AppId::from_raw(0), 2);
        assert!(listener.has_capacity());
        listener.half_open.push(ConnId::from_raw(1));
        listener.half_open.push(ConnId::from_raw(2));
        assert!(!listener.has_capacity());
    }

    #[test]
    fn ephemeral_ports_do_not_collide() {
        let mut host = TcpHost::new();
        let remote = (B, 80);
        let p1 = host.alloc_ephemeral(remote).expect("fresh host has free ports");
        host.by_key.insert((p1, remote.0, remote.1), ConnId::from_raw(1));
        let p2 = host.alloc_ephemeral(remote).expect("one port used, 16383 free");
        assert_ne!(p1, p2);
    }

    /// Regression (swarm bugfix sweep): exhausting the 16 384-port
    /// ephemeral range towards one remote used to `panic!` and abort the
    /// whole simulation; it now reports failure so the caller can emit
    /// `ConnectFailed` into retry backoff.
    #[test]
    fn ephemeral_exhaustion_returns_none_instead_of_panicking() {
        let mut host = TcpHost::new();
        let remote = (B, 80);
        for _ in 0..16_384 {
            let p = host.alloc_ephemeral(remote).expect("range not yet full");
            host.by_key.insert((p, remote.0, remote.1), ConnId::from_raw(p as u64));
        }
        assert_eq!(host.alloc_ephemeral(remote), None);
        assert_eq!(host.ephemeral_exhausted, 1);
        // A different remote still has its whole range free.
        assert!(host.alloc_ephemeral((A, 80)).is_some());
    }

    /// Property test: random push/pop/peek/drain sequences keep the
    /// ChunkQueue byte-for-byte equal to a flat reference Vec, and the
    /// internal length accounting (checked by debug asserts inside every
    /// mutation) never diverges.
    #[test]
    fn chunk_queue_matches_flat_reference_under_random_ops() {
        use crate::rng::SimRng;
        for seed in 0..16u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut q = ChunkQueue::default();
            let mut reference: Vec<u8> = Vec::new();
            let mut next_byte = 0u8;
            for _ in 0..400 {
                match rng.below(4) {
                    0 => {
                        let n = rng.int_range(0, 3 * MSS as u64) as usize;
                        let chunk: Vec<u8> = (0..n)
                            .map(|_| {
                                next_byte = next_byte.wrapping_add(1);
                                next_byte
                            })
                            .collect();
                        reference.extend_from_slice(&chunk);
                        q.push(Bytes::from(chunk));
                    }
                    1 if !q.is_empty() => {
                        let take = rng.int_range(1, q.len() as u64) as usize;
                        let got = q.pop_front_bytes(take);
                        let want: Vec<u8> = reference.drain(..take).collect();
                        assert_eq!(&got[..], &want[..], "seed {seed} pop mismatch");
                    }
                    2 if !q.is_empty() => {
                        let take = rng.int_range(1, q.len() as u64) as usize;
                        let got = q.peek_front_bytes(take);
                        assert_eq!(&got[..], &reference[..take], "seed {seed} peek mismatch");
                    }
                    3 if !q.is_empty() => {
                        let n = rng.int_range(0, q.len() as u64) as usize;
                        q.drain_front(n);
                        reference.drain(..n);
                    }
                    _ => {}
                }
                assert_eq!(q.len(), reference.len(), "seed {seed} length diverged");
            }
        }
    }

    /// Property test for the reassembly path the buggify layer stresses:
    /// deliver a multi-segment message with random reordering and
    /// duplication (whole segments, as the simulator produces them) and
    /// require the receiver to deliver exactly the original bytes, with
    /// no `expect` panics from the ooo map.
    #[test]
    fn reassembly_survives_random_reorder_and_duplication() {
        use crate::packet::Transport;
        use crate::rng::SimRng;
        let cfg = TcpConfig { initial_cwnd: 64 * MSS, ..TcpConfig::default() };
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from(0xb1ff ^ seed);
            let (mut client, mut server, _) = pair(&cfg);
            let message: Vec<u8> = (0..20 * MSS).map(|i| (i % 251) as u8).collect();
            let mut fx = TcpEffects::new();
            client.send(&message, SimTime::ZERO, &cfg, &mut fx);
            let mut segs = fx.segments;
            // Duplicate a few segments, then shuffle the whole batch.
            for _ in 0..4 {
                let pick = rng.below(segs.len() as u64) as usize;
                let dup = segs[pick].clone();
                segs.push(dup);
            }
            rng.shuffle(&mut segs);
            let mut fx_b = TcpEffects::new();
            for seg in segs {
                if let Transport::Tcp(h) = seg.transport {
                    server.on_segment(SimTime::ZERO, &h, seg.payload, &cfg, &mut fx_b);
                }
            }
            let received: Vec<u8> = fx_b
                .events
                .iter()
                .filter_map(|(_, e)| match e {
                    TcpEvent::Data { data, .. } => Some(data.to_vec()),
                    _ => None,
                })
                .flatten()
                .collect();
            assert_eq!(received.len(), message.len(), "seed {seed} byte count");
            assert_eq!(received, message, "seed {seed} content");
        }
    }

    /// Shaken out by the buggify swarm (tcp.rto.early + link reorder):
    /// an RTO resend re-chunks the stream from `snd_una`, so a buffered
    /// out-of-order segment can be *partially* covered by the resend.
    /// The drain loop used to drop such a segment whole, losing its
    /// unseen tail until yet another retransmission round-trip.
    #[test]
    fn partially_stale_ooo_segment_delivers_its_unseen_tail() {
        let cfg = TcpConfig::default();
        let (_client, mut server, _) = pair(&cfg);
        let mut fx = TcpEffects::new();
        let base = server.rcv_nxt;
        // Original segment [100, 200) arrives first, buffered in ooo.
        server.process_payload(base.wrapping_add(100), Bytes::from(vec![1u8; 100]), &cfg, &mut fx);
        // The RTO resend re-chunks from snd_una: [0, 150) fills the gap
        // and overlaps the buffered segment's first 50 bytes.
        server.process_payload(base, Bytes::from(vec![2u8; 150]), &cfg, &mut fx);
        let delivered: usize = fx
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                TcpEvent::Data { data, .. } => Some(data.len()),
                _ => None,
            })
            .sum();
        assert_eq!(delivered, 200, "the unseen tail [150, 200) must deliver, not drop");
        assert_eq!(server.rcv_nxt, base.wrapping_add(200));
        assert!(server.ooo.is_empty());
    }

    #[test]
    fn seq_comparisons_wrap() {
        assert!(seq_lt(u32::MAX - 1, 2));
        assert!(seq_lt(0, 1));
        assert!(!seq_lt(1, 0));
        assert!(seq_le(5, 5));
    }

    #[test]
    fn send_after_close_is_ignored() {
        let cfg = TcpConfig::default();
        let (mut client, _server, _) = pair(&cfg);
        let mut fx = TcpEffects::new();
        client.close(SimTime::ZERO, &cfg, &mut fx);
        fx.segments.clear();
        client.send(b"late", SimTime::ZERO, &cfg, &mut fx);
        assert!(fx.segments.is_empty());
    }
}
