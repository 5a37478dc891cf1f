//! The discrete-event core: event kinds and the time-ordered queue.
//!
//! Events are plain data (no closures), dispatched by the
//! [`World`](crate::world::World) loop. Ties at equal timestamps break on
//! a monotonically increasing sequence number, which makes execution order
//! a *total* order and therefore the whole simulation deterministic.
//!
//! The queue itself is a hierarchical timer wheel (4 levels × 64 slots,
//! ~1 µs ticks) with a [`BinaryHeap`] spillover for far-future events:
//! `schedule`/`pop` touch one slot instead of sifting a heap of every
//! pending event. Wheel entries live in one slab arena threaded through
//! intrusive free/slot lists, so constructing a queue allocates nothing,
//! cascading a slot is pure pointer relinking, and a warmed-up
//! simulation schedules and pops without allocating (the arena, ready
//! run and overflow heap all keep their high-water capacity).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

use crate::faults::FaultAction;
use crate::ids::{AppId, ConnId, LinkId, NodeId, TimerId};
use crate::pool::PacketId;
use crate::time::SimTime;

/// A scheduled occurrence inside the simulator.
#[derive(Debug, Clone)]
pub enum Event {
    /// A lane of a link finished serialising its head-of-queue packet.
    LinkTxComplete {
        /// The link that finished transmitting.
        link: LinkId,
        /// Index of the transmitting lane within the link.
        lane: usize,
    },
    /// A packet arrives at a node after the link propagation delay.
    ///
    /// Carries a pool handle, not the packet body: heap sifts move a
    /// few machine words, and the body lives in the kernel's
    /// [`PacketPool`](crate::pool::PacketPool) until the last receiver
    /// releases it.
    Deliver {
        /// The link the packet travelled on.
        link: LinkId,
        /// The receiving node.
        node: NodeId,
        /// Pool handle of the delivered packet.
        packet: PacketId,
    },
    /// A TCP retransmission timer fired.
    TcpTimer {
        /// Node owning the connection.
        node: NodeId,
        /// The connection.
        conn: ConnId,
        /// Generation stamp; stale timers (generation mismatch) are ignored.
        generation: u64,
    },
    /// An application timer fired.
    AppTimer {
        /// The application to notify.
        app: AppId,
        /// Caller-chosen token passed back to the application.
        token: u64,
        /// Identity of this timer, for cancellation.
        timer: TimerId,
    },
    /// An application should run its `on_start` hook.
    AppStart {
        /// The application to start.
        app: AppId,
    },
    /// A node changes administrative state (churn: device leaves/rejoins).
    SetNodeUp {
        /// The node affected.
        node: NodeId,
        /// `true` to bring the node up, `false` to take it down.
        up: bool,
    },
    /// A scheduled fault-plan transition fires (link flap, loss
    /// override, throttle, CPU pressure — see [`FaultAction`]).
    Fault {
        /// The transition to apply.
        action: FaultAction,
    },
    /// An active open failed before any segment left the node (e.g.
    /// ephemeral-port exhaustion). Delivered through the queue so the
    /// caller of `tcp_connect` observes `ConnectFailed` asynchronously,
    /// like every other failed open, instead of re-entrantly.
    TcpConnectFailed {
        /// The application that attempted the connect.
        app: AppId,
        /// The connection id handed back to the caller.
        conn: ConnId,
    },
}

#[derive(Debug)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Tick granularity: 2^10 ns ≈ 1 µs. Coarser than packet timestamps, so
/// ordering *within* a tick always comes from the `(time, seq)` sort of
/// the drained slot, never from slot placement.
const TICK_SHIFT: u32 = 10;
/// log2 of the slots per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (must match the `u64` occupancy bitmap).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels; spans `SLOTS^LEVELS` ticks ≈ 17 s of simulated time
/// before events spill into the overflow heap.
const LEVELS: usize = 4;
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Null link in the slab arena's intrusive lists.
const NIL: u32 = u32::MAX;

/// One slab-arena cell: a scheduled event plus the intrusive link that
/// threads it onto a slot list (or the free list once recycled). Cells
/// are never deallocated individually — freeing pushes the index onto
/// the free list, so a warmed-up wheel recycles nodes without touching
/// the allocator. Keeping the link inline (rather than a `Vec` per
/// slot) is what lets 256 slots exist with zero up-front allocation.
#[derive(Debug)]
struct Node {
    item: Scheduled,
    next: u32,
}

#[inline]
fn tick_of(time: SimTime) -> u64 {
    time.as_nanos() >> TICK_SHIFT
}

/// Smallest occupied slot strictly after `idx`, if any.
#[inline]
fn next_occupied(occ: u64, idx: usize) -> Option<usize> {
    let ahead = if idx + 1 >= SLOTS { 0 } else { occ & (u64::MAX << (idx + 1)) };
    if ahead == 0 {
        None
    } else {
        Some(ahead.trailing_zeros() as usize)
    }
}

/// A deterministic time-ordered event queue.
///
/// Internally a hierarchical timer wheel: level `k` holds events whose
/// tick shares the cursor's `64^(k+1)`-tick window but not the
/// `64^k`-tick one, slotted by tick digit `k`. Events beyond the top
/// window live in a spillover min-heap; events at or before the cursor
/// sit in a sorted ready run. The cursor only moves forward, hopping
/// directly to the next occupied slot (no tick-by-tick idling), and
/// every slot drain re-sorts by `(time, seq)` — so pops are globally
/// ordered and same-time events still pop in insertion order, exactly
/// like the plain binary heap this replaces.
///
/// ```
/// use netsim::event::{Event, EventQueue};
/// use netsim::ids::AppId;
/// use netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), Event::AppStart { app: AppId::from_raw(0) });
/// q.schedule(SimTime::from_secs(1), Event::AppStart { app: AppId::from_raw(1) });
/// let (t, _) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_secs(1));
/// ```
#[derive(Debug)]
pub struct EventQueue {
    /// Events with tick ≤ `cur`, sorted by `(time, seq)` — the pop front.
    ready: VecDeque<Scheduled>,
    /// Slab storage for every event filed in the wheel.
    arena: Vec<Node>,
    /// Head of the intrusive free list of recycled arena cells.
    free_head: u32,
    /// Per-slot list heads into `arena`; `NIL` exactly where `occupied`
    /// has a clear bit.
    heads: [[u32; SLOTS]; LEVELS],
    /// Per-level occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Far-future events (tick outside the cursor's top-level window).
    overflow: BinaryHeap<Scheduled>,
    /// Reused buffer for sorting a drained level-0 slot.
    scratch: Vec<Scheduled>,
    /// Cursor tick. Monotonic; all wheel events are strictly after it.
    cur: u64,
    len: usize,
    next_seq: u64,
    scheduled_total: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            ready: VecDeque::new(),
            arena: Vec::new(),
            free_head: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            cur: 0,
            len: 0,
            next_seq: 0,
            scheduled_total: 0,
        }
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.len += 1;
        self.insert(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_if(|_| true)
    }

    /// Removes and returns the earliest event if `due` accepts its
    /// timestamp; otherwise leaves the queue as it was and returns
    /// `None`. One call does what [`Self::peek_time`] followed by
    /// [`Self::pop`] would, with a single refill of the ready run —
    /// the event loop's bounded runs pop through this.
    pub fn pop_if(&mut self, due: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, Event)> {
        self.refill_ready();
        if !due(self.ready.front()?.time) {
            return None;
        }
        let s = self.ready.pop_front()?;
        self.len -= 1;
        Some((s.time, s.event))
    }

    /// Timestamp of the earliest pending event.
    ///
    /// Takes `&mut self`: peeking may advance the wheel cursor to the
    /// next occupied slot (which never changes *what* is earliest, only
    /// where it is stored).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.refill_ready();
        self.ready.front().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (including processed ones).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Files one event into the ready run, the wheel, or the overflow.
    ///
    /// Level choice is by *window sharing*, not delta: the event goes to
    /// the smallest level whose window (tick with the low `6·(k+1)` bits
    /// dropped) matches the cursor's. Delta-based placement would let an
    /// event land in a slot the cursor has already passed this rotation;
    /// window sharing makes every chosen slot strictly ahead of the
    /// cursor's index at that level.
    fn insert(&mut self, s: Scheduled) {
        let t = tick_of(s.time);
        if t <= self.cur {
            let pos = self.ready.partition_point(|e| (e.time, e.seq) < (s.time, s.seq));
            self.ready.insert(pos, s);
            return;
        }
        if let Some((k, slot)) = self.wheel_home(t) {
            let idx = self.alloc_node(s);
            self.link(k, slot, idx);
            return;
        }
        self.overflow.push(s);
    }

    /// `(level, slot)` for tick `t`, or `None` when `t` lies outside the
    /// cursor's top-level window (→ overflow heap). Level choice is the
    /// window-sharing rule documented on [`Self::insert`].
    #[inline]
    fn wheel_home(&self, t: u64) -> Option<(usize, usize)> {
        for k in 0..LEVELS {
            let window_shift = LEVEL_BITS * (k as u32 + 1);
            if t >> window_shift == self.cur >> window_shift {
                let slot = ((t >> (LEVEL_BITS * k as u32)) & SLOT_MASK) as usize;
                return Some((k, slot));
            }
        }
        None
    }

    /// Takes a cell from the free list, or grows the slab.
    fn alloc_node(&mut self, item: Scheduled) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.arena[idx as usize];
            self.free_head = node.next;
            node.item = item;
            return idx;
        }
        debug_assert!(self.arena.len() < NIL as usize, "slab index space exhausted");
        self.arena.push(Node { item, next: NIL });
        (self.arena.len() - 1) as u32
    }

    /// Returns a cell to the free list (its stale item stays in place
    /// until the cell is reused).
    fn free_node(&mut self, idx: u32) {
        self.arena[idx as usize].next = self.free_head;
        self.free_head = idx;
    }

    /// Pushes cell `idx` onto the head of a slot list.
    fn link(&mut self, level: usize, slot: usize, idx: u32) {
        self.arena[idx as usize].next = self.heads[level][slot];
        self.heads[level][slot] = idx;
        self.occupied[level] |= 1 << slot;
    }

    /// Moves the event out of cell `idx`, leaving a placeholder.
    fn take_item(&mut self, idx: u32) -> Scheduled {
        let placeholder =
            Scheduled { time: SimTime::ZERO, seq: 0, event: Event::AppStart { app: AppId::from_raw(0) } };
        mem::replace(&mut self.arena[idx as usize].item, placeholder)
    }

    /// Re-files one cascading cell after a cursor jump: relinks it into
    /// its new (strictly lower) wheel slot without touching the event,
    /// or — when its tick now sits at the cursor — recycles the cell and
    /// moves the event into the ready run.
    fn refile(&mut self, idx: u32) {
        let t = tick_of(self.arena[idx as usize].item.time);
        if t > self.cur {
            if let Some((k, slot)) = self.wheel_home(t) {
                self.link(k, slot, idx);
                return;
            }
            // Unreachable in practice: a cascaded event shared the old
            // cursor's window and the cursor only moved forward inside
            // it. `insert` below still files it correctly if not.
        }
        let s = self.take_item(idx);
        self.free_node(idx);
        self.insert(s);
    }

    /// Ensures the ready run is non-empty unless the queue is drained.
    fn refill_ready(&mut self) {
        while self.ready.is_empty() {
            if !self.advance() {
                return;
            }
        }
    }

    /// One cursor hop toward the next pending event. Drains the nearest
    /// occupied level-0 slot into the ready run, or cascades one
    /// higher-level slot (re-filing its events a level down), or pulls
    /// the next top-level window out of the overflow heap. Returns
    /// `false` when nothing is pending outside the ready run.
    ///
    /// Lower levels are always exhausted first: a level-k event shares
    /// the cursor's level-k window but not its level-(k-1) window, so it
    /// is strictly later than every event still filed below level k.
    fn advance(&mut self) -> bool {
        // Level 0 drains straight into the ready run.
        let idx0 = (self.cur & SLOT_MASK) as usize;
        if let Some(slot) = next_occupied(self.occupied[0], idx0) {
            self.cur = (self.cur & !SLOT_MASK) | slot as u64;
            self.occupied[0] &= !(1 << slot);
            let mut idx = mem::replace(&mut self.heads[0][slot], NIL);
            debug_assert!(self.scratch.is_empty());
            while idx != NIL {
                let next = self.arena[idx as usize].next;
                let item = self.take_item(idx);
                self.free_node(idx);
                self.scratch.push(item);
                idx = next;
            }
            self.scratch.sort_unstable_by_key(|e| (e.time, e.seq));
            self.ready.extend(self.scratch.drain(..));
            return true;
        }
        // Higher levels cascade: jump the cursor to the slot's window
        // start, then re-file each event. It lands a level down — a pure
        // relink of the same slab cell — or, when it sits exactly on the
        // new cursor tick, moves into the ready run.
        for k in 1..LEVELS {
            let shift = LEVEL_BITS * k as u32;
            let idx_k = ((self.cur >> shift) & SLOT_MASK) as usize;
            if let Some(slot) = next_occupied(self.occupied[k], idx_k) {
                let window = 1u64 << (shift + LEVEL_BITS);
                self.cur = (self.cur & !(window - 1)) | ((slot as u64) << shift);
                self.occupied[k] &= !(1 << slot);
                let mut idx = mem::replace(&mut self.heads[k][slot], NIL);
                while idx != NIL {
                    let next = self.arena[idx as usize].next;
                    self.refile(idx);
                    idx = next;
                }
                return true;
            }
        }
        // Wheel exhausted: jump to the earliest far-future window and
        // pull every overflow event that shares it.
        let Some(min) = self.overflow.peek() else {
            return false;
        };
        let top_shift = LEVEL_BITS * LEVELS as u32;
        self.cur = (tick_of(min.time) >> top_shift) << top_shift;
        while let Some(top) = self.overflow.peek() {
            if tick_of(top.time) >> top_shift != self.cur >> top_shift {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry");
            self.insert(e);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(app: u32) -> Event {
        Event::AppStart { app: AppId::from_raw(app) }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), start(3));
        q.schedule(SimTime::from_secs(1), start(1));
        q.schedule(SimTime::from_secs(2), start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.whole_secs()).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_secs(5), start(i));
        }
        let mut seen = Vec::new();
        while let Some((_, Event::AppStart { app })) = q.pop() {
            seen.push(app.as_raw());
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    /// The whole point of pooling packet bodies: every heap sift moves a
    /// few machine words. If `Event` (and thus `Scheduled`) ever grows
    /// back towards carrying a packet body inline — `Packet` alone is
    /// well over 40 bytes before its payload — this pins the regression.
    #[test]
    fn scheduled_events_stay_small() {
        assert!(
            std::mem::size_of::<Event>() <= 40,
            "Event grew to {} bytes; keep packet bodies in the pool",
            std::mem::size_of::<Event>()
        );
        assert!(std::mem::size_of::<Scheduled>() <= 56);
        assert!(std::mem::size_of::<Node>() <= 64, "slab cell outgrew a cache line");
        assert_eq!(std::mem::size_of::<crate::pool::PacketId>(), 8);
    }

    /// Randomized schedule/pop interleavings against a sorted-`Vec`
    /// reference queue: deltas span every wheel level plus the overflow
    /// heap, with duplicate timestamps to exercise the FIFO tie-break,
    /// and pops may be followed by scheduling "in the past" relative to
    /// the wheel cursor (the ready-run insert path).
    #[test]
    fn wheel_matches_sorted_reference_across_random_workloads() {
        for seed in 0..8u64 {
            let mut rng = crate::rng::SimRng::seed_from(seed);
            let mut q = EventQueue::new();
            let mut reference: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut seq = 0u64;
            let mut id = 0u32;
            let mut now = 0u64;
            let mut ops = 0;
            while ops < 3000 || !reference.is_empty() {
                ops += 1;
                let scheduling = ops < 3000 && (reference.is_empty() || rng.chance(0.55));
                if scheduling {
                    let delta = match rng.below(5) {
                        0 => 0, // exact duplicate of `now`
                        1 => rng.below(1 << 8),
                        2 => rng.below(1 << 14), // level 1-2 spans
                        3 => rng.below(1 << 24), // level 3 span
                        _ => rng.below(1 << 38), // overflow heap
                    };
                    let t = SimTime::from_nanos(now + delta);
                    q.schedule(t, start(id));
                    reference.push((t, seq, id));
                    seq += 1;
                    id += 1;
                } else {
                    let min = reference
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| (e.0, e.1))
                        .map(|(i, _)| i)
                        .expect("reference non-empty");
                    let (rt, _, rid) = reference.remove(min);
                    if rng.chance(0.3) {
                        // A strict bound at exactly the due time (what
                        // `run_before` passes) declines and leaves the
                        // queue untouched.
                        assert!(q.pop_if(|t| t < rt).is_none(), "seed {seed} op {ops}");
                        assert_eq!(q.len(), reference.len() + 1);
                    }
                    let popped = match rng.below(3) {
                        0 => {
                            assert_eq!(q.peek_time(), Some(rt), "seed {seed} op {ops}");
                            q.pop()
                        }
                        // `run_until`'s inclusive bound at the due time.
                        1 => q.pop_if(|t| t <= rt),
                        // `run_before`'s strict bound just past it.
                        _ => {
                            let horizon = SimTime::from_nanos(rt.as_nanos() + 1);
                            q.pop_if(|t| t < horizon)
                        }
                    };
                    let (t, Event::AppStart { app }) = popped.expect("queue non-empty") else {
                        panic!("unexpected event kind");
                    };
                    assert_eq!((t, app.as_raw()), (rt, rid), "seed {seed} op {ops}");
                    now = t.as_nanos();
                }
                assert_eq!(q.len(), reference.len());
            }
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            assert!(q.pop_if(|_| true).is_none());
        }
    }

    /// The sharded-run access pattern, pinned against a `BinaryHeap`
    /// oracle: every synchronization window peeks the queue (advancing
    /// the wheel cursor — possibly deep into the far future when only
    /// an overflow-heap event is pending, i.e. beyond the `SLOTS^LEVELS`
    /// ≈ 17 s horizon) *without popping*, and then boundary-packet
    /// injection schedules events behind that stalled cursor. Those
    /// late arrivals take the ready-run sorted-insert path and must
    /// still pop strictly before the far-future event that dragged the
    /// cursor forward.
    #[test]
    fn stalled_cursor_keeps_heap_order_under_far_future_overflow() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        for seed in 0..6u64 {
            let mut rng = crate::rng::SimRng::seed_from(seed ^ 0x5ead_c0de);
            let mut q = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(SimTime, u64, u32)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut id = 0u32;
            let mut now = 0u64;
            let mut push = |q: &mut EventQueue,
                            oracle: &mut BinaryHeap<Reverse<(SimTime, u64, u32)>>,
                            t: SimTime| {
                q.schedule(t, start(id));
                oracle.push(Reverse((t, seq, id)));
                seq += 1;
                id += 1;
            };
            for round in 0..300u32 {
                // A burst spanning every wheel level plus the overflow
                // heap (deltas past 2^34 ns ≈ the 17 s wheel horizon).
                for _ in 0..1 + rng.below(6) {
                    let delta = match rng.below(6) {
                        0 => 0,
                        1 => rng.below(1 << 8),
                        2 => rng.below(1 << 14),
                        3 => rng.below(1 << 24),
                        4 => rng.below(1 << 34),
                        _ => (1 << 34) + rng.below(1 << 40),
                    };
                    push(&mut q, &mut oracle, SimTime::from_nanos(now + delta));
                }
                // Stall: peek without popping. When the only pending
                // events are far-future this walks the cursor across
                // empty windows (and drains the overflow heap into the
                // wheel) while the pop stream stays frozen.
                assert_eq!(
                    q.peek_time(),
                    oracle.peek().map(|Reverse((t, _, _))| *t),
                    "seed {seed} round {round}"
                );
                // Inject behind the stalled cursor: near-`now` arrivals,
                // exactly what cross-shard mailbox delivery schedules
                // after the coordinator peeked the horizon.
                for _ in 0..rng.below(3) {
                    push(&mut q, &mut oracle, SimTime::from_nanos(now + rng.below(1 << 12)));
                }
                for _ in 0..rng.below(5) {
                    let Some(Reverse((rt, _, rid))) = oracle.pop() else { break };
                    let Some((t, Event::AppStart { app })) = q.pop() else {
                        panic!("seed {seed} round {round}: queue ran dry before oracle");
                    };
                    assert_eq!((t, app.as_raw()), (rt, rid), "seed {seed} round {round}");
                    now = t.as_nanos();
                }
                assert_eq!(q.len(), oracle.len(), "seed {seed} round {round}");
            }
            while let Some(Reverse((rt, _, rid))) = oracle.pop() {
                let Some((t, Event::AppStart { app })) = q.pop() else {
                    panic!("seed {seed}: queue ran dry during final drain");
                };
                assert_eq!((t, app.as_raw()), (rt, rid), "seed {seed} final drain");
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn counters_track_scheduling() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, start(0));
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
    }
}
