//! FoundationDB-style buggify: deterministic decision-point perturbation.
//!
//! A *buggify* layer is the inverse of a declarative [`crate::faults`]
//! plan: instead of the scenario author naming the hostile conditions in
//! advance, the simulator itself perturbs every awkward decision point —
//! link deliveries, TCP timers, container lifecycle, the sniffer feed,
//! scheduler tie-breaks — under a dedicated *swarm seed*. Running the
//! same golden scenario over thousands of swarm seeds exposes schedule
//! bugs that a fixed fault plan never reaches, and because every draw is
//! deterministic, a failing seed replays bit-identically.
//!
//! ## Stream discipline
//!
//! Each named [`DecisionPoint`] owns a private [`SimRng`] stream seeded
//! by [`stream_seed`]`(swarm_seed, name)`. Points never share a stream,
//! so adding a decision point (or changing how often one fires) cannot
//! shift the draws of any other point, and none of the simulation's own
//! RNG streams are touched: with buggify disabled the hot path pays one
//! branch on a flag and consumes zero randomness, keeping byte-identity
//! fixtures valid.
//!
//! ## Forks
//!
//! Points evaluated outside the kernel — the sniffer's capture points
//! and the serving layer's `serve.*` and `features.state_cull` points —
//! draw from a [`Buggify::fork`] of the world's instance
//! ([`World::buggify_fork`](crate::world::World::buggify_fork)). A fork
//! has its own streams, seeded exactly as [`Buggify::new`] seeds them,
//! so a layer's draws do not depend on how many draws any other layer
//! made; two forks of one instance draw identical sequences. The shard
//! coordinator evaluates `shard.boundary_delay` on an instance of its
//! own and reports it in [`crate::shard::ShardStats`].
//!
//! ## Observability
//!
//! Every point counts evaluations and fires in one table that the world
//! and all its forks share. The world exports it as
//! `netsim.buggify.<point>.{evals,fires}` gauges — only when buggify is
//! enabled, so disabled telemetry stays byte-identical to the golden
//! fixtures while swarm telemetry stays byte-stable per seed.

use std::cell::Cell;
use std::rc::Rc;

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Scenario-level buggify knob, carried through `ScenarioConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BuggifyConfig {
    /// Master switch. Disabled costs one branch per decision point and
    /// consumes no randomness.
    #[serde(default)]
    pub enabled: bool,
    /// Swarm seed keying every decision-point stream. Independent of
    /// the scenario seed: the same workload can be replayed under many
    /// different perturbation schedules.
    #[serde(default)]
    pub swarm_seed: u64,
    /// Global scale on every point's base fire probability, in
    /// `[0, 1]`. `1.0` is the standard swarm intensity.
    #[serde(default = "default_intensity")]
    pub intensity: f64,
}

fn default_intensity() -> f64 {
    1.0
}

impl Default for BuggifyConfig {
    fn default() -> Self {
        BuggifyConfig { enabled: false, swarm_seed: 0, intensity: default_intensity() }
    }
}

impl BuggifyConfig {
    /// An enabled config at standard intensity for the given swarm seed.
    pub fn swarm(swarm_seed: u64) -> Self {
        BuggifyConfig { enabled: true, swarm_seed, intensity: 1.0 }
    }
}

/// Derives the RNG seed for one decision-point stream.
///
/// FNV-1a over the point name, golden-ratio mixed, xored with the swarm
/// seed: distinct names get decorrelated streams, and the mapping is a
/// stable part of the swarm format (a failing seed replays across
/// builds as long as the point keeps its name).
pub fn stream_seed(swarm_seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    swarm_seed ^ h.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Named decision points, one per perturbation the testbed can inject.
///
/// The `&'static str` names are the stable identity of each stream (see
/// [`stream_seed`]) and the label under which fire counters export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum DecisionPoint {
    /// Hold a delivered frame back by a link-scale extra latency.
    LinkExtraDelay,
    /// Reschedule a delivery a few microseconds later, swapping its
    /// order with close neighbours (reorder within bounds).
    LinkReorder,
    /// Deliver one frame twice.
    LinkDuplicate,
    /// Fire a TCP retransmission timer before its RTO elapses.
    TcpRtoEarly,
    /// Fire a TCP retransmission timer after its RTO elapses.
    TcpRtoLate,
    /// Stretch a pure ACK's delivery (delayed-ACK behaviour).
    TcpAckStretch,
    /// Crash the receiving container mid-transfer (brief down/up blip).
    CtrCrashTransfer,
    /// Reboot the receiving container while a handshake SYN is in
    /// flight.
    CtrRebootHandshake,
    /// Nudge an application timer by a few nanoseconds, breaking
    /// same-instant scheduling ties the other way.
    SchedTiebreak,
    /// Sniffer feed: drain only a prefix of the buffered records.
    CaptureDrainPartial,
    /// Sniffer feed: record a truncated wire length for one packet.
    CaptureRecordTruncate,
    /// IDS serving: hold a staged model swap back by extra window
    /// boundaries.
    ServeModelSwapDelay,
    /// IDS serving: treat the ingestion queue as momentarily full,
    /// forcing the tenant's backpressure policy to engage.
    ServeIngestQueueFull,
    /// Sharded simulation: hold a cross-shard packet back by extra
    /// boundary latency beyond the lookahead. Evaluated by the shard
    /// coordinator in deterministic merge order, so the draws are
    /// invariant to the worker-thread count.
    ShardBoundaryDelay,
    /// Feature extraction: force an early stale-key cull of the
    /// incremental per-flow state's generation maps at a window
    /// boundary. Must be semantically invisible — the serving swarm
    /// pairs it with a flow-state-conservation invariant.
    FeaturesStateCull,
}

/// Number of decision points.
pub const POINT_COUNT: usize = 15;

/// All decision points, in export order.
pub const ALL_POINTS: [DecisionPoint; POINT_COUNT] = [
    DecisionPoint::LinkExtraDelay,
    DecisionPoint::LinkReorder,
    DecisionPoint::LinkDuplicate,
    DecisionPoint::TcpRtoEarly,
    DecisionPoint::TcpRtoLate,
    DecisionPoint::TcpAckStretch,
    DecisionPoint::CtrCrashTransfer,
    DecisionPoint::CtrRebootHandshake,
    DecisionPoint::SchedTiebreak,
    DecisionPoint::CaptureDrainPartial,
    DecisionPoint::CaptureRecordTruncate,
    DecisionPoint::ServeModelSwapDelay,
    DecisionPoint::ServeIngestQueueFull,
    DecisionPoint::ShardBoundaryDelay,
    DecisionPoint::FeaturesStateCull,
];

impl DecisionPoint {
    /// The stable stream / export name of this point.
    pub fn name(self) -> &'static str {
        match self {
            DecisionPoint::LinkExtraDelay => "link.deliver.extra_delay",
            DecisionPoint::LinkReorder => "link.deliver.reorder",
            DecisionPoint::LinkDuplicate => "link.deliver.duplicate",
            DecisionPoint::TcpRtoEarly => "tcp.rto.early",
            DecisionPoint::TcpRtoLate => "tcp.rto.late",
            DecisionPoint::TcpAckStretch => "tcp.ack.stretch",
            DecisionPoint::CtrCrashTransfer => "ctr.crash.mid_transfer",
            DecisionPoint::CtrRebootHandshake => "ctr.reboot.handshake",
            DecisionPoint::SchedTiebreak => "sched.tiebreak",
            DecisionPoint::CaptureDrainPartial => "capture.drain.partial",
            DecisionPoint::CaptureRecordTruncate => "capture.record.truncate",
            DecisionPoint::ServeModelSwapDelay => "serve.model_swap_delay",
            DecisionPoint::ServeIngestQueueFull => "serve.ingest_queue_full",
            DecisionPoint::ShardBoundaryDelay => "shard.boundary_delay",
            DecisionPoint::FeaturesStateCull => "features.state_cull",
        }
    }

    /// Base fire probability per evaluation, before the config's
    /// intensity scale. Evaluation sites differ wildly in frequency
    /// (every delivery vs. every RTO re-arm), so each point is tuned
    /// to yield a handful-to-hundreds of fires per golden run.
    pub fn base_probability(self) -> f64 {
        match self {
            DecisionPoint::LinkExtraDelay => 0.01,
            DecisionPoint::LinkReorder => 0.01,
            DecisionPoint::LinkDuplicate => 0.005,
            DecisionPoint::TcpRtoEarly => 0.05,
            DecisionPoint::TcpRtoLate => 0.05,
            DecisionPoint::TcpAckStretch => 0.02,
            DecisionPoint::CtrCrashTransfer => 2e-5,
            DecisionPoint::CtrRebootHandshake => 1e-4,
            DecisionPoint::SchedTiebreak => 0.01,
            DecisionPoint::CaptureDrainPartial => 0.05,
            DecisionPoint::CaptureRecordTruncate => 0.01,
            // Evaluated once per staged swap / once per service tick.
            DecisionPoint::ServeModelSwapDelay => 0.25,
            DecisionPoint::ServeIngestQueueFull => 0.02,
            // Evaluated once per cross-shard packet.
            DecisionPoint::ShardBoundaryDelay => 0.02,
            // Evaluated once per tenant per service tick.
            DecisionPoint::FeaturesStateCull => 0.05,
        }
    }
}

/// A buggify layer: per-point streams plus the `(evals, fires)` table
/// it shares with its forks. The world owns one; see [`Buggify::fork`].
///
/// Constructed disabled by default; [`Buggify::enabled`] is the single
/// branch the hot path pays when the layer is off.
#[derive(Debug)]
pub struct Buggify {
    cfg: BuggifyConfig,
    /// One private stream per point, in [`ALL_POINTS`] order. Empty when
    /// disabled.
    streams: Vec<SimRng>,
    /// Per-point `(evals, fires)`, shared with every fork.
    counts: Rc<[Cell<(u64, u64)>]>,
}

impl Default for Buggify {
    fn default() -> Self {
        Buggify::disabled()
    }
}

impl Buggify {
    /// A disabled instance: no streams are seeded, every fire is `false`.
    pub fn disabled() -> Self {
        Buggify::new(BuggifyConfig::default())
    }

    /// Builds the per-point streams for a config. A disabled config
    /// produces the same state as [`Buggify::disabled`].
    pub fn new(cfg: BuggifyConfig) -> Self {
        let points = if cfg.enabled { POINT_COUNT } else { 0 };
        Buggify::with_counts(cfg, vec![Cell::new((0, 0)); points].into())
    }

    /// A new instance with this one's config and freshly seeded streams
    /// (the same sequences [`Buggify::new`] would draw) that counts its
    /// evaluations and fires into this instance's table.
    pub fn fork(&self) -> Buggify {
        Buggify::with_counts(self.cfg, Rc::clone(&self.counts))
    }

    fn with_counts(cfg: BuggifyConfig, counts: Rc<[Cell<(u64, u64)>]>) -> Self {
        let points: &[DecisionPoint] = if cfg.enabled { &ALL_POINTS } else { &[] };
        let streams =
            points.iter().map(|p| SimRng::seed_from(stream_seed(cfg.swarm_seed, p.name()))).collect();
        Buggify { cfg, streams, counts }
    }

    /// `true` when perturbations are active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The active configuration.
    pub fn config(&self) -> BuggifyConfig {
        self.cfg
    }

    /// Evaluates a decision point: one Bernoulli draw from the point's
    /// private stream. Always `false` (and drawless) when disabled.
    #[inline]
    pub fn fire(&mut self, point: DecisionPoint) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let p = point.base_probability() * self.cfg.intensity;
        let hit = self.streams[point as usize].chance(p);
        let count = &self.counts[point as usize];
        let (evals, fires) = count.get();
        count.set((evals + 1, fires + hit as u64));
        hit
    }

    /// A uniform draw in `[lo, hi)` from the point's private stream,
    /// for sizing the perturbation after [`Buggify::fire`] returned
    /// `true`.
    ///
    /// # Panics
    ///
    /// Panics if buggify is disabled (callers must gate on `fire`).
    pub fn magnitude(&mut self, point: DecisionPoint, lo: f64, hi: f64) -> f64 {
        assert!(self.cfg.enabled, "magnitude() on disabled buggify");
        self.streams[point as usize].uniform_range(lo, hi)
    }

    /// The integer twin of [`Buggify::magnitude`]: a uniform draw in
    /// `[lo, hi]`, both ends inclusive.
    ///
    /// # Panics
    ///
    /// Panics if buggify is disabled (callers must gate on `fire`).
    pub fn magnitude_int(&mut self, point: DecisionPoint, lo: u64, hi: u64) -> u64 {
        assert!(self.cfg.enabled, "magnitude_int() on disabled buggify");
        self.streams[point as usize].int_range(lo, hi)
    }

    /// Per-point `(name, evals, fires)` counters of the table this
    /// instance shares with its forks, in export order. Empty when
    /// disabled.
    pub fn counts(&self) -> Vec<(&'static str, u64, u64)> {
        ALL_POINTS
            .iter()
            .zip(self.counts.iter())
            .map(|(p, c)| {
                let (evals, fires) = c.get();
                (p.name(), evals, fires)
            })
            .collect()
    }

    /// Total fires across all points, forks included.
    pub fn total_fires(&self) -> u64 {
        self.counts.iter().map(|c| c.get().1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires_and_counts_nothing() {
        let mut b = Buggify::disabled();
        for _ in 0..1_000 {
            assert!(!b.fire(DecisionPoint::LinkExtraDelay));
        }
        assert!(b.counts().is_empty());
        assert_eq!(b.total_fires(), 0);
    }

    #[test]
    fn same_swarm_seed_same_fire_sequence() {
        let mut a = Buggify::new(BuggifyConfig::swarm(77));
        let mut b = Buggify::new(BuggifyConfig::swarm(77));
        for i in 0..10_000 {
            let p = ALL_POINTS[i % POINT_COUNT];
            assert_eq!(a.fire(p), b.fire(p), "draw {i} diverged");
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn fork_draws_like_new_and_counts_into_the_original() {
        let mut original = Buggify::new(BuggifyConfig::swarm(31));
        // Draws made before the fork must not shift the fork's streams.
        let drain = DecisionPoint::CaptureDrainPartial;
        let early_fires = (0..100).filter(|_| original.fire(drain)).count() as u64;
        let mut fork = original.fork();
        let mut fresh = Buggify::new(BuggifyConfig::swarm(31));
        for i in 0..5_000 {
            let p = ALL_POINTS[i % POINT_COUNT];
            assert_eq!(fork.fire(p), fresh.fire(p), "draw {i} diverged");
            assert_eq!(fork.magnitude_int(p, 1, 9), fresh.magnitude_int(p, 1, 9));
        }
        // The fork counted into the original's table, on top of the
        // original's own early draws.
        for ((name, evals, fires), (_, fresh_evals, fresh_fires)) in
            original.counts().into_iter().zip(fresh.counts())
        {
            let early = if name == drain.name() { (100, early_fires) } else { (0, 0) };
            assert_eq!((evals, fires), (fresh_evals + early.0, fresh_fires + early.1), "{name}");
        }
        assert_eq!(fork.counts(), original.counts());
    }

    #[test]
    fn streams_are_keyed_per_point_not_shared() {
        // Evaluating point A must not shift point B's stream: a run
        // that only touches B sees the same B-sequence as a run that
        // interleaves A draws.
        let mut only_b = Buggify::new(BuggifyConfig::swarm(5));
        let mut interleaved = Buggify::new(BuggifyConfig::swarm(5));
        let mut seq1 = Vec::new();
        let mut seq2 = Vec::new();
        for _ in 0..500 {
            seq1.push(only_b.fire(DecisionPoint::TcpRtoEarly));
            interleaved.fire(DecisionPoint::LinkDuplicate);
            seq2.push(interleaved.fire(DecisionPoint::TcpRtoEarly));
        }
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn different_swarm_seeds_diverge() {
        let mut a = Buggify::new(BuggifyConfig::swarm(1));
        let mut b = Buggify::new(BuggifyConfig::swarm(2));
        let fires_a: Vec<bool> =
            (0..2_000).map(|_| a.fire(DecisionPoint::LinkExtraDelay)).collect();
        let fires_b: Vec<bool> =
            (0..2_000).map(|_| b.fire(DecisionPoint::LinkExtraDelay)).collect();
        assert_ne!(fires_a, fires_b);
    }

    #[test]
    fn stream_seed_separates_names() {
        assert_ne!(stream_seed(9, "tcp.rto.early"), stream_seed(9, "tcp.rto.late"));
        assert_ne!(stream_seed(9, "a"), stream_seed(10, "a"));
    }

    #[test]
    fn intensity_zero_evaluates_but_never_fires() {
        let cfg = BuggifyConfig { enabled: true, swarm_seed: 3, intensity: 0.0 };
        let mut b = Buggify::new(cfg);
        for _ in 0..1_000 {
            assert!(!b.fire(DecisionPoint::SchedTiebreak));
        }
        let counts = b.counts();
        let sched = counts.iter().find(|(n, _, _)| *n == "sched.tiebreak").unwrap();
        assert_eq!(sched.1, 1_000);
        assert_eq!(sched.2, 0);
        assert_eq!(b.total_fires(), 0);
    }

    #[test]
    fn config_defaults_are_disabled_full_intensity() {
        let d = BuggifyConfig::default();
        assert!(!d.enabled);
        assert_eq!(d.swarm_seed, 0);
        assert_eq!(d.intensity, 1.0);
        let s = BuggifyConfig::swarm(42);
        assert!(s.enabled);
        assert_eq!(s.swarm_seed, 42);
    }
}
