//! Schedule-driven fault injection: link flaps, loss/latency ramps,
//! bandwidth throttling and CPU-pressure, all byte-reproducible per seed.
//!
//! A [`FaultPlan`] is a declarative list of `(offset, action)` pairs.
//! [`World::apply_fault_plan`](crate::world::World::apply_fault_plan)
//! turns each entry into an ordinary [`Event`](crate::event::Event) on
//! the simulation queue, so faults interleave with traffic in the same
//! total event order as everything else — two runs with the same seed
//! and the same plan replay identically, byte for byte.
//!
//! Randomised plan shapes (flap intervals, jitter magnitudes) draw from
//! a caller-supplied [`SimRng`] *at plan-construction time*; once built,
//! a plan is pure data. Nothing about fault execution consumes the
//! world RNG, so attaching a plan never perturbs the random streams of
//! workloads, scanners or unrelated links.

use serde::{Deserialize, Serialize};

use crate::ids::{LinkId, NodeId};
use crate::rng::SimRng;
use crate::time::SimDuration;

/// One instantaneous fault transition applied to the network.
///
/// Actions are plain data (serialisable, no closures) so plans can be
/// stored, diffed and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Administratively raise or cut a link (a "flap" is a down/up pair).
    SetLinkUp {
        /// The affected link.
        link: LinkId,
        /// `true` restores the link, `false` cuts it.
        up: bool,
    },
    /// Override a link's channel-loss probability (`None` restores the
    /// configured `loss_rate`).
    SetLossOverride {
        /// The affected link.
        link: LinkId,
        /// Replacement loss probability, clamped to `[0, 1]`.
        rate: Option<f64>,
    },
    /// Scale a link's effective bandwidth (`0 < scale <= 1` throttles;
    /// `1.0` restores nominal speed).
    SetBandwidthScale {
        /// The affected link.
        link: LinkId,
        /// Multiplier applied to the configured bandwidth.
        scale: f64,
    },
    /// Add extra one-way propagation delay on top of the configured
    /// value (latency jitter ramps step this up and back down).
    SetExtraDelay {
        /// The affected link.
        link: LinkId,
        /// Additional delay; [`SimDuration::ZERO`] restores nominal.
        delay: SimDuration,
    },
    /// Set a node's CPU-pressure factor: modelled compute on the node
    /// costs `factor ×` its nominal time (`1.0` is unloaded). The IDS
    /// service uses this to decide deterministically whether a
    /// window's detection overran its interval.
    SetCpuPressure {
        /// The affected node.
        node: NodeId,
        /// Compute-time multiplier, clamped to be non-negative.
        factor: f64,
    },
    /// Hard-crash a node: its NIC detaches, every TCP connection it
    /// held vanishes without emitting a segment, and apps on the node
    /// are told the link went down. The node stays down until a
    /// [`FaultAction::NodeReboot`] (or an explicit `set_node_up`)
    /// restores it.
    NodeCrash {
        /// The node that loses power.
        node: NodeId,
    },
    /// Crash a node and bring it back after `boot_delay`: the crash
    /// half is identical to [`FaultAction::NodeCrash`]; the restore is
    /// an ordinary node-up event scheduled `boot_delay` later, so apps
    /// see a clean down → up transition and re-initialise themselves
    /// (memory-resident state such as a Mirai infection is lost).
    NodeReboot {
        /// The node that reboots.
        node: NodeId,
        /// Time the node spends booting before it rejoins the network.
        boot_delay: SimDuration,
    },
}

/// A fault action scheduled at an offset from plan attachment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEntry {
    /// When the action fires, relative to the time the plan is applied.
    pub at: SimDuration,
    /// What happens.
    pub action: FaultAction,
}

/// A declarative, replayable schedule of fault transitions.
///
/// ```
/// use netsim::faults::FaultPlan;
/// use netsim::ids::LinkId;
/// use netsim::time::SimDuration;
///
/// let mut plan = FaultPlan::new();
/// plan.link_flap(
///     LinkId::from_raw(0),
///     SimDuration::from_secs(10),
///     SimDuration::from_secs(3),
/// );
/// assert_eq!(plan.len(), 2); // one down, one up
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw action at `at` (offset from plan attachment).
    pub fn push(&mut self, at: SimDuration, action: FaultAction) -> &mut Self {
        self.entries.push(FaultEntry { at, action });
        self
    }

    /// The scheduled entries, in insertion order.
    ///
    /// Insertion order is preserved deliberately: entries at equal
    /// offsets fire in the order they were pushed (the event queue
    /// breaks timestamp ties by scheduling sequence).
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no actions are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends every entry of `other`, keeping offsets unchanged.
    pub fn merge(&mut self, other: &FaultPlan) -> &mut Self {
        self.entries.extend_from_slice(&other.entries);
        self
    }

    /// Cuts `link` at `start` and restores it `down_for` later.
    pub fn link_flap(
        &mut self,
        link: LinkId,
        start: SimDuration,
        down_for: SimDuration,
    ) -> &mut Self {
        self.push(start, FaultAction::SetLinkUp { link, up: false });
        self.push(start + down_for, FaultAction::SetLinkUp { link, up: true })
    }

    /// Randomised flapping: starting at `start`, the link alternates
    /// exponentially distributed up and down intervals (means
    /// `mean_up_secs` / `mean_down_secs`) until `horizon`, where it is
    /// always restored. The draws come from `rng` now — the finished
    /// plan is deterministic data.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not strictly positive and finite.
    pub fn link_flap_random(
        &mut self,
        link: LinkId,
        start: SimDuration,
        horizon: SimDuration,
        mean_up_secs: f64,
        mean_down_secs: f64,
        rng: &mut SimRng,
    ) -> &mut Self {
        let mut at = start;
        let mut up = true;
        while at < horizon {
            let interval = if up {
                rng.exponential(mean_up_secs)
            } else {
                rng.exponential(mean_down_secs)
            };
            at += SimDuration::from_secs_f64(interval);
            if at >= horizon {
                break;
            }
            up = !up;
            self.push(at, FaultAction::SetLinkUp { link, up });
        }
        if !up {
            self.push(horizon, FaultAction::SetLinkUp { link, up: true });
        }
        self
    }

    /// A triangular loss ramp: loss on `link` steps from near zero up to
    /// `peak` at the midpoint of `[start, start + duration]` and back
    /// down across `steps` equal segments, then the override clears.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn loss_ramp(
        &mut self,
        link: LinkId,
        start: SimDuration,
        duration: SimDuration,
        peak: f64,
        steps: usize,
    ) -> &mut Self {
        assert!(steps > 0, "loss ramp needs at least one step");
        for i in 0..steps {
            let at = start + (duration / steps as u64) * i as u64;
            let rate = peak * triangle(i, steps);
            self.push(at, FaultAction::SetLossOverride { link, rate: Some(rate) });
        }
        self.push(start + duration, FaultAction::SetLossOverride { link, rate: None })
    }

    /// A triangular latency-jitter ramp: extra delay on `link` rises to
    /// roughly `peak` mid-ramp and falls back, across `steps` segments.
    /// Each step's magnitude is perturbed by ±25 % drawn from `rng` at
    /// construction time, then the extra delay clears.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn delay_jitter_ramp(
        &mut self,
        link: LinkId,
        start: SimDuration,
        duration: SimDuration,
        peak: SimDuration,
        steps: usize,
        rng: &mut SimRng,
    ) -> &mut Self {
        assert!(steps > 0, "jitter ramp needs at least one step");
        for i in 0..steps {
            let at = start + (duration / steps as u64) * i as u64;
            let wobble = 0.75 + 0.5 * rng.uniform();
            let delay = peak.mul_f64(triangle(i, steps) * wobble);
            self.push(at, FaultAction::SetExtraDelay { link, delay });
        }
        self.push(
            start + duration,
            FaultAction::SetExtraDelay { link, delay: SimDuration::ZERO },
        )
    }

    /// Throttles `link` to `factor ×` its configured bandwidth for
    /// `duration`, then restores nominal speed.
    pub fn throttle(
        &mut self,
        link: LinkId,
        start: SimDuration,
        duration: SimDuration,
        factor: f64,
    ) -> &mut Self {
        self.push(start, FaultAction::SetBandwidthScale { link, scale: factor });
        self.push(start + duration, FaultAction::SetBandwidthScale { link, scale: 1.0 })
    }

    /// Applies CPU pressure `factor` to `node` for `duration`, then
    /// relieves it.
    pub fn cpu_pressure(
        &mut self,
        node: NodeId,
        start: SimDuration,
        duration: SimDuration,
        factor: f64,
    ) -> &mut Self {
        self.push(start, FaultAction::SetCpuPressure { node, factor });
        self.push(start + duration, FaultAction::SetCpuPressure { node, factor: 1.0 })
    }

    /// Crashes `node` at `start`; nothing brings it back (pair with
    /// [`FaultPlan::node_reboot`] or a manual restore for recovery
    /// scenarios).
    pub fn node_crash(&mut self, node: NodeId, start: SimDuration) -> &mut Self {
        self.push(start, FaultAction::NodeCrash { node })
    }

    /// Crashes `node` at `start` and boots it back `boot_delay` later.
    pub fn node_reboot(
        &mut self,
        node: NodeId,
        start: SimDuration,
        boot_delay: SimDuration,
    ) -> &mut Self {
        self.push(start, FaultAction::NodeReboot { node, boot_delay })
    }
}

/// Triangular envelope over `steps` segments: 0-based segment `i` maps
/// to a weight in `(0, 1]` peaking at the middle segment.
fn triangle(i: usize, steps: usize) -> f64 {
    if steps == 1 {
        return 1.0;
    }
    let mid = (steps - 1) as f64 / 2.0;
    1.0 - ((i as f64 - mid).abs() / mid).min(1.0) * (1.0 - 1.0 / steps as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> LinkId {
        LinkId::from_raw(0)
    }

    #[test]
    fn flap_is_a_down_up_pair() {
        let mut plan = FaultPlan::new();
        plan.link_flap(link(), SimDuration::from_secs(5), SimDuration::from_secs(2));
        let entries = plan.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0],
            FaultEntry {
                at: SimDuration::from_secs(5),
                action: FaultAction::SetLinkUp { link: link(), up: false },
            }
        );
        assert_eq!(
            entries[1],
            FaultEntry {
                at: SimDuration::from_secs(7),
                action: FaultAction::SetLinkUp { link: link(), up: true },
            }
        );
    }

    #[test]
    fn random_flap_is_deterministic_per_seed_and_ends_up() {
        let build = || {
            let mut rng = SimRng::seed_from(11);
            let mut plan = FaultPlan::new();
            plan.link_flap_random(
                link(),
                SimDuration::ZERO,
                SimDuration::from_secs(120),
                10.0,
                3.0,
                &mut rng,
            );
            plan
        };
        let a = build();
        assert_eq!(a, build());
        // The plan never leaves the link down past the horizon.
        let mut up = true;
        for entry in a.entries() {
            assert!(entry.at <= SimDuration::from_secs(120));
            if let FaultAction::SetLinkUp { up: u, .. } = entry.action {
                up = u;
            }
        }
        assert!(up, "link must be restored by the horizon");
    }

    #[test]
    fn loss_ramp_peaks_mid_ramp_and_clears() {
        let mut plan = FaultPlan::new();
        plan.loss_ramp(link(), SimDuration::ZERO, SimDuration::from_secs(10), 0.4, 5);
        let rates: Vec<f64> = plan
            .entries()
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::SetLossOverride { rate, .. } => rate,
                _ => None,
            })
            .collect();
        assert_eq!(rates.len(), 5);
        let peak_idx =
            rates.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap();
        assert_eq!(peak_idx, 2, "triangle peaks at the middle step");
        assert!((rates[2] - 0.4).abs() < 1e-12);
        // Final entry clears the override.
        assert_eq!(
            plan.entries().last().unwrap().action,
            FaultAction::SetLossOverride { link: link(), rate: None }
        );
    }

    #[test]
    fn throttle_and_pressure_restore_nominal() {
        let mut plan = FaultPlan::new();
        plan.throttle(link(), SimDuration::from_secs(1), SimDuration::from_secs(4), 0.1);
        plan.cpu_pressure(
            NodeId::from_raw(3),
            SimDuration::from_secs(2),
            SimDuration::from_secs(6),
            200.0,
        );
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.entries()[1].action,
            FaultAction::SetBandwidthScale { link: link(), scale: 1.0 }
        );
        assert_eq!(
            plan.entries()[3].action,
            FaultAction::SetCpuPressure { node: NodeId::from_raw(3), factor: 1.0 }
        );
    }

    #[test]
    fn crash_and_reboot_builders_schedule_single_entries() {
        let node = NodeId::from_raw(4);
        let mut plan = FaultPlan::new();
        plan.node_crash(node, SimDuration::from_secs(3));
        plan.node_reboot(node, SimDuration::from_secs(9), SimDuration::from_secs(2));
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.entries()[0],
            FaultEntry { at: SimDuration::from_secs(3), action: FaultAction::NodeCrash { node } }
        );
        assert_eq!(
            plan.entries()[1],
            FaultEntry {
                at: SimDuration::from_secs(9),
                action: FaultAction::NodeReboot { node, boot_delay: SimDuration::from_secs(2) },
            }
        );
    }

    #[test]
    fn merge_preserves_both_schedules() {
        let mut a = FaultPlan::new();
        a.link_flap(link(), SimDuration::from_secs(1), SimDuration::from_secs(1));
        let mut b = FaultPlan::new();
        b.throttle(link(), SimDuration::from_secs(3), SimDuration::from_secs(1), 0.5);
        a.merge(&b);
        assert_eq!(a.len(), 4);
    }
}
