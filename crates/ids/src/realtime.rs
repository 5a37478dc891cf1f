//! The detection loop's shared pieces: the per-window [`DetectionLog`]
//! and the one model of detection cost, [`OverloadPolicy`].
//!
//! The paper's Real-Time IDS Unit — wake every window interval, drain
//! the sniffer feed, aggregate the elapsed window, extract features, run
//! the model and log the window's accuracy while metering compute time
//! and memory — runs as the single-tenant preset of the serving layer
//! ([`crate::serving::TenantConfig::paper`]).

use std::cell::RefCell;
use std::rc::Rc;

use capture::record::Label;

use crate::pipeline::WindowDetection;

/// Shared log of per-window detection results.
#[derive(Debug, Clone, Default)]
pub struct DetectionLog {
    inner: Rc<RefCell<Vec<WindowDetection>>>,
}

impl DetectionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one window's result.
    pub fn push(&self, detection: WindowDetection) {
        self.inner.borrow_mut().push(detection);
    }

    /// A copy of all results so far, in window order.
    pub fn results(&self) -> Vec<WindowDetection> {
        self.inner.borrow().clone()
    }

    /// Number of windows logged.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// `true` if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Mean per-window accuracy (the paper's Table I number).
    pub fn mean_accuracy(&self) -> f64 {
        let results = self.inner.borrow();
        if results.is_empty() {
            return 0.0;
        }
        results.iter().map(WindowDetection::accuracy).sum::<f64>() / results.len() as f64
    }

    /// The worst window accuracy (the paper's reported 35 % minimum).
    pub fn min_accuracy(&self) -> f64 {
        self.inner
            .borrow()
            .iter()
            .map(WindowDetection::accuracy)
            .fold(f64::INFINITY, f64::min)
    }

    /// Overall malicious-packet recall: the fraction of all malicious
    /// packets in the run that were flagged (`None` if none occurred).
    pub fn malicious_recall(&self) -> Option<f64> {
        let results = self.inner.borrow();
        let truth: usize = results.iter().map(|d| d.truth_malicious).sum();
        if truth == 0 {
            return None;
        }
        let caught: usize = results.iter().map(|d| d.malicious_correct).sum();
        Some(caught as f64 / truth as f64)
    }

    /// Mean accuracy over mixed (attack-boundary) windows only.
    pub fn mean_accuracy_mixed(&self) -> Option<f64> {
        let results = self.inner.borrow();
        let mixed: Vec<f64> =
            results.iter().filter(|d| d.mixed).map(WindowDetection::accuracy).collect();
        if mixed.is_empty() {
            None
        } else {
            Some(mixed.iter().sum::<f64>() / mixed.len() as f64)
        }
    }

    /// Mean accuracy over single-class windows only.
    pub fn mean_accuracy_pure(&self) -> Option<f64> {
        let results = self.inner.borrow();
        let pure: Vec<f64> =
            results.iter().filter(|d| !d.mixed).map(WindowDetection::accuracy).collect();
        if pure.is_empty() {
            None
        } else {
            Some(pure.iter().sum::<f64>() / pure.len() as f64)
        }
    }

    /// Number of windows whose detection ran overloaded.
    pub fn degraded_count(&self) -> usize {
        self.inner.borrow().iter().filter(|d| d.degraded).count()
    }

    /// The distinct model generations that scored windows, in first-use
    /// order (a hot-swap run reports more than one).
    pub fn generations(&self) -> Vec<u64> {
        let results = self.inner.borrow();
        let mut out: Vec<u64> = Vec::new();
        for d in results.iter() {
            if out.last() != Some(&d.generation) {
                out.push(d.generation);
            }
        }
        out
    }

    /// Checks the serving-layer generation invariant: model generations
    /// stamped into the log must be non-decreasing (swaps happen at
    /// window boundaries only, and a window is never scored by a mix of
    /// generations — each carries exactly one). Returns the first
    /// violation, or `None` when the log is sane.
    pub fn generation_violation(&self) -> Option<String> {
        let results = self.inner.borrow();
        let mut prev: Option<u64> = None;
        for d in results.iter() {
            if let Some(p) = prev {
                if d.generation < p {
                    return Some(format!(
                        "window {} scored by generation {} after generation {}",
                        d.window_index, d.generation, p
                    ));
                }
            }
            prev = Some(d.generation);
        }
        None
    }

    /// Checks the IDS liveness invariant for swarm runs: window indices
    /// strictly increase (no window is processed twice or out of order,
    /// none regresses), and every logged window carries a terminal
    /// verdict — it was classified over at least one packet, or was
    /// explicitly marked degraded. Returns the first violation as a
    /// human-readable description, or `None` when the log is sane.
    pub fn liveness_violation(&self) -> Option<String> {
        let results = self.inner.borrow();
        let mut prev: Option<u64> = None;
        for d in results.iter() {
            if let Some(p) = prev {
                if d.window_index <= p {
                    return Some(format!(
                        "window index regressed: {} after {}",
                        d.window_index, p
                    ));
                }
            }
            prev = Some(d.window_index);
            if d.packets == 0 && !d.degraded {
                return Some(format!(
                    "window {} terminated with no packets and no degraded mark",
                    d.window_index
                ));
            }
            if d.correct > d.packets {
                return Some(format!(
                    "window {} claims {} correct of {} packets",
                    d.window_index, d.correct, d.packets
                ));
            }
        }
        None
    }

    /// Serialises the log as stable, human-diffable text: one line per
    /// window, integer fields only, in window order. Two runs of the
    /// same seeded scenario must produce byte-identical output — CI
    /// diffs this to catch determinism regressions.
    pub fn serialize_compact(&self) -> String {
        use std::fmt::Write as _;
        let results = self.inner.borrow();
        let mut out = String::with_capacity(results.len() * 64);
        for d in results.iter() {
            let maj = match d.majority_truth {
                Label::Benign => 'B',
                Label::Malicious => 'M',
            };
            writeln!(
                out,
                "w={} p={} c={} pm={} tm={} mc={} mixed={} maj={} gen={} deg={}",
                d.window_index,
                d.packets,
                d.correct,
                d.predicted_malicious,
                d.truth_malicious,
                d.malicious_correct,
                u8::from(d.mixed),
                maj,
                d.generation,
                u8::from(d.degraded),
            )
            .expect("writing to String cannot fail");
        }
        out
    }
}

/// Deterministic model of the detector's per-window compute cost.
///
/// The real loop's wall-clock time (`Instant`) feeds the sustainability
/// meter but may *never* influence control flow — that would make runs
/// host-dependent. Overload is instead decided from this modelled cost
/// scaled by the node's injected CPU pressure
/// ([`netsim::world::Ctx::cpu_pressure`]): a window whose modelled
/// detection time exceeds the window interval is marked
/// [`degraded`](WindowDetection::degraded) instead of silently skewing
/// the next drain.
///
/// This is the only cost model: every serving tenant prices its windows
/// with the default policy and bounds its sniffer feed at its
/// `feed_capacity`; a tenant's [`crate::serving::TenantBudget`] only
/// decides where the cost lands on the degradation ladder.
#[derive(Debug, Clone, Copy)]
pub struct OverloadPolicy {
    /// Modelled cost per classified packet, in seconds.
    pub per_packet_cost_secs: f64,
    /// Modelled fixed cost per window (drain + aggregation), in seconds.
    pub per_window_overhead_secs: f64,
    /// Bound applied to the sniffer feed on start: packets arriving
    /// while this many records are undrained are dropped (and counted
    /// by the sniffer) rather than growing the buffer without limit.
    /// `None` leaves the feed unbounded.
    pub feed_capacity: Option<usize>,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            per_packet_cost_secs: 2e-6,
            per_window_overhead_secs: 1e-4,
            feed_capacity: Some(65_536),
        }
    }
}

impl OverloadPolicy {
    /// Modelled detection time for a window of `packets` packets on a
    /// node under `pressure` (1.0 = unloaded).
    pub fn modelled_cost_secs(&self, packets: usize, pressure: f64) -> f64 {
        (self.per_window_overhead_secs + self.per_packet_cost_secs * packets as f64)
            * pressure.max(0.0)
    }

    /// The same modelled cost split into its two stages, in
    /// nanoseconds: the fixed per-window overhead is the drain/extract
    /// stage, the per-packet term is classification.
    pub fn modelled_stage_ns(&self, packets: usize, pressure: f64) -> (u64, u64) {
        let load = pressure.max(0.0);
        let extract_ns = (self.per_window_overhead_secs * load * 1e9) as u64;
        let classify_ns = (self.per_packet_cost_secs * packets as f64 * load * 1e9) as u64;
        (extract_ns, classify_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detection(acc_num: usize, packets: usize, mixed: bool) -> WindowDetection {
        WindowDetection {
            window_index: 0,
            packets,
            correct: acc_num,
            predicted_malicious: 0,
            truth_malicious: 0,
            malicious_correct: 0,
            mixed,
            majority_truth: Label::Benign,
            generation: 0,
            degraded: false,
        }
    }

    #[test]
    fn log_statistics() {
        let log = DetectionLog::new();
        log.push(detection(10, 10, false)); // 1.0
        log.push(detection(5, 10, true)); // 0.5
        log.push(detection(8, 10, false)); // 0.8
        assert_eq!(log.len(), 3);
        assert!((log.mean_accuracy() - (1.0 + 0.5 + 0.8) / 3.0).abs() < 1e-12);
        assert!((log.min_accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(log.mean_accuracy_mixed(), Some(0.5));
        assert!((log.mean_accuracy_pure().unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_log_is_safe() {
        let log = DetectionLog::new();
        assert!(log.is_empty());
        assert_eq!(log.mean_accuracy(), 0.0);
        assert_eq!(log.mean_accuracy_mixed(), None);
    }

    #[test]
    fn log_handles_share_state() {
        let a = DetectionLog::new();
        let b = a.clone();
        b.push(detection(1, 1, false));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn degraded_windows_are_counted() {
        let log = DetectionLog::new();
        log.push(detection(1, 1, false));
        log.push(WindowDetection { degraded: true, ..detection(2, 2, false) });
        assert_eq!(log.degraded_count(), 1);
    }

    #[test]
    fn serialize_compact_is_stable_text() {
        let log = DetectionLog::new();
        log.push(WindowDetection {
            window_index: 3,
            packets: 10,
            correct: 9,
            predicted_malicious: 4,
            truth_malicious: 5,
            malicious_correct: 4,
            mixed: true,
            majority_truth: Label::Malicious,
            generation: 2,
            degraded: true,
        });
        log.push(detection(1, 1, false));
        let text = log.serialize_compact();
        assert_eq!(
            text,
            "w=3 p=10 c=9 pm=4 tm=5 mc=4 mixed=1 maj=M gen=2 deg=1\n\
             w=0 p=1 c=1 pm=0 tm=0 mc=0 mixed=0 maj=B gen=0 deg=0\n"
        );
        // Identical logs serialise byte-identically.
        let again = log.serialize_compact();
        assert_eq!(text, again);
    }

    #[test]
    fn liveness_violation_flags_regression_and_lost_windows() {
        let sane = DetectionLog::new();
        sane.push(WindowDetection { window_index: 1, ..detection(1, 1, false) });
        sane.push(WindowDetection { window_index: 2, ..detection(2, 2, false) });
        assert_eq!(sane.liveness_violation(), None);

        let regressed = DetectionLog::new();
        regressed.push(WindowDetection { window_index: 5, ..detection(1, 1, false) });
        regressed.push(WindowDetection { window_index: 5, ..detection(1, 1, false) });
        assert!(regressed.liveness_violation().unwrap().contains("regressed"));

        let lost = DetectionLog::new();
        lost.push(WindowDetection { window_index: 1, packets: 0, ..detection(0, 0, false) });
        assert!(lost.liveness_violation().unwrap().contains("no packets"));

        let degraded_empty = DetectionLog::new();
        degraded_empty.push(WindowDetection {
            window_index: 1,
            degraded: true,
            ..detection(0, 0, false)
        });
        assert_eq!(degraded_empty.liveness_violation(), None, "degraded counts as terminal");
    }

    #[test]
    fn generation_tracking_and_violation() {
        let log = DetectionLog::new();
        log.push(WindowDetection { window_index: 1, generation: 0, ..detection(1, 1, false) });
        log.push(WindowDetection { window_index: 2, generation: 0, ..detection(1, 1, false) });
        log.push(WindowDetection { window_index: 3, generation: 1, ..detection(1, 1, false) });
        assert_eq!(log.generations(), vec![0, 1]);
        assert_eq!(log.generation_violation(), None);

        let regressed = DetectionLog::new();
        regressed
            .push(WindowDetection { window_index: 1, generation: 2, ..detection(1, 1, false) });
        regressed
            .push(WindowDetection { window_index: 2, generation: 1, ..detection(1, 1, false) });
        let v = regressed.generation_violation().unwrap();
        assert!(v.contains("generation 1 after generation 2"), "{v}");
    }

    #[test]
    fn overload_policy_scales_with_pressure() {
        let policy = OverloadPolicy::default();
        // Unloaded: 1 000 packets cost ~2.1 ms, far below a 1 s window.
        assert!(policy.modelled_cost_secs(1_000, 1.0) < 1.0);
        // A 500× pressure spike pushes the same window past the interval.
        assert!(policy.modelled_cost_secs(1_000, 500.0) > 1.0);
    }
}
