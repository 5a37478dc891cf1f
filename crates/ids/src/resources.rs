//! Sustainability metrics: the paper's Table II row for one model,
//! plus the robustness accounting that proves the detection loop held
//! up under injected faults and overload.

use containers::meter::ResourceMeter;
use ml::classifier::Classifier;
use serde::{Deserialize, Serialize};

/// The three sustainability metrics the paper reports per model:
/// CPU usage (%), occupied RAM (Kb) and model size (Kb).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SustainabilityReport {
    /// Mean CPU utilisation of the IDS loop over its observation
    /// windows, in percent.
    pub cpu_percent: f64,
    /// Peak resident memory of the model + working buffers, in Kb.
    pub memory_kb: f64,
    /// Serialised model blob size, in Kb.
    pub model_size_kb: f64,
}

impl SustainabilityReport {
    /// Assembles the report from the container meter and the model.
    pub fn collect(meter: &ResourceMeter, model: &dyn Classifier) -> Self {
        SustainabilityReport {
            cpu_percent: meter.mean_cpu_percent(),
            memory_kb: meter.memory_peak_bytes() as f64 / 1024.0,
            model_size_kb: model.encode().len() as f64 / 1024.0,
        }
    }
}

impl std::fmt::Display for SustainabilityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cpu={:.2}% mem={:.2}Kb model={:.2}Kb",
            self.cpu_percent, self.memory_kb, self.model_size_kb
        )
    }
}

/// How the testbed held up under load and injected faults: every IDS
/// window must be accounted for (classified or degraded), any packets
/// the bounded feed shed are counted rather than vanishing, and the
/// container-lifecycle fallout — downtime, benign-client success rate,
/// bot eviction and reinfection latency — is recorded per run.
///
/// All fields are integers so two same-seed runs serialize and print
/// byte-identically.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Windows the IDS logged (classified, whether healthy or degraded).
    pub windows_total: usize,
    /// Of those, windows marked degraded by the overload policy.
    pub windows_degraded: usize,
    /// Windows the serving layer shed whole under backpressure — never
    /// classified, but never silently lost (zero outside serving runs).
    #[serde(default)]
    pub windows_shed: usize,
    /// Records the serving layer's bounded ingestion queues shed under
    /// the drop-oldest policy (zero outside serving runs).
    #[serde(default)]
    pub records_shed: u64,
    /// Records the degrade-to-sampled policy deliberately skipped while
    /// its queue ran hot (zero outside serving runs).
    #[serde(default)]
    pub records_sampled_out: u64,
    /// Packets the bounded sniffer feed dropped at capacity.
    pub feed_dropped: u64,
    /// Packets the sniffer captured into the feed.
    pub feed_captured: u64,
    /// Accumulated downtime per container, `(name, nanoseconds)`, sorted
    /// by name. Empty when lifecycle accounting was not wired in.
    pub container_downtime: Vec<(String, u64)>,
    /// Benign client transactions started.
    pub benign_started: u64,
    /// Benign client transactions completed successfully.
    pub benign_completed: u64,
    /// Benign client transactions that failed after exhausting retries.
    pub benign_failed: u64,
    /// Benign client retry attempts.
    pub benign_retried: u64,
    /// Bots the C2 evicted for missed heartbeats or dead connections.
    pub bots_evicted: u64,
    /// Evicted devices the scanner re-compromised.
    pub reinfections: u64,
    /// Total eviction-to-reinfection latency in nanoseconds.
    pub reinfection_latency_total_nanos: u64,
}

impl RobustnessReport {
    /// Fraction of benign transactions that completed, or `None` before
    /// any started.
    pub fn benign_success_rate(&self) -> Option<f64> {
        if self.benign_started == 0 {
            return None;
        }
        Some(self.benign_completed as f64 / self.benign_started as f64)
    }

    /// Total downtime across all containers, in nanoseconds.
    pub fn total_downtime_nanos(&self) -> u64 {
        self.container_downtime.iter().map(|(_, ns)| ns).sum()
    }

    /// Mean eviction-to-reinfection latency in nanoseconds, or `None`
    /// if no device was reinfected.
    pub fn mean_reinfection_latency_nanos(&self) -> Option<u64> {
        if self.reinfections == 0 {
            return None;
        }
        Some(self.reinfection_latency_total_nanos / self.reinfections)
    }
}

impl std::fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "windows={} degraded={} shed={} feed_captured={} feed_dropped={}",
            self.windows_total,
            self.windows_degraded,
            self.windows_shed,
            self.feed_captured,
            self.feed_dropped
        )?;
        if self.records_shed > 0 || self.records_sampled_out > 0 {
            write!(
                f,
                " records_shed={} records_sampled_out={}",
                self.records_shed, self.records_sampled_out
            )?;
        }
        write!(
            f,
            " benign={}/{} failed={} retried={}",
            self.benign_completed, self.benign_started, self.benign_failed, self.benign_retried
        )?;
        write!(
            f,
            " evicted={} reinfections={} reinfection_ns={}",
            self.bots_evicted, self.reinfections, self.reinfection_latency_total_nanos
        )?;
        for (name, ns) in &self.container_downtime {
            if *ns > 0 {
                write!(f, " down[{name}]={ns}ns")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;

    struct Fixed;
    impl Classifier for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn predict(&self, _features: &[f64]) -> usize {
            0
        }
        fn encode(&self) -> Vec<u8> {
            vec![0u8; 2048]
        }
        fn memory_bytes(&self) -> u64 {
            4096
        }
        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(Fixed)
        }
    }

    #[test]
    fn robustness_rates_and_totals() {
        let mut report = RobustnessReport {
            windows_total: 10,
            windows_degraded: 1,
            windows_shed: 2,
            records_shed: 7,
            records_sampled_out: 3,
            feed_dropped: 0,
            feed_captured: 100,
            container_downtime: vec![("dev-0".into(), 3), ("tserver".into(), 4)],
            benign_started: 8,
            benign_completed: 6,
            benign_failed: 2,
            benign_retried: 5,
            bots_evicted: 2,
            reinfections: 2,
            reinfection_latency_total_nanos: 30,
        };
        assert_eq!(report.benign_success_rate(), Some(0.75));
        assert_eq!(report.total_downtime_nanos(), 7);
        assert_eq!(report.mean_reinfection_latency_nanos(), Some(15));
        let display = report.to_string();
        assert!(display.contains("benign=6/8"), "{display}");
        assert!(display.contains("down[tserver]=4ns"), "{display}");
        assert!(display.contains("shed=2"), "{display}");
        assert!(display.contains("records_shed=7 records_sampled_out=3"), "{display}");
        report.benign_started = 0;
        report.reinfections = 0;
        assert_eq!(report.benign_success_rate(), None);
        assert_eq!(report.mean_reinfection_latency_nanos(), None);
    }

    #[test]
    fn report_converts_units() {
        let meter = ResourceMeter::new();
        meter.set_memory_bytes(10_240);
        meter.begin_window(SimTime::from_secs(0));
        meter.record_cpu_seconds(0.5);
        meter.end_window(SimTime::from_secs(1));
        let report = SustainabilityReport::collect(&meter, &Fixed);
        assert!((report.cpu_percent - 50.0).abs() < 1e-9);
        assert!((report.memory_kb - 10.0).abs() < 1e-9);
        assert!((report.model_size_kb - 2.0).abs() < 1e-9);
        assert!(!report.to_string().is_empty());
    }
}
