//! Shared observability handles for the botnet life-cycle.

use netsim::packet::Addr;
use netsim::time::{SimDuration, SimTime};
use obs::{pow2_bounds, Counter, Gauge, Histogram, Scope};

/// A point-in-time view of botnet progress.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BotnetCounters {
    /// Telnet probes the scanner launched (including to empty addresses).
    pub scan_probes: u64,
    /// Credential pairs tried.
    pub login_attempts: u64,
    /// Successful logins.
    pub logins_ok: u64,
    /// Infection events. A device rebooted out of the botnet and then
    /// re-compromised counts again (each is a fresh memory-resident
    /// infection), so this can exceed the number of distinct devices.
    pub infections: u64,
    /// Bots currently connected to the C2 (gauge).
    pub connected_bots: u64,
    /// Attack orders broadcast by the C2.
    pub attacks_started: u64,
    /// Flood packets emitted by all bots.
    pub flood_packets: u64,
    /// Bots the C2 evicted for missed heartbeats or dead connections.
    pub bots_evicted: u64,
    /// Evicted devices the scanner re-compromised.
    pub reinfections: u64,
    /// Total eviction-to-reinfection latency across all reinfections,
    /// in nanoseconds (divide by `reinfections` for the mean): the sum
    /// of the `reinfection_latency_ns` histogram.
    pub reinfection_latency_total_nanos: u64,
}

impl BotnetCounters {
    /// Mean time from bot eviction to re-infection, or `None` if no
    /// device has been reinfected yet.
    pub fn mean_reinfection_latency(&self) -> Option<SimDuration> {
        if self.reinfections == 0 {
            return None;
        }
        Some(SimDuration::from_nanos(self.reinfection_latency_total_nanos / self.reinfections))
    }
}

/// A shared handle onto the botnet counters. The counts live in the
/// telemetry instruments of the scope the handle is built from, and
/// life-cycle transitions (infection, attack start, eviction,
/// reinfection) emit trace events there stamped with the simulation
/// clock; clones share them.
#[derive(Debug, Clone)]
pub struct BotnetStats {
    scope: Scope,
    scan_probes: Counter,
    login_attempts: Counter,
    logins_ok: Counter,
    infections: Counter,
    connected_bots: Gauge,
    connected_bots_peak: Gauge,
    attacks_started: Counter,
    flood_packets: Counter,
    bots_evicted: Counter,
    reinfections: Counter,
    reinfection_latency_ns: Histogram,
}

impl BotnetStats {
    /// Creates zeroed counters under `scope`.
    pub fn new(scope: Scope) -> Self {
        // Eviction-to-reinfection latency: 1 ms up to ~1100 s.
        let latency_bounds = pow2_bounds(20, 40);
        BotnetStats {
            scan_probes: scope.counter("scan_probes"),
            login_attempts: scope.counter("login_attempts"),
            logins_ok: scope.counter("logins_ok"),
            infections: scope.counter("infections"),
            connected_bots: scope.gauge("connected_bots"),
            connected_bots_peak: scope.gauge("connected_bots_peak"),
            attacks_started: scope.counter("attacks_started"),
            flood_packets: scope.counter("flood_packets"),
            bots_evicted: scope.counter("bots_evicted"),
            reinfections: scope.counter("reinfections"),
            reinfection_latency_ns: scope.histogram("reinfection_latency_ns", &latency_bounds),
            scope,
        }
    }

    /// A snapshot of the counters.
    pub fn snapshot(&self) -> BotnetCounters {
        BotnetCounters {
            scan_probes: self.scan_probes.value(),
            login_attempts: self.login_attempts.value(),
            logins_ok: self.logins_ok.value(),
            infections: self.infections.value(),
            connected_bots: self.connected_bots.value() as u64,
            attacks_started: self.attacks_started.value(),
            flood_packets: self.flood_packets.value(),
            bots_evicted: self.bots_evicted.value(),
            reinfections: self.reinfections.value(),
            reinfection_latency_total_nanos: self.reinfection_latency_ns.sum(),
        }
    }

    /// Records a scan probe.
    pub fn add_scan_probe(&self) {
        self.scan_probes.inc();
    }

    /// Records a credential attempt.
    pub fn add_login_attempt(&self) {
        self.login_attempts.inc();
    }

    /// Records a successful login on device `dev` at sim time `at`.
    pub fn add_login_ok(&self, at: SimTime, dev: Addr) {
        self.logins_ok.inc();
        self.scope.event(at.as_nanos(), "login_ok", format!("dev={dev}"));
    }

    /// Records an infection of device `dev` at sim time `at`.
    pub fn add_infection(&self, at: SimTime, dev: Addr) {
        self.infections.inc();
        self.scope.event(at.as_nanos(), "infection", format!("dev={dev}"));
    }

    /// Updates the connected-bots gauge.
    pub fn set_connected_bots(&self, n: u64) {
        self.connected_bots.set(n as i64);
        self.connected_bots_peak.set_max(n as i64);
    }

    /// Records an attack order broadcast at sim time `at` to `bots` bots.
    pub fn add_attack_started(&self, at: SimTime, bots: u64) {
        self.attacks_started.inc();
        self.scope.event(at.as_nanos(), "attack_started", format!("bots={bots}"));
    }

    /// Records emitted flood packets.
    pub fn add_flood_packets(&self, n: u64) {
        self.flood_packets.add(n);
    }

    /// Records device `dev` evicted by the C2 at sim time `at` (missed
    /// heartbeats or a dead connection with no other live session).
    pub fn add_bot_evicted(&self, at: SimTime, dev: Addr) {
        self.bots_evicted.inc();
        self.scope.event(at.as_nanos(), "bot_evicted", format!("dev={dev}"));
    }

    /// Records a re-infection of previously evicted device `dev` at sim
    /// time `at`, with the eviction-to-reinfection latency.
    pub fn add_reinfection(&self, at: SimTime, dev: Addr, latency: SimDuration) {
        self.reinfections.inc();
        self.reinfection_latency_ns.observe(latency.as_nanos());
        self.scope.event(
            at.as_nanos(),
            "reinfection",
            format!("dev={dev} latency_ns={}", latency.as_nanos()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEV: Addr = Addr::new(10, 0, 0, 9);

    fn zeroed() -> BotnetStats {
        BotnetStats::new(obs::Registry::new().scope("botnet"))
    }

    #[test]
    fn handles_share_counters() {
        let a = zeroed();
        let b = a.clone();
        b.add_scan_probe();
        b.add_infection(SimTime::from_secs(1), DEV);
        b.set_connected_bots(3);
        b.add_flood_packets(100);
        let snap = a.snapshot();
        assert_eq!(snap.scan_probes, 1);
        assert_eq!(snap.infections, 1);
        assert_eq!(snap.connected_bots, 3);
        assert_eq!(snap.flood_packets, 100);
    }

    #[test]
    fn reinfection_latency_averages() {
        let stats = zeroed();
        assert_eq!(stats.snapshot().mean_reinfection_latency(), None);
        stats.add_bot_evicted(SimTime::from_secs(5), DEV);
        stats.add_reinfection(SimTime::from_secs(15), DEV, SimDuration::from_secs(10));
        stats.add_reinfection(SimTime::from_secs(25), DEV, SimDuration::from_secs(20));
        let snap = stats.snapshot();
        assert_eq!(snap.bots_evicted, 1);
        assert_eq!(snap.reinfections, 2);
        assert_eq!(snap.mean_reinfection_latency(), Some(SimDuration::from_secs(15)));
    }

    #[test]
    fn counts_export_and_transitions_trace() {
        let registry = obs::Registry::new();
        let stats = BotnetStats::new(registry.scope("botnet"));
        stats.add_scan_probe();
        stats.add_login_attempt();
        stats.add_login_ok(SimTime::from_secs(2), DEV);
        stats.add_infection(SimTime::from_secs(3), DEV);
        stats.set_connected_bots(4);
        stats.set_connected_bots(2);
        stats.add_attack_started(SimTime::from_secs(9), 2);
        stats.add_flood_packets(500);
        let telemetry = registry.snapshot();
        assert_eq!(telemetry.counter("botnet.infections"), Some(1));
        assert_eq!(telemetry.counter("botnet.flood_packets"), Some(500));
        assert_eq!(telemetry.gauge("botnet.connected_bots"), Some(2));
        assert_eq!(telemetry.gauge("botnet.connected_bots_peak"), Some(4));
        let infection =
            telemetry.events.iter().find(|e| e.name == "infection").expect("traced");
        assert_eq!(infection.at_nanos, SimTime::from_secs(3).as_nanos());
        assert_eq!(infection.detail, "dev=10.0.0.9");
        assert!(telemetry.events.iter().any(|e| e.name == "attack_started"));
    }
}
