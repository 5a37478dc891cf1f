//! Shared counters for traffic generators.
//!
//! Applications run boxed inside the [`netsim::world::World`], so
//! orchestration code observes them through cheaply clonable shared
//! handles rather than downcasting. A handle's counts are its telemetry
//! instruments: the run report and the export read the same store.

use obs::{Counter, Scope};

/// Counters kept by a client workload (one per protocol per scenario).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounters {
    /// Transactions started (requests sent, streams opened, files asked).
    pub started: u64,
    /// Transactions completed successfully.
    pub completed: u64,
    /// Transactions that failed (connect failure, reset, device churn)
    /// after exhausting their retry budget.
    pub failed: u64,
    /// Retry attempts (a transaction that failed twice then succeeded
    /// counts one started, one completed, two retried).
    pub retried: u64,
    /// Application payload bytes received.
    pub bytes_received: u64,
    /// Application payload bytes sent.
    pub bytes_sent: u64,
}

/// A shared handle onto one workload's counters. The counts live in
/// the telemetry instruments of the scope the handle is built from (one
/// scope per protocol, e.g. `traffic.client.http`), so per-protocol
/// outcome and retry-exhaustion counters come out separately in the
/// export; clones share them.
#[derive(Debug, Clone)]
pub struct ClientStats {
    started: Counter,
    completed: Counter,
    // `failed` counts transactions abandoned after the retry budget ran
    // dry — the retry-exhaustion signal.
    failed: Counter,
    retried: Counter,
    bytes_received: Counter,
    bytes_sent: Counter,
}

impl ClientStats {
    /// Creates zeroed counters under `scope`.
    pub fn new(scope: &Scope) -> Self {
        ClientStats {
            started: scope.counter("started"),
            completed: scope.counter("completed"),
            failed: scope.counter("failed"),
            retried: scope.counter("retried"),
            bytes_received: scope.counter("bytes_received"),
            bytes_sent: scope.counter("bytes_sent"),
        }
    }

    /// A snapshot of the counters.
    pub fn snapshot(&self) -> ClientCounters {
        ClientCounters {
            started: self.started.value(),
            completed: self.completed.value(),
            failed: self.failed.value(),
            retried: self.retried.value(),
            bytes_received: self.bytes_received.value(),
            bytes_sent: self.bytes_sent.value(),
        }
    }

    /// Records a started transaction.
    pub fn add_started(&self) {
        self.started.inc();
    }

    /// Records a completed transaction.
    pub fn add_completed(&self) {
        self.completed.inc();
    }

    /// Records a failed transaction (retry budget exhausted).
    pub fn add_failed(&self) {
        self.failed.inc();
    }

    /// Records a retry attempt.
    pub fn add_retried(&self) {
        self.retried.inc();
    }

    /// Records received payload bytes.
    pub fn add_bytes_received(&self, n: u64) {
        self.bytes_received.add(n);
    }

    /// Records sent payload bytes.
    pub fn add_bytes_sent(&self, n: u64) {
        self.bytes_sent.add(n);
    }
}

/// Counters kept by a server application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections accepted.
    pub accepted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Malformed or unserviceable requests.
    pub errors: u64,
    /// Application payload bytes sent.
    pub bytes_sent: u64,
}

/// A shared handle onto one server's counters, stored in the
/// instruments of the scope it is built from (one scope per protocol
/// server); clones share them.
#[derive(Debug, Clone)]
pub struct ServerStats {
    accepted: Counter,
    served: Counter,
    errors: Counter,
    bytes_sent: Counter,
}

impl ServerStats {
    /// Creates zeroed counters under `scope`.
    pub fn new(scope: &Scope) -> Self {
        ServerStats {
            accepted: scope.counter("accepted"),
            served: scope.counter("served"),
            errors: scope.counter("errors"),
            bytes_sent: scope.counter("bytes_sent"),
        }
    }

    /// A snapshot of the counters.
    pub fn snapshot(&self) -> ServerCounters {
        ServerCounters {
            accepted: self.accepted.value(),
            served: self.served.value(),
            errors: self.errors.value(),
            bytes_sent: self.bytes_sent.value(),
        }
    }

    /// Records an accepted connection.
    pub fn add_accepted(&self) {
        self.accepted.inc();
    }

    /// Records a served request.
    pub fn add_served(&self) {
        self.served.inc();
    }

    /// Records an error.
    pub fn add_error(&self) {
        self.errors.inc();
    }

    /// Records sent payload bytes.
    pub fn add_bytes_sent(&self, n: u64) {
        self.bytes_sent.add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_handles_share_state() {
        let a = ClientStats::new(&obs::Registry::new().scope("traffic.client.http"));
        let b = a.clone();
        b.add_started();
        b.add_completed();
        b.add_bytes_received(100);
        let snap = a.snapshot();
        assert_eq!(snap.started, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.bytes_received, 100);
    }

    #[test]
    fn server_handles_share_state() {
        let a = ServerStats::new(&obs::Registry::new().scope("traffic.server.http"));
        let b = a.clone();
        b.add_accepted();
        b.add_served();
        b.add_bytes_sent(42);
        b.add_error();
        let snap = a.snapshot();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.served, 1);
        assert_eq!(snap.bytes_sent, 42);
        assert_eq!(snap.errors, 1);
    }

    #[test]
    fn counts_export_per_protocol_outcomes() {
        let registry = obs::Registry::new();
        let http = ClientStats::new(&registry.scope("traffic.client.http"));
        let ftp = ClientStats::new(&registry.scope("traffic.client.ftp"));
        http.add_started();
        http.add_completed();
        ftp.add_started();
        ftp.add_retried();
        ftp.add_failed();
        let server = ServerStats::new(&registry.scope("traffic.server.http"));
        server.add_accepted();
        server.add_bytes_sent(64);
        let telemetry = registry.snapshot();
        assert_eq!(telemetry.counter("traffic.client.http.completed"), Some(1));
        assert_eq!(telemetry.counter("traffic.client.ftp.failed"), Some(1));
        assert_eq!(telemetry.counter("traffic.client.ftp.retried"), Some(1));
        assert_eq!(telemetry.counter("traffic.client.http.failed"), Some(0));
        assert_eq!(telemetry.counter("traffic.server.http.bytes_sent"), Some(64));
    }
}
