//! Benign workload assembly: installs the TServer's three servers and a
//! mix of protocol clients across the IoT devices.

use netsim::packet::{Addr, Provenance};
use netsim::rng::SimRng;
use netsim::time::SimTime;
use serde::{Deserialize, Serialize};

use containers::runtime::{ContainerId, Runtime};

use crate::ftp::{FtpClient, FtpServer};
use crate::http::{Catalogue, HttpClient, HttpServer};
use crate::retry::RetryPolicy;
use crate::stats::{ClientStats, ServerStats};
use crate::video::{VideoClient, VideoServer};

/// Intensity knobs of the benign workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Web objects in the HTTP catalogue.
    pub http_objects: usize,
    /// Smallest HTTP object in bytes.
    pub http_min_bytes: usize,
    /// Largest HTTP object in bytes.
    pub http_max_bytes: usize,
    /// Mean think time between HTTP requests (seconds).
    pub http_think_mean: f64,
    /// Mean think time between video sessions (seconds).
    pub video_think_mean: f64,
    /// Mean video watch duration (seconds).
    pub video_watch_mean: f64,
    /// Files in the FTP catalogue.
    pub ftp_files: usize,
    /// Smallest FTP file in bytes.
    pub ftp_min_bytes: usize,
    /// Largest FTP file in bytes.
    pub ftp_max_bytes: usize,
    /// Mean think time between FTP sessions (seconds).
    pub ftp_think_mean: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            http_objects: 200,
            http_min_bytes: 500,
            http_max_bytes: 200_000,
            http_think_mean: 0.8,
            video_think_mean: 4.0,
            video_watch_mean: 15.0,
            ftp_files: 50,
            ftp_min_bytes: 5_000,
            ftp_max_bytes: 500_000,
            ftp_think_mean: 3.0,
        }
    }
}

/// Stats handles for the three TServer servers.
#[derive(Debug, Clone)]
pub struct ServerStatsBundle {
    /// Apache-like HTTP server counters.
    pub http: ServerStats,
    /// RTMP-like video server counters.
    pub video: ServerStats,
    /// FTP server counters.
    pub ftp: ServerStats,
}

impl ServerStatsBundle {
    /// Zeroed per-protocol counters under `scope` (e.g.
    /// `traffic.server.http.*`).
    pub fn new(scope: &obs::Scope) -> Self {
        ServerStatsBundle {
            http: ServerStats::new(&scope.child("http")),
            video: ServerStats::new(&scope.child("video")),
            ftp: ServerStats::new(&scope.child("ftp")),
        }
    }
}

/// Stats handles for the device-side client workloads.
#[derive(Debug, Clone)]
pub struct ClientStatsBundle {
    /// HTTP client counters (all devices aggregated).
    pub http: ClientStats,
    /// Video client counters.
    pub video: ClientStats,
    /// FTP client counters.
    pub ftp: ClientStats,
}

impl ClientStatsBundle {
    /// Zeroed per-protocol counters under `scope` (e.g.
    /// `traffic.client.http.*`).
    pub fn new(scope: &obs::Scope) -> Self {
        ClientStatsBundle {
            http: ClientStats::new(&scope.child("http")),
            video: ClientStats::new(&scope.child("video")),
            ftp: ClientStats::new(&scope.child("ftp")),
        }
    }
}

/// Installs Apache-, Nginx/RTMP- and FTP-like servers into the TServer
/// container. Returns the shared stats handles, counting under `scope`.
pub fn install_tserver(
    rt: &mut Runtime,
    tserver: ContainerId,
    config: &WorkloadConfig,
    scope: &obs::Scope,
    rng: &mut SimRng,
) -> ServerStatsBundle {
    let stats = ServerStatsBundle::new(scope);
    let http_catalogue =
        Catalogue::generate(config.http_objects, config.http_min_bytes, config.http_max_bytes, rng);
    let ftp_catalogue =
        Catalogue::generate(config.ftp_files, config.ftp_min_bytes, config.ftp_max_bytes, rng);
    let start = rt.now();
    rt.install(
        tserver,
        Box::new(HttpServer::new(http_catalogue, stats.http.clone())),
        Provenance::Benign,
        start,
    );
    rt.install(
        tserver,
        Box::new(VideoServer::new(stats.video.clone())),
        Provenance::Benign,
        start,
    );
    rt.install(
        tserver,
        Box::new(FtpServer::new(ftp_catalogue, stats.ftp.clone())),
        Provenance::Benign,
        start,
    );
    stats
}

/// Installs a rotating mix of protocol clients over the device
/// containers: device *i* gets an HTTP, video or FTP client depending on
/// `(i + offset) % 3`, so every protocol is always represented. Calling
/// this multiple times with increasing `offset` stacks extra clients
/// onto each device (a busier deployment), accumulating into `stats`.
/// Every client retries per [`RetryPolicy::default`].
#[allow(clippy::too_many_arguments)]
pub fn install_device_client_mix(
    rt: &mut Runtime,
    devices: &[ContainerId],
    tserver_addr: Addr,
    config: &WorkloadConfig,
    start_at: SimTime,
    offset: usize,
    stats: &ClientStatsBundle,
    rng: &mut SimRng,
) {
    let retry = RetryPolicy::default();
    for (i, &device) in devices.iter().enumerate() {
        let client_rng = rng.fork();
        let app: Box<dyn netsim::world::App> = match (i + offset) % 3 {
            0 => Box::new(HttpClient::new(
                tserver_addr,
                config.http_think_mean,
                config.http_objects,
                retry,
                stats.http.clone(),
                client_rng,
            )),
            1 => Box::new(VideoClient::new(
                tserver_addr,
                config.video_think_mean,
                config.video_watch_mean,
                retry,
                stats.video.clone(),
                client_rng,
            )),
            _ => Box::new(FtpClient::new(
                tserver_addr,
                config.ftp_think_mean,
                config.ftp_files,
                retry,
                stats.ftp.clone(),
                client_rng,
            )),
        };
        rt.install(device, app, Provenance::Benign, start_at);
    }
}

/// Installs one client per device (the default mix) and returns the
/// shared stats handles, counting under `scope`.
pub fn install_device_clients(
    rt: &mut Runtime,
    devices: &[ContainerId],
    tserver_addr: Addr,
    config: &WorkloadConfig,
    start_at: SimTime,
    scope: &obs::Scope,
    rng: &mut SimRng,
) -> ClientStatsBundle {
    let stats = ClientStatsBundle::new(scope);
    install_device_client_mix(rt, devices, tserver_addr, config, start_at, 0, &stats, rng);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use containers::runtime::{ContainerSpec, Role};
    use netsim::link::LinkConfig;
    use netsim::time::SimDuration;

    /// End-to-end benign traffic: all three protocols complete
    /// transactions over the shared bus.
    #[test]
    fn benign_mix_flows_end_to_end() {
        let mut rt = Runtime::new(11, LinkConfig::lan_100mbps());
        let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
        let devices: Vec<ContainerId> =
            (0..6).map(|i| rt.deploy(ContainerSpec::new(format!("dev-{i}"), Role::Device))).collect();
        let mut rng = SimRng::seed_from(5);
        let config = WorkloadConfig {
            http_think_mean: 0.3,
            video_think_mean: 1.0,
            video_watch_mean: 2.0,
            ftp_think_mean: 1.0,
            ..WorkloadConfig::default()
        };
        let registry = obs::Registry::new();
        let server_stats =
            install_tserver(&mut rt, tserver, &config, &registry.scope("traffic.server"), &mut rng);
        let tserver_addr = rt.addr(tserver);
        let client_stats = install_device_clients(
            &mut rt,
            &devices,
            tserver_addr,
            &config,
            SimTime::ZERO,
            &registry.scope("traffic.client"),
            &mut rng,
        );

        rt.run_for(SimDuration::from_secs(30));

        let http = client_stats.http.snapshot();
        let video = client_stats.video.snapshot();
        let ftp = client_stats.ftp.snapshot();
        assert!(http.completed >= 10, "http completed {}", http.completed);
        assert!(video.completed >= 2, "video completed {}", video.completed);
        assert!(ftp.completed >= 2, "ftp completed {}", ftp.completed);
        assert!(http.bytes_received > 0);
        assert!(video.bytes_received > 0);
        assert!(ftp.bytes_received > 0);

        let sv = server_stats.http.snapshot();
        assert_eq!(sv.served, sv.served.max(1), "http server served requests");
        assert!(server_stats.video.snapshot().bytes_sent > 0);
        assert!(server_stats.ftp.snapshot().served > 0);
    }

    /// The workload survives device churn: transactions fail during
    /// downtime but resume afterwards.
    #[test]
    fn benign_mix_survives_churn() {
        let mut rt = Runtime::new(12, LinkConfig::lan_100mbps());
        let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
        let devices: Vec<ContainerId> =
            (0..3).map(|i| rt.deploy(ContainerSpec::new(format!("dev-{i}"), Role::Device))).collect();
        let mut rng = SimRng::seed_from(6);
        let config = WorkloadConfig {
            http_think_mean: 0.2,
            video_think_mean: 1.0,
            ftp_think_mean: 1.0,
            ..WorkloadConfig::default()
        };
        let registry = obs::Registry::new();
        install_tserver(&mut rt, tserver, &config, &registry.scope("traffic.server"), &mut rng);
        let tserver_addr = rt.addr(tserver);
        let client_stats = install_device_clients(
            &mut rt,
            &devices,
            tserver_addr,
            &config,
            SimTime::ZERO,
            &registry.scope("traffic.client"),
            &mut rng,
        );

        rt.run_for(SimDuration::from_secs(5));
        let before = client_stats.http.snapshot().completed;
        for &d in &devices {
            rt.stop(d);
        }
        rt.run_for(SimDuration::from_secs(5));
        for &d in &devices {
            rt.start(d);
        }
        rt.run_for(SimDuration::from_secs(10));
        let after = client_stats.http.snapshot().completed;
        assert!(after > before, "clients resumed after churn: {before} -> {after}");
    }
}
