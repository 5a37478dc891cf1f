//! Protocol-level behaviour tests of the benign traffic applications,
//! run against the real simulated stack.

use std::cell::RefCell;
use std::rc::Rc;

use containers::runtime::{ContainerSpec, Role, Runtime};
use netsim::link::LinkConfig;
use netsim::packet::Provenance;
use netsim::rng::SimRng;
use netsim::tcp::TcpEvent;
use netsim::time::{SimDuration, SimTime};
use netsim::world::{App, Ctx};
use traffic::http::{Catalogue, HttpServer};
use traffic::stats::{ClientStats, ServerStats};
use traffic::video::{VideoClient, VideoServer};
use traffic::{FtpClient, FtpServer, HttpClient, RetryPolicy};

fn runtime(seed: u64) -> Runtime {
    Runtime::new(seed, LinkConfig::lan_100mbps())
}

/// Server counters in a registry of their own.
fn zeroed_server_stats() -> ServerStats {
    ServerStats::new(&obs::Registry::new().scope("traffic.server"))
}

/// Client counters in a registry of their own.
fn zeroed_client_stats() -> ClientStats {
    ClientStats::new(&obs::Registry::new().scope("traffic.client"))
}

/// A hand-rolled client requesting a missing object: the server answers
/// 404 and counts an error; the connection survives.
#[test]
fn http_missing_object_is_a_404_not_a_crash() {
    struct Probe {
        response: Rc<RefCell<String>>,
    }
    impl App for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let server = netsim::Addr::new(10, 0, 0, 2);
            ctx.tcp_connect(server, 80);
        }
        fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
            match event {
                TcpEvent::Connected { conn } => {
                    ctx.tcp_send(conn, b"GET /obj/999999 HTTP/1.1\r\n\r\n");
                }
                TcpEvent::Data { data, .. } => {
                    self.response.borrow_mut().push_str(&String::from_utf8_lossy(&data));
                }
                _ => {}
            }
        }
    }

    let mut rt = runtime(1);
    let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
    let dev = rt.deploy(ContainerSpec::new("dev", Role::Device));
    let stats = zeroed_server_stats();
    let mut rng = SimRng::seed_from(2);
    let catalogue = Catalogue::generate(10, 500, 5_000, &mut rng);
    rt.install(
        tserver,
        Box::new(HttpServer::new(catalogue, stats.clone())),
        Provenance::Benign,
        SimTime::ZERO,
    );
    let response = Rc::new(RefCell::new(String::new()));
    rt.install(
        dev,
        Box::new(Probe { response: Rc::clone(&response) }),
        Provenance::Benign,
        SimTime::from_millis(1),
    );
    rt.run_for(SimDuration::from_secs(2));
    assert!(response.borrow().starts_with("HTTP/1.1 404"), "got: {}", response.borrow());
    assert_eq!(stats.snapshot().errors, 1);
    assert_eq!(stats.snapshot().served, 0);
}

/// The closed-loop HTTP client keeps issuing requests and every response
/// body is fully consumed (completed == started once quiesced).
#[test]
fn http_client_loop_completes_every_request() {
    let mut rt = runtime(3);
    let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
    let dev = rt.deploy(ContainerSpec::new("dev", Role::Device));
    let server_stats = zeroed_server_stats();
    let client_stats = zeroed_client_stats();
    let mut rng = SimRng::seed_from(4);
    let catalogue = Catalogue::generate(20, 1_000, 50_000, &mut rng);
    rt.install(
        tserver,
        Box::new(HttpServer::new(catalogue, server_stats.clone())),
        Provenance::Benign,
        SimTime::ZERO,
    );
    let tserver_addr = rt.addr(tserver);
    rt.install(
        dev,
        Box::new(HttpClient::new(
            tserver_addr,
            0.1,
            20,
            RetryPolicy::default(),
            client_stats.clone(),
            rng.fork(),
        )),
        Provenance::Benign,
        SimTime::ZERO,
    );
    rt.run_for(SimDuration::from_secs(20));
    let snapshot = client_stats.snapshot();
    assert!(snapshot.completed >= 100, "completed {}", snapshot.completed);
    assert_eq!(snapshot.failed, 0);
    // At most one request can still be in flight.
    assert!(snapshot.started - snapshot.completed <= 1);
    assert_eq!(server_stats.snapshot().served, snapshot.completed);
}

/// FTP: a full login + passive transfer round-trip, then the data
/// listener is torn down (no port leak across sessions).
#[test]
fn ftp_sessions_do_not_leak_data_listeners() {
    let mut rt = runtime(5);
    let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
    let dev = rt.deploy(ContainerSpec::new("dev", Role::Device));
    let server_stats = zeroed_server_stats();
    let client_stats = zeroed_client_stats();
    let mut rng = SimRng::seed_from(6);
    let files = Catalogue::generate(5, 10_000, 100_000, &mut rng);
    rt.install(
        tserver,
        Box::new(FtpServer::new(files, server_stats.clone())),
        Provenance::Benign,
        SimTime::ZERO,
    );
    let tserver_addr = rt.addr(tserver);
    rt.install(
        dev,
        Box::new(FtpClient::new(
            tserver_addr,
            0.5,
            5,
            RetryPolicy::default(),
            client_stats.clone(),
            rng.fork(),
        )),
        Provenance::Benign,
        SimTime::ZERO,
    );
    rt.run_for(SimDuration::from_secs(30));
    let snapshot = client_stats.snapshot();
    assert!(snapshot.completed >= 10, "completed {}", snapshot.completed);
    assert_eq!(server_stats.snapshot().served, snapshot.completed);
    assert!(snapshot.bytes_received > 10_000 * snapshot.completed, "full files downloaded");
}

/// Several viewers stream concurrently; bytes received scale with the
/// watch time and the server tracks one session per viewer.
#[test]
fn video_streams_serve_concurrent_viewers() {
    let mut rt = runtime(7);
    let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
    let server_stats = zeroed_server_stats();
    rt.install(
        tserver,
        Box::new(VideoServer::new(server_stats.clone())),
        Provenance::Benign,
        SimTime::ZERO,
    );
    let tserver_addr = rt.addr(tserver);
    let mut rng = SimRng::seed_from(8);
    let client_stats = zeroed_client_stats();
    for i in 0..4 {
        let dev = rt.deploy(ContainerSpec::new(format!("dev-{i}"), Role::Device));
        rt.install(
            dev,
            Box::new(VideoClient::new(
                tserver_addr,
                1.0,
                5.0,
                RetryPolicy::default(),
                client_stats.clone(),
                rng.fork(),
            )),
            Provenance::Benign,
            SimTime::ZERO,
        );
    }
    rt.run_for(SimDuration::from_secs(30));
    let snapshot = client_stats.snapshot();
    assert!(snapshot.completed >= 8, "sessions completed {}", snapshot.completed);
    // 400 kbit/s minimum bitrate for ~5 s ≈ 250 kB per session.
    assert!(
        snapshot.bytes_received as f64 > snapshot.completed as f64 * 100_000.0,
        "bytes {} over {} sessions",
        snapshot.bytes_received,
        snapshot.completed
    );
    assert_eq!(server_stats.snapshot().served as usize, snapshot.started as usize);
}

/// The TServer stopping mid-stream fails clients without wedging them:
/// they resume once it returns.
#[test]
fn clients_survive_server_outage() {
    let mut rt = runtime(9);
    let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
    let dev = rt.deploy(ContainerSpec::new("dev", Role::Device));
    let server_stats = zeroed_server_stats();
    let client_stats = zeroed_client_stats();
    let mut rng = SimRng::seed_from(10);
    let catalogue = Catalogue::generate(20, 1_000, 20_000, &mut rng);
    rt.install(
        tserver,
        Box::new(HttpServer::new(catalogue, server_stats)),
        Provenance::Benign,
        SimTime::ZERO,
    );
    let tserver_addr = rt.addr(tserver);
    rt.install(
        dev,
        Box::new(HttpClient::new(
            tserver_addr,
            0.2,
            20,
            // Single-attempt policy: this test is about the bare failure
            // path, not retries.
            RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            client_stats.clone(),
            rng.fork(),
        )),
        Provenance::Benign,
        SimTime::ZERO,
    );
    rt.run_for(SimDuration::from_secs(5));
    let before_outage = client_stats.snapshot().completed;
    rt.stop(tserver);
    // SYN retries back off for ~6 s before a connect fails; give the
    // outage enough time for at least one full failure cycle.
    rt.run_for(SimDuration::from_secs(15));
    let failures_during = client_stats.snapshot().failed;
    assert!(failures_during > 0, "requests failed during the outage");
    rt.start(tserver);
    rt.run_for(SimDuration::from_secs(10));
    let after_recovery = client_stats.snapshot().completed;
    assert!(
        after_recovery > before_outage,
        "requests resumed after recovery: {before_outage} -> {after_recovery}"
    );
}

/// A brief TServer outage is absorbed by the retry budget: attempts are
/// aborted at the request deadline and retried with backoff, so the
/// transactions in flight during the blip still complete.
#[test]
fn clients_retry_through_brief_outage() {
    let mut rt = runtime(11);
    let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
    let dev = rt.deploy(ContainerSpec::new("dev", Role::Device));
    let client_stats = zeroed_client_stats();
    let mut rng = SimRng::seed_from(12);
    let catalogue = Catalogue::generate(20, 1_000, 20_000, &mut rng);
    rt.install(
        tserver,
        Box::new(HttpServer::new(catalogue, zeroed_server_stats())),
        Provenance::Benign,
        SimTime::ZERO,
    );
    let tserver_addr = rt.addr(tserver);
    let retry = RetryPolicy {
        timeout: SimDuration::from_secs(2),
        max_attempts: 5,
        base: SimDuration::from_secs(1),
        cap: SimDuration::from_secs(2),
    };
    rt.install(
        dev,
        Box::new(HttpClient::new(tserver_addr, 0.2, 20, retry, client_stats.clone(), rng.fork())),
        Provenance::Benign,
        SimTime::ZERO,
    );
    rt.run_for(SimDuration::from_secs(5));
    let before_outage = client_stats.snapshot().completed;
    rt.stop(tserver);
    rt.run_for(SimDuration::from_secs(3));
    rt.start(tserver);
    rt.run_for(SimDuration::from_secs(12));
    let snapshot = client_stats.snapshot();
    assert!(snapshot.retried > 0, "attempts were retried during the blip");
    assert!(
        snapshot.completed > before_outage,
        "requests resumed after recovery: {before_outage} -> {}",
        snapshot.completed
    );
    assert!(
        snapshot.failed <= 1,
        "the retry budget should absorb a 3 s blip, failed {}",
        snapshot.failed
    );
}
