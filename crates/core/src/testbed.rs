//! The assembled testbed: four container roles on one simulated bridge.
//!
//! [`Testbed::deploy`] reproduces Fig. 1 of the paper: the **TServer**
//! (Apache-like HTTP + RTMP-like video + FTP servers), the **Attacker**
//! (Mirai scanner / loader / C2), a fleet of **Devs** (vulnerable IoT
//! devices that also run benign client workloads), and the **IDS**
//! container. A sniffer taps every packet involving the TServer — the
//! traffic the paper's IDS monitors.

use botnet::attacker::AttackerConfig;
use botnet::commands::{AttackOrder, C2Command};
use botnet::deploy::{install_attacker, install_device_agents};
use botnet::stats::BotnetStats;
use capture::dataset::Dataset;
use capture::sniffer::{sniffer_pair, SnifferFilter, SnifferHandle};
use containers::meter::ResourceMeter;
use containers::runtime::{ContainerId, ContainerSpec, Role, Runtime};
use ids::pipeline::TrainedIds;
use ids::realtime::DetectionLog;
use ids::resources::{RobustnessReport, SustainabilityReport};
use ids::serving::{serving_pair, ServingConfig, ServingHandle, TenantConfig, TenantCounters};
use netsim::rng::SimRng;
use netsim::time::{SimDuration, SimTime};
use netsim::Addr;
use obs::{Registry, RunTelemetry, Scope};
use traffic::workload::{install_device_client_mix, install_tserver, ClientStatsBundle, ServerStatsBundle};

use crate::scenario::ScenarioConfig;

/// A deployed testbed, ready to run.
pub struct Testbed {
    rt: Runtime,
    config: ScenarioConfig,
    tserver: ContainerId,
    attacker: ContainerId,
    ids_container: ContainerId,
    devices: Vec<ContainerId>,
    sniffer: SnifferHandle,
    botnet_stats: BotnetStats,
    server_stats: ServerStatsBundle,
    client_stats: ClientStatsBundle,
    registry: Registry,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("devices", &self.devices.len())
            .field("now", &self.rt.now())
            .finish()
    }
}

impl Testbed {
    /// Deploys all containers, services and the attack schedule.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails [`ScenarioConfig::validate`].
    pub fn deploy(config: ScenarioConfig) -> Testbed {
        if let Err(problems) = config.validate() {
            panic!("invalid scenario: {}", problems.join("; "));
        }
        let mut rt = Runtime::with_medium(config.seed, config.link, config.medium);
        let mut rng = SimRng::seed_from(config.seed ^ 0xdd05_41e1d);
        // Observability: every subsystem reports into one registry under
        // its own scope, and the stats handles count in it. All
        // instruments are sim-clock/counter driven, so the export is
        // byte-identical across same-seed runs.
        let registry = Registry::new();

        let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
        let attacker = rt.deploy(ContainerSpec::new("attacker", Role::Attacker));
        let ids_container = rt.deploy(ContainerSpec::new("ids", Role::Ids));
        let devices: Vec<ContainerId> = (0..config.devices)
            .map(|i| rt.deploy(ContainerSpec::new(format!("dev-{i}"), Role::Device)))
            .collect();
        let tserver_addr = rt.addr(tserver);

        // Benign side: the three servers and the device client mix.
        let server_stats = install_tserver(
            &mut rt,
            tserver,
            &config.workload,
            &registry.scope("traffic.server"),
            &mut rng,
        );
        let client_stats = ClientStatsBundle::new(&registry.scope("traffic.client"));
        for offset in 0..config.clients_per_device.max(1) {
            install_device_client_mix(
                &mut rt,
                &devices,
                tserver_addr,
                &config.workload,
                SimTime::ZERO,
                offset,
                &client_stats,
                &mut rng,
            );
        }

        // Malicious side: vulnerable agents and the Mirai attacker.
        let botnet_stats = BotnetStats::new(registry.scope("botnet"));
        install_device_agents(
            &mut rt,
            &devices,
            config.vulnerable_fraction,
            config.flood,
            &botnet_stats,
            &mut rng,
            SimTime::ZERO,
        );
        let schedule: Vec<(SimTime, C2Command)> = config
            .attacks
            .iter()
            .map(|phase| {
                let at = SimTime::ZERO + config.infection_lead + phase.start;
                let order = AttackOrder {
                    vector: phase.vector,
                    target: tserver_addr,
                    port: config.attack_port,
                    duration_secs: phase.duration_secs,
                    pps: phase.pps,
                };
                (at, C2Command::Attack(order))
            })
            .collect();
        let attacker_config = AttackerConfig {
            scan_interval_mean: config.scan_interval_mean,
            // Scan the populated host range plus some empty space.
            scan_hosts: (2, (config.devices as u32 + 3) + 16),
            schedule,
        };
        install_attacker(
            &mut rt,
            attacker,
            attacker_config,
            botnet_stats.clone(),
            rng.fork(),
            SimTime::ZERO,
        );

        // Churn, if configured.
        if config.churn_rate_per_min > 0.0 {
            let horizon = config.attack_horizon() + SimDuration::from_secs(120);
            // Named stream off the scenario seed, not a fork of the
            // deploy stream: a conditional fork here would make every
            // later draw depend on whether churn is configured.
            let mut churn_rng = SimRng::named(config.seed, "deploy.churn");
            rt.apply_churn(
                &devices,
                config.churn_rate_per_min,
                config.churn_mean_down,
                horizon,
                &mut churn_rng,
            );
        }

        // The IDS's monitoring point: everything involving the TServer.
        let (tap, sniffer) = sniffer_pair(SnifferFilter::Involving(tserver_addr));
        rt.world_mut().add_tap(Box::new(tap));

        // Buggify swarm perturbation: armed before any app starts so
        // every decision-point stream observes the run from its first
        // event. The sniffer draws its capture points from a fork of
        // the kernel's layer and counts into the kernel's table.
        rt.set_buggify(config.buggify);
        sniffer.set_buggify(rt.world().buggify_fork());

        // Fault injection: compile the declarative config into concrete
        // timestamped actions against the bridge and the IDS node. The
        // plan is scheduled up front, so the same seed always injects
        // the same chaos.
        if !config.faults.is_empty() {
            let bridge = rt.bridge();
            let ids_node = rt.node(ids_container);
            // Named stream: the fault schedule is a pure function of
            // the scenario seed, independent of fleet size, client mix
            // and the churn toggle, all of which draw different amounts
            // from the deploy stream above.
            let mut fault_rng = SimRng::named(config.seed, "deploy.faults");
            let plan = config.faults.to_fault_plan(
                bridge,
                ids_node,
                config.infection_lead,
                &mut fault_rng,
            );
            rt.world_mut().apply_fault_plan(&plan);
        }

        // Container lifecycle faults go through the runtime (not the
        // raw fault plan) so it can track per-container boot state.
        // Scheduling consumes no randomness, preserving the deploy RNG
        // stream for scenarios without lifecycle faults.
        let resolve = |target: crate::scenario::LifecycleTarget| match target {
            crate::scenario::LifecycleTarget::TServer => tserver,
            crate::scenario::LifecycleTarget::Device(i) => devices[i],
        };
        for crash in &config.faults.crashes {
            let at = SimTime::ZERO + config.infection_lead + crash.start;
            rt.schedule_crash(resolve(crash.target), at);
        }
        for reboot in &config.faults.reboots {
            let at = SimTime::ZERO + config.infection_lead + reboot.start;
            rt.schedule_reboot(resolve(reboot.target), at, reboot.down_for);
        }

        rt.world_mut().set_obs(registry.scope("netsim"));

        Testbed {
            rt,
            config,
            tserver,
            attacker,
            ids_container,
            devices,
            sniffer,
            botnet_stats,
            server_stats,
            client_stats,
            registry,
        }
    }

    /// The underlying container runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Mutable runtime access (custom experiments).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// The scenario this testbed was deployed from.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// TServer container id.
    pub fn tserver(&self) -> ContainerId {
        self.tserver
    }

    /// Attacker container id.
    pub fn attacker(&self) -> ContainerId {
        self.attacker
    }

    /// IDS container id.
    pub fn ids_container(&self) -> ContainerId {
        self.ids_container
    }

    /// Device container ids.
    pub fn devices(&self) -> &[ContainerId] {
        &self.devices
    }

    /// The TServer's bridge address.
    pub fn tserver_addr(&self) -> Addr {
        self.rt.addr(self.tserver)
    }

    /// Botnet progress counters.
    pub fn botnet_stats(&self) -> &BotnetStats {
        &self.botnet_stats
    }

    /// TServer-side benign service counters.
    pub fn server_stats(&self) -> &ServerStatsBundle {
        &self.server_stats
    }

    /// Device-side benign client counters.
    pub fn client_stats(&self) -> &ClientStatsBundle {
        &self.client_stats
    }

    /// The sniffer feed at the TServer.
    pub fn sniffer(&self) -> &SnifferHandle {
        &self.sniffer
    }

    /// Runs the infection lead-in (scanning + credential attacks) and
    /// discards the traffic captured during it, so capture/detection
    /// phases start from an established botnet, as in DDoSim's phases.
    pub fn run_infection_lead(&mut self) {
        let lead = self.config.infection_lead;
        self.rt.run_for(lead);
        let _ = self.sniffer.drain();
    }

    /// Runs for `duration`, capturing the TServer's traffic into a
    /// labelled [`Dataset`] (the paper's 10-minute training run).
    pub fn run_capture(&mut self, duration: SimDuration) -> Dataset {
        self.rt.run_for(duration);
        Dataset::from_records(self.sniffer.drain())
    }

    /// Runs the real-time detection phase (the paper's 5-minute run):
    /// installs the trained IDS into the IDS container as the serving
    /// layer's single-tenant paper preset ([`TenantConfig::paper`]),
    /// runs for `duration`, and returns its per-window log plus
    /// sustainability metrics.
    ///
    /// The service is not finalized: like the paper's IDS, the run logs
    /// only the windows that closed during it (a window closes when the
    /// next window's first record arrives), not the still-open last one.
    pub fn run_live(&mut self, duration: SimDuration, ids: TrainedIds) -> LiveReport {
        // Wall-clock predict latency lives in its own registry: the
        // measured numbers are host-dependent, and mixing them into the
        // deterministic registry would break byte-identical exports.
        let wall_registry = Registry::new();
        let served = self.serve(
            duration,
            ServingConfig::new(ids),
            vec![(TenantConfig::paper("tserver"), ServingTenantTarget::TServer)],
            Some(wall_registry.scope("ids.wallclock")),
            false,
        );
        let log = served.tenants.into_iter().next().expect("the paper tenant").log;
        LiveReport {
            log,
            sustainability: served.sustainability,
            robustness: served.robustness,
            meter: served.meter,
            telemetry: self.telemetry(),
            wallclock: wall_registry.snapshot(),
        }
    }

    /// Runs the long-lived serving phase: installs an
    /// [`ids::serving::IdsService`] with one tenant per monitored link,
    /// runs for `duration`, finalizes the service (graceful drain) and
    /// returns the per-tenant logs, accounting, and the usual
    /// sustainability / robustness / telemetry reports.
    ///
    /// The first tenant targeting [`ServingTenantTarget::TServer`]
    /// reuses the testbed's existing TServer tap (so the feed
    /// conservation accounting stays whole); device tenants get their
    /// own taps, added when this method runs. Targets should be
    /// distinct — two tenants sharing one feed would steal each other's
    /// records.
    pub fn run_live_serving(
        &mut self,
        duration: SimDuration,
        config: ServingConfig,
        tenants: Vec<(TenantConfig, ServingTenantTarget)>,
    ) -> ServingRunReport {
        let served = self.serve(duration, config, tenants, None, true);
        let handle = served.handle;
        let (swaps, retrains, retrains_failed) = handle.swap_counts();
        let generation = handle.generation();
        let telemetry = self.telemetry();
        ServingRunReport {
            tenants: served.tenants,
            generation,
            swaps,
            retrains,
            retrains_failed,
            handle,
            sustainability: served.sustainability,
            robustness: served.robustness,
            meter: served.meter,
            telemetry,
        }
    }

    /// The body [`Testbed::run_live`] and [`Testbed::run_live_serving`]
    /// share: wires each tenant to its feed, installs the service into
    /// the IDS container with telemetry under `ids.serving`, runs for
    /// `duration`, optionally finalizes, and assembles the reports.
    /// Tenant counters are synced before returning, so a telemetry
    /// snapshot taken afterwards carries the queue accounting.
    fn serve(
        &mut self,
        duration: SimDuration,
        config: ServingConfig,
        tenants: Vec<(TenantConfig, ServingTenantTarget)>,
        wallclock: Option<Scope>,
        finalize: bool,
    ) -> Served {
        let meter = self.rt.meter(self.ids_container);
        meter.set_obs(&self.registry.scope("containers.ids"));
        let model_size_kb = config.champion.model().encode().len() as f64 / 1024.0;
        let mut feeds = Vec::new();
        let mut wired = Vec::new();
        for (tenant_config, target) in tenants {
            let feed = match target {
                ServingTenantTarget::TServer => self.sniffer.clone(),
                ServingTenantTarget::Device(i) => {
                    let addr = self.rt.addr(self.devices[i]);
                    let (tap, handle) = sniffer_pair(SnifferFilter::Involving(addr));
                    self.rt.world_mut().add_tap(Box::new(tap));
                    handle.set_buggify(self.rt.world().buggify_fork());
                    handle
                }
            };
            feeds.push(feed.clone());
            wired.push((tenant_config, feed));
        }
        let (mut app, handle) = serving_pair(
            config,
            wired,
            meter.clone(),
            self.registry.scope("ids.serving"),
        );
        if let Some(scope) = wallclock {
            app.set_wallclock_obs(scope);
        }
        let now = self.rt.now();
        self.rt.install(
            self.ids_container,
            Box::new(app),
            netsim::packet::Provenance::Benign,
            now,
        );
        self.rt.run_for(duration);
        if finalize {
            handle.finalize();
        }

        let sustainability = SustainabilityReport {
            cpu_percent: meter.mean_cpu_percent(),
            memory_kb: meter.memory_peak_bytes() as f64 / 1024.0,
            model_size_kb,
        };
        let tenants: Vec<TenantReport> = handle
            .all_counters()
            .into_iter()
            .map(|(name, counters)| {
                let log = handle.tenant_log(&name).expect("tenant came from the handle");
                TenantReport { name, log, counters }
            })
            .collect();
        // Lifecycle accounting: container downtime, benign success
        // rates (cumulative since deploy) and botnet eviction /
        // reinfection counters. Everything is integer-valued, so two
        // same-seed runs report byte-identically.
        let benign = [
            self.client_stats.http.snapshot(),
            self.client_stats.video.snapshot(),
            self.client_stats.ftp.snapshot(),
        ];
        let bots = self.botnet_stats.snapshot();
        let robustness = RobustnessReport {
            windows_total: tenants.iter().map(|t| t.log.len()).sum(),
            windows_degraded: tenants.iter().map(|t| t.log.degraded_count()).sum(),
            windows_shed: tenants.iter().map(|t| t.counters.windows_shed as usize).sum(),
            records_shed: tenants.iter().map(|t| t.counters.records_shed).sum(),
            records_sampled_out: tenants.iter().map(|t| t.counters.records_sampled_out).sum(),
            feed_dropped: feeds.iter().map(|f| f.dropped_overflow()).sum(),
            feed_captured: feeds.iter().map(|f| f.captured_total()).sum(),
            container_downtime: self.rt.downtime_table(),
            benign_started: benign.iter().map(|c| c.started).sum(),
            benign_completed: benign.iter().map(|c| c.completed).sum(),
            benign_failed: benign.iter().map(|c| c.failed).sum(),
            benign_retried: benign.iter().map(|c| c.retried).sum(),
            bots_evicted: bots.bots_evicted,
            reinfections: bots.reinfections,
            reinfection_latency_total_nanos: bots.reinfection_latency_total_nanos,
        };
        Served { handle, tenants, sustainability, robustness, meter }
    }

    /// A snapshot of the run's telemetry: every counter, gauge and
    /// histogram across netsim / botnet / traffic / containers / ids,
    /// plus the sim-clock trace. Deterministic — two same-seed runs
    /// render byte-identical [`RunTelemetry::render_text`] output.
    pub fn telemetry(&mut self) -> RunTelemetry {
        self.rt.world_mut().publish_link_obs();
        self.registry.snapshot()
    }

    /// The telemetry registry (for attaching custom instruments).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Link counters of the shared bridge (fault-injection drops show
    /// up here as `drops_link_down`).
    pub fn bridge_stats(&self) -> netsim::link::LinkStats {
        self.rt.world().link_stats(self.rt.bridge())
    }

    /// SYN-backlog pressure on the TServer's HTTP listener:
    /// (half-open connections, SYNs dropped).
    pub fn tserver_backlog_pressure(&self) -> (usize, u64) {
        self.rt
            .world()
            .listener_pressure(self.rt.node(self.tserver), self.config.attack_port)
            .unwrap_or((0, 0))
    }
}

/// Which link a serving tenant monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingTenantTarget {
    /// The TServer's traffic (the testbed's primary tap).
    TServer,
    /// Everything involving the i-th device container.
    Device(usize),
}

/// What [`Testbed::serve`] hands back to the two run methods.
struct Served {
    handle: ServingHandle,
    tenants: Vec<TenantReport>,
    sustainability: SustainabilityReport,
    robustness: RobustnessReport,
    meter: ResourceMeter,
}

/// One tenant's slice of a serving run.
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant name (matches its [`TenantConfig`]).
    pub name: String,
    /// Per-window detection results, generation-stamped.
    pub log: DetectionLog,
    /// Ingestion/backpressure accounting; conservation holds exactly
    /// (the service was finalized before this was read).
    pub counters: TenantCounters,
}

/// The outcome of a long-lived serving phase.
#[derive(Debug)]
pub struct ServingRunReport {
    /// Per-tenant logs and accounting, in service order.
    pub tenants: Vec<TenantReport>,
    /// The champion's final model generation.
    pub generation: u64,
    /// Boundary swaps applied.
    pub swaps: u64,
    /// Background retrains staged successfully.
    pub retrains: u64,
    /// Retrains that failed recoverably (e.g. single-class corpus).
    pub retrains_failed: u64,
    /// The live service handle (post-run inspection, conservation
    /// checks).
    pub handle: ServingHandle,
    /// The paper's Table II row for the serving deployment.
    pub sustainability: SustainabilityReport,
    /// Overload/shed/feed accounting across every tenant.
    pub robustness: RobustnessReport,
    /// The IDS container's meter.
    pub meter: ResourceMeter,
    /// The run's deterministic telemetry export.
    pub telemetry: RunTelemetry,
}

/// The outcome of a real-time detection phase.
#[derive(Debug)]
pub struct LiveReport {
    /// Per-window detection results.
    pub log: DetectionLog,
    /// The paper's Table II row for this model.
    pub sustainability: SustainabilityReport,
    /// Overload/feed accounting: every window classified or degraded,
    /// every shed packet counted.
    pub robustness: RobustnessReport,
    /// The IDS container's meter (for further inspection).
    pub meter: ResourceMeter,
    /// The run's full telemetry export (see [`Testbed::telemetry`]).
    pub telemetry: RunTelemetry,
    /// Wall-clock reporting telemetry (per-model predict latency
    /// histograms under `ids.wallclock.*`). Host-dependent by design and
    /// therefore exported separately: it must never be byte-diffed or
    /// mixed into the deterministic `telemetry` export.
    pub wallclock: RunTelemetry,
}
