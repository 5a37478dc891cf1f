//! The container runtime: deploys named containers onto the simulated
//! network, the way DDoSim bridges Docker containers into NS-3 via ghost
//! nodes and taps.
//!
//! A [`Runtime`] owns the [`World`] plus a shared CSMA "bridge" link.
//! Each deployed [`Container`] gets a node, an address on the bridge, a
//! [`ResourceMeter`], and hosts one or more applications (the "binaries"
//! inside the container image).

use std::collections::HashMap;

use netsim::faults::FaultAction;
use netsim::link::LinkConfig;
use netsim::packet::{Addr, Provenance};
use netsim::time::{SimDuration, SimTime};
use netsim::world::{App, World};
use netsim::{AppId, LinkId, NodeId, SimRng};
use serde::{Deserialize, Serialize};

use crate::meter::ResourceMeter;

/// Identifies a deployed container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContainerId(u32);

impl ContainerId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ContainerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ContainerId({})", self.0)
    }
}

/// The role a container plays in the testbed; used for summaries and to
/// choose the default provenance of the traffic its apps originate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// The attacker / C2 machine.
    Attacker,
    /// A network-facing IoT device (potential bot).
    Device,
    /// The target server (Apache + Nginx + FTP in the paper).
    TServer,
    /// The real-time IDS unit.
    Ids,
    /// Anything else (benign client pools, probes, …).
    Auxiliary,
}

impl Role {
    /// Default provenance for traffic originated by apps in this role.
    ///
    /// Only the attacker originates malicious traffic *by default*;
    /// devices switch to malicious provenance per-app once infected (the
    /// bot app is registered with malicious provenance, the vulnerable
    /// service keeps benign).
    pub fn default_provenance(self) -> Provenance {
        match self {
            Role::Attacker => Provenance::Malicious,
            _ => Provenance::Benign,
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Role::Attacker => "attacker",
            Role::Device => "device",
            Role::TServer => "tserver",
            Role::Ids => "ids",
            Role::Auxiliary => "auxiliary",
        };
        f.write_str(name)
    }
}

/// Deployment-time description of a container.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContainerSpec {
    /// Unique container name (like a Docker container name).
    pub name: String,
    /// Image label, cosmetic (`"ddoshield/tserver:latest"`).
    pub image: String,
    /// Role in the testbed.
    pub role: Role,
}

impl ContainerSpec {
    /// A spec with a derived image label.
    pub fn new(name: impl Into<String>, role: Role) -> Self {
        let name = name.into();
        ContainerSpec { image: format!("ddoshield/{role}:latest"), name, role }
    }
}

/// A deployed container.
#[derive(Debug)]
pub struct Container {
    /// Its identifier.
    pub id: ContainerId,
    /// Deployment spec.
    pub spec: ContainerSpec,
    /// Backing simulated node.
    pub node: NodeId,
    /// Address on the testbed bridge.
    pub addr: Addr,
    /// Applications hosted inside the container.
    pub apps: Vec<AppId>,
    /// Resource accounts.
    pub meter: ResourceMeter,
}

/// Lifecycle state of a deployed container.
///
/// The state machine is `Running → Down → Running` for crashes with a
/// manual restart, and `Running → Rebooting → Running` for scheduled
/// reboots: a rebooting container is down on the network exactly like a
/// crashed one, but the runtime knows a boot completion is already
/// scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContainerState {
    /// The node is up and its apps are attached to the bridge.
    Running,
    /// The node is down with no scheduled restore (crash or `stop`).
    Down,
    /// The node is down but a boot completion is pending.
    Rebooting,
}

impl std::fmt::Display for ContainerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ContainerState::Running => "running",
            ContainerState::Down => "down",
            ContainerState::Rebooting => "rebooting",
        })
    }
}

/// The physical medium of the testbed bridge (DDoSim supports "CSMA and
/// Wi-Fi networks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BridgeMedium {
    /// A wired CSMA bus (the default).
    #[default]
    Csma,
    /// An 802.11-style shared medium with DIFS + contention backoff.
    Wifi,
}

/// The container runtime: owns the world and the bridge network.
///
/// ```
/// use containers::runtime::{ContainerSpec, Role, Runtime};
/// use netsim::link::LinkConfig;
///
/// let mut rt = Runtime::new(42, LinkConfig::lan_100mbps());
/// let dev = rt.deploy(ContainerSpec::new("dev-0", Role::Device));
/// assert_eq!(rt.container(dev).spec.name, "dev-0");
/// ```
#[derive(Debug)]
pub struct Runtime {
    world: World,
    bridge: LinkId,
    containers: Vec<Container>,
    by_name: HashMap<String, ContainerId>,
    next_host: u32,
    /// Scheduled boot-completion times per container, so [`Runtime::state`]
    /// can tell a rebooting container from a crashed one.
    pending_boots: Vec<(ContainerId, SimTime)>,
}

impl Runtime {
    /// Creates a runtime with an empty CSMA bridge network.
    pub fn new(seed: u64, bridge_config: LinkConfig) -> Self {
        Runtime::with_medium(seed, bridge_config, BridgeMedium::Csma)
    }

    /// Creates a runtime with the chosen bridge medium.
    pub fn with_medium(seed: u64, bridge_config: LinkConfig, medium: BridgeMedium) -> Self {
        let mut world = World::new(seed);
        let bridge = match medium {
            BridgeMedium::Csma => world.add_csma_link(&[], bridge_config),
            BridgeMedium::Wifi => world.add_wifi_link(&[], bridge_config),
        };
        Runtime {
            world,
            bridge,
            containers: Vec::new(),
            by_name: HashMap::new(),
            next_host: 2,
            pending_boots: Vec::new(),
        }
    }

    /// The bridge link all containers share.
    pub fn bridge(&self) -> LinkId {
        self.bridge
    }

    /// Read access to the underlying world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the underlying world.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Installs buggify decision-point perturbation on the underlying
    /// world (swarm testing). Call before any container app starts.
    pub fn set_buggify(&mut self, cfg: netsim::buggify::BuggifyConfig) {
        self.world.set_buggify(cfg);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Deploys a container: allocates an address in `10.0.x.y`, creates
    /// its node and joins it to the bridge.
    ///
    /// # Panics
    ///
    /// Panics if the name is already in use.
    pub fn deploy(&mut self, spec: ContainerSpec) -> ContainerId {
        assert!(!self.by_name.contains_key(&spec.name), "duplicate container name {}", spec.name);
        let host = self.next_host;
        self.next_host += 1;
        let addr = Addr::new(10, 0, (host >> 8) as u8, (host & 0xff) as u8);
        let node = self.world.add_node(addr, spec.name.clone());
        self.world.join_csma_link(self.bridge, node);
        let id = ContainerId(self.containers.len() as u32);
        self.by_name.insert(spec.name.clone(), id);
        self.containers.push(Container {
            id,
            spec,
            node,
            addr,
            apps: Vec::new(),
            meter: ResourceMeter::new(),
        });
        id
    }

    /// Installs an application ("binary") into a container, stamping the
    /// traffic it originates with `provenance`, and schedules its start.
    pub fn install(
        &mut self,
        container: ContainerId,
        app: Box<dyn App>,
        provenance: Provenance,
        start_at: SimTime,
    ) -> AppId {
        let node = self.containers[container.index()].node;
        let app_id = self.world.add_app(node, app, provenance);
        self.containers[container.index()].apps.push(app_id);
        self.world.start_app(app_id, start_at);
        app_id
    }

    /// The container record.
    pub fn container(&self, id: ContainerId) -> &Container {
        &self.containers[id.index()]
    }

    /// Looks a container up by name.
    pub fn container_by_name(&self, name: &str) -> Option<&Container> {
        self.by_name.get(name).map(|&id| self.container(id))
    }

    /// All deployed containers.
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.iter()
    }

    /// A clone of the container's resource meter handle.
    pub fn meter(&self, id: ContainerId) -> ResourceMeter {
        self.containers[id.index()].meter.clone()
    }

    /// The container's address on the bridge.
    pub fn addr(&self, id: ContainerId) -> Addr {
        self.containers[id.index()].addr
    }

    /// The container's backing node.
    pub fn node(&self, id: ContainerId) -> NodeId {
        self.containers[id.index()].node
    }

    /// Stops a container (its node goes down; connections die).
    pub fn stop(&mut self, id: ContainerId) {
        let node = self.containers[id.index()].node;
        self.world.set_node_up(node, false);
    }

    /// Restarts a stopped container.
    pub fn start(&mut self, id: ContainerId) {
        let node = self.containers[id.index()].node;
        self.world.set_node_up(node, true);
    }

    /// Whether the container is currently running.
    pub fn is_running(&self, id: ContainerId) -> bool {
        self.world.node_is_up(self.containers[id.index()].node)
    }

    /// The container's lifecycle state at the current virtual time.
    pub fn state(&self, id: ContainerId) -> ContainerState {
        if self.is_running(id) {
            return ContainerState::Running;
        }
        let now = self.world.now();
        let boot_pending = self.pending_boots.iter().any(|&(c, at)| c == id && at > now);
        if boot_pending {
            ContainerState::Rebooting
        } else {
            ContainerState::Down
        }
    }

    /// Schedules a hard crash of the container at virtual time `at`.
    /// The crash fires as an ordinary fault event (no RNG consumed), so
    /// scheduling it never perturbs any random stream.
    pub fn schedule_crash(&mut self, id: ContainerId, at: SimTime) {
        let node = self.containers[id.index()].node;
        self.world.schedule_fault(at, FaultAction::NodeCrash { node });
    }

    /// Schedules a crash at `at` followed by a boot completion
    /// `boot_delay` later. While booting the container reports
    /// [`ContainerState::Rebooting`].
    pub fn schedule_reboot(&mut self, id: ContainerId, at: SimTime, boot_delay: SimDuration) {
        let node = self.containers[id.index()].node;
        self.world.schedule_fault(at, FaultAction::NodeReboot { node, boot_delay });
        self.pending_boots.push((id, at + boot_delay));
    }

    /// Total time the container has spent down so far (crashes, reboots
    /// and churn all count), including a still-open down interval.
    pub fn downtime(&self, id: ContainerId) -> SimDuration {
        self.world.node_downtime(self.containers[id.index()].node)
    }

    /// Per-container downtime in nanoseconds, sorted by container name —
    /// integer, deterministic output fit for byte-diffed reports.
    pub fn downtime_table(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = self
            .containers
            .iter()
            .map(|c| (c.spec.name.clone(), self.downtime(c.id).as_nanos()))
            .collect();
        rows.sort();
        rows
    }

    /// Runs the simulation for a span of virtual time.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.world.run_for(duration);
    }

    /// Runs the simulation until an absolute virtual time.
    pub fn run_until(&mut self, until: SimTime) {
        self.world.run_until(until);
    }

    /// Pre-schedules on/off churn cycles for a set of containers over a
    /// horizon, mimicking devices leaving and rejoining the network.
    ///
    /// `rate_per_min` is the expected number of departures per container
    /// per minute; each departure lasts `mean_down` seconds on average
    /// (exponentially distributed).
    pub fn apply_churn(
        &mut self,
        containers: &[ContainerId],
        rate_per_min: f64,
        mean_down: SimDuration,
        horizon: SimDuration,
        rng: &mut SimRng,
    ) {
        if rate_per_min <= 0.0 {
            return;
        }
        let start = self.world.now();
        let end = start + horizon;
        for &c in containers {
            let node = self.containers[c.index()].node;
            let mut t = start;
            loop {
                let gap = SimDuration::from_secs_f64(rng.exponential(60.0 / rate_per_min));
                t += gap;
                if t >= end {
                    break;
                }
                let down_for = SimDuration::from_secs_f64(rng.exponential(mean_down.as_secs_f64()));
                let back = (t + down_for).min(end);
                self.world.schedule_node_up(node, false, t);
                self.world.schedule_node_up(node, true, back);
                t = back;
            }
        }
    }

    /// One-line-per-container deployment summary (like `docker ps`).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<16} {:<28} {:<10} {:<12} STATUS", "NAME", "IMAGE", "ROLE", "ADDRESS");
        for c in &self.containers {
            let status = if self.is_running(c.id) { "running" } else { "exited" };
            let _ = writeln!(
                out,
                "{:<16} {:<28} {:<10} {:<12} {status}",
                c.spec.name,
                c.spec.image,
                c.spec.role.to_string(),
                c.addr.to_string(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> Runtime {
        Runtime::new(1, LinkConfig::lan_100mbps())
    }

    #[test]
    fn deploy_assigns_unique_addresses() {
        let mut rt = runtime();
        let a = rt.deploy(ContainerSpec::new("a", Role::Device));
        let b = rt.deploy(ContainerSpec::new("b", Role::Device));
        assert_ne!(rt.addr(a), rt.addr(b));
        assert_eq!(rt.container_by_name("a").map(|c| c.id), Some(a));
        assert!(rt.container_by_name("zzz").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate container name")]
    fn duplicate_names_rejected() {
        let mut rt = runtime();
        rt.deploy(ContainerSpec::new("a", Role::Device));
        rt.deploy(ContainerSpec::new("a", Role::Device));
    }

    #[test]
    fn stop_and_start_toggle_node_state() {
        let mut rt = runtime();
        let a = rt.deploy(ContainerSpec::new("a", Role::Device));
        rt.deploy(ContainerSpec::new("b", Role::Device));
        assert!(rt.is_running(a));
        rt.stop(a);
        assert!(!rt.is_running(a));
        rt.start(a);
        assert!(rt.is_running(a));
    }

    #[test]
    fn scheduled_reboot_walks_the_state_machine() {
        let mut rt = runtime();
        let a = rt.deploy(ContainerSpec::new("a", Role::Device));
        rt.deploy(ContainerSpec::new("b", Role::Device));
        rt.schedule_reboot(a, SimTime::from_secs(2), SimDuration::from_secs(3));

        assert_eq!(rt.state(a), ContainerState::Running);
        rt.run_for(SimDuration::from_secs(3)); // t=3: down, boot pending
        assert_eq!(rt.state(a), ContainerState::Rebooting);
        assert!(!rt.is_running(a));
        rt.run_for(SimDuration::from_secs(3)); // t=6: booted
        assert_eq!(rt.state(a), ContainerState::Running);
        assert_eq!(rt.downtime(a), SimDuration::from_secs(3));
    }

    #[test]
    fn scheduled_crash_stays_down_without_a_boot() {
        let mut rt = runtime();
        let a = rt.deploy(ContainerSpec::new("a", Role::Device));
        rt.deploy(ContainerSpec::new("b", Role::Device));
        rt.schedule_crash(a, SimTime::from_secs(1));
        rt.run_for(SimDuration::from_secs(4));
        assert_eq!(rt.state(a), ContainerState::Down);
        assert_eq!(rt.downtime(a), SimDuration::from_secs(3));
        // A manual restart recovers it, like `docker start`.
        rt.start(a);
        assert_eq!(rt.state(a), ContainerState::Running);
    }

    #[test]
    fn downtime_table_is_sorted_and_integer() {
        let mut rt = runtime();
        let b = rt.deploy(ContainerSpec::new("b", Role::Device));
        rt.deploy(ContainerSpec::new("a", Role::Device));
        rt.schedule_reboot(b, SimTime::from_secs(1), SimDuration::from_secs(2));
        rt.run_for(SimDuration::from_secs(5));
        let table = rt.downtime_table();
        assert_eq!(
            table,
            vec![("a".to_string(), 0), ("b".to_string(), 2_000_000_000)]
        );
    }

    #[test]
    fn role_provenance_defaults() {
        assert_eq!(Role::Attacker.default_provenance(), Provenance::Malicious);
        assert_eq!(Role::Device.default_provenance(), Provenance::Benign);
        assert_eq!(Role::TServer.default_provenance(), Provenance::Benign);
    }

    #[test]
    fn churn_schedules_state_changes() {
        let mut rt = runtime();
        let a = rt.deploy(ContainerSpec::new("a", Role::Device));
        rt.deploy(ContainerSpec::new("b", Role::Device));
        let mut rng = SimRng::seed_from(3);
        rt.apply_churn(
            &[a],
            6.0, // six departures a minute: plenty within the horizon
            SimDuration::from_secs(5),
            SimDuration::from_secs(120),
            &mut rng,
        );
        let mut down_seen = false;
        for _ in 0..240 {
            rt.run_for(SimDuration::from_millis(500));
            if !rt.is_running(a) {
                down_seen = true;
            }
        }
        assert!(down_seen, "churned container went down at least once");
        // At the horizon every scheduled return has fired.
        rt.run_for(SimDuration::from_secs(1));
        assert!(rt.is_running(a));
    }

    #[test]
    fn wifi_medium_deploys_and_carries_traffic() {
        let mut rt = Runtime::with_medium(21, LinkConfig::wifi_54mbps(), BridgeMedium::Wifi);
        let a = rt.deploy(ContainerSpec::new("a", Role::Device));
        let b = rt.deploy(ContainerSpec::new("b", Role::Device));
        // A raw UDP ping from a to b over the Wi-Fi medium.
        struct Ping {
            to: netsim::Addr,
        }
        impl netsim::world::App for Ping {
            fn on_start(&mut self, ctx: &mut netsim::world::Ctx<'_>) {
                ctx.udp_send(1000, self.to, 2000, bytes::Bytes::from_static(b"hi"));
            }
        }
        struct Pong {
            got: std::rc::Rc<std::cell::RefCell<bool>>,
        }
        impl netsim::world::App for Pong {
            fn on_start(&mut self, ctx: &mut netsim::world::Ctx<'_>) {
                ctx.udp_bind(2000);
            }
            fn on_udp(&mut self, _ctx: &mut netsim::world::Ctx<'_>, _d: netsim::Datagram) {
                *self.got.borrow_mut() = true;
            }
        }
        let got = std::rc::Rc::new(std::cell::RefCell::new(false));
        let to = rt.addr(b);
        rt.install(b, Box::new(Pong { got: std::rc::Rc::clone(&got) }), Provenance::Benign, rt.now());
        rt.install(a, Box::new(Ping { to }), Provenance::Benign, rt.now());
        rt.run_for(SimDuration::from_millis(100));
        assert!(*got.borrow(), "datagram crossed the Wi-Fi bridge");
    }

    #[test]
    fn summary_lists_all_containers() {
        let mut rt = runtime();
        rt.deploy(ContainerSpec::new("tserver", Role::TServer));
        rt.deploy(ContainerSpec::new("ids", Role::Ids));
        let s = rt.summary();
        assert!(s.contains("tserver"));
        assert!(s.contains("ids"));
        assert!(s.contains("running"));
    }
}
