//! Deployment helpers wiring the botnet components into containers.

use netsim::packet::Provenance;
use netsim::rng::SimRng;
use netsim::time::SimTime;
use netsim::AppId;

use containers::runtime::{ContainerId, Runtime};

use crate::attacker::{Attacker, AttackerConfig};
use crate::commands::MIRAI_DICTIONARY;
use crate::device::DeviceAgent;
use crate::flood::FloodConfig;
use crate::stats::BotnetStats;

/// Installs the Mirai attacker (scanner + loader + C2) into a container.
///
/// All traffic the attacker originates is stamped malicious.
pub fn install_attacker(
    rt: &mut Runtime,
    container: ContainerId,
    config: AttackerConfig,
    stats: BotnetStats,
    rng: SimRng,
    start_at: SimTime,
) -> AppId {
    rt.install(
        container,
        Box::new(Attacker::new(config, stats, rng)),
        Provenance::Malicious,
        start_at,
    )
}

/// Installs a [`DeviceAgent`] into each device container.
///
/// A `vulnerable_fraction` of the devices (rounded up, chosen in order)
/// get factory-default credentials from the Mirai dictionary and are
/// therefore crackable; the rest get strong credentials. Returns the app
/// ids in device order.
pub fn install_device_agents(
    rt: &mut Runtime,
    devices: &[ContainerId],
    vulnerable_fraction: f64,
    flood_config: FloodConfig,
    stats: &BotnetStats,
    rng: &mut SimRng,
    start_at: SimTime,
) -> Vec<AppId> {
    let vulnerable = ((devices.len() as f64 * vulnerable_fraction).ceil() as usize).min(devices.len());
    devices
        .iter()
        .enumerate()
        .map(|(i, &device)| {
            let (user, pass) = if i < vulnerable {
                let pair = MIRAI_DICTIONARY[i % MIRAI_DICTIONARY.len()];
                (pair.0.to_owned(), pair.1.to_owned())
            } else {
                ("admin".to_owned(), format!("Str0ng!-{i}-{}", rng.next_u64()))
            };
            let agent = DeviceAgent::new(user, pass, flood_config, stats.clone(), rng.fork());
            rt.install(device, Box::new(agent), Provenance::Malicious, start_at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{AttackOrder, AttackVector, C2Command};
    use containers::runtime::{ContainerSpec, Role};
    use netsim::link::LinkConfig;
    use netsim::time::SimDuration;

    /// Full life-cycle: scan → crack → install → dial home → flood.
    #[test]
    fn mirai_lifecycle_end_to_end() {
        let mut rt = Runtime::new(99, LinkConfig::lan_100mbps());
        let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
        let attacker = rt.deploy(ContainerSpec::new("attacker", Role::Attacker));
        let devices: Vec<ContainerId> = (0..8)
            .map(|i| rt.deploy(ContainerSpec::new(format!("dev-{i}"), Role::Device)))
            .collect();
        let tserver_addr = rt.addr(tserver);

        let stats = BotnetStats::new(obs::Registry::new().scope("botnet"));
        let mut rng = SimRng::seed_from(1);
        install_device_agents(
            &mut rt,
            &devices,
            0.75,
            FloodConfig::default(),
            &stats,
            &mut rng,
            SimTime::ZERO,
        );
        let order = AttackOrder {
            vector: AttackVector::SynFlood,
            target: tserver_addr,
            port: 80,
            duration_secs: 5,
            pps: 200,
        };
        let config = AttackerConfig {
            scan_interval_mean: 0.05,
            scan_hosts: (2, 16),
            schedule: vec![(SimTime::from_secs(30), C2Command::Attack(order))],
        };
        install_attacker(&mut rt, attacker, config, stats.clone(), rng.fork(), SimTime::ZERO);

        // Infection phase.
        rt.run_for(SimDuration::from_secs(30));
        let snap = stats.snapshot();
        assert!(snap.scan_probes > 50, "probes {}", snap.scan_probes);
        assert!(snap.login_attempts > snap.logins_ok, "some creds are wrong");
        assert_eq!(snap.infections, 6, "ceil(8 * 0.75) devices crackable");
        assert_eq!(snap.connected_bots, 6, "all infected devices dialled home");

        // Attack phase.
        rt.run_for(SimDuration::from_secs(10));
        let snap = stats.snapshot();
        assert_eq!(snap.attacks_started, 1);
        assert!(
            snap.flood_packets > 3_000,
            "6 bots x 200 pps x 5 s ~ 6000 packets, got {}",
            snap.flood_packets
        );
        // The victim actually received the flood.
        let victim = rt.node(tserver);
        assert!(rt.world().node_stats(victim).recv_packets > 3_000);
    }

    /// A SYN flood saturates the victim's listener backlog so legitimate
    /// connections start getting dropped (the DDoS "works").
    #[test]
    fn syn_flood_exhausts_listener_backlog() {
        let mut rt = Runtime::new(7, LinkConfig::lan_100mbps());
        let tserver = rt.deploy(ContainerSpec::new("tserver", Role::TServer));
        let attacker = rt.deploy(ContainerSpec::new("attacker", Role::Attacker));
        let devices: Vec<ContainerId> = (0..4)
            .map(|i| rt.deploy(ContainerSpec::new(format!("dev-{i}"), Role::Device)))
            .collect();
        let tserver_addr = rt.addr(tserver);

        // A bare TCP listener stands in for the web server.
        struct BareListener;
        impl netsim::world::App for BareListener {
            fn on_start(&mut self, ctx: &mut netsim::world::Ctx<'_>) {
                ctx.tcp_listen(80, 16);
            }
            // Never answers, so half-open entries only clear via timeout.
        }
        rt.install(tserver, Box::new(BareListener), Provenance::Benign, SimTime::ZERO);

        let stats = BotnetStats::new(obs::Registry::new().scope("botnet"));
        let mut rng = SimRng::seed_from(2);
        install_device_agents(
            &mut rt,
            &devices,
            1.0,
            crate::flood::FloodConfig { spoof_sources: true, ..Default::default() },
            &stats,
            &mut rng,
            SimTime::ZERO,
        );
        let order = AttackOrder {
            vector: AttackVector::SynFlood,
            target: tserver_addr,
            port: 80,
            duration_secs: 10,
            pps: 500,
        };
        let config = AttackerConfig {
            scan_interval_mean: 0.05,
            scan_hosts: (2, 8),
            schedule: vec![(SimTime::from_secs(20), C2Command::Attack(order))],
        };
        install_attacker(&mut rt, attacker, config, stats.clone(), rng.fork(), SimTime::ZERO);

        rt.run_for(SimDuration::from_secs(25));
        let victim = rt.node(tserver);
        let (half_open, syn_drops) =
            rt.world().listener_pressure(victim, 80).expect("listener exists");
        assert!(half_open > 0 || syn_drops > 0, "backlog under pressure");
        rt.run_for(SimDuration::from_secs(5));
        let (_, syn_drops) = rt.world().listener_pressure(victim, 80).expect("listener exists");
        assert!(syn_drops > 100, "sustained flood overflows the backlog: {syn_drops}");
    }
}
