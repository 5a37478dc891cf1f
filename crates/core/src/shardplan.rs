//! Sharded deployment planning and the sharded chaos scenario.
//!
//! This module is the testbed-side consumer of [`netsim::shard`]: it
//! partitions a device fleet into logical cells ([`partition_devices`]),
//! builds one cell world per partition (a gateway plus its devices on a
//! CSMA segment, with benign UDP beacons, cross-cell traffic, a Mirai-
//! style UDP flood after `attack_start`, deterministic per-cell device
//! churn, and a per-cell sniffer), and reduces the run to a detection
//! log plus a telemetry section — both pure functions of the config, so
//! the `determinism-smoke` (shard) CI job can byte-diff runs at
//! different shard counts.
//!
//! The per-cell captures are merged with
//! [`capture::merge::merge_cell_records`], the deterministic cell-order
//! merge, and fed to a windowed rate detector standing in for the IDS:
//! the point of the scenario is cross-shard plumbing, not model
//! quality, so detection is a fixed threshold on per-window flood
//! volume at the victim.

use std::fmt::Write as _;
use std::ops::Range;

use capture::merge::merge_cell_records;
use capture::record::PacketRecord;
use capture::sniffer::{sniffer_pair, SnifferFilter, SnifferHandle};
use netsim::link::LinkConfig;
use netsim::node::NodeStats;
use netsim::packet::Provenance;
use netsim::rng::SimRng;
use netsim::shard::{
    cell_seed, run_sharded, CellManifest, CellSpec, CellState, ShardRun, ShardSpec, ShardStats,
};
use netsim::time::{SimDuration, SimTime};
use netsim::world::{App, Ctx, World};
use netsim::{Addr, BuggifyConfig, NodeId};

/// Splits `total` devices into `cells` contiguous ranges whose sizes
/// differ by at most one — the deploy partitioning rule for sharded
/// runs. Cells, not worker shards, are the determinism unit, so this
/// split must not depend on the shard count.
pub fn partition_devices(total: usize, cells: usize) -> Vec<Range<usize>> {
    assert!(cells > 0, "need at least one cell");
    let base = total / cells;
    let extra = total % cells;
    let mut ranges = Vec::with_capacity(cells);
    let mut start = 0;
    for i in 0..cells {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Configuration of a sharded chaos run. Every field except `shards`
/// affects the result; `shards` is purely a wall-clock knob.
#[derive(Debug, Clone)]
pub struct ShardPlanConfig {
    /// Root seed of the run.
    pub seed: u64,
    /// Total devices, split over the cells by [`partition_devices`].
    pub total_devices: usize,
    /// Logical cells (each a gateway + device segment). Max 200.
    pub cells: usize,
    /// Every `bot_every`-th device is Mirai-infected (0 = no bots).
    pub bot_every: usize,
    /// Virtual duration of the run.
    pub duration: SimDuration,
    /// When the bots start flooding the victim (cell 0's gateway).
    pub attack_start: SimDuration,
    /// Flood packets per second per bot.
    pub flood_pps: u32,
    /// Minimum cross-cell latency: the conservative lookahead.
    pub boundary_latency: SimDuration,
    /// Worker threads (performance only; results are identical).
    pub shards: usize,
    /// Buggify perturbation layer.
    pub buggify: BuggifyConfig,
}

impl ShardPlanConfig {
    /// The smoke-test scale: 4 cells, 32 devices, a quarter of them
    /// bots, 10 virtual seconds.
    pub fn smoke(seed: u64) -> Self {
        ShardPlanConfig {
            seed,
            total_devices: 32,
            cells: 4,
            bot_every: 4,
            duration: SimDuration::from_secs(10),
            attack_start: SimDuration::from_secs(4),
            flood_pps: 200,
            boundary_latency: SimDuration::from_millis(1),
            shards: 1,
            buggify: BuggifyConfig::default(),
        }
    }

    /// The bench scale: 100 000 devices across 64 cells — the
    /// `sharded_100k` baseline topology.
    pub fn bench_100k(seed: u64) -> Self {
        ShardPlanConfig {
            seed,
            total_devices: 100_000,
            cells: 64,
            bot_every: 50,
            duration: SimDuration::from_secs(1),
            attack_start: SimDuration::from_millis(300),
            flood_pps: 100,
            boundary_latency: SimDuration::from_millis(1),
            shards: 1,
            buggify: BuggifyConfig::default(),
        }
    }
}

/// The reduced outcome of a sharded chaos run. Byte-identical across
/// shard counts (the [`ShardStats::workers`] field is excluded from
/// the rendered telemetry for exactly that reason).
#[derive(Debug)]
pub struct ShardedChaosReport {
    /// Per-window detection log lines.
    pub log: String,
    /// Telemetry text: per-cell counters in cell order, then the
    /// cross-shard accounting.
    pub telemetry: String,
    /// Raw cross-shard accounting.
    pub stats: ShardStats,
    /// Total merged capture records.
    pub records: usize,
}

impl ShardedChaosReport {
    /// The printable artifact: detection log, then a `# telemetry`
    /// section — the same shape as `chaos_run`, so the CI smoke job's
    /// diff recipe applies unchanged.
    pub fn output(&self) -> String {
        format!("{}# telemetry\n{}", self.log, self.telemetry)
    }
}

/// What one cell reports back after its run.
#[derive(Debug)]
struct CellOutcome {
    records: Vec<PacketRecord>,
    gateway: NodeStats,
    device_sent: u64,
    device_recv: u64,
    events: u64,
}

/// Benign device beacon: a periodic UDP datagram to the local gateway,
/// with every `cross_every`-th tick also beaconing at the next cell's
/// gateway (the cross-shard traffic that exercises the mailboxes).
struct DeviceBeacon {
    gateway: Addr,
    peer_gateway: Addr,
    start_offset: SimDuration,
    period: SimDuration,
    cross_every: u32,
    tick: u32,
}

impl App for DeviceBeacon {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(5000);
        ctx.set_timer(self.start_offset, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.tick = self.tick.wrapping_add(1);
        ctx.udp_send(5000, self.gateway, 7777, bytes::Bytes::from_static(&[0u8; 32]));
        if self.tick.is_multiple_of(self.cross_every) {
            ctx.udp_send(5000, self.peer_gateway, 7777, bytes::Bytes::from_static(&[1u8; 32]));
        }
        ctx.set_timer(self.period, 0);
    }
}

/// Mirai-style UDP flooder: from `start`, datagrams at `pps` aimed at
/// the victim (cell 0's gateway — always cross-cell for other cells).
struct BotFlood {
    victim: Addr,
    start: SimDuration,
    period: SimDuration,
}

impl App for BotFlood {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.udp_bind(48101);
        ctx.set_timer(self.start, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.udp_send(48101, self.victim, 7777, bytes::Bytes::from_static(&[0u8; 64]));
        ctx.set_timer(self.period, 0);
    }
}

fn device_addr(cell: usize, local: usize) -> Addr {
    Addr::new(10, (cell + 1) as u8, (local / 200) as u8, (local % 200 + 10) as u8)
}

fn gateway_addr(cell: usize) -> Addr {
    Addr::new(10, (cell + 1) as u8, 250, 1)
}

/// Runs the sharded chaos scenario and reduces it to a report.
///
/// The report is a pure function of everything in `config` except
/// `config.shards` — the shard-invariance property the swarm invariant
/// and the `determinism-smoke` (shard) CI job both check.
pub fn run_sharded_chaos(config: &ShardPlanConfig) -> ShardedChaosReport {
    assert!(config.cells <= 200, "cell index is an address octet");
    let ranges = partition_devices(config.total_devices, config.cells);
    let victim = gateway_addr(0);
    let flood_period =
        SimDuration::from_nanos(1_000_000_000 / u64::from(config.flood_pps.max(1)));

    let cells: Vec<CellSpec<CellOutcome>> = ranges
        .iter()
        .enumerate()
        .map(|(cell, range)| {
            let range = range.clone();
            let cells_total = config.cells;
            let seed = config.seed;
            let bot_every = config.bot_every;
            let attack_start = config.attack_start;
            let duration = config.duration;
            CellSpec {
                name: format!("cell{cell}"),
                build: Box::new(move |world: &mut World| {
                    let gateway = world.add_node(gateway_addr(cell), format!("gw{cell}"));
                    let mut members = vec![gateway];
                    let mut devices = Vec::with_capacity(range.len());
                    for (local, global) in range.clone().enumerate() {
                        let node =
                            world.add_node(device_addr(cell, local), format!("dev{global}"));
                        members.push(node);
                        devices.push((node, global));
                    }
                    world.add_csma_link(&members, LinkConfig::lan_100mbps());

                    let peer_gateway = gateway_addr((cell + 1) % cells_total);
                    for &(node, global) in &devices {
                        let beacon = DeviceBeacon {
                            gateway: gateway_addr(cell),
                            peer_gateway,
                            start_offset: SimDuration::from_millis(5 + (global % 13) as u64 * 7),
                            period: SimDuration::from_millis(50 + (global % 7) as u64 * 10),
                            cross_every: 4,
                            tick: 0,
                        };
                        let app =
                            world.add_app(node, Box::new(beacon), Provenance::Benign);
                        world.start_app(app, SimTime::ZERO);
                        if bot_every > 0 && global % bot_every == 0 {
                            let bot = BotFlood {
                                victim,
                                start: attack_start,
                                period: flood_period,
                            };
                            let app =
                                world.add_app(node, Box::new(bot), Provenance::Malicious);
                            world.start_app(app, SimTime::ZERO);
                        }
                    }

                    // Deterministic per-cell churn, on a named stream of
                    // the cell seed: a couple of devices drop off the
                    // segment and return, independent of every other
                    // cell and of the shard count.
                    let mut faults = SimRng::named(cell_seed(seed, cell), "faults");
                    for _ in 0..2 {
                        if devices.is_empty() {
                            break;
                        }
                        let target = devices[faults.below(devices.len() as u64) as usize].0;
                        let down_at = SimDuration::from_nanos(
                            faults.below(duration.as_nanos() / 2) + duration.as_nanos() / 5,
                        );
                        let down_for =
                            SimDuration::from_millis(100 + faults.below(400));
                        world.schedule_node_up(target, false, SimTime::ZERO + down_at);
                        world.schedule_node_up(
                            target,
                            true,
                            SimTime::ZERO + down_at + down_for,
                        );
                    }

                    let (sniffer, handle) = sniffer_pair(SnifferFilter::All);
                    world.add_tap(Box::new(sniffer));

                    let manifest = CellManifest {
                        exports: vec![(gateway_addr(cell), gateway)],
                    };
                    let device_nodes: Vec<NodeId> =
                        devices.iter().map(|&(node, _)| node).collect();
                    (manifest, Box::new((handle, gateway, device_nodes)) as CellState)
                }),
                finish: Box::new(move |world: &mut World, state: CellState| {
                    let (handle, gateway, device_nodes) = *state
                        .downcast::<(SnifferHandle, NodeId, Vec<NodeId>)>()
                        .expect("cell state");
                    let (mut device_sent, mut device_recv) = (0u64, 0u64);
                    for &node in &device_nodes {
                        let stats = world.node_stats(node);
                        device_sent += stats.sent_packets;
                        device_recv += stats.recv_packets;
                    }
                    CellOutcome {
                        records: handle.drain(),
                        gateway: world.node_stats(gateway),
                        device_sent,
                        device_recv,
                        events: world.events_processed(),
                    }
                }),
            }
        })
        .collect();

    let spec = ShardSpec {
        shards: config.shards,
        seed: config.seed,
        end: SimTime::ZERO + config.duration,
        boundary_latency: config.boundary_latency,
        buggify: config.buggify,
    };
    let ShardRun { reports, stats } = run_sharded(&spec, cells);

    // Merge the per-cell captures in cell order and run the windowed
    // rate detector over the victim's traffic.
    let streams: Vec<Vec<PacketRecord>> =
        reports.iter().map(|outcome| outcome.records.clone()).collect();
    let merged = merge_cell_records(streams);
    let windows = config.duration.as_nanos().div_ceil(1_000_000_000) as usize;
    let mut total = vec![0u64; windows];
    let mut at_victim = vec![0u64; windows];
    let mut malicious = vec![0u64; windows];
    for record in &merged {
        let w = (record.ts.as_nanos() / 1_000_000_000) as usize;
        let Some(slot) = total.get_mut(w.min(windows.saturating_sub(1))) else {
            continue;
        };
        *slot += 1;
        let w = w.min(windows.saturating_sub(1));
        if record.dst == victim {
            at_victim[w] += 1;
        }
        if record.label == capture::record::Label::Malicious {
            malicious[w] += 1;
        }
    }
    // Alert when the victim's per-window volume exceeds 4x its
    // pre-attack ceiling (each device beacons the cell-0 gateway only
    // from cell 0 or via the cross-cell beacon).
    let baseline = at_victim
        .iter()
        .take((config.attack_start.as_nanos() / 1_000_000_000).max(1) as usize)
        .copied()
        .max()
        .unwrap_or(0);
    let threshold = (baseline.max(1)) * 4;
    let mut log = String::new();
    for w in 0..windows {
        let alert = u8::from(at_victim[w] > threshold);
        let _ = writeln!(
            log,
            "w={w} total={} victim={} malicious={} alert={alert}",
            total[w], at_victim[w], malicious[w]
        );
    }

    // Telemetry: per-cell counters in cell order, then the cross-shard
    // accounting. `stats.workers` is deliberately omitted — it is the
    // one field that may differ between shard counts.
    let mut telemetry = String::new();
    let _ = writeln!(
        telemetry,
        "cells={} devices={} records={}",
        stats.cells,
        config.total_devices,
        merged.len()
    );
    for (cell, outcome) in reports.iter().enumerate() {
        let _ = writeln!(
            telemetry,
            "cell[{cell}] gw_recv={} gw_sent={} dev_sent={} dev_recv={} events={} captured={}",
            outcome.gateway.recv_packets,
            outcome.gateway.sent_packets,
            outcome.device_sent,
            outcome.device_recv,
            outcome.events,
            outcome.records.len()
        );
    }
    let _ = writeln!(
        telemetry,
        "shard rounds={} cross_sent={} cross_delivered={} cross_unroutable={} in_flight={}",
        stats.rounds,
        stats.cross_sent,
        stats.cross_delivered,
        stats.cross_unroutable,
        stats.cross_in_flight_at_end
    );
    let _ = writeln!(
        telemetry,
        "buggify boundary_evals={} boundary_fires={} cell_fires={}",
        stats.boundary_delay_evals, stats.boundary_delay_fires, stats.cell_buggify_fires
    );

    ShardedChaosReport { log, telemetry, stats, records: merged.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_device_evenly() {
        let ranges = partition_devices(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        let ranges = partition_devices(4, 8);
        assert_eq!(ranges.iter().filter(|r| r.is_empty()).count(), 4);
        assert_eq!(ranges.last().unwrap().end, 4);
        let ranges = partition_devices(100_000, 64);
        assert_eq!(ranges.last().unwrap().end, 100_000);
        assert!(ranges.iter().all(|r| r.len() == 1562 || r.len() == 1563));
    }

    #[test]
    fn sharded_chaos_detects_the_flood_and_is_shard_invariant() {
        let mut config = ShardPlanConfig::smoke(77);
        config.shards = 1;
        let one = run_sharded_chaos(&config);
        config.shards = 4;
        let four = run_sharded_chaos(&config);

        assert_eq!(one.output(), four.output(), "shard count leaked into the artifact");
        assert_eq!(one.stats.conservation_violation(), None);
        assert_eq!(
            one.stats.clock_violation(SimTime::ZERO + config.duration),
            None
        );
        assert!(one.records > 0, "the sniffers captured traffic");
        assert!(one.stats.cross_sent > 0, "cross-cell traffic flowed");
        assert!(one.log.contains("alert=1"), "the flood tripped the detector:\n{}", one.log);
        let pre_attack = one.log.lines().take(4).collect::<String>();
        assert!(!pre_attack.contains("alert=1"), "no alert before the attack:\n{}", one.log);
    }

    #[test]
    fn buggified_sharded_chaos_stays_conservative() {
        let mut config = ShardPlanConfig::smoke(5);
        config.buggify = BuggifyConfig::swarm(11);
        config.shards = 2;
        let a = run_sharded_chaos(&config);
        let b = run_sharded_chaos(&config);
        assert_eq!(a.output(), b.output(), "buggified runs replay byte-identically");
        assert_eq!(a.stats.conservation_violation(), None);
        assert!(a.stats.cell_buggify_fires > 0 || a.stats.boundary_delay_fires > 0);
    }
}
