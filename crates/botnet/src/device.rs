//! The device-side half of the botnet: a vulnerable telnet-like service
//! and the dormant bot it turns into once infected.
//!
//! Mirai's life-cycle on a device is: (1) the scanner logs into the
//! factory-default telnet account, (2) the loader drops and starts the
//! bot binary, (3) the bot dials home to the C2 and waits for attack
//! orders. [`DeviceAgent`] implements all three phases inside one hosted
//! application, exactly as the malware runs inside one compromised
//! device.

use std::collections::HashMap;

use netsim::packet::Addr;
use netsim::rng::SimRng;
use netsim::time::{SimDuration, SimTime};
use netsim::world::{App, Ctx};
use netsim::{ConnId, TcpEvent};

use crate::commands::{parse_addr, C2Command, C2_KEEPALIVE, TELNET_PORT};
use crate::flood::{flood_packet, FloodConfig};
use crate::line::LineBuffer;
use crate::stats::BotnetStats;

/// Interval between flood generation ticks.
const FLOOD_TICK: SimDuration = SimDuration::from_millis(10);
/// Bot keepalive interval (shared with the C2's heartbeat bookkeeping).
const KEEPALIVE: SimDuration = C2_KEEPALIVE;
/// First re-dial delay after a lost C2 connection; doubles per
/// consecutive failure up to [`RECONNECT_CAP`].
const RECONNECT_BASE: SimDuration = SimDuration::from_secs(2);
/// Ceiling on the exponential reconnect backoff.
const RECONNECT_CAP: SimDuration = SimDuration::from_secs(60);

const TOKEN_FLOOD_TICK: u64 = 1;
const TOKEN_KEEPALIVE: u64 = 2;
const TOKEN_RECONNECT: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TelnetState {
    WaitUser,
    WaitPass,
    Shell,
}

#[derive(Debug)]
struct TelnetSession {
    buffer: LineBuffer,
    state: TelnetState,
    user: String,
}

#[derive(Debug)]
struct ActiveAttack {
    order: crate::commands::AttackOrder,
    ends_at: SimTime,
    carry: f64,
}

/// Concurrent connections an HTTP-flooding bot keeps open.
const HTTP_FLOOD_CONNS: usize = 4;

/// A vulnerable IoT device binary plus its (initially dormant) bot.
#[derive(Debug)]
pub struct DeviceAgent {
    credentials: (String, String),
    stats: BotnetStats,
    rng: SimRng,
    flood_config: FloodConfig,
    sessions: HashMap<ConnId, TelnetSession>,
    infected: bool,
    c2: Option<(Addr, u16)>,
    c2_conn: Option<ConnId>,
    c2_buffer: LineBuffer,
    attack: Option<ActiveAttack>,
    tick_armed: bool,
    http_conns: Vec<ConnId>,
    http_rr: usize,
    /// Consecutive failed C2 dials since the last registration; drives
    /// the exponential reconnect backoff.
    reconnect_attempts: u32,
}

impl DeviceAgent {
    /// Creates a device whose telnet service accepts the given
    /// user/password pair. Devices given a pair from
    /// [`crate::commands::MIRAI_DICTIONARY`] are crackable; others are
    /// effectively immune.
    pub fn new(
        user: impl Into<String>,
        password: impl Into<String>,
        flood_config: FloodConfig,
        stats: BotnetStats,
        rng: SimRng,
    ) -> Self {
        DeviceAgent {
            credentials: (user.into(), password.into()),
            stats,
            rng,
            flood_config,
            sessions: HashMap::new(),
            infected: false,
            c2: None,
            c2_conn: None,
            c2_buffer: LineBuffer::new(),
            attack: None,
            tick_armed: false,
            http_conns: Vec::new(),
            http_rr: 0,
            reconnect_attempts: 0,
        }
    }

    fn reply(&self, ctx: &mut Ctx<'_>, conn: ConnId, text: &str) {
        ctx.tcp_send(conn, format!("{text}\r\n").as_bytes());
    }

    fn dial_c2(&mut self, ctx: &mut Ctx<'_>) {
        if self.c2_conn.is_some() {
            return;
        }
        if let Some((addr, port)) = self.c2 {
            let conn = ctx.tcp_connect(addr, port);
            self.c2_conn = Some(conn);
        }
    }

    /// Arms the reconnect timer with capped exponential backoff plus
    /// ±25 % jitter drawn from the device's own seeded RNG, so retry
    /// storms decorrelate across bots while staying reproducible.
    fn schedule_reconnect(&mut self, ctx: &mut Ctx<'_>) {
        let doubled = RECONNECT_BASE.as_secs_f64() * f64::from(2u32.pow(self.reconnect_attempts.min(8)));
        let base = doubled.min(RECONNECT_CAP.as_secs_f64());
        let jitter = 0.75 + 0.5 * self.rng.uniform();
        self.reconnect_attempts = self.reconnect_attempts.saturating_add(1);
        ctx.set_timer(SimDuration::from_secs_f64(base * jitter), TOKEN_RECONNECT);
    }

    fn handle_telnet_line(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, line: String) {
        let Some(state) = self.sessions.get(&conn).map(|s| s.state) else { return };
        match state {
            TelnetState::WaitUser => {
                if let Some(session) = self.sessions.get_mut(&conn) {
                    session.user = line;
                    session.state = TelnetState::WaitPass;
                }
                self.reply(ctx, conn, "Password:");
            }
            TelnetState::WaitPass => {
                let user = self.sessions.get(&conn).map(|s| s.user.clone()).unwrap_or_default();
                self.stats.add_login_attempt();
                if (user.as_str(), line.as_str())
                    == (self.credentials.0.as_str(), self.credentials.1.as_str())
                {
                    if let Some(session) = self.sessions.get_mut(&conn) {
                        session.state = TelnetState::Shell;
                    }
                    self.stats.add_login_ok(ctx.now(), ctx.addr());
                    self.reply(ctx, conn, "SHELL");
                } else {
                    self.reply(ctx, conn, "DENIED");
                    ctx.tcp_close(conn);
                    self.sessions.remove(&conn);
                }
            }
            TelnetState::Shell => {
                if let Some(rest) = line.strip_prefix("INSTALL ") {
                    let mut parts = rest.split_whitespace();
                    let addr = parts.next().and_then(parse_addr);
                    let port: Option<u16> = parts.next().and_then(|p| p.parse().ok());
                    if let (Some(addr), Some(port)) = (addr, port) {
                        if !self.infected {
                            self.infected = true;
                            self.stats.add_infection(ctx.now(), ctx.addr());
                            ctx.set_timer(KEEPALIVE, TOKEN_KEEPALIVE);
                        }
                        self.c2 = Some((addr, port));
                        self.dial_c2(ctx);
                        self.reply(ctx, conn, "INSTALLED");
                    } else {
                        self.reply(ctx, conn, "ERROR");
                    }
                } else {
                    self.reply(ctx, conn, "ERROR");
                }
            }
        }
    }

    fn handle_c2_line(&mut self, ctx: &mut Ctx<'_>, line: &str) {
        match line.parse::<C2Command>() {
            Ok(C2Command::Attack(order)) => {
                let ends_at = ctx.now() + SimDuration::from_secs(order.duration_secs as u64);
                self.attack = Some(ActiveAttack { order, ends_at, carry: 0.0 });
                if !self.tick_armed {
                    self.tick_armed = true;
                    ctx.set_timer(FLOOD_TICK, TOKEN_FLOOD_TICK);
                }
            }
            Ok(C2Command::Stop) => {
                self.attack = None;
            }
            Err(_) => {}
        }
    }

    fn flood_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(attack) = &mut self.attack else {
            self.tick_armed = false;
            self.teardown_http_flood(ctx);
            return;
        };
        if ctx.now() >= attack.ends_at {
            self.attack = None;
            self.tick_armed = false;
            self.teardown_http_flood(ctx);
            return;
        }
        if attack.order.vector.is_application_level() {
            self.http_flood_tick(ctx);
            return;
        }
        // Emit pps * tick worth of packets, carrying the fraction over.
        let budget = attack.order.pps as f64 * FLOOD_TICK.as_secs_f64() + attack.carry;
        let count = budget as u64;
        attack.carry = budget - count as f64;
        let order = attack.order;
        let src = ctx.addr();
        let mut sent = 0;
        for _ in 0..count {
            let packet = flood_packet(
                order.vector,
                src,
                order.target,
                order.port,
                &self.flood_config,
                &mut self.rng,
            );
            if ctx.send_raw(packet).is_ok() {
                sent += 1;
            }
        }
        self.stats.add_flood_packets(sent);
        ctx.set_timer(FLOOD_TICK, TOKEN_FLOOD_TICK);
    }

    /// One tick of the application-level HTTP flood: keep a small pool
    /// of real connections to the victim's web server and hammer GET
    /// requests over them (`pps` is interpreted as requests/second).
    fn http_flood_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(attack) = &mut self.attack else { return };
        let order = attack.order;
        while self.http_conns.len() < HTTP_FLOOD_CONNS {
            let conn = ctx.tcp_connect(order.target, order.port);
            self.http_conns.push(conn);
        }
        let budget = order.pps as f64 * FLOOD_TICK.as_secs_f64() + attack.carry;
        let count = budget as u64;
        attack.carry = budget - count as f64;
        let mut sent = 0u64;
        for _ in 0..count {
            if self.http_conns.is_empty() {
                break;
            }
            self.http_rr = (self.http_rr + 1) % self.http_conns.len();
            let conn = self.http_conns[self.http_rr];
            let object = self.rng.below(200);
            let request = format!("GET /obj/{object} HTTP/1.1\r\nHost: victim\r\n\r\n");
            ctx.tcp_send(conn, request.as_bytes());
            sent += 1;
        }
        self.stats.add_flood_packets(sent);
        ctx.set_timer(FLOOD_TICK, TOKEN_FLOOD_TICK);
    }

    fn teardown_http_flood(&mut self, ctx: &mut Ctx<'_>) {
        for conn in std::mem::take(&mut self.http_conns) {
            ctx.tcp_close(conn);
        }
    }
}

impl App for DeviceAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert!(ctx.tcp_listen(TELNET_PORT, 8), "telnet port already bound");
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Accepted { conn, local_port, .. } if local_port == TELNET_PORT => {
                self.sessions.insert(
                    conn,
                    TelnetSession {
                        buffer: LineBuffer::new(),
                        state: TelnetState::WaitUser,
                        user: String::new(),
                    },
                );
                self.reply(ctx, conn, "login:");
            }
            TcpEvent::Connected { conn } if Some(conn) == self.c2_conn => {
                self.reconnect_attempts = 0;
                let reg = format!("REG {}\r\n", ctx.addr());
                ctx.tcp_send(conn, reg.as_bytes());
            }
            TcpEvent::Data { conn, data } => {
                if Some(conn) == self.c2_conn {
                    self.c2_buffer.push(&data);
                    let mut lines = Vec::new();
                    while let Some(line) = self.c2_buffer.next_line() {
                        lines.push(line);
                    }
                    for line in lines {
                        self.handle_c2_line(ctx, &line);
                    }
                } else if self.sessions.contains_key(&conn) {
                    let mut lines = Vec::new();
                    if let Some(session) = self.sessions.get_mut(&conn) {
                        session.buffer.push(&data);
                        while let Some(line) = session.buffer.next_line() {
                            lines.push(line);
                        }
                    }
                    for line in lines {
                        self.handle_telnet_line(ctx, conn, line);
                    }
                }
            }
            TcpEvent::PeerClosed { conn }
                if self.sessions.contains_key(&conn) => {
                    ctx.tcp_close(conn);
                }
            TcpEvent::Closed { conn } | TcpEvent::ConnectFailed { conn } => {
                self.sessions.remove(&conn);
                self.http_conns.retain(|&c| c != conn);
                if Some(conn) == self.c2_conn {
                    self.c2_conn = None;
                    self.c2_buffer = LineBuffer::new();
                    if self.infected {
                        self.schedule_reconnect(ctx);
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_FLOOD_TICK => self.flood_tick(ctx),
            TOKEN_KEEPALIVE => {
                if let Some(conn) = self.c2_conn {
                    ctx.tcp_send(conn, b"PING\r\n");
                }
                if self.infected {
                    ctx.set_timer(KEEPALIVE, TOKEN_KEEPALIVE);
                }
            }
            TOKEN_RECONNECT
                if self.infected && ctx.is_up() => {
                    self.dial_c2(ctx);
                }
            _ => {}
        }
    }

    fn on_link_state(&mut self, _ctx: &mut Ctx<'_>, up: bool) {
        if !up {
            // Power loss. Mirai is memory-resident and does not persist
            // across reboots (Antonakakis et al.): the infection, the C2
            // coordinates and any running flood all evaporate with RAM.
            // The device boots clean, scannable and re-crackable; only
            // the attacker's scanner can bring it back into the botnet.
            self.sessions.clear();
            self.infected = false;
            self.c2 = None;
            self.c2_conn = None;
            self.c2_buffer = LineBuffer::new();
            self.attack = None;
            self.tick_armed = false;
            self.http_conns.clear();
            self.reconnect_attempts = 0;
        }
    }
}
