//! FTP traffic: a passive-mode file server and a download workload.
//!
//! The server speaks a compact subset of RFC 959: `USER`/`PASS` login,
//! `PASV` (the server opens an ephemeral data listener and announces the
//! port), `RETR` (the file is pushed down the data connection, which is
//! then closed, followed by `226` on the control channel) and `QUIT`.
//! This is the paper's "FTP traffic" benign class, matching its
//! "customized FTP-Server" on the TServer.

use std::collections::HashMap;

use netsim::packet::Addr;
use netsim::rng::SimRng;
use netsim::world::{App, Ctx};
use netsim::{ConnId, TcpEvent};

use crate::http::Catalogue;
use crate::protocol::{generated_body, LineBuffer};
use crate::retry::{ClientLoop, RetryPolicy, Wake};
use crate::stats::{ClientStats, ServerStats};

/// The FTP control port.
pub const FTP_PORT: u16 = 21;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoginState {
    NeedUser,
    NeedPass,
    LoggedIn,
}

#[derive(Debug)]
struct FtpSession {
    login: LoginState,
    buffer: LineBuffer,
    data_port: Option<u16>,
    data_conn: Option<ConnId>,
    pending_file: Option<usize>,
}

impl FtpSession {
    fn new() -> Self {
        FtpSession {
            login: LoginState::NeedUser,
            buffer: LineBuffer::new(),
            data_port: None,
            data_conn: None,
            pending_file: None,
        }
    }
}

/// The TServer's customized FTP server.
#[derive(Debug)]
pub struct FtpServer {
    files: Catalogue,
    stats: ServerStats,
    sessions: HashMap<ConnId, FtpSession>,
    data_ports: HashMap<u16, ConnId>,
    data_to_control: HashMap<ConnId, ConnId>,
}

impl FtpServer {
    /// Creates a server over the given file catalogue.
    pub fn new(files: Catalogue, stats: ServerStats) -> Self {
        FtpServer {
            files,
            stats,
            sessions: HashMap::new(),
            data_ports: HashMap::new(),
            data_to_control: HashMap::new(),
        }
    }

    fn reply(&self, ctx: &mut Ctx<'_>, conn: ConnId, text: &str) {
        ctx.tcp_send(conn, format!("{text}\r\n").as_bytes());
    }

    /// Pushes the pending file down a ready data connection.
    fn transfer_if_ready(&mut self, ctx: &mut Ctx<'_>, control: ConnId) {
        let Some(session) = self.sessions.get_mut(&control) else { return };
        let (Some(data_conn), Some(file)) = (session.data_conn, session.pending_file) else {
            return;
        };
        session.pending_file = None;
        let size = self.files.size(file).unwrap_or(0);
        self.reply(ctx, control, "150 Opening BINARY mode data connection");
        ctx.tcp_send_bytes(data_conn, generated_body(size));
        ctx.tcp_close(data_conn);
        self.stats.add_served();
        self.stats.add_bytes_sent(size as u64);
        self.reply(ctx, control, "226 Transfer complete");
        // The data listener served its purpose.
        if let Some(session) = self.sessions.get_mut(&control) {
            if let Some(port) = session.data_port.take() {
                self.data_ports.remove(&port);
                ctx.tcp_unlisten(port);
            }
        }
    }

    fn handle_command(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, line: &str) {
        let mut parts = line.splitn(2, ' ');
        let verb = parts.next().unwrap_or("").to_ascii_uppercase();
        let arg = parts.next().unwrap_or("").trim().to_owned();
        let Some(session) = self.sessions.get_mut(&conn) else { return };
        match (verb.as_str(), session.login) {
            ("USER", LoginState::NeedUser) => {
                session.login = LoginState::NeedPass;
                self.reply(ctx, conn, "331 Password required");
            }
            ("PASS", LoginState::NeedPass) => {
                session.login = LoginState::LoggedIn;
                self.reply(ctx, conn, "230 Login successful");
            }
            ("PASV", LoginState::LoggedIn) => {
                let port = ctx.tcp_listen_ephemeral(4);
                session.data_port = Some(port);
                self.data_ports.insert(port, conn);
                self.reply(ctx, conn, &format!("227 Entering Passive Mode ({port})"));
            }
            ("RETR", LoginState::LoggedIn) => {
                let file: Option<usize> =
                    arg.strip_prefix("file").and_then(|id| id.parse().ok());
                match file.filter(|&id| id < self.files.len()) {
                    Some(id) => {
                        session.pending_file = Some(id);
                        self.transfer_if_ready(ctx, conn);
                    }
                    None => {
                        self.stats.add_error();
                        self.reply(ctx, conn, "550 No such file");
                    }
                }
            }
            ("QUIT", _) => {
                self.reply(ctx, conn, "221 Goodbye");
                ctx.tcp_close(conn);
            }
            _ => {
                self.stats.add_error();
                self.reply(ctx, conn, "503 Bad sequence of commands");
            }
        }
    }

    fn cleanup_session(&mut self, ctx: &mut Ctx<'_>, control: ConnId) {
        if let Some(session) = self.sessions.remove(&control) {
            if let Some(port) = session.data_port {
                self.data_ports.remove(&port);
                ctx.tcp_unlisten(port);
            }
            if let Some(data) = session.data_conn {
                self.data_to_control.remove(&data);
            }
        }
    }
}

impl App for FtpServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert!(ctx.tcp_listen(FTP_PORT, 64), "FTP port already bound");
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Accepted { conn, local_port, .. } => {
                if local_port == FTP_PORT {
                    self.stats.add_accepted();
                    self.sessions.insert(conn, FtpSession::new());
                    self.reply(ctx, conn, "220 ddoshield FTP ready");
                } else if let Some(&control) = self.data_ports.get(&local_port) {
                    if let Some(session) = self.sessions.get_mut(&control) {
                        session.data_conn = Some(conn);
                        self.data_to_control.insert(conn, control);
                        self.transfer_if_ready(ctx, control);
                    }
                }
            }
            TcpEvent::Data { conn, data } => {
                if !self.sessions.contains_key(&conn) {
                    return; // bytes on a data channel are ignored
                }
                let session = self.sessions.get_mut(&conn).expect("checked above");
                session.buffer.push(&data);
                let mut lines = Vec::new();
                while let Some(line) = session.buffer.next_line() {
                    lines.push(line);
                }
                for line in lines {
                    self.handle_command(ctx, conn, &line);
                }
            }
            TcpEvent::PeerClosed { conn }
                if self.sessions.contains_key(&conn) => {
                    ctx.tcp_close(conn);
                }
            TcpEvent::Closed { conn } => {
                if self.sessions.contains_key(&conn) {
                    self.cleanup_session(ctx, conn);
                } else if let Some(control) = self.data_to_control.remove(&conn) {
                    if let Some(session) = self.sessions.get_mut(&control) {
                        session.data_conn = None;
                    }
                }
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientPhase {
    Idle,
    Connecting,
    WaitWelcome,
    WaitUser,
    WaitPass,
    WaitPasv,
    Downloading,
    WaitComplete,
}

/// A closed-loop FTP download client. A session that fails or stalls is
/// retried from scratch (fresh login) with capped exponential backoff
/// per its [`RetryPolicy`] before counting as a failure.
#[derive(Debug)]
pub struct FtpClient {
    server: Addr,
    catalogue_len: usize,
    cycle: ClientLoop,
    phase: ClientPhase,
    control: Option<ConnId>,
    data: Option<ConnId>,
    buffer: LineBuffer,
    data_closed: bool,
    got_226: bool,
}

impl FtpClient {
    /// Creates a client targeting `server`, downloading one of
    /// `catalogue_len` files per session with mean think time
    /// `think_mean` seconds between sessions, retrying failed sessions
    /// per `retry`.
    pub fn new(
        server: Addr,
        think_mean: f64,
        catalogue_len: usize,
        retry: RetryPolicy,
        stats: ClientStats,
        rng: SimRng,
    ) -> Self {
        FtpClient {
            server,
            catalogue_len,
            cycle: ClientLoop::new(think_mean, retry, stats, rng),
            phase: ClientPhase::Idle,
            control: None,
            data: None,
            buffer: LineBuffer::new(),
            data_closed: false,
            got_226: false,
        }
    }

    fn reset(&mut self) {
        self.phase = ClientPhase::Idle;
        self.control = None;
        self.data = None;
        self.buffer = LineBuffer::new();
        self.data_closed = false;
        self.got_226 = false;
    }

    /// Dials the control channel for the pending transaction and arms
    /// its deadline.
    fn begin_attempt(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = ClientPhase::Connecting;
        self.control = Some(ctx.tcp_connect(self.server, FTP_PORT));
        self.cycle.arm_deadline(ctx);
    }

    /// One attempt died: tears the session down, so a retry starts from
    /// a fresh login.
    fn fail(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(conn) = self.control.take() {
            ctx.tcp_abort(conn);
        }
        if let Some(conn) = self.data.take() {
            ctx.tcp_abort(conn);
        }
        self.reset();
        self.cycle.attempt_failed(ctx);
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, text: String) {
        if let Some(conn) = self.control {
            self.cycle.stats.add_bytes_sent(text.len() as u64 + 2);
            ctx.tcp_send(conn, format!("{text}\r\n").as_bytes());
        }
    }

    fn maybe_complete(&mut self, ctx: &mut Ctx<'_>) {
        if self.data_closed && self.got_226 {
            self.send(ctx, "QUIT".to_owned());
            if let Some(conn) = self.control.take() {
                ctx.tcp_close(conn);
            }
            self.reset();
            self.cycle.finish(ctx, true);
        }
    }

    fn handle_reply(&mut self, ctx: &mut Ctx<'_>, line: String) {
        let code = line.split(' ').next().unwrap_or("");
        match (self.phase, code) {
            (ClientPhase::WaitWelcome, "220") => {
                self.phase = ClientPhase::WaitUser;
                self.send(ctx, "USER iot".to_owned());
            }
            (ClientPhase::WaitUser, "331") => {
                self.phase = ClientPhase::WaitPass;
                self.send(ctx, "PASS hunter2".to_owned());
            }
            (ClientPhase::WaitPass, "230") => {
                self.phase = ClientPhase::WaitPasv;
                self.send(ctx, "PASV".to_owned());
            }
            (ClientPhase::WaitPasv, "227") => {
                let port: Option<u16> = line
                    .rsplit_once('(')
                    .and_then(|(_, rest)| rest.strip_suffix(')'))
                    .and_then(|p| p.parse().ok());
                match port {
                    Some(port) => {
                        self.phase = ClientPhase::Downloading;
                        let data = ctx.tcp_connect(self.server, port);
                        self.data = Some(data);
                        let file = self.cycle.rng.below(self.catalogue_len as u64);
                        self.send(ctx, format!("RETR file{file}"));
                    }
                    None => self.fail(ctx),
                }
            }
            (ClientPhase::Downloading, "150") => {
                self.phase = ClientPhase::WaitComplete;
            }
            (ClientPhase::Downloading | ClientPhase::WaitComplete, "226") => {
                self.got_226 = true;
                self.maybe_complete(ctx);
            }
            (_, "550") | (_, "503") => self.fail(ctx),
            _ => {}
        }
    }
}

impl App for FtpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.cycle.think(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match self.cycle.wake(ctx, token) {
            Some(Wake::Start | Wake::Retry) => self.begin_attempt(ctx),
            Some(Wake::Deadline) if self.phase != ClientPhase::Idle => self.fail(ctx),
            _ => {}
        }
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        let conn = event.conn();
        let is_control = Some(conn) == self.control;
        let is_data = Some(conn) == self.data;
        if !is_control && !is_data {
            return;
        }
        match event {
            TcpEvent::Connected { .. } if is_control => {
                self.phase = ClientPhase::WaitWelcome;
            }
            TcpEvent::Data { data, .. } => {
                self.cycle.stats.add_bytes_received(data.len() as u64);
                if is_control {
                    self.buffer.push(&data);
                    let mut lines = Vec::new();
                    while let Some(line) = self.buffer.next_line() {
                        lines.push(line);
                    }
                    for line in lines {
                        self.handle_reply(ctx, line);
                    }
                }
            }
            TcpEvent::PeerClosed { .. } | TcpEvent::Closed { .. } if is_data => {
                if matches!(event, TcpEvent::PeerClosed { .. }) {
                    ctx.tcp_close(conn);
                }
                self.data_closed = true;
                self.maybe_complete(ctx);
            }
            TcpEvent::ConnectFailed { .. } => self.fail(ctx),
            TcpEvent::Closed { .. } if is_control => {
                // Unexpected control-channel loss mid-session.
                self.control = None;
                self.fail(ctx);
            }
            _ => {}
        }
    }

    fn on_link_state(&mut self, _ctx: &mut Ctx<'_>, up: bool) {
        if !up {
            self.reset();
        }
    }
}

#[cfg(test)]
mod tests {

    #[test]
    fn pasv_reply_port_parses() {
        let line = "227 Entering Passive Mode (23456)";
        let port: Option<u16> = line
            .rsplit_once('(')
            .and_then(|(_, rest)| rest.strip_suffix(')'))
            .and_then(|p| p.parse().ok());
        assert_eq!(port, Some(23456));
    }
}
