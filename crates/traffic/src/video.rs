//! Video-streaming traffic: an Nginx-RTMP-like chunked push server and a
//! viewer workload.
//!
//! A viewer connects, names a stream, and the server pushes fixed-rate
//! chunks (bitrate / chunk interval) until the viewer departs. Viewers
//! watch for exponentially distributed durations and re-join after think
//! pauses. This is the paper's "video traffic" benign class.

use std::collections::HashMap;

use bytes::Bytes;
use netsim::packet::Addr;
use netsim::rng::SimRng;
use netsim::time::SimDuration;
use netsim::world::{App, Ctx};
use netsim::{ConnId, TcpEvent, TimerId};

use crate::protocol::LineBuffer;
use crate::retry::{ClientLoop, RetryPolicy, Wake};
use crate::stats::{ClientStats, ServerStats};

/// The TServer's streaming port (RTMP's registered port).
pub const VIDEO_PORT: u16 = 1935;

/// Interval between pushed chunks.
pub const CHUNK_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Available stream bitrates in kbit/s (SD → HD ladder).
pub const BITRATE_LADDER_KBPS: [u32; 4] = [400, 800, 1500, 3000];

#[derive(Debug)]
struct StreamSession {
    bitrate_bps: u64,
    buffer: LineBuffer,
    playing: bool,
    /// The fixed-rate chunk pushed every tick. Built once per `PLAY`;
    /// each tick hands the connection a refcounted clone, so streaming
    /// never re-allocates (or copies) the chunk body.
    chunk: Bytes,
}

/// The RTMP-like streaming server.
#[derive(Debug)]
pub struct VideoServer {
    stats: ServerStats,
    sessions: HashMap<ConnId, StreamSession>,
}

impl VideoServer {
    /// Creates a streaming server.
    pub fn new(stats: ServerStats) -> Self {
        VideoServer { stats, sessions: HashMap::new() }
    }

    fn chunk_for(bitrate_bps: u64) -> Bytes {
        let bytes_per_chunk = (bitrate_bps as f64 / 8.0 * CHUNK_INTERVAL.as_secs_f64()) as usize;
        Bytes::from(vec![0xabu8; bytes_per_chunk.max(1)])
    }
}

impl App for VideoServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert!(ctx.tcp_listen(VIDEO_PORT, 64), "video port already bound");
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Accepted { conn, .. } => {
                self.stats.add_accepted();
                self.sessions.insert(
                    conn,
                    StreamSession {
                        bitrate_bps: 0,
                        buffer: LineBuffer::new(),
                        playing: false,
                        chunk: Bytes::new(),
                    },
                );
            }
            TcpEvent::Data { conn, data } => {
                let Some(session) = self.sessions.get_mut(&conn) else { return };
                session.buffer.push(&data);
                while let Some(line) = session.buffer.next_line() {
                    if let Some(rest) = line.strip_prefix("PLAY ") {
                        let ladder_idx: usize = rest.trim().parse().unwrap_or(0);
                        let kbps = BITRATE_LADDER_KBPS
                            [ladder_idx.min(BITRATE_LADDER_KBPS.len() - 1)];
                        session.bitrate_bps = kbps as u64 * 1000;
                        session.chunk = Self::chunk_for(session.bitrate_bps);
                        if !session.playing {
                            session.playing = true;
                            self.stats.add_served();
                            // Kick off the chunk clock for this session.
                            ctx.set_timer(CHUNK_INTERVAL, conn.as_raw());
                        }
                    }
                }
            }
            TcpEvent::PeerClosed { conn } => {
                ctx.tcp_close(conn);
                self.sessions.remove(&conn);
            }
            TcpEvent::Closed { conn } => {
                self.sessions.remove(&conn);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let conn = ConnId::from_raw(token);
        let Some(session) = self.sessions.get(&conn) else { return };
        if !session.playing {
            return;
        }
        let chunk = session.chunk.clone();
        self.stats.add_bytes_sent(chunk.len() as u64);
        ctx.tcp_send_bytes(conn, chunk);
        ctx.set_timer(CHUNK_INTERVAL, token);
    }
}

/// A closed-loop video viewer: join, watch, leave, think, repeat. A
/// refused join or a stream reset mid-watch is retried with capped
/// exponential backoff per its [`RetryPolicy`] before counting as a
/// failure.
#[derive(Debug)]
pub struct VideoClient {
    server: Addr,
    watch_mean: f64,
    cycle: ClientLoop,
    current: Option<ConnId>,
    session_bytes: u64,
    leave_timer: Option<TimerId>,
}

/// Timer token: leave the current session. The loop's own tokens are
/// small integers.
const TOKEN_LEAVE: u64 = u64::MAX;

impl VideoClient {
    /// Creates a viewer targeting `server` with the given mean think and
    /// watch durations (seconds), retrying dropped sessions per `retry`.
    pub fn new(
        server: Addr,
        think_mean: f64,
        watch_mean: f64,
        retry: RetryPolicy,
        stats: ClientStats,
        rng: SimRng,
    ) -> Self {
        VideoClient {
            server,
            watch_mean,
            cycle: ClientLoop::new(think_mean, retry, stats, rng),
            current: None,
            session_bytes: 0,
            leave_timer: None,
        }
    }

    /// Dials the streaming server for the pending session and arms the
    /// connect deadline.
    fn begin_attempt(&mut self, ctx: &mut Ctx<'_>) {
        self.session_bytes = 0;
        self.current = Some(ctx.tcp_connect(self.server, VIDEO_PORT));
        self.cycle.arm_deadline(ctx);
    }

    /// One attempt died (refused, reset, or stalled): tears it down.
    fn attempt_failed(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(timer) = self.leave_timer.take() {
            ctx.cancel_timer(timer);
        }
        if let Some(conn) = self.current.take() {
            ctx.tcp_abort(conn);
        }
        self.cycle.attempt_failed(ctx);
    }
}

impl App for VideoClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.cycle.think(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match self.cycle.wake(ctx, token) {
            Some(Wake::Start | Wake::Retry) => self.begin_attempt(ctx),
            Some(Wake::Deadline) if self.current.is_some() => self.attempt_failed(ctx),
            None if token == TOKEN_LEAVE => {
                self.leave_timer = None;
                if let Some(conn) = self.current.take() {
                    ctx.tcp_close(conn);
                    self.cycle.finish(ctx, self.session_bytes > 0);
                }
            }
            _ => {}
        }
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        if Some(event.conn()) != self.current {
            return;
        }
        match event {
            TcpEvent::Connected { conn } => {
                self.cycle.disarm_deadline(ctx);
                let ladder = self.cycle.rng.below(BITRATE_LADDER_KBPS.len() as u64);
                let play = format!("PLAY {ladder}\r\n");
                self.cycle.stats.add_bytes_sent(play.len() as u64);
                ctx.tcp_send(conn, play.as_bytes());
                let watch =
                    SimDuration::from_secs_f64(self.cycle.rng.exponential(self.watch_mean));
                self.leave_timer = Some(ctx.set_timer(watch, TOKEN_LEAVE));
            }
            TcpEvent::Data { data, .. } => {
                self.session_bytes += data.len() as u64;
                self.cycle.stats.add_bytes_received(data.len() as u64);
            }
            TcpEvent::ConnectFailed { .. } | TcpEvent::Closed { .. } => {
                self.current = None;
                self.attempt_failed(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_matches_bitrate() {
        // 800 kbit/s at 100 ms chunks = 10 kB/chunk.
        let chunk = VideoServer::chunk_for(800_000);
        assert_eq!(chunk.len(), 10_000);
    }

    #[test]
    fn ladder_indices_clamp() {
        assert_eq!(BITRATE_LADDER_KBPS[3], 3000);
        let idx = 99usize.min(BITRATE_LADDER_KBPS.len() - 1);
        assert_eq!(BITRATE_LADDER_KBPS[idx], 3000);
    }
}
