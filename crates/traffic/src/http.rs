//! HTTP traffic: an Apache-like object server and a client workload.
//!
//! The server hosts a catalogue of objects with heavy-tailed (bounded
//! Pareto) sizes; clients request objects with Zipf-skewed popularity,
//! one request per connection, separated by exponential think times —
//! the classic closed-loop web workload. This is the paper's "HTTP
//! traffic" benign class.

use std::collections::HashMap;

use netsim::packet::Addr;
use netsim::rng::{BoundedPareto, SimRng, ZipfTable};
use netsim::world::{App, Ctx};
use netsim::{ConnId, TcpEvent};

use crate::protocol::{http_response, parse_content_length, BodyReader, LineBuffer};
use crate::retry::{ClientLoop, RetryPolicy, Wake};
use crate::stats::{ClientStats, ServerStats};

/// The TServer's HTTP port.
pub const HTTP_PORT: u16 = 80;

/// A generated catalogue of web objects.
#[derive(Debug, Clone)]
pub struct Catalogue {
    sizes: Vec<usize>,
}

impl Catalogue {
    /// Generates `n` objects with bounded-Pareto sizes in `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the bounds are invalid.
    pub fn generate(n: usize, min: usize, max: usize, rng: &mut SimRng) -> Self {
        assert!(n > 0, "empty catalogue");
        let pareto = BoundedPareto::new(1.2, min as f64, max as f64);
        let sizes = (0..n).map(|_| pareto.sample(rng).round() as usize).collect();
        Catalogue { sizes }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// `true` if the catalogue has no objects (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size in bytes of object `id`, if it exists.
    pub fn size(&self, id: usize) -> Option<usize> {
        self.sizes.get(id).copied()
    }
}

/// An Apache-like HTTP object server.
#[derive(Debug)]
pub struct HttpServer {
    catalogue: Catalogue,
    stats: ServerStats,
    conns: HashMap<ConnId, LineBuffer>,
}

impl HttpServer {
    /// Creates a server over the given catalogue.
    pub fn new(catalogue: Catalogue, stats: ServerStats) -> Self {
        HttpServer { catalogue, stats, conns: HashMap::new() }
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, line: &str) {
        let Some(path) = line.strip_prefix("GET ").and_then(|r| r.split(' ').next()) else {
            self.stats.add_error();
            let resp = http_response(400, "Bad Request", 0);
            ctx.tcp_send_bytes(conn, resp);
            return;
        };
        let object = path.strip_prefix("/obj/").and_then(|id| id.parse::<usize>().ok());
        match object.and_then(|id| self.catalogue.size(id)) {
            Some(size) => {
                let resp = http_response(200, "OK", size);
                self.stats.add_served();
                self.stats.add_bytes_sent(size as u64);
                ctx.tcp_send_bytes(conn, resp);
            }
            None => {
                self.stats.add_error();
                let resp = http_response(404, "Not Found", 0);
                ctx.tcp_send_bytes(conn, resp);
            }
        }
    }
}

impl App for HttpServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        assert!(ctx.tcp_listen(HTTP_PORT, 128), "HTTP port already bound");
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        match event {
            TcpEvent::Accepted { conn, .. } => {
                self.stats.add_accepted();
                self.conns.insert(conn, LineBuffer::new());
            }
            TcpEvent::Data { conn, data } => {
                let Some(buffer) = self.conns.get_mut(&conn) else { return };
                buffer.push(&data);
                let mut requests = Vec::new();
                while let Some(line) = buffer.next_line() {
                    if line.starts_with("GET ") {
                        requests.push(line);
                    }
                    // Other header lines and the blank separator are skipped.
                }
                for line in requests {
                    self.handle_request(ctx, conn, &line);
                }
            }
            TcpEvent::PeerClosed { conn } => {
                ctx.tcp_close(conn);
            }
            TcpEvent::Closed { conn } => {
                self.conns.remove(&conn);
            }
            _ => {}
        }
    }
}

#[derive(Debug)]
enum FetchPhase {
    Head(LineBuffer),
    Body(BodyReader),
}

/// A closed-loop HTTP client: think, request, download, repeat. Failed
/// or timed-out requests are retried with capped exponential backoff per
/// its [`RetryPolicy`] before counting as failures.
#[derive(Debug)]
pub struct HttpClient {
    server: Addr,
    zipf: ZipfTable,
    cycle: ClientLoop,
    current: Option<(ConnId, FetchPhase)>,
    /// The object of the in-progress transaction; retries re-request the
    /// same object.
    object: usize,
}

impl HttpClient {
    /// Creates a client targeting `server`, with mean think time
    /// `think_mean` seconds between requests, choosing among
    /// `catalogue_len` objects with Zipf(1.0) popularity, and retrying
    /// failed requests per `retry`.
    pub fn new(
        server: Addr,
        think_mean: f64,
        catalogue_len: usize,
        retry: RetryPolicy,
        stats: ClientStats,
        rng: SimRng,
    ) -> Self {
        HttpClient {
            server,
            zipf: ZipfTable::new(catalogue_len, 1.0),
            cycle: ClientLoop::new(think_mean, retry, stats, rng),
            current: None,
            object: 0,
        }
    }

    /// Opens a connection for the pending transaction and arms its
    /// deadline.
    fn begin_attempt(&mut self, ctx: &mut Ctx<'_>) {
        let conn = ctx.tcp_connect(self.server, HTTP_PORT);
        self.current = Some((conn, FetchPhase::Head(LineBuffer::new())));
        self.cycle.arm_deadline(ctx);
    }
}

impl App for HttpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.cycle.think(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match self.cycle.wake(ctx, token) {
            Some(Wake::Start) => {
                self.object = self.zipf.sample(&mut self.cycle.rng);
                self.begin_attempt(ctx);
            }
            Some(Wake::Retry) => self.begin_attempt(ctx),
            Some(Wake::Deadline) => {
                // The abort swallows our own Closed event.
                if let Some((conn, _)) = self.current.take() {
                    ctx.tcp_abort(conn);
                    self.cycle.attempt_failed(ctx);
                }
            }
            None => {}
        }
    }

    fn on_tcp(&mut self, ctx: &mut Ctx<'_>, event: TcpEvent) {
        let Some((current_conn, _)) = &self.current else { return };
        if event.conn() != *current_conn {
            return;
        }
        match event {
            TcpEvent::Connected { conn } => {
                let request =
                    format!("GET /obj/{} HTTP/1.1\r\nHost: tserver\r\n\r\n", self.object);
                self.cycle.stats.add_bytes_sent(request.len() as u64);
                ctx.tcp_send(conn, request.as_bytes());
            }
            TcpEvent::Data { conn, data } => {
                self.cycle.stats.add_bytes_received(data.len() as u64);
                let mut done = false;
                if let Some((_, phase)) = &mut self.current {
                    match phase {
                        FetchPhase::Head(buffer) => {
                            buffer.push(&data);
                            let mut content_length = None;
                            let mut body_started = false;
                            while let Some(line) = buffer.next_line() {
                                if let Some(n) = parse_content_length(&line) {
                                    content_length = Some(n);
                                }
                                if line.is_empty() {
                                    body_started = true;
                                    break;
                                }
                            }
                            if body_started {
                                let expected = content_length.unwrap_or(0);
                                let mut body = BodyReader::new(expected);
                                let leftover = buffer.take_rest();
                                if body.push(&leftover) {
                                    done = true;
                                } else {
                                    *phase = FetchPhase::Body(body);
                                }
                            }
                        }
                        FetchPhase::Body(body) => {
                            if body.push(&data) {
                                done = true;
                            }
                        }
                    }
                }
                if done {
                    ctx.tcp_close(conn);
                    self.current = None;
                    self.cycle.finish(ctx, true);
                }
            }
            // A refused connect, or a close before the body completed: a
            // dead attempt (unless we initiated the close, in which case
            // `current` is already None and this event is ignored).
            TcpEvent::ConnectFailed { .. } | TcpEvent::Closed { .. } => {
                self.current = None;
                self.cycle.attempt_failed(ctx);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_sizes_are_bounded() {
        let mut rng = SimRng::seed_from(1);
        let cat = Catalogue::generate(100, 500, 100_000, &mut rng);
        assert_eq!(cat.len(), 100);
        for id in 0..cat.len() {
            let size = cat.size(id).unwrap();
            assert!((500..=100_000).contains(&size), "{size}");
        }
        assert_eq!(cat.size(100), None);
    }
}
