//! Tiny text-protocol framing shared by the application servers.
//!
//! All three benign protocols in the testbed frame their control messages
//! as CRLF-terminated ASCII lines, with bulk payload framed by an explicit
//! length (HTTP `Content-Length`) or by connection close (FTP data
//! channels). [`LineBuffer`] accumulates stream bytes and yields complete
//! lines; [`BodyReader`] accumulates an explicitly sized body.

use bytes::Bytes;

/// Accumulates stream bytes and yields complete CRLF-terminated lines.
///
/// ```
/// use traffic::protocol::LineBuffer;
///
/// let mut buf = LineBuffer::new();
/// buf.push(b"GET /a HTT");
/// assert_eq!(buf.next_line(), None);
/// buf.push(b"P/1.1\r\nHost: x\r\n");
/// assert_eq!(buf.next_line().as_deref(), Some("GET /a HTTP/1.1"));
/// assert_eq!(buf.next_line().as_deref(), Some("Host: x"));
/// ```
#[derive(Debug, Default, Clone)]
pub struct LineBuffer {
    data: Vec<u8>,
}

impl LineBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Pops the next complete line (without its CRLF), if one is buffered.
    /// Non-UTF-8 lines are replaced lossily.
    pub fn next_line(&mut self) -> Option<String> {
        let pos = self.data.windows(2).position(|w| w == b"\r\n")?;
        let line = String::from_utf8_lossy(&self.data[..pos]).into_owned();
        self.data.drain(..pos + 2);
        Some(line)
    }

    /// Takes all remaining buffered bytes (for switching to body mode).
    pub fn take_rest(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.data)
    }

    /// Number of buffered bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Accumulates an explicitly sized payload.
#[derive(Debug, Clone)]
pub struct BodyReader {
    expected: usize,
    received: usize,
}

impl BodyReader {
    /// Starts reading a body of `expected` bytes.
    pub fn new(expected: usize) -> Self {
        BodyReader { expected, received: 0 }
    }

    /// Feeds stream bytes; returns `true` once the body is complete.
    pub fn push(&mut self, bytes: &[u8]) -> bool {
        self.received += bytes.len();
        self.is_complete()
    }

    /// `true` once at least `expected` bytes arrived.
    pub fn is_complete(&self) -> bool {
        self.received >= self.expected
    }

    /// Bytes received so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Bytes expected in total.
    pub fn expected(&self) -> usize {
        self.expected
    }
}

/// Builds an HTTP/1.1-style response head plus a generated body.
pub fn http_response(status: u16, reason: &str, body_len: usize) -> Bytes {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nServer: ddoshield-tserver\r\nContent-Length: {body_len}\r\n\r\n"
    );
    let mut out = Vec::with_capacity(head.len() + body_len);
    out.extend_from_slice(head.as_bytes());
    extend_with_body(&mut out, body_len);
    Bytes::from(out)
}

/// Parses a `Content-Length` header value out of a header line.
pub fn parse_content_length(line: &str) -> Option<usize> {
    let (name, value) = line.split_once(':')?;
    if name.trim().eq_ignore_ascii_case("content-length") {
        value.trim().parse().ok()
    } else {
        None
    }
}

/// One period of the deterministic filler pattern: body byte `i` is
/// `i % 251`.
const FILLER: [u8; 251] = {
    let mut period = [0u8; 251];
    let mut i = 0;
    while i < period.len() {
        period[i] = i as u8;
        i += 1;
    }
    period
};

/// Appends `len` bytes of the deterministic filler pattern (a repeating
/// pattern, so tests can verify integrity cheaply) to `out`, a whole
/// period per copy. The pattern starts at body offset 0, wherever `out`
/// already ends.
pub fn extend_with_body(out: &mut Vec<u8>, len: usize) {
    out.reserve(len);
    for _ in 0..len / FILLER.len() {
        out.extend_from_slice(&FILLER);
    }
    out.extend_from_slice(&FILLER[..len % FILLER.len()]);
}

/// A filler body of `len` bytes as an owned chunk, ready for
/// [`netsim::world::Ctx::tcp_send_bytes`].
pub fn generated_body(len: usize) -> Bytes {
    let mut body = Vec::with_capacity(len);
    extend_with_body(&mut body, len);
    Bytes::from(body)
}

/// Verifies that `bytes` is a prefix of the deterministic filler pattern
/// starting at `offset`. Computed byte by byte, independently of the
/// period copies that build bodies.
pub fn body_matches(offset: usize, bytes: &[u8]) -> bool {
    bytes.iter().enumerate().all(|(i, &b)| b == ((offset + i) % 251) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_buffer_handles_split_crlf() {
        let mut buf = LineBuffer::new();
        buf.push(b"hello\r");
        assert_eq!(buf.next_line(), None);
        buf.push(b"\nworld\r\n");
        assert_eq!(buf.next_line().as_deref(), Some("hello"));
        assert_eq!(buf.next_line().as_deref(), Some("world"));
        assert_eq!(buf.next_line(), None);
        assert!(buf.is_empty());
    }

    #[test]
    fn line_buffer_take_rest_returns_leftover() {
        let mut buf = LineBuffer::new();
        buf.push(b"head\r\nbody-bytes");
        assert_eq!(buf.next_line().as_deref(), Some("head"));
        assert_eq!(buf.take_rest(), b"body-bytes");
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn body_reader_counts_to_completion() {
        let mut body = BodyReader::new(10);
        assert!(!body.push(&[0; 4]));
        assert!(!body.is_complete());
        assert!(body.push(&[0; 6]));
        assert_eq!(body.received(), 10);
        assert_eq!(body.expected(), 10);
    }

    #[test]
    fn http_response_is_parseable() {
        let resp = http_response(200, "OK", 5);
        let mut buf = LineBuffer::new();
        buf.push(&resp);
        assert_eq!(buf.next_line().as_deref(), Some("HTTP/1.1 200 OK"));
        let mut content_length = None;
        while let Some(line) = buf.next_line() {
            if line.is_empty() {
                break;
            }
            if let Some(n) = parse_content_length(&line) {
                content_length = Some(n);
            }
        }
        assert_eq!(content_length, Some(5));
        assert_eq!(buf.take_rest().len(), 5);
    }

    #[test]
    fn parse_content_length_is_case_insensitive() {
        assert_eq!(parse_content_length("CONTENT-LENGTH: 42"), Some(42));
        assert_eq!(parse_content_length("content-length:7"), Some(7));
        assert_eq!(parse_content_length("Host: x"), None);
        assert_eq!(parse_content_length("nonsense"), None);
    }

    #[test]
    fn generated_body_roundtrips_with_matcher() {
        let body = generated_body(600);
        assert!(body_matches(0, &body));
        assert!(body_matches(100, &body[100..]));
        assert!(!body_matches(1, &body));
    }

    /// The period-copy fill against the byte-by-byte checker at every
    /// length around the period edges and at the FTP catalogue's
    /// largest file, appended after a prefix as `http_response` does.
    #[test]
    fn period_fill_matches_the_pattern_at_every_length() {
        let max = crate::workload::WorkloadConfig::default().ftp_max_bytes;
        for len in (0..=2 * FILLER.len() + 1).chain([max - 1, max, max + 1]) {
            let body = generated_body(len);
            assert_eq!(body.len(), len);
            assert!(body_matches(0, &body), "len {len}");
            let mut out = b"head".to_vec();
            extend_with_body(&mut out, len);
            assert_eq!(
                (&out[..4], &out[4..]),
                (&b"head"[..], &body[..]),
                "len {len}"
            );
        }
    }

    /// `http_response` bytes are unchanged: the head, then the pattern
    /// from body offset 0 (pinned against the per-byte formula).
    #[test]
    fn http_response_bytes_are_pinned() {
        for len in [0, 1, 250, 251, 252, 10_000] {
            let head = format!(
                "HTTP/1.1 200 OK\r\nServer: ddoshield-tserver\r\nContent-Length: {len}\r\n\r\n"
            );
            let mut expected = head.into_bytes();
            expected.extend((0..len).map(|i| (i % 251) as u8));
            assert_eq!(
                &http_response(200, "OK", len)[..],
                &expected[..],
                "len {len}"
            );
        }
    }

    /// Property: however a CRLF-framed stream is chunked — including
    /// splits that land between the `\r` and the `\n` — the sequence of
    /// parsed lines is identical to feeding the stream in one push.
    #[test]
    fn line_buffer_is_chunking_invariant() {
        use netsim::rng::SimRng;

        let lines = ["GET /obj/1 HTTP/1.1", "Host: tserver", "", "PLAY 2", "x", "226 done"];
        let stream: Vec<u8> =
            lines.iter().flat_map(|l| l.bytes().chain(*b"\r\n")).collect();

        let mut whole = LineBuffer::new();
        whole.push(&stream);
        let mut expected = Vec::new();
        while let Some(line) = whole.next_line() {
            expected.push(line);
        }
        assert_eq!(expected, lines);

        let mut rng = SimRng::seed_from(0xc21f);
        for _ in 0..200 {
            let mut buf = LineBuffer::new();
            let mut got = Vec::new();
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let take = rng.int_range(1, rest.len().min(7) as u64) as usize;
                let (chunk, tail) = rest.split_at(take);
                buf.push(chunk);
                while let Some(line) = buf.next_line() {
                    got.push(line);
                }
                rest = tail;
            }
            assert_eq!(got, expected);
            assert!(buf.is_empty(), "nothing left after the final CRLF");
        }
    }

    /// Property: `parse_content_length` tolerates arbitrary padding and
    /// casing around the header name and value, and rejects garbage.
    #[test]
    fn parse_content_length_survives_padding_and_case() {
        use netsim::rng::SimRng;

        let mut rng = SimRng::seed_from(0xc1e4);
        for _ in 0..200 {
            let n = rng.below(1_000_000);
            let name: String = "Content-Length"
                .chars()
                .map(|c| {
                    if rng.below(2) == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect();
            let pad = |rng: &mut SimRng| " ".repeat(rng.below(4) as usize);
            let line =
                format!("{}{}{}:{}{}{}", pad(&mut rng), name, pad(&mut rng), pad(&mut rng), n, pad(&mut rng));
            assert_eq!(parse_content_length(&line), Some(n as usize), "{line:?}");
        }
        assert_eq!(parse_content_length("Content-Length: -1"), None);
        assert_eq!(parse_content_length("Content-Length: 12x"), None);
        assert_eq!(parse_content_length("Content-Length 12"), None);
        assert_eq!(parse_content_length("Content-Type: 12"), None);
    }
}
