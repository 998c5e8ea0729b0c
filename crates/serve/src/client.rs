//! A minimal blocking HTTP client for talking to a running server —
//! used by the `ucsim client` subcommand and the integration tests.
//!
//! Two shapes: the one-shot [`request`] (`Connection: close`, never
//! retried), and the keep-alive [`Client`], which holds one TCP
//! connection across requests — a whole submit-then-poll sweep rides a
//! single connection. Both, and the peer transport, read responses with
//! the same `Content-Length` framing and the same size caps, so a
//! hostile or broken server yields an error, never an unbounded
//! allocation. The client's
//! [`Client::request_retrying`] adds bounded, jittered exponential
//! backoff around transient failures (connect/read errors and 429
//! backpressure, honoring `Retry-After`).

use std::io::{self, BufRead, BufReader, Read};
use std::net::TcpStream;
use std::time::Duration;

use ucsim_model::SplitMix64;

/// Largest response head (status line and headers) a reader accepts.
const MAX_RESPONSE_HEAD_BYTES: usize = 16 * 1024;

/// Largest response body a reader accepts. The largest page the server
/// produces is a `GET /v1/store` page, which the server sizes to fit
/// under this cap; a full trace page (`RING_SLOTS` events) and a
/// 1024-cell matrix are a few MB.
pub(crate) const MAX_RESPONSE_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Bounded retry with jittered exponential backoff.
///
/// Retried outcomes: I/O errors (connect refused, reset mid-response)
/// and HTTP 429. A 429 carrying `Retry-After: <secs>` sleeps that long
/// (capped at `max_delay`) instead of the computed backoff — the server
/// knows its queue better than the client does. Any other response,
/// including 5xx error envelopes, returns immediately: those are
/// terminal answers, not congestion.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try exactly once).
    pub max_retries: u32,
    /// Backoff before retry `n` is `base_delay * 2^n`, jittered.
    pub base_delay: Duration,
    /// Ceiling on any single sleep.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x7e57_ab1e,
        }
    }
}

impl RetryPolicy {
    /// No retries at all (the `--no-retry` escape hatch).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retry `attempt` (0-based): exponential from
    /// `base_delay`, multiplied by a jitter factor in `[0.5, 1.5)`,
    /// capped at `max_delay`.
    fn backoff(&self, attempt: u32, rng: &mut SplitMix64) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        let jittered = exp.mul_f64(0.5 + rng.unit_f64());
        jittered.min(self.max_delay)
    }
}

/// A parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code (200, 429, ...).
    pub status: u16,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request to `addr` and reads the full response.
///
/// `body` may be empty (e.g. for GET). The connection is one-shot
/// (`Connection: close`).
///
/// # Errors
///
/// Propagates connect/read/write errors; a malformed or oversized
/// response maps to [`io::ErrorKind::InvalidData`], a truncated one to
/// [`io::ErrorKind::UnexpectedEof`].
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_request(&mut stream, method, path, addr, true, &[], body)?;
    read_framed_response(&mut BufReader::new(stream))
}

/// A keep-alive client: one TCP connection reused across requests.
///
/// Responses are read by `Content-Length` framing rather than to EOF, so
/// the connection stays usable. If the server closed the connection in
/// the meantime (idle timeout, restart), the next request transparently
/// reconnects once.
///
/// With extra peers configured ([`Client::add_peer`], the `--peer` CLI
/// flag), [`Client::request_retrying`] *fails over*: a connect/read
/// error or a 5xx answer rotates to the next address before the next
/// attempt, so a cluster stays usable while any one member is up. A 429
/// still retries the same node — it is backpressure, not failure.
pub struct Client {
    /// Candidate addresses; `addrs[active]` is the one in use.
    addrs: Vec<String>,
    active: usize,
    conn: Option<BufReader<TcpStream>>,
    connects: u64,
    failovers: u64,
    retry: RetryPolicy,
    jitter: SplitMix64,
    request_id: Option<String>,
}

impl Client {
    /// Creates a client for `addr` (connects lazily on first request)
    /// with the default [`RetryPolicy`].
    pub fn new(addr: &str) -> Client {
        Client::with_retry(addr, RetryPolicy::default())
    }

    /// Creates a client with an explicit retry policy.
    pub fn with_retry(addr: &str, retry: RetryPolicy) -> Client {
        let jitter = SplitMix64::new(retry.jitter_seed);
        Client {
            addrs: vec![addr.to_owned()],
            active: 0,
            conn: None,
            connects: 0,
            failovers: 0,
            retry,
            jitter,
            request_id: None,
        }
    }

    /// Adds a failover peer address (idempotent; the primary and
    /// duplicates are ignored).
    pub fn add_peer(&mut self, addr: &str) {
        if !self.addrs.iter().any(|a| a == addr) {
            self.addrs.push(addr.to_owned());
        }
    }

    /// The address requests currently go to.
    pub fn addr(&self) -> &str {
        &self.addrs[self.active]
    }

    /// TCP connections established so far (tests assert keep-alive reuse
    /// by checking this stays at 1 across requests).
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Failovers to another peer so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Rotates to the next configured address and drops the cached
    /// connection. No-op with a single address.
    fn fail_over(&mut self) {
        if self.addrs.len() > 1 {
            self.active = (self.active + 1) % self.addrs.len();
            self.conn = None;
            self.failovers += 1;
        }
    }

    /// Sets an `X-Request-Id` to send on every subsequent request (the
    /// server echoes it and threads it through job failure envelopes).
    /// `None` clears it, letting the server mint its own per request.
    pub fn set_request_id(&mut self, id: Option<String>) {
        self.request_id = id;
    }

    /// Like [`Client::request`], but retries transient failures — I/O
    /// errors and 429 responses — up to the policy's `max_retries`,
    /// sleeping a jittered exponential backoff between attempts. A 429
    /// with `Retry-After: <secs>` sleeps that long (capped) instead.
    ///
    /// # Errors
    ///
    /// Returns the last I/O error once retries are exhausted. An
    /// exhausted 429 is returned as the response, not an error.
    pub fn request_retrying(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        let mut attempt = 0u32;
        loop {
            let outcome = self.request(method, path, body);
            let multi = self.addrs.len() > 1;
            // With peers configured, a 5xx becomes worth retrying — on
            // the *next* peer. Single-address behavior is unchanged
            // (5xx is a terminal answer there).
            let retriable = match &outcome {
                Ok(resp) => resp.status == 429 || (multi && resp.status >= 500),
                Err(_) => true,
            };
            if !retriable || attempt >= self.retry.max_retries {
                return outcome;
            }
            match &outcome {
                Err(_) => self.fail_over(),
                Ok(resp) if resp.status >= 500 => self.fail_over(),
                Ok(_) => {}
            }
            let delay = match &outcome {
                Ok(resp) => resp
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map_or_else(
                        || self.retry.backoff(attempt, &mut self.jitter),
                        |secs| Duration::from_secs(secs).min(self.retry.max_delay),
                    ),
                Err(_) => self.retry.backoff(attempt, &mut self.jitter),
            };
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// Sends one request on the kept-alive connection and reads the
    /// framed response.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write errors after the one reconnect
    /// attempt; malformed responses map to [`io::ErrorKind::InvalidData`].
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
        match self.try_request(method, path, body) {
            Ok(resp) => Ok(resp),
            Err(_) if self.conn.is_none() => {
                // The cached connection had gone stale (server idle-closed
                // it); retry once on a fresh one.
                self.try_request(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
        let host = &self.addrs[self.active];
        if self.conn.is_none() {
            let stream = TcpStream::connect(host)?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
            self.connects += 1;
        }
        let id_header = self.request_id.as_deref().map(|id| ("x-request-id", id));
        let conn = self.conn.as_mut().expect("connected above");
        let result = write_request(
            conn.get_mut(),
            method,
            path,
            host,
            false,
            id_header.as_slice(),
            body,
        )
        .and_then(|()| read_framed_response(conn));
        match result {
            Ok(resp) => {
                // Honor the server's decision to close.
                if resp
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                // Drop the broken connection so the caller (or our retry)
                // starts clean.
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Writes one JSON request as a single message (see
/// [`crate::http::write_message`]), with `Connection: close` when
/// `close`. Shared by both client shapes and the peer transport
/// (`crate::peer`).
pub(crate) fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    host: &str,
    close: bool,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let standard = [("host", host), ("content-type", "application/json")];
    let connection = close.then_some(("connection", "close"));
    crate::http::write_message(
        stream,
        &format!("{method} {path} HTTP/1.1"),
        standard
            .into_iter()
            .chain(connection)
            .chain(extra_headers.iter().copied()),
        body,
    )
}

/// Reads one `Content-Length`-framed response off a buffered stream,
/// leaving the stream positioned at the next response. Every response
/// reader goes through here: the head is capped at
/// `MAX_RESPONSE_HEAD_BYTES` and the body at `MAX_RESPONSE_BODY_BYTES`,
/// and the body buffer grows only as bytes arrive.
pub(crate) fn read_framed_response(r: &mut impl BufRead) -> io::Result<HttpResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let mut head_budget = MAX_RESPONSE_HEAD_BYTES;
    let mut line = String::new();
    if read_head_line(r, &mut line, &mut head_budget)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response",
        ));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;

    let mut headers = Vec::new();
    loop {
        line.clear();
        if read_head_line(r, &mut line, &mut head_budget)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.trim().to_lowercase(), v.trim().to_owned()));
        }
    }
    let len = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .ok_or_else(|| bad("response without content-length"))?;
    if len > MAX_RESPONSE_BODY_BYTES {
        return Err(bad(&format!(
            "response body of {len} bytes exceeds the {MAX_RESPONSE_BODY_BYTES}-byte cap"
        )));
    }
    let mut body = Vec::new();
    r.by_ref().take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("response body ended at {} of {len} bytes", body.len()),
        ));
    }
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Appends one head line to `line`, charging it to `budget`; returns the
/// bytes read (0 at EOF).
fn read_head_line(
    r: &mut impl BufRead,
    line: &mut String,
    budget: &mut usize,
) -> io::Result<usize> {
    let n = r.by_ref().take(*budget as u64 + 1).read_line(line)?;
    if n > *budget {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "response head too large",
        ));
    }
    *budget -= n;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn parses_a_response() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 2\r\ncontent-length: 2\r\n\r\n{}";
        let resp = read_framed_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.body_str(), "{}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_framed_response(&mut &b"not http"[..]).is_err());
        assert!(read_framed_response(&mut &b"HTTP/1.1 nope\r\n\r\n"[..]).is_err());
        // A head with no terminator, and one with no content-length.
        assert!(read_framed_response(&mut &b"HTTP/1.1 200 OK\r\nx: y"[..]).is_err());
        assert!(read_framed_response(&mut &b"HTTP/1.1 200 OK\r\n\r\nbody"[..]).is_err());
        // An endless head line is cut off at the head cap.
        let mut endless = b"HTTP/1.1 200 OK\r\nx: ".to_vec();
        endless.resize(MAX_RESPONSE_HEAD_BYTES * 2, b'a');
        let err = read_framed_response(&mut &endless[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Reads one request head (through `\r\n\r\n`) off a stream so the
    /// canned response doesn't race the client's write.
    fn read_request_head(s: &mut TcpStream) {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            if s.read(&mut byte).unwrap_or(0) == 0 {
                return;
            }
            buf.push(byte[0]);
        }
    }

    #[test]
    fn retrying_client_rides_out_429s() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let answers = [
                "HTTP/1.1 429 Too Many Requests\r\nretry-after: 0\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
                "HTTP/1.1 429 Too Many Requests\r\nretry-after: 0\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
                "HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok",
            ];
            for answer in answers {
                let (mut s, _) = listener.accept().unwrap();
                read_request_head(&mut s);
                s.write_all(answer.as_bytes()).unwrap();
            }
        });
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let mut client = Client::with_retry(&addr, policy);
        let resp = client.request_retrying("GET", "/v1/healthz", b"").unwrap();
        assert_eq!(resp.status, 200);
        // One connection per attempt (each answer said `connection: close`).
        assert_eq!(client.connects(), 3);
        h.join().unwrap();
    }

    #[test]
    fn failover_rotates_past_a_dead_primary_and_a_5xx() {
        use std::net::TcpListener;
        // Primary: bound then dropped, so connects are refused.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        // Second peer answers 503 — with peers configured that is a
        // failover trigger, not a terminal answer.
        let draining = TcpListener::bind("127.0.0.1:0").unwrap();
        let draining_addr = draining.local_addr().unwrap().to_string();
        let h1 = std::thread::spawn(move || {
            let (mut s, _) = draining.accept().unwrap();
            read_request_head(&mut s);
            s.write_all(
                b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
            )
            .unwrap();
        });
        // Third peer is healthy.
        let live = TcpListener::bind("127.0.0.1:0").unwrap();
        let live_addr = live.local_addr().unwrap().to_string();
        let h2 = std::thread::spawn(move || {
            let (mut s, _) = live.accept().unwrap();
            read_request_head(&mut s);
            s.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\nok")
                .unwrap();
        });
        let policy = RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let mut client = Client::with_retry(&dead_addr, policy);
        client.add_peer(&draining_addr);
        client.add_peer(&live_addr);
        let resp = client.request_retrying("GET", "/v1/healthz", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(client.failovers(), 2);
        assert_eq!(client.addr(), live_addr);
        h1.join().unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn no_retry_policy_surfaces_the_429() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_request_head(&mut s);
            s.write_all(
                b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 1\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
            )
            .unwrap();
        });
        let mut client = Client::with_retry(&addr, RetryPolicy::none());
        let resp = client.request_retrying("GET", "/v1/healthz", b"").unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(client.connects(), 1);
        h.join().unwrap();
    }

    #[test]
    fn backoff_is_jittered_exponential_and_capped() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(500),
            jitter_seed: 42,
        };
        let mut rng = SplitMix64::new(policy.jitter_seed);
        for attempt in 0..8 {
            let d = policy.backoff(attempt, &mut rng);
            let exp = Duration::from_millis(100 << attempt.min(16));
            assert!(
                d >= exp.mul_f64(0.5).min(policy.max_delay),
                "attempt {attempt}: {d:?}"
            );
            assert!(
                d <= policy.max_delay.max(exp.mul_f64(1.5)),
                "attempt {attempt}: {d:?}"
            );
            assert!(d <= policy.max_delay, "cap violated at {attempt}: {d:?}");
        }
        // Same seed, same sleeps: the jitter stream is deterministic.
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(policy.backoff(3, &mut a), policy.backoff(3, &mut b));
    }

    #[test]
    fn framed_reads_leave_the_stream_aligned() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Two back-to-back framed responses in one write.
            s.write_all(
                b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabcHTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\nno",
            )
            .unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream);
        let a = read_framed_response(&mut r).unwrap();
        assert_eq!((a.status, a.body_str().as_str()), (200, "abc"));
        let b = read_framed_response(&mut r).unwrap();
        assert_eq!((b.status, b.body_str().as_str()), (404, "no"));
        h.join().unwrap();
    }

    #[test]
    fn oversized_or_truncated_responses_are_errors() {
        use std::net::TcpListener;
        let answers: [&'static [u8]; 2] = [
            // A 1 TiB content-length: must not be allocated up front.
            b"HTTP/1.1 200 OK\r\ncontent-length: 1099511627776\r\n\r\nabc",
            // A body shorter than its content-length.
            b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc",
        ];
        for answer in answers {
            // The keep-alive client reconnects once after a failed read,
            // so it dials twice; the one-shot `request` dials once.
            for (dials, keep_alive) in [(2, true), (1, false)] {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap().to_string();
                let h = std::thread::spawn(move || {
                    for _ in 0..dials {
                        let (mut s, _) = listener.accept().unwrap();
                        read_request_head(&mut s);
                        s.write_all(answer).unwrap();
                    }
                });
                let result = if keep_alive {
                    Client::with_retry(&addr, RetryPolicy::none()).request("GET", "/", b"")
                } else {
                    request(&addr, "GET", "/", b"")
                };
                let err = result.expect_err("a bad frame is an error");
                assert!(
                    matches!(
                        err.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "{err}"
                );
                h.join().unwrap();
            }
        }
    }
}
