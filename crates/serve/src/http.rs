//! A deliberately small HTTP/1.1 layer over blocking TCP streams.
//!
//! Persistent connections with `Content-Length` framing: a
//! [`HttpConn`] reads any number of requests off one socket (keep-alive)
//! until the peer closes, asks for `Connection: close`, or the idle
//! timeout passes. Bounded header and body sizes, and only what the job
//! API needs — not a general web server, a wire format for the job
//! service.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ucsim_model::ToJson;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Read timeout once a request has started arriving (slow peers are cut
/// off rather than pinning a handler thread).
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Poll granularity while waiting for the next request on an idle
/// kept-alive connection (each wake checks the caller's stop condition).
const IDLE_POLL: Duration = Duration::from_millis(200);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (`/v1/sim`).
    pub path: String,
    /// Raw query string, if any (without the `?`).
    pub query: Option<String>,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Request correlation id: the client's `X-Request-Id` header, or a
    /// server-generated id. Assigned at the connection edge (empty until
    /// then) and echoed on every response.
    pub request_id: String,
}

impl Request {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Value of the first `key=value` pair named `key` in the query
    /// string (not percent-decoded).
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .as_deref()?
            .split('&')
            .find_map(|pair| pair.split_once('=').filter(|(k, _)| *k == key))
            .map(|(_, v)| v)
    }

    /// True when the client asked for the connection to be closed after
    /// this response (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, or an error suitable for a 400.
    ///
    /// # Errors
    ///
    /// Returns a message when the body is not valid UTF-8.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not valid UTF-8".to_owned())
    }
}

/// A complete response ready to write: status, extra headers, JSON body.
///
/// Handlers build one of these and return it; the connection layer owns
/// the wire framing (`Content-Length`, `Connection`), so every endpoint
/// is keep-alive-correct by construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the standard framing set.
    pub headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value for the body.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response with no extra headers.
    pub fn json(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body,
            content_type: "application/json",
        }
    }

    /// A JSON response whose body is `body`'s encoding.
    pub fn encode(status: u16, body: &impl ToJson) -> Response {
        Response::json(status, body.to_json_string().into_bytes())
    }

    /// A plain-text response (Prometheus exposition format).
    pub fn text(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body,
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// Adds an extra header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.headers.push((name, value));
        self
    }
}

/// What [`HttpConn::read_request`] produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A syntactically complete request.
    Request(Request),
    /// The peer closed (or went idle past the deadline) between requests;
    /// close quietly.
    Closed,
    /// The caller's stop condition fired while idle; close quietly.
    Stopped,
    /// A malformed or oversized request; answer 400 and close.
    Malformed(String),
}

/// One server-side connection: a buffered reader for request parsing plus
/// the raw stream for response writes. Lives for the whole keep-alive
/// exchange.
pub struct HttpConn {
    reader: BufReader<TcpStream>,
}

impl HttpConn {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> HttpConn {
        HttpConn {
            reader: BufReader::new(stream),
        }
    }

    /// Waits up to `idle` for the next request to start arriving, polling
    /// `stop` between short waits, then reads and parses it.
    ///
    /// # Errors
    ///
    /// Propagates unexpected socket errors; expected end-of-connection
    /// conditions come back as [`ReadOutcome`] variants instead.
    pub fn read_request(
        &mut self,
        idle: Duration,
        stop: &dyn Fn() -> bool,
    ) -> io::Result<ReadOutcome> {
        // Phase 1: idle-wait for the first byte without consuming it, so
        // a timeout here never tears a partially-read request.
        let deadline = Instant::now() + idle;
        loop {
            if stop() {
                return Ok(ReadOutcome::Stopped);
            }
            self.reader.get_ref().set_read_timeout(Some(IDLE_POLL))?;
            match self.reader.fill_buf() {
                Ok([]) => return Ok(ReadOutcome::Closed),
                Ok(_) => break,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if Instant::now() >= deadline {
                        return Ok(ReadOutcome::Closed);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                    return Ok(ReadOutcome::Closed)
                }
                Err(e) => return Err(e),
            }
        }
        // Phase 2: the request is arriving; parse it under a hard
        // per-request timeout. The parse span starts here (after the
        // first byte) so idle keep-alive waits are not counted.
        let parse_span = ucsim_obs::span(ucsim_obs::SpanKind::Parse);
        self.reader
            .get_ref()
            .set_read_timeout(Some(REQUEST_READ_TIMEOUT))?;
        match self.parse_request() {
            Ok(out) => {
                if matches!(out, ReadOutcome::Request(_)) {
                    parse_span.finish(0);
                }
                Ok(out)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(ReadOutcome::Malformed("request read timed out".to_owned()))
            }
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => Ok(ReadOutcome::Closed),
            Err(e) => Err(e),
        }
    }

    fn parse_request(&mut self) -> io::Result<ReadOutcome> {
        let r = &mut self.reader;
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Ok(ReadOutcome::Closed);
        }
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return Ok(ReadOutcome::Malformed("malformed request line".to_owned()));
        };
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
            None => (target.to_owned(), None),
        };
        let method = method.to_uppercase();

        let mut headers = Vec::new();
        let mut head_bytes = line.len();
        loop {
            let mut h = String::new();
            if r.read_line(&mut h)? == 0 {
                return Ok(ReadOutcome::Malformed(
                    "connection closed mid-headers".to_owned(),
                ));
            }
            head_bytes += h.len();
            if head_bytes > MAX_HEAD_BYTES {
                return Ok(ReadOutcome::Malformed("request head too large".to_owned()));
            }
            let h = h.trim_end();
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
            .unwrap_or(0);
        if len > MAX_BODY_BYTES {
            return Ok(ReadOutcome::Malformed("request body too large".to_owned()));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        Ok(ReadOutcome::Request(Request {
            method,
            path,
            query,
            headers,
            body,
            request_id: String::new(),
        }))
    }

    /// Writes a complete response and flushes. `close` controls the
    /// `Connection` header — the caller decides keep-alive vs close and
    /// must actually drop the connection when it said it would.
    ///
    /// # Errors
    ///
    /// Propagates stream I/O errors.
    pub fn respond(&mut self, resp: &Response, close: bool) -> io::Result<()> {
        let start = format!("HTTP/1.1 {} {}", resp.status, reason_phrase(resp.status));
        let connection = if close { "close" } else { "keep-alive" };
        let framing = [
            ("content-type", resp.content_type),
            ("connection", connection),
        ];
        let extra = resp.headers.iter().map(|(k, v)| (*k, v.as_str()));
        write_message(
            self.reader.get_mut(),
            &start,
            framing.into_iter().chain(extra),
            &resp.body,
        )
    }
}

/// Writes one HTTP/1.1 message — start line, `headers`, a
/// `content-length` for `body`, the blank line and `body` — with a
/// single `write_all`. Every request and response goes through here:
/// a head and body sent as two writes would let Nagle hold the body
/// until the peer's delayed ACK (~40 ms) arrives.
pub(crate) fn write_message<'a>(
    w: &mut impl Write,
    start_line: &str,
    headers: impl IntoIterator<Item = (&'a str, &'a str)>,
    body: &[u8],
) -> io::Result<()> {
    let mut msg = Vec::with_capacity(256 + body.len());
    msg.extend_from_slice(start_line.as_bytes());
    msg.extend_from_slice(b"\r\n");
    for (k, v) in headers {
        msg.extend_from_slice(k.as_bytes());
        msg.extend_from_slice(b": ");
        msg.extend_from_slice(v.as_bytes());
        msg.extend_from_slice(b"\r\n");
    }
    msg.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
    msg.extend_from_slice(body);
    w.write_all(&msg)?;
    w.flush()
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn never() -> bool {
        false
    }

    fn roundtrip(raw: &str) -> ReadOutcome {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_owned();
        let h = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(raw.as_bytes()).unwrap();
        });
        let (s, _) = listener.accept().unwrap();
        let mut conn = HttpConn::new(s);
        let out = conn.read_request(Duration::from_secs(2), &never).unwrap();
        h.join().unwrap();
        out
    }

    fn expect_request(out: ReadOutcome) -> Request {
        match out {
            ReadOutcome::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = expect_request(roundtrip(
            "POST /v1/sim?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody",
        ));
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sim");
        assert_eq!(req.query.as_deref(), Some("x=1"));
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.body_utf8().unwrap(), "body");
        assert!(!req.wants_close());
    }

    #[test]
    fn query_finds_the_first_named_pair() {
        let req = expect_request(roundtrip(
            "GET /v1/store?flag&since=12&max=&since=99 HTTP/1.1\r\n\r\n",
        ));
        assert_eq!(req.query("since"), Some("12"));
        assert_eq!(req.query("max"), Some(""));
        assert_eq!(req.query("flag"), None, "a bare key has no value");
        assert_eq!(req.query("state"), None);
        let bare = expect_request(roundtrip("GET /v1/jobs HTTP/1.1\r\n\r\n"));
        assert_eq!(bare.query("state"), None);
    }

    #[test]
    fn parses_get_without_body() {
        let req = expect_request(roundtrip(
            "GET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        ));
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/metrics");
        assert!(req.body.is_empty());
        assert!(req.wants_close());
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(matches!(
            roundtrip("NONSENSE\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn empty_connection_yields_closed() {
        assert!(matches!(roundtrip(""), ReadOutcome::Closed));
    }

    #[test]
    fn two_requests_arrive_over_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            c
        });
        let (s, _) = listener.accept().unwrap();
        let mut conn = HttpConn::new(s);
        let a = expect_request(conn.read_request(Duration::from_secs(2), &never).unwrap());
        assert_eq!(a.path, "/a");
        conn.respond(&Response::json(200, b"{}".to_vec()), false)
            .unwrap();
        let b = expect_request(conn.read_request(Duration::from_secs(2), &never).unwrap());
        assert_eq!(b.path, "/b");
        assert!(b.wants_close());
        let _ = h.join().unwrap();
    }

    #[test]
    fn stop_condition_ends_an_idle_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let c = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(800));
            drop(c);
        });
        let (s, _) = listener.accept().unwrap();
        let mut conn = HttpConn::new(s);
        let out = conn
            .read_request(Duration::from_secs(30), &|| true)
            .unwrap();
        assert!(matches!(out, ReadOutcome::Stopped));
        h.join().unwrap();
    }
}
