//! Minimal HTTP/1.1 framing over blocking `std::net` streams.
//!
//! The daemon speaks just enough HTTP for its wire API:
//! `Content-Length`-delimited bodies, percent-encoded query strings, and
//! HTTP/1.1 persistent connections (a client sending `Connection: close`
//! — as [`crate::Client`] does — gets one request per connection). No
//! chunked transfer, no pipelining, no TLS — the service
//! fronts an in-process engine on a trusted network, and every byte of
//! framing here is code we can test without a dependency.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use isum_common::rng::split_mix64;
use isum_common::{Json, Stage, StageClock};

/// Hard cap on request bodies: an ingest batch is SQL text, so anything
/// past this is a client bug, not a workload.
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Cap on a head: the request or status line plus its headers. Both
/// halves read head lines through [`read_head_line`], which never holds
/// more than this.
const MAX_HEAD: usize = 64 * 1024;

/// A connection's socket read (and write) timeout: what bounds an idle
/// keep-alive wait for the next request, and each read of a request.
pub(crate) const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How long one request may take to arrive, from its first byte to the
/// end of its body. The socket's read timeout (also 10 s) bounds each
/// read only, so without it a client that drips a byte at a time holds
/// its connection — and shutdown, which joins every connection — open
/// forever.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// How long a refused request's connection is drained before it closes.
const LINGER: Duration = Duration::from_secs(2);

/// Ends a connection whose refusal is written without resetting it:
/// closing on unread bytes makes the kernel reset the connection, and a
/// client still writing its request never reads the answer. Half-closes
/// the write side, then discards input until EOF, for at most [`LINGER`]
/// and [`MAX_BODY`] bytes (the largest body the daemon reads anyway).
pub(crate) fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let ends = Instant::now() + LINGER;
    let (mut left, mut chunk) = (MAX_BODY, [0u8; 16 * 1024]);
    while left > 0 {
        let wait = ends.saturating_duration_since(Instant::now());
        if wait.is_zero() || stream.set_read_timeout(Some(wait)).is_err() {
            return;
        }
        match (&*stream).read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

/// A parsed HTTP request: method, path, decoded query parameters, and body.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, without the query string.
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the connection may be reused after this exchange:
    /// HTTP/1.1 defaults to keep-alive unless the client sent
    /// `Connection: close`; HTTP/1.0 requires an explicit
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Reads one request from `stream`, with a per-request
    /// [`StageClock`], within [`REQUEST_DEADLINE`] of its first byte.
    ///
    /// The outer `Err` is a transport problem (peer hung up, timeout) —
    /// there is nobody to answer, so callers just drop the connection.
    /// The inner `Err` is a malformed request the caller should answer
    /// with the given status code and message.
    ///
    /// `Expect: 100-continue` is honored by writing the interim response
    /// before reading the body, so `curl -d @file` works out of the box.
    ///
    /// The clock is created *after* the request line arrives — a
    /// keep-alive connection's idle wait belongs to the client, not the
    /// pipeline — and comes back with `recv` (head + body off the
    /// socket) and `parse` (struct assembly) already stamped.
    pub fn read_timed(
        stream: &TcpStream,
    ) -> io::Result<Result<(Request, StageClock), (u16, String)>> {
        Self::read_within(stream, REQUEST_DEADLINE)
    }

    fn read_within(
        stream: &TcpStream,
        deadline: Duration,
    ) -> io::Result<Result<(Request, StageClock), (u16, String)>> {
        let mut reader =
            BufReader::new(Deadline { stream, deadline, ends: None, shortened: false });
        let too_large = || Ok(Err((431, "header section too large".to_string())));
        let (mut buf, mut left) = (Vec::new(), MAX_HEAD);
        let Some(line) = read_head_line(&mut reader, &mut buf, &mut left)? else {
            return too_large();
        };
        if line.is_empty() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let clock = StageClock::new();
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Ok(Err((400, format!("malformed request line `{}`", line.trim()))));
        };
        if !version.starts_with("HTTP/1.") {
            return Ok(Err((400, format!("unsupported protocol `{version}`"))));
        }
        let http10 = version == "HTTP/1.0";
        let method = method.to_ascii_uppercase();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (target.to_string(), Vec::new()),
        };

        let mut headers = Vec::new();
        let mut content_length: usize = 0;
        let mut expect_continue = false;
        let mut keep_alive = !http10;
        loop {
            let Some(line) = read_head_line(&mut reader, &mut buf, &mut left)? else {
                return too_large();
            };
            if line.is_empty() {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "headers truncated"));
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            let Some((name, value)) = trimmed.split_once(':') else {
                return Ok(Err((400, format!("malformed header `{trimmed}`"))));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            match name.as_str() {
                "content-length" => match value.parse::<usize>() {
                    Ok(n) => content_length = n,
                    Err(_) => return Ok(Err((400, format!("bad Content-Length `{value}`")))),
                },
                "expect" if value.eq_ignore_ascii_case("100-continue") => expect_continue = true,
                "connection" => {
                    if value.eq_ignore_ascii_case("close") {
                        keep_alive = false;
                    } else if value.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
                _ => {}
            }
            headers.push((name, value));
        }
        if content_length > MAX_BODY {
            return Ok(Err((413, format!("body of {content_length} bytes exceeds {MAX_BODY}"))));
        }
        if expect_continue && content_length > 0 {
            let mut w = stream;
            w.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        clock.stamp(Stage::Recv);
        let req = Request { method, path, query, headers, body, keep_alive };
        clock.stamp(Stage::Parse);
        Ok(Ok((req, clock)))
    }
}

/// Reads one head line into `buf`, charged against `left`, the bytes the
/// head may still take. At most `left + 1` bytes are read, so a peer that
/// never sends a newline is cut off at the cap instead of being buffered.
/// `None` when the line does not fit; otherwise the line with its line
/// ending, empty on clean EOF.
fn read_head_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    left: &mut usize,
) -> io::Result<Option<&'b str>> {
    buf.clear();
    let n = reader.take(*left as u64 + 1).read_until(b'\n', buf)?;
    if n > *left {
        return Ok(None);
    }
    *left -= n;
    let line =
        std::str::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(line))
}

/// The socket as one request reads it: from the first byte that arrives,
/// every read ends by `deadline` from then.
struct Deadline<'a> {
    stream: &'a TcpStream,
    deadline: Duration,
    /// When the request must have arrived; set by its first byte.
    ends: Option<Instant>,
    /// Whether a read ran under a timeout shorter than [`READ_TIMEOUT`].
    shortened: bool,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(ends) = self.ends {
            let left = ends.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "request deadline passed"));
            }
            self.stream.set_read_timeout(Some(left.min(READ_TIMEOUT)))?;
            self.shortened = true;
        }
        let n = self.stream.read(buf)?;
        if self.ends.is_none() && n > 0 {
            self.ends = Some(Instant::now() + self.deadline);
        }
        Ok(n)
    }
}

impl Drop for Deadline<'_> {
    /// Puts the read timeout back for the connection's next idle wait.
    fn drop(&mut self) {
        if self.shortened {
            let _ = self.stream.set_read_timeout(Some(READ_TIMEOUT));
        }
    }
}

/// Decodes an `application/x-www-form-urlencoded` query string.
fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Percent-decoding with `+` as space; invalid escapes pass through verbatim.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len()
                && bytes[i + 1].is_ascii_hexdigit()
                && bytes[i + 2].is_ascii_hexdigit() =>
            {
                let hi = (bytes[i + 1] as char).to_digit(16).unwrap_or(0) as u8;
                let lo = (bytes[i + 2] as char).to_digit(16).unwrap_or(0) as u8;
                out.push(hi << 4 | lo);
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the synthesized framing headers.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (pretty-printed, trailing newline for curl comfort).
    pub fn json(status: u16, body: &Json) -> Response {
        let mut text = body.to_pretty();
        text.push('\n');
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: text.into_bytes(),
        }
    }

    /// A response with an explicit content type and raw body (used for
    /// non-JSON expositions like Prometheus text and JSONL event tails).
    pub fn raw(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response { status, headers: Vec::new(), content_type, body }
    }

    /// A JSON error envelope: `{"error": msg, "status": code}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            &Json::Obj(vec![
                ("error".into(), Json::from(message)),
                ("status".into(), Json::from(u64::from(status))),
            ]),
        )
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serializes the response onto `w` with `Connection: close` framing.
    pub fn write(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_framed(w, false)
    }

    /// Serializes the response onto `w`, advertising `Connection:
    /// keep-alive` or `Connection: close` per `keep_alive`. Bodies are
    /// always `Content-Length`-delimited, so the frame is identical
    /// either way apart from the `Connection` header.
    pub fn write_framed(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, status_text(self.status))?;
        write!(w, "Content-Type: {}\r\n", self.content_type)?;
        write!(w, "Content-Length: {}\r\n", self.body.len())?;
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        let conn: &[u8] = if keep_alive {
            b"Connection: keep-alive\r\n\r\n"
        } else {
            b"Connection: close\r\n\r\n"
        };
        w.write_all(conn)?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// Process-global call counter feeding [`retry_after_value`].
static RETRY_JITTER_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The `Retry-After` value for a retryable 429/503: `base` plus a
/// bounded jitter of 0 or 1 seconds, so a herd of concurrent connections
/// told to back off does not return in lockstep. The jitter is a pure
/// function (a SplitMix64 bit-mix) of a process-global call counter — no
/// clocks, no OS randomness — so a fixed request sequence produces a
/// fixed jitter sequence and seeded fault tests stay reproducible.
/// The protocol-speed retry site (`Retry-After: 0` on ahead-of-stream
/// responses) does not jitter: its retries are the convergence
/// mechanism, not a thundering herd.
pub(crate) fn retry_after_value(base: u64) -> String {
    let mut n = RETRY_JITTER_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    (base + (split_mix64(&mut n) & 1)).to_string()
}

/// Canonical reason phrases for the status codes the daemon emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A raw response as read off the wire: status code, headers (lowercased
/// names), and body bytes.
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Reads one HTTP response from `stream`: status code, headers
/// (lowercased names), and the `Content-Length`-delimited body. The
/// client half of the framing above: [`crate::Conn`] reads every reply here.
pub fn read_response(stream: &TcpStream) -> io::Result<RawResponse> {
    let mut reader = BufReader::new(stream);
    let (mut buf, mut left) = (Vec::new(), MAX_HEAD);
    // One budget covers the interim heads too.
    let mut next_line = |truncated: &str| match read_head_line(&mut reader, &mut buf, &mut left)? {
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response head exceeds {MAX_HEAD} bytes"),
        )),
        Some("") => Err(io::Error::new(io::ErrorKind::UnexpectedEof, truncated.to_string())),
        Some(line) => Ok(line.to_string()),
    };
    let status_line = loop {
        let line = next_line("no status line")?;
        // Skip interim 1xx responses (the server sends `100 Continue`).
        if !line.starts_with("HTTP/1.1 1") {
            break line;
        }
        while !next_line("interim truncated")?.trim_end().is_empty() {}
    };
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status: {status_line}"))
        })?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = next_line("headers truncated")?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad Content-Length `{value}`"),
                    )
                })?;
            }
            headers.push((name, value));
        }
    }
    // Reading a prefix would leave the rest on the connection, where a
    // keep-alive client would parse it as the next response.
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response body of {content_length} bytes exceeds {MAX_BODY}"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_strings_decode() {
        let q = parse_query("k=10&sql=SELECT%20a+b&flag");
        assert_eq!(q[0], ("k".to_string(), "10".to_string()));
        assert_eq!(q[1], ("sql".to_string(), "SELECT a b".to_string()));
        assert_eq!(q[2], ("flag".to_string(), String::new()));
    }

    #[test]
    fn percent_decode_handles_truncated_escapes() {
        assert_eq!(percent_decode("a%2"), "a%2");
        assert_eq!(percent_decode("a%"), "a%");
        assert_eq!(percent_decode("%41%zz"), "A%zz");
    }

    #[test]
    fn response_frames_are_well_formed() {
        let mut buf = Vec::new();
        Response::raw(200, "text/plain", b"hi\n".to_vec())
            .with_header("Retry-After", "1")
            .write(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhi\n"), "{text}");
    }

    #[test]
    fn keep_alive_frames_advertise_reuse() {
        let mut buf = Vec::new();
        Response::raw(200, "text/plain", b"hi\n".to_vec()).write_framed(&mut buf, true).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("Connection: close"), "{text}");

        let mut buf = Vec::new();
        Response::raw(200, "text/plain", b"hi\n".to_vec()).write_framed(&mut buf, false).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    #[test]
    fn retry_after_jitter_stays_in_bounds_and_varies() {
        let draws: Vec<u64> = (0..128).map(|_| retry_after_value(1).parse().unwrap()).collect();
        assert!(draws.iter().all(|&v| v == 1 || v == 2), "jitter is bounded to base..=base+1");
        assert!(draws.contains(&1) && draws.contains(&2), "jitter varies");
    }

    /// Serves `raw` as the whole reply to the first connection, then
    /// returns what `read_response` made of it.
    fn read_scripted(raw: impl Into<Vec<u8>>) -> io::Result<RawResponse> {
        let raw = raw.into();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // The peer may give up before reading everything.
            let _ = conn.write_all(&raw);
        });
        let stream = TcpStream::connect(addr).unwrap();
        let got = read_response(&stream);
        drop(stream);
        server.join().unwrap();
        got
    }

    #[test]
    fn a_response_body_over_the_limit_is_refused_not_truncated() {
        let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        let raw = [head.into_bytes(), vec![b'x'; MAX_BODY + 1]].concat();
        let err = read_scripted(raw).expect_err("an oversized body is an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        let ok = read_scripted(&b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"[..]).unwrap();
        assert_eq!((ok.0, ok.2), (200, b"hi".to_vec()));
    }

    #[test]
    fn an_unparseable_content_length_is_refused_not_read_as_zero() {
        for bad in ["ten", "-1", "", "1 2"] {
            let raw = format!("HTTP/1.1 200 OK\r\nContent-Length: {bad}\r\n\r\nbody");
            let err = read_scripted(raw).expect_err(bad);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "`{bad}`: {err}");
            assert!(err.to_string().contains("Content-Length"), "`{bad}`: {err}");
        }
    }

    #[test]
    fn a_request_dripped_a_byte_at_a_time_ends_at_its_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dripper = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            // Each byte arrives well inside the read timeout; the head
            // never ends. Stops once the server hangs up.
            let head = b"GET /status HTTP/1.1\r\nX-Pad: ".iter().chain([b'a'; 400].iter());
            for &byte in head {
                if conn.write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let start = Instant::now();
        let err = Request::read_within(&stream, Duration::from_millis(300))
            .expect_err("a request that has not arrived by its deadline is dropped");
        let waited = start.elapsed();
        assert!(matches!(err.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock), "{err}");
        assert!(waited < Duration::from_secs(2), "ended after {waited:?}");
        let idle = stream.read_timeout().unwrap();
        assert_eq!(idle, Some(READ_TIMEOUT), "the idle timeout is put back");
        drop(stream);
        dripper.join().unwrap();
    }

    /// Writes `raw` to a fresh daemon on one socket, from a thread of its
    /// own (a daemon may stop reading before the end), and once that is
    /// done reads the reply on this one, giving up after 5 s; returns the
    /// reply, how long it took, and whether every byte of `raw` could be
    /// sent.
    fn send_to_daemon(raw: &[u8]) -> (io::Result<RawResponse>, Duration, bool) {
        let catalog = isum_catalog::CatalogBuilder::new()
            .table("t", 1_000)
            .col_key("id")
            .finish()
            .expect("fresh table")
            .build();
        let server =
            crate::Server::bind("127.0.0.1:0", crate::ServerConfig::new(catalog)).expect("binds");
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = Instant::now();
        let (mut writer, raw) = (stream.try_clone().unwrap(), raw.to_vec());
        // The daemon may hang up before taking every byte.
        let writing = std::thread::spawn(move || writer.write_all(&raw).is_ok());
        let wrote = writing.join().unwrap();
        let got = read_response(&stream);
        let took = start.elapsed();
        drop(stream);
        server.shutdown();
        server.join();
        (got, took, wrote)
    }

    #[test]
    fn a_request_line_over_the_head_cap_is_answered_431_at_once() {
        // No newline ever comes: the line must be cut off at the cap, not
        // buffered until the request deadline.
        let (got, took, _) = send_to_daemon(&vec![b'G'; MAX_HEAD + 1]);
        let (status, _, body) = got.expect("answered");
        assert_eq!(status, 431, "{}", String::from_utf8_lossy(&body));
        assert!(took < Duration::from_secs(2), "answered after {took:?}");
    }

    #[test]
    fn a_request_line_far_over_the_head_cap_is_answered_431_not_reset() {
        // The client is still sending long after the refusal is written:
        // closing on its unread bytes would reset the connection, and a
        // client that writes its whole request before reading would see
        // only the reset. 4 MB outgrows the loopback socket buffers, which
        // would otherwise absorb the rest of the request unread.
        let (got, took, wrote) = send_to_daemon(&vec![b'G'; 4_000_000]);
        assert!(wrote, "the connection was reset under the client's request");
        let (status, _, body) = got.expect("answered");
        assert_eq!(status, 431, "{}", String::from_utf8_lossy(&body));
        assert!(took < Duration::from_secs(2), "answered after {took:?}");
    }

    #[test]
    fn a_body_far_over_the_limit_is_answered_413_not_reset() {
        let head = "POST /ingest HTTP/1.1\r\nContent-Length: 9000000\r\n\r\n";
        let raw = [head.as_bytes(), &vec![b'x'; 4_000_000]].concat();
        let (got, took, wrote) = send_to_daemon(&raw);
        assert!(wrote, "the connection was reset under the client's body");
        let (status, _, body) = got.expect("answered");
        assert_eq!(status, 413, "{}", String::from_utf8_lossy(&body));
        assert!(took < Duration::from_secs(2), "answered after {took:?}");
    }

    #[test]
    fn headers_adding_up_past_the_head_cap_are_answered_431() {
        // Whole lines, the last of which ends one byte past the cap.
        let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
        while raw.len() + 1000 < MAX_HEAD {
            raw.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(990)).as_bytes());
        }
        let last = MAX_HEAD + 1 - raw.len() - "X-Pad: \r\n".len();
        raw.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(last)).as_bytes());
        assert_eq!(raw.len(), MAX_HEAD + 1);
        let (status, _, body) = send_to_daemon(&raw).0.expect("answered");
        assert_eq!(status, 431, "{}", String::from_utf8_lossy(&body));
    }

    #[test]
    fn a_head_just_under_the_cap_is_served() {
        let mut raw = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n".to_vec();
        let pad = MAX_HEAD - raw.len() - "X-Pad: \r\n\r\n".len();
        raw.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(pad)).as_bytes());
        assert_eq!(raw.len(), MAX_HEAD);
        let (status, _, body) = send_to_daemon(&raw).0.expect("answered");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    }

    #[test]
    fn a_status_line_over_the_head_cap_is_refused_at_once() {
        let start = Instant::now();
        let err = read_scripted(vec![b'H'; MAX_HEAD + 1]).expect_err("over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("response head exceeds"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2), "refused after {:?}", start.elapsed());
    }

    #[test]
    fn error_envelope_is_json() {
        let r = Response::error(429, "queue full");
        let parsed = Json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let obj = parsed.as_object().unwrap();
        assert!(obj.iter().any(|(k, v)| k == "error" && v.as_str() == Some("queue full")));
    }
}
