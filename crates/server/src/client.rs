//! The one HTTP client for the daemon's wire API.
//!
//! [`Conn`] is one keep-alive connection, for `isum load`
//! (`crates/loadgen`): it opens its socket lazily, sends strictly serial
//! requests (the server does not pipeline), honors `Connection: close`,
//! and resends once on a new socket when a *reused* one fails — the server
//! may have idled it out, and every request loadgen sends is safe to
//! repeat (reads have no side effects; sequenced ingest is deduplicated).
//! [`Client`], for the test suite and `isum client`, opens a fresh [`Conn`]
//! per request with `Connection: close`, so it holds no socket and many
//! threads can share it. Both write a request as one buffer
//! (`write_request`) and read the reply with [`read_response`].

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

use isum_common::Json;

use crate::http::{read_response, RawResponse};

/// A client for one server address, optionally pinned to a tenant.
pub struct Client {
    addr: String,
    timeout: Duration,
    tenant: Option<String>,
}

/// One response: status code, headers (lowercased names), parsed body.
#[derive(Debug)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Body parsed as JSON (`Json::Null` when empty or not JSON).
    pub json: Json,
    /// Raw body text.
    pub body: String,
}

impl ApiResponse {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// `Retry-After` in seconds, when the server sent one.
    pub fn retry_after(&self) -> Option<u64> {
        self.header("retry-after").and_then(|v| v.parse().ok())
    }

    /// Looks up a top-level field of the JSON body.
    pub fn field(&self, name: &str) -> Option<&Json> {
        self.json.as_object()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:7071`) with a 30 s timeout.
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into(), timeout: Duration::from_secs(30), tenant: None }
    }

    /// Overrides the per-request read/write timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Pins every request to `tenant` via the `X-Isum-Tenant` header.
    /// The name must pass [`crate::validate_tenant`] — the same rule the
    /// server enforces — so a bad name fails here, before any bytes hit
    /// the wire.
    ///
    /// # Errors
    /// The validation failure, phrased like the server's typed 400.
    pub fn with_tenant(mut self, tenant: &str) -> Result<Client, String> {
        crate::validate_tenant(tenant).map_err(|why| format!("tenant name {why}"))?;
        self.tenant = Some(tenant.to_string());
        Ok(self)
    }

    /// Sends one request and reads the response.
    pub fn request(&self, method: &str, target: &str, body: &str) -> io::Result<ApiResponse> {
        self.request_with_headers(method, target, body, &[])
    }

    /// Sends one request with extra headers (e.g. a client-chosen
    /// `X-Isum-Request-Id`) and reads the response.
    pub fn request_with_headers(
        &self,
        method: &str,
        target: &str,
        body: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<ApiResponse> {
        let tenant = self.tenant.as_deref().map(|t| ("X-Isum-Tenant", t));
        let mut all: Vec<(&str, &str)> = tenant.into_iter().collect();
        all.extend_from_slice(headers);
        all.push(("Connection", "close"));
        let mut conn = Conn::new(self.addr.as_str(), self.timeout);
        let (status, headers, raw) = conn.exchange(method, target, &all, body)?;
        let body = String::from_utf8_lossy(&raw).into_owned();
        let json = Json::parse(&body).unwrap_or(Json::Null);
        Ok(ApiResponse { status, headers, json, body })
    }

    /// `GET target`.
    pub fn get(&self, target: &str) -> io::Result<ApiResponse> {
        self.request("GET", target, "")
    }

    /// `POST target` with a body.
    pub fn post(&self, target: &str, body: &str) -> io::Result<ApiResponse> {
        self.request("POST", target, body)
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> io::Result<ApiResponse> {
        self.get("/healthz")
    }

    /// `GET /summary?k=N`.
    pub fn summary(&self, k: usize) -> io::Result<ApiResponse> {
        self.get(&format!("/summary?k={k}"))
    }

    /// `GET /summary/explain?k=N` (per-member attribution + coverage).
    pub fn explain(&self, k: usize) -> io::Result<ApiResponse> {
        self.get(&format!("/summary/explain?k={k}"))
    }

    /// `GET /status` (one-document operational rollup); `k` overrides the
    /// summary size the coverage gauge is computed at.
    pub fn status(&self, k: Option<usize>) -> io::Result<ApiResponse> {
        match k {
            Some(k) => self.get(&format!("/status?k={k}")),
            None => self.get("/status"),
        }
    }

    /// `GET /metrics` (Prometheus text exposition in `body`).
    pub fn metrics(&self) -> io::Result<ApiResponse> {
        self.get("/metrics")
    }

    /// `GET /events?n=N` (JSONL tail of recent events in `body`).
    pub fn events(&self, n: usize) -> io::Result<ApiResponse> {
        self.get(&format!("/events?n={n}"))
    }

    /// `POST /shutdown`.
    pub fn shutdown(&self) -> io::Result<ApiResponse> {
        self.post("/shutdown", "")
    }

    /// `POST /ingest` of one script, optionally stamped with a sequence
    /// number (see the server docs for the ordering contract).
    pub fn ingest(&self, script: &str, seq: Option<u64>) -> io::Result<ApiResponse> {
        let target = match seq {
            Some(s) => format!("/ingest?seq={s}"),
            None => "/ingest".to_string(),
        };
        self.post(&target, script)
    }

    /// [`Client::ingest`] with the retry loop a well-behaved producer
    /// runs: 429 (backpressure) and 503 (ahead of the stream, a failed log
    /// append, drain race, or timeout) are retried with the same `seq` — the server's duplicate
    /// detection makes the retry idempotent — honoring `Retry-After`
    /// (capped at 2 s) for up to `max_attempts` deliveries. Out of attempts,
    /// it returns the last response, else the last transport error.
    pub fn ingest_with_retry(
        &self,
        script: &str,
        seq: Option<u64>,
        max_attempts: u32,
    ) -> io::Result<ApiResponse> {
        let mut last: Option<ApiResponse> = None;
        let mut last_err: Option<io::Error> = None;
        for _ in 0..max_attempts.max(1) {
            match self.ingest(script, seq) {
                Ok(resp) if resp.status == 429 || resp.status == 503 => {
                    let wait = resp.retry_after().unwrap_or(1).min(2);
                    std::thread::sleep(Duration::from_millis(50 + wait * 200));
                    last = Some(resp);
                }
                Ok(resp) => return Ok(resp),
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return Err(e),
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        last.ok_or_else(|| last_err.expect("at least one attempt ran"))
    }
}

/// One keep-alive connection to a server address (see the module docs).
pub struct Conn {
    addr: String,
    timeout: Duration,
    stream: Option<TcpStream>,
    reconnects: u64,
}

impl Conn {
    /// A connection handle for `addr`; the socket opens lazily on the
    /// first request.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Conn {
        Conn { addr: addr.into(), timeout, stream: None, reconnects: 0 }
    }

    /// Times a request was resent on a new socket because the reused one
    /// failed — a healthy keep-alive run stays near zero.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Sends one request, addressed to `tenant` when given, and reads the
    /// response, reusing the socket. No `Connection` header is sent:
    /// HTTP/1.1 defaults to keep-alive.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        tenant: Option<&str>,
        body: &str,
    ) -> io::Result<RawResponse> {
        let tenant = tenant.map(|t| ("X-Isum-Tenant", t));
        self.exchange(method, target, tenant.as_slice(), body)
    }

    /// One request with `headers`, resent once on a new socket when the
    /// reused one fails.
    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<RawResponse> {
        let reused = self.stream.is_some();
        match self.send_once(method, target, headers, body) {
            Err(e) if reused => {
                self.reconnects += 1;
                self.send_once(method, target, headers, body).map_err(|e2| {
                    io::Error::new(e2.kind(), format!("{e2} (after reconnect; first: {e})"))
                })
            }
            result => result,
        }
    }

    /// Writes one request and reads its response. The socket is kept only
    /// when the exchange succeeded and the server did not ask to close.
    fn send_once(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<RawResponse> {
        let stream = match self.stream.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(&self.addr)?;
                stream.set_read_timeout(Some(self.timeout))?;
                stream.set_write_timeout(Some(self.timeout))?;
                stream.set_nodelay(true)?;
                stream
            }
        };
        write_request(&stream, &self.addr, method, target, headers, body)?;
        let resp = read_response(&stream)?;
        let close =
            resp.1.iter().any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"));
        if !close {
            self.stream = Some(stream);
        }
        Ok(resp)
    }
}

/// Formats one request — request line, `Host`, `Content-Length`,
/// `headers` in order, blank line, body — and writes it in one `write_all`.
fn write_request(
    mut stream: &TcpStream,
    host: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let headers: String =
        headers.iter().map(|(name, value)| format!("{name}: {value}\r\n")).collect();
    let len = body.len();
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {len}\r\n{headers}\r\n{body}"
    );
    stream.write_all(request.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::thread::JoinHandle;

    const OK: &str = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";

    /// A scripted server: accepts one socket per entry of `script`,
    /// answers its i-th request with the entry's i-th response, then
    /// closes that socket and accepts the next. Returns every request it
    /// read, byte for byte, per socket.
    fn scripted_server(script: Vec<Vec<&'static str>>) -> (String, JoinHandle<Vec<Vec<String>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for responses in script {
                let (mut sock, _) = listener.accept().expect("accept");
                let mut requests = Vec::new();
                for resp in responses {
                    let Some(req) = read_request(&mut sock) else { break };
                    requests.push(req);
                    sock.write_all(resp.as_bytes()).expect("write");
                }
                seen.push(requests);
            }
            seen
        });
        (addr, handle)
    }

    /// One whole request (head and `Content-Length` body), or `None` when
    /// the peer closed first.
    fn read_request(sock: &mut TcpStream) -> Option<String> {
        let mut req = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            if let Some(end) = req.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&req[..end]).to_ascii_lowercase();
                let len = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .map_or(0, |v| v.parse().expect("length"));
                if req.len() >= end + 4 + len {
                    return Some(String::from_utf8(req).expect("utf-8 request"));
                }
            }
            let n = sock.read(&mut buf).ok()?;
            if n == 0 {
                return None;
            }
            req.extend_from_slice(&buf[..n]);
        }
    }

    #[test]
    fn reuses_one_socket_across_requests() {
        let (addr, handle) = scripted_server(vec![vec![OK, OK, OK]]);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        for _ in 0..3 {
            let (status, _, body) = conn.request("GET", "/x", None, "").expect("request");
            assert_eq!(status, 200);
            assert_eq!(body, b"ok");
        }
        assert_eq!(conn.reconnects(), 0, "three requests, one socket");
        assert_eq!(handle.join().expect("server")[0].len(), 3);
    }

    #[test]
    fn server_timing_parses_the_stage_timeline() {
        let ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\
                  Server-Timing: recv;dur=0.120, apply;dur=1.500, total;dur=1.620\r\n\r\nok";
        let (addr, handle) = scripted_server(vec![vec![ok]]);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        let (status, headers, _) = conn.request("GET", "/x", None, "").expect("request");
        assert_eq!(status, 200);
        let timing = headers.iter().find(|(k, _)| k == "server-timing").expect("header");
        let stages = isum_common::stage::parse_server_timing(&timing.1);
        assert_eq!(
            stages,
            vec![("recv".into(), 0.12), ("apply".into(), 1.5), ("total".into(), 1.62)]
        );
        assert_eq!(handle.join().expect("server")[0].len(), 1);
    }

    #[test]
    fn honors_connection_close_from_the_server() {
        let bye = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nbye";
        let (addr, handle) = scripted_server(vec![vec![bye]]);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        let (status, _, _) = conn.request("GET", "/x", None, "").expect("request");
        assert_eq!(status, 200);
        assert!(conn.stream.is_none(), "socket dropped after Connection: close");
        assert_eq!(handle.join().expect("server")[0].len(), 1);
    }

    #[test]
    fn a_reused_socket_the_server_closed_is_resent_once_on_a_new_one() {
        // The server closes the first socket after one answer, without
        // `Connection: close`: the second request fails on the reused
        // socket and goes out again on a new one.
        let (addr, handle) = scripted_server(vec![vec![OK], vec![OK]]);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        for _ in 0..2 {
            let (status, _, body) = conn.request("GET", "/x", None, "").expect("request");
            assert_eq!((status, body.as_slice()), (200, &b"ok"[..]));
        }
        assert_eq!(conn.reconnects(), 1);
        let seen = handle.join().expect("server");
        assert_eq!((seen[0].len(), seen[1].len()), (1, 1));
    }

    #[test]
    fn a_fresh_socket_failure_surfaces_without_a_resend() {
        // The first socket closes unanswered. A resend would reach the
        // second socket and succeed, so the error proves there was none.
        let (addr, handle) = scripted_server(vec![vec![], vec![OK]]);
        let mut conn = Conn::new(addr, Duration::from_secs(5));
        assert!(conn.request("GET", "/x", None, "").is_err(), "a fresh socket's failure is real");
        assert_eq!(conn.reconnects(), 0);
        // The failed socket is not kept: the next request opens a new one.
        let (status, _, _) = conn.request("GET", "/y", None, "").expect("request");
        assert_eq!(status, 200);
        assert_eq!(conn.reconnects(), 0);
        let seen = handle.join().expect("server");
        assert!(seen[0].is_empty());
        assert_eq!(seen[1].len(), 1);
        assert!(seen[1][0].starts_with("GET /y "), "{:?}", seen[1]);
    }

    #[test]
    fn both_paths_write_the_pinned_request_bytes() {
        let (addr, handle) = scripted_server(vec![vec![OK], vec![OK]]);
        let mut conn = Conn::new(addr.as_str(), Duration::from_secs(5));
        conn.request("POST", "/ingest?seq=3", Some("acme"), "SELECT 1").expect("keep-alive");
        let client = Client::new(addr.as_str()).with_tenant("acme").expect("valid tenant");
        let resp = client
            .request_with_headers("POST", "/ingest", "SELECT 2;", &[("X-Isum-Request-Id", "r-1")])
            .expect("one-shot");
        assert_eq!(resp.status, 200);
        let seen = handle.join().expect("server");
        assert_eq!(
            seen[0],
            [format!(
                "POST /ingest?seq=3 HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 8\r\n\
                 X-Isum-Tenant: acme\r\n\r\nSELECT 1"
            )]
        );
        assert_eq!(
            seen[1],
            [format!(
                "POST /ingest HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 9\r\n\
                 X-Isum-Tenant: acme\r\nX-Isum-Request-Id: r-1\r\nConnection: close\r\n\r\n\
                 SELECT 2;"
            )]
        );
    }

    #[test]
    fn ingest_retries_report_the_transport_error_when_no_response_arrived() {
        // Every connection is accepted and closed at once.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let closer = std::thread::spawn(move || {
            for _ in 0..3 {
                drop(listener.accept().expect("accept"));
            }
        });
        let err = Client::new(addr)
            .with_timeout(Duration::from_secs(5))
            .ingest_with_retry("SELECT 1;", Some(0), 3)
            .expect_err("no attempt got a response");
        closer.join().expect("three attempts, three connections");
        assert_ne!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(!err.to_string().contains("retries exhausted"), "the real cause: {err}");
    }
}
