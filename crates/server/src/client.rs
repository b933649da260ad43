//! A std-only HTTP client for the daemon's wire API, used by the test
//! suite and `isum client`.
//!
//! The server keeps connections alive, but this client opens one TCP
//! connection per request and asks for `Connection: close`. That keeps it
//! stateless: it can hammer the server from many threads without
//! connection management, which is exactly what the concurrency tests
//! need.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::Duration;

use isum_common::Json;

use crate::http::read_response;

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
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        {
            let mut w = &stream;
            write!(
                w,
                "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
                self.addr,
                body.len()
            )?;
            if let Some(tenant) = &self.tenant {
                write!(w, "X-Isum-Tenant: {tenant}\r\n")?;
            }
            for (name, value) in headers {
                write!(w, "{name}: {value}\r\n")?;
            }
            w.write_all(b"Connection: close\r\n\r\n")?;
            w.write_all(body.as_bytes())?;
            w.flush()?;
        }
        let (status, headers, raw) = read_response(&stream)?;
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
    /// (capped at 2 s) for up to `max_attempts` deliveries.
    pub fn ingest_with_retry(
        &self,
        script: &str,
        seq: Option<u64>,
        max_attempts: u32,
    ) -> io::Result<ApiResponse> {
        let mut last: Option<ApiResponse> = None;
        for _ in 0..max_attempts.max(1) {
            match self.ingest(script, seq) {
                Ok(resp) if resp.status == 429 || resp.status == 503 => {
                    let wait = resp.retry_after().unwrap_or(1).min(2);
                    std::thread::sleep(Duration::from_millis(50 + wait * 200));
                    last = Some(resp);
                }
                Ok(resp) => return Ok(resp),
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
        last.ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "ingest retries exhausted"))
    }
}
