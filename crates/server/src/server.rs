//! The daemon: TCP accept loop, the HTTP routes, and graceful shutdown.
//!
//! # Architecture
//!
//! ```text
//!           accept loop (blocking; a shutdown wakes it with a connection)
//!                │ one dedicated thread per connection
//!                ▼
//!   connection handler ──reads──► GET  /summary │ /metrics │ /status
//!                │                     /events  │ /healthz
//!                │              (resolve tenant's shard, answer inline;
//!                │               no tenant + many shards ⇒ merged view)
//!                │ POST /ingest (tenant from X-Isum-Tenant)
//!                ▼
//!   shard router (crate::shards): one request pipeline — bounded queue
//!   ── full ⇒ 429 + Retry-After ── strict-seq admission, durable-apply
//!   (WAL append + fsync, engine apply, drift), ack, all of it on the
//!   tenant's shard thread
//! ```
//!
//! # Determinism under concurrency
//!
//! Clients that stamp batches with a contiguous `seq` may deliver them
//! from any number of connections in any order and still get the
//! `/summary` of a serial ingest, bit for bit: admission is strict per
//! stream, and lives with the rest of the pipeline in `crate::shards`.
//!
//! # Shutdown
//!
//! Every shutdown is one wake of the blocking accept: set a flag, then
//! connect once to the listener (loopback for `0.0.0.0` or `[::]`); the
//! loop sees the flag and drops that connection. `POST /shutdown` and
//! [`Server::shutdown`] (so `Drop`) wake it; SIGTERM and SIGINT only store
//! a flag, which [`Server::join`] turns into the wake. In-flight
//! connection handlers finish, every ingest queue is closed and drained to
//! the last acknowledged batch (each already durable in its shard's log),
//! and — when telemetry is enabled — a final snapshot is printed to stderr.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isum_advisor::TuningConstraints;
use isum_common::trace::{self, parse_level, Level};
use isum_common::{count, hex_bits, telemetry, Json, Stage, StageClock};

use crate::config::ServerConfig;
use crate::http::{linger_close, Request, Response, READ_TIMEOUT};
use crate::shards::{lock, validate_tenant, Shard, ShardCells, ShardRouter, DEFAULT_TENANT};

/// State shared between the accept loop and connection handlers.
struct Shared {
    router: ShardRouter,
    config: Arc<ServerConfig>,
    shutdown: AtomicBool,
    /// The bound address, which a shutdown connects to.
    addr: SocketAddr,
    /// Bind time, for the `isum_process_uptime_seconds` gauge.
    started: Instant,
}

impl Shared {
    /// Starts the drain: sets the flag and, if it was not set, connects to
    /// the listener so the blocked accept returns and sees it.
    fn shut_down(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let ip = match self.addr.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
                ip => ip,
            };
            let _ = TcpStream::connect((ip, self.addr.port()));
        }
    }
}

/// A running daemon. Binding spawns the serve thread; [`Server::join`]
/// blocks until shutdown (signal, `/shutdown`, or [`Server::shutdown`]).
pub struct Server {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `listen` (e.g. `127.0.0.1:7071`, port 0 for ephemeral),
    /// recovers every discoverable shard, and starts serving on a
    /// background thread. A `config` with an out-of-range field is
    /// refused (`InvalidInput`) before anything is bound.
    pub fn bind(listen: &str, config: ServerConfig) -> io::Result<Server> {
        config.validate().map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?;
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        // `GET /events` serves the ring tail; capture at debug so the
        // endpoint works without any ISUM_LOG configuration.
        trace::enable_ring(Level::Debug);
        isum_common::info!("server", format!("listening on {addr}"));

        let config = Arc::new(config);
        let shared = Arc::new(Shared {
            router: ShardRouter::start(Arc::clone(&config))?,
            config,
            shutdown: AtomicBool::new(false),
            addr,
            started: Instant::now(),
        });

        let serve_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("isum-serve".into())
            .spawn(move || serve_loop(listener, serve_shared))?;
        Ok(Server { shared, thread: Some(thread) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests shutdown and wakes the accept loop. Pair with [`Server::join`].
    pub fn shutdown(&self) {
        self.shared.shut_down();
    }

    /// Blocks until the serve loop has drained and exited. Until a
    /// shutdown begins it checks every 5 ms for a SIGTERM/SIGINT (after
    /// [`install_signal_handlers`]) and makes the wake the handler cannot.
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            while !self.shared.shutdown.load(Ordering::SeqCst) && !t.is_finished() {
                if signal_pending() {
                    self.shutdown();
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.shutdown();
            let _ = t.join();
        }
    }
}

/// The serve thread: accept loop, then drain.
fn serve_loop(listener: TcpListener, shared: Arc<Shared>) {
    // Each connection gets a dedicated thread: a keep-alive socket holds
    // its handler for as long as the client likes (and an ingest handler
    // blocks on its sequencer), so sharing a fixed-size pool would let n
    // idle connections starve connection n + 1. Handler panics are
    // caught inside `handle_connection` (panic quarantine).
    let mut conn_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake (or a client racing it): dropped unhandled.
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                count!("server.connections");
                // Responses are written headers-then-body on a socket
                // that stays open (keep-alive): without TCP_NODELAY,
                // Nagle holds the tail segment for the peer's delayed
                // ACK — a flat ~40 ms stall on every persistent-
                // connection request.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(&shared);
                conn_threads.retain(|t| !t.is_finished());
                if let Ok(t) = std::thread::Builder::new()
                    .name("isum-serve-conn".into())
                    .spawn(move || handle_connection(stream, &shared))
                {
                    conn_threads.push(t);
                }
            }
            Err(_) => {
                // Back off: a persistent failure (EMFILE) would spin.
                count!("server.accept_errors");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    for t in conn_threads {
        let _ = t.join();
    }
    // All connection handlers have finished. Close every queue: each
    // shard drains whatever was accepted and exits.
    shared.router.drain();
    isum_common::info!("server", "drained and shut down");
    if telemetry::enabled() {
        let snap = telemetry::snapshot();
        if !snap.is_empty() {
            // The table is the product output --stats / ISUM_TELEMETRY
            // asked for, not a diagnostic; it goes to stderr directly.
            let stderr = io::stderr();
            let mut w = stderr.lock();
            let _ = std::io::Write::write_all(&mut w, snap.render_table().as_bytes());
        }
    }
}

/// The request-ID the connection runs under: a client-supplied
/// `X-Isum-Request-Id` when it is well-formed (non-empty, at most 64
/// visible-ASCII bytes — anything else could corrupt response framing),
/// else a server-generated one. Either way the ID is echoed on the
/// response and stamped on every event the request produces.
fn request_id_for(req: &Request) -> String {
    match req.header("x-isum-request-id") {
        Some(id)
            if !id.is_empty()
                && id.len() <= 64
                && id.bytes().all(|b| (0x21..=0x7e).contains(&b)) =>
        {
            id.to_string()
        }
        _ => trace::next_request_id(),
    }
}

/// Handles one connection end to end — a loop, because connections are
/// HTTP/1.1 persistent: requests are served until the client closes,
/// sends `Connection: close`, the idle read times out, or shutdown
/// begins (the final response advertises `Connection: close` so drain
/// cannot be held open by an aggressive keep-alive client). Panics
/// inside routing are caught here and answered with a 500, so one
/// poisoned request can neither kill its connection thread silently nor
/// crash shutdown. Every response — including parse failures,
/// backpressure, and panic quarantines — carries an
/// `X-Isum-Request-Id`, and every non-2xx path emits an event under
/// that ID so `/events` can attribute it. A malformed request's refusal
/// ends the connection through [`linger_close`], so a client still
/// sending reads the refusal instead of a reset.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    loop {
        let (req, clock) = match Request::read_timed(&stream) {
            Err(_) => return, // peer vanished or went idle; nobody to answer
            Ok(Err((status, msg))) => {
                count!("server.http_errors");
                let rid = trace::next_request_id();
                let _rid = trace::with_request_id(&rid);
                isum_common::warn!(
                    "server.conn",
                    format!("malformed request: {msg}"),
                    status = status
                );
                let mut w = &stream;
                let _ = Response::error(status, &msg)
                    .with_header("X-Isum-Request-Id", &rid)
                    .write(&mut w);
                linger_close(&stream);
                return;
            }
            Ok(Ok(pair)) => pair,
        };
        let clock = Arc::new(clock);
        count!("server.requests");
        let rid = request_id_for(&req);
        let _rid = trace::with_request_id(&rid);
        let mut served_by = None;
        let routed = AssertUnwindSafe(|| route(&req, shared, &clock, &mut served_by));
        let resp = match catch_unwind(routed) {
            Ok(resp) => resp,
            Err(payload) => {
                count!("server.panics");
                let msg = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                isum_common::error!(
                    "server.conn",
                    format!("request handler panicked: {msg}"),
                    method = req.method,
                    path = req.path
                );
                Response::error(500, &format!("request handler panicked: {msg}"))
            }
        };
        if resp.status >= 400 {
            isum_common::warn!(
                "server.conn",
                format!("{} {} failed", req.method, req.path),
                status = resp.status
            );
        } else {
            isum_common::debug!(
                "server.conn",
                format!("{} {}", req.method, req.path),
                status = resp.status
            );
        }
        // Close out the timeline: everything since the last stamp —
        // routing for read endpoints, the reply hand-off for ingest — is
        // the respond stage. The header renders per-stage durations plus
        // a `total` that equals their sum by construction, so clients can
        // split measured latency into server-side and network shares.
        clock.stamp(Stage::Respond);
        let timing = clock.server_timing();
        if let Some(shard) = served_by {
            shard.observe_stages(&clock);
        }
        if let Some(threshold) = shared.config.slow_ms {
            // A slow request is one event under its request ID, carrying
            // the header's own timeline string: the header and the log
            // share one vocabulary (`parse_server_timing` reads both), and
            // `total_ms` renders exactly as the header's `total` entry.
            let total_ms = clock.total().as_nanos() as f64 / 1e6;
            if total_ms >= threshold as f64 {
                count!("server.slow_captures");
                isum_common::warn!(
                    "server.slow",
                    "slow request",
                    method = req.method,
                    path = req.path,
                    status = resp.status,
                    total_ms = format!("{total_ms:.3}"),
                    server_timing = timing
                );
            }
        }
        let keep_alive = req.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let mut w = &stream;
        let written = resp
            .with_header("X-Isum-Request-Id", &rid)
            .with_header("Server-Timing", &timing)
            .write_framed(&mut w, keep_alive);
        if written.is_err() || !keep_alive {
            return;
        }
    }
}

/// The tenant a request addresses: the `tenant` query parameter when
/// present, else the `X-Isum-Tenant` header, validated either way.
/// `None` means the request named no tenant at all.
fn tenant_spec(req: &Request) -> Result<Option<String>, Response> {
    let Some(tenant) = req.param("tenant").or_else(|| req.header("x-isum-tenant")) else {
        return Ok(None);
    };
    validate_tenant(tenant).map_err(|why| param_error("tenant", &why))?;
    Ok(Some(tenant.to_string()))
}

/// Resolves the shard a read endpoint should answer from. `Ok(None)`
/// means "no tenant named and several shards exist" — the caller serves
/// the merged view (or requires a tenant, endpoint depending).
fn read_shard(shared: &Shared, req: &Request) -> Result<Option<Arc<Shard>>, Response> {
    let router = &shared.router;
    match tenant_spec(req)? {
        None => Ok(router.single()),
        Some(t) => router
            .shard_named(&t)
            .map(Some)
            .ok_or_else(|| Response::error(404, &format!("unknown tenant `{t}`"))),
    }
}

/// [`read_shard`] for endpoints that cannot merge across shards.
fn one_shard(shared: &Shared, req: &Request, what: &str) -> Result<Arc<Shard>, Response> {
    read_shard(shared, req)?.ok_or_else(|| {
        param_error(
            "tenant",
            &format!("is required when multiple shards exist ({what} is per-shard)"),
        )
    })
}

/// A computed JSON document, or a `400` naming the computation's error.
fn json_response(body: isum_common::Result<Json>) -> Response {
    match body {
        Ok(body) => Response::json(200, &body),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Dispatches one parsed request to its endpoint. `clock` is the
/// request's stage timeline; only the ingest path hands it onward (the
/// sequencer stamps its stages), read endpoints leave everything after
/// parse to the `respond` stage. `served_by` receives the shard an ingest
/// or a single-shard `/summary` resolved to — the one its timeline is
/// charged to. A merged `/summary` reads every shard and is charged to
/// none.
fn route(
    req: &Request,
    shared: &Shared,
    clock: &Arc<StageClock>,
    served_by: &mut Option<Arc<Shard>>,
) -> Response {
    try_route(req, shared, clock, served_by).unwrap_or_else(|refusal| refusal)
}

/// [`route`], with `Err` as the early exit for a refused request.
fn try_route(
    req: &Request,
    shared: &Shared,
    clock: &Arc<StageClock>,
    served_by: &mut Option<Arc<Shard>>,
) -> Result<Response, Response> {
    Ok(match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            &Json::Obj(vec![
                ("status".into(), Json::from("ok")),
                ("observed".into(), Json::from(shared.router.observed_total())),
                ("templates".into(), Json::from(shared.router.templates_total())),
                ("shards".into(), Json::from(shared.router.shard_count())),
                ("draining".into(), Json::from(shared.shutdown.load(Ordering::SeqCst))),
            ]),
        ),
        ("GET", "/metrics") => {
            count!("server.requests.metrics");
            let mut body = if telemetry::enabled() {
                telemetry::snapshot().render_prometheus()
            } else {
                // Comment-only output is still valid Prometheus text
                // exposition; say why it is empty and how to fix that.
                "# telemetry is disabled; start the server with ISUM_TELEMETRY=1 (or --stats) \
                 to collect metrics\n"
                    .to_string()
            };
            shared.router.render_shard_metrics(&mut body);
            render_process_metrics(shared, &mut body);
            Response::raw(200, "text/plain; version=0.0.4", body.into_bytes())
        }
        ("GET", "/events") => {
            count!("server.requests.events");
            let n = positive_param(req, "n")?.unwrap_or(100);
            // `level=` accepts exactly the ISUM_LOG level vocabulary and
            // keeps events at that severity or worse (`off` keeps none);
            // `target=` is the env filter's dot-boundary prefix match.
            let max_level = match req.param("level") {
                None => Some(Level::Debug),
                Some(level) => parse_level(level).ok_or_else(|| {
                    param_error("level", "must be one of off, error, warn, info, debug")
                })?,
            };
            let target = req.param("target");
            if target == Some("") {
                return Err(param_error("target", "must be non-empty"));
            }
            // Filter over the whole ring (tail clamps to its capacity),
            // then keep the newest `n` survivors — so a narrow filter
            // still fills its quota from older events.
            let filtered: Vec<_> = trace::ring_tail(usize::MAX)
                .into_iter()
                .filter(|e| max_level.is_some_and(|max| e.level <= max))
                .filter(|e| target.is_none_or(|prefix| trace::target_matches(prefix, &e.target)))
                .collect();
            ndjson(filtered.iter().rev().take(n).rev().map(|event| event.to_jsonl()))
        }
        ("GET", "/status") => {
            count!("server.requests.status");
            status_response(shared, positive_param(req, "k")?)
        }
        ("GET", "/summary/explain") => {
            count!("server.requests.explain");
            let k = required_param(req, "k")?;
            let shard = one_shard(shared, req, "explain")?;
            let engine = &lock(&shard.state).engine;
            json_response(engine.explain_json(k))
        }
        ("GET", "/summary") => {
            count!("server.requests.summary");
            let k = required_param(req, "k")?;
            match read_shard(shared, req)? {
                Some(shard) => json_response(served_by.insert(shard).summary_json_cached(k)),
                None => merged_summary_response(shared, k),
            }
        }
        ("POST", "/ingest") => {
            count!("server.requests.ingest");
            handle_ingest(req, shared, Arc::clone(clock), served_by)?
        }
        ("POST", "/tune") => {
            count!("server.requests.tune");
            let k = required_param(req, "k")?;
            let m = parse_usize_param(req, "m")?.unwrap_or(16);
            let advisor = req.param("advisor").unwrap_or("dta");
            let constraints = match req.param("budget_bytes").map(str::parse::<u64>) {
                None => TuningConstraints::with_max_indexes(m),
                Some(Ok(b)) => TuningConstraints::with_budget(m, b),
                Some(Err(_)) => return Err(param_error("budget_bytes", "must be an integer")),
            };
            let shard = one_shard(shared, req, "tuning")?;
            let engine = &lock(&shard.state).engine;
            json_response(engine.tune_json(k, advisor, &constraints))
        }
        ("POST", "/shutdown") => {
            shared.shut_down();
            Response::json(200, &Json::Obj(vec![("status".into(), Json::from("draining"))]))
        }
        (_, "/healthz" | "/metrics" | "/events" | "/summary" | "/status" | "/summary/explain") => {
            Response::error(405, "use GET for this endpoint")
        }
        (_, "/ingest" | "/tune" | "/shutdown") => {
            Response::error(405, "use POST for this endpoint")
        }
        _ => Response::error(404, &format!("no such endpoint: {}", req.path)),
    })
}

/// One line per document, newest last.
fn ndjson(lines: impl Iterator<Item = String>) -> Response {
    let mut body = String::new();
    for line in lines {
        body.push_str(&line);
        body.push('\n');
    }
    Response::raw(200, "application/x-ndjson", body.into_bytes())
}

/// Appends the process self-gauges to `GET /metrics`: uptime, open
/// shards, and — where `/proc/self/statm` exists (Linux) — resident set
/// size. The RSS gauge is *absent*, not zero, elsewhere: exporting a
/// fake 0 would trip every memory alert pointed at it.
fn render_process_metrics(shared: &Shared, out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP isum_process_uptime_seconds Seconds since the daemon bound.");
    let _ = writeln!(out, "# TYPE isum_process_uptime_seconds gauge");
    let _ =
        writeln!(out, "isum_process_uptime_seconds {:.3}", shared.started.elapsed().as_secs_f64());
    let _ = writeln!(out, "# HELP isum_process_open_shards Live tenant shards.");
    let _ = writeln!(out, "# TYPE isum_process_open_shards gauge");
    let _ = writeln!(out, "isum_process_open_shards {}", shared.router.shard_count());
    if let Some(rss) = resident_set_bytes() {
        let _ = writeln!(out, "# HELP isum_process_resident_bytes Resident set size.");
        let _ = writeln!(out, "# TYPE isum_process_resident_bytes gauge");
        let _ = writeln!(out, "isum_process_resident_bytes {rss}");
    }
}

/// Resident set size in bytes from `/proc/self/statm` (field 2 is
/// resident pages). `None` when the file or page size is unavailable —
/// notably on every non-Linux platform.
#[cfg(target_os = "linux")]
fn resident_set_bytes() -> Option<u64> {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_PAGESIZE: i32 = 30;
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    let page = unsafe { sysconf(SC_PAGESIZE) };
    if page <= 0 {
        return None;
    }
    resident_pages.checked_mul(page as u64)
}

#[cfg(not(target_os = "linux"))]
fn resident_set_bytes() -> Option<u64> {
    None
}

/// Parses an optional non-negative integer query parameter; `Err` is a
/// ready-to-send typed 400 naming the offending parameter.
fn parse_usize_param(req: &Request, name: &str) -> Result<Option<usize>, Response> {
    match req.param(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<usize>()
            .map(Some)
            .map_err(|_| param_error(name, "must be a non-negative integer")),
    }
}

/// [`parse_usize_param`] for a parameter the endpoint cannot do without.
fn required_param(req: &Request, name: &str) -> Result<usize, Response> {
    parse_usize_param(req, name)?.ok_or_else(|| param_error(name, "is required"))
}

/// [`parse_usize_param`] for a count, where `0` asks for nothing.
fn positive_param(req: &Request, name: &str) -> Result<Option<usize>, Response> {
    match parse_usize_param(req, name)? {
        Some(0) => Err(param_error(name, "must be a positive integer")),
        n => Ok(n),
    }
}

/// A typed 400 for a malformed query parameter: the body names the
/// parameter in a machine-readable `param` field next to the usual
/// `error`/`status` envelope.
fn param_error(name: &str, what: &str) -> Response {
    Response::json(
        400,
        &Json::Obj(vec![
            ("error".into(), Json::from(format!("query parameter `{name}` {what}"))),
            ("param".into(), Json::from(name)),
            ("status".into(), Json::from(400u64)),
        ]),
    )
}

/// The cross-shard `GET /summary`: merges every shard's partial sums
/// deterministically ([`isum_core::merge_partials`]) and selects `k`
/// representative *templates* with stable fingerprint tie-breaks. The
/// document is shaped like the per-shard summary but flagged
/// `"merged": true` and keyed by fingerprint, because shard-local query
/// indexes are meaningless globally.
fn merged_summary_response(shared: &Shared, k: usize) -> Response {
    let merged = shared.router.merged();
    match merged.select(k, shared.config.isum) {
        Err(e) => Response::error(400, &e.to_string()),
        Ok(picks) => {
            let selected: Vec<Json> = picks
                .iter()
                .map(|p| {
                    let t = &merged.templates[p.template];
                    Json::Obj(vec![
                        ("template".into(), Json::from(p.template)),
                        ("fingerprint".into(), Json::from(t.fingerprint.as_str())),
                        ("instances".into(), Json::from(t.count)),
                        ("mass".into(), Json::from(t.mass)),
                        ("mass_bits".into(), Json::from(hex_bits(t.mass))),
                        ("weight".into(), Json::from(p.weight)),
                        ("weight_bits".into(), Json::from(hex_bits(p.weight))),
                    ])
                })
                .collect();
            Response::json(
                200,
                &Json::Obj(vec![
                    ("k".into(), Json::from(k)),
                    ("merged".into(), Json::from(true)),
                    ("shards".into(), Json::from(shared.router.shard_count())),
                    ("observed".into(), Json::from(merged.observed)),
                    ("templates".into(), Json::from(merged.templates.len())),
                    ("selected".into(), Json::Arr(selected)),
                ]),
            )
        }
    }
}

/// `0` is the cells' "never" sentinel; `/status` reports it as `null`.
fn nonzero(value: u64) -> Json {
    if value == 0 {
        Json::Null
    } else {
        Json::from(value)
    }
}

/// A drift-score cell (parts per million, `-1` before any sample) as
/// the `/status` score.
fn drift_score(ppm: i64) -> Json {
    if ppm < 0 {
        Json::Null
    } else {
        Json::from(ppm as f64 / 1e6)
    }
}

/// Builds the `GET /status` document: one JSON object rolling up the
/// lead sequencer position, total queue pressure, durability state (WAL
/// position, size, segments, and when it last fsynced and rotated),
/// summary quality (coverage at `k`, default `min(observed, 10)` —
/// single-shard only), drift state, and a per-shard breakdown — reads
/// only, so polling it cannot perturb results. Span timings are
/// `/metrics`' `isum_span_*` families.
fn status_response(shared: &Shared, k_param: Option<usize>) -> Response {
    let shards = shared.router.shards();
    let config = &shared.config;
    // Every roll-up is a maximum (positions, newest timestamps, worst
    // score) or a sum (sizes, backlogs, counts) of one cell over shards.
    let cells = |cell: fn(&ShardCells) -> &AtomicU64| {
        shards.iter().map(move |s| cell(&s.cells).load(Ordering::Relaxed))
    };
    let max = |cell| cells(cell).max().unwrap_or(0);
    let sum = |cell| cells(cell).sum::<u64>();
    let single = shared.router.single();
    let (observed, templates, summary) = match &single {
        Some(shard) => {
            let engine = &lock(&shard.state).engine;
            let observed = engine.observed();
            let templates = engine.template_count();
            let summary = if observed == 0 {
                Json::Null
            } else {
                let k = k_param.unwrap_or_else(|| observed.min(10));
                match engine.explain(k) {
                    Ok(e) => Json::Obj(vec![
                        ("k".into(), Json::from(e.k)),
                        ("coverage".into(), Json::from(e.coverage)),
                        ("coverage_bits".into(), Json::from(hex_bits(e.coverage))),
                        ("represented".into(), Json::from(e.represented)),
                        ("represented_fraction".into(), Json::from(e.represented_fraction())),
                    ]),
                    Err(e) => return Response::error(400, &e.to_string()),
                }
            };
            (observed, templates, summary)
        }
        // Several shards: totals come from the mirror cells; the summary
        // gauge is per-shard by construction (ask `/summary` for the
        // merged one).
        None => (sum(|c| &c.observed) as usize, sum(|c| &c.templates) as usize, Json::Null),
    };
    let durability = Json::Obj(vec![
        ("configured".into(), Json::from(config.checkpoint.is_some())),
        ("wal_seq".into(), Json::from(max(|c| &c.wal_seq))),
        ("wal_bytes".into(), Json::from(sum(|c| &c.wal_bytes))),
        ("segments".into(), Json::from(sum(|c| &c.wal_segments))),
        ("last_fsync_unix_ms".into(), nonzero(max(|c| &c.wal_last_fsync_unix_ms))),
        ("last_rotation_unix_ms".into(), nonzero(max(|c| &c.wal_last_rotation_unix_ms))),
    ]);
    let drift = {
        // Single-shard: that shard's cells verbatim. Multi-shard: the
        // worst (maximum) score, summed window lengths and alerts.
        let ppm = shards.iter().map(|s| s.cells.drift_score_ppm.load(Ordering::Relaxed)).max();
        Json::Obj(vec![
            ("enabled".into(), Json::from(config.drift_window > 0)),
            ("window".into(), Json::from(config.drift_window)),
            ("window_len".into(), Json::from(sum(|c| &c.drift_window_len))),
            ("threshold".into(), Json::from(config.drift_threshold)),
            ("score".into(), drift_score(ppm.unwrap_or(-1))),
            ("alerts".into(), Json::from(sum(|c| &c.drift_alerts))),
            ("action".into(), Json::from(config.drift_action.as_str())),
            ("resummarizes".into(), Json::from(sum(|c| &c.resummarizes))),
            ("resummarize_ms".into(), Json::from(sum(|c| &c.resummarize_total_ms))),
            ("last_resummarize_unix_ms".into(), nonzero(max(|c| &c.last_resummarize_unix_ms))),
        ])
    };
    let shard_docs: Vec<Json> = shards
        .iter()
        .map(|s| {
            let load = |cell: &AtomicU64| Json::from(cell.load(Ordering::Relaxed));
            let c = &s.cells;
            Json::Obj(vec![
                ("tenant".into(), Json::from(s.name.as_str())),
                ("seq".into(), load(&c.next_seq)),
                ("queue_depth".into(), load(&c.queue_depth)),
                ("observed".into(), load(&c.observed)),
                ("templates".into(), load(&c.templates)),
                (
                    "wal".into(),
                    Json::Obj(vec![
                        ("seq".into(), load(&c.wal_seq)),
                        ("oldest_wal_seq".into(), load(&c.wal_oldest_seq)),
                        ("bytes".into(), load(&c.wal_bytes)),
                        ("segments".into(), load(&c.wal_segments)),
                        (
                            "last_rotation_unix_ms".into(),
                            nonzero(c.wal_last_rotation_unix_ms.load(Ordering::Relaxed)),
                        ),
                    ]),
                ),
                (
                    "drift".into(),
                    Json::Obj(vec![
                        ("score".into(), drift_score(c.drift_score_ppm.load(Ordering::Relaxed))),
                        ("window_len".into(), load(&c.drift_window_len)),
                        ("alerts".into(), load(&c.drift_alerts)),
                        ("resummarizes".into(), load(&c.resummarizes)),
                    ]),
                ),
            ])
        })
        .collect();
    let draining = shared.shutdown.load(Ordering::SeqCst);
    Response::json(
        200,
        &Json::Obj(vec![
            ("status".into(), Json::from(if draining { "draining" } else { "ok" })),
            ("seq".into(), Json::from(shared.router.lead_seq())),
            (
                "queue".into(),
                Json::Obj(vec![
                    ("depth".into(), Json::from(shared.router.queue_depth_total())),
                    ("capacity".into(), Json::from(config.queue_cap)),
                ]),
            ),
            ("observed".into(), Json::from(observed)),
            ("templates".into(), Json::from(templates)),
            ("durability".into(), durability),
            ("summary".into(), summary),
            ("drift".into(), drift),
            ("shards".into(), Json::Arr(shard_docs)),
        ]),
    )
}

/// Every client `seq` is below this (else `400`, `param: seq`), so a
/// shard's high-water mark `seq + 1` cannot overflow.
const SEQ_LIMIT: u64 = 1 << 63;

/// Resolves the ingest tenant and hands the batch to the router.
fn handle_ingest(
    req: &Request,
    shared: &Shared,
    clock: Arc<StageClock>,
    served_by: &mut Option<Arc<Shard>>,
) -> Result<Response, Response> {
    let Ok(script) = std::str::from_utf8(&req.body) else {
        return Err(Response::error(400, "ingest body must be UTF-8 SQL text"));
    };
    let seq = match req.param("seq").map(str::parse::<u64>) {
        None => None,
        Some(Ok(s)) if s < SEQ_LIMIT => Some(s),
        Some(_) => return Err(param_error("seq", "must be an integer below 2^63")),
    };
    let tenant = tenant_spec(req)?.unwrap_or_else(|| DEFAULT_TENANT.to_string());
    let shard = served_by.insert(shared.router.shard_for_tenant(&tenant)?);
    let request_id = trace::current_request_id().unwrap_or_else(trace::next_request_id);
    Ok(shared.router.ingest(shard, seq, script.to_string(), request_id, clock))
}

// ---------------------------------------------------------------------
// Signal handling (Unix): SIGTERM / SIGINT flip a flag `Server::join`
// turns into the accept loop's wake; the signal alone cannot wake it
// (glibc's `signal(2)` sets SA_RESTART and std retries `accept` on EINTR).
// No crate needed. Non-Unix builds fall back to `POST /shutdown` only.
// ---------------------------------------------------------------------

static SIGNALED: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT was received (after
/// [`install_signal_handlers`]).
pub fn signal_pending() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod signals {
    use super::SIGNALED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        SIGNALED.store(true, Ordering::SeqCst);
    }

    /// Routes SIGTERM and SIGINT to the shutdown flag.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Installs SIGTERM/SIGINT handlers that request graceful shutdown
/// (no-op off Unix; use `POST /shutdown` there).
pub fn install_signal_handlers() {
    #[cfg(unix)]
    signals::install();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use isum_catalog::CatalogBuilder;
    use std::sync::mpsc;

    /// A daemon bound to every IPv4 address, on an ephemeral port.
    fn wildcard_server() -> Server {
        let catalog = CatalogBuilder::new()
            .table("t", 1_000)
            .col_key("id")
            .finish()
            .expect("fresh table")
            .build();
        let server = Server::bind("0.0.0.0:0", ServerConfig::new(catalog)).expect("binds");
        assert!(server.addr().ip().is_unspecified());
        server
    }

    /// Joins `server` on a helper thread, so that a missing wake fails the
    /// test instead of hanging it.
    fn joins(server: Server) -> bool {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            server.join();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(30)).is_ok()
    }

    #[test]
    fn server_shutdown_wakes_a_wildcard_bound_accept() {
        let server = wildcard_server();
        server.shutdown();
        assert!(joins(server), "join returns after Server::shutdown");
    }

    #[test]
    fn post_shutdown_wakes_a_wildcard_bound_accept() {
        let server = wildcard_server();
        let client = Client::new(format!("127.0.0.1:{}", server.addr().port()));
        let resp = client.shutdown().expect("POST /shutdown");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(joins(server), "join returns after POST /shutdown");
    }

    fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
        resp.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    #[test]
    fn a_computation_error_is_a_400_without_retry_after() {
        // The retryable 429s and 503s come from admission and the log,
        // each with its own `Retry-After` (daemon, shards and wal tests).
        let err = isum_common::Error::InvalidConfig("k must be positive".into());
        let resp = json_response(Err(err));
        assert_eq!(resp.status, 400);
        assert_eq!(header(&resp, "Retry-After"), None, "400 is not retryable");
        let body = Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let want = Json::Obj(vec![
            ("error".into(), Json::from("invalid configuration: k must be positive")),
            ("status".into(), Json::from(400u64)),
        ]);
        assert_eq!(body, want);
    }

    #[test]
    fn param_errors_are_typed() {
        let resp = param_error("n", "must be a positive integer");
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        let j = Json::parse(&body).expect("typed body is JSON");
        assert_eq!(j.get("param").and_then(Json::as_str), Some("n"));
        assert_eq!(j.get("status").and_then(Json::as_u64), Some(400));
        assert!(j.get("error").and_then(Json::as_str).unwrap().contains('`'));
    }
}
