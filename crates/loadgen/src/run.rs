//! Plan execution: a worker pool of keep-alive connections, a concurrent
//! `/summary` poller, and client-side accounting.
//!
//! Batches are assigned to workers round-robin by batch index
//! (`index % connections`). Because the plan stamps per-tenant `seq`
//! numbers in generation order, a worker can hit a 503 + `Retry-After: 0`
//! when it races ahead of a sibling still delivering an earlier `seq` of
//! the same tenant — that is the server's ordering contract working as
//! designed, and the worker simply retries. The schedule is
//! deadlock-free: the lowest-indexed incomplete batch always has every
//! per-tenant predecessor complete (predecessors have lower indexes), so
//! its owner can always make progress.
//!
//! **Closed loop** sends each batch as soon as the previous one is acked;
//! latency is measured from the first delivery attempt. **Open loop**
//! paces each worker to a fixed schedule and measures latency from the
//! *scheduled* send time, so queueing delay under overload is charged to
//! the server rather than silently absorbed (no coordinated omission).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use isum_common::stage::parse_server_timing;
use isum_common::Json;
use isum_server::Conn;

use crate::hist::LatencyHist;
use crate::plan::{LoadPlan, Window, DEFAULT_TENANT};

/// How batch sends are paced.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Send-after-ack: each worker fires its next batch the moment the
    /// previous one is acknowledged.
    Closed,
    /// Paced: each worker schedules its k-th batch at `k / rate` seconds
    /// and charges latency from the scheduled time.
    Open {
        /// Batches per second per connection.
        batches_per_sec: f64,
    },
}

/// Execution knobs (everything about *how* to send; the *what* lives in
/// the [`LoadPlan`]).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent keep-alive connections (worker threads).
    pub connections: usize,
    /// Pacing mode.
    pub mode: Mode,
    /// `k` for the concurrent `GET /summary?k=` poller.
    pub summary_k: usize,
    /// Poll interval for the summary thread; `None` disables it.
    pub summary_poll_ms: Option<u64>,
    /// Socket read/write timeout.
    pub timeout: Duration,
    /// Delivery attempts per batch before the run aborts.
    pub max_attempts: u32,
}

impl RunConfig {
    /// Closed-loop defaults against `addr`: 4 connections, summary k=10
    /// polled every 50 ms, 30 s socket timeout, 600 attempts.
    pub fn new(addr: impl Into<String>) -> RunConfig {
        RunConfig {
            addr: addr.into(),
            connections: 4,
            mode: Mode::Closed,
            summary_k: 10,
            summary_poll_ms: Some(50),
            timeout: Duration::from_secs(30),
            max_attempts: 600,
        }
    }
}

/// Client-side accounting for one run.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Batches acknowledged with 200.
    pub acked_batches: u64,
    /// Statements inside acknowledged batches.
    pub acked_statements: u64,
    /// 200 acks the server marked `duplicate` (idempotent redelivery).
    pub duplicate_acks: u64,
    /// 429 backpressure responses (each retried).
    pub retries_429: u64,
    /// 503 + `Retry-After: 0` ordering stalls (sequencer ahead-of-stream).
    pub retries_503_ahead: u64,
    /// Other 503s (drain race, WAL stall, timeout; each retried).
    pub retries_503_other: u64,
    /// 5xx statuses outside the documented backpressure vocabulary.
    pub unexpected_5xx: u64,
    /// Transport-level request failures that were retried.
    pub transport_errors: u64,
    /// Socket re-establishments across all connections.
    pub reconnects: u64,
    /// Ingest batch latencies, measurement window only.
    pub ingest_hist: LatencyHist,
    /// Server-side share of each measured ingest latency: the `total`
    /// entry of the response's `Server-Timing` header. Empty when the
    /// server does not send the header.
    pub server_hist: LatencyHist,
    /// The remainder (measured minus server-side): network transit plus
    /// client-side queueing — the share no server-side fix can remove.
    pub network_hist: LatencyHist,
    /// Per-stage server-side latencies keyed by stage name, from the
    /// same headers (`BTreeMap` for deterministic report order).
    pub stage_hists: BTreeMap<String, LatencyHist>,
    /// `/summary` latencies observed by the poller after warmup.
    pub summary_hist: LatencyHist,
    /// Wall-clock span of the measurement window in seconds.
    pub measure_secs: f64,
    /// Statements ingested inside the measurement window.
    pub measure_statements: u64,
    /// The plan fingerprint (replay-identity witness).
    pub fingerprint: u64,
}

impl LoadReport {
    /// Measured ingest throughput in statements per second.
    pub fn ingest_statements_per_sec(&self) -> f64 {
        if self.measure_secs > 0.0 {
            self.measure_statements as f64 / self.measure_secs
        } else {
            0.0
        }
    }

    /// Folds `other`'s counters and histograms in. `measure_secs` and
    /// `fingerprint` belong to the whole run, so [`run`] sets them.
    fn merge(&mut self, other: &LoadReport) {
        self.acked_batches += other.acked_batches;
        self.acked_statements += other.acked_statements;
        self.duplicate_acks += other.duplicate_acks;
        self.retries_429 += other.retries_429;
        self.retries_503_ahead += other.retries_503_ahead;
        self.retries_503_other += other.retries_503_other;
        self.unexpected_5xx += other.unexpected_5xx;
        self.transport_errors += other.transport_errors;
        self.reconnects += other.reconnects;
        self.measure_statements += other.measure_statements;
        self.ingest_hist.merge(&other.ingest_hist);
        self.server_hist.merge(&other.server_hist);
        self.network_hist.merge(&other.network_hist);
        for (stage, h) in &other.stage_hists {
            self.stage_hists.entry(stage.clone()).or_default().merge(h);
        }
        self.summary_hist.merge(&other.summary_hist);
    }

    /// The report as a JSON object (what `isum load` prints).
    pub fn to_json(&self) -> Json {
        let hist = |h: &LatencyHist| {
            Json::Obj(vec![
                ("count".into(), Json::from(h.count())),
                ("mean_ms".into(), Json::Num(h.mean_ms())),
                ("p50_ms".into(), Json::Num(h.quantile_ms(0.5))),
                ("p90_ms".into(), Json::Num(h.quantile_ms(0.9))),
                ("p99_ms".into(), Json::Num(h.quantile_ms(0.99))),
                ("max_ms".into(), Json::Num(h.max_ms())),
            ])
        };
        Json::Obj(vec![
            ("acked_batches".into(), Json::from(self.acked_batches)),
            ("acked_statements".into(), Json::from(self.acked_statements)),
            ("duplicate_acks".into(), Json::from(self.duplicate_acks)),
            ("retries_429".into(), Json::from(self.retries_429)),
            ("retries_503_ahead".into(), Json::from(self.retries_503_ahead)),
            ("retries_503_other".into(), Json::from(self.retries_503_other)),
            ("unexpected_5xx".into(), Json::from(self.unexpected_5xx)),
            ("transport_errors".into(), Json::from(self.transport_errors)),
            ("reconnects".into(), Json::from(self.reconnects)),
            ("measure_secs".into(), Json::Num(self.measure_secs)),
            ("measure_statements".into(), Json::from(self.measure_statements)),
            ("ingest_statements_per_sec".into(), Json::Num(self.ingest_statements_per_sec())),
            ("ingest_latency".into(), hist(&self.ingest_hist)),
            (
                "stage_attribution".into(),
                Json::Obj(vec![
                    ("server".into(), hist(&self.server_hist)),
                    ("network".into(), hist(&self.network_hist)),
                    (
                        "stages".into(),
                        Json::Obj(
                            self.stage_hists.iter().map(|(k, h)| (k.clone(), hist(h))).collect(),
                        ),
                    ),
                ]),
            ),
            ("summary_latency".into(), hist(&self.summary_hist)),
            ("plan_fingerprint".into(), Json::from(format!("{:016x}", self.fingerprint))),
        ])
    }
}

/// One worker's accounting, merged into the run's [`LoadReport`] after
/// the join.
#[derive(Debug, Default)]
struct WorkerTally {
    report: LoadReport,
    /// Offsets from run start bracketing this worker's measure window.
    measure_first_us: Option<u64>,
    measure_last_us: Option<u64>,
}

/// `Retry-After` seconds from a raw response, capped at 2 as
/// `Client::ingest_with_retry` caps it; `None` when absent or unparsable.
/// The sleeps built on it are this generator's own (20 + 150·s ms), not
/// the client's (50 + 200·s ms).
fn retry_after_secs(headers: &[(String, String)]) -> Option<u64> {
    headers
        .iter()
        .find(|(k, _)| k == "retry-after")
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .map(|s| s.min(2))
}

/// Executes `plan` against a live server per `config`.
///
/// Returns an error on a fatal response (4xx), on transport failure that
/// outlives the retry budget, or when the server answers a status the
/// protocol does not document.
pub fn run(plan: &LoadPlan, config: &RunConfig) -> Result<LoadReport, String> {
    assert!(config.connections >= 1, "need at least one connection");
    let t0 = Instant::now();
    let warmup_total = plan.config.warmup_batches;
    let completed = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let tallies: Mutex<Vec<WorkerTally>> = Mutex::new(Vec::new());
    let summary_side: Mutex<LoadReport> = Mutex::default();

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.connections)
            .map(|worker| {
                let completed = &completed;
                let done = &done;
                let failure = &failure;
                let tallies = &tallies;
                scope.spawn(move || {
                    let result = run_worker(plan, config, worker, t0, completed, done);
                    match result {
                        Ok(tally) => tallies.lock().expect("tallies").push(tally),
                        Err(e) => {
                            let mut slot = failure.lock().expect("failure");
                            slot.get_or_insert(e);
                            done.store(true, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        let poller = config.summary_poll_ms.map(|poll_ms| {
            let completed = &completed;
            let done = &done;
            let summary_side = &summary_side;
            scope.spawn(move || {
                let mut conn = Conn::new(config.addr.clone(), config.timeout);
                let target = format!("/summary?k={}", config.summary_k);
                let mut hist = LatencyHist::new();
                while !done.load(Ordering::SeqCst) {
                    let t = Instant::now();
                    let ok = matches!(conn.request("GET", &target, None, ""), Ok((200, _, _)));
                    // Record only steady-state samples: after warmup, and
                    // only successful renders.
                    if ok && completed.load(Ordering::SeqCst) >= warmup_total {
                        hist.record_us(t.elapsed().as_micros() as u64);
                    }
                    std::thread::sleep(Duration::from_millis(poll_ms));
                }
                // A short run can complete between two poll ticks; one
                // final sample (all batches acked, so past warmup by
                // definition) keeps an enabled poller from reporting an
                // empty histogram.
                if hist.count() == 0 {
                    let t = Instant::now();
                    if matches!(conn.request("GET", &target, None, ""), Ok((200, _, _))) {
                        hist.record_us(t.elapsed().as_micros() as u64);
                    }
                }
                let poller = LoadReport {
                    summary_hist: hist,
                    reconnects: conn.reconnects(),
                    ..Default::default()
                };
                *summary_side.lock().expect("summary") = poller;
            })
        });
        for handle in workers {
            let _ = handle.join();
        }
        // Workers are drained; release the poller so the scope can close.
        done.store(true, Ordering::SeqCst);
        if let Some(handle) = poller {
            let _ = handle.join();
        }
    });

    if let Some(e) = failure.lock().expect("failure").take() {
        return Err(e);
    }
    let mut report = LoadReport { fingerprint: plan.fingerprint(), ..Default::default() };
    let mut first_us = u64::MAX;
    let mut last_us = 0u64;
    for t in tallies.lock().expect("tallies").iter() {
        report.merge(&t.report);
        if let Some(us) = t.measure_first_us {
            first_us = first_us.min(us);
        }
        if let Some(us) = t.measure_last_us {
            last_us = last_us.max(us);
        }
    }
    if last_us > first_us {
        report.measure_secs = (last_us - first_us) as f64 / 1e6;
    }
    report.merge(&summary_side.lock().expect("summary"));
    Ok(report)
}

/// One worker: delivers every batch with `index % connections == worker`,
/// in index order, retrying per the server's backpressure vocabulary.
fn run_worker(
    plan: &LoadPlan,
    config: &RunConfig,
    worker: usize,
    t0: Instant,
    completed: &AtomicUsize,
    done: &AtomicBool,
) -> Result<WorkerTally, String> {
    let mut conn = Conn::new(config.addr.clone(), config.timeout);
    let mut tally = WorkerTally::default();
    let own_batches = plan.batches.iter().filter(|b| b.index % config.connections == worker);
    for (own_index, batch) in own_batches.enumerate() {
        if done.load(Ordering::SeqCst) {
            break;
        }
        let started = match config.mode {
            Mode::Closed => Instant::now(),
            Mode::Open { batches_per_sec } => {
                let scheduled = t0 + Duration::from_secs_f64(own_index as f64 / batches_per_sec);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                scheduled
            }
        };
        let target = format!("/ingest?seq={}", batch.seq);
        let tenant =
            if batch.tenant == DEFAULT_TENANT { None } else { Some(batch.tenant.as_str()) };
        let mut delivered = false;
        // The acked response's `Server-Timing` timeline; empty when the
        // server does not attribute (or until the 200 lands).
        let mut acked_timing: Vec<(String, f64)> = Vec::new();
        for _attempt in 0..config.max_attempts {
            let (status, headers, body) = match conn.request("POST", &target, tenant, &batch.script)
            {
                Ok(resp) => resp,
                Err(e) => {
                    tally.report.transport_errors += 1;
                    if tally.report.transport_errors > u64::from(config.max_attempts) {
                        return Err(format!("batch {}: transport failure: {e}", batch.index));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
            };
            match status {
                200 => {
                    if String::from_utf8_lossy(&body).contains("duplicate") {
                        tally.report.duplicate_acks += 1;
                    }
                    tally.report.acked_batches += 1;
                    tally.report.acked_statements += plan.config.batch_size as u64;
                    acked_timing = headers
                        .iter()
                        .find_map(|(k, v)| (k == "server-timing").then(|| parse_server_timing(v)))
                        .unwrap_or_default();
                    delivered = true;
                    break;
                }
                429 => {
                    tally.report.retries_429 += 1;
                    let wait = retry_after_secs(&headers).unwrap_or(1);
                    std::thread::sleep(Duration::from_millis(20 + wait * 150));
                }
                503 => {
                    if retry_after_secs(&headers) == Some(0) {
                        // Sequencer ordering stall: an earlier seq of this
                        // tenant is still in flight on a sibling worker.
                        tally.report.retries_503_ahead += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    } else {
                        tally.report.retries_503_other += 1;
                        let wait = retry_after_secs(&headers).unwrap_or(1);
                        std::thread::sleep(Duration::from_millis(20 + wait * 150));
                    }
                }
                s if (500..600).contains(&s) => {
                    tally.report.unexpected_5xx += 1;
                    std::thread::sleep(Duration::from_millis(50));
                }
                s => {
                    return Err(format!(
                        "batch {} (tenant {}, seq {}) answered fatal {s}: {}",
                        batch.index,
                        batch.tenant,
                        batch.seq,
                        String::from_utf8_lossy(&body)
                    ));
                }
            }
        }
        if !delivered {
            return Err(format!(
                "batch {} not delivered after {} attempts",
                batch.index, config.max_attempts
            ));
        }
        if plan.window_of(batch.index) == Window::Measure {
            let acked = Instant::now();
            let measured_us = acked.duration_since(started).as_micros() as u64;
            tally.report.ingest_hist.record_us(measured_us);
            // Split the measured latency along the server's own timeline:
            // the header's `total` is the server-side share, the remainder
            // is network transit plus client/queue wait, and each named
            // stage feeds its own histogram. Purely subtractive — the
            // measured number above is untouched.
            if let Some((name, total_ms)) = acked_timing.last() {
                if name == "total" {
                    let server_us = ((total_ms * 1e3) as u64).min(measured_us);
                    tally.report.server_hist.record_us(server_us);
                    tally.report.network_hist.record_us(measured_us - server_us);
                    for (stage, ms) in &acked_timing[..acked_timing.len() - 1] {
                        tally
                            .report
                            .stage_hists
                            .entry(stage.clone())
                            .or_default()
                            .record_us((ms * 1e3) as u64);
                    }
                }
            }
            tally.report.measure_statements += plan.config.batch_size as u64;
            let start_us = started.duration_since(t0).as_micros() as u64;
            let acked_us = acked.duration_since(t0).as_micros() as u64;
            tally.measure_first_us = Some(tally.measure_first_us.unwrap_or(start_us).min(start_us));
            tally.measure_last_us = Some(tally.measure_last_us.unwrap_or(0).max(acked_us));
        }
        completed.fetch_add(1, Ordering::SeqCst);
    }
    tally.report.reconnects = conn.reconnects();
    Ok(tally)
}
