//! Multi-tenant sharding and the one ingest pipeline every batch takes:
//! enqueue → admit → log → apply → ack (DESIGN.md §13).
//!
//! # Shards
//!
//! A *shard* is a state plus its log, changed by exactly one thread: a
//! bounded queue feeds the shard's worker, which admits client batches
//! in strict contiguous `seq` order, logs each as a record, and applies
//! it, back to back on the request's own stage clock. The state — the
//! engine, the sequencer mark and the drift tracker — changes only
//! through [`ShardState::apply`], one record at a time: a live batch, a
//! drift rebase and log replay take that same function. Every distinct
//! `X-Isum-Tenant` header value owns one shard, created on first ingest;
//! requests without the header land on the `default` tenant, whose log
//! sits at the stem's own `.wal` base so a single-tenant deployment is
//! indistinguishable from the pre-sharding daemon. Shards are fully
//! independent; a `/summary` that names no tenant while several exist is
//! the deterministic merge of their partial sums
//! ([`isum_core::merge_partials`]).
//!
//! # Durability layout
//!
//! The write-ahead log is the one durable artifact (DESIGN.md §14):
//! every applied batch appends one fsynced record to the shard's log
//! *before* the ack, the log is a run of immutable segments, and nothing
//! else is written while serving. With checkpoint stem `dir/ckpt.json`
//! (or `dir/ckpt`: the stem's extension, if any, is dropped):
//!
//! ```text
//! dir/ckpt.wal.<n>                 default tenant, segment n (8 digits)
//! dir/ckpt.t-<hex(tenant)>.wal.<n> every other tenant (hex keeps names filesystem-safe)
//! ```
//!
//! Startup scans the stem's directory for `.t-<hex>` siblings, so a
//! restart resurrects every tenant that was ever acknowledged a batch.
//! Recovery per shard = replay every segment in order through
//! [`ShardState::apply`], byte-identical to the never-crashed run; first
//! boot, crash and clean restart are the same loop. Files of retired
//! layouts — hashed-mode logs and the snapshots and single-file logs of
//! releases before segments — refuse to start: see
//! [`refuse_retired_layouts`].

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use isum_common::stage::STAGES;
use isum_common::telemetry::{self, Histogram};
use isum_common::trace;
use isum_common::{count, Json, Stage, StageClock};
use isum_core::{merge_partials, MergedWorkload};
use isum_workload::split_script;

use crate::config::ServerConfig;
use crate::drift::{DriftAction, DriftSample, DriftTracker};
use crate::engine::{Engine, IngestOutcome};
use crate::http::{retry_after_value, Response};
use crate::wal::{self, DiskStorage, Kind, Record, Storage, WalWriter};

/// The tenant requests land on when no `X-Isum-Tenant` header is sent.
pub const DEFAULT_TENANT: &str = "default";

/// How long an ingest connection waits for its batch to be applied
/// before giving up with a 503 (the batch itself is not lost).
const INGEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Validates a tenant name the same way on both ends of the wire: the
/// server rejects bad names with a typed 400, and `isum client --tenant`
/// refuses to send them at all. Names must be non-empty, at most 64
/// bytes, all visible ASCII (no spaces or control bytes — they would ride
/// in an HTTP header), and must not contain `/` (they appear in
/// checkpoint-derived contexts and metrics labels).
pub fn validate_tenant(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("must be non-empty".into());
    }
    if name.len() > 64 {
        return Err("must be at most 64 bytes".into());
    }
    if !name.bytes().all(|b| (0x21..=0x7e).contains(&b)) {
        return Err("must be visible ASCII (no spaces or control bytes)".into());
    }
    if name.contains('/') {
        return Err("must not contain `/`".into());
    }
    Ok(())
}

/// Mirror cells a shard's hot paths update so `/status`, `/healthz`, and
/// `/metrics` can answer without touching the worker threads. Strictly
/// observation-only: nothing reads these back into any decision.
#[derive(Default)]
pub(crate) struct ShardCells {
    /// Ingest jobs accepted into this queue and not yet received.
    pub queue_depth: AtomicU64,
    /// High-water mark (next expected `seq`).
    pub next_seq: AtomicU64,
    /// Queries observed by this shard's engine.
    pub observed: AtomicU64,
    /// Distinct templates in this shard's engine.
    pub templates: AtomicU64,
    /// Last drift score in parts-per-million; `-1` = no sample yet.
    pub drift_score_ppm: AtomicI64,
    /// Observations currently in the drift window.
    pub drift_window_len: AtomicU64,
    /// Threshold crossings since startup.
    pub drift_alerts: AtomicU64,
    /// Monotone engine-state version: bumped on every apply and every
    /// re-summarization. The `/summary` render cache keys on it, so any
    /// state change invalidates cached documents without coordination.
    pub state_version: AtomicU64,
    /// Drift-triggered re-summarizations since startup.
    pub resummarizes: AtomicU64,
    /// Total wall-clock ms spent re-summarizing since startup.
    pub resummarize_total_ms: AtomicU64,
    /// Wall-clock ms of the last re-summarization; `0` = never.
    pub last_resummarize_unix_ms: AtomicU64,
    /// WAL record watermark: the `wal_seq` the next append gets.
    pub wal_seq: AtomicU64,
    /// `wal_seq` of the oldest record still on disk.
    pub wal_oldest_seq: AtomicU64,
    /// Bytes across the live WAL segments (headers included).
    pub wal_bytes: AtomicU64,
    /// Live WAL segments, the active one included; `0` without a WAL.
    pub wal_segments: AtomicU64,
    /// Wall-clock ms of the last WAL fsync; `0` = never. Annotates only.
    pub wal_last_fsync_unix_ms: AtomicU64,
    /// Wall-clock ms of the last rotation; `0` = never. Annotates only.
    pub wal_last_rotation_unix_ms: AtomicU64,
    /// Total bytes ever appended to the WAL (monotone counter).
    pub wal_appended_bytes_total: AtomicU64,
    /// Segment rotations since startup.
    pub wal_rotations: AtomicU64,
    /// Rebase records logged since startup.
    pub wal_rebases: AtomicU64,
    /// WAL fsync latencies in nanoseconds (`isum_wal_fsync_seconds`).
    pub wal_fsync_hist: Histogram,
    /// Per-stage latencies in nanoseconds of the requests this shard
    /// served, indexed by [`Stage`] (`isum_stage_seconds`).
    pub stage_hists: [Histogram; STAGES.len()],
}

/// One shard: a name, its state, a bounded queue, and its worker's
/// observable state.
pub(crate) struct Shard {
    pub name: String,
    /// The shard lock: readers render from the engine inside, the worker
    /// applies records to it.
    pub state: Mutex<ShardState>,
    /// The sending half of the worker's bounded queue; `None` once drain
    /// begins — closing the channel is what lets the worker drain to
    /// empty and exit.
    queue: Mutex<Option<SyncSender<Job>>>,
    pub cells: ShardCells,
    /// Rendered `/summary` cache: `(state_version, k, document)`. One
    /// entry suffices — pollers overwhelmingly ask for one `k` — and the
    /// version key makes staleness impossible: any ingest or
    /// re-summarization bumps `state_version`, so the next read recomputes.
    summary_cache: Mutex<Option<(u64, usize, Json)>>,
}

impl Shard {
    fn new(name: &str, state: ShardState, queue: Option<SyncSender<Job>>) -> Arc<Shard> {
        let cells = ShardCells::default();
        cells.drift_score_ppm.store(-1, Ordering::Relaxed);
        Arc::new(Shard {
            name: name.to_string(),
            state: Mutex::new(state),
            queue: Mutex::new(queue),
            cells,
            summary_cache: Mutex::new(None),
        })
    }

    /// Answers `GET /summary` for this shard, reusing the cached rendered
    /// document when the engine has not changed since it was built. The
    /// shard lock is held across the version read and the (re)render, so
    /// a concurrent apply cannot publish a version the cached document
    /// does not reflect.
    pub(crate) fn summary_json_cached(&self, k: usize) -> isum_common::Result<Json> {
        let state = lock(&self.state);
        let version = self.cells.state_version.load(Ordering::Acquire);
        {
            let cache = lock(&self.summary_cache);
            if let Some((v, ck, doc)) = cache.as_ref() {
                if *v == version && *ck == k {
                    count!("server.summary.cache_hits");
                    return Ok(doc.clone());
                }
            }
        }
        count!("server.summary.cache_misses");
        let doc = state.engine.summary_json(k)?;
        *lock(&self.summary_cache) = Some((version, k, doc.clone()));
        Ok(doc)
    }

    /// Folds one finished request's stage timeline into this shard's
    /// latency histograms: every *recorded* stage contributes one sample
    /// (absent stages contribute nothing, so a read-only endpoint never
    /// pollutes the WAL stages). Observation-only, post-response.
    pub(crate) fn observe_stages(&self, clock: &StageClock) {
        for stage in STAGES {
            if let Some(d) = clock.get(stage) {
                self.cells.stage_hists[stage as usize].record_duration(d);
            }
        }
    }
}

/// One queued client batch, admitted by the shard worker that receives it.
struct Job {
    seq: Option<u64>,
    script: String,
    request_id: String,
    /// The request's timeline; the worker stamps queue wait, sequencing,
    /// WAL append/fsync, and apply onto it.
    clock: Arc<StageClock>,
    reply: SyncSender<Response>,
}

/// The shard router: owns every shard and their worker threads.
pub(crate) struct ShardRouter {
    cfg: Arc<ServerConfig>,
    /// Shards by name; `BTreeMap` so every iteration (status, metrics,
    /// merge) walks shards in one deterministic order.
    shards: Mutex<BTreeMap<String, Arc<Shard>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ShardRouter {
    /// Recovers every discoverable shard (replay of its WAL segments) and
    /// spawns one worker per shard. Fails on WAL corruption, and on logs
    /// this release would not read — refusing to serve beats silently
    /// dropping acknowledged history.
    pub(crate) fn start(cfg: Arc<ServerConfig>) -> io::Result<ShardRouter> {
        let router = ShardRouter {
            cfg: Arc::clone(&cfg),
            shards: Mutex::new(BTreeMap::new()),
            threads: Mutex::new(Vec::new()),
        };
        let files = cfg.checkpoint.as_deref().map(state_files).unwrap_or_default();
        refuse_retired_layouts(&files)?;
        router.create_shard(DEFAULT_TENANT)?;
        for tenant in tenants_of(&files) {
            router.create_shard(&tenant)?;
        }
        Ok(router)
    }

    /// Shards in name order.
    pub(crate) fn shards(&self) -> Vec<Arc<Shard>> {
        lock(&self.shards).values().cloned().collect()
    }

    /// The shard named `name`, if it exists.
    pub(crate) fn shard_named(&self, name: &str) -> Option<Arc<Shard>> {
        lock(&self.shards).get(name).cloned()
    }

    /// The only shard, when exactly one exists — the fast path every
    /// pre-sharding behavior (and its bit-identity contract) rides on.
    pub(crate) fn single(&self) -> Option<Arc<Shard>> {
        let shards = lock(&self.shards);
        if shards.len() == 1 {
            shards.values().next().cloned()
        } else {
            None
        }
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        lock(&self.shards).len()
    }

    /// The deterministic cross-shard merge of every shard's partial sums
    /// (see [`isum_core::merge_partials`] for the determinism contract).
    pub(crate) fn merged(&self) -> MergedWorkload {
        let shards = self.shards();
        let partials: Vec<_> =
            shards.iter().map(|s| lock(&s.state).engine.shard_partial()).collect();
        merge_partials(&partials)
    }

    /// Enqueues one ingest batch on `shard` and waits for the worker's
    /// answer.
    pub(crate) fn ingest(
        &self,
        shard: &Shard,
        seq: Option<u64>,
        script: String,
        request_id: String,
        clock: Arc<StageClock>,
    ) -> Response {
        let (reply, answer) = mpsc::sync_channel::<Response>(1);
        let job = Job { seq, script, request_id, clock, reply };
        if let Err(resp) = enqueue(shard, job) {
            return resp;
        }
        answer.recv_timeout(INGEST_TIMEOUT).unwrap_or_else(|_| {
            count!("server.ingest.timeouts");
            retryable(503, "batch not applied within the ingest timeout; retry with the same seq")
        })
    }

    /// The tenant's shard, created on first contact.
    pub(crate) fn shard_for_tenant(&self, tenant: &str) -> Result<Arc<Shard>, Response> {
        if let Some(shard) = self.shard_named(tenant) {
            return Ok(shard);
        }
        if self.shard_count() >= self.cfg.max_tenants {
            count!("server.shards.tenant_cap");
            return Err(retryable(
                429,
                &format!(
                    "tenant cap reached ({} shards); retire a tenant or raise the cap",
                    self.cfg.max_tenants
                ),
            ));
        }
        self.create_shard(tenant)
            .map_err(|e| retryable(503, &format!("could not create shard for tenant: {e}")))
    }

    /// Creates and registers one shard (recovering its log if present)
    /// and spawns its worker thread. Racing creators for the same name
    /// converge on the first registration.
    fn create_shard(&self, name: &str) -> io::Result<Arc<Shard>> {
        let mut shards = lock(&self.shards);
        if let Some(existing) = shards.get(name) {
            return Ok(Arc::clone(existing));
        }
        let cfg = &self.cfg;
        let base = cfg.checkpoint.as_ref().map(|stem| log_base(stem, name));
        let (state, wal) = recover_shard_state(DiskStorage, cfg, name, base.as_deref())?;
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap);
        let worker = Worker::start(Arc::clone(cfg), Shard::new(name, state, Some(tx)), wal);
        let shard = Arc::clone(&worker.shard);
        let next_seq = shard.cells.next_seq.load(Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("isum-shard-{name}"))
            .spawn(move || worker.run(rx))?;
        lock(&self.threads).push(handle);
        shards.insert(name.to_string(), Arc::clone(&shard));
        isum_common::info!("server.shards", format!("shard `{name}` online"), seq = next_seq);
        Ok(shard)
    }

    /// Graceful drain: stops accepting, lets every queue empty, and joins
    /// every thread — the log already holds everything acknowledged.
    pub(crate) fn drain(&self) {
        for shard in self.shards() {
            *lock(&shard.queue) = None;
        }
        let handles: Vec<_> = lock(&self.threads).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Renders the tenant-labeled `isum_shard_*` Prometheus families
    /// appended to `GET /metrics`. Every sample goes through
    /// [`telemetry::labeled_sample`], so hostile tenant names cannot
    /// corrupt the exposition.
    pub(crate) fn render_shard_metrics(&self, out: &mut String) {
        use std::fmt::Write as _;
        type Family = (&'static str, &'static str, &'static str, fn(&ShardCells) -> i64);
        fn load(cell: &AtomicU64) -> i64 {
            cell.load(Ordering::Relaxed) as i64
        }
        let families: [Family; 13] = [
            ("isum_shard_observed", "gauge", "Queries observed by the shard.", |c| {
                load(&c.observed)
            }),
            ("isum_shard_templates", "gauge", "Distinct templates in the shard.", |c| {
                load(&c.templates)
            }),
            ("isum_shard_queue_depth", "gauge", "Queued ingest jobs on the shard.", |c| {
                load(&c.queue_depth)
            }),
            ("isum_shard_next_seq", "gauge", "Shard sequencer high-water mark.", |c| {
                load(&c.next_seq)
            }),
            (
                "isum_shard_drift_score_ppm",
                "gauge",
                "Last drift score in ppm (-1 before any sample).",
                |c| c.drift_score_ppm.load(Ordering::Relaxed),
            ),
            ("isum_shard_drift_alerts", "counter", "Drift threshold crossings.", |c| {
                load(&c.drift_alerts)
            }),
            (
                "isum_wal_appended_bytes_total",
                "counter",
                "Bytes appended to the shard's write-ahead log.",
                |c| load(&c.wal_appended_bytes_total),
            ),
            ("isum_wal_bytes", "gauge", "Bytes across the shard's live WAL segments.", |c| {
                load(&c.wal_bytes)
            }),
            ("isum_wal_segments", "gauge", "Live WAL segments of the shard.", |c| {
                load(&c.wal_segments)
            }),
            ("isum_wal_rotations_total", "counter", "WAL segments closed and succeeded.", |c| {
                load(&c.wal_rotations)
            }),
            (
                "isum_wal_rebases_total",
                "counter",
                "Rebase records logged (older segments unlinked).",
                |c| load(&c.wal_rebases),
            ),
            (
                "isum_shard_resummarizes_total",
                "counter",
                "Drift-triggered re-summarizations of the shard.",
                |c| load(&c.resummarizes),
            ),
            (
                "isum_shard_resummarize_ms_total",
                "counter",
                "Wall-clock milliseconds spent re-summarizing.",
                |c| load(&c.resummarize_total_ms),
            ),
        ];
        let shards = self.shards();
        for (name, kind, help, value) in families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for s in &shards {
                let labels = [("tenant", s.name.as_str())];
                out.push_str(&telemetry::labeled_sample(name, &labels, value(&s.cells)));
            }
        }
        let _ = writeln!(out, "# HELP isum_wal_fsync_seconds WAL append fsync latency.");
        let _ = writeln!(out, "# TYPE isum_wal_fsync_seconds histogram");
        // The histograms hold nanoseconds; the families are in seconds.
        for s in &shards {
            let labels = [("tenant", s.name.as_str())];
            let fsync = s.cells.wal_fsync_hist.snap();
            fsync.write_prometheus(out, "isum_wal_fsync_seconds", &labels, 1e9);
        }
        let _ = writeln!(out, "# HELP isum_stage_seconds Per-request pipeline stage latency.");
        let _ = writeln!(out, "# TYPE isum_stage_seconds histogram");
        for s in &shards {
            for stage in STAGES {
                let labels = [("tenant", s.name.as_str()), ("stage", stage.as_str())];
                let hist = s.cells.stage_hists[stage as usize].snap();
                hist.write_prometheus(out, "isum_stage_seconds", &labels, 1e9);
            }
        }
    }

    /// Total observed queries across all shards.
    pub(crate) fn observed_total(&self) -> u64 {
        self.shards().iter().map(|s| s.cells.observed.load(Ordering::Relaxed)).sum()
    }

    /// Sum of per-shard distinct-template counts. Shards can share
    /// templates, so across shards this is an upper bound on the merged
    /// distinct count — `/summary`'s merged document reports the exact
    /// one.
    pub(crate) fn templates_total(&self) -> u64 {
        self.shards().iter().map(|s| s.cells.templates.load(Ordering::Relaxed)).sum()
    }

    /// Queue depth summed over every shard.
    pub(crate) fn queue_depth_total(&self) -> u64 {
        self.shards().iter().map(|s| s.cells.queue_depth.load(Ordering::Relaxed)).sum()
    }

    /// The `seq` the `/status` document leads with: the maximum shard
    /// mark (equal to the only shard's mark single-tenant).
    pub(crate) fn lead_seq(&self) -> u64 {
        self.shards().iter().map(|s| s.cells.next_seq.load(Ordering::Relaxed)).max().unwrap_or(0)
    }
}

/// Offers `job` to the shard's bounded queue without blocking: a closed
/// queue is a drain in progress (503), a full one is backpressure (429
/// with `Retry-After`).
fn enqueue(shard: &Shard, job: Job) -> Result<(), Response> {
    let sent = match lock(&shard.queue).as_ref() {
        Some(tx) => tx.try_send(job),
        None => Err(TrySendError::Disconnected(job)),
    };
    match sent {
        Ok(()) => {
            shard.cells.queue_depth.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        Err(TrySendError::Full(_)) => {
            count!("server.backpressure");
            Err(retryable(429, "ingest queue is full; retry shortly"))
        }
        Err(TrySendError::Disconnected(_)) => Err(Response::error(503, "server is shutting down")),
    }
}

/// A retryable failure: the status plus a jittered `Retry-After`.
fn retryable(status: u16, message: &str) -> Response {
    Response::error(status, message).with_header("Retry-After", &retry_after_value(1))
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Wall-clock milliseconds since the Unix epoch — used only to annotate
/// `/status`, never in any data-path decision.
fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// The file name of the stem with its extension dropped (`ckpt.json` →
/// `ckpt`, extensionless `ckpt` as is): what every log name next to the
/// stem starts with.
fn stem_base(stem: &Path) -> &str {
    let file = stem.file_name().and_then(|f| f.to_str()).unwrap_or("checkpoint");
    file.rsplit_once('.').map_or(file, |(base, _ext)| base)
}

/// The log base of shard `name` under checkpoint stem `stem`:
/// `<base>.wal` for the default tenant and `<base>.t-<hex(name)>.wal` for
/// every other, where `<base>` is [`stem_base`]. Segments are
/// `<log base>.<n>`; nothing is written at the stem itself.
pub(crate) fn log_base(stem: &Path, name: &str) -> PathBuf {
    let base = stem_base(stem);
    if name == DEFAULT_TENANT {
        stem.with_file_name(format!("{base}.wal"))
    } else {
        stem.with_file_name(format!("{base}.t-{}.wal", hex_of(name)))
    }
}

fn hex_of(name: &str) -> String {
    name.bytes().map(|b| format!("{b:02x}")).collect()
}

fn unhex_name(hex: &str) -> Option<String> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let bytes: Option<Vec<u8>> =
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok()).collect();
    String::from_utf8(bytes?).ok()
}

/// A file next to the stem that holds some shard's state.
struct StateFile {
    /// The shard tag in its name (`t-<hex>`, `h<i>`); empty for the
    /// default tenant.
    tag: String,
    name: String,
    /// A v1 snapshot (`<stem>`, `<stem>.prev`) or single-file log
    /// (`<base>.wal`), or a tenant's equivalent: what releases before
    /// segment logs wrote.
    v1: bool,
}

/// Every state file next to `stem` except the default tenant's segments,
/// in file name order: tagged segments `<base>.<tag>.wal.<n>`, and the v1
/// files of the default tenant and of every tagged shard. `*.imported`
/// files — what an earlier release's v1 import renamed aside — are not
/// state.
fn state_files(stem: &Path) -> Vec<StateFile> {
    let Some(file) = stem.file_name().and_then(|f| f.to_str()) else {
        return Vec::new();
    };
    let base = stem_base(stem);
    let ext = &file[base.len()..];
    let default_v1 = [file.to_string(), format!("{file}.prev"), format!("{base}.wal")];
    let shard_tag = |tag: &str| tag.starts_with("t-") || is_hashed_tag(tag);
    let Ok(entries) = std::fs::read_dir(wal::dir_of(stem)) else {
        return Vec::new();
    };
    let mut files = Vec::new();
    for entry in entries.flatten() {
        let Ok(name) = entry.file_name().into_string() else { continue };
        if name.ends_with(".imported") {
            continue;
        }
        if default_v1.contains(&name) {
            files.push(StateFile { tag: String::new(), name, v1: true });
            continue;
        }
        let Some(rest) = name.strip_prefix(base).and_then(|r| r.strip_prefix('.')) else {
            continue;
        };
        let (tag, kind) = rest.split_at(rest.find('.').unwrap_or(rest.len()));
        let v1 = kind == ext || kind == format!("{ext}.prev") || kind == ".wal";
        if shard_tag(tag) && (v1 || wal::segment_number(".wal", kind).is_some()) {
            files.push(StateFile { tag: tag.to_string(), name, v1 });
        }
    }
    files.sort_by(|a, b| a.name.cmp(&b.name));
    files
}

/// `h<digits>`: the shard tag of the retired hashed mode (`--shards n`).
fn is_hashed_tag(tag: &str) -> bool {
    tag.strip_prefix('h').is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
}

/// Tenants with a `t-<hex>` log among `files`, so a restart resurrects
/// every tenant that was ever acknowledged a batch.
fn tenants_of(files: &[StateFile]) -> Vec<String> {
    let mut tenants: Vec<String> = files
        .iter()
        .filter_map(|f| unhex_name(f.tag.strip_prefix("t-")?))
        .filter(|tenant| validate_tenant(tenant).is_ok() && tenant != DEFAULT_TENANT)
        .collect();
    tenants.sort();
    tenants.dedup();
    tenants
}

/// Refuses to start next to files of a retired layout, naming every one
/// and saying how to proceed — serving without them would silently drop
/// acknowledged history. Two layouts are retired: the v1 files of
/// releases that compacted the log into snapshots (no shard of this
/// release reads them), and the logs of hashed mode (`--shards n`), whose
/// `h<i>` tag no tenant log carries.
fn refuse_retired_layouts(files: &[StateFile]) -> io::Result<()> {
    let v1: Vec<&str> = files.iter().filter(|f| f.v1).map(|f| f.name.as_str()).collect();
    let hashed: Vec<&StateFile> = files.iter().filter(|f| !f.v1 && is_hashed_tag(&f.tag)).collect();
    if v1.is_empty() && hashed.is_empty() {
        return Ok(());
    }
    let mut found = Vec::new();
    if !v1.is_empty() {
        found.push(format!(
            "v1 snapshots and single-file logs: {}; start that directory once under a release \
             that imports v1 state (it rewrites it as segments and renames these files \
             `*.imported`), or move them aside to start without that history",
            v1.join(", ")
        ));
    }
    if !hashed.is_empty() {
        let names: Vec<&str> = hashed.iter().map(|f| f.name.as_str()).collect();
        // Sorted by file name, so one shard's files — one tag — are adjacent.
        let mut renames: Vec<String> =
            hashed.iter().map(|f| format!("{} -> t-{}", f.tag, hex_of(&f.tag))).collect();
        renames.dedup();
        found.push(format!(
            "logs of the hashed mode (--shards): {}; a hashed shard's log is an ordinary tenant \
             log: rename the tag in each file name ({}) and the merged /summary over those \
             tenants is what hashed mode served",
            names.join(", "),
            renames.join(", ")
        ));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("found state files of retired layouts: {}", found.join("; and ")),
    ))
}

// ---------------------------------------------------------------------
// The state machine: every record, live or replayed, goes through `apply`
// ---------------------------------------------------------------------

/// A shard's state as its records dictate it. [`ShardState::apply`] is
/// the only way to change it: a live batch, a live rebase and log replay
/// all fold records through it, so a replayed log rebuilds exactly the
/// state the live shard served.
pub(crate) struct ShardState {
    pub(crate) engine: Engine,
    /// The sequencer high-water mark: the only `seq` admitted as fresh.
    next_seq: u64,
    /// Fed every applied batch, live and on replay, so a restart cannot
    /// re-fire an alert the pre-restart run already raised.
    drift: DriftTracker,
    /// Window length of the drift crossing the *latest* record caused, if
    /// it caused one: what a rebase under `ISUM_DRIFT_ACTION=resummarize`
    /// acts on. Inside the log only rebase records change history (a
    /// restart under a different `ISUM_DRIFT_*` must not rewrite it), so a
    /// crossing replay meets is acted on only when the log ends there.
    crossed: Option<usize>,
}

impl ShardState {
    fn new(cfg: &ServerConfig) -> ShardState {
        ShardState {
            engine: Engine::new(cfg.catalog.clone(), cfg.isum),
            next_seq: 0,
            drift: DriftTracker::new(cfg.drift_window, cfg.drift_threshold),
            crossed: None,
        }
    }

    /// Applies one record. A batch goes through the lenient path
    /// (rejects re-reject, accepts re-apply, bit-identically), advances
    /// the mark past its `seq`, and feeds the drift tracker what it
    /// observed; the tracker's sample comes back with the outcome. A
    /// rebase replaces the engine's history with exactly its statements,
    /// rebuilds the tracker's history from theirs, re-arms it and sets
    /// the mark it carries; its outcome counts the queries kept.
    fn apply(&mut self, record: &Record) -> (IngestOutcome, Option<DriftSample>) {
        match record.kind {
            Kind::Batch => {
                let outcome = self.engine.apply_statements(&record.stmts);
                if let Some(s) = record.seq {
                    self.next_seq = self.next_seq.max(s + 1);
                }
                let sample = self.drift.on_batch(&outcome.observations);
                self.crossed = sample.filter(|s| s.crossed).map(|s| s.window_len);
                (outcome, sample)
            }
            Kind::Rebase => {
                let outcome = self.engine.rebase(&record.stmts);
                self.drift.reset_after_resummarize(&outcome.observations);
                self.next_seq = record.seq.unwrap_or(0);
                self.crossed = None;
                (outcome, None)
            }
        }
    }

    /// The rebase record that answers a pending drift crossing: the
    /// crossing window's statements, under the current mark.
    fn rebase_record(&self, shard: &str) -> Option<Record> {
        let window_len = self.crossed?;
        Some(Record {
            kind: Kind::Rebase,
            wal_seq: 0,
            seq: Some(self.next_seq),
            shard: shard.to_string(),
            stmts: self.engine.last_statements(window_len),
        })
    }
}

/// Recovers one shard: replays every segment of its log at `base`, in
/// order, through [`ShardState::apply`] into a fresh state, and opens the
/// log for appending. A drift crossing the log ends on stays in the
/// state for the worker to act on. A corrupt log is the only fatal case.
fn recover_shard_state<S: Storage>(
    storage: S,
    cfg: &ServerConfig,
    name: &str,
    base: Option<&Path>,
) -> io::Result<(ShardState, Option<WalWriter<S>>)> {
    let mut state = ShardState::new(cfg);
    let Some(base) = base else {
        return Ok((state, None));
    };
    let named = |e: io::Error| io::Error::new(e.kind(), format!("shard `{name}`: {e}"));
    let start = Instant::now();
    let mut statements = 0u64;
    let end = wal::replay(&storage, base, name, |record| {
        statements += record.stmts.len() as u64;
        state.apply(&record);
    })
    .map_err(named)?;
    if end.torn {
        // `replay` already warned with the byte offset; the counter makes
        // crash-repair visible to telemetry-only observers.
        count!("server.wal.torn_repairs");
    }
    let (segments, records) = (end.segments.len(), end.records());
    let writer = WalWriter::open(storage, base, cfg.wal_segment_bytes, end).map_err(named)?;
    count!("server.recovery.replayed_statements", statements);
    isum_common::info!(
        "server.wal",
        format!("recovered shard `{name}` from {}", base.display()),
        segments = segments,
        records = records,
        statements = statements,
        seconds = format!("{:.3}", start.elapsed().as_secs_f64()),
        next_seq = state.next_seq
    );
    Ok((state, Some(writer)))
}

// ---------------------------------------------------------------------
// The request pipeline: admit → log → apply → ack
// ---------------------------------------------------------------------

/// One shard's worker: the only code that changes a live shard. Generic
/// over the log's storage so that tests can drive the live path over a
/// file system that loses power; the daemon runs it on [`DiskStorage`].
struct Worker<S: Storage = DiskStorage> {
    cfg: Arc<ServerConfig>,
    shard: Arc<Shard>,
    wal: Option<WalWriter<S>>,
}

/// Strict-`seq` admission, a function of the batch's `seq` and the
/// shard's high-water mark `next_seq` (`tenant` only labels the event).
/// `None` admits the batch: it sits at the mark, or is unsequenced.
/// `Some` is the answer for a batch that must not be applied: a
/// retryable 503 ahead of the mark (holding the batch would pin its
/// connection's thread), a `duplicate` ack below it (already applied).
fn admit(tenant: &str, seq: Option<u64>, next_seq: u64) -> Option<Response> {
    let seq = seq.filter(|&s| s != next_seq)?;
    if seq > next_seq {
        count!("server.ingest.out_of_order");
        isum_common::debug!(
            "server.ingest",
            "batch ahead of the stream; told to retry",
            tenant = tenant,
            seq = seq,
            next_seq = next_seq
        );
        let why = format!("seq {seq} is ahead of the stream (next is {next_seq}); retry shortly");
        return Some(Response::error(503, &why).with_header("Retry-After", "0"));
    }
    count!("server.ingest.duplicates");
    isum_common::debug!(
        "server.ingest",
        "batch below the high-water mark; not re-applied",
        tenant = tenant,
        seq = seq,
        next_seq = next_seq
    );
    let fields =
        vec![("applied".into(), Json::from(0u64)), ("next_seq".into(), Json::from(next_seq))];
    Some(ack(Some(seq), "duplicate", fields))
}

/// Counts a batch as admitted for application and splits it exactly the
/// way `Engine::apply_script` would, so the logged statements replay
/// bit-identically through `apply_statements` at recovery.
fn split_batch(script: &str) -> Vec<(String, Option<f64>)> {
    count!("server.ingest.batches");
    let (sqls, costs) = split_script(script);
    sqls.into_iter().zip(costs).collect()
}

/// The 200 ack: `status` and the batch's `seq`, then `fields`.
fn ack(seq: Option<u64>, status: &str, fields: Vec<(String, Json)>) -> Response {
    let mut all = vec![("status".into(), Json::from(status))];
    if let Some(s) = seq {
        all.push(("seq".into(), Json::from(s)));
    }
    all.extend(fields);
    Response::json(200, &Json::Obj(all))
}

impl<S: Storage> Worker<S> {
    /// The worker of a recovered shard: acts on a drift crossing its log
    /// ended on (a crash between the crossing batch's fsync and the
    /// rebase's) through the live rebase step, then publishes the cells.
    fn start(cfg: Arc<ServerConfig>, shard: Arc<Shard>, wal: Option<WalWriter<S>>) -> Worker<S> {
        let mut worker = Worker { cfg, shard, wal };
        worker.rebase_on_crossing();
        publish_state_cells(&worker.shard, &lock(&worker.shard.state));
        if let Some(w) = &worker.wal {
            publish_wal_cells(&worker.shard.cells, w);
        }
        worker
    }

    /// Serves the queue strictly in order until it closes. Nothing is
    /// left to do then: every acknowledged batch is already in the log.
    fn run(mut self, rx: Receiver<Job>) {
        for job in rx {
            self.shard.cells.queue_depth.fetch_sub(1, Ordering::Relaxed);
            let _rid = trace::with_request_id(&job.request_id);
            job.clock.stamp(Stage::Queue);
            let answer = self.ingest(job.seq, &job.script, &job.clock);
            let _ = job.reply.try_send(answer);
        }
    }

    /// One client batch, end to end: admit, log, apply, raise the drift
    /// alert, re-summarize on a crossing, ack.
    fn ingest(&mut self, seq: Option<u64>, script: &str, clock: &StageClock) -> Response {
        let shard = Arc::clone(&self.shard);
        let next_seq = lock(&shard.state).next_seq;
        if let Some(answer) = admit(&shard.name, seq, next_seq) {
            return answer;
        }
        let record = Record {
            kind: Kind::Batch,
            wal_seq: 0,
            seq,
            shard: shard.name.clone(),
            stmts: split_batch(script),
        };
        clock.stamp(Stage::Sequence);
        if !self.cfg.apply_delay.is_zero() {
            std::thread::sleep(self.cfg.apply_delay);
        }
        let (outcome, sample) = match self.log_and_apply(&record, clock) {
            Ok(applied) => applied,
            Err(e) => {
                isum_common::error!(
                    "server.wal",
                    format!("WAL append failed: {e}"),
                    tenant = shard.name,
                    seq = seq.map_or_else(|| "unsequenced".into(), |s| s.to_string())
                );
                let why = format!("write-ahead log append failed ({e}); batch not applied, retry");
                return retryable(503, &why);
            }
        };
        isum_common::debug!(
            "server.ingest",
            "batch applied",
            tenant = shard.name,
            observed = shard.cells.observed.load(Ordering::Relaxed)
        );
        if let Some(sample) = sample {
            publish_drift(&shard, &self.cfg, sample, seq);
        }
        self.rebase_on_crossing();
        let rejected = outcome.rejected.iter().map(|(i, reason)| {
            Json::Obj(vec![
                ("statement".into(), Json::from(*i)),
                ("error".into(), Json::from(reason.as_str())),
            ])
        });
        let fields = vec![
            ("applied".into(), Json::from(outcome.accepted)),
            ("total".into(), Json::from(outcome.total)),
            ("rejected".into(), Json::Arr(rejected.collect())),
            ("observed".into(), Json::from(shard.cells.observed.load(Ordering::Relaxed))),
        ];
        ack(seq, "ok", fields)
    }

    /// The durable step every record takes, a live batch or a rebase:
    /// log it and fsync (when the shard has a log), then apply it under
    /// the shard lock and publish the cells, each stamped on `clock`.
    /// Log-then-apply: a record is durable before any state changes, so
    /// an acked batch survives any crash, and `Err` — the record could
    /// not be logged — means nothing was applied (a failed append poisons
    /// the writer until restart).
    fn log_and_apply(
        &mut self,
        record: &Record,
        clock: &StageClock,
    ) -> io::Result<(IngestOutcome, Option<DriftSample>)> {
        let shard = &*self.shard;
        if let Some(w) = self.wal.as_mut() {
            let stats = w.append(record)?;
            publish_wal_cells(&shard.cells, w);
            let fsync = note_durable_write(&shard.cells, &stats);
            // The append stamp covers serialize+write+fsync; carve the
            // measured fsync share out so the two stages partition the
            // durability cost.
            clock.stamp(Stage::WalAppend);
            clock.shift(Stage::WalAppend, Stage::Fsync, fsync);
        }
        let applied = {
            let mut state = lock(&shard.state);
            let applied = state.apply(record);
            publish_state_cells(shard, &state);
            applied
        };
        clock.stamp(Stage::Apply);
        Ok(applied)
    }

    /// Drift-adaptive re-summarization, live and at start-up: when the
    /// latest record crossed the drift threshold under
    /// `ISUM_DRIFT_ACTION=resummarize`, rebuilds the shard over its most
    /// recent `window_len` accepted queries (behind the sequencer, so the
    /// adaptation is deterministic for a fixed request stream). The
    /// retained statements become a rebase record that takes the same
    /// durable step as a batch; the segments before it are unlinked
    /// after. Readers only ever observe the shard before or after (never
    /// during) the rebuild. If the record cannot be logged the shard
    /// keeps its history (and its poisoned writer refuses further ingest
    /// until a restart, which finds the crossing at the end of the log
    /// and rebases then).
    fn rebase_on_crossing(&mut self) {
        if self.cfg.drift_action != DriftAction::Resummarize {
            return;
        }
        let shard = Arc::clone(&self.shard);
        let start = Instant::now();
        let Some(record) = lock(&shard.state).rebase_record(&shard.name) else { return };
        // A rebase is no request's stage: its clock is read by nobody.
        let kept = match self.log_and_apply(&record, &StageClock::new()) {
            Ok((outcome, _)) => outcome.accepted,
            Err(e) => {
                isum_common::error!(
                    "server.wal",
                    format!("could not log the rebase record, history kept: {e}"),
                    tenant = shard.name
                );
                return;
            }
        };
        if let Some(w) = self.wal.as_mut() {
            shard.cells.wal_rebases.fetch_add(1, Ordering::Relaxed);
            w.retire_rebased();
            publish_wal_cells(&shard.cells, w);
        }
        let ms = start.elapsed().as_millis() as u64;
        shard.cells.drift_window_len.store(0, Ordering::Relaxed);
        shard.cells.resummarizes.fetch_add(1, Ordering::Relaxed);
        shard.cells.resummarize_total_ms.fetch_add(ms, Ordering::Relaxed);
        shard.cells.last_resummarize_unix_ms.store(unix_ms(), Ordering::Relaxed);
        count!("drift.resummarizes");
        isum_common::info!(
            "server.drift",
            format!("re-summarized over the recent window ({kept} queries kept) in {ms} ms"),
            tenant = shard.name
        );
    }
}

/// Publishes the state's observable counters and mark into the shard's
/// mirror cells and bumps the state version that invalidates the
/// `/summary` render cache (caller holds the shard lock).
fn publish_state_cells(shard: &Shard, state: &ShardState) {
    shard.cells.observed.store(state.engine.observed() as u64, Ordering::Relaxed);
    shard.cells.templates.store(state.engine.template_count() as u64, Ordering::Relaxed);
    shard.cells.next_seq.store(state.next_seq, Ordering::Relaxed);
    shard.cells.state_version.fetch_add(1, Ordering::Release);
}

/// Publishes the log's position and size into the shard's mirror cells.
fn publish_wal_cells<S: Storage>(cells: &ShardCells, w: &WalWriter<S>) {
    cells.wal_seq.store(w.next_wal_seq(), Ordering::Relaxed);
    cells.wal_oldest_seq.store(w.oldest_wal_seq(), Ordering::Relaxed);
    cells.wal_bytes.store(w.bytes(), Ordering::Relaxed);
    cells.wal_segments.store(w.segments(), Ordering::Relaxed);
}

/// Accounts one durable log write: its bytes, its fsync, and the
/// rotations that went with it. Returns the time spent in fsyncs.
fn note_durable_write(cells: &ShardCells, stats: &wal::AppendStats) -> Duration {
    let now = unix_ms();
    cells.wal_last_fsync_unix_ms.store(now, Ordering::Relaxed);
    cells.wal_appended_bytes_total.fetch_add(stats.bytes, Ordering::Relaxed);
    cells.wal_fsync_hist.record_duration(stats.fsync);
    let mut spent = stats.fsync;
    for rotation in stats.rotations.into_iter().flatten() {
        cells.wal_fsync_hist.record_duration(rotation);
        cells.wal_rotations.fetch_add(1, Ordering::Relaxed);
        cells.wal_last_rotation_unix_ms.store(now, Ordering::Relaxed);
        spent += rotation;
    }
    spent
}

/// Publishes a live batch's drift sample (the `/status` mirror cells,
/// which `isum_shard_drift_score_ppm` also reads, and the telemetry
/// histogram) and emits the edge-triggered `warn!`
/// when the score first exceeds the threshold. Runs on the shard thread
/// with the submitting request's ID already installed, so the alert is
/// attributed to the batch that caused it. Replay publishes nothing: the
/// alerts fired before the crash.
fn publish_drift(shard: &Shard, cfg: &ServerConfig, sample: DriftSample, seq: Option<u64>) {
    let ppm = (sample.score * 1e6).round() as i64;
    shard.cells.drift_score_ppm.store(ppm, Ordering::Relaxed);
    shard.cells.drift_window_len.store(sample.window_len as u64, Ordering::Relaxed);
    isum_common::record!("drift.batch_score_ppm", ppm.max(0) as u64);
    if !sample.crossed {
        return;
    }
    shard.cells.drift_alerts.fetch_add(1, Ordering::Relaxed);
    count!("drift.alerts");
    isum_common::warn!(
        "server.drift",
        format!(
            "workload drift score {:.4} crossed threshold {:.4}; \
             recent templates diverge from the summarized history",
            sample.score, cfg.drift_threshold
        ),
        tenant = shard.name,
        seq = seq.map_or_else(|| "unsequenced".into(), |s| s.to_string()),
        window_len = sample.window_len,
        score_ppm = ppm
    );
}

#[cfg(test)]
mod tests;
