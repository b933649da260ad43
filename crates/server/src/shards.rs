//! Multi-tenant sharding and the one ingest pipeline every batch takes:
//! enqueue → admit → durable-apply → ack (DESIGN.md §13).
//!
//! # Streams and shards
//!
//! A *stream* is a bounded queue feeding one worker thread that admits
//! client batches in strict contiguous `seq` order. A *shard* is an
//! engine plus its durability files, mutated by exactly one thread.
//!
//! * **Tenant mode** (the default): every distinct `X-Isum-Tenant` header
//!   value owns one shard, and the shard's thread is also its stream —
//!   admission and durable-apply run back to back on the request's own
//!   stage clock. Requests without the header land on the `default`
//!   tenant, whose checkpoint stays at the exact configured path so a
//!   single-tenant deployment is indistinguishable from the pre-sharding
//!   daemon. Tenant streams are fully independent.
//! * **Hashed mode** (`ISUM_SHARDS=n` / `--shards n`): one *front* stream
//!   runs the same admission for the whole daemon, then splits each batch
//!   over `n` fixed shards `h0..h{n-1}` by the FNV-1a hash of each
//!   statement's *template fingerprint* (computed in parallel on the exec
//!   pool; unparseable statements hash their raw text) and acks the
//!   client only after every involved shard has run the same
//!   durable-apply step on its slice. Shards dedup slices monotonically
//!   (apply iff `seq >= shard_next`), which is what makes crash recovery
//!   converge: the restarted front resumes at the *maximum* shard
//!   high-water mark, and a retried below-maximum batch is still split
//!   and offered so lagging shards catch up while caught-up shards skip.
//!
//! # Durability layout
//!
//! Durability is WAL-first (DESIGN.md §14): every applied batch appends
//! one fsynced record to the shard's write-ahead log *before* the ack,
//! and the [`Engine`] snapshot is a periodic compaction artifact. With
//! checkpoint stem `dir/ckpt.json`:
//!
//! ```text
//! dir/ckpt.json                 default tenant snapshot (pre-sharding path)
//! dir/ckpt.wal                  default tenant WAL
//! dir/ckpt.t-<hex(tenant)>.json every other tenant (hex keeps names filesystem-safe)
//! dir/ckpt.t-<hex(tenant)>.wal  that tenant's WAL
//! dir/ckpt.h<i>.json            hashed shard i
//! dir/ckpt.h<i>.wal             hashed shard i's WAL
//! dir/ckpt.*.json.prev          the pre-compaction snapshot, kept for fallback
//! ```
//!
//! Startup scans the stem's directory for `.t-<hex>` siblings, so a
//! restart resurrects every tenant that ever checkpointed. Recovery per
//! shard = newest valid snapshot (quarantining a corrupt one and falling
//! back to `.prev`) + replay of the WAL tail through the normal observe
//! path, byte-identical to the never-crashed run.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use isum_common::stage::STAGES;
use isum_common::trace;
use isum_common::{count, telemetry, Json, Stage, StageClock};
use isum_core::{merge_partials, MergedWorkload};
use isum_workload::split_script;

use crate::config::ServerConfig;
use crate::drift::{DriftAction, DriftTracker};
use crate::engine::{Engine, IngestOutcome};
use crate::http::{retry_after_value, Response};
use crate::wal::{self, FsyncHist, WalWriter};

/// Marker bit for fault-injection keys of unsequenced batches, so they
/// draw from a different site-key space than `seq` numbers.
pub(crate) const UNSEQ_KEY_BASE: u64 = 1 << 63;

/// The tenant requests land on when no `X-Isum-Tenant` header is sent.
pub const DEFAULT_TENANT: &str = "default";

/// How shards are laid out; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// One shard per distinct tenant name, created on first ingest.
    Tenant,
    /// `n` fixed shards fed by hashing template fingerprints.
    Hashed(usize),
}

impl ShardMode {
    /// The name `/healthz` and `/status` report.
    pub fn as_str(self) -> &'static str {
        match self {
            ShardMode::Tenant => "tenant",
            ShardMode::Hashed(_) => "hashed",
        }
    }
}

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

/// Per-stage latency histograms (`isum_stage_seconds`): one fsync-style
/// lock-free histogram per pipeline stage. Strictly observation-only,
/// like every other mirror cell.
#[derive(Default)]
pub(crate) struct StageHist {
    hists: [FsyncHist; STAGES.len()],
}

impl StageHist {
    /// Folds one finished request's timeline in: every *recorded* stage
    /// contributes one sample (absent stages contribute nothing, so a
    /// read-only endpoint never pollutes the WAL stages).
    pub(crate) fn observe(&self, clock: &StageClock) {
        for stage in STAGES {
            if let Some(d) = clock.get(stage) {
                self.hists[stage as usize].observe(d);
            }
        }
    }
}

/// Mirror cells a stream's and a shard's hot paths update so `/status`,
/// `/healthz`, and `/metrics` can answer without touching the worker
/// threads. Strictly observation-only: nothing reads these back into any
/// decision. The hashed front stream owns a set too and only ever moves
/// the stream cells (`queue_depth`, `next_seq`, `stage_hist`).
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
    /// Wall-clock ms of the last successful checkpoint; `0` = never.
    pub last_checkpoint_unix_ms: AtomicU64,
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
    /// Current WAL file length in bytes (header included).
    pub wal_bytes: AtomicU64,
    /// Records appended since the last compaction.
    pub wal_records_since_compaction: AtomicU64,
    /// Wall-clock ms of the last WAL fsync; `0` = never. Annotates only.
    pub wal_last_fsync_unix_ms: AtomicU64,
    /// Wall-clock ms of the last compaction; `0` = never. Annotates only.
    pub wal_last_compaction_unix_ms: AtomicU64,
    /// Total bytes ever appended to the WAL (monotone counter).
    pub wal_appended_bytes_total: AtomicU64,
    /// Compactions since startup.
    pub wal_compactions: AtomicU64,
    /// WAL fsync latency histogram.
    pub wal_fsync_hist: FsyncHist,
    /// Per-stage latency histograms of the requests this stream served.
    pub stage_hist: StageHist,
    /// Monotonic-clock ms (see [`mono_ms`]) of the last successful
    /// checkpoint; `0` = never. Pairs with the wall-clock cell so
    /// `/status` can expose an age that survives clock steps.
    pub last_checkpoint_mono_ms: AtomicU64,
}

/// The sending half of a worker thread's bounded queue; `None` once
/// drain begins — closing the channel is what lets the worker drain to
/// empty and exit.
type Queue = Mutex<Option<SyncSender<Job>>>;

/// One shard: a name, an engine, a bounded queue, and its worker's
/// observable state.
pub(crate) struct Shard {
    pub name: String,
    pub engine: Mutex<Engine>,
    queue: Queue,
    pub cells: Arc<ShardCells>,
    pub checkpoint: Option<PathBuf>,
    /// Rendered `/summary` cache: `(state_version, k, document)`. One
    /// entry suffices — pollers overwhelmingly ask for one `k` — and the
    /// version key makes staleness impossible: any ingest or
    /// re-summarization bumps `state_version`, so the next read recomputes.
    summary_cache: Mutex<Option<(u64, usize, Json)>>,
    /// XOR-folded into fault-injection keys so distinct tenants draw
    /// independent deterministic fault decisions. `0` for the default
    /// tenant, keeping its keys equal to bare `seq` numbers (the contract
    /// the fault-injection suite pins).
    fault_salt: u64,
}

impl Shard {
    /// Answers `GET /summary` for this shard, reusing the cached rendered
    /// document when the engine has not changed since it was built. The
    /// engine lock is held across the version read and the (re)render, so
    /// a concurrent apply cannot publish a version the cached document
    /// does not reflect.
    pub(crate) fn summary_json_cached(&self, k: usize) -> isum_common::Result<Json> {
        let engine = lock(&self.engine);
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
        let doc = engine.summary_json(k)?;
        *lock(&self.summary_cache) = Some((version, k, doc.clone()));
        Ok(doc)
    }
}

/// One queued unit of work for a worker thread.
enum Job {
    /// A whole client batch, admitted by the stream that receives it.
    Batch {
        seq: Option<u64>,
        script: String,
        request_id: String,
        /// The request's timeline; the worker stamps queue wait,
        /// sequencing, WAL append/fsync, apply, and checkpoint onto it.
        clock: Arc<StageClock>,
        reply: SyncSender<Response>,
    },
    /// One shard's slice of a batch the hashed front stream already
    /// admitted: the shard dedups monotonically (apply iff
    /// `seq >= shard_next`) and never answers "ahead".
    Slice {
        seq: Option<u64>,
        stmts: Vec<(String, Option<f64>)>,
        request_id: String,
        reply: SyncSender<SliceOutcome>,
    },
}

/// What a shard reports back to the front stream for one slice.
struct SliceOutcome {
    /// `Ok(None)`: a monotone duplicate, nothing touched. `Err`: the
    /// shard could not log the slice durably — nothing was applied, and
    /// the front must answer a retryable 503 without advancing the stream.
    result: Result<Option<IngestOutcome>, String>,
    /// The slice's own timeline, stamped by the same durable-apply step
    /// that stamps the request's clock in tenant mode.
    clock: StageClock,
}

/// The hashed-mode front stream: the queue every client batch enters,
/// its mirror cells, and the thread that admits and fans out.
struct Front {
    queue: Queue,
    cells: Arc<ShardCells>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// The shard router: owns every shard, their worker threads, and (in
/// hashed mode) the front stream that sequences the global stream.
pub(crate) struct ShardRouter {
    cfg: Arc<ServerConfig>,
    /// Shards by name; `BTreeMap` so every iteration (status, metrics,
    /// merge) walks shards in one deterministic order.
    shards: Mutex<BTreeMap<String, Arc<Shard>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    front: Option<Front>,
}

impl ShardRouter {
    /// Builds the shard layout for `cfg`: recovers every discoverable
    /// shard (snapshot + WAL replay, quarantining a corrupt snapshot),
    /// spawns one worker per shard, and (in hashed mode) the front
    /// stream. Fails on mid-log WAL corruption — refusing to serve beats
    /// silently dropping acknowledged history.
    pub(crate) fn start(cfg: Arc<ServerConfig>) -> io::Result<ShardRouter> {
        let mut router = ShardRouter {
            cfg: Arc::clone(&cfg),
            shards: Mutex::new(BTreeMap::new()),
            threads: Mutex::new(Vec::new()),
            front: None,
        };
        match cfg.shards {
            ShardMode::Tenant => {
                router.create_shard(DEFAULT_TENANT)?;
                if let Some(stem) = &cfg.checkpoint {
                    for tenant in discover_tenant_checkpoints(stem) {
                        router.create_shard(&tenant)?;
                    }
                }
            }
            ShardMode::Hashed(n) => {
                let mut shards = Vec::with_capacity(n);
                for i in 0..n {
                    let shard = router.create_shard(&format!("h{i}"))?;
                    let tx = lock(&shard.queue).clone().expect("fresh shard has a sender");
                    shards.push((shard, tx));
                }
                // Resume the global stream at the furthest shard: retried
                // batches below it re-offer to the shards that lag.
                let next_seq = shards
                    .iter()
                    .map(|(s, _)| s.cells.next_seq.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0);
                let cells = Arc::new(ShardCells::default());
                cells.next_seq.store(next_seq, Ordering::Relaxed);
                let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap);
                let worker = Worker {
                    name: DEFAULT_TENANT.to_string(),
                    cfg,
                    cells: Arc::clone(&cells),
                    sequencer: Sequencer::resuming_at(next_seq, 0),
                    sink: Sink::FanOut(shards),
                };
                let thread = std::thread::Builder::new()
                    .name("isum-shard-router".into())
                    .spawn(move || worker.run(rx))?;
                router.front = Some(Front {
                    queue: Mutex::new(Some(tx)),
                    cells,
                    thread: Mutex::new(Some(thread)),
                });
            }
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
        let partials: Vec<_> = shards.iter().map(|s| lock(&s.engine).shard_partial()).collect();
        merge_partials(&partials)
    }

    /// Enqueues one ingest batch on the stream that sequences it — the
    /// front in hashed mode, else the tenant's shard (created on first
    /// contact) — and waits for the worker's answer.
    pub(crate) fn ingest(
        &self,
        tenant: &str,
        seq: Option<u64>,
        script: String,
        request_id: String,
        clock: Arc<StageClock>,
    ) -> Response {
        let (reply, answer) = mpsc::sync_channel::<Response>(1);
        let job = Job::Batch { seq, script, request_id, clock, reply };
        let queued = match &self.front {
            Some(front) => enqueue(&front.queue, &front.cells, job),
            None => self
                .shard_for_tenant(tenant)
                .and_then(|shard| enqueue(&shard.queue, &shard.cells, job)),
        };
        if let Err(resp) = queued {
            return resp;
        }
        answer.recv_timeout(self.cfg.ingest_timeout).unwrap_or_else(|_| {
            count!("server.ingest.timeouts");
            retryable(503, "batch not applied within the ingest timeout; retry with the same seq")
        })
    }

    /// Folds one finished request's stage timeline into the latency
    /// histograms of the stream that served it: the front in hashed mode
    /// (where the stream is global, not per-shard), else the tenant's
    /// shard. A tenant without a shard (e.g. a `/summary` for a name that
    /// never ingested) contributes nothing. Observation-only,
    /// post-response.
    pub(crate) fn observe_stages(&self, tenant: &str, clock: &StageClock) {
        match &self.front {
            Some(front) => front.cells.stage_hist.observe(clock),
            None => {
                if let Some(shard) = self.shard_named(tenant) {
                    shard.cells.stage_hist.observe(clock);
                }
            }
        }
    }

    /// The tenant's shard, created on first contact (tenant mode only).
    fn shard_for_tenant(&self, tenant: &str) -> Result<Arc<Shard>, Response> {
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

    /// Creates and registers one shard (restoring its checkpoint if
    /// present) and spawns its worker thread. Racing creators for the
    /// same name converge on the first registration.
    fn create_shard(&self, name: &str) -> io::Result<Arc<Shard>> {
        let mut shards = lock(&self.shards);
        if let Some(existing) = shards.get(name) {
            return Ok(Arc::clone(existing));
        }
        let cfg = &self.cfg;
        let checkpoint = cfg.checkpoint.as_ref().map(|stem| checkpoint_path_for(stem, name));
        let (engine, next_seq, wal, drift) = recover_shard_state(cfg, name, checkpoint.as_ref())?;
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap);
        let cells = ShardCells::default();
        cells.next_seq.store(next_seq, Ordering::Relaxed);
        cells.observed.store(engine.observed() as u64, Ordering::Relaxed);
        cells.templates.store(engine.template_count() as u64, Ordering::Relaxed);
        cells.drift_score_ppm.store(-1, Ordering::Relaxed);
        if let Some(w) = &wal {
            cells.wal_seq.store(w.next_wal_seq(), Ordering::Relaxed);
            cells.wal_bytes.store(w.len(), Ordering::Relaxed);
        }
        let shard = Arc::new(Shard {
            name: name.to_string(),
            engine: Mutex::new(engine),
            queue: Mutex::new(Some(tx)),
            cells: Arc::new(cells),
            checkpoint,
            summary_cache: Mutex::new(None),
            fault_salt: fault_salt_for(name),
        });
        let worker = Worker {
            name: name.to_string(),
            cfg: Arc::clone(cfg),
            cells: Arc::clone(&shard.cells),
            sequencer: Sequencer::resuming_at(next_seq, shard.fault_salt),
            sink: Sink::Shard(ShardState { shard: Arc::clone(&shard), next_seq, drift, wal }),
        };
        let handle = std::thread::Builder::new()
            .name(format!("isum-shard-{name}"))
            .spawn(move || worker.run(rx))?;
        lock(&self.threads).push(handle);
        shards.insert(name.to_string(), Arc::clone(&shard));
        isum_common::info!("server.shards", format!("shard `{name}` online"), seq = next_seq);
        Ok(shard)
    }

    /// Graceful drain: stops accepting, lets every queue empty, runs the
    /// final per-shard compactions, and joins every thread. Order
    /// matters in hashed mode: the front must drain (and receive its
    /// last slice acks) before the shard queues close.
    pub(crate) fn drain(&self) {
        if let Some(front) = &self.front {
            *lock(&front.queue) = None;
            if let Some(handle) = lock(&front.thread).take() {
                let _ = handle.join();
            }
        }
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
        let families: [Family; 10] = [
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
            (
                "isum_wal_compactions_total",
                "counter",
                "WAL compactions (snapshot written, log truncated).",
                |c| load(&c.wal_compactions),
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
        for s in &shards {
            let labels = [("tenant", s.name.as_str())];
            render_histogram(out, "isum_wal_fsync_seconds", &labels, &s.cells.wal_fsync_hist);
        }
        let _ = writeln!(out, "# HELP isum_stage_seconds Per-request pipeline stage latency.");
        let _ = writeln!(out, "# TYPE isum_stage_seconds histogram");
        // One series set per stream: each tenant's shard, or the hashed
        // front (one global ingest stream) under the default tenant label
        // so dashboards see one stable shape.
        let streams: Vec<(&str, &ShardCells)> = match &self.front {
            Some(front) => vec![(DEFAULT_TENANT, &front.cells)],
            None => shards.iter().map(|s| (s.name.as_str(), &*s.cells)).collect(),
        };
        for (tenant, cells) in streams {
            for stage in STAGES {
                let labels = [("tenant", tenant), ("stage", stage.as_str())];
                let hist = &cells.stage_hist.hists[stage as usize];
                render_histogram(out, "isum_stage_seconds", &labels, hist);
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

    /// Queue depth summed over every queue (front + shards).
    pub(crate) fn queue_depth_total(&self) -> u64 {
        let shard_depth: u64 =
            self.shards().iter().map(|s| s.cells.queue_depth.load(Ordering::Relaxed)).sum();
        let front_depth = self.front.as_ref().map(|f| f.cells.queue_depth.load(Ordering::Relaxed));
        shard_depth + front_depth.unwrap_or(0)
    }

    /// The `seq` the `/status` document leads with: the front's global
    /// high-water mark in hashed mode, otherwise the maximum shard mark
    /// (equal to the only shard's mark single-tenant).
    pub(crate) fn lead_seq(&self) -> u64 {
        match &self.front {
            Some(front) => front.cells.next_seq.load(Ordering::Relaxed),
            None => self
                .shards()
                .iter()
                .map(|s| s.cells.next_seq.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }
}

/// Offers `job` to a worker's bounded queue without blocking: a closed
/// queue is a drain in progress (503), a full one is backpressure (429
/// with `Retry-After`).
fn enqueue(queue: &Queue, cells: &ShardCells, job: Job) -> Result<(), Response> {
    let sent = match lock(queue).as_ref() {
        Some(tx) => tx.try_send(job),
        None => Err(TrySendError::Disconnected(job)),
    };
    match sent {
        Ok(()) => {
            cells.queue_depth.fetch_add(1, Ordering::Relaxed);
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

/// Appends one labeled series of a Prometheus histogram family:
/// cumulative `_bucket` samples (every finite bound, then `+Inf`), then
/// `_sum` and `_count`.
fn render_histogram(out: &mut String, family: &str, labels: &[(&str, &str)], hist: &FsyncHist) {
    let (counts, overflow, count, sum) = hist.snapshot();
    let bounds = wal::FSYNC_BUCKET_BOUNDS.iter().map(f64::to_string).chain(["+Inf".to_string()]);
    let bucket = format!("{family}_bucket");
    let mut cumulative = 0u64;
    for (le, n) in bounds.zip(counts.into_iter().chain([overflow])) {
        cumulative += n;
        let mut bucket_labels = labels.to_vec();
        bucket_labels.push(("le", &le));
        out.push_str(&telemetry::labeled_sample(&bucket, &bucket_labels, cumulative));
    }
    out.push_str(&telemetry::labeled_sample(&format!("{family}_sum"), labels, sum));
    out.push_str(&telemetry::labeled_sample(&format!("{family}_count"), labels, count));
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Wall-clock milliseconds since the Unix epoch — used only to annotate
/// `/status` (checkpoint age), never in any data-path decision.
pub(crate) fn unix_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis() as u64)
}

/// Monotonic milliseconds since the first call (process start, in
/// practice — the server binds before any checkpoint can complete).
/// `/status` derives `ms_since_last_checkpoint` from this clock so the
/// age survives wall-clock steps; values are never `0` (the cell's
/// "never" sentinel), because the first call returns at least the cost
/// of initializing the anchor — and the anchor call itself happens
/// strictly before any checkpoint stores a reading.
pub(crate) fn mono_ms() -> u64 {
    static ANCHOR: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    (anchor.elapsed().as_millis() as u64).max(1)
}

/// FNV-1a over `bytes` — the stable, dependency-free hash both the
/// statement router and the tenant fault salt use.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fault-key salt for a shard: `0` for the default tenant (its keys stay
/// bare `seq` numbers, the contract the fault suite pins), otherwise a
/// name-derived pattern confined to bit 62 downward so it cannot collide
/// with the [`UNSEQ_KEY_BASE`] marker.
fn fault_salt_for(name: &str) -> u64 {
    if name == DEFAULT_TENANT {
        0
    } else {
        (fnv1a(name.as_bytes()) & !(UNSEQ_KEY_BASE)) | (1 << 62)
    }
}

/// The shard hash of one statement: the FNV-1a of its template
/// fingerprint when it parses, else of the raw SQL text (so malformed
/// statements still land deterministically — on whichever shard then
/// rejects them).
pub(crate) fn route_hash(sql: &str) -> u64 {
    match isum_sql::parse(sql) {
        Ok(stmt) => fnv1a(isum_sql::fingerprint(&stmt).as_bytes()),
        Err(_) => fnv1a(sql.as_bytes()),
    }
}

/// The checkpoint file for shard `name` under checkpoint stem `stem`.
/// The default tenant keeps the stem itself — bit-for-bit the
/// pre-sharding layout — and every other shard gets a sibling file (see
/// the module docs for the naming).
pub(crate) fn checkpoint_path_for(stem: &Path, name: &str) -> PathBuf {
    if name == DEFAULT_TENANT {
        return stem.to_path_buf();
    }
    let tag = if name.starts_with('h') && name[1..].chars().all(|c| c.is_ascii_digit()) {
        name.to_string()
    } else {
        format!("t-{}", hex_of(name))
    };
    sibling_with_tag(stem, &tag)
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

/// `dir/ckpt.json` + tag `t-<hex>` → `dir/ckpt.t-<hex>.json`.
fn sibling_with_tag(stem: &Path, tag: &str) -> PathBuf {
    let file = stem.file_name().and_then(|f| f.to_str()).unwrap_or("checkpoint");
    let named = match file.rsplit_once('.') {
        Some((base, ext)) => format!("{base}.{tag}.{ext}"),
        None => format!("{file}.{tag}"),
    };
    stem.with_file_name(named)
}

/// Tenants with a `.t-<hex>` snapshot or WAL next to `stem`, so a
/// restart in tenant mode resurrects every tenant that was ever
/// acknowledged a batch — a young tenant has a log long before its first
/// compaction writes a snapshot.
fn discover_tenant_checkpoints(stem: &Path) -> Vec<String> {
    let Some(file) = stem.file_name().and_then(|f| f.to_str()) else {
        return Vec::new();
    };
    let (prefix, suffix) = match file.rsplit_once('.') {
        Some((base, ext)) => (format!("{base}.t-"), format!(".{ext}")),
        None => (format!("{file}.t-"), String::new()),
    };
    let dir = stem.parent().filter(|p| !p.as_os_str().is_empty());
    let Ok(entries) = std::fs::read_dir(dir.unwrap_or(Path::new("."))) else {
        return Vec::new();
    };
    let mut tenants = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else { continue };
        let Some(hex) = rest.strip_suffix(&suffix).or_else(|| rest.strip_suffix(".wal")) else {
            continue;
        };
        if let Some(tenant) = unhex_name(hex) {
            if validate_tenant(&tenant).is_ok() && tenant != DEFAULT_TENANT {
                tenants.push(tenant);
            }
        }
    }
    tenants.sort();
    tenants.dedup();
    tenants
}

// ---------------------------------------------------------------------
// Recovery: snapshot + WAL replay
// ---------------------------------------------------------------------

/// Where a corrupt snapshot is quarantined: `<path>.corrupt-<unix_ms>`.
fn quarantine_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot");
    path.with_file_name(format!("{name}.corrupt-{}", unix_ms()))
}

/// Where compaction parks the pre-compaction snapshot: `<path>.prev`.
fn snapshot_prev_path(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("snapshot");
    path.with_file_name(format!("{name}.prev"))
}

/// Loads the newest usable snapshot for a shard. A current snapshot that
/// fails to parse is renamed to `<path>.corrupt-<unix_ms>` (never
/// deleted) and recovery falls back to the `.prev` snapshot from the
/// previous compaction, then to an empty engine — the WAL tail replays
/// on top either way. Returns `(engine, next_seq, wal_seq watermark,
/// drift-tracker state)`.
fn load_snapshot_with_quarantine(
    cfg: &ServerConfig,
    path: &Path,
) -> (Engine, u64, u64, Option<Json>) {
    if path.exists() {
        match Engine::restore_from(cfg.catalog.clone(), cfg.isum, path) {
            Ok(state) => return state,
            Err(e) => {
                let quarantine = quarantine_path(path);
                let moved = std::fs::rename(path, &quarantine);
                count!("server.checkpoint.corrupt");
                isum_common::error!(
                    "server.wal",
                    format!(
                        "corrupt snapshot {} ({e}); quarantined to {} and falling back",
                        path.display(),
                        quarantine.display()
                    ),
                    renamed = moved.is_ok()
                );
            }
        }
    }
    let prev = snapshot_prev_path(path);
    if prev.exists() {
        match Engine::restore_from(cfg.catalog.clone(), cfg.isum, &prev) {
            Ok(state) => {
                isum_common::warn!(
                    "server.wal",
                    format!(
                        "recovering from previous snapshot {}; the WAL tail replays on top",
                        prev.display()
                    )
                );
                return state;
            }
            Err(e) => {
                isum_common::error!(
                    "server.wal",
                    format!("previous snapshot {} is also unusable: {e}", prev.display())
                );
            }
        }
    }
    (Engine::new(cfg.catalog.clone(), cfg.isum), 0, 0, None)
}

/// Recovers one shard's full state: newest usable snapshot plus a replay
/// of the WAL tail through the normal observe path, then an open WAL
/// writer positioned after the last valid record, plus the sequencer's
/// drift tracker (window and edge-trigger state restored from the
/// snapshot when persisted there). WAL replay feeds the tracker the same
/// per-record observations the live run saw — including, under
/// `ISUM_DRIFT_ACTION=resummarize`, re-running the re-summarization a
/// crossing would have triggered — so a crash-recovered shard converges
/// on the never-crashed run's state instead of silently re-arming.
/// Mid-log WAL corruption is the only fatal case.
fn recover_shard_state(
    cfg: &ServerConfig,
    name: &str,
    checkpoint: Option<&PathBuf>,
) -> io::Result<(Engine, u64, Option<WalWriter>, DriftTracker)> {
    let fresh_tracker = |engine: &Engine| {
        DriftTracker::new(cfg.drift_window, cfg.drift_threshold).starting_at(engine.observed())
    };
    let Some(path) = checkpoint else {
        let engine = Engine::new(cfg.catalog.clone(), cfg.isum);
        let drift = fresh_tracker(&engine);
        return Ok((engine, 0, None, drift));
    };
    let (mut engine, mut next_seq, snap_wal_seq, drift_snap) =
        load_snapshot_with_quarantine(cfg, path);
    let mut drift = fresh_tracker(&engine);
    if let Some(snap) = &drift_snap {
        drift = drift.restore_state(snap);
    }
    let wal_path = wal::wal_sibling(path);
    let replay = wal::read_wal(&wal_path)
        .map_err(|e| io::Error::new(e.kind(), format!("shard `{name}`: {e}")))?;
    if replay.torn_at.is_some() {
        // `read_wal` already warned with the byte offset; the counter
        // makes crash-repair visible to telemetry-only observers.
        count!("server.wal.torn_repairs");
    }
    let mut next_wal_seq = snap_wal_seq;
    let mut replayed = 0usize;
    for rec in &replay.records {
        next_wal_seq = next_wal_seq.max(rec.wal_seq + 1);
        if rec.wal_seq < snap_wal_seq {
            // Already folded into the snapshot (a crash between snapshot
            // write and WAL truncation leaves such records behind).
            continue;
        }
        if rec.shard != name {
            isum_common::warn!(
                "server.wal",
                format!(
                    "WAL record {} names shard `{}` but this is `{name}`; skipped \
                     (was the log file moved?)",
                    rec.wal_seq, rec.shard
                )
            );
            continue;
        }
        // The same lenient path the live batch took: rejects re-reject,
        // accepts re-apply, bit-identically.
        engine.apply_statements(&rec.stmts);
        if let Some(s) = rec.seq {
            next_seq = next_seq.max(s + 1);
        }
        replayed += 1;
        // Feed the tracker exactly what the live batch fed it. Replay is
        // silent — alerts already fired before the crash — but a crossing
        // under `resummarize` re-runs the adaptation so the recovered
        // engine matches the never-crashed one.
        if drift.enabled() {
            let fresh = engine.observations_since(drift.seen());
            let mass = engine.template_mass();
            if let Some(sample) = drift.on_batch(&fresh, &mass) {
                if sample.crossed && cfg.drift_action == DriftAction::Resummarize {
                    engine.resummarize_keep_last(sample.window_len);
                    drift.reset_after_resummarize(engine.observed());
                }
            }
        }
    }
    if replayed > 0 {
        isum_common::info!(
            "server.wal",
            format!("replayed {replayed} WAL record(s) from {}", wal_path.display()),
            tenant = name,
            next_seq = next_seq
        );
    }
    let writer = WalWriter::open(&wal_path, replay.valid_len, next_wal_seq)?;
    Ok((engine, next_seq, Some(writer), drift))
}

// ---------------------------------------------------------------------
// The request pipeline: admit → durable-apply → ack
// ---------------------------------------------------------------------

/// One worker thread: a stream's admission state plus where its admitted
/// batches go.
struct Worker {
    /// The stream's name on events: the tenant, or `default` for the
    /// hashed front.
    name: String,
    cfg: Arc<ServerConfig>,
    /// The cells of the queue this worker drains.
    cells: Arc<ShardCells>,
    sequencer: Sequencer,
    sink: Sink,
}

/// Where a stream's admitted batches go.
enum Sink {
    /// This thread owns a shard's durable state and applies in place: a
    /// tenant's stream, or a hashed shard taking slices from the front.
    Shard(ShardState),
    /// The hashed front: split by template hash over the shards' queues.
    FanOut(Vec<(Arc<Shard>, SyncSender<Job>)>),
}

/// The durable half of a shard, owned by its worker thread.
struct ShardState {
    shard: Arc<Shard>,
    /// The shard's high-water mark, persisted in every snapshot.
    next_seq: u64,
    /// Built by recovery: starts at the engine high-water mark for a fresh
    /// shard (checkpoint-restored history counts as "already summarized"),
    /// with window and edge-trigger state restored from the snapshot when
    /// persisted there — so a restart cannot re-fire an alert the
    /// pre-restart run already raised.
    drift: DriftTracker,
    wal: Option<WalWriter>,
}

/// Strict-`seq` admission for one stream, owned by the stream's worker.
struct Sequencer {
    /// The stream's high-water mark: the only `seq` admitted as fresh.
    next_seq: u64,
    /// XOR-folded into fault keys; see [`Shard`]. `0` on the hashed
    /// front, whose keys are bare like the default tenant's.
    fault_salt: u64,
    /// Injected-fault attempts so far, per fault key.
    attempts: HashMap<u64, u32>,
    unseq_counter: u64,
}

impl Sequencer {
    fn resuming_at(next_seq: u64, fault_salt: u64) -> Sequencer {
        Sequencer { next_seq, fault_salt, attempts: HashMap::new(), unseq_counter: 0 }
    }

    /// Classifies a batch against the high-water mark. `Err` is the
    /// retryable 503 for a batch ahead of the stream (holding it would
    /// pin its connection's thread) or an injected fault; `Ok` carries
    /// the batch's fault-injection key and whether it sits below the
    /// mark — a duplicate. Fault rolls only guard fresh positions: a
    /// duplicate rides on the retry the client already performed.
    fn admit(&mut self, stream: &str, seq: Option<u64>) -> Result<(u64, bool), Response> {
        if let Some(seq) = seq.filter(|&s| s > self.next_seq) {
            count!("server.ingest.out_of_order");
            isum_common::debug!(
                "server.ingest",
                "batch ahead of the stream; told to retry",
                tenant = stream,
                seq = seq,
                next_seq = self.next_seq
            );
            let next_seq = self.next_seq;
            return Err(Response::error(
                503,
                &format!("seq {seq} is ahead of the stream (next is {next_seq}); retry shortly"),
            )
            .with_header("Retry-After", "0"));
        }
        let key = self.fault_salt
            ^ match seq {
                Some(s) => s,
                None => {
                    self.unseq_counter += 1;
                    UNSEQ_KEY_BASE | self.unseq_counter
                }
            };
        let duplicate = seq.is_some_and(|s| s < self.next_seq);
        if !duplicate {
            if let Some(resp) = fault_roll(key, &mut self.attempts) {
                return Err(resp);
            }
        }
        Ok((key, duplicate))
    }

    /// Advances past `seq` once its batch is durably applied.
    fn commit(&mut self, seq: Option<u64>, key: u64) {
        if seq == Some(self.next_seq) {
            self.next_seq += 1;
            self.attempts.remove(&key);
        }
    }
}

impl Worker {
    /// Serves the queue strictly in order until it closes, then folds
    /// everything acknowledged into a final snapshot.
    fn run(mut self, rx: Receiver<Job>) {
        for job in rx {
            self.cells.queue_depth.fetch_sub(1, Ordering::Relaxed);
            match job {
                Job::Batch { seq, script, request_id, clock, reply } => {
                    let _rid = trace::with_request_id(&request_id);
                    clock.stamp(Stage::Queue);
                    let answer = self.ingest(seq, &script, &request_id, &clock);
                    let _ = reply.try_send(answer.unwrap_or_else(|refusal| refusal));
                }
                Job::Slice { seq, stmts, request_id, reply } => {
                    let _rid = trace::with_request_id(&request_id);
                    let Sink::Shard(state) = &mut self.sink else {
                        unreachable!("slices are only ever sent to shard workers")
                    };
                    let clock = StageClock::new();
                    // Monotone dedup: the front re-offers batches below
                    // its mark after a crash, and only the shards that
                    // lag still need them.
                    let result = if seq.is_some_and(|s| s < state.next_seq) {
                        note_duplicate(&self.name, seq, state.next_seq);
                        Ok(None)
                    } else {
                        // The front rolled the ingest fault already; the
                        // torn-append site is keyed per shard so distinct
                        // shards tear independently under one seeded spec.
                        let torn_key = state.shard.fault_salt ^ seq.unwrap_or(UNSEQ_KEY_BASE);
                        state.durable_apply(&self.cfg, seq, &stmts, torn_key, &clock).map(Some)
                    };
                    let _ = reply.try_send(SliceOutcome { result, clock });
                }
            }
        }
        // Final compaction: everything acknowledged is folded into the
        // snapshot and the WAL truncated — unless an earlier torn append
        // poisoned the writer, in which case the on-disk WAL is exactly what
        // a crash would leave and recovery repairs it at the next start.
        let Sink::Shard(ShardState { shard, next_seq, drift, mut wal }) = self.sink else { return };
        if let Some(path) = &shard.checkpoint {
            match &mut wal {
                Some(w) if w.poisoned() => {
                    isum_common::warn!(
                        "server.wal",
                        "skipping final compaction: WAL is poisoned; recovery will repair the tail",
                        tenant = shard.name
                    );
                }
                Some(w) => compact_shard(&shard, path, w, next_seq, &drift),
                None => {}
            }
        }
    }

    /// One client batch, end to end: admit, hand to the sink, ack. `Err`
    /// is the early exit for a batch refused along the way.
    fn ingest(
        &mut self,
        seq: Option<u64>,
        script: &str,
        request_id: &str,
        clock: &StageClock,
    ) -> Result<Response, Response> {
        let (key, duplicate) = self.sequencer.admit(&self.name, seq)?;
        let applied = match &mut self.sink {
            // Strict dedup: below this stream's mark means this shard
            // already applied it; acknowledge without touching state.
            Sink::Shard(state) if duplicate => {
                note_duplicate(&self.name, seq, state.next_seq);
                None
            }
            Sink::Shard(state) => {
                let stmts = split_batch(script);
                clock.stamp(Stage::Sequence);
                let outcome = state
                    .durable_apply(&self.cfg, seq, &stmts, key, clock)
                    .map_err(|why| retryable(503, &why))?;
                Some((outcome, state.shard.cells.observed.load(Ordering::Relaxed)))
            }
            // A below-the-mark batch is *still split and offered*: after
            // a crash the front resumes at the maximum shard mark, and
            // the client's retries are how lagging shards receive the
            // slices they missed.
            Sink::FanOut(shards) => {
                let stmts = split_batch(script);
                fan_out(shards, &self.cfg, seq, duplicate, stmts, request_id, clock)?
            }
        };
        self.sequencer.commit(seq, key);
        let next_seq = self.sequencer.next_seq;
        self.cells.next_seq.store(next_seq, Ordering::Relaxed);
        Ok(ack(seq, applied.as_ref(), duplicate.then_some(next_seq)))
    }
}

/// Counts a batch as admitted for application and splits it exactly the
/// way `Engine::apply_script` would, so the logged statements replay
/// bit-identically through `apply_statements` at recovery.
fn split_batch(script: &str) -> Vec<(String, Option<f64>)> {
    count!("server.ingest.batches");
    let (sqls, costs) = split_script(script);
    sqls.into_iter().zip(costs).collect()
}

fn note_duplicate(stream: &str, seq: Option<u64>, next_seq: u64) {
    count!("server.ingest.duplicates");
    isum_common::debug!(
        "server.ingest",
        "batch below the high-water mark; not re-applied",
        tenant = stream,
        seq = seq.unwrap_or_default(),
        next_seq = next_seq
    );
}

/// The 200 ack. `applied` is `None` when nothing was (re-)applied — a
/// pure duplicate — else the outcome and the observed total to report;
/// `duplicate` carries the stream's high-water mark when the batch sat
/// below it (the stream position did not move, but a recovery re-offer
/// that refreshed a lagging shard keeps its applied count honest).
fn ack(
    seq: Option<u64>,
    applied: Option<&(IngestOutcome, u64)>,
    duplicate: Option<u64>,
) -> Response {
    let status = if duplicate.is_some() { Json::from("duplicate") } else { Json::from("ok") };
    let mut fields = vec![("status".into(), status)];
    if let Some(s) = seq {
        fields.push(("seq".into(), Json::from(s)));
    }
    match applied {
        None => fields.push(("applied".into(), Json::from(0u64))),
        Some((outcome, observed)) => {
            let rejected = outcome.rejected.iter().map(|(i, reason)| {
                Json::Obj(vec![
                    ("statement".into(), Json::from(*i)),
                    ("error".into(), Json::from(reason.as_str())),
                ])
            });
            fields.push(("applied".into(), Json::from(outcome.accepted)));
            fields.push(("total".into(), Json::from(outcome.total)));
            fields.push(("rejected".into(), Json::Arr(rejected.collect())));
            fields.push(("observed".into(), Json::from(*observed)));
        }
    }
    if let Some(next_seq) = duplicate {
        fields.push(("next_seq".into(), Json::from(next_seq)));
    }
    Response::json(200, &Json::Obj(fields))
}

impl ShardState {
    /// The durable-apply step, the only code that mutates a live shard:
    /// log → fsync → apply → publish → drift → compact, each stamped on
    /// `clock` (the request's own in tenant mode, a slice-local one in
    /// hashed mode). `Err` means the batch could not be logged: nothing
    /// was applied, and the caller answers a retryable 503.
    fn durable_apply(
        &mut self,
        cfg: &ServerConfig,
        seq: Option<u64>,
        stmts: &[(String, Option<f64>)],
        torn_key: u64,
        clock: &StageClock,
    ) -> Result<IngestOutcome, String> {
        let shard = &*self.shard;
        if !cfg.apply_delay.is_zero() {
            std::thread::sleep(cfg.apply_delay);
        }
        // Log-then-apply: the record is fsynced before any state
        // changes, so an acked batch survives any crash and a failed
        // append leaves nothing applied.
        if let Some(w) = self.wal.as_mut() {
            let fsync = wal_append(shard, w, seq, stmts, torn_key)?;
            // The append stamp covers serialize+write+fsync; carve the
            // measured fsync share out so the two stages partition the
            // durability cost.
            clock.stamp(Stage::WalAppend);
            clock.shift(Stage::WalAppend, Stage::Fsync, fsync);
        }
        let outcome = {
            let mut engine = lock(&shard.engine);
            let outcome = engine.apply_statements(stmts);
            publish_engine_cells(shard, &engine);
            isum_common::debug!(
                "server.ingest",
                "batch applied",
                tenant = shard.name,
                observed = engine.observed()
            );
            outcome
        };
        clock.stamp(Stage::Apply);
        if let Some(s) = seq {
            self.next_seq = s + 1;
        }
        shard.cells.next_seq.store(self.next_seq, Ordering::Relaxed);
        // Drift first: a re-summarization must be captured by the
        // compaction that follows (forced when it happened), or a
        // restart would replay the WAL onto pre-adaptation state.
        let resummarized = observe_drift(shard, cfg, &mut self.drift, seq);
        if maybe_compact(shard, cfg, &mut self.wal, self.next_seq, &self.drift, resummarized) {
            clock.stamp(Stage::Checkpoint);
        }
        Ok(outcome)
    }
}

/// The hashed front's sink: splits an admitted batch by
/// template-fingerprint hash (in parallel on the exec pool), offers each
/// involved shard its slice, and waits until every one of them has
/// durably logged and applied it. `Ok(None)` is a duplicate no shard
/// still needed; `Err` is the retryable answer when a shard could not
/// log its slice or did not answer in time — the stream does not
/// advance, the client's retry re-offers every slice, and shards that
/// already applied theirs dedup monotonically.
fn fan_out(
    shards: &[(Arc<Shard>, SyncSender<Job>)],
    cfg: &ServerConfig,
    seq: Option<u64>,
    duplicate: bool,
    stmts: Vec<(String, Option<f64>)>,
    request_id: &str,
    clock: &StageClock,
) -> Result<Option<(IngestOutcome, u64)>, Response> {
    let mut merged = IngestOutcome { accepted: 0, rejected: Vec::new(), total: stmts.len() };
    // Per shard: the slice, and each statement's index in the batch.
    let mut slices = vec![(Vec::new(), Vec::new()); shards.len()];
    let hashes = isum_exec::par_map(&stmts, |(sql, _)| route_hash(sql));
    for (i, stmt) in stmts.into_iter().enumerate() {
        let (slice, indexes) = &mut slices[(hashes[i] % shards.len() as u64) as usize];
        slice.push(stmt);
        indexes.push(i);
    }
    clock.stamp(Stage::Sequence);
    let mut waits = Vec::new();
    for ((shard, tx), (stmts, indexes)) in shards.iter().zip(slices) {
        if stmts.is_empty() {
            continue;
        }
        let (reply, answer) = mpsc::sync_channel::<SliceOutcome>(1);
        shard.cells.queue_depth.fetch_add(1, Ordering::Relaxed);
        let slice = Job::Slice { seq, stmts, request_id: request_id.to_string(), reply };
        if tx.send(slice).is_err() {
            return Err(Response::error(503, "server is shutting down"));
        }
        waits.push((shard, indexes, answer));
    }
    let mut any_fresh = false;
    // Per-stage maxima over the involved shards: the fan-out runs
    // concurrently, so the slowest shard's share of each stage is the
    // critical-path attribution the timeline reports.
    let (mut max_wal, mut max_fsync, mut max_ckpt) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for (shard, indexes, answer) in waits {
        let Ok(slice) = answer.recv_timeout(cfg.ingest_timeout.max(Duration::from_secs(1))) else {
            count!("server.ingest.timeouts");
            isum_common::warn!(
                "server.ingest",
                format!("shard {} did not ack its slice in time", shard.name),
                seq = seq.map_or_else(|| "unsequenced".into(), |s| s.to_string())
            );
            return Err(retryable(
                503,
                "a shard did not apply its slice in time; retry with the same seq",
            ));
        };
        match slice.result {
            Err(why) => {
                return Err(retryable(503, &format!("a shard could not log its slice: {why}")))
            }
            Ok(None) => {}
            Ok(Some(outcome)) => {
                any_fresh = true;
                merged.accepted += outcome.accepted;
                let rekeyed = outcome.rejected.into_iter().map(|(i, why)| (indexes[i], why));
                merged.rejected.extend(rekeyed);
            }
        }
        let spent = |stage| slice.clock.get(stage).unwrap_or_default();
        max_wal = max_wal.max(spent(Stage::WalAppend) + spent(Stage::Fsync));
        max_fsync = max_fsync.max(spent(Stage::Fsync));
        max_ckpt = max_ckpt.max(spent(Stage::Checkpoint));
    }
    merged.rejected.sort_by_key(|(i, _)| *i);
    // The Apply stamp covers the whole fan-out wall time; the shards'
    // critical-path maxima are then carved out into the durability and
    // checkpoint stages (fsync nested inside wal_append, as
    // `durable_apply` carved it on the slice clocks). Whatever remains
    // under `apply` is engine work plus fan-out coordination.
    clock.stamp(Stage::Apply);
    clock.shift(Stage::Apply, Stage::WalAppend, max_wal);
    clock.shift(Stage::WalAppend, Stage::Fsync, max_fsync);
    clock.shift(Stage::Apply, Stage::Checkpoint, max_ckpt);
    let observed = shards.iter().map(|(s, _)| s.cells.observed.load(Ordering::Relaxed)).sum();
    Ok((any_fresh || !duplicate).then_some((merged, observed)))
}

/// Rolls the deterministic ingest fault for `key`; `Some` is the 503 the
/// client must retry.
fn fault_roll(key: u64, attempts: &mut HashMap<u64, u32>) -> Option<Response> {
    let attempt = attempts.entry(key).or_insert(0);
    let this_attempt = *attempt;
    *attempt += 1;
    let injector = isum_faults::global();
    if injector.is_active() && injector.ingest_fault(key, this_attempt) {
        count!("server.ingest.faults");
        isum_common::warn!(
            "server.ingest",
            "injected transient ingest fault",
            key = key,
            attempt = this_attempt
        );
        let body = Json::Obj(vec![
            ("error".into(), Json::from("injected transient ingest fault")),
            ("status".into(), Json::from(503u64)),
            ("retryable".into(), Json::from(true)),
        ]);
        return Some(Response::json(503, &body).with_header("Retry-After", "0"));
    }
    None
}

/// Publishes the engine's observable counters into the shard's mirror
/// cells and bumps the state version that invalidates the `/summary`
/// render cache (caller holds the engine lock).
fn publish_engine_cells(shard: &Shard, engine: &Engine) {
    shard.cells.observed.store(engine.observed() as u64, Ordering::Relaxed);
    shard.cells.templates.store(engine.template_count() as u64, Ordering::Relaxed);
    shard.cells.state_version.fetch_add(1, Ordering::Release);
}

/// Appends one batch to the shard's WAL and fsyncs, updating the mirror
/// cells. `Ok` carries the measured fsync duration so callers can
/// attribute it as its own pipeline stage. `Err` carries the 503 body:
/// the batch was *not* applied (and a torn append poisons the writer
/// until restart), so a retrying client converges once the shard
/// recovers.
fn wal_append(
    shard: &Shard,
    w: &mut WalWriter,
    seq: Option<u64>,
    stmts: &[(String, Option<f64>)],
    key: u64,
) -> Result<Duration, String> {
    let injector = isum_faults::global();
    let tear = |frame_len: usize| {
        if injector.is_active() {
            injector.wal_torn_fault(key, frame_len)
        } else {
            None
        }
    };
    match w.append(seq, &shard.name, stmts, tear) {
        Ok(stats) => {
            shard.cells.wal_seq.store(stats.wal_seq + 1, Ordering::Relaxed);
            shard.cells.wal_bytes.store(w.len(), Ordering::Relaxed);
            shard
                .cells
                .wal_records_since_compaction
                .store(w.records_since_compaction(), Ordering::Relaxed);
            shard.cells.wal_last_fsync_unix_ms.store(unix_ms(), Ordering::Relaxed);
            shard.cells.wal_appended_bytes_total.fetch_add(stats.bytes, Ordering::Relaxed);
            shard.cells.wal_fsync_hist.observe(stats.fsync);
            Ok(stats.fsync)
        }
        Err(e) => {
            isum_common::error!(
                "server.wal",
                format!("WAL append failed: {e}"),
                tenant = shard.name,
                seq = seq.map_or_else(|| "unsequenced".into(), |s| s.to_string())
            );
            Err(format!("write-ahead log append failed ({e}); batch not applied, retry"))
        }
    }
}

/// Compacts when the WAL has grown past either configured bound, or
/// unconditionally when `force` is set (a re-summarization just rewrote
/// the engine, and replaying the WAL tail onto the *previous* snapshot
/// would diverge from the live state — the new snapshot resynchronizes).
fn maybe_compact(
    shard: &Shard,
    cfg: &ServerConfig,
    wal: &mut Option<WalWriter>,
    next_seq: u64,
    drift: &DriftTracker,
    force: bool,
) -> bool {
    let Some(w) = wal.as_mut() else { return false };
    let Some(path) = &shard.checkpoint else { return false };
    if w.poisoned() || (!force && w.records_since_compaction() == 0) {
        return false;
    }
    if force
        || w.records_since_compaction() >= cfg.wal_compact_every
        || w.len() >= cfg.wal_compact_bytes
    {
        compact_shard(shard, path, w, next_seq, drift);
        return true;
    }
    false
}

/// One compaction: parks the current snapshot as `.prev`, writes a fresh
/// snapshot carrying the WAL watermark, then truncates the WAL back to
/// its header. Every step is crash-ordered — at any interruption point,
/// snapshot-or-`.prev` plus the surviving WAL tail reconstruct the full
/// state (the `wal_seq` watermark dedups records the snapshot already
/// folded in). Failures are logged, never fatal: the WAL still holds
/// everything since the last successful compaction.
fn compact_shard(
    shard: &Shard,
    path: &Path,
    w: &mut WalWriter,
    next_seq: u64,
    drift: &DriftTracker,
) {
    let wal_seq = w.next_wal_seq();
    let drift_snap = if drift.enabled() { Some(drift.snapshot()) } else { None };
    // The engine lock is held only while the snapshot document is built;
    // rendering and writing it (most of a compaction) run with the lock
    // released, so a `/summary` waits behind a fraction of it. Nothing
    // can change the engine in between: this thread is its only writer.
    let doc = lock(&shard.engine).snapshot(next_seq, wal_seq, drift_snap.as_ref());
    if path.exists() {
        if let Err(e) = std::fs::rename(path, snapshot_prev_path(path)) {
            isum_common::warn!(
                "server.wal",
                format!("could not park previous snapshot: {e}"),
                tenant = shard.name
            );
        }
    }
    let result = crate::engine::write_checkpoint(path, &doc);
    match result {
        Ok(()) => {
            if let Err(e) = w.truncate_for_compaction() {
                // Safe to leave the tail: every record is below the
                // snapshot's watermark, so replay skips it.
                count!("server.wal.errors");
                isum_common::error!(
                    "server.wal",
                    format!("WAL truncation after compaction failed: {e}"),
                    tenant = shard.name
                );
            }
            count!("server.wal.compactions");
            let now = unix_ms();
            shard.cells.last_checkpoint_unix_ms.store(now, Ordering::Relaxed);
            shard.cells.last_checkpoint_mono_ms.store(mono_ms(), Ordering::Relaxed);
            shard.cells.wal_last_compaction_unix_ms.store(now, Ordering::Relaxed);
            shard.cells.wal_compactions.fetch_add(1, Ordering::Relaxed);
            shard.cells.wal_bytes.store(w.len(), Ordering::Relaxed);
            shard
                .cells
                .wal_records_since_compaction
                .store(w.records_since_compaction(), Ordering::Relaxed);
            isum_common::debug!(
                "server.wal",
                "compacted WAL into snapshot",
                tenant = shard.name,
                next_seq = next_seq,
                wal_seq = wal_seq
            );
        }
        Err(e) => {
            count!("server.checkpoint.errors");
            isum_common::error!(
                "server.ingest",
                format!("compaction snapshot failed: {e}"),
                tenant = shard.name,
                next_seq = next_seq
            );
        }
    }
}

/// Post-batch drift observation: folds the batch's fresh observations
/// into the shard's sliding window, publishes the score (telemetry
/// gauges + histogram and the `/status` mirror cells), and emits the
/// edge-triggered `warn!` when the score first exceeds the threshold.
/// Runs on the shard thread with the submitting request's ID already
/// installed, so the alert is attributed to the batch that caused it.
/// Under `DriftAction::Warn` (the default) strictly observation-only:
/// reads engine state, feeds nothing back. Under
/// `DriftAction::Resummarize` a crossing additionally re-summarizes the
/// shard over the recent window; the return value reports whether that
/// happened (so the caller forces a compaction).
fn observe_drift(
    shard: &Shard,
    cfg: &ServerConfig,
    drift: &mut DriftTracker,
    seq: Option<u64>,
) -> bool {
    if !drift.enabled() {
        return false;
    }
    let (fresh, total_mass) = {
        let engine = lock(&shard.engine);
        (engine.observations_since(drift.seen()), engine.template_mass())
    };
    let Some(sample) = drift.on_batch(&fresh, &total_mass) else {
        return false;
    };
    let ppm = (sample.score * 1e6).round() as i64;
    shard.cells.drift_score_ppm.store(ppm, Ordering::Relaxed);
    shard.cells.drift_window_len.store(sample.window_len as u64, Ordering::Relaxed);
    if telemetry::enabled() {
        telemetry::gauge("drift.score_ppm").set(ppm);
        telemetry::gauge("drift.window_len").set(sample.window_len as i64);
        isum_common::record!("drift.batch_score_ppm", ppm.max(0) as u64);
    }
    if sample.crossed {
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
        if cfg.drift_action == DriftAction::Resummarize {
            resummarize_shard(shard, drift, sample.window_len);
            return true;
        }
    }
    false
}

/// Drift-adaptive re-summarization: rebuilds the shard's engine over the
/// most recent `window_len` accepted queries (behind the sequencer, so
/// the adaptation is deterministic for a fixed request stream), re-arms
/// the tracker, and publishes the counters `/status` and `/metrics`
/// expose. Runs on the shard thread; readers only ever observe the
/// engine before or after (never during) the rebuild.
fn resummarize_shard(shard: &Shard, drift: &mut DriftTracker, window_len: usize) {
    let start = std::time::Instant::now();
    let kept = {
        let mut engine = lock(&shard.engine);
        let kept = engine.resummarize_keep_last(window_len);
        publish_engine_cells(shard, &engine);
        kept
    };
    drift.reset_after_resummarize(kept);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_validation_matches_the_wire_contract() {
        assert!(validate_tenant("default").is_ok());
        assert!(validate_tenant("acme-prod_7").is_ok());
        assert!(validate_tenant(&"x".repeat(64)).is_ok());
        assert!(validate_tenant("").is_err());
        assert!(validate_tenant(&"x".repeat(65)).is_err());
        assert!(validate_tenant("has space").is_err());
        assert!(validate_tenant("tab\tname").is_err());
        assert!(validate_tenant("path/traversal").is_err());
        assert!(validate_tenant("utf8-héllo").is_err());
    }

    #[test]
    fn checkpoint_paths_keep_default_at_the_stem() {
        let stem = Path::new("dir/ckpt.json");
        assert_eq!(checkpoint_path_for(stem, DEFAULT_TENANT), stem);
        assert_eq!(
            checkpoint_path_for(stem, "acme"),
            Path::new("dir/ckpt.t-61636d65.json"),
            "tenant files are hex-tagged siblings"
        );
        assert_eq!(checkpoint_path_for(stem, "h3"), Path::new("dir/ckpt.h3.json"));
        // No extension: tags append without inventing one.
        assert_eq!(checkpoint_path_for(Path::new("ckpt"), "acme"), Path::new("ckpt.t-61636d65"));
    }

    #[test]
    fn tenant_checkpoints_round_trip_through_discovery() {
        let dir = std::env::temp_dir().join(format!("isum-shards-disc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("ckpt.json");
        for tenant in ["acme", "zeta-9"] {
            std::fs::write(checkpoint_path_for(&stem, tenant), "{}").unwrap();
        }
        // Acknowledged batches but no compaction yet: only a log exists.
        // And a compacted tenant has both files — found once.
        std::fs::write(wal::wal_sibling(&checkpoint_path_for(&stem, "young")), "").unwrap();
        std::fs::write(wal::wal_sibling(&checkpoint_path_for(&stem, "acme")), "").unwrap();
        // Distractors: the default stem, a hashed shard, junk hex.
        std::fs::write(&stem, "{}").unwrap();
        std::fs::write(checkpoint_path_for(&stem, "h0"), "{}").unwrap();
        std::fs::write(dir.join("ckpt.t-zz.json"), "{}").unwrap();
        let mut found = discover_tenant_checkpoints(&stem);
        found.sort();
        assert_eq!(found, ["acme", "young", "zeta-9"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_salts_separate_tenants_but_not_the_default() {
        assert_eq!(fault_salt_for(DEFAULT_TENANT), 0, "default keys stay bare seq numbers");
        let a = fault_salt_for("acme");
        let b = fault_salt_for("zeta");
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert_eq!(a & UNSEQ_KEY_BASE, 0, "salts never touch the unsequenced marker bit");
        assert_ne!(a & (1 << 62), 0, "salts are confined to a distinct key plane");
    }

    #[test]
    fn route_hash_groups_template_instances_together() {
        let a = route_hash("SELECT id FROM t WHERE grp = 1");
        let b = route_hash("SELECT id FROM t WHERE grp = 99");
        assert_eq!(a, b, "same template (different literals) routes to the same shard");
        let c = route_hash("SELECT other FROM t WHERE grp = 1");
        assert_ne!(a, c, "different templates may split");
        // Unparseable text still hashes deterministically.
        assert_eq!(route_hash("NOT SQL AT ALL"), route_hash("NOT SQL AT ALL"));
    }
}
