//! The benchmark's fixed vocabulary: workloads, their sizes, and every
//! metric name with its unit. `BENCHMARK.json` at the repo root declares
//! the same names (with direction and regression bound); the smoke test
//! asserts the two agree.

/// Which generator produces a batch workload's statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gen {
    /// 22 TPC-H templates, round-robin.
    Tpch,
    /// 91 TPC-DS templates (20 hand-written + 71 synthesized), round-robin.
    Tpcds,
}

/// A batch workload: one *unit* is one `isum compress --json` pipeline
/// over a script of `statements` statements. Units repeat until the
/// run's `--seconds` are used; sizes are fixed in statements because
/// per-statement cost depends on the working set, not on wall time.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub gen: Gen,
    /// Scale factor of the builtin catalog the statements bind against.
    pub sf: u64,
    pub statements: usize,
    /// Summary size.
    pub k: usize,
}

/// A serve workload: one *round* boots a fresh daemon and replays a
/// fixed plan into it. Rounds repeat until the run's `--seconds` are
/// used; the plan size is fixed in batches because daemon cost grows
/// with the state it holds.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// `--checkpoint` on: WAL + snapshot compaction, and a SIGKILL /
    /// restart recovery after the last ack.
    pub durable: bool,
    pub tenants: usize,
    /// Warm-up batches (sent, excluded from latency statistics).
    pub warmup_batches: usize,
    /// Measured batches.
    pub measure_batches: usize,
    /// Open-loop rate in batches per second; `None` = closed loop.
    pub open_rate: Option<f64>,
}

/// Statements per ingest batch, all serve workloads.
pub const BATCH_SIZE: usize = 16;
/// `k` of the concurrent `/summary` poller and of every output check.
pub const SERVE_K: usize = 10;
/// `k` of the summary `improvement_pct` tunes on, serve workloads. At
/// k = 10 the index recommendation flips between a 43 % and a 59 %
/// configuration from one seed to the next; at 20 it moves by under 6 %.
pub const QUALITY_K: usize = 20;
/// Poll interval of the `/summary` connection.
pub const POLL_MS: u64 = 50;
/// Index budget of the DTA run behind `improvement_pct`.
pub const TUNE_M: usize = 16;
/// Builtin schema every serve daemon is started with.
pub const SERVE_SCHEMA: &str = "tpch:1";

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Batch(BatchSpec),
    Serve(ServeSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// The four workloads. `smoke` shrinks every size about fifty-fold so
/// the whole matrix runs in seconds (used by `cargo test`).
pub fn workloads(smoke: bool) -> [Workload; 4] {
    let scale = |n: usize| if smoke { (n / 50).max(1) } else { n };
    // The durable plan ends 48 batches past a multiple of the default
    // compaction cadence (64 records), so the SIGKILL always finds a
    // 48-record WAL tail to replay. Its first half is warm-up: `/summary`
    // latency grows with the state, and polls spread over a daemon
    // filling from empty give a p50 that wanders by 15 % between runs.
    let (wal_warmup, wal_measure) =
        if smoke { (16, 64 + 48 - 16) } else { (312, 64 * 9 + 48 - 312) };
    [
        Workload {
            name: "batch_tpch",
            kind: Kind::Batch(BatchSpec {
                gen: Gen::Tpch,
                sf: 10,
                statements: scale(20_000),
                k: 20,
            }),
        },
        Workload {
            name: "batch_tpcds",
            kind: Kind::Batch(BatchSpec {
                gen: Gen::Tpcds,
                sf: 10,
                statements: scale(8_000),
                k: 100,
            }),
        },
        Workload {
            name: "serve_wal",
            kind: Kind::Serve(ServeSpec {
                durable: true,
                tenants: 1,
                warmup_batches: wal_warmup,
                measure_batches: wal_measure,
                open_rate: None,
            }),
        },
        Workload {
            name: "serve_tenants",
            kind: Kind::Serve(ServeSpec {
                durable: false,
                tenants: 4,
                warmup_batches: 16,
                measure_batches: scale(800).max(32),
                open_rate: Some(200.0),
            }),
        },
    ]
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// What a user of the system sees; reported by `--trace 0` runs on every
/// workload. See README.md for what each means per workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("stmts_per_s", "1/s"),
    m("latency_p50_ms", "ms"),
    m("summary_p50_ms", "ms"),
    m("peak_rss_mb", "MB"),
    m("improvement_pct", "%"),
];

/// Server-side pipeline stages as the daemon names them in its
/// `Server-Timing` header, and the layer-qualified name each is reported
/// under (`<layer>_mean_ms` and `<layer>_p99_ms`).
pub const STAGES: &[(&str, &str)] = &[
    ("recv", "server.http.recv"),
    ("parse", "server.http.parse"),
    ("respond", "server.http.respond"),
    ("queue", "server.shards.queue"),
    ("sequence", "server.shards.sequence"),
    ("checkpoint", "server.shards.checkpoint"),
    ("wal_append", "server.wal.append"),
    ("fsync", "server.wal.fsync"),
    ("apply", "server.engine.apply"),
];

/// Per-layer metrics (layer = crate/module), reported by `--trace 1`
/// runs. A layer the workload bypasses reports 0.
pub const PER_LAYER: &[Metric] = &[
    // Traced batch pipeline (batch_*: the script; serve_*: the acked
    // statements, i.e. the reference the served summary is checked against).
    m("workload.split_ns_per_stmt", "ns"),
    m("sql.parse_ns_per_stmt", "ns"),
    m("sql.bind_ns_per_stmt", "ns"),
    m("sql.template_ns_per_stmt", "ns"),
    m("workload.indexable_ns_per_stmt", "ns"),
    m("optimizer.cost_ns_per_stmt", "ns"),
    m("core.featurize_ns_per_stmt", "ns"),
    m("core.utility_ns_per_stmt", "ns"),
    m("core.select_ns_per_stmt", "ns"),
    m("core.weigh_ns_per_stmt", "ns"),
    m("core.select_share", "ratio"),
    m("advisor.tune_ms", "ms"),
    m("optimizer.whatif_calls", "count"),
    m("optimizer.cache_hit_ratio", "ratio"),
    m("trace.overhead_ratio", "ratio"),
    // Serve runs: the acks' Server-Timing stages.
    m("server.http.recv_mean_ms", "ms"),
    m("server.http.recv_p99_ms", "ms"),
    m("server.http.parse_mean_ms", "ms"),
    m("server.http.parse_p99_ms", "ms"),
    m("server.http.respond_mean_ms", "ms"),
    m("server.http.respond_p99_ms", "ms"),
    m("server.shards.queue_mean_ms", "ms"),
    m("server.shards.queue_p99_ms", "ms"),
    m("server.shards.sequence_mean_ms", "ms"),
    m("server.shards.sequence_p99_ms", "ms"),
    m("server.shards.checkpoint_mean_ms", "ms"),
    m("server.shards.checkpoint_p99_ms", "ms"),
    m("server.wal.append_mean_ms", "ms"),
    m("server.wal.append_p99_ms", "ms"),
    m("server.wal.fsync_mean_ms", "ms"),
    m("server.wal.fsync_p99_ms", "ms"),
    m("server.engine.apply_mean_ms", "ms"),
    m("server.engine.apply_p99_ms", "ms"),
    // Serve runs: counts (per round; exact repeats with one ingest
    // connection) and sizes.
    m("server.shards.checkpoints", "count"),
    m("server.shards.retries_503_ahead", "count"),
    m("server.shards.retries_429", "count"),
    m("server.wal.fsyncs", "count"),
    m("server.wal.compactions", "count"),
    m("server.wal.appended_bytes_per_stmt", "B"),
    m("server.wal.disk_bytes_per_stmt", "B"),
    m("server.recovery_s", "s"),
    // Serve runs: the client side.
    m("loadgen.ingest_mean_ms", "ms"),
    m("loadgen.ingest_p99_ms", "ms"),
    m("loadgen.summary_p90_ms", "ms"),
    m("loadgen.network_p50_ms", "ms"),
    m("loadgen.network_p99_ms", "ms"),
    m("loadgen.final_lag_ms", "ms"),
    // Traced serve replay: the plan applied to an in-process engine.
    m("server.engine.apply_ns_per_stmt", "ns"),
    m("core.incremental.observe_ns_per_stmt", "ns"),
    m("server.engine.summary_ms", "ms"),
    m("server.engine.snapshot_render_ms", "ms"),
    m("server.engine.checkpoint_ms", "ms"),
    m("server.engine.restore_ms", "ms"),
    m("common.json.render_ns_per_byte", "ns/B"),
    m("common.json.parse_ns_per_byte", "ns/B"),
    m("common.framing.encode_ns_per_byte", "ns/B"),
    m("core.merge.merge_ms", "ms"),
];
