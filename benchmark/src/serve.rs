//! Serve workloads: a real `isum serve` child driven over loopback by
//! `isum_loadgen::run`, in rounds of one fresh daemon each.
//!
//! Connections are fixed at one ingest connection plus the `/summary`
//! poller, and the daemon runs with `ISUM_THREADS=1`: with a larger pool
//! the serve loop hands connections to the pool's `threads − 1` workers,
//! so on a 2-core box a second keep-alive connection is never served
//! (see README.md, "Known defect").

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use isum_common::framing::encode_frame;
use isum_common::stats::{mean, percentile};
use isum_common::Json;
use isum_core::{merge_partials, IncrementalIsum, IsumConfig};
use isum_loadgen::{LatencyHist, LoadPlan, LoadReport, Mode, PlanConfig, RunConfig};
use isum_server::{Client, Engine};
use isum_workload::gen::tpch_catalog;

use crate::pipeline::{compress, compress_traced, quality, Compressed, LayerNs};
use crate::spec::{ServeSpec, BATCH_SIZE, POLL_MS, QUALITY_K, SERVE_K, SERVE_SCHEMA, STAGES};
use crate::util::{fnv1a, peak_rss_mb, steady, Values};
use crate::{repo_root, Outcome, RunOpts};

/// Scale factor of [`SERVE_SCHEMA`], for the in-process reference.
const SERVE_SF: u64 = 1;
/// How long a daemon may take from spawn to its first 200 on `/healthz`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// Set-ups timed on their own before the first round; every round adds
/// one more sample.
const EXTRA_SETUPS: usize = 8;

/// A running `isum serve` child. Dropping it kills and reaps the child,
/// so no error path leaves a daemon behind.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral loopback port with a scrubbed
    /// environment and returns once `/healthz` answers 200. With
    /// `checkpoint` set the daemon is durable and first recovers whatever
    /// state the files hold.
    fn spawn(bin: &Path, log: &Path, checkpoint: Option<&Path>) -> Result<Daemon, String> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--schema", SERVE_SCHEMA, "--listen", "127.0.0.1:0"]);
        if let Some(path) = checkpoint {
            cmd.arg("--checkpoint").arg(path);
        }
        let child = cmd
            .env_clear()
            .env("ISUM_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, addr: String::new() };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        // The daemon announces its port on stderr once it has bound (and,
        // when durable, recovered).
        while daemon.addr.is_empty() {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                if let Some(line) = rest.lines().next().filter(|_| rest.contains('\n')) {
                    daemon.addr = line.trim().to_string();
                    break;
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during boot ({status}): {}", text.trim()));
            }
            if Instant::now() > deadline {
                return Err(format!("daemon did not announce a port: {}", text.trim()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let client = Client::new(daemon.addr.clone()).with_timeout(Duration::from_secs(5));
        loop {
            if matches!(client.healthz(), Ok(r) if r.status == 200) {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err(format!("daemon at {} never became healthy", daemon.addr));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// `GET /summary?k=` for one tenant; the body as served.
    fn summary(&self, tenant: &str) -> Result<String, String> {
        let resp = self
            .client()
            .with_tenant(tenant)?
            .summary(SERVE_K)
            .map_err(|e| format!("GET /summary ({tenant}): {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /summary ({tenant}) answered {}", resp.status));
        }
        Ok(resp.body)
    }
}

/// Sum over tenants of one sample family in a `/metrics` exposition.
fn metric_sum(metrics: &str, family: &str) -> f64 {
    metrics
        .lines()
        .filter(|l| l.strip_prefix(family).is_some_and(|r| r.starts_with(['{', ' '])))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // SIGKILL: the crash the durable workload recovers from, and the
        // only signal a starved daemon is sure to obey.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Builds the `isum` CLI from the repo's workspace (release profile, into
/// the same target directory as this benchmark) and returns the path of
/// the executable cargo reports.
pub fn build_daemon() -> Result<PathBuf, String> {
    let output = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet", "--message-format=json"])
        .args(["-p", "isum-cli", "--bin", "isum", "--manifest-path"])
        .arg(repo_root().join("Cargo.toml"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building the isum daemon failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| Json::parse(l).ok())
        .filter(|m| m.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter_map(|m| m.get("executable").and_then(Json::as_str).map(PathBuf::from))
        .next_back()
        .ok_or_else(|| "cargo reported no isum executable".to_string())
}

/// The tenants of a plan and, for each, its statements in `seq` order as
/// one script — what batch compression must be run on to reproduce that
/// tenant's served summary.
fn tenant_scripts(plan: &LoadPlan) -> Vec<(String, String)> {
    let mut scripts: Vec<(String, String)> = Vec::new();
    for b in &plan.batches {
        match scripts.iter_mut().find(|(t, _)| *t == b.tenant) {
            Some((_, s)) => s.push_str(&b.script),
            None => scripts.push((b.tenant.clone(), b.script.clone())),
        }
    }
    scripts.sort();
    scripts
}

/// Everything one round measured.
struct Round {
    setup_s: f64,
    report: LoadReport,
    run_s: f64,
    peak_rss_mb: f64,
    recovery_s: f64,
    metrics: String,
    disk_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

fn plan_config(spec: &ServeSpec, seed: u64) -> PlanConfig {
    PlanConfig {
        seed,
        tenants: spec.tenants,
        templates: 22,
        theta: 1.0,
        batch_size: BATCH_SIZE,
        warmup_batches: spec.warmup_batches,
        measure_batches: spec.measure_batches,
        soak_batches: 0,
        mix_shift_at: None,
    }
}

/// Where a run's daemons keep their checkpoint and WAL.
fn state_dir(opts: &RunOpts) -> PathBuf {
    opts.scratch.join("state")
}

/// Starts a daemon on whatever the state directory holds.
fn start_daemon(spec: &ServeSpec, opts: &RunOpts) -> Result<Daemon, String> {
    let checkpoint = spec.durable.then(|| state_dir(opts).join("ckpt.json"));
    Daemon::spawn(&opts.daemon, &opts.scratch.join("daemon.log"), checkpoint.as_deref())
}

/// The set-up of a round, timed: generate the plan from the seed, empty
/// the state directory, start a daemon and wait until it is healthy.
fn set_up(spec: &ServeSpec, opts: &RunOpts) -> Result<(LoadPlan, Daemon, f64), String> {
    let state = state_dir(opts);
    let t = Instant::now();
    let plan = LoadPlan::generate(&plan_config(spec, opts.seed));
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).map_err(|e| format!("{}: {e}", state.display()))?;
    let daemon = start_daemon(spec, opts)?;
    Ok((plan, daemon, t.elapsed().as_secs_f64()))
}

/// One round: set up (plan + fresh daemon), replay the plan, check what
/// the daemon serves against `reference`, then SIGKILL it and — when
/// durable — time the restart and check the recovered summary.
fn round(
    spec: &ServeSpec,
    opts: &RunOpts,
    reference: &[(String, String)],
    out: &mut Outcome,
) -> Result<Round, String> {
    let (plan, daemon, setup_s) = set_up(spec, opts)?;

    let mut config = RunConfig::new(daemon.addr.clone());
    config.connections = 1;
    config.summary_k = SERVE_K;
    config.summary_poll_ms = Some(POLL_MS);
    if let Some(rate) = spec.open_rate {
        config.mode = Mode::Open { batches_per_sec: rate };
    }
    let t = Instant::now();
    let report = isum_loadgen::run(&plan, &config)?;
    let run_s = t.elapsed().as_secs_f64();

    let planned = plan.batches.len() as u64;
    out.attempted += planned + report.summary_hist.count();
    out.failed += planned.saturating_sub(report.acked_batches) + report.unexpected_5xx;
    out.check(report.acked_batches == planned && report.unexpected_5xx == 0, || {
        format!(
            "{} of {planned} batches acked, {} unexpected 5xx",
            report.acked_batches, report.unexpected_5xx
        )
    });

    let mut served = Vec::new();
    for (tenant, expected) in reference {
        let body = daemon.summary(tenant)?;
        out.check(body.trim_end() == expected.trim_end(), || {
            format!("served /summary for tenant {tenant} differs from batch compression")
        });
        served.push(body);
    }
    let metrics = daemon.client().metrics().map_err(|e| format!("GET /metrics: {e}"))?.body;
    let peak = peak_rss_mb(Some(daemon.child.id()))?;
    let disk_bytes = dir_bytes(&state_dir(opts));
    drop(daemon);

    let mut recovery_s = 0.0;
    if spec.durable {
        let t = Instant::now();
        let daemon = start_daemon(spec, opts)?;
        recovery_s = t.elapsed().as_secs_f64();
        for ((tenant, _), before) in reference.iter().zip(&served) {
            let after = daemon.summary(tenant)?;
            out.check(after == *before, || {
                format!("recovered /summary for tenant {tenant} differs from the pre-kill one")
            });
        }
    }
    Ok(Round { setup_s, report, run_s, peak_rss_mb: peak, recovery_s, metrics, disk_bytes })
}

pub fn run(spec: &ServeSpec, opts: &RunOpts) -> Result<Outcome, String> {
    // The daemon's pool size, not this process's.
    let mut out = Outcome::new(1);
    let plan = LoadPlan::generate(&plan_config(spec, opts.seed));
    out.note("plan_fingerprint", format!("{:016x}", plan.fingerprint()));
    let scripts = tenant_scripts(&plan);
    let statements = plan.total_statements();

    // The reference: batch compression of each tenant's acked statements.
    // A traced run takes it from the step-by-step pipeline, and times the
    // plain pipeline right before it for the tracing overhead. One
    // discarded run first leaves the allocator holding a freed region of
    // the needed size, so both timed runs start from the same heap.
    let mut references: Vec<Compressed> = Vec::new();
    let mut layer_ns = LayerNs::default();
    let mut plain_s = 0.0;
    for (_, script) in &scripts {
        if !opts.trace {
            references.push(compress(script, tpch_catalog(SERVE_SF), SERVE_K)?);
            continue;
        }
        drop(compress(script, tpch_catalog(SERVE_SF), SERVE_K)?);
        let plain = compress(script, tpch_catalog(SERVE_SF), SERVE_K)?;
        plain_s += plain.load_s + plain.compress_s;
        let plain_json = plain.json.clone();
        drop(plain);
        let (traced, ns) = compress_traced(script, tpch_catalog(SERVE_SF), SERVE_K)?;
        out.check(traced.json == plain_json, || {
            "traced pipeline rendered a different summary than the untraced one".into()
        });
        layer_ns.add(&ns);
        references.push(traced);
    }
    let reference: Vec<(String, String)> =
        scripts.iter().zip(&references).map(|((t, _), c)| (t.clone(), c.json.clone())).collect();
    out.note("summary_fingerprint", format!("{:016x}", fnv1a(reference[0].1.as_bytes())));

    let mut setup = Vec::new();
    for _ in 0..if opts.smoke { 0 } else { EXTRA_SETUPS } {
        setup.push(set_up(spec, opts)?.2);
    }
    let mut rounds = Vec::new();
    loop {
        rounds.push(round(spec, opts, &reference, &mut out)?);
        if opts.smoke || rounds.iter().map(|r| r.run_s).sum::<f64>() >= opts.seconds {
            break;
        }
    }

    // Every round replays the same plan into the same empty daemon, and
    // what disturbs a round on a shared box only ever adds time (see
    // `steady`). Latencies and rates therefore come from the calm half of
    // the rounds — those with the lowest mean ack latency — with their
    // histograms pooled; counts and sizes, which repeat exactly, take the
    // median round.
    let mut calm: Vec<&Round> = rounds.iter().collect();
    calm.sort_by(|a, b| a.report.ingest_hist.mean_ms().total_cmp(&b.report.ingest_hist.mean_ms()));
    calm.truncate(rounds.len().div_ceil(2));
    let mut ingest = LatencyHist::new();
    let mut summary = LatencyHist::new();
    let mut network = LatencyHist::new();
    for r in &calm {
        ingest.merge(&r.report.ingest_hist);
        summary.merge(&r.report.summary_hist);
        network.merge(&r.report.network_hist);
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let over = |f: &dyn Fn(&Round) -> f64| percentile(&per_round(f), 50.0);
    setup.extend(rounds.iter().map(|r| r.setup_s));
    let list = |f: &dyn Fn(&Round) -> f64| {
        per_round(f).iter().map(|v| format!("{v:.2}")).collect::<Vec<_>>().join(" ")
    };
    out.note("round_stmts_per_s", list(&|r| r.report.ingest_statements_per_sec()));
    out.note("round_ack_mean_ms", list(&|r| r.report.ingest_hist.mean_ms()));
    out.note("round_replay_s", list(&|r| r.run_s));
    out.sample("rounds", rounds.len());
    out.sample("calm_rounds", calm.len());
    out.sample("statements_per_round", statements);
    out.sample("ingest_latencies", ingest.count() as usize);
    out.sample("summary_latencies", summary.count() as usize);

    // The default tenant (Zipf rank 0) holds the largest share; tuning on
    // its statements' summary is what `improvement_pct` reports. (The check
    // above makes served and batch summaries the same thing.)
    let default = scripts.iter().position(|(t, _)| t == "default").unwrap_or(0);
    let tuned_on = compress(&scripts[default].1, tpch_catalog(SERVE_SF), QUALITY_K)?;
    let q = quality(&tuned_on.workload, &tuned_on.summary);
    let e = &mut out.e2e;
    e.insert("setup_s".into(), steady(&setup, false));
    let calm_rates: Vec<f64> = calm.iter().map(|r| r.report.ingest_statements_per_sec()).collect();
    e.insert("stmts_per_s".into(), mean(&calm_rates));
    e.insert("latency_p50_ms".into(), ingest.quantile_ms(0.5));
    e.insert("summary_p50_ms".into(), summary.quantile_ms(0.5));
    e.insert("peak_rss_mb".into(), over(&|r| r.peak_rss_mb));
    e.insert("improvement_pct".into(), q.improvement_pct);

    if opts.trace {
        let mut layers = Values::new();
        layer_ns.report(&mut layers);
        q.report(&mut layers);
        layers.insert("trace.overhead_ratio".into(), layer_ns.total as f64 / 1e9 / plain_s);
        for (stage, layer) in STAGES {
            let mut pooled = LatencyHist::new();
            for r in &calm {
                if let Some(h) = r.report.stage_hists.get(*stage) {
                    pooled.merge(h);
                }
            }
            layers.insert(format!("{layer}_mean_ms"), pooled.mean_ms());
            layers.insert(format!("{layer}_p99_ms"), pooled.quantile_ms(0.99));
        }
        let stage_count = |r: &Round, stage: &str| {
            r.report.stage_hists.get(stage).map_or(0.0, |h| h.count() as f64)
        };
        let mut put = |name: &str, v: f64| {
            layers.insert(name.to_string(), v);
        };
        put("server.shards.checkpoints", over(&|r| stage_count(r, "checkpoint")));
        put("server.shards.retries_503_ahead", over(&|r| r.report.retries_503_ahead as f64));
        put("server.shards.retries_429", over(&|r| r.report.retries_429 as f64));
        put("server.wal.fsyncs", over(&|r| metric_sum(&r.metrics, "isum_wal_fsync_seconds_count")));
        put(
            "server.wal.compactions",
            over(&|r| metric_sum(&r.metrics, "isum_wal_compactions_total")),
        );
        put(
            "server.wal.appended_bytes_per_stmt",
            over(&|r| metric_sum(&r.metrics, "isum_wal_appended_bytes_total")) / statements as f64,
        );
        put("server.wal.disk_bytes_per_stmt", over(&|r| r.disk_bytes as f64) / statements as f64);
        put("server.recovery_s", over(&|r| r.recovery_s));
        put("loadgen.ingest_mean_ms", ingest.mean_ms());
        put("loadgen.ingest_p99_ms", ingest.quantile_ms(0.99));
        put("loadgen.summary_p90_ms", summary.quantile_ms(0.9));
        put("loadgen.network_p50_ms", network.quantile_ms(0.5));
        put("loadgen.network_p99_ms", network.quantile_ms(0.99));
        // Open loop: how long after the last measured batch was due its ack
        // arrived (the window opens at the first measured batch's due time).
        put(
            "loadgen.final_lag_ms",
            spec.open_rate.map_or(0.0, |rate| {
                let scheduled = (spec.measure_batches - 1) as f64 / rate;
                over(&|r| (r.report.measure_secs - scheduled) * 1e3)
            }),
        );
        replay(spec, opts, &plan, &references, &mut layers)?;
        out.layers = Some(layers);
    }
    Ok(out)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The traced serve run: the same plan applied to in-process engines, no
/// HTTP, with a timer around each engine-level call the daemon makes on
/// its ingest, summary, checkpoint and recovery paths.
fn replay(
    spec: &ServeSpec,
    opts: &RunOpts,
    plan: &LoadPlan,
    references: &[Compressed],
    layers: &mut Values,
) -> Result<(), String> {
    let statements = plan.total_statements() as f64;
    let config = IsumConfig::isum();
    let mut engines: Vec<(String, Engine)> = Vec::new();
    let mut apply_ns = 0u64;
    let (mut frame_ns, mut frame_bytes) = (0u64, 0usize);
    for b in &plan.batches {
        let at = match engines.iter().position(|(t, _)| *t == b.tenant) {
            Some(at) => at,
            None => {
                engines.push((b.tenant.clone(), Engine::new(tpch_catalog(SERVE_SF), config)));
                engines.len() - 1
            }
        };
        let t = Instant::now();
        let outcome = engines[at].1.apply_script(&b.script);
        apply_ns += t.elapsed().as_nanos() as u64;
        if outcome.accepted != outcome.total {
            return Err(format!("replay rejected statements of batch {}", b.index));
        }
        let t = Instant::now();
        black_box(encode_frame(black_box(b.script.as_bytes())));
        frame_ns += t.elapsed().as_nanos() as u64;
        frame_bytes += b.script.len();
    }
    layers.insert("server.engine.apply_ns_per_stmt".into(), apply_ns as f64 / statements);
    layers.insert(
        "common.framing.encode_ns_per_byte".into(),
        frame_ns as f64 / frame_bytes.max(1) as f64,
    );

    // Observation alone: the bound, costed statements of the reference
    // workloads fed to fresh observers.
    let mut observe_ns = 0u64;
    for r in references {
        let mut isum = IncrementalIsum::new(config);
        let t = Instant::now();
        for q in &r.workload.queries {
            isum.observe(q, &r.workload.catalog).map_err(|e| format!("observe: {e}"))?;
        }
        observe_ns += t.elapsed().as_nanos() as u64;
    }
    layers.insert("core.incremental.observe_ns_per_stmt".into(), observe_ns as f64 / statements);

    // The rest is measured on the largest engine at its final state.
    let (_, engine) =
        engines.iter().max_by_key(|(_, e)| e.observed()).expect("a plan has at least one tenant");
    let mut summary_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let doc = engine.summary_json(SERVE_K).map_err(|e| format!("summary: {e}"))?;
        black_box(doc.to_pretty());
        summary_ms.push(ms_since(t));
    }
    layers.insert("server.engine.summary_ms".into(), percentile(&summary_ms, 50.0));

    let t = Instant::now();
    let doc = engine.snapshot(0, 0, None);
    let built_ms = ms_since(t);
    let t = Instant::now();
    let text = doc.to_pretty();
    let render_ns = t.elapsed().as_nanos() as f64;
    layers.insert("server.engine.snapshot_render_ms".into(), built_ms + render_ns / 1e6);
    layers.insert("common.json.render_ns_per_byte".into(), render_ns / text.len() as f64);
    let t = Instant::now();
    black_box(Json::parse(&text).map_err(|e| format!("snapshot does not parse: {e}"))?);
    layers.insert(
        "common.json.parse_ns_per_byte".into(),
        t.elapsed().as_nanos() as f64 / text.len() as f64,
    );

    let path = opts.scratch.join("replay.json");
    let t = Instant::now();
    engine.checkpoint_to(&path, 0, 0, None).map_err(|e| format!("checkpoint: {e}"))?;
    layers.insert("server.engine.checkpoint_ms".into(), ms_since(t));
    let t = Instant::now();
    let restored = Engine::restore_from(tpch_catalog(SERVE_SF), config, &path)
        .map_err(|e| format!("restore: {e}"))?;
    layers.insert("server.engine.restore_ms".into(), ms_since(t));
    if restored.0.observed() != engine.observed() {
        return Err("restored engine lost statements".into());
    }

    // The merged read path exists only with several shards.
    let merge_ms = if spec.tenants > 1 {
        let partials: Vec<_> = engines.iter().map(|(_, e)| e.shard_partial()).collect();
        let t = Instant::now();
        let merged = merge_partials(&partials);
        black_box(merged.select(SERVE_K, config).map_err(|e| format!("merged select: {e}"))?);
        ms_since(t)
    } else {
        0.0
    };
    layers.insert("core.merge.merge_ms".into(), merge_ms);
    Ok(())
}
