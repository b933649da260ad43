//! Load-generator integration against a live daemon.
//!
//! The replay-identity test is the tentpole contract: a fixed seed
//! replays bit-identically — a concurrent 4-connection run and a serial
//! 1-connection reference leave the server in byte-identical state,
//! because the plan fixes per-tenant `seq` stamps and the server's
//! sequencers apply them in order no matter how the sockets race.
//!
//! The `#[ignore]`d soak test is the CI sustained-load job (DESIGN.md
//! §15): ~30 s of open-loop Zipf traffic with a mid-run mix shift over
//! durability-enabled ingest, asserting zero unexpected 5xx and that the
//! provoked drift excursion alerts exactly once (and, under
//! `ISUM_DRIFT_ACTION=resummarize`, rebuilds the summary exactly once).

use std::time::Duration;

use isum_loadgen::{run, LoadPlan, Mode, PlanConfig, RunConfig};
use isum_server::{Client, Server, ServerConfig};
use isum_workload::gen::tpch_catalog;

fn boot(configure: impl FnOnce(&mut ServerConfig)) -> (Server, Client) {
    let mut cfg = ServerConfig::new(tpch_catalog(1));
    configure(&mut cfg);
    let server = Server::bind("127.0.0.1:0", cfg).expect("binds");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));
    (server, client)
}

fn small_plan() -> LoadPlan {
    let mut cfg = PlanConfig::new(5);
    cfg.tenants = 3;
    cfg.templates = 8;
    cfg.batch_size = 4;
    cfg.warmup_batches = 2;
    cfg.measure_batches = 12;
    cfg.soak_batches = 2;
    cfg.mix_shift_at = Some(9);
    LoadPlan::generate(&cfg)
}

#[test]
fn concurrent_run_replays_bit_identically_to_a_serial_reference() {
    let plan = small_plan();
    let (server_a, a) = boot(|_| {});
    let (server_b, b) = boot(|_| {});

    let mut concurrent = RunConfig::new(server_a.addr().to_string());
    concurrent.connections = 4;
    concurrent.summary_poll_ms = Some(20);
    let mut serial = RunConfig::new(server_b.addr().to_string());
    serial.connections = 1;
    serial.summary_poll_ms = None;

    let report_a = run(&plan, &concurrent).expect("concurrent run completes");
    let report_b = run(&plan, &serial).expect("serial run completes");

    assert_eq!(report_a.fingerprint, report_b.fingerprint, "same seed, same wire bytes");
    assert_eq!(report_a.acked_batches, plan.batches.len() as u64, "every batch delivered");
    assert_eq!(report_b.acked_batches, plan.batches.len() as u64);
    assert_eq!(report_a.unexpected_5xx, 0, "only documented backpressure may appear");
    assert_eq!(report_b.unexpected_5xx, 0);
    assert_eq!(report_a.reconnects, 0, "keep-alive sockets are reused for the whole run");
    assert!(report_a.ingest_hist.count() > 0, "measure window recorded latencies");
    assert!(
        report_a.summary_hist.count() > 0,
        "the concurrent poller sampled /summary during the run"
    );
    assert!(report_a.ingest_statements_per_sec() > 0.0);

    // The server-side witness: per-tenant observed counts and summaries
    // are byte-identical between the racing run and the serial one.
    drop((a, b));
    for tenant in ["default", "lt1", "lt2"] {
        let pin = |server: &Server| {
            Client::new(server.addr().to_string())
                .with_timeout(Duration::from_secs(30))
                .with_tenant(tenant)
                .expect("tenant pin")
        };
        let ta = pin(&server_a);
        let tb = pin(&server_b);
        let sa = ta.status(None).expect("status a");
        let sb = tb.status(None).expect("status b");
        assert_eq!(
            sa.field("observed").and_then(|v| v.as_u64()),
            sb.field("observed").and_then(|v| v.as_u64()),
            "tenant {tenant} observed the same statements"
        );
        for k in [1usize, 4] {
            let qa = ta.summary(k).expect("summary a");
            let qb = tb.summary(k).expect("summary b");
            assert_eq!(qa.status, 200, "{}", qa.body);
            assert_eq!(
                qa.body, qb.body,
                "tenant {tenant} k={k}: concurrency must not perturb state"
            );
        }
    }

    server_a.shutdown();
    server_b.shutdown();
    server_a.join();
    server_b.join();
}

#[test]
fn open_loop_latency_is_charged_from_the_schedule() {
    // One connection, a rate the server can trivially sustain: the run
    // must take at least total_batches / rate seconds (pacing is real)
    // and every batch must still be delivered.
    let mut cfg = PlanConfig::new(9);
    cfg.tenants = 1;
    cfg.templates = 4;
    cfg.batch_size = 2;
    cfg.warmup_batches = 1;
    cfg.measure_batches = 8;
    cfg.soak_batches = 1;
    cfg.mix_shift_at = None;
    let plan = LoadPlan::generate(&cfg);
    let (server, _client) = boot(|_| {});
    let mut run_config = RunConfig::new(server.addr().to_string());
    run_config.connections = 1;
    run_config.summary_poll_ms = None;
    run_config.mode = Mode::Open { batches_per_sec: 20.0 };
    let t0 = std::time::Instant::now();
    let report = run(&plan, &run_config).expect("open-loop run completes");
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(report.acked_batches, plan.batches.len() as u64);
    assert!(
        elapsed >= (plan.batches.len() - 1) as f64 / 20.0,
        "open loop paces sends: {elapsed:.3}s for {} batches at 20/s",
        plan.batches.len()
    );
    server.shutdown();
    server.join();
}

/// The CI soak: ~30 s of paced sustained load with durability on.
/// Ignored by default (`cargo test -- --ignored` runs it); the drift
/// trajectory depends only on the seeded statement stream, not on
/// pacing, so the alert count is deterministic.
#[test]
#[ignore = "30s sustained soak; run explicitly (CI soak job)"]
fn soak_sustained_load_alerts_exactly_once() {
    let mut plan_cfg = PlanConfig::new(42);
    plan_cfg.tenants = 1;
    plan_cfg.templates = 12;
    plan_cfg.batch_size = 4;
    plan_cfg.warmup_batches = 16;
    plan_cfg.measure_batches = 192;
    plan_cfg.soak_batches = 32;
    plan_cfg.mix_shift_at = Some(176);
    let plan = LoadPlan::generate(&plan_cfg);

    let dir = std::env::temp_dir().join(format!("isum_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // The CI resummarize step sets ISUM_DRIFT_ACTION; window and
    // threshold are pinned here to match the seeded plan.
    let mut cfg = ServerConfig::new(tpch_catalog(1))
        .apply_env(|name| std::env::var(name).ok(), &[])
        .expect("no flags to refuse");
    cfg.drift_window = 128;
    cfg.drift_threshold = 0.35;
    cfg.checkpoint = Some(dir.join("ckpt.json"));
    let server = Server::bind("127.0.0.1:0", cfg).expect("binds");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));

    let mut run_config = RunConfig::new(server.addr().to_string());
    run_config.connections = 4;
    run_config.summary_poll_ms = Some(100);
    // 4 connections x 2 batches/s = 8 batches/s over 240 batches ≈ 30 s.
    run_config.mode = Mode::Open { batches_per_sec: 2.0 };
    let report = run(&plan, &run_config).expect("soak completes");

    assert_eq!(report.acked_batches, plan.batches.len() as u64, "every batch delivered");
    assert_eq!(report.unexpected_5xx, 0, "no 5xx beyond the documented backpressure vocabulary");
    assert!(report.summary_hist.count() > 0, "summary stayed responsive under load");

    let status = client.status(None).expect("status");
    let drift = status.field("drift").expect("drift block");
    assert_eq!(
        drift.get("alerts").and_then(|v| v.as_u64()),
        Some(1),
        "the provoked mix shift alerts exactly once: {}",
        status.body
    );
    if drift.get("action").and_then(|v| v.as_str()) == Some("resummarize") {
        assert_eq!(
            drift.get("resummarizes").and_then(|v| v.as_u64()),
            Some(1),
            "one excursion, one rebuild: {}",
            status.body
        );
    }

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
