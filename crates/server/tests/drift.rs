//! Workload-drift observability end to end over real TCP: a template-mix
//! shift drives the drift score past the threshold, producing exactly one
//! attributed warn event, while `/summary` stays byte-identical to a
//! server with drift tracking disabled — the PR 5 determinism contract
//! (observation reads state, never feeds it) checked at the wire.
//!
//! One test function: the trace ring and telemetry flag are
//! process-global, so the phases run in a fixed order (and this file is
//! its own integration-test binary = its own process).

use std::time::Duration;

use isum_common::{telemetry, Json};
use isum_server::{Client, Server, ServerConfig};

mod support;
use support::{catalog, field, ingest_ok, shifted, steady};

#[test]
fn drift_tracking_end_to_end() {
    telemetry::set_enabled(true);

    // Server A tracks drift over a small window; server B has tracking
    // disabled entirely (window 0) — the on/off pair the byte-compare
    // needs.
    let mut cfg_a = ServerConfig::new(catalog());
    cfg_a.drift_window = 8;
    cfg_a.drift_threshold = 0.3;
    let mut cfg_b = ServerConfig::new(catalog());
    cfg_b.drift_window = 0;
    let server_a = Server::bind("127.0.0.1:0", cfg_a).expect("binds");
    let server_b = Server::bind("127.0.0.1:0", cfg_b).expect("binds");
    let a = Client::new(server_a.addr().to_string()).with_timeout(Duration::from_secs(30));
    let b = Client::new(server_b.addr().to_string()).with_timeout(Duration::from_secs(30));

    // --- Param validation: /events and /status reject unusable n/k. ---
    for target in ["/events?n=0", "/events?n=abc", "/status?k=0"] {
        let resp = a.get(target).expect("answers");
        assert_eq!(resp.status, 400, "{target}: {}", resp.body);
        assert!(field(&resp, &["param"]).as_str().is_some(), "typed body: {}", resp.body);
        assert_eq!(field(&resp, &["status"]).as_u64(), Some(400));
    }

    // --- An empty server still answers /status with the full shape. ---
    let empty = a.status(None).expect("status");
    assert_eq!(empty.status, 200);
    assert_eq!(field(&empty, &["observed"]).as_u64(), Some(0));
    assert!(matches!(field(&empty, &["summary"]), Json::Null), "no summary before ingest");
    assert_eq!(field(&empty, &["drift", "enabled"]).as_bool(), Some(true));
    assert!(matches!(field(&empty, &["drift", "score"]), Json::Null), "no sample yet");

    // --- Steady phase: one template dominates the history. ---
    let mut seq = 0u64;
    for i in 0..20usize {
        ingest_ok(&a, seq, &steady(i));
        ingest_ok(&b, seq, &steady(i));
        seq += 1;
    }
    let settled = a.status(None).expect("status");
    let score = field(&settled, &["drift", "score"]).as_f64().expect("sampled");
    assert!(score < 0.3, "steady stream must not alert (score {score})");
    assert_eq!(field(&settled, &["drift", "alerts"]).as_u64(), Some(0));

    // --- Shift phase: the window fills with a template the summarized
    //     history barely contains; the score must cross the threshold. ---
    for i in 0..10usize {
        ingest_ok(&a, seq, &shifted(i));
        ingest_ok(&b, seq, &shifted(i));
        seq += 1;
    }

    let status = a.status(None).expect("status");
    assert_eq!(status.status, 200);
    let score = field(&status, &["drift", "score"]).as_f64().expect("sampled");
    assert!(score > 0.3, "shifted window must cross the 0.3 threshold (score {score})");
    assert_eq!(
        field(&status, &["drift", "alerts"]).as_u64(),
        Some(1),
        "edge-triggered: one excursion, one alert"
    );

    // --- Exactly one rate-limited warn, attributed to a batch seq. ---
    let events = a.events(2048).expect("events");
    let warns: Vec<&str> = events
        .body
        .lines()
        .filter(|l| l.contains("\"server.drift\"") && l.contains("crossed threshold"))
        .collect();
    assert_eq!(warns.len(), 1, "one warn per excursion, got:\n{}", events.body);
    let warn = warns[0];
    assert!(warn.contains("\"level\":\"warn\""), "{warn}");
    let seq_field = (0..seq)
        .find(|s| warn.contains(&format!("\"seq\":\"{s}\"")))
        .expect("warn carries the crossing batch's seq");
    assert!(seq_field >= 20, "the crossing batch is in the shifted phase, got {seq_field}");

    // --- /status rolls up the full document shape. ---
    assert_eq!(field(&status, &["status"]).as_str(), Some("ok"));
    assert!(field(&status, &["seq"]).as_u64().expect("seq high-water mark") >= seq);
    assert!(field(&status, &["queue", "capacity"]).as_u64().unwrap() > 0);
    assert_eq!(field(&status, &["observed"]).as_u64(), Some(30));
    assert_eq!(field(&status, &["templates"]).as_u64(), Some(2));
    assert_eq!(field(&status, &["durability", "configured"]).as_bool(), Some(false));
    let cov = field(&status, &["summary", "coverage"]).as_f64().expect("coverage gauge");
    assert!(cov > 0.0 && cov <= 1.0, "coverage in (0,1]: {cov}");
    assert!(field(&status, &["summary", "represented_fraction"]).as_f64().unwrap() > 0.0);
    assert_eq!(field(&status, &["drift", "window"]).as_u64(), Some(8));
    assert_eq!(field(&status, &["drift", "window_len"]).as_u64(), Some(8));
    assert!(status.field("spans").is_none(), "span timings are /metrics' isum_span_* families");

    // --- The disabled server reports drift off and has no alerts. ---
    let status_b = b.status(None).expect("status");
    assert_eq!(field(&status_b, &["drift", "enabled"]).as_bool(), Some(false));
    assert!(matches!(field(&status_b, &["drift", "score"]), Json::Null));
    assert_eq!(field(&status_b, &["drift", "alerts"]).as_u64(), Some(0));

    // --- /summary/explain: per-member attribution, validated shape. ---
    let explain = a.explain(5).expect("explain");
    assert_eq!(explain.status, 200, "{}", explain.body);
    assert_eq!(field(&explain, &["k"]).as_u64(), Some(5));
    assert_eq!(field(&explain, &["observed"]).as_u64(), Some(30));
    assert_eq!(field(&explain, &["templates"]).as_u64(), Some(2));
    assert_eq!(field(&explain, &["coverage_bits"]).as_str().map(str::len), Some(16));
    let members = field(&explain, &["selected"]).as_array().expect("selected array");
    assert_eq!(members.len(), 5);
    let mut weight_sum = 0.0;
    for m in members {
        for key in ["query", "template", "instances", "selected_instances"] {
            assert!(m.get(key).and_then(Json::as_u64).is_some(), "member {key}: {}", m.to_pretty());
        }
        assert!(m.get("fingerprint").and_then(Json::as_str).is_some());
        assert!(m.get("weight_bits").and_then(Json::as_str).is_some());
        assert!(m.get("utility_share").and_then(Json::as_f64).is_some());
        weight_sum += m.get("weight").and_then(Json::as_f64).expect("weight");
    }
    assert!((weight_sum - 1.0).abs() < 1e-9, "weights stay normalized: {weight_sum}");
    let missing = a.get("/summary/explain").expect("answers");
    assert_eq!(missing.status, 400, "explain requires k: {}", missing.body);

    // --- Determinism: drift tracking on vs off is byte-identical. ---
    for k in [1usize, 5, 10, 30] {
        let sa = a.summary(k).expect("summary a");
        let sb = b.summary(k).expect("summary b");
        assert_eq!(sa.status, 200);
        assert_eq!(sa.body, sb.body, "k={k}: drift tracking perturbed the summary");
    }

    // --- The drift families reach /metrics: the score per tenant, the
    //     alerts and the batch-score histogram under telemetry. ---
    let metrics = a.metrics().expect("metrics");
    let ppm = (score * 1e6).round();
    let sample = format!("isum_shard_drift_score_ppm{{tenant=\"default\"}} {ppm}\n");
    assert!(metrics.body.contains("# TYPE isum_shard_drift_score_ppm gauge"), "{}", metrics.body);
    assert!(metrics.body.contains(&sample), "{sample} in {}", metrics.body);
    assert!(!metrics.body.contains("isum_drift_score_ppm"), "no process-wide score gauge");
    assert!(metrics.body.contains("# TYPE isum_drift_alerts counter"), "{}", metrics.body);
    assert!(
        metrics.body.contains("# TYPE isum_drift_batch_score_ppm histogram"),
        "{}",
        metrics.body
    );
    assert!(metrics.body.contains("isum_drift_alerts 1\n"), "{}", metrics.body);

    telemetry::set_enabled(false);
    server_a.shutdown();
    server_b.shutdown();
    server_a.join();
    server_b.join();
}
