//! Observability end to end over real TCP: request-ID round-trip,
//! `/metrics` Prometheus exposition, `/events` attribution of worker-side
//! refusals and of slow requests, slow reporting leaving summaries
//! unchanged, and the explicit disabled-telemetry body.
//!
//! One test function: the trace ring and the telemetry flag are
//! process-global, so the phases must run in a fixed order (and this
//! file is its own integration-test binary = its own process).

use std::collections::HashSet;

use isum_common::stage::parse_server_timing;
use isum_common::{telemetry, Json};
use isum_server::ServerConfig;

#[path = "../../common/tests/exposition/mod.rs"]
mod exposition;
use exposition::check_exposition;

mod support;
use support::{catalog, start};

fn batch(i: usize) -> String {
    format!("SELECT id FROM t WHERE grp = {} AND v > {};\n", i % 13, i * 17)
}

#[test]
fn observability_end_to_end() {
    telemetry::set_enabled(false);
    let (server, client) = start(ServerConfig::new(catalog()));

    // --- Disabled telemetry is explicit, not an empty response. ---
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.starts_with('#') && metrics.body.contains("ISUM_TELEMETRY"),
        "disabled /metrics is a comment naming the env var: {}",
        metrics.body
    );

    telemetry::set_enabled(true);

    // --- Client-supplied request IDs are echoed verbatim. ---
    let resp = client
        .request_with_headers(
            "POST",
            "/ingest?seq=0",
            &batch(0),
            &[("X-Isum-Request-Id", "my-batch-0")],
        )
        .expect("ingest");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-isum-request-id"), Some("my-batch-0"));

    // --- Server-generated IDs exist and are unique per request. ---
    let mut generated = HashSet::new();
    for _ in 0..5 {
        let resp = client.healthz().expect("healthz");
        let rid = resp.header("x-isum-request-id").expect("every response carries an ID");
        assert!(!rid.is_empty());
        assert!(generated.insert(rid.to_string()), "duplicate generated ID {rid}");
    }

    // --- Error responses carry an ID that appears in /events. ---
    let bad = client.summary(usize::MAX).map(|r| r.status);
    assert!(bad.is_ok(), "oversized k still answers");
    let bad = client.get("/summary").expect("summary without k");
    assert_eq!(bad.status, 400);
    let bad_rid = bad.header("x-isum-request-id").expect("400 carries an ID").to_string();
    let events = client.events(512).expect("events");
    assert_eq!(events.status, 200);
    assert!(
        events.body.lines().any(|l| l.contains(&format!("\"request_id\":\"{bad_rid}\""))),
        "the 400's request ID must appear in /events: rid={bad_rid}\n{}",
        events.body
    );

    // --- A worker-side refusal is attributed to the refused request. ---
    // The shard's worker, not the connection thread, decides that a batch
    // is ahead of the stream; its event must still carry the request ID.
    let rid = "ahead-probe";
    let resp = client
        .request_with_headers("POST", "/ingest?seq=5", &batch(5), &[("X-Isum-Request-Id", rid)])
        .expect("ingest");
    assert_eq!(resp.header("x-isum-request-id"), Some(rid));
    assert_eq!((resp.status, resp.retry_after()), (503, Some(0)), "{}", resp.body);
    let events = client.events(1024).expect("events");
    let attributed = events.body.lines().any(|l| {
        l.contains("batch ahead of the stream") && l.contains(&format!("\"request_id\":\"{rid}\""))
    });
    assert!(attributed, "the worker's event must carry the request's ID {rid}:\n{}", events.body);

    // --- /metrics is Prometheus text exposition with histogram series. ---
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.status, 200);
    let ct = metrics.header("content-type").expect("content type");
    assert!(ct.starts_with("text/plain"), "exposition is text/plain: {ct}");
    let text = &metrics.body;
    assert_eq!(check_exposition(text, &[("isum_server_requests", "counter")]), Ok(()), "{text}");
    assert!(text.contains("# HELP isum_server_requests"), "{text}");

    // --- Every response carries its Server-Timing stage timeline. ---
    let resp =
        client.request_with_headers("POST", "/ingest?seq=1", &batch(1), &[]).expect("ingest");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let timing = resp.header("server-timing").expect("ingest carries Server-Timing").to_string();
    let stages = parse_server_timing(&timing);
    let (last, total) = stages.last().expect("non-empty timeline");
    assert_eq!(last, "total", "timeline ends in the total: {timing}");
    let sum: f64 = stages[..stages.len() - 1].iter().map(|(_, ms)| ms).sum();
    assert!(
        (sum - total).abs() <= 1e-3 * stages.len() as f64,
        "stage durations sum to the total: {timing}"
    );
    for want in ["recv", "parse", "queue", "sequence", "apply", "respond"] {
        assert!(stages.iter().any(|(s, _)| s == want), "ingest timeline has `{want}`: {timing}");
    }
    assert!(
        !stages.iter().any(|(s, _)| s == "wal_append"),
        "no WAL configured, so no wal_append stage: {timing}"
    );
    let resp = client.summary(5).expect("summary");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let timing = resp.header("server-timing").expect("summary carries Server-Timing").to_string();
    let stages = parse_server_timing(&timing);
    assert_eq!(stages.last().expect("non-empty timeline").0, "total", "{timing}");
    for want in ["recv", "parse", "respond"] {
        assert!(stages.iter().any(|(s, _)| s == want), "summary timeline has `{want}`: {timing}");
    }
    assert!(
        !stages.iter().any(|(s, _)| s == "apply"),
        "reads never enter the apply stage: {timing}"
    );

    // --- Stage histograms and process self-gauges join /metrics. ---
    let metrics = client.metrics().expect("metrics");
    let text = &metrics.body;
    let families = [("isum_stage_seconds", "histogram"), ("isum_process_uptime_seconds", "gauge")];
    assert_eq!(check_exposition(text, &families), Ok(()), "{text}");
    for stage in ["recv", "parse", "queue", "sequence", "apply", "respond"] {
        assert!(text.contains(&format!("tenant=\"default\",stage=\"{stage}\",")), "{text}");
    }
    assert!(text.contains("# TYPE isum_process_open_shards gauge\nisum_process_open_shards 1"));
    #[cfg(target_os = "linux")]
    assert!(text.contains("# TYPE isum_process_resident_bytes gauge\n"), "{text}");

    // --- /events level/target filters; garbage is a typed 400. ---
    let warns = client.get("/events?level=warn&n=256").expect("events");
    assert_eq!(warns.status, 200);
    assert!(warns.body.lines().count() > 0, "the refused requests left warn events behind");
    for line in warns.body.lines() {
        assert!(
            line.contains("\"level\":\"warn\"") || line.contains("\"level\":\"error\""),
            "level=warn admits only warn-or-worse: {line}"
        );
    }
    let targeted = client.get("/events?target=server.ingest&n=256").expect("events");
    assert_eq!(targeted.status, 200);
    assert!(targeted.body.lines().count() > 0, "admission logs under server.ingest");
    for line in targeted.body.lines() {
        assert!(
            line.contains("\"target\":\"server.ingest"),
            "target filter is a dot-boundary prefix match: {line}"
        );
    }
    let off = client.get("/events?level=off").expect("events");
    assert_eq!(off.status, 200);
    assert_eq!(off.body, "", "explicit level=off is a well-formed request for nothing");
    let bad = client.get("/events?level=loud").expect("events");
    assert_eq!(bad.status, 400);
    assert_eq!(bad.field("param").and_then(Json::as_str), Some("level"), "{}", bad.body);
    assert!(
        bad.field("error").and_then(Json::as_str).unwrap_or("").contains("off, error, warn"),
        "garbage level is a typed 400 naming the vocabulary: {}",
        bad.body
    );
    let bad = client.get("/events?target=").expect("events");
    assert_eq!(bad.status, 400);
    assert_eq!(bad.field("param").and_then(Json::as_str), Some("target"), "{}", bad.body);
    // `level=off` asks for nothing, but a malformed `target` is still reported.
    let bad = client.get("/events?level=off&target=").expect("events");
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert_eq!(bad.field("param").and_then(Json::as_str), Some("target"), "{}", bad.body);

    // --- Four surfaces: the registry's JSON face and the capture ring are gone. ---
    for retired in ["/telemetry", "/trace/recent"] {
        let resp = client.get(retired).expect("answers");
        assert_eq!(resp.status, 404, "{retired}: {}", resp.body);
        assert!(resp.body.contains("no such endpoint"), "{retired}: {}", resp.body);
    }
    // Without ISUM_SLOW_MS no request is reported slow.
    let slow = client.get("/events?target=server.slow&n=1024").expect("events");
    assert_eq!(slow.status, 200);
    assert_eq!(slow.body, "", "slow reporting is off by default");

    // --- No log configured: /status says so and reports no segments. ---
    let status = client.status(None).expect("status");
    assert_eq!(status.status, 200);
    let durability = status.field("durability").expect("durability block");
    assert_eq!(
        durability.get("configured").and_then(Json::as_bool),
        Some(false),
        "{}",
        status.body
    );
    assert_eq!(durability.get("segments").and_then(Json::as_u64), Some(0), "{}", status.body);
    assert!(status.field("checkpoint").is_none(), "the snapshot block went with the snapshot");

    // --- Slow requests on a durable server: the stages of a logged batch. ---
    let dir = std::env::temp_dir().join(format!("isum_obs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut config = ServerConfig::new(catalog());
    config.slow_ms = Some(0); // every request is slow
    config.checkpoint = Some(dir.join("ckpt.json"));
    config.wal_segment_bytes = 1; // rotate after every batch
    let (slow_server, slow_client) = start(config);
    let resp = slow_client
        .request_with_headers(
            "POST",
            "/ingest?seq=0",
            &batch(0),
            &[("X-Isum-Request-Id", "slow-0")],
        )
        .expect("ingest");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let slow = slow_client.get("/events?level=warn&target=server.slow&n=1024").expect("events");
    assert_eq!(slow.status, 200, "{}", slow.body);
    let mine: Vec<Json> = slow
        .body
        .lines()
        .map(|l| Json::parse(l).expect("events are JSON"))
        .filter(|e| e.get("request_id").and_then(Json::as_str) == Some("slow-0"))
        .collect();
    assert_eq!(mine.len(), 1, "threshold 0 reports the request exactly once:\n{}", slow.body);
    let event = &mine[0];
    assert_eq!(event.get("level").and_then(Json::as_str), Some("warn"));
    let fields = event.get("fields").expect("the event carries fields");
    assert_eq!(fields.get("method").and_then(Json::as_str), Some("POST"));
    assert_eq!(fields.get("path").and_then(Json::as_str), Some("/ingest"));
    assert_eq!(fields.get("status").and_then(Json::as_str), Some("200"));
    // The log and the header share one string, so one parser reads both.
    let timing = resp.header("server-timing").expect("ingest carries Server-Timing");
    assert_eq!(fields.get("server_timing").and_then(Json::as_str), Some(timing));
    let total_ms = fields.get("total_ms").and_then(Json::as_str).expect("total_ms field");
    assert!(timing.ends_with(&format!("total;dur={total_ms}")), "{total_ms} vs {timing}");
    let stages = parse_server_timing(timing);
    for want in ["recv", "queue", "wal_append", "fsync", "apply"] {
        let recorded = stages.iter().any(|(s, _)| s == want);
        assert!(recorded, "WAL-backed ingest records `{want}`: {timing}");
    }
    // Nothing is snapshotted on the ack path any more, rotation included
    // (its fsyncs are charged to `fsync`).
    assert!(!stages.iter().any(|(s, _)| s == "checkpoint"), "{timing}");
    let status = slow_client.status(None).expect("status");
    let durability = status.field("durability").expect("durability block");
    assert_eq!(durability.get("segments").and_then(Json::as_u64), Some(2), "{}", status.body);
    assert!(
        durability.get("last_rotation_unix_ms").and_then(Json::as_u64).is_some(),
        "the one batch filled its 1-byte segment: {}",
        status.body
    );

    // Slow reporting is observation-only: summaries match a server that
    // differs only in having it off.
    let mut config = ServerConfig::new(catalog());
    std::fs::create_dir_all(dir.join("plain")).expect("scratch dir");
    config.checkpoint = Some(dir.join("plain").join("ckpt.json"));
    config.wal_segment_bytes = 1;
    let (plain, plain_client) = start(config);
    assert_eq!(plain_client.ingest(&batch(0), Some(0)).expect("ingest").status, 200);
    for seq in 1..12u64 {
        for c in [&slow_client, &plain_client] {
            assert_eq!(c.ingest(&batch(seq as usize), Some(seq)).expect("ingest").status, 200);
        }
    }
    for k in [1, 5, 12] {
        let slow = slow_client.summary(k).expect("summary").body;
        assert_eq!(slow, plain_client.summary(k).expect("summary").body, "k={k}");
    }
    for s in [plain, slow_server] {
        s.shutdown();
        s.join();
    }
    let _ = std::fs::remove_dir_all(&dir);

    telemetry::set_enabled(false);
    server.shutdown();
    server.join();
}
