//! A rebase record the disk refuses is not counted as logged: after the
//! failure the process-wide `server.wal.rebases` counter agrees with the
//! shard's `isum_wal_rebases_total`, and both say nothing was logged.
//!
//! Its own test binary: telemetry counters are process-global.

use std::time::Duration;

use isum_common::telemetry;
use isum_server::{Client, DriftAction, Server, ServerConfig};

mod support;
use support::catalog;

#[test]
fn a_rebase_the_disk_refuses_is_not_counted_as_logged() {
    telemetry::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("isum_rebase_failure_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(dir.join("ckpt.json"));
    config.drift_window = 8;
    config.drift_action = DriftAction::Resummarize;
    let server = Server::bind("127.0.0.1:0", config).expect("binds");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));
    // Every batch fits the first segment. A rebase record opens a new
    // one, and a directory squatting on its name makes that create fail.
    std::fs::create_dir(dir.join("ckpt.wal.00000002")).expect("squats on segment 2");

    // One template, then a second: the shift crosses the threshold, the
    // crossing batch is acked (it is durable), its rebase fails, and the
    // poisoned log refuses the next batch.
    let stream = (0..20)
        .map(|i| format!("SELECT id FROM t WHERE grp = {};\n", i % 13))
        .chain((0..20).map(|i| format!("SELECT grp FROM t WHERE v = {};\n", i * 17)));
    let mut refused = None;
    for (seq, script) in stream.enumerate() {
        let resp = client.ingest(&script, Some(seq as u64)).expect("sends");
        if resp.status != 200 {
            assert_eq!(resp.status, 503, "{}", resp.body);
            refused = Some(seq);
            break;
        }
    }
    assert!(refused.is_some_and(|seq| seq > 20), "the shift crosses and the rebase fails");
    let status = client.status(None).expect("status");
    let drift = status.field("drift").expect("drift block");
    assert_eq!(drift.get("alerts").and_then(|v| v.as_u64()), Some(1), "{}", status.body);
    assert_eq!(drift.get("resummarizes").and_then(|v| v.as_u64()), Some(0), "{}", status.body);

    let metrics = client.metrics().expect("metrics").body;
    assert!(metrics.contains("isum_wal_rebases_total{tenant=\"default\"} 0"), "{metrics}");
    let counters = telemetry::snapshot();
    assert!(counters.counter("server.wal.errors").unwrap_or(0) > 0, "the failure is counted");
    assert_eq!(counters.counter("server.wal.rebases").unwrap_or(0), 0, "no rebase was logged");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
