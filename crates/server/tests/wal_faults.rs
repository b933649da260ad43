//! Torn-WAL fault injection, end to end (DESIGN.md §9 + §14). Lives in
//! its own integration binary because the fault injector is
//! process-global: nothing else may run while `wal_torn` is armed.

use std::time::Duration;

use isum_catalog::{Catalog, CatalogBuilder};
use isum_core::IsumConfig;
use isum_server::{Client, Engine, Server, ServerConfig};

fn catalog() -> Catalog {
    CatalogBuilder::new()
        .table("orders", 150_000)
        .col_key("o_id")
        .col_int("o_cust", 10_000, 0, 10_000)
        .finish()
        .expect("fresh table")
        .build()
}

fn batches(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("SELECT o_id FROM orders WHERE o_cust = {};\n", i * 7 % 9999)).collect()
}

fn reference_summary(all: &[String], k: usize) -> String {
    let mut engine = Engine::new(catalog(), IsumConfig::isum());
    for b in all {
        engine.apply_script(b);
    }
    let mut body = engine.summary_json(k).expect("reference summary").to_pretty();
    body.push('\n');
    body
}

#[test]
fn injected_torn_appends_reject_the_batch_and_recovery_repairs_the_tail() {
    let dir = std::env::temp_dir().join(format!("isum_wal_faults_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("ckpt.json");
    let all = batches(3);

    // Every append tears at a seeded offset: the batch is rejected with
    // a retryable 503 *before* any state changes, and the shard refuses
    // further ingest (poisoned writer) until restart — exactly the
    // posture of a crashed process.
    isum_faults::set_global_spec("wal_torn:1.0,seed:11").expect("valid spec");
    {
        let mut config = ServerConfig::new(catalog());
        config.checkpoint = Some(ckpt.clone());
        let server = Server::bind("127.0.0.1:0", config).expect("binds");
        let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));
        let resp = client.ingest(&all[0], Some(0)).expect("sends");
        assert_eq!(resp.status, 503, "{}", resp.body);
        assert!(resp.retry_after().is_some(), "torn append must be retryable");
        assert!(resp.body.contains("not applied"), "{}", resp.body);
        assert_eq!(
            client.healthz().expect("healthz").field("observed").and_then(|v| v.as_u64()),
            Some(0),
            "a failed append applies nothing"
        );
        let resp = client.ingest(&all[0], Some(0)).expect("sends");
        assert_eq!(resp.status, 503, "poisoned writer keeps refusing: {}", resp.body);
        server.shutdown();
        server.join();
    }
    assert!(!ckpt.exists(), "no snapshot is ever written");
    let torn_len = std::fs::metadata(dir.join("ckpt.wal.00000001")).expect("wal").len();
    assert!(torn_len >= 8, "the torn partial record stays on disk, like a real crash");

    // Faults off, restart: recovery truncates the torn tail and the
    // client's retries land; the result matches the serial reference.
    isum_faults::set_global_spec("").expect("disables");
    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(ckpt.clone());
    let server = Server::bind("127.0.0.1:0", config).expect("recovers from the torn tail");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));
    for (seq, script) in all.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "seq {seq}: {}", resp.body);
        assert_eq!(resp.field("status").and_then(|v| v.as_str()), Some("ok"), "nothing was acked");
    }
    assert_eq!(client.summary(3).expect("summary").body, reference_summary(&all, 3));
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
