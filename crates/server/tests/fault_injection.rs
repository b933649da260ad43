//! Ingest-batch fault injection end to end: affected batches are
//! rejected with a retryable 503 *before* any state changes, retries
//! draw fresh deterministic decisions, and the converged state is
//! bit-identical to a fault-free run.
//!
//! Lives in its own integration-test binary (= its own process) because
//! the fault injector and telemetry registry are process-global.

use std::time::Duration;

use isum_catalog::{Catalog, CatalogBuilder};
use isum_common::telemetry;
use isum_core::IsumConfig;
use isum_server::{Client, Engine, Server, ServerConfig};

fn catalog() -> Catalog {
    CatalogBuilder::new()
        .table("t", 80_000)
        .col_key("id")
        .col_int("grp", 400, 0, 400)
        .col_int("v", 2_000, 0, 20_000)
        .finish()
        .expect("fresh table")
        .build()
}

fn batches(n: usize) -> Vec<String> {
    (0..n)
        .map(|b| {
            (0..2)
                .map(|j| {
                    let i = b * 2 + j;
                    format!("SELECT id FROM t WHERE grp = {} AND v > {};\n", i % 13, i * 17)
                })
                .collect()
        })
        .collect()
}

#[test]
fn injected_ingest_faults_are_retryable_and_converge() {
    telemetry::set_enabled(true);
    // Rate 0.5: roughly half of all (key, attempt) draws fire, so some
    // batches fail on the first delivery and succeed on a retry.
    isum_faults::set_global_spec("ingest:0.5,seed:11").expect("valid spec");

    let all = batches(10);
    let (server, client) = {
        let server = Server::bind("127.0.0.1:0", ServerConfig::new(catalog())).expect("binds");
        let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));
        (server, client)
    };

    let mut first_attempt_failures = 0;
    for (i, script) in all.iter().enumerate() {
        let first = client.ingest(script, Some(i as u64)).expect("connects");
        if first.status == 503 {
            first_attempt_failures += 1;
            assert_eq!(
                first.field("retryable").and_then(|v| v.as_bool()),
                Some(true),
                "injected fault must advertise retryability: {}",
                first.body
            );
            // The faulted batch must not have touched state: retry with
            // the same seq until it lands.
            let resp = client.ingest_with_retry(script, Some(i as u64), 100).expect("retries");
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(
                resp.field("status").and_then(|v| v.as_str()),
                Some("ok"),
                "a faulted batch was never applied, so the retry is not a duplicate: {}",
                resp.body
            );
        } else {
            assert_eq!(first.status, 200, "{}", first.body);
        }
    }
    assert!(first_attempt_failures > 0, "rate 0.5 over 10 batches should fault at least once");

    let live = client.summary(4).expect("summary");
    assert_eq!(live.status, 200, "{}", live.body);

    // Fault-free reference: same statements, no injector in the path.
    let mut reference = Engine::new(catalog(), IsumConfig::isum());
    for b in &all {
        let outcome = reference.apply_script(b);
        assert!(outcome.rejected.is_empty());
    }
    let mut expected = reference.summary_json(4).expect("reference").to_pretty();
    expected.push('\n');
    assert_eq!(live.body, expected, "converged state is bit-identical to fault-free");

    // Telemetry saw the injected faults.
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("\nisum_server_ingest_faults ")
            && metrics.body.contains("\nisum_faults_injected "),
        "fault counters must be visible: {}",
        metrics.body
    );

    isum_faults::set_global_spec("").expect("reset");
    server.shutdown();
    server.join();
}
