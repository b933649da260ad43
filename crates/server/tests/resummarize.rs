//! Drift-adaptive re-summarization end to end (DESIGN.md §15): with
//! `DriftAction::Resummarize`, an edge-triggered drift excursion makes
//! the shard recompute its summary over the recent window behind the
//! sequencer — observed history shrinks to the window, the tracker
//! re-arms, and a later second excursion fires a second rebuild. Two
//! servers driven with the identical request stream stay byte-identical,
//! because the rebuild is a deterministic function of the accepted
//! statements.
//!
//! One test function: telemetry is process-global, and the phases build
//! on each other's state.

use std::time::Duration;

use isum_common::telemetry;
use isum_server::{Client, DriftAction, Server, ServerConfig};

mod support;
use support::{catalog, field, shifted, steady, third};

fn ingest_ok(clients: &[&Client], seq: u64, script: &str) {
    for client in clients {
        let resp = client.ingest_with_retry(script, Some(seq), 600).expect("ingest delivers");
        assert_eq!(resp.status, 200, "seq {seq}: {}", resp.body);
    }
}

#[test]
fn drift_triggered_resummarization_end_to_end() {
    telemetry::set_enabled(true);

    // Two identically-configured servers fed the identical stream — the
    // determinism witness — plus the default threshold (0.5) over a small
    // window so the two-template math is easy to reason about.
    let mk = || {
        let mut cfg = ServerConfig::new(catalog());
        cfg.drift_window = 8;
        cfg.drift_action = DriftAction::Resummarize;
        Server::bind("127.0.0.1:0", cfg).expect("binds")
    };
    let server_a = mk();
    let server_b = mk();
    let a = Client::new(server_a.addr().to_string()).with_timeout(Duration::from_secs(30));
    let b = Client::new(server_b.addr().to_string()).with_timeout(Duration::from_secs(30));
    let both = [&a, &b];

    // --- /status names the configured action before any ingest. ---
    let empty = a.status(None).expect("status");
    assert_eq!(field(&empty, &["drift", "action"]).as_str(), Some("resummarize"));
    assert_eq!(field(&empty, &["drift", "resummarizes"]).as_u64(), Some(0));

    // --- Steady phase: no excursion, no rebuild. ---
    let mut seq = 0u64;
    for i in 0..20usize {
        ingest_ok(&both, seq, &steady(i));
        seq += 1;
    }
    let settled = a.status(None).expect("status");
    assert_eq!(field(&settled, &["drift", "alerts"]).as_u64(), Some(0));
    assert_eq!(field(&settled, &["drift", "resummarizes"]).as_u64(), Some(0));
    assert_eq!(field(&settled, &["observed"]).as_u64(), Some(20));

    // --- Shift phase: the excursion triggers exactly one rebuild, and
    //     observed history collapses to (at most) window + post-rebuild
    //     statements instead of the full 30. ---
    for i in 0..10usize {
        ingest_ok(&both, seq, &shifted(i));
        seq += 1;
    }
    let status = a.status(None).expect("status");
    assert_eq!(field(&status, &["drift", "alerts"]).as_u64(), Some(1), "{}", status.body);
    assert_eq!(field(&status, &["drift", "resummarizes"]).as_u64(), Some(1), "{}", status.body);
    let observed = field(&status, &["observed"]).as_u64().expect("observed");
    assert!(
        (8..30).contains(&observed),
        "history rebuilt over the recent window, not the full stream: observed {observed}"
    );

    // --- Post-rebuild the tracker is re-armed against the *new* history:
    //     more of the same shifted template must not re-fire. ---
    for i in 10..20usize {
        ingest_ok(&both, seq, &shifted(i));
        seq += 1;
    }
    let quiet = a.status(None).expect("status");
    assert_eq!(
        field(&quiet, &["drift", "alerts"]).as_u64(),
        Some(1),
        "the now-dominant template is the new normal: {}",
        quiet.body
    );
    assert_eq!(field(&quiet, &["drift", "resummarizes"]).as_u64(), Some(1));

    // --- A third shape is a fresh excursion: second alert, second
    //     rebuild — re-arm across a rebuild works. ---
    for i in 0..10usize {
        ingest_ok(&both, seq, &third(i));
        seq += 1;
    }
    let again = a.status(None).expect("status");
    assert_eq!(field(&again, &["drift", "alerts"]).as_u64(), Some(2), "{}", again.body);
    assert_eq!(field(&again, &["drift", "resummarizes"]).as_u64(), Some(2));

    // --- Determinism: identical streams, byte-identical summaries and
    //     observed counts, rebuilds included. ---
    let status_b = b.status(None).expect("status");
    assert_eq!(
        field(&again, &["observed"]).as_u64(),
        field(&status_b, &["observed"]).as_u64(),
        "both servers rebuilt at the same batch"
    );
    for k in [1usize, 3, 5] {
        let sa = a.summary(k).expect("summary a");
        let sb = b.summary(k).expect("summary b");
        assert_eq!(sa.status, 200, "{}", sa.body);
        assert_eq!(sa.body, sb.body, "k={k}: rebuild must be deterministic");
    }

    // --- The rebuild family reaches /status timing and /metrics. ---
    let last_ms = field(&again, &["drift", "last_resummarize_unix_ms"]).as_u64();
    assert!(last_ms.is_some_and(|ms| ms > 0), "rebuild timestamp exported: {}", again.body);
    let metrics = a.metrics().expect("metrics");
    assert!(
        metrics.body.contains("# TYPE isum_shard_resummarizes_total counter"),
        "{}",
        metrics.body
    );
    assert!(metrics.body.contains("isum_shard_resummarize_ms_total"), "{}", metrics.body);

    telemetry::set_enabled(false);
    server_a.shutdown();
    server_b.shutdown();
    server_a.join();
    server_b.join();
}
