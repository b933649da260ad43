//! DriftTracker re-arm semantics across restarts (DESIGN.md §12/§15):
//! the tracker's recent window *and* its edge-trigger latch are rebuilt
//! by silent WAL replay — the same path after a clean shutdown and after
//! a simulated crash — so an excursion that already fired never
//! double-fires on reboot, and the tracker still re-arms and fires again
//! once the score has genuinely dropped below the threshold and a fresh
//! excursion arrives.

use std::path::Path;
use std::time::Duration;

use isum_server::{Client, Server, ServerConfig};

mod support;
use support::{catalog, field, ingest_ok, shifted, steady, temp_dir, third};

fn boot(checkpoint: &Path) -> (Server, Client) {
    let mut cfg = ServerConfig::new(catalog());
    cfg.drift_window = 8;
    cfg.drift_threshold = 0.3;
    cfg.checkpoint = Some(checkpoint.to_path_buf());
    let server = Server::bind("127.0.0.1:0", cfg).expect("binds");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));
    (server, client)
}

fn drift_u64(client: &Client, name: &str) -> u64 {
    let status = client.status(None).expect("status");
    field(&status, &["drift", name]).as_u64().unwrap_or_else(|| panic!("{name} not a number"))
}

fn drift_score(client: &Client) -> f64 {
    let status = client.status(None).expect("status");
    field(&status, &["drift", "score"]).as_f64().expect("score sampled")
}

/// Clean-shutdown path: replay rebuilds the latch and window. Three
/// reboots: steady → shifted (fires once) → still-above
/// (must NOT re-fire) → decay below threshold, then a fresh excursion
/// (MUST re-fire).
#[test]
fn latch_survives_clean_restarts_and_rearms_below_threshold() {
    let dir = temp_dir("clean");
    let ckpt = dir.join("ckpt.json");
    let mut seq = 0u64;

    // Run 1: steady history only; no excursion.
    let (server, client) = boot(&ckpt);
    for i in 0..20usize {
        ingest_ok(&client, seq, &steady(i));
        seq += 1;
    }
    assert_eq!(drift_u64(&client, "alerts"), 0);
    server.shutdown();
    server.join();

    // Run 2: the shift crosses the threshold — exactly one alert, and we
    // stop while the score is still above it.
    let (server, client) = boot(&ckpt);
    for i in 0..10usize {
        ingest_ok(&client, seq, &shifted(i));
        seq += 1;
    }
    assert_eq!(drift_u64(&client, "alerts"), 1, "one excursion, one alert");
    assert!(drift_score(&client) > 0.3, "stopping mid-excursion");
    server.shutdown();
    server.join();

    // Run 3: restored above-threshold — more of the same excursion must
    // not fire again (alert counters are per-process, so any firing here
    // would be visible as a nonzero count). The score gauge publishes on
    // the first live batch, computed over the *restored* window.
    let (server, client) = boot(&ckpt);
    for i in 10..15usize {
        ingest_ok(&client, seq, &shifted(i));
        seq += 1;
    }
    assert!(drift_score(&client) > 0.3, "restored window keeps the score above threshold");
    assert_eq!(drift_u64(&client, "alerts"), 0, "latched excursion does not double-fire");

    // Decay: as the shifted template becomes the majority of history the
    // score falls below the threshold and the tracker re-arms...
    for i in 15..60usize {
        ingest_ok(&client, seq, &shifted(i));
        seq += 1;
    }
    assert!(drift_score(&client) < 0.3, "the shifted mix is the new normal");
    assert_eq!(drift_u64(&client, "alerts"), 0, "re-arming alone fires nothing");

    // ...so a genuinely fresh excursion fires again.
    for i in 0..10usize {
        ingest_ok(&client, seq, &third(i));
        seq += 1;
    }
    assert_eq!(drift_u64(&client, "alerts"), 1, "re-armed tracker fires on the next excursion");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash path: the WAL bytes are copied out from under a live server
/// mid-excursion (exactly what a SIGKILL would leave) and a fresh server
/// boots from the copy alone. Replay rebuilds the window and the latch
/// silently — no alert is re-counted, and continued excursion traffic
/// does not fire.
#[test]
fn latch_survives_wal_replay_without_refiring() {
    let dir = temp_dir("crash");
    let mut seq = 0u64;
    let live_wal = {
        let (server, client) = boot(&dir.join("ckpt.json"));
        for i in 0..20usize {
            ingest_ok(&client, seq, &steady(i));
            seq += 1;
        }
        for i in 0..6usize {
            ingest_ok(&client, seq, &shifted(i));
            seq += 1;
        }
        assert_eq!(drift_u64(&client, "alerts"), 1, "excursion fired before the crash");
        assert!(drift_score(&client) > 0.3);
        let wal = std::fs::read(dir.join("ckpt.wal.00000001")).expect("wal exists while live");
        server.shutdown();
        server.join();
        wal
    };

    let dir2 = temp_dir("crash_boot");
    std::fs::write(dir2.join("ckpt.wal.00000001"), &live_wal).expect("writes crash image");
    let (server, client) = boot(&dir2.join("ckpt.json"));
    assert_eq!(
        drift_u64(&client, "alerts"),
        0,
        "replay is silent: the old alert is not re-counted"
    );
    for i in 6..12usize {
        ingest_ok(&client, seq, &shifted(i));
        seq += 1;
    }
    assert!(drift_score(&client) > 0.3, "replay reconstructed the excursion window");
    assert_eq!(
        drift_u64(&client, "alerts"),
        0,
        "the replayed latch holds: still-above traffic cannot double-fire"
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}
