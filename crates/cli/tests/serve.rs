//! `isum serve` and `isum client` as real processes: the live summary of
//! each tenant is the batch CLI's bytes, a SIGKILL and restart changes no
//! byte, and SIGTERM drains to exit 0 with log segments the only files.

mod support;

#[path = "../../common/tests/exposition/mod.rs"]
mod exposition;

use std::path::Path;

use isum_common::Json;
use isum_server::Client;
use support::{command, run, temp_dir, Daemon};

fn isum(dir: &Path, env: &[(&str, &str)]) -> std::process::Command {
    command(env!("CARGO_BIN_EXE_isum"), dir, env)
}

#[test]
fn live_summaries_match_the_batch_cli_across_sigkill_and_drain_on_sigterm() {
    let dir = temp_dir("cli_serve");
    let cli = |args: &[&str]| run(isum(&dir, &[]).args(args));
    cli(&["dump", "--workload", "gen:tpch:1:120:42", "--out", "a.sql"]);
    cli(&["dump", "--workload", "gen:tpch:1:90:7", "--out", "b.sql"]);
    let serve = || {
        let args = ["serve", "--schema", "tpch:1", "--listen", "127.0.0.1:0", "--checkpoint"];
        Daemon::spawn(isum(&dir, &[("ISUM_TELEMETRY", "1")]).args(args).arg("ckpt.json"))
    };
    let tenants = [("default", "a.sql"), ("bolt", "b.sql")];
    let summaries = |addr: &str| -> Vec<String> {
        let summary = |t| cli(&["client", "summary", "--server", addr, "--tenant", t, "-k", "10"]);
        let merged = Client::new(addr).summary(10).expect("merged").body;
        tenants.iter().map(|(t, _)| summary(t)).chain([merged]).collect()
    };

    let daemon = serve();
    for (t, workload) in tenants {
        cli(&["client", "ingest", "--server", &daemon.addr, "--tenant", t, "--workload", workload]);
    }
    let live = summaries(&daemon.addr);
    for ((_, workload), live) in tenants.iter().zip(&live) {
        let batch =
            cli(&["compress", "--schema", "tpch:1", "--workload", workload, "-k", "10", "--json"]);
        assert_eq!(live, &batch, "{workload}: live /summary is the batch CLI's bytes");
    }

    // The merged view covers both shards.
    let merged = Json::parse(&live[2]).expect("merged JSON");
    let num = |key: &str| merged.get(key).and_then(Json::as_u64);
    assert_eq!((num("shards"), num("observed")), (Some(2), Some(210)), "{}", live[2]);
    assert_eq!(merged.get("merged").and_then(Json::as_bool), Some(true));
    let picks = merged.get("selected").and_then(Json::as_array).expect("selected");
    assert_eq!(picks.len(), 10);
    for key in ["fingerprint", "instances", "mass_bits", "weight_bits"] {
        assert!(picks.iter().all(|p| p.get(key).is_some()), "every pick has {key}: {}", live[2]);
    }
    let weights: f64 = picks.iter().filter_map(|p| p.get("weight")?.as_f64()).sum();
    assert!((weights - 1.0).abs() < 1e-9, "weights sum to 1: {weights}");

    // A valid exposition, with nonzero server counters and tenant labels.
    let metrics = Client::new(daemon.addr.as_str()).metrics().expect("metrics").body;
    assert_eq!(exposition::check_exposition(&metrics, &[]), Ok(()), "{metrics}");
    for counter in ["requests", "ingest_batches", "ingest_statements", "wal_appends"] {
        let value =
            metrics.lines().find_map(|l| l.strip_prefix(&format!("isum_server_{counter} ")));
        assert!(value.is_some_and(|v| v != "0"), "isum_server_{counter} is nonzero:\n{metrics}");
    }
    assert!(metrics.contains("isum_shard_observed{tenant=\"default\"} 120\n"), "{metrics}");
    assert!(metrics.contains("isum_shard_observed{tenant=\"bolt\"} 90\n"), "{metrics}");

    // SIGKILL right after the last ack: the restart replays every shard's
    // log and serves the same bytes.
    daemon.kill();
    let daemon = serve();
    assert_eq!(summaries(&daemon.addr), live);

    // SIGTERM drains and exits 0; the daemon wrote log segments only.
    assert!(daemon.terminate().success());
    let files = std::fs::read_dir(&dir).expect("lists").map(|e| e.expect("entry").file_name());
    let mut files: Vec<_> = files.map(|f| f.to_string_lossy().into_owned()).collect();
    files.sort();
    assert_eq!(files, ["a.sql", "b.sql", "ckpt.t-626f6c74.wal.00000001", "ckpt.wal.00000001"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn debug_tracing_leaves_compress_output_unchanged() {
    let dir = temp_dir("cli_trace");
    let args =
        ["compress", "--schema", "tpch:1", "--workload", "gen:tpch:1:120:42", "-k", "10", "--json"];
    let plain = run(isum(&dir, &[]).args(args));
    let out = isum(&dir, &[("ISUM_LOG", "debug")]).args(args).output().expect("spawns");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), plain);
    let events = String::from_utf8_lossy(&out.stderr);
    for phase in ["featurize", "select", "weight"] {
        assert!(events.contains(&format!("\"msg\":\"{phase} done\"")), "{phase}: {events}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
