//! The crash-point matrix against a real `isum serve`: for each topology
//! and each point of the write path, SIGKILL a daemon mid-stream, restart
//! it on the same files, re-send every batch, and require that
//! every batch acked before the kill answers as a duplicate and that the
//! summaries are the bytes of an uninterrupted run.

mod support;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

use isum_common::framing::encode_frame;
use isum_server::Client;
use support::{command, run, temp_dir, Daemon};

/// A drift window small enough to re-summarize every few batches, so the
/// log is mostly rebase records.
const REBASING: [(&str, &str); 3] = [
    ("ISUM_DRIFT_ACTION", "resummarize"),
    ("ISUM_DRIFT_WINDOW", "4"),
    ("ISUM_DRIFT_THRESHOLD", "0.15"),
];

/// A crash point: name, daemon environment, segment bytes, and the kill's
/// trigger — the `n`-th (from 0) answer with `status`.
type Point = (&'static str, &'static [(&'static str, &'static str)], &'static str, (u16, usize));

const POINTS: [Point; 4] = [
    // Post-fsync, pre-ack: the stream goes on past the first ack.
    ("midingest", &[], "4096", (200, 0)),
    // Mid-append: after the kill, half a frame is appended to each shard's
    // last segment, the tail a crash in write(2) leaves (see `tear`).
    ("torn", &[], "4096", (200, 1)),
    // Every record fills its segment: the kill races fsync / create /
    // fsync-directory.
    ("midrotation", &[], "1", (200, 2)),
    // The kill races log rebase / apply / unlink of older segments.
    ("midrebase", &REBASING, "4096", (200, 6)),
];

/// A tenant and its batches, each `seq` its index.
type Stream = (&'static str, Vec<String>);

fn isum(dir: &Path, env: &[(&str, &str)]) -> std::process::Command {
    command(env!("CARGO_BIN_EXE_isum"), dir, env)
}

/// `workload`'s statements in batches of 4, with their cost annotations.
fn batches(workload: &str) -> Vec<String> {
    let script = run(isum(&std::env::temp_dir(), &[]).args(["dump", "--workload", workload]));
    let (sqls, costs) = isum_workload::split_script(&script);
    let statements: Vec<String> = (sqls.iter().zip(costs))
        .map(|(sql, cost)| cost.map_or(String::new(), |c| format!("-- cost: {c}\n")) + sql + ";\n")
        .collect();
    statements.chunks(4).map(<[String]>::concat).collect()
}

/// Every `(tenant, seq, batch)`, the streams interleaved by seq.
fn interleaved(streams: &[Stream]) -> Vec<(&'static str, u64, String)> {
    let longest = streams.iter().map(|(_, b)| b.len()).max().unwrap_or(0);
    let at = |seq: usize| streams.iter().filter_map(move |(t, b)| Some((*t, seq, b.get(seq)?)));
    (0..longest).flat_map(at).map(|(t, seq, b)| (t, seq as u64, b.clone())).collect()
}

/// The default shard is addressed without a tenant, as a plain deployment does.
fn client(addr: &str, tenant: &str) -> Client {
    let client = Client::new(addr);
    if tenant == "default" {
        client
    } else {
        client.with_tenant(tenant).expect("valid tenant")
    }
}

fn serve(dir: &Path, stem: &str, env: &[(&str, &str)], segment_bytes: &str) -> Daemon {
    let args = ["serve", "--schema", "tpch:1", "--listen", "127.0.0.1:0", "--checkpoint", stem];
    Daemon::spawn(isum(dir, env).args(args).args(["--wal-segment-bytes", segment_bytes]))
}

/// Sends every batch, then captures `/summary?k=10` and each shard's
/// `/summary/explain?k=10`. A batch in `acked` was acked before a crash,
/// so it must answer as a duplicate.
fn ingest_and_capture(daemon: &Daemon, streams: &[Stream], acked: &[(&str, u64)]) -> Vec<String> {
    for (tenant, seq, batch) in interleaved(streams) {
        let resp = client(&daemon.addr, tenant).ingest_with_retry(&batch, Some(seq), 600);
        let resp = resp.expect("delivers");
        assert_eq!(resp.status, 200, "{tenant} seq {seq}: {}", resp.body);
        if acked.contains(&(tenant, seq)) {
            let status = resp.field("status").and_then(|s| s.as_str());
            assert_eq!(status, Some("duplicate"), "{tenant} seq {seq} was acked, so durable");
        }
    }
    let explains = streams.iter().map(|(t, _)| format!("/summary/explain?k=10&tenant={t}"));
    let client = Client::new(daemon.addr.as_str());
    (std::iter::once("/summary?k=10".to_string()).chain(explains))
        .map(|target| {
            let resp = client.get(&target).expect("answers");
            assert_eq!(resp.status, 200, "{target}: {}", resp.body);
            resp.body
        })
        .collect()
}

/// Appends the first half of a frame to the last segment of each of the
/// `shards` logs under stem `stem` in `dir`: the torn tail a crash
/// partway through an append leaves behind. Returns each torn segment
/// with its length before the tear.
fn tear(dir: &Path, stem: &str, shards: usize) -> Vec<(PathBuf, u64)> {
    // Segment numbers are zero-padded, so the greatest name is the last.
    let mut last = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("lists") {
        let name = entry.expect("entry").file_name().into_string().expect("utf-8");
        let Some((log, _)) = name.rsplit_once('.') else { continue };
        if name.starts_with(&format!("{stem}.")) {
            let newest = last.entry(log.to_string()).or_insert_with(String::new);
            *newest = name.clone().max(newest.clone());
        }
    }
    // The default shard always has a log, even when no stream feeds it.
    assert!(last.len() >= shards, "a log per shard: {last:?}");
    let frame = encode_frame(b"a record the crash cut short");
    let torn = last.values().map(|segment| {
        let path = dir.join(segment);
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).expect("opens");
        let len = file.metadata().expect("stats").len();
        file.write_all(&frame[..frame.len() / 2]).expect("tears");
        (path, len)
    });
    torn.collect()
}

fn crash_matrix(tag: &str, streams: &[Stream]) {
    let dir = temp_dir(&format!("crash_{tag}"));
    let reference = |stem: &str, env: &[(&str, &str)]| {
        let daemon = serve(&dir, stem, env, "4096");
        let bytes = ingest_and_capture(&daemon, streams, &[]);
        assert!(daemon.terminate().success());
        bytes
    };
    let (plain, rebasing) = (reference("ref.json", &[]), reference("rebasing.json", &REBASING));
    let names = || std::fs::read_dir(&dir).expect("lists").map(|e| e.expect("entry").file_name());
    let rebased = names().any(|n| {
        n.to_str().is_some_and(|n| n.starts_with("rebasing.") && !n.ends_with(".00000001"))
    });
    assert!(rebased, "the re-summarizing reference rebased its log");

    for (point, env, segment_bytes, (status, n)) in POINTS {
        let stem = format!("{point}.json");
        let daemon = serve(&dir, &stem, env, segment_bytes);
        let (answer, answers) = mpsc::channel();
        let (addr, all) = (daemon.addr.clone(), interleaved(streams));
        let feeder = std::thread::spawn(move || {
            for (tenant, seq, batch) in all {
                match client(&addr, tenant).ingest(&batch, Some(seq)) {
                    Ok(resp) if answer.send((resp.status, (tenant, seq))).is_ok() => {}
                    _ => return, // the daemon is gone
                }
            }
        });
        let mut seen = Vec::new();
        while seen.iter().filter(|(s, _)| *s == status).count() <= n {
            seen.push(answers.recv().unwrap_or_else(|_| panic!("{tag}/{point}: no {status}")));
        }
        daemon.kill();
        feeder.join().expect("feeder");
        seen.extend(answers.try_iter());
        let acked: Vec<_> = seen.into_iter().filter(|(s, _)| *s == 200).map(|(_, a)| a).collect();
        let torn = if point == "torn" { tear(&dir, point, streams.len()) } else { Vec::new() };

        let daemon = serve(&dir, &stem, env, "4096");
        for (segment, len) in torn {
            let now = std::fs::metadata(&segment).expect("stats").len();
            assert_eq!(now, len, "{tag}: recovery cuts the torn tail of {}", segment.display());
        }
        let expected = if point == "midrebase" { &rebasing } else { &plain };
        assert_eq!(&ingest_and_capture(&daemon, streams, &acked), expected, "{tag}/{point}");
        assert!(daemon.terminate().success());
    }
    for name in names() {
        assert!(name.to_string_lossy().contains(".wal."), "segments only, not {name:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_default_shard_recovers_every_crash_point_byte_identically() {
    crash_matrix("plain", &[("default", batches("gen:tpch:1:120:42"))]);
}

#[test]
fn two_tenants_recover_every_crash_point_byte_identically() {
    let acme = batches("gen:tpch:1:120:42");
    crash_matrix("tenants", &[("acme", acme), ("bolt", batches("gen:tpch:1:90:7"))]);
}
