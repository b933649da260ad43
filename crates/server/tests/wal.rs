//! End-to-end tests of the segmented write-ahead log (DESIGN.md §14):
//! crash recovery replays acknowledged batches bit-identically, a disk
//! failure in a live daemon acks only what is durable and refuses the
//! rest until a restart, a torn tail boots an exact whole-record prefix, damage anywhere else refuses
//! to start, rotation keeps disk writes O(batch) and never touches a
//! closed segment, a re-summarization is a logged rebase that converges
//! across crashes and configuration changes, every tenant keeps its own
//! log whatever the stem looks like, and a log copied from another shard
//! or a file of a retired layout refuses to start and changes nothing.

use std::path::{Path, PathBuf};

use isum_catalog::{Catalog, CatalogBuilder};
use isum_common::framing::{decode_frame, FrameStatus};
use isum_core::IsumConfig;
use isum_server::{Client, DriftAction, Engine, Server, ServerConfig};

mod support;
use support::{start, temp_dir};

fn catalog() -> Catalog {
    CatalogBuilder::new()
        .table("orders", 150_000)
        .col_key("o_id")
        .col_int("o_cust", 10_000, 0, 10_000)
        .col_int("o_total", 5_000, 1, 50_000)
        .finish()
        .expect("fresh table")
        .build()
}

/// `n` single-statement batches (a record is about a hundred bytes).
fn tiny_batches(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("SELECT o_id FROM orders WHERE o_cust = {};\n", i * 7 % 9999)).collect()
}

/// `n` batches of 3 statements each.
fn batches(n: usize) -> Vec<String> {
    (0..n)
        .map(|b| {
            (0..3)
                .map(|j| {
                    let i = b * 3 + j;
                    format!("SELECT o_id FROM orders WHERE o_total > {};\n", i * 11 % 40_000)
                })
                .collect()
        })
        .collect()
}

/// The serial reference: one engine applying every batch in order.
fn reference_summary(catalog: Catalog, all: &[String], k: usize) -> String {
    let mut engine = Engine::new(catalog, IsumConfig::isum());
    for b in all {
        let outcome = engine.apply_script(b);
        assert!(outcome.rejected.is_empty(), "reference batch rejected: {:?}", outcome.rejected);
    }
    let mut body = engine.summary_json(k).expect("reference summary").to_pretty();
    body.push('\n');
    body
}

fn ingest_all(client: &Client, all: &[String]) {
    for (seq, script) in all.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "seq {seq}: {}", resp.body);
    }
}

fn config_with(checkpoint: &Path, segment_bytes: u64) -> ServerConfig {
    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(checkpoint.to_path_buf());
    config.wal_segment_bytes = segment_bytes;
    config
}

/// File names in `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Copies a state directory as a SIGKILL would leave it: the daemon
/// fsyncs before every ack and writes nothing else, so the files under a
/// *live* server are the crash image.
fn crash_image(from: &Path, tag: &str) -> PathBuf {
    let to = temp_dir(tag);
    for name in names(from) {
        std::fs::copy(from.join(&name), to.join(&name)).expect("copies");
    }
    to
}

/// Offsets at which the frames of a segment end, the 8-byte header first.
fn frame_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = vec![8];
    while *ends.last().unwrap() < bytes.len() {
        let pos = *ends.last().unwrap();
        match decode_frame(&bytes[pos..]) {
            FrameStatus::Complete { consumed, .. } => ends.push(pos + consumed),
            other => panic!("fresh segment has a bad frame at byte {pos}: {other:?}"),
        }
    }
    ends
}

/// Every file in `dir` with its bytes, to show a refusal changed nothing.
fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    names(dir)
        .into_iter()
        .map(|n| (n.clone(), std::fs::read(dir.join(&n)).expect("reads")))
        .collect()
}

/// The start-up error of a daemon on `config`, which must refuse.
fn refusal(config: ServerConfig) -> String {
    match Server::bind("127.0.0.1:0", config) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("this state directory must refuse to start"),
    }
}

fn observed(client: &Client) -> u64 {
    client.healthz().expect("healthz").field("observed").and_then(|v| v.as_u64()).expect("observed")
}

#[test]
fn acked_batches_survive_a_simulated_crash_and_nothing_but_segments_is_written() {
    let dir = temp_dir("crash_replay");
    let all = batches(5);
    let (server, client) = start(config_with(&dir.join("ckpt.json"), 200));
    ingest_all(&client, &all);
    let live = client.summary(4).expect("summary");
    assert_eq!(live.status, 200, "{}", live.body);
    assert_eq!(live.body, reference_summary(catalog(), &all, 4));
    let image = crash_image(&dir, "crash_replay_boot");
    server.shutdown();
    server.join();
    // The drain wrote nothing: the log was already durable.
    assert_eq!(names(&dir), names(&image));
    assert!(names(&dir).iter().all(|n| n.starts_with("ckpt.wal.0000")), "{:?}", names(&dir));
    assert!(names(&dir).len() >= 5, "200-byte segments rotate on every batch: {:?}", names(&dir));

    let (server, client) = start(config_with(&image.join("ckpt.json"), 200));
    assert_eq!(observed(&client), 15, "replay resumes every acked statement");
    assert_eq!(
        client.summary(4).expect("summary").body,
        live.body,
        "restart is byte-identical to the never-crashed run"
    );
    // A client unsure what landed replays everything: all duplicates.
    for (seq, script) in all.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.field("status").and_then(|v| v.as_str()), Some("duplicate"), "seq {seq}");
    }
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&image);
}

#[test]
fn a_disk_failure_in_a_live_daemon_acks_what_is_durable_and_refuses_the_rest() {
    // A real failure, no hook: with 1-byte segments every record rotates,
    // and a directory squatting on the next segment's name makes that
    // rotation's exclusive create fail (EEXIST).
    let dir = temp_dir("disk_failure");
    let ckpt = dir.join("ckpt.json");
    let all = batches(5);
    let (server, client) = start(config_with(&ckpt, 1));
    let resp = client.ingest(&all[0], Some(0)).expect("sends");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(names(&dir), ["ckpt.wal.00000001", "ckpt.wal.00000002"]);
    std::fs::create_dir(dir.join("ckpt.wal.00000003")).expect("squats on segment 3");

    let resp = client.ingest(&all[1], Some(1)).expect("sends");
    assert_eq!(resp.status, 200, "fsynced before the rotation failed, so acked: {}", resp.body);
    assert_eq!(resp.field("status").and_then(|v| v.as_str()), Some("ok"), "{}", resp.body);
    assert_eq!(observed(&client), 6);
    for attempt in 0..3 {
        let resp = client.ingest(&all[2], Some(2)).expect("sends");
        assert_eq!(resp.status, 503, "attempt {attempt}: {}", resp.body);
        assert!(resp.body.contains("not applied"), "{}", resp.body);
        assert!(resp.retry_after().is_some(), "a failed append is retryable: {}", resp.body);
        assert_eq!(observed(&client), 6, "a refused batch applies nothing");
    }
    server.shutdown();
    server.join();

    // The operator clears the disk and restarts: what was acked is a
    // duplicate, the rest lands, and the result is the serial reference.
    std::fs::remove_dir(dir.join("ckpt.wal.00000003")).expect("clears the squatter");
    let (server, client) = start(config_with(&ckpt, 1));
    assert_eq!(observed(&client), 6, "both acked batches replay");
    for (seq, script) in all.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "seq {seq}: {}", resp.body);
        let want = if seq < 2 { "duplicate" } else { "ok" };
        assert_eq!(resp.field("status").and_then(|v| v.as_str()), Some(want), "seq {seq}");
    }
    assert_eq!(client.summary(4).expect("summary").body, reference_summary(catalog(), &all, 4));
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_logged_statement_that_nests_too_deep_is_rejected_live_and_on_every_replay() {
    // Statements are logged before they are parsed, so whatever the
    // parser does to a hostile one it does again on every restart. Each
    // of these once overflowed the shard thread's stack — after the
    // fsync: a crash loop until someone edited the log by hand.
    let dir = temp_dir("deep");
    let head = "SELECT o_id FROM orders WHERE ";
    let n = 200_000;
    let hostile = [
        format!("{head}{}o_cust = 1{};\n", "(".repeat(n), ")".repeat(n)),
        format!("{head}{}o_cust = 1;\n", "NOT ".repeat(n)),
        format!("{head}o_cust = 1{};\n", " AND o_cust = 1".repeat(n)),
        format!("{head}o_cust = 1{};\n", " + 1".repeat(n)),
    ];
    let valid = tiny_batches(2);
    let (server, client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
    for (seq, deep) in hostile.iter().enumerate() {
        let script = format!("{}{deep}{}", valid[0], valid[1]);
        let resp = client.ingest_with_retry(&script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "{}", &resp.body[..resp.body.len().min(400)]);
        assert_eq!(resp.field("applied").and_then(|v| v.as_u64()), Some(2));
        let rejected = resp.field("rejected").and_then(|v| v.as_array()).expect("rejected");
        assert_eq!(rejected.len(), 1, "a per-statement reject");
        assert_eq!(rejected[0].get("statement").and_then(|v| v.as_u64()), Some(1));
        let why = rejected[0].get("error").and_then(|v| v.as_str()).expect("typed error");
        assert!(why.contains("parse error") && why.contains("nests deeper"), "{why}");
    }
    let served = client.summary(3).expect("summary").body;
    server.shutdown();
    server.join();
    let (server, client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
    assert_eq!(observed(&client), 8, "the restart replays the same rejects and the same accepts");
    assert_eq!(client.summary(3).expect("summary").body, served);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_last_segment_boots_an_exact_prefix() {
    // Every cut offset is covered at the log layer (`wal::tests`); here
    // one boot per kind of cut shows the daemon serves the prefix.
    let dir = temp_dir("torn_boot");
    let all = tiny_batches(4);
    let (server, client) = start(config_with(&dir.join("ckpt.json"), 150));
    ingest_all(&client, &all[..2]);
    server.shutdown();
    server.join();
    // Two records filled segment 1; boot again with room and add two.
    let (server, client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
    ingest_all(&client, &all);
    server.shutdown();
    server.join();
    assert_eq!(names(&dir), ["ckpt.wal.00000001", "ckpt.wal.00000002"]);
    let last = dir.join("ckpt.wal.00000002");
    let whole = std::fs::read(&last).expect("reads");
    let ends = frame_ends(&whole);
    assert_eq!(ends.len(), 3, "header + two records");

    let cuts = [
        ("inside the header", 5, 2),
        ("inside the first frame", ends[0] + 11, 2),
        ("on a frame boundary", ends[1], 3),
        ("inside the last frame", ends[2] - 1, 3),
    ];
    for (what, cut, whole_batches) in cuts {
        std::fs::write(&last, &whole[..cut]).expect("cuts");
        let (server, client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
        assert_eq!(observed(&client), whole_batches as u64, "cut {what}");
        assert_eq!(
            client.summary(3).expect("summary").body,
            reference_summary(catalog(), &all[..whole_batches], 3),
            "cut {what}: the replayed prefix must match its serial reference"
        );
        // The client's retries land after the repaired tail.
        ingest_all(&client, &all);
        assert_eq!(client.summary(3).expect("summary").body, reference_summary(catalog(), &all, 3));
        server.shutdown();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_gap_or_a_bad_frame_in_a_closed_segment_refuses_to_start() {
    let dir = temp_dir("closed_damage");
    let all = tiny_batches(4);
    let (server, client) = start(config_with(&dir.join("ckpt.json"), 1));
    ingest_all(&client, &all);
    server.shutdown();
    server.join();
    assert_eq!(names(&dir).len(), 5, "one record per segment and an empty active one");
    let refuses = |image: &Path, needle: &str| {
        let err = match Server::bind("127.0.0.1:0", config_with(&image.join("ckpt.json"), 1)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a damaged log must refuse to start (wanted `{needle}`)"),
        };
        assert!(err.contains(needle) && err.contains("shard `default`"), "{err}");
        let _ = std::fs::remove_dir_all(image);
    };

    // A payload bit-flip in a closed segment — even in its final frame,
    // which the last segment would shrug off as a torn write.
    let image = crash_image(&dir, "closed_damage_flip");
    let second = image.join("ckpt.wal.00000002");
    let mut bytes = std::fs::read(&second).expect("reads");
    bytes[8 + 8 + 3] ^= 0x40;
    std::fs::write(&second, &bytes).expect("writes");
    refuses(&image, "closed segment");

    // A closed segment that lost its tail.
    let image = crash_image(&dir, "closed_damage_cut");
    std::fs::write(image.join("ckpt.wal.00000003"), &bytes[..20]).expect("writes");
    refuses(&image, "closed segment");

    // A segment gone from the middle, and from the front.
    let image = crash_image(&dir, "closed_damage_gap");
    std::fs::remove_file(image.join("ckpt.wal.00000002")).expect("removes");
    refuses(&image, "is missing");
    let image = crash_image(&dir, "closed_damage_head");
    std::fs::remove_file(image.join("ckpt.wal.00000001")).expect("removes");
    refuses(&image, "missing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_keeps_appends_o_batch_and_closed_segments_never_change() {
    let dir = temp_dir("obatch");
    let ckpt = dir.join("ckpt.json");
    let all = batches(8);
    let (server, client) = start(config_with(&ckpt, 700));
    let dir_bytes = || -> u64 {
        names(&dir).iter().map(|n| std::fs::metadata(dir.join(n)).expect("stat").len()).sum()
    };
    assert_eq!((names(&dir), dir_bytes()), (vec!["ckpt.wal.00000001".to_string()], 8));

    // Fixed overhead per record: 8 frame header + 1 kind + 8 wal_seq +
    // 1 has_seq + 8 seq + 2 shard_len + 7 "default" + 4 count, plus 13
    // bytes per statement (sql_len + cost flag + cost bits) — and 8 more
    // when the append fills the segment and opens the next.
    let mut frozen: Vec<(String, Vec<u8>)> = Vec::new();
    for (seq, script) in all.iter().enumerate() {
        let before = dir_bytes();
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let grown = dir_bytes() - before;
        let budget = script.len() as u64 + 39 + 13 * 3 + 8;
        assert!(
            grown <= budget && grown > script.len() as u64 / 2,
            "batch {seq} grew the state directory by {grown} bytes (budget {budget})"
        );
        // Only the newest file is ever written.
        for (name, bytes) in &frozen {
            assert_eq!(&std::fs::read(dir.join(name)).expect("reads"), bytes, "{name} changed");
        }
        let live = names(&dir);
        for name in &live[..live.len() - 1] {
            if !frozen.iter().any(|(n, _)| n == name) {
                frozen.push((name.clone(), std::fs::read(dir.join(name)).expect("reads")));
            }
        }
    }
    let segments = names(&dir).len() as u64;
    assert!(segments >= 3, "eight ~280-byte records over 700-byte segments: {:?}", names(&dir));

    // /status narrates the same story.
    let status = client.get("/status").expect("status");
    assert_eq!(status.status, 200, "{}", status.body);
    assert!(status.field("checkpoint").is_none(), "no snapshot, no snapshot age: {}", status.body);
    let d = status.field("durability").expect("durability section");
    assert_eq!(d.get("configured").and_then(|v| v.as_bool()), Some(true), "{}", status.body);
    assert_eq!(d.get("wal_seq").and_then(|v| v.as_u64()), Some(8), "{}", status.body);
    assert_eq!(d.get("wal_bytes").and_then(|v| v.as_u64()), Some(dir_bytes()), "{}", status.body);
    assert_eq!(d.get("segments").and_then(|v| v.as_u64()), Some(segments), "{}", status.body);
    for stamp in ["last_fsync_unix_ms", "last_rotation_unix_ms"] {
        assert!(d.get(stamp).is_some_and(|v| v.as_u64().is_some()), "{stamp}: {}", status.body);
    }
    let shard = &status.field("shards").and_then(|s| s.as_array()).expect("shards")[0];
    let wal = shard.get("wal").expect("per-shard wal block");
    assert_eq!(wal.get("segments").and_then(|v| v.as_u64()), Some(segments), "{}", status.body);
    assert_eq!(wal.get("bytes").and_then(|v| v.as_u64()), Some(dir_bytes()), "{}", status.body);
    assert_eq!(wal.get("oldest_wal_seq").and_then(|v| v.as_u64()), Some(0), "{}", status.body);
    assert!(wal.get("last_rotation_unix_ms").is_some_and(|v| v.as_u64().is_some()));

    // /metrics exposes the WAL families with tenant labels; an fsync is
    // counted per append and per rotation.
    let body = client.metrics().expect("metrics").body;
    let rotations = segments - 1;
    for sample in [
        format!("isum_wal_segments{{tenant=\"default\"}} {segments}"),
        format!("isum_wal_rotations_total{{tenant=\"default\"}} {rotations}"),
        format!("isum_wal_bytes{{tenant=\"default\"}} {}", dir_bytes()),
        format!(
            "isum_wal_appended_bytes_total{{tenant=\"default\"}} {}",
            dir_bytes() - 8 * segments
        ),
        format!("isum_wal_fsync_seconds_count{{tenant=\"default\"}} {}", 8 + rotations),
        "isum_wal_rebases_total{tenant=\"default\"} 0".to_string(),
    ] {
        assert!(body.contains(&sample), "missing `{sample}` in {body}");
    }
    assert!(!body.contains("isum_wal_compactions_total"), "{body}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_shards_keep_their_own_segments() {
    // Each tenant logs to its own `<stem>.t-<hex>.wal.<n>`.
    let dir = temp_dir("sharded_wals");
    let all = batches(2);
    let acme_summary = {
        let (server, _client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
        let acme = Client::new(server.addr().to_string()).with_tenant("acme").expect("tenant");
        ingest_all(&acme, &all);
        let body = acme.summary(3).expect("summary").body;
        server.shutdown();
        server.join();
        body
    };
    assert_eq!(names(&dir), ["ckpt.t-61636d65.wal.00000001", "ckpt.wal.00000001"]);
    // A restart discovers the tenant by its segments alone.
    let (server, _client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
    let acme = Client::new(server.addr().to_string()).with_tenant("acme").expect("tenant");
    assert_eq!(acme.summary(3).expect("summary").body, acme_summary);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_extensionless_stem_keeps_every_tenant_in_its_own_log() {
    // The stem's extension is dropped once, so a tenant's `.t-<hex>` tag
    // is never mistaken for one and folded into the default tenant's log.
    let dir = temp_dir("extensionless");
    let streams = [("default", batches(4)), ("acme", tiny_batches(5)), ("bolt", batches(2))];
    let clients = |server: &Server| -> Vec<Client> {
        let addr = server.addr().to_string();
        streams
            .iter()
            .map(|(t, _)| Client::new(addr.clone()).with_tenant(t).expect("valid"))
            .collect()
    };
    let (server, _client) = start(config_with(&dir.join("state"), 1 << 20));
    for (client, (_, stream)) in clients(&server).iter().zip(&streams) {
        ingest_all(client, stream);
    }
    let served: Vec<String> =
        clients(&server).iter().map(|c| c.summary(3).expect("summary").body).collect();
    server.shutdown();
    server.join();
    assert_eq!(
        names(&dir),
        ["state.t-61636d65.wal.00000001", "state.t-626f6c74.wal.00000001", "state.wal.00000001"]
    );

    let (server, _client) = start(config_with(&dir.join("state"), 1 << 20));
    for (client, before) in clients(&server).iter().zip(&served) {
        let after = client.summary(3).expect("summary");
        assert_eq!((after.status, &after.body), (200, before), "every acked batch is served again");
    }
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_record_of_another_shard_refuses_to_start_and_writes_nothing() {
    let dir = temp_dir("foreign");
    let (server, _client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
    let acme = Client::new(server.addr().to_string()).with_tenant("acme").expect("tenant");
    ingest_all(&acme, &batches(2));
    server.shutdown();
    server.join();
    // The tenant's log lands under the default tenant's name.
    std::fs::copy(dir.join("ckpt.t-61636d65.wal.00000001"), dir.join("ckpt.wal.00000001"))
        .expect("copies");
    let before = dir_image(&dir);
    let why = refusal(config_with(&dir.join("ckpt.json"), 1 << 20));
    assert!(
        why.contains("record 0 in ")
            && why.contains("ckpt.wal.00000001 names shard `acme`")
            && why.contains("shard `default`'s log"),
        "{why}"
    );
    assert_eq!(dir_image(&dir), before, "nothing was replayed into, repaired or created");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Rebase: re-summarization as a log record
// ---------------------------------------------------------------------

fn drift_catalog() -> Catalog {
    CatalogBuilder::new()
        .table("t", 50_000)
        .col_key("id")
        .col_int("grp", 200, 0, 200)
        .col_int("v", 1_000, 0, 10_000)
        .finish()
        .expect("fresh table")
        .build()
}

/// `steady` single-statement batches of one template, then twenty of a
/// second (the shift crosses the drift threshold and becomes the new
/// normal), then ten of a third (a second excursion after the re-arm) —
/// the stream of `tests/resummarize.rs`.
fn drifting_stream(steady: usize) -> Vec<String> {
    let mut stream: Vec<String> =
        (0..steady).map(|i| format!("SELECT id FROM t WHERE grp = {};\n", i % 13)).collect();
    stream.extend((0..20).map(|i| format!("SELECT grp FROM t WHERE v = {};\n", i * 17)));
    stream.extend((0..10).map(|i| format!("SELECT v FROM t WHERE id = {};\n", i * 3 + 1)));
    stream
}

fn drift_config(checkpoint: &Path, action: DriftAction, threshold: f64) -> ServerConfig {
    let mut config = ServerConfig::new(drift_catalog());
    config.checkpoint = Some(checkpoint.to_path_buf());
    config.drift_window = 8;
    config.drift_threshold = threshold;
    config.drift_action = action;
    config.wal_segment_bytes = 400;
    config
}

fn drift_count(client: &Client, name: &str) -> u64 {
    let status = client.status(None).expect("status");
    status.field("drift").and_then(|d| d.get(name)).and_then(|v| v.as_u64()).expect("drift field")
}

fn summaries(client: &Client) -> Vec<String> {
    [1, 3, 5].iter().map(|&k| client.summary(k).expect("summary").body).collect()
}

#[test]
fn a_rebase_converges_across_a_crash_before_it_and_a_changed_threshold_after_it() {
    let stream = drifting_stream(20);
    // The never-crashed run, noting the batch whose ack carried the first
    // re-summarization and what the shard looked like right after it.
    let dir = temp_dir("rebase_ref");
    let (server, client) =
        start(drift_config(&dir.join("ckpt.json"), DriftAction::Resummarize, 0.5));
    let mut crossing = None;
    for (seq, script) in stream.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "{}", resp.body);
        if crossing.is_none() && drift_count(&client, "resummarizes") == 1 {
            crossing = Some((seq, observed(&client), summaries(&client)));
        }
    }
    let (crossing, observed_after, summaries_after) = crossing.expect("the shift re-summarizes");
    assert_eq!(drift_count(&client, "resummarizes"), 2, "and the third template does again");
    let (final_observed, final_summaries) = (observed(&client), summaries(&client));
    server.shutdown();
    server.join();

    // Kill between the crossing batch's fsync and its rebase: the log ends
    // on that batch and holds no rebase record. (A daemon that only warns
    // leaves exactly that log.)
    let crashed = temp_dir("rebase_crash");
    let (server, client) = start(drift_config(&crashed.join("ckpt.json"), DriftAction::Warn, 0.5));
    ingest_all(&client, &stream[..=crossing]);
    assert_eq!(observed(&client), crossing as u64 + 1, "nothing was re-summarized");
    server.shutdown();
    server.join();
    let (server, client) =
        start(drift_config(&crashed.join("ckpt.json"), DriftAction::Resummarize, 0.5));
    assert_eq!(drift_count(&client, "resummarizes"), 1, "recovery acts on the crossing it ends on");
    assert_eq!((observed(&client), summaries(&client)), (observed_after, summaries_after));
    for (seq, script) in stream.iter().enumerate().skip(crossing + 1) {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    assert_eq!((observed(&client), summaries(&client)), (final_observed, final_summaries.clone()));
    server.shutdown();
    server.join();

    // Inside the log the rebase records decide: a restart under another
    // threshold (or with re-summarization off) cannot rewrite history.
    for (action, threshold) in
        [(DriftAction::Resummarize, 0.9), (DriftAction::Resummarize, 0.1), (DriftAction::Warn, 0.5)]
    {
        let (server, client) = start(drift_config(&dir.join("ckpt.json"), action, threshold));
        assert_eq!(
            (observed(&client), summaries(&client)),
            (final_observed, final_summaries.clone()),
            "restart with {action:?} at {threshold}"
        );
        assert_eq!(drift_count(&client, "resummarizes"), 0, "replay re-summarizes nothing itself");
        server.shutdown();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crashed);
}

#[test]
fn segments_before_a_rebase_are_unlinked_and_recovery_forgets_the_history_before_it() {
    // Long and short histories before the same shift leave the same log.
    let mut live_bytes = Vec::new();
    for steady in [20usize, 300] {
        let dir = temp_dir(&format!("rebase_retire_{steady}"));
        let stream = drifting_stream(steady);
        let (server, client) =
            start(drift_config(&dir.join("ckpt.json"), DriftAction::Resummarize, 0.5));
        ingest_all(&client, &stream[..steady]);
        let before = names(&dir);
        ingest_all(&client, &stream);
        assert_eq!(drift_count(&client, "resummarizes"), 2);
        let after = names(&dir);
        assert!(
            after.first() > before.last(),
            "every segment from before the rebase is gone: {before:?} -> {after:?}"
        );
        let status = client.status(None).expect("status");
        let wal = status.field("shards").and_then(|s| s.as_array()).expect("shards")[0]
            .get("wal")
            .expect("wal block");
        let oldest = wal.get("oldest_wal_seq").and_then(|v| v.as_u64()).expect("oldest");
        assert!(
            oldest > steady as u64,
            "the log starts at the last rebase record: {}",
            status.body
        );
        live_bytes.push(wal.get("bytes").and_then(|v| v.as_u64()).expect("bytes"));
        let metrics = client.metrics().expect("metrics").body;
        assert!(metrics.contains("isum_wal_rebases_total{tenant=\"default\"} 2"), "{metrics}");
        let served = summaries(&client);
        server.shutdown();
        server.join();
        let (server, client) =
            start(drift_config(&dir.join("ckpt.json"), DriftAction::Resummarize, 0.5));
        assert_eq!(summaries(&client), served);
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
    // What a restart replays does not depend on the history before the
    // last rebase (280 more batches would be ~25 KB more log).
    assert!(live_bytes[0].abs_diff(live_bytes[1]) < 200, "{live_bytes:?}");
}

// ---------------------------------------------------------------------
// Retired layouts
// ---------------------------------------------------------------------

#[test]
fn files_of_a_v1_state_directory_refuse_to_start_and_are_left_alone() {
    // What a release that compacted its log into snapshots left: the
    // snapshot at the stem, its predecessor, the single-file log, and a
    // tenant's snapshot. Each one alone refuses, and so do all of them,
    // next to the segments of today's layout, named in one error.
    let dir = temp_dir("v1_refusal");
    let (server, client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
    ingest_all(&client, &batches(2));
    server.shutdown();
    server.join();
    let v1 = [
        ("ckpt.json", &b"{\"version\": 1}"[..]),
        ("ckpt.json.prev", b"{\"version\": 1}"),
        ("ckpt.wal", b"ISUMWAL1"),
        ("ckpt.t-61636d65.json", b"{\"version\": 1}"),
    ];
    let refuses = |files: &[(&str, &[u8])]| {
        for (name, bytes) in files {
            std::fs::write(dir.join(name), bytes).expect("writes");
        }
        let before = dir_image(&dir);
        let why = refusal(config_with(&dir.join("ckpt.json"), 1 << 20));
        for (name, _) in files {
            assert!(why.contains(name) && why.contains("v1 snapshots"), "{name}: {why}");
        }
        assert_eq!(dir_image(&dir), before, "nothing was moved or written");
        for (name, _) in files {
            std::fs::remove_file(dir.join(name)).expect("removes");
        }
    };
    for file in &v1 {
        refuses(std::slice::from_ref(file));
    }
    refuses(&v1);
    // What an earlier release's import renamed aside is not state.
    std::fs::write(dir.join("ckpt.json.imported"), b"{}").expect("writes");
    let (server, client) = start(config_with(&dir.join("ckpt.json"), 1 << 20));
    assert_eq!(observed(&client), 6);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
