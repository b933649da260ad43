//! End-to-end tests of the serving daemon over real TCP sockets:
//! concurrent-client determinism, backpressure, malformed input,
//! graceful-shutdown drain (which a dripping client cannot hold open),
//! and resume from the log.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use isum_core::{Compressor, Isum};
use isum_server::{read_response, Client, ServerConfig, REQUEST_DEADLINE};

mod support;
use support::{orders_catalog as catalog, reference_summary, start};

/// `n` batches of 3 statements each, cycling over a few shapes.
fn batches(n: usize) -> Vec<String> {
    (0..n)
        .map(|b| {
            (0..3)
                .map(|j| {
                    let i = b * 3 + j;
                    match i % 3 {
                        0 => format!("SELECT o_id FROM orders WHERE o_cust = {};\n", i * 7 % 9999),
                        1 => format!(
                            "SELECT o_id FROM orders, lines WHERE l_order = o_id \
                             AND o_total > {};\n",
                            i * 11 % 40_000
                        ),
                        _ => format!(
                            "SELECT count(*) FROM lines WHERE l_qty = {} GROUP BY l_order;\n",
                            i % 50 + 1
                        ),
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn concurrent_sequenced_ingest_matches_serial_reference() {
    let all = batches(12);
    let (server, client) = start(ServerConfig::new(catalog()));

    // Three producers, each streaming its shard in seq order; the
    // interleaving across producers is up to the scheduler.
    std::thread::scope(|s| {
        for t in 0..3usize {
            let shard: Vec<(u64, &String)> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == t)
                .map(|(i, b)| (i as u64, b))
                .collect();
            let client = Client::new(server.addr().to_string());
            s.spawn(move || {
                for (seq, script) in shard {
                    let resp =
                        client.ingest_with_retry(script, Some(seq), 400).expect("ingest delivers");
                    assert_eq!(resp.status, 200, "seq {seq}: {}", resp.body);
                }
            });
        }
    });

    let live = client.summary(7).expect("summary");
    assert_eq!(live.status, 200, "{}", live.body);
    assert_eq!(
        live.body,
        reference_summary(&all, 7),
        "concurrent sequenced ingest must be bit-identical to serial"
    );
    server.shutdown();
    server.join();
}

/// Statements without a single indexable column have empty feature
/// vectors: none of them can ever be a candidate on its benefit, which
/// used to make selection spin forever — with the engine lock held, so
/// the tenant's ingest wedged behind the first `/summary`.
#[test]
fn summary_over_featureless_statements_answers_and_ingest_goes_on() {
    // On its own thread: a wedged daemon cannot be shut down either, and
    // the test has to fail rather than hang with it.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (server, client) = start(ServerConfig::new(catalog()));
        let client = client.with_timeout(Duration::from_secs(10));
        let featureless = "SELECT count(*) FROM orders;\nSELECT count(*) FROM lines;\n";
        let resp = client.ingest_with_retry(featureless, Some(0), 10).expect("ingest delivers");
        assert_eq!(resp.status, 200, "{}", resp.body);

        let live = client.summary(10).expect("/summary answers within the timeout");
        assert_eq!(live.status, 200, "{}", live.body);
        let body = isum_common::Json::parse(&live.body).expect("summary is JSON");
        let selected =
            body.get("selected").and_then(isum_common::Json::as_array).expect("selected");
        assert_eq!(selected.len(), 2, "k ≥ n returns every statement: {}", live.body);
        assert_eq!(live.body, reference_summary(&[featureless.to_string()], 10));

        let resp = client.ingest_with_retry(&batches(1)[0], Some(1), 10).expect("ingest goes on");
        assert_eq!(resp.status, 200, "{}", resp.body);
        server.shutdown();
        server.join();
        done.send(()).expect("test is waiting");
    });
    finished.recv_timeout(Duration::from_secs(30)).expect("daemon answered and shut down");
}

/// Finite `-- cost:` annotations whose total overflows: the live summary
/// is the batch compressor's, byte for byte, and the cheap statement keeps
/// its tiny utility instead of weighing as much as the expensive ones.
#[test]
fn overflowing_costs_serve_what_batch_compresses() {
    let script = "-- cost: 1e308\nSELECT o_id FROM orders WHERE o_cust = 7;\n\
                  -- cost: 1e308\nSELECT l_id FROM lines WHERE l_order = 11;\n\
                  -- cost: 1e308\nSELECT o_id FROM orders WHERE o_total = 5;\n\
                  -- cost: 10\nSELECT l_id FROM lines WHERE l_qty = 3;\n";
    let (server, client) = start(ServerConfig::new(catalog()));
    let resp = client.ingest_with_retry(script, Some(0), 10).expect("ingest delivers");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let live = client.summary(4).expect("summary");
    assert_eq!(live.status, 200, "{}", live.body);
    server.shutdown();
    server.join();

    let w = isum_workload::load_script(catalog(), script).expect("script loads");
    let batch = Isum::new().compress(&w, 4).expect("batch compresses");
    let mut body =
        isum_server::summary_to_json(4, w.len(), w.template_count(), &batch.entries).to_pretty();
    body.push('\n');
    assert_eq!(live.body, body, "served ≡ batch");
    let weight = |q: usize| batch.entries.iter().find(|(id, _)| id.index() == q).expect("picked").1;
    for q in 0..3 {
        assert!(weight(3) < weight(q) * 1e-6, "cheap {} vs {}: {}", weight(3), weight(q), body);
    }
}

#[test]
fn backpressure_answers_429_and_retries_converge() {
    let mut config = ServerConfig::new(catalog());
    config.queue_cap = 1;
    config.apply_delay = Duration::from_millis(120);
    let (server, _client) = start(config);

    let all = batches(6);
    let mut saw_429 = false;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for script in &all {
            let client = Client::new(server.addr().to_string());
            handles.push(s.spawn(move || {
                // First a raw attempt so we can observe the 429 itself...
                let mut rejected = false;
                loop {
                    let resp = client.ingest(script, None).expect("ingest connects");
                    match resp.status {
                        200 => return rejected,
                        429 => {
                            rejected = true;
                            assert!(
                                resp.retry_after().is_some(),
                                "429 must carry Retry-After: {}",
                                resp.body
                            );
                            std::thread::sleep(Duration::from_millis(60));
                        }
                        503 => std::thread::sleep(Duration::from_millis(60)),
                        other => panic!("unexpected status {other}: {}", resp.body),
                    }
                }
            }));
        }
        for h in handles {
            saw_429 |= h.join().expect("producer thread");
        }
    });
    assert!(saw_429, "a 1-deep queue under 6 concurrent producers must push back");

    let client = Client::new(server.addr().to_string());
    let health = client.healthz().expect("healthz");
    assert_eq!(
        health.field("observed").and_then(|v| v.as_u64()),
        Some(18),
        "every backpressured batch is eventually applied: {}",
        health.body
    );
    server.shutdown();
    server.join();
}

#[test]
fn malformed_requests_and_sql_are_answered_not_dropped() {
    let (server, client) = start(ServerConfig::new(catalog()));

    // Garbage request line → 400, connection answered.
    let stream = TcpStream::connect(server.addr()).expect("connects");
    {
        let mut w = &stream;
        w.write_all(b"NOT-HTTP\r\n\r\n").expect("writes");
    }
    let (status, _, _) = read_response(&stream).expect("answered");
    assert_eq!(status, 400);

    // Unknown endpoint and wrong method.
    assert_eq!(client.get("/nope").expect("404").status, 404);
    assert_eq!(client.post("/summary?k=3", "").expect("405").status, 405);

    // A computation that fails on its input answers 400 with the error's
    // text in the plain envelope, and is not worth retrying.
    let envelope = |error: &str| format!("{{\n  \"error\": \"{error}\",\n  \"status\": 400\n}}\n");
    let zero = client.summary(0).expect("k=0");
    assert_eq!(zero.status, 400);
    assert_eq!(zero.body, envelope("invalid configuration: k must be positive"));
    assert_eq!(zero.retry_after(), None, "{}", zero.body);
    assert_eq!(client.get("/summary").expect("no k").status, 400);
    let empty = client.summary(3).expect("empty engine");
    assert_eq!(empty.status, 400);
    assert_eq!(empty.body, envelope("invalid configuration: no queries observed"));
    assert_eq!(empty.retry_after(), None, "{}", empty.body);

    // A batch with broken statements is lenient: applied where possible,
    // each failure reported, connection intact.
    let resp = client
        .ingest(
            "SELECT o_id FROM orders WHERE o_cust = 7;\n\
             SELECT FROM;\n\
             SELECT o_id FROM no_such_table;\n\
             SELECT o_id FROM orders WHERE o_cust = 9;",
            None,
        )
        .expect("ingest");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.field("applied").and_then(|v| v.as_u64()), Some(2), "{}", resp.body);
    let rejected = resp.field("rejected").and_then(|v| v.as_array()).expect("rejected list");
    assert_eq!(rejected.len(), 2, "{}", resp.body);

    // Non-UTF-8 body → 400.
    let bad = client.post("/ingest", "SELECT \u{0} FROM orders").expect("sends");
    assert!(bad.status == 200 || bad.status == 400, "survives odd bytes: {}", bad.body);

    // The server still works after all of that.
    assert_eq!(client.healthz().expect("healthz").status, 200);
    server.shutdown();
    server.join();
}

#[test]
fn graceful_shutdown_drains_queued_batches() {
    let dir = std::env::temp_dir().join(format!("isum_serve_drain_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("drain.json");

    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(ckpt.clone());
    config.queue_cap = 16;
    config.apply_delay = Duration::from_millis(80);
    let (server, client) = start(config);

    // Unsequenced batches enqueue immediately (no ordering holdback), so
    // after the head start below they are all in the queue — the drain
    // contract is that shutdown still applies and acknowledges them.
    let all = batches(5);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for script in &all {
            let client = Client::new(server.addr().to_string());
            handles.push(s.spawn(move || client.ingest(script, None).expect("ingest delivers")));
        }
        // Let every producer enqueue, then request shutdown while most
        // batches are still queued behind the apply delay.
        std::thread::sleep(Duration::from_millis(150));
        let resp = client.shutdown().expect("shutdown accepted");
        assert_eq!(resp.status, 200);
        for h in handles {
            let resp = h.join().expect("producer thread");
            assert_eq!(resp.status, 200, "queued batch must drain, not drop: {}", resp.body);
        }
    });
    server.join();

    // The log covers every acknowledged batch, and the drain wrote
    // nothing on top of it: no snapshot at the checkpoint path.
    assert!(!ckpt.exists(), "the checkpoint path is only the stem of the log's name");
    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(ckpt.clone());
    let (server, client) = start(config);
    let status = client.status(None).expect("status");
    assert_eq!(status.field("observed").and_then(|v| v.as_u64()), Some(15), "{}", status.body);
    assert_eq!(
        status.field("seq").and_then(|v| v.as_u64()),
        Some(0),
        "unsequenced ingest leaves the high-water mark alone"
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_client_dripping_a_request_cannot_hold_shutdown_open() {
    let (server, client) = start(ServerConfig::new(catalog()));
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let dripping = Arc::clone(&stop);
    // A byte every 100 ms — each read ends well inside the read timeout
    // — for longer than the deadline plus the grace below, so at a
    // server without the deadline this test fails rather than hangs.
    let dripper = std::thread::spawn(move || {
        let mut conn = TcpStream::connect(addr).expect("connects");
        let head = b"POST /ingest HTTP/1.1\r\nX-Pad: ".iter().chain(std::iter::repeat(&b'a'));
        for &byte in head.take(200) {
            if dripping.load(Ordering::SeqCst) || conn.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    std::thread::sleep(Duration::from_millis(300));
    let started = Instant::now();
    assert_eq!(client.shutdown().expect("shutdown accepted").status, 200);
    let (joined, join_returned) = mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = joined.send(());
    });
    let grace = REQUEST_DEADLINE + Duration::from_secs(2);
    let returned = join_returned.recv_timeout(grace);
    stop.store(true, Ordering::SeqCst);
    dripper.join().expect("dripper thread");
    assert!(returned.is_ok(), "Server::join still blocked {:?} after /shutdown", started.elapsed());
}

#[test]
fn restart_from_the_log_resumes_bit_identically() {
    let dir = std::env::temp_dir().join(format!("isum_serve_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("resume.json");

    let all = batches(4);

    // First incarnation: ingest the first three batches, then vanish
    // without any graceful drain (the per-batch log record is all that
    // survives — the crash story).
    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(ckpt.clone());
    {
        let (server, client) = start(config);
        for (i, script) in all.iter().take(3).enumerate() {
            let resp = client.ingest_with_retry(script, Some(i as u64), 100).expect("delivers");
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        // No /shutdown: drop the server as abruptly as the API allows.
        drop(server);
    }

    // Second incarnation resumes from the log. The client, unsure
    // what was acknowledged before the crash, replays everything.
    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(ckpt.clone());
    let (server, client) = start(config);
    let health = client.healthz().expect("healthz");
    assert_eq!(
        health.field("observed").and_then(|v| v.as_u64()),
        Some(9),
        "restart resumes the acknowledged statements: {}",
        health.body
    );
    let mut statuses = Vec::new();
    for (i, script) in all.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(i as u64), 100).expect("delivers");
        assert_eq!(resp.status, 200, "{}", resp.body);
        statuses
            .push(resp.field("status").and_then(|v| v.as_str()).unwrap_or_default().to_string());
    }
    assert_eq!(
        statuses,
        vec!["duplicate", "duplicate", "duplicate", "ok"],
        "replayed batches dedup; only the lost one applies"
    );

    let live = client.summary(6).expect("summary");
    assert_eq!(
        live.body,
        reference_summary(&all, 6),
        "crash + resume + replay converges bit-identically to the serial reference"
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
