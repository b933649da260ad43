//! End-to-end tests of the multi-tenant sharded daemon (DESIGN.md §13):
//! per-tenant isolation and byte-identity with the batch pipeline,
//! deterministic cross-shard merge under shard-count and ingest-order
//! variation, per-shard log recovery, tenant-labeled metrics,
//! and the tenant-validation wire contract.

use std::path::Path;
use std::time::Duration;

use isum_server::{Client, Server, ServerConfig};

mod support;
use support::{orders_catalog as catalog, reference_summary, start, temp_dir};

/// `n` batches of 3 statements, phase-shifted by `salt` so two tenants
/// can stream recognizably different workloads.
fn batches(n: usize, salt: usize) -> Vec<String> {
    (0..n)
        .map(|b| {
            (0..3)
                .map(|j| {
                    let i = b * 3 + j + salt;
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

fn tenant_client(server: &Server, tenant: &str) -> Client {
    Client::new(server.addr().to_string())
        .with_timeout(Duration::from_secs(30))
        .with_tenant(tenant)
        .expect("valid tenant name")
}

/// Streams `all` to the server under `tenant`, each batch sequenced.
fn ingest_all(server: &Server, tenant: &str, all: &[String]) {
    let client = tenant_client(server, tenant);
    for (seq, script) in all.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "tenant {tenant} seq {seq}: {}", resp.body);
    }
}

#[test]
fn per_tenant_summaries_match_the_serial_reference() {
    let acme = batches(6, 0);
    let bolt = batches(5, 1);
    let (server, client) = start(ServerConfig::new(catalog()));

    // Interleave the two tenants from concurrent producers; each
    // tenant's stream is sequenced independently.
    std::thread::scope(|s| {
        s.spawn(|| ingest_all(&server, "acme", &acme));
        s.spawn(|| ingest_all(&server, "bolt", &bolt));
    });

    // Per-tenant reads are isolated and bit-identical to running the
    // batch pipeline over only that tenant's statements.
    for (tenant, all) in [("acme", &acme), ("bolt", &bolt)] {
        let resp = client.get(&format!("/summary?k=5&tenant={tenant}")).expect("summary");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.body,
            reference_summary(all, 5),
            "tenant {tenant} must be bit-identical to its serial reference"
        );
        // The X-Isum-Tenant header route reads the same shard.
        let via_header = tenant_client(&server, tenant).summary(5).expect("summary");
        assert_eq!(via_header.body, resp.body, "header and param routes must agree");
    }

    // The merged view covers both tenants plus the (empty) default shard.
    let health = client.healthz().expect("healthz");
    assert_eq!(health.field("shards").and_then(|v| v.as_u64()), Some(3), "{}", health.body);
    assert_eq!(
        health.field("observed").and_then(|v| v.as_u64()),
        Some((acme.len() * 3 + bolt.len() * 3) as u64),
        "{}",
        health.body
    );
    let merged = client.summary(4).expect("merged summary");
    assert_eq!(merged.status, 200, "{}", merged.body);
    assert_eq!(merged.field("merged").and_then(|v| v.as_bool()), Some(true), "{}", merged.body);
    server.shutdown();
    server.join();
}

#[test]
fn default_tenant_stays_byte_identical_to_the_unsharded_pipeline() {
    // A single-tenant deployment never names a tenant; everything lands
    // on the default shard and the wire behaves exactly like the
    // pre-sharding daemon: /summary with no tenant answers the one
    // shard's per-query document.
    let all = batches(7, 0);
    let (server, client) = start(ServerConfig::new(catalog()));
    for (seq, script) in all.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let live = client.summary(6).expect("summary");
    assert_eq!(live.status, 200, "{}", live.body);
    assert_eq!(live.body, reference_summary(&all, 6));
    server.shutdown();
    server.join();
}

/// Deals `all` round-robin over `tenants` tenants of a fresh server (batch
/// `i` is tenant `i % tenants`'s batch `i / tenants`), sent by `producers`
/// concurrent producers that each take every `producers`-th batch — so a
/// tenant's stream arrives interleaved and out of order — and returns the
/// merged `/summary?k=5` body.
fn dealt_merged_summary(all: &[String], tenants: usize, producers: usize) -> String {
    let (server, client) = start(ServerConfig::new(catalog()));
    std::thread::scope(|s| {
        for p in 0..producers {
            let clients: Vec<Client> =
                (0..tenants).map(|t| tenant_client(&server, &format!("t{t}"))).collect();
            s.spawn(move || {
                for (i, script) in all.iter().enumerate().filter(|(i, _)| i % producers == p) {
                    let (tenant, seq) = (i % tenants, (i / tenants) as u64);
                    let resp = clients[tenant]
                        .ingest_with_retry(script, Some(seq), 400)
                        .expect("delivers");
                    assert_eq!(resp.status, 200, "t{tenant} seq {seq}: {}", resp.body);
                }
            });
        }
    });
    let resp = client.summary(5).expect("merged summary");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.field("merged").and_then(|v| v.as_bool()), Some(true), "{}", resp.body);
    let body = resp.body.clone();
    server.shutdown();
    server.join();
    body
}

/// Strips the only field that legitimately differs across layouts (the
/// shard count) so the rest of the document can be compared verbatim.
fn without_shard_count(body: &str) -> String {
    body.lines()
        .filter(|l| !l.trim_start().starts_with("\"shards\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn merged_summary_is_invariant_under_shard_count_and_ingest_order() {
    let all = batches(12, 0);
    let two = dealt_merged_summary(&all, 2, 1);
    let two_racy = dealt_merged_summary(&all, 2, 3);
    assert_eq!(two, two_racy, "same assignment, different ingest interleaving: byte-identical");
    for (tenants, producers) in [(3, 2), (4, 3)] {
        assert_eq!(
            without_shard_count(&two),
            without_shard_count(&dealt_merged_summary(&all, tenants, producers)),
            "{tenants} tenants must agree with 2 on everything but the count"
        );
    }
}

fn durable(dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(dir.join("ckpt.json"));
    config
}

#[test]
fn tenant_logs_restart_bit_identically() {
    let dir = temp_dir("tenant");
    let acme = batches(5, 0);
    let bolt = batches(4, 2);

    let (pre_acme, pre_bolt) = {
        let (server, client) = start(durable(&dir));
        ingest_all(&server, "acme", &acme);
        ingest_all(&server, "bolt", &bolt);
        let a = client.get("/summary?k=4&tenant=acme").expect("summary").body;
        let b = client.get("/summary?k=4&tenant=bolt").expect("summary").body;
        drop(server);
        (a, b)
    };

    // The restarted server discovers the tenants' log segments next to
    // the configured stem and revives each shard before the first request.
    let (server, client) = start(durable(&dir));
    let health = client.healthz().expect("healthz");
    assert_eq!(
        health.field("shards").and_then(|v| v.as_u64()),
        Some(3),
        "default + two discovered tenants: {}",
        health.body
    );
    assert_eq!(client.get("/summary?k=4&tenant=acme").expect("summary").body, pre_acme);
    assert_eq!(client.get("/summary?k=4&tenant=bolt").expect("summary").body, pre_bolt);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_tenant_named_like_a_retired_shard_tag_survives_a_crash() {
    // `h3` is a valid tenant name; its log must sit where restart
    // discovery looks, like any other tenant's.
    let dir = temp_dir("h3_live");
    let image = temp_dir("h3_crashed");
    let served = |client: &Client| {
        ["/summary?k=4&tenant=h3", "/summary?k=4&tenant=bob", "/summary?k=4", "/healthz"].map(
            |target| {
                let resp = client.get(target).expect("sends");
                (target, resp.status, resp.body)
            },
        )
    };
    let (server, client) = start(durable(&dir));
    ingest_all(&server, "h3", &batches(4, 0));
    ingest_all(&server, "bob", &batches(3, 1));
    let before = served(&client);
    assert!(before.iter().all(|(_, status, _)| *status == 200), "{before:#?}");
    // The daemon fsyncs before every ack and writes nothing else, so the
    // files under a live server are what a SIGKILL leaves.
    for entry in std::fs::read_dir(&dir).expect("lists") {
        let name = entry.expect("entry").file_name();
        std::fs::copy(dir.join(&name), image.join(&name)).expect("copies");
    }
    server.shutdown();
    server.join();

    let (server, client) = start(durable(&image));
    assert_eq!(served(&client), before, "every acknowledged batch is served again");
    server.shutdown();
    server.join();
    for dir in [dir, image] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn logs_of_the_retired_hashed_mode_refuse_to_start_until_renamed() {
    let dir = temp_dir("retired_tag");
    let summary = {
        let (server, _client) = start(durable(&dir));
        ingest_all(&server, "h0", &batches(3, 0));
        let body = tenant_client(&server, "h0").summary(4).expect("summary").body;
        server.shutdown();
        server.join();
        body
    };
    // What `--shards n` left behind: the same log under the `h<i>` tag.
    let (current, retired) =
        (dir.join("ckpt.t-6830.wal.00000001"), dir.join("ckpt.h0.wal.00000001"));
    std::fs::rename(&current, &retired).expect("segment of tenant h0");
    let refusal = Server::bind("127.0.0.1:0", durable(&dir)).err().expect("must not serve");
    assert_eq!(refusal.kind(), std::io::ErrorKind::InvalidData, "{refusal}");
    let why = refusal.to_string();
    assert!(why.contains("ckpt.h0.wal.00000001") && why.contains("h0 -> t-6830"), "{why}");

    // The migration the refusal spells out.
    std::fs::rename(&retired, &current).expect("renames back");
    let (server, _client) = start(durable(&dir));
    assert_eq!(tenant_client(&server, "h0").summary(4).expect("summary").body, summary);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_validation_and_typed_errors_on_the_wire() {
    let (server, client) = start(ServerConfig::new(catalog()));
    ingest_all(&server, "acme", &batches(2, 0));

    // Malformed tenant names answer the typed 400 naming the parameter.
    for bad in ["has/slash", "sp ace", &"x".repeat(65)] {
        let resp =
            client.get(&format!("/summary?k=3&tenant={}", bad.replace(' ', "%20"))).expect("sends");
        assert_eq!(resp.status, 400, "tenant `{bad}`: {}", resp.body);
        assert_eq!(resp.field("param").and_then(|v| v.as_str()), Some("tenant"), "{}", resp.body);
    }
    // The client refuses the same names before any bytes hit the wire.
    assert!(Client::new(server.addr().to_string()).with_tenant("has/slash").is_err());
    assert!(Client::new(server.addr().to_string()).with_tenant(&"x".repeat(65)).is_err());

    // A well-formed but unknown tenant is a 404, not a new shard.
    assert_eq!(client.get("/summary?k=3&tenant=ghost").expect("sends").status, 404);

    // Reads that cannot merge require a tenant once several shards exist.
    for target in ["/summary/explain?k=3", "/tune?k=3"] {
        let resp = if target.starts_with("/tune") {
            client.post(target, "").expect("sends")
        } else {
            client.get(target).expect("sends")
        };
        assert_eq!(resp.status, 400, "{target}: {}", resp.body);
        assert_eq!(resp.field("param").and_then(|v| v.as_str()), Some("tenant"), "{}", resp.body);
    }

    // Satellite: malformed k / seq name their parameter too.
    let resp = client.get("/summary?k=abc&tenant=acme").expect("sends");
    assert_eq!((resp.status, resp.field("param").and_then(|v| v.as_str())), (400, Some("k")));
    let resp = client.post("/ingest?seq=notanumber", "SELECT o_id FROM orders;").expect("sends");
    assert_eq!((resp.status, resp.field("param").and_then(|v| v.as_str())), (400, Some("seq")));
    server.shutdown();
    server.join();
}

#[test]
fn a_non_finite_cost_annotation_is_costed_like_no_annotation() {
    // One `NaN` or `inf` cost made every utility of the tenant non-finite,
    // and the summary degenerated to the first k queries at equal weights.
    let plain = batches(6, 0);
    let (server, client) = start(ServerConfig::new(catalog()));
    ingest_all(&server, "plain", &plain);
    for bad in ["NaN", "inf"] {
        let mut annotated = plain.clone();
        annotated[0] = format!("-- cost: {bad}\n{}", annotated[0]);
        ingest_all(&server, bad, &annotated);
    }
    let summary = |tenant: &str| {
        let resp = client.get(&format!("/summary?k=5&tenant={tenant}")).expect("summary");
        assert_eq!(resp.status, 200, "{}", resp.body);
        resp.body
    };
    let expected = summary("plain");
    assert_eq!(expected, reference_summary(&plain, 5));
    for bad in ["NaN", "inf"] {
        assert_eq!(summary(bad), expected, "`-- cost: {bad}` must read as no cost");
    }
    server.shutdown();
    server.join();
}

#[test]
fn tenant_cap_answers_429_with_retry_after() {
    let mut config = ServerConfig::new(catalog());
    config.max_tenants = 2; // default shard + one named tenant
    let (server, _client) = start(config);
    let one = batches(1, 0);
    ingest_all(&server, "first", &one);
    let resp = tenant_client(&server, "second").ingest(&one[0], None).expect("sends");
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(resp.retry_after().is_some(), "429 must carry Retry-After");
    server.shutdown();
    server.join();
}

#[test]
fn metrics_carry_escaped_tenant_labels() {
    let (server, client) = start(ServerConfig::new(catalog()));
    let one = batches(1, 0);
    ingest_all(&server, "acme", &one);
    // `"` and `\` are visible ASCII, hence legal in tenant names — the
    // exposition must escape them rather than corrupt the series.
    ingest_all(&server, "a\"b\\c", &one);

    let body = client.metrics().expect("metrics").body;
    assert!(
        body.contains("isum_shard_observed{tenant=\"acme\"} 3"),
        "labeled observed gauge missing:\n{body}"
    );
    assert!(
        body.contains("isum_shard_observed{tenant=\"a\\\"b\\\\c\"} 3"),
        "hostile tenant label must be escaped:\n{body}"
    );
    assert!(body.contains("isum_shard_next_seq{tenant=\"acme\"} 1"), "{body}");
    assert!(body.contains("# TYPE isum_shard_drift_alerts counter"), "{body}");
    server.shutdown();
    server.join();
}

#[test]
fn stage_latencies_are_charged_to_the_shard_that_served_the_request() {
    let (server, client) = start(ServerConfig::new(catalog()));
    let one = batches(1, 0);
    ingest_all(&server, "default", &one);
    ingest_all(&server, "acme", &one);
    let respond_count = |tenant: &str| -> u64 {
        let body = client.metrics().expect("metrics").body;
        let series = format!("isum_stage_seconds_count{{tenant=\"{tenant}\",stage=\"respond\"}} ");
        body.lines()
            .find_map(|l| l.strip_prefix(series.as_str()))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no respond count for {tenant}:\n{body}"))
    };
    let (default_before, acme_before) = (respond_count("default"), respond_count("acme"));

    // Two shards, no tenant named: the merged view reads every shard and
    // is charged to none of them.
    for _ in 0..3 {
        let resp = client.summary(4).expect("summary");
        assert!(resp.status == 200 && resp.body.contains("\"merged\": true"), "{}", resp.body);
    }
    assert_eq!(respond_count("default"), default_before, "merged reads charged to `default`");
    assert_eq!(respond_count("acme"), acme_before);

    // A named read is charged to its tenant's shard, and only to it.
    let resp = tenant_client(&server, "acme").summary(4).expect("summary");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(respond_count("acme"), acme_before + 1);
    assert_eq!(respond_count("default"), default_before);
    server.shutdown();
    server.join();
}

#[test]
fn every_admission_outcome_answers_on_the_wire() {
    // One script through the front door exercising every admission
    // outcome: fresh, replayed duplicate, ahead of the stream,
    // unsequenced, a batch with a rejected statement, and a duplicate
    // after the stream moved on.
    let fresh = batches(2, 0);
    let with_reject = format!("{}SELECT nope FROM missing;\n{}", fresh[0], fresh[1]);
    let script: [(&str, Option<u64>); 6] = [
        (&fresh[0], Some(0)),
        (&fresh[0], Some(0)),
        (&fresh[1], Some(5)),
        (&fresh[1], None),
        (&with_reject, Some(1)),
        (&fresh[1], Some(1)),
    ];
    let (server, client) = start(ServerConfig::new(catalog()));
    let answers: Vec<(u16, Option<u64>, String)> = script
        .iter()
        .map(|(sql, seq)| {
            let resp = client.ingest(sql, *seq).expect("sends");
            (resp.status, resp.retry_after(), resp.body)
        })
        .collect();
    assert_eq!(
        answers.iter().map(|a| (a.0, a.1)).collect::<Vec<_>>(),
        [(200, None), (200, None), (503, Some(0)), (200, None), (200, None), (200, None)],
        "{answers:#?}"
    );
    assert!(
        answers[1].2.contains("\"duplicate\"") && answers[4].2.contains("missing"),
        "{answers:#?}"
    );
    assert!(answers[5].2.contains("\"duplicate\""), "{answers:#?}");
    // The `seq` bound on the wire: the largest admitted value is merely
    // ahead of the stream (no overflow anywhere), the rest are a typed 400.
    let resp = client.ingest(&fresh[1], Some((1 << 63) - 1)).expect("sends");
    assert_eq!((resp.status, resp.retry_after()), (503, Some(0)), "{}", resp.body);
    assert!(resp.body.contains("ahead of the stream"), "{}", resp.body);
    for seq in [1 << 63, u64::MAX] {
        let resp = client.ingest(&fresh[1], Some(seq)).expect("sends");
        assert_eq!(resp.status, 400, "seq {seq}: {}", resp.body);
        assert_eq!(resp.field("param").and_then(|p| p.as_str()), Some("seq"), "{}", resp.body);
    }
    let resp = client.ingest(&fresh[0], Some(2)).expect("sends");
    assert_eq!(resp.status, 200, "the worker still serves: {}", resp.body);
    assert_eq!(client.summary(4).expect("summary").status, 200);
    server.shutdown();
    server.join();
}
