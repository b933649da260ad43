//! End-to-end tests of the multi-tenant sharded daemon (DESIGN.md §13):
//! per-tenant isolation and byte-identity with the batch pipeline,
//! deterministic cross-shard merge under shard-count and ingest-order
//! variation, per-shard log recovery, tenant-labeled metrics,
//! and the tenant-validation wire contract.

use std::time::Duration;

use isum_catalog::{Catalog, CatalogBuilder};
use isum_core::IsumConfig;
use isum_server::{Client, Engine, Server, ServerConfig, ShardMode};

fn catalog() -> Catalog {
    CatalogBuilder::new()
        .table("orders", 150_000)
        .col_key("o_id")
        .col_int("o_cust", 10_000, 0, 10_000)
        .col_int("o_total", 5_000, 1, 50_000)
        .col_date("o_date", 19_000, 20_000)
        .finish()
        .expect("fresh table")
        .table("lines", 600_000)
        .col_key("l_id")
        .col_int("l_order", 150_000, 0, 150_000)
        .col_int("l_qty", 50, 1, 50)
        .finish()
        .expect("fresh table")
        .build()
}

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

/// The serial reference: one engine applying every batch in order —
/// byte-identical to `isum compress --json` for the same statements.
fn reference_summary(all: &[String], k: usize) -> String {
    let mut engine = Engine::new(catalog(), IsumConfig::isum());
    for b in all {
        let outcome = engine.apply_script(b);
        assert!(outcome.rejected.is_empty(), "reference batch rejected: {:?}", outcome.rejected);
    }
    let mut body = engine.summary_json(k).expect("reference summary").to_pretty();
    body.push('\n');
    body
}

fn start(config: ServerConfig) -> (Server, Client) {
    let server = Server::bind("127.0.0.1:0", config).expect("binds");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));
    (server, client)
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

/// Ingests `all` into a fresh hashed-mode server with `shards` shards,
/// from `producers` concurrent sequenced producers, and returns the
/// merged `/summary?k=5` body.
fn hashed_merged_summary(all: &[String], shards: usize, producers: usize) -> String {
    let mut config = ServerConfig::new(catalog());
    config.shards = ShardMode::Hashed(shards);
    let (server, client) = start(config);
    std::thread::scope(|s| {
        for t in 0..producers {
            let slice: Vec<(u64, &String)> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| i % producers == t)
                .map(|(i, b)| (i as u64, b))
                .collect();
            let client = Client::new(server.addr().to_string());
            s.spawn(move || {
                for (seq, script) in slice {
                    let resp = client.ingest_with_retry(script, Some(seq), 400).expect("delivers");
                    assert_eq!(resp.status, 200, "seq {seq}: {}", resp.body);
                }
            });
        }
    });
    let resp = client.summary(5).expect("merged summary");
    assert_eq!(resp.status, 200, "{}", resp.body);
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
    let all = batches(10, 0);
    let two = hashed_merged_summary(&all, 2, 1);
    let two_racy = hashed_merged_summary(&all, 2, 3);
    assert_eq!(two, two_racy, "same shard count, different ingest interleaving: byte-identical");
    let four = hashed_merged_summary(&all, 4, 2);
    assert_eq!(
        without_shard_count(&two),
        without_shard_count(&four),
        "different shard counts must agree on everything but the count"
    );
}

#[test]
fn hashed_restart_resumes_and_replays_dedup() {
    let dir = std::env::temp_dir().join(format!("isum_shards_hashed_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("hashed.json");
    let all = batches(4, 0);

    let mut config = ServerConfig::new(catalog());
    config.shards = ShardMode::Hashed(3);
    config.checkpoint = Some(ckpt.clone());
    let pre_crash = {
        let (server, client) = start(config);
        for (seq, script) in all.iter().take(3).enumerate() {
            let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        let resp = client.summary(5).expect("summary");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body = resp.body.clone();
        // No /shutdown: dropping drains; each shard's log already holds
        // everything it acknowledged.
        drop(server);
        body
    };

    let mut config = ServerConfig::new(catalog());
    config.shards = ShardMode::Hashed(3);
    config.checkpoint = Some(ckpt.clone());
    let (server, client) = start(config);
    let health = client.healthz().expect("healthz");
    assert_eq!(
        health.field("observed").and_then(|v| v.as_u64()),
        Some(9),
        "restart resumes acknowledged statements: {}",
        health.body
    );
    assert_eq!(
        client.summary(5).expect("summary").body,
        pre_crash,
        "restart restores the merged summary bit-identically"
    );

    // The client, unsure what was acknowledged, replays everything;
    // acknowledged batches dedup, the lost one applies.
    let mut statuses = Vec::new();
    for (seq, script) in all.iter().enumerate() {
        let resp = client.ingest_with_retry(script, Some(seq as u64), 400).expect("delivers");
        assert_eq!(resp.status, 200, "{}", resp.body);
        statuses
            .push(resp.field("status").and_then(|v| v.as_str()).unwrap_or_default().to_string());
    }
    assert_eq!(statuses, vec!["duplicate", "duplicate", "duplicate", "ok"]);
    assert_eq!(
        client.healthz().expect("healthz").field("observed").and_then(|v| v.as_u64()),
        Some(12)
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_logs_restart_bit_identically() {
    let dir = std::env::temp_dir().join(format!("isum_shards_tenant_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("tenants.json");
    let acme = batches(5, 0);
    let bolt = batches(4, 2);

    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(ckpt.clone());
    let (pre_acme, pre_bolt) = {
        let (server, client) = start(config);
        ingest_all(&server, "acme", &acme);
        ingest_all(&server, "bolt", &bolt);
        let a = client.get("/summary?k=4&tenant=acme").expect("summary").body;
        let b = client.get("/summary?k=4&tenant=bolt").expect("summary").body;
        drop(server);
        (a, b)
    };

    // The restarted server discovers the tenants' log segments next to
    // the configured stem and revives each shard before the first request.
    let mut config = ServerConfig::new(catalog());
    config.checkpoint = Some(ckpt.clone());
    let (server, client) = start(config);
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

    // Hashed mode: tenants cannot steer ingest, and reads address shards.
    let mut config = ServerConfig::new(catalog());
    config.shards = ShardMode::Hashed(2);
    let (server, client) = start(config);
    let resp =
        tenant_client(&server, "acme").ingest("SELECT o_id FROM orders;", None).expect("sends");
    assert_eq!((resp.status, resp.field("param").and_then(|v| v.as_str())), (400, Some("tenant")));
    let resp = client.get("/summary?k=3&tenant=acme").expect("sends");
    assert_eq!((resp.status, resp.field("param").and_then(|v| v.as_str())), (400, Some("tenant")));
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
fn tenant_and_hashed_modes_run_the_same_pipeline() {
    // One script through both modes' front doors: a tenant-mode daemon
    // with its one default tenant, and a hashed daemon with one shard.
    // Admission (duplicate / ahead / unsequenced) and durable-apply
    // (accepts, rejects, counts) are the same code, so every answer —
    // status, Retry-After, ack body — and the final summary must agree.
    let fresh = batches(2, 0);
    let with_reject = format!("{}SELECT nope FROM missing;\n{}", fresh[0], fresh[1]);
    let script: [(&str, Option<u64>); 6] = [
        (&fresh[0], Some(0)),
        (&fresh[0], Some(0)), // replayed duplicate
        (&fresh[1], Some(5)), // ahead of the stream
        (&fresh[1], None),    // unsequenced
        (&with_reject, Some(1)),
        (&fresh[1], Some(1)), // duplicate after the stream moved on
    ];
    let run = |mode: ShardMode| {
        let mut config = ServerConfig::new(catalog());
        config.shards = mode;
        let (server, client) = start(config);
        let mut answers: Vec<(u16, Option<u64>, String)> = script
            .iter()
            .map(|(sql, seq)| {
                let resp = client.ingest(sql, *seq).expect("sends");
                (resp.status, resp.retry_after(), resp.body)
            })
            .collect();
        let summary = client.summary(4).expect("summary");
        answers.push((summary.status, summary.retry_after(), summary.body));
        server.shutdown();
        server.join();
        answers
    };
    let tenant = run(ShardMode::Tenant);
    assert_eq!(
        tenant.iter().map(|a| (a.0, a.1)).collect::<Vec<_>>(),
        [
            (200, None),
            (200, None),
            (503, Some(0)),
            (200, None),
            (200, None),
            (200, None),
            (200, None)
        ],
        "the script exercises every admission outcome: {tenant:#?}"
    );
    assert!(
        tenant[1].2.contains("\"duplicate\"") && tenant[4].2.contains("missing"),
        "{tenant:#?}"
    );
    assert_eq!(tenant, run(ShardMode::Hashed(1)));
}
