//! Helpers shared by the daemon's integration tests: the two catalogs,
//! the drift scripts, and booting, feeding and reading a daemon.
#![allow(dead_code)] // each test binary uses a different part

use std::path::PathBuf;
use std::time::Duration;

use isum_catalog::{Catalog, CatalogBuilder};
use isum_common::Json;
use isum_core::IsumConfig;
use isum_server::{ApiResponse, Client, Engine, Server, ServerConfig};

/// One table `t(id, grp, v)`: the catalog of the drift and
/// observability tests.
pub fn catalog() -> Catalog {
    CatalogBuilder::new()
        .table("t", 50_000)
        .col_key("id")
        .col_int("grp", 200, 0, 200)
        .col_int("v", 1_000, 0, 10_000)
        .finish()
        .expect("fresh table")
        .build()
}

/// `orders` and `lines`: the catalog of the daemon and shard tests.
pub fn orders_catalog() -> Catalog {
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

/// Phase-1 statement: every instance shares one template (literals are
/// stripped by templatization).
pub fn steady(i: usize) -> String {
    format!("SELECT id FROM t WHERE grp = {};\n", i % 13)
}

/// Phase-2 statement: a different shape, so a different template — the
/// drifted mix. Also a point predicate, so its per-query mass is
/// comparable to the steady template's and the divergence score is
/// dominated by the mix shift, not by a cost asymmetry.
pub fn shifted(i: usize) -> String {
    format!("SELECT grp FROM t WHERE v = {};\n", i * 17)
}

/// Phase-3 statement: a third shape, to prove the tracker re-fires after
/// it re-arms.
pub fn third(i: usize) -> String {
    format!("SELECT v FROM t WHERE id = {};\n", i * 3 + 1)
}

/// The serial reference over [`orders_catalog`]: one engine applying
/// every batch in order — byte-identical to `isum compress --json` for
/// the same statements.
pub fn reference_summary(all: &[String], k: usize) -> String {
    let mut engine = Engine::new(orders_catalog(), IsumConfig::isum());
    for b in all {
        let outcome = engine.apply_script(b);
        assert!(outcome.rejected.is_empty(), "reference batch rejected: {:?}", outcome.rejected);
    }
    let mut body = engine.summary_json(k).expect("reference summary").to_pretty();
    body.push('\n');
    body
}

/// Binds a daemon on an ephemeral port and a client to it.
pub fn start(config: ServerConfig) -> (Server, Client) {
    let server = Server::bind("127.0.0.1:0", config).expect("binds");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));
    (server, client)
}

/// A fresh, empty directory private to this process and `tag`.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isum_server_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

pub fn ingest_ok(client: &Client, seq: u64, script: &str) {
    let resp = client.ingest_with_retry(script, Some(seq), 600).expect("ingest delivers");
    assert_eq!(resp.status, 200, "seq {seq}: {}", resp.body);
}

/// The JSON value at `path` in a response body.
pub fn field<'a>(resp: &'a ApiResponse, path: &[&str]) -> &'a Json {
    let mut j = &resp.json;
    for name in path {
        j = j.get(name).unwrap_or_else(|| panic!("missing `{name}` in {}", resp.body));
    }
    j
}
