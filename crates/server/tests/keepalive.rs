//! Persistent-connection behavior at the wire (DESIGN.md §15): the
//! daemon serves many requests per socket under HTTP/1.1 default
//! keep-alive, honors `Connection: close`, and the per-shard `/summary`
//! render cache turns repeated identical reads into cache hits that are
//! invalidated by the next ingest.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use isum_catalog::{Catalog, CatalogBuilder};
use isum_common::telemetry;
use isum_server::{read_response, Client, Server, ServerConfig};

fn catalog() -> Catalog {
    CatalogBuilder::new()
        .table("t", 50_000)
        .col_key("id")
        .col_int("grp", 200, 0, 200)
        .finish()
        .expect("fresh table")
        .build()
}

fn send(stream: &mut TcpStream, target: &str, extra: &str) {
    write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n{extra}\r\n")
        .expect("request written");
    stream.flush().expect("flushed");
}

#[test]
fn many_requests_ride_one_socket_until_connection_close() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::new(catalog())).expect("binds");
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");

    // Three requests, three responses, one kernel socket.
    for i in 0..3 {
        send(&mut stream, "/healthz", "");
        let (status, headers, _) = read_response(&stream).expect("response");
        assert_eq!(status, 200, "request {i} on the shared socket");
        assert!(
            !headers.iter().any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close")),
            "keep-alive responses must not advertise close"
        );
    }

    // An explicit `Connection: close` is honored: the response says so
    // and the server then closes its end.
    send(&mut stream, "/healthz", "Connection: close\r\n");
    let (status, headers, _) = read_response(&stream).expect("final response");
    assert_eq!(status, 200);
    assert!(
        headers.iter().any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close")),
        "close is acknowledged in the response framing"
    );
    assert!(
        read_response(&stream).is_err(),
        "the server closed the socket after Connection: close"
    );

    server.shutdown();
    server.join();
}

#[test]
fn idle_keepalive_connections_cannot_starve_the_next_one() {
    // One more persistent connection than `isum_exec` has threads, all
    // open at once: each must be answered while the others sit idle. A
    // server that ran one handler per exec thread would pin a thread per
    // socket and never get to the last connection.
    let server = Server::bind("127.0.0.1:0", ServerConfig::new(catalog())).expect("binds");
    let mut streams: Vec<TcpStream> = (0..isum_exec::global_threads() + 1)
        .map(|_| TcpStream::connect(server.addr()).expect("connects"))
        .collect();
    for round in 0..2 {
        for (i, stream) in streams.iter_mut().enumerate() {
            stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
            send(stream, "/healthz", "");
            let (status, _, _) = read_response(&*stream)
                .unwrap_or_else(|e| panic!("connection {i} starved in round {round}: {e}"));
            assert_eq!(status, 200, "connection {i}, round {round}");
        }
    }
    // Drain is not held hostage by the idle sockets either: once the
    // clients hang up, shutdown completes.
    drop(streams);
    server.shutdown();
    server.join();
}

#[test]
fn summary_render_cache_hits_and_invalidates_on_ingest() {
    telemetry::set_enabled(true);
    let server = Server::bind("127.0.0.1:0", ServerConfig::new(catalog())).expect("binds");
    let client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(30));

    let counters = || {
        let telem = client.telemetry().expect("telemetry");
        let count = |name: &str| {
            telem
                .json
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(|v| v.as_u64())
                .unwrap_or(0)
        };
        (count("server.summary.cache_hits"), count("server.summary.cache_misses"))
    };

    for seq in 0..6u64 {
        let resp = client
            .ingest_with_retry(&format!("SELECT id FROM t WHERE grp = {seq};\n"), Some(seq), 600)
            .expect("ingest delivers");
        assert_eq!(resp.status, 200, "{}", resp.body);
    }

    // First render misses, the identical repeat hits — byte-identically.
    let first = client.summary(3).expect("summary");
    assert_eq!(first.status, 200, "{}", first.body);
    let (h0, m0) = counters();
    assert!(m0 >= 1, "first render populates the cache");
    let second = client.summary(3).expect("summary");
    assert_eq!(second.body, first.body, "a cache hit is the identical document");
    let (h1, m1) = counters();
    assert_eq!(h1, h0 + 1, "repeat render is served from the cache");
    assert_eq!(m1, m0, "no re-render for an identical read");

    // A different k is a different document: miss, not a stale hit.
    let other_k = client.summary(2).expect("summary");
    assert_eq!(other_k.status, 200);
    assert_ne!(other_k.body, first.body);
    let (_, m2) = counters();
    assert_eq!(m2, m1 + 1, "k is part of the cache key");

    // Ingest bumps the state version: the old entry must not be served.
    let resp = client
        .ingest_with_retry("SELECT id FROM t WHERE grp = 99;\n", Some(6), 600)
        .expect("ingest delivers");
    assert_eq!(resp.status, 200);
    let refreshed = client.summary(3).expect("summary");
    assert_eq!(refreshed.status, 200);
    let (_, m3) = counters();
    assert_eq!(m3, m2 + 1, "ingest invalidates the cached render");
    assert_ne!(refreshed.body, first.body, "the refreshed document reflects the new statement");

    telemetry::set_enabled(false);
    server.shutdown();
    server.join();
}
