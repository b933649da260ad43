//! `isum_server` — the online workload-compression service.
//!
//! Wraps [`isum_core::IncrementalIsum`] in a zero-dependency HTTP/1.1
//! daemon (`std::net` only) so a database can stream its query log to a
//! long-running compressor and ask for an up-to-date workload summary —
//! or a full index recommendation — at any time, instead of re-running
//! batch compression from scratch (DESIGN.md §10). The daemon is
//! multi-tenant: each `X-Isum-Tenant` value owns an isolated shard
//! (engine + sequencer + drift tracker + write-ahead log), and a cross-shard
//! `GET /summary` merges every shard's partial sums deterministically
//! (DESIGN.md §13).
//!
//! # Wire API
//!
//! | Endpoint | Effect |
//! |----------|--------|
//! | `POST /ingest[?seq=N]` | apply a `;`-separated SQL script (lenient per statement) to the request's tenant |
//! | `GET /summary?k=N[&tenant=T]` | per-tenant: compress that shard to `k`, exact weight bits; no tenant + several shards: the merged template-level summary |
//! | `GET /summary/explain?k=N[&tenant=T]` | per-member template attribution + coverage gauges (per-shard) |
//! | `GET /status[?k=N]` | one-document rollup: seq, queue, WAL durability (position, bytes, segments), coverage, drift, per-shard breakdown |
//! | `POST /tune?k=N[&m=M&advisor=dta\|dexter&budget_bytes=B&tenant=T]` | advisor on the shard's compressed workload |
//! | `GET /healthz` | liveness + totals + shard count |
//! | `GET /metrics` | the telemetry registry in Prometheus exposition + tenant-labeled `isum_shard_*` / `isum_stage_seconds` families |
//! | `GET /events?n=N[&level=L&target=T]` | newest trace events as JSON Lines, including `server.slow` when `ISUM_SLOW_MS` is set |
//! | `POST /shutdown` | graceful drain (the log already holds every acknowledged batch) |
//!
//! Every response carries a `Server-Timing` header with its stage
//! timeline. With `/metrics`, `/status` and `/events` that makes the
//! daemon's four observability surfaces.
//!
//! Every endpoint accepts the tenant as either the `X-Isum-Tenant`
//! header or a `tenant` query parameter (the parameter wins). Tenant
//! names are validated identically on the server and in `isum client
//! --tenant`: non-empty, ≤ 64 bytes, visible ASCII, no `/`
//! ([`validate_tenant`]).
//!
//! Every error answers the envelope `{"error", "status"}`. A computation
//! that fails on its input (say `k = 0`, or `k` on an empty shard) is a
//! 400 whose `error` is the [`isum_common::Error`] text. A full ingest
//! queue and the tenant cap answer 429; a batch ahead of the stream, a
//! failed log append, a shard that cannot be created and an ingest
//! timeout answer 503. Each of those carries a `Retry-After` —
//! backpressure, not a dropped connection — whose jittered values stay
//! within base or base+1 seconds, so concurrent clients told to back off
//! do not return in lockstep. A draining daemon answers 503. Malformed
//! query parameters answer a typed 400 whose body also names the
//! parameter (`"param"`).
//!
//! Connections are HTTP/1.1 persistent: a client may issue any number of
//! requests over one socket ([`Conn`] does, for `crates/loadgen`), and
//! `Connection: close` restores one request per connection ([`Client`]).
//!
//! Workload drift (template-distribution divergence between the recent
//! window and the summarized history) is scored after every applied
//! batch. `ISUM_DRIFT_ACTION=warn` (default) only raises the
//! edge-triggered alert; `ISUM_DRIFT_ACTION=resummarize` additionally
//! re-summarizes the shard over the recent window, behind the sequencer,
//! so the adaptation is deterministic for a fixed request stream.
//!
//! # Guarantees
//!
//! * A live per-tenant `/summary` over ingested statements is
//!   **bit-identical** to `isum compress` over the same script (shared
//!   featurize → select → weigh pipeline; weights compared by IEEE-754
//!   bit pattern).
//! * Sequenced concurrent ingest is **deterministic**: batches stamped
//!   with contiguous `seq` numbers are applied in order no matter how
//!   many connections deliver them. Each tenant's stream is ordered
//!   independently.
//! * The **merged** `/summary` is bit-deterministic under shard count,
//!   shard assignment, and ingest interleaving: partial sums are
//!   re-sorted canonically before every floating-point fold and ties
//!   break on template fingerprints ([`isum_core::merge_partials`]).
//! * With a checkpoint stem configured, every acknowledged batch is
//!   **durably logged** before the ack: the batch's statements are
//!   appended to a per-shard write-ahead log (CRC-checksummed,
//!   length-prefixed records in immutable segments) and `fsync`ed first.
//!   The log is the only durable artifact — nothing is snapshotted,
//!   truncated or renamed while serving — so a `SIGKILL` *or a power
//!   cut* at any point, then a restart, replays every segment through
//!   the normal observe path and resumes every shard bit-identically; a
//!   torn final record (crash mid-append) is cut with a warning, and
//!   client retries of unacknowledged batches converge via duplicate
//!   detection (DESIGN.md §14).

mod client;
mod config;
mod drift;
mod engine;
mod http;
mod server;
mod shards;
mod wal;

pub use client::{ApiResponse, Client, Conn};
pub use config::ServerConfig;
pub use drift::DriftAction;
pub use engine::{summary_to_json, Engine, IngestOutcome};
pub use http::{read_response, RawResponse, Request, Response, REQUEST_DEADLINE};
pub use server::{install_signal_handlers, signal_pending, Server};
pub use shards::{validate_tenant, DEFAULT_TENANT};
