//! # isum-loadgen: deterministic sustained-load generation
//!
//! A zero-dependency load generator for the isum daemon (DESIGN.md §15).
//! It separates **what** is sent from **when** it is sent:
//!
//! * [`plan`] materializes a [`plan::LoadPlan`] — every batch's tenant,
//!   per-tenant `seq` stamp, and SQL script — as a pure function of one
//!   seed, with a Zipf-skewed tenant and template mix and an optional
//!   mid-run **mix shift** that moves the head-heavy template mass onto
//!   rarely-seen templates to provoke the server's drift tracker.
//! * [`run()`] executes a plan over N concurrent keep-alive connections
//!   ([`isum_server::Conn`]) in closed- or open-loop mode, retrying per the
//!   server's backpressure vocabulary (429, ordering 503s with
//!   `Retry-After: 0`, transient 503s) and recording client-side
//!   latency histograms ([`hist::LatencyHist`]) plus a concurrent
//!   `/summary` tail-latency poll.
//!
//! Because the server sequences each tenant's stream by `seq` and the
//! plan is execution-independent, two runs of the same seed leave the
//! server in byte-identical state regardless of how connections and
//! retries interleave — the replay-identity property the integration
//! tests pin down with [`plan::LoadPlan::fingerprint`] and a serial
//! reference run.

pub mod hist;
pub mod plan;
pub mod run;

pub use hist::LatencyHist;
pub use plan::{tenant_name, Batch, LoadPlan, PlanConfig, Window, DEFAULT_TENANT};
pub use run::{run, LoadReport, Mode, RunConfig};
