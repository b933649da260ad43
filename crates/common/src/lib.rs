//! Shared utilities for the ISUM reproduction.
//!
//! This crate contains the foundation types used by every other crate in the
//! workspace: strongly-typed identifiers ([`ids`]), the workspace error type
//! ([`mod@error`]), deterministic random number generation with skewed samplers
//! ([`rng`]), the statistical helpers used by the evaluation harness
//! ([`stats`]), a dependency-free JSON value ([`json`]), and the
//! workload-compression telemetry layer ([`telemetry`]) every other crate
//! reports spans and counters through, and the structured tracing layer
//! ([`trace`]) that attributes individual events to requests and workers, and
//! the CRC32 record framing ([`framing`]) shared by the server's
//! write-ahead log and its tests.

pub mod bits;
pub mod error;
pub mod framing;
pub mod ids;
pub mod json;
pub mod rng;
pub mod stage;
pub mod stats;
pub mod telemetry;
pub mod trace;

pub use bits::{hex_bits, unhex_bits};
pub use error::{Error, Result};
pub use ids::{ColumnId, GlobalColumnId, IndexId, QueryId, TableId, TemplateId};
pub use json::Json;
pub use stage::{Stage, StageClock};
