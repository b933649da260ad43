//! Index advisors.
//!
//! Implements the three-stage architecture of Fig 1 in the ISUM paper
//! (candidate generation → per-query candidate selection → configuration
//! enumeration) as a [`DtaAdvisor`], the stand-in for Microsoft's Database
//! Tuning Advisor, plus a deliberately simpler [`DexterAdvisor`] mirroring
//! the open-source DEXTER tool used in Sec 8.3 (per-query heuristics, a
//! minimum-improvement threshold, no merging, no storage budget).
//!
//! Both implement the [`IndexAdvisor`] trait over a *weighted* compressed
//! workload, exactly the contract workload compression hands its tuner.

pub mod advisor;
pub mod anytime;
pub mod candidates;
pub mod dexter;
pub mod dta;
pub mod enumerate;
pub mod merging;
pub mod report;

pub use advisor::{IndexAdvisor, TuningConstraints};
pub use anytime::{AnytimeDta, AnytimeOutcome};
pub use candidates::{candidate_indexes, CandidateOptions};
pub use dexter::DexterAdvisor;
pub use dta::DtaAdvisor;
pub use merging::{merge_pair, merged_candidates};
pub use report::{QueryReport, TuningReport};

use isum_common::{Error, Result};

/// The advisor `isum` accepts by name: `dta` or `dexter`.
pub fn advisor_named(name: &str) -> Result<Box<dyn IndexAdvisor>> {
    match name {
        "dta" => Ok(Box::new(DtaAdvisor::new())),
        "dexter" => Ok(Box::new(DexterAdvisor::new())),
        other => Err(Error::InvalidConfig(format!("unknown advisor `{other}` (dta | dexter)"))),
    }
}
