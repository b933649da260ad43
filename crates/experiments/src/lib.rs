//! Experiment harness regenerating every figure and table of the ISUM
//! paper's evaluation (Sec 2 motivation figures and Sec 8).
//!
//! Run via `cargo run -p isum-experiments --release -- <id>` where `<id>` is
//! one of `fig2 fig3 fig5 fig6 fig7 fig8 fig9a fig9b fig10 fig11 fig12
//! fig13 fig14 fig15 table3 all`. Results are printed as aligned tables and
//! saved under `results/` as CSV and JSON. The `ISUM_SCALE` environment
//! variable selects workload sizes: `quick`, `medium` (default), `large`,
//! or `paper` (Table 2 sizes — slow); any other value is refused.

pub mod checkpoint;
pub mod figs;
pub mod harness;
pub mod report;

pub use harness::{ExperimentCtx, MethodEval, Scale};
pub use report::Table;
