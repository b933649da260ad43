//! Cost-based what-if query optimizer.
//!
//! This crate is the substrate that replaces the commercial optimizer's
//! "what-if" API (Sec 2.1 of the ISUM paper, \[15\]): given a bound query and
//! a *hypothetical* [`IndexConfig`], it estimates the query's execution cost
//! without building anything. Every improvement number in the evaluation —
//! `C(q)`, `C_I(q)`, `Improvement (%)` — comes from this model, exactly as
//! the paper's numbers come from SQL Server's optimizer-estimated costs.
//!
//! The model is deliberately classical: per-table access-path selection
//! (heap scan vs. index seek vs. covering index-only scan with key-prefix
//! matching), greedy join ordering over the equi-join graph with hash-join /
//! index-nested-loop choice, and sort/aggregate costs that index orderings
//! can discharge. [`WhatIfOptimizer`] adds what production what-if
//! implementations add: an optimizer-call counter and a cost cache keyed by
//! the ordered list of indexes relevant to each query. Beneath the counter,
//! an exact memo evaluates the model once per distinct cost input
//! (`memo`, DESIGN.md §5 item 4); it changes no count and no cost. The
//! model is a pure function with no error path, so every costing returns
//! its answer.

pub mod cost;
pub mod index;
mod memo;
pub mod plan;
pub mod whatif;

pub use cost::{CostModel, QueryCostBreakdown};
pub use index::{Index, IndexConfig};
pub use plan::PlanNode;
pub use whatif::{fill_missing_costs, populate_costs, WhatIfOptimizer};
