//! ISUM: Index-based Workload Summarization (SIGMOD 2022).
//!
//! The paper's contribution: given a workload of `n` queries with their
//! optimizer-estimated costs, select `k` queries (and weights) whose tuning
//! yields nearly the improvement of tuning all `n`. The crate implements the
//! full method:
//!
//! * **Featurization** ([`features`]): each query becomes a sparse weight
//!   vector over its indexable columns, weighted rule-based (fraction of
//!   Table-1 candidate indexes containing the column × table size) or
//!   stats-based ((1 − selectivity/density) × table size), min–max
//!   normalized (Sec 4.2); computed once per distinct signature and
//!   stored once per distinct vector ([`Grouping`]).
//! * **Utility** ([`utility`]): each query's share of the workload's
//!   estimated cost reduction, from cost alone or cost × (1 − avg
//!   selectivity) (Sec 4.1, Def 2).
//! * **Similarity & benefit** ([`similarity`], [`benefit`]): weighted
//!   Jaccard over feature vectors; benefit = utility + influence
//!   (Defs 3–4, 7–9).
//! * **Greedy selection**: the quadratic all-pairs algorithm
//!   ([`allpairs`], Algs 1–2) and the linear summary-features algorithm
//!   ([`summary`], Alg 3 + Theorem 3 bounds), with the update strategies of
//!   Sec 4.3 ([`update`]).
//! * **Weighting** ([`weighting`]): benefit re-calibration and
//!   template-based utility redistribution (Sec 7, Algs 4–5).
//!
//! [`Isum`] ties everything together behind the [`Compressor`] trait shared
//! with the baseline algorithms.

pub mod allpairs;
pub mod benefit;
pub mod compressor;
pub mod explain;
pub mod features;
mod groups;
pub mod incremental;
pub mod isum;
pub mod merge;
pub mod similarity;
pub mod summary;
pub mod update;
pub mod utility;
pub mod weighting;

pub use compressor::Compressor;
pub use explain::{
    explain_selection, selection_coverage, workload_coverage, MemberAttribution, SummaryExplanation,
};
pub use features::{FeatureVec, Featurizer, SparseVec, WeightScheme, WorkloadFeatures};
pub use groups::Grouping;
pub use incremental::IncrementalIsum;
pub use isum::{Algorithm, Isum, IsumConfig};
pub use merge::{
    merge_partials, Contribution, MergedPick, MergedTemplate, MergedWorkload, ShardPartial,
};
pub use update::UpdateStrategy;
pub use utility::UtilityMode;
pub use weighting::WeightingStrategy;
