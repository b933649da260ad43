//! The DTA-like advisor: candidate generation → per-query candidate
//! selection → greedy configuration enumeration, following the published
//! Database Tuning Advisor architecture (Fig 1 of the paper, \[7, 14\]).

use isum_optimizer::{Index, IndexConfig, WhatIfOptimizer};
use isum_workload::{CompressedWorkload, Workload};

use crate::advisor::{IndexAdvisor, TuningConstraints};
use crate::candidates::{candidate_indexes, CandidateOptions};
use crate::enumerate::greedy_enumerate;
use crate::merging::merged_candidates;

/// DTA-like three-phase index advisor.
#[derive(Debug, Clone)]
pub struct DtaAdvisor {
    /// Candidate-generation options.
    pub options: CandidateOptions,
    /// Candidates kept per query after per-query selection.
    pub per_query_keep: usize,
    /// Apply index merging \[16\] to the pooled candidates before
    /// enumeration (DTA does; DEXTER does not — Sec 8.3).
    pub merging: bool,
}

impl Default for DtaAdvisor {
    fn default() -> Self {
        Self { options: CandidateOptions::default(), per_query_keep: 8, merging: true }
    }
}

impl DtaAdvisor {
    /// Advisor with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase 1+2: candidates for one query, pruned to those that actually
    /// improve the query (per-query candidate selection), best first.
    pub fn selected_candidates(
        &self,
        optimizer: &WhatIfOptimizer<'_>,
        workload: &Workload,
        query: isum_common::QueryId,
    ) -> Vec<Index> {
        let q = workload.query(query);
        let base = optimizer.cost_query(workload, query, &IndexConfig::empty());
        // Winners stay in candidate order, so the stable gain sort below
        // breaks ties by candidate position.
        let mut scored: Vec<(f64, Index)> =
            candidate_indexes(&q.bound, &workload.catalog, &self.options)
                .into_iter()
                .filter_map(|ix| {
                    let cfg = IndexConfig::from_indexes([ix.clone()]);
                    let gain = base - optimizer.cost_query(workload, query, &cfg);
                    (gain > 1e-9).then_some((gain, ix))
                })
                .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite gains"));
        scored.truncate(self.per_query_keep);
        scored.into_iter().map(|(_, ix)| ix).collect()
    }
}

impl IndexAdvisor for DtaAdvisor {
    fn name(&self) -> &'static str {
        "DTA"
    }

    fn recommend(
        &self,
        optimizer: &WhatIfOptimizer<'_>,
        workload: &Workload,
        subset: &CompressedWorkload,
        constraints: &TuningConstraints,
    ) -> IndexConfig {
        let _tune = isum_common::telemetry::span("tune");
        // Phase 1+2 per tuned query.
        let mut pool: Vec<Index> = {
            let _s = isum_common::telemetry::span("candidates");
            let mut pool: Vec<Index> = Vec::new();
            for &(id, _) in &subset.entries {
                for ix in self.selected_candidates(optimizer, workload, id) {
                    if !pool.contains(&ix) {
                        pool.push(ix);
                    }
                }
            }
            pool
        };
        // Phase 2.5: index merging widens the pool with indexes that can
        // serve several queries at lower storage.
        if self.merging {
            let merged = merged_candidates(&pool, pool.len() / 2 + 1, 8);
            pool.extend(merged);
        }
        isum_common::count!("advisor.candidates.pooled", pool.len() as u64);
        // Phase 3: greedy enumeration over the weighted subset.
        greedy_enumerate(optimizer, workload, &subset.entries, &pool, constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_common::QueryId;
    use isum_workload::gen::tpch::{tpch_catalog, tpch_workload};

    #[test]
    fn recommends_useful_indexes_on_tpch() {
        let mut w = tpch_workload(1, 22, 1).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let advisor = DtaAdvisor::new();
        let cfg = advisor.recommend_full(&opt, &w, &TuningConstraints::with_max_indexes(10));
        assert!(!cfg.is_empty());
        let imp = opt.improvement_pct(&w, &cfg);
        assert!(imp > 10.0, "TPC-H full tuning should improve >10%, got {imp:.1}%");
    }

    #[test]
    fn more_indexes_never_hurt() {
        let mut w = tpch_workload(1, 12, 2).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let advisor = DtaAdvisor::new();
        let mut prev = 0.0;
        for m in [1usize, 2, 4, 8] {
            let cfg = advisor.recommend_full(&opt, &w, &TuningConstraints::with_max_indexes(m));
            let imp = opt.improvement_pct(&w, &cfg);
            assert!(imp + 1e-9 >= prev, "m={m}: {imp} < {prev}");
            prev = imp;
        }
    }

    #[test]
    fn per_query_candidate_selection_only_keeps_winners() {
        let mut w = tpch_workload(1, 22, 3).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let advisor = DtaAdvisor::new();
        for id in 0..6 {
            let cands = advisor.selected_candidates(&opt, &w, QueryId(id));
            assert!(cands.len() <= advisor.per_query_keep);
            let base = opt.cost_query(&w, QueryId(id), &IndexConfig::empty());
            for ix in cands {
                let cost =
                    opt.cost_query(&w, QueryId(id), &IndexConfig::from_indexes([ix.clone()]));
                assert!(cost < base, "{} kept but useless", ix.display(&catalog));
            }
        }
    }

    #[test]
    fn tuning_subset_only_sees_subset_tables() {
        let mut w = tpch_workload(1, 22, 4).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let advisor = DtaAdvisor::new();
        // Tune only Q6 (pure lineitem query).
        let sub = CompressedWorkload::uniform(vec![QueryId(5)]);
        let cfg = advisor.recommend(&opt, &w, &sub, &TuningConstraints::with_max_indexes(8));
        let li = catalog.table_id("lineitem").unwrap();
        for ix in cfg.indexes() {
            assert_eq!(ix.table, li, "only lineitem may be indexed");
        }
    }

    #[test]
    fn empty_subset_empty_config() {
        let mut w = tpch_workload(1, 4, 5).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let advisor = DtaAdvisor::new();
        let cfg = advisor.recommend(
            &opt,
            &w,
            &CompressedWorkload::default(),
            &TuningConstraints::default(),
        );
        assert!(cfg.is_empty());
        assert_eq!(advisor.name(), "DTA");
    }
}
