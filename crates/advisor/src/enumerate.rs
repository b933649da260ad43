//! Greedy configuration enumeration.
//!
//! The combinatorial heart of an index advisor (Fig 1, step 3): from a pool
//! of candidate indexes, pick the subset that maximizes the weighted cost
//! reduction of the tuned queries, subject to a configuration-size limit and
//! an optional storage budget. Exact search is NP-hard \[10, 17\]; like DTA we
//! use greedy marginal-gain selection, which also makes the advisor's
//! explored-configuration count grow quadratically with candidates — the
//! scalability pain Fig 2 of the paper measures.

use isum_common::telemetry;
use isum_common::{count, record, QueryId};
use isum_optimizer::{Index, IndexConfig, WhatIfOptimizer};
use isum_workload::Workload;

use crate::advisor::TuningConstraints;

/// Greedily selects a configuration from `pool` minimizing the weighted cost
/// of `(query, weight)` pairs. Returns the chosen configuration.
pub fn greedy_enumerate(
    optimizer: &WhatIfOptimizer<'_>,
    workload: &Workload,
    tuned: &[(QueryId, f64)],
    pool: &[Index],
    constraints: &TuningConstraints,
) -> IndexConfig {
    let _s = telemetry::span("enumerate");
    count!("advisor.greedy.pool_size", pool.len() as u64);
    let catalog = optimizer.catalog();
    let mut cfg = IndexConfig::empty();
    let mut remaining: Vec<&Index> = pool.iter().collect();
    let mut used_bytes: u64 = 0;
    let mut current = weighted_cost(optimizer, workload, tuned, &cfg);

    while cfg.len() < constraints.max_indexes && !remaining.is_empty() {
        count!("advisor.greedy.iterations");
        let calls_before = optimizer.optimizer_calls();
        // The winner is the first strict maximum in pool order.
        let mut best: Option<(usize, f64, u64)> = None;
        for (i, ix) in remaining.iter().enumerate() {
            let bytes = ix.size_bytes(catalog);
            if constraints.storage_budget_bytes.is_some_and(|budget| used_bytes + bytes > budget) {
                continue;
            }
            let mut trial = cfg.clone();
            trial.add((*ix).clone());
            let gain = current - weighted_cost(optimizer, workload, tuned, &trial);
            if gain > 1e-9 && best.is_none_or(|(_, g, _)| gain > g) {
                best = Some((i, gain, bytes));
            }
        }
        // Per-round what-if pressure: this is the quadratic growth Fig 2
        // attributes 70–80% of tuning time to.
        record!(
            "advisor.greedy.whatif_calls_per_round",
            optimizer.optimizer_calls() - calls_before
        );
        match best {
            Some((i, gain, bytes)) => {
                cfg.add(remaining.remove(i).clone());
                used_bytes += bytes;
                current -= gain;
            }
            None => break,
        }
    }
    cfg
}

/// Weighted cost of the tuned queries under a configuration. Weights are
/// scaled so a weight of zero removes a query from consideration.
pub fn weighted_cost(
    optimizer: &WhatIfOptimizer<'_>,
    workload: &Workload,
    tuned: &[(QueryId, f64)],
    cfg: &IndexConfig,
) -> f64 {
    tuned.iter().map(|&(id, w)| w * optimizer.cost_query(workload, id, cfg)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_optimizer::WhatIfOptimizer;
    use isum_workload::gen::tpch::{tpch_catalog, tpch_workload};
    use isum_workload::Workload;

    use crate::candidates::{candidate_indexes, CandidateOptions};

    fn pool_for(w: &Workload) -> Vec<Index> {
        let mut pool = Vec::new();
        for q in &w.queries {
            for ix in candidate_indexes(&q.bound, &w.catalog, &CandidateOptions::default()) {
                if !pool.contains(&ix) {
                    pool.push(ix);
                }
            }
        }
        pool
    }

    #[test]
    fn greedy_respects_max_indexes() {
        let mut w = tpch_workload(1, 8, 3).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let pool = pool_for(&w);
        let tuned: Vec<_> = w.queries.iter().map(|q| (q.id, 1.0)).collect();
        let cfg =
            greedy_enumerate(&opt, &w, &tuned, &pool, &TuningConstraints::with_max_indexes(3));
        assert!(cfg.len() <= 3);
        assert!(!cfg.is_empty(), "TPC-H queries must benefit from some index");
    }

    #[test]
    fn greedy_respects_storage_budget() {
        let mut w = tpch_workload(1, 8, 3).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let pool = pool_for(&w);
        let tuned: Vec<_> = w.queries.iter().map(|q| (q.id, 1.0)).collect();
        let budget = 50 * 1024 * 1024; // 50 MiB: tight at sf=1
        let cfg =
            greedy_enumerate(&opt, &w, &tuned, &pool, &TuningConstraints::with_budget(16, budget));
        assert!(cfg.total_bytes(&catalog) <= budget);
    }

    #[test]
    fn each_greedy_pick_reduces_weighted_cost() {
        let mut w = tpch_workload(1, 6, 5).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let pool = pool_for(&w);
        let tuned: Vec<_> = w.queries.iter().map(|q| (q.id, 1.0)).collect();
        let mut prev = weighted_cost(&opt, &w, &tuned, &IndexConfig::empty());
        // Re-run greedy with increasing budgets; cost must be monotone.
        for m in 1..=4 {
            let cfg =
                greedy_enumerate(&opt, &w, &tuned, &pool, &TuningConstraints::with_max_indexes(m));
            let cost = weighted_cost(&opt, &w, &tuned, &cfg);
            assert!(cost <= prev + 1e-9, "m={m}: {cost} > {prev}");
            prev = cost;
        }
    }

    #[test]
    fn zero_weight_queries_are_ignored() {
        let mut w = tpch_workload(1, 4, 7).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let pool = pool_for(&w);
        let only_first: Vec<_> =
            w.queries.iter().map(|q| (q.id, if q.id.index() == 0 { 1.0 } else { 0.0 })).collect();
        let cfg =
            greedy_enumerate(&opt, &w, &only_first, &pool, &TuningConstraints::with_max_indexes(4));
        // Every selected index must be relevant to query 0's tables.
        let q0_tables = w.queries[0].bound.referenced_tables();
        for ix in cfg.indexes() {
            assert!(q0_tables.contains(&ix.table), "irrelevant index {ix:?}");
        }
    }

    #[test]
    fn empty_pool_yields_empty_config() {
        let mut w = tpch_workload(1, 2, 9).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let tuned: Vec<_> = w.queries.iter().map(|q| (q.id, 1.0)).collect();
        let cfg = greedy_enumerate(&opt, &w, &tuned, &[], &TuningConstraints::with_max_indexes(4));
        assert!(cfg.is_empty());
    }
}
