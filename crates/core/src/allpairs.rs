//! The all-pairs greedy algorithm (Algorithms 1–2 of the paper).
//!
//! Each iteration scans every remaining query, computing its conditional
//! benefit against every other query — `O(k·n²)` similarity evaluations.
//! Quality-optimal among the greedy variants (Fig 11) but too slow for
//! large workloads; the summary-features algorithm ([`crate::summary`])
//! is the paper's linear-time answer.

use crate::benefit::conditional_benefit;
use crate::features::FeatureVec;
use crate::groups::Grouping;
use crate::update::{first_strict_max, greedy_select, GreedyState, UpdateStrategy};

/// Outcome of a greedy selection run.
#[derive(Debug, Clone, Default)]
pub struct Selection {
    /// Selected query indices, in selection order.
    pub order: Vec<usize>,
    /// Conditional benefit of each pick at the time it was made (used by
    /// the "selection benefit" weighting ablation, Fig 14).
    pub benefits: Vec<f64>,
}

/// Runs the all-pairs greedy selection of `k` queries (Algorithm 2 with
/// Algorithm 1 as the inner step). `features`/`utilities` are consumed as
/// working state; pass clones if the caller needs them again.
pub fn select_all_pairs(
    features: Vec<FeatureVec>,
    original: &[FeatureVec],
    utilities: Vec<f64>,
    k: usize,
    strategy: UpdateStrategy,
) -> Selection {
    select_all_pairs_grouped(&Grouping::from_pairs(features, original), utilities, k, strategy)
}

/// [`select_all_pairs`] over an already grouped workload. Grouping only
/// shares the stored vectors and the post-selection updates; the benefit
/// scan stays one similarity per pair of queries, the quality reference
/// of Figs 11 and 13.
pub(crate) fn select_all_pairs_grouped(
    groups: &Grouping,
    utilities: Vec<f64>,
    k: usize,
    strategy: UpdateStrategy,
) -> Selection {
    let n = groups.len();
    let mut state = GreedyState::new(groups, utilities, vec![false; n]);
    let mut evaluations = 0u64;
    let selection = greedy_select(&mut state, k, strategy, |state| {
        // Algorithm 1: find the max-conditional-benefit query, skipping
        // queries whose features are fully covered (all-zero). The pick is
        // the first strict maximum in index order.
        let state = &*state;
        first_strict_max((0..n).filter(|&i| state.candidate(i)).map(|i| {
            evaluations += 1;
            (i, conditional_benefit(i, state))
        }))
    });
    isum_common::count!("core.select.evaluations", evaluations);
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_common::{ColumnId, GlobalColumnId, TableId};

    fn vec_of(entries: &[(u32, f64)]) -> FeatureVec {
        FeatureVec::from_entries(
            entries
                .iter()
                .map(|&(c, w)| (GlobalColumnId::new(TableId(0), ColumnId(c)), w))
                .collect(),
        )
    }

    /// Three clusters of queries; utilities favour cluster A's first query.
    fn clustered() -> (Vec<FeatureVec>, Vec<f64>) {
        let features = vec![
            vec_of(&[(0, 1.0), (1, 0.8)]), // A0, high utility
            vec_of(&[(0, 0.9), (1, 0.9)]), // A1 (near-duplicate of A0)
            vec_of(&[(5, 1.0)]),           // B0
            vec_of(&[(5, 0.8), (6, 0.4)]), // B1
            vec_of(&[(9, 1.0)]),           // C0, tiny utility
        ];
        let utilities = vec![0.4, 0.3, 0.12, 0.12, 0.06];
        (features, utilities)
    }

    #[test]
    fn first_pick_maximizes_benefit() {
        let (f, u) = clustered();
        let sel = select_all_pairs(f.clone(), &f, u, 1, UpdateStrategy::ZeroFeatures);
        assert_eq!(sel.order, vec![0], "high-utility, high-influence query first");
        assert_eq!(sel.benefits.len(), 1);
        assert!(sel.benefits[0] > 0.4, "benefit exceeds bare utility");
    }

    #[test]
    fn updates_avoid_redundant_picks() {
        let (f, u) = clustered();
        // With updates, the second pick should come from cluster B, not the
        // near-duplicate A1.
        let sel = select_all_pairs(f.clone(), &f, u.clone(), 2, UpdateStrategy::ZeroFeatures);
        assert_eq!(sel.order[0], 0);
        assert!(
            sel.order[1] == 2 || sel.order[1] == 3,
            "expected a cluster-B query, got {:?}",
            sel.order
        );
        // Without updates, the duplicate wins (it has the 2nd-highest
        // benefit in the frozen state).
        let sel_no = select_all_pairs(f.clone(), &f, u, 2, UpdateStrategy::NoUpdate);
        assert_eq!(sel_no.order[1], 1, "no-update greedily re-picks the duplicate cluster");
    }

    #[test]
    fn benefits_are_recorded_in_pick_order() {
        let (f, u) = clustered();
        let sel = select_all_pairs(f.clone(), &f, u, 3, UpdateStrategy::ZeroFeatures);
        assert_eq!(sel.order.len(), 3);
        assert_eq!(sel.benefits.len(), 3);
        // Greedy benefits are non-increasing under ZeroFeatures updates on
        // this disjoint-cluster input.
        assert!(sel.benefits[0] >= sel.benefits[1]);
    }

    #[test]
    fn k_larger_than_n_selects_everything() {
        let (f, u) = clustered();
        let sel = select_all_pairs(f.clone(), &f, u, 99, UpdateStrategy::ZeroFeatures);
        assert_eq!(sel.order.len(), 5);
        let mut sorted = sel.order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "no repeats");
    }

    #[test]
    fn reset_allows_selection_past_coverage() {
        // Two identical queries: after picking one, the other's features
        // zero out; the reset must still allow it to be picked.
        let f = vec![vec_of(&[(0, 1.0)]), vec_of(&[(0, 1.0)])];
        let u = vec![0.6, 0.4];
        let sel = select_all_pairs(f.clone(), &f, u, 2, UpdateStrategy::ZeroFeatures);
        assert_eq!(sel.order.len(), 2);
    }

    #[test]
    fn empty_workload_selects_nothing() {
        let sel = select_all_pairs(Vec::new(), &[], Vec::new(), 3, UpdateStrategy::ZeroFeatures);
        assert!(sel.order.is_empty());
    }

    #[test]
    fn zero_feature_queries_are_skipped() {
        let f = vec![vec_of(&[(0, 0.0)]), vec_of(&[(1, 1.0)])];
        let u = vec![0.9, 0.1];
        let sel = select_all_pairs(f.clone(), &f, u, 1, UpdateStrategy::ZeroFeatures);
        assert_eq!(sel.order, vec![1], "all-zero query cannot be picked first");
    }
}
