//! Influence and benefit (Defs 3–4 and 10 of the paper).

use crate::features::{FeatureVec, SparseVec};
use crate::similarity::weighted_jaccard;
use crate::update::GreedyState;

/// Influence of query `i` on query `j`:
/// `F_qi(qj) = S(qi, qj) × U(qj)` (Def 3).
pub fn influence<K: Ord + Copy>(fi: &SparseVec<K>, fj: &SparseVec<K>, uj: f64) -> f64 {
    weighted_jaccard(fi, fj) * uj
}

/// Benefit of selecting query `i` alone (Def 4 / conditional benefit
/// Def 10 when features and utilities have been updated):
/// `B(qi) = U(qi) + Σ_{j≠i} F_qi(qj)`, over the *current* (possibly
/// updated) vectors and utilities of `state`. Queries out of play do not
/// receive influence (two selected queries are both tuned).
pub(crate) fn conditional_benefit(i: usize, state: &GreedyState<'_>) -> f64 {
    let mut b = state.utilities[i];
    for j in 0..state.utilities.len() {
        if j != i && !state.selected[j] {
            b += influence(state.vector(i), state.vector(j), state.utilities[j]);
        }
    }
    b
}

/// Sum of a query's similarities with every other query — the raw
/// "similarity with the workload" signal of Fig 6b.
pub fn similarity_with_workload(i: usize, features: &[FeatureVec]) -> f64 {
    (0..features.len())
        .filter(|&j| j != i)
        .map(|j| weighted_jaccard(&features[i], &features[j]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::Grouping;
    use isum_common::{ColumnId, GlobalColumnId, TableId};

    fn vec_of(entries: &[(u32, f64)]) -> FeatureVec {
        FeatureVec::from_entries(
            entries
                .iter()
                .map(|&(c, w)| (GlobalColumnId::new(TableId(0), ColumnId(c)), w))
                .collect(),
        )
    }

    #[test]
    fn influence_scales_with_similarity_and_utility() {
        let a = vec_of(&[(0, 1.0)]);
        let b = vec_of(&[(0, 1.0), (1, 1.0)]);
        // S(a, b) = 1/2.
        assert!((influence(&a, &b, 0.4) - 0.2).abs() < 1e-12);
        assert_eq!(influence(&a, &vec_of(&[(5, 1.0)]), 0.4), 0.0);
    }

    #[test]
    fn benefit_adds_utility_and_influences() {
        let features =
            vec![vec_of(&[(0, 1.0)]), vec_of(&[(0, 1.0), (1, 1.0)]), vec_of(&[(9, 1.0)])];
        let groups = Grouping::from_queries(&features);
        let state = GreedyState::new(&groups, vec![0.5, 0.3, 0.2], vec![false; 3]);
        // B(0) = 0.5 + S(0,1)*0.3 + S(0,2)*0.2 = 0.5 + 0.5*0.3 + 0 = 0.65
        let b0 = conditional_benefit(0, &state);
        assert!((b0 - 0.65).abs() < 1e-12);
        // Similar neighbour with lower utility has lower benefit:
        // B(1) = 0.3 + 0.5*0.5 = 0.55.
        let b1 = conditional_benefit(1, &state);
        assert!((b1 - 0.55).abs() < 1e-12);
        assert!(b1 < b0);
    }

    #[test]
    fn selected_queries_receive_no_influence() {
        let features = vec![vec_of(&[(0, 1.0)]), vec_of(&[(0, 1.0)])];
        let groups = Grouping::from_queries(&features);
        let benefit = |selected: Vec<bool>| {
            conditional_benefit(0, &GreedyState::new(&groups, vec![0.5, 0.5], selected))
        };
        assert!((benefit(vec![false, false]) - 1.0).abs() < 1e-12);
        assert!((benefit(vec![false, true]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn similarity_with_workload_sums_pairwise() {
        let features =
            vec![vec_of(&[(0, 1.0)]), vec_of(&[(0, 1.0)]), vec_of(&[(0, 1.0), (1, 1.0)])];
        let s = similarity_with_workload(0, &features);
        assert!((s - 1.5).abs() < 1e-12);
    }
}
