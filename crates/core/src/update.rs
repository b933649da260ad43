//! Post-selection update strategies (Sec 4.3 of the paper, ablated in
//! Fig 13).
//!
//! After a query is selected, the unselected queries' utilities and feature
//! vectors are updated so the next greedy pick accounts for what the
//! selected query already covers.
//!
//! `GreedyState` is the one working state all greedy loops share
//! (all-pairs, summary features, Alg 5 recalibration). It keeps one vector
//! per *group* of identical queries (`crate::groups`): the similarity
//! `S(q_s, ·)`, the feature update, the covered test and the Alg 2 line-12
//! reset are functions of the vector alone, so they run once per group and
//! only the scalar `U(q_j) −= U(q_j)·S` stays per query.

use crate::allpairs::Selection;
use crate::features::{FeatureVec, SparseVec};
use crate::groups::Grouping;
use crate::similarity::weighted_jaccard;
use crate::summary::Accumulator;

/// How state is updated after each greedy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateStrategy {
    /// No updates at all (Fig 13 "No Update").
    NoUpdate,
    /// Only discount utilities: `U(qj) ← U(qj) − U(qj)·S(qs, qj)`
    /// (Fig 13 "Utility Update").
    UtilityOnly,
    /// Utility update + subtract `S(qs, qj)` from `qj`'s feature weights
    /// (Fig 13 "Utility Update + Weight Subtract").
    SubtractWeights,
    /// Utility update + zero `qj`'s features present in `qs` — the paper's
    /// recommended option (Fig 13 "Utility Update + Feature Remove").
    #[default]
    ZeroFeatures,
}

/// Working state of one greedy run over a grouped workload. Vectors are
/// held over dense column ranks, positive entries only (see
/// [`Accumulator::densify`]), one per group.
pub(crate) struct GreedyState<'a> {
    groups: &'a Grouping,
    acc: Accumulator,
    /// Current (updated) vector of every group.
    current: Vec<SparseVec<u32>>,
    /// Every column of each group's vector as a per-query fold holds it:
    /// updates zero weights but keep the column, so this is the start
    /// vector's columns until a reset restores the original's.
    supports: Vec<SparseVec<u32>>,
    /// Unselected members of every group.
    members: Vec<u32>,
    /// Per-group `S(q_s, ·)` of the update in progress.
    sims: Vec<f64>,
    /// Positive entries of the last [`summarize`](Self::summarize).
    summary: SparseVec<u32>,
    /// Current utility of every query.
    pub utilities: Vec<f64>,
    /// Queries out of play: already picked, or never part of the pool.
    pub selected: Vec<bool>,
}

impl<'a> GreedyState<'a> {
    /// State starting from every group's *current* vector (Algs 1–3).
    pub fn new(groups: &'a Grouping, utilities: Vec<f64>, selected: Vec<bool>) -> Self {
        Self::starting_from(groups, utilities, selected, Grouping::current)
    }

    /// State starting from every group's *original* vector (Alg 5).
    pub fn pristine(groups: &'a Grouping, utilities: Vec<f64>, selected: Vec<bool>) -> Self {
        Self::starting_from(groups, utilities, selected, Grouping::original)
    }

    fn starting_from(
        groups: &'a Grouping,
        utilities: Vec<f64>,
        selected: Vec<bool>,
        start: fn(&'a Grouping, usize) -> &'a FeatureVec,
    ) -> Self {
        let g = groups.groups();
        let acc = Accumulator::over(
            (0..g).flat_map(|g| [groups.current(g).entries(), groups.original(g).entries()]),
        );
        let current: Vec<SparseVec<u32>> = (0..g).map(|g| acc.densify(start(groups, g))).collect();
        let supports = (0..g).map(|g| acc.support(start(groups, g))).collect();
        let mut members = vec![0u32; g];
        for (&g, &sel) in groups.group_of().iter().zip(&selected) {
            members[g as usize] += u32::from(!sel);
        }
        Self {
            groups,
            acc,
            current,
            supports,
            members,
            sims: vec![0.0; g],
            summary: SparseVec::default(),
            utilities,
            selected,
        }
    }

    /// The current vector of query `i`.
    pub fn vector(&self, i: usize) -> &SparseVec<u32> {
        self.group(self.groups.group_of()[i] as usize)
    }

    /// The current vector of group `g`.
    pub fn group(&self, g: usize) -> &SparseVec<u32> {
        &self.current[g]
    }

    /// `v` over this state's dense column ranks; its columns must be
    /// among the grouped vectors'.
    pub fn densify(&self, v: &FeatureVec) -> SparseVec<u32> {
        self.acc.densify(v)
    }

    /// True when query `i` can be picked on its benefit: still in play and
    /// not fully covered (Alg 2 line 4).
    pub fn candidate(&self, i: usize) -> bool {
        !self.selected[i] && !self.vector(i).is_empty()
    }

    /// Regenerates the summary `V = Σ U(q_i)·q_i` (Def 11) over the
    /// queries in play, in index order — per column the same operand
    /// sequence as folding the vectors one by one — and returns their
    /// total utility. Only the positive entries of `V` are kept: a column
    /// where `V` is zero adds `+0.0` to both weighted-Jaccard sums of any
    /// vector it is compared with, so dropping it changes no bit.
    ///
    /// That holds while the total is finite. A non-finite total makes the
    /// rescale factor `T/(T − u)` of every benefit NaN, so every column the
    /// fold touched counts by its presence alone, whatever its value; the
    /// summary is then the columns of every in-play query of positive
    /// utility, zero weights included, each with weight 1.
    pub fn summarize(&mut self) -> f64 {
        self.acc.clear();
        let mut total = 0.0;
        for (i, &g) in self.groups.group_of().iter().enumerate() {
            if !self.selected[i] {
                total += self.utilities[i];
                if self.utilities[i] > 0.0 {
                    self.acc.add(&self.current[g as usize], self.utilities[i]);
                }
            }
        }
        if !total.is_finite() {
            self.acc.clear();
            for (i, &g) in self.groups.group_of().iter().enumerate() {
                if !self.selected[i] && self.utilities[i] > 0.0 {
                    self.acc.add(&self.supports[g as usize], 1.0);
                }
            }
        }
        self.acc.positive(&mut self.summary);
        total
    }

    /// The positive entries of the last [`summarize`](Self::summarize).
    pub fn summary(&self) -> &SparseVec<u32> {
        &self.summary
    }

    /// Takes query `i` out of play.
    pub fn select(&mut self, i: usize) {
        self.selected[i] = true;
        self.members[self.groups.group_of()[i] as usize] -= 1;
    }

    /// Applies one selection's influence to every query in play. `chosen`
    /// must be the selected query's vector *at selection time*.
    pub fn apply_update(&mut self, strategy: UpdateStrategy, chosen: &SparseVec<u32>) {
        if strategy == UpdateStrategy::NoUpdate {
            return;
        }
        for g in 0..self.current.len() {
            if self.members[g] == 0 {
                continue;
            }
            let s = weighted_jaccard(chosen, &self.current[g]);
            self.sims[g] = s;
            match strategy {
                UpdateStrategy::SubtractWeights => self.current[g].subtract_scalar(s),
                UpdateStrategy::ZeroFeatures => self.current[g].zero_where_present(chosen),
                UpdateStrategy::UtilityOnly | UpdateStrategy::NoUpdate => continue,
            }
            self.current[g].retain_positive();
        }
        for (j, &g) in self.groups.group_of().iter().enumerate() {
            if !self.selected[j] {
                self.utilities[j] -= self.utilities[j] * self.sims[g as usize];
            }
        }
    }

    /// Algorithm 2 line 12: when *every* query in play is fully covered,
    /// restore their original vectors so large compressed workloads can
    /// keep selecting. Returns true when the restore brought back a
    /// positive feature, i.e. when a retry can find a candidate.
    pub fn reset_if_exhausted(&mut self) -> bool {
        if (0..self.current.len()).any(|g| self.members[g] > 0 && !self.current[g].is_empty()) {
            return false;
        }
        let mut restored = false;
        for g in 0..self.current.len() {
            if self.members[g] > 0 {
                self.current[g] = self.acc.densify(self.groups.original(g));
                self.supports[g] = self.acc.support(self.groups.original(g));
                restored |= !self.current[g].is_empty();
            }
        }
        restored
    }

    /// The in-play query of highest utility, first index on ties — the
    /// pick when no in-play query has a positive feature left even in its
    /// original vector: every similarity is then 0 by definition, so the
    /// benefit of a query is its utility alone.
    fn best_by_utility(&self) -> Option<(usize, f64)> {
        first_strict_max(
            (0..self.selected.len()).filter(|&i| !self.selected[i]).map(|i| (i, self.utilities[i])),
        )
    }
}

/// The first strict maximum among `(query, benefit)` pairs, in iteration
/// order: the deterministic argmax of every greedy scan.
pub(crate) fn first_strict_max(
    benefits: impl Iterator<Item = (usize, f64)>,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, b) in benefits {
        if best.is_none_or(|(_, bb)| b > bb) {
            best = Some((i, b));
        }
    }
    best
}

/// The greedy loop of Algorithm 2, shared by the all-pairs and the
/// summary-features algorithms: `scan` returns the candidate of highest
/// conditional benefit (or `None` when every query in play is covered),
/// the loop records the pick, applies the update and the reset rule.
pub(crate) fn greedy_select(
    state: &mut GreedyState<'_>,
    k: usize,
    strategy: UpdateStrategy,
    mut scan: impl FnMut(&mut GreedyState<'_>) -> Option<(usize, f64)>,
) -> Selection {
    let n = state.selected.len();
    let k = k.min(n);
    isum_common::count!("core.select.candidates", n as u64);
    let mut out = Selection::default();
    let mut chosen = SparseVec::default();
    while out.order.len() < k {
        isum_common::count!("core.select.iterations");
        let picked = match scan(state) {
            Some(picked) => Some(picked),
            // Everyone covered: reset (Alg 2 line 12) and retry.
            None if state.reset_if_exhausted() => continue,
            None => state.best_by_utility(),
        };
        let Some((pick, benefit)) = picked else { break };
        state.select(pick);
        out.order.push(pick);
        out.benefits.push(benefit);
        chosen.clone_from(state.vector(pick));
        state.apply_update(strategy, &chosen);
        state.reset_if_exhausted();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_common::{ColumnId, GlobalColumnId, TableId};

    fn gid(c: u32) -> GlobalColumnId {
        GlobalColumnId::new(TableId(0), ColumnId(c))
    }

    fn vec_of(entries: &[(u32, f64)]) -> FeatureVec {
        FeatureVec::from_entries(entries.iter().map(|&(c, w)| (gid(c), w)).collect())
    }

    /// Query 0 is already selected; 1 and 2 are in play.
    fn setup(groups: &Grouping) -> GreedyState<'_> {
        GreedyState::new(groups, vec![0.5, 0.3, 0.2], vec![true, false, false])
    }

    fn features() -> Vec<FeatureVec> {
        vec![vec_of(&[(0, 1.0)]), vec_of(&[(0, 1.0), (1, 1.0)]), vec_of(&[(2, 1.0)])]
    }

    /// Query `i`'s current vector, back over column ids.
    fn current(state: &GreedyState<'_>, i: usize) -> FeatureVec {
        FeatureVec::from_entries(
            state.vector(i).entries().iter().map(|&(c, w)| (gid(c), w)).collect(),
        )
    }

    #[test]
    fn no_update_changes_nothing() {
        let groups = Grouping::from_queries(&features());
        let mut st = setup(&groups);
        let chosen = st.vector(0).clone();
        st.apply_update(UpdateStrategy::NoUpdate, &chosen);
        assert_eq!(st.utilities, vec![0.5, 0.3, 0.2]);
        for (i, f) in features().iter().enumerate() {
            assert_eq!(&current(&st, i), f);
        }
    }

    #[test]
    fn utility_only_discounts_by_similarity() {
        let groups = Grouping::from_queries(&features());
        let mut st = setup(&groups);
        let chosen = st.vector(0).clone();
        st.apply_update(UpdateStrategy::UtilityOnly, &chosen);
        // S(q0, q1) = 0.5 → U(q1) = 0.3 * 0.5 = 0.15; q2 disjoint → unchanged.
        assert!((st.utilities[1] - 0.15).abs() < 1e-12);
        assert!((st.utilities[2] - 0.2).abs() < 1e-12);
        // Features untouched.
        assert_eq!(current(&st, 1), vec_of(&[(0, 1.0), (1, 1.0)]));
    }

    #[test]
    fn zero_features_removes_covered_columns() {
        let groups = Grouping::from_queries(&features());
        let mut st = setup(&groups);
        let chosen = st.vector(0).clone();
        st.apply_update(UpdateStrategy::ZeroFeatures, &chosen);
        assert_eq!(current(&st, 1), vec_of(&[(1, 1.0)]), "covered column dropped");
        assert_eq!(current(&st, 2), vec_of(&[(2, 1.0)]), "disjoint query untouched");
    }

    #[test]
    fn subtract_weights_reduces_gradually() {
        let groups = Grouping::from_queries(&features());
        let mut st = setup(&groups);
        let chosen = st.vector(0).clone();
        st.apply_update(UpdateStrategy::SubtractWeights, &chosen);
        // S(q0,q1) = 0.5 subtracted from both of q1's weights.
        assert_eq!(current(&st, 1), vec_of(&[(0, 0.5), (1, 0.5)]));
    }

    #[test]
    fn selected_queries_not_updated() {
        // Queries 0 and 1 share a vector; 0 is selected, 1 is in play.
        let f = vec![vec_of(&[(0, 1.0)]), vec_of(&[(0, 1.0)]), vec_of(&[(2, 1.0)])];
        let groups = Grouping::from_queries(&f);
        let mut st = setup(&groups);
        let chosen = st.vector(0).clone();
        st.apply_update(UpdateStrategy::ZeroFeatures, &chosen);
        assert!((st.utilities[0] - 0.5).abs() < 1e-12, "selected query keeps its utility");
        assert_eq!(st.utilities[1], 0.0, "its in-play twin is fully discounted");
    }

    #[test]
    fn reset_fires_only_when_all_in_play_exhausted() {
        let original = vec![vec_of(&[(0, 1.0)]), vec_of(&[(1, 1.0)]), vec_of(&[(2, 1.0)])];
        let exhausted = vec![vec_of(&[(0, 1.0)]), vec_of(&[(1, 0.0)]), vec_of(&[(2, 0.0)])];
        let groups = Grouping::from_pairs(exhausted, &original);
        let mut st = setup(&groups);
        assert!(st.reset_if_exhausted());
        assert_eq!(current(&st, 1), original[1]);
        assert_eq!(current(&st, 2), original[2]);
        // Not exhausted → no reset.
        let partial = vec![vec_of(&[(0, 1.0)]), vec_of(&[(1, 0.5)]), vec_of(&[(2, 0.0)])];
        let groups = Grouping::from_pairs(partial, &original);
        let mut st = setup(&groups);
        assert!(!st.reset_if_exhausted());
        assert!(current(&st, 2).is_empty(), "still covered");
    }

    #[test]
    fn reset_reports_when_nothing_positive_comes_back() {
        // Nothing in play: no reset.
        let groups = Grouping::from_queries(&[vec_of(&[(0, 0.0)])]);
        let mut st = GreedyState::new(&groups, vec![1.0], vec![true]);
        assert!(!st.reset_if_exhausted());
        // In play but feature-less even originally: the restore cannot
        // produce a candidate, and the caller falls back to utility.
        let groups = Grouping::from_queries(&[vec_of(&[(0, 0.0)]), FeatureVec::default()]);
        let mut st = GreedyState::new(&groups, vec![0.25, 0.75], vec![false, false]);
        assert!(!st.reset_if_exhausted());
        assert_eq!(st.best_by_utility(), Some((1, 0.75)));
    }
}
