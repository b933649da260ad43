//! Workload summary features and the linear-time greedy algorithm
//! (Sec 6 of the paper: Def 11, Algorithm 3, Theorem 3).
//!
//! The summary feature vector `V` aggregates query features weighted by
//! utility: `V_c = Σ_i q_ic · U(q_i)`. A query's influence on the workload
//! is then approximated by a *single* similarity computation
//! `F_qs(V) = S(q_s, V)` instead of `n − 1` pairwise ones, giving the
//! `O(k·n)` algorithm. After every pick, queries are updated exactly as in
//! the all-pairs algorithm and the summary is *regenerated* (updating `V`
//! in place is noted by the paper to be more erroneous).

use std::collections::HashMap;

use isum_common::GlobalColumnId;

use crate::allpairs::Selection;
use crate::features::{FeatureVec, SparseVec};
use crate::groups::Grouping;
use crate::update::{first_strict_max, greedy_select, GreedyState, UpdateStrategy};

/// Value of an accumulator cell nothing was added to. `-0.0` is the
/// additive identity that also preserves the sign of a zero, so the first
/// `+=` into a cell stores its operand bit for bit — the same value a fold
/// that *inserts* a column on first sight ([`SparseVec::add_scaled`])
/// gives it. No weight the crate produces is `-0.0` (min–max normalization
/// and the clamping updates yield `+0.0`), so the bit pattern doubles as
/// the "untouched" marker.
const UNTOUCHED: f64 = -0.0;

/// Dense accumulator for sums of scaled sparse vectors.
///
/// The columns of the vectors to be summed are interned once, in ascending
/// order, so a column's dense id is its rank: merge joins over ranks visit
/// columns in the same order as merge joins over [`GlobalColumnId`]s.
/// Adding a vector is then one indexed `+=` per entry — no merge, no
/// allocation — and per column the operands arrive in the order the
/// vectors are added, so every sum has the bits of the one-by-one fold.
#[derive(Debug)]
pub(crate) struct Accumulator {
    columns: Vec<GlobalColumnId>,
    v: Vec<f64>,
}

impl Accumulator {
    /// Accumulator over the union of the given vectors' columns.
    pub fn over<'a>(vectors: impl IntoIterator<Item = &'a [(GlobalColumnId, f64)]>) -> Self {
        let mut columns: Vec<GlobalColumnId> =
            vectors.into_iter().flat_map(|e| e.iter().map(|&(g, _)| g)).collect();
        columns.sort_unstable();
        columns.dedup();
        assert!(u32::try_from(columns.len()).is_ok(), "column ranks fit u32");
        let v = vec![UNTOUCHED; columns.len()];
        Self { columns, v }
    }

    fn rank(&self, g: GlobalColumnId) -> usize {
        self.columns.binary_search(&g).expect("column interned at construction")
    }

    /// The positive entries of `v`, over dense column ranks. Feature
    /// weights are non-negative, and a zero entry adds `+0.0` to every
    /// sum it takes part in (the accumulator's, both weighted-Jaccard
    /// sums), so dropping it changes no bit and shortens every merge.
    pub fn densify(&self, v: &FeatureVec) -> SparseVec<u32> {
        let mut dense = SparseVec::default();
        // `as u32` cannot truncate: `over` checked the column count.
        dense.refill(
            v.entries().iter().filter(|(_, w)| *w > 0.0).map(|&(g, w)| (self.rank(g) as u32, w)),
        );
        dense
    }

    /// Forgets every sum.
    pub fn clear(&mut self) {
        self.v.fill(UNTOUCHED);
    }

    /// Adds `u × q`.
    pub fn add(&mut self, q: &SparseVec<u32>, u: f64) {
        for &(c, w) in q.entries() {
            self.v[c as usize] += u * w;
        }
    }

    /// Adds `u × q` for a vector still keyed by column id.
    pub fn add_sparse(&mut self, q: &[(GlobalColumnId, f64)], u: f64) {
        for &(g, w) in q {
            let c = self.rank(g);
            self.v[c] += u * w;
        }
    }

    /// Writes the positive sums into `out`.
    pub fn positive(&self, out: &mut SparseVec<u32>) {
        out.refill(
            self.v.iter().enumerate().filter(|(_, &x)| x > 0.0).map(|(c, &x)| (c as u32, x)),
        );
    }

    /// The sums of every column something was added to.
    pub fn touched(&self) -> FeatureVec {
        let mut out = FeatureVec::default();
        out.refill(
            self.columns
                .iter()
                .zip(&self.v)
                .filter(|(_, x)| x.to_bits() != UNTOUCHED.to_bits())
                .map(|(&g, &x)| (g, x)),
        );
        out
    }
}

/// `Σ u·x` over `terms`, folded in iteration order, skipping terms whose
/// scale is not positive.
pub(crate) fn weighted_sum<'a>(
    terms: impl Iterator<Item = (&'a [(GlobalColumnId, f64)], f64)> + Clone,
) -> FeatureVec {
    let terms = terms.filter(|&(_, u)| u > 0.0);
    let mut acc = Accumulator::over(terms.clone().map(|(x, _)| x));
    for (x, u) in terms {
        acc.add_sparse(x, u);
    }
    acc.touched()
}

/// Builds the summary feature vector `V = Σ_i U(q_i) · q_i` (Def 11).
pub fn summary_features(features: &[FeatureVec], utilities: &[f64]) -> FeatureVec {
    weighted_sum(features.iter().map(FeatureVec::entries).zip(utilities.iter().copied()))
}

/// Influence of query `i` approximated against a summary that *excludes*
/// `i` (Algorithm 3 lines 9–12): the query's own contribution is removed
/// and the remainder rescaled so the total utility mass is preserved.
pub fn influence_via_summary(
    i: usize,
    features: &[FeatureVec],
    utilities: &[f64],
    summary: &FeatureVec,
    total_utility: f64,
) -> f64 {
    summary_influence(&features[i], utilities[i], summary, total_utility)
}

/// [`influence_via_summary`] of one query with features `q` and utility
/// `u_i`, over any key type.
pub(crate) fn summary_influence<K: Ord + Copy>(
    q: &SparseVec<K>,
    u_i: f64,
    summary: &SparseVec<K>,
    total_utility: f64,
) -> f64 {
    let reduced = total_utility - u_i;
    if reduced <= f64::EPSILON {
        return 0.0;
    }
    let scale = total_utility / reduced;
    // Fused single pass over the two sorted vectors, in ascending key
    // order: for each feature, V'_c = max(0, summary_c − u_i·q_ic) · scale,
    // then accumulate the weighted-Jaccard min/max sums against q_ic. No
    // allocations — this is the inner loop of the linear-time algorithm.
    let se = summary.entries();
    let mut min_sum = 0.0;
    let mut max_sum = 0.0;
    let mut both = |f_val: f64, v_val: f64| {
        min_sum += f_val.min(v_val);
        max_sum += f_val.max(v_val);
    };
    let mut b = 0;
    for &(c, w) in q.entries() {
        // Summary features the query lacks, up to its next feature.
        while b < se.len() && se[b].0 < c {
            both(0.0, se[b].1.max(0.0) * scale);
            b += 1;
        }
        if b < se.len() && se[b].0 == c {
            both(w, (se[b].1 - u_i * w).max(0.0) * scale);
            b += 1;
        } else {
            both(w, 0.0);
        }
    }
    for &(_, v) in &se[b..] {
        both(0.0, v.max(0.0) * scale);
    }
    if max_sum <= 0.0 {
        0.0
    } else {
        min_sum / max_sum
    }
}

/// The linear-time greedy selection (Algorithm 3 inside the Algorithm 2
/// loop): per iteration one summary build plus one similarity per class of
/// queries with equal vectors and utilities.
pub fn select_summary(
    features: Vec<FeatureVec>,
    original: &[FeatureVec],
    utilities: Vec<f64>,
    k: usize,
    strategy: UpdateStrategy,
) -> Selection {
    select_grouped(&Grouping::from_pairs(features, original), utilities, k, strategy)
}

/// [`select_summary`] over an already grouped workload.
///
/// The benefit of query `i` is a function of its group's vector and its
/// utility alone, and both evolve as pure functions of themselves: the
/// update is per group, and `U −= U·S_g` is per (utility, group). So the
/// members of a class — equal group, bit-equal utility at the start of the
/// run — have bit-equal benefits in every round, and a later member can
/// never strictly beat an earlier one in the index-order argmax. Each round
/// therefore evaluates only the smallest unselected member of each class,
/// and picks exactly what the per-query scan picks, under every
/// [`UpdateStrategy`] and NaN utilities included. The summary stays a
/// per-query fold: its per-column operand order fixes its bits.
pub(crate) fn select_grouped(
    groups: &Grouping,
    utilities: Vec<f64>,
    k: usize,
    strategy: UpdateStrategy,
) -> Selection {
    let n = groups.len();
    let mut classes = Classes::new(groups.group_of(), &utilities);
    let mut state = GreedyState::new(groups, utilities, vec![false; n]);
    let mut evaluations = 0u64;
    let selection = greedy_select(&mut state, k, strategy, |state| {
        // Regenerate the summary over unselected queries, then one
        // similarity per class against it, in index order.
        let total_utility = state.summarize();
        classes.skip_selected(&state.selected);
        first_strict_max(classes.heads().filter(|&i| state.candidate(i)).map(|i| {
            evaluations += 1;
            let u = state.utilities[i];
            (i, u + summary_influence(state.vector(i), u, state.summary(), total_utility))
        }))
    });
    isum_common::count!("core.select.evaluations", evaluations);
    selection
}

/// The queries of a greedy run partitioned into classes of equal group and
/// bit-equal starting utility, each class represented by its smallest
/// unselected member.
struct Classes {
    /// Members of every class, class after class, each in index order.
    members: Vec<u32>,
    /// One past the last member of each class in `members`.
    end: Vec<usize>,
    /// Per class, where its smallest unselected member is in `members`.
    next: Vec<usize>,
    /// `(smallest unselected member, class)` of every class that has one,
    /// in ascending member order.
    heads: Vec<(u32, u32)>,
}

impl Classes {
    fn new(group_of: &[u32], utilities: &[f64]) -> Self {
        assert!(u32::try_from(group_of.len()).is_ok(), "query indices fit u32");
        let mut ids: HashMap<(u32, u64), u32> = HashMap::new();
        let class_of: Vec<u32> = group_of
            .iter()
            .zip(utilities)
            .map(|(&g, u)| {
                let next = ids.len() as u32;
                *ids.entry((g, u.to_bits())).or_insert(next)
            })
            .collect();
        // Counting sort by class keeps each class in index order.
        let mut end = vec![0usize; ids.len()];
        for &c in &class_of {
            end[c as usize] += 1;
        }
        let mut at = 0;
        for e in &mut end {
            at += *e;
            *e = at;
        }
        let mut next = end.clone();
        let mut members = vec![0u32; class_of.len()];
        for (i, &c) in class_of.iter().enumerate().rev() {
            next[c as usize] -= 1;
            members[next[c as usize]] = i as u32;
        }
        // Classes are numbered by first appearance, so their first members
        // ascend in class order.
        let heads = next.iter().enumerate().map(|(c, &at)| (members[at], c as u32)).collect();
        Self { members, end, next, heads }
    }

    /// Replaces every selected head by its class's next unselected member.
    fn skip_selected(&mut self, selected: &[bool]) {
        let mut h = 0;
        while h < self.heads.len() {
            let (i, c) = self.heads[h];
            if !selected[i as usize] {
                h += 1;
                continue;
            }
            self.heads.remove(h);
            let c = c as usize;
            while self.next[c] < self.end[c] && selected[self.members[self.next[c]] as usize] {
                self.next[c] += 1;
            }
            if self.next[c] < self.end[c] {
                // A later member of the class: its place is at or after `h`.
                let m = self.members[self.next[c]];
                let at = self.heads.partition_point(|&(j, _)| j < m);
                self.heads.insert(at, (m, c as u32));
            }
        }
    }

    /// The class representatives, in ascending index order.
    fn heads(&self) -> impl Iterator<Item = usize> + '_ {
        self.heads.iter().map(|&(i, _)| i as usize)
    }
}

/// The two-sided bound of Theorem 3 on `F_qs(V) / F_qs(W)`:
/// `R/(n·U_L) ≤ F(V)/F(W) ≤ 1/(n·R·U_S)` where `R` is the smallest ratio
/// between any two values of the same feature, and `U_S`/`U_L` the extreme
/// utilities. Returns `(lower, upper)`; degenerate inputs give `(0, ∞)`.
pub fn theorem3_bounds(features: &[FeatureVec], utilities: &[f64]) -> (f64, f64) {
    let n = features.len() as f64;
    let us = utilities.iter().copied().filter(|u| *u > 0.0).fold(f64::INFINITY, f64::min);
    let ul = utilities.iter().copied().fold(0.0, f64::max);
    // R = min over columns of (min value / max value).
    let mut per_col: HashMap<GlobalColumnId, (f64, f64)> = HashMap::new();
    for f in features {
        for &(g, w) in f.entries() {
            if w > 0.0 {
                let e = per_col.entry(g).or_insert((f64::INFINITY, 0.0));
                e.0 = e.0.min(w);
                e.1 = e.1.max(w);
            }
        }
    }
    let r = per_col
        .values()
        .map(|&(lo, hi)| if hi > 0.0 { lo / hi } else { 1.0 })
        .fold(f64::INFINITY, f64::min);
    if !r.is_finite() || n == 0.0 || ul <= 0.0 || !us.is_finite() {
        return (0.0, f64::INFINITY);
    }
    (r / (n * ul), 1.0 / (n * r * us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benefit::influence;
    use isum_common::rng::DetRng;
    use isum_common::{ColumnId, GlobalColumnId, TableId};

    fn gid(c: u32) -> GlobalColumnId {
        GlobalColumnId::new(TableId(0), ColumnId(c))
    }

    fn vec_of(entries: &[(u32, f64)]) -> FeatureVec {
        FeatureVec::from_entries(entries.iter().map(|&(c, w)| (gid(c), w)).collect())
    }

    #[test]
    fn summary_is_utility_weighted_sum() {
        let features = vec![vec_of(&[(0, 1.0), (1, 0.5)]), vec_of(&[(1, 1.0)])];
        let utilities = vec![0.6, 0.4];
        let v = summary_features(&features, &utilities);
        assert!((v.get(gid(0)) - 0.6).abs() < 1e-12);
        assert!((v.get(gid(1)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn summary_influence_tracks_true_influence() {
        // Random workload: F(V) should correlate with F(W) = Σ_j S(i,j)U(j).
        let mut rng = DetRng::seeded(11);
        let n = 40;
        let features: Vec<FeatureVec> = (0..n)
            .map(|_| {
                let m = 2 + rng.below(5);
                vec_of(
                    &(0..m)
                        .map(|_| (rng.below(12) as u32, 0.2 + rng.unit() * 0.8))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let raw: Vec<f64> = (0..n).map(|_| rng.unit() + 0.05).collect();
        let total: f64 = raw.iter().sum();
        let utilities: Vec<f64> = raw.iter().map(|r| r / total).collect();
        let v = summary_features(&features, &utilities);
        let tu: f64 = utilities.iter().sum();

        let approx: Vec<f64> =
            (0..n).map(|i| influence_via_summary(i, &features, &utilities, &v, tu)).collect();
        let exact: Vec<f64> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| influence(&features[i], &features[j], utilities[j]))
                    .sum()
            })
            .collect();
        let corr = isum_common::stats::pearson(&approx, &exact);
        assert!(corr > 0.5, "summary influence should track exact influence, r={corr:.3}");
    }

    #[test]
    fn select_summary_matches_allpairs_on_disjoint_clusters() {
        // Disjoint clusters: both algorithms must pick one query per
        // cluster, highest-utility cluster first.
        let features = vec![
            vec_of(&[(0, 1.0)]),
            vec_of(&[(0, 1.0)]),
            vec_of(&[(5, 1.0)]),
            vec_of(&[(5, 1.0)]),
            vec_of(&[(9, 1.0)]),
        ];
        let utilities = vec![0.30, 0.25, 0.20, 0.15, 0.10];
        let sum = select_summary(
            features.clone(),
            &features,
            utilities.clone(),
            3,
            UpdateStrategy::ZeroFeatures,
        );
        let all = crate::allpairs::select_all_pairs(
            features.clone(),
            &features,
            utilities,
            3,
            UpdateStrategy::ZeroFeatures,
        );
        assert_eq!(sum.order, all.order, "summary {:?} vs all-pairs {:?}", sum.order, all.order);
        assert_eq!(sum.order, vec![0, 2, 4]);
    }

    #[test]
    fn select_summary_selects_k_without_repeats() {
        let mut rng = DetRng::seeded(3);
        let features: Vec<FeatureVec> = (0..30)
            .map(|_| {
                vec_of(&(0..3).map(|_| (rng.below(10) as u32, rng.unit())).collect::<Vec<_>>())
            })
            .collect();
        let utilities: Vec<f64> = (0..30).map(|_| rng.unit() / 30.0).collect();
        let sel = select_summary(
            features.clone(),
            &features,
            utilities,
            10,
            UpdateStrategy::ZeroFeatures,
        );
        assert_eq!(sel.order.len(), 10);
        let mut s = sel.order.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn theorem3_bounds_bracket_the_ratio() {
        let mut rng = DetRng::seeded(7);
        let n = 20;
        let features: Vec<FeatureVec> = (0..n)
            .map(|_| {
                vec_of(
                    &(0..4)
                        .map(|_| (rng.below(8) as u32, 0.3 + rng.unit() * 0.7))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let raw: Vec<f64> = (0..n).map(|_| 0.5 + rng.unit()).collect();
        let total: f64 = raw.iter().sum();
        let utilities: Vec<f64> = raw.iter().map(|r| r / total).collect();
        let (lo, hi) = theorem3_bounds(&features, &utilities);
        assert!(lo > 0.0 && hi.is_finite() && lo <= hi);
        let v = summary_features(&features, &utilities);
        let tu: f64 = utilities.iter().sum();
        for i in 0..n {
            let fv = influence_via_summary(i, &features, &utilities, &v, tu);
            let fw: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| influence(&features[i], &features[j], utilities[j]))
                .sum();
            if fw > 1e-9 {
                let ratio = fv / fw;
                assert!(
                    ratio >= lo * 0.999 && ratio <= hi * 1.001,
                    "ratio {ratio} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn degenerate_inputs_give_trivial_bounds() {
        let (lo, hi) = theorem3_bounds(&[], &[]);
        assert_eq!(lo, 0.0);
        assert_eq!(hi, f64::INFINITY);
    }
}
