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

    /// Every column of `v`, zero weights included, each with weight 1.
    pub fn support(&self, v: &FeatureVec) -> SparseVec<u32> {
        let mut support = SparseVec::default();
        support.refill(v.entries().iter().map(|&(g, _)| (self.rank(g) as u32, 1.0)));
        support
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

/// Relative amount by which [`benefit_bound`] is inflated away from zero.
const BOUND_MARGIN: f64 = 1e-9;

/// An upper bound on the benefit `u + summary_influence(q, u, summary,
/// total_utility)` that holds for every utility `u` in `[u_lo, u_hi]`:
/// one bound for all classes of a feature group, which share `q` and
/// differ only in their utility.
///
/// With `T` the total utility, `scale(u) = T/(T−u)` increases with `u` and
/// `max(0, s_c − u·w)` decreases with it, so for a column `c` of `q` the
/// reduced summary entry lies in `[v'_lo, v'_hi]`, where
/// `v'_lo = max(0, s_c − u_hi·w)·scale(u_lo)` and
/// `v'_hi = max(0, s_c − u_lo·w)·scale(u_hi)`; a summary column outside
/// `q` adds at least `s_c·scale(u_lo)` to the max-sum. Hence
/// `J ≤ min(1, Σ min(w, v'_hi) / max_lo)` with `max_lo` the max-sum
/// taken at the `v'_lo` ends, and the bound is `u_hi + J`.
///
/// **Rounding.** Every term above is computed by the operations
/// [`influence_via_summary`] performs on the same operands, with `u` replaced
/// by an end of the range, and both sums fold in the same column order.
/// IEEE-754 rounding is monotone, so each computed term, partial sum,
/// quotient and the final addition is on the right side of its
/// counterpart bit for bit: the unscaled bound already holds exactly.
/// The margin keeps it sound for any fold order: a sum of `m`
/// non-negative terms rounded in any order is within a relative
/// `(m−1)·2⁻⁵³` of the exact one, and the min-sum has `|q|` terms, the
/// max-sum at most `|q| + |summary|`. A relative 1e-9 is about `9·10⁶`
/// such units, so it covers both sums, the quotient and the final
/// addition for up to ~3 million columns, far beyond any catalog's.
///
/// **Non-finite inputs.** The bound is `+∞` — "evaluate exactly" — when
/// `T` or an end of the range is non-finite, when `u_lo < 0` (the
/// monotonicity argument needs `u ≥ 0`), when `T − u_hi ≤ ε` (the exact
/// evaluation takes its zero branch) and when the bound itself comes out
/// non-finite.
pub fn benefit_bound<K: Ord + Copy>(
    q: &SparseVec<K>,
    (u_lo, u_hi): (f64, f64),
    summary: &SparseVec<K>,
    total_utility: f64,
) -> f64 {
    let reduced = total_utility - u_hi;
    let finite = total_utility.is_finite() && u_lo.is_finite() && u_hi.is_finite();
    if !finite || u_lo < 0.0 || reduced <= f64::EPSILON {
        return f64::INFINITY;
    }
    let scale_lo = total_utility / (total_utility - u_lo);
    let scale_hi = total_utility / reduced;
    // The fold of `summary_influence`, with the min-sum taken at the
    // `v'_hi` ends and the max-sum at the `v'_lo` ends.
    let se = summary.entries();
    let mut min_hi = 0.0;
    let mut max_lo = 0.0;
    let mut b = 0;
    for &(c, w) in q.entries() {
        while b < se.len() && se[b].0 < c {
            max_lo += se[b].1.max(0.0) * scale_lo;
            b += 1;
        }
        if b < se.len() && se[b].0 == c {
            min_hi += w.min((se[b].1 - u_lo * w).max(0.0) * scale_hi);
            max_lo += w.max((se[b].1 - u_hi * w).max(0.0) * scale_lo);
            b += 1;
        } else {
            min_hi += w.min(0.0);
            max_lo += w.max(0.0);
        }
    }
    for &(_, v) in &se[b..] {
        max_lo += v.max(0.0) * scale_lo;
    }
    let ratio = min_hi / max_lo;
    let bound = u_hi + ratio.min(1.0);
    if !ratio.is_finite() || !bound.is_finite() {
        return f64::INFINITY;
    }
    bound + bound.abs() * BOUND_MARGIN
}

/// The linear-time greedy selection (Algorithm 3 inside the Algorithm 2
/// loop): per iteration one summary build, one bound per feature group
/// and one similarity per class of queries with equal vectors and
/// utilities whose group's bound can reach the best pick.
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
/// never strictly beat an earlier one in the index-order argmax. Only the
/// smallest unselected member of each class, its *head*, is a contender.
///
/// Each round bounds before it refines. The classes of a group share its
/// vector, so one [`benefit_bound`] over the range of their utilities
/// bounds every head of the group. Groups are visited in descending bound;
/// each visited group has all its heads evaluated exactly, and the visit
/// stops at the first group whose bound is below the best benefit found
/// so far. A skipped head's benefit is below that best, hence below the
/// round's maximum, so the first strict maximum over the evaluated heads
/// in index order is the per-query scan's pick, tie-break and recorded
/// benefit, under every [`UpdateStrategy`].
///
/// Non-finite inputs evaluate everything: a non-finite total (which any
/// non-finite head utility makes it) turns every bound into `+∞`, and so
/// index order decides exactly as in the plain scan, NaN ordering
/// included. A NaN benefit from finite inputs can only come from a group
/// whose bound is itself non-finite, hence `+∞`; such groups are visited
/// first, and once one yields NaN the visit no longer stops early. The
/// summary stays a per-query fold: its per-column operand order fixes its
/// bits.
pub(crate) fn select_grouped(
    groups: &Grouping,
    utilities: Vec<f64>,
    k: usize,
    strategy: UpdateStrategy,
) -> Selection {
    let n = groups.len();
    let mut classes = Classes::new(groups.group_of(), groups.groups(), &utilities);
    let mut state = GreedyState::new(groups, utilities, vec![false; n]);
    let mut heads: Vec<u32> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut evaluated: Vec<(usize, f64)> = Vec::new();
    let (mut bounds, mut evaluations) = (0u64, 0u64);
    let selection = greedy_select(&mut state, k, strategy, |state| {
        let total_utility = state.summarize();
        // The heads of every group that has candidates, group after
        // group, and one bound over the range of their utilities. A
        // non-finite head utility makes the total non-finite too, so every
        // bound is then `+∞`.
        heads.clear();
        spans.clear();
        for g in 0..groups.groups() {
            let q = state.group(g);
            if q.is_empty() {
                continue;
            }
            let start = heads.len();
            classes.heads(g, &state.selected, &mut heads);
            if heads.len() == start {
                continue;
            }
            let range = heads[start..]
                .iter()
                .map(|&i| state.utilities[i as usize])
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), u| (lo.min(u), hi.max(u)));
            let bound = benefit_bound(q, range, state.summary(), total_utility);
            spans.push(Span { group: g, start, end: heads.len(), bound });
        }
        bounds += spans.len() as u64;
        spans.sort_unstable_by(|a, b| b.bound.total_cmp(&a.bound));
        // Refine: exact benefits, best bound first, until no bound left
        // can reach the best benefit.
        evaluated.clear();
        let mut best = f64::NEG_INFINITY;
        let mut exhaustive = false;
        for span in &spans {
            if !exhaustive && span.bound < best {
                break;
            }
            let q = state.group(span.group);
            for &i in &heads[span.start..span.end] {
                let i = i as usize;
                let u = state.utilities[i];
                let b = u + summary_influence(q, u, state.summary(), total_utility);
                exhaustive |= b.is_nan();
                best = best.max(b);
                evaluated.push((i, b));
            }
        }
        evaluations += evaluated.len() as u64;
        evaluated.sort_unstable_by_key(|&(i, _)| i);
        first_strict_max(evaluated.iter().copied())
    });
    isum_common::count!("core.select.bounds", bounds);
    isum_common::count!("core.select.evaluations", evaluations);
    selection
}

/// The heads of one group in one round, `heads[start..end]` of
/// [`select_grouped`], and the group's bound.
struct Span {
    group: usize,
    start: usize,
    end: usize,
    bound: f64,
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
    /// Per group, its classes that had an unselected member when last
    /// visited.
    of_group: Vec<Vec<u32>>,
}

impl Classes {
    fn new(group_of: &[u32], groups: usize, utilities: &[f64]) -> Self {
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
        let mut of_group = vec![Vec::new(); groups];
        for (c, &at) in next.iter().enumerate() {
            of_group[group_of[members[at] as usize] as usize].push(c as u32);
        }
        Self { members, end, next, of_group }
    }

    /// Appends the head of every class of group `g` that has one to
    /// `out`, first moving each class past its selected members and
    /// forgetting the classes that have none left.
    fn heads(&mut self, g: usize, selected: &[bool], out: &mut Vec<u32>) {
        let Self { members, end, next, of_group } = self;
        of_group[g].retain(|&c| {
            let c = c as usize;
            while next[c] < end[c] && selected[members[next[c]] as usize] {
                next[c] += 1;
            }
            if next[c] < end[c] {
                out.push(members[next[c]]);
            }
            next[c] < end[c]
        });
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
