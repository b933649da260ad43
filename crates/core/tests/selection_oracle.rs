//! The grouped selection/weighing kernel against a per-query oracle.
//!
//! `oracle` (`tests/oracle/mod.rs`) is the straightforward implementation
//! the kernel replaced, kept verbatim as the model: every round it clones the
//! unselected `FeatureVec`s, rebuilds the summary with one `add_scaled`
//! merge per query, walks both sorted vectors symmetrically for the
//! influence, and updates/resets every query on its own. The kernel
//! ([`isum_core::summary::select_summary`], [`select_all_pairs`],
//! [`weigh_selected`]) shares one vector per group of identical queries,
//! sums into a dense accumulator and drops zero entries — all of which is
//! claimed to change no bit. The properties assert exactly that: equal
//! pick order, bit-equal benefits, bit-equal weights.
//!
//! The one deliberate difference is the hang fix: where the old loop spun
//! forever (no unselected query has a positive feature even after the
//! Alg 2 line-12 reset), both sides pick by utility. No input on which the
//! old loop terminated reaches that branch.
//!
//! `PROPTEST_CASES` raises the number of generated cases.

use std::sync::mpsc;
use std::time::Duration;

use isum_common::{ColumnId, GlobalColumnId, TableId, TemplateId};
use isum_core::allpairs::{select_all_pairs, Selection};
use isum_core::summary::{benefit_bound, influence_via_summary, select_summary, summary_features};
use isum_core::weighting::weigh_selected;
use isum_core::{FeatureVec, UpdateStrategy, WeightingStrategy};
use proptest::prelude::*;

mod oracle;

const UPDATES: [UpdateStrategy; 4] = [
    UpdateStrategy::NoUpdate,
    UpdateStrategy::UtilityOnly,
    UpdateStrategy::SubtractWeights,
    UpdateStrategy::ZeroFeatures,
];

const WEIGHTINGS: [WeightingStrategy; 4] = [
    WeightingStrategy::Uniform,
    WeightingStrategy::SelectionBenefit,
    WeightingStrategy::Recalibrated,
    WeightingStrategy::RecalibratedTemplate,
];

fn gid(c: u32) -> GlobalColumnId {
    GlobalColumnId::new(TableId(c % 3), ColumnId(c))
}

/// A generated vector: `(column, weight code)` pairs. Codes 0–4 are the
/// quarters `0.0 ..= 1.0` (explicit zeros, exact ties), higher codes an
/// awkward fraction, so sums are sensitive to the order they fold in.
type RawVector = Vec<(u32, u32)>;

fn vector(raw: &RawVector) -> FeatureVec {
    FeatureVec::from_entries(
        raw.iter()
            .map(|&(c, w)| (gid(c), if w <= 4 { f64::from(w) / 4.0 } else { f64::from(w) / 997.0 }))
            .collect(),
    )
}

/// One generated query: `(current vector, original vector, utility code,
/// template)`, the vectors as indices into the case's pool — a small pool
/// is what makes bit-identical duplicates common.
type RawQuery = (usize, usize, u32, usize);

struct Case {
    features: Vec<FeatureVec>,
    original: Vec<FeatureVec>,
    utilities: Vec<f64>,
    templates: Vec<TemplateId>,
}

/// Utility codes are taken modulo one of these: the full range spreads
/// utilities over three orders of magnitude, the small alphabet makes
/// bit-equal utilities common, so the summary scan's classes (equal
/// vector, equal utility) hold many members that selections then split.
const UTILITY_ALPHABETS: [u32; 2] = [2000, 6];

/// `same`: every query starts from its original vector (what the
/// compressors do); otherwise current and original are drawn separately,
/// which also yields queries that start covered and need the reset.
fn case(
    pool: &[RawVector],
    queries: &[RawQuery],
    same: bool,
    zero_utilities: bool,
    alphabet: u32,
) -> Case {
    let pool: Vec<FeatureVec> = pool.iter().map(vector).collect();
    let pick = |i: usize| pool[i % pool.len()].clone();
    // Utility codes 0 and 1 are zeros and repeat often; the rest are
    // multiples of 1.7. Normalized like `utility::utilities`.
    let raw: Vec<f64> = queries
        .iter()
        .map(|&(_, _, u, _)| if zero_utilities { 0.0 } else { f64::from(u % alphabet / 2) * 1.7 })
        .collect();
    let total: f64 = raw.iter().sum();
    Case {
        features: queries.iter().map(|&(c, o, _, _)| pick(if same { o } else { c })).collect(),
        original: queries.iter().map(|&(_, o, _, _)| pick(o)).collect(),
        utilities: raw.iter().map(|r| if total > 0.0 { r / total } else { 0.0 }).collect(),
        templates: queries.iter().map(|&(_, _, _, t)| TemplateId::from_index(t)).collect(),
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_selection(new: &Selection, old: &Selection, what: &str) {
    assert_eq!(new.order, old.order, "{what}: pick order");
    assert_eq!(bits(&new.benefits), bits(&old.benefits), "{what}: benefits");
}

/// New ≡ oracle for the summary selection under every update strategy,
/// and for every weighting strategy on each of those selections.
fn check_summary(c: &Case, k: usize) {
    for update in UPDATES {
        let new = select_summary(c.features.clone(), &c.original, c.utilities.clone(), k, update);
        let old =
            oracle::select_summary(c.features.clone(), &c.original, c.utilities.clone(), k, update);
        assert_same_selection(&new, &old, &format!("summary {update:?} k={k}"));
        for weighting in WEIGHTINGS {
            let new_w = weigh_selected(weighting, &c.templates, &new, &c.original, &c.utilities);
            let old_w =
                oracle::weigh_selected(weighting, &c.templates, &old, &c.original, &c.utilities);
            assert_eq!(bits(&new_w), bits(&old_w), "{weighting:?} after {update:?} k={k}");
        }
    }
}

fn check_all_pairs(c: &Case, k: usize) {
    for update in UPDATES {
        let new = select_all_pairs(c.features.clone(), &c.original, c.utilities.clone(), k, update);
        let old = oracle::select_all_pairs(
            c.features.clone(),
            &c.original,
            c.utilities.clone(),
            k,
            update,
        );
        assert_same_selection(&new, &old, &format!("all-pairs {update:?} k={k}"));
    }
}

fn raw_vector() -> impl Strategy<Value = RawVector> {
    prop::collection::vec((0u32..12, 0u32..9), 0..6)
}

proptest! {
    /// Small workloads, every shape at once: duplicated vectors, explicit
    /// zeros and empty vectors, zero and tied utilities, `features ≠
    /// original`, `k` beyond `n` (which forces resets and, with
    /// feature-less queries, the utility fallback).
    #[test]
    fn kernel_matches_the_per_query_oracle(
        pool in prop::collection::vec(raw_vector(), 1..7),
        queries in prop::collection::vec((0usize..7, 0usize..7, 0u32..2000, 0usize..5), 1..40),
        k in 1usize..50,
        same in any::<bool>(),
        zero_utilities in prop::sample::select(vec![false, false, false, true]),
        alphabet in prop::sample::select(UTILITY_ALPHABETS.to_vec()),
    ) {
        let c = case(&pool, &queries, same, zero_utilities, alphabet);
        check_summary(&c, k);
        check_all_pairs(&c, k);
    }

    /// The public summary builder returns the entries of the one-by-one
    /// `add_scaled` fold, zero-valued columns included.
    #[test]
    fn summary_features_match_the_fold(
        pool in prop::collection::vec(raw_vector(), 1..7),
        queries in prop::collection::vec((0usize..7, 0usize..7, 0u32..2000, 0usize..5), 1..40),
    ) {
        let c = case(&pool, &queries, true, false, UTILITY_ALPHABETS[0]);
        let new = summary_features(&c.original, &c.utilities);
        let old = oracle::summary_features(&c.original, &c.utilities);
        let entries = |v: &FeatureVec| -> Vec<(GlobalColumnId, u64)> {
            v.entries().iter().map(|&(g, w)| (g, w.to_bits())).collect()
        };
        prop_assert_eq!(entries(&new), entries(&old));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Workloads with over a thousand queries in up to thirty groups: long
    /// per-column sums, where a fold in any other order shows in the bits.
    #[test]
    fn large_workloads_match_the_per_query_oracle(
        pool in prop::collection::vec(raw_vector(), 2..30),
        queries in prop::collection::vec((0usize..30, 0usize..30, 0u32..2000, 0usize..9), 1100..1400),
        k in 1usize..12,
    ) {
        for alphabet in UTILITY_ALPHABETS {
            check_summary(&case(&pool, &queries, true, false, alphabet), k);
        }
    }
}

/// Utilities outside the normalized range: NaN, `+∞`, a value whose
/// products and sums overflow, and ordinary ones — zero included.
const NON_FINITE_UTILITIES: [f64; 7] = [f64::NAN, f64::INFINITY, 1e308, 0.0, 0.25, 0.5, 1.7];

proptest! {
    /// The group bound of the summary scan holds for every utility in its
    /// range, both ends included, over summaries that hold `q` at the top
    /// of the range (as the kernel's do) plus another vector.
    #[test]
    fn benefit_bound_holds_over_the_utility_range(
        q in raw_vector(),
        other in raw_vector(),
        mass in (0u32..2000, 0u32..2000),
        total in 1u32..4000,
        ends in (0u32..1000, 0u32..1000),
        inner in prop::collection::vec(0u32..1001, 0..8),
    ) {
        let q = vector(&q);
        let t = f64::from(total) / 997.0;
        let (lo, hi) = (ends.0.min(ends.1), ends.0.max(ends.1));
        let (u_lo, u_hi) = (t * f64::from(lo) / 1000.0, t * f64::from(hi) / 1000.0);
        let mut summary = FeatureVec::default();
        summary.add_scaled(&q, u_hi + t * f64::from(mass.0) / 2000.0);
        summary.add_scaled(&vector(&other), t * f64::from(mass.1) / 2000.0);
        let bound = benefit_bound(&q, (u_lo, u_hi), &summary, t);
        let inner = inner.iter().map(|&a| {
            (u_lo + (u_hi - u_lo) * f64::from(a) / 1000.0).clamp(u_lo, u_hi)
        });
        for u in [u_lo, u_hi].into_iter().chain(inner) {
            let benefit = u + influence_via_summary(0, std::slice::from_ref(&q), &[u], &summary, t);
            prop_assert!(benefit <= bound, "u {u} in [{u_lo}, {u_hi}]: {benefit} > {bound}");
        }
    }

    /// Non-finite and overflowing utilities, unnormalized, under every
    /// update strategy: the bounded scan evaluates every head and picks
    /// what the per-query scan picks, NaN ordering included, and where the
    /// total utility is non-finite the summary's zero-valued columns count
    /// as the per-query fold's do.
    #[test]
    fn non_finite_utilities_match_the_per_query_oracle(
        pool in prop::collection::vec(raw_vector(), 1..7),
        queries in prop::collection::vec((0usize..7, 0usize..7, 0usize..7), 1..30),
        k in 1usize..35,
        same in any::<bool>(),
    ) {
        let pool: Vec<FeatureVec> = pool.iter().map(vector).collect();
        let pick = |i: usize| pool[i % pool.len()].clone();
        let features: Vec<FeatureVec> =
            queries.iter().map(|&(c, o, _)| pick(if same { o } else { c })).collect();
        let original: Vec<FeatureVec> = queries.iter().map(|&(_, o, _)| pick(o)).collect();
        let utilities: Vec<f64> = queries.iter().map(|&(_, _, u)| NON_FINITE_UTILITIES[u]).collect();
        for update in UPDATES {
            let new = select_summary(features.clone(), &original, utilities.clone(), k, update);
            let old = oracle::select_summary(features.clone(), &original, utilities.clone(), k, update);
            assert_same_selection(&new, &old, &format!("non-finite {update:?} k={k}"));
        }
    }
}

/// Two groups whose vectors are column permutations of each other, with
/// equal utility mass: `Y` holds classes of utility 1 and 2, `X` of 0.5
/// (two members) and 2. The utility-2 heads tie exactly — every sum is a
/// small dyadic — and `X`'s wider utility range gives it the larger bound,
/// so it is visited first although `Y` comes first in index order and
/// holds the earlier tied head. Only the index tie-break picks that one.
#[test]
fn cross_group_exact_ties_break_on_index() {
    let a = vector(&vec![(0, 4), (2, 2)]);
    let b = vector(&vec![(1, 4), (3, 2)]);
    for (y, x) in [(&a, &b), (&b, &a)] {
        let features = vec![y.clone(), y.clone(), x.clone(), x.clone(), x.clone()];
        let utilities = vec![1.0, 2.0, 0.5, 2.0, 0.5];
        for update in UPDATES {
            let new = select_summary(features.clone(), &features, utilities.clone(), 5, update);
            let old =
                oracle::select_summary(features.clone(), &features, utilities.clone(), 5, update);
            assert_same_selection(&new, &old, &format!("ties {update:?}"));
            assert_eq!(new.order[0], 1, "{update:?}: the first of the tied heads");
        }
    }
}

/// A NaN benefit from finite inputs: three members of a group with
/// weights near `f64::MAX` overflow both weighted-Jaccard sums. That
/// group's bound is `+∞`; query 0's bound is below query 2's benefit, so
/// the bounds alone would skip it — but then the NaN at index 1 would come
/// first in index order and win, where the per-query scan lets query 0
/// come first and query 2 win.
#[test]
fn nan_benefit_from_finite_inputs_keeps_index_order() {
    let huge = FeatureVec::from_entries(vec![(gid(0), 1e308), (gid(1), 1e308)]);
    let features =
        vec![vector(&vec![(6, 4)]), huge.clone(), vector(&vec![(5, 4)]), huge.clone(), huge];
    let utilities = vec![0.1, 1.0, 5.0, 1.0, 1.0];
    for update in UPDATES {
        let new = select_summary(features.clone(), &features, utilities.clone(), 2, update);
        let old = oracle::select_summary(features.clone(), &features, utilities.clone(), 2, update);
        assert_same_selection(&new, &old, &format!("NaN benefit {update:?}"));
        assert_eq!(new.order[0], 2, "{update:?}");
    }
}

/// Runs `f` on its own thread and fails if it is not done within ten
/// seconds — a hang must fail the test, not the CI job's time limit.
fn within_timeout<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(10)).expect("selection terminates")
}

/// One query with a positive feature, two without any (the feature
/// vectors of `SELECT count(*) FROM t`): fewer than `k` queries can ever
/// be candidates on their benefit.
fn mostly_featureless() -> (Vec<FeatureVec>, Vec<f64>) {
    let features =
        vec![vector(&vec![(0, 4), (1, 0)]), FeatureVec::default(), vector(&vec![(2, 0)])];
    (features, vec![0.5, 0.2, 0.3])
}

#[test]
fn summary_selection_terminates_when_candidates_run_out() {
    for update in UPDATES {
        let (f, u) = mostly_featureless();
        let sel = within_timeout(move || select_summary(f.clone(), &f, u, 3, update));
        assert_eq!(sel.order, vec![0, 2, 1], "{update:?}: then by utility, k ≥ n selects all");
        assert_eq!(bits(&sel.benefits[1..]), bits(&[0.3, 0.2]), "{update:?}: benefit = utility");
    }
}

#[test]
fn all_pairs_selection_terminates_when_candidates_run_out() {
    for update in UPDATES {
        let (f, u) = mostly_featureless();
        let sel = within_timeout(move || select_all_pairs(f.clone(), &f, u, 2, update));
        assert_eq!(sel.order, vec![0, 2], "{update:?}");
    }
}

#[test]
fn featureless_workloads_select_by_utility_with_first_index_ties() {
    let f = vec![FeatureVec::default(); 4];
    let u = vec![0.25, 0.25, 0.3, 0.2];
    let sel =
        within_timeout(move || select_summary(f.clone(), &f, u, 9, UpdateStrategy::ZeroFeatures));
    assert_eq!(sel.order, vec![2, 0, 1, 3]);
}
