//! The grouped selection/weighing kernel against a per-query oracle.
//!
//! `oracle` below is the straightforward implementation the kernel
//! replaced, kept verbatim as the model: every round it clones the
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
use isum_core::summary::{select_summary, summary_features};
use isum_core::weighting::weigh_selected;
use isum_core::{FeatureVec, UpdateStrategy, WeightingStrategy};
use proptest::prelude::*;

mod oracle {
    use std::collections::HashMap;

    use isum_common::TemplateId;
    use isum_core::allpairs::Selection;
    use isum_core::similarity::weighted_jaccard;
    use isum_core::{FeatureVec, UpdateStrategy, WeightingStrategy};

    pub fn summary_features(features: &[FeatureVec], utilities: &[f64]) -> FeatureVec {
        let mut v = FeatureVec::default();
        for (f, &u) in features.iter().zip(utilities) {
            if u > 0.0 {
                v.add_scaled(f, u);
            }
        }
        v
    }

    fn influence_via_summary(
        i: usize,
        features: &[FeatureVec],
        utilities: &[f64],
        summary: &FeatureVec,
        total_utility: f64,
    ) -> f64 {
        let reduced = total_utility - utilities[i];
        if reduced <= f64::EPSILON {
            return 0.0;
        }
        let scale = total_utility / reduced;
        let u_i = utilities[i];
        let fe = features[i].entries();
        let se = summary.entries();
        let mut min_sum = 0.0;
        let mut max_sum = 0.0;
        let mut a = 0;
        let mut b = 0;
        while a < fe.len() || b < se.len() {
            let take_f = b >= se.len() || (a < fe.len() && fe[a].0 <= se[b].0);
            let take_s = a >= fe.len() || (b < se.len() && se[b].0 <= fe[a].0);
            let (f_val, v_val) = match (take_f, take_s) {
                (true, true) => {
                    let pair = (fe[a].1, ((se[b].1 - u_i * fe[a].1).max(0.0)) * scale);
                    a += 1;
                    b += 1;
                    pair
                }
                (true, false) => {
                    let pair = (fe[a].1, 0.0);
                    a += 1;
                    pair
                }
                (false, true) => {
                    let pair = (0.0, (se[b].1.max(0.0)) * scale);
                    b += 1;
                    pair
                }
                (false, false) => unreachable!("one side must advance"),
            };
            min_sum += f_val.min(v_val);
            max_sum += f_val.max(v_val);
        }
        if max_sum <= 0.0 {
            0.0
        } else {
            min_sum / max_sum
        }
    }

    fn apply_update(
        strategy: UpdateStrategy,
        selected_features: &FeatureVec,
        features: &mut [FeatureVec],
        utilities: &mut [f64],
        selected: &[bool],
    ) {
        if strategy == UpdateStrategy::NoUpdate {
            return;
        }
        for j in 0..features.len() {
            if selected[j] {
                continue;
            }
            let s = weighted_jaccard(selected_features, &features[j]);
            utilities[j] -= utilities[j] * s;
            match strategy {
                UpdateStrategy::SubtractWeights => features[j].subtract_scalar(s),
                UpdateStrategy::ZeroFeatures => features[j].zero_where_present(selected_features),
                UpdateStrategy::UtilityOnly | UpdateStrategy::NoUpdate => {}
            }
        }
    }

    fn reset_if_exhausted(
        features: &mut [FeatureVec],
        original: &[FeatureVec],
        selected: &[bool],
    ) -> bool {
        let exhausted =
            features.iter().zip(selected).filter(|(_, &sel)| !sel).all(|(f, _)| f.all_zero());
        let any_unselected = selected.iter().any(|&s| !s);
        if exhausted && any_unselected {
            for j in 0..features.len() {
                if !selected[j] {
                    features[j] = original[j].clone();
                }
            }
            true
        } else {
            false
        }
    }

    /// What the scan of one round found, or how the loop goes on without
    /// a find.
    enum Round {
        Pick(usize, f64),
        Retry,
        Done,
    }

    /// The tail of a round whose scan found no candidate. The old loops
    /// read `if reset_if_exhausted(..) { continue } break`, which spins
    /// when the reset restores nothing positive; that one state picks the
    /// unselected query of highest utility instead.
    fn no_candidate(
        features: &mut [FeatureVec],
        original: &[FeatureVec],
        utilities: &[f64],
        selected: &[bool],
    ) -> Round {
        if !reset_if_exhausted(features, original, selected) {
            return Round::Done;
        }
        if features.iter().zip(selected).any(|(f, &sel)| !sel && !f.all_zero()) {
            return Round::Retry;
        }
        let mut best: Option<(usize, f64)> = None;
        for i in (0..selected.len()).filter(|&i| !selected[i]) {
            if best.is_none_or(|(_, bb)| utilities[i] > bb) {
                best = Some((i, utilities[i]));
            }
        }
        best.map_or(Round::Done, |(i, b)| Round::Pick(i, b))
    }

    fn first_strict_max(benefits: Vec<Option<f64>>) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, b) in benefits.into_iter().enumerate() {
            let Some(b) = b else { continue };
            if best.is_none_or(|(_, bb)| b > bb) {
                best = Some((i, b));
            }
        }
        best
    }

    fn greedy(
        mut features: Vec<FeatureVec>,
        original: &[FeatureVec],
        mut utilities: Vec<f64>,
        k: usize,
        strategy: UpdateStrategy,
        scan: impl Fn(&[FeatureVec], &[f64], &[bool]) -> Option<(usize, f64)>,
    ) -> Selection {
        let n = features.len();
        let k = k.min(n);
        let mut selected = vec![false; n];
        let mut out = Selection::default();
        while out.order.len() < k {
            let (pick, benefit) = match scan(&features, &utilities, &selected) {
                Some(found) => found,
                None => match no_candidate(&mut features, original, &utilities, &selected) {
                    Round::Pick(i, b) => (i, b),
                    Round::Retry => continue,
                    Round::Done => break,
                },
            };
            selected[pick] = true;
            out.order.push(pick);
            out.benefits.push(benefit);
            let chosen = features[pick].clone();
            apply_update(strategy, &chosen, &mut features, &mut utilities, &selected);
            reset_if_exhausted(&mut features, original, &selected);
        }
        out
    }

    pub fn select_summary(
        features: Vec<FeatureVec>,
        original: &[FeatureVec],
        utilities: Vec<f64>,
        k: usize,
        strategy: UpdateStrategy,
    ) -> Selection {
        greedy(features, original, utilities, k, strategy, |features, utilities, selected| {
            // Regenerate the summary over unselected queries.
            let (fs, us): (Vec<FeatureVec>, Vec<f64>) = features
                .iter()
                .zip(utilities)
                .zip(selected)
                .filter(|(_, &sel)| !sel)
                .map(|((f, &u), _)| (f.clone(), u))
                .unzip();
            let summary = summary_features(&fs, &us);
            let total_utility: f64 = us.iter().sum();
            let mut pos = 0;
            let benefits = (0..features.len())
                .map(|i| {
                    if selected[i] {
                        return None;
                    }
                    pos += 1;
                    (!features[i].all_zero()).then(|| {
                        utilities[i]
                            + influence_via_summary(pos - 1, &fs, &us, &summary, total_utility)
                    })
                })
                .collect();
            first_strict_max(benefits)
        })
    }

    pub fn select_all_pairs(
        features: Vec<FeatureVec>,
        original: &[FeatureVec],
        utilities: Vec<f64>,
        k: usize,
        strategy: UpdateStrategy,
    ) -> Selection {
        greedy(features, original, utilities, k, strategy, |features, utilities, selected| {
            let benefits = (0..features.len())
                .map(|i| {
                    (!selected[i] && !features[i].all_zero()).then(|| {
                        let mut b = utilities[i];
                        for j in 0..features.len() {
                            if j != i && !selected[j] {
                                b += weighted_jaccard(&features[i], &features[j]) * utilities[j];
                            }
                        }
                        b
                    })
                })
                .collect();
            first_strict_max(benefits)
        })
    }

    pub fn weigh_selected(
        strategy: WeightingStrategy,
        templates: &[TemplateId],
        selection: &Selection,
        original_features: &[FeatureVec],
        original_utilities: &[f64],
    ) -> Vec<f64> {
        let k = selection.order.len();
        if k == 0 {
            return Vec::new();
        }
        match strategy {
            WeightingStrategy::Uniform => vec![1.0 / k as f64; k],
            WeightingStrategy::SelectionBenefit => normalize(selection.benefits.clone()),
            WeightingStrategy::Recalibrated => {
                let utilities: Vec<f64> =
                    selection.order.iter().map(|&i| original_utilities[i]).collect();
                let excluded = vec![false; templates.len()];
                recalibrate(
                    selection,
                    &utilities,
                    original_features,
                    original_utilities,
                    &excluded,
                    false,
                )
            }
            WeightingStrategy::RecalibratedTemplate => {
                let mut freq: HashMap<TemplateId, usize> = HashMap::new();
                for &i in &selection.order {
                    *freq.entry(templates[i]).or_insert(0) += 1;
                }
                let mut template_utility: HashMap<TemplateId, f64> = HashMap::new();
                for (i, &t) in templates.iter().enumerate() {
                    if freq.contains_key(&t) {
                        *template_utility.entry(t).or_insert(0.0) += original_utilities[i];
                    }
                }
                let utilities: Vec<f64> = selection
                    .order
                    .iter()
                    .map(|&i| {
                        let t = templates[i];
                        template_utility[&t] / freq[&t] as f64
                    })
                    .collect();
                let excluded: Vec<bool> = templates.iter().map(|t| freq.contains_key(t)).collect();
                recalibrate(
                    selection,
                    &utilities,
                    original_features,
                    original_utilities,
                    &excluded,
                    true,
                )
            }
        }
    }

    fn recalibrate(
        selection: &Selection,
        selected_utilities: &[f64],
        original_features: &[FeatureVec],
        original_utilities: &[f64],
        excluded: &[bool],
        template_mode: bool,
    ) -> Vec<f64> {
        let n = original_features.len();
        let in_selection = {
            let mut v = vec![false; n];
            for &i in &selection.order {
                v[i] = true;
            }
            v
        };
        let mut pool_features: Vec<FeatureVec> = Vec::new();
        let mut pool_utilities: Vec<f64> = Vec::new();
        for i in 0..n {
            let drop = in_selection[i] || (template_mode && excluded[i]);
            if !drop {
                pool_features.push(original_features[i].clone());
                pool_utilities.push(original_utilities[i]);
            }
        }
        let pool_selected = vec![false; pool_features.len()];

        let mut remaining: Vec<usize> = (0..selection.order.len()).collect();
        let mut weights = vec![0.0; selection.order.len()];
        while !remaining.is_empty() {
            let summary = summary_features(&pool_features, &pool_utilities);
            let Some((pos, benefit)) = remaining
                .iter()
                .map(|&pos| {
                    let qi = selection.order[pos];
                    let b = selected_utilities[pos]
                        + weighted_jaccard(&original_features[qi], &summary);
                    (pos, b)
                })
                .max_by(|a, b| a.1.total_cmp(&b.1))
            else {
                break;
            };
            weights[pos] = benefit;
            remaining.retain(|&p| p != pos);
            let chosen = original_features[selection.order[pos]].clone();
            apply_update(
                UpdateStrategy::ZeroFeatures,
                &chosen,
                &mut pool_features,
                &mut pool_utilities,
                &pool_selected,
            );
        }
        normalize(weights)
    }

    fn normalize(mut ws: Vec<f64>) -> Vec<f64> {
        let total: f64 = ws.iter().sum();
        if total > 0.0 {
            for w in &mut ws {
                *w /= total;
            }
        } else if !ws.is_empty() {
            let u = 1.0 / ws.len() as f64;
            ws.iter_mut().for_each(|w| *w = u);
        }
        ws
    }
}

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
