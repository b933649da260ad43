//! The per-query implementation the selection/weighing kernel replaced,
//! kept verbatim as the model: every round it clones the unselected
//! `FeatureVec`s, rebuilds the summary with one `add_scaled` merge per
//! query, walks both sorted vectors symmetrically for the influence, and
//! updates/resets every query on its own. Shared by the integration tests
//! that compare the kernel against it.

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
                    utilities[i] + influence_via_summary(pos - 1, &fs, &us, &summary, total_utility)
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
                let b =
                    selected_utilities[pos] + weighted_jaccard(&original_features[qi], &summary);
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
