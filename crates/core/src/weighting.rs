//! Weighing queries in the compressed workload (Sec 7, Algorithms 4–5,
//! ablated in Fig 14).
//!
//! The selected queries represent the input workload to varying degrees;
//! their weights tell the tuner how much each matters. The paper's full
//! method re-calibrates benefits *after* selection (benefits recorded
//! during greedy selection over-weight early picks) and redistributes
//! utility across query templates (indexes for one instance serve all
//! instances of its template).

use std::collections::HashMap;

use isum_common::hash::Words;
use isum_common::TemplateId;

use crate::allpairs::Selection;
use crate::features::{FeatureVec, SparseVec};
use crate::groups::Grouping;
use crate::similarity::weighted_jaccard;
use crate::update::{GreedyState, UpdateStrategy};

/// Weighting strategy for the compressed workload (Fig 14's four variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightingStrategy {
    /// Uniform weights ("No Weighing").
    Uniform,
    /// Normalized conditional benefits recorded during selection
    /// ("Benefit (Selection)").
    SelectionBenefit,
    /// Re-calibrated benefits via Algorithm 5 ("Recalib. Benefit").
    Recalibrated,
    /// Algorithm 4 template-based utility redistribution + Algorithm 5
    /// ("Recalib. w/ Template Weighing") — the paper's recommendation.
    #[default]
    RecalibratedTemplate,
}

/// Computes the weight of every selected query (aligned with
/// `selection.order`). Weights are normalized to sum to 1.
///
/// `templates` gives the template id of every workload query (aligned with
/// `original_features`/`original_utilities`); taking the slice rather than
/// a `Workload` lets the streaming compressor — which never materializes a
/// closed workload — run the exact same Alg 4 + Alg 5 weighting as the
/// batch path, keeping the two bit-identical.
pub fn weigh_selected(
    strategy: WeightingStrategy,
    templates: &[TemplateId],
    selection: &Selection,
    original_features: &[FeatureVec],
    original_utilities: &[f64],
) -> Vec<f64> {
    let groups = Grouping::from_queries(original_features);
    weigh_grouped(strategy, templates, selection, &groups, original_utilities)
}

/// [`weigh_selected`] over an already grouped workload (the groups'
/// *original* vectors are the workload's features).
pub(crate) fn weigh_grouped(
    strategy: WeightingStrategy,
    templates: &[TemplateId],
    selection: &Selection,
    groups: &Grouping,
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
            recalibrate(selection, &utilities, groups, original_utilities, excluded)
        }
        WeightingStrategy::RecalibratedTemplate => {
            // Algorithm 4: template-based utility computation.
            // Template ids are the registry's, never client bytes: the
            // word hasher, not SipHash, for the three probes per statement.
            let mut freq: HashMap<TemplateId, usize, Words> = HashMap::default();
            for &i in &selection.order {
                *freq.entry(templates[i]).or_insert(0) += 1;
            }
            let mut template_utility: HashMap<TemplateId, f64, Words> = HashMap::default();
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
            // W' = W minus queries whose template matches a selected one.
            let excluded: Vec<bool> = templates.iter().map(|t| freq.contains_key(t)).collect();
            recalibrate(selection, &utilities, groups, original_utilities, excluded)
        }
    }
}

/// Algorithm 5: greedy re-weighing of the selected queries against a
/// summary of the *unselected* workload, updating the remainder after each
/// pick. `excluded` marks queries kept out of the unselected pool `W_u` on
/// top of the selected ones.
fn recalibrate(
    selection: &Selection,
    selected_utilities: &[f64],
    groups: &Grouping,
    original_utilities: &[f64],
    excluded: Vec<bool>,
) -> Vec<f64> {
    // The pool W_u is what stays in play.
    let mut out_of_pool = excluded;
    for &i in &selection.order {
        out_of_pool[i] = true;
    }
    let mut pool = GreedyState::pristine(groups, original_utilities.to_vec(), out_of_pool);
    let picked: Vec<SparseVec<u32>> =
        selection.order.iter().map(|&i| pool.densify(groups.original_of(i))).collect();

    // Iteratively assign each selected query its re-calibrated benefit.
    let mut remaining: Vec<usize> = (0..selection.order.len()).collect();
    let mut weights = vec![0.0; selection.order.len()];
    while !remaining.is_empty() {
        pool.summarize();
        // `total_cmp` orders every f64 (no-panic contract, DESIGN.md §9);
        // benefits are finite in practice, where it agrees with `<`.
        let Some((pos, benefit)) = remaining
            .iter()
            .map(|&pos| {
                (pos, selected_utilities[pos] + weighted_jaccard(&picked[pos], pool.summary()))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break;
        };
        weights[pos] = benefit;
        remaining.retain(|&p| p != pos);
        // Update the pool with the chosen query's influence.
        pool.apply_update(UpdateStrategy::ZeroFeatures, &picked[pos]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{Featurizer, WorkloadFeatures};
    use crate::utility::{utilities, UtilityMode};
    use isum_catalog::CatalogBuilder;
    use isum_workload::Workload;

    fn workload() -> Workload {
        let catalog = CatalogBuilder::new()
            .table("t", 100_000)
            .col_key("a")
            .col_int("b", 1000, 0, 1000)
            .col_int("c", 100, 0, 100)
            .finish()
            .unwrap()
            .build();
        let mut w = Workload::from_sql(
            catalog,
            &[
                "SELECT a FROM t WHERE b = 1",
                "SELECT a FROM t WHERE b = 2",  // same template as #0
                "SELECT a FROM t WHERE b = 3",  // same template
                "SELECT a FROM t WHERE c > 50", // different template
            ],
        )
        .unwrap();
        w.set_costs(&[100.0, 90.0, 80.0, 50.0]);
        w
    }

    fn setup(w: &Workload) -> (Vec<TemplateId>, Vec<FeatureVec>, Vec<f64>, Selection) {
        let wf = WorkloadFeatures::build(w, &Featurizer::default());
        let u = utilities(w, UtilityMode::CostOnly);
        let selection = Selection { order: vec![0, 3], benefits: vec![0.9, 0.2] };
        let templates = w.queries.iter().map(|q| q.template).collect();
        (templates, wf.original, u, selection)
    }

    #[test]
    fn uniform_weights_are_equal() {
        let w = workload();
        let (t, f, u, sel) = setup(&w);
        let ws = weigh_selected(WeightingStrategy::Uniform, &t, &sel, &f, &u);
        assert_eq!(ws, vec![0.5, 0.5]);
    }

    #[test]
    fn selection_benefit_normalizes_recorded_benefits() {
        let w = workload();
        let (t, f, u, sel) = setup(&w);
        let ws = weigh_selected(WeightingStrategy::SelectionBenefit, &t, &sel, &f, &u);
        assert!((ws[0] - 0.9 / 1.1).abs() < 1e-9);
        assert!((ws[1] - 0.2 / 1.1).abs() < 1e-9);
    }

    #[test]
    fn all_strategies_normalize_to_one() {
        let w = workload();
        let (t, f, u, sel) = setup(&w);
        for s in [
            WeightingStrategy::Uniform,
            WeightingStrategy::SelectionBenefit,
            WeightingStrategy::Recalibrated,
            WeightingStrategy::RecalibratedTemplate,
        ] {
            let ws = weigh_selected(s, &t, &sel, &f, &u);
            assert_eq!(ws.len(), 2);
            assert!((ws.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{s:?}");
            assert!(ws.iter().all(|&x| x >= 0.0), "{s:?}");
        }
    }

    #[test]
    fn template_weighing_boosts_repeated_templates() {
        // Query 0's template has 3 instances carrying most of the cost;
        // query 3's template is unique and cheap. Template-based utility
        // must weigh query 0 well above query 3.
        let w = workload();
        let (t, f, u, sel) = setup(&w);
        let ws = weigh_selected(WeightingStrategy::RecalibratedTemplate, &t, &sel, &f, &u);
        assert!(ws[0] > ws[1] * 1.5, "template with 270 cost mass vs 50: {ws:?}");
    }

    #[test]
    fn empty_selection_empty_weights() {
        let w = workload();
        let (t, f, u, _) = setup(&w);
        let sel = Selection::default();
        let ws = weigh_selected(WeightingStrategy::RecalibratedTemplate, &t, &sel, &f, &u);
        assert!(ws.is_empty());
    }

    #[test]
    fn zero_benefits_fall_back_to_uniform() {
        let w = workload();
        let (t, f, _, _) = setup(&w);
        let sel = Selection { order: vec![0, 1], benefits: vec![0.0, 0.0] };
        let ws = weigh_selected(WeightingStrategy::SelectionBenefit, &t, &sel, &f, &[0.0; 4]);
        assert_eq!(ws, vec![0.5, 0.5]);
    }
}
