//! Summary-quality introspection: per-member attribution and coverage.
//!
//! A compressed workload is only useful if it *represents* the input, but
//! the pipeline never reported how well. This module re-derives, from the
//! same feature vectors and utilities the selection ran on, (a) which
//! input templates each summary member stands in for — mirroring the
//! Algorithm 4 template-frequency and template-utility maps of
//! [`crate::weighting`] — and (b) a coverage gauge: the weighted Jaccard
//! between the summary features (Alg 3's `V = Σ U(q)·q`) of the selected
//! subset and of the whole workload, which is GSUM's coverage objective
//! evaluated on ISUM's linear summary form.
//!
//! Everything here is **observation-only**: inputs are taken by shared
//! reference, nothing feeds back into selection or weighting, and calling
//! [`explain_selection`] cannot perturb a compression result.

use std::collections::HashMap;

use isum_common::hash::Words;
use isum_common::{QueryId, TemplateId};
use isum_workload::Workload;

use crate::features::{FeatureVec, Featurizer, SparseVec};
use crate::groups::Grouping;
use crate::similarity::weighted_jaccard;
use crate::summary::Accumulator;
use crate::utility::{utilities, UtilityMode};

/// Attribution for one member of a compressed workload: the template it
/// belongs to and how much of the workload that template accounts for.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberAttribution {
    /// The selected query.
    pub query: QueryId,
    /// Its normalized weight in the compressed workload.
    pub weight: f64,
    /// Template of the selected query.
    pub template: TemplateId,
    /// Input queries sharing that template (instances it stands in for).
    pub instances: usize,
    /// Selected queries sharing that template (Alg 4's `freq`).
    pub selected_instances: usize,
    /// Share of total normalized utility held by the template's instances.
    pub utility_share: f64,
}

/// Quality gauges plus per-member attribution for one selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryExplanation {
    /// Summary size (number of members).
    pub k: usize,
    /// Input workload size the summary was selected from.
    pub observed: usize,
    /// Distinct templates in the input workload.
    pub templates: usize,
    /// Weighted Jaccard between the summary features of the selected
    /// subset and of the full workload, in `[0, 1]`.
    pub coverage: f64,
    /// Input queries whose template has at least one selected instance.
    pub represented: usize,
    /// One entry per summary member, aligned with the selection order.
    pub members: Vec<MemberAttribution>,
}

impl SummaryExplanation {
    /// Fraction of input queries represented by a selected template.
    pub fn represented_fraction(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.represented as f64 / self.observed as f64
        }
    }
}

/// Coverage of a selected subset: weighted Jaccard between the summary
/// features of the selection and of the entire workload. `1.0` means the
/// selection's aggregate feature mass matches the workload's exactly
/// (e.g. `k = n`); `0.0` means no overlap (or an all-zero utility input).
pub fn selection_coverage(selected: &[QueryId], features: &[FeatureVec], utilities: &[f64]) -> f64 {
    coverage(selected, &Grouping::from_queries(features), utilities)
}

fn coverage(selected: &[QueryId], groups: &Grouping, utilities: &[f64]) -> f64 {
    let vectors = || (0..groups.groups()).map(|g| groups.original(g));
    let mut acc = Accumulator::over(vectors().map(FeatureVec::entries));
    let dense: Vec<SparseVec<u32>> = vectors().map(|v| acc.densify(v)).collect();
    // Def 11 over the given queries, folded in the given order; zero
    // entries do not move a weighted Jaccard, so only positive ones are kept.
    let mut summary = |queries: &mut dyn Iterator<Item = usize>| {
        acc.clear();
        for i in queries.filter(|&i| utilities[i] > 0.0) {
            acc.add(&dense[groups.group_of()[i] as usize], utilities[i]);
        }
        let mut v = SparseVec::default();
        acc.positive(&mut v);
        v
    };
    weighted_jaccard(
        &summary(&mut selected.iter().map(|q| q.index())),
        &summary(&mut (0..utilities.len())),
    )
}

/// [`selection_coverage`] computed from scratch under the default
/// rule-based featurization and the paper's default utility, regardless
/// of which compressor produced `selected`. The experiments harness uses
/// this to report one coverage gauge that is comparable across methods
/// (ISUM, GSUM, random, ...) in the same figure.
pub fn workload_coverage(workload: &Workload, selected: &[QueryId]) -> f64 {
    let u = utilities(workload, UtilityMode::CostTimesSelectivity);
    coverage(selected, &Featurizer::default().group(workload), &u)
}

/// Derives attribution and coverage for a finished selection.
///
/// `entries` are the compressed workload's `(query, weight)` pairs;
/// `template_of`, `features`, and `utilities` describe every input query
/// (aligned by index) exactly as the weighting stage saw them. The
/// template maps mirror Algorithm 4: `selected_instances` is its `freq`,
/// and `utility_share` sums the normalized utilities of *all* instances
/// of a selected template, not just the selected ones.
pub fn explain_selection(
    entries: &[(QueryId, f64)],
    template_of: &[TemplateId],
    features: &[FeatureVec],
    utilities: &[f64],
) -> SummaryExplanation {
    explain_grouped(entries, template_of, &Grouping::from_queries(features), utilities)
}

/// [`explain_selection`] over an already grouped workload.
pub(crate) fn explain_grouped(
    entries: &[(QueryId, f64)],
    template_of: &[TemplateId],
    groups: &Grouping,
    utilities: &[f64],
) -> SummaryExplanation {
    // Template ids are the registry's, never client bytes.
    let mut freq: HashMap<TemplateId, usize, Words> = HashMap::default();
    for (q, _) in entries {
        *freq.entry(template_of[q.index()]).or_insert(0) += 1;
    }
    let mut instances: HashMap<TemplateId, usize, Words> = HashMap::default();
    let mut utility_share: HashMap<TemplateId, f64, Words> = HashMap::default();
    let mut distinct: HashMap<TemplateId, (), Words> = HashMap::default();
    let mut represented = 0usize;
    for (i, &t) in template_of.iter().enumerate() {
        distinct.entry(t).or_insert(());
        if freq.contains_key(&t) {
            represented += 1;
            *instances.entry(t).or_insert(0) += 1;
            *utility_share.entry(t).or_insert(0.0) += utilities[i];
        }
    }
    let selected: Vec<QueryId> = entries.iter().map(|(q, _)| *q).collect();
    let members = entries
        .iter()
        .map(|&(query, weight)| {
            let template = template_of[query.index()];
            MemberAttribution {
                query,
                weight,
                template,
                instances: instances[&template],
                selected_instances: freq[&template],
                utility_share: utility_share[&template],
            }
        })
        .collect();
    SummaryExplanation {
        k: entries.len(),
        observed: template_of.len(),
        templates: distinct.len(),
        coverage: coverage(&selected, groups, utilities),
        represented,
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_common::{ColumnId, GlobalColumnId, TableId};

    fn gid(c: u32) -> GlobalColumnId {
        GlobalColumnId::new(TableId(0), ColumnId(c))
    }

    fn fv(entries: &[(u32, f64)]) -> FeatureVec {
        FeatureVec::from_entries(entries.iter().map(|&(c, w)| (gid(c), w)).collect())
    }

    #[test]
    fn attribution_mirrors_template_maps() {
        // Queries 0,1,3 share template 0; query 2 is template 1 (unselected
        // template 2 on query 4).
        let template_of: Vec<TemplateId> =
            [0, 0, 1, 0, 2].iter().map(|&t| TemplateId::from_index(t)).collect();
        let features = vec![
            fv(&[(0, 1.0)]),
            fv(&[(0, 0.9)]),
            fv(&[(1, 1.0)]),
            fv(&[(0, 0.8)]),
            fv(&[(2, 0.5)]),
        ];
        let utilities = vec![0.3, 0.25, 0.2, 0.15, 0.1];
        let entries = vec![(QueryId::from_index(0), 0.7), (QueryId::from_index(2), 0.3)];
        let e = explain_selection(&entries, &template_of, &features, &utilities);
        assert_eq!(e.k, 2);
        assert_eq!(e.observed, 5);
        assert_eq!(e.templates, 3);
        assert_eq!(e.represented, 4, "templates 0 and 1 cover queries 0,1,2,3");
        assert!((e.represented_fraction() - 0.8).abs() < 1e-12);
        let m0 = &e.members[0];
        assert_eq!(m0.instances, 3);
        assert_eq!(m0.selected_instances, 1);
        assert!((m0.utility_share - 0.7).abs() < 1e-12, "0.3 + 0.25 + 0.15");
        let m1 = &e.members[1];
        assert_eq!(m1.instances, 1);
        assert!((m1.utility_share - 0.2).abs() < 1e-12);
        assert!(e.coverage > 0.0 && e.coverage < 1.0);
    }

    #[test]
    fn full_selection_has_full_coverage() {
        let template_of: Vec<TemplateId> = (0..3).map(TemplateId::from_index).collect();
        let features = vec![fv(&[(0, 1.0)]), fv(&[(1, 0.5)]), fv(&[(2, 0.25)])];
        let utilities = vec![0.5, 0.3, 0.2];
        let entries: Vec<(QueryId, f64)> =
            (0..3).map(|i| (QueryId::from_index(i), 1.0 / 3.0)).collect();
        let e = explain_selection(&entries, &template_of, &features, &utilities);
        assert!((e.coverage - 1.0).abs() < 1e-12);
        assert_eq!(e.represented, 3);
        assert_eq!(e.templates, 3);
    }

    #[test]
    fn zero_utility_input_yields_zero_coverage_not_nan() {
        let template_of = vec![TemplateId::from_index(0), TemplateId::from_index(1)];
        let features = vec![fv(&[(0, 1.0)]), fv(&[(1, 1.0)])];
        let utilities = vec![0.0, 0.0];
        let entries = vec![(QueryId::from_index(0), 1.0)];
        let e = explain_selection(&entries, &template_of, &features, &utilities);
        assert_eq!(e.coverage, 0.0);
        assert!((e.members[0].utility_share - 0.0).abs() < 1e-12);
    }
}
