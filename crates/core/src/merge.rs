//! Mergeable per-shard summary state and the deterministic cross-shard
//! merge (DESIGN.md §13).
//!
//! The summary feature vector of Alg 3 is *linear* in the observed
//! queries — `V = Σ_i Δ(q_i) · q_i` — so a sharded service can keep one
//! [`crate::IncrementalIsum`] per shard and still answer a global
//! `GET /summary`: each shard exports its per-query contributions grouped
//! by template fingerprint (a [`ShardPartial`]), and the router folds the
//! union into one [`MergedWorkload`].
//!
//! # Determinism contract
//!
//! Floating-point addition is not associative, so a naive fold would make
//! the merged summary depend on how queries happened to land on shards
//! and in what order they arrived. The merge therefore never trusts
//! arrival order: all contributions for a template are sorted into a
//! *canonical order* (by `Δ` under `total_cmp`, then lexicographically by
//! feature entries — see [`Contribution::canonical_cmp`]) before the fold.
//! Two deployments observing the same multiset of statements produce
//! bit-identical merged state **regardless of shard count, shard
//! assignment, or ingest interleaving** (pinned by the shard-partition
//! property tests). Shard-local `TemplateId`s/`QueryId`s are meaningless
//! across shards; the merge keys exclusively on template fingerprints and
//! [`GlobalColumnId`]s, which all shards share because they bind against
//! one catalog.
//!
//! Selection over the merged state runs at *template* granularity: each
//! merged template becomes a pseudo-query whose features are the
//! mass-weighted centroid `V_t / mass_t` and whose utility is its share
//! of the total Δ mass. Templates are indexed in fingerprint order and
//! the greedy argmax picks the first strict maximum in index order, so
//! benefit ties break on the template fingerprint — stable across runs by
//! construction.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use isum_common::{GlobalColumnId, Result, TemplateId};

use std::borrow::Cow;

use crate::features::FeatureVec;
use crate::groups::Grouping;
use crate::isum::IsumConfig;
use crate::summary::weighted_sum;
use crate::weighting::weigh_grouped;

/// One observed query's contribution to its template's partial sum:
/// the unnormalized utility mass `Δ(q)` and the sparse feature entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Contribution {
    /// Unnormalized Δ(q) — the query's raw utility mass.
    pub delta: f64,
    /// Sparse feature entries, sorted by [`GlobalColumnId`].
    pub entries: Vec<(GlobalColumnId, f64)>,
}

impl Contribution {
    /// The entries as a feature vector's: ascending, one per column (a
    /// repeated column keeps its maximum, like [`FeatureVec::from_entries`]).
    /// Borrowed when they already are, which is what shards export.
    fn normalized(&self) -> Cow<'_, [(GlobalColumnId, f64)]> {
        if self.entries.windows(2).all(|w| w[0].0 < w[1].0) {
            Cow::Borrowed(&self.entries)
        } else {
            Cow::Owned(FeatureVec::from_entries(self.entries.clone()).entries().to_vec())
        }
    }

    /// The canonical total order the merge folds in: `Δ` first (under
    /// `total_cmp`, which orders every bit pattern), then the feature
    /// entries lexicographically by `(table, column, weight bits)`.
    /// Contributions that compare equal are numerically identical, so
    /// their relative order cannot affect the fold.
    pub fn canonical_cmp(&self, other: &Contribution) -> Ordering {
        self.delta.total_cmp(&other.delta).then_with(|| {
            let a = &self.entries;
            let b = &other.entries;
            for ((ga, wa), (gb, wb)) in a.iter().zip(b.iter()) {
                let ord = ga.cmp(gb).then_with(|| wa.total_cmp(wb));
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            a.len().cmp(&b.len())
        })
    }
}

/// Everything one shard contributes to the cross-shard merge: per-query
/// contributions grouped by template fingerprint. Extracted by
/// [`crate::IncrementalIsum::shard_partial`].
#[derive(Debug, Clone, Default)]
pub struct ShardPartial {
    /// `(fingerprint, contributions in shard arrival order)` — the merge
    /// re-sorts, so the order here carries no meaning.
    pub templates: Vec<(String, Vec<Contribution>)>,
}

impl ShardPartial {
    /// Total queries contributing across all templates.
    pub fn observed(&self) -> usize {
        self.templates.iter().map(|(_, c)| c.len()).sum()
    }
}

/// One template after the merge: its identity, instance count, folded
/// mass, and folded summary-feature contribution `V_t = Σ_q Δ(q) · q`.
#[derive(Debug, Clone)]
pub struct MergedTemplate {
    /// The template fingerprint (shard-independent identity).
    pub fingerprint: String,
    /// Observed instances across all shards.
    pub count: usize,
    /// Folded Δ mass (canonical order, bit-deterministic).
    pub mass: f64,
    /// Folded summary-feature contribution `Σ_q Δ(q) · q` over the
    /// template's instances (canonical order, bit-deterministic).
    pub features: FeatureVec,
}

/// The deterministic cross-shard merge of any number of shard partials.
#[derive(Debug, Clone, Default)]
pub struct MergedWorkload {
    /// Templates in fingerprint order — the index order every downstream
    /// tie-break resolves on.
    pub templates: Vec<MergedTemplate>,
    /// Total queries observed across all shards.
    pub observed: usize,
    /// Total Δ mass, folded over templates in fingerprint order.
    pub total_mass: f64,
}

/// One selected template and its normalized weight.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedPick {
    /// Index into [`MergedWorkload::templates`].
    pub template: usize,
    /// Normalized weight (the picks sum to 1).
    pub weight: f64,
}

/// Folds shard partials into one [`MergedWorkload`]. Order of `partials`
/// and order within each partial are irrelevant: contributions are
/// re-grouped by fingerprint and re-sorted canonically before any
/// floating-point fold, so the result is bit-identical for any shard
/// partitioning of the same observed multiset.
pub fn merge_partials(partials: &[ShardPartial]) -> MergedWorkload {
    let mut grouped: BTreeMap<&str, Vec<&Contribution>> = BTreeMap::new();
    for partial in partials {
        for (fp, contributions) in &partial.templates {
            grouped.entry(fp.as_str()).or_default().extend(contributions.iter());
        }
    }
    let mut templates = Vec::with_capacity(grouped.len());
    let mut observed = 0usize;
    let mut total_mass = 0.0f64;
    for (fp, mut contributions) in grouped {
        contributions.sort_by(|a, b| a.canonical_cmp(b));
        let mass = contributions.iter().fold(0.0f64, |mass, c| mass + c.delta);
        let entries: Vec<_> = contributions.iter().map(|c| c.normalized()).collect();
        let features =
            weighted_sum(entries.iter().zip(&contributions).map(|(e, c)| (&e[..], c.delta)));
        observed += contributions.len();
        total_mass += mass;
        templates.push(MergedTemplate {
            fingerprint: fp.to_string(),
            count: contributions.len(),
            mass,
            features,
        });
    }
    MergedWorkload { templates, observed, total_mass }
}

impl MergedWorkload {
    /// The global summary feature vector `V = Σ_t V_t`, folded over
    /// templates in fingerprint order. Bit-deterministic under shard
    /// repartitioning — the invariant the property tests pin.
    pub fn summary_features(&self) -> FeatureVec {
        weighted_sum(self.templates.iter().map(|t| (t.features.entries(), 1.0)))
    }

    /// Normalized per-template utilities (Δ mass share), aligned with
    /// [`MergedWorkload::templates`].
    pub fn utilities(&self) -> Vec<f64> {
        if self.total_mass <= 0.0 {
            vec![0.0; self.templates.len()]
        } else {
            self.templates.iter().map(|t| t.mass / self.total_mass).collect()
        }
    }

    /// Per-template pseudo-query features: the mass-weighted centroid
    /// `V_t / mass_t` (a zero-mass template keeps its — all-zero —
    /// folded vector).
    fn centroids(&self) -> Vec<FeatureVec> {
        self.templates
            .iter()
            .map(|t| {
                if t.mass > 0.0 {
                    let mut c = FeatureVec::default();
                    c.add_scaled(&t.features, 1.0 / t.mass);
                    c
                } else {
                    t.features.clone()
                }
            })
            .collect()
    }

    /// Selects `k` representative templates with the configured greedy
    /// algorithm and weighting, at template granularity. Templates are
    /// indexed in fingerprint order and the greedy argmax takes the first
    /// strict maximum in index order, so ties break deterministically on
    /// the fingerprint.
    ///
    /// # Errors
    /// `InvalidConfig` when `k == 0` or the merge saw no templates.
    pub fn select(&self, k: usize, config: IsumConfig) -> Result<Vec<MergedPick>> {
        if k == 0 {
            return Err(isum_common::Error::InvalidConfig("k must be positive".into()));
        }
        if self.templates.is_empty() {
            return Err(isum_common::Error::InvalidConfig("no queries observed".into()));
        }
        let features = self.centroids();
        let utilities = self.utilities();
        let groups = Grouping::from_queries(&features);
        let selection = config.select(&groups, utilities.clone(), k);
        // Each pseudo-query is its own template, so Alg 4's template
        // redistribution degenerates to the identity map — correct here,
        // because the per-instance spreading already happened in the fold.
        let identity: Vec<TemplateId> =
            (0..self.templates.len()).map(TemplateId::from_index).collect();
        let weights = weigh_grouped(config.weighting, &identity, &selection, &groups, &utilities);
        let total: f64 = weights.iter().sum();
        let weights: Vec<f64> =
            if total > 0.0 { weights.iter().map(|w| w / total).collect() } else { weights };
        Ok(selection
            .order
            .iter()
            .zip(weights)
            .map(|(&i, weight)| MergedPick { template: i, weight })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_common::{ColumnId, TableId};

    fn gid(c: u32) -> GlobalColumnId {
        GlobalColumnId::new(TableId(0), ColumnId(c))
    }

    fn contribution(delta: f64, entries: &[(u32, f64)]) -> Contribution {
        Contribution { delta, entries: entries.iter().map(|&(c, w)| (gid(c), w)).collect() }
    }

    /// A synthetic pool of contributions over three templates, with
    /// deliberately awkward magnitudes so float association error would
    /// show if the fold order varied.
    fn pool() -> Vec<(String, Contribution)> {
        let mut rng = isum_common::rng::DetRng::seeded(23);
        let mut out = Vec::new();
        for i in 0..60 {
            let fp = format!("template-{}", i % 3);
            let delta = (rng.unit() + 1e-9) * 10f64.powi(i % 7 - 3);
            let entries: Vec<(u32, f64)> =
                (0..(1 + i % 4)).map(|j| ((i % 5 + j) as u32, rng.unit())).collect();
            out.push((fp, contribution(delta, &entries)));
        }
        out
    }

    /// Partitions the pool into `n` shard partials by `assign`.
    fn partition(
        pool: &[(String, Contribution)],
        n: usize,
        assign: impl Fn(usize) -> usize,
    ) -> Vec<ShardPartial> {
        let mut shards: Vec<BTreeMap<String, Vec<Contribution>>> = vec![BTreeMap::new(); n];
        for (i, (fp, c)) in pool.iter().enumerate() {
            shards[assign(i) % n].entry(fp.clone()).or_default().push(c.clone());
        }
        shards.into_iter().map(|m| ShardPartial { templates: m.into_iter().collect() }).collect()
    }

    fn feature_bits(v: &FeatureVec) -> Vec<(GlobalColumnId, u64)> {
        v.entries().iter().map(|&(g, w)| (g, w.to_bits())).collect()
    }

    #[test]
    fn merge_is_shard_partition_invariant() {
        let pool = pool();
        let whole = merge_partials(&partition(&pool, 1, |_| 0));
        for n in [2usize, 3, 5] {
            for salt in 0..3usize {
                let parts = partition(&pool, n, |i| i.wrapping_mul(2654435761).wrapping_add(salt));
                let merged = merge_partials(&parts);
                assert_eq!(merged.observed, whole.observed);
                assert_eq!(merged.total_mass.to_bits(), whole.total_mass.to_bits());
                assert_eq!(
                    feature_bits(&merged.summary_features()),
                    feature_bits(&whole.summary_features()),
                    "n={n} salt={salt}: global V must be bit-identical"
                );
                for (a, b) in merged.templates.iter().zip(&whole.templates) {
                    assert_eq!(a.fingerprint, b.fingerprint);
                    assert_eq!(a.count, b.count);
                    assert_eq!(a.mass.to_bits(), b.mass.to_bits());
                    assert_eq!(feature_bits(&a.features), feature_bits(&b.features));
                }
            }
        }
    }

    #[test]
    fn merge_is_ingest_order_invariant() {
        let pool = pool();
        let forward = merge_partials(&partition(&pool, 2, |i| i));
        let mut reversed = pool.clone();
        reversed.reverse();
        let backward = merge_partials(&partition(&reversed, 2, |i| i + 1));
        assert_eq!(
            feature_bits(&forward.summary_features()),
            feature_bits(&backward.summary_features())
        );
        let fa = forward.select(2, IsumConfig::isum()).unwrap();
        let fb = backward.select(2, IsumConfig::isum()).unwrap();
        assert_eq!(fa.len(), fb.len());
        for (a, b) in fa.iter().zip(&fb) {
            assert_eq!(a.template, b.template);
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
    }

    #[test]
    fn select_breaks_ties_on_fingerprint_order() {
        // Two identical templates (same mass, same features): the greedy
        // benefit is tied, so the pick must be the fingerprint-smaller one.
        let c = contribution(1.0, &[(0, 1.0)]);
        let parts = vec![ShardPartial {
            templates: vec![
                ("zz-template".into(), vec![c.clone()]),
                ("aa-template".into(), vec![c.clone()]),
            ],
        }];
        let merged = merge_partials(&parts);
        assert_eq!(merged.templates[0].fingerprint, "aa-template");
        let picks = merged.select(1, IsumConfig::isum()).unwrap();
        assert_eq!(picks.len(), 1);
        assert_eq!(
            merged.templates[picks[0].template].fingerprint, "aa-template",
            "tie must break on fingerprint order"
        );
    }

    #[test]
    fn select_rejects_empty_and_k_zero() {
        let merged = merge_partials(&[]);
        assert!(merged.select(1, IsumConfig::isum()).is_err());
        let parts = vec![ShardPartial {
            templates: vec![("t".into(), vec![contribution(1.0, &[(0, 1.0)])])],
        }];
        assert!(merge_partials(&parts).select(0, IsumConfig::isum()).is_err());
    }

    #[test]
    fn weights_are_normalized_and_picks_unique() {
        let pool = pool();
        let merged = merge_partials(&partition(&pool, 3, |i| i));
        let picks = merged.select(3, IsumConfig::isum()).unwrap();
        assert_eq!(picks.len(), 3);
        let mut seen: Vec<usize> = picks.iter().map(|p| p.template).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3, "no template picked twice");
        let total: f64 = picks.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to 1, got {total}");
    }

    #[test]
    fn zero_mass_contributions_count_but_add_nothing() {
        let parts = vec![ShardPartial {
            templates: vec![(
                "t".into(),
                vec![contribution(0.0, &[(0, 1.0)]), contribution(2.0, &[(1, 1.0)])],
            )],
        }];
        let merged = merge_partials(&parts);
        assert_eq!(merged.observed, 2);
        assert_eq!(merged.templates[0].count, 2);
        assert_eq!(merged.templates[0].mass, 2.0);
        let v = merged.summary_features();
        assert_eq!(v.get(gid(0)), 0.0, "zero-Δ query contributes no feature mass");
        assert_eq!(v.get(gid(1)), 2.0);
    }
}
