//! Incremental workload compression (Sec 10 of the paper flags this as
//! future work: "ISUM requires pre-processing all the queries from the
//! input workload before it can select queries for tuning").
//!
//! [`IncrementalIsum`] removes the batch constraint: queries are *observed*
//! one at a time (featurization, utility bookkeeping, and template
//! interning happen per arrival, in O(features) each), and a compressed
//! workload can be requested at any point from the state accumulated so
//! far. Observing more queries never requires re-processing earlier ones —
//! the expensive part of preprocessing is incremental; only the final
//! greedy selection runs on demand.
//!
//! [`IncrementalIsum::select`] runs the *identical* pipeline as the batch
//! [`crate::Isum`]'s [`compress`](crate::Compressor::compress) — same
//! utilities, same greedy selection, same
//! Alg 4 + Alg 5 weighting — so for the same observed queries the streamed
//! result is bit-identical to the batch result (pinned by the
//! streaming/batch equivalence tests). Featurization is the batch path's
//! too ([`Featurizer::group`], one query at a time): each distinct
//! signature is featurized once.
//!
//! The state is a pure function of the observed statements, so it has no
//! serialized form: the serving daemon (`crates/server`) survives a
//! SIGKILL by replaying its write-ahead log, re-observing every statement
//! (DESIGN.md §14).

use isum_catalog::Catalog;
use isum_common::{Result, TemplateId};
use isum_sql::TemplateRegistry;
use isum_workload::{QueryInfo, Workload};

use crate::features::{FeatureMemo, Featurizer};
use crate::groups::Grouping;
use crate::isum::{weighted, IsumConfig};
use crate::utility::{normalize, UtilityMode};
use crate::weighting::weigh_grouped;
use isum_workload::CompressedWorkload;

/// Streaming ISUM: observe queries as they arrive, select any time.
#[derive(Debug)]
pub struct IncrementalIsum {
    config: IsumConfig,
    /// Featurizes each distinct signature once — the batch compressor's
    /// [`Featurizer::group`] path, one query at a time.
    memo: FeatureMemo,
    /// One stored feature vector per distinct vector observed, plus each
    /// query's group, assigned as the query arrives: selection borrows
    /// this and clones nothing.
    features: Grouping,
    /// Unnormalized Δ(q) per observed query.
    raw_reductions: Vec<f64>,
    templates: TemplateRegistry,
    template_of: Vec<TemplateId>,
}

impl IncrementalIsum {
    /// Streaming compressor with the given configuration.
    pub fn new(config: IsumConfig) -> Self {
        Self {
            config,
            memo: FeatureMemo::new(Featurizer {
                scheme: config.scheme,
                use_table_weight: config.use_table_weight,
            }),
            features: Grouping::default(),
            raw_reductions: Vec::new(),
            templates: TemplateRegistry::new(),
            template_of: Vec::new(),
        }
    }

    /// The configuration this compressor was built with.
    pub fn config(&self) -> IsumConfig {
        self.config
    }

    /// Observes one query (with its cost already set). O(features of q)
    /// plus one parse of `q.sql` for its template fingerprint — callers
    /// that already hold the fingerprint (a [`Workload`] does, for each of
    /// its queries) use [`observe_as`](Self::observe_as) instead.
    ///
    /// # Errors
    /// Propagates a parse error when `q.sql` no longer parses (a corrupted
    /// `QueryInfo`); the observer's state is unchanged in that case.
    pub fn observe(&mut self, q: &QueryInfo, catalog: &Catalog) -> Result<()> {
        let template = self.templates.intern(&isum_sql::parse(&q.sql)?);
        self.record(q, catalog, template);
        Ok(())
    }

    /// Observes one query whose template fingerprint the caller already
    /// has, e.g. `workload.templates.fingerprint_of(q.template)`; `q.sql`
    /// is not read. O(features of q). Returns the query's template and
    /// its unnormalized Δ(q): the serving drift tracker folds exactly
    /// these pairs into its history.
    pub fn observe_as(
        &mut self,
        q: &QueryInfo,
        catalog: &Catalog,
        fingerprint: &str,
    ) -> (TemplateId, f64) {
        let template = self.templates.intern_fingerprint(fingerprint);
        self.record(q, catalog, template)
    }

    fn record(
        &mut self,
        q: &QueryInfo,
        catalog: &Catalog,
        template: TemplateId,
    ) -> (TemplateId, f64) {
        let _s = isum_common::telemetry::span("incremental");
        isum_common::count!("core.incremental.observed");
        self.memo.push(&mut self.features, &q.bound, catalog);
        let delta = match self.config.utility {
            UtilityMode::CostOnly => q.cost,
            UtilityMode::CostTimesSelectivity => {
                (1.0 - q.bound.average_selectivity()).max(0.0) * q.cost
            }
        };
        self.raw_reductions.push(delta);
        self.template_of.push(template);
        (template, delta)
    }

    /// Observes every query of a workload, in order.
    ///
    /// # Errors
    /// Propagates the first [`observe`](Self::observe) failure.
    pub fn observe_workload(&mut self, w: &Workload) -> Result<()> {
        for q in &w.queries {
            self.observe(q, &w.catalog)?;
        }
        Ok(())
    }

    /// Number of queries observed so far.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Distinct feature vectors among the observed queries — what the
    /// cost of [`select`](Self::select) scales with.
    pub fn distinct_vectors(&self) -> usize {
        self.features.groups()
    }

    /// Selects `k` queries from everything observed so far, weighted with
    /// the configured strategy (by default Alg 4 template redistribution +
    /// Alg 5 recalibration — the same pipeline as the batch compressor, so
    /// streamed and batch results are bit-identical for the same input).
    ///
    /// # Errors
    /// `InvalidConfig` when `k == 0` or nothing has been observed.
    pub fn select(&self, k: usize) -> Result<CompressedWorkload> {
        if k == 0 {
            return Err(isum_common::Error::InvalidConfig("k must be positive".into()));
        }
        if self.is_empty() {
            return Err(isum_common::Error::InvalidConfig("no queries observed".into()));
        }
        let _s = isum_common::telemetry::span("incremental");
        // The batch path's normalization (`utility::utilities`).
        let utilities = normalize(&self.raw_reductions);
        let selection = self.config.select(&self.features, utilities.clone(), k);
        let weights = weigh_grouped(
            self.config.weighting,
            &self.template_of,
            &selection,
            &self.features,
            &utilities,
        );
        Ok(weighted(&selection, weights))
    }

    /// Selects `k` queries and derives per-member attribution + coverage
    /// for the result. Observation-only: the underlying selection is
    /// exactly what [`select`](Self::select) returns, and this method
    /// takes `&self` — it cannot perturb future selections.
    ///
    /// # Errors
    /// Same failure modes as [`select`](Self::select).
    pub fn explain(&self, k: usize) -> Result<crate::SummaryExplanation> {
        let cw = self.select(k)?;
        let utilities = normalize(&self.raw_reductions);
        Ok(crate::explain::explain_grouped(
            &cw.entries,
            &self.template_of,
            &self.features,
            &utilities,
        ))
    }

    /// Distinct templates observed so far.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Fingerprint text of an observed template.
    pub fn template_fingerprint(&self, t: TemplateId) -> &str {
        self.templates.fingerprint_of(t)
    }

    /// Exports this observer's contribution to a cross-shard merge: every
    /// observed query's `(Δ, features)` grouped by template fingerprint
    /// (the shard-independent template identity — local [`TemplateId`]s
    /// mean nothing to other shards). See [`crate::merge`] for how the
    /// partials fold deterministically.
    pub fn shard_partial(&self) -> crate::merge::ShardPartial {
        let mut grouped: Vec<(String, Vec<crate::merge::Contribution>)> = (0..self.templates.len())
            .map(|t| {
                (self.templates.fingerprint_of(TemplateId::from_index(t)).to_string(), Vec::new())
            })
            .collect();
        for i in 0..self.len() {
            grouped[self.template_of[i].index()].1.push(crate::merge::Contribution {
                delta: self.raw_reductions[i],
                entries: self.features.original_of(i).entries().to_vec(),
            });
        }
        crate::merge::ShardPartial { templates: grouped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compressor;
    use isum_catalog::CatalogBuilder;

    fn workload() -> Workload {
        let catalog = CatalogBuilder::new()
            .table("t", 500_000)
            .col_key("a")
            .col_int("b", 5_000, 0, 5_000)
            .col_int("c", 100, 0, 100)
            .finish()
            .expect("fresh table")
            .build();
        let mut w = Workload::from_sql(
            catalog,
            &[
                "SELECT a FROM t WHERE b = 1",
                "SELECT a FROM t WHERE b = 2",
                "SELECT a FROM t WHERE c > 50 GROUP BY c",
                "SELECT a FROM t WHERE b = 3",
                "SELECT count(*) FROM t WHERE c = 9 GROUP BY c ORDER BY c",
            ],
        )
        .expect("queries bind");
        w.set_costs(&[500.0, 450.0, 300.0, 400.0, 250.0]);
        w
    }

    #[test]
    fn streaming_matches_batch_bit_identically() {
        let w = workload();
        let mut inc = IncrementalIsum::new(IsumConfig::isum());
        inc.observe_workload(&w).expect("observes");
        let streamed = inc.select(3).expect("valid state");
        let batch = crate::Isum::new().compress(&w, 3).expect("compresses");
        assert_eq!(streamed.ids(), batch.ids(), "same inputs, same greedy choices");
        for ((_, sw), (_, bw)) in streamed.entries.iter().zip(&batch.entries) {
            assert_eq!(sw.to_bits(), bw.to_bits(), "weights must be bit-identical");
        }
    }

    #[test]
    fn can_select_between_observations() {
        let w = workload();
        let mut inc = IncrementalIsum::new(IsumConfig::isum());
        inc.observe(&w.queries[0], &w.catalog).expect("observes");
        inc.observe(&w.queries[1], &w.catalog).expect("observes");
        let early = inc.select(1).expect("valid state");
        assert_eq!(early.len(), 1);
        inc.observe(&w.queries[2], &w.catalog).expect("observes");
        inc.observe(&w.queries[3], &w.catalog).expect("observes");
        inc.observe(&w.queries[4], &w.catalog).expect("observes");
        let late = inc.select(3).expect("valid state");
        assert_eq!(late.len(), 3);
        assert_eq!(inc.len(), 5);
        assert_eq!(inc.template_count(), 3);
    }

    #[test]
    fn rejects_empty_and_k_zero() {
        let inc = IncrementalIsum::new(IsumConfig::isum());
        assert!(inc.select(1).is_err());
        let w = workload();
        let mut inc = IncrementalIsum::new(IsumConfig::isum());
        inc.observe_workload(&w).expect("observes");
        assert!(inc.select(0).is_err());
    }

    #[test]
    fn corrupted_sql_is_an_error_not_a_panic() {
        let w = workload();
        let mut q = w.queries[0].clone();
        q.sql = "SELECT FROM".into();
        let mut inc = IncrementalIsum::new(IsumConfig::isum());
        assert!(inc.observe(&q, &w.catalog).is_err());
        assert!(inc.is_empty(), "failed observe leaves no partial state");
    }

    #[test]
    fn weights_are_normalized() {
        let w = workload();
        let mut inc = IncrementalIsum::new(IsumConfig::isum());
        inc.observe_workload(&w).expect("observes");
        let cw = inc.select(3).expect("valid state");
        let total: f64 = cw.entries.iter().map(|(_, wt)| wt).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn explain_matches_select_and_covers_everything_at_k_n() {
        let w = workload();
        let mut inc = IncrementalIsum::new(IsumConfig::isum());
        inc.observe_workload(&w).expect("observes");
        let cw = inc.select(3).expect("selects");
        let e = inc.explain(3).expect("explains");
        assert_eq!(e.k, 3);
        assert_eq!(e.observed, 5);
        assert_eq!(e.templates, 3);
        let member_ids: Vec<_> = e.members.iter().map(|m| m.query).collect();
        assert_eq!(member_ids, cw.ids(), "explain reports the same selection");
        for (m, (_, w)) in e.members.iter().zip(&cw.entries) {
            assert_eq!(m.weight.to_bits(), w.to_bits());
        }
        assert!(e.coverage > 0.0 && e.coverage <= 1.0);
        // Selecting everything covers everything.
        let full = inc.explain(5).expect("explains");
        assert!((full.coverage - 1.0).abs() < 1e-9);
        assert_eq!(full.represented, 5);
        // explain() took &self and perturbed nothing.
        let again = inc.select(3).expect("selects");
        assert_eq!(again, cw);
    }

    #[test]
    fn observe_as_reports_what_it_recorded() {
        let w = workload();
        let mut inc = IncrementalIsum::new(IsumConfig::isum());
        let observed: Vec<(TemplateId, f64)> = w
            .queries
            .iter()
            .map(|q| inc.observe_as(q, &w.catalog, w.templates.fingerprint_of(q.template)))
            .collect();
        assert_eq!(observed.len(), inc.len());
        for (i, &(t, delta)) in observed.iter().enumerate() {
            assert_eq!(t, inc.template_of[i]);
            assert_eq!(delta.to_bits(), inc.raw_reductions[i].to_bits());
            assert!(delta > 0.0, "a cost-bearing query carries mass");
        }
        assert_eq!(observed[0].0, observed[1].0, "statements 0 and 1 share a template");
        assert_eq!(
            inc.template_fingerprint(observed[2].0),
            w.templates.fingerprint_of(w.queries[2].template)
        );
    }

    #[test]
    fn shard_partials_merge_like_a_single_observer() {
        let w = workload();
        let mut whole = IncrementalIsum::new(IsumConfig::isum());
        whole.observe_workload(&w).expect("observes");
        let mut a = IncrementalIsum::new(IsumConfig::isum());
        let mut b = IncrementalIsum::new(IsumConfig::isum());
        for (i, q) in w.queries.iter().enumerate() {
            let shard = if i % 2 == 0 { &mut a } else { &mut b };
            shard.observe(q, &w.catalog).expect("observes");
        }
        let merged_whole = crate::merge::merge_partials(&[whole.shard_partial()]);
        let merged_split = crate::merge::merge_partials(&[a.shard_partial(), b.shard_partial()]);
        assert_eq!(merged_split.observed, merged_whole.observed);
        assert_eq!(merged_split.templates.len(), merged_whole.templates.len());
        let bits = |m: &crate::merge::MergedWorkload| -> Vec<(isum_common::GlobalColumnId, u64)> {
            m.summary_features().entries().iter().map(|&(g, v)| (g, v.to_bits())).collect()
        };
        assert_eq!(
            bits(&merged_split),
            bits(&merged_whole),
            "split observers merge bit-identically"
        );
    }
}
