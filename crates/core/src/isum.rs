//! The top-level ISUM compressor (Fig 4 of the paper).
//!
//! Pipeline: featurize queries and compute utilities (step 1), select `k`
//! queries greedily — via summary features (step 2 + 3, the linear
//! algorithm) or all-pairs comparisons — updating the remainder after each
//! pick (step 3B), then weigh the selected queries (step 4).

use isum_common::trace::{self, Level};
use isum_common::{telemetry, Error, QueryId, Result, TemplateId};
use isum_workload::{CompressedWorkload, Workload};

use crate::allpairs::{select_all_pairs_grouped, Selection};
use crate::compressor::{validate, Compressor};
use crate::features::{Featurizer, WeightScheme};
use crate::groups::Grouping;
use crate::summary::select_grouped;
use crate::update::UpdateStrategy;
use crate::utility::{utilities, UtilityMode};
use crate::weighting::{weigh_grouped, WeightingStrategy};

/// Which greedy algorithm drives selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Linear-time summary-features greedy (Algorithm 3; the default).
    #[default]
    SummaryFeatures,
    /// Quadratic all-pairs greedy (Algorithms 1–2; the quality reference).
    AllPairs,
}

/// Full ISUM configuration. `IsumConfig::default()` reproduces the paper's
/// "ISUM" line; see the constructors for the named variants.
#[derive(Debug, Clone, Copy)]
pub struct IsumConfig {
    /// Feature weighting scheme (rule-based = ISUM, stats-based = ISUM-S).
    pub scheme: WeightScheme,
    /// Include table-size weighting (false = ISUM-NoTable, Fig 10).
    pub use_table_weight: bool,
    /// Utility estimator.
    pub utility: UtilityMode,
    /// Selection algorithm.
    pub algorithm: Algorithm,
    /// Post-selection update strategy.
    pub update: UpdateStrategy,
    /// Weighting strategy for the output.
    pub weighting: WeightingStrategy,
}

/// The ISUM workload compressor.
///
/// ```
/// use isum_core::{Compressor, Isum};
/// use isum_catalog::CatalogBuilder;
/// use isum_workload::Workload;
///
/// let catalog = CatalogBuilder::new()
///     .table("t", 100_000)
///     .col_key("id")
///     .col_int("grp", 100, 0, 100)
///     .finish()?
///     .build();
/// let mut w = Workload::from_sql(catalog, &[
///     "SELECT id FROM t WHERE grp = 1",
///     "SELECT id FROM t WHERE grp = 2",
///     "SELECT count(*) FROM t GROUP BY grp",
/// ])?;
/// w.set_costs(&[50.0, 45.0, 200.0]);
/// let compressed = Isum::new().compress(&w, 2)?;
/// assert_eq!(compressed.len(), 2);
/// # Ok::<(), isum_common::Error>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Isum {
    /// Configuration.
    pub config: IsumConfig,
}

impl IsumConfig {
    /// The paper's default ISUM (rule-based weights, summary features,
    /// zero-out updates, template weighting).
    pub fn isum() -> Self {
        Self {
            scheme: WeightScheme::RuleBased,
            use_table_weight: true,
            utility: UtilityMode::CostTimesSelectivity,
            algorithm: Algorithm::SummaryFeatures,
            update: UpdateStrategy::ZeroFeatures,
            weighting: WeightingStrategy::RecalibratedTemplate,
        }
    }

    /// ISUM-S: statistics-based feature weighting (Sec 8 baselines).
    pub fn isum_s() -> Self {
        Self { scheme: WeightScheme::StatsBased, ..Self::isum() }
    }

    /// ISUM-NoTable: stats-based weighting without the table-size factor
    /// (Fig 10).
    pub fn isum_no_table() -> Self {
        Self { scheme: WeightScheme::StatsBased, use_table_weight: false, ..Self::isum() }
    }

    /// All-pairs variant (Fig 11, Fig 13).
    pub fn all_pairs() -> Self {
        Self { algorithm: Algorithm::AllPairs, ..Self::isum() }
    }

    /// The variant `isum` accepts by name: `isum`, `isum-s` or `all-pairs`.
    pub fn named(name: &str) -> Result<Self> {
        match name {
            "isum" => Ok(Self::isum()),
            "isum-s" => Ok(Self::isum_s()),
            "all-pairs" => Ok(Self::all_pairs()),
            other => Err(Error::InvalidConfig(format!(
                "unknown variant `{other}` (isum | isum-s | all-pairs)"
            ))),
        }
    }

    /// Greedy selection of `k` queries with the configured algorithm and
    /// update strategy — the one selector behind the batch, streaming and
    /// merged compressors.
    pub(crate) fn select(&self, groups: &Grouping, utilities: Vec<f64>, k: usize) -> Selection {
        match self.algorithm {
            Algorithm::AllPairs => select_all_pairs_grouped(groups, utilities, k, self.update),
            Algorithm::SummaryFeatures => select_grouped(groups, utilities, k, self.update),
        }
    }
}

/// The compressed workload of a selection and its weights, normalized.
pub(crate) fn weighted(selection: &Selection, weights: Vec<f64>) -> CompressedWorkload {
    let mut cw = CompressedWorkload {
        entries: selection
            .order
            .iter()
            .zip(weights)
            .map(|(&i, w)| (QueryId::from_index(i), w))
            .collect(),
    };
    cw.normalize_weights();
    cw
}

impl Default for IsumConfig {
    fn default() -> Self {
        Self::isum()
    }
}

impl Isum {
    /// ISUM with the paper's default configuration.
    pub fn new() -> Self {
        Self { config: IsumConfig::isum() }
    }

    /// ISUM with a custom configuration.
    pub fn with_config(config: IsumConfig) -> Self {
        Self { config }
    }

    /// Runs selection only, returning indices and selection-time benefits
    /// (exposed for the experiment harness).
    pub fn select(&self, workload: &Workload, k: usize) -> crate::allpairs::Selection {
        let (groups, u) = self.featurize(workload);
        let _s = telemetry::span("select");
        self.config.select(&groups, u, k)
    }

    /// Compresses and derives attribution + coverage for the result
    /// (observation-only: the compression result is exactly what
    /// [`Compressor::compress`] returns for the same input).
    ///
    /// # Errors
    /// Same failure modes as [`Compressor::compress`].
    pub fn explain(&self, workload: &Workload, k: usize) -> Result<crate::SummaryExplanation> {
        validate(workload, k)?;
        let _isum = telemetry::span("isum");
        let (groups, u) = self.featurize(workload);
        let templates = templates(workload);
        let cw = self.select_and_weigh(&groups, &u, &templates, k);
        Ok(crate::explain::explain_grouped(&cw.entries, &templates, &groups, &u))
    }

    /// Step 1 of Fig 4: every query's feature group and utility.
    fn featurize(&self, workload: &Workload) -> (Grouping, Vec<f64>) {
        let _s = telemetry::span("featurize");
        let featurizer = Featurizer {
            scheme: self.config.scheme,
            use_table_weight: self.config.use_table_weight,
        };
        let t = trace::enabled(Level::Debug).then(std::time::Instant::now);
        let featurized = (featurizer.group(workload), utilities(workload, self.config.utility));
        if let Some(t) = t {
            isum_common::debug!(
                "core.isum",
                "featurize done",
                queries = workload.queries.len(),
                elapsed_us = t.elapsed().as_micros()
            );
        }
        featurized
    }

    /// Steps 2–4 of Fig 4 over a featurized workload.
    fn select_and_weigh(
        &self,
        groups: &Grouping,
        u: &[f64],
        templates: &[TemplateId],
        k: usize,
    ) -> CompressedWorkload {
        // Per-phase events are debug-level; the clock is only read when
        // some sink or ring can actually receive them.
        let trace_on = trace::enabled(Level::Debug);
        let t = trace_on.then(std::time::Instant::now);
        let selection = {
            let _s = telemetry::span("select");
            self.config.select(groups, u.to_vec(), k)
        };
        if let Some(t) = t {
            isum_common::debug!(
                "core.isum",
                "select done",
                candidates = groups.len(),
                selected = selection.order.len(),
                k = k,
                elapsed_us = t.elapsed().as_micros()
            );
        }
        let t = trace_on.then(std::time::Instant::now);
        let _w = telemetry::span("weight");
        let weights = weigh_grouped(self.config.weighting, templates, &selection, groups, u);
        let cw = weighted(&selection, weights);
        if let Some(t) = t {
            isum_common::debug!(
                "core.isum",
                "weight done",
                entries = cw.entries.len(),
                elapsed_us = t.elapsed().as_micros()
            );
        }
        cw
    }
}

/// The template of every query of a workload, in order.
fn templates(workload: &Workload) -> Vec<TemplateId> {
    workload.queries.iter().map(|q| q.template).collect()
}

impl Compressor for Isum {
    fn name(&self) -> String {
        let base = match (self.config.scheme, self.config.use_table_weight) {
            (WeightScheme::RuleBased, _) => "ISUM",
            (WeightScheme::StatsBased, true) => "ISUM-S",
            (WeightScheme::StatsBased, false) => "ISUM-NoTable",
        };
        match self.config.algorithm {
            Algorithm::SummaryFeatures => base.to_string(),
            Algorithm::AllPairs => format!("{base}(all-pairs)"),
        }
    }

    fn compress(&self, workload: &Workload, k: usize) -> Result<CompressedWorkload> {
        validate(workload, k)?;
        let _isum = telemetry::span("isum");
        let (groups, u) = self.featurize(workload);
        Ok(self.select_and_weigh(&groups, &u, &templates(workload), k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;

    fn workload() -> Workload {
        let catalog = CatalogBuilder::new()
            .table("big", 1_000_000)
            .col_key("b_key")
            .col_int("b_attr", 10_000, 0, 10_000)
            .col_int("b_code", 50, 0, 50)
            .finish()
            .unwrap()
            .table("small", 1_000)
            .col_key("s_key")
            .col_int("s_attr", 100, 0, 100)
            .finish()
            .unwrap()
            .build();
        let mut w = Workload::from_sql(
            catalog,
            &[
                "SELECT b_key FROM big WHERE b_attr = 1",
                "SELECT b_key FROM big WHERE b_attr = 2",
                "SELECT b_key FROM big WHERE b_attr = 3",
                "SELECT b_key FROM big WHERE b_code = 4 GROUP BY b_code",
                "SELECT s_key FROM small WHERE s_attr = 5",
                "SELECT b_key FROM big, small WHERE b_key = s_key AND s_attr > 50",
            ],
        )
        .unwrap();
        w.set_costs(&[900.0, 850.0, 800.0, 700.0, 10.0, 500.0]);
        w
    }

    #[test]
    fn compresses_to_k_weighted_queries() {
        let w = workload();
        let cw = Isum::new().compress(&w, 3).unwrap();
        assert_eq!(cw.len(), 3);
        assert!((cw.entries.iter().map(|(_, w)| w).sum::<f64>() - 1.0).abs() < 1e-9);
        // The dominant template (b_attr = ?) must be represented.
        let ids = cw.ids();
        assert!(ids.iter().any(|id| id.index() <= 2), "{ids:?}");
    }

    #[test]
    fn first_pick_is_high_utility_high_influence() {
        let w = workload();
        let sel = Isum::new().select(&w, 1);
        // Queries 0-2 share a template and dominate cost; one of them wins.
        assert!(sel.order[0] <= 2, "got {:?}", sel.order);
    }

    #[test]
    fn all_pairs_and_summary_agree_on_small_input() {
        let w = workload();
        let a = Isum::with_config(IsumConfig::all_pairs()).compress(&w, 3).unwrap();
        let s = Isum::new().compress(&w, 3).unwrap();
        // Both should avoid picking two near-duplicate b_attr queries
        // before covering the b_code / join queries.
        let dup_a = a.ids().iter().filter(|id| id.index() <= 2).count();
        let dup_s = s.ids().iter().filter(|id| id.index() <= 2).count();
        assert!(dup_a <= 2 && dup_s <= 2, "a={:?} s={:?}", a.ids(), s.ids());
    }

    #[test]
    fn variants_have_distinct_names() {
        assert_eq!(Isum::new().name(), "ISUM");
        assert_eq!(Isum::with_config(IsumConfig::isum_s()).name(), "ISUM-S");
        assert_eq!(Isum::with_config(IsumConfig::isum_no_table()).name(), "ISUM-NoTable");
        assert_eq!(Isum::with_config(IsumConfig::all_pairs()).name(), "ISUM(all-pairs)");
    }

    #[test]
    fn k_of_zero_and_empty_workload_error() {
        let w = workload();
        assert!(Isum::new().compress(&w, 0).is_err());
    }

    #[test]
    fn k_at_least_n_selects_all() {
        let w = workload();
        let cw = Isum::new().compress(&w, 100).unwrap();
        assert_eq!(cw.len(), 6);
        let mut ids: Vec<usize> = cw.ids().iter().map(|i| i.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn explain_reports_the_compressed_selection() {
        let w = workload();
        let cw = Isum::new().compress(&w, 3).unwrap();
        let e = Isum::new().explain(&w, 3).unwrap();
        assert_eq!(e.k, 3);
        assert_eq!(e.observed, 6);
        let ids: Vec<_> = e.members.iter().map(|m| m.query).collect();
        assert_eq!(ids, cw.ids());
        for (m, (_, weight)) in e.members.iter().zip(&cw.entries) {
            assert_eq!(m.weight.to_bits(), weight.to_bits());
        }
        assert!(e.coverage > 0.0 && e.coverage <= 1.0);
        assert!(e.represented >= 3, "each member represents at least itself");
    }

    #[test]
    fn compression_is_deterministic() {
        let w = workload();
        let a = Isum::new().compress(&w, 3).unwrap();
        let b = Isum::new().compress(&w, 3).unwrap();
        assert_eq!(a, b);
    }
}
