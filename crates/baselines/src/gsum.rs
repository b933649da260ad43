//! GSUM: the coverage + representativity greedy of Deep et al. \[20\].
//!
//! GSUM maximizes (a) *coverage* — the fraction of workload feature mass
//! present in the summary — and (b) *representativity* — how closely the
//! summary's feature distribution matches the workload's. Its featurization
//! is indexing-agnostic (every referenced column counts equally), which is
//! precisely the weakness ISUM targets (Sec 9: "the featurization ... is
//! agnostic of the features that are more relevant to index tuning").

use std::collections::{BTreeMap, HashMap};

use isum_common::{GlobalColumnId, QueryId, Result};
use isum_core::compressor::{validate, Compressor};
use isum_workload::{indexable_columns, CompressedWorkload, Workload};

/// GSUM greedy compressor.
#[derive(Debug, Clone, Copy)]
pub struct Gsum {
    /// Trade-off between coverage and representativity in `\[0, 1\]`
    /// (`alpha = 1` is pure coverage). Deep et al. balance both; 0.5 is
    /// the default.
    pub alpha: f64,
}

impl Default for Gsum {
    fn default() -> Self {
        Self { alpha: 0.5 }
    }
}

impl Gsum {
    /// GSUM with the default trade-off.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Compressor for Gsum {
    fn name(&self) -> String {
        "GSUM".into()
    }

    fn compress(&self, workload: &Workload, k: usize) -> Result<CompressedWorkload> {
        let _s = isum_common::telemetry::span("gsum");
        validate(workload, k)?;
        let n = workload.len();
        let k = k.min(n);
        // Indexing-agnostic featurization: the set of referenced columns
        // per query, with workload-level frequencies.
        let per_query: Vec<Vec<GlobalColumnId>> = workload
            .queries
            .iter()
            .map(|q| {
                let mut cols: Vec<GlobalColumnId> = indexable_columns(&q.bound, &workload.catalog)
                    .into_iter()
                    .map(|c| c.gid)
                    .collect();
                // Projection columns count too (GSUM is syntax-driven).
                cols.extend(q.bound.projections.iter().map(|p| p.gid));
                cols.sort_unstable();
                cols.dedup();
                cols
            })
            .collect();
        // Ordered: the L1 distance below sums over it, and a per-process
        // random hash order made that float sum, and so near-tied picks,
        // differ from run to run.
        let mut freq: BTreeMap<GlobalColumnId, f64> = BTreeMap::new();
        for cols in &per_query {
            for &c in cols {
                *freq.entry(c).or_insert(0.0) += 1.0;
            }
        }
        let total_freq: f64 = freq.values().sum();
        if total_freq <= 0.0 {
            // Degenerate workload (no columns anywhere): fall back to the
            // first k queries.
            return Ok(CompressedWorkload::uniform((0..k).map(QueryId::from_index).collect()));
        }

        // Greedy: maximize alpha * coverage_gain + (1-alpha) * representativity.
        let mut covered: HashMap<GlobalColumnId, f64> = HashMap::new();
        let mut summary_count: HashMap<GlobalColumnId, f64> = HashMap::new();
        let mut summary_total = 0.0;
        let mut picked: Vec<usize> = Vec::with_capacity(k);
        let mut in_summary = vec![false; n];
        for _ in 0..k {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if in_summary[i] {
                    continue;
                }
                // Coverage gain: frequency mass of newly covered columns.
                let gain: f64 = per_query[i]
                    .iter()
                    .filter(|c| !covered.contains_key(c))
                    .map(|c| freq[c] / total_freq)
                    .sum();
                // Representativity: 1 − L1 distance between the summary's
                // column distribution (with i added) and the workload's.
                let mut trial = summary_count.clone();
                for &c in &per_query[i] {
                    *trial.entry(c).or_insert(0.0) += 1.0;
                }
                let trial_total = summary_total + per_query[i].len() as f64;
                let mut l1 = 0.0;
                for (&c, &f) in &freq {
                    let p = f / total_freq;
                    let q =
                        trial.get(&c).copied().unwrap_or(0.0) / trial_total.max(f64::MIN_POSITIVE);
                    l1 += (p - q).abs();
                }
                let repr = 1.0 - l1 / 2.0;
                let score = self.alpha * gain + (1.0 - self.alpha) * repr;
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((i, score));
                }
            }
            let Some((pick, _)) = best else { break };
            in_summary[pick] = true;
            picked.push(pick);
            for &c in &per_query[pick] {
                *covered.entry(c).or_insert(0.0) += 1.0;
                *summary_count.entry(c).or_insert(0.0) += 1.0;
            }
            summary_total += per_query[pick].len() as f64;
        }
        Ok(CompressedWorkload::uniform(picked.into_iter().map(QueryId::from_index).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;

    fn workload() -> Workload {
        let catalog = CatalogBuilder::new()
            .table("t", 10_000)
            .col_key("a")
            .col_int("b", 100, 0, 100)
            .col_int("c", 100, 0, 100)
            .col_int("d", 100, 0, 100)
            .finish()
            .unwrap()
            .build();
        let mut w = Workload::from_sql(
            catalog,
            &[
                "SELECT a FROM t WHERE b = 1",                     // {a, b}
                "SELECT a FROM t WHERE b = 2",                     // {a, b} duplicate shape
                "SELECT a FROM t WHERE c = 1",                     // {a, c}
                "SELECT a FROM t WHERE d = 1",                     // {a, d}
                "SELECT a FROM t WHERE b = 1 AND c = 2 AND d = 3", // covers all
            ],
        )
        .unwrap();
        w.set_costs(&[1.0; 5]);
        w
    }

    #[test]
    fn first_pick_maximizes_coverage() {
        let w = workload();
        let cw = Gsum::new().compress(&w, 1).unwrap();
        assert_eq!(cw.ids()[0].index(), 4, "the all-columns query covers most");
    }

    #[test]
    fn subsequent_picks_avoid_pure_duplicates() {
        let w = workload();
        let cw = Gsum::new().compress(&w, 3).unwrap();
        let ids: Vec<usize> = cw.ids().iter().map(|i| i.index()).collect();
        // Picking both b-duplicates before c/d would sacrifice coverage.
        assert!(
            !(ids.contains(&0) && ids.contains(&1)),
            "duplicate-shape queries both picked early: {ids:?}"
        );
    }

    #[test]
    fn selects_k_and_normalizes() {
        let w = workload();
        let cw = Gsum::new().compress(&w, 4).unwrap();
        assert_eq!(cw.len(), 4);
        assert!((cw.entries.iter().map(|(_, w)| w).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_is_pure_coverage() {
        let w = workload();
        let pure = Gsum { alpha: 1.0 }.compress(&w, 2).unwrap();
        assert_eq!(pure.ids()[0].index(), 4);
    }

    #[test]
    fn deterministic() {
        let w = workload();
        assert_eq!(Gsum::new().compress(&w, 3).unwrap(), Gsum::new().compress(&w, 3).unwrap());
    }

    #[test]
    fn near_tied_picks_do_not_depend_on_hash_order() {
        // Fig 12's DSB-complex workload has a near tie at k = 25 that a
        // sum in hash order broke differently from run to run. Each new
        // thread seeds its hash maps afresh, like a new process.
        let w = isum_workload::gen::dsb::dsb_workload_classed(
            10,
            isum_workload::QueryClass::Complex,
            156,
            121,
        )
        .unwrap();
        let first = Gsum::new().compress(&w, 25).unwrap();
        for _ in 0..40 {
            let again = std::thread::scope(|s| s.spawn(|| Gsum::new().compress(&w, 25)).join());
            assert_eq!(again.unwrap().unwrap(), first);
        }
    }
}
