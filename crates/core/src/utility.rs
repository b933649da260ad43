//! Query utility (Sec 4.1, Def 2 of the paper).
//!
//! `Δ(q)` estimates the reduction in a query's cost when all its indexes are
//! added; `U(q) = Δ(q) / Σ_j Δ(q_j)` is its share of the workload's total
//! potential. The paper supports two estimators: the cost alone (highly
//! correlated already, Fig 5a) and cost × (1 − average selectivity)
//! (Fig 5b); both are implemented.

use isum_workload::Workload;

/// Estimator for the potential cost reduction `Δ(q)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UtilityMode {
    /// `Δ(q) = C(q)` — used when statistics are unavailable.
    CostOnly,
    /// `Δ(q) = (1 − Sel(q)) × C(q)` with `Sel(q)` the average selectivity
    /// of the query's filter and join predicates (the paper's default).
    #[default]
    CostTimesSelectivity,
}

/// Raw reduction estimate `Δ(q)` for one query.
pub fn raw_reduction(workload: &Workload, idx: usize, mode: UtilityMode) -> f64 {
    let q = &workload.queries[idx];
    match mode {
        UtilityMode::CostOnly => q.cost,
        UtilityMode::CostTimesSelectivity => {
            (1.0 - q.bound.average_selectivity()).max(0.0) * q.cost
        }
    }
}

/// Normalized utilities `U(q_i)` for the whole workload (sums to 1 when any
/// reduction is positive; all zeros otherwise).
pub fn utilities(workload: &Workload, mode: UtilityMode) -> Vec<f64> {
    let raw: Vec<f64> = (0..workload.len()).map(|i| raw_reduction(workload, i, mode)).collect();
    normalize(&raw)
}

/// `Δ_i / Σ_j Δ_j` for every reduction, or all zeros when the total is not
/// positive. Finite reductions whose total overflows to `+∞` are first
/// divided by the largest of them, so they keep their proportions instead
/// of all becoming 0; a finite total keeps the plain quotients' bits.
pub(crate) fn normalize(raw: &[f64]) -> Vec<f64> {
    let total: f64 = raw.iter().sum();
    if total == f64::INFINITY && raw.iter().all(|r| r.is_finite()) {
        let largest = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        return normalize(&raw.iter().map(|r| r / largest).collect::<Vec<_>>());
    }
    if total <= 0.0 {
        return vec![0.0; raw.len()];
    }
    raw.iter().map(|r| r / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;

    fn workload() -> Workload {
        let catalog = CatalogBuilder::new()
            .table("t", 100_000)
            .col_key("a")
            .col_int("b", 1000, 0, 1000)
            .finish()
            .unwrap()
            .build();
        let mut w = Workload::from_sql(
            catalog,
            &[
                "SELECT a FROM t WHERE b = 5",   // selective
                "SELECT a FROM t WHERE b > 100", // ~90% selectivity
                "SELECT a FROM t",               // no predicates
            ],
        )
        .unwrap();
        w.set_costs(&[100.0, 100.0, 100.0]);
        w
    }

    #[test]
    fn cost_only_equals_cost() {
        let w = workload();
        assert_eq!(raw_reduction(&w, 0, UtilityMode::CostOnly), 100.0);
        assert_eq!(raw_reduction(&w, 2, UtilityMode::CostOnly), 100.0);
    }

    #[test]
    fn selectivity_mode_rewards_selective_queries() {
        let w = workload();
        let selective = raw_reduction(&w, 0, UtilityMode::CostTimesSelectivity);
        let broad = raw_reduction(&w, 1, UtilityMode::CostTimesSelectivity);
        let none = raw_reduction(&w, 2, UtilityMode::CostTimesSelectivity);
        assert!(selective > broad, "{selective} vs {broad}");
        assert_eq!(none, 0.0, "no predicates → avg selectivity 1 → no potential");
    }

    #[test]
    fn utilities_normalize_to_one() {
        let w = workload();
        for mode in [UtilityMode::CostOnly, UtilityMode::CostTimesSelectivity] {
            let u = utilities(&w, mode);
            assert_eq!(u.len(), 3);
            assert!((u.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(u.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn zero_cost_workload_yields_zero_utilities() {
        let mut w = workload();
        w.set_costs(&[0.0, 0.0, 0.0]);
        let u = utilities(&w, UtilityMode::CostOnly);
        assert_eq!(u, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn overflowing_total_keeps_proportions() {
        let u = normalize(&[1e308, 1e308, 1e308, 10.0]);
        assert!(u[..3].iter().all(|&x| x == 1.0 / 3.0), "{u:?}");
        assert!(u[3] > 0.0 && u[3] < 1e-300, "the cheap one keeps a tiny share: {u:?}");
        assert!((u.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The batch path, through the workload's costs.
        let mut w = workload();
        w.set_costs(&[1e308, 1e308, 10.0]);
        let u = utilities(&w, UtilityMode::CostOnly);
        assert_eq!(&u[..2], &[0.5, 0.5]);
        assert!(u[2] > 0.0 && u[2] < 1e-300, "{u:?}");
        // A finite total keeps the plain quotients, bit for bit.
        let raw = [0.1, 0.7, 1e300, 3.0];
        let total: f64 = raw.iter().sum();
        let plain: Vec<u64> = raw.iter().map(|r| (r / total).to_bits()).collect();
        assert_eq!(normalize(&raw).iter().map(|x| x.to_bits()).collect::<Vec<_>>(), plain);
    }

    #[test]
    fn utilities_proportional_to_cost_in_cost_mode() {
        let mut w = workload();
        w.set_costs(&[10.0, 30.0, 60.0]);
        let u = utilities(&w, UtilityMode::CostOnly);
        assert!((u[0] - 0.1).abs() < 1e-12);
        assert!((u[1] - 0.3).abs() < 1e-12);
        assert!((u[2] - 0.6).abs() < 1e-12);
    }
}
