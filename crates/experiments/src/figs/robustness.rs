//! Seed robustness: the Fig 9a comparison repeated over several workload
//! seeds, reporting mean ± std per method. Guards the headline claim
//! against parameter-instantiation luck.

use isum_advisor::TuningConstraints;
use isum_common::stats::{mean, std_dev};
use isum_common::{count, Result};

use crate::harness::{
    ctx_or_skip, dta, evaluate_method, half_sqrt_n, standard_methods, ExperimentCtx, Scale,
};
use crate::report::Table;

const SEEDS: [u64; 5] = [301, 302, 303, 304, 305];

/// Mean ± std improvement per method at `k = 0.5√n`, five seeds, four
/// workloads.
pub fn robustness(scale: &Scale) -> Vec<Table> {
    let mut t = Table::new(
        "robustness_seeds",
        "Robustness: improvement (%) mean ± std over 5 workload seeds, k = 0.5√n",
        &["workload", "Uniform", "Cost", "Stratified", "GSUM", "ISUM", "ISUM-S"],
    );
    type CtxFn = fn(&Scale, u64) -> Result<ExperimentCtx>;
    let makers: [(&str, CtxFn); 4] = [
        ("TPC-H", ExperimentCtx::tpch),
        ("TPC-DS", ExperimentCtx::tpcds),
        ("DSB", ExperimentCtx::dsb),
        ("Real-M", ExperimentCtx::realm),
    ];
    for (name, make) in makers {
        let mut per_method: Vec<Vec<f64>> = vec![Vec::new(); 6];
        for &seed in &SEEDS {
            let Some(ctx) = ctx_or_skip(make(scale, seed), name) else {
                continue;
            };
            let k = half_sqrt_n(ctx.workload.len());
            let constraints = TuningConstraints::with_max_indexes(16);
            for (mi, m) in standard_methods(seed).iter().enumerate() {
                match evaluate_method(m.as_ref(), &ctx, k, &dta(), &constraints) {
                    Ok(e) => per_method[mi].push(e.improvement_pct),
                    Err(e) => {
                        count!("harness.cells_skipped");
                        isum_common::warn!(
                            "harness.robustness",
                            format!("cell skipped: {e}"),
                            workload = name,
                            seed = seed
                        );
                    }
                }
            }
        }
        let mut row = vec![name.to_string()];
        for samples in &per_method {
            row.push(format!("{:.1}±{:.1}", mean(samples), std_dev(samples)));
        }
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_samples_per_method() {
        // Structural check on one small workload (full run is exercised by
        // the binary).
        let scale = Scale::quick();
        let ctx = ExperimentCtx::tpch(&scale, 301).expect("tpch binds");
        let k = half_sqrt_n(ctx.workload.len());
        let constraints = TuningConstraints::with_max_indexes(8);
        let methods = standard_methods(301);
        for m in &methods {
            let e = evaluate_method(m.as_ref(), &ctx, k, &dta(), &constraints)
                .expect("quick eval succeeds");
            assert!(e.improvement_pct.is_finite());
        }
    }
}
