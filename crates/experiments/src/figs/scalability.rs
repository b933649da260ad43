//! Fig 11: summary-features vs all-pairs vs k-medoid — improvement and
//! compression time as the input workload grows.

use isum_advisor::TuningConstraints;
use isum_common::{count, Result};

use crate::harness::{ctx_or_skip, dta, evaluate_method, fig11_methods, ExperimentCtx, Scale};
use crate::report::{f1, Table};

/// Fig 11a–d.
pub fn fig11(scale: &Scale) -> Vec<Table> {
    let mut tables = Vec::new();
    // Input-size sweeps follow the paper's axes regardless of ISUM_SCALE
    // (the sweep *is* the experiment); only `quick` trims the tail.
    let cap = if scale.tpch <= 66 { 256 } else { 2048 };
    let tpch_sizes: Vec<usize> =
        [64usize, 128, 256, 512, 1024, 2048].into_iter().filter(|&n| n <= cap).collect();
    let realm_sizes: Vec<usize> =
        [64usize, 128, 256, 473].into_iter().filter(|&n| n <= scale.realm.max(128)).collect();
    for (name, sizes, make) in [
        (
            "tpch",
            tpch_sizes,
            Box::new(|n: usize| {
                Ok(ExperimentCtx::prepare(
                    "TPC-H",
                    isum_workload::gen::tpch_workload(scale.sf, n, 110)?,
                ))
            }) as Box<dyn Fn(usize) -> Result<ExperimentCtx>>,
        ),
        (
            "realm",
            realm_sizes,
            Box::new(|n: usize| {
                Ok(ExperimentCtx::prepare(
                    "Real-M",
                    isum_workload::gen::realm_workload_sized(n, 110)?,
                ))
            }),
        ),
    ] {
        let mut t_imp = Table::new(
            format!("fig11_improvement_{name}"),
            format!("Fig 11 ({name}): improvement (%) vs input size"),
            &["n", "all-pairs", "k-medoid", "summary"],
        );
        let mut t_time = Table::new(
            format!("fig11_time_{name}"),
            format!("Fig 11 ({name}): compression time (s) vs input size"),
            &["n", "all-pairs", "k-medoid", "summary"],
        );
        for &n in &sizes {
            let Some(ctx) = ctx_or_skip(make(n), name) else {
                continue;
            };
            let k = ((n as f64).sqrt() * 0.5).round().max(2.0) as usize;
            let methods = fig11_methods(110);
            let constraints = TuningConstraints::with_max_indexes(16);
            let mut imp_row = vec![n.to_string()];
            let mut time_row = vec![n.to_string()];
            for m in &methods {
                match evaluate_method(m.as_ref(), &ctx, k, &dta(), &constraints) {
                    Ok(e) => {
                        imp_row.push(f1(e.improvement_pct));
                        time_row.push(format!("{:.4}", e.compression_secs));
                    }
                    Err(e) => {
                        count!("harness.cells_skipped");
                        isum_common::warn!("harness.fig11", format!("cell skipped: {e}"), n = n);
                        imp_row.push("-".into());
                        time_row.push("-".into());
                    }
                }
            }
            t_imp.row(imp_row);
            t_time.row(time_row);
        }
        tables.push(t_imp);
        tables.push(t_time);
    }
    tables
}

#[cfg(test)]
mod tests {
    use isum_core::{Compressor, Isum, IsumConfig};
    use std::time::Instant;

    #[test]
    fn summary_is_much_faster_than_all_pairs_at_scale() {
        let mut w = isum_workload::gen::tpch_workload(1, 440, 1).unwrap();
        isum_optimizer::populate_costs(&mut w);
        let k = 10;
        let t0 = Instant::now();
        Isum::with_config(IsumConfig::all_pairs()).compress(&w, k).unwrap();
        let all_pairs = t0.elapsed();
        let t1 = Instant::now();
        Isum::new().compress(&w, k).unwrap();
        let summary = t1.elapsed();
        assert!(summary < all_pairs, "summary {summary:?} should beat all-pairs {all_pairs:?}");
    }
}
