//! The harness's parallel method evaluation (`evaluate_methods`, the one
//! parallel loop of DESIGN.md §8) gives bit-identical improvements at 1
//! and at 8 threads, and costs every query of the workload.
//!
//! Single `#[test]`: the thread count is process-global.

use isum_advisor::TuningConstraints;
use isum_experiments::harness::{dta, evaluate_methods, standard_methods};
use isum_experiments::{ExperimentCtx, Scale};

fn run_once(threads: usize) -> (usize, Vec<u64>) {
    isum_exec::set_global_threads(threads);
    let ctx = ExperimentCtx::tpch(&Scale::quick(), 9).expect("tpch binds");
    let methods = standard_methods(9);
    let constraints = TuningConstraints::with_max_indexes(8);
    let evals = evaluate_methods(&methods, &ctx, 6, &dta(), &constraints);
    assert_eq!(evals.len(), methods.len(), "every method reports an outcome");
    let improvements: Vec<u64> =
        evals.into_iter().map(|e| e.expect("evaluates").improvement_pct.to_bits()).collect();
    (ctx.workload.len(), improvements)
}

#[test]
fn evaluate_methods_is_bit_identical_at_1_and_8_threads() {
    let (n1, imp1) = run_once(1);
    assert_eq!(n1, Scale::quick().tpch, "every query is costed");
    let (n8, imp8) = run_once(8);
    assert_eq!(n1, n8);
    assert_eq!(imp1, imp8, "improvements at 1 vs 8 threads");
}
