//! Fault-injection smoke: with the global injector active, the full
//! harness pipeline — costing, compression, tuning, evaluation — must
//! complete with typed outcomes (no panic escapes), report its injected
//! what-if faults through telemetry, and stay bit-identical across thread
//! counts.
//!
//! Single `#[test]`: the fault injector, the telemetry registry, and the
//! thread count are process-global.

use isum_advisor::TuningConstraints;
use isum_common::telemetry;
use isum_experiments::harness::{dta, evaluate_methods, standard_methods};
use isum_experiments::{ExperimentCtx, Scale};
use isum_optimizer::faults::set_global_spec;

const SPEC: &str = "whatif_transient:0.2,whatif_permanent:0.02,seed:7";

fn run_once(threads: usize) -> (usize, Vec<u64>) {
    isum_exec::set_global_threads(threads);
    let ctx = ExperimentCtx::tpch(&Scale::quick(), 9).expect("tpch binds");
    let methods = standard_methods(9);
    let constraints = TuningConstraints::with_max_indexes(8);
    let evals = evaluate_methods(&methods, &ctx, 6, &dta(), &constraints);
    assert_eq!(evals.len(), methods.len(), "every method reports an outcome");
    let improvements: Vec<u64> = evals
        .into_iter()
        .map(|e| e.expect("faulted run still evaluates").improvement_pct.to_bits())
        .collect();
    (ctx.workload.len(), improvements)
}

#[test]
fn faulted_pipeline_completes_and_is_thread_count_invariant() {
    telemetry::set_enabled(true);
    telemetry::reset();
    set_global_spec(SPEC).expect("valid spec");

    let (n1, imp1) = run_once(1);
    let full = Scale::quick().tpch;
    assert_eq!(n1, full, "what-if faults degrade costs, never drop queries");

    let snap = telemetry::snapshot();
    assert!(snap.counter("faults.injected").unwrap_or(0) > 0, "what-if faults fired");
    assert!(snap.counter("optimizer.whatif.retries").unwrap_or(0) > 0, "transients retried");

    // Same spec, more threads: bit-identical results.
    let (n8, imp8) = run_once(8);
    assert_eq!(n1, n8);
    assert_eq!(imp1, imp8, "bit-identical improvements across thread counts");

    // Deactivating restores the fault-free pipeline, also thread-count
    // invariant.
    set_global_spec("").expect("empty spec deactivates");
    let (n_clean, clean1) = run_once(1);
    assert_eq!(n_clean, full, "the fault-free run costs every query");
    assert_eq!(run_once(8).1, clean1, "fault-free improvements at 1 vs 8 threads");
    telemetry::set_enabled(false);
}
