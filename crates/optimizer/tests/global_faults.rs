//! The process-wide fault injector that `WhatIfOptimizer::new` picks up:
//! disabled until configured, replaced by a valid spec, left in place by
//! a rejected one, and disabled again by an empty one.
//!
//! Its own test binary: the injector is process-global, and every other
//! optimizer test builds optimizers that would read it.

use isum_optimizer::faults::set_global_spec;
use isum_optimizer::{IndexConfig, WhatIfOptimizer};
use isum_workload::gen::tpch::tpch_workload;

#[test]
fn the_global_injector_is_replaced_only_by_a_valid_spec() {
    let w = tpch_workload(1, 1, 1).unwrap();
    let q = &w.queries[0];
    let empty = IndexConfig::empty();
    let degraded = |expect: bool, why: &str| {
        let opt = WhatIfOptimizer::new(&w.catalog);
        let cost = opt.cost_bound(&q.bound, &empty);
        assert_eq!(cost.to_bits() == opt.heuristic_cost(&q.bound).to_bits(), expect, "{why}");
        assert_eq!(opt.whatif_fallbacks(), u64::from(expect), "{why}");
    };

    degraded(false, "a fresh process injects nothing");
    set_global_spec("whatif_permanent:1.0,seed:3").unwrap();
    degraded(true, "a valid spec installs its injector");
    for bad in ["whatif_permanent:2.0", "whatif_transient:0.5,nonsense:0.5", "latency"] {
        assert!(set_global_spec(bad).is_err(), "{bad}");
        degraded(true, &format!("`{bad}` is refused, never half-applied"));
    }
    set_global_spec("").unwrap();
    degraded(false, "an empty spec disables injection");
}
