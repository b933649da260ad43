//! How many exact benefit evaluations the bounded summary scan makes on
//! the workload it was sized on — generated TPC-DS, 8,000 statements,
//! seed 42, k = 100 — and that its picks are the per-query scan's.
//!
//! Its own test binary: the telemetry counters are process-global, so no
//! other selection may run while this one is counted.

use isum_common::telemetry;
use isum_core::summary::select_summary;
use isum_core::utility::utilities;
use isum_core::{Featurizer, IsumConfig, WorkloadFeatures};

// Only the summary selection of the shared oracle is used here.
#[allow(dead_code)]
mod oracle;

/// `core.select.evaluations` of the plain class scan on this workload.
const CLASS_SCAN_EVALUATIONS: u64 = 184_952;

#[test]
fn bounded_scan_evaluates_a_tenth_of_the_class_scan_on_tpcds() {
    let mut w = isum_workload::gen::tpcds_workload(10, 8000, 42).expect("tpcds binds");
    isum_optimizer::populate_costs(&mut w);
    let config = IsumConfig::isum();
    let featurizer =
        Featurizer { scheme: config.scheme, use_table_weight: config.use_table_weight };
    let f = WorkloadFeatures::build(&w, &featurizer);
    let u = utilities(&w, config.utility);

    telemetry::set_enabled(true);
    telemetry::reset();
    let bounded = select_summary(f.features.clone(), &f.original, u.clone(), 100, config.update);
    let counted = telemetry::snapshot();
    telemetry::set_enabled(false);
    let evaluations = counted.counter("core.select.evaluations").expect("counted");
    assert!(
        evaluations <= CLASS_SCAN_EVALUATIONS / 10,
        "{evaluations} evaluations, more than a tenth of the class scan's"
    );
    assert!(counted.counter("core.select.bounds").expect("counted") > 0);

    let plain = oracle::select_summary(f.features, &f.original, u, 100, config.update);
    assert_eq!(bounded.order, plain.order, "pick order");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&bounded.benefits), bits(&plain.benefits), "benefits");
}
