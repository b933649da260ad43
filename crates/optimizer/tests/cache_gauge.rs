//! The `optimizer.whatif.cache_entries` gauge must report the true entry
//! count, on insert and on clear.
//!
//! This file deliberately holds a single test: it flips the process-wide
//! telemetry flag, so it runs alone in its own test binary where no
//! concurrent test can interleave gauge writes.

use isum_common::telemetry;
use isum_optimizer::index::IndexConfig;
use isum_optimizer::whatif::WhatIfOptimizer;
use isum_workload::gen::tpch::{tpch_catalog, tpch_workload};

#[test]
fn cache_entries_gauge_reports_the_entry_count() {
    telemetry::set_enabled(true);
    let mut w = tpch_workload(1, 22, 4).unwrap();
    let catalog = tpch_catalog(1);
    let opt = WhatIfOptimizer::new(&catalog);
    opt.populate_costs(&mut w);
    let cfg = IndexConfig::empty();
    let _ = opt.workload_cost(&w, &cfg);
    telemetry::set_enabled(false);
    // One entry per query: the empty configuration is one key each.
    assert_eq!(opt.cache_entries(), 22);
    let snap = telemetry::snapshot();
    assert_eq!(snap.gauge("optimizer.whatif.cache_entries"), Some(22));

    // Clearing must drive both the accessor and the gauge back to zero.
    telemetry::set_enabled(true);
    opt.clear_cache();
    telemetry::set_enabled(false);
    assert_eq!(opt.cache_entries(), 0);
    assert_eq!(telemetry::snapshot().gauge("optimizer.whatif.cache_entries"), Some(0));
}
