//! The first heuristic fallback of an optimizer warns, and only the
//! first — also when several threads fall back at the same moment.
//!
//! Alone in its test binary: it counts `warn` events in the process-wide
//! trace ring, which fallbacks in other tests would add to.

use std::sync::Barrier;

use isum_common::trace::{self, Level};
use isum_optimizer::{IndexConfig, WhatIfBudget, WhatIfOptimizer};
use isum_workload::gen::tpch::{tpch_catalog, tpch_workload};

#[test]
fn concurrent_fallbacks_warn_exactly_once() {
    let _g = trace::test_lock();
    trace::reset_for_tests();
    trace::set_filter_spec("off");
    trace::enable_ring(Level::Warn);

    let w = tpch_workload(1, 4, 1).unwrap();
    let catalog = tpch_catalog(1);
    let empty = IndexConfig::empty();
    let rounds = 100;
    for round in 0..rounds {
        let opt = WhatIfOptimizer::new(&catalog)
            .with_budget(WhatIfBudget { max_calls: Some(0), ..WhatIfBudget::default() });
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for q in &w.queries {
                        opt.cost_bound(&q.bound, &empty);
                    }
                });
            }
        });
        assert_eq!(opt.whatif_fallbacks(), 8 * 4, "round {round}: every costing fell back");
        let warns = trace::ring_tail(usize::MAX)
            .iter()
            .filter(|e| e.level == Level::Warn && e.target == "optimizer.whatif")
            .count();
        assert_eq!(warns, round + 1, "round {round}: one warning per optimizer");
    }
    trace::reset_for_tests();
}
