//! The what-if degradation contract under injected faults (DESIGN.md §9):
//! transient faults retry with capped backoff, permanent faults fall back
//! to the heuristic exactly once, budgets degrade instead of failing, and
//! the cache never stores a fallback cost as authoritative (the entry
//! gauge stays exact under injection).

use std::sync::Arc;
use std::time::Duration;

use isum_faults::FaultInjector;
use isum_optimizer::{IndexConfig, WhatIfBudget, WhatIfOptimizer};
use isum_workload::gen::tpch::{tpch_catalog, tpch_workload};

/// A budget with zero backoff so fault-saturated tests run instantly.
fn fast_budget() -> WhatIfBudget {
    WhatIfBudget {
        backoff_base: Duration::ZERO,
        backoff_cap: Duration::ZERO,
        ..WhatIfBudget::default()
    }
}

fn injector(spec: &str) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::from_spec(spec).expect("valid fault spec"))
}

#[test]
fn transient_faults_retry_then_fall_back() {
    let catalog = tpch_catalog(1);
    let w = tpch_workload(1, 1, 1).unwrap();
    let q = &w.queries[0];
    let cfg = IndexConfig::empty();

    // Rate 1.0: every attempt fails, so each costing burns the full retry
    // budget and then degrades to the heuristic.
    let opt = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("whatif_transient:1.0,seed:3"))
        .with_budget(WhatIfBudget { max_retries: 2, ..fast_budget() });
    let cost = opt.cost_bound(&q.bound, &cfg);
    assert_eq!(cost.to_bits(), opt.heuristic_cost(&q.bound).to_bits());
    assert_eq!(opt.whatif_retries(), 2, "retries capped at max_retries");
    assert_eq!(opt.whatif_fallbacks(), 1, "one fallback per costing");
    assert_eq!(opt.optimizer_calls(), 3, "initial attempt + 2 retries each count");
}

#[test]
fn transient_faults_can_recover_on_retry() {
    let catalog = tpch_catalog(1);
    let mut w = tpch_workload(1, 22, 1).unwrap();
    let cfg = IndexConfig::empty();

    // Baseline: the true costs with no injection.
    let clean = WhatIfOptimizer::new(&catalog).with_injector(injector(""));
    clean.populate_costs(&mut w);

    // Rate 0.5: attempts draw independently, so most costings recover on
    // some retry and return the *real* cost; the rest fall back.
    let opt = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("whatif_transient:0.5,seed:9"))
        .with_budget(fast_budget());
    let mut recovered = 0;
    for q in &w.queries {
        let got = opt.cost_bound(&q.bound, &cfg);
        let real = q.cost;
        let heuristic = opt.heuristic_cost(&q.bound);
        assert!(
            got.to_bits() == real.to_bits() || got.to_bits() == heuristic.to_bits(),
            "cost is either the real answer or the documented heuristic"
        );
        if got.to_bits() == real.to_bits() {
            recovered += 1;
        }
    }
    // P(4 consecutive 0.5 failures) = 1/16 per costing: most recover.
    assert!(recovered >= 15, "only {recovered}/22 costings recovered");
    assert!(opt.whatif_retries() > 0, "rate 0.5 must trigger retries");

    // Determinism: a second identical pass makes identical decisions.
    let again = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("whatif_transient:0.5,seed:9"))
        .with_budget(fast_budget());
    for q in &w.queries {
        assert_eq!(
            again.cost_bound(&q.bound, &cfg).to_bits(),
            opt.cost_bound(&q.bound, &cfg).to_bits()
        );
    }
}

#[test]
fn permanent_faults_fall_back_exactly_once_per_costing() {
    let catalog = tpch_catalog(1);
    let w = tpch_workload(1, 1, 1).unwrap();
    let q = &w.queries[0];
    let cfg = IndexConfig::empty();

    let opt = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("whatif_permanent:1.0,seed:5"))
        .with_budget(fast_budget());
    let cost = opt.cost_bound(&q.bound, &cfg);
    assert_eq!(cost.to_bits(), opt.heuristic_cost(&q.bound).to_bits());
    assert_eq!(opt.whatif_retries(), 0, "permanent failures are never retried");
    assert_eq!(opt.whatif_fallbacks(), 1, "exactly one fallback");
    assert_eq!(opt.optimizer_calls(), 1, "exactly one (failed) attempt");
}

#[test]
fn cache_never_stores_fallback_costs_and_gauge_stays_exact() {
    let catalog = tpch_catalog(1);
    let mut w = tpch_workload(1, 22, 1).unwrap();
    let cfg = IndexConfig::empty();
    isum_optimizer::populate_costs(&mut w);

    // All-permanent: every cost_query degrades; nothing may be cached.
    let opt = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("whatif_permanent:1.0,seed:2"))
        .with_budget(fast_budget());
    for q in &w.queries {
        let _ = opt.cost_query(&w, q.id, &cfg);
    }
    assert_eq!(opt.cache_entries(), 0, "fallback costs must not be cached");
    assert_eq!(opt.whatif_fallbacks(), w.len() as u64);
    // Degraded costings are re-attempted (not served a stale fallback).
    let calls_before = opt.optimizer_calls();
    for q in &w.queries {
        let _ = opt.cost_query(&w, q.id, &cfg);
    }
    assert!(opt.optimizer_calls() > calls_before, "degraded keys retry the optimizer");

    // Mixed rates: the gauge must equal genuine cached answers exactly.
    let opt = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("whatif_transient:0.6,whatif_permanent:0.2,seed:11"))
        .with_budget(fast_budget());
    let mut real_answers = 0;
    for q in &w.queries {
        let got = opt.cost_query(&w, q.id, &cfg);
        if got.to_bits() != opt.heuristic_cost(&q.bound).to_bits() {
            real_answers += 1;
        }
    }
    assert!(real_answers > 0, "seed 11 should let some costings through");
    assert_eq!(
        opt.cache_entries(),
        real_answers,
        "entry gauge counts exactly the non-fallback answers"
    );
}

#[test]
fn call_budget_exhaustion_degrades_remaining_costings() {
    let catalog = tpch_catalog(1);
    let w = tpch_workload(1, 22, 1).unwrap();
    let cfg = IndexConfig::empty();

    let opt = WhatIfOptimizer::new(&catalog)
        .with_injector(injector(""))
        .with_budget(WhatIfBudget { max_calls: Some(5), ..fast_budget() });
    for (i, q) in w.queries.iter().enumerate() {
        let got = opt.cost_bound(&q.bound, &cfg);
        if i >= 5 {
            assert_eq!(got.to_bits(), opt.heuristic_cost(&q.bound).to_bits());
        }
    }
    assert_eq!(opt.optimizer_calls(), 5, "budget caps real invocations");
    assert_eq!(opt.whatif_fallbacks(), 17, "the rest degrade to the heuristic");
}

#[test]
fn latency_spikes_trip_the_call_timeout() {
    let catalog = tpch_catalog(1);
    let w = tpch_workload(1, 1, 1).unwrap();
    let q = &w.queries[0];
    let cfg = IndexConfig::empty();

    // Spike (20ms) exceeds the timeout (1ms) on every attempt: the call
    // times out, retries, and ultimately falls back.
    let opt = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("latency:1.0,latency_ms:20,seed:1"))
        .with_budget(WhatIfBudget {
            call_timeout: Some(Duration::from_millis(1)),
            max_retries: 1,
            ..fast_budget()
        });
    let got = opt.cost_bound(&q.bound, &cfg);
    assert_eq!(got.to_bits(), opt.heuristic_cost(&q.bound).to_bits());
    assert_eq!(opt.whatif_timeouts(), 2, "initial attempt + 1 retry both time out");
    assert_eq!(opt.whatif_retries(), 1);

    // Without a timeout the spike just delays the real answer.
    let patient = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("latency:1.0,latency_ms:1,seed:1"))
        .with_budget(fast_budget());
    let clean = WhatIfOptimizer::new(&catalog).with_injector(injector(""));
    assert_eq!(
        patient.cost_bound(&q.bound, &cfg).to_bits(),
        clean.cost_bound(&q.bound, &cfg).to_bits()
    );
    assert_eq!(patient.whatif_timeouts(), 0);
    assert_eq!(patient.whatif_fallbacks(), 0);
}

#[test]
fn backoff_schedule_is_capped() {
    let b = WhatIfBudget {
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(16),
        ..WhatIfBudget::default()
    };
    assert_eq!(b.backoff_for(0), Duration::from_millis(1));
    assert_eq!(b.backoff_for(1), Duration::from_millis(2));
    assert_eq!(b.backoff_for(4), Duration::from_millis(16));
    assert_eq!(b.backoff_for(10), Duration::from_millis(16), "capped");
    assert_eq!(b.backoff_for(63), Duration::from_millis(16), "shift overflow capped");

    // Monotone non-decreasing up to the cap.
    for a in 0..20 {
        assert!(b.backoff_for(a + 1) >= b.backoff_for(a));
    }
}

#[test]
fn zero_fault_injector_is_bit_identical_to_plain_costing() {
    let catalog = tpch_catalog(1);
    let w = tpch_workload(1, 22, 4).unwrap();
    let cfg = IndexConfig::empty();
    let plain = WhatIfOptimizer::new(&catalog).with_injector(injector(""));
    let guarded = WhatIfOptimizer::new(&catalog)
        .with_injector(injector("whatif_transient:0.0,parse:0.0"))
        .with_budget(WhatIfBudget::default());
    for q in &w.queries {
        assert_eq!(
            plain.cost_bound(&q.bound, &cfg).to_bits(),
            guarded.cost_bound(&q.bound, &cfg).to_bits()
        );
    }
    assert_eq!(guarded.whatif_fallbacks(), 0);
    assert_eq!(guarded.whatif_retries(), 0);
}
