//! The what-if API: cached, call-counted hypothetical costing.
//!
//! Mirrors the AutoAdmin what-if interface \[15\]: the advisor asks "what
//! would query `q` cost under configuration `C`?" without materializing
//! anything. Two production realities are modeled because the paper's
//! Fig 2 measures them: every (query, relevant-config) costing counts as an
//! *optimizer call* (70–80% of tuning time in the paper), and a cache keyed
//! by the per-query relevant index list absorbs repeats, mirroring the
//! optimizer-call–reduction techniques cited in Sec 9.
//!
//! Beneath the call counter sits an exact cost memo (`crate::memo`): a
//! counted call whose cost inputs — the query's shape, its filters and the
//! configuration's relevant indexes in order — were seen before returns
//! the remembered cost instead of evaluating the model again. Counted
//! calls and cache hits are decided before the memo is consulted, so they
//! do not depend on it. The model has no error path, so neither does a
//! costing: every counted call returns the model's answer.
//!
//! # Thread safety
//!
//! [`WhatIfOptimizer`] is `Sync`, so the call sites that run in parallel
//! (DESIGN.md §8) can cost queries against one optimizer from several
//! threads. The cost cache and the memo are each one `Mutex`, never held
//! across a cost-model evaluation. Costing itself
//! ([`CostModel::cost`]) is a pure function of `(query, configuration)`,
//! which makes cached and memoized values deterministic regardless of
//! which thread inserted them. Two threads racing to cost the same
//! uncached key may both invoke the cost model — both compute the
//! identical value, the first insert wins, and each invocation is
//! (correctly) counted as an optimizer call; counters are atomics, so no
//! increment is ever lost.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use isum_catalog::Catalog;
use isum_common::telemetry::{self, Counter};
use isum_common::{count, record_ns, QueryId};
use isum_sql::BoundQuery;
use isum_workload::Workload;

use crate::cost::CostModel;
use crate::index::IndexConfig;
use crate::memo::{ConfigKey, CostMemo, Probe, Signature};

/// One cache key: (workload uid, query, ordered relevant-config key).
type CacheKey = (u64, QueryId, ConfigKey);

/// Cached what-if optimizer over one catalog.
///
/// Per-instance call/hit counters are [`Counter`] atomics so callers can
/// attribute calls to one tuning run; the same increments also feed the
/// process-wide telemetry registry under `optimizer.whatif.*` when
/// telemetry is enabled. The instance is `Sync` — see the module docs for
/// the thread-safety argument.
#[derive(Debug)]
pub struct WhatIfOptimizer<'a> {
    catalog: &'a Catalog,
    model: CostModel<'a>,
    calls: Counter,
    cache_hits: Counter,
    /// Cost-model evaluations (memo misses).
    evaluations: Counter,
    cache: Mutex<HashMap<CacheKey, f64>>,
    memo: Mutex<CostMemo>,
}

impl<'a> WhatIfOptimizer<'a> {
    /// Creates an optimizer over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            model: CostModel::new(catalog),
            calls: Counter::new(),
            cache_hits: Counter::new(),
            evaluations: Counter::new(),
            cache: Mutex::new(HashMap::new()),
            memo: Mutex::new(CostMemo::default()),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// Costs one workload query under a configuration, caching by the
    /// query's *relevant* indexes (those on referenced tables) in
    /// configuration order — the same index set in another order is
    /// another configuration to the model, and to the cache.
    /// The cache also keys on the workload's process-unique
    /// [`Workload::uid`], so one optimizer can safely serve several
    /// workloads over the same catalog (e.g. a workload and its
    /// `restricted_to` subsets) without QueryId collisions — including
    /// when an earlier workload has been dropped and its heap addresses
    /// recycled, which an address-based identity would alias.
    pub fn cost_query(&self, w: &Workload, id: QueryId, cfg: &IndexConfig) -> f64 {
        let q = w.query(id);
        let config = self.config_key(&q.bound, cfg);
        let key = (w.uid(), id, config);
        if let Some(&c) = self.cache().get(&key) {
            self.cache_hits.inc();
            count!("optimizer.whatif.cache_hits");
            return c;
        }
        // Compute outside the lock: the cost model is pure, so a racing
        // thread that also misses produces the identical value.
        let c = self.counted_call(&q.bound, cfg, config);
        let mut cache = self.cache();
        if cache.insert(key, c).is_none() && telemetry::enabled() {
            telemetry::gauge("optimizer.whatif.cache_entries").set(cache.len() as i64);
        }
        c
    }

    /// Costs a bound query without the per-query cache; each call counts
    /// as one optimizer invocation. The answer is memoized per signature
    /// (shape, filters, ordered relevant indexes), so a repeat skips the
    /// model evaluation but still counts as one call.
    pub fn cost_bound(&self, bound: &BoundQuery, cfg: &IndexConfig) -> f64 {
        self.counted_call(bound, cfg, self.config_key(bound, cfg))
    }

    /// The ordered key of `cfg`'s indexes relevant to `bound`; `0`, with no
    /// lock taken, when the configuration is empty.
    fn config_key(&self, bound: &BoundQuery, cfg: &IndexConfig) -> ConfigKey {
        if cfg.is_empty() {
            return 0;
        }
        let tables = bound.referenced_tables();
        self.memo().config_key(cfg, &tables)
    }

    /// One optimizer invocation (counts as an optimizer call), answered
    /// from the memo when its signature was costed before.
    fn counted_call(&self, bound: &BoundQuery, cfg: &IndexConfig, config: ConfigKey) -> f64 {
        self.calls.inc();
        count!("optimizer.whatif.calls");
        if telemetry::enabled() {
            let start = std::time::Instant::now();
            let c = self.memoized(bound, cfg, config);
            record_ns!("optimizer.whatif.cost_ns", start.elapsed().as_nanos() as u64);
            c
        } else {
            self.memoized(bound, cfg, config)
        }
    }

    /// The memo's answer for `bound`'s signature, or the model's, which is
    /// then remembered (from the second costing of a shape on). The memo
    /// is not locked while the model runs: two threads missing on one
    /// signature both evaluate, compute the same value, and the first
    /// insert wins.
    fn memoized(&self, bound: &BoundQuery, cfg: &IndexConfig, config: ConfigKey) -> f64 {
        let Some(sig) = Signature::of(bound, config) else {
            return self.evaluate(bound, cfg);
        };
        let probe = self.memo().probe(&sig);
        let c = match probe {
            Probe::Hit(c) => return c,
            Probe::FirstOfShape => return self.evaluate(bound, cfg),
            Probe::Miss => self.evaluate(bound, cfg),
        };
        let mut memo = self.memo();
        if memo.insert(bound, &sig, c) && telemetry::enabled() {
            telemetry::gauge("optimizer.cost.signatures").set(memo.len() as i64);
        }
        c
    }

    /// One evaluation of the cost model.
    fn evaluate(&self, bound: &BoundQuery, cfg: &IndexConfig) -> f64 {
        self.evaluations.inc();
        count!("optimizer.cost.evaluations");
        self.model.cost(bound, cfg)
    }

    /// Total workload cost `C_I(W)` under a configuration.
    pub fn workload_cost(&self, w: &Workload, cfg: &IndexConfig) -> f64 {
        w.queries.iter().map(|q| self.cost_query(w, q.id, cfg)).sum()
    }

    /// The paper's Improvement (%) metric:
    /// `(C(W) − C_cfg(W)) / C(W) × 100` where `C(W)` uses the queries'
    /// stored costs (the existing design).
    pub fn improvement_pct(&self, w: &Workload, cfg: &IndexConfig) -> f64 {
        let base = w.total_cost();
        if base <= 0.0 {
            return 0.0;
        }
        let tuned = self.workload_cost(w, cfg);
        (base - tuned) / base * 100.0
    }

    /// Fills `C(q)` for every query using the existing design (no
    /// hypothetical indexes) — the pre-processing step the paper assumes
    /// Query Store provides.
    pub fn populate_costs(&self, w: &mut Workload) {
        let costs = self.base_costs(w);
        w.set_costs(&costs);
    }

    /// `C(q)` of every query of `w` under the existing design, without the
    /// per-query cache.
    fn base_costs(&self, w: &Workload) -> Vec<f64> {
        let empty = IndexConfig::empty();
        w.queries.iter().map(|q| self.cost_bound(&q.bound, &empty)).collect()
    }

    /// Number of optimizer invocations so far (cache hits excluded), for
    /// this instance.
    pub fn optimizer_calls(&self) -> u64 {
        self.calls.get()
    }

    /// Number of costings answered from the cache, for this instance.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.get()
    }

    /// Number of cost-model evaluations, for this instance: the counted
    /// calls the memo could not answer.
    pub fn cost_evaluations(&self) -> u64 {
        self.evaluations.get()
    }

    /// Number of distinct signatures the memo holds, for this instance.
    pub fn cost_signatures(&self) -> u64 {
        self.memo().len() as u64
    }

    /// Clears the cost cache (counters and the memo are preserved).
    pub fn clear_cache(&self) {
        self.cache().clear();
        if telemetry::enabled() {
            telemetry::gauge("optimizer.whatif.cache_entries").set(0);
        }
    }

    /// Number of cached (workload, query, relevant-config) entries.
    pub fn cache_entries(&self) -> u64 {
        self.cache().len() as u64
    }

    /// Locks the cache, recovering from poisoning: a panic inside the cost
    /// model can never corrupt the map mid-operation because no costing
    /// happens under the lock.
    fn cache(&self) -> MutexGuard<'_, HashMap<CacheKey, f64>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the memo, recovering from poisoning like [`Self::cache`].
    fn memo(&self) -> MutexGuard<'_, CostMemo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Fills `C(q)` for every query with a scoped optimizer, sidestepping the
/// borrow conflict of holding a [`WhatIfOptimizer`] (which borrows the
/// workload's catalog) while mutating the workload.
pub fn populate_costs(workload: &mut Workload) {
    let costs = WhatIfOptimizer::new(&workload.catalog).base_costs(workload);
    workload.set_costs(&costs);
}

/// Fills the costs the queries of `workload` from index `from` on were
/// not given (`cost <= 0`): one optimizer, [`WhatIfOptimizer::cost_bound`]
/// against the empty configuration, in query order. `isum compress` and
/// the daemon's ingest both fill costs through it, which is what makes a
/// live summary equal the batch one.
pub fn fill_missing_costs(workload: &mut Workload, from: usize) {
    let Workload { catalog, queries, .. } = workload;
    let missing = &mut queries[from..];
    if missing.iter().all(|q| q.cost > 0.0) {
        return;
    }
    let opt = WhatIfOptimizer::new(catalog);
    let empty = IndexConfig::empty();
    for q in missing.iter_mut().filter(|q| q.cost <= 0.0) {
        q.cost = opt.cost_bound(&q.bound, &empty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Index;
    use isum_workload::gen::tpch::{tpch_catalog, tpch_workload};
    use isum_workload::Workload;

    #[test]
    fn populate_costs_fills_positive_costs() {
        let mut w = tpch_workload(1, 22, 1).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        assert!(w.queries.iter().all(|q| q.cost > 0.0));
        assert_eq!(opt.optimizer_calls(), 22);
        // Costs vary by orders of magnitude across TPC-H templates.
        let max = w.queries.iter().map(|q| q.cost).fold(0.0, f64::max);
        let min = w.queries.iter().map(|q| q.cost).fold(f64::MAX, f64::min);
        assert!(max / min > 10.0, "cost spread {min}..{max}");
    }

    #[test]
    fn cache_absorbs_repeat_costings() {
        let mut w = tpch_workload(1, 22, 1).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let cfg = IndexConfig::empty();
        let a = opt.workload_cost(&w, &cfg);
        let calls_after_first = opt.optimizer_calls();
        let b = opt.workload_cost(&w, &cfg);
        assert_eq!(a, b);
        assert_eq!(opt.optimizer_calls(), calls_after_first, "second pass fully cached");
        assert!(opt.cache_hits() >= 22);
    }

    #[test]
    fn cache_distinguishes_relevant_configs() {
        let mut w = tpch_workload(1, 6, 1).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        let li = catalog.table_id("lineitem").unwrap();
        let t = catalog.table(li);
        // Covering index for Q6's shipdate-range aggregation: a bare
        // shipdate index loses to the scan (RID lookups dominate at ~14%
        // selectivity), which is itself correct optimizer behaviour.
        let cfg = IndexConfig::from_indexes([Index::new(
            li,
            ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]
                .iter()
                .map(|n| t.column_id(n).unwrap())
                .collect(),
        )]);
        let base = opt.workload_cost(&w, &IndexConfig::empty());
        let tuned = opt.workload_cost(&w, &cfg);
        assert!(tuned < base, "covering shipdate index helps TPC-H: {tuned} vs {base}");
    }

    #[test]
    fn cache_survives_workload_drop_and_reallocation() {
        // Regression test for address-based cache identity: dropping a
        // cached workload and building a different one often puts the new
        // query buffer at the recycled address, which an `as_ptr`-keyed
        // cache would alias to the dead workload's entries. Uids never
        // recycle, so every fresh workload must cost exactly as if the
        // cache were empty.
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        let cfg = IndexConfig::empty();
        for round in 0..10 {
            // Vary the query count so buffers of several sizes cycle
            // through the allocator.
            let n = 3 + (round % 4);
            let mut w = tpch_workload(1, n, round as u64 + 1).unwrap();
            opt.populate_costs(&mut w);
            for q in &w.queries {
                let direct = opt.cost_bound(&q.bound, &cfg);
                let cached = opt.cost_query(&w, q.id, &cfg);
                assert_eq!(
                    cached, direct,
                    "round {round}: cached cost for query {:?} aliased a dropped workload",
                    q.id
                );
            }
            // `w` drops here; its heap buffers return to the allocator.
        }
    }

    #[test]
    fn one_index_set_in_two_orders_is_two_configurations() {
        // An index-nested-loop probe takes the first index whose leading
        // column matches, so swapping the two lineitem indexes changes the
        // plan, and a cache keyed on the unordered set would answer the
        // first order's cost for both.
        let catalog = tpch_catalog(1);
        let sql = "SELECT o_orderkey, l_quantity FROM orders, lineitem \
                   WHERE o_orderkey = l_orderkey AND o_custkey = 42";
        let w = Workload::from_sql(catalog.clone(), &[sql.to_string()]).unwrap();
        let ix = |table: &str, cols: &[&str]| {
            let t = catalog.table_id(table).unwrap();
            let tab = catalog.table(t);
            Index::new(t, cols.iter().map(|c| tab.column_id(c).unwrap()).collect())
        };
        let custkey = ix("orders", &["o_custkey"]);
        let narrow = ix("lineitem", &["l_orderkey"]);
        let wide = ix("lineitem", &["l_orderkey", "l_quantity"]);
        let first = IndexConfig::from_indexes([custkey.clone(), narrow.clone(), wide.clone()]);
        let second = IndexConfig::from_indexes([custkey, wide, narrow]);
        let model = CostModel::new(&catalog);
        let bound = &w.queries[0].bound;
        let (want_first, want_second) = (model.cost(bound, &first), model.cost(bound, &second));
        assert_eq!(format!("{want_first:.2} {want_second:.2}"), "433.17 193.16");

        let opt = WhatIfOptimizer::new(&catalog);
        for _ in 0..2 {
            assert_eq!(opt.cost_query(&w, QueryId(0), &first).to_bits(), want_first.to_bits());
            assert_eq!(opt.cost_query(&w, QueryId(0), &second).to_bits(), want_second.to_bits());
        }
        assert_eq!((opt.optimizer_calls(), opt.cache_hits(), opt.cache_entries()), (2, 2, 2));
        // The shape's first costing is not remembered; the second is, and
        // answers `cost_bound` without an evaluation.
        assert_eq!(opt.cost_bound(bound, &second).to_bits(), want_second.to_bits());
        assert_eq!((opt.cost_evaluations(), opt.cost_signatures()), (2, 1));
    }

    #[test]
    fn memo_answers_repeats_without_changing_counted_calls() {
        let catalog = tpch_catalog(1);
        let sqls: Vec<String> = [1000, 1000, 1000, 90000]
            .iter()
            .map(|k| format!("SELECT o_custkey FROM orders WHERE o_totalprice < {k}"))
            .collect();
        let w = Workload::from_sql(catalog.clone(), &sqls).unwrap();
        let opt = WhatIfOptimizer::new(&catalog);
        let empty = IndexConfig::empty();
        let costs: Vec<f64> = w.queries.iter().map(|q| opt.cost_bound(&q.bound, &empty)).collect();
        let model = CostModel::new(&catalog);
        for (q, c) in w.queries.iter().zip(&costs) {
            assert_eq!(c.to_bits(), model.cost(&q.bound, &empty).to_bits());
        }
        // Every costing is a counted call. The shape's first costing is
        // not remembered; after it, equal literals share one model
        // evaluation and other literals get their own.
        assert_eq!(opt.optimizer_calls(), 4);
        assert_eq!((opt.cost_evaluations(), opt.cost_signatures()), (3, 2));
    }

    #[test]
    fn optimizer_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<WhatIfOptimizer<'_>>();
    }

    #[test]
    fn concurrent_costing_matches_sequential_and_counts_entries() {
        let mut w = tpch_workload(1, 22, 3).unwrap();
        let catalog = tpch_catalog(1);
        let reference = WhatIfOptimizer::new(&catalog);
        reference.populate_costs(&mut w);
        let cfg = IndexConfig::empty();
        let expected: Vec<f64> =
            w.queries.iter().map(|q| reference.cost_query(&w, q.id, &cfg)).collect();
        let expected_entries = reference.cache_entries();

        // Many threads hammer one shared optimizer with the same costings;
        // values must match the sequential reference bit-for-bit and the
        // entry count must equal the distinct-key count, not the number of
        // insert attempts.
        let opt = WhatIfOptimizer::new(&catalog);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for (q, want) in w.queries.iter().zip(&expected) {
                        let got = opt.cost_query(&w, q.id, &cfg);
                        assert_eq!(got.to_bits(), want.to_bits());
                    }
                });
            }
        });
        assert_eq!(opt.cache_entries(), expected_entries, "one entry per distinct key");
        opt.clear_cache();
        assert_eq!(opt.cache_entries(), 0);
    }

    #[test]
    fn improvement_pct_bounds() {
        let mut w = tpch_workload(1, 22, 2).unwrap();
        let catalog = tpch_catalog(1);
        let opt = WhatIfOptimizer::new(&catalog);
        opt.populate_costs(&mut w);
        assert_eq!(opt.improvement_pct(&w, &IndexConfig::empty()), 0.0);
        let li = catalog.table_id("lineitem").unwrap();
        let t = catalog.table(li);
        let cfg = IndexConfig::from_indexes([
            Index::new(li, vec![t.column_id("l_shipdate").unwrap()]),
            Index::new(li, vec![t.column_id("l_orderkey").unwrap()]),
        ]);
        let imp = opt.improvement_pct(&w, &cfg);
        assert!((0.0..=100.0).contains(&imp), "improvement {imp}");
        assert!(imp > 0.0);
    }
}
