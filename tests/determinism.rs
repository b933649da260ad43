//! End-to-end determinism regression: the full pipeline — ISUM
//! compression followed by DTA tuning — must produce bit-identical
//! results at 1 thread and at 8 threads.
//!
//! This is the contract that makes `--threads` safe to flip in
//! production: a parallel stage computes independent pure values and
//! reduces them in input-index order, so thread count can change
//! scheduling but never results. No stage of this pipeline is parallel
//! today (DESIGN.md §8); the test holds any that becomes parallel to the
//! contract. The harness's parallel method evaluation is pinned by
//! `crates/experiments/tests/thread_invariance.rs`. The file holds a
//! single test because it reconfigures the process-global thread count.

use isum_advisor::{DtaAdvisor, IndexAdvisor, TuningConstraints};
use isum_common::QueryId;
use isum_core::{Compressor, Isum};
use isum_optimizer::WhatIfOptimizer;
use isum_workload::gen::tpch_workload;

struct PipelineResult {
    selected: Vec<(QueryId, f64)>,
    indexes: Vec<String>,
    improvement: f64,
}

fn run_pipeline() -> PipelineResult {
    let mut w = tpch_workload(1, 33, 7).expect("tpch binds");
    let catalog = isum_workload::gen::tpch::tpch_catalog(1);
    let opt = WhatIfOptimizer::new(&catalog);
    opt.populate_costs(&mut w);
    let compressed = Isum::new().compress(&w, 6).expect("compression succeeds");
    let advisor = DtaAdvisor::new();
    let cfg = advisor.recommend(&opt, &w, &compressed, &TuningConstraints::with_max_indexes(8));
    PipelineResult {
        selected: compressed.entries.clone(),
        indexes: cfg.indexes().iter().map(|ix| ix.display(&catalog)).collect(),
        improvement: opt.improvement_pct(&w, &cfg),
    }
}

#[test]
fn pipeline_is_bit_identical_across_thread_counts() {
    isum_exec::set_global_threads(1);
    let sequential = run_pipeline();
    assert_eq!(sequential.selected.len(), 6, "compression selects k queries");
    assert!(!sequential.indexes.is_empty(), "tuning recommends indexes");

    isum_exec::set_global_threads(8);
    let parallel = run_pipeline();

    let seq_ids: Vec<QueryId> = sequential.selected.iter().map(|&(id, _)| id).collect();
    let par_ids: Vec<QueryId> = parallel.selected.iter().map(|&(id, _)| id).collect();
    assert_eq!(seq_ids, par_ids, "selected query sets diverged");
    for (i, (&(_, ws), &(_, wp))) in sequential.selected.iter().zip(&parallel.selected).enumerate()
    {
        assert_eq!(ws.to_bits(), wp.to_bits(), "weight {i} diverged: {ws} vs {wp}");
    }
    assert_eq!(sequential.indexes, parallel.indexes, "recommended configurations diverged");
    assert_eq!(
        sequential.improvement.to_bits(),
        parallel.improvement.to_bits(),
        "improvement diverged: {} vs {}",
        sequential.improvement,
        parallel.improvement
    );

    // And again at 1 thread, to rule out order-dependent pool state.
    isum_exec::set_global_threads(1);
    let again = run_pipeline();
    assert_eq!(again.improvement.to_bits(), sequential.improvement.to_bits());
}
