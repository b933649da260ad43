//! Streaming/batch equivalence: observing a workload query by query
//! through `IncrementalIsum` and then selecting must produce the *same*
//! compressed workload — same query ids, same weights to the last bit —
//! as one-shot batch `Isum` on the same input.
//!
//! This is the contract that lets the serving daemon (`crates/server`)
//! answer `GET /summary` from its incremental state while promising the
//! result is identical to re-running batch compression from scratch.
//! Pinned across two workload generators (TPC-H and DSB) and two values
//! of `k`, per DESIGN.md §10.

use isum_catalog::CatalogBuilder;
use isum_common::Json;
use isum_core::{Compressor, IncrementalIsum, Isum, IsumConfig};
use isum_workload::gen::{dsb_workload, tpch_workload};
use isum_workload::Workload;

fn assert_equivalent(w: &Workload, k: usize, what: &str) {
    let batch = Isum::new().compress(w, k).expect("batch compresses");

    let mut inc = IncrementalIsum::new(IsumConfig::isum());
    for q in &w.queries {
        inc.observe(q, &w.catalog).expect("generated SQL observes");
    }
    let streamed = inc.select(k).expect("streamed state selects");

    assert_eq!(streamed.len(), batch.len(), "{what}: selection sizes diverge");
    assert_eq!(streamed.ids(), batch.ids(), "{what}: selected query ids diverge");
    for (i, ((sid, sw), (bid, bw))) in streamed.entries.iter().zip(&batch.entries).enumerate() {
        assert_eq!(sid, bid, "{what}: entry {i} id diverges");
        assert_eq!(sw.to_bits(), bw.to_bits(), "{what}: entry {i} weight diverges ({sw} vs {bw})");
    }
}

fn with_costs(mut w: Workload) -> Workload {
    if w.queries.iter().any(|q| q.cost <= 0.0) {
        isum_optimizer::populate_costs(&mut w);
    }
    w
}

#[test]
fn tpch_streaming_matches_batch_at_two_ks() {
    let w = with_costs(tpch_workload(1, 60, 17).expect("tpch binds"));
    for k in [5, 14] {
        assert_equivalent(&w, k, &format!("tpch k={k}"));
    }
}

#[test]
fn dsb_streaming_matches_batch_at_two_ks() {
    let w = with_costs(dsb_workload(1, 48, 23).expect("dsb binds"));
    for k in [5, 14] {
        assert_equivalent(&w, k, &format!("dsb k={k}"));
    }
}

/// Six statements carrying three distinct feature vectors (`{b}` three
/// times, `{c}` twice, and the empty vector of a bare `count(*)`).
fn repeated_vectors() -> Workload {
    let catalog = CatalogBuilder::new()
        .table("t", 500_000)
        .col_key("a")
        .col_int("b", 5_000, 0, 5_000)
        .col_int("c", 100, 0, 100)
        .finish()
        .expect("fresh table")
        .build();
    let mut w = Workload::from_sql(
        catalog,
        &[
            "SELECT a FROM t WHERE b = 1",
            "SELECT a FROM t WHERE b = 2",
            "SELECT a FROM t WHERE c > 50 GROUP BY c",
            "SELECT count(*) FROM t",
            "SELECT a FROM t WHERE b = 3",
            "SELECT count(*) FROM t WHERE c = 9 GROUP BY c ORDER BY c",
        ],
    )
    .expect("queries bind");
    w.set_costs(&[500.0, 450.0, 300.0, 120.0, 400.0, 250.0]);
    w
}

/// `IncrementalIsum::snapshot` of [`repeated_vectors`] as written when the
/// observer stored one feature vector per query. The observer now stores
/// one per distinct vector; the snapshot is the durable format of the
/// serving daemon, so it must not have moved by a byte.
const V1_SNAPSHOT: &str = include_str!("fixtures/incremental_v1.json");

#[test]
fn group_interned_state_reads_and_writes_the_v1_snapshot_bytes() {
    let w = repeated_vectors();
    let mut inc = IncrementalIsum::new(IsumConfig::isum());
    inc.observe_workload(&w).expect("observes");
    assert_eq!(inc.len(), 6);
    assert_eq!(inc.distinct_vectors(), 3, "identical vectors are stored once");
    assert_eq!(inc.snapshot().to_pretty(), V1_SNAPSHOT, "fresh state writes the v1 bytes");

    let v1 = Json::parse(V1_SNAPSHOT).expect("fixture parses");
    let restored = IncrementalIsum::restore(IsumConfig::isum(), &v1).expect("v1 restores");
    assert_eq!(restored.distinct_vectors(), 3, "restore interns the same groups");
    assert_eq!(restored.snapshot().to_pretty(), V1_SNAPSHOT, "restored state writes them back");

    // Four of the six statements can be picked on their features; k = 6
    // also takes the two that cannot (by utility), as batch does.
    for k in [2, 6] {
        assert_equivalent(&w, k, &format!("repeated vectors k={k}"));
        assert_eq!(restored.select(k).expect("selects"), inc.select(k).expect("selects"));
    }
}
