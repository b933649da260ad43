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
use isum_core::{Compressor, Contribution, IncrementalIsum, Isum, IsumConfig};
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

/// Per template of [`repeated_vectors`], in first-seen order: its
/// fingerprint and, per instance, Δ and the feature entries `(table,
/// column, weight)`, all as IEEE-754 bits. The one absolute pin of
/// per-query feature weights and utilities: a change to featurization or
/// to Δ that moves a bit fails here.
type Pinned = (&'static str, &'static [(u64, &'static [(usize, usize, u64)])]);
const PINNED: [Pinned; 4] = [
    (
        "SELECT a FROM t WHERE (b = ?())",
        &[
            (0x407f3e6666666667, &[(0, 1, 0x3ff0000000000000)]),
            (0x407c1e8f5c28f5c3, &[(0, 1, 0x3ff0000000000000)]),
            (0x4078feb851eb851f, &[(0, 1, 0x3ff0000000000000)]),
        ],
    ),
    (
        "SELECT a FROM t WHERE (c > ?()) GROUP BY c",
        &[(0x4062c00000000000, &[(0, 2, 0x3ff0000000000000)])],
    ),
    ("SELECT count(*) FROM t", &[(0, &[])]),
    (
        "SELECT count(*) FROM t WHERE (c = ?()) GROUP BY c ORDER BY c",
        &[(0x406ef00000000000, &[(0, 2, 0x3ff0000000000000)])],
    ),
];

#[test]
fn repeated_vectors_pin_feature_and_delta_bits() {
    let w = repeated_vectors();
    let mut inc = IncrementalIsum::new(IsumConfig::isum());
    inc.observe_workload(&w).expect("observes");
    assert_eq!(inc.len(), 6);
    assert_eq!(inc.distinct_vectors(), 3, "identical vectors are stored once");
    let partial = inc.shard_partial();
    assert_eq!(partial.templates.len(), PINNED.len());
    for ((fingerprint, instances), (pinned_fp, pinned)) in partial.templates.iter().zip(PINNED) {
        assert_eq!(fingerprint, pinned_fp);
        let bits = |c: &Contribution| {
            let entries =
                c.entries.iter().map(|(g, wt)| (g.table.index(), g.column.index(), wt.to_bits()));
            (c.delta.to_bits(), entries.collect::<Vec<_>>())
        };
        let pinned: Vec<_> =
            pinned.iter().map(|(delta, entries)| (*delta, entries.to_vec())).collect();
        assert_eq!(instances.iter().map(bits).collect::<Vec<_>>(), pinned, "{fingerprint}");
    }

    // Four of the six statements can be picked on their features; k = 6
    // also takes the two that cannot (by utility), as batch does.
    for k in [2, 6] {
        assert_equivalent(&w, k, &format!("repeated vectors k={k}"));
    }
}
