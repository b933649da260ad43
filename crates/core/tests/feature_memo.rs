//! Featurization memoized per signature against featurizing every query.
//!
//! `Featurizer::group` featurizes a query only when the signature of its
//! indexable columns (ids, positions, `sargable`, and under ISUM-S the
//! selectivity bits) is new, and otherwise reuses the stored vector. The
//! claim is that this is exactly per-query `Featurizer::features` followed
//! by `Grouping::from_queries`: the same group for every query and the same
//! bits in every stored vector. The generated workloads repeat a few shapes
//! with varying literals, so signatures repeat often, while the literals
//! move what the signature must capture: a `LIKE` pattern with a leading
//! `%` is not sargable, `IN`-lists of different lengths have different
//! selectivities, and ranges and disjunctions mix positions.
//! `PROPTEST_CASES` raises the number of generated cases.

use isum_catalog::{Catalog, CatalogBuilder};
use isum_core::{FeatureVec, Featurizer, Grouping, IsumConfig};
use isum_workload::{indexable_columns, Workload};
use proptest::prelude::*;

fn catalog() -> Catalog {
    CatalogBuilder::new()
        .table("t", 200_000)
        .col_key("id")
        .col_int("a", 1_000, 0, 1_000)
        .col_int("b", 40, 0, 40)
        .col_text("s", 5_000, 12)
        .col_date("d", 9_000, 10_000)
        .finish()
        .expect("fresh table")
        .table("u", 2_000)
        .col_key("uid")
        .col_int("ua", 300, 0, 300)
        .col_text("name", 2_000, 8)
        .finish()
        .expect("fresh table")
        .build()
}

/// One generated statement: `(shape, x, y, flag)`.
type RawQuery = (u32, u32, u32, bool);

fn sql(&(shape, x, y, flag): &RawQuery) -> String {
    let pattern = |x: u32| if flag { format!("'x{x}%'") } else { format!("'%x{x}'") };
    match shape {
        0 => format!(
            "SELECT id FROM t WHERE a = {x} AND b = {}{}",
            y % 40,
            if flag { " ORDER BY b" } else { "" }
        ),
        1 => format!("SELECT id FROM t WHERE a > {x} AND b < {} ORDER BY b", y % 40),
        2 => format!("SELECT count(*) FROM t WHERE s LIKE {} GROUP BY b", pattern(x)),
        3 => {
            let list: Vec<String> = (0..=y % 6).map(|i| (x + i * 7).to_string()).collect();
            format!("SELECT id FROM t, u WHERE t.a = u.uid AND u.ua IN ({})", list.join(", "))
        }
        4 => format!(
            "SELECT b, count(*) FROM t WHERE a BETWEEN {x} AND {} GROUP BY b{}",
            x + y % 500,
            if flag { " ORDER BY b" } else { "" }
        ),
        5 => format!("SELECT id FROM t WHERE a = {x} OR b = {}", y % 40),
        6 => format!(
            "SELECT uid FROM u WHERE name LIKE {} AND ua >= {}",
            pattern(y),
            if flag { x % 300 } else { 299 }
        ),
        _ => format!(
            "SELECT id, ua FROM t, u WHERE t.b = u.ua AND d >= DATE '1995-0{}-01' ORDER BY ua",
            1 + x % 9
        ),
    }
}

fn bits(v: &FeatureVec) -> Vec<(isum_common::GlobalColumnId, u64)> {
    v.entries().iter().map(|&(g, w)| (g, w.to_bits())).collect()
}

fn check(raw: &[RawQuery]) {
    let sqls: Vec<String> = raw.iter().map(sql).collect();
    let w = Workload::from_sql(catalog(), &sqls).expect("generated statements bind");
    for config in [IsumConfig::isum(), IsumConfig::isum_s(), IsumConfig::isum_no_table()] {
        let featurizer =
            Featurizer { scheme: config.scheme, use_table_weight: config.use_table_weight };
        let per_query: Vec<FeatureVec> = w
            .queries
            .iter()
            .map(|q| featurizer.features(&indexable_columns(&q.bound, &w.catalog), &w.catalog))
            .collect();
        let expected = Grouping::from_queries(&per_query);
        let memoized = featurizer.group(&w);
        let what = format!("{featurizer:?}");
        assert_eq!(memoized.group_of(), expected.group_of(), "{what}: group of every query");
        assert_eq!(memoized.groups(), expected.groups(), "{what}: group count");
        for g in 0..expected.groups() {
            assert_eq!(bits(memoized.original(g)), bits(expected.original(g)), "{what}: group {g}");
            assert_eq!(bits(memoized.current(g)), bits(expected.current(g)), "{what}: group {g}");
        }
        for (i, v) in per_query.iter().enumerate() {
            assert_eq!(bits(memoized.original_of(i)), bits(v), "{what}: query {i}");
        }
    }
}

proptest! {
    #[test]
    fn memoized_grouping_equals_featurizing_every_query(
        raw in prop::collection::vec((0u32..8, 0u32..600, 0u32..600, any::<bool>()), 1..60),
    ) {
        check(&raw);
    }
}

#[test]
fn literals_that_change_the_signature_change_the_group() {
    // Same shape: a prefix pattern is sargable, a suffix pattern is not.
    check(&[(2, 1, 0, true), (2, 2, 0, false), (2, 3, 0, true)]);
    let sqls: Vec<String> = [(2, 1, 0, true), (2, 2, 0, false)].iter().map(sql).collect();
    let w = Workload::from_sql(catalog(), &sqls).expect("binds");
    let groups = Featurizer::default().group(&w);
    assert_eq!(groups.group_of(), &[0, 1], "sargable flips the rule-based weights");
}
