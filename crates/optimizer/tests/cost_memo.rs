//! The cost memo beneath the what-if call counter is exact and invisible.
//!
//! `memo_is_direct_costing` checks, over generated shapes, literal
//! variations and random configurations (the same indexes in permuted
//! order among them), that every answer equals a direct
//! [`CostModel::cost`] bit for bit, and that `optimizer_calls()` and
//! `cache_hits()` equal those of a run in which no two costings share the
//! shape lists the memo keys on, so the memo never answers.
//! `tpch_statements_share_cost_evaluations` guards that the memo keeps
//! hitting on a template workload: it only can while the instances of a
//! shape share their lists. `PROPTEST_CASES` raises the number of
//! generated cases.

use std::sync::Arc;

use proptest::prelude::*;

use isum_catalog::{Catalog, CatalogBuilder};
use isum_common::rng::DetRng;
use isum_common::{ColumnId, QueryId, TableId};
use isum_optimizer::{CostModel, Index, IndexConfig, WhatIfOptimizer};
use isum_sql::BoundQuery;
use isum_workload::gen::tpch::{instantiate_template, tpch_catalog};
use isum_workload::{load_script, QueryInfo, Workload};

fn catalog() -> Catalog {
    CatalogBuilder::new()
        .table("f", 2_000_000)
        .col_int("fk1", 10_000, 1, 10_000)
        .col_int("fk2", 500, 1, 500)
        .col_int("v1", 1_000, 0, 100_000)
        .col_int("v2", 50, 0, 50)
        .finish()
        .expect("fresh table")
        .table("d1", 10_000)
        .col_key("d1k")
        .col_int("d1a", 100, 0, 100)
        .finish()
        .expect("unique tables")
        .table("d2", 500)
        .col_key("d2k")
        .col_int("d2a", 20, 0, 20)
        .finish()
        .expect("unique tables")
        .build()
}

/// One filter of a shape: the column and the predicate form.
type FilterShape = (usize, usize);

/// A query shape: joins, filters, grouping, ordering and aggregates.
#[derive(Debug, Clone)]
struct Shape {
    join_d1: bool,
    join_d2: bool,
    filters: Vec<FilterShape>,
    group: bool,
    order: bool,
    sum: bool,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec((0usize..6, 0usize..5), 0..4),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(join_d1, join_d2, filters, group, order, sum)| Shape {
            join_d1,
            join_d2,
            filters,
            group,
            order,
            sum,
        })
}

/// Literals drawn from a few values, so instances repeat signatures.
const LITERALS: [i64; 4] = [7, 40, 450, 90_000];

impl Shape {
    fn sql(&self, literals: &[usize]) -> String {
        let mut from = vec!["f"];
        let mut preds: Vec<String> = Vec::new();
        if self.join_d1 {
            from.push("d1");
            preds.push("f.fk1 = d1.d1k".into());
        }
        if self.join_d2 {
            from.push("d2");
            preds.push("f.fk2 = d2.d2k".into());
        }
        let cols = ["f.v1", "f.v2", "f.fk1", "f.fk2", "d1.d1a", "d2.d2a"];
        for (i, &(c, op)) in self.filters.iter().enumerate() {
            let col = cols[c];
            if col.starts_with("d1") && !self.join_d1 || col.starts_with("d2") && !self.join_d2 {
                continue;
            }
            let a = LITERALS[literals[2 * i] % LITERALS.len()];
            let b = LITERALS[literals[2 * i + 1] % LITERALS.len()];
            preds.push(match op {
                0 => format!("{col} = {a}"),
                1 => format!("{col} <= {a}"),
                2 => format!("{col} BETWEEN {} AND {}", a.min(b), a.max(b)),
                3 => format!("{col} IN ({a}, {b})"),
                _ => format!("({col} = {a} OR f.v2 > {b})"),
            });
        }
        let agg = if self.sum { "sum(f.v1), count(*)" } else { "count(*)" };
        let mut sql = if self.group {
            format!("SELECT f.v2, {agg} FROM {}", from.join(", "))
        } else {
            format!("SELECT f.v1, f.fk1 FROM {}", from.join(", "))
        };
        if !preds.is_empty() {
            sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
        }
        if self.group {
            sql.push_str(" GROUP BY f.v2");
        }
        if self.order {
            sql.push_str(if self.group { " ORDER BY f.v2" } else { " ORDER BY f.v1" });
        }
        sql
    }
}

/// Random configurations; each also appears with its indexes reversed and
/// rotated, which the model may cost differently. Half of them also hold
/// two indexes led by `f.fk1`, one covering `f.v1` and one not, so that an
/// index-nested-loop probe into `f` picks by their order.
fn arb_configs() -> impl Strategy<Value = Vec<Vec<(u32, Vec<u32>)>>> {
    let index = (0u32..3, prop::collection::vec(0u32..4, 1..3));
    let config = (prop::collection::vec(index, 0..5), any::<bool>());
    prop::collection::vec(config, 1..4).prop_map(|specs| {
        let mut out = Vec::new();
        for (mut spec, join_pair) in specs {
            if join_pair {
                spec.insert(0, (0, vec![0]));
                spec.push((0, vec![0, 2]));
            }
            let mut reversed = spec.clone();
            reversed.reverse();
            let mut rotated = spec.clone();
            if !rotated.is_empty() {
                rotated.rotate_left(1);
            }
            out.extend([spec, reversed, rotated]);
        }
        out
    })
}

fn build_config(catalog: &Catalog, spec: &[(u32, Vec<u32>)]) -> IndexConfig {
    let mut cfg = IndexConfig::empty();
    for (t, cols) in spec {
        let table = TableId(*t);
        let ncols = catalog.table(table).columns.len() as u32;
        cfg.add(Index::new(table, cols.iter().map(|c| ColumnId(c % ncols)).collect()));
    }
    cfg
}

/// `q` with freshly allocated shape lists: equal by value, shared with no
/// other query, so the memo can never answer for it.
fn unshared(q: &BoundQuery) -> BoundQuery {
    BoundQuery {
        tables: q.tables.iter().cloned().collect(),
        joins: q.joins.iter().cloned().collect(),
        group_by: q.group_by.iter().copied().collect(),
        order_by: q.order_by.iter().copied().collect(),
        projections: q.projections.iter().copied().collect(),
        ..q.clone()
    }
}

/// `q` with one per-statement input changed, or one shared list swapped
/// for another list of the same query, keeping every other list shared:
/// a memo that keyed on less than the model reads would answer for it
/// with `q`'s cost. `None` when the change does not apply to `q`.
fn tweaked(q: &BoundQuery, how: usize) -> Option<BoundQuery> {
    use isum_sql::FilterKind::{Eq, NotEq};
    let mut t = q.clone();
    match how {
        0 => t.n_aggregates += 1,
        1 => {
            let f = t.filters.first_mut()?;
            f.kind = if f.kind == NotEq { Eq } else { NotEq };
        }
        2 => t.filters.first_mut()?.in_disjunction ^= true,
        3 => t.filters.first_mut()?.sargable ^= true,
        4 => t.filters.last_mut()?.selectivity *= 0.5,
        // Every table of the schema has an even number of columns.
        5 => t.filters.first_mut()?.column.gid.column.0 ^= 1,
        // The model reads a filter's slot and column, never its table.
        6 => {
            let f = t.filters.first_mut()?;
            f.column.slot = (f.column.slot + 1) % q.tables.len();
        }
        7 => t.order_by = Arc::clone(&q.projections),
        8 => t.group_by = Arc::clone(&q.projections),
        _ => t.joins = Arc::from(Vec::new()),
    }
    Some(t)
}

/// One costing of the sequence: a query, a configuration, and how it is
/// costed — 0 through the per-query cache (`cost_query`), 1 without it
/// (`cost_bound`), 2 a clone of the first query, 3.. a [`tweaked`] copy.
type Step = (usize, usize, usize);

proptest! {
    #[test]
    fn memo_is_direct_costing(
        shapes in prop::collection::vec(arb_shape(), 1..4),
        instances in prop::collection::vec((0usize..4, prop::collection::vec(0usize..4, 8)), 1..24),
        specs in arb_configs(),
        steps in prop::collection::vec((0usize..64, 0usize..64, 0usize..13), 1..80),
    ) {
        let sqls: Vec<String> =
            instances.iter().map(|(s, lits)| shapes[s % shapes.len()].sql(lits)).collect();
        let w = Workload::from_sql(catalog(), &sqls).expect("generated SQL binds");
        let configs: Vec<IndexConfig> = specs.iter().map(|s| build_config(&w.catalog, s)).collect();
        // The reference workload: the same queries, no list shared.
        let mut reference = Workload::empty(w.catalog.clone());
        for q in &w.queries {
            reference.queries.push(QueryInfo { bound: unshared(&q.bound), ..q.clone() });
        }
        // Clones of one bound query share its lists, like instances do.
        let clone = w.queries[0].bound.clone();
        prop_assert!(Arc::ptr_eq(&clone.tables, &w.queries[0].bound.tables));

        let model = CostModel::new(&w.catalog);
        let memo = WhatIfOptimizer::new(&w.catalog);
        let plain = WhatIfOptimizer::new(&w.catalog);
        let steps: Vec<Step> = steps;
        for &(q, c, how) in &steps {
            let (q, cfg) = (q % w.len(), &configs[c % configs.len()]);
            let bound = &w.queries[q].bound;
            // Costs `b` through `cost_bound` on both optimizers.
            let both =
                |b: &BoundQuery| (memo.cost_bound(b, cfg), plain.cost_bound(&unshared(b), cfg));
            let (costed, (got, reference_got)) = match how {
                0 => {
                    let id = QueryId::from_index(q);
                    let got = (memo.cost_query(&w, id, cfg), plain.cost_query(&reference, id, cfg));
                    (bound.clone(), got)
                }
                1 => (bound.clone(), both(bound)),
                2 => (clone.clone(), both(&clone)),
                _ => {
                    let Some(t) = tweaked(bound, how - 3) else { continue };
                    // The original first, twice, so its signature is in
                    // the memo (a shape's first costing is not remembered).
                    both(bound);
                    both(bound);
                    let got = both(&t);
                    (t, got)
                }
            };
            let want = model.cost(&costed, cfg).to_bits();
            let spec = &specs[c % specs.len()];
            prop_assert_eq!(got.to_bits(), want, "query {} costed as {} under {:?}", q, how, spec);
            prop_assert_eq!(reference_got.to_bits(), want);
        }
        let reference_evaluations = plain.cost_evaluations();
        prop_assert_eq!(reference_evaluations, plain.optimizer_calls(), "reference hit");
        prop_assert_eq!(memo.optimizer_calls(), plain.optimizer_calls());
        prop_assert_eq!(memo.cache_hits(), plain.cache_hits());
        prop_assert_eq!(memo.cache_entries(), plain.cache_entries());
        prop_assert!(memo.cost_evaluations() <= memo.optimizer_calls());
        prop_assert!(memo.cost_signatures() <= memo.cost_evaluations());
    }
}

/// 2,000 `batch_tpch` generator statements (TPC-H sf 10, seed 42) need a
/// few hundred model evaluations (241 for 219 signatures when this was
/// written); far more would mean instances stopped sharing their shape's
/// lists and the memo only adds work.
#[test]
fn tpch_statements_share_cost_evaluations() {
    const N: u64 = 2_000;
    // Two threads load the script through one shape table, so the
    // instances of a shape share its lists across the chunk edge too.
    isum_exec::set_global_threads(2);
    let mut rng = DetRng::seeded(42);
    let mut script = String::new();
    for i in 0..N as usize {
        script.push_str(instantiate_template(i % 22 + 1, &mut rng).trim_end_matches(';'));
        script.push_str(";\n");
    }
    let w = load_script(tpch_catalog(10), &script).expect("generator statements load");
    let opt = WhatIfOptimizer::new(&w.catalog);
    let empty = IndexConfig::empty();
    for q in &w.queries {
        opt.cost_bound(&q.bound, &empty);
    }
    assert_eq!(opt.optimizer_calls(), N);
    let evaluations = opt.cost_evaluations();
    assert!(
        evaluations * 100 <= N * 15,
        "{evaluations} model evaluations for {N} statements (at most 15 % expected)"
    );
    // Each signature is evaluated once, plus at most once more for the
    // first costing of each shape, which is not remembered.
    assert!(opt.cost_signatures() <= evaluations);
}
