//! Syntactically relevant candidate-index generation.
//!
//! Implements Table 1 of the ISUM paper — the rules index advisors apply to
//! combine a query's indexable columns into candidate indexes:
//!
//! | rule | key order |
//! |------|-----------|
//! | R1 | selection |
//! | R2 | join |
//! | R3 | selection + join |
//! | R4 | join + selection |
//! | R5 | order-by + selection + join |
//! | R6 | group-by + selection + join |
//! | R7 | order-by + join + selection |
//! | R8 | group-by + join + selection |
//!
//! plus a covering extension (selection + every other referenced column of
//! the table, the index-merging–style widening DTA performs) that lets the
//! optimizer use index-only scans.

use isum_catalog::Catalog;
use isum_common::{ColumnId, TableId};
use isum_optimizer::Index;
use isum_sql::BoundQuery;
use isum_workload::{indexable_columns, IndexableColumn};

/// Options bounding candidate generation.
#[derive(Debug, Clone, Copy)]
pub struct CandidateOptions {
    /// Maximum selection columns considered per table (most selective kept).
    pub max_selection_cols: usize,
    /// Maximum key columns in any candidate.
    pub max_key_cols: usize,
    /// Generate the wide covering variants.
    pub covering: bool,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        Self { max_selection_cols: 3, max_key_cols: 8, covering: true }
    }
}

/// Generates the syntactically relevant candidate indexes of one query,
/// deduplicated, grouped by nothing in particular (order is deterministic).
pub fn candidate_indexes(
    bound: &BoundQuery,
    catalog: &Catalog,
    opts: &CandidateOptions,
) -> Vec<Index> {
    let cols = indexable_columns(bound, catalog);
    let mut out: Vec<Index> = Vec::new();
    // Group indexable columns by table.
    let mut tables: Vec<TableId> = cols.iter().map(|c| c.gid.table).collect();
    tables.sort_unstable();
    tables.dedup();

    for table in tables {
        let per: Vec<&IndexableColumn> = cols.iter().filter(|c| c.gid.table == table).collect();
        // Selection columns: sargable filters ordered by selectivity
        // (most selective first — the order advisors key indexes in).
        let mut sel: Vec<&IndexableColumn> =
            per.iter().copied().filter(|c| c.positions.filter && c.sargable).collect();
        sel.sort_by(|a, b| a.selectivity.partial_cmp(&b.selectivity).expect("finite"));
        sel.truncate(opts.max_selection_cols);
        let sel: Vec<ColumnId> = sel.iter().map(|c| c.gid.column).collect();
        let join: Vec<ColumnId> =
            per.iter().copied().filter(|c| c.positions.join).map(|c| c.gid.column).collect();
        let group: Vec<ColumnId> =
            per.iter().copied().filter(|c| c.positions.group_by).map(|c| c.gid.column).collect();
        let order: Vec<ColumnId> =
            per.iter().copied().filter(|c| c.positions.order_by).map(|c| c.gid.column).collect();

        let mut push = |keys: Vec<ColumnId>| {
            let keys: Vec<ColumnId> = keys.into_iter().take(opts.max_key_cols).collect();
            if keys.is_empty() {
                return;
            }
            let ix = Index::new(table, keys);
            if !out.contains(&ix) {
                out.push(ix);
            }
        };

        // R1: each selection column alone, and the full selection prefix.
        for &c in &sel {
            push(vec![c]);
        }
        if sel.len() > 1 {
            push(sel.clone());
        }
        // R2: each join column alone.
        for &c in &join {
            push(vec![c]);
        }
        // R3 / R4.
        if !sel.is_empty() && !join.is_empty() {
            push(concat(&sel, &join));
            push(concat(&join, &sel));
        }
        // R5 / R7 (order-by leading).
        if !order.is_empty() {
            push(concat(&order, &concat(&sel, &join)));
            push(concat(&order, &concat(&join, &sel)));
        }
        // R6 / R8 (group-by leading).
        if !group.is_empty() {
            push(concat(&group, &concat(&sel, &join)));
            push(concat(&group, &concat(&join, &sel)));
        }
        // Covering widening: most selective predicate leads, every other
        // referenced column of this table follows.
        if opts.covering {
            let lead: Vec<ColumnId> = if !sel.is_empty() {
                sel.clone()
            } else if !join.is_empty() {
                vec![join[0]]
            } else if !group.is_empty() {
                group.clone()
            } else {
                Vec::new()
            };
            if !lead.is_empty() {
                let mut rest: Vec<ColumnId> = slot_used_columns(bound, table)
                    .into_iter()
                    .filter(|c| !lead.contains(c))
                    .collect();
                rest.sort_unstable();
                if !rest.is_empty() {
                    push(concat(&lead, &rest));
                }
            }
        }
    }
    out
}

/// All columns of `table` the query references anywhere (projection
/// included) — what a covering index must contain.
fn slot_used_columns(bound: &BoundQuery, table: TableId) -> Vec<ColumnId> {
    let mut out: Vec<ColumnId> = Vec::new();
    let mut add = |t: TableId, c: ColumnId| {
        if t == table && !out.contains(&c) {
            out.push(c);
        }
    };
    for f in &bound.filters {
        add(f.column.gid.table, f.column.gid.column);
    }
    for j in bound.joins.iter() {
        add(j.left.gid.table, j.left.gid.column);
        add(j.right.gid.table, j.right.gid.column);
    }
    for c in bound.group_by.iter().chain(bound.order_by.iter()).chain(bound.projections.iter()) {
        add(c.gid.table, c.gid.column);
    }
    out
}

fn concat(a: &[ColumnId], b: &[ColumnId]) -> Vec<ColumnId> {
    let mut v = a.to_vec();
    for &c in b {
        if !v.contains(&c) {
            v.push(c);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;
    use isum_sql::{parse, Binder};

    fn setup(sql: &str) -> (Catalog, Vec<Index>) {
        let catalog = CatalogBuilder::new()
            .table("orders", 1_500_000)
            .col_key("o_orderkey")
            .col_int("o_custkey", 100_000, 1, 150_000)
            .col_date("o_orderdate", 8035, 10_591)
            .finish()
            .unwrap()
            .table("lineitem", 6_000_000)
            .col_int("l_orderkey", 1_500_000, 1, 1_500_000)
            .col_float("l_quantity", 50, 1.0, 50.0)
            .col_date("l_shipdate", 8035, 10_591)
            .finish()
            .unwrap()
            .build();
        let b = Binder::new(&catalog).bind(&parse(sql).unwrap()).unwrap();
        let cands = candidate_indexes(&b, &catalog, &CandidateOptions::default());
        (catalog, cands)
    }

    fn names(catalog: &Catalog, cands: &[Index]) -> Vec<String> {
        cands.iter().map(|i| i.display(catalog)).collect()
    }

    #[test]
    fn single_filter_generates_r1_and_covering() {
        let (c, cands) = setup("SELECT o_orderdate FROM orders WHERE o_custkey = 7");
        let n = names(&c, &cands);
        assert!(n.contains(&"orders(o_custkey)".to_string()), "{n:?}");
        assert!(
            n.iter().any(|s| s.starts_with("orders(o_custkey, ")),
            "covering variant expected: {n:?}"
        );
    }

    #[test]
    fn join_query_generates_r2_r3_r4() {
        let (c, cands) = setup(
            "SELECT o_orderdate FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_quantity < 5",
        );
        let n = names(&c, &cands);
        assert!(n.contains(&"orders(o_orderkey)".to_string()), "R2: {n:?}");
        assert!(n.contains(&"lineitem(l_orderkey)".to_string()), "R2: {n:?}");
        assert!(n.contains(&"lineitem(l_quantity, l_orderkey)".to_string()), "R3: {n:?}");
        assert!(n.contains(&"lineitem(l_orderkey, l_quantity)".to_string()), "R4: {n:?}");
    }

    #[test]
    fn group_and_order_lead_r5_to_r8() {
        let (c, cands) = setup(
            "SELECT o_custkey, count(*) FROM orders WHERE o_orderdate < DATE '1995-01-01' \
             GROUP BY o_custkey ORDER BY o_custkey",
        );
        let n = names(&c, &cands);
        assert!(
            n.contains(&"orders(o_custkey, o_orderdate)".to_string()),
            "group-by leading: {n:?}"
        );
    }

    #[test]
    fn candidates_are_deduplicated_and_bounded() {
        let (_, cands) = setup(
            "SELECT o_custkey, count(*) FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND o_orderdate < DATE '1995-01-01' \
             AND l_quantity < 10 AND l_shipdate > DATE '1997-01-01' \
             GROUP BY o_custkey ORDER BY o_custkey",
        );
        let mut seen = std::collections::HashSet::new();
        for ix in &cands {
            assert!(seen.insert(ix.clone()), "duplicate candidate {ix:?}");
            assert!(ix.key_columns.len() <= 8);
        }
        assert!(cands.len() >= 8, "rich query should have many candidates, got {}", cands.len());
        assert!(cands.len() <= 40, "and not explode: {}", cands.len());
    }

    #[test]
    fn no_indexable_columns_no_candidates() {
        let (_, cands) = setup("SELECT o_orderkey FROM orders");
        assert!(cands.is_empty());
    }

    #[test]
    fn options_control_width() {
        let catalog = CatalogBuilder::new()
            .table("t", 1000)
            .col_int("a", 100, 0, 100)
            .col_int("b", 100, 0, 100)
            .col_int("c", 100, 0, 100)
            .col_int("d", 100, 0, 100)
            .finish()
            .unwrap()
            .build();
        let b = Binder::new(&catalog)
            .bind(&parse("SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3 AND d = 4").unwrap())
            .unwrap();
        let narrow = candidate_indexes(
            &b,
            &catalog,
            &CandidateOptions { max_selection_cols: 1, max_key_cols: 2, covering: false },
        );
        assert!(narrow.iter().all(|ix| ix.key_columns.len() <= 2));
        let wide = candidate_indexes(&b, &catalog, &CandidateOptions::default());
        assert!(wide.iter().any(|ix| ix.key_columns.len() >= 3));
    }
}
