//! Indexable-column extraction (Def 5 of the paper).
//!
//! "A column in a query is indexable if it is part of a filter or join
//! condition, or if it specifies the grouping or ordering of tuples."
//! This module folds a [`BoundQuery`] into one [`IndexableColumn`] per
//! distinct catalog column, recording in which positions it appears and the
//! statistics ISUM's weighting needs (best filter selectivity, density).

use isum_catalog::Catalog;
use isum_common::GlobalColumnId;
use isum_sql::BoundQuery;

/// Bitset of syntactic positions a column occupies in a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnPositions {
    /// Appears in a filter predicate.
    pub filter: bool,
    /// Appears in an equi-join predicate.
    pub join: bool,
    /// Appears in `GROUP BY`.
    pub group_by: bool,
    /// Appears in `ORDER BY`.
    pub order_by: bool,
}

impl ColumnPositions {
    /// True when the column occupies at least one indexable position.
    pub fn any(self) -> bool {
        self.filter || self.join || self.group_by || self.order_by
    }

    /// Number of positions occupied.
    pub fn count(self) -> usize {
        self.filter as usize + self.join as usize + self.group_by as usize + self.order_by as usize
    }
}

/// An indexable column of a query with the statistics used for weighting.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexableColumn {
    /// Catalog column identity (the ISUM feature key).
    pub gid: GlobalColumnId,
    /// Positions the column occupies.
    pub positions: ColumnPositions,
    /// Most selective (minimum) selectivity among this column's filter/join
    /// predicates; `1.0` when it only appears in grouping/ordering.
    pub selectivity: f64,
    /// Column density `1/ndv` (Sec 4.2 uses it for group-by/order-by
    /// columns).
    pub density: f64,
    /// Rows of the owning table (for the table-size weight `w_table`).
    pub table_rows: u64,
    /// True when at least one predicate on this column is sargable.
    pub sargable: bool,
}

/// Extracts the deduplicated indexable columns of a query, in first-seen
/// order (first-seen order keeps the output deterministic).
pub fn indexable_columns(bound: &BoundQuery, catalog: &Catalog) -> Vec<IndexableColumn> {
    let mut out: Vec<IndexableColumn> = Vec::new();
    let find = |gid: GlobalColumnId, out: &mut Vec<IndexableColumn>| -> usize {
        if let Some(i) = out.iter().position(|c| c.gid == gid) {
            return i;
        }
        let col = catalog.column(gid);
        out.push(IndexableColumn {
            gid,
            positions: ColumnPositions::default(),
            selectivity: 1.0,
            density: col.stats.density(),
            table_rows: catalog.table(gid.table).row_count,
            sargable: false,
        });
        out.len() - 1
    };

    for f in &bound.filters {
        let i = find(f.column.gid, &mut out);
        out[i].positions.filter = true;
        out[i].selectivity = out[i].selectivity.min(f.selectivity);
        out[i].sargable |= f.sargable && !f.in_disjunction;
    }
    for j in bound.joins.iter() {
        for gid in [j.left.gid, j.right.gid] {
            let i = find(gid, &mut out);
            out[i].positions.join = true;
            out[i].selectivity = out[i].selectivity.min(j.selectivity);
            out[i].sargable = true;
        }
    }
    for g in bound.group_by.iter() {
        let i = find(g.gid, &mut out);
        out[i].positions.group_by = true;
    }
    for o in bound.order_by.iter() {
        let i = find(o.gid, &mut out);
        out[i].positions.order_by = true;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;
    use isum_sql::{parse, Binder};

    fn setup(sql: &str) -> Vec<IndexableColumn> {
        let catalog = CatalogBuilder::new()
            .table("orders", 1500)
            .col_key("o_orderkey")
            .col_int("o_custkey", 150, 1, 150)
            .col_date("o_orderdate", 8035, 10_591)
            .finish()
            .unwrap()
            .table("lineitem", 6000)
            .col_int("l_orderkey", 1500, 1, 1500)
            .col_float("l_quantity", 50, 1.0, 50.0)
            .col_text("l_shipmode", 7, 10)
            .finish()
            .unwrap()
            .build();
        let stmt = parse(sql).unwrap();
        let bound = Binder::new(&catalog).bind(&stmt).unwrap();
        indexable_columns(&bound, &catalog)
    }

    #[test]
    fn extracts_all_four_positions() {
        let cols = setup(
            "SELECT o_custkey, count(*) FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_quantity > 45 \
             GROUP BY o_custkey ORDER BY o_custkey",
        );
        assert_eq!(cols.len(), 4);
        let by_name = |n: usize| &cols[n];
        // Join columns.
        assert!(by_name(0).positions.join || by_name(1).positions.join);
        let qty = cols.iter().find(|c| c.positions.filter).unwrap();
        assert!(qty.selectivity < 0.15);
        let grp = cols.iter().find(|c| c.positions.group_by).unwrap();
        assert!(grp.positions.order_by, "o_custkey groups and orders");
        assert!((grp.density - 1.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn projection_only_columns_are_not_indexable() {
        let cols = setup("SELECT o_custkey FROM orders WHERE o_orderdate > DATE '1995-01-01'");
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].gid, cols.iter().find(|c| c.positions.filter).unwrap().gid);
    }

    #[test]
    fn duplicate_mentions_collapse_keeping_min_selectivity() {
        let cols = setup("SELECT o_orderkey FROM orders WHERE o_custkey > 100 AND o_custkey = 3");
        assert_eq!(cols.len(), 1);
        // Equality (1/150) is far more selective than > 100 (1/3).
        assert!(cols[0].selectivity < 0.01);
        assert!(cols[0].positions.filter);
    }

    #[test]
    fn table_rows_recorded_for_weighting() {
        let cols = setup("SELECT l_quantity FROM lineitem WHERE l_quantity > 45");
        assert_eq!(cols[0].table_rows, 6000);
    }

    #[test]
    fn disjunctive_only_filters_are_not_sargable() {
        let cols = setup("SELECT o_orderkey FROM orders WHERE o_custkey = 1 OR o_custkey = 2");
        assert_eq!(cols.len(), 1);
        assert!(!cols[0].sargable);
        assert!(cols[0].positions.filter);
    }

    #[test]
    fn positions_helpers() {
        let mut p = ColumnPositions::default();
        assert!(!p.any());
        p.join = true;
        p.order_by = true;
        assert!(p.any());
        assert_eq!(p.count(), 2);
    }
}
