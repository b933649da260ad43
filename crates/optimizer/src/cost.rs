//! The cost model: access paths, join ordering, aggregation and sort costs.
//!
//! Costs are unitless "optimizer cost units" like SQL Server's; only
//! *relative* behaviour matters (who wins, by what factor). The model
//! captures the effects indexes actually have:
//!
//! * a seek on a key prefix replaces a scan, paying per *matched* row;
//! * covering indexes avoid per-row RID lookups and allow narrow
//!   index-only scans;
//! * indexes on join columns enable index-nested-loop joins that beat hash
//!   joins when the outer side is small;
//! * indexes whose leading key matches the grouping/ordering discharge
//!   sorts.

use isum_catalog::Catalog;
use isum_common::{ColumnId, TableId};
use isum_sql::{BoundJoin, BoundQuery};

use crate::index::{Index, IndexConfig};
use crate::plan::PlanNode;

/// Cost of sequentially reading one page.
pub const IO_PAGE: f64 = 1.0;
/// Cost of one random page access (seeks, RID lookups).
pub const RAND_IO: f64 = 4.0;
/// CPU cost of processing one row.
pub const CPU_ROW: f64 = 0.002;
/// B-tree descent cost (root-to-leaf).
pub const SEEK_BASE: f64 = 3.0 * RAND_IO;
/// Per-row hash-join build cost.
pub const HASH_BUILD: f64 = 0.004;
/// Per-row hash-join probe cost.
pub const HASH_PROBE: f64 = 0.002;
/// Per-row aggregation cost.
pub const CPU_AGG: f64 = 0.004;

/// Per-query cost breakdown, useful for debugging and the ablation benches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryCostBreakdown {
    /// Sum of access-path costs for all table instances.
    pub access: f64,
    /// Join (hash build/probe or nested-loop seek) costs.
    pub join: f64,
    /// Aggregation cost.
    pub aggregate: f64,
    /// Sort cost (zero when discharged by an index ordering).
    pub sort: f64,
}

impl QueryCostBreakdown {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.access + self.join + self.aggregate + self.sort
    }
}

/// The stateless cost model over a catalog.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    catalog: &'a Catalog,
}

/// Result of access-path selection for one slot.
#[derive(Debug, Clone)]
struct AccessPath {
    cost: f64,
    /// Rows produced after applying all local predicates.
    out_rows: f64,
    /// Leading key column when the output is ordered by an index.
    ordered_by: Option<ColumnId>,
    /// The physical operator this path corresponds to.
    node: PlanNode,
}

/// Per-slot predicate summary extracted from a [`BoundQuery`].
#[derive(Debug, Clone)]
struct SlotInfo {
    table: TableId,
    rows: f64,
    /// Product of conjunctive filter selectivities.
    filter_sel: f64,
    /// Sargable equality predicates: (column, selectivity).
    eq: Vec<(ColumnId, f64)>,
    /// Sargable range predicates: (column, selectivity).
    range: Vec<(ColumnId, f64)>,
    /// Every column of this slot the query touches (covering check).
    used: Vec<ColumnId>,
    /// Join columns on this slot (for INL eligibility).
    join_cols: Vec<ColumnId>,
}

impl<'a> CostModel<'a> {
    /// Creates a model over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// Costs a bound query under a hypothetical index configuration.
    pub fn cost(&self, q: &BoundQuery, cfg: &IndexConfig) -> f64 {
        self.cost_breakdown(q, cfg).total()
    }

    /// Costs a bound query, returning the component breakdown.
    pub fn cost_breakdown(&self, q: &BoundQuery, cfg: &IndexConfig) -> QueryCostBreakdown {
        self.build(q, cfg).1
    }

    /// The physical plan the model priced — this library's `EXPLAIN`.
    /// Returns `None` for queries without table references.
    pub fn plan(&self, q: &BoundQuery, cfg: &IndexConfig) -> Option<PlanNode> {
        self.build(q, cfg).0
    }

    /// Builds the plan and its cost breakdown together, guaranteeing the
    /// two always agree.
    fn build(&self, q: &BoundQuery, cfg: &IndexConfig) -> (Option<PlanNode>, QueryCostBreakdown) {
        let slots = self.analyze_slots(q);
        if slots.is_empty() {
            return (None, QueryCostBreakdown::default());
        }
        let mut bd = QueryCostBreakdown::default();

        // Access path per slot.
        let paths: Vec<AccessPath> = slots.iter().map(|s| self.best_access_path(s, cfg)).collect();

        // Greedy join order: start from the smallest output, repeatedly take
        // the connected slot with the smallest output (falling back to a
        // cross product only when the graph is disconnected).
        let n = slots.len();
        let mut joined = vec![false; n];
        let start = (0..n)
            .min_by(|&a, &b| paths[a].out_rows.partial_cmp(&paths[b].out_rows).expect("finite"))
            .expect("non-empty");
        joined[start] = true;
        bd.access += paths[start].cost;
        let mut current_rows = paths[start].out_rows;
        let mut tree = paths[start].node.clone();
        let mut last_order: Option<(usize, ColumnId)> = paths[start].ordered_by.map(|c| (start, c));

        for _ in 1..n {
            // Pick the next slot: connected ones first, smallest output first.
            let next = (0..n)
                .filter(|&i| !joined[i])
                .min_by_key(|&i| {
                    let connected = connecting_edges(q, &joined, i).next().is_some();
                    (!connected, ordered_float(paths[i].out_rows))
                })
                .expect("remaining slot");
            let edges: Vec<&BoundJoin> = connecting_edges(q, &joined, next).collect();
            let s = &slots[next];
            let p = &paths[next];
            if edges.is_empty() {
                // Cross product (rare; keeps disconnected graphs costable).
                bd.access += p.cost;
                let join_cost = HASH_PROBE * (current_rows + p.out_rows);
                bd.join += join_cost;
                current_rows *= p.out_rows.max(1.0);
                tree = PlanNode::CrossJoin {
                    left: Box::new(tree),
                    right: Box::new(p.node.clone()),
                    rows: current_rows,
                    cost: join_cost,
                };
                joined[next] = true;
                last_order = None;
                continue;
            }
            let edge_sel: f64 = edges.iter().map(|e| e.selectivity).product();
            let semi = edges.iter().any(|e| e.semi);
            let mut result = current_rows * p.out_rows * edge_sel;
            if semi {
                result = result.min(current_rows);
            }
            // Hash join: build the smaller side, probe with both.
            let hash_cost = p.cost
                + HASH_BUILD * current_rows.min(p.out_rows)
                + HASH_PROBE * (current_rows + p.out_rows);
            // Index nested loop: requires an index whose leading key is one
            // of the join columns of this slot.
            let best_inl: Option<(f64, &Index)> = edges
                .iter()
                .filter_map(|e| {
                    let col =
                        if e.left.slot == next { e.left.gid.column } else { e.right.gid.column };
                    self.inl_seek_cost(s, col, cfg, edge_sel)
                })
                .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite costs"));
            let inl_cost = best_inl.map_or(f64::INFINITY, |(per_row, _)| per_row * current_rows);
            current_rows = result.max(0.0);
            if inl_cost < hash_cost {
                bd.join += inl_cost;
                let (_, ix) = best_inl.expect("finite INL cost implies an index");
                tree = PlanNode::IndexNestedLoopJoin {
                    outer: Box::new(tree),
                    table: s.table,
                    index: ix.clone(),
                    rows: current_rows,
                    cost: inl_cost,
                };
            } else {
                bd.access += p.cost;
                bd.join += hash_cost - p.cost;
                tree = PlanNode::HashJoin {
                    left: Box::new(tree),
                    right: Box::new(p.node.clone()),
                    semi,
                    rows: current_rows,
                    cost: hash_cost - p.cost,
                };
            }
            joined[next] = true;
            last_order = None;
        }

        // Aggregation.
        if q.n_aggregates > 0 || !q.group_by.is_empty() {
            bd.aggregate = current_rows * CPU_AGG;
            if !q.group_by.is_empty() {
                let groups: f64 = q
                    .group_by
                    .iter()
                    .map(|g| self.catalog.column(g.gid).stats.distinct as f64)
                    .product::<f64>()
                    .min(current_rows);
                current_rows = groups.max(1.0);
            } else {
                current_rows = 1.0;
            }
            tree = PlanNode::HashAggregate {
                input: Box::new(tree),
                groups: q.group_by.len(),
                rows: current_rows,
                cost: bd.aggregate,
            };
        }

        // Sort: discharged when the (single-table) access path already
        // delivers the order-by leading column's order.
        if !q.order_by.is_empty() && current_rows > 1.0 {
            let discharged = n == 1
                && matches!(
                    (last_order, q.order_by.first()),
                    (Some((slot, col)), Some(ob)) if ob.slot == slot && ob.gid.column == col
                );
            if !discharged {
                bd.sort = current_rows * current_rows.max(2.0).log2() * CPU_ROW;
                tree = PlanNode::Sort { input: Box::new(tree), rows: current_rows, cost: bd.sort };
            }
        }
        (Some(tree), bd)
    }

    /// Analyzes the query into per-slot predicate summaries.
    fn analyze_slots(&self, q: &BoundQuery) -> Vec<SlotInfo> {
        let mut slots: Vec<SlotInfo> = q
            .tables
            .iter()
            .map(|t| SlotInfo {
                table: t.table,
                rows: self.catalog.table(t.table).row_count as f64,
                filter_sel: 1.0,
                eq: Vec::new(),
                range: Vec::new(),
                used: Vec::new(),
                join_cols: Vec::new(),
            })
            .collect();
        let touch = |slots: &mut Vec<SlotInfo>, slot: usize, col: ColumnId| {
            let used = &mut slots[slot].used;
            if !used.contains(&col) {
                used.push(col);
            }
        };
        for f in &q.filters {
            let s = f.column.slot;
            touch(&mut slots, s, f.column.gid.column);
            if !f.in_disjunction {
                slots[s].filter_sel *= f.selectivity;
            } else {
                // Disjunctive filters restrict weakly; apply the square root
                // so OR-heavy queries (TPC-H Q19) still see some reduction.
                slots[s].filter_sel *= f.selectivity.sqrt();
            }
            if f.sargable && !f.in_disjunction {
                use isum_sql::FilterKind::*;
                match f.kind {
                    Eq | InList | Like | Null => {
                        slots[s].eq.push((f.column.gid.column, f.selectivity))
                    }
                    Range => slots[s].range.push((f.column.gid.column, f.selectivity)),
                    _ => {}
                }
            }
        }
        for j in q.joins.iter() {
            for bc in [j.left, j.right] {
                touch(&mut slots, bc.slot, bc.gid.column);
                slots[bc.slot].join_cols.push(bc.gid.column);
            }
        }
        for g in q.group_by.iter().chain(q.order_by.iter()).chain(q.projections.iter()) {
            touch(&mut slots, g.slot, g.gid.column);
        }
        for s in &mut slots {
            s.filter_sel = s.filter_sel.clamp(0.0, 1.0);
        }
        slots
    }

    /// Chooses the cheapest access path for one slot.
    fn best_access_path(&self, s: &SlotInfo, cfg: &IndexConfig) -> AccessPath {
        let table = self.catalog.table(s.table);
        let out_rows = (s.rows * s.filter_sel).max(0.0);
        // Heap scan baseline.
        let scan_cost = table.pages() as f64 * IO_PAGE + s.rows * CPU_ROW;
        let mut best = AccessPath {
            cost: scan_cost,
            out_rows,
            ordered_by: None,
            node: PlanNode::SeqScan { table: s.table, rows: out_rows, cost: scan_cost },
        };
        for ix in cfg.on_table(s.table) {
            if let Some(p) = self.index_path(s, ix, out_rows) {
                if p.cost < best.cost {
                    best = p;
                }
            }
        }
        best
    }

    /// Costs one index for a slot: seek on the matched key prefix, or a
    /// covering index-only scan; `None` when the index is useless here.
    fn index_path(&self, s: &SlotInfo, ix: &Index, out_rows: f64) -> Option<AccessPath> {
        let covering = s.used.iter().all(|c| ix.contains(*c));
        // Key-prefix matching: consume equality predicates along the prefix,
        // then at most one range predicate.
        let mut matched_sel = 1.0;
        let mut matched_any = false;
        for &col in &ix.key_columns {
            if let Some(&(_, sel)) = s.eq.iter().find(|(c, _)| *c == col) {
                matched_sel *= sel;
                matched_any = true;
                continue;
            }
            if let Some(&(_, sel)) = s.range.iter().find(|(c, _)| *c == col) {
                matched_sel *= sel;
                matched_any = true;
            }
            break;
        }
        let ix_pages = ix.pages(self.catalog) as f64;
        if matched_any {
            let matched_rows = s.rows * matched_sel;
            let leaf_io = (ix_pages * matched_sel).max(1.0) * IO_PAGE;
            let lookup = if covering { 0.0 } else { matched_rows * RAND_IO };
            let cost = SEEK_BASE + leaf_io + matched_rows * CPU_ROW + lookup;
            Some(AccessPath {
                cost,
                out_rows,
                ordered_by: Some(ix.leading()),
                node: PlanNode::IndexSeek {
                    table: s.table,
                    index: ix.clone(),
                    covering,
                    rows: out_rows,
                    cost,
                },
            })
        } else if covering {
            // Index-only scan: narrower than the heap.
            let cost = ix_pages * IO_PAGE + s.rows * CPU_ROW;
            Some(AccessPath {
                cost,
                out_rows,
                ordered_by: Some(ix.leading()),
                node: PlanNode::IndexOnlyScan {
                    table: s.table,
                    index: ix.clone(),
                    rows: out_rows,
                    cost,
                },
            })
        } else {
            None
        }
    }

    /// Per-outer-row cost of an index-nested-loop probe into this slot via
    /// `join_col`; `None` when no index has that leading key.
    fn inl_seek_cost<'c>(
        &self,
        s: &SlotInfo,
        join_col: ColumnId,
        cfg: &'c IndexConfig,
        edge_sel: f64,
    ) -> Option<(f64, &'c Index)> {
        let ix = cfg.on_table(s.table).find(|ix| ix.leading() == join_col)?;
        let covering = s.used.iter().all(|c| ix.contains(*c));
        let matches = (s.rows * edge_sel * s.filter_sel).max(0.0);
        let lookup = if covering { 0.0 } else { matches * RAND_IO };
        Some((2.0 * RAND_IO + matches * CPU_ROW + lookup, ix))
    }
}

/// Edges between `slot` and the already-joined set.
fn connecting_edges<'q>(
    q: &'q BoundQuery,
    joined: &'q [bool],
    slot: usize,
) -> impl Iterator<Item = &'q BoundJoin> {
    q.joins.iter().filter(move |j| {
        (j.left.slot == slot && joined[j.right.slot])
            || (j.right.slot == slot && joined[j.left.slot])
    })
}

fn ordered_float(f: f64) -> u64 {
    // Total order for non-negative finite floats via the IEEE bit trick.
    f.max(0.0).to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;
    use isum_sql::{parse, Binder};

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .table("orders", 1_500_000)
            .col_key("o_orderkey")
            .col_int("o_custkey", 100_000, 1, 150_000)
            .col_date("o_orderdate", 8035, 10_591)
            .col_float("o_totalprice", 1_000_000, 850.0, 560_000.0)
            .finish()
            .unwrap()
            .table("lineitem", 6_000_000)
            .col_int("l_orderkey", 1_500_000, 1, 1_500_000)
            .col_float("l_quantity", 50, 1.0, 50.0)
            .col_date("l_shipdate", 8035, 10_591)
            .col_float("l_extendedprice", 900_000, 900.0, 105_000.0)
            .finish()
            .unwrap()
            .build()
    }

    fn bound(c: &Catalog, sql: &str) -> BoundQuery {
        Binder::new(c).bind(&parse(sql).unwrap()).unwrap()
    }

    fn orders_ix(c: &Catalog, cols: &[&str]) -> Index {
        let t = c.table_id("orders").unwrap();
        let tab = c.table(t);
        Index::new(t, cols.iter().map(|n| tab.column_id(n).unwrap()).collect())
    }

    fn lineitem_ix(c: &Catalog, cols: &[&str]) -> Index {
        let t = c.table_id("lineitem").unwrap();
        let tab = c.table(t);
        Index::new(t, cols.iter().map(|n| tab.column_id(n).unwrap()).collect())
    }

    #[test]
    fn selective_filter_index_beats_scan() {
        let c = catalog();
        let m = CostModel::new(&c);
        let q = bound(&c, "SELECT o_totalprice FROM orders WHERE o_custkey = 42");
        let base = m.cost(&q, &IndexConfig::empty());
        let with = m.cost(&q, &IndexConfig::from_indexes([orders_ix(&c, &["o_custkey"])]));
        assert!(with < base / 10.0, "seek {with} should crush scan {base}");
    }

    #[test]
    fn unselective_range_prefers_scan() {
        let c = catalog();
        let m = CostModel::new(&c);
        // 90% of the table: lookups would dominate; scan must win.
        let q = bound(&c, "SELECT o_totalprice FROM orders WHERE o_orderdate >= DATE '1992-09-01'");
        let base = m.cost(&q, &IndexConfig::empty());
        let with = m.cost(&q, &IndexConfig::from_indexes([orders_ix(&c, &["o_orderdate"])]));
        assert!((with - base).abs() < 1e-9, "optimizer must not regress: {with} vs {base}");
    }

    #[test]
    fn covering_index_avoids_lookups() {
        let c = catalog();
        let m = CostModel::new(&c);
        let q = bound(
            &c,
            "SELECT o_totalprice FROM orders WHERE o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1995-03-31'",
        );
        let narrow = m.cost(&q, &IndexConfig::from_indexes([orders_ix(&c, &["o_orderdate"])]));
        let covering = m.cost(
            &q,
            &IndexConfig::from_indexes([orders_ix(&c, &["o_orderdate", "o_totalprice"])]),
        );
        assert!(covering < narrow, "covering {covering} vs lookups {narrow}");
    }

    #[test]
    fn multi_column_index_matches_eq_prefix_then_range() {
        let c = catalog();
        let m = CostModel::new(&c);
        let q = bound(
            &c,
            "SELECT o_orderkey FROM orders WHERE o_custkey = 7 AND o_orderdate < DATE '1994-01-01'",
        );
        let single = m.cost(&q, &IndexConfig::from_indexes([orders_ix(&c, &["o_custkey"])]));
        let compound =
            m.cost(&q, &IndexConfig::from_indexes([orders_ix(&c, &["o_custkey", "o_orderdate"])]));
        assert!(compound < single, "compound {compound} vs single {single}");
    }

    #[test]
    fn join_index_enables_nested_loops() {
        let c = catalog();
        let m = CostModel::new(&c);
        let q = bound(
            &c,
            "SELECT o_orderkey FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND o_custkey = 42",
        );
        let base = m.cost(&q, &IndexConfig::empty());
        let cfg = IndexConfig::from_indexes([
            orders_ix(&c, &["o_custkey"]),
            lineitem_ix(&c, &["l_orderkey"]),
        ]);
        let with = m.cost(&q, &cfg);
        assert!(with < base / 20.0, "selective INL {with} vs hash over scans {base}");
    }

    #[test]
    fn sort_discharged_by_matching_index_order() {
        let c = catalog();
        let m = CostModel::new(&c);
        let q =
            bound(&c, "SELECT o_custkey FROM orders WHERE o_custkey > 140000 ORDER BY o_custkey");
        let bd_scan = m.cost_breakdown(&q, &IndexConfig::empty());
        assert!(bd_scan.sort > 0.0);
        let bd_ix =
            m.cost_breakdown(&q, &IndexConfig::from_indexes([orders_ix(&c, &["o_custkey"])]));
        assert_eq!(bd_ix.sort, 0.0, "index order discharges the sort");
    }

    #[test]
    fn aggregation_adds_cost_and_groups_reduce_rows() {
        let c = catalog();
        let m = CostModel::new(&c);
        let plain = bound(&c, "SELECT o_orderkey FROM orders");
        let agg = bound(&c, "SELECT count(*) FROM orders GROUP BY o_custkey");
        let bd_plain = m.cost_breakdown(&plain, &IndexConfig::empty());
        let bd_agg = m.cost_breakdown(&agg, &IndexConfig::empty());
        assert_eq!(bd_plain.aggregate, 0.0);
        assert!(bd_agg.aggregate > 0.0);
    }

    #[test]
    fn cost_is_monotone_in_indexes() {
        // Adding an index can never increase estimated cost (the optimizer
        // can ignore it) — a key invariant for greedy enumeration.
        let c = catalog();
        let m = CostModel::new(&c);
        let q = bound(
            &c,
            "SELECT o_orderkey, count(*) FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_quantity < 5 AND o_orderdate > DATE '1997-01-01' \
             GROUP BY o_orderkey ORDER BY o_orderkey",
        );
        let mut cfg = IndexConfig::empty();
        let mut prev = m.cost(&q, &cfg);
        for ix in [
            lineitem_ix(&c, &["l_quantity"]),
            orders_ix(&c, &["o_orderdate"]),
            lineitem_ix(&c, &["l_orderkey"]),
            orders_ix(&c, &["o_orderkey", "o_orderdate"]),
        ] {
            cfg.add(ix);
            let now = m.cost(&q, &cfg);
            assert!(now <= prev + 1e-9, "cost regressed: {now} > {prev}");
            prev = now;
        }
    }

    #[test]
    fn irrelevant_index_changes_nothing() {
        let c = catalog();
        let m = CostModel::new(&c);
        let q = bound(&c, "SELECT l_quantity FROM lineitem WHERE l_quantity < 2");
        let base = m.cost(&q, &IndexConfig::empty());
        let with = m.cost(&q, &IndexConfig::from_indexes([orders_ix(&c, &["o_custkey"])]));
        assert_eq!(base, with);
    }

    #[test]
    fn semi_join_caps_cardinality() {
        let c = catalog();
        let m = CostModel::new(&c);
        let q = bound(
            &c,
            "SELECT o_orderkey FROM orders WHERE o_orderkey IN \
             (SELECT l_orderkey FROM lineitem WHERE l_quantity > 49)",
        );
        // Mostly a sanity check: costable, positive, finite.
        let cost = m.cost(&q, &IndexConfig::empty());
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn breakdown_totals_add_up() {
        let c = catalog();
        let m = CostModel::new(&c);
        let q = bound(
            &c,
            "SELECT o_custkey, count(*) FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey GROUP BY o_custkey ORDER BY o_custkey",
        );
        let bd = m.cost_breakdown(&q, &IndexConfig::empty());
        assert!((bd.total() - (bd.access + bd.join + bd.aggregate + bd.sort)).abs() < 1e-12);
        assert!(bd.access > 0.0 && bd.join > 0.0);
    }
}
