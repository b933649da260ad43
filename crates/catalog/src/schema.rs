//! Schema objects: catalog, tables, columns, and column statistics.

use std::borrow::Cow;
use std::collections::HashMap;

use isum_common::{ColumnId, Error, GlobalColumnId, Result, TableId};

use crate::histogram::Histogram;

/// Logical column type. Dates are represented as days-since-epoch integers,
/// and text columns carry only statistics (no values are stored anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer (also used for surrogate keys).
    Int,
    /// 64-bit float / decimal.
    Float,
    /// Variable-length text.
    Text,
    /// Calendar date stored as days since an epoch.
    Date,
}

impl ColumnType {
    /// True for types with a meaningful linear order used by range predicates.
    pub fn is_ordered(self) -> bool {
        !matches!(self, ColumnType::Text)
    }
}

/// Statistics maintained per column, mirroring what a production system keeps
/// in its statistics objects (SQL Server `sys.stats` / PostgreSQL `pg_stats`).
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of distinct values; the paper's *density* is `1 / distinct`.
    pub distinct: u64,
    /// Domain minimum (for ordered types).
    pub min: f64,
    /// Domain maximum (for ordered types).
    pub max: f64,
    /// Fraction of NULLs in `\[0, 1\]`.
    pub null_frac: f64,
    /// Average stored width in bytes (drives index size estimates).
    pub avg_width: u32,
    /// Optional equi-depth histogram for finer range selectivity.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Statistics for a column with `distinct` uniform values over
    /// `[min, max]`.
    pub fn uniform(distinct: u64, min: f64, max: f64, avg_width: u32) -> Self {
        Self { distinct: distinct.max(1), min, max, null_frac: 0.0, avg_width, histogram: None }
    }

    /// The paper's density statistic: `1 / distinct` (Sec 4.2).
    pub fn density(&self) -> f64 {
        1.0 / self.distinct.max(1) as f64
    }
}

/// `name` lower-cased for a lookup; names that already are — every name
/// the SQL parser hands out — are not copied.
fn lower_cased(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// A column: name, type, statistics.
#[derive(Debug, Clone)]
pub struct Column {
    /// Lower-cased column name, unique within its table.
    pub name: String,
    /// Logical type.
    pub ty: ColumnType,
    /// Statistics.
    pub stats: ColumnStats,
}

/// A table: name, cardinality, columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// Lower-cased table name, unique within the catalog.
    pub name: String,
    /// Row count.
    pub row_count: u64,
    /// Average row width in bytes (sum of column widths plus header).
    pub row_width: u32,
    /// Columns in declaration order; [`ColumnId`] indexes this vector.
    pub columns: Vec<Column>,
    name_to_col: HashMap<String, ColumnId>,
}

/// Bytes per page assumed by the size/cost models (8 KiB, the SQL Server
/// page size).
pub const PAGE_SIZE: u64 = 8192;

impl Table {
    /// Creates a table; row width is derived from the column widths.
    pub fn new(name: impl Into<String>, row_count: u64, mut columns: Vec<Column>) -> Self {
        let name = name.into().to_ascii_lowercase();
        for c in &mut columns {
            c.name.make_ascii_lowercase();
        }
        let row_width: u32 = 16 + columns.iter().map(|c| c.stats.avg_width).sum::<u32>();
        let name_to_col = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), ColumnId::from_index(i)))
            .collect();
        Self { name, row_count, row_width, columns, name_to_col }
    }

    /// Looks up a column by (case-insensitive) name.
    pub fn column_id(&self, name: &str) -> Option<ColumnId> {
        self.name_to_col.get(&*lower_cased(name)).copied()
    }

    /// Column accessor.
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.index()]
    }

    /// Heap pages occupied by the table under [`PAGE_SIZE`].
    pub fn pages(&self) -> u64 {
        let bytes = self.row_count * self.row_width as u64;
        bytes.div_ceil(PAGE_SIZE).max(1)
    }

    /// Table size in bytes (used by storage budgets, Sec 8.1 "Improvement on
    /// varying storage").
    pub fn bytes(&self) -> u64 {
        self.row_count * self.row_width as u64
    }
}

/// The catalog: an immutable set of tables plus name lookup.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    name_to_table: HashMap<String, TableId>,
    /// Every column of every table by name, in table order.
    name_to_columns: HashMap<String, Vec<GlobalColumnId>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table, returning its id.
    ///
    /// # Errors
    /// Returns [`Error::Catalog`] when a table with the same name exists.
    pub fn add_table(&mut self, table: Table) -> Result<TableId> {
        if self.name_to_table.contains_key(&table.name) {
            return Err(Error::Catalog(format!("duplicate table `{}`", table.name)));
        }
        let id = TableId::from_index(self.tables.len());
        self.name_to_table.insert(table.name.clone(), id);
        for (name, &column) in &table.name_to_col {
            self.name_to_columns
                .entry(name.clone())
                .or_default()
                .push(GlobalColumnId::new(id, column));
        }
        self.tables.push(table);
        Ok(id)
    }

    /// Table accessor.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Looks up a table by (case-insensitive) name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.name_to_table.get(&*lower_cased(name)).copied()
    }

    /// The columns called `name` (case-insensitive) across all tables, in
    /// table order: what an unqualified column reference can mean. One
    /// lookup instead of one [`Table::column_id`] probe per table in scope.
    pub fn columns_named(&self, name: &str) -> &[GlobalColumnId] {
        self.name_to_columns.get(&*lower_cased(name)).map_or(&[], Vec::as_slice)
    }

    /// All tables with their ids.
    pub fn tables(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables.iter().enumerate().map(|(i, t)| (TableId::from_index(i), t))
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Column accessor through a global id.
    pub fn column(&self, gid: GlobalColumnId) -> &Column {
        self.table(gid.table).column(gid.column)
    }

    /// Total data size in bytes across all tables — the "original database
    /// size" that Fig 10's storage budgets are multiples of.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(Table::bytes).sum()
    }

    /// Table-size weight from Sec 4.2:
    /// `w_table(t) = n(t) / Σ_j n(t_j)` over the tables referenced by a query.
    ///
    /// The denominator is supplied by the caller because the paper normalizes
    /// within a query's referenced tables, not over the whole catalog.
    pub fn table_weight(&self, table: TableId, referenced: &[TableId]) -> f64 {
        let total: u64 = referenced.iter().map(|&t| self.table(t).row_count).sum();
        if total == 0 {
            return 0.0;
        }
        self.table(table).row_count as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str, distinct: u64) -> Column {
        Column {
            name: name.into(),
            ty: ColumnType::Int,
            stats: ColumnStats::uniform(distinct, 0.0, distinct as f64, 8),
        }
    }

    #[test]
    fn table_lookup_is_case_insensitive() {
        let t = Table::new("Orders", 100, vec![col("O_OrderKey", 100)]);
        assert_eq!(t.name, "orders");
        assert!(t.column_id("o_orderkey").is_some());
        assert!(t.column_id("O_ORDERKEY").is_some());
        assert!(t.column_id("nope").is_none());
    }

    #[test]
    fn columns_named_spans_tables_in_table_order() {
        let mut c = Catalog::new();
        let t = c.add_table(Table::new("t", 1, vec![col("id", 1), col("a", 1)])).unwrap();
        let u = c.add_table(Table::new("u", 1, vec![col("b", 1), col("ID", 1)])).unwrap();
        let ids = c.columns_named("Id");
        assert_eq!(ids.len(), 2);
        assert_eq!((ids[0].table, ids[1].table), (t, u));
        for gid in ids {
            assert_eq!(c.table(gid.table).column_id("id"), Some(gid.column));
        }
        assert_eq!(c.columns_named("a").len(), 1);
        assert!(c.columns_named("nope").is_empty());
    }

    #[test]
    fn catalog_rejects_duplicate_tables() {
        let mut c = Catalog::new();
        c.add_table(Table::new("t", 1, vec![col("a", 1)])).unwrap();
        let err = c.add_table(Table::new("T", 1, vec![col("a", 1)])).unwrap_err();
        assert!(matches!(err, Error::Catalog(_)));
    }

    #[test]
    fn pages_and_bytes() {
        let t = Table::new("t", 1000, vec![col("a", 10)]);
        // row width = 16 header + 8 = 24 bytes; 24_000 bytes -> 3 pages.
        assert_eq!(t.row_width, 24);
        assert_eq!(t.bytes(), 24_000);
        assert_eq!(t.pages(), 3);
    }

    #[test]
    fn density_is_reciprocal_distinct() {
        let s = ColumnStats::uniform(4, 0.0, 4.0, 8);
        assert_eq!(s.density(), 0.25);
        let z = ColumnStats::uniform(0, 0.0, 0.0, 8);
        assert_eq!(z.density(), 1.0); // clamped to 1 distinct
    }

    #[test]
    fn table_weight_normalizes_within_referenced() {
        let mut c = Catalog::new();
        let big = c.add_table(Table::new("big", 900, vec![col("a", 10)])).unwrap();
        let small = c.add_table(Table::new("small", 100, vec![col("b", 10)])).unwrap();
        let refs = vec![big, small];
        assert!((c.table_weight(big, &refs) - 0.9).abs() < 1e-12);
        assert!((c.table_weight(small, &refs) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_catalog_queries() {
        let c = Catalog::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.table_id("x").is_none());
        assert_eq!(c.total_bytes(), 0);
    }
}
