//! Hypothetical index definitions and configurations.

use std::collections::HashMap;

use isum_catalog::Catalog;
use isum_common::{ColumnId, TableId};

/// A (hypothetical) B-tree index: an ordered list of key columns on one
/// table. Equality on `(table, key_columns)` defines index identity, which
/// is what configuration enumeration deduplicates on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Index {
    /// Indexed table.
    pub table: TableId,
    /// Key columns in index order (leading column first).
    pub key_columns: Vec<ColumnId>,
}

impl Index {
    /// Creates an index; duplicate key columns are removed (keeping first
    /// occurrence) so rule-generated combinations are always well-formed.
    pub fn new(table: TableId, key_columns: Vec<ColumnId>) -> Self {
        let mut seen = Vec::new();
        let mut cols = Vec::with_capacity(key_columns.len());
        for c in key_columns {
            if !seen.contains(&c) {
                seen.push(c);
                cols.push(c);
            }
        }
        assert!(!cols.is_empty(), "index needs at least one key column");
        Self { table, key_columns: cols }
    }

    /// Leading key column.
    pub fn leading(&self) -> ColumnId {
        self.key_columns[0]
    }

    /// True when `col` is among the key columns.
    pub fn contains(&self, col: ColumnId) -> bool {
        self.key_columns.contains(&col)
    }

    /// Estimated size in bytes: one entry per row holding the key columns
    /// plus a row locator, matching how advisors charge storage budgets.
    pub fn size_bytes(&self, catalog: &Catalog) -> u64 {
        let t = catalog.table(self.table);
        let key_width: u64 =
            self.key_columns.iter().map(|&c| t.column(c).stats.avg_width as u64).sum();
        t.row_count * (key_width + 12)
    }

    /// Leaf pages of the index under the catalog page size.
    pub fn pages(&self, catalog: &Catalog) -> u64 {
        self.size_bytes(catalog).div_ceil(isum_catalog::schema::PAGE_SIZE).max(1)
    }

    /// Human-readable rendering, e.g. `lineitem(l_shipdate, l_quantity)`.
    pub fn display(&self, catalog: &Catalog) -> String {
        let t = catalog.table(self.table);
        let cols: Vec<&str> = self.key_columns.iter().map(|&c| t.column(c).name.as_str()).collect();
        format!("{}({})", t.name, cols.join(", "))
    }
}

/// A set of hypothetical indexes with per-table lookup.
#[derive(Debug, Clone, Default)]
pub struct IndexConfig {
    indexes: Vec<Index>,
    by_table: HashMap<TableId, Vec<usize>>,
}

impl IndexConfig {
    /// Empty configuration (the existing physical design: heaps only).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a configuration from indexes, deduplicating exact repeats.
    pub fn from_indexes(indexes: impl IntoIterator<Item = Index>) -> Self {
        let mut cfg = Self::default();
        for i in indexes {
            cfg.add(i);
        }
        cfg
    }

    /// Adds an index; returns false when an identical index was present.
    pub fn add(&mut self, index: Index) -> bool {
        if self.indexes.contains(&index) {
            return false;
        }
        let idx = self.indexes.len();
        self.by_table.entry(index.table).or_default().push(idx);
        self.indexes.push(index);
        true
    }

    /// Removes an index by identity; returns true when it was present.
    pub fn remove(&mut self, index: &Index) -> bool {
        match self.indexes.iter().position(|i| i == index) {
            Some(pos) => {
                self.indexes.remove(pos);
                self.by_table.clear();
                for (i, ix) in self.indexes.iter().enumerate() {
                    self.by_table.entry(ix.table).or_default().push(i);
                }
                true
            }
            None => false,
        }
    }

    /// All indexes.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Indexes on one table.
    pub fn on_table(&self, table: TableId) -> impl Iterator<Item = &Index> {
        self.by_table.get(&table).into_iter().flatten().map(move |&i| &self.indexes[i])
    }

    /// Number of indexes.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True when no indexes are configured.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// True when an identical index is present.
    pub fn contains(&self, index: &Index) -> bool {
        self.indexes.contains(index)
    }

    /// Total storage of the configuration in bytes.
    pub fn total_bytes(&self, catalog: &Catalog) -> u64 {
        self.indexes.iter().map(|i| i.size_bytes(catalog)).sum()
    }

    /// The indexes on `tables`, table by table in the order given, each
    /// table's in [`Self::on_table`] order — everything the cost model
    /// reads of the configuration for a query over those tables, in the
    /// order it reads it (an index-nested-loop probe takes the *first*
    /// index whose leading column matches, so order matters).
    pub fn relevant_to<'s>(&'s self, tables: &'s [TableId]) -> impl Iterator<Item = &'s Index> {
        tables.iter().flat_map(move |&t| self.on_table(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .table("t", 1000)
            .col_key("a")
            .col_int("b", 100, 0, 100)
            .col_int("c", 10, 0, 10)
            .finish()
            .unwrap()
            .table("u", 10)
            .col_key("x")
            .finish()
            .unwrap()
            .build()
    }

    #[test]
    fn index_dedups_key_columns() {
        let i = Index::new(TableId(0), vec![ColumnId(1), ColumnId(0), ColumnId(1)]);
        assert_eq!(i.key_columns, vec![ColumnId(1), ColumnId(0)]);
        assert_eq!(i.leading(), ColumnId(1));
        assert!(i.contains(ColumnId(0)));
        assert!(!i.contains(ColumnId(9)));
    }

    #[test]
    #[should_panic(expected = "at least one key column")]
    fn empty_index_panics() {
        let _ = Index::new(TableId(0), vec![]);
    }

    #[test]
    fn size_scales_with_rows_and_width() {
        let c = catalog();
        let t = c.table_id("t").unwrap();
        let one = Index::new(t, vec![ColumnId(0)]);
        let two = Index::new(t, vec![ColumnId(0), ColumnId(1)]);
        assert_eq!(one.size_bytes(&c), 1000 * 20);
        assert_eq!(two.size_bytes(&c), 1000 * 28);
        assert!(two.pages(&c) >= one.pages(&c));
        assert_eq!(one.display(&c), "t(a)");
    }

    #[test]
    fn config_dedup_and_lookup() {
        let c = catalog();
        let t = c.table_id("t").unwrap();
        let u = c.table_id("u").unwrap();
        let mut cfg = IndexConfig::empty();
        assert!(cfg.add(Index::new(t, vec![ColumnId(0)])));
        assert!(!cfg.add(Index::new(t, vec![ColumnId(0)])), "duplicate rejected");
        assert!(cfg.add(Index::new(t, vec![ColumnId(0), ColumnId(1)])));
        assert!(cfg.add(Index::new(u, vec![ColumnId(0)])));
        assert_eq!(cfg.len(), 3);
        assert_eq!(cfg.on_table(t).count(), 2);
        assert_eq!(cfg.on_table(u).count(), 1);
        assert_eq!(cfg.on_table(TableId(9)).count(), 0);
    }

    #[test]
    fn remove_keeps_lookup_consistent() {
        let c = catalog();
        let t = c.table_id("t").unwrap();
        let a = Index::new(t, vec![ColumnId(0)]);
        let b = Index::new(t, vec![ColumnId(1)]);
        let mut cfg = IndexConfig::from_indexes([a.clone(), b.clone()]);
        assert!(cfg.remove(&a));
        assert!(!cfg.remove(&a));
        assert_eq!(cfg.on_table(t).collect::<Vec<_>>(), vec![&b]);
    }

    #[test]
    fn relevant_indexes_keep_configuration_order_and_table_scope() {
        let c = catalog();
        let t = c.table_id("t").unwrap();
        let u = c.table_id("u").unwrap();
        let a = Index::new(t, vec![ColumnId(0)]);
        let b = Index::new(t, vec![ColumnId(1)]);
        let z = Index::new(u, vec![ColumnId(0)]);
        let cfg1 = IndexConfig::from_indexes([a.clone(), b.clone(), z.clone()]);
        let cfg2 = IndexConfig::from_indexes([b.clone(), z.clone(), a.clone()]);
        assert_eq!(cfg1.relevant_to(&[t]).collect::<Vec<_>>(), vec![&a, &b]);
        assert_eq!(cfg2.relevant_to(&[t]).collect::<Vec<_>>(), vec![&b, &a]);
        // Indexes on unrelated tables are not relevant; tables come in the
        // order given.
        assert_eq!(cfg2.relevant_to(&[u, t]).collect::<Vec<_>>(), vec![&z, &b, &a]);
        assert_eq!(cfg1.relevant_to(&[TableId(9)]).count(), 0);
    }

    #[test]
    fn total_bytes_sums() {
        let c = catalog();
        let t = c.table_id("t").unwrap();
        let cfg = IndexConfig::from_indexes([
            Index::new(t, vec![ColumnId(0)]),
            Index::new(t, vec![ColumnId(1)]),
        ]);
        assert_eq!(cfg.total_bytes(&c), 2 * 1000 * 20);
    }
}
