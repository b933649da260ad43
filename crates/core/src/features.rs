//! Query featurization (Sec 4.2 of the paper).
//!
//! A query's features are its indexable columns; feature values are weights
//! reflecting how important each column is for index selection. Two schemes
//! are implemented:
//!
//! * **Rule-based** (default ISUM): `w(c) = d(t,c)/d(t) × w_table(t)` where
//!   `d(t)` counts the candidate indexes Table 1's rules generate for table
//!   `t` and `d(t,c)` those containing `c`.
//! * **Stats-based** (ISUM-S): `w(c) = (1 − s(c)) × w_table(t)` where `s`
//!   is predicate selectivity for filter/join columns and density for
//!   group-by/order-by columns.
//!
//! Weights are min–max normalized per query. Vectors are sparse, sorted by
//! feature id, so similarity computations are merge joins without hashing.
//!
//! A workload repeats a few query shapes many times, and a query's vector
//! depends on a handful of facts about its indexable columns, not on its
//! literals. [`Featurizer::group`] therefore featurizes once per distinct
//! *signature* — exactly the inputs [`Featurizer::features`] reads — and
//! every other query of that signature costs one hash lookup.

use std::borrow::Cow;
use std::collections::HashMap;

use isum_catalog::Catalog;
use isum_common::stats::min_max_normalize;
use isum_common::GlobalColumnId;
use isum_sql::BoundQuery;
use isum_workload::{indexable_columns, IndexableColumn, Workload};

use crate::groups::Grouping;

/// Weighting scheme for feature values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// Count-of-candidate-indexes weighting (the paper's default ISUM).
    #[default]
    RuleBased,
    /// Selectivity/density weighting (ISUM-S).
    StatsBased,
}

/// A sparse vector: `(key, weight)` sorted by key. Generic over the key so
/// the selection kernel can run the same merge joins over dense `u32`
/// column ranks (`summary::Accumulator`) that the public API runs
/// over [`GlobalColumnId`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec<K> {
    entries: Vec<(K, f64)>,
}

/// A query's feature vector: weights over its indexable columns.
pub type FeatureVec = SparseVec<GlobalColumnId>;

impl<K> Default for SparseVec<K> {
    fn default() -> Self {
        Self { entries: Vec::new() }
    }
}

impl<K: Ord + Copy> SparseVec<K> {
    /// Builds a vector from unsorted entries (sorts, merges duplicates by
    /// keeping the maximum weight).
    pub fn from_entries(mut entries: Vec<(K, f64)>) -> Self {
        entries.sort_by_key(|(g, _)| *g);
        let mut merged: Vec<(K, f64)> = Vec::with_capacity(entries.len());
        for (g, w) in entries {
            match merged.last_mut() {
                Some((pg, pw)) if *pg == g => *pw = pw.max(w),
                _ => merged.push((g, w)),
            }
        }
        Self { entries: merged }
    }

    /// Replaces the contents with `entries`, which must already be in
    /// strictly ascending key order; reuses the allocation.
    pub(crate) fn refill(&mut self, entries: impl Iterator<Item = (K, f64)>) {
        self.entries.clear();
        self.entries.extend(entries);
        debug_assert!(self.entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Drops every entry whose weight is not positive.
    pub(crate) fn retain_positive(&mut self) {
        self.entries.retain(|(_, w)| *w > 0.0);
    }

    /// Entries sorted by feature id.
    pub fn entries(&self) -> &[(K, f64)] {
        &self.entries
    }

    /// Weight of a feature (0 when absent).
    pub fn get(&self, g: K) -> f64 {
        self.entries.binary_search_by_key(&g, |(k, _)| *k).map(|i| self.entries[i].1).unwrap_or(0.0)
    }

    /// Number of stored (possibly zero-valued) features.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no features are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when every stored weight is zero (the "covered" state of
    /// Algorithm 2 line 4).
    pub fn all_zero(&self) -> bool {
        self.entries.iter().all(|(_, w)| *w <= 0.0)
    }

    /// Sum of weights.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, w)| w).sum()
    }

    /// Subtracts a scalar from every *positive* weight, clamping at zero —
    /// the "reduce the weights by S(qi,qj)" update option of Sec 4.3.
    pub fn subtract_scalar(&mut self, s: f64) {
        for (_, w) in &mut self.entries {
            if *w > 0.0 {
                *w = (*w - s).max(0.0);
            }
        }
    }

    /// Zeroes every feature that is positive in `other` — the "set covered
    /// columns to zero" update option of Sec 4.3.
    pub fn zero_where_present(&mut self, other: &Self) {
        let mut i = 0;
        let mut j = 0;
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if other.entries[j].1 > 0.0 {
                        self.entries[i].1 = 0.0;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }

    /// Accumulates `weight × other` into `self`, growing the vector as
    /// needed. One merge and one allocation per call: sums over many
    /// vectors go through `summary::Accumulator` instead.
    pub fn add_scaled(&mut self, other: &Self, weight: f64) {
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let mut i = 0;
        let mut j = 0;
        while i < self.entries.len() || j < other.entries.len() {
            let take_self = j >= other.entries.len()
                || (i < self.entries.len() && self.entries[i].0 <= other.entries[j].0);
            let take_other = i >= self.entries.len()
                || (j < other.entries.len() && other.entries[j].0 <= self.entries[i].0);
            match (take_self, take_other) {
                (true, true) => {
                    merged
                        .push((self.entries[i].0, self.entries[i].1 + weight * other.entries[j].1));
                    i += 1;
                    j += 1;
                }
                (true, false) => {
                    merged.push(self.entries[i]);
                    i += 1;
                }
                (false, true) => {
                    merged.push((other.entries[j].0, weight * other.entries[j].1));
                    j += 1;
                }
                (false, false) => unreachable!("one side must advance"),
            }
        }
        self.entries = merged;
    }
}

/// Builds feature vectors for queries.
#[derive(Debug, Clone, Copy)]
pub struct Featurizer {
    /// Weighting scheme.
    pub scheme: WeightScheme,
    /// Include the `w_table` factor (false reproduces ISUM-NoTable,
    /// Fig 10).
    pub use_table_weight: bool,
}

impl Default for Featurizer {
    fn default() -> Self {
        Self { scheme: WeightScheme::RuleBased, use_table_weight: true }
    }
}

impl Featurizer {
    /// Featurizes one query from its indexable columns.
    pub fn features(&self, cols: &[IndexableColumn], catalog: &Catalog) -> FeatureVec {
        if cols.is_empty() {
            return FeatureVec::default();
        }
        // w_table: table rows normalized over the referenced tables.
        let mut tables: Vec<(isum_common::TableId, u64)> = Vec::new();
        for c in cols {
            if !tables.iter().any(|(t, _)| *t == c.gid.table) {
                tables.push((c.gid.table, c.table_rows));
            }
        }
        let total_rows: u64 = tables.iter().map(|(_, r)| r).sum();
        let table_weight = |t: isum_common::TableId| -> f64 {
            if !self.use_table_weight || total_rows == 0 {
                1.0
            } else {
                // Every queried table was collected above; an unknown id
                // (impossible today) degrades to the neutral weight rather
                // than panicking (no-panic contract, DESIGN.md §9).
                match tables.iter().find(|(tt, _)| *tt == t) {
                    Some(&(_, rows)) => rows as f64 / total_rows as f64,
                    None => 1.0,
                }
            }
        };
        let raw: Vec<f64> = match self.scheme {
            WeightScheme::StatsBased => cols
                .iter()
                .map(|c| {
                    // Selectivity for filter/join columns, density for
                    // grouping/ordering-only columns (Sec 4.2).
                    let s = if c.positions.filter || c.positions.join {
                        c.selectivity
                    } else {
                        c.density
                    };
                    (1.0 - s).max(0.0) * table_weight(c.gid.table)
                })
                .collect(),
            WeightScheme::RuleBased => rule_based_weights(cols, &|t| table_weight(t)),
        };
        let _ = catalog;
        let norm = min_max_normalize(&raw);
        FeatureVec::from_entries(cols.iter().map(|c| c.gid).zip(norm).collect())
    }

    /// Featurizes every query of a workload, in order, into groups of
    /// bit-equal vectors: exactly [`features`](Self::features) of every
    /// query followed by [`Grouping::from_queries`], computing `features`
    /// once per distinct signature. A query's signature is what `features`
    /// reads of its indexable columns, in first-seen order: per column its
    /// id, its four position bits and `sargable`, plus — under
    /// [`WeightScheme::StatsBased`] only — the bits of its selectivity.
    pub fn group(&self, workload: &Workload) -> Grouping {
        let mut memo = FeatureMemo::new(*self);
        let mut groups = Grouping::default();
        for q in &workload.queries {
            memo.push(&mut groups, &q.bound, &workload.catalog);
        }
        groups
    }
}

/// [`Featurizer::features`] memoized per signature (see
/// [`Featurizer::group`]), with no eviction: one entry per distinct
/// signature, the policy of the SQL front end's prepared-template cache.
/// `density` and `table_rows` are functions of the column id under the one
/// catalog every query of a workload binds against, so two queries with
/// equal signatures get bit-equal vectors: a hit returns the stored
/// vector's id and builds nothing.
#[derive(Debug)]
pub(crate) struct FeatureMemo {
    featurizer: Featurizer,
    /// Signature → id of its vector in the grouping pushed into.
    known: HashMap<Box<[u64]>, u32>,
    /// The signature being looked up, reused across queries.
    key: Vec<u64>,
}

impl FeatureMemo {
    pub(crate) fn new(featurizer: Featurizer) -> Self {
        Self { featurizer, known: HashMap::new(), key: Vec::new() }
    }

    /// Appends one query to `groups`, featurizing it only when its
    /// signature is new. The memo holds vector ids of the one grouping it
    /// is always handed, and every query must bind against one catalog.
    pub(crate) fn push(&mut self, groups: &mut Grouping, bound: &BoundQuery, catalog: &Catalog) {
        let stats = self.featurizer.scheme == WeightScheme::StatsBased;
        write_signature(bound, stats, &mut self.key);
        let vector = match self.known.get(self.key.as_slice()) {
            Some(&v) => v,
            None => {
                isum_common::count!("core.featurize.misses");
                let cols = indexable_columns(bound, catalog);
                // Two signatures may still give bit-equal vectors; interning
                // makes them share one.
                let v = groups.intern(Cow::Owned(self.featurizer.features(&cols, catalog)));
                self.known.insert(self.key.as_slice().into(), v);
                v
            }
        };
        groups.push_vector(vector);
    }
}

/// Position bits of a signature entry, then `IndexableColumn::sargable`.
const FILTER: u64 = 1;
const JOIN: u64 = 1 << 1;
const GROUP_BY: u64 = 1 << 2;
const ORDER_BY: u64 = 1 << 3;
const SARGABLE: u64 = 1 << 4;

/// Writes the signature of `bound` (see [`Featurizer::group`]) into `key`
/// straight from its predicate lists, without building its
/// [`IndexableColumn`]s: the walk [`indexable_columns`] makes, in its
/// first-seen order, with its dedup by column id, position flags,
/// `sargable` rule and — under ISUM-S, `stats` — its minimum selectivity.
/// Per column the key holds the id, the position bits and, under ISUM-S,
/// the selectivity's bits.
fn write_signature(bound: &BoundQuery, stats: bool, key: &mut Vec<u64>) {
    let stride = if stats { 3 } else { 2 };
    key.clear();
    let mut mark = |gid: GlobalColumnId, bits: u64, selectivity: Option<f64>| {
        let id = u64::from(gid.table.0) << 32 | u64::from(gid.column.0);
        let at = match key.chunks_exact(stride).position(|entry| entry[0] == id) {
            Some(i) => i * stride,
            None => {
                key.extend([id, 0, 1f64.to_bits()].into_iter().take(stride));
                key.len() - stride
            }
        };
        key[at + 1] |= bits;
        if let (true, Some(selectivity)) = (stats, selectivity) {
            key[at + 2] = f64::from_bits(key[at + 2]).min(selectivity).to_bits();
        }
    };
    for f in &bound.filters {
        let sargable = if f.sargable && !f.in_disjunction { SARGABLE } else { 0 };
        mark(f.column.gid, FILTER | sargable, Some(f.selectivity));
    }
    for j in bound.joins.iter() {
        for gid in [j.left.gid, j.right.gid] {
            mark(gid, JOIN | SARGABLE, Some(j.selectivity));
        }
    }
    for g in bound.group_by.iter() {
        mark(g.gid, GROUP_BY, None);
    }
    for o in bound.order_by.iter() {
        mark(o.gid, ORDER_BY, None);
    }
}

/// Rule-based weights: for each table, enumerate the candidate key-sets the
/// Table-1 rules generate from this query's columns and weight each column
/// by the fraction of candidates containing it.
fn rule_based_weights(
    cols: &[IndexableColumn],
    table_weight: &dyn Fn(isum_common::TableId) -> f64,
) -> Vec<f64> {
    let mut weights = vec![0.0; cols.len()];
    let mut tables: Vec<isum_common::TableId> = cols.iter().map(|c| c.gid.table).collect();
    tables.sort_unstable();
    tables.dedup();
    for t in tables {
        let idx: Vec<usize> = (0..cols.len()).filter(|&i| cols[i].gid.table == t).collect();
        let sel: Vec<usize> =
            idx.iter().copied().filter(|&i| cols[i].positions.filter && cols[i].sargable).collect();
        let join: Vec<usize> = idx.iter().copied().filter(|&i| cols[i].positions.join).collect();
        let group: Vec<usize> =
            idx.iter().copied().filter(|&i| cols[i].positions.group_by).collect();
        let order: Vec<usize> =
            idx.iter().copied().filter(|&i| cols[i].positions.order_by).collect();
        // Weak columns (non-sargable filters) participate in no rule but
        // still get a small floor weight below.
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        // R1: one candidate per selection column.
        for &s in &sel {
            candidates.push(vec![s]);
        }
        // R2: one per join column.
        for &j in &join {
            candidates.push(vec![j]);
        }
        // R3 / R4: selection+join in both orders (sets are equal but they
        // are distinct candidates, doubling membership counts for both).
        if !sel.is_empty() && !join.is_empty() {
            let both: Vec<usize> = sel.iter().chain(&join).copied().collect();
            candidates.push(both.clone());
            candidates.push(both);
        }
        // R5 / R7: order-by leading.
        if !order.is_empty() {
            let tail: Vec<usize> = sel.iter().chain(&join).copied().collect();
            let full: Vec<usize> = order.iter().chain(&tail).copied().collect();
            candidates.push(full.clone());
            candidates.push(full);
        }
        // R6 / R8: group-by leading.
        if !group.is_empty() {
            let tail: Vec<usize> = sel.iter().chain(&join).copied().collect();
            let full: Vec<usize> = group.iter().chain(&tail).copied().collect();
            candidates.push(full.clone());
            candidates.push(full);
        }
        let d_t = candidates.len().max(1) as f64;
        let wt = table_weight(t);
        for &i in &idx {
            let d_tc = candidates.iter().filter(|cand| cand.contains(&i)).count() as f64;
            // Floor: a weak column appears in no candidate but remains a
            // (faint) feature so similarity still sees it.
            weights[i] = ((d_tc / d_t).max(0.02)) * wt;
        }
    }
    weights
}

/// Prepared per-workload feature state shared by the selection algorithms.
#[derive(Debug, Clone)]
pub struct WorkloadFeatures {
    /// Current (possibly updated) feature vectors, one per query.
    pub features: Vec<FeatureVec>,
    /// Pristine feature vectors (for the reset rule of Alg 2 line 12).
    pub original: Vec<FeatureVec>,
}

impl WorkloadFeatures {
    /// Featurizes every query of a workload, once per distinct signature
    /// ([`Featurizer::group`]), and gives each query its own copy of its
    /// vector.
    pub fn build(workload: &Workload, featurizer: &Featurizer) -> Self {
        let groups = featurizer.group(workload);
        let features: Vec<FeatureVec> =
            (0..groups.len()).map(|i| groups.original_of(i).clone()).collect();
        Self { original: features.clone(), features }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when there are no queries.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Restores every query's features to the pristine vectors.
    pub fn reset(&mut self) {
        self.features.clone_from(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;
    use isum_common::rng::DetRng;
    use isum_common::{ColumnId, TableId};
    use isum_sql::binder::BoundColumn;
    use isum_sql::{parse, Binder, BoundFilter, BoundJoin, FilterKind};
    use proptest::prelude::*;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .table("big", 1_000_000)
            .col_key("b_key")
            .col_int("b_attr", 1000, 0, 1000)
            .col_int("b_other", 50, 0, 50)
            .finish()
            .unwrap()
            .table("small", 1000)
            .col_key("s_key")
            .col_int("s_attr", 100, 0, 100)
            .finish()
            .unwrap()
            .build()
    }

    fn featurize(sql: &str, f: &Featurizer) -> FeatureVec {
        let c = catalog();
        let b = Binder::new(&c).bind(&parse(sql).unwrap()).unwrap();
        let cols = indexable_columns(&b, &c);
        f.features(&cols, &c)
    }

    fn gid(t: u32, c: u32) -> GlobalColumnId {
        GlobalColumnId::new(TableId(t), ColumnId(c))
    }

    #[test]
    fn feature_vec_basics() {
        let v =
            FeatureVec::from_entries(vec![(gid(0, 2), 0.5), (gid(0, 1), 1.0), (gid(0, 2), 0.3)]);
        assert_eq!(v.len(), 2, "duplicates merged");
        assert_eq!(v.get(gid(0, 2)), 0.5, "max kept");
        assert_eq!(v.get(gid(0, 9)), 0.0);
        assert!((v.total() - 1.5).abs() < 1e-12);
        assert!(!v.all_zero());
    }

    #[test]
    fn subtract_and_zero_updates() {
        let mut v = FeatureVec::from_entries(vec![(gid(0, 0), 0.6), (gid(0, 1), 0.2)]);
        v.subtract_scalar(0.3);
        assert!((v.get(gid(0, 0)) - 0.3).abs() < 1e-12);
        assert_eq!(v.get(gid(0, 1)), 0.0);
        let other = FeatureVec::from_entries(vec![(gid(0, 0), 1.0)]);
        v.zero_where_present(&other);
        assert!(v.all_zero());
    }

    #[test]
    fn add_scaled_merges_sorted() {
        let mut v = FeatureVec::from_entries(vec![(gid(0, 0), 1.0), (gid(0, 2), 1.0)]);
        let o = FeatureVec::from_entries(vec![(gid(0, 1), 2.0), (gid(0, 2), 2.0)]);
        v.add_scaled(&o, 0.5);
        assert_eq!(v.get(gid(0, 0)), 1.0);
        assert_eq!(v.get(gid(0, 1)), 1.0);
        assert_eq!(v.get(gid(0, 2)), 2.0);
        // Entries stay sorted.
        let keys: Vec<_> = v.entries().iter().map(|(g, _)| *g).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn selective_columns_weigh_more_stats_based() {
        let f = Featurizer { scheme: WeightScheme::StatsBased, use_table_weight: false };
        // b_attr: eq on ndv 1000 → sel 0.001; b_other: eq on ndv 50 → 0.02.
        let v = featurize("SELECT b_key FROM big WHERE b_attr = 5 AND b_other = 3", &f);
        assert!(v.len() == 2);
        let attr = v.entries()[1].1.max(v.entries()[0].1);
        let other = v.entries()[1].1.min(v.entries()[0].1);
        assert!(attr >= other, "more selective column should not weigh less");
    }

    #[test]
    fn table_weight_scales_small_tables_down() {
        let with = Featurizer { scheme: WeightScheme::StatsBased, use_table_weight: true };
        let v = featurize(
            "SELECT b_key FROM big, small WHERE b_key = s_key AND b_attr = 5 AND s_attr = 2",
            &with,
        );
        // small has 1/1000 of big's rows: its filter column weight must be
        // far below big's.
        let s_attr = v.get(gid(1, 1));
        let b_attr = v.get(gid(0, 1));
        assert!(s_attr < b_attr / 10.0, "s_attr={s_attr} b_attr={b_attr}");
        let without = Featurizer { scheme: WeightScheme::StatsBased, use_table_weight: false };
        let v2 = featurize(
            "SELECT b_key FROM big, small WHERE b_key = s_key AND b_attr = 5 AND s_attr = 2",
            &without,
        );
        assert!(v2.get(gid(1, 1)) > s_attr, "NoTable variant boosts small-table columns");
    }

    #[test]
    fn rule_based_weights_follow_candidate_membership() {
        let f = Featurizer::default();
        // b_attr is a selection column; b_key joins; selection+join combos
        // mean both appear in R3/R4, but order-by-only columns appear in
        // fewer candidates.
        let v = featurize(
            "SELECT b_attr FROM big, small WHERE b_key = s_key AND b_attr = 5 ORDER BY b_other",
            &f,
        );
        let w_sel = v.get(gid(0, 1));
        let w_order = v.get(gid(0, 2));
        assert!(
            w_sel > w_order,
            "selection column in more candidates than order-by: {w_sel} vs {w_order}"
        );
    }

    #[test]
    fn normalization_tops_out_near_one() {
        let f = Featurizer::default();
        let v = featurize("SELECT b_key FROM big WHERE b_attr = 5 AND b_other > 10", &f);
        let max = v.entries().iter().map(|(_, w)| *w).fold(0.0, f64::max);
        assert!(max > 0.9, "min-max normalized max ≈ 1, got {max}");
    }

    #[test]
    fn workload_features_reset_restores() {
        let c = catalog();
        let w = isum_workload::Workload::from_sql(
            c,
            &["SELECT b_key FROM big WHERE b_attr = 1", "SELECT s_key FROM small WHERE s_attr = 2"],
        )
        .unwrap();
        let mut wf = WorkloadFeatures::build(&w, &Featurizer::default());
        assert_eq!(wf.len(), 2);
        let orig = wf.features[0].clone();
        wf.features[0].subtract_scalar(10.0);
        assert!(wf.features[0].all_zero());
        wf.reset();
        assert_eq!(wf.features[0], orig);
    }

    /// The signature read off the indexable columns, as `FeatureMemo`
    /// built it before it walked the predicate lists itself.
    fn signature_of_columns(cols: &[IndexableColumn], stats: bool) -> Vec<u64> {
        let mut key = Vec::new();
        for c in cols {
            let p = c.positions;
            key.push(u64::from(c.gid.table.0) << 32 | u64::from(c.gid.column.0));
            key.push(
                u64::from(p.filter)
                    | u64::from(p.join) << 1
                    | u64::from(p.group_by) << 2
                    | u64::from(p.order_by) << 3
                    | u64::from(c.sargable) << 4,
            );
            if stats {
                key.push(c.selectivity.to_bits());
            }
        }
        key
    }

    proptest! {
        #[test]
        fn signature_walk_equals_the_indexable_columns_signature(seed in any::<u64>()) {
            let c = catalog();
            let mut rng = DetRng::seeded(seed);
            let gids = [gid(0, 0), gid(0, 1), gid(0, 2), gid(1, 0), gid(1, 1)];
            let sels = [0.0, -0.0, 1e-3, 0.25, 0.5, 1.0, f64::NAN];
            let column = |rng: &mut DetRng| BoundColumn { slot: rng.below(3), gid: *rng.pick(&gids) };
            let columns = |rng: &mut DetRng| (0..rng.below(4)).map(|_| column(rng)).collect::<Vec<_>>();
            let filters = (0..rng.below(7))
                .map(|_| BoundFilter {
                    column: column(&mut rng),
                    kind: *rng.pick(&[FilterKind::Eq, FilterKind::Range, FilterKind::SameTable]),
                    selectivity: *rng.pick(&sels),
                    in_disjunction: rng.chance(0.3),
                    sargable: rng.chance(0.7),
                    lo: None,
                    hi: None,
                })
                .collect();
            let joins: Vec<BoundJoin> = (0..rng.below(4))
                .map(|_| BoundJoin {
                    left: column(&mut rng),
                    right: column(&mut rng),
                    selectivity: *rng.pick(&sels),
                    semi: rng.chance(0.2),
                })
                .collect();
            let bound = BoundQuery {
                filters,
                joins: joins.into(),
                group_by: columns(&mut rng).into(),
                order_by: columns(&mut rng).into(),
                ..BoundQuery::default()
            };
            let cols = indexable_columns(&bound, &c);
            for stats in [false, true] {
                let mut key = vec![u64::MAX];
                write_signature(&bound, stats, &mut key);
                prop_assert_eq!(&key, &signature_of_columns(&cols, stats), "{:?}", bound);
            }
        }
    }
}
