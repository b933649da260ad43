//! The workload data model.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use isum_catalog::Catalog;
use isum_common::{Error, QueryId, Result, TemplateId};
use isum_sql::{Analysis, BoundQuery, PreparedCache, ShapeId, TemplateRegistry};

/// Complexity class of a query, following the DSB benchmark's split used by
/// Fig 12 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Select-project-join, no aggregation.
    Spj,
    /// Aggregation/grouping over one or two tables.
    Aggregate,
    /// Multi-join queries with aggregation and/or subqueries.
    Complex,
}

impl QueryClass {
    /// Derives the class from a bound query's shape.
    pub fn classify(bound: &BoundQuery) -> Self {
        let has_agg = bound.n_aggregates > 0 || !bound.group_by.is_empty();
        let many_joins = bound.tables.len() >= 3 || bound.n_blocks > 1;
        match (has_agg, many_joins) {
            (false, _) => QueryClass::Spj,
            (true, false) => QueryClass::Aggregate,
            (true, true) => QueryClass::Complex,
        }
    }
}

/// One query of the workload, fully analyzed.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// Position in the workload.
    pub id: QueryId,
    /// Original SQL text.
    pub sql: String,
    /// Bound (flattened) form.
    pub bound: BoundQuery,
    /// Template id (instances identical up to parameters share one).
    pub template: TemplateId,
    /// Optimizer-estimated cost under the *current* physical design, `C(q)`.
    /// Populated by the optimizer crate's `populate_costs`; defaults to 0.
    pub cost: f64,
    /// Complexity class.
    pub class: QueryClass,
}

/// A workload: catalog + queries + template registry.
#[derive(Debug)]
pub struct Workload {
    /// The database schema and statistics the queries run against.
    pub catalog: Catalog,
    /// The queries, indexed by [`QueryId`].
    pub queries: Vec<QueryInfo>,
    /// Template interner for all queries.
    pub templates: TemplateRegistry,
    /// Process-unique identity (see [`Workload::uid`]).
    uid: u64,
    /// One prepared form per token shape seen so far, so a statement that
    /// repeats an earlier one up to its literals is bound without being
    /// parsed. Its template ids are ids of `templates`.
    prepared: PreparedCache,
}

/// Monotonic source for [`Workload::uid`]. Never reused within a process,
/// unlike heap addresses, which allocators recycle.
static NEXT_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn next_uid() -> u64 {
    NEXT_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// One statement of a script on its way to a row of the workload.
enum Row {
    /// Its text and logged cost, not analyzed yet.
    Text(String, f64),
    /// Bound, with `template` holding the id of its shape (and `id` its
    /// input index) until the merge settles them.
    Bound(QueryInfo),
    /// Its annotated error, and its token shape when it lexed.
    Failed(Error, Option<Box<[u8]>>),
}

// A row is as large as a query, so the merge turns the rows into the
// workload's queries in place, without a second vector of them.
const _: () = assert!(std::mem::size_of::<Row>() == std::mem::size_of::<QueryInfo>());

impl Workload {
    /// Parses, binds, and fingerprints SQL texts into a workload, one
    /// statement after another on the calling thread.
    ///
    /// # Errors
    /// Propagates parse/bind errors, annotated with the failing query index.
    pub fn from_sql<S: AsRef<str>>(catalog: Catalog, sqls: &[S]) -> Result<Workload> {
        let mut w = Workload::empty(catalog);
        w.queries.reserve(sqls.len());
        for (i, sql) in sqls.iter().enumerate() {
            w.analyze(sql.as_ref(), 0.0, i)?;
        }
        Ok(w)
    }

    /// Builds a workload from a split script's statements and costs.
    ///
    /// The statements are analyzed in contiguous chunks: the calling
    /// thread takes the first and `isum_exec::global_threads() − 1`
    /// workers the rest, all through one shared shape table. The rows are
    /// then settled in statement order — ids, template ids, shape counters
    /// — so the workload is the one a serial pass builds, at any thread
    /// count. A statement that fails to parse or bind is returned with its
    /// input index and error, and left out (counted as
    /// `workload.parse_skipped` when `lenient`); when not `lenient`, only
    /// the first such statement is returned and the workload is
    /// incomplete. Each statement's text moves into its query.
    pub(crate) fn from_script(
        catalog: Catalog,
        sqls: Vec<String>,
        costs: Vec<Option<f64>>,
        lenient: bool,
    ) -> (Workload, Vec<(usize, Error)>) {
        let started = isum_common::telemetry::enabled().then(Instant::now);
        let mut w = Workload::empty(catalog);
        let mut rows: Vec<Row> = sqls
            .into_iter()
            .zip(costs)
            .map(|(sql, cost)| Row::Text(sql, cost.unwrap_or(0.0)))
            .collect();
        let chunks = AtomicUsize::new(0);
        // The lowest index of a statement that failed, in a strict load: a
        // chunk stops before a statement past it, which cannot be the first
        // to fail.
        let first_failed = AtomicUsize::new(usize::MAX);
        let (catalog, cache) = (&w.catalog, &w.prepared);
        isum_exec::par_chunks_mut(&mut rows, |start, chunk| {
            chunks.fetch_add(1, Ordering::Relaxed);
            let mut view = cache.view();
            for (i, row) in (start..).zip(chunk) {
                if !lenient && first_failed.load(Ordering::Relaxed) < i {
                    break;
                }
                let Row::Text(sql, cost) = row else { unreachable!("rows start as text") };
                let (sql, cost) = (std::mem::take(sql), *cost);
                *row = match view.analyze(&sql, catalog) {
                    Analysis::Bound(bound, shape) => Row::Bound(QueryInfo {
                        id: QueryId::from_index(i),
                        class: QueryClass::classify(&bound),
                        template: TemplateId::from_index(shape.index()),
                        sql,
                        bound,
                        cost,
                    }),
                    Analysis::Failed(e, shape) => Row::Failed(annotate(e, i, &sql), shape),
                };
                if !lenient && matches!(row, Row::Failed(..)) {
                    first_failed.fetch_min(i, Ordering::Relaxed);
                    break;
                }
            }
        });
        let mut skipped = Vec::new();
        let (prepared, templates) = (&mut w.prepared, &mut w.templates);
        let queries = rows
            .into_iter()
            .enumerate()
            .filter_map(|(i, row)| match row {
                _ if !lenient && !skipped.is_empty() => None,
                Row::Bound(mut q) => {
                    q.id = QueryId::from_index(i - skipped.len());
                    q.template = prepared.settle_bound(ShapeId(q.template.0), templates);
                    Some(q)
                }
                Row::Failed(e, shape) => {
                    prepared.settle_failed(shape.as_deref());
                    skipped.push((i, e));
                    None
                }
                Row::Text(..) => unreachable!("a chunk stops only past a failed row"),
            })
            .collect();
        w.queries = queries;
        if lenient {
            isum_common::count!("workload.parse_skipped", skipped.len());
        }
        isum_common::count!("workload.load.threads", chunks.into_inner());
        if let Some(started) = started {
            isum_common::record_ns!("workload.load_ns", started.elapsed().as_nanos());
        }
        (w, skipped)
    }

    /// An empty workload over a catalog, grown one statement at a time via
    /// [`push_sql`](Self::push_sql) — the shape of a live ingest stream,
    /// where the closed workload of [`from_sql`](Self::from_sql) never
    /// exists.
    pub fn empty(catalog: Catalog) -> Workload {
        Workload {
            catalog,
            queries: Vec::new(),
            templates: TemplateRegistry::new(),
            uid: next_uid(),
            prepared: PreparedCache::new(),
        }
    }

    /// Parses, binds, and appends one statement with its logged cost,
    /// returning the id it was assigned. Appending the statements of a
    /// script in order builds the same workload as
    /// [`from_sql`](Self::from_sql) on the whole script.
    ///
    /// # Errors
    /// Propagates parse/bind errors annotated with the would-be query
    /// index; the workload is unchanged in that case.
    pub fn push_sql(&mut self, sql: &str, cost: f64) -> Result<QueryId> {
        self.analyze(sql, cost, self.queries.len())
    }

    /// The one-statement front-end step under [`from_sql`](Self::from_sql)
    /// and [`push_sql`](Self::push_sql): lexes `sql`, binds it (through its
    /// shape's prepared form when the shape was seen before), interns its
    /// template and appends the query. Errors name `input_index`, the
    /// statement's position in the caller's input, and leave the workload
    /// unchanged.
    fn analyze(&mut self, sql: &str, cost: f64, input_index: usize) -> Result<QueryId> {
        let (bound, template) = self
            .prepared
            .analyze(sql, &self.catalog, &mut self.templates)
            .map_err(|e| annotate(e, input_index, sql))?;
        let class = QueryClass::classify(&bound);
        let id = QueryId::from_index(self.queries.len());
        let sql = sql.to_string();
        self.queries.push(QueryInfo { id, sql, bound, template, cost, class });
        Ok(id)
    }

    /// A process-unique identity for this workload, distinct across every
    /// workload constructed in the process (including dropped ones).
    /// Callers that key caches per workload — e.g. the what-if optimizer's
    /// cost cache — must use this rather than any address-based identity,
    /// which the allocator can recycle after a drop.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Query accessor.
    pub fn query(&self, id: QueryId) -> &QueryInfo {
        &self.queries[id.index()]
    }

    /// Total workload cost `C(W) = Σ C(q_i)` (Sec 2.2).
    pub fn total_cost(&self) -> f64 {
        self.queries.iter().map(|q| q.cost).sum()
    }

    /// Number of distinct templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Sets `C(q_i)` for every query.
    ///
    /// # Panics
    /// Panics when the length differs from the workload size.
    pub fn set_costs(&mut self, costs: &[f64]) {
        assert_eq!(costs.len(), self.queries.len(), "cost vector length mismatch");
        for (q, &c) in self.queries.iter_mut().zip(costs) {
            q.cost = c;
        }
    }

    /// Builds a new workload containing only the selected queries (used by
    /// experiments that scale the input size). Ids are re-densified; template
    /// ids are preserved from the parent registry.
    pub fn restricted_to(&self, ids: &[QueryId]) -> Workload {
        let mut queries = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            let mut q = self.queries[id.index()].clone();
            q.id = QueryId::from_index(i);
            queries.push(q);
        }
        // Rebuild the registry so counts reflect the restricted set.
        let mut templates = TemplateRegistry::new();
        for q in &mut queries {
            q.template = templates.intern_fingerprint(self.templates.fingerprint_of(q.template));
        }
        Workload { queries, templates, ..Workload::empty(self.catalog.clone()) }
    }
}

fn annotate(e: Error, idx: usize, sql: &str) -> Error {
    let head: String = sql.chars().take(80).collect();
    match e {
        Error::Lex { offset, message } => {
            Error::Lex { offset, message: format!("query #{idx}: {message} in `{head}`") }
        }
        Error::Parse { offset, message } => {
            Error::Parse { offset, message: format!("query #{idx}: {message} in `{head}`") }
        }
        Error::Bind(m) => Error::Bind(format!("query #{idx}: {m} in `{head}`")),
        other => other,
    }
}

/// A compressed workload: selected queries with their weights (the paper's
/// `W_k`, Problem 1). Weights are relative importances handed to the tuner.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressedWorkload {
    /// `(query, weight)` pairs, in selection order.
    pub entries: Vec<(QueryId, f64)>,
}

impl CompressedWorkload {
    /// Uniform weights over a set of queries.
    pub fn uniform(ids: Vec<QueryId>) -> Self {
        let w = if ids.is_empty() { 0.0 } else { 1.0 / ids.len() as f64 };
        Self { entries: ids.into_iter().map(|id| (id, w)).collect() }
    }

    /// Selected query ids, in order.
    pub fn ids(&self) -> Vec<QueryId> {
        self.entries.iter().map(|(id, _)| *id).collect()
    }

    /// Number of selected queries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rescales weights to sum to 1 (no-op when the sum is zero).
    pub fn normalize_weights(&mut self) {
        let total: f64 = self.entries.iter().map(|(_, w)| *w).sum();
        if total > 0.0 {
            for (_, w) in &mut self.entries {
                *w /= total;
            }
        }
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
            .finish()
            .unwrap()
            .table("u", 500)
            .col_key("x")
            .col_int("t_a", 1000, 1, 1000)
            .finish()
            .unwrap()
            .build()
    }

    #[test]
    fn builds_workload_from_sql() {
        let w = Workload::from_sql(
            catalog(),
            &[
                "SELECT a FROM t WHERE b = 5",
                "SELECT a FROM t WHERE b = 77",
                "SELECT count(*) FROM t GROUP BY b",
                "SELECT a FROM t, u WHERE a = t_a AND b > 10 GROUP BY a ORDER BY a",
            ],
        )
        .unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(w.template_count(), 3, "first two share a template");
        assert_eq!(w.queries[0].class, QueryClass::Spj);
        assert_eq!(w.queries[2].class, QueryClass::Aggregate);
    }

    #[test]
    fn classify_complex_needs_joins_and_aggregates() {
        let w = Workload::from_sql(
            catalog(),
            &["SELECT count(*) FROM t, u WHERE a = t_a AND b IN (SELECT x FROM u) GROUP BY b"],
        )
        .unwrap();
        assert_eq!(w.queries[0].class, QueryClass::Complex);
    }

    #[test]
    fn errors_name_the_query() {
        let err = Workload::from_sql(catalog(), &["SELECT a FROM t", "SELECT FROM"]).unwrap_err();
        assert!(err.to_string().contains("query #1"), "{err}");
        // Unknown *qualified* columns are bind errors (bare unknowns are
        // treated as select-list aliases and ignored).
        let err =
            Workload::from_sql(catalog(), &["SELECT a FROM t WHERE t.nope_col = 1"]).unwrap_err();
        assert!(err.to_string().contains("query #0"), "{err}");
    }

    #[test]
    fn push_sql_grows_like_from_sql() {
        let sqls =
            ["SELECT a FROM t WHERE b = 5", "SELECT a FROM t WHERE b = 9", "SELECT x FROM u"];
        let batch = Workload::from_sql(catalog(), &sqls).unwrap();
        let mut grown = Workload::empty(catalog());
        assert!(grown.is_empty());
        for (i, sql) in sqls.iter().enumerate() {
            let id = grown.push_sql(sql, 10.0 * (i + 1) as f64).unwrap();
            assert_eq!(id.index(), i);
        }
        assert_eq!(grown.len(), batch.len());
        assert_eq!(grown.template_count(), batch.template_count());
        for (g, b) in grown.queries.iter().zip(&batch.queries) {
            assert_eq!(g.id, b.id);
            assert_eq!(g.template, b.template);
            assert_eq!(g.class, b.class);
        }
        assert_eq!(grown.total_cost(), 60.0);
        // A bad statement is rejected without mutating the workload.
        assert!(grown.push_sql("SELECT FROM", 1.0).is_err());
        assert!(grown.push_sql("SELECT nope FROM missing", 1.0).is_err());
        assert_eq!(grown.len(), 3);
    }

    #[test]
    fn push_sql_names_the_statement_a_lex_error_is_in() {
        let mut w = Workload::from_sql(catalog(), &["SELECT a FROM t"]).unwrap();
        let err = w.push_sql("SELECT a FROM t WHERE b = 'open", 1.0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "lex error at byte 26: query #1: unterminated string literal in \
             `SELECT a FROM t WHERE b = 'open`"
        );
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn costs_and_total() {
        let mut w = Workload::from_sql(catalog(), &["SELECT a FROM t", "SELECT x FROM u"]).unwrap();
        w.set_costs(&[10.0, 30.0]);
        assert_eq!(w.total_cost(), 40.0);
        assert_eq!(w.query(QueryId(1)).cost, 30.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_costs_checks_length() {
        let mut w = Workload::from_sql(catalog(), &["SELECT a FROM t"]).unwrap();
        w.set_costs(&[1.0, 2.0]);
    }

    #[test]
    fn restriction_redensifies_ids_and_templates() {
        let mut w = Workload::from_sql(
            catalog(),
            &["SELECT a FROM t WHERE b = 1", "SELECT x FROM u", "SELECT a FROM t WHERE b = 9"],
        )
        .unwrap();
        w.set_costs(&[1.0, 2.0, 3.0]);
        let r = w.restricted_to(&[QueryId(2), QueryId(0)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.queries[0].id, QueryId(0));
        assert_eq!(r.queries[0].cost, 3.0);
        assert_eq!(r.template_count(), 1, "both restricted queries share a template");
    }

    #[test]
    fn uids_are_process_unique_even_after_drops() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let w = Workload::from_sql(catalog(), &["SELECT a FROM t"]).unwrap();
            let r = w.restricted_to(&[QueryId(0)]);
            assert!(seen.insert(w.uid()), "uid {} reused", w.uid());
            assert!(seen.insert(r.uid()), "restricted uid {} reused", r.uid());
            // `w` and `r` drop here; a later workload may reuse their heap
            // addresses but never their uids.
        }
    }

    #[test]
    fn compressed_workload_weights() {
        let mut cw = CompressedWorkload { entries: vec![(QueryId(0), 2.0), (QueryId(3), 6.0)] };
        cw.normalize_weights();
        assert!((cw.entries[0].1 - 0.25).abs() < 1e-12);
        assert!((cw.entries[1].1 - 0.75).abs() < 1e-12);
        assert_eq!(cw.ids(), vec![QueryId(0), QueryId(3)]);
        let u = CompressedWorkload::uniform(vec![QueryId(1), QueryId(2)]);
        assert_eq!(u.entries[0].1, 0.5);
        assert!(CompressedWorkload::uniform(vec![]).is_empty());
    }
}
