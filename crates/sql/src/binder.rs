//! Name resolution and lowering to a flat bound representation.
//!
//! The binder resolves an AST against a [`Catalog`] and lowers it to a
//! [`BoundQuery`]: a flat list of table instances (*slots*), filter
//! predicates with estimated selectivities, equi-join edges, and group-by /
//! order-by columns. Subqueries are *flattened*: their tables, filters, and
//! joins are merged into the same structure, with `IN (SELECT ...)` and
//! correlated `EXISTS` contributing semi-join edges. This is exactly the
//! information both consumers need — ISUM's indexable-column featurization
//! (Def 5 of the paper) and the what-if optimizer's join graph.

use std::sync::Arc;

use isum_catalog::{Catalog, CompareOp, Selectivity};
use isum_common::{Error, GlobalColumnId, Result, TableId};

use crate::ast::{BinaryOp, ColumnRef, Expr, LiteralNode, SelectItem, SelectStatement};
use crate::parser::Literal;

/// Classification of a filter predicate on a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// Equality with a literal.
    Eq,
    /// Range (`<`, `<=`, `>`, `>=`, `BETWEEN`).
    Range,
    /// Inequality with a literal.
    NotEq,
    /// `IN` list of literals.
    InList,
    /// `LIKE` pattern.
    Like,
    /// `IS [NOT] NULL`.
    Null,
    /// Column compared to a column of the *same* table instance.
    SameTable,
}

/// A table instance referenced by the query. Self-joins produce multiple
/// slots over the same [`TableId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTable {
    /// Catalog table.
    pub table: TableId,
    /// Binding name in the query text (alias or table name).
    pub alias: String,
}

/// A resolved column: which slot (table instance) plus the global column id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundColumn {
    /// Index into [`BoundQuery::tables`].
    pub slot: usize,
    /// Catalog-level column identity (feature key for ISUM).
    pub gid: GlobalColumnId,
}

/// A filter predicate bound to a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundFilter {
    /// Filtered column.
    pub column: BoundColumn,
    /// Predicate shape.
    pub kind: FilterKind,
    /// Estimated selectivity in `\[0, 1\]`.
    pub selectivity: f64,
    /// True when the predicate sits under `OR`/`NOT`, which makes it far less
    /// useful for index seeks.
    pub in_disjunction: bool,
    /// False when the column is wrapped in a function (non-sargable), e.g.
    /// `substring(c, 1, 2) = 'x'` — such predicates cannot drive a seek.
    pub sargable: bool,
    /// Lower bound for range predicates (folded literal), used to coalesce
    /// `col >= a AND col < b` pairs into one range.
    pub lo: Option<f64>,
    /// Upper bound for range predicates.
    pub hi: Option<f64>,
}

/// An equi-join edge between two column instances.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundJoin {
    /// Left column.
    pub left: BoundColumn,
    /// Right column.
    pub right: BoundColumn,
    /// Join predicate selectivity (containment assumption).
    pub selectivity: f64,
    /// True for semi-joins arising from `IN (SELECT ...)` / `EXISTS`.
    pub semi: bool,
}

/// The flat bound form of a query.
///
/// The lists no literal value can change — tables, joins, group/order and
/// projection columns — are shared: every statement of one token shape
/// points at the lists its shape's prepared form built once. Only
/// `filters` and `limit` are the statement's own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundQuery {
    /// Table instances (slots).
    pub tables: Arc<[BoundTable]>,
    /// Filter predicates.
    pub filters: Vec<BoundFilter>,
    /// Equi-join edges.
    pub joins: Arc<[BoundJoin]>,
    /// `GROUP BY` columns (outer block only).
    pub group_by: Arc<[BoundColumn]>,
    /// `ORDER BY` columns (outer block only).
    pub order_by: Arc<[BoundColumn]>,
    /// Columns referenced by the outer `SELECT` list.
    pub projections: Arc<[BoundColumn]>,
    /// Number of aggregate function applications.
    pub n_aggregates: usize,
    /// Number of query blocks (1 + subqueries) before flattening.
    pub n_blocks: usize,
    /// `LIMIT`, when present on the outer block.
    pub limit: Option<u64>,
    /// `DISTINCT` on the outer block.
    pub distinct: bool,
}

impl BoundQuery {
    /// Distinct [`TableId`]s referenced (self-joins deduplicated).
    pub fn referenced_tables(&self) -> Vec<TableId> {
        let mut out: Vec<TableId> = self.tables.iter().map(|t| t.table).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Average selectivity over filter and join predicates — the `Sel(q)`
    /// of Sec 4.1 used by the stats-based utility. Returns 1.0 (no expected
    /// reduction) when the query has no such predicates.
    pub fn average_selectivity(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for f in &self.filters {
            sum += f.selectivity;
            n += 1;
        }
        for j in self.joins.iter() {
            sum += j.selectivity;
            n += 1;
        }
        if n == 0 {
            1.0
        } else {
            (sum / n as f64).clamp(0.0, 1.0)
        }
    }

    /// Product of filter selectivities restricted to one slot — the local
    /// predicate selectivity the optimizer applies after a scan.
    pub fn slot_filter_selectivity(&self, slot: usize) -> f64 {
        self.filters
            .iter()
            .filter(|f| f.column.slot == slot)
            .map(|f| f.selectivity)
            .product::<f64>()
            .clamp(0.0, 1.0)
    }
}

/// Binds parsed statements against a catalog.
#[derive(Debug, Clone, Copy)]
pub struct Binder<'a> {
    catalog: &'a Catalog,
}

/// A bound statement with everything that reads a literal's *value* left
/// open: the form shared by all statements of one token shape.
///
/// Binding is [`Binder::prepare`] — slots, name resolution, filter kinds
/// and flags, join edges, group/order/projection columns, aggregate and
/// block counts — followed by [`Prepared::instantiate`], which reads the
/// literals: constant folding, `Selectivity::{compare, range}`, the `LIKE`
/// heuristics, range bounds, range coalescing and `LIMIT`. Those write
/// only `filters` and `limit`; an instance shares every other list with
/// `query`.
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    /// The value-independent part, in final order. Filters named by a
    /// [`Fixup`] hold [`OPEN`] in the fields the fixup fills.
    query: BoundQuery,
    fixups: Vec<Fixup>,
    /// The constant-folding programs the fixups point into.
    ops: Vec<FoldOp>,
    /// Which literal is the outer block's `LIMIT`.
    limit: Option<usize>,
}

/// Selectivity of a filter whose [`Fixup`] has not run yet.
const OPEN: f64 = f64::NAN;

/// One step of a constant-folding program over a statement's literals,
/// numbered in source order. Prefix form: an operator is followed by the
/// programs of its left and right operands.
#[derive(Debug, Clone, Copy)]
enum FoldOp {
    Literal(usize),
    Add,
    Sub,
    Mul,
    Div,
}

/// Where a folding program starts in [`Prepared::ops`].
type Fold = usize;

/// The literal-dependent remainder of one filter.
#[derive(Debug, Clone, Copy)]
enum Fixup {
    /// `column <op> value`.
    Compare { filter: usize, op: CompareOp, negated: bool, value: Fold },
    /// `column [NOT] BETWEEN lo AND hi`; a bound that does not fold is open.
    Between { filter: usize, negated: bool, lo: Option<Fold>, hi: Option<Fold> },
    /// `column [NOT] LIKE <literal number pattern>`.
    Like { filter: usize, negated: bool, pattern: usize },
}

fn complement_if(negated: bool, sel: f64) -> f64 {
    if negated {
        (1.0 - sel).max(0.0)
    } else {
        sel
    }
}

impl Prepared {
    /// Binds one statement of this shape from its literals (in source
    /// order). `None` when the literals do not fit the shape — never for
    /// the literals of a statement this was prepared from.
    pub(crate) fn instantiate(
        &self,
        catalog: &Catalog,
        literals: &[Literal<'_>],
    ) -> Option<BoundQuery> {
        let mut query = self.query.clone();
        self.fill(catalog, literals, &mut query)?;
        Some(query)
    }

    fn fill(
        &self,
        catalog: &Catalog,
        literals: &[Literal<'_>],
        query: &mut BoundQuery,
    ) -> Option<()> {
        for fixup in &self.fixups {
            match *fixup {
                Fixup::Compare { filter, op, negated, value } => {
                    let v = self.eval(value, literals)?;
                    let f = &mut query.filters[filter];
                    let sel = Selectivity::compare(catalog.column(f.column.gid), op, v);
                    f.selectivity = complement_if(negated, sel).clamp(0.0, 1.0);
                    if f.kind == FilterKind::Range && !negated {
                        match op {
                            CompareOp::Lt | CompareOp::LtEq => f.hi = Some(v),
                            CompareOp::Gt | CompareOp::GtEq => f.lo = Some(v),
                            _ => {}
                        }
                    }
                }
                Fixup::Between { filter, negated, lo, hi } => {
                    let bound = |at: Option<Fold>| match at {
                        Some(at) => self.eval(at, literals).map(Some),
                        None => Some(None),
                    };
                    let (lo, hi) = (bound(lo)?, bound(hi)?);
                    let f = &mut query.filters[filter];
                    let sel = Selectivity::range(catalog.column(f.column.gid), lo, hi);
                    f.selectivity = complement_if(negated, sel);
                    if !negated {
                        (f.lo, f.hi) = (lo, hi);
                    }
                }
                Fixup::Like { filter, negated, pattern } => {
                    let Literal::Pattern(pattern) = literals.get(pattern)? else { return None };
                    let f = &mut query.filters[filter];
                    f.selectivity = complement_if(negated, like_selectivity(pattern));
                    // Only prefix patterns can drive a seek.
                    let prefix = !pattern.starts_with('%') && !pattern.starts_with('_');
                    f.sargable = prefix && !negated;
                }
            }
        }
        coalesce_ranges(catalog, query);
        if let Some(limit) = self.limit {
            let Literal::RowCount(n) = literals.get(limit)? else { return None };
            query.limit = Some(*n);
        }
        Some(())
    }

    /// Folds literal arithmetic (numbers, dates, date arithmetic) to a
    /// value on the shared numeric axis (dates are days since epoch).
    fn eval(&self, at: Fold, literals: &[Literal<'_>]) -> Option<f64> {
        let mut pos = at;
        self.eval_next(&mut pos, literals)
    }

    fn eval_next(&self, pos: &mut usize, literals: &[Literal<'_>]) -> Option<f64> {
        let op = self.ops[*pos];
        *pos += 1;
        if let FoldOp::Literal(i) = op {
            return match literals.get(i)? {
                Literal::Number(n) => Some(*n),
                _ => None,
            };
        }
        let l = self.eval_next(pos, literals)?;
        let r = self.eval_next(pos, literals)?;
        Some(match op {
            FoldOp::Add => l + r,
            FoldOp::Sub => l - r,
            FoldOp::Mul => l * r,
            FoldOp::Div => l / r,
            FoldOp::Literal(_) => unreachable!("handled above"),
        })
    }
}

/// Merges paired one-sided range predicates on the same column instance
/// (`col >= a AND col < b`) into a single range with the histogram's
/// joint selectivity. Without this, independence would square the
/// selectivity of every between-style date window (as classic
/// optimizers, we special-case the pattern).
fn coalesce_ranges(catalog: &Catalog, out: &mut BoundQuery) {
    let mut i = 0;
    while i < out.filters.len() {
        let fi = out.filters[i].clone();
        if fi.kind != FilterKind::Range || fi.in_disjunction || !fi.sargable {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut merged = false;
        while j < out.filters.len() {
            let fj = &out.filters[j];
            let complementary = fj.kind == FilterKind::Range
                && fj.column == fi.column
                && !fj.in_disjunction
                && fj.sargable
                && (fi.lo.is_some() != fj.lo.is_some() || fi.hi.is_some() != fj.hi.is_some());
            if complementary {
                let lo = match (fi.lo, fj.lo) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                let hi = match (fi.hi, fj.hi) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                let column = catalog.column(fi.column.gid);
                let sel = Selectivity::range(column, lo, hi);
                out.filters[i] = BoundFilter {
                    column: fi.column,
                    kind: FilterKind::Range,
                    selectivity: sel,
                    in_disjunction: false,
                    sargable: true,
                    lo,
                    hi,
                };
                out.filters.remove(j);
                merged = true;
                break;
            }
            j += 1;
        }
        if !merged {
            i += 1;
        }
    }
}

/// The statement being prepared: the [`Prepared`] under construction, the
/// shared lists it grows until [`Binder::prepare`] freezes them into its
/// query, and the statement's literal nodes in source order (`None` for a
/// `LIMIT`), by which a literal met during the walk finds its number.
struct Preparing<'s> {
    prepared: Prepared,
    tables: Vec<BoundTable>,
    joins: Vec<BoundJoin>,
    group_by: Vec<BoundColumn>,
    order_by: Vec<BoundColumn>,
    projections: Vec<BoundColumn>,
    nodes: Vec<Option<&'s Expr>>,
}

impl Preparing<'_> {
    /// The finished [`Prepared`], its shared lists frozen.
    fn finish(self) -> Prepared {
        let mut prepared = self.prepared;
        let query = &mut prepared.query;
        query.tables = self.tables.into();
        query.joins = self.joins.into();
        query.group_by = self.group_by.into();
        query.order_by = self.order_by.into();
        query.projections = self.projections.into();
        prepared
    }

    /// A filter no literal value can change.
    fn push_filter(
        &mut self,
        column: BoundColumn,
        kind: FilterKind,
        selectivity: f64,
        in_disjunction: bool,
        sargable: bool,
    ) -> usize {
        let filters = &mut self.prepared.query.filters;
        filters.push(BoundFilter {
            column,
            kind,
            selectivity,
            in_disjunction,
            sargable,
            lo: None,
            hi: None,
        });
        filters.len() - 1
    }

    /// A filter whose selectivity (and whatever else `fixup` names) waits
    /// for the literals.
    fn push_open_filter(
        &mut self,
        column: BoundColumn,
        kind: FilterKind,
        in_disjunction: bool,
        sargable: bool,
        fixup: impl FnOnce(usize) -> Fixup,
    ) {
        let filter = self.push_filter(column, kind, OPEN, in_disjunction, sargable);
        self.prepared.fixups.push(fixup(filter));
    }

    /// The folding program of `e`, when `e` is literal arithmetic.
    fn fold(&mut self, e: &Expr) -> Option<Fold> {
        if !is_foldable(e) {
            return None;
        }
        let start = self.prepared.ops.len();
        self.push_ops(e);
        Some(start)
    }

    fn push_ops(&mut self, e: &Expr) {
        match e {
            Expr::Binary { op, left, right } => {
                self.prepared.ops.push(match op {
                    BinaryOp::Add => FoldOp::Add,
                    BinaryOp::Sub => FoldOp::Sub,
                    BinaryOp::Mul => FoldOp::Mul,
                    BinaryOp::Div => FoldOp::Div,
                    _ => unreachable!("checked by is_foldable"),
                });
                self.push_ops(left);
                self.push_ops(right);
            }
            literal => {
                let i = self.literal_number(literal);
                self.prepared.ops.push(FoldOp::Literal(i));
            }
        }
    }

    /// The position of a literal node among the statement's literals.
    fn literal_number(&self, e: &Expr) -> usize {
        self.nodes
            .iter()
            .position(|n| n.is_some_and(|n| std::ptr::eq(n, e)))
            .expect("every literal of the statement was collected")
    }
}

/// True for literal arithmetic: numbers and dates under `+ - * /`.
fn is_foldable(e: &Expr) -> bool {
    match e {
        Expr::Number(_) | Expr::Date(_) => true,
        Expr::Binary {
            op: BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div,
            left,
            right,
        } => is_foldable(left) && is_foldable(right),
        _ => false,
    }
}

struct Scope<'p> {
    /// (binding name as written, table id, slot index)
    slots: Vec<(&'p str, TableId, usize)>,
    parent: Option<&'p Scope<'p>>,
}

impl Scope<'_> {
    fn resolve_qualified(
        &self,
        qualifier: &str,
        name: &str,
        catalog: &Catalog,
    ) -> Option<BoundColumn> {
        for &(binding, table, slot) in &self.slots {
            // Binding names compare lower-cased, qualifiers as written.
            let same = binding.len() == qualifier.len()
                && binding.bytes().zip(qualifier.bytes()).all(|(b, q)| b.to_ascii_lowercase() == q);
            if same {
                let col = catalog.table(table).column_id(name)?;
                return Some(BoundColumn { slot, gid: GlobalColumnId::new(table, col) });
            }
        }
        self.parent.and_then(|p| p.resolve_qualified(qualifier, name, catalog))
    }

    fn resolve_bare(&self, name: &str, catalog: &Catalog) -> Result<Option<BoundColumn>> {
        // One catalog lookup, then each scope picks out its own tables.
        let candidates = catalog.columns_named(name);
        let mut scope = Some(self);
        while let Some(s) = scope {
            let mut found: Option<BoundColumn> = None;
            for &(_, table, slot) in &s.slots {
                if let Some(&gid) = candidates.iter().find(|gid| gid.table == table) {
                    if found.is_some_and(|prev| prev.gid != gid) {
                        return Err(Error::Bind(format!("ambiguous column `{name}`")));
                    }
                    found = Some(BoundColumn { slot, gid });
                }
            }
            if found.is_some() {
                return Ok(found);
            }
            scope = s.parent;
        }
        Ok(None)
    }
}

impl<'a> Binder<'a> {
    /// Creates a binder over a catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// Binds a statement to its flat form.
    ///
    /// # Errors
    /// Returns [`Error::Bind`] on unknown/ambiguous tables or columns.
    pub fn bind(&self, stmt: &SelectStatement) -> Result<BoundQuery> {
        let (mut prepared, literals) = self.prepare(stmt)?;
        let mut query = std::mem::take(&mut prepared.query);
        prepared
            .fill(self.catalog, &literals, &mut query)
            .expect("a statement's own literals fit its prepared form");
        Ok(query)
    }

    /// The literal-independent part of binding `stmt` — reusable for every
    /// statement of the same token shape — and `stmt`'s own literals.
    ///
    /// # Errors
    /// Returns [`Error::Bind`] on unknown/ambiguous tables or columns.
    pub(crate) fn prepare<'s>(
        &self,
        stmt: &'s SelectStatement,
    ) -> Result<(Prepared, Vec<Literal<'s>>)> {
        let mut nodes = Vec::new();
        let mut literals = Vec::new();
        stmt.visit_literals(&mut |node| {
            nodes.push(match node {
                LiteralNode::Expr(e) => Some(e),
                LiteralNode::Limit(_) => None,
            });
            literals.push(Literal::from(node));
        });
        let mut out = Preparing {
            prepared: Prepared {
                query: BoundQuery { distinct: stmt.distinct, ..BoundQuery::default() },
                fixups: Vec::new(),
                ops: Vec::new(),
                // The outer LIMIT is the last thing in the statement.
                limit: stmt.limit.map(|_| nodes.len() - 1),
            },
            tables: Vec::new(),
            joins: Vec::new(),
            group_by: Vec::new(),
            order_by: Vec::new(),
            projections: Vec::new(),
            nodes,
        };
        let root = Scope { slots: Vec::new(), parent: None };
        self.bind_block(stmt, &root, &mut out, true)?;
        Ok((out.finish(), literals))
    }

    /// Binds one query block; returns the first projected column (used to
    /// connect `IN (SELECT x ...)` semi-joins).
    fn bind_block(
        &self,
        stmt: &SelectStatement,
        parent: &Scope<'_>,
        out: &mut Preparing<'_>,
        is_outer: bool,
    ) -> Result<Option<BoundColumn>> {
        out.prepared.query.n_blocks += 1;
        let mut slots = Vec::with_capacity(stmt.from.len() + stmt.joins.len());
        for t in stmt.from.iter().chain(stmt.joins.iter().map(|j| &j.table)) {
            let table = self
                .catalog
                .table_id(&t.table)
                .ok_or_else(|| Error::Bind(format!("unknown table `{}`", t.table)))?;
            let binding = t.binding_name();
            let slot = out.tables.len();
            out.tables.push(BoundTable { table, alias: binding.to_ascii_lowercase() });
            slots.push((binding, table, slot));
        }
        let scope = Scope { slots, parent: Some(parent) };

        for j in &stmt.joins {
            self.walk_predicate(&j.on, &scope, out, false, false)?;
        }
        if let Some(w) = &stmt.where_clause {
            self.walk_predicate(w, &scope, out, false, false)?;
        }
        // HAVING references aggregates; its raw columns do not produce
        // sargable filters, but aggregates must be counted.
        if let Some(h) = &stmt.having {
            out.prepared.query.n_aggregates += count_aggregates(h);
        }
        for item in &stmt.projections {
            if let SelectItem::Expr { expr, .. } = item {
                out.prepared.query.n_aggregates += count_aggregates(expr);
                if is_outer {
                    self.resolve_columns(expr, &scope, &mut |bc| out.projections.push(bc))?;
                }
            }
        }
        if is_outer {
            for g in &stmt.group_by {
                self.resolve_columns(g, &scope, &mut |bc| out.group_by.push(bc))?;
            }
            for o in &stmt.order_by {
                self.resolve_columns(&o.expr, &scope, &mut |bc| out.order_by.push(bc))?;
            }
        }
        // First projected column, to wire IN-subquery semi-joins.
        let first_proj = stmt.projections.iter().find_map(|item| match item {
            SelectItem::Expr { expr: Expr::Column(c), .. } => {
                self.resolve(c, &scope).ok().flatten()
            }
            _ => None,
        });
        Ok(first_proj)
    }

    fn resolve(&self, c: &ColumnRef, scope: &Scope<'_>) -> Result<Option<BoundColumn>> {
        match &c.qualifier {
            Some(q) => match scope.resolve_qualified(q, &c.name, self.catalog) {
                Some(bc) => Ok(Some(bc)),
                None => Err(Error::Bind(format!("unknown column `{q}.{}`", c.name))),
            },
            // Unqualified names that resolve nowhere are select-list
            // aliases (e.g. ORDER BY revenue) — ignore.
            None => scope.resolve_bare(&c.name, self.catalog),
        }
    }

    /// Hands every column under `e` (subqueries excluded) that resolves to
    /// `sink`, in order; stops at the first resolution error.
    fn resolve_columns(
        &self,
        e: &Expr,
        scope: &Scope<'_>,
        sink: &mut impl FnMut(BoundColumn),
    ) -> Result<()> {
        let mut outcome = Ok(());
        e.visit_columns(false, &mut |c| {
            if outcome.is_ok() {
                match self.resolve(c, scope) {
                    Ok(Some(bc)) => sink(bc),
                    Ok(None) => {}
                    Err(e) => outcome = Err(e),
                }
            }
        });
        outcome
    }

    /// Walks a predicate tree, registering filters and join edges.
    ///
    /// `under_or` marks descendants of `OR`/`NOT` (their filters are flagged
    /// non-conjunctive); `negated` complements leaf selectivities.
    fn walk_predicate(
        &self,
        e: &Expr,
        scope: &Scope<'_>,
        out: &mut Preparing<'_>,
        under_or: bool,
        negated: bool,
    ) -> Result<()> {
        match e {
            Expr::Binary { op: BinaryOp::And, left, right } => {
                self.walk_predicate(left, scope, out, under_or, negated)?;
                self.walk_predicate(right, scope, out, under_or, negated)
            }
            Expr::Binary { op: BinaryOp::Or, left, right } => {
                self.walk_predicate(left, scope, out, true, negated)?;
                self.walk_predicate(right, scope, out, true, negated)
            }
            // NOT over a composite does not distribute leaf-wise (De
            // Morgan); estimating it faithfully needs full boolean algebra,
            // so register the referenced columns as weak non-sargable
            // filters instead. NOT over a simple predicate complements its
            // selectivity exactly.
            Expr::Not(inner)
                if matches!(
                    &**inner,
                    Expr::Binary { op: BinaryOp::And, .. } | Expr::Binary { op: BinaryOp::Or, .. }
                ) =>
            {
                self.bind_opaque_columns(inner, scope, out, true)
            }
            Expr::Not(inner) => self.walk_predicate(inner, scope, out, true, !negated),
            Expr::Binary { op, left, right }
                if matches!(
                    op,
                    BinaryOp::Eq
                        | BinaryOp::NotEq
                        | BinaryOp::Lt
                        | BinaryOp::LtEq
                        | BinaryOp::Gt
                        | BinaryOp::GtEq
                ) =>
            {
                // Scalar subqueries in either operand (e.g. TPC-H Q2's
                // `ps_supplycost = (SELECT min(...) ...)`) contribute their
                // tables/filters/correlated joins before the comparison
                // itself is classified.
                self.bind_scalar_subqueries(left, scope, out)?;
                self.bind_scalar_subqueries(right, scope, out)?;
                self.bind_comparison(*op, left, right, scope, out, under_or, negated)
            }
            Expr::Between { expr, lo, hi, negated: n } => {
                let neg = negated ^ n;
                if let Some(col) = self.sargable_column(expr, scope)? {
                    let (lo, hi) = (out.fold(lo), out.fold(hi));
                    out.push_open_filter(col, FilterKind::Range, under_or || neg, !neg, |filter| {
                        Fixup::Between { filter, negated: neg, lo, hi }
                    });
                } else {
                    self.bind_opaque_columns(expr, scope, out, under_or)?;
                }
                Ok(())
            }
            Expr::InList { expr, list, negated: n } => {
                let neg = negated ^ n;
                if let Some(col) = self.sargable_column(expr, scope)? {
                    let column = self.catalog.column(col.gid);
                    let sel = Selectivity::in_list(column, list.len());
                    out.push_filter(
                        col,
                        FilterKind::InList,
                        complement_if(neg, sel),
                        under_or || neg,
                        !neg,
                    );
                } else {
                    self.bind_opaque_columns(expr, scope, out, under_or)?;
                }
                Ok(())
            }
            Expr::InSubquery { expr, subquery, .. } => {
                let inner_first = self.bind_block(subquery, scope, out, false)?;
                if let (Ok(Some(outer_col)), Some(inner_col)) =
                    (self.sargable_column(expr, scope), inner_first)
                {
                    let sel = Selectivity::equi_join(
                        self.catalog.column(outer_col.gid),
                        self.catalog.column(inner_col.gid),
                    );
                    // Anti-joins (`NOT IN`) keep the same edge shape.
                    out.joins.push(BoundJoin {
                        left: outer_col,
                        right: inner_col,
                        selectivity: sel,
                        semi: true,
                    });
                }
                Ok(())
            }
            Expr::Exists { subquery, .. } => {
                // Correlated predicates inside become join edges because the
                // subquery scope chains to ours.
                self.bind_block(subquery, scope, out, false)?;
                Ok(())
            }
            Expr::Like { expr, negated: n, .. } => {
                let neg = negated ^ n;
                if let Some(col) = self.sargable_column(expr, scope)? {
                    let pattern = out.literal_number(e);
                    out.push_open_filter(col, FilterKind::Like, under_or || neg, false, |filter| {
                        Fixup::Like { filter, negated: neg, pattern }
                    });
                }
                Ok(())
            }
            Expr::IsNull { expr, negated: n } => {
                let neg = negated ^ n;
                if let Some(col) = self.sargable_column(expr, scope)? {
                    let column = self.catalog.column(col.gid);
                    let sel = Selectivity::is_null(column);
                    out.push_filter(col, FilterKind::Null, complement_if(neg, sel), under_or, true);
                }
                Ok(())
            }
            // Anything else (bare booleans, arithmetic in odd positions):
            // just make sure its columns resolve so errors surface.
            other => self.bind_opaque_columns(other, scope, out, under_or),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn bind_comparison(
        &self,
        op: BinaryOp,
        left: &Expr,
        right: &Expr,
        scope: &Scope<'_>,
        out: &mut Preparing<'_>,
        under_or: bool,
        negated: bool,
    ) -> Result<()> {
        let lcol = self.sargable_column(left, scope)?;
        let rcol = self.sargable_column(right, scope)?;
        match (lcol, rcol) {
            (Some(l), Some(r)) if l.slot != r.slot => {
                // Join edge. Non-equi joins are modeled as a (weak) edge with
                // range-ish selectivity so the optimizer still connects the
                // graph, but only equi-joins are indexable join features.
                let selectivity = if op == BinaryOp::Eq {
                    Selectivity::equi_join(self.catalog.column(l.gid), self.catalog.column(r.gid))
                } else {
                    isum_catalog::selectivity::DEFAULT_UNKNOWN
                };
                out.joins.push(BoundJoin { left: l, right: r, selectivity, semi: false });
                Ok(())
            }
            (Some(l), Some(_r)) => {
                // Same-slot column comparison, e.g. l_commitdate < l_receiptdate.
                out.push_filter(
                    l,
                    FilterKind::SameTable,
                    isum_catalog::selectivity::DEFAULT_UNKNOWN,
                    under_or,
                    false,
                );
                Ok(())
            }
            (Some(col), None) | (None, Some(col)) => {
                let lit = if lcol.is_some() { out.fold(right) } else { out.fold(left) };
                let mut cmp = to_compare_op(op);
                // `5 < col` means `col > 5`.
                if lcol.is_none() {
                    cmp = flip(cmp);
                }
                let kind = match cmp {
                    CompareOp::Eq => FilterKind::Eq,
                    CompareOp::NotEq => FilterKind::NotEq,
                    _ => FilterKind::Range,
                };
                let sargable = !matches!(kind, FilterKind::NotEq) && !negated;
                let in_disjunction = under_or || negated;
                match lit {
                    Some(value) => {
                        out.push_open_filter(col, kind, in_disjunction, sargable, |filter| {
                            Fixup::Compare { filter, op: cmp, negated, value }
                        });
                    }
                    None => {
                        // Comparison against a string/unfoldable literal:
                        // fall back to density for Eq, default otherwise.
                        let column = self.catalog.column(col.gid);
                        let sel = match cmp {
                            CompareOp::Eq => column.stats.density(),
                            CompareOp::NotEq => 1.0 - column.stats.density(),
                            _ => isum_catalog::selectivity::DEFAULT_UNKNOWN,
                        };
                        out.push_filter(
                            col,
                            kind,
                            complement_if(negated, sel).clamp(0.0, 1.0),
                            in_disjunction,
                            sargable,
                        );
                    }
                }
                Ok(())
            }
            (None, None) => {
                self.bind_opaque_columns(left, scope, out, under_or)?;
                self.bind_opaque_columns(right, scope, out, under_or)
            }
        }
    }

    /// Binds every scalar subquery nested in an expression as an additional
    /// flattened block (correlated predicates become join edges).
    fn bind_scalar_subqueries(
        &self,
        e: &Expr,
        scope: &Scope<'_>,
        out: &mut Preparing<'_>,
    ) -> Result<()> {
        match e {
            Expr::ScalarSubquery(q) => {
                self.bind_block(q, scope, out, false)?;
                Ok(())
            }
            Expr::Binary { left, right, .. } => {
                self.bind_scalar_subqueries(left, scope, out)?;
                self.bind_scalar_subqueries(right, scope, out)
            }
            Expr::Func { args, .. } => {
                for a in args {
                    self.bind_scalar_subqueries(a, scope, out)?;
                }
                Ok(())
            }
            Expr::Not(inner) => self.bind_scalar_subqueries(inner, scope, out),
            _ => Ok(()),
        }
    }

    /// Extracts the single bare column a predicate side tests, if any.
    /// `col` and `col + const` are sargable; `f(col)` is not.
    fn sargable_column(&self, e: &Expr, scope: &Scope<'_>) -> Result<Option<BoundColumn>> {
        match e {
            Expr::Column(c) => self.resolve(c, scope),
            Expr::Binary { op: BinaryOp::Add | BinaryOp::Sub, left, right } => match &**left {
                Expr::Column(c) if is_foldable(right) => self.resolve(c, scope),
                _ => Ok(None),
            },
            _ => Ok(None),
        }
    }

    /// Resolves every column under an uninterpreted expression, registering
    /// non-sargable filters so the columns still count as (weak) indexable
    /// filter columns — e.g. `substring(c_phone, 1, 2) IN (...)`.
    fn bind_opaque_columns(
        &self,
        e: &Expr,
        scope: &Scope<'_>,
        out: &mut Preparing<'_>,
        under_or: bool,
    ) -> Result<()> {
        self.resolve_columns(e, scope, &mut |bc| {
            out.push_filter(
                bc,
                FilterKind::SameTable,
                isum_catalog::selectivity::DEFAULT_UNKNOWN,
                under_or,
                false,
            );
        })
    }
}

fn to_compare_op(op: BinaryOp) -> CompareOp {
    match op {
        BinaryOp::Eq => CompareOp::Eq,
        BinaryOp::NotEq => CompareOp::NotEq,
        BinaryOp::Lt => CompareOp::Lt,
        BinaryOp::LtEq => CompareOp::LtEq,
        BinaryOp::Gt => CompareOp::Gt,
        BinaryOp::GtEq => CompareOp::GtEq,
        _ => unreachable!("not a comparison"),
    }
}

fn flip(op: CompareOp) -> CompareOp {
    match op {
        CompareOp::Lt => CompareOp::Gt,
        CompareOp::LtEq => CompareOp::GtEq,
        CompareOp::Gt => CompareOp::Lt,
        CompareOp::GtEq => CompareOp::LtEq,
        other => other,
    }
}

/// Selectivity heuristic for LIKE patterns: longer literal prefixes are more
/// selective.
fn like_selectivity(pattern: &str) -> f64 {
    let literal_len = pattern.chars().take_while(|&c| c != '%' && c != '_').count();
    match literal_len {
        0 => 0.25,
        1 => 0.1,
        2 => 0.05,
        _ => 0.01,
    }
}

fn count_aggregates(e: &Expr) -> usize {
    match e {
        Expr::Agg { arg, .. } => 1 + arg.as_deref().map_or(0, count_aggregates),
        Expr::Binary { left, right, .. } => count_aggregates(left) + count_aggregates(right),
        Expr::Between { expr, lo, hi, .. } => {
            count_aggregates(expr) + count_aggregates(lo) + count_aggregates(hi)
        }
        Expr::InList { expr, list, .. } => {
            count_aggregates(expr) + list.iter().map(count_aggregates).sum::<usize>()
        }
        Expr::Not(e) | Expr::Like { expr: e, .. } | Expr::IsNull { expr: e, .. } => {
            count_aggregates(e)
        }
        Expr::Func { args, .. } => args.iter().map(count_aggregates).sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use isum_catalog::CatalogBuilder;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .table("orders", 1500)
            .col_key("o_orderkey")
            .col_int("o_custkey", 150, 1, 150)
            .col_date("o_orderdate", 8035, 10_591)
            .col_text("o_orderpriority", 5, 15)
            .finish()
            .unwrap()
            .table("lineitem", 6000)
            .col_int("l_orderkey", 1500, 1, 1500)
            .col_float("l_quantity", 50, 1.0, 50.0)
            .col_date("l_shipdate", 8035, 10_591)
            .col_date("l_commitdate", 8035, 10_591)
            .col_date("l_receiptdate", 8035, 10_591)
            .col_text("l_shipmode", 7, 10)
            .finish()
            .unwrap()
            .build()
    }

    fn bind(sql: &str) -> BoundQuery {
        let cat = catalog();
        let stmt = parse(sql).unwrap();
        Binder::new(&cat).bind(&stmt).unwrap()
    }

    #[test]
    fn binds_filters_with_selectivity() {
        let q = bind("SELECT o_orderkey FROM orders WHERE o_custkey = 7");
        assert_eq!(q.tables.len(), 1);
        assert_eq!(q.filters.len(), 1);
        let f = &q.filters[0];
        assert_eq!(f.kind, FilterKind::Eq);
        assert!(f.sargable);
        assert!(f.selectivity > 0.0 && f.selectivity < 0.05, "{}", f.selectivity);
    }

    #[test]
    fn binds_comma_join_as_equi_join() {
        let q = bind(
            "SELECT o_orderkey FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_quantity > 40",
        );
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.joins.len(), 1);
        assert!(!q.joins[0].semi);
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.filters[0].kind, FilterKind::Range);
        // quantity > 40 over [1, 50] uniform ≈ 0.2
        assert!((q.filters[0].selectivity - 0.2).abs() < 0.05);
    }

    #[test]
    fn binds_explicit_join_on_clause() {
        let q =
            bind("SELECT o_orderkey FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey");
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.joins[0].selectivity, 1.0 / 1500.0);
    }

    #[test]
    fn flattens_exists_subquery_with_correlation() {
        let q = bind(
            "SELECT o_orderpriority FROM orders WHERE o_orderdate >= DATE '1993-07-01' AND EXISTS \
             (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)",
        );
        assert_eq!(q.tables.len(), 2, "subquery table flattened in");
        assert_eq!(q.n_blocks, 2);
        // The correlated equality becomes a join edge.
        assert_eq!(q.joins.len(), 1);
        // l_commitdate < l_receiptdate is a same-table non-sargable filter.
        assert!(q.filters.iter().any(|f| f.kind == FilterKind::SameTable && !f.sargable));
    }

    #[test]
    fn in_subquery_becomes_semi_join() {
        let q = bind("SELECT o_orderkey FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_quantity > 45)");
        assert_eq!(q.joins.len(), 1);
        assert!(q.joins[0].semi);
        assert_eq!(q.filters.len(), 1);
    }

    #[test]
    fn group_and_order_columns_captured() {
        let q =
            bind("SELECT o_custkey, count(*) FROM orders GROUP BY o_custkey ORDER BY o_custkey");
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 1);
        assert_eq!(q.n_aggregates, 1);
    }

    #[test]
    fn order_by_alias_is_ignored_not_an_error() {
        let q = bind(
            "SELECT o_custkey, count(*) AS cnt FROM orders GROUP BY o_custkey ORDER BY cnt DESC",
        );
        assert!(q.order_by.is_empty());
    }

    #[test]
    fn or_predicates_flagged_as_disjunctive() {
        let q = bind("SELECT o_orderkey FROM orders WHERE o_custkey = 1 OR o_custkey = 2");
        assert_eq!(q.filters.len(), 2);
        assert!(q.filters.iter().all(|f| f.in_disjunction));
    }

    #[test]
    fn negation_complements_selectivity() {
        let pos = bind("SELECT o_orderkey FROM orders WHERE o_custkey = 1");
        let neg = bind("SELECT o_orderkey FROM orders WHERE NOT o_custkey = 1");
        assert!((pos.filters[0].selectivity + neg.filters[0].selectivity - 1.0).abs() < 1e-9);
        assert!(neg.filters[0].in_disjunction);
    }

    #[test]
    fn between_and_in_list() {
        let q = bind(
            "SELECT l_quantity FROM lineitem WHERE l_quantity BETWEEN 10 AND 20 \
             AND l_shipmode IN ('MAIL', 'SHIP')",
        );
        assert_eq!(q.filters.len(), 2);
        let range = q.filters.iter().find(|f| f.kind == FilterKind::Range).unwrap();
        assert!((range.selectivity - 10.0 / 49.0).abs() < 0.05);
        let inlist = q.filters.iter().find(|f| f.kind == FilterKind::InList).unwrap();
        assert!((inlist.selectivity - 2.0 / 7.0).abs() < 0.01);
    }

    #[test]
    fn date_arithmetic_folds_in_range() {
        let q = bind(
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1995-01-01' + INTERVAL '90' DAY",
        );
        assert_eq!(q.filters.len(), 1);
        let f = &q.filters[0];
        assert!(f.selectivity > 0.0 && f.selectivity < 1.0);
    }

    #[test]
    fn like_sargability_depends_on_prefix() {
        let q = bind(
            "SELECT o_orderkey FROM orders WHERE o_orderpriority LIKE '1-URGENT%' \
             AND o_orderpriority LIKE '%special%'",
        );
        let sargable: Vec<bool> = q.filters.iter().map(|f| f.sargable).collect();
        assert_eq!(sargable, vec![true, false]);
    }

    #[test]
    fn like_prefix_length_counts_characters_not_bytes() {
        // `é` is two bytes; lexed byte by byte it counted as two characters.
        let q = bind("SELECT o_orderkey FROM orders WHERE o_orderpriority LIKE 'é%'");
        assert_eq!(q.filters[0].selectivity, 0.1);
        assert!(q.filters[0].sargable);
        let q = bind("SELECT o_orderkey FROM orders WHERE o_orderpriority LIKE '''%'");
        assert_eq!(q.filters[0].selectivity, 0.1, "an escaped quote is one character");
    }

    #[test]
    fn unknown_names_error() {
        let cat = catalog();
        let binder = Binder::new(&cat);
        let stmt = parse("SELECT x FROM nope").unwrap();
        assert!(matches!(binder.bind(&stmt), Err(Error::Bind(_))));
        let stmt = parse("SELECT o.nope FROM orders o").unwrap();
        assert!(matches!(binder.bind(&stmt), Err(Error::Bind(_))));
    }

    #[test]
    fn self_join_gets_two_slots() {
        let q = bind(
            "SELECT o1.o_orderkey FROM orders o1, orders o2 WHERE o1.o_custkey = o2.o_custkey",
        );
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.referenced_tables().len(), 1, "same TableId deduplicated");
    }

    #[test]
    fn average_selectivity_over_filters_and_joins() {
        let q = bind(
            "SELECT o_orderkey FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_quantity > 40",
        );
        let avg = q.average_selectivity();
        assert!(avg > 0.0 && avg < 0.2, "avg {avg}");
        let no_pred = bind("SELECT o_orderkey FROM orders");
        assert_eq!(no_pred.average_selectivity(), 1.0);
    }

    #[test]
    fn slot_filter_selectivity_is_product() {
        let q =
            bind("SELECT l_quantity FROM lineitem WHERE l_quantity > 40 AND l_shipmode = 'AIR'");
        let expected: f64 = q.filters.iter().map(|f| f.selectivity).product();
        assert!((q.slot_filter_selectivity(0) - expected).abs() < 1e-12);
        assert_eq!(q.slot_filter_selectivity(5), 1.0);
    }

    #[test]
    fn opaque_function_predicates_register_nonsargable_columns() {
        let q = bind("SELECT o_orderkey FROM orders WHERE substring(o_orderpriority, 1, 2) = '1-'");
        assert!(!q.filters.is_empty());
        assert!(q.filters.iter().all(|f| !f.sargable));
    }
}

#[cfg(test)]
mod coalesce_tests {
    use super::*;
    use crate::parser::parse;
    use isum_catalog::CatalogBuilder;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .table("orders", 1_500_000)
            .col_key("o_orderkey")
            .col_date("o_orderdate", 8035, 10_591)
            .col_int("o_custkey", 100_000, 1, 150_000)
            .finish()
            .unwrap()
            .build()
    }

    fn bind(sql: &str) -> BoundQuery {
        let cat = catalog();
        Binder::new(&cat).bind(&parse(sql).unwrap()).unwrap()
    }

    #[test]
    fn paired_ranges_coalesce_to_window_selectivity() {
        let q = bind(
            "SELECT o_orderkey FROM orders WHERE o_orderdate >= DATE '1994-01-01' \
             AND o_orderdate < DATE '1994-04-01'",
        );
        assert_eq!(q.filters.len(), 1, "two one-sided ranges merge");
        let f = &q.filters[0];
        assert_eq!(f.kind, FilterKind::Range);
        // 90 days of ~2556: ~3.5%, nowhere near the 0.25 independence gives.
        assert!(f.selectivity < 0.06, "window selectivity {}", f.selectivity);
        assert!(f.lo.is_some() && f.hi.is_some());
    }

    #[test]
    fn ranges_on_different_columns_do_not_merge() {
        let q = bind(
            "SELECT o_orderkey FROM orders WHERE o_orderdate >= DATE '1994-01-01' \
             AND o_custkey < 50",
        );
        assert_eq!(q.filters.len(), 2);
    }

    #[test]
    fn same_direction_ranges_do_not_merge() {
        // Two lower bounds: redundant, but merging them with max/min would
        // be a different (legal) optimization; we only merge complements.
        let q = bind(
            "SELECT o_orderkey FROM orders WHERE o_orderdate >= DATE '1994-01-01' \
             AND o_orderdate >= DATE '1995-01-01'",
        );
        assert_eq!(q.filters.len(), 2);
    }

    #[test]
    fn disjunctive_ranges_do_not_merge() {
        let q = bind(
            "SELECT o_orderkey FROM orders WHERE o_orderdate >= DATE '1994-01-01' \
             OR o_orderdate < DATE '1993-01-01'",
        );
        assert_eq!(q.filters.len(), 2);
    }

    #[test]
    fn between_already_carries_both_bounds() {
        let q = bind(
            "SELECT o_orderkey FROM orders WHERE o_orderdate BETWEEN DATE '1994-01-01' AND DATE '1994-04-01'",
        );
        assert_eq!(q.filters.len(), 1);
        assert!(q.filters[0].lo.is_some() && q.filters[0].hi.is_some());
    }
}
