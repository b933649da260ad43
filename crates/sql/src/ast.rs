//! Abstract syntax tree for the supported SQL subset.
//!
//! One renderer, [`write_statement`], turns the tree back into canonical
//! SQL: unmasked it is the `Display` impls, with every literal masked it is
//! the template fingerprint (see [`crate::template`]).

use std::fmt;

use crate::dates::days_to_iso;

/// A (possibly qualified) column reference, e.g. `l.l_orderkey` or `o_custkey`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias qualifier, when written.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(name: impl Into<String>) -> Self {
        Self { qualifier: None, name: name.into().to_ascii_lowercase() }
    }

    /// Qualified reference.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        Self {
            qualifier: Some(qualifier.into().to_ascii_lowercase()),
            name: name.into().to_ascii_lowercase(),
        }
    }
}

impl ColumnRef {
    fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        if let Some(q) = &self.qualifier {
            out.write_str(q)?;
            out.write_char('.')?;
        }
        out.write_str(&self.name)
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl AggFunc {
    const ALL: [AggFunc; 5] =
        [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];

    /// The function's (lower-case) name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Recognizes an aggregate function name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|func| name.eq_ignore_ascii_case(func.name()))
    }
}

/// Binary operators in expression trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinaryOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinaryOp {
    /// The operator as SQL spells it.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Numeric literal.
    Number(f64),
    /// String literal.
    String(String),
    /// `DATE 'YYYY-MM-DD'` stored as days since epoch.
    Date(i64),
    /// `NULL`.
    Null,
    /// Binary operation (comparison, boolean, arithmetic).
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        lo: Box<Expr>,
        /// Upper bound.
        hi: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, ..., vn)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Literal list.
        list: Vec<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// Subquery.
        subquery: Box<SelectStatement>,
        /// Negation flag.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// Subquery.
        subquery: Box<SelectStatement>,
        /// Negation flag.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern text.
        pattern: String,
        /// Negation flag.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Negation flag.
        negated: bool,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// Aggregate call, e.g. `SUM(l_quantity)`; `arg = None` is `COUNT(*)`.
    Agg {
        /// Function.
        func: AggFunc,
        /// Argument (`None` for `COUNT(*)`).
        arg: Option<Box<Expr>>,
        /// `DISTINCT` flag.
        distinct: bool,
    },
    /// Uninterpreted scalar function call, e.g. `substring(x, 1, 2)`.
    Func {
        /// Function name (lower-cased).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Scalar subquery `(SELECT ...)` in an expression position.
    ScalarSubquery(Box<SelectStatement>),
}

impl Expr {
    /// Convenience for building comparisons.
    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// True when the expression is a literal (number/string/date/null).
    pub fn is_literal(&self) -> bool {
        matches!(self, Expr::Number(_) | Expr::String(_) | Expr::Date(_) | Expr::Null)
    }

    /// Visits every column reference in the expression (including inside
    /// subqueries when `into_subqueries` is set).
    pub fn visit_columns<'a>(&'a self, into_subqueries: bool, f: &mut impl FnMut(&'a ColumnRef)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Number(_) | Expr::String(_) | Expr::Date(_) | Expr::Null => {}
            Expr::Binary { left, right, .. } => {
                left.visit_columns(into_subqueries, f);
                right.visit_columns(into_subqueries, f);
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.visit_columns(into_subqueries, f);
                lo.visit_columns(into_subqueries, f);
                hi.visit_columns(into_subqueries, f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(into_subqueries, f);
                for e in list {
                    e.visit_columns(into_subqueries, f);
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                expr.visit_columns(into_subqueries, f);
                if into_subqueries {
                    subquery.visit_columns(f);
                }
            }
            Expr::Exists { subquery, .. } => {
                if into_subqueries {
                    subquery.visit_columns(f);
                }
            }
            Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => {
                expr.visit_columns(into_subqueries, f)
            }
            Expr::Not(e) => e.visit_columns(into_subqueries, f),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit_columns(into_subqueries, f);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit_columns(into_subqueries, f);
                }
            }
            Expr::ScalarSubquery(q) => {
                if into_subqueries {
                    q.visit_columns(f);
                }
            }
        }
    }
}

impl Expr {
    fn visit_literals<'a>(&'a self, f: &mut impl FnMut(LiteralNode<'a>)) {
        match self {
            Expr::Number(_) | Expr::String(_) | Expr::Date(_) => f(LiteralNode::Expr(self)),
            Expr::Column(_) | Expr::Null => {}
            Expr::Binary { left, right, .. } => {
                left.visit_literals(f);
                right.visit_literals(f);
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.visit_literals(f);
                lo.visit_literals(f);
                hi.visit_literals(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_literals(f);
                for e in list {
                    e.visit_literals(f);
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                expr.visit_literals(f);
                subquery.visit_literals(f);
            }
            Expr::Exists { subquery, .. } => subquery.visit_literals(f),
            Expr::Like { expr, .. } => {
                expr.visit_literals(f);
                f(LiteralNode::Expr(self));
            }
            Expr::IsNull { expr, .. } => expr.visit_literals(f),
            Expr::Not(e) => e.visit_literals(f),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit_literals(f);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit_literals(f);
                }
            }
            Expr::ScalarSubquery(q) => q.visit_literals(f),
        }
    }
}

/// A place in a statement that holds a literal value; see
/// [`SelectStatement::visit_literals`].
#[derive(Debug, Clone, Copy)]
pub enum LiteralNode<'a> {
    /// An [`Expr::Number`], [`Expr::String`] or [`Expr::Date`] node, or an
    /// [`Expr::Like`] node standing for its pattern.
    Expr(&'a Expr),
    /// The row count of a block's `LIMIT`.
    Limit(u64),
}

/// One item of a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression with an optional alias.
    Expr {
        /// Projected expression.
        expr: Expr,
        /// `AS alias`, when written.
        alias: Option<String>,
    },
}

/// A base table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias, when written.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name other clauses use to refer to this table.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

impl TableRef {
    fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str(&self.table)?;
        if let Some(a) = &self.alias {
            out.write_char(' ')?;
            out.write_str(a)?;
        }
        Ok(())
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Explicit join flavors (we model LEFT OUTER as a kind; semantics only
/// affect cardinality, which the optimizer handles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

/// `JOIN <table> ON <predicate>` clause attached to the `FROM` list.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// Join flavor.
    pub kind: JoinKind,
    /// Joined table.
    pub table: TableRef,
    /// `ON` predicate.
    pub on: Expr,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    /// Ordering expression (almost always a column).
    pub expr: Expr,
    /// Descending flag.
    pub desc: bool,
}

/// A full `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<SelectItem>,
    /// Comma-separated base tables.
    pub from: Vec<TableRef>,
    /// Explicit joins.
    pub joins: Vec<Join>,
    /// `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` columns.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

impl SelectStatement {
    /// Visits every column reference in the statement and its subqueries.
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a ColumnRef)) {
        for item in &self.projections {
            if let SelectItem::Expr { expr, .. } = item {
                expr.visit_columns(true, f);
            }
        }
        for j in &self.joins {
            j.on.visit_columns(true, f);
        }
        if let Some(w) = &self.where_clause {
            w.visit_columns(true, f);
        }
        for g in &self.group_by {
            g.visit_columns(true, f);
        }
        if let Some(h) = &self.having {
            h.visit_columns(true, f);
        }
        for o in &self.order_by {
            o.expr.visit_columns(true, f);
        }
    }

    /// Visits every literal of the statement and its subqueries in source
    /// order — the order the parser met them, which is how the literals of
    /// a statement are numbered everywhere (`crate::binder`,
    /// `crate::prepared`).
    pub fn visit_literals<'a>(&'a self, f: &mut impl FnMut(LiteralNode<'a>)) {
        for item in &self.projections {
            if let SelectItem::Expr { expr, .. } = item {
                expr.visit_literals(f);
            }
        }
        for j in &self.joins {
            j.on.visit_literals(f);
        }
        if let Some(w) = &self.where_clause {
            w.visit_literals(f);
        }
        for g in &self.group_by {
            g.visit_literals(f);
        }
        if let Some(h) = &self.having {
            h.visit_literals(f);
        }
        for o in &self.order_by {
            o.expr.visit_literals(f);
        }
        if let Some(l) = self.limit {
            f(LiteralNode::Limit(l));
        }
    }

    /// All table names referenced in this statement and nested subqueries.
    pub fn referenced_tables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables<'a>(&'a self, out: &mut Vec<&'a str>) {
        for t in &self.from {
            out.push(&t.table);
        }
        for j in &self.joins {
            out.push(&j.table.table);
        }
        let visit_expr = |e: &'a Expr, out: &mut Vec<&'a str>| {
            collect_subquery_tables(e, out);
        };
        if let Some(w) = &self.where_clause {
            visit_expr(w, out);
        }
        if let Some(h) = &self.having {
            visit_expr(h, out);
        }
        for item in &self.projections {
            if let SelectItem::Expr { expr, .. } = item {
                visit_expr(expr, out);
            }
        }
    }
}

fn collect_subquery_tables<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    match e {
        Expr::InSubquery { subquery, expr, .. } => {
            subquery.collect_tables(out);
            collect_subquery_tables(expr, out);
        }
        Expr::Exists { subquery, .. } => subquery.collect_tables(out),
        Expr::ScalarSubquery(q) => q.collect_tables(out),
        Expr::Binary { left, right, .. } => {
            collect_subquery_tables(left, out);
            collect_subquery_tables(right, out);
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_subquery_tables(expr, out);
            collect_subquery_tables(lo, out);
            collect_subquery_tables(hi, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_subquery_tables(expr, out);
            for e in list {
                collect_subquery_tables(e, out);
            }
        }
        Expr::Not(e) | Expr::Like { expr: e, .. } | Expr::IsNull { expr: e, .. } => {
            collect_subquery_tables(e, out)
        }
        Expr::Agg { arg: Some(a), .. } => collect_subquery_tables(a, out),
        Expr::Func { args, .. } => {
            for a in args {
                collect_subquery_tables(a, out);
            }
        }
        _ => {}
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self, false)
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_statement(f, self, false)
    }
}

/// What a masked literal renders as. Distinct from anything the lexer can
/// produce, so a fingerprint never collides with real SQL text.
const PLACEHOLDER: &str = "?()";

fn not_kw(negated: bool) -> &'static str {
    if negated {
        "NOT "
    } else {
        ""
    }
}

/// Writes `s` as a single-quoted SQL string, doubling embedded quotes.
fn write_quoted(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('\'')?;
    let mut parts = s.split('\'');
    if let Some(first) = parts.next() {
        out.write_str(first)?;
    }
    for part in parts {
        out.write_str("''")?;
        out.write_str(part)?;
    }
    out.write_char('\'')
}

fn write_comma_separated<W: fmt::Write, T>(
    out: &mut W,
    items: &[T],
    mut write_item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write_item(out, item)?;
    }
    Ok(())
}

/// Renders an expression as canonical SQL. With `mask` set every literal
/// becomes a placeholder — `BETWEEN` bounds and `LIKE` patterns included,
/// and an `IN` list collapses to one placeholder so lists of different
/// lengths share a template, matching how production plan-cache
/// fingerprints behave.
pub fn write_expr(out: &mut impl fmt::Write, e: &Expr, mask: bool) -> fmt::Result {
    match e {
        Expr::Number(_) | Expr::String(_) | Expr::Date(_) if mask => out.write_str(PLACEHOLDER),
        Expr::Column(c) => c.write_to(out),
        Expr::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                write!(out, "{}", *n as i64)
            } else {
                write!(out, "{n}")
            }
        }
        Expr::String(s) => write_quoted(out, s),
        Expr::Date(d) => write!(out, "DATE '{}'", days_to_iso(*d)),
        Expr::Null => out.write_str("NULL"),
        Expr::Binary { op, left, right } => {
            out.write_char('(')?;
            write_expr(out, left, mask)?;
            out.write_char(' ')?;
            out.write_str(op.symbol())?;
            out.write_char(' ')?;
            write_expr(out, right, mask)?;
            out.write_char(')')
        }
        Expr::Between { expr, lo, hi, negated } => {
            out.write_char('(')?;
            write_expr(out, expr, mask)?;
            out.write_char(' ')?;
            out.write_str(not_kw(*negated))?;
            out.write_str("BETWEEN ")?;
            if mask {
                out.write_str(PLACEHOLDER)?;
                out.write_str(" AND ")?;
                out.write_str(PLACEHOLDER)?;
            } else {
                write_expr(out, lo, false)?;
                out.write_str(" AND ")?;
                write_expr(out, hi, false)?;
            }
            out.write_char(')')
        }
        Expr::InList { expr, list, negated } => {
            out.write_char('(')?;
            write_expr(out, expr, mask)?;
            out.write_char(' ')?;
            out.write_str(not_kw(*negated))?;
            out.write_str("IN (")?;
            if mask {
                out.write_str(PLACEHOLDER)?;
            } else {
                write_comma_separated(out, list, |out, e| write_expr(out, e, false))?;
            }
            out.write_str("))")
        }
        Expr::InSubquery { expr, subquery, negated } => {
            out.write_char('(')?;
            write_expr(out, expr, mask)?;
            out.write_char(' ')?;
            out.write_str(not_kw(*negated))?;
            out.write_str("IN (")?;
            write_statement(out, subquery, mask)?;
            out.write_str("))")
        }
        Expr::Exists { subquery, negated } => {
            out.write_str(not_kw(*negated))?;
            out.write_str("EXISTS (")?;
            write_statement(out, subquery, mask)?;
            out.write_char(')')
        }
        Expr::Like { expr, pattern, negated } => {
            out.write_char('(')?;
            write_expr(out, expr, mask)?;
            out.write_char(' ')?;
            out.write_str(not_kw(*negated))?;
            out.write_str("LIKE ")?;
            write_quoted(out, if mask { "?" } else { pattern })?;
            out.write_char(')')
        }
        Expr::IsNull { expr, negated } => {
            out.write_char('(')?;
            write_expr(out, expr, mask)?;
            out.write_str(" IS ")?;
            out.write_str(not_kw(*negated))?;
            out.write_str("NULL)")
        }
        Expr::Not(e) => {
            out.write_str("(NOT ")?;
            write_expr(out, e, mask)?;
            out.write_char(')')
        }
        Expr::Agg { func, arg, distinct } => {
            out.write_str(func.name())?;
            out.write_char('(')?;
            match arg {
                Some(a) => {
                    if *distinct {
                        out.write_str("DISTINCT ")?;
                    }
                    write_expr(out, a, mask)?;
                }
                None => out.write_char('*')?,
            }
            out.write_char(')')
        }
        Expr::Func { name, args } => {
            out.write_str(name)?;
            out.write_char('(')?;
            write_comma_separated(out, args, |out, a| write_expr(out, a, mask))?;
            out.write_char(')')
        }
        Expr::ScalarSubquery(q) => {
            out.write_char('(')?;
            write_statement(out, q, mask)?;
            out.write_char(')')
        }
    }
}

/// Renders a statement as canonical SQL; with `mask` set, as its template
/// fingerprint text (literals masked, see [`write_expr`]; `LIMIT` values
/// are parameters too).
pub fn write_statement(
    out: &mut impl fmt::Write,
    stmt: &SelectStatement,
    mask: bool,
) -> fmt::Result {
    out.write_str("SELECT ")?;
    if stmt.distinct {
        out.write_str("DISTINCT ")?;
    }
    if stmt.projections.is_empty() {
        out.write_char('*')?;
    }
    write_comma_separated(out, &stmt.projections, |out, p| match p {
        SelectItem::Wildcard => out.write_char('*'),
        SelectItem::Expr { expr, alias } => {
            write_expr(out, expr, mask)?;
            if let Some(a) = alias {
                out.write_str(" AS ")?;
                out.write_str(a)?;
            }
            Ok(())
        }
    })?;
    out.write_str(" FROM ")?;
    write_comma_separated(out, &stmt.from, |out, t| t.write_to(out))?;
    for j in &stmt.joins {
        out.write_str(match j.kind {
            JoinKind::Inner => " JOIN ",
            JoinKind::LeftOuter => " LEFT JOIN ",
        })?;
        j.table.write_to(out)?;
        out.write_str(" ON ")?;
        write_expr(out, &j.on, mask)?;
    }
    if let Some(w) = &stmt.where_clause {
        out.write_str(" WHERE ")?;
        write_expr(out, w, mask)?;
    }
    if !stmt.group_by.is_empty() {
        out.write_str(" GROUP BY ")?;
        write_comma_separated(out, &stmt.group_by, |out, g| write_expr(out, g, mask))?;
    }
    if let Some(h) = &stmt.having {
        out.write_str(" HAVING ")?;
        write_expr(out, h, mask)?;
    }
    if !stmt.order_by.is_empty() {
        out.write_str(" ORDER BY ")?;
        write_comma_separated(out, &stmt.order_by, |out, o| {
            write_expr(out, &o.expr, mask)?;
            if o.desc {
                out.write_str(" DESC")?;
            }
            Ok(())
        })?;
    }
    if let Some(l) = stmt.limit {
        write!(out, " LIMIT {}", if mask { 0 } else { l })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::bare("A").to_string(), "a");
        assert_eq!(ColumnRef::qualified("T", "C").to_string(), "t.c");
    }

    #[test]
    fn expr_display_renders_sql() {
        let e = Expr::binary(
            BinaryOp::And,
            Expr::binary(BinaryOp::Eq, Expr::Column(ColumnRef::bare("a")), Expr::Number(3.0)),
            Expr::Between {
                expr: Box::new(Expr::Column(ColumnRef::bare("b"))),
                lo: Box::new(Expr::Number(1.0)),
                hi: Box::new(Expr::Number(2.0)),
                negated: false,
            },
        );
        assert_eq!(e.to_string(), "((a = 3) AND (b BETWEEN 1 AND 2))");
    }

    #[test]
    fn date_display_roundtrips() {
        let e = Expr::Date(crate::dates::parse_iso_date("1998-09-02").unwrap());
        assert_eq!(e.to_string(), "DATE '1998-09-02'");
    }

    #[test]
    fn visit_columns_descends_subqueries() {
        let sub = SelectStatement {
            projections: vec![SelectItem::Expr {
                expr: Expr::Column(ColumnRef::bare("x")),
                alias: None,
            }],
            from: vec![TableRef { table: "u".into(), alias: None }],
            ..Default::default()
        };
        let e = Expr::InSubquery {
            expr: Box::new(Expr::Column(ColumnRef::bare("a"))),
            subquery: Box::new(sub),
            negated: false,
        };
        let mut seen = Vec::new();
        e.visit_columns(true, &mut |c| seen.push(c.name.clone()));
        assert_eq!(seen, vec!["a".to_string(), "x".to_string()]);
        let mut shallow = Vec::new();
        e.visit_columns(false, &mut |c| shallow.push(c.name.clone()));
        assert_eq!(shallow, vec!["a".to_string()]);
    }

    #[test]
    fn referenced_tables_include_subqueries() {
        let sub = SelectStatement {
            from: vec![TableRef { table: "inner_t".into(), alias: None }],
            ..Default::default()
        };
        let stmt = SelectStatement {
            from: vec![TableRef { table: "outer_t".into(), alias: None }],
            where_clause: Some(Expr::Exists { subquery: Box::new(sub), negated: true }),
            ..Default::default()
        };
        assert_eq!(stmt.referenced_tables(), vec!["outer_t", "inner_t"]);
    }

    #[test]
    fn statement_display_full_clause_order() {
        let stmt = SelectStatement {
            distinct: false,
            projections: vec![
                SelectItem::Expr { expr: Expr::Column(ColumnRef::bare("a")), alias: None },
                SelectItem::Expr {
                    expr: Expr::Agg {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(Expr::Column(ColumnRef::bare("b")))),
                        distinct: false,
                    },
                    alias: Some("total".into()),
                },
            ],
            from: vec![TableRef { table: "t".into(), alias: Some("x".into()) }],
            joins: vec![Join {
                kind: JoinKind::Inner,
                table: TableRef { table: "u".into(), alias: None },
                on: Expr::binary(
                    BinaryOp::Eq,
                    Expr::Column(ColumnRef::qualified("x", "id")),
                    Expr::Column(ColumnRef::qualified("u", "id")),
                ),
            }],
            where_clause: Some(Expr::binary(
                BinaryOp::Gt,
                Expr::Column(ColumnRef::bare("a")),
                Expr::Number(10.0),
            )),
            group_by: vec![Expr::Column(ColumnRef::bare("a"))],
            having: None,
            order_by: vec![OrderByItem { expr: Expr::Column(ColumnRef::bare("a")), desc: true }],
            limit: Some(5),
        };
        assert_eq!(
            stmt.to_string(),
            "SELECT a, sum(b) AS total FROM t x JOIN u ON (x.id = u.id) \
             WHERE (a > 10) GROUP BY a ORDER BY a DESC LIMIT 5"
        );
    }
}
