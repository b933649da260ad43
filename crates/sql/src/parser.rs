//! Recursive-descent SQL parser.
//!
//! Grammar (roughly):
//! ```text
//! select    := SELECT [DISTINCT] items FROM tables {join} [WHERE expr]
//!              [GROUP BY exprs] [HAVING expr] [ORDER BY order_items] [LIMIT n]
//! expr      := or_expr
//! or_expr   := and_expr {OR and_expr}
//! and_expr  := not_expr {AND not_expr}
//! not_expr  := NOT not_expr | predicate
//! predicate := additive [cmp additive | [NOT] BETWEEN .. AND ..
//!              | [NOT] IN (..) | [NOT] LIKE '..' | IS [NOT] NULL]
//! additive  := multiplicative {(+|-) multiplicative}
//! mult      := primary {(*|/) primary}
//! primary   := literal | column | agg(..) | func(..) | (expr) | (select)
//!              | EXISTS (select) | DATE '..' | CASE .. END
//! ```

use std::borrow::Cow;

use isum_common::{Error, Result};

use crate::ast::{
    AggFunc, BinaryOp, ColumnRef, Expr, Join, JoinKind, LiteralNode, OrderByItem, SelectItem,
    SelectStatement, TableRef,
};
use crate::dates::parse_iso_date;
use crate::lexer::lex;
use crate::token::{Keyword, Token, TokenKind};

/// Parses one SQL `SELECT` statement (an optional trailing `;` is allowed).
///
/// ```
/// let stmt = isum_sql::parse(
///     "SELECT a, sum(b) FROM t WHERE c BETWEEN 1 AND 9 GROUP BY a ORDER BY a DESC",
/// )?;
/// assert_eq!(stmt.from[0].table, "t");
/// assert_eq!(stmt.group_by.len(), 1);
/// assert!(stmt.order_by[0].desc);
/// # Ok::<(), isum_common::Error>(())
/// ```
///
/// # Errors
/// Returns [`Error::Lex`]/[`Error::Parse`] with a byte offset on bad input.
pub fn parse(sql: &str) -> Result<SelectStatement> {
    parse_tokens(sql, &lex(sql)?).map(|(stmt, _)| stmt)
}

/// [`parse`] over an already lexed statement. Also returns how each of
/// the statement's literals (in source order, see
/// [`SelectStatement::visit_literals`]) came out of the literal tokens —
/// what lets a later statement with the same token shape skip the parser.
pub(crate) fn parse_tokens(
    input: &str,
    tokens: &[Token],
) -> Result<(SelectStatement, Vec<LiteralSource>)> {
    let mut p = Parser { input, tokens, pos: 0, sources: Vec::new() };
    let stmt = p.parse_select()?;
    p.eat_kind(TokenKind::Semicolon);
    p.expect_kind(TokenKind::Eof)?;
    Ok((stmt, p.sources))
}

/// Parses a file containing multiple `;`-separated statements.
///
/// # Errors
/// Propagates the first parse error encountered.
pub fn parse_many(sql: &str) -> Result<Vec<SelectStatement>> {
    let tokens = lex(sql)?;
    let mut p = Parser { input: sql, tokens: &tokens, pos: 0, sources: Vec::new() };
    let mut out = Vec::new();
    loop {
        while p.eat_kind(TokenKind::Semicolon) {}
        if p.peek_kind() == TokenKind::Eof {
            return Ok(out);
        }
        out.push(p.parse_select()?);
    }
}

/// The unit of an `INTERVAL` literal; intervals fold to a day count so
/// date arithmetic stays numeric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntervalUnit {
    Day,
    Month,
    Year,
}

impl IntervalUnit {
    fn parse(unit: &str) -> Option<Self> {
        Some(match unit {
            "day" | "days" => IntervalUnit::Day,
            "month" | "months" => IntervalUnit::Month,
            "year" | "years" => IntervalUnit::Year,
            _ => return None,
        })
    }

    fn days(self, amount: f64) -> f64 {
        match self {
            IntervalUnit::Day => amount,
            IntervalUnit::Month => amount * 30.0,
            IntervalUnit::Year => amount * 365.0,
        }
    }
}

/// The value of one literal as the parser hands it to the AST. Strings
/// that are compared or listed carry no value here: nothing downstream of
/// the parser reads it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Literal<'a> {
    /// A number, a date (days since epoch) or an interval (days).
    Number(f64),
    /// A `LIKE` pattern, unescaped.
    Pattern(Cow<'a, str>),
    /// A `LIMIT` row count.
    RowCount(u64),
    /// A string outside `LIKE` / `DATE` / `INTERVAL`.
    Text,
}

impl<'a> From<LiteralNode<'a>> for Literal<'a> {
    /// The literal as the AST holds it.
    fn from(node: LiteralNode<'a>) -> Self {
        match node {
            LiteralNode::Expr(Expr::Number(n)) => Literal::Number(*n),
            LiteralNode::Expr(Expr::Date(days)) => Literal::Number(*days as f64),
            LiteralNode::Expr(Expr::Like { pattern, .. }) => {
                Literal::Pattern(Cow::Borrowed(pattern))
            }
            LiteralNode::Expr(_) => Literal::Text,
            LiteralNode::Limit(n) => Literal::RowCount(n),
        }
    }
}

/// How the parser turned literal tokens into one literal of the
/// statement. Every variant except [`Zero`](LiteralSource::Zero) consumes
/// the next Number/String token; which variant sits where depends only on
/// the other tokens, so the list is the same for every statement with the
/// same token shape. [`literals_of`] replays it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LiteralSource {
    /// A number, negated when under an odd count of unary minuses.
    Number { negated: bool },
    /// `INTERVAL <number or 'number'> <unit>`, possibly negated.
    Interval { unit: IntervalUnit, negated: bool },
    /// `DATE '<iso date>'`.
    Date,
    /// A string in an ordinary expression position.
    Text,
    /// The pattern of a `LIKE`.
    Pattern,
    /// The row count of a `LIMIT`.
    RowCount,
    /// The `0` that `-<expr>` desugars to (`0 - <expr>`); no token.
    Zero,
}

/// A `LIMIT` operand is a non-negative whole number.
fn row_count(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

fn interval_amount(text: &str) -> Option<f64> {
    text.trim().parse().ok()
}

fn negate_if(negated: bool, n: f64) -> f64 {
    if negated {
        -n
    } else {
        n
    }
}

/// Computes the literals of a statement from its tokens by replaying
/// `sources` (recorded when a statement of the same token shape was
/// parsed). `None` when a literal fails the check the parser applies to it
/// (bad date, bad interval amount, fractional row count) or the tokens do
/// not line up with the sources: the caller then parses the statement to
/// get the canonical error.
pub(crate) fn literals_of<'a>(
    sources: &[LiteralSource],
    input: &'a str,
    tokens: &[Token],
) -> Option<Vec<Literal<'a>>> {
    let mut literal_tokens =
        tokens.iter().filter(|t| matches!(t.kind, TokenKind::Number(_) | TokenKind::String { .. }));
    let mut out = Vec::with_capacity(sources.len());
    for source in sources {
        if *source == LiteralSource::Zero {
            out.push(Literal::Number(0.0));
            continue;
        }
        let token = literal_tokens.next()?;
        out.push(match (*source, token.kind) {
            (LiteralSource::Number { negated }, TokenKind::Number(n)) => {
                Literal::Number(negate_if(negated, n))
            }
            (LiteralSource::Interval { unit, negated }, kind) => {
                let amount = match kind {
                    TokenKind::Number(n) => n,
                    _ => interval_amount(&token.string_value(input))?,
                };
                Literal::Number(negate_if(negated, unit.days(amount)))
            }
            (LiteralSource::Date, TokenKind::String { .. }) => {
                Literal::Number(parse_iso_date(&token.string_value(input)).ok()? as f64)
            }
            (LiteralSource::Text, TokenKind::String { .. }) => Literal::Text,
            (LiteralSource::Pattern, TokenKind::String { .. }) => {
                Literal::Pattern(token.string_value(input))
            }
            (LiteralSource::RowCount, TokenKind::Number(n)) => Literal::RowCount(row_count(n)?),
            _ => return None,
        });
    }
    literal_tokens.next().is_none().then_some(out)
}

struct Parser<'a> {
    input: &'a str,
    tokens: &'a [Token],
    pos: usize,
    sources: Vec<LiteralSource>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> TokenKind {
        self.tokens[self.pos].kind
    }

    fn peek_kind_at(&self, ahead: usize) -> TokenKind {
        let idx = (self.pos + ahead).min(self.tokens.len() - 1);
        self.tokens[idx].kind
    }

    /// Steps past the current token (never past the final `Eof`).
    fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    fn error(&self, message: impl Into<String>) -> Error {
        Error::Parse { offset: self.peek().offset, message: message.into() }
    }

    /// `<what>, found <the current token>`.
    fn unexpected(&self, what: impl std::fmt::Display) -> Error {
        self.error(format!("{what}, found {}", self.peek().describe(self.input)))
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(format_args!("expected {kw:?}")))
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        self.eat_kind(TokenKind::Keyword(kw))
    }

    fn expect_kind(&mut self, kind: TokenKind) -> Result<()> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(self.unexpected(format_args!("expected {kind}")))
        }
    }

    fn eat_kind(&mut self, kind: TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    /// The current token's text lower-cased — the one place an identifier
    /// is copied out of the input — when it is an identifier.
    fn eat_ident(&mut self) -> Option<String> {
        if self.peek_kind() != TokenKind::Ident {
            return None;
        }
        let name = self.peek().text(self.input).to_ascii_lowercase();
        self.advance();
        Some(name)
    }

    fn expect_ident(&mut self) -> Result<String> {
        self.eat_ident().ok_or_else(|| self.unexpected("expected identifier"))
    }

    /// The current token's value when it is a string literal.
    fn eat_string(&mut self) -> Option<Cow<'a, str>> {
        if !matches!(self.peek_kind(), TokenKind::String { .. }) {
            return None;
        }
        let value = self.tokens[self.pos].string_value(self.input);
        self.advance();
        Some(value)
    }

    fn parse_select(&mut self) -> Result<SelectStatement> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);
        let mut projections = vec![self.parse_select_item()?];
        while self.eat_kind(TokenKind::Comma) {
            projections.push(self.parse_select_item()?);
        }
        self.expect_keyword(Keyword::From)?;
        let mut from = vec![self.parse_table_ref()?];
        let mut joins = Vec::new();
        loop {
            if self.eat_kind(TokenKind::Comma) {
                from.push(self.parse_table_ref()?);
            } else if self.peek_is_join() {
                joins.push(self.parse_join()?);
            } else {
                break;
            }
        }
        let where_clause =
            if self.eat_keyword(Keyword::Where) { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.parse_expr()?);
            while self.eat_kind(TokenKind::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having =
            if self.eat_keyword(Keyword::Having) { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_keyword(Keyword::Desc) {
                    true
                } else {
                    self.eat_keyword(Keyword::Asc);
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.eat_kind(TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword(Keyword::Limit) {
            let count = match self.peek_kind() {
                TokenKind::Number(n) => row_count(n),
                _ => None,
            };
            let Some(count) = count else {
                return Err(self.unexpected("expected row count"));
            };
            self.advance();
            self.sources.push(LiteralSource::RowCount);
            Some(count)
        } else {
            None
        };
        Ok(SelectStatement {
            distinct,
            projections,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn peek_is_join(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::Keyword(Keyword::Join)
                | TokenKind::Keyword(Keyword::Inner)
                | TokenKind::Keyword(Keyword::Left)
        )
    }

    fn parse_join(&mut self) -> Result<Join> {
        let kind = if self.eat_keyword(Keyword::Left) {
            self.eat_keyword(Keyword::Outer);
            JoinKind::LeftOuter
        } else {
            self.eat_keyword(Keyword::Inner);
            JoinKind::Inner
        };
        self.expect_keyword(Keyword::Join)?;
        let table = self.parse_table_ref()?;
        self.expect_keyword(Keyword::On)?;
        let on = self.parse_expr()?;
        Ok(Join { kind, table, on })
    }

    /// `AS alias`, or a bare alias when an identifier directly follows
    /// (`SELECT a b FROM ...`, `FROM lineitem l`).
    fn parse_alias(&mut self) -> Result<Option<String>> {
        if self.eat_keyword(Keyword::As) {
            Ok(Some(self.expect_ident()?))
        } else {
            Ok(self.eat_ident())
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_kind(TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let table = self.expect_ident()?;
        let alias = self.parse_alias()?;
        Ok(TableRef { table, alias })
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::binary(BinaryOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::binary(BinaryOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.peek_kind() == TokenKind::Keyword(Keyword::Not)
            && self.peek_kind_at(1) != TokenKind::Keyword(Keyword::Exists)
        {
            self.advance();
            return Ok(Expr::Not(Box::new(self.parse_not()?)));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        let negated = if self.peek_kind() == TokenKind::Keyword(Keyword::Not)
            && matches!(
                self.peek_kind_at(1),
                TokenKind::Keyword(Keyword::Between)
                    | TokenKind::Keyword(Keyword::In)
                    | TokenKind::Keyword(Keyword::Like)
            ) {
            self.advance();
            true
        } else {
            false
        };
        let comparison = match self.peek_kind() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = comparison {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(op, left, right));
        }
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Between) => {
                self.advance();
                let lo = self.parse_additive()?;
                self.expect_keyword(Keyword::And)?;
                let hi = self.parse_additive()?;
                Ok(Expr::Between {
                    expr: Box::new(left),
                    lo: Box::new(lo),
                    hi: Box::new(hi),
                    negated,
                })
            }
            TokenKind::Keyword(Keyword::In) => {
                self.advance();
                self.expect_kind(TokenKind::LParen)?;
                if self.peek_kind() == TokenKind::Keyword(Keyword::Select) {
                    let sub = self.parse_select()?;
                    self.expect_kind(TokenKind::RParen)?;
                    Ok(Expr::InSubquery { expr: Box::new(left), subquery: Box::new(sub), negated })
                } else {
                    let mut list = vec![self.parse_additive()?];
                    while self.eat_kind(TokenKind::Comma) {
                        list.push(self.parse_additive()?);
                    }
                    self.expect_kind(TokenKind::RParen)?;
                    Ok(Expr::InList { expr: Box::new(left), list, negated })
                }
            }
            TokenKind::Keyword(Keyword::Like) => {
                self.advance();
                let Some(pattern) = self.eat_string().map(String::from) else {
                    return Err(self.unexpected("expected pattern string"));
                };
                self.sources.push(LiteralSource::Pattern);
                Ok(Expr::Like { expr: Box::new(left), pattern, negated })
            }
            TokenKind::Keyword(Keyword::Is) => {
                self.advance();
                let negated = self.eat_keyword(Keyword::Not);
                self.expect_keyword(Keyword::Null)?;
                Ok(Expr::IsNull { expr: Box::new(left), negated })
            }
            _ => Ok(left),
        }
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_primary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.parse_primary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek_kind() {
            TokenKind::Number(n) => {
                self.advance();
                self.sources.push(LiteralSource::Number { negated: false });
                Ok(Expr::Number(n))
            }
            TokenKind::Minus => {
                self.advance();
                let mark = self.sources.len();
                match self.parse_primary()? {
                    Expr::Number(n) => {
                        // A number leaves exactly one source behind.
                        match self.sources.last_mut() {
                            Some(
                                LiteralSource::Number { negated }
                                | LiteralSource::Interval { negated, .. },
                            ) => *negated = !*negated,
                            other => unreachable!("number literal came from {other:?}"),
                        }
                        Ok(Expr::Number(-n))
                    }
                    e => {
                        self.sources.insert(mark, LiteralSource::Zero);
                        Ok(Expr::binary(BinaryOp::Sub, Expr::Number(0.0), e))
                    }
                }
            }
            TokenKind::String { .. } => {
                let s = self.eat_string().map(String::from).expect("peeked a string");
                self.sources.push(LiteralSource::Text);
                Ok(Expr::String(s))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Null)
            }
            TokenKind::Keyword(Keyword::Date) => {
                self.advance();
                let Some(text) = self.eat_string() else {
                    return Err(self.unexpected("expected date string"));
                };
                let days = parse_iso_date(&text)?;
                self.sources.push(LiteralSource::Date);
                Ok(Expr::Date(days))
            }
            TokenKind::Keyword(Keyword::Interval) => {
                // INTERVAL '<n>' DAY|MONTH|YEAR — folded to a day count so
                // date arithmetic stays numeric.
                self.advance();
                let amount = match self.peek_kind() {
                    TokenKind::String { .. } => {
                        let text = self.eat_string().expect("peeked a string");
                        interval_amount(&text)
                            .ok_or_else(|| self.error(format!("bad interval amount '{text}'")))?
                    }
                    TokenKind::Number(n) => {
                        self.advance();
                        n
                    }
                    _ => return Err(self.unexpected("expected interval amount")),
                };
                let unit = self.expect_ident()?;
                let unit = IntervalUnit::parse(&unit)
                    .ok_or_else(|| self.error(format!("unknown interval unit `{unit}`")))?;
                self.sources.push(LiteralSource::Interval { unit, negated: false });
                Ok(Expr::Number(unit.days(amount)))
            }
            TokenKind::Keyword(Keyword::Exists) => {
                self.advance();
                self.parse_exists(false)
            }
            TokenKind::Keyword(Keyword::Not)
                if self.peek_kind_at(1) == TokenKind::Keyword(Keyword::Exists) =>
            {
                self.advance();
                self.advance();
                self.parse_exists(true)
            }
            TokenKind::Keyword(Keyword::Case) => self.parse_case(),
            TokenKind::LParen => {
                self.advance();
                if self.peek_kind() == TokenKind::Keyword(Keyword::Select) {
                    let sub = self.parse_select()?;
                    self.expect_kind(TokenKind::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(sub)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_kind(TokenKind::RParen)?;
                    Ok(e)
                }
            }
            TokenKind::Ident => {
                let name = self.expect_ident()?;
                if self.eat_kind(TokenKind::LParen) {
                    if let Some(func) = AggFunc::parse(&name) {
                        // COUNT(*) / aggregate over expression.
                        if func == AggFunc::Count && self.eat_kind(TokenKind::Star) {
                            self.expect_kind(TokenKind::RParen)?;
                            return Ok(Expr::Agg { func, arg: None, distinct: false });
                        }
                        let distinct = self.eat_keyword(Keyword::Distinct);
                        let arg = self.parse_expr()?;
                        self.expect_kind(TokenKind::RParen)?;
                        return Ok(Expr::Agg { func, arg: Some(Box::new(arg)), distinct });
                    }
                    let mut args = Vec::new();
                    if self.peek_kind() != TokenKind::RParen {
                        args.push(self.parse_expr()?);
                        while self.eat_kind(TokenKind::Comma) {
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect_kind(TokenKind::RParen)?;
                    return Ok(Expr::Func { name, args });
                }
                if self.eat_kind(TokenKind::Dot) {
                    let column = self.expect_ident()?;
                    return Ok(Expr::Column(ColumnRef { qualifier: Some(name), name: column }));
                }
                Ok(Expr::Column(ColumnRef { qualifier: None, name }))
            }
            _ => Err(self.error(format!("unexpected {}", self.peek().describe(self.input)))),
        }
    }

    /// The `(SELECT ...)` after `[NOT] EXISTS`.
    fn parse_exists(&mut self, negated: bool) -> Result<Expr> {
        self.expect_kind(TokenKind::LParen)?;
        let sub = self.parse_select()?;
        self.expect_kind(TokenKind::RParen)?;
        Ok(Expr::Exists { subquery: Box::new(sub), negated })
    }

    /// `CASE WHEN e THEN e [WHEN ...] [ELSE e] END`, lowered to an
    /// uninterpreted function so downstream code sees its column refs.
    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_keyword(Keyword::Case)?;
        let mut args = Vec::new();
        while self.eat_keyword(Keyword::When) {
            args.push(self.parse_expr()?);
            self.expect_keyword(Keyword::Then)?;
            args.push(self.parse_expr()?);
        }
        if self.eat_keyword(Keyword::Else) {
            args.push(self.parse_expr()?);
        }
        self.expect_keyword(Keyword::End)?;
        if args.is_empty() {
            return Err(self.error("CASE without WHEN branches"));
        }
        Ok(Expr::Func { name: "case".into(), args })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_select() {
        let q = parse("SELECT a FROM t").unwrap();
        assert_eq!(q.projections.len(), 1);
        assert_eq!(q.from[0].table, "t");
        assert!(q.where_clause.is_none());
    }

    #[test]
    fn parses_full_clause_set() {
        let q = parse(
            "SELECT l_returnflag, sum(l_quantity) AS qty \
             FROM lineitem \
             WHERE l_shipdate <= DATE '1998-09-02' AND l_quantity > 10 \
             GROUP BY l_returnflag \
             HAVING sum(l_quantity) > 100 \
             ORDER BY l_returnflag DESC LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_comma_joins_and_explicit_joins() {
        let q = parse(
            "SELECT * FROM a, b x JOIN c ON x.k = c.k LEFT JOIN d ON c.j = d.j WHERE a.k = x.k",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].kind, JoinKind::Inner);
        assert_eq!(q.joins[1].kind, JoinKind::LeftOuter);
        assert_eq!(q.from[1].binding_name(), "x");
    }

    #[test]
    fn parses_in_between_like() {
        let q = parse(
            "SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4) \
             AND c BETWEEN 1 AND 9 AND d NOT BETWEEN 2 AND 3 \
             AND e LIKE 'x%' AND f NOT LIKE '%y' AND g IS NOT NULL",
        )
        .unwrap();
        let w = q.where_clause.unwrap().to_string();
        assert!(w.contains("IN (1, 2, 3)"));
        assert!(w.contains("NOT IN (4)"));
        assert!(w.contains("BETWEEN 1 AND 9"));
        assert!(w.contains("NOT BETWEEN 2 AND 3"));
        assert!(w.contains("LIKE 'x%'"));
        assert!(w.contains("NOT LIKE '%y'"));
        assert!(w.contains("IS NOT NULL"));
    }

    #[test]
    fn parses_subqueries() {
        let q = parse(
            "SELECT o_orderpriority FROM orders WHERE EXISTS \
             (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)",
        )
        .unwrap();
        match q.where_clause.unwrap() {
            Expr::Exists { subquery, negated } => {
                assert!(!negated);
                assert_eq!(subquery.from[0].table, "lineitem");
            }
            other => panic!("expected EXISTS, got {other:?}"),
        }
        let q2 = parse("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE u.c > 5)").unwrap();
        assert!(matches!(q2.where_clause.unwrap(), Expr::InSubquery { negated: true, .. }));
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let q = parse("SELECT a + b * c FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &q.projections[0] else { panic!() };
        assert_eq!(expr.to_string(), "(a + (b * c))");
    }

    #[test]
    fn parses_aggregates_and_functions() {
        let q =
            parse("SELECT count(*), sum(DISTINCT x), avg(y), substring(s, 1, 2) FROM t").unwrap();
        assert_eq!(q.projections.len(), 4);
        let SelectItem::Expr { expr, .. } = &q.projections[1] else { panic!() };
        assert!(matches!(expr, Expr::Agg { distinct: true, .. }));
        let SelectItem::Expr { expr, .. } = &q.projections[3] else { panic!() };
        assert!(matches!(expr, Expr::Func { .. }));
    }

    #[test]
    fn parses_date_arithmetic_with_interval() {
        let q = parse("SELECT a FROM t WHERE d < DATE '1995-01-01' + INTERVAL '3' MONTH").unwrap();
        let w = q.where_clause.unwrap();
        // INTERVAL '3' MONTH folds to 90 (days).
        assert!(w.to_string().contains("90"), "{w}");
    }

    #[test]
    fn parses_case_expression() {
        let q = parse("SELECT sum(CASE WHEN a = 1 THEN b ELSE 0 END) FROM t GROUP BY c").unwrap();
        let SelectItem::Expr { expr, .. } = &q.projections[0] else { panic!() };
        assert!(expr.to_string().contains("case("));
    }

    #[test]
    fn parse_many_splits_statements() {
        let qs = parse_many("SELECT a FROM t; SELECT b FROM u;").unwrap();
        assert_eq!(qs.len(), 2);
        assert!(parse_many("  ;; ").unwrap().is_empty());
    }

    #[test]
    fn error_messages_point_at_offset() {
        let err = parse("SELECT FROM t").unwrap_err();
        match err {
            Error::Parse { offset, .. } => assert_eq!(offset, 7),
            other => panic!("unexpected {other}"),
        }
        assert!(parse("SELECT a t").is_err()); // missing FROM
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
    }

    #[test]
    fn negative_numbers_and_unary_minus() {
        let q = parse("SELECT a FROM t WHERE a > -5").unwrap();
        assert_eq!(q.where_clause.unwrap().to_string(), "(a > -5)");
    }

    #[test]
    fn not_with_parenthesized_or() {
        let q = parse("SELECT a FROM t WHERE NOT (a = 1 OR b = 2)").unwrap();
        assert!(matches!(q.where_clause.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn display_roundtrips_through_parser() {
        let sql = "SELECT a, sum(b) AS s FROM t x JOIN u ON (x.k = u.k) \
                   WHERE ((a > 10) AND (b IN (1, 2))) GROUP BY a ORDER BY a DESC LIMIT 3";
        let q1 = parse(sql).unwrap();
        let q2 = parse(&q1.to_string()).unwrap();
        assert_eq!(q1, q2);
    }
}
