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
//!
//! A statement whose expressions nest deeper than [`MAX_EXPR_DEPTH`] —
//! by recursion or by a long operator chain, which folds into a
//! left-deep tree — is a parse error like any other.

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
    let mut p = Parser::new(input, tokens);
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
    let mut p = Parser::new(sql, &tokens);
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

/// Deepest expression tree the parser builds, counted in nodes from a
/// root to its deepest leaf (a subquery's `SELECT` is a node); also the
/// deepest it recurses, where a pair of parentheses adds a call but no
/// node. Everything downstream of the parser — bind, render, `Drop` —
/// recurses once per level, so this is what keeps a hostile statement
/// from overflowing a thread's stack: an unoptimized build needs about
/// 11 KiB per level, a 2 MiB thread holds that with a quarter to spare.
/// Loop-built operator chains count too (a chain of n terms is a tree n
/// levels tall), so a `WHERE` of 128 `AND`ed comparisons is refused.
/// Measured headroom: over the 621 generator templates (every benchmark
/// workload draws from them) the tallest expression is 12 levels and the
/// longest chain 11 terms — pinned below 16 by
/// `crates/workload/tests/deep_statements.rs`.
pub const MAX_EXPR_DEPTH: u32 = 128;

struct Parser<'a> {
    input: &'a str,
    tokens: &'a [Token],
    pos: usize,
    sources: Vec<LiteralSource>,
    /// Self-recursive productions entered and not yet left.
    depth: u32,
    /// Height of the expression the last expression production returned
    /// (of the tallest clause, after `parse_select`).
    height: u32,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, tokens: &'a [Token]) -> Self {
        Parser { input, tokens, pos: 0, sources: Vec::new(), depth: 0, height: 0 }
    }

    fn too_deep(&self) -> Error {
        self.error(format!("expression nests deeper than {MAX_EXPR_DEPTH} levels"))
    }

    /// Runs a production that can reach itself again, one level down.
    fn nested<T>(&mut self, production: fn(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let parsed = production(self);
        self.depth -= 1;
        parsed
    }

    /// Records the height of a node about to be built over children of
    /// height `tallest`, so no expression taller than the cap ever exists
    /// (dropping one would recurse as deep as it is tall).
    fn grow(&mut self, tallest: u32) -> Result<()> {
        if tallest >= MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.height = tallest + 1;
        Ok(())
    }

    /// `operand {op operand}`, folded into a left-deep tree.
    fn parse_chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr>,
        eat_op: fn(&mut Self) -> Option<BinaryOp>,
    ) -> Result<Expr> {
        let mut left = operand(self)?;
        while let Some(op) = eat_op(self) {
            let height = self.height;
            let right = operand(self)?;
            self.grow(height.max(self.height))?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    /// One clause expression of a `SELECT`; `tallest` keeps the maximum
    /// height over the clauses.
    fn parse_clause(&mut self, tallest: &mut u32) -> Result<Expr> {
        let expr = self.parse_expr()?;
        *tallest = (*tallest).max(self.height);
        Ok(expr)
    }

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
        let mut tallest = 0;
        let mut projections = vec![self.parse_select_item(&mut tallest)?];
        while self.eat_kind(TokenKind::Comma) {
            projections.push(self.parse_select_item(&mut tallest)?);
        }
        self.expect_keyword(Keyword::From)?;
        let mut from = vec![self.parse_table_ref()?];
        let mut joins = Vec::new();
        loop {
            if self.eat_kind(TokenKind::Comma) {
                from.push(self.parse_table_ref()?);
            } else if self.peek_is_join() {
                joins.push(self.parse_join(&mut tallest)?);
            } else {
                break;
            }
        }
        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_clause(&mut tallest)?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.push(self.parse_clause(&mut tallest)?);
            while self.eat_kind(TokenKind::Comma) {
                group_by.push(self.parse_clause(&mut tallest)?);
            }
        }
        let having = if self.eat_keyword(Keyword::Having) {
            Some(self.parse_clause(&mut tallest)?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_clause(&mut tallest)?;
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
        self.height = tallest;
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

    fn parse_join(&mut self, tallest: &mut u32) -> Result<Join> {
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
        let on = self.parse_clause(tallest)?;
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

    fn parse_select_item(&mut self, tallest: &mut u32) -> Result<SelectItem> {
        if self.eat_kind(TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.parse_clause(tallest)?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let table = self.expect_ident()?;
        let alias = self.parse_alias()?;
        Ok(TableRef { table, alias })
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        self.parse_chain(Self::parse_and, |p| p.eat_keyword(Keyword::Or).then_some(BinaryOp::Or))
    }

    fn parse_and(&mut self) -> Result<Expr> {
        self.parse_chain(Self::parse_not, |p| p.eat_keyword(Keyword::And).then_some(BinaryOp::And))
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.peek_kind() == TokenKind::Keyword(Keyword::Not)
            && self.peek_kind_at(1) != TokenKind::Keyword(Keyword::Exists)
        {
            self.advance();
            let inner = self.nested(Self::parse_not)?;
            self.grow(self.height)?;
            return Ok(Expr::Not(Box::new(inner)));
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
        // What the predicate node stands on: `left`, then each operand.
        let tallest = self.height;
        if let Some(op) = comparison {
            self.advance();
            let right = self.parse_additive()?;
            self.grow(tallest.max(self.height))?;
            return Ok(Expr::binary(op, left, right));
        }
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Between | Keyword::In | Keyword::Like | Keyword::Is) => {
                self.parse_predicate_tail(left, negated)
            }
            _ => Ok(left),
        }
    }

    /// `left [NOT] BETWEEN .. | [NOT] IN (..) | [NOT] LIKE '..' | IS [NOT]
    /// NULL`, from the keyword on (apart from `parse_predicate` for the
    /// reason `parse_primary` gives).
    fn parse_predicate_tail(&mut self, left: Expr, negated: bool) -> Result<Expr> {
        let mut tallest = self.height;
        match self.peek_kind() {
            TokenKind::Keyword(Keyword::Between) => {
                self.advance();
                let lo = self.parse_additive()?;
                tallest = tallest.max(self.height);
                self.expect_keyword(Keyword::And)?;
                let hi = self.parse_additive()?;
                self.grow(tallest.max(self.height))?;
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
                    let subquery = self.parse_subquery()?;
                    self.grow(tallest.max(self.height))?;
                    Ok(Expr::InSubquery { expr: Box::new(left), subquery, negated })
                } else {
                    let mut list = Vec::new();
                    loop {
                        list.push(self.parse_additive()?);
                        tallest = tallest.max(self.height);
                        if !self.eat_kind(TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect_kind(TokenKind::RParen)?;
                    self.grow(tallest)?;
                    Ok(Expr::InList { expr: Box::new(left), list, negated })
                }
            }
            TokenKind::Keyword(Keyword::Like) => {
                self.advance();
                let Some(pattern) = self.eat_string().map(String::from) else {
                    return Err(self.unexpected("expected pattern string"));
                };
                self.sources.push(LiteralSource::Pattern);
                self.grow(tallest)?;
                Ok(Expr::Like { expr: Box::new(left), pattern, negated })
            }
            TokenKind::Keyword(Keyword::Is) => {
                self.advance();
                let negated = self.eat_keyword(Keyword::Not);
                self.expect_keyword(Keyword::Null)?;
                self.grow(tallest)?;
                Ok(Expr::IsNull { expr: Box::new(left), negated })
            }
            _ => unreachable!("the caller peeked one of the four keywords"),
        }
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        self.parse_chain(Self::parse_multiplicative, |p| {
            let op = match p.peek_kind() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => return None,
            };
            p.advance();
            Some(op)
        })
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        self.parse_chain(Self::parse_primary, |p| {
            let op = match p.peek_kind() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                _ => return None,
            };
            p.advance();
            Some(op)
        })
    }

    /// Dispatch only: each arm that needs locals is a function of its
    /// own, so that the frames a nested `(` or call costs stay small (an
    /// unoptimized build lays out every arm's locals side by side).
    fn parse_primary(&mut self) -> Result<Expr> {
        // A leaf, unless an arm below builds on something.
        self.height = 1;
        match self.peek_kind() {
            TokenKind::Number(n) => {
                self.advance();
                self.sources.push(LiteralSource::Number { negated: false });
                Ok(Expr::Number(n))
            }
            TokenKind::Minus => self.parse_negation(),
            TokenKind::String { .. } => {
                let s = self.eat_string().map(String::from).expect("peeked a string");
                self.sources.push(LiteralSource::Text);
                Ok(Expr::String(s))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Null)
            }
            TokenKind::Keyword(Keyword::Date) => self.parse_date(),
            TokenKind::Keyword(Keyword::Interval) => self.parse_interval(),
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
            TokenKind::LParen => self.parse_parenthesized(),
            TokenKind::Ident => self.parse_name(),
            _ => Err(self.error(format!("unexpected {}", self.peek().describe(self.input)))),
        }
    }

    /// `-<primary>`: a negative literal, or `0 - <primary>`.
    fn parse_negation(&mut self) -> Result<Expr> {
        self.advance();
        let mark = self.sources.len();
        match self.nested(Self::parse_primary)? {
            Expr::Number(n) => {
                // A number leaves exactly one source behind.
                match self.sources.last_mut() {
                    Some(
                        LiteralSource::Number { negated } | LiteralSource::Interval { negated, .. },
                    ) => *negated = !*negated,
                    other => unreachable!("number literal came from {other:?}"),
                }
                Ok(Expr::Number(-n))
            }
            e => {
                self.sources.insert(mark, LiteralSource::Zero);
                self.grow(self.height)?;
                Ok(Expr::binary(BinaryOp::Sub, Expr::Number(0.0), e))
            }
        }
    }

    /// `DATE '<iso date>'`.
    fn parse_date(&mut self) -> Result<Expr> {
        self.advance();
        let Some(text) = self.eat_string() else {
            return Err(self.unexpected("expected date string"));
        };
        let days = parse_iso_date(&text)?;
        self.sources.push(LiteralSource::Date);
        Ok(Expr::Date(days))
    }

    /// `INTERVAL '<n>' DAY|MONTH|YEAR` — folded to a day count so date
    /// arithmetic stays numeric.
    fn parse_interval(&mut self) -> Result<Expr> {
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

    /// `(<expr>)` or a scalar `(SELECT ...)`.
    fn parse_parenthesized(&mut self) -> Result<Expr> {
        self.advance();
        if self.peek_kind() == TokenKind::Keyword(Keyword::Select) {
            let subquery = self.parse_subquery()?;
            self.grow(self.height)?;
            Ok(Expr::ScalarSubquery(subquery))
        } else {
            let e = self.parse_expr()?;
            self.expect_kind(TokenKind::RParen)?;
            Ok(e)
        }
    }

    /// What starts with an identifier: a column, an aggregate or a call.
    fn parse_name(&mut self) -> Result<Expr> {
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
                self.grow(self.height)?;
                return Ok(Expr::Agg { func, arg: Some(Box::new(arg)), distinct });
            }
            let mut args = Vec::new();
            let mut tallest = 0;
            if self.peek_kind() != TokenKind::RParen {
                args.push(self.parse_clause(&mut tallest)?);
                while self.eat_kind(TokenKind::Comma) {
                    args.push(self.parse_clause(&mut tallest)?);
                }
            }
            self.expect_kind(TokenKind::RParen)?;
            self.grow(tallest)?;
            return Ok(Expr::Func { name, args });
        }
        if self.eat_kind(TokenKind::Dot) {
            let column = self.expect_ident()?;
            return Ok(Expr::Column(ColumnRef { qualifier: Some(name), name: column }));
        }
        Ok(Expr::Column(ColumnRef { qualifier: None, name }))
    }

    /// The `(SELECT ...)` after `[NOT] EXISTS`.
    fn parse_exists(&mut self, negated: bool) -> Result<Expr> {
        self.expect_kind(TokenKind::LParen)?;
        let subquery = self.parse_subquery()?;
        self.grow(self.height)?;
        Ok(Expr::Exists { subquery, negated })
    }

    /// `SELECT ...)` of a subquery, which is one level itself: whatever
    /// walks the tree spends a call on the statement between the
    /// expression that holds it and the expressions it holds.
    fn parse_subquery(&mut self) -> Result<Box<SelectStatement>> {
        let subquery = Box::new(self.nested(Self::parse_select)?);
        self.expect_kind(TokenKind::RParen)?;
        self.grow(self.height)?;
        Ok(subquery)
    }

    /// `CASE WHEN e THEN e [WHEN ...] [ELSE e] END`, lowered to an
    /// uninterpreted function so downstream code sees its column refs.
    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_keyword(Keyword::Case)?;
        let mut args = Vec::new();
        let mut tallest = 0;
        while self.eat_keyword(Keyword::When) {
            args.push(self.parse_clause(&mut tallest)?);
            self.expect_keyword(Keyword::Then)?;
            args.push(self.parse_clause(&mut tallest)?);
        }
        if self.eat_keyword(Keyword::Else) {
            args.push(self.parse_clause(&mut tallest)?);
        }
        self.expect_keyword(Keyword::End)?;
        if args.is_empty() {
            return Err(self.error("CASE without WHEN branches"));
        }
        self.grow(tallest)?;
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
