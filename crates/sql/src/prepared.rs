//! The prepared-template cache: a statement whose token *shape* was seen
//! before is bound without parsing it.
//!
//! Real query logs are instances of a few templates, so almost every
//! statement repeats the token stream of an earlier one with other
//! literals. [`PreparedCache::analyze`] lexes a statement once, renders its
//! shape — the token stream with each number and string literal replaced
//! by a typed hole — and looks it up:
//!
//! * **hit**: the literals are computed from the tokens exactly as the
//!   parser would (`parser::literals_of`) and handed to the shape's
//!   prepared form (`binder::Prepared::instantiate`) — no AST, no name
//!   lookup, no fingerprint;
//! * **miss**: the full path (parse → prepare → instantiate → intern the
//!   fingerprint) runs on the tokens already lexed, and its prepared form
//!   is kept for the next statement of that shape.
//!
//! The rule is *exact or not cached*: a hit returns what the full path
//! would return, bit for bit, or is not taken — a literal the parser would
//! reject (bad date, bad interval amount, fractional row count) sends the
//! statement down the full path, which produces the canonical error.
//! Shapes are compared by equality, never by hash alone. There is one
//! entry per distinct shape and no eviction. An entry holds what its
//! instances share: a hit points at the shape's tables, joins and
//! group/order/projection columns, and owns only its filters and `LIMIT`.

use std::collections::HashMap;

use isum_catalog::Catalog;
use isum_common::{count, Result, TemplateId};

use crate::binder::{Binder, BoundQuery, Prepared};
use crate::lexer::lex_into;
use crate::parser::{literals_of, parse_tokens, Literal, LiteralSource};
use crate::template::TemplateRegistry;
use crate::token::{Token, TokenKind};

/// Binds statements, remembering one prepared form per token shape.
///
/// A prepared form holds ids resolved against the [`Catalog`] and a
/// [`TemplateId`] of the [`TemplateRegistry`] passed to
/// [`analyze`](Self::analyze): use one cache with one catalog and one
/// registry.
#[derive(Debug, Default)]
pub struct PreparedCache {
    shapes: HashMap<Box<[u8]>, Entry>,
    /// The current statement's tokens and shape (buffers reused from one
    /// statement to the next).
    tokens: Vec<Token>,
    shape: Vec<u8>,
}

#[derive(Debug)]
struct Entry {
    prepared: Prepared,
    /// How the shape's literals come out of its literal tokens.
    sources: Box<[LiteralSource]>,
    template: TemplateId,
}

impl PreparedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct shapes held.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// True when no shape is held.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Lexes, binds and fingerprints one statement: through the shape's
    /// prepared form when the shape is known, else through the parser
    /// (remembering the shape). The result is the same either way — what
    /// [`parse`](crate::parse) + [`Binder::bind`] +
    /// [`TemplateRegistry::intern`] return.
    ///
    /// # Errors
    /// The lex, parse or bind error of the statement.
    pub fn analyze(
        &mut self,
        sql: &str,
        catalog: &Catalog,
        templates: &mut TemplateRegistry,
    ) -> Result<(BoundQuery, TemplateId)> {
        lex_into(sql, &mut self.tokens)?;
        if let Some(hit) = self.probe(sql, catalog) {
            return Ok(hit);
        }
        let (stmt, sources) = parse_tokens(sql, &self.tokens)?;
        let (prepared, literals) = Binder::new(catalog).prepare(&stmt)?;
        let bound = prepared
            .instantiate(catalog, &literals)
            .expect("a statement's own literals fit its prepared form");
        let template = templates.intern(&stmt);
        if self.replays(&sources, sql, &literals) {
            self.shapes.entry(self.shape.as_slice().into()).or_insert(Entry {
                prepared,
                sources: sources.into(),
                template,
            });
        }
        Ok((bound, template))
    }

    /// The cached path alone: `Some` only when the statement's shape is
    /// known and its literals pass the parser's checks, in which case the
    /// result equals the full path's.
    pub fn lookup(&mut self, sql: &str, catalog: &Catalog) -> Option<(BoundQuery, TemplateId)> {
        lex_into(sql, &mut self.tokens).ok()?;
        self.probe(sql, catalog)
    }

    /// Looks the lexed statement's shape up and instantiates it.
    fn probe(&mut self, sql: &str, catalog: &Catalog) -> Option<(BoundQuery, TemplateId)> {
        write_shape(sql, &self.tokens, &mut self.shape);
        let Some(entry) = self.shapes.get(self.shape.as_slice()) else {
            count!("sql.shape.misses");
            return None;
        };
        let bound = literals_of(&entry.sources, sql, &self.tokens)
            .and_then(|literals| entry.prepared.instantiate(catalog, &literals));
        match bound {
            Some(bound) => {
                count!("sql.shape.hits");
                Some((bound, entry.template))
            }
            None => {
                count!("sql.shape.fallbacks");
                None
            }
        }
    }

    /// True when replaying `sources` over the current tokens yields exactly
    /// the literals the parser put into the AST. It always should; a shape
    /// for which it does not is left uncached rather than trusted.
    fn replays(&self, sources: &[LiteralSource], sql: &str, literals: &[Literal<'_>]) -> bool {
        let same = |a: &Literal<'_>, b: &Literal<'_>| match (a, b) {
            (Literal::Number(a), Literal::Number(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        };
        let replayed = literals_of(sources, sql, &self.tokens);
        let exact = replayed.is_some_and(|r| {
            r.len() == literals.len() && r.iter().zip(literals).all(|(a, b)| same(a, b))
        });
        debug_assert!(exact, "literal sources do not replay for `{sql}`");
        exact
    }
}

/// Renders the shape of a lexed statement: every token except the final
/// `Eof`, one marker byte each, with identifiers spelled out lower-cased
/// and number/string literals reduced to a typed hole. Identifier bytes
/// (`[a-z0-9_]`) never collide with a marker, so two statements have equal
/// shapes exactly when their token streams agree up to literal values.
fn write_shape(sql: &str, tokens: &[Token], shape: &mut Vec<u8>) {
    shape.clear();
    for token in tokens {
        let marker = match token.kind {
            TokenKind::Keyword(k) => 0x80 | k as u8,
            TokenKind::Ident => {
                shape.push(0x01);
                shape.extend(token.text(sql).bytes().map(|b| b.to_ascii_lowercase()));
                continue;
            }
            TokenKind::Number(_) => 0x02,
            TokenKind::String { .. } => 0x03,
            TokenKind::NotEq => 0x04,
            TokenKind::LtEq => 0x05,
            TokenKind::GtEq => 0x06,
            TokenKind::LParen => b'(',
            TokenKind::RParen => b')',
            TokenKind::Comma => b',',
            TokenKind::Dot => b'.',
            TokenKind::Semicolon => b';',
            TokenKind::Star => b'*',
            TokenKind::Plus => b'+',
            TokenKind::Minus => b'-',
            TokenKind::Slash => b'/',
            TokenKind::Eq => b'=',
            TokenKind::Lt => b'<',
            TokenKind::Gt => b'>',
            TokenKind::Eof => continue,
        };
        shape.push(marker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::template::fingerprint;
    use isum_catalog::CatalogBuilder;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .table("orders", 1_500_000)
            .col_key("o_orderkey")
            .col_date("o_orderdate", 8035, 10_591)
            .col_int("o_custkey", 100_000, 1, 150_000)
            .col_text("o_comment", 1000, 40)
            .finish()
            .unwrap()
            .build()
    }

    /// `analyze` on a shared cache against the uncached calls.
    fn assert_same_as_full(cache: &mut PreparedCache, reg: &mut TemplateRegistry, sql: &str) {
        let cat = catalog();
        let got = cache.analyze(sql, &cat, reg);
        let want = parse(sql).and_then(|stmt| {
            let bound = Binder::new(&cat).bind(&stmt)?;
            Ok((bound, fingerprint(&stmt)))
        });
        match (got, want) {
            (Ok((bound, template)), Ok((want_bound, want_fp))) => {
                assert_eq!(format!("{bound:?}"), format!("{want_bound:?}"), "{sql}");
                assert_eq!(reg.fingerprint_of(template), want_fp, "{sql}");
            }
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{sql}"),
            (got, want) => panic!("{sql}: cached {got:?}, full {want:?}"),
        }
    }

    #[test]
    fn repeats_of_a_shape_hit_and_equal_the_full_path() {
        let (mut cache, mut reg) = (PreparedCache::new(), TemplateRegistry::new());
        for sql in [
            "SELECT o_orderkey FROM orders WHERE o_orderdate >= DATE '1994-01-01' \
             AND o_orderdate < DATE '1994-01-01' + INTERVAL '3' MONTH AND o_custkey = 7 LIMIT 10",
            "select o_orderkey from ORDERS where o_orderdate >= date '1996-05-01' \
             and o_orderdate < date '1996-05-01' + interval '1' month and o_custkey = 3.5 limit 99",
            "SELECT o_orderkey FROM orders WHERE o_comment LIKE 'é%' AND o_custkey IN (1, 2, 3)",
            "SELECT o_orderkey FROM orders WHERE o_comment LIKE '%it''s%' AND o_custkey IN (4, 5, 6)",
            "SELECT o_orderkey FROM orders WHERE o_custkey > -(1 + 2) * 3",
            "SELECT o_orderkey FROM orders WHERE o_custkey > -(10 + 20) * 30",
        ] {
            assert_same_as_full(&mut cache, &mut reg, sql);
        }
        assert_eq!(cache.len(), 3, "two instances per shape");
        assert_eq!(reg.len(), 3);
        let cat = catalog();
        assert!(cache
            .lookup("SELECT o_orderkey FROM orders WHERE o_custkey > -(0 + 0) * 9", &cat)
            .is_some());
        assert!(cache.lookup("SELECT o_orderkey FROM orders WHERE o_custkey > 9", &cat).is_none());
    }

    #[test]
    fn in_lists_of_different_length_are_different_shapes_of_one_template() {
        let (mut cache, mut reg) = (PreparedCache::new(), TemplateRegistry::new());
        let cat = catalog();
        let (short, t1) = cache
            .analyze("SELECT o_orderkey FROM orders WHERE o_custkey IN (1, 2)", &cat, &mut reg)
            .unwrap();
        let (long, t2) = cache
            .analyze(
                "SELECT o_orderkey FROM orders WHERE o_custkey IN (1, 2, 3, 4)",
                &cat,
                &mut reg,
            )
            .unwrap();
        assert_eq!(t1, t2);
        assert_eq!(cache.len(), 2);
        assert!(long.filters[0].selectivity > short.filters[0].selectivity);
    }

    #[test]
    fn literals_the_parser_rejects_fall_back_to_the_canonical_error() {
        let (mut cache, mut reg) = (PreparedCache::new(), TemplateRegistry::new());
        let cat = catalog();
        for sql in [
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1995-01-01' + INTERVAL '3' DAY LIMIT 5",
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1995-13-01' + INTERVAL '3' DAY LIMIT 5",
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1995-01-01' + INTERVAL 'x' DAY LIMIT 5",
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1995-01-01' + INTERVAL '3' DAY LIMIT 1.5",
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1995-01-01' + INTERVAL ' 4 ' DAY LIMIT 6",
        ] {
            assert_same_as_full(&mut cache, &mut reg, sql);
        }
        assert_eq!(cache.len(), 1);
        let bad_date =
            "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE 'x' + INTERVAL '3' DAY LIMIT 5";
        assert!(cache.lookup(bad_date, &cat).is_none());
        assert!(cache.analyze(bad_date, &cat, &mut reg).is_err());
    }

    #[test]
    fn statements_that_do_not_bind_are_not_cached() {
        let (mut cache, mut reg) = (PreparedCache::new(), TemplateRegistry::new());
        let cat = catalog();
        assert!(cache.analyze("SELECT a FROM missing WHERE b = 1", &cat, &mut reg).is_err());
        assert!(cache.analyze("SELECT FROM", &cat, &mut reg).is_err());
        assert!(cache.is_empty());
        assert!(reg.is_empty());
    }

    #[test]
    fn shapes_tell_tokens_apart_but_not_literal_values_case_or_layout() {
        let shape = |sql: &str| {
            let mut tokens = Vec::new();
            lex_into(sql, &mut tokens).unwrap();
            let mut out = Vec::new();
            write_shape(sql, &tokens, &mut out);
            out
        };
        let base = shape("SELECT a FROM t WHERE b = 1 AND c = 'x'");
        assert_eq!(base, shape("select A\n FROM t -- note\n where B = 22.5 and c = 'it''s'"));
        assert_ne!(base, shape("SELECT a FROM t WHERE b = 'x' AND c = 1"), "holes are typed");
        assert_ne!(base, shape("SELECT a FROM t WHERE b = -1 AND c = 'x'"));
        assert_ne!(base, shape("SELECT a FROM t WHERE b = 1 AND c = 'x';"));
        assert_ne!(shape("SELECT a b FROM t"), shape("SELECT ab FROM t"));
        assert_ne!(shape("SELECT a <= b FROM t"), shape("SELECT a < b FROM t"));
    }
}
