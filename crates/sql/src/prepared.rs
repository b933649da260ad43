//! The prepared-template cache: a statement whose token *shape* was seen
//! before is bound without parsing it.
//!
//! Real query logs are instances of a few templates, so almost every
//! statement repeats the token stream of an earlier one with other
//! literals. [`PreparedCache::analyze`] lexes a statement once, and the
//! lexer renders its shape on the way ([`lex_shaped`]: the token stream
//! with each number and string literal replaced by a typed hole); the
//! shape is then looked up:
//!
//! * **hit**: the literals are computed from the tokens exactly as the
//!   parser would (`parser::literals_of`) and handed to the shape's
//!   prepared form (`binder::Prepared::instantiate`) — no AST, no name
//!   lookup, no fingerprint;
//! * **miss**: the full path (parse → prepare → instantiate → intern the
//!   fingerprint) runs on the tokens already lexed, and its prepared form
//!   is kept for the next statement of that shape.
//!
//! The table is shared by threads: each [`ShapeView`] keeps the entries
//! it has used, locks the table only for a shape it has not seen, and
//! prepares a shape under that lock when no view has, so each shape is
//! prepared exactly once and all of its instances share its lists. What
//! the views return is settled afterwards in statement order
//! ([`PreparedCache::settle_bound`]): template ids, and the lex, hit,
//! miss and fallback counts, come out as one pass over the statements in
//! order would give them, whichever thread prepared which shape.
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
use std::sync::{Arc, Mutex, PoisonError};

use isum_catalog::Catalog;
use isum_common::{count, Error, Result, TemplateId};

use crate::binder::{Binder, BoundQuery, Prepared};
use crate::lexer::lex_shaped;
use crate::parser::{literals_of, parse_tokens, Literal, LiteralSource};
use crate::template::{fingerprint, TemplateRegistry};
use crate::token::Token;

/// Binds statements, remembering one prepared form per token shape.
///
/// The table of shapes is shared: [`view`](Self::view) hands out views
/// through which several threads analyze statements at once, each shape
/// prepared exactly once for all of them. What a view returns is
/// [settled](Self::settle_bound) afterwards in statement order, which
/// assigns template ids and counts hits, misses and fallbacks as a single
/// pass over the statements would. [`analyze`](Self::analyze) does both
/// for one statement on the calling thread.
///
/// A prepared form holds ids resolved against the [`Catalog`] and its
/// statements settle into the [`TemplateRegistry`] passed to
/// [`analyze`](Self::analyze): use one cache with one catalog and one
/// registry.
#[derive(Debug, Default)]
pub struct PreparedCache {
    table: Mutex<Table>,
    /// The view of [`analyze`](Self::analyze) and [`lookup`](Self::lookup).
    own: Local,
    /// The registry's template id of each shape (by [`ShapeId`]), once a
    /// statement of the shape has settled.
    settled: Vec<Option<TemplateId>>,
}

/// Every shape prepared so far.
#[derive(Debug, Default)]
struct Table {
    by_shape: HashMap<Box<[u8]>, Arc<Shape>>,
    by_id: Vec<Arc<Shape>>,
}

#[derive(Debug)]
struct Shape {
    id: ShapeId,
    prepared: Prepared,
    /// How the shape's literals come out of its literal tokens; `None` when
    /// they did not replay the parser's, so every statement of the shape
    /// takes the full path.
    sources: Option<Box<[LiteralSource]>>,
    /// The template fingerprint every statement of the shape shares.
    fingerprint: Box<str>,
}

/// Dense id of a token shape in one [`PreparedCache`], in the order the
/// shapes were first prepared (which, across threads, is not statement
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeId(pub u32);

impl ShapeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One statement analyzed through a [`ShapeView`], not yet settled.
#[derive(Debug)]
pub enum Analysis {
    /// It bound, as a statement of this shape.
    Bound(BoundQuery, ShapeId),
    /// Its lex, parse or bind error, and its shape when it lexed.
    Failed(Error, Option<Box<[u8]>>),
}

/// One thread's access to a [`PreparedCache`]'s shape table.
///
/// A view remembers the shapes it has used, so a statement of such a shape
/// takes no lock; it locks the table only for a shape it has not seen, and
/// prepares the shape under that lock when no view has.
#[derive(Debug)]
pub struct ShapeView<'c> {
    table: &'c Mutex<Table>,
    local: Local,
}

impl ShapeView<'_> {
    /// Lexes and binds one statement: through its shape's prepared form
    /// when the shape is in the table, else through the parser (entering
    /// the shape). The result is the same either way — what
    /// [`parse`](crate::parse) + [`Binder::bind`] return.
    pub fn analyze(&mut self, sql: &str, catalog: &Catalog) -> Analysis {
        self.local.analyze(self.table, sql, catalog)
    }
}

/// A view's scratch: the shapes it has used, and the current statement's
/// tokens and shape (buffers reused from one statement to the next).
#[derive(Debug, Default)]
struct Local {
    known: HashMap<Box<[u8]>, Arc<Shape>>,
    tokens: Vec<Token>,
    shape: Vec<u8>,
}

impl Local {
    fn analyze(&mut self, table: &Mutex<Table>, sql: &str, catalog: &Catalog) -> Analysis {
        if let Err(e) = lex_shaped(sql, &mut self.tokens, &mut self.shape) {
            return Analysis::Failed(e, None);
        }
        if let Some(shape) = self.known.get(self.shape.as_slice()) {
            return shape.bind(sql, &self.tokens, catalog, &self.shape);
        }
        let mut table = table.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(shape) = table.by_shape.get(self.shape.as_slice()) {
            let shape = Arc::clone(shape);
            drop(table);
            let analysis = shape.bind(sql, &self.tokens, catalog, &self.shape);
            self.known.insert(self.shape.as_slice().into(), shape);
            return analysis;
        }
        // A new shape is prepared under the lock, so no other view
        // prepares it too.
        match self.prepare(&mut table, sql, catalog) {
            Ok(analysis) => analysis,
            Err(e) => Analysis::Failed(e, Some(self.shape.as_slice().into())),
        }
    }

    /// The full path for a statement of a shape the table lacks: parse,
    /// prepare, instantiate, fingerprint; the shape enters the table (and
    /// this view) when it binds.
    fn prepare(&mut self, table: &mut Table, sql: &str, catalog: &Catalog) -> Result<Analysis> {
        let (stmt, sources) = parse_tokens(sql, &self.tokens)?;
        let (prepared, literals) = Binder::new(catalog).prepare(&stmt)?;
        let bound = prepared
            .instantiate(catalog, &literals)
            .expect("a statement's own literals fit its prepared form");
        let replays = replays(&sources, sql, &self.tokens, &literals);
        let id = ShapeId(u32::try_from(table.by_id.len()).expect("shape id overflow"));
        let shape = Arc::new(Shape {
            id,
            prepared,
            sources: replays.then(|| sources.into()),
            fingerprint: fingerprint(&stmt).into(),
        });
        table.by_shape.insert(self.shape.as_slice().into(), Arc::clone(&shape));
        table.by_id.push(Arc::clone(&shape));
        self.known.insert(self.shape.as_slice().into(), shape);
        Ok(Analysis::Bound(bound, id))
    }
}

impl Shape {
    /// Binds a statement of this shape: from the prepared form when its
    /// literals fit, else through the parser, which gives the canonical
    /// error of a literal it rejects (or, should it accept one the
    /// prepared form refused, the statement's exact binding).
    fn bind(&self, sql: &str, tokens: &[Token], catalog: &Catalog, shape: &[u8]) -> Analysis {
        let cached = self
            .sources
            .as_deref()
            .and_then(|sources| literals_of(sources, sql, tokens))
            .and_then(|literals| self.prepared.instantiate(catalog, &literals));
        let bound = match cached {
            Some(bound) => Ok(bound),
            None => {
                parse_tokens(sql, tokens).and_then(|(stmt, _)| Binder::new(catalog).bind(&stmt))
            }
        };
        match bound {
            Ok(bound) => Analysis::Bound(bound, self.id),
            Err(e) => Analysis::Failed(e, Some(shape.into())),
        }
    }
}

impl PreparedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct shapes held.
    pub fn len(&self) -> usize {
        self.table.lock().unwrap_or_else(PoisonError::into_inner).by_id.len()
    }

    /// True when no shape is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A view for one thread to analyze statements through; see
    /// [`ShapeView`]. Every statement it analyzes must then be settled,
    /// in statement order, before the cache analyzes or looks up more.
    pub fn view(&self) -> ShapeView<'_> {
        ShapeView { table: &self.table, local: Local::default() }
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
        match self.own.analyze(&self.table, sql, catalog) {
            Analysis::Bound(bound, shape) => Ok((bound, self.settle_bound(shape, templates))),
            Analysis::Failed(e, shape) => {
                self.settle_failed(shape.as_deref());
                Err(e)
            }
        }
    }

    /// Settles the next statement, which bound as a statement of `shape`:
    /// a hit when a statement of that shape settled before, else a miss,
    /// whose shape's fingerprint is interned. Returns the template id.
    ///
    /// Every settled statement counts one `sql.lex.calls`: a view lexes
    /// without counting, so statements a view analyzed but nobody settles
    /// (past a strict load's first failure) are not counted.
    pub fn settle_bound(&mut self, shape: ShapeId, templates: &mut TemplateRegistry) -> TemplateId {
        count!("sql.lex.calls");
        if let Some(&Some(template)) = self.settled.get(shape.index()) {
            count!("sql.shape.hits");
            return template;
        }
        count!("sql.shape.misses");
        let table = self.table.get_mut().unwrap_or_else(PoisonError::into_inner);
        let template = templates.intern_fingerprint(&table.by_id[shape.index()].fingerprint);
        if self.settled.len() <= shape.index() {
            self.settled.resize(shape.index() + 1, None);
        }
        self.settled[shape.index()] = Some(template);
        template
    }

    /// Settles the next statement, which failed with this shape (`None`
    /// when it did not lex): a fallback when a statement of that shape
    /// settled before — its literal is one the parser rejects — else a
    /// miss. Counts one `sql.lex.calls`, as [`settle_bound`](Self::settle_bound).
    pub fn settle_failed(&mut self, shape: Option<&[u8]>) {
        count!("sql.lex.calls");
        let Some(shape) = shape else { return };
        let table = self.table.get_mut().unwrap_or_else(PoisonError::into_inner);
        let settled = table
            .by_shape
            .get(shape)
            .is_some_and(|s| self.settled.get(s.id.index()).is_some_and(Option::is_some));
        if settled {
            count!("sql.shape.fallbacks");
        } else {
            count!("sql.shape.misses");
        }
    }

    /// The cached path alone: `Some` only when the statement's shape is
    /// known and its literals fit the shape's prepared form, in which case
    /// the result equals the full path's. Counts nothing.
    pub fn lookup(&mut self, sql: &str, catalog: &Catalog) -> Option<(BoundQuery, TemplateId)> {
        lex_shaped(sql, &mut self.own.tokens, &mut self.own.shape).ok()?;
        let table = self.table.get_mut().unwrap_or_else(PoisonError::into_inner);
        let shape = table.by_shape.get(self.own.shape.as_slice())?;
        let template = (*self.settled.get(shape.id.index())?)?;
        let literals = literals_of(shape.sources.as_deref()?, sql, &self.own.tokens)?;
        Some((shape.prepared.instantiate(catalog, &literals)?, template))
    }
}

/// True when replaying `sources` over the tokens yields exactly the
/// literals the parser put into the AST. It always should; a shape for
/// which it does not is never instantiated from its prepared form.
fn replays(
    sources: &[LiteralSource],
    sql: &str,
    tokens: &[Token],
    literals: &[Literal<'_>],
) -> bool {
    let same = |a: &Literal<'_>, b: &Literal<'_>| match (a, b) {
        (Literal::Number(a), Literal::Number(b)) => a.to_bits() == b.to_bits(),
        (a, b) => a == b,
    };
    let replayed = literals_of(sources, sql, tokens);
    let exact = replayed.is_some_and(|r| {
        r.len() == literals.len() && r.iter().zip(literals).all(|(a, b)| same(a, b))
    });
    debug_assert!(exact, "literal sources do not replay for `{sql}`");
    exact
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
            let (mut tokens, mut out) = (Vec::new(), Vec::new());
            lex_shaped(sql, &mut tokens, &mut out).unwrap();
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
