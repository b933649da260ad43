//! The prepared-template cache against the parser: *exact or not cached*.
//!
//! Model: the uncached front end (`parse` → `Binder::bind` →
//! `fingerprint`) is the specification. For interleaved instances of every
//! generator template, with literals pushed to the boundaries the fast
//! path has to get right, two properties must hold:
//!
//! 1. `PreparedCache::lookup(sql) = Some(x)` ⇒ `x` equals the full path's
//!    result — `BoundQuery` with every `f64` compared by bit pattern,
//!    template fingerprint and id;
//! 2. `PreparedCache::analyze` / `Workload::push_sql` on a warm cache equal
//!    the full path, including the text of the error for statements that
//!    fail;
//! 3. every statement that binds is a hit when it comes again (no shape is
//!    quietly left uncached);
//! 4. a hit shares its shape-fixed lists (tables, joins, group/order and
//!    projection columns) with the first instance of its shape.
//!
//! CI runs this at `PROPTEST_CASES=2000` in release.

use std::collections::HashMap;

use proptest::prelude::*;

use isum_common::rng::DetRng;
use isum_sql::lexer::lex;
use isum_sql::token::{Keyword, TokenKind};
use isum_sql::{fingerprint, parse, Binder, BoundQuery, PreparedCache, TemplateRegistry};
use isum_workload::{QueryClass, Workload};

mod common;
use common::{families, shape, shares_lists};

const NUMBERS: [&str; 12] = [
    "0",
    "-5",
    "- 0",
    "1.5",
    "0.000001",
    "99999999999999999999999",
    "18446744073709551616",
    "-(3)",
    "-(1 + 2) * 3",
    "- - 7",
    "INTERVAL '2' MONTH",
    "- INTERVAL 3 YEAR",
];

const STRINGS: [&str; 14] = [
    "''",
    "'it''s'",
    "'é%'",
    "'%x'",
    "'_y'",
    "'ab%'",
    "'1994-01-01'",
    "'1995-02-30'",
    "'1996-02-29'",
    "' 3 '",
    "'x'",
    "'nan'",
    "'1e3'",
    "'日本''語%'",
];

const COMPARISONS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// Rewrites some of the statement's literals (and now and then a
/// comparison operator, so range pairs stop or start being complementary)
/// to boundary values. Works on the token spans, so every replacement
/// lands exactly on a literal.
fn perturb(sql: &str, rng: &mut DetRng) -> String {
    let tokens = lex(sql).expect("generated SQL lexes");
    let mut out = String::with_capacity(sql.len() + 32);
    let mut copied = 0;
    for (i, t) in tokens.iter().enumerate() {
        let prev = i.checked_sub(1).map(|p| tokens[p].kind);
        let next = tokens.get(i + 1).map(|n| n.kind);
        let in_list = matches!(prev, Some(TokenKind::LParen | TokenKind::Comma))
            && matches!(next, Some(TokenKind::RParen | TokenKind::Comma));
        let replacement = match t.kind {
            TokenKind::Number(_) if prev == Some(TokenKind::Keyword(Keyword::Limit)) => rng
                .chance(0.5)
                .then(|| rng.pick(&["0", "1.5", "7", "18446744073709551616", "1e3"]).to_string()),
            // Lists grow and shrink: different shapes of one template.
            TokenKind::Number(_) | TokenKind::String { .. } if in_list && rng.chance(0.2) => {
                Some(format!("{0}, {0}, 4", t.text(sql)))
            }
            TokenKind::Number(_) if rng.chance(0.3) => Some(rng.pick(&NUMBERS).to_string()),
            TokenKind::String { .. } if rng.chance(0.3) => Some(rng.pick(&STRINGS).to_string()),
            TokenKind::Lt | TokenKind::LtEq | TokenKind::Gt | TokenKind::GtEq | TokenKind::Eq
                if rng.chance(0.05) =>
            {
                Some(rng.pick(&COMPARISONS).to_string())
            }
            _ => None,
        };
        if let Some(replacement) = replacement {
            out.push_str(&sql[copied..t.offset]);
            out.push_str(&replacement);
            copied = t.end;
        }
    }
    out.push_str(&sql[copied..]);
    out
}

/// A `BoundQuery` with every float as its bit pattern.
fn bits(q: &BoundQuery) -> impl PartialEq + std::fmt::Debug {
    let b = |v: f64| v.to_bits();
    (
        q.tables.clone(),
        q.filters
            .iter()
            .map(|f| {
                let flags = (f.column, f.kind, f.in_disjunction, f.sargable);
                (flags, b(f.selectivity), f.lo.map(b), f.hi.map(b))
            })
            .collect::<Vec<_>>(),
        q.joins.iter().map(|j| (j.left, j.right, b(j.selectivity), j.semi)).collect::<Vec<_>>(),
        (q.group_by.clone(), q.order_by.clone(), q.projections.clone()),
        (q.n_aggregates, q.n_blocks, q.limit, q.distinct),
    )
}

proptest! {
    #[test]
    fn cached_front_end_equals_the_parser(seed in any::<u64>()) {
        let mut rng = DetRng::seeded(seed);
        let family = rng.pick(families());
        let binder = Binder::new(&family.catalog);
        // A few templates, many instances, in arbitrary order: hits follow
        // misses of other shapes.
        let pool: Vec<usize> = (0..1 + rng.below(4)).map(|_| rng.below(family.templates)).collect();
        let mut cache = PreparedCache::new();
        let mut registry = TemplateRegistry::new();
        let mut full_registry = TemplateRegistry::new();
        let mut warm = Workload::empty(family.catalog.clone());
        // The first instance of each shape that bound, as `warm` holds it.
        let mut first: HashMap<String, BoundQuery> = HashMap::new();
        for _ in 0..24 {
            let mut sql = family.instantiate(*rng.pick(&pool), &mut rng);
            if rng.chance(0.7) {
                sql = perturb(&sql, &mut rng);
            }
            let full = parse(&sql).and_then(|stmt| {
                let bound = binder.bind(&stmt)?;
                Ok((bound, full_registry.intern(&stmt), fingerprint(&stmt)))
            });

            let hit = cache.lookup(&sql, &family.catalog);
            let was_hit = hit.is_some();
            if let Some((bound, template)) = hit {
                let (full_bound, full_template, fp) =
                    full.as_ref().unwrap_or_else(|e| panic!("hit, but the parser says {e}: {sql}"));
                prop_assert_eq!(bits(&bound), bits(full_bound), "{}", sql);
                prop_assert_eq!(template, *full_template, "{}", sql);
                prop_assert_eq!(registry.fingerprint_of(template), fp, "{}", sql);
            }

            let analyzed = cache.analyze(&sql, &family.catalog, &mut registry);
            let pushed = warm.push_sql(&sql, 1.0);
            match (&full, analyzed) {
                (Ok((full_bound, full_template, fp)), Ok((bound, template))) => {
                    prop_assert_eq!(bits(&bound), bits(full_bound), "{}", sql);
                    prop_assert_eq!(template, *full_template, "{}", sql);
                    prop_assert_eq!(registry.fingerprint_of(template), fp, "{}", sql);
                    // Whatever binds is cached: no shape is silently left out.
                    let again = cache.lookup(&sql, &family.catalog);
                    prop_assert_eq!(again.map(|(b, t)| (bits(&b), t)), Some((bits(full_bound), template)));
                    let q = warm.query(pushed.expect("binds through the workload too"));
                    prop_assert_eq!(bits(&q.bound), bits(full_bound), "{}", sql);
                    prop_assert_eq!(q.template, *full_template, "{}", sql);
                    prop_assert_eq!(q.class, QueryClass::classify(full_bound), "{}", sql);
                    match first.get(&shape(&sql)) {
                        Some(first) if was_hit => {
                            prop_assert!(shares_lists(first, &q.bound), "copied lists: {}", sql)
                        }
                        Some(_) => {}
                        None => {
                            first.insert(shape(&sql), q.bound.clone());
                        }
                    }
                }
                (Err(full), Err(analyzed)) => {
                    prop_assert_eq!(analyzed.to_string(), full.to_string(), "{}", sql);
                    prop_assert!(pushed.is_err(), "{}", sql);
                }
                (full, analyzed) => {
                    panic!("{}: parser {full:?}\ncached {analyzed:?}\n{sql}", family.name)
                }
            }
        }
    }
}

/// The generated mix really exercises the fast path and its refusals —
/// otherwise the property above would hold vacuously.
#[test]
fn the_generated_mix_hits_misses_and_falls_back() {
    let family = &families()[0];
    let mut rng = DetRng::seeded(1);
    let (mut cache, mut registry) = (PreparedCache::new(), TemplateRegistry::new());
    let (mut hits, mut errors, mut total) = (0, 0, 0);
    for i in 0..2000 {
        let mut sql = family.instantiate(i % family.templates, &mut rng);
        if rng.chance(0.7) {
            sql = perturb(&sql, &mut rng);
        }
        total += 1;
        hits += usize::from(cache.lookup(&sql, &family.catalog).is_some());
        errors += usize::from(cache.analyze(&sql, &family.catalog, &mut registry).is_err());
    }
    assert!(hits * 4 > total, "{hits} hits in {total}");
    assert!(errors * 50 > total && errors * 2 < total, "{errors} errors in {total}");
    assert!(cache.len() > 100, "{} shapes", cache.len());
    assert!(registry.len() < cache.len(), "several shapes per template");
}
