//! Property tests for the SQL front-end: display/parse round-trips over
//! generated statements, and no-panic guarantees on arbitrary input.

use proptest::prelude::*;

use isum_sql::{fingerprint, parse};

const IDENTS: [&str; 6] = ["a", "b", "c", "d", "price", "qty"];
const TABLES: [&str; 3] = ["t", "u", "orders"];
const CMPS: [&str; 6] = ["=", "<", "<=", ">", ">=", "<>"];
/// String contents: empty, quotes (also doubled and at the edges),
/// non-ASCII text, `LIKE` wildcards, things that look like SQL.
const TEXTS: [&str; 12] = [
    "",
    "x",
    "it's",
    "'",
    "''quoted''",
    "café",
    "日本語",
    "é%",
    "%it's_",
    "a;b -- c",
    "DATE '1994-01-01'",
    "ÿ\u{1F600}'",
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn quoted(text: &str) -> String {
    format!("'{}'", text.replace('\'', "''"))
}

fn number(rng: &mut TestRng) -> String {
    match rng.below(4) {
        0 => format!("{}", rng.below(2000) as i64 - 1000),
        1 => format!("{}.{}", rng.below(100), rng.below(1000)),
        2 => format!("- {}", rng.below(50)),
        _ => format!("{}", rng.below(1 << 40)),
    }
}

fn date(rng: &mut TestRng) -> String {
    format!("DATE '{}-{:02}-{:02}'", 1990 + rng.below(20), 1 + rng.below(12), 1 + rng.below(28))
}

/// A value expression: literal arithmetic over numbers, dates and intervals.
fn value(rng: &mut TestRng) -> String {
    match rng.below(6) {
        0 => date(rng),
        1 => format!(
            "{} {} INTERVAL '{}' {}",
            date(rng),
            pick(rng, &["+", "-"]),
            rng.below(90),
            pick(rng, &["DAY", "month", "YEARS"])
        ),
        2 => format!("{} * ({} + {})", number(rng), number(rng), number(rng)),
        3 => format!("-({} / {})", pick(rng, &IDENTS), number(rng)),
        4 => format!("- INTERVAL {} day", rng.below(30)),
        _ => number(rng),
    }
}

fn predicate(rng: &mut TestRng, depth: u32) -> String {
    let col = pick(rng, &IDENTS);
    let not = pick(rng, &["", "NOT "]);
    match rng.below(if depth == 0 { 7 } else { 10 }) {
        0 => format!("{col} {} {}", pick(rng, &CMPS), value(rng)),
        1 => format!("{col} {} {}", pick(rng, &CMPS), quoted(pick(rng, &TEXTS))),
        2 => format!("{col} {not}BETWEEN {} AND {}", value(rng), value(rng)),
        3 => {
            let n = 1 + rng.below(4);
            let items: Vec<String> = (0..n)
                .map(|_| if rng.below(2) == 0 { number(rng) } else { quoted(pick(rng, &TEXTS)) })
                .collect();
            format!("{col} {not}IN ({})", items.join(", "))
        }
        4 => format!("{col} {not}LIKE {}", quoted(pick(rng, &TEXTS))),
        5 => format!("{col} IS {not}NULL"),
        6 => format!("{} {} {col}", value(rng), pick(rng, &CMPS)),
        7 => format!("{col} {not}IN ({})", select(rng, depth - 1)),
        8 => format!("{not}EXISTS ({})", select(rng, depth - 1)),
        _ => format!("{col} > ({})", select(rng, depth - 1)),
    }
}

fn select(rng: &mut TestRng, depth: u32) -> String {
    let cols: Vec<&str> = (0..1 + rng.below(2)).map(|_| pick(rng, &IDENTS)).collect();
    let mut sql = format!("SELECT {} FROM {}", cols.join(", "), pick(rng, &TABLES));
    let n_preds = rng.below(4);
    for i in 0..n_preds {
        sql.push_str(if i == 0 { " WHERE " } else { pick(rng, &[" AND ", " OR "]) });
        let p = predicate(rng, depth);
        // `NOT (EXISTS (..))` prints as `NOT EXISTS (..)`, which parses to
        // the negated-EXISTS node instead: same meaning, other tree.
        if rng.below(5) == 0 && !p.starts_with("EXISTS") {
            sql.push_str(&format!("NOT ({p})"));
        } else {
            sql.push_str(&p);
        }
    }
    if rng.below(3) == 0 {
        sql.push_str(&format!(" GROUP BY {}", pick(rng, &IDENTS)));
    }
    if rng.below(3) == 0 {
        sql.push_str(&format!(" ORDER BY {}{}", pick(rng, &IDENTS), pick(rng, &["", " DESC"])));
    }
    if rng.below(3) == 0 {
        sql.push_str(&format!(" LIMIT {}", rng.below(100)));
    }
    sql
}

/// Generates random-but-valid SQL texts: comparisons against numbers,
/// dates, intervals and strings, `BETWEEN`, `IN` lists, `LIKE`, `IS NULL`,
/// `IN`/`EXISTS`/scalar subqueries, with quotes and non-ASCII text in
/// string positions.
fn arb_sql() -> impl Strategy<Value = String> {
    any::<u64>().prop_map(|seed| {
        let mut rng = TestRng::from_name(&seed.to_string());
        select(&mut rng, 2)
    })
}

proptest! {
    #[test]
    fn display_roundtrip_is_fixed_point(sql in arb_sql()) {
        let ast1 = parse(&sql).unwrap_or_else(|e| panic!("generated `{sql}` does not parse: {e}"));
        let rendered = ast1.to_string();
        let ast2 = parse(&rendered).unwrap_or_else(|e| panic!("rendering `{rendered}` failed to reparse: {e}"));
        prop_assert_eq!(&ast1, &ast2);
        // And rendering is a fixed point.
        prop_assert_eq!(rendered.clone(), ast2.to_string());
    }

    #[test]
    fn fingerprints_are_stable_under_roundtrip(sql in arb_sql()) {
        let ast1 = parse(&sql).expect("generated SQL parses");
        let ast2 = parse(&ast1.to_string()).expect("rendered SQL parses");
        prop_assert_eq!(fingerprint(&ast1), fingerprint(&ast2));
    }

    #[test]
    fn parser_never_panics_on_ascii_garbage(input in "[ -~]{0,80}") {
        // Errors are fine; panics are not.
        let _ = parse(&input);
    }

    #[test]
    fn lexer_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..60)) {
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = isum_sql::lexer::lex(text);
        }
    }

    #[test]
    fn parameter_values_never_change_fingerprints(
        v1 in -10_000i64..10_000,
        v2 in -10_000i64..10_000,
    ) {
        let a = parse(&format!("SELECT a FROM t WHERE b = {v1} AND c > {v1} LIMIT 7")).expect("parses");
        let b = parse(&format!("SELECT a FROM t WHERE b = {v2} AND c > {v2} LIMIT 9")).expect("parses");
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}

/// The three inputs the byte-wise lexer and the unescaped `LIKE` printer
/// got wrong, pinned one by one.
#[test]
fn quotes_and_non_ascii_text_survive_print_and_reparse() {
    for sql in [
        "SELECT a FROM t WHERE b = 'café'",
        "SELECT a FROM t WHERE b LIKE 'it''s%'",
        "SELECT a FROM t WHERE b NOT LIKE '''' AND c IN ('日本語', 'ÿ')",
    ] {
        let ast = parse(sql).expect("parses");
        let printed = ast.to_string();
        assert_eq!(parse(&printed).expect("reparses"), ast, "{printed}");
        assert_eq!(parse(&printed).expect("reparses").to_string(), printed);
    }
    let printed = parse("SELECT a FROM t WHERE b = 'café'").expect("parses").to_string();
    assert_eq!(printed, "SELECT a FROM t WHERE (b = 'café')");
    let printed = parse("SELECT a FROM t WHERE b LIKE 'it''s%'").expect("parses").to_string();
    assert_eq!(printed, "SELECT a FROM t WHERE (b LIKE 'it''s%')");
}
