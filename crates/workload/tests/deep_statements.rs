//! Adversarially deep statements are ordinary parse errors, and the
//! deepest statements the parser accepts fit a small stack end to end.
//!
//! Before the cap, each of the four repros below aborted the process
//! with a stack overflow: nested parentheses and `NOT` chains in the
//! parser itself, `AND` / `+` chains (which the parser builds in a loop)
//! in bind, render and `Drop` of the left-deep tree. In the daemon the
//! abort came after the batch was logged, so every restart replayed it.

use isum_common::rng::DetRng;
use isum_common::Error;
use isum_sql::{Expr, SelectItem, SelectStatement, MAX_EXPR_DEPTH};
use isum_workload::gen::tpch_catalog;
use isum_workload::{load_script_lenient, Workload};

#[allow(dead_code)] // nothing here binds, so `Family::catalog` goes unread
mod common;

const HEAD: &str = "SELECT l_orderkey FROM lineitem WHERE ";

/// What hangs below an expression node: its operand expressions and, for
/// the subquery forms, the `SELECT`.
fn children(e: &Expr) -> (Vec<&Expr>, Option<&SelectStatement>) {
    match e {
        Expr::Column(_) | Expr::Number(_) | Expr::String(_) | Expr::Date(_) | Expr::Null => {
            (Vec::new(), None)
        }
        Expr::Binary { left, right, .. } => (vec![left, right], None),
        Expr::Between { expr, lo, hi, .. } => (vec![expr, lo, hi], None),
        Expr::InList { expr, list, .. } => (std::iter::once(&**expr).chain(list).collect(), None),
        Expr::InSubquery { expr, subquery, .. } => (vec![expr], Some(subquery)),
        Expr::Exists { subquery, .. } | Expr::ScalarSubquery(subquery) => {
            (Vec::new(), Some(subquery))
        }
        Expr::Like { expr, .. } | Expr::IsNull { expr, .. } | Expr::Not(expr) => (vec![expr], None),
        Expr::Agg { arg, .. } => (arg.as_deref().into_iter().collect(), None),
        Expr::Func { args, .. } => (args.iter().collect(), None),
    }
}

fn tallest(measures: impl Iterator<Item = (u32, u32)>) -> (u32, u32) {
    measures.fold((0, 1), |(h, c), (h2, c2)| (h.max(h2), c.max(c2)))
}

/// `(height, longest chain)` of an expression. Height is in the unit
/// `MAX_EXPR_DEPTH` caps: nodes from the root to the deepest leaf, a
/// subquery's `SELECT` being one. A chain is the left spine of one
/// operator, which the parser folds in a loop; it is counted in terms
/// (`a AND b AND c` is three).
fn measure(e: &Expr) -> (u32, u32) {
    let (operands, subquery) = children(e);
    let select = subquery.map(|s| {
        let (h, c) = measure_select(s);
        (h + 1, c)
    });
    let (below, chain) = tallest(operands.into_iter().map(measure).chain(select));
    let (mut terms, mut spine) = (1, e);
    while let (Expr::Binary { op, .. }, Expr::Binary { op: o, left, .. }) = (e, spine) {
        if o != op {
            break;
        }
        (terms, spine) = (terms + 1, left);
    }
    (below + 1, chain.max(terms))
}

fn measure_select(s: &SelectStatement) -> (u32, u32) {
    let projected = s.projections.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        SelectItem::Wildcard => None,
    });
    let clauses = projected
        .chain(s.joins.iter().map(|j| &j.on))
        .chain(&s.where_clause)
        .chain(&s.group_by)
        .chain(&s.having)
        .chain(s.order_by.iter().map(|o| &o.expr));
    tallest(clauses.map(measure))
}

/// `depth` levels of each shape the grammar can nest or chain.
fn shapes(depth: usize) -> Vec<(&'static str, String)> {
    vec![
        ("parens", format!("{HEAD}{}l_quantity = 1{}", "(".repeat(depth), ")".repeat(depth))),
        ("not", format!("{HEAD}{}l_quantity = 1", "NOT ".repeat(depth))),
        ("and", format!("{HEAD}l_quantity = 1{}", " AND l_quantity = 1".repeat(depth))),
        ("or", format!("{HEAD}l_quantity = 1{}", " OR l_quantity = 1".repeat(depth))),
        ("plus", format!("{HEAD}l_quantity = 1{}", " + 1".repeat(depth))),
        ("times", format!("{HEAD}l_quantity = 1{}", " * 1".repeat(depth))),
        ("minus", format!("{HEAD}l_quantity = {}l_tax", "- ".repeat(depth))),
        ("func", format!("{HEAD}l_quantity = {}1{}", "abs(".repeat(depth), ")".repeat(depth))),
        (
            "subquery",
            format!(
                "{HEAD}{}l_quantity = 1{}",
                "EXISTS (SELECT * FROM lineitem WHERE ".repeat(depth),
                ")".repeat(depth)
            ),
        ),
    ]
}

/// Runs `f` on a thread with a 2 MiB stack (Rust's default for spawned
/// threads, and what `isum-shard-<tenant>` gets).
fn on_a_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawns")
        .join()
        .expect("no panic and, above all, no stack overflow");
}

#[test]
fn the_deepest_accepted_statements_parse_bind_fingerprint_and_drop_on_a_2mib_stack() {
    on_a_small_stack(|| {
        let mut w = Workload::empty(tpch_catalog(1));
        let (mut accepted, mut deepest, mut longest) = (0, 0, 0);
        // Two levels go to the comparison at the bottom of each shape and
        // the `WHERE` expression around it, so the deepest statement that
        // still fits lies within a few levels of the cap; walk up to it.
        for depth in (MAX_EXPR_DEPTH as usize - 8)..=MAX_EXPR_DEPTH as usize {
            for (shape, sql) in shapes(depth) {
                let stmt = match isum_sql::parse(&sql) {
                    Ok(stmt) => stmt,
                    Err(Error::Parse { message, .. }) => {
                        assert!(message.contains("nests deeper"), "{shape} x {depth}: {message}");
                        continue;
                    }
                    Err(other) => panic!("{shape} x {depth}: {other}"),
                };
                accepted += 1;
                // The walker below measures in the cap's unit: nothing
                // accepted is taller, and the chains reach it exactly.
                let (height, chain) = measure_select(&stmt);
                assert!(height <= MAX_EXPR_DEPTH, "{shape} x {depth}: {height}");
                deepest = deepest.max(height);
                longest = longest.max(chain);
                // Everything that walks the tree: render, fingerprint,
                // clone, compare, drop. (The rendering is not parsed back:
                // it spends a pair of parentheses on every operator, so it
                // nests up to twice as deep as the statement it came from.)
                assert!(!stmt.to_string().is_empty());
                assert!(!isum_sql::fingerprint(&stmt).is_empty());
                assert!(stmt.clone() == stmt, "{shape} x {depth}");
                // The whole front end: lex, shape probe, parse, bind,
                // fingerprint, indexable columns.
                w.push_sql(&sql, 1.0).unwrap_or_else(|e| panic!("{shape} x {depth}: {e}"));
            }
        }
        assert!(accepted >= shapes(0).len(), "every shape is accepted somewhere below the cap");
        assert_eq!(deepest, MAX_EXPR_DEPTH, "the cap is reached, not merely approached");
        assert_eq!(longest, MAX_EXPR_DEPTH - 1, "a chain of n terms over leaves is n levels");
    });
}

#[test]
fn the_four_repros_are_per_statement_rejects() {
    on_a_small_stack(|| {
        let deep = shapes(200_000);
        let repros: Vec<&String> = deep
            .iter()
            .filter(|(shape, _)| ["parens", "not", "and", "plus"].contains(shape))
            .map(|(_, sql)| sql)
            .collect();
        assert_eq!(repros.len(), 4);
        let valid = format!("{HEAD}l_quantity = 7");
        let script: String =
            repros.iter().map(|sql| format!("{sql};\n")).chain([format!("{valid};\n")]).collect();
        let (w, skipped) = load_script_lenient(tpch_catalog(1), &script);
        assert_eq!(w.len(), 1, "the valid statement survives its neighbours");
        assert_eq!(skipped.len(), 4);
        for (i, why) in &skipped {
            assert!(why.to_string().contains("nests deeper"), "statement {i}: {why}");
        }
    });
}

/// The headroom under the cap, measured: the tallest expression and the
/// longest `AND` / `OR` / arithmetic chain over 50 seeded instances of
/// every generator template (TPC-H, TPC-DS, DSB, Real-M — the benchmark's
/// four workloads draw from the first two). The cap also refuses
/// loop-built chains that parsed before it existed, so what real traffic
/// looks like is pinned here, an eighth of the way up.
#[test]
fn generator_templates_stay_far_below_the_cap() {
    let (mut height, mut chain, mut templates) = (0, 0, 0);
    for family in common::families() {
        for t in 0..family.templates {
            let mut rng = DetRng::seeded(0x601D ^ ((t as u64) << 16));
            for _ in 0..50 {
                let sql = family.instantiate(t, &mut rng);
                let stmt = isum_sql::parse(&sql).unwrap_or_else(|e| panic!("{}: {e}", family.name));
                let (h, c) = measure_select(&stmt);
                (height, chain) = (height.max(h), chain.max(c));
            }
            templates += 1;
        }
    }
    assert_eq!(templates, 621);
    println!("tallest expression {height} levels, longest chain {chain} terms");
    assert!(height <= MAX_EXPR_DEPTH / 8 && chain <= MAX_EXPR_DEPTH / 8, "{height} / {chain}");
}
