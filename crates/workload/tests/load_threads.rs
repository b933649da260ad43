//! A script loads the same at any thread count.
//!
//! Model: the serial load — `split_script`, then `Workload::push_sql` of
//! each statement in order on one thread. For scripts of every generator
//! family, mixed with `-- cost:` lines, comment and blank lines, and
//! statements that fail to lex, parse or bind or carry a literal the
//! parser rejects, `load_script` and `load_script_lenient` at 1, 2 and 8
//! threads must give what the model gives:
//!
//! 1. every query's id, text, `BoundQuery`, template id and fingerprint,
//!    and cost;
//! 2. the skipped statements (index and error text), and in the strict
//!    mode the first error;
//! 3. the `sql.shape.*` counters and `sql.lex.calls`;
//! 4. the what-if model evaluations of a cost fill, which count how the
//!    statements of a shape share its lists;
//! 5. what later `push_sql` calls do, which the loaded shape table serves.
//!
//! Scripts hold up to 30 statements, so at 2 and 8 threads chunks of one
//! to fifteen statements put chunk edges everywhere.
//!
//! Alone in its test binary: it sets the process-wide thread count and
//! reads process-global counters. CI runs it at `PROPTEST_CASES=2000` in
//! release.

use std::collections::HashSet;

use proptest::prelude::*;

use isum_common::rng::DetRng;
use isum_common::telemetry;
use isum_optimizer::{IndexConfig, WhatIfOptimizer};
use isum_workload::{load_script, load_script_lenient, split_script, Workload};

#[allow(dead_code)] // the family names go unused here
mod common;
use common::{families, lexed_shape, Family};

const COUNTERS: [&str; 4] =
    ["sql.lex.calls", "sql.shape.hits", "sql.shape.misses", "sql.shape.fallbacks"];

fn read_counters() -> [u64; 4] {
    COUNTERS.map(|name| telemetry::counter(name).get())
}

/// One statement of the family, now and then broken.
fn statement(family: &Family, pool: &[usize], rng: &mut DetRng) -> String {
    let sql = family.instantiate(*rng.pick(pool), rng);
    let sql = sql.trim_end_matches(';');
    match rng.below(12) {
        // Does not lex.
        0 => format!("{sql} @"),
        // Does not parse: cut short (possibly inside a literal).
        1 => sql[..sql.char_indices().nth(rng.below(sql.len())).map_or(0, |(i, _)| i)].to_string(),
        // Does not bind.
        2 => sql.replacen(" FROM ", " FROM no_such_table, ", 1),
        // A date the parser rejects, on what may be a known shape.
        3 => sql.replacen("-01'", "-41'", 1),
        _ => sql.to_string(),
    }
}

/// A script of up to 30 statements over a few templates of the family,
/// with annotations, comments and blank lines between them.
fn script(family: &Family, rng: &mut DetRng) -> String {
    let pool: Vec<usize> = (0..1 + rng.below(4)).map(|_| rng.below(family.templates)).collect();
    let mut out = String::new();
    for _ in 0..1 + rng.below(30) {
        while rng.chance(0.3) {
            out.push_str(match rng.below(5) {
                0 => "\n",
                1 => "-- a comment; with 'quotes'\n",
                2 => "-- cost: oops\n",
                _ => "-- cost: 12.5\n",
            });
        }
        if rng.chance(0.3) {
            out.push_str(&format!("-- cost: {}\n", rng.below(1000)));
        }
        out.push_str(&statement(family, &pool, rng));
        out.push_str(if rng.chance(0.2) { ";  -- trailing\n" } else { ";\n" });
    }
    out
}

/// Everything a load is compared on.
#[derive(Debug, PartialEq)]
struct Loaded {
    queries: Vec<(usize, String, String, usize, String, u64)>,
    templates: usize,
    skipped: Vec<(usize, String)>,
    counters: [u64; 4],
    evaluations: u64,
    /// Template id and counters of each later `push_sql`.
    pushed: Vec<(Option<usize>, [u64; 4])>,
}

impl Loaded {
    fn of(
        mut w: Workload,
        skipped: Vec<(usize, String)>,
        counters: [u64; 4],
        later: &[String],
    ) -> Self {
        let queries = w
            .queries
            .iter()
            .map(|q| {
                let fingerprint = w.templates.fingerprint_of(q.template).to_string();
                let bound = format!("{:?}", q.bound);
                (
                    q.id.index(),
                    q.sql.clone(),
                    bound,
                    q.template.index(),
                    fingerprint,
                    q.cost.to_bits(),
                )
            })
            .collect();
        let opt = WhatIfOptimizer::new(&w.catalog);
        for q in &w.queries {
            opt.cost_bound(&q.bound, &IndexConfig::empty());
        }
        let evaluations = opt.cost_evaluations();
        let templates = w.template_count();
        let pushed = later
            .iter()
            .map(|sql| {
                telemetry::reset();
                let id = w.push_sql(sql, 1.0).ok();
                (id.map(|id| w.query(id).template.index()), read_counters())
            })
            .collect();
        Loaded { queries, templates, skipped, counters, evaluations, pushed }
    }
}

/// The serial model: each statement pushed in order, lenient or stopping
/// at the first failure. Its counters are checked against their
/// definition: every statement is lexed once, and one that lexes is a hit
/// when a statement of its shape bound before and it binds too, a
/// fallback when one did and it fails, and a miss otherwise.
fn serial(family: &Family, script: &str, lenient: bool, later: &[String]) -> Loaded {
    let (sqls, costs) = split_script(script);
    let shapes: Vec<Option<String>> = sqls.iter().map(|sql| lexed_shape(sql)).collect();
    telemetry::reset();
    let mut w = Workload::empty(family.catalog.clone());
    let mut skipped = Vec::new();
    let mut bound_shapes = HashSet::new();
    let mut defined = [0u64; 4];
    for (i, ((sql, cost), shape)) in sqls.iter().zip(costs).zip(shapes).enumerate() {
        let pushed = w.push_sql(sql, cost.unwrap_or(0.0));
        defined[0] += 1;
        if let Some(shape) = shape {
            let seen = bound_shapes.contains(&shape);
            defined[match (seen, pushed.is_ok()) {
                (true, true) => 1,
                (true, false) => 3,
                (false, _) => 2,
            }] += 1;
            if pushed.is_ok() {
                bound_shapes.insert(shape);
            }
        }
        if let Err(e) = pushed {
            // `push_sql` names the statement by the id it would have had.
            let text =
                e.to_string().replacen(&format!("query #{}", w.len()), &format!("query #{i}"), 1);
            skipped.push((i, text));
            if !lenient {
                break;
            }
        }
    }
    let counters = read_counters();
    assert_eq!(counters, defined, "{COUNTERS:?} of the serial load");
    Loaded::of(w, skipped, counters, later)
}

fn load(family: &Family, script: &str, lenient: bool, later: &[String]) -> Loaded {
    telemetry::reset();
    let (w, skipped) = if lenient {
        load_script_lenient(family.catalog.clone(), script)
    } else {
        match load_script(family.catalog.clone(), script) {
            Ok(w) => (w, Vec::new()),
            Err(e) => (Workload::empty(family.catalog.clone()), vec![(usize::MAX, e)]),
        }
    };
    let counters = read_counters();
    let skipped = skipped.into_iter().map(|(i, e)| (i, e.to_string())).collect();
    Loaded::of(w, skipped, counters, later)
}

proptest! {
    #[test]
    fn a_script_loads_the_same_at_any_thread_count(seed in any::<u64>()) {
        let mut rng = DetRng::seeded(seed);
        let family = rng.pick(families());
        let script = script(family, &mut rng);
        // Statements pushed after the load: repeats of the script's and a
        // fresh one.
        let (sqls, _) = split_script(&script);
        let mut later: Vec<String> = sqls.iter().rev().take(2).cloned().collect();
        later.push(family.instantiate(rng.below(family.templates), &mut rng));

        telemetry::set_enabled(true);
        let lenient = serial(family, &script, true, &later);
        let mut strict = serial(family, &script, false, &later);
        // A strict load returns the first error alone, and no workload.
        if let Some((_, first)) = strict.skipped.first().cloned() {
            strict.skipped = vec![(usize::MAX, first)];
            let empty = Loaded::of(Workload::empty(family.catalog.clone()), Vec::new(), [0; 4], &later);
            (strict.queries, strict.templates, strict.evaluations, strict.pushed) =
                (empty.queries, empty.templates, empty.evaluations, empty.pushed);
        }
        for threads in [1, 2, 8] {
            isum_exec::set_global_threads(threads);
            prop_assert_eq!(&load(family, &script, true, &later), &lenient, "{} threads, lenient:\n{}", threads, script);
            prop_assert_eq!(&load(family, &script, false, &later), &strict, "{} threads, strict:\n{}", threads, script);
        }
        telemetry::set_enabled(false);
    }
}
