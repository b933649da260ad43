//! The splitter against its model: `split_script`, and the text the
//! loaders copy out of the script in their chunks, equal the line-based
//! splitter `common::split_model` on every script.
//!
//! Scripts mix statements of every generator family with `-- cost:` lines
//! (valid, non-finite, malformed), blank and comment-only lines inside
//! statements, `\r\n` and lone `\r`, Unicode white space, comments after a
//! `;`, empty statements, strings that span lines and hold `;`, `--` and
//! `''`, and scripts cut anywhere (inside a string too). CI runs it at
//! `PROPTEST_CASES=2000` in release.

use proptest::prelude::*;

use isum_common::rng::DetRng;
use isum_workload::{load_script_lenient, split_script};

#[allow(dead_code)] // the family names go unused here
mod common;
use common::{families, split_model, Family};

/// Something between or inside statements.
const NOISE: [&str; 26] = [
    "\n",
    "\r\n",
    "\n\n",
    "   \t\n",
    " \u{a0}\u{3000}\r\n",
    "-- a comment; with 'quotes' and -- dashes\n",
    "  -- cost: 12.5\n",
    "-- cost: 7\r\n",
    "-- cost:3\n",
    "-- cost: NaN\n",
    "-- cost: inf\n",
    "-- cost: -1e999\n",
    "-- cost: oops\n",
    "-- cost:\n",
    ";",
    " ; ",
    ";;\n",
    "\r",
    "\u{a0}",
    "'a;\n-- b\n''c'",
    "'x\r\n\n;--'",
    " -- trailing ; comment\n",
    "é",
    "-",
    "--",
    "'",
];

/// A script over one family's statements, each broken over lines at some
/// of its spaces, with noise between and inside them.
fn script(seed: u64) -> (&'static Family, String) {
    let mut rng = DetRng::seeded(seed);
    let family = rng.pick(families());
    let mut out = String::new();
    for _ in 0..rng.below(12) {
        while rng.chance(0.3) {
            out.push_str(rng.pick::<&str>(&NOISE));
        }
        let sql = family.instantiate(rng.below(family.templates), &mut rng);
        for c in sql.trim_end_matches(';').chars() {
            if c == ' ' && rng.chance(0.08) {
                out.push_str(if rng.chance(0.5) { "\n" } else { " \r\n\t" });
                while rng.chance(0.3) {
                    out.push_str(rng.pick::<&str>(&NOISE));
                }
            } else {
                out.push(c);
            }
        }
        out.push_str(rng.pick::<&str>(&[";\n", ";", ";\r\n", " ;  -- done\n", "\n;\n", ";;", ""]));
    }
    if rng.chance(0.3) {
        // Cut anywhere, on a char boundary.
        let cut = rng.below(out.len() + 1);
        let cut = (0..=cut).rev().find(|&i| out.is_char_boundary(i)).unwrap_or(0);
        out.truncate(cut);
    }
    (family, out)
}

proptest! {
    #[test]
    fn the_splitter_equals_the_line_based_model(seed in any::<u64>()) {
        let (family, script) = script(seed);
        let (sqls, costs) = split_model(&script);
        prop_assert_eq!(split_script(&script), (sqls.clone(), costs.clone()), "{:?}", script);
        // The loaders copy the same texts out of the script in their
        // chunks, at one thread and at two.
        for threads in [1, 2] {
            isum_exec::set_global_threads(threads);
            let (w, skipped) = load_script_lenient(family.catalog.clone(), &script);
            let mut queries = w.queries.iter();
            let mut skipped = skipped.iter().map(|(i, _)| *i).peekable();
            for (i, (sql, cost)) in sqls.iter().zip(&costs).enumerate() {
                if skipped.next_if_eq(&i).is_some() {
                    continue;
                }
                let q = queries.next();
                prop_assert_eq!(q.map(|q| (q.sql.as_str(), q.cost)), Some((sql.as_str(), cost.unwrap_or(0.0))), "statement {} of {:?}", i, script);
            }
            prop_assert!(queries.next().is_none() && skipped.next().is_none());
        }
    }
}
