//! Loading workloads from SQL text and Query-Store-style logs.
//!
//! Production systems hand ISUM a batch of query texts plus their
//! optimizer-estimated costs (Sec 2.2: "Many database systems typically log
//! the plan details, e.g., Query Store"). This module parses
//! `;`-separated SQL scripts and an optional `-- cost: <value>` annotation
//! convention for carrying logged costs alongside each statement.

use isum_catalog::Catalog;
use isum_common::Result;

use crate::query::Workload;

/// Parses a `;`-separated SQL script into a workload. Statements may be
/// preceded by `-- cost: <float>` comment lines carrying logged costs;
/// unannotated statements get cost 0 (fill them via the optimizer's
/// `populate_costs`).
///
/// # Errors
/// Propagates parse/bind errors with the failing statement index.
pub fn load_script(catalog: Catalog, script: &str) -> Result<Workload> {
    let (sqls, costs) = split_script(script);
    let (w, mut first_failure) = Workload::from_script(catalog, sqls, costs, false);
    match first_failure.pop() {
        Some((_, e)) => Err(e),
        None => Ok(w),
    }
}

/// Lenient form of [`load_script`] for production logs: statements that
/// fail to parse or bind are skipped (returned with their statement index
/// and error) instead of failing the whole load; cost annotations stay
/// attached to the statements that survive.
pub fn load_script_lenient(
    catalog: Catalog,
    script: &str,
) -> (Workload, Vec<(usize, isum_common::Error)>) {
    let (sqls, costs) = split_script(script);
    Workload::from_script(catalog, sqls, costs, true)
}

/// Splits a script into statements and their optional cost annotations
/// (shared by the loaders above and the serving daemon's ingest path, so
/// both carve up a script identically).
///
/// A statement ends at a `;` that is outside a string literal and outside
/// a `--` comment. Lines that are blank or hold only a comment are dropped
/// (a `-- cost: <float>` line annotates the next statement to end, unless
/// the value does not parse or is not finite), as is a comment that trails
/// a statement's `;` on the same line; comments inside a statement stay in
/// its text, which the lexer skips.
pub fn split_script(script: &str) -> (Vec<String>, Vec<Option<f64>>) {
    let mut sqls = Vec::new();
    let mut costs = Vec::new();
    let mut pending_cost: Option<f64> = None;
    let mut current = String::new();
    let mut finish = |current: &mut String, pending_cost: &mut Option<f64>| {
        let stmt = current.trim().trim_end_matches(';').trim();
        if !stmt.is_empty() {
            sqls.push(stmt.to_string());
            costs.push(pending_cost.take());
        }
        current.clear();
    };
    // Whether the text so far ends inside a string literal (a `''` escape
    // leaves and re-enters it, which comes to the same).
    let mut in_string = false;
    for line in script.lines() {
        if !in_string {
            let trimmed = line.trim();
            if let Some(rest) = trimmed.strip_prefix("-- cost:") {
                pending_cost = parse_cost(rest);
                continue;
            }
            if trimmed.starts_with("--") || trimmed.is_empty() {
                continue;
            }
        }
        let bytes = line.as_bytes();
        let mut rest_from = 0;
        let mut i = 0;
        while i < bytes.len() {
            if bytes.get(i..i + 8).is_some_and(|word| !has_split_byte(word)) {
                i += 8;
                continue;
            }
            match bytes[i] {
                b'\'' => in_string = !in_string,
                b'-' if !in_string && bytes.get(i + 1) == Some(&b'-') => break,
                b';' if !in_string => {
                    current.push_str(&line[rest_from..=i]);
                    finish(&mut current, &mut pending_cost);
                    rest_from = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        let rest = &line[rest_from..];
        let only_comment = rest_from > 0 && {
            let rest = rest.trim_start();
            rest.is_empty() || rest.starts_with("--")
        };
        if !only_comment {
            current.push_str(rest);
            current.push('\n');
        }
    }
    finish(&mut current, &mut pending_cost);
    (sqls, costs)
}

/// True when `word` (eight bytes) holds one of the bytes the splitter
/// acts on — `'`, `-`, `;` — so a line is scanned eight bytes at a time
/// past the text between them. Per byte value this is the exact test for
/// a zero byte in `word` XOR that value repeated.
fn has_split_byte(word: &[u8]) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let x = u64::from_le_bytes(word.try_into().expect("eight bytes"));
    let has_zero_byte = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS != 0;
    [b'\'', b'-', b';'].into_iter().any(|b| has_zero_byte(x ^ (ONES * u64::from(b))))
}

/// The value of a `-- cost:` annotation. A non-finite one (`NaN`, `inf`)
/// counts as unparsable, so the optimizer costs the statement: one `NaN`
/// would make every utility of the workload `NaN`.
fn parse_cost(text: &str) -> Option<f64> {
    text.trim().parse::<f64>().ok().filter(|c| c.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_catalog::CatalogBuilder;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .table("t", 1000)
            .col_key("a")
            .col_int("b", 100, 0, 100)
            .finish()
            .expect("fresh table")
            .build()
    }

    #[test]
    fn loads_multi_statement_script() {
        let script = "\
-- a workload exported from the plan cache
SELECT a FROM t WHERE b = 1;

SELECT a FROM t
WHERE b = 2;
SELECT count(*) FROM t GROUP BY b
";
        let w = load_script(catalog(), script).expect("script loads");
        assert_eq!(w.len(), 3);
        assert_eq!(w.queries[1].sql.replace('\n', " ").trim(), "SELECT a FROM t WHERE b = 2");
    }

    #[test]
    fn cost_annotations_are_attached() {
        let script = "\
-- cost: 120.5
SELECT a FROM t WHERE b = 1;
SELECT a FROM t WHERE b = 2;
-- cost: 33
SELECT a FROM t WHERE b = 3;
";
        let w = load_script(catalog(), script).expect("script loads");
        assert_eq!(w.queries[0].cost, 120.5);
        assert_eq!(w.queries[1].cost, 0.0, "unannotated statement keeps default");
        assert_eq!(w.queries[2].cost, 33.0);
    }

    #[test]
    fn non_finite_cost_annotations_are_ignored() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "1e999"] {
            let script = format!(
                "-- cost: {bad}\nSELECT a FROM t WHERE b = 1;\n-- cost: 5\nSELECT a FROM t;"
            );
            let (_, costs) = split_script(&script);
            assert_eq!(costs, [None, Some(5.0)], "`-- cost: {bad}` is no cost");
            let w = load_script(catalog(), &script).expect("script loads");
            assert_eq!(w.queries[0].cost, 0.0, "`{bad}`: left for the optimizer to fill");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let script = "-- header\n\n-- more comments\nSELECT a FROM t;\n-- trailing\n";
        let w = load_script(catalog(), script).expect("script loads");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn bad_statement_reports_index() {
        let err = load_script(catalog(), "SELECT a FROM t;\nSELECT FROM;").unwrap_err();
        assert!(err.to_string().contains("query #1"), "{err}");
    }

    #[test]
    fn lex_errors_name_the_statement() {
        let bad = "SELECT a FROM t WHERE b = 1 # 2";
        let want = format!(
            "lex error at byte {}: query #1: unexpected character `#` in `{bad}`",
            bad.find('#').expect("has a #")
        );
        let script = format!("SELECT a FROM t;\n{bad};\nSELECT b FROM t;\n");
        let err = load_script(catalog(), &script).unwrap_err();
        assert_eq!(err.to_string(), want);
        let (w, skipped) = load_script_lenient(catalog(), &script);
        assert_eq!(w.len(), 2);
        assert_eq!(skipped.len(), 1);
        assert_eq!((skipped[0].0, skipped[0].1.to_string()), (1, want));
    }

    #[test]
    fn lenient_load_skips_bad_statements_and_keeps_costs() {
        let script = "\
-- cost: 10
SELECT a FROM t WHERE b = 1;
SELECT FROM;
-- cost: 30
SELECT a FROM t WHERE b = 3;
SELECT a FROM no_such_table;
";
        let (w, skipped) = load_script_lenient(catalog(), script);
        assert_eq!(w.len(), 2, "two good statements survive");
        assert_eq!(skipped.len(), 2, "parse and bind failures are both skipped");
        assert_eq!(skipped[0].0, 1);
        assert_eq!(skipped[1].0, 3);
        assert!(skipped[0].1.to_string().contains("parse"), "{}", skipped[0].1);
        assert!(skipped[1].1.to_string().contains("bind"), "{}", skipped[1].1);
        // Costs follow their surviving statements; ids are re-densified.
        assert_eq!(w.queries[0].cost, 10.0);
        assert_eq!(w.queries[1].cost, 30.0);
        assert_eq!(w.queries[1].id.index(), 1);
    }

    #[test]
    fn a_comment_after_the_semicolon_does_not_glue_statements_together() {
        // Ends used to be detected as "the line ends with `;`".
        let script = "-- cost: 7\nSELECT a FROM t; -- first\nSELECT b FROM t;";
        let (sqls, costs) = split_script(script);
        assert_eq!(sqls, ["SELECT a FROM t", "SELECT b FROM t"]);
        assert_eq!(costs, [Some(7.0), None]);
        assert_eq!(load_script(catalog(), script).expect("both statements load").len(), 2);
        let (sqls, _) = split_script("SELECT a FROM t; SELECT b FROM t -- ; not an end\n;  \n");
        assert_eq!(sqls, ["SELECT a FROM t", "SELECT b FROM t -- ; not an end"]);
    }

    #[test]
    fn semicolons_and_line_breaks_inside_string_literals_do_not_split() {
        let script = "SELECT a FROM t WHERE c = 'x;\ny';\nSELECT a FROM t WHERE c = 'it''s;'\n;";
        let (sqls, _) = split_script(script);
        assert_eq!(
            sqls,
            ["SELECT a FROM t WHERE c = 'x;\ny'", "SELECT a FROM t WHERE c = 'it''s;'"]
        );
        // Inside a literal nothing is a comment or a blank line to drop.
        let (sqls, _) = split_script("SELECT 'a\n\n-- b\n' FROM t;");
        assert_eq!(sqls, ["SELECT 'a\n\n-- b\n' FROM t"]);
    }

    #[test]
    fn the_eight_byte_scan_finds_each_split_byte_at_every_position() {
        for special in [b'\'', b'-', b';'] {
            assert!(!has_split_byte(b"SELECT a"));
            for at in 0..8 {
                let mut word = *b"abcdefgh";
                word[at] = special;
                assert!(has_split_byte(&word), "{} at {at}", special as char);
            }
        }
        // Bytes next to the three in value, and high bytes, are not them.
        assert!(!has_split_byte(&[b'&', b'(', b',', b'.', b':', b'<', 0x80, 0xff]));
    }

    #[test]
    fn statements_not_contiguous_in_the_script_are_copied_as_they_read() {
        // A dropped comment line, `\r\n` line ends and a missing final line
        // break each make the text differ from the script's bytes.
        let script = "SELECT a\n-- dropped\nFROM t;\r\nSELECT b\r\nFROM t\r\n;\nSELECT c FROM t\nWHERE b = 1";
        let (sqls, _) = split_script(script);
        assert_eq!(sqls, ["SELECT a\nFROM t", "SELECT b\nFROM t", "SELECT c FROM t\nWHERE b = 1"]);
    }

    #[test]
    fn empty_script_is_empty_workload() {
        let w = load_script(catalog(), "  \n-- nothing here\n").expect("loads");
        assert!(w.is_empty());
    }
}

/// The splitter this module shipped before it learned about string
/// literals and trailing comments, kept as the oracle for every script
/// that one already split correctly.
#[cfg(test)]
mod oracle {
    use std::sync::OnceLock;

    use proptest::prelude::*;

    use super::split_script;
    use crate::gen::dsb::{dsb_catalog, dsb_templates};
    use crate::gen::realm::{realm_catalog, realm_templates};
    use crate::gen::synth::SyntheticTemplate;
    use crate::gen::tpcds::{tpcds_catalog, tpcds_templates};
    use crate::gen::{tpcds_templates as hand_written, tpch};
    use isum_common::rng::DetRng;

    fn line_based_split(script: &str) -> (Vec<String>, Vec<Option<f64>>) {
        let mut sqls = Vec::new();
        let mut costs = Vec::new();
        let mut pending_cost: Option<f64> = None;
        let mut current = String::new();
        for line in script.lines() {
            let trimmed = line.trim();
            if let Some(rest) = trimmed.strip_prefix("-- cost:") {
                pending_cost = rest.trim().parse::<f64>().ok().filter(|c| c.is_finite());
                continue;
            }
            if trimmed.starts_with("--") || trimmed.is_empty() {
                continue;
            }
            current.push_str(line);
            current.push('\n');
            if trimmed.ends_with(';') {
                let stmt = current.trim().trim_end_matches(';').trim().to_string();
                if !stmt.is_empty() {
                    sqls.push(stmt);
                    costs.push(pending_cost.take());
                }
                current.clear();
            }
        }
        let tail = current.trim().trim_end_matches(';').trim().to_string();
        if !tail.is_empty() {
            sqls.push(tail);
            costs.push(pending_cost);
        }
        (sqls, costs)
    }

    /// A few synthesized templates of each of the other generators.
    fn synthesized() -> &'static [SyntheticTemplate] {
        static TEMPLATES: OnceLock<Vec<SyntheticTemplate>> = OnceLock::new();
        TEMPLATES.get_or_init(|| {
            let mut all = tpcds_templates(&tpcds_catalog(1, 0.0), 8);
            all.extend(dsb_templates(&dsb_catalog(1), 8, None));
            all.extend(realm_templates(&realm_catalog(), 8));
            all
        })
    }

    /// One statement of any generator, the way a log would hold it.
    fn statement(rng: &mut DetRng) -> String {
        match rng.below(4) {
            0 => tpch::instantiate_template(1 + rng.below(22), rng),
            1 => hand_written::instantiate(rng.below(hand_written::N_HAND_WRITTEN), rng),
            _ => rng.pick(synthesized()).instantiate(rng),
        }
    }

    /// A script the line-based splitter handles: statements broken over
    /// lines at spaces outside literals, with cost annotations, comment
    /// lines (free text, quotes and semicolons included) and blank lines
    /// anywhere between the lines, `;` always last on its line.
    fn script(seed: u64) -> String {
        let mut rng = DetRng::seeded(seed);
        let noise = |rng: &mut DetRng, out: &mut String| {
            while rng.chance(0.3) {
                out.push_str(match rng.below(7) {
                    0 => "\n",
                    1 => "   \t\n",
                    2 => "-- it's a comment; with a semicolon;\n",
                    3 => "  -- cost: 12.5\n",
                    4 => "-- cost: oops\n",
                    5 => "-- cost: NaN\n",
                    _ => "-- cost:3\n",
                });
            }
        };
        let mut out = String::new();
        let statements = 1 + rng.below(6);
        noise(&mut rng, &mut out);
        for i in 0..statements {
            let sql = statement(&mut rng);
            let mut in_string = false;
            for c in sql.trim_end_matches(';').chars() {
                in_string ^= c == '\'';
                if c == ' ' && !in_string && rng.chance(0.1) {
                    out.push_str(if rng.chance(0.5) { "\n" } else { "  \r\n\t" });
                    noise(&mut rng, &mut out);
                } else {
                    out.push(c);
                }
            }
            out.push_str(match rng.below(4) {
                0 => ";",
                1 => " ;  ",
                2 => ";;",
                _ => "\n;",
            });
            // The script may end right after the last terminator.
            if i + 1 < statements || rng.chance(0.5) {
                out.push('\n');
                noise(&mut rng, &mut out);
            }
        }
        out
    }

    proptest! {
        #[test]
        fn scripts_that_split_correctly_before_split_the_same_now(seed in any::<u64>()) {
            let script = script(seed);
            prop_assert_eq!(split_script(&script), line_based_split(&script), "{}", script);
        }
    }
}
