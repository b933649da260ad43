//! Loading workloads from SQL text and Query-Store-style logs.
//!
//! Production systems hand ISUM a batch of query texts plus their
//! optimizer-estimated costs (Sec 2.2: "Many database systems typically log
//! the plan details, e.g., Query Store"). This module parses
//! `;`-separated SQL scripts and an optional `-- cost: <value>` annotation
//! convention for carrying logged costs alongside each statement.
//!
//! A script is split by one serial scan of its bytes (`scan`) that
//! copies nothing: it skips eight bytes at a time past the bytes it does
//! not act on and records where each statement's text lies, and its cost.
//! The loaders then copy each statement's text out of the script inside
//! the parallel chunks that analyze it, so the copies and their page
//! faults run on every thread; [`split_script`] copies them all on the
//! calling thread.

use std::ops::Range;

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
    let (w, mut first_failure) = Workload::from_script(catalog, script, &scan(script), false);
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
    Workload::from_script(catalog, script, &scan(script), true)
}

/// Splits a script into statements and their optional cost annotations
/// (shared by the loaders above and the serving daemon's ingest path, so
/// both carve up a script identically): `scan`, then each statement's
/// text copied out on the calling thread.
///
/// A statement ends at a `;` that is outside a string literal and outside
/// a `--` comment. Lines that are blank or hold only a comment are dropped
/// (a `-- cost: <float>` line annotates the next statement to end, unless
/// the value does not parse or is not finite), as is a comment that trails
/// a statement's `;` on the same line; comments inside a statement stay in
/// its text, which the lexer skips. Line ends read as `\n`, and a
/// statement's text is trimmed, its trailing `;` cut.
pub fn split_script(script: &str) -> (Vec<String>, Vec<Option<f64>>) {
    let spans = scan(script);
    spans.statements.iter().map(|s| (spans.text(script, s), s.cost)).unzip()
}

/// Where a script's statements are, as [`scan`] found them.
#[derive(Debug, Default)]
pub(crate) struct Spans {
    /// The statements, in script order.
    pub(crate) statements: Vec<Span>,
    /// The runs of script bytes that make up the statements whose text is
    /// not one range of the script.
    runs: Vec<Range<usize>>,
}

/// One statement of a script.
#[derive(Debug)]
pub(crate) struct Span {
    /// Its `-- cost:` annotation.
    pub(crate) cost: Option<f64>,
    text: Text,
}

/// Where a statement's text is.
#[derive(Debug)]
enum Text {
    /// `script[range]`, exactly: the usual case, a statement whose lines
    /// are contiguous in the script and end in `\n`.
    Script(Range<usize>),
    /// `Spans::runs[range]`, joined, trimmed and its trailing `;` cut: a
    /// statement with a blank or comment line inside it, or a `\r\n` line
    /// end (whose `\n` is a run of its own).
    Runs(Range<usize>),
}

impl Spans {
    /// The text of `statement`, a statement of `script`, copied out.
    pub(crate) fn text(&self, script: &str, statement: &Span) -> String {
        match &statement.text {
            Text::Script(range) => script[range.clone()].to_string(),
            Text::Runs(runs) => {
                let joined: String =
                    self.runs[runs.clone()].iter().map(|r| &script[r.clone()]).collect();
                trim_statement(&joined).to_string()
            }
        }
    }
}

/// A statement's text as the split gives it: trimmed, trailing `;` cut.
fn trim_statement(text: &str) -> &str {
    text.trim().trim_end_matches(';').trim()
}

/// The pieces of the statement the scan is in: the script ranges its text
/// is joined from, each line's piece followed by that line's `\n`.
#[derive(Default)]
struct Pieces {
    /// The range of the pieces so far while they are contiguous.
    range: Option<Range<usize>>,
    /// Where the statement's runs start in `Spans::runs`, once its pieces
    /// are not contiguous.
    runs_from: Option<usize>,
}

impl Pieces {
    fn push(&mut self, piece: Range<usize>, spans: &mut Spans) {
        if piece.is_empty() {
            return;
        }
        if self.runs_from.is_some() {
            match spans.runs.last_mut() {
                Some(last) if last.end == piece.start => last.end = piece.end,
                _ => spans.runs.push(piece),
            }
            return;
        }
        match &mut self.range {
            None => self.range = Some(piece),
            Some(range) if range.end == piece.start => range.end = piece.end,
            Some(range) => {
                self.runs_from = Some(spans.runs.len());
                spans.runs.push(range.clone());
                spans.runs.push(piece);
            }
        }
    }

    /// Ends the statement: it joins `spans` with the pending cost unless
    /// its text is empty.
    fn finish(&mut self, script: &str, cost: &mut Option<f64>, spans: &mut Spans) {
        let text = match (std::mem::take(&mut self.range), self.runs_from.take()) {
            (_, Some(from)) => {
                // Pieces that are not contiguous are never empty: a
                // statement's first piece has a character other than white
                // space or `;` unless it ends the statement.
                Text::Runs(from..spans.runs.len())
            }
            (Some(range), None) => {
                let text = trim_statement(&script[range]);
                if text.is_empty() {
                    return;
                }
                let start = text.as_ptr() as usize - script.as_ptr() as usize;
                Text::Script(start..start + text.len())
            }
            (None, None) => return,
        };
        spans.statements.push(Span { cost: cost.take(), text });
    }
}

/// Finds a script's statements (see [`split_script`] for the rules) in
/// one pass over its bytes, copying none of them. Counts the script's
/// bytes as `workload.split.bytes`.
pub(crate) fn scan(script: &str) -> Spans {
    isum_common::count!("workload.split.bytes", script.len());
    let bytes = script.as_bytes();
    let mut spans = Spans::default();
    let mut pieces = Pieces::default();
    let mut pending_cost: Option<f64> = None;
    // Whether the text so far ends inside a string literal (a `''` escape
    // leaves and re-enters it, which comes to the same).
    let mut in_string = false;
    let mut line = 0;
    while line < bytes.len() {
        let mut i = line;
        if !in_string {
            // Blank lines, and a line that holds only a comment, are
            // dropped.
            let first = bytes.len() - script[line..].trim_start().len();
            if first == bytes.len() {
                break;
            }
            if let Some(nl) = bytes[line..first].iter().rposition(|&b| b == b'\n') {
                line += nl + 1;
            }
            if bytes[first..].starts_with(b"--") {
                let end = next_line_feed(bytes, first);
                if let Some(cost) = script[first..end].strip_prefix("-- cost:") {
                    pending_cost = parse_cost(cost);
                }
                line = end + 1;
                continue;
            }
            i = first;
        }
        let mut rest_from = line;
        // Scan to the line's end, ending a statement at each `;`.
        loop {
            // Inside a literal only its end, or the line's, matters.
            i = if in_string {
                next_of(bytes, i, STRING_BYTES)
            } else {
                next_of(bytes, i, SPLIT_BYTES)
            };
            match bytes.get(i) {
                None | Some(b'\n') => break,
                Some(b'\'') => in_string = !in_string,
                Some(b'-') if !in_string && bytes.get(i + 1) == Some(&b'-') => {
                    i = next_line_feed(bytes, i);
                    break;
                }
                Some(b';') if !in_string => {
                    pieces.push(rest_from..i + 1, &mut spans);
                    pieces.finish(script, &mut pending_cost, &mut spans);
                    rest_from = i + 1;
                }
                _ => {}
            }
            i += 1;
        }
        // `i` is the line's `\n`, or the script's end; a `\r` before the
        // `\n` is not part of the line.
        let end = if i > rest_from && bytes.get(i) == Some(&b'\n') && bytes[i - 1] == b'\r' {
            i - 1
        } else {
            i
        };
        let only_comment = rest_from > line && {
            let rest = script[rest_from..end].trim_start();
            rest.is_empty() || rest.starts_with("--")
        };
        if !only_comment {
            // The line's piece, then its `\n` (none at the script's end,
            // where the text is trimmed anyway).
            pieces.push(rest_from..end, &mut spans);
            pieces.push(i..(i + 1).min(bytes.len()), &mut spans);
        }
        line = i + 1;
    }
    pieces.finish(script, &mut pending_cost, &mut spans);
    spans
}

/// The index of the first `\n` at or after `from`, or the script's length.
fn next_line_feed(bytes: &[u8], from: usize) -> usize {
    bytes[from..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |p| from + p)
}

/// The index of the first of `set` at or after `from` in `bytes`, or
/// `bytes.len()`. Eight bytes are tested at a time.
fn next_of<const N: usize>(bytes: &[u8], mut from: usize, set: [u8; N]) -> usize {
    while let Some(word) = bytes.get(from..from + 8) {
        match first_of(u64::from_le_bytes(word.try_into().expect("eight bytes")), set) {
            Some(at) => return from + at,
            None => from += 8,
        }
    }
    from + bytes[from..].iter().position(|b| set.contains(b)).unwrap_or(bytes.len() - from)
}

/// The bytes the scan acts on outside a string literal, and inside one.
const SPLIT_BYTES: [u8; 4] = [b'\'', b'-', b';', b'\n'];
const STRING_BYTES: [u8; 2] = [b'\'', b'\n'];

/// The position of the first of `set` in `word` (eight bytes,
/// little-endian), if any. Per byte value this is the test for a zero byte
/// in `word` XOR that value repeated; its lowest flagged byte is exact
/// (only a borrow out of a true zero byte flags a false one, above it).
fn first_of<const N: usize>(word: u64, set: [u8; N]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let zero_bytes = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let found = set.iter().fold(0, |found, &b| found | zero_bytes(word ^ (ONES * u64::from(b))));
    (found != 0).then(|| found.trailing_zeros() as usize / 8)
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
        let word = |bytes: &[u8; 8]| u64::from_le_bytes(*bytes);
        assert_eq!(first_of(word(b"SELECT a"), SPLIT_BYTES), None);
        for special in SPLIT_BYTES {
            for at in 0..8 {
                let mut bytes = *b"abcdefgh";
                bytes[at] = special;
                assert_eq!(first_of(word(&bytes), SPLIT_BYTES), Some(at), "{special:#x} at {at}");
                // The first of several is found, whatever follows it.
                bytes[7] = b';';
                assert_eq!(first_of(word(&bytes), SPLIT_BYTES), Some(at), "{special:#x} at {at}");
            }
        }
        // Bytes next to the four in value, and high bytes, are not them.
        assert_eq!(
            first_of(word(&[b'&', b'(', b',', b'.', b':', b'<', 0x80, 0xff]), SPLIT_BYTES),
            None
        );
        assert_eq!(first_of(word(&[0x09, 0x0b, b'\r', b'+', b'/', 0x7f, 0, 0]), SPLIT_BYTES), None);
        // And the scan over a whole script finds them past the words too.
        let script = b"abcdefghijklmnop;qr\nst";
        assert_eq!(next_of(script, 0, SPLIT_BYTES), 16);
        assert_eq!(next_of(script, 17, SPLIT_BYTES), 19);
        assert_eq!(next_of(script, 20, SPLIT_BYTES), script.len());
        // Inside a literal, `-` and `;` are passed over.
        assert_eq!(next_of(b"1994-01-01; -- x';", 0, STRING_BYTES), 16);
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
