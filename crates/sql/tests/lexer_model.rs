//! The lexer, the keywords it recognizes and the shape it writes, against
//! models: the 33-arm keyword match over an upper-cased copy, and the
//! shape rendered by a walk over the finished tokens — what the lexer did
//! before it wrote the shape itself and matched keywords in place.
//!
//! Inputs: every keyword in every mix of upper and lower case, near misses
//! (prefixes, suffixes, words of nine letters or more, `_`, digits,
//! non-ASCII), statements of every workload generator, and the malformed
//! statements and garbage `fuzz_malformed.rs` feeds the parser. For each,
//! `lex` and `lex_shaped` give the same tokens (or the same error), every
//! word token is a keyword exactly when the model says so, and the shape
//! bytes equal the model's. CI runs it at `PROPTEST_CASES=2000` in
//! release.

use std::sync::OnceLock;

use proptest::prelude::*;

use isum_common::rng::DetRng;
use isum_sql::lexer::{lex, lex_shaped};
use isum_sql::token::{Keyword, Token, TokenKind};
use isum_workload::gen::dsb::{dsb_catalog, dsb_templates};
use isum_workload::gen::realm::{realm_catalog, realm_templates};
use isum_workload::gen::synth::SyntheticTemplate;
use isum_workload::gen::tpcds::{tpcds_catalog, tpcds_templates};
use isum_workload::gen::{tpcds_templates as hand_written, tpch};

/// The keyword match the lexer shipped before it folded each word into a
/// `u64`.
fn model_keyword(s: &str) -> Option<Keyword> {
    use Keyword::*;
    let mut buf = [0u8; 8];
    let upper = buf.get_mut(..s.len())?;
    upper.copy_from_slice(s.as_bytes());
    upper.make_ascii_uppercase();
    Some(match &*upper {
        b"SELECT" => Select,
        b"FROM" => From,
        b"WHERE" => Where,
        b"GROUP" => Group,
        b"ORDER" => Order,
        b"BY" => By,
        b"HAVING" => Having,
        b"LIMIT" => Limit,
        b"AS" => As,
        b"AND" => And,
        b"OR" => Or,
        b"NOT" => Not,
        b"IN" => In,
        b"BETWEEN" => Between,
        b"LIKE" => Like,
        b"IS" => Is,
        b"NULL" => Null,
        b"EXISTS" => Exists,
        b"JOIN" => Join,
        b"INNER" => Inner,
        b"LEFT" => Left,
        b"OUTER" => Outer,
        b"ON" => On,
        b"ASC" => Asc,
        b"DESC" => Desc,
        b"DISTINCT" => Distinct,
        b"DATE" => Date,
        b"INTERVAL" => Interval,
        b"CASE" => Case,
        b"WHEN" => When,
        b"THEN" => Then,
        b"ELSE" => Else,
        b"END" => End,
        _ => return None,
    })
}

/// The 33 keywords, spelled.
const KEYWORDS: [&str; 33] = [
    "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "HAVING", "LIMIT", "AS", "AND", "OR", "NOT",
    "IN", "BETWEEN", "LIKE", "IS", "NULL", "EXISTS", "JOIN", "INNER", "LEFT", "OUTER", "ON", "ASC",
    "DESC", "DISTINCT", "DATE", "INTERVAL", "CASE", "WHEN", "THEN", "ELSE", "END",
];

/// The shape the prepared cache keyed on before the lexer wrote it: a walk
/// over the lexed tokens.
fn model_shape(sql: &str, tokens: &[Token]) -> Vec<u8> {
    let mut shape = Vec::new();
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
    shape
}

/// `Keyword::parse` against the model on one word.
fn check_word(word: &str) {
    assert_eq!(Keyword::parse(word), model_keyword(word), "{word:?}");
}

/// Everything compared on one input.
fn check(sql: &str) {
    let (mut tokens, mut shape) = (Vec::new(), vec![0xff]);
    match (lex(sql), lex_shaped(sql, &mut tokens, &mut shape)) {
        (Ok(plain), Ok(())) => {
            assert_eq!(plain, tokens, "{sql:?}");
            for t in &tokens {
                if let TokenKind::Keyword(_) | TokenKind::Ident = t.kind {
                    let want =
                        model_keyword(t.text(sql)).map_or(TokenKind::Ident, TokenKind::Keyword);
                    assert_eq!(t.kind, want, "{:?} in {sql:?}", t.text(sql));
                    check_word(t.text(sql));
                }
            }
            assert_eq!(shape, model_shape(sql, &tokens), "{sql:?}");
        }
        (Err(plain), Err(shaped)) => assert_eq!(plain.to_string(), shaped.to_string(), "{sql:?}"),
        (plain, shaped) => panic!("{sql:?}: lex {plain:?}, lex_shaped {shaped:?}"),
    }
}

#[test]
fn every_keyword_in_every_mix_of_case_is_the_models() {
    for word in KEYWORDS {
        let lower = word.to_ascii_lowercase();
        for mask in 0..1u32 << word.len() {
            let mixed: String = word
                .chars()
                .zip(lower.chars())
                .enumerate()
                .map(|(i, (up, low))| if mask >> i & 1 == 1 { low } else { up })
                .collect();
            assert!(Keyword::parse(&mixed).is_some(), "{mixed}");
            check_word(&mixed);
            check(&format!("x {mixed} y,{mixed}({mixed}"));
        }
    }
}

#[test]
fn near_misses_are_the_models() {
    let mut words = Vec::new();
    for word in KEYWORDS {
        for cut in 0..word.len() {
            words.push(word[..cut].to_string());
            words.push(word[cut + 1..].to_string());
            // One letter changed, and one swapped for a digit or `_`.
            let mut changed = word.as_bytes().to_vec();
            changed[cut] = if changed[cut] == b'Z' { b'A' } else { changed[cut] + 1 };
            words.push(String::from_utf8(changed).expect("ASCII"));
            for other in ["_", "1", "é", "\u{212a}", "\u{17f}"] {
                words.push(format!("{}{other}{}", &word[..cut], &word[cut + 1..]));
            }
        }
        for suffix in ["S", "s", "_", "1", "X", "é", "ES", "_a", "123456789"] {
            words.push(format!("{word}{suffix}"));
            words.push(format!("{suffix}{word}"));
        }
        for other in KEYWORDS {
            words.push(format!("{word}{other}"));
        }
    }
    words.extend(
        ["", "_", "a", "é", "SELECTED", "INTERVALS", "l_orderkey", "o_comment"].map(String::from),
    );
    for word in &words {
        check_word(word);
        check(&format!("{word} x"));
        check(&format!("SELECT {word} FROM t WHERE {word} = 1"));
    }
}

/// A few synthesized templates of each of the other generators.
fn synthesized() -> &'static [SyntheticTemplate] {
    static TEMPLATES: OnceLock<Vec<SyntheticTemplate>> = OnceLock::new();
    TEMPLATES.get_or_init(|| {
        let mut all = tpcds_templates(&tpcds_catalog(1, 0.0), 16);
        all.extend(dsb_templates(&dsb_catalog(1), 16, None));
        all.extend(realm_templates(&realm_catalog(), 16));
        all
    })
}

/// One statement of any generator.
fn generated(rng: &mut DetRng) -> String {
    match rng.below(4) {
        0 => tpch::instantiate_template(1 + rng.below(22), rng),
        1 => hand_written::instantiate(rng.below(hand_written::N_HAND_WRITTEN), rng),
        _ => rng.pick(synthesized()).instantiate(rng),
    }
}

/// `fuzz_malformed.rs`'s statements to mutate.
fn valid_sql() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "SELECT a FROM t WHERE b = 7",
        "SELECT a, b FROM t WHERE b > 3 AND b < 90 ORDER BY a DESC LIMIT 5",
        "SELECT count(*) FROM t GROUP BY b",
        "SELECT a FROM t, u WHERE a = c",
        "SELECT max(b) FROM t WHERE a IN (1, 2, 3)",
    ])
    .prop_map(str::to_string)
}

/// A statement, generated or from the pool, as it was or mutated the ways
/// `fuzz_malformed.rs` mutates it: cut short, garbage spliced in, a byte
/// flipped.
fn statement() -> impl Strategy<Value = String> {
    let base = (valid_sql(), any::<bool>(), any::<u64>()).prop_map(|(pooled, pick, seed)| {
        if pick {
            pooled
        } else {
            generated(&mut DetRng::seeded(seed))
        }
    });
    (base, 0u8..4, any::<usize>(), "[ -~]{0,12}").prop_map(|(sql, how, at, garbage)| {
        let at = at % (sql.len() + 1);
        let at = (0..=at).rev().find(|&i| sql.is_char_boundary(i)).unwrap_or(0);
        match how {
            0 => sql,
            1 => sql[..at].to_string(),
            2 => format!("{}{garbage}{}", &sql[..at], &sql[at..]),
            _ => {
                let mut bytes = sql.into_bytes();
                if let Some(b) = bytes.get_mut(at) {
                    *b = garbage.bytes().next().unwrap_or(b'@');
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
        }
    })
}

proptest! {
    #[test]
    fn statements_lex_and_shape_as_the_models(sql in statement()) {
        check(&sql);
    }

    #[test]
    fn garbage_lexes_and_shapes_as_the_models(
        ascii in "[ -~]{0,60}",
        words in "[a-zA-Z_0-9 é\u{212a}\u{17f}'\n-]{0,40}",
    ) {
        check(&ascii);
        check(&words);
    }
}
