//! Hand-written SQL lexer.
//!
//! Converts source text to a [`Token`] stream. Supports `--` line comments,
//! single-quoted strings with `''` escaping, and decimal numeric literals.
//! Tokens are spans into the input: lexing allocates nothing beyond the
//! token buffer, which [`lex_into`] lets a caller reuse.

use isum_common::{Error, Result};

use crate::token::{Keyword, Token, TokenKind};

/// Lexes an entire SQL string into tokens, terminated by [`TokenKind::Eof`].
///
/// # Errors
/// Returns [`Error::Lex`] on unterminated strings or unexpected characters.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    // Statements average about five bytes per token.
    let mut tokens = Vec::with_capacity(input.len() / 4 + 1);
    lex_into(input, &mut tokens)?;
    Ok(tokens)
}

/// [`lex`] into a caller-owned buffer (cleared first), so a loop over many
/// statements allocates its token storage once.
///
/// # Errors
/// Same as [`lex`]; the buffer's content is unspecified after an error.
pub fn lex_into(input: &str, tokens: &mut Vec<Token>) -> Result<()> {
    isum_common::count!("sql.lex.calls");
    lex_uncounted(input, tokens)
}

/// [`lex_into`] without counting `sql.lex.calls`, for the prepared cache,
/// which counts a statement when it settles.
pub(crate) fn lex_uncounted(input: &str, tokens: &mut Vec<Token>) -> Result<()> {
    tokens.clear();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let kind = match bytes[i] {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
                continue;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b';' => TokenKind::Semicolon,
            b'*' => TokenKind::Star,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'/' => TokenKind::Slash,
            b'=' => TokenKind::Eq,
            b'!' => {
                if bytes.get(i + 1) != Some(&b'=') {
                    return Err(Error::Lex { offset: start, message: "expected `!=`".into() });
                }
                i += 1;
                TokenKind::NotEq
            }
            b'<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    i += 1;
                    TokenKind::LtEq
                }
                Some(&b'>') => {
                    i += 1;
                    TokenKind::NotEq
                }
                _ => TokenKind::Lt,
            },
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 1;
                    TokenKind::GtEq
                } else {
                    TokenKind::Gt
                }
            }
            b'\'' => {
                // The quote byte never occurs inside a multi-byte UTF-8
                // sequence, so the literal's span falls on char boundaries
                // and its text is sliced out of the input as UTF-8.
                let mut escaped = false;
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(Error::Lex {
                                offset: start,
                                message: "unterminated string literal".into(),
                            })
                        }
                        Some(&b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            escaped = true;
                            i += 2;
                        }
                        Some(&b'\'') => break,
                        Some(_) => i += 1,
                    }
                }
                TokenKind::String { escaped }
            }
            b'0'..=b'9' => {
                let mut end = i;
                let mut seen_dot = false;
                while end < bytes.len() {
                    match bytes[end] {
                        b'0'..=b'9' => end += 1,
                        b'.' if !seen_dot
                            && bytes.get(end + 1).is_some_and(|b| b.is_ascii_digit()) =>
                        {
                            seen_dot = true;
                            end += 1;
                        }
                        _ => break,
                    }
                }
                let text = &input[i..end];
                let value: f64 = text.parse().map_err(|_| Error::Lex {
                    offset: start,
                    message: format!("bad numeric literal `{text}`"),
                })?;
                i = end - 1;
                TokenKind::Number(value)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut end = i + 1;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                i = end - 1;
                match Keyword::parse(&input[start..end]) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident,
                }
            }
            _ => {
                // Tokens start on char boundaries (everything consumed so
                // far ended on an ASCII byte), so the offender decodes.
                let other = input[start..].chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(Error::Lex {
                    offset: start,
                    message: format!("unexpected character `{other}`"),
                });
            }
        };
        i += 1;
        tokens.push(Token { kind, offset: start, end: i });
    }
    tokens.push(Token { kind: TokenKind::Eof, offset: input.len(), end: input.len() });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        lex(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    fn texts(sql: &str) -> Vec<&str> {
        lex(sql).unwrap().into_iter().map(|t| t.text(sql)).collect()
    }

    const STR: TokenKind = TokenKind::String { escaped: false };

    #[test]
    fn lexes_simple_select() {
        use TokenKind::*;
        assert_eq!(
            kinds("SELECT a FROM t;"),
            vec![
                Keyword(crate::token::Keyword::Select),
                Ident,
                Keyword(crate::token::Keyword::From),
                Ident,
                Semicolon,
                Eof
            ]
        );
        assert_eq!(texts("SELECT a FROM t;"), vec!["SELECT", "a", "FROM", "t", ";", ""]);
    }

    #[test]
    fn lexes_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("a <= 1 <> 2 != 3 >= 4 < 5 > 6 = 7"),
            vec![
                Ident,
                LtEq,
                Number(1.0),
                NotEq,
                Number(2.0),
                NotEq,
                Number(3.0),
                GtEq,
                Number(4.0),
                Lt,
                Number(5.0),
                Gt,
                Number(6.0),
                Eq,
                Number(7.0),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let sql = "'it''s' 'plain'";
        let tokens = lex(sql).unwrap();
        assert_eq!(tokens[0].kind, TokenKind::String { escaped: true });
        assert_eq!(tokens[0].string_value(sql), "it's");
        assert_eq!(tokens[1].kind, STR);
        assert_eq!(tokens[1].string_value(sql), "plain");
        assert_eq!(tokens[1].text(sql), "'plain'");
    }

    #[test]
    fn string_literals_are_sliced_as_utf8() {
        // Pushing the bytes as chars turned `é` into `Ã©`.
        let sql = "b = 'café' AND c = '日本''語'";
        let tokens = lex(sql).unwrap();
        let strings: Vec<_> = tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::String { .. }))
            .map(|t| t.string_value(sql))
            .collect();
        assert_eq!(strings, vec!["café", "日本'語"]);
        match lex("a = é").unwrap_err() {
            Error::Lex { offset: 4, message } => assert!(message.contains('é'), "{message}"),
            other => panic!("expected lex error, got {other}"),
        }
    }

    #[test]
    fn lexes_decimal_numbers_and_dots() {
        use TokenKind::*;
        // `t.c` must lex as Ident Dot Ident, while `1.5` is one number.
        assert_eq!(kinds("t.c 1.5"), vec![Ident, Dot, Ident, Number(1.5), Eof]);
        assert_eq!(kinds("1.x"), vec![Number(1.0), Dot, Ident, Eof]);
    }

    #[test]
    fn skips_line_comments_and_whitespace() {
        assert_eq!(kinds("-- a comment\n  42"), vec![TokenKind::Number(42.0), TokenKind::Eof]);
    }

    #[test]
    fn keywords_detected_in_any_case_identifiers_keep_their_span() {
        use TokenKind::*;
        let sql = "Lineitem WHERE";
        assert_eq!(kinds(sql), vec![Ident, Keyword(crate::token::Keyword::Where), Eof]);
        assert_eq!(lex(sql).unwrap()[0].text(sql), "Lineitem");
    }

    #[test]
    fn errors_carry_offsets() {
        let err = lex("a @ b").unwrap_err();
        match err {
            Error::Lex { offset, .. } => assert_eq!(offset, 2),
            other => panic!("expected lex error, got {other}"),
        }
        assert!(lex("'abc").is_err());
        assert!(lex("a ! b").is_err());
    }

    #[test]
    fn minus_after_comment_dash_handled() {
        // A single `-` is a minus, `--` starts a comment.
        assert_eq!(
            kinds("1 - 2"),
            vec![TokenKind::Number(1.0), TokenKind::Minus, TokenKind::Number(2.0), TokenKind::Eof]
        );
    }

    #[test]
    fn lex_into_reuses_the_buffer() {
        let mut tokens = Vec::new();
        lex_into("SELECT a, b FROM t", &mut tokens).unwrap();
        let capacity = tokens.capacity();
        lex_into("SELECT a", &mut tokens).unwrap();
        assert_eq!(tokens.len(), 3, "cleared before refilling");
        assert_eq!(tokens.capacity(), capacity);
    }
}
