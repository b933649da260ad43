//! Token definitions for the SQL lexer.
//!
//! Tokens are plain spans into the source text: they own nothing, so a
//! token buffer can be reused from one statement to the next and the
//! parser builds each AST string exactly once, from the input.

use std::borrow::Cow;
use std::fmt;

/// SQL keywords recognized by the lexer. Anything not in this list lexes as
/// an identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants are the keywords themselves
pub enum Keyword {
    Select,
    From,
    Where,
    Group,
    Order,
    By,
    Having,
    Limit,
    As,
    And,
    Or,
    Not,
    In,
    Between,
    Like,
    Is,
    Null,
    Exists,
    Join,
    Inner,
    Left,
    Outer,
    On,
    Asc,
    Desc,
    Distinct,
    Date,
    Interval,
    Case,
    When,
    Then,
    Else,
    End,
}

impl Keyword {
    /// Parses a keyword from an identifier-like string (case-insensitive).
    ///
    /// Compares in place, without a copy: a word of two to eight bytes is
    /// folded into one `u64` (its bytes ORed with `0x20`) and matched
    /// against the keywords' words, folded at compile time. The match is
    /// one comparison tree over the 33 words, so any word is decided after
    /// a few integer comparisons; a longer or shorter one after none.
    pub fn parse(s: &str) -> Option<Keyword> {
        Keyword::parse_bytes(s.as_bytes())
    }

    /// [`parse`](Self::parse) over the word's bytes.
    pub(crate) fn parse_bytes(word: &[u8]) -> Option<Keyword> {
        match word.len() {
            2..=8 => Keyword::of_folded(fold(word)),
            _ => None,
        }
    }
}

/// Defines [`Keyword::of_folded`] from each keyword and its spelling.
macro_rules! keywords {
    ($($keyword:ident $word:literal,)*) => {
        impl Keyword {
            /// The keyword whose [`fold`]ed spelling is `folded`, if any.
            #[allow(non_upper_case_globals)] // one constant per variant
            #[inline(always)]
            fn of_folded(folded: u64) -> Option<Keyword> {
                $(const $keyword: u64 = fold($word.as_bytes());)*
                match folded {
                    $($keyword => Some(Keyword::$keyword),)*
                    _ => None,
                }
            }
        }
    };
}

keywords! {
    Select "SELECT",
    From "FROM",
    Where "WHERE",
    Group "GROUP",
    Order "ORDER",
    By "BY",
    Having "HAVING",
    Limit "LIMIT",
    As "AS",
    And "AND",
    Or "OR",
    Not "NOT",
    In "IN",
    Between "BETWEEN",
    Like "LIKE",
    Is "IS",
    Null "NULL",
    Exists "EXISTS",
    Join "JOIN",
    Inner "INNER",
    Left "LEFT",
    Outer "OUTER",
    On "ON",
    Asc "ASC",
    Desc "DESC",
    Distinct "DISTINCT",
    Date "DATE",
    Interval "INTERVAL",
    Case "CASE",
    When "WHEN",
    Then "THEN",
    Else "ELSE",
    End "END",
}

/// A word of two to eight bytes as one little-endian `u64`, zero-padded,
/// each byte ORed with `0x20`. The OR maps an ASCII letter to its lower
/// case and no other byte to a letter, and no folded byte is zero, so two
/// words fold equal exactly when they are the same letters up to ASCII
/// case (or the same other bytes up to that bit, which no keyword has).
const fn fold(word: &[u8]) -> u64 {
    let mut folded = 0u64;
    let mut i = 0;
    while i < word.len() {
        folded |= ((word[i] | 0x20) as u64) << (8 * i);
        i += 1;
    }
    folded
}

/// A lexed token: its kind plus the byte span `offset..end` it covers in
/// the source text (string literals include their quotes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// Token payload.
    pub kind: TokenKind,
    /// Byte offset of the token start in the source text.
    pub offset: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
}

impl Token {
    /// The source text of the token, as written.
    pub fn text<'a>(&self, input: &'a str) -> &'a str {
        &input[self.offset..self.end]
    }

    /// The value of a [`TokenKind::String`] token: quotes stripped and
    /// `''` unescaped. Borrows from the input unless an escape forces a
    /// copy.
    pub fn string_value<'a>(&self, input: &'a str) -> Cow<'a, str> {
        let inner = &input[self.offset + 1..self.end - 1];
        match self.kind {
            TokenKind::String { escaped: true } => Cow::Owned(inner.replace("''", "'")),
            _ => Cow::Borrowed(inner),
        }
    }

    /// The token as parse errors name it, e.g. ``identifier `abc` ``.
    pub fn describe<'a>(&'a self, input: &'a str) -> impl fmt::Display + 'a {
        Described { token: self, input }
    }
}

/// Token payloads. Identifiers and strings carry no text of their own;
/// [`Token::text`] / [`Token::string_value`] slice it out of the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    /// A recognized keyword.
    Keyword(Keyword),
    /// An identifier (table, column, alias, or function name).
    Ident,
    /// A numeric literal.
    Number(f64),
    /// A single-quoted string literal; `escaped` when it contains `''`.
    String {
        /// True when the literal contains a `''` escape.
        escaped: bool,
    },
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// End of input sentinel.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k:?}"),
            TokenKind::Ident => write!(f, "identifier"),
            TokenKind::Number(n) => write!(f, "number {n}"),
            TokenKind::String { .. } => write!(f, "string"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::NotEq => write!(f, "<>"),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::LtEq => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::GtEq => write!(f, ">="),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

struct Described<'a> {
    token: &'a Token,
    input: &'a str,
}

impl fmt::Display for Described<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.token.kind {
            TokenKind::Ident => {
                write!(f, "identifier `{}`", self.token.text(self.input).to_ascii_lowercase())
            }
            TokenKind::String { .. } => {
                write!(f, "string '{}'", self.token.string_value(self.input))
            }
            kind => kind.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_parse_case_insensitively() {
        assert_eq!(Keyword::parse("select"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("frobnicate"), None);
        assert_eq!(Keyword::parse("intervals"), None, "longer than any keyword");
        assert_eq!(Keyword::parse(""), None);
    }

    #[test]
    fn tokens_describe_themselves_from_the_input() {
        let input = "Abc 'it''s' <=";
        let ident = Token { kind: TokenKind::Ident, offset: 0, end: 3 };
        let string = Token { kind: TokenKind::String { escaped: true }, offset: 4, end: 11 };
        let op = Token { kind: TokenKind::LtEq, offset: 12, end: 14 };
        assert_eq!(ident.describe(input).to_string(), "identifier `abc`");
        assert_eq!(string.describe(input).to_string(), "string 'it's'");
        assert_eq!(string.string_value(input), "it's");
        assert_eq!(op.describe(input).to_string(), "<=");
        assert_eq!(op.text(input), "<=");
        assert_eq!(TokenKind::Eof.to_string(), "end of input");
    }
}
