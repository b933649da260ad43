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
    pub fn parse(s: &str) -> Option<Keyword> {
        use Keyword::*;
        // The longest keyword has 8 letters; upper-case on the stack.
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
