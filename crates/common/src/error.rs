//! Workspace error type.
//!
//! A single lightweight error enum shared by all crates. The variants mirror
//! the pipeline stages: lexing/parsing SQL, binding names against the catalog,
//! and configuration errors in the compressors/advisors.

use std::fmt;

/// Result alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced anywhere in the ISUM pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The SQL lexer met a character sequence it cannot tokenize.
    Lex {
        /// Byte offset in the input text.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// The SQL parser met an unexpected token.
    Parse {
        /// Byte offset of the offending token.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// Name resolution against the catalog failed (unknown table/column,
    /// ambiguous reference, ...).
    Bind(String),
    /// A catalog invariant was violated (duplicate table, bad statistics, ...).
    Catalog(String),
    /// An algorithm was configured inconsistently (e.g. `k` larger than the
    /// workload, empty workload, non-positive budget).
    InvalidConfig(String),
    /// IO error wrapper used by loaders and the experiment harness.
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex { offset, message } => {
                write!(f, "lex error at byte {offset}: {message}")
            }
            Error::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            Error::Bind(m) => write!(f, "bind error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            Error::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_message() {
        let e = Error::Parse { offset: 10, message: "expected FROM".into() };
        assert_eq!(e.to_string(), "parse error at byte 10: expected FROM");
        assert!(Error::Bind("no such column x".into()).to_string().contains("bind"));
        assert!(Error::InvalidConfig("k=0".into()).to_string().contains("invalid"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(e.to_string().contains("gone"));
    }
}
