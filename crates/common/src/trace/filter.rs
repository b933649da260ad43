//! `ISUM_LOG` env-filter parsing and target matching.
//!
//! The grammar mirrors `env_logger`/`tracing_subscriber`:
//!
//! ```text
//! ISUM_LOG = directive (',' directive)*
//! directive = level                 -- new default for every target
//!           | target '=' level      -- override for one target subtree
//! level = "off" | "error" | "warn" | "info" | "debug" | "trace"
//! ```
//!
//! `trace` is accepted as an alias for `debug` (the finest level this
//! subsystem has). Targets are dot-separated component paths; a
//! directive's target matches an event target when it is equal to it or a
//! `.`-boundary prefix of it (`server` matches `server.ingest` but not
//! `serverless`). When several directives match, the most specific
//! (longest) target wins. Malformed directives are ignored individually —
//! a typo in one directive never silences the rest — and an unparseable
//! default falls back to [`Filter::DEFAULT_LEVEL`].

use super::Level;

/// Default sink level when `ISUM_LOG` is unset or unparseable: warnings
/// and errors reach stderr out of the box, matching the diagnostic
/// surface the pre-trace `eprintln!` sites had.
const DEFAULT_LEVEL: Option<Level> = Some(Level::Warn);

/// A parsed `ISUM_LOG` filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    /// Level for targets no directive matches (`None` = off).
    default: Option<Level>,
    /// `(target, level)` overrides; `None` silences the subtree.
    directives: Vec<(String, Option<Level>)>,
}

impl Default for Filter {
    fn default() -> Self {
        Filter { default: DEFAULT_LEVEL, directives: Vec::new() }
    }
}

/// Parses one level token of the `ISUM_LOG` grammar. The outer `None`
/// means the token is not a level at all; the inner `None` is an
/// explicit `off`. Public so wire endpoints (`/events?level=`) accept
/// exactly the vocabulary the env filter does.
pub fn parse_level(s: &str) -> Option<Option<Level>> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" => Some(None),
        "error" => Some(Some(Level::Error)),
        "warn" | "warning" => Some(Some(Level::Warn)),
        "info" => Some(Some(Level::Info)),
        "debug" | "trace" => Some(Some(Level::Debug)),
        _ => None,
    }
}

/// True when `prefix` selects `target`: equal to it, or a `.`-boundary
/// prefix of it (`server` matches `server.ingest`, not `serverless`).
/// Public so wire endpoints (`/events?target=`) match exactly as the env
/// filter does.
pub fn target_matches(prefix: &str, target: &str) -> bool {
    target.strip_prefix(prefix).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

impl Filter {
    /// The default level used when `ISUM_LOG` is unset or its default
    /// directive is malformed.
    pub const DEFAULT_LEVEL: Option<Level> = DEFAULT_LEVEL;

    /// Parses an `ISUM_LOG` spec. Returns the filter plus every directive
    /// that was ignored as malformed (callers may report them; parsing
    /// itself never fails).
    pub fn parse(spec: &str) -> (Filter, Vec<String>) {
        let mut filter = Filter::default();
        let mut bad = Vec::new();
        for directive in spec.split(',') {
            let directive = directive.trim();
            if directive.is_empty() {
                continue;
            }
            match directive.split_once('=') {
                None => match parse_level(directive) {
                    Some(level) => filter.default = level,
                    None => bad.push(directive.to_string()),
                },
                Some((target, level)) => {
                    let target = target.trim();
                    match (target.is_empty(), parse_level(level)) {
                        (false, Some(level)) => {
                            filter.directives.push((target.to_string(), level));
                        }
                        _ => bad.push(directive.to_string()),
                    }
                }
            }
        }
        // Longest target first, so the first match is the most specific.
        filter.directives.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
        (filter, bad)
    }

    /// The level in force for `target`: the most specific matching
    /// directive, else the default.
    pub fn level_for(&self, target: &str) -> Option<Level> {
        self.directives
            .iter()
            .find(|(prefix, _)| target_matches(prefix, target))
            .map_or(self.default, |(_, level)| *level)
    }

    /// True when an event at `level` from `target` passes the filter.
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        self.level_for(target).is_some_and(|max| level <= max)
    }

    /// The most verbose level any target can reach — the cheap global
    /// gate the event macros check before building anything.
    pub fn max_level(&self) -> Option<Level> {
        self.directives.iter().map(|(_, l)| *l).chain(std::iter::once(self.default)).flatten().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_level_sets_the_default() {
        let (f, bad) = Filter::parse("debug");
        assert!(bad.is_empty());
        assert_eq!(f.level_for("anything"), Some(Level::Debug));
        assert!(f.enabled("core", Level::Debug));
    }

    #[test]
    fn per_target_directives_override_the_default() {
        let (f, bad) = Filter::parse("info,server=debug");
        assert!(bad.is_empty());
        assert!(f.enabled("server", Level::Debug));
        assert!(f.enabled("server.ingest", Level::Debug), "subtree inherits");
        assert!(!f.enabled("core", Level::Debug), "default stays info");
        assert!(f.enabled("core", Level::Info));
    }

    #[test]
    fn most_specific_target_wins() {
        let (f, bad) = Filter::parse("warn,server=error,server.ingest=debug");
        assert!(bad.is_empty());
        assert!(f.enabled("server.ingest", Level::Debug));
        assert!(f.enabled("server.ingest.batch", Level::Debug));
        assert!(!f.enabled("server", Level::Warn), "server subtree capped at error");
        assert!(f.enabled("server", Level::Error));
        assert!(f.enabled("optimizer", Level::Warn), "default still applies");
    }

    #[test]
    fn prefix_matching_respects_dot_boundaries() {
        let (f, _) = Filter::parse("off,server=debug");
        assert!(f.enabled("server.conn", Level::Debug));
        assert!(!f.enabled("serverless", Level::Error), "no substring matches");
        assert!(target_matches("server", "server"), "equal target");
        assert!(target_matches("server", "server.conn"), "child target");
        assert!(target_matches("server", "server.conn.read"), "grandchild target");
        assert!(!target_matches("server", "serverless"), "no substring matches");
        assert!(!target_matches("server.conn", "server"), "a child never selects its parent");
    }

    #[test]
    fn bad_directives_fall_back_to_default() {
        let (f, bad) = Filter::parse("verbose,server=shout,=debug,server=debug");
        assert_eq!(bad, vec!["verbose", "server=shout", "=debug"]);
        assert_eq!(f.level_for("core"), Filter::DEFAULT_LEVEL, "bad default is ignored");
        assert!(f.enabled("server", Level::Debug), "good directives still apply");
    }

    #[test]
    fn off_silences_and_trace_aliases_debug() {
        let (f, bad) = Filter::parse("off,sql=trace");
        assert!(bad.is_empty());
        assert!(!f.enabled("core", Level::Error));
        assert!(f.enabled("sql.parser", Level::Debug));
        assert_eq!(f.max_level(), Some(Level::Debug));
        let (all_off, _) = Filter::parse("off");
        assert_eq!(all_off.max_level(), None);
    }

    #[test]
    fn empty_spec_is_the_default_filter() {
        let (f, bad) = Filter::parse("");
        assert!(bad.is_empty());
        assert_eq!(f, Filter::default());
        assert!(f.enabled("x", Level::Warn));
        assert!(!f.enabled("x", Level::Info));
    }
}
