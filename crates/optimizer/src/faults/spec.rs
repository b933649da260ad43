//! The fault-spec grammar: comma-separated `key:value` pairs.

use isum_common::{Error, Result};

/// Parsed fault specification. All rates are probabilities in `[0, 1]`;
/// a rate of 0 means the kind never fires. See the module docs for the
/// textual grammar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct FaultSpec {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Rate of retryable what-if costing failures.
    pub whatif_transient: f64,
    /// Rate of non-retryable what-if costing failures.
    pub whatif_permanent: f64,
    /// Rate of injected what-if latency spikes.
    pub latency: f64,
    /// Duration of an injected latency spike, in milliseconds.
    pub latency_ms: u64,
}

impl FaultSpec {
    /// The all-zero spec: no fault ever fires.
    pub fn none() -> Self {
        Self { seed: 0, whatif_transient: 0.0, whatif_permanent: 0.0, latency: 0.0, latency_ms: 10 }
    }

    /// True when at least one fault kind has a positive rate.
    pub fn is_active(&self) -> bool {
        self.whatif_transient > 0.0 || self.whatif_permanent > 0.0 || self.latency > 0.0
    }

    /// Parses the textual grammar (module docs). Empty or whitespace-only
    /// input yields [`FaultSpec::none`]. Unknown keys, missing `:`, rates
    /// outside `[0, 1]`, and unparseable numbers are
    /// [`Error::InvalidConfig`].
    pub fn parse(text: &str) -> Result<Self> {
        let mut spec = FaultSpec::none();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once(':').ok_or_else(|| {
                Error::InvalidConfig(format!("fault spec entry `{part}` is missing `:value`"))
            })?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "seed" => spec.seed = parse_u64(key, value)?,
                "latency_ms" => spec.latency_ms = parse_u64(key, value)?,
                "whatif_transient" => spec.whatif_transient = parse_rate(key, value)?,
                "whatif_permanent" => spec.whatif_permanent = parse_rate(key, value)?,
                "latency" => spec.latency = parse_rate(key, value)?,
                _ => {
                    return Err(Error::InvalidConfig(format!(
                        "unknown fault kind `{key}` (expected seed, latency_ms, \
                         whatif_transient, whatif_permanent, or latency)"
                    )))
                }
            }
        }
        Ok(spec)
    }
}

fn parse_u64(key: &str, value: &str) -> Result<u64> {
    value
        .parse::<u64>()
        .map_err(|_| Error::InvalidConfig(format!("fault spec `{key}:{value}`: expected a u64")))
}

fn parse_rate(key: &str, value: &str) -> Result<f64> {
    let rate = value.parse::<f64>().map_err(|_| {
        Error::InvalidConfig(format!("fault spec `{key}:{value}`: expected a rate in [0, 1]"))
    })?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(Error::InvalidConfig(format!(
            "fault spec `{key}:{value}`: rate must be in [0, 1]"
        )));
    }
    Ok(rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_inactive() {
        let s = FaultSpec::parse("").unwrap();
        assert_eq!(s, FaultSpec::none());
        assert!(!s.is_active());
        assert!(!FaultSpec::parse("  ,, ").unwrap().is_active());
    }

    #[test]
    fn full_spec_round_trips() {
        let s = FaultSpec::parse(
            "seed:42, whatif_transient:0.05, whatif_permanent:0.01, \
             latency:0.1, latency_ms:25",
        )
        .unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.whatif_transient, 0.05);
        assert_eq!(s.whatif_permanent, 0.01);
        assert_eq!(s.latency, 0.1);
        assert_eq!(s.latency_ms, 25);
        assert!(s.is_active());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for bad in [
            "latency",
            "latency:1.5",
            "latency:-0.1",
            "latency:abc",
            "seed:-1",
            "bogus:0.5",
            "seed:",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "spec `{bad}` should be rejected");
        }
    }

    #[test]
    fn the_retired_daemon_kinds_are_unknown() {
        // The serving daemon and workload ingestion have no fault site.
        for retired in
            ["ingest:0.1", "wal_torn:0.1", "parse:0.1", "panic:0.1", "latency:0.1,panic:0.0"]
        {
            let err = FaultSpec::parse(retired).expect_err(retired).to_string();
            assert!(err.contains("unknown fault kind"), "{retired}: {err}");
        }
    }
}
