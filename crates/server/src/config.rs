//! Daemon configuration: [`ServerConfig`], and the one table that maps
//! environment variables and `isum serve` flags onto it.

use std::path::PathBuf;
use std::time::Duration;

use isum_catalog::Catalog;
use isum_core::IsumConfig;

use crate::drift::DriftAction;

/// Configuration for a [`crate::Server`].
pub struct ServerConfig {
    /// Catalog the ingested statements bind against.
    pub catalog: Catalog,
    /// Compression configuration for the incremental observers.
    pub isum: IsumConfig,
    /// Checkpoint stem: nothing is written at this path; every shard's log
    /// segments sit next to it under names derived from it (see
    /// `crate::shards` for the layout).
    pub checkpoint: Option<PathBuf>,
    /// Per-queue ingest capacity (≥ 1); a full queue answers 429 with
    /// `Retry-After`.
    pub queue_cap: usize,
    /// Test knob: sleep this long while applying each batch, to make
    /// backpressure and drain windows deterministic in tests.
    pub apply_delay: Duration,
    /// Drift window capacity in observations; `0` disables drift
    /// tracking entirely (no window, no score, no alerts).
    pub drift_window: usize,
    /// Drift score in `[0, 1]` above which a shard's sequencer emits its
    /// (edge-triggered) `warn!` alert.
    pub drift_threshold: f64,
    /// What a threshold crossing does beyond the alert: warn only (the
    /// default — strictly observation-only) or adaptively re-summarize
    /// the shard over the recent window.
    pub drift_action: DriftAction,
    /// Cap (≥ 1) on concurrently live tenant shards; the cap answers 429.
    pub max_tenants: usize,
    /// Close a shard's active WAL segment and open the next once it
    /// reaches this many bytes (≥ 1).
    pub wal_segment_bytes: u64,
    /// Slow-request threshold in milliseconds: a request whose total
    /// stage time reaches it emits one `warn!` event on target
    /// `server.slow` carrying its `Server-Timing` timeline. `None` (the
    /// default) emits none; `0` reports every request.
    pub slow_ms: Option<u64>,
}

/// One operator-facing tunable: where its text comes from and how that
/// text becomes a checked value.
struct Knob {
    env: Option<&'static str>,
    flag: Option<&'static str>,
    /// What a well-formed value looks like, for the complaint.
    want: &'static str,
    /// Parses, validates, and assigns; `false` leaves the config as it was.
    set: fn(&mut ServerConfig, &str) -> bool,
}

/// Every tunable `isum serve` reads, in documentation order.
const KNOBS: [Knob; 6] = [
    Knob {
        env: None,
        flag: Some("--queue-cap"),
        want: "an integer >= 1",
        set: |c, v| assign(&mut c.queue_cap, v.parse().ok().and_then(at_least_one)),
    },
    Knob {
        env: Some("ISUM_DRIFT_WINDOW"),
        flag: None,
        want: "an integer (0 disables)",
        set: |c, v| assign(&mut c.drift_window, v.parse().ok()),
    },
    Knob {
        env: Some("ISUM_DRIFT_THRESHOLD"),
        flag: None,
        want: "0..=1",
        set: |c, v| assign(&mut c.drift_threshold, v.parse().ok().and_then(unit_interval)),
    },
    Knob {
        env: Some("ISUM_DRIFT_ACTION"),
        flag: None,
        want: "warn | resummarize",
        set: |c, v| {
            let known = [DriftAction::Warn, DriftAction::Resummarize];
            assign(&mut c.drift_action, known.into_iter().find(|a| a.as_str() == v))
        },
    },
    Knob {
        env: Some("ISUM_WAL_SEGMENT_BYTES"),
        flag: Some("--wal-segment-bytes"),
        want: "an integer >= 1",
        set: |c, v| assign(&mut c.wal_segment_bytes, v.parse().ok().and_then(at_least_one)),
    },
    Knob {
        env: Some("ISUM_SLOW_MS"),
        flag: None,
        want: "milliseconds (0 reports every request)",
        set: |c, v| assign(&mut c.slow_ms, v.parse().ok().map(Some)),
    },
];

fn assign<T>(slot: &mut T, value: Option<T>) -> bool {
    value.map(|v| *slot = v).is_some()
}

fn at_least_one<T: PartialOrd + From<u8>>(n: T) -> Option<T> {
    (n >= T::from(1)).then_some(n)
}

fn unit_interval(t: f64) -> Option<f64> {
    (0.0..=1.0).contains(&t).then_some(t)
}

impl ServerConfig {
    /// Defaults: queue of 64 batches, no checkpoint,
    /// drift window of 256 observations with an alert threshold of 0.5,
    /// one shard per tenant capped at 64 tenants, 1 MiB WAL segments.
    pub fn new(catalog: Catalog) -> ServerConfig {
        ServerConfig {
            catalog,
            isum: IsumConfig::isum(),
            checkpoint: None,
            queue_cap: 64,
            apply_delay: Duration::ZERO,
            drift_window: 256,
            drift_threshold: 0.5,
            drift_action: DriftAction::Warn,
            max_tenants: 64,
            wal_segment_bytes: 1 << 20,
            slow_ms: None,
        }
    }

    /// The tunables [`ServerConfig::apply_env`] reads, as `(environment
    /// variable if any, serve flag if any, accepted values)` — what `isum
    /// --help` prints and the docs are checked against.
    pub fn tunables(
    ) -> impl Iterator<Item = (Option<&'static str>, Option<&'static str>, &'static str)> {
        KNOBS.iter().map(|k| (k.env, k.flag, k.want))
    }

    /// Applies the environment (through `lookup`; the daemon passes
    /// `std::env::var`), then `flags` as `(flag, value)` pairs — so a
    /// flag beats its variable. A malformed variable is reported as a
    /// `warn!` event and ignored, never fatal; a malformed or unknown
    /// flag is an error. Called by the daemon entry point rather than
    /// [`ServerConfig::new`], so tests stay independent of the ambient
    /// environment.
    pub fn apply_env(
        mut self,
        lookup: impl Fn(&str) -> Option<String>,
        flags: &[(String, String)],
    ) -> Result<ServerConfig, String> {
        for (knob, env) in KNOBS.iter().filter_map(|k| Some((k, k.env?))) {
            if let Some(v) = lookup(env) {
                let set = |v: &str| (knob.set)(&mut self, v).then_some(());
                isum_common::trace::parse_env("server.config", env, &v, knob.want, set);
            }
        }
        for (flag, v) in flags {
            match KNOBS.iter().find(|k| k.flag == Some(flag.as_str())) {
                Some(knob) if (knob.set)(&mut self, v) => {}
                Some(knob) => return Err(format!("{flag} must be {}", knob.want)),
                None => return Err(format!("{flag} is not a serve flag")),
            }
        }
        Ok(self)
    }

    /// The range checks behind [`crate::Server::bind`], for fields set
    /// directly rather than through [`ServerConfig::apply_env`].
    pub(crate) fn validate(&self) -> Result<(), String> {
        let counts = [
            ("queue_cap", self.queue_cap as u64),
            ("max_tenants", self.max_tenants as u64),
            ("wal_segment_bytes", self.wal_segment_bytes),
        ];
        if let Some((name, _)) = counts.iter().find(|(_, n)| at_least_one(*n).is_none()) {
            return Err(format!("{name} must be at least 1"));
        }
        if unit_interval(self.drift_threshold).is_none() {
            return Err("drift_threshold must be within 0..=1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServerConfig {
        let catalog =
            isum_catalog::CatalogBuilder::new().table("t", 10).col_key("id").finish().unwrap();
        ServerConfig::new(catalog.build())
    }

    /// One row per knob: a projection of the field it owns, the default,
    /// a good value with what it parses to, and values that must be
    /// ignored (env) or refused (flag).
    #[test]
    fn every_knob_parses_validates_and_ranks_flag_over_env() {
        type Row = (
            Option<&'static str>,
            fn(&ServerConfig) -> String,
            &'static str,
            &'static str,
            &'static [&'static str],
        );
        let rows: [Row; 6] = [
            (None, |c| c.queue_cap.to_string(), "64", "16", &["0", "-3", "lots"]),
            (
                Some("ISUM_DRIFT_WINDOW"),
                |c| c.drift_window.to_string(),
                "256",
                "64",
                &["not-a-number"],
            ),
            (
                Some("ISUM_DRIFT_THRESHOLD"),
                |c| c.drift_threshold.to_string(),
                "0.5",
                "0.25",
                &["1.5"],
            ),
            (
                Some("ISUM_DRIFT_ACTION"),
                |c| c.drift_action.as_str().into(),
                "warn",
                "resummarize",
                &["RESUMMARIZE", "panic", ""],
            ),
            (
                Some("ISUM_WAL_SEGMENT_BYTES"),
                |c| c.wal_segment_bytes.to_string(),
                "1048576",
                "4096",
                &["0", "-3", "soon"],
            ),
            (
                Some("ISUM_SLOW_MS"),
                |c| c.slow_ms.map_or("off".into(), |ms| ms.to_string()),
                "off",
                "250",
                &["fast", "-1", "1.5"],
            ),
        ];
        assert_eq!(
            rows.map(|r| r.0).to_vec(),
            ServerConfig::tunables().map(|(env, _, _)| env).collect::<Vec<_>>(),
            "the test walks every row of the table"
        );
        for ((env, field, default, good, garbage), (_, flag, _)) in
            rows.into_iter().zip(ServerConfig::tunables())
        {
            let name = env.or(flag).unwrap_or_default();
            let only =
                |value: &'static str| move |k: &str| (Some(k) == env).then(|| value.to_string());
            let unset = config().apply_env(|_| None, &[]).unwrap();
            assert_eq!(field(&unset), default, "{name}: the default survives an unset variable");
            if env.is_some() {
                let tuned = config().apply_env(only(good), &[]).unwrap();
                assert_eq!(field(&tuned), good, "{name}: a good value applies");
                for bad in garbage {
                    let kept = config().apply_env(only(bad), &[]).unwrap();
                    assert_eq!(field(&kept), default, "{name}: `{bad}` is ignored, not applied");
                }
            }
            let Some(flag) = flag else { continue };
            let flags = |value: &str| [(flag.to_string(), value.to_string())];
            let flagged = config().apply_env(only(garbage[0]), &flags(good)).unwrap();
            assert_eq!(field(&flagged), good, "{flag} beats {name}");
            for bad in garbage {
                assert!(config().apply_env(|_| None, &flags(bad)).is_err(), "{flag} {bad}");
            }
        }
        // Zero is a value, not garbage, where it has a meaning.
        let zero = |k: &str| (k == "ISUM_SLOW_MS").then(|| "0".to_string());
        assert_eq!(
            config().apply_env(zero, &[]).unwrap().slow_ms,
            Some(0),
            "0 reports every request"
        );
        assert!(config().apply_env(|_| None, &[("--bogus".into(), "1".into())]).is_err());
    }

    #[test]
    fn bind_refuses_what_the_loader_would() {
        assert!(config().validate().is_ok());
        let cases: [fn(&mut ServerConfig); 4] = [
            |c| c.queue_cap = 0,
            |c| c.max_tenants = 0,
            |c| c.wal_segment_bytes = 0,
            |c| c.drift_threshold = 1.5,
        ];
        for (i, breakage) in cases.into_iter().enumerate() {
            let mut c = config();
            breakage(&mut c);
            assert!(c.validate().is_err(), "case {i}");
        }
    }
}
