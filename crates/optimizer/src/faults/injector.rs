//! The deterministic fault injector.
//!
//! Injection decisions are pure functions of `(seed, kind, site key,
//! attempt)`: the tuple is hashed through a SplitMix64-style finalizer and
//! the top 53 bits are compared against the configured rate as a uniform
//! draw in `[0, 1)`. Because no state is consulted, two threads asking
//! about the same site get the same answer, and re-running a workload
//! replays exactly the same faults — the property the determinism tests
//! pin.

use super::spec::FaultSpec;
use isum_common::rng::split_mix64;
use isum_common::{count, Result};
use std::time::Duration;

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FaultKind {
    /// Retryable what-if costing failure.
    WhatIfTransient,
    /// Non-retryable what-if costing failure.
    WhatIfPermanent,
    /// What-if latency spike of `latency_ms` milliseconds.
    Latency,
}

impl FaultKind {
    /// Per-kind salt so the same site key draws independently per kind.
    fn salt(self) -> u64 {
        match self {
            FaultKind::WhatIfTransient => 0x7472_616e_7369_656e,
            FaultKind::WhatIfPermanent => 0x7065_726d_616e_656e,
            FaultKind::Latency => 0x6c61_7465_6e63_7921,
        }
    }
}

/// Outcome of a what-if costing injection roll ([`FaultInjector::whatif_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WhatIfFault {
    /// The call fails; retrying cannot help.
    Permanent,
    /// The call fails; a retry draws a fresh decision.
    Transient,
    /// The call succeeds after the given delay (may trip a timeout).
    Latency(Duration),
}

/// Deterministic fault injector; see the module docs for the decision
/// function. Cheap to share (`Arc`) and lock-free to query.
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    active: bool,
}

impl FaultInjector {
    /// An injector that never fires. [`FaultInjector::is_active`] is
    /// `false`, letting hot paths skip injection checks entirely.
    pub(super) fn disabled() -> Self {
        Self::new(FaultSpec::none())
    }

    fn new(spec: FaultSpec) -> Self {
        Self { active: spec.is_active(), spec }
    }

    /// Parses the textual grammar (module docs) and builds an injector.
    pub fn from_spec(text: &str) -> Result<Self> {
        Ok(Self::new(FaultSpec::parse(text)?))
    }

    /// True when at least one fault kind can fire. Callers use this to
    /// keep the zero-fault hot path identical to a build without
    /// injection.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::WhatIfTransient => self.spec.whatif_transient,
            FaultKind::WhatIfPermanent => self.spec.whatif_permanent,
            FaultKind::Latency => self.spec.latency,
        }
    }

    /// Rolls the decision for `kind` at site `key`, attempt `attempt`.
    /// Deterministic: the same `(spec, kind, key, attempt)` always returns
    /// the same answer. Fired faults count `faults.injected` and
    /// `faults.injected.<kind>`.
    fn fires(&self, kind: FaultKind, key: u64, attempt: u32) -> bool {
        let rate = self.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        let fired = uniform(decision_hash(self.spec.seed, kind.salt(), key, attempt)) < rate;
        if fired {
            count!("faults.injected");
            match kind {
                FaultKind::WhatIfTransient => count!("faults.injected.whatif_transient"),
                FaultKind::WhatIfPermanent => count!("faults.injected.whatif_permanent"),
                FaultKind::Latency => count!("faults.injected.latency"),
            }
        }
        fired
    }

    /// Rolls the what-if kinds for one costing attempt, with severity
    /// precedence permanent > transient > latency (a call cannot both
    /// fail and merely be slow).
    pub(crate) fn whatif_fault(&self, key: u64, attempt: u32) -> Option<WhatIfFault> {
        if !self.active {
            return None;
        }
        if self.fires(FaultKind::WhatIfPermanent, key, attempt) {
            return Some(WhatIfFault::Permanent);
        }
        if self.fires(FaultKind::WhatIfTransient, key, attempt) {
            return Some(WhatIfFault::Transient);
        }
        if self.fires(FaultKind::Latency, key, attempt) {
            return Some(WhatIfFault::Latency(Duration::from_millis(self.spec.latency_ms)));
        }
        None
    }
}

/// Three chained SplitMix64 steps: a full-avalanche hash of the decision.
fn decision_hash(seed: u64, salt: u64, key: u64, attempt: u32) -> u64 {
    let h = split_mix64(&mut (seed ^ salt));
    let h = split_mix64(&mut (h ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    split_mix64(&mut (h ^ u64::from(attempt)))
}

/// Top 53 bits of the hash as a uniform draw in `[0, 1)`.
fn uniform(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultInjector::from_spec("whatif_transient:0.5,seed:9").unwrap();
        let b = FaultInjector::from_spec("whatif_transient:0.5,seed:9").unwrap();
        for key in 0..256u64 {
            for attempt in 0..4 {
                assert_eq!(
                    a.fires(FaultKind::WhatIfTransient, key, attempt),
                    b.fires(FaultKind::WhatIfTransient, key, attempt),
                );
            }
        }
    }

    #[test]
    fn rate_extremes_and_frequency() {
        let kind = FaultKind::WhatIfPermanent;
        let never = FaultInjector::disabled();
        let always = FaultInjector::from_spec("whatif_permanent:1.0").unwrap();
        let half = FaultInjector::from_spec("whatif_permanent:0.5,seed:1").unwrap();
        let mut fired = 0;
        for key in 0..10_000u64 {
            assert!(!never.fires(kind, key, 0));
            assert!(always.fires(kind, key, 0));
            if half.fires(kind, key, 0) {
                fired += 1;
            }
        }
        assert!((4_500..=5_500).contains(&fired), "rate 0.5 fired {fired}/10000");
    }

    #[test]
    fn kinds_and_attempts_draw_independently() {
        let inj =
            FaultInjector::from_spec("whatif_transient:0.5,whatif_permanent:0.5,seed:4").unwrap();
        let mut kind_diverged = false;
        let mut attempt_diverged = false;
        for key in 0..256u64 {
            if inj.fires(FaultKind::WhatIfTransient, key, 0)
                != inj.fires(FaultKind::WhatIfPermanent, key, 0)
            {
                kind_diverged = true;
            }
            if inj.fires(FaultKind::WhatIfTransient, key, 0)
                != inj.fires(FaultKind::WhatIfTransient, key, 1)
            {
                attempt_diverged = true;
            }
        }
        assert!(kind_diverged, "kinds share a decision stream");
        assert!(attempt_diverged, "attempts share a decision stream");
    }

    #[test]
    fn whatif_precedence_and_latency_duration() {
        let inj = FaultInjector::from_spec(
            "whatif_permanent:1.0,whatif_transient:1.0,latency:1.0,latency_ms:7",
        )
        .unwrap();
        assert_eq!(inj.whatif_fault(3, 0), Some(WhatIfFault::Permanent));
        let inj = FaultInjector::from_spec("latency:1.0,latency_ms:7").unwrap();
        assert_eq!(inj.whatif_fault(3, 0), Some(WhatIfFault::Latency(Duration::from_millis(7))));
        assert_eq!(FaultInjector::disabled().whatif_fault(3, 0), None);
    }
}
