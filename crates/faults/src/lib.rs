//! `isum_faults` — seeded, deterministic fault injection for the ISUM
//! reproduction.
//!
//! Real index-tuning deployments must survive a flaky what-if optimizer,
//! unparseable queries in production logs, and workers that die mid-run.
//! This crate simulates those failures on demand so the rest of the stack
//! can prove its degradation paths work (see DESIGN.md §9):
//!
//! * **what-if transient errors** — retried with capped backoff by
//!   [`WhatIfOptimizer`](../isum_optimizer/struct.WhatIfOptimizer.html);
//! * **what-if permanent errors** — immediate heuristic-cost fallback;
//! * **latency spikes** — exercise per-call timeouts;
//! * **parse failures** — queries dropped at workload ingestion;
//! * **worker panics** — quarantined per item by `isum_exec::try_par_map`.
//!
//! The serving daemon has no fault site of its own: its contracts (acked
//! ⇒ durable, replay ⇒ byte-identical) are tested against real failures —
//! a disk error during a segment rotation, a torn tail left by a SIGKILL,
//! an EIO partway through an append — not against injected ones. What-if
//! faults still reach it through the optimizer it costs with.
//!
//! # Determinism
//!
//! Every injection decision is a **pure function** of the configured seed,
//! the fault kind, a caller-supplied site key, and the attempt number —
//! hashed through a SplitMix64-style finalizer. No global counters, no
//! wall clock: the same spec and seed fire the same faults at the same
//! sites regardless of thread count or scheduling, which is what keeps
//! the PR-2 determinism contract (bit-identical results at any thread
//! count) intact under injection.
//!
//! # Configuration
//!
//! The process-wide injector is configured from the `ISUM_FAULTS`
//! environment variable (see [`init_from_env`]) or the CLI `--faults`
//! flag ([`set_global_spec`]). The spec grammar is comma-separated
//! `key:value` pairs:
//!
//! ```text
//! seed:<u64>,whatif_transient:<rate>,whatif_permanent:<rate>,
//! latency:<rate>,latency_ms:<u64>,parse:<rate>,panic:<rate>
//! ```
//!
//! Rates are probabilities in `[0, 1]`; unset kinds default to 0 (never
//! fire). Example: `ISUM_FAULTS=whatif_transient:0.05,parse:0.01,seed:7`.
//! Any other key is refused as an unknown fault kind.
//!
//! # Telemetry
//!
//! When [`isum_common::telemetry`] is enabled, each fired fault counts
//! `faults.injected` plus a per-kind counter
//! (`faults.injected.whatif_transient`, …). Quarantined items are counted
//! by `isum_exec::try_par_map` as `faults.quarantined`.

mod injector;
mod spec;

pub use injector::{FaultInjector, FaultKind, WhatIfFault};
pub use spec::FaultSpec;

use isum_common::Result;
use std::sync::{Arc, Mutex, OnceLock};

static GLOBAL: OnceLock<Mutex<Arc<FaultInjector>>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Arc<FaultInjector>> {
    GLOBAL.get_or_init(|| Mutex::new(Arc::new(FaultInjector::disabled())))
}

/// The process-wide injector. Disabled (all rates zero) until configured
/// via [`init_from_env`] or [`set_global_spec`].
pub fn global() -> Arc<FaultInjector> {
    global_slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Replaces the process-wide injector.
pub fn set_global(injector: FaultInjector) {
    let mut slot = global_slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    *slot = Arc::new(injector);
}

/// Parses `spec` (the grammar in the module docs) and installs it as the
/// process-wide injector. An empty spec disables injection.
pub fn set_global_spec(spec: &str) -> Result<()> {
    set_global(FaultInjector::from_spec(spec)?);
    Ok(())
}

/// Configures the process-wide injector from the `ISUM_FAULTS`
/// environment variable. Unset or empty leaves injection disabled;
/// a malformed spec is reported as an error so binaries can refuse to
/// start with a half-applied fault plan.
pub fn init_from_env() -> Result<()> {
    match std::env::var("ISUM_FAULTS") {
        Ok(v) if !v.trim().is_empty() => set_global_spec(&v),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_defaults_to_disabled_and_is_replaceable() {
        // Fresh processes inject nothing: no other test in this binary
        // installs an injector.
        assert!(!global().is_active());
        set_global_spec("whatif_transient:1.0,seed:3").unwrap();
        assert!(global().is_active());
        assert!(global().fires(FaultKind::WhatIfTransient, 1, 0));
        assert!(!global().fires(FaultKind::Parse, 1, 0));
        // A rejected spec leaves the installed injector in place, never a
        // half-applied plan.
        for bad in ["whatif_transient:2.0", "parse:0.5,nonsense:0.5", "parse"] {
            assert!(set_global_spec(bad).is_err(), "{bad}");
            assert!(global().fires(FaultKind::WhatIfTransient, 1, 0), "{bad}");
            assert!(!global().fires(FaultKind::Parse, 1, 0), "{bad}");
        }
        set_global_spec("").unwrap();
        assert!(!global().is_active());
    }

    #[test]
    fn malformed_spec_is_rejected() {
        assert!(set_global_spec("whatif_transient:2.0").is_err());
        assert!(set_global_spec("nonsense:0.5").is_err());
        assert!(set_global_spec("parse").is_err());
    }
}
