//! Seeded, deterministic fault injection into what-if costing.
//!
//! What-if optimizer calls are most of an index tuner's time (Fig 2 of
//! the paper), so a flaky optimizer is the failure worth modelling. This
//! module simulates it on demand so the degradation pipeline of
//! [`WhatIfOptimizer`](crate::WhatIfOptimizer) can be proven to work
//! (DESIGN.md §9):
//!
//! * **what-if transient errors** — retried with capped backoff;
//! * **what-if permanent errors** — immediate heuristic-cost fallback;
//! * **latency spikes** — exercise per-call timeouts.
//!
//! Nothing else consults the injector. Unparseable statements are real
//! input, handled by lenient loading (`isum_workload::load_script_lenient`),
//! and the serving daemon's contracts (acked ⇒ durable, replay ⇒
//! byte-identical) are tested against real failures — a disk error during
//! a segment rotation, a torn tail left by a SIGKILL, an EIO partway
//! through an append. What-if faults still reach the daemon through the
//! optimizer it costs with.
//!
//! # Determinism
//!
//! Every injection decision is a **pure function** of the configured seed,
//! the fault kind, a site key derived from the costed query and
//! configuration, and the attempt number — hashed through a
//! SplitMix64-style finalizer. No global counters, no wall clock: the same
//! spec and seed fire the same faults at the same sites regardless of
//! thread count or scheduling, which keeps results bit-identical at any
//! thread count under injection.
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
//! latency:<rate>,latency_ms:<u64>
//! ```
//!
//! Rates are probabilities in `[0, 1]`; unset kinds default to 0 (never
//! fire). Example: `ISUM_FAULTS=whatif_transient:0.05,seed:7`. Any other
//! key is refused as an unknown fault kind.
//!
//! # Telemetry
//!
//! When [`isum_common::telemetry`] is enabled, each fired fault counts
//! `faults.injected` plus a per-kind counter
//! (`faults.injected.whatif_transient`, …).

mod injector;
mod spec;

pub use injector::FaultInjector;
pub(crate) use injector::WhatIfFault;

use isum_common::Result;
use std::sync::{Arc, Mutex, OnceLock};

static GLOBAL: OnceLock<Mutex<Arc<FaultInjector>>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Arc<FaultInjector>> {
    GLOBAL.get_or_init(|| Mutex::new(Arc::new(FaultInjector::disabled())))
}

/// The process-wide injector. Disabled (all rates zero) until configured
/// via [`init_from_env`] or [`set_global_spec`].
pub(crate) fn global() -> Arc<FaultInjector> {
    global_slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Parses `spec` (the grammar in the module docs) and installs it as the
/// process-wide injector. An empty spec disables injection; a malformed
/// one leaves the installed injector in place.
pub fn set_global_spec(spec: &str) -> Result<()> {
    let injector = Arc::new(FaultInjector::from_spec(spec)?);
    *global_slot().lock().unwrap_or_else(std::sync::PoisonError::into_inner) = injector;
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
