//! Structured, leveled tracing for the whole stack (DESIGN.md §11).
//!
//! [`telemetry`](crate::telemetry) answers *how much* (aggregate
//! counters, histograms, span totals); this module answers *why this
//! one* — a stream of leveled, targeted events with `key=value` fields,
//! request-ID attribution, and worker labels, emitted through the
//! [`error!`](macro@crate::error), [`warn!`](crate::warn),
//! [`info!`](crate::info), and [`debug!`](crate::debug) macros.
//!
//! # Pipeline
//!
//! ```text
//! macro ──(one atomic load: level ≤ max?)──► build Event
//!     ├── ring capture (bounded ring, daemon `GET /events` tail)
//!     └── sink: ISUM_LOG target filter ──► JSONL on stderr / ISUM_LOG_FILE
//! ```
//!
//! # Configuration
//!
//! * `ISUM_LOG` — sink filter, e.g. `info,server=debug` (grammar in
//!   [`filter`]). Unset, the sink defaults to `warn`: warnings and errors
//!   reach stderr out of the box, every quieter call site is a single
//!   relaxed atomic load and branch.
//! * `ISUM_LOG_FILE` (or the CLI's `--log-file`) — redirect the JSONL
//!   sink from stderr to a file.
//! * The daemon additionally enables ring capture at `debug` so
//!   `GET /events` works without any environment setup.
//!
//! # Determinism contract
//!
//! Events carry wall-clock timestamps and scheduling context, but nothing
//! in the system ever reads an event back into a computation: with
//! `ISUM_LOG=debug` or unset, at 1 or 8 threads, every result artifact is
//! byte-identical (asserted by `crates/cli/tests/serve.rs`).

pub mod filter;

mod event;
mod ring;

pub use event::Event;
pub use filter::{parse_level, target_matches, Filter};
pub use ring::Ring;

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Event severity, ordered from most to least severe. The `u8` value is
/// a verbosity: a filter at level `L` passes events with `level <= L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// The operation failed; data or a response was degraded or lost.
    Error = 1,
    /// Something unexpected that the system absorbed (skip, retry,
    /// fallback, quarantine).
    Warn = 2,
    /// High-level lifecycle: startup, shutdown, per-request outcomes.
    Info = 3,
    /// Per-phase and per-decision detail.
    Debug = 4,
}

impl Level {
    /// Lowercase name (`"warn"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where sink-approved events are written.
enum SinkTarget {
    Stderr,
    File(std::io::BufWriter<std::fs::File>),
}

/// Mutable trace configuration behind the state lock.
struct TraceState {
    filter: Filter,
    sink: SinkTarget,
    ring_level: Option<Level>,
}

/// Ring capacity: the newest 1,024 events stay inspectable.
const DEFAULT_RING_CAPACITY: usize = 1024;

/// Must equal `Filter::default().max_level()` so the gate is correct
/// before any initialization runs (checked by a test below).
const DEFAULT_MAX_LEVEL: u8 = Level::Warn as u8;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(DEFAULT_MAX_LEVEL);
static EVENT_SEQ: AtomicU64 = AtomicU64::new(0);
static STATE: OnceLock<Mutex<TraceState>> = OnceLock::new();
static RING: OnceLock<Ring> = OnceLock::new();

fn state() -> MutexGuard<'static, TraceState> {
    STATE
        .get_or_init(|| {
            Mutex::new(TraceState {
                filter: Filter::default(),
                sink: SinkTarget::Stderr,
                ring_level: None,
            })
        })
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The global event ring (created on first use).
fn ring() -> &'static Ring {
    RING.get_or_init(|| Ring::new(DEFAULT_RING_CAPACITY))
}

/// Recomputes the cheap global gate from the locked state.
fn recompute_max_level(st: &TraceState) {
    let sink = st.filter.max_level().map_or(0, |l| l as u8);
    let ring = st.ring_level.map_or(0, |l| l as u8);
    MAX_LEVEL.store(sink.max(ring), Ordering::Relaxed);
}

/// True when an event at `level` could reach any destination — the only
/// cost a call site pays when its level is filtered out (one relaxed
/// atomic load plus a compare).
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Installs the sink filter from a spec string (the `ISUM_LOG` grammar).
/// Malformed directives are ignored individually and returned, and never
/// disable the filter as a whole.
pub fn set_filter_spec(spec: &str) -> Vec<String> {
    let (filter, bad) = Filter::parse(spec);
    let mut st = state();
    st.filter = filter;
    recompute_max_level(&st);
    bad
}

/// Redirects the JSONL sink to `path` (append mode, created if missing).
///
/// # Errors
/// Propagates the underlying open failure; the sink is left unchanged.
pub fn set_log_file(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    state().sink = SinkTarget::File(std::io::BufWriter::new(file));
    Ok(())
}

/// Enables ring capture of every event at `level` or more severe,
/// independent of the sink filter. The daemon calls this at startup so
/// `GET /events` has a tail to serve without any environment setup.
pub fn enable_ring(level: Level) {
    let mut st = state();
    st.ring_level = Some(level);
    recompute_max_level(&st);
}

/// The most recent `n` captured events, oldest first (empty when ring
/// capture was never enabled).
pub fn ring_tail(n: usize) -> Vec<Event> {
    match RING.get() {
        Some(ring) => ring.tail(n),
        None => Vec::new(),
    }
}

/// Initializes the subsystem from the environment: `ISUM_LOG` (sink
/// filter) and `ISUM_LOG_FILE` (sink destination). Safe to call more than
/// once; malformed pieces degrade to defaults and are reported as a
/// `warn` event rather than an error.
pub fn init_from_env() {
    if let Ok(spec) = std::env::var("ISUM_LOG") {
        let bad = set_filter_spec(&spec);
        if !bad.is_empty() {
            crate::warn!(
                "trace",
                "ignoring malformed ISUM_LOG directive(s); using defaults for them",
                bad = bad.join(",")
            );
        }
    }
    if let Ok(path) = std::env::var("ISUM_LOG_FILE") {
        if !path.is_empty() {
            if let Err(e) = set_log_file(std::path::Path::new(&path)) {
                crate::warn!("trace", format!("cannot open ISUM_LOG_FILE `{path}`: {e}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-thread context: request IDs and executor labels.
// ---------------------------------------------------------------------

thread_local! {
    static REQUEST_ID: RefCell<Option<String>> = const { RefCell::new(None) };
    static THREAD_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Restores the previous request ID when dropped.
pub struct RequestIdGuard {
    prev: Option<String>,
}

impl Drop for RequestIdGuard {
    fn drop(&mut self) {
        REQUEST_ID.with(|slot| *slot.borrow_mut() = self.prev.take());
    }
}

/// Stamps every event emitted on this thread with `id` until the guard
/// drops (nesting restores the outer ID).
pub fn with_request_id(id: &str) -> RequestIdGuard {
    let prev = REQUEST_ID.with(|slot| slot.borrow_mut().replace(id.to_string()));
    RequestIdGuard { prev }
}

/// The request ID currently stamped on this thread, if any.
pub fn current_request_id() -> Option<String> {
    REQUEST_ID.with(|slot| slot.borrow().clone())
}

/// Sets this thread's sticky executor label (e.g. `exec-3`); events
/// emitted on the thread carry it in their `worker` field. `par_map`
/// calls this once per thread it spawns so events from inside parallel
/// closures stay attributable at any thread count.
pub fn set_thread_label(label: &str) {
    THREAD_LABEL.with(|slot| *slot.borrow_mut() = Some(label.to_string()));
}

/// The value `value` of environment variable `var`, as `parse` reads it.
/// A value `parse` refuses is reported as one `warn!` event on `target`
/// (``ignoring malformed VAR `value` (want …)``) and gives `None`, so the
/// caller falls back to its default: a malformed variable is never fatal.
pub fn parse_env<T>(
    target: &str,
    var: &str,
    value: &str,
    want: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let parsed = parse(value);
    if parsed.is_none() {
        crate::warn!(target, format!("ignoring malformed {var} `{value}` (want {want})"));
    }
    parsed
}

/// A process-unique request ID (`<run>-<n>`): a per-process random prefix
/// from the startup clock plus a monotone counter. Used by the daemon for
/// requests that did not supply an `X-Isum-Request-Id`.
pub fn next_request_id() -> String {
    static PREFIX: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let prefix = PREFIX.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        // SplitMix64 over clock ^ pid: distinct across restarts.
        crate::rng::split_mix64(&mut (nanos ^ (u64::from(std::process::id()) << 32)))
    });
    format!("{:08x}-{:x}", prefix & 0xffff_ffff, COUNTER.fetch_add(1, Ordering::Relaxed))
}

// ---------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------

/// Builds and routes one event. Call sites go through the level macros,
/// which check [`enabled`] first; calling this directly skips that gate
/// but is otherwise equivalent.
pub fn emit(level: Level, target: &str, message: String, fields: Vec<(String, String)>) {
    let event = Event {
        seq: EVENT_SEQ.fetch_add(1, Ordering::Relaxed),
        unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        level,
        target: target.to_string(),
        message,
        fields,
        request_id: current_request_id(),
        thread_label: THREAD_LABEL.with(|slot| slot.borrow().clone()),
    };
    let to_ring = {
        let mut st = state();
        if st.filter.enabled(target, level) {
            let line = event.to_jsonl();
            match &mut st.sink {
                SinkTarget::Stderr => {
                    let stderr = std::io::stderr();
                    let mut w = stderr.lock();
                    let _ = writeln!(w, "{line}");
                }
                SinkTarget::File(f) => {
                    let _ = writeln!(f, "{line}");
                    let _ = f.flush();
                }
            }
        }
        st.ring_level.is_some_and(|cap| level <= cap)
    };
    if to_ring {
        ring().push(event);
    }
}

/// Emits a leveled event: `event!(level, target, message, key = value,
/// ...)`. Prefer the level shorthands [`error!`](macro@crate::error),
/// [`warn!`](crate::warn), [`info!`](crate::info),
/// [`debug!`](crate::debug).
#[macro_export]
macro_rules! event {
    ($lvl:expr, $target:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let lvl = $lvl;
        if $crate::trace::enabled(lvl) {
            $crate::trace::emit(
                lvl,
                $target,
                ::std::string::ToString::to_string(&$msg),
                ::std::vec![$((
                    ::std::string::ToString::to_string(::core::stringify!($k)),
                    ::std::string::ToString::to_string(&$v),
                )),*],
            );
        }
    }};
}

/// `error!`-level [`event!`](crate::event): the operation failed; data or
/// a response was degraded or lost.
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { $crate::event!($crate::trace::Level::Error, $($t)*) };
}

/// `warn!`-level [`event!`](crate::event): something unexpected the
/// system absorbed (skip, retry, fallback, quarantine).
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::event!($crate::trace::Level::Warn, $($t)*) };
}

/// `info!`-level [`event!`](crate::event): lifecycle and per-request
/// outcomes.
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::event!($crate::trace::Level::Info, $($t)*) };
}

/// `debug!`-level [`event!`](crate::event): per-phase and per-decision
/// detail.
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::event!($crate::trace::Level::Debug, $($t)*) };
}

/// Serializes tests (within one binary) that mutate the global trace
/// configuration. Public so integration tests can share it; not part of
/// the stable API.
#[doc(hidden)]
pub fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores default configuration (default filter, stderr sink, ring
/// capture off) — for tests.
#[doc(hidden)]
pub fn reset_for_tests() {
    let mut st = state();
    st.filter = Filter::default();
    st.sink = SinkTarget::Stderr;
    st.ring_level = None;
    recompute_max_level(&st);
    if let Some(ring) = RING.get() {
        ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_gate_matches_default_filter() {
        assert_eq!(Some(DEFAULT_MAX_LEVEL), Filter::default().max_level().map(|l| l as u8));
    }

    #[test]
    fn level_ordering_is_severity_to_verbosity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::Debug.as_str(), "debug");
    }

    #[test]
    fn request_id_guard_nests_and_restores() {
        let _g = test_lock();
        assert_eq!(current_request_id(), None);
        {
            let _outer = with_request_id("outer");
            assert_eq!(current_request_id().as_deref(), Some("outer"));
            {
                let _inner = with_request_id("inner");
                assert_eq!(current_request_id().as_deref(), Some("inner"));
            }
            assert_eq!(current_request_id().as_deref(), Some("outer"));
        }
        assert_eq!(current_request_id(), None);
    }

    #[test]
    fn generated_request_ids_are_unique() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert!(a.contains('-'));
    }

    #[test]
    fn filter_spec_controls_the_gate() {
        let _g = test_lock();
        reset_for_tests();
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Debug));
        let bad = set_filter_spec("debug");
        assert!(bad.is_empty());
        assert!(enabled(Level::Debug));
        let bad = set_filter_spec("off");
        assert!(bad.is_empty());
        assert!(!enabled(Level::Error));
        reset_for_tests();
    }

    #[test]
    fn ring_capture_collects_events_without_sink() {
        let _g = test_lock();
        reset_for_tests();
        set_filter_spec("off");
        enable_ring(Level::Info);
        crate::info!("trace.test", "captured", n = 1);
        crate::debug!("trace.test", "too verbose for the ring");
        let tail = ring_tail(16);
        assert!(tail.iter().any(|e| e.message == "captured" && e.target == "trace.test"));
        assert!(!tail.iter().any(|e| e.message.contains("too verbose")));
        reset_for_tests();
    }
}
