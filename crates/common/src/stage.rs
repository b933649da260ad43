//! Per-request pipeline timeline: a fixed stage vocabulary and a
//! lock-free [`StageClock`] that attributes a request's wall-clock time
//! to named pipeline stages (DESIGN.md §16).
//!
//! The clock is strictly *annotation*: stamps never feed any data-path
//! decision, so enabling attribution cannot perturb results — the same
//! contract the tracing layer holds. Stamping is a handful of relaxed
//! atomic operations with saturating arithmetic throughout, so arbitrary
//! interleavings (including cross-thread misuse) can skew attribution
//! but never panic, wrap, or produce a negative duration.
//!
//! Two accounting primitives compose:
//!
//! * [`StageClock::stamp`] advances a single *mark* and charges the time
//!   since the previous mark to the named stage — consecutive stamps
//!   partition elapsed wall-clock time, so the stage sum equals the
//!   origin-to-last-stamp span.
//! * [`StageClock::shift`] re-attributes time already charged to one
//!   stage onto a sub-stage (the WAL append stamp covers the fsync; the
//!   measured fsync duration is then carved out into its own stage).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The fixed pipeline stages, in wire order. The enum is closed on
/// purpose: a bounded vocabulary keeps the Prometheus label space and
/// the `Server-Timing` header schema stable across versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Reading the request head and body off the socket.
    Recv = 0,
    /// Building the parsed request (query decode, header scan).
    Parse = 1,
    /// Waiting in an ingest queue for a sequencer to pick the job up.
    Queue = 2,
    /// Sequencer admission: ordering checks and the batch split.
    Sequence = 3,
    /// Appending the WAL record (fsync excluded — see [`Stage::Fsync`]).
    WalAppend = 4,
    /// The WAL record's fsync, carved out of the append span.
    Fsync = 5,
    /// Applying statements to the engine (or rendering a summary).
    Apply = 6,
    /// From the last pipeline stage to the response write.
    Respond = 7,
}

/// Every stage, in the order they appear on the wire.
pub const STAGES: [Stage; 8] = [
    Stage::Recv,
    Stage::Parse,
    Stage::Queue,
    Stage::Sequence,
    Stage::WalAppend,
    Stage::Fsync,
    Stage::Apply,
    Stage::Respond,
];

impl Stage {
    /// The wire name (`Server-Timing` entry, Prometheus `stage` label).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Recv => "recv",
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Sequence => "sequence",
            Stage::WalAppend => "wal_append",
            Stage::Fsync => "fsync",
            Stage::Apply => "apply",
            Stage::Respond => "respond",
        }
    }

    /// The stage a wire name denotes, if any (the loadgen correlator
    /// maps `Server-Timing` entries back through this).
    pub fn from_name(name: &str) -> Option<Stage> {
        STAGES.iter().copied().find(|s| s.as_str() == name)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A per-request stage timeline. Cheap to create (one `Instant`), cheap
/// to stamp (relaxed atomics), and safely shareable across the threads a
/// request passes through (`Arc<StageClock>` rides in the queue job).
#[derive(Debug)]
pub struct StageClock {
    origin: Instant,
    /// Nanoseconds-from-origin of the most recent stamp.
    mark_ns: AtomicU64,
    /// Bitmask of stages that have recorded anything — distinguishing a
    /// zero-duration stage from an absent one.
    seen: AtomicU32,
    ns: [AtomicU64; STAGES.len()],
}

impl StageClock {
    /// A fresh clock; the origin (and first mark) is "now".
    pub fn new() -> StageClock {
        StageClock {
            origin: Instant::now(),
            mark_ns: AtomicU64::new(0),
            seen: AtomicU32::new(0),
            ns: Default::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Charges the time since the previous mark to `stage` and advances
    /// the mark — consecutive stamps partition elapsed wall-clock time.
    /// Returns the duration charged.
    pub fn stamp(&self, stage: Stage) -> Duration {
        let now = self.now_ns();
        let prev = self.mark_ns.swap(now, Ordering::Relaxed);
        let delta = now.saturating_sub(prev);
        self.ns[stage as usize].fetch_add(delta, Ordering::Relaxed);
        self.seen.fetch_or(1 << stage as usize, Ordering::Relaxed);
        Duration::from_nanos(delta)
    }

    /// Charges an externally measured duration to `stage` without
    /// touching the mark (for work timed on another thread).
    pub fn record(&self, stage: Stage, d: Duration) {
        self.ns[stage as usize].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.seen.fetch_or(1 << stage as usize, Ordering::Relaxed);
    }

    /// Re-attributes up to `d` of the time charged to `from` onto `to`
    /// (never more than `from` currently holds, so the stage sum is
    /// preserved exactly).
    pub fn shift(&self, from: Stage, to: Stage, d: Duration) {
        if from == to {
            return;
        }
        let want = d.as_nanos() as u64;
        let cell = &self.ns[from as usize];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let moved = cur.min(want);
            match cell.compare_exchange_weak(cur, cur - moved, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.ns[to as usize].fetch_add(moved, Ordering::Relaxed);
                    self.seen.fetch_or(1 << to as usize, Ordering::Relaxed);
                    return;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// The duration charged to `stage`, or `None` if it never recorded.
    pub fn get(&self, stage: Stage) -> Option<Duration> {
        if self.seen.load(Ordering::Relaxed) & (1 << stage as usize) == 0 {
            return None;
        }
        Some(Duration::from_nanos(self.ns[stage as usize].load(Ordering::Relaxed)))
    }

    /// The sum of every recorded stage — by construction the value the
    /// `total` entry of [`StageClock::server_timing`] reports, so
    /// per-stage attribution always sums to the reported total.
    pub fn total(&self) -> Duration {
        let seen = self.seen.load(Ordering::Relaxed);
        let ns: u64 = (0..STAGES.len())
            .filter(|i| seen & (1 << i) != 0)
            .map(|i| self.ns[i].load(Ordering::Relaxed))
            .sum();
        Duration::from_nanos(ns)
    }

    /// Renders the `Server-Timing` header value: one `name;dur=<ms>`
    /// entry per recorded stage in pipeline order, then `total;dur=`
    /// (the exact stage sum). Durations are milliseconds with
    /// microsecond precision.
    pub fn server_timing(&self) -> String {
        let mut out = String::new();
        let mut total_ns = 0u64;
        let seen = self.seen.load(Ordering::Relaxed);
        for stage in STAGES {
            if seen & (1 << stage as usize) == 0 {
                continue;
            }
            let ns = self.ns[stage as usize].load(Ordering::Relaxed);
            total_ns += ns;
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(stage.as_str());
            out.push_str(&format!(";dur={:.3}", ns as f64 / 1e6));
        }
        if !out.is_empty() {
            out.push_str(", ");
        }
        out.push_str(&format!("total;dur={:.3}", total_ns as f64 / 1e6));
        out
    }
}

impl Default for StageClock {
    fn default() -> Self {
        StageClock::new()
    }
}

/// Parses a `Server-Timing` header value into `(name, milliseconds)`
/// pairs, in header order. Entries without a parseable `dur=` parameter
/// are skipped — the parser is the lenient half of
/// [`StageClock::server_timing`] and tolerates foreign entries.
pub fn parse_server_timing(value: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for entry in value.split(',') {
        let mut parts = entry.trim().split(';');
        let Some(name) = parts.next().map(str::trim) else { continue };
        if name.is_empty() {
            continue;
        }
        let dur = parts
            .filter_map(|p| p.trim().strip_prefix("dur="))
            .find_map(|v| v.trim().parse::<f64>().ok());
        if let Some(ms) = dur {
            if ms.is_finite() && ms >= 0.0 {
                out.push((name.to_string(), ms));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_partition_elapsed_time() {
        let clock = StageClock::new();
        let a = clock.stamp(Stage::Recv);
        std::thread::sleep(Duration::from_millis(2));
        let b = clock.stamp(Stage::Parse);
        assert!(b >= Duration::from_millis(2), "stamp charges the inter-mark gap");
        assert_eq!(clock.get(Stage::Recv), Some(a));
        assert_eq!(clock.get(Stage::Parse), Some(b));
        assert_eq!(clock.total(), a + b, "total is the stage sum");
    }

    #[test]
    fn double_stamp_accumulates() {
        let clock = StageClock::new();
        let first = clock.stamp(Stage::Apply);
        let second = clock.stamp(Stage::Apply);
        assert_eq!(clock.get(Stage::Apply), Some(first + second));
    }

    #[test]
    fn missing_stage_is_absent_not_zero() {
        let clock = StageClock::new();
        clock.stamp(Stage::Recv);
        assert_eq!(clock.get(Stage::Fsync), None, "never-stamped stage reads as absent");
        assert!(!clock.server_timing().contains("fsync"), "absent stages stay off the wire");
        // A genuinely zero-duration record is present, not absent.
        clock.record(Stage::Fsync, Duration::ZERO);
        assert_eq!(clock.get(Stage::Fsync), Some(Duration::ZERO));
        assert!(clock.server_timing().contains("fsync;dur=0.000"));
    }

    #[test]
    fn shift_carves_a_substage_and_preserves_the_sum() {
        let clock = StageClock::new();
        clock.record(Stage::WalAppend, Duration::from_millis(10));
        clock.shift(Stage::WalAppend, Stage::Fsync, Duration::from_millis(4));
        assert_eq!(clock.get(Stage::WalAppend), Some(Duration::from_millis(6)));
        assert_eq!(clock.get(Stage::Fsync), Some(Duration::from_millis(4)));
        assert_eq!(clock.total(), Duration::from_millis(10), "shift preserves the total");
        // Shifting more than the source holds moves only what is there.
        clock.shift(Stage::WalAppend, Stage::Fsync, Duration::from_secs(1));
        assert_eq!(clock.get(Stage::WalAppend), Some(Duration::ZERO));
        assert_eq!(clock.get(Stage::Fsync), Some(Duration::from_millis(10)));
        assert_eq!(clock.total(), Duration::from_millis(10));
    }

    #[test]
    fn server_timing_round_trips_through_the_parser() {
        let clock = StageClock::new();
        clock.record(Stage::Queue, Duration::from_micros(1500));
        clock.record(Stage::Apply, Duration::from_micros(250));
        clock.stamp(Stage::Respond);
        let header = clock.server_timing();
        let parsed = parse_server_timing(&header);
        assert_eq!(parsed.last().map(|(n, _)| n.as_str()), Some("total"));
        let total = parsed.last().map(|(_, ms)| *ms).unwrap();
        let sum: f64 = parsed.iter().filter(|(n, _)| n != "total").map(|(_, ms)| ms).sum();
        assert!((sum - total).abs() < 1e-6, "stages sum to the total: {header}");
        assert!(parsed.iter().any(|(n, ms)| n == "queue" && (*ms - 1.5).abs() < 1e-9), "{header}");
        // Stage order on the wire follows the pipeline order.
        let names: Vec<&str> = parsed.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["queue", "apply", "respond", "total"]);
    }

    #[test]
    fn parser_tolerates_foreign_and_malformed_entries() {
        let parsed = parse_server_timing("cdn;dur=abc, edge;desc=\"x\";dur=2.5, ;dur=1, db");
        assert_eq!(parsed, vec![("edge".to_string(), 2.5)]);
        assert!(parse_server_timing("").is_empty());
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in STAGES {
            assert_eq!(Stage::from_name(stage.as_str()), Some(stage));
        }
        assert_eq!(Stage::from_name("nonsense"), None);
    }
}
