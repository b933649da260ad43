//! Client-side latency histogram: the one
//! [`isum_common::telemetry::Histogram`] (DESIGN.md §7), fed microseconds
//! and read in milliseconds. Workers record into their own and merge at
//! the end of a run.

use isum_common::telemetry::Histogram;

/// A latency histogram over microsecond samples.
#[derive(Debug, Default, Clone)]
pub struct LatencyHist(Histogram);

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> LatencyHist {
        LatencyHist::default()
    }

    /// Records one sample in microseconds. A zero sample (e.g. a
    /// sub-microsecond pipeline stage) counts as 1 µs, the ladder's floor.
    pub fn record_us(&mut self, us: u64) {
        self.0.record(us.max(1));
    }

    /// Folds another histogram in (worker merge at the end of a run).
    pub fn merge(&mut self, other: &LatencyHist) {
        self.0.merge(&other.0);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.0.snap().count
    }

    /// Mean in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        self.0.snap().mean() / 1e3
    }

    /// Largest recorded sample in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.0.snap().max as f64 / 1e3
    }

    /// Quantile `q` in `[0, 1]`, in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.0.snap().quantile(q) / 1e3
    }
}
