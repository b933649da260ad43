//! The one histogram: lock-free, mergeable and unit-agnostic (DESIGN.md §7).
//!
//! Buckets step by 2^(1/4) from 1 — bucket `i` holds `(2^(i/4),
//! 2^((i+1)/4)]`, bucket 0 also 0 and 1 — and 256 of them reach 2^64, so
//! there is no overflow cell. A quantile is interpolated inside one bucket:
//! it is off by under 19 %. Recording is a few relaxed atomic updates; no
//! lock, no allocation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets on the ladder: the last one ends at `2^(256/4)` = 2^64.
pub(crate) const BUCKETS: usize = 256;

/// The bucket `v` lands in: the first whose upper bound reaches it.
#[inline]
fn bucket_of(v: u64) -> usize {
    let v = v.max(1) as f64;
    // log2(v) * 4 - 1 rounds to the first index with hi >= v.
    let idx = (v.log2() * 4.0).ceil() as isize - 1;
    idx.max(0) as usize
}

/// Upper bound of bucket `i`: `2^((i + 1) / 4)`.
fn bucket_hi(i: usize) -> f64 {
    2f64.powf((i as f64 + 1.0) / 4.0)
}

/// A lock-free histogram over `u64` values.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let copy = Histogram::new();
        copy.merge(self);
        copy
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Release: a snapshot that counts this value also sees its min,
        // max and sum, so its `[min, max]` is never inverted.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Release);
    }

    /// Records a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds `other` in: afterwards `self` reads as if it had recorded
    /// both streams.
    pub fn merge(&self, other: &Histogram) {
        let s = other.snap();
        if s.count == 0 {
            return;
        }
        self.min.fetch_min(s.min, Ordering::Relaxed);
        self.max.fetch_max(s.max, Ordering::Relaxed);
        self.sum.fetch_add(s.sum, Ordering::Relaxed);
        for (b, c) in self.buckets.iter().zip(s.buckets) {
            b.fetch_add(c, Ordering::Release);
        }
    }

    /// Clears all state.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy with quantile readout.
    pub fn snap(&self) -> HistogramSnapshot {
        // Acquire pairs with `record`'s Release; min, max and sum come after.
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Acquire)).collect();
        // The count is the sum of the bucket copy, so quantiles and the
        // Prometheus `+Inf` bucket agree with it even if writers race.
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded value count: the sum of `buckets`.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts on the 2^(1/4) ladder, all 256 of them.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate for `q` in `[0, 1]` (0 when empty).
    ///
    /// The value of rank `round(q·(n−1))`: walks the cumulative counts to
    /// the bucket holding that rank, interpolates linearly inside it and
    /// clamps to the observed `[min, max]`. `q ≥ 1` answers `max` exactly.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max as f64;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c > rank {
                let lo = if i == 0 { 1.0 } else { bucket_hi(i - 1) };
                let hi = bucket_hi(i);
                let frac = (rank - seen) as f64 / c as f64;
                return (lo + (hi - lo) * frac).clamp(self.min as f64, self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_covers_u64_and_its_power_of_two_edges_are_exact() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every fourth bucket ends on a power of two, inclusively: the
        // Prometheus renderer's cumulative counts rely on it. (Past 2^48,
        // `log2` can no longer tell 2^k + 1 from 2^k.)
        for k in 1..=48u32 {
            let edge = 1u64 << k;
            assert_eq!(bucket_hi(bucket_of(edge)), edge as f64, "2^{k}");
            assert_eq!(bucket_of(edge) % 4, 3, "2^{k} closes a group of four");
            assert!(bucket_of(edge + 1) > bucket_of(edge), "2^{k} + 1 lies past the edge");
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let h = Histogram::new();
        for v in [5u64, 10, 100, 1000] {
            h.record(v);
        }
        let s = h.snap();
        assert_eq!((s.count, s.sum, s.min, s.max), (4, 1115, 5, 1000));
        assert!((s.mean() - 278.75).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(7);
        h.reset();
        let s = h.snap();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert!(s.buckets.iter().all(|&b| b == 0));
    }
}
