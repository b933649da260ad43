//! Oracle for the load generator's histogram: [`LatencyHist`] must answer
//! every number the benchmark and `isum load` read — p50/p90/p99, mean,
//! max, count — bit for bit as the standalone 96-bucket histogram it
//! replaced, for samples up to 2^24 µs (that histogram's overflow bound),
//! across worker merges.

use isum_loadgen::LatencyHist;
use proptest::prelude::*;

// The load generator's own histogram before it became a face of the
// shared one, copied verbatim (doc comments included) as the reference.
mod reference {
    //! Client-side latency histogram: fixed log-spaced buckets, merge-able
    //! across worker threads, quantiles by linear interpolation inside the
    //! landing bucket.
    //!
    //! Buckets are geometric with ratio 2^(1/4) starting at 1 µs, so the
    //! worst-case quantile error from bucketing is under ~19% — plenty for
    //! p50/p90/p99 reporting — while the struct stays a flat array of
    //! counters that merges with one addition per bucket (no allocation on
    //! the record path, no unbounded memory under soak).

    /// Number of geometric buckets. `2^(96/4)` µs ≈ 16.8 s; anything slower
    /// lands in the overflow bucket.
    const BUCKETS: usize = 96;

    /// A latency histogram over microsecond samples.
    #[derive(Debug, Clone)]
    pub struct LatencyHist {
        counts: [u64; BUCKETS],
        overflow: u64,
        count: u64,
        sum_us: u64,
        min_us: u64,
        max_us: u64,
    }

    impl Default for LatencyHist {
        fn default() -> Self {
            LatencyHist {
                counts: [0; BUCKETS],
                overflow: 0,
                count: 0,
                sum_us: 0,
                min_us: u64::MAX,
                max_us: 0,
            }
        }
    }

    /// Upper bound of bucket `i` in microseconds: `2^(i/4 + 1/4)` rounded up,
    /// i.e. buckets step by a factor of 2^(1/4).
    fn bucket_hi_us(i: usize) -> f64 {
        2f64.powf((i as f64 + 1.0) / 4.0)
    }

    /// The bucket a sample lands in: the first whose upper bound reaches it.
    fn bucket_of(us: u64) -> Option<usize> {
        let us = us.max(1) as f64;
        // log2(us) * 4 - 1 rounds to the first index with hi >= us.
        let idx = (us.log2() * 4.0).ceil() as isize - 1;
        let idx = idx.max(0) as usize;
        if idx < BUCKETS {
            Some(idx)
        } else {
            None
        }
    }

    impl LatencyHist {
        /// An empty histogram.
        pub fn new() -> LatencyHist {
            LatencyHist::default()
        }

        /// Records one sample in microseconds.
        pub fn record_us(&mut self, us: u64) {
            // The ladder's resolution floor is 1 µs: a zero sample (e.g. a
            // sub-microsecond pipeline stage) lands there, keeping
            // `min_us <= max_us` for the quantile clamp.
            let us = us.max(1);
            match bucket_of(us) {
                Some(i) => self.counts[i] += 1,
                None => self.overflow += 1,
            }
            self.count += 1;
            self.sum_us += us;
            self.min_us = self.min_us.min(us);
            self.max_us = self.max_us.max(us);
        }

        /// Folds another histogram in (worker merge at the end of a run).
        pub fn merge(&mut self, other: &LatencyHist) {
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += b;
            }
            self.overflow += other.overflow;
            self.count += other.count;
            self.sum_us += other.sum_us;
            self.min_us = self.min_us.min(other.min_us);
            self.max_us = self.max_us.max(other.max_us);
        }

        /// Recorded samples.
        pub fn count(&self) -> u64 {
            self.count
        }

        /// Mean in milliseconds (0 when empty).
        pub fn mean_ms(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum_us as f64 / self.count as f64 / 1e3
            }
        }

        /// Largest recorded sample in milliseconds.
        pub fn max_ms(&self) -> f64 {
            self.max_us as f64 / 1e3
        }

        /// Quantile `q` in `[0, 1]`, in milliseconds: walks the cumulative
        /// counts to the landing bucket and interpolates linearly inside it.
        /// Samples past the last bucket answer the recorded maximum.
        pub fn quantile_ms(&self, q: f64) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
            let mut seen = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if seen + c > rank {
                    let lo = if i == 0 { 1.0 } else { bucket_hi_us(i - 1) };
                    let hi = bucket_hi_us(i);
                    let frac = (rank - seen) as f64 / c as f64;
                    let us = (lo + (hi - lo) * frac).clamp(self.min_us as f64, self.max_us as f64);
                    return us / 1e3;
                }
                seen += c;
            }
            self.max_ms()
        }
    }
}

/// Sample sets shaped like real runs: per case, one scale for the body
/// (mostly 0–3 µs, as a sub-microsecond stage reads; an ack's µs to ms;
/// anything up to 2^24 µs), plus rare outliers up to 2^24 µs.
fn samples_strategy() -> impl Strategy<Value = Vec<u64>> {
    let samples = prop::collection::vec((any::<u64>(), 0u8..16), 0..400);
    (samples, 0usize..3).prop_map(|(raw, scale)| {
        let body = [4, 5_000, (1 << 24) + 1][scale];
        raw.into_iter().map(|(v, pick)| v % if pick == 0 { (1 << 24) + 1 } else { body }).collect()
    })
}

/// Records `samples` round-robin into `workers` histograms and merges
/// them, the way `run` pools its workers' tallies.
fn pooled<H>(
    samples: &[u64],
    workers: usize,
    new: fn() -> H,
    record: fn(&mut H, u64),
    merge: fn(&mut H, &H),
) -> H {
    let mut parts: Vec<H> = (0..workers).map(|_| new()).collect();
    for (i, &us) in samples.iter().enumerate() {
        record(&mut parts[i % workers], us);
    }
    let mut whole = new();
    for part in &parts {
        merge(&mut whole, part);
    }
    whole
}

proptest! {
    #[test]
    fn latency_hist_reads_bit_for_bit_as_the_reference(
        samples in samples_strategy(),
        workers in 1usize..5,
    ) {
        let new =
            pooled(&samples, workers, LatencyHist::new, LatencyHist::record_us, LatencyHist::merge);
        let old = pooled(
            &samples,
            workers,
            reference::LatencyHist::new,
            reference::LatencyHist::record_us,
            reference::LatencyHist::merge,
        );
        prop_assert_eq!(new.count(), old.count());
        prop_assert_eq!(new.mean_ms().to_bits(), old.mean_ms().to_bits());
        prop_assert_eq!(new.max_ms().to_bits(), old.max_ms().to_bits());
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(
                new.quantile_ms(q).to_bits(),
                old.quantile_ms(q).to_bits(),
                "q={} over {} samples",
                q,
                samples.len()
            );
        }
    }
}
