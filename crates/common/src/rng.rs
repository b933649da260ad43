//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (workload generators, sampling
//! baselines, property tests) draws from a [`DetRng`] seeded explicitly, so
//! experiments are reproducible run-to-run. The module also provides a
//! [`Zipf`] sampler used by the DSB- and Real-M-shaped workload generators to
//! produce the skewed value and template-frequency distributions the paper
//! attributes to those workloads.

/// One SplitMix64 step (Steele et al.): advances `state` by the golden
/// gamma and returns the full-avalanche mix of the new state. Every
/// seeded stream and hash in the workspace that mixes a word calls this
/// one copy of the constants.
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic RNG used across the workspace.
///
/// A self-contained xoshiro256** generator seeded through SplitMix64 (the
/// reference seeding procedure), so the workspace carries no external RNG
/// dependency. It can only be constructed from an explicit seed, making
/// accidental use of entropy-based seeding impossible.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state, per the
        // xoshiro authors' recommendation (never leaves the state all-zero).
        let mut s = seed;
        Self {
            state: [
                split_mix64(&mut s),
                split_mix64(&mut s),
                split_mix64(&mut s),
                split_mix64(&mut s),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256**).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2n = s2 ^ s0;
        let mut s3n = s3 ^ s1;
        let s1n = s1 ^ s2n;
        let s0n = s0 ^ s3n;
        s2n ^= t;
        s3n = s3n.rotate_left(45);
        self.state = [s0n, s1n, s2n, s3n];
        result
    }

    /// Uniform integer in `[0, bound)` over a `u64` bound, without modulo
    /// bias (Lemire-style rejection on the widening multiply).
    fn below_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = (self.next_u64() as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Derives an independent child generator; used to give each query
    /// template its own stream so that adding templates does not perturb
    /// the bindings of existing ones.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::seeded(s)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0)");
        self.below_u64(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        let span = (hi as i128 - lo as i128) as u128 + 1;
        if span > u64::MAX as u128 {
            // Full-width range: any u64 reinterpreted is uniform.
            return self.next_u64() as i64;
        }
        let off = self.below_u64(span as u64);
        (lo as i128 + off as i128) as i64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits scaled into [0, 1), the standard conversion.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (floyd's algorithm would be
    /// fancier; a partial shuffle is simple and `n` is always small here).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipfian sampler over ranks `0..n` with exponent `theta`.
///
/// Uses the cumulative-probability inversion method with a precomputed CDF;
/// `theta = 0` degenerates to the uniform distribution and larger values
/// concentrate probability mass on low ranks.
///
/// ```
/// use isum_common::rng::{DetRng, Zipf};
/// let z = Zipf::new(100, 1.0);
/// let mut rng = DetRng::seeded(1);
/// assert!(z.pmf(0) > z.pmf(50));
/// let r = z.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with skew `theta >= 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is negative/not finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over empty domain");
        assert!(theta >= 0.0 && theta.is_finite(), "bad Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the tail.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the domain has a single rank.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most likely.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.unit();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("finite")) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i,
        }
    }

    /// Probability mass of a rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_mix64_matches_the_reference_outputs_for_seed_zero() {
        let mut s = 0;
        let got = [split_mix64(&mut s), split_mix64(&mut s), split_mix64(&mut s)];
        assert_eq!(got, [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seeded(7);
        let mut b = DetRng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn forked_streams_diverge() {
        let mut root = DetRng::seeded(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let va: Vec<_> = (0..16).map(|_| a.below(1 << 30)).collect();
        let vb: Vec<_> = (0..16).map(|_| b.below(1 << 30)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = DetRng::seeded(3);
        let got = rng.sample_indices(50, 20);
        assert_eq!(got.len(), 20);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(got.iter().all(|&i| i < 50));
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(50));
        let mut rng = DetRng::seeded(11);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 2_000, "rank 0 should dominate, got {}", counts[0]);
    }

    #[test]
    fn zipf_cdf_terminates_at_one() {
        let z = Zipf::new(10, 2.5);
        let total: f64 = (0..10).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::seeded(5);
        let mut v: Vec<usize> = (0..32).collect();
        rng.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..32).collect::<Vec<_>>());
    }
}
