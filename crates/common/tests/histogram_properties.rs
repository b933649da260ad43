//! Property tests for the one histogram ([`Histogram`] and its
//! [`HistogramSnapshot`]): quantiles are monotone in `q`, stay inside the
//! observed `[min, max]` and within one 2^(1/4) bucket of the true value,
//! `q = 1` is the maximum, and merging two histograms is the same as
//! recording both streams into one.

use isum_common::telemetry::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Values spanning several orders of magnitude, including the zero and
/// near-`u64::MAX` buckets, so the walk crosses sparse bucket patterns.
fn value_strategy() -> impl Strategy<Value = u64> {
    (0u32..64).prop_map(|shift| 1u64 << shift)
}

/// Mostly small values, with the wide ones mixed in.
fn mixed_strategy() -> impl Strategy<Value = u64> {
    (0u64..5_000_000, value_strategy(), 0u8..4).prop_map(
        |(small, wide, pick)| {
            if pick == 0 {
                wide
            } else {
                small
            }
        },
    )
}

fn recorded(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The quantiles a reader takes, plus the edges of the domain.
const QS: [f64; 9] = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];

fn quantile_bits(s: &HistogramSnapshot) -> Vec<u64> {
    QS.iter().map(|&q| s.quantile(q).to_bits()).collect()
}

proptest! {
    #[test]
    fn quantile_is_monotone_and_bounded(
        exact in prop::collection::vec(0u64..2_000_000, 1..200),
        wide in prop::collection::vec(value_strategy(), 0..40),
        qs in prop::collection::vec(0.0f64..1.0, 2..20),
    ) {
        let values: Vec<u64> = exact.iter().chain(&wide).copied().collect();
        let (min, max) = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
        let snap = recorded(&values).snap();

        let mut qs = qs;
        qs.push(0.0);
        qs.push(1.0);
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let mut prev = None;
        for &q in &qs {
            let est = snap.quantile(q);
            prop_assert!(
                est >= min as f64 && est <= max as f64,
                "q={q} est={est} outside observed [{min}, {max}]"
            );
            if let Some((pq, pe)) = prev {
                prop_assert!(est >= pe, "quantile not monotone: q={pq} -> {pe}, q={q} -> {est}");
            }
            prev = Some((q, est));
        }
        prop_assert_eq!(snap.quantile(1.0), max as f64, "q=1 is the observed max");
    }

    #[test]
    fn quantile_is_within_one_bucket_of_the_true_value(
        mut values in prop::collection::vec(1u64..1 << 40, 1..300),
        q in 0.0f64..1.0,
    ) {
        let snap = recorded(&values).snap();
        values.sort_unstable();
        let truth = values[(q * (values.len() - 1) as f64).round() as usize] as f64;
        let ratio = snap.quantile(q) / truth;
        let step = 2f64.powf(0.25) * (1.0 + 1e-12);
        prop_assert!(ratio <= step && ratio >= 1.0 / step, "q={q}: est/true = {ratio}");
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero(q in 0.0f64..1.0) {
        let snap = Histogram::new().snap();
        prop_assert_eq!(snap.quantile(q), 0.0);
        prop_assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn single_value_histogram_is_exact_at_every_q(
        v in any::<u64>(),
        q in 0.0f64..1.0,
        n in 1usize..50,
    ) {
        let snap = recorded(&vec![v; n]).snap();
        prop_assert_eq!(snap.quantile(q), v as f64);
        prop_assert_eq!(snap.quantile(1.0), v as f64);
    }

    #[test]
    fn merge_equals_recording_both_streams(
        a in prop::collection::vec(mixed_strategy(), 0..150),
        b in prop::collection::vec(mixed_strategy(), 0..150),
    ) {
        let merged = recorded(&a);
        merged.merge(&recorded(&b));
        let both: Vec<u64> = a.iter().chain(&b).copied().collect();
        let (m, w) = (merged.snap(), recorded(&both).snap());
        prop_assert_eq!(&m.buckets, &w.buckets);
        prop_assert_eq!((m.count, m.sum, m.min, m.max), (w.count, w.sum, w.min, w.max));
        prop_assert_eq!(quantile_bits(&m), quantile_bits(&w));
        prop_assert_eq!(m.mean().to_bits(), w.mean().to_bits());
        // A clone is a merge into an empty histogram.
        prop_assert_eq!(merged.clone().snap(), m);
    }

    #[test]
    fn snapshot_count_is_the_bucket_sum(
        values in prop::collection::vec(mixed_strategy(), 0..200),
    ) {
        let snap = recorded(&values).snap();
        prop_assert_eq!(snap.buckets.len(), 256, "the ladder reaches 2^64: no overflow cell");
        prop_assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
        prop_assert_eq!(snap.count, values.len() as u64);
    }
}
