//! Similarity measures (Sec 4.2 of the paper).
//!
//! The production measure is the weighted Jaccard over feature vectors; the
//! plain (set) Jaccard is kept for the Fig 7 ablation.

use crate::features::{FeatureVec, SparseVec};

/// Weighted Jaccard: `Σ min(a_c, b_c) / Σ max(a_c, b_c)`, 0 when either
/// vector is all-zero. This is the paper's `S(q_i, q_j)`.
///
/// ```
/// use isum_common::{ColumnId, GlobalColumnId, TableId};
/// use isum_core::features::FeatureVec;
/// use isum_core::similarity::weighted_jaccard;
///
/// let gid = |c| GlobalColumnId::new(TableId(0), ColumnId(c));
/// let a = FeatureVec::from_entries(vec![(gid(0), 0.8), (gid(1), 0.2)]);
/// let b = FeatureVec::from_entries(vec![(gid(0), 0.4), (gid(2), 0.6)]);
/// // min-sum 0.4 over max-sum 1.6:
/// assert!((weighted_jaccard(&a, &b) - 0.25).abs() < 1e-12);
/// ```
pub fn weighted_jaccard<K: Ord + Copy>(a: &SparseVec<K>, b: &SparseVec<K>) -> f64 {
    isum_common::count!("core.similarity.computations");
    let mut min_sum = 0.0;
    let mut max_sum = 0.0;
    let ae = a.entries();
    let be = b.entries();
    let mut i = 0;
    let mut j = 0;
    while i < ae.len() || j < be.len() {
        let take_a = j >= be.len() || (i < ae.len() && ae[i].0 <= be[j].0);
        let take_b = i >= ae.len() || (j < be.len() && be[j].0 <= ae[i].0);
        match (take_a, take_b) {
            (true, true) => {
                min_sum += ae[i].1.min(be[j].1);
                max_sum += ae[i].1.max(be[j].1);
                i += 1;
                j += 1;
            }
            (true, false) => {
                max_sum += ae[i].1;
                i += 1;
            }
            (false, true) => {
                max_sum += be[j].1;
                j += 1;
            }
            (false, false) => unreachable!("one side must advance"),
        }
    }
    if max_sum <= 0.0 {
        0.0
    } else {
        min_sum / max_sum
    }
}

/// Plain (unweighted) Jaccard over the *sets* of features with positive
/// weight — the Fig 7b ablation.
pub fn set_jaccard(a: &FeatureVec, b: &FeatureVec) -> f64 {
    isum_common::count!("core.similarity.computations");
    let sa: Vec<_> = a.entries().iter().filter(|(_, w)| *w > 0.0).map(|(g, _)| *g).collect();
    let sb: Vec<_> = b.entries().iter().filter(|(_, w)| *w > 0.0).map(|(g, _)| *g).collect();
    jaccard_ids(&sa, &sb)
}

/// Jaccard over two sorted id slices (also used for the candidate-index
/// similarity ablation of Fig 7a, with hashed index identities).
pub fn jaccard_ids<T: Ord + Copy>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let mut inter = 0usize;
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_common::{ColumnId, GlobalColumnId, TableId};

    fn gid(c: u32) -> GlobalColumnId {
        GlobalColumnId::new(TableId(0), ColumnId(c))
    }

    fn vec_of(entries: &[(u32, f64)]) -> FeatureVec {
        FeatureVec::from_entries(entries.iter().map(|&(c, w)| (gid(c), w)).collect())
    }

    #[test]
    fn identical_vectors_have_similarity_one() {
        let v = vec_of(&[(0, 0.5), (1, 1.0)]);
        assert!((weighted_jaccard(&v, &v) - 1.0).abs() < 1e-12);
        assert!((set_jaccard(&v, &v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_vectors_have_similarity_zero() {
        let a = vec_of(&[(0, 1.0)]);
        let b = vec_of(&[(1, 1.0)]);
        assert_eq!(weighted_jaccard(&a, &b), 0.0);
        assert_eq!(set_jaccard(&a, &b), 0.0);
    }

    #[test]
    fn weighted_jaccard_matches_hand_computation() {
        let a = vec_of(&[(0, 0.8), (1, 0.2)]);
        let b = vec_of(&[(0, 0.4), (2, 0.6)]);
        // min: 0.4; max: 0.8 + 0.2 + 0.6 = 1.6
        assert!((weighted_jaccard(&a, &b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_jaccard_is_symmetric_and_bounded() {
        let a = vec_of(&[(0, 0.3), (3, 0.9), (7, 0.1)]);
        let b = vec_of(&[(0, 0.5), (2, 0.4)]);
        let ab = weighted_jaccard(&a, &b);
        let ba = weighted_jaccard(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn all_zero_vectors_yield_zero() {
        let z = vec_of(&[(0, 0.0)]);
        let v = vec_of(&[(0, 1.0)]);
        assert_eq!(weighted_jaccard(&z, &z), 0.0);
        assert_eq!(weighted_jaccard(&z, &v), 0.0);
        assert_eq!(set_jaccard(&z, &v), 0.0);
    }

    #[test]
    fn set_jaccard_ignores_weights() {
        let a = vec_of(&[(0, 0.9), (1, 0.1)]);
        let b = vec_of(&[(0, 0.1), (1, 0.9)]);
        assert!((set_jaccard(&a, &b) - 1.0).abs() < 1e-12);
        assert!(weighted_jaccard(&a, &b) < 1.0);
    }

    #[test]
    fn jaccard_ids_counts_overlap() {
        assert!((jaccard_ids(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_ids::<u32>(&[], &[]), 0.0);
        assert_eq!(jaccard_ids(&[1], &[]), 0.0);
    }
}
