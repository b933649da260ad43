//! Identical-vector groups: the workload seen as its distinct feature
//! vectors plus one group id per query.
//!
//! Real logs are dominated by a few templates, and queries of one template
//! usually share their indexable columns, so a workload of `n` queries
//! carries far fewer than `n` distinct feature vectors (TPC-DS: 90 of
//! 8,000 under rule-based weights). Every post-selection update
//! ([`crate::update`]) is a pure function of (a query's vector, the chosen
//! vector), so queries whose (current, original) vectors are bit-equal stay
//! bit-equal for a whole greedy run: storing one vector per *group* and
//! updating it once is exactly the per-query computation. The compressors
//! build their grouping through [`Featurizer::group`](crate::Featurizer::group),
//! which hands over a stored vector's id for every query whose signature
//! it has seen, so no per-query vector is built or hashed.
//!
//! Equality is on IEEE-754 bit patterns, not `==`: `0.0` and `-0.0` are
//! different vectors here, so sharing can never change a single bit of a
//! downstream sum.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::features::FeatureVec;

/// End of a hash chain.
const NONE: u32 = u32::MAX;

/// Queries grouped by their (current, original) feature vectors.
#[derive(Debug, Default)]
pub struct Grouping {
    /// Distinct vectors by bit pattern, in first-seen order.
    vectors: Vec<FeatureVec>,
    /// Bit-pattern hash (under `hasher`) → first vector with that hash;
    /// `chain` links the (rare) others, so no vector is stored twice as a
    /// map key.
    hasher: RandomState,
    heads: HashMap<u64, u32>,
    chain: Vec<u32>,
    /// `(current, original)` vector of every group, in first-seen order.
    pairs: Vec<(u32, u32)>,
    pair_ids: HashMap<(u32, u32), u32>,
    group_of: Vec<u32>,
}

fn bits_hash(hasher: &RandomState, v: &FeatureVec) -> u64 {
    let mut h = hasher.build_hasher();
    for &(g, w) in v.entries() {
        g.hash(&mut h);
        w.to_bits().hash(&mut h);
    }
    h.finish()
}

fn bit_eq(a: &FeatureVec, b: &FeatureVec) -> bool {
    a.len() == b.len()
        && a.entries()
            .iter()
            .zip(b.entries())
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

fn next_id(len: usize) -> u32 {
    u32::try_from(len).ok().filter(|&id| id != NONE).expect("fewer than 2^32 - 1 feature vectors")
}

impl Grouping {
    /// Groups queries whose current and original vectors are the same
    /// (the state before any greedy update).
    pub fn from_queries(features: &[FeatureVec]) -> Self {
        let mut groups = Self::default();
        for f in features {
            let v = groups.intern(Cow::Borrowed(f));
            groups.push_group(v, v);
        }
        groups
    }

    /// Groups queries by their `(current, original)` vector pair.
    pub fn from_pairs(current: Vec<FeatureVec>, original: &[FeatureVec]) -> Self {
        let mut groups = Self::default();
        for (c, o) in current.into_iter().zip(original) {
            groups.push_pair(c, o);
        }
        groups
    }

    /// Appends a query with distinct current and original vectors.
    pub fn push_pair(&mut self, current: FeatureVec, original: &FeatureVec) {
        let c = self.intern(Cow::Owned(current));
        let o = if bit_eq(&self.vectors[c as usize], original) {
            c
        } else {
            self.intern(Cow::Borrowed(original))
        };
        self.push_group(c, o);
    }

    /// Appends a query whose current and original vector is the stored
    /// vector `v`, an id [`intern`](Self::intern) returned.
    pub(crate) fn push_vector(&mut self, v: u32) {
        self.push_group(v, v);
    }

    /// Id of the stored vector bit-equal to `v`, storing it (cloning a
    /// borrowed one) only when it is new.
    pub(crate) fn intern(&mut self, v: Cow<'_, FeatureVec>) -> u32 {
        let hash = bits_hash(&self.hasher, &v);
        let mut last = NONE;
        let mut at = self.heads.get(&hash).copied().unwrap_or(NONE);
        while at != NONE {
            if bit_eq(&self.vectors[at as usize], &v) {
                return at;
            }
            last = at;
            at = self.chain[at as usize];
        }
        let id = next_id(self.vectors.len());
        self.vectors.push(v.into_owned());
        self.chain.push(NONE);
        if last == NONE {
            self.heads.insert(hash, id);
        } else {
            self.chain[last as usize] = id;
        }
        id
    }

    fn push_group(&mut self, current: u32, original: u32) {
        let next = next_id(self.pairs.len());
        let group = *self.pair_ids.entry((current, original)).or_insert(next);
        if group == next {
            self.pairs.push((current, original));
        }
        self.group_of.push(group);
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// True when there are no queries.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.pairs.len()
    }

    /// The group of every query.
    pub fn group_of(&self) -> &[u32] {
        &self.group_of
    }

    /// The vector group `g`'s members start a greedy run with.
    pub fn current(&self, g: usize) -> &FeatureVec {
        &self.vectors[self.pairs[g].0 as usize]
    }

    /// The pristine vector of group `g`'s members (Alg 2 line 12).
    pub fn original(&self, g: usize) -> &FeatureVec {
        &self.vectors[self.pairs[g].1 as usize]
    }

    /// The pristine vector of query `i`.
    pub fn original_of(&self, i: usize) -> &FeatureVec {
        self.original(self.group_of[i] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isum_common::{ColumnId, GlobalColumnId, TableId};

    fn fv(entries: &[(u32, f64)]) -> FeatureVec {
        FeatureVec::from_entries(
            entries
                .iter()
                .map(|&(c, w)| (GlobalColumnId::new(TableId(0), ColumnId(c)), w))
                .collect(),
        )
    }

    #[test]
    fn bit_equal_queries_share_a_group() {
        let features = vec![fv(&[(0, 1.0)]), fv(&[(1, 0.5)]), fv(&[(0, 1.0)]), fv(&[(0, 0.5)])];
        let g = Grouping::from_queries(&features);
        assert_eq!(g.len(), 4);
        assert_eq!(g.groups(), 3);
        assert_eq!(g.group_of(), &[0, 1, 0, 2]);
        for (i, f) in features.iter().enumerate() {
            assert_eq!(g.original_of(i), f);
        }
    }

    #[test]
    fn signed_zeros_are_different_vectors() {
        let g = Grouping::from_queries(&[fv(&[(0, 0.0)]), fv(&[(0, -0.0)])]);
        assert_eq!(g.groups(), 2, "== would merge them; bit equality must not");
    }

    #[test]
    fn pairs_group_on_both_vectors() {
        let original = vec![fv(&[(0, 1.0)]), fv(&[(0, 1.0)]), fv(&[(0, 1.0)])];
        let current = vec![fv(&[(0, 0.0)]), fv(&[(0, 1.0)]), fv(&[(0, 0.0)])];
        let g = Grouping::from_pairs(current.clone(), &original);
        assert_eq!(g.group_of(), &[0, 1, 0]);
        assert_eq!(g.current(0), &current[0]);
        assert_eq!(g.original(0), &original[0]);
        assert_eq!(g.current(1), g.original(1));
    }
}
