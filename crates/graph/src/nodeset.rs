//! A dense bitset over node ids.
//!
//! Dominating sets, MIS outputs, and coverage masks are all subsets of
//! `0..n`; a `u64`-word bitset gives O(n/64) union/intersection and
//! branch-free membership tests, which keeps the per-slot domination checks
//! in the schedule validator cheap (those checks dominate the validation
//! cost for long schedules).

use crate::csr::NodeId;

/// A fixed-universe set of node ids backed by a flat `Vec<u64>`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeSet {
    n: usize,
    /// Bits at positions `>= n` are always zero: every mutator keeps them
    /// so, and `len` and the word-level set operations count on it.
    words: Vec<u64>,
}

impl NodeSet {
    /// The empty set over universe `0..n`.
    pub fn new(n: usize) -> Self {
        NodeSet {
            n,
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// The full set `{0, …, n−1}`: whole `u64` words written at once,
    /// with the partial tail word masked down to the universe boundary.
    pub fn full(n: usize) -> Self {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(tail) = words.last_mut() {
                *tail = (1u64 << (n % 64)) - 1;
            }
        }
        NodeSet { n, words }
    }

    /// Builds a set from an iterator of node ids.
    ///
    /// # Panics
    /// Panics if any id is `>= n`.
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(n: usize, iter: I) -> Self {
        let mut s = NodeSet::new(n);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Universe size (not the cardinality; see [`NodeSet::len`]).
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `v`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let v = v as usize;
        assert!(v < self.n, "node {v} out of universe {}", self.n);
        let (w, b) = (v / 64, v % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let v = v as usize;
        assert!(v < self.n, "node {v} out of universe {}", self.n);
        let (w, b) = (v / 64, v % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        let v = v as usize;
        v < self.n && self.words[v / 64] & (1 << (v % 64)) != 0
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union with `other` (same universe).
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `|self ∩ other|` as a word-level AND+popcount scan, without
    /// materializing the intersection (same universe).
    pub fn intersection_count(&self, other: &NodeSet) -> usize {
        assert_eq!(self.n, other.n, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place intersection with `other` (same universe).
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference `self \ other` (same universe).
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Whether `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        assert_eq!(self.n, other.n, "universe mismatch");
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        assert_eq!(self.n, other.n, "universe mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates members in increasing order, one `trailing_zeros` per
    /// member (zero words are skipped in one comparison each).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some((wi * 64) as NodeId + b as NodeId)
                }
            })
        })
    }

    /// Collects members into a sorted `Vec` (sized up front from the
    /// popcount so the fill never reallocates).
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Builds a set whose universe is just large enough for the max element.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let items: Vec<NodeId> = iter.into_iter().collect();
        let n = items.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        NodeSet::from_iter(n, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::new(100);
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert!(s.remove(7));
        assert!(!s.remove(7));
        assert!(s.is_empty());
    }

    #[test]
    fn len_and_iter_order() {
        let s = NodeSet::from_iter(200, [5, 150, 63, 64, 0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.to_vec(), vec![0, 5, 63, 64, 150]);
    }

    #[test]
    fn full_set() {
        let s = NodeSet::full(65);
        assert_eq!(s.len(), 65);
        assert!(s.contains(64));
        assert!(!s.contains(65));
    }

    #[test]
    fn full_set_word_boundaries() {
        // The word-fill path must mask the tail exactly at every
        // alignment: empty, sub-word, word-aligned, word-plus-tail.
        for n in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            let s = NodeSet::full(n);
            assert_eq!(s.len(), n, "cardinality for n = {n}");
            assert_eq!(s.to_vec(), (0..n as NodeId).collect::<Vec<_>>());
            if n > 0 {
                assert!(s.contains(n as NodeId - 1));
            }
            assert!(!s.contains(n as NodeId));
        }
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_iter(10, [1, 2, 3]);
        let b = NodeSet::from_iter(10, [3, 4]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![1, 2, 3, 4]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![3]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![1, 2]);
    }

    #[test]
    fn disjoint_and_subset() {
        let a = NodeSet::from_iter(10, [1, 2]);
        let b = NodeSet::from_iter(10, [3, 4]);
        let c = NodeSet::from_iter(10, [1, 2, 3]);
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&c));
        assert!(a.is_subset(&c));
        assert!(!c.is_subset(&a));
    }

    #[test]
    fn intersection_count_matches_materialized_intersection() {
        let a = NodeSet::from_iter(200, [0, 5, 63, 64, 65, 130, 199]);
        let b = NodeSet::from_iter(200, [5, 64, 66, 130, 198, 199]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(a.intersection_count(&b), i.len());
        assert_eq!(a.intersection_count(&b), 4);
        assert_eq!(b.intersection_count(&a), 4);
    }

    #[test]
    fn intersection_count_partial_tail_word() {
        // Universe sizes that end mid-word: the tail word carries masked
        // high bits, and the popcount must only see in-universe members.
        for n in [1usize, 63, 65, 70, 127, 129] {
            let full = NodeSet::full(n);
            assert_eq!(full.intersection_count(&full), n, "full ∩ full at n = {n}");
            let empty = NodeSet::new(n);
            assert_eq!(full.intersection_count(&empty), 0, "full ∩ ∅ at n = {n}");
            if n > 1 {
                let last = NodeSet::from_iter(n, [n as NodeId - 1]);
                assert_eq!(full.intersection_count(&last), 1, "tail member at n = {n}");
            }
        }
    }

    #[test]
    fn union_with_partial_tail_word() {
        // union_with on masked operands must never set bits past the
        // universe boundary: the result of full ∪ full stays exactly full.
        for n in [1usize, 63, 64, 65, 70, 129] {
            let mut u = NodeSet::full(n);
            u.union_with(&NodeSet::full(n));
            assert_eq!(u.len(), n, "full ∪ full at n = {n}");
            assert_eq!(u, NodeSet::full(n));
            let mut v = NodeSet::new(n);
            v.union_with(&NodeSet::full(n));
            assert_eq!(v.to_vec(), (0..n as NodeId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = NodeSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        NodeSet::new(4).insert(4);
    }

    #[test]
    fn from_iterator_trait_sizes_universe() {
        let s: NodeSet = [2 as NodeId, 9].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert!(s.contains(9));
    }

    #[test]
    fn clear_resets() {
        let mut s = NodeSet::from_iter(10, [1, 2, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
