//! Dense bitset over node ids.
//!
//! Pebbling solvers manipulate sets of nodes (red pebbles per processor,
//! blue pebbles, computed sets) millions of times; `NodeSet` is a compact
//! `u64`-block bitset sized to the DAG it belongs to, with the operations
//! those solvers need: insert/remove/contains, subset/superset tests,
//! union/intersection/difference, iteration, and hashing (so whole game
//! configurations can key hash maps).

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::NodeId;

const BITS: usize = 64;

/// A dense set of [`NodeId`]s backed by `u64` blocks.
///
/// All sets participating in an operation must have been created with the
/// same universe size (the number of nodes of one DAG); mixing sizes is a
/// logic error and panics in debug builds.
#[derive(PartialEq, Eq, Default)]
pub struct NodeSet {
    blocks: Vec<u64>,
    /// Number of valid bits (the universe size).
    universe: usize,
}

impl Clone for NodeSet {
    #[inline]
    fn clone(&self) -> Self {
        NodeSet {
            blocks: self.blocks.clone(),
            universe: self.universe,
        }
    }

    /// Copies into the existing blocks: no allocation when the
    /// universes match (the derived impl would reallocate).
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.blocks.clone_from(&source.blocks);
        self.universe = source.universe;
    }
}

impl NodeSet {
    /// Creates an empty set over a universe of `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        NodeSet {
            blocks: vec![0; n.div_ceil(BITS)],
            universe: n,
        }
    }

    /// Creates a set containing every node of the `n`-node universe.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut s = Self::new(n);
        for (i, b) in s.blocks.iter_mut().enumerate() {
            let lo = i * BITS;
            let hi = (lo + BITS).min(n);
            if hi > lo {
                *b = if hi - lo == BITS {
                    u64::MAX
                } else {
                    (1u64 << (hi - lo)) - 1
                };
            }
        }
        s
    }

    /// Builds a set from an iterator of node ids.
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(n: usize, iter: I) -> Self {
        let mut s = Self::new(n);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// The universe size this set was created with.
    #[inline]
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of elements in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Inserts `v`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let (blk, bit) = Self::slot(v);
        debug_assert!((v.index()) < self.universe, "node {v:?} outside universe");
        let had = self.blocks[blk] & bit != 0;
        self.blocks[blk] |= bit;
        !had
    }

    /// Removes `v`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let (blk, bit) = Self::slot(v);
        debug_assert!((v.index()) < self.universe, "node {v:?} outside universe");
        let had = self.blocks[blk] & bit != 0;
        self.blocks[blk] &= !bit;
        had
    }

    /// Membership test.
    #[inline]
    #[must_use]
    pub fn contains(&self, v: NodeId) -> bool {
        let (blk, bit) = Self::slot(v);
        debug_assert!((v.index()) < self.universe, "node {v:?} outside universe");
        self.blocks[blk] & bit != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// `self ⊆ other`.
    #[must_use]
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// `self ⊇ other`.
    #[must_use]
    pub fn is_superset(&self, other: &NodeSet) -> bool {
        other.is_subset(self)
    }

    /// Whether the two sets share no element.
    #[must_use]
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Returns `self ∪ other` as a new set.
    #[must_use]
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    #[must_use]
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other` as a new set.
    #[must_use]
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Number of elements in `self ∩ other` without materializing it.
    #[must_use]
    pub fn intersection_len(&self, other: &NodeSet) -> usize {
        debug_assert_eq!(self.universe, other.universe);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates the elements in increasing id order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// The smallest element, if any.
    #[must_use]
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    #[inline]
    fn slot(v: NodeId) -> (usize, u64) {
        let i = v.index();
        (i / BITS, 1u64 << (i % BITS))
    }
}

impl Hash for NodeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Universe is fixed per DAG, so hashing blocks suffices.
        self.blocks.hash(state);
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|v| v.index()))
            .finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Collects into a set whose universe is the max id + 1.
    ///
    /// Prefer [`NodeSet::from_iter`] with an explicit universe when the set
    /// will be combined with sets of a known DAG.
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let n = ids.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        NodeSet::from_iter(n, ids)
    }
}

/// Iterator over the elements of a [`NodeSet`].
pub struct NodeSetIter<'a> {
    set: &'a NodeSet,
    block: usize,
    bits: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(NodeId::new(self.block * BITS + tz));
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = NodeSetIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A set of [`NodeId`]s that switches representation by density.
///
/// Small sets over a large universe are kept as a sorted `u32` vector
/// (4 bytes per element); once the set grows past roughly one element
/// per 32 universe slots it is promoted to a dense [`NodeSet`] bitset
/// (universe/8 bytes regardless of population). Demotion back to sparse
/// happens at half the promotion threshold, so a set oscillating around
/// the boundary does not thrash between representations.
///
/// The streaming scheduler tier ([`rbp-stream`]) keeps one of these per
/// processor for the red pebbles: red sets are bounded by the memory
/// parameter `r`, so on a million-node DAG they stay sparse and cost
/// `O(r)` bytes instead of `O(n/8)`.
///
/// Unlike [`NodeSet`], equality and hashing are defined over the
/// *elements*, so a sparse set equals a dense set holding the same ids.
/// Both representations iterate in increasing id order.
///
/// [`rbp-stream`]: https://docs.rs/rbp-stream
#[derive(Clone)]
pub struct HybridNodeSet {
    universe: usize,
    repr: HybridRepr,
}

#[derive(Clone)]
enum HybridRepr {
    /// Sorted, duplicate-free element vector.
    Sparse(Vec<u32>),
    Dense(NodeSet),
}

impl HybridNodeSet {
    /// Creates an empty (sparse) set over a universe of `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        HybridNodeSet {
            universe: n,
            repr: HybridRepr::Sparse(Vec::new()),
        }
    }

    /// Builds a set from an iterator of node ids.
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(n: usize, iter: I) -> Self {
        let mut s = Self::new(n);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Elements per universe slot above which the set goes dense: one
    /// element per 32 slots (sparse storage would exceed the bitset).
    #[inline]
    fn promote_at(&self) -> usize {
        self.universe / 32 + 1
    }

    /// The universe size this set was created with.
    #[inline]
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Whether the set currently uses the dense bitset representation
    /// (exposed for the promotion/demotion boundary tests).
    #[must_use]
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, HybridRepr::Dense(_))
    }

    /// Number of elements in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            HybridRepr::Sparse(v) => v.len(),
            HybridRepr::Dense(s) => s.len(),
        }
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            HybridRepr::Sparse(v) => v.is_empty(),
            HybridRepr::Dense(s) => s.is_empty(),
        }
    }

    /// Inserts `v`; returns `true` if it was not already present.
    pub fn insert(&mut self, v: NodeId) -> bool {
        debug_assert!(v.index() < self.universe, "node {v:?} outside universe");
        let inserted = match &mut self.repr {
            HybridRepr::Sparse(xs) => match xs.binary_search(&v.0) {
                Ok(_) => false,
                Err(pos) => {
                    xs.insert(pos, v.0);
                    true
                }
            },
            HybridRepr::Dense(s) => s.insert(v),
        };
        if inserted {
            self.maybe_promote();
        }
        inserted
    }

    /// Removes `v`; returns `true` if it was present.
    pub fn remove(&mut self, v: NodeId) -> bool {
        debug_assert!(v.index() < self.universe, "node {v:?} outside universe");
        let removed = match &mut self.repr {
            HybridRepr::Sparse(xs) => match xs.binary_search(&v.0) {
                Ok(pos) => {
                    xs.remove(pos);
                    true
                }
                Err(_) => false,
            },
            HybridRepr::Dense(s) => s.remove(v),
        };
        if removed {
            self.maybe_demote();
        }
        removed
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, v: NodeId) -> bool {
        match &self.repr {
            HybridRepr::Sparse(xs) => xs.binary_search(&v.0).is_ok(),
            HybridRepr::Dense(s) => s.contains(v),
        }
    }

    /// Removes all elements (and returns to the sparse representation,
    /// releasing the bitset).
    pub fn clear(&mut self) {
        self.repr = HybridRepr::Sparse(Vec::new());
    }

    /// Iterates the elements in increasing id order (both
    /// representations).
    pub fn iter(&self) -> HybridNodeSetIter<'_> {
        match &self.repr {
            HybridRepr::Sparse(xs) => HybridNodeSetIter::Sparse(xs.iter()),
            HybridRepr::Dense(s) => HybridNodeSetIter::Dense(s.iter()),
        }
    }

    /// The smallest element, if any.
    #[must_use]
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// Copies into a dense [`NodeSet`] of the same universe.
    #[must_use]
    pub fn to_dense(&self) -> NodeSet {
        match &self.repr {
            HybridRepr::Sparse(xs) => {
                NodeSet::from_iter(self.universe, xs.iter().map(|&x| NodeId(x)))
            }
            HybridRepr::Dense(s) => s.clone(),
        }
    }

    fn maybe_promote(&mut self) {
        if let HybridRepr::Sparse(xs) = &self.repr {
            if xs.len() > self.promote_at() {
                let dense = NodeSet::from_iter(self.universe, xs.iter().map(|&x| NodeId(x)));
                self.repr = HybridRepr::Dense(dense);
            }
        }
    }

    fn maybe_demote(&mut self) {
        if let HybridRepr::Dense(s) = &self.repr {
            if s.len() <= self.promote_at() / 2 {
                let xs: Vec<u32> = s.iter().map(|v| v.0).collect();
                self.repr = HybridRepr::Sparse(xs);
            }
        }
    }
}

impl PartialEq for HybridNodeSet {
    /// Element-wise equality: representations may differ.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for HybridNodeSet {}

impl Hash for HybridNodeSet {
    /// Hashes the element sequence, so equal sets hash equal regardless
    /// of representation.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len().hash(state);
        for v in self.iter() {
            v.0.hash(state);
        }
    }
}

impl fmt::Debug for HybridNodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|v| v.index()))
            .finish()
    }
}

/// Iterator over the elements of a [`HybridNodeSet`].
pub enum HybridNodeSetIter<'a> {
    /// Iterating the sorted sparse vector.
    Sparse(std::slice::Iter<'a, u32>),
    /// Iterating the dense bitset.
    Dense(NodeSetIter<'a>),
}

impl Iterator for HybridNodeSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match self {
            HybridNodeSetIter::Sparse(it) => it.next().map(|&x| NodeId(x)),
            HybridNodeSetIter::Dense(it) => it.next(),
        }
    }
}

impl<'a> IntoIterator for &'a HybridNodeSet {
    type Item = NodeId;
    type IntoIter = HybridNodeSetIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(xs: &[usize]) -> Vec<NodeId> {
        xs.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn empty_set_basics() {
        let s = NodeSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.universe(), 10);
        assert!(!s.contains(NodeId::new(3)));
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(100);
        assert!(s.insert(NodeId::new(5)));
        assert!(!s.insert(NodeId::new(5)));
        assert!(s.insert(NodeId::new(64)));
        assert!(s.insert(NodeId::new(99)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId::new(64)));
        assert!(s.remove(NodeId::new(64)));
        assert!(!s.remove(NodeId::new(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn full_set() {
        for n in [0, 1, 63, 64, 65, 128, 130] {
            let s = NodeSet::full(n);
            assert_eq!(s.len(), n, "full({n})");
            assert_eq!(s.iter().count(), n);
        }
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s = NodeSet::from_iter(200, ids(&[199, 0, 63, 64, 65, 128]));
        let got: Vec<usize> = s.iter().map(|v| v.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_iter(70, ids(&[1, 2, 3, 65]));
        let b = NodeSet::from_iter(70, ids(&[2, 3, 4, 66]));
        assert_eq!(
            a.union(&b).iter().map(|v| v.index()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 65, 66]
        );
        assert_eq!(
            a.intersection(&b)
                .iter()
                .map(|v| v.index())
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(
            a.difference(&b)
                .iter()
                .map(|v| v.index())
                .collect::<Vec<_>>(),
            vec![1, 65]
        );
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    fn subset_superset_disjoint() {
        let a = NodeSet::from_iter(80, ids(&[1, 2]));
        let b = NodeSet::from_iter(80, ids(&[1, 2, 70]));
        let c = NodeSet::from_iter(80, ids(&[3, 71]));
        assert!(a.is_subset(&b));
        assert!(b.is_superset(&a));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn clear_resets() {
        let mut s = NodeSet::from_iter(10, ids(&[1, 9]));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn first_returns_minimum() {
        let s = NodeSet::from_iter(128, ids(&[100, 64, 127]));
        assert_eq!(s.first(), Some(NodeId::new(64)));
        assert_eq!(NodeSet::new(5).first(), None);
    }

    #[test]
    fn eq_and_hash_agree() {
        use std::collections::hash_map::DefaultHasher;
        let a = NodeSet::from_iter(90, ids(&[5, 80]));
        let b = NodeSet::from_iter(90, ids(&[80, 5]));
        assert_eq!(a, b);
        let h = |s: &NodeSet| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn collect_from_iterator() {
        let s: NodeSet = ids(&[0, 2, 4]).into_iter().collect();
        assert_eq!(s.universe(), 5);
        assert_eq!(s.len(), 3);
    }

    // ---- HybridNodeSet ----

    #[test]
    fn hybrid_basics() {
        let mut s = HybridNodeSet::new(1000);
        assert!(s.is_empty());
        assert!(!s.is_dense());
        assert!(s.insert(NodeId::new(7)));
        assert!(!s.insert(NodeId::new(7)));
        assert!(s.contains(NodeId::new(7)));
        assert!(!s.contains(NodeId::new(8)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId::new(7)));
        assert!(!s.remove(NodeId::new(7)));
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }

    #[test]
    fn hybrid_promotes_and_demotes_at_density_boundaries() {
        let n = 6400; // promote_at = 201
        let mut s = HybridNodeSet::new(n);
        let promote = n / 32 + 1;
        for i in 0..promote {
            s.insert(NodeId::new(i * 3));
            assert!(!s.is_dense(), "still sparse at {} elements", i + 1);
        }
        s.insert(NodeId::new(promote * 3));
        assert!(s.is_dense(), "promoted past {promote} elements");
        // Remove down to the demotion boundary (half the promotion one).
        while s.len() > promote / 2 {
            let v = s.first().unwrap();
            s.remove(v);
            if s.len() > promote / 2 {
                assert!(s.is_dense(), "no demotion until len ≤ {}", promote / 2);
            }
        }
        assert!(!s.is_dense(), "demoted at len {}", s.len());
        // Contents survived both transitions.
        assert_eq!(s.len(), promote / 2);
    }

    #[test]
    fn hybrid_iteration_order_is_increasing_in_both_representations() {
        let mut sparse = HybridNodeSet::new(10_000);
        for &i in &[9999usize, 0, 63, 64, 65, 128] {
            sparse.insert(NodeId::new(i));
        }
        assert!(!sparse.is_dense());
        let got: Vec<usize> = sparse.iter().map(|v| v.index()).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 128, 9999]);

        let dense = HybridNodeSet::from_iter(64, ids(&[63, 0, 5, 7, 9, 11, 13]));
        assert!(dense.is_dense(), "64/32+1 = 3 < 7 elements");
        let got: Vec<usize> = dense.iter().map(|v| v.index()).collect();
        assert_eq!(got, vec![0, 5, 7, 9, 11, 13, 63]);
    }

    #[test]
    fn hybrid_equality_and_hash_across_representations() {
        use std::collections::hash_map::DefaultHasher;
        // Same elements, one sparse (huge universe) vs one dense (tiny).
        let mut a = HybridNodeSet::new(100);
        let mut b = HybridNodeSet::new(100);
        for &i in &[1usize, 2, 3] {
            a.insert(NodeId::new(i));
        }
        assert!(!a.is_dense(), "3 elements over universe 100 stay sparse");
        // Force b dense by filling then draining (demotion needs len ≤ 2).
        for i in 0..50 {
            b.insert(NodeId::new(i));
        }
        assert!(b.is_dense());
        for i in 0..50 {
            if ![1, 2, 3].contains(&i) {
                b.remove(NodeId::new(i));
            }
        }
        assert!(b.is_dense(), "len 3 is above the demotion boundary");
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b, "sparse == dense with identical elements");
        let h = |s: &HybridNodeSet| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&a), h(&b));
        b.insert(NodeId::new(99));
        assert_ne!(a, b);
    }

    #[test]
    fn hybrid_clear_returns_to_sparse() {
        let mut s = HybridNodeSet::from_iter(64, (0..64).map(NodeId::new));
        assert!(s.is_dense());
        s.clear();
        assert!(s.is_empty());
        assert!(!s.is_dense());
        assert_eq!(s.universe(), 64);
    }

    #[test]
    fn hybrid_to_dense_matches() {
        let s = HybridNodeSet::from_iter(300, ids(&[0, 7, 256]));
        let d = s.to_dense();
        assert_eq!(d.universe(), 300);
        assert_eq!(d.iter().collect::<Vec<_>>(), s.iter().collect::<Vec<_>>());
    }

    /// Seeded randomized differential test: a HybridNodeSet and the
    /// dense NodeSet driven by the same operation stream must agree on
    /// every observable after every step.
    #[test]
    fn hybrid_differential_against_dense() {
        // xorshift64* — deterministic, no external RNG.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for &n in &[1usize, 31, 32, 33, 64, 100, 1000] {
            let mut hybrid = HybridNodeSet::new(n);
            let mut dense = NodeSet::new(n);
            for step in 0..2000 {
                let x = rng();
                let v = NodeId::new((x >> 8) as usize % n);
                match x % 4 {
                    0 | 1 => assert_eq!(hybrid.insert(v), dense.insert(v), "insert {v} (n={n})"),
                    2 => assert_eq!(hybrid.remove(v), dense.remove(v), "remove {v} (n={n})"),
                    _ => assert_eq!(hybrid.contains(v), dense.contains(v), "contains {v}"),
                }
                assert_eq!(hybrid.len(), dense.len(), "len after step {step} (n={n})");
                if step % 97 == 0 {
                    assert!(hybrid.iter().eq(dense.iter()), "iteration diverged (n={n})");
                    assert_eq!(hybrid.to_dense(), dense);
                }
            }
        }
    }
}
