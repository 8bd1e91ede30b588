//! Forests — sets of AXML documents — with the paper's extensions of
//! subsumption, equivalence, and reduction to forests (§2.1).
//!
//! A forest `ϕ` is subsumed by `ϕ'` if each tree of `ϕ` is subsumed by
//! some tree of `ϕ'`. A forest is reduced if all its trees are reduced and
//! none is subsumed by another.
//!
//! [`Forest::reduce`] costs in proportion to the *distinct* trees of its
//! input rather than to all of them squared, and allocates per distinct
//! answer rather than per copy:
//!
//! - **No copy for reduced trees.** A tree in which no node has two
//!   children with the same marking is already reduced (subsumption
//!   needs equal root markings), so it is kept as it is — a clone, two
//!   `Arc` bumps. Other trees are reduced once, into a fresh tree.
//! - **Hash, then exact check.** Reduced versions are unique up to
//!   isomorphism (Prop 2.1 (2)), so equivalent reduced trees are
//!   isomorphic. Each reduced tree is keyed by a 64-bit structural hash
//!   that combines children commutatively (order-independent). Equal
//!   hashes are never trusted alone: an allocation-free isomorphism walk
//!   confirms them, and the first tree of each class is its
//!   representative.
//! - **Identity rule.** [`SubMemo`] keys by `(Tree::id, NodeId)`, and a
//!   clone keeps its id even after it diverges, so a kept input tree is
//!   used uncopied only if no earlier kept tree has the same id;
//!   otherwise it is copied into a fresh tree. The kept trees' ids are
//!   pairwise distinct.
//!
//! Representatives of distinct classes are never equivalent, so one
//! direction of subsumption is already strict, and only that direction is
//! checked. It runs only for pairs whose root signatures
//! ([`mod@crate::reduce`]'s height and Bloom filter) allow it, under one
//! memo shared by the whole pass.

use crate::reduce::{canon_of_reduced, reduce, siblings_distinct, subtree_sig, CanonKey, Sig};
use crate::subsume::{subsumed, SubMemo};
use crate::sym::{FxHashMap, FxHashSet, FxHasher};
use crate::tree::{Marking, NodeId, Tree};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasher, BuildHasherDefault};

/// A set of AXML trees.
#[derive(Clone, Debug, Default)]
pub struct Forest {
    trees: Vec<Tree>,
}

impl Forest {
    /// Empty forest.
    pub fn new() -> Forest {
        Forest { trees: Vec::new() }
    }

    /// Forest holding the given trees (not reduced automatically).
    pub fn from_trees(trees: Vec<Tree>) -> Forest {
        Forest { trees }
    }

    /// The trees.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Is the forest empty?
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Add a tree.
    pub fn push(&mut self, t: Tree) {
        self.trees.push(t);
    }

    /// Total node count across trees.
    pub fn node_count(&self) -> usize {
        self.trees.iter().map(Tree::node_count).sum()
    }

    /// Forest subsumption: every tree of `self` is subsumed by some tree
    /// of `other`.
    pub fn subsumed_by(&self, other: &Forest) -> bool {
        self.trees
            .iter()
            .all(|a| other.trees.iter().any(|b| subsumed(a, b)))
    }

    /// Forest equivalence: mutual subsumption.
    pub fn equivalent(&self, other: &Forest) -> bool {
        self.subsumed_by(other) && other.subsumed_by(self)
    }

    /// Reduce: reduce each tree, drop trees strictly subsumed by another,
    /// and deduplicate equivalent trees, keeping the first of each class.
    /// Survivors keep their input order.
    ///
    /// The algorithm (see the module doc):
    ///
    /// 1. reduce each tree once — or keep it uncopied when it is already
    ///    reduced — and key it with its structural hash, confirmed by an
    ///    exact isomorphism check; the first tree of each class is its
    ///    representative;
    /// 2. drop a representative `t` iff some *other* representative `u`
    ///    has `sig(t) ⊑ sig(u)` on signatures and `t ⊑ u`.
    ///
    /// Two representatives are not isomorphic, hence not equivalent, so
    /// `t ⊑ u` already means `t` is strictly below `u`. A tree strictly
    /// below some input tree is strictly below that tree's representative,
    /// so this drops exactly the classes the all-pairs definition drops.
    /// One [`SubMemo`] serves the whole pass: the representatives' ids are
    /// pairwise distinct (the identity rule) and none is mutated during
    /// the pass.
    pub fn reduce(&self) -> Forest {
        self.reduce_with(structural_hash).0
    }

    /// [`Forest::reduce`], also returning each survivor's root signature
    /// (in the survivors' order), which the pass computes anyway.
    pub(crate) fn reduce_with_sigs(&self) -> (Forest, Vec<Sig>) {
        self.reduce_with(structural_hash)
    }

    /// [`Forest::reduce_with_sigs`] under the structural hash `hash`,
    /// which must give isomorphic reduced trees equal values; any
    /// collision is resolved by the exact check.
    fn reduce_with(&self, hash: fn(&Tree, NodeId) -> u64) -> (Forest, Vec<Sig>) {
        let mut scratch: Vec<Marking> = Vec::new();
        // First representative of each hash; later ones with the same
        // hash (collisions) follow it in `reps`.
        let mut first: FxHashMap<u64, usize> = FxHashMap::default();
        // Ids of the input trees kept uncopied.
        let mut kept_ids: FxHashSet<u64> = FxHashSet::default();
        let mut reps: Vec<(Tree, u64, Sig)> = Vec::new();
        for t in &self.trees {
            let r: Cow<'_, Tree> = if siblings_distinct(t, t.root(), &mut scratch) {
                Cow::Borrowed(t)
            } else {
                Cow::Owned(reduce(t))
            };
            let h = hash(&r, r.root());
            let duplicate = match first.entry(h) {
                Entry::Vacant(e) => {
                    e.insert(reps.len());
                    false
                }
                Entry::Occupied(e) => reps[*e.get()..]
                    .iter()
                    .any(|(u, uh, _)| *uh == h && isomorphic(&r, r.root(), u, u.root())),
            };
            if duplicate {
                continue;
            }
            let r = match r {
                Cow::Borrowed(t) if kept_ids.insert(t.id()) => t.clone(),
                Cow::Borrowed(t) => t.compact(),
                Cow::Owned(t) => t,
            };
            let sig = subtree_sig(&r, r.root());
            reps.push((r, h, sig));
        }
        debug_assert!(
            reps.iter()
                .enumerate()
                .all(|(i, (t, ..))| reps[..i].iter().all(|(u, ..)| u.id() != t.id())),
            "kept trees share a Tree::id"
        );
        let mut memo = SubMemo::new();
        let (trees, sigs) = reps
            .iter()
            .enumerate()
            .filter(|&(i, (t, _, st))| {
                !reps.iter().enumerate().any(|(j, (u, _, su))| {
                    i != j && st.may_embed_in(*su) && memo.subsumed_at(t, t.root(), u, u.root())
                })
            })
            .map(|(_, (t, _, s))| (t.clone(), *s))
            .unzip();
        (Forest { trees }, sigs)
    }

    /// Canonical key of the reduced forest: sorted tree keys. Two forests
    /// are equivalent iff their canonical keys agree. Every tree of a
    /// reduced forest is itself reduced, so [`canon_of_reduced`] keys it
    /// without a second reduction.
    pub fn canonical_key(&self) -> Vec<CanonKey> {
        let mut keys: Vec<CanonKey> = self
            .reduce()
            .trees
            .iter()
            .map(|t| canon_of_reduced(t, t.root()))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Union of two forests (concatenation; call [`Forest::reduce`] to
    /// normalize).
    pub fn union(&self, other: &Forest) -> Forest {
        let mut trees = self.trees.clone();
        trees.extend(other.trees.iter().cloned());
        Forest { trees }
    }
}

impl FromIterator<Tree> for Forest {
    fn from_iter<I: IntoIterator<Item = Tree>>(iter: I) -> Forest {
        Forest {
            trees: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Forest {
    type Item = Tree;
    type IntoIter = std::vec::IntoIter<Tree>;

    fn into_iter(self) -> Self::IntoIter {
        self.trees.into_iter()
    }
}

/// Order-independent structural hash of the subtree at `n`: the marking,
/// the child count, and the wrapping sum of the children's hashes.
/// Isomorphic subtrees hash equal whatever their child order.
fn structural_hash(t: &Tree, n: NodeId) -> u64 {
    let kids = t.children(n);
    let sum = kids
        .iter()
        .fold(0u64, |acc, &c| acc.wrapping_add(structural_hash(t, c)));
    BuildHasherDefault::<FxHasher>::default().hash_one((t.marking(n), kids.len(), sum))
}

/// Are the subtrees of reduced trees `a` at `x` and `b` at `y`
/// isomorphic? Siblings of a reduced tree are pairwise non-isomorphic, so
/// a child of `x` matches at most one child of `y`: with equal child
/// counts, "every child of `x` matches some child of `y`" is a bijection.
/// Each node pair is visited at most once, so the walk is
/// `O(|a| · |b|)` and allocates nothing.
fn isomorphic(a: &Tree, x: NodeId, b: &Tree, y: NodeId) -> bool {
    let (xs, ys) = (a.children(x), b.children(y));
    a.marking(x) == b.marking(y)
        && xs.len() == ys.len()
        && xs
            .iter()
            .all(|&c| ys.iter().any(|&d| isomorphic(a, c, b, d)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;

    fn f(srcs: &[&str]) -> Forest {
        srcs.iter().map(|s| parse_tree(s).unwrap()).collect()
    }

    #[test]
    fn forest_subsumption() {
        let small = f(&["a{b}", "c"]);
        let big = f(&["a{b,x}", "c", "d"]);
        assert!(small.subsumed_by(&big));
        assert!(!big.subsumed_by(&small));
    }

    #[test]
    fn forest_reduce_drops_subsumed_and_duplicate_trees() {
        let forest = f(&["a{b}", "a{b,c}", "a{b}", "a{c,b}"]);
        let red = forest.reduce();
        assert_eq!(red.len(), 1);
        assert!(red.equivalent(&f(&["a{b,c}"])));
    }

    #[test]
    fn paper_example_snapshot_forest() {
        // Example 3.1 tree-variable result: {c{2},d{3},c{3},e{3}}.
        let forest = f(&[r#"c{"2"}"#, r#"d{"3"}"#, r#"c{"3"}"#, r#"e{"3"}"#]);
        let red = forest.reduce();
        assert_eq!(red.len(), 4); // pairwise incomparable
    }

    #[test]
    fn canonical_key_detects_equivalence() {
        let a = f(&["a{b,b}", "c{d}"]);
        let b = f(&["c{d,d}", "a{b}"]);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert!(a.equivalent(&b));
        let c = f(&["a{b}", "c"]);
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    /// Canonical keys of a forest's trees, in order.
    fn keys(f: &Forest) -> Vec<CanonKey> {
        f.trees().iter().map(crate::reduce::canonical_key).collect()
    }

    /// `t` with every node's children in reverse order: isomorphic to
    /// `t`, and a fresh tree.
    fn reversed(t: &Tree) -> Tree {
        fn go(t: &Tree, n: NodeId, out: &mut Tree, on: NodeId) {
            for &c in t.children(n).iter().rev() {
                let oc = out.add_child(on, t.marking(c)).unwrap();
                go(t, c, out, oc);
            }
        }
        let mut out = Tree::new(t.marking(t.root()));
        let root = out.root();
        go(t, t.root(), &mut out, root);
        out
    }

    #[test]
    fn constant_hash_keeps_the_real_hash_survivors() {
        // Under a constant hash every pair of trees collides, so every
        // dedup decision is the exact check's; the survivors must not
        // change. A dedup that trusted the hash would keep one tree.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut dropped = 0;
        for round in 0..64 {
            let mut trees: Vec<Tree> = Vec::new();
            for _ in 0..rng.gen_range(1..8usize) {
                let mut t = Tree::with_label("r");
                let mut interior = vec![t.root()];
                for _ in 0..rng.gen_range(0..8usize) {
                    let p = interior[rng.gen_range(0..interior.len())];
                    let l = format!("l{}", rng.gen_range(0..3u8));
                    interior.push(t.add_child(p, Marking::label(&l)).unwrap());
                }
                trees.push(t);
            }
            for i in 0..trees.len() {
                match rng.gen_range(0..3u8) {
                    0 => trees.push(trees[i].clone()),
                    1 => trees.push(reversed(&trees[i])),
                    _ => {}
                }
            }
            let forest = Forest::from_trees(trees);
            let real = forest.reduce();
            let constant = forest.reduce_with(|_, _| 0).0;
            assert_eq!(keys(&constant), keys(&real), "round {round}");
            dropped += forest.len() - real.len();
        }
        // Not vacuous: duplicates and permuted copies were dropped.
        assert!(dropped > 64, "{dropped}");
    }

    #[test]
    fn reduced_trees_are_kept_uncopied() {
        let a = parse_tree(r#"a{b{"1"},c}"#).unwrap();
        let red = Forest::from_trees(vec![a.clone()]).reduce();
        assert_eq!(red.trees()[0].id(), a.id());
        // A tree with two same-marking siblings is reduced into a copy.
        let b = parse_tree("a{b,b}").unwrap();
        let red = Forest::from_trees(vec![b.clone()]).reduce();
        assert_ne!(red.trees()[0].id(), b.id());
        assert_eq!(red.trees()[0].node_count(), 2);
    }

    #[test]
    fn diverged_clone_with_the_same_id_is_copied() {
        // `u` is a clone of `t` grown to strictly more: same `Tree::id`,
        // equal signatures, different content. Kept uncopied, both would
        // share memo entries, and the memoized `t ⊑ u` would also answer
        // `u ⊑ t`, dropping both.
        let t = parse_tree("a{b{c{b}},c{b}}").unwrap();
        let mut u = t.clone();
        let c = u.children(u.root())[1];
        let cb = u.children(c)[0];
        u.add_child(cb, Marking::label("c")).unwrap();
        assert_eq!(t.id(), u.id());
        let red = Forest::from_trees(vec![t, u.clone()]).reduce();
        assert_eq!(keys(&red), keys(&Forest::from_trees(vec![u.clone()])));
        assert_ne!(red.trees()[0].id(), u.id());
    }

    #[test]
    fn union_then_reduce() {
        let u = f(&["a{b}"]).union(&f(&["a{b,c}"])).reduce();
        assert_eq!(u.len(), 1);
    }

    #[test]
    fn empty_forest_behaviour() {
        let e = Forest::new();
        assert!(e.is_empty());
        assert!(e.subsumed_by(&f(&["a"])));
        assert!(e.equivalent(&Forest::new()));
        assert!(!f(&["a"]).subsumed_by(&e));
    }
}
