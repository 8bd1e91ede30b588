//! Forests — sets of AXML documents — with the paper's extensions of
//! subsumption, equivalence, and reduction to forests (§2.1).
//!
//! A forest `ϕ` is subsumed by `ϕ'` if each tree of `ϕ` is subsumed by
//! some tree of `ϕ'`. A forest is reduced if all its trees are reduced and
//! none is subsumed by another.
//!
//! [`Forest::reduce`] costs in proportion to the *distinct* trees of its
//! input rather than to all of them squared. It reduces each tree once and
//! keys it with [`canon_of_reduced`]. Reduced versions are unique up to
//! isomorphism (Prop 2.1 (2)), so equal keys are exactly equivalent trees:
//! a hash set keeps the first tree of each class. Representatives of
//! distinct classes are never equivalent, so one direction of subsumption
//! is already strict, and only that direction is checked. It runs only for
//! pairs whose root signatures ([`mod@crate::reduce`]'s height and Bloom
//! filter) allow it, under one memo shared by the whole pass.

use crate::reduce::{canon_of_reduced, reduce, subtree_sig, CanonKey, Sig};
use crate::subsume::{subsumed, SubMemo};
use crate::sym::FxHashSet;
use crate::tree::Tree;

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
    /// 1. reduce each tree once and key it with [`canon_of_reduced`]; the
    ///    first tree of each key is its class representative;
    /// 2. drop a representative `t` iff some *other* representative `u`
    ///    has `sig(t) ⊑ sig(u)` on signatures and `t ⊑ u`.
    ///
    /// Two representatives have distinct keys, hence are not equivalent,
    /// so `t ⊑ u` already means `t` is strictly below `u`. A tree strictly
    /// below some input tree is strictly below that tree's representative,
    /// so this drops exactly the classes the all-pairs definition drops.
    /// One [`SubMemo`] serves the whole pass: every reduced tree is a fresh
    /// tree with its own [`Tree::id`], never mutated afterwards.
    pub fn reduce(&self) -> Forest {
        let mut seen: FxHashSet<CanonKey> = FxHashSet::default();
        let reps: Vec<(Tree, Sig)> = self
            .trees
            .iter()
            .map(reduce)
            .filter(|t| seen.insert(canon_of_reduced(t, t.root())))
            .map(|t| {
                let sig = subtree_sig(&t, t.root());
                (t, sig)
            })
            .collect();
        let mut memo = SubMemo::new();
        let trees = reps
            .iter()
            .enumerate()
            .filter(|&(i, (t, st))| {
                !reps.iter().enumerate().any(|(j, (u, su))| {
                    i != j && st.may_embed_in(*su) && memo.subsumed_at(t, t.root(), u, u.root())
                })
            })
            .map(|(_, (t, _))| t.clone())
            .collect();
        Forest { trees }
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
