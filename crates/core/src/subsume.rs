//! Tree subsumption (Definition 2.2) and equivalence.
//!
//! `d1 ⊆ d2` iff there is a mapping `h` from the nodes of `d1` to those of
//! `d2` that sends root to root, preserves the parent-child relation, and
//! preserves markings. Because `h` need not be injective, subsumption
//! coincides with *tree simulation*: a node `u` embeds below `v` iff their
//! markings agree and every child of `u` embeds below some child of `v`.
//! This gives the PTIME bound of Proposition 2.1 (3) via the simulation
//! construction the paper cites (Henzinger–Henzinger–Kopke).

use crate::sym::FxHashMap;
use crate::tree::{NodeId, Tree};
use std::cmp::Ordering;

/// Memoized subsumption checker. Entries are keyed by tree identity
/// ([`Tree::id`]) alongside node ids, so one memo may be shared across
/// any number of tree pairs — e.g. checking every tree of a result
/// forest against the same document's children during an invocation.
///
/// Memo entries are valid as long as the compared subtrees do not change;
/// [`mod@crate::reduce`] guarantees this by working in post-order, and
/// grafting preserves it because a graft only appends *new* children
/// under the graft point.
pub struct SubMemo {
    memo: FxHashMap<(TreeNode, TreeNode), bool>,
}

/// A node addressed across trees: `(tree id, node id)`.
type TreeNode = (u64, NodeId);

impl SubMemo {
    /// Fresh, empty memo.
    pub fn new() -> SubMemo {
        SubMemo {
            memo: FxHashMap::default(),
        }
    }

    /// Does the subtree of `a` at `na` embed into the subtree of `b` at
    /// `nb` (i.e. `a|na ⊆ b|nb`)?
    pub fn subsumed_at(&mut self, a: &Tree, na: NodeId, b: &Tree, nb: NodeId) -> bool {
        let key = ((a.id(), na), (b.id(), nb));
        if let Some(&r) = self.memo.get(&key) {
            return r;
        }
        let result = if a.marking(na) != b.marking(nb) {
            false
        } else {
            a.children(na).iter().all(|&ca| {
                // A child can only embed below a sibling with the same
                // marking, so filter the siblings by marking first: the
                // recursion never visits a pair it would reject on
                // markings alone.
                let m = a.marking(ca);
                b.children(nb)
                    .iter()
                    .filter(|&&cb| b.marking(cb) == m)
                    .any(|&cb| self.subsumed_at(a, ca, b, cb))
            })
        };
        self.memo.insert(key, result);
        result
    }

    /// Number of memoized node pairs (useful for complexity experiments).
    pub fn pairs_explored(&self) -> usize {
        self.memo.len()
    }
}

impl Default for SubMemo {
    fn default() -> Self {
        SubMemo::new()
    }
}

/// `a ⊆ b`: the whole tree `a` is subsumed by `b`.
pub fn subsumed(a: &Tree, b: &Tree) -> bool {
    SubMemo::new().subsumed_at(a, a.root(), b, b.root())
}

/// `a ≡ b`: mutual subsumption (the paper's document equivalence).
pub fn equivalent(a: &Tree, b: &Tree) -> bool {
    subsumed(a, b) && subsumed(b, a)
}

/// Compare two trees under the subsumption preorder.
///
/// Returns `Some(Ordering::Equal)` for equivalent trees,
/// `Some(Less)`/`Some(Greater)` for strict subsumption, and `None` for
/// incomparable trees.
pub fn compare(a: &Tree, b: &Tree) -> Option<Ordering> {
    let ab = subsumed(a, b);
    let ba = subsumed(b, a);
    match (ab, ba) {
        (true, true) => Some(Ordering::Equal),
        (true, false) => Some(Ordering::Less),
        (false, true) => Some(Ordering::Greater),
        (false, false) => None,
    }
}

/// Subsumption between two subtrees *of the same tree* (used by in-place
/// reduction for sibling pruning).
pub fn subsumed_within(t: &Tree, x: NodeId, y: NodeId, memo: &mut SubMemo) -> bool {
    memo.subsumed_at(t, x, t, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;

    fn t(s: &str) -> Tree {
        parse_tree(s).unwrap()
    }

    #[test]
    fn reflexive() {
        let a = t("a{b{c,c},b{c,d,d}}");
        assert!(subsumed(&a, &a));
    }

    #[test]
    fn paper_example_b_cc_into_b_cdd() {
        // The paper: a{b{c,c},b{c,d,d}} is not reduced since b{c,c} ⊆ b{c,d,d}.
        assert!(subsumed(&t("b{c,c}"), &t("b{c,d,d}")));
        assert!(!subsumed(&t("b{c,d,d}"), &t("b{c,c}")));
    }

    #[test]
    fn non_injective_mapping_allowed() {
        // Two c-children may map onto the single c-child.
        assert!(subsumed(&t("a{c,c}"), &t("a{c}")));
        assert!(equivalent(&t("a{c,c}"), &t("a{c}")));
    }

    #[test]
    fn markings_must_match() {
        assert!(!subsumed(&t("a"), &t("b")));
        assert!(!subsumed(&t(r#"a{"1"}"#), &t("a{x}")));
        // Function names are compared by name, not semantics (§2.1 remark).
        assert!(!subsumed(&t(r#"a{@f{"5"}}"#), &t(r#"a{@g{"5"}}"#)));
        assert!(subsumed(&t(r#"a{@f{"5"}}"#), &t(r#"a{@f{"5"}}"#)));
    }

    #[test]
    fn deeper_into_shallower_fails() {
        assert!(!subsumed(&t("a{b{c}}"), &t("a{b}")));
        assert!(subsumed(&t("a{b}"), &t("a{b{c}}")));
    }

    #[test]
    fn compare_orderings() {
        assert_eq!(compare(&t("a{b}"), &t("a{b{c}}")), Some(Ordering::Less));
        assert_eq!(compare(&t("a{b{c}}"), &t("a{b}")), Some(Ordering::Greater));
        assert_eq!(compare(&t("a{c,c}"), &t("a{c}")), Some(Ordering::Equal));
        assert_eq!(compare(&t("a{b}"), &t("a{c}")), None);
    }

    #[test]
    fn transitivity_spot_check() {
        let x = t("a{b}");
        let y = t("a{b,c}");
        let z = t("a{b,c,d{e}}");
        assert!(subsumed(&x, &y) && subsumed(&y, &z) && subsumed(&x, &z));
    }

    #[test]
    fn memo_is_polynomial() {
        // A pathological wide tree: memo size stays <= |T1|*|T2|.
        let mut s = String::from("a{");
        s.push_str(&vec!["b{c,d}"; 30].join(","));
        s.push('}');
        let big = t(&s);
        let mut memo = SubMemo::new();
        assert!(memo.subsumed_at(&big, big.root(), &big, big.root()));
        assert!(memo.pairs_explored() <= big.node_count() * big.node_count());
    }
}
