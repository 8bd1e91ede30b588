//! Positive AXML tree patterns (Section 3.1).
//!
//! A pattern is a tree whose nodes are either constants (ordinary
//! markings) or one of the paper's four variable kinds:
//!
//! * **label variables** range over labels,
//! * **function variables** range over function names,
//! * **value variables** range over atomic values (leaves),
//! * **tree variables** range over whole subtrees (leaves of the
//!   pattern; matching one copies arbitrary document structure — the
//!   feature whose absence defines *simple* queries).

use crate::error::{AxmlError, Result};
use crate::sym::{FxHashSet, Sym};
use crate::tree::{Marking, Tree};
use std::fmt;

/// One pattern-node item: a constant marking or a typed variable.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PItem {
    /// A constant label / function name / atomic value.
    Const(Marking),
    /// Label variable `?x`.
    LabelVar(Sym),
    /// Function variable `@?f`.
    FuncVar(Sym),
    /// Value variable `$x` (leaf).
    ValueVar(Sym),
    /// Tree variable `#X` (leaf).
    TreeVar(Sym),
}

impl PItem {
    /// The variable name, if this item is a variable.
    pub fn var(&self) -> Option<Sym> {
        match *self {
            PItem::LabelVar(v) | PItem::FuncVar(v) | PItem::ValueVar(v) | PItem::TreeVar(v) => {
                Some(v)
            }
            PItem::Const(_) => None,
        }
    }

    /// Must this item mark a pattern leaf?
    pub fn leaf_only(&self) -> bool {
        matches!(
            self,
            PItem::ValueVar(_) | PItem::TreeVar(_) | PItem::Const(Marking::Value(_))
        )
    }
}

impl fmt::Display for PItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PItem::Const(m) => write!(f, "{m}"),
            PItem::LabelVar(v) => write!(f, "?{v}"),
            PItem::FuncVar(v) => write!(f, "@?{v}"),
            PItem::ValueVar(v) => write!(f, "${v}"),
            PItem::TreeVar(v) => write!(f, "#{v}"),
        }
    }
}

/// Index of a node inside one [`Pattern`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PNodeId(pub u32);

impl PNodeId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct PNode {
    item: PItem,
    children: Vec<PNodeId>,
}

/// A positive AXML tree pattern.
#[derive(Clone, Debug)]
pub struct Pattern {
    nodes: Vec<PNode>,
    root: PNodeId,
}

impl Pattern {
    /// Single-node pattern.
    pub fn new(item: PItem) -> Pattern {
        Pattern {
            nodes: vec![PNode {
                item,
                children: Vec::new(),
            }],
            root: PNodeId(0),
        }
    }

    /// The root node.
    pub fn root(&self) -> PNodeId {
        self.root
    }

    /// The item at `n`.
    pub fn item(&self, n: PNodeId) -> &PItem {
        &self.nodes[n.idx()].item
    }

    /// Children of `n`.
    pub fn children(&self, n: PNodeId) -> &[PNodeId] {
        &self.nodes[n.idx()].children
    }

    /// Add a child item under `parent`, enforcing leaf-only items.
    pub fn add_child(&mut self, parent: PNodeId, item: PItem) -> Result<PNodeId> {
        if self.nodes[parent.idx()].item.leaf_only() {
            let v = self.nodes[parent.idx()]
                .item
                .var()
                .unwrap_or_else(|| Sym::intern("<value>"));
            return Err(AxmlError::NonLeafPatternVariable(v));
        }
        let id = PNodeId(self.nodes.len() as u32);
        self.nodes.push(PNode {
            item,
            children: Vec::new(),
        });
        self.nodes[parent.idx()].children.push(id);
        Ok(id)
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth (edge count) of the pattern.
    pub fn depth(&self) -> usize {
        fn go(p: &Pattern, n: PNodeId) -> usize {
            p.children(n)
                .iter()
                .map(|&c| 1 + go(p, c))
                .max()
                .unwrap_or(0)
        }
        go(self, self.root)
    }

    /// All node ids in preorder.
    pub fn node_ids(&self) -> Vec<PNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n).iter().copied());
        }
        out
    }

    /// The set of variables occurring in this pattern.
    pub fn variables(&self) -> FxHashSet<Sym> {
        self.node_ids()
            .into_iter()
            .filter_map(|n| self.item(n).var())
            .collect()
    }

    /// The multiset count of a given tree variable's occurrences.
    pub fn tree_var_occurrences(&self) -> Vec<Sym> {
        self.node_ids()
            .into_iter()
            .filter_map(|n| match self.item(n) {
                PItem::TreeVar(v) => Some(*v),
                _ => None,
            })
            .collect()
    }

    /// Does this pattern use any tree variable?
    pub fn uses_tree_vars(&self) -> bool {
        !self.tree_var_occurrences().is_empty()
    }

    /// Is this pattern entirely ground (no variables)?
    pub fn is_ground(&self) -> bool {
        self.variables().is_empty()
    }

    /// Structural equality as ordered trees: identical items and child
    /// lists, recursively. Conservative for the unordered pattern
    /// semantics (reordered children compare unequal), which is exactly
    /// what the duplicate-conjunct pass in [`crate::compile`] needs — a
    /// sound, cheap witness that two atoms denote the same relation.
    pub fn structurally_eq(&self, other: &Pattern) -> bool {
        fn go(a: &Pattern, an: PNodeId, b: &Pattern, bn: PNodeId) -> bool {
            a.item(an) == b.item(bn)
                && a.children(an).len() == b.children(bn).len()
                && a.children(an)
                    .iter()
                    .zip(b.children(bn))
                    .all(|(&ac, &bc)| go(a, ac, b, bc))
        }
        go(self, self.root, other, other.root)
    }

    /// Convert a ground pattern into a tree. Errors with the offending
    /// variable if the pattern is not ground.
    pub fn to_tree(&self) -> Result<Tree> {
        fn marking_of(item: &PItem) -> Result<Marking> {
            match item {
                PItem::Const(m) => Ok(*m),
                other => Err(AxmlError::UnsafeHeadVariable(
                    other.var().expect("non-const items carry a variable"),
                )),
            }
        }
        let mut t = Tree::new(marking_of(self.item(self.root))?);
        let mut stack = vec![(self.root, t.root())];
        while let Some((pn, tn)) = stack.pop() {
            for &pc in self.children(pn) {
                let m = marking_of(self.item(pc))?;
                let tc = t.add_child(tn, m).expect("pattern shape is tree-valid");
                stack.push((pc, tc));
            }
        }
        Ok(t)
    }

    /// Copy the subtree of this pattern rooted at `n` into a fresh
    /// pattern. Used by the provenance layer to locate the document
    /// nodes each top-level body-atom conjunct embedded into.
    pub fn subpattern(&self, n: PNodeId) -> Pattern {
        let mut p = Pattern::new(self.item(n).clone());
        let mut stack = vec![(n, p.root())];
        while let Some((sn, dn)) = stack.pop() {
            for &sc in self.children(sn) {
                let dc = p
                    .add_child(dn, self.item(sc).clone())
                    .expect("subtree of a valid pattern is valid");
                stack.push((sc, dc));
            }
        }
        p
    }

    /// Build a pattern that matches a tree exactly (all constants).
    pub fn from_tree(t: &Tree) -> Pattern {
        let mut p = Pattern::new(PItem::Const(t.marking(t.root())));
        let mut stack = vec![(t.root(), p.root())];
        while let Some((tn, pn)) = stack.pop() {
            for &tc in t.children(tn) {
                let pc = p
                    .add_child(pn, PItem::Const(t.marking(tc)))
                    .expect("tree invariants imply pattern invariants");
                stack.push((tc, pc));
            }
        }
        p
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &Pattern, n: PNodeId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", p.item(n))?;
            if !p.children(n).is_empty() {
                write!(f, "{{")?;
                for (i, &c) in p.children(n).iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    go(p, c, f)?;
                }
                write!(f, "}}")?;
            }
            Ok(())
        }
        go(self, self.root, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_pattern, parse_tree};
    use crate::subsume::equivalent;

    #[test]
    fn variables_collected() {
        let p = parse_pattern("r{t{a{$x}, b{?z}, #T, @?f}}").unwrap();
        let vars = p.variables();
        for v in ["x", "z", "T", "f"] {
            assert!(vars.contains(&Sym::intern(v)), "missing {v}");
        }
        assert!(p.uses_tree_vars());
        assert_eq!(p.tree_var_occurrences(), vec![Sym::intern("T")]);
    }

    #[test]
    fn leaf_only_enforced_programmatically() {
        let mut p = Pattern::new(PItem::TreeVar(Sym::intern("X")));
        assert!(p
            .add_child(p.root(), PItem::Const(Marking::label("a")))
            .is_err());
    }

    #[test]
    fn ground_roundtrip() {
        let t = parse_tree(r#"a{b{"1"}, @f{c}}"#).unwrap();
        let p = Pattern::from_tree(&t);
        assert!(p.is_ground());
        let back = p.to_tree().unwrap();
        assert!(equivalent(&t, &back));
    }

    #[test]
    fn to_tree_rejects_variables() {
        let p = parse_pattern("a{$x}").unwrap();
        assert!(p.to_tree().is_err());
    }

    #[test]
    fn display_roundtrip() {
        let src = r#"r{t{a{$x},b{?z},#T}}"#;
        let p = parse_pattern(src).unwrap();
        let p2 = parse_pattern(&p.to_string()).unwrap();
        assert_eq!(p.to_string(), p2.to_string());
    }

    #[test]
    fn depth_and_counts() {
        let p = parse_pattern("a{b{c{d}},e}").unwrap();
        assert_eq!(p.depth(), 3);
        assert_eq!(p.node_count(), 5);
    }
}
