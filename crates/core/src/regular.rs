//! Regular trees as finite graphs (Lemma 3.2).
//!
//! A regular tree is a possibly-infinite tree with finitely many distinct
//! subtrees up to isomorphism; it can be represented by a finite rooted
//! graph whose unfolding is the tree (the paper cites Colmerauer's
//! rational trees). The semantics of every *simple* positive system is
//! regular, and [`crate::graphrepr`] builds exactly this representation.
//!
//! Subsumption between (possibly infinite) regular trees is decided on
//! their finite representations as a **greatest-fixpoint simulation**:
//! `u ⊑ v` iff markings agree and every child of `u` is simulated by some
//! child of `v` — computed by refining an all-pairs relation until
//! stable, which is sound for cyclic graphs where the tree-recursive
//! algorithm of [`crate::subsume`] would not terminate.

use crate::sym::{FxHashMap, FxHashSet};
use crate::tree::{Marking, NodeId, Tree};

/// Index of a node in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GNodeId(pub u32);

impl GNodeId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct GNode {
    marking: Marking,
    children: Vec<GNodeId>,
}

/// A finite graph whose unfoldings are (possibly infinite) AXML trees.
/// One arena may host several documents (shared subgraphs); each document
/// is identified by its root node.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: Vec<GNode>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Add an isolated node.
    pub fn add_node(&mut self, marking: Marking) -> GNodeId {
        let id = GNodeId(self.nodes.len() as u32);
        self.nodes.push(GNode {
            marking,
            children: Vec::new(),
        });
        id
    }

    /// Add edge `parent → child`; returns `true` if the edge is new.
    pub fn add_edge(&mut self, parent: GNodeId, child: GNodeId) -> bool {
        let kids = &mut self.nodes[parent.idx()].children;
        if kids.contains(&child) {
            false
        } else {
            kids.push(child);
            true
        }
    }

    /// The marking of a node.
    pub fn marking(&self, n: GNodeId) -> Marking {
        self.nodes[n.idx()].marking
    }

    /// Children (successor) nodes.
    pub fn children(&self, n: GNodeId) -> &[GNodeId] {
        &self.nodes[n.idx()].children
    }

    /// Total nodes in the arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total edges in the arena.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.children.len()).sum()
    }

    /// Copy the (finite) subtree of `t` at `tn` into the graph; returns
    /// the new root.
    pub fn import_subtree(&mut self, t: &Tree, tn: NodeId) -> GNodeId {
        let root = self.add_node(t.marking(tn));
        let mut stack = vec![(tn, root)];
        while let Some((s, d)) = stack.pop() {
            for &c in t.children(s) {
                let gc = self.add_node(t.marking(c));
                self.add_edge(d, gc);
                stack.push((c, gc));
            }
        }
        root
    }

    /// Copy a whole tree into the graph.
    pub fn import_tree(&mut self, t: &Tree) -> GNodeId {
        self.import_subtree(t, t.root())
    }

    /// Like [`Graph::import_subtree`], also returning the tree-node →
    /// graph-node correspondence (used to translate exclusion sets of
    /// function nodes into graph occurrences).
    pub fn import_subtree_mapped(
        &mut self,
        t: &Tree,
        tn: NodeId,
    ) -> (GNodeId, FxHashMap<NodeId, GNodeId>) {
        let mut map = FxHashMap::default();
        let root = self.add_node(t.marking(tn));
        map.insert(tn, root);
        let mut stack = vec![(tn, root)];
        while let Some((s, d)) = stack.pop() {
            for &c in t.children(s) {
                let gc = self.add_node(t.marking(c));
                self.add_edge(d, gc);
                map.insert(c, gc);
                stack.push((c, gc));
            }
        }
        (root, map)
    }

    /// Nodes reachable from `roots`.
    pub fn reachable(&self, roots: &[GNodeId]) -> FxHashSet<GNodeId> {
        let mut seen: FxHashSet<GNodeId> = FxHashSet::default();
        let mut stack: Vec<GNodeId> = roots.to_vec();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(self.children(n).iter().copied());
            }
        }
        seen
    }

    /// A cycle reachable from `roots`, if any — the witness that the
    /// unfolding is infinite (Theorem 3.3's decision procedure).
    pub fn find_cycle(&self, roots: &[GNodeId]) -> Option<Vec<GNodeId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: FxHashMap<GNodeId, Color> = FxHashMap::default();
        // Iterative DFS with an explicit phase marker to avoid recursion
        // depth limits on long chains.
        enum Frame {
            Enter(GNodeId),
            Exit(GNodeId),
        }
        let mut path: Vec<GNodeId> = Vec::new();
        for &r in roots {
            if color.get(&r).copied().unwrap_or(Color::White) != Color::White {
                continue;
            }
            let mut stack = vec![Frame::Enter(r)];
            while let Some(f) = stack.pop() {
                match f {
                    Frame::Enter(n) => {
                        match color.get(&n).copied().unwrap_or(Color::White) {
                            Color::Gray | Color::Black => continue,
                            Color::White => {}
                        }
                        color.insert(n, Color::Gray);
                        path.push(n);
                        stack.push(Frame::Exit(n));
                        for &c in self.children(n) {
                            match color.get(&c).copied().unwrap_or(Color::White) {
                                Color::Gray => {
                                    let start = path.iter().position(|&x| x == c).unwrap_or(0);
                                    let mut cyc = path[start..].to_vec();
                                    cyc.push(c);
                                    return Some(cyc);
                                }
                                Color::White => stack.push(Frame::Enter(c)),
                                Color::Black => {}
                            }
                        }
                    }
                    Frame::Exit(n) => {
                        color.insert(n, Color::Black);
                        path.pop();
                    }
                }
            }
        }
        None
    }

    /// Is the subgraph reachable from `roots` acyclic (finite unfolding)?
    pub fn is_acyclic_from(&self, roots: &[GNodeId]) -> bool {
        self.find_cycle(roots).is_none()
    }

    /// Unfold the (necessarily acyclic) graph at `n` into a tree.
    /// Returns `None` when a cycle is reachable (infinite unfolding).
    pub fn unfold_exact(&self, n: GNodeId) -> Option<Tree> {
        if !self.is_acyclic_from(&[n]) {
            return None;
        }
        Some(self.unfold_truncated(n, usize::MAX))
    }

    /// Unfold to a tree, cutting every path at `max_depth` edges. For
    /// cyclic graphs this yields a finite prefix of the infinite tree.
    pub fn unfold_truncated(&self, n: GNodeId, max_depth: usize) -> Tree {
        let mut t = Tree::new(self.marking(n));
        let root = t.root();
        self.unfold_into(n, &mut t, root, max_depth);
        t
    }

    fn unfold_into(&self, gn: GNodeId, t: &mut Tree, tn: NodeId, budget: usize) {
        if budget == 0 {
            return;
        }
        for &gc in self.children(gn) {
            let tc = t
                .add_child(tn, self.marking(gc))
                .expect("graph values have no children");
            self.unfold_into(gc, t, tc, budget - 1);
        }
    }

    /// Count the nodes of the unfolding, saturating at `cap` (cyclic
    /// graphs would count forever).
    pub fn unfold_size(&self, n: GNodeId, cap: usize) -> usize {
        fn go(g: &Graph, n: GNodeId, cap: usize, acc: &mut usize, depth: usize) {
            if *acc >= cap || depth > 10_000 {
                *acc = cap;
                return;
            }
            *acc += 1;
            for &c in g.children(n) {
                go(g, c, cap, acc, depth + 1);
            }
        }
        let mut acc = 0;
        go(self, n, cap, &mut acc, 0);
        acc
    }
}

/// Greatest-fixpoint simulation between two graphs (which may be the same
/// object). Decides subsumption of the *unfoldings*: `a@na ⊑ b@nb` as
/// possibly-infinite trees.
pub fn simulated(a: &Graph, na: GNodeId, b: &Graph, nb: GNodeId) -> bool {
    // Restrict to reachable node sets.
    let ra: Vec<GNodeId> = a.reachable(&[na]).into_iter().collect();
    let rb: Vec<GNodeId> = b.reachable(&[nb]).into_iter().collect();
    // R starts as all marking-compatible pairs, then is refined.
    let mut r: FxHashSet<(GNodeId, GNodeId)> = FxHashSet::default();
    for &u in &ra {
        for &v in &rb {
            if a.marking(u) == b.marking(v) {
                r.insert((u, v));
            }
        }
    }
    loop {
        let mut changed = false;
        let pairs: Vec<(GNodeId, GNodeId)> = r.iter().copied().collect();
        for (u, v) in pairs {
            let ok = a
                .children(u)
                .iter()
                .all(|&cu| b.children(v).iter().any(|&cv| r.contains(&(cu, cv))));
            if !ok {
                r.remove(&(u, v));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    r.contains(&(na, nb))
}

/// Mutual simulation: the unfoldings are equivalent documents.
pub fn graph_equivalent(a: &Graph, na: GNodeId, b: &Graph, nb: GNodeId) -> bool {
    simulated(a, na, b, nb) && simulated(b, nb, a, na)
}

/// Forest-level simulation over root sets: every root of `a` is simulated
/// by some root of `b` (the paper's forest subsumption, lifted to graphs).
pub fn roots_subsumed(a: &Graph, ra: &[GNodeId], b: &Graph, rb: &[GNodeId]) -> bool {
    ra.iter()
        .all(|&u| rb.iter().any(|&v| simulated(a, u, b, v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;
    use crate::subsume::equivalent;

    #[test]
    fn import_and_unfold_roundtrip() {
        let t = parse_tree(r#"a{b{"1"},@f{c}}"#).unwrap();
        let mut g = Graph::new();
        let r = g.import_tree(&t);
        let back = g.unfold_exact(r).unwrap();
        assert!(equivalent(&t, &back));
        assert_eq!(g.node_count(), t.node_count());
    }

    #[test]
    fn cycle_detection_and_truncated_unfold() {
        // The limit of Example 2.1: A = a{f, A}.
        let mut g = Graph::new();
        let a = g.add_node(Marking::label("a"));
        let f = g.add_node(Marking::func("f"));
        g.add_edge(a, f);
        g.add_edge(a, a);
        assert!(!g.is_acyclic_from(&[a]));
        assert!(g.unfold_exact(a).is_none());
        let prefix = g.unfold_truncated(a, 3);
        // Depth-3 prefix: a{f, a{f, a{f, a}}}.
        assert_eq!(prefix.depth(prefix.root()), 3);
        let cyc = g.find_cycle(&[a]).unwrap();
        assert_eq!(cyc.first(), cyc.last());
    }

    #[test]
    fn simulation_on_finite_graphs_matches_tree_subsumption() {
        let cases = [
            ("a{b{c,c}}", "a{b{c,d}}", true),
            ("a{b{c,d}}", "a{b{c}}", false),
            ("a{b}", "a{b{c}}", true),
            ("a{c,c}", "a{c}", true),
            ("a", "b", false),
        ];
        for (sa, sb, expect) in cases {
            let ta = parse_tree(sa).unwrap();
            let tb = parse_tree(sb).unwrap();
            let mut g = Graph::new();
            let na = g.import_tree(&ta);
            let nb = g.import_tree(&tb);
            assert_eq!(
                simulated(&g, na, &g, nb),
                expect,
                "sim({sa},{sb}) != {expect}"
            );
            assert_eq!(crate::subsume::subsumed(&ta, &tb), expect);
        }
    }

    #[test]
    fn simulation_between_infinite_trees() {
        // A = a{A} and B = a{a{B}} unfold to the same infinite chain.
        let mut g = Graph::new();
        let a = g.add_node(Marking::label("a"));
        g.add_edge(a, a);
        let b1 = g.add_node(Marking::label("a"));
        let b2 = g.add_node(Marking::label("a"));
        g.add_edge(b1, b2);
        g.add_edge(b2, b1);
        assert!(graph_equivalent(&g, a, &g, b1));
        // C = a{c, C} is strictly larger than A.
        let c = g.add_node(Marking::label("a"));
        let cc = g.add_node(Marking::label("c"));
        g.add_edge(c, cc);
        g.add_edge(c, c);
        assert!(simulated(&g, a, &g, c));
        assert!(!simulated(&g, c, &g, a));
    }

    #[test]
    fn finite_tree_never_simulates_infinite_chain() {
        let mut g = Graph::new();
        let inf = g.add_node(Marking::label("a"));
        g.add_edge(inf, inf);
        let fin = g.import_tree(&parse_tree("a{a{a}}").unwrap());
        assert!(simulated(&g, fin, &g, inf)); // finite prefix embeds
        assert!(!simulated(&g, inf, &g, fin)); // infinite does not embed into finite
    }

    #[test]
    fn forest_roots_subsumption() {
        let mut g = Graph::new();
        let x = g.import_tree(&parse_tree("a{b}").unwrap());
        let y = g.import_tree(&parse_tree("c").unwrap());
        let z = g.import_tree(&parse_tree("a{b,d}").unwrap());
        assert!(roots_subsumed(&g, &[x], &g, &[z, y]));
        assert!(!roots_subsumed(&g, &[z], &g, &[x, y]));
    }

    #[test]
    fn unfold_size_saturates() {
        let mut g = Graph::new();
        let a = g.add_node(Marking::label("a"));
        g.add_edge(a, a);
        assert_eq!(g.unfold_size(a, 500), 500);
        let t = g.import_tree(&parse_tree("a{b,c}").unwrap());
        assert_eq!(g.unfold_size(t, 500), 3);
    }

    #[test]
    fn edge_dedup() {
        let mut g = Graph::new();
        let a = g.add_node(Marking::label("a"));
        let b = g.add_node(Marking::label("b"));
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b));
        assert_eq!(g.edge_count(), 1);
    }
}
