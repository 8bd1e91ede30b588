//! The dependency graph and acyclic systems (Definition 3.2).
//!
//! Nodes are document and function names. Edges:
//!
//! * `(d, f)` when function `f` occurs in document `I(d)`;
//! * `(f, d)` when document `d` occurs in `I(f)`'s body;
//! * `(f, g)` when function `g` occurs in `I(f)` (head or body).
//!
//! Acyclic systems always terminate, their functions can be fired in
//! topological order, and each call needs a single invocation. Black-box
//! services have unknown definitions; we conservatively connect them to
//! every document and function, so acyclicity of a system with black
//! boxes is only ever reported when it is genuinely certain. A function
//! variable in a service's *head* can instantiate a call to any function
//! matched in the body, so it also receives conservative edges.

use crate::pattern::PItem;
use crate::sym::{FxHashMap, FxHashSet, Sym};
use crate::system::{context_sym, input_sym, System};
use crate::tree::Marking;
use std::fmt;

/// A node of the dependency graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum DepNode {
    /// A document name.
    Doc(Sym),
    /// A function name.
    Func(Sym),
}

impl fmt::Display for DepNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepNode::Doc(d) => write!(f, "doc:{d}"),
            DepNode::Func(s) => write!(f, "fn:{s}"),
        }
    }
}

/// The dependency graph of a system.
#[derive(Clone, Debug)]
pub struct DepGraph {
    nodes: Vec<DepNode>,
    edges: FxHashMap<DepNode, FxHashSet<DepNode>>,
}

impl DepGraph {
    /// Build the graph for `sys`.
    pub fn build(sys: &System) -> DepGraph {
        let mut nodes: Vec<DepNode> = Vec::new();
        let mut edges: FxHashMap<DepNode, FxHashSet<DepNode>> = FxHashMap::default();
        for &d in sys.doc_names() {
            nodes.push(DepNode::Doc(d));
            edges.entry(DepNode::Doc(d)).or_default();
        }
        for &f in sys.service_names() {
            nodes.push(DepNode::Func(f));
            edges.entry(DepNode::Func(f)).or_default();
        }

        // (d, f): f occurs in I(d).
        for &d in sys.doc_names() {
            let t = sys.doc(d).expect("stored");
            for n in t.iter_live(t.root()) {
                if let Marking::Func(f) = t.marking(n) {
                    edges
                        .get_mut(&DepNode::Doc(d))
                        .expect("inserted")
                        .insert(DepNode::Func(f));
                }
            }
        }

        // (f, d) and (f, g) from service definitions.
        for &f in sys.service_names() {
            let out = edges.get_mut(&DepNode::Func(f)).expect("inserted");
            match sys.service_query(f) {
                Some(q) => {
                    for d in q.doc_names() {
                        if d != input_sym() && d != context_sym() {
                            out.insert(DepNode::Doc(d));
                        }
                    }
                    for g in q.function_names() {
                        out.insert(DepNode::Func(g));
                    }
                    // A head function variable may instantiate any
                    // function name: conservative edges to all.
                    let head_has_func_var = q
                        .head
                        .node_ids()
                        .iter()
                        .any(|&n| matches!(q.head.item(n), PItem::FuncVar(_)));
                    if head_has_func_var {
                        for &g in sys.service_names() {
                            out.insert(DepNode::Func(g));
                        }
                    }
                }
                None => {
                    // Black box: unknown definition, conservative edges.
                    for &d in sys.doc_names() {
                        out.insert(DepNode::Doc(d));
                    }
                    for &g in sys.service_names() {
                        out.insert(DepNode::Func(g));
                    }
                }
            }
        }
        DepGraph { nodes, edges }
    }

    /// Outgoing edges of a node.
    pub fn successors(&self, n: DepNode) -> impl Iterator<Item = DepNode> + '_ {
        self.edges.get(&n).into_iter().flatten().copied()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[DepNode] {
        &self.nodes
    }

    /// Is the graph acyclic? Acyclic systems always terminate (§3.2).
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// A cycle witness, if any.
    pub fn find_cycle(&self) -> Option<Vec<DepNode>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: FxHashMap<DepNode, Color> =
            self.nodes.iter().map(|&n| (n, Color::White)).collect();
        let mut stack_path: Vec<DepNode> = Vec::new();

        fn dfs(
            g: &DepGraph,
            n: DepNode,
            color: &mut FxHashMap<DepNode, Color>,
            path: &mut Vec<DepNode>,
        ) -> Option<Vec<DepNode>> {
            color.insert(n, Color::Gray);
            path.push(n);
            for m in g.successors(n) {
                match color.get(&m).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        let start = path.iter().position(|&x| x == m).unwrap_or(0);
                        let mut cyc = path[start..].to_vec();
                        cyc.push(m);
                        return Some(cyc);
                    }
                    Color::White => {
                        if let Some(c) = dfs(g, m, color, path) {
                            return Some(c);
                        }
                    }
                    Color::Black => {}
                }
            }
            path.pop();
            color.insert(n, Color::Black);
            None
        }

        let nodes = self.nodes.clone();
        for n in nodes {
            if color[&n] == Color::White {
                if let Some(c) = dfs(self, n, &mut color, &mut stack_path) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// A topological order (dependencies first), if acyclic. Firing
    /// functions in this order needs a single invocation per call.
    pub fn topo_order(&self) -> Option<Vec<DepNode>> {
        if !self.is_acyclic() {
            return None;
        }
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut done: FxHashSet<DepNode> = FxHashSet::default();
        fn visit(
            g: &DepGraph,
            n: DepNode,
            done: &mut FxHashSet<DepNode>,
            order: &mut Vec<DepNode>,
        ) {
            if done.contains(&n) {
                return;
            }
            done.insert(n);
            for m in g.successors(n) {
                visit(g, m, done, order);
            }
            order.push(n);
        }
        for &n in &self.nodes {
            visit(self, n, &mut done, &mut order);
        }
        Some(order)
    }
}

/// Is `sys` acyclic per Definition 3.2 (hence guaranteed to terminate)?
pub fn is_acyclic(sys: &System) -> bool {
    DepGraph::build(sys).is_acyclic()
}

/// The documents a call to one service may *read* — the inputs its
/// result forest can depend on. Derived from the same information as the
/// dependency graph's `(f, d)` edges, but kept separate because the
/// engine's skip rule also needs to know whether the call's **own** document
/// matters (it does exactly when the query mentions the reserved
/// `input`/`context` documents, which are built from the call's subtree
/// and parent subtree).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadSet {
    /// Unknown definition (black box, or head function variables able to
    /// mint arbitrary calls): conservatively reads every document.
    All,
    /// A positive service: the stored documents named by its body atoms,
    /// plus — when `own_doc` — the document hosting the invoked call.
    Docs {
        /// Stored documents named in body atoms (deduplicated).
        docs: Vec<Sym>,
        /// Does the query read `input` or `context` (so the result
        /// depends on the call's own document)?
        own_doc: bool,
    },
}

impl ReadSet {
    /// Does a call in document `host` read document `d`?
    pub fn reads(&self, host: Sym, d: Sym) -> bool {
        match self {
            ReadSet::All => true,
            ReadSet::Docs { docs, own_doc } => docs.contains(&d) || (*own_doc && host == d),
        }
    }
}

/// Compute the read set of service `f` in `sys` (conservative
/// [`ReadSet::All`] when `f` is unknown or not positively defined).
pub fn read_set(sys: &System, f: Sym) -> ReadSet {
    let Some(q) = sys.service_query(f) else {
        return ReadSet::All;
    };
    let mut own_doc = false;
    let mut docs = Vec::new();
    for d in q.doc_names() {
        if d == input_sym() || d == context_sym() {
            own_doc = true;
        } else if !docs.contains(&d) {
            docs.push(d);
        }
    }
    ReadSet::Docs { docs, own_doc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, EngineConfig, RunStatus};
    use crate::service::BlackBoxService;

    fn acyclic_portal() -> System {
        let mut sys = System::new();
        sys.add_document_text("reviews", r#"r{v{"1"},v{"2"}}"#)
            .unwrap();
        sys.add_document_text("portal", "out{@fetch}").unwrap();
        sys.add_service_text("fetch", "v{$x} :- reviews/r{v{$x}}")
            .unwrap();
        sys
    }

    #[test]
    fn acyclic_detected_and_terminates() {
        let sys = acyclic_portal();
        let g = DepGraph::build(&sys);
        assert!(g.is_acyclic());
        let order = g.topo_order().unwrap();
        // reviews before fetch before portal.
        let pos = |n: DepNode| order.iter().position(|&x| x == n).unwrap();
        assert!(
            pos(DepNode::Doc(Sym::intern("reviews"))) < pos(DepNode::Func(Sym::intern("fetch")))
        );
        assert!(
            pos(DepNode::Func(Sym::intern("fetch"))) < pos(DepNode::Doc(Sym::intern("portal")))
        );
        let mut sys = sys;
        let (status, _) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
    }

    #[test]
    fn recursive_system_is_cyclic() {
        // Example 3.2's f reads d1 which contains f.
        let mut sys = System::new();
        sys.add_document_text("d1", "r{@f}").unwrap();
        sys.add_service_text(
            "f",
            "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
        )
        .unwrap();
        let g = DepGraph::build(&sys);
        assert!(!g.is_acyclic());
        let cyc = g.find_cycle().unwrap();
        assert!(cyc.len() >= 3);
        assert_eq!(cyc.first(), cyc.last());
        assert!(g.topo_order().is_none());
    }

    #[test]
    fn self_returning_service_is_cyclic() {
        // Example 2.1: f's head contains f.
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        assert!(!is_acyclic(&sys));
    }

    #[test]
    fn black_box_is_conservatively_cyclic() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@bb}").unwrap();
        sys.add_black_box(
            "bb",
            BlackBoxService::constant("c", crate::forest::Forest::new()),
        )
        .unwrap();
        // bb conservatively depends on d, and d contains bb: cycle.
        assert!(!is_acyclic(&sys));
    }

    #[test]
    fn read_sets_follow_body_atoms() {
        let sys = acyclic_portal();
        let fetch = Sym::intern("fetch");
        let reviews = Sym::intern("reviews");
        let portal = Sym::intern("portal");
        let rs = read_set(&sys, fetch);
        assert_eq!(
            rs,
            ReadSet::Docs {
                docs: vec![reviews],
                own_doc: false
            }
        );
        assert!(rs.reads(portal, reviews));
        // A fetch call hosted in portal does NOT read portal itself.
        assert!(!rs.reads(portal, portal));
    }

    #[test]
    fn input_context_pull_in_own_document() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{a{b},@g}").unwrap();
        sys.add_service_text("g", "a{a{#X}} :- context/a{a{#X}}")
            .unwrap();
        let rs = read_set(&sys, Sym::intern("g"));
        assert_eq!(
            rs,
            ReadSet::Docs {
                docs: vec![],
                own_doc: true
            }
        );
        let d = Sym::intern("d");
        assert!(rs.reads(d, d));
        assert!(!rs.reads(d, Sym::intern("other")));
    }

    #[test]
    fn black_box_reads_everything() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@bb}").unwrap();
        sys.add_black_box(
            "bb",
            BlackBoxService::constant("c", crate::forest::Forest::new()),
        )
        .unwrap();
        let rs = read_set(&sys, Sym::intern("bb"));
        assert_eq!(rs, ReadSet::All);
        assert!(rs.reads(Sym::intern("d"), Sym::intern("anything")));
        // Unknown service: also conservative.
        assert_eq!(read_set(&sys, Sym::intern("ghost")), ReadSet::All);
    }

    #[test]
    fn head_function_variable_is_conservative() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@copycall}").unwrap();
        // Copies any call found in d — could call anything, including
        // itself.
        sys.add_service_text("copycall", "r{@?f} :- d/a{@?f}")
            .unwrap();
        assert!(!is_acyclic(&sys));
    }
}
