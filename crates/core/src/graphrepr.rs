//! The finite graph representation of a simple positive system's
//! (possibly infinite) semantics — Lemma 3.2 — and its consequences:
//! decidable termination (Theorem 3.3, Corollary of the reachable-cycle
//! check), full query results `[q](I)` over the representation, and
//! q-finiteness / emptiness analysis (Propositions 3.2 and 3.3).
//!
//! ## Construction
//!
//! Following the Lemma 3.2 proof sketch: every subtree of `[I]` is either
//! an original subtree of `I` or (a rewriting of) an *instantiated head*
//! of some service query, and identical instantiations have equivalent
//! rewritings. The builder therefore:
//!
//! 1. imports the original documents into a shared [`Graph`];
//! 2. repeatedly processes every *occurrence* — a pair (function node,
//!    parent) in the reachable graph — by evaluating the service's query
//!    against the graph-represented documents (`input` = the call's
//!    children, `context` = the parent node);
//! 3. **memoizes instantiated heads by canonical form**: a head seen
//!    before contributes an edge to the existing subgraph ("pointing to
//!    their root when the same answer is returned again"), a fresh head
//!    is imported and its own function nodes become new occurrences;
//! 4. stops at a fixpoint. Simple systems have finitely many instantiated
//!    heads (markings range over the finite alphabet of the system), so
//!    the fixpoint is reached — in at most exponentially many steps,
//!    matching the EXPTIME bound.
//!
//! The system **terminates iff the reachable representation is acyclic**:
//! a reachable cycle unfolds to unboundedly deep derivable data, and a
//! reduced infinite document over a finite alphabet must have unbounded
//! depth, which no finite document subsumes.

use crate::error::{AxmlError, Result};
use crate::pattern::{PItem, PNodeId, Pattern};
use crate::query::{Operand, Query};
use crate::regular::{GNodeId, Graph};
use crate::sym::{FxHashMap, FxHashSet, Sym};
use crate::system::{context_sym, input_sym, System};
use crate::tree::Marking;

/// A value bound to a variable during graph matching: a marking (for
/// label/function/value variables) or a graph node (for tree variables).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GBound {
    /// Marking binding (label / function / value variables).
    Mark(Marking),
    /// Graph-node binding (tree variables): the subtree is the node's
    /// (possibly infinite) unfolding.
    Node(GNodeId),
}

/// A variable assignment over graph matches.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct GBinding {
    entries: Vec<(Sym, GBound)>,
}

impl GBinding {
    /// Look up a variable.
    pub fn get(&self, var: Sym) -> Option<GBound> {
        self.entries
            .binary_search_by(|(v, _)| v.cmp(&var))
            .ok()
            .map(|i| self.entries[i].1)
    }

    fn bind(&mut self, var: Sym, val: GBound) -> bool {
        match self.entries.binary_search_by(|(v, _)| v.cmp(&var)) {
            Ok(i) => self.entries[i].1 == val,
            Err(i) => {
                self.entries.insert(i, (var, val));
                true
            }
        }
    }

    fn merge(&self, other: &GBinding) -> Option<GBinding> {
        let mut out = self.clone();
        for (v, b) in &other.entries {
            if !out.bind(*v, *b) {
                return None;
            }
        }
        Some(out)
    }
}

fn bind_gitem(item: &PItem, m: Marking, node: GNodeId, b: &GBinding) -> Option<GBinding> {
    match item {
        PItem::Const(c) => (*c == m).then(|| b.clone()),
        PItem::LabelVar(v) => match m {
            Marking::Label(_) => {
                let mut nb = b.clone();
                nb.bind(*v, GBound::Mark(m)).then_some(nb)
            }
            _ => None,
        },
        PItem::FuncVar(v) => match m {
            Marking::Func(_) => {
                let mut nb = b.clone();
                nb.bind(*v, GBound::Mark(m)).then_some(nb)
            }
            _ => None,
        },
        PItem::ValueVar(v) => match m {
            Marking::Value(_) => {
                let mut nb = b.clone();
                nb.bind(*v, GBound::Mark(m)).then_some(nb)
            }
            _ => None,
        },
        PItem::TreeVar(v) => {
            let mut nb = b.clone();
            nb.bind(*v, GBound::Node(node)).then_some(nb)
        }
    }
}

/// Match a pattern against the unfolding of `g` at `start` (root-to-root,
/// like snapshot semantics). Sound for cyclic graphs: recursion descends
/// the finite pattern.
pub fn match_on_graph(p: &Pattern, g: &Graph, start: GNodeId) -> Vec<GBinding> {
    match_gnode(p, p.root(), g, start, &GBinding::default())
}

fn match_gnode(p: &Pattern, pn: PNodeId, g: &Graph, gn: GNodeId, b: &GBinding) -> Vec<GBinding> {
    let Some(b0) = bind_gitem(p.item(pn), g.marking(gn), gn, b) else {
        return Vec::new();
    };
    match_gchildren(p, pn, g, g.children(gn), b0)
}

fn match_gchildren(
    p: &Pattern,
    pn: PNodeId,
    g: &Graph,
    kids: &[GNodeId],
    b0: GBinding,
) -> Vec<GBinding> {
    let mut current: Vec<GBinding> = vec![b0];
    for &pc in p.children(pn) {
        let mut next: FxHashSet<GBinding> = FxHashSet::default();
        for base in &current {
            for &gc in kids {
                for nb in match_gnode(p, pc, g, gc, base) {
                    next.insert(nb);
                }
            }
        }
        if next.is_empty() {
            return Vec::new();
        }
        current = next.into_iter().collect();
    }
    current
}

/// Match a pattern against the virtual `input` document of the call at
/// `call`: a root labeled `input` whose children are the call's children.
fn match_input(p: &Pattern, g: &Graph, call: GNodeId) -> Vec<GBinding> {
    let Some(b0) = bind_gitem(
        p.item(p.root()),
        Marking::Label(input_sym()),
        // There is no real node for the virtual input root; tree
        // variables at the root of an input pattern are not supported on
        // graphs (they cannot occur in simple systems' own services, and
        // query evaluation passes a real document).
        call,
        &GBinding::default(),
    ) else {
        return Vec::new();
    };
    match_gchildren(p, p.root(), g, g.children(call), b0)
}

/// The environment for evaluating a query over a graph representation.
struct GraphQueryEnv<'a> {
    graph: &'a Graph,
    roots: &'a FxHashMap<Sym, GNodeId>,
    /// The call node (`input` = its children), if evaluating a service.
    input_call: Option<GNodeId>,
    /// The context node (the call's parent), if evaluating a service.
    context: Option<GNodeId>,
}

/// Evaluate a query's bindings over graph documents.
fn query_bindings(q: &Query, env: &GraphQueryEnv<'_>) -> Result<Vec<GBinding>> {
    let mut combined: Vec<GBinding> = vec![GBinding::default()];
    for atom in &q.body {
        let matches = if atom.doc == input_sym() {
            let call = env.input_call.ok_or(AxmlError::UnknownDocument(atom.doc))?;
            match_input(&atom.pattern, env.graph, call)
        } else if atom.doc == context_sym() {
            let ctx = env.context.ok_or(AxmlError::UnknownDocument(atom.doc))?;
            match_on_graph(&atom.pattern, env.graph, ctx)
        } else {
            let root = *env
                .roots
                .get(&atom.doc)
                .ok_or(AxmlError::UnknownDocument(atom.doc))?;
            match_on_graph(&atom.pattern, env.graph, root)
        };
        if matches.is_empty() {
            return Ok(Vec::new());
        }
        let mut next: FxHashSet<GBinding> = FxHashSet::default();
        for base in &combined {
            for m in &matches {
                if let Some(merged) = base.merge(m) {
                    next.insert(merged);
                }
            }
        }
        if next.is_empty() {
            return Ok(Vec::new());
        }
        combined = next.into_iter().collect();
    }
    combined.retain(|b| {
        q.ineqs.iter().all(|(l, r)| {
            let resolve = |op: &Operand| -> Option<Marking> {
                match op {
                    Operand::Const(m) => Some(*m),
                    Operand::Var(v) => match b.get(*v) {
                        Some(GBound::Mark(m)) => Some(m),
                        _ => None,
                    },
                }
            };
            matches!((resolve(l), resolve(r)), (Some(a), Some(c)) if a != c)
        })
    });
    // Deterministic order for reproducible builds.
    combined.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    Ok(combined)
}

/// Instantiate a (possibly tree-variable-using) head into the graph:
/// constants and marking variables become fresh nodes, tree variables
/// become edges to their bound graph nodes. Returns the result root.
fn instantiate_head_into_graph(head: &Pattern, b: &GBinding, g: &mut Graph) -> Result<GNodeId> {
    fn resolve(item: &PItem, b: &GBinding) -> Result<GBound> {
        match item {
            PItem::Const(m) => Ok(GBound::Mark(*m)),
            PItem::LabelVar(v) | PItem::FuncVar(v) | PItem::ValueVar(v) | PItem::TreeVar(v) => {
                b.get(*v).ok_or(AxmlError::UnsafeHeadVariable(*v))
            }
        }
    }
    fn build(head: &Pattern, hn: PNodeId, b: &GBinding, g: &mut Graph) -> Result<GNodeId> {
        match resolve(head.item(hn), b)? {
            GBound::Node(n) => Ok(n),
            GBound::Mark(m) => {
                let id = g.add_node(m);
                for &hc in head.children(hn) {
                    let c = build(head, hc, b, g)?;
                    g.add_edge(id, c);
                }
                Ok(id)
            }
        }
    }
    build(head, head.root(), b, g)
}

/// Memo key for an instantiated head: the head pattern's textual identity
/// plus the bindings of the variables it uses. Two equal keys instantiate
/// to the same subgraph.
fn head_key(qname: Sym, q: &Query, b: &GBinding) -> HeadKey {
    let mut vars: Vec<(Sym, GBound)> = q
        .head
        .variables()
        .into_iter()
        .filter_map(|v| b.get(v).map(|x| (v, x)))
        .collect();
    vars.sort_unstable_by_key(|(v, _)| *v);
    HeadKey { qname, vars }
}

/// Identity of one instantiated head.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HeadKey {
    qname: Sym,
    vars: Vec<(Sym, GBound)>,
}

/// Build limits (safety rails; simple systems always converge but can be
/// exponential).
#[derive(Clone, Copy, Debug)]
pub struct BuildLimits {
    /// Maximum graph nodes.
    pub max_nodes: usize,
    /// Maximum fixpoint iterations.
    pub max_iterations: usize,
}

impl Default for BuildLimits {
    fn default() -> BuildLimits {
        BuildLimits {
            max_nodes: 200_000,
            max_iterations: 10_000,
        }
    }
}

/// Statistics of a graph-representation build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    /// Fixpoint iterations until stability.
    pub iterations: usize,
    /// Occurrences (function node, parent) processed, summed over
    /// iterations.
    pub occurrences_processed: usize,
    /// Distinct instantiated heads imported.
    pub heads_imported: usize,
    /// Memo hits (an already-known head re-derived — the sharing that
    /// keeps the representation finite).
    pub memo_hits: usize,
}

/// The finite graph representation of `[I]` (Lemma 3.2).
pub struct GraphRepr {
    /// Shared node arena for all documents and expansions.
    pub graph: Graph,
    /// Root node of each document.
    pub roots: FxHashMap<Sym, GNodeId>,
    /// Instantiated-head memo.
    memo: FxHashMap<HeadKey, GNodeId>,
    /// Graph images of the original documents' tree nodes.
    pub import_map: FxHashMap<(Sym, crate::tree::NodeId), GNodeId>,
    /// Excluded call occurrences (graph nodes never processed): the set
    /// `N` of `[I↓N]` (§4).
    excluded: FxHashSet<GNodeId>,
    /// Build statistics.
    pub stats: BuildStats,
}

impl GraphRepr {
    /// Build the representation for a **simple positive** system.
    pub fn build(sys: &System) -> Result<GraphRepr> {
        GraphRepr::build_with_limits(sys, BuildLimits::default())
    }

    /// [`GraphRepr::build`] with explicit safety limits.
    pub fn build_with_limits(sys: &System, limits: BuildLimits) -> Result<GraphRepr> {
        GraphRepr::build_excluding(sys, &[], limits)
    }

    /// Build the representation of `[I↓N]` (§4): a fair rewriting that
    /// never invokes the original call occurrences in `excluded`. Calls
    /// *derived* during the rewriting are not in `N` and are processed
    /// normally.
    pub fn build_excluding(
        sys: &System,
        excluded: &[(Sym, crate::tree::NodeId)],
        limits: BuildLimits,
    ) -> Result<GraphRepr> {
        if let Some(witness) = sys.non_simple_witness() {
            return Err(AxmlError::NotSimple(witness));
        }
        sys.validate()?;
        let mut repr = GraphRepr {
            graph: Graph::new(),
            roots: FxHashMap::default(),
            memo: FxHashMap::default(),
            import_map: FxHashMap::default(),
            excluded: FxHashSet::default(),
            stats: BuildStats::default(),
        };
        for &d in sys.doc_names() {
            let doc = sys.doc(d).expect("stored");
            let (root, map) = repr.graph.import_subtree_mapped(doc, doc.root());
            for (tn, gn) in map {
                repr.import_map.insert((d, tn), gn);
            }
            repr.roots.insert(d, root);
        }
        for occ in excluded {
            if let Some(&gn) = repr.import_map.get(occ) {
                repr.excluded.insert(gn);
            }
        }
        let doc_roots: Vec<GNodeId> = repr.roots.values().copied().collect();
        repr.saturate(sys, &doc_roots, limits)?;
        Ok(repr)
    }

    /// Run the occurrence fixpoint, considering everything reachable from
    /// `extra_roots` in addition to the document roots.
    pub(crate) fn saturate(
        &mut self,
        sys: &System,
        extra_roots: &[GNodeId],
        limits: BuildLimits,
    ) -> Result<()> {
        let mut all_roots: Vec<GNodeId> = self.roots.values().copied().collect();
        all_roots.extend_from_slice(extra_roots);
        loop {
            self.stats.iterations += 1;
            if self.stats.iterations > limits.max_iterations
                || self.graph.node_count() > limits.max_nodes
            {
                return Err(AxmlError::BudgetExhausted);
            }
            let mut changed = false;
            // Occurrences: (function node, parent) pairs reachable now.
            let reach = self.graph.reachable(&all_roots);
            let mut occs: Vec<(GNodeId, GNodeId)> = Vec::new();
            for &p in &reach {
                for &u in self.graph.children(p) {
                    if self.graph.marking(u).is_func() {
                        occs.push((u, p));
                    }
                }
            }
            occs.sort_unstable();
            for (u, p) in occs {
                if self.excluded.contains(&u) {
                    continue;
                }
                self.stats.occurrences_processed += 1;
                let fname = self.graph.marking(u).sym();
                let q = sys
                    .service_query(fname)
                    .ok_or(AxmlError::UnknownFunction(fname))?
                    .clone();
                let env = GraphQueryEnv {
                    graph: &self.graph,
                    roots: &self.roots,
                    input_call: Some(u),
                    context: Some(p),
                };
                let bindings = query_bindings(&q, &env)?;
                for b in bindings {
                    let key = head_key(fname, &q, &b);
                    let target = match self.memo.get(&key) {
                        Some(&t) => {
                            self.stats.memo_hits += 1;
                            t
                        }
                        None => {
                            let t = instantiate_head_into_graph(&q.head, &b, &mut self.graph)?;
                            self.memo.insert(key, t);
                            self.stats.heads_imported += 1;
                            changed = true;
                            t
                        }
                    };
                    if self.graph.add_edge(p, target) {
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(());
            }
        }
    }

    /// Document roots in a deterministic order.
    pub fn doc_roots(&self) -> Vec<GNodeId> {
        let mut roots: Vec<(Sym, GNodeId)> = self.roots.iter().map(|(&d, &r)| (d, r)).collect();
        roots.sort_unstable();
        roots.into_iter().map(|(_, r)| r).collect()
    }

    /// Does the system terminate? (Theorem 3.3: decidable for simple
    /// positive systems; the verdict is the acyclicity of the reachable
    /// representation.)
    pub fn terminates(&self) -> bool {
        self.graph.find_cycle(&self.doc_roots()).is_none()
    }

    /// The cycle witnessing divergence, if any.
    pub fn divergence_witness(&self) -> Option<Vec<GNodeId>> {
        self.graph.find_cycle(&self.doc_roots())
    }
}

/// Verdict of the Theorem 3.3 decision procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Every fair rewriting reaches a finite fixpoint.
    Terminates,
    /// No rewriting terminates; the witness is a cycle in the graph
    /// representation (node count of the cycle).
    Diverges {
        /// Length of the witnessing cycle.
        cycle_len: usize,
    },
}

/// Decide termination of a simple positive system (Theorem 3.3).
pub fn decide_termination(sys: &System) -> Result<Termination> {
    let repr = GraphRepr::build(sys)?;
    Ok(match repr.divergence_witness() {
        None => Termination::Terminates,
        Some(c) => Termination::Diverges { cycle_len: c.len() },
    })
}

/// The full result `[q](I)` of a query over a simple positive system,
/// represented as a graph forest (Prop 3.2 / 3.3 analyses).
pub struct QueryResultRepr {
    /// The underlying representation (system docs + answer expansions).
    pub repr: GraphRepr,
    /// Roots of the answer forest.
    pub result_roots: Vec<GNodeId>,
}

impl QueryResultRepr {
    /// Is the full result finite (q-finiteness, Prop 3.2)?
    pub fn is_finite(&self) -> bool {
        self.repr.graph.find_cycle(&self.result_roots).is_none()
    }

    /// Is the full result empty (Prop 3.3's emptiness problem — decidable
    /// here because the system is simple)?
    pub fn is_empty(&self) -> bool {
        self.result_roots.is_empty()
    }

    /// Materialize the answers as finite trees, if the result is finite.
    pub fn materialize(&self) -> Option<Vec<crate::tree::Tree>> {
        if !self.is_finite() {
            return None;
        }
        Some(
            self.result_roots
                .iter()
                .map(|&r| self.repr.graph.unfold_exact(r).expect("acyclic"))
                .collect(),
        )
    }
}

/// Evaluate a top-level query's bindings over the representation (no
/// `input`/`context` in scope). Used by the exact lazy-evaluation
/// analyses (§4) in [`crate::lazy`].
pub(crate) fn system_query_bindings(repr: &GraphRepr, q: &Query) -> Result<Vec<GBinding>> {
    let env = GraphQueryEnv {
        graph: &repr.graph,
        roots: &repr.roots,
        input_call: None,
        context: None,
    };
    query_bindings(q, &env)
}

/// Import one instantiated head into the representation's graph,
/// returning the answer root (lazy-evaluation support).
pub(crate) fn import_instantiated_head(
    repr: &mut GraphRepr,
    head: &Pattern,
    b: &GBinding,
) -> Result<GNodeId> {
    instantiate_head_into_graph(head, b, &mut repr.graph)
}

/// Compute `[q](I)` over a simple positive system. The query itself may
/// use tree variables (a non-simple query over a simple system —
/// Prop 3.2 (3) / Thm 4.1 (2) setting): tree variables bind graph nodes,
/// so answers may be infinite; [`QueryResultRepr::is_finite`] tells.
///
/// Answer heads containing function calls are expanded against the
/// system's documents (the answer is a new document added alongside `I`,
/// as §3.1's "query result" prescribes).
pub fn full_query_result(sys: &System, q: &Query) -> Result<QueryResultRepr> {
    let mut repr = GraphRepr::build(sys)?;
    // Evaluate q over the saturated representation.
    let env = GraphQueryEnv {
        graph: &repr.graph,
        roots: &repr.roots,
        input_call: None,
        context: None,
    };
    let bindings = query_bindings(q, &env)?;
    let mut result_roots: Vec<GNodeId> = Vec::new();
    let mut seen: FxHashSet<HeadKey> = FxHashSet::default();
    let qname = Sym::intern("<query>");
    for b in bindings {
        let key = head_key(qname, q, &b);
        if !seen.insert(key) {
            continue;
        }
        let root = instantiate_head_into_graph(&q.head, &b, &mut repr.graph)?;
        result_roots.push(root);
    }
    // Expand any function calls inside the answers (fair rewriting of the
    // augmented system).
    let limits = BuildLimits::default();
    repr.saturate(sys, &result_roots, limits)?;
    Ok(QueryResultRepr { repr, result_roots })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, EngineConfig, RunStatus};
    use crate::query::parse_query;
    use crate::regular::graph_equivalent;
    use crate::subsume::equivalent;

    fn ex_2_1() -> System {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        sys
    }

    fn ex_3_2() -> System {
        let mut sys = System::new();
        sys.add_document_text(
            "d0",
            r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, t{from{"3"},to{"4"}}}"#,
        )
        .unwrap();
        sys.add_document_text("d1", "r{@g,@f}").unwrap();
        sys.add_service_text("g", "t{from{$x},to{$y}} :- d0/r{t{from{$x},to{$y}}}")
            .unwrap();
        sys.add_service_text(
            "f",
            "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
        )
        .unwrap();
        sys
    }

    #[test]
    fn example_2_1_is_diagnosed_divergent() {
        // The graph representation of Example 2.1's limit is A = a{f, A}.
        let repr = GraphRepr::build(&ex_2_1()).unwrap();
        assert!(!repr.terminates());
        assert_eq!(
            decide_termination(&ex_2_1()).unwrap(),
            Termination::Diverges { cycle_len: 2 }
        );
        // The representation is tiny — that is the point of Lemma 3.2.
        assert!(repr.graph.node_count() <= 6);
    }

    #[test]
    fn example_3_2_is_diagnosed_terminating() {
        let verdict = decide_termination(&ex_3_2()).unwrap();
        assert_eq!(verdict, Termination::Terminates);
    }

    #[test]
    fn graph_repr_agrees_with_engine_on_terminating_system() {
        // Unfolding the representation of d1 equals the engine's fixpoint.
        let repr = GraphRepr::build(&ex_3_2()).unwrap();
        assert!(repr.terminates());
        let d1root = repr.roots[&Sym::intern("d1")];
        let unfolded = repr.graph.unfold_exact(d1root).unwrap();
        let mut sys = ex_3_2();
        let (status, _) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        let engine_doc = sys.doc(Sym::intern("d1")).unwrap();
        assert!(
            equivalent(&crate::reduce::reduce(&unfolded), engine_doc),
            "graph unfolding != engine fixpoint:\n{}\nvs\n{}",
            crate::reduce::reduce(&unfolded),
            engine_doc
        );
    }

    #[test]
    fn example_2_1_limit_shape() {
        // The limit is a{f, A} with A = a{f, A}: check the unfolding
        // prefix and the self-loop structure via simulation.
        let repr = GraphRepr::build(&ex_2_1()).unwrap();
        let d = repr.roots[&Sym::intern("d")];
        // Build the expected two-node cyclic graph by hand.
        let mut g = Graph::new();
        let a = g.add_node(Marking::label("a"));
        let f = g.add_node(Marking::func("f"));
        g.add_edge(a, f);
        g.add_edge(a, a);
        assert!(graph_equivalent(&repr.graph, d, &g, a));
    }

    #[test]
    fn non_simple_system_rejected() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{a{b},@g}").unwrap();
        sys.add_service_text("g", "a{a{#X}} :- context/a{a{#X}}")
            .unwrap();
        assert!(matches!(
            GraphRepr::build(&sys),
            Err(AxmlError::NotSimple(_))
        ));
    }

    #[test]
    fn full_query_result_on_terminating_system() {
        // All TC pairs from node 1.
        let q = parse_query("reach{$y} :- d1/r{t{from{\"1\"},to{$y}}}").unwrap();
        let res = full_query_result(&ex_3_2(), &q).unwrap();
        assert!(res.is_finite());
        assert!(!res.is_empty());
        let mut answers: Vec<String> = res
            .materialize()
            .unwrap()
            .iter()
            .map(|t| t.to_string())
            .collect();
        answers.sort_unstable();
        assert_eq!(
            answers,
            vec![r#"reach{"2"}"#, r#"reach{"3"}"#, r#"reach{"4"}"#]
        );
    }

    #[test]
    fn full_query_result_over_divergent_system_can_be_finite() {
        // Example 2.1 diverges, but a simple query over it has a finite
        // result (§3.3: simple queries always have finite results).
        let q = parse_query("hit :- d/a{a{@f}}").unwrap();
        let res = full_query_result(&ex_2_1(), &q).unwrap();
        assert!(res.is_finite());
        let ans = res.materialize().unwrap();
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].to_string(), "hit");
    }

    #[test]
    fn tree_variable_query_over_divergent_system_is_infinite() {
        // Copying below the cycle: the answer embeds the infinite subtree.
        let q = parse_query("copy{#X} :- d/a{#X}").unwrap();
        let res = full_query_result(&ex_2_1(), &q).unwrap();
        assert!(!res.is_empty());
        assert!(!res.is_finite());
        assert!(res.materialize().is_none());
    }

    #[test]
    fn emptiness_detection() {
        let q = parse_query("hit :- d/a{zzz}").unwrap();
        let res = full_query_result(&ex_2_1(), &q).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn answer_with_calls_is_expanded() {
        // The answer head contains a call to g; its expansion must appear
        // in the result's semantics.
        let mut sys = System::new();
        sys.add_document_text("d", r#"store{item{"cd"}}"#).unwrap();
        sys.add_service_text("g", r#"extra{"bonus"} :-"#).unwrap();
        let q = parse_query("ans{$x, @g} :- d/store{item{$x}}").unwrap();
        let res = full_query_result(&sys, &q).unwrap();
        assert!(res.is_finite());
        let ans = res.materialize().unwrap();
        assert_eq!(ans.len(), 1);
        assert!(
            equivalent(
                &crate::reduce::reduce(&ans[0]),
                &crate::parse::parse_tree(r#"ans{"cd", @g, extra{"bonus"}}"#).unwrap()
            ),
            "got {}",
            ans[0]
        );
    }

    #[test]
    fn build_stats_reported() {
        let repr = GraphRepr::build(&ex_3_2()).unwrap();
        assert!(repr.stats.iterations >= 2);
        assert!(repr.stats.heads_imported >= 6); // 3 base + 3 closure tuples
        assert!(repr.stats.occurrences_processed >= 4);
    }
}
