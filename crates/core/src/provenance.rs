//! Provenance: per-node data lineage and derivation explanations.
//!
//! The trace journal (`crate::trace`) answers *what happened*; this
//! module answers *why a node exists*. Every node grafted by an
//! invocation is stamped with its [`Origin`] — the service, the
//! invocation sequence number, the rewriting round, the host document
//! and its version, and (for P2P runs) the peer that evaluated the
//! call — in a side table keyed by `(document, NodeId)`. Extensional
//! nodes present before the run get [`Origin::Seed`]. Node ids are
//! never reused and reduction keeps the oldest representative of each
//! equivalence class (see `crate::tree` / `crate::reduce`), so the
//! keys stay valid for the lifetime of a run.
//!
//! The pattern mirrors `crate::trace` exactly: instrumented code paths
//! carry a [`Provenance`] handle, a `Copy` wrapper around
//! `Option<&ProvenanceStore>`. When no store is attached nothing is
//! recorded, no witnesses are matched, and no allocation happens — the
//! cost is one branch per site.
//!
//! On top of the store sit three explain APIs:
//!
//! * [`ProvenanceStore::explain_node`] — the full derivation DAG of a
//!   node, back through chained invocations to seed data;
//! * [`ProvenanceStore::explain_answer`] — for a query binding, the
//!   per-atom witness nodes and their merged lineage, plus the calls
//!   the weak analysis of `crate::lazy` proves q-unneeded;
//! * [`ProvenanceStore::explain_skip`] — the engine's read-set
//!   evidence for a `CallSkipped` trace event.
//!
//! [`DerivationDag::to_dot`] renders a DAG for Graphviz; the
//! `axml-inspect` CLI wraps all of this for the command line.

use crate::matcher::{match_pattern_anywhere, Binding};
use crate::pattern::{PItem, Pattern};
use crate::query::Query;
use crate::sym::{FxHashMap, FxHashSet, Sym};
use crate::system::{context_sym, input_sym, System};
use crate::tree::{NodeId, Tree};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

/// Where a node came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Origin {
    /// Extensional data: the node was present before the run started.
    Seed,
    /// Grafted by a local invocation; `seq` indexes the store's
    /// [`InvocationRecord`] table.
    Local {
        /// Invocation sequence number in the recording store.
        seq: u64,
    },
    /// Received from another peer over P2P: the node was grafted from a
    /// `Response` message and records the remote invocation that
    /// produced it (`seq` indexes the *provider's* store).
    Remote {
        /// The peer that evaluated the service.
        provider: Sym,
        /// The service that was evaluated.
        service: Sym,
        /// Invocation sequence number in the provider's store.
        seq: u64,
        /// Network round (deterministic simulator) or 0 (threaded
        /// backend, which has no global round counter).
        round: u64,
    },
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Seed => write!(f, "seed"),
            Origin::Local { seq } => write!(f, "inv#{seq}"),
            Origin::Remote {
                provider,
                service,
                seq,
                round,
            } => write!(f, "{provider}:@{service}#{seq}@r{round}"),
        }
    }
}

/// One recorded invocation: the full stamp the issue asks for —
/// `(service, invocation seq, round, source doc+version, peer)` — plus
/// the witness nodes its snapshot evaluation read.
#[derive(Clone, Debug)]
pub struct InvocationRecord {
    /// Sequence number (index into the store's invocation table).
    pub seq: u64,
    /// The invoked service.
    pub service: Sym,
    /// Host document of the call node.
    pub doc: Sym,
    /// The call node that was invoked.
    pub node: NodeId,
    /// Rewriting round (engine) / network round (simulator) / 0
    /// (threaded backend).
    pub round: u64,
    /// Host document version just before the graft (threaded p2p
    /// backend: when the call was issued).
    pub doc_version: u64,
    /// The peer that evaluated the call, for P2P runs.
    pub peer: Option<Sym>,
    /// Witness nodes: for each stored-document body atom, the document
    /// nodes its top-level conjuncts embedded into at invocation time
    /// (an over-approximation across all bindings — `explain_answer`
    /// re-filters per binding); for `input`/`context` atoms, the call
    /// node itself.
    pub inputs: Vec<(Sym, NodeId)>,
}

/// Read-set evidence recorded when the engine skips a call.
#[derive(Clone, Debug)]
pub struct SkipRecord {
    /// Host document of the skipped call.
    pub doc: Sym,
    /// The skipped call node.
    pub node: NodeId,
    /// The service that was not invoked.
    pub service: Sym,
    /// The round in which the skip happened.
    pub round: u64,
    /// Logical clock stamp of the call's last actual invocation.
    pub invoked_at: u64,
    /// The read set at skip time: each read document with the logical
    /// clock stamp of its last change. The skip is justified because
    /// every stamp here is ≤ `invoked_at`.
    pub evidence: Vec<(Sym, u64)>,
}

impl fmt::Display for SkipRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{} at {}#{} skipped in round {}: last invoked at t={}, reads unchanged [",
            self.service, self.doc, self.node.0, self.round, self.invoked_at
        )?;
        for (i, (d, at)) in self.evidence.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}@t={at}")?;
        }
        write!(f, "]")
    }
}

#[derive(Debug, Default)]
struct Inner {
    origins: FxHashMap<(Sym, NodeId), Origin>,
    invocations: Vec<InvocationRecord>,
    skips: Vec<SkipRecord>,
}

/// The provenance side table: origins keyed by `(document, node)`,
/// the invocation log, and the engine's skip evidence. Interior
/// mutability mirrors `trace::Journal` so recording sites take `&self`.
#[derive(Debug, Default)]
pub struct ProvenanceStore {
    inner: RefCell<Inner>,
}

impl ProvenanceStore {
    /// Empty store.
    pub fn new() -> ProvenanceStore {
        ProvenanceStore::default()
    }

    /// Stamp every live node of `tree` as [`Origin::Seed`], without
    /// overwriting origins already recorded (so re-running an engine on
    /// a grown system keeps earlier lineage).
    pub fn seed_document(&self, doc: Sym, tree: &Tree) {
        let mut inner = self.inner.borrow_mut();
        for n in tree.iter_live(tree.root()) {
            inner.origins.entry((doc, n)).or_insert(Origin::Seed);
        }
    }

    /// [`Self::seed_document`] over every document of a system.
    pub fn seed_system(&self, sys: &System) {
        for &d in sys.doc_names() {
            if let Some(t) = sys.doc(d) {
                self.seed_document(d, t);
            }
        }
    }

    /// Record an invocation, returning its sequence number. The
    /// record's `seq` field is overwritten with the assigned number.
    pub fn begin_invocation(&self, mut rec: InvocationRecord) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.invocations.len() as u64;
        rec.seq = seq;
        inner.invocations.push(rec);
        seq
    }

    /// Stamp a node's origin. First write wins: a node has exactly one
    /// derivation.
    pub fn stamp(&self, doc: Sym, node: NodeId, origin: Origin) {
        self.inner
            .borrow_mut()
            .origins
            .entry((doc, node))
            .or_insert(origin);
    }

    /// The recorded origin of a node, if any.
    pub fn origin(&self, doc: Sym, node: NodeId) -> Option<Origin> {
        self.inner.borrow().origins.get(&(doc, node)).copied()
    }

    /// Number of stamped nodes.
    pub fn origin_count(&self) -> usize {
        self.inner.borrow().origins.len()
    }

    /// Look up an invocation record by sequence number.
    pub fn invocation(&self, seq: u64) -> Option<InvocationRecord> {
        self.inner.borrow().invocations.get(seq as usize).cloned()
    }

    /// All invocation records, in sequence order.
    pub fn invocations(&self) -> Vec<InvocationRecord> {
        self.inner.borrow().invocations.clone()
    }

    /// Number of recorded invocations.
    pub fn invocation_count(&self) -> usize {
        self.inner.borrow().invocations.len()
    }

    /// Record delta-engine skip evidence.
    pub fn record_skip(&self, rec: SkipRecord) {
        self.inner.borrow_mut().skips.push(rec);
    }

    /// Number of recorded skips.
    pub fn skip_count(&self) -> usize {
        self.inner.borrow().skips.len()
    }

    /// All skip records, in the order they were recorded.
    pub fn skips(&self) -> Vec<SkipRecord> {
        self.inner.borrow().skips.clone()
    }

    /// The read-set evidence for the *most recent* skip of a call —
    /// why the engine proved re-invoking it would be a no-op.
    pub fn explain_skip(&self, doc: Sym, node: NodeId) -> Option<SkipRecord> {
        self.inner
            .borrow()
            .skips
            .iter()
            .rev()
            .find(|s| s.doc == doc && s.node == node)
            .cloned()
    }

    /// Derivation DAG of one node: follow its origin's invocation
    /// record to that invocation's witness nodes, and so on, back to
    /// seed data. `Remote` origins are leaves here (their inputs live
    /// in the provider's store; `axml-p2p` chains stores for the
    /// cross-peer view).
    pub fn explain_node(&self, sys: &System, doc: Sym, node: NodeId) -> DerivationDag {
        self.explain_nodes_with(|d| sys.doc(d), &[(doc, node)])
    }

    /// Multi-root [`Self::explain_node`] with a caller-supplied
    /// document resolver (the P2P backends resolve against peer-local
    /// documents rather than a `System`).
    pub fn explain_nodes_with<'t>(
        &self,
        mut doc_of: impl FnMut(Sym) -> Option<&'t Tree>,
        seeds: &[(Sym, NodeId)],
    ) -> DerivationDag {
        let mut dag = DerivationDag::default();
        let mut index: FxHashMap<(Sym, NodeId), usize> = FxHashMap::default();
        let mut queue: VecDeque<(Sym, NodeId)> = VecDeque::new();
        for &(d, n) in seeds {
            let ix = Self::intern_dag_node(&mut dag, &mut index, &mut doc_of, d, n, self);
            if !dag.roots.contains(&ix) {
                dag.roots.push(ix);
            }
            queue.push_back((d, n));
        }
        let mut expanded: FxHashSet<(Sym, NodeId)> = FxHashSet::default();
        while let Some((d, n)) = queue.pop_front() {
            if !expanded.insert((d, n)) {
                continue;
            }
            let ix = index[&(d, n)];
            if let Origin::Local { seq } = dag.nodes[ix].origin {
                if let Some(rec) = self.invocation(seq) {
                    for &(pd, pn) in &rec.inputs {
                        let pix =
                            Self::intern_dag_node(&mut dag, &mut index, &mut doc_of, pd, pn, self);
                        if !dag.nodes[ix].parents.contains(&pix) {
                            dag.nodes[ix].parents.push(pix);
                        }
                        queue.push_back((pd, pn));
                    }
                    dag.nodes[ix].via = Some(rec);
                }
            }
        }
        dag
    }

    fn intern_dag_node<'t>(
        dag: &mut DerivationDag,
        index: &mut FxHashMap<(Sym, NodeId), usize>,
        doc_of: &mut impl FnMut(Sym) -> Option<&'t Tree>,
        doc: Sym,
        node: NodeId,
        store: &ProvenanceStore,
    ) -> usize {
        if let Some(&ix) = index.get(&(doc, node)) {
            return ix;
        }
        let label = match doc_of(doc) {
            Some(t) if t.is_alive(node) => {
                let mut s = t.subtree(node).to_string();
                if s.len() > 48 {
                    let cut = (0..=48).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0);
                    s.truncate(cut);
                    s.push('…');
                }
                format!("{doc}#{}: {s}", node.0)
            }
            Some(_) => format!("{doc}#{}: (reduced away)", node.0),
            None => format!("{doc}#{}", node.0),
        };
        let origin = store.origin(doc, node).unwrap_or(Origin::Seed);
        let ix = dag.nodes.len();
        dag.nodes.push(DagNode {
            doc,
            node,
            label,
            origin,
            via: None,
            parents: Vec::new(),
        });
        index.insert((doc, node), ix);
        ix
    }

    /// Explain one answer binding of a query: for each body atom over a
    /// stored document, the witness nodes compatible with the binding;
    /// their merged lineage DAG; and the calls the weak relevance
    /// analysis of `crate::lazy` proves q-unneeded for this query —
    /// making the §4 verdicts concretely inspectable per answer.
    pub fn explain_answer(&self, sys: &System, q: &Query, binding: &Binding) -> AnswerExplanation {
        let mut atoms = Vec::new();
        let mut all: Vec<(Sym, NodeId)> = Vec::new();
        let mut seen: FxHashSet<(Sym, NodeId)> = FxHashSet::default();
        for (i, atom) in q.body.iter().enumerate() {
            if atom.doc == input_sym() || atom.doc == context_sym() {
                atoms.push(AtomWitnesses {
                    atom_index: i,
                    doc: atom.doc,
                    nodes: Vec::new(),
                });
                continue;
            }
            let nodes = match sys.doc(atom.doc) {
                Some(t) => atom_witnesses(&atom.pattern, t, Some(binding)),
                None => Vec::new(),
            };
            for &n in &nodes {
                if seen.insert((atom.doc, n)) {
                    all.push((atom.doc, n));
                }
            }
            atoms.push(AtomWitnesses {
                atom_index: i,
                doc: atom.doc,
                nodes,
            });
        }
        let lineage = self.explain_nodes_with(|d| sys.doc(d), &all);
        let unneeded_calls = crate::lazy::weak_relevance(sys, q).unneeded_calls(sys);
        AnswerExplanation {
            binding: binding.clone(),
            atoms,
            lineage,
            unneeded_calls,
        }
    }
}

/// The witness nodes of one body atom for one answer binding.
#[derive(Clone, Debug)]
pub struct AtomWitnesses {
    /// Index of the atom in the query body.
    pub atom_index: usize,
    /// The atom's document (possibly the virtual `input`/`context`).
    pub doc: Sym,
    /// Witness nodes in that document (empty for `input`/`context`
    /// atoms and for atoms with no compatible embedding).
    pub nodes: Vec<NodeId>,
}

/// The result of [`ProvenanceStore::explain_answer`].
#[derive(Clone, Debug)]
pub struct AnswerExplanation {
    /// The answer binding being explained.
    pub binding: Binding,
    /// Per-atom witnesses.
    pub atoms: Vec<AtomWitnesses>,
    /// Merged derivation DAG of every witness node.
    pub lineage: DerivationDag,
    /// Calls proven q-unneeded for this query by the weak relevance
    /// analysis (§4): none of them can contribute to any answer.
    pub unneeded_calls: Vec<(Sym, NodeId)>,
}

/// One node of a [`DerivationDag`].
#[derive(Clone, Debug)]
pub struct DagNode {
    /// Host document.
    pub doc: Sym,
    /// The document node.
    pub node: NodeId,
    /// Human-readable label: `doc#id: subtree-snippet`.
    pub label: String,
    /// The node's recorded origin ([`Origin::Seed`] when unrecorded).
    pub origin: Origin,
    /// The invocation that grafted this node, for `Local` origins.
    pub via: Option<InvocationRecord>,
    /// Indices of the nodes this one was derived *from* (the grafting
    /// invocation's witnesses).
    pub parents: Vec<usize>,
}

/// A derivation DAG: nodes plus the indices of the roots being
/// explained. Acyclic by construction — an invocation's witnesses are
/// recorded before its grafts are stamped, so parent edges strictly
/// decrease invocation sequence numbers.
#[derive(Clone, Debug, Default)]
pub struct DerivationDag {
    /// All DAG nodes; edges are `parents` indices into this vector.
    pub nodes: Vec<DagNode>,
    /// Indices of the explained nodes.
    pub roots: Vec<usize>,
}

impl DerivationDag {
    /// Number of nodes in the DAG.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the DAG empty?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Indices of the seed leaves: nodes whose origin is `Seed`.
    pub fn seed_leaves(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].origin == Origin::Seed)
            .collect()
    }

    /// The maximum number of invocation steps (`Local` or `Remote`
    /// origins) along any root→leaf path — the length of the longest
    /// derivation chain.
    pub fn invocation_depth(&self) -> usize {
        fn go(dag: &DerivationDag, i: usize, memo: &mut [Option<usize>]) -> usize {
            if let Some(d) = memo[i] {
                return d;
            }
            memo[i] = Some(0); // cycle guard; DAGs are acyclic by construction
            let step = match dag.nodes[i].origin {
                Origin::Seed => 0,
                Origin::Local { .. } | Origin::Remote { .. } => 1,
            };
            let below = dag.nodes[i]
                .parents
                .clone()
                .into_iter()
                .map(|p| go(dag, p, memo))
                .max()
                .unwrap_or(0);
            let d = step + below;
            memo[i] = Some(d);
            d
        }
        let mut memo = vec![None; self.nodes.len()];
        self.roots
            .iter()
            .map(|&r| go(self, r, &mut memo))
            .max()
            .unwrap_or(0)
    }

    /// Render the DAG in Graphviz DOT. Derived nodes point at the
    /// witnesses they came from; seed nodes render as ellipses, derived
    /// nodes as boxes labeled with their grafting invocation.
    pub fn to_dot(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("digraph provenance {\n  rankdir=BT;\n");
        out.push_str("  node [fontname=\"monospace\", fontsize=10];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = match n.origin {
                Origin::Seed => "ellipse",
                _ => "box",
            };
            let extra = if self.roots.contains(&i) {
                ", penwidth=2"
            } else {
                ""
            };
            out.push_str(&format!(
                "  n{i} [shape={shape}, label=\"{}\\n{}\"{extra}];\n",
                esc(&n.label),
                esc(&n.origin.to_string()),
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for &p in &n.parents {
                out.push_str(&format!("  n{i} -> n{p};\n"));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Borrowed provenance handle threaded through the engine, mirroring
/// `trace::Tracer`: `Copy`, and free when no store is attached.
#[derive(Clone, Copy, Default)]
pub struct Provenance<'a> {
    store: Option<&'a ProvenanceStore>,
}

impl<'a> Provenance<'a> {
    /// A handle that records into `store`.
    pub fn new(store: &'a ProvenanceStore) -> Provenance<'a> {
        Provenance { store: Some(store) }
    }

    /// The no-op handle.
    pub fn disabled() -> Provenance<'a> {
        Provenance { store: None }
    }

    /// Is a store attached?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.store.is_some()
    }

    /// Run `f` against the store, if one is attached. Like
    /// `Tracer::emit`, the closure is never run when disabled.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&ProvenanceStore) -> R) -> Option<R> {
        self.store.map(f)
    }
}

/// Witness nodes of one atom pattern in one document: the anchor nodes
/// each top-level conjunct (child of the pattern root) embeds into,
/// optionally filtered to embeddings whose bindings are compatible with
/// `binding`. A childless pattern witnesses its own anchors. Tree
/// variables at conjunct position are skipped (they match anything, so
/// they carry no lineage information).
pub fn atom_witnesses(pattern: &Pattern, tree: &Tree, binding: Option<&Binding>) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<NodeId> = FxHashSet::default();
    let conjuncts = pattern.children(pattern.root());
    let subs: Vec<Pattern> = if conjuncts.is_empty() {
        vec![pattern.clone()]
    } else {
        conjuncts
            .iter()
            .filter(|&&c| !matches!(pattern.item(c), PItem::TreeVar(_)))
            .map(|&c| pattern.subpattern(c))
            .collect()
    };
    for sub in &subs {
        for (anchor, b) in match_pattern_anywhere(sub, tree) {
            let compatible = match binding {
                Some(full) => full.merge(&b).is_some(),
                None => true,
            };
            if compatible && seen.insert(anchor) {
                out.push(anchor);
            }
        }
    }
    out
}

/// Witness nodes for every stored-document atom of a query, resolved
/// through `doc_of` (a `System` for the engine, peer-local documents
/// for P2P). `input`/`context` atoms are skipped — the invocation site
/// adds the call node itself for those.
pub fn query_witnesses<'t>(
    q: &Query,
    mut doc_of: impl FnMut(Sym) -> Option<&'t Tree>,
) -> Vec<(Sym, NodeId)> {
    let mut out = Vec::new();
    let mut seen: FxHashSet<(Sym, NodeId)> = FxHashSet::default();
    for atom in &q.body {
        if atom.doc == input_sym() || atom.doc == context_sym() {
            continue;
        }
        if let Some(t) = doc_of(atom.doc) {
            for n in atom_witnesses(&atom.pattern, t, None) {
                if seen.insert((atom.doc, n)) {
                    out.push((atom.doc, n));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_pattern, parse_tree};

    #[test]
    fn stamp_is_first_write_wins() {
        let store = ProvenanceStore::new();
        let d = Sym::intern("d");
        store.stamp(d, NodeId(3), Origin::Seed);
        store.stamp(d, NodeId(3), Origin::Local { seq: 7 });
        assert_eq!(store.origin(d, NodeId(3)), Some(Origin::Seed));
        assert_eq!(store.origin(d, NodeId(4)), None);
        assert_eq!(store.origin_count(), 1);
    }

    #[test]
    fn seed_document_marks_all_live_nodes() {
        let t = parse_tree(r#"r{a{"1"}, b}"#).unwrap();
        let store = ProvenanceStore::new();
        let d = Sym::intern("d");
        store.seed_document(d, &t);
        assert_eq!(store.origin_count(), t.node_count());
        for n in t.iter_live(t.root()) {
            assert_eq!(store.origin(d, n), Some(Origin::Seed));
        }
    }

    #[test]
    fn atom_witnesses_find_conjunct_anchors() {
        // Two conjuncts under the root: t-tuples and e-tuples.
        let p = parse_pattern(r#"r{t{from{$x},to{$z}}, e{from{$z},to{$y}}}"#).unwrap();
        let t =
            parse_tree(r#"r{t{from{"1"},to{"2"}}, e{from{"2"},to{"3"}}, e{from{"9"},to{"9"}}}"#)
                .unwrap();
        let w = atom_witnesses(&p, &t, None);
        // One t anchor + two e anchors; never the document root.
        assert_eq!(w.len(), 3);
        assert!(!w.contains(&t.root()));
    }

    #[test]
    fn binding_filter_narrows_witnesses() {
        let p = parse_pattern(r#"r{e{from{$z},to{$y}}}"#).unwrap();
        let t = parse_tree(r#"r{e{from{"2"},to{"3"}}, e{from{"9"},to{"9"}}}"#).unwrap();
        let all = atom_witnesses(&p, &t, None);
        assert_eq!(all.len(), 2);
        // Bind $y = "3": only the first e-tuple is compatible.
        let sub = parse_pattern(r#"e{from{$z},to{$y}}"#).unwrap();
        let narrowed: Vec<_> = match_pattern_anywhere(&sub, &t)
            .into_iter()
            .filter(|(_, b)| {
                b.get(Sym::intern("y"))
                    .map(|v| format!("{v:?}").contains('3'))
                    .unwrap_or(false)
            })
            .collect();
        assert_eq!(narrowed.len(), 1);
        let w = atom_witnesses(&p, &t, Some(&narrowed[0].1));
        assert_eq!(w, vec![narrowed[0].0]);
    }

    #[test]
    fn explain_node_of_seed_is_single_leaf() {
        let mut sys = System::new();
        sys.add_document_text("d", r#"r{a{"1"}}"#).unwrap();
        let store = ProvenanceStore::new();
        store.seed_system(&sys);
        let d = Sym::intern("d");
        let t = sys.doc(d).unwrap();
        let dag = store.explain_node(&sys, d, t.root());
        assert_eq!(dag.len(), 1);
        assert_eq!(dag.invocation_depth(), 0);
        assert_eq!(dag.seed_leaves(), vec![0]);
        let dot = dag.to_dot();
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("ellipse"));
    }

    #[test]
    fn dot_escapes_quotes_and_backslashes() {
        let mut dag = DerivationDag::default();
        dag.nodes.push(DagNode {
            doc: Sym::intern("d"),
            node: NodeId(0),
            label: "say \"hi\" \\ bye".into(),
            origin: Origin::Seed,
            via: None,
            parents: Vec::new(),
        });
        dag.roots.push(0);
        let dot = dag.to_dot();
        assert!(dot.contains("say \\\"hi\\\" \\\\ bye"));
    }

    #[test]
    fn disabled_handle_never_runs_closures() {
        let prov = Provenance::disabled();
        assert!(!prov.enabled());
        let ran = prov.with(|_| true);
        assert_eq!(ran, None);
    }
}
