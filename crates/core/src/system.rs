//! Monotone AXML systems (Definition 2.3): named documents plus the
//! services their function nodes call.

use crate::error::{AxmlError, Result};
use crate::query::parse_query;
use crate::query::Query;
use crate::reduce::{canonical_key, reduce_in_place, CanonKey};
use crate::service::{BlackBoxService, QueryService, ServiceRef};
use crate::subsume::subsumed;
use crate::sym::{FxHashMap, Sym};
use crate::tree::{Marking, Tree};
use std::sync::Arc;

/// The reserved document name `input` (call parameters).
pub fn input_sym() -> Sym {
    Sym::intern("input")
}

/// The reserved document name `context` (the call's parent subtree).
pub fn context_sym() -> Sym {
    Sym::intern("context")
}

/// A monotone AXML system `(D, F, I)`: the named documents `I`, the
/// function names `F`, and their service definitions.
///
/// ```
/// use axml_core::system::System;
/// use axml_core::Sym;
///
/// let mut sys = System::new();
/// sys.add_document_text("store", r#"catalog{cd{title{"Kind of Blue"}}, @reviews}"#)?;
/// sys.add_service_text("reviews", "review{$t} :- store/catalog{cd{title{$t}}}")?;
///
/// // One live function node: the @reviews call in `store`.
/// let calls = sys.function_nodes();
/// assert_eq!(calls.len(), 1);
/// assert_eq!(calls[0].0, Sym::intern("store"));
/// assert_eq!(sys.doc_names(), [Sym::intern("store")]);
/// # Ok::<(), axml_core::AxmlError>(())
/// ```
#[derive(Clone, Default)]
pub struct System {
    doc_order: Vec<Sym>,
    docs: FxHashMap<Sym, Tree>,
    service_order: Vec<Sym>,
    services: FxHashMap<Sym, ServiceRef>,
}

impl System {
    /// Empty system.
    pub fn new() -> System {
        System::default()
    }

    /// Add a document. The tree is reduced on entry (the paper identifies
    /// documents with their reduced representatives).
    pub fn add_document(&mut self, name: &str, mut tree: Tree) -> Result<()> {
        let name = Sym::intern(name);
        if name == input_sym() || name == context_sym() {
            return Err(AxmlError::ReservedDocumentName(name));
        }
        if self.docs.contains_key(&name) {
            return Err(AxmlError::DuplicateDocument(name));
        }
        tree.validate_document_root()?;
        reduce_in_place(&mut tree);
        self.doc_order.push(name);
        self.docs.insert(name, tree);
        Ok(())
    }

    /// Parse and add a document in compact syntax.
    pub fn add_document_text(&mut self, name: &str, src: &str) -> Result<()> {
        self.add_document(name, crate::parse::parse_document(src)?)
    }

    /// Register a positive service defined by a query.
    pub fn add_service(&mut self, name: &str, query: Query) -> Result<()> {
        self.add_service_ref(name, Arc::new(QueryService::new(query)))
    }

    /// Parse a query and register it as a positive service.
    pub fn add_service_text(&mut self, name: &str, query_src: &str) -> Result<()> {
        self.add_service(name, parse_query(query_src)?)
    }

    /// Register a black-box monotone service.
    pub fn add_black_box(&mut self, name: &str, svc: BlackBoxService) -> Result<()> {
        self.add_service_ref(name, Arc::new(svc))
    }

    /// Register any service implementation.
    pub fn add_service_ref(&mut self, name: &str, svc: ServiceRef) -> Result<()> {
        let name = Sym::intern(name);
        if self.services.contains_key(&name) {
            return Err(AxmlError::DuplicateService(name));
        }
        self.service_order.push(name);
        self.services.insert(name, svc);
        Ok(())
    }

    /// Document names, in insertion order.
    pub fn doc_names(&self) -> &[Sym] {
        &self.doc_order
    }

    /// Service (function) names, in insertion order.
    pub fn service_names(&self) -> &[Sym] {
        &self.service_order
    }

    /// Fetch a document.
    pub fn doc(&self, name: Sym) -> Option<&Tree> {
        self.docs.get(&name)
    }

    /// Fetch a document mutably (used by the engine).
    pub fn doc_mut(&mut self, name: Sym) -> Option<&mut Tree> {
        self.docs.get_mut(&name)
    }

    /// A document's mutation counter (see [`Tree::mutation_count`]):
    /// strictly increases with every graft that survives reduction, so
    /// callers can cheaply detect "has this document changed since I
    /// last looked?" without diffing trees. Deterministic run-to-run
    /// (unlike the MVCC stamp [`Tree::version`]), so it is safe to
    /// report on the wire and in trace events.
    pub fn doc_version(&self, name: Sym) -> Option<u64> {
        self.docs.get(&name).map(Tree::mutation_count)
    }

    /// A monotone version for the whole system: the sum of all document
    /// mutation counts. Any rewriting step strictly increases it;
    /// equality of two observations means no document changed in
    /// between. Deterministic run-to-run, unlike the per-document MVCC
    /// stamps ([`Tree::version`]).
    pub fn version(&self) -> u64 {
        self.docs.values().map(Tree::mutation_count).sum()
    }

    /// Fetch a service.
    pub fn service(&self, name: Sym) -> Option<&ServiceRef> {
        self.services.get(&name)
    }

    /// The defining query of service `name`, if positive.
    pub fn service_query(&self, name: Sym) -> Option<&Query> {
        self.services.get(&name).and_then(|s| s.query())
    }

    /// Check well-formedness: every function name occurring in a document
    /// or in a positive service definition has a registered service, and
    /// every document name referenced by a positive service is either a
    /// stored document or reserved.
    pub fn validate(&self) -> Result<()> {
        for name in &self.doc_order {
            let t = &self.docs[name];
            for n in t.iter_live(t.root()) {
                if let Marking::Func(f) = t.marking(n) {
                    if !self.services.contains_key(&f) {
                        return Err(AxmlError::UnknownFunction(f));
                    }
                }
            }
        }
        for name in &self.service_order {
            if let Some(q) = self.services[name].query() {
                for f in q.function_names() {
                    if !self.services.contains_key(&f) {
                        return Err(AxmlError::UnknownFunction(f));
                    }
                }
                for d in q.doc_names() {
                    if d != input_sym() && d != context_sym() && !self.docs.contains_key(&d) {
                        return Err(AxmlError::UnknownDocument(d));
                    }
                }
            }
        }
        Ok(())
    }

    /// Is every service positively defined (a query)?
    pub fn is_positive(&self) -> bool {
        self.service_order
            .iter()
            .all(|s| self.services[s].query().is_some())
    }

    /// Is this a *simple* positive system — every service a query with no
    /// tree variables (§3.2)? Such systems have regular semantics
    /// (Lemma 3.2) and decidable termination (Thm 3.3).
    pub fn is_simple(&self) -> bool {
        self.service_order.iter().all(|s| {
            self.services[s]
                .query()
                .map(Query::is_simple)
                .unwrap_or(false)
        })
    }

    /// First service whose definition breaks simplicity, if any.
    pub fn non_simple_witness(&self) -> Option<Sym> {
        self.service_order.iter().copied().find(|s| {
            !self.services[s]
                .query()
                .map(Query::is_simple)
                .unwrap_or(false)
        })
    }

    /// Total live nodes across documents.
    pub fn node_count(&self) -> usize {
        self.doc_order
            .iter()
            .map(|d| self.docs[d].node_count())
            .sum()
    }

    /// All live function nodes across documents, as (document, node) pairs
    /// in deterministic (insertion, preorder) order.
    pub fn function_nodes(&self) -> Vec<(Sym, crate::tree::NodeId)> {
        let mut out = Vec::new();
        for d in &self.doc_order {
            for n in self.docs[d].function_nodes() {
                out.push((*d, n));
            }
        }
        out
    }

    /// Canonical key of the whole system: the sorted list of
    /// (name, canonical document) pairs. Two runs of the engine reached
    /// equivalent systems iff their keys agree — the confluence check of
    /// Theorem 2.1.
    pub fn canonical_key(&self) -> Vec<(Sym, CanonKey)> {
        let mut keys: Vec<(Sym, CanonKey)> = self
            .doc_order
            .iter()
            .map(|d| (*d, canonical_key(&self.docs[d])))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Pointwise document subsumption `self ⊆ other` (documents compared
    /// by name).
    pub fn subsumed_by(&self, other: &System) -> bool {
        self.doc_order.iter().all(|d| match other.docs.get(d) {
            Some(o) => subsumed(&self.docs[d], o),
            None => false,
        })
    }

    /// Mutual pointwise subsumption.
    pub fn equivalent_to(&self, other: &System) -> bool {
        self.subsumed_by(other) && other.subsumed_by(self)
    }

    /// Take an O(1) MVCC snapshot of the system's current state.
    ///
    /// `System: Clone` is already cheap — every [`Tree`] clone is two
    /// `Arc` bumps (see the copy-on-write notes on [`Tree`]) — and the
    /// snapshot wraps that clone in an `Arc` so it can be handed to any
    /// number of concurrent readers (server query/stats frames, p2p
    /// peers) for one more pointer bump each. The snapshot
    /// is fully immutable: writers that keep mutating the original
    /// diverge via path copying and never disturb it, and every
    /// document keeps its `(id, version)` handle so snapshot-side
    /// evaluation shares match/program caches with the live system.
    pub fn snapshot(&self) -> SystemSnapshot {
        SystemSnapshot(Arc::new(self.clone()))
    }
}

/// An immutable, shareable snapshot of a [`System`] — the MVCC handle
/// readers evaluate against while a writer commits rounds.
///
/// Dereferences to [`System`], so every read-only API (queries,
/// canonical keys, stats probes) works on a snapshot unchanged.
/// Cloning a snapshot is one `Arc` bump.
#[derive(Clone, Debug)]
pub struct SystemSnapshot(Arc<System>);

impl std::ops::Deref for SystemSnapshot {
    type Target = System;

    fn deref(&self) -> &System {
        &self.0
    }
}

impl SystemSnapshot {
    /// The snapshot's state as a plain shared reference (convenience for
    /// APIs that want an explicit `&System`).
    pub fn system(&self) -> &System {
        &self.0
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "System {{")?;
        for d in &self.doc_order {
            writeln!(f, "  {d}/{}", self.docs[d])?;
        }
        for s in &self.service_order {
            writeln!(f, "  {s} : {}", self.services[s].describe())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;

    fn example_3_2() -> System {
        // I(d0) = r{t{1,2},t{2,3},t{3,4}}  (encoded with from/to)
        // I(d1) = r{g,f}
        // g : t{x,y} :- d0/r{t{x,y}}
        // f : t{x,y} :- d1/r{t{x,z},t{z,y}}
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
    fn build_and_validate_example() {
        let sys = example_3_2();
        sys.validate().unwrap();
        assert!(sys.is_positive());
        assert!(sys.is_simple());
        assert_eq!(sys.function_nodes().len(), 2);
    }

    #[test]
    fn reserved_names_rejected() {
        let mut sys = System::new();
        let t = parse_tree("a").unwrap();
        assert!(matches!(
            sys.add_document("input", t.clone()),
            Err(AxmlError::ReservedDocumentName(_))
        ));
        assert!(matches!(
            sys.add_document("context", t),
            Err(AxmlError::ReservedDocumentName(_))
        ));
    }

    #[test]
    fn duplicates_rejected() {
        let mut sys = System::new();
        sys.add_document_text("d", "a").unwrap();
        assert!(matches!(
            sys.add_document_text("d", "b"),
            Err(AxmlError::DuplicateDocument(_))
        ));
        sys.add_service_text("f", "a :-").unwrap();
        assert!(matches!(
            sys.add_service_text("f", "b :-"),
            Err(AxmlError::DuplicateService(_))
        ));
    }

    #[test]
    fn validate_catches_unknown_function() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@nosvc}").unwrap();
        assert!(matches!(sys.validate(), Err(AxmlError::UnknownFunction(_))));
    }

    #[test]
    fn validate_catches_unknown_document_in_query() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "r{$x} :- nodoc/a{$x}").unwrap();
        assert!(matches!(sys.validate(), Err(AxmlError::UnknownDocument(_))));
        // input/context are always allowed.
        let mut sys2 = System::new();
        sys2.add_document_text("d", "a{@f}").unwrap();
        sys2.add_service_text("f", "r{$x} :- input/input{$x}, context/a{$x}")
            .unwrap();
        sys2.validate().unwrap();
    }

    #[test]
    fn documents_reduced_on_entry() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{b{c,c},b{c,d,d}}").unwrap();
        assert_eq!(sys.doc(Sym::intern("d")).unwrap().node_count(), 4);
    }

    #[test]
    fn simplicity_detection() {
        let mut sys = example_3_2();
        assert!(sys.is_simple());
        sys.add_service_text("h", "a{a{#X}} :- context/a{a{#X}}")
            .unwrap();
        assert!(!sys.is_simple());
        assert_eq!(sys.non_simple_witness(), Some(Sym::intern("h")));
    }

    #[test]
    fn versions_track_rewriting_steps() {
        let mut sys = example_3_2();
        let d1 = Sym::intern("d1");
        let before_doc = sys.doc_version(d1).unwrap();
        let before_sys = sys.version();
        let (d, n) = sys
            .function_nodes()
            .into_iter()
            .find(|&(d, n)| d == d1 && sys.doc(d).unwrap().marking(n) == Marking::func("g"))
            .unwrap();
        crate::invoke::invoke_node(&mut sys, d, n).unwrap();
        assert!(sys.doc_version(d1).unwrap() > before_doc);
        assert!(sys.version() > before_sys);
        // A no-op re-invocation leaves every version unchanged.
        let stable = sys.version();
        crate::invoke::invoke_node(&mut sys, d, n).unwrap();
        assert_eq!(sys.version(), stable);
    }

    #[test]
    fn snapshot_is_immutable_while_writer_advances() {
        let mut sys = example_3_2();
        let snap = sys.snapshot();
        let key0 = snap.canonical_key();
        let v0 = snap.version();
        let calls = sys.function_nodes();
        for (d, n) in calls {
            crate::invoke::invoke_node(&mut sys, d, n).unwrap();
        }
        assert!(sys.version() > v0, "the writer moved on");
        assert_eq!(snap.version(), v0, "the snapshot did not");
        assert_eq!(snap.canonical_key(), key0);
        // Snapshots are cheap to fan out and agree with their source.
        let again = snap.clone();
        assert_eq!(again.canonical_key(), key0);
        assert_eq!(sys.snapshot().canonical_key(), sys.canonical_key());
    }

    #[test]
    fn canonical_key_detects_equivalence() {
        let a = example_3_2();
        let mut b = example_3_2();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert!(a.equivalent_to(&b));
        let d1 = Sym::intern("d1");
        let extra = parse_tree("x").unwrap();
        let doc = b.doc_mut(d1).unwrap();
        let root = doc.root();
        doc.graft(root, &extra).unwrap();
        assert_ne!(a.canonical_key(), b.canonical_key());
        assert!(a.subsumed_by(&b));
        assert!(!b.subsumed_by(&a));
    }
}
