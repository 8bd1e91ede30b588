//! The simulated AXML peer network.
//!
//! Function nodes carry **peer-qualified** names `provider.service`.
//! Invoking one sends a `Call` message carrying the call's `input`
//! parameters and `context`; the provider evaluates its local positive
//! query against its *own* documents (plus the shipped input/context)
//! and replies with a forest, which the caller appends as siblings of
//! the call node and reduces — exactly the single-system semantics of
//! §2.2, distributed.
//!
//! Two propagation modes (§2.2's equivalent pull and push views):
//!
//! * **Pull** — every round, every call node re-requests; quiescence is
//!   reached when a full round brings no change anywhere.
//! * **Push** — the first request subscribes the call node at the
//!   provider; afterwards the provider re-evaluates and pushes only when
//!   one of its documents changed. Far fewer messages on stable data.

use axml_core::error::{AxmlError, Result};
use axml_core::eval::{snapshot, Env};
use axml_core::forest::Forest;
use axml_core::provenance::{query_witnesses, InvocationRecord, Origin, ProvenanceStore};
use axml_core::query::{parse_query, Query};
use axml_core::reduce::{canonical_key, reduce_in_place, CanonKey};
use axml_core::subsume::SubMemo;
use axml_core::sym::{FxHashMap, Sym};
use axml_core::system::{context_sym, input_sym};
use axml_core::trace::{EventKind, Journal, MsgKind, TraceEvent, Tracer};
use axml_core::tree::{Marking, NodeId, Tree};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// One peer: named documents plus locally-hosted positive services.
#[derive(Clone)]
pub struct Peer {
    /// The peer's name.
    pub name: Sym,
    docs: FxHashMap<Sym, Tree>,
    doc_order: Vec<Sym>,
    services: FxHashMap<Sym, Query>,
}

impl Peer {
    pub(crate) fn new(name: Sym) -> Peer {
        Peer {
            name,
            docs: FxHashMap::default(),
            doc_order: Vec::new(),
            services: FxHashMap::default(),
        }
    }

    /// Add a document (compact syntax).
    pub fn add_document_text(&mut self, name: &str, src: &str) -> Result<()> {
        let mut t = axml_core::parse::parse_document(src)?;
        reduce_in_place(&mut t);
        let name = Sym::intern(name);
        if self.docs.insert(name, t).is_some() {
            return Err(AxmlError::DuplicateDocument(name));
        }
        self.doc_order.push(name);
        Ok(())
    }

    /// Host a service defined by a positive query over this peer's
    /// documents (plus `input`/`context` shipped by callers).
    pub fn add_service_text(&mut self, name: &str, query: &str) -> Result<()> {
        let name = Sym::intern(name);
        if self.services.insert(name, parse_query(query)?).is_some() {
            return Err(AxmlError::DuplicateService(name));
        }
        Ok(())
    }

    /// Read a document.
    pub fn doc(&self, name: &str) -> Option<&Tree> {
        self.docs.get(&Sym::intern(name))
    }

    /// Document names in registration order.
    pub fn doc_names(&self) -> &[Sym] {
        &self.doc_order
    }

    /// Stamp all current nodes of this peer's documents as seed data.
    pub(crate) fn seed_provenance(&self, store: &ProvenanceStore) {
        for d in &self.doc_order {
            store.seed_document(*d, &self.docs[d]);
        }
    }

    /// Deterministic digest of this peer's documents.
    pub(crate) fn digest(&self) -> Vec<(Sym, CanonKey)> {
        self.doc_order
            .iter()
            .map(|d| (*d, canonical_key(&self.docs[d])))
            .collect()
    }

    /// Live function nodes across this peer's documents.
    pub(crate) fn function_nodes(&self) -> Vec<(Sym, NodeId, Sym)> {
        let mut out = Vec::new();
        for d in &self.doc_order {
            let t = &self.docs[d];
            for n in t.iter_live(t.root()) {
                if let Marking::Func(f) = t.marking(n) {
                    out.push((*d, n, f));
                }
            }
        }
        out
    }

    /// The caller side of one call site: build the [`Call`] for the
    /// function node `node` of `doc`, named `qualified`, and emit its
    /// send. `Ok(None)` when an earlier reduction merged the node away;
    /// an error when `qualified` names no service (see [`resolve`]).
    pub(crate) fn issue(
        &self,
        doc: Sym,
        node: NodeId,
        qualified: Sym,
        is_peer: impl Fn(Sym) -> bool,
        round: u64,
        tracer: Tracer<'_>,
    ) -> Result<Option<Call>> {
        let tree = &self.docs[&doc];
        if !tree.is_alive(node) {
            return Ok(None);
        }
        let Some(parent) = tree.parent(node) else {
            return Ok(None);
        };
        let (provider, service) = resolve(qualified, is_peer)?;
        let mut input = Tree::with_label("input");
        let iroot = input.root();
        tree.copy_children_into(node, &mut input, iroot);
        tracer.emit(|| EventKind::MsgSend {
            from: self.name,
            to: provider,
            kind: MsgKind::Call,
        });
        Ok(Some(Call {
            caller: self.name,
            doc,
            node,
            provider,
            service,
            input,
            context: tree.subtree(parent),
            doc_version: tree.mutation_count(),
            round,
            trace: tracer.trace_id(),
        }))
    }

    /// The provider side of one call: evaluate the hosted service
    /// against this peer's documents plus the shipped input/context,
    /// log the invocation (with the witnesses it read) in `store`, and
    /// emit the receive, evaluation and response-send events under the
    /// call's trace id. Errors when the service is not hosted here.
    pub(crate) fn serve(
        &self,
        call: &Call,
        tracer: Tracer<'_>,
        store: Option<&ProvenanceStore>,
    ) -> Result<Response> {
        let tracer = tracer.with_trace(call.trace);
        tracer.emit(|| EventKind::MsgRecv {
            peer: self.name,
            kind: MsgKind::Call,
        });
        let q = self
            .services
            .get(&call.service)
            .ok_or(AxmlError::UnknownFunction(call.service))?;
        let started = tracer.enabled().then(Instant::now);
        let mut env = Env::new();
        for d in &self.doc_order {
            env.insert(*d, &self.docs[d]);
        }
        env.insert(input_sym(), &call.input);
        env.insert(context_sym(), &call.context);
        let forest = snapshot(q, &env)?;
        tracer.emit(|| EventKind::PeerEval {
            peer: self.name,
            service: call.service,
            dur_ns: started.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
        });
        let seq = store.map_or(0, |st| {
            st.begin_invocation(InvocationRecord {
                seq: 0,
                service: call.service,
                doc: call.doc,
                node: call.node,
                round: call.round,
                doc_version: call.doc_version,
                peer: Some(self.name),
                inputs: query_witnesses(q, |d| self.docs.get(&d)),
            })
        });
        tracer.emit(|| EventKind::MsgSend {
            from: self.name,
            to: call.caller,
            kind: MsgKind::Response,
        });
        Ok(Response {
            doc: call.doc,
            node: call.node,
            forest,
            provider: self.name,
            service: call.service,
            seq,
            round: call.round,
            trace: call.trace,
        })
    }

    /// The caller side of one response: graft every response tree not
    /// already subsumed by a sibling beside the (still live) call node,
    /// stamp each grafted node [`Origin::Remote`] in `store` (naming
    /// the provider invocation that produced it), and reduce the
    /// document once if anything landed. Returns whether it changed.
    pub(crate) fn absorb(
        &mut self,
        resp: &Response,
        tracer: Tracer<'_>,
        store: Option<&ProvenanceStore>,
    ) -> bool {
        tracer.with_trace(resp.trace).emit(|| EventKind::MsgRecv {
            peer: self.name,
            kind: MsgKind::Response,
        });
        let Some(tree) = self.docs.get_mut(&resp.doc) else {
            return false;
        };
        if !tree.is_alive(resp.node) {
            return false;
        }
        let Some(parent) = tree.parent(resp.node) else {
            return false;
        };
        let origin = Origin::Remote {
            provider: resp.provider,
            service: resp.service,
            seq: resp.seq,
            round: resp.round,
        };
        let mut grafted = false;
        for r in resp.forest.trees() {
            let mut memo = SubMemo::new();
            let already = tree
                .children(parent)
                .iter()
                .any(|&c| memo.subsumed_at(r, r.root(), tree, c));
            if !already {
                let new_root = tree.graft(parent, r).expect("parent is alive");
                grafted = true;
                if let Some(st) = store {
                    for nid in tree.iter_live(new_root) {
                        st.stamp(resp.doc, nid, origin);
                    }
                }
            }
        }
        if grafted {
            reduce_in_place(tree);
        }
        grafted
    }
}

/// Split `provider.service` into its halves; an error unless the name
/// has both halves and `is_peer` knows the provider.
fn resolve(qualified: Sym, is_peer: impl Fn(Sym) -> bool) -> Result<(Sym, Sym)> {
    let (peer, svc) = qualified
        .as_str()
        .split_once('.')
        .map(|(p, s)| (Sym::intern(p), Sym::intern(s)))
        .ok_or(AxmlError::UnknownFunction(qualified))?;
    if !is_peer(peer) {
        return Err(AxmlError::UnknownFunction(qualified));
    }
    Ok((peer, svc))
}

/// One call site's request to a provider's service: the `Call`
/// message of both runtimes (see [`Peer::issue`]).
pub(crate) struct Call {
    /// The calling peer.
    pub(crate) caller: Sym,
    /// Host document of the call node, at the caller.
    pub(crate) doc: Sym,
    /// The call node.
    pub(crate) node: NodeId,
    /// The peer hosting the service.
    pub(crate) provider: Sym,
    /// The service, unqualified.
    pub(crate) service: Sym,
    /// The call node's children, under an `input` root.
    pub(crate) input: Tree,
    /// The call node's parent subtree.
    pub(crate) context: Tree,
    /// The host document's mutation count when the call was issued.
    pub(crate) doc_version: u64,
    /// The simulator round that issued the call (0 on the threaded
    /// backend, which has no rounds).
    pub(crate) round: u64,
    /// Request-scoped trace id (0 = unattributed): the provider stamps
    /// its receive/eval/send events with it and echoes it on the
    /// [`Response`], so one call's derivation is reconstructable
    /// across both peers' journals.
    pub(crate) trace: u64,
}

/// A provider's answer to a [`Call`] (see [`Peer::serve`]).
pub(crate) struct Response {
    /// The call site's document, at the caller.
    pub(crate) doc: Sym,
    /// The call node.
    pub(crate) node: NodeId,
    /// The answer forest.
    pub(crate) forest: Forest,
    /// The peer that evaluated the call.
    pub(crate) provider: Sym,
    /// The service it evaluated.
    pub(crate) service: Sym,
    /// Seq of the provider-side [`InvocationRecord`] (0 when
    /// provenance is off): cross-peer lineage rides the response.
    pub(crate) seq: u64,
    /// The originating call's round, echoed back.
    pub(crate) round: u64,
    /// The originating call's trace id, echoed back.
    pub(crate) trace: u64,
}

/// Propagation mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Callers re-request every round.
    Pull,
    /// Callers subscribe once; providers push on change.
    Push,
}

/// Message and work accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetworkStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Call/request messages sent.
    pub calls_sent: usize,
    /// Response/push messages delivered.
    pub responses: usize,
    /// Responses that actually added data somewhere.
    pub productive_responses: usize,
    /// Service evaluations at providers.
    pub evaluations: usize,
}

/// A subscription (push mode): re-deliver to this call site when the
/// provider's data changes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Subscription {
    caller: Sym,
    doc: Sym,
    node: NodeId,
    provider: Sym,
    service: Sym,
}

/// The network of peers.
pub struct Network {
    peers: Vec<Peer>,
    index: FxHashMap<Sym, usize>,
    mode: Mode,
    rng: Option<StdRng>,
    subs: Vec<Subscription>,
    /// Canonical keys of each peer's docs at the last push round.
    last_keys: FxHashMap<Sym, Vec<(Sym, CanonKey)>>,
    /// Attached trace journal (see [`enable_tracing`](Network::enable_tracing)).
    journal: Option<Journal>,
    /// Per-peer provenance stores (see
    /// [`enable_provenance`](Network::enable_provenance)).
    provenance: Option<FxHashMap<Sym, ProvenanceStore>>,
    /// Global stats.
    pub stats: NetworkStats,
}

impl Network {
    /// An empty network in the given mode; `seed` randomizes delivery
    /// order (None = deterministic order).
    pub fn new(mode: Mode, seed: Option<u64>) -> Network {
        Network {
            peers: Vec::new(),
            index: FxHashMap::default(),
            mode,
            rng: seed.map(StdRng::seed_from_u64),
            subs: Vec::new(),
            last_keys: FxHashMap::default(),
            journal: None,
            provenance: None,
            stats: NetworkStats::default(),
        }
    }

    /// Start recording a structured event journal of every subsequent
    /// round: message send/recv, provider evaluations (with latency),
    /// round boundaries. See [`axml_core::trace`].
    pub fn enable_tracing(&mut self) {
        self.journal = Some(Journal::new());
    }

    /// Detach and return the recorded events (empty if tracing was
    /// never enabled). Tracing stops.
    pub fn take_journal(&mut self) -> Vec<TraceEvent> {
        self.journal
            .take()
            .map(Journal::into_events)
            .unwrap_or_default()
    }

    /// Start recording per-node lineage: one [`ProvenanceStore`] per
    /// peer (mirroring the per-peer journals of the threaded backend).
    /// Current document contents are stamped as seed data; every
    /// subsequently delivered response stamps its grafted nodes with an
    /// [`Origin::Remote`] naming the provider invocation, which is
    /// logged in the *provider's* store. Call **after** adding peers.
    pub fn enable_provenance(&mut self) {
        let stores: FxHashMap<Sym, ProvenanceStore> = self
            .peers
            .iter()
            .map(|p| {
                let store = ProvenanceStore::new();
                p.seed_provenance(&store);
                (p.name, store)
            })
            .collect();
        self.provenance = Some(stores);
    }

    /// Access one peer's provenance store (None before
    /// [`Network::enable_provenance`]).
    pub fn provenance_store(&self, name: &str) -> Option<&ProvenanceStore> {
        self.provenance.as_ref()?.get(&Sym::intern(name))
    }

    /// Detach and return the per-peer provenance stores (empty if
    /// provenance was never enabled). Recording stops.
    pub fn take_provenance(&mut self) -> FxHashMap<Sym, ProvenanceStore> {
        self.provenance.take().unwrap_or_default()
    }

    /// Add a peer and get a handle to populate it.
    pub fn add_peer(&mut self, name: &str) -> &mut Peer {
        let sym = Sym::intern(name);
        let idx = self.peers.len();
        self.peers.push(Peer::new(sym));
        self.index.insert(sym, idx);
        &mut self.peers[idx]
    }

    /// Access a peer.
    pub fn peer(&self, name: &str) -> Option<&Peer> {
        self.index.get(&Sym::intern(name)).map(|&i| &self.peers[i])
    }

    /// One fair round. Returns true if any document changed.
    fn round(&mut self) -> Result<bool> {
        // The journal (and the provenance stores) are taken out for the
        // duration of the round so their shared borrows cannot conflict
        // with `&mut self` calls (and survive `?` early returns in the
        // inner body).
        let journal = self.journal.take();
        let tracer = match journal.as_ref() {
            Some(j) => Tracer::new(j),
            None => Tracer::disabled(),
        };
        let stores = self.provenance.take();
        let out = self.round_inner(tracer, stores.as_ref());
        self.journal = journal;
        self.provenance = stores;
        out
    }

    fn round_inner(
        &mut self,
        tracer: Tracer<'_>,
        stores: Option<&FxHashMap<Sym, ProvenanceStore>>,
    ) -> Result<bool> {
        let round = self.stats.rounds as u64;
        tracer.emit(|| EventKind::RoundStart { round });
        self.stats.rounds += 1;
        let mut changed = false;

        // Gather the call sites to serve this round.
        let mut work: Vec<(Sym, Sym, NodeId, Sym)> = Vec::new(); // (caller, doc, node, qualified)
        match self.mode {
            Mode::Pull => {
                for p in &self.peers {
                    for (d, n, f) in p.function_nodes() {
                        work.push((p.name, d, n, f));
                    }
                }
            }
            Mode::Push => {
                // New, unsubscribed call nodes always fire (subscribe).
                for p in &self.peers {
                    for (d, n, f) in p.function_nodes() {
                        let sub_exists = self
                            .subs
                            .iter()
                            .any(|s| s.caller == p.name && s.doc == d && s.node == n);
                        if !sub_exists {
                            work.push((p.name, d, n, f));
                        }
                    }
                }
                // Subscribed nodes fire only if their provider changed.
                let dirty: Vec<Sym> = self
                    .peers
                    .iter()
                    .filter(|p| self.last_keys.get(&p.name) != Some(&p.digest()))
                    .map(|p| p.name)
                    .collect();
                for s in &self.subs {
                    if dirty.contains(&s.provider) {
                        let qualified = Sym::intern(&format!("{}.{}", s.provider, s.service));
                        work.push((s.caller, s.doc, s.node, qualified));
                    }
                }
                // Snapshot provider keys for the next round.
                self.last_keys = self.peers.iter().map(|p| (p.name, p.digest())).collect();
            }
        }

        if let Some(rng) = self.rng.as_mut() {
            work.shuffle(rng);
        }

        for (caller, doc, node, qualified) in work {
            let cidx = self.index[&caller];
            let is_peer = |p| self.index.contains_key(&p);
            let Some(call) =
                self.peers[cidx].issue(doc, node, qualified, is_peer, round, tracer)?
            else {
                continue;
            };
            let provider = call.provider;
            self.stats.calls_sent += 1;
            self.stats.evaluations += 1;
            let response = self.peers[self.index[&provider]].serve(
                &call,
                tracer,
                stores.and_then(|m| m.get(&provider)),
            )?;
            self.stats.responses += 1;
            if self.mode == Mode::Push {
                let sub = Subscription {
                    caller,
                    doc,
                    node,
                    provider,
                    service: call.service,
                };
                if !self.subs.contains(&sub) {
                    self.subs.push(sub);
                }
            }
            if self.peers[cidx].absorb(&response, tracer, stores.and_then(|m| m.get(&caller))) {
                self.stats.productive_responses += 1;
                changed = true;
            }
        }
        tracer.emit(|| EventKind::RoundEnd { round, changed });
        Ok(changed)
    }

    /// Run rounds until global quiescence or the round budget.
    /// Returns true if quiescence was reached.
    pub fn run(&mut self, max_rounds: usize) -> Result<bool> {
        for _ in 0..max_rounds {
            let changed = self.round()?;
            if !changed && self.no_pending_work() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Oracle quiescence check: in push mode, unsubscribed calls are
    /// pending work even if the last round was quiet.
    fn no_pending_work(&self) -> bool {
        match self.mode {
            Mode::Pull => true,
            Mode::Push => self.peers.iter().all(|p| {
                p.function_nodes().iter().all(|(d, n, _)| {
                    self.subs
                        .iter()
                        .any(|s| s.caller == p.name && s.doc == *d && s.node == *n)
                })
            }),
        }
    }

    /// Canonical key of the whole network state (for confluence checks).
    pub fn canonical_key(&self) -> Vec<(Sym, Sym, CanonKey)> {
        let mut out = Vec::new();
        for p in &self.peers {
            for d in &p.doc_order {
                out.push((p.name, *d, canonical_key(&p.docs[d])));
            }
        }
        out.sort_unstable();
        out
    }

    /// Peer names.
    pub fn peer_names(&self) -> Vec<Sym> {
        self.peers.iter().map(|p| p.name).collect()
    }

    /// Per-peer change indicator used by the distributed termination
    /// detector: the canonical keys of one peer's documents.
    pub fn peer_state_key(&self, name: Sym) -> Vec<(Sym, CanonKey)> {
        self.peers[self.index[&name]].digest()
    }

    /// Run exactly one round (building block for the termination
    /// detector experiments).
    pub fn step_round(&mut self) -> Result<bool> {
        self.round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::subsume::equivalent;

    /// Two peers: a portal pulling reviews from a store.
    fn portal_network(mode: Mode, seed: Option<u64>) -> Network {
        let mut net = Network::new(mode, seed);
        let store = net.add_peer("store");
        store
            .add_document_text(
                "cds",
                r#"catalog{cd{title{"Body and Soul"}}, cd{title{"So What"}}}"#,
            )
            .unwrap();
        store
            .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
            .unwrap();
        let portal = net.add_peer("portal");
        portal
            .add_document_text("dir", "directory{@store.titles}")
            .unwrap();
        net
    }

    #[test]
    fn pull_mode_collects_remote_data() {
        let mut net = portal_network(Mode::Pull, None);
        assert!(net.run(100).unwrap());
        let dir = net.peer("portal").unwrap().doc("dir").unwrap();
        let expected = axml_core::parse::parse_tree(
            r#"directory{@store.titles, t{"Body and Soul"}, t{"So What"}}"#,
        )
        .unwrap();
        assert!(equivalent(dir, &expected), "got {dir}");
    }

    #[test]
    fn push_and_pull_reach_the_same_state() {
        let mut pull = portal_network(Mode::Pull, None);
        pull.run(100).unwrap();
        let mut push = portal_network(Mode::Push, None);
        push.run(100).unwrap();
        assert_eq!(pull.canonical_key(), push.canonical_key());
    }

    #[test]
    fn push_mode_sends_fewer_messages_on_stable_data() {
        let mut pull = portal_network(Mode::Pull, None);
        // Force several extra rounds to model continued polling.
        for _ in 0..5 {
            pull.step_round().unwrap();
        }
        let mut push = portal_network(Mode::Push, None);
        for _ in 0..5 {
            push.step_round().unwrap();
        }
        assert!(
            push.stats.calls_sent < pull.stats.calls_sent,
            "push {} vs pull {}",
            push.stats.calls_sent,
            pull.stats.calls_sent
        );
    }

    #[test]
    fn confluence_across_delivery_orders() {
        let mut reference = portal_network(Mode::Pull, None);
        reference.run(100).unwrap();
        for seed in [1u64, 7, 2024] {
            let mut net = portal_network(Mode::Pull, Some(seed));
            assert!(net.run(100).unwrap());
            assert_eq!(net.canonical_key(), reference.canonical_key());
        }
    }

    #[test]
    fn three_peer_chain_and_intensional_answers() {
        // c asks b; b's answer itself contains a call to a — intensional
        // data travels between peers (the §1 portal story).
        let mut net = Network::new(Mode::Pull, None);
        let a = net.add_peer("a");
        a.add_document_text("base", r#"r{v{"42"}}"#).unwrap();
        a.add_service_text("get", "w{$x} :- base/r{v{$x}}").unwrap();
        let b = net.add_peer("b");
        b.add_document_text("mid", "m{hint}").unwrap();
        // b's answer ships a *call to a.get*, not the data itself.
        b.add_service_text("relay", "wrap{@a.get} :- mid/m{hint}")
            .unwrap();
        let c = net.add_peer("c");
        c.add_document_text("out", "o{@b.relay}").unwrap();
        assert!(net.run(100).unwrap());
        let out = net.peer("c").unwrap().doc("out").unwrap();
        let expected =
            axml_core::parse::parse_tree(r#"o{@b.relay, wrap{@a.get, w{"42"}}}"#).unwrap();
        assert!(equivalent(out, &expected), "got {out}");
    }

    #[test]
    fn recursive_distributed_closure() {
        // Distributed transitive closure: the portal joins its own
        // accumulated answers (Example 3.2 across two peers).
        let mut net = Network::new(Mode::Pull, None);
        let store = net.add_peer("store");
        store
            .add_document_text(
                "edges",
                r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, t{from{"3"},to{"4"}}}"#,
            )
            .unwrap();
        store
            .add_service_text("base", "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$y}}}")
            .unwrap();
        let portal = net.add_peer("portal");
        portal
            .add_document_text("acc", "r{@store.base, @portal.join}")
            .unwrap();
        portal
            .add_service_text(
                "join",
                "t{from{$x},to{$y}} :- acc/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
            )
            .unwrap();
        assert!(net.run(100).unwrap());
        let acc = net.peer("portal").unwrap().doc("acc").unwrap();
        let tuples = acc
            .children(acc.root())
            .iter()
            .filter(|&&n| acc.marking(n) == Marking::label("t"))
            .count();
        assert_eq!(tuples, 6);
    }

    #[test]
    fn journal_records_message_traffic() {
        let mut net = portal_network(Mode::Pull, None);
        net.enable_tracing();
        assert!(net.run(100).unwrap());
        let events = net.take_journal();
        assert!(!events.is_empty());
        let store = Sym::intern("store");
        let portal = Sym::intern("portal");
        // The portal called the store and got a response back.
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::MsgSend { from, to, kind: MsgKind::Call }
                if from == portal && to == store
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::MsgSend { from, to, kind: MsgKind::Response }
                if from == store && to == portal
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::PeerEval { peer, .. } if peer == store
        )));
        // Rounds bracket the traffic, and the final round is quiet.
        assert!(matches!(events[0].kind, EventKind::RoundStart { round: 0 }));
        let last_end = events
            .iter()
            .rev()
            .find_map(|e| match e.kind {
                EventKind::RoundEnd { changed, .. } => Some(changed),
                _ => None,
            })
            .unwrap();
        assert!(!last_end);
        // Tracing detaches with the journal.
        assert!(net.take_journal().is_empty());
    }

    #[test]
    fn untraced_network_has_no_journal() {
        let mut net = portal_network(Mode::Pull, None);
        net.run(100).unwrap();
        assert!(net.take_journal().is_empty());
    }

    #[test]
    fn unknown_peer_errors() {
        let mut net = Network::new(Mode::Pull, None);
        let p = net.add_peer("solo");
        p.add_document_text("d", "a{@ghost.svc}").unwrap();
        let ghost = Sym::intern("ghost.svc");
        assert_eq!(net.run(10).unwrap_err(), AxmlError::UnknownFunction(ghost));
        // A known peer without the service fails at the provider.
        let mut net = portal_network(Mode::Pull, None);
        let p = net.add_peer("solo");
        p.add_document_text("d", "a{@store.nosuch}").unwrap();
        let nosuch = Sym::intern("nosuch");
        assert_eq!(net.run(10).unwrap_err(), AxmlError::UnknownFunction(nosuch));
    }
}
