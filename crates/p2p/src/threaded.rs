//! Truly concurrent peers: each peer runs on its own OS thread and
//! exchanges AXML messages over channels.
//!
//! This module is a transport. The AXML semantics — issuing a call,
//! serving it, absorbing the response — are the peer steps of
//! [`crate::network`], which the round-based simulator drives too; here
//! peers pull concurrently and interleave arbitrarily, so a thread
//! schedule replaces the simulator's delivery order. A coordinator
//! detects global quiescence with the two-wave rule of
//! [`crate::termination`], fed per poll with "every peer idle and the
//! global sent/received counters balanced", the counters inside the
//! compared key (the classical guard against in-flight laggards).
//! Theorem 2.1 predicts that, despite the nondeterminism, the final
//! state equals the deterministic simulator's fixpoint — which is
//! exactly what the tests assert, across many runs.

use crate::network::{Call, Peer, Response};
use crate::termination::QuietWaves;
use axml_core::error::{AxmlError, Result};
use axml_core::provenance::ProvenanceStore;
use axml_core::reduce::CanonKey;
use axml_core::sym::{FxHashMap, Sym};
use axml_core::trace::{EventKind, Journal, MsgKind, TraceEvent, Tracer};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A message between peer threads.
enum Msg {
    /// A call for a service hosted at the receiver.
    Call(Call),
    /// The provider's answer for a call site, stamped with the
    /// provider's state digest so the caller knows whether the provider
    /// is still evolving (and must be re-pulled).
    Response {
        response: Response,
        provider_digest: Vec<(Sym, CanonKey)>,
    },
    /// A provider's documents changed: past callers should re-pull.
    /// (The §2.2 push view assisting the pull loop — without it, a
    /// provider that changes after a caller's last pull would never be
    /// re-queried.)
    Changed,
    /// Coordinator poll: report a digest and the message counters.
    Poll(Sender<PollReply>),
    /// Stop and ship the final peer state (plus the peer's trace
    /// journal and provenance store, when enabled) back.
    Shutdown(Sender<(Peer, Option<Journal>, Option<ProvenanceStore>)>),
}

struct PollReply {
    digest: Vec<(Sym, CanonKey)>,
    sent: u64,
    received: u64,
    /// No pending pull scheduled (the peer will stay silent unless a
    /// message arrives).
    idle: bool,
    /// The first error a peer step raised (an unresolvable call name,
    /// or a service the provider does not host), which ends the run.
    failure: Option<AxmlError>,
}

/// Configuration for [`run_threaded`].
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Polling waves before the coordinator gives up on quiescence.
    pub max_waves: usize,
    /// Keep a per-peer event [`Journal`], shipped back in
    /// [`ThreadedOutcome::journals`] (per-peer — no cross-thread sink,
    /// no contention on the hot path).
    pub trace: bool,
    /// Keep a per-peer [`ProvenanceStore`], shipped back in
    /// [`ThreadedOutcome::provenance`]: documents stamped as seed data
    /// up front, every served call logged as an invocation record whose
    /// seq rides the response, and every delivered response's grafted
    /// nodes stamped with the remote invocation that produced them.
    pub provenance: bool,
}

impl Default for ThreadedConfig {
    fn default() -> ThreadedConfig {
        ThreadedConfig {
            max_waves: 2_000,
            trace: false,
            provenance: false,
        }
    }
}

/// Statistics of a threaded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedStats {
    /// Polling waves until quiescence.
    pub waves: usize,
    /// Total messages sent by peers (calls, responses, change notices).
    pub messages: u64,
}

/// Outcome of a threaded run: the final peers plus statistics.
pub struct ThreadedOutcome {
    /// Final peer states, by name.
    pub peers: FxHashMap<Sym, Peer>,
    /// Run statistics.
    pub stats: ThreadedStats,
    /// Per-peer event journals (with [`ThreadedConfig::trace`]; empty
    /// otherwise). Each peer stamps its own events, so ordering is
    /// meaningful per peer, not across peers.
    pub journals: FxHashMap<Sym, Vec<TraceEvent>>,
    /// Per-peer provenance stores (with
    /// [`ThreadedConfig::provenance`]; empty otherwise). A node stamped
    /// `Origin::Remote` on one peer resolves through the *provider
    /// peer's* store via the origin's `seq`.
    pub provenance: FxHashMap<Sym, ProvenanceStore>,
}

impl ThreadedOutcome {
    /// Canonical key of the final network state (for comparisons with
    /// the deterministic simulator).
    pub fn canonical_key(&self) -> Vec<(Sym, Sym, CanonKey)> {
        let mut out = Vec::new();
        for (name, peer) in &self.peers {
            for (d, k) in peer.digest() {
                out.push((*name, d, k));
            }
        }
        out.sort_unstable();
        out
    }
}

/// Run the given peers concurrently (pull mode) until the coordinator
/// detects global quiescence, a peer step fails (that error is
/// returned), or `cfg.max_waves` polls pass
/// ([`AxmlError::BudgetExhausted`]).
pub fn run_threaded(peers: Vec<Peer>, cfg: ThreadedConfig) -> Result<ThreadedOutcome> {
    let names: Vec<Sym> = peers.iter().map(|p| p.name).collect();
    let mut senders: FxHashMap<Sym, Sender<Msg>> = FxHashMap::default();
    let mut receivers: Vec<(Peer, Receiver<Msg>)> = Vec::new();
    for peer in peers {
        let (tx, rx) = unbounded::<Msg>();
        senders.insert(peer.name, tx);
        receivers.push((peer, rx));
    }

    // One network-wide trace-id well: every pull any peer issues gets
    // a fresh nonzero id, so ids are unique across the whole run.
    let trace_ids = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for (peer, rx) in receivers {
        let peers_tx = senders.clone();
        let journal = cfg.trace.then(Journal::new);
        let store = cfg.provenance.then(|| {
            let store = ProvenanceStore::new();
            peer.seed_provenance(&store);
            store
        });
        let trace_ids = Arc::clone(&trace_ids);
        handles.push(thread::spawn(move || {
            peer_loop(peer, rx, peers_tx, journal, store, &trace_ids)
        }));
    }

    // Coordinator: a wave is quiet when every peer is idle and the
    // global counters balance (nothing in flight: every sent message
    // was processed); two consecutive quiet waves with unchanged
    // digests and counters announce. Any message or pending pull after
    // a peer's poll bumps a counter and voids the fire condition —
    // race-free by monotonicity.
    let mut stats = ThreadedStats::default();
    let mut waves = QuietWaves::new();
    let mut outcome = Err(AxmlError::BudgetExhausted);
    'waves: for _ in 0..cfg.max_waves {
        stats.waves += 1;
        thread::sleep(Duration::from_millis(3));
        let mut digests = Vec::new();
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut all_idle = true;
        for name in &names {
            let (rtx, rrx) = unbounded();
            if senders[name].send(Msg::Poll(rtx)).is_err() {
                break 'waves;
            }
            let Ok(reply) = rrx.recv_timeout(Duration::from_secs(5)) else {
                break 'waves;
            };
            if let Some(e) = reply.failure {
                outcome = Err(e);
                break 'waves;
            }
            digests.push(reply.digest);
            sent += reply.sent;
            received += reply.received;
            all_idle &= reply.idle;
        }
        if waves.observe(all_idle && sent == received, (digests, sent, received)) {
            stats.messages = sent;
            outcome = Ok(());
            break;
        }
    }

    // Shut everything down and collect final states (journals, stores).
    let mut final_peers: FxHashMap<Sym, Peer> = FxHashMap::default();
    let mut journals: FxHashMap<Sym, Vec<TraceEvent>> = FxHashMap::default();
    let mut stores: FxHashMap<Sym, ProvenanceStore> = FxHashMap::default();
    for name in &names {
        let (rtx, rrx) = unbounded();
        let _ = senders[name].send(Msg::Shutdown(rtx));
        if let Ok((peer, journal, store)) = rrx.recv_timeout(Duration::from_secs(5)) {
            final_peers.insert(*name, peer);
            if let Some(j) = journal {
                journals.insert(*name, j.into_events());
            }
            if let Some(s) = store {
                stores.insert(*name, s);
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
    outcome?;
    Ok(ThreadedOutcome {
        peers: final_peers,
        stats,
        journals,
        provenance: stores,
    })
}

/// The peer's event loop: serve calls, absorb responses, keep pulling.
fn peer_loop(
    mut peer: Peer,
    rx: Receiver<Msg>,
    peers_tx: FxHashMap<Sym, Sender<Msg>>,
    mut journal: Option<Journal>,
    mut store: Option<ProvenanceStore>,
    trace_ids: &AtomicU64,
) {
    let myname = peer.name;
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut failure: Option<AxmlError> = None;
    // Re-pull when: never pulled, new data arrived, our own documents
    // changed, or a provider's stamped digest shows it is still moving.
    let mut need_pull = true;
    let mut provider_digests: FxHashMap<Sym, Vec<(Sym, CanonKey)>> = FxHashMap::default();
    let mut callers_seen: Vec<Sym> = Vec::new();
    loop {
        let tracer = match journal.as_ref() {
            Some(j) => Tracer::new(j),
            None => Tracer::disabled(),
        };
        match rx.recv_timeout(Duration::from_millis(2)) {
            Ok(Msg::Call(call)) => {
                received += 1;
                if !callers_seen.contains(&call.caller) {
                    callers_seen.push(call.caller);
                }
                match peer.serve(&call, tracer, store.as_ref()) {
                    Ok(response) => {
                        sent += 1;
                        let _ = peers_tx[&call.caller].send(Msg::Response {
                            response,
                            provider_digest: peer.digest(),
                        });
                    }
                    Err(e) => {
                        failure.get_or_insert(e);
                    }
                }
            }
            Ok(Msg::Response {
                response,
                provider_digest,
            }) => {
                received += 1;
                let changed = peer.absorb(&response, tracer, store.as_ref());
                let known = provider_digests.insert(response.provider, provider_digest.clone());
                if changed || known.as_ref() != Some(&provider_digest) {
                    need_pull = true;
                }
                if changed {
                    // Our own data moved: past callers must re-pull us.
                    for c in &callers_seen {
                        sent += 1;
                        tracer.emit(|| EventKind::MsgSend {
                            from: myname,
                            to: *c,
                            kind: MsgKind::Changed,
                        });
                        let _ = peers_tx[c].send(Msg::Changed);
                    }
                }
            }
            Ok(Msg::Changed) => {
                received += 1;
                tracer.emit(|| EventKind::MsgRecv {
                    peer: myname,
                    kind: MsgKind::Changed,
                });
                need_pull = true;
            }
            Ok(Msg::Poll(reply)) => {
                tracer.emit(|| EventKind::MsgRecv {
                    peer: myname,
                    kind: MsgKind::Poll,
                });
                let _ = reply.send(PollReply {
                    digest: peer.digest(),
                    sent,
                    received,
                    idle: !need_pull,
                    failure: failure.clone(),
                });
            }
            Ok(Msg::Shutdown(reply)) => {
                let _ = reply.send((peer, journal.take(), store.take()));
                return;
            }
            Err(RecvTimeoutError::Timeout) => {
                if need_pull {
                    let is_peer = |p| peers_tx.contains_key(&p);
                    for (doc, node, qualified) in peer.function_nodes() {
                        // Every pull is one request: a fresh
                        // network-unique trace id rides its Call.
                        let trace = trace_ids.fetch_add(1, Ordering::Relaxed) + 1;
                        let tracer = tracer.with_trace(trace);
                        match peer.issue(doc, node, qualified, is_peer, 0, tracer) {
                            Ok(Some(call)) => {
                                sent += 1;
                                let _ = peers_tx[&call.provider].send(Msg::Call(call));
                            }
                            Ok(None) => {}
                            Err(e) => {
                                failure.get_or_insert(e);
                            }
                        }
                    }
                    need_pull = false;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Create a standalone peer (for [`run_threaded`]).
pub fn standalone_peer(name: &str) -> Peer {
    Peer::new(Sym::intern(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Mode, Network};

    fn build_peers() -> Vec<Peer> {
        let mut store = standalone_peer("store");
        store
            .add_document_text(
                "cds",
                r#"catalog{cd{title{"Body and Soul"}}, cd{title{"So What"}}}"#,
            )
            .unwrap();
        store
            .add_service_text("titles", "t{$x} :- cds/catalog{cd{title{$x}}}")
            .unwrap();
        let mut hub = standalone_peer("hub");
        hub.add_document_text("feed", "feed{@store.titles}")
            .unwrap();
        hub.add_service_text("relay", "got{$x} :- feed/feed{t{$x}}")
            .unwrap();
        let mut portal = standalone_peer("portal");
        portal
            .add_document_text("page", "page{@hub.relay}")
            .unwrap();
        vec![store, hub, portal]
    }

    fn traced() -> ThreadedConfig {
        ThreadedConfig {
            trace: true,
            ..ThreadedConfig::default()
        }
    }

    fn reference_key() -> Vec<(Sym, Sym, CanonKey)> {
        let mut net = Network::new(Mode::Pull, None);
        for peer in build_peers() {
            let name = peer.name;
            *net.add_peer(name.as_str()) = peer;
        }
        net.run(100).unwrap();
        net.canonical_key()
    }

    #[test]
    fn threaded_run_matches_deterministic_simulator() {
        let reference = reference_key();
        // Several runs: thread interleavings differ, the fixpoint must not.
        for attempt in 0..3 {
            let out = run_threaded(build_peers(), ThreadedConfig::default())
                .unwrap_or_else(|e| panic!("attempt {attempt}: {e}"));
            assert_eq!(
                out.canonical_key(),
                reference,
                "attempt {attempt}: threaded fixpoint differs"
            );
            assert!(out.stats.messages >= 2);
        }
    }

    #[test]
    fn traced_run_ships_per_peer_journals() {
        let out = run_threaded(build_peers(), traced()).unwrap();
        assert_eq!(out.canonical_key(), reference_key());
        // Every peer shipped a journal; the provider logged evaluations
        // and the callers logged their pulls.
        assert_eq!(out.journals.len(), 3);
        let store = &out.journals[&Sym::intern("store")];
        assert!(store.iter().any(|e| matches!(
            e.kind,
            EventKind::PeerEval { service, .. }
                if service == Sym::intern("titles")
        )));
        let portal = &out.journals[&Sym::intern("portal")];
        assert!(portal.iter().any(|e| matches!(
            e.kind,
            EventKind::MsgSend { to, kind: MsgKind::Call, .. }
                if to == Sym::intern("hub")
        )));
        // Per-peer ordering is strict.
        for events in out.journals.values() {
            assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        }
        // Untraced runs ship no journals.
        let plain = run_threaded(build_peers(), ThreadedConfig::default()).unwrap();
        assert!(plain.journals.is_empty());
    }

    #[test]
    fn trace_ids_reconstruct_a_pull_across_peer_journals() {
        let out = run_threaded(build_peers(), traced()).unwrap();
        let hub = &out.journals[&Sym::intern("hub")];
        let store = &out.journals[&Sym::intern("store")];
        // Pick one of hub's pulls of the store: its Call send carries a
        // fresh nonzero trace id...
        let pull = hub
            .iter()
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::MsgSend { to, kind: MsgKind::Call, .. }
                        if to == Sym::intern("store")
                ) && e.trace != 0
            })
            .expect("hub pulled the store with a trace id");
        let id = pull.trace;
        // ...the provider's receive, evaluation, and response send all
        // carry the same id...
        assert!(store.iter().any(|e| e.trace == id
            && matches!(
                e.kind,
                EventKind::MsgRecv {
                    kind: MsgKind::Call,
                    ..
                }
            )));
        assert!(store.iter().any(|e| e.trace == id
            && matches!(
                e.kind,
                EventKind::PeerEval { service, .. } if service == Sym::intern("titles")
            )));
        assert!(store.iter().any(|e| e.trace == id
            && matches!(
                e.kind,
                EventKind::MsgSend {
                    kind: MsgKind::Response,
                    ..
                }
            )));
        // ...and the caller's response receive closes the loop.
        assert!(hub.iter().any(|e| e.trace == id
            && matches!(
                e.kind,
                EventKind::MsgRecv {
                    kind: MsgKind::Response,
                    ..
                }
            )));
        // Ids are network-unique: portal's pulls of the hub never share
        // an id with hub's pulls of the store.
        let portal = &out.journals[&Sym::intern("portal")];
        for e in portal {
            if matches!(
                e.kind,
                EventKind::MsgSend {
                    kind: MsgKind::Call,
                    ..
                }
            ) {
                assert_ne!(e.trace, 0, "pulls are always trace-stamped");
                assert_ne!(e.trace, id, "trace ids are unique per pull");
            }
        }
    }

    #[test]
    fn unresolvable_calls_fail_like_the_simulator() {
        // An unknown peer, then an unknown service at a known peer: the
        // threaded run returns the simulator's error for each.
        for doc in ["a{@ghost.svc}", "a{@store.nosuch}"] {
            let mut store = standalone_peer("store");
            store.add_document_text("cds", r#"catalog{cd}"#).unwrap();
            let mut solo = standalone_peer("solo");
            solo.add_document_text("d", doc).unwrap();
            let threaded = run_threaded(vec![store.clone(), solo], ThreadedConfig::default())
                .err()
                .unwrap_or_else(|| panic!("{doc}: threaded run succeeded"));

            let mut net = Network::new(Mode::Pull, None);
            *net.add_peer("store") = store;
            net.add_peer("solo").add_document_text("d", doc).unwrap();
            let simulated = net.run(10).unwrap_err();
            assert_eq!(threaded, simulated, "{doc}");
            assert!(
                matches!(threaded, AxmlError::UnknownFunction(_)),
                "{doc}: {threaded}"
            );
        }
    }

    #[test]
    fn quiescence_detected_promptly_on_static_network() {
        let mut solo = standalone_peer("solo");
        solo.add_document_text("d", r#"a{"static"}"#).unwrap();
        let out = run_threaded(vec![solo], ThreadedConfig::default()).unwrap();
        assert_eq!(out.stats.messages, 0);
        assert!(out.stats.waves >= 2);
    }
}
