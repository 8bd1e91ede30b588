//! Distributed termination detection (§6): "each peer may know that it
//! reached a fixpoint, but a distributed mechanism is needed to detect
//! termination for the global, distributed system."
//!
//! The detector is a two-phase polling protocol in the style of
//! Dijkstra's ring algorithm: a coordinator polls every peer for a
//! digest of its local state (the canonical keys of its documents);
//! global termination is announced only after **two consecutive polling
//! waves observe identical digests on every peer with no round activity
//! in between** — one quiet wave is not enough, because a message in
//! flight between waves can reactivate an already-polled peer (the
//! classical laggard problem the two-phase scheme exists for).
//!
//! That rule is written once, as `QuietWaves`, and both drivers feed
//! it: [`detect_termination`] one wave per simulator round, and the
//! threaded coordinator ([`crate::threaded`]) one wave per poll.

use crate::network::Network;
use axml_core::error::Result;
use axml_core::reduce::CanonKey;
use axml_core::sym::Sym;

/// The detector's verdict for one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Two consecutive quiet waves: globally terminated.
    Terminated {
        /// Rounds executed before the detector fired.
        rounds: usize,
        /// Polling waves used.
        waves: usize,
    },
    /// Budget exhausted first.
    Undecided,
}

/// The two-phase quiescence rule: announce on the second of two
/// consecutive quiet waves whose keys are identical. A wave that is not
/// quiet voids the streak. The key carries whatever a laggard could
/// move between the waves — peer digests, and for the threaded
/// coordinator the global sent/received counters too.
pub(crate) struct QuietWaves<K> {
    prev: Option<K>,
}

impl<K: PartialEq> QuietWaves<K> {
    /// No wave observed yet.
    pub(crate) fn new() -> QuietWaves<K> {
        QuietWaves { prev: None }
    }

    /// Feed one wave; true when global termination may be announced.
    pub(crate) fn observe(&mut self, quiet: bool, key: K) -> bool {
        if !quiet {
            self.prev = None;
            return false;
        }
        if self.prev.as_ref() == Some(&key) {
            return true;
        }
        self.prev = Some(key);
        false
    }
}

/// Digest of every peer's state.
fn poll_wave(net: &Network) -> Vec<(Sym, Vec<(Sym, CanonKey)>)> {
    net.peer_names()
        .into_iter()
        .map(|p| (p, net.peer_state_key(p)))
        .collect()
}

/// Drive the network one round at a time, interleaving polling waves,
/// until the detector announces termination or `max_rounds` pass.
pub fn detect_termination(net: &mut Network, max_rounds: usize) -> Result<Verdict> {
    let mut waves = QuietWaves::new();
    for round in 0..max_rounds {
        let changed = net.step_round()?;
        if waves.observe(!changed, poll_wave(net)) {
            // One polling wave runs per round, so the counts coincide.
            return Ok(Verdict::Terminated {
                rounds: round + 1,
                waves: round + 1,
            });
        }
    }
    Ok(Verdict::Undecided)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Mode;

    fn tc_network() -> Network {
        let mut net = Network::new(Mode::Pull, None);
        let store = net.add_peer("store");
        store
            .add_document_text("edges", r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}}"#)
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
        net
    }

    #[test]
    fn detector_agrees_with_oracle() {
        let mut net = tc_network();
        let verdict = detect_termination(&mut net, 200).unwrap();
        match verdict {
            Verdict::Terminated { rounds, waves } => {
                assert!(rounds >= 2);
                assert!(waves >= rounds);
                // Oracle check: one more round really brings nothing.
                assert!(!net.step_round().unwrap());
            }
            Verdict::Undecided => panic!("detector failed on a terminating network"),
        }
    }

    #[test]
    fn detector_stays_undecided_on_divergent_networks() {
        // Example 2.1 hosted on a peer calling itself.
        let mut net = Network::new(Mode::Pull, None);
        let p = net.add_peer("p");
        p.add_document_text("d", "a{@p.f}").unwrap();
        p.add_service_text("f", "a{@p.f} :-").unwrap();
        let verdict = detect_termination(&mut net, 15).unwrap();
        assert_eq!(verdict, Verdict::Undecided);
    }

    #[test]
    fn quiet_waves_need_two_identical_quiet_observations() {
        let mut w = QuietWaves::new();
        assert!(!w.observe(true, 1));
        // A changed key restarts the streak without voiding it.
        assert!(!w.observe(true, 2));
        assert!(w.observe(true, 2));
        // A loud wave voids the streak, even with an equal key.
        let mut w = QuietWaves::new();
        assert!(!w.observe(true, 7));
        assert!(!w.observe(false, 7));
        assert!(!w.observe(true, 7));
        assert!(w.observe(true, 7));
    }

    #[test]
    fn one_quiet_wave_is_not_enough() {
        // A chain a→b→c: after c's data lands at b there is a quiet-ish
        // wave at a before b's enriched answer reaches it. The detector
        // must not fire on the first quiet observation.
        let mut net = Network::new(Mode::Pull, None);
        let c = net.add_peer("c");
        c.add_document_text("base", r#"r{v{"1"}}"#).unwrap();
        c.add_service_text("get", "w{$x} :- base/r{v{$x}}").unwrap();
        let b = net.add_peer("b");
        b.add_document_text("mid", "m{@c.get}").unwrap();
        b.add_service_text("relay", "got{$x} :- mid/m{w{$x}}")
            .unwrap();
        let a = net.add_peer("a");
        a.add_document_text("out", "o{@b.relay}").unwrap();
        let verdict = detect_termination(&mut net, 100).unwrap();
        assert!(matches!(verdict, Verdict::Terminated { .. }));
        let out = net.peer("a").unwrap().doc("out").unwrap();
        let expected = axml_core::parse::parse_tree(r#"o{@b.relay, got{"1"}}"#).unwrap();
        assert!(axml_core::subsume::equivalent(out, &expected), "got {out}");
    }
}
