//! Theorem 2.1 across the p2p runtime's schedules: on random 2–4-peer
//! chain and star networks, the simulator in pull mode, in push mode,
//! under seeded delivery orders, and the threaded backend (a real
//! thread interleaving) all reach one fixpoint. The distributed
//! termination detector (§6) announces only once the simulator has
//! reached quiescence, and the announced state is final.

use positive_axml::p2p::{
    detect_termination, run_threaded, standalone_peer, Mode, Network, Peer, ThreadedConfig, Verdict,
};
use proptest::prelude::*;

const MAX_ROUNDS: usize = 100;

/// Service bodies: `{up}` is replaced by the provider's upstream peer.
/// Each one only copies values that already exist, so every network
/// built from them terminates.
const SERVICES: [&str; 4] = [
    // Copy: values flow on to whoever calls this peer.
    r#"v{$x} :- d/r{v{$x}}"#,
    // Guarded copy: only once a "0" reached this peer.
    r#"v{$x} :- d/r{v{$x}, v{"0"}}"#,
    // Relabel: answers land, but do not flow further.
    r#"u{$x} :- d/r{v{$x}}"#,
    // Intensional answer: ship a call to the upstream peer instead of data.
    r#"wrap{@{up}.get} :- d/r{v{"0"}}"#,
];

/// Build the peers of one network. Peer `i` holds `d = r{v{…}, calls}`
/// and hosts `get`. In a chain, peer `i` calls peer `i + 1`; in a star,
/// the hub `p0` calls every spoke and every spoke calls the hub.
fn build(n: usize, star: bool, values: &[Vec<u8>], services: &[u8]) -> Vec<Peer> {
    let upstream = |i: usize| -> Vec<usize> {
        match (star, i) {
            (false, _) if i + 1 < n => vec![i + 1],
            (false, _) => vec![],
            (true, 0) => (1..n).collect(),
            (true, _) => vec![0],
        }
    };
    (0..n)
        .map(|i| {
            let mut parts: Vec<String> =
                values[i].iter().map(|v| format!(r#"v{{"{v}"}}"#)).collect();
            parts.extend(upstream(i).iter().map(|j| format!("@p{j}.get")));
            let up = upstream(i).first().copied().unwrap_or(i);
            let mut peer = standalone_peer(&format!("p{i}"));
            peer.add_document_text("d", &format!("r{{{}}}", parts.join(", ")))
                .unwrap();
            let body = SERVICES[services[i] as usize].replace("{up}", &format!("p{up}"));
            peer.add_service_text("get", &body).unwrap();
            peer
        })
        .collect()
}

fn network(peers: &[Peer], mode: Mode, seed: Option<u64>) -> Network {
    let mut net = Network::new(mode, seed);
    for p in peers {
        *net.add_peer(p.name.as_str()) = p.clone();
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_schedule_reaches_one_fixpoint(
        n in 2usize..=4,
        star in 0u8..2,
        values in prop::collection::vec(prop::collection::vec(0u8..4, 1..=3), 4),
        services in prop::collection::vec(0u8..4, 4),
    ) {
        let peers = build(n, star == 1, &values, &services);

        let mut reference = network(&peers, Mode::Pull, None);
        prop_assert!(reference.run(MAX_ROUNDS).unwrap(), "pull run did not quiesce");
        let key = reference.canonical_key();

        let mut push = network(&peers, Mode::Push, None);
        prop_assert!(push.run(MAX_ROUNDS).unwrap(), "push run did not quiesce");
        prop_assert!(push.canonical_key() == key, "push fixpoint differs");

        for seed in [1u64, 7, 2024] {
            let mut shuffled = network(&peers, Mode::Pull, Some(seed));
            prop_assert!(shuffled.run(MAX_ROUNDS).unwrap(), "seed {} did not quiesce", seed);
            prop_assert!(shuffled.canonical_key() == key, "seed {} fixpoint differs", seed);
        }

        let threaded = run_threaded(peers.clone(), ThreadedConfig::default()).unwrap();
        prop_assert!(threaded.canonical_key() == key, "threaded fixpoint differs");

        // The detector fires on the second quiet wave: exactly one round
        // after the oracle saw the first quiet one, never before.
        let mut detected = network(&peers, Mode::Pull, None);
        match detect_termination(&mut detected, MAX_ROUNDS).unwrap() {
            Verdict::Terminated { rounds, .. } => {
                prop_assert_eq!(rounds, reference.stats.rounds + 1);
            }
            Verdict::Undecided => prop_assert!(false, "detector undecided"),
        }
        prop_assert!(detected.canonical_key() == key, "announced state is not the fixpoint");
        prop_assert!(!detected.step_round().unwrap(), "a round after the announcement changed data");
        prop_assert!(detected.canonical_key() == key, "a round after the announcement moved the state");
    }
}
