//! The reference the engine is checked against: the paper's fair
//! rewriting applied verbatim, round by round. Each round applies the
//! §2.2 invocation step to every live call in the engine's visit order,
//! with no match cache and no compiled programs, so every positive
//! service is evaluated in full by the pattern interpreter over scan
//! matching. [`rounds_agree`] steps it beside a naive and a delta
//! engine, which run compiled programs over the document index, and
//! compares all three after every round.

use positive_axml::core::engine::{EngineConfig, EngineMode, RoundRunner, RunStatus, Strategy};
use positive_axml::core::invoke::invoke_node_with_provenance;
use positive_axml::core::matcher::MatchStrategy;
use positive_axml::core::provenance::Provenance;
use positive_axml::core::trace::Tracer;
use positive_axml::core::tree::NodeId;
use positive_axml::core::System;

/// Rounds compared before a run that has not stopped is cut off.
pub const MAX_ROUNDS: usize = 24;

/// The node budget of the compared runs.
const MAX_NODES: usize = 4_000;

/// Do `a` and `b` hold the same documents node for node: the same arena
/// length and, for every slot, the same marking, parent and liveness?
fn assert_same_nodes(a: &System, b: &System, what: &str) {
    assert_eq!(a.doc_names(), b.doc_names(), "{what}");
    for &d in a.doc_names() {
        let (n, m) = (a.doc(d).unwrap(), b.doc(d).unwrap());
        assert_eq!(n.arena_len(), m.arena_len(), "{what}: arena of {d}");
        for i in 0..n.arena_len() {
            let x = NodeId(i as u32);
            assert_eq!(
                (n.is_alive(x), n.marking(x), n.parent(x)),
                (m.is_alive(x), m.marking(x), m.parent(x)),
                "{what}: node {i} of {d}"
            );
        }
    }
}

/// Does every document's index, where one is built, equal a rebuild?
fn assert_indexes_valid(sys: &System, what: &str) {
    for &d in sys.doc_names() {
        if let Err(e) = sys.doc(d).unwrap().validate_index() {
            panic!("{what}: index of {d}: {e}");
        }
    }
}

/// One round of the reference: every live call, in the order of
/// `strategy` (round-robin or reversed), takes one §2.2 step with no
/// match cache and no programs, so a positive service runs the pattern
/// interpreter over a scan and is evaluated in full. Stops like the
/// engine does: at a quiet round, or as soon as the system outgrows
/// [`MAX_NODES`]. Returns `Some(status)` when the run is over.
fn reference_round(sys: &mut System, strategy: Strategy) -> Option<RunStatus> {
    let mut pending = sys.function_nodes();
    match strategy {
        Strategy::RoundRobin => {}
        Strategy::Reverse => pending.reverse(),
        Strategy::Random(_) => panic!("the reference replays fixed orders only"),
    }
    if pending.is_empty() {
        return Some(RunStatus::Terminated);
    }
    let mut changed = false;
    for (d, n) in pending {
        // An earlier step's reduction may have merged this call away.
        let t = sys.doc(d).unwrap();
        if !t.is_alive(n) || !t.marking(n).is_func() {
            continue;
        }
        let step = invoke_node_with_provenance(
            sys,
            d,
            n,
            None,
            None,
            Tracer::disabled(),
            Provenance::disabled(),
            0,
            MatchStrategy::Scan,
        )
        .unwrap();
        changed |= step.changed;
        if sys.node_count() > MAX_NODES {
            return Some(RunStatus::NodeBudget);
        }
    }
    (!changed).then_some(RunStatus::Terminated)
}

/// Step the reference, a naive runner and a delta runner over copies of
/// `sys` side by side, visiting calls in the order of `strategy`, and
/// after every round check that all three hold the same documents node
/// for node, stop together, and keep valid indexes. Returns the delta
/// system at the end and the number of rounds run.
pub fn rounds_agree(sys: &System, strategy: Strategy, what: &str) -> (System, usize) {
    let cfg = |mode| EngineConfig {
        mode,
        strategy,
        max_invocations: usize::MAX,
        max_nodes: MAX_NODES,
    };
    let (mut reference, mut naive, mut delta) = (sys.clone(), sys.clone(), sys.clone());
    let mut rn = RoundRunner::new(&cfg(EngineMode::Naive));
    let mut rd = RoundRunner::new(&cfg(EngineMode::Delta));
    for round in 1..=MAX_ROUNDS {
        let what = format!("{what}, round {round}");
        let sr = reference_round(&mut reference, strategy);
        let sn = rn.step(&mut naive, Tracer::disabled()).unwrap();
        let sd = rd.step(&mut delta, Tracer::disabled()).unwrap();
        assert_same_nodes(&reference, &naive, &format!("{what}, naive"));
        assert_same_nodes(&reference, &delta, &format!("{what}, delta"));
        for sys in [&reference, &naive, &delta] {
            assert_indexes_valid(sys, &what);
        }
        assert_eq!(
            (sn, sd),
            (sr, sr),
            "{what}: (naive, delta) vs the reference"
        );
        if sr.is_some() {
            return (delta, round);
        }
    }
    (delta, MAX_ROUNDS)
}
