//! The reference the engine is checked against: the paper's fair
//! rewriting applied verbatim, round by round. Each round applies the
//! §2.2 invocation step to every live call in the engine's visit order,
//! with no match cache and no compiled programs, so every positive
//! service is evaluated in full by the pattern interpreter over scan
//! matching, and every visit is an invocation. [`rounds_agree`] steps it
//! beside the engine, which runs compiled programs over the document
//! index, skips the visits it proves to be no-ops and evaluates the
//! others semi-naively, and compares the two after every round.
//! [`reference_cursor`] is the subscription cursor the same way: every
//! poll evaluates in full, and answers are told apart by canonical key.

// Each test target that includes this module uses part of it.
#![allow(dead_code)]

use positive_axml::core::engine::{EngineConfig, RoundRunner, RunStatus, Strategy};
use positive_axml::core::eval::{snapshot_with_strategy, Env};
use positive_axml::core::invoke::invoke_node_with_provenance;
use positive_axml::core::matcher::MatchStrategy;
use positive_axml::core::provenance::Provenance;
use positive_axml::core::query::Query;
use positive_axml::core::reduce::canon_of_reduced;
use positive_axml::core::trace::Tracer;
use positive_axml::core::tree::{NodeId, Tree};
use positive_axml::core::System;
use std::collections::HashSet;

/// Rounds compared before a run that has not stopped is cut off.
const MAX_ROUNDS: usize = 24;

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
/// interpreter over a scan and is evaluated in full. Each step is a
/// visit, counted in `visits`. Stops like the engine does: before a
/// visit past `budget`, at a quiet round, or as soon as the system
/// outgrows [`MAX_NODES`]. Returns `Some(status)` when the run is over.
fn reference_round(
    sys: &mut System,
    strategy: Strategy,
    visits: &mut usize,
    budget: usize,
    tracer: Tracer<'_>,
) -> Option<RunStatus> {
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
        if *visits >= budget {
            return Some(RunStatus::InvocationBudget);
        }
        *visits += 1;
        let step = invoke_node_with_provenance(
            sys,
            d,
            n,
            None,
            None,
            tracer,
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

/// Run the reference round-robin, capped at `budget` call visits, until
/// it stops, journaling its steps into `tracer`.
pub fn reference_run(sys: &mut System, budget: usize, tracer: Tracer<'_>) -> RunStatus {
    let mut visits = 0;
    loop {
        let stop = reference_round(sys, Strategy::RoundRobin, &mut visits, budget, tracer);
        if let Some(status) = stop {
            return status;
        }
    }
}

/// Step the reference and the engine over copies of `sys` side by side,
/// visiting calls in the order of `strategy`, both capped at `budget`
/// call visits, and after every round check that the two hold the same
/// documents node for node, stop together, and keep valid indexes.
/// Returns the engine's system at the end and how the run stopped
/// (`None`: cut off after [`MAX_ROUNDS`] rounds).
pub fn rounds_agree(
    sys: &System,
    strategy: Strategy,
    budget: usize,
    what: &str,
) -> (System, Option<RunStatus>) {
    let (mut reference, mut engine) = (sys.clone(), sys.clone());
    let mut visits = 0;
    let mut runner = RoundRunner::new(&EngineConfig {
        strategy,
        max_invocations: budget,
        max_nodes: MAX_NODES,
    });
    for round in 1..=MAX_ROUNDS {
        let what = format!("{what}, round {round}");
        let sr = reference_round(
            &mut reference,
            strategy,
            &mut visits,
            budget,
            Tracer::disabled(),
        );
        let se = runner.step(&mut engine, Tracer::disabled()).unwrap();
        assert_same_nodes(&reference, &engine, &what);
        assert_indexes_valid(&reference, &what);
        assert_indexes_valid(&engine, &what);
        assert_eq!(se, sr, "{what}: the engine vs the reference");
        if sr.is_some() {
            let stats = runner.stats(&engine);
            assert_eq!(stats.invocations + stats.skipped, visits, "{what}: visits");
            return (engine, sr);
        }
    }
    (engine, None)
}

/// The subscription cursor `QueryCursor` is checked against: each poll
/// evaluates `query` over `sys` in full, with the pattern interpreter
/// over a scan, and returns the trees of the reduced answer forest whose
/// canonical key no earlier poll returned, in the forest's order.
pub fn reference_cursor(query: Query) -> impl FnMut(&System) -> Vec<Tree> {
    let mut seen = HashSet::new();
    move |sys| {
        let (forest, _) =
            snapshot_with_strategy(&query, &Env::for_system(sys), MatchStrategy::Scan).unwrap();
        forest
            .trees()
            .iter()
            .filter(|t| seen.insert(canon_of_reduced(t, t.root())))
            .cloned()
            .collect()
    }
}
