//! Fire-once semantics (§4, "Fire-once semantics").
//!
//! An alternative semantics where each service call is invoked exactly
//! once, returning a single answer. The paper's observations, all
//! reproduced by the tests and experiment X12:
//!
//! * the semantics is well-defined (each call fires once; new calls
//!   brought by results also fire once);
//! * it may derive **less** data than the positive semantics — in
//!   Example 3.2 the recursive rule is evaluated once, so the transitive
//!   closure is not computed;
//! * for **acyclic** systems the fire-once and positive semantics
//!   coincide: firing in dependency order, one invocation per call
//!   suffices.
//!
//! The paper gates invocations on query stability. We realize the same
//! effect structurally: when the dependency graph (Definition 3.2) is
//! acyclic, calls fire in topological order of their function names —
//! i.e. a call fires only when everything it depends on is complete
//! (stable). On cyclic systems no such order exists; calls fire in
//! document order, which is where data loss relative to the positive
//! semantics appears.

use crate::depgraph::{DepGraph, DepNode};
use crate::error::Result;
use crate::invoke::invoke_node;
use crate::sym::{FxHashMap, FxHashSet, Sym};
use crate::system::System;
use crate::tree::{Marking, NodeId};

/// Statistics of a fire-once run.
#[derive(Clone, Debug, Default)]
pub struct FireOnceStats {
    /// Calls fired (each exactly once).
    pub fired: usize,
    /// Calls whose single invocation was productive.
    pub productive: usize,
    /// Was a dependency (topological) firing order available?
    pub topological: bool,
}

/// Run the system under fire-once semantics: every function node is
/// invoked exactly once; function nodes created by results are also
/// fired once. Stops when no unfired call remains.
pub fn run_fire_once(sys: &mut System, max_fired: usize) -> Result<FireOnceStats> {
    let dep = DepGraph::build(sys);
    let topo = dep.topo_order();
    let mut stats = FireOnceStats {
        topological: topo.is_some(),
        ..FireOnceStats::default()
    };
    // Rank functions by dependency depth (dependencies first) when
    // possible; otherwise keep discovery order.
    let rank: FxHashMap<Sym, usize> = match &topo {
        Some(order) => order
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n {
                DepNode::Func(f) => Some((*f, i)),
                DepNode::Doc(_) => None,
            })
            .collect(),
        None => FxHashMap::default(),
    };

    let mut fired: FxHashSet<(Sym, NodeId)> = FxHashSet::default();
    loop {
        let mut pending: Vec<(Sym, NodeId)> = sys
            .function_nodes()
            .into_iter()
            .filter(|occ| !fired.contains(occ))
            .collect();
        if pending.is_empty() || stats.fired >= max_fired {
            return Ok(stats);
        }
        pending.sort_by_key(|&(d, n)| {
            let f = sys.doc(d).map(|t| t.marking(n)).and_then(|m| match m {
                Marking::Func(f) => Some(f),
                _ => None,
            });
            (
                f.and_then(|f| rank.get(&f).copied()).unwrap_or(usize::MAX),
                d,
                n,
            )
        });
        for (d, n) in pending {
            if stats.fired >= max_fired {
                return Ok(stats);
            }
            if !sys.doc(d).map(|t| t.is_alive(n)).unwrap_or(false) {
                fired.insert((d, n)); // merged away; its twin carries the data
                continue;
            }
            let outcome = invoke_node(sys, d, n)?;
            fired.insert((d, n));
            stats.fired += 1;
            if outcome.changed {
                stats.productive += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, EngineConfig};
    use crate::sym::Sym;

    fn tc_system() -> System {
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

    fn count_tuples(sys: &System) -> usize {
        let d1 = sys.doc(Sym::intern("d1")).unwrap();
        d1.children(d1.root())
            .iter()
            .filter(|&&n| d1.marking(n) == Marking::label("t"))
            .count()
    }

    #[test]
    fn fire_once_loses_transitive_closure() {
        // §4: "the fire-once semantics would not compute the transitive
        // closure. (The recursive rule will not be evaluated.)"
        let mut fire_once = tc_system();
        let stats = run_fire_once(&mut fire_once, 10_000).unwrap();
        assert!(!stats.topological); // recursive system is cyclic
        let mut positive = tc_system();
        run(&mut positive, &EngineConfig::default()).unwrap();
        let fo = count_tuples(&fire_once);
        let full = count_tuples(&positive);
        assert_eq!(full, 6);
        assert!(fo < full, "fire-once derived {fo}, positive {full}");
        // Fire-once derives a subset (it is still sound).
        assert!(fire_once.subsumed_by(&positive));
    }

    #[test]
    fn fire_once_coincides_on_acyclic_systems() {
        let build = || {
            let mut sys = System::new();
            sys.add_document_text("base", r#"r{v{"1"},v{"2"}}"#)
                .unwrap();
            sys.add_document_text("mid", "m{@copy}").unwrap();
            sys.add_document_text("top", "t{@wrap}").unwrap();
            sys.add_service_text("copy", "v{$x} :- base/r{v{$x}}")
                .unwrap();
            sys.add_service_text("wrap", "w{$x} :- mid/m{v{$x}}")
                .unwrap();
            sys
        };
        let mut fo = build();
        let stats = run_fire_once(&mut fo, 10_000).unwrap();
        assert!(stats.topological);
        let mut pos = build();
        run(&mut pos, &EngineConfig::default()).unwrap();
        assert!(
            fo.equivalent_to(&pos),
            "fire-once != positive on acyclic system"
        );
        // And each call fired exactly once.
        assert_eq!(stats.fired, 2);
    }

    #[test]
    fn calls_in_results_also_fire_once() {
        // f produces a call to h; h produces data. Both fire once.
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "mid{@h} :-").unwrap();
        sys.add_service_text("h", r#"leaf{"x"} :-"#).unwrap();
        let stats = run_fire_once(&mut sys, 10_000).unwrap();
        assert_eq!(stats.fired, 2);
        let d = sys.doc(Sym::intern("d")).unwrap();
        let expected = crate::parse::parse_tree(r#"a{@f, mid{@h, leaf{"x"}}}"#).unwrap();
        assert!(crate::subsume::equivalent(d, &expected));
    }

    #[test]
    fn fire_once_terminates_on_example_2_1_style_growth() {
        // Under positive semantics Example 2.1 never terminates; under
        // fire-once each fresh f fires once, and the budget caps the
        // cascade of newly created calls.
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        let stats = run_fire_once(&mut sys, 20).unwrap();
        assert_eq!(stats.fired, 20); // budget-capped: fresh calls keep coming
    }
}
