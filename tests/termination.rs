//! Theorem 3.3 validated against ground truth: the graph-representation
//! termination decision must agree with (budget-bounded) fair execution
//! on a generated family of simple positive systems.

use positive_axml::core::depgraph::is_acyclic;
use positive_axml::core::engine::{run, EngineConfig, RunStatus};
use positive_axml::core::graphrepr::{decide_termination, GraphRepr, Termination};
use positive_axml::core::System;

/// A family of simple positive systems with known termination behavior.
/// Each entry: (name, builder, terminates?).
fn family() -> Vec<(&'static str, System, bool)> {
    let mut out = Vec::new();

    // 1. Example 2.1: self-reproducing call — diverges.
    let mut s = System::new();
    s.add_document_text("d", "a{@f}").unwrap();
    s.add_service_text("f", "a{@f} :-").unwrap();
    out.push(("ex2.1", s, false));

    // 2. Transitive closure — terminates.
    let mut s = System::new();
    s.add_document_text(
        "d0",
        r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, t{from{"3"},to{"4"}}}"#,
    )
    .unwrap();
    s.add_document_text("d1", "r{@g,@f}").unwrap();
    s.add_service_text("g", "t{from{$x},to{$y}} :- d0/r{t{from{$x},to{$y}}}")
        .unwrap();
    s.add_service_text(
        "f",
        "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
    )
    .unwrap();
    out.push(("tc", s, true));

    // 3. Acyclic pipeline — terminates (and is detectably acyclic).
    let mut s = System::new();
    s.add_document_text("base", r#"r{v{"1"},v{"2"}}"#).unwrap();
    s.add_document_text("mid", "m{@copy}").unwrap();
    s.add_document_text("top", "t{@wrap}").unwrap();
    s.add_service_text("copy", "v{$x} :- base/r{v{$x}}")
        .unwrap();
    s.add_service_text("wrap", "w{$x} :- mid/m{v{$x}}").unwrap();
    out.push(("pipeline", s, true));

    // 4. Mutual recursion that saturates — terminates (finite alphabet).
    let mut s = System::new();
    s.add_document_text("d", r#"r{seed{"1"}, @f, @g}"#).unwrap();
    s.add_service_text("f", "a{$x} :- d/r{seed{$x}}").unwrap();
    s.add_service_text("g", "seen{$x} :- d/r{a{$x}}").unwrap();
    out.push(("mutual-saturating", s, true));

    // 5. Mutual recursion that ping-pongs structure — diverges: f wraps
    //    g's output and vice versa, growing depth forever.
    let mut s = System::new();
    s.add_document_text("d", "a{@f}").unwrap();
    s.add_service_text("f", "b{@g} :-").unwrap();
    s.add_service_text("g", "a{@f} :-").unwrap();
    out.push(("mutual-growing", s, false));

    // 6. A guarded self-call that never fires (body unsatisfiable) —
    //    terminates immediately.
    let mut s = System::new();
    s.add_document_text("d", "a{@f}").unwrap();
    s.add_service_text("f", "a{@f} :- d/a{never{matches}}")
        .unwrap();
    out.push(("dead-guard", s, true));

    // 7. A guarded self-call whose guard data is produced by another
    //    service — diverges once the guard is enabled, because the head
    //    re-creates the guard at every level.
    let mut s = System::new();
    s.add_document_text("d", "a{@enable, @f}").unwrap();
    s.add_service_text("enable", "go :-").unwrap();
    s.add_service_text("f", "a{go, @f} :- context/a{go}")
        .unwrap();
    out.push(("enabled-growth", s, false));

    // 7b. The same guard, but the head does not re-create it: the inner
    //     call never fires, so this one terminates.
    let mut s = System::new();
    s.add_document_text("d", "a{@enable, @f}").unwrap();
    s.add_service_text("enable", "go :-").unwrap();
    s.add_service_text("f", "a{@f} :- context/a{go}").unwrap();
    out.push(("guard-not-propagated", s, true));

    // 8. Context-sensitive copying with a bounded alphabet — terminates.
    let mut s = System::new();
    s.add_document_text("d", r#"root{x{"1"}, x{"2"}, @f}"#)
        .unwrap();
    s.add_service_text("f", "y{$v} :- context/root{x{$v}}")
        .unwrap();
    out.push(("context-copy", s, true));

    out
}

#[test]
fn decision_matches_bounded_execution() {
    for (name, sys, expect_terminates) in family() {
        assert!(sys.is_simple(), "{name} must be simple");
        let verdict = decide_termination(&sys).unwrap();
        let decided = matches!(verdict, Termination::Terminates);
        assert_eq!(decided, expect_terminates, "graph verdict wrong on {name}");

        // Ground truth: a generous budget either reaches a fixpoint or
        // keeps going.
        let mut runner = sys.clone();
        let (status, _) = run(&mut runner, &EngineConfig::with_budget(3_000)).unwrap();
        match status {
            RunStatus::Terminated => {
                assert!(
                    expect_terminates,
                    "{name}: engine terminated, verdict said diverge"
                )
            }
            _ => assert!(
                !expect_terminates,
                "{name}: engine ran out, verdict said terminate"
            ),
        }
    }
}

#[test]
fn acyclic_implies_terminates_but_not_conversely() {
    let fam = family();
    for (name, sys, expect_terminates) in &fam {
        if is_acyclic(sys) {
            assert!(*expect_terminates, "{name}: acyclic system must terminate");
        }
    }
    // The TC system terminates but is cyclic: the converse fails.
    let (_, tc, t) = &fam[1];
    assert!(*t);
    assert!(!is_acyclic(tc));
}

#[test]
fn graph_representation_matches_engine_fixpoint_on_terminating_family() {
    for (name, sys, expect_terminates) in family() {
        if !expect_terminates {
            continue;
        }
        let repr = GraphRepr::build(&sys).unwrap();
        let mut runner = sys.clone();
        run(&mut runner, &EngineConfig::default()).unwrap();
        for (&d, &root) in &repr.roots {
            let unfolded = repr.graph.unfold_exact(root).unwrap_or_else(|| {
                panic!("{name}: representation cyclic despite terminating verdict")
            });
            let engine_doc = runner.doc(d).unwrap();
            assert!(
                positive_axml::core::equivalent(
                    &positive_axml::core::reduce(&unfolded),
                    engine_doc
                ),
                "{name}/{d}: graph unfolding differs from engine fixpoint"
            );
        }
    }
}

#[test]
fn representation_stays_small_on_divergent_systems() {
    // The whole point of Lemma 3.2: infinite semantics, finite (small)
    // representation.
    for (name, sys, expect_terminates) in family() {
        if expect_terminates {
            continue;
        }
        let repr = GraphRepr::build(&sys).unwrap();
        assert!(
            repr.graph.node_count() < 100,
            "{name}: representation unexpectedly large ({} nodes)",
            repr.graph.node_count()
        );
        assert!(repr.divergence_witness().is_some());
    }
}
