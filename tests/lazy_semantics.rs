//! §4 semantics, cross-checked: the weak (PTIME) properties must be
//! *sound* approximations of the exact (graph-based) ones on simple
//! systems, and the lazy evaluator's answers must be possible answers.

use positive_axml::core::engine::{run, EngineConfig};
use positive_axml::core::eval::{snapshot, Env};
use positive_axml::core::lazy::{
    is_possible_answer, is_q_stable, is_unneeded, lazy_query_eval, weak_relevance, weakly_stable,
    LazyConfig,
};
use positive_axml::core::query::parse_query;
use positive_axml::core::{NodeId, Query, Sym, System};

/// A little zoo of (simple system, simple query) pairs.
fn zoo() -> Vec<(&'static str, System, Query)> {
    let mut out = Vec::new();

    // Portal with a relevant and an irrelevant call.
    let mut s = System::new();
    s.add_document_text(
        "dir",
        r#"directory{cd{title{"X"}, @GetRating{"X"}}, news{@Feed}}"#,
    )
    .unwrap();
    s.add_document_text("ratings", r#"db{entry{name{"X"}, stars{"*"}}}"#)
        .unwrap();
    s.add_service_text(
        "GetRating",
        "rating{$s} :- input/input{$n}, ratings/db{entry{name{$n}, stars{$s}}}",
    )
    .unwrap();
    s.add_service_text("Feed", r#"cd{title{"new"}} :-"#)
        .unwrap();
    let q = parse_query("r{$x} :- dir/directory{cd{title{$x}, rating{$s}}}").unwrap();
    out.push(("portal", s, q));

    // Transitive closure queried at the accumulator.
    let mut s = System::new();
    s.add_document_text("d0", r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}}"#)
        .unwrap();
    s.add_document_text("d1", "r{@g,@f}").unwrap();
    s.add_service_text("g", "t{from{$x},to{$y}} :- d0/r{t{from{$x},to{$y}}}")
        .unwrap();
    s.add_service_text(
        "f",
        "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
    )
    .unwrap();
    let q = parse_query(r#"reach{$y} :- d1/r{t{from{"1"},to{$y}}}"#).unwrap();
    out.push(("tc", s, q));

    // Query about a static document: stable from the start.
    let mut s = System::new();
    s.add_document_text("fixed", r#"store{item{"cd"}}"#)
        .unwrap();
    s.add_document_text("live", "feed{@tick}").unwrap();
    s.add_service_text("tick", r#"beat{"1"} :-"#).unwrap();
    let q = parse_query("ans{$i} :- fixed/store{item{$i}}").unwrap();
    out.push(("static-target", s, q));

    out
}

/// Weak soundness: every weakly-unneeded singleton is exactly unneeded,
/// and weak stability implies exact stability.
#[test]
fn weak_properties_are_sound() {
    for (name, sys, q) in zoo() {
        let rel = weak_relevance(&sys, &q);
        let all: Vec<(Sym, NodeId)> = sys.function_nodes();
        for occ in &all {
            if !rel.relevant_calls.contains(occ) {
                assert!(
                    is_unneeded(&sys, &q, &[*occ]).unwrap(),
                    "{name}: weakly-unneeded call is exactly needed — unsound weak analysis"
                );
            }
        }
        if weakly_stable(&sys, &q) {
            assert!(
                is_q_stable(&sys, &q).unwrap(),
                "{name}: weak stability did not imply stability"
            );
        }
    }
}

/// The lazy evaluator's answer is a possible answer (Definition 4.1's
/// very purpose), whenever it stabilizes on a simple system.
#[test]
fn lazy_answers_are_possible_answers() {
    for (name, mut sys, q) in zoo() {
        let check_sys = sys.clone();
        let (answer, stats) = lazy_query_eval(&mut sys, &q, &LazyConfig::default()).unwrap();
        assert!(stats.stable, "{name}: lazy evaluation did not stabilize");
        assert!(
            is_possible_answer(&check_sys, &q, &answer).unwrap(),
            "{name}: lazy answer is not a possible answer"
        );
    }
}

/// Lazy and eager evaluation agree on terminating systems, and lazy
/// never does more invocations than eager-to-fixpoint.
#[test]
fn lazy_matches_eager_with_fewer_invocations() {
    for (name, sys, q) in zoo() {
        let mut eager = sys.clone();
        let (_, estats) = run(&mut eager, &EngineConfig::default()).unwrap();
        let mut env = Env::new();
        for &d in eager.doc_names() {
            env.insert(d, eager.doc(d).unwrap());
        }
        let eager_ans = snapshot(&q, &env).unwrap();

        let mut lazy_sys = sys.clone();
        let (lazy_ans, lstats) =
            lazy_query_eval(&mut lazy_sys, &q, &LazyConfig::default()).unwrap();
        assert!(
            lazy_ans.equivalent(&eager_ans),
            "{name}: lazy and eager answers differ"
        );
        assert!(
            lstats.invocations <= estats.invocations,
            "{name}: lazy used more invocations ({}) than eager ({})",
            lstats.invocations,
            estats.invocations
        );
    }
}

/// Stability is reached exactly when the relevant region is saturated:
/// after an eager fixpoint, every system is q-stable for every query in
/// the zoo.
#[test]
fn fixpoints_are_stable() {
    for (name, mut sys, q) in zoo() {
        run(&mut sys, &EngineConfig::default()).unwrap();
        assert!(
            is_q_stable(&sys, &q).unwrap(),
            "{name}: fixpoint not q-stable"
        );
    }
}

/// §4's non-closure-under-union, reproduced on the redundant-twins
/// system as an integration-level check.
#[test]
fn unneededness_not_closed_under_union() {
    let mut sys = System::new();
    sys.add_document_text("src", r#"r{v{"1"}}"#).unwrap();
    sys.add_document_text("d", "out{@f1, @f2}").unwrap();
    sys.add_service_text("f1", "w{$x} :- src/r{v{$x}}").unwrap();
    sys.add_service_text("f2", "w{$x} :- src/r{v{$x}}").unwrap();
    let q = parse_query("ans{$x} :- d/out{w{$x}}").unwrap();
    let calls = sys.function_nodes();
    assert_eq!(calls.len(), 2);
    assert!(is_unneeded(&sys, &q, &calls[..1]).unwrap());
    assert!(is_unneeded(&sys, &q, &calls[1..]).unwrap());
    assert!(!is_unneeded(&sys, &q, &calls).unwrap());
}
