//! Exact decision procedures for §4's lazy-evaluation properties on
//! **simple positive systems with simple queries** (Theorem 4.1 (2)).
//!
//! All three problems — possible answer, q-unneededness, q-stability —
//! are undecidable for general positive systems (Theorem 4.1 (1); the
//! Turing-machine encoding of Lemma 3.1 applies) but decidable for simple
//! systems by comparing finite graph representations:
//!
//! * `[[q](I)]` — evaluate `q` over the saturated representation of `I`,
//!   then expand the answers' own calls;
//! * `[[q](I↓N)]` — evaluate `q` over the representation built with the
//!   occurrences in `N` excluded, then expand the resulting answers
//!   against the **full** system (the receiver of a possible answer
//!   invokes its calls without the restriction);
//! * compare the two answer forests by mutual graph simulation.
//!
//! The paper states the bound NEXPTIME and co-NP hardness; our
//! implementation is deterministic-exponential in the worst case, which
//! is consistent (NEXPTIME ⊆ EXPSPACE; the experiments in X9 measure the
//! practical cost and motivate the weak PTIME analysis of
//! [`crate::lazy::relevance`]).

use crate::error::{AxmlError, Result};
use crate::forest::Forest;
use crate::graphrepr::{import_instantiated_head, system_query_bindings, BuildLimits, GraphRepr};
use crate::query::Query;
use crate::regular::{roots_subsumed, GNodeId};
use crate::sym::Sym;
use crate::system::System;
use crate::tree::NodeId;

/// Build `[[q](I)]`'s graph forest: the representation plus the expanded
/// answer roots.
fn answer_semantics(sys: &System, q: &Query) -> Result<(GraphRepr, Vec<GNodeId>)> {
    let mut repr = GraphRepr::build(sys)?;
    let bindings = system_query_bindings(&repr, q)?;
    let mut roots = Vec::new();
    for b in &bindings {
        roots.push(import_instantiated_head(&mut repr, &q.head, b)?);
    }
    repr.saturate(sys, &roots, BuildLimits::default())?;
    Ok((repr, roots))
}

/// Build `[[q](I↓N)]`'s graph forest: query the *restricted*
/// representation, then expand the answers in the *full* one.
fn restricted_answer_semantics(
    sys: &System,
    q: &Query,
    excluded: &[(Sym, NodeId)],
) -> Result<(GraphRepr, Vec<GNodeId>)> {
    if !q.is_simple() {
        // Tree variables would bind restricted-graph nodes whose identity
        // cannot be transported into the full representation; the exact
        // analysis is scoped to simple queries (see module docs).
        return Err(AxmlError::NotSimple(Sym::intern("<query>")));
    }
    let restricted = GraphRepr::build_excluding(sys, excluded, BuildLimits::default())?;
    let bindings = system_query_bindings(&restricted, q)?;
    // Simple queries bind only markings, so the bindings transport
    // directly into the full representation.
    let mut full = GraphRepr::build(sys)?;
    let mut roots = Vec::new();
    for b in &bindings {
        roots.push(import_instantiated_head(&mut full, &q.head, b)?);
    }
    full.saturate(sys, &roots, BuildLimits::default())?;
    Ok((full, roots))
}

/// Definition 4.1: is `N` q-unneeded — may the query be answered without
/// ever invoking the calls in `N`?
pub fn is_unneeded(sys: &System, q: &Query, excluded: &[(Sym, NodeId)]) -> Result<bool> {
    let (full, full_roots) = answer_semantics(sys, q)?;
    let (restr, restr_roots) = restricted_answer_semantics(sys, q, excluded)?;
    Ok(
        roots_subsumed(&full.graph, &full_roots, &restr.graph, &restr_roots)
            && roots_subsumed(&restr.graph, &restr_roots, &full.graph, &full_roots),
    )
}

/// Definition 4.1: is the system q-stable — are *all* its calls
/// q-unneeded, i.e. has enough data been gathered already?
pub fn is_q_stable(sys: &System, q: &Query) -> Result<bool> {
    let all: Vec<(Sym, NodeId)> = sys.function_nodes();
    is_unneeded(sys, q, &all)
}

/// Is the forest `alpha` a *possible answer* to `q` over `sys` — does
/// `[alpha] = [[q](I)]` (§4)? `alpha` may contain function calls of the
/// system; they are expanded.
pub fn is_possible_answer(sys: &System, q: &Query, alpha: &Forest) -> Result<bool> {
    let (full, full_roots) = answer_semantics(sys, q)?;
    let mut arepr = GraphRepr::build(sys)?;
    let mut aroots = Vec::new();
    for t in alpha.trees() {
        aroots.push(arepr.graph.import_tree(t));
    }
    arepr.saturate(sys, &aroots, BuildLimits::default())?;
    Ok(
        roots_subsumed(&full.graph, &full_roots, &arepr.graph, &aroots)
            && roots_subsumed(&arepr.graph, &aroots, &full.graph, &full_roots),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;
    use crate::query::parse_query;
    use crate::tree::Marking;

    /// A portal whose GetRating service is defined in-system (so the
    /// exact analysis can reason about it).
    fn portal() -> System {
        let mut sys = System::new();
        sys.add_document_text(
            "dir",
            r#"directory{
                cd{title{"Body and Soul"}, @GetRating{"Body and Soul"}},
                cd{title{"Where or When"}, rating{"*****"}},
                news{@FreeMusicDB}
            }"#,
        )
        .unwrap();
        sys.add_document_text(
            "ratings",
            r#"db{entry{name{"Body and Soul"}, stars{"****"}}}"#,
        )
        .unwrap();
        sys.add_service_text(
            "GetRating",
            r#"rating{$s} :- input/input{$n}, ratings/db{entry{name{$n}, stars{$s}}}"#,
        )
        .unwrap();
        sys.add_service_text("FreeMusicDB", r#"cd{title{"More"}} :-"#)
            .unwrap();
        sys
    }

    fn find_call(sys: &System, doc: &str, f: &str) -> (Sym, NodeId) {
        let d = Sym::intern(doc);
        let t = sys.doc(d).unwrap();
        let n = t
            .function_nodes()
            .into_iter()
            .find(|&n| t.marking(n) == Marking::func(f))
            .unwrap();
        (d, n)
    }

    #[test]
    fn irrelevant_call_is_exactly_unneeded() {
        let sys = portal();
        let q = parse_query("r{$x} :- dir/directory{cd{title{$x}, rating{$s}}}").unwrap();
        let fm = find_call(&sys, "dir", "FreeMusicDB");
        assert!(is_unneeded(&sys, &q, &[fm]).unwrap());
    }

    #[test]
    fn needed_call_is_not_unneeded() {
        let sys = portal();
        let q = parse_query("r{$x} :- dir/directory{cd{title{$x}, rating{$s}}}").unwrap();
        let gr = find_call(&sys, "dir", "GetRating");
        // Without GetRating only "Where or When" has a rating; with it,
        // "Body and Soul" appears too.
        assert!(!is_unneeded(&sys, &q, &[gr]).unwrap());
    }

    #[test]
    fn stability_after_materialization() {
        let q = parse_query("r{$x} :- dir/directory{cd{title{$x}, rating{$s}}}").unwrap();
        let mut sys = portal();
        assert!(!is_q_stable(&sys, &q).unwrap());
        // Run the system to fixpoint: now everything is materialized.
        crate::engine::run(&mut sys, &crate::engine::EngineConfig::default()).unwrap();
        assert!(is_q_stable(&sys, &q).unwrap());
    }

    #[test]
    fn subtle_unneededness_via_redundancy() {
        // §4: "It may be the case that some unneeded call v indeed
        // produces useful information, but is not needed because some
        // other calls provide this same information."
        let mut sys = System::new();
        sys.add_document_text("src", r#"r{v{"1"}}"#).unwrap();
        sys.add_document_text("d", "out{@f1, @f2}").unwrap();
        sys.add_service_text("f1", "w{$x} :- src/r{v{$x}}").unwrap();
        sys.add_service_text("f2", "w{$x} :- src/r{v{$x}}").unwrap();
        let q = parse_query("ans{$x} :- d/out{w{$x}}").unwrap();
        let c1 = find_call(&sys, "d", "f1");
        let c2 = find_call(&sys, "d", "f2");
        // Each alone is unneeded (the twin provides the data)…
        assert!(is_unneeded(&sys, &q, &[c1]).unwrap());
        assert!(is_unneeded(&sys, &q, &[c2]).unwrap());
        // …but unneededness is NOT closed under union (§4).
        assert!(!is_unneeded(&sys, &q, &[c1, c2]).unwrap());
    }

    #[test]
    fn possible_answers_intensional_and_extensional() {
        // §4's motivating example: both "****" and the intensional
        // GetRating call are possible answers to the rating query.
        let sys = portal();
        let q =
            parse_query(r#"rating{$s} :- dir/directory{cd{title{"Body and Soul"}, rating{$s}}}"#)
                .unwrap();
        let extensional = Forest::from_trees(vec![parse_tree(r#"rating{"****"}"#).unwrap()]);
        // The intensional variant wraps the call so it lands in the same
        // shape: rating is produced by expanding GetRating inside.
        assert!(is_possible_answer(&sys, &q, &extensional).unwrap());
        let wrong = Forest::from_trees(vec![parse_tree(r#"rating{"*"}"#).unwrap()]);
        assert!(!is_possible_answer(&sys, &q, &wrong).unwrap());
    }

    #[test]
    fn exact_rejects_non_simple_queries() {
        let sys = portal();
        let q = parse_query("copy{#X} :- dir/directory{#X}").unwrap();
        assert!(matches!(
            is_unneeded(&sys, &q, &[]),
            Err(AxmlError::NotSimple(_))
        ));
    }

    #[test]
    fn empty_exclusion_is_always_unneeded() {
        let sys = portal();
        let q = parse_query("r{$x} :- dir/directory{cd{title{$x}}}").unwrap();
        assert!(is_unneeded(&sys, &q, &[]).unwrap());
    }
}
