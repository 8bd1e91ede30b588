//! Weak (PTIME) relevance analysis — §4's "Weaker properties".
//!
//! The exact q-unneeded / q-stability properties are undecidable in
//! general and NEXPTIME-hard for simple systems, so the paper proposes
//! *weak* counterparts that ignore service semantics and view calls as
//! monotone black boxes. They are **sound over-approximations**:
//!
//! * if a call is not *weakly relevant*, it is q-unneeded;
//! * *weak stability* (no weakly relevant call) implies q-stability.
//!
//! A call `v` is weakly relevant when fresh data appended as a sibling of
//! `v` (that is where invocation results land) could extend or multiply a
//! match of a goal pattern — i.e. some goal pattern prefix-embeds into
//! the document with a non-leaf pattern node landing on `v`'s parent —
//! or when `v` feeds such a call transitively through another service's
//! body. Goals start at the query's body atoms and propagate through the
//! bodies of (queries of) relevant services, including their `input`/
//! `context` atoms anchored at the relevant call sites. Function names
//! produced by relevant heads propagate too (their fresh calls will be
//! invoked by the lazy evaluator). Black-box services make everything
//! relevant — on the open Web we cannot see their definitions (§4).

use crate::pattern::{PItem, PNodeId, Pattern};
use crate::query::Query;
use crate::sym::{FxHashSet, Sym};
use crate::system::{context_sym, input_sym, System};
use crate::tree::{Marking, NodeId, Tree};

/// The result of a weak relevance analysis.
#[derive(Clone, Debug, Default)]
pub struct Relevance {
    /// Call occurrences that may contribute to the query.
    pub relevant_calls: FxHashSet<(Sym, NodeId)>,
    /// Function names that may contribute (including producible ones).
    pub relevant_functions: FxHashSet<Sym>,
    /// True when a black-box service forced the analysis to give up and
    /// mark everything relevant.
    pub gave_up: bool,
}

impl Relevance {
    /// Every call marked relevant — the analysis' over-approximation of
    /// the *needed* calls; its complement is guaranteed q-unneeded.
    pub fn is_relevant(&self, doc: Sym, node: NodeId) -> bool {
        self.relevant_calls.contains(&(doc, node))
    }

    /// The live calls of `sys` this analysis proves q-unneeded: every
    /// function node *not* in [`Relevance::relevant_calls`]. Sorted by
    /// document name then node id so explanations render
    /// deterministically (the provenance layer's `explain_answer`
    /// surfaces this list per answer).
    pub fn unneeded_calls(&self, sys: &System) -> Vec<(Sym, NodeId)> {
        let mut out: Vec<(Sym, NodeId)> = sys
            .function_nodes()
            .into_iter()
            .filter(|&(d, n)| !self.is_relevant(d, n))
            .collect();
        out.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()).then(a.1 .0.cmp(&b.1 .0)));
        out
    }
}

/// Can pattern item `it` match marking `m`?
fn item_compatible(it: &PItem, m: Marking) -> bool {
    match it {
        PItem::Const(c) => *c == m,
        PItem::LabelVar(_) => matches!(m, Marking::Label(_)),
        PItem::FuncVar(_) => matches!(m, Marking::Func(_)),
        PItem::ValueVar(_) => matches!(m, Marking::Value(_)),
        PItem::TreeVar(_) => true,
    }
}

/// Prefix-embedding pairs of `p` into `t`, starting from the given root
/// pairs: all (pattern node, tree node) pairs reachable by matching
/// parent-child steps with compatible items, *ignoring* whether the
/// pattern completes below. New sibling data at a tree node `n` matters
/// iff some pair `(pp, n)` exists with `pp` non-leaf.
fn prefix_pairs(p: &Pattern, t: &Tree, seeds: &[(PNodeId, NodeId)]) -> Vec<(PNodeId, NodeId)> {
    let mut seen: FxHashSet<(PNodeId, NodeId)> = FxHashSet::default();
    let mut stack: Vec<(PNodeId, NodeId)> = Vec::new();
    for &(pp, tn) in seeds {
        if item_compatible(p.item(pp), t.marking(tn)) && seen.insert((pp, tn)) {
            stack.push((pp, tn));
        }
    }
    while let Some((pp, tn)) = stack.pop() {
        for &pc in p.children(pp) {
            for &tc in t.children(tn) {
                if item_compatible(p.item(pc), t.marking(tc)) && seen.insert((pc, tc)) {
                    stack.push((pc, tc));
                }
            }
        }
    }
    seen.into_iter().collect()
}

/// Mark calls made relevant by one goal pattern prefix-embedded from the
/// given seeds. Returns newly-relevant call occurrences.
fn relevant_from_goal(
    doc: Sym,
    p: &Pattern,
    t: &Tree,
    seeds: &[(PNodeId, NodeId)],
    out: &mut FxHashSet<(Sym, NodeId)>,
) -> bool {
    let mut changed = false;
    for (pp, tn) in prefix_pairs(p, t, seeds) {
        if p.children(pp).is_empty() {
            continue; // leaf pattern node: new children below tn cannot matter
        }
        for &c in t.children(tn) {
            if t.marking(c).is_func() && out.insert((doc, c)) {
                changed = true;
            }
        }
    }
    changed
}

/// Compute the weak relevance analysis for query `q` over `sys`.
pub fn weak_relevance(sys: &System, q: &Query) -> Relevance {
    let mut rel = Relevance::default();

    // A goal is (document, pattern, anchoring). Top-level query goals are
    // anchored at document roots.
    loop {
        let mut changed = false;

        // 1. Goals of the query itself.
        for atom in &q.body {
            if atom.doc == input_sym() || atom.doc == context_sym() {
                continue; // top-level queries have no call site
            }
            if let Some(t) = sys.doc(atom.doc) {
                let seeds = [(atom.pattern.root(), t.root())];
                changed |=
                    relevant_from_goal(atom.doc, &atom.pattern, t, &seeds, &mut rel.relevant_calls);
            }
        }

        // 2. Relevant functions: names of relevant calls.
        let call_fns: Vec<Sym> = rel
            .relevant_calls
            .iter()
            .filter_map(|&(d, n)| {
                sys.doc(d).and_then(|t| {
                    if t.is_alive(n) {
                        match t.marking(n) {
                            Marking::Func(f) => Some(f),
                            _ => None,
                        }
                    } else {
                        None
                    }
                })
            })
            .collect();
        for f in call_fns {
            if rel.relevant_functions.insert(f) {
                changed = true;
            }
        }

        // 3. Propagate through relevant services' definitions.
        let fns: Vec<Sym> = rel.relevant_functions.iter().copied().collect();
        for f in fns {
            let Some(svc) = sys.service(f) else { continue };
            let Some(fq) = svc.query() else {
                // Black box: assume everything can matter.
                rel.gave_up = true;
                for (d, n) in sys.function_nodes() {
                    rel.relevant_calls.insert((d, n));
                }
                for &g in sys.service_names() {
                    rel.relevant_functions.insert(g);
                }
                return rel;
            };
            // 3a. Body atoms over stored documents become goals.
            for atom in &fq.body {
                if atom.doc != input_sym() && atom.doc != context_sym() {
                    if let Some(t) = sys.doc(atom.doc) {
                        let seeds = [(atom.pattern.root(), t.root())];
                        changed |= relevant_from_goal(
                            atom.doc,
                            &atom.pattern,
                            t,
                            &seeds,
                            &mut rel.relevant_calls,
                        );
                    }
                }
            }
            // 3b. input/context atoms are anchored at each relevant call
            // site of f.
            let sites: Vec<(Sym, NodeId)> = rel
                .relevant_calls
                .iter()
                .copied()
                .filter(|&(d, n)| {
                    sys.doc(d)
                        .map(|t| t.is_alive(n) && t.marking(n) == Marking::Func(f))
                        .unwrap_or(false)
                })
                .collect();
            for atom in &fq.body {
                if atom.doc == context_sym() {
                    for &(d, n) in &sites {
                        let t = sys.doc(d).expect("site checked");
                        if let Some(parent) = t.parent(n) {
                            let seeds = [(atom.pattern.root(), parent)];
                            changed |= relevant_from_goal(
                                d,
                                &atom.pattern,
                                t,
                                &seeds,
                                &mut rel.relevant_calls,
                            );
                        }
                    }
                } else if atom.doc == input_sym() {
                    // The virtual input root is labeled `input`; its
                    // children are the call's children. Seed the pattern's
                    // *children* at the call's children when the root item
                    // is input-compatible.
                    let root_ok = item_compatible(
                        atom.pattern.item(atom.pattern.root()),
                        Marking::Label(input_sym()),
                    );
                    if !root_ok {
                        continue;
                    }
                    for &(d, n) in &sites {
                        let t = sys.doc(d).expect("site checked");
                        let mut seeds: Vec<(PNodeId, NodeId)> = Vec::new();
                        for &pc in atom.pattern.children(atom.pattern.root()) {
                            for &tc in t.children(n) {
                                seeds.push((pc, tc));
                            }
                        }
                        // The call node itself: parameters may grow via
                        // nested calls whose results land under `n`.
                        if !atom.pattern.children(atom.pattern.root()).is_empty() {
                            for &tc in t.children(n) {
                                if t.marking(tc).is_func() && rel.relevant_calls.insert((d, tc)) {
                                    changed = true;
                                }
                            }
                        }
                        changed |= relevant_from_goal(
                            d,
                            &atom.pattern,
                            t,
                            &seeds,
                            &mut rel.relevant_calls,
                        );
                    }
                }
            }
            // 3c. Function names produced by the head become relevant
            // (their fresh calls will be fired by the lazy evaluator).
            for n in fq.head.node_ids() {
                match fq.head.item(n) {
                    PItem::Const(Marking::Func(g)) if rel.relevant_functions.insert(*g) => {
                        changed = true;
                    }
                    PItem::FuncVar(_) => {
                        for &g in sys.service_names() {
                            if rel.relevant_functions.insert(g) {
                                changed = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        // 3d. Head-producible function names in the *query's own* head.
        for n in q.head.node_ids() {
            if let PItem::Const(Marking::Func(g)) = q.head.item(n) {
                if rel.relevant_functions.insert(*g) {
                    changed = true;
                }
            }
        }

        if !changed {
            return rel;
        }
    }
}

/// Weak q-stability: no relevant call remains, so no invocation can
/// change the query's answer — the system is q-stable (§4: weak
/// stability implies stability).
pub fn weakly_stable(sys: &System, q: &Query) -> bool {
    weak_relevance(sys, q).relevant_calls.is_empty()
}

/// Are all the given calls weakly unneeded (hence q-unneeded)?
pub fn weakly_unneeded(sys: &System, q: &Query, calls: &[(Sym, NodeId)]) -> bool {
    let rel = weak_relevance(sys, q);
    calls.iter().all(|occ| !rel.relevant_calls.contains(occ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;

    /// The jazz portal: some calls matter for a rating query, others not.
    fn portal() -> System {
        let mut sys = System::new();
        sys.add_document_text(
            "dir",
            r#"directory{
                cd{title{"Body and Soul"}, singer{"Billie Holiday"},
                   @GetRating{"Body and Soul"}},
                cd{title{"Where or When"}, singer{"Peggy Lee"}, rating{"*****"}},
                news{@FreeMusicDB{type{"Jazz"}}}
            }"#,
        )
        .unwrap();
        sys.add_service_text("GetRating", r#"rating{"****"} :-"#)
            .unwrap();
        sys.add_service_text("FreeMusicDB", r#"cd{title{"More"}} :-"#)
            .unwrap();
        sys
    }

    #[test]
    fn irrelevant_branch_calls_are_unneeded() {
        // Query asks for ratings of cds: the FreeMusicDB call sits under
        // `news`, which the pattern never descends into.
        let q = parse_query("r{$x} :- dir/directory{cd{title{$x}, rating{$r}}}").unwrap();
        let sys = portal();
        let rel = weak_relevance(&sys, &q);
        let dir = Sym::intern("dir");
        let t = sys.doc(dir).unwrap();
        let mut names: Vec<&str> = rel
            .relevant_calls
            .iter()
            .map(|&(_, n)| t.marking(n).sym().as_str())
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec!["GetRating"]);
        // FreeMusicDB is weakly unneeded.
        let fm = t
            .function_nodes()
            .into_iter()
            .find(|&n| t.marking(n) == Marking::func("FreeMusicDB"))
            .unwrap();
        assert!(weakly_unneeded(&sys, &q, &[(dir, fm)]));
        assert!(!weakly_stable(&sys, &q));
    }

    #[test]
    fn query_on_different_doc_is_weakly_stable() {
        let mut sys = portal();
        sys.add_document_text("other", r#"x{"1"}"#).unwrap();
        let q = parse_query("r{$v} :- other/x{$v}").unwrap();
        assert!(weakly_stable(&sys, &q));
    }

    #[test]
    fn leaf_level_pattern_does_not_need_sibling_growth() {
        // Pattern reaches `cd` as a leaf: nothing below cd is needed.
        let q = parse_query("r :- dir/directory{cd}").unwrap();
        assert!(weakly_stable(&portal(), &q));
    }

    #[test]
    fn transitive_relevance_through_service_bodies() {
        // q reads d_out, which is fed by f reading d_in, which contains g.
        let mut sys = System::new();
        sys.add_document_text("d_in", "r{v{@g}}").unwrap();
        sys.add_document_text("d_out", "out{@f}").unwrap();
        sys.add_service_text("g", r#"w{"1"} :-"#).unwrap();
        sys.add_service_text("f", "got{$x} :- d_in/r{v{w{$x}}}")
            .unwrap();
        let q = parse_query("ans{$x} :- d_out/out{got{$x}}").unwrap();
        let rel = weak_relevance(&sys, &q);
        // Both f (directly) and g (transitively, feeding f's body) are
        // relevant.
        assert!(rel.relevant_functions.contains(&Sym::intern("f")));
        assert!(rel.relevant_functions.contains(&Sym::intern("g")));
        assert_eq!(rel.relevant_calls.len(), 2);
    }

    #[test]
    fn context_atoms_anchor_at_call_parents() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{b{@f, @inner}, c{@other}}")
            .unwrap();
        sys.add_service_text("f", "got{$x} :- context/b{w{$x}}")
            .unwrap();
        sys.add_service_text("inner", r#"w{"1"} :-"#).unwrap();
        sys.add_service_text("other", r#"z{"2"} :-"#).unwrap();
        let q = parse_query("ans{$x} :- d/a{b{got{$x}}}").unwrap();
        let rel = weak_relevance(&sys, &q);
        let t = sys.doc(Sym::intern("d")).unwrap();
        let mut names: Vec<&str> = rel
            .relevant_calls
            .iter()
            .map(|&(_, n)| t.marking(n).sym().as_str())
            .collect();
        names.sort_unstable();
        // `other` lives under c, unrelated to the context goal at b.
        assert_eq!(names, vec!["f", "inner"]);
    }

    #[test]
    fn black_box_forces_give_up() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{b{@bb}}").unwrap();
        sys.add_black_box(
            "bb",
            crate::service::BlackBoxService::constant("?", crate::forest::Forest::new()),
        )
        .unwrap();
        let q = parse_query("ans{$x} :- d/a{b{w{$x}}}").unwrap();
        let rel = weak_relevance(&sys, &q);
        assert!(rel.gave_up);
        assert_eq!(rel.relevant_calls.len(), 1);
    }

    #[test]
    fn soundness_on_tc_system() {
        // In Example 3.2, a query over d1 must keep both g and f relevant.
        let mut sys = System::new();
        sys.add_document_text("d0", r#"r{t{from{"1"},to{"2"}}}"#)
            .unwrap();
        sys.add_document_text("d1", "r{@g,@f}").unwrap();
        sys.add_service_text("g", "t{from{$x},to{$y}} :- d0/r{t{from{$x},to{$y}}}")
            .unwrap();
        sys.add_service_text(
            "f",
            "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
        )
        .unwrap();
        let q = parse_query("reach{$y} :- d1/r{t{from{\"1\"},to{$y}}}").unwrap();
        let rel = weak_relevance(&sys, &q);
        assert_eq!(rel.relevant_calls.len(), 2);
    }
}
