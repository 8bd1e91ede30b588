//! Single service-call invocation semantics (§2.2).
//!
//! Invoking a function node `v` marked `f` in document `d`:
//!
//! 1. `θ(input)` is a tree rooted `input` whose children are copies of
//!    `v`'s children (the call parameters);
//! 2. `θ(context)` is the subtree rooted at `v`'s **parent**;
//! 3. every stored document keeps its current value;
//! 4. the service result forest is appended as **siblings of `v`**, and
//!    the document is reduced.
//!
//! `θ(input)` and `θ(context)` are documents the service *may* read, so
//! an invocation builds each only when the service can read it: for a
//! positive service, when some body atom names it; a black box gets both.
//! For a call under the document root, `θ(context)` is a copy of the whole
//! document, which a service that never names `context` does not pay for.
//!
//! A step only counts as a rewriting step when the document strictly
//! grows (`I ≢ I'`, Definition 2.4); [`invoke_node`] reports this via
//! [`InvokeOutcome::changed`], determined *before* grafting by checking
//! whether some result tree is not already subsumed by an existing
//! sibling subtree.
//!
//! With a match cache and compiled programs (the engine's path), a
//! positive service call evaluates semi-naively: it builds heads only
//! for rows new since its last applied evaluation (see
//! [`crate::eval`]). Its marks are taken at evaluation, before the
//! graft, so its own results count as new next time, and are kept only
//! once the graft is applied. The grafts are exactly those of a full
//! evaluation, in the same order: a result the full forest adds and the
//! filtered one lacks is derived by old rows only, so it was grafted
//! next to the call, or already subsumed there, at the last evaluation.

use crate::compile::ProgramCache;
use crate::error::{AxmlError, Result};
use crate::eval::{snapshot_heads, Env, Marks, MatchCache};
use crate::forest::Forest;
use crate::matcher::MatchStrategy;
use crate::provenance::{query_witnesses, InvocationRecord, Origin, Provenance};
use crate::reduce::{reduce_in_place, subtree_sig, Sig};
use crate::subsume::SubMemo;
use crate::sym::{FxHashMap, Sym};
use crate::system::{context_sym, input_sym, System};
use crate::trace::{EventKind, Tracer};
use crate::tree::{Marking, NodeId, Tree};
#[cfg(debug_assertions)]
use crate::{compile::compile_query, query::Query, subsume::subsumed};

/// What one invocation did.
#[derive(Clone, Copy, Debug, Default)]
pub struct InvokeOutcome {
    /// Did the document strictly grow (a real rewriting step)?
    pub changed: bool,
    /// Trees in the service's result forest.
    pub result_trees: usize,
    /// Result trees actually grafted (not subsumed by existing siblings).
    pub grafted: usize,
}

/// Build `θ(input)` for the call at `node`: root labeled `input`, children
/// copied from the call's parameter subtrees.
pub fn build_input(doc: &Tree, node: NodeId) -> Tree {
    let mut input = Tree::with_label("input");
    let input_root = input.root();
    doc.copy_children_into(node, &mut input, input_root);
    input
}

/// The read-only half of one invocation: the evaluated result forest
/// plus everything [`apply_plan`] needs to graft it. Produced by
/// [`evaluate_node`] against an immutable system reference — building
/// a plan never mutates any document.
struct GraftPlan {
    /// Document hosting the call.
    doc: Sym,
    /// The invoked function node.
    node: NodeId,
    /// The call's parent, where the results are grafted.
    parent: NodeId,
    /// The service invoked.
    service: Sym,
    /// The service's result forest (snapshot answer or black-box
    /// output), already reduced.
    forest: Forest,
    /// The root signature of each tree of `forest`, from the reduction.
    sigs: Vec<Sig>,
    /// Provenance witnesses matched before evaluation (empty unless
    /// requested via `collect_witnesses`).
    witnesses: Vec<(Sym, NodeId)>,
    /// The call's marks at this evaluation, when it is semi-naive.
    marks: Option<Marks>,
}

/// Evaluate the service call at `node` of `doc_name` against the
/// current system state, without applying anything: the read-only
/// phase 1 of [`invoke_node_with_provenance`].
///
/// `collect_witnesses` asks for the provenance witness set (the nodes
/// the evaluation read); pass `prov.enabled()` when a store is
/// attached, `false` otherwise to skip the extra matching work.
///
/// `marks`, when given, makes a positive service's evaluation
/// semi-naive: it holds the marks of the call's last applied evaluation
/// (empty if there was none) and is overwritten with this evaluation's,
/// which the plan carries.
#[allow(clippy::too_many_arguments)]
fn evaluate_node(
    sys: &System,
    doc_name: Sym,
    node: NodeId,
    cache: Option<&mut MatchCache>,
    programs: Option<&mut ProgramCache>,
    tracer: Tracer<'_>,
    collect_witnesses: bool,
    strategy: MatchStrategy,
    mut marks: Option<Marks>,
) -> Result<GraftPlan> {
    let doc = sys
        .doc(doc_name)
        .ok_or(AxmlError::UnknownDocument(doc_name))?;
    if !doc.is_alive(node) {
        return Err(AxmlError::DeadNode);
    }
    let fname = match doc.marking(node) {
        Marking::Func(f) => f,
        _ => return Err(AxmlError::NotAFunctionNode),
    };
    // Document roots are never function nodes, so `node` has a parent.
    let parent = doc.parent(node).ok_or(AxmlError::FunctionRoot)?;
    let svc = sys
        .service(fname)
        .ok_or(AxmlError::UnknownFunction(fname))?;

    // A positive service reads θ(input) and θ(context) only through
    // body atoms naming them; a black box may read anything.
    let (reads_input, reads_context) = match svc.query() {
        Some(q) => (
            q.body.iter().any(|a| a.doc == input_sym()),
            q.body.iter().any(|a| a.doc == context_sym()),
        ),
        None => (true, true),
    };

    // Witnesses are only matched when a provenance store is
    // attached — the disabled path pays one branch.
    let witnesses = if collect_witnesses {
        match svc.query() {
            Some(q) => {
                let mut w = query_witnesses(q, |d| sys.doc(d));
                if reads_input || reads_context {
                    // input/context data comes from the call site.
                    w.push((doc_name, node));
                }
                w
            }
            // Black boxes read nothing we can see; the call site is
            // the only visible input.
            None => vec![(doc_name, node)],
        }
    } else {
        Vec::new()
    };

    let input = reads_input.then(|| build_input(doc, node));
    let context = reads_context.then(|| doc.subtree(parent));
    let env = Env::for_invocation(sys, input.as_ref(), context.as_ref());
    // Positive services evaluate through the snapshot pipeline so
    // the match strategy (and the match/program caches, when attached)
    // applies; black boxes always run their closure.
    let raw = match svc.query() {
        Some(q) => {
            let compiled = programs.map(|p| p.lookup(fname, q, strategy, tracer));
            let (raw, _) = snapshot_heads(
                q,
                &env,
                cache.map(|c| (fname, Some(c))),
                compiled.as_deref(),
                tracer,
                strategy,
                marks.as_ref(),
            )?;
            if let Some(m) = &mut marks {
                #[cfg(debug_assertions)]
                if !m.is_empty() {
                    check_semi_naive(q, &env, doc, parent, &raw);
                }
                m.take(q, &env);
            }
            raw
        }
        // Reduced below like a snapshot answer: a black box may return
        // clones that share a `Tree::id`, and `apply_plan`'s memo keys
        // by it.
        None => {
            marks = None;
            svc.invoke(&env)?
        }
    };
    let (forest, sigs) = raw.reduce_with_sigs();
    Ok(GraftPlan {
        doc: doc_name,
        node,
        parent,
        service: fname,
        forest,
        sigs,
        witnesses,
        marks,
    })
}

/// The semi-naive self-check, under debug assertions and on documents of
/// at most [`ANCHOR_SELF_CHECK_NODES`](crate::matcher::ANCHOR_SELF_CHECK_NODES)
/// slots: every tree of the full evaluation of the call's query `q`
/// that no child of the call's parent already subsumes is subsumed by
/// one of `heads`, the semi-naive evaluation's. It suffices to check the
/// maximal trees. The full evaluation compiles a program of its own and
/// runs it under [`MatchStrategy::Scan`], so it never builds an index
/// the run has not built and leaves the run's caches and counters alone.
#[cfg(debug_assertions)]
fn check_semi_naive(q: &Query, env: &Env<'_>, doc: &Tree, parent: NodeId, heads: &Forest) {
    let small = q.body.iter().all(|a| {
        env.get(a.doc)
            .is_none_or(|t| t.arena_len() <= crate::matcher::ANCHOR_SELF_CHECK_NODES)
    });
    if !small {
        return;
    }
    let (full, _) = snapshot_heads(
        q,
        env,
        None,
        Some(&compile_query(q, MatchStrategy::Scan)),
        Tracer::disabled(),
        MatchStrategy::Scan,
        None,
    )
    .expect("the semi-naive evaluation succeeded");
    let (full, sigs) = full.reduce_with_sigs();
    let kids: Vec<(NodeId, Sig)> = doc
        .children(parent)
        .iter()
        .map(|&c| (c, subtree_sig(doc, c)))
        .collect();
    let mut memo = SubMemo::new();
    for (f, fsig) in full.trees().iter().zip(sigs) {
        let present = kids
            .iter()
            .any(|&(c, csig)| fsig.may_embed_in(csig) && memo.subsumed_at(f, f.root(), doc, c));
        assert!(
            present || heads.trees().iter().any(|h| subsumed(f, h)),
            "semi-naive evaluation lost the answer {f}"
        );
    }
}

/// Apply a [`GraftPlan`]: the mutating phase 2 of
/// [`invoke_node_with_provenance`]. Result trees not subsumed by an
/// existing sibling are grafted next to the call, lineage is stamped,
/// and the document is reduced.
fn apply_plan(
    sys: &mut System,
    plan: &GraftPlan,
    tracer: Tracer<'_>,
    prov: Provenance<'_>,
    round: u64,
) -> Result<InvokeOutcome> {
    let doc_name = plan.doc;
    let parent = plan.parent;
    let result_trees = plan.forest.len();
    let doc = sys
        .doc_mut(doc_name)
        .ok_or(AxmlError::UnknownDocument(doc_name))?;
    let pre_version = doc.mutation_count();
    // Index maintenance is reported as counter deltas over the whole
    // graft+reduce batch; the index's build state cannot change during
    // the commit (mutations maintain but never build).
    let pre_index = if tracer.enabled() {
        doc.index_stats()
    } else {
        None
    };
    let mut grafted = 0usize;
    // One memo serves every (result tree, existing child) comparison:
    // entries are keyed by tree identity, and grafting earlier result
    // trees only *adds* children under `parent`, never mutating the
    // subtrees already memoized. For the same reason each child's
    // signature is computed once, on first need, and stays exact; only
    // pairs whose signatures allow an embedding reach the memo.
    let mut memo = SubMemo::new();
    let mut child_sigs: FxHashMap<NodeId, Sig> = FxHashMap::default();
    let mut seq: Option<u64> = None;
    for (r, &rsig) in plan.forest.trees().iter().zip(&plan.sigs) {
        debug_assert_eq!(
            rsig,
            subtree_sig(r, r.root()),
            "a carried signature is stale"
        );
        let rm = r.marking(r.root());
        let already = doc.children(parent).iter().any(|&c| {
            doc.marking(c) == rm
                && rsig.may_embed_in(*child_sigs.entry(c).or_insert_with(|| subtree_sig(doc, c)))
                && memo.subsumed_at(r, r.root(), doc, c)
        });
        tracer.emit(|| EventKind::SubsumeCheck {
            doc: doc_name,
            subsumed: already,
        });
        if !already {
            let new_root = doc.graft(parent, r)?;
            grafted += 1;
            if prov.enabled() {
                // One invocation record per invocation that grafts,
                // logged lazily at the first graft so no-op invocations
                // leave no record.
                let s = *seq.get_or_insert_with(|| {
                    prov.with(|st| {
                        st.begin_invocation(InvocationRecord {
                            seq: 0,
                            service: plan.service,
                            doc: doc_name,
                            node: plan.node,
                            round,
                            doc_version: pre_version,
                            peer: None,
                            inputs: plan.witnesses.clone(),
                        })
                    })
                    .expect("enabled")
                });
                let fresh: Vec<NodeId> = doc.iter_live(new_root).collect();
                prov.with(|st| {
                    for nid in fresh {
                        st.stamp(doc_name, nid, Origin::Local { seq: s });
                    }
                });
            }
        }
    }
    if grafted > 0 {
        tracer.emit(|| EventKind::Graft {
            doc: doc_name,
            doc_version: doc.mutation_count(),
            trees: grafted as u32,
        });
        let before = doc.node_count() as u32;
        reduce_in_place(doc);
        tracer.emit(|| EventKind::Reduce {
            doc: doc_name,
            nodes_before: before,
            nodes_after: doc.node_count() as u32,
        });
        if tracer.enabled() {
            if let Some(post) = doc.index_stats() {
                let (pa, pr) = pre_index.map_or((0, 0), |s| (s.adds, s.removes));
                tracer.emit(|| EventKind::IndexMaintain {
                    doc: doc_name,
                    adds: post.adds.saturating_sub(pa) as u32,
                    removes: post.removes.saturating_sub(pr) as u32,
                    bytes: post.bytes_estimate,
                });
            }
        }
    }
    Ok(InvokeOutcome {
        changed: grafted > 0,
        result_trees,
        grafted,
    })
}

/// Invoke the function node `node` of document `doc_name` in `sys`: one
/// §2.2 step, evaluated in full with no caches attached.
pub fn invoke_node(sys: &mut System, doc_name: Sym, node: NodeId) -> Result<InvokeOutcome> {
    invoke_node_with_provenance(
        sys,
        doc_name,
        node,
        None,
        None,
        Tracer::disabled(),
        Provenance::disabled(),
        0,
        MatchStrategy::default(),
    )
}

/// [`invoke_node`] with the engine's caches, emitting graft, reduce and
/// subsumption events into `tracer` (see [`crate::trace`]) and stamping
/// every grafted node's lineage into `prov` (see [`crate::provenance`]).
///
/// `cache` reuses each body atom's matches while the matched document is
/// unchanged and, together with `programs`, makes the evaluation
/// semi-naive (see the module doc). Without `programs`, positive
/// services run the pattern interpreter. When a provenance store is
/// attached, the service's witness nodes are collected before
/// evaluation, an [`InvocationRecord`] is logged on the first graft,
/// and each freshly copied node gets an [`Origin::Local`] stamp.
/// `round` is the engine round recorded in the invocation record, and
/// `strategy` selects how positive services' bodies are matched
/// ([`MatchStrategy`]; black boxes are unaffected).
#[allow(clippy::too_many_arguments)]
pub fn invoke_node_with_provenance(
    sys: &mut System,
    doc_name: Sym,
    node: NodeId,
    mut cache: Option<&mut MatchCache>,
    programs: Option<&mut ProgramCache>,
    tracer: Tracer<'_>,
    prov: Provenance<'_>,
    round: u64,
    strategy: MatchStrategy,
) -> Result<InvokeOutcome> {
    // Phase 1 — evaluate the service against the current (immutable)
    // system state; phase 2 — graft the new information and reduce.
    // Semi-naive evaluation needs births, which only compiled programs
    // compute, and a cache to keep the call's marks in; marks that an
    // error leaves behind are dropped, and the next evaluation is full.
    let call = (doc_name, node);
    let marks = match (&mut cache, &programs) {
        (Some(c), Some(_)) => Some(c.take_marks(call).unwrap_or_default()),
        _ => None,
    };
    let plan = evaluate_node(
        sys,
        doc_name,
        node,
        cache.as_deref_mut(),
        programs,
        tracer,
        prov.enabled(),
        strategy,
        marks,
    )?;
    let outcome = apply_plan(sys, &plan, tracer, prov, round)?;
    if let (Some(c), Some(m)) = (cache, plan.marks) {
        c.set_marks(call, m);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::Forest;
    use crate::parse::parse_tree;
    use crate::service::BlackBoxService;
    use crate::subsume::equivalent;

    fn get_rating_system() -> System {
        let mut sys = System::new();
        sys.add_document_text(
            "dir",
            r#"directory{cd{title{"Body and Soul"},
                           singer{"Billie Holiday"},
                           @GetRating{"Body and Soul"}}}"#,
        )
        .unwrap();
        // A black-box rating service: returns rating{"****"} whatever the
        // input (constant, hence monotone).
        let rating = Forest::from_trees(vec![parse_tree(r#"rating{"****"}"#).unwrap()]);
        sys.add_black_box("GetRating", BlackBoxService::constant("ratings", rating))
            .unwrap();
        sys
    }

    #[test]
    fn paper_get_rating_invocation() {
        let mut sys = get_rating_system();
        let (d, n) = sys.function_nodes()[0];
        let out = invoke_node(&mut sys, d, n).unwrap();
        assert!(out.changed);
        assert_eq!(out.grafted, 1);
        let expected = parse_tree(
            r#"directory{cd{title{"Body and Soul"},
                            singer{"Billie Holiday"},
                            @GetRating{"Body and Soul"},
                            rating{"****"}}}"#,
        )
        .unwrap();
        assert!(equivalent(sys.doc(d).unwrap(), &expected));
    }

    #[test]
    fn second_invocation_is_a_noop() {
        let mut sys = get_rating_system();
        let (d, n) = sys.function_nodes()[0];
        invoke_node(&mut sys, d, n).unwrap();
        let again = invoke_node(&mut sys, d, n).unwrap();
        assert!(!again.changed);
        assert_eq!(again.grafted, 0);
        assert_eq!(again.result_trees, 1);
    }

    #[test]
    fn input_and_context_are_visible_to_queries() {
        let mut sys = System::new();
        sys.add_document_text("d", r#"a{ctx{"c"}, @f{param{"p"}}}"#)
            .unwrap();
        // Echo both the parameter and a context child.
        sys.add_service_text(
            "f",
            "echo{$p,$c} :- input/input{param{$p}}, context/a{ctx{$c}}",
        )
        .unwrap();
        let (d, n) = sys.function_nodes()[0];
        let out = invoke_node(&mut sys, d, n).unwrap();
        assert!(out.changed);
        let expected = parse_tree(r#"a{ctx{"c"}, @f{param{"p"}}, echo{"p","c"}}"#).unwrap();
        assert!(equivalent(sys.doc(d).unwrap(), &expected));
    }

    #[test]
    fn black_box_clones_sharing_an_id_are_checked_apart() {
        // `u` is a clone of `t` grown to strictly more: same `Tree::id`,
        // equal signatures. Checked against the existing copy of `t`
        // under one memo, `u` would inherit `t`'s "already present".
        let t = parse_tree("a{b{c{b}},c{b}}").unwrap();
        let mut u = t.clone();
        let c = u.children(u.root())[1];
        let cb = u.children(c)[0];
        u.add_child(cb, Marking::label("c")).unwrap();
        let mut sys = System::new();
        sys.add_document_text("d", "r{a{b{c{b}},c{b}}, @bb}")
            .unwrap();
        let pair = Forest::from_trees(vec![t, u]);
        sys.add_black_box("bb", BlackBoxService::constant("clones", pair))
            .unwrap();
        let (d, n) = sys.function_nodes()[0];
        assert!(invoke_node(&mut sys, d, n).unwrap().changed);
        let expected = parse_tree("r{a{b{c{b}},c{b{c}}}, @bb}").unwrap();
        assert!(equivalent(sys.doc(d).unwrap(), &expected));
    }

    #[test]
    fn nested_call_results_attach_inside_parameters() {
        let mut sys = System::new();
        sys.add_document_text("d", r#"a{@outer{@inner{"x"}}}"#)
            .unwrap();
        sys.add_service_text("inner", r#"v{"found"} :-"#).unwrap();
        sys.add_service_text("outer", "w :-").unwrap();
        // Find the *inner* node: it is the function node with a value child.
        let nodes = sys.function_nodes();
        let d = nodes[0].0;
        let inner = *nodes
            .iter()
            .map(|(_, n)| n)
            .find(|&&n| {
                let t = sys.doc(d).unwrap();
                t.marking(n) == Marking::func("inner")
            })
            .unwrap();
        invoke_node(&mut sys, d, inner).unwrap();
        let expected = parse_tree(r#"a{@outer{@inner{"x"}, v{"found"}}}"#).unwrap();
        assert!(equivalent(sys.doc(d).unwrap(), &expected));
    }

    #[test]
    fn invoking_non_function_node_errors() {
        let mut sys = get_rating_system();
        let d = sys.doc_names()[0];
        let root = sys.doc(d).unwrap().root();
        assert!(matches!(
            invoke_node(&mut sys, d, root),
            Err(AxmlError::NotAFunctionNode)
        ));
    }

    #[test]
    fn invoking_unregistered_function_errors() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@ghost}").unwrap();
        let (d, n) = sys.function_nodes()[0];
        assert!(matches!(
            invoke_node(&mut sys, d, n),
            Err(AxmlError::UnknownFunction(_))
        ));
    }

    #[test]
    fn example_2_1_first_step() {
        // d/a{f}, f returns a{f}: first invocation yields a{a{f}, f}.
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        let (d, n) = sys.function_nodes()[0];
        let out = invoke_node(&mut sys, d, n).unwrap();
        assert!(out.changed);
        let expected = parse_tree("a{a{@f}, @f}").unwrap();
        assert!(equivalent(sys.doc(d).unwrap(), &expected));
        // Invoking the *original* f again: result a{@f} is now subsumed
        // by the existing sibling a{@f} → no change ("once some
        // occurrence of f has been invoked, it is useless to invoke it
        // again").
        let again = invoke_node(&mut sys, d, n).unwrap();
        assert!(!again.changed);
    }
}
