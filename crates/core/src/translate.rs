//! The ψ translation (Proposition 5.1): compile regular path expressions
//! away, yielding a plain positive system and query with the same full
//! query result.
//!
//! Following the paper's proof sketch, for each path-expression
//! occurrence the translation:
//!
//! 1. builds the ε-free NFA of the expression;
//! 2. **adds to the documents** nodes representing the automaton states
//!    relevant to each node — realized as per-node service calls whose
//!    results are annotation subtrees `axannJ{axst{"sK"}, payload…}`;
//! 3. defines **one service per automaton move** `δ(q, a) = p`: "a query
//!    that tests if the given (context) node has a child of state p and
//!    whose label is a, and if so returns the state q", plus one *seed*
//!    service per accepting state ("the final state is stored in all
//!    nodes of the tree") that also checks the path node's continuation
//!    pattern at the endpoint;
//! 4. propagates, along with states, the bindings the continuation needs
//!    ("the label of the node at the end of the path" for simple
//!    queries, "the node's subtree" — a tree variable — for non-simple
//!    ones);
//! 5. rewrites the query: each path node becomes a plain match on the
//!    anchor's annotation carrying the automaton's **start** state.
//!
//! The translation is PTIME, preserves simplicity (simple in → simple
//! out: seeds and moves copy only marking variables), and preserves the
//! full query result up to erasure of the annotation namespace
//! ([`strip_annotations`]). Label/function variables in user queries and
//! services receive inequality guards so they never capture annotation
//! nodes — keeping the original system's behaviour intact.
//!
//! **Scope deviation from the paper.** Prop 5.1's sketch says non-simple
//! queries propagate "the node's subtree" with a tree variable. A tree
//! variable, however, cannot be guarded by inequalities (Def 3.1 (3)),
//! so a tree-variable payload would copy the very annotation subtrees
//! the translation plants, creating unbounded annotation-of-annotation
//! growth. We therefore implement ψ for **simple** positive+reg queries
//! (the carrier of every decidability result in the paper); non-simple
//! positive+reg queries are supported by the direct evaluator
//! ([`crate::pathexpr::snapshot_reg`]). See DESIGN.md.

use crate::error::{AxmlError, Result};
use crate::pathexpr::{RItem, RNodeId, RegPattern, RegQuery};
use crate::pattern::{PItem, PNodeId, Pattern};
use crate::query::{parse_query, Operand, Query, VarKind};
use crate::sym::{FxHashMap, FxHashSet, Sym};
use crate::system::System;
use crate::tree::{Marking, NodeId, Tree};
use axml_automata::nfa::Move;
use axml_automata::{Nfa, StateId};
use std::fmt::Write as _;

/// Output of the ψ translation.
pub struct Translation {
    /// The translated (plain positive) system `I'`.
    pub system: System,
    /// The translated (plain positive) query `q'`.
    pub query: Query,
    /// Mapping of the original documents' function nodes to their node
    /// ids in the translated documents — Prop 5.1's "mapping over
    /// function nodes" for transporting q-unneeded sets.
    pub call_map: FxHashMap<(Sym, NodeId), NodeId>,
    /// Statistics.
    pub stats: TranslationStats,
}

/// Size accounting for experiment X10.
#[derive(Clone, Copy, Debug, Default)]
pub struct TranslationStats {
    /// Path-expression occurrences translated.
    pub occurrences: usize,
    /// Automaton states across all occurrences (ε-free, reachable).
    pub states: usize,
    /// Annotation services added.
    pub services_added: usize,
    /// Annotation call nodes planted in documents.
    pub calls_planted: usize,
}

const ANN_PREFIX: &str = "axann";
const STATE_LABEL: &str = "axst";
const BINDER_PREFIX: &str = "axv-";
const SVC_PREFIX: &str = "axsvc";

/// Is `name` in the namespace reserved by the translation?
pub fn is_reserved(name: &str) -> bool {
    name.starts_with(ANN_PREFIX)
        || name == STATE_LABEL
        || name.starts_with(BINDER_PREFIX)
        || name.starts_with(SVC_PREFIX)
        || name.starts_with("axroot")
        || name.starts_with("axany")
}

/// Remove all annotation subtrees (reserved labels and planted calls)
/// from a tree — the erasure under which Prop 5.1 (3)'s result equality
/// holds.
pub fn strip_annotations(t: &Tree) -> Tree {
    fn keep(m: Marking) -> bool {
        !is_reserved(m.sym().as_str()) || matches!(m, Marking::Value(_))
    }
    fn go(src: &Tree, sn: NodeId, dst: &mut Tree, dn: NodeId) {
        for &c in src.children(sn) {
            if !keep(src.marking(c)) {
                continue;
            }
            let nc = dst
                .add_child(dn, src.marking(c))
                .expect("structure preserved");
            go(src, c, dst, nc);
        }
    }
    let mut out = Tree::new(t.marking(t.root()));
    let root = out.root();
    go(t, t.root(), &mut out, root);
    out
}

/// One translated path occurrence.
struct Occurrence {
    ann_label: String,
    start_state: String,
    /// (variable, kind) pairs the continuation exports.
    payload: Vec<(Sym, VarKind)>,
    /// Generated service definitions (name, query text).
    services: Vec<(String, String)>,
}

struct Translator {
    occurrences: Vec<Occurrence>,
    reserved_labels: Vec<String>,
    service_names: Vec<String>,
}

impl Translator {
    fn sigil(kind: VarKind, v: Sym) -> String {
        match kind {
            VarKind::Label => format!("?{v}"),
            VarKind::Func => format!("@?{v}"),
            VarKind::Value => format!("${v}"),
            VarKind::Tree => format!("#{v}"),
        }
    }

    /// Binder subpattern text `axv-x{$x}` for a payload variable.
    fn binder(kind: VarKind, v: Sym) -> String {
        format!("{BINDER_PREFIX}{v}{{{}}}", Translator::sigil(kind, v))
    }

    fn state_name(s: StateId) -> String {
        format!("s{}", s.0)
    }

    /// Translate one path occurrence; returns the replacement pattern
    /// text for the query side.
    fn add_occurrence(
        &mut self,
        regex: &axml_automata::Regex<Sym>,
        continuation: Vec<(String, Vec<(Sym, VarKind)>)>,
    ) -> String {
        let j = self.occurrences.len();
        let ann = format!("{ANN_PREFIX}{j}");
        let nfa = Nfa::from_regex(regex).without_epsilon();
        let reachable = nfa.reachable_states();
        let payload: Vec<(Sym, VarKind)> = {
            let mut seen = FxHashSet::default();
            continuation
                .iter()
                .flat_map(|(_, vars)| vars.iter().copied())
                .filter(|(v, _)| seen.insert(*v))
                .collect()
        };
        let binders: String = payload
            .iter()
            .map(|&(v, k)| format!(", {}", Translator::binder(k, v)))
            .collect();

        let mut services: Vec<(String, String)> = Vec::new();
        // Seed services: one per accepting (reachable) state. The seed
        // runs at the path endpoint; its body checks the continuation.
        for &acc in nfa.accept.iter().filter(|s| reachable.contains(s)) {
            let name = format!("{SVC_PREFIX}{j}-seed-{}", Translator::state_name(acc));
            let conts: String = continuation
                .iter()
                .map(|(text, _)| text.clone())
                .collect::<Vec<_>>()
                .join(", ");
            let body = if conts.is_empty() {
                "context/?axroot".to_string()
            } else {
                format!("context/?axroot{{{conts}}}")
            };
            let head = format!(
                "{ann}{{{STATE_LABEL}{{\"{}\"}}{binders}}}",
                Translator::state_name(acc)
            );
            services.push((name, format!("{head} :- {body}")));
        }
        // Move services: one per labeled transition from a reachable
        // state.
        for (k, (from, mv, to)) in nfa
            .transitions()
            .iter()
            .filter(|(from, _, _)| reachable.contains(from))
            .enumerate()
        {
            let name = format!("{SVC_PREFIX}{j}-m{k}");
            let inner = format!(
                "{ann}{{{STATE_LABEL}{{\"{}\"}}{binders}}}",
                Translator::state_name(*to)
            );
            let head = format!(
                "{ann}{{{STATE_LABEL}{{\"{}\"}}{binders}}}",
                Translator::state_name(*from)
            );
            let (step, guards) = match mv {
                Move::Label(l) => (l.to_string(), String::new()),
                Move::Any => ("?axany".to_string(), self.wildcard_guards("axany")),
                Move::Epsilon => unreachable!("ε-free automaton"),
            };
            services.push((
                name,
                format!("{head} :- context/?axroot{{{step}{{{inner}}}}}{guards}"),
            ));
        }

        let start = Translator::state_name(nfa.start);
        let replacement = format!("{ann}{{{STATE_LABEL}{{\"{start}\"}}{binders}}}");
        self.reserved_labels.push(ann.clone());
        self.service_names
            .extend(services.iter().map(|(n, _)| n.clone()));
        self.occurrences.push(Occurrence {
            ann_label: ann,
            start_state: start,
            payload,
            services,
        });
        replacement
    }

    /// Inequality guards keeping a wildcard label variable out of the
    /// annotation namespace. Guards reference annotation labels of *all*
    /// occurrences, so they are patched (regenerated) after every
    /// occurrence is known — see [`translate`]'s second pass.
    fn wildcard_guards(&self, var: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, ", ?{var} != {STATE_LABEL}");
        for j in 0..=self.occurrences.len() {
            let _ = write!(out, ", ?{var} != {ANN_PREFIX}{j}");
        }
        out
    }
}

/// Recursively transform a reg-pattern node into plain pattern text,
/// registering occurrences for every path item (innermost first).
fn transform_rnode(
    tr: &mut Translator,
    rp: &RegPattern,
    rn: RNodeId,
) -> (String, Vec<(Sym, VarKind)>) {
    match rp.item(rn) {
        RItem::Plain(item) => {
            let mut vars = Vec::new();
            match item {
                PItem::LabelVar(v) => vars.push((*v, VarKind::Label)),
                PItem::FuncVar(v) => vars.push((*v, VarKind::Func)),
                PItem::ValueVar(v) => vars.push((*v, VarKind::Value)),
                PItem::TreeVar(v) => vars.push((*v, VarKind::Tree)),
                PItem::Const(_) => {}
            }
            let mut kids = Vec::new();
            for &rc in rp.children(rn) {
                let (text, v) = transform_rnode(tr, rp, rc);
                vars.extend(v);
                kids.push(text);
            }
            let text = if kids.is_empty() {
                format!("{item}")
            } else {
                format!("{item}{{{}}}", kids.join(","))
            };
            (text, vars)
        }
        RItem::Path(regex) => {
            let mut conts = Vec::new();
            let mut vars = Vec::new();
            for &rc in rp.children(rn) {
                let (text, v) = transform_rnode(tr, rp, rc);
                vars.extend(v.clone());
                conts.push((text, v));
            }
            let replacement = tr.add_occurrence(regex, conts);
            (replacement, vars)
        }
    }
}

/// Check that no user name collides with the reserved namespace.
fn check_reserved(sys: &System, q: &RegQuery) -> Result<()> {
    let check_sym = |s: Sym| -> Result<()> {
        if is_reserved(s.as_str()) {
            Err(AxmlError::ReservedName(s))
        } else {
            Ok(())
        }
    };
    for &d in sys.doc_names() {
        let t = sys.doc(d).expect("stored");
        for n in t.iter_live(t.root()) {
            check_sym(t.marking(n).sym())?;
        }
    }
    for &f in sys.service_names() {
        check_sym(f)?;
    }
    for v in q.head.variables() {
        check_sym(v)?;
    }
    for (_, p) in &q.body {
        for v in p.variables() {
            check_sym(v)?;
        }
    }
    Ok(())
}

/// Guards excluding every reserved label from a label variable, and
/// every planted service from a function variable.
fn guards_for_query(q: &Query, tr: &Translator) -> Vec<(Operand, Operand)> {
    let mut out = Vec::new();
    let kinds = q.var_kinds();
    let mut body_vars: FxHashSet<Sym> = FxHashSet::default();
    for a in &q.body {
        body_vars.extend(a.pattern.variables());
    }
    for (v, k) in kinds {
        if !body_vars.contains(&v) {
            continue;
        }
        match k {
            VarKind::Label => {
                out.push((Operand::Var(v), Operand::Const(Marking::label(STATE_LABEL))));
                for occ in &tr.occurrences {
                    out.push((
                        Operand::Var(v),
                        Operand::Const(Marking::label(&occ.ann_label)),
                    ));
                }
            }
            VarKind::Func => {
                for name in &tr.service_names {
                    out.push((Operand::Var(v), Operand::Const(Marking::func(name))));
                }
            }
            _ => {}
        }
    }
    out
}

/// Plant one call per annotation service under every label node of `t`
/// (and remember where original function nodes went).
fn plant_calls(
    t: &Tree,
    tr: &Translator,
    stats: &mut TranslationStats,
) -> (Tree, FxHashMap<NodeId, NodeId>) {
    let mut out = Tree::new(t.marking(t.root()));
    let mut map = FxHashMap::default();
    map.insert(t.root(), out.root());
    let mut stack = vec![(t.root(), out.root())];
    while let Some((sn, dn)) = stack.pop() {
        if matches!(t.marking(sn), Marking::Label(_)) {
            for name in &tr.service_names {
                out.add_child(dn, Marking::func(name))
                    .expect("labels accept children");
                stats.calls_planted += 1;
            }
        }
        for &c in t.children(sn) {
            let nc = out
                .add_child(dn, t.marking(c))
                .expect("copy preserves shape");
            map.insert(c, nc);
            stack.push((c, nc));
        }
    }
    (out, map)
}

/// Plant annotation calls under every label node (constant or variable)
/// of a service head, so data created at run time gets annotated too.
fn plant_calls_in_head(head: &Pattern, tr: &Translator) -> Pattern {
    fn go(src: &Pattern, sn: PNodeId, dst: &mut Pattern, dn: PNodeId, tr: &Translator) {
        let plant = matches!(
            src.item(sn),
            PItem::Const(Marking::Label(_)) | PItem::LabelVar(_)
        );
        if plant {
            for name in &tr.service_names {
                dst.add_child(dn, PItem::Const(Marking::func(name)))
                    .expect("labels accept children");
            }
        }
        for &c in src.children(sn) {
            let nc = dst
                .add_child(dn, src.item(c).clone())
                .expect("copy preserves shape");
            go(src, c, dst, nc, tr);
        }
    }
    let mut out = Pattern::new(head.item(head.root()).clone());
    let root = out.root();
    go(head, head.root(), &mut out, root, tr);
    out
}

/// ψ: translate a positive system plus a positive+reg query into a plain
/// positive system and query with the same result (Prop 5.1), up to
/// [`strip_annotations`] erasure.
pub fn translate(sys: &System, q: &RegQuery) -> Result<Translation> {
    if !sys.is_positive() {
        return Err(AxmlError::NotSimple(Sym::intern("<black-box>")));
    }
    if !q.is_simple() {
        return Err(AxmlError::NotSimple(Sym::intern("<query>")));
    }
    check_reserved(sys, q)?;
    let mut tr = Translator {
        occurrences: Vec::new(),
        reserved_labels: Vec::new(),
        service_names: Vec::new(),
    };

    // Pass 1: transform the query body, discovering occurrences.
    let mut body_texts: Vec<(Sym, String)> = Vec::new();
    for (doc, p) in &q.body {
        let (text, _) = transform_rnode(&mut tr, p, p.root());
        body_texts.push((*doc, text));
    }
    let mut stats = TranslationStats {
        occurrences: tr.occurrences.len(),
        ..TranslationStats::default()
    };

    // Pass 2: regenerate wildcard guards now that all annotation labels
    // are known (services were created with partial guard lists when
    // occurrences were still being discovered — rebuilt here).
    let occ_count = tr.occurrences.len();
    let full_guards: String = {
        let mut s = format!(", ?axany != {STATE_LABEL}");
        for j in 0..occ_count {
            let _ = write!(s, ", ?axany != {ANN_PREFIX}{j}");
        }
        s
    };
    for occ in &mut tr.occurrences {
        for (_, qtext) in &mut occ.services {
            if let Some(idx) = qtext.find(", ?axany !=") {
                qtext.truncate(idx);
                qtext.push_str(&full_guards);
            }
        }
    }

    // Build the translated system.
    let mut out = System::new();
    let mut call_map: FxHashMap<(Sym, NodeId), NodeId> = FxHashMap::default();
    for &d in sys.doc_names() {
        let t = sys.doc(d).expect("stored");
        let (planted, map) = plant_calls(t, &tr, &mut stats);
        for n in t.function_nodes() {
            if let Some(&nn) = map.get(&n) {
                call_map.insert((d, n), nn);
            }
        }
        out.add_document(d.as_str(), planted)?;
    }
    // Original services: heads planted, label/function variables guarded.
    for &f in sys.service_names() {
        let orig = sys.service_query(f).expect("positive system");
        let mut guarded = orig.clone();
        guarded.head = plant_calls_in_head(&orig.head, &tr);
        guarded.ineqs.extend(guards_for_query(orig, &tr));
        out.add_service(f.as_str(), guarded)?;
    }
    // Annotation services.
    for occ in &tr.occurrences {
        for (name, qtext) in &occ.services {
            let parsed = parse_query(qtext)?;
            out.add_service(name, parsed)?;
            stats.services_added += 1;
        }
        stats.states += occ
            .services
            .iter()
            .filter(|(n, _)| n.contains("-seed-"))
            .count();
        let _ = &occ.start_state;
        let _ = &occ.payload;
    }

    // The translated query.
    let mut qtext = String::new();
    let _ = write!(qtext, "{} :- ", q.head);
    let parts: Vec<String> = body_texts.iter().map(|(d, t)| format!("{d}/{t}")).collect();
    qtext.push_str(&parts.join(", "));
    for (l, r) in &q.ineqs {
        let _ = write!(qtext, ", {l} != {r}");
    }
    let mut tq = parse_query(&qtext)?;
    tq.ineqs.extend(guards_for_query(&tq, &tr));

    Ok(Translation {
        system: out,
        query: tq,
        call_map,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, EngineConfig, RunStatus};
    use crate::eval::{snapshot, Env};
    use crate::forest::Forest;
    use crate::pathexpr::{parse_reg_query, snapshot_reg};

    /// Evaluate the *full* result of a reg query directly: run the
    /// original system to fixpoint, then walk with the NFA.
    fn direct_full(mut sys: System, q: &RegQuery) -> Forest {
        let (status, _) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        let mut env = Env::new();
        for &d in sys.doc_names() {
            env.insert(d, sys.doc(d).unwrap());
        }
        snapshot_reg(q, &env).unwrap()
    }

    /// Evaluate via ψ: translate, run the translated system to fixpoint,
    /// snapshot the translated query, strip annotations.
    fn translated_full(sys: &System, q: &RegQuery) -> (Forest, TranslationStats) {
        let tr = translate(sys, q).unwrap();
        let mut tsys = tr.system;
        let (status, _) = run(&mut tsys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated, "translated system diverged");
        let mut env = Env::new();
        for &d in tsys.doc_names() {
            env.insert(d, tsys.doc(d).unwrap());
        }
        let raw = snapshot(&tr.query, &env).unwrap();
        let stripped: Forest = raw.trees().iter().map(strip_annotations).collect();
        (stripped.reduce(), tr.stats)
    }

    fn check_equal(sys: System, qtext: &str) {
        let q = parse_reg_query(qtext).unwrap();
        let direct = direct_full(sys.clone(), &q).reduce();
        let (via_psi, _) = translated_full(&sys, &q);
        assert!(
            direct.equivalent(&via_psi),
            "ψ mismatch for {qtext}:\ndirect: {:?}\npsi: {:?}",
            direct
                .trees()
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>(),
            via_psi
                .trees()
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
        );
    }

    fn static_sys() -> System {
        let mut sys = System::new();
        sys.add_document_text(
            "d",
            r#"lib{
                shelf{box{cd{title{"A"}}}, cd{title{"B"}}},
                cd{title{"C"}},
                misc{dvd{title{"D"}}}
            }"#,
        )
        .unwrap();
        sys
    }

    #[test]
    fn psi_preserves_results_on_static_documents() {
        check_equal(static_sys(), "t{$x} :- d/lib{<shelf.box.cd>{title{$x}}}");
        check_equal(static_sys(), "t{$x} :- d/lib{<_*.cd>{title{$x}}}");
        check_equal(
            static_sys(),
            "t{$x} :- d/lib{<(shelf|misc).(box|dvd)*.(cd|dvd)>{title{$x}}}",
        );
        check_equal(static_sys(), "t{$x} :- d/lib{<cd?>{title{$x}}}");
    }

    #[test]
    fn psi_preserves_results_with_active_services() {
        // The document grows at run time; planted head calls keep the
        // annotations complete.
        let mut sys = System::new();
        sys.add_document_text("src", r#"r{item{"X"}, item{"Y"}}"#)
            .unwrap();
        sys.add_document_text("d", "lib{@fill}").unwrap();
        sys.add_service_text("fill", "shelf{cd{title{$t}}} :- src/r{item{$t}}")
            .unwrap();
        check_equal(sys, "t{$x} :- d/lib{<shelf.cd>{title{$x}}}");
    }

    #[test]
    fn psi_preserves_simplicity() {
        let q = parse_reg_query("t{$x} :- d/lib{<_*.cd>{title{$x}}}").unwrap();
        assert!(q.is_simple());
        let tr = translate(&static_sys(), &q).unwrap();
        assert!(tr.system.is_simple());
        assert!(tr.query.is_simple());
    }

    #[test]
    fn psi_rejects_non_simple_queries() {
        // Tree-variable payloads would copy annotation subtrees and
        // regress (see module docs): ψ is scoped to simple queries.
        let q = parse_reg_query("t{#X} :- d/lib{<_*.cd>{#X}}").unwrap();
        assert!(!q.is_simple());
        assert!(matches!(
            translate(&static_sys(), &q),
            Err(AxmlError::NotSimple(_))
        ));
    }

    #[test]
    fn reserved_names_rejected() {
        let mut sys = System::new();
        sys.add_document_text("d", "axann0{x}").unwrap();
        let q = parse_reg_query("t :- d/axann0{<x*>}").unwrap();
        assert!(matches!(
            translate(&sys, &q),
            Err(AxmlError::ReservedName(_))
        ));
    }

    #[test]
    fn stats_accounting() {
        let q = parse_reg_query("t{$x} :- d/lib{<_*.cd>{title{$x}}}").unwrap();
        let tr = translate(&static_sys(), &q).unwrap();
        assert_eq!(tr.stats.occurrences, 1);
        assert!(tr.stats.services_added >= 2); // >= 1 seed + >= 1 move
        assert!(tr.stats.calls_planted > 0);
    }

    #[test]
    fn call_map_covers_original_calls() {
        let mut sys = System::new();
        sys.add_document_text("d", "lib{@fill}").unwrap();
        sys.add_service_text("fill", "cd{title{\"Z\"}} :-").unwrap();
        let q = parse_reg_query("t{$x} :- d/lib{<cd>{title{$x}}}").unwrap();
        let tr = translate(&sys, &q).unwrap();
        assert_eq!(tr.call_map.len(), 1);
        let d = Sym::intern("d");
        let (_, new_node) = tr
            .call_map
            .iter()
            .next()
            .map(|(&(a, b), &c)| ((a, b), c))
            .unwrap();
        let tdoc = tr.system.doc(d).unwrap();
        assert_eq!(tdoc.marking(new_node), Marking::func("fill"));
    }

    #[test]
    fn strip_annotations_roundtrip() {
        let q = parse_reg_query("t{$x} :- d/lib{<cd>{title{$x}}}").unwrap();
        let tr = translate(&static_sys(), &q).unwrap();
        let d = Sym::intern("d");
        let planted = tr.system.doc(d).unwrap();
        let stripped = strip_annotations(planted);
        let original = static_sys();
        assert!(crate::subsume::equivalent(
            &stripped,
            original.doc(d).unwrap()
        ));
    }
}
