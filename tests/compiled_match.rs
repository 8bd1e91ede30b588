//! Differential coverage for compiled pattern matching: the compiled
//! executor must be bit-for-bit equivalent to the recursive interpreter,
//! atom by atom on generated patterns and forest by forest on the
//! snapshots of every service, under both match strategies. Engine runs
//! always use compiled programs; they are checked against the
//! interpreted reference round by round (`reference/mod.rs`, driven by
//! `delta_engine.rs` and by the redundant-conjunct case here).
//!
//! Soundness background (see `docs/compilation.md`): the optimization
//! passes only remove work the interpreter would have proved redundant
//! (duplicate and ground-implied conjuncts with earlier surviving
//! witnesses), the emitted program evaluates the same canonical
//! (sorted + deduplicated) binding sets per level, and the runtime
//! still orders child joins by actual candidate size exactly like the
//! interpreter does.

mod reference;

use positive_axml::core::compile::ProgramCache;
use positive_axml::core::engine::{run, EngineConfig, RunStatus, Strategy};
use positive_axml::core::eval::{snapshot_compiled, snapshot_with_strategy, Env};
use positive_axml::core::gensys::{random_simple_system, GenConfig};
use positive_axml::core::matcher::MatchStrategy;
use positive_axml::core::subsume::equivalent;
use positive_axml::core::{parse_query, parse_tree, Sym};
use proptest::prelude::*;
use reference::{reference_run, rounds_agree};

fn gen_cfg(knob: u64) -> GenConfig {
    GenConfig {
        services: 2 + (knob % 3) as usize,
        docs: 1 + (knob % 2) as usize,
        head_call_prob: 0.15 + 0.2 * ((knob % 4) as f64),
        ..GenConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot-level differential: on the documents a terminated run
    /// leaves behind, every positive service's compiled snapshot equals
    /// the interpreted snapshot tree-for-tree (same trees, same order —
    /// the binding sets are canonical, so equality is bit-for-bit).
    #[test]
    fn compiled_snapshots_are_bit_identical(
        seed in 0u64..1_000_000,
        knob in 0u64..24,
    ) {
        let mut sys = random_simple_system(&gen_cfg(knob), seed);
        let (status, _) = run(&mut sys, &EngineConfig::with_budget(200)).unwrap();
        if status == RunStatus::NodeBudget {
            return Ok(());
        }
        let mut env = Env::new();
        for &d in sys.doc_names() {
            env.insert(d, sys.doc(d).unwrap());
        }
        for strategy in [MatchStrategy::Scan, MatchStrategy::Indexed] {
            let mut programs = ProgramCache::new();
            for &svc in sys.service_names() {
                let Some(q) = sys.service_query(svc) else { continue };
                let interp = snapshot_with_strategy(q, &env, strategy);
                let comp = snapshot_compiled(q, &env, svc, &mut programs, strategy);
                match (interp, comp) {
                    (Ok((fi, _)), Ok((fc, _))) => {
                        let ti: Vec<String> =
                            fi.trees().iter().map(|t| t.to_string()).collect();
                        let tc: Vec<String> =
                            fc.trees().iter().map(|t| t.to_string()).collect();
                        prop_assert!(
                            ti == tc,
                            "seed {} knob {} {:?} service {}: forests diverged",
                            seed, knob, strategy, svc.as_str()
                        );
                    }
                    (Err(ei), Err(ec)) => prop_assert!(
                        ei.to_string() == ec.to_string(),
                        "seed {} knob {}: errors diverged: {ei} vs {ec}",
                        seed, knob
                    ),
                    (i, c) => prop_assert!(
                        false,
                        "seed {} knob {}: one path errored: {:?} vs {:?}",
                        seed, knob, i.is_ok(), c.is_ok()
                    ),
                }
            }
        }
    }
}

/// Redundant conjuncts: a service body with a literal duplicate atom
/// and a ground atom implied by it compiles to a one-atom program, and
/// the engines running that program still agree, round by round, with
/// the interpreted reference, which matches all three atoms.
#[test]
fn redundant_conjuncts_are_eliminated_without_observable_effect() {
    let build = || {
        let mut sys = positive_axml::core::System::new();
        sys.add_document_text("d0", r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, @f}"#)
            .unwrap();
        sys.add_service_text(
            "f",
            "t{from{$x},to{$y}} :- \
             d0/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}, \
             d0/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}, \
             d0/r{t}",
        )
        .unwrap();
        sys
    };
    // The pattern itself compiles down to one atom...
    let sys = build();
    let q = sys.service_query(Sym::intern("f")).unwrap();
    let compiled = positive_axml::core::compile::compile_query(q, MatchStrategy::Indexed);
    assert_eq!(compiled.plan().atoms.len(), 1);
    assert_eq!(compiled.plan().eliminated.len(), 2);
    // ...and the engines agree with the reference on the closure.
    for strategy in [Strategy::RoundRobin, Strategy::Reverse] {
        let what = format!("redundant conjuncts, {strategy:?}");
        let (fixpoint, status) = rounds_agree(&sys, strategy, usize::MAX, &what);
        assert_eq!(status, Some(RunStatus::Terminated), "{what}");
        let d0 = fixpoint.doc(Sym::intern("d0")).unwrap();
        let closure = r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, @f, t{from{"1"},to{"3"}}}"#;
        assert!(
            equivalent(d0, &parse_tree(closure).unwrap()),
            "{what}: {d0}"
        );
    }
    let (status, stats) = run(&mut build(), &EngineConfig::default()).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    assert!(stats.programs_compiled > 0);
}

/// The engine evaluates through the program cache and journals it, one
/// `PlanCompiled` event per program compiled and one `ProgramCacheHit`
/// per program reused, as `RunStats` counts them. And its journal agrees
/// with the reference's on every change to a document: the engine skips
/// calls and, evaluating semi-naively, hands fewer result trees to the
/// graft, but it grafts and reduces event for event as the reference's
/// full evaluations do.
#[test]
fn trace_streams_agree_on_every_document_change() {
    use positive_axml::core::trace::{EventKind, Journal, TraceEvent, Tracer};

    let journal = Journal::new();
    let (status, stats) = positive_axml::core::engine::run_traced(
        &mut axml_bench::tc_system(10),
        &EngineConfig::default(),
        Tracer::new(&journal),
    )
    .unwrap();
    assert_eq!(status, RunStatus::Terminated);
    let engine = journal.snapshot();
    let count = |want: fn(&EventKind) -> bool| engine.iter().filter(|e| want(&e.kind)).count();
    let compiled = count(|k| matches!(k, EventKind::PlanCompiled { .. }));
    let hits = count(|k| matches!(k, EventKind::ProgramCacheHit { .. }));
    assert!(compiled > 0 && hits > 0, "{compiled} compiled, {hits} hits");
    assert_eq!(compiled, stats.programs_compiled);
    assert_eq!(hits, stats.program_cache_hits);

    let journal = Journal::new();
    let status = reference_run(
        &mut axml_bench::tc_system(10),
        usize::MAX,
        Tracer::new(&journal),
    );
    assert_eq!(status, RunStatus::Terminated);
    let reference = journal.snapshot();
    // Every change to a document: identical, event for event.
    let changes = |evs: &[TraceEvent]| -> Vec<String> {
        evs.iter()
            .filter(|e| matches!(e.kind, EventKind::Graft { .. } | EventKind::Reduce { .. }))
            .map(|e| format!("{:?}", e.kind))
            .collect()
    };
    assert!(changes(&engine).iter().any(|c| c.starts_with("Graft")));
    assert_eq!(
        changes(&engine),
        changes(&reference),
        "document changes diverged"
    );
    // Fewer result trees to check, strictly fewer on this system.
    let checks = |evs: &[TraceEvent]| {
        evs.iter()
            .filter(|e| matches!(e.kind, EventKind::SubsumeCheck { .. }))
            .count()
    };
    assert!(
        checks(&engine) < checks(&reference),
        "semi-naive evaluation checked {} result trees, full evaluation {}",
        checks(&engine),
        checks(&reference)
    );
}

/// A deterministic generator (SplitMix64) for the pattern-level
/// differential below; it also counts the tree variables handed out.
struct Gen {
    state: u64,
    tree_vars: usize,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// A tree in the compact syntax's terms: an item's text and children.
#[derive(Clone, Debug)]
struct Spec {
    item: String,
    kids: Vec<Spec>,
}

impl Spec {
    fn new(item: impl Into<String>, kids: Vec<Spec>) -> Spec {
        Spec {
            item: item.into(),
            kids,
        }
    }

    fn render(&self, out: &mut String) {
        out.push_str(&self.item);
        if !self.kids.is_empty() {
            out.push('{');
            for (i, k) in self.kids.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                k.render(out);
            }
            out.push('}');
        }
    }

    fn text(&self) -> String {
        let mut s = String::new();
        self.render(&mut s);
        s
    }
}

fn value(g: &mut Gen) -> Spec {
    Spec::new(format!("\"{}\"", g.below(3)), vec![])
}

/// A small random subtree over labels, functions and values.
fn random_subtree(g: &mut Gen, depth: usize) -> Spec {
    if depth == 0 || g.chance(30) {
        return value(g);
    }
    let item = ["a", "b", "c", "k", "m", "@f", "@g"][g.below(7)];
    let kids = (0..g.below(4))
        .map(|_| random_subtree(g, depth - 1))
        .collect();
    Spec::new(item, kids)
}

/// A document whose root has 40 to 59 `a{k{..},m{..},..}` children (one
/// label, values over three symbols), a few `c{k{..},m{..}}` children
/// and a few random subtrees.
fn random_document(g: &mut Gen) -> Spec {
    let mut kids = Vec::new();
    for _ in 0..40 + g.below(20) {
        let mut a = vec![
            Spec::new("k", vec![value(g)]),
            Spec::new("m", vec![value(g)]),
        ];
        match g.below(5) {
            0 => a.push(Spec::new("b", vec![value(g)])),
            1 => a.push(Spec::new("@f", vec![value(g)])),
            2 => a.push(Spec::new("n", vec![])),
            3 => a.push(Spec::new("a", vec![Spec::new("k", vec![value(g)])])),
            _ => {}
        }
        kids.push(Spec::new("a", a));
    }
    for _ in 0..g.below(6) {
        kids.push(Spec::new(
            "c",
            vec![
                Spec::new("k", vec![value(g)]),
                Spec::new("m", vec![value(g)]),
            ],
        ));
    }
    for _ in 0..g.below(4) {
        kids.push(random_subtree(g, 3));
    }
    Spec::new("r", kids)
}

/// A pattern taken from document node `n`: up to three children per
/// node (with repeats, and sometimes a repeated subpattern), with items
/// turned into variables of every kind. Variable names come from small
/// pools, so a variable repeats across siblings and across levels.
fn pattern_from(g: &mut Gen, n: &Spec, depth: usize, ground: bool) -> Spec {
    let kind = if n.item.starts_with('"') {
        "$v"
    } else if n.item.starts_with('@') {
        "@?f"
    } else {
        "?l"
    };
    let roll = g.below(100);
    let item = match roll {
        _ if ground || roll < 55 => n.item.clone(),
        // One tree variable per query: each binds a copied subtree, and
        // two over wide siblings multiply into a slow oracle.
        55..=64 if g.tree_vars == 0 => {
            g.tree_vars += 1;
            return Spec::new(format!("#T{}", g.tree_vars), vec![]);
        }
        _ => format!("{kind}{}", g.below(if kind == "$v" { 3 } else { 2 })),
    };
    let mut kids = Vec::new();
    if depth < 3 && !n.kids.is_empty() && !item.starts_with('$') {
        for _ in 0..g.below(4) {
            let k = &n.kids[g.below(n.kids.len())];
            kids.push(pattern_from(g, k, depth + 1, ground));
        }
        if !kids.is_empty() && g.chance(20) {
            let again = kids[g.below(kids.len())].clone();
            if !again.text().contains('#') {
                kids.push(again);
            }
        }
    }
    Spec::new(item, kids)
}

/// One body pattern over `doc`: mostly taken from the document, but
/// sometimes a join of two children on two shared columns.
fn random_pattern(g: &mut Gen, doc: &Spec) -> String {
    if g.chance(20) {
        let other = ["c", "a"][g.below(2)];
        return format!("r{{a{{k{{$v0}},m{{$v1}}}},{other}{{m{{$v1}},k{{$v0}}}}}}");
    }
    let ground = g.chance(15);
    let mut p = pattern_from(g, doc, 0, ground);
    if !p.item.starts_with('r') && !p.item.starts_with('?') {
        p.item = "r".into();
    }
    p.text()
}

/// The distinct variables of a query body's text, for a head that
/// reads them all.
fn body_variables(body: &str) -> Vec<String> {
    let mut vars: Vec<String> = Vec::new();
    let mut rest = body;
    while let Some(at) = rest.find(['$', '?', '#']) {
        // `@?f1`: the `@` belongs to the variable.
        let start = if body.len() - rest.len() + at > 0 && rest[..at].ends_with('@') {
            at - 1
        } else {
            at
        };
        let end = at
            + 1
            + rest[at + 1..]
                .find(|c: char| !c.is_ascii_alphanumeric())
                .unwrap_or(rest.len() - at - 1);
        let v = rest[start..end].to_string();
        if !vars.contains(&v) {
            vars.push(v);
        }
        rest = &rest[end..];
    }
    vars
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pattern-level differential: on generated (pattern, document)
    /// pairs, every compiled atom returns exactly the interpreter's
    /// bindings, under Scan and Indexed, before and after the document
    /// index is built; and a two-atom query with a head reading every
    /// variable returns the same forest through both paths (the join
    /// across atoms).
    #[test]
    fn compiled_atoms_reproduce_the_interpreter_on_generated_patterns(
        seed in 0u64..1_000_000,
    ) {
        use positive_axml::core::compile::compile_query;
        use positive_axml::core::matcher::match_pattern_with;
        use positive_axml::core::parse_tree;

        let mut g = Gen {
            state: seed,
            tree_vars: 0,
        };
        let doc_spec = random_document(&mut g);
        let atoms = 1 + g.below(2);
        let body: Vec<String> = (0..atoms)
            .map(|_| format!("d/{}", random_pattern(&mut g, &doc_spec)))
            .collect();
        let body = body.join(", ");
        let vars = body_variables(&body);
        let head = if vars.is_empty() {
            "h".to_string()
        } else {
            format!("h{{{}}}", vars.join(","))
        };
        let text = format!("{head} :- {body}");
        let q = parse_query(&text).unwrap();
        let doc = parse_tree(&doc_spec.text()).unwrap();
        for pass in 0..2 {
            if pass == 1 {
                doc.build_index();
            }
            for strategy in [MatchStrategy::Scan, MatchStrategy::Indexed] {
                let c = compile_query(&q, strategy);
                for (pos, atom) in c.program().atoms().iter().enumerate() {
                    let (compiled, _) = c.run_atom(pos, &doc);
                    let (interp, _) =
                        match_pattern_with(&q.body[atom.index].pattern, &doc, strategy);
                    prop_assert!(
                        compiled == interp,
                        "seed {} {:?} pass {}: atom {} of {} diverged ({} vs {} bindings)",
                        seed, strategy, pass, atom.index, text,
                        compiled.len(), interp.len()
                    );
                }
                let mut env = Env::new();
                env.insert(Sym::intern("d"), &doc);
                let svc = Sym::intern("generated");
                let (fi, _) = snapshot_with_strategy(&q, &env, strategy).unwrap();
                let (fc, _) =
                    snapshot_compiled(&q, &env, svc, &mut ProgramCache::new(), strategy)
                        .unwrap();
                let ti: Vec<String> = fi.trees().iter().map(|t| t.to_string()).collect();
                let tc: Vec<String> = fc.trees().iter().map(|t| t.to_string()).collect();
                prop_assert!(
                    ti == tc,
                    "seed {} {:?} pass {}: forests of {} diverged",
                    seed, strategy, pass, text
                );
            }
        }
    }
}
