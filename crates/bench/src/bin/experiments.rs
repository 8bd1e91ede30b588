//! The experiments harness: one experiment per formal claim of
//! *Positive Active XML* (PODS 2004). Prints a table per experiment;
//! `EXPERIMENTS.md` records the outputs against the paper's claims.
//!
//! ```sh
//! cargo run --release -p axml-bench --bin experiments          # all
//! cargo run --release -p axml-bench --bin experiments x7 x9    # some
//! ```

use axml_bench::{
    catalog, pipeline_system, poisoned_portal, random_tree, rating_query, star_network,
    tc_random_digraph, tc_system,
};
use axml_core::engine::run_with_provenance;
use axml_core::engine::{run, run_traced, EngineConfig, RunStatus, Strategy};
use axml_core::eval::{snapshot, snapshot_with_stats, Env};
use axml_core::fireonce::run_fire_once;
use axml_core::forest::Forest;
use axml_core::graphrepr::{decide_termination, full_query_result, GraphRepr, Termination};
use axml_core::lazy::{is_q_stable, is_unneeded, lazy_query_eval, weak_relevance, LazyConfig};
use axml_core::matcher::match_pattern;
use axml_core::parse::parse_document;
use axml_core::pathexpr::{parse_reg_query, snapshot_reg};
use axml_core::provenance::{Origin, Provenance, ProvenanceStore};
use axml_core::query::parse_query;
use axml_core::reduce::{canonical_key, reduce};
use axml_core::subsume::subsumed;
use axml_core::system::System;
use axml_core::trace::{
    chrome_trace, validate_chrome_trace, Fanout, Journal, MetricsRegistry, Tracer,
};
use axml_core::translate::{strip_annotations, translate};
use axml_core::tree::Marking;
use axml_datalog::workload::{chain_tc, random_tc};
use axml_datalog::{axml_eval, seminaive_eval};
use axml_p2p::network::Mode;
use axml_p2p::termination::{detect_termination, Verdict};
use axml_tm::encode::{run_axml_tm, AxmlTmOutcome};
use axml_tm::machine::{run as tm_run, Outcome};
use axml_tm::samples;
use std::time::Instant;

fn header(id: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id}: {claim}");
    println!("================================================================");
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// X1 — Prop 2.1: subsumption & reduction are PTIME; reduction unique.
fn x1() {
    header(
        "X1",
        "Prop 2.1 — subsumption/reduction PTIME; unique reduced version",
    );
    println!(
        "{:>8} {:>11} {:>12} {:>12} {:>10}",
        "nodes", "redundancy", "subsume(ms)", "reduce(ms)", "pruned"
    );
    for &n in &[100usize, 400, 1600, 6400] {
        for &red in &[0.0f64, 0.5] {
            let a = random_tree(n, 4, 4, red, 11);
            let b = random_tree(n, 4, 4, red, 12);
            let t0 = Instant::now();
            let _ = subsumed(&a, &b);
            let sub_ms = ms(t0);
            let t1 = Instant::now();
            let r = reduce(&a);
            let red_ms = ms(t1);
            // Uniqueness: reducing a shuffled equivalent yields the same key.
            let mut shuffled = a.clone();
            let root = shuffled.root();
            let copy = a.subtree(a.children(a.root())[0]);
            shuffled.graft(root, &copy).unwrap();
            assert_eq!(canonical_key(&a), canonical_key(&shuffled));
            println!(
                "{n:>8} {red:>11.1} {sub_ms:>12.2} {red_ms:>12.2} {:>10}",
                n.saturating_sub(r.node_count())
            );
        }
    }
    println!("(check: canonical keys of equivalent variants agreed on every row)");

    // Wide fan-out: one parent, n pairwise-distinct same-label siblings in
    // the `scan_large` item shape. Every pair shares a marking, so this is
    // the quadratic case of sibling pruning; none of them is subsumed.
    println!(
        "\n{:>9} {:>8} {:>10} {:>11} {:>10}",
        "siblings", "nodes", "open(ms)", "reduce(ms)", "survivors"
    );
    for &n in &[1000usize, 2000, 5000, 10_000] {
        let items: Vec<String> = (0..n)
            .map(|i| {
                format!(
                    "item{{id{{\"i{i:05}\"}},cat{{\"c{:03}\"}},price{{\"{:04}\"}},name{{\"n{i:05}\"}}}}",
                    i % 200,
                    i * 7 % 10_000
                )
            })
            .collect();
        let text = format!("site{{{}}}", items.join(","));
        let t0 = Instant::now();
        let mut sys = System::new();
        sys.add_document_text("db", &text).unwrap();
        let open_ms = ms(t0);
        let tree = parse_document(&text).unwrap();
        let t1 = Instant::now();
        let r = reduce(&tree);
        let red_ms = ms(t1);
        let survivors = r.children(r.root()).len();
        assert_eq!(survivors, n);
        println!(
            "{n:>9} {:>8} {open_ms:>10.1} {red_ms:>11.1} {survivors:>10}",
            sys.node_count()
        );
    }
    println!("(check: every distinct sibling survived)");
}

/// X2 — Thm 2.1: confluence of fair rewritings.
fn x2() {
    header("X2", "Thm 2.1 — all fair schedules reach the same system");
    println!(
        "{:>14} {:>9} {:>22} {:>9}",
        "system", "seeds", "distinct fixpoints", "ok"
    );
    for (name, build) in [
        (
            "tc-chain-6",
            Box::new(|| tc_system(6)) as Box<dyn Fn() -> System>,
        ),
        ("portal+1junk", Box::new(|| poisoned_portal(0))),
        ("pipeline-4x3", Box::new(|| pipeline_system(4, 3))),
    ] {
        let mut keys = Vec::new();
        let seeds = 12u64;
        for seed in 0..seeds {
            let mut sys = build();
            run(
                &mut sys,
                &EngineConfig::with_strategy(Strategy::Random(seed)),
            )
            .unwrap();
            keys.push(sys.canonical_key());
        }
        keys.dedup();
        keys.sort();
        keys.dedup();
        println!(
            "{name:>14} {seeds:>9} {:>22} {:>9}",
            keys.len(),
            keys.len() == 1
        );
        assert_eq!(keys.len(), 1);
    }
}

/// X3 — Prop 3.1: snapshot evaluation PTIME & monotone.
fn x3() {
    header(
        "X3",
        "Prop 3.1 — snapshot queries: PTIME data complexity, monotone",
    );
    let q = parse_query("hit{$x,?l} :- d/root{?l{$x}, l0}").unwrap();
    println!(
        "{:>8} {:>12} {:>10} {:>12}",
        "nodes", "eval(ms)", "bindings", "monotone"
    );
    let mut prev: Option<Forest> = None;
    for &n in &[200usize, 800, 3200, 12800] {
        let t = random_tree(n, 4, 6, 0.2, 5);
        let mut env = Env::new();
        env.insert("d".into(), &t);
        let t0 = Instant::now();
        let (res, stats) = snapshot_with_stats(&q, &env).unwrap();
        let el = ms(t0);
        // Monotonicity: results over the smaller (prefix-seeded) trees
        // stay subsumed as n grows (same seed ⇒ prefix property does not
        // hold exactly, so check against a literal supertree instead).
        let mut grown = t.clone();
        let root = grown.root();
        grown.add_child(root, Marking::label("l0")).unwrap();
        let mut env2 = Env::new();
        env2.insert("d".into(), &grown);
        let res2 = snapshot(&q, &env2).unwrap();
        let mono = res.subsumed_by(&res2);
        assert!(mono);
        let _ = prev.replace(res);
        println!("{n:>8} {el:>12.2} {:>10} {mono:>12}", stats.joined_bindings);
    }
}

/// X4 — Ex 3.2/§3.2: AXML simulates datalog; baseline comparison.
fn x4() {
    header(
        "X4",
        "Ex 3.2 — simple positive systems express datalog (TC)",
    );
    println!(
        "{:>14} {:>8} {:>14} {:>12} {:>12} {:>7}",
        "workload", "tuples", "seminaive(ms)", "axml(ms)", "axml visits", "agree"
    );
    for (name, prog) in [
        ("chain-8", chain_tc(8)),
        ("chain-16", chain_tc(16)),
        ("chain-32", chain_tc(32)),
        ("random-12-24", random_tc(12, 24, 3)),
        ("random-16-40", random_tc(16, 40, 3)),
    ] {
        let t0 = Instant::now();
        let (dl, _) = seminaive_eval(&prog);
        let dl_ms = ms(t0);
        let t1 = Instant::now();
        let (ax, visits) = axml_eval(&prog).unwrap();
        let ax_ms = ms(t1);
        let agree = dl == ax;
        assert!(agree);
        println!(
            "{name:>14} {:>8} {dl_ms:>14.2} {ax_ms:>12.2} {visits:>12} {agree:>7}",
            dl["path"].len()
        );
    }
    println!("(shape: the datalog engine wins by a growing factor — the AXML");
    println!(" simulation pays tree-pattern joins; both scale to the same fixpoint)");
}

/// X5 — Ex 2.1 & 3.3: infinite semantics; regular vs non-regular.
fn x5() {
    header(
        "X5",
        "Ex 2.1/3.3 — infinite limits: regular (simple) vs non-regular",
    );
    // Example 2.1 under increasing budgets.
    println!("Example 2.1  d/a{{@f}},  f: a{{@f}} :-");
    println!("{:>10} {:>10} {:>10}", "budget", "nodes", "depth");
    for &budget in &[10usize, 40, 160] {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        run(&mut sys, &EngineConfig::with_budget(budget)).unwrap();
        let d = sys.doc("d".into()).unwrap();
        println!(
            "{budget:>10} {:>10} {:>10}",
            d.node_count(),
            d.depth(d.root())
        );
    }
    let mut simple = System::new();
    simple.add_document_text("d", "a{@f}").unwrap();
    simple.add_service_text("f", "a{@f} :-").unwrap();
    let repr = GraphRepr::build(&simple).unwrap();
    println!(
        "graph representation: {} nodes, {} edges — FINITE (Lemma 3.2)",
        repr.graph.node_count(),
        repr.graph.edge_count()
    );
    println!("\nExample 3.3  d/a{{a{{b}},@g}},  g: a{{a{{#X}}}} :- context/a{{a{{#X}}}}");
    println!("{:>10} {:>10} {:>10}", "budget", "nodes", "depth");
    for &budget in &[4usize, 8, 16] {
        let mut sys = System::new();
        sys.add_document_text("d", "a{a{b},@g}").unwrap();
        sys.add_service_text("g", "a{a{#X}} :- context/a{a{#X}}")
            .unwrap();
        run(&mut sys, &EngineConfig::with_budget(budget)).unwrap();
        let d = sys.doc("d".into()).unwrap();
        println!(
            "{budget:>10} {:>10} {:>10}",
            d.node_count(),
            d.depth(d.root())
        );
    }
    println!("non-simple: depth grows without bound; GraphRepr::build correctly refuses");
}

/// X6 — Lemma 3.1: TM simulation.
fn x6() {
    header("X6", "Lemma 3.1 — Turing machines as positive AXML systems");
    println!(
        "{:>10} {:>16} {:>8} {:>12} {:>12} {:>9} {:>7}",
        "machine", "input", "native", "native(ms)", "axml(ms)", "configs", "agree"
    );
    let cases: Vec<(&str, axml_tm::Tm, Vec<Vec<&str>>)> = vec![
        (
            "parity",
            samples::even_parity(),
            vec![vec!["one"; 2], vec!["one"; 6]],
        ),
        (
            "anbn",
            samples::anbn(),
            vec![vec!["a", "b"], vec!["a", "a", "b", "b"]],
        ),
        (
            "binary-inc",
            samples::binary_increment(),
            vec![vec!["one", "one", "one"]],
        ),
    ];
    for (name, tm, inputs) in cases {
        for input in inputs {
            let t0 = Instant::now();
            let (native, _) = tm_run(&tm, &input, 100_000);
            let nat_ms = ms(t0);
            let t1 = Instant::now();
            let (axml, stats) = run_axml_tm(&tm, &input, 200_000).unwrap();
            let ax_ms = ms(t1);
            let agree = matches!(
                (&native, &axml),
                (Outcome::Accept(_), AxmlTmOutcome::Accept(_))
                    | (Outcome::Reject, AxmlTmOutcome::Reject)
            );
            assert!(agree);
            println!(
                "{name:>10} {:>16} {:>8} {nat_ms:>12.3} {ax_ms:>12.2} {:>9} {agree:>7}",
                input.join(""),
                matches!(native, Outcome::Accept(_)),
                stats.configs
            );
        }
    }
    println!("(shape: the AXML simulation is orders of magnitude slower — it pays");
    println!(" one service query per transition per accumulated configuration)");
}

/// X7 — Thm 3.3: termination decidable for simple systems.
fn x7() {
    header(
        "X7",
        "Thm 3.3 — deciding termination of simple positive systems",
    );
    println!(
        "{:>16} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "system", "verdict", "decide(ms)", "graph nodes", "engine", "agree"
    );
    let mut cases: Vec<(String, System)> = vec![
        ("ex2.1".into(), {
            let mut s = System::new();
            s.add_document_text("d", "a{@f}").unwrap();
            s.add_service_text("f", "a{@f} :-").unwrap();
            s
        }),
        ("tc-6".into(), tc_system(6)),
        ("tc-12".into(), tc_system(12)),
    ];
    for k in [2usize, 4, 6] {
        cases.push((format!("pipeline-{k}x3"), pipeline_system(k, 3)));
    }
    for (name, sys) in cases {
        let t0 = Instant::now();
        let verdict = decide_termination(&sys).unwrap();
        let dec_ms = ms(t0);
        let repr = GraphRepr::build(&sys).unwrap();
        let mut runner = sys.clone();
        let (status, _) = run(&mut runner, &EngineConfig::with_budget(5_000)).unwrap();
        let engine = match status {
            RunStatus::Terminated => "fixpoint",
            _ => "budget",
        };
        let agree = matches!(verdict, Termination::Terminates) == (engine == "fixpoint");
        assert!(agree);
        println!(
            "{name:>16} {:>10} {dec_ms:>12.2} {:>12} {engine:>12} {agree:>9}",
            match verdict {
                Termination::Terminates => "halts",
                Termination::Diverges { .. } => "diverges",
            },
            repr.graph.node_count()
        );
    }
}

/// X8 — Prop 3.2/3.3: q-finiteness and emptiness over simple systems.
fn x8() {
    header(
        "X8",
        "Prop 3.2/3.3 — q-finiteness / emptiness of full results",
    );
    let mut div = System::new();
    div.add_document_text("d", "a{@f}").unwrap();
    div.add_service_text("f", "a{@f} :-").unwrap();
    let rows: Vec<(&str, &System, &str)> = vec![
        ("simple q / divergent I", &div, "hit :- d/a{a{@f}}"),
        ("tree-var q / divergent I", &div, "copy{#X} :- d/a{#X}"),
        ("empty q / divergent I", &div, "hit :- d/a{zzz}"),
    ];
    println!(
        "{:>26} {:>9} {:>9} {:>12}",
        "case", "finite", "empty", "answers"
    );
    for (name, sys, q) in rows {
        let res = full_query_result(sys, &parse_query(q).unwrap()).unwrap();
        let fin = res.is_finite();
        let answers = if fin {
            res.materialize().unwrap().len().to_string()
        } else {
            "∞".to_string()
        };
        println!("{name:>26} {fin:>9} {:>9} {answers:>12}", res.is_empty());
    }
    // Acyclic systems are q-finite for every q (Prop 3.2 (2)).
    let pipe = pipeline_system(3, 2);
    let q = parse_query("got{$x} :- out/out{v3{$x}}").unwrap();
    let res = full_query_result(&pipe, &q).unwrap();
    println!(
        "acyclic pipeline: finite={} answers={}",
        res.is_finite(),
        res.materialize().unwrap().len()
    );
    assert!(res.is_finite());
}

/// X9 — Thm 4.1/§4: lazy evaluation; weak analysis vs exact.
fn x9() {
    header(
        "X9",
        "§4 — lazy evaluation: invocations, stability, weak vs exact",
    );
    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12}",
        "junk", "eager status", "eager visits", "lazy calls", "lazy stable"
    );
    let q = rating_query();
    for &junk in &[1usize, 4, 16] {
        let mut eager = poisoned_portal(junk);
        let (estatus, estats) = run(&mut eager, &EngineConfig::with_budget(400)).unwrap();
        let mut lazy = poisoned_portal(junk);
        let (_, lstats) = lazy_query_eval(&mut lazy, &q, &LazyConfig::default()).unwrap();
        println!(
            "{junk:>8} {:>14} {:>14} {:>12} {:>12}",
            format!("{estatus:?}"),
            estats.invocations + estats.skipped,
            lstats.invocations,
            lstats.stable
        );
        assert!(lstats.stable);
    }
    // Weak vs exact agreement on the portal.
    let sys = poisoned_portal(2);
    let rel = weak_relevance(&sys, &q);
    let all = sys.function_nodes();
    let mut weak_unneeded = 0usize;
    let mut exact_unneeded = 0usize;
    for occ in &all {
        let weakly = !rel.relevant_calls.contains(occ);
        if weakly {
            weak_unneeded += 1;
            assert!(
                is_unneeded(&sys, &q, &[*occ]).unwrap(),
                "weak analysis unsound"
            );
        }
        if is_unneeded(&sys, &q, &[*occ]).unwrap() {
            exact_unneeded += 1;
        }
    }
    println!(
        "\nweak-unneeded {weak_unneeded}/{} calls; exact-unneeded {exact_unneeded}/{} (weak ⊆ exact: sound)",
        all.len(),
        all.len()
    );
    println!(
        "q-stable before materialization: {}",
        is_q_stable(&sys, &q).unwrap()
    );
}

/// X10 — Prop 5.1: the ψ translation.
fn x10() {
    header(
        "X10",
        "Prop 5.1 — ψ removes path expressions, preserving results",
    );
    println!(
        "{:>12} {:>8} {:>10} {:>12} {:>12} {:>10} {:>7}",
        "catalog", "answers", "direct(ms)", "ψ-build(ms)", "ψ-run(ms)", "calls+", "agree"
    );
    for &(w, d) in &[(2usize, 1usize), (2, 2), (3, 2)] {
        let mut sys = System::new();
        sys.add_document_text("d", &catalog(w, d)).unwrap();
        let q = parse_reg_query("t{$x} :- d/lib{<_*.cd>{title{$x}}}").unwrap();
        let t0 = Instant::now();
        let mut env = Env::new();
        env.insert("d".into(), sys.doc("d".into()).unwrap());
        let direct = snapshot_reg(&q, &env).unwrap().reduce();
        let direct_ms = ms(t0);
        let t1 = Instant::now();
        let tr = translate(&sys, &q).unwrap();
        let build_ms = ms(t1);
        let t2 = Instant::now();
        let mut tsys = tr.system;
        run(&mut tsys, &EngineConfig::default()).unwrap();
        let mut tenv = Env::new();
        for &dn in tsys.doc_names() {
            tenv.insert(dn, tsys.doc(dn).unwrap());
        }
        let raw = snapshot(&tr.query, &tenv).unwrap();
        let run_ms = ms(t2);
        let via: Forest = raw.trees().iter().map(strip_annotations).collect();
        let agree = direct.equivalent(&via.reduce());
        assert!(agree);
        println!(
            "{:>12} {:>8} {direct_ms:>10.2} {build_ms:>12.2} {run_ms:>12.2} {:>10} {agree:>7}",
            format!("w{w}-d{d}"),
            direct.len(),
            tr.stats.calls_planted
        );
    }
    println!("(shape: ψ is cheap to build (PTIME) but materializing annotations");
    println!(" costs orders of magnitude more than the direct NFA walk)");
}

/// X11 — §2.2/§6: P2P pull vs push; distributed termination.
fn x11() {
    header(
        "X11",
        "§2.2/§6 — P2P: push ≈ pull results, fewer push messages",
    );
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "peers", "pull calls", "push calls", "pull rounds", "push rounds", "agree"
    );
    for &k in &[2usize, 4, 8] {
        let mut pull = star_network(k, Mode::Pull, None);
        for _ in 0..6 {
            pull.step_round().unwrap();
        }
        let mut push = star_network(k, Mode::Push, None);
        for _ in 0..6 {
            push.step_round().unwrap();
        }
        let agree = pull.canonical_key() == push.canonical_key();
        assert!(agree);
        println!(
            "{k:>7} {:>12} {:>12} {:>12} {:>12} {agree:>7}",
            pull.stats.calls_sent, push.stats.calls_sent, pull.stats.rounds, push.stats.rounds
        );
    }
    let mut net = star_network(4, Mode::Pull, None);
    match detect_termination(&mut net, 100).unwrap() {
        Verdict::Terminated { rounds, waves } => println!(
            "\ndistributed termination detector: fired after {rounds} rounds / {waves} waves"
        ),
        Verdict::Undecided => unreachable!(),
    }
}

/// X12 — §4 fire-once semantics.
fn x12() {
    header(
        "X12",
        "§4 — fire-once: weaker than positive, equal on acyclic",
    );
    let mut fo = tc_system(6);
    let fstats = run_fire_once(&mut fo, 10_000).unwrap();
    let mut pos = tc_system(6);
    run(&mut pos, &EngineConfig::default()).unwrap();
    let count = |sys: &System| {
        let d1 = sys.doc("d1".into()).unwrap();
        d1.children(d1.root())
            .iter()
            .filter(|&&n| d1.marking(n) == Marking::label("t"))
            .count()
    };
    println!(
        "tc-6:      fire-once {} tuples (topological: {}) vs positive {} tuples",
        count(&fo),
        fstats.topological,
        count(&pos)
    );
    assert!(count(&fo) < count(&pos));
    let mut fo_p = pipeline_system(4, 3);
    let s = run_fire_once(&mut fo_p, 10_000).unwrap();
    let mut pos_p = pipeline_system(4, 3);
    run(&mut pos_p, &EngineConfig::default()).unwrap();
    println!(
        "pipeline:  fire-once == positive: {} (fired {} calls once each, topological: {})",
        fo_p.equivalent_to(&pos_p),
        s.fired,
        s.topological
    );
    assert!(fo_p.equivalent_to(&pos_p));
}

/// X13 — §5 nesting with a simple system.
fn x13() {
    header(
        "X13",
        "§5 — nesting a relation with a simple positive system",
    );
    for &rows in &[3usize, 6, 12] {
        let mut d = String::from("r{");
        for i in 0..rows {
            d.push_str(&format!(r#"t{{a{{"{}"}}, b{{"{i}"}}}},"#, i % 3));
        }
        d.pop();
        d.push('}');
        let mut sys = System::new();
        sys.add_document_text("d", &d).unwrap();
        sys.add_document_text("dn", "r{@f}").unwrap();
        sys.add_service_text("f", "t{a{$x}, @g} :- d/r{t{a{$x}}}")
            .unwrap();
        sys.add_service_text("g", "b{$y} :- context/t{a{$x}}, d/r{t{a{$x}, b{$y}}}")
            .unwrap();
        assert!(sys.is_simple());
        let t0 = Instant::now();
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        let groups = {
            let dn = sys.doc("dn".into()).unwrap();
            dn.children(dn.root())
                .iter()
                .filter(|&&n| dn.marking(n) == Marking::label("t"))
                .count()
        };
        println!(
            "rows={rows:>3}: {} groups in {:.2}ms ({} invocations, {:?})",
            groups,
            ms(t0),
            stats.invocations,
            status
        );
        assert_eq!(groups, 3.min(rows));
    }
}

/// X14 — the semi-naive engine's skip rule (bench `x12_delta_engine`).
fn x14() {
    header(
        "X14",
        "semi-naive engine — skip calls whose read set is unchanged (bench x12_delta_engine)",
    );
    println!(
        "{:>16} {:>8} {:>8} {:>9} {:>7} {:>8} {:>7} {:>7}",
        "workload", "visits", "evals", "skipped", "hits", "misses", "ratio", "agree"
    );
    for &(name, n) in &[("tc-digraph-32", 32usize), ("tc-digraph-64", 64)] {
        let mut sys = tc_random_digraph(n, 6, 12);
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        let mut reverse = tc_random_digraph(n, 6, 12);
        let (rstatus, _) = run(
            &mut reverse,
            &EngineConfig::with_strategy(Strategy::Reverse),
        )
        .unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert_eq!(rstatus, RunStatus::Terminated);
        let agree = sys.canonical_key() == reverse.canonical_key();
        assert!(agree);
        // Every visit is an invocation of the paper's fair rewriting;
        // only the evaluated ones cost a snapshot.
        let visits = stats.invocations + stats.skipped;
        let ratio = visits as f64 / stats.invocations as f64;
        println!(
            "{name:>16} {visits:>8} {:>8} {:>9} {:>7} {:>8} {ratio:>6.1}x {agree:>7}",
            stats.invocations, stats.skipped, stats.cache_hits, stats.cache_misses
        );
        assert!(visits >= 5 * stats.invocations);
    }
    println!("(claim: ≥5x fewer evaluations than visits on tc-digraph-64, and the");
    println!(" fixpoint of the reverse visit order; soundness: monotone services");
    println!(" re-fed unchanged read sets produce only already-subsumed output, so");
    println!(" a skipped visit is a no-op invocation and Thm 2.1 confluence holds)");

    // Observability pass: re-run the engine on the large workload
    // with a journal + metrics attached, print the run report, and
    // export a Chrome trace (docs/observability.md walks through it).
    let journal = Journal::new();
    let metrics = MetricsRegistry::new();
    let fan = Fanout::new(vec![&journal, &metrics]);
    let mut traced = tc_random_digraph(64, 6, 12);
    let (status, _) = run_traced(&mut traced, &EngineConfig::default(), Tracer::new(&fan)).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    let events = journal.snapshot();
    print!("\n{}", metrics.render_report("x14 tc-digraph-64 (delta)"));
    let json = chrome_trace(&events);
    let n = validate_chrome_trace(&json).expect("chrome trace must validate");
    assert_eq!(n, events.len());
    let path = std::path::Path::new("target").join("x14_trace.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "chrome trace: {} events -> {} ({} KiB); open in chrome://tracing or ui.perfetto.dev",
            n,
            path.display(),
            json.len() / 1024
        ),
        Err(e) => println!("chrome trace: {n} events (not written: {e})"),
    }
}

/// X15 — provenance & explain layer: per-node lineage with zero cost
/// when disabled, derivation DAGs back to seed data, skip evidence, and
/// cross-peer origins.
fn x15() {
    header(
        "X15",
        "provenance — lineage to seed data, explainable skips, cross-peer origins",
    );

    // Overhead: the same run with the provenance handle disabled
    // vs. attached (the disabled side is the default everywhere else).
    println!(
        "{:>16} {:>12} {:>11} {:>9} {:>9} {:>9}",
        "workload", "provenance", "time(ms)", "invocs", "records", "stamped"
    );
    for &(name, n) in &[("tc-digraph-32", 32usize), ("tc-digraph-64", 64)] {
        let mut off = tc_random_digraph(n, 6, 12);
        let t0 = Instant::now();
        let (s_off, stats_off) = run(&mut off, &EngineConfig::default()).unwrap();
        let off_ms = ms(t0);
        assert_eq!(s_off, RunStatus::Terminated);
        println!(
            "{name:>16} {:>12} {off_ms:>11.2} {:>9} {:>9} {:>9}",
            "off", stats_off.invocations, "-", "-"
        );

        let mut on = tc_random_digraph(n, 6, 12);
        let store = ProvenanceStore::new();
        let t0 = Instant::now();
        let (s_on, stats_on) = run_with_provenance(
            &mut on,
            &EngineConfig::default(),
            Tracer::disabled(),
            Provenance::new(&store),
        )
        .unwrap();
        let on_ms = ms(t0);
        assert_eq!(s_on, RunStatus::Terminated);
        assert_eq!(stats_on.invocations, stats_off.invocations);
        assert_eq!(off.canonical_key(), on.canonical_key());
        println!(
            "{name:>16} {:>12} {on_ms:>11.2} {:>9} {:>9} {:>9}",
            "on",
            stats_on.invocations,
            store.invocation_count(),
            store.origin_count()
        );

        if n == 64 {
            // Explain the deepest path answer back to seed edges.
            let q = parse_query("path{$x,$y} :- d1/r{t{from{$x},to{$y}}}").unwrap();
            let d1 = axml_core::Sym::intern("d1");
            let tree = on.doc(d1).unwrap();
            let mut best_depth = 0usize;
            let mut best_nodes = 0usize;
            let mut seed_leaves = 0usize;
            for b in match_pattern(&q.body[0].pattern, tree) {
                let ex = store.explain_answer(&on, &q, &b);
                let depth = ex.lineage.invocation_depth();
                if depth > best_depth {
                    best_depth = depth;
                    best_nodes = ex.lineage.len();
                    seed_leaves = ex.lineage.seed_leaves().len();
                }
            }
            println!(
                "deepest path answer: {best_nodes} DAG nodes, invocation depth \
                 {best_depth}, {seed_leaves} seed leaves"
            );
            assert!(
                best_depth >= 2,
                "closure tuples must chain ≥2 invocations back to seed edges"
            );
            let skips = store.skips();
            assert_eq!(skips.len(), stats_on.skipped);
            if let Some(s) = skips.last() {
                println!("last skip: {s}");
            }
        }
    }

    // Cross-peer lineage on the star network: nodes the portal received
    // over p2p carry Remote origins naming the provider's invocation.
    let mut net = star_network(4, Mode::Pull, None);
    net.enable_provenance();
    assert!(net.run(64).unwrap());
    let page = axml_core::Sym::intern("page");
    let portal_store = net.provenance_store("portal").unwrap();
    let tree = net.peer("portal").unwrap().doc("page").unwrap();
    let mut remote = 0usize;
    let mut resolved = 0usize;
    for node in tree.iter_live(tree.root()) {
        if let Some(Origin::Remote {
            provider,
            service,
            seq,
            ..
        }) = portal_store.origin(page, node)
        {
            remote += 1;
            let rec = net
                .provenance_store(provider.as_str())
                .and_then(|s| s.invocation(seq))
                .expect("remote origin resolves in the provider's store");
            assert_eq!(rec.service, service);
            resolved += 1;
        }
    }
    println!(
        "star(4): portal holds {remote} remotely-derived nodes; all {resolved} \
         resolve to provider-side invocation records"
    );
    assert!(remote > 0 && remote == resolved);
    println!("(claim: provenance is attach-only — identical engine behavior, full");
    println!(" lineage from any derived node or answer back to extensional seeds)");
}

/// X16 — indexed pattern matching (bench `x16_indexed_match`): a
/// marking-index anchor replaces the descent through every item with
/// identical observable behavior.
fn x16() {
    use axml_core::matcher::{match_pattern_with, MatchStrategy};

    header(
        "X16",
        "indexed matching — an anchored descent beats the scan, same bindings (bench x16_indexed_match)",
    );

    // Matcher level: a single-label selection on a wide-fanout doc and
    // the spine pattern on a junk-padded deep chain, where no constant
    // is rare enough to anchor at, so both strategies do the same work;
    // and a category selection over an XMark-style site, which enters
    // at its rarest constant instead of descending through every item.
    println!(
        "{:>20} {:>10} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "workload", "matches", "scan(us)", "indexed(us)", "speedup", "scanned", "(by scan)"
    );
    let rows = [
        (
            "wide-fanout-1024",
            axml_bench::wide_fanout_doc(1024, 256),
            axml_bench::wide_fanout_pattern(256),
            300u32,
        ),
        (
            "wide-fanout-4096",
            axml_bench::wide_fanout_doc(4096, 256),
            axml_bench::wide_fanout_pattern(256),
            300,
        ),
        (
            "deep-chain-24",
            axml_bench::deep_chain_doc(24, 64),
            axml_bench::deep_chain_pattern(24),
            300,
        ),
        (
            "deep-chain-48",
            axml_bench::deep_chain_doc(48, 64),
            axml_bench::deep_chain_pattern(48),
            300,
        ),
        (
            "xmark-selective-20k",
            axml_bench::site_doc(2, 100, 100, 200),
            axml_bench::site_pattern(17),
            20,
        ),
    ];
    for (name, doc, pat, reps) in rows {
        doc.build_index();
        let t0 = Instant::now();
        let mut scan_n = 0usize;
        for _ in 0..reps {
            scan_n = match_pattern_with(&pat, &doc, MatchStrategy::Scan).0.len();
        }
        let scan_us = ms(t0) * 1e3 / f64::from(reps);
        let t0 = Instant::now();
        let mut ix_n = 0usize;
        for _ in 0..reps {
            ix_n = match_pattern_with(&pat, &doc, MatchStrategy::Indexed)
                .0
                .len();
        }
        let ix_us = ms(t0) * 1e3 / f64::from(reps);
        let (bindings, mstats) = match_pattern_with(&pat, &doc, MatchStrategy::Indexed);
        let (scanned, sstats) = match_pattern_with(&pat, &doc, MatchStrategy::Scan);
        assert_eq!(
            bindings, scanned,
            "strategies must enumerate identical bindings"
        );
        assert_eq!(scan_n, ix_n);
        assert_eq!(mstats.fallbacks, 0, "the built index serves every match");
        let speedup = scan_us / ix_us;
        if name == "xmark-selective-20k" {
            // The anchor "c017" sits at depth 5 in a bucket of 100, and
            // each answer's item has four children.
            let (answers, depth, bucket) = (bindings.len() as u64, 5u64, 100u64);
            assert_eq!(answers, 100);
            assert_eq!(mstats.probes, 1, "one anchor bucket read");
            assert!(
                mstats.scanned <= 10 * answers && mstats.scanned * 100 < sstats.scanned,
                "anchored selection examined {} candidates, the scan {}",
                mstats.scanned,
                sstats.scanned
            );
            assert!(mstats.parent_steps > 0 && mstats.parent_steps <= bucket * depth);
            assert!(
                speedup >= 10.0,
                "the anchored selection must be ≥10x faster than the scan (got {speedup:.1}x)"
            );
        } else {
            assert_eq!(
                (mstats.scanned, mstats.parent_steps),
                (sstats.scanned, 0),
                "{name}: no anchor, so the scan's work"
            );
        }
        println!(
            "{name:>20} {scan_n:>10} {scan_us:>12.1} {ix_us:>12.1} {speedup:>7.1}x {:>10} {:>10}",
            mstats.scanned, sstats.scanned
        );
    }

    // Observability: the closure workload's run with metrics
    // attached surfaces the index hit rate and maintenance counters in
    // the report.
    let journal = Journal::new();
    let metrics = MetricsRegistry::new();
    let fan = Fanout::new(vec![&journal, &metrics]);
    let mut traced = tc_random_digraph(64, 6, 12);
    let (status, _) = run_traced(&mut traced, &EngineConfig::default(), Tracer::new(&fan)).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    print!(
        "\n{}",
        metrics.render_report("x16 tc-digraph-64 (delta, indexed)")
    );
    println!("(claim: a rooted match enters at its rarest constant's bucket in the");
    println!(" incremental marking index; selectivity-ordered joins expand the");
    println!(" rarest conjunct first; observable behavior is identical to scans)");
}

/// X18 — compiled match programs (bench `x18_compiled_match`): cached
/// per-service compilation beats the recursive interpreter with
/// identical observable behavior.
fn x18() {
    use axml_core::compile::ProgramCache;
    use axml_core::eval::{snapshot_compiled, snapshot_with_strategy};
    use axml_core::matcher::MatchStrategy;
    use axml_core::pathexpr::CompiledRegQuery;
    use axml_core::Sym;

    header(
        "X18",
        "compiled matching — cached match programs beat the interpreter, same bindings (bench x18_compiled_match)",
    );

    // Matcher phase: each service's conjunctive pattern repeatedly
    // evaluated against its fixpoint documents — the decorrelated
    // program computes every child relation once per level while the
    // interpreter re-derives it per parent binding. The wide-fanout
    // probe is the cheap-pattern control: single-binding patterns gain
    // nothing and must only pay a negligible constant.
    println!(
        "{:>20} {:>8} {:>12} {:>13} {:>8}",
        "workload", "answers", "interp(ms)", "compiled(ms)", "speedup"
    );
    let mut best_tc_speedup = 0.0f64;
    for &(name, n) in &[("tc-digraph-32", 32usize), ("tc-digraph-48", 48)] {
        let mut sys = tc_random_digraph(n, 4, 12);
        let (status, _) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        let svc = Sym::intern("f");
        let q = sys.service_query(svc).unwrap();
        let mut env = Env::new();
        for &d in sys.doc_names() {
            env.insert(d, sys.doc(d).unwrap());
        }
        let reps = 20u32;
        let t0 = Instant::now();
        let mut interp_len = 0usize;
        for _ in 0..reps {
            interp_len = snapshot_with_strategy(q, &env, MatchStrategy::Indexed)
                .unwrap()
                .0
                .len();
        }
        let interp_ms = ms(t0) / f64::from(reps);
        let mut programs = ProgramCache::new();
        let (warm, _) =
            snapshot_compiled(q, &env, svc, &mut programs, MatchStrategy::Indexed).unwrap();
        let t0 = Instant::now();
        let mut comp_len = 0usize;
        for _ in 0..reps {
            comp_len = snapshot_compiled(q, &env, svc, &mut programs, MatchStrategy::Indexed)
                .unwrap()
                .0
                .len();
        }
        let comp_ms = ms(t0) / f64::from(reps);
        assert_eq!(
            interp_len, comp_len,
            "paths must produce identical answer sets"
        );
        assert_eq!(warm.len(), interp_len);
        let speedup = interp_ms / comp_ms;
        best_tc_speedup = best_tc_speedup.max(speedup);
        println!("{name:>20} {comp_len:>8} {interp_ms:>12.2} {comp_ms:>13.2} {speedup:>7.2}x");

        if n == 32 {
            // First-round cost: a *fresh* cache must compile and still
            // answer within 5% of the warmed program (the compile is
            // microseconds against a millisecond-scale match). Compare
            // best-of-reps on both sides: the compile is deterministic
            // work charged to every cold iteration, so the minimum
            // keeps it while shedding scheduler noise (this box has
            // one CPU).
            let mut warm_ms = f64::INFINITY;
            let mut cold_ms = f64::INFINITY;
            for _ in 0..100 {
                let t0 = Instant::now();
                snapshot_compiled(q, &env, svc, &mut programs, MatchStrategy::Indexed).unwrap();
                warm_ms = warm_ms.min(ms(t0));
                let mut fresh = ProgramCache::new();
                let t0 = Instant::now();
                snapshot_compiled(q, &env, svc, &mut fresh, MatchStrategy::Indexed).unwrap();
                cold_ms = cold_ms.min(ms(t0));
            }
            let overhead = cold_ms / warm_ms - 1.0;
            println!(
                "{:>20} first round (compile + run): {cold_ms:.2} ms — {:+.1}% vs warm",
                "",
                overhead * 100.0
            );
            assert!(
                overhead <= 0.05,
                "first-round compile+cache overhead must stay ≤5% (got {:+.1}%)",
                overhead * 100.0
            );
        }
    }
    // Calibrated under the flat-arena Tree at ≥2x; the copy-on-write
    // chunked arena (docs/mvcc.md) adds a two-pointer indirection to
    // every node read, which the access-bound compiled executor pays
    // more heavily than the hash-dominated interpreter — measured best
    // is now ~1.9-2.4x on this workload. The bound guards the
    // algorithmic win (compute each child relation once per level),
    // not the old constant factor.
    assert!(
        best_tc_speedup >= 1.5,
        "the compiled closure join must clearly beat the interpreter (got {best_tc_speedup:.2}x)"
    );
    {
        let labels = 256usize;
        let doc = axml_bench::wide_fanout_doc(4096, labels);
        doc.build_index();
        let pat = axml_bench::wide_fanout_pattern(labels);
        let q = parse_query(&format!("hit{{$x}} :- d/root{{l{}{{$x}}}}", labels - 1)).unwrap();
        let compiled = axml_core::compile::compile_query(&q, MatchStrategy::Indexed);
        let reps = 2000u32;
        let t0 = Instant::now();
        let mut interp_len = 0usize;
        for _ in 0..reps {
            interp_len = axml_core::matcher::match_pattern_with(&pat, &doc, MatchStrategy::Indexed)
                .0
                .len();
        }
        let interp_ms = ms(t0);
        let t0 = Instant::now();
        let mut comp_len = 0usize;
        for _ in 0..reps {
            comp_len = compiled.run_atom(0, &doc).0.len();
        }
        let comp_ms = ms(t0);
        assert_eq!(interp_len, comp_len);
        println!(
            "{:>20} {comp_len:>8} {:>12.4} {:>13.4} {:>7.2}x  (control: constant-cost floor)",
            "wide-fanout-4096",
            interp_ms / f64::from(reps),
            comp_ms / f64::from(reps),
            interp_ms / comp_ms
        );
    }

    // Regular paths: the X10 catalog walk with prebuilt NFAs (the
    // per-service memo behind ProgramCache::reg) vs rebuilding the
    // automata on every call.
    let mut sys = System::new();
    sys.add_document_text("d", &catalog(2, 2)).unwrap();
    let rq = parse_reg_query("t{$x} :- d/lib{<_*.cd>{title{$x}}}").unwrap();
    let compiled_rq = CompiledRegQuery::new(rq.clone());
    let mut env = Env::new();
    env.insert(Sym::intern("d"), sys.doc(Sym::intern("d")).unwrap());
    let reps = 200u32;
    let t0 = Instant::now();
    let mut a = 0usize;
    for _ in 0..reps {
        a = snapshot_reg(&rq, &env).unwrap().len();
    }
    let percall_ms = ms(t0);
    let t0 = Instant::now();
    let mut b = 0usize;
    for _ in 0..reps {
        b = compiled_rq.snapshot(&env).unwrap().len();
    }
    let prebuilt_ms = ms(t0);
    assert_eq!(a, b, "prebuilt NFAs must answer identically");
    println!(
        "\nreg-path catalog(2,2): per-call NFA {:.3} ms, prebuilt {:.3} ms ({:.2}x, {} NFA(s) hoisted)",
        percall_ms / f64::from(reps),
        prebuilt_ms / f64::from(reps),
        percall_ms / prebuilt_ms,
        compiled_rq.nfa_count()
    );

    // Observability: the compiled run's metrics report carries the
    // compile line (programs, ops, hit rate, compile time).
    let journal = Journal::new();
    let metrics = MetricsRegistry::new();
    let fan = Fanout::new(vec![&journal, &metrics]);
    let mut traced = tc_random_digraph(64, 6, 12);
    let (status, _) = run_traced(&mut traced, &EngineConfig::default(), Tracer::new(&fan)).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    let report = metrics.render_report("x18 tc-digraph-64 (delta, compiled)");
    assert!(
        report.contains("compile:"),
        "metrics report must show the compile line"
    );
    print!("\n{report}");
    println!("(claim: each service's positive pattern lowers once per run into a");
    println!(" match program — dead/duplicate conjuncts eliminated, children joined");
    println!(" rarest candidate set first at run time, as the interpreter does —");
    println!(" cached per service; bindings and fixpoints are bit-for-bit the");
    println!(" interpreter's)");
}

/// X19 — serving: wire-protocol request latency under batching.
fn x19() {
    use axml_server::load::{run as load_run, LoadConfig};
    use axml_server::{Server, ServerConfig};

    header(
        "X19",
        "serving — request latency vs batch width over the wire protocol (axml-server + axml-load)",
    );

    // Closed-loop load against an in-process server on an ephemeral
    // port: each connection opens its own session, streams a
    // transitive-closure subscription to fixpoint, then issues
    // point-lookup queries — latency is the client-observed frame
    // round trip, so wider batches amortize framing and session-lock
    // acquisition across more queries per frame.
    println!(
        "{:>6} {:>9} {:>8} {:>10} {:>9} {:>9} {:>9} {:>11}",
        "batch", "requests", "frames", "thrpt/s", "p50(us)", "p99(us)", "max(us)", "trees"
    );
    let mut last_report = String::new();
    let mut last_trace = String::new();
    let mut last_json = String::new();
    for &batch in &[1usize, 4, 16] {
        let mut handle = Server::spawn("127.0.0.1:0", ServerConfig::default())
            .expect("ephemeral listen address is bindable");
        let cfg = LoadConfig {
            addr: handle.addr().to_string(),
            conns: 2,
            requests: 128,
            batch,
            subscribe: true,
            shutdown: true,
            ..LoadConfig::default()
        };
        let rep = load_run(&cfg).expect("the load loop completes against a live server");
        handle.join();
        last_json = rep.to_json(&cfg);
        assert_eq!(rep.errors, 0, "no error frames under a clean load");
        assert_eq!(
            rep.answer_trees, rep.requests,
            "every point lookup hits exactly one pair"
        );
        assert!(
            rep.deltas >= 2,
            "the tc subscription streams multiple deltas"
        );
        let frames = rep.latency.count();
        println!(
            "{batch:>6} {:>9} {frames:>8} {:>10.0} {:>9} {:>9} {:>9} {:>11}",
            rep.requests,
            rep.throughput(),
            rep.latency.quantile(0.50) / 1_000,
            rep.latency.quantile(0.99) / 1_000,
            rep.latency.max() / 1_000,
            rep.answer_trees,
        );
        last_report = handle.report(&format!("x19 serving (conns=2, batch={batch})"));
        last_trace = handle.sink().chrome_trace();
    }
    assert!(
        last_report.contains("server:"),
        "metrics report must show the server block"
    );
    let n = validate_chrome_trace(&last_trace)
        .expect("the server journal exports a valid Chrome trace");
    assert!(
        last_trace.contains("\"name\":\"server\""),
        "the trace must name the dedicated server lane"
    );
    print!("\n{last_report}");
    println!("(chrome trace: {n} events, server lane validated)");
    // The machine-readable trajectory artifact (`axml-load --json`
    // writes the same shape): widest-batch run, one JSON object.
    let json_path = "target/x19_load.json";
    match std::fs::write(json_path, format!("{last_json}\n")) {
        Ok(()) => println!("(load summary: {json_path})"),
        Err(e) => println!("(load summary not written: {json_path}: {e})"),
    }
    println!("(claim: the engine serves concurrent sessions over a versioned JSON");
    println!(" protocol — batched queries answer bit-for-bit like direct evaluation,");
    println!(" subscriptions stream the fixpoint delta-by-delta, and wider batches");
    println!(" trade per-query latency for fewer round trips; see docs/protocol.md)");
}

/// X20 — MVCC: O(1) snapshots, path-copy overhead, reads during commits.
fn x20() {
    use axml_server::load::{run as load_run, LoadConfig};
    use axml_server::{Server, ServerConfig};
    use std::hint::black_box;

    header(
        "X20",
        "MVCC — copy-on-write snapshots are O(1); reads are served while rounds commit",
    );

    // Snapshot cost vs document size. The COW clone and the system
    // snapshot must stay flat as the document grows; the deep copy
    // (what `Tree: Clone` cost before the chunked-arena
    // representation) is the linear baseline.
    let sizes = [1_000usize, 4_000, 16_000, 64_000];
    let mut clone_ns = Vec::new();
    let mut snap_ns = Vec::new();
    let mut deep_ns = Vec::new();
    println!(
        "{:>8} {:>14} {:>17} {:>14} {:>9}",
        "nodes", "clone(ns/op)", "snapshot(ns/op)", "deep(ns/op)", "deep/clone"
    );
    for &n in &sizes {
        let t = random_tree(n, 8, 8, 0.0, 7);
        let mut sys = System::new();
        sys.add_document("d", t.clone()).unwrap();

        const K: u32 = 10_000;
        let t0 = Instant::now();
        for _ in 0..K {
            black_box(t.clone().version());
        }
        let c = t0.elapsed().as_nanos() as f64 / K as f64;

        let t1 = Instant::now();
        for _ in 0..K {
            black_box(sys.snapshot().version());
        }
        let s = t1.elapsed().as_nanos() as f64 / K as f64;

        let reps = (1_000_000 / n).max(4) as u32;
        let t2 = Instant::now();
        for _ in 0..reps {
            black_box(t.subtree(t.root()).node_count());
        }
        let d = t2.elapsed().as_nanos() as f64 / reps as f64;

        println!("{n:>8} {c:>14.1} {s:>17.1} {d:>14.0} {:>9.0}", d / c);
        clone_ns.push(c);
        snap_ns.push(s);
        deep_ns.push(d);
    }
    // Flatness: a 64x larger document must not make the O(1) paths
    // meaningfully slower (generous noise margin), while the deep
    // copy grows with the document and dwarfs the clone at the top.
    assert!(
        clone_ns[3] < clone_ns[0] * 20.0 + 100.0,
        "Tree::clone must be size-independent: {:?}",
        clone_ns
    );
    assert!(
        snap_ns[3] < snap_ns[0] * 20.0 + 100.0,
        "System::snapshot must be size-independent: {:?}",
        snap_ns
    );
    assert!(
        deep_ns[3] > deep_ns[0] * 4.0,
        "the deep-copy baseline should scale with node count: {:?}",
        deep_ns
    );
    assert!(
        deep_ns[3] > clone_ns[3] * 10.0,
        "at 64k nodes the COW clone must beat the deep copy by 10x+"
    );

    // Graft overhead: the price the write path pays for the read
    // path. Exclusive owner grafts in place; a writer that shares
    // chunks with a live snapshot path-copies one <=64-node chunk on
    // first divergence, amortized across the 64-graft batch.
    let base = random_tree(8_192, 8, 8, 0.0, 13);
    let m = Marking::label("x");
    let mut owned = base.subtree(base.root());
    let root = owned.root();
    const GK: u32 = 20_000;
    let t0 = Instant::now();
    for _ in 0..GK {
        owned.add_child(root, m).unwrap();
    }
    let excl = t0.elapsed().as_nanos() as f64 / GK as f64;
    const REPS: u32 = 300;
    const BATCH: u32 = 64;
    let t1 = Instant::now();
    for _ in 0..REPS {
        let mut w = base.clone();
        let root = w.root();
        for _ in 0..BATCH {
            w.add_child(root, m).unwrap();
        }
        black_box(w.mutation_count());
    }
    let cow = t1.elapsed().as_nanos() as f64 / (REPS * BATCH) as f64;
    println!(
        "\ngraft: exclusive {excl:.0} ns/op   under-live-snapshot {cow:.0} ns/op \
         (64-graft batches, path-copy amortized; x{:.1})",
        cow / excl.max(1.0)
    );

    // Reads served while rounds commit: the axml-load mixed phase
    // races closed-loop readers against a writer driving back-to-back
    // fixpoints on the same session. On the MVCC server every reader
    // frame answers from the published snapshot without touching the
    // writer lock — zero errors, and reader latency stays bounded
    // however many rounds the writer commits.
    let mut handle = Server::spawn("127.0.0.1:0", ServerConfig::default())
        .expect("ephemeral listen address is bindable");
    let cfg = LoadConfig {
        addr: handle.addr().to_string(),
        conns: 1,
        requests: 64,
        readers: 2,
        shutdown: true,
        ..LoadConfig::default()
    };
    let rep = load_run(&cfg).expect("the mixed load completes against a live server");
    handle.join();
    assert_eq!(rep.errors, 0, "no error frames while reads race commits");
    assert!(
        rep.writer_runs >= 1,
        "the writer committed at least one fixpoint"
    );
    assert_eq!(
        rep.reader_requests,
        cfg.readers * cfg.requests,
        "every reader frame was answered mid-commit"
    );
    println!(
        "read-while-commit: {} reader frames at {:.0} req/s (p50 {} us, p99 {} us) \
         across {} writer fixpoints, 0 errors",
        rep.reader_requests,
        rep.reader_throughput(),
        rep.reader_latency.quantile(0.50) / 1_000,
        rep.reader_latency.quantile(0.99) / 1_000,
        rep.writer_runs
    );

    // The machine-readable trajectory artifact.
    let json = format!(
        concat!(
            "{{\"experiment\":\"x20\",\"sizes\":[{},{},{},{}],",
            "\"clone_ns\":[{:.1},{:.1},{:.1},{:.1}],",
            "\"system_snapshot_ns\":[{:.1},{:.1},{:.1},{:.1}],",
            "\"deep_copy_ns\":[{:.0},{:.0},{:.0},{:.0}],",
            "\"graft_exclusive_ns\":{:.0},\"graft_under_snapshot_ns\":{:.0},",
            "\"reader_requests\":{},\"reader_rps\":{:.0},",
            "\"reader_p50_ns\":{},\"reader_p99_ns\":{},\"writer_runs\":{}}}\n"
        ),
        sizes[0],
        sizes[1],
        sizes[2],
        sizes[3],
        clone_ns[0],
        clone_ns[1],
        clone_ns[2],
        clone_ns[3],
        snap_ns[0],
        snap_ns[1],
        snap_ns[2],
        snap_ns[3],
        deep_ns[0],
        deep_ns[1],
        deep_ns[2],
        deep_ns[3],
        excl,
        cow,
        rep.reader_requests,
        rep.reader_throughput(),
        rep.reader_latency.quantile(0.50),
        rep.reader_latency.quantile(0.99),
        rep.writer_runs,
    );
    let json_path = "BENCH_x20.json";
    match std::fs::write(json_path, json) {
        Ok(()) => println!("(snapshot summary: {json_path})"),
        Err(e) => println!("(snapshot summary not written: {json_path}: {e})"),
    }
    println!("(claim: Thm 2.1's fixpoint is defined over immutable states, and the");
    println!(" engine now takes them for free — O(1) chunk-shared snapshots instead");
    println!(" of deep copies — so the server's critical section shrinks to commit");
    println!(" and queries never wait for a running round; see docs/mvcc.md)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |id: &str| all || args.iter().any(|a| a.eq_ignore_ascii_case(id));
    let t0 = Instant::now();
    if want("x1") {
        x1();
    }
    if want("x2") {
        x2();
    }
    if want("x3") {
        x3();
    }
    if want("x4") {
        x4();
    }
    if want("x5") {
        x5();
    }
    if want("x6") {
        x6();
    }
    if want("x7") {
        x7();
    }
    if want("x8") {
        x8();
    }
    if want("x9") {
        x9();
    }
    if want("x10") {
        x10();
    }
    if want("x11") {
        x11();
    }
    if want("x12") {
        x12();
    }
    if want("x13") {
        x13();
    }
    if want("x14") {
        x14();
    }
    if want("x15") {
        x15();
    }
    if want("x16") {
        x16();
    }
    if want("x18") {
        x18();
    }
    if want("x19") {
        x19();
    }
    if want("x20") {
        x20();
    }
    println!(
        "\nall requested experiments completed in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
