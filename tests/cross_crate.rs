//! Cross-crate integration: datalog↔AXML, TM↔AXML, ψ translation on
//! generated workloads, and the substrates agreeing with the core.

use positive_axml::core::engine::{run, EngineConfig, RunStatus};
use positive_axml::core::eval::{snapshot, Env};
use positive_axml::core::forest::Forest;
use positive_axml::core::pathexpr::{parse_reg_query, snapshot_reg};
use positive_axml::core::translate::{strip_annotations, translate};
use positive_axml::core::System;
use positive_axml::datalog::engine::db_size;
use positive_axml::datalog::workload::{chain_tc, cycle_tc, random_tc, same_generation};
use positive_axml::datalog::{axml_eval, seminaive_eval};
use positive_axml::tm::encode::{encode_tm, run_axml_tm, AxmlTmOutcome};
use positive_axml::tm::machine::{run as tm_run, Outcome};
use positive_axml::tm::samples;
use positive_axml::tm::Tm;

#[test]
fn datalog_simulation_agrees_on_generated_workloads() {
    let programs = vec![
        ("chain-6", chain_tc(6)),
        ("chain-12", chain_tc(12)),
        ("cycle-5", cycle_tc(5)),
        ("random-10-15", random_tc(10, 15, 42)),
        ("sg-3", same_generation(3)),
    ];
    for (name, prog) in programs {
        let (dl, _) = seminaive_eval(&prog);
        let (ax, _) = axml_eval(&prog).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(dl, ax, "datalog/AXML mismatch on {name}");
        assert!(db_size(&dl) > 0, "{name} derived nothing");
    }
}

#[test]
fn turing_simulation_agrees_on_sample_suite() {
    let suite: Vec<(&str, Tm, Vec<Vec<&str>>)> = vec![
        (
            "parity",
            samples::even_parity(),
            vec![vec![], vec!["one"; 3], vec!["one"; 4]],
        ),
        (
            "anbn",
            samples::anbn(),
            vec![vec!["a", "b"], vec!["a", "a", "b", "b"], vec!["b"]],
        ),
        (
            "inc",
            samples::binary_increment(),
            vec![vec!["zero"], vec!["one", "one", "one"]],
        ),
    ];
    for (name, tm, inputs) in suite {
        for input in inputs {
            let (native, _) = tm_run(&tm, &input, 20_000);
            let (axml, _) = run_axml_tm(&tm, &input, 100_000).unwrap();
            match (&native, &axml) {
                (Outcome::Accept(a), AxmlTmOutcome::Accept(b)) => {
                    assert_eq!(a, b, "{name} tape mismatch on {input:?}")
                }
                (Outcome::Reject, AxmlTmOutcome::Reject) => {}
                other => panic!("{name} on {input:?}: {other:?}"),
            }
        }
    }
}

/// One machine encodes to the same services, in the same order, every
/// time, so its simulation makes the same call visits: the encoding
/// must not follow a hash map's per-instance iteration order.
#[test]
fn turing_encoding_is_deterministic() {
    encodes_and_runs_alike("parity", samples::even_parity, &["one"; 4]);
    encodes_and_runs_alike("anbn", samples::anbn, &["a", "a", "b", "b"]);
}

/// Encode and run five copies of one machine: the service text, the
/// outcome and the simulation statistics must agree.
fn encodes_and_runs_alike(name: &str, make: fn() -> Tm, input: &[&str]) {
    let render = |tm: &Tm| -> Vec<String> {
        let sys = encode_tm(tm, input).unwrap();
        sys.service_names()
            .iter()
            .map(|&s| format!("{s}: {}", sys.service_query(s).unwrap()))
            .collect()
    };
    let first = make();
    let text = render(&first);
    let (outcome, stats) = run_axml_tm(&first, input, 100_000).unwrap();
    for _ in 0..4 {
        let tm = make();
        assert_eq!(render(&tm), text, "{name}: service text differs");
        let (o, s) = run_axml_tm(&tm, input, 100_000).unwrap();
        assert_eq!(o, outcome, "{name}: outcome differs");
        assert_eq!(
            (s.invocations, s.configs, s.nodes),
            (stats.invocations, stats.configs, stats.nodes),
            "{name}: simulation statistics differ"
        );
    }
}

/// ψ translation checked on a family of path expressions over a deeper
/// generated hierarchy, with and without run-time data growth.
#[test]
fn psi_translation_on_generated_hierarchies() {
    // A 3-level catalog with mixed labels.
    fn catalog(width: usize) -> String {
        let mut s = String::from("lib{");
        for i in 0..width {
            s.push_str(&format!(
                "shelf{{box{{cd{{title{{\"s{i}\"}}}}}}, cd{{title{{\"d{i}\"}}}}}},"
            ));
        }
        s.push_str("misc{dvd{title{\"m\"}}}}");
        s
    }
    let queries = [
        "t{$x} :- d/lib{<_*.cd>{title{$x}}}",
        "t{$x} :- d/lib{<shelf.box.cd>{title{$x}}}",
        "t{$x} :- d/lib{<shelf.(box|cd)>{title{$x}}}",
        "t{$x} :- d/lib{<(shelf|misc)._*>{title{$x}}}",
        "hit :- d/lib{<shelf.box>{cd}}",
    ];
    for width in [1usize, 3] {
        let mut sys = System::new();
        sys.add_document_text("d", &catalog(width)).unwrap();
        for qtext in queries {
            let q = parse_reg_query(qtext).unwrap();
            // Direct.
            let mut env = Env::new();
            env.insert("d".into(), sys.doc("d".into()).unwrap());
            let direct = snapshot_reg(&q, &env).unwrap().reduce();
            // Via ψ.
            let tr = translate(&sys, &q).unwrap();
            let mut tsys = tr.system;
            let (status, _) = run(&mut tsys, &EngineConfig::default()).unwrap();
            assert_eq!(status, RunStatus::Terminated);
            let mut tenv = Env::new();
            for &dn in tsys.doc_names() {
                tenv.insert(dn, tsys.doc(dn).unwrap());
            }
            let raw = snapshot(&tr.query, &tenv).unwrap();
            let stripped: Forest = raw.trees().iter().map(strip_annotations).collect();
            assert!(
                direct.equivalent(&stripped.reduce()),
                "ψ mismatch: width={width}, query={qtext}"
            );
        }
    }
}

/// The datalog-generated AXML systems are exactly the simple positive
/// systems Theorem 3.3 handles: the verdict must be Terminates, and the
/// graph representation must carry every derived tuple.
#[test]
fn datalog_systems_feed_the_graph_representation() {
    use positive_axml::core::graphrepr::{decide_termination, GraphRepr, Termination};
    let prog = chain_tc(5);
    let sys = positive_axml::datalog::datalog_to_axml(&prog).unwrap();
    assert_eq!(decide_termination(&sys).unwrap(), Termination::Terminates);
    let repr = GraphRepr::build(&sys).unwrap();
    let root = repr.roots[&"db".into()];
    let unfolded = repr.graph.unfold_exact(root).unwrap();
    // 5+4+…+1 = 15 path tuples + 5 edge tuples.
    let tuples = unfolded
        .children(unfolded.root())
        .iter()
        .filter(|&&n| {
            matches!(
                unfolded.marking(n),
                positive_axml::core::Marking::Label(l) if l.as_str() == "path" || l.as_str() == "edge"
            )
        })
        .count();
    assert_eq!(tuples, 20);
}

/// Full pipeline: a datalog-derived relation queried lazily through a
/// positive+reg query.
#[test]
fn datalog_then_path_query() {
    let prog = chain_tc(4);
    let mut sys = positive_axml::datalog::datalog_to_axml(&prog).unwrap();
    run(&mut sys, &EngineConfig::default()).unwrap();
    let q = parse_reg_query(r#"reach{$y} :- db/r{<path>{a0{"0"}, a1{$y}}}"#).unwrap();
    let mut env = Env::new();
    env.insert("db".into(), sys.doc("db".into()).unwrap());
    let res = snapshot_reg(&q, &env).unwrap();
    assert_eq!(res.len(), 4); // 0 reaches 1, 2, 3, 4
}
