//! End-to-end reproductions of every worked example in the paper.

use positive_axml::core::engine::{run, EngineConfig, RunStatus, Strategy};
use positive_axml::core::eval::{snapshot, Env};
use positive_axml::core::graphrepr::{decide_termination, GraphRepr, Termination};
use positive_axml::core::query::parse_query;
use positive_axml::core::{equivalent, parse_tree, System};

/// §2.1: the jazz directory with GetRating; invocation appends the
/// rating as a sibling of the call.
#[test]
fn section_2_1_get_rating() {
    let mut sys = System::new();
    sys.add_document_text(
        "dir",
        r#"directory{
            cd{title{"L'amour"}, singer{"Carla Bruni"}, rating{"***"}},
            cd{title{"Body and Soul"}, singer{"Billie Holiday"},
               @GetRating{"Body and Soul"}},
            cd{title{"Where or When"}, singer{"Peggy Lee"}, rating{"*****"}}
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
    let (d, n) = sys.function_nodes()[0];
    positive_axml::core::invoke_node(&mut sys, d, n).unwrap();
    let expected = parse_tree(
        r#"directory{
            cd{title{"L'amour"}, singer{"Carla Bruni"}, rating{"***"}},
            cd{title{"Body and Soul"}, singer{"Billie Holiday"},
               @GetRating{"Body and Soul"}, rating{"****"}},
            cd{title{"Where or When"}, singer{"Peggy Lee"}, rating{"*****"}}
        }"#,
    )
    .unwrap();
    assert!(equivalent(sys.doc("dir".into()).unwrap(), &expected));
}

/// Example 2.1: d/a{f} with f returning a{f} — the displayed rewriting
/// prefix, non-termination, and the graph diagnosis.
#[test]
fn example_2_1_full_story() {
    let build = || {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        sys
    };
    // Bounded engine run never terminates.
    let mut sys = build();
    let (status, _) = run(&mut sys, &EngineConfig::with_budget(100)).unwrap();
    assert_eq!(status, RunStatus::InvocationBudget);
    // Theorem 3.3's procedure diagnoses divergence on the simple system.
    assert!(matches!(
        decide_termination(&build()).unwrap(),
        Termination::Diverges { .. }
    ));
    // The engine's bounded state embeds into the graph representation's
    // truncated unfolding (they describe the same limit).
    let repr = GraphRepr::build(&build()).unwrap();
    let droot = repr.roots[&"d".into()];
    let prefix = repr.graph.unfold_truncated(droot, 64);
    assert!(positive_axml::core::subsumed(
        sys.doc("d".into()).unwrap(),
        &prefix
    ));
}

/// Example 3.1: both the label-variable and the tree-variable query.
#[test]
fn example_3_1_queries() {
    let d = parse_tree(
        r#"r{t{a{"1"},b{c{"2"},d{"3"}}},
            t{a{"1"},b{c{"3"},e{"3"}}},
            t{a{"2"},b{c{"2"},k{"6"}}}}"#,
    )
    .unwrap();
    let dp = parse_tree(r#"a{"1"}"#).unwrap();
    let mut env = Env::new();
    env.insert("d".into(), &d);
    env.insert("dp".into(), &dp);

    let simple = parse_query("?z :- dp/a{$x}, d/r{t{a{$x},b{?z}}}").unwrap();
    let mut labels: Vec<String> = snapshot(&simple, &env)
        .unwrap()
        .trees()
        .iter()
        .map(ToString::to_string)
        .collect();
    labels.sort();
    assert_eq!(labels, ["c", "d", "e"]);

    let treeq = parse_query("#Z :- dp/a{$x}, d/r{t{a{$x},b{#Z}}}").unwrap();
    let mut trees: Vec<String> = snapshot(&treeq, &env)
        .unwrap()
        .trees()
        .iter()
        .map(ToString::to_string)
        .collect();
    trees.sort();
    assert_eq!(trees, [r#"c{"2"}"#, r#"c{"3"}"#, r#"d{"3"}"#, r#"e{"3"}"#]);
}

/// Example 3.2: the transitive closure converges, under every strategy,
/// to the same fixpoint, and the Theorem 3.3 verdict is Terminates.
#[test]
fn example_3_2_closure_confluent() {
    let build = || {
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
    };
    assert_eq!(
        decide_termination(&build()).unwrap(),
        Termination::Terminates
    );
    let mut reference = build();
    run(&mut reference, &EngineConfig::default()).unwrap();
    for s in [
        Strategy::Reverse,
        Strategy::Random(11),
        Strategy::Random(99),
    ] {
        let mut sys = build();
        run(&mut sys, &EngineConfig::with_strategy(s)).unwrap();
        assert!(sys.equivalent_to(&reference));
    }
}

/// §2.2: θ(input) and θ(context) are documents a service *may* read. An
/// invocation builds each only when the service can read it, and the
/// fixpoint does not depend on that: four calls — one reading only
/// `input`, one reading only `context` at a non-root call site, one
/// reading neither, and a black box reading both — reach the same
/// written-out fixpoint in either visit order.
#[test]
fn reserved_documents_built_only_when_read() {
    use positive_axml::core::engine::Strategy;
    use positive_axml::core::service::BlackBoxService;
    use positive_axml::core::system::{context_sym, input_sym};
    use positive_axml::core::tree::{Marking, Tree};
    use positive_axml::core::{Forest, Sym};

    let build = || {
        let mut sys = System::new();
        sys.add_document_text(
            "d",
            r#"site{cfg{"k"}, @inp{"p1"}, sec{name{"s"}, @ctx}, @plain, box{@bb{"q"}}}"#,
        )
        .unwrap();
        sys.add_service_text("inp", "out{$x} :- input/input{$x}")
            .unwrap();
        sys.add_service_text("ctx", "ctxout{$n} :- context/sec{name{$n}}")
            .unwrap();
        sys.add_service_text("plain", "plainout{$v} :- d/site{cfg{$v}}")
            .unwrap();
        // got{p{<the call's parameters>}, c{<the context's root>}}.
        let bb = BlackBoxService::new("reads input and context", |env| {
            let input = env.get(input_sym()).expect("a black box sees input");
            let context = env.get(context_sym()).expect("a black box sees context");
            let mut got = Tree::with_label("got");
            let root = got.root();
            let p = got.add_child(root, Marking::label("p"))?;
            input.copy_children_into(input.root(), &mut got, p);
            let c = got.add_child(root, Marking::label("c"))?;
            got.add_child(c, context.marking(context.root()))?;
            Ok(Forest::from_trees(vec![got]))
        });
        sys.add_black_box("bb", bb).unwrap();
        sys
    };
    let expected = parse_tree(
        r#"site{cfg{"k"},
                @inp{"p1"}, out{"p1"},
                sec{name{"s"}, @ctx, ctxout{"s"}},
                @plain, plainout{"k"},
                box{@bb{"q"}, got{p{"q"}, c{box}}}}"#,
    )
    .unwrap();
    let d = Sym::intern("d");
    let mut fixpoints = Vec::new();
    for strategy in [Strategy::RoundRobin, Strategy::Reverse] {
        let mut sys = build();
        let (status, _) = run(&mut sys, &EngineConfig::with_strategy(strategy)).unwrap();
        assert_eq!(status, RunStatus::Terminated, "{strategy:?}");
        let doc = sys.doc(d).unwrap();
        assert!(equivalent(doc, &expected), "{strategy:?}: {doc}");
        fixpoints.push(sys);
    }
    assert!(fixpoints[0].equivalent_to(&fixpoints[1]));
}

/// Example 3.3: d'/a{a{b},g} with the tree-variable service grows a
/// non-regular family a^i{b}; the displayed prefix is reproduced.
#[test]
fn example_3_3_displayed_rewriting() {
    let mut sys = System::new();
    sys.add_document_text("d", "a{a{b},@g}").unwrap();
    sys.add_service_text("g", "a{a{#X}} :- context/a{a{#X}}")
        .unwrap();
    let (d, n) = sys.function_nodes()[0];
    let expect = [
        "a{a{b}, a{a{b}}, @g}",
        "a{a{b}, a{a{b}}, a{a{a{b}}}, @g}",
        "a{a{b}, a{a{b}}, a{a{a{b}}}, a{a{a{a{b}}}}, @g}",
    ];
    for e in expect {
        positive_axml::core::invoke_node(&mut sys, d, n).unwrap();
        assert!(
            equivalent(sys.doc("d".into()).unwrap(), &parse_tree(e).unwrap()),
            "expected {e}, got {}",
            sys.doc("d".into()).unwrap()
        );
    }
    // Non-simple: the graph representation rightfully refuses.
    assert!(GraphRepr::build(&sys).is_err());
}

/// §5's nesting example: the given simple system nests the relation on
/// its a-column.
#[test]
fn section_5_nesting() {
    let mut sys = System::new();
    sys.add_document_text(
        "d",
        r#"r{t{a{"1"}, b{"2"}}, t{a{"1"}, b{"3"}}, t{a{"2"}, b{"2"}}}"#,
    )
    .unwrap();
    sys.add_document_text("dn", "r{@f}").unwrap();
    sys.add_service_text("f", "t{a{$x}, @g} :- d/r{t{a{$x}}}")
        .unwrap();
    sys.add_service_text("g", "b{$y} :- context/t{a{$x}}, d/r{t{a{$x}, b{$y}}}")
        .unwrap();
    assert!(sys.is_simple());
    let (status, _) = run(&mut sys, &EngineConfig::default()).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    let expected =
        parse_tree(r#"r{@f, t{a{"1"}, @g, b{"2"}, b{"3"}}, t{a{"2"}, @g, b{"2"}}}"#).unwrap();
    assert!(
        equivalent(sys.doc("dn".into()).unwrap(), &expected),
        "got {}",
        sys.doc("dn".into()).unwrap()
    );
}

/// §4 intro: both the materialized rating and the intensional call are
/// possible answers to the rating query.
#[test]
fn section_4_possible_answers() {
    use positive_axml::core::forest::Forest;
    use positive_axml::core::lazy::is_possible_answer;
    let mut sys = System::new();
    sys.add_document_text(
        "dir",
        r#"directory{cd{title{"Body and Soul"}, @GetRating{"Body and Soul"}}}"#,
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
    let q = parse_query(r#"rating{$s} :- dir/directory{cd{title{"Body and Soul"}, rating{$s}}}"#)
        .unwrap();
    let materialized = Forest::from_trees(vec![parse_tree(r#"rating{"****"}"#).unwrap()]);
    assert!(is_possible_answer(&sys, &q, &materialized).unwrap());
    let wrong = Forest::from_trees(vec![parse_tree(r#"rating{"*"}"#).unwrap()]);
    assert!(!is_possible_answer(&sys, &q, &wrong).unwrap());
}
