//! Subscription cursors against the reference.
//!
//! `QueryCursor::poll` is semi-naive: it builds only the answers that
//! rows born since its last poll derive, and returns one unless a tree it
//! returned before subsumes it. Snapshot semantics is monotone (Prop 3.1
//! (1)), so its deltas must be exactly those of a cursor that evaluates
//! every poll in full and tells answers apart by canonical key
//! ([`reference::reference_cursor`]): the same trees, in the same order.
//! Random systems are stepped round by round, round-robin and reversed,
//! with both cursors polled before the first round and after every round.
//! Random systems almost never make a new answer strictly larger than a
//! returned one, or a new answer reduce under one, so hand-built systems
//! pin those cases.

mod reference;

use positive_axml::core::engine::{EngineConfig, RoundRunner, Strategy};
use positive_axml::core::gensys::{random_simple_system, GenConfig};
use positive_axml::core::query::parse_query;
use positive_axml::core::system::context_sym;
use positive_axml::core::trace::Tracer;
use positive_axml::core::tree::Tree;
use positive_axml::core::{QueryCursor, System};
use proptest::prelude::*;
use reference::reference_cursor;

/// Rounds stepped before a run that has not stopped is cut off.
const MAX_ROUNDS: usize = 16;

fn rendered(trees: &[Tree]) -> Vec<String> {
    trees.iter().map(Tree::to_string).collect()
}

/// Step `sys` with the engine in the order of `strategy`, polling a
/// `QueryCursor` and the reference cursor for `query` before the first
/// round and after every round; each pair of deltas must be the same
/// trees in the same order. Returns the deltas, one per poll.
fn deltas_agree(sys: &System, query: &str, strategy: Strategy, what: &str) -> Vec<Vec<String>> {
    let q = parse_query(query).unwrap();
    let mut cursor = QueryCursor::new(q.clone());
    let mut reference = reference_cursor(q);
    let mut sys = sys.clone();
    let mut runner = RoundRunner::new(&EngineConfig {
        strategy,
        max_invocations: 5_000,
        max_nodes: 4_000,
    });
    let mut poll = |sys: &System, when: &str| {
        let got = rendered(&cursor.poll(sys).unwrap());
        assert_eq!(got, rendered(&reference(sys)), "{what}: {query}, {when}");
        got
    };
    let mut deltas = vec![poll(&sys, "before round 1")];
    for round in 1..=MAX_ROUNDS {
        let stop = runner.step(&mut sys, Tracer::disabled()).unwrap();
        // The terminal round may still have derived answers.
        deltas.push(poll(&sys, &format!("after round {round}")));
        if stop.is_some() {
            break;
        }
    }
    let returned: usize = deltas.iter().map(Vec::len).sum();
    assert_eq!(cursor.seen(), returned, "{what}: {query}");
    deltas
}

/// The queries subscribed to on a generated system: per document, its
/// root's child subtrees (a tree variable, which new data below it
/// grows) and its labelled value pairs; and every service query that
/// reads only stored documents.
fn subscriptions(sys: &System) -> Vec<String> {
    let mut queries = Vec::new();
    for &d in sys.doc_names() {
        queries.push(format!("got{{#T}} :- {d}/?r{{#T}}"));
        queries.push(format!("hit{{?a{{$v}}}} :- {d}/?r{{?a{{$v}}}}"));
    }
    for &f in sys.service_names() {
        let q = sys.service(f).unwrap().query().unwrap();
        if q.body.iter().all(|a| a.doc != context_sym()) {
            queries.push(q.to_string());
        }
    }
    queries
}

fn gen_cfg(knob: u64) -> GenConfig {
    GenConfig {
        services: 2 + (knob % 3) as usize,
        docs: 1 + (knob % 2) as usize,
        head_call_prob: 0.15 + 0.2 * ((knob % 4) as f64),
        ..GenConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cursor_deltas_equal_the_reference_after_every_round(
        seed in 0u64..1_000_000,
        knob in 0u64..24,
    ) {
        let sys = random_simple_system(&gen_cfg(knob), seed);
        for query in subscriptions(&sys) {
            for strategy in [Strategy::RoundRobin, Strategy::Reverse] {
                deltas_agree(&sys, &query, strategy, &format!("seed {seed} knob {knob}, {strategy:?}"));
            }
        }
    }
}

fn system(docs: &[(&str, &str)], services: &[(&str, &str)]) -> System {
    let mut sys = System::new();
    for (name, text) in docs {
        sys.add_document_text(name, text).unwrap();
    }
    for (name, query) in services {
        sys.add_service_text(name, query).unwrap();
    }
    sys
}

/// The non-empty deltas of `query` over `sys`, the same round-robin and
/// reversed.
fn pushed(sys: &System, query: &str) -> Vec<Vec<String>> {
    let [round_robin, reverse] = [Strategy::RoundRobin, Strategy::Reverse].map(|strategy| {
        let mut deltas = deltas_agree(sys, query, strategy, &format!("{strategy:?}"));
        deltas.retain(|d| !d.is_empty());
        deltas
    });
    assert_eq!(round_robin, reverse, "{query}: the orders disagree");
    round_robin
}

/// A new answer strictly subsumes a returned one: it is returned, and
/// the old one, no longer an answer, is not returned again.
#[test]
fn a_new_answer_strictly_above_a_returned_one() {
    let sys = system(&[("sd", "r{a{@sd_f}}")], &[("sd_f", "x :-")]);
    assert_eq!(
        pushed(&sys, "#T :- sd/r{#T}"),
        [vec!["a{@sd_f}"], vec!["a{@sd_f,x}"]]
    );
}

/// A new head that reduces under a returned answer: `hit{$x,$y}` gains
/// the row `x = y`, whose head `hit{"1","1"}` reduces to `hit{"1"}`,
/// below `hit{"1","2"}`. Nothing is returned.
#[test]
fn a_new_head_that_reduces_under_a_returned_answer() {
    let sys = system(
        &[("hr", r#"r{p{"1"}, q{"2"}, @hr_g}"#)],
        &[("hr_g", r#"q{"1"} :-"#)],
    );
    assert_eq!(
        pushed(&sys, "hit{$x,$y} :- hr/r{p{$x}, q{$y}}"),
        [vec![r#"hit{"1","2"}"#]]
    );
}

/// Two new rows in one poll instantiate equivalent heads (the head's
/// children are unordered): one tree is returned.
#[test]
fn two_equivalent_new_heads_in_one_poll() {
    let sys = system(
        &[("eq", "r{@eq_g, @eq_h}")],
        &[("eq_g", r#"p{v{"1"}} :-"#), ("eq_h", r#"p{v{"2"}} :-"#)],
    );
    assert_eq!(
        pushed(
            &sys,
            "hit{a{$x}, a{$y}} :- eq/r{p{v{$x}}, p{v{$y}}}, $x != $y"
        ),
        [vec![r#"hit{a{"1"},a{"2"}}"#]]
    );
}

/// `#T` binds `a`, and new data is grafted below it, two levels under
/// the matched root: the row is new through the newest node of the
/// bound subtree.
#[test]
fn a_tree_variable_bound_above_new_data() {
    let sys = system(
        &[("tb", r#"r{s{a{k{"1"}, @tb_grow}}}"#)],
        &[("tb_grow", "m :-")],
    );
    assert_eq!(
        pushed(&sys, "got{#T} :- tb/r{s{#T}}"),
        [
            vec![r#"got{a{@tb_grow,k{"1"}}}"#],
            vec![r#"got{a{@tb_grow,k{"1"},m}}"#]
        ]
    );
}

/// Polling a system whose documents are new trees under the same names:
/// the marks do not apply, every row is new, and no answer is returned
/// twice.
#[test]
fn new_trees_under_the_same_names() {
    let q = parse_query("hit{$x} :- nt/r{a{$x}}").unwrap();
    let mut cursor = QueryCursor::new(q.clone());
    let mut reference = reference_cursor(q);
    let mut polls = Vec::new();
    for doc in [
        r#"r{a{"1"}}"#,
        r#"r{a{"1"}, a{"2"}}"#,
        r#"r{a{"2"}, a{"1"}}"#,
    ] {
        let sys = system(&[("nt", doc)], &[]);
        let got = rendered(&cursor.poll(&sys).unwrap());
        assert_eq!(got, rendered(&reference(&sys)), "{doc}");
        polls.push(got);
    }
    assert_eq!(
        polls,
        [vec![r#"hit{"1"}"#], vec![r#"hit{"2"}"#], Vec::<&str>::new()]
    );
    assert_eq!(cursor.seen(), 2);
}
