//! Property-based differential tests for the semi-naive engine.
//!
//! On randomized simple positive systems, whenever the reference below,
//! the paper's fair rewriting evaluating every call in full, reaches a
//! fixpoint, the engine must reach an *equivalent* fixpoint under every
//! visit strategy: skipping calls whose read set is unchanged may
//! reorder and drop evaluations but never changes the limit (Theorem
//! 2.1 confluence plus monotonicity of services).
//!
//! Under the round-robin order (and its reverse) the engine must
//! moreover agree node for node, after every round, with a reference
//! that applies the paper's §2.2 invocation step to every live call in
//! the same order, evaluating each positive service in full with the
//! pattern interpreter over scan matching. The engine shares neither: it
//! runs compiled match programs over the document index, skips calls
//! and evaluates the others semi-naively (building heads only for rows
//! new since the call's last evaluation), yet it must graft exactly what
//! the reference grafts, in the same order, and keep every document's
//! index equal to a rebuild. Every visit, skipped or not, is one
//! invocation of the reference's rewriting, so a budget of call visits
//! cuts both runs at the same documents, divergent systems included.
//! Hand-built systems pin the cases where a row's birth is easy to get
//! wrong.

mod reference;

use positive_axml::core::engine::{run, EngineConfig, RunStatus, Strategy};
use positive_axml::core::gensys::{random_simple_system, GenConfig};
use positive_axml::core::subsume::equivalent;
use positive_axml::core::trace::Tracer;
use positive_axml::core::{parse_tree, Sym, System};
use proptest::prelude::*;
use reference::{reference_run, rounds_agree};

const BUDGET: usize = 5_000;

fn gen_cfg(knob: u64) -> GenConfig {
    GenConfig {
        services: 2 + (knob % 3) as usize,
        docs: 1 + (knob % 2) as usize,
        head_call_prob: 0.15 + 0.2 * ((knob % 4) as f64),
        ..GenConfig::default()
    }
}

fn pick_strategy(ix: u8, seed: u64) -> Strategy {
    match ix % 3 {
        0 => Strategy::RoundRobin,
        1 => Strategy::Reverse,
        _ => Strategy::Random(seed ^ 0xABCD),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_fixpoint_equals_the_reference_on_random_terminating_systems(
        seed in 0u64..1_000_000,
        knob in 0u64..24,
        strat_ix in 0u8..3,
    ) {
        let sys = random_simple_system(&gen_cfg(knob), seed);
        let mut reference = sys.clone();
        if reference_run(&mut reference, BUDGET, Tracer::disabled()) != RunStatus::Terminated {
            // Divergent system: nothing to compare at the limit.
            return Ok(());
        }
        let mut engine = sys.clone();
        let cfg = EngineConfig {
            strategy: pick_strategy(strat_ix, seed),
            ..EngineConfig::with_budget(BUDGET)
        };
        let (status, _) = run(&mut engine, &cfg).unwrap();
        prop_assert_eq!(status, RunStatus::Terminated);
        prop_assert!(
            reference.equivalent_to(&engine),
            "seed {} knob {} strat {}: the engine's fixpoint differs from the reference's",
            seed, knob, strat_ix
        );
    }
}

/// Run `docs` and `services` through [`rounds_agree`], round-robin and
/// reversed (a round visits the documents in order and each document's
/// calls last child first; reversed, the other way round); the
/// fixpoint's document `doc` must be equivalent to `expect`. In at least
/// one of the two orders, each case reads data before it grows.
fn case(docs: &[(&str, &str)], services: &[(&str, &str)], doc: &str, expect: &str) {
    let mut sys = System::new();
    for (name, text) in docs {
        sys.add_document_text(name, text).unwrap();
    }
    for (name, query) in services {
        sys.add_service_text(name, query).unwrap();
    }
    for strategy in [Strategy::RoundRobin, Strategy::Reverse] {
        let what = format!("{doc}, {strategy:?}");
        let (fixpoint, status) = rounds_agree(&sys, strategy, usize::MAX, &what);
        assert_eq!(status, Some(RunStatus::Terminated), "{what}");
        let got = fixpoint.doc(Sym::intern(doc)).unwrap();
        assert!(
            equivalent(got, &parse_tree(expect).unwrap()),
            "{what}: {got} is not {expect}"
        );
    }
}

/// `#T` binds `a`, whose subtree grows below it after `g` first ran: the
/// row's birth is the newest node of the bound subtree, not `a`'s.
/// (Reversed, `g` reads `a` before `m` arrives, and reads it again
/// before the copy of `@tv_grow` it grafted grows an `m` of its own.)
#[test]
fn tree_variable_bound_above_new_data() {
    case(
        &[
            ("tv_src", r#"tv_src{a{k{"1"}, @tv_grow}}"#),
            ("tv_out", "tv_out{@tv_g}"),
        ],
        &[
            ("tv_g", "got{#T} :- tv_src/tv_src{#T}"),
            ("tv_grow", "m :-"),
        ],
        "tv_out",
        r#"tv_out{@tv_g, got{a{k{"1"}, @tv_grow, m}}}"#,
    );
}

/// The ground child `flag` has no witness when `g` first runs; its only
/// witness is grafted after, so the row is new through the witness
/// alone.
#[test]
fn ground_child_witnessed_only_by_a_new_node() {
    case(
        &[("gw", r#"gw{a{"1"}, @gw_flag, @gw_g}"#)],
        &[
            ("gw_g", "out{$x} :- gw/gw{a{$x}, flag}"),
            ("gw_flag", "flag :-"),
        ],
        "gw",
        r#"gw{a{"1"}, @gw_flag, @gw_g, flag, out{"1"}}"#,
    );
}

/// The row `$x = "1"` is derived through the old `a` and through a new
/// one: it is old, and its head was grafted at the first evaluation.
#[test]
fn row_derived_through_an_old_and_a_new_node() {
    case(
        &[("od", r#"od{a{"1", p}, @od_more, @od_g}"#)],
        &[
            ("od_g", "out{$x} :- od/od{a{$x}}"),
            ("od_more", r#"a{"1", q} :-"#),
        ],
        "od",
        r#"od{a{"1", p}, a{"1", q}, @od_more, @od_g, out{"1"}}"#,
    );
}

/// Two atoms over two documents, and only the second document grows: a
/// joined row is new when its second atom's row is.
#[test]
fn two_documents_where_only_the_second_grows() {
    case(
        &[
            ("tw1", r#"tw1{a{"1"}, @tw_g}"#),
            ("tw2", r#"tw2{b{"1"}, @tw_more}"#),
        ],
        &[
            ("tw_g", "pair{$x,$y} :- tw1/tw1{a{$x}}, tw2/tw2{b{$y}}"),
            ("tw_more", r#"b{"2"} :-"#),
        ],
        "tw1",
        r#"tw1{a{"1"}, @tw_g, pair{"1","2"}}"#,
    );
}

/// The doubling closure (Example 3.2) reads back what it grafted: its
/// marks are taken before its graft, so its own results are new the
/// next time it runs.
#[test]
fn call_reading_back_its_own_results() {
    let path: Vec<String> = (1..5)
        .map(|i| format!(r#"t{{from{{"{i}"}},to{{"{}"}}}}"#, i + 1))
        .collect();
    let closure: Vec<String> = (1..5)
        .flat_map(|i| (i + 1..6).map(move |j| format!(r#"t{{from{{"{i}"}},to{{"{j}"}}}}"#)))
        .collect();
    case(
        &[("own", &format!("own{{{}, @own_tc}}", path.join(",")))],
        &[(
            "own_tc",
            "t{from{$x},to{$y}} :- own/own{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
        )],
        "own",
        &format!("own{{{}, @own_tc}}", closure.join(",")),
    );
}

/// A service reading `context`, a fresh tree on every call: all its rows
/// are new, joined with old rows of a stored document.
#[test]
fn context_reader_joined_with_a_stored_document() {
    case(
        &[("cx", r#"cx{x{@cx_addv, @cx_c}, w{"9"}}"#)],
        &[
            ("cx_c", "seen{$v,$w} :- context/x{v{$v}}, cx/cx{w{$w}}"),
            ("cx_addv", r#"v{"1"} :-"#),
        ],
        "cx",
        r#"cx{x{@cx_addv, @cx_c, v{"1"}, seen{"1","9"}}, w{"9"}}"#,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_equals_reference_node_for_node_after_every_round(
        seed in 0u64..1_000_000,
        knob in 0u64..24,
    ) {
        let sys = random_simple_system(&gen_cfg(knob), seed);
        for strategy in [Strategy::RoundRobin, Strategy::Reverse] {
            rounds_agree(&sys, strategy, usize::MAX, &format!("seed {seed} knob {knob}, {strategy:?}"));
        }
    }
}

/// A budget counts call visits, skipped ones included, so it cuts the
/// engine's run where it cuts the reference's fair rewriting, on the
/// same documents, divergent systems included.
#[test]
fn budget_cuts_agree_with_the_reference() {
    let (mut budget_stops, mut divergent) = (0, 0);
    for seed in 0..40u64 {
        let sys = random_simple_system(&gen_cfg(seed), seed);
        for strategy in [Strategy::RoundRobin, Strategy::Reverse] {
            for budget in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 400] {
                let what = format!("seed {seed}, {strategy:?}, budget {budget}");
                let (_, status) = rounds_agree(&sys, strategy, budget, &what);
                budget_stops += usize::from(status == Some(RunStatus::InvocationBudget));
            }
        }
        let what = format!("seed {seed}, unbounded");
        let (_, status) = rounds_agree(&sys, Strategy::RoundRobin, usize::MAX, &what);
        divergent += usize::from(status != Some(RunStatus::Terminated));
    }
    // 265 of the 1 040 cuts stop at the budget, and 5 of the 40 systems
    // have no fixpoint within the compared rounds.
    assert!(budget_stops >= 200, "{budget_stops} budget stops");
    assert!(divergent > 0, "no divergent system among the seeds");
}
