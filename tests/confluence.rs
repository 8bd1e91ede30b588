//! Theorem 2.1 at scale: all fair rewritings of a monotone system reach
//! the same result — across strategies, random seeds, black-box
//! services, and restricted (`[I↓N]`) runs.

use positive_axml::core::engine::{run, run_restricted, EngineConfig, RunStatus, Strategy};
use positive_axml::core::forest::Forest;
use positive_axml::core::service::BlackBoxService;
use positive_axml::core::{parse_tree, System};

/// A mid-sized positive system: three interdependent documents with
/// copy, join, and filter services.
fn workload() -> System {
    let mut sys = System::new();
    sys.add_document_text(
        "people",
        r#"db{p{name{"ann"}, dept{"cs"}},
             p{name{"bob"}, dept{"cs"}},
             p{name{"cyd"}, dept{"ee"}}}"#,
    )
    .unwrap();
    sys.add_document_text("cs", "list{@cs-members, @pairs}")
        .unwrap();
    sys.add_document_text("pairs", "out{@mirror}").unwrap();
    sys.add_service_text(
        "cs-members",
        r#"m{$n} :- people/db{p{name{$n}, dept{"cs"}}}"#,
    )
    .unwrap();
    sys.add_service_text("pairs", "pair{$a,$b} :- cs/list{m{$a}, m{$b}}, $a != $b")
        .unwrap();
    sys.add_service_text("mirror", "copy{$a,$b} :- cs/list{pair{$a,$b}}")
        .unwrap();
    sys
}

#[test]
fn many_random_schedules_agree() {
    let mut reference = workload();
    let (status, _) = run(&mut reference, &EngineConfig::default()).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    for seed in 0..20u64 {
        let mut sys = workload();
        let (status, _) = run(
            &mut sys,
            &EngineConfig::with_strategy(Strategy::Random(seed)),
        )
        .unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert_eq!(
            sys.canonical_key(),
            reference.canonical_key(),
            "seed {seed} diverged from the reference fixpoint"
        );
    }
}

#[test]
fn lemma_2_1_prefixes_embed_into_the_fixpoint() {
    // Any bounded (fair-prefix) state is subsumed by the fixpoint.
    let mut full = workload();
    run(&mut full, &EngineConfig::default()).unwrap();
    for budget in [1usize, 2, 3, 5, 8] {
        let mut partial = workload();
        run(&mut partial, &EngineConfig::with_budget(budget)).unwrap();
        assert!(
            partial.subsumed_by(&full),
            "budget-{budget} prefix not subsumed by the fixpoint"
        );
    }
}

#[test]
fn black_box_monotone_services_are_confluent_too() {
    // §2.2's general monotone systems: services as closures. This one
    // returns one tree per value present in `src` (monotone: more values
    // ⇒ more trees).
    let build = || {
        let mut sys = System::new();
        sys.add_document_text("src", r#"r{v{"1"}, v{"2"}, @feed}"#)
            .unwrap();
        sys.add_document_text("dst", "out{@collect}").unwrap();
        sys.add_service_text("feed", r#"v{"3"} :-"#).unwrap();
        sys.add_black_box(
            "collect",
            BlackBoxService::new("wrap values", |env: &positive_axml::core::Env| {
                let mut out = Forest::new();
                if let Some(t) = env.get("src".into()) {
                    for n in t.iter_live(t.root()) {
                        if t.marking(n) == positive_axml::core::Marking::label("v") {
                            if let Some(&c) = t.children(n).first() {
                                let item = format!("got{{{}}}", t.marking(c));
                                out.push(parse_tree(&item).unwrap());
                            }
                        }
                    }
                }
                Ok(out)
            }),
        )
        .unwrap();
        sys
    };
    let mut a = build();
    run(&mut a, &EngineConfig::default()).unwrap();
    let mut b = build();
    run(&mut b, &EngineConfig::with_strategy(Strategy::Reverse)).unwrap();
    assert_eq!(a.canonical_key(), b.canonical_key());
    // And the black box's data arrived, including the value fed by the
    // positive service (call order independence).
    let dst = a.doc("dst".into()).unwrap();
    let expected = parse_tree(r#"out{@collect, got{"1"}, got{"2"}, got{"3"}}"#).unwrap();
    assert!(positive_axml::core::equivalent(dst, &expected), "got {dst}");
}

#[test]
fn restricted_runs_are_confluent_and_smaller() {
    // [I↓N] is itself order-independent, and subsumed by [I].
    let excluded_fn = |sys: &System| {
        // Exclude the `pairs` call (second function node of doc `cs`).
        sys.function_nodes()
            .into_iter()
            .find(|&(d, n)| {
                d == "cs".into()
                    && sys.doc(d).unwrap().marking(n) == positive_axml::core::Marking::func("pairs")
            })
            .unwrap()
    };
    let mut ref_sys = workload();
    let excl = excluded_fn(&ref_sys);
    run_restricted(&mut ref_sys, &EngineConfig::default(), |d, n| {
        (d, n) != excl
    })
    .unwrap();
    for seed in [5u64, 6] {
        let mut sys = workload();
        let excl = excluded_fn(&sys);
        run_restricted(
            &mut sys,
            &EngineConfig::with_strategy(Strategy::Random(seed)),
            |d, n| (d, n) != excl,
        )
        .unwrap();
        assert_eq!(sys.canonical_key(), ref_sys.canonical_key());
    }
    let mut full = workload();
    run(&mut full, &EngineConfig::default()).unwrap();
    assert!(ref_sys.subsumed_by(&full));
    assert!(!full.subsumed_by(&ref_sys)); // pairs data genuinely missing
}

#[test]
fn divergent_systems_prefixes_are_totally_ordered_in_the_limit() {
    // For Example 2.1: two different budgets give states where the
    // smaller embeds in the larger (they approximate the same limit).
    let build = || {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        sys
    };
    let mut small = build();
    run(&mut small, &EngineConfig::with_budget(10)).unwrap();
    let mut large = build();
    run(&mut large, &EngineConfig::with_budget(60)).unwrap();
    assert!(small.subsumed_by(&large));
}
