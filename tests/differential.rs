//! Differential fuzzing: the Theorem 3.3 decision procedure, the graph
//! representation, and the fair engine are independent implementations
//! of the same semantics. On randomly generated simple positive systems
//! they must agree:
//!
//! * verdict `Terminates` ⟺ the engine reaches a fixpoint;
//! * on terminating systems, unfolding the representation gives exactly
//!   the engine's fixpoint documents;
//! * all fair schedules agree (confluence, again, but on random
//!   systems rather than curated ones);
//! * full query results over the representation match snapshot queries
//!   over the engine's fixpoint.

use positive_axml::core::engine::{run, EngineConfig, RunStatus, Strategy};
use positive_axml::core::gensys::{random_simple_system, GenConfig};
use positive_axml::core::graphrepr::{full_query_result, GraphRepr};
use positive_axml::core::query::parse_query;
use positive_axml::core::{equivalent, reduce};

const SEEDS: u64 = 60;

fn cases() -> impl Iterator<Item = (u64, positive_axml::core::System)> {
    (0..SEEDS).map(|seed| {
        let cfg = GenConfig {
            // Vary shape knobs with the seed for diversity.
            services: 2 + (seed % 3) as usize,
            docs: 1 + (seed % 2) as usize,
            head_call_prob: 0.15 + 0.2 * ((seed % 4) as f64),
            ..GenConfig::default()
        };
        (seed, random_simple_system(&cfg, seed))
    })
}

#[test]
fn verdict_matches_engine_on_random_systems() {
    let mut terminating = 0usize;
    let mut diverging = 0usize;
    for (seed, sys) in cases() {
        let repr = match GraphRepr::build(&sys) {
            Ok(r) => r,
            Err(_) => continue, // safety-limit blowup: skip, counted below
        };
        let mut runner = sys.clone();
        let (status, _) = run(&mut runner, &EngineConfig::with_budget(20_000)).unwrap();
        match (repr.terminates(), status) {
            (true, RunStatus::Terminated) => {
                terminating += 1;
                // Unfolding must equal the fixpoint, document by document.
                for (&d, &root) in &repr.roots {
                    let unfolded = repr
                        .graph
                        .unfold_exact(root)
                        .unwrap_or_else(|| panic!("seed {seed}: cyclic doc in terminating repr"));
                    assert!(
                        equivalent(&reduce(&unfolded), runner.doc(d).unwrap()),
                        "seed {seed}, doc {d}: graph unfolding != engine fixpoint\n  graph: {}\n  engine: {}",
                        reduce(&unfolded),
                        runner.doc(d).unwrap()
                    );
                }
            }
            (false, RunStatus::Terminated) => {
                panic!("seed {seed}: verdict says diverges, engine terminated")
            }
            (true, _) => panic!("seed {seed}: verdict says terminates, engine exhausted budget"),
            (false, _) => diverging += 1,
        }
    }
    // The generator must exercise both behaviours to be meaningful.
    assert!(terminating >= 10, "only {terminating} terminating cases");
    assert!(diverging >= 5, "only {diverging} diverging cases");
}

#[test]
fn random_systems_are_confluent() {
    for (seed, sys) in cases().take(25) {
        // Only check confluence-to-fixpoint on terminating systems.
        let Ok(repr) = GraphRepr::build(&sys) else {
            continue;
        };
        if !repr.terminates() {
            continue;
        }
        let mut reference = sys.clone();
        run(&mut reference, &EngineConfig::default()).unwrap();
        for s in [Strategy::Reverse, Strategy::Random(seed ^ 0xABCD)] {
            let mut alt = sys.clone();
            run(&mut alt, &EngineConfig::with_strategy(s)).unwrap();
            assert!(
                alt.equivalent_to(&reference),
                "seed {seed}: schedules disagree"
            );
        }
    }
}

#[test]
fn full_query_results_match_fixpoint_snapshots() {
    use positive_axml::core::eval::{snapshot, Env};
    // A generic probe query over the generated alphabet.
    let q = parse_query("probe{$v} :- d0/l0{l1{$v}}")
        .or_else(|_| parse_query("probe{$v} :- d0/l0{l0{$v}}"))
        .unwrap();
    for (seed, sys) in cases() {
        let Ok(res) = full_query_result(&sys, &q) else {
            continue;
        };
        let Ok(repr) = GraphRepr::build(&sys) else {
            continue;
        };
        if !repr.terminates() {
            // Simple queries still have finite results (§3.3).
            assert!(res.is_finite(), "seed {seed}: simple query infinite result");
            continue;
        }
        let mut runner = sys.clone();
        run(&mut runner, &EngineConfig::default()).unwrap();
        let mut env = Env::new();
        for &d in runner.doc_names() {
            env.insert(d, runner.doc(d).unwrap());
        }
        let direct = snapshot(&q, &env).unwrap();
        let via_graph = res
            .materialize()
            .unwrap_or_else(|| panic!("seed {seed}: finite result failed to materialize"));
        let via_graph: positive_axml::core::Forest =
            via_graph.iter().map(positive_axml::core::reduce).collect();
        assert!(
            direct.equivalent(&via_graph.reduce()),
            "seed {seed}: graph query result != fixpoint snapshot"
        );
    }
}
