//! The lazy query evaluator: expand documents *just enough* to answer a
//! query (§4).
//!
//! The naive approach — fully expand `[I]`, then evaluate `q` — wastes
//! work on irrelevant branches and diverges on systems whose irrelevant
//! parts are infinite. The lazy evaluator interleaves:
//!
//! 1. a weak relevance analysis ([`crate::lazy::relevance`], PTIME);
//! 2. one restricted fair round invoking only the relevant calls;
//!
//! until no relevant call remains (weak q-stability — a *sufficient*
//! condition for q-stability, so the snapshot answer at that point is a
//! possible answer) or the relevant calls stop being productive (a
//! fixpoint of the relevant region: by relevance soundness, no other
//! call can feed the query either).

use crate::error::Result;
use crate::eval::{snapshot, Env};
use crate::forest::Forest;
use crate::invoke::invoke_node;
use crate::lazy::relevance::weak_relevance;
use crate::query::Query;
use crate::sym::Sym;
use crate::system::System;
use crate::tree::NodeId;

/// Budgets for lazy evaluation.
#[derive(Clone, Copy, Debug)]
pub struct LazyConfig {
    /// Maximum relevance/invocation rounds.
    pub max_rounds: usize,
    /// Maximum total invocations.
    pub max_invocations: usize,
}

impl Default for LazyConfig {
    fn default() -> LazyConfig {
        LazyConfig {
            max_rounds: 1_000,
            max_invocations: 100_000,
        }
    }
}

/// Statistics of one lazy evaluation.
#[derive(Clone, Debug, Default)]
pub struct LazyStats {
    /// Relevance/invocation rounds executed.
    pub rounds: usize,
    /// Calls invoked (the number the paper wants minimized).
    pub invocations: usize,
    /// Did the run end weakly q-stable (vs. budget exhaustion)?
    pub stable: bool,
    /// Calls still flagged relevant at the end (0 when stable).
    pub final_relevant: usize,
}

/// Evaluate `[q](I)` lazily: invoke only (weakly) relevant calls, then
/// return the snapshot answer — by stability, a possible answer to `q`.
pub fn lazy_query_eval(
    sys: &mut System,
    q: &Query,
    cfg: &LazyConfig,
) -> Result<(Forest, LazyStats)> {
    let mut stats = LazyStats::default();
    loop {
        let rel = weak_relevance(sys, q);
        if rel.relevant_calls.is_empty() {
            stats.stable = true;
            break;
        }
        if stats.rounds >= cfg.max_rounds || stats.invocations >= cfg.max_invocations {
            stats.final_relevant = rel.relevant_calls.len();
            break;
        }
        stats.rounds += 1;
        let mut calls: Vec<(Sym, NodeId)> = rel.relevant_calls.iter().copied().collect();
        calls.sort_unstable();
        let mut any_change = false;
        for (d, n) in calls {
            if !sys.doc(d).map(|t| t.is_alive(n)).unwrap_or(false) {
                continue;
            }
            if stats.invocations >= cfg.max_invocations {
                break;
            }
            let out = invoke_node(sys, d, n)?;
            stats.invocations += 1;
            any_change |= out.changed;
        }
        if !any_change {
            // The relevant region reached its fixpoint; by soundness of
            // the relevance analysis no other call can contribute.
            stats.stable = true;
            break;
        }
    }
    let mut env = Env::new();
    for &d in sys.doc_names() {
        env.insert(d, sys.doc(d).expect("stored"));
    }
    let answer = snapshot(q, &env)?;
    Ok((answer, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, EngineConfig, RunStatus};
    use crate::query::parse_query;

    /// A portal where the branch irrelevant to the query diverges: eager
    /// evaluation never terminates, lazy evaluation answers finitely —
    /// the central payoff of §4.
    fn poisoned_portal() -> System {
        let mut sys = System::new();
        sys.add_document_text(
            "dir",
            r#"directory{
                cd{title{"Body and Soul"}, @GetRating{"Body and Soul"}},
                junk{@Spam}
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
        // A diverging service (Example 2.1 pattern) in the junk branch.
        sys.add_service_text("Spam", "junk{@Spam} :-").unwrap();
        sys
    }

    #[test]
    fn lazy_answers_where_eager_diverges() {
        let q =
            parse_query(r#"rating{$s} :- dir/directory{cd{title{"Body and Soul"}, rating{$s}}}"#)
                .unwrap();
        // Eager: budget exhausted, no fixpoint.
        let mut eager = poisoned_portal();
        let (status, estats) = run(&mut eager, &EngineConfig::with_budget(200)).unwrap();
        assert_eq!(status, RunStatus::InvocationBudget);
        assert_eq!(estats.invocations + estats.skipped, 200);
        // Lazy: terminates, one call invoked.
        let mut lazy = poisoned_portal();
        let (answer, lstats) = lazy_query_eval(&mut lazy, &q, &LazyConfig::default()).unwrap();
        assert!(lstats.stable);
        // GetRating fires once productively; the weak analysis keeps it
        // flagged until a second (no-op) invocation proves the relevant
        // region quiescent. The diverging Spam branch is never touched.
        assert_eq!(lstats.invocations, 2);
        assert_eq!(answer.len(), 1);
        assert_eq!(answer.trees()[0].to_string(), r#"rating{"****"}"#);
    }

    #[test]
    fn lazy_matches_eager_on_terminating_systems() {
        // Transitive closure: lazy must still find all reachable pairs.
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
        let q = parse_query("reach{$y} :- d1/r{t{from{\"1\"},to{$y}}}").unwrap();
        let mut lazy_sys = build();
        let (lazy_ans, lstats) =
            lazy_query_eval(&mut lazy_sys, &q, &LazyConfig::default()).unwrap();
        assert!(lstats.stable);
        let mut eager_sys = build();
        run(&mut eager_sys, &EngineConfig::default()).unwrap();
        let mut env = Env::new();
        for &d in eager_sys.doc_names() {
            env.insert(d, eager_sys.doc(d).unwrap());
        }
        let eager_ans = snapshot(&q, &env).unwrap();
        assert!(lazy_ans.equivalent(&eager_ans));
        assert_eq!(eager_ans.len(), 3); // 2, 3, 4
    }

    #[test]
    fn stable_system_answers_without_any_invocation() {
        let mut sys = System::new();
        sys.add_document_text("d", r#"store{item{"cd"}, other{@f}}"#)
            .unwrap();
        sys.add_service_text("f", r#"x{"1"} :-"#).unwrap();
        let q = parse_query("ans{$i} :- d/store{item{$i}}").unwrap();
        let (answer, stats) = lazy_query_eval(&mut sys, &q, &LazyConfig::default()).unwrap();
        assert!(stats.stable);
        assert_eq!(stats.invocations, 0);
        assert_eq!(answer.len(), 1);
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A relevant diverging branch: lazy evaluation cannot stabilize.
        let mut sys = System::new();
        sys.add_document_text("d", "a{b{@Spam}}").unwrap();
        sys.add_service_text("Spam", r#"b{@Spam, w{"1"}} :-"#)
            .unwrap();
        let q = parse_query("ans{$x} :- d/a{b{b{b{b{b{b{b{b{w{$x}}}}}}}}}}").unwrap();
        let cfg = LazyConfig {
            max_rounds: 5,
            max_invocations: 50,
        };
        let (_, stats) = lazy_query_eval(&mut sys, &q, &cfg).unwrap();
        assert!(!stats.stable);
        assert!(stats.final_relevant > 0);
    }
}
