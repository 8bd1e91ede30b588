//! Lazy query evaluation (§4): answer a query over a portal whose
//! irrelevant branch *diverges* — eager materialization never finishes,
//! lazy evaluation answers after two invocations.
//!
//! ```sh
//! cargo run --example lazy_portal
//! ```

use positive_axml::core::engine::{run, EngineConfig, RunStatus};
use positive_axml::core::lazy::{
    is_q_stable, is_unneeded, lazy_query_eval, weak_relevance, LazyConfig,
};
use positive_axml::core::query::parse_query;
use positive_axml::core::{Marking, System};

fn portal() -> System {
    let mut sys = System::new();
    sys.add_document_text(
        "dir",
        r#"directory{
            cd{title{"Body and Soul"}, @GetRating{"Body and Soul"}},
            cd{title{"Where or When"}, rating{"*****"}},
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
    // The junk branch hosts an Example 2.1-style diverging service.
    sys.add_service_text("Spam", "junk{@Spam} :-").unwrap();
    sys
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let q = parse_query(r#"rating{$s} :- dir/directory{cd{title{"Body and Soul"}, rating{$s}}}"#)?;

    // Weak relevance (PTIME, §4's "weaker properties"): only GetRating
    // can matter; the diverging Spam call is weakly unneeded.
    let sys = portal();
    let rel = weak_relevance(&sys, &q);
    let dir = sys.doc("dir".into()).unwrap();
    let relevant: Vec<String> = rel
        .relevant_calls
        .iter()
        .map(|&(_, n)| dir.marking(n).sym().to_string())
        .collect();
    println!("weakly relevant calls: {relevant:?}");

    // Exact analysis (Theorem 4.1 (2), graph representations): the Spam
    // call is q-unneeded; the whole system is not yet q-stable.
    let spam = dir
        .function_nodes()
        .into_iter()
        .find(|&n| dir.marking(n) == Marking::func("Spam"))
        .unwrap();
    println!(
        "exact: Spam q-unneeded = {}, system q-stable = {}",
        is_unneeded(&sys, &q, &[("dir".into(), spam)])?,
        is_q_stable(&sys, &q)?
    );

    // Eager evaluation burns its entire budget on the junk branch.
    let mut eager = portal();
    let (status, estats) = run(&mut eager, &EngineConfig::with_budget(500))?;
    assert_eq!(status, RunStatus::InvocationBudget);
    // The budget counts call visits, those skipped as no-ops included.
    let visits = estats.invocations + estats.skipped;
    assert_eq!(visits, 500);
    println!(
        "eager:  budget exhausted after {visits} invocations ({} evaluated)",
        estats.invocations
    );

    // Lazy evaluation invokes only the relevant call and stabilizes.
    let mut lazy = portal();
    let (answer, lstats) = lazy_query_eval(&mut lazy, &q, &LazyConfig::default())?;
    println!(
        "lazy:   stable={} after {} invocations; answer = {}",
        lstats.stable,
        lstats.invocations,
        answer
            .trees()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(lstats.stable && lstats.invocations <= 3);
    Ok(())
}
