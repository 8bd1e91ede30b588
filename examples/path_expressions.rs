//! §5: regular path expressions and the ψ translation (Prop 5.1).
//!
//! Evaluates a positive+reg query directly (NFA walk) and through ψ —
//! translating the path expression into automaton-state services — and
//! checks the two agree. Also shows the nesting example from §5.
//!
//! ```sh
//! cargo run --example path_expressions
//! ```

use positive_axml::core::engine::{run, EngineConfig};
use positive_axml::core::eval::{snapshot, Env};
use positive_axml::core::forest::Forest;
use positive_axml::core::pathexpr::{parse_reg_query, snapshot_reg};
use positive_axml::core::translate::{strip_annotations, translate};
use positive_axml::core::System;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = System::new();
    sys.add_document_text(
        "d",
        r#"lib{
            shelf{box{cd{title{"A"}}}, cd{title{"B"}}},
            cd{title{"C"}},
            misc{dvd{title{"D"}}}
        }"#,
    )?;

    // A positive+reg query: titles of cds under ANY chain of labels.
    let q = parse_reg_query("t{$x} :- d/lib{<_*.cd>{title{$x}}}")?;

    // Direct evaluation (NFA product walk).
    let mut env = Env::new();
    env.insert("d".into(), sys.doc("d".into()).unwrap());
    let direct = snapshot_reg(&q, &env)?;
    println!(
        "direct : {}",
        direct
            .trees()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );

    // ψ translation: plain positive system + query.
    let tr = translate(&sys, &q)?;
    println!(
        "ψ added {} services, planted {} calls ({} path occurrence(s))",
        tr.stats.services_added, tr.stats.calls_planted, tr.stats.occurrences
    );
    let mut tsys = tr.system;
    run(&mut tsys, &EngineConfig::default())?;
    let mut tenv = Env::new();
    for &dn in tsys.doc_names() {
        tenv.insert(dn, tsys.doc(dn).unwrap());
    }
    let raw = snapshot(&tr.query, &tenv)?;
    let via_psi: Forest = raw.trees().iter().map(strip_annotations).collect();
    let via_psi = via_psi.reduce();
    println!(
        "via ψ  : {}",
        via_psi
            .trees()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(direct.reduce().equivalent(&via_psi));

    // §5's nesting example: nest a binary relation on its a-column with
    // a context-reading service — a *simple* system.
    let mut nest = System::new();
    nest.add_document_text(
        "d",
        r#"r{t{a{"1"}, b{"2"}}, t{a{"1"}, b{"3"}}, t{a{"2"}, b{"2"}}}"#,
    )?;
    nest.add_document_text("dn", "r{@f}")?;
    nest.add_service_text("f", "t{a{$x}, @g} :- d/r{t{a{$x}}}")?;
    nest.add_service_text("g", "b{$y} :- context/t{a{$x}}, d/r{t{a{$x}, b{$y}}}")?;
    run(&mut nest, &EngineConfig::default())?;
    println!(
        "\nnesting (simple system!): {}",
        nest.doc("dn".into()).unwrap()
    );
    assert!(nest.is_simple());
    Ok(())
}
