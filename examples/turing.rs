//! Lemma 3.1: Turing machines as positive AXML systems.
//!
//! Runs sample machines both natively and through the AXML encoding
//! (configuration trees + one tree-variable service per transition), and
//! shows the non-halting machine exhausting any engine budget —
//! Corollary 3.1's source of undecidability.
//!
//! ```sh
//! cargo run --example turing
//! ```

use positive_axml::tm::encode::{encode_tm, run_axml_tm, AxmlTmOutcome};
use positive_axml::tm::machine::{run, Outcome};
use positive_axml::tm::samples;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // a^n b^n recognition, natively and via AXML.
    let tm = samples::anbn();
    for input in [
        vec!["a", "b"],
        vec!["a", "a", "b", "b"],
        vec!["a", "b", "b"],
    ] {
        let (native, steps) = run(&tm, &input, 10_000);
        let (axml, stats) = run_axml_tm(&tm, &input, 100_000)?;
        let native_acc = matches!(native, Outcome::Accept(_));
        let axml_acc = matches!(axml, AxmlTmOutcome::Accept(_));
        assert_eq!(native_acc, axml_acc);
        println!(
            "a^n b^n on {input:?}: accept={native_acc} \
             (native {steps} steps; AXML {} invocations, {} configs)",
            stats.invocations, stats.configs
        );
    }

    // Binary increment computes an output tape.
    let tm = samples::binary_increment();
    let (native, _) = run(&tm, &["one", "one"], 1_000);
    let (axml, _) = run_axml_tm(&tm, &["one", "one"], 50_000)?;
    println!("\nbinary 11 + 1: native={native:?}\n               axml  ={axml:?}");
    assert_eq!(
        matches!(&native, Outcome::Accept(t) if t == &vec!["zero".to_string(), "zero".into(), "one".into()]),
        matches!(&axml, AxmlTmOutcome::Accept(t) if t == &vec!["zero".to_string(), "zero".into(), "one".into()])
    );

    // The encoded system is positive but NOT simple: tree variables copy
    // the unbounded tape — exactly why Theorem 3.3's decidability needs
    // simplicity.
    let sys = encode_tm(&tm, &["one"])?;
    println!(
        "\nencoded system: positive={}, simple={}",
        sys.is_positive(),
        sys.is_simple()
    );

    // A non-halting, non-cycling machine ⇒ a non-terminating system.
    let spinner = samples::spinner();
    let (out, stats) = run_axml_tm(&spinner, &["one"], 400)?;
    println!(
        "spinner: {out:?} after {} invocations, {} configurations accumulated",
        stats.invocations, stats.configs
    );
    assert_eq!(out, AxmlTmOutcome::Budget);
    assert_eq!(stats.invocations, 400);
    Ok(())
}
