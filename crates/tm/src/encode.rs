//! The Lemma 3.1 encoding: Turing machines as positive AXML systems.
//!
//! Following the proof sketch:
//!
//! * the tape is a **line tree** `a1{a2{…{end}}}` (the paper's
//!   `#{a1{a2{...an{#}}}}`, with `end` as the terminator);
//! * each configuration is a tree
//!   `cfg{st{"q"}, left{line}, right{line}}` holding the state and the
//!   two halves of the tape (the `left` line is stored nearest-first);
//! * each machine transition becomes a **non-simple positive service**
//!   (tree variables copy the unbounded tape remainders), and all
//!   configurations the machine goes through accumulate in a single
//!   document `d/cfgs{…}`;
//! * acceptance is read off the document by looking for a configuration
//!   in the accepting state.
//!
//! A halting machine yields a system whose fair rewriting reaches a
//! fixpoint; the `spinner` sample (fresh configuration every step) yields
//! a non-terminating system — the two directions behind Corollary 3.1's
//! undecidability of termination.

use crate::machine::{Config, Dir, Tm, BLANK};
use axml_core::engine::{run, EngineConfig, RunStatus};
use axml_core::error::Result;
use axml_core::sym::Sym;
use axml_core::system::System;
use axml_core::tree::{Marking, NodeId, Tree};

const END: &str = "end";

/// Build the line tree of a symbol sequence under `parent`.
fn build_line(doc: &mut Tree, parent: NodeId, cells: &[String]) -> Result<()> {
    let mut at = parent;
    for c in cells {
        at = doc.add_child(at, Marking::label(c))?;
    }
    doc.add_child(at, Marking::label(END))?;
    Ok(())
}

/// Read a line tree back into symbols.
fn read_line(doc: &Tree, line_parent: NodeId) -> Vec<String> {
    let mut out = Vec::new();
    let mut at = line_parent;
    loop {
        let Some(&c) = doc.children(at).first() else {
            return out;
        };
        let Marking::Label(l) = doc.marking(c) else {
            return out;
        };
        if l.as_str() == END {
            return out;
        }
        out.push(l.as_str().to_string());
        at = c;
    }
}

/// Encode machine + input as a positive AXML system: document `d` holds
/// the initial configuration and one call per transition service.
pub fn encode_tm(tm: &Tm, input: &[&str]) -> Result<System> {
    let mut sys = System::new();
    let mut doc = Tree::with_label("cfgs");
    let root = doc.root();

    // Initial configuration.
    let cfg = doc.add_child(root, Marking::label("cfg"))?;
    let st = doc.add_child(cfg, Marking::label("st"))?;
    doc.add_child(st, Marking::value(&tm.start))?;
    let left = doc.add_child(cfg, Marking::label("left"))?;
    build_line(&mut doc, left, &[])?;
    let right = doc.add_child(cfg, Marking::label("right"))?;
    let cells: Vec<String> = input.iter().map(|s| s.to_string()).collect();
    build_line(&mut doc, right, &cells)?;

    // Transition services. Each transition yields up to four queries
    // covering interior/edge tape cases.
    let mut services: Vec<String> = Vec::new();
    for ((q, a), (q2, b, dir)) in &tm.transitions {
        let mut rules: Vec<String> = Vec::new();
        match dir {
            Dir::R => {
                // Interior: consume `a` from the right line, push `b`
                // onto the left line.
                rules.push(format!(
                    "cfg{{st{{\"{q2}\"}}, left{{{b}{{#L}}}}, right{{#R}}}} :- \
                     d/cfgs{{cfg{{st{{\"{q}\"}}, left{{#L}}, right{{{a}{{#R}}}}}}}}"
                ));
                if a == BLANK {
                    // Head over the implicit blank at the right edge.
                    rules.push(format!(
                        "cfg{{st{{\"{q2}\"}}, left{{{b}{{#L}}}}, right{{{END}}}}} :- \
                         d/cfgs{{cfg{{st{{\"{q}\"}}, left{{#L}}, right{{{END}}}}}}}"
                    ));
                }
            }
            Dir::L => {
                // Interior: the left line's top cell ?c slides back onto
                // the right line, above the freshly written `b`.
                rules.push(format!(
                    "cfg{{st{{\"{q2}\"}}, left{{#L}}, right{{?c{{{b}{{#R}}}}}}}} :- \
                     d/cfgs{{cfg{{st{{\"{q}\"}}, left{{?c{{#L}}}}, right{{{a}{{#R}}}}}}}}"
                ));
                // At the left edge, L stays put.
                rules.push(format!(
                    "cfg{{st{{\"{q2}\"}}, left{{{END}}}, right{{{b}{{#R}}}}}} :- \
                     d/cfgs{{cfg{{st{{\"{q}\"}}, left{{{END}}}, right{{{a}{{#R}}}}}}}}"
                ));
                if a == BLANK {
                    rules.push(format!(
                        "cfg{{st{{\"{q2}\"}}, left{{#L}}, right{{?c{{{b}{{{END}}}}}}}}} :- \
                         d/cfgs{{cfg{{st{{\"{q}\"}}, left{{?c{{#L}}}}, right{{{END}}}}}}}"
                    ));
                    rules.push(format!(
                        "cfg{{st{{\"{q2}\"}}, left{{{END}}}, right{{{b}{{{END}}}}}}} :- \
                         d/cfgs{{cfg{{st{{\"{q}\"}}, left{{{END}}}, right{{{END}}}}}}}"
                    ));
                }
            }
        }
        services.extend(rules);
    }
    for (i, _) in services.iter().enumerate() {
        doc.add_child(root, Marking::func(&format!("step{i}")))?;
    }
    sys.add_document("d", doc)?;
    for (i, text) in services.iter().enumerate() {
        sys.add_service_text(&format!("step{i}"), text)?;
    }
    sys.validate()?;
    Ok(sys)
}

/// Outcome of the AXML simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AxmlTmOutcome {
    /// An accepting configuration was derived; its trimmed tape.
    Accept(Vec<String>),
    /// The system reached a fixpoint without an accepting configuration
    /// (the machine rejected or got stuck).
    Reject,
    /// The engine budget ran out (non-halting machine, or budget too
    /// small).
    Budget,
}

/// Statistics of the AXML simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct AxmlTmStats {
    /// Call visits of the fair rewriting, the invocations charged to
    /// `max_invocations`: the evaluated calls plus those the engine
    /// proved to be no-ops.
    pub invocations: usize,
    /// Configurations accumulated in the document.
    pub configs: usize,
    /// Total live nodes at the end.
    pub nodes: usize,
}

/// Decode every configuration stored in the document.
pub fn decode_configs(sys: &System) -> Vec<Config> {
    let doc = sys.doc(Sym::intern("d")).expect("document d");
    let root = doc.root();
    let mut out = Vec::new();
    for &c in doc.children(root) {
        if doc.marking(c) != Marking::label("cfg") {
            continue;
        }
        let mut state = None;
        let mut left = Vec::new();
        let mut right = Vec::new();
        for &part in doc.children(c) {
            match doc.marking(part) {
                m if m == Marking::label("st") => {
                    if let Some(&v) = doc.children(part).first() {
                        if let Marking::Value(s) = doc.marking(v) {
                            state = Some(s.as_str().to_string());
                        }
                    }
                }
                m if m == Marking::label("left") => left = read_line(doc, part),
                m if m == Marking::label("right") => right = read_line(doc, part),
                _ => {}
            }
        }
        if let Some(state) = state {
            out.push(Config { state, left, right });
        }
    }
    out
}

/// Run the encoded machine under the fair engine and report the result.
pub fn run_axml_tm(
    tm: &Tm,
    input: &[&str],
    max_invocations: usize,
) -> Result<(AxmlTmOutcome, AxmlTmStats)> {
    let mut sys = encode_tm(tm, input)?;
    let cfg = EngineConfig {
        max_invocations,
        ..EngineConfig::default()
    };
    let (status, rstats) = run(&mut sys, &cfg)?;
    let configs = decode_configs(&sys);
    let stats = AxmlTmStats {
        invocations: rstats.invocations + rstats.skipped,
        configs: configs.len(),
        nodes: sys.node_count(),
    };
    // An accepting configuration may appear even before the fixpoint.
    if let Some(acc) = configs.iter().find(|c| c.state == tm.accept) {
        return Ok((AxmlTmOutcome::Accept(acc.tape()), stats));
    }
    match status {
        RunStatus::Terminated => Ok((AxmlTmOutcome::Reject, stats)),
        _ => Ok((AxmlTmOutcome::Budget, stats)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{run as tm_run, Outcome};
    use crate::samples;

    /// The central Lemma 3.1 check: the AXML simulation agrees with the
    /// direct interpreter, machine by machine, input by input.
    #[test]
    fn simulation_agrees_with_interpreter() {
        let cases: Vec<(Tm, Vec<Vec<&str>>)> = vec![
            (
                samples::unary_successor(),
                vec![vec![], vec!["one"], vec!["one", "one", "one"]],
            ),
            (
                samples::even_parity(),
                vec![vec![], vec!["one"], vec!["one", "one"], vec!["one"; 5]],
            ),
            (
                samples::binary_increment(),
                vec![vec!["one", "zero", "one"], vec!["one", "one"], vec!["zero"]],
            ),
        ];
        for (tm, inputs) in cases {
            for input in inputs {
                let (native, _) = tm_run(&tm, &input, 10_000);
                let (axml, _) = run_axml_tm(&tm, &input, 50_000).unwrap();
                match (native, axml) {
                    (Outcome::Accept(t1), AxmlTmOutcome::Accept(t2)) => {
                        assert_eq!(t1, t2, "tape mismatch on {input:?}")
                    }
                    (Outcome::Reject, AxmlTmOutcome::Reject) => {}
                    (n, a) => panic!("mismatch on {input:?}: native {n:?} vs axml {a:?}"),
                }
            }
        }
    }

    #[test]
    fn anbn_via_axml() {
        let tm = samples::anbn();
        let (out, _) = run_axml_tm(&tm, &["a", "b"], 50_000).unwrap();
        assert!(matches!(out, AxmlTmOutcome::Accept(_)));
        let (out, _) = run_axml_tm(&tm, &["a", "a", "b"], 50_000).unwrap();
        assert_eq!(out, AxmlTmOutcome::Reject);
    }

    #[test]
    fn configs_accumulate_monotonically() {
        // The proof's "all the configurations the system goes through are
        // accumulated in a single document".
        let tm = samples::even_parity();
        let (_, stats) = run_axml_tm(&tm, &["one", "one"], 50_000).unwrap();
        // initial + 3 steps (odd, even, accept) = 4 configurations.
        assert_eq!(stats.configs, 4);
    }

    #[test]
    fn non_halting_machine_never_terminates() {
        // Corollary 3.1's hard direction: the spinner produces a fresh
        // configuration forever, so the system exhausts any budget.
        let tm = samples::spinner();
        let (out, stats) = run_axml_tm(&tm, &["one"], 300).unwrap();
        assert_eq!(out, AxmlTmOutcome::Budget);
        assert!(stats.configs > 3);
    }

    #[test]
    fn encoded_system_is_positive_but_not_simple() {
        let sys = encode_tm(&samples::even_parity(), &["one"]).unwrap();
        assert!(sys.is_positive());
        assert!(!sys.is_simple()); // tree variables copy the tape
    }
}
