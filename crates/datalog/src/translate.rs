//! Datalog → simple positive AXML systems (§3.2 / Example 3.2,
//! generalized to n-ary relations).
//!
//! Encoding: one document `db` holds every relation; a tuple
//! `p(v1, …, vk)` becomes the subtree `p{a1{"v1"}, …, ak{"vk"}}` under
//! the root `r` (the paper's binary `t{x, y}` with positional labels so
//! arities mix safely). A second document `out` carries one function
//! node per rule; each rule becomes a simple positive service whose body
//! joins tuple patterns over `db` — mirroring the paper's
//!
//! ```text
//! f : t{x,y} :- d1/r{t{x,z}, t{z,y}}
//! ```
//!
//! Derived tuples land in `out`; to close the loop (recursive rules read
//! their own output), rule services read from *both* documents via a
//! copy service that feeds `db` from `out`.
//!
//! A simpler closure: keep everything in one document. The rules' calls
//! sit in `db` itself, and their results are appended beside them —
//! exactly Example 3.2's `d1` containing both `g`, `f`, and the derived
//! tuples. That is what we implement.

use crate::ast::{Program, Term};
use crate::engine::Database;
use axml_core::engine::{run, EngineConfig, RunStatus};
use axml_core::error::Result;
use axml_core::sym::Sym;
use axml_core::system::System;
use axml_core::tree::{Marking, Tree};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Positional argument label `a<i>`.
fn arg_label(i: usize) -> String {
    format!("a{i}")
}

/// Build the simple positive AXML system simulating `prog`.
///
/// The returned system has a single document `db` whose root carries the
/// base facts as tuple subtrees and one call `@rule<i>` per rule.
pub fn datalog_to_axml(prog: &Program) -> Result<System> {
    let mut sys = System::new();
    // Document: r{ facts…, @rule0, @rule1, … }.
    let mut doc = Tree::with_label("r");
    let root = doc.root();
    for f in &prog.facts {
        let t = doc.add_child(root, Marking::label(&f.pred))?;
        for (i, arg) in f.args.iter().enumerate() {
            let Term::Const(c) = arg else {
                unreachable!("facts are ground")
            };
            let a = doc.add_child(t, Marking::label(&arg_label(i)))?;
            doc.add_child(a, Marking::value(c))?;
        }
    }
    for (i, _) in prog.rules.iter().enumerate() {
        doc.add_child(root, Marking::func(&format!("rule{i}")))?;
    }
    sys.add_document("db", doc)?;

    // One simple positive service per rule.
    for (i, rule) in prog.rules.iter().enumerate() {
        let mut text = String::new();
        let _ = write!(text, "{}", atom_pattern(&rule.head));
        text.push_str(" :- db/r{");
        let body: Vec<String> = rule.body.iter().map(atom_pattern).collect();
        text.push_str(&body.join(", "));
        text.push('}');
        sys.add_service_text(&format!("rule{i}"), &text)?;
    }
    sys.validate()?;
    debug_assert!(sys.is_simple());
    Ok(sys)
}

/// Pattern text for one atom: `p{a0{$X}, a1{"c"}}`.
fn atom_pattern(atom: &crate::ast::Atom) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}", atom.pred);
    out.push('{');
    let args: Vec<String> = atom
        .args
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            Term::Var(v) => format!("{}{{$var_{v}}}", arg_label(i)),
            Term::Const(c) => format!("{}{{{c:?}}}", arg_label(i)),
        })
        .collect();
    out.push_str(&args.join(", "));
    out.push('}');
    out
}

/// Run the AXML simulation to fixpoint and extract the database.
/// Returns the database plus the invocations of the fair rewriting: the
/// engine's call visits, evaluated or skipped as no-ops.
pub fn axml_eval(prog: &Program) -> Result<(Database, usize)> {
    let mut sys = datalog_to_axml(prog)?;
    let (status, stats) = run(&mut sys, &EngineConfig::default())?;
    debug_assert_eq!(status, RunStatus::Terminated);
    Ok((
        extract_database(&sys, prog),
        stats.invocations + stats.skipped,
    ))
}

/// Read tuple subtrees back out of the `db` document.
pub fn extract_database(sys: &System, prog: &Program) -> Database {
    let preds: BTreeMap<String, usize> = prog.predicates();
    let mut db = Database::new();
    for p in preds.keys() {
        db.entry(p.clone()).or_default();
    }
    let doc = sys.doc(Sym::intern("db")).expect("db document");
    let root = doc.root();
    for &t in doc.children(root) {
        let Marking::Label(pred) = doc.marking(t) else {
            continue;
        };
        let Some(&arity) = preds.get(pred.as_str()) else {
            continue;
        };
        let mut tuple: Vec<Option<String>> = vec![None; arity];
        for &a in doc.children(t) {
            let Marking::Label(al) = doc.marking(a) else {
                continue;
            };
            let Some(idx) = al
                .as_str()
                .strip_prefix('a')
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            if idx < arity {
                if let Some(&v) = doc.children(a).first() {
                    if let Marking::Value(val) = doc.marking(v) {
                        tuple[idx] = Some(val.as_str().to_string());
                    }
                }
            }
        }
        if tuple.iter().all(Option::is_some) {
            db.entry(pred.as_str().to_string())
                .or_default()
                .insert(tuple.into_iter().map(Option::unwrap).collect());
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_program;
    use crate::engine::seminaive_eval;

    const TC: &str = r#"
        edge("1","2"). edge("2","3"). edge("3","4").
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
    "#;

    #[test]
    fn axml_simulation_matches_seminaive_on_tc() {
        let prog = parse_program(TC).unwrap();
        let (axml_db, invocations) = axml_eval(&prog).unwrap();
        let (dl_db, _) = seminaive_eval(&prog);
        assert_eq!(axml_db, dl_db);
        assert!(invocations >= 2);
        assert_eq!(axml_db["path"].len(), 6);
    }

    #[test]
    fn ternary_relations() {
        let prog = parse_program(
            r#"
            t("a","b","c"). t("b","c","d").
            chain(X, W) :- t(X, Y, Z), t(Y, Z, W).
        "#,
        )
        .unwrap();
        let (axml_db, _) = axml_eval(&prog).unwrap();
        let (dl_db, _) = seminaive_eval(&prog);
        assert_eq!(axml_db, dl_db);
        assert_eq!(axml_db["chain"].len(), 1);
    }

    #[test]
    fn same_generation() {
        let prog = parse_program(
            r#"
            par("a","c"). par("b","c"). par("c","e"). par("d","e").
            sg(X, Y) :- par(X, Z), par(Y, Z).
            sg(X, Y) :- par(X, U), sg(U, V), par(Y, V).
        "#,
        )
        .unwrap();
        let (axml_db, _) = axml_eval(&prog).unwrap();
        let (dl_db, _) = seminaive_eval(&prog);
        assert_eq!(axml_db, dl_db);
    }

    #[test]
    fn constants_in_rule_bodies() {
        let prog = parse_program(r#"e("1","2"). e("2","3"). from1(Y) :- e("1", Y)."#).unwrap();
        let (axml_db, _) = axml_eval(&prog).unwrap();
        assert_eq!(axml_db["from1"].len(), 1);
        assert!(axml_db["from1"].contains(&vec!["2".to_string()]));
    }

    #[test]
    fn generated_system_is_simple_positive() {
        let prog = parse_program(TC).unwrap();
        let sys = datalog_to_axml(&prog).unwrap();
        assert!(sys.is_simple());
        assert!(sys.is_positive());
        // And the paper's termination decision says it terminates.
        let verdict = axml_core::graphrepr::decide_termination(&sys).unwrap();
        assert_eq!(verdict, axml_core::graphrepr::Termination::Terminates);
    }
}
