//! Bottom-up datalog evaluation: naive and semi-naive fixpoints.
//!
//! The semi-naive engine is the baseline that experiment X4 benchmarks
//! the AXML simulation of Example 3.2 against.

use crate::ast::{Atom, Program, Rule, Term};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A set of ground tuples per predicate.
pub type Database = BTreeMap<String, HashSet<Vec<String>>>;

/// Count all tuples.
pub fn db_size(db: &Database) -> usize {
    db.values().map(HashSet::len).sum()
}

fn seed(prog: &Program) -> Database {
    let mut db = Database::new();
    for (p, _) in prog.predicates() {
        db.entry(p).or_default();
    }
    for f in &prog.facts {
        let tuple: Vec<String> = f
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(_) => unreachable!("facts are ground"),
            })
            .collect();
        db.entry(f.pred.clone()).or_default().insert(tuple);
    }
    db
}

type BindingMap = HashMap<String, String>;

fn match_atom<'a>(
    atom: &Atom,
    db: &'a Database,
    delta: Option<&'a Database>,
    binding: &BindingMap,
) -> Vec<BindingMap> {
    let source: Box<dyn Iterator<Item = &'a Vec<String>>> = match delta {
        Some(d) => Box::new(d.get(&atom.pred).into_iter().flatten()),
        None => Box::new(db.get(&atom.pred).into_iter().flatten()),
    };
    let mut out = Vec::new();
    'tuples: for tuple in source {
        let mut b = binding.clone();
        for (term, val) in atom.args.iter().zip(tuple.iter()) {
            match term {
                Term::Const(c) => {
                    if c != val {
                        continue 'tuples;
                    }
                }
                Term::Var(v) => match b.get(v) {
                    Some(existing) if existing != val => continue 'tuples,
                    Some(_) => {}
                    None => {
                        b.insert(v.clone(), val.clone());
                    }
                },
            }
        }
        out.push(b);
    }
    out
}

fn instantiate(head: &Atom, b: &BindingMap) -> Vec<String> {
    head.args
        .iter()
        .map(|t| match t {
            Term::Const(c) => c.clone(),
            Term::Var(v) => b[v].clone(),
        })
        .collect()
}

/// Apply one rule against `db`, with at most one body atom read from
/// `delta` (semi-naive differentiation); `None` reads everything from
/// `db` (naive).
fn apply_rule(
    rule: &Rule,
    db: &Database,
    delta_at: Option<(usize, &Database)>,
) -> Vec<Vec<String>> {
    let mut bindings: Vec<BindingMap> = vec![BindingMap::new()];
    for (i, atom) in rule.body.iter().enumerate() {
        let use_delta = matches!(delta_at, Some((j, _)) if j == i);
        let mut next = Vec::new();
        for b in &bindings {
            let matches = match (use_delta, delta_at) {
                (true, Some((_, d))) => match_atom(atom, db, Some(d), b),
                _ => match_atom(atom, db, None, b),
            };
            next.extend(matches);
        }
        if next.is_empty() {
            return Vec::new();
        }
        bindings = next;
    }
    bindings
        .iter()
        .map(|b| instantiate(&rule.head, b))
        .collect()
}

/// Statistics of a fixpoint run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalStats {
    /// Fixpoint iterations.
    pub iterations: usize,
    /// Rule applications.
    pub rule_firings: usize,
    /// Derived (new) tuples.
    pub derived: usize,
}

/// Naive bottom-up evaluation: re-derive everything each round.
pub fn naive_eval(prog: &Program) -> (Database, EvalStats) {
    let mut db = seed(prog);
    let mut stats = EvalStats::default();
    loop {
        stats.iterations += 1;
        let mut changed = false;
        for rule in &prog.rules {
            stats.rule_firings += 1;
            for tuple in apply_rule(rule, &db, None) {
                if db.entry(rule.head.pred.clone()).or_default().insert(tuple) {
                    stats.derived += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            return (db, stats);
        }
    }
}

/// Semi-naive evaluation: each round joins with last round's delta.
pub fn seminaive_eval(prog: &Program) -> (Database, EvalStats) {
    let mut db = seed(prog);
    let mut stats = EvalStats::default();
    // Initial delta: everything derivable in one step from the facts.
    let mut delta: Database = Database::new();
    stats.iterations += 1;
    for rule in &prog.rules {
        stats.rule_firings += 1;
        for tuple in apply_rule(rule, &db, None) {
            if db
                .entry(rule.head.pred.clone())
                .or_default()
                .insert(tuple.clone())
            {
                stats.derived += 1;
                delta
                    .entry(rule.head.pred.clone())
                    .or_default()
                    .insert(tuple);
            }
        }
    }
    while db_size(&delta) > 0 {
        stats.iterations += 1;
        let mut next_delta: Database = Database::new();
        for rule in &prog.rules {
            for i in 0..rule.body.len() {
                if !delta.contains_key(&rule.body[i].pred) {
                    continue;
                }
                stats.rule_firings += 1;
                for tuple in apply_rule(rule, &db, Some((i, &delta))) {
                    if db
                        .entry(rule.head.pred.clone())
                        .or_default()
                        .insert(tuple.clone())
                    {
                        stats.derived += 1;
                        next_delta
                            .entry(rule.head.pred.clone())
                            .or_default()
                            .insert(tuple);
                    }
                }
            }
        }
        delta = next_delta;
    }
    (db, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_program;

    const TC: &str = r#"
        edge("1","2"). edge("2","3"). edge("3","4").
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
    "#;

    #[test]
    fn transitive_closure_naive() {
        let prog = parse_program(TC).unwrap();
        let (db, _) = naive_eval(&prog);
        assert_eq!(db["path"].len(), 6);
        assert!(db["path"].contains(&vec!["1".to_string(), "4".to_string()]));
    }

    #[test]
    fn seminaive_agrees_with_naive() {
        for src in [
            TC,
            r#"e("a","b"). e("b","a"). p(X,Y) :- e(X,Y). p(X,Y) :- e(X,Z), p(Z,Y)."#,
            r#"n("0"). s("0","1"). s("1","2"). n(Y) :- n(X), s(X,Y)."#,
            // Same-generation.
            r#"par("a","c"). par("b","c"). par("c","e").
               sg(X,Y) :- par(X,Z), par(Y,Z).
               sg(X,Y) :- par(X,U), sg(U,V), par(Y,V)."#,
        ] {
            let prog = parse_program(src).unwrap();
            let (a, _) = naive_eval(&prog);
            let (b, sn) = seminaive_eval(&prog);
            assert_eq!(a, b, "mismatch for {src}");
            assert!(sn.iterations >= 1);
        }
    }

    #[test]
    fn seminaive_does_less_work_on_chains() {
        let mut src = String::new();
        for i in 0..30 {
            src.push_str(&format!("edge(\"{i}\",\"{}\").\n", i + 1));
        }
        src.push_str("path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y).\n");
        let prog = parse_program(&src).unwrap();
        let (dbn, n) = naive_eval(&prog);
        let (dbs, s) = seminaive_eval(&prog);
        assert_eq!(dbn, dbs);
        assert_eq!(dbn["path"].len(), 31 * 30 / 2);
        // Both engines derive exactly the same set of new tuples…
        assert_eq!(n.derived, s.derived);
        // …in a comparable number of rounds (delta vs full re-derivation).
        assert!(n.iterations >= s.iterations.saturating_sub(1));
    }

    #[test]
    fn constants_in_rules() {
        let prog = parse_program(r#"e("1","2"). e("2","3"). from1(Y) :- e("1", Y)."#).unwrap();
        let (db, _) = seminaive_eval(&prog);
        assert_eq!(db["from1"].len(), 1);
    }

    #[test]
    fn empty_program() {
        let prog = parse_program("").unwrap();
        let (db, stats) = seminaive_eval(&prog);
        assert_eq!(db_size(&db), 0);
        assert_eq!(stats.derived, 0);
    }
}
