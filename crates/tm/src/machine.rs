//! Deterministic single-tape Turing machines with a semi-infinite tape,
//! and a direct step interpreter (the baseline of experiment X6).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Head movement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Left (at the left edge: stay, conventionally).
    L,
    /// Right.
    R,
}

/// A deterministic Turing machine. States and symbols are identifier
/// strings; the blank symbol is `"blank"` by convention, and the
/// reserved names used by the AXML encoding (`cfg`, `st`, `left`,
/// `right`, `end`) may not be tape symbols.
#[derive(Clone, Debug)]
pub struct Tm {
    /// Start state.
    pub start: String,
    /// Accepting state (halts).
    pub accept: String,
    /// Rejecting state (halts), if distinguished.
    pub reject: Option<String>,
    /// δ: (state, read) → (state, write, move), in key order, so the
    /// AXML encoding lists its services in one order in every process.
    pub transitions: BTreeMap<(String, String), (String, String, Dir)>,
}

/// The blank symbol.
pub const BLANK: &str = "blank";

const RESERVED: &[&str] = &["cfg", "st", "left", "right", "end"];

impl Tm {
    /// Construct and validate a machine.
    pub fn new(
        start: &str,
        accept: &str,
        reject: Option<&str>,
        transitions: &[(&str, &str, &str, &str, Dir)],
    ) -> Tm {
        let mut map = BTreeMap::new();
        for (q, a, q2, b, d) in transitions {
            assert!(
                !RESERVED.contains(a) && !RESERVED.contains(b),
                "symbol collides with an encoding-reserved name"
            );
            map.insert(
                (q.to_string(), a.to_string()),
                (q2.to_string(), b.to_string(), *d),
            );
        }
        Tm {
            start: start.to_string(),
            accept: accept.to_string(),
            reject: reject.map(str::to_string),
            transitions: map,
        }
    }

    /// All states mentioned.
    pub fn states(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        out.insert(self.start.clone());
        out.insert(self.accept.clone());
        if let Some(r) = &self.reject {
            out.insert(r.clone());
        }
        for ((q, _), (q2, _, _)) in &self.transitions {
            out.insert(q.clone());
            out.insert(q2.clone());
        }
        out
    }

    /// All tape symbols mentioned (plus blank).
    pub fn symbols(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        out.insert(BLANK.to_string());
        for ((_, a), (_, b, _)) in &self.transitions {
            out.insert(a.clone());
            out.insert(b.clone());
        }
        out
    }

    /// Is `q` a halting state?
    pub fn is_halting(&self, q: &str) -> bool {
        q == self.accept || self.reject.as_deref() == Some(q)
    }
}

/// A configuration: state, the tape left of the head (top = adjacent),
/// and the tape from the head rightward.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Config {
    /// Current state.
    pub state: String,
    /// Cells left of the head, nearest first.
    pub left: Vec<String>,
    /// Cells from the head rightward; empty means all-blank.
    pub right: Vec<String>,
}

impl Config {
    /// Initial configuration over `input`.
    pub fn initial(tm: &Tm, input: &[&str]) -> Config {
        Config {
            state: tm.start.clone(),
            left: Vec::new(),
            right: input.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The symbol under the head.
    pub fn head(&self) -> &str {
        self.right.first().map(String::as_str).unwrap_or(BLANK)
    }

    /// The tape content with trailing blanks trimmed (left to right).
    pub fn tape(&self) -> Vec<String> {
        let mut out: Vec<String> = self.left.iter().rev().cloned().collect();
        out.extend(self.right.iter().cloned());
        while out.last().map(String::as_str) == Some(BLANK) {
            out.pop();
        }
        out
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in self.left.iter().rev() {
            write!(f, "{s} ")?;
        }
        write!(f, "[{}] ", self.state)?;
        for s in &self.right {
            write!(f, "{s} ")?;
        }
        Ok(())
    }
}

/// The result of running a machine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Reached the accept state; the final tape is attached.
    Accept(Vec<String>),
    /// Reached the reject state (or had no applicable transition).
    Reject,
    /// Step budget exhausted.
    Timeout,
}

/// One step. `None` when halted or stuck.
pub fn step(tm: &Tm, c: &Config) -> Option<Config> {
    if tm.is_halting(&c.state) {
        return None;
    }
    let read = c.head().to_string();
    let (q2, write, dir) = tm.transitions.get(&(c.state.clone(), read))?.clone();
    let mut left = c.left.clone();
    let mut right = c.right.clone();
    if right.is_empty() {
        right.push(BLANK.to_string());
    }
    right[0] = write;
    match dir {
        Dir::R => {
            let moved = right.remove(0);
            left.insert(0, moved);
        }
        Dir::L => {
            if let Some(cell) = left.first().cloned() {
                left.remove(0);
                right.insert(0, cell);
            }
            // At the left edge L means stay (right unchanged).
        }
    }
    while right.last().map(String::as_str) == Some(BLANK) {
        right.pop();
    }
    Some(Config {
        state: q2,
        left,
        right,
    })
}

/// Run to a halting state or the step budget.
pub fn run(tm: &Tm, input: &[&str], max_steps: usize) -> (Outcome, usize) {
    let mut c = Config::initial(tm, input);
    for steps in 0..max_steps {
        if c.state == tm.accept {
            return (Outcome::Accept(c.tape()), steps);
        }
        if tm.is_halting(&c.state) {
            return (Outcome::Reject, steps);
        }
        match step(tm, &c) {
            Some(next) => c = next,
            None => {
                return if c.state == tm.accept {
                    (Outcome::Accept(c.tape()), steps)
                } else {
                    (Outcome::Reject, steps)
                }
            }
        }
    }
    if c.state == tm.accept {
        return (Outcome::Accept(c.tape()), max_steps);
    }
    (Outcome::Timeout, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn unary_successor_appends_a_one() {
        let tm = samples::unary_successor();
        let (out, _) = run(&tm, &["one", "one"], 100);
        assert_eq!(
            out,
            Outcome::Accept(vec!["one".into(), "one".into(), "one".into()])
        );
        let (out, _) = run(&tm, &[], 100);
        assert_eq!(out, Outcome::Accept(vec!["one".into()]));
    }

    #[test]
    fn parity_machine() {
        let tm = samples::even_parity();
        for (n, expect) in [(0, true), (1, false), (2, true), (5, false), (8, true)] {
            let input: Vec<&str> = std::iter::repeat_n("one", n).collect();
            let (out, _) = run(&tm, &input, 1000);
            let accepted = matches!(out, Outcome::Accept(_));
            assert_eq!(accepted, expect, "parity of {n}");
        }
    }

    #[test]
    fn anbn_recognizer() {
        let tm = samples::anbn();
        let word = |a: usize, b: usize| -> Vec<&'static str> {
            std::iter::repeat_n("a", a)
                .chain(std::iter::repeat_n("b", b))
                .collect()
        };
        for (a, b, expect) in [
            (0, 0, true),
            (1, 1, true),
            (3, 3, true),
            (2, 1, false),
            (1, 2, false),
            (0, 2, false),
        ] {
            let (out, _) = run(&tm, &word(a, b), 10_000);
            let accepted = matches!(out, Outcome::Accept(_));
            assert_eq!(accepted, expect, "a^{a} b^{b}");
        }
        // b before a is rejected.
        let (out, _) = run(&tm, &["b", "a"], 10_000);
        assert!(matches!(out, Outcome::Reject));
    }

    #[test]
    fn binary_increment() {
        let tm = samples::binary_increment();
        // LSB-first: 1 0 1 (=5) + 1 → 0 1 1 (=6).
        let (out, _) = run(&tm, &["one", "zero", "one"], 1000);
        assert_eq!(
            out,
            Outcome::Accept(vec!["zero".into(), "one".into(), "one".into()])
        );
        // 1 1 (=3) + 1 → 0 0 1 (=4): carries past the end.
        let (out, _) = run(&tm, &["one", "one"], 1000);
        assert_eq!(
            out,
            Outcome::Accept(vec!["zero".into(), "zero".into(), "one".into()])
        );
    }

    #[test]
    fn looping_machine_times_out() {
        let tm = samples::spinner();
        let (out, steps) = run(&tm, &["one"], 250);
        assert_eq!(out, Outcome::Timeout);
        assert_eq!(steps, 250);
    }

    #[test]
    fn reserved_symbols_panic() {
        let caught = std::panic::catch_unwind(|| {
            Tm::new("q0", "qa", None, &[("q0", "cfg", "qa", "cfg", Dir::R)])
        });
        assert!(caught.is_err());
    }
}
