//! Nondeterministic finite automata over label alphabets.
//!
//! Built by Thompson's construction from [`Regex`]; ε-transitions can be
//! eliminated ([`Nfa::without_epsilon`]) because the ψ translation of
//! Proposition 5.1 manufactures one AXML service per **labeled** move
//! `δ(q, a) = p`.

use crate::regex::Regex;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// An automaton state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StateId(pub u32);

/// A transition label: a concrete label, the wildcard, or ε.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Move<L> {
    /// Consume one occurrence of this label.
    Label(L),
    /// Consume any one label.
    Any,
    /// Consume nothing.
    Epsilon,
}

/// An NFA over labels `L`.
#[derive(Clone, Debug)]
pub struct Nfa<L> {
    /// Number of states (ids are `0..states`).
    states: u32,
    /// Start state.
    pub start: StateId,
    /// Accepting states.
    pub accept: HashSet<StateId>,
    /// Transitions `(from, move, to)`.
    transitions: Vec<(StateId, Move<L>, StateId)>,
}

impl<L: Clone + Eq + Hash> Nfa<L> {
    /// Thompson construction.
    pub fn from_regex(r: &Regex<L>) -> Nfa<L> {
        let mut nfa = Nfa {
            states: 0,
            start: StateId(0),
            accept: HashSet::new(),
            transitions: Vec::new(),
        };
        let (s, f) = nfa.build(r);
        nfa.start = s;
        nfa.accept.insert(f);
        nfa
    }

    fn fresh(&mut self) -> StateId {
        let id = StateId(self.states);
        self.states += 1;
        id
    }

    fn build(&mut self, r: &Regex<L>) -> (StateId, StateId) {
        match r {
            Regex::Epsilon => {
                let s = self.fresh();
                let f = self.fresh();
                self.transitions.push((s, Move::Epsilon, f));
                (s, f)
            }
            Regex::Label(l) => {
                let s = self.fresh();
                let f = self.fresh();
                self.transitions.push((s, Move::Label(l.clone()), f));
                (s, f)
            }
            Regex::Any => {
                let s = self.fresh();
                let f = self.fresh();
                self.transitions.push((s, Move::Any, f));
                (s, f)
            }
            Regex::Concat(a, b) => {
                let (sa, fa) = self.build(a);
                let (sb, fb) = self.build(b);
                self.transitions.push((fa, Move::Epsilon, sb));
                (sa, fb)
            }
            Regex::Alt(a, b) => {
                let s = self.fresh();
                let f = self.fresh();
                let (sa, fa) = self.build(a);
                let (sb, fb) = self.build(b);
                self.transitions.push((s, Move::Epsilon, sa));
                self.transitions.push((s, Move::Epsilon, sb));
                self.transitions.push((fa, Move::Epsilon, f));
                self.transitions.push((fb, Move::Epsilon, f));
                (s, f)
            }
            Regex::Star(a) => {
                let s = self.fresh();
                let f = self.fresh();
                let (sa, fa) = self.build(a);
                self.transitions.push((s, Move::Epsilon, sa));
                self.transitions.push((s, Move::Epsilon, f));
                self.transitions.push((fa, Move::Epsilon, sa));
                self.transitions.push((fa, Move::Epsilon, f));
                (s, f)
            }
        }
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states as usize
    }

    /// All transitions.
    pub fn transitions(&self) -> &[(StateId, Move<L>, StateId)] {
        &self.transitions
    }

    /// ε-closure of a state set.
    pub fn eps_closure(&self, set: &HashSet<StateId>) -> HashSet<StateId> {
        let mut out = set.clone();
        let mut stack: Vec<StateId> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for (from, mv, to) in &self.transitions {
                if *from == s && matches!(mv, Move::Epsilon) && out.insert(*to) {
                    stack.push(*to);
                }
            }
        }
        out
    }

    /// One labeled step from a state set.
    pub fn step(&self, set: &HashSet<StateId>, label: &L) -> HashSet<StateId> {
        let mut out = HashSet::new();
        for (from, mv, to) in &self.transitions {
            if set.contains(from) {
                match mv {
                    Move::Label(l) if l == label => {
                        out.insert(*to);
                    }
                    Move::Any => {
                        out.insert(*to);
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Does the automaton accept `word`?
    pub fn accepts(&self, word: &[L]) -> bool {
        let mut current = self.eps_closure(&HashSet::from([self.start]));
        for l in word {
            current = self.eps_closure(&self.step(&current, l));
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|s| self.accept.contains(s))
    }

    /// Equivalent NFA with no ε-transitions (same state space; labeled
    /// transitions completed through closures; accepting states extended
    /// to those whose closure accepts).
    pub fn without_epsilon(&self) -> Nfa<L> {
        let mut closures: HashMap<StateId, HashSet<StateId>> = HashMap::new();
        for s in 0..self.states {
            let sid = StateId(s);
            closures.insert(sid, self.eps_closure(&HashSet::from([sid])));
        }
        let mut transitions: Vec<(StateId, Move<L>, StateId)> = Vec::new();
        for s in 0..self.states {
            let sid = StateId(s);
            for mid in &closures[&sid] {
                for (from, mv, to) in &self.transitions {
                    if from == mid && !matches!(mv, Move::Epsilon) {
                        let entry = (sid, mv.clone(), *to);
                        if !transitions.contains(&entry) {
                            transitions.push(entry);
                        }
                    }
                }
            }
        }
        let mut accept: HashSet<StateId> = HashSet::new();
        for s in 0..self.states {
            let sid = StateId(s);
            if closures[&sid].iter().any(|m| self.accept.contains(m)) {
                accept.insert(sid);
            }
        }
        Nfa {
            states: self.states,
            start: self.start,
            accept,
            transitions,
        }
    }

    /// States reachable from the start via any transitions.
    pub fn reachable_states(&self) -> HashSet<StateId> {
        let mut out = HashSet::from([self.start]);
        let mut stack = vec![self.start];
        while let Some(s) = stack.pop() {
            for (from, _, to) in &self.transitions {
                if *from == s && out.insert(*to) {
                    stack.push(*to);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parse_regex;

    fn accepts(expr: &str, word: &[&str]) -> bool {
        let r = parse_regex(expr).unwrap();
        let nfa = Nfa::from_regex(&r);
        let w: Vec<String> = word.iter().map(|s| s.to_string()).collect();
        let plain = nfa.accepts(&w);
        // ε-free variant must agree.
        assert_eq!(
            nfa.without_epsilon().accepts(&w),
            plain,
            "ε-free disagrees on {expr}"
        );
        plain
    }

    #[test]
    fn basic_acceptance() {
        assert!(accepts("a", &["a"]));
        assert!(!accepts("a", &["b"]));
        assert!(!accepts("a", &[]));
        assert!(accepts("a.b", &["a", "b"]));
        assert!(!accepts("a.b", &["a"]));
    }

    #[test]
    fn star_plus_opt() {
        assert!(accepts("a*", &[]));
        assert!(accepts("a*", &["a", "a", "a"]));
        assert!(!accepts("a+", &[]));
        assert!(accepts("a+", &["a"]));
        assert!(accepts("a?", &[]));
        assert!(accepts("a?", &["a"]));
        assert!(!accepts("a?", &["a", "a"]));
    }

    #[test]
    fn alternation_and_grouping() {
        assert!(accepts("a.(b|c)*.d", &["a", "d"]));
        assert!(accepts("a.(b|c)*.d", &["a", "b", "c", "b", "d"]));
        assert!(!accepts("a.(b|c)*.d", &["a", "x", "d"]));
    }

    #[test]
    fn wildcard() {
        assert!(accepts("_", &["anything"]));
        assert!(accepts("_*.rating", &["a", "b", "rating"]));
        assert!(accepts("_*.rating", &["rating"]));
        assert!(!accepts("_*.rating", &["a", "b"]));
    }

    #[test]
    fn epsilon_elimination_structure() {
        let r = parse_regex("a.(b|c)*").unwrap();
        let nfa = Nfa::from_regex(&r);
        let ef = nfa.without_epsilon();
        assert!(ef
            .transitions()
            .iter()
            .all(|(_, mv, _)| !matches!(mv, Move::Epsilon)));
        // Same language spot-checks.
        for w in [vec!["a"], vec!["a", "b"], vec!["a", "c", "b"]] {
            let word: Vec<String> = w.iter().map(|s| s.to_string()).collect();
            assert!(ef.accepts(&word));
        }
        assert!(!ef.accepts(&["b".to_string()]));
    }

    #[test]
    fn reachable_states_cover_used_automaton() {
        let r = parse_regex("a.b|c").unwrap();
        let nfa = Nfa::from_regex(&r);
        let reach = nfa.reachable_states();
        assert!(reach.contains(&nfa.start));
        assert!(reach.len() <= nfa.state_count());
    }
}
