//! Workload generators for the datalog/AXML comparison (experiment X4).

use crate::ast::{parse_program, Program};
use std::fmt::Write as _;

/// Transitive closure over a chain `0 → 1 → … → n`.
pub fn chain_tc(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        let _ = writeln!(src, "edge(\"{i}\",\"{}\").", i + 1);
    }
    src.push_str("path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n");
    parse_program(&src).expect("generated program parses")
}

/// Transitive closure over a cycle of length `n`.
pub fn cycle_tc(n: usize) -> Program {
    let mut src = String::new();
    for i in 0..n {
        let _ = writeln!(src, "edge(\"{i}\",\"{}\").", (i + 1) % n);
    }
    src.push_str("path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n");
    parse_program(&src).expect("generated program parses")
}

/// Transitive closure over a random digraph with `n` nodes and `m` edges
/// (deterministic given `seed`).
pub fn random_tc(n: usize, m: usize, seed: u64) -> Program {
    let mut src = String::new();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut edges = std::collections::BTreeSet::new();
    while edges.len() < m {
        let a = (next() as usize) % n;
        let b = (next() as usize) % n;
        if a != b {
            edges.insert((a, b));
        }
    }
    for (a, b) in edges {
        let _ = writeln!(src, "edge(\"{a}\",\"{b}\").");
    }
    src.push_str("path(X,Y) :- edge(X,Y).\npath(X,Y) :- edge(X,Z), path(Z,Y).\n");
    parse_program(&src).expect("generated program parses")
}

/// Same-generation over a balanced binary ancestor tree of the given
/// depth — the classic recursive workload with a non-linear rule.
pub fn same_generation(depth: usize) -> Program {
    let mut src = String::new();
    let mut id = 0usize;
    // Node i has children 2i+1, 2i+2 up to the depth.
    let max = (1usize << (depth + 1)) - 1;
    while 2 * id + 2 < max {
        let _ = writeln!(src, "par(\"{}\",\"{id}\").", 2 * id + 1);
        let _ = writeln!(src, "par(\"{}\",\"{id}\").", 2 * id + 2);
        id += 1;
    }
    src.push_str("sg(X,Y) :- par(X,Z), par(Y,Z).\nsg(X,Y) :- par(X,U), sg(U,V), par(Y,V).\n");
    parse_program(&src).expect("generated program parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::seminaive_eval;

    #[test]
    fn chain_closure_size() {
        let (db, _) = seminaive_eval(&chain_tc(10));
        assert_eq!(db["path"].len(), 11 * 10 / 2);
    }

    #[test]
    fn cycle_closure_is_complete() {
        let (db, _) = seminaive_eval(&cycle_tc(6));
        assert_eq!(db["path"].len(), 36);
    }

    #[test]
    fn random_is_deterministic() {
        let a = random_tc(12, 20, 7);
        let b = random_tc(12, 20, 7);
        assert_eq!(a.to_string(), b.to_string());
        let c = random_tc(12, 20, 8);
        assert_ne!(a.to_string(), c.to_string());
    }

    #[test]
    fn same_generation_contains_siblings() {
        let (db, _) = seminaive_eval(&same_generation(3));
        assert!(db["sg"].contains(&vec!["1".to_string(), "2".to_string()]));
    }
}
