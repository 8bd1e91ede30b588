//! Random simple positive systems, for differential testing.
//!
//! Theorem 3.3's decision procedure and the rewriting engine are two
//! independent implementations of the same semantics; generating random
//! simple systems and cross-checking them (termination verdict vs.
//! bounded execution; graph unfolding vs. engine fixpoint) is the
//! strongest correctness check this reproduction has. The generator is
//! deterministic in its seed.

use crate::pattern::{PItem, Pattern};
use crate::query::{Atom, Query};
use crate::sym::Sym;
use crate::system::System;
use crate::tree::{Marking, NodeId, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator knobs.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Number of documents.
    pub docs: usize,
    /// Number of services.
    pub services: usize,
    /// Distinct labels.
    pub labels: usize,
    /// Distinct atomic values.
    pub values: usize,
    /// Nodes per document (approximate).
    pub doc_nodes: usize,
    /// Probability that a service head contains a function call
    /// (the recursion/divergence driver).
    pub head_call_prob: f64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            docs: 2,
            services: 3,
            labels: 3,
            values: 3,
            doc_nodes: 8,
            head_call_prob: 0.3,
        }
    }
}

fn label(i: usize) -> Marking {
    Marking::label(&format!("l{i}"))
}

fn value(i: usize) -> Marking {
    Marking::value(&format!("{i}"))
}

fn func(i: usize) -> Marking {
    Marking::func(&format!("f{i}"))
}

/// Generate a random simple positive system. The result always passes
/// [`System::validate`] and [`System::is_simple`].
pub fn random_simple_system(cfg: &GenConfig, seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = System::new();

    // Documents: random trees with labels, values, and function nodes.
    for d in 0..cfg.docs {
        let mut t = Tree::new(label(rng.gen_range(0..cfg.labels)));
        let mut interior: Vec<NodeId> = vec![t.root()];
        while t.node_count() < cfg.doc_nodes {
            let parent = interior[rng.gen_range(0..interior.len())];
            let roll: f64 = rng.gen();
            let m = if roll < 0.15 {
                func(rng.gen_range(0..cfg.services))
            } else if roll < 0.4 {
                value(rng.gen_range(0..cfg.values))
            } else {
                label(rng.gen_range(0..cfg.labels))
            };
            if let Ok(id) = t.add_child(parent, m) {
                if !t.marking(id).is_value() && !t.marking(id).is_func() {
                    interior.push(id);
                }
            }
        }
        sys.add_document(&format!("d{d}"), t)
            .expect("generated doc is valid");
    }

    // Services: simple queries. Body: 0–2 atoms over stored documents or
    // context; patterns of depth <= 2 with value variables. Head: a
    // small pattern over the body's variables, possibly with a call.
    for s in 0..cfg.services {
        let atom_count = rng.gen_range(0..=2usize);
        let mut body: Vec<Atom> = Vec::new();
        let mut vars: Vec<Sym> = Vec::new();
        for a in 0..atom_count {
            let over_context = rng.gen_bool(0.25);
            let doc = if over_context {
                crate::system::context_sym()
            } else {
                Sym::intern(&format!("d{}", rng.gen_range(0..cfg.docs)))
            };
            // Pattern: root label (label var allowed for context, whose
            // root marking is unknown), one or two children, one of
            // which binds a value variable.
            let root_item = if over_context {
                PItem::LabelVar(Sym::intern(&format!("r{s}_{a}")))
            } else {
                PItem::Const(label(rng.gen_range(0..cfg.labels)))
            };
            let mut p = Pattern::new(root_item);
            let proot = p.root();
            let kid = p
                .add_child(proot, PItem::Const(label(rng.gen_range(0..cfg.labels))))
                .expect("label roots take children");
            let var = Sym::intern(&format!("x{s}_{a}"));
            if rng.gen_bool(0.7) {
                p.add_child(kid, PItem::ValueVar(var)).expect("leaf");
                vars.push(var);
            } else {
                p.add_child(kid, PItem::Const(value(rng.gen_range(0..cfg.values))))
                    .expect("leaf");
            }
            body.push(Atom { doc, pattern: p });
        }
        // Head: label root; children drawn from bound vars / constants /
        // possibly a function call.
        let mut head = Pattern::new(PItem::Const(label(rng.gen_range(0..cfg.labels))));
        let hroot = head.root();
        let kids = rng.gen_range(1..=2usize);
        for _ in 0..kids {
            if !vars.is_empty() && rng.gen_bool(0.6) {
                let v = vars[rng.gen_range(0..vars.len())];
                let wrap = head
                    .add_child(hroot, PItem::Const(label(rng.gen_range(0..cfg.labels))))
                    .expect("labels take children");
                head.add_child(wrap, PItem::ValueVar(v)).expect("leaf");
            } else {
                head.add_child(hroot, PItem::Const(value(rng.gen_range(0..cfg.values))))
                    .expect("leaf");
            }
        }
        if rng.gen_bool(cfg.head_call_prob) {
            head.add_child(hroot, PItem::Const(func(rng.gen_range(0..cfg.services))))
                .expect("labels take children");
        }
        let q = Query::new(head, body, Vec::new()).expect("generated query is safe");
        debug_assert!(q.is_simple());
        sys.add_service(&format!("f{s}"), q).expect("fresh name");
    }
    sys.validate().expect("generated system validates");
    sys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = random_simple_system(&GenConfig::default(), 7);
        let b = random_simple_system(&GenConfig::default(), 7);
        assert_eq!(a.canonical_key(), b.canonical_key());
        // A different seed must still generate a valid system; its key
        // usually (but not provably) differs, so only build it.
        let c = random_simple_system(&GenConfig::default(), 8);
        c.validate().expect("seed 8 generates a valid system");
    }

    #[test]
    fn generated_systems_are_simple_and_valid() {
        for seed in 0..30u64 {
            let sys = random_simple_system(&GenConfig::default(), seed);
            assert!(sys.is_simple());
            assert!(sys.is_positive());
            sys.validate().unwrap();
        }
    }
}
