//! Property-based tests of the core invariants (proptest).
//!
//! Random AXML trees exercise Proposition 2.1 (reduction/subsumption),
//! §2.1's lattice structure (lub), and Proposition 3.1 (snapshot
//! monotonicity) on arbitrary inputs rather than hand-picked ones.

use positive_axml::core::display::compact_at;
use positive_axml::core::eval::{instantiate_head, snapshot, snapshot_with_stats, Env};
use positive_axml::core::forest::Forest;
use positive_axml::core::matcher::match_pattern;
use positive_axml::core::query::parse_query;
use positive_axml::core::reduce::{
    canonical_key, is_reduced, lub, reduce, reduce_in_place, CanonKey,
};
use positive_axml::core::subsume::{subsumed_within, SubMemo};
use positive_axml::core::{
    equivalent, parse_document, subsumed, Marking, NodeId, Sym, System, Tree,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random tree over a tiny alphabet (labels a-d, values "0"/"1",
/// function f) — small alphabets maximize sibling collisions, which is
/// where reduction is interesting.
fn arb_tree() -> impl Strategy<Value = Tree> {
    arb_tree_shaped(4, 4, 24)
}

/// Wide groups of same-label siblings over two labels, so that most
/// sibling pairs are comparable and reduction prunes in every direction.
fn arb_wide_tree() -> impl Strategy<Value = Tree> {
    arb_tree_shaped(2, 9, 64)
}

/// A random tree over `labels` labels `l0`, `l1`, …, at most 4 levels
/// deep, with fewer than `width` children per label node and about `size`
/// nodes in all.
fn arb_tree_shaped(labels: u8, width: usize, size: u32) -> impl Strategy<Value = Tree> {
    // Recursive structure: a node is (marking index, children).
    #[derive(Clone, Debug)]
    enum Spec {
        Label(u8, Vec<Spec>),
        Value(u8),
        Func(u8, Vec<Spec>),
    }
    let leaf = prop_oneof![
        (0u8..labels).prop_map(|l| Spec::Label(l, vec![])),
        (0u8..2).prop_map(Spec::Value),
        (0u8..2).prop_map(|f| Spec::Func(f, vec![])),
    ];
    let node = leaf.prop_recursive(4, size, width as u32, move |inner| {
        prop_oneof![
            (
                (0u8..labels),
                prop::collection::vec(inner.clone(), 0..width)
            )
                .prop_map(|(l, cs)| Spec::Label(l, cs)),
            ((0u8..2), prop::collection::vec(inner, 0..3)).prop_map(|(f, cs)| Spec::Func(f, cs)),
            (0u8..2).prop_map(Spec::Value),
        ]
    });
    // Root must be a label.
    ((0u8..labels), prop::collection::vec(node, 0..width)).prop_map(|(l, cs)| {
        fn build(t: &mut Tree, parent: NodeId, s: &Spec) {
            match s {
                Spec::Label(l, cs) => {
                    let id = t
                        .add_child(parent, Marking::label(&format!("l{l}")))
                        .unwrap();
                    for c in cs {
                        build(t, id, c);
                    }
                }
                Spec::Value(v) => {
                    t.add_child(parent, Marking::value(&format!("{v}")))
                        .unwrap();
                }
                Spec::Func(f, cs) => {
                    let id = t
                        .add_child(parent, Marking::func(&format!("f{f}")))
                        .unwrap();
                    for c in cs {
                        build(t, id, c);
                    }
                }
            }
        }
        let mut t = Tree::new(Marking::label(&format!("l{l}")));
        let root = t.root();
        for c in &cs {
            build(&mut t, root, c);
        }
        t
    })
}

/// Brute-force survivors of in-place reduction: a node survives iff it and
/// each of its ancestors are, among their siblings in `t`, neither strictly
/// subsumed by a sibling nor equivalent to an older (lower-id) one. Plain,
/// unfiltered `subsumed_within` over every sibling pair.
fn reference_survivors(t: &Tree) -> BTreeSet<NodeId> {
    let mut memo = SubMemo::new();
    let mut keep = BTreeSet::new();
    let mut stack = vec![t.root()];
    while let Some(n) = stack.pop() {
        keep.insert(n);
        let kids = t.children(n);
        for &x in kids {
            let beaten = kids.iter().any(|&y| {
                y != x
                    && subsumed_within(t, x, y, &mut memo)
                    && (y < x || !subsumed_within(t, y, x, &mut memo))
            });
            if !beaten {
                stack.push(x);
            }
        }
    }
    keep
}

/// Brute-force forest reduction, as the definition reads: reduce every
/// tree, then keep the first tree of each equivalence class unless some
/// other tree strictly subsumes it. Plain, unfiltered `subsumed` over every
/// ordered pair. Returns the survivors' canonical keys, in order.
fn reference_forest_keys(trees: &[Tree]) -> Vec<CanonKey> {
    let reduced: Vec<Tree> = trees.iter().map(reduce).collect();
    let mut keys: Vec<CanonKey> = Vec::new();
    for (i, t) in reduced.iter().enumerate() {
        let key = canonical_key(t);
        let strictly_below = reduced
            .iter()
            .enumerate()
            .any(|(j, u)| i != j && subsumed(t, u) && !subsumed(u, t));
        if !keys.contains(&key) && !strictly_below {
            keys.push(key);
        }
    }
    keys
}

/// Canonical keys of a forest's trees, in order.
fn forest_keys(f: &Forest) -> Vec<CanonKey> {
    f.trees().iter().map(canonical_key).collect()
}

/// `t` with every node's children in reverse order: an isomorphic copy
/// whose children come in a different order.
fn reversed(t: &Tree) -> Tree {
    fn go(t: &Tree, n: NodeId, out: &mut Tree, on: NodeId) {
        for &c in t.children(n).iter().rev() {
            let oc = out.add_child(on, t.marking(c)).unwrap();
            go(t, c, out, oc);
        }
    }
    let mut out = Tree::new(t.marking(t.root()));
    let root = out.root();
    go(t, t.root(), &mut out, root);
    out
}

/// A forest of 0–12 trees that has duplicates, equivalent but different
/// trees, and strictly subsumed pairs: each random tree is followed, later
/// in the forest, by a copy, its reduced version, a copy missing its first
/// child, a copy with an extra child, a copy with its children permuted,
/// or a clone whose first child is removed and re-grown with an extra
/// leaf. Clones keep their `Tree::id`, so the mutated ones are different
/// content under the same id.
fn arb_forest() -> impl Strategy<Value = Vec<Tree>> {
    let specs = prop::collection::vec((arb_tree(), 0u8..7), 0..=6);
    (specs, 0usize..12).prop_map(|(specs, rot)| {
        let mut trees: Vec<Tree> = specs.iter().map(|(t, _)| t.clone()).collect();
        for (t, kind) in &specs {
            let mut v = t.clone();
            let root = v.root();
            match kind {
                0 => {}
                1 => v = reduce(t),
                2 => match v.children(root).first() {
                    Some(&c) => v.remove_subtree(c).unwrap(),
                    None => continue,
                },
                3 => {
                    v.add_child(root, Marking::label("extra")).unwrap();
                }
                4 => v = reversed(t),
                5 => match t.children(root).first() {
                    Some(&c) if !t.marking(c).is_value() => {
                        v.remove_subtree(c).unwrap();
                        let regrown = t.copy_subtree_into(c, &mut v, root);
                        v.add_child(regrown, Marking::label("extra")).unwrap();
                    }
                    _ => continue,
                },
                _ => continue,
            }
            trees.push(v);
        }
        if !trees.is_empty() {
            let k = rot % trees.len();
            trees.rotate_left(k);
        }
        trees
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Prop 2.1 (2), at node level: `reduce_in_place` keeps exactly the
    /// oldest member of each maximal sibling class, recursively — the
    /// node ids the brute-force reference keeps, and no others.
    #[test]
    fn reduce_in_place_keeps_reference_survivors(t in arb_wide_tree()) {
        let mut r = t.clone();
        reduce_in_place(&mut r);
        let live: BTreeSet<NodeId> = r.iter_live(r.root()).collect();
        prop_assert_eq!(live, reference_survivors(&t));
        prop_assert!(is_reduced(&r));
        prop_assert!(equivalent(&t, &r));
    }

    /// §2.1 forest reduction: `Forest::reduce` keeps exactly the trees,
    /// in the order, of the all-pairs definition.
    #[test]
    fn forest_reduce_matches_all_pairs_reference(trees in arb_forest()) {
        let forest = Forest::from_trees(trees.clone());
        prop_assert_eq!(forest_keys(&forest.reduce()), reference_forest_keys(&trees));
    }

    /// Prop 2.1 (2): reduction yields an equivalent, reduced tree, and
    /// is idempotent.
    #[test]
    fn reduction_sound_and_idempotent(t in arb_tree()) {
        let r = reduce(&t);
        prop_assert!(equivalent(&t, &r));
        prop_assert!(is_reduced(&r));
        let rr = reduce(&r);
        prop_assert_eq!(canonical_key(&r), canonical_key(&rr));
    }

    /// Prop 2.1 (2): equivalent trees have identical canonical keys —
    /// built here by shuffling child insertion through an extra reduce
    /// and by duplicating subtrees (which reduction absorbs).
    #[test]
    fn canonical_keys_respect_equivalence(t in arb_tree()) {
        // Duplicate the first child (if any): equivalent by definition.
        let mut dup = t.clone();
        if let Some(&c) = dup.children(dup.root()).first() {
            let copy = dup.subtree(c);
            let root = dup.root();
            dup.graft(root, &copy).unwrap();
        }
        prop_assert!(equivalent(&t, &dup));
        prop_assert_eq!(canonical_key(&t), canonical_key(&dup));
    }

    /// Prop 2.1 (1): subsumption is reflexive and transitive on random
    /// triples (transitivity checked when premises hold).
    #[test]
    fn subsumption_preorder(a in arb_tree(), b in arb_tree(), c in arb_tree()) {
        prop_assert!(subsumed(&a, &a));
        if subsumed(&a, &b) && subsumed(&b, &c) {
            prop_assert!(subsumed(&a, &c));
        }
    }

    /// §2.1: `lub` is an upper bound and least among upper bounds of the
    /// same root marking.
    #[test]
    fn lub_is_least_upper_bound(a in arb_tree(), b in arb_tree()) {
        // Force comparable roots by re-rooting b onto a's root marking.
        let mut b2 = Tree::new(a.marking(a.root()));
        let b2root = b2.root();
        b.copy_children_into(b.root(), &mut b2, b2root);
        let u = lub(&a, &b2).unwrap();
        prop_assert!(subsumed(&a, &u));
        prop_assert!(subsumed(&b2, &u));
        // Any other upper bound dominates u: test with u ∪ extra.
        let mut bigger = u.clone();
        let broot = bigger.root();
        bigger.add_child(broot, Marking::label("extra")).unwrap();
        prop_assert!(subsumed(&u, &bigger));
    }

    /// Prop 3.1 (1): snapshot evaluation is monotone — growing the
    /// document can only grow the result.
    #[test]
    fn snapshot_monotone(t in arb_tree(), extra in arb_tree()) {
        let q = parse_query("hit{?l} :- d/?r{?l{$v}}").unwrap();
        let small_res = {
            let mut env = Env::new();
            env.insert("d".into(), &t);
            snapshot(&q, &env).unwrap()
        };
        // Grow: graft `extra` under the root.
        let mut grown = t.clone();
        let root = grown.root();
        grown.graft(root, &extra).unwrap();
        let big_res = {
            let mut env = Env::new();
            env.insert("d".into(), &grown);
            snapshot(&q, &env).unwrap()
        };
        prop_assert!(subsumed(&t, &grown));
        prop_assert!(small_res.subsumed_by(&big_res));
    }

    /// Graph import/unfold is the identity on finite trees, and graph
    /// simulation coincides with tree subsumption (regular-tree layer
    /// soundness, underpinning Lemma 3.2).
    #[test]
    fn graph_simulation_matches_tree_subsumption(a in arb_tree(), b in arb_tree()) {
        use positive_axml::core::regular::{simulated, Graph};
        let mut g = Graph::new();
        let na = g.import_tree(&a);
        let nb = g.import_tree(&b);
        prop_assert_eq!(simulated(&g, na, &g, nb), subsumed(&a, &b));
        let back = g.unfold_exact(na).unwrap();
        prop_assert!(equivalent(&a, &back));
    }

    /// Parser/serializer roundtrip through the compact syntax.
    #[test]
    fn display_parse_roundtrip(t in arb_tree()) {
        let text = t.to_string();
        let back = positive_axml::core::parse_tree(&text).unwrap();
        prop_assert!(equivalent(&t, &back));
    }

    /// The one-buffer renderer writes exactly the text of the recursive
    /// one it replaced, at every node: wide same-label sibling groups put
    /// render order and sorted order apart at many levels.
    #[test]
    fn compact_rendering_matches_the_recursive_reference(
        a in arb_tree(),
        b in arb_wide_tree(),
    ) {
        for t in [&a, &b] {
            prop_assert_eq!(t.to_string(), compact_reference(t, t.root()));
            for n in t.iter_live(t.root()) {
                prop_assert_eq!(compact_at(t, n), compact_reference(t, n));
            }
        }
    }
}

/// The recursive renderer the one-buffer `compact_at` replaced: a string
/// per node, children sorted as strings and joined. The oracle of
/// `compact_rendering_matches_the_recursive_reference`.
fn compact_reference(t: &Tree, n: NodeId) -> String {
    let mut kids: Vec<String> = t
        .children(n)
        .iter()
        .map(|&c| compact_reference(t, c))
        .collect();
    kids.sort_unstable();
    let mut out = t.marking(n).to_string();
    if !kids.is_empty() {
        out.push('{');
        out.push_str(&kids.join(","));
        out.push('}');
    }
    out
}

/// Prop 3.1 snapshot semantics, with heads built per distinct projection
/// onto the head's variables: the doubling rule over an 8-edge chain, and
/// over its transitive closure (where many `$z` join each `($x, $y)`),
/// answers exactly like instantiating every binding and reducing by brute
/// force — key sequence included — and builds one head per `($x, $y)`.
#[test]
fn doubling_rule_snapshot_matches_per_binding_reference() {
    let q = parse_query("t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}")
        .unwrap();
    let edge = |i: usize, j: usize| format!("t{{from{{\"{i}\"}},to{{\"{j}\"}}}}");
    let chain: Vec<String> = (0..8).map(|i| edge(i, i + 1)).collect();
    let closure: Vec<String> = (0..9)
        .flat_map(|i| (i + 1..9).map(move |j| (i, j)))
        .map(|(i, j)| edge(i, j))
        .collect();
    // (edges, distinct (x, y) pairs joined by some z)
    for (edges, pairs) in [(chain, 7), (closure, 28)] {
        let doc = parse_document(&format!("r{{{}}}", edges.join(","))).unwrap();
        let mut env = Env::new();
        env.insert("edges".into(), &doc);
        let (got, stats) = snapshot_with_stats(&q, &env).unwrap();

        let bindings = match_pattern(&q.body[0].pattern, &doc);
        let heads: Vec<Tree> = bindings
            .iter()
            .map(|b| instantiate_head(&q.head, b).unwrap())
            .collect();
        assert_eq!(forest_keys(&got), reference_forest_keys(&heads));
        assert_eq!(stats.joined_bindings, bindings.len());
        assert_eq!(stats.raw_results, pairs);
    }
}

/// `count` same-label `item` siblings under one `site` root; `distinct`
/// gives each its own id and name values, otherwise all are identical.
fn wide_site(count: usize, distinct: bool) -> String {
    let items: Vec<String> = (0..count)
        .map(|i| {
            let k = if distinct { i } else { 0 };
            format!(
                "item{{id{{\"i{k:05}\"}},cat{{\"c{:03}\"}},name{{\"n{k:05}\"}}}}",
                k % 200
            )
        })
        .collect();
    format!("site{{{}}}", items.join(","))
}

/// Wide fan-out opens in near-linear time: 5 000 pairwise-distinct
/// same-label siblings all survive `open`, and 5 000 identical ones
/// collapse to the oldest.
#[test]
fn wide_fanout_open() {
    let db = Sym::intern("db");
    let mut sys = System::new();
    sys.add_document_text("db", &wide_site(5000, true)).unwrap();
    let doc = sys.doc(db).unwrap();
    assert_eq!(doc.children(doc.root()).len(), 5000);

    let tree = parse_document(&wide_site(5000, false)).unwrap();
    let oldest = *tree.children(tree.root()).iter().min().unwrap();
    let mut sys = System::new();
    sys.add_document("db", tree).unwrap();
    let doc = sys.doc(db).unwrap();
    assert_eq!(doc.children(doc.root()), &[oldest]);
}
