//! Reduction, canonical forms, and least upper bounds (Definition 2.2,
//! Proposition 2.1).
//!
//! A document is *reduced* when no subtree is equivalent to a sibling-
//! pruned version of itself — operationally, no child subtree is subsumed
//! by one of its siblings, recursively. Each document has a unique reduced
//! version up to node isomorphism (Prop 2.1 (2)), computable in PTIME
//! (Prop 2.1 (4)) by bottom-up sibling pruning.
//!
//! Pruning filters sibling pairs before it walks them. `x ⊑ y` is a
//! homomorphism from `x`'s subtree into `y`'s that maps root to root and
//! keeps markings and parent–child edges, so two cheap per-node
//! signatures are necessary conditions for it:
//!
//! - `height(x) ≤ height(y)`: a root-to-leaf path of `x` maps onto a path
//!   of the same length that starts at `y`;
//! - `bloom(x) ⊆ bloom(y)` bitwise, for a 128-bit Bloom filter of the
//!   markings in a subtree and of its (parent marking, child marking)
//!   edges: every marking and edge of `x` reappears under `y`.
//!
//! Only pairs that pass both reach [`subsumed_within`]. Equivalent
//! subtrees have equal signatures, so signatures taken before a sibling
//! is pruned stay exact.
//!
//! Because reduced versions are unique up to isomorphism, a sorted
//! recursive encoding ([`canon_of_reduced`]) is a sound equality key for
//! reduced trees: two reduced trees are equivalent iff their canonical
//! encodings coincide. The rewriting engine, graph representation, and
//! confluence tests all rely on this.

use crate::error::{AxmlError, Result};
use crate::subsume::{subsumed_within, SubMemo};
use crate::sym::FxHasher;
use crate::tree::{Marking, NodeId, Tree};
use std::cell::RefCell;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::io::Write;
use std::sync::Arc;

/// Reduce `t` in place: prune every child subtree subsumed by a sibling,
/// bottom-up. Keeps the *oldest* (lowest node id) representative of each
/// equivalence class so that node ids — in particular function-node ids
/// the engine schedules — survive reduction.
///
/// Each unordered pair of same-marking siblings is visited once, and
/// reaches [`subsumed_within`] only in a direction its signatures allow
/// (see the module doc): `x ⊑ y` needs `height(x) ≤ height(y)`, since a
/// homomorphism maps each root-to-leaf path of `x` onto a path of the same
/// length, and `bloom(x) ⊆ bloom(y)`, since it keeps every marking and
/// parent–child edge. The signatures are built on first need, when a node
/// first has two children with the same marking.
///
/// Returns the number of subtrees pruned.
pub fn reduce_in_place(t: &mut Tree) -> usize {
    let mut memo = SubMemo::new();
    let post = postorder(t);
    let mut sigs: Vec<Sig> = Vec::new();
    let mut pruned = 0usize;
    for &n in &post {
        if !t.is_alive(n) || t.children(n).len() < 2 {
            continue;
        }
        // Same-marking siblings side by side, oldest first within a run,
        // so equivalent younger siblings are the ones dropped. Subsumption
        // requires equal root markings, so only runs are compared.
        let mut kids: Vec<(Marking, NodeId, bool)> = t
            .children(n)
            .iter()
            .map(|&c| (t.marking(c), c, false))
            .collect();
        kids.sort_unstable();
        let mut start = 0;
        while start < kids.len() {
            let m = kids[start].0;
            let len = kids[start..].iter().take_while(|k| k.0 == m).count();
            if len > 1 {
                if sigs.is_empty() {
                    sigs = signatures(t, &post);
                }
                prune_run(t, &mut kids[start..start + len], &sigs, &mut memo);
            }
            start += len;
        }
        for &(_, c, removed) in &kids {
            if removed {
                t.remove_subtree(c).expect("child is alive");
                pruned += 1;
            }
        }
    }
    pruned
}

/// Mark the subsumed members of one run of same-marking siblings (sorted
/// oldest first). For each pair `i < j`: if `j ⊑ i`, `j` goes — this
/// covers the equivalent case, where the younger goes; otherwise if
/// `i ⊑ j`, `i` goes. The survivors are exactly the oldest member of each
/// maximal class.
fn prune_run(t: &Tree, run: &mut [(Marking, NodeId, bool)], sigs: &[Sig], memo: &mut SubMemo) {
    let mut embeds = |x: NodeId, y: NodeId| {
        sigs[x.idx()].may_embed_in(sigs[y.idx()]) && subsumed_within(t, x, y, memo)
    };
    for i in 0..run.len() {
        for j in i + 1..run.len() {
            if run[i].2 {
                break;
            }
            if run[j].2 {
                continue;
            }
            let (x, y) = (run[i].1, run[j].1);
            if embeds(y, x) {
                run[j].2 = true;
            } else if embeds(x, y) {
                run[i].2 = true;
            }
        }
    }
}

/// Per-node summary that every homomorphism respects (see the module doc).
/// It depends on the subtree's content only, so it compares subtrees of
/// different trees as well as siblings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Sig {
    height: u32,
    bloom: u128,
}

impl Sig {
    /// Necessary condition for `self ⊑ other`.
    pub(crate) fn may_embed_in(self, other: Sig) -> bool {
        self.height <= other.height && self.bloom & !other.bloom == 0
    }

    /// The signature of a childless node marked `m`.
    fn leaf(m: Marking) -> Sig {
        Sig {
            height: 0,
            bloom: bloom_bit(m),
        }
    }

    /// Fold one child, marked `cm` with signature `cs`, into the signature
    /// of its parent, marked `m`. With [`Sig::leaf`], the one per-node
    /// step of [`signatures`] and [`subtree_sig`].
    fn add_child(&mut self, m: Marking, cm: Marking, cs: Sig) {
        self.height = self.height.max(cs.height + 1);
        self.bloom |= cs.bloom | bloom_bit((m, cm));
    }
}

/// One Bloom-filter bit for `key`: the top 7 bits of its Fx hash.
fn bloom_bit(key: impl Hash) -> u128 {
    1u128 << (BuildHasherDefault::<FxHasher>::default().hash_one(key) >> 57)
}

/// Signatures of every live node of `t`, indexed by node id, built
/// bottom-up over `post` (dead entries are skipped and stay zero).
fn signatures(t: &Tree, post: &[NodeId]) -> Vec<Sig> {
    let mut sigs = vec![Sig::default(); t.arena_len()];
    for &n in post {
        if !t.is_alive(n) {
            continue;
        }
        let m = t.marking(n);
        let mut s = Sig::leaf(m);
        for &c in t.children(n) {
            s.add_child(m, t.marking(c), sigs[c.idx()]);
        }
        sigs[n.idx()] = s;
    }
    sigs
}

/// The signature of the subtree of `t` at `n` alone, in time linear in
/// that subtree and space linear in its height (not in the arena, unlike
/// [`signatures`]). An iterative depth-first walk: a node's frame folds in
/// each child as the child's frame is popped.
pub(crate) fn subtree_sig(t: &Tree, n: NodeId) -> Sig {
    SIG_PATH.with(|path| {
        let path = &mut *path.borrow_mut();
        path.clear();
        path.push((n, 0, Sig::leaf(t.marking(n))));
        loop {
            let top = path.len() - 1;
            let (x, next, s) = path[top];
            if let Some(&c) = t.children(x).get(next) {
                path[top].1 += 1;
                path.push((c, 0, Sig::leaf(t.marking(c))));
                continue;
            }
            path.pop();
            match path.last_mut() {
                Some((p, _, ps)) => ps.add_child(t.marking(*p), t.marking(x), s),
                None => return s,
            }
        }
    })
}

thread_local! {
    /// [`subtree_sig`]'s walk: (node, index of its next child to visit,
    /// signature so far) per level, reused by every walk on the thread.
    static SIG_PATH: RefCell<Vec<(NodeId, usize, Sig)>> = const { RefCell::new(Vec::new()) };
}

/// Does no node of the subtree at `n` have two children with the same
/// marking? Such a subtree is reduced: a child can only be subsumed by a
/// sibling with its own marking. `scratch` is reused across calls.
pub(crate) fn siblings_distinct(t: &Tree, n: NodeId, scratch: &mut Vec<Marking>) -> bool {
    let kids = t.children(n);
    if kids.len() > 1 {
        scratch.clear();
        scratch.extend(kids.iter().map(|&c| t.marking(c)));
        scratch.sort_unstable();
        if scratch.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
    }
    kids.iter().all(|&c| siblings_distinct(t, c, scratch))
}

/// Reduce `t` in place unless it is already reduced: the one reduction
/// of a tree-variable binding's own copy.
pub(crate) fn reduce_unless_reduced(t: &mut Tree) {
    if !siblings_distinct(t, t.root(), &mut Vec::new()) {
        reduce_in_place(t);
    }
}

/// Live nodes of `t` in postorder (children before parents).
fn postorder(t: &Tree) -> Vec<NodeId> {
    let mut pre: Vec<NodeId> = t.iter_live(t.root()).collect();
    pre.reverse();
    pre
}

/// Return a freshly-built reduced version of `t` (compact arena, new ids).
pub fn reduce(t: &Tree) -> Tree {
    let mut c = t.compact();
    reduce_in_place(&mut c);
    c.compact()
}

/// Is `t` already reduced?
pub fn is_reduced(t: &Tree) -> bool {
    let mut memo = SubMemo::new();
    for n in t.iter_live(t.root()) {
        let kids = t.children(n);
        for (i, &a) in kids.iter().enumerate() {
            for (j, &b) in kids.iter().enumerate() {
                if i != j && subsumed_within(t, a, b, &mut memo) {
                    return false;
                }
            }
        }
    }
    true
}

/// Canonical encoding key for a reduced tree.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct CanonKey(pub String);

impl std::fmt::Display for CanonKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Append the tag of marking `m` to `out`: its kind, the byte length of
/// its name, a colon and the name.
fn marking_tag(m: Marking, out: &mut Vec<u8>) {
    let (tag, s) = match m {
        Marking::Label(s) => (b'L', s),
        Marking::Func(s) => (b'F', s),
        Marking::Value(s) => (b'V', s),
    };
    let name = s.as_str();
    out.push(tag);
    // Writing to a `Vec` cannot fail.
    let _ = write!(out, "{}:", name.len());
    out.extend_from_slice(name.as_bytes());
}

/// Canonical encoding of the subtree of `t` at `n`.
///
/// Sound as an equivalence key only for **reduced** trees: reduced
/// versions are unique up to isomorphism, and this encoding is
/// isomorphism-invariant (children encodings are sorted). For arbitrary
/// trees use [`canonical_key`], which reduces first.
///
/// The encoding is a node's tag, then, if it has children, their
/// encodings in byte order between braces. It is rendered into one
/// buffer reused by every encoding on the thread, the way
/// [`crate::display::compact_at`] renders: a node encodes its children
/// one after another, then orders them through ranges into the buffer,
/// rewriting the block only when the two orders differ. The returned
/// key is the only allocation.
pub fn canon_of_reduced(t: &Tree, n: NodeId) -> CanonKey {
    CanonKey(with_canon(t, n, str::to_owned))
}

/// [`canon_of_reduced`] as a shared string: the key a tree-variable
/// binding carries ([`crate::matcher::Bound::Tree`]), so cloning a
/// binding never copies it.
pub(crate) fn canon_shared(t: &Tree, n: NodeId) -> Arc<str> {
    with_canon(t, n, |s| Arc::from(s))
}

/// The text buffer and span stack of [`encode`].
struct Scratch {
    text: Vec<u8>,
    spans: Vec<(usize, usize)>,
}

thread_local! {
    /// [`encode`]'s scratch, reused by every encoding on the thread.
    static CANON: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            text: Vec::new(),
            spans: Vec::new(),
        })
    };
}

/// Encode the subtree of `t` at `n` and hand the text to `f`.
fn with_canon<R>(t: &Tree, n: NodeId, f: impl FnOnce(&str) -> R) -> R {
    CANON.with(|c| {
        let Scratch { text, spans } = &mut *c.borrow_mut();
        text.clear();
        encode(t, n, text, spans);
        f(std::str::from_utf8(text).expect("markings encode as UTF-8"))
    })
}

/// Append the encoding of the subtree at `n` to `out`. `spans` is
/// scratch: each node pushes the ranges of its children's encodings
/// above the frames of its ancestors and pops them when done.
fn encode(t: &Tree, n: NodeId, out: &mut Vec<u8>, spans: &mut Vec<(usize, usize)>) {
    marking_tag(t.marking(n), out);
    let kids = t.children(n);
    if kids.is_empty() {
        return;
    }
    out.push(b'{');
    let start = out.len();
    let base = spans.len();
    for &c in kids {
        let from = out.len();
        encode(t, c, out, spans);
        spans.push((from, out.len()));
    }
    let text = |&(s, e): &(usize, usize)| s..e;
    let frame = &mut spans[base..];
    if !frame
        .windows(2)
        .all(|w| out[text(&w[0])] <= out[text(&w[1])])
    {
        frame.sort_unstable_by(|a, b| out[text(a)].cmp(&out[text(b)]));
        let end = out.len();
        for span in frame.iter() {
            out.extend_from_within(text(span));
        }
        out.drain(start..end);
    }
    spans.truncate(base);
    out.push(b'}');
}

/// Canonical key of an arbitrary tree: reduce a copy, then encode.
/// Two trees are equivalent (Definition 2.2) iff their canonical keys are
/// equal.
pub fn canonical_key(t: &Tree) -> CanonKey {
    let r = reduce(t);
    canon_of_reduced(&r, r.root())
}

/// Least upper bound `d ∪ d'` of two trees with the same root marking
/// (§2.1): a tree with that root and the children of both, reduced.
/// Trees with distinct root markings are incomparable.
pub fn lub(a: &Tree, b: &Tree) -> Result<Tree> {
    if a.marking(a.root()) != b.marking(b.root()) {
        return Err(AxmlError::IncomparableRoots);
    }
    let mut out = Tree::new(a.marking(a.root()));
    let dst_root = out.root();
    a.copy_children_into(a.root(), &mut out, dst_root);
    b.copy_children_into(b.root(), &mut out, dst_root);
    reduce_in_place(&mut out);
    Ok(out.compact())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;
    use crate::subsume::{equivalent, subsumed};

    fn t(s: &str) -> Tree {
        parse_tree(s).unwrap()
    }

    #[test]
    fn paper_reduction_example() {
        // a{b{c,c},b{c,d,d}} reduces to a{b{c,d}}.
        let orig = t("a{b{c,c},b{c,d,d}}");
        let red = reduce(&orig);
        assert!(equivalent(&orig, &red));
        assert!(is_reduced(&red));
        assert!(equivalent(&red, &t("a{b{c,d}}")));
        assert_eq!(red.node_count(), 4);
    }

    #[test]
    fn reduce_is_idempotent() {
        let r = reduce(&t("a{b{c,c},b{c,d,d},b}"));
        let rr = reduce(&r);
        assert_eq!(
            canon_of_reduced(&r, r.root()),
            canon_of_reduced(&rr, rr.root())
        );
    }

    #[test]
    fn reduction_preserves_equivalence_class() {
        for s in [
            "a{b,b,b}",
            "a{b{c},b{c,d}}",
            r#"a{@f{"1"},@f{"1"},x}"#,
            "r{t{a,b},t{a},t{a,b,c}}",
        ] {
            let orig = t(s);
            let red = reduce(&orig);
            assert!(equivalent(&orig, &red), "not equivalent for {s}");
            assert!(is_reduced(&red), "not reduced for {s}");
        }
    }

    #[test]
    fn uniqueness_via_canonical_keys() {
        // Equivalent inputs yield identical canonical keys (Prop 2.1 (2)).
        let a = t("a{b{c,c},b{c,d,d}}");
        let b = t("a{b{d,c}}");
        let c = t("a{b{c,d},b{c}}");
        assert_eq!(canonical_key(&a), canonical_key(&b));
        assert_eq!(canonical_key(&b), canonical_key(&c));
        assert_ne!(canonical_key(&a), canonical_key(&t("a{b{c}}")));
    }

    #[test]
    fn canonical_key_bytes_are_pinned() {
        // Children are sorted by their encodings' bytes, so the label `b`
        // (`L1:b`) precedes the value `"1"` (`V1:1`) whatever their order.
        let a = t(r#"a{"1",b}"#);
        assert_eq!(canon_of_reduced(&a, a.root()).0, "L1:a{L1:bV1:1}");
        let long = t(r#"item{"0123456789"}"#);
        assert_eq!(
            canon_of_reduced(&long, long.root()).0,
            "L4:item{V10:0123456789}"
        );
    }

    #[test]
    fn in_place_reduction_keeps_oldest_ids() {
        let mut tree = Tree::with_label("a");
        let first = tree.add_child(tree.root(), Marking::label("b")).unwrap();
        let second = tree.add_child(tree.root(), Marking::label("b")).unwrap();
        reduce_in_place(&mut tree);
        assert!(tree.is_alive(first));
        assert!(!tree.is_alive(second));
    }

    #[test]
    fn strictly_larger_sibling_replaces_smaller() {
        // b{c} arrives first, b{c,d} second: the larger must survive.
        let mut tree = Tree::with_label("a");
        let small = tree.add_child(tree.root(), Marking::label("b")).unwrap();
        tree.add_child(small, Marking::label("c")).unwrap();
        let big = tree.add_child(tree.root(), Marking::label("b")).unwrap();
        tree.add_child(big, Marking::label("c")).unwrap();
        tree.add_child(big, Marking::label("d")).unwrap();
        reduce_in_place(&mut tree);
        assert!(!tree.is_alive(small));
        assert!(tree.is_alive(big));
    }

    #[test]
    fn lub_paper_semantics() {
        let a = t("a{b{c}}");
        let b = t("a{b{d},e}");
        let u = lub(&a, &b).unwrap();
        assert!(subsumed(&a, &u));
        assert!(subsumed(&b, &u));
        assert!(equivalent(&u, &t("a{b{c},b{d},e}")));
        // Incomparable roots.
        assert!(matches!(
            lub(&t("a"), &t("b")),
            Err(AxmlError::IncomparableRoots)
        ));
    }

    #[test]
    fn lub_is_least() {
        // Any other upper bound must subsume the lub.
        let a = t("a{b}");
        let b = t("a{c}");
        let u = lub(&a, &b).unwrap();
        let other = t("a{b,c,d}");
        assert!(subsumed(&a, &other) && subsumed(&b, &other));
        assert!(subsumed(&u, &other));
    }

    /// A seeded random tree of about `n` nodes over labels `l0`–`l2` and
    /// values `"0"`/`"1"`: small enough alphabets that subsumption between
    /// arbitrary nodes is common.
    fn random_tree(n: usize, seed: u64) -> Tree {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = Tree::with_label("l0");
        let mut interior = vec![tree.root()];
        for _ in 1..n {
            let parent = interior[rng.gen_range(0..interior.len())];
            if rng.gen_bool(0.3) {
                let v = rng.gen_range(0..2u8);
                tree.add_child(parent, Marking::value(&v.to_string()))
                    .unwrap();
            } else {
                let l = rng.gen_range(0..3u8);
                interior.push(
                    tree.add_child(parent, Marking::label(&format!("l{l}")))
                        .unwrap(),
                );
            }
        }
        tree
    }

    #[test]
    fn signature_filter_never_rejects_a_subsumed_pair() {
        let mut subsumed_pairs = 0;
        for seed in 0..64 {
            let tree = random_tree(40, seed);
            let sigs = signatures(&tree, &postorder(&tree));
            let nodes: Vec<NodeId> = tree.iter_live(tree.root()).collect();
            let mut memo = SubMemo::new();
            for &x in &nodes {
                for &y in &nodes {
                    if subsumed_within(&tree, x, y, &mut memo) {
                        subsumed_pairs += 1;
                        assert!(
                            sigs[x.idx()].may_embed_in(sigs[y.idx()]),
                            "seed {seed}: filter rejects {x:?} ⊑ {y:?}"
                        );
                    }
                }
            }
        }
        // Not vacuous: plenty of pairs, beyond the reflexive ones, held.
        assert!(subsumed_pairs > 64 * 40 * 2, "{subsumed_pairs}");
    }

    #[test]
    fn subtree_signatures_agree_with_whole_tree_signatures() {
        for seed in 0..16 {
            let tree = random_tree(40, seed);
            let sigs = signatures(&tree, &postorder(&tree));
            for n in tree.iter_live(tree.root()) {
                assert_eq!(
                    subtree_sig(&tree, n),
                    sigs[n.idx()],
                    "seed {seed}, node {n:?}"
                );
            }
        }
    }

    #[test]
    fn signature_filter_is_sound_across_trees() {
        // Root signatures of different trees, as `Forest::reduce` and
        // `apply_plan` compare them: `x ⊑ y` must pass the filter. `c`
        // holds both `a` and `b`, so some pairs are sure to embed.
        let (mut held, mut rejected) = (0, 0);
        for seed in 0..256u64 {
            let a = random_tree(2 + (seed % 5) as usize, seed);
            let b = random_tree(2 + (seed % 7) as usize, seed.wrapping_mul(31) + 1);
            let mut c = a.clone();
            let root = c.root();
            b.copy_children_into(b.root(), &mut c, root);
            let trees = [&a, &b, &c];
            let sigs = trees.map(|t| subtree_sig(t, t.root()));
            for (i, x) in trees.iter().enumerate() {
                for (j, y) in trees.iter().enumerate().filter(|&(j, _)| j != i) {
                    let passes = sigs[i].may_embed_in(sigs[j]);
                    if subsumed(x, y) {
                        held += 1;
                        assert!(passes, "seed {seed}: filter rejects {x} ⊑ {y}");
                    }
                    if !passes {
                        rejected += 1;
                    }
                }
            }
        }
        // Not vacuous: some pairs embed, and the filter rejects some.
        assert!(held > 16, "{held}");
        assert!(rejected > 16, "{rejected}");
    }

    #[test]
    fn signature_filter_separates_distinct_items() {
        // The `scan_large` item shape: unique id and name values, which
        // the two items' Bloom filters record as distinct bits.
        let tree = t(concat!(
            r#"site{item{id{"i1"},cat{"c1"},price{"0001"},name{"n1"}},"#,
            r#"item{id{"i2"},cat{"c1"},price{"0002"},name{"n2"}}}"#
        ));
        let sigs = signatures(&tree, &postorder(&tree));
        let (a, b) = match tree.children(tree.root()) {
            &[a, b] => (sigs[a.idx()], sigs[b.idx()]),
            kids => panic!("expected two items, got {kids:?}"),
        };
        assert!(!a.may_embed_in(b));
        assert!(!b.may_embed_in(a));
    }

    #[test]
    fn function_subtrees_merge_only_when_identical_calls() {
        // Two @f calls with subsumed params merge; distinct params survive.
        let red = reduce(&t(r#"a{@f{"1"},@f{"1"},@f{"2"}}"#));
        assert_eq!(red.function_nodes().len(), 2);
    }
}
