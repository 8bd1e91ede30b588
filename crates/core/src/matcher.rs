//! Pattern matching: enumerating the variable assignments µ with
//! `µ(p) ⊆ d` (Section 3.1, snapshot semantics).
//!
//! A match embeds the pattern root at the document root and each pattern
//! child below *some* document child (homomorphically, like subsumption),
//! while binding variables consistently. Data complexity is polynomial
//! (Prop 3.1 (3)): for a fixed pattern the number of distinct bindings is
//! polynomial in the document, and duplicates are eliminated at every
//! join level.
//!
//! Under [`MatchStrategy::Indexed`] a rooted match may enter at its
//! rarest constant instead of only from the root: an `Anchor` walks up
//! from that constant's marking-index bucket and restricts the descent
//! along the root-to-anchor path to the ancestors it found (see
//! `docs/indexing.md`, "Anchored descent").

use crate::index::DocIndex;
use crate::pattern::{PItem, PNodeId, Pattern};
use crate::reduce::{canon_shared, reduce_unless_reduced};
use crate::sym::Sym;
use crate::tree::{Marking, NodeId, Tree};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// How the matcher enumerates candidate document nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MatchStrategy {
    /// Scan: iterate every live node / every child and test markings.
    Scan,
    /// Read the lazily built marking index ([`mod@crate::index`]): a
    /// rooted match enters at its rarest constant (see the module doc),
    /// and a constant root seeds unanchored matching from its bucket; every
    /// other candidate set is scanned as under `Scan`. Either way the
    /// binding *sets* are identical, and both strategies sort their
    /// output, so they are observationally equivalent.
    #[default]
    Indexed,
}

/// Index-usage and work counters for one matcher call, surfaced
/// through [`crate::trace::EventKind::IndexLookup`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Marking-index bucket reads: an anchored match's anchor bucket,
    /// or an unanchored match's root seeds.
    pub probes: u64,
    /// Probes whose bucket was non-empty.
    pub probe_hits: u64,
    /// Indexed-mode matches that found no index (the document is below
    /// the lazy-build threshold) and scanned instead.
    pub fallbacks: u64,
    /// Candidate nodes examined by a marking test while taking
    /// candidate sets: the work a descent does, and what an anchor
    /// saves.
    pub scanned: u64,
    /// Upward [`Tree::parent`] steps an anchored match took from its
    /// anchor's bucket (at most bucket × anchor depth). Not part of
    /// [`crate::trace::EventKind::IndexLookup`].
    pub parent_steps: u64,
}

impl MatchStats {
    /// Accumulate another call's counters.
    pub fn absorb(&mut self, other: MatchStats) {
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.fallbacks += other.fallbacks;
        self.scanned += other.scanned;
        self.parent_steps += other.parent_steps;
    }
}

/// A value bound to a query variable.
#[derive(Clone, Debug)]
pub enum Bound {
    /// A label, bound to a label variable.
    Label(Sym),
    /// A function name, bound to a function variable.
    Func(Sym),
    /// An atomic value, bound to a value variable.
    Value(Sym),
    /// A whole subtree, bound to a tree variable: a reduced copy and its
    /// canonical key ([`crate::reduce::canon_of_reduced`]), which makes
    /// bindings hashable and deduplicable. Both are shared, so cloning a
    /// binding copies neither.
    Tree(Arc<Tree>, Arc<str>),
}

impl Bound {
    /// Bind a copy of the subtree of `t` at `n` to a tree variable.
    pub fn tree_at(t: &Tree, n: NodeId) -> Bound {
        Bound::tree_born(t, n).0
    }

    /// [`Bound::tree_at`], and the newest node of the bound subtree: the
    /// birth of the binding (see [`crate::compile`], "Births"). The
    /// subtree is copied once, its newest node found in the same walk;
    /// the copy is reduced in place, and its key rendered into one
    /// buffer.
    pub(crate) fn tree_born(t: &Tree, n: NodeId) -> (Bound, u32) {
        let (mut sub, newest) = t.subtree_with_newest(n);
        reduce_unless_reduced(&mut sub);
        let key = canon_shared(&sub, sub.root());
        (Bound::Tree(Arc::new(sub), key), newest.0)
    }

    /// The marking this binding denotes, for non-tree bindings.
    pub fn as_marking(&self) -> Option<Marking> {
        match *self {
            Bound::Label(s) => Some(Marking::Label(s)),
            Bound::Func(s) => Some(Marking::Func(s)),
            Bound::Value(s) => Some(Marking::Value(s)),
            Bound::Tree(..) => None,
        }
    }
}

impl PartialEq for Bound {
    fn eq(&self, other: &Bound) -> bool {
        match (self, other) {
            (Bound::Label(a), Bound::Label(b)) => a == b,
            (Bound::Func(a), Bound::Func(b)) => a == b,
            (Bound::Value(a), Bound::Value(b)) => a == b,
            (Bound::Tree(_, ka), Bound::Tree(_, kb)) => ka == kb,
            _ => false,
        }
    }
}

impl Eq for Bound {}

impl Ord for Bound {
    /// Total order consistent with `Eq` (trees compare by canonical
    /// key). Used to sort matcher output so that scan and indexed
    /// matching enumerate bindings in the same order.
    fn cmp(&self, other: &Bound) -> Ordering {
        fn tag(b: &Bound) -> u8 {
            match b {
                Bound::Label(_) => 0,
                Bound::Func(_) => 1,
                Bound::Value(_) => 2,
                Bound::Tree(..) => 3,
            }
        }
        match (self, other) {
            (Bound::Label(a), Bound::Label(b)) => a.cmp(b),
            (Bound::Func(a), Bound::Func(b)) => a.cmp(b),
            (Bound::Value(a), Bound::Value(b)) => a.cmp(b),
            (Bound::Tree(_, ka), Bound::Tree(_, kb)) => ka.cmp(kb),
            _ => tag(self).cmp(&tag(other)),
        }
    }
}

impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Bound) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Bound {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Bound::Label(s) => {
                state.write_u8(0);
                s.hash(state);
            }
            Bound::Func(s) => {
                state.write_u8(1);
                s.hash(state);
            }
            Bound::Value(s) => {
                state.write_u8(2);
                s.hash(state);
            }
            Bound::Tree(_, k) => {
                state.write_u8(3);
                k.hash(state);
            }
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Label(s) => write!(f, "{s}"),
            Bound::Func(s) => write!(f, "@{s}"),
            Bound::Value(s) => write!(f, "{:?}", s.as_str()),
            Bound::Tree(t, _) => write!(f, "{t}"),
        }
    }
}

/// A variable assignment: a small sorted map from variable names to
/// bound values.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Binding {
    entries: Vec<(Sym, Bound)>,
}

impl Binding {
    /// The empty assignment.
    pub fn new() -> Binding {
        Binding::default()
    }

    /// Look up a variable.
    pub fn get(&self, var: Sym) -> Option<&Bound> {
        self.entries
            .binary_search_by(|(v, _)| v.cmp(&var))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Bind `var` to `val`. Returns `false` (and leaves the binding
    /// unchanged) on a conflicting existing binding.
    pub fn bind(&mut self, var: Sym, val: Bound) -> bool {
        match self.entries.binary_search_by(|(v, _)| v.cmp(&var)) {
            Ok(i) => self.entries[i].1 == val,
            Err(i) => {
                self.entries.insert(i, (var, val));
                true
            }
        }
    }

    /// Merge two assignments; `None` on conflict. Both sides are sorted,
    /// so this is a linear two-way merge — it runs once per candidate
    /// pair in every join level of snapshot evaluation. Most candidate
    /// pairs conflict, so a first pass that allocates nothing looks for a
    /// disagreeing shared variable before the output is built.
    pub fn merge(&self, other: &Binding) -> Option<Binding> {
        use std::cmp::Ordering;
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        return None;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(a[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Some(Binding { entries: out })
    }

    /// An assignment from entries sorted by distinct variable.
    pub(crate) fn from_sorted(entries: Vec<(Sym, Bound)>) -> Binding {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "binding entries out of order"
        );
        Binding { entries }
    }

    /// Overwrite this assignment with `entries`, sorted by distinct
    /// variable, reusing its storage.
    pub(crate) fn assign(&mut self, entries: impl IntoIterator<Item = (Sym, Bound)>) {
        self.entries.clear();
        self.entries.extend(entries);
        debug_assert!(
            self.entries.windows(2).all(|w| w[0].0 < w[1].0),
            "binding entries out of order"
        );
    }

    /// The `(variable, value)` entries, sorted by variable.
    pub(crate) fn entries(&self) -> &[(Sym, Bound)] {
        &self.entries
    }

    /// Variables bound.
    pub fn vars(&self) -> impl Iterator<Item = Sym> + '_ {
        self.entries.iter().map(|(v, _)| *v)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is this the empty assignment?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// All assignments µ (restricted to the pattern's variables) such that
/// `µ(p) ⊆ t`, starting the embedding at the roots. Output is sorted
/// (strategy-independent order).
pub fn match_pattern(p: &Pattern, t: &Tree) -> Vec<Binding> {
    match_pattern_with(p, t, MatchStrategy::default()).0
}

/// [`match_pattern`] under an explicit [`MatchStrategy`], also returning
/// the index-usage counters of the call.
pub fn match_pattern_with(
    p: &Pattern,
    t: &Tree,
    strategy: MatchStrategy,
) -> (Vec<Binding>, MatchStats) {
    let mut stats = MatchStats::default();
    let anchor = Anchor::choose(p, p.root(), t, strategy, &mut stats);
    let seed = Binding::new();
    let descend = |anchor: Option<&Anchor<PNodeId>>, stats: &mut MatchStats| {
        let mut out = match_at(p, p.root(), t, t.root(), &seed, anchor, stats);
        out.sort_unstable();
        out
    };
    let out = descend(anchor.as_ref(), &mut stats);
    #[cfg(debug_assertions)]
    if anchor.is_some() && t.arena_len() <= ANCHOR_SELF_CHECK_NODES {
        let plain = descend(None, &mut MatchStats::default());
        assert!(
            out == plain,
            "anchored descent diverged from the unanchored one"
        );
    }
    (out, stats)
}

/// All assignments embedding the pattern below some node of `t` whose
/// parent is arbitrary — i.e. the pattern root may match *any* node of
/// the document (used by relevance analysis, not by query semantics).
/// Output is sorted (strategy-independent order).
pub fn match_pattern_anywhere(p: &Pattern, t: &Tree) -> Vec<(NodeId, Binding)> {
    match_pattern_anywhere_with(p, t, MatchStrategy::default()).0
}

/// [`match_pattern_anywhere`] under an explicit [`MatchStrategy`].
pub fn match_pattern_anywhere_with(
    p: &Pattern,
    t: &Tree,
    strategy: MatchStrategy,
) -> (Vec<(NodeId, Binding)>, MatchStats) {
    let mut stats = MatchStats::default();
    // Seed candidate roots: a constant pattern root probes the marking
    // index instead of walking every live node.
    let seeds: Cow<'_, [NodeId]> = match (strategy, p.item(p.root())) {
        (MatchStrategy::Indexed, PItem::Const(m)) => match t.indexed_nodes_with(*m) {
            Some(bucket) => {
                stats.probes += 1;
                if !bucket.is_empty() {
                    stats.probe_hits += 1;
                }
                Cow::Borrowed(bucket)
            }
            None => {
                stats.fallbacks += 1;
                Cow::Owned(t.iter_live(t.root()).collect())
            }
        },
        _ => Cow::Owned(t.iter_live(t.root()).collect()),
    };
    let mut out = Vec::new();
    for &n in seeds.iter() {
        for b in match_at(p, p.root(), t, n, &Binding::new(), None, &mut stats) {
            out.push((n, b));
        }
    }
    out.sort_unstable();
    (out, stats)
}

pub(crate) fn bind_item(item: &PItem, t: &Tree, tn: NodeId, b: &Binding) -> Option<Binding> {
    let m = t.marking(tn);
    match item {
        PItem::Const(c) => (*c == m).then(|| b.clone()),
        PItem::LabelVar(v) => match m {
            Marking::Label(s) => {
                let mut nb = b.clone();
                nb.bind(*v, Bound::Label(s)).then_some(nb)
            }
            _ => None,
        },
        PItem::FuncVar(v) => match m {
            Marking::Func(s) => {
                let mut nb = b.clone();
                nb.bind(*v, Bound::Func(s)).then_some(nb)
            }
            _ => None,
        },
        PItem::ValueVar(v) => match m {
            Marking::Value(s) => {
                let mut nb = b.clone();
                nb.bind(*v, Bound::Value(s)).then_some(nb)
            }
            _ => None,
        },
        PItem::TreeVar(v) => {
            let mut nb = b.clone();
            nb.bind(*v, Bound::tree_at(t, tn)).then_some(nb)
        }
    }
}

/// The value item `item` binds at node `tn`, with its birth: `None` if
/// the node fails the item's marking test, `Some((None, tn))` for a
/// constant that passes it, and `Some((Some(value), birth))` for a
/// variable. The birth is `tn` itself, or for a tree variable the newest
/// node of the bound subtree. [`bind_item`] without the binding.
pub(crate) fn item_bound(item: &PItem, t: &Tree, tn: NodeId) -> Option<(Option<Bound>, u32)> {
    let m = t.marking(tn);
    if !admits(item, m) {
        return None;
    }
    let own = match (item, m) {
        (PItem::TreeVar(_), _) => {
            let (b, birth) = Bound::tree_born(t, tn);
            return Some((Some(b), birth));
        }
        (PItem::LabelVar(_), Marking::Label(s)) => Some(Bound::Label(s)),
        (PItem::FuncVar(_), Marking::Func(s)) => Some(Bound::Func(s)),
        (PItem::ValueVar(_), Marking::Value(s)) => Some(Bound::Value(s)),
        _ => None,
    };
    Some((own, tn.0))
}

/// A candidate set borrowed from the document: every node of a slice,
/// or those nodes of a slice that pass an item's marking test.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CandSet<'t> {
    /// Every node of the slice is a candidate.
    All(&'t [NodeId]),
    /// The given number of nodes of the slice pass the item's test.
    Admitted(&'t [NodeId], usize),
}

impl<'t> CandSet<'t> {
    /// Number of candidates.
    pub(crate) fn len(self) -> usize {
        match self {
            CandSet::All(s) => s.len(),
            CandSet::Admitted(_, n) => n,
        }
    }

    /// No candidate?
    pub(crate) fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The candidates, in document order; `item` is the one the set was
    /// taken for.
    pub(crate) fn nodes<'a>(self, item: &'a PItem, t: &'a Tree) -> impl Iterator<Item = NodeId> + 'a
    where
        't: 'a,
    {
        let (nodes, all) = match self {
            CandSet::All(s) => (s, true),
            CandSet::Admitted(s, _) => (s, false),
        };
        nodes
            .iter()
            .copied()
            .filter(move |&c| all || admits(item, t.marking(c)))
    }
}

/// Candidate document children of `tn` for one pattern child: the
/// children that pass the child's marking test, counted but not
/// collected. Taken once per pattern child — *before* any per-binding
/// work — so a failed label test never costs a [`Binding`] clone. Both
/// executors take every unrestricted set from here.
fn candidate_set<'t>(item: &PItem, t: &'t Tree, tn: NodeId, stats: &mut MatchStats) -> CandSet<'t> {
    let kids = t.children(tn);
    if let PItem::TreeVar(_) = item {
        return CandSet::All(kids);
    }
    stats.scanned += kids.len() as u64;
    let n = kids.iter().filter(|&&c| admits(item, t.marking(c))).count();
    CandSet::Admitted(kids, n)
}

/// The marking test of one pattern item: equality for a constant, the
/// node kind for `?l` / `@?f` / `$v`, anything for `#T`.
fn admits(item: &PItem, m: Marking) -> bool {
    match item {
        PItem::Const(c) => *c == m,
        PItem::LabelVar(_) => matches!(m, Marking::Label(_)),
        PItem::FuncVar(_) => matches!(m, Marking::Func(_)),
        PItem::ValueVar(_) => matches!(m, Marking::Value(_)),
        PItem::TreeVar(_) => true,
    }
}

/// Documents at most this large (arena slots) re-run every anchored
/// match unanchored under debug assertions and compare the outputs, the
/// way the document index validates itself against a rebuild.
#[cfg(debug_assertions)]
pub(crate) const ANCHOR_SELF_CHECK_NODES: usize = 4096;

/// The tree a rooted match descends: the interpreter's [`Pattern`]
/// nodes, or a compiled program's ops ([`crate::compile`]), one op per
/// pattern node.
pub(crate) trait Shape {
    /// A node (or op) of the shape.
    type Id: Copy + Eq;
    /// The item node `n` tests.
    fn item(&self, n: Self::Id) -> &PItem;
    /// The children of `n`.
    fn kids(&self, n: Self::Id) -> &[Self::Id];
}

impl Shape for Pattern {
    type Id = PNodeId;
    fn item(&self, n: PNodeId) -> &PItem {
        Pattern::item(self, n)
    }
    fn kids(&self, n: PNodeId) -> &[PNodeId] {
        self.children(n)
    }
}

/// The entry point of a rooted match at its rarest constant.
///
/// The anchor is a constant pattern node whose parent is also a
/// constant, with the smallest marking-index bucket among those where
/// `bucket(anchor) × depth(anchor) < bucket(parent's marking)` — the
/// walk up from the bucket must cost less than the descent it saves at
/// the parent's level. [`Anchor::choose`] walks up from every node of
/// the anchor's bucket along the root-to-anchor path `p_0 … p_k`, and
/// records, for each level `i < k`, which children `c` of a document
/// node `d` passing `p_i`'s marking test lead down to the bucket through
/// `p_{i+1} … p_k`. The descent then takes those children as the
/// candidates of `p_{i+1}` below `d`.
///
/// Every embedding maps `p_0 … p_k` onto the ancestor chain of a bucket
/// node, so the restricted sets keep every embedding and are subsets of
/// the unrestricted candidate sets. A record does not depend on where
/// `d` sits in the document, only on the chain below it, so a shared
/// compiled op may consult it wherever the op occurs.
pub(crate) struct Anchor<Id> {
    /// `p_0 … p_k`: the pattern nodes (or ops) from the root to the
    /// anchor.
    path: Vec<Id>,
    /// Sorted, duplicate-free `(level i, document node d)` keys;
    /// `kids[j]` is an allowed child of `keys[j]`.
    keys: Vec<(u32, NodeId)>,
    kids: Vec<NodeId>,
}

impl<Id: Copy + Eq> Anchor<Id> {
    /// Choose the anchor of the match rooted at `root` and build its
    /// restriction, or decline (`None`: the descent runs unrestricted).
    /// This is where an indexed match asks for the document index, so
    /// the first one on a document past the lazy-build threshold builds
    /// it ([`Tree::live_index`]). Declining allocates nothing.
    pub(crate) fn choose<S: Shape<Id = Id> + ?Sized>(
        s: &S,
        root: Id,
        t: &Tree,
        strategy: MatchStrategy,
        stats: &mut MatchStats,
    ) -> Option<Anchor<Id>> {
        if strategy != MatchStrategy::Indexed {
            return None;
        }
        let Some(ix) = t.live_index() else {
            stats.fallbacks += 1;
            return None;
        };
        let choice = rarest_constant(s, root, ix)?;
        let depth = choice.depth;
        let mut path = Vec::with_capacity(depth + 1);
        let found = path_to(s, root, depth, (choice.parent, choice.anchor), &mut path);
        debug_assert!(found, "the chosen anchor lies below the root");
        let bucket = ix.nodes_with(choice.marking);
        stats.probes += 1;
        if !bucket.is_empty() {
            stats.probe_hits += 1;
        }
        let mut edges: Vec<(u32, NodeId, NodeId)> = Vec::with_capacity(bucket.len() * depth);
        for &a in bucket {
            let mut c = a;
            for level in (0..depth).rev() {
                let Some(d) = t.parent(c) else { break };
                stats.parent_steps += 1;
                if !admits(s.item(path[level]), t.marking(d)) {
                    break;
                }
                edges.push((level as u32, d, c));
                c = d;
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let (keys, kids) = edges.into_iter().map(|(l, d, c)| ((l, d), c)).unzip();
        Some(Anchor { path, keys, kids })
    }

    /// The restricted candidates of pattern child `child` of `parent`
    /// below document node `tn`, when that edge lies on the anchor path.
    fn restricted(&self, parent: Id, child: Id, tn: NodeId) -> Option<&[NodeId]> {
        let level = self
            .path
            .windows(2)
            .position(|w| w[0] == parent && w[1] == child)?;
        let key = (level as u32, tn);
        let lo = self.keys.partition_point(|k| *k < key);
        let hi = lo + self.keys[lo..].partition_point(|k| *k == key);
        Some(&self.kids[lo..hi])
    }
}

/// The chosen anchor: the edge `parent → anchor` at `depth`, and the
/// anchor's marking with its bucket size.
struct Choice<Id> {
    bucket: usize,
    marking: Marking,
    depth: usize,
    parent: Id,
    anchor: Id,
}

/// The anchor choice, read-only: the constant with the smallest bucket
/// among those that pass the acceptance test (first in depth-first
/// order on ties).
fn rarest_constant<S: Shape + ?Sized>(s: &S, root: S::Id, ix: &DocIndex) -> Option<Choice<S::Id>> {
    fn visit<S: Shape + ?Sized>(
        s: &S,
        n: S::Id,
        depth: usize,
        ix: &DocIndex,
        best: &mut Option<Choice<S::Id>>,
    ) {
        let PItem::Const(pm) = *s.item(n) else {
            for &c in s.kids(n) {
                visit(s, c, depth + 1, ix, best);
            }
            return;
        };
        let parent_bucket = ix.nodes_with(pm).len();
        for &c in s.kids(n) {
            if let PItem::Const(m) = *s.item(c) {
                let bucket = ix.nodes_with(m).len();
                let accepted = bucket.saturating_mul(depth + 1) < parent_bucket;
                if accepted && best.as_ref().is_none_or(|b| bucket < b.bucket) {
                    *best = Some(Choice {
                        bucket,
                        marking: m,
                        depth: depth + 1,
                        parent: n,
                        anchor: c,
                    });
                }
            }
            visit(s, c, depth + 1, ix, best);
        }
    }
    let mut best = None;
    visit(s, root, 0, ix, &mut best);
    best
}

/// Push onto `path` the root-to-anchor path of `depth` edges from `n`
/// that ends in the edge `end = (parent, anchor)`.
fn path_to<S: Shape + ?Sized>(
    s: &S,
    n: S::Id,
    depth: usize,
    end: (S::Id, S::Id),
    path: &mut Vec<S::Id>,
) -> bool {
    path.push(n);
    if depth == 1 {
        if n == end.0 && s.kids(n).contains(&end.1) {
            path.push(end.1);
            return true;
        }
    } else if s
        .kids(n)
        .iter()
        .any(|&c| path_to(s, c, depth - 1, end, path))
    {
        return true;
    }
    path.pop();
    false
}

impl<Id: Copy + Eq> Anchor<Id> {
    /// [`Anchor::restricted`], checked under debug assertions against
    /// the unrestricted candidate set.
    fn restricted_checked(
        &self,
        parent: Id,
        child: Id,
        item: &PItem,
        t: &Tree,
        tn: NodeId,
    ) -> Option<&[NodeId]> {
        let kids = self.restricted(parent, child, tn)?;
        if cfg!(debug_assertions) {
            let all = candidate_set(item, t, tn, &mut MatchStats::default());
            assert!(
                kids.iter().all(|&k| all.nodes(item, t).any(|c| c == k)),
                "anchored candidates escape the unanchored candidate set"
            );
        }
        Some(kids)
    }
}

/// The candidates of pattern child `child` of `parent` below `tn`: the
/// anchor's restricted set on the anchor path, the marking-tested
/// children elsewhere. Both executors take every candidate set from
/// here and iterate it in place.
pub(crate) fn anchored_candidate_set<'a, Id: Copy + Eq>(
    anchor: Option<&'a Anchor<Id>>,
    (parent, child): (Id, Id),
    item: &PItem,
    t: &'a Tree,
    tn: NodeId,
    stats: &mut MatchStats,
) -> CandSet<'a> {
    match anchor.and_then(|a| a.restricted_checked(parent, child, item, t, tn)) {
        Some(kids) => CandSet::All(kids),
        None => candidate_set(item, t, tn, stats),
    }
}

fn match_at(
    p: &Pattern,
    pn: PNodeId,
    t: &Tree,
    tn: NodeId,
    b: &Binding,
    anchor: Option<&Anchor<PNodeId>>,
    stats: &mut MatchStats,
) -> Vec<Binding> {
    let Some(b0) = bind_item(p.item(pn), t, tn, b) else {
        return Vec::new();
    };
    let pcs = p.children(pn);
    if pcs.is_empty() {
        return vec![b0];
    }
    let mut cands: Vec<(PNodeId, CandSet<'_>)> = pcs
        .iter()
        .map(|&pc| {
            let cs = anchored_candidate_set(anchor, (pn, pc), p.item(pc), t, tn, stats);
            (pc, cs)
        })
        .collect();
    if cands.iter().any(|(_, c)| c.is_empty()) {
        return Vec::new();
    }
    // Selectivity order: expand the conjunct with the rarest candidate
    // set first, shrinking the intermediate join. The sort is stable and
    // keyed only on candidate-set size (identical across strategies), so
    // scan and indexed mode explore in the same order.
    cands.sort_by_key(|(_, c)| c.len());
    let mut current: Vec<Binding> = vec![b0];
    for (pc, tcs) in cands {
        // Leaf pattern children skip the recursive call: their candidate
        // set already passed the marking test, so binding is all that is
        // left to do per candidate.
        let leaf = p.children(pc).is_empty();
        let mut next: Vec<Binding> = Vec::new();
        for base in &current {
            for tc in tcs.nodes(p.item(pc), t) {
                if leaf {
                    if let Some(nb) = bind_item(p.item(pc), t, tc, base) {
                        next.push(nb);
                    }
                } else {
                    next.extend(match_at(p, pc, t, tc, base, anchor, stats));
                }
            }
        }
        // Dedup (distinct document children can induce the same
        // assignment); sort+dedup beats a hash set at these sizes and
        // keeps the intermediate order strategy-independent.
        if next.len() > 1 {
            next.sort_unstable();
            next.dedup();
        }
        if next.is_empty() {
            return Vec::new();
        }
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_pattern, parse_tree};

    fn bindings(p: &str, t: &str) -> Vec<Binding> {
        match_pattern(&parse_pattern(p).unwrap(), &parse_tree(t).unwrap())
    }

    #[test]
    fn ground_pattern_matches_like_subsumption() {
        assert_eq!(bindings("a{b}", "a{b,c}").len(), 1);
        assert!(bindings("a{b{x}}", "a{b}").is_empty());
    }

    #[test]
    fn value_variable_enumerates_values() {
        let bs = bindings(r#"r{t{$x}}"#, r#"r{t{"1"},t{"2"},t{"2"}}"#);
        let mut vals: Vec<&str> = bs
            .iter()
            .map(|b| match b.get(Sym::intern("x")).unwrap() {
                Bound::Value(s) => s.as_str(),
                _ => panic!("expected value"),
            })
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, vec!["1", "2"]); // deduplicated
    }

    #[test]
    fn paper_example_3_1_label_variable() {
        // z :- d'/a{x}, d/r{t{a{x},b{z}}} — here just the d-side pattern
        // with x fixed to 1 by hand.
        let d = r#"r{t{a{"1"},b{c{"2"},d{"3"}}},
                    t{a{"1"},b{c{"3"},e{"3"}}},
                    t{a{"2"},b{c{"2"},k{"6"}}}}"#;
        let bs = bindings(r#"r{t{a{"1"},b{?z}}}"#, d);
        let mut labels: Vec<&str> = bs
            .iter()
            .map(|b| match b.get(Sym::intern("z")).unwrap() {
                Bound::Label(s) => s.as_str(),
                _ => panic!("expected label"),
            })
            .collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["c", "d", "e"]);
    }

    #[test]
    fn paper_example_3_1_tree_variable() {
        let d = r#"r{t{a{"1"},b{c{"2"},d{"3"}}},
                    t{a{"1"},b{c{"3"},e{"3"}}},
                    t{a{"2"},b{c{"2"},k{"6"}}}}"#;
        let bs = bindings(r#"r{t{a{"1"},b{#Z}}}"#, d);
        let mut trees: Vec<String> = bs
            .iter()
            .map(|b| match b.get(Sym::intern("Z")).unwrap() {
                Bound::Tree(t, _) => t.to_string(),
                _ => panic!("expected tree"),
            })
            .collect();
        trees.sort_unstable();
        assert_eq!(
            trees,
            vec![r#"c{"2"}"#, r#"c{"3"}"#, r#"d{"3"}"#, r#"e{"3"}"#]
        );
    }

    #[test]
    fn shared_variable_must_agree() {
        // Same variable twice in one pattern: both positions must bind
        // identically.
        let bs = bindings(
            "r{t{a{$x},b{$x}}}",
            r#"r{t{a{"1"},b{"1"}},t{a{"2"},b{"3"}}}"#,
        );
        assert_eq!(bs.len(), 1);
    }

    #[test]
    fn function_variable_matches_function_nodes_only() {
        let bs = bindings("a{@?f}", r#"a{@GetRating{"x"},b}"#);
        assert_eq!(bs.len(), 1);
        assert_eq!(
            bs[0].get(Sym::intern("f")),
            Some(&Bound::Func(Sym::intern("GetRating")))
        );
        assert!(bindings("a{@?f}", "a{b}").is_empty());
    }

    #[test]
    fn tree_variable_matches_any_node_kind() {
        let bs = bindings("a{#X}", r#"a{@f{"p"},b{c}}"#);
        assert_eq!(bs.len(), 2); // @f{"p"} and b{c}
    }

    #[test]
    fn binding_merge_conflicts() {
        let mut a = Binding::new();
        a.bind(Sym::intern("x"), Bound::Value(Sym::intern("1")));
        let mut b = Binding::new();
        b.bind(Sym::intern("x"), Bound::Value(Sym::intern("2")));
        assert!(a.merge(&b).is_none());
        let mut c = Binding::new();
        c.bind(Sym::intern("y"), Bound::Label(Sym::intern("l")));
        let m = a.merge(&c).unwrap();
        assert_eq!(m.len(), 2);

        // A conflict after non-shared variables on both sides: the
        // conflict check must walk past the prefix, not stop at it.
        let (pa, pb, late) = (
            Sym::intern("merge_prefix_a"),
            Sym::intern("merge_prefix_b"),
            Sym::intern("merge_late"),
        );
        assert!(pa < late && pb < late, "fresh symbols intern in order");
        let mut d = Binding::new();
        d.bind(pa, Bound::Label(Sym::intern("l")));
        d.bind(late, Bound::Value(Sym::intern("1")));
        let mut e = Binding::new();
        e.bind(pb, Bound::Label(Sym::intern("l")));
        e.bind(late, Bound::Value(Sym::intern("2")));
        assert!(d.merge(&e).is_none());
        assert!(e.merge(&d).is_none());
        let mut f = Binding::new();
        f.bind(pb, Bound::Label(Sym::intern("l")));
        f.bind(late, Bound::Value(Sym::intern("1")));
        assert_eq!(d.merge(&f).unwrap().len(), 3);
    }

    #[test]
    fn match_anywhere_finds_inner_nodes() {
        let hits = match_pattern_anywhere(
            &parse_pattern("b{$x}").unwrap(),
            &parse_tree(r#"a{b{"1"},c{b{"2"}}}"#).unwrap(),
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn scan_and_indexed_agree_including_order() {
        let doc = parse_tree(
            r#"r{t{a{"1"},b{c{"2"},d{"3"}}},
               t{a{"1"},b{c{"3"},e{"3"}}},
               t{a{"2"},b{c{"2"},k{"6"}}},
               u{a{"9"}}, u{a{"1"}}}"#,
        )
        .unwrap();
        doc.build_index();
        for pat in ["r{t{a{$x},b{?z}}}", "r{t{#T}}", "r{t{a{$x}},u{a{$x}}}"] {
            let p = parse_pattern(pat).unwrap();
            let (scan, sstats) = match_pattern_with(&p, &doc, MatchStrategy::Scan);
            let (indexed, istats) = match_pattern_with(&p, &doc, MatchStrategy::Indexed);
            assert_eq!(scan, indexed, "strategies disagree on {pat}");
            assert_eq!(sstats.probes, 0, "scan mode must not probe");
            assert_eq!(
                (istats.scanned, istats.parent_steps),
                (sstats.scanned, 0),
                "no constant of {pat} is rare enough to anchor at"
            );
            let (scan_any, _) = match_pattern_anywhere_with(&p, &doc, MatchStrategy::Scan);
            let (indexed_any, astats) =
                match_pattern_anywhere_with(&p, &doc, MatchStrategy::Indexed);
            assert_eq!(scan_any, indexed_any);
            assert_eq!(astats.probes, 1, "the root's bucket seeds {pat}");
        }
    }

    #[test]
    fn indexed_falls_back_below_threshold() {
        let doc = parse_tree(r#"a{b{"1"},c}"#).unwrap();
        let p = parse_pattern("a{b{$x}}").unwrap();
        let (out, stats) = match_pattern_with(&p, &doc, MatchStrategy::Indexed);
        assert_eq!(out.len(), 1);
        assert_eq!(stats.probes, 0);
        assert!(stats.fallbacks > 0);
    }
}
