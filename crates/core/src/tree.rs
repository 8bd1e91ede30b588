//! Unordered AXML trees (Definition 2.1), stored as persistent
//! copy-on-write arenas.
//!
//! A tree is an arena of nodes; each node carries a [`Marking`] — a label,
//! a function name (a Web-service call), or an atomic value. The paper's
//! two structural invariants are enforced where they apply:
//!
//! * atomic values mark only leaves — enforced on every `add_child`;
//! * a *document* root is a label or a value — enforced by
//!   [`Tree::validate_document_root`], not by the arena itself, because
//!   intermediate trees (e.g. the `context` of a nested call, whose root
//!   may be an enclosing function node) legitimately violate it.
//!
//! Nodes are never reused: removal marks a subtree dead and unlinks it
//! from its parent, but live node ids stay stable. The rewriting engine
//! relies on this to keep function-node identities across invocation steps
//! (reduction keeps the *oldest* of equivalent siblings; see
//! [`mod@crate::reduce`]).
//!
//! # Copy-on-write representation
//!
//! The arena is a two-level chunked spine: an `Arc` of chunk pointers,
//! each chunk an `Arc` of up to [`CHUNK`] node slots. [`Tree::clone`] is
//! two `Arc` bumps — O(1) whatever the document size — which is what
//! makes [`crate::system::System::snapshot`] a constant-time MVCC
//! snapshot. Reads cost two index operations; a mutation path-copies
//! only what it touches (`Arc::make_mut` on the spine vector and the one
//! affected chunk), so a clone and its original share every untouched
//! chunk. The paper's fixpoint semantics (Thm 2.1) is defined over
//! immutable states, and positive rewriting only ever *extends*
//! documents — the ideal case for path copying: a graft after a snapshot
//! copies O(nodes/[`CHUNK`]) spine pointers once, then O([`CHUNK`])
//! nodes per touched chunk.
//!
//! # MVCC handles
//!
//! `(Tree::id, Tree::version)` is a real snapshot handle: version stamps
//! are drawn from one process-wide counter, so a pair names immutable
//! content. A clone keeps the original's `(id, version)` — it *is* the
//! same content — and whichever handle mutates first moves to a globally
//! fresh version while the others keep observing the old pair.
//! Subsumption memos, the per-atom match cache, and the program cache
//! are all keyed on these pairs and stay sound across snapshots without
//! any invalidation traffic.

use crate::error::{AxmlError, Result};
use crate::index::{DocIndex, IndexStats};
use crate::sym::Sym;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Arena size at which an indexed match lazily builds the document index.
/// Smaller trees (pattern instantiations, contexts, canonical-key
/// scratch copies) answer scans faster than they could amortize a
/// build, and skipping the build means they never pay maintenance.
const INDEX_BUILD_THRESHOLD: usize = 48;

/// log2 of [`CHUNK`]: node index `i` lives in chunk `i >> CHUNK_BITS`
/// at offset `i & (CHUNK - 1)`.
const CHUNK_BITS: usize = 6;

/// Nodes per copy-on-write chunk. 64 slots keeps the per-write copy
/// small (one chunk) while a snapshot's spine copy on first divergence
/// stays `nodes / 64` pointers.
pub const CHUNK: usize = 1 << CHUNK_BITS;

const CHUNK_MASK: usize = CHUNK - 1;

/// Process-wide tree-identity counter; see [`Tree::id`].
static NEXT_TREE_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_tree_id() -> u64 {
    NEXT_TREE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Process-wide version-stamp counter; see [`Tree::version`]. Starting
/// at 1 keeps 0 as the "never mutated" stamp every fresh tree begins
/// with.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// The marking of a node: label, function name, or atomic value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Marking {
    /// A data node carrying a label from `L`.
    Label(Sym),
    /// A function node carrying a function name from `F` (a service call).
    Func(Sym),
    /// A data leaf carrying an atomic value from `V`.
    Value(Sym),
}

impl Marking {
    /// Convenience constructor for a label marking.
    pub fn label(s: &str) -> Marking {
        Marking::Label(Sym::intern(s))
    }

    /// Convenience constructor for a function marking.
    pub fn func(s: &str) -> Marking {
        Marking::Func(Sym::intern(s))
    }

    /// Convenience constructor for a value marking.
    pub fn value(s: &str) -> Marking {
        Marking::Value(Sym::intern(s))
    }

    /// True for function markings.
    pub fn is_func(&self) -> bool {
        matches!(self, Marking::Func(_))
    }

    /// True for atomic-value markings.
    pub fn is_value(&self) -> bool {
        matches!(self, Marking::Value(_))
    }

    /// The underlying symbol, whatever the kind.
    pub fn sym(&self) -> Sym {
        match *self {
            Marking::Label(s) | Marking::Func(s) | Marking::Value(s) => s,
        }
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Marking::Label(s) => write!(f, "{s}"),
            Marking::Func(s) => write!(f, "@{s}"),
            Marking::Value(s) => write!(f, "{s:?}", s = s.as_str()),
        }
    }
}

/// Index of a node inside one [`Tree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct Node {
    marking: Marking,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    alive: bool,
}

/// One copy-on-write chunk of the arena.
type Chunk = Arc<Vec<Node>>;

/// An unordered AXML tree backed by a persistent chunked node arena.
///
/// ```
/// use axml_core::parse::parse_tree;
/// use axml_core::tree::{Marking, Tree};
///
/// // Example 2.1's document: a{f} with f a function node.
/// let mut doc = parse_tree("a{@f}")?;
/// let root = doc.root();
/// assert_eq!(doc.marking(root), Marking::label("a"));
/// assert_eq!(doc.node_count(), 2);
///
/// // Clones are O(1) snapshots: mutation draws a globally fresh version
/// // stamp and copy-on-write diverges only the mutated handle; node ids
/// // stay stable.
/// let snap = doc.clone();
/// let v0 = doc.version();
/// doc.add_child(root, Marking::value("42"))?;
/// assert!(doc.version() > v0);
/// assert_eq!(snap.version(), v0);
/// assert_eq!(snap.node_count(), 2, "the snapshot is immutable");
/// assert!(doc.is_alive(root));
/// # Ok::<(), axml_core::AxmlError>(())
/// ```
#[derive(Debug)]
pub struct Tree {
    /// The chunked arena spine. Shared wholesale by clones; mutation
    /// path-copies the spine vector and the one touched chunk.
    spine: Arc<Vec<Chunk>>,
    /// Arena slots in use (the last chunk may be partially filled).
    len: usize,
    /// Live nodes: kept by [`Tree::add_child`] and
    /// [`Tree::remove_subtree`], so [`Tree::node_count`] walks nothing.
    live: usize,
    root: NodeId,
    id: u64,
    version: u64,
    /// Deterministic per-handle mutation tally (see
    /// [`Tree::mutation_count`]): what observability reports, while
    /// [`Tree::version`] carries the globally unique MVCC stamp.
    mutations: u64,
    /// Lazily built marking index (see [`mod@crate::index`]).
    /// The cell itself is `Arc`-shared by clones, so an index built on
    /// *either* side of a snapshot is published to every handle still
    /// at that version; the first divergence copies the cell (and, if
    /// built, the index: one bucket per distinct marking, a few dozen
    /// on a closure document) for the mutating handle. All sharers of one
    /// cell are at the same `(id, version)` — any mutation replaces the
    /// cell before restamping — so a published index can never be stale
    /// for a reader. `OnceLock` rather than a cell keeps `Tree: Sync`
    /// (services are `Send + Sync` and may capture forests; server
    /// reader threads probe shared snapshots).
    index: Arc<OnceLock<Arc<DocIndex>>>,
}

impl Clone for Tree {
    /// O(1): two `Arc` bumps. The clone keeps the original's
    /// `(id, version)` — it *is* the same immutable content — so every
    /// `(id, version)`-keyed memo, match-cache entry, and compiled
    /// program computed against one handle stays valid for the other.
    /// Divergence is handled at mutation time: version stamps are
    /// globally unique, so two handles can never present different
    /// content under one key.
    fn clone(&self) -> Tree {
        Tree {
            spine: Arc::clone(&self.spine),
            len: self.len,
            live: self.live,
            root: self.root,
            id: self.id,
            version: self.version,
            mutations: self.mutations,
            index: Arc::clone(&self.index),
        }
    }
}

impl Tree {
    /// Create a single-node tree with the given root marking.
    ///
    /// Any marking is accepted here; use [`Tree::validate_document_root`]
    /// when the tree is meant to be a document.
    pub fn new(root: Marking) -> Tree {
        let mut chunk = Vec::with_capacity(CHUNK);
        chunk.push(Node {
            marking: root,
            parent: None,
            children: Vec::new(),
            alive: true,
        });
        Tree {
            spine: Arc::new(vec![Arc::new(chunk)]),
            len: 1,
            live: 1,
            root: NodeId(0),
            id: fresh_tree_id(),
            version: 0,
            mutations: 0,
            index: Arc::new(OnceLock::new()),
        }
    }

    /// Create a tree with a label root — the common case.
    pub fn with_label(label: &str) -> Tree {
        Tree::new(Marking::label(label))
    }

    /// Definition 2.1 (ii): a document root must be a label or a value.
    pub fn validate_document_root(&self) -> Result<()> {
        if self.marking(self.root).is_func() {
            Err(AxmlError::FunctionRoot)
        } else {
            Ok(())
        }
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// A process-unique identity for this arena, *stable across clones*:
    /// a clone names the same immutable content, so it keeps the id, and
    /// `(id, version)` pairs still never name two different contents
    /// because version stamps are globally unique (see
    /// [`Tree::version`]). This is the key property behind cross-tree
    /// subsumption memos, the engine's per-atom match cache, and the
    /// compiled-program cache staying sound across MVCC snapshots.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Mutation stamp, strictly increasing per handle: every
    /// [`Tree::add_child`] and [`Tree::remove_subtree`] (hence every
    /// graft and in-place reduction) draws a fresh stamp from one
    /// process-wide counter. Equal `(id, version)` pairs guarantee
    /// identical content — even between a snapshot and the handle it was
    /// taken from, because the counter never re-issues a stamp — which
    /// is what the engine's read-set skipping and the MVCC
    /// snapshot handles rely on.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The `(id, version)` MVCC handle naming this tree's current
    /// immutable content.
    #[inline]
    pub fn snapshot_handle(&self) -> (u64, u64) {
        (self.id, self.version)
    }

    /// Deterministic mutation tally for this handle: starts at 0,
    /// increments by exactly one per [`Tree::add_child`] /
    /// [`Tree::remove_subtree`], and is copied by clones. Unlike
    /// [`Tree::version`] — whose stamps come from a process-wide
    /// counter and therefore depend on what else the process did — this
    /// count is reproducible run-to-run, so it is what trace events,
    /// wire frames, and [`crate::system::System::version`] report.
    #[inline]
    pub fn mutation_count(&self) -> u64 {
        self.mutations
    }

    #[inline]
    fn node(&self, n: NodeId) -> &Node {
        let i = n.idx();
        &self.spine[i >> CHUNK_BITS][i & CHUNK_MASK]
    }

    /// Copy-on-write write access to one node: path-copies the spine
    /// vector and the touched chunk when (and only when) they are shared
    /// with another handle. Everything this does not touch keeps being
    /// shared with outstanding snapshots.
    #[inline]
    fn node_mut(&mut self, n: NodeId) -> &mut Node {
        let i = n.idx();
        let spine = Arc::make_mut(&mut self.spine);
        let chunk = Arc::make_mut(&mut spine[i >> CHUNK_BITS]);
        &mut chunk[i & CHUNK_MASK]
    }

    /// Append a node slot, copy-on-write style: a shared spine (and a
    /// shared, partially filled last chunk) are path-copied first, so
    /// outstanding snapshots never observe the new slot.
    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.len).expect("arena exceeds u32 node ids"));
        let spine = Arc::make_mut(&mut self.spine);
        if self.len & CHUNK_MASK == 0 {
            spine.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let chunk = Arc::make_mut(spine.last_mut().expect("spine is never empty"));
        chunk.push(node);
        self.len += 1;
        self.debug_check_cow();
        id
    }

    /// Copy-on-write write access to the maintained index, if built: the
    /// shared cell is replaced with a private copy first (an `Arc` bump
    /// when the index is absent, one copy of the marking buckets on the
    /// first divergence after a snapshot), so handles still at the old
    /// version keep their published index untouched.
    fn index_mut(&mut self) -> Option<&mut DocIndex> {
        Arc::make_mut(&mut self.index).get_mut().map(Arc::make_mut)
    }

    /// The marking of node `n`.
    #[inline]
    pub fn marking(&self, n: NodeId) -> Marking {
        self.node(n).marking
    }

    /// The live children of node `n`.
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.node(n).children
    }

    /// The parent of node `n` (`None` for the root).
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.node(n).parent
    }

    /// Whether node `n` is still part of the tree.
    #[inline]
    pub fn is_alive(&self, n: NodeId) -> bool {
        n.idx() < self.len && self.node(n).alive
    }

    /// Add a child with marking `m` under `parent`. Fails if `parent` is an
    /// atomic-value node (Definition 2.1 (i)) or dead.
    pub fn add_child(&mut self, parent: NodeId, m: Marking) -> Result<NodeId> {
        if !self.is_alive(parent) {
            return Err(AxmlError::DeadNode);
        }
        if self.marking(parent).is_value() {
            return Err(AxmlError::ValueNodeWithChildren);
        }
        let id = self.push_node(Node {
            marking: m,
            parent: Some(parent),
            children: Vec::new(),
            alive: true,
        });
        self.node_mut(parent).children.push(id);
        self.live += 1;
        self.version = fresh_version();
        self.mutations += 1;
        let version = self.version;
        if let Some(ix) = self.index_mut() {
            ix.record_add(id, m, version);
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
        Ok(id)
    }

    /// Remove the subtree rooted at `n` (unlink from parent, mark dead).
    /// Removing the root is not allowed.
    pub fn remove_subtree(&mut self, n: NodeId) -> Result<()> {
        if !self.is_alive(n) {
            return Err(AxmlError::DeadNode);
        }
        let parent = self.node(n).parent.ok_or(AxmlError::DeadNode)?;
        let siblings = &mut self.node_mut(parent).children;
        if let Some(pos) = siblings.iter().position(|&c| c == n) {
            siblings.swap_remove(pos);
        }
        // Mark the whole subtree dead, iteratively, retiring each node's
        // index entry as it dies.
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            self.live -= 1;
            let node = self.node_mut(x);
            node.alive = false;
            let kids = std::mem::take(&mut node.children);
            let x_marking = node.marking;
            if let Some(ix) = self.index_mut() {
                ix.forget_node(x, x_marking);
            }
            stack.extend(kids);
        }
        self.version = fresh_version();
        self.mutations += 1;
        let version = self.version;
        if let Some(ix) = self.index_mut() {
            ix.set_version(version);
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
        Ok(())
    }

    /// Number of live nodes, in constant time.
    pub fn node_count(&self) -> usize {
        debug_assert_eq!(self.live, self.iter_live(self.root).count());
        self.live
    }

    /// Total arena slots ever allocated (live + dead).
    pub fn arena_len(&self) -> usize {
        self.len
    }

    /// Number of arena chunks this tree shares (pointer-equal) with
    /// `other` — the test- and bench-visible probe of copy-on-write
    /// structural sharing. A fresh clone shares every chunk; each
    /// mutation diverges at most the touched chunk (plus, for appends,
    /// the tail chunk).
    pub fn shared_chunks_with(&self, other: &Tree) -> usize {
        if Arc::ptr_eq(&self.spine, &other.spine) {
            return self.spine.len();
        }
        self.spine
            .iter()
            .zip(other.spine.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Total chunks in the arena spine.
    pub fn chunk_count(&self) -> usize {
        self.spine.len()
    }

    /// Structural-sharing invariant, checked under debug assertions at
    /// every write: a handle that just mutated must own its spine
    /// exclusively — a node reachable from a diverged snapshot must
    /// never be written through. `Arc::make_mut` enforces this by
    /// construction; the check guards the funnel against any future
    /// write path that bypasses it.
    #[inline]
    fn debug_check_cow(&self) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            Arc::strong_count(&self.spine),
            1,
            "mutated through a spine still shared with a snapshot"
        );
    }

    /// Depth-first iterator over the live nodes of the subtree at `n`.
    pub fn iter_live(&self, n: NodeId) -> LiveIter<'_> {
        LiveIter {
            tree: self,
            stack: if self.is_alive(n) { vec![n] } else { vec![] },
        }
    }

    /// All live function nodes, in depth-first order.
    pub fn function_nodes(&self) -> Vec<NodeId> {
        self.iter_live(self.root)
            .filter(|&n| self.marking(n).is_func())
            .collect()
    }

    /// Depth (edge count) of the subtree rooted at `n`.
    pub fn depth(&self, n: NodeId) -> usize {
        let mut max = 0usize;
        let mut stack = vec![(n, 0usize)];
        while let Some((x, d)) = stack.pop() {
            max = max.max(d);
            for &c in self.children(x) {
                stack.push((c, d + 1));
            }
        }
        max
    }

    /// Deep-copy the subtree rooted at `n` into a fresh tree.
    pub fn subtree(&self, n: NodeId) -> Tree {
        let mut out = Tree::new(self.marking(n));
        let dst_root = out.root();
        self.copy_children_into(n, &mut out, dst_root);
        out
    }

    /// [`Tree::subtree`], also returning the newest (highest-id) node of
    /// the copied subtree, found in the same walk. Each node's children
    /// keep their order in the copy.
    pub(crate) fn subtree_with_newest(&self, n: NodeId) -> (Tree, NodeId) {
        fn copy(src: &Tree, s: NodeId, dst: &mut Tree, d: NodeId, newest: &mut NodeId) {
            for &c in src.children(s) {
                *newest = (*newest).max(c);
                let dc = dst
                    .add_child(d, src.marking(c))
                    .expect("copy target must accept children");
                copy(src, c, dst, dc, newest);
            }
        }
        let mut out = Tree::new(self.marking(n));
        let mut newest = n;
        let root = out.root;
        copy(self, n, &mut out, root, &mut newest);
        (out, newest)
    }

    /// Copy the children subtrees of `src_node` (in `self`) as children of
    /// `dst_node` in `dst`.
    pub fn copy_children_into(&self, src_node: NodeId, dst: &mut Tree, dst_node: NodeId) {
        for &c in self.children(src_node) {
            self.copy_subtree_into(c, dst, dst_node);
        }
    }

    /// Copy the subtree rooted at `src_node` (in `self`) as a new child of
    /// `dst_node` in `dst`, returning the new subtree root's id.
    pub fn copy_subtree_into(&self, src_node: NodeId, dst: &mut Tree, dst_node: NodeId) -> NodeId {
        let new_root = dst
            .add_child(dst_node, self.marking(src_node))
            .expect("copy target must accept children");
        let mut stack: Vec<(NodeId, NodeId)> = vec![(src_node, new_root)];
        while let Some((s, d)) = stack.pop() {
            for &c in self.children(s) {
                let nd = dst
                    .add_child(d, self.marking(c))
                    .expect("copy target must accept children");
                stack.push((c, nd));
            }
        }
        new_root
    }

    /// Append a copy of `other` (whole tree) as a child of `parent`.
    pub fn graft(&mut self, parent: NodeId, other: &Tree) -> Result<NodeId> {
        if !self.is_alive(parent) {
            return Err(AxmlError::DeadNode);
        }
        if self.marking(parent).is_value() {
            return Err(AxmlError::ValueNodeWithChildren);
        }
        Ok(other.copy_subtree_into(other.root(), self, parent))
    }

    /// Rebuild the arena, dropping dead slots. Node ids are *not*
    /// preserved; use only between engine runs.
    pub fn compact(&self) -> Tree {
        self.subtree(self.root)
    }

    /// Leaf count (live nodes with no children).
    pub fn leaf_count(&self) -> usize {
        self.iter_live(self.root)
            .filter(|&n| self.children(n).is_empty())
            .count()
    }

    /// The document index, building it lazily once the arena is large
    /// enough to amortize the build. `None` means "keep scanning".
    /// Every indexed match asks for it once, when it chooses its anchor
    /// ([`crate::matcher`]), so the first indexed match on a large
    /// document builds it. A build publishes into the `Arc`-shared
    /// cell, so every handle still at this version — the writer a
    /// snapshot was taken from, or other snapshots — sees it too.
    /// Probing a stale index is a hard error (panic), never a silent
    /// wrong answer — see [`mod@crate::index`].
    pub(crate) fn live_index(&self) -> Option<&DocIndex> {
        if let Some(ix) = self.index.get() {
            ix.assert_fresh(self.version);
            return Some(ix);
        }
        if self.len < INDEX_BUILD_THRESHOLD {
            return None;
        }
        let ix = self.index.get_or_init(|| Arc::new(DocIndex::build(self)));
        ix.assert_fresh(self.version);
        Some(ix)
    }

    /// Force the index to exist regardless of the lazy-build threshold
    /// (tests and benchmarks; the matcher goes through the lazy build).
    pub fn build_index(&self) {
        let ix = self.index.get_or_init(|| Arc::new(DocIndex::build(self)));
        ix.assert_fresh(self.version);
    }

    /// Has the lazy index been built yet?
    pub fn index_is_built(&self) -> bool {
        self.index.get().is_some()
    }

    /// Index probe: live nodes carrying marking `m`, anywhere in the
    /// tree. `None` when the tree is below the index threshold.
    pub fn indexed_nodes_with(&self, m: Marking) -> Option<&[NodeId]> {
        self.live_index().map(|ix| ix.nodes_with(m))
    }

    /// Maintenance counters and footprint of the index, if built.
    pub fn index_stats(&self) -> Option<IndexStats> {
        self.index.get().map(|ix| {
            ix.assert_fresh(self.version);
            ix.stats()
        })
    }

    /// Check the incrementally maintained index against a
    /// rebuild-from-scratch. `Ok` when the index is not built.
    pub fn validate_index(&self) -> std::result::Result<(), String> {
        match self.index.get() {
            None => Ok(()),
            Some(ix) => ix.validate(self),
        }
    }

    /// Sampled rebuild-vs-incremental validation behind debug assertions:
    /// small arenas are checked on every mutation, large ones
    /// periodically, so debug test runs (and the CI debug-assertions
    /// job) exercise the maintenance hooks without going quadratic.
    #[cfg(debug_assertions)]
    fn debug_check_index(&self) {
        if self.index.get().is_some() && (self.len <= 64 || self.version.is_multiple_of(61)) {
            if let Err(e) = self.validate_index() {
                panic!("document index invariant broken: {e}");
            }
        }
    }
}

/// Iterator over live nodes, depth-first preorder.
pub struct LiveIter<'a> {
    tree: &'a Tree,
    stack: Vec<NodeId>,
}

impl Iterator for LiveIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.stack.pop()?;
        self.stack.extend(self.tree.children(n).iter().copied());
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // a{b{"1"}, @f{c}}
        let mut t = Tree::with_label("a");
        let b = t.add_child(t.root(), Marking::label("b")).unwrap();
        t.add_child(b, Marking::value("1")).unwrap();
        let f = t.add_child(t.root(), Marking::func("f")).unwrap();
        t.add_child(f, Marking::label("c")).unwrap();
        t
    }

    #[test]
    fn build_and_count() {
        let t = sample();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.leaf_count(), 2);
        assert_eq!(t.depth(t.root()), 2);
    }

    #[test]
    fn values_stay_leaves() {
        let mut t = Tree::with_label("a");
        let v = t.add_child(t.root(), Marking::value("5")).unwrap();
        assert_eq!(
            t.add_child(v, Marking::label("x")),
            Err(AxmlError::ValueNodeWithChildren)
        );
    }

    #[test]
    fn function_roots_rejected_for_documents() {
        let t = Tree::new(Marking::func("f"));
        assert_eq!(t.validate_document_root(), Err(AxmlError::FunctionRoot));
        assert!(sample().validate_document_root().is_ok());
    }

    #[test]
    fn remove_subtree_unlinks_and_kills() {
        let mut t = sample();
        let f = t.function_nodes()[0];
        t.remove_subtree(f).unwrap();
        assert!(!t.is_alive(f));
        assert_eq!(t.node_count(), 3);
        assert!(t.function_nodes().is_empty());
        // Dead node operations fail.
        assert_eq!(t.remove_subtree(f), Err(AxmlError::DeadNode));
        assert_eq!(
            t.add_child(f, Marking::label("x")),
            Err(AxmlError::DeadNode)
        );
    }

    #[test]
    fn subtree_copy_is_deep() {
        let t = sample();
        let f = t.function_nodes()[0];
        let sub = t.subtree(f);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.marking(sub.root()), Marking::func("f"));
    }

    #[test]
    fn graft_appends_copy() {
        let mut t = sample();
        let extra = Tree::with_label("z");
        let at = t.graft(t.root(), &extra).unwrap();
        assert_eq!(t.marking(at), Marking::label("z"));
        assert_eq!(t.children(t.root()).len(), 3);
    }

    #[test]
    fn compact_preserves_structure() {
        let mut t = sample();
        let f = t.function_nodes()[0];
        t.remove_subtree(f).unwrap();
        let c = t.compact();
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.arena_len(), 3);
        assert!(t.arena_len() > c.arena_len());
    }

    #[test]
    fn clone_keeps_identity_and_versions_stay_injective() {
        let mut t = sample();
        let v0 = t.version();
        let dup = t.clone();
        assert_eq!(t.id(), dup.id(), "a clone is the same content");
        assert_eq!(dup.version(), v0);
        assert_eq!(t.snapshot_handle(), dup.snapshot_handle());
        t.add_child(t.root(), Marking::label("x")).unwrap();
        assert!(t.version() > v0, "mutation moves to a fresh global stamp");
        assert_eq!(dup.version(), v0, "clone is unaffected");
        assert_ne!(
            t.snapshot_handle(),
            dup.snapshot_handle(),
            "diverged handles never share a key"
        );
        let f = t.function_nodes()[0];
        let v1 = t.version();
        t.remove_subtree(f).unwrap();
        assert!(t.version() > v1);
    }

    #[test]
    fn version_stamps_globally_unique_across_trees() {
        let mut a = Tree::with_label("a");
        let mut b = Tree::with_label("b");
        a.add_child(a.root(), Marking::label("x")).unwrap();
        b.add_child(b.root(), Marking::label("y")).unwrap();
        a.add_child(a.root(), Marking::label("x")).unwrap();
        assert_ne!(a.version(), b.version(), "stamps come from one counter");
    }

    #[test]
    fn clone_is_immutable_snapshot_under_divergence() {
        let mut t = sample();
        let snap = t.clone();
        let x = t.add_child(t.root(), Marking::label("x")).unwrap();
        let f = t.function_nodes()[0];
        t.remove_subtree(f).unwrap();
        // The writer sees its own edits...
        assert!(t.is_alive(x));
        assert!(!t.is_alive(f));
        assert_eq!(t.node_count(), 4);
        // ...while the snapshot still reads the pre-divergence state.
        assert!(!snap.is_alive(x), "snapshot predates the add");
        assert!(snap.is_alive(f), "snapshot still holds the removed call");
        assert_eq!(snap.node_count(), 5);
        assert_eq!(snap.children(snap.root()).len(), 2);
        // Divergence works in both directions: mutating the snapshot's
        // handle does not leak into the writer.
        let mut snap = snap;
        snap.add_child(snap.root(), Marking::label("w")).unwrap();
        assert_eq!(snap.node_count(), 6);
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn clone_shares_chunks_until_divergence() {
        let mut t = Tree::with_label("r");
        for _ in 0..(3 * CHUNK) {
            t.add_child(t.root(), Marking::label("c")).unwrap();
        }
        let chunks = t.chunk_count();
        assert!(chunks >= 3);
        let snap = t.clone();
        assert_eq!(t.shared_chunks_with(&snap), chunks, "a clone shares all");
        // One append touches the root's chunk (child list) and the tail
        // chunk (new slot); every other chunk keeps being shared.
        t.add_child(t.root(), Marking::label("c")).unwrap();
        let shared = t.shared_chunks_with(&snap);
        assert!(
            shared >= chunks - 2,
            "append diverged {} of {chunks} chunks",
            chunks - shared
        );
        assert!(shared < t.chunk_count(), "touched chunks did diverge");
    }

    #[test]
    fn graft_bumps_version() {
        let mut t = sample();
        let v0 = t.version();
        let extra = Tree::with_label("z");
        t.graft(t.root(), &extra).unwrap();
        assert!(t.version() > v0);
    }

    #[test]
    fn index_maintained_incrementally_across_mutations() {
        let mut t = sample();
        assert!(!t.index_is_built(), "small trees stay unindexed");
        t.build_index();
        assert!(t.index_is_built());
        let b = Marking::label("b");
        assert_eq!(t.indexed_nodes_with(b).unwrap().len(), 1);
        let x = t.add_child(t.root(), b).unwrap();
        assert_eq!(t.indexed_nodes_with(b).unwrap(), &[NodeId(1), x]);
        t.validate_index().unwrap();
        t.remove_subtree(x).unwrap();
        assert_eq!(t.indexed_nodes_with(b).unwrap().len(), 1);
        let f = t.function_nodes()[0];
        t.remove_subtree(f).unwrap();
        assert!(t.indexed_nodes_with(Marking::func("f")).unwrap().is_empty());
        assert!(
            t.indexed_nodes_with(Marking::label("c"))
                .unwrap()
                .is_empty(),
            "the removed call's child leaves the index with it"
        );
        t.validate_index().unwrap();
        let stats = t.index_stats().unwrap();
        assert_eq!(stats.entries, t.node_count());
        assert!(stats.adds > 0 && stats.removes > 0);
        assert!(stats.bytes_estimate > 0);
    }

    #[test]
    fn index_shared_by_clones_until_divergence() {
        let mut t = Tree::with_label("r");
        for i in 0..INDEX_BUILD_THRESHOLD {
            t.add_child(
                t.root(),
                Marking::label(if i % 2 == 0 { "even" } else { "odd" }),
            )
            .unwrap();
        }
        assert!(!t.index_is_built());
        let evens = t.indexed_nodes_with(Marking::label("even")).unwrap();
        assert_eq!(evens.len(), INDEX_BUILD_THRESHOLD / 2);
        assert!(t.index_is_built());
        let dup = t.clone();
        assert!(
            dup.index_is_built(),
            "a same-version clone shares the published index"
        );
        assert_eq!(
            dup.indexed_nodes_with(Marking::label("odd")).unwrap().len(),
            INDEX_BUILD_THRESHOLD / 2
        );
        // A build on either side of the clone publishes to both.
        let fresh = t.clone();
        let probed = Tree::clone(&fresh);
        probed.build_index();
        assert!(fresh.index_is_built(), "build on one handle serves all");
        // Divergence isolates: the writer maintains its private copy,
        // the snapshot keeps the published one, and both stay valid.
        let mut writer = dup.clone();
        writer
            .add_child(writer.root(), Marking::label("even"))
            .unwrap();
        assert_eq!(
            writer
                .indexed_nodes_with(Marking::label("even"))
                .unwrap()
                .len(),
            INDEX_BUILD_THRESHOLD / 2 + 1
        );
        assert_eq!(
            dup.indexed_nodes_with(Marking::label("even"))
                .unwrap()
                .len(),
            INDEX_BUILD_THRESHOLD / 2,
            "snapshot's index is untouched by the writer's maintenance"
        );
        writer.validate_index().unwrap();
        dup.validate_index().unwrap();
        t.validate_index().unwrap();
    }

    #[test]
    fn graft_and_reduce_style_mutations_keep_index_valid() {
        let mut t = Tree::with_label("r");
        t.build_index();
        let extra = sample();
        let at = t.graft(t.root(), &extra).unwrap();
        t.validate_index().unwrap();
        assert_eq!(t.indexed_nodes_with(Marking::label("a")).unwrap(), &[at]);
        t.remove_subtree(at).unwrap();
        t.validate_index().unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.index_stats().unwrap().entries, 1);
    }

    #[test]
    fn ids_stable_across_removal_of_sibling() {
        let mut t = Tree::with_label("a");
        let b = t.add_child(t.root(), Marking::label("b")).unwrap();
        let c = t.add_child(t.root(), Marking::label("c")).unwrap();
        t.remove_subtree(b).unwrap();
        assert!(t.is_alive(c));
        assert_eq!(t.marking(c), Marking::label("c"));
    }
}
