//! Incremental per-document marking indexes.
//!
//! Pattern matching (Section 3.1) is the engine's innermost loop. A
//! [`DocIndex`] replaces its two scans with hash probes:
//!
//! * the **marking index** `Marking → [NodeId]` answers "which live nodes
//!   carry this marking" — used to seed candidate roots instead of a full
//!   `iter_live` walk;
//! * the **child index** `(NodeId, Marking) → [NodeId]` answers "which
//!   live children of this node carry this marking" — used to probe
//!   pattern children by label instead of scanning every sibling.
//!
//! # Invariants
//!
//! For a tree `t` with a built index at `t.version()`:
//!
//! 1. `nodes_with(m)` contains exactly the live nodes of `t` whose
//!    marking is `m` (no order guarantee);
//! 2. `children_with(p, m)` contains exactly the live children of `p`
//!    whose marking is `m` (no order guarantee);
//! 3. the index's mirrored version equals `t.version()`.
//!
//! Invariant 3 is a *hard error* on every probe: all tree mutations
//! funnel through [`crate::tree::Tree::add_child`] and
//! [`crate::tree::Tree::remove_subtree`], which maintain the index
//! incrementally and re-sync the version, so a mismatch means a
//! maintenance hook was bypassed and the index can no longer be trusted.
//! [`DocIndex::validate`] checks invariants 1–2 against a
//! rebuild-from-scratch; debug builds sample it after mutations (see
//! `docs/indexing.md`).

use crate::sym::FxHashMap;
use crate::tree::{Marking, NodeId, Tree};

const EMPTY: &[NodeId] = &[];

/// Aggregate statistics of one [`DocIndex`], for observability
/// ([`crate::trace::EventKind::IndexMaintain`]) and memory accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Entries inserted since the index was created (the initial build
    /// counts each indexed node as one add).
    pub adds: u64,
    /// Entries removed since the index was created.
    pub removes: u64,
    /// Distinct markings with a (possibly empty) bucket.
    pub marking_buckets: usize,
    /// Distinct `(parent, marking)` child buckets.
    pub child_buckets: usize,
    /// Live entries in the marking index (= live nodes of the tree).
    pub entries: usize,
    /// Rough heap footprint of the index, in bytes.
    pub bytes_estimate: u64,
}

/// The two hash indexes of one document, mirrored against a specific
/// [`Tree::version`]. Obtained via [`Tree::indexed_nodes_with`] and
/// friends; the tree builds it lazily and maintains it incrementally.
#[derive(Clone, Debug)]
pub struct DocIndex {
    version: u64,
    by_marking: FxHashMap<Marking, Vec<NodeId>>,
    by_child: FxHashMap<(NodeId, Marking), Vec<NodeId>>,
    /// Live entries in `by_marking` (kept so stats need no bucket walk).
    entries: usize,
    adds: u64,
    removes: u64,
}

impl DocIndex {
    /// Rebuild-from-scratch over the live nodes of `t`.
    pub fn build(t: &Tree) -> DocIndex {
        let mut ix = DocIndex {
            version: t.version(),
            by_marking: FxHashMap::default(),
            by_child: FxHashMap::default(),
            entries: 0,
            adds: 0,
            removes: 0,
        };
        for n in t.iter_live(t.root()) {
            ix.by_marking.entry(t.marking(n)).or_default().push(n);
            ix.entries += 1;
            ix.adds += 1;
            for &c in t.children(n) {
                ix.by_child.entry((n, t.marking(c))).or_default().push(c);
            }
        }
        ix
    }

    /// The tree version this index mirrors.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Live nodes carrying marking `m` (invariant 1).
    pub fn nodes_with(&self, m: Marking) -> &[NodeId] {
        self.by_marking.get(&m).map_or(EMPTY, Vec::as_slice)
    }

    /// Live children of `parent` carrying marking `m` (invariant 2).
    pub fn children_with(&self, parent: NodeId, m: Marking) -> &[NodeId] {
        self.by_child.get(&(parent, m)).map_or(EMPTY, Vec::as_slice)
    }

    /// Snapshot of the maintenance counters and footprint.
    pub fn stats(&self) -> IndexStats {
        // Every live non-root node appears in exactly one child bucket,
        // so child entries ≈ marking entries; the estimate charges map
        // and bucket overhead per bucket plus 4 bytes per entry.
        let entries = self.entries as u64;
        let bytes_estimate =
            self.by_marking.len() as u64 * 40 + self.by_child.len() as u64 * 48 + entries * 8;
        IndexStats {
            adds: self.adds,
            removes: self.removes,
            marking_buckets: self.by_marking.len(),
            child_buckets: self.by_child.len(),
            entries: self.entries,
            bytes_estimate,
        }
    }

    /// Hard error tying the index to the document version: panics when
    /// the mirrored version disagrees with the tree's.
    #[inline]
    pub(crate) fn assert_fresh(&self, tree_version: u64) {
        assert_eq!(
            self.version, tree_version,
            "stale document index: index mirrors version {} but the tree is at {}",
            self.version, tree_version
        );
    }

    /// Maintenance hook for [`Tree::add_child`]: `child` (marked `m`) was
    /// appended under `parent`, bumping the tree to `version`.
    pub(crate) fn record_add(&mut self, parent: NodeId, child: NodeId, m: Marking, version: u64) {
        self.by_marking.entry(m).or_default().push(child);
        self.by_child.entry((parent, m)).or_default().push(child);
        self.entries += 1;
        self.adds += 1;
        self.version = version;
    }

    /// Maintenance hook for [`Tree::remove_subtree`]: unlink the removed
    /// subtree's root `n` (marked `m`) from its parent's child bucket.
    pub(crate) fn unlink_child(&mut self, parent: NodeId, n: NodeId, m: Marking) {
        if let Some(bucket) = self.by_child.get_mut(&(parent, m)) {
            if let Some(pos) = bucket.iter().position(|&x| x == n) {
                bucket.swap_remove(pos);
            }
            if bucket.is_empty() {
                self.by_child.remove(&(parent, m));
            }
        }
    }

    /// Maintenance hook for [`Tree::remove_subtree`]: node `n` (marked
    /// `m`) is now dead.
    pub(crate) fn forget_node(&mut self, n: NodeId, m: Marking) {
        if let Some(bucket) = self.by_marking.get_mut(&m) {
            if let Some(pos) = bucket.iter().position(|&x| x == n) {
                bucket.swap_remove(pos);
                self.entries -= 1;
                self.removes += 1;
            }
        }
    }

    /// Maintenance hook for [`Tree::remove_subtree`]: drop the child
    /// bucket `(parent, m)` wholesale (the parent itself died, so its
    /// buckets are unreachable).
    pub(crate) fn drop_child_bucket(&mut self, parent: NodeId, m: Marking) {
        self.by_child.remove(&(parent, m));
    }

    /// Re-sync the mirrored version after a maintenance batch.
    pub(crate) fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// Validate the incremental state against a rebuild-from-scratch.
    /// Bucket order is irrelevant, and empty buckets left behind by
    /// removals are ignored.
    pub fn validate(&self, t: &Tree) -> Result<(), String> {
        if self.version != t.version() {
            return Err(format!(
                "index version {} != tree version {}",
                self.version,
                t.version()
            ));
        }
        let fresh = DocIndex::build(t);
        let live: usize = fresh.by_marking.values().map(Vec::len).sum();
        if self.entries != live {
            return Err(format!(
                "index tracks {} entries but the tree has {live} live nodes",
                self.entries
            ));
        }
        fn norm<K: Copy + Ord>(m: &FxHashMap<K, Vec<NodeId>>) -> Vec<(K, Vec<NodeId>)> {
            let mut v: Vec<(K, Vec<NodeId>)> = m
                .iter()
                .filter(|(_, b)| !b.is_empty())
                .map(|(k, b)| {
                    let mut b = b.clone();
                    b.sort_unstable();
                    (*k, b)
                })
                .collect();
            v.sort_unstable_by_key(|e| e.0);
            v
        }
        if norm(&self.by_marking) != norm(&fresh.by_marking) {
            return Err("marking index disagrees with rebuild-from-scratch".to_string());
        }
        if norm(&self.by_child) != norm(&fresh.by_child) {
            return Err("child index disagrees with rebuild-from-scratch".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;

    #[test]
    fn build_matches_tree_contents() {
        let t = parse_tree(r#"a{b{"1"},b{"2"},@f{c}}"#).unwrap();
        let ix = DocIndex::build(&t);
        assert_eq!(ix.nodes_with(Marking::label("b")).len(), 2);
        assert_eq!(ix.nodes_with(Marking::func("f")).len(), 1);
        assert_eq!(ix.nodes_with(Marking::label("zzz")).len(), 0);
        assert_eq!(ix.children_with(t.root(), Marking::label("b")).len(), 2);
        assert_eq!(ix.stats().entries, t.node_count());
        ix.validate(&t).unwrap();
    }

    #[test]
    fn stale_version_fails_validation() {
        let mut t = parse_tree("a{b}").unwrap();
        let ix = DocIndex::build(&t);
        t.add_child(t.root(), Marking::label("c")).unwrap();
        assert!(ix.validate(&t).is_err());
    }

    #[test]
    #[should_panic(expected = "stale document index")]
    fn stale_version_is_a_hard_error_on_probe() {
        let mut t = parse_tree("a{b}").unwrap();
        let ix = DocIndex::build(&t);
        t.add_child(t.root(), Marking::label("c")).unwrap();
        ix.assert_fresh(t.version());
    }
}
