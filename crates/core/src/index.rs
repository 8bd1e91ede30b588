//! The incremental per-document marking index.
//!
//! Pattern matching (Section 3.1) is the engine's innermost loop. A
//! [`DocIndex`] keeps one hash map, the **marking index**
//! `Marking → [NodeId]`, which answers "which live nodes carry this
//! marking". The anchored descent reads it to enter a rooted match at
//! its rarest constant, and unanchored matching seeds its candidate
//! roots from it instead of walking every live node (see
//! `docs/indexing.md`). A pattern child takes its candidates from its
//! parent's child list under the marking test, so no per-parent index
//! is kept.
//!
//! # Invariants
//!
//! For a tree `t` with a built index at `t.version()`:
//!
//! 1. `nodes_with(m)` contains exactly the live nodes of `t` whose
//!    marking is `m` (no order guarantee);
//! 2. the index's mirrored version equals `t.version()`.
//!
//! Invariant 2 is a *hard error* on every probe: all tree mutations
//! funnel through [`crate::tree::Tree::add_child`] and
//! [`crate::tree::Tree::remove_subtree`], which maintain the index
//! incrementally and re-sync the version, so a mismatch means a
//! maintenance hook was bypassed and the index can no longer be trusted.
//! [`DocIndex::validate`] checks invariant 1 against a
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
    /// Live entries in the marking index (= live nodes of the tree).
    pub entries: usize,
    /// Rough heap footprint of the index, in bytes: 40 per marking
    /// bucket (map slot and bucket header) plus 4 per entry. This is
    /// also about what the first write after a snapshot copies.
    pub bytes_estimate: u64,
}

/// The marking index of one document, mirrored against a specific
/// [`Tree::version`]. Read through [`Tree::indexed_nodes_with`]; the tree
/// builds it lazily and maintains it incrementally.
#[derive(Clone, Debug)]
pub struct DocIndex {
    version: u64,
    by_marking: FxHashMap<Marking, Vec<NodeId>>,
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
            entries: 0,
            adds: 0,
            removes: 0,
        };
        for n in t.iter_live(t.root()) {
            ix.by_marking.entry(t.marking(n)).or_default().push(n);
            ix.entries += 1;
            ix.adds += 1;
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

    /// Snapshot of the maintenance counters and footprint.
    pub fn stats(&self) -> IndexStats {
        // Every live node appears in exactly one bucket.
        let bytes_estimate = self.by_marking.len() as u64 * 40 + self.entries as u64 * 4;
        IndexStats {
            adds: self.adds,
            removes: self.removes,
            marking_buckets: self.by_marking.len(),
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
    /// added, bumping the tree to `version`.
    pub(crate) fn record_add(&mut self, child: NodeId, m: Marking, version: u64) {
        self.by_marking.entry(m).or_default().push(child);
        self.entries += 1;
        self.adds += 1;
        self.version = version;
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
        fn norm(m: &FxHashMap<Marking, Vec<NodeId>>) -> Vec<(Marking, Vec<NodeId>)> {
            let mut v: Vec<(Marking, Vec<NodeId>)> = m
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
