//! Differential coverage for the copy-on-write persistent tree engine:
//! `Tree::clone` / `System::snapshot` are O(1) frozen handles, and the
//! engine run on a COW clone is bit-for-bit the engine run on the
//! original — answers, fixpoint statistics, trace journals, and explain
//! DAGs.
//!
//! Background (see `docs/mvcc.md`): nodes live in chunked `Arc`-shared
//! spines, mutators path-copy only the touched chunk, and every commit
//! stamps a fresh globally-unique version while a separate per-handle
//! mutation tally keeps everything observable (journals, stats, wire
//! frames) deterministic run-to-run.

use positive_axml::core::engine::{run, EngineConfig, RunStatus};
use positive_axml::core::gensys::{random_simple_system, GenConfig};
use positive_axml::core::tree::{Marking, Tree};
use proptest::prelude::*;

const BUDGET: usize = 5_000;

fn gen_cfg(knob: u64) -> GenConfig {
    GenConfig {
        services: 2 + (knob % 3) as usize,
        docs: 1 + (knob % 2) as usize,
        head_call_prob: 0.15 + 0.2 * ((knob % 4) as f64),
        ..GenConfig::default()
    }
}

/// A live node picked deterministically from `k` (always succeeds:
/// the root is live).
fn pick_live(t: &Tree, k: usize) -> positive_axml::core::tree::NodeId {
    let live: Vec<_> = t.iter_live(t.root()).collect();
    live[k % live.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Tree::node_count` is a counter kept by `add_child` and
    /// `remove_subtree`; random scripts that mutate a tree and its COW
    /// clones, each handle on its own, never move it away from a walk
    /// over the live nodes.
    #[test]
    fn node_count_equals_the_live_walk_on_every_clone(
        ops in prop::collection::vec((0u8..5, 0usize..8, 0usize..64), 1..80),
    ) {
        let mut handles = vec![Tree::with_label("root")];
        for &(op, h, k) in &ops {
            let h = h % handles.len();
            let t = &mut handles[h];
            match op {
                0..=2 => {
                    let parent = pick_live(t, k);
                    t.add_child(parent, Marking::label(["a", "b"][k % 2])).unwrap();
                }
                3 => {
                    let n = pick_live(t, k);
                    if n != t.root() {
                        t.remove_subtree(n).unwrap();
                    }
                }
                _ => {
                    let clone = t.clone();
                    handles.push(clone);
                }
            }
            for t in &handles {
                prop_assert_eq!(t.node_count(), t.iter_live(t.root()).count());
            }
        }
    }

    /// Random mutation scripts with interleaved clones: every clone is
    /// a frozen snapshot (its rendering and `snapshot_handle` never
    /// move while the writer keeps mutating), handles are injective
    /// (same stamp ⇔ same content), and a fresh clone shares every
    /// chunk with its source.
    #[test]
    fn clones_are_frozen_snapshots(ops in prop::collection::vec((0u8..4, 0usize..64), 1..60)) {
        let labels = ["a", "b", "c", "d"];
        let mut t = Tree::with_label("root");
        let mut checkpoints: Vec<(Tree, String)> = Vec::new();
        for (i, (op, k)) in ops.iter().enumerate() {
            match op {
                0..=2 => {
                    let parent = pick_live(&t, *k);
                    t.add_child(parent, Marking::label(labels[*k % labels.len()])).unwrap();
                }
                _ => {
                    let n = pick_live(&t, *k);
                    if n != t.root() {
                        t.remove_subtree(n).unwrap();
                    }
                }
            }
            if i % 7 == 0 {
                let snap = t.clone();
                // A fresh clone shares its entire spine with the writer.
                prop_assert_eq!(snap.shared_chunks_with(&t), t.chunk_count());
                prop_assert_eq!(snap.snapshot_handle(), t.snapshot_handle());
                let rendered = snap.to_string();
                checkpoints.push((snap, rendered));
            }
        }
        // Every checkpoint is still exactly what it was when taken.
        for (snap, rendered) in &checkpoints {
            prop_assert!(&snap.to_string() == rendered, "snapshot moved under the writer");
        }
        // Handles are injective: equal stamps mean equal content, and
        // distinct mutation tallies mean distinct stamps.
        for (a, ra) in &checkpoints {
            for (b, rb) in &checkpoints {
                if a.snapshot_handle() == b.snapshot_handle() {
                    prop_assert!(ra == rb, "equal handles must mean equal content");
                    prop_assert_eq!(a.mutation_count(), b.mutation_count());
                } else {
                    prop_assert!(a.mutation_count() != b.mutation_count());
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine on a COW clone of one random system: the run mutates
    /// its O(1) clone only, and a snapshot taken before it is still
    /// bit-for-bit the seed state after the run.
    #[test]
    fn engine_matrix_on_cow_clones_is_bit_for_bit(
        seed in 0u64..1_000_000,
        knob in 0u64..24,
    ) {
        let sys = random_simple_system(&gen_cfg(knob), seed);
        let pre_snap = sys.snapshot();
        let pre_key = sys.canonical_key();
        let pre_version = sys.version();
        run(&mut sys.clone(), &EngineConfig::with_budget(BUDGET)).unwrap();
        // The pre-run snapshot never moved, whatever the clone did.
        prop_assert!(pre_snap.canonical_key() == pre_key);
        prop_assert!(pre_snap.version() == pre_version);
        prop_assert!(sys.canonical_key() == pre_key, "the source system itself must be untouched");
    }
}

/// Two COW clones of one system produce bit-for-bit identical trace
/// journals (wall-clock durations zeroed) — the regression gate for
/// the split between globally-unique MVCC stamps (cache keys) and the
/// deterministic per-handle mutation tally every reported
/// `doc_version` comes from. With raw stamps in the events, two runs
/// in one process could never agree.
#[test]
fn journals_identical_across_cow_clones() {
    use positive_axml::core::trace::{Journal, Tracer};

    let base = axml_bench::tc_system(10);
    let journal_of = || {
        let mut sys = base.clone();
        let journal = Journal::new();
        let cfg = EngineConfig::default();
        positive_axml::core::engine::run_traced(&mut sys, &cfg, Tracer::new(&journal)).unwrap();
        (journal.snapshot(), sys.canonical_key())
    };
    // Zero the wall-clock fields; everything else must match exactly.
    let zero_after = |s: String, field: &str| -> String {
        let mut out = String::new();
        let mut rest = s.as_str();
        while let Some(i) = rest.find(field) {
            let j = i + field.len();
            out.push_str(&rest[..j]);
            out.push('0');
            let tail = &rest[j..];
            let k = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            rest = &tail[k..];
        }
        out.push_str(rest);
        out
    };
    let strip = |evs: &[positive_axml::core::trace::TraceEvent]| -> Vec<String> {
        evs.iter()
            .map(|e| zero_after(format!("{:?}", e.kind), "dur_ns: "))
            .collect()
    };
    let (j1, k1) = journal_of();
    let (j2, k2) = journal_of();
    assert_eq!(k1, k2);
    assert_eq!(
        strip(&j1),
        strip(&j2),
        "two clones of one system journaled differently"
    );
}

/// Explain DAGs are unchanged by COW cloning: lineage recorded while
/// running a clone renders to exactly the DOT text of the original's
/// run.
#[test]
fn explain_dags_unchanged_by_cow_cloning() {
    use positive_axml::core::engine::run_with_provenance;
    use positive_axml::core::matcher::match_pattern;
    use positive_axml::core::provenance::{Provenance, ProvenanceStore};
    use positive_axml::core::trace::Tracer;
    use positive_axml::core::{parse_query, Sym};

    let base = axml_bench::tc_random_digraph(24, 3, 11);
    let dags_of = || {
        let mut sys = base.clone();
        let store = ProvenanceStore::new();
        let cfg = EngineConfig::default();
        let (status, _) =
            run_with_provenance(&mut sys, &cfg, Tracer::disabled(), Provenance::new(&store))
                .unwrap();
        assert_eq!(status, RunStatus::Terminated);
        let q = parse_query("path{$x,$y} :- d1/r{t{from{$x},to{$y}}}").unwrap();
        let t = sys.doc(Sym::intern("d1")).unwrap();
        let bindings = match_pattern(&q.body[0].pattern, t);
        assert!(!bindings.is_empty());
        bindings
            .iter()
            .map(|b| store.explain_answer(&sys, &q, b).lineage.to_dot())
            .collect::<Vec<String>>()
    };
    assert_eq!(dags_of(), dags_of(), "cloning perturbed the lineage DAGs");
}

/// `System::snapshot` is a handle, not a copy: the snapshot answers
/// with the pre-run state while the writer advances through a whole
/// fixpoint, and its trees still share their spines with wherever the
/// writer has not yet diverged.
#[test]
fn system_snapshot_survives_a_full_fixpoint() {
    let mut sys = axml_bench::tc_system(8);
    let snap = sys.snapshot();
    let before_key = snap.canonical_key();
    let before_version = snap.version();
    let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    assert!(stats.invocations > 0);
    assert_ne!(
        sys.canonical_key(),
        before_key,
        "the run must actually change the system"
    );
    assert_eq!(snap.canonical_key(), before_key);
    assert_eq!(snap.version(), before_version);
}
