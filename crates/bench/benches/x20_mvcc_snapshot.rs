//! X20 bench — MVCC snapshot costs of the copy-on-write trees.
//!
//! Tree level: `Tree::clone` (the COW snapshot — two `Arc` bumps and
//! five words) against `subtree(root)` (the deep copy every snapshot
//! cost before the chunked-arena representation). The clone column
//! must stay flat as the document grows; the deep copy scales
//! linearly.
//!
//! System level: `System::snapshot()` across document sizes — O(docs)
//! handle clones, independent of node count.
//!
//! Write path: what a graft pays when a live snapshot forces
//! path-copying — one ≤64-node chunk plus the spine vector on first
//! divergence, then the in-place fast path again — against the same
//! batch on an exclusively-owned tree. See `docs/mvcc.md`.

use axml_bench::random_tree;
use axml_core::system::System;
use axml_core::tree::Marking;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Snapshots per timed sample: a single COW clone is tens of
/// nanoseconds, below timer resolution, so every variant measures a
/// batch and the columns compare batch-for-batch.
const SNAPS: usize = 1_000;

fn bench_tree_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("x20/tree-snapshot");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for &n in &[1_000usize, 8_000, 64_000] {
        let t = random_tree(n, 8, 8, 0.0, 7);
        g.bench_with_input(BenchmarkId::new("cow-clone-x1000", n), &t, |b, t| {
            b.iter(|| {
                let mut last = 0;
                for _ in 0..SNAPS {
                    last = t.clone().version();
                }
                last
            })
        });
        // The pre-COW baseline: materialize every node. One copy per
        // sample is already thousands of times the clone batch above.
        g.bench_with_input(BenchmarkId::new("deep-copy-x1", n), &t, |b, t| {
            b.iter(|| t.subtree(t.root()).node_count())
        });
    }
    g.finish();
}

fn bench_system_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("x20/system-snapshot");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for &n in &[1_000usize, 8_000, 64_000] {
        let mut sys = System::new();
        sys.add_document("d", random_tree(n, 8, 8, 0.0, 11))
            .unwrap();
        g.bench_with_input(BenchmarkId::new("snapshot-x1000", n), &sys, |b, sys| {
            b.iter(|| {
                let mut last = 0;
                for _ in 0..SNAPS {
                    last = sys.snapshot().version();
                }
                last
            })
        });
    }
    g.finish();
}

/// Grafts per timed sample. The first one under a live snapshot pays
/// the path copy (spine vector + one chunk); the rest run on the
/// now-exclusive spine, so the batch shows the amortized overhead.
const GRAFTS: usize = 64;

fn bench_graft_path_copy(c: &mut Criterion) {
    let mut g = c.benchmark_group("x20/graft");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let base = random_tree(8_192, 8, 8, 0.0, 13);
    let m = Marking::label("x");

    // Exclusive owner: `subtree` materializes an unshared tree once,
    // outside timing; every graft takes the in-place fast path.
    let mut owned = base.subtree(base.root());
    let root = owned.root();
    g.bench_function(BenchmarkId::new("exclusive", GRAFTS), |b| {
        b.iter(|| {
            for _ in 0..GRAFTS {
                owned.add_child(root, m).unwrap();
            }
            owned.mutation_count()
        })
    });

    // Live snapshot held (`base` shares every chunk with the clone):
    // the batch additionally pays one O(1) clone and one path copy.
    g.bench_function(BenchmarkId::new("under-snapshot", GRAFTS), |b| {
        b.iter(|| {
            let mut w = base.clone();
            let root = w.root();
            for _ in 0..GRAFTS {
                w.add_child(root, m).unwrap();
            }
            w.mutation_count()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tree_snapshot,
    bench_system_snapshot,
    bench_graft_path_copy
);
criterion_main!(benches);
