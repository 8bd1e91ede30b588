//! X12 bench (experiment X14 in EXPERIMENTS.md) — the semi-naive
//! engine on the X4-style transitive-closure workload and the X6
//! Turing-machine workload.
//!
//! The shape to observe: on the sharded TC digraph the engine skips
//! every static loader after its first firing (≥5× fewer evaluations
//! than call visits, same fixpoint); on the TM workload nearly every
//! call reads its own growing document, so few visits are skipped.
//!
//! The `delta-traced` entries run the same workload with an unbounded
//! [`Journal`] attached, quantifying the observability overhead against
//! the plain `delta` rows (the disabled-tracer rows must stay within
//! noise — events cost nothing unless a sink is on). The `delta-ring`
//! entries attach the *production* journal instead
//! ([`JournalConfig::default`]: a bounded ring) —
//! the always-on configuration, which must stay within 5% of the
//! detached `delta` rows. The `delta-provenance` entries attach a
//! [`ProvenanceStore`] instead: the plain `delta` rows exercise the
//! disabled [`Provenance`] handle on every graft, so they must likewise
//! stay within run-to-run noise.

use axml_bench::tc_random_digraph;
use axml_core::engine::{run, run_traced, run_with_provenance, EngineConfig};
use axml_core::provenance::{Provenance, ProvenanceStore};
use axml_core::trace::{Journal, JournalConfig, Tracer};
use axml_tm::encode::encode_tm;
use axml_tm::samples;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_tc(c: &mut Criterion) {
    let mut g = c.benchmark_group("x12/tc-digraph");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for &n in &[32usize, 64] {
        let sys = tc_random_digraph(n, 6, 12);
        g.bench_with_input(BenchmarkId::new("delta", n), &sys, |b, s| {
            b.iter(|| {
                let mut runner = s.clone();
                run(&mut runner, &EngineConfig::default()).unwrap()
            })
        });
        g.bench_with_input(BenchmarkId::new("delta-traced", n), &sys, |b, s| {
            b.iter(|| {
                let mut runner = s.clone();
                let journal = Journal::new();
                let out = run_traced(&mut runner, &EngineConfig::default(), Tracer::new(&journal))
                    .unwrap();
                (out, journal.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("delta-ring", n), &sys, |b, s| {
            b.iter(|| {
                let mut runner = s.clone();
                let journal = Journal::with_config(JournalConfig::default());
                let out = run_traced(&mut runner, &EngineConfig::default(), Tracer::new(&journal))
                    .unwrap();
                (out, journal.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("delta-provenance", n), &sys, |b, s| {
            b.iter(|| {
                let mut runner = s.clone();
                let store = ProvenanceStore::new();
                let out = run_with_provenance(
                    &mut runner,
                    &EngineConfig::default(),
                    Tracer::disabled(),
                    Provenance::new(&store),
                )
                .unwrap();
                (out, store.origin_count())
            })
        });
    }
    g.finish();
}

fn bench_tm(c: &mut Criterion) {
    let mut g = c.benchmark_group("x12/turing");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    let cases = [
        (
            "parity-6",
            encode_tm(&samples::even_parity(), &["one"; 6]).unwrap(),
        ),
        (
            "anbn-4",
            encode_tm(&samples::anbn(), &["a", "a", "b", "b"]).unwrap(),
        ),
    ];
    for (name, sys) in &cases {
        g.bench_with_input(BenchmarkId::new("delta", name), sys, |b, s| {
            b.iter(|| {
                let mut runner = s.clone();
                run(&mut runner, &EngineConfig::with_budget(5_000)).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tc, bench_tm);
criterion_main!(benches);
