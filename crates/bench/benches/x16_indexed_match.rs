//! X16 bench — indexed pattern matching vs arena scans.
//!
//! Matcher level: an anchored single-label probe on a wide-fanout
//! document (the index replaces an O(fanout) child scan with one bucket
//! lookup) and a spine pattern on a deep chain padded with junk siblings
//! (one probe per level instead of an O(junk) filter per level).
//!
//! Engine level: the X12 transitive-closure digraph under the delta
//! scheduler with `MatchStrategy::Indexed` vs `MatchStrategy::Scan`,
//! and the graft-heavy Turing-machine workload where the index is pure
//! maintenance overhead — the `Indexed` rows there must stay within
//! ~10% of `Scan` (EXPERIMENTS.md X16 records both).

use axml_bench::{
    deep_chain_doc, deep_chain_pattern, tc_random_digraph, wide_fanout_doc, wide_fanout_pattern,
};
use axml_core::engine::{run, EngineConfig, EngineMode};
use axml_core::matcher::{match_pattern_with, MatchStrategy};
use axml_tm::encode::encode_tm;
use axml_tm::samples;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_wide_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("x16/wide-fanout");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for &fanout in &[1024usize, 4096] {
        let labels = 256;
        let doc = wide_fanout_doc(fanout, labels);
        doc.build_index();
        let pat = wide_fanout_pattern(labels);
        g.bench_with_input(BenchmarkId::new("scan", fanout), &doc, |b, d| {
            b.iter(|| match_pattern_with(&pat, d, MatchStrategy::Scan).0.len())
        });
        g.bench_with_input(BenchmarkId::new("indexed", fanout), &doc, |b, d| {
            b.iter(|| match_pattern_with(&pat, d, MatchStrategy::Indexed).0.len())
        });
    }
    g.finish();
}

fn bench_deep_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("x16/deep-chain");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for &depth in &[24usize, 48] {
        let junk = 64;
        let doc = deep_chain_doc(depth, junk);
        doc.build_index();
        let pat = deep_chain_pattern(depth);
        g.bench_with_input(BenchmarkId::new("scan", depth), &doc, |b, d| {
            b.iter(|| match_pattern_with(&pat, d, MatchStrategy::Scan).0.len())
        });
        g.bench_with_input(BenchmarkId::new("indexed", depth), &doc, |b, d| {
            b.iter(|| match_pattern_with(&pat, d, MatchStrategy::Indexed).0.len())
        });
    }
    g.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("x16/engine-tc");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    for &n in &[32usize, 64] {
        let sys = tc_random_digraph(n, 6, 12);
        for (name, strategy) in [
            ("delta-scan", MatchStrategy::Scan),
            ("delta-indexed", MatchStrategy::Indexed),
        ] {
            g.bench_with_input(BenchmarkId::new(name, n), &sys, |b, s| {
                b.iter(|| {
                    let mut runner = s.clone();
                    let cfg = EngineConfig {
                        match_strategy: strategy,
                        ..EngineConfig::with_mode(EngineMode::Delta)
                    };
                    run(&mut runner, &cfg).unwrap()
                })
            });
        }
    }
    g.finish();
}

fn bench_graft_heavy(c: &mut Criterion) {
    let mut g = c.benchmark_group("x16/graft-heavy");
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
        for (mode, strategy) in [
            ("scan", MatchStrategy::Scan),
            ("indexed", MatchStrategy::Indexed),
        ] {
            g.bench_with_input(BenchmarkId::new(mode, name), sys, |b, s| {
                b.iter(|| {
                    let mut runner = s.clone();
                    let cfg = EngineConfig {
                        match_strategy: strategy,
                        ..EngineConfig::with_budget(5_000)
                    };
                    run(&mut runner, &cfg).unwrap()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_wide_fanout,
    bench_deep_chain,
    bench_engine,
    bench_graft_heavy
);
criterion_main!(benches);
