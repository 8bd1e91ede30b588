//! X16 bench — indexed pattern matching vs arena scans.
//!
//! Matcher level: a single-label selection on a wide-fanout document and
//! a spine pattern on a deep chain padded with junk siblings. Neither
//! pattern has a constant rare enough to anchor at, so both strategies
//! filter the same child lists: the pair measures what `Indexed` costs
//! where the marking index cannot help.

use axml_bench::{deep_chain_doc, deep_chain_pattern, wide_fanout_doc, wide_fanout_pattern};
use axml_core::matcher::{match_pattern_with, MatchStrategy};
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

criterion_group!(benches, bench_wide_fanout, bench_deep_chain);
criterion_main!(benches);
