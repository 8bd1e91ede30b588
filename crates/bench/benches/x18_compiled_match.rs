//! X18 bench — compiled match programs vs the recursive interpreter.
//!
//! Matcher level: the transitive-closure join pattern repeatedly matched
//! against its own fixpoint document — the decorrelated program computes
//! each child relation once per level while the interpreter re-derives
//! it per parent binding — plus the wide-fanout anchored probe as the
//! cheap-pattern control (compiled overhead must stay negligible).
//!
//! Regular paths: the X10 catalog walk through a prebuilt
//! [`CompiledRegQuery`] (NFAs constructed once) vs `snapshot_reg`
//! rebuilding the automata per call.

use axml_bench::{catalog, tc_random_digraph, wide_fanout_doc, wide_fanout_pattern};
use axml_core::compile::{compile_query, ProgramCache};
use axml_core::engine::{run, EngineConfig};
use axml_core::eval::{snapshot_compiled, snapshot_with_strategy, Env};
use axml_core::matcher::{match_pattern_with, MatchStrategy};
use axml_core::pathexpr::{parse_reg_query, snapshot_reg, CompiledRegQuery};
use axml_core::system::System;
use axml_core::Sym;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// The closure workload at fixpoint: returns the run system and the
/// closure service's name (its query joins two edge conjuncts, the
/// expensive shape the compiler pays off on).
fn tc_fixpoint(n: usize, shards: usize, seed: u64) -> (System, Sym) {
    let mut sys = tc_random_digraph(n, shards, seed);
    run(&mut sys, &EngineConfig::default()).unwrap();
    (sys, Sym::intern("f"))
}

fn bench_tc_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("x18/tc-join");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for &n in &[32usize, 64] {
        let (sys, svc) = tc_fixpoint(n, 4, 12);
        let q = sys.service_query(svc).unwrap();
        let mut env = Env::new();
        for &d in sys.doc_names() {
            env.insert(d, sys.doc(d).unwrap());
        }
        g.bench_with_input(BenchmarkId::new("interpreted", n), &(), |b, _| {
            b.iter(|| {
                snapshot_with_strategy(q, &env, MatchStrategy::Indexed)
                    .unwrap()
                    .0
                    .len()
            })
        });
        let mut programs = ProgramCache::new();
        g.bench_with_input(BenchmarkId::new("compiled-warm", n), &(), |b, _| {
            b.iter(|| {
                snapshot_compiled(q, &env, svc, &mut programs, MatchStrategy::Indexed)
                    .unwrap()
                    .0
                    .len()
            })
        });
        g.bench_with_input(BenchmarkId::new("compiled-cold", n), &(), |b, _| {
            b.iter(|| {
                let mut fresh = ProgramCache::new();
                snapshot_compiled(q, &env, svc, &mut fresh, MatchStrategy::Indexed)
                    .unwrap()
                    .0
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_wide_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("x18/wide-fanout");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for &fanout in &[1024usize, 4096] {
        let labels = 256;
        let doc = wide_fanout_doc(fanout, labels);
        doc.build_index();
        let pat = wide_fanout_pattern(labels);
        let q =
            axml_core::query::parse_query(&format!("hit{{$x}} :- d/root{{l{}{{$x}}}}", labels - 1))
                .unwrap();
        let compiled = compile_query(&q, MatchStrategy::Indexed);
        g.bench_with_input(BenchmarkId::new("interpreted", fanout), &doc, |b, d| {
            b.iter(|| match_pattern_with(&pat, d, MatchStrategy::Indexed).0.len())
        });
        g.bench_with_input(BenchmarkId::new("compiled", fanout), &doc, |b, d| {
            b.iter(|| compiled.run_atom(0, d).0.len())
        });
    }
    g.finish();
}

fn bench_reg_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("x18/reg-path");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for &(w, d) in &[(2usize, 2usize), (3, 2)] {
        let id = format!("w{w}-d{d}");
        let mut sys = System::new();
        sys.add_document_text("d", &catalog(w, d)).unwrap();
        let q = parse_reg_query("t{$x} :- d/lib{<_*.cd>{title{$x}}}").unwrap();
        let compiled = CompiledRegQuery::new(q.clone());
        let mut env = Env::new();
        env.insert(Sym::intern("d"), sys.doc(Sym::intern("d")).unwrap());
        g.bench_with_input(BenchmarkId::new("per-call-nfa", &id), &(), |b, _| {
            b.iter(|| snapshot_reg(&q, &env).unwrap().len())
        });
        g.bench_with_input(BenchmarkId::new("prebuilt-nfa", &id), &(), |b, _| {
            b.iter(|| compiled.snapshot(&env).unwrap().len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tc_join, bench_wide_fanout, bench_reg_path);
criterion_main!(benches);
