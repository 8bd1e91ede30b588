//! X3 — Proposition 3.1 (3): snapshot evaluation is PTIME in the data.
//! Series: evaluation time vs document size, for a fixed query and for a
//! growing (harder) pattern.

use axml_bench::random_tree;
use axml_core::eval::{snapshot, Env};
use axml_core::query::parse_query;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_data_scaling(c: &mut Criterion) {
    let q = parse_query("hit{$x,?l} :- d/root{?l{$x}, l0}").unwrap();
    let mut g = c.benchmark_group("x3/data-size");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for &n in &[200usize, 800, 3200] {
        let t = random_tree(n, 4, 6, 0.2, 31);
        g.bench_with_input(BenchmarkId::from_parameter(n), &t, |bencher, t| {
            bencher.iter(|| {
                let mut env = Env::new();
                env.insert("d".into(), t);
                snapshot(&q, &env).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_pattern_scaling(c: &mut Criterion) {
    // Joins with k atoms over the same document: combined complexity is
    // exponential in the query (Prop 3.1 is about data complexity).
    let t = random_tree(600, 4, 6, 0.2, 33);
    let mut g = c.benchmark_group("x3/query-atoms");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for &k in &[1usize, 2, 3] {
        let body: Vec<String> = (0..k)
            .map(|i| format!("d/root{{?l{i}{{$x{i}}}}}"))
            .collect();
        let head: Vec<String> = (0..k).map(|i| format!("v{{$x{i}}}")).collect();
        let q = parse_query(&format!("hit{{{}}} :- {}", head.join(","), body.join(", "))).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(k), &q, |bencher, q| {
            bencher.iter(|| {
                let mut env = Env::new();
                env.insert("d".into(), &t);
                snapshot(q, &env).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_data_scaling, bench_pattern_scaling);
criterion_main!(benches);
