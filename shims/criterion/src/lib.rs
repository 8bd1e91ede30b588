//! Offline shim for `criterion`: a wall-clock micro-bench harness with
//! the API shape the X1–X13 benches use. No statistics, plots, or
//! baselines — each benchmark reports the median of up to `sample_size`
//! timed samples, bounded by `measurement_time`.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque value barrier, preventing the optimizer from deleting work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The bench context handed to `criterion_group!` functions.
pub struct Criterion {
    /// When true (set by `--test`, as `cargo test` passes to harnessless
    /// bench targets), run each benchmark body once and skip timing.
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion { test_mode }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            test_mode: self.test_mode,
            _parent: std::marker::PhantomData,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, 10, Duration::from_secs(2), self.test_mode, |b| f(b));
        self
    }
}

/// A group of benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    test_mode: bool,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Wall-clock budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmark a closure over a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_one(
            &label,
            self.sample_size,
            self.measurement_time,
            self.test_mode,
            |b| f(b, input),
        );
        self
    }

    /// Benchmark a closure with no input.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().label);
        run_one(
            &label,
            self.sample_size,
            self.measurement_time,
            self.test_mode,
            |b| f(b),
        );
        self
    }

    /// End the group (report layout only; nothing buffered).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    sample_size: usize,
    measurement_time: Duration,
    test_mode: bool,
    mut f: F,
) {
    let mut b = Bencher {
        samples: Vec::new(),
        budget: if test_mode {
            Duration::ZERO
        } else {
            measurement_time
        },
        sample_size: if test_mode { 1 } else { sample_size },
    };
    f(&mut b);
    if test_mode {
        println!("{label}: ok (test mode)");
        return;
    }
    let mut s = b.samples;
    if s.is_empty() {
        println!("{label}: no samples");
        return;
    }
    s.sort_unstable();
    let median = s[s.len() / 2];
    println!(
        "{label}  time: {}  (median of {} samples)",
        fmt_duration(median),
        s.len()
    );
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Timing driver passed to each benchmark body.
pub struct Bencher {
    samples: Vec<Duration>,
    budget: Duration,
    sample_size: usize,
}

impl Bencher {
    /// Time `f`, collecting up to the configured number of samples
    /// within the measurement budget (always at least one run).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
            if self.samples.len() >= self.sample_size || start.elapsed() >= self.budget {
                break;
            }
        }
    }
}

/// A benchmark's display identifier.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Parameter-only identifier.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Conversion into [`BenchmarkId`], so group APIs accept strings too.
pub trait IntoBenchmarkId {
    /// Convert.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            label: self.to_string(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { label: self }
    }
}

/// Define a bench group function invoking each benchmark in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` for a bench binary from its groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_samples() {
        let mut c = Criterion { test_mode: false };
        let mut g = c.benchmark_group("shim");
        g.sample_size(3).measurement_time(Duration::from_millis(50));
        let mut runs = 0usize;
        g.bench_with_input(BenchmarkId::new("noop", 1), &7u32, |b, &x| {
            b.iter(|| {
                runs += 1;
                x + 1
            })
        });
        g.finish();
        assert!(runs >= 1);
    }

    #[test]
    fn test_mode_runs_once() {
        let mut c = Criterion { test_mode: true };
        let mut runs = 0usize;
        c.bench_function("once", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1);
    }
}
