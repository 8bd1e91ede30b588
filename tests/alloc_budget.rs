//! Counted allocation bounds on the answer path.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread only, so tests running in parallel do not disturb each other.
//! Each bound is a count, not a time: it holds on any machine, and a
//! change that adds a copy per answer tree or per binding breaks it.

use positive_axml::core::engine::{run, EngineConfig, EngineMode, RunStatus};
use positive_axml::core::eval::{snapshot, Env};
use positive_axml::core::forest::Forest;
use positive_axml::core::query::parse_query;
use positive_axml::core::{parse_tree, System};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while the thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (including reallocations) made by this thread while `f`
/// runs, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// `Forest::reduce` over distinct, already reduced answer trees keeps
/// them uncopied and keys them without building strings: a handful of
/// allocations per tree, amortized, where a copy and a string key per
/// node cost about 43.
#[test]
fn forest_reduce_allocates_per_distinct_answer() {
    const N: usize = 1_000;
    let trees: Vec<_> = (0..N)
        .map(|i| parse_tree(&format!(r#"t{{from{{"a{i}"}},to{{"b{}"}}}}"#, (i * 7) % N)).unwrap())
        .collect();
    let forest = Forest::from_trees(trees);
    // Warm up once: interned symbols and lazy statics are not the pass's.
    assert_eq!(forest.reduce().len(), N);
    let (allocs, red) = counted(|| forest.reduce());
    assert_eq!(red.len(), N, "the trees are pairwise incomparable");
    let per_tree = allocs as f64 / N as f64;
    eprintln!("Forest::reduce: {per_tree:.1} allocations per tree");
    assert!(per_tree <= 8.0, "{per_tree:.1} allocations per tree");
}

const DOUBLING_RULE: &str = "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}";
const CLOSURE_QUERY: &str = "hit{f{$x},t{$y}} :- edges/r{t{from{$x},to{$y}}}";

/// The doubling transitive closure (Example 3.2) over a 16-edge path.
fn chain_system(chain: usize) -> System {
    let mut doc = String::from("r{");
    for i in 0..chain {
        doc.push_str(&format!(r#"t{{from{{"n{i}"}},to{{"n{}"}}}},"#, i + 1));
    }
    doc.push_str("@tc}");
    let mut sys = System::new();
    sys.add_document_text("edges", &doc).unwrap();
    sys.add_service_text("tc", DOUBLING_RULE).unwrap();
    sys
}

/// One Delta run to the fixpoint plus the closure query: the engine
/// work of one `fixpoint_write` operation, without the server.
fn run_and_query(mut sys: System) -> usize {
    let cfg = EngineConfig {
        mode: EngineMode::Delta,
        ..EngineConfig::with_compile(true)
    };
    let (status, _) = run(&mut sys, &cfg).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    let q = parse_query(CLOSURE_QUERY).unwrap();
    snapshot(&q, &Env::for_system(&sys)).unwrap().len()
}

/// Measured at about 42 000 allocations with debug assertions on (their
/// checks allocate too) and 30 200 without; each bound leaves 10 % of
/// headroom. Before answers were kept uncopied, θ(context) was built
/// only when read and unshared match relations were moved, the same run
/// took about 67 800 and 57 900.
const CHAIN16_BUDGET: u64 = if cfg!(debug_assertions) {
    46_200
} else {
    33_200
};

#[test]
fn chain16_delta_run_and_closure_query_stay_under_budget() {
    assert_eq!(run_and_query(chain_system(16)), 136);
    let sys = chain_system(16);
    let (allocs, answers) = counted(|| run_and_query(sys));
    assert_eq!(answers, 136, "16 · 17 / 2 closure edges");
    eprintln!("chain-16 Delta run + closure query: {allocs} allocations");
    assert!(
        allocs <= CHAIN16_BUDGET,
        "{allocs} allocations, budget {CHAIN16_BUDGET}"
    );
}
