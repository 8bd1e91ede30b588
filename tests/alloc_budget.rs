//! Counted allocation bounds on the answer path.
//!
//! A counting global allocator tallies the allocations of the calling
//! thread only, so tests running in parallel do not disturb each other.
//! Each bound is a count, not a time: it holds on any machine, and a
//! change that adds a copy per answer tree or per binding breaks it.

mod reference;

use positive_axml::core::compile::compile_query;
use positive_axml::core::engine::{run, run_traced, EngineConfig, RoundRunner, RunStatus};
use positive_axml::core::eval::{snapshot, Env};
use positive_axml::core::forest::Forest;
use positive_axml::core::matcher::MatchStrategy;
use positive_axml::core::query::parse_query;
use positive_axml::core::trace::{EventKind, Journal, Tracer};
use positive_axml::core::{parse_tree, Marking, QueryCursor, Sym, System};
use reference::reference_run;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, Once};

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

/// Run the calling test alone: hold the returned guard for the whole
/// test. Under debug assertions a document index validates itself (and
/// allocates) on the mutations whose process-wide version stamp is a
/// multiple of 61, so an engine run on another thread moves which of
/// this run's mutations are checked, and the count with it. The first
/// caller also interns every symbol the tests use, in one order:
/// symbols order by intern id, so the order the tests run in could
/// otherwise reorder bindings, hence answers and grafts. The warm-up
/// checks nothing and a panic in it is caught, so nothing is poisoned:
/// a broken run fails the tests that check it, each on its own.
fn alone() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    static SYMBOLS: Once = Once::new();
    SYMBOLS.call_once(|| {
        let _ = std::panic::catch_unwind(|| {
            let mut sys = chain_system(16);
            let _ = run(&mut sys, &EngineConfig::default());
            let q = parse_query(CLOSURE_QUERY).unwrap();
            let _ = snapshot(&q, &Env::for_system(&sys));
        });
    });
    guard
}

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
    let _alone = alone();
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

/// One engine run to the fixpoint plus the closure query: the engine
/// work of one `fixpoint_write` operation, without the server.
fn run_and_query(mut sys: System) -> usize {
    let (status, _) = run(&mut sys, &EngineConfig::default()).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    let q = parse_query(CLOSURE_QUERY).unwrap();
    snapshot(&q, &Env::for_system(&sys)).unwrap().len()
}

/// Measured at 14 714 allocations with debug assertions on (their
/// checks allocate too, the semi-naive self-check among them; the count
/// has moved with the order the tests run in) and 6 856 without; each
/// bound leaves 10 % of headroom. When each subtree signature walk
/// allocated its own path, 16 352–16 383 and 7 639. When the index also
/// kept a bucket per
/// (parent, marking) pair, copied whole by the first write after each
/// round's snapshot and validated with the rest, 27 022–28 151 and
/// 9 322; when the index build mid-run recompiled the service, 9 418
/// without. When every call built a head for every
/// embedding and each executor row was copied into a `Binding` before
/// the body join read it, the same run took 22 535–22 734 and 12 495;
/// with a `Vec<Binding>` per relation in the compiled executor and a
/// string per node in answer rendering, about 42 000 and 30 200; before
/// answers were kept uncopied, θ(context) was built only when read and
/// unshared match relations were moved, about 67 800 and 57 900.
const CHAIN16_BUDGET: u64 = if cfg!(debug_assertions) {
    16_186
} else {
    7_542
};

#[test]
fn chain16_delta_run_and_closure_query_stay_under_budget() {
    let _alone = alone();
    assert_eq!(run_and_query(chain_system(16)), 136);
    let sys = chain_system(16);
    let (allocs, answers) = counted(|| run_and_query(sys));
    assert_eq!(answers, 136, "16 · 17 / 2 closure edges");
    eprintln!("chain-16 run + closure query: {allocs} allocations");
    assert!(
        allocs <= CHAIN16_BUDGET,
        "{allocs} allocations, budget {CHAIN16_BUDGET}"
    );
}

/// A program reads no document, so the chain-16 run compiles its
/// one service once, although the `edges` index is built mid-run.
#[test]
fn chain16_delta_run_compiles_its_service_once() {
    let _alone = alone();
    let mut sys = chain_system(16);
    assert!(!sys.doc(Sym::intern("edges")).unwrap().index_is_built());
    let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    assert!(sys.doc(Sym::intern("edges")).unwrap().index_is_built());
    assert_eq!(
        (stats.programs_compiled, stats.program_cache_misses),
        (1, 1)
    );
}

/// Allocations of the first `add_child` on `edges` after each round of
/// the chain-`chain` run, with the round's published snapshot held: the
/// write diverges from the snapshot, so it copies the spine, the chunk
/// it writes to and the index, whose buckets are one per distinct
/// marking. The writer is a clone of the snapshot's document, so the
/// run itself is not perturbed. Under debug assertions a document index
/// validates itself (and allocates) on a write whose version stamp is a
/// multiple of 61; two consecutive writes cannot both be, so each round
/// counts two writers and keeps the smaller count.
fn first_writes_after_snapshots(chain: usize) -> Vec<u64> {
    let edges = Sym::intern("edges");
    let mut sys = chain_system(chain);
    let mut runner = RoundRunner::new(&EngineConfig::default());
    let mut counts = Vec::new();
    loop {
        let done = runner.step(&mut sys, Tracer::disabled()).unwrap();
        let snap = runner.snapshot().unwrap();
        let doc = snap.system().doc(edges).unwrap();
        assert!(doc.index_is_built(), "round {}", runner.rounds());
        let first = [doc.clone(), doc.clone()].map(|mut writer| {
            let root = writer.root();
            counted(|| writer.add_child(root, Marking::label("w")).unwrap()).0
        });
        counts.push(first[0].min(first[1]));
        if let Some(status) = done {
            assert_eq!(status, RunStatus::Terminated);
            return counts;
        }
    }
}

/// Measured at 90–105 allocations per round on chain-16 and 131–157 on
/// chain-64, with debug assertions on and without; each bound leaves
/// 10 % of headroom. When the index also kept a bucket per (parent,
/// marking) pair, the same writes took 220–645 and 669–8 465, growing
/// with the document.
const FIRST_WRITE_BUDGET: [(usize, u64); 2] = [(16, 116), (64, 173)];

/// The first write after a round's snapshot costs the write, not the
/// document: its allocations stay under a constant, and the last round's
/// count stays within 1.25× of the first round's although the document
/// grows from `chain` to `chain · (chain + 1) / 2` edges.
#[test]
fn first_write_after_a_round_snapshot_is_flat_in_the_document() {
    let _alone = alone();
    for (chain, budget) in FIRST_WRITE_BUDGET {
        let counts = first_writes_after_snapshots(chain);
        eprintln!("chain-{chain} first writes after each round: {counts:?}");
        let (first, last) = (counts[0], counts[counts.len() - 1]);
        assert!(
            counts.iter().all(|&a| a <= budget),
            "chain-{chain}: {counts:?}, budget {budget}"
        );
        assert!(
            last * 4 <= first * 5,
            "chain-{chain}: the first write grows with the document: {counts:?}"
        );
    }
}

/// The chain-16 system run to its fixpoint: `edges` holds the 136
/// closure edges.
fn closure_system() -> System {
    let mut sys = chain_system(16);
    let (status, _) = run(&mut sys, &EngineConfig::default()).unwrap();
    assert_eq!(status, RunStatus::Terminated);
    sys
}

/// Measured at 770 allocations for 680 output bindings (1.13 per
/// binding), with debug assertions on and without, since each buffer and
/// the result carry a birth per row (733 before); the bound, set at 733
/// with 10 % of headroom, still holds. When every relation was a
/// `Vec<Binding>`, the same run took 6 832 (10.0 per binding).
const RUN_ATOM_PER_BINDING: f64 = 1.19;

/// One compiled run of the doubling rule's body over the closure
/// document: every relation lives in buffers reused for the whole run,
/// so the run allocates about one `Binding` per output binding and
/// little else.
#[test]
fn compiled_doubling_body_allocates_per_output_binding() {
    let _alone = alone();
    let sys = closure_system();
    let doc = sys.doc(Sym::intern("edges")).unwrap();
    let q = parse_query(DOUBLING_RULE).unwrap();
    let c = compile_query(&q, MatchStrategy::Indexed);
    let (warm, _) = c.run_atom(0, doc);
    let (allocs, (out, _)) = counted(|| c.run_atom(0, doc));
    assert_eq!(out, warm);
    assert_eq!(out.len(), 680, "Σ_z in(z) · out(z) over the 17-node path");
    let per_binding = allocs as f64 / out.len() as f64;
    eprintln!(
        "compiled doubling body: {allocs} allocations, {} bindings, {per_binding:.3} per binding",
        out.len()
    );
    assert!(
        per_binding <= RUN_ATOM_PER_BINDING,
        "{per_binding:.3} allocations per binding, bound {RUN_ATOM_PER_BINDING}"
    );
}

/// Rendering an answer tree for the wire (`Tree::to_string`) fills one
/// buffer for the compact text and copies it once into the returned
/// string: two allocations per `hit{f{..},t{..}}` answer, bounded at
/// three, where a string per node cost 14.
#[test]
fn rendering_an_answer_takes_at_most_three_allocations() {
    let _alone = alone();
    let sys = closure_system();
    let q = parse_query(CLOSURE_QUERY).unwrap();
    let forest = snapshot(&q, &Env::for_system(&sys)).unwrap();
    assert_eq!(forest.len(), 136);
    let _ = forest.trees()[0].to_string();
    let mut texts = Vec::with_capacity(forest.len());
    let (allocs, ()) = counted(|| texts.extend(forest.trees().iter().map(|t| t.to_string())));
    assert_eq!(texts.len(), 136);
    let per_tree = allocs as f64 / forest.len() as f64;
    eprintln!("answer rendering: {per_tree:.2} allocations per tree");
    assert!(per_tree <= 3.0, "{per_tree:.2} allocations per tree");
}

/// Subsumption checks counted in a journal: one per result tree a call
/// hands to the graft.
fn subsume_checks(journal: &Journal) -> usize {
    journal
        .snapshot()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SubsumeCheck { .. }))
        .count()
}

/// The reference evaluates every call in full, building a head for
/// every closure edge each round; the engine's semi-naive evaluation
/// builds one only for the edges some embedding through an edge grafted
/// since the call's last evaluation derives. Both counts of the chain-16
/// run to its fixpoint are exact: the runs are deterministic.
#[test]
fn chain16_semi_naive_run_checks_half_the_result_trees() {
    let _alone = alone();
    let journal = Journal::new();
    let status = reference_run(&mut chain_system(16), usize::MAX, Tracer::new(&journal));
    assert_eq!(status, RunStatus::Terminated);
    let full = subsume_checks(&journal);
    let journal = Journal::new();
    let (status, _) = run_traced(
        &mut chain_system(16),
        &EngineConfig::default(),
        Tracer::new(&journal),
    )
    .unwrap();
    assert_eq!(status, RunStatus::Terminated);
    assert_eq!((full, subsume_checks(&journal)), (381, 191));
}

/// Measured at 9.47 allocations per binding, with debug assertions on
/// and without; the bound leaves 10 % of headroom. When a binding's
/// subtree was copied three times and keyed with a string per node, the
/// same run took 31.28 per binding.
const TREE_VAR_PER_BINDING: f64 = 10.4;

/// One compiled run of `r{a{#T}}` over 100 `a{k{..}}` children: each
/// tree-variable binding copies its subtree once and renders its key
/// into one shared string.
#[test]
fn tree_variable_bindings_copy_their_subtree_once() {
    let _alone = alone();
    let children: Vec<String> = (0..100).map(|i| format!(r#"a{{k{{"{i}"}}}}"#)).collect();
    let doc = parse_tree(&format!("r{{{}}}", children.join(","))).unwrap();
    let q = parse_query("h{#T} :- d/r{a{#T}}").unwrap();
    let c = compile_query(&q, MatchStrategy::Indexed);
    let (warm, _) = c.run_atom(0, &doc);
    let (allocs, (out, _)) = counted(|| c.run_atom(0, &doc));
    assert_eq!(out, warm);
    assert_eq!(out.len(), 100);
    let per_binding = allocs as f64 / out.len() as f64;
    eprintln!("tree-variable bindings: {allocs} allocations, {per_binding:.2} per binding");
    assert!(
        per_binding <= TREE_VAR_PER_BINDING,
        "{per_binding:.2} allocations per binding, bound {TREE_VAR_PER_BINDING}"
    );
}

const LINEAR_RULE: &str = "t{from{$x},to{$y}} :- edges/r{e{from{$x},to{$z}}, t{from{$z},to{$y}}}";

/// The linear closure over a 15-edge path plus 6 chords that each skip
/// one node: base edges `e`, the same edges seeded as `t`, and a rule
/// that joins one base edge with one derived edge, so round k derives
/// the pairs at distance k + 1.
fn linear_system() -> System {
    let mut edges: Vec<(usize, usize)> = (0..15).map(|i| (i, i + 1)).collect();
    edges.extend([(0, 2), (2, 4), (5, 7), (8, 10), (10, 12), (13, 15)]);
    let mut doc = String::from("r{");
    for tag in ["e", "t"] {
        for (a, b) in &edges {
            doc.push_str(&format!(r#"{tag}{{from{{"n{a}"}},to{{"n{b}"}}}},"#));
        }
    }
    doc.push_str("@lc}");
    let mut sys = System::new();
    sys.add_document_text("edges", &doc).unwrap();
    sys.add_service_text("lc", LINEAR_RULE).unwrap();
    sys
}

/// Measured at 1 782 allocations without debug assertions and 56 347
/// with them (their self-check evaluates each poll in full again with
/// the interpreter and renders both deltas); each bound leaves 10 % of
/// headroom. When each subtree signature walk allocated its own path,
/// 1 901 and 57 202. When the index also kept a bucket per (parent,
/// marking) pair, 2 085 and 60 380; when every poll evaluated the query in full,
/// rebuilt and reduced every head and keyed every answer with a string,
/// the same polls took 23 101, and the quiet poll 3 182.
const LINEAR_POLLS_BUDGET: u64 = if cfg!(debug_assertions) {
    61_982
} else {
    1_961
};

/// A subscription to the closure of [`linear_system`], polled as the
/// server polls it: before the first round and after every round, on
/// each round's published snapshot. A poll builds only the answers that
/// edges derived since the last poll derive; a poll of an unchanged
/// system allocates nothing.
#[test]
fn linear_closure_subscription_polls_stay_under_budget() {
    let _alone = alone();
    let mut sys = linear_system();
    let mut cursor = QueryCursor::new(parse_query(CLOSURE_QUERY).unwrap());
    let mut runner = RoundRunner::new(&EngineConfig::default());
    let mut cur = sys.snapshot();
    let (mut allocs, mut polls) = (0, 0);
    loop {
        let (a, fresh) = counted(|| cursor.poll(cur.system()).unwrap());
        allocs += a;
        polls += 1;
        drop(fresh);
        if runner.step(&mut sys, Tracer::disabled()).unwrap().is_some() {
            let (a, _) = counted(|| cursor.poll(runner.snapshot().unwrap().system()).unwrap());
            allocs += a;
            polls += 1;
            break;
        }
        cur = runner.snapshot().unwrap();
    }
    assert_eq!((runner.rounds(), polls), (9, 10));
    assert_eq!(cursor.seen(), 120, "16 · 15 / 2 closure edges");
    let (quiet, fresh) = counted(|| cursor.poll(cur.system()).unwrap());
    assert!(fresh.is_empty());
    assert_eq!(quiet, 0, "a poll of an unchanged system allocates");
    eprintln!("linear-closure subscription: {allocs} allocations over {polls} polls");
    assert!(
        allocs <= LINEAR_POLLS_BUDGET,
        "{allocs} allocations, budget {LINEAR_POLLS_BUDGET}"
    );
}

/// Measured at 28.7 allocations per answer, with debug assertions on and
/// without; the bound leaves 10 % of headroom. Collecting each scanned
/// candidate set into a vector adds four per answer (`name`, `price`
/// and their values).
const SITE_SELECTION_PER_ANSWER: f64 = 31.6;

/// An interpreted snapshot of the category selection over a 20 000-item
/// site, as a served `query` frame evaluates it: the anchor restricts
/// the descent to the 100 answers' items, and the candidate sets below
/// each item are iterated in place, so the snapshot allocates per
/// answer, not per item.
#[test]
fn interpreted_site_selection_allocates_per_answer_not_per_item() {
    let _alone = alone();
    let doc = axml_bench::site_doc(2, 100, 100, 200);
    doc.build_index();
    let q = parse_query(&format!(
        "hit{{$n,$p}} :- d/{}",
        axml_bench::site_pattern(17)
    ))
    .unwrap();
    let mut env = Env::new();
    env.insert(Sym::intern("d"), &doc);
    let warm = snapshot(&q, &env).unwrap();
    let (allocs, forest) = counted(|| snapshot(&q, &env).unwrap());
    assert_eq!(forest.len(), 100, "one answer per item of the category");
    assert_eq!(forest.len(), warm.len());
    let per_answer = allocs as f64 / forest.len() as f64;
    eprintln!("interpreted site selection: {allocs} allocations, {per_answer:.2} per answer");
    assert!(
        per_answer <= SITE_SELECTION_PER_ANSWER,
        "{per_answer:.2} allocations per answer, bound {SITE_SELECTION_PER_ANSWER}"
    );
}
