//! The fair rewriting engine (Definitions 2.4–2.5, Theorem 2.1).
//!
//! The engine runs *rounds*: each round enumerates every live function
//! node of the system (in a strategy-chosen order) and invokes it once.
//! Visiting every node every round makes any run **fair** — every call
//! that may bring new data is eventually invoked — so by Theorem 2.1 all
//! runs of a terminating system converge to the same final system (up to
//! equivalence), and all budget-bounded prefixes of a non-terminating
//! system are prefixes of the same infinite limit.
//!
//! Termination is detected at run time as a fixpoint: a complete round
//! in which no invocation changed any document means no function node
//! can bring new data.
//!
//! Rounds are semi-naive. A visit skips a call whose entire *read set* —
//! the documents its service's body atoms name, plus its own document
//! when the query mentions `input`/`context` — is unchanged since the
//! call's previous invocation. That is sound because services are
//! deterministic functions of their read set and systems are monotone
//! (Theorem 2.1 with monotonicity): unchanged inputs reproduce the
//! previous, already grafted and hence subsumed, output, so the skipped
//! visit is a no-op invocation. A skipped call re-fires as soon as any
//! read document changes, so runs stay fair. A call that does run is
//! evaluated through the per-atom [`MatchCache`] and builds heads only
//! for rows new since its last applied evaluation (see [`crate::eval`]),
//! grafting exactly what a full evaluation would.
//!
//! Every visit, skipped or evaluated, is one invocation of §2.2's fair
//! rewriting and is charged to [`EngineConfig::max_invocations`], so a
//! budget cuts the run at the same visit, and on the same documents, as
//! a rewriting that evaluates every live call every round.
//!
//! [`run_restricted`] implements the paper's `[I↓N]` (§4): a fair
//! rewriting that never invokes the calls in a given exclusion set.

use crate::compile::ProgramCache;
use crate::depgraph::{read_set, ReadSet};
use crate::error::Result;
use crate::eval::MatchCache;
use crate::invoke::invoke_node_with_provenance;
use crate::matcher::MatchStrategy;
use crate::provenance::{Provenance, SkipRecord};
use crate::sym::{FxHashMap, Sym};
use crate::system::{System, SystemSnapshot};
use crate::trace::{EventKind, Tracer};
use crate::tree::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Order in which a round visits the pending function nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Document insertion order, preorder within each document.
    RoundRobin,
    /// The reverse of [`Strategy::RoundRobin`].
    Reverse,
    /// A per-round uniformly random order (seeded; used by the confluence
    /// experiments to sample many fair schedules).
    Random(u64),
}

/// Engine budgets and strategy.
///
/// Positive services evaluate through compiled match
/// programs ([`crate::compile`]) under [`MatchStrategy::Indexed`], which
/// scans wherever a document is too small to carry an index. The pattern
/// interpreter over [`MatchStrategy::Scan`] is the reference the engine
/// is tested against (`tests/reference/mod.rs`).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum number of call visits: the invocations of §2.2's fair
    /// rewriting, whether evaluated or skipped as no-ops.
    pub max_invocations: usize,
    /// Abort when the system's total live node count exceeds this.
    pub max_nodes: usize,
    /// Visit order.
    pub strategy: Strategy,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_invocations: 100_000,
            max_nodes: 1_000_000,
            strategy: Strategy::RoundRobin,
        }
    }
}

impl EngineConfig {
    /// A config with the given invocation budget, default elsewhere.
    pub fn with_budget(max_invocations: usize) -> EngineConfig {
        EngineConfig {
            max_invocations,
            ..EngineConfig::default()
        }
    }

    /// A config with the given strategy, default elsewhere.
    pub fn with_strategy(strategy: Strategy) -> EngineConfig {
        EngineConfig {
            strategy,
            ..EngineConfig::default()
        }
    }
}

/// Why the engine stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// Fixpoint: the system terminated (Definition 2.4). The final system
    /// is `[I]`.
    Terminated,
    /// The invocation budget (call visits) ran out first; the system
    /// state is a fair finite prefix of the (possibly infinite) rewriting.
    InvocationBudget,
    /// The node budget ran out first.
    NodeBudget,
}

/// Statistics of one run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Complete rounds executed.
    pub rounds: usize,
    /// Invocations evaluated: snapshot/service evaluations performed,
    /// no-ops included.
    pub invocations: usize,
    /// Invocations that strictly grew a document.
    pub productive: usize,
    /// Visits proved to be no-ops and not evaluated, because the call's
    /// read set was unchanged since its previous invocation.
    /// `invocations + skipped` equals the invocations of the paper's
    /// fair rewriting.
    pub skipped: usize,
    /// Per-atom match-cache hits.
    pub cache_hits: usize,
    /// Per-atom match-cache misses.
    pub cache_misses: usize,
    /// Match programs compiled: one per positive service invoked (see
    /// [`crate::compile`], "Caching").
    pub programs_compiled: usize,
    /// Program-cache hits: invocations that reused a compiled program.
    pub program_cache_hits: usize,
    /// Program-cache misses: invocations that had to (re)compile.
    pub program_cache_misses: usize,
    /// Invocations per function name.
    pub per_function: FxHashMap<Sym, usize>,
    /// Live nodes at the end of the run.
    pub final_nodes: usize,
}

/// Run the system to fixpoint or budget, visiting every function node.
pub fn run(sys: &mut System, cfg: &EngineConfig) -> Result<(RunStatus, RunStats)> {
    run_restricted(sys, cfg, |_, _| true)
}

/// [`run`], emitting the structured event stream of the run into
/// `tracer` (see [`crate::trace`]). With `Tracer::disabled()` this is
/// exactly [`run`]: every event site is one untaken branch.
pub fn run_traced(
    sys: &mut System,
    cfg: &EngineConfig,
    tracer: Tracer<'_>,
) -> Result<(RunStatus, RunStats)> {
    run_restricted_traced(sys, cfg, |_, _| true, tracer)
}

/// Run a fair rewriting that never invokes calls for which `allow`
/// returns `false` — the paper's `[I↓N]` with
/// `N = {v : !allow(doc, v)}`. Fair for all other nodes.
pub fn run_restricted(
    sys: &mut System,
    cfg: &EngineConfig,
    allow: impl Fn(Sym, NodeId) -> bool,
) -> Result<(RunStatus, RunStats)> {
    run_restricted_traced(sys, cfg, allow, Tracer::disabled())
}

/// [`run_traced`] additionally recording per-node lineage into `prov`
/// (see [`crate::provenance`]): seed nodes are stamped up front, every
/// grafting invocation logs an `InvocationRecord` and stamps its new
/// nodes, and every skipped visit logs its read-set evidence for
/// `explain_skip`. With `Provenance::disabled()` this is exactly
/// [`run_traced`].
pub fn run_with_provenance(
    sys: &mut System,
    cfg: &EngineConfig,
    tracer: Tracer<'_>,
    prov: Provenance<'_>,
) -> Result<(RunStatus, RunStats)> {
    run_restricted_with_provenance(sys, cfg, |_, _| true, tracer, prov)
}

/// [`run_restricted`] with tracing (see [`crate::trace`]).
pub fn run_restricted_traced(
    sys: &mut System,
    cfg: &EngineConfig,
    allow: impl Fn(Sym, NodeId) -> bool,
    tracer: Tracer<'_>,
) -> Result<(RunStatus, RunStats)> {
    run_restricted_with_provenance(sys, cfg, allow, tracer, Provenance::disabled())
}

/// The semi-naive skip rule for one pending call: returns `true` —
/// emitting the `CallSkipped` event and the provenance skip evidence —
/// iff the call was invoked before and no document of its read set has
/// changed since. Never invoked before ⇒ must run once.
#[allow(clippy::too_many_arguments)]
fn delta_skip(
    sys: &System,
    read_sets: &FxHashMap<Sym, ReadSet>,
    doc_changed_at: &FxHashMap<Sym, u64>,
    invoked_at: &FxHashMap<(Sym, NodeId), u64>,
    d: Sym,
    n: NodeId,
    fname: Sym,
    round: u64,
    tracer: Tracer<'_>,
    prov: Provenance<'_>,
) -> bool {
    let Some(&at) = invoked_at.get(&(d, n)) else {
        return false;
    };
    let changed_at = |e: &Sym| doc_changed_at.get(e).copied().unwrap_or(0);
    let unchanged = match read_sets.get(&fname) {
        Some(ReadSet::Docs { docs, own_doc }) => {
            docs.iter().all(|e| changed_at(e) <= at) && (!own_doc || changed_at(&d) <= at)
        }
        // Black box / unknown service: conservative.
        _ => sys.doc_names().iter().all(|e| changed_at(e) <= at),
    };
    if !unchanged {
        return false;
    }
    tracer.emit(|| EventKind::CallSkipped {
        doc: d,
        node: n,
        service: fname,
    });
    prov.with(|st| {
        // The evidence that justifies the skip: each read document's
        // last-change stamp is ≤ the call's last-invocation stamp.
        let evidence: Vec<(Sym, u64)> = match read_sets.get(&fname) {
            Some(ReadSet::Docs { docs, own_doc }) => docs
                .iter()
                .chain(own_doc.then_some(&d))
                .map(|e| (*e, changed_at(e)))
                .collect(),
            _ => sys
                .doc_names()
                .iter()
                .map(|e| (*e, changed_at(e)))
                .collect(),
        };
        st.record_skip(SkipRecord {
            doc: d,
            node: n,
            service: fname,
            round,
            invoked_at: at,
            evidence,
        });
    });
    true
}

/// [`run_restricted_traced`] with provenance recording (see
/// [`run_with_provenance`]).
pub fn run_restricted_with_provenance(
    sys: &mut System,
    cfg: &EngineConfig,
    allow: impl Fn(Sym, NodeId) -> bool,
    tracer: Tracer<'_>,
    prov: Provenance<'_>,
) -> Result<(RunStatus, RunStats)> {
    let mut runner = RoundRunner::new(cfg);
    loop {
        if let Some(status) = runner.step_restricted_with_provenance(sys, &allow, tracer, prov)? {
            return Ok((status, runner.stats(sys)));
        }
    }
}

/// A resumable fair-rewriting driver: the engine's run loop with its
/// per-run state (delta bookkeeping, match/program caches, strategy
/// RNG, counters) hoisted into a value, exposing **one round per
/// [`RoundRunner::step`] call**.
///
/// [`run_restricted_with_provenance`] — and therefore every `run_*`
/// entry point — is a thin loop over `step`, so a stepped run is
/// bit-for-bit identical (documents, stats, trace journal, provenance)
/// to the equivalent one-shot run. The point of stepping is what can
/// happen *between* rounds: the `axml-server` crate drains
/// [`crate::eval::QueryCursor`]s there to stream subscription deltas
/// while the fixpoint is still growing, and interleaves batched
/// snapshot queries against the round-consistent intermediate system.
///
/// After `step` returns `Some(status)` the run is over; further calls
/// return the same status without touching the system. Final statistics
/// (cache counters, node counts) are assembled by [`RoundRunner::stats`].
///
/// ```
/// use axml_core::engine::{run, EngineConfig, RoundRunner};
/// use axml_core::system::System;
/// use axml_core::trace::Tracer;
///
/// let build = || -> System {
///     let mut sys = System::new();
///     sys.add_document_text(
///         "edges",
///         r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, @tc}"#,
///     )
///     .unwrap();
///     sys.add_service_text(
///         "tc",
///         "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
///     )
///     .unwrap();
///     sys
/// };
///
/// // Stepped run…
/// let cfg = EngineConfig::default();
/// let mut sys = build();
/// let mut runner = RoundRunner::new(&cfg);
/// let status = loop {
///     if let Some(s) = runner.step(&mut sys, Tracer::disabled())? {
///         break s;
///     }
///     // …a server would serve queries / push deltas here…
/// };
/// let stats = runner.stats(&sys);
///
/// // …is bit-for-bit the one-shot run.
/// let mut sys2 = build();
/// let (status2, stats2) = run(&mut sys2, &cfg)?;
/// assert_eq!(status, status2);
/// assert_eq!(stats.rounds, stats2.rounds);
/// assert_eq!(sys.canonical_key(), sys2.canonical_key());
/// # Ok::<(), axml_core::AxmlError>(())
/// ```
pub struct RoundRunner {
    cfg: EngineConfig,
    stats: RunStats,
    rng: Option<StdRng>,
    /// Read sets, derived from the system on the first step
    /// (name spaces are fixed for a run; only contents evolve).
    read_sets: Option<FxHashMap<Sym, ReadSet>>,
    stamp: u64,
    doc_changed_at: FxHashMap<Sym, u64>,
    invoked_at: FxHashMap<(Sym, NodeId), u64>,
    /// Match cache: per-atom matches, and per call the marks of its
    /// last applied semi-naive evaluation.
    cache: MatchCache,
    /// Program cache: the compiled match program of every positive
    /// service, kept for the whole run (a service's pattern never
    /// changes mid-run).
    pcache: ProgramCache,
    seeded: bool,
    status: Option<RunStatus>,
    /// The latest *committed* state, republished as an O(1) MVCC
    /// snapshot after every completed step (see
    /// [`RoundRunner::snapshot`]).
    latest: Option<SystemSnapshot>,
    /// Per-document delta stamps of the last completed step (see
    /// [`RoundRunner::round_deltas`]).
    last_deltas: Vec<DocDelta>,
}

/// One document's delta stamp for the last completed round: the wire
/// unit of push-mode change propagation. A consumer holding the
/// previous round's stamps can tell *which* documents moved — and by
/// how many mutations — without diffing any tree contents.
///
/// `id`/`version` are the MVCC snapshot handle ([`Tree::id`](crate::tree::Tree::id) /
/// [`Tree::version`](crate::tree::Tree::version); process-unique, not reproducible run-to-run);
/// `mutations` is the deterministic per-handle tally
/// ([`Tree::mutation_count`](crate::tree::Tree::mutation_count)) that observable surfaces report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DocDelta {
    /// The document that changed.
    pub doc: Sym,
    /// The document's arena identity ([`Tree::id`](crate::tree::Tree::id)).
    pub id: u64,
    /// The MVCC version stamp after the round ([`Tree::version`](crate::tree::Tree::version)).
    pub version: u64,
    /// The deterministic mutation tally after the round
    /// ([`Tree::mutation_count`](crate::tree::Tree::mutation_count)).
    pub mutations: u64,
}

impl RoundRunner {
    /// A fresh runner for one run of a system under `cfg`.
    pub fn new(cfg: &EngineConfig) -> RoundRunner {
        RoundRunner {
            cfg: *cfg,
            stats: RunStats::default(),
            rng: match cfg.strategy {
                Strategy::Random(seed) => Some(StdRng::seed_from_u64(seed)),
                _ => None,
            },
            read_sets: None,
            stamp: 0,
            doc_changed_at: FxHashMap::default(),
            invoked_at: FxHashMap::default(),
            cache: MatchCache::new(),
            pcache: ProgramCache::new(),
            seeded: false,
            status: None,
            latest: None,
            last_deltas: Vec::new(),
        }
    }

    /// The latest committed state as an O(1) MVCC snapshot, refreshed at
    /// the end of every [`RoundRunner::step`] (including the final one).
    /// `None` until the first step completes.
    ///
    /// This is what lets readers overlap an in-flight fixpoint: a server
    /// hands the snapshot to concurrent `query`/`stats` frames and
    /// computes subscription deltas snapshot-to-snapshot while the next
    /// round is being evaluated and committed on the writer's side —
    /// the snapshot shares every untouched chunk (and `(id, version)`
    /// cache key) with the live system, so taking and reading it costs
    /// pointer bumps, not tree copies.
    pub fn snapshot(&self) -> Option<SystemSnapshot> {
        self.latest.clone()
    }

    /// The delta stamps of the last completed step: one [`DocDelta`]
    /// per document the round actually mutated, in document order.
    /// Empty before the first step *and* after any quiet round — a
    /// consumer can skip recomputing derived state entirely when this
    /// is empty, because every observable answer is a function of the
    /// documents.
    pub fn round_deltas(&self) -> &[DocDelta] {
        &self.last_deltas
    }

    /// Why the run stopped, once it has ([`RoundRunner::step`] returned
    /// `Some`); `None` while rounds remain.
    pub fn status(&self) -> Option<RunStatus> {
        self.status
    }

    /// Complete rounds executed so far.
    pub fn rounds(&self) -> usize {
        self.stats.rounds
    }

    /// Execute one fair round: all live calls, no restriction, no
    /// provenance. Returns `Some(status)` when the run is over (this
    /// round hit a fixpoint or a budget), `None` when more rounds
    /// remain.
    pub fn step(&mut self, sys: &mut System, tracer: Tracer<'_>) -> Result<Option<RunStatus>> {
        self.step_restricted_with_provenance(sys, &|_, _| true, tracer, Provenance::disabled())
    }

    /// The statistics of the run so far, with the end-of-run fields
    /// (final node count, cache and program counters) assembled from
    /// the current state.
    pub fn stats(&self, sys: &System) -> RunStats {
        let mut stats = self.stats.clone();
        stats.final_nodes = sys.node_count();
        stats.cache_hits = self.cache.hits();
        stats.cache_misses = self.cache.misses();
        stats.programs_compiled = self.pcache.compiles() as usize;
        stats.program_cache_hits = self.pcache.hits() as usize;
        stats.program_cache_misses = self.pcache.misses() as usize;
        stats
    }

    /// [`RoundRunner::step`] restricted to `allow` and recording
    /// provenance — the full-generality round body shared by every
    /// `run_*` entry point.
    pub fn step_restricted_with_provenance(
        &mut self,
        sys: &mut System,
        allow: &impl Fn(Sym, NodeId) -> bool,
        tracer: Tracer<'_>,
        prov: Provenance<'_>,
    ) -> Result<Option<RunStatus>> {
        // Pin the pre-step state so the post-step diff is exact even on
        // the first step (O(1): Arc bumps per doc).
        let before = match &self.latest {
            Some(snap) => snap.clone(),
            None => sys.snapshot(),
        };
        let status = self.step_body(sys, allow, tracer, prov)?;
        // Per-document delta stamps: a document changed iff its
        // deterministic mutation tally moved. Tallies are strictly
        // increasing per handle, so equality means bit-identical
        // content between the two committed states.
        self.last_deltas.clear();
        for &d in sys.doc_names() {
            let Some(tree) = sys.doc(d) else { continue };
            let moved = before
                .doc(d)
                .map(|old| old.mutation_count() != tree.mutation_count())
                .unwrap_or(true);
            if moved {
                self.last_deltas.push(DocDelta {
                    doc: d,
                    id: tree.id(),
                    version: tree.version(),
                    mutations: tree.mutation_count(),
                });
            }
        }
        // Every exit from the round body — fixpoint, budget stop, or
        // more rounds to come — leaves `sys` in a committed state, so
        // republish it for concurrent readers (O(1): Arc bumps per doc).
        self.latest = Some(sys.snapshot());
        Ok(status)
    }

    fn step_body(
        &mut self,
        sys: &mut System,
        allow: &impl Fn(Sym, NodeId) -> bool,
        tracer: Tracer<'_>,
        prov: Provenance<'_>,
    ) -> Result<Option<RunStatus>> {
        if self.status.is_some() {
            return Ok(self.status);
        }
        if !self.seeded {
            prov.with(|st| st.seed_system(sys));
            self.seeded = true;
        }
        let cfg = &self.cfg;
        // Semi-naive bookkeeping. Read sets are derivable once per run:
        // the document and service name spaces of a system are fixed,
        // only document *contents* evolve. Logical time is a single
        // counter that ticks on every document change; a call may be
        // skipped iff no document of its read set changed after the
        // call's last invocation.
        let read_sets: &FxHashMap<Sym, ReadSet> = self.read_sets.get_or_insert_with(|| {
            sys.service_names()
                .iter()
                .map(|&f| (f, read_set(sys, f)))
                .collect()
        });
        let doc_changed_at = &mut self.doc_changed_at;
        let invoked_at = &mut self.invoked_at;
        let stats = &mut self.stats;

        let mut pending = sys.function_nodes();
        match cfg.strategy {
            Strategy::RoundRobin => {}
            Strategy::Reverse => pending.reverse(),
            Strategy::Random(_) => {
                pending.shuffle(self.rng.as_mut().expect("random strategy has an rng"))
            }
        }
        pending.retain(|&(d, n)| allow(d, n));
        if pending.is_empty() {
            self.status = Some(RunStatus::Terminated);
            return Ok(self.status);
        }
        let round = stats.rounds as u64;
        tracer.emit(|| EventKind::RoundStart { round });
        let mut any_change = false;
        for (d, n) in pending {
            // Reduction during an earlier invocation of this round
            // may have merged this node away; its information
            // survives in the equivalent sibling that was kept.
            if !sys.doc(d).map(|t| t.is_alive(n)).unwrap_or(false) {
                continue;
            }
            let fname = match sys.doc(d).map(|t| t.marking(n)) {
                Some(crate::tree::Marking::Func(f)) => f,
                _ => continue,
            };
            // Every visit is an invocation of the fair rewriting, a
            // skipped one included.
            if stats.invocations + stats.skipped >= cfg.max_invocations {
                self.status = Some(RunStatus::InvocationBudget);
                return Ok(self.status);
            }
            if delta_skip(
                sys,
                read_sets,
                doc_changed_at,
                invoked_at,
                d,
                n,
                fname,
                round,
                tracer,
                prov,
            ) {
                stats.skipped += 1;
                continue;
            }
            tracer.emit(|| EventKind::CallSelected {
                doc: d,
                node: n,
                service: fname,
            });
            let started = tracer.enabled().then(Instant::now);
            let outcome = invoke_node_with_provenance(
                sys,
                d,
                n,
                Some(&mut self.cache),
                Some(&mut self.pcache),
                tracer,
                prov,
                round,
                MatchStrategy::Indexed,
            )?;
            tracer.emit(|| EventKind::Invoke {
                doc: d,
                node: n,
                service: fname,
                changed: outcome.changed,
                grafted: outcome.grafted as u32,
                result_trees: outcome.result_trees as u32,
                doc_version: sys.doc(d).map(|t| t.mutation_count()).unwrap_or(0),
                dur_ns: started.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            });
            stats.invocations += 1;
            *stats.per_function.entry(fname).or_insert(0) += 1;
            // The invocation read state at time `stamp`; its own change
            // (if any) is stamped strictly later so calls reading their
            // host document re-fire. (The call's semi-naive marks, the
            // arena lengths it read, went into the match cache when its
            // graft was applied.)
            invoked_at.insert((d, n), self.stamp);
            if outcome.changed {
                self.stamp += 1;
                doc_changed_at.insert(d, self.stamp);
                stats.productive += 1;
                any_change = true;
            }
            if sys.node_count() > cfg.max_nodes {
                self.status = Some(RunStatus::NodeBudget);
                return Ok(self.status);
            }
        }
        stats.rounds += 1;
        tracer.emit(|| EventKind::RoundEnd {
            round,
            changed: any_change,
        });
        if !any_change {
            self.status = Some(RunStatus::Terminated);
        }
        Ok(self.status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;
    use crate::subsume::equivalent;
    use crate::sym::Sym;

    fn tc_system() -> System {
        // Example 3.2: transitive closure.
        let mut sys = System::new();
        sys.add_document_text(
            "d0",
            r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, t{from{"3"},to{"4"}}}"#,
        )
        .unwrap();
        sys.add_document_text("d1", "r{@g,@f}").unwrap();
        sys.add_service_text("g", "t{from{$x},to{$y}} :- d0/r{t{from{$x},to{$y}}}")
            .unwrap();
        sys.add_service_text(
            "f",
            "t{from{$x},to{$y}} :- d1/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
        )
        .unwrap();
        sys
    }

    fn tc_pairs(sys: &System) -> Vec<(String, String)> {
        let d1 = sys.doc(Sym::intern("d1")).unwrap();
        let mut out = Vec::new();
        for n in d1.children(d1.root()) {
            if d1.marking(*n) == crate::tree::Marking::label("t") {
                let mut from = None;
                let mut to = None;
                for c in d1.children(*n) {
                    let v = d1.children(*c).first().map(|&v| d1.marking(v).sym());
                    match d1.marking(*c).sym().as_str() {
                        "from" => from = v,
                        "to" => to = v,
                        _ => {}
                    }
                }
                out.push((
                    from.unwrap().as_str().to_string(),
                    to.unwrap().as_str().to_string(),
                ));
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn example_3_2_computes_transitive_closure() {
        let mut sys = tc_system();
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert!(stats.productive > 0);
        let pairs = tc_pairs(&sys);
        let expect: Vec<(String, String)> = [
            ("1", "2"),
            ("1", "3"),
            ("1", "4"),
            ("2", "3"),
            ("2", "4"),
            ("3", "4"),
        ]
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
        assert_eq!(pairs, expect);
    }

    #[test]
    fn confluence_across_strategies() {
        // Theorem 2.1: all fair rewritings terminate at the same system.
        let mut reference = tc_system();
        run(&mut reference, &EngineConfig::default()).unwrap();
        for strategy in [
            Strategy::Reverse,
            Strategy::Random(1),
            Strategy::Random(42),
            Strategy::Random(7_777),
        ] {
            let mut sys = tc_system();
            let (status, _) = run(&mut sys, &EngineConfig::with_strategy(strategy)).unwrap();
            assert_eq!(status, RunStatus::Terminated);
            assert_eq!(sys.canonical_key(), reference.canonical_key());
        }
    }

    #[test]
    fn example_2_1_runs_forever() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        let (status, stats) = run(&mut sys, &EngineConfig::with_budget(50)).unwrap();
        assert_eq!(status, RunStatus::InvocationBudget);
        // Only the freshest f occurrence is productive each round (older
        // ones return already-subsumed data), so productive ≈ √(2·budget)
        // and the document's depth grows without bound.
        assert!(stats.productive >= 8, "productive = {}", stats.productive);
        let d = sys.doc(Sym::intern("d")).unwrap();
        assert!(d.depth(d.root()) >= 8);
    }

    #[test]
    fn example_3_3_grows_unboundedly() {
        // d'/a{a{b},g} with g : a{a{X}} :- context/a{a{X}}.
        let mut sys = System::new();
        sys.add_document_text("d", "a{a{b},@g}").unwrap();
        sys.add_service_text("g", "a{a{#X}} :- context/a{a{#X}}")
            .unwrap();
        let (status, _) = run(&mut sys, &EngineConfig::with_budget(10)).unwrap();
        assert_eq!(status, RunStatus::InvocationBudget);
        let d = sys.doc(Sym::intern("d")).unwrap();
        // After k productive calls the document contains a^{k+1}{b}.
        assert!(d.depth(d.root()) >= 5);
        // The first few steps match the paper's displayed rewriting.
        let mut sys2 = System::new();
        sys2.add_document_text("d", "a{a{b},@g}").unwrap();
        sys2.add_service_text("g", "a{a{#X}} :- context/a{a{#X}}")
            .unwrap();
        let (d2, n) = sys2.function_nodes()[0];
        crate::invoke::invoke_node(&mut sys2, d2, n).unwrap();
        let expected = parse_tree("a{a{b}, a{a{b}}, @g}").unwrap();
        assert!(equivalent(sys2.doc(d2).unwrap(), &expected));
        crate::invoke::invoke_node(&mut sys2, d2, n).unwrap();
        let expected2 = parse_tree("a{a{b}, a{a{b}}, a{a{a{b}}}, @g}").unwrap();
        assert!(equivalent(sys2.doc(d2).unwrap(), &expected2));
    }

    #[test]
    fn node_budget_respected() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{@f}").unwrap();
        sys.add_service_text("f", "a{@f} :-").unwrap();
        let cfg = EngineConfig {
            max_nodes: 30,
            ..EngineConfig::default()
        };
        let (status, stats) = run(&mut sys, &cfg).unwrap();
        assert_eq!(status, RunStatus::NodeBudget);
        assert!(stats.final_nodes > 30);
        assert!(stats.final_nodes < 100);
    }

    #[test]
    fn restricted_run_excludes_calls() {
        // Excluding the only function node terminates immediately.
        let mut sys = tc_system();
        let excluded: Vec<(Sym, NodeId)> = sys.function_nodes();
        let (status, stats) = run_restricted(&mut sys, &EngineConfig::default(), |d, n| {
            !excluded.contains(&(d, n))
        })
        .unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert_eq!(stats.invocations, 0);
        // d1 is unchanged: no data was derived.
        let d1 = sys.doc(Sym::intern("d1")).unwrap();
        assert_eq!(d1.node_count(), 3);
    }

    #[test]
    fn stats_track_per_function_counts() {
        let mut sys = tc_system();
        let (_, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert!(stats.per_function[&Sym::intern("g")] >= 1);
        assert!(stats.per_function[&Sym::intern("f")] >= 1);
        assert_eq!(
            stats.invocations,
            stats.per_function.values().sum::<usize>()
        );
    }

    #[test]
    fn skipped_visits_are_charged_to_the_budget() {
        let mut sys = tc_system();
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        // g reads only d0 (static): after its first evaluation every
        // later visit is skipped.
        assert!(stats.skipped > 0, "stats: {stats:?}");
        let mut reverse = tc_system();
        run(
            &mut reverse,
            &EngineConfig::with_strategy(Strategy::Reverse),
        )
        .unwrap();
        assert_eq!(sys.canonical_key(), reverse.canonical_key());
        // The run's last visit is a skip of the quiet round; one visit
        // less of budget cuts the run there.
        let visits = stats.invocations + stats.skipped;
        let mut cut = tc_system();
        let (status, cstats) = run(&mut cut, &EngineConfig::with_budget(visits - 1)).unwrap();
        assert_eq!(status, RunStatus::InvocationBudget);
        assert_eq!(cstats.invocations + cstats.skipped, visits - 1);
        assert_eq!(cut.canonical_key(), sys.canonical_key());
        let mut whole = tc_system();
        let (status, _) = run(&mut whole, &EngineConfig::with_budget(visits)).unwrap();
        assert_eq!(status, RunStatus::Terminated);
    }

    #[test]
    fn reports_cache_traffic() {
        // A cache hit needs a service that is *re*-evaluated (some read
        // doc changed) while another of its atoms' docs is unchanged:
        // `join` reads the static d0 and the growing d1.
        fn mixed_reads() -> System {
            let mut sys = System::new();
            sys.add_document_text("d0", r#"r{v{"1"},v{"2"}}"#).unwrap();
            sys.add_document_text("d1", "out{@join,@pump}").unwrap();
            sys.add_service_text("join", "pair{$x,$y} :- d0/r{v{$x}}, d1/out{w{$y}}")
                .unwrap();
            sys.add_service_text("pump", r#"w{"a"} :-"#).unwrap();
            sys
        }
        let mut sys = mixed_reads();
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert!(stats.cache_misses > 0);
        assert!(stats.cache_hits > 0, "stats: {stats:?}");
        // Same final system as the other visit order.
        let mut reverse = mixed_reads();
        run(
            &mut reverse,
            &EngineConfig::with_strategy(Strategy::Reverse),
        )
        .unwrap();
        assert_eq!(reverse.canonical_key(), sys.canonical_key());
    }

    #[test]
    fn context_readers_keep_firing() {
        // Example 3.3: g reads its own document through `context`, so its
        // read set changes after every productive call — the skip rule
        // must not starve it.
        let mut sys = System::new();
        sys.add_document_text("d", "a{a{b},@g}").unwrap();
        sys.add_service_text("g", "a{a{#X}} :- context/a{a{#X}}")
            .unwrap();
        let (status, stats) = run(&mut sys, &EngineConfig::with_budget(10)).unwrap();
        assert_eq!(status, RunStatus::InvocationBudget);
        assert_eq!((stats.invocations, stats.skipped), (10, 0));
        assert!(stats.productive >= 5);
        let d = sys.doc(Sym::intern("d")).unwrap();
        assert!(d.depth(d.root()) >= 5);
    }

    #[test]
    fn black_boxes_are_conservative_but_terminate() {
        use crate::forest::Forest;
        use crate::service::BlackBoxService;
        let mut sys = System::new();
        sys.add_document_text("d", r#"a{@bb}"#).unwrap();
        let result = Forest::from_trees(vec![crate::parse::parse_tree("r{x}").unwrap()]);
        sys.add_black_box("bb", BlackBoxService::constant("c", result))
            .unwrap();
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        // A black box reads every document, and its own graft changed
        // one, so it is evaluated again rather than skipped.
        assert_eq!((stats.invocations, stats.skipped), (2, 0));
        let d = sys.doc(Sym::intern("d")).unwrap();
        assert!(equivalent(d, &parse_tree("a{@bb, r{x}}").unwrap()));
    }

    #[test]
    fn traced_run_journals_the_full_taxonomy() {
        use crate::trace::{chrome_trace, validate_chrome_trace, Fanout, Journal, MetricsRegistry};
        let journal = Journal::new();
        let metrics = MetricsRegistry::new();
        let fan = Fanout::new(vec![&journal, &metrics]);
        let mut sys = tc_system();
        let (status, stats) =
            run_traced(&mut sys, &EngineConfig::default(), Tracer::new(&fan)).unwrap();
        assert_eq!(status, RunStatus::Terminated);

        let events = journal.snapshot();
        // One Invoke event per evaluated invocation, one CallSkipped per
        // skip: the journal and RunStats agree exactly.
        let invokes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Invoke { .. }))
            .count();
        let skips = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CallSkipped { .. }))
            .count();
        assert_eq!(invokes, stats.invocations);
        assert_eq!(skips, stats.skipped);
        let g = metrics.globals();
        assert_eq!(g.rounds as usize, stats.rounds);
        assert_eq!(g.calls_selected as usize, stats.invocations);
        // Evaluation went through the match cache.
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CacheMiss { .. })));
        // Productive invocations grafted and reduced.
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Graft { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Reduce { .. })));
        // The journal exports to valid Chrome trace JSON.
        let json = chrome_trace(&events);
        assert_eq!(validate_chrome_trace(&json).unwrap(), events.len());
        // Traced and untraced runs compute the same fixpoint.
        let mut plain = tc_system();
        run(&mut plain, &EngineConfig::default()).unwrap();
        assert_eq!(plain.canonical_key(), sys.canonical_key());
    }

    #[test]
    fn server_shared_state_is_send_and_sync() {
        // The thread-safety audit for what still crosses threads, pinned
        // at compile time: server reader threads share the writer's
        // `System` and the published `SystemSnapshot`, and the server's
        // trace sink keeps a `Journal` behind a mutex.
        fn sync<T: Sync>() {}
        fn send<T: Send>() {}
        sync::<System>();
        send::<System>();
        sync::<SystemSnapshot>();
        send::<SystemSnapshot>();
        send::<crate::trace::Journal>();
    }

    #[test]
    fn acyclic_system_single_pass() {
        // A one-shot service over a static doc terminates in <= 2 rounds.
        let mut sys = System::new();
        sys.add_document_text("src", r#"r{v{"1"},v{"2"}}"#).unwrap();
        sys.add_document_text("dst", "out{@copy}").unwrap();
        sys.add_service_text("copy", "v{$x} :- src/r{v{$x}}")
            .unwrap();
        let (status, stats) = run(&mut sys, &EngineConfig::default()).unwrap();
        assert_eq!(status, RunStatus::Terminated);
        assert!(stats.rounds <= 2);
        let dst = sys.doc(Sym::intern("dst")).unwrap();
        assert!(equivalent(
            dst,
            &parse_tree(r#"out{@copy, v{"1"}, v{"2"}}"#).unwrap()
        ));
    }
}
