//! Snapshot evaluation of positive queries (Proposition 3.1).
//!
//! The snapshot result `q(I)` evaluates the body against the documents
//! *as they currently are* — no service call is invoked — and returns the
//! reduced forest of instantiated heads. Snapshot semantics is monotone
//! (Prop 3.1 (1)) and polynomial in the data (Prop 3.1 (3)); both facts
//! are exercised by the test suites and the X3 experiment.
//!
//! Positive service calls evaluate *semi-naively* in the engine
//! with compiled programs: the [`MatchCache`] holds each atom's matches
//! as a flat relation whose rows carry their births (the newest node of
//! an embedding deriving them, see [`crate::compile`]), and remembers
//! per call the arena length of each stored document at the call's last
//! applied evaluation (`Marks`). A call then builds a head only for a
//! projection that some *new* row derives — a row with an atom row born
//! at or after that mark. Documents only grow, node ids are never
//! reused and a node's marking and parent never change, so an all-old
//! embedding is one the earlier evaluation saw, and its head was grafted
//! next to the call then or was already subsumed there.
//!
//! A [`QueryCursor`] polls the same way: its marks are those of its last
//! poll, and it returns a new head unless a tree it returned before
//! subsumes it.

use crate::compile::{compile_query, CompiledQuery, ProgramCache};
use crate::error::{AxmlError, Result};
use crate::forest::Forest;
use crate::matcher::{match_pattern_with, Binding, Bound, MatchStats, MatchStrategy};
use crate::pattern::{PItem, PNodeId, Pattern};
use crate::query::{Operand, Query};
use crate::reduce::Sig;
use crate::relation::{hash_key, row_binding, BodyJoin, Fresh, Matches, Named, RowIndex};
#[cfg(debug_assertions)]
use crate::subsume::subsumed;
use crate::subsume::SubMemo;
use crate::sym::{FxHashMap, Sym};
use crate::system::{context_sym, input_sym, System};
use crate::trace::{EventKind, Tracer};
use crate::tree::{Marking, NodeId, Tree};
use std::sync::Arc;

/// The evaluation environment: named documents visible to a query (the
/// system's documents plus, during a service call, the reserved `input`
/// and `context` documents).
///
/// Explicitly inserted documents shadow the optional [`System`] backing;
/// the backing lets [`Env::for_invocation`] be O(1) instead of copying
/// every document reference into a map on each service call.
#[derive(Default)]
pub struct Env<'a> {
    docs: FxHashMap<Sym, &'a Tree>,
    sys: Option<&'a System>,
}

impl<'a> Env<'a> {
    /// Empty environment.
    pub fn new() -> Env<'a> {
        Env::default()
    }

    /// The environment a service call evaluates under: every stored
    /// document of `sys`, plus the reserved `input` and `context` trees
    /// that are given. A reserved document passed as `None` is not
    /// visible — the caller builds it only when the service reads it.
    /// Constant-time — stored documents are resolved lazily via `sys`.
    pub fn for_invocation(
        sys: &'a System,
        input: Option<&'a Tree>,
        context: Option<&'a Tree>,
    ) -> Env<'a> {
        let mut docs = FxHashMap::default();
        for (name, doc) in [(input_sym(), input), (context_sym(), context)] {
            if let Some(doc) = doc {
                docs.insert(name, doc);
            }
        }
        Env {
            docs,
            sys: Some(sys),
        }
    }

    /// The environment of a top-level (client-side) snapshot query:
    /// every stored document of `sys`, nothing else. Constant-time —
    /// documents are resolved lazily via `sys`. This is what the
    /// `axml-server` crate evaluates `query`/`batch`/`subscribe` frames
    /// under.
    pub fn for_system(sys: &'a System) -> Env<'a> {
        Env {
            docs: FxHashMap::default(),
            sys: Some(sys),
        }
    }

    /// Register document `name`.
    pub fn insert(&mut self, name: Sym, doc: &'a Tree) {
        self.docs.insert(name, doc);
    }

    /// Look up a document.
    pub fn get(&self, name: Sym) -> Option<&'a Tree> {
        self.docs
            .get(&name)
            .copied()
            .or_else(|| self.sys.and_then(|s| s.doc(name)))
    }

    /// Names visible (explicit entries, then any backing system's docs).
    pub fn names(&self) -> impl Iterator<Item = Sym> + '_ {
        self.docs.keys().copied().chain(
            self.sys
                .into_iter()
                .flat_map(|s| s.doc_names().iter().copied())
                .filter(|n| !self.docs.contains_key(n)),
        )
    }
}

/// Statistics from one snapshot evaluation, for the complexity
/// experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalStats {
    /// Bindings produced per body atom, summed.
    pub atom_bindings: usize,
    /// Bindings surviving the final join.
    pub joined_bindings: usize,
    /// Head trees built before forest reduction: one per distinct
    /// projection of the joined bindings onto the head's variables.
    pub raw_results: usize,
}

/// A cache of per-atom pattern matches, keyed by `(service, atom index)`
/// and validated against the matched document's `(id, version)` pair,
/// plus the marks of every call evaluated semi-naively (`Marks`).
///
/// Stored documents only mutate monotonically under the engine, and
/// [`crate::tree::Tree::version`] changes on every mutation, so an entry
/// whose id and version still match is exact — not merely sound. The
/// reserved `input`/`context` documents are never cached: they are fresh
/// trees on every invocation. An entry is the compiled executor's flat
/// relation, with the birth of each row.
#[derive(Default)]
pub struct MatchCache {
    entries: FxHashMap<(Sym, usize), CacheEntry>,
    marks: FxHashMap<(Sym, NodeId), Marks>,
    hits: usize,
    misses: usize,
}

/// `(doc id, doc version, matches)` — exact while id+version match.
type CacheEntry = (u64, u64, Arc<Matches>);

/// The marks of one evaluation — a call's last applied one, or a
/// cursor's last poll: per stored document its query reads, `(document,
/// Tree::id, arena length)`, taken before anything a call's evaluation
/// derived was grafted. A node with an id below
/// the length existed then; a document whose id moved is a different
/// tree, and every row over it is new.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Marks(Vec<(Sym, u64, u32)>);

impl Marks {
    /// Overwrite with the current arena length of each stored document
    /// that `q` reads in `env`.
    pub(crate) fn take(&mut self, q: &Query, env: &Env<'_>) {
        self.0.clear();
        for atom in &q.body {
            let d = atom.doc;
            if d == input_sym() || d == context_sym() || self.0.iter().any(|m| m.0 == d) {
                continue;
            }
            if let Some(t) = env.get(d) {
                self.0.push((d, t.id(), t.arena_len() as u32));
            }
        }
    }

    /// No mark at all: the call was never evaluated.
    #[cfg(debug_assertions)]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The mark on document `d`, if it is still the tree `t`.
    fn on(&self, d: Sym, t: &Tree) -> Option<u32> {
        self.0
            .iter()
            .find(|m| m.0 == d && m.1 == t.id())
            .map(|m| m.2)
    }
}

impl MatchCache {
    /// Fresh, empty cache.
    pub fn new() -> MatchCache {
        MatchCache::default()
    }

    /// Atom evaluations answered from cache.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Atom evaluations that had to run the matcher.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Cached atom entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove and return the marks of the call at `call`.
    pub(crate) fn take_marks(&mut self, call: (Sym, NodeId)) -> Option<Marks> {
        self.marks.remove(&call)
    }

    /// Record the marks of the call at `call`'s applied evaluation.
    pub(crate) fn set_marks(&mut self, call: (Sym, NodeId), marks: Marks) {
        self.marks.insert(call, marks);
    }
}

/// Evaluate the snapshot result `q(env)`: the reduced forest of all
/// `µ(head)` for assignments µ satisfying every body atom and inequality.
pub fn snapshot(q: &Query, env: &Env<'_>) -> Result<Forest> {
    snapshot_with_stats(q, env).map(|(f, _)| f)
}

/// [`snapshot`], also reporting evaluation statistics.
pub fn snapshot_with_stats(q: &Query, env: &Env<'_>) -> Result<(Forest, EvalStats)> {
    snapshot_inner(q, env, None, MatchStrategy::default())
}

/// [`snapshot`] under an explicit [`MatchStrategy`]: the interpreter over
/// a scan, or over the index as [`snapshot`] does. Engine runs always
/// match compiled programs under [`MatchStrategy::Indexed`].
pub fn snapshot_with_strategy(
    q: &Query,
    env: &Env<'_>,
    strategy: MatchStrategy,
) -> Result<(Forest, EvalStats)> {
    snapshot_inner(q, env, None, strategy)
}

/// [`snapshot_with_strategy`] through the compiled path: the service's
/// query is compiled (or served) from `programs` and executed by the
/// [`crate::compile::MatchProgram`] evaluator. Bit-for-bit equivalent
/// to the interpreted entry points — see [`crate::compile`].
pub fn snapshot_compiled(
    q: &Query,
    env: &Env<'_>,
    svc: Sym,
    programs: &mut ProgramCache,
    strategy: MatchStrategy,
) -> Result<(Forest, EvalStats)> {
    let compiled = programs.lookup(svc, q, strategy, Tracer::disabled());
    snapshot_inner(q, env, Some(&compiled), strategy)
}

/// [`snapshot`] through `compiled`, a program compiled from `q` under
/// any strategy ([`compile_query`]): what a caller that holds the
/// program runs instead of the interpreter, bit-for-bit equal to it
/// (see [`crate::compile`]). Each matcher run reports its index usage
/// to `tracer` as an [`EventKind::IndexLookup`] of
/// [`prepared_query_sym`].
pub fn snapshot_prepared(
    q: &Query,
    env: &Env<'_>,
    compiled: &CompiledQuery,
    tracer: Tracer<'_>,
) -> Result<Forest> {
    let (heads, _) = snapshot_heads(
        q,
        env,
        Some((prepared_query_sym(), None)),
        Some(compiled),
        tracer,
        compiled.program().strategy(),
        None,
    )?;
    Ok(heads.reduce())
}

/// The service name the trace events of a [`snapshot_prepared`]
/// evaluation carry: a client's query belongs to no service, and no
/// service can be named `?query`.
pub fn prepared_query_sym() -> Sym {
    Sym::intern("?query")
}

/// The head trees of `q` over `env`, before reduction: the engine of
/// every snapshot entry point, and of positive service calls, which
/// reduce the result themselves.
///
/// `traced` names the service whose matcher runs are reported to
/// `tracer` as [`EventKind::IndexLookup`]s, with the match cache its
/// atoms are kept in, if any; with `None` nothing is reported.
///
/// With `marks`, the marks of the call's previous evaluation, a head is
/// built only for a projection that some new row derives (see the
/// module doc); the heads keep the order of the full forest's, which
/// builds each projection's at its first row.
pub(crate) fn snapshot_heads(
    q: &Query,
    env: &Env<'_>,
    mut traced: Option<(Sym, Option<&mut MatchCache>)>,
    compiled: Option<&CompiledQuery>,
    tracer: Tracer<'_>,
    strategy: MatchStrategy,
    marks: Option<&Marks>,
) -> Result<(Forest, EvalStats)> {
    // Compiled path: the query's program drives the same per-atom
    // cache/join loop below — only the matcher call differs. The
    // retained atoms keep their original body indices, so match-cache
    // keys and trace events are stable, and the loop resolves documents
    // in original order, so `UnknownDocument` errors and empty-result
    // short-circuits fire exactly like the interpreter (eliminated atoms
    // always have an earlier surviving same-document witness — see
    // `crate::compile`).
    let atom_plan: Vec<(usize, Option<usize>)> = match compiled {
        Some(c) => c
            .program()
            .atoms()
            .iter()
            .enumerate()
            .map(|(pos, a)| (a.index, Some(pos)))
            .collect(),
        None => (0..q.body.len()).map(|i| (i, None)).collect(),
    };
    let run_match = |i: usize, pos: Option<usize>, doc: &Tree| -> (Matches, MatchStats) {
        match (compiled, pos) {
            (Some(c), Some(pos)) => {
                let (rel, stats) = c.program().run_atom_flat(pos, doc);
                (Matches::Flat(rel), stats)
            }
            _ => {
                let (bindings, stats) = match_pattern_with(&q.body[i].pattern, doc, strategy);
                (Matches::Bindings(bindings), stats)
            }
        }
    };
    let mut stats = EvalStats::default();
    let mut index = RowIndex::default();
    let mut body = BodyJoin::Unit;
    for (i, pos) in atom_plan {
        let atom = &q.body[i];
        let doc = env
            .get(atom.doc)
            .ok_or(AxmlError::UnknownDocument(atom.doc))?;
        let cacheable = atom.doc != input_sym() && atom.doc != context_sym();
        let matches: Arc<Matches> = match traced.as_mut() {
            Some((svc, Some(c))) if cacheable => {
                let key = (*svc, i);
                match c.entries.get(&key) {
                    Some((id, ver, m)) if *id == doc.id() && *ver == doc.version() => {
                        c.hits += 1;
                        tracer.emit(|| EventKind::CacheHit {
                            service: *svc,
                            atom: i as u32,
                        });
                        Arc::clone(m)
                    }
                    _ => {
                        c.misses += 1;
                        tracer.emit(|| EventKind::CacheMiss {
                            service: *svc,
                            atom: i as u32,
                        });
                        let (found, mstats) = run_match(i, pos, doc);
                        emit_index_lookup(tracer, *svc, i, mstats);
                        let m = Arc::new(found);
                        c.entries
                            .insert(key, (doc.id(), doc.version(), Arc::clone(&m)));
                        m
                    }
                }
            }
            Some((svc, _)) => {
                let (found, mstats) = run_match(i, pos, doc);
                emit_index_lookup(tracer, *svc, i, mstats);
                Arc::new(found)
            }
            None => Arc::new(run_match(i, pos, doc).0),
        };
        stats.atom_bindings += matches.len();
        if matches.is_empty() {
            return Ok((Forest::new(), stats));
        }
        let mark = match marks {
            Some(m) if cacheable => m.on(atom.doc, doc),
            _ => None,
        };
        body = body.join(matches, mark, &mut index);
        if body.is_empty() {
            return Ok((Forest::new(), stats));
        }
    }
    let forest = body.with_rows(|rows, fresh| heads(q, rows, fresh, &mut index, &mut stats))?;
    Ok((forest, stats))
}

/// The snapshot result: [`snapshot_heads`], reduced.
fn snapshot_inner(
    q: &Query,
    env: &Env<'_>,
    compiled: Option<&CompiledQuery>,
    strategy: MatchStrategy,
) -> Result<(Forest, EvalStats)> {
    let (heads, stats) =
        snapshot_heads(q, env, None, compiled, Tracer::disabled(), strategy, None)?;
    Ok((heads.reduce(), stats))
}

/// One head tree per distinct projection of the joined rows that pass
/// the inequalities onto the head's variables, in first-appearance
/// order. A head reads only its own variables, so rows that agree on
/// them instantiate identical trees; building one per projection leaves
/// the reduced forest unchanged. Unless every row is new, a projection
/// no new row derives gets no head, and the others are built after the
/// pass, still in first-appearance order.
fn heads(
    q: &Query,
    rows: &dyn Named,
    fresh: Fresh<'_>,
    index: &mut RowIndex,
    stats: &mut EvalStats,
) -> Result<Forest> {
    let vars = rows.vars();
    let slot = |op: &Operand| match op {
        Operand::Const(m) => Slot::Const(*m),
        Operand::Var(v) => Slot::Col(vars.binary_search(v).ok()),
    };
    let ineqs: Vec<(Slot, Slot)> = q.ineqs.iter().map(|(l, r)| (slot(l), slot(r))).collect();
    let head_vars = q.head.variables();
    let head_cols: Vec<usize> = (0..vars.len())
        .filter(|&c| head_vars.contains(&vars[c]))
        .collect();
    index.reset(rows.len());
    let mut forest = Forest::new();
    let mut p = Binding::new();
    // The first rows of the projections some new row derives.
    let mut wanted = if fresh.all() {
        Vec::new()
    } else {
        vec![false; rows.len()]
    };
    for row in 0..rows.len() {
        if !ineqs.iter().all(|(l, r)| ineq_holds(*l, *r, rows, row)) {
            continue;
        }
        stats.joined_bindings += 1;
        let h = hash_key(rows, row, head_cols.iter().copied());
        let first = index.chain(h).find(|&k| {
            head_cols
                .iter()
                .all(|&c| rows.cell(k, c) == rows.cell(row, c))
        });
        match first {
            None => {
                index.insert(row, h);
                if fresh.all() {
                    row_binding(rows, row, &head_cols, &mut p);
                    forest.push(instantiate_head(&q.head, &p)?);
                } else {
                    wanted[row] = fresh.row(row);
                }
            }
            Some(k) => {
                if !fresh.all() && fresh.row(row) {
                    wanted[k] = true;
                }
            }
        }
    }
    for row in (0..wanted.len()).filter(|&r| wanted[r]) {
        row_binding(rows, row, &head_cols, &mut p);
        forest.push(instantiate_head(&q.head, &p)?);
    }
    stats.raw_results = forest.len();
    Ok(forest)
}

/// Report one matcher run's index usage to the trace journal.
fn emit_index_lookup(tracer: Tracer<'_>, svc: Sym, atom: usize, mstats: MatchStats) {
    tracer.emit(|| EventKind::IndexLookup {
        service: svc,
        atom: atom as u32,
        probes: mstats.probes as u32,
        probe_hits: mstats.probe_hits as u32,
        fallbacks: mstats.fallbacks as u32,
        scanned: mstats.scanned.min(u64::from(u32::MAX)) as u32,
    });
}

/// An inequality operand against a relation: a constant, or the column
/// of a variable (`None` if no column binds it).
#[derive(Clone, Copy)]
enum Slot {
    Const(Marking),
    Col(Option<usize>),
}

/// Does the inequality `l != r` hold in row `row`?
///
/// Operands resolve to markings; two markings are unequal when they
/// differ in kind or in symbol. Tree variables are excluded by query
/// validation (Definition 3.1 (3)).
fn ineq_holds(l: Slot, r: Slot, rows: &dyn Named, row: usize) -> bool {
    let resolve = |op| match op {
        Slot::Const(m) => Some(m),
        Slot::Col(col) => col.and_then(|c| rows.cell(row, c).as_marking()),
    };
    match (resolve(l), resolve(r)) {
        (Some(a), Some(c)) => a != c,
        // An unbound or tree-valued operand cannot witness the
        // inequality; validation prevents this case.
        _ => false,
    }
}

/// Instantiate a head pattern under a binding, producing a result tree.
pub fn instantiate_head(head: &Pattern, b: &Binding) -> Result<Tree> {
    // A head consisting of a single tree variable returns the bound
    // subtree itself (Example 3.1's second query).
    if let PItem::TreeVar(v) = head.item(head.root()) {
        let bound = b.get(*v).ok_or(AxmlError::UnsafeHeadVariable(*v))?;
        match bound {
            Bound::Tree(t, _) => return Ok((**t).clone()),
            _ => return Err(AxmlError::UnsafeHeadVariable(*v)),
        }
    }
    let root_marking = resolve_item(head.item(head.root()), b)?;
    let mut out = Tree::new(root_marking);
    let out_root = out.root();
    build_children(head, head.root(), &mut out, out_root, b)?;
    Ok(out)
}

fn resolve_item(item: &PItem, b: &Binding) -> Result<Marking> {
    match item {
        PItem::Const(m) => Ok(*m),
        PItem::LabelVar(v) | PItem::FuncVar(v) | PItem::ValueVar(v) => {
            let bound = b.get(*v).ok_or(AxmlError::UnsafeHeadVariable(*v))?;
            bound.as_marking().ok_or(AxmlError::UnsafeHeadVariable(*v))
        }
        PItem::TreeVar(v) => Err(AxmlError::UnsafeHeadVariable(*v)),
    }
}

fn build_children(
    head: &Pattern,
    hn: PNodeId,
    out: &mut Tree,
    on: NodeId,
    b: &Binding,
) -> Result<()> {
    for &hc in head.children(hn) {
        if let PItem::TreeVar(v) = head.item(hc) {
            let bound = b.get(*v).ok_or(AxmlError::UnsafeHeadVariable(*v))?;
            match bound {
                Bound::Tree(t, _) => {
                    out.graft(on, t)?;
                }
                _ => return Err(AxmlError::UnsafeHeadVariable(*v)),
            }
            continue;
        }
        let m = resolve_item(head.item(hc), b)?;
        let oc = out.add_child(on, m)?;
        build_children(head, hc, out, oc, b)?;
    }
    Ok(())
}

/// A continuous-query delta extractor: repeated [`QueryCursor::poll`]s
/// against a growing [`System`] return only the answer trees that no
/// tree this cursor returned before subsumes (Definition 2.2).
///
/// Snapshot evaluation is monotone (Proposition 3.1 (1)): as the system
/// grows under fair rewriting, `q(I)` only gains answers (up to
/// subsumption), so the concatenation of all polled deltas *is* the
/// final answer set — the invariant behind the `axml-server`
/// subscription protocol, which polls a cursor between
/// [`crate::engine::RoundRunner::step`]s and streams each non-empty
/// delta as one wire frame.
///
/// A poll is semi-naive. The query is compiled once, and a poll builds
/// a head only for a projection that some row born since the last poll
/// derives (the marks of the module doc); the first poll evaluates in
/// full. An answer of the reduced snapshot forest that no earlier delta
/// returned an equivalent of cannot have been derivable at the last
/// poll — it would have been maximal then, and returned — so only new
/// rows derive it, and it is among the new heads. Conversely, a reduced
/// new head that no returned tree subsumes is maximal in the whole
/// answer set. The heads keep the full forest's order, so each delta is
/// exactly the trees of the reduced snapshot forest not returned before
/// up to equivalence, in the forest's order. The cursor keeps only the
/// maximal trees it returned, each with its root signature; when
/// nothing the query reads changed since the last poll, the delta is
/// empty without evaluating.
///
/// ```
/// use axml_core::eval::QueryCursor;
/// use axml_core::query::parse_query;
/// use axml_core::system::System;
///
/// let mut sys = System::new();
/// sys.add_document_text("db", r#"db{entry{"a"}}"#)?;
/// let q = parse_query("hit{$x} :- db/db{entry{$x}}")?;
/// let mut cursor = QueryCursor::new(q);
///
/// // First poll sees the one answer…
/// assert_eq!(cursor.poll(&sys)?.len(), 1);
/// // …a second poll over the unchanged system sees nothing new.
/// assert!(cursor.poll(&sys)?.is_empty());
/// # Ok::<(), axml_core::AxmlError>(())
/// ```
pub struct QueryCursor {
    query: Query,
    /// The query's program, compiled under [`MatchStrategy::Indexed`].
    program: CompiledQuery,
    /// The documents the query reads, each once.
    docs: Vec<Sym>,
    /// Each of `docs`' `(Tree::id, Tree::version)` at the last poll that
    /// evaluated (`None`: absent); `None` before the first poll.
    handles: Option<Vec<Option<(u64, u64)>>>,
    /// The arena lengths at the last poll that evaluated.
    marks: Marks,
    /// The maximal trees returned so far, with their root signatures.
    kept: Vec<(Tree, Sig)>,
    /// Trees returned so far.
    returned: usize,
}

impl QueryCursor {
    /// A fresh cursor for `query`; nothing seen yet.
    pub fn new(query: Query) -> QueryCursor {
        let mut docs: Vec<Sym> = Vec::new();
        for atom in &query.body {
            if !docs.contains(&atom.doc) {
                docs.push(atom.doc);
            }
        }
        QueryCursor {
            program: compile_query(&query, MatchStrategy::Indexed),
            query,
            docs,
            handles: None,
            marks: Marks::default(),
            kept: Vec::new(),
            returned: 0,
        }
    }

    /// The registered query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Distinct (up to equivalence) answer trees returned so far.
    pub fn seen(&self) -> usize {
        self.returned
    }

    /// Evaluate the query against the system's current documents and
    /// return the answer trees that no tree returned by an earlier poll
    /// subsumes, in the snapshot forest's (deterministic) order. An
    /// unchanged system yields an empty delta, without evaluating.
    pub fn poll(&mut self, sys: &System) -> Result<Vec<Tree>> {
        let env = Env::for_system(sys);
        let handles = || {
            self.docs
                .iter()
                .map(|&d| env.get(d).map(Tree::snapshot_handle))
        };
        if let Some(last) = &self.handles {
            if last.iter().copied().eq(handles()) {
                return Ok(Vec::new());
            }
        }
        let (heads, _) = snapshot_heads(
            &self.query,
            &env,
            None,
            Some(&self.program),
            Tracer::disabled(),
            MatchStrategy::Indexed,
            Some(&self.marks),
        )?;
        let last = self.handles.get_or_insert_with(Vec::new);
        last.clear();
        last.extend(handles());
        self.marks.take(&self.query, &env);
        #[cfg(debug_assertions)]
        let expected = self.full_delta(&env);
        let (forest, sigs) = heads.reduce_with_sigs();
        let mut memo = SubMemo::new();
        let mut fresh = Vec::new();
        for (t, sig) in forest.into_iter().zip(sigs) {
            let mut below = |a: &Tree, sa: Sig, b: &Tree, sb: Sig| {
                a.marking(a.root()) == b.marking(b.root())
                    && sa.may_embed_in(sb)
                    && memo.subsumed_at(a, a.root(), b, b.root())
            };
            if self.kept.iter().any(|(k, ks)| below(&t, sig, k, *ks)) {
                continue;
            }
            self.kept.retain(|(k, ks)| !below(k, *ks, &t, sig));
            self.kept.push((t.clone(), sig));
            fresh.push(t);
        }
        self.returned += fresh.len();
        #[cfg(debug_assertions)]
        if let Some(expected) = expected {
            let got: Vec<String> = fresh.iter().map(Tree::to_string).collect();
            assert_eq!(got, expected, "the semi-naive delta is not the full one");
        }
        Ok(fresh)
    }

    /// The cursor's self-check, under debug assertions and on documents
    /// of at most [`ANCHOR_SELF_CHECK_NODES`](crate::matcher::ANCHOR_SELF_CHECK_NODES)
    /// slots: the delta a full evaluation gives, the trees of the reduced
    /// snapshot forest that no tree returned so far subsumes, rendered.
    /// The pattern interpreter evaluates it over a scan, so it builds no
    /// index.
    #[cfg(debug_assertions)]
    fn full_delta(&self, env: &Env<'_>) -> Option<Vec<String>> {
        let small = self.docs.iter().all(|&d| {
            env.get(d)
                .is_none_or(|t| t.arena_len() <= crate::matcher::ANCHOR_SELF_CHECK_NODES)
        });
        if !small {
            return None;
        }
        let (full, _) = snapshot_with_strategy(&self.query, env, MatchStrategy::Scan)
            .expect("the semi-naive evaluation succeeded");
        let delta = full
            .trees()
            .iter()
            .filter(|t| !self.kept.iter().any(|(k, _)| subsumed(t, k)))
            .map(Tree::to_string)
            .collect();
        Some(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_tree;
    use crate::query::parse_query;

    /// Helper: evaluate query text against named documents.
    fn eval(q: &str, docs: &[(&str, &str)]) -> Forest {
        let trees: Vec<(Sym, Tree)> = docs
            .iter()
            .map(|(n, s)| (Sym::intern(n), parse_tree(s).unwrap()))
            .collect();
        let mut env = Env::new();
        for (n, t) in &trees {
            env.insert(*n, t);
        }
        snapshot(&parse_query(q).unwrap(), &env).unwrap()
    }

    #[test]
    fn paper_example_3_1_simple_query() {
        // z :- d'/a{x}, d/r{t{a{x},b{z}}} over the Example 3.1 documents.
        let f = eval(
            "?z :- dp/a{$x}, d/r{t{a{$x},b{?z}}}",
            &[
                (
                    "d",
                    r#"r{t{a{"1"},b{c{"2"},d{"3"}}},
                       t{a{"1"},b{c{"3"},e{"3"}}},
                       t{a{"2"},b{c{"2"},k{"6"}}}}"#,
                ),
                ("dp", r#"a{"1"}"#),
            ],
        );
        let mut got: Vec<String> = f.trees().iter().map(|t| t.to_string()).collect();
        got.sort_unstable();
        assert_eq!(got, vec!["c", "d", "e"]);
    }

    #[test]
    fn paper_example_3_1_tree_query() {
        let f = eval(
            "#Z :- dp/a{$x}, d/r{t{a{$x},b{#Z}}}",
            &[
                (
                    "d",
                    r#"r{t{a{"1"},b{c{"2"},d{"3"}}},
                       t{a{"1"},b{c{"3"},e{"3"}}},
                       t{a{"2"},b{c{"2"},k{"6"}}}}"#,
                ),
                ("dp", r#"a{"1"}"#),
            ],
        );
        let mut got: Vec<String> = f.trees().iter().map(|t| t.to_string()).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![r#"c{"2"}"#, r#"c{"3"}"#, r#"d{"3"}"#, r#"e{"3"}"#]
        );
    }

    #[test]
    fn empty_body_yields_single_head() {
        let f = eval("a{@f} :-", &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.trees()[0].to_string(), "a{@f}");
    }

    #[test]
    fn inequality_filters_bindings() {
        let f = eval(
            r#"pair{$x,$y} :- d/r{a{$x},a{$y}}, $x != $y"#,
            &[("d", r#"r{a{"1"},a{"2"}}"#)],
        );
        // (1,2) and (2,1) instantiate to the same reduced head set.
        assert_eq!(f.len(), 1);
        assert_eq!(f.trees()[0].to_string(), r#"pair{"1","2"}"#);
    }

    #[test]
    fn unknown_document_errors() {
        let q = parse_query("r{$x} :- nosuch/a{$x}").unwrap();
        let env = Env::new();
        assert!(matches!(
            snapshot(&q, &env),
            Err(AxmlError::UnknownDocument(_))
        ));
    }

    #[test]
    fn monotone_under_document_growth() {
        // Prop 3.1 (1): growing the document grows the snapshot result.
        let small = eval("r{$x} :- d/r{t{$x}}", &[("d", r#"r{t{"1"}}"#)]);
        let large = eval("r{$x} :- d/r{t{$x}}", &[("d", r#"r{t{"1"},t{"2"}}"#)]);
        assert!(small.subsumed_by(&large));
    }

    #[test]
    fn join_across_atoms() {
        // Transitive-step query: t{x,y} :- d/r{t{x,z},t{z,y}} in the
        // n-ary encoding t{from{x},to{y}}.
        let f = eval(
            "t{from{$x},to{$y}} :- d/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}",
            &[("d", r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}}"#)],
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f.trees()[0].to_string(), r#"t{from{"1"},to{"3"}}"#);
    }

    #[test]
    fn result_forest_is_reduced() {
        let f = eval(
            "r{$x} :- d/a{b{$x},c{$x}}",
            &[("d", r#"a{b{"1"},c{"1"},b{"1"}}"#)],
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn head_with_repeated_tree_var_duplicates_subtree() {
        let f = eval("r{#X,copy{#X}} :- d/a{#X}", &[("d", "a{b{c}}")]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.trees()[0].to_string(), "r{b{c},copy{b{c}}}");
    }

    #[test]
    fn match_cache_hits_on_unchanged_docs_and_invalidates_on_change() {
        let mut sys = System::new();
        sys.add_document_text("d", r#"r{t{"1"},t{"2"}}"#).unwrap();
        let q = parse_query("r{$x} :- d/r{t{$x}}").unwrap();
        let svc = Sym::intern("f");
        let mut cache = MatchCache::new();
        let compiled = compile_query(&q, MatchStrategy::default());
        let cached = |env: &Env<'_>, cache: &mut MatchCache| {
            let (heads, _) = snapshot_heads(
                &q,
                env,
                Some((svc, Some(cache))),
                Some(&compiled),
                Tracer::disabled(),
                MatchStrategy::default(),
                None,
            )
            .unwrap();
            heads.reduce()
        };

        let input = parse_tree("input").unwrap();
        let context = parse_tree("c").unwrap();
        let env = Env::for_invocation(&sys, Some(&input), Some(&context));
        let f1 = cached(&env, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let f2 = cached(&env, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(f1.subsumed_by(&f2) && f2.subsumed_by(&f1));
        drop(env);

        // Mutating the document invalidates the entry.
        let extra = parse_tree(r#"t{"3"}"#).unwrap();
        let doc = sys.doc_mut(Sym::intern("d")).unwrap();
        let root = doc.root();
        doc.graft(root, &extra).unwrap();
        let env = Env::for_invocation(&sys, Some(&input), Some(&context));
        let f3 = cached(&env, &mut cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(f3.len(), 3);
    }

    #[test]
    fn input_and_context_atoms_are_never_cached() {
        let mut sys = System::new();
        sys.add_document_text("d", "a").unwrap();
        let q = parse_query("r{$x} :- input/input{p{$x}}").unwrap();
        let svc = Sym::intern("f");
        let mut cache = MatchCache::new();
        let context = parse_tree("c").unwrap();
        let input = parse_tree(r#"input{p{"1"}}"#).unwrap();
        let env = Env::for_invocation(&sys, Some(&input), Some(&context));
        let compiled = compile_query(&q, MatchStrategy::default());
        for _ in 0..2 {
            snapshot_heads(
                &q,
                &env,
                Some((svc, Some(&mut cache))),
                Some(&compiled),
                Tracer::disabled(),
                MatchStrategy::default(),
                None,
            )
            .unwrap();
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn env_for_invocation_resolves_system_and_reserved_docs() {
        let mut sys = System::new();
        sys.add_document_text("d", "a{b}").unwrap();
        let input = parse_tree("input{x}").unwrap();
        let context = parse_tree("ctx").unwrap();
        let env = Env::for_invocation(&sys, Some(&input), Some(&context));
        assert!(env.get(Sym::intern("d")).is_some());
        assert!(env.get(crate::system::input_sym()).is_some());
        assert!(env.get(crate::system::context_sym()).is_some());
        assert!(env.get(Sym::intern("nosuch")).is_none());
        let names: Vec<Sym> = env.names().collect();
        assert_eq!(names.len(), 3);
        // A reserved document not given is not visible.
        let env = Env::for_invocation(&sys, Some(&input), None);
        assert!(env.get(crate::system::input_sym()).is_some());
        assert!(env.get(crate::system::context_sym()).is_none());
        assert_eq!(env.names().count(), 2);
    }

    #[test]
    fn stats_reported() {
        let trees = parse_tree(r#"r{t{"1"},t{"2"}}"#).unwrap();
        let mut env = Env::new();
        env.insert(Sym::intern("d"), &trees);
        let q = parse_query("r{$x} :- d/r{t{$x}}").unwrap();
        let (_, stats) = snapshot_with_stats(&q, &env).unwrap();
        assert_eq!(stats.joined_bindings, 2);
        assert_eq!(stats.raw_results, 2);
    }
}
