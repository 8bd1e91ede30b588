//! Query compilation: lower positive patterns to cached match programs.
//!
//! Every service's positive query is fixed for the lifetime of the
//! system, yet the interpreter ([`crate::matcher::match_pattern_with`])
//! re-walks the same pattern AST on every invocation. This module
//! compiles each query once:
//!
//! 1. **Eliminate** duplicate conjuncts and dead ground conjuncts
//!    ([`eliminate_conjuncts`]).
//! 2. **Lower** the retained tree patterns into a plan IR
//!    ([`QueryPlan`] of [`PlanNode`]s), marking ground subtrees.
//! 3. **Emit** a flat [`MatchProgram`] — a bytecode-like op vector, one
//!    op per plan node, each with its column layout — executed by a
//!    decorrelated evaluator over flat relations instead of the
//!    recursive AST interpretation.
//!
//! A program depends on the query and the match strategy only, never on
//! the documents: join order is decided at run time from the actual
//! candidate sets (see "The executor").
//!
//! # The executor
//!
//! An embedding maps every pattern node (§3.1), so every assignment of
//! an op's subtree binds exactly the subtree's variables. An op's
//! relation at a document node is therefore a set of fixed-width rows:
//! one cell per variable of the subtree, in sorted variable order, the
//! layout fixed at emit time together with the map from each child's
//! columns to the op's. The executor evaluates an op at a node by
//! starting from one row that binds only the op's own variable, then
//! joining in its children rarest candidate set first, ties in pattern
//! order, as the interpreter does; a column whose child is not joined
//! yet is unset, in every row alike, so each join step reads its shared
//! columns off the relation. A step hashes the child's relation — the
//! union of its relations over the candidate nodes, deduplicated — on
//! the shared columns and probes it in row order (`relation.rs`);
//! without shared columns it is a cross product. The join of two
//! duplicate-free relations is duplicate-free, so the union is the only
//! place that deduplicates. Relations live in buffers reused for the
//! whole [`MatchProgram::run_atom`]; a run allocates one flat, sorted
//! relation for the result, which [`MatchProgram::run_atom`] turns into
//! one [`Binding`] per row.
//!
//! # Births
//!
//! Every row carries a *birth*: the largest node id of one embedding
//! that derives it. A leaf's or an op's own item is born with its node,
//! a tree variable with the newest node of the bound subtree (an old
//! node whose subtree grew binds a new value); a join step's row is born
//! when the later of its two rows is, a row the union deduplicates when
//! the earliest of its copies is, and a ground child contributes the
//! birth of the witness its existence test found. Overestimating a birth
//! only costs work; underestimating one would lose answers. Node ids are
//! never reused and a node's marking and parent never change, so a row
//! born before a document's arena length at some earlier moment has an
//! embedding that existed then — what lets a semi-naive call
//! ([`crate::eval`]) skip the rows its previous evaluation saw.
//!
//! # Equivalence with the interpreter
//!
//! The compiled executor is bit-for-bit equivalent to the interpreter:
//! [`MatchProgram::run_atom`] returns exactly the vector
//! [`match_pattern_with`](crate::matcher::match_pattern_with) returns.
//! The argument:
//!
//! * The interpreter's output is a *canonical* representation of the
//!   set of embeddings — every intermediate level is sorted and
//!   deduplicated, and the top level is sorted — so any evaluator that
//!   produces the same embedding **set** produces the same **vector**.
//!   The executor's rows, sorted as rows over the same sorted variables,
//!   sort exactly as the bindings do.
//! * Decorrelation preserves the set: `match_at(pc, tc, base)` equals
//!   `{ base ⊔ e | e ∈ match_at(pc, tc, ∅) }` (pattern items bind
//!   variables from the document node alone; the seed only prunes
//!   conflicts, which the join on shared columns prunes identically),
//!   and the map `e ↦ base ⊔ e` is injective on a fixed variable domain.
//! * Each optimization pass is set-preserving: a duplicate atom's
//!   self-join is idempotent, an eliminated ground atom is implied by a
//!   surviving *earlier* same-document atom (so error order and
//!   empty-result short-circuits are also preserved), and join order
//!   does not change the joined set (the executor joins children in the
//!   interpreter's order anyway: a stable sort of pattern order by
//!   actual candidate-set size).
//! * Under `Indexed`, both executors take their candidate sets through
//!   the same anchor ([`crate::matcher`], "rarest constant"): the ops of
//!   an atom mirror its pattern node for node and child for child, so
//!   both choose the same anchor, and it drops only candidates through
//!   which no embedding passes.
//!
//! What *may* differ: per-atom match statistics (the decorrelated
//! executor takes the candidate sets of each `(op, node)` pair once
//! where the interpreter takes them per seed binding, so compiled
//! `scanned` counts are ≤ interpreted)
//! and [`crate::eval::EvalStats::atom_bindings`] for eliminated atoms.
//!
//! # Caching
//!
//! Compiled programs live in a [`ProgramCache`] keyed by service: a
//! service is compiled once per run, and its program is replaced only
//! when it was emitted for another strategy. Documents growing, their
//! indexes being built, or their being replaced never invalidate a
//! program, because a program reads no document.
//!
//! # The reference
//!
//! Engine runs always evaluate positive services through compiled
//! programs. The interpreter is the oracle they are checked against:
//! `tests/delta_engine.rs` replays every engine round as §2.2 invocation
//! steps that match with the interpreter over [`MatchStrategy::Scan`],
//! and the documents must agree node for node.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use crate::matcher::{
    anchored_candidate_set, item_bound, Anchor, Binding, Bound, CandSet, MatchStats, MatchStrategy,
    Shape,
};
use crate::pattern::{PItem, PNodeId, Pattern};
use crate::query::Query;
use crate::relation::{hash_join, hash_key, Relation, RowIndex, Rows};
use crate::sym::{FxHashMap, Sym};
use crate::trace::{EventKind, Tracer};
use crate::tree::{NodeId, Tree};

/// One node of the plan IR: a pattern item plus its children, in
/// pattern order.
#[derive(Clone, Debug)]
pub struct PlanNode {
    /// The match test this node performs.
    pub item: PItem,
    /// No variables anywhere in this subtree — the emitted op becomes a
    /// pure existence test (no binding is ever cloned for it).
    pub ground: bool,
    /// Children, in pattern order.
    pub children: Vec<PlanNode>,
}

/// One retained body atom of a [`QueryPlan`].
#[derive(Clone, Debug)]
pub struct PlanAtom {
    /// The atom's position in the *original* query body — kept so
    /// per-atom cache keys and trace events stay stable across
    /// conjunct elimination.
    pub index: usize,
    /// The document the atom matches against.
    pub doc: Sym,
    /// The lowered, optimized pattern.
    pub root: PlanNode,
}

/// Why a conjunct was eliminated (reported by [`CompiledQuery::dump`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElimReason {
    /// Structurally identical to an earlier surviving atom over the
    /// same document: the self-join is idempotent.
    Duplicate {
        /// Original body index of the surviving witness.
        of: usize,
    },
    /// A ground (variable-free) atom implied by an earlier surviving
    /// atom over the same document: whenever the witness matches, so
    /// does this atom, and whenever it fails the witness already made
    /// the join empty.
    ImpliedGround {
        /// Original body index of the surviving witness.
        by: usize,
    },
}

/// The optimized plan IR of one query: retained atoms plus the record
/// of what the elimination pass removed.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    /// Retained body atoms, in original body order.
    pub atoms: Vec<PlanAtom>,
    /// Eliminated conjuncts as `(original index, reason)`.
    pub eliminated: Vec<(usize, ElimReason)>,
}

/// Id of an op inside a [`MatchProgram`].
pub type OpId = u32;

/// One instruction of an emitted [`MatchProgram`]: match this item at
/// the current document node, then join the child ops over the node's
/// children.
#[derive(Clone, Debug)]
pub struct MatchOp {
    /// The match test this op performs.
    pub item: PItem,
    /// Child ops, in pattern order. At run time the executor joins them
    /// in the interpreter's order — a stable sort of this order by live
    /// candidate-set size — so it probes and bails where the interpreter
    /// does; the rows in between are not sorted, and only the sorted
    /// output equals the interpreter's vector.
    pub children: Vec<OpId>,
    /// This subtree binds no variables: executed as an existence test.
    pub ground: bool,
    /// No children: binding against a pre-filtered candidate is all
    /// that is left to do.
    pub leaf: bool,
}

/// Entry point of one retained atom inside a [`MatchProgram`].
#[derive(Clone, Copy, Debug)]
pub struct AtomCode {
    /// Position in the original query body (cache/event key).
    pub index: usize,
    /// Document name the atom matches against.
    pub doc: Sym,
    /// Root op of the atom's pattern.
    pub root: OpId,
}

/// A compiled match program: the flat op vector emitted from a
/// [`QueryPlan`] plus each op's column layout, executed by a
/// decorrelated evaluator that computes each op's relation once per
/// document node and hash-joins it with the rows accumulated so far
/// (instead of the interpreter's per-seed re-embedding).
#[derive(Clone, Debug)]
pub struct MatchProgram {
    strategy: MatchStrategy,
    ops: Vec<MatchOp>,
    layouts: Vec<Layout>,
    atoms: Vec<AtomCode>,
}

/// The column layout of one op's relation, fixed at emit time: every
/// embedding of the op's subtree binds exactly the subtree's variables,
/// so each row has one cell per variable (see the module doc).
#[derive(Clone, Debug)]
struct Layout {
    /// The variables of the op's subtree, sorted: column `i` binds
    /// `vars[i]`.
    vars: Vec<Sym>,
    /// The column of the op's own item, if it is a variable.
    own: Option<usize>,
    /// Per child, in [`MatchOp::children`] order: the op column of each
    /// of the child's columns.
    kids: Vec<Vec<usize>>,
}

impl Layout {
    /// The layout of an op with item `item` over children with layouts
    /// `kids`.
    fn of<'a>(item: &PItem, kids: impl Iterator<Item = &'a Layout> + Clone) -> Layout {
        let mut vars: Vec<Sym> = item
            .var()
            .into_iter()
            .chain(kids.clone().flat_map(|k| k.vars.iter().copied()))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let col = |v: &Sym| vars.binary_search(v).expect("a subtree variable");
        Layout {
            own: item.var().map(|v| col(&v)),
            kids: kids.map(|k| k.vars.iter().map(col).collect()).collect(),
            vars,
        }
    }
}

impl MatchProgram {
    /// The match strategy this program was emitted for.
    pub fn strategy(&self) -> MatchStrategy {
        self.strategy
    }

    /// The flat op vector.
    pub fn ops(&self) -> &[MatchOp] {
        &self.ops
    }

    /// The retained atoms' entry points, in original body order.
    pub fn atoms(&self) -> &[AtomCode] {
        &self.atoms
    }

    /// Execute the atom at position `pos` (of [`MatchProgram::atoms`])
    /// against document `t`. Returns exactly what
    /// [`crate::matcher::match_pattern_with`] returns for the original
    /// pattern: the sorted vector of all satisfying assignments, plus
    /// index-usage counters (compiled `scanned` counts are ≤
    /// interpreted — each `(op, node)` pair's candidate sets are taken
    /// once, not once per seed).
    pub fn run_atom(&self, pos: usize, t: &Tree) -> (Vec<Binding>, MatchStats) {
        let (rel, stats) = self.run_atom_flat(pos, t);
        (rel.into_bindings(), stats)
    }

    /// [`MatchProgram::run_atom`] as the executor hands it to snapshot
    /// evaluation: one flat relation, its rows sorted as the bindings
    /// are, each with its birth (see the module doc, "Births").
    pub(crate) fn run_atom_flat(&self, pos: usize, t: &Tree) -> (Relation, MatchStats) {
        let root = self.atoms[pos].root;
        let mut stats = MatchStats::default();
        let anchor = Anchor::choose(self.ops.as_slice(), root, t, self.strategy, &mut stats);
        let mut ex = Exec::new(self, t, anchor.as_ref(), stats);
        let out = ex.run(root);
        #[cfg(debug_assertions)]
        if anchor.is_some() && t.arena_len() <= crate::matcher::ANCHOR_SELF_CHECK_NODES {
            let plain = Exec::new(self, t, None, MatchStats::default()).run(root);
            assert!(
                out == plain,
                "anchored program diverged from the unanchored one"
            );
        }
        (out, ex.stats)
    }
}

impl Shape for [MatchOp] {
    type Id = OpId;
    fn item(&self, n: OpId) -> &PItem {
        &self[n as usize].item
    }
    fn kids(&self, n: OpId) -> &[OpId] {
        &self[n as usize].children
    }
}

/// A query compiled end to end: the optimized plan IR (kept for
/// inspection) plus the emitted program.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    plan: QueryPlan,
    program: MatchProgram,
}

impl CompiledQuery {
    /// The optimized plan IR.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The emitted match program.
    pub fn program(&self) -> &MatchProgram {
        &self.program
    }

    /// Pretty-print the optimized IR and the emitted program — the
    /// payload of `axml-inspect plan`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan: {} atoms retained, {} eliminated",
            self.plan.atoms.len(),
            self.plan.eliminated.len()
        );
        for atom in &self.plan.atoms {
            let _ = writeln!(out, "  atom #{} doc {}", atom.index, atom.doc);
            fn node(out: &mut String, n: &PlanNode, depth: usize) {
                let ground = if n.ground { "  ground" } else { "" };
                let _ = writeln!(
                    out,
                    "    {:indent$}{}{ground}",
                    "",
                    n.item,
                    indent = depth * 2
                );
                for c in &n.children {
                    node(out, c, depth + 1);
                }
            }
            node(&mut out, &atom.root, 0);
        }
        for (i, reason) in &self.plan.eliminated {
            let why = match reason {
                ElimReason::Duplicate { of } => format!("duplicate of #{of}"),
                ElimReason::ImpliedGround { by } => {
                    format!("ground, implied by #{by}")
                }
            };
            let _ = writeln!(out, "  eliminated #{i}: {why}");
        }
        let _ = writeln!(
            out,
            "program: strategy {:?}, {} ops",
            self.program.strategy,
            self.program.ops.len()
        );
        for (i, op) in self.program.ops.iter().enumerate() {
            let kids = op
                .children
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let kind = if op.leaf { "leaf" } else { "join" };
            let ground = if op.ground { "  ground" } else { "" };
            let _ = writeln!(out, "  [{i}] {kind}  {}  {{{kids}}}{ground}", op.item);
        }
        for atom in &self.program.atoms {
            let _ = writeln!(
                out,
                "  atom #{} doc {} -> op {}",
                atom.index, atom.doc, atom.root
            );
        }
        out
    }

    /// Execute atom `pos` against `t` — see [`MatchProgram::run_atom`].
    pub fn run_atom(&self, pos: usize, t: &Tree) -> (Vec<Binding>, MatchStats) {
        self.program.run_atom(pos, t)
    }
}

// ---------------------------------------------------------------------
// Lowering and optimization passes
// ---------------------------------------------------------------------

/// Is ground pattern `a` implied by pattern `b` — i.e. does every
/// document (node) matched by `b` also match `a`? Witnessed by a
/// root-to-root homomorphism from `a` into `b` mapping each node to a
/// node with the *identical* item and each child edge to a child edge.
/// Sound only for ground `a` (for variable items the binding domains
/// would differ); callers enforce that.
pub fn ground_implied(a: &Pattern, b: &Pattern) -> bool {
    fn emb(a: &Pattern, an: PNodeId, b: &Pattern, bn: PNodeId) -> bool {
        a.item(an) == b.item(bn)
            && a.children(an)
                .iter()
                .all(|&ac| b.children(bn).iter().any(|&bc| emb(a, ac, b, bc)))
    }
    emb(a, a.root(), b, b.root())
}

/// The dead/duplicate conjunct elimination pass. Returns the retained
/// original body indices (in order) and the eliminated ones with
/// reasons. Every eliminated atom has an *earlier surviving* witness
/// over the same document, which preserves the interpreter's error
/// order (`UnknownDocument` fires at the witness first) and its
/// empty-result short-circuits (the witness's relation empties first).
pub fn eliminate_conjuncts(q: &Query) -> (Vec<usize>, Vec<(usize, ElimReason)>) {
    let n = q.body.len();
    let mut removed: Vec<Option<ElimReason>> = vec![None; n];
    for i in 0..n {
        let ai = &q.body[i];
        let earlier_survivors: Vec<usize> = (0..i).filter(|&j| removed[j].is_none()).collect();
        if let Some(&j) = earlier_survivors
            .iter()
            .find(|&&j| q.body[j].doc == ai.doc && q.body[j].pattern.structurally_eq(&ai.pattern))
        {
            removed[i] = Some(ElimReason::Duplicate { of: j });
            continue;
        }
        if ai.pattern.is_ground() {
            if let Some(&j) = earlier_survivors.iter().find(|&&j| {
                q.body[j].doc == ai.doc && ground_implied(&ai.pattern, &q.body[j].pattern)
            }) {
                removed[i] = Some(ElimReason::ImpliedGround { by: j });
            }
        }
    }
    let kept = (0..n).filter(|&i| removed[i].is_none()).collect();
    let eliminated = removed
        .into_iter()
        .enumerate()
        .filter_map(|(i, r)| r.map(|r| (i, r)))
        .collect();
    (kept, eliminated)
}

fn lower_node(p: &Pattern, pn: PNodeId) -> PlanNode {
    let children: Vec<PlanNode> = p.children(pn).iter().map(|&c| lower_node(p, c)).collect();
    let item = p.item(pn).clone();
    let ground = matches!(item, PItem::Const(_)) && children.iter().all(|c| c.ground);
    PlanNode {
        item,
        ground,
        children,
    }
}

/// Compile a query end to end: eliminate conjuncts, lower the retained
/// atoms and emit the program.
pub fn compile_query(q: &Query, strategy: MatchStrategy) -> CompiledQuery {
    let (kept, eliminated) = eliminate_conjuncts(q);
    let atoms = kept
        .into_iter()
        .map(|i| {
            let atom = &q.body[i];
            PlanAtom {
                index: i,
                doc: atom.doc,
                root: lower_node(&atom.pattern, atom.pattern.root()),
            }
        })
        .collect();
    let plan = QueryPlan { atoms, eliminated };
    let program = emit(&plan, strategy);
    CompiledQuery { plan, program }
}

/// Emit the flat program from an optimized plan: one op per plan node,
/// children before their parent.
fn emit(plan: &QueryPlan, strategy: MatchStrategy) -> MatchProgram {
    fn go(n: &PlanNode, ops: &mut Vec<MatchOp>, layouts: &mut Vec<Layout>) -> OpId {
        let children: Vec<OpId> = n.children.iter().map(|c| go(c, ops, layouts)).collect();
        let layout = Layout::of(&n.item, children.iter().map(|&c| &layouts[c as usize]));
        layouts.push(layout);
        ops.push(MatchOp {
            item: n.item.clone(),
            leaf: children.is_empty(),
            children,
            ground: n.ground,
        });
        (ops.len() - 1) as OpId
    }
    let (mut ops, mut layouts) = (Vec::new(), Vec::new());
    let atoms = plan
        .atoms
        .iter()
        .map(|a| AtomCode {
            index: a.index,
            doc: a.doc,
            root: go(&a.root, &mut ops, &mut layouts),
        })
        .collect();
    MatchProgram {
        strategy,
        ops,
        layouts,
        atoms,
    }
}

// ---------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------

/// One cell of an executor row: `None` while the column's variable is
/// not yet bound (its child not joined yet).
type Cell = Option<Bound>;

/// Rows of one relation in an executor buffer: `births.len()` rows of a
/// fixed number of cells each, and the birth of each row.
#[derive(Default)]
struct RowBuf {
    cells: Vec<Cell>,
    births: Vec<u32>,
}

impl RowBuf {
    /// The rows, `width` cells each, as [`hash_join`] reads them.
    fn view(&self, width: usize) -> Buf<'_> {
        Buf::new(&self.cells, width, self.births.len())
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.births.clear();
    }
}

/// `len` rows of `width` cells of an executor buffer, as [`hash_join`]
/// and deduplication read them: set columns only.
#[derive(Clone, Copy)]
struct Buf<'a> {
    cells: &'a [Cell],
    width: usize,
    len: usize,
}

impl<'a> Buf<'a> {
    fn new(cells: &'a [Cell], width: usize, len: usize) -> Buf<'a> {
        debug_assert_eq!(cells.len(), width * len);
        Buf { cells, width, len }
    }

    fn row(&self, r: usize) -> &'a [Cell] {
        &self.cells[r * self.width..(r + 1) * self.width]
    }
}

impl Rows for Buf<'_> {
    fn len(&self) -> usize {
        self.len
    }
    fn cell(&self, row: usize, col: usize) -> &Bound {
        self.cells[row * self.width + col]
            .as_ref()
            .expect("a join reads set columns only")
    }
}

/// The execution frame of one [`MatchProgram::run_atom`]: the program,
/// the document, the atom's anchor (if it has one), running index-usage
/// counters, and the buffers reused for the whole run.
struct Exec<'p, 't> {
    prog: &'p MatchProgram,
    t: &'t Tree,
    anchor: Option<&'t Anchor<OpId>>,
    stats: MatchStats,
    /// The candidate sets of the ops being evaluated, one frame per
    /// level of the descent: `(child position, set)`.
    cands: Vec<(usize, CandSet<'t>)>,
    /// Cleared row buffers, handed from level to level.
    pool: Vec<RowBuf>,
    /// The `(op column, child column)` pairs of the current join step.
    shared: Vec<(usize, usize)>,
    /// The hash index of joins and deduplication.
    index: RowIndex,
    /// Which rows deduplication keeps.
    keep: Vec<bool>,
}

impl<'p, 't> Exec<'p, 't> {
    fn new(
        prog: &'p MatchProgram,
        t: &'t Tree,
        anchor: Option<&'t Anchor<OpId>>,
        stats: MatchStats,
    ) -> Exec<'p, 't> {
        Exec {
            prog,
            t,
            anchor,
            stats,
            cands: Vec::new(),
            pool: Vec::new(),
            shared: Vec::new(),
            index: RowIndex::default(),
            keep: Vec::new(),
        }
    }

    /// The relation of `root` at the document root, its rows sorted, as
    /// [`MatchProgram::run_atom_flat`] returns it.
    fn run(&mut self, root: OpId) -> Relation {
        let mut buf = RowBuf::default();
        let rows = self.eval(root, self.t.root(), &mut buf);
        let vars = &self.prog.layouts[root as usize].vars;
        let w = vars.len();
        let cells = &mut buf.cells;
        let mut order: Vec<usize> = (0..rows).collect();
        order.sort_unstable_by(|&a, &b| cells[a * w..(a + 1) * w].cmp(&cells[b * w..(b + 1) * w]));
        let mut sorted = Vec::with_capacity(rows * w);
        let mut births = Vec::with_capacity(rows);
        for r in order {
            sorted.extend(
                cells[r * w..(r + 1) * w]
                    .iter_mut()
                    .map(|c| c.take().expect("a root row binds every column")),
            );
            births.push(buf.births[r]);
        }
        Relation::with_births(vars.clone(), sorted, births)
    }

    fn buf(&mut self) -> RowBuf {
        self.pool.pop().unwrap_or_default()
    }

    fn give(&mut self, mut buf: RowBuf) {
        buf.clear();
        self.pool.push(buf);
    }

    /// Push a frame with the candidate sets of `op`'s children below
    /// `tn` (see [`anchored_candidate_set`]). Returns the frame's start,
    /// and whether every set is non-empty: all sets are taken before the
    /// bail, so scanned candidates are accounted like the interpreter's.
    fn push_candidates(&mut self, op: OpId, tn: NodeId) -> (usize, bool) {
        let (prog, t) = (self.prog, self.t);
        let base = self.cands.len();
        for (k, &c) in prog.ops[op as usize].children.iter().enumerate() {
            let item = &prog.ops[c as usize].item;
            let set = anchored_candidate_set(self.anchor, (op, c), item, t, tn, &mut self.stats);
            self.cands.push((k, set));
        }
        let all = self.cands[base..].iter().all(|(_, s)| !s.is_empty());
        (base, all)
    }

    /// Append to `out` the relation of op `op` at document node `tn` —
    /// one row per embedding of the op's subtree at `tn`, in the op's
    /// layout, all distinct, each with its birth — and return its row
    /// count.
    fn eval(&mut self, op: OpId, tn: NodeId, out: &mut RowBuf) -> usize {
        let o = &self.prog.ops[op as usize];
        let Some((own, born)) = item_bound(&o.item, self.t, tn) else {
            return 0;
        };
        if o.leaf {
            out.cells.extend(own.map(Some));
            out.births.push(born);
            return 1;
        }
        let (base, all) = self.push_candidates(op, tn);
        let rows = if all {
            // Rarest candidate set first; stable, so pattern order breaks
            // ties, as in the interpreter.
            self.cands[base..].sort_by_key(|(_, s)| s.len());
            self.join_children(op, base, own, born, out)
        } else {
            0
        };
        self.cands.truncate(base);
        rows
    }

    /// Join the children of `op`, whose candidate sets are the frame at
    /// `base`, into the one row binding the op's own variable to `own`,
    /// born `born`; append the result to `out` and return its row count.
    fn join_children(
        &mut self,
        op: OpId,
        base: usize,
        own: Option<Bound>,
        born: u32,
        out: &mut RowBuf,
    ) -> usize {
        let (prog, t) = (self.prog, self.t);
        let o = &prog.ops[op as usize];
        let layout = &prog.layouts[op as usize];
        let width = layout.vars.len();
        let mut cur = self.buf();
        cur.cells.resize(width, None);
        if let Some(col) = layout.own {
            cur.cells[col] = own;
        }
        cur.births.push(born);
        for j in 0..o.children.len() {
            let (k, set) = self.cands[base + j];
            let c = o.children[k];
            let co = &prog.ops[c as usize];
            if co.ground {
                // A ground child's relation is {∅} or ∅: an existence
                // test with early exit, never a row. The witness found
                // is part of every row's embedding.
                match set.nodes(&co.item, t).find_map(|tc| self.exists(c, tc)) {
                    Some(witness) => {
                        for b in &mut cur.births {
                            *b = (*b).max(witness);
                        }
                        continue;
                    }
                    None => {
                        cur.clear();
                        break;
                    }
                }
            }
            let mut crel = self.buf();
            let crows = self.child_relation(c, set, &mut crel);
            let mut next = self.buf();
            if crows > 0 {
                self.join_step(&cur, width, &crel, &layout.kids[k], &mut next);
            }
            self.give(crel);
            self.give(std::mem::replace(&mut cur, next));
            if cur.births.is_empty() {
                break;
            }
        }
        let rows = cur.births.len();
        out.cells.append(&mut cur.cells);
        out.births.append(&mut cur.births);
        self.give(cur);
        rows
    }

    /// Join `left` (rows of `width` cells in the op's layout) with a
    /// child's relation `right` (rows in the child's layout, whose column
    /// `j` is op column `map[j]`), appending to `out`; an output row is
    /// born when the later of its two rows is. Whether a column is set is
    /// the same in every row, so the first left row tells which child
    /// columns are shared.
    fn join_step(
        &mut self,
        left: &RowBuf,
        width: usize,
        right: &RowBuf,
        map: &[usize],
        out: &mut RowBuf,
    ) {
        let (lv, rv) = (left.view(width), right.view(map.len()));
        self.shared.clear();
        self.shared.extend(
            map.iter()
                .enumerate()
                .filter(|&(_, &col)| lv.cells[col].is_some())
                .map(|(j, &col)| (col, j)),
        );
        hash_join(&mut self.index, &lv, &rv, &self.shared, |l, r| {
            let start = out.cells.len();
            out.cells.extend_from_slice(lv.row(l));
            for (&col, cell) in map.iter().zip(rv.row(r)) {
                let slot = &mut out.cells[start + col];
                if slot.is_none() {
                    slot.clone_from(cell);
                }
            }
            out.births.push(left.births[l].max(right.births[r]));
        });
    }

    /// Append to `out` the union of child op `c`'s relations over its
    /// candidate nodes `set`, computed once per join level (this is the
    /// decorrelation: the interpreter re-embeds per seed binding ×
    /// candidate), deduplicated; return its row count. `out` starts
    /// empty.
    fn child_relation(&mut self, c: OpId, set: CandSet<'t>, out: &mut RowBuf) -> usize {
        let (prog, t) = (self.prog, self.t);
        let co = &prog.ops[c as usize];
        for tc in set.nodes(&co.item, t) {
            if co.leaf {
                let (own, born) =
                    item_bound(&co.item, t, tc).expect("a candidate passes the marking test");
                out.cells.push(own);
                out.births.push(born);
            } else {
                self.eval(c, tc, out);
            }
        }
        self.dedup(out, prog.layouts[c as usize].vars.len())
    }

    /// Drop the repeated rows of `rel` (rows of `width` cells, every
    /// column set), keeping first occurrences in order, each born when
    /// the earliest of its copies is; return the number kept.
    fn dedup(&mut self, rel: &mut RowBuf, width: usize) -> usize {
        let rows = rel.births.len();
        if rows < 2 {
            return rows;
        }
        let view = Buf::new(&rel.cells, width, rows);
        self.index.reset(rows);
        self.keep.clear();
        for r in 0..rows {
            let h = hash_key(&view, r, 0..width);
            let first = self.index.chain(h).find(|&s| view.row(s) == view.row(r));
            match first {
                Some(s) => {
                    rel.births[s] = rel.births[s].min(rel.births[r]);
                    self.keep.push(false);
                }
                None => {
                    self.index.insert(r, h);
                    self.keep.push(true);
                }
            }
        }
        let cells = &mut rel.cells;
        let mut kept = 0;
        for r in 0..rows {
            if self.keep[r] {
                if kept != r {
                    for c in 0..width {
                        cells.swap(kept * width + c, r * width + c);
                    }
                    rel.births[kept] = rel.births[r];
                }
                kept += 1;
            }
        }
        cells.truncate(kept * width);
        rel.births.truncate(kept);
        kept
    }

    /// If the (ground) op's subtree embeds at `tn`, the birth of one such
    /// embedding. Children of a ground subtree share no variables, so
    /// each just needs *some* embedding among its candidates — the first
    /// found, with early exit.
    fn exists(&mut self, op: OpId, tn: NodeId) -> Option<u32> {
        let (prog, t) = (self.prog, self.t);
        let o = &prog.ops[op as usize];
        let (_, mut born) = item_bound(&o.item, t, tn)?;
        if o.leaf {
            return Some(born);
        }
        let (base, all) = self.push_candidates(op, tn);
        let found = all
            && (0..o.children.len()).all(|j| {
                let (k, set) = self.cands[base + j];
                let c = o.children[k];
                match set
                    .nodes(&prog.ops[c as usize].item, t)
                    .find_map(|tc| self.exists(c, tc))
                {
                    Some(b) => {
                        born = born.max(b);
                        true
                    }
                    None => false,
                }
            });
        self.cands.truncate(base);
        found.then_some(born)
    }
}

// ---------------------------------------------------------------------
// The program cache
// ---------------------------------------------------------------------

/// The per-engine cache of compiled match programs, keyed by service.
/// See the module docs, "Caching".
#[derive(Default)]
pub struct ProgramCache {
    programs: FxHashMap<Sym, Arc<CompiledQuery>>,
    hits: u64,
    misses: u64,
    compiles: u64,
    compile_ns: u64,
}

impl ProgramCache {
    /// Fresh, empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// Lookups answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to (re)compile.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Compilations performed (misses that ran the pipeline).
    pub fn compiles(&self) -> u64 {
        self.compiles
    }

    /// Total nanoseconds spent compiling.
    pub fn compile_ns(&self) -> u64 {
        self.compile_ns
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The compiled program for service `svc`'s query `q` under
    /// `strategy`, compiling on miss or when the held program was emitted
    /// for another strategy. Emits [`EventKind::ProgramCacheHit`] /
    /// [`EventKind::ProgramCacheMiss`] and, on compilation,
    /// [`EventKind::PlanCompiled`].
    pub fn lookup(
        &mut self,
        svc: Sym,
        q: &Query,
        strategy: MatchStrategy,
        tracer: Tracer<'_>,
    ) -> Arc<CompiledQuery> {
        if let Some(held) = self.programs.get(&svc) {
            if held.program.strategy == strategy {
                self.hits += 1;
                tracer.emit(|| EventKind::ProgramCacheHit { service: svc });
                return Arc::clone(held);
            }
        }
        self.misses += 1;
        tracer.emit(|| EventKind::ProgramCacheMiss { service: svc });
        let (compiled, dur_ns) = compile_traced(q, strategy, svc, tracer);
        let compiled = Arc::new(compiled);
        self.compiles += 1;
        self.compile_ns += dur_ns;
        self.programs.insert(svc, Arc::clone(&compiled));
        compiled
    }
}

/// [`compile_query`], timed, reporting [`EventKind::PlanCompiled`] for
/// service `svc` to `tracer`. Returns the program and its compile time
/// in nanoseconds.
pub fn compile_traced(
    q: &Query,
    strategy: MatchStrategy,
    svc: Sym,
    tracer: Tracer<'_>,
) -> (CompiledQuery, u64) {
    let t0 = Instant::now();
    let compiled = compile_query(q, strategy);
    let dur_ns = t0.elapsed().as_nanos() as u64;
    tracer.emit(|| EventKind::PlanCompiled {
        service: svc,
        atoms: compiled.program.atoms.len() as u32,
        ops: compiled.program.ops.len() as u32,
        dur_ns,
    });
    (compiled, dur_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_pattern_with;
    use crate::parse::parse_tree;
    use crate::query::parse_query;

    fn tree(s: &str) -> Tree {
        parse_tree(s).unwrap()
    }

    #[test]
    fn duplicate_conjuncts_are_eliminated_keeping_the_first() {
        let q = parse_query("h{$x} :- d/a{b{$x}}, d/a{b{$x}}, e/a{b{$x}}").unwrap();
        let (kept, elim) = eliminate_conjuncts(&q);
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(elim, vec![(1, ElimReason::Duplicate { of: 0 })]);
    }

    #[test]
    fn implied_ground_conjuncts_are_eliminated() {
        // a{b} is implied by the earlier a{b{c}}: same doc, and a
        // root-to-root homomorphism maps b onto b{c}.
        let q = parse_query(r#"h :- d/a{b{c}}, d/a{b}"#).unwrap();
        let (kept, elim) = eliminate_conjuncts(&q);
        assert_eq!(kept, vec![0]);
        assert_eq!(elim, vec![(1, ElimReason::ImpliedGround { by: 0 })]);
    }

    #[test]
    fn ground_elimination_requires_an_earlier_witness() {
        // Same pair in the other order: the ground atom comes first, so
        // no earlier witness exists and nothing is eliminated (the
        // witness invariant preserves the interpreter's error order).
        let q = parse_query(r#"h :- d/a{b}, d/a{b{c}}"#).unwrap();
        let (kept, elim) = eliminate_conjuncts(&q);
        assert_eq!(kept, vec![0, 1]);
        assert!(elim.is_empty());
    }

    #[test]
    fn mutual_implication_keeps_exactly_one_atom() {
        // a{b,b} and a{b} imply each other (homomorphisms may merge
        // children); only the later one may be dropped.
        let q = parse_query(r#"h :- d/a{b}, d/a{b,b}"#).unwrap();
        let (kept, elim) = eliminate_conjuncts(&q);
        assert_eq!(kept, vec![0]);
        assert_eq!(elim, vec![(1, ElimReason::ImpliedGround { by: 0 })]);
    }

    #[test]
    fn variable_atoms_are_never_eliminated_by_implication() {
        let q = parse_query("h{$x} :- d/a{b{$x}}, d/a{b{$x},c}").unwrap();
        let (kept, elim) = eliminate_conjuncts(&q);
        assert_eq!(kept, vec![0, 1]);
        assert!(elim.is_empty());
    }

    #[test]
    fn compiled_execution_matches_the_interpreter() {
        let q =
            parse_query("h{$x,$y} :- d/r{t{from{$x},to{$y}}, t{from{$y},to{$x}}, marker}").unwrap();
        let t =
            tree(r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"1"}}, t{from{"2"},to{"3"}}, marker}"#);
        for strategy in [MatchStrategy::Scan, MatchStrategy::Indexed] {
            let c = compile_query(&q, strategy);
            for (pos, atom) in c.program().atoms().iter().enumerate() {
                let (compiled, _) = c.run_atom(pos, &t);
                let (interp, _) = match_pattern_with(&q.body[atom.index].pattern, &t, strategy);
                assert_eq!(compiled, interp, "strategy {strategy:?} atom {pos}");
            }
        }
    }

    #[test]
    fn ground_subtrees_run_as_existence_tests_with_identical_results() {
        let q = parse_query("h{$x} :- d/r{a{b{c},d}, e{$x}}").unwrap();
        let yes = tree(r#"r{a{b{c},d,z}, e{"v"}, e{"w"}}"#);
        let no = tree(r#"r{a{b,d}, e{"v"}}"#);
        let c = compile_query(&q, MatchStrategy::Indexed);
        for t in [&yes, &no] {
            let (compiled, _) = c.run_atom(0, t);
            let (interp, _) = match_pattern_with(&q.body[0].pattern, t, MatchStrategy::Indexed);
            assert_eq!(compiled, interp);
        }
    }

    #[test]
    fn program_cache_compiles_once_and_replaces_on_strategy() {
        let q = parse_query("h{$x} :- d/r{a{$x}}").unwrap();
        let t = tree(r#"r{a{"1"},a{"2"}}"#);
        let svc = Sym::intern("svc");
        let mut pc = ProgramCache::new();
        let tracer = Tracer::disabled();
        let p1 = pc.lookup(svc, &q, MatchStrategy::Indexed, tracer);
        assert_eq!((pc.hits(), pc.misses()), (0, 1));
        let p2 = pc.lookup(svc, &q, MatchStrategy::Indexed, tracer);
        assert_eq!((pc.hits(), pc.misses()), (1, 1));
        assert!(Arc::ptr_eq(&p1, &p2));
        // A program reads no document: the index being built between
        // two lookups is still a hit on the same program.
        t.build_index();
        let p3 = pc.lookup(svc, &q, MatchStrategy::Indexed, tracer);
        assert_eq!((pc.hits(), pc.misses()), (2, 1));
        assert!(Arc::ptr_eq(&p1, &p3));
        assert!(pc.compiles() == 1 && pc.compile_ns() > 0);
        // A program emitted for another strategy is replaced, not reused.
        let p4 = pc.lookup(svc, &q, MatchStrategy::Scan, tracer);
        assert_eq!(
            (pc.misses(), p4.program().strategy()),
            (2, MatchStrategy::Scan)
        );
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn eliminated_atoms_keep_original_indices_in_the_program() {
        let q = parse_query("h{$x} :- d/a{b{$x}}, d/a{b{$x}}, e/c{$x}").unwrap();
        let c = compile_query(&q, MatchStrategy::Indexed);
        let indices: Vec<usize> = c.program().atoms().iter().map(|a| a.index).collect();
        assert_eq!(indices, vec![0, 2]);
        assert!(c.dump().contains("eliminated #1: duplicate of #0"));
    }
}
