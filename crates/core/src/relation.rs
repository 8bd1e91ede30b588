//! Flat relations: the sets of assignments snapshot evaluation joins
//! (§3.1), stored as fixed-width rows, and the one join over them.
//!
//! An embedding maps every node of a pattern, so every assignment of one
//! pattern (or pattern subtree) binds exactly that pattern's variables.
//! A relation is therefore a list of rows over one sorted variable list,
//! one cell per variable, with no per-row map. Two relations join on the
//! variables they share: [`hash_join`] hashes the right side on those
//! columns and probes it in left order, so it yields exactly the pairs,
//! in exactly the order, of the nested loop over both sides that keeps
//! the pairs agreeing on the shared columns.
//!
//! The join of two duplicate-free relations is duplicate-free: an output
//! row restricted to either side's columns gives back that side's row,
//! so distinct pairs give distinct rows. Only a union (of one pattern
//! child's relations over several document nodes) can repeat a row, and
//! it is deduplicated where it is built.
//!
//! The compiled executor ([`crate::compile`]) keeps its relations in
//! reused buffers of its own and calls [`hash_join`] directly. What it
//! hands on for one atom is one flat, sorted [`Relation`] that carries
//! each row's *birth* (the newest document node of an embedding deriving
//! it); the interpreter hands on its sorted bindings. Either is a
//! [`Matches`], the unit the match cache ([`crate::eval::MatchCache`])
//! holds, and snapshot evaluation joins the atoms with [`BodyJoin`],
//! which carries for each row whether it is *new* for the call being
//! evaluated ([`Fresh`]): a joined row is new iff one of its atom rows
//! is.

use crate::matcher::{Binding, Bound};
use crate::sym::{FxHasher, Sym};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Row access to a relation: `len` rows, each with a cell per column.
pub(crate) trait Rows {
    /// Number of rows.
    fn len(&self) -> usize;
    /// The cell of row `row` in column `col`.
    fn cell(&self, row: usize, col: usize) -> &Bound;
}

/// A relation whose columns are named by sorted, distinct variables.
pub(crate) trait Named: Rows {
    /// The column variables, sorted.
    fn vars(&self) -> &[Sym];
}

/// A relation held as one flat buffer: row `r` is
/// `cells[r * width .. (r + 1) * width]`, `width` the number of
/// variables. The row count is kept apart, so a relation without
/// variables still knows whether it is `{∅}` or `∅`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Relation {
    vars: Vec<Sym>,
    cells: Vec<Bound>,
    len: usize,
    /// One birth per row (see [`crate::compile`], "Births"), or none at
    /// all when they are not known.
    births: Vec<u32>,
}

impl Relation {
    /// `{∅}`: the relation of a body without atoms.
    pub(crate) fn unit() -> Relation {
        Relation {
            len: 1,
            ..Relation::default()
        }
    }

    /// The relation over `vars` whose rows are `cells`, one per birth.
    pub(crate) fn with_births(vars: Vec<Sym>, cells: Vec<Bound>, births: Vec<u32>) -> Relation {
        debug_assert_eq!(cells.len(), vars.len() * births.len());
        Relation {
            vars,
            cells,
            len: births.len(),
            births,
        }
    }

    /// The rows as bindings, in row order.
    pub(crate) fn into_bindings(self) -> Vec<Binding> {
        let Relation {
            vars, cells, len, ..
        } = self;
        let mut cells = cells.into_iter();
        (0..len)
            .map(|_| {
                Binding::from_sorted(
                    vars.iter()
                        .map(|&v| (v, cells.next().expect("a full row")))
                        .collect(),
                )
            })
            .collect()
    }
}

impl Rows for Relation {
    fn len(&self) -> usize {
        self.len
    }
    fn cell(&self, row: usize, col: usize) -> &Bound {
        &self.cells[row * self.vars.len() + col]
    }
}

impl Named for Relation {
    fn vars(&self) -> &[Sym] {
        &self.vars
    }
}

/// A matcher's output read as a relation, in place: every binding of
/// one atom binds the same variables (see the module doc), so column `c`
/// is every binding's `c`-th entry.
pub(crate) struct BindingRows<'a> {
    vars: Vec<Sym>,
    bindings: &'a [Binding],
}

impl<'a> BindingRows<'a> {
    /// View `bindings`, which must all bind the same variables.
    pub(crate) fn new(bindings: &'a [Binding]) -> BindingRows<'a> {
        let vars: Vec<Sym> = bindings
            .first()
            .map_or_else(Vec::new, |b| b.vars().collect());
        debug_assert!(
            bindings.iter().all(|b| b.vars().eq(vars.iter().copied())),
            "the bindings of one atom bind different variables"
        );
        BindingRows { vars, bindings }
    }
}

impl Rows for BindingRows<'_> {
    fn len(&self) -> usize {
        self.bindings.len()
    }
    fn cell(&self, row: usize, col: usize) -> &Bound {
        &self.bindings[row].entries()[col].1
    }
}

impl Named for BindingRows<'_> {
    fn vars(&self) -> &[Sym] {
        &self.vars
    }
}

/// The hash of row `row`'s cells in columns `cols`.
pub(crate) fn hash_key<R: Rows + ?Sized>(
    rows: &R,
    row: usize,
    cols: impl Iterator<Item = usize>,
) -> u64 {
    let mut h = FxHasher::default();
    for c in cols {
        rows.cell(row, c).hash(&mut h);
    }
    h.finish()
}

const NO_ROW: u32 = u32::MAX;

/// A chained hash index over row numbers, reused from one join (or
/// deduplication) to the next: once its buffers have grown, resetting,
/// building and probing it allocate nothing. It stores row numbers
/// only; callers confirm every candidate against the cells.
#[derive(Debug, Default)]
pub(crate) struct RowIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl RowIndex {
    /// Empty the index, sized for rows `0..n`.
    pub(crate) fn reset(&mut self, n: usize) {
        let buckets = (2 * n).max(1).next_power_of_two();
        self.heads.clear();
        self.heads.resize(buckets, NO_ROW);
        self.next.clear();
        self.next.resize(n, NO_ROW);
    }

    fn bucket(&self, h: u64) -> usize {
        (h ^ (h >> 32)) as usize & (self.heads.len() - 1)
    }

    /// Add row `row` under hash `h`, in front of its chain: rows added
    /// in descending order are chained in ascending order.
    pub(crate) fn insert(&mut self, row: usize, h: u64) {
        let b = self.bucket(h);
        self.next[row] = self.heads[b];
        self.heads[b] = row as u32;
    }

    /// The rows chained under hash `h`: every row added with hash `h`,
    /// and perhaps others.
    pub(crate) fn chain(&self, h: u64) -> impl Iterator<Item = usize> + '_ {
        let mut r = self.heads[self.bucket(h)];
        std::iter::from_fn(move || {
            (r != NO_ROW).then(|| {
                let row = r as usize;
                r = self.next[row];
                row
            })
        })
    }
}

/// The one join. Calls `emit(l, r)` for every row `l` of `left` and row
/// `r` of `right` that agree on each `(left column, right column)` pair
/// of `shared`: left rows in order and, for one left row, right rows in
/// order — the pairs, and the order, of the nested loop. With shared
/// columns the right side is hashed on them once and each left row
/// probes it; without, the join is a cross product and stays a loop.
pub(crate) fn hash_join<L: Rows + ?Sized, R: Rows + ?Sized>(
    index: &mut RowIndex,
    left: &L,
    right: &R,
    shared: &[(usize, usize)],
    mut emit: impl FnMut(usize, usize),
) {
    if shared.is_empty() {
        for l in 0..left.len() {
            for r in 0..right.len() {
                emit(l, r);
            }
        }
        return;
    }
    index.reset(right.len());
    for r in (0..right.len()).rev() {
        index.insert(r, hash_key(right, r, shared.iter().map(|s| s.1)));
    }
    for l in 0..left.len() {
        let h = hash_key(left, l, shared.iter().map(|s| s.0));
        for r in index.chain(h) {
            if shared
                .iter()
                .all(|&(a, b)| left.cell(l, a) == right.cell(r, b))
            {
                emit(l, r);
            }
        }
    }
}

/// Which rows of a relation are new for the call being evaluated.
#[derive(Clone, Copy)]
pub(crate) enum Fresh<'a> {
    /// Every row.
    All,
    /// The rows born at or after the mark: `(births, mark)`.
    Born(&'a [u32], u32),
    /// The rows whose flag is set.
    Flags(&'a [bool]),
}

impl Fresh<'_> {
    /// Is every row new?
    pub(crate) fn all(self) -> bool {
        matches!(self, Fresh::All)
    }

    /// Is row `row` new?
    pub(crate) fn row(self, row: usize) -> bool {
        match self {
            Fresh::All => true,
            Fresh::Born(births, mark) => births[row] >= mark,
            Fresh::Flags(flags) => flags[row],
        }
    }
}

/// Where a column of a join's output comes from.
#[derive(Clone, Copy)]
enum Source {
    Left(usize),
    Right(usize),
}

/// The join of two named relations on the variables they share, as a
/// new [`Relation`] over the union of their variables, rows in
/// [`hash_join`]'s order; and, unless every row of both sides is new,
/// which output rows are new: those with a new row on either side.
pub(crate) fn join<L: Named + ?Sized, R: Named + ?Sized>(
    left: &L,
    left_fresh: Fresh<'_>,
    right: &R,
    right_fresh: Fresh<'_>,
    index: &mut RowIndex,
) -> (Relation, Option<Vec<bool>>) {
    let (lv, rv) = (left.vars(), right.vars());
    let mut vars = Vec::with_capacity(lv.len() + rv.len());
    let mut sources = Vec::with_capacity(lv.len() + rv.len());
    let mut shared = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < lv.len() || j < rv.len() {
        let take_left = j == rv.len() || (i < lv.len() && lv[i] <= rv[j]);
        if take_left {
            if j < rv.len() && lv[i] == rv[j] {
                shared.push((i, j));
                j += 1;
            }
            vars.push(lv[i]);
            sources.push(Source::Left(i));
            i += 1;
        } else {
            vars.push(rv[j]);
            sources.push(Source::Right(j));
            j += 1;
        }
    }
    let mut cells = Vec::new();
    let mut len = 0;
    let mut flags = (!left_fresh.all() || !right_fresh.all()).then(Vec::new);
    hash_join(index, left, right, &shared, |l, r| {
        cells.extend(sources.iter().map(|&s| match s {
            Source::Left(c) => left.cell(l, c).clone(),
            Source::Right(c) => right.cell(r, c).clone(),
        }));
        if let Some(flags) = &mut flags {
            flags.push(left_fresh.row(l) || right_fresh.row(r));
        }
        len += 1;
    });
    let rel = Relation {
        vars,
        cells,
        len,
        births: Vec::new(),
    };
    (rel, flags)
}

/// One atom's matches, as the match cache holds them: the interpreter's
/// sorted bindings, or the compiled executor's flat, sorted relation
/// with the birth of each row.
pub(crate) enum Matches {
    /// The interpreter's output; births unknown.
    Bindings(Vec<Binding>),
    /// The compiled executor's output.
    Flat(Relation),
}

impl Matches {
    /// Number of matches.
    pub(crate) fn len(&self) -> usize {
        match self {
            Matches::Bindings(b) => b.len(),
            Matches::Flat(r) => r.len,
        }
    }

    /// No match?
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which rows are new for a call that last read the atom's document
    /// when its arena was `mark` slots long (`None`: never, or not in
    /// this form). Rows without births are all new.
    fn fresh(&self, mark: Option<u32>) -> Fresh<'_> {
        match (self, mark) {
            (Matches::Flat(r), Some(mark)) if !r.births.is_empty() => Fresh::Born(&r.births, mark),
            _ => Fresh::All,
        }
    }

    /// Run `f` over the matches read as a relation.
    fn with_rows<T>(&self, f: impl FnOnce(&dyn Named) -> T) -> T {
        match self {
            Matches::Bindings(b) => f(&BindingRows::new(b)),
            Matches::Flat(r) => f(r),
        }
    }
}

/// The join of a query body's atoms, accumulated left to right. The
/// first atom's matches stay as the matcher or the match cache handed
/// them over, never copied; each later atom joins into a [`Relation`].
/// Each stage knows which of its rows are new (see [`Fresh`]).
pub(crate) enum BodyJoin {
    /// No atom yet: `{∅}`.
    Unit,
    /// One atom: its matches, and the call's mark on its document.
    First(Arc<Matches>, Option<u32>),
    /// Two or more atoms: their join, and which rows are new (`None`:
    /// all of them).
    Joined(Relation, Option<Vec<bool>>),
}

impl BodyJoin {
    /// Join in the next atom's matches, whose rows born before `mark` are
    /// old (see [`Matches`]).
    pub(crate) fn join(
        self,
        next: Arc<Matches>,
        mark: Option<u32>,
        index: &mut RowIndex,
    ) -> BodyJoin {
        let next_fresh = next.fresh(mark);
        let (rel, flags) = match &self {
            BodyJoin::Unit => return BodyJoin::First(next, mark),
            BodyJoin::First(first, first_mark) => first.with_rows(|l| {
                next.with_rows(|r| join(l, first.fresh(*first_mark), r, next_fresh, index))
            }),
            BodyJoin::Joined(rel, flags) => {
                let fresh = flags.as_deref().map_or(Fresh::All, Fresh::Flags);
                next.with_rows(|r| join(rel, fresh, r, next_fresh, index))
            }
        };
        BodyJoin::Joined(rel, flags)
    }

    /// Is the join empty?
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            BodyJoin::Unit => false,
            BodyJoin::First(m, _) => m.is_empty(),
            BodyJoin::Joined(r, _) => r.len == 0,
        }
    }

    /// Run `f` over the joined relation and which of its rows are new.
    pub(crate) fn with_rows<T>(&self, f: impl FnOnce(&dyn Named, Fresh<'_>) -> T) -> T {
        match self {
            BodyJoin::Unit => f(&Relation::unit(), Fresh::All),
            BodyJoin::First(m, mark) => m.with_rows(|rows| f(rows, m.fresh(*mark))),
            BodyJoin::Joined(r, flags) => f(r, flags.as_deref().map_or(Fresh::All, Fresh::Flags)),
        }
    }
}

/// Overwrite `out` with row `row` of `rows`, restricted to columns
/// `cols` (ascending), reusing `out`'s storage.
pub(crate) fn row_binding(rows: &dyn Named, row: usize, cols: &[usize], out: &mut Binding) {
    let vars = rows.vars();
    out.assign(cols.iter().map(|&c| (vars[c], rows.cell(row, c).clone())));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binding(pairs: &[(&str, &str)]) -> Binding {
        let mut b = Binding::new();
        for (v, x) in pairs {
            b.bind(Sym::intern(v), Bound::Value(Sym::intern(x)));
        }
        b
    }

    /// The reference: the nested loop over `Binding::merge`.
    fn nested(left: &[Binding], right: &[Binding]) -> Vec<Binding> {
        left.iter()
            .flat_map(|l| right.iter().filter_map(move |r| l.merge(r)))
            .collect()
    }

    fn rows_of(rel: &dyn Named) -> Vec<Binding> {
        let cols: Vec<usize> = (0..rel.vars().len()).collect();
        (0..rel.len())
            .map(|r| {
                let mut b = Binding::new();
                row_binding(rel, r, &cols, &mut b);
                b
            })
            .collect()
    }

    #[test]
    fn join_matches_the_nested_loop_in_order() {
        let left = vec![
            binding(&[("jx", "1"), ("jz", "2")]),
            binding(&[("jx", "2"), ("jz", "1")]),
            binding(&[("jx", "1"), ("jz", "3")]),
        ];
        let right = vec![
            binding(&[("jz", "2"), ("jy", "5")]),
            binding(&[("jz", "3"), ("jy", "6")]),
            binding(&[("jz", "2"), ("jy", "7")]),
            binding(&[("jz", "1"), ("jy", "5")]),
        ];
        let mut index = RowIndex::default();
        let (rel, flags) = join(
            &BindingRows::new(&left),
            Fresh::All,
            &BindingRows::new(&right),
            Fresh::All,
            &mut index,
        );
        assert!(flags.is_none());
        assert_eq!(rows_of(&rel), nested(&left, &right));
        assert_eq!(rel.len(), 4);
    }

    #[test]
    fn join_keys_on_every_shared_column() {
        let left = vec![
            binding(&[("kx", "1"), ("ky", "1")]),
            binding(&[("kx", "1"), ("ky", "2")]),
        ];
        let right = vec![
            binding(&[("kx", "1"), ("ky", "2"), ("kz", "9")]),
            binding(&[("kx", "2"), ("ky", "1"), ("kz", "8")]),
        ];
        let mut index = RowIndex::default();
        let (rel, flags) = join(
            &BindingRows::new(&left),
            Fresh::All,
            &BindingRows::new(&right),
            Fresh::All,
            &mut index,
        );
        assert!(flags.is_none());
        assert_eq!(rows_of(&rel), nested(&left, &right));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn disjoint_variables_give_the_cross_product() {
        let left = vec![binding(&[("ca", "1")]), binding(&[("ca", "2")])];
        let right = vec![binding(&[("cb", "3")]), binding(&[("cb", "4")])];
        let mut index = RowIndex::default();
        let (rel, flags) = join(
            &BindingRows::new(&left),
            Fresh::All,
            &BindingRows::new(&right),
            Fresh::All,
            &mut index,
        );
        assert!(flags.is_none());
        assert_eq!(rows_of(&rel), nested(&left, &right));
        assert_eq!(rel.len(), 4);
        // With the unit relation on either side the join is the other.
        let unit = vec![Binding::new()];
        let (rel, flags) = join(
            &BindingRows::new(&unit),
            Fresh::All,
            &BindingRows::new(&right),
            Fresh::All,
            &mut index,
        );
        assert!(flags.is_none());
        assert_eq!(rows_of(&rel), right);
    }

    #[test]
    fn a_joined_row_is_new_iff_one_of_its_sides_is() {
        let left = vec![binding(&[("fx", "1")]), binding(&[("fx", "2")])];
        let right = vec![binding(&[("fy", "3")]), binding(&[("fy", "4")])];
        let mut index = RowIndex::default();
        let (rel, flags) = join(
            &BindingRows::new(&left),
            Fresh::Flags(&[false, true]),
            &BindingRows::new(&right),
            Fresh::Born(&[3, 7], 5),
            &mut index,
        );
        assert_eq!(rows_of(&rel), nested(&left, &right));
        // (1,3) old·old, (1,4) old·new, (2,3) new·old, (2,4) new·new.
        assert_eq!(flags, Some(vec![false, true, true, true]));
    }
}
