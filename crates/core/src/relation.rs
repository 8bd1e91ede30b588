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
//! reused buffers of its own and calls [`hash_join`] directly; snapshot
//! evaluation joins whole atoms with [`BodyJoin`].

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
#[derive(Clone, Debug, Default)]
pub(crate) struct Relation {
    vars: Vec<Sym>,
    cells: Vec<Bound>,
    len: usize,
}

impl Relation {
    /// `{∅}`: the relation of a body without atoms.
    pub(crate) fn unit() -> Relation {
        Relation {
            len: 1,
            ..Relation::default()
        }
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

/// Where a column of a join's output comes from.
#[derive(Clone, Copy)]
enum Source {
    Left(usize),
    Right(usize),
}

/// The join of two named relations on the variables they share, as a
/// new [`Relation`] over the union of their variables, rows in
/// [`hash_join`]'s order.
pub(crate) fn join<L: Named + ?Sized, R: Named + ?Sized>(
    left: &L,
    right: &R,
    index: &mut RowIndex,
) -> Relation {
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
    hash_join(index, left, right, &shared, |l, r| {
        cells.extend(sources.iter().map(|&s| match s {
            Source::Left(c) => left.cell(l, c).clone(),
            Source::Right(c) => right.cell(r, c).clone(),
        }));
        len += 1;
    });
    Relation { vars, cells, len }
}

/// The join of a query body's atoms, accumulated left to right. The
/// first atom's bindings stay as the matcher or the match cache handed
/// them over, never copied; each later atom joins into a [`Relation`].
pub(crate) enum BodyJoin {
    /// No atom yet: `{∅}`.
    Unit,
    /// One atom: its bindings.
    First(Arc<Vec<Binding>>),
    /// Two or more atoms: their join.
    Joined(Relation),
}

impl BodyJoin {
    /// Join in the next atom's bindings.
    pub(crate) fn join(self, next: Arc<Vec<Binding>>, index: &mut RowIndex) -> BodyJoin {
        let joined = match self {
            BodyJoin::Unit => return BodyJoin::First(next),
            BodyJoin::First(first) => {
                join(&BindingRows::new(&first), &BindingRows::new(&next), index)
            }
            BodyJoin::Joined(rel) => join(&rel, &BindingRows::new(&next), index),
        };
        BodyJoin::Joined(joined)
    }

    /// Is the join empty?
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            BodyJoin::Unit => false,
            BodyJoin::First(b) => b.is_empty(),
            BodyJoin::Joined(r) => r.len == 0,
        }
    }

    /// Run `f` over the joined relation.
    pub(crate) fn with_rows<T>(&self, f: impl FnOnce(&dyn Named) -> T) -> T {
        match self {
            BodyJoin::Unit => f(&Relation::unit()),
            BodyJoin::First(b) => f(&BindingRows::new(b)),
            BodyJoin::Joined(r) => f(r),
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
        let rel = join(
            &BindingRows::new(&left),
            &BindingRows::new(&right),
            &mut index,
        );
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
        let rel = join(
            &BindingRows::new(&left),
            &BindingRows::new(&right),
            &mut index,
        );
        assert_eq!(rows_of(&rel), nested(&left, &right));
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn disjoint_variables_give_the_cross_product() {
        let left = vec![binding(&[("ca", "1")]), binding(&[("ca", "2")])];
        let right = vec![binding(&[("cb", "3")]), binding(&[("cb", "4")])];
        let mut index = RowIndex::default();
        let rel = join(
            &BindingRows::new(&left),
            &BindingRows::new(&right),
            &mut index,
        );
        assert_eq!(rows_of(&rel), nested(&left, &right));
        assert_eq!(rel.len(), 4);
        // With the unit relation on either side the join is the other.
        let unit = vec![Binding::new()];
        let rel = join(
            &BindingRows::new(&unit),
            &BindingRows::new(&right),
            &mut index,
        );
        assert_eq!(rows_of(&rel), right);
    }
}
