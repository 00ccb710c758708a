//! Late-tagged base relations, and the row view the breaker kernels read.
//!
//! §III tags at the LQP boundary: "when the execution location is an LQP
//! … it is also used as the originating source tag for each of the cells
//! of the polygen base relation". Every cell of a freshly retrieved
//! relation therefore carries the *same* origin `{source}` and the same
//! empty intermediate set — per relation that is one [`SourceId`] of
//! information. A [`BaseRelation`] stores exactly that: the flat rows
//! (shared with the LQP by `Arc`, see [`FlatRelation`]) and the id. It is
//! *defined* as [`PolygenRelation::from_flat`]`(rows, source)` and
//! [`BaseRelation::materialize`] produces it, but nothing is tagged until
//! a caller asks.
//!
//! The kernels that consume scan leaves — the hash Merge and
//! `hash_equi_join_project`, at any partition count — read their
//! operands through [`Operand`] / [`RowView`], implemented by tagged
//! relations, base relations and a merge's late-built answer
//! ([`MergedView`](crate::algebra::merge::MergedView)) alike, and
//! monomorphized per operand type: the `PolygenRelation` instantiation
//! is the loop it always was, and over a base relation or a merged view
//! the first (and only) time a cell comes into existence is
//! [`RowView::cell`], called when a kernel writes that cell into its
//! output.

use crate::cell::Cell;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::source::{SourceId, SourceSet};
use polygen_flat::relation::Relation as FlatRelation;
use polygen_flat::schema::Schema;
use polygen_flat::value::Value;
use std::borrow::Cow;
use std::sync::Arc;

/// One operand row as a breaker kernel reads it: data and origins in
/// place, whole cells only on demand. `'a` is the operand's lifetime, so
/// kernels may key hash tables on the borrowed data.
pub trait RowView<'a>: Copy {
    /// Number of cells.
    fn width(self) -> usize;
    /// Cell `i`'s datum.
    fn datum(self, i: usize) -> &'a Value;
    /// Union cell `i`'s origin set into `into`.
    fn origin_into(self, i: usize, into: &mut SourceSet);
    /// Union cell `i`'s origin and intermediate sets into `origin` and
    /// `intermediate`.
    fn tags_into(self, i: usize, origin: &mut SourceSet, intermediate: &mut SourceSet);
    /// Cell `i`, built (or cloned) for an output tuple.
    fn cell(self, i: usize) -> Cell;
    /// Union cell `i`'s tags into `into`, a cell holding the same datum.
    #[inline]
    fn absorb_into(self, i: usize, into: &mut Cell) {
        self.tags_into(i, &mut into.origin, &mut into.intermediate);
    }
}

/// A relation a breaker kernel can read row by row.
pub trait Operand: Sized + Sync {
    /// The row view, borrowed from the operand.
    type Row<'a>: RowView<'a> + Send
    where
        Self: 'a;

    /// Do all rows carry identical tags, cell for cell? A late-tagged
    /// base relation's do (origin `{source}`, no intermediates), so a
    /// kernel may skip unioning a row's tags where an earlier row's are
    /// already in.
    const UNIFORM_TAGS: bool = false;

    /// The operand's schema.
    fn schema(&self) -> &Arc<Schema>;
    /// Number of rows.
    fn len(&self) -> usize;
    /// Is the operand empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The rows, in scan order.
    fn rows(&self) -> impl ExactSizeIterator<Item = Self::Row<'_>>;
    /// Row `i` of the scan.
    fn row(&self, i: usize) -> Self::Row<'_>;
    /// The operand as a tagged relation.
    fn materialize(&self) -> PolygenRelation;
    /// The operands as tagged relations — what the kernels' reference
    /// fallbacks run on. Already-tagged operands are lent, not copied.
    fn tagged(operands: &[Self]) -> Cow<'_, [PolygenRelation]> {
        Cow::Owned(operands.iter().map(Self::materialize).collect())
    }
}

impl<'a> RowView<'a> for &'a [Cell] {
    #[inline]
    fn width(self) -> usize {
        self.len()
    }
    #[inline]
    fn datum(self, i: usize) -> &'a Value {
        &self[i].datum
    }
    #[inline]
    fn origin_into(self, i: usize, into: &mut SourceSet) {
        into.union_with(&self[i].origin);
    }
    #[inline]
    fn tags_into(self, i: usize, origin: &mut SourceSet, intermediate: &mut SourceSet) {
        origin.union_with(&self[i].origin);
        intermediate.union_with(&self[i].intermediate);
    }
    #[inline]
    fn cell(self, i: usize) -> Cell {
        self[i].clone()
    }
}

/// Two rows read as one, `a ++ b`: positions from `a`'s width on
/// address `b`. How a join reads a matched pair before it builds any
/// cell of it.
impl<'a, A: RowView<'a>, B: RowView<'a>> RowView<'a> for (A, B) {
    #[inline]
    fn width(self) -> usize {
        self.0.width() + self.1.width()
    }
    #[inline]
    fn datum(self, i: usize) -> &'a Value {
        let w = self.0.width();
        if i < w {
            self.0.datum(i)
        } else {
            self.1.datum(i - w)
        }
    }
    #[inline]
    fn origin_into(self, i: usize, into: &mut SourceSet) {
        let w = self.0.width();
        if i < w {
            self.0.origin_into(i, into)
        } else {
            self.1.origin_into(i - w, into)
        }
    }
    #[inline]
    fn tags_into(self, i: usize, origin: &mut SourceSet, intermediate: &mut SourceSet) {
        let w = self.0.width();
        if i < w {
            self.0.tags_into(i, origin, intermediate)
        } else {
            self.1.tags_into(i - w, origin, intermediate)
        }
    }
    #[inline]
    fn cell(self, i: usize) -> Cell {
        let w = self.0.width();
        if i < w {
            self.0.cell(i)
        } else {
            self.1.cell(i - w)
        }
    }
}

impl Operand for PolygenRelation {
    type Row<'a> = &'a [Cell];

    fn schema(&self) -> &Arc<Schema> {
        PolygenRelation::schema(self)
    }
    fn len(&self) -> usize {
        PolygenRelation::len(self)
    }
    fn rows(&self) -> impl ExactSizeIterator<Item = &[Cell]> {
        self.tuples().iter().map(Vec::as_slice)
    }
    fn row(&self, i: usize) -> &[Cell] {
        &self.tuples()[i]
    }
    fn materialize(&self) -> PolygenRelation {
        self.clone()
    }
    fn tagged(operands: &[Self]) -> Cow<'_, [PolygenRelation]> {
        Cow::Borrowed(operands)
    }
}

/// A polygen base relation whose tags are not materialized: a flat
/// relation plus the one source every cell originates from. The rows
/// may be a selection of the flat relation's — the ordinals a pushed-down
/// predicate or an index probe kept — so a scan that filters shares the
/// LQP's rows instead of copying its survivors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseRelation {
    rel: FlatRelation,
    /// The ordinals of `rel`'s rows this relation holds, in order;
    /// `None` holds every row.
    selection: Option<Arc<[u32]>>,
    source: SourceId,
    /// `{source}`, built once so row views can lend it.
    origin: SourceSet,
}

impl BaseRelation {
    /// The base relation of `rel` as retrieved from `source`.
    pub fn new(rel: FlatRelation, source: SourceId) -> Self {
        BaseRelation {
            rel,
            selection: None,
            source,
            origin: SourceSet::singleton(source),
        }
    }

    /// The flat relation the rows are read from, shared with the LQP —
    /// every row of it, also those a selection leaves out (see
    /// [`BaseRelation::gather`]).
    pub fn flat(&self) -> &FlatRelation {
        &self.rel
    }

    /// The source every cell originates from.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Every cell's origin set, `{source}`.
    pub fn origin(&self) -> &SourceSet {
        &self.origin
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.rel.schema()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.selection.as_ref().map_or(self.rel.len(), |s| s.len())
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`'s values.
    #[inline]
    pub(crate) fn values(&self, i: usize) -> &[Value] {
        match &self.selection {
            Some(s) => &self.rel.rows()[s[i] as usize],
            None => &self.rel.rows()[i],
        }
    }

    /// Tag every cell: exactly [`PolygenRelation::from_flat`] of the
    /// rows.
    pub fn materialize(&self) -> PolygenRelation {
        let tuples = (0..self.len())
            .map(|i| {
                self.values(i)
                    .iter()
                    .map(|v| Cell::retrieved(v.clone(), self.source))
                    .collect()
            })
            .collect();
        PolygenRelation::from_tuples(Arc::clone(self.schema()), tuples)
            .expect("flat rows match their schema")
    }

    /// Relabel attributes positionally — a schema swap, rows stay shared.
    pub fn rename_attrs(&self, mapping: &[&str]) -> Result<BaseRelation, PolygenError> {
        let schema = Arc::new(self.rel.schema().relabeled_attrs(mapping)?);
        Ok(BaseRelation {
            rel: self.rel.with_schema(schema)?,
            selection: self.selection.clone(),
            source: self.source,
            origin: self.origin.clone(),
        })
    }

    /// The rows at `ordinals` (distinct, in range), in that order — how
    /// a pushed-down predicate and an index probe emit. Nothing is
    /// copied: the flat rows stay shared and the selection composes.
    pub fn gather(&self, ordinals: &[u32]) -> BaseRelation {
        let selection = match &self.selection {
            Some(s) => ordinals.iter().map(|&o| s[o as usize]).collect(),
            None => Arc::from(ordinals),
        };
        BaseRelation {
            rel: self.rel.clone(),
            selection: Some(selection),
            source: self.source,
            origin: self.origin.clone(),
        }
    }
}

/// One row of a [`BaseRelation`]: the flat values plus the relation-wide
/// origin set.
#[derive(Debug, Clone, Copy)]
pub struct BaseRow<'a> {
    values: &'a [Value],
    origin: &'a SourceSet,
}

impl<'a> RowView<'a> for BaseRow<'a> {
    #[inline]
    fn width(self) -> usize {
        self.values.len()
    }
    #[inline]
    fn datum(self, i: usize) -> &'a Value {
        &self.values[i]
    }
    #[inline]
    fn origin_into(self, _i: usize, into: &mut SourceSet) {
        into.union_with(self.origin);
    }
    #[inline]
    fn tags_into(self, _i: usize, origin: &mut SourceSet, _intermediate: &mut SourceSet) {
        // A base cell's intermediate set is empty: only the origin moves.
        origin.union_with(self.origin);
    }
    #[inline]
    fn cell(self, i: usize) -> Cell {
        Cell::new(
            self.values[i].clone(),
            self.origin.clone(),
            SourceSet::empty(),
        )
    }
}

impl Operand for BaseRelation {
    type Row<'a> = BaseRow<'a>;

    const UNIFORM_TAGS: bool = true;

    fn schema(&self) -> &Arc<Schema> {
        BaseRelation::schema(self)
    }
    fn len(&self) -> usize {
        BaseRelation::len(self)
    }
    fn rows(&self) -> impl ExactSizeIterator<Item = BaseRow<'_>> {
        (0..self.len()).map(|i| self.row(i))
    }
    #[inline]
    fn row(&self, i: usize) -> BaseRow<'_> {
        BaseRow {
            values: self.values(i),
            origin: &self.origin,
        }
    }
    fn materialize(&self) -> PolygenRelation {
        BaseRelation::materialize(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat() -> FlatRelation {
        FlatRelation::build("BUSINESS", &["BNAME", "IND"])
            .key(&["BNAME"])
            .row(&["IBM", "High Tech"])
            .row(&["MIT", "Education"])
            .row(&["DEC", "High Tech"])
            .finish()
            .unwrap()
    }

    #[test]
    fn materialize_is_from_flat() {
        let f = flat();
        let base = BaseRelation::new(f.clone(), SourceId(3));
        assert_eq!(
            base.materialize(),
            PolygenRelation::from_flat(&f, SourceId(3))
        );
        assert!(Arc::ptr_eq(base.flat().shared_rows(), f.shared_rows()));
    }

    #[test]
    fn row_views_agree_with_the_materialized_tuples() {
        let base = BaseRelation::new(flat(), SourceId(1));
        let tagged = base.materialize();
        assert_eq!(Operand::len(&base), Operand::len(&tagged));
        for (b, t) in Operand::rows(&base).zip(Operand::rows(&tagged)) {
            assert_eq!(b.width(), t.width());
            for i in 0..b.width() {
                assert_eq!(b.datum(i), t.datum(i));
                let (mut via_base, mut via_tagged) = (SourceSet::empty(), SourceSet::empty());
                b.origin_into(i, &mut via_base);
                t.origin_into(i, &mut via_tagged);
                assert_eq!(via_base, via_tagged);
                assert_eq!(b.cell(i), t.cell(i));
                let mut via_base = Cell::retrieved(b.datum(i).clone(), SourceId(9));
                let mut via_tagged = via_base.clone();
                b.absorb_into(i, &mut via_base);
                t.absorb_into(i, &mut via_tagged);
                assert_eq!(via_base, via_tagged);
            }
        }
        let lent = <PolygenRelation as Operand>::tagged(std::slice::from_ref(&tagged));
        assert!(matches!(lent, Cow::Borrowed(_)));
        let built = <BaseRelation as Operand>::tagged(std::slice::from_ref(&base));
        assert_eq!(built.as_ref(), std::slice::from_ref(&tagged));
    }

    #[test]
    fn rename_and_gather_share_or_subset_the_rows() {
        let base = BaseRelation::new(flat(), SourceId(0));
        let renamed = base.rename_attrs(&["ONAME", "INDUSTRY"]).unwrap();
        assert!(Arc::ptr_eq(
            renamed.flat().shared_rows(),
            base.flat().shared_rows()
        ));
        assert_eq!(
            renamed.materialize(),
            base.materialize()
                .rename_attrs(&["ONAME", "INDUSTRY"])
                .unwrap()
        );
        assert!(base.rename_attrs(&["ONLY"]).is_err());
        let picked = base.gather(&[2, 0]);
        let all = base.materialize();
        assert_eq!(
            picked.materialize().tuples(),
            [all.tuples()[2].clone(), all.tuples()[0].clone()].as_slice()
        );
        assert_eq!(picked.source(), SourceId(0));
        assert!(!picked.is_empty());
    }
}
