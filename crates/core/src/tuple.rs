//! Polygen tuples and the `t(d)` / `t(o)` / `t(i)` projections.
//!
//! §II uses `t(d)` for a tuple's data portion, `t(o)` for its originating
//! sources, and `t(i)` for its intermediate sources; `t[x]` addresses the
//! cell of attribute `x`. A tuple here is simply a vector of [`Cell`]s —
//! the schema lives on the relation.

use crate::base::RowView;
use crate::cell::Cell;
use crate::source::SourceSet;
use polygen_flat::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One polygen tuple.
pub type PolyTuple = Vec<Cell>;

/// `t(d)` — clone out the data portion of a tuple.
pub fn data_of(tuple: &[Cell]) -> Vec<Value> {
    tuple.iter().map(|c| c.datum.clone()).collect()
}

/// `t[X](d)` borrowed: a row plus the attribute positions `X`. Hashes
/// and compares exactly as the `Vec<Value>` of those datums would
/// (set-semantics `Value` identity, so `nil = nil` and `1 ≠ 1.0`), but
/// costs no allocation — the key the duplicate-collapsing operators hash
/// rows by. The row is any [`RowView`]: a tagged tuple, or the pair of
/// operand rows a fused join has matched but not yet built.
#[derive(Clone, Copy)]
pub(crate) struct DataKey<'k, R = &'k [Cell]> {
    row: R,
    idx: &'k [usize],
}

impl<'k> DataKey<'k> {
    pub(crate) fn new(cells: &'k [Cell], idx: &'k [usize]) -> Self {
        DataKey { row: cells, idx }
    }
}

impl<'k, R> DataKey<'k, R> {
    pub(crate) fn of(row: R, idx: &'k [usize]) -> Self {
        DataKey { row, idx }
    }

    fn datums<'a>(&self) -> impl Iterator<Item = &'a Value> + '_
    where
        R: RowView<'a>,
    {
        self.idx.iter().map(|&i| self.row.datum(i))
    }
}

impl<'a, R: RowView<'a>> Hash for DataKey<'_, R> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.idx.len().hash(state);
        for d in self.datums() {
            d.hash(state);
        }
    }
}

impl<'a, R: RowView<'a>> PartialEq for DataKey<'_, R> {
    fn eq(&self, other: &Self) -> bool {
        self.idx.len() == other.idx.len() && self.datums().eq(other.datums())
    }
}

impl<'a, R: RowView<'a>> Eq for DataKey<'_, R> {}

/// Project every row onto `idx` and collapse rows equal on the projected
/// data, unioning tags attribute-wise into the first occurrence, whose
/// position the output keeps (Project's and Union's canonical form).
/// Cells are cloned only for first occurrences; a later duplicate only
/// lends its tags.
pub(crate) fn project_rows<'a>(
    rows: impl Iterator<Item = &'a [Cell]>,
    idx: &'a [usize],
) -> Vec<PolyTuple> {
    let (len, _) = rows.size_hint();
    let mut first: HashMap<DataKey<'a>, usize> = HashMap::with_capacity(len);
    let mut out: Vec<PolyTuple> = Vec::with_capacity(len);
    for t in rows {
        match first.entry(DataKey::new(t, idx)) {
            Entry::Occupied(e) => {
                let kept = &mut out[*e.get()];
                for (cell, &i) in kept.iter_mut().zip(idx) {
                    cell.absorb_tags(&t[i]);
                }
            }
            Entry::Vacant(e) => {
                e.insert(out.len());
                out.push(idx.iter().map(|&i| t[i].clone()).collect());
            }
        }
    }
    out
}

/// `t(o)` — the union of every cell's originating sources.
pub fn origins_of(tuple: &[Cell]) -> SourceSet {
    let mut s = SourceSet::empty();
    for c in tuple {
        s.union_with(&c.origin);
    }
    s
}

/// `t(i)` — the union of every cell's intermediate sources.
pub fn intermediates_of(tuple: &[Cell]) -> SourceSet {
    let mut s = SourceSet::empty();
    for c in tuple {
        s.union_with(&c.intermediate);
    }
    s
}

/// Restrict's tag update applied tuple-wide:
/// `t'[w](i) = t[w](i) ∪ sources ∀ w ∈ attrs(p)`.
pub fn add_intermediate_all(tuple: &mut [Cell], sources: &SourceSet) {
    if sources.is_empty() {
        return;
    }
    for c in tuple {
        c.add_intermediate(sources);
    }
}

/// Attribute-wise tag merge for two tuples equal on the data portion
/// (Union's match branch and Project's duplicate collapse).
pub fn absorb_tuple_tags(dst: &mut [Cell], src: &[Cell]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.absorb_tags(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceId;

    fn cell(d: &str, o: &[u16], i: &[u16]) -> Cell {
        Cell::new(
            Value::str(d),
            o.iter().map(|&x| SourceId(x)).collect(),
            i.iter().map(|&x| SourceId(x)).collect(),
        )
    }

    #[test]
    fn projections() {
        let t = vec![cell("a", &[0], &[1]), cell("b", &[2], &[])];
        assert_eq!(data_of(&t), vec![Value::str("a"), Value::str("b")]);
        let o = origins_of(&t);
        assert!(o.contains(SourceId(0)) && o.contains(SourceId(2)));
        assert_eq!(o.len(), 2);
        let i = intermediates_of(&t);
        assert_eq!(i.len(), 1);
        assert!(i.contains(SourceId(1)));
    }

    #[test]
    fn add_intermediate_all_touches_every_cell() {
        let mut t = vec![cell("a", &[0], &[]), cell("b", &[1], &[])];
        add_intermediate_all(&mut t, &SourceSet::singleton(SourceId(9)));
        assert!(t.iter().all(|c| c.intermediate.contains(SourceId(9))));
        // Empty update is a no-op fast path.
        add_intermediate_all(&mut t, &SourceSet::empty());
        assert!(t.iter().all(|c| c.intermediate.len() == 1));
    }

    #[test]
    fn absorb_tuple_tags_is_attrwise() {
        let mut a = vec![cell("x", &[0], &[]), cell("y", &[0], &[])];
        let b = vec![cell("x", &[1], &[2]), cell("y", &[3], &[])];
        absorb_tuple_tags(&mut a, &b);
        assert!(a[0].origin.contains(SourceId(1)));
        assert!(a[0].intermediate.contains(SourceId(2)));
        assert!(a[1].origin.contains(SourceId(3)));
        assert!(!a[1].origin.contains(SourceId(1)));
    }
}
