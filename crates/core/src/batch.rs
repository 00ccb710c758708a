//! Columnar batch execution with late tag materialization.
//!
//! The streaming kernels in [`crate::stream`] are tuple-at-a-time: every
//! fused stage walks `Vec<Cell>` rows, re-dispatches on the [`Value`]
//! enum per cell, and pushes mediator tags into every cell of every
//! surviving tuple at every stage. A [`ColumnBatch`] turns that inside
//! out:
//!
//! * **one vector per attribute** — each column's data portion is
//!   specialized to a typed vector (`ColumnData`) when the column is
//!   monomorphic, so a Select over an `INT` column is a tight `i64`
//!   comparison loop with no enum dispatch;
//! * **dedicated tag columns** — the origin and intermediate source sets
//!   live in their own vectors beside the data, untouched by filters;
//! * **a selection vector** — Select/Restrict only shrink a `Vec<u32>`
//!   of surviving row indices; no tuple is moved, cloned, or retagged
//!   mid-pipeline;
//! * **a scan-ordinal column** — each row remembers its position in the
//!   relation the batch was built from (index probes gather straight
//!   into a batch and keep the probed ordinals);
//! * **late tag materialization** — the paper's tag update (mediating
//!   sources join every surviving cell's intermediate set) is *recorded*
//!   in a pending mediator set and *applied* once per surviving row at
//!   emission ([`ColumnBatch::into_relation`]), not carried through
//!   every stage. Leaf scans retrieve whole columns from one source, so
//!   a batch built from a late-tagged base relation
//!   ([`ColumnBatch::from_base`]) has uniform origin columns by
//!   construction (a batch built from tagged tuples detects them) and a
//!   filter stage records its mediators with a single set union;
//!   per-row pending sets are allocated only when a filtered column's
//!   origins genuinely vary.
//!
//! Late tagging is byte-identical to the per-stage row semantics because
//! the predicates only read the data portion (tags never influence
//! filtering), and the tag update is a set union — associative,
//! commutative and idempotent — applied uniformly to all cells of a
//! surviving row. Folding the per-stage mediator sets into one pending
//! set per row and unioning it in at the end therefore produces exactly
//! the cells the row engine produces, in the same order (the selection
//! vector preserves scan order). Projection's duplicate collapse is the
//! executor's job at emission time — identical to the row engine, where
//! Project is fused last and dedups after all tag updates have landed.
//!
//! Every kernel here is differential-tested against the streaming and
//! eager counterparts; the row engine stays the reference semantics.

use crate::base::BaseRelation;
use crate::cell::Cell;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::source::SourceSet;
use crate::tuple::PolyTuple;
use polygen_flat::schema::Schema;
use polygen_flat::value::{Cmp, Value, F64};
use std::sync::Arc;

/// A column's data portion. Monomorphic columns are stored as flat typed
/// vectors so the filter kernels compare machine values without touching
/// the [`Value`] enum; mixed or nil-bearing columns fall back to
/// [`ColumnData::Values`], whose comparisons go through the reference
/// [`Value::satisfies`].
#[derive(Debug, Clone)]
enum ColumnData {
    Ints(Vec<i64>),
    Floats(Vec<F64>),
    Bools(Vec<bool>),
    Strs(Vec<Arc<str>>),
    Values(Vec<Value>),
}

impl ColumnData {
    /// Specialize a value vector: typed when every value shares the first
    /// value's (non-nil) variant, generic otherwise.
    fn specialize(values: Vec<Value>) -> ColumnData {
        match values.first() {
            Some(Value::Int(_)) if values.iter().all(|v| matches!(v, Value::Int(_))) => {
                ColumnData::Ints(
                    values
                        .into_iter()
                        .map(|v| match v {
                            Value::Int(i) => i,
                            _ => unreachable!("checked all-Int"),
                        })
                        .collect(),
                )
            }
            Some(Value::Float(_)) if values.iter().all(|v| matches!(v, Value::Float(_))) => {
                ColumnData::Floats(
                    values
                        .into_iter()
                        .map(|v| match v {
                            Value::Float(f) => f,
                            _ => unreachable!("checked all-Float"),
                        })
                        .collect(),
                )
            }
            Some(Value::Bool(_)) if values.iter().all(|v| matches!(v, Value::Bool(_))) => {
                ColumnData::Bools(
                    values
                        .into_iter()
                        .map(|v| match v {
                            Value::Bool(b) => b,
                            _ => unreachable!("checked all-Bool"),
                        })
                        .collect(),
                )
            }
            Some(Value::Str(_)) if values.iter().all(|v| matches!(v, Value::Str(_))) => {
                ColumnData::Strs(
                    values
                        .into_iter()
                        .map(|v| match v {
                            Value::Str(s) => s,
                            _ => unreachable!("checked all-Str"),
                        })
                        .collect(),
                )
            }
            _ => ColumnData::Values(values),
        }
    }

    /// Reconstitute row `r`'s datum as a [`Value`] (cheap: `Arc` bump for
    /// strings, copies for scalars).
    fn value_at(&self, r: usize) -> Value {
        match self {
            ColumnData::Ints(v) => Value::Int(v[r]),
            ColumnData::Floats(v) => Value::Float(v[r]),
            ColumnData::Bools(v) => Value::Bool(v[r]),
            ColumnData::Strs(v) => Value::Str(Arc::clone(&v[r])),
            ColumnData::Values(v) => v[r].clone(),
        }
    }
}

/// `selection ← selection ∩ {r | col[r] θ constant}`, mirroring
/// [`Value::theta_compare`] arm for arm: same numeric widening, same
/// "incomparable ⇒ unsatisfied (even for `<>`)" three-valued semantics.
/// The (column type, constant type) dispatch happens once out here; each
/// arm is a tight loop over one typed vector.
fn filter_const(selection: &mut Vec<u32>, data: &ColumnData, cmp: Cmp, constant: &Value) {
    match (data, constant) {
        (ColumnData::Ints(d), Value::Int(k)) => {
            selection.retain(|&r| cmp.admits(d[r as usize].cmp(k)));
        }
        (ColumnData::Ints(d), Value::Float(k)) => {
            selection.retain(|&r| cmp.admits(F64(d[r as usize] as f64).cmp(k)));
        }
        (ColumnData::Floats(d), Value::Float(k)) => {
            selection.retain(|&r| cmp.admits(d[r as usize].cmp(k)));
        }
        (ColumnData::Floats(d), Value::Int(k)) => {
            let k = F64(*k as f64);
            selection.retain(|&r| cmp.admits(d[r as usize].cmp(&k)));
        }
        (ColumnData::Strs(d), Value::Str(k)) => {
            selection.retain(|&r| cmp.admits(d[r as usize].as_ref().cmp(k.as_ref())));
        }
        (ColumnData::Bools(d), Value::Bool(k)) => {
            selection.retain(|&r| cmp.admits(d[r as usize].cmp(k)));
        }
        (ColumnData::Values(d), k) => {
            selection.retain(|&r| d[r as usize].satisfies(cmp, k));
        }
        // A typed column against a mismatched-type or nil constant:
        // θ-comparison is undefined, so no row satisfies it.
        _ => selection.clear(),
    }
}

/// `selection ← selection ∩ {r | a[r] θ b[r]}` (see [`filter_const`]).
fn filter_pair(selection: &mut Vec<u32>, a: &ColumnData, b: &ColumnData, cmp: Cmp) {
    match (a, b) {
        (ColumnData::Ints(x), ColumnData::Ints(y)) => {
            selection.retain(|&r| cmp.admits(x[r as usize].cmp(&y[r as usize])));
        }
        (ColumnData::Floats(x), ColumnData::Floats(y)) => {
            selection.retain(|&r| cmp.admits(x[r as usize].cmp(&y[r as usize])));
        }
        (ColumnData::Ints(x), ColumnData::Floats(y)) => {
            selection.retain(|&r| cmp.admits(F64(x[r as usize] as f64).cmp(&y[r as usize])));
        }
        (ColumnData::Floats(x), ColumnData::Ints(y)) => {
            selection.retain(|&r| cmp.admits(x[r as usize].cmp(&F64(y[r as usize] as f64))));
        }
        (ColumnData::Strs(x), ColumnData::Strs(y)) => {
            selection.retain(|&r| cmp.admits(x[r as usize].as_ref().cmp(y[r as usize].as_ref())));
        }
        (ColumnData::Bools(x), ColumnData::Bools(y)) => {
            selection.retain(|&r| cmp.admits(x[r as usize].cmp(&y[r as usize])));
        }
        (ColumnData::Values(x), y) => {
            selection.retain(|&r| x[r as usize].satisfies(cmp, &y.value_at(r as usize)));
        }
        (x, ColumnData::Values(y)) => {
            selection.retain(|&r| x.value_at(r as usize).satisfies(cmp, &y[r as usize]));
        }
        // Mismatched typed columns (INT vs STR, BOOL vs FLOAT, …):
        // θ-comparison is undefined for every row.
        _ => selection.clear(),
    }
}

/// A column's tag portion. Leaf scans retrieve whole columns from one
/// source, so the origin sets of a column are almost always identical
/// row to row (and the intermediate sets all empty) — stored as a single
/// [`TagColumn::Uniform`] set, which lets the filter stages record
/// mediators with one union per *stage* instead of one per surviving
/// row. Columns whose tags genuinely vary keep the row-aligned vector.
#[derive(Debug, Clone)]
enum TagColumn {
    Uniform(SourceSet),
    PerRow(Vec<SourceSet>),
}

impl TagColumn {
    fn from_rows(rows: Vec<SourceSet>) -> TagColumn {
        match rows.first() {
            Some(first) if rows.iter().all(|s| s == first) => TagColumn::Uniform(first.clone()),
            Some(_) => TagColumn::PerRow(rows),
            None => TagColumn::Uniform(SourceSet::empty()),
        }
    }

    fn at(&self, r: usize) -> &SourceSet {
        match self {
            TagColumn::Uniform(s) => s,
            TagColumn::PerRow(v) => &v[r],
        }
    }
}

/// One attribute of a batch: the typed data vector plus the two tag
/// portions, row-aligned. Columns are `Arc`-shared so projection is a
/// pointer swap and cloning a batch never copies cell payloads.
#[derive(Debug)]
struct Column {
    data: ColumnData,
    origin: TagColumn,
    intermediate: TagColumn,
}

/// A column-oriented slice of a polygen relation: one `Column` per
/// attribute, a selection vector of surviving row indices, a pending
/// mediator set per row (the late-tag accumulator), and the scan
/// ordinals the rows were gathered from.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    rows: usize,
    /// Indices (into the columns) of rows still alive, in scan order.
    selection: Vec<u32>,
    /// Mediating sources recorded by filter stages over uniform-origin
    /// columns — shared by every surviving row, unioned once per stage.
    pending_all: SourceSet,
    /// Per-row mediators, allocated lazily and only when a filter stage
    /// reads a column whose origins vary by row.
    pending_rows: Option<Vec<SourceSet>>,
    /// Each row's ordinal in the relation the batch was gathered from.
    ordinals: Vec<u32>,
}

impl ColumnBatch {
    /// Transpose owned tuples into columns (cells move — no clones).
    pub fn from_parts(schema: Arc<Schema>, tuples: Vec<PolyTuple>) -> Self {
        let rows = tuples.len();
        u32::try_from(rows).expect("batch rows fit the u32 selection vector");
        let degree = schema.degree();
        let mut data: Vec<Vec<Value>> = (0..degree).map(|_| Vec::with_capacity(rows)).collect();
        let mut origin: Vec<Vec<SourceSet>> =
            (0..degree).map(|_| Vec::with_capacity(rows)).collect();
        let mut intermediate: Vec<Vec<SourceSet>> =
            (0..degree).map(|_| Vec::with_capacity(rows)).collect();
        for tuple in tuples {
            debug_assert_eq!(tuple.len(), degree, "batch tuples match batch schema");
            for (j, cell) in tuple.into_iter().enumerate() {
                data[j].push(cell.datum);
                origin[j].push(cell.origin);
                intermediate[j].push(cell.intermediate);
            }
        }
        let columns = data
            .into_iter()
            .zip(origin)
            .zip(intermediate)
            .map(|((d, o), i)| {
                Arc::new(Column {
                    data: ColumnData::specialize(d),
                    origin: TagColumn::from_rows(o),
                    intermediate: TagColumn::from_rows(i),
                })
            })
            .collect();
        ColumnBatch {
            schema,
            columns,
            rows,
            selection: (0..rows as u32).collect(),
            pending_all: SourceSet::empty(),
            pending_rows: None,
            ordinals: (0..rows as u32).collect(),
        }
    }

    /// Lift a whole relation into a batch (tuples move).
    pub fn from_relation(rel: PolygenRelation) -> Self {
        let schema = Arc::clone(rel.schema());
        ColumnBatch::from_parts(schema, rel.into_tuples())
    }

    /// Lift a late-tagged base relation into a batch. Every column's
    /// origin is the relation's one source and every intermediate set is
    /// empty, so the tag columns are `TagColumn::Uniform` by
    /// construction — no per-row tag vector is ever collected or
    /// compared. Byte-identical to
    /// `ColumnBatch::from_relation(base.materialize())`.
    pub fn from_base(base: &BaseRelation) -> Self {
        let rows = u32::try_from(base.len()).expect("batch rows fit the u32 selection vector");
        ColumnBatch::gather(base, (0..rows).collect())
    }

    /// Gather the rows at `ordinals` out of a base relation — how an
    /// index probe emits straight into the columnar world. Ordinals
    /// count the base's rows, so over a selection (a pushed-down
    /// predicate's survivors) only selected rows are read. The batch
    /// remembers the ordinals; emitting it unchanged reproduces the
    /// gathered relation byte for byte.
    pub fn gather(base: &BaseRelation, ordinals: Vec<u32>) -> Self {
        let rows = ordinals.len();
        u32::try_from(rows).expect("batch rows fit the u32 selection vector");
        let schema = Arc::clone(base.schema());
        let mut data: Vec<Vec<Value>> = (0..schema.degree())
            .map(|_| Vec::with_capacity(rows))
            .collect();
        for &o in &ordinals {
            for (column, v) in data.iter_mut().zip(base.values(o as usize)) {
                column.push(v.clone());
            }
        }
        let columns = data
            .into_iter()
            .map(|d| {
                Arc::new(Column {
                    data: ColumnData::specialize(d),
                    origin: TagColumn::Uniform(base.origin().clone()),
                    intermediate: TagColumn::Uniform(SourceSet::empty()),
                })
            })
            .collect();
        ColumnBatch {
            schema,
            columns,
            rows,
            selection: (0..rows as u32).collect(),
            pending_all: SourceSet::empty(),
            pending_rows: None,
            ordinals,
        }
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Surviving row count.
    pub fn len(&self) -> usize {
        self.selection.len()
    }

    /// Is every row filtered out (or the batch empty)?
    pub fn is_empty(&self) -> bool {
        self.selection.is_empty()
    }

    /// Total rows the batch was built with (alive or not).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Surviving row indices, in scan order.
    pub fn selection(&self) -> &[u32] {
        &self.selection
    }

    /// Scan ordinals of the batch's rows in the relation it was gathered
    /// from (identity for [`ColumnBatch::from_relation`]).
    pub fn ordinals(&self) -> &[u32] {
        &self.ordinals
    }

    /// Record a filter stage's mediators (the origins of the cells it
    /// read) for the current survivors. Uniform columns fold into the
    /// batch-wide pending set — one union per stage; varying columns
    /// union per survivor into the lazily-allocated per-row vector.
    fn record_mediators(&mut self, origin: &TagColumn) {
        match origin {
            TagColumn::Uniform(o) => self.pending_all.union_with(o),
            TagColumn::PerRow(v) => {
                let rows = self.rows;
                let pending = self
                    .pending_rows
                    .get_or_insert_with(|| vec![SourceSet::empty(); rows]);
                for &row in &self.selection {
                    pending[row as usize].union_with(&v[row as usize]);
                }
            }
        }
    }

    /// Select stage: `p[x θ const]`. Survivors stay in the selection
    /// vector and record the x-cell's origin as pending mediators; no
    /// cell is touched.
    pub fn select(&mut self, x: &str, cmp: Cmp, constant: &Value) -> Result<(), PolygenError> {
        let xi = self.schema.index_of(x)?.0;
        let col = Arc::clone(&self.columns[xi]);
        filter_const(&mut self.selection, &col.data, cmp, constant);
        self.record_mediators(&col.origin);
        Ok(())
    }

    /// Restrict stage: `p[x θ y]`. Survivors record both cells' origins
    /// as pending mediators.
    pub fn restrict(&mut self, x: &str, cmp: Cmp, y: &str) -> Result<(), PolygenError> {
        let xi = self.schema.index_of(x)?.0;
        let yi = self.schema.index_of(y)?.0;
        let cx = Arc::clone(&self.columns[xi]);
        let cy = Arc::clone(&self.columns[yi]);
        filter_pair(&mut self.selection, &cx.data, &cy.data, cmp);
        self.record_mediators(&cx.origin);
        self.record_mediators(&cy.origin);
        Ok(())
    }

    /// Projection as a column-pointer swap — no per-tuple rebuild. The
    /// duplicate collapse the paper's Project performs happens at
    /// emission (after [`ColumnBatch::into_relation`], via
    /// [`PolygenRelation::merge_duplicates`]), which is equivalent
    /// because batch-eligible pipelines only project as the final stage.
    pub fn project(&mut self, attrs: &[&str]) -> Result<(), PolygenError> {
        let idx = self.schema.indices_of(attrs)?;
        let schema = Arc::new(self.schema.project(&idx, self.schema.name())?);
        self.columns = idx.iter().map(|&i| Arc::clone(&self.columns[i])).collect();
        self.schema = schema;
        Ok(())
    }

    /// Relabel attributes positionally (schema swap; columns untouched).
    pub fn rename(&mut self, names: &[&str]) -> Result<(), PolygenError> {
        self.schema = Arc::new(self.schema.relabeled_attrs(names)?);
        Ok(())
    }

    /// Emit the surviving rows as a relation, materializing the late
    /// tags: every cell of row `r` gets `pending[r]` unioned into its
    /// intermediate set — the one-shot equivalent of the per-stage
    /// `tag_all` the row engine performs.
    pub fn into_relation(self) -> PolygenRelation {
        let pending_rows = self.pending_rows.as_deref();
        let mut tuples = Vec::with_capacity(self.selection.len());
        for &row in &self.selection {
            let r = row as usize;
            let tuple: PolyTuple = self
                .columns
                .iter()
                .map(|col| {
                    let mut intermediate = col.intermediate.at(r).clone();
                    intermediate.union_with(&self.pending_all);
                    if let Some(pending) = pending_rows {
                        intermediate.union_with(&pending[r]);
                    }
                    Cell::new(col.data.value_at(r), col.origin.at(r).clone(), intermediate)
                })
                .collect();
            tuples.push(tuple);
        }
        PolygenRelation::from_tuples(self.schema, tuples).expect("batch columns match batch schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::source::SourceId;
    use crate::stream::TupleStream;
    use polygen_flat::relation::Relation;

    fn base() -> PolygenRelation {
        let f = Relation::build("ALUMNUS", &["ANAME", "DEG", "ORG"])
            .row(&["Bob Swanson", "MBA", "Genentech"])
            .row(&["Stu Madnick", "MBA", "MIT"])
            .row(&["Ken Olsen", "MS", "DEC"])
            .row(&["John Reed", "MBA", "Citicorp"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&f, SourceId(0))
    }

    /// A relation exercising every typed column plus the generic
    /// fallback (a nil-bearing mixed column).
    fn typed_base() -> PolygenRelation {
        use crate::tuple::PolyTuple;
        let schema = Arc::new(
            Schema::new("T", &["ID", "SCORE", "NAME", "FLAG", "MAYBE"]).expect("valid test schema"),
        );
        let rows: Vec<(i64, f64, &str, bool, Value)> = vec![
            (1, 3.5, "ada", true, Value::int(7)),
            (2, 1.25, "bob", false, Value::Null),
            (3, 9.0, "cyd", true, Value::str("x")),
            (4, 3.5, "dee", false, Value::int(7)),
        ];
        let tuples: Vec<PolyTuple> = rows
            .into_iter()
            .map(|(id, score, name, flag, maybe)| {
                vec![
                    Cell::retrieved(Value::int(id), SourceId(0)),
                    Cell::retrieved(Value::float(score), SourceId(0)),
                    Cell::retrieved(Value::str(name), SourceId(1)),
                    Cell::retrieved(Value::Bool(flag), SourceId(1)),
                    Cell::retrieved(maybe, SourceId(2)),
                ]
            })
            .collect();
        PolygenRelation::from_tuples(schema, tuples).unwrap()
    }

    /// The batch pipeline an executor runs: stages, emission, dedup if
    /// projected.
    fn run_batch(
        rel: PolygenRelation,
        f: impl FnOnce(&mut ColumnBatch) -> bool,
    ) -> PolygenRelation {
        let mut b = ColumnBatch::from_relation(rel);
        let projected = f(&mut b);
        let mut rel = b.into_relation();
        if projected {
            rel.merge_duplicates();
        }
        rel
    }

    #[test]
    fn select_matches_stream_byte_identically() {
        let rel = base();
        let mut s = TupleStream::from_relation(rel.clone());
        s.select("DEG", Cmp::Eq, &Value::str("MBA")).unwrap();
        let got = run_batch(rel, |b| {
            b.select("DEG", Cmp::Eq, &Value::str("MBA")).unwrap();
            false
        });
        assert_eq!(got.tuples(), s.into_relation().tuples());
    }

    #[test]
    fn restrict_matches_stream_byte_identically() {
        let rel = base();
        let mut s = TupleStream::from_relation(rel.clone());
        s.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
        let got = run_batch(rel, |b| {
            b.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
            false
        });
        assert_eq!(got.tuples(), s.into_relation().tuples());
    }

    #[test]
    fn fused_chain_with_projection_matches_stream() {
        let rel = base();
        let mut s = TupleStream::from_relation(rel.clone());
        s.select("DEG", Cmp::Eq, &Value::str("MBA")).unwrap();
        s.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
        s.project(&["DEG"]).unwrap();
        let got = run_batch(rel, |b| {
            b.select("DEG", Cmp::Eq, &Value::str("MBA")).unwrap();
            b.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
            b.project(&["DEG"]).unwrap();
            true
        });
        assert_eq!(got.len(), 1, "duplicates collapsed at emission");
        assert_eq!(got.tuples(), s.into_relation().tuples());
    }

    #[test]
    fn projection_dedup_absorbs_tags_like_eager_project() {
        let rel = base();
        let eager = algebra::project(&rel, &["DEG"]).unwrap();
        let got = run_batch(rel, |b| {
            b.project(&["DEG"]).unwrap();
            true
        });
        assert!(got.tagged_set_eq(&eager));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn typed_columns_match_generic_kernels() {
        let rel = typed_base();
        for (x, cmp, k) in [
            ("ID", Cmp::Ge, Value::int(2)),
            ("SCORE", Cmp::Lt, Value::float(4.0)),
            ("NAME", Cmp::Gt, Value::str("bob")),
            ("FLAG", Cmp::Eq, Value::Bool(true)),
            ("MAYBE", Cmp::Eq, Value::int(7)),
            // Mixed-type predicates: Int column vs Float constant and
            // vice versa widen; mismatches and nils never satisfy.
            ("ID", Cmp::Le, Value::float(2.5)),
            ("SCORE", Cmp::Ge, Value::int(3)),
            ("ID", Cmp::Ne, Value::str("zzz")),
            ("NAME", Cmp::Eq, Value::Null),
        ] {
            let mut s = TupleStream::from_relation(rel.clone());
            s.select(x, cmp, &k).unwrap();
            let got = run_batch(rel.clone(), |b| {
                b.select(x, cmp, &k).unwrap();
                false
            });
            assert_eq!(
                got.tuples(),
                s.into_relation().tuples(),
                "select {x} {cmp:?} {k}"
            );
        }
        for (x, cmp, y) in [
            ("ID", Cmp::Lt, "SCORE"),
            ("SCORE", Cmp::Ge, "ID"),
            ("ID", Cmp::Eq, "ID"),
            ("NAME", Cmp::Ne, "NAME"),
            ("ID", Cmp::Eq, "NAME"),
            ("MAYBE", Cmp::Eq, "ID"),
            ("ID", Cmp::Eq, "MAYBE"),
        ] {
            let mut s = TupleStream::from_relation(rel.clone());
            s.restrict(x, cmp, y).unwrap();
            let got = run_batch(rel.clone(), |b| {
                b.restrict(x, cmp, y).unwrap();
                false
            });
            assert_eq!(
                got.tuples(),
                s.into_relation().tuples(),
                "restrict {x} {cmp:?} {y}"
            );
        }
    }

    #[test]
    fn late_tags_accumulate_across_chained_stages() {
        let rel = typed_base();
        let mut s = TupleStream::from_relation(rel.clone());
        s.select("ID", Cmp::Ge, &Value::int(1)).unwrap();
        s.restrict("NAME", Cmp::Ne, "MAYBE").unwrap();
        s.select("FLAG", Cmp::Eq, &Value::Bool(true)).unwrap();
        let got = run_batch(rel, |b| {
            b.select("ID", Cmp::Ge, &Value::int(1)).unwrap();
            b.restrict("NAME", Cmp::Ne, "MAYBE").unwrap();
            b.select("FLAG", Cmp::Eq, &Value::Bool(true)).unwrap();
            false
        });
        assert_eq!(got.tuples(), s.into_relation().tuples());
        // The mediators of *all* stages landed: ID's source 0, NAME's
        // source 1 and MAYBE's source 2, on every surviving cell.
        for t in got.tuples() {
            for c in t {
                for s in [SourceId(0), SourceId(1), SourceId(2)] {
                    assert!(c.intermediate.contains(s));
                }
            }
        }
    }

    /// Columns whose tags vary row to row take the per-row pending path
    /// (no uniform shortcut) and must still match the stream kernels
    /// byte for byte.
    #[test]
    fn varying_tags_take_the_per_row_path_and_match_streams() {
        let schema = Arc::new(Schema::new("V", &["A", "B"]).expect("valid test schema"));
        let tuples: Vec<PolyTuple> = (0i64..8)
            .map(|i| {
                let mut b = Cell::retrieved(Value::int(100 - i), SourceId(7));
                b.intermediate = SourceSet::singleton(SourceId((i % 2) as u16 + 20));
                vec![Cell::retrieved(Value::int(i), SourceId((i % 3) as u16)), b]
            })
            .collect();
        let rel = PolygenRelation::from_tuples(schema, tuples).unwrap();
        let mut s = TupleStream::from_relation(rel.clone());
        s.select("A", Cmp::Ge, &Value::int(2)).unwrap();
        s.restrict("A", Cmp::Lt, "B").unwrap();
        let got = run_batch(rel, |b| {
            b.select("A", Cmp::Ge, &Value::int(2)).unwrap();
            b.restrict("A", Cmp::Lt, "B").unwrap();
            false
        });
        assert_eq!(got.tuples(), s.into_relation().tuples());
    }

    #[test]
    fn gather_roundtrips_and_keeps_ordinals() {
        let rel = base();
        let late = BaseRelation::new(rel.strip(), SourceId(0));
        let ordinals = [3u32, 1, 1];
        let batch = ColumnBatch::gather(&late, ordinals.to_vec());
        assert_eq!(batch.ordinals(), &ordinals);
        assert_eq!(batch.rows(), 3);
        let expect: Vec<PolyTuple> = ordinals
            .iter()
            .map(|&o| rel.tuples()[o as usize].clone())
            .collect();
        assert_eq!(batch.into_relation().tuples(), expect.as_slice());
    }

    /// A batch built from a base relation is the batch built from its
    /// materialization: same emission, same filter-stage mediators.
    #[test]
    fn from_base_matches_from_relation_of_the_materialization() {
        let late = BaseRelation::new(base().strip(), SourceId(4));
        let stages = |b: &mut ColumnBatch| {
            b.select("DEG", Cmp::Eq, &Value::str("MBA")).unwrap();
            b.restrict("ANAME", Cmp::Ne, "ORG").unwrap();
        };
        let mut early = ColumnBatch::from_relation(late.materialize());
        let mut lazy = ColumnBatch::from_base(&late);
        assert_eq!(lazy.ordinals(), early.ordinals());
        assert_eq!(
            lazy.clone().into_relation().tuples(),
            late.materialize().tuples()
        );
        stages(&mut early);
        stages(&mut lazy);
        assert_eq!(lazy.selection(), early.selection());
        assert_eq!(lazy.into_relation(), early.into_relation());
        let empty = BaseRelation::new(Relation::build("E", &["A"]).finish().unwrap(), SourceId(0));
        assert!(ColumnBatch::from_base(&empty).into_relation().is_empty());
    }

    #[test]
    fn rename_and_unknown_attrs_behave_like_stream() {
        let rel = base();
        let mut b = ColumnBatch::from_relation(rel.clone());
        assert!(b.select("NOPE", Cmp::Eq, &Value::int(1)).is_err());
        assert!(b.restrict("DEG", Cmp::Eq, "NOPE").is_err());
        assert!(b.project(&["NOPE"]).is_err());
        assert!(b.rename(&["ONLY"]).is_err(), "arity checked");
        b.rename(&["N", "D", "O"]).unwrap();
        assert!(b
            .into_relation()
            .tagged_set_eq(&rel.rename_attrs(&["N", "D", "O"]).unwrap()));
    }

    #[test]
    fn selection_vector_filters_without_touching_columns() {
        let rel = typed_base();
        let mut b = ColumnBatch::from_relation(rel);
        assert_eq!((b.len(), b.rows()), (4, 4));
        b.select("ID", Cmp::Gt, &Value::int(2)).unwrap();
        assert_eq!((b.len(), b.rows()), (2, 4), "only the selection shrank");
        assert_eq!(b.selection(), &[2, 3]);
        assert!(!b.is_empty());
        b.select("ID", Cmp::Gt, &Value::int(99)).unwrap();
        assert!(b.is_empty());
        assert!(b.into_relation().tuples().is_empty());
    }
}
