//! Merge — the operator that materializes a multi-source polygen scheme.
//!
//! §II: "Merge extends Outer Natural Total Join to include more than two
//! polygen relations. It can be shown that the order in which Outer
//! Natural Total Joins are performed over a set of polygen relations in a
//! Merge is immaterial."
//!
//! Operands must already carry polygen attribute names (the interpreter's
//! Retrieve→relabel step does this: BUSINESS(BNAME, IND) arrives here as
//! (ONAME, INDUSTRY)). The fold is a left fold of ONTJ on the polygen
//! scheme's primary key; order-insensitivity (up to column order) is
//! property-tested in the crate's proptest suite.

use crate::algebra::coalesce::{conflict_winner, CoalesceConflict, ConflictPolicy};
use crate::algebra::natural::outer_natural_total_join;
use crate::algebra::restrict::{ColumnFilter, RowFilter};
use crate::base::{Operand, RowView};
use crate::cell::Cell;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::source::SourceSet;
use crate::stream::{scoped_map, ParallelOptions, Partitioner};
use polygen_flat::schema::Schema;
use polygen_flat::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Merge `relations` on the shared primary-key attribute `key`.
///
/// Returns the merged relation plus any conflicts the `policy` resolved.
/// A single operand merges to itself; zero operands is an error.
pub fn merge(
    relations: &[PolygenRelation],
    key: &str,
    policy: ConflictPolicy,
) -> Result<(PolygenRelation, Vec<CoalesceConflict>), PolygenError> {
    let (first, rest) = relations.split_first().ok_or(PolygenError::EmptyMerge)?;
    check_merge_key(relations, key)?;
    let mut acc = first.clone();
    let mut conflicts = Vec::new();
    for next in rest {
        let (merged, mut found) = outer_natural_total_join(&acc, next, key, policy)?;
        conflicts.append(&mut found);
        acc = merged;
    }
    Ok((acc, conflicts))
}

/// [`hash_merge_partitioned`] at one partition: the single-pass hash
/// Merge without the partition count.
pub fn hash_merge<O: Operand>(
    relations: &[O],
    key: &str,
    policy: ConflictPolicy,
) -> Result<(PolygenRelation, Vec<CoalesceConflict>), PolygenError> {
    hash_merge_partitioned(relations, key, policy, ParallelOptions::serial())
        .map(|(merged, conflicts, _)| (merged, conflicts))
}

/// Every operand must carry the merge key.
fn check_merge_key<O: Operand>(relations: &[O], key: &str) -> Result<(), PolygenError> {
    for rel in relations {
        if !rel.schema().contains(key) {
            return Err(PolygenError::MissingMergeKey {
                relation: rel.schema().name().to_string(),
                key: key.to_string(),
            });
        }
    }
    Ok(())
}

/// What the closed form resolves once per Merge: the output schema and,
/// per operand, the operand-column → output-column mapping and the key
/// column's position; per output column, the operands carrying it.
struct MergePlan {
    schema: Arc<Schema>,
    col_maps: Vec<Vec<usize>>,
    key_ins: Vec<usize>,
    /// Per output column, `(operand, operand column)` in operand order.
    sources: Vec<Vec<(usize, usize)>>,
    /// The key's output column.
    key_col: usize,
    /// Per operand, the scan index of its row 0: the operands' rows in
    /// one global scan, whose order is the one-partition creation order.
    offsets: Vec<usize>,
}

impl MergePlan {
    fn new<O: Operand>(relations: &[O], key: &str) -> Result<Self, PolygenError> {
        let schemas: Vec<&Schema> = relations.iter().map(|r| r.schema().as_ref()).collect();
        let schema = merged_schema(&schemas)?;
        let col_maps: Vec<Vec<usize>> = schemas
            .iter()
            .map(|s| {
                s.attrs()
                    .iter()
                    .map(|a| schema.index_of(a).expect("attr in union schema").0)
                    .collect()
            })
            .collect();
        let key_ins: Vec<usize> = schemas
            .iter()
            .map(|s| s.index_of(key).map(|r| r.0))
            .collect::<Result<_, _>>()?;
        let mut sources = vec![Vec::new(); schema.degree()];
        for (k, col_map) in col_maps.iter().enumerate() {
            for (ci, &c) in col_map.iter().enumerate() {
                sources[c].push((k, ci));
            }
        }
        let key_col = col_maps[0][key_ins[0]];
        let offsets = relations
            .iter()
            .scan(0, |at, r| {
                let start = *at;
                *at += r.len();
                Some(start)
            })
            .collect();
        Ok(MergePlan {
            schema,
            col_maps,
            key_ins,
            sources,
            key_col,
            offsets,
        })
    }
}

/// A fold row's operand slot that no row of that operand filled.
const ABSENT: u32 = u32::MAX;

/// The datum a column reads before any operand has contributed to it.
static NIL: Value = Value::Null;

/// The closed-form Merge before any cell exists: one output row per key
/// (plus one per nil-key row) in creation order, each holding its
/// coalesced datum per column and the row each operand contributed.
/// [`MergeFold::keep`] describes the rows a caller keeps.
struct MergeFold<'a> {
    degree: usize,
    arity: usize,
    /// Per output row, `degree` data: each column's contributions
    /// coalesced on data alone, in operand order.
    data: Vec<&'a Value>,
    /// Per output row, `arity` operand row ids, or [`ABSENT`].
    from: Vec<u32>,
    by_key: HashMap<&'a Value, u32>,
    /// The conflicts a `Prefer*` policy resolved, in scan order.
    conflicts: Vec<CoalesceConflict>,
    /// The first conflict under `Strict`. The pass goes on, because a
    /// later duplicate key hands the whole Merge to the reference fold.
    strict: Option<PolygenError>,
    /// An operand carries a non-nil key twice: the reference fold
    /// cross-joins those rows, the closed form cannot.
    duplicate: bool,
    /// Key data of each numeric type seen. Mixed, the reference fold
    /// matches `1 = 1.0` through θ, a hash table cannot.
    ints: bool,
    floats: bool,
}

impl<'a> MergeFold<'a> {
    /// Fold the operands' rows — all of them, or per operand the row ids
    /// `ids` names (one hash partition's share) — operand by operand in
    /// scan order: run once at one partition and once per hash partition
    /// above it, so the two can never diverge. Every column of every key
    /// goes through the data coalesce and its conflict rule, whatever a
    /// caller keeps later. Stops at the first duplicate key.
    fn run<O: Operand>(
        plan: &MergePlan,
        operands: &'a [O],
        ids: Option<&[Vec<u32>]>,
        policy: ConflictPolicy,
    ) -> Self {
        let (degree, arity) = (plan.schema.degree(), operands.len());
        let count = |ri: usize| ids.map_or(operands[ri].len(), |ids| ids[ri].len());
        // At most every operand row comes out as a row of its own: sized
        // for that, the key table never re-hashes and neither vector
        // regrows.
        let expect = (0..arity).map(count).sum();
        let mut fold = MergeFold {
            degree,
            arity,
            data: Vec::with_capacity(expect * degree),
            from: Vec::with_capacity(expect * arity),
            by_key: HashMap::with_capacity(expect),
            conflicts: Vec::new(),
            strict: None,
            duplicate: false,
            ints: false,
            floats: false,
        };
        for ri in 0..arity {
            let share = ids.map(|ids| ids[ri].as_slice());
            let n = share.map_or(operands[ri].len(), <[u32]>::len);
            for j in 0..n {
                let r = share.map_or(j, |ids| ids[j] as usize);
                let r = u32::try_from(r).expect("operand rows fit u32 row ids");
                if !fold.add(plan, operands, policy, ri, r) {
                    fold.duplicate = true;
                    return fold;
                }
            }
        }
        fold
    }

    /// Fold operand `ri`'s row `r` in. `false` when its non-nil key is
    /// one `ri` already contributed: the closed form ends there.
    #[inline]
    fn add<O: Operand>(
        &mut self,
        plan: &MergePlan,
        operands: &'a [O],
        policy: ConflictPolicy,
        ri: usize,
        r: u32,
    ) -> bool {
        let (degree, arity) = (self.degree, self.arity);
        let t = operands[ri].row(r as usize);
        let key = t.datum(plan.key_ins[ri]);
        match key {
            Value::Int(_) => self.ints = true,
            Value::Float(_) => self.floats = true,
            _ => {}
        }
        // nil keys never match (§II: nil satisfies no θ): each stays its
        // own row, mediated only by its own origins. A new key is hashed
        // once, to find its slot and fill it.
        let next = self.rows();
        let found = if key.is_nil() {
            None
        } else {
            match self.by_key.entry(key) {
                Entry::Occupied(e) => Some(*e.get()),
                Entry::Vacant(e) => {
                    e.insert(u32::try_from(next).expect("output rows fit u32 row ids"));
                    None
                }
            }
        };
        let Some(i) = found else {
            let i = next;
            self.data.extend(std::iter::repeat_n(&NIL, degree));
            self.from.extend(std::iter::repeat_n(ABSENT, arity));
            self.from[i * arity + ri] = r;
            for (ci, &c) in plan.col_maps[ri].iter().enumerate() {
                self.data[i * degree + c] = t.datum(ci);
            }
            return true;
        };
        let i = i as usize;
        if self.from[i * arity + ri] != ABSENT {
            return false;
        }
        self.from[i * arity + ri] = r;
        for ci in 0..plan.col_maps[ri].len() {
            self.coalesce(plan, operands, policy, i, ri, t, ci);
        }
        true
    }

    /// Coalesce cell `ci` of operand `ri`'s row `t` into output row `i`,
    /// on data alone: the paper's Coalesce case analysis (equal data or a
    /// nil side keep the datum, a nil datum takes the other). A genuine
    /// conflict fails a `Strict` merge; a `Prefer*` policy resolves it and
    /// records the cells it saw: the column built from the operands
    /// before `ri`, and `t`'s.
    #[allow(clippy::too_many_arguments)]
    fn coalesce<O: Operand>(
        &mut self,
        plan: &MergePlan,
        operands: &'a [O],
        policy: ConflictPolicy,
        i: usize,
        ri: usize,
        t: O::Row<'a>,
        ci: usize,
    ) {
        let c = plan.col_maps[ri][ci];
        let slot = i * self.degree + c;
        let (x, y) = (self.data[slot], t.datum(ci));
        if x == y || y.is_nil() {
            return;
        }
        if x.is_nil() {
            self.data[slot] = y;
            return;
        }
        let attribute = plan.schema.attr_at(c).to_string();
        if policy == ConflictPolicy::Strict {
            if self.strict.is_none() {
                self.strict = Some(PolygenError::CoalesceConflict {
                    attribute,
                    left: x.to_string(),
                    right: y.to_string(),
                });
            }
            return;
        }
        let from = &self.from[i * self.arity..][..self.arity];
        let (datum, origin, intermediate) =
            merged_tags(plan, operands, from, c, ri, policy).expect("x is a contribution");
        let left = Cell::new(datum.clone(), origin, intermediate);
        let right = t.cell(ci);
        let winner = conflict_winner(policy, &left, &right).expect("Prefer* resolves");
        if winner.datum != *x {
            self.data[slot] = y;
        }
        self.conflicts.push(CoalesceConflict {
            tuple_index: i,
            attribute,
            left,
            right,
        });
    }

    /// Does the closed form hold for what this pass saw?
    fn closed_form(&self) -> bool {
        !(self.duplicate || self.ints && self.floats)
    }

    /// Output rows so far.
    fn rows(&self) -> usize {
        self.from.len() / self.arity
    }

    /// Output row `i`'s rank: the scan index of the row that created it,
    /// its first contribution (operands fold in order).
    fn rank(&self, plan: &MergePlan, i: usize) -> usize {
        let from = &self.from[i * self.arity..][..self.arity];
        let (k, &r) = from
            .iter()
            .enumerate()
            .find(|(_, &r)| r != ABSENT)
            .expect("every row has a creator");
        plan.offsets[k] + r as usize
    }

    /// The output rows all `filters` keep, in creation order, as
    /// late-built rows — with their ranks when `ranked`. Each kept row's
    /// cells will gain `K(v)` — the union of the key cells' origins
    /// across the contributing operands, exactly the mediator tags the
    /// ONTJ fold accretes step by step — and each filter's mediators, the
    /// origins of the merged cells it compared, as merge-then-filter
    /// gives them.
    fn keep<O: Operand>(
        &self,
        plan: &MergePlan,
        operands: &[O],
        filters: &[ColumnFilter<'_>],
        policy: ConflictPolicy,
        ranked: bool,
    ) -> Kept {
        let mut kept = Kept::default();
        if filters.is_empty() {
            kept.reserve(self.rows(), self.arity, self.degree);
        }
        for i in 0..self.rows() {
            let data = &self.data[i * self.degree..][..self.degree];
            if !filters.iter().all(|f| f.passes(data)) {
                continue;
            }
            let from = &self.from[i * self.arity..][..self.arity];
            // The key column's tags: every contribution carries the key.
            let (mut key_origin, mut key_intermediate) = (SourceSet::empty(), SourceSet::empty());
            for (k, &r) in from.iter().enumerate() {
                if r != ABSENT {
                    operands[k].row(r as usize).tags_into(
                        plan.key_ins[k],
                        &mut key_origin,
                        &mut key_intermediate,
                    );
                }
            }
            if !filters.is_empty() {
                // `K(v)` is the key column's origin, kept beside.
                let mut mediators = SourceSet::empty();
                for c in filters.iter().flat_map(ColumnFilter::mediator_columns) {
                    if c == plan.key_col {
                        continue;
                    }
                    if let Some((_, origin, _)) =
                        merged_tags(plan, operands, from, c, self.arity, policy)
                    {
                        mediators.union_with(&origin);
                    }
                }
                kept.mediators.push(mediators);
            }
            kept.from.extend_from_slice(from);
            kept.data.extend(data.iter().map(|&datum| datum.clone()));
            kept.keys.push((key_origin, key_intermediate));
            if ranked {
                kept.ranks.push(self.rank(plan, i));
            }
        }
        kept
    }
}

/// Merged rows before any cell exists: per row, `arity` operand row ids,
/// its `degree` coalesced data (shared, not copied: a clone of a string
/// datum is a reference count), the key column's origin (`K(v)`, which
/// every cell of the row gains as a mediator) and intermediate sets —
/// read once per pair by a join on the key, so kept rather than
/// replayed — the fused filters' mediators (none without filters) and,
/// in a split run, the row's rank. Every other column's tags are
/// replayed ([`merged_tags`]) when a consumer asks for them.
#[derive(Default)]
struct Kept {
    from: Vec<u32>,
    data: Vec<Value>,
    keys: Vec<(SourceSet, SourceSet)>,
    mediators: Vec<SourceSet>,
    ranks: Vec<usize>,
}

impl Kept {
    fn reserve(&mut self, rows: usize, arity: usize, degree: usize) {
        self.from.reserve(rows * arity);
        self.data.reserve(rows * degree);
        self.keys.reserve(rows);
    }
}

/// Output column `c` of the row whose contributions are `from`, as the
/// contributions of the operands before `upto` coalesce in operand order
/// (equal data union their tags, a nil side keeps the other, a nil datum
/// takes the other's cell, and a conflict goes to `policy` as
/// [`conflict_winner`] resolves it): its datum, origin and intermediate
/// sets. `None` when none of them carries the column. No datum is
/// cloned.
fn merged_tags<'a, O: Operand>(
    plan: &MergePlan,
    operands: &'a [O],
    from: &[u32],
    c: usize,
    upto: usize,
    policy: ConflictPolicy,
) -> Option<(&'a Value, SourceSet, SourceSet)> {
    let mut acc: Option<(&'a Value, SourceSet, SourceSet)> = None;
    for &(k, ci) in plan.sources[c].iter().take_while(|&&(k, _)| k < upto) {
        let r = from[k];
        if r == ABSENT {
            continue;
        }
        let t = operands[k].row(r as usize);
        let y = t.datum(ci);
        let fresh = || {
            let (mut origin, mut intermediate) = (SourceSet::empty(), SourceSet::empty());
            t.tags_into(ci, &mut origin, &mut intermediate);
            (y, origin, intermediate)
        };
        acc = Some(match acc {
            None => fresh(),
            Some((x, mut origin, mut intermediate)) if x == y => {
                t.tags_into(ci, &mut origin, &mut intermediate);
                (x, origin, intermediate)
            }
            Some(kept) if y.is_nil() => kept,
            Some((x, ..)) if x.is_nil() => fresh(),
            // A genuine conflict: the loser's tags become intermediates.
            Some((x, origin, mut intermediate)) => match policy {
                ConflictPolicy::PreferLeft => {
                    let mut lost = SourceSet::empty();
                    t.tags_into(ci, &mut lost, &mut intermediate);
                    intermediate.union_with(&lost);
                    (x, origin, intermediate)
                }
                ConflictPolicy::PreferRight => {
                    let (y, won, mut demoted) = fresh();
                    demoted.union_with(&origin);
                    demoted.union_with(&intermediate);
                    (y, won, demoted)
                }
                ConflictPolicy::Strict => unreachable!("the fold failed every Strict conflict"),
            },
        });
    }
    acc
}

/// The closed form's kept rows, late-built: a [`Kept`] without ranks
/// over the operands it names rows of.
struct LateMerge {
    plan: MergePlan,
    policy: ConflictPolicy,
    rows: Kept,
}

impl LateMerge {
    fn len(&self) -> usize {
        self.rows.keys.len()
    }

    /// Union the mediators every cell of row `i` gains into `into`:
    /// `K(v)`, then the fused filters'.
    fn mediators_into(&self, i: usize, into: &mut SourceSet) {
        into.union_with(&self.rows.keys[i].0);
        if let Some(mediators) = self.rows.mediators.get(i) {
            into.union_with(mediators);
        }
    }

    fn data(&self, i: usize) -> &[Value] {
        let degree = self.plan.schema.degree();
        &self.rows.data[i * degree..][..degree]
    }

    /// Row `i`'s column `c` tags before the row's mediators: the key's
    /// as kept, any other column's by replaying its coalesce.
    fn tags<O: Operand>(
        &self,
        operands: &[O],
        i: usize,
        c: usize,
    ) -> Option<(SourceSet, SourceSet)> {
        if c == self.plan.key_col {
            return Some(self.rows.keys[i].clone());
        }
        let arity = operands.len();
        let from = &self.rows.from[i * arity..][..arity];
        merged_tags(&self.plan, operands, from, c, arity, self.policy).map(|(_, o, m)| (o, m))
    }

    fn origin_into<O: Operand>(&self, operands: &[O], i: usize, c: usize, into: &mut SourceSet) {
        if c == self.plan.key_col {
            into.union_with(&self.rows.keys[i].0);
        } else if let Some((origin, _)) = self.tags(operands, i, c) {
            into.union_with(&origin);
        }
    }

    fn tags_into<O: Operand>(
        &self,
        operands: &[O],
        i: usize,
        c: usize,
        origin: &mut SourceSet,
        intermediate: &mut SourceSet,
    ) {
        if c == self.plan.key_col {
            let (o, m) = &self.rows.keys[i];
            origin.union_with(o);
            intermediate.union_with(m);
        } else if let Some((o, m)) = self.tags(operands, i, c) {
            origin.union_with(&o);
            intermediate.union_with(&m);
        }
        self.mediators_into(i, intermediate);
    }

    /// Row `i`'s merged cell `c`, built.
    fn cell<O: Operand>(&self, operands: &[O], i: usize, c: usize) -> Cell {
        let (origin, mut intermediate) = self
            .tags(operands, i, c)
            // Absent attributes pad with nil.
            .unwrap_or_else(|| (SourceSet::empty(), SourceSet::empty()));
        self.mediators_into(i, &mut intermediate);
        Cell::new(self.data(i)[c].clone(), origin, intermediate)
    }

    /// Build every kept row's cells, each once, column by column.
    fn materialize<O: Operand>(&self, operands: &[O]) -> PolygenRelation {
        let degree = self.plan.schema.degree();
        let tuples = (0..self.len())
            .map(|i| (0..degree).map(|c| self.cell(operands, i, c)).collect())
            .collect();
        PolygenRelation::from_tuples(Arc::clone(&self.plan.schema), tuples)
            .expect("merged rows have the merged degree")
    }
}

/// What a merge answers: the closed form's late-built rows, or the
/// reference fold's relation where the closed form does not hold.
enum Body {
    Late(Box<LateMerge>),
    Folded(PolygenRelation),
}

impl Body {
    /// Every kept row, built.
    fn into_relation<O: Operand>(self, operands: &[O]) -> PolygenRelation {
        match self {
            Body::Late(late) => late.materialize(operands),
            Body::Folded(rel) => rel,
        }
    }
}

/// A Merge's answer before any cell exists — what
/// [`hash_merge_view`] hands its consumers, the way a scan hands over a
/// late-tagged [`BaseRelation`](crate::base::BaseRelation). It owns the
/// operands (base relations share their rows by `Arc`) and holds, per
/// kept row, the operand row ids, the coalesced data, which operands'
/// cells lend each merged cell its tags, and the mediators every cell
/// of the row gains (`K(v)` and the fused filters'). A merged cell first
/// exists when a kernel writes it into an output row
/// ([`RowView::cell`]); a kernel that reads only data, origins or tags
/// builds none. [`Operand::materialize`] builds every kept row: the
/// relation merge-then-filter gives.
///
/// Where the closed form does not hold (duplicate keys, mixed
/// `Int`/`Float` keys, a lone operand) the view holds the reference
/// fold's relation, tagged, and reads it in place.
pub struct MergedView<O> {
    operands: Vec<O>,
    body: Body,
}

/// One row of a [`MergedView`].
pub struct MergedRow<'a, O> {
    view: &'a MergedView<O>,
    i: usize,
}

impl<O> Clone for MergedRow<'_, O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<O> Copy for MergedRow<'_, O> {}

impl<'a, O: Operand> RowView<'a> for MergedRow<'a, O> {
    #[inline]
    fn width(self) -> usize {
        self.view.schema().degree()
    }

    #[inline]
    fn datum(self, c: usize) -> &'a Value {
        match &self.view.body {
            Body::Late(late) => &late.data(self.i)[c],
            Body::Folded(rel) => &rel.tuples()[self.i][c].datum,
        }
    }

    #[inline]
    fn origin_into(self, c: usize, into: &mut SourceSet) {
        match &self.view.body {
            Body::Late(late) => late.origin_into(&self.view.operands, self.i, c, into),
            Body::Folded(rel) => rel.tuples()[self.i].as_slice().origin_into(c, into),
        }
    }

    #[inline]
    fn tags_into(self, c: usize, origin: &mut SourceSet, intermediate: &mut SourceSet) {
        match &self.view.body {
            Body::Late(late) => {
                late.tags_into(&self.view.operands, self.i, c, origin, intermediate)
            }
            Body::Folded(rel) => rel.tuples()[self.i]
                .as_slice()
                .tags_into(c, origin, intermediate),
        }
    }

    #[inline]
    fn cell(self, c: usize) -> Cell {
        match &self.view.body {
            Body::Late(late) => late.cell(&self.view.operands, self.i, c),
            Body::Folded(rel) => rel.tuples()[self.i][c].clone(),
        }
    }
}

impl<O: Operand> Operand for MergedView<O> {
    type Row<'a>
        = MergedRow<'a, O>
    where
        Self: 'a;

    fn schema(&self) -> &Arc<Schema> {
        match &self.body {
            Body::Late(late) => &late.plan.schema,
            Body::Folded(rel) => rel.schema(),
        }
    }
    fn len(&self) -> usize {
        match &self.body {
            Body::Late(late) => late.len(),
            Body::Folded(rel) => rel.len(),
        }
    }
    fn rows(&self) -> impl ExactSizeIterator<Item = MergedRow<'_, O>> {
        (0..self.len()).map(|i| self.row(i))
    }
    fn row(&self, i: usize) -> MergedRow<'_, O> {
        MergedRow { view: self, i }
    }
    fn materialize(&self) -> PolygenRelation {
        match &self.body {
            Body::Late(late) => late.materialize(&self.operands),
            Body::Folded(rel) => rel.clone(),
        }
    }
}

/// The view's rows, built — [`Operand::materialize`] without the copy
/// of a fallback's relation.
impl<O: Operand> From<MergedView<O>> for PolygenRelation {
    fn from(view: MergedView<O>) -> Self {
        view.body.into_relation(&view.operands)
    }
}

/// [`hash_merge_view`] without filters over borrowed operands, built:
/// the single-pass hash Merge on its own, [`merge`]'s relation. Returns
/// the merged relation, the resolved conflicts and the partition count
/// it ran at.
pub fn hash_merge_partitioned<O: Operand>(
    relations: &[O],
    key: &str,
    policy: ConflictPolicy,
    par: ParallelOptions,
) -> Result<(PolygenRelation, Vec<CoalesceConflict>, usize), PolygenError> {
    let (body, conflicts, used, _) = late_merge(relations, key, policy, &[], par)?;
    Ok((body.into_relation(relations), conflicts, used))
}

/// Single-pass, hash-based Merge — the physical-plan engine's kernel —
/// fused with the Select/Restrict chain `filters` over it:
/// `merge(relations)[filters…]` in one pass, answered as a
/// [`MergedView`] whose cells are built only when a consumer writes them
/// into its output. Materialized, the view is [`merge`] followed by
/// [`select()`](crate::algebra::select()) /
/// [`restrict()`](crate::algebra::restrict()) (cell-exact, tags and
/// errors included) without the quadratic ONTJ fold: one hash table
/// keyed on the primary key's datum, one pass over every operand tuple.
/// The ONTJ fold's tag discipline collapses to a closed form (derivable
/// from §II's definitions): for the output tuple of key `v`, let `K(v)`
/// be the union of the key cells' origins across the operands
/// containing `v`; then every cell coalesces its operands' raw
/// contributions in operand order (equal data → tag union, one-sided nil
/// → the non-nil cell verbatim, genuine conflict → `policy`), absent
/// attributes pad with nil, and finally every cell's intermediate set
/// gains `K(v)` — exactly the mediator tags the fold accretes step by
/// step. The pass coalesces data only; the filters test the coalesced
/// data of every output row, and only the rows they keep enter the view,
/// whose cells gain each filter's mediators after `K(v)`. Conflicts are
/// found in the pass, on every row: under `Strict` a conflict fails the
/// merge even on a row the filters drop.
///
/// At one partition (`par` serial) the fold runs inline over the
/// operands. Above one, every operand is hash-split on the merge key so
/// all contributions to one output row co-locate, the fold runs per
/// partition on a scoped worker, and the partitions' kept rows splice
/// back into the first-appearance order by rank — the view is
/// byte-identical (cells, tags *and* row order) on every partition
/// count.
///
/// Two inputs the closed form does not cover fall back to the reference
/// fold (then the filters) at any `par`: an operand with duplicate
/// non-nil key data (the fold cross-joins those tuples) and key columns
/// mixing `Int`/`Float` (the fold matches them through numeric
/// comparison, a hash table cannot). The pass detects both; a `Strict`
/// conflict it met first is then the fallback's to report.
///
/// The *relation* is identical across every path; the conflict records
/// are not — the closed form reports `tuple_index` against the merged
/// rows (before the filters), while the fold reports indices into its
/// intermediate join products, and split runs record (and a `Strict`
/// policy trips on) conflicts in partition order rather than scan order.
/// Treat them as diagnostic, not as a stable key.
///
/// Generic over the operand type ([`Operand`]): tagged relations are read
/// as they always were; late-tagged base relations are read in place and
/// each of their cells is built once, when it lands in an output row.
/// Returns the view, the conflicts, the partition count the merge ran at
/// (`1` on a single operand or a fallback), and how many rows the merge
/// itself had.
pub fn hash_merge_view<O: Operand>(
    relations: Vec<O>,
    key: &str,
    policy: ConflictPolicy,
    filters: &[RowFilter<'_>],
    par: ParallelOptions,
) -> Result<(MergedView<O>, Vec<CoalesceConflict>, usize, usize), PolygenError> {
    let (body, conflicts, used, rows) = late_merge(&relations, key, policy, filters, par)?;
    let view = MergedView {
        operands: relations,
        body,
    };
    Ok((view, conflicts, used, rows))
}

/// The merge [`hash_merge_view`] describes, over borrowed operands.
#[allow(clippy::type_complexity)]
fn late_merge<O: Operand>(
    relations: &[O],
    key: &str,
    policy: ConflictPolicy,
    filters: &[RowFilter<'_>],
    par: ParallelOptions,
) -> Result<(Body, Vec<CoalesceConflict>, usize, usize), PolygenError> {
    if relations.len() <= 1 {
        // An empty merge, a missing key and a lone operand are the
        // fold's, as they always were.
        return reference(relations, key, policy, filters);
    }
    check_merge_key(relations, key)?;
    let plan = MergePlan::new(relations, key)?;
    // Resolved up front, reported after the merge: merge-then-filter
    // fails on the merge first.
    let resolved: Result<Vec<ColumnFilter<'_>>, PolygenError> =
        filters.iter().map(|f| f.resolve(&plan.schema)).collect();
    if !par.is_parallel() {
        let fold = MergeFold::run(&plan, relations, None, policy);
        if !fold.closed_form() {
            return reference(relations, key, policy, filters);
        }
        if let Some(e) = fold.strict {
            return Err(e);
        }
        let rows = fold.keep(&plan, relations, &resolved?, policy, false);
        let merged = fold.rows();
        let late = LateMerge { plan, policy, rows };
        return Ok((Body::Late(Box::new(late)), fold.conflicts, 1, merged));
    }
    // Reference-only split (partition → operand → row ids): no cell is
    // built. An output row's rank is its creator's scan index, which IS
    // the row's position in the one-partition first-appearance order.
    let parter = Partitioner::new(par.partitions);
    let mut parts: Vec<Vec<Vec<u32>>> = (0..parter.partitions())
        .map(|_| vec![Vec::new(); relations.len()])
        .collect();
    for (ri, rel) in relations.iter().enumerate() {
        let ki = plan.key_ins[ri];
        // One contiguous hashing pass over the key column, then scatter.
        let buckets = parter.bucket_indices(rel.rows().map(|t| t.datum(ki)));
        for (r, &bucket) in buckets.iter().enumerate() {
            parts[bucket][ri].push(u32::try_from(r).expect("operand rows fit u32 row ids"));
        }
    }
    let tests = resolved.as_deref().ok();
    let mut results = scoped_map(parts, par.threads, |_, ids| {
        let fold = MergeFold::run(&plan, relations, Some(&ids), policy);
        // A partition that cannot finish the closed form keeps nothing.
        let kept = match tests.filter(|_| fold.closed_form() && fold.strict.is_none()) {
            Some(tests) => fold.keep(&plan, relations, tests, policy, true),
            None => Kept::default(),
        };
        (fold, kept)
    });
    // Mixed numeric keys may split across partitions.
    let mixed =
        results.iter().any(|(fold, _)| fold.ints) && results.iter().any(|(fold, _)| fold.floats);
    if mixed || results.iter().any(|(fold, _)| !fold.closed_form()) {
        return reference(relations, key, policy, filters);
    }
    if let Some(e) = results.iter_mut().find_map(|(fold, _)| fold.strict.take()) {
        return Err(e);
    }
    resolved?;
    let merged = results.iter().map(|(fold, _)| fold.rows()).sum();
    let conflicts = splice_conflicts(&plan, &mut results);
    // Splice the partitions' kept rows back into the one-partition
    // creation order.
    let (arity, degree) = (relations.len(), plan.schema.degree());
    let mut order: Vec<(usize, usize, usize)> = results
        .iter()
        .enumerate()
        .flat_map(|(p, (_, kept))| {
            kept.ranks
                .iter()
                .enumerate()
                .map(move |(j, &rank)| (rank, p, j))
        })
        .collect();
    order.sort_unstable_by_key(|&(rank, ..)| rank);
    let mut rows = Kept::default();
    rows.reserve(order.len(), arity, degree);
    for (_, p, j) in order {
        let kept = &mut results[p].1;
        rows.from
            .extend_from_slice(&kept.from[j * arity..][..arity]);
        rows.data.extend(
            kept.data[j * degree..][..degree]
                .iter_mut()
                .map(|datum| std::mem::replace(datum, Value::Null)),
        );
        rows.keys.push(std::mem::take(&mut kept.keys[j]));
        if let Some(mediators) = kept.mediators.get_mut(j) {
            rows.mediators.push(std::mem::take(mediators));
        }
    }
    let late = LateMerge { plan, policy, rows };
    Ok((
        Body::Late(Box::new(late)),
        conflicts,
        par.partitions,
        merged,
    ))
}

/// The split folds' conflicts in one list, in rank order, each
/// `tuple_index` pointing at its row's place among all merged rows.
fn splice_conflicts(
    plan: &MergePlan,
    results: &mut [(MergeFold<'_>, Kept)],
) -> Vec<CoalesceConflict> {
    if results.iter().all(|(fold, _)| fold.conflicts.is_empty()) {
        return Vec::new();
    }
    let mut ranks: Vec<usize> = Vec::new();
    let mut ranked: Vec<(usize, CoalesceConflict)> = Vec::new();
    for (fold, _) in results.iter_mut() {
        let base = ranks.len();
        ranks.extend((0..fold.rows()).map(|i| fold.rank(plan, i)));
        for c in std::mem::take(&mut fold.conflicts) {
            ranked.push((ranks[base + c.tuple_index], c));
        }
    }
    ranks.sort_unstable();
    let final_index: HashMap<usize, usize> = ranks
        .iter()
        .enumerate()
        .map(|(i, &rank)| (rank, i))
        .collect();
    ranked.sort_by_key(|(rank, _)| *rank);
    ranked
        .into_iter()
        .map(|(rank, mut c)| {
            c.tuple_index = final_index[&rank];
            c
        })
        .collect()
}

/// The reference fold, then `filters` with the reference operators:
/// [`hash_merge_view`] on one operand and on its fallbacks.
#[allow(clippy::type_complexity)]
fn reference<O: Operand>(
    relations: &[O],
    key: &str,
    policy: ConflictPolicy,
    filters: &[RowFilter<'_>],
) -> Result<(Body, Vec<CoalesceConflict>, usize, usize), PolygenError> {
    let (mut out, conflicts) = merge(&O::tagged(relations), key, policy)?;
    let rows = out.len();
    for f in filters {
        out = f.apply(&out)?;
    }
    Ok((Body::Folded(out), conflicts, 1, rows))
}

/// The schema a Merge of operands with these schemas produces — exactly
/// what the ONTJ fold ends with: attributes in first-appearance order
/// across operands, names chained with `x`, no key metadata (the fold's
/// coalesces rebuild schemas without keys). A single operand merges to
/// itself, key metadata included. Public so the physical-plan lowerer
/// predicts Merge output schemas without executing.
pub fn merged_schema(schemas: &[&Schema]) -> Result<Arc<Schema>, PolygenError> {
    let (first, rest) = schemas.split_first().ok_or(PolygenError::EmptyMerge)?;
    if rest.is_empty() {
        return Ok(Arc::new((*first).clone()));
    }
    let mut name = first.name().to_string();
    let mut attrs: Vec<Arc<str>> = first.attrs().to_vec();
    for s in rest {
        name = format!("{name}x{}", s.name());
        for a in s.attrs() {
            if !attrs.iter().any(|b| b == a) {
                attrs.push(Arc::clone(a));
            }
        }
    }
    Ok(Arc::new(Schema::from_parts(&name, attrs, Vec::new())?))
}

/// Merge with a caller-supplied conflict resolver (see
/// [`outer_natural_total_join_with`](crate::algebra::natural::outer_natural_total_join_with)).
pub fn merge_with<F>(
    relations: &[PolygenRelation],
    key: &str,
    mut resolve: F,
) -> Result<PolygenRelation, PolygenError>
where
    F: FnMut(
        &str,
        usize,
        &crate::cell::Cell,
        &crate::cell::Cell,
    ) -> Result<crate::cell::Cell, PolygenError>,
{
    let (first, rest) = relations.split_first().ok_or(PolygenError::EmptyMerge)?;
    check_merge_key(relations, key)?;
    let mut acc = first.clone();
    for next in rest {
        acc =
            crate::algebra::natural::outer_natural_total_join_with(&acc, next, key, &mut resolve)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::project::project;
    use crate::algebra::restrict::RowFilter;
    use crate::source::SourceId;
    use polygen_flat::relation::Relation;
    use polygen_flat::value::Value;

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn rel(name: &str, attrs: &[&str], rows: &[&[&str]], src: u16) -> PolygenRelation {
        let mut b = Relation::build(name, attrs).key(&[attrs[0]]);
        for r in rows {
            b = b.row(r);
        }
        PolygenRelation::from_flat(&b.finish().unwrap(), sid(src))
    }

    fn three_sources() -> [PolygenRelation; 3] {
        [
            rel(
                "BUSINESS",
                &["ONAME", "INDUSTRY"],
                &[&["IBM", "High Tech"], &["MIT", "Education"]],
                0,
            ),
            rel(
                "CORPORATION",
                &["ONAME", "INDUSTRY", "HEADQUARTERS"],
                &[&["IBM", "High Tech", "NY"], &["Apple", "High Tech", "CA"]],
                1,
            ),
            rel(
                "FIRM",
                &["ONAME", "CEO", "HEADQUARTERS"],
                &[
                    &["IBM", "John Ackers", "NY"],
                    &["Apple", "John Sculley", "CA"],
                ],
                2,
            ),
        ]
    }

    /// Compare two merges ignoring column order: project both onto the
    /// sorted union of attribute names.
    fn eq_up_to_column_order(a: &PolygenRelation, b: &PolygenRelation) -> bool {
        let mut attrs: Vec<&str> = a.schema().attrs().iter().map(|s| s.as_ref()).collect();
        attrs.sort_unstable();
        let mut battrs: Vec<&str> = b.schema().attrs().iter().map(|s| s.as_ref()).collect();
        battrs.sort_unstable();
        if attrs != battrs {
            return false;
        }
        let pa = project(a, &attrs).unwrap();
        let pb = project(b, &attrs).unwrap();
        pa.tagged_set_eq(&pb)
    }

    #[test]
    fn merge_of_three_has_union_of_keys_and_attrs() {
        let rels = three_sources();
        let (m, conflicts) = merge(&rels, "ONAME", ConflictPolicy::Strict).unwrap();
        assert!(conflicts.is_empty());
        assert_eq!(m.len(), 3); // IBM, MIT, Apple
        let names: Vec<&str> = m.schema().attrs().iter().map(|a| a.as_ref()).collect();
        assert_eq!(names, vec!["ONAME", "INDUSTRY", "HEADQUARTERS", "CEO"]);
        // IBM known to all three sources.
        let ibm = m.cell("ONAME", &Value::str("IBM"), "ONAME").unwrap();
        assert_eq!(ibm.origin.len(), 3);
        // MIT's CEO is nil with i = {AD}.
        let mit_ceo = m.cell("ONAME", &Value::str("MIT"), "CEO").unwrap();
        assert!(mit_ceo.is_nil());
        assert!(mit_ceo.intermediate.contains(sid(0)));
    }

    #[test]
    fn merge_order_is_immaterial() {
        let r = three_sources();
        let orders: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let baseline = merge(
            &[r[0].clone(), r[1].clone(), r[2].clone()],
            "ONAME",
            ConflictPolicy::Strict,
        )
        .unwrap()
        .0;
        for ord in &orders[1..] {
            let m = merge(
                &[r[ord[0]].clone(), r[ord[1]].clone(), r[ord[2]].clone()],
                "ONAME",
                ConflictPolicy::Strict,
            )
            .unwrap()
            .0;
            assert!(
                eq_up_to_column_order(&baseline, &m),
                "order {ord:?} diverged"
            );
        }
    }

    #[test]
    fn single_relation_merges_to_itself() {
        let rels = three_sources();
        let (m, _) = merge(&rels[..1], "ONAME", ConflictPolicy::Strict).unwrap();
        assert!(m.tagged_set_eq(&rels[0]));
    }

    #[test]
    fn empty_merge_and_missing_key_error() {
        assert!(matches!(
            merge(&[], "K", ConflictPolicy::Strict),
            Err(PolygenError::EmptyMerge)
        ));
        let rels = three_sources();
        assert!(matches!(
            merge(&rels, "NOKEY", ConflictPolicy::Strict),
            Err(PolygenError::MissingMergeKey { .. })
        ));
    }

    /// hash_merge is differential-tested against the ONTJ fold: same
    /// schema, same tuples, same tags, same order.
    fn assert_hash_matches_fold(rels: &[PolygenRelation], key: &str, policy: ConflictPolicy) {
        let fold = merge(rels, key, policy).unwrap().0;
        let hashed = hash_merge(rels, key, policy).unwrap().0;
        let fold_attrs: Vec<&str> = fold.schema().attrs().iter().map(|a| a.as_ref()).collect();
        let hash_attrs: Vec<&str> = hashed.schema().attrs().iter().map(|a| a.as_ref()).collect();
        assert_eq!(fold_attrs, hash_attrs, "schemas diverge");
        assert_eq!(fold.name(), hashed.name(), "schema names diverge");
        assert_eq!(
            fold.tuples(),
            hashed.tuples(),
            "tuples diverge (order included)"
        );
    }

    #[test]
    fn hash_merge_matches_fold_on_three_sources() {
        assert_hash_matches_fold(&three_sources(), "ONAME", ConflictPolicy::Strict);
    }

    #[test]
    fn hash_merge_matches_fold_with_conflicts() {
        let mut rels = three_sources();
        for t in rels[1].tuples_mut() {
            if t[0].datum == Value::str("Apple") {
                t[2].datum = Value::str("TX");
            }
        }
        assert!(hash_merge(&rels, "ONAME", ConflictPolicy::Strict).is_err());
        assert_hash_matches_fold(&rels, "ONAME", ConflictPolicy::PreferLeft);
        assert_hash_matches_fold(&rels, "ONAME", ConflictPolicy::PreferRight);
        let (_, conflicts) = hash_merge(&rels, "ONAME", ConflictPolicy::PreferLeft).unwrap();
        assert_eq!(conflicts.len(), 1);
    }

    #[test]
    fn hash_merge_matches_fold_with_nil_keys_and_nil_data() {
        let mut rels = three_sources();
        // A nil key in CORPORATION and a nil non-key datum in FIRM.
        rels[1].tuples_mut()[1][0].datum = Value::Null;
        rels[2].tuples_mut()[0][2].datum = Value::Null;
        assert_hash_matches_fold(&rels, "ONAME", ConflictPolicy::Strict);
    }

    #[test]
    fn hash_merge_single_operand_and_errors_match() {
        let rels = three_sources();
        let (m, _) = hash_merge(&rels[..1], "ONAME", ConflictPolicy::Strict).unwrap();
        assert!(m.tagged_set_eq(&rels[0]));
        assert!(matches!(
            hash_merge::<PolygenRelation>(&[], "K", ConflictPolicy::Strict),
            Err(PolygenError::EmptyMerge)
        ));
        assert!(matches!(
            hash_merge(&rels, "NOKEY", ConflictPolicy::Strict),
            Err(PolygenError::MissingMergeKey { .. })
        ));
    }

    /// hash_merge_partitioned must match the sequential hash_merge (and
    /// therefore the fold) tuple-for-tuple, order included, on every
    /// thread/partition combination.
    fn assert_partitioned_matches_sequential(
        rels: &[PolygenRelation],
        key: &str,
        policy: ConflictPolicy,
    ) {
        let (seq, _) = hash_merge(rels, key, policy).unwrap();
        for (threads, partitions) in [(1, 1), (2, 2), (4, 4), (8, 8), (2, 8), (1, 4)] {
            let par = ParallelOptions {
                threads,
                partitions,
            };
            let (parl, _, _) = hash_merge_partitioned(rels, key, policy, par).unwrap();
            assert_eq!(
                seq.schema().attrs(),
                parl.schema().attrs(),
                "{threads}t/{partitions}p schemas diverge"
            );
            assert_eq!(
                seq.tuples(),
                parl.tuples(),
                "{threads}t/{partitions}p tuples diverge (order included)"
            );
        }
    }

    #[test]
    fn partitioned_merge_matches_sequential_on_three_sources() {
        assert_partitioned_matches_sequential(&three_sources(), "ONAME", ConflictPolicy::Strict);
    }

    #[test]
    fn partitioned_merge_matches_with_nils_and_conflicts() {
        let mut rels = three_sources();
        rels[1].tuples_mut()[1][0].datum = Value::Null;
        rels[2].tuples_mut()[0][2].datum = Value::Null;
        assert_partitioned_matches_sequential(&rels, "ONAME", ConflictPolicy::Strict);
        let mut conflicted = three_sources();
        for t in conflicted[1].tuples_mut() {
            if t[0].datum == Value::str("Apple") {
                t[2].datum = Value::str("TX");
            }
        }
        assert_partitioned_matches_sequential(&conflicted, "ONAME", ConflictPolicy::PreferLeft);
        assert_partitioned_matches_sequential(&conflicted, "ONAME", ConflictPolicy::PreferRight);
        assert!(hash_merge_partitioned(
            &conflicted,
            "ONAME",
            ConflictPolicy::Strict,
            ParallelOptions::with_threads(4)
        )
        .is_err());
        let (_, conflicts, used) = hash_merge_partitioned(
            &conflicted,
            "ONAME",
            ConflictPolicy::PreferLeft,
            ParallelOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(conflicts.len(), 1);
        assert_eq!(used, 4);
        // The remapped tuple_index points at the final output row.
        let (m, _, _) = hash_merge_partitioned(
            &conflicted,
            "ONAME",
            ConflictPolicy::PreferLeft,
            ParallelOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(
            m.tuples()[conflicts[0].tuple_index][0].datum,
            Value::str("Apple")
        );
    }

    #[test]
    fn partitioned_merge_falls_back_on_duplicate_and_mixed_keys() {
        // Duplicate non-nil key inside one operand → reference fold.
        let mut dup = three_sources();
        let extra = dup[0].tuples()[0].clone();
        dup[0].tuples_mut().push(extra);
        let fold = merge(&dup, "ONAME", ConflictPolicy::Strict).unwrap().0;
        let (parl, _, used) = hash_merge_partitioned(
            &dup,
            "ONAME",
            ConflictPolicy::Strict,
            ParallelOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(fold.tuples(), parl.tuples());
        assert_eq!(used, 1, "a duplicate key runs the sequential fold");
        // Int/Float mixing in the key columns → reference fold.
        let mut mixed = three_sources();
        mixed[0].tuples_mut()[0][0].datum = Value::int(1);
        mixed[1].tuples_mut()[0][0].datum = Value::float(2.5);
        let fold = merge(&mixed, "ONAME", ConflictPolicy::Strict).unwrap().0;
        let (parl, _, used) = hash_merge_partitioned(
            &mixed,
            "ONAME",
            ConflictPolicy::Strict,
            ParallelOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(fold.tuples(), parl.tuples());
        assert_eq!(used, 1, "mixed Int/Float keys run the sequential fold");
        // A θ-matching Int/Float key pair (1 = 1.0) conflicts on the key
        // coalesce in the fold; the fallback must reject it identically.
        mixed[1].tuples_mut()[0][0].datum = Value::float(1.0);
        assert!(merge(&mixed, "ONAME", ConflictPolicy::Strict).is_err());
        assert!(hash_merge_partitioned(
            &mixed,
            "ONAME",
            ConflictPolicy::Strict,
            ParallelOptions::with_threads(4)
        )
        .is_err());
    }

    #[test]
    fn partitioned_merge_single_operand_and_errors_match() {
        let rels = three_sources();
        let par = ParallelOptions::with_threads(4);
        let (m, _, used) =
            hash_merge_partitioned(&rels[..1], "ONAME", ConflictPolicy::Strict, par).unwrap();
        assert_eq!(used, 1);
        assert!(m.tagged_set_eq(&rels[0]));
        assert!(matches!(
            hash_merge_partitioned::<PolygenRelation>(&[], "K", ConflictPolicy::Strict, par),
            Err(PolygenError::EmptyMerge)
        ));
        assert!(matches!(
            hash_merge_partitioned(&rels, "NOKEY", ConflictPolicy::Strict, par),
            Err(PolygenError::MissingMergeKey { .. })
        ));
    }

    #[test]
    fn hash_merge_falls_back_on_duplicate_keys() {
        let mut rels = three_sources();
        // Duplicate IBM key inside BUSINESS → the closed form would miss
        // the fold's cross-matching; the fallback keeps results identical.
        let dup = rels[0].tuples()[0].clone();
        rels[0].tuples_mut().push(dup);
        assert_hash_matches_fold(&rels, "ONAME", ConflictPolicy::Strict);
    }

    /// Three sources where CORPORATION and FIRM disagree on Apple's HQ.
    fn apple_conflict() -> [PolygenRelation; 3] {
        let mut rels = three_sources();
        for t in rels[1].tuples_mut() {
            if t[0].datum == Value::str("Apple") {
                t[2].datum = Value::str("TX");
            }
        }
        rels
    }

    #[test]
    fn strict_conflict_fails_the_merge_on_a_row_the_select_drops() {
        let rels = apple_conflict();
        let ibm = Value::str("IBM");
        let only_ibm = [RowFilter::Select {
            attr: "ONAME",
            cmp: polygen_flat::value::Cmp::Eq,
            value: &ibm,
        }];
        for par in [ParallelOptions::serial(), ParallelOptions::with_threads(4)] {
            let strict = hash_merge_view(
                rels.to_vec(),
                "ONAME",
                ConflictPolicy::Strict,
                &only_ibm,
                par,
            )
            .map(|(view, ..)| PolygenRelation::from(view));
            assert!(
                matches!(strict, Err(PolygenError::CoalesceConflict { .. })),
                "{par:?}: {strict:?}"
            );
            let (kept, conflicts, _, merged) = hash_merge_view(
                rels.to_vec(),
                "ONAME",
                ConflictPolicy::PreferLeft,
                &only_ibm,
                par,
            )
            .unwrap();
            assert_eq!((kept.len(), merged, conflicts.len()), (1, 3, 1));
        }
    }

    /// A `Strict` conflict the pass meets before a duplicate key does not
    /// decide the answer: the duplicate sends the merge to the reference
    /// fold, whose answer (or error) it is, at one partition and split.
    #[test]
    fn strict_conflict_before_a_duplicate_key_answers_as_the_fold() {
        let mut rels = apple_conflict();
        // FIRM's rows run IBM, Apple (the conflict), then IBM again.
        let dup = rels[2].tuples()[0].clone();
        rels[2].tuples_mut().push(dup);
        let fold = merge(&rels, "ONAME", ConflictPolicy::Strict);
        for par in [ParallelOptions::serial(), ParallelOptions::with_threads(4)] {
            let hashed = hash_merge_partitioned(&rels, "ONAME", ConflictPolicy::Strict, par);
            match (&fold, hashed) {
                (Ok((fold, _)), Ok((hashed, _, used))) => {
                    assert_eq!(fold.tuples(), hashed.tuples());
                    assert_eq!(used, 1);
                }
                (Err(fold), Err(hashed)) => assert_eq!(fold.to_string(), hashed.to_string()),
                (fold, hashed) => panic!("{par:?}: fold {fold:?} vs hashed {hashed:?}"),
            }
        }
    }

    #[test]
    fn merge_collects_conflicts() {
        let mut rels = three_sources();
        // CORPORATION disagrees with FIRM on Apple's HQ.
        for t in rels[1].tuples_mut() {
            if t[0].datum == Value::str("Apple") {
                t[2].datum = Value::str("TX");
            }
        }
        assert!(merge(&rels, "ONAME", ConflictPolicy::Strict).is_err());
        let (m, conflicts) = merge(&rels, "ONAME", ConflictPolicy::PreferLeft).unwrap();
        assert_eq!(conflicts.len(), 1);
        let hq = m
            .cell("ONAME", &Value::str("Apple"), "HEADQUARTERS")
            .unwrap();
        assert_eq!(hq.datum, Value::str("TX"));
        assert!(hq.intermediate.contains(sid(2)), "CD demoted to mediator");
    }
}
