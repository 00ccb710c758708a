//! Join — derived operator: "Join and Select are defined through Restrict,
//! \[so\] they also update t(i)" (§II).
//!
//! A θ-join is the restriction of a Cartesian product; it is evaluated here
//! without materializing the product, with a hash-join fast path for
//! equality (the perf-book's "improve the algorithm first" advice — the
//! paper's own PQP would nest loops).
//!
//! [`equi_join_coalesced`] additionally coalesces the two join columns into
//! a single column: this is exactly how the paper *prints* joins — Table 5
//! has one `AID#` column, Table 7 one `ONAME` column whose origin sets are
//! the unions of the two join attributes' origins.

use crate::algebra::coalesce::{coalesce, ConflictPolicy};
use crate::base::{Operand, RowView};
use crate::cell::Cell;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::source::SourceSet;
use crate::stream::{scoped_map, ParallelOptions, Partitioner};
use crate::tuple::{self, DataKey, PolyTuple};
use polygen_flat::schema::Schema;
use polygen_flat::value::{Cmp, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// `p1 [x θ y] p2` — θ-join with the Restrict tag update: every cell of a
/// joined tuple gains `t1[x](o) ∪ t2[y](o)` in its intermediate set.
pub fn theta_join(
    p1: &PolygenRelation,
    p2: &PolygenRelation,
    x: &str,
    cmp: Cmp,
    y: &str,
) -> Result<PolygenRelation, PolygenError> {
    let xi = p1.schema().index_of(x)?.0;
    let yi = p2.schema().index_of(y)?.0;
    let schema = Arc::new(
        p1.schema()
            .concat(p2.schema(), &format!("{}x{}", p1.name(), p2.name()))?,
    );
    let mut tuples: Vec<PolyTuple> = Vec::new();
    let mut emit = |a: &[Cell], b: &[Cell]| {
        let mut t = Vec::with_capacity(a.len() + b.len());
        t.extend(a.iter().cloned());
        t.extend(b.iter().cloned());
        let mediators = a[xi].origin.union(&b[yi].origin);
        tuple::add_intermediate_all(&mut t, &mediators);
        tuples.push(t);
    };
    if cmp == Cmp::Eq {
        let table = equi_table(p1, xi, p2, yi);
        for a in p1.tuples() {
            for (_, b) in table.matches(&a[xi].datum) {
                emit(a, b);
            }
        }
    } else {
        for a in p1.tuples() {
            for b in p2.tuples() {
                if a[xi].datum.satisfies(cmp, &b[yi].datum) {
                    emit(a, b);
                }
            }
        }
    }
    PolygenRelation::from_tuples(schema, tuples)
}

/// End of a build-row chain in `EquiTable::next`.
const CHAIN_END: u32 = u32::MAX;

/// The build side of an equality join: the non-`nil` build rows once, in
/// build order, chained by key — `head` maps each distinct key to its
/// first row and `next[r]` links row `r` to the next row with an equal
/// key. One hash table plus one `u32` per row, instead of a `Vec` per
/// distinct key.
///
/// Every equality kernel probes through it — [`theta_join`]'s equality
/// path, [`hash_equi_join_coalesced`], each partition of
/// [`hash_equi_join_project`] and anti-join — so
/// none of them can diverge on match semantics or match order.
pub(crate) struct EquiTable<'p, B> {
    rows: Vec<B>,
    head: HashMap<&'p Value, u32>,
    next: Vec<u32>,
    yi: usize,
    /// Do the key columns mix `Int` and `Float` data? Arms the
    /// cross-type rescan in [`EquiTable::matches`].
    mixed: bool,
    /// Does every chain hold one row, i.e. is every non-`nil` key
    /// distinct (a merge's key, a relation's declared key)?
    unique: bool,
}

impl<'p, B: RowView<'p>> EquiTable<'p, B> {
    /// Chain `rows` on column `yi`. `nil` keys never match, so their rows
    /// are dropped here.
    fn build(rows: impl Iterator<Item = B>, yi: usize, mixed: bool) -> Self {
        let rows: Vec<B> = rows.filter(|b| !b.datum(yi).is_nil()).collect();
        assert!(
            u32::try_from(rows.len()).is_ok(),
            "build side fits u32 row ids"
        );
        let mut head: HashMap<&'p Value, u32> = HashMap::with_capacity(rows.len());
        let mut next = vec![CHAIN_END; rows.len()];
        let mut unique = true;
        // Back to front: each row links to the head it displaces, so every
        // chain walks in build order.
        for (r, b) in rows.iter().enumerate().rev() {
            if let Some(later) = head.insert(b.datum(yi), r as u32) {
                next[r] = later;
                unique = false;
            }
        }
        EquiTable {
            rows,
            head,
            next,
            yi,
            mixed,
            unique,
        }
    }

    /// The build rows θ-equal to `key`, in build order, each with its
    /// row id in the table: `key`'s chain, then — only when the key
    /// columns mix `Int` and `Float` — the rows of the other numeric type
    /// that equal it (`1 = 1.0` holds through θ but lands in another hash
    /// bucket). `nil` matches nothing: no `nil`-keyed row is in the table.
    pub(crate) fn matches<'t>(&'t self, key: &'t Value) -> impl Iterator<Item = (u32, B)> + 't {
        let chain = std::iter::successors(self.head.get(key).copied(), |&r| {
            Some(self.next[r as usize]).filter(|&n| n != CHAIN_END)
        })
        .map(|r| (r, self.rows[r as usize]));
        let rescan = self.mixed && matches!(key, Value::Int(_) | Value::Float(_));
        let others: &[B] = if rescan { &self.rows } else { &[] };
        let cross = (0..).zip(others.iter().copied()).filter(move |(_, b)| {
            let d = b.datum(self.yi);
            std::mem::discriminant(key) != std::mem::discriminant(d) && key.satisfies(Cmp::Eq, d)
        });
        chain.chain(cross)
    }
}

/// The [`EquiTable`] over `p2[yi]` for probing with `p1[xi]`.
pub(crate) fn equi_table<'p, L: Operand, R: Operand>(
    p1: &L,
    xi: usize,
    p2: &'p R,
    yi: usize,
) -> EquiTable<'p, R::Row<'p>> {
    EquiTable::build(p2.rows(), yi, mixed_numeric_keys(p1, xi, p2, yi))
}

/// Equi-join that coalesces the two join columns into one column named
/// `out` (defaulting callers typically pass the right side's polygen
/// name). The coalesce can never conflict: joined tuples agree on the join
/// data by construction.
pub fn equi_join_coalesced(
    p1: &PolygenRelation,
    p2: &PolygenRelation,
    x: &str,
    y: &str,
    out: &str,
) -> Result<PolygenRelation, PolygenError> {
    let joined = theta_join(p1, p2, x, Cmp::Eq, y)?;
    let yi_joined = p1.degree() + p2.schema().index_of(y)?.0;
    let left_name = joined
        .schema()
        .attr_at(p1.schema().index_of(x)?.0)
        .to_string();
    let right_name = joined.schema().attr_at(yi_joined).to_string();
    coalesce(
        &joined,
        &left_name,
        &right_name,
        out,
        ConflictPolicy::Strict,
    )
}

/// [`hash_equi_join_project`] at one partition with no Project: the
/// single-pass fused join on its own.
pub fn hash_equi_join_coalesced<L: Operand, R: Operand>(
    p1: &L,
    p2: &R,
    x: &str,
    y: &str,
    out: &str,
) -> Result<PolygenRelation, PolygenError> {
    hash_equi_join_project(p1, p2, x, y, out, None, ParallelOptions::serial())
        .map(|(joined, _, _)| joined)
}

/// How the coalesced equi-join emits a matched pair `(a, b)`: which
/// output columns it builds, read off the concatenated pair `a ++ b`
/// (the coalesced key column reads `a[xi]`, the join column `b[yi]` is
/// never built), and whether rows equal on them collapse into their
/// first occurrence, as Project's do. The full join is the identity map
/// without collapse; a join fused with the Project over it keeps only
/// the projected columns and collapses. One emit for both, and for the
/// one-partition and the split paths, so none can diverge on emit
/// semantics.
struct JoinEmit<'k> {
    /// Per output column, its position in `a ++ b`.
    src: &'k [usize],
    xi: usize,
    yi: usize,
    collapse: bool,
    /// Does the collapse keep the coalesced key and otherwise only `b`'s
    /// columns? Over a build side with one row per key, each output row
    /// is then one build row's: see [`First::ByRow`].
    keyed_by_build: bool,
    /// The coalesced column's name, for the conflict error.
    out: &'k str,
}

/// A build row no output row has come from yet, in [`First::ByRow`].
const UNSEEN: u32 = u32::MAX;

/// The collapse's index of first occurrences.
enum First<'k, A, B> {
    /// No collapse: every pair is an output row.
    Every,
    /// Keyed by the borrowed projected data: each output row's position
    /// and the id of the build row that made it.
    ByData(HashMap<DataKey<'k, (A, B)>, (usize, u32)>),
    /// Per build row, the output row it made, or [`UNSEEN`]. Exact when
    /// the build keys are distinct and θ-equality is `==` (no `Int` /
    /// `Float` mix) and the output keeps the key plus build columns: two
    /// pairs then agree on the projected data exactly when they share a
    /// build row.
    ByRow(Vec<u32>),
}

/// What one run of a [`JoinEmit`] has built: output rows in order of
/// first occurrence, the collapse's index over them, and the matched
/// pairs seen (collapsed or not).
struct Emitted<'k, A, B> {
    rows: Vec<PolyTuple>,
    first: First<'k, A, B>,
    /// Do all probe rows carry identical tags (a late-tagged leaf)? A
    /// repeat of a build row by such a probe row then unions nothing new.
    uniform_probe: bool,
    pairs: usize,
}

impl<'k> JoinEmit<'k> {
    /// A fresh run against `table`, probed by `probe` rows of an operand
    /// whose rows all carry identical tags when `uniform_probe` holds. A
    /// data-keyed index starts with room for as many rows as the smaller
    /// side has, because a growing index re-hashes every row it holds.
    fn start<'p, A, B: RowView<'p>>(
        &self,
        table: &EquiTable<'p, B>,
        probe: usize,
        uniform_probe: bool,
    ) -> Emitted<'k, A, B> {
        let build = table.rows.len();
        let first = if !self.collapse {
            First::Every
        } else if self.keyed_by_build && table.unique && !table.mixed {
            First::ByRow(vec![UNSEEN; build])
        } else {
            First::ByData(HashMap::with_capacity(probe.min(build)))
        };
        Emitted {
            rows: Vec::new(),
            first,
            uniform_probe,
            pairs: 0,
        }
    }

    /// Emit the matched pair `(a, b)` — `b` the build row `r` — with the
    /// Restrict-style mediator update `a[xi](o) ∪ b[yi](o)` on every
    /// cell: as a new output row (`true`), or — a duplicate of an earlier
    /// row on the projected data — by unioning its tags attribute-wise
    /// into that row.
    fn emit<'a, A: RowView<'a>, B: RowView<'a>>(
        &self,
        into: &mut Emitted<'k, A, B>,
        a: A,
        (r, b): (u32, B),
    ) -> Result<bool, PolygenError> {
        into.pairs += 1;
        if a.datum(self.xi) != b.datum(self.yi) {
            // Data equal through θ but not through `==` (Int vs Float):
            // the reference path's strict coalesce rejects this too.
            return Err(PolygenError::CoalesceConflict {
                attribute: self.out.to_string(),
                left: a.datum(self.xi).to_string(),
                right: b.datum(self.yi).to_string(),
            });
        }
        let pair = (a, b);
        let next = into.rows.len();
        let seen = match &mut into.first {
            First::Every => None,
            First::ByRow(made) => match made[r as usize] {
                UNSEEN => {
                    made[r as usize] = u32::try_from(next).expect("output rows fit u32 row ids");
                    None
                }
                row => Some((row as usize, r)),
            },
            First::ByData(first) => match first.entry(DataKey::of(pair, self.src)) {
                Entry::Occupied(e) => Some(*e.get()),
                Entry::Vacant(e) => {
                    e.insert((next, r));
                    None
                }
            },
        };
        if let Some((row, by)) = seen {
            // The build row that made this row already lent it its cells'
            // tags and `b[yi](o)`: unions are idempotent, so only `a`'s
            // side is new — and nothing is when every probe row carries
            // the same tags. Over a build side with one row per key (a
            // merge), every duplicate of a Project that keeps the key is
            // of this kind.
            let again = by == r;
            if !(again && into.uniform_probe) {
                self.absorb(&mut into.rows[row], pair, again);
            }
            return Ok(false);
        }
        let mut mediators = SourceSet::empty();
        a.origin_into(self.xi, &mut mediators);
        b.origin_into(self.yi, &mut mediators);
        // Both unions commute with dropping what the answer drops, so a
        // cell gets the same tags built once or absorbed later.
        let row = self
            .src
            .iter()
            .map(|&s| {
                let mut cell = pair.cell(s);
                if s == self.xi {
                    b.absorb_into(self.yi, &mut cell);
                }
                cell.add_intermediate(&mediators);
                cell
            })
            .collect();
        into.rows.push(row);
        Ok(true)
    }

    /// Union the duplicate pair `(a, b)`'s tags into the output row it
    /// repeats. With `again` (the same build row made that row) only
    /// `a`'s side is new.
    fn absorb<'a, A: RowView<'a>, B: RowView<'a>>(
        &self,
        row: &mut [Cell],
        (a, b): (A, B),
        again: bool,
    ) {
        let mut mediators = SourceSet::empty();
        a.origin_into(self.xi, &mut mediators);
        if !again {
            b.origin_into(self.yi, &mut mediators);
        }
        for (cell, &s) in row.iter_mut().zip(self.src) {
            if !again || s < a.width() {
                (a, b).absorb_into(s, cell);
            }
            if s == self.xi && !again {
                b.absorb_into(self.yi, cell);
            }
            cell.add_intermediate(&mediators);
        }
    }

    /// Run the join `p1[xi] = p2[yi]` through this emit at up to `par`
    /// partitions. Returns the output rows, the partition count it ran
    /// at and the matched pairs.
    ///
    /// Above one partition, both sides hash-split on the join key so
    /// matching tuples co-locate, each partition builds + probes on a
    /// scoped worker, and the emits reassemble in probe order — the
    /// output is byte-identical (tuples, tags *and* order) on every
    /// partition count. A collapse that keeps the key column is
    /// partition-local: rows equal on it share a key, hence a
    /// partition, so each partition's first occurrences are the global
    /// ones and the probe-index splice orders them. It declines to split
    /// when an input is empty, when the key columns mix `Int`/`Float`
    /// data (a `1 = 1.0` match crosses hash partitions exactly like it
    /// crosses hash buckets — the one-partition rescan handles it,
    /// partitioning cannot), and when a collapse drops the key column
    /// (rows of different keys may then collapse together).
    fn run<'p, L: Operand, R: Operand>(
        &self,
        p1: &'p L,
        p2: &'p R,
        par: ParallelOptions,
    ) -> Result<(Vec<PolyTuple>, usize, usize), PolygenError> {
        let (xi, yi) = (self.xi, self.yi);
        let partition_local = !self.collapse || self.src.contains(&xi);
        if !par.is_parallel()
            || !partition_local
            || p1.is_empty()
            || p2.is_empty()
            || mixed_numeric_keys(p1, xi, p2, yi)
        {
            let table = equi_table(p1, xi, p2, yi);
            let mut emitted = self.start(&table, p1.len(), L::UNIFORM_TAGS);
            for a in p1.rows() {
                for b in table.matches(a.datum(xi)) {
                    self.emit(&mut emitted, a, b)?;
                }
            }
            return Ok((emitted.rows, 1, emitted.pairs));
        }
        let parter = Partitioner::new(par.partitions);
        // Reference-only split: partitioning pushes row views, never
        // builds a cell. nil keys never join, so they are dropped here
        // outright. Each side's key column is hashed in one contiguous
        // pass (`bucket_indices`), then the scatter loop is plain array
        // reads.
        let probe_buckets = parter.bucket_indices(p1.rows().map(|t| t.datum(xi)));
        let mut probe: Vec<Vec<(usize, L::Row<'p>)>> = (0..parter.partitions())
            .map(|_| Vec::with_capacity(p1.len() / parter.partitions() + 1))
            .collect();
        for ((i, t), &bucket) in p1.rows().enumerate().zip(&probe_buckets) {
            if !t.datum(xi).is_nil() {
                probe[bucket].push((i, t));
            }
        }
        let build_buckets = parter.bucket_indices(p2.rows().map(|t| t.datum(yi)));
        let mut build: Vec<Vec<R::Row<'p>>> = (0..parter.partitions())
            .map(|_| Vec::with_capacity(p2.len() / parter.partitions() + 1))
            .collect();
        for (t, &bucket) in p2.rows().zip(&build_buckets) {
            if !t.datum(yi).is_nil() {
                build[bucket].push(t);
            }
        }
        let parts: Vec<_> = probe.into_iter().zip(build).collect();
        let results = scoped_map(parts, par.threads, |_, (probe, build)| {
            // Homogeneous keys (the mixed case fell back above): no rescan.
            let table = EquiTable::build(build.into_iter(), yi, false);
            let mut emitted = self.start(&table, probe.len(), L::UNIFORM_TAGS);
            let mut probe_index: Vec<usize> = Vec::new();
            for (orig, a) in probe {
                for b in table.matches(a.datum(xi)) {
                    if self.emit(&mut emitted, a, b)? {
                        probe_index.push(orig);
                    }
                }
            }
            Ok::<_, PolygenError>((probe_index.into_iter().zip(emitted.rows), emitted.pairs))
        });
        let mut all: Vec<(usize, PolyTuple)> = Vec::new();
        let mut pairs = 0;
        for r in results {
            let (rows, n) = r?;
            all.extend(rows);
            pairs += n;
        }
        // Each partition's emits are already in probe order; a stable sort on
        // the probe index interleaves them back into the sequential order.
        all.sort_by_key(|(orig, _)| *orig);
        let rows = all.into_iter().map(|(_, t)| t).collect();
        Ok((rows, par.partitions, pairs))
    }
}

/// Single-pass fused form of [`equi_join_coalesced`] — the physical-plan
/// engine's join kernel — fused with the Project over it when `project`
/// names the columns to keep: `(p1 [x = y] p2) [project]` in one pass.
/// Without a Project it produces the same relation cell-for-cell as
/// [`equi_join_coalesced`], but builds each output tuple once (join, tag
/// update and join-column coalesce in one emit) instead of
/// materializing the full θ-join and re-cloning every cell in a
/// separate coalesce pass. With one, only the projected cells of a
/// first occurrence are built; a later pair equal on the projected data
/// only unions its tags in, mediators included. Over distinct build
/// keys, with the Project keeping the key plus build columns, pairs are
/// matched to their first occurrence by build row instead of by data.
/// Byte-identical (data, tags, order, errors) to the join followed by
/// [`crate::algebra::project()`].
///
/// At one partition (`par` serial) it is one build + probe over the
/// whole input; above one it splits by join key and splices the emits
/// back in probe order, byte-identical on every partition count, and
/// declines to split when an input is empty, the key columns mix
/// `Int`/`Float` data, or the projection drops the join column.
///
/// Generic over both operand types ([`Operand`]): a late-tagged base
/// relation on either side is read in place, its cells built once as
/// they land in an output tuple. Returns the output, the partition
/// count it ran at (`1` when it did not split), and the matched pairs —
/// the rows the join without the Project has.
pub fn hash_equi_join_project<L: Operand, R: Operand>(
    p1: &L,
    p2: &R,
    x: &str,
    y: &str,
    out: &str,
    project: Option<&[&str]>,
    par: ParallelOptions,
) -> Result<(PolygenRelation, usize, usize), PolygenError> {
    let xi = p1.schema().index_of(x)?.0;
    let yi = p2.schema().index_of(y)?.0;
    let mut schema = equi_join_coalesced_schema(p1.schema(), p2.schema(), x, y, out)?;
    let kept: Vec<usize> = match project {
        Some(attrs) => {
            let idx = schema.indices_of(attrs)?;
            schema = Arc::new(schema.project(&idx, schema.name())?);
            idx
        }
        None => (0..schema.degree()).collect(),
    };
    // Output column `k` of the join sits at `k` in `a ++ b`, or one
    // further on once past `b`'s (dropped) join column.
    let wa = p1.schema().degree();
    let src: Vec<usize> = kept
        .into_iter()
        .map(|k| if k < wa + yi { k } else { k + 1 })
        .collect();
    let keyed_by_build = src.contains(&xi) && src.iter().all(|&s| s == xi || s >= wa);
    let emit = JoinEmit {
        src: &src,
        xi,
        yi,
        collapse: project.is_some(),
        keyed_by_build,
        out,
    };
    let (tuples, used, pairs) = emit.run(p1, p2, par)?;
    Ok((PolygenRelation::from_tuples(schema, tuples)?, used, pairs))
}

/// Do the two join columns mix `Int` and `Float` data? Only then can an
/// equality hold across hash buckets (`1 = 1.0`), forcing the per-probe
/// rescan of the build side; for homogeneous keys — the common case —
/// the hash path alone is complete and the join stays single-pass.
fn mixed_numeric_keys<L: Operand, R: Operand>(p1: &L, xi: usize, p2: &R, yi: usize) -> bool {
    let (mut saw_int, mut saw_float) = (false, false);
    for d in p1
        .rows()
        .map(|t| t.datum(xi))
        .chain(p2.rows().map(|t| t.datum(yi)))
    {
        match d {
            Value::Int(_) => saw_int = true,
            Value::Float(_) => saw_float = true,
            _ => {}
        }
        if saw_int && saw_float {
            return true;
        }
    }
    false
}

/// The schema [`equi_join_coalesced`] ends with: the concatenated join
/// schema with `x`'s position renamed to `out` and `y`'s column dropped.
/// Public so the physical-plan lowerer predicts join output schemas
/// without executing.
pub fn equi_join_coalesced_schema(
    s1: &Schema,
    s2: &Schema,
    x: &str,
    y: &str,
    out: &str,
) -> Result<Arc<Schema>, PolygenError> {
    let xi = s1.index_of(x)?.0;
    let yi = s2.index_of(y)?.0;
    let joined = s1.concat(s2, &format!("{}x{}", s1.name(), s2.name()))?;
    let drop = s1.degree() + yi;
    let mut attrs: Vec<Arc<str>> = Vec::with_capacity(joined.degree() - 1);
    for (i, a) in joined.attrs().iter().enumerate() {
        if i == drop {
            continue;
        }
        attrs.push(if i == xi {
            Arc::from(out)
        } else {
            Arc::clone(a)
        });
    }
    Ok(Arc::new(Schema::from_parts(
        joined.name(),
        attrs,
        Vec::new(),
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceId;
    use polygen_flat::relation::Relation;
    use polygen_flat::vals;

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn alumnus() -> PolygenRelation {
        let f = Relation::build("ALUMNUS", &["AID#", "ANAME"])
            .vrow(vals![123, "Bob Swanson"])
            .vrow(vals![234, "Stu Madnick"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&f, sid(0))
    }

    fn career() -> PolygenRelation {
        let f = Relation::build("CAREER", &["AID#", "BNAME"])
            .vrow(vals![123, "Genentech"])
            .vrow(vals![234, "Langley Castle"])
            .vrow(vals![234, "MIT"])
            .vrow(vals![999, "Nobody"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&f, sid(0))
    }

    #[test]
    fn join_updates_every_cells_intermediates() {
        let j = theta_join(&alumnus(), &career(), "AID#", Cmp::Eq, "AID#").unwrap();
        assert_eq!(j.len(), 3);
        for t in j.tuples() {
            for c in t {
                // Both sides originate from source 0; Table 5's "redundant"
                // {AD} intermediates appear exactly like this.
                assert!(c.intermediate.contains(sid(0)));
            }
        }
    }

    #[test]
    fn join_mediators_come_from_both_sides() {
        let left = alumnus();
        let mut right = career();
        for t in right.tuples_mut() {
            for c in t.iter_mut() {
                c.origin = crate::source::SourceSet::singleton(sid(1));
            }
        }
        let j = theta_join(&left, &right, "AID#", Cmp::Eq, "AID#").unwrap();
        for t in j.tuples() {
            for c in t {
                assert!(c.intermediate.contains(sid(0)));
                assert!(c.intermediate.contains(sid(1)));
            }
        }
    }

    #[test]
    fn coalesced_join_merges_key_columns() {
        let j = equi_join_coalesced(&alumnus(), &career(), "AID#", "AID#", "AID#").unwrap();
        assert_eq!(j.degree(), 3);
        let names: Vec<&str> = j.schema().attrs().iter().map(|a| a.as_ref()).collect();
        assert_eq!(names, vec!["AID#", "ANAME", "BNAME"]);
        let key = j.cell("ANAME", &Value::str("Bob Swanson"), "AID#").unwrap();
        assert_eq!(key.datum, Value::int(123));
        assert!(key.origin.contains(sid(0)));
    }

    #[test]
    fn mixed_numeric_keys_still_match_across_buckets() {
        // A Float key must still meet its Int twin (1 = 1.0 holds through
        // θ but not through the hash bucket) — in both the reference path
        // and the single-pass kernel, now that the rescan is gated on the
        // mix actually occurring.
        let mut left = alumnus();
        left.tuples_mut()[0][0].datum = Value::float(123.0);
        let j = theta_join(&left, &career(), "AID#", Cmp::Eq, "AID#").unwrap();
        assert_eq!(j.len(), 3, "123.0 matches Int 123; 234 matches twice");
        // The coalesced kernel rejects the Int/Float pair strictly, like
        // the reference coalesce does.
        assert!(hash_equi_join_coalesced(&left, &career(), "AID#", "AID#", "AID#").is_err());
        assert!(equi_join_coalesced(&left, &career(), "AID#", "AID#", "AID#").is_err());
    }

    #[test]
    fn hash_equi_join_matches_reference() {
        let reference = equi_join_coalesced(&alumnus(), &career(), "AID#", "AID#", "AID#").unwrap();
        let fused =
            hash_equi_join_coalesced(&alumnus(), &career(), "AID#", "AID#", "AID#").unwrap();
        let ra: Vec<&str> = reference
            .schema()
            .attrs()
            .iter()
            .map(|a| a.as_ref())
            .collect();
        let fa: Vec<&str> = fused.schema().attrs().iter().map(|a| a.as_ref()).collect();
        assert_eq!(ra, fa, "schemas diverge");
        assert_eq!(reference.tuples(), fused.tuples(), "tuples diverge");
    }

    #[test]
    fn hash_equi_join_matches_reference_with_distinct_names() {
        // Join columns with different names on each side, coalesced under
        // the right-hand name, including a nil key that must not join.
        let mut left = alumnus();
        left.tuples_mut()[0][0].datum = Value::Null;
        let left = left.rename_attrs(&["ID", "ANAME"]).unwrap();
        let reference = equi_join_coalesced(&left, &career(), "ID", "AID#", "AID#").unwrap();
        let fused = hash_equi_join_coalesced(&left, &career(), "ID", "AID#", "AID#").unwrap();
        assert_eq!(reference.tuples(), fused.tuples());
        assert_eq!(
            reference.schema().attrs(),
            fused.schema().attrs(),
            "schemas diverge"
        );
    }

    #[test]
    fn partitioned_join_is_byte_identical_to_sequential() {
        let sequential =
            hash_equi_join_coalesced(&alumnus(), &career(), "AID#", "AID#", "AID#").unwrap();
        for (threads, partitions) in [(1, 1), (2, 2), (4, 4), (8, 8), (2, 8), (1, 4)] {
            let par = ParallelOptions {
                threads,
                partitions,
            };
            let (parallel, used, _) =
                hash_equi_join_project(&alumnus(), &career(), "AID#", "AID#", "AID#", None, par)
                    .unwrap();
            assert_eq!(used, partitions, "no fallback on homogeneous keys");
            assert_eq!(
                sequential.tuples(),
                parallel.tuples(),
                "{threads}t/{partitions}p diverged (order included)"
            );
            assert_eq!(sequential.schema().attrs(), parallel.schema().attrs());
        }
    }

    #[test]
    fn partitioned_join_falls_back_on_mixed_numeric_keys() {
        // 123.0 vs Int 123: the coalesce must reject it exactly like the
        // one-partition path does, by declining to split.
        let mut left = alumnus();
        left.tuples_mut()[0][0].datum = Value::float(123.0);
        let par = ParallelOptions::with_threads(4);
        assert!(
            hash_equi_join_project(&left, &career(), "AID#", "AID#", "AID#", None, par).is_err()
        );
        // Homogeneous Float keys take the parallel path and still match.
        for t in left.tuples_mut() {
            if let Value::Int(i) = t[0].datum {
                t[0].datum = Value::float(i as f64);
            }
        }
        let mut right = career();
        for t in right.tuples_mut() {
            if let Value::Int(i) = t[0].datum {
                t[0].datum = Value::float(i as f64);
            }
        }
        let seq = hash_equi_join_coalesced(&left, &right, "AID#", "AID#", "AID#").unwrap();
        let (parl, used, _) =
            hash_equi_join_project(&left, &right, "AID#", "AID#", "AID#", None, par).unwrap();
        assert_eq!(seq.tuples(), parl.tuples());
        assert_eq!(used, 4);
        // A mixed pair that does not collide still falls back, and says so.
        left.tuples_mut()[0][0].datum = Value::int(-1);
        let (_, used, _) =
            hash_equi_join_project(&left, &right, "AID#", "AID#", "AID#", None, par).unwrap();
        assert_eq!(used, 1, "mixed Int/Float keys run at one partition");
    }

    #[test]
    fn partitioned_join_handles_nil_and_empty_inputs() {
        let mut left = alumnus();
        left.tuples_mut()[0][0].datum = Value::Null;
        let par = ParallelOptions::with_threads(3);
        let seq = hash_equi_join_coalesced(&left, &career(), "AID#", "AID#", "AID#").unwrap();
        let (parl, _, _) =
            hash_equi_join_project(&left, &career(), "AID#", "AID#", "AID#", None, par).unwrap();
        assert_eq!(seq.tuples(), parl.tuples());
        let empty = PolygenRelation::empty(Arc::clone(alumnus().schema()));
        let (j, used, _) =
            hash_equi_join_project(&empty, &career(), "AID#", "AID#", "AID#", None, par).unwrap();
        assert!(j.is_empty());
        assert_eq!(used, 1, "an empty side runs at one partition");
    }

    #[test]
    fn theta_join_matches_restricted_product() {
        let via_join = theta_join(&alumnus(), &career(), "AID#", Cmp::Lt, "AID#").unwrap();
        let prod = crate::algebra::product(&alumnus(), &career()).unwrap();
        let via_restrict = crate::algebra::restrict(&prod, "AID#", Cmp::Lt, "CAREER.AID#").unwrap();
        assert!(via_join.tagged_set_eq(&via_restrict));
    }

    #[test]
    fn nil_keys_do_not_join() {
        let mut left = alumnus();
        left.tuples_mut()[0][0].datum = Value::Null;
        let j = theta_join(&left, &career(), "AID#", Cmp::Eq, "AID#").unwrap();
        assert_eq!(j.len(), 2); // only AID# 234 rows remain
    }

    #[test]
    fn strip_commutes_with_join() {
        let tagged_side = theta_join(&alumnus(), &career(), "AID#", Cmp::Eq, "AID#")
            .unwrap()
            .strip();
        let flat_side = polygen_flat::algebra::theta_join(
            &alumnus().strip(),
            &career().strip(),
            "AID#",
            Cmp::Eq,
            "AID#",
        )
        .unwrap();
        assert!(tagged_side.set_eq(&flat_side));
    }
}
