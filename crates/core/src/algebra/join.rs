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

use crate::algebra::coalesce::{coalesce, coalesce_views, ConflictPolicy};
use crate::base::{Operand, RowView};
use crate::cell::Cell;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::stream::{scoped_map, ParallelOptions, Partitioner};
use crate::tuple::{self, PolyTuple};
use polygen_flat::schema::Schema;
use polygen_flat::value::{Cmp, Value};
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
        probe_equi(p1, xi, p2, yi, &mut |a, b| {
            emit(a, b);
            Ok(())
        })?;
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
/// [`hash_equi_join_coalesced_partitioned`], semi-join and anti-join — so
/// none of them can diverge on match semantics or match order.
pub(crate) struct EquiTable<'p, B> {
    rows: Vec<B>,
    head: HashMap<&'p Value, u32>,
    next: Vec<u32>,
    yi: usize,
    /// Do the key columns mix `Int` and `Float` data? Arms the
    /// cross-type rescan in [`EquiTable::matches`].
    mixed: bool,
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
        // Back to front: each row links to the head it displaces, so every
        // chain walks in build order.
        for (r, b) in rows.iter().enumerate().rev() {
            if let Some(later) = head.insert(b.datum(yi), r as u32) {
                next[r] = later;
            }
        }
        EquiTable {
            rows,
            head,
            next,
            yi,
            mixed,
        }
    }

    /// The build rows θ-equal to `key`, in build order: `key`'s chain,
    /// then — only when the key columns mix `Int` and `Float` — the rows
    /// of the other numeric type that equal it (`1 = 1.0` holds through
    /// θ but lands in another hash bucket). `nil` matches nothing: no
    /// `nil`-keyed row is in the table.
    pub(crate) fn matches<'t>(&'t self, key: &'t Value) -> impl Iterator<Item = B> + 't {
        let chain = std::iter::successors(self.head.get(key).copied(), |&r| {
            Some(self.next[r as usize]).filter(|&n| n != CHAIN_END)
        })
        .map(|r| self.rows[r as usize]);
        let rescan = self.mixed && matches!(key, Value::Int(_) | Value::Float(_));
        let others: &[B] = if rescan { &self.rows } else { &[] };
        let cross = others.iter().copied().filter(move |b| {
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

/// Hash build + probe over `p1[xi] = p2[yi]`, calling `emit` for every
/// matching pair in probe order (see [`EquiTable::matches`]).
fn probe_equi<'p, L: Operand, R: Operand, E>(
    p1: &'p L,
    xi: usize,
    p2: &'p R,
    yi: usize,
    emit: &mut E,
) -> Result<(), PolygenError>
where
    E: FnMut(L::Row<'p>, R::Row<'p>) -> Result<(), PolygenError>,
{
    let table = equi_table(p1, xi, p2, yi);
    for a in p1.rows() {
        for b in table.matches(a.datum(xi)) {
            emit(a, b)?;
        }
    }
    Ok(())
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

/// [`hash_equi_join_coalesced_partitioned`] at one partition: the
/// single-pass fused join without the partition count.
pub fn hash_equi_join_coalesced<L: Operand, R: Operand>(
    p1: &L,
    p2: &R,
    x: &str,
    y: &str,
    out: &str,
) -> Result<PolygenRelation, PolygenError> {
    hash_equi_join_coalesced_partitioned(p1, p2, x, y, out, ParallelOptions::serial())
        .map(|(joined, _)| joined)
}

/// Build one output tuple of the coalesced equi-join: the matched pair
/// concatenated with the join columns merged into `a[xi]`'s position and
/// the Restrict-style mediator update applied. Shared by the one-partition
/// and the split paths so the two can never diverge on emit semantics.
fn coalesced_join_tuple<'a, 'b>(
    a: impl RowView<'a>,
    b: impl RowView<'b>,
    xi: usize,
    yi: usize,
    out: &str,
) -> Result<PolyTuple, PolygenError> {
    let merged = coalesce_views(a, xi, b, yi).ok_or_else(|| {
        // Data equal through θ but not through `==` (Int vs Float):
        // the reference path's strict coalesce rejects this too.
        PolygenError::CoalesceConflict {
            attribute: out.to_string(),
            left: a.datum(xi).to_string(),
            right: b.datum(yi).to_string(),
        }
    })?;
    let mut t = Vec::with_capacity(a.width() + b.width() - 1);
    for i in 0..a.width() {
        t.push(if i == xi { merged.clone() } else { a.cell(i) });
    }
    for i in 0..b.width() {
        if i != yi {
            t.push(b.cell(i));
        }
    }
    let mediators = a.origin(xi).union(b.origin(yi));
    tuple::add_intermediate_all(&mut t, &mediators);
    Ok(t)
}

/// Single-pass fused form of [`equi_join_coalesced`] — the physical-plan
/// engine's join kernel. Produces the same relation cell-for-cell, but
/// builds each output tuple once (join, tag update and join-column
/// coalesce in one emit) instead of materializing the full θ-join and
/// re-cloning every cell in a separate coalesce pass.
///
/// At one partition (`par` serial) it is one build + probe over the
/// whole input. Above one, both sides hash-split on the join key so
/// matching tuples co-locate, each partition builds + probes on a scoped
/// worker, and the emits reassemble in probe order — the output is
/// byte-identical (tuples, tags *and* order) on every partition count.
/// It declines to split when an input is empty or the key columns mix
/// `Int`/`Float` data (a `1 = 1.0` match crosses hash partitions exactly
/// like it crosses hash buckets — the one-partition rescan handles it,
/// partitioning cannot).
///
/// Generic over both operand types ([`Operand`]): a late-tagged base
/// relation on either side is read in place, its cells built once as
/// they land in an output tuple. Returns the join with the partition
/// count it ran at: `1` when it did not split.
pub fn hash_equi_join_coalesced_partitioned<L: Operand, R: Operand>(
    p1: &L,
    p2: &R,
    x: &str,
    y: &str,
    out: &str,
    par: ParallelOptions,
) -> Result<(PolygenRelation, usize), PolygenError> {
    let xi = p1.schema().index_of(x)?.0;
    let yi = p2.schema().index_of(y)?.0;
    let schema = equi_join_coalesced_schema(p1.schema(), p2.schema(), x, y, out)?;
    if !par.is_parallel() || p1.is_empty() || p2.is_empty() || mixed_numeric_keys(p1, xi, p2, yi) {
        let mut tuples: Vec<PolyTuple> = Vec::new();
        probe_equi(p1, xi, p2, yi, &mut |a, b| {
            tuples.push(coalesced_join_tuple(a, b, xi, yi, out)?);
            Ok(())
        })?;
        return Ok((PolygenRelation::from_tuples(schema, tuples)?, 1));
    }
    let parter = Partitioner::new(par.partitions);
    // Reference-only split: partitioning pushes row views, never builds a
    // cell. nil keys never join, so they are dropped here outright.
    // Each side's key column is hashed in one contiguous pass
    // (`bucket_indices`), then the scatter loop is plain array reads.
    let probe_buckets = parter.bucket_indices(p1.rows().map(|t| t.datum(xi)));
    let mut probe: Vec<Vec<(usize, L::Row<'_>)>> = (0..parter.partitions())
        .map(|_| Vec::with_capacity(p1.len() / parter.partitions() + 1))
        .collect();
    for ((i, t), &bucket) in p1.rows().enumerate().zip(&probe_buckets) {
        if !t.datum(xi).is_nil() {
            probe[bucket].push((i, t));
        }
    }
    let build_buckets = parter.bucket_indices(p2.rows().map(|t| t.datum(yi)));
    let mut build: Vec<Vec<R::Row<'_>>> = (0..parter.partitions())
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
        let mut emitted: Vec<(usize, PolyTuple)> = Vec::new();
        for (orig, a) in probe {
            for b in table.matches(a.datum(xi)) {
                emitted.push((orig, coalesced_join_tuple(a, b, xi, yi, out)?));
            }
        }
        Ok::<_, PolygenError>(emitted)
    });
    let mut all: Vec<(usize, PolyTuple)> = Vec::new();
    for r in results {
        all.extend(r?);
    }
    // Each partition's emits are already in probe order; a stable sort on
    // the probe index interleaves them back into the sequential order.
    all.sort_by_key(|(orig, _)| *orig);
    let joined = PolygenRelation::from_tuples(schema, all.into_iter().map(|(_, t)| t).collect())?;
    Ok((joined, par.partitions))
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
            let (parallel, used) = hash_equi_join_coalesced_partitioned(
                &alumnus(),
                &career(),
                "AID#",
                "AID#",
                "AID#",
                par,
            )
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
        assert!(hash_equi_join_coalesced_partitioned(
            &left,
            &career(),
            "AID#",
            "AID#",
            "AID#",
            par
        )
        .is_err());
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
        let (parl, used) =
            hash_equi_join_coalesced_partitioned(&left, &right, "AID#", "AID#", "AID#", par)
                .unwrap();
        assert_eq!(seq.tuples(), parl.tuples());
        assert_eq!(used, 4);
        // A mixed pair that does not collide still falls back, and says so.
        left.tuples_mut()[0][0].datum = Value::int(-1);
        let (_, used) =
            hash_equi_join_coalesced_partitioned(&left, &right, "AID#", "AID#", "AID#", par)
                .unwrap();
        assert_eq!(used, 1, "mixed Int/Float keys run at one partition");
    }

    #[test]
    fn partitioned_join_handles_nil_and_empty_inputs() {
        let mut left = alumnus();
        left.tuples_mut()[0][0].datum = Value::Null;
        let par = ParallelOptions::with_threads(3);
        let seq = hash_equi_join_coalesced(&left, &career(), "AID#", "AID#", "AID#").unwrap();
        let (parl, _) =
            hash_equi_join_coalesced_partitioned(&left, &career(), "AID#", "AID#", "AID#", par)
                .unwrap();
        assert_eq!(seq.tuples(), parl.tuples());
        let empty = PolygenRelation::empty(Arc::clone(alumnus().schema()));
        let (j, used) =
            hash_equi_join_coalesced_partitioned(&empty, &career(), "AID#", "AID#", "AID#", par)
                .unwrap();
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
