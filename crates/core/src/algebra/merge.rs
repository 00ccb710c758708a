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

use crate::algebra::coalesce::{coalesce_views, conflict_winner, CoalesceConflict, ConflictPolicy};
use crate::algebra::natural::outer_natural_total_join;
use crate::base::{Operand, RowView};
use crate::cell::Cell;
use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::source::SourceSet;
use crate::stream::{scoped_map, ParallelOptions, Partitioner};
use crate::tuple::PolyTuple;
use polygen_flat::schema::Schema;
use polygen_flat::value::Value;
use std::collections::{HashMap, HashSet};
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
    for rel in relations {
        if !rel.schema().contains(key) {
            return Err(PolygenError::MissingMergeKey {
                relation: rel.name().to_string(),
                key: key.to_string(),
            });
        }
    }
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
/// column's position.
struct MergePlan {
    schema: Arc<Schema>,
    key_out: usize,
    col_maps: Vec<Vec<usize>>,
    key_ins: Vec<usize>,
}

impl MergePlan {
    fn new<O: Operand>(relations: &[O], key: &str) -> Result<Self, PolygenError> {
        let schemas: Vec<&Schema> = relations.iter().map(|r| r.schema().as_ref()).collect();
        let schema = merged_schema(&schemas)?;
        let col_maps = schemas
            .iter()
            .map(|s| {
                s.attrs()
                    .iter()
                    .map(|a| schema.index_of(a).expect("attr in union schema").0)
                    .collect()
            })
            .collect();
        let key_ins = schemas
            .iter()
            .map(|s| s.index_of(key).map(|r| r.0))
            .collect::<Result<_, _>>()?;
        let key_out = schema.index_of(key)?.0;
        Ok(MergePlan {
            schema,
            key_out,
            col_maps,
            key_ins,
        })
    }
}

/// A partially-filled Merge output row plus its accumulating `K(v)`.
type PendingRow = (Vec<Option<Cell>>, SourceSet);

/// The closed-form Merge accumulator: one partially-filled output row per
/// key (plus one per nil-key tuple), with the accumulating `K(v)`.
#[derive(Default)]
struct MergeAcc<'a> {
    /// Per output row: partially filled cells plus the accumulating K(v).
    rows: Vec<PendingRow>,
    /// Per output row: the global scan index of the tuple that created it
    /// — its position in the one-partition first-appearance order, which
    /// is how a split [`hash_merge_partitioned`] splices partitions back.
    ranks: Vec<usize>,
    by_key: HashMap<&'a Value, usize>,
    conflicts: Vec<CoalesceConflict>,
}

/// Fold operand `ri`'s rows (each tagged with its global scan index)
/// into the accumulator — the inner loop of the closed-form
/// [`hash_merge_partitioned`], run once at one partition and once per
/// hash partition above it, so the two can never diverge.
fn merge_into<'a, R: RowView<'a>>(
    acc: &mut MergeAcc<'a>,
    plan: &MergePlan,
    ri: usize,
    rows: impl IntoIterator<Item = (usize, R)>,
    policy: ConflictPolicy,
) -> Result<(), PolygenError> {
    let (col_map, key_in) = (&plan.col_maps[ri], plan.key_ins[ri]);
    for (scan_idx, t) in rows {
        let key = t.datum(key_in);
        let row_idx = if key.is_nil() {
            // nil keys never match (§II: nil satisfies no θ): each
            // stays its own row, mediated only by its own origins.
            None
        } else {
            acc.by_key.get(key).copied()
        };
        match row_idx {
            Some(i) => {
                let (cells, mediators) = &mut acc.rows[i];
                mediators.union_with(t.origin(key_in));
                for ci in 0..t.width() {
                    let out = &mut cells[col_map[ci]];
                    match out {
                        None => *out = Some(t.cell(ci)),
                        Some(existing) => {
                            let merged =
                                match coalesce_views(std::slice::from_ref(&*existing), 0, t, ci) {
                                    Some(m) => m,
                                    None => {
                                        let c = t.cell(ci);
                                        let attribute =
                                            plan.schema.attr_at(col_map[ci]).to_string();
                                        acc.conflicts.push(CoalesceConflict {
                                            tuple_index: i,
                                            attribute: attribute.clone(),
                                            left: existing.clone(),
                                            right: c.clone(),
                                        });
                                        conflict_winner(policy, existing, &c).ok_or_else(|| {
                                            PolygenError::CoalesceConflict {
                                                attribute,
                                                left: existing.datum.to_string(),
                                                right: c.datum.to_string(),
                                            }
                                        })?
                                    }
                                };
                            *out = Some(merged);
                        }
                    }
                }
            }
            None => {
                let mut cells: Vec<Option<Cell>> = vec![None; plan.schema.degree()];
                for ci in 0..t.width() {
                    cells[col_map[ci]] = Some(t.cell(ci));
                }
                if !key.is_nil() {
                    acc.by_key.insert(key, acc.rows.len());
                }
                acc.rows.push((cells, t.origin(key_in).clone()));
                acc.ranks.push(scan_idx);
            }
        }
    }
    Ok(())
}

/// Seal one accumulator row: pad absent attributes with nil and apply the
/// row's `K(v)` to every cell's intermediate set.
fn finalize_row(cells: Vec<Option<Cell>>, mediators: &SourceSet, key_out: usize) -> PolyTuple {
    cells
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            debug_assert!(i != key_out || c.is_some(), "key column always filled");
            let mut cell = c.unwrap_or_else(|| Cell::nil_padding(SourceSet::empty()));
            cell.add_intermediate(mediators);
            cell
        })
        .collect()
}

/// Single-pass, hash-based Merge — the physical-plan engine's kernel.
///
/// Computes the same relation as [`merge`] (cell-exact, tags included)
/// without the quadratic ONTJ fold: one hash table keyed on the primary
/// key's datum, one pass over every operand tuple. The ONTJ fold's tag
/// discipline collapses to a closed form (derivable from §II's
/// definitions): for the output tuple of key `v`, let `K(v)` be the union
/// of the key cells' origins across the operands containing `v`; then
/// every cell coalesces its operands' raw contributions in operand order
/// (equal data → tag union, one-sided nil → the non-nil cell verbatim,
/// genuine conflict → `policy`), absent attributes pad with nil, and
/// finally every cell's intermediate set gains `K(v)` — exactly the
/// mediator tags the fold accretes step by step.
///
/// At one partition (`par` serial) the accumulator runs inline over the
/// operands. Above one, every operand is hash-split on the merge key so
/// all contributions to one output row co-locate, the accumulator runs
/// per partition on a scoped worker, and the partitions' rows splice
/// back into the first-appearance order — the relation is byte-identical
/// (cells, tags *and* row order) on every partition count.
///
/// Two inputs the closed form does not cover fall back to the reference
/// fold at any `par`: an operand with duplicate non-nil key data (the
/// fold cross-joins those tuples) and key columns mixing `Int`/`Float`
/// (the fold matches them through numeric comparison, a hash table
/// cannot).
///
/// The *relation* is identical across every path; the conflict records
/// are not — the closed form reports `tuple_index` against the final
/// output rows, while the fold reports indices into its intermediate
/// join products, and split runs record (and a `Strict` policy trips on)
/// conflicts in partition order rather than scan order. Treat them as
/// diagnostic, not as a stable key.
///
/// Generic over the operand type ([`Operand`]): tagged relations are read
/// as they always were; late-tagged base relations are read in place and
/// each of their cells is built once, when it lands in an output row.
/// The last element is the partition count the merge ran at: `1` on a
/// single operand or a fallback.
pub fn hash_merge_partitioned<O: Operand>(
    relations: &[O],
    key: &str,
    policy: ConflictPolicy,
    par: ParallelOptions,
) -> Result<(PolygenRelation, Vec<CoalesceConflict>, usize), PolygenError> {
    let (first, _) = relations.split_first().ok_or(PolygenError::EmptyMerge)?;
    check_merge_key(relations, key)?;
    if relations.len() == 1 {
        return Ok((first.materialize(), Vec::new(), 1));
    }
    if !hash_mergeable(relations, key) {
        let (merged, conflicts) = merge(&O::tagged(relations), key, policy)?;
        return Ok((merged, conflicts, 1));
    }
    let plan = MergePlan::new(relations, key)?;
    if !par.is_parallel() {
        let mut acc = MergeAcc::default();
        for (ri, rel) in relations.iter().enumerate() {
            // Scan indices are only consumed by the split path's splice;
            // one partition's creation order is already the answer's.
            merge_into(&mut acc, &plan, ri, rel.rows().enumerate(), policy)?;
        }
        let tuples: Vec<PolyTuple> = acc
            .rows
            .into_iter()
            .map(|(cells, mediators)| finalize_row(cells, &mediators, plan.key_out))
            .collect();
        return Ok((
            PolygenRelation::from_tuples(plan.schema, tuples)?,
            acc.conflicts,
            1,
        ));
    }
    // Reference-only split (partition → operand → (scan index, row)):
    // row views are pushed, no cell is built. The scan index is the row's
    // position in the global scan across operands; the accumulator stamps
    // each output row with its creator's index, which IS the row's
    // position in the one-partition first-appearance order.
    let parter = Partitioner::new(par.partitions);
    let mut parts: Vec<_> = (0..parter.partitions())
        .map(|_| vec![Vec::new(); relations.len()])
        .collect();
    let mut scan_pos = 0usize;
    for (ri, rel) in relations.iter().enumerate() {
        let ki = plan.key_ins[ri];
        // One contiguous hashing pass over the key column, then scatter.
        let buckets = parter.bucket_indices(rel.rows().map(|t| t.datum(ki)));
        for (t, &bucket) in rel.rows().zip(&buckets) {
            parts[bucket][ri].push((scan_pos, t));
            scan_pos += 1;
        }
    }
    let results = scoped_map(parts, par.threads, |_, operands| {
        let mut acc = MergeAcc::default();
        for (ri, rows) in operands.into_iter().enumerate() {
            merge_into(&mut acc, &plan, ri, rows, policy)?;
        }
        Ok::<_, PolygenError>((acc.rows, acc.ranks, acc.conflicts))
    });
    // Splice the partitions back into the one-partition creation order.
    // Within a partition rows are already rank-sorted (creation follows
    // the scan), so the stable sort merges pre-sorted runs.
    let mut ranked: Vec<(usize, PendingRow)> = Vec::new();
    let mut ranked_conflicts: Vec<(usize, CoalesceConflict)> = Vec::new();
    for result in results {
        let (rows, ranks, conflicts) = result?;
        let base = ranked.len();
        ranked.extend(ranks.into_iter().zip(rows));
        for c in conflicts {
            let rank = ranked[base + c.tuple_index].0;
            ranked_conflicts.push((rank, c));
        }
    }
    ranked.sort_by_key(|(rank, _)| *rank);
    let conflicts = if ranked_conflicts.is_empty() {
        Vec::new()
    } else {
        let final_index: HashMap<usize, usize> = ranked
            .iter()
            .enumerate()
            .map(|(i, (rank, _))| (*rank, i))
            .collect();
        ranked_conflicts.sort_by_key(|(rank, _)| *rank);
        ranked_conflicts
            .into_iter()
            .map(|(rank, mut c)| {
                c.tuple_index = final_index[&rank];
                c
            })
            .collect()
    };
    let tuples: Vec<PolyTuple> = ranked
        .into_iter()
        .map(|(_, (cells, mediators))| finalize_row(cells, &mediators, plan.key_out))
        .collect();
    Ok((
        PolygenRelation::from_tuples(Arc::clone(&plan.schema), tuples)?,
        conflicts,
        par.partitions,
    ))
}

/// Can the closed form apply? Requires per-operand unique non-nil key
/// data and no Int/Float mixing in any key column.
fn hash_mergeable<O: Operand>(relations: &[O], key: &str) -> bool {
    let (mut saw_int, mut saw_float) = (false, false);
    for rel in relations {
        let Ok(ki) = rel.schema().index_of(key).map(|r| r.0) else {
            return false;
        };
        let mut seen: HashSet<&Value> = HashSet::with_capacity(rel.len());
        for t in rel.rows() {
            let d = t.datum(ki);
            match d {
                Value::Null => continue,
                Value::Int(_) => saw_int = true,
                Value::Float(_) => saw_float = true,
                _ => {}
            }
            if !seen.insert(d) {
                return false;
            }
        }
    }
    !(saw_int && saw_float)
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
    for rel in relations {
        if !rel.schema().contains(key) {
            return Err(PolygenError::MissingMergeKey {
                relation: rel.name().to_string(),
                key: key.to_string(),
            });
        }
    }
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
