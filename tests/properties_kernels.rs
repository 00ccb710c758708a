//! Oracle tests for the breaker kernels' shared equality build and
//! duplicate collapse.
//!
//! The eager, row, batch and partitioned paths all probe through one
//! chained equality table and collapse duplicates through one
//! borrowed-key pass, so differential tests *between* those paths cannot
//! see a bug in the shared code. The two oracles here share none of it —
//! a nested-loop equi-join and a `Vec<Value>`-keyed duplicate collapse,
//! both written out below — and every kernel must equal them byte for
//! byte: data, origin tags, intermediate tags and tuple order.
//!
//! Keys come from three tiny domains, so duplication is heavy: Int keys,
//! Float keys (`-0.0` beside `0.0`) and a mix of both (`1` beside `1.0`),
//! each with `nil`. `nil` never joins but collapses with `nil`; `1`
//! joins `1.0` but never collapses with it; `-0.0` and `0.0` do neither.
//!
//! The join fused with the Project over it must equal the nested-loop
//! join followed by the written collapse, at every partition count, for
//! projections that keep the join column, drop it, take only right-side
//! columns or reorder them. Where the build keys are distinct and the
//! Project keeps the key plus build columns, the fused join collapses by
//! build row instead of by data; it must still equal the join followed
//! by `project`, over every operand type on either side.
//!
//! The hash Merge is one function at every partition count, so its
//! one-partition path is checked on its own here: against the ONTJ fold
//! (`algebra::merge`) and, byte for byte, against its own split runs.
//! Fused with a Select/Restrict chain, it must equal the whole merge
//! followed by the row stream's `select` / `restrict`, under every
//! conflict policy and partition count — a `Strict` conflict fails both
//! or neither, on a row the chain drops too.

use polygen::core::algebra;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::core::algebra::RowFilter;
use polygen::core::base::{BaseRelation, Operand};
use polygen::core::batch::ColumnBatch;
use polygen::core::stream::{ParallelOptions, TupleStream};
use polygen::core::tuple::PolyTuple;
use polygen::core::{Cell, PolygenRelation, SourceId, SourceSet};
use polygen::flat::value::Cmp;
use polygen::flat::{Relation, Schema, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Key `i` of domain `domain` (0: Int, 1: Float, 2: mixed); index 0 is
/// `nil` in every domain.
fn key(domain: usize, i: usize) -> Value {
    let ints = [Value::Null, Value::int(0), Value::int(1), Value::int(2)];
    let floats = [
        Value::Null,
        Value::float(0.0),
        Value::float(-0.0),
        Value::float(1.0),
    ];
    let mixed = [
        Value::Null,
        Value::int(1),
        Value::float(1.0),
        Value::float(-0.0),
    ];
    [ints, floats, mixed][domain][i].clone()
}

/// Rows of `(key index, value, origin id, intermediate ids)`.
type Rows = Vec<(usize, i64, u16, Vec<u16>)>;

fn rows() -> impl Strategy<Value = Rows> {
    proptest::collection::vec(
        (
            0usize..4,
            0i64..3,
            0u16..4,
            proptest::collection::vec(0u16..4, 0..2),
        ),
        0..24,
    )
}

/// A relation `name(key_attr, val_attr)` over `rows` in `domain`. The
/// value cell originates from one source past the key's, so the two
/// columns carry different tags.
fn relation(name: &str, attrs: [&str; 2], domain: usize, rows: &Rows) -> PolygenRelation {
    let schema = Arc::new(Schema::new(name, &attrs).unwrap());
    let tuples = rows
        .iter()
        .map(|(k, v, origin, inter)| {
            let inter: SourceSet = inter.iter().copied().map(SourceId).collect();
            vec![
                Cell::new(
                    key(domain, *k),
                    SourceSet::singleton(SourceId(*origin)),
                    inter.clone(),
                ),
                Cell::new(
                    Value::int(*v),
                    SourceSet::singleton(SourceId(*origin + 1)),
                    inter,
                ),
            ]
        })
        .collect();
    PolygenRelation::from_tuples(schema, tuples).unwrap()
}

/// Oracle: the coalesced equi-join `a[0] = b[0]` by nested loops, in
/// probe order; `None` when a θ-equal pair has unequal data (`1` vs
/// `1.0`), which the strict key coalesce rejects.
fn nested_loop_join(a: &PolygenRelation, b: &PolygenRelation) -> Option<Vec<PolyTuple>> {
    let mut out = Vec::new();
    for l in a.tuples() {
        for r in b.tuples() {
            if !l[0].datum.satisfies(Cmp::Eq, &r[0].datum) {
                continue;
            }
            if l[0].datum != r[0].datum {
                return None;
            }
            let mut key = l[0].clone();
            key.origin.union_with(&r[0].origin);
            key.intermediate.union_with(&r[0].intermediate);
            let mediators = l[0].origin.union(&r[0].origin);
            let mut t = vec![key, l[1].clone(), r[1].clone()];
            for c in &mut t {
                c.intermediate.union_with(&mediators);
            }
            out.push(t);
        }
    }
    Some(out)
}

/// Oracle: anti-join of `a[0]` against `b[0]` by nested loops.
fn nested_loop_anti_join(a: &PolygenRelation, b: &PolygenRelation) -> Vec<PolyTuple> {
    let mut closure = SourceSet::empty();
    for c in b.tuples().iter().flatten() {
        closure.union_with(&c.origin);
    }
    let mut out = Vec::new();
    for l in a.tuples() {
        if b.tuples()
            .iter()
            .any(|r| l[0].datum.satisfies(Cmp::Eq, &r[0].datum))
        {
            continue;
        }
        let mut t = l.clone();
        for c in &mut t {
            c.intermediate.union_with(&closure);
        }
        out.push(t);
    }
    out
}

/// Oracle: collapse tuples equal on their data, keyed by an owned
/// `Vec<Value>` per tuple, unioning tags into the first occurrence.
fn vec_keyed_collapse(tuples: Vec<PolyTuple>) -> Vec<PolyTuple> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut merged: Vec<PolyTuple> = Vec::new();
    for t in tuples {
        let key: Vec<Value> = t.iter().map(|c| c.datum.clone()).collect();
        match index.get(&key) {
            Some(&i) => {
                for (d, s) in merged[i].iter_mut().zip(&t) {
                    d.origin.union_with(&s.origin);
                    d.intermediate.union_with(&s.intermediate);
                }
            }
            None => {
                index.insert(key, merged.len());
                merged.push(t);
            }
        }
    }
    merged
}

/// Keep only the first row of each non-nil key, so an operand can take
/// the merge's closed form (nil keys never match, so every one stays).
fn unique_keys(rows: &Rows) -> Rows {
    let mut seen = std::collections::HashSet::new();
    rows.iter()
        .filter(|(k, ..)| *k == 0 || seen.insert(*k))
        .cloned()
        .collect()
}

/// Oracle: `p[idx]` with the duplicate collapse.
fn oracle_project(p: &PolygenRelation, idx: &[usize]) -> Vec<PolyTuple> {
    vec_keyed_collapse(
        p.tuples()
            .iter()
            .map(|t| idx.iter().map(|&i| t[i].clone()).collect())
            .collect(),
    )
}

/// Merge operand rows: `(key index, V index, U index, origin id,
/// intermediate ids)`.
type MergeRows = Vec<(usize, usize, usize, u16, Vec<u16>)>;

/// 2–4 operands of up to 12 rows each.
fn merge_operands() -> impl Strategy<Value = Vec<MergeRows>> {
    let rows = proptest::collection::vec(
        (
            0usize..4,
            0usize..3,
            0usize..3,
            0u16..4,
            proptest::collection::vec(0u16..4, 0..2),
        ),
        0..13,
    );
    proptest::collection::vec(rows, 2..5)
}

/// Operand `j` of a fused-merge case: `Oj(K, V, Uj)`. Keys are `nil`,
/// `0`, `1` and — with `mixed` — `1.0` beside them, else `2`; `V`
/// (shared by every operand, so coalesces meet conflicts) and `Uj` are
/// `nil`, `0` or `1`. With `unique`, each operand keeps one row per
/// non-nil key. The three columns originate from three sources.
fn merge_operand(j: usize, rows: &MergeRows, mixed: bool, unique: bool) -> PolygenRelation {
    let keys = [
        Value::Null,
        Value::int(0),
        Value::int(1),
        if mixed {
            Value::float(1.0)
        } else {
            Value::int(2)
        },
    ];
    let data = [Value::Null, Value::int(0), Value::int(1)];
    let mut seen = std::collections::HashSet::new();
    let tuples = rows
        .iter()
        .filter(|(k, ..)| !unique || *k == 0 || seen.insert(*k))
        .map(|(k, v, u, origin, inter)| {
            let inter: SourceSet = inter.iter().copied().map(SourceId).collect();
            let cell = |datum: &Value, shift: u16| {
                Cell::new(
                    datum.clone(),
                    SourceSet::singleton(SourceId(origin + shift)),
                    inter.clone(),
                )
            };
            vec![cell(&keys[*k], 0), cell(&data[*v], 1), cell(&data[*u], 2)]
        })
        .collect();
    let u = format!("U{j}");
    let schema = Arc::new(Schema::new(&format!("O{j}"), &["K", "V", u.as_str()]).unwrap());
    PolygenRelation::from_tuples(schema, tuples).unwrap()
}

/// Stages: `(Select?, column, column, θ, constant)` indices.
type StageSpec = Vec<(bool, usize, usize, usize, usize)>;

fn stage_specs() -> impl Strategy<Value = StageSpec> {
    proptest::collection::vec(
        (any::<bool>(), 0usize..6, 0usize..6, 0usize..4, 0usize..4),
        1..4,
    )
}

/// The relation a merged view joins: `D(J, W)` over rows of `(J index,
/// W, origin id)`, `J` drawn from the merge's key and data values —
/// `nil`, `0`, `1` and, as in [`merge_operand`], `1.0` with `mixed`,
/// else `2` — so it meets keys, non-key data and the `1` / `1.0` pair.
fn join_partner(rows: &[(usize, i64, u16)], mixed: bool) -> PolygenRelation {
    let values = [
        Value::Null,
        Value::int(0),
        Value::int(1),
        if mixed {
            Value::float(1.0)
        } else {
            Value::int(2)
        },
    ];
    let tuples = rows
        .iter()
        .map(|&(j, w, origin)| {
            vec![
                Cell::retrieved(values[j].clone(), SourceId(origin)),
                Cell::retrieved(Value::int(w), SourceId(origin + 1)),
            ]
        })
        .collect();
    PolygenRelation::from_tuples(Arc::new(Schema::new("D", &["J", "W"]).unwrap()), tuples).unwrap()
}

/// Two join results are the same bytes: schema, data, tags and order,
/// or the same error, message included.
fn same_join(
    view: Result<(PolygenRelation, usize, usize), polygen::core::PolygenError>,
    built: Result<(PolygenRelation, usize, usize), polygen::core::PolygenError>,
    what: &str,
) {
    match (view, built) {
        (Ok((view, used, pairs)), Ok((built, built_used, built_pairs))) => {
            prop_assert_eq!(view.schema().attrs(), built.schema().attrs(), "{}", what);
            prop_assert_eq!(view.tuples(), built.tuples(), "{}", what);
            prop_assert_eq!((used, pairs), (built_used, built_pairs), "{}", what);
        }
        (Err(view), Err(built)) => prop_assert_eq!(view.to_string(), built.to_string(), "{}", what),
        (view, built) => panic!(
            "{what}: view {:?} vs built {:?}",
            view.map(|_| ()),
            built.map(|_| ())
        ),
    }
}

/// Build-side rows of a build-row collapse case: `(key index, W, X,
/// origin id)`.
type BuildRows = Vec<(usize, i64, i64, u16)>;

/// Probe-side rows: `(key index, V, origin id, intermediate ids)`.
type ProbeRows = Vec<(usize, i64, u16, Vec<u16>)>;

/// Key `i` of a build-row collapse case: `nil`, `0`, `1` and — with
/// `mixed` — `1.0`, else `2`.
fn collapse_key(i: usize, mixed: bool) -> Value {
    [
        Value::Null,
        Value::int(0),
        Value::int(1),
        if mixed {
            Value::float(1.0)
        } else {
            Value::int(2)
        },
    ][i]
        .clone()
}

/// A flat relation `name(attrs)` over rows of values.
fn flat_relation(name: &str, attrs: &[&str], rows: Vec<Vec<Value>>) -> Relation {
    Relation::from_rows(Arc::new(Schema::new(name, attrs).unwrap()), rows).unwrap()
}

/// The three build sides of one case, all `B(K2, W, X)` over the same
/// rows: a late-tagged leaf from source 5, a merged view of `(K2, W)`
/// from source 5 and `(K2, X)` from source 6 (the fold's relation when a
/// key repeats; none when `1` meets `1.0`, which the merge's key
/// coalesce rejects), and a tagged relation whose cells carry per-row
/// origins and intermediates.
fn build_sides(
    rows: &BuildRows,
    mixed: bool,
) -> (
    BaseRelation,
    Option<polygen::core::algebra::MergedView<BaseRelation>>,
    PolygenRelation,
) {
    let values = |cols: &[usize]| -> Vec<Vec<Value>> {
        rows.iter()
            .map(|&(k, w, x, _)| {
                let row = [collapse_key(k, mixed), Value::int(w), Value::int(x)];
                cols.iter().map(|&c| row[c].clone()).collect()
            })
            .collect()
    };
    let leaf = BaseRelation::new(
        flat_relation("B", &["K2", "W", "X"], values(&[0, 1, 2])),
        SourceId(5),
    );
    let operands = vec![
        BaseRelation::new(
            flat_relation("B0", &["K2", "W"], values(&[0, 1])),
            SourceId(5),
        ),
        BaseRelation::new(
            flat_relation("B1", &["K2", "X"], values(&[0, 2])),
            SourceId(6),
        ),
    ];
    let view = algebra::hash_merge_view(
        operands,
        "K2",
        ConflictPolicy::Strict,
        &[],
        ParallelOptions::serial(),
    )
    .ok()
    .map(|(view, ..)| view);
    let tuples = rows
        .iter()
        .map(|&(k, w, x, origin)| {
            let inter = SourceSet::singleton(SourceId(origin + 2));
            let cell = |datum: Value, shift: u16| {
                Cell::new(
                    datum,
                    SourceSet::singleton(SourceId(origin + shift)),
                    inter.clone(),
                )
            };
            vec![
                cell(collapse_key(k, mixed), 0),
                cell(Value::int(w), 1),
                cell(Value::int(x), 0),
            ]
        })
        .collect();
    let schema = Arc::new(Schema::new("B", &["K2", "W", "X"]).unwrap());
    let tagged = PolygenRelation::from_tuples(schema, tuples).unwrap();
    (leaf, view, tagged)
}

/// The probe sides `A(K, V)` of one case: a late-tagged leaf, whose rows
/// all carry the same tags, and a tagged relation whose rows do not.
fn probe_sides(rows: &ProbeRows, mixed: bool) -> (BaseRelation, PolygenRelation) {
    let leaf = BaseRelation::new(
        flat_relation(
            "A",
            &["K", "V"],
            rows.iter()
                .map(|(k, v, ..)| vec![collapse_key(*k, mixed), Value::int(*v)])
                .collect(),
        ),
        SourceId(7),
    );
    let tuples = rows
        .iter()
        .map(|(k, v, origin, inter)| {
            let inter: SourceSet = inter.iter().copied().map(SourceId).collect();
            vec![
                Cell::new(
                    collapse_key(*k, mixed),
                    SourceSet::singleton(SourceId(*origin)),
                    inter.clone(),
                ),
                Cell::new(
                    Value::int(*v),
                    SourceSet::singleton(SourceId(*origin + 1)),
                    inter,
                ),
            ]
        })
        .collect();
    let schema = Arc::new(Schema::new("A", &["K", "V"]).unwrap());
    (leaf, PolygenRelation::from_tuples(schema, tuples).unwrap())
}

/// The join of `a[K] = b[K2]` fused with each Project — key plus build
/// columns, key plus probe columns, key dropped — against the unfused
/// join followed by `project`, at P ∈ {1, 2, 4}: the same rows in the
/// same order and the same matched pairs, or the same error message.
fn fused_collapse_matches_join_then_project<L: Operand, R: Operand>(a: &L, b: &R, what: &str) {
    let projects: [&[&str]; 8] = [
        &["K", "W"],
        &["X", "K", "W"],
        &["K", "W", "X"],
        &["K", "V"],
        &["V", "K", "X"],
        &["W"],
        &["X", "W"],
        &["V", "W"],
    ];
    for attrs in projects {
        for partitions in [1, 2, 4] {
            let par = ParallelOptions {
                threads: partitions,
                partitions,
            };
            let fused = algebra::hash_equi_join_project(a, b, "K", "K2", "K", Some(attrs), par);
            let unfused = algebra::hash_equi_join_project(a, b, "K", "K2", "K", None, par)
                .and_then(|(j, _, pairs)| Ok((algebra::project(&j, attrs)?, pairs)));
            match (fused, unfused) {
                (Ok((fused, _, pairs)), Ok((unfused, unfused_pairs))) => {
                    let at = format!("{what}, {attrs:?} at P = {partitions}");
                    assert_eq!(fused.schema().attrs(), unfused.schema().attrs(), "{at}");
                    assert_eq!(fused.tuples(), unfused.tuples(), "{at}");
                    assert_eq!(pairs, unfused_pairs, "{at}: matched pairs");
                }
                (Err(fused), Err(unfused)) => assert_eq!(
                    fused.to_string(),
                    unfused.to_string(),
                    "{what}, {attrs:?} at P = {partitions}"
                ),
                (fused, unfused) => panic!(
                    "{what}, {attrs:?} at P = {partitions}: fused {:?} vs unfused {:?}",
                    fused.map(|_| ()),
                    unfused.map(|_| ())
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The merge fused with a chain of 1–3 Selects/Restricts against the
    /// unfused merge followed by the row stream's stages, byte for byte
    /// with order, at P ∈ {1, 2, 4} under every conflict policy, over
    /// nil keys and data, duplicate keys (the fold fallback) and a `1` /
    /// `1.0` key pair. The merged row count is the unfused merge's. A
    /// failure is the unfused run's failure: the same variant, and at
    /// P = 1 the same message.
    #[test]
    fn fused_merge_stages_match_merge_then_stages(
        operands in merge_operands(),
        specs in stage_specs(),
        mixed in any::<bool>(),
        unique in any::<bool>(),
    ) {
        let rels: Vec<PolygenRelation> = operands
            .iter()
            .enumerate()
            .map(|(j, rows)| merge_operand(j, rows, mixed, unique))
            .collect();
        let mut columns = vec!["K".to_string(), "V".to_string()];
        columns.extend((0..rels.len()).map(|j| format!("U{j}")));
        let constants = [Value::Null, Value::int(0), Value::int(1), Value::float(1.0)];
        let cmps = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Ge];
        let filters: Vec<RowFilter<'_>> = specs
            .iter()
            .map(|&(select, a, b, cmp, c)| {
                let (x, cmp) = (columns[a % columns.len()].as_str(), cmps[cmp]);
                if select {
                    RowFilter::Select { attr: x, cmp, value: &constants[c] }
                } else {
                    RowFilter::Restrict { x, cmp, y: columns[b % columns.len()].as_str() }
                }
            })
            .collect();
        for policy in [ConflictPolicy::Strict, ConflictPolicy::PreferLeft, ConflictPolicy::PreferRight] {
            for partitions in [1, 2, 4] {
                let par = ParallelOptions { threads: partitions, partitions };
                let fused = algebra::hash_merge_view(rels.clone(), "K", policy, &filters, par)
                    .map(|(view, c, used, merged)| (PolygenRelation::from(view), c, used, merged));
                let unfused = algebra::hash_merge_partitioned(&rels, "K", policy, par).and_then(
                    |(merged, ..)| {
                        let rows = merged.len();
                        let mut s = TupleStream::from_relation(merged);
                        for f in &filters {
                            match *f {
                                RowFilter::Select { attr, cmp, value } => s.select(attr, cmp, value)?,
                                RowFilter::Restrict { x, cmp, y } => s.restrict(x, cmp, y)?,
                            }
                        }
                        Ok((s.into_relation(), rows))
                    },
                );
                match (fused, unfused) {
                    (Ok((fused, _, _, merged)), Ok((unfused, rows))) => {
                        prop_assert_eq!(fused.schema().attrs(), unfused.schema().attrs());
                        prop_assert_eq!(
                            fused.tuples(),
                            unfused.tuples(),
                            "{:?} at P = {} under {:?}", filters, partitions, policy
                        );
                        prop_assert_eq!(merged, rows, "merged rows");
                    }
                    (Err(fused), Err(unfused)) => {
                        prop_assert_eq!(
                            std::mem::discriminant(&fused),
                            std::mem::discriminant(&unfused),
                            "{} vs {}", fused, unfused
                        );
                        if partitions == 1 {
                            prop_assert_eq!(fused.to_string(), unfused.to_string());
                        }
                    }
                    (fused, unfused) => panic!(
                        "{filters:?} at P = {partitions} under {policy:?}: fused {:?} vs unfused {:?}",
                        fused.map(|_| ()),
                        unfused.map(|_| ())
                    ),
                }
            }
        }
    }

    /// A join reads a merge's late-built view as it reads the merge's
    /// relation: the join over `hash_merge_view`'s view equals the join
    /// over the same view materialized, byte for byte with order (matched
    /// pairs and partition count too), or fails with the same message.
    /// 2–4 operands of ≤ 12 rows with nil and duplicate keys (the fold
    /// fallback) and a `1` / `1.0` key pair, 0–3 fused filters, every
    /// conflict policy, P ∈ {1, 2, 4}; the view on the probe side and on
    /// the build side, joined on its key or on the non-key `V`, with and
    /// without a Project.
    #[test]
    fn joins_over_a_merged_view_match_joins_over_its_relation(
        operands in merge_operands(),
        specs in proptest::collection::vec(
            (any::<bool>(), 0usize..6, 0usize..6, 0usize..4, 0usize..4),
            0..4,
        ),
        partner in proptest::collection::vec((0usize..4, 0i64..3, 0u16..4), 0..13),
        mixed in any::<bool>(),
        unique in any::<bool>(),
        on_key in any::<bool>(),
    ) {
        let rels: Vec<PolygenRelation> = operands
            .iter()
            .enumerate()
            .map(|(j, rows)| merge_operand(j, rows, mixed, unique))
            .collect();
        let mut columns = vec!["K".to_string(), "V".to_string()];
        columns.extend((0..rels.len()).map(|j| format!("U{j}")));
        let constants = [Value::Null, Value::int(0), Value::int(1), Value::float(1.0)];
        let cmps = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Ge];
        let filters: Vec<RowFilter<'_>> = specs
            .iter()
            .map(|&(select, a, b, cmp, c)| {
                let (x, cmp) = (columns[a % columns.len()].as_str(), cmps[cmp]);
                if select {
                    RowFilter::Select { attr: x, cmp, value: &constants[c] }
                } else {
                    RowFilter::Restrict { x, cmp, y: columns[b % columns.len()].as_str() }
                }
            })
            .collect();
        let partner = join_partner(&partner, mixed);
        let m = if on_key { "K" } else { "V" };
        // Probe side `[K, V, U…, W]`, build side `[J, W, …]` without `m`.
        let probe_projects: [Option<&[&str]>; 4] =
            [None, Some(&[m, "W"]), Some(&["U0", "W"]), Some(&["W", "V"])];
        let build_projects: [Option<&[&str]>; 4] =
            [None, Some(&["J", "U0"]), Some(&["W", "U0"]), Some(&["U1", "J"])];
        for policy in [ConflictPolicy::Strict, ConflictPolicy::PreferLeft, ConflictPolicy::PreferRight] {
            for partitions in [1, 2, 4] {
                let par = ParallelOptions { threads: partitions, partitions };
                let Ok((view, ..)) = algebra::hash_merge_view(rels.clone(), "K", policy, &filters, par)
                else {
                    continue;
                };
                let built = view.materialize();
                for project in probe_projects {
                    let what = format!("view probes on {m}, {project:?}, {filters:?} at P = {partitions} under {policy:?}");
                    same_join(
                        algebra::hash_equi_join_project(&view, &partner, m, "J", m, project, par),
                        algebra::hash_equi_join_project(&built, &partner, m, "J", m, project, par),
                        &what,
                    );
                }
                for project in build_projects {
                    let what = format!("view builds on {m}, {project:?}, {filters:?} at P = {partitions} under {policy:?}");
                    same_join(
                        algebra::hash_equi_join_project(&partner, &view, "J", m, "J", project, par),
                        algebra::hash_equi_join_project(&partner, &built, "J", m, "J", project, par),
                        &what,
                    );
                }
            }
        }
    }

    /// The hash join, its partitioned twin, semi-join and anti-join
    /// against nested loops.
    #[test]
    fn equality_kernels_match_nested_loops(
        a_rows in rows(),
        b_rows in rows(),
        domain in 0usize..3,
    ) {
        let a = relation("A", ["K", "V"], domain, &a_rows);
        let b = relation("B", ["K2", "W"], domain, &b_rows);
        let oracle = nested_loop_join(&a, &b);
        let sequential = algebra::hash_equi_join_coalesced(&a, &b, "K", "K2", "K");
        prop_assert_eq!(
            sequential.as_ref().ok().map(|j| j.tuples().to_vec()),
            oracle.clone(),
            "sequential join"
        );
        for (threads, partitions) in [(2, 2), (4, 8)] {
            let par = ParallelOptions { threads, partitions };
            let parallel =
                algebra::hash_equi_join_project(&a, &b, "K", "K2", "K", None, par);
            prop_assert_eq!(
                parallel.ok().map(|(j, _, _)| j.tuples().to_vec()),
                oracle.clone(),
                "{}t/{}p join", threads, partitions
            );
        }
        let anti = algebra::anti_join(&a, &b, "K", "K2").unwrap();
        prop_assert_eq!(anti.tuples(), nested_loop_anti_join(&a, &b).as_slice());
    }

    /// The join fused with its Project against nested loops followed by
    /// the written collapse, at P ∈ {1, 2, 4}, byte for byte with order:
    /// only first occurrences are built and a duplicate's tags (its
    /// mediators included) union into them. A rejected `1` vs `1.0`
    /// pair is the unfused path's error, unchanged.
    #[test]
    fn fused_join_project_matches_join_then_collapse(
        a_rows in rows(),
        b_rows in rows(),
        domain in 0usize..3,
    ) {
        let a = relation("A", ["K", "V"], domain, &a_rows);
        let b = relation("B", ["K2", "W"], domain, &b_rows);
        // The coalesced join's columns are `[K, V, W]`.
        let joined = nested_loop_join(&a, &b);
        for (attrs, idx) in [
            (&["K", "W"][..], &[0, 2][..]),
            (&["V", "W"][..], &[1, 2][..]),
            (&["V"][..], &[1][..]),
            (&["W"][..], &[2][..]),
            (&["W", "K"][..], &[2, 0][..]),
            (&["K", "V", "W"][..], &[0, 1, 2][..]),
        ] {
            let oracle = joined.as_ref().map(|rows| {
                vec_keyed_collapse(
                    rows.iter()
                        .map(|t| idx.iter().map(|&i| t[i].clone()).collect())
                        .collect(),
                )
            });
            for partitions in [1, 2, 4] {
                let par = ParallelOptions { threads: partitions, partitions };
                let fused = algebra::hash_equi_join_project(&a, &b, "K", "K2", "K", Some(attrs), par);
                let unfused = algebra::hash_equi_join_project(&a, &b, "K", "K2", "K", None, par)
                    .and_then(|(j, _, _)| algebra::project(&j, attrs));
                match (fused, unfused) {
                    (Ok((fused, used, pairs)), Ok(unfused)) => {
                        prop_assert_eq!(
                            Some(fused.tuples().to_vec()),
                            oracle.clone(),
                            "{:?} at P = {}", attrs, partitions
                        );
                        prop_assert_eq!(fused.schema().attrs(), unfused.schema().attrs());
                        prop_assert_eq!(Some(pairs), joined.as_ref().map(Vec::len), "matched pairs");
                        prop_assert!(
                            used == 1 || attrs.contains(&"K"),
                            "a collapse without the key ran split: {:?} at P = {}", attrs, partitions
                        );
                    }
                    (Err(fused), Err(unfused)) => {
                        prop_assert!(oracle.is_none(), "{:?} rejected a joinable pair", attrs);
                        prop_assert_eq!(fused, unfused, "{:?} at P = {}", attrs, partitions);
                    }
                    (fused, unfused) => panic!(
                        "{attrs:?} at P = {partitions}: fused {:?} vs unfused {:?}",
                        fused.map(|_| ()),
                        unfused.map(|_| ())
                    ),
                }
            }
        }
    }

    /// `hash_merge` at P ∈ {1, 2, 4} against the ONTJ fold (tagged-set
    /// equality) and against itself across P, byte for byte with order.
    /// Three operands with disjoint value columns over nil keys, duplicate
    /// keys (the fold fallback) or per-operand unique keys (the closed
    /// form), in every domain — `1` beside `1.0` included.
    #[test]
    fn hash_merge_matches_fold_and_is_identical_across_partitions(
        a_rows in rows(),
        b_rows in rows(),
        c_rows in rows(),
        domain in 0usize..3,
        unique in any::<bool>(),
    ) {
        let operand = |name: &str, value: &str, rows: &Rows| {
            let rows = if unique { unique_keys(rows) } else { rows.clone() };
            relation(name, ["K", value], domain, &rows)
        };
        let rels = [
            operand("A", "VA", &a_rows),
            operand("B", "VB", &b_rows),
            operand("C", "VC", &c_rows),
        ];
        let policy = ConflictPolicy::Strict;
        let fold = algebra::merge(&rels, "K", policy).map(|(m, _)| m);
        let at = |partitions: usize| {
            let par = ParallelOptions { threads: partitions, partitions };
            algebra::hash_merge_partitioned(&rels, "K", policy, par).map(|(m, ..)| m)
        };
        let one = algebra::hash_merge(&rels, "K", policy).map(|(m, _)| m);
        prop_assert_eq!(fold.is_ok(), one.is_ok(), "fold and P = 1 disagree on rejecting");
        if let (Ok(fold), Ok(one)) = (&fold, &one) {
            prop_assert!(one.tagged_set_eq(fold), "P = 1 diverges from the fold");
        }
        for partitions in [1, 2, 4] {
            match (&one, at(partitions)) {
                (Ok(one), Ok(split)) => {
                    prop_assert_eq!(one.schema().attrs(), split.schema().attrs());
                    prop_assert_eq!(one.tuples(), split.tuples(), "P = {}, order included", partitions);
                }
                (Err(_), Err(_)) => {}
                (one, split) => panic!(
                    "P = 1 {:?} vs P = {partitions} {:?}",
                    one.as_ref().map(|_| ()),
                    split.map(|_| ())
                ),
            }
        }
    }

    /// Every duplicate-collapsing kernel against the `Vec<Value>`-keyed
    /// collapse: eager and row Project (identity projection included),
    /// batch emission, Union and `merge_duplicates` itself.
    #[test]
    fn collapse_kernels_match_vec_keyed_collapse(
        a_rows in rows(),
        b_rows in rows(),
        domain in 0usize..3,
    ) {
        let a = relation("A", ["K", "V"], domain, &a_rows);
        let b = relation("A", ["K", "V"], domain, &b_rows);
        for (attrs, idx) in [
            (&["K"][..], &[0][..]),
            (&["V"][..], &[1][..]),
            (&["V", "K"][..], &[1, 0][..]),
            (&["K", "V"][..], &[0, 1][..]),
        ] {
            let oracle = oracle_project(&a, idx);
            let eager = algebra::project(&a, attrs).unwrap();
            prop_assert_eq!(eager.tuples(), oracle.as_slice(), "eager {:?}", attrs);
            let mut stream = TupleStream::from_relation(a.clone());
            stream.project(attrs).unwrap();
            prop_assert_eq!(stream.into_relation().tuples(), oracle.as_slice(), "row {:?}", attrs);
            let mut batch = ColumnBatch::from_relation(a.clone());
            batch.project(attrs).unwrap();
            let mut emitted = batch.into_relation();
            emitted.merge_duplicates();
            prop_assert_eq!(emitted.tuples(), oracle.as_slice(), "batch {:?}", attrs);
        }
        let mut merged = a.clone();
        merged.merge_duplicates();
        prop_assert_eq!(merged.tuples(), vec_keyed_collapse(a.tuples().to_vec()).as_slice());
        let both: Vec<PolyTuple> = a.tuples().iter().chain(b.tuples()).cloned().collect();
        let union = algebra::union(&a, &b).unwrap();
        prop_assert_eq!(union.tuples(), vec_keyed_collapse(both).as_slice());
    }

    /// The build-row collapse against join-then-`project`: build sides
    /// with one row per key (a leaf, a merged view, a relation) or with
    /// repeated keys (the data-keyed collapse), probed by a late-tagged
    /// leaf (every row's tags alike, so a repeat of a build row adds
    /// nothing) and by a relation whose rows carry their own tags, over
    /// `nil` keys and a `1` / `1.0` pair.
    #[test]
    fn build_row_collapse_matches_join_then_project(
        probe_rows in proptest::collection::vec(
            (0usize..4, 0i64..2, 0u16..4, proptest::collection::vec(0u16..4, 0..2)),
            0..16,
        ),
        build in proptest::collection::vec((0usize..4, 0i64..2, 0i64..2, 0u16..4), 0..10),
        mixed in any::<bool>(),
        unique in any::<bool>(),
    ) {
        let build: BuildRows = if unique {
            let mut seen = std::collections::HashSet::new();
            build.into_iter().filter(|(k, ..)| *k == 0 || seen.insert(*k)).collect()
        } else {
            build
        };
        let (leaf, view, tagged) = build_sides(&build, mixed);
        let (uniform, varied) = probe_sides(&probe_rows, mixed);
        let what = |b: &str, p: &str| format!("{p} probes {b} (unique keys: {unique}, mixed: {mixed})");
        fused_collapse_matches_join_then_project(&uniform, &leaf, &what("a leaf", "a leaf"));
        if let Some(view) = &view {
            fused_collapse_matches_join_then_project(&uniform, view, &what("a merged view", "a leaf"));
            fused_collapse_matches_join_then_project(&varied, view, &what("a merged view", "a relation"));
        }
        fused_collapse_matches_join_then_project(&uniform, &tagged, &what("a relation", "a leaf"));
        fused_collapse_matches_join_then_project(&varied, &leaf, &what("a leaf", "a relation"));
        fused_collapse_matches_join_then_project(&varied, &tagged, &what("a relation", "a relation"));
    }
}
