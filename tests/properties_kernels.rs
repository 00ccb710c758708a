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
//! The hash Merge is one function at every partition count, so its
//! one-partition path is checked on its own here: against the ONTJ fold
//! (`algebra::merge`) and, byte for byte, against its own split runs.

use polygen::core::algebra;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::core::batch::ColumnBatch;
use polygen::core::stream::{ParallelOptions, TupleStream};
use polygen::core::tuple::PolyTuple;
use polygen::core::{Cell, PolygenRelation, SourceId, SourceSet};
use polygen::flat::value::Cmp;
use polygen::flat::{Schema, Value};
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

/// Oracle: semi-join (`keep`) or anti-join (`!keep`) of `a[0]` against
/// `b[0]` by nested loops.
fn nested_loop_filter(a: &PolygenRelation, b: &PolygenRelation, keep: bool) -> Vec<PolyTuple> {
    let mut closure = SourceSet::empty();
    for c in b.tuples().iter().flatten() {
        closure.union_with(&c.origin);
    }
    let mut out = Vec::new();
    for l in a.tuples() {
        let matched: Vec<&PolyTuple> = b
            .tuples()
            .iter()
            .filter(|r| l[0].datum.satisfies(Cmp::Eq, &r[0].datum))
            .collect();
        if matched.is_empty() == keep {
            continue;
        }
        let mut mediators = if keep {
            l[0].origin.clone()
        } else {
            closure.clone()
        };
        for r in matched {
            mediators.union_with(&r[0].origin);
        }
        let mut t = l.clone();
        for c in &mut t {
            c.intermediate.union_with(&mediators);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

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
                algebra::hash_equi_join_coalesced_partitioned(&a, &b, "K", "K2", "K", par);
            prop_assert_eq!(
                parallel.ok().map(|(j, _)| j.tuples().to_vec()),
                oracle.clone(),
                "{}t/{}p join", threads, partitions
            );
        }
        let semi = algebra::semi_join(&a, &b, "K", "K2").unwrap();
        prop_assert_eq!(semi.tuples(), nested_loop_filter(&a, &b, true).as_slice());
        let anti = algebra::anti_join(&a, &b, "K", "K2").unwrap();
        prop_assert_eq!(anti.tuples(), nested_loop_filter(&a, &b, false).as_slice());
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
}
