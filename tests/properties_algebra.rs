//! Property-based tests for the polygen algebra's core invariants.
//!
//! The central theorem these check: **tag erasure is a homomorphism** —
//! for every polygen operator `op`, `strip(op_polygen(p)) ==
//! op_flat(strip(p))`. The polygen model is "a direct extension of the
//! Relational Model … thus it enjoys all of the strengths of the
//! traditional Relational Model" (§I): tagging must never change the
//! data-portion semantics. Plus the algebraic laws §II claims or implies:
//! union commutativity/associativity, project idempotence, restrict
//! intermediate-tag monotonicity, difference disjointness.

use polygen::core::algebra;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::core::{Cell, PolygenRelation, SourceId, SourceSet};
use polygen::flat::prelude::*;
use polygen::flat::Value;
use proptest::prelude::*;
use std::sync::Arc;

/// A tagged relation over schema (K, X, Y): small integer data with
/// random origin/intermediate sets (ids up to 300 to cross the source
/// set's inline/heap boundary).
fn tagged_relation(max_rows: usize) -> impl Strategy<Value = PolygenRelation> {
    let cell = (
        0i64..6,
        proptest::collection::vec(0u16..300, 0..3),
        proptest::collection::vec(0u16..300, 0..2),
    )
        .prop_map(|(v, o, i)| {
            Cell::new(
                Value::Int(v),
                o.into_iter().map(SourceId).collect(),
                i.into_iter().map(SourceId).collect(),
            )
        });
    proptest::collection::vec(proptest::collection::vec(cell, 3), 0..max_rows).prop_map(|tuples| {
        let schema = Arc::new(Schema::new("T", &["K", "X", "Y"]).unwrap());
        let mut rel = PolygenRelation::from_tuples(schema, tuples).unwrap();
        // Keep the data portion set-like, as the model requires.
        rel.merge_duplicates();
        rel
    })
}

/// [`tagged_relation`] with some `K` data turned into the equal `Float`,
/// so key columns mix `1` and `1.0`: θ-equal, yet distinct data.
fn mixed_key_relation(max_rows: usize) -> impl Strategy<Value = PolygenRelation> {
    (
        tagged_relation(max_rows),
        proptest::collection::vec(any::<bool>(), max_rows),
    )
        .prop_map(|(mut rel, floats)| {
            for (t, float) in rel.tuples_mut().iter_mut().zip(floats) {
                if let (true, Value::Int(k)) = (float, &t[0].datum) {
                    t[0].datum = Value::float(*k as f64);
                }
            }
            rel
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn strip_commutes_with_select(p in tagged_relation(12), c in 0i64..6) {
        let tagged = algebra::select(&p, "X", Cmp::Eq, Value::Int(c)).unwrap().strip();
        let flat = polygen::flat::algebra::select(&p.strip(), "X", Cmp::Eq, Value::Int(c)).unwrap();
        prop_assert!(tagged.set_eq(&flat));
    }

    #[test]
    fn strip_commutes_with_restrict(p in tagged_relation(12)) {
        let tagged = algebra::restrict(&p, "X", Cmp::Lt, "Y").unwrap().strip();
        let flat = polygen::flat::algebra::restrict(&p.strip(), "X", Cmp::Lt, "Y").unwrap();
        prop_assert!(tagged.set_eq(&flat));
    }

    #[test]
    fn strip_commutes_with_project(p in tagged_relation(12)) {
        let tagged = algebra::project(&p, &["X", "Y"]).unwrap().strip();
        let flat = polygen::flat::algebra::project(&p.strip(), &["X", "Y"]).unwrap();
        prop_assert!(tagged.set_eq(&flat));
    }

    #[test]
    fn strip_commutes_with_union_and_difference(
        a in tagged_relation(10),
        b in tagged_relation(10),
    ) {
        let tagged_u = algebra::union(&a, &b).unwrap().strip();
        let flat_u = polygen::flat::algebra::union(&a.strip(), &b.strip()).unwrap();
        prop_assert!(tagged_u.set_eq(&flat_u));
        let tagged_d = algebra::difference(&a, &b).unwrap().strip();
        let flat_d = polygen::flat::algebra::difference(&a.strip(), &b.strip()).unwrap();
        prop_assert!(tagged_d.set_eq(&flat_d));
    }

    #[test]
    fn strip_commutes_with_join(
        a in tagged_relation(8),
        b in tagged_relation(8),
    ) {
        let b = b.renamed("B").rename_attrs(&["K2", "X2", "Y2"]).unwrap();
        let tagged = algebra::theta_join(&a, &b, "X", Cmp::Eq, "X2").unwrap().strip();
        let flat = polygen::flat::algebra::theta_join(&a.strip(), &b.strip(), "X", Cmp::Eq, "X2").unwrap();
        prop_assert!(tagged.set_eq(&flat));
    }

    #[test]
    fn strip_commutes_with_outer_join(
        a in tagged_relation(8),
        b in tagged_relation(8),
    ) {
        let b = b.renamed("B").rename_attrs(&["K2", "X2", "Y2"]).unwrap();
        let tagged = algebra::outer_join(&a, &b, "K", "K2").unwrap().strip();
        let flat = polygen::flat::algebra::outer_join(&a.strip(), &b.strip(), "K", "K2").unwrap();
        prop_assert!(tagged.set_eq(&flat));
    }

    #[test]
    fn union_laws(a in tagged_relation(10), b in tagged_relation(10), c in tagged_relation(10)) {
        let ab = algebra::union(&a, &b).unwrap();
        let ba = algebra::union(&b, &a).unwrap();
        prop_assert!(ab.tagged_set_eq(&ba), "commutativity");
        let ab_c = algebra::union(&ab, &c).unwrap();
        let a_bc = algebra::union(&a, &algebra::union(&b, &c).unwrap()).unwrap();
        prop_assert!(ab_c.tagged_set_eq(&a_bc), "associativity");
        let aa = algebra::union(&a, &a).unwrap();
        prop_assert!(aa.tagged_set_eq(&a), "idempotence");
    }

    #[test]
    fn project_idempotent(p in tagged_relation(12)) {
        let once = algebra::project(&p, &["X"]).unwrap();
        let twice = algebra::project(&once, &["X"]).unwrap();
        prop_assert!(once.tagged_set_eq(&twice));
    }

    #[test]
    fn selects_commute(p in tagged_relation(12), c1 in 0i64..6, c2 in 0i64..6) {
        let xy = algebra::select(
            &algebra::select(&p, "X", Cmp::Le, Value::Int(c1)).unwrap(),
            "Y", Cmp::Ge, Value::Int(c2),
        ).unwrap();
        let yx = algebra::select(
            &algebra::select(&p, "Y", Cmp::Ge, Value::Int(c2)).unwrap(),
            "X", Cmp::Le, Value::Int(c1),
        ).unwrap();
        prop_assert!(xy.tagged_set_eq(&yx));
    }

    #[test]
    fn restrict_grows_intermediates_monotonically(p in tagged_relation(12)) {
        let r = algebra::restrict(&p, "X", Cmp::Eq, "Y").unwrap();
        for out in r.tuples() {
            let data: Vec<Value> = out.iter().map(|c| c.datum.clone()).collect();
            let original = p.find_by_data(&data).expect("restrict only keeps input tuples");
            for (oc, ic) in out.iter().zip(original) {
                prop_assert!(ic.intermediate.is_subset(&oc.intermediate));
                prop_assert!(oc.origin == ic.origin, "origins untouched");
            }
        }
    }

    #[test]
    fn difference_output_disjoint_from_subtrahend(
        a in tagged_relation(10),
        b in tagged_relation(10),
    ) {
        let d = algebra::difference(&a, &b).unwrap();
        let db = algebra::intersect(&d, &b);
        // Intersection over data portions must be empty (nil-free data here).
        prop_assert!(db.unwrap().is_empty());
        // And union(difference, intersect) restores a's data portion.
        let i = algebra::intersect(&a, &b).unwrap();
        let rebuilt = algebra::union(&d, &i).unwrap();
        prop_assert!(rebuilt.strip().set_eq(&a.strip()));
    }

    #[test]
    fn coalesce_equal_columns_unions_tags(p in tagged_relation(12)) {
        // Coalescing X with a copy of itself: every datum equal, so the
        // result keeps data and unions tags (here: identical sets).
        let doubled = {
            let schema = Arc::new(Schema::new("D", &["X", "X2"]).unwrap());
            let tuples: Vec<Vec<Cell>> = p
                .tuples()
                .iter()
                .map(|t| vec![t[1].clone(), t[1].clone()])
                .collect();
            PolygenRelation::from_tuples(schema, tuples).unwrap()
        };
        let c = algebra::coalesce(&doubled, "X", "X2", "X", ConflictPolicy::Strict).unwrap();
        for (out, orig) in c.tuples().iter().zip(p.tuples()) {
            prop_assert_eq!(&out[0].datum, &orig[1].datum);
            prop_assert_eq!(&out[0].origin, &orig[1].origin);
            prop_assert_eq!(&out[0].intermediate, &orig[1].intermediate);
        }
    }
}

/// Merge order-insensitivity over conflict-free random federations.
mod merge_order {
    use super::*;

    /// Build `k` relations over a shared entity pool with *canonical*
    /// attribute values (no conflicts possible), each covering a random
    /// subset of entities.
    fn merge_inputs() -> impl Strategy<Value = Vec<PolygenRelation>> {
        (
            2usize..5,
            proptest::collection::vec(proptest::collection::vec(any::<bool>(), 8), 2..5),
        )
            .prop_map(|(_, coverage)| {
                coverage
                    .into_iter()
                    .enumerate()
                    .map(|(src, covered)| {
                        let schema = Arc::new(
                            Schema::new("R", &["ENAME", "CATEGORY"])
                                .unwrap()
                                .with_key(&["ENAME"])
                                .unwrap(),
                        );
                        let tuples: Vec<Vec<Cell>> = covered
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| **c)
                            .map(|(e, _)| {
                                vec![
                                    Cell::retrieved(
                                        Value::str(format!("E{e}")),
                                        SourceId(src as u16),
                                    ),
                                    Cell::retrieved(
                                        Value::Int((e % 3) as i64),
                                        SourceId(src as u16),
                                    ),
                                ]
                            })
                            .collect();
                        PolygenRelation::from_tuples(schema, tuples).unwrap()
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn merge_is_order_insensitive(rels in merge_inputs(), shuffle_seed in any::<u64>()) {
            let (baseline, _) =
                algebra::merge::merge(&rels, "ENAME", ConflictPolicy::Strict).unwrap();
            // Deterministic shuffle from the seed.
            let mut order: Vec<usize> = (0..rels.len()).collect();
            let mut s = shuffle_seed;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (s >> 33) as usize % (i + 1));
            }
            let shuffled: Vec<PolygenRelation> = order.iter().map(|&i| rels[i].clone()).collect();
            let (merged, _) =
                algebra::merge::merge(&shuffled, "ENAME", ConflictPolicy::Strict).unwrap();
            // Same attribute set (order may differ) and same tagged tuples.
            let mut attrs: Vec<&str> =
                baseline.schema().attrs().iter().map(|a| a.as_ref()).collect();
            attrs.sort_unstable();
            let pa = algebra::project(&baseline, &attrs).unwrap();
            let pb = algebra::project(&merged, &attrs).unwrap();
            prop_assert!(pa.tagged_set_eq(&pb));
        }
    }
}

/// Source-set laws, crossing the inline/heap representation boundary.
mod source_sets {
    use super::*;

    fn source_set() -> impl Strategy<Value = SourceSet> {
        proptest::collection::vec(0u16..400, 0..12)
            .prop_map(|ids| ids.into_iter().map(SourceId).collect())
    }

    proptest! {
        #[test]
        fn union_laws(a in source_set(), b in source_set(), c in source_set()) {
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
            prop_assert_eq!(a.union(&a), a.clone());
            prop_assert_eq!(a.union(&SourceSet::empty()), a.clone());
        }

        #[test]
        fn union_is_upper_bound(a in source_set(), b in source_set()) {
            let u = a.union(&b);
            prop_assert!(a.is_subset(&u));
            prop_assert!(b.is_subset(&u));
            for id in a.iter() {
                prop_assert!(u.contains(id));
            }
        }

        #[test]
        fn len_matches_iter(a in source_set()) {
            prop_assert_eq!(a.len(), a.iter().count());
            prop_assert_eq!(a.is_empty(), a.is_empty());
        }

        #[test]
        fn eq_and_hash_agree_across_representations(ids in proptest::collection::vec(0u16..400, 0..12)) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            // Build in two different insertion orders.
            let a: SourceSet = ids.iter().copied().map(SourceId).collect();
            let b: SourceSet = ids.iter().rev().copied().map(SourceId).collect();
            prop_assert_eq!(&a, &b);
            let hash = |s: &SourceSet| {
                let mut h = DefaultHasher::new();
                s.hash(&mut h);
                h.finish()
            };
            prop_assert_eq!(hash(&a), hash(&b));
        }
    }
}

/// Definitional equivalences: §II defines the derived operators in terms
/// of the primitives; the direct implementations must agree — tags
/// included.
mod derived_definitions {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// "Intersection is defined as the project of a join over all the
        /// attributes in each of the relations involved." Build that
        /// chain — θ-join on the first attribute, restricts on the rest,
        /// coalesce every attribute pair — and compare against the direct
        /// implementation.
        #[test]
        fn intersect_equals_projected_total_join(
            a in tagged_relation(8),
            b in tagged_relation(8),
        ) {
            let direct = algebra::intersect(&a, &b).unwrap();
            let b2 = b.renamed("B").rename_attrs(&["K2", "X2", "Y2"]).unwrap();
            let mut chain = algebra::theta_join(&a, &b2, "K", Cmp::Eq, "K2").unwrap();
            chain = algebra::restrict(&chain, "X", Cmp::Eq, "X2").unwrap();
            chain = algebra::restrict(&chain, "Y", Cmp::Eq, "Y2").unwrap();
            chain = algebra::coalesce(&chain, "K", "K2", "K", ConflictPolicy::Strict).unwrap();
            chain = algebra::coalesce(&chain, "X", "X2", "X", ConflictPolicy::Strict).unwrap();
            chain = algebra::coalesce(&chain, "Y", "Y2", "Y", ConflictPolicy::Strict).unwrap();
            prop_assert!(
                direct.tagged_set_eq(&chain),
                "direct intersect diverged from the definitional chain"
            );
        }

        /// "Join … defined as the restriction of a Cartesian product":
        /// θ-join ≡ restrict ∘ product, tags included, for every θ.
        #[test]
        fn join_equals_restricted_product(
            a in tagged_relation(6),
            b in tagged_relation(6),
        ) {
            let b = b.renamed("B").rename_attrs(&["K2", "X2", "Y2"]).unwrap();
            for cmp in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Ge] {
                let direct = algebra::theta_join(&a, &b, "X", cmp, "X2").unwrap();
                let via_product = algebra::restrict(
                    &algebra::product(&a, &b).unwrap(),
                    "X",
                    cmp,
                    "X2",
                ).unwrap();
                prop_assert!(direct.tagged_set_eq(&via_product), "θ = {cmp}");
            }
        }

        /// AntiJoin semantics: survivors are exactly the left tuples, in
        /// order, whose key θ-matches nothing on the right (`1` matches
        /// `1.0`): the keys the θ-join matched never survive, every other
        /// left tuple does.
        #[test]
        fn anti_join_keeps_exactly_the_unmatched_left_tuples(
            a in mixed_key_relation(8),
            b in mixed_key_relation(8),
        ) {
            let b = b.renamed("B").rename_attrs(&["K2", "X2", "Y2"]).unwrap();
            let anti = algebra::anti_join(&a, &b, "K", "K2").unwrap();
            let joined = algebra::theta_join(&a, &b, "K", Cmp::Eq, "K2").unwrap();
            // The θ-join's key column is the left key, so it holds every
            // left key some right key matched.
            let matched_keys: std::collections::HashSet<Value> = joined
                .tuples()
                .iter()
                .map(|t| t[0].datum.clone())
                .collect();
            let unmatched: Vec<Vec<Value>> = a
                .tuples()
                .iter()
                .filter(|t| !matched_keys.contains(&t[0].datum))
                .map(|t| t.iter().map(|c| c.datum.clone()).collect())
                .collect();
            let survivors: Vec<Vec<Value>> = anti
                .tuples()
                .iter()
                .map(|t| t.iter().map(|c| c.datum.clone()).collect())
                .collect();
            prop_assert_eq!(survivors, unmatched);
        }
    }
}
