//! Difference — fifth orthogonal primitive.
//!
//! §II: "Let `p(o)` denote the union of all the `t(o)` sets in `p`. …
//! `(p1 − p2) = { t' | t'(d) = t(d), t'(o) = t(o),
//! t'[w](i) = t[w](i) ∪ p2(o) ∀ w ∈ attrs(p), if t ∈ p1 and t(d) ∉ p2 }`"
//!
//! "Since each tuple in p1 needs to be compared with all the tuples in p2,
//! it follows that all the originating sources of the data in p2 should be
//! included in the intermediate source set of (p1 − p2)." Surviving a
//! difference is *negative* information contributed by every source that
//! fed p2 — so the whole of `p2(o)` becomes intermediate provenance.

use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::source::SourceSet;
use crate::tuple::{self, DataKey};
use std::collections::HashSet;
use std::sync::Arc;

/// `p(o)` — the union of all originating sources anywhere in `p`.
pub fn origin_closure(p: &PolygenRelation) -> SourceSet {
    let mut s = SourceSet::empty();
    for t in p.tuples() {
        for c in t {
            s.union_with(&c.origin);
        }
    }
    s
}

/// `p1 − p2` over union-compatible relations.
pub fn difference(
    p1: &PolygenRelation,
    p2: &PolygenRelation,
) -> Result<PolygenRelation, PolygenError> {
    p1.schema().union_compatible(p2.schema())?;
    let p2_origins = origin_closure(p2);
    let all: Vec<usize> = (0..p1.degree()).collect();
    let exclude: HashSet<DataKey<'_>> = p2.tuples().iter().map(|t| DataKey::new(t, &all)).collect();
    let mut tuples = Vec::new();
    for t in p1.tuples() {
        if !exclude.contains(&DataKey::new(t, &all)) {
            let mut kept = t.clone();
            tuple::add_intermediate_all(&mut kept, &p2_origins);
            tuples.push(kept);
        }
    }
    PolygenRelation::from_tuples(Arc::clone(p1.schema()), tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceId;
    use polygen_flat::relation::Relation;
    use polygen_flat::value::Value;

    fn tagged(name: &str, rows: &[&str], src: u16) -> PolygenRelation {
        let mut b = Relation::build(name, &["X"]);
        for r in rows {
            b = b.row(&[r]);
        }
        PolygenRelation::from_flat(&b.finish().unwrap(), SourceId(src))
    }

    #[test]
    fn keeps_only_absent_data() {
        let d = difference(&tagged("A", &["a", "b"], 0), &tagged("B", &["b"], 1)).unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.cell("X", &Value::str("a"), "X").is_some());
    }

    #[test]
    fn survivors_carry_p2_origin_closure() {
        let d = difference(&tagged("A", &["a"], 0), &tagged("B", &["b", "c"], 1)).unwrap();
        let a = d.cell("X", &Value::str("a"), "X").unwrap();
        assert!(a.intermediate.contains(SourceId(1)));
        assert_eq!(a.origin, SourceSet::singleton(SourceId(0)));
    }

    #[test]
    fn empty_p2_adds_nothing() {
        let d = difference(&tagged("A", &["a"], 0), &tagged("B", &[], 1)).unwrap();
        let a = d.cell("X", &Value::str("a"), "X").unwrap();
        assert!(a.intermediate.is_empty());
    }

    #[test]
    fn self_difference_is_empty() {
        let a = tagged("A", &["a", "b"], 0);
        assert!(difference(&a, &a).unwrap().is_empty());
    }

    #[test]
    fn origin_closure_spans_all_cells() {
        let mut p = tagged("A", &["a"], 0);
        p.tuples_mut()[0][0].origin.insert(SourceId(5));
        let o = origin_closure(&p);
        assert!(o.contains(SourceId(0)) && o.contains(SourceId(5)));
        assert_eq!(origin_closure(&tagged("E", &[], 3)), SourceSet::empty());
    }

    #[test]
    fn incompatible_schemas_error() {
        let a = tagged("A", &["x"], 0);
        let b = PolygenRelation::from_flat(
            &Relation::build("B", &["Y"]).row(&["x"]).finish().unwrap(),
            SourceId(1),
        );
        assert!(difference(&a, &b).is_err());
    }

    #[test]
    fn strip_commutes_with_difference() {
        let a = tagged("A", &["a", "b", "c"], 0);
        let b = tagged("B", &["b"], 1);
        let tagged_side = difference(&a, &b).unwrap().strip();
        let flat_side = polygen_flat::algebra::difference(&a.strip(), &b.strip()).unwrap();
        assert!(tagged_side.set_eq(&flat_side));
    }
}
