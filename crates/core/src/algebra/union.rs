//! Union — fourth orthogonal primitive.
//!
//! §II: `(p1 ∪ p2) = { t' | t' = t1 if t1(d) ∈ p1 ∧ t1(d) ∉ p2;
//! t' = t2 if t2(d) ∉ p1 ∧ t2(d) ∈ p2;
//! t'(d) = t1(d), t'(o) = t1(o) ∪ t2(o), t'(i) = t1(i) ∪ t2(i)
//! if t1(d) = t2(d) }`
//!
//! Membership is judged on the *data* portion: a datum available from both
//! operands yields a single tuple tagged with both provenances. No source
//! mediates a union, so nothing is added to the intermediate portion beyond
//! the attribute-wise unions of what was already there.

use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::tuple;
use std::sync::Arc;

/// `p1 ∪ p2` over union-compatible relations.
pub fn union(p1: &PolygenRelation, p2: &PolygenRelation) -> Result<PolygenRelation, PolygenError> {
    p1.schema().union_compatible(p2.schema())?;
    let all: Vec<usize> = (0..p1.degree()).collect();
    let rows = p1.tuples().iter().chain(p2.tuples()).map(Vec::as_slice);
    PolygenRelation::from_tuples(Arc::clone(p1.schema()), tuple::project_rows(rows, &all))
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
    fn disjoint_data_passes_through() {
        let u = union(&tagged("A", &["a"], 0), &tagged("B", &["b"], 1)).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn matched_data_merges_tags() {
        let u = union(&tagged("A", &["a", "c"], 0), &tagged("B", &["a"], 1)).unwrap();
        assert_eq!(u.len(), 2);
        let a = u.cell("X", &Value::str("a"), "X").unwrap();
        assert!(a.origin.contains(SourceId(0)) && a.origin.contains(SourceId(1)));
        let c = u.cell("X", &Value::str("c"), "X").unwrap();
        assert_eq!(c.origin.len(), 1);
    }

    #[test]
    fn union_commutative_on_tagged_sets() {
        let a = tagged("A", &["x", "y"], 0);
        let b = tagged("B", &["y", "z"], 1);
        let ab = union(&a, &b).unwrap();
        let ba = union(&b, &a).unwrap();
        assert!(ab.tagged_set_eq(&ba));
    }

    #[test]
    fn union_associative_on_tagged_sets() {
        let a = tagged("A", &["x"], 0);
        let b = tagged("B", &["x", "y"], 1);
        let c = tagged("C", &["y"], 2);
        let left = union(&union(&a, &b).unwrap(), &c).unwrap();
        let right = union(&a, &union(&b, &c).unwrap()).unwrap();
        assert!(left.tagged_set_eq(&right));
    }

    #[test]
    fn union_idempotent() {
        let a = tagged("A", &["x", "y"], 0);
        let u = union(&a, &a).unwrap();
        assert!(u.tagged_set_eq(&a));
    }

    #[test]
    fn incompatible_schemas_error() {
        let a = tagged("A", &["x"], 0);
        let b = PolygenRelation::from_flat(
            &Relation::build("B", &["Y"]).row(&["x"]).finish().unwrap(),
            SourceId(1),
        );
        assert!(union(&a, &b).is_err());
    }

    #[test]
    fn strip_commutes_with_union() {
        let a = tagged("A", &["x", "y"], 0);
        let b = tagged("B", &["y", "z"], 1);
        let tagged_side = union(&a, &b).unwrap().strip();
        let flat_side = polygen_flat::algebra::union(&a.strip(), &b.strip()).unwrap();
        assert!(tagged_side.set_eq(&flat_side));
    }
}
