//! Intersection — derived operator.
//!
//! §II: "Intersection is defined as the project of a join over all the
//! attributes in each of the relations involved." We implement that
//! definition literally: join every attribute pair with equality — i.e.
//! match tuples equal on the whole data portion — then project back to one
//! copy. Consequences, faithful to the definition:
//!
//! * both operands' origins union into the result (the datum is available
//!   from both);
//! * because the join is a Restrict, *all* matched attributes' origins
//!   land in the intermediate sets.

use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::tuple::{self, DataKey, PolyTuple};
use std::collections::HashMap;
use std::sync::Arc;

/// `p1 ∩ p2` over union-compatible relations.
pub fn intersect(
    p1: &PolygenRelation,
    p2: &PolygenRelation,
) -> Result<PolygenRelation, PolygenError> {
    p1.schema().union_compatible(p2.schema())?;
    let all: Vec<usize> = (0..p1.degree()).collect();
    // A later p2 duplicate of the same data replaces an earlier one.
    let mut index: HashMap<DataKey<'_>, &PolyTuple> = HashMap::with_capacity(p2.len());
    for t in p2.tuples() {
        index.insert(DataKey::new(t, &all), t);
    }
    let mut tuples = Vec::new();
    for t in p1.tuples() {
        // nil never satisfies θ-equality, so tuples containing nil cannot
        // pass the all-attribute equijoin of the paper's definition.
        if t.iter().any(|c| c.is_nil()) {
            continue;
        }
        if let Some(other) = index.get(&DataKey::new(t, &all)) {
            let mut kept = t.clone();
            tuple::absorb_tuple_tags(&mut kept, other);
            let mut mediators = tuple::origins_of(t);
            mediators.union_with(&tuple::origins_of(other));
            tuple::add_intermediate_all(&mut kept, &mediators);
            tuples.push(kept);
        }
    }
    PolygenRelation::from_tuples(Arc::clone(p1.schema()), tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::source::{SourceId, SourceSet};
    use polygen_flat::relation::Relation;
    use polygen_flat::value::Value;

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn tagged(name: &str, rows: &[&str], src: u16) -> PolygenRelation {
        let mut b = Relation::build(name, &["X"]);
        for r in rows {
            b = b.row(&[r]);
        }
        PolygenRelation::from_flat(&b.finish().unwrap(), sid(src))
    }

    #[test]
    fn keeps_common_data_with_unioned_tags() {
        let i = intersect(&tagged("A", &["a", "b"], 0), &tagged("B", &["b", "c"], 1)).unwrap();
        assert_eq!(i.len(), 1);
        let b = i.cell("X", &Value::str("b"), "X").unwrap();
        assert!(b.origin.contains(sid(0)) && b.origin.contains(sid(1)));
        // Join over all attributes → both origins are also mediators.
        assert!(b.intermediate.contains(sid(0)) && b.intermediate.contains(sid(1)));
    }

    #[test]
    fn nil_rows_cannot_intersect() {
        let schema = tagged("A", &["a"], 0).schema().clone();
        let with_nil = PolygenRelation::from_tuples(
            Arc::clone(&schema),
            vec![vec![Cell::nil_padding(SourceSet::empty())]],
        )
        .unwrap();
        assert!(intersect(&with_nil, &with_nil).unwrap().is_empty());
    }

    #[test]
    fn strip_commutes_with_intersect() {
        let a = tagged("A", &["a", "b"], 0);
        let b = tagged("B", &["b", "c"], 1);
        let tagged_side = intersect(&a, &b).unwrap().strip();
        let flat_side = polygen_flat::algebra::intersect(&a.strip(), &b.strip()).unwrap();
        assert!(tagged_side.set_eq(&flat_side));
    }

    #[test]
    fn incompatible_schemas_error() {
        let a = tagged("A", &["x"], 0);
        let b = PolygenRelation::from_flat(
            &Relation::build("B", &["Y"]).row(&["x"]).finish().unwrap(),
            sid(1),
        );
        assert!(intersect(&a, &b).is_err());
    }
}
