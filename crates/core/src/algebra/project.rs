//! Project — first orthogonal primitive.
//!
//! §II: `p[X] = { t' | t' = t[X] if t ∈ p ∧ t[X](d) is unique;
//! t'(d)=ti[X](d), t'[xj](o)= ti[xj](o) ∪…∪ tk[xj](o),
//! t'[xj](i)= ti[xj](i) ∪…∪ tk[xj](i) ∀ xj ∈ X
//! if ti,…,tk ∈ p ∧ ti[X](d)=…=tk[X](d) }`
//!
//! In words: project the cells, and wherever several tuples agree on the
//! projected *data*, collapse them into one tuple whose origin and
//! intermediate sets are the attribute-wise unions over the group. A datum
//! obtainable from several routes is thereby tagged with *all* of them —
//! the paper's answer to "where is the data from" surviving projection.

use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::tuple;
use std::sync::Arc;

/// `p[X]` — project onto the attribute sublist `attrs`.
pub fn project(p: &PolygenRelation, attrs: &[&str]) -> Result<PolygenRelation, PolygenError> {
    let idx = p.schema().indices_of(attrs)?;
    let schema = Arc::new(p.schema().project(&idx, p.name())?);
    let tuples = tuple::project_rows(p.tuples().iter().map(Vec::as_slice), &idx);
    PolygenRelation::from_tuples(schema, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::source::{SourceId, SourceSet};
    use polygen_flat::schema::Schema;
    use polygen_flat::value::Value;

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn cell(d: &str, o: &[u16], i: &[u16]) -> Cell {
        Cell::new(
            Value::str(d),
            o.iter().map(|&x| sid(x)).collect(),
            i.iter().map(|&x| sid(x)).collect(),
        )
    }

    fn sample() -> PolygenRelation {
        let schema = Arc::new(Schema::new("CAREER", &["NAME", "ORG", "POS"]).unwrap());
        PolygenRelation::from_tuples(
            schema,
            vec![
                vec![
                    cell("Stu", &[0], &[]),
                    cell("MIT", &[0], &[]),
                    cell("Prof", &[0], &[]),
                ],
                vec![
                    cell("Stu", &[1], &[2]),
                    cell("Langley", &[1], &[]),
                    cell("CEO", &[1], &[]),
                ],
                vec![
                    cell("Bob", &[0], &[]),
                    cell("Genentech", &[0], &[]),
                    cell("CEO", &[0], &[]),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn unique_projections_pass_through() {
        let r = project(&sample(), &["NAME", "ORG"]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema().attrs().len(), 2);
    }

    #[test]
    fn duplicate_data_collapses_with_tag_union() {
        let r = project(&sample(), &["NAME"]).unwrap();
        assert_eq!(r.len(), 2);
        let stu = r.cell("NAME", &Value::str("Stu"), "NAME").unwrap();
        assert!(stu.origin.contains(sid(0)) && stu.origin.contains(sid(1)));
        assert!(stu.intermediate.contains(sid(2)));
        let bob = r.cell("NAME", &Value::str("Bob"), "NAME").unwrap();
        assert_eq!(bob.origin, SourceSet::singleton(sid(0)));
    }

    #[test]
    fn collapse_is_attrwise_not_tuplewise() {
        // Two tuples equal on (POS) but with different tag provenance per
        // attribute: unions happen per attribute of X only.
        let r = project(&sample(), &["POS"]).unwrap();
        assert_eq!(r.len(), 2);
        let ceo = r.cell("POS", &Value::str("CEO"), "POS").unwrap();
        assert!(ceo.origin.contains(sid(0)) && ceo.origin.contains(sid(1)));
    }

    #[test]
    fn project_idempotent() {
        let once = project(&sample(), &["NAME"]).unwrap();
        let twice = project(&once, &["NAME"]).unwrap();
        assert!(once.tagged_set_eq(&twice));
    }

    #[test]
    fn unknown_attribute_errors() {
        assert!(project(&sample(), &["NOPE"]).is_err());
    }

    #[test]
    fn strip_commutes_with_project() {
        let p = sample();
        let tagged_then_strip = project(&p, &["NAME"]).unwrap().strip();
        let strip_then_flat = polygen_flat::algebra::project(&p.strip(), &["NAME"]).unwrap();
        assert!(tagged_then_strip.set_eq(&strip_then_flat));
    }
}
