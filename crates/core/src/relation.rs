//! Polygen relations: finite sets of tagged tuples over a schema.
//!
//! §II: "A polygen relation p of degree n is a finite set of time-varying
//! n-tuples, each n-tuple having the same set of attributes drawing values
//! from the corresponding polygen domains." The schema type is shared with
//! the flat substrate ([`polygen_flat::schema::Schema`]); what differs is
//! the cell type — every cell carries origin and intermediate source sets.

use crate::cell::Cell;
use crate::error::PolygenError;
use crate::source::SourceId;
use crate::tuple::{self, DataKey, PolyTuple};
use polygen_flat::relation::Relation as FlatRelation;
use polygen_flat::schema::Schema;
use polygen_flat::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A source-tagged relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolygenRelation {
    schema: Arc<Schema>,
    tuples: Vec<PolyTuple>,
}

impl PolygenRelation {
    /// An empty polygen relation.
    pub fn empty(schema: Arc<Schema>) -> Self {
        PolygenRelation {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Construct from tuples, enforcing arity. Callers are responsible for
    /// set semantics on the data portion; the algebra operators that the
    /// paper defines to merge duplicates (Project, Union) do so explicitly.
    pub fn from_tuples(schema: Arc<Schema>, tuples: Vec<PolyTuple>) -> Result<Self, PolygenError> {
        for t in &tuples {
            if t.len() != schema.degree() {
                return Err(polygen_flat::error::FlatError::ArityMismatch {
                    relation: schema.name().to_string(),
                    expected: schema.degree(),
                    found: t.len(),
                }
                .into());
            }
        }
        Ok(PolygenRelation { schema, tuples })
    }

    /// The Retrieve tagging step: lift a flat relation fetched from local
    /// database `source` into a polygen base relation — every cell's
    /// origin becomes `{source}` and its intermediate set `{}` (Tables
    /// A1–A3).
    pub fn from_flat(rel: &FlatRelation, source: SourceId) -> Self {
        let tuples = rel
            .rows()
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| Cell::retrieved(v.clone(), source))
                    .collect()
            })
            .collect();
        PolygenRelation {
            schema: Arc::clone(rel.schema()),
            tuples,
        }
    }

    /// Tag erasure: the data portion as a flat relation (set semantics —
    /// duplicate data rows collapse). Every polygen operator is
    /// property-tested to commute with this map.
    pub fn strip(&self) -> FlatRelation {
        let rows = self.tuples.iter().map(|t| tuple::data_of(t)).collect();
        FlatRelation::from_rows(Arc::clone(&self.schema), rows)
            .expect("arity preserved by construction")
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Shorthand for the schema name.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Degree (number of attributes).
    pub fn degree(&self) -> usize {
        self.schema.degree()
    }

    /// Borrow the tuples.
    pub fn tuples(&self) -> &[PolyTuple] {
        &self.tuples
    }

    /// Mutable access to the tuples. Callers are responsible for keeping
    /// arity intact; used by operators here and by downstream crates that
    /// synthesize tagged fixtures (workload generation, tests).
    pub fn tuples_mut(&mut self) -> &mut Vec<PolyTuple> {
        &mut self.tuples
    }

    /// Consume into the raw tuple vector.
    pub fn into_tuples(self) -> Vec<PolyTuple> {
        self.tuples
    }

    /// Look up the tuple whose data portion matches `data` exactly.
    pub fn find_by_data(&self, data: &[Value]) -> Option<&PolyTuple> {
        self.tuples
            .iter()
            .find(|t| t.iter().zip(data).all(|(c, v)| &c.datum == v) && t.len() == data.len())
    }

    /// The cell at (tuple matching `data` on the key column, attribute).
    /// Convenience for tests that probe single cells of golden tables.
    pub fn cell(&self, key_attr: &str, key: &Value, attr: &str) -> Option<&Cell> {
        let ki = self.schema.index_of(key_attr).ok()?.0;
        let ai = self.schema.index_of(attr).ok()?.0;
        self.tuples
            .iter()
            .find(|t| &t[ki].datum == key)
            .map(|t| &t[ai])
    }

    /// Collapse tuples equal on the data portion, unioning tags
    /// attribute-wise; first-occurrence order is preserved. This is the
    /// canonical-form step Project and Union perform.
    pub fn merge_duplicates(&mut self) {
        if self.tuples.len() < 2 {
            return;
        }
        // Pass 1, borrowing: each tuple's group is the output position of
        // its data's first occurrence (groups number in first-occurrence
        // order, so a tuple opens its group iff `group == groups so far`).
        let all: Vec<usize> = (0..self.degree()).collect();
        let (groups, distinct) = {
            let mut first: HashMap<DataKey<'_>, usize> = HashMap::with_capacity(self.tuples.len());
            let groups: Vec<usize> = self
                .tuples
                .iter()
                .map(|t| {
                    let next = first.len();
                    *first.entry(DataKey::new(t, &all)).or_insert(next)
                })
                .collect();
            (groups, first.len())
        };
        if distinct == self.tuples.len() {
            return;
        }
        // Pass 2, moving: survivors move out, duplicates fold their tags in.
        let mut merged: Vec<PolyTuple> = Vec::with_capacity(distinct);
        for (t, group) in self.tuples.drain(..).zip(groups) {
            if group == merged.len() {
                merged.push(t);
            } else {
                tuple::absorb_tuple_tags(&mut merged[group], &t);
            }
        }
        self.tuples = merged;
    }

    /// A copy with tuples sorted into a canonical order (data portion
    /// first, then tags) for order-insensitive comparison in tests.
    pub fn canonicalized(&self) -> PolygenRelation {
        let mut tuples = self.tuples.clone();
        tuples.sort();
        PolygenRelation {
            schema: Arc::clone(&self.schema),
            tuples,
        }
    }

    /// Equality on attribute names and the full tagged tuple sets,
    /// ignoring order and relation names.
    pub fn tagged_set_eq(&self, other: &PolygenRelation) -> bool {
        self.schema.attrs() == other.schema.attrs()
            && self.canonicalized().tuples == other.canonicalized().tuples
    }

    /// Replace the schema (attribute relabeling); degrees must match.
    pub fn with_schema(&self, schema: Arc<Schema>) -> Result<PolygenRelation, PolygenError> {
        if schema.degree() != self.schema.degree() {
            return Err(polygen_flat::error::FlatError::ArityMismatch {
                relation: schema.name().to_string(),
                expected: schema.degree(),
                found: self.schema.degree(),
            }
            .into());
        }
        Ok(PolygenRelation {
            schema,
            tuples: self.tuples.clone(),
        })
    }

    /// A renamed copy.
    pub fn renamed(&self, name: &str) -> PolygenRelation {
        PolygenRelation {
            schema: Arc::new(self.schema.renamed(name)),
            tuples: self.tuples.clone(),
        }
    }

    /// Relabel attributes positionally, keeping tags.
    pub fn rename_attrs(&self, mapping: &[&str]) -> Result<PolygenRelation, PolygenError> {
        let schema = Arc::new(self.schema.relabeled_attrs(mapping)?);
        Ok(PolygenRelation {
            schema,
            tuples: self.tuples.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceSet;
    use polygen_flat::relation::Relation;

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn base() -> PolygenRelation {
        let flat = Relation::build("BUSINESS", &["BNAME", "IND"])
            .key(&["BNAME"])
            .row(&["IBM", "High Tech"])
            .row(&["MIT", "Education"])
            .finish()
            .unwrap();
        PolygenRelation::from_flat(&flat, sid(0))
    }

    #[test]
    fn from_flat_tags_every_cell() {
        let p = base();
        assert_eq!(p.len(), 2);
        for t in p.tuples() {
            for c in t {
                assert_eq!(c.origin, SourceSet::singleton(sid(0)));
                assert!(c.intermediate.is_empty());
            }
        }
    }

    #[test]
    fn strip_roundtrip() {
        let p = base();
        let f = p.strip();
        assert_eq!(f.len(), 2);
        assert!(f.contains(&[Value::str("IBM"), Value::str("High Tech")]));
        assert_eq!(f.schema().attr_at(0), "BNAME");
    }

    #[test]
    fn merge_duplicates_unions_tags() {
        let mut p = base();
        let mut dup = p.tuples()[0].clone();
        dup[0].origin = SourceSet::singleton(sid(5));
        dup[1].intermediate = SourceSet::singleton(sid(7));
        p.tuples_mut().push(dup);
        assert_eq!(p.len(), 3);
        p.merge_duplicates();
        assert_eq!(p.len(), 2);
        let ibm = p.cell("BNAME", &Value::str("IBM"), "BNAME").unwrap();
        assert!(ibm.origin.contains(sid(0)) && ibm.origin.contains(sid(5)));
        let ind = p.cell("BNAME", &Value::str("IBM"), "IND").unwrap();
        assert!(ind.intermediate.contains(sid(7)));
    }

    #[test]
    fn arity_checked_on_construction() {
        let p = base();
        let bad = vec![vec![Cell::bare(Value::int(1))]];
        assert!(PolygenRelation::from_tuples(Arc::clone(p.schema()), bad).is_err());
    }

    #[test]
    fn cell_probe() {
        let p = base();
        assert_eq!(
            p.cell("BNAME", &Value::str("MIT"), "IND").unwrap().datum,
            Value::str("Education")
        );
        assert!(p.cell("BNAME", &Value::str("DEC"), "IND").is_none());
        assert!(p.cell("NOPE", &Value::str("MIT"), "IND").is_none());
    }

    #[test]
    fn tagged_set_eq_ignores_order() {
        let p = base();
        let mut q = p.clone();
        q.tuples_mut().reverse();
        assert!(p.tagged_set_eq(&q));
        let mut r = p.clone();
        r.tuples_mut()[0][0].intermediate = SourceSet::singleton(sid(3));
        assert!(!p.tagged_set_eq(&r));
    }

    #[test]
    fn rename_attrs_keeps_tags() {
        let p = base();
        let r = p.rename_attrs(&["ONAME", "INDUSTRY"]).unwrap();
        assert_eq!(r.schema().attr_at(0), "ONAME");
        assert_eq!(
            r.cell("ONAME", &Value::str("IBM"), "ONAME").unwrap().origin,
            SourceSet::singleton(sid(0))
        );
        assert!(p.rename_attrs(&["ONLY"]).is_err());
    }

    #[test]
    fn find_by_data_requires_full_match() {
        let p = base();
        assert!(p
            .find_by_data(&[Value::str("IBM"), Value::str("High Tech")])
            .is_some());
        assert!(p.find_by_data(&[Value::str("IBM")]).is_none());
    }
}
