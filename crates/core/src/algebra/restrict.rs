//! Restrict — third orthogonal primitive — and its constant form, Select.
//!
//! §II: `p[x θ y] = { t' | t'(d) = t(d), t'(o) = t(o),
//! t'[w](i) = t[w](i) ∪ t[x](o) ∪ t[y](o) ∀ w ∈ attrs(p),
//! if t ∈ p ∧ t[x](d) θ t[y](d) }`
//!
//! This is where intermediate-source tagging happens: "the originating
//! local databases of the x and y attribute values are added to the t(i)
//! set in order to signify their mediating role." Every cell of a surviving
//! tuple — not just the compared ones — gains those origins, because those
//! sources mediated the *selection of the whole tuple*.
//!
//! A Select (`p[x θ const]`) is the same operation against a constant;
//! constants originate nowhere, so only `t[x](o)` is added. When a Select
//! executes *inside* an LQP (as in Table 4) the data is not yet tagged, so
//! no intermediate tags appear — that path goes through the flat algebra
//! and [`PolygenRelation::from_flat`](crate::relation::PolygenRelation::from_flat).

use crate::error::PolygenError;
use crate::relation::PolygenRelation;
use crate::tuple;
use polygen_flat::schema::Schema;
use polygen_flat::value::{Cmp, Value};
use std::sync::Arc;

/// `p[x θ y]` — keep tuples whose `x` and `y` data satisfy θ, tagging
/// every kept cell's intermediate set with both attributes' origins.
pub fn restrict(
    p: &PolygenRelation,
    x: &str,
    cmp: Cmp,
    y: &str,
) -> Result<PolygenRelation, PolygenError> {
    let xi = p.schema().index_of(x)?.0;
    let yi = p.schema().index_of(y)?.0;
    let mut tuples = Vec::new();
    for t in p.tuples() {
        if t[xi].datum.satisfies(cmp, &t[yi].datum) {
            let mut kept = t.clone();
            let mediators = t[xi].origin.union(&t[yi].origin);
            tuple::add_intermediate_all(&mut kept, &mediators);
            tuples.push(kept);
        }
    }
    PolygenRelation::from_tuples(Arc::clone(p.schema()), tuples)
}

/// `p[x θ c]` — Select: restrict against a constant. The constant
/// contributes no sources, so only `t[x](o)` joins the intermediate tags.
pub fn select(
    p: &PolygenRelation,
    x: &str,
    cmp: Cmp,
    constant: Value,
) -> Result<PolygenRelation, PolygenError> {
    let xi = p.schema().index_of(x)?.0;
    let mut tuples = Vec::new();
    for t in p.tuples() {
        if t[xi].datum.satisfies(cmp, &constant) {
            let mut kept = t.clone();
            let mediators = t[xi].origin.clone();
            tuple::add_intermediate_all(&mut kept, &mediators);
            tuples.push(kept);
        }
    }
    PolygenRelation::from_tuples(Arc::clone(p.schema()), tuples)
}

/// A Select or Restrict as a fused kernel runs it: tested on a row's
/// borrowed data before any cell of the row exists, with [`select()`] /
/// [`restrict()`]'s tag update on the rows it keeps. A chain of them
/// keeps the rows that pass every one; each kept cell gains every
/// stage's mediators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowFilter<'s> {
    /// `[attr θ value]`, as [`select()`].
    Select {
        /// The compared column.
        attr: &'s str,
        /// θ.
        cmp: Cmp,
        /// The constant.
        value: &'s Value,
    },
    /// `[x θ y]`, as [`restrict()`].
    Restrict {
        /// The left column.
        x: &'s str,
        /// θ.
        cmp: Cmp,
        /// The right column.
        y: &'s str,
    },
}

impl<'s> RowFilter<'s> {
    /// The filter over the columns of `schema`.
    pub(crate) fn resolve(&self, schema: &Schema) -> Result<ColumnFilter<'s>, PolygenError> {
        Ok(match *self {
            RowFilter::Select { attr, cmp, value } => ColumnFilter {
                x: schema.index_of(attr)?.0,
                cmp,
                y: Err(value),
            },
            RowFilter::Restrict { x, cmp, y } => ColumnFilter {
                x: schema.index_of(x)?.0,
                cmp,
                y: Ok(schema.index_of(y)?.0),
            },
        })
    }

    /// The reference form: [`select()`] or [`restrict()`] over a whole
    /// relation.
    pub(crate) fn apply(&self, p: &PolygenRelation) -> Result<PolygenRelation, PolygenError> {
        match *self {
            RowFilter::Select { attr, cmp, value } => select(p, attr, cmp, value.clone()),
            RowFilter::Restrict { x, cmp, y } => restrict(p, x, cmp, y),
        }
    }
}

/// A [`RowFilter`] resolved to column positions: `x θ y`, where `y` is
/// a column (`Ok`) or a Select's constant (`Err`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnFilter<'s> {
    x: usize,
    cmp: Cmp,
    y: Result<usize, &'s Value>,
}

impl ColumnFilter<'_> {
    /// Does a row with these data pass?
    pub(crate) fn passes(&self, data: &[&Value]) -> bool {
        let rhs = match self.y {
            Ok(yi) => data[yi],
            Err(constant) => constant,
        };
        data[self.x].satisfies(self.cmp, rhs)
    }

    /// The columns whose origins the filter adds as mediators: `x`, and
    /// `y` for a Restrict. Constants originate nowhere.
    pub(crate) fn mediator_columns(&self) -> impl Iterator<Item = usize> {
        std::iter::once(self.x).chain(self.y.ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::source::{SourceId, SourceSet};
    use polygen_flat::schema::Schema;

    fn sid(i: u16) -> SourceId {
        SourceId(i)
    }

    fn rel() -> PolygenRelation {
        // Two attributes originating from different sources so the
        // mediator set is visible.
        let schema = Arc::new(Schema::new("T", &["CEO", "ANAME", "OTHER"]).unwrap());
        let mk = |ceo: &str, nm: &str, o1: u16, o2: u16| {
            vec![
                Cell::new(
                    Value::str(ceo),
                    SourceSet::singleton(sid(o1)),
                    SourceSet::empty(),
                ),
                Cell::new(
                    Value::str(nm),
                    SourceSet::singleton(sid(o2)),
                    SourceSet::empty(),
                ),
                Cell::retrieved(Value::str("x"), sid(9)),
            ]
        };
        PolygenRelation::from_tuples(
            Arc::new(schema.as_ref().clone()),
            vec![
                mk("John Reed", "John Reed", 2, 0),
                mk("Ken Olsen", "Bob Swanson", 2, 0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn restrict_filters_and_tags_every_cell() {
        let r = restrict(&rel(), "CEO", Cmp::Eq, "ANAME").unwrap();
        assert_eq!(r.len(), 1);
        let t = &r.tuples()[0];
        for c in t {
            assert!(c.intermediate.contains(sid(2)), "x origin added");
            assert!(c.intermediate.contains(sid(0)), "y origin added");
        }
        // Origins untouched.
        assert_eq!(t[2].origin, SourceSet::singleton(sid(9)));
    }

    #[test]
    fn select_tags_only_x_origin() {
        let r = select(&rel(), "CEO", Cmp::Eq, Value::str("Ken Olsen")).unwrap();
        assert_eq!(r.len(), 1);
        let t = &r.tuples()[0];
        for c in t {
            assert!(c.intermediate.contains(sid(2)));
            assert!(!c.intermediate.contains(sid(0)));
        }
    }

    #[test]
    fn nil_never_satisfies() {
        let schema = Arc::new(Schema::new("T", &["A", "B"]).unwrap());
        let p = PolygenRelation::from_tuples(
            schema,
            vec![vec![
                Cell::nil_padding(SourceSet::empty()),
                Cell::retrieved(Value::str("x"), sid(0)),
            ]],
        )
        .unwrap();
        assert!(restrict(&p, "A", Cmp::Eq, "B").unwrap().is_empty());
        assert!(restrict(&p, "A", Cmp::Ne, "B").unwrap().is_empty());
        assert!(select(&p, "A", Cmp::Eq, Value::Null).unwrap().is_empty());
    }

    #[test]
    fn intermediate_tags_grow_monotonically() {
        let r1 = restrict(&rel(), "CEO", Cmp::Eq, "ANAME").unwrap();
        let r2 = restrict(&r1, "CEO", Cmp::Eq, "ANAME").unwrap();
        for (t1, t2) in r1.tuples().iter().zip(r2.tuples()) {
            for (c1, c2) in t1.iter().zip(t2) {
                assert!(c1.intermediate.is_subset(&c2.intermediate));
            }
        }
    }

    #[test]
    fn unknown_attrs_error() {
        assert!(restrict(&rel(), "NOPE", Cmp::Eq, "ANAME").is_err());
        assert!(select(&rel(), "NOPE", Cmp::Eq, Value::Null).is_err());
    }

    #[test]
    fn strip_commutes_with_restrict_and_select() {
        let p = rel();
        let a = restrict(&p, "CEO", Cmp::Eq, "ANAME").unwrap().strip();
        let b = polygen_flat::algebra::restrict(&p.strip(), "CEO", Cmp::Eq, "ANAME").unwrap();
        assert!(a.set_eq(&b));
        let c = select(&p, "CEO", Cmp::Ne, Value::str("John Reed"))
            .unwrap()
            .strip();
        let d = polygen_flat::algebra::select(&p.strip(), "CEO", Cmp::Ne, Value::str("John Reed"))
            .unwrap();
        assert!(c.set_eq(&d));
    }
}
