//! Adapters simulating the paper's quirky commercial interfaces.
//!
//! Footnote 6: "our prototype's LQP can handle unusual query interfaces,
//! such as I.P. Sharp's proprietary query language and Finsburg's
//! menu-driven interface." We cannot license 1990 Reuters feeds; what the
//! PQP actually observes of them is which operations they accept, and
//! that is simulated here:
//!
//! * [`MenuDrivenLqp`] accepts only whole-relation retrieves, so every
//!   predicate must be evaluated PQP-side after shipping the full
//!   relation (the Finsbury behaviour).
//! * [`CompensatingLqp`] wraps any LQP and *compensates*: operations the
//!   inner interface rejects are downgraded to a retrieve and finished
//!   with the flat algebra inside the adapter — the paper's "mapping and
//!   communication mechanisms … encapsulated in the LQP".

use crate::engine::{Capabilities, LocalOp, Lqp, LqpError};
use polygen_flat::algebra;
use polygen_flat::relation::Relation;
use polygen_flat::schema::Schema;
use std::sync::Arc;

/// A retrieve-only facade over an inner LQP (menu-driven interface).
pub struct MenuDrivenLqp<L> {
    inner: L,
}

impl<L: Lqp> MenuDrivenLqp<L> {
    /// Wrap an inner LQP.
    pub fn new(inner: L) -> Self {
        MenuDrivenLqp { inner }
    }
}

impl<L: Lqp> Lqp for MenuDrivenLqp<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::retrieve_only()
    }

    fn relation_names(&self) -> Vec<String> {
        self.inner.relation_names()
    }

    fn schema_of(&self, relation: &str) -> Option<Arc<Schema>> {
        self.inner.schema_of(relation)
    }

    fn row_count(&self, relation: &str) -> Option<usize> {
        self.inner.row_count(relation)
    }

    fn execute(&self, op: &LocalOp) -> Result<Relation, LqpError> {
        if !op.is_retrieve() {
            return Err(LqpError::Unsupported {
                lqp: self.name().to_string(),
                op: op.to_string(),
            });
        }
        self.inner.execute(op)
    }
}

/// Wraps any LQP; rejected operations are compensated for by retrieving
/// the whole relation and finishing with the flat algebra locally, so the
/// PQP always sees a full relational system (Figure 1's encapsulation).
pub struct CompensatingLqp<L> {
    inner: L,
}

impl<L: Lqp> CompensatingLqp<L> {
    /// Wrap an inner LQP.
    pub fn new(inner: L) -> Self {
        CompensatingLqp { inner }
    }

    /// Borrow the wrapped LQP.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: Lqp> Lqp for CompensatingLqp<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn capabilities(&self) -> Capabilities {
        // The adapter presents full capabilities regardless of the inner
        // interface — that is its whole purpose.
        Capabilities::relational()
    }

    fn relation_names(&self) -> Vec<String> {
        self.inner.relation_names()
    }

    fn schema_of(&self, relation: &str) -> Option<Arc<Schema>> {
        self.inner.schema_of(relation)
    }

    fn row_count(&self, relation: &str) -> Option<usize> {
        self.inner.row_count(relation)
    }

    fn execute(&self, op: &LocalOp) -> Result<Relation, LqpError> {
        if self.inner.capabilities().admits(op) {
            return self.inner.execute(op);
        }
        let mut out = self.inner.execute(&LocalOp::retrieve(&op.relation))?;
        if let Some((attr, cmp, value)) = &op.filter {
            out = algebra::select(&out, attr, *cmp, value.clone())?;
        }
        if let Some((x, cmp, y)) = &op.restrict {
            out = algebra::restrict(&out, x, *cmp, y)?;
        }
        if let Some(attrs) = &op.projection {
            let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            out = algebra::project(&out, &refs)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryLqp;
    use polygen_flat::value::{Cmp, Value};

    fn base() -> InMemoryLqp {
        let firm = Relation::build("FIRM", &["FNAME", "CEO"])
            .row(&["IBM", "John Ackers"])
            .row(&["DEC", "Ken Olsen"])
            .finish()
            .unwrap();
        InMemoryLqp::new("CD", vec![firm])
    }

    #[test]
    fn menu_driven_rejects_predicates() {
        let m = MenuDrivenLqp::new(base());
        assert!(m.execute(&LocalOp::retrieve("FIRM")).is_ok());
        assert!(matches!(
            m.execute(&LocalOp::select(
                "FIRM",
                "FNAME",
                Cmp::Eq,
                Value::str("IBM")
            )),
            Err(LqpError::Unsupported { .. })
        ));
        assert_eq!(m.capabilities(), Capabilities::retrieve_only());
    }

    #[test]
    fn compensating_adapter_finishes_rejected_ops() {
        let menu = MenuDrivenLqp::new(base());
        let comp = CompensatingLqp::new(menu);
        let out = comp
            .execute(&LocalOp::select(
                "FIRM",
                "FNAME",
                Cmp::Eq,
                Value::str("IBM"),
            ))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0][1], Value::str("John Ackers"));
        assert_eq!(comp.capabilities(), Capabilities::relational());
        // Projection compensation too.
        let proj = comp
            .execute(&LocalOp::retrieve("FIRM").with_projection(&["CEO"]))
            .unwrap();
        assert_eq!(proj.degree(), 1);
    }

    #[test]
    fn compensating_adapter_passes_native_ops_through() {
        let comp = CompensatingLqp::new(base());
        let out = comp
            .execute(&LocalOp::select(
                "FIRM",
                "FNAME",
                Cmp::Eq,
                Value::str("DEC"),
            ))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(comp.inner().counters().ops(), 1);
        assert_eq!(comp.relation_names(), vec!["FIRM"]);
        assert_eq!(comp.row_count("FIRM"), Some(2));
        assert!(comp.schema_of("FIRM").is_some());
    }
}
