//! An in-memory single-site relational LQP — the reference local system.
//!
//! Holds a local database's relations and executes [`LocalOp`]s with the
//! flat algebra. Instrumented with shipment counters so benchmarks and the
//! optimizer's pushdown ablation can measure how many tuples each strategy
//! moves out of the local system (the figure of merit the paper's
//! "cost-effective … composite information" remark points at).

use crate::engine::{Capabilities, LocalOp, Lqp, LqpError, RelStats};
use polygen_flat::algebra;
use polygen_flat::relation::Relation;
use polygen_flat::schema::Schema;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative execution counters (monotone; cheap atomics).
#[derive(Debug, Default)]
pub struct LqpCounters {
    ops: AtomicU64,
    tuples_shipped: AtomicU64,
}

impl LqpCounters {
    /// Operations executed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Tuples returned to the PQP so far.
    pub fn tuples_shipped(&self) -> u64 {
        self.tuples_shipped.load(Ordering::Relaxed)
    }

    fn record(&self, shipped: usize) {
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.tuples_shipped
            .fetch_add(shipped as u64, Ordering::Relaxed);
    }
}

/// The in-memory LQP.
pub struct InMemoryLqp {
    name: String,
    relations: HashMap<String, Relation>,
    capabilities: Capabilities,
    counters: LqpCounters,
}

impl InMemoryLqp {
    /// Build over a set of relations with full relational capabilities.
    pub fn new(name: &str, relations: Vec<Relation>) -> Self {
        InMemoryLqp {
            name: name.to_string(),
            relations: relations
                .into_iter()
                .map(|r| (r.name().to_string(), r))
                .collect(),
            capabilities: Capabilities::relational(),
            counters: LqpCounters::default(),
        }
    }

    /// Restrict the native capabilities (used by the adapter layer).
    pub fn with_capabilities(mut self, capabilities: Capabilities) -> Self {
        self.capabilities = capabilities;
        self
    }

    /// The shipment counters.
    pub fn counters(&self) -> &LqpCounters {
        &self.counters
    }

    fn relation(&self, name: &str) -> Result<&Relation, LqpError> {
        self.relations
            .get(name)
            .ok_or_else(|| LqpError::UnknownRelation {
                lqp: self.name.clone(),
                relation: name.to_string(),
            })
    }
}

impl Lqp for InMemoryLqp {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> Capabilities {
        self.capabilities
    }

    fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    fn schema_of(&self, relation: &str) -> Option<Arc<Schema>> {
        self.relations.get(relation).map(|r| Arc::clone(r.schema()))
    }

    fn stats(&self, relation: &str) -> Option<RelStats> {
        self.relations.get(relation).map(|r| RelStats {
            rows: r.len(),
            degree: r.degree(),
        })
    }

    fn execute(&self, op: &LocalOp) -> Result<Relation, LqpError> {
        if !self.capabilities.admits(op) {
            return Err(LqpError::Unsupported {
                lqp: self.name.clone(),
                op: op.to_string(),
            });
        }
        // A retrieve hands out the stored rows themselves (the clone is
        // two pointer copies); a predicate copies its survivors once.
        let mut out = self.relation(&op.relation)?.clone();
        if let Some((attr, cmp, value)) = &op.filter {
            let x = out.schema().index_of(attr)?.0;
            out = out.subset(|row| row[x].satisfies(*cmp, value));
        }
        if let Some((x, cmp, y)) = &op.restrict {
            let xi = out.schema().index_of(x)?.0;
            let yi = out.schema().index_of(y)?.0;
            out = out.subset(|row| row[xi].satisfies(*cmp, &row[yi]));
        }
        if let Some(attrs) = &op.projection {
            let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            out = algebra::project(&out, &refs)?;
        }
        self.counters.record(out.len());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_flat::value::{Cmp, Value};

    fn lqp() -> InMemoryLqp {
        let alumnus = Relation::build("ALUMNUS", &["AID#", "ANAME", "DEG"])
            .row(&["012", "John McCauley", "MBA"])
            .row(&["345", "James Yao", "BS"])
            .finish()
            .unwrap();
        InMemoryLqp::new("AD", vec![alumnus])
    }

    #[test]
    fn retrieve_returns_whole_relation() {
        let l = lqp();
        let r = l.execute(&LocalOp::retrieve("ALUMNUS")).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(l.counters().ops(), 1);
        assert_eq!(l.counters().tuples_shipped(), 2);
    }

    #[test]
    fn select_filters_locally() {
        let l = lqp();
        let r = l
            .execute(&LocalOp::select(
                "ALUMNUS",
                "DEG",
                Cmp::Eq,
                Value::str("MBA"),
            ))
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(l.counters().tuples_shipped(), 1);
    }

    #[test]
    fn projection_pushdown() {
        let l = lqp();
        let r = l
            .execute(&LocalOp::retrieve("ALUMNUS").with_projection(&["ANAME"]))
            .unwrap();
        assert_eq!(r.degree(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn unknown_relation_and_attribute_errors() {
        let l = lqp();
        assert!(matches!(
            l.execute(&LocalOp::retrieve("NOPE")),
            Err(LqpError::UnknownRelation { .. })
        ));
        assert!(matches!(
            l.execute(&LocalOp::select("ALUMNUS", "NOPE", Cmp::Eq, Value::int(1))),
            Err(LqpError::Flat(_))
        ));
    }

    #[test]
    fn capability_restriction_rejects_pushdown() {
        let l = lqp().with_capabilities(Capabilities::retrieve_only());
        assert!(l.execute(&LocalOp::retrieve("ALUMNUS")).is_ok());
        assert!(matches!(
            l.execute(&LocalOp::select(
                "ALUMNUS",
                "DEG",
                Cmp::Eq,
                Value::str("MBA")
            )),
            Err(LqpError::Unsupported { .. })
        ));
    }

    #[test]
    fn introspection() {
        let l = lqp();
        assert_eq!(l.relation_names(), vec!["ALUMNUS"]);
        assert_eq!(l.stats("ALUMNUS").unwrap().rows, 2);
        assert_eq!(l.stats("ALUMNUS").unwrap().degree, 3);
        assert!(l.schema_of("ALUMNUS").unwrap().contains("DEG"));
        assert!(l.schema_of("NOPE").is_none());
    }
}
