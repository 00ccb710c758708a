//! An in-memory single-site relational LQP — the reference local system.
//!
//! Holds a local database's relations and executes [`LocalOp`]s with the
//! flat algebra. Instrumented with shipment counters so benchmarks and
//! tests can measure how many tuples each strategy moves out of the local
//! system (the figure of merit the paper's
//! "cost-effective … composite information" remark points at).

use crate::engine::{Capabilities, LocalOp, Lqp, LqpError};
use polygen_flat::algebra;
use polygen_flat::relation::Relation;
use polygen_flat::schema::Schema;
use polygen_flat::value::Value;
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

    /// Run `op` as [`Lqp::execute_selection`] answers it and count the
    /// rows it ships. A retrieve hands out the stored rows themselves
    /// (the clone is two pointer copies) and a filter or restrict adds
    /// its survivors' ordinals; only a projection copies.
    fn run(&self, op: &LocalOp) -> Result<(Relation, Option<Vec<u32>>), LqpError> {
        if !self.capabilities.admits(op) {
            return Err(LqpError::Unsupported {
                lqp: self.name.clone(),
                op: op.to_string(),
            });
        }
        let stored = self.relation(&op.relation)?;
        let survivors = survivors(stored, op)?;
        let answer = match &op.projection {
            None => (stored.clone(), survivors),
            Some(attrs) => {
                let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let rows = survivors.map_or_else(|| stored.clone(), |o| stored.gather(&o));
                (algebra::project(&rows, &refs)?, None)
            }
        };
        let shipped = answer.1.as_ref().map_or(answer.0.len(), Vec::len);
        self.counters.record(shipped);
        Ok(answer)
    }
}

/// The ordinals of `rel`'s rows that `op`'s filter and then its restrict
/// keep, in order; `None` when it has neither.
fn survivors(rel: &Relation, op: &LocalOp) -> Result<Option<Vec<u32>>, LqpError> {
    if op.filter.is_none() && op.restrict.is_none() {
        return Ok(None);
    }
    let schema = rel.schema();
    let filter = match &op.filter {
        Some((attr, cmp, value)) => Some((schema.index_of(attr)?.0, *cmp, value)),
        None => None,
    };
    let restrict = match &op.restrict {
        Some((x, cmp, y)) => Some((schema.index_of(x)?.0, *cmp, schema.index_of(y)?.0)),
        None => None,
    };
    assert!(
        u32::try_from(rel.len()).is_ok(),
        "stored relations fit u32 ordinals"
    );
    let keep = |row: &[Value]| {
        filter.is_none_or(|(x, cmp, value)| row[x].satisfies(cmp, value))
            && restrict.is_none_or(|(x, cmp, y)| row[x].satisfies(cmp, &row[y]))
    };
    Ok(Some(
        (0..)
            .zip(rel.rows())
            .filter(|(_, row)| keep(row))
            .map(|(o, _)| o)
            .collect(),
    ))
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

    fn row_count(&self, relation: &str) -> Option<usize> {
        self.relations.get(relation).map(Relation::len)
    }

    fn execute(&self, op: &LocalOp) -> Result<Relation, LqpError> {
        Ok(match self.run(op)? {
            (rows, Some(survivors)) => rows.gather(&survivors),
            (rows, None) => rows,
        })
    }

    fn execute_selection(&self, op: &LocalOp) -> Result<(Relation, Option<Vec<u32>>), LqpError> {
        self.run(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_flat::value::Cmp;

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
        assert_eq!(l.row_count("ALUMNUS"), Some(2));
        assert_eq!(l.row_count("NOPE"), None);
        assert!(l.schema_of("ALUMNUS").unwrap().contains("DEG"));
        assert!(l.schema_of("NOPE").is_none());
    }
}
