//! The LQP interface: what the PQP sees of every local system.
//!
//! §I: "The details of the mapping and communication mechanisms between an
//! LQP and its local data bases is encapsulated in the LQP. To the PQP,
//! each LQP behaves as a local relational system." The paper's prototype
//! wrapped I.P. Sharp's proprietary query language and Finsbury's
//! menu-driven interface behind the same facade; [`Capabilities`] models
//! how much of a relational interface a wrapped system really offers.

use polygen_flat::error::FlatError;
use polygen_flat::relation::Relation;
use polygen_flat::schema::Schema;
use polygen_flat::value::{Cmp, Value};
use std::fmt;
use std::sync::Arc;

/// One operation the PQP may route to an LQP. The paper's translator emits
/// two kinds (LQP-executed Select, and Retrieve = "an LQP Restrict
/// operation without any restricting condition"); Project pushdown is
/// this reproduction's extension.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalOp {
    /// Target local relation (LS).
    pub relation: String,
    /// Optional selection predicate `attr θ constant`.
    pub filter: Option<(String, Cmp, Value)>,
    /// Optional restrict predicate `attr θ attr` (the paper defines
    /// Retrieve as "an LQP Restrict operation without any restricting
    /// condition" — local systems can restrict).
    pub restrict: Option<(String, Cmp, String)>,
    /// Optional projection onto named attributes.
    pub projection: Option<Vec<String>>,
}

impl LocalOp {
    /// Retrieve: no condition, no projection.
    pub fn retrieve(relation: &str) -> Self {
        LocalOp {
            relation: relation.to_string(),
            filter: None,
            restrict: None,
            projection: None,
        }
    }

    /// Select `relation[attr θ value]`.
    pub fn select(relation: &str, attr: &str, cmp: Cmp, value: Value) -> Self {
        LocalOp {
            relation: relation.to_string(),
            filter: Some((attr.to_string(), cmp, value)),
            restrict: None,
            projection: None,
        }
    }

    /// Restrict `relation[x θ y]` over two local attributes.
    pub fn restrict(relation: &str, x: &str, cmp: Cmp, y: &str) -> Self {
        LocalOp {
            relation: relation.to_string(),
            filter: None,
            restrict: Some((x.to_string(), cmp, y.to_string())),
            projection: None,
        }
    }

    /// Add a projection.
    pub fn with_projection(mut self, attrs: &[&str]) -> Self {
        self.projection = Some(attrs.iter().map(|a| (*a).to_string()).collect());
        self
    }

    /// Is this a bare retrieve?
    pub fn is_retrieve(&self) -> bool {
        self.filter.is_none() && self.restrict.is_none() && self.projection.is_none()
    }
}

impl fmt::Display for LocalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.relation)?;
        if let Some((a, c, v)) = &self.filter {
            write!(f, "[{a} {c} {v}]")?;
        }
        if let Some((x, c, y)) = &self.restrict {
            write!(f, "[{x} {c} {y}]")?;
        }
        if let Some(p) = &self.projection {
            write!(f, "[{}]", p.join(", "))?;
        }
        Ok(())
    }
}

/// What a wrapped local system can execute natively. Anything it cannot
/// do, the PQP must compensate for by retrieving more and filtering
/// locally — exactly the trade-off the paper's quirky commercial
/// interfaces forced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Can evaluate selection predicates.
    pub pushdown_select: bool,
    /// Can project columns.
    pub pushdown_project: bool,
}

impl Capabilities {
    /// A full single-site relational system.
    pub fn relational() -> Self {
        Capabilities {
            pushdown_select: true,
            pushdown_project: true,
        }
    }

    /// A retrieve-only interface (the Finsbury-style menu system).
    pub fn retrieve_only() -> Self {
        Capabilities {
            pushdown_select: false,
            pushdown_project: false,
        }
    }

    /// Does this capability set admit the operation?
    pub fn admits(&self, op: &LocalOp) -> bool {
        let predicates_ok = self.pushdown_select || (op.filter.is_none() && op.restrict.is_none());
        predicates_ok && (op.projection.is_none() || self.pushdown_project)
    }
}

/// Errors surfaced by LQP execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LqpError {
    /// The LQP has no such relation.
    UnknownRelation { lqp: String, relation: String },
    /// The wrapped interface cannot execute this operation shape.
    Unsupported { lqp: String, op: String },
    /// The LQP is registered but the data dictionary never interned its
    /// name as a source, so its cells cannot be tagged.
    UninternedSource { lqp: String },
    /// A substrate error (bad attribute, arity, …).
    Flat(FlatError),
}

impl fmt::Display for LqpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LqpError::UnknownRelation { lqp, relation } => {
                write!(f, "LQP `{lqp}` has no relation `{relation}`")
            }
            LqpError::Unsupported { lqp, op } => {
                write!(f, "LQP `{lqp}` cannot execute `{op}` natively")
            }
            LqpError::UninternedSource { lqp } => {
                write!(f, "LQP `{lqp}` is not interned in the data dictionary")
            }
            LqpError::Flat(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LqpError {}

impl From<FlatError> for LqpError {
    fn from(e: FlatError) -> Self {
        LqpError::Flat(e)
    }
}

/// The Local Query Processor facade of Figure 1.
pub trait Lqp: Send + Sync {
    /// The local database name (LD) this LQP serves.
    fn name(&self) -> &str;

    /// What the wrapped interface can execute natively.
    fn capabilities(&self) -> Capabilities;

    /// Names of the relations this LQP exposes.
    fn relation_names(&self) -> Vec<String>;

    /// Schema of one relation.
    fn schema_of(&self, relation: &str) -> Option<Arc<Schema>>;

    /// Tuple count of one relation (`sys.sources`' `TUPLES` column).
    fn row_count(&self, relation: &str) -> Option<usize>;

    /// Execute a local operation, returning untagged data (tagging happens
    /// at the PQP boundary: "sources are tagged after data has been
    /// retrieved from each database").
    fn execute(&self, op: &LocalOp) -> Result<Relation, LqpError>;

    /// [`Lqp::execute`] as rows plus, when the operation only filters
    /// them, the ordinals of its survivors in order: `(rows, None)` is
    /// `execute`'s answer and `(rows, Some(ordinals))` stands for
    /// `rows.gather(&ordinals)`. An LQP that holds its relations thereby
    /// ships a filter's survivors without copying them. By default, the
    /// copy `execute` answers.
    fn execute_selection(&self, op: &LocalOp) -> Result<(Relation, Option<Vec<u32>>), LqpError> {
        Ok((self.execute(op)?, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_op_constructors() {
        let r = LocalOp::retrieve("CAREER");
        assert!(r.is_retrieve());
        assert_eq!(r.to_string(), "CAREER");
        let s = LocalOp::select("ALUMNUS", "DEG", Cmp::Eq, Value::str("MBA"));
        assert!(!s.is_retrieve());
        assert_eq!(s.to_string(), "ALUMNUS[DEG = MBA]");
        let sp = s.with_projection(&["AID#", "ANAME"]);
        assert_eq!(sp.to_string(), "ALUMNUS[DEG = MBA][AID#, ANAME]");
    }

    #[test]
    fn capability_gating() {
        let full = Capabilities::relational();
        let menu = Capabilities::retrieve_only();
        let retrieve = LocalOp::retrieve("X");
        let select = LocalOp::select("X", "A", Cmp::Eq, Value::int(1));
        assert!(full.admits(&retrieve) && full.admits(&select));
        assert!(menu.admits(&retrieve));
        assert!(!menu.admits(&select));
        let project_only = LocalOp::retrieve("X").with_projection(&["A"]);
        assert!(!menu.admits(&project_only));
    }

    #[test]
    fn error_display() {
        let e = LqpError::UnknownRelation {
            lqp: "AD".into(),
            relation: "NOPE".into(),
        };
        assert!(e.to_string().contains("no relation `NOPE`"));
    }
}
