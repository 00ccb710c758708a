//! The Intermediate Operation Matrix (IOM) — Tables 2 and 3.
//!
//! "Next the Polygen Operation Interpreter expands the Polygen Operation
//! Matrix and generates an Intermediate Operation Matrix. … The execution
//! location (EL) of an operation depends on where the data resides. Note
//! that when the execution location is an LQP … it is also used as the
//! originating source tag for each of the cells of the polygen base
//! relation" (§III).

use crate::error::PqpError;
use crate::pom::{render_table, Op, RelRef, Rha};
use polygen_flat::value::{Cmp, Value};
use std::fmt;

/// Where a row executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecLoc {
    /// At a Local Query Processor (named by local database).
    Lqp(String),
    /// At the Polygen Query Processor.
    Pqp,
}

impl fmt::Display for ExecLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecLoc::Lqp(db) => write!(f, "{db}"),
            ExecLoc::Pqp => write!(f, "PQP"),
        }
    }
}

/// One row of an Intermediate Operation Matrix (also used for the
/// half-processed matrix `H` between the two interpreter passes).
#[derive(Debug, Clone, PartialEq)]
pub struct IomRow {
    /// Result id `R(pr)`.
    pub pr: usize,
    /// The operator.
    pub op: Op,
    /// Left-hand relation. `Named` means a *local* scheme when `el` is an
    /// LQP, and a not-yet-expanded polygen scheme inside `H`.
    pub lhr: RelRef,
    /// Left-hand attribute(s).
    pub lha: Vec<String>,
    /// θ.
    pub theta: Option<Cmp>,
    /// Right-hand attribute or constant.
    pub rha: Rha,
    /// Right-hand relation.
    pub rhr: RelRef,
    /// Execution location.
    pub el: ExecLoc,
    /// For Merge rows: the multi-source polygen scheme whose attribute
    /// mappings drive column relabeling and whose primary key is the
    /// merge key.
    pub scheme_ctx: Option<String>,
}

impl IomRow {
    /// This row is malformed for `reason`.
    pub(crate) fn malformed(&self, reason: String) -> PqpError {
        PqpError::MalformedRow {
            row: self.pr,
            reason,
        }
    }

    /// The one left-hand attribute.
    pub(crate) fn single_attr(&self) -> Result<&str, PqpError> {
        self.lha
            .first()
            .map(String::as_str)
            .ok_or_else(|| self.malformed("operation requires a left-hand attribute".into()))
    }

    /// θ, `=` when the row has none.
    pub(crate) fn cmp(&self) -> Cmp {
        self.theta.unwrap_or(Cmp::Eq)
    }

    /// The constant right-hand side of a Select.
    pub(crate) fn rha_const(&self) -> Result<&Value, PqpError> {
        match &self.rha {
            Rha::Const(v) => Ok(v),
            _ => Err(self.malformed(format!("{} requires a constant RHA", self.op))),
        }
    }

    /// The attribute right-hand side of a Restrict, Join or AntiJoin.
    pub(crate) fn rha_attr(&self) -> Result<&str, PqpError> {
        match &self.rha {
            Rha::Attr(a) => Ok(a),
            _ => Err(self.malformed(format!("{} requires an attribute RHA", self.op))),
        }
    }
}

/// An Intermediate Operation Matrix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Iom {
    /// Rows in execution order; row `i` defines `R(i+1)`.
    pub rows: Vec<IomRow>,
}

impl Iom {
    /// Number of rows (the paper's `Cardinality`).
    pub fn cardinality(&self) -> usize {
        self.rows.len()
    }

    /// The result id of the final row — the query answer.
    pub fn final_result(&self) -> Option<usize> {
        self.rows.last().map(|r| r.pr)
    }

    /// Count rows routed to LQPs vs the PQP — the routing statistic the
    /// intro-query test and the scale example report.
    pub fn routing_counts(&self) -> (usize, usize) {
        let lqp = self
            .rows
            .iter()
            .filter(|r| matches!(r.el, ExecLoc::Lqp(_)))
            .count();
        (lqp, self.rows.len() - lqp)
    }
}

/// Render Table-2/3 style: `PR | OP | LHR | LHA | θ | RHA | RHR | EL`.
pub fn render_iom(iom: &Iom) -> String {
    let headers = ["PR", "OP", "LHR", "LHA", "θ", "RHA", "RHR", "EL"];
    let body: Vec<[String; 8]> = iom
        .rows
        .iter()
        .map(|r| {
            [
                format!("R({})", r.pr),
                r.op.to_string(),
                r.lhr.to_string(),
                if r.lha.is_empty() {
                    "nil".to_string()
                } else {
                    r.lha.join(", ")
                },
                r.theta.map_or("nil".to_string(), |c| c.to_string()),
                r.rha.to_string(),
                r.rhr.to_string(),
                r.el.to_string(),
            ]
        })
        .collect();
    render_table(&headers, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retrieve_row(pr: usize, rel: &str, db: &str) -> IomRow {
        IomRow {
            pr,
            op: Op::Retrieve,
            lhr: RelRef::Named(rel.into()),
            lha: Vec::new(),
            theta: None,
            rha: Rha::Nil,
            rhr: RelRef::Nil,
            el: ExecLoc::Lqp(db.into()),
            scheme_ctx: None,
        }
    }

    #[test]
    fn routing_counts_split_lqp_pqp() {
        let iom = Iom {
            rows: vec![
                retrieve_row(1, "BUSINESS", "AD"),
                IomRow {
                    pr: 2,
                    op: Op::Merge,
                    lhr: RelRef::DerivedList(vec![1]),
                    lha: Vec::new(),
                    theta: None,
                    rha: Rha::Nil,
                    rhr: RelRef::Nil,
                    el: ExecLoc::Pqp,
                    scheme_ctx: Some("PORGANIZATION".into()),
                },
            ],
        };
        assert_eq!(iom.routing_counts(), (1, 1));
        assert_eq!(iom.final_result(), Some(2));
        assert_eq!(iom.cardinality(), 2);
    }

    #[test]
    fn render_contains_el_column() {
        let iom = Iom {
            rows: vec![retrieve_row(1, "CAREER", "AD")],
        };
        let shown = render_iom(&iom);
        assert!(shown.contains("EL"));
        assert!(shown.contains("AD"));
        assert!(shown.contains("Retrieve"));
    }

    #[test]
    fn execloc_display() {
        assert_eq!(ExecLoc::Lqp("AD".into()).to_string(), "AD");
        assert_eq!(ExecLoc::Pqp.to_string(), "PQP");
    }
}
