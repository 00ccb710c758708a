//! # polygen-pqp — the Polygen Query Processor
//!
//! Figure 2's pipeline, end to end:
//!
//! ```text
//! SQL ──lower──▶ algebra expression
//!      │ (polygen-sql)
//!      ▼
//! Syntax Analyzer ──▶ Polygen Operation Matrix        (Table 1)
//!      ▼
//! Interpreter pass one ──▶ half-processed IOM          (Table 2)
//!      ▼
//! Interpreter pass two ──▶ Intermediate Operation Matrix (Table 3)
//!      ▼
//! Query Optimizer ──▶ optimized IOM
//!      ▼
//! Physical-plan lowering ──▶ operator DAG: Scan leaves, fused
//!              Select/Restrict/Project pipelines, single-pass hash
//!              equi-joins, k-way hash Merge            ([`plan`])
//!      ▼
//! Executor ──▶ walks the physical plan, materializing only pipeline
//!              breakers; the eager row-by-row reference interpreter
//!              survives as `execute_eager`             (Tables 4–9)
//! ```
//!
//! Entry point: [`pqp::Pqp`]. `Pqp::for_scenario` wires the paper's MIT
//! federation; [`explain::explain`] renders the whole pipeline in the
//! paper's table notation.

pub mod analyzer;
pub mod costing;
pub mod error;
pub mod executor;
pub mod explain;
pub mod interpreter;
pub mod iom;
pub mod optimizer;
pub mod plan;
pub mod pom;
#[allow(clippy::module_inception)]
pub mod pqp;

/// Convenient glob import.
pub mod prelude {
    pub use crate::analyzer::analyze;
    pub use crate::costing::{estimate, estimate_physical, PlanCost};
    pub use crate::error::PqpError;
    pub use crate::executor::{execute, execute_eager, execute_plan, resolve_attr, ExecutionTrace};
    pub use crate::explain::{explain, render_analyzed_plan};
    pub use crate::interpreter::{interpret, pass_one, pass_two};
    pub use crate::iom::{render_iom, ExecLoc, Iom, IomRow};
    pub use crate::optimizer::{optimize, OptimizerReport};
    pub use crate::plan::{
        lower as lower_plan, render_plan, route_index_scans, PhysNode, PhysOp, PhysicalPlan, Stage,
        StageKind,
    };
    pub use crate::pom::{render_pom, Op, Pom, PomRow, RelRef, Rha};
    pub use crate::pqp::{CompiledQuery, Pqp, PqpOptions, QueryOutcome};
}

pub use error::PqpError;
pub use pqp::{Pqp, PqpOptions, QueryOutcome};
