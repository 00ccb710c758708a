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
//! Physical-plan lowering ──▶ operator tree: Scan leaves, fused
//!              Select/Restrict/Project pipelines, single-pass hash
//!              equi-joins, k-way hash Merge            ([`plan`])
//!      ▼
//! Executor ──▶ walks the physical plan, materializing only pipeline
//!              breakers, and returns the answer         (Table 9);
//!              the eager row-by-row reference interpreter
//!              `execute_eager` keeps every `R(n)`       (Tables 4–8)
//! ```
//!
//! Figure 2's Query Optimizer stage is left out, as the paper leaves its
//! details out: Table 3's IOM is the query execution plan, run "without
//! further optimization", and lowering only picks each operator's
//! physical strategy.
//!
//! Entry point: [`pqp::Pqp`]. [`Pqp::compile`] produces every stage
//! above as a [`pqp::CompiledQuery`] and [`Pqp::run_compiled`] executes
//! its physical plan; `Pqp::for_scenario` wires the paper's MIT
//! federation. Answers are served by `polygen-serve`'s
//! `QueryService::execute`, which compiles and runs through these two.
//! [`explain::explain`] renders a compiled query and its answer in the
//! paper's table notation.

pub mod analyzer;
pub mod error;
pub mod executor;
pub mod explain;
pub mod interpreter;
pub mod iom;
pub mod plan;
pub mod pom;
#[allow(clippy::module_inception)]
pub mod pqp;

/// Convenient glob import.
pub mod prelude {
    pub use crate::analyzer::analyze;
    pub use crate::error::PqpError;
    pub use crate::executor::{execute_eager, execute_plan, ExecutionTrace};
    pub use crate::explain::{explain, render_analyzed_plan};
    pub use crate::interpreter::{interpret, pass_one, pass_two};
    pub use crate::iom::{render_iom, ExecLoc, Iom, IomRow};
    pub use crate::plan::{
        lower as lower_plan, render_plan, route_index_scans, PhysNode, PhysOp, PhysicalPlan, Route,
        Stage, StageKind,
    };
    pub use crate::pom::{render_pom, Op, Pom, PomRow, RelRef, Rha};
    pub use crate::pqp::{CompiledQuery, Pqp, PqpOptions};
}

pub use error::PqpError;
pub use pqp::{Pqp, PqpOptions};
