//! # polygen — facade crate
//!
//! A from-scratch Rust reproduction of Wang & Madnick's *"A Polygen Model
//! for Heterogeneous Database Systems: The Source Tagging Perspective"*
//! (MIT Sloan, 1990): the polygen data model and algebra with data-source
//! and intermediate-source tagging, the data-driven polygen query
//! translator, the Polygen Query Processor, Local Query Processors, and the
//! surrounding Composite Information System architecture.
//!
//! This crate re-exports the whole workspace under stable module names; see
//! `README.md` for a tour and `examples/` for runnable entry points:
//!
//! * [`flat`] — untagged relational substrate (local DBMS engine, baseline).
//! * [`core`] — the polygen model: tagged cells, relations, and the
//!   six-primitive polygen algebra.
//! * [`catalog`] — polygen schemes/schemas, attribute mappings, the CIS
//!   data dictionary, and the paper's complete MIT scenario.
//! * [`lqp`] — Local Query Processors (Figure 1).
//! * [`index`] — secondary indexes over source relations: hash and
//!   sorted ordinal indexes the planner pushes selective predicates
//!   onto, rebuilt per source on snapshot version bumps.
//! * [`sql`] — SQL polygen-query and algebra-expression front ends, and
//!   Figure 1's application schemas with the Application Query
//!   Processor that rewrites application SQL into polygen SQL.
//! * [`pqp`] — the Polygen Query Processor (Figure 2): Syntax Analyzer,
//!   two-pass Polygen Operation Interpreter (Figures 3–4), physical-plan
//!   lowering and the executor. Figure 2's Query Optimizer is left out,
//!   as the paper leaves its details out: Table 3's IOM runs as the plan.
//! * [`federation`] — §V's source-credibility tools: credibility-based
//!   conflict resolution and answer ranking, and the cardinality audit.
//! * [`serve`] — the concurrent query service: federation snapshots
//!   with per-source versioning, plan & tagged-result caching, sessions,
//!   admission control and a shared thread budget.
//! * [`net`] — the TCP front door: a length-prefixed binary protocol
//!   over the serve layer's request/response envelope, with a blocking
//!   client.
//! * [`obs`] — zero-dependency observability primitives: the
//!   `Trace`/`Span` recorder behind query tracing and EXPLAIN ANALYZE,
//!   lock-free latency histograms with Prometheus exposition, exact
//!   percentile summaries, and the ranked slow-query log.
//! * [`workload`] — seeded synthetic-federation generator and
//!   closed-loop multi-client driver, whose scripts are serve-layer
//!   `Request`s, for benchmarks.

pub use polygen_catalog as catalog;
pub use polygen_core as core;
pub use polygen_federation as federation;
pub use polygen_flat as flat;
pub use polygen_index as index;
pub use polygen_lqp as lqp;
pub use polygen_net as net;
pub use polygen_obs as obs;
pub use polygen_pqp as pqp;
pub use polygen_serve as serve;
pub use polygen_sql as sql;
pub use polygen_workload as workload;

/// One-stop import for examples and downstream users.
///
/// The two `algebra` modules stay qualified to avoid ambiguity: use
/// `core::algebra` for the tagged operators and `flat::algebra` for the
/// untagged baseline.
pub mod prelude {
    pub use polygen_catalog::prelude::*;
    pub use polygen_core::prelude::{
        lineage, render_cell, render_relation, render_tuple, Cell, ConflictPolicy, PolyTuple,
        PolygenError, PolygenRelation, SourceId, SourceRegistry, SourceSet,
    };
    pub use polygen_federation::prelude::*;
    pub use polygen_flat::prelude::{
        Cmp, FlatError, Relation, RelationBuilder, Row, Schema, Value,
    };
    pub use polygen_lqp::prelude::*;
    pub use polygen_pqp::prelude::*;
    pub use polygen_sql::prelude::*;
}
