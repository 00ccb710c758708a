//! # polygen-federation — §V's source-credibility tools
//!
//! The extensions §I and §V motivate, read off the polygen model's source
//! tags:
//!
//! * [`credibility`] — credibility-scored conflict resolution and answer
//!   ranking over source tags ("knowing the data source credibility will
//!   enable the user or the query processor to further resolve potential
//!   conflicts").
//! * [`cardinality`] — the footnote-13 cardinality-inconsistency audit:
//!   which keys do the sources of a multi-source scheme disagree on?
//!
//! Figure 1's application schemas and Application Query Processor live
//! in `polygen_sql::app`; the query service answers application queries
//! through `QueryService::with_app_schema` and `Request::app`.

pub mod cardinality;
pub mod credibility;

/// Convenient glob import.
pub mod prelude {
    pub use crate::cardinality::{audit_scheme, AuditError, CardinalityReport};
    pub use crate::credibility::{
        cell_credibility, merge_by_credibility, rank_tuples, resolve_by_credibility,
        ResolvedConflict,
    };
}
