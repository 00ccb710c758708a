//! # polygen-core — the polygen model and algebra
//!
//! The heart of the Wang & Madnick (1990) reproduction. A *polygen* ("poly"
//! = multiple, "gen" = source) relation extends a classical relation so
//! that every cell is an ordered triplet `(datum, originating sources,
//! intermediate sources)`, answering "where is the data from" and "which
//! intermediate data sources were used to arrive at that data".
//!
//! * [`source`] — interned local-database identities and the bitset
//!   [`source::SourceSet`] both tag portions use.
//! * [`cell`] / `tuple` / [`relation`] — the tagged data model; schemas
//!   are shared with [`polygen_flat`].
//! * [`base`] — late-tagged base relations (flat rows shared with the
//!   LQP plus one source id) and the row view through which the hash
//!   join and Merge kernels read tagged and base operands alike.
//! * [`algebra`] — the six orthogonal primitives (Project, Cartesian
//!   Product, Restrict, Union, Difference, Coalesce) and the derived
//!   operators (Select, θ-Join, Intersect, Outer Join, Outer Natural
//!   Primary/Total Join, Merge), each implementing the paper's exact tag
//!   semantics.
//! * [`stream`] — `Arc`-shared tuple streams and the copy-on-write
//!   stage kernels the physical-plan executor pipelines through, plus
//!   single-pass hash kernels for equi-join and Merge in [`algebra`].
//! * [`batch`] — column-oriented batches with typed per-attribute
//!   vectors, selection-vector filtering and late tag materialization;
//!   the executor's fast path for fused scan→filter→project pipelines.
//! * [`lineage`] — provenance roll-ups over tagged relations.
//! * [`render`] — the paper's `datum, {o}, {i}` presentation.
//!
//! ## Example: the tagging life cycle
//!
//! ```
//! use polygen_core::prelude::*;
//! use polygen_flat::prelude::*;
//!
//! // A local relation retrieved from the Alumni Database ("AD")…
//! let mut reg = SourceRegistry::new();
//! let ad = reg.intern("AD");
//! let alumnus = Relation::build("ALUMNUS", &["ANAME", "DEG"])
//!     .row(&["Bob Swanson", "MBA"])
//!     .row(&["Ken Olsen", "MS"])
//!     .finish()
//!     .unwrap();
//! // …is tagged at retrieval: every cell originates from {AD}.
//! let tagged = PolygenRelation::from_flat(&alumnus, ad);
//!
//! // A PQP-side select records AD as a *mediating* source on every cell.
//! let mbas = algebra::select(&tagged, "DEG", Cmp::Eq, Value::str("MBA")).unwrap();
//! let cell = mbas.cell("ANAME", &Value::str("Bob Swanson"), "ANAME").unwrap();
//! assert!(cell.origin.contains(ad));
//! assert!(cell.intermediate.contains(ad));
//! ```

pub mod algebra;
pub mod base;
pub mod batch;
pub mod cell;
pub mod error;
pub mod lineage;
pub mod relation;
pub mod render;
pub mod source;
pub mod stream;
pub mod tuple;

/// Convenient glob import.
pub mod prelude {
    pub use crate::algebra;
    pub use crate::algebra::{coalesce::ConflictPolicy, merge::merge};
    pub use crate::base::{BaseRelation, Operand, RowView};
    pub use crate::batch::ColumnBatch;
    pub use crate::cell::Cell;
    pub use crate::error::PolygenError;
    pub use crate::lineage;
    pub use crate::relation::PolygenRelation;
    pub use crate::render::{render_cell, render_relation, render_tuple};
    pub use crate::source::{SourceId, SourceRegistry, SourceSet};
    pub use crate::stream::{ParallelOptions, Partitioner, SharedTuple, TupleStream};
    pub use crate::tuple::PolyTuple;
}

pub use base::BaseRelation;
pub use cell::Cell;
pub use error::PolygenError;
pub use relation::PolygenRelation;
pub use source::{SourceId, SourceRegistry, SourceSet};
