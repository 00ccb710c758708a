//! # polygen-serve — the mediator as a service
//!
//! The paper's CIS workstation answers one query for one user. This
//! crate turns it into what the architecture was drawn for: a mediator
//! *service* that many sessions query concurrently, amortizing work
//! across users. Three ideas carry the design:
//!
//! * [`snapshot`] — an immutable [`snapshot::FederationSnapshot`]
//!   (`Arc`-shared dictionary + LQP registry) with a per-source version
//!   vector; updating a source swaps in a successor snapshot and bumps
//!   one version. Sessions never deep-clone federation state.
//! * [`cache`] — a plan cache keyed on canonical query text (compile
//!   once, replay everywhere) and a tagged-result cache keyed on
//!   `(plan fingerprint × the versions of exactly the sources the plan
//!   reads)`. Because the polygen model makes provenance *data* —
//!   origin and intermediate tags ride in every cell, deterministically
//!   — a cached answer is byte-identical to a cold re-execution, and a
//!   version bump invalidates precisely the answers that read the
//!   updated source. Every cached answer is held as the exact frames
//!   the wire sends.
//! * [`request`] — the transport-agnostic envelope:
//!   [`request::Request`] (text + language + options) in,
//!   [`request::Response`] (`Rows` / `Explain` / `Empty` / `Error` with
//!   a stable numeric [`request::ErrorCode`]) out — the same shape
//!   served in-process, over the `polygen-net` wire, and by the
//!   examples.
//! * [`service`] — sessions, admission control (bounded concurrency +
//!   bounded queue + load shedding), and a shared thread budget: each
//!   admitted query gets `max(1, budget / active)` workers for its
//!   partition-parallel operators, so inter- and intra-query
//!   parallelism spend one pool. [`metrics`] counts hits, latencies and
//!   peaks.
//! * [`wire`] — the data half of the wire protocol, and the one owner
//!   of an answer's bytes: the frame vocabulary, its deterministic
//!   [`wire::codec`], and the mapping between frames and the envelope.
//!   A result-cache entry is an answer's [`wire::AnswerFrames`], and
//!   [`QueryService::execute_encoded`](service::QueryService::execute_encoded)
//!   answers with the bytes a transport sends. `polygen-net` puts
//!   sockets, the session handshake and a worker pool around it.
//! * [`sys`] — the mediator as its own tagged source: six `sys.*`
//!   polygen schemes (slow queries, live sessions, windowed stats,
//!   sources, caches, indexes) materialized from live service state at
//!   query admission and answered through the ordinary front doors,
//!   every row origin-tagged `sys`.
//!
//! The differential guarantee the property suite
//! (`tests/properties_service.rs`) locks down: with caches on and N
//! concurrent sessions, every answer — data, origin tags, intermediate
//! tags — is byte-identical to single-client, cache-off execution,
//! including across a mid-run source update.

pub mod cache;
pub mod metrics;
pub mod request;
pub mod service;
pub mod snapshot;
pub mod sys;
pub mod wire;

/// Convenient glob import.
pub mod prelude {
    pub use crate::cache::{PlanCache, PlanEntry, ResultCache, ResultKey};
    pub use crate::metrics::{MetricsSnapshot, ServiceMetrics};
    pub use crate::request::{
        ErrorCode, ExplainOptions, Lang, Request, RequestOptions, Response, ResponseInfo,
    };
    pub use crate::service::{QueryService, ServeError, ServeOptions, Session};
    pub use crate::snapshot::{Federation, FederationSnapshot, VersionVector};
    pub use crate::sys::{SysCatalog, SYS_DB};
    pub use polygen_index::{IndexCatalog, IndexKind, IndexSpec};
    pub use polygen_obs::prelude::*;
}

pub use request::{ErrorCode, ExplainOptions, Lang, Request, Response};
pub use service::{QueryService, ServeOptions};
pub use snapshot::{Federation, FederationSnapshot};
