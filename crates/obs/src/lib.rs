//! # polygen-obs — observability primitives
//!
//! Zero-dependency building blocks the serving stack threads through
//! every layer: "where did this query's 1.3ms go?" and "what is p99
//! under load?" must be answerable from inside the process, without an
//! external profiler.
//!
//! * [`trace`] — a pay-for-what-you-use span recorder. A disabled
//!   [`trace::Trace`] is a `None` behind an `Option<Arc<_>>`: every
//!   span site costs exactly one branch, and results are byte-identical
//!   with tracing on or off (spans observe, never steer). Enabled, it
//!   records monotonic-clock spans with parent links and typed
//!   annotations; [`trace::TraceReport::render_waterfall`] prints the
//!   decode → queue → plan → execute → flush story of one query.
//! * [`hist`] — a lock-free log-bucketed [`hist::Histogram`]
//!   (power-of-two µs buckets, atomic counters) with mergeable
//!   [`hist::HistogramSnapshot`]s, nearest-rank p50/p95/p99 within
//!   bucket resolution, and Prometheus text exposition.
//! * [`summary`] — [`summary::LatencySummary`], exact order statistics
//!   over a bounded sample set (the workload drivers' measured-client
//!   view). The histogram is the unbounded streaming twin; a property
//!   test pins their percentiles to each other within bucket bounds.
//! * [`slowlog`] — a ring buffer of the N worst queries over a
//!   threshold, each holding its (possibly still-live) trace handle so
//!   a scrape renders the waterfall *including* spans recorded after
//!   the response was handed off (e.g. the net layer's flush).
//! * [`session`] — [`session::SessionRegistry`], the live-session map:
//!   who is connected, what each session is running *right now*, and
//!   relaxed-atomic per-session cumulative counters.
//!
//! Windowed rollups are not stored here: the serving layer keeps its
//! counters in one place and computes each `sys.stats` window as the
//! difference of two snapshots of them ([`HistogramSnapshot::delta_since`]
//! for the latency columns).

pub mod hist;
pub mod session;
pub mod slowlog;
pub mod summary;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use session::{SessionRegistry, SessionSnapshot, SessionStats};
pub use slowlog::{QueryDetail, SlowQueryLog, SlowQueryReport};
pub use summary::LatencySummary;
pub use trace::{Note, SpanId, SpanReport, Trace, TraceReport};

/// Convenient glob import.
pub mod prelude {
    pub use crate::hist::{Histogram, HistogramSnapshot};
    pub use crate::session::{SessionRegistry, SessionSnapshot, SessionStats};
    pub use crate::slowlog::{QueryDetail, SlowQueryLog, SlowQueryReport};
    pub use crate::summary::LatencySummary;
    pub use crate::trace::{Note, SpanId, SpanReport, Trace, TraceReport};
}
