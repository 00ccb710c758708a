//! The mediator as its own tagged source: the `sys` system catalog.
//!
//! Polygen's thesis is that heterogeneous sources become queryable by
//! mapping them into tagged polygen schemes — so the mediator's *own*
//! telemetry gets no bespoke API. The serving layer registers a virtual
//! local database `sys` whose relations are materialized from live
//! service state at query admission, then queried through the ordinary
//! front doors (SQL, algebra, the TCP Query frame): every answer row
//! carries the origin tag `sys`, EXPLAIN renders `Scan[sys]` leaves,
//! and the workload driver can mix `sys.stats` probes into ordinary
//! traffic.
//!
//! Six relations, each a flat view of one subsystem (the `SUBSYSTEM`
//! column records the producer):
//!
//! | relation       | contents                                        |
//! |----------------|-------------------------------------------------|
//! | `sys.queries`  | the slow-query log: worst queries + time split  |
//! | `sys.sessions` | live sessions, incl. what each runs *right now* |
//! | `sys.stats`    | windowed counter/percentile rollups             |
//! | `sys.sources`  | per-source version, relation/tuple/index counts |
//! | `sys.cache`    | cache entries with hit counts and encoded bytes |
//! | `sys.indexes`  | declared secondary indexes + posting shape      |
//!
//! Materialization is a *consistent snapshot read*: the service builds
//! the relations the query's plan scans, each from its subsystem's live
//! state, puts the schema-bearing empty placeholder in for the rest,
//! and splices the six into an ephemeral
//! [`crate::snapshot::FederationSnapshot`] under a monotone version
//! (see [`SysCatalog::next_version`]) that exists only
//! for the duration of the one query. The head snapshot keeps a
//! schema-bearing empty placeholder at version 0, which is what lets
//! cached `sys` plans validate against the head while cached `sys`
//! *answers* are never created at all (the service bypasses the result
//! cache for any plan reading `sys` — telemetry must never be stale).
//! A read pays only for what it scans: a `sys.stats` probe never walks
//! the plan and result caches to build `sys.cache`, and only a read
//! that scans `sys.stats` can close a stats window.

use crate::cache::{PlanEntry, ResultKey};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::snapshot::FederationSnapshot;
use polygen_catalog::mapping::AttributeMapping;
use polygen_catalog::scheme::PolygenScheme;
use polygen_flat::relation::Relation;
use polygen_flat::value::Value;
use polygen_lqp::engine::Lqp;
use polygen_lqp::memory::InMemoryLqp;
use polygen_obs::session::{SessionRegistry, SessionSnapshot};
use polygen_obs::slowlog::SlowQueryReport;
use polygen_pqp::plan::{PhysOp, PhysicalPlan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The virtual local database name the catalog is registered under.
pub const SYS_DB: &str = "sys";

/// Windows `sys.stats` retains.
pub const SYS_STATS_WINDOWS: usize = 32;

/// Minimum spacing between materialization-driven window closes. A
/// scrape always closes a window; a `sys.stats` query only closes one
/// when the newest window is at least this old (or none is closed
/// yet), so a tight query loop reads stable windows instead of
/// thousands of near-empty ones.
pub const SYS_STATS_TICK: Duration = Duration::from_secs(1);

/// `(local relation, attributes)` for each sys relation. Local
/// attribute names equal polygen attribute names, so lowering never
/// relabels a sys column; the first flat-key attribute set below keeps
/// every row distinct under the flat layer's set semantics.
const SYS_RELATIONS: &[(&str, &[&str])] = &[
    (
        "queries",
        &[
            "ORDINAL",
            "QUERY",
            "TOTAL_US",
            "QUEUE_US",
            "EXEC_US",
            "CACHE",
            "ERROR_CODE",
            "ERROR",
            "SUBSYSTEM",
        ],
    ),
    (
        "sessions",
        &[
            "SESSION_ID",
            "PEER",
            "AGE_US",
            "QUERIES",
            "ROWS",
            "ERRORS",
            "QUERY",
            "LANG",
            "ELAPSED_US",
            "SUBSYSTEM",
        ],
    ),
    (
        "stats",
        &[
            "BUCKET",
            "QUERIES",
            "ERRORS",
            "REJECTED",
            "PLAN_HITS",
            "RESULT_HITS",
            "EXECUTED",
            "P50_US",
            "P95_US",
            "P99_US",
            "SUBSYSTEM",
        ],
    ),
    (
        "sources",
        &[
            "SOURCE",
            "VERSION",
            "RELATIONS",
            "TUPLES",
            "INDEXES",
            "INDEX_EPOCH",
            "SUBSYSTEM",
        ],
    ),
    (
        "cache",
        &[
            "ORDINAL",
            "CACHE",
            "ENTRY",
            "FINGERPRINT",
            "HITS",
            "ROWS",
            "BYTES",
            "SUBSYSTEM",
        ],
    ),
    (
        "indexes",
        &[
            "SOURCE",
            "RELATION",
            "COLUMN",
            "KIND",
            "ENTRIES",
            "DISTINCT_KEYS",
            "EPOCH",
            "SUBSYSTEM",
        ],
    ),
];

/// Flat key attributes per sys relation (same order as [`SYS_RELATIONS`]).
const SYS_KEYS: &[&[&str]] = &[
    &["ORDINAL"],
    &["SESSION_ID"],
    &["BUCKET"],
    &["SOURCE"],
    &["ORDINAL"],
    &["SOURCE", "RELATION", "COLUMN"],
];

/// Saturating `u64 → Value::Int` (counters never realistically exceed
/// `i64::MAX`, but telemetry must not panic if one does).
fn uint(v: u64) -> Value {
    Value::int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn usize_val(v: usize) -> Value {
    uint(v as u64)
}

/// The six `sys.*` polygen schemes, each mapping onto exactly one local
/// relation of the virtual `sys` database.
pub fn sys_schemes() -> Vec<PolygenScheme> {
    SYS_RELATIONS
        .iter()
        .map(|(rel, attrs)| {
            PolygenScheme::new(
                &format!("{SYS_DB}.{rel}"),
                attrs
                    .iter()
                    .map(|attr| (*attr, AttributeMapping::of(&[(SYS_DB, rel, attr)])))
                    .collect(),
            )
        })
        .collect()
}

fn empty_relation(i: usize) -> Relation {
    let (rel, attrs) = SYS_RELATIONS[i];
    Relation::build(rel, attrs)
        .key(SYS_KEYS[i])
        .finish()
        .expect("sys relation schema")
}

/// The schema-bearing empty placeholder registered at the head: plans
/// compile against these schemas; rows come from a per-query
/// materialization spliced in at admission.
pub fn placeholder_lqp() -> Arc<dyn Lqp> {
    Arc::new(InMemoryLqp::new(
        SYS_DB,
        (0..SYS_RELATIONS.len()).map(empty_relation).collect(),
    ))
}

/// One builder per sys relation, in catalog order: queries, sessions,
/// stats, sources, cache, indexes.
pub(crate) type Builders<'a> = [&'a dyn Fn() -> Relation; SYS_RELATIONS.len()];

/// The six relations one materialization splices in, in catalog order:
/// each relation `plan` scans comes from its builder, every other one
/// is its empty placeholder, whose schema is all the plan needs of it.
/// Also returns the names of the relations built.
pub(crate) fn materialize(
    plan: &PhysicalPlan,
    builders: Builders<'_>,
) -> (Vec<Relation>, Vec<&'static str>) {
    let scanned = |rel: &str| {
        plan.nodes.iter().any(
            |node| matches!(&node.op, PhysOp::Scan { db, op } if db == SYS_DB && op.relation == rel),
        )
    };
    let mut built = Vec::new();
    let relations = builders
        .iter()
        .enumerate()
        .map(|(i, build)| {
            let rel = SYS_RELATIONS[i].0;
            if scanned(rel) {
                built.push(rel);
                build()
            } else {
                empty_relation(i)
            }
        })
        .collect();
    (relations, built)
}

/// `sys.queries` — the slow-query log, worst first.
pub fn queries_relation(reports: &[SlowQueryReport]) -> Relation {
    let mut b = Relation::build("queries", SYS_RELATIONS[0].1).key(SYS_KEYS[0]);
    for (i, r) in reports.iter().enumerate() {
        let (code, mnemonic) = r.detail.error.unwrap_or((0, ""));
        b = b.vrow(vec![
            usize_val(i),
            Value::str(&r.query),
            uint(r.micros),
            uint(r.detail.queue_micros),
            uint(r.detail.exec_micros),
            Value::str(r.detail.cache),
            Value::int(i64::from(code)),
            Value::str(mnemonic),
            Value::str("slowlog"),
        ]);
    }
    b.finish().expect("sys.queries rows")
}

/// `sys.sessions` — the live-session registry, including the query each
/// session is running right now (blank columns when idle).
pub fn sessions_relation(sessions: &[SessionSnapshot]) -> Relation {
    let mut b = Relation::build("sessions", SYS_RELATIONS[1].1).key(SYS_KEYS[1]);
    for s in sessions {
        let (query, lang, elapsed) = match &s.in_flight {
            Some((q, l, e)) => (q.as_str(), *l, *e),
            None => ("", "", 0),
        };
        b = b.vrow(vec![
            uint(s.id),
            Value::str(&s.peer),
            uint(s.age_micros),
            uint(s.queries),
            uint(s.rows),
            uint(s.errors),
            Value::str(query),
            Value::str(lang),
            uint(elapsed),
            Value::str("sessions"),
        ]);
    }
    b.finish().expect("sys.sessions rows")
}

/// `sys.stats` — windowed rollups, oldest window first. `marks` are
/// cumulative snapshots taken at consecutive window boundaries, and
/// each window is the difference between a mark and the one before it;
/// `BUCKET`, the monotone time-bucket column, numbers the window that
/// ends at `marks[1]` as `first_bucket`. Latency percentiles come from
/// the window's hit and miss samples merged.
fn stats_relation(first_bucket: u64, marks: &[MetricsSnapshot]) -> Relation {
    let mut b = Relation::build("stats", SYS_RELATIONS[2].1).key(SYS_KEYS[2]);
    for (bucket, pair) in (first_bucket..).zip(marks.windows(2)) {
        let (then, now) = (&pair[0], &pair[1]);
        let delta =
            |field: fn(&MetricsSnapshot) -> u64| uint(field(now).saturating_sub(field(then)));
        let mut latency = now.hit_latency.delta_since(&then.hit_latency);
        latency.merge(&now.miss_latency.delta_since(&then.miss_latency));
        b = b.vrow(vec![
            uint(bucket),
            delta(|m| m.queries),
            delta(|m| m.errors),
            delta(|m| m.rejected),
            delta(|m| m.plan_hits),
            delta(|m| m.result_hits),
            delta(|m| m.executed),
            uint(latency.p50_micros()),
            uint(latency.p95_micros()),
            uint(latency.p99_micros()),
            Value::str("ring"),
        ]);
    }
    b.finish().expect("sys.stats rows")
}

/// `sys.sources` — one row per registered local database (including
/// `sys` itself), from the serving snapshot the query pinned.
pub fn sources_relation(snapshot: &FederationSnapshot) -> Relation {
    let mut names = snapshot.registry().names();
    names.sort();
    let specs = snapshot.indexes().specs();
    let mut b = Relation::build("sources", SYS_RELATIONS[3].1).key(SYS_KEYS[3]);
    for name in names {
        let (relations, tuples) = match snapshot.registry().get(&name) {
            Some(lqp) => {
                let rels = lqp.relation_names();
                let tuples: usize = rels.iter().filter_map(|r| lqp.row_count(r)).sum();
                (rels.len(), tuples)
            }
            None => (0, 0),
        };
        let indexes = specs.iter().filter(|s| s.source == name).count();
        b = b.vrow(vec![
            Value::str(&name),
            uint(snapshot.version_of(&name)),
            usize_val(relations),
            usize_val(tuples),
            usize_val(indexes),
            uint(snapshot.index_epoch()),
            Value::str("federation"),
        ]);
    }
    b.finish().expect("sys.sources rows")
}

/// `sys.cache` — every plan- and result-cache entry with its per-entry
/// hit count; `ROWS` is 0 for plans (no materialized answer). `BYTES`
/// is the length of a result's cached frames, and nil for a plan.
pub fn cache_relation(
    plans: &[(Arc<PlanEntry>, u64)],
    results: &[(ResultKey, u64, usize, usize)],
) -> Relation {
    let mut b = Relation::build("cache", SYS_RELATIONS[4].1).key(SYS_KEYS[4]);
    let mut ordinal = 0usize;
    for (entry, hits) in plans {
        b = b.vrow(vec![
            usize_val(ordinal),
            Value::str("plan"),
            Value::str(entry.canonical.as_ref()),
            Value::str(format!("{:016x}", entry.fingerprint)),
            uint(*hits),
            Value::int(0),
            Value::Null,
            Value::str("cache"),
        ]);
        ordinal += 1;
    }
    for (key, hits, rows, bytes) in results {
        b = b.vrow(vec![
            usize_val(ordinal),
            Value::str("result"),
            Value::str(key.canonical.as_ref()),
            Value::str(format!("{:016x}", key.fingerprint)),
            uint(*hits),
            usize_val(*rows),
            usize_val(*bytes),
            Value::str("cache"),
        ]);
        ordinal += 1;
    }
    b.finish().expect("sys.cache rows")
}

/// `sys.indexes` — declared secondary indexes with posting statistics.
pub fn indexes_relation(snapshot: &FederationSnapshot) -> Relation {
    let mut b = Relation::build("indexes", SYS_RELATIONS[5].1).key(SYS_KEYS[5]);
    for spec in snapshot.indexes().specs() {
        let (entries, distinct) = snapshot
            .indexes()
            .lookup(&spec.source, &spec.relation, &spec.column)
            .map(|i| (i.len(), i.distinct_keys()))
            .unwrap_or((0, 0));
        b = b.vrow(vec![
            Value::str(&spec.source),
            Value::str(&spec.relation),
            Value::str(&spec.column),
            Value::str(spec.kind.to_string()),
            usize_val(entries),
            usize_val(distinct),
            uint(snapshot.index_epoch()),
            Value::str("index"),
        ]);
    }
    b.finish().expect("sys.indexes rows")
}

/// The serving layer's handle on the catalog's own state: who is
/// connected ([`SessionRegistry`]), the `sys.stats` window boundaries,
/// and the monotone materialization counter that versions each splice.
pub struct SysCatalog {
    sessions: Arc<SessionRegistry>,
    /// Poison-tolerant: a close pushes one whole snapshot before it
    /// trims, and readers only read.
    stats: Mutex<StatsMarks>,
    materializations: AtomicU64,
}

/// The `sys.stats` window boundaries: [`ServiceMetrics`] snapshots,
/// oldest first, each taken while this state's lock is held — so they
/// are ordered as their counters are, and every window is a true delta.
/// `marks[0]` is the all-zero baseline at construction until eviction
/// moves it; at most [`SYS_STATS_WINDOWS`] windows (one more mark) are
/// kept.
struct StatsMarks {
    /// `BUCKET` of the window that ends at `marks[1]`.
    first_bucket: u64,
    marks: VecDeque<MetricsSnapshot>,
    /// When the newest window closed; `None` before the first.
    last_close: Option<Instant>,
}

impl StatsMarks {
    fn close(&mut self, metrics: &ServiceMetrics) {
        self.marks.push_back(metrics.snapshot());
        if self.marks.len() > SYS_STATS_WINDOWS + 1 {
            self.marks.pop_front();
            self.first_bucket += 1;
        }
        self.last_close = Some(Instant::now());
    }
}

impl Default for SysCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl SysCatalog {
    /// A fresh catalog: no sessions, no stats windows, version counter 0.
    pub fn new() -> Self {
        SysCatalog {
            sessions: Arc::new(SessionRegistry::new()),
            stats: Mutex::new(StatsMarks {
                first_bucket: 0,
                marks: VecDeque::from([MetricsSnapshot::default()]),
                last_close: None,
            }),
            materializations: AtomicU64::new(0),
        }
    }

    /// The live-session registry (shared with the transport layer).
    pub fn sessions(&self) -> &Arc<SessionRegistry> {
        &self.sessions
    }

    /// The next splice version — each materialization gets a fresh one,
    /// so no two `sys` snapshots ever share a version (defense in depth
    /// on top of the service's result-cache bypass).
    pub fn next_version(&self) -> u64 {
        self.materializations.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// How many materializations have happened.
    pub fn materializations(&self) -> u64 {
        self.materializations.load(Ordering::Relaxed)
    }

    /// Unconditionally close the current `sys.stats` window at the
    /// counters' present values (a scrape boundary is always a window
    /// boundary).
    pub fn advance(&self, metrics: &ServiceMetrics) {
        self.stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .close(metrics);
    }

    /// `sys.stats` as of now. The current window closes first only if
    /// none has closed yet or the newest is at least [`SYS_STATS_TICK`]
    /// old — the materialization path's coarse clock, so `SELECT`
    /// against `sys.stats` returns rows even on a service nobody ever
    /// scrapes.
    pub fn stats(&self, metrics: &ServiceMetrics) -> Relation {
        let mut stats = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        if stats
            .last_close
            .is_none_or(|at| at.elapsed() >= SYS_STATS_TICK)
        {
            stats.close(metrics);
        }
        let first_bucket = stats.first_bucket;
        stats_relation(first_bucket, stats.marks.make_contiguous())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_obs::slowlog::QueryDetail;

    /// One integer column of a `sys.stats` answer, oldest window first.
    fn column(stats: &Relation, attr: &str) -> Vec<i64> {
        let i = SYS_RELATIONS[2].1.iter().position(|a| *a == attr).unwrap();
        stats
            .rows()
            .iter()
            .map(|row| match row[i] {
                Value::Int(n) => n,
                ref other => panic!("{attr} holds {other:?}"),
            })
            .collect()
    }

    /// `n` answered queries of `micros` each, on the executed path.
    fn answer(metrics: &ServiceMetrics, n: usize, micros: u64) {
        for _ in 0..n {
            metrics.record_query(Duration::from_micros(micros), false);
        }
    }

    #[test]
    fn schemes_and_placeholder_agree_attribute_for_attribute() {
        let schemes = sys_schemes();
        assert_eq!(schemes.len(), 6);
        let lqp = placeholder_lqp();
        assert_eq!(lqp.name(), SYS_DB);
        for ((rel, attrs), scheme) in SYS_RELATIONS.iter().zip(&schemes) {
            assert_eq!(scheme.name(), format!("sys.{rel}"));
            let schema = lqp.schema_of(rel).expect("placeholder relation");
            let local: Vec<&str> = schema.attrs().iter().map(|a| a.as_ref()).collect();
            assert_eq!(&local, attrs, "local attrs mirror polygen attrs");
            for attr in *attrs {
                assert!(scheme.contains(attr), "{rel}.{attr} mapped");
            }
            assert_eq!(lqp.row_count(rel), Some(0), "placeholder is empty");
        }
    }

    #[test]
    fn relation_builders_produce_distinct_rows() {
        let reports = vec![
            SlowQueryReport {
                query: "Q".into(),
                micros: 10,
                detail: QueryDetail::default(),
                waterfall: None,
            },
            // Same text and latency — only the ordinal distinguishes
            // them, which is exactly why the ordinal column exists.
            SlowQueryReport {
                query: "Q".into(),
                micros: 10,
                detail: QueryDetail {
                    error: Some((100, "sql-syntax")),
                    ..QueryDetail::default()
                },
                waterfall: None,
            },
        ];
        let rel = queries_relation(&reports);
        assert_eq!(rel.len(), 2);

        // Three identical (all-zero) marks: two windows with identical
        // counters that only the bucket keeps apart.
        let marks = vec![MetricsSnapshot::default(); 3];
        assert_eq!(
            stats_relation(0, &marks).len(),
            2,
            "buckets keep rows apart"
        );
    }

    #[test]
    fn catalog_versions_are_monotone_and_tick_is_coarse() {
        let sys = SysCatalog::new();
        assert_eq!(sys.materializations(), 0);
        assert_eq!(sys.next_version(), 1);
        assert_eq!(sys.next_version(), 2);
        assert_eq!(sys.materializations(), 2);
        // The first read closes window 0; an immediate second one is
        // within the tick and closes nothing.
        let metrics = ServiceMetrics::default();
        assert_eq!(sys.stats(&metrics).len(), 1);
        assert_eq!(sys.stats(&metrics).len(), 1);
        // A scrape always closes a window.
        sys.advance(&metrics);
        assert_eq!(sys.stats(&metrics).len(), 2);
    }

    #[test]
    fn windows_hold_deltas_not_cumulatives() {
        let (sys, metrics) = (SysCatalog::new(), ServiceMetrics::default());
        answer(&metrics, 1, 10);
        metrics.record_query(Duration::from_micros(10), true);
        sys.advance(&metrics);
        answer(&metrics, 2, 25);
        sys.advance(&metrics);
        let stats = sys.stats(&metrics);
        assert_eq!(column(&stats, "BUCKET"), vec![0, 1]);
        assert_eq!(column(&stats, "QUERIES"), vec![2, 2]);
        assert_eq!(column(&stats, "RESULT_HITS"), vec![1, 0]);
        assert_eq!(column(&stats, "EXECUTED"), vec![1, 2]);
        // Window 1's percentiles see only its own two 25 µs samples.
        assert_eq!(column(&stats, "P50_US"), vec![10, 25]);
    }

    #[test]
    fn windows_evict_oldest_but_buckets_stay_monotone() {
        let (sys, metrics) = (SysCatalog::new(), ServiceMetrics::default());
        let closes = SYS_STATS_WINDOWS + 2;
        for _ in 0..closes {
            answer(&metrics, 10, 1);
            sys.advance(&metrics);
        }
        let stats = sys.stats(&metrics);
        let first = (closes - SYS_STATS_WINDOWS) as i64;
        let buckets: Vec<i64> = (first..closes as i64).collect();
        assert_eq!(column(&stats, "BUCKET"), buckets);
        // Every retained window is the 10-query delta, not a cumulative.
        assert!(column(&stats, "QUERIES").iter().all(|&q| q == 10));
    }

    #[test]
    fn window_percentiles_reflect_only_the_window() {
        let (sys, metrics) = (SysCatalog::new(), ServiceMetrics::default());
        answer(&metrics, 100, 10);
        sys.advance(&metrics);
        answer(&metrics, 100, 1000);
        sys.advance(&metrics);
        let stats = sys.stats(&metrics);
        let p50 = column(&stats, "P50_US");
        // The second window saw only the slow queries.
        assert!(p50[0] <= 15, "{p50:?}");
        assert!(p50[1] >= 1000, "{p50:?}");
    }
}
