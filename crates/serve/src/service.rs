//! The concurrent query service: sessions, admission, shared thread
//! budget, and the cache-through query path.
//!
//! One [`QueryService`] serves many sessions against a shared
//! [`Federation`]. A served query walks:
//!
//! 1. **Admission** — at most `max_concurrent` queries execute at once;
//!    up to `max_queue` more wait; beyond that the service sheds load
//!    with [`ServeError::Overloaded`] instead of melting down.
//! 2. **Snapshot pinning** — the query `Arc`-clones the federation head
//!    (O(1), no catalog copies) and executes against it even if a source
//!    update lands mid-flight.
//! 3. **Normalization** — SQL (or algebra text) collapses to canonical
//!    algebra text, the collision-free plan-cache key.
//! 4. **Plan cache** — hit: reuse the compiled [`PhysicalPlan`] handle;
//!    miss: compile once, share via `Arc`.
//! 5. **Result cache** — keyed `(plan fingerprint × version vector of
//!    the sources the plan reads)`; a hit returns the cached tagged
//!    answer (byte-identical to a cold run — tags are deterministic
//!    data) without executing anything. Every answer is cached as the
//!    frames the wire sends ([`AnswerFrames`]).
//! 6. **Execution** — the plan runs with a *thread allotment* reserved
//!    from the shared budget at admission: the fair share at the
//!    current concurrency, capped by what earlier admissions still
//!    hold, floored at one. Inter-query concurrency and PR 3's
//!    intra-query partition parallelism spend the same pool — the
//!    combined reservation never exceeds the budget beyond the
//!    one-thread-per-query minimum.
//!
//! The EXPLAIN modes walk the same path and skip stages: plan-only
//! EXPLAIN stops after 4 (and is never admitted — it runs nothing);
//! EXPLAIN ANALYZE skips 5 and renders the measured plan instead of
//! returning rows.
//!
//! [`PhysicalPlan`]: polygen_pqp::plan::PhysicalPlan

use crate::cache::{PlanCache, PlanEntry, ResultCache, ResultKey};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::request::{Answer, ExplainOptions, Lang, Request, Response, ResponseInfo};
use crate::snapshot::{Federation, FederationSnapshot};
use crate::sys::{self, SysCatalog, SYS_DB};
use crate::wire::{self, AnswerFrames};
use polygen_catalog::scenario::Scenario;
use polygen_core::stream::default_thread_count;
use polygen_flat::relation::Relation;
use polygen_index::{IndexError, IndexSpec};
use polygen_lqp::engine::Lqp;
use polygen_obs::session::{SessionRegistry, SessionStats};
use polygen_obs::slowlog::{QueryDetail, SlowQueryLog, SlowQueryReport};
use polygen_obs::trace::{Note, SpanId, Trace};
use polygen_pqp::error::PqpError;
use polygen_pqp::executor::execute_plan;
use polygen_pqp::plan::PhysicalPlan;
use polygen_pqp::pqp::{Pqp, PqpOptions};
use polygen_sql::app::{translate_app_query, AppSchema, AqpError};
use polygen_sql::normalize::{canonicalize_algebra, canonicalize_sql, NormalizeError};
use polygen_sql::parse_algebra;
use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Service-level errors.
#[derive(Debug)]
pub enum ServeError {
    /// The query text failed to normalize (parse or lowering).
    Normalize(NormalizeError),
    /// Application-schema rewriting failed.
    App(AqpError),
    /// Compilation or execution failed.
    Pqp(PqpError),
    /// Declared secondary indexes failed to build.
    Index(IndexError),
    /// Admission control shed this query: the service is at
    /// `max_concurrent` executing queries with a full wait queue.
    Overloaded {
        /// Queries executing when the request was refused.
        active: usize,
        /// Queries already waiting.
        queued: usize,
    },
    /// Serving the request panicked. The panic is contained to this
    /// request: the unwind released its admission slot and threads.
    Panicked(String),
    /// The transport could not deliver the answer (for the wire, a frame
    /// over the length cap). It fails this request alone.
    Undeliverable(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Normalize(e) => write!(f, "{e}"),
            ServeError::App(e) => write!(f, "{e}"),
            ServeError::Pqp(e) => write!(f, "{e}"),
            ServeError::Index(e) => write!(f, "{e}"),
            ServeError::Overloaded { active, queued } => write!(
                f,
                "service overloaded: {active} queries executing, {queued} queued"
            ),
            ServeError::Panicked(m) => write!(f, "internal error: the query panicked: {m}"),
            ServeError::Undeliverable(m) => {
                write!(f, "internal error: the answer cannot be sent: {m}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<NormalizeError> for ServeError {
    fn from(e: NormalizeError) -> Self {
        ServeError::Normalize(e)
    }
}
impl From<AqpError> for ServeError {
    fn from(e: AqpError) -> Self {
        ServeError::App(e)
    }
}
impl From<PqpError> for ServeError {
    fn from(e: PqpError) -> Self {
        ServeError::Pqp(e)
    }
}
impl From<IndexError> for ServeError {
    fn from(e: IndexError) -> Self {
        ServeError::Index(e)
    }
}

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Plan-cache capacity in entries; `0` disables plan caching.
    pub plan_cache: usize,
    /// Result-cache capacity in entries; `0` disables result caching.
    pub result_cache: usize,
    /// Most queries executing concurrently.
    pub max_concurrent: usize,
    /// Most queries waiting for admission before load-shedding.
    pub max_queue: usize,
    /// Total worker threads shared between concurrent queries and each
    /// query's partition-parallel operators; `0` = auto
    /// (`POLYGEN_THREADS` / available parallelism). Each admitted query
    /// reserves `min(budget / active, budget - reserved)` threads
    /// (floored at one — the only way the pool can oversubscribe) and
    /// returns them on completion; reservations are not re-divided
    /// mid-flight, so a long-running early query keeps its allotment.
    pub thread_budget: usize,
    /// Slow-query log capacity: the N worst traced requests are kept
    /// (ring of worst, not most recent). `0` disables the log.
    pub slow_log_capacity: usize,
    /// Only requests at least this slow enter the slow-query log.
    /// `0` admits everything (the log still keeps only the worst N).
    pub slow_log_threshold_micros: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            plan_cache: 256,
            result_cache: 1024,
            max_concurrent: 16,
            max_queue: 64,
            thread_budget: 0,
            slow_log_capacity: 8,
            slow_log_threshold_micros: 0,
        }
    }
}

impl ServeOptions {
    /// Disable both caches (the differential baseline).
    pub fn without_caches(mut self) -> Self {
        self.plan_cache = 0;
        self.result_cache = 0;
        self
    }

    /// Override both cache capacities.
    pub fn with_caches(mut self, plan: usize, result: usize) -> Self {
        self.plan_cache = plan;
        self.result_cache = result;
        self
    }

    /// Override admission limits.
    pub fn with_admission(mut self, max_concurrent: usize, max_queue: usize) -> Self {
        self.max_concurrent = max_concurrent.max(1);
        self.max_queue = max_queue;
        self
    }

    /// Override the shared thread budget.
    pub fn with_thread_budget(mut self, budget: usize) -> Self {
        self.thread_budget = budget;
        self
    }

    /// Override the slow-query log knobs (capacity, admission threshold).
    pub fn with_slow_log(mut self, capacity: usize, threshold: Duration) -> Self {
        self.slow_log_capacity = capacity;
        self.slow_log_threshold_micros = micros(threshold);
        self
    }
}

/// Admission state: executing and waiting query counts, how many budget
/// threads the executing queries currently hold, and the FIFO tickets
/// that order the waiters.
struct AdmissionState {
    active: usize,
    queued: usize,
    budget_used: usize,
    /// The ticket the next queued arrival takes.
    next_ticket: u64,
    /// The ticket of the queue's head: the only waiter a freed slot
    /// may go to.
    serving: u64,
}

/// The gate in front of execution. `admit` blocks while `max_concurrent`
/// queries run and fewer than `max_queue` wait, and admits waiters in
/// arrival order; the returned permit releases a slot (and wakes the
/// waiters, of which the queue's head takes it) on drop.
struct Admission {
    max_concurrent: usize,
    max_queue: usize,
    thread_budget: usize,
    /// Poison-tolerant: every count moves in one statement, and nothing
    /// between a paired move can panic (the `observe_*` calls are
    /// atomic maxima, the wait returns the guard).
    state: Mutex<AdmissionState>,
    freed: Condvar,
}

/// An admitted query's slot + thread allotment.
struct Permit<'a> {
    admission: &'a Admission,
    threads: usize,
}

impl Admission {
    fn new(max_concurrent: usize, max_queue: usize, thread_budget: usize) -> Self {
        Admission {
            max_concurrent: max_concurrent.max(1),
            max_queue,
            thread_budget: if thread_budget == 0 {
                default_thread_count()
            } else {
                thread_budget
            },
            state: Mutex::new(AdmissionState {
                active: 0,
                queued: 0,
                budget_used: 0,
                next_ticket: 0,
                serving: 0,
            }),
            freed: Condvar::new(),
        }
    }

    fn admit(&self, metrics: &ServiceMetrics) -> Result<Permit<'_>, ServeError> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // Queue whenever the slots are full *or* earlier arrivals are
        // already waiting — a newcomer must not barge past the queue
        // into a slot a waiter was just woken for. The queue is served
        // by ticket, so a freed slot goes to the longest waiter.
        if st.active >= self.max_concurrent || st.queued > 0 {
            if st.queued >= self.max_queue {
                return Err(ServeError::Overloaded {
                    active: st.active,
                    queued: st.queued,
                });
            }
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queued += 1;
            metrics.observe_queue_depth(st.queued);
            while st.active >= self.max_concurrent || st.serving != ticket {
                st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            st.queued -= 1;
            st.serving += 1;
            if st.queued > 0 {
                // The next ticket may fit in a slot that is still free.
                self.freed.notify_all();
            }
        }
        st.active += 1;
        metrics.observe_concurrency(st.active);
        // The shared budget splits across whoever is running: the fair
        // share at this concurrency, capped by what earlier admissions
        // have not already reserved (reservations return on completion,
        // they are not re-divided mid-flight). Every admitted query is
        // guaranteed at least one thread, which is the only way the
        // combined reservation can exceed the budget.
        let fair = self.thread_budget / st.active;
        let unreserved = self.thread_budget.saturating_sub(st.budget_used);
        let threads = fair.min(unreserved).max(1);
        st.budget_used += threads;
        Ok(Permit {
            admission: self,
            threads,
        })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self
            .admission
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.active -= 1;
        st.budget_used -= self.threads;
        drop(st);
        // Every waiter re-checks; only the queue's head proceeds.
        self.admission.freed.notify_all();
    }
}

/// The concurrent query service.
pub struct QueryService {
    federation: Federation,
    options: ServeOptions,
    app_schema: Option<AppSchema>,
    plan_cache: Option<PlanCache>,
    result_cache: Option<ResultCache>,
    admission: Admission,
    metrics: ServiceMetrics,
    slow_log: SlowQueryLog,
    sys: SysCatalog,
}

impl QueryService {
    /// Serve a federation. Construction registers the `sys` system
    /// catalog at the federation head: the six `sys.*` schemes join the
    /// dictionary and a schema-bearing empty placeholder joins the
    /// registry at version 0, so plain SQL/algebra over `sys.*` plans
    /// like any other scheme. Live rows are spliced in per query (see
    /// `QueryService::spliced_sys_snapshot`); the head's `sys`
    /// version never moves, which is what lets cached `sys` *plans*
    /// stay valid while `sys` *answers* are never cached at all.
    pub fn new(federation: Federation, options: ServeOptions) -> Self {
        let head = federation.snapshot();
        let mut dictionary = head.dictionary().as_ref().clone();
        dictionary.intern_source(SYS_DB);
        if !dictionary.schema().contains("sys.queries") {
            for scheme in sys::sys_schemes() {
                dictionary.schema_mut().push(scheme);
            }
        }
        federation.install_virtual_source(sys::placeholder_lqp(), Arc::new(dictionary), 0);
        QueryService {
            plan_cache: (options.plan_cache > 0).then(|| PlanCache::new(options.plan_cache)),
            result_cache: (options.result_cache > 0)
                .then(|| ResultCache::new(options.result_cache)),
            admission: Admission::new(
                options.max_concurrent,
                options.max_queue,
                options.thread_budget,
            ),
            metrics: ServiceMetrics::default(),
            slow_log: SlowQueryLog::new(
                options.slow_log_capacity,
                Duration::from_micros(options.slow_log_threshold_micros),
            ),
            sys: SysCatalog::new(),
            app_schema: None,
            federation,
            options,
        }
    }

    /// Serve a scenario (the paper's MIT federation or a generated one).
    pub fn for_scenario(scenario: &Scenario, options: ServeOptions) -> Self {
        Self::new(Federation::from_scenario(scenario), options)
    }

    /// Attach an application schema, enabling [`Request::app`] requests.
    pub fn with_app_schema(mut self, app_schema: AppSchema) -> Self {
        self.app_schema = Some(app_schema);
        self
    }

    /// Declare secondary indexes at construction: built against current
    /// data, owned by the head snapshot, and maintained automatically —
    /// every [`QueryService::update_source`] rebuilds exactly the
    /// updated source's indexes in the successor snapshot.
    pub fn with_index_specs(self, specs: &[IndexSpec]) -> Result<Self, ServeError> {
        self.declare_indexes(specs)?;
        Ok(self)
    }

    /// Re-declare the index set mid-flight. The plan cache is cleared —
    /// cached plans may be routed through dropped indexes, or may
    /// predate new ones — while cached *results* stay valid (indexes
    /// never change answers, only routes). Queries already executing
    /// keep their pinned snapshot and its catalog.
    pub fn declare_indexes(&self, specs: &[IndexSpec]) -> Result<(), ServeError> {
        // The sys placeholder is registered like a real source, so the
        // index builder would happily (and uselessly) index its empty
        // relations — refuse instead: sys relations are materialized
        // fresh per query, an index over them could never be consulted.
        if specs.iter().any(|s| s.source == SYS_DB) {
            return Err(ServeError::Index(IndexError::UnknownSource(format!(
                "{SYS_DB} (the system catalog is materialized per query and cannot be indexed)"
            ))));
        }
        self.federation.declare_indexes(specs)?;
        if let Some(cache) = &self.plan_cache {
            cache.clear();
        }
        Ok(())
    }

    /// The federation behind the service.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The configured options.
    pub fn options(&self) -> ServeOptions {
        self.options
    }

    /// Frozen metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live counters, for recorders outside this crate — the
    /// transport front door feeds its connection-level telemetry
    /// (accepted / open / backpressure-closed) into the same registry
    /// the query path uses, so one snapshot tells the whole story.
    pub fn live_metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// `(plans, results)` currently cached.
    pub fn cache_sizes(&self) -> (usize, usize) {
        (
            self.plan_cache.as_ref().map_or(0, PlanCache::len),
            self.result_cache.as_ref().map_or(0, ResultCache::len),
        )
    }

    /// Open a session. Sessions are lightweight (an id plus counters);
    /// every session shares the service's caches and snapshots. The
    /// session registers in the live-session registry — it has a
    /// `sys.sessions` row, peer `"local"`, until dropped.
    pub fn open_session(&self) -> Session<'_> {
        Session {
            service: self,
            stats: self.sys.sessions().register("local"),
        }
    }

    /// The live-session registry backing `sys.sessions`. Transports
    /// register each connection on accept (peer address as the label)
    /// and deregister on close; the per-connection
    /// [`SessionStats`] handle publishes in-flight query text around
    /// each execute.
    pub fn sessions(&self) -> &Arc<SessionRegistry> {
        self.sys.sessions()
    }

    /// The system catalog's own state (sessions, stats windows,
    /// materialization counter).
    pub fn sys_catalog(&self) -> &SysCatalog {
        &self.sys
    }

    /// Replace a source's LQP: bump its version, then eagerly evict
    /// every cached plan and answer that reads it. Queries already
    /// executing finish on their pinned snapshot; a late re-insert of a
    /// pre-update answer is harmless because its key carries the old
    /// version, which no post-update lookup can produce.
    pub fn update_source(&self, lqp: Arc<dyn Lqp>) -> u64 {
        let name = lqp.name().to_string();
        let version = self.federation.update_source(lqp);
        let plans = self
            .plan_cache
            .as_ref()
            .map_or(0, |c| c.invalidate_source(&name));
        let results = self
            .result_cache
            .as_ref()
            .map_or(0, |c| c.invalidate_source(&name));
        self.metrics.record_invalidation(plans, results);
        version
    }

    /// Replace a source's relations wholesale (an upstream refresh).
    pub fn update_source_relations(&self, name: &str, relations: Vec<Relation>) -> u64 {
        self.update_source(Arc::new(polygen_lqp::memory::InMemoryLqp::new(
            name, relations,
        )))
    }

    /// Serve one [`Request`] — the one way in, whatever the transport.
    /// The returned [`Response`] is the same envelope whether the caller
    /// is in-process, a `polygen-net` wire session, or an example:
    /// errors come back as [`Response::Error`] with a stable numeric
    /// [`ErrorCode`](crate::request::ErrorCode) (overload included —
    /// shedding is a structured response, never a refusal to answer),
    /// blank text comes back as [`Response::Empty`], and the EXPLAIN
    /// modes return the rendered plan ([`ExplainOptions::Plan`] runs
    /// nothing; [`ExplainOptions::Analyze`] executes under a trace and
    /// renders `act=…` per node). SQL text may also spell the mode
    /// as a leading `EXPLAIN [ANALYZE]` keyword. The request lands on
    /// the slow-query log, with a waterfall when it asked for a trace.
    pub fn execute(&self, request: Request) -> Response {
        self.execute_observed(&request, None)
    }

    /// What an in-process caller gets: a service-owned recorder (enabled
    /// when the request asks for a trace) and slow-log observation the
    /// moment the response exists.
    fn execute_observed(&self, request: &Request, session: Option<&SessionStats>) -> Response {
        let start = Instant::now();
        let trace = if request.options.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let (response, detail) = self.respond(request, &trace, session, false, Ok);
        self.observe_slow(&request.text, start.elapsed(), &trace, detail);
        response
    }

    /// Serve `request` as a wire transport sends it: the response's whole
    /// frame stream in one buffer, under the caller's span recorder, so
    /// the transport's own spans (wire decode, queue, flush) share the
    /// waterfall with the service's parse/plan/execute spans. The caller
    /// owns slow-log observation: it hands the returned [`QueryDetail`]
    /// to [`QueryService::observe_slow`] once its last span has closed.
    /// With a `session`, the request is accounted to it as
    /// [`Session::execute`] accounts its own.
    ///
    /// A rows answer is encoded exactly once: on a miss that fills the
    /// result cache, into the frames the cache then holds, and with the
    /// caches off (or for a `sys` read), from its relation. A hit writes
    /// the cached frames and a fresh `Summary` and reads no cell. An
    /// answer the wire cannot carry (a frame over the cap) fails this
    /// request alone with error 500, is never cached, and is counted in
    /// the metrics and the session row like any other failure.
    pub fn execute_encoded(
        &self,
        request: &Request,
        trace: &Trace,
        session: Option<&SessionStats>,
    ) -> (Vec<u8>, QueryDetail) {
        self.respond(request, trace, session, true, |response| {
            wire::encode_response(&response).map_err(|e| e.to_string())
        })
    }

    /// Serve `request` and turn the response into what the caller gets:
    /// `deliver` takes it (an in-process caller passes `Ok`; the wire
    /// encodes it), and `encoded` says the caller sends the frames a hit
    /// holds rather than reading their relation. A panic or an answer
    /// `deliver` refuses fails this request alone, and every failure is
    /// counted here. With a `session`, the request is published as its
    /// in-flight query while it runs and counted when it finishes, so an
    /// in-process [`Session`] and a wire connection bracket a request in
    /// one place. Tracing never changes results. `deliver` must accept
    /// every error response.
    fn respond<T>(
        &self,
        request: &Request,
        trace: &Trace,
        session: Option<&SessionStats>,
        encoded: bool,
        deliver: impl Fn(Response) -> Result<T, String>,
    ) -> (T, QueryDetail) {
        if let Some(session) = session {
            session.begin_query(&request.text, request.lang.label());
        }
        let mut detail = QueryDetail::default();
        // A panic anywhere below fails this request alone: the unwind has
        // already dropped the admission permit (slot and threads), and the
        // session row still closes below.
        let served = panic::catch_unwind(AssertUnwindSafe(|| {
            self.serve(request, trace, &mut detail, encoded)
        }))
        .unwrap_or_else(|payload| Err(ServeError::Panicked(panic_message(payload.as_ref()))));
        let (mut rows, mut errored) = (0, false);
        let delivered = served.and_then(|response| {
            if let Response::Rows { answer, .. } = &response {
                rows = answer.len() as u64;
            }
            errored = response.error_code().is_some();
            deliver(response).map_err(ServeError::Undeliverable)
        });
        // Every mode's failures are counted here and nowhere else.
        let out = delivered.unwrap_or_else(|e| {
            let code = e.code();
            self.metrics.record_failure(code);
            detail.error = Some((code.code(), code.mnemonic()));
            (rows, errored) = (0, true);
            deliver(e.into()).unwrap_or_else(|m| panic!("an error response is undeliverable: {m}"))
        });
        if let Some(session) = session {
            session.finish_query(rows, errored);
        }
        (out, detail)
    }

    /// Feed a completed request into the slow-query log, with the detail
    /// [`QueryService::execute_encoded`] returned for it. A blank request
    /// asked nothing and is not logged.
    pub fn observe_slow(&self, query: &str, elapsed: Duration, trace: &Trace, detail: QueryDetail) {
        if !query.trim().is_empty() {
            self.slow_log.observe(query, elapsed, trace, detail);
        }
    }

    /// The one serving path. The [`ExplainOptions`] mode only decides
    /// which stages run:
    ///
    /// | stage                       | `Plan` | `Analyze`     | `Off`      |
    /// |-----------------------------|--------|---------------|------------|
    /// | admission (queue, threads)  | –      | ✓             | ✓          |
    /// | canonicalize, plan cache    | ✓      | ✓             | ✓          |
    /// | result-cache probe / insert | –      | –             | ✓          |
    /// | sys splice, execution       | –      | ✓             | ✓ on a miss |
    /// | payload                     | plan   | plan, est/act | rows       |
    ///
    /// `detail` fills in as stages complete, so a request that fails
    /// midway still logs the queue wait it paid. `encoded` says the
    /// caller sends a rows answer's frames (the wire) rather than reading
    /// its relation.
    fn serve(
        &self,
        request: &Request,
        trace: &Trace,
        detail: &mut QueryDetail,
        encoded: bool,
    ) -> Result<Response, ServeError> {
        let start = Instant::now();
        let (mode, text) = match request.lang {
            Lang::Sql => peel_explain_prefix(request.options.explain, &request.text),
            _ => (request.options.explain, request.text.as_str()),
        };
        if text.trim().is_empty() {
            return Ok(Response::Empty);
        }
        // Plan-only EXPLAIN executes nothing, so there is nothing for
        // admission to bound: no slot, no threads, not a served query.
        let permit = if mode == ExplainOptions::Plan {
            None
        } else {
            let queue_span = trace.begin("serve/queue");
            let permit = self.admission.admit(&self.metrics)?;
            trace.end(queue_span);
            let queue = start.elapsed();
            self.metrics.record_queue_wait(queue);
            detail.queue_micros = micros(queue);
            Some(permit)
        };
        let threads = permit.as_ref().map_or(0, |p| p.threads);
        let snapshot = self.federation.snapshot();
        let parse_span = trace.begin("serve/parse");
        let canonical = self.canonicalize(&snapshot, text, request.lang)?;
        trace.end(parse_span);
        let plan_span = trace.begin("serve/plan");
        let (entry, plan_hit) = self.plan_for(&snapshot, canonical)?;
        annotate_cache(trace, plan_span, plan_hit);
        trace.end(plan_span);
        detail.cache = if plan_hit { "plan" } else { "miss" };
        // Close the request — an admitted one counts as a served query —
        // and describe it.
        let finish = |result_hit: bool| {
            let latency = start.elapsed();
            if permit.is_some() {
                self.metrics.record_query(latency, result_hit);
            }
            ResponseInfo {
                canonical: entry.canonical.to_string(),
                fingerprint: entry.fingerprint,
                plan_hit,
                result_hit,
                index_routed: entry.compiled.physical.index_scans() > 0,
                threads,
                latency_micros: micros(latency),
            }
        };
        if mode == ExplainOptions::Plan {
            return Ok(Response::Explain {
                plan: polygen_pqp::plan::render_plan(&entry.compiled.physical),
                info: finish(false),
            });
        }
        // Only a plain query touches the result cache: ANALYZE wants
        // fresh measurements and never materializes an answer for reuse,
        // and plans that read the sys catalog bypass it in *both*
        // directions — no probe, no insert, no hit/miss counter movement
        // — because telemetry must never be served stale, and user-facing
        // hit rates must not move with catalog traffic.
        let sys_read = entry.reads.contains(SYS_DB);
        let fill = match &self.result_cache {
            Some(cache) if mode == ExplainOptions::Off && !sys_read => {
                // `plan_for` guarantees the entry's compile-time versions
                // match this snapshot, so they *are* the key's vector.
                let key = ResultKey {
                    fingerprint: entry.fingerprint,
                    canonical: Arc::clone(&entry.canonical),
                    versions: entry.compiled_versions.clone(),
                };
                let probe_span = trace.begin("serve/result-cache");
                // The wire sends the cached frames as they are; an
                // in-process caller reads their relation, decoded here,
                // and frames the decoder refuses (source sets past its
                // spill bound) are its miss.
                let hit = cache.get(&key).and_then(|frames| {
                    if encoded {
                        Some(Answer::from(frames))
                    } else {
                        frames.decode().ok().map(Answer::from)
                    }
                });
                annotate_cache(trace, probe_span, hit.is_some());
                trace.end(probe_span);
                if let Some(answer) = hit {
                    detail.cache = "result";
                    return Ok(Response::Rows {
                        answer,
                        info: finish(true),
                    });
                }
                self.metrics.record_result_miss();
                Some((cache, key))
            }
            _ => None,
        };
        // A sys-reading plan executes against an ephemeral successor
        // snapshot carrying the live catalog rows; everything else runs
        // on the pinned snapshot unchanged.
        let spliced;
        let snapshot = if sys_read {
            let sys_span = trace.begin("serve/sys-materialize");
            spliced =
                self.spliced_sys_snapshot(&snapshot, &entry.compiled.physical, trace, sys_span);
            trace.end(sys_span);
            &spliced
        } else {
            snapshot.as_ref()
        };
        // The act= column needs executor spans even when nobody asked
        // for a trace — ANALYZE then runs under a recorder of its own.
        let exec_trace = if mode == ExplainOptions::Analyze && !trace.is_enabled() {
            Trace::enabled()
        } else {
            trace.clone()
        };
        let exec_span = trace.begin("serve/execute");
        let exec_start = Instant::now();
        // The snapshot's own catalog: in sync with the plan, because a
        // plan-cache hit is only served when the entry's compile-time
        // source versions and index epoch match this snapshot's.
        let run = execute_plan(
            &entry.compiled.physical,
            snapshot.registry(),
            snapshot.dictionary(),
            Some(snapshot.indexes()),
            &PqpOptions {
                threads,
                ..engine_options()
            },
            &exec_trace,
        );
        let exec_elapsed = exec_start.elapsed();
        self.metrics.record_execute(exec_elapsed);
        trace.end(exec_span);
        detail.exec_micros = micros(exec_elapsed);
        let answer = run?;
        if mode == ExplainOptions::Analyze {
            return Ok(Response::Explain {
                plan: polygen_pqp::explain::render_analyzed_plan(
                    &entry.compiled.physical,
                    &exec_trace.report().unwrap_or_default(),
                ),
                info: finish(false),
            });
        }
        // The query is answered whether or not the transport can carry
        // the answer, as when `deliver` encodes it: close it first.
        let info = finish(false);
        let mut answer = Answer::from(answer);
        if let Some((cache, key)) = fill {
            // The answer is cached as the frames the wire sends, and only
            // once they exist: an answer the wire cannot carry stays out,
            // failing a wire request and answering an in-process one.
            match AnswerFrames::encode(&answer) {
                Ok(frames) => {
                    let frames = Arc::new(frames);
                    cache.insert(key, Arc::clone(&frames));
                    if encoded {
                        answer = Answer::from(frames);
                    }
                }
                Err(e) if encoded => return Err(ServeError::Undeliverable(e.to_string())),
                Err(_) => {}
            }
        }
        Ok(Response::Rows { answer, info })
    }

    /// The full metrics surface in Prometheus text exposition format,
    /// slow-query log appended as `#` comment lines (worst first, each
    /// with its span waterfall when the request was traced). This is
    /// what the wire `Stats` frame carries.
    pub fn scrape(&self) -> String {
        // A scrape boundary is a window boundary: close the current
        // stats window so `sys.stats` and external collectors advance
        // on the same cadence.
        self.sys.advance(&self.metrics);
        let mut out = self.metrics().render_prometheus();
        self.slow_log.render(&mut out);
        out
    }

    /// The slow-query log's current contents, worst first.
    pub fn slow_queries(&self) -> Vec<SlowQueryReport> {
        self.slow_log.snapshot()
    }

    fn canonicalize(
        &self,
        snapshot: &FederationSnapshot,
        text: &str,
        lang: Lang,
    ) -> Result<String, ServeError> {
        let schema = snapshot.dictionary().schema();
        let resolver = |rel: &str| -> Option<Vec<String>> {
            schema
                .scheme(rel)
                .map(|s| s.attr_names().map(str::to_string).collect())
        };
        let sql = |text: &str| canonicalize_sql(text, &resolver, engine_options().lowering);
        match lang {
            Lang::Algebra => Ok(canonicalize_algebra(text)?),
            Lang::Sql => Ok(sql(text)?),
            Lang::App => {
                let app_schema = self.app_schema.as_ref().ok_or_else(|| {
                    ServeError::App(AqpError::UnknownAppRelation(
                        "no application schema attached to this service".to_string(),
                    ))
                })?;
                Ok(sql(&translate_app_query(text, app_schema)?.to_string())?)
            }
        }
    }

    /// Fetch or compile the shared plan for a canonical text. Two racing
    /// misses may both compile; one insert wins and both queries run a
    /// correct plan — cheaper than holding a lock across compilation.
    /// A hit only counts if the entry's compile-time source versions
    /// match this snapshot: `update_source` eagerly purges stale plans,
    /// but a racing pre-update compile can re-insert one afterwards, and
    /// this check is what keeps such an entry from ever being served.
    fn plan_for(
        &self,
        snapshot: &FederationSnapshot,
        canonical: String,
    ) -> Result<(Arc<PlanEntry>, bool), ServeError> {
        if let Some(cache) = &self.plan_cache {
            if let Some(entry) = cache.get(&canonical) {
                if snapshot.version_vector(&entry.reads) == entry.compiled_versions
                    && snapshot.index_epoch() == entry.index_epoch
                {
                    self.metrics.record_plan_lookup(true);
                    return Ok((entry, true));
                }
            }
            self.metrics.record_plan_lookup(false);
            let entry = Arc::new(self.compile(snapshot, canonical)?);
            cache.insert(Arc::clone(&entry));
            Ok((entry, false))
        } else {
            Ok((Arc::new(self.compile(snapshot, canonical)?), false))
        }
    }

    /// Compile canonical text into a cacheable plan entry. The plan
    /// carries no parallelism, so one entry serves every thread
    /// allotment: each run takes its fan-out from the threads admission
    /// granted it.
    fn compile(
        &self,
        snapshot: &FederationSnapshot,
        canonical: String,
    ) -> Result<PlanEntry, ServeError> {
        let expr = parse_algebra(&canonical).map_err(NormalizeError::from)?;
        let compiler = Pqp::new(
            Arc::clone(snapshot.dictionary()),
            Arc::clone(snapshot.registry()),
        )
        .with_options(engine_options())
        .with_indexes(Arc::clone(snapshot.indexes()));
        let compiled = compiler.compile(expr)?;
        let reads = compiled.physical.source_dbs();
        Ok(PlanEntry {
            fingerprint: compiled.physical.fingerprint(),
            compiled_versions: snapshot.version_vector(&reads),
            index_epoch: snapshot.index_epoch(),
            canonical: Arc::from(canonical.as_str()),
            reads,
            compiled,
        })
    }

    /// Materialize the `sys.*` relations `plan` scans from live service
    /// state — one consistent snapshot read across the subsystems they
    /// view — and splice them, with the empty placeholder for every
    /// relation the plan does not scan, into `base` as an ephemeral
    /// successor snapshot under a fresh monotone version. The successor
    /// is never published to the head: it lives exactly as long as the
    /// one query executing against it, so no two queries can ever
    /// observe the same materialization and the result cache (bypassed
    /// anyway for sys plans) could never alias one. The span `span`
    /// notes the relations built.
    fn spliced_sys_snapshot(
        &self,
        base: &FederationSnapshot,
        plan: &PhysicalPlan,
        trace: &Trace,
        span: SpanId,
    ) -> FederationSnapshot {
        let (relations, built) = sys::materialize(
            plan,
            [
                &|| sys::queries_relation(&self.slow_log.snapshot()),
                &|| sys::sessions_relation(&self.sys.sessions().snapshot()),
                &|| self.sys.stats(&self.metrics),
                &|| sys::sources_relation(base),
                &|| {
                    sys::cache_relation(
                        &self
                            .plan_cache
                            .as_ref()
                            .map_or_else(Vec::new, PlanCache::entries_with_hits),
                        &self
                            .result_cache
                            .as_ref()
                            .map_or_else(Vec::new, ResultCache::entries_with_hits),
                    )
                },
                &|| sys::indexes_relation(base),
            ],
        );
        if !span.is_none() {
            trace.annotate(span, "built", Note::str(&built.join(",")));
        }
        let lqp: Arc<dyn Lqp> = Arc::new(polygen_lqp::memory::InMemoryLqp::new(SYS_DB, relations));
        base.with_virtual_source(lqp, Arc::clone(base.dictionary()), self.sys.next_version())
    }
}

/// The engine settings every served query compiles and runs under: the
/// defaults' conflict policy and SQL lowering mode.
/// Each run overrides only `threads`, with the allotment admission takes
/// from the shared budget.
fn engine_options() -> PqpOptions {
    PqpOptions::default()
}

/// The text a panic carried: `panic!` payloads are a `&str` or a `String`.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "a non-text panic payload".to_string()),
    }
}

/// A duration as whole microseconds, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Note a cache lookup's outcome on its span (free when untraced).
fn annotate_cache(trace: &Trace, span: SpanId, hit: bool) {
    if !span.is_none() {
        trace.annotate(span, "cache", Note::str(if hit { "hit" } else { "miss" }));
    }
}

/// Peel a leading `EXPLAIN` / `EXPLAIN ANALYZE` keyword off SQL text:
/// the keyword overrides the mode the options asked for and the inner
/// query is what gets served — so the canonical cache key is the same
/// whether the mode came from the keyword or the options.
/// Case-insensitive, whitespace-robust; text that merely *contains* the
/// word (e.g. a string literal) is left alone because the keyword must
/// lead.
fn peel_explain_prefix(mode: ExplainOptions, text: &str) -> (ExplainOptions, &str) {
    match strip_leading_keyword(text, "EXPLAIN") {
        None => (mode, text),
        Some(rest) => match strip_leading_keyword(rest, "ANALYZE") {
            Some(inner) => (ExplainOptions::Analyze, inner),
            None => (ExplainOptions::Plan, rest),
        },
    }
}

/// `Some(remainder)` when `text` starts (after whitespace) with the
/// keyword as a whole word, case-insensitively.
fn strip_leading_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let t = text.trim_start();
    if !t
        .get(..keyword.len())
        .is_some_and(|p| p.eq_ignore_ascii_case(keyword))
    {
        return None;
    }
    let rest = &t[keyword.len()..];
    if rest.is_empty() || rest.starts_with(char::is_whitespace) {
        Some(rest)
    } else {
        None
    }
}

/// A client session: an identity plus per-session counters over the
/// shared service. Cheap to open (no catalog copies — the federation is
/// snapshot-shared), cheap to drop. Registered in the live-session
/// registry for its lifetime, so `SELECT * FROM sys.sessions` shows it —
/// including the query it is running *right now*.
pub struct Session<'s> {
    service: &'s QueryService,
    stats: Arc<SessionStats>,
}

impl Session<'_> {
    /// The session id (registry-assigned, never reused).
    pub fn id(&self) -> u64 {
        self.stats.id()
    }

    /// Queries served on this session.
    pub fn queries(&self) -> u64 {
        self.stats.queries()
    }

    /// Serve one [`Request`] through the shared service — the envelope
    /// a wire session speaks, counted against this session.
    pub fn execute(&mut self, request: Request) -> Response {
        self.service.execute_observed(&request, Some(&self.stats))
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.service.sys.sessions().deregister(self.stats.id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ErrorCode;
    use polygen_catalog::scenario;
    use polygen_core::relation::PolygenRelation;
    use polygen_flat::value::Value;

    const PAPER_SQL: &str = "SELECT ONAME, CEO \
        FROM PORGANIZATION, PALUMNUS \
        WHERE CEO = ANAME AND ONAME IN \
        (SELECT ONAME FROM PCAREER WHERE AID# IN \
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"MBA\"))";

    fn service() -> QueryService {
        QueryService::for_scenario(&scenario::build(), ServeOptions::default())
    }

    /// The answer and info of a request that must serve rows.
    fn rows(svc: &QueryService, request: Request) -> (Arc<PolygenRelation>, ResponseInfo) {
        match svc.execute(request) {
            Response::Rows { answer, info } => (Arc::clone(answer.relation()), info),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn sql(svc: &QueryService, text: &str) -> (Arc<PolygenRelation>, ResponseInfo) {
        rows(svc, Request::sql(text))
    }

    /// A wire fill caches the answer's frames, and a wire hit sends them.
    /// An in-process hit decodes them; frames the decoder refuses are a
    /// miss that answers the rows it computes. Here they are refused
    /// because every source id is past 4 000: a tag set naming one
    /// spills 63 heap words from 4 bytes, past the decoder's bound.
    #[test]
    fn an_in_process_hit_decodes_frames_or_misses() {
        let mut dictionary = polygen_catalog::dictionary::DataDictionary::with_parts(
            Default::default(),
            scenario::polygen_schema(),
            scenario::domain_map(),
        );
        for n in 0..4_000 {
            dictionary.intern_source(&format!("X{n}"));
        }
        for db in ["AD", "PD", "CD"] {
            dictionary.intern_source(db);
        }
        let far = Scenario {
            dictionary,
            databases: scenario::build().databases,
        };
        let svc = QueryService::for_scenario(&far, ServeOptions::default());
        // The answer's frames and the hit flag its `Summary` carries.
        let wire = |svc: &QueryService| {
            let (bytes, _) =
                svc.execute_encoded(&Request::sql(PAPER_SQL), &Trace::disabled(), None);
            let mut reader = wire::codec::FrameReader::new();
            reader.push(&bytes);
            let mut last = Vec::new();
            while let Some(payload) = reader.next_frame().expect("whole frames") {
                last = payload.to_vec();
            }
            let Ok(wire::Frame::Summary { info }) = wire::Frame::decode(&last) else {
                panic!("a rows answer ends with its Summary");
            };
            (
                bytes[..bytes.len() - 4 - last.len()].to_vec(),
                info.result_hit,
            )
        };
        let (miss, hit) = (wire(&svc), wire(&svc));
        assert!(!miss.1 && hit.1, "the miss fills, the hit sends");
        assert_eq!(hit.0, miss.0, "the hit sends the miss's frames");
        let (answer, info) = sql(&svc, PAPER_SQL);
        assert!(!info.result_hit, "undecodable frames are a miss");
        assert_eq!(answer.len(), 3);
        let refused = AnswerFrames::encode(&answer).unwrap().decode();
        assert!(refused.is_err(), "the decoder refuses these frames");
        assert_eq!(wire(&svc), hit, "the frames are still cached");
        let m = svc.metrics();
        assert_eq!((m.result_hits, m.result_misses, m.errors), (2, 2, 0));
    }

    /// A panic under the result-cache lock poisons it for good. The
    /// service recovers the guard, so the next request and every later
    /// one answer rows instead of error 500.
    #[test]
    fn a_poisoned_cache_lock_fails_no_later_request() {
        let svc = service();
        svc.result_cache.as_ref().expect("caches are on").poison();
        for _ in 0..3 {
            assert_eq!(sql(&svc, PAPER_SQL).0.len(), 3);
        }
        assert_eq!(svc.metrics().errors, 0);
    }

    #[test]
    fn cold_then_hot_path() {
        let svc = service();
        let (cold, cold_info) = sql(&svc, PAPER_SQL);
        assert!(!cold_info.plan_hit && !cold_info.result_hit);
        assert_eq!(cold.len(), 3);
        let (warm, warm_info) = sql(&svc, PAPER_SQL);
        assert!(warm_info.plan_hit && warm_info.result_hit);
        // The hit decodes the cached frames to the same tagged answer.
        assert_eq!(*cold, *warm);
        assert_eq!(svc.metrics().result_hits, 1);
        assert_eq!(svc.cache_sizes(), (1, 1));
    }

    #[test]
    fn whitespace_variants_share_one_plan() {
        let svc = service();
        sql(
            &svc,
            "SELECT ONAME FROM PORGANIZATION WHERE CEO = \"John Reed\"",
        );
        let (_, info) = sql(
            &svc,
            "SELECT   ONAME\nFROM PORGANIZATION\nWHERE CEO   = \"John Reed\"",
        );
        assert!(info.plan_hit && info.result_hit);
        assert_eq!(svc.cache_sizes(), (1, 1));
    }

    #[test]
    fn sql_and_algebra_agree_under_caching() {
        let svc = service();
        let (a, _) = sql(&svc, PAPER_SQL);
        let (b, _) = rows(
            &svc,
            Request::algebra(polygen_sql::algebra_expr::PAPER_EXPRESSION),
        );
        assert!(a.tagged_set_eq(&b));
    }

    #[test]
    fn source_update_invalidates_and_refreshes() {
        let svc = service();
        let reed = "SELECT ONAME, CEO FROM PORGANIZATION WHERE CEO = \"John Reed\"";
        assert_eq!(sql(&svc, reed).0.len(), 1);
        assert!(sql(&svc, reed).1.result_hit);
        // CD's FIRM relation changes its Citicorp CEO.
        let mut cd = scenario::company_database();
        for rel in &mut cd.relations {
            if rel.name() == "FIRM" {
                *rel = Relation::build("FIRM", &["FNAME", "CEO", "HQ"])
                    .key(&["FNAME"])
                    .row(&["Citicorp", "Jane Doe", "NY, NY"])
                    .finish()
                    .unwrap();
            }
        }
        let v = svc.update_source_relations("CD", cd.relations);
        assert_eq!(v, 1);
        let m = svc.metrics();
        assert!(m.invalidated_results >= 1, "{m}");
        let (after, info) = sql(&svc, reed);
        assert!(!info.result_hit, "update must force re-execution");
        assert!(after.is_empty(), "John Reed is no longer a CEO anywhere");
        let (doe, _) = sql(
            &svc,
            "SELECT ONAME, CEO FROM PORGANIZATION WHERE CEO = \"Jane Doe\"",
        );
        assert_eq!(doe.len(), 1);
        assert!(doe.cell("ONAME", &Value::str("Citicorp"), "CEO").is_some());
    }

    #[test]
    fn cache_off_matches_cache_on() {
        let s = scenario::build();
        let on = QueryService::for_scenario(&s, ServeOptions::default());
        let off = QueryService::for_scenario(&s, ServeOptions::default().without_caches());
        for _ in 0..2 {
            let (a, _) = sql(&on, PAPER_SQL);
            let (b, info) = sql(&off, PAPER_SQL);
            assert_eq!(*a, *b, "byte-identical, tags included");
            assert!(!info.plan_hit && !info.result_hit);
        }
        assert_eq!(off.cache_sizes(), (0, 0));
    }

    #[test]
    fn sessions_count_and_share_caches() {
        let svc = service();
        let mut s1 = svc.open_session();
        let mut s2 = svc.open_session();
        assert_ne!(s1.id(), s2.id());
        s1.execute(Request::sql(PAPER_SQL));
        let out = s2.execute(Request::sql(PAPER_SQL));
        assert!(
            out.info().unwrap().result_hit,
            "sessions share the service caches"
        );
        assert_eq!(s1.queries(), 1);
        assert_eq!(s2.queries(), 1);
    }

    #[test]
    fn overload_sheds_rather_than_queues_unboundedly() {
        let svc = QueryService::for_scenario(
            &scenario::build(),
            ServeOptions::default().with_admission(1, 0),
        );
        // Hold the single slot from another thread, then watch a second
        // query get shed.
        let gate = Admission::new(1, 0, 1);
        let _held = gate.admit(&ServiceMetrics::default()).unwrap();
        assert!(matches!(
            gate.admit(&ServiceMetrics::default()),
            Err(ServeError::Overloaded { .. })
        ));
        // The service itself still serves sequentially.
        assert_eq!(sql(&svc, PAPER_SQL).0.len(), 3);
    }

    #[test]
    fn a_newcomer_does_not_barge_past_a_queued_waiter() {
        use std::thread;
        use std::time::Instant;
        let adm = Admission::new(1, 4, 1);
        let m = ServiceMetrics::default();
        let order = Mutex::new(Vec::new());
        let state = || adm.state.lock().unwrap_or_else(PoisonError::into_inner);
        let wait_for = |arrived: &dyn Fn() -> bool| {
            let start = Instant::now();
            while !arrived() {
                assert!(start.elapsed() < Duration::from_secs(10), "never arrived");
                thread::sleep(Duration::from_millis(1));
            }
        };
        let held = adm.admit(&m).unwrap();
        thread::scope(|scope| {
            let enter = |name: &'static str| {
                let permit = adm.admit(&m).unwrap();
                order.lock().unwrap().push(name);
                drop(permit);
            };
            scope.spawn(move || enter("B"));
            wait_for(&|| state().queued == 1);
            // The slot frees, but B has not yet re-taken the lock: the
            // window between a release and the woken waiter's turn.
            {
                let mut st = state();
                st.active -= 1;
                st.budget_used -= held.threads;
            }
            std::mem::forget(held);
            scope.spawn(move || enter("C"));
            wait_for(&|| state().queued == 2 || !order.lock().unwrap().is_empty());
            adm.freed.notify_all();
        });
        assert_eq!(
            *order.lock().unwrap(),
            ["B", "C"],
            "admitted out of arrival order"
        );
    }

    #[test]
    fn thread_allotment_reserves_and_returns_the_budget() {
        let adm = Admission::new(8, 8, 8);
        let m = ServiceMetrics::default();
        let p1 = adm.admit(&m).unwrap();
        assert_eq!(p1.threads, 8, "alone: the whole budget");
        let p2 = adm.admit(&m).unwrap();
        assert_eq!(
            p2.threads, 1,
            "the first query holds the budget; later arrivals get the floor"
        );
        drop(p1);
        let p3 = adm.admit(&m).unwrap();
        assert_eq!(
            p3.threads, 4,
            "released reservations are available again (fair share of 2 active)"
        );
        drop(p2);
        drop(p3);
        let again = adm.admit(&m).unwrap();
        assert_eq!(again.threads, 8, "everything returns on drop");
        assert_eq!(m.snapshot().peak_concurrency, 2);
    }

    #[test]
    fn staggered_admissions_never_overdraw_the_budget() {
        let adm = Admission::new(4, 4, 6);
        let m = ServiceMetrics::default();
        let p1 = adm.admit(&m).unwrap(); // 6 of 6
        let p2 = adm.admit(&m).unwrap(); // floor
        let p3 = adm.admit(&m).unwrap(); // floor
        assert_eq!(p1.threads + p2.threads + p3.threads, 8, "6 + floor + floor");
        assert!(p2.threads == 1 && p3.threads == 1);
        drop(p1);
        // 2 active holding 2; fair share 6/3 = 2, unreserved 4 → 2.
        let p4 = adm.admit(&m).unwrap();
        assert_eq!(p4.threads, 2);
        drop(p2);
        drop(p3);
        drop(p4);
    }

    #[test]
    fn an_ambiguous_app_attribute_is_error_203() {
        use polygen_sql::app::AppRelation;
        let mut app = AppSchema::new();
        app.push(AppRelation::new(
            "COMPANIES",
            "PORGANIZATION",
            &[("NAME", "ONAME")],
        ));
        app.push(AppRelation::new("GRADS", "PALUMNUS", &[("NAME", "ANAME")]));
        let svc = service().with_app_schema(app);
        // Either reading of NAME is a different question: no answer.
        let out = svc.execute(Request::app("SELECT NAME FROM COMPANIES, GRADS"));
        assert_eq!(
            out.error_code(),
            Some(ErrorCode::AppAmbiguousAttribute),
            "{out:?}"
        );
        assert_eq!(ErrorCode::AppAmbiguousAttribute.code(), 203);
        assert_eq!(svc.metrics().errors, 1);
    }

    #[test]
    fn app_queries_flow_through_the_caches() {
        use polygen_sql::app::AppRelation;
        let mut app = AppSchema::new();
        app.push(AppRelation::new(
            "COMPANIES",
            "PORGANIZATION",
            &[("COMPANY", "ONAME"), ("CHIEF", "CEO")],
        ));
        let svc = service().with_app_schema(app);
        let app_sql = "SELECT COMPANY FROM COMPANIES WHERE CHIEF = \"John Reed\"";
        let (cold, _) = rows(&svc, Request::app(app_sql));
        assert_eq!(cold.len(), 1);
        let (_, warm) = rows(&svc, Request::app(app_sql));
        assert!(warm.result_hit);
        // The same polygen-level query shares the entry.
        let (_, direct) = sql(
            &svc,
            "SELECT ONAME FROM PORGANIZATION WHERE CEO = \"John Reed\"",
        );
        assert!(direct.result_hit, "app and polygen paths share one key");
    }

    #[test]
    fn indexed_service_routes_and_stays_byte_identical() {
        let s = scenario::build();
        let indexed = QueryService::for_scenario(&s, ServeOptions::default())
            .with_index_specs(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
            .unwrap();
        let plain = QueryService::for_scenario(&s, ServeOptions::default().without_caches());
        let mba = "SELECT AID#, ANAME FROM PALUMNUS WHERE DEGREE = \"MBA\"";
        let (cold, info) = sql(&indexed, mba);
        assert!(info.index_routed, "the selective scan must route");
        assert_eq!(*cold, *sql(&plain, mba).0);
        let (_, warm) = sql(&indexed, mba);
        assert!(warm.result_hit && warm.index_routed);
        // The paper query routes its MBA select too — same answers.
        let (paper, info) = sql(&indexed, PAPER_SQL);
        assert!(info.index_routed);
        assert_eq!(*paper, *sql(&plain, PAPER_SQL).0);
    }

    #[test]
    fn source_update_rebuilds_indexes_and_serves_fresh_data() {
        let s = scenario::build();
        let indexed = QueryService::for_scenario(&s, ServeOptions::default())
            .with_index_specs(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
            .unwrap();
        let mba = "SELECT ANAME FROM PALUMNUS WHERE DEGREE = \"MBA\"";
        let (before, info) = sql(&indexed, mba);
        assert!(info.index_routed);
        assert_eq!(before.len(), 5);
        // AD refresh: one alumna switches to an MBA.
        let mut ad = scenario::alumni_database();
        for rel in &mut ad.relations {
            if rel.name() == "ALUMNUS" {
                let attrs: Vec<&str> = rel.schema().attrs().iter().map(|a| a.as_ref()).collect();
                let mut b = Relation::build("ALUMNUS", &attrs).key(&["AID#"]);
                for row in rel.rows() {
                    let mut row = row.clone();
                    if row[1] == Value::str("Ken Olsen") {
                        row[2] = Value::str("MBA");
                    }
                    b = b.vrow(row);
                }
                *rel = b.finish().unwrap();
            }
        }
        indexed.update_source_relations("AD", ad.relations);
        let (after, info) = sql(&indexed, mba);
        assert!(!info.result_hit, "version bump invalidates");
        assert!(info.index_routed, "rebuilt index keeps routing");
        assert_eq!(after.len(), 6, "the refreshed base is probed");
    }

    #[test]
    fn errors_surface_and_count() {
        let svc = service();
        let syntax = svc.execute(Request::sql("SELECT"));
        assert_eq!(syntax.error_code(), Some(ErrorCode::SqlSyntax));
        let no_app = svc.execute(Request::app("SELECT X FROM Y"));
        assert_eq!(no_app.error_code(), Some(ErrorCode::AppUnknownRelation));
        assert_eq!(svc.metrics().errors, 2);
    }

    #[test]
    fn execute_envelope_covers_every_variant() {
        let svc = service();
        let rows = svc.execute(Request::sql(PAPER_SQL));
        let Response::Rows { answer, info } = &rows else {
            panic!("expected rows, got {rows:?}");
        };
        assert_eq!(answer.len(), 3);
        assert!(!info.result_hit && !info.plan_hit);

        assert!(matches!(svc.execute(Request::sql("   ")), Response::Empty));

        let err = svc.execute(Request::sql("SELECT"));
        assert_eq!(err.error_code(), Some(ErrorCode::SqlSyntax));
        let app_err = svc.execute(Request::app("SELECT X FROM Y"));
        assert_eq!(app_err.error_code(), Some(ErrorCode::AppUnknownRelation));

        let explained = svc.execute(Request::sql(PAPER_SQL).with_explain(true));
        let Response::Explain { plan, info } = &explained else {
            panic!("expected explain, got {explained:?}");
        };
        assert!(plan.contains("Scan"), "{plan}");
        assert!(info.plan_hit, "plan was cached by the rows query");
        assert_eq!(info.threads, 0, "explain executes nothing");

        // The metrics taxonomy saw both failures under their codes.
        let m = svc.metrics();
        assert_eq!(m.errors_with_code(ErrorCode::SqlSyntax), 1);
        assert_eq!(m.errors_with_code(ErrorCode::AppUnknownRelation), 1);
        assert_eq!(m.shed(), 0);
    }

    #[test]
    fn session_speaks_the_envelope() {
        let svc = service();
        let mut session = svc.open_session();
        let first = session.execute(Request::sql(PAPER_SQL));
        assert!(matches!(first, Response::Rows { .. }));
        let again = session.execute(Request::sql(PAPER_SQL));
        let Response::Rows { info, .. } = &again else {
            panic!("expected rows");
        };
        assert!(info.result_hit, "sessions share the service caches");
        assert!(first.payload_eq(&again), "hit is byte-identical to cold");
        assert_eq!(session.queries(), 2);
    }

    #[test]
    fn explain_keyword_peels_into_plan_mode() {
        let svc = service();
        let explained = svc.execute(Request::sql(format!("explain {PAPER_SQL}")));
        let Response::Explain { plan, info } = &explained else {
            panic!("expected explain, got {explained:?}");
        };
        assert!(plan.contains("Scan"), "{plan}");
        assert!(!plan.contains("act=("), "plan mode never executes");
        assert_eq!(info.threads, 0);
        // The canonical key is the inner query: a plain run shares it.
        let Response::Rows { info, .. } = svc.execute(Request::sql(PAPER_SQL)) else {
            panic!("expected rows");
        };
        assert!(info.plan_hit, "EXPLAIN warmed the plan cache");
        // A string literal merely containing the word is left alone.
        let lit = svc.execute(Request::sql(
            "SELECT ONAME FROM PORGANIZATION WHERE CEO = \"EXPLAIN\"",
        ));
        assert!(matches!(lit, Response::Rows { .. }));
    }

    /// A multi-byte character straddling the keyword's length is text the
    /// keyword does not lead, not a slicing panic: it answers a syntax
    /// error, and well-formed `EXPLAIN` / `EXPLAIN ANALYZE` still peel.
    #[test]
    fn multibyte_text_at_the_keyword_cut_is_a_syntax_error() {
        let svc = service();
        for text in [
            "SELEC日本T ONAME FROM PORGANIZATION",
            "EXP日本LAIN SELECT ONAME FROM PORGANIZATION",
            "SELECT\u{FFFD} ONAME FROM PORGANIZATION",
        ] {
            assert_eq!(
                svc.execute(Request::sql(text)).error_code(),
                Some(ErrorCode::SqlSyntax),
                "{text}"
            );
        }
        let off = ExplainOptions::Off;
        assert_eq!(
            peel_explain_prefix(off, "  explain SELECT X"),
            (ExplainOptions::Plan, " SELECT X")
        );
        assert_eq!(
            peel_explain_prefix(off, "EXPLAIN analyze SELECT X"),
            (ExplainOptions::Analyze, " SELECT X")
        );
        assert_eq!(
            peel_explain_prefix(off, "EXPLAINED SELECT X"),
            (off, "EXPLAINED SELECT X")
        );
        assert_eq!(
            peel_explain_prefix(off, "EXPLAIN ANALYZ日 X"),
            (ExplainOptions::Plan, " ANALYZ日 X")
        );
    }

    #[test]
    fn explain_analyze_executes_and_renders_actuals() {
        let svc = service();
        let resp = svc.execute(Request::sql(format!("EXPLAIN ANALYZE {PAPER_SQL}")));
        let Response::Explain { plan, info } = &resp else {
            panic!("expected explain, got {resp:?}");
        };
        assert!(plan.contains("act=("), "{plan}");
        assert!(plan.contains("◀ answer"), "{plan}");
        assert!(info.threads > 0, "analyze executes under admission");
        assert!(!info.result_hit);
        // The options spelling renders identically (same canonical key,
        // actual row counts are deterministic even though times vary).
        let again = svc.execute(Request::sql(PAPER_SQL).with_explain_mode(ExplainOptions::Analyze));
        let Response::Explain {
            info: again_info, ..
        } = &again
        else {
            panic!("expected explain");
        };
        assert!(again_info.plan_hit, "analyze shares the plan cache");
        // Analyze executed but never touched the result cache.
        let m = svc.metrics();
        assert_eq!(m.result_hits + m.result_misses, 0);
        assert!(m.execute_latency.count() >= 2, "{m}");
        assert_eq!(m.queries, 2);
    }

    #[test]
    fn traced_requests_feed_the_slow_query_log() {
        let svc = service();
        let traced = svc.execute(Request::sql(PAPER_SQL).with_trace(true));
        assert!(matches!(traced, Response::Rows { .. }));
        let slow = svc.slow_queries();
        assert_eq!(slow.len(), 1);
        let waterfall = slow[0].waterfall.as_deref().expect("traced request");
        for site in ["serve/queue", "serve/parse", "serve/plan", "serve/execute"] {
            assert!(waterfall.contains(site), "{waterfall}");
        }
        assert!(waterfall.contains("exec/"), "executor spans: {waterfall}");
        // An untraced request still lands (worst-N ring), sans waterfall.
        svc.execute(Request::sql("SELECT ONAME FROM PORGANIZATION"));
        assert_eq!(svc.slow_queries().len(), 2);
        // The scrape carries both the exposition and the slowlog.
        let scrape = svc.scrape();
        assert!(scrape.contains("polygen_queries_total 2"), "{scrape}");
        assert!(scrape.contains("polygen_miss_latency_micros_count"));
        assert!(scrape.contains("# slowlog"), "{scrape}");
    }

    #[test]
    fn tracing_does_not_change_results() {
        let svc = service();
        let plain = svc.execute(Request::sql(PAPER_SQL));
        let svc2 = service();
        let traced = svc2.execute(Request::sql(PAPER_SQL).with_trace(true));
        assert!(plain.payload_eq(&traced), "trace on ≡ trace off");
        let Response::Rows { answer: a, .. } = &plain else {
            panic!()
        };
        let Response::Rows { answer: b, .. } = &traced else {
            panic!()
        };
        assert_eq!(**a, **b, "byte-identical, tags included");
    }

    #[test]
    fn execute_traced_records_a_well_formed_waterfall() {
        use crate::request::Request;
        let svc = service();
        let trace = Trace::enabled();
        svc.execute_encoded(&Request::sql(PAPER_SQL), &trace, None);
        let report = trace.report().unwrap();
        report.well_formed().unwrap();
        assert!(report.span("serve/queue").is_some());
        assert!(report.span("serve/execute").is_some());
        let exec_parent = report
            .spans
            .iter()
            .position(|s| s.name == "serve/execute")
            .unwrap();
        // Executor node spans nest under the service's execute span.
        assert!(report
            .spans
            .iter()
            .filter(|s| s.name.starts_with("exec/"))
            .all(|s| s.parent == Some(exec_parent)));
    }

    #[test]
    fn overload_is_a_structured_response() {
        let svc = QueryService::for_scenario(
            &scenario::build(),
            ServeOptions::default().with_admission(1, 0),
        );
        // Hold the only slot, then execute: the envelope must carry a
        // structured Overloaded error, and the metrics must bucket it.
        let permit = svc.admission.admit(&svc.metrics).unwrap();
        let shed = svc.execute(Request::sql(PAPER_SQL));
        assert!(shed.is_overloaded());
        assert!(matches!(
            shed,
            Response::Error { code: ErrorCode::Overloaded, ref message }
                if message.contains("overloaded")
        ));
        drop(permit);
        assert_eq!(svc.metrics().shed(), 1);
        assert_eq!(svc.metrics().rejected, 1);
        // The slot freed: the same request now serves.
        assert!(matches!(
            svc.execute(Request::sql(PAPER_SQL)),
            Response::Rows { .. }
        ));
    }

    #[test]
    fn every_failure_is_counted_once_whatever_the_mode() {
        let svc = QueryService::for_scenario(
            &scenario::build(),
            ServeOptions::default().with_admission(1, 0),
        );
        // One unparsable request per mode: Off, Plan, Analyze.
        for text in ["SELECT", "EXPLAIN SELECT", "EXPLAIN ANALYZE SELECT"] {
            let code = svc.execute(Request::sql(text)).error_code();
            assert_eq!(code, Some(ErrorCode::SqlSyntax), "`{text}`");
        }
        // And one shed on each admitted path (plan-only EXPLAIN is not).
        let permit = svc.admission.admit(&svc.metrics).unwrap();
        for text in [
            PAPER_SQL.to_string(),
            format!("EXPLAIN ANALYZE {PAPER_SQL}"),
        ] {
            assert!(svc.execute(Request::sql(text)).is_overloaded());
        }
        drop(permit);
        let m = svc.metrics();
        assert_eq!((m.errors, m.rejected), (3, 2));
        assert_eq!(m.errors_with_code(ErrorCode::SqlSyntax), 3);
        assert_eq!(m.shed(), m.rejected);
        assert_counter_identities(&m);
        // ...and logged once, under its code, whatever the mode (the
        // cross-transport half of this table is
        // `sys_queries_rows_carry_the_same_facts_on_every_route`).
        let slow = svc.slow_queries();
        assert_eq!(slow.len(), 5);
        for (code, n) in [(ErrorCode::SqlSyntax, 3), (ErrorCode::Overloaded, 2)] {
            let logged = slow
                .iter()
                .filter(|r| r.detail.error == Some((code.code(), code.mnemonic())))
                .count();
            assert_eq!(logged, n, "{code}");
        }
    }

    /// Every counter is stored once: the derived ones agree with the
    /// histograms they count, and each failure lands in one code bucket.
    fn assert_counter_identities(m: &MetricsSnapshot) {
        assert_eq!(m.queries, m.hit_latency.count() + m.miss_latency.count());
        assert_eq!(m.executed, m.miss_latency.count());
        assert_eq!(m.result_hits, m.hit_latency.count());
        let by_code: u64 = m.errors_by_code.iter().map(|(_, n)| n).sum();
        assert_eq!(by_code, m.errors + m.rejected);
    }

    /// The mode only decides which stages of the one serving path run.
    #[test]
    fn each_mode_takes_exactly_its_stages() {
        // (admitted, result-cache lookups, executed, result entries added)
        fn stages(svc: &QueryService) -> (u64, u64, u64, usize) {
            let m = svc.metrics();
            assert_counter_identities(&m);
            (
                m.queue_wait.count(),
                m.result_hits + m.result_misses,
                m.executed,
                svc.cache_sizes().1,
            )
        }
        let off = ExplainOptions::Off;
        for (text, steps) in [
            (
                PAPER_SQL,
                vec![
                    (ExplainOptions::Plan, (0, 0, 0, 0)),
                    (ExplainOptions::Analyze, (1, 0, 1, 0)),
                    (off, (1, 1, 1, 1)), // cold
                    (off, (1, 1, 0, 0)), // hot
                ],
            ),
            // A sys-reading plan bypasses the result cache, both ways,
            // in both modes that execute.
            (
                "SELECT SOURCE, VERSION FROM sys.sources",
                vec![
                    (ExplainOptions::Plan, (0, 0, 0, 0)),
                    (ExplainOptions::Analyze, (1, 0, 1, 0)),
                    (off, (1, 0, 1, 0)),
                    (off, (1, 0, 1, 0)),
                ],
            ),
        ] {
            let svc = service();
            for (mode, want) in steps {
                let before = stages(&svc);
                let response = svc.execute(Request::sql(text).with_explain_mode(mode));
                assert_eq!(response.error_code(), None, "{mode:?} `{text}`");
                assert_eq!(matches!(response, Response::Rows { .. }), mode == off);
                let after = stages(&svc);
                let took = (
                    after.0 - before.0,
                    after.1 - before.1,
                    after.2 - before.2,
                    after.3 - before.3,
                );
                assert_eq!(took, want, "{mode:?} `{text}`");
            }
        }
    }

    #[test]
    fn sys_sources_answer_sql_with_sys_provenance() {
        use polygen_core::tuple::origins_of;
        let svc = service();
        sql(&svc, PAPER_SQL);
        let (out, info) = sql(&svc, "SELECT SOURCE, VERSION FROM sys.sources");
        assert!(!info.result_hit && !info.index_routed);
        for src in ["AD", "CD", "PD", SYS_DB] {
            assert!(
                out.cell("SOURCE", &Value::str(src), "VERSION").is_some(),
                "missing {src} row in sys.sources"
            );
        }
        let head = svc.federation().snapshot();
        let sys_id = head.dictionary().registry().lookup(SYS_DB).unwrap();
        for tuple in out.tuples() {
            assert!(
                origins_of(tuple).contains(sys_id),
                "every catalog cell is origin-tagged {SYS_DB}"
            );
        }
    }

    /// `sys.sources`' `TUPLES` is each source's stored row count, summed
    /// over its relations, and follows a source update.
    #[test]
    fn sys_sources_tuples_count_each_sources_rows() {
        let svc = service();
        let tuples = |svc: &QueryService, src: &str| {
            let (out, _) = sql(svc, "SELECT SOURCE, TUPLES FROM sys.sources");
            out.cell("SOURCE", &Value::str(src), "TUPLES")
                .map(|c| c.datum.clone())
        };
        let s = scenario::build();
        for db in &s.databases {
            let rows: usize = db.relations.iter().map(Relation::len).sum();
            assert!(rows > 0, "{} holds rows", db.name);
            assert_eq!(
                tuples(&svc, &db.name),
                Some(Value::int(rows as i64)),
                "{}",
                db.name
            );
        }
        // CD keeps only its first relation, cut to one row.
        let mut cd = scenario::company_database();
        cd.relations.truncate(1);
        cd.relations[0] = cd.relations[0].gather(&[0]);
        svc.update_source_relations("CD", cd.relations);
        assert_eq!(tuples(&svc, "CD"), Some(Value::int(1)));
    }

    #[test]
    fn all_six_sys_relations_serve_over_sql() {
        let svc = service();
        sql(&svc, PAPER_SQL);
        let mut session = svc.open_session();
        for (text, nonempty) in [
            (
                "SELECT ORDINAL, QUERY, TOTAL_US, CACHE FROM sys.queries",
                true,
            ),
            (
                "SELECT SESSION_ID, PEER, QUERIES, LANG FROM sys.sessions",
                true,
            ),
            (
                "SELECT BUCKET, QUERIES, EXECUTED, P95_US FROM sys.stats",
                true,
            ),
            (
                "SELECT SOURCE, VERSION, RELATIONS, TUPLES FROM sys.sources",
                true,
            ),
            ("SELECT CACHE, ENTRY, HITS, BYTES FROM sys.cache", true),
            (
                "SELECT SOURCE, RELATION, COLUMN, KIND FROM sys.indexes",
                false,
            ),
        ] {
            let out = session.execute(Request::sql(text));
            let (answer, info) = (out.rows().unwrap(), out.info().unwrap());
            assert!(
                !info.result_hit,
                "{text}: sys answers never come from cache"
            );
            assert_eq!(
                !answer.is_empty(),
                nonempty,
                "{text}: got {} rows",
                answer.len()
            );
        }
        // With an index declared, sys.indexes gains its row too.
        svc.declare_indexes(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
            .unwrap();
        let ix = session.execute(Request::sql(
            "SELECT SOURCE, RELATION, COLUMN, ENTRIES FROM sys.indexes",
        ));
        assert!(ix
            .rows()
            .unwrap()
            .cell("RELATION", &Value::str("ALUMNUS"), "COLUMN")
            .is_some());
    }

    /// A catalog read builds the relations its plan scans and no
    /// other, as the `serve/sys-materialize` span's `built` note says: a
    /// query over two answers from both, and a `sys.sessions` or
    /// `sys.stats` probe builds its own relation alone — so only a read
    /// that scans `sys.stats` can close a stats window.
    #[test]
    fn sys_reads_build_only_the_relations_they_scan() {
        let svc = service();
        svc.declare_indexes(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
            .unwrap();
        let built = |text: &str| {
            let trace = Trace::enabled();
            let (answer, _) = svc.respond(&Request::sql(text), &trace, None, false, |r| match r {
                Response::Rows { answer, .. } => Ok(answer),
                other => Err(format!("{other:?}")),
            });
            let report = trace.report().unwrap();
            let span = report.span("serve/sys-materialize").expect("a sys read");
            (
                answer,
                span.note_str("built").unwrap_or_default().to_string(),
            )
        };
        // `sys.indexes` holds one row, for AD; `sys.sources` one per
        // source: only both together answer AD.
        let (both, names) = built(
            "SELECT SOURCE, VERSION FROM sys.sources \
             WHERE SOURCE IN (SELECT SOURCE FROM sys.indexes)",
        );
        assert_eq!(names, "sources,indexes");
        assert_eq!(both.len(), 1, "{both:?}");
        assert!(both.cell("SOURCE", &Value::str("AD"), "VERSION").is_some());
        // Neither read before it built `sys.stats`, so the stats read
        // closes the first window.
        let (_, names) = built("SELECT SESSION_ID, QUERY FROM sys.sessions");
        assert_eq!(names, "sessions");
        let (stats, names) = built("SELECT BUCKET, QUERIES FROM sys.stats");
        assert_eq!(names, "stats");
        assert_eq!(stats.len(), 1, "one window, closed by the stats read");
    }

    #[test]
    fn sys_answers_bypass_the_result_cache_and_stay_fresh() {
        let svc = service();
        let probe = "SELECT ORDINAL, QUERY FROM sys.queries";
        let (a, info) = sql(&svc, probe);
        assert!(!info.plan_hit && !info.result_hit);
        assert!(a.is_empty(), "the slow log was empty at admission");
        let (b, info) = sql(&svc, probe);
        assert!(info.plan_hit, "sys plans cache like any other");
        assert!(!info.result_hit, "sys results are never cached");
        assert!(
            !b.is_empty(),
            "the first catalog query itself is now on the slow log"
        );
        let (_plans, results) = svc.cache_sizes();
        assert_eq!(results, 0, "no sys answer was inserted");
        // A state change between reads is always visible.
        sql(&svc, PAPER_SQL);
        let (c, _) = sql(&svc, probe);
        assert!(
            c.cell("QUERY", &Value::str(PAPER_SQL), "ORDINAL").is_some(),
            "the user query appears on the next catalog read"
        );
        // User-facing caching is untouched by interleaved sys reads.
        assert!(sql(&svc, PAPER_SQL).1.result_hit);
        assert_eq!(svc.metrics().result_hits, 1);
    }

    #[test]
    fn sys_sessions_show_the_in_flight_query_and_drain() {
        let svc = service();
        let probe = "SELECT SESSION_ID, QUERY, LANG FROM sys.sessions";
        let mut session = svc.open_session();
        // Materialization happens while this very query is in flight, so
        // the session's own row must carry it as current work.
        let out = session.execute(Request::sql(probe));
        let answer = out.rows().unwrap();
        assert_eq!(answer.len(), 1);
        let id = Value::int(i64::try_from(session.id()).unwrap());
        let q = answer.cell("SESSION_ID", &id, "QUERY").unwrap();
        assert_eq!(q.datum, Value::str(probe));
        let lang = answer.cell("SESSION_ID", &id, "LANG").unwrap();
        assert_eq!(lang.datum, Value::str("sql"));
        drop(session);
        assert!(
            svc.sessions().is_empty(),
            "dropped sessions leave the registry"
        );
        let (after, _) = sql(&svc, probe);
        assert!(
            after.cell("SESSION_ID", &id, "QUERY").is_none(),
            "a drained session no longer appears"
        );
    }

    #[test]
    fn sys_cannot_be_indexed_or_auto_indexed() {
        let svc = service();
        let err = svc.declare_indexes(&[IndexSpec::hash(SYS_DB, "stats", "BUCKET")]);
        assert!(matches!(err, Err(ServeError::Index(_))), "{err:?}");
    }

    #[test]
    fn explain_renders_sys_scan_leaves() {
        let svc = service();
        let resp = svc.execute(Request::sql(
            "EXPLAIN SELECT BUCKET, QUERIES FROM sys.stats",
        ));
        let Response::Explain { plan, .. } = &resp else {
            panic!("expected explain, got {resp:?}");
        };
        assert!(plan.contains("Scan[sys]"), "{plan}");
        // ANALYZE executes against a live materialization.
        let resp = svc.execute(Request::sql(
            "EXPLAIN ANALYZE SELECT BUCKET, QUERIES FROM sys.stats",
        ));
        let Response::Explain { plan, .. } = &resp else {
            panic!("expected explain, got {resp:?}");
        };
        assert!(plan.contains("Scan[sys]"), "{plan}");
        assert!(plan.contains("act=("), "{plan}");
    }
}
