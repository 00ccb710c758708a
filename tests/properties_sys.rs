//! Differential property tests for the queryable system catalog
//! (`sys.*` — the mediator as its own tagged source).
//!
//! The guarantees under test:
//!
//! * every `sys.*` relation answers ordinary SQL with **well-formed
//!   tagged rows** — every cell origin-tagged exactly `{sys}`;
//! * interleaving catalog reads with user traffic is **invisible**:
//!   user answers (data and tags) and the result-cache hit/miss
//!   counters are byte-identical with and without the catalog traffic;
//! * `sys.sessions` shows a session's in-flight query while it runs
//!   and drains the row when the session closes;
//! * catalog answers are **never stale**: the result cache is bypassed,
//!   so state changes (new queries, scrape-driven window advances) are
//!   visible on the very next read.
//!
//! CI runs this suite under both `POLYGEN_THREADS=1` and `=4` (and both
//! executor batch modes), so the catalog's splice-at-admission path is
//! exercised with sequential and partition-parallel engines alike.

mod common;

use common::fixtures::{serve_rows, small_config};
use polygen::core::tuple::origins_of;
use polygen::core::PolygenRelation;
use polygen::serve::prelude::*;
use polygen::workload::queries::{sys_sessions_query, sys_stats_query};
use polygen::workload::{self, drive, replay, ClientMix, MixWeights};
use proptest::prelude::*;
use std::sync::Arc;

/// Serve one script query against a service.
fn serve(service: &QueryService, q: &Request) -> Arc<PolygenRelation> {
    serve_rows(service, q.clone()).0
}

/// Column lists for a full read of each catalog relation.
const SYS_SELECTS: &[&str] = &[
    "SELECT ORDINAL, QUERY, TOTAL_US, QUEUE_US, EXEC_US, CACHE, SUBSYSTEM FROM sys.queries",
    "SELECT SESSION_ID, PEER, QUERIES, ROWS, ERRORS, LANG, SUBSYSTEM FROM sys.sessions",
    "SELECT BUCKET, QUERIES, ERRORS, PLAN_HITS, RESULT_HITS, EXECUTED, P95_US, SUBSYSTEM \
     FROM sys.stats",
    "SELECT SOURCE, VERSION, RELATIONS, TUPLES, INDEXES, SUBSYSTEM FROM sys.sources",
    "SELECT ORDINAL, CACHE, ENTRY, FINGERPRINT, HITS, ROWS, BYTES, SUBSYSTEM FROM sys.cache",
    "SELECT SOURCE, RELATION, COLUMN, KIND, ENTRIES, SUBSYSTEM FROM sys.indexes",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After arbitrary user traffic, every catalog relation answers SQL
    /// with rows whose every cell is origin-tagged exactly `{sys}` —
    /// and never from the result cache.
    #[test]
    fn sys_relations_are_well_formed_tagged_sources(
        fed_seed in any::<u64>(),
        mix_seed in any::<u64>(),
        clients in 2usize..5,
    ) {
        let config = small_config(fed_seed, 3, 72);
        let scenario = workload::generate(&config);
        let service = QueryService::for_scenario(&scenario, ServeOptions::default());
        let m = ClientMix::default()
            .with_seed(mix_seed)
            .with_clients(clients)
            .with_queries_per_client(4);
        drive(&m, |_, q| serve(&service, q));
        let sys_id = service
            .federation()
            .snapshot()
            .dictionary()
            .registry()
            .lookup(SYS_DB)
            .expect("the catalog source is interned at construction");
        for sql in SYS_SELECTS {
            let (answer, info) = serve_rows(&service, Request::sql(*sql));
            prop_assert!(!info.result_hit, "{}: catalog answers bypass the cache", sql);
            for tuple in answer.tuples() {
                let origins = origins_of(tuple);
                prop_assert!(origins.contains(sys_id), "{}: missing sys tag", sql);
                prop_assert_eq!(
                    origins.iter().count(), 1,
                    "{}: catalog rows carry exactly one origin", sql
                );
            }
        }
        // The service state actually surfaced: traffic left slow-log
        // rows, live stats windows, sources, and cache entries behind.
        for sql in &SYS_SELECTS[..1] {
            prop_assert!(!serve_rows(&service, Request::sql(*sql)).0.is_empty(), "{}", sql);
        }
    }

    /// Interleaved catalog reads are invisible to user traffic: answers
    /// (tags included) and the result-cache hit/miss counters are
    /// byte-identical with and without them.
    #[test]
    fn catalog_reads_leave_user_traffic_byte_identical(
        fed_seed in any::<u64>(),
        mix_seed in any::<u64>(),
    ) {
        let config = small_config(fed_seed, 3, 72);
        let scenario = workload::generate(&config);
        let plain = QueryService::for_scenario(&scenario, ServeOptions::default());
        let spied = QueryService::for_scenario(&scenario, ServeOptions::default());
        let m = ClientMix::default()
            .with_seed(mix_seed)
            .with_clients(3)
            .with_queries_per_client(5);
        let baseline = replay(&m, |_, q| serve(&plain, q));
        let mut flip = false;
        let watched = replay(&m, |_, q| {
            // A catalog read rides between every pair of user queries.
            let probe = if flip { sys_stats_query() } else { sys_sessions_query() };
            flip = !flip;
            serve_rows(&spied, Request::sql(probe));
            serve(&spied, q)
        });
        for (c, (a, b)) in baseline.per_client.iter().zip(&watched.per_client).enumerate() {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                prop_assert_eq!(&**x, &**y, "client {} query {} diverged", c, i);
            }
        }
        let (pm, sm) = (plain.metrics(), spied.metrics());
        prop_assert_eq!(pm.result_hits, sm.result_hits, "hit counters must not move");
        prop_assert_eq!(pm.result_misses, sm.result_misses, "miss counters must not move");
        prop_assert_eq!(plain.cache_sizes().1, spied.cache_sizes().1, "no sys entries cached");
    }
}

/// `sys.sessions` carries the in-flight query of the very session
/// asking, and the row drains when the session drops.
#[test]
fn sessions_relation_shows_in_flight_work_and_drains() {
    let scenario = workload::generate(&small_config(7, 3, 64));
    let service = QueryService::for_scenario(&scenario, ServeOptions::default());
    let probe = "SELECT SESSION_ID, QUERY, LANG FROM sys.sessions".to_string();
    let mut session = service.open_session();
    let out = session.execute(Request::sql(&probe));
    let answer = out.rows().expect("catalog read serves");
    assert_eq!(answer.len(), 1, "one open session, one row");
    let id = polygen::flat::value::Value::int(i64::try_from(session.id()).unwrap());
    let in_flight = answer
        .cell("SESSION_ID", &id, "QUERY")
        .expect("own row present");
    assert_eq!(
        in_flight.datum,
        polygen::flat::value::Value::str(&probe),
        "the registry shows what the session is running right now"
    );
    drop(session);
    assert!(service.sessions().is_empty(), "drop deregisters");
    let (after, _) = serve_rows(&service, Request::sql(&probe));
    assert!(
        after.cell("SESSION_ID", &id, "QUERY").is_none(),
        "a closed session's row drains from the catalog"
    );
}

/// Catalog freshness across scrapes: every scrape closes a `sys.stats`
/// window, and the next read sees it — a cached (stale) catalog answer
/// would fail both assertions. Windows closed by racing scrapes and
/// reads add up to exactly the queries answered.
#[test]
fn scrapes_advance_the_stats_ring_and_reads_stay_fresh() {
    let scenario = workload::generate(&small_config(3, 3, 64));
    let service = QueryService::for_scenario(&scenario, ServeOptions::default());
    let stats = sys_stats_query();
    let (first, _) = serve_rows(&service, Request::sql(&stats));
    let windows_before = first.len();
    assert!(windows_before >= 1, "materialization opens a window");
    let _ = service.scrape();
    let (second, info) = serve_rows(&service, Request::sql(&stats));
    assert!(!info.result_hit);
    assert_eq!(
        second.len(),
        windows_before + 1,
        "the scrape sealed a window and the next read saw it"
    );
    // New queries land on the slow log and are visible immediately.
    let queries = "SELECT ORDINAL, QUERY FROM sys.queries";
    let before = serve_rows(&service, Request::sql(queries)).0.len();
    serve_rows(
        &service,
        Request::algebra(workload::queries::select_query(0)),
    );
    let (after, info) = serve_rows(&service, Request::sql(queries));
    assert!(!info.result_hit);
    assert!(
        after.len() > before,
        "catalog reads reflect every intervening query"
    );
    // And the mix's catalog weight drives the same path end to end:
    // user answers cache, catalog answers never do.
    let m = ClientMix::default()
        .with_queries_per_client(20)
        .with_weights(MixWeights::with_catalog_reads(4));
    drive(&m, |_, q| serve(&service, q));
    let sizes = service.cache_sizes();
    assert!(sizes.1 > 0, "user entries cached under the mixed workload");
    assert!(
        service.metrics().result_misses > 0,
        "user traffic actually executed"
    );
    // Scrapes racing user queries and `sys.stats` reads still close
    // windows in counter order: the windows partition every query
    // answered up to the last close, none counted twice or lost.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..8 {
                let _ = service.scrape();
                std::thread::yield_now();
            }
        });
        for client in 0..3 {
            let (service, stats) = (&service, &stats);
            scope.spawn(move || {
                for i in 0..8 {
                    let user = workload::queries::select_query(client * 8 + i);
                    serve_rows(service, Request::algebra(user));
                    serve_rows(service, Request::sql(stats));
                }
            });
        }
    });
    let _ = service.scrape();
    let answered = service.metrics().queries;
    let (windows, _) = serve_rows(&service, Request::sql(&stats));
    // Fewer closes than the retention bound, so every window is still
    // there, from bucket 0 on.
    let retained = polygen::serve::sys::SYS_STATS_WINDOWS;
    assert!(windows.len() < retained, "{} windows", windows.len());
    let counted: i64 = (0..windows.len() as i64)
        .map(|bucket| {
            let bucket = polygen::flat::value::Value::int(bucket);
            match windows.cell("BUCKET", &bucket, "QUERIES").map(|c| &c.datum) {
                Some(polygen::flat::value::Value::Int(n)) => *n,
                other => panic!("window {bucket:?}: QUERIES {other:?}"),
            }
        })
        .sum();
    assert_eq!(
        counted,
        i64::try_from(answered).unwrap(),
        "Σ QUERIES over the windows"
    );
}
