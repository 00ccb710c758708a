//! Differential property tests for the serving layer (`polygen-serve`).
//!
//! The guarantee under test: **caching and concurrency are invisible**.
//! With plan + tagged-result caching enabled and N concurrent sessions,
//! every answer — data, origin tags *and* intermediate tags — is
//! byte-identical to single-client, cache-off execution, including
//! across a mid-run source update. Plus the normalization property the
//! plan cache's key integrity rests on: canonical text round-trips
//! through the parser, so two expressions share a key iff they are the
//! same expression.
//!
//! CI runs this suite under both `POLYGEN_THREADS=1` and `=4`, so the
//! cache-hit and execution paths are exercised with sequential and
//! partition-parallel engines alike.

mod common;

use common::fixtures::{serve_rows, small_config};
use polygen::core::PolygenRelation;
use polygen::flat::relation::Relation;
use polygen::flat::value::Value;
use polygen::net::request_for;
use polygen::serve::prelude::*;
use polygen::sql::prelude::{canonical_text, canonicalize_algebra, parse_algebra};
use polygen::workload::queries::random_expression;
use polygen::workload::{self, drive, replay, ClientMix, ClientQuery, WorkloadConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Serve one script query against a service.
fn serve(service: &QueryService, q: &ClientQuery) -> Arc<PolygenRelation> {
    serve_rows(service, request_for(q)).0
}

/// A deterministic "upstream refresh" of one source: every value in its
/// single-source `VAL_*` column shifts by `delta`. Shared attributes are
/// untouched, so the federation stays conflict-free (the paper's
/// assumption) while the source's own data visibly changes.
fn refreshed_relations(
    scenario: &polygen::catalog::scenario::Scenario,
    source: &str,
    delta: i64,
) -> Vec<Relation> {
    let db = scenario
        .databases
        .iter()
        .find(|db| db.name == source)
        .unwrap_or_else(|| panic!("source {source} missing"));
    db.relations
        .iter()
        .map(|rel| {
            let attrs: Vec<&str> = rel.schema().attrs().iter().map(|a| a.as_ref()).collect();
            let val_col = attrs.iter().position(|a| a.starts_with("VAL_"));
            let mut b = Relation::build(rel.name(), &attrs);
            for row in rel.rows() {
                let mut row = row.clone();
                if let (Some(i), Some(Value::Int(v))) = (val_col, val_col.map(|i| &row[i])) {
                    row[i] = Value::int(v + delta);
                }
                b = b.vrow(row);
            }
            b.finish().expect("refreshed relation rebuilds")
        })
        .collect()
}

/// The population used throughout: small scripts over a small
/// federation so a whole property case stays fast on one core.
fn mix(seed: u64, clients: usize) -> ClientMix {
    ClientMix::default()
        .with_seed(seed)
        .with_clients(clients)
        .with_queries_per_client(6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N concurrent cached sessions == sequential cache-off replay,
    /// byte-identically (tags included), query by query.
    #[test]
    fn concurrent_cached_equals_sequential_uncached(
        fed_seed in any::<u64>(),
        mix_seed in any::<u64>(),
        clients in 2usize..5,
    ) {
        let config = small_config(fed_seed, 3, 72);
        let scenario = workload::generate(&config);
        let cached = QueryService::for_scenario(&scenario, ServeOptions::default());
        let uncached =
            QueryService::for_scenario(&scenario, ServeOptions::default().without_caches());
        let m = mix(mix_seed, clients);
        let concurrent = drive(&m, |_, q| serve(&cached, q));
        let sequential = replay(&m, |_, q| serve(&uncached, q));
        for (c, (cc, ss)) in concurrent
            .per_client
            .iter()
            .zip(&sequential.per_client)
            .enumerate()
        {
            for (i, (a, b)) in cc.iter().zip(ss).enumerate() {
                prop_assert_eq!(
                    &**a, &**b,
                    "client {} query {}: cached+concurrent diverged", c, i
                );
            }
        }
        // The cache actually participated (same scripts repeat shapes).
        prop_assert!(cached.metrics().result_hits + cached.metrics().plan_hits > 0);
        prop_assert_eq!(uncached.cache_sizes(), (0, 0));
    }

    /// The same guarantee across a mid-run source update: phase 1,
    /// deterministic refresh of one source, phase 2. Both services see
    /// the same update; cached answers reading the source must not
    /// survive it.
    #[test]
    fn caches_stay_invisible_across_source_update(
        fed_seed in any::<u64>(),
        mix_seed in any::<u64>(),
        delta in 1i64..1_000,
    ) {
        let config = small_config(fed_seed, 3, 72);
        let scenario = workload::generate(&config);
        let cached = QueryService::for_scenario(&scenario, ServeOptions::default());
        let uncached =
            QueryService::for_scenario(&scenario, ServeOptions::default().without_caches());
        let m = mix(mix_seed, 4);
        let phase = |svc: &QueryService, concurrent: bool| -> Vec<Vec<Arc<PolygenRelation>>> {
            if concurrent {
                drive(&m, |_, q| serve(svc, q)).per_client
            } else {
                replay(&m, |_, q| serve(svc, q)).per_client
            }
        };
        let refreshed = refreshed_relations(&scenario, "S1", delta);

        let cached_before = phase(&cached, true);
        cached.update_source_relations("S1", refreshed.clone());
        let cached_after = phase(&cached, true);

        let uncached_before = phase(&uncached, false);
        uncached.update_source_relations("S1", refreshed);
        let uncached_after = phase(&uncached, false);

        prop_assert_eq!(&cached_before, &uncached_before, "pre-update phase diverged");
        prop_assert_eq!(&cached_after, &uncached_after, "post-update phase diverged");
        // The update was visible at all: S1 is in every PENTITY merge,
        // so its version bump must have evicted cached answers.
        prop_assert!(
            cached.metrics().invalidated_results > 0,
            "update invalidated nothing"
        );
    }

    /// Normalization round-trip: canonical text parses back to the same
    /// expression, canonicalization is idempotent, and the plan cache
    /// holds exactly one entry per *distinct* canonical text — i.e. key
    /// collisions between different plans cannot happen, and key misses
    /// between equal plans cannot happen either.
    #[test]
    fn plan_cache_keys_are_exactly_canonical_texts(
        fed_seed in any::<u64>(),
        query_seeds in proptest::collection::vec(any::<u64>(), 2..6),
        depth in 1usize..4,
    ) {
        let config = small_config(fed_seed, 3, 72);
        let scenario = workload::generate(&config);
        let service = QueryService::for_scenario(&scenario, ServeOptions::default());
        let mut distinct = std::collections::BTreeSet::new();
        for seed in &query_seeds {
            let expr = random_expression(&config, *seed, depth);
            let canonical = canonical_text(&expr);
            // Round trip: the canonical text is a faithful spelling.
            prop_assert_eq!(&parse_algebra(&canonical).unwrap(), &expr);
            // Idempotence: canonicalizing canonical text is identity.
            prop_assert_eq!(&canonicalize_algebra(&canonical).unwrap(), &canonical);
            let (_, served) = serve_rows(&service, Request::algebra(expr.to_string()));
            prop_assert_eq!(&served.canonical, &canonical);
            distinct.insert(canonical);
            prop_assert_eq!(
                service.cache_sizes().0,
                distinct.len(),
                "one plan entry per distinct canonical text"
            );
        }
    }
}

/// Sessions interleaved over one shared service agree with a fresh
/// cache-off service — the multi-session shape of the differential
/// guarantee (sessions share caches; answers must not care).
#[test]
fn interleaved_sessions_match_fresh_service() {
    let config = WorkloadConfig::default().with_seed(11).with_entities(80);
    let scenario = workload::generate(&config);
    let shared = QueryService::for_scenario(&scenario, ServeOptions::default());
    let fresh = QueryService::for_scenario(&scenario, ServeOptions::default().without_caches());
    let m = ClientMix::default()
        .with_clients(4)
        .with_queries_per_client(8);
    let concurrent = drive(&m, |client, q| {
        // Every query on its own session: the service must not care.
        let mut session = shared.open_session();
        let out = session.execute(request_for(q));
        Arc::clone(
            out.rows()
                .unwrap_or_else(|| panic!("client {client}: {out:?}")),
        )
    });
    let baseline = replay(&m, |_, q| serve(&fresh, q));
    assert_eq!(concurrent.per_client, baseline.per_client);
    let metrics = shared.metrics();
    assert!(metrics.result_hits > 0, "shared caches were exercised");
    assert!(metrics.peak_concurrency >= 2, "clients actually overlapped");
}

/// The demo scenario's paper federation: hot query served from cache is
/// the same relation object, and stays correct after invalidation.
#[test]
fn paper_federation_cache_round_trip() {
    let scenario = polygen::catalog::scenario::build();
    let service = QueryService::for_scenario(&scenario, ServeOptions::default());
    let sql = "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS \
               WHERE CEO = ANAME AND ONAME IN \
               (SELECT ONAME FROM PCAREER WHERE AID# IN \
               (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"MBA\"))";
    let (cold, _) = serve_rows(&service, Request::sql(sql));
    let (warm, info) = serve_rows(&service, Request::sql(sql));
    assert!(info.result_hit);
    assert!(Arc::ptr_eq(&cold, &warm), "hit aliases, not clones");
    // Update AD (read by this plan): the next query recomputes the same
    // answer (the refresh is a no-op content-wise) under a new key.
    let ad = scenario.database("AD").unwrap();
    service.update_source_relations("AD", ad.relations.clone());
    let (recomputed, info) = serve_rows(&service, Request::sql(sql));
    assert!(!info.result_hit, "version bump forces re-execution");
    assert_eq!(*recomputed, *cold, "identical data → identical answer");
}
