//! Differential property tests for the secondary-index subsystem
//! (`polygen-index` + the pqp pushdown pass + snapshot maintenance).
//!
//! The guarantee under test: **indexes are invisible**. For random
//! federations, index declarations and predicates, a plan routed
//! through `IndexScan` probes produces answers *byte-identical* — data,
//! origin tags, intermediate tags, and tuple order — to the same query
//! with indexes disabled, across thread counts, and across a mid-run
//! source update in the serving layer (which rebuilds exactly the
//! updated source's indexes in the successor snapshot).
//!
//! CI runs this suite under both `POLYGEN_THREADS=1` and `=4`, so probe
//! emission feeds both the sequential and partition-parallel pipelines.

mod common;

use common::fixtures::{serve_rows, small_config};
use polygen::core::PolygenRelation;
use polygen::flat::relation::Relation;
use polygen::flat::value::Value;
use polygen::index::{IndexCatalog, IndexSpec};
use polygen::pqp::prelude::*;
use polygen::serve::prelude::*;
use polygen::sql::prelude::parse_algebra;
use polygen::workload::queries::{point_lookup, range_scan};
use polygen::workload::{self, drive, replay, ClientMix, MixWeights};
use proptest::prelude::*;
use std::sync::Arc;

/// The index set every test declares over the synthetic federation:
/// hash postings for detail point lookups, sorted postings for score
/// ranges.
fn detail_specs() -> Vec<IndexSpec> {
    vec![
        IndexSpec::hash("S0", "DETAIL", "DNAME"),
        IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
    ]
}

/// Serve one script query, reporting whether the plan routed.
fn serve(service: &QueryService, q: &Request) -> (Arc<PolygenRelation>, bool) {
    let (answer, info) = serve_rows(service, q.clone());
    (answer, info.index_routed)
}

/// A deterministic "upstream refresh" of S0: every DETAIL score shifts
/// by `delta` (mod the 0..100 space so range scans stay selective);
/// the entity relation is untouched.
fn refreshed_s0(scenario: &polygen::catalog::scenario::Scenario, delta: i64) -> Vec<Relation> {
    let db = scenario.database("S0").expect("S0 exists");
    db.relations
        .iter()
        .map(|rel| {
            if rel.name() != "DETAIL" {
                return rel.clone();
            }
            let attrs: Vec<&str> = rel.schema().attrs().iter().map(|a| a.as_ref()).collect();
            let mut b = Relation::build(rel.name(), &attrs).key(&["DID"]);
            for row in rel.rows() {
                let mut row = row.clone();
                if let Value::Int(v) = row[2] {
                    row[2] = Value::int((v + delta).rem_euclid(100));
                }
                b = b.vrow(row);
            }
            b.finish().expect("refreshed DETAIL rebuilds")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pqp-level: for random federations and predicates, routed plans
    /// return byte-identical relations (order included) to unindexed
    /// execution, sequentially and partition-parallel.
    #[test]
    fn indexed_plans_are_byte_identical_to_scans(
        fed_seed in any::<u64>(),
        entity in 0usize..120,
        lo in 0i64..90,
        width in 0i64..30,
    ) {
        let config = small_config(fed_seed, 3, 120);
        let scenario = workload::generate(&config);
        let exprs = [
            point_lookup(entity),
            point_lookup(9_999_999),                  // missing key
            range_scan(lo, lo + width),
            range_scan(lo + width, lo),               // empty range
            format!("PDETAIL [SCORE <> {lo}]"), // not sargable — stays a scan
            format!("PDETAIL [ENAME = \"{entity}\"]"), // probes a key that can't exist
        ];
        for threads in [1usize, 4] {
            let plain = Pqp::for_scenario(&scenario)
                .with_options(PqpOptions::default().with_threads(threads));
            let indexed = Pqp::for_scenario(&scenario)
                .with_options(PqpOptions::default().with_threads(threads));
            let catalog = Arc::new(
                IndexCatalog::build(&detail_specs(), indexed.registry(), indexed.dictionary())
                    .unwrap(),
            );
            let indexed = indexed.with_indexes(catalog);
            for expr in &exprs {
                let a = plain.query_algebra(expr).unwrap();
                let b = indexed.query_algebra(expr).unwrap();
                prop_assert_eq!(
                    a.answer.tuples(),
                    b.answer.tuples(),
                    "indexed diverged on `{}` (threads = {})",
                    expr,
                    threads
                );
            }
            // The sargable shapes really route (eligibility holds on
            // every generated federation).
            let point = indexed.compile(parse_algebra(&point_lookup(entity)).unwrap()).unwrap();
            prop_assert_eq!(point.physical.index_scans(), 1);
            let range = indexed.compile(parse_algebra(&range_scan(lo, lo + width)).unwrap()).unwrap();
            prop_assert_eq!(range.physical.index_scans(), 1);
            let ne = indexed
                .compile(parse_algebra(&format!("PDETAIL [SCORE <> {lo}]")).unwrap())
                .unwrap();
            prop_assert_eq!(ne.physical.index_scans(), 0, "`<>` must not route");
        }
    }

    /// Service-level: an indexed, cached, concurrent service returns
    /// byte-identical answers to an unindexed, uncached, sequential
    /// replay — including across a mid-run S0 refresh, which rebuilds
    /// S0's indexes in the successor snapshot.
    #[test]
    fn indexed_service_is_invisible_across_source_update(
        fed_seed in any::<u64>(),
        mix_seed in any::<u64>(),
        delta in 1i64..1_000,
    ) {
        let config = small_config(fed_seed, 3, 96);
        let scenario = workload::generate(&config);
        let indexed = QueryService::for_scenario(&scenario, ServeOptions::default())
            .with_index_specs(&detail_specs())
            .unwrap();
        let baseline =
            QueryService::for_scenario(&scenario, ServeOptions::default().without_caches());
        let mix = ClientMix::default()
            .with_seed(mix_seed)
            .with_clients(3)
            .with_queries_per_client(6)
            .with_entities(96)
            .with_weights(MixWeights::with_index_lookups(6, 4));
        let refreshed = refreshed_s0(&scenario, delta);

        let indexed_before = drive(&mix, |_, q| serve(&indexed, q));
        indexed.update_source_relations("S0", refreshed.clone());
        let indexed_after = drive(&mix, |_, q| serve(&indexed, q));

        let base_before = replay(&mix, |_, q| serve(&baseline, q).0);
        baseline.update_source_relations("S0", refreshed);
        let base_after = replay(&mix, |_, q| serve(&baseline, q).0);

        let mut routed = 0usize;
        for (phase, (got, want)) in [
            (indexed_before.per_client, base_before.per_client),
            (indexed_after.per_client, base_after.per_client),
        ]
        .into_iter()
        .enumerate()
        {
            for (c, (cc, ss)) in got.iter().zip(&want).enumerate() {
                for (i, ((a, r), b)) in cc.iter().zip(ss).enumerate() {
                    routed += usize::from(*r);
                    prop_assert_eq!(
                        &**a, &**b,
                        "phase {} client {} query {}: indexed service diverged",
                        phase, c, i
                    );
                }
            }
        }
        prop_assert!(routed > 0, "the mix never exercised an index route");
        prop_assert!(
            indexed.metrics().invalidated_results > 0,
            "the S0 bump invalidated nothing"
        );
    }
}

/// The snapshot pinned by an in-flight query keeps serving its own
/// index catalog even after an update swaps the head — and both
/// catalogs answer their own snapshot's data.
#[test]
fn pinned_snapshots_keep_their_catalogs() {
    let config = small_config(7, 3, 80);
    let scenario = workload::generate(&config);
    let service = QueryService::for_scenario(&scenario, ServeOptions::default())
        .with_index_specs(&detail_specs())
        .unwrap();
    let fed = service.federation();
    let pinned = fed.snapshot();
    service.update_source_relations("S0", refreshed_s0(&scenario, 13));
    let head = fed.snapshot();
    let pinned_idx = pinned.indexes().lookup("S0", "DETAIL", "DSCORE").unwrap();
    let head_idx = head.indexes().lookup("S0", "DETAIL", "DSCORE").unwrap();
    assert!(!Arc::ptr_eq(pinned_idx, head_idx), "S0 index was rebuilt");
    assert_eq!(
        pinned_idx.len(),
        head_idx.len(),
        "refresh shifts scores, not cardinality"
    );
    // Every query keeps routing after the update.
    let (_, info) = serve_rows(&service, Request::algebra(range_scan(20, 40)));
    assert!(info.index_routed);
}
