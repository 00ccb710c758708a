//! Differential property tests for columnar batch execution with late
//! tag materialization.
//!
//! The guarantee under test: **the batch kernels are invisible**. The
//! plan alone decides which pipelines run on `ColumnBatch`
//! (`PhysicalPlan::is_batch_pipeline`: eligible stages over a leaf), so
//! the reference is not a switch but the eager reference interpreter —
//! leaves tagged eagerly, every row on the reference algebra. For random
//! federations, policies and thread counts the production run must be
//! *byte-identical* to it — data, origin tags, intermediate tags, and
//! tuple order; rejections must agree in error kind.
//! The same holds through index-routed probes (batch ordinals) and
//! across a mid-run source update in the serving layer.

mod common;

use common::fixtures::{
    assert_batch_matches, conflicted_config, run_algebra, serve_rows, small_config,
};
use polygen::catalog::prelude::scenario;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::core::batch::ColumnBatch;
use polygen::core::stream::TupleStream;
use polygen::core::{Cell, PolygenRelation, SourceId};
use polygen::flat::value::Cmp;
use polygen::flat::{Schema, Value};
use polygen::index::IndexSpec;
use polygen::pqp::prelude::*;
use polygen::serve::prelude::*;
use polygen::sql::prelude::{parse_algebra, PAPER_EXPRESSION};
use polygen::workload::queries::{point_lookup, range_scan};
use polygen::workload::{self, replay, ClientMix, MixWeights};
use proptest::prelude::*;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// A three-column tagged relation with deliberately mixed value types:
/// `K` drawn from a tiny space (Int, occasionally Float or nil, so
/// typed columns fall back to the mixed representation), `V` always
/// Int, `NAME` a short string. Every cell originates from `source`.
fn mixed_relation(name: &str, source: u16, rows: &[(Option<i64>, i64, bool)]) -> PolygenRelation {
    let schema = Arc::new(Schema::new(name, &["K", "V", "NAME"]).unwrap());
    let tuples = rows
        .iter()
        .map(|(key, value, float_key)| {
            let k = match key {
                None => Value::Null,
                Some(k) if *float_key => Value::float(*k as f64),
                Some(k) => Value::int(*k),
            };
            vec![
                Cell::retrieved(k, SourceId(source)),
                Cell::retrieved(Value::int(*value), SourceId(source)),
                Cell::retrieved(Value::str(format!("N{}", value % 4)), SourceId(source)),
            ]
        })
        .collect();
    PolygenRelation::from_tuples(schema, tuples).unwrap()
}

type MixedRows = Vec<(Option<i64>, i64, bool)>;

fn mixed_rows() -> impl Strategy<Value = MixedRows> {
    proptest::collection::vec(
        (
            prop_oneof![
                (0i64..6).prop_map(Some),
                (0i64..6).prop_map(Some),
                (0i64..6).prop_map(Some),
                Just(None),
            ],
            0i64..100,
            prop_oneof![
                Just(false),
                Just(false),
                Just(false),
                Just(false),
                Just(true)
            ],
        ),
        0..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random expressions over random federations, across thread counts:
    /// batch = row (byte-identical) = eager (tag-set-equal), or all
    /// three reject with the same error kind.
    #[test]
    fn batch_matches_row_and_eager(
        fed_seed in any::<u64>(),
        query_seed in any::<u64>(),
        depth in 1usize..4,
        sources in 2usize..5,
        tidx in 0usize..THREAD_COUNTS.len(),
    ) {
        // ≥ 64 entities so parallel legs chunk batches for real.
        let config = small_config(fed_seed, sources, 64);
        let sc = workload::generate(&config);
        let expr = workload::queries::random_expression(&config, query_seed, depth);
        assert_batch_matches(&sc, &expr.to_string(), ConflictPolicy::Strict, THREAD_COUNTS[tidx]);
    }

    /// Conflicting federations under every policy: batch pipelines feed
    /// the merge exactly what the row engine would, and `Strict`
    /// rejections agree in kind across all three engines.
    #[test]
    fn batch_agrees_under_conflict_policies(
        fed_seed in any::<u64>(),
        sources in 2usize..5,
        policy_idx in 0usize..3,
        tidx in 0usize..THREAD_COUNTS.len(),
    ) {
        let sc = workload::generate(&conflicted_config(fed_seed, sources, 64));
        let policy = [
            ConflictPolicy::Strict,
            ConflictPolicy::PreferLeft,
            ConflictPolicy::PreferRight,
        ][policy_idx];
        let threads = THREAD_COUNTS[tidx];
        assert_batch_matches(&sc, "PENTITY [ENAME, CATEGORY]", policy, threads);
        assert_batch_matches(&sc, "PENTITY [CATEGORY = \"C0\"]", policy, threads);
    }

    /// Kernel-level: a select→restrict→project chain on `ColumnBatch`
    /// (late tags applied at emission, duplicates collapsed once) equals
    /// the `TupleStream` walk (tags applied per stage) byte-for-byte on
    /// arbitrary operands — nils, duplicate keys and Int/Float-mixed
    /// columns included.
    #[test]
    fn batch_kernels_match_stream_kernels(
        rows in mixed_rows(),
        threshold in 0i64..100,
        cmp_idx in 0usize..4,
    ) {
        let rel = mixed_relation("M", 0, &rows);
        let cmp = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Ge][cmp_idx];

        let mut stream = TupleStream::from_relation(rel.clone());
        stream.select("V", cmp, &Value::int(threshold)).unwrap();
        stream.restrict("K", Cmp::Le, "V").unwrap();
        stream.project(&["NAME", "K"]).unwrap();
        let row_out = stream.into_relation();

        let mut batch = ColumnBatch::from_relation(rel);
        batch.select("V", cmp, &Value::int(threshold)).unwrap();
        batch.restrict("K", Cmp::Le, "V").unwrap();
        batch.project(&["NAME", "K"]).unwrap();
        let mut batch_out = batch.into_relation();
        batch_out.merge_duplicates();

        prop_assert_eq!(row_out.schema().attrs(), batch_out.schema().attrs());
        prop_assert_eq!(row_out.tuples(), batch_out.tuples(), "order included");
    }
}

/// The paper's own pipeline: batch = row = eager across thread counts.
#[test]
fn paper_query_is_identical_under_batch_execution() {
    let s = scenario::build();
    for threads in THREAD_COUNTS {
        assert_batch_matches(&s, PAPER_EXPRESSION, ConflictPolicy::Strict, threads);
    }
}

/// Shapes around the batch path's edges: shared leaves, set operations,
/// θ fallback, lone projects, empty results — and two leaf pipelines
/// with several survivors, so emission order is under test.
#[test]
fn edge_shapes_agree_under_batch_execution() {
    let s = scenario::build();
    for expr in [
        "(PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])",
        "PALUMNUS MINUS (PALUMNUS [DEGREE = \"MBA\"])",
        "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
        "PCAREER [AID# < AID#] PCAREER",
        "PCAREER [AID# = ONAME] [AID#, POSITION]",
        "PALUMNUS [DEGREE = \"NOPE\"] [ANAME]",
        "PALUMNUS [ANAME]",
        "PALUMNUS [DEGREE = \"MBA\"] [ANAME]",
        "PALUMNUS [DEGREE = \"MBA\"] [MAJOR = \"IS\"]",
    ] {
        for threads in THREAD_COUNTS {
            assert_batch_matches(&s, expr, ConflictPolicy::Strict, threads);
        }
    }
}

/// Index-routed plans: the probe hands the pipeline a gathered batch
/// (ordinals, not a relation), and the answer stays byte-identical to
/// the eager interpreter's full-scan run of the same IOM.
#[test]
fn indexed_probes_feed_batches_byte_identically() {
    let config = small_config(0xbead, 3, 120);
    let scenario = workload::generate(&config);
    let specs = [
        IndexSpec::hash("S0", "DETAIL", "DNAME"),
        IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
    ];
    for threads in THREAD_COUNTS {
        let pqp =
            Pqp::for_scenario(&scenario).with_options(PqpOptions::default().with_threads(threads));
        let catalog =
            Arc::new(IndexCatalog::build(&specs, pqp.registry(), pqp.dictionary()).unwrap());
        let pqp = pqp.with_indexes(Arc::clone(&catalog));
        for expr in [
            point_lookup(17),
            point_lookup(9_999_999),
            range_scan(20, 60),
            range_scan(60, 20),
            "PDETAIL [SCORE >= 30] [ENAME, SCORE]".to_string(),
        ] {
            let (compiled, answer) = run_algebra(&pqp, &expr).unwrap();
            assert!(
                compiled.physical.index_scans() > 0 || expr.contains(">= 30"),
                "probe shapes must route: `{expr}`"
            );
            let (eager, _) = execute_eager(
                &compiled.iom,
                pqp.registry(),
                pqp.dictionary(),
                &pqp.options(),
            )
            .unwrap();
            assert_eq!(
                eager.tuples(),
                answer.tuples(),
                "batch diverged on routed `{expr}` (threads = {threads})"
            );
        }
    }
}

/// Service-level: an indexed, cached service — whose point and range
/// pipelines run on the batch kernels — returns byte-identical answers
/// to the eager interpreter (full scans, eager tags, the reference
/// algebra) across a mid-run source update, which swaps snapshots and
/// rebuilds the updated source's indexes under it.
#[test]
fn batch_service_is_invisible_across_source_update() {
    let config = small_config(0xcafe, 3, 96);
    let scenario = workload::generate(&config);
    let specs = [
        IndexSpec::hash("S0", "DETAIL", "DNAME"),
        IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
    ];
    let service = QueryService::for_scenario(&scenario, ServeOptions::default())
        .with_index_specs(&specs)
        .unwrap();
    let mix = ClientMix::default()
        .with_seed(0xfeed)
        .with_clients(3)
        .with_queries_per_client(6)
        .with_entities(96)
        .with_weights(MixWeights::with_index_lookups(6, 4));
    // A deterministic upstream refresh: shift every DETAIL score.
    let mut refreshed = scenario.clone();
    let s0 = refreshed
        .databases
        .iter_mut()
        .find(|d| d.name == "S0")
        .expect("S0 exists");
    for rel in &mut s0.relations {
        if rel.name() != "DETAIL" {
            continue;
        }
        let attrs: Vec<&str> = rel.schema().attrs().iter().map(|a| a.as_ref()).collect();
        let mut b = polygen::flat::relation::Relation::build(rel.name(), &attrs).key(&["DID"]);
        for row in rel.rows() {
            let mut row = row.clone();
            if let Value::Int(v) = row[2] {
                row[2] = Value::int((v + 37).rem_euclid(100));
            }
            b = b.vrow(row);
        }
        *rel = b.finish().expect("refreshed DETAIL rebuilds");
    }
    for (phase, sc) in [&scenario, &refreshed].into_iter().enumerate() {
        if phase == 1 {
            let s0 = sc.database("S0").expect("S0 exists");
            service.update_source_relations("S0", s0.relations.clone());
        }
        let reference = Pqp::for_scenario(sc);
        let eager = |q: &Request| {
            let expr = match q.lang {
                Lang::Sql => reference.translate_sql(&q.text)?,
                Lang::Algebra => parse_algebra(&q.text)?,
                Lang::App => panic!("scripts carry no application SQL"),
            };
            let compiled = reference.compile(expr)?;
            execute_eager(
                &compiled.iom,
                reference.registry(),
                reference.dictionary(),
                &reference.options(),
            )
        };
        replay(&mix, |c, q| {
            let (got, _) = serve_rows(&service, q.clone());
            let (want, _) =
                eager(q).unwrap_or_else(|e| panic!("eager run of `{}` failed: {e}", q.text));
            assert_eq!(
                got.tuples(),
                want.tuples(),
                "phase {phase} client {c} query `{}`: service diverged from the eager reference",
                q.text
            );
        });
    }
}
