//! Property tests for the observation layer (`polygen-obs`).
//!
//! The contract under test is *observation without perturbation*:
//!
//! * Executing with an enabled trace recorder must be byte-identical to
//!   executing with a disabled one — same tuples, same order, same tags,
//!   same rejections — across thread counts — and every node's span
//!   must name the kernel its route chose.
//! * An enabled run's span tree must be well formed (every span closed,
//!   parents enclosing children), with exactly one executor span per
//!   physical node.
//! * A span's `partitions` note reports the dispatch the run took — the
//!   plan carries none.
//! * EXPLAIN ANALYZE's `act=` row counts are not estimates: they must
//!   equal the sizes of the `R(n)` the eager interpreter materializes
//!   for the rows the plan's nodes end at.
//! * The serving histograms' percentiles must agree with the exact
//!   order-statistics summary on identical samples, within the
//!   documented 2× power-of-two bucket resolution.

mod common;

use common::fixtures::{compile, same_error_kind, small_config};
use polygen::catalog::prelude::scenario;
use polygen::flat::value::Value;
use polygen::lqp::scenario_registry;
use polygen::obs::hist::Histogram;
use polygen::obs::summary::LatencySummary;
use polygen::obs::trace::Trace;
use polygen::pqp::prelude::*;
use polygen::sql::prelude::{parse_algebra, PAPER_EXPRESSION};
use polygen::workload;
use proptest::prelude::*;

/// The fixed expressions that together cover every physical operator
/// kind (scan, index-free pipelines, both hash joins, the nested-loop
/// θ, merge, anti-join, and all four set operators).
const COVERAGE_EXPRESSIONS: &[&str] = &[
    PAPER_EXPRESSION,
    "PCAREER [AID# < AID#] PCAREER",
    "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
    "((PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])) \
     MINUS (PALUMNUS [DEGREE = \"MBA\"])",
    "(PALUMNUS INTERSECT PALUMNUS) TIMES PFINANCE",
];

/// A span's `partitions` note is the run's: the plan carries no fan-out
/// (one cached plan runs at every thread allotment — the service
/// compiles once and runs at whatever admission grants), an operator
/// runs sequentially over an input below the executor's small-input
/// threshold, and a partitioned kernel that declines to split the data
/// it was handed reports that.
#[test]
fn partition_notes_report_the_run_not_the_plan() {
    let notes = |sc: &scenario::Scenario, expr: &str, span: &str, threads| {
        let registry = scenario_registry(sc);
        let plan = lower_plan(
            &compile(expr, sc.dictionary.schema()),
            &registry,
            &sc.dictionary,
        )
        .expect("lowers");
        let trace = Trace::enabled();
        let options = PqpOptions::default().with_threads(threads);
        execute_plan(&plan, &registry, &sc.dictionary, None, &options, &trace).expect("runs");
        let report = trace.report().expect("enabled recorder reports");
        let notes: Vec<Option<u64>> = report
            .spans_named(span)
            .map(|sp| sp.note_uint("partitions"))
            .collect();
        notes
    };
    let join_notes = |sc: &scenario::Scenario, expr: &str, threads: usize| {
        notes(sc, expr, "exec/HashJoin", threads)
    };
    // One plan, run at 4 threads and at 1 over 64 + 64 rows.
    let mut big = workload::generate(&small_config(5, 3, 64));
    let join = workload::queries::join_query(0);
    assert_eq!(join_notes(&big, &join, 4), vec![Some(4)]);
    assert_eq!(join_notes(&big, &join, 1), vec![None]);
    // At 4 threads over the paper's handful of rows: the kernel stayed
    // sequential, and the span says so.
    let paper = scenario::build();
    let tiny = "(PALUMNUS [ANAME = CEO] PORGANIZATION) [CEO, DEGREE]";
    assert_eq!(join_notes(&paper, tiny, 4), vec![None]);
    // Inputs well over the threshold that the kernels decline: an empty
    // probe side (no score reaches 1000) against the 64 merged entities,
    // then — after the data changes below — `Int`/`Float`-mixed join keys
    // and a duplicate merge key inside one operand.
    let empty_side = workload::queries::join_query(1000);
    assert_eq!(join_notes(&big, &empty_side, 4), vec![None]);
    let s0 = &mut big.databases[0].relations;
    let first = s0[0].rows()[0].clone();
    s0[0]
        .insert(vec![first[0].clone(), first[1].clone(), Value::Int(-1)])
        .expect("a second ENTITY_0 row under the same NAME_0");
    s0[1]
        .insert(vec![Value::Int(-1), first[0].clone(), Value::float(0.5)])
        .expect("a DETAIL row with a Float score");
    let mixed = "PDETAIL [SCORE = VALUE_0] PENTITY";
    assert_eq!(join_notes(&big, mixed, 4), vec![None]);
    assert_eq!(
        notes(&big, "PENTITY [ENAME, CATEGORY]", "exec/HashMerge", 4),
        vec![None]
    );
}

/// The `kernel` note a node's span carries for its route — the right
/// column of the table on `Route`, restated here as the oracle.
fn kernel_note(route: Route) -> Option<&'static str> {
    match route {
        Route::Batch => Some("batch"),
        Route::Rows { .. } => Some("row"),
        Route::JoinProject { .. } => Some("join+project"),
        Route::MergeStages { .. } => Some("merge+select"),
        Route::Leaf { .. } | Route::Pass { .. } | Route::Whole => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random expressions over random federations (plus one fixed leaf
    /// pipeline, so a batch node is always present), executed with the
    /// recorder off and on across thread counts: the answers must be
    /// byte-identical (tuple order included) and agree with the eager
    /// reference; rejections must agree in error kind. The enabled
    /// run's span tree must be well formed every time, and every node's
    /// span must show the executor obeying the plan: its `kernel` note
    /// is its route's.
    #[test]
    fn tracing_is_invisible_to_results(
        fed_seed in any::<u64>(),
        query_seed in any::<u64>(),
        depth in 1usize..4,
        sources in 2usize..5,
    ) {
        let config = small_config(fed_seed, sources, 50);
        let sc = workload::generate(&config);
        let random = workload::queries::random_expression(&config, query_seed, depth);
        let registry = scenario_registry(&sc);
        for expr in [random.to_string(), "PDETAIL [SCORE >= 30] [ENAME, SCORE]".to_string()] {
            let iom = compile(&expr, sc.dictionary.schema());
            let plan = lower_plan(&iom, &registry, &sc.dictionary);
            for threads in [1usize, 4] {
                let opts = PqpOptions {
                    threads,
                    partitions: threads,
                    ..PqpOptions::default()
                };
                let run = |trace: Trace| {
                    let plan = plan.as_ref().map_err(Clone::clone)?;
                    execute_plan(plan, &registry, &sc.dictionary, None, &opts, &trace)
                };
                let eager = execute_eager(&iom, &registry, &sc.dictionary, &opts);
                let off = run(Trace::disabled());
                let recorder = Trace::enabled();
                let on = run(recorder.clone());
                match (eager, off, on) {
                    (Ok((eager, _)), Ok(off), Ok(on)) => {
                        prop_assert_eq!(
                            off.tuples(),
                            on.tuples(),
                            "tracing changed the answer for `{}` (threads={})",
                            expr, threads
                        );
                        prop_assert!(
                            eager.tagged_set_eq(&on),
                            "traced run diverges from eager on `{}` (threads={})",
                            expr, threads
                        );
                        let report = recorder.report().expect("enabled recorder reports");
                        if let Err(e) = report.well_formed() {
                            panic!("malformed span tree for `{expr}` (threads={threads}): {e}");
                        }
                        let plan = plan.as_ref().expect("the plan ran");
                        for sp in report.spans.iter().filter(|sp| sp.name.starts_with("exec/")) {
                            let node = sp.note_uint("node").expect("node index") as usize;
                            let route = plan.route(node).expect("a routed node");
                            prop_assert_eq!(
                                sp.note_str("kernel"),
                                kernel_note(route),
                                "node #{} of `{}` ran against its route {:?} (threads={})",
                                node, expr, route, threads
                            );
                        }
                    }
                    (Err(ee), Err(oe), Err(ne)) => {
                        prop_assert!(
                            same_error_kind(&oe, &ne),
                            "tracing changed the rejection for `{}`: off {} vs on {}",
                            expr, oe, ne
                        );
                        prop_assert!(
                            same_error_kind(&ee, &ne),
                            "traced rejection diverges from eager for `{}`: {} vs {}",
                            expr, ee, ne
                        );
                    }
                    (eager, off, on) => {
                        panic!(
                            "engines disagree on success for `{expr}` \
                             (threads={threads}): eager {} / off {} / on {}",
                            eager.is_ok(),
                            off.is_ok(),
                            on.is_ok()
                        );
                    }
                }
            }
        }
    }

    /// The histogram's nearest-rank percentiles bracket the exact
    /// order-statistics answer on identical samples: never below it,
    /// never more than the 2× bucket width above it, with count and max
    /// exact.
    #[test]
    fn histogram_percentiles_match_exact_summary_within_bucket_resolution(
        samples in proptest::collection::vec(0u64..5_000_000, 1..300),
    ) {
        let hist = Histogram::new();
        for &s in &samples {
            hist.record_micros(s);
        }
        let snap = hist.snapshot();
        let exact = LatencySummary::from_micros(samples);
        prop_assert_eq!(snap.count(), exact.count() as u64);
        prop_assert_eq!(snap.max_micros(), exact.max_micros());
        for p in [0.50, 0.95, 0.99] {
            let e = exact.percentile_micros(p);
            let h = snap.percentile_micros(p);
            prop_assert!(
                h >= e,
                "histogram p{} reported below the true percentile: {} < {}",
                p * 100.0, h, e
            );
            prop_assert!(
                h <= e.saturating_mul(2),
                "histogram p{} overshot the 2x bucket resolution: {} > 2 x {}",
                p * 100.0, h, e
            );
        }
    }
}

/// Every coverage expression yields a well-formed span tree with exactly
/// one executor span per physical node, each annotated with its node
/// index and output row count.
#[test]
fn executor_records_one_span_per_node() {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s).with_options(PqpOptions {
        threads: 1,
        ..PqpOptions::default()
    });
    for expr in COVERAGE_EXPRESSIONS {
        let compiled = pqp.compile(parse_algebra(expr).unwrap()).unwrap();
        let trace = Trace::enabled();
        pqp.run_compiled_traced(&compiled, &trace).unwrap();
        let report = trace.report().expect("enabled recorder reports");
        report
            .well_formed()
            .unwrap_or_else(|e| panic!("malformed span tree for `{expr}`: {e}"));
        let node_spans: Vec<_> = report
            .spans
            .iter()
            .filter(|sp| sp.note_uint("node").is_some())
            .collect();
        assert_eq!(
            node_spans.len(),
            compiled.physical.nodes.len(),
            "one executor span per node for `{expr}`"
        );
        for sp in node_spans {
            assert!(
                sp.note_uint("rows").is_some(),
                "executor span without a row count for `{expr}`"
            );
        }
    }
}

/// EXPLAIN ANALYZE's `act=` side is measurement, not estimation: on the
/// fused production plan, at 4 threads, every node's reported row count
/// must equal the length of the eager interpreter's `R(n)` for the row
/// the node ends at, and the final node's count must equal the answer.
#[test]
fn analyze_row_counts_equal_materialized_sizes() {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(4));
    for expr in COVERAGE_EXPRESSIONS {
        let compiled = pqp.compile(parse_algebra(expr).unwrap()).unwrap();
        let trace = Trace::enabled();
        let answer = pqp.run_compiled_traced(&compiled, &trace).unwrap();
        let (_, exec_trace) = execute_eager(
            &compiled.iom,
            pqp.registry(),
            pqp.dictionary(),
            &pqp.options(),
        )
        .unwrap();
        let report = trace.report().expect("enabled recorder reports");
        let mut checked = 0;
        for sp in &report.spans {
            let (Some(node), Some(rows)) = (sp.note_uint("node"), sp.note_uint("rows")) else {
                continue;
            };
            let node = usize::try_from(node).unwrap();
            let pr = compiled.physical.nodes[node].row;
            let materialized = exec_trace
                .result(pr)
                .unwrap_or_else(|| panic!("eager computed no R({pr}) for `{expr}`"))
                .len();
            assert_eq!(
                rows as usize, materialized,
                "act rows diverge from materialized R({pr}) on `{expr}`"
            );
            checked += 1;
        }
        assert_eq!(
            checked,
            compiled.physical.nodes.len(),
            "every node checked for `{expr}`"
        );
        let last = compiled.physical.nodes.last().unwrap().row;
        assert_eq!(
            exec_trace.result(last).unwrap().len(),
            answer.len(),
            "final node is the answer for `{expr}`"
        );
    }
}

/// The rendered EXPLAIN ANALYZE agrees with itself: the row counts in
/// the `act=` column are exactly the ones a fresh traced run measures —
/// rendering reads the spans, it does not re-execute.
#[test]
fn rendered_analyze_matches_span_row_counts() {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s).with_options(PqpOptions {
        threads: 1,
        ..PqpOptions::default()
    });
    let compiled = pqp
        .compile(parse_algebra(PAPER_EXPRESSION).unwrap())
        .unwrap();
    let trace = Trace::enabled();
    pqp.run_compiled_traced(&compiled, &trace).unwrap();
    let report = trace.report().unwrap();
    let rendered = render_analyzed_plan(&compiled.physical, &report);
    for sp in &report.spans {
        let (Some(_), Some(rows)) = (sp.note_uint("node"), sp.note_uint("rows")) else {
            continue;
        };
        assert!(
            rendered.contains(&format!(" {rows} rows)")),
            "rendered analyze lost a measured row count ({rows}):\n{rendered}"
        );
    }
    assert!(
        !rendered.contains("act=(not executed)"),
        "a fully executed plan must report actuals on every line:\n{rendered}"
    );
}
