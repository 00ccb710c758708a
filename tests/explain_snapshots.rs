//! Golden EXPLAIN snapshots: `render_plan` output for every physical
//! operator kind (Scan, fused pipeline stages, HashJoin, ThetaJoin,
//! HashMerge, AntiJoin, Union, Difference, Intersect, Product), plus the
//! invariant that the plan text never depends on the thread count.
//!
//! These are exact-string comparisons on purpose: the plan printer is the
//! engine's public diagnostic surface, and a silent format drift should
//! be caught in review (by editing the expected text here) rather than by
//! users' tooling. If you change `render_plan`, update the snapshots and
//! say so in the PR.

mod common;

use polygen::catalog::prelude::scenario;
use polygen::index::{IndexCatalog, IndexSpec};
use polygen::lqp::scenario_registry;
use polygen::obs::trace::Trace;
use polygen::pqp::prelude::*;
use polygen::sql::prelude::{parse_algebra, AlgebraExpr, PAPER_EXPRESSION};
use std::sync::Arc;

/// Lower `expr` over the MIT scenario and render the physical plan.
fn plan_text(expr: &str) -> String {
    let s = scenario::build();
    let registry = scenario_registry(&s);
    let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
    let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
    render_plan(&lower_plan(&iom, &registry, &s.dictionary).unwrap())
}

/// The same with secondary indexes declared: lower, run the pushdown
/// pass, render.
fn indexed_plan_text(expr: &str, specs: &[IndexSpec]) -> String {
    let s = scenario::build();
    let registry = scenario_registry(&s);
    let catalog = IndexCatalog::build(specs, &registry, &s.dictionary).unwrap();
    let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
    let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
    let mut plan = lower_plan(&iom, &registry, &s.dictionary).unwrap();
    route_index_scans(&mut plan, &catalog);
    render_plan(&plan)
}

/// EXPLAIN ANALYZE over the MIT scenario, serial, with the measured
/// microsecond readings masked to `_`. Row counts and node order are
/// deterministic and stay verbatim; only the wall-clock side of `act=`
/// varies run to run.
fn analyzed_text(expr: &str, specs: &[IndexSpec]) -> String {
    analyzed_text_at(&scenario::build(), expr, specs, 1)
}

/// [`analyzed_text`] over any scenario at any thread count.
fn analyzed_text_at(
    s: &scenario::Scenario,
    expr: &str,
    specs: &[IndexSpec],
    threads: usize,
) -> String {
    let mut pqp = Pqp::for_scenario(s).with_options(PqpOptions::default().with_threads(threads));
    if !specs.is_empty() {
        let registry = scenario_registry(s);
        let catalog = IndexCatalog::build(specs, &registry, &s.dictionary).unwrap();
        pqp = pqp.with_indexes(Arc::new(catalog));
    }
    let compiled = pqp.compile(parse_algebra(expr).unwrap()).unwrap();
    let trace = Trace::enabled();
    pqp.run_compiled_traced(&compiled, &trace).unwrap();
    let report = trace.report().unwrap_or_default();
    mask_act_micros(&render_analyzed_plan(&compiled.physical, &report))
}

/// Replace the digit run right after `marker` with `_`, if any.
fn mask_after(line: &str, marker: &str) -> String {
    let Some(pos) = line.find(marker) else {
        return line.to_string();
    };
    let tail = pos + marker.len();
    let end = line[tail..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(line.len(), |d| tail + d);
    if end == tail {
        return line.to_string();
    }
    format!("{}_{}", &line[..tail], &line[end..])
}

/// Mask the measured (nondeterministic) microsecond numbers in an
/// EXPLAIN ANALYZE rendering: `act=(NN µs` → `act=(_ µs` and
/// `executed in NN µs` → `executed in _ µs`.
fn mask_act_micros(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        out.push_str(&mask_after(&mask_after(line, "act=("), "executed in "));
        out.push('\n');
    }
    out
}

#[track_caller]
fn assert_snapshot(actual: &str, expected: &str) {
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "\n== plan printer drifted ==\nactual:\n{actual}\nexpected:\n{expected}"
    );
}

/// Scan (with and without pushed-down selects), HashJoin, HashMerge and a
/// fused pipeline — the paper's own plan, serial.
#[test]
fn paper_plan_fused_serial() {
    assert_snapshot(
        &plan_text(PAPER_EXPRESSION),
        "\
#0  Scan[AD] ALUMNUS[DEG = MBA]  → R(1)
#1  Scan[AD] CAREER  → R(2)
#2  HashJoin[R(1).AID# = R(2).AID#, coalesce → AID#] (build R(2), probe R(1))  → R(3)
#3  Scan[AD] BUSINESS  → R(4)
#4  Scan[PD] CORPORATION  → R(5)
#5  Scan[CD] FIRM  → R(6)
#6  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(4), R(5), R(6)  → R(7)
#7  HashJoin[R(3).BNAME = R(7).ONAME, coalesce → ONAME] (build R(7), probe R(3))  → R(8)
#8  Pipeline over R(8) → Restrict[CEO = ANAME]@R(9) → Project[ONAME, CEO]@R(10) (fused ×2)  → R(10) ◀ answer",
    );
}

/// Lower `expr` through a [`Pqp`] configured for `threads` and render it.
fn lowered_at(expr: &str, threads: usize) -> String {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(threads));
    render_plan(&pqp.compile(parse_algebra(expr).unwrap()).unwrap().physical)
}

/// Lowering reads no parallelism: the paper plan compiled at 4 threads
/// is the serial golden above byte for byte. How many partitions a node
/// ran at is a fact of the run, shown by EXPLAIN ANALYZE
/// (`analyzed_join_reports_the_fan_out_it_ran_at`).
#[test]
fn paper_plan_fused_partitioned_x4() {
    assert_snapshot(
        &lowered_at(PAPER_EXPRESSION, 4),
        &plan_text(PAPER_EXPRESSION),
    );
}

/// A non-equality θ lowers to the nested-loop join, and a 4-thread
/// lowering prints it exactly as the serial one does: no annotation.
#[test]
fn theta_join_stays_serial_under_partitioning() {
    let expr = "PCAREER [AID# < AID#] PCAREER";
    let golden = "\
#0  Scan[AD] CAREER  → R(1)
#1  Scan[AD] CAREER  → R(2)
#2  NestedLoopJoin[R(2).AID# < R(1).AID#]  → R(3) ◀ answer";
    assert_snapshot(&plan_text(expr), golden);
    assert_snapshot(&lowered_at(expr, 4), golden);
}

/// The plan text and its fingerprint are the same at every thread
/// count: neither may claim a fan-out the run decides.
#[test]
fn compiled_plan_is_identical_at_every_thread_count() {
    let s = scenario::build();
    let at = |threads: usize| {
        let pqp = Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(threads));
        let physical = pqp
            .compile(parse_algebra(PAPER_EXPRESSION).unwrap())
            .unwrap()
            .physical;
        (render_plan(&physical), physical.fingerprint())
    };
    let serial = at(1);
    for threads in [2, 4, 8] {
        assert_eq!(at(threads), serial, "threads = {threads}");
    }
}

/// AntiJoin feeding a lone-Project pipeline, over a merge.
#[test]
fn antijoin_plan_serial() {
    assert_snapshot(
        &plan_text("(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]"),
        "\
#0  Scan[AD] BUSINESS  → R(1)
#1  Scan[PD] CORPORATION  → R(2)
#2  Scan[CD] FIRM  → R(3)
#3  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(1), R(2), R(3)  → R(4)
#4  Scan[CD] FINANCE  → R(5)
#5  AntiJoin[R(4).ONAME = R(5).FNAME]  → R(6)
#6  Pipeline over R(6) → Project[ONAME]@R(7)  → R(7) ◀ answer",
    );
}

/// Union and Difference.
#[test]
fn set_ops_plan_serial() {
    assert_snapshot(
        &plan_text(
            "((PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])) \
             MINUS (PALUMNUS [DEGREE = \"MBA\"])",
        ),
        "\
#0  Scan[AD] ALUMNUS[DEG = MBA]  → R(1)
#1  Scan[AD] ALUMNUS[DEG = MS]  → R(2)
#2  Union[R(1), R(2)]  → R(3)
#3  Scan[AD] ALUMNUS[DEG = MBA]  → R(4)
#4  Difference[R(3), R(4)]  → R(5) ◀ answer",
    );
}

/// Index routing, chosen: the paper plan's MBA select rides the hash
/// index; everything else (scans, joins, merge, fused pipeline) is
/// untouched.
#[test]
fn paper_plan_with_deg_index_routes_the_select() {
    let plan = indexed_plan_text(PAPER_EXPRESSION, &[IndexSpec::hash("AD", "ALUMNUS", "DEG")]);
    assert_snapshot(
        &plan,
        "\
#0  IndexScan[AD] ALUMNUS [ixscan AD.DEG = MBA] (hash)  → R(1)
#1  Scan[AD] CAREER  → R(2)
#2  HashJoin[R(1).AID# = R(2).AID#, coalesce → AID#] (build R(2), probe R(1))  → R(3)
#3  Scan[AD] BUSINESS  → R(4)
#4  Scan[PD] CORPORATION  → R(5)
#5  Scan[CD] FIRM  → R(6)
#6  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(4), R(5), R(6)  → R(7)
#7  HashJoin[R(3).BNAME = R(7).ONAME, coalesce → ONAME] (build R(7), probe R(3))  → R(8)
#8  Pipeline over R(8) → Restrict[CEO = ANAME]@R(9) → Project[ONAME, CEO]@R(10) (fused ×2)  → R(10) ◀ answer",
    );
}

/// Index routing, rejected: `<>` is not sargable and a range θ cannot
/// ride hash postings — both keep the full scan.
#[test]
fn ineligible_predicates_keep_scanning() {
    let ne = indexed_plan_text(
        "PALUMNUS [DEGREE <> \"MBA\"]",
        &[IndexSpec::hash("AD", "ALUMNUS", "DEG")],
    );
    assert_snapshot(
        &ne,
        "\
#0  Scan[AD] ALUMNUS[DEG <> MBA]  → R(1) ◀ answer",
    );
    let range = indexed_plan_text(
        "PALUMNUS [DEGREE > \"MBA\"]",
        &[IndexSpec::hash("AD", "ALUMNUS", "DEG")],
    );
    assert_snapshot(
        &range,
        "\
#0  Scan[AD] ALUMNUS[DEG > MBA]  → R(1) ◀ answer",
    );
}

/// Index routing with a residual predicate: the between's two conjuncts
/// fold into one sorted-range probe, and the second conjunct stays in
/// the pipeline re-checking itself over the narrowed input.
#[test]
fn between_folds_into_a_range_probe_with_residual() {
    let plan = indexed_plan_text(
        "PALUMNUS [AID# >= \"200\"] [AID# <= \"600\"]",
        &[IndexSpec::sorted("AD", "ALUMNUS", "AID#")],
    );
    assert_snapshot(
        &plan,
        "\
#0  IndexScan[AD] ALUMNUS [ixscan 200 <= AD.AID# <= 600] (sorted)  → R(1)
#1  Pipeline over R(1) → Select[AID# <= 600]@R(2) [batch]  → R(2) ◀ answer",
    );
}

/// Columnar annotation, chosen: a stage chain directly over a
/// lone-consumer Scan leaf is batch-eligible (the restrict itself folds
/// into the scan descriptor, the trailing Project runs columnar), and
/// EXPLAIN says so with `[batch]`. The marker is the routing itself:
/// the executor reads the same `Route::Batch`, so a marked node runs on
/// `ColumnBatch`.
#[test]
fn eligible_leaf_pipeline_announces_batch() {
    assert_snapshot(
        &plan_text("PCAREER [AID# = ONAME] [AID#, POSITION]"),
        "\
#0  Scan[AD] CAREER[AID# = BNAME]  → R(1)
#1  Pipeline over R(1) → Project[AID#, POSITION]@R(2) [batch]  → R(2) ◀ answer",
    );
}

/// Columnar annotation, rejected: the paper plan's final pipeline reads
/// a HashJoin (an interior node, already `Arc`-shared streams), so it
/// stays on the row engine and renders without the `[batch]` marker —
/// see `paper_plan_fused_serial` above.
#[test]
fn interior_pipeline_stays_on_the_row_engine() {
    let shown = plan_text(PAPER_EXPRESSION);
    assert!(
        !shown.contains("[batch]"),
        "interior pipelines must not claim the columnar path:\n{shown}"
    );
}

/// EXPLAIN ANALYZE, the paper plan: every line carries the measured
/// `act=`, and the actual row counts are the materialized `R(n)` sizes
/// from the golden tables (5 MBA alumni, 13 career rows, 9 merged
/// organizations, the 1-row answer).
#[test]
fn analyzed_paper_plan_reports_est_and_act() {
    assert_snapshot(
        &analyzed_text(PAPER_EXPRESSION, &[]),
        "\
#0  Scan[AD] ALUMNUS[DEG = MBA]  → R(1)  act=(_ µs, 5 rows)
#1  Scan[AD] CAREER  → R(2)  act=(_ µs, 9 rows)
#2  HashJoin[R(1).AID# = R(2).AID#, coalesce → AID#] (build R(2), probe R(1))  → R(3)  act=(_ µs, 6 rows)
#3  Scan[AD] BUSINESS  → R(4)  act=(_ µs, 9 rows)
#4  Scan[PD] CORPORATION  → R(5)  act=(_ µs, 7 rows)
#5  Scan[CD] FIRM  → R(6)  act=(_ µs, 10 rows)
#6  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(4), R(5), R(6)  → R(7)  act=(_ µs, 12 rows)
#7  HashJoin[R(3).BNAME = R(7).ONAME, coalesce → ONAME] (build R(7), probe R(3))  → R(8)  act=(_ µs, 6 rows)
#8  Pipeline over R(8) → Restrict[CEO = ANAME]@R(9) → Project[ONAME, CEO]@R(10) (fused ×2)  → R(10) ◀ answer  act=(_ µs, 3 rows)
(executed in _ µs)",
    );
}

/// EXPLAIN ANALYZE over the nested-loop θ-join.
#[test]
fn analyzed_theta_join() {
    assert_snapshot(
        &analyzed_text("PCAREER [AID# < AID#] PCAREER", &[]),
        "\
#0  Scan[AD] CAREER  → R(1)  act=(_ µs, 9 rows)
#1  Scan[AD] CAREER  → R(2)  act=(_ µs, 9 rows)
#2  NestedLoopJoin[R(2).AID# < R(1).AID#]  → R(3) ◀ answer  act=(_ µs, 35 rows)
(executed in _ µs)",
    );
}

/// EXPLAIN ANALYZE over AntiJoin + merge + lone-Project pipeline.
#[test]
fn analyzed_antijoin() {
    assert_snapshot(
        &analyzed_text(
            "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
            &[],
        ),
        "\
#0  Scan[AD] BUSINESS  → R(1)  act=(_ µs, 9 rows)
#1  Scan[PD] CORPORATION  → R(2)  act=(_ µs, 7 rows)
#2  Scan[CD] FIRM  → R(3)  act=(_ µs, 10 rows)
#3  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(1), R(2), R(3)  → R(4)  act=(_ µs, 12 rows)
#4  Scan[CD] FINANCE  → R(5)  act=(_ µs, 10 rows)
#5  AntiJoin[R(4).ONAME = R(5).FNAME]  → R(6)  act=(_ µs, 2 rows)
#6  Pipeline over R(6) → Project[ONAME]@R(7)  → R(7) ◀ answer  act=(_ µs, 2 rows)
(executed in _ µs)",
    );
}

/// EXPLAIN ANALYZE over Union and Difference.
#[test]
fn analyzed_set_ops() {
    assert_snapshot(
        &analyzed_text(
            "((PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])) \
             MINUS (PALUMNUS [DEGREE = \"MBA\"])",
            &[],
        ),
        "\
#0  Scan[AD] ALUMNUS[DEG = MBA]  → R(1)  act=(_ µs, 5 rows)
#1  Scan[AD] ALUMNUS[DEG = MS]  → R(2)  act=(_ µs, 1 rows)
#2  Union[R(1), R(2)]  → R(3)  act=(_ µs, 6 rows)
#3  Scan[AD] ALUMNUS[DEG = MBA]  → R(4)  act=(_ µs, 5 rows)
#4  Difference[R(3), R(4)]  → R(5) ◀ answer  act=(_ µs, 1 rows)
(executed in _ µs)",
    );
}

/// EXPLAIN ANALYZE over Intersect and Product.
#[test]
fn analyzed_intersect_and_product() {
    assert_snapshot(
        &analyzed_text("(PALUMNUS INTERSECT PALUMNUS) TIMES PFINANCE", &[]),
        "\
#0  Scan[AD] ALUMNUS  → R(1)  act=(_ µs, 8 rows)
#1  Scan[AD] ALUMNUS  → R(2)  act=(_ µs, 8 rows)
#2  Intersect[R(2), R(1)]  → R(3)  act=(_ µs, 8 rows)
#3  Scan[CD] FINANCE  → R(4)  act=(_ µs, 10 rows)
#4  Product[R(3), R(4)]  → R(5) ◀ answer  act=(_ µs, 80 rows)
(executed in _ µs)",
    );
}

/// EXPLAIN ANALYZE over an IndexScan probe: the routed plan executes and
/// the probe reports its actual posting-list hit count.
#[test]
fn analyzed_index_scan() {
    assert_snapshot(
        &analyzed_text(
            "PALUMNUS [DEGREE = \"MBA\"]",
            &[IndexSpec::hash("AD", "ALUMNUS", "DEG")],
        ),
        "\
#0  IndexScan[AD] ALUMNUS [ixscan AD.DEG = MBA] (hash)  → R(1) ◀ answer  act=(_ µs, 5 rows)
(executed in _ µs)",
    );
}

/// EXPLAIN ANALYZE reports the fan-out a node ran at, where it is true:
/// at 4 threads the join of 64 merged entities with their detail rows
/// runs split four ways and its `act=` says `x4`, while the paper query's handful of rows stays under
/// the executor's small-input threshold, so no line claims a partition
/// count.
#[test]
fn analyzed_join_reports_the_fan_out_it_ran_at() {
    let big = polygen::workload::generate(&common::fixtures::small_config(5, 3, 64));
    let join = polygen::workload::queries::join_query(0);
    let text = analyzed_text_at(&big, &join, &[], 4);
    let join_line = text
        .lines()
        .find(|l| l.contains("HashJoin["))
        .unwrap_or_else(|| panic!("no HashJoin line:\n{text}"));
    assert!(
        join_line.ends_with(" rows, x4)"),
        "the join ran x4:\n{text}"
    );
    let paper = analyzed_text_at(&scenario::build(), PAPER_EXPRESSION, &[], 4);
    assert!(
        !paper.contains(" x4"),
        "nothing in the paper query fans out:\n{paper}"
    );
    assert_snapshot(&paper, &analyzed_text(PAPER_EXPRESSION, &[]));
}

/// Intersect and Product.
#[test]
fn intersect_and_product_plan_serial() {
    assert_snapshot(
        &plan_text("(PALUMNUS INTERSECT PALUMNUS) TIMES PFINANCE"),
        "\
#0  Scan[AD] ALUMNUS  → R(1)
#1  Scan[AD] ALUMNUS  → R(2)
#2  Intersect[R(2), R(1)]  → R(3)
#3  Scan[CD] FINANCE  → R(4)
#4  Product[R(3), R(4)]  → R(5) ◀ answer",
    );
}

/// Every HashJoin of a plan routed to run its consumer's leading
/// Project inside its emit, with that Project's columns.
fn fused_pairs(plan: &PhysicalPlan) -> Vec<(usize, Vec<String>)> {
    (0..plan.nodes.len())
        .filter_map(|i| {
            let Some(Route::JoinProject { consumer }) = plan.route(i) else {
                return None;
            };
            let PhysOp::Pipeline { input, stages } = &plan.nodes[consumer].op else {
                panic!("node #{i}'s consumer #{consumer} is not a pipeline");
            };
            assert_eq!(*input, i);
            match &stages[0].kind {
                StageKind::Project { cols, .. } => Some((i, cols.clone())),
                other => panic!("node #{i}'s consumer opens with {other:?}"),
            }
        })
        .collect()
}

/// The plan's shape alone decides which joins run their consumer's
/// Project: a HashJoin whose only consumer is a pipeline opening with
/// Project. Neither a join at the root nor one under a Select before
/// the Project fuses, and a join feeding two consumers is no plan.
#[test]
fn fused_join_project_follows_the_plan_shape() {
    let big = polygen::workload::generate(&common::fixtures::small_config(5, 3, 64));
    let pqp = Pqp::for_scenario(&big);
    let physical = |expr: AlgebraExpr| pqp.compile(expr).unwrap().physical;
    let join = physical(parse_algebra(&polygen::workload::queries::join_query(0)).unwrap());
    let cols = vec!["ENAME".to_string(), "CATEGORY".to_string()];
    assert_eq!(fused_pairs(&join), vec![(5, cols.clone())]);
    let sql = polygen::workload::queries::paper_shaped_sql(0);
    let paper_class = physical(pqp.translate_sql(&sql).unwrap());
    assert_eq!(fused_pairs(&paper_class), vec![(6, cols)]);
    for expr in [
        "(PDETAIL [SCORE >= 0]) [ENAME = ENAME] PENTITY",
        "(((PDETAIL [SCORE >= 0]) [ENAME = ENAME] PENTITY) [CATEGORY <> \"C1\"]) [ENAME, CATEGORY]",
        "((PDETAIL [SCORE >= 90]) [ENAME < ENAME] PENTITY) [CATEGORY]",
    ] {
        let plan = physical(parse_algebra(expr).unwrap());
        assert_eq!(
            fused_pairs(&plan),
            vec![],
            "{expr}:\n{}",
            render_plan(&plan)
        );
    }
    // The join of `join_query` feeding a second pipeline as well.
    let mut shared = join.nodes.clone();
    shared.push(shared[6].clone());
    assert!(matches!(
        PhysicalPlan::try_from_nodes(shared, 7),
        Err(PqpError::MalformedRow { row: 7, reason }) if reason.contains("R(6)")
    ));
}

/// EXPLAIN ANALYZE of a join that runs its consumer's Project reads as
/// the unfused run did, row counts verbatim: the join's `act=` counts
/// the pairs it matched, the pipeline the rows it answered. (Both
/// literals were rendered before the fusion existed.) The join's span
/// says it ran the Project.
#[test]
fn analyzed_fused_join_keeps_its_row_counts() {
    let big = polygen::workload::generate(&common::fixtures::small_config(5, 3, 64));
    let join = polygen::workload::queries::join_query(0);
    let leaves = "\
#0  Scan[S0] DETAIL[DSCORE >= 0]  → R(1)  act=(_ µs, 2000 rows)
#1  Scan[S0] ENTITY_0  → R(2)  act=(_ µs, 40 rows)
#2  Scan[S1] ENTITY_1  → R(3)  act=(_ µs, 45 rows)
#3  Scan[S2] ENTITY_2  → R(4)  act=(_ µs, 35 rows)
";
    assert_snapshot(
        &analyzed_text_at(&big, &join, &[], 1),
        &format!(
            "{leaves}\
#4  HashMerge[PENTITY on ENAME, 3-way single pass] over R(2), R(3), R(4)  → R(5)  act=(_ µs, 64 rows)
#5  HashJoin[R(1).DNAME = R(5).ENAME, coalesce → ENAME] (build R(5), probe R(1))  → R(6)  act=(_ µs, 2000 rows)
#6  Pipeline over R(6) → Project[ENAME, CATEGORY]@R(7)  → R(7) ◀ answer  act=(_ µs, 64 rows)
(executed in _ µs)"
        ),
    );
    assert_snapshot(
        &analyzed_text_at(&big, &join, &[], 4),
        &format!(
            "{leaves}\
#4  HashMerge[PENTITY on ENAME, 3-way single pass] over R(2), R(3), R(4)  → R(5)  act=(_ µs, 64 rows, x4)
#5  HashJoin[R(1).DNAME = R(5).ENAME, coalesce → ENAME] (build R(5), probe R(1))  → R(6)  act=(_ µs, 2000 rows, x4)
#6  Pipeline over R(6) → Project[ENAME, CATEGORY]@R(7)  → R(7) ◀ answer  act=(_ µs, 64 rows)
(executed in _ µs)"
        ),
    );
    let pqp = Pqp::for_scenario(&big);
    let compiled = pqp.compile(parse_algebra(&join).unwrap()).unwrap();
    let trace = Trace::enabled();
    pqp.run_compiled_traced(&compiled, &trace).unwrap();
    let report = trace.report().expect("enabled recorder reports");
    let kernels: Vec<Option<&str>> = report
        .spans_named("exec/HashJoin")
        .map(|sp| sp.note_str("kernel"))
        .collect();
    assert_eq!(kernels, vec![Some("join+project")]);
}

/// Every HashMerge of a plan routed to run its consumer's leading
/// Selects/Restricts inside its emit, with those stages' rows.
fn fused_merges(plan: &PhysicalPlan) -> Vec<(usize, Vec<usize>)> {
    (0..plan.nodes.len())
        .filter_map(|i| {
            let Some(Route::MergeStages { consumer, stages }) = plan.route(i) else {
                return None;
            };
            let PhysOp::Pipeline { input, stages: all } = &plan.nodes[consumer].op else {
                panic!("node #{i}'s consumer #{consumer} is not a pipeline");
            };
            assert_eq!(*input, i);
            Some((i, all[..stages].iter().map(|st| st.row).collect()))
        })
        .collect()
}

/// The plan's shape alone decides which merges run their consumer's
/// Selects and Restricts: a HashMerge whose only consumer is a pipeline
/// opening with them, up to its first Project. The select and paper
/// classes fuse; a merge at the root, one feeding a join and one under
/// a pipeline that opens with Project do not, and a merge feeding two
/// consumers is no plan.
#[test]
fn fused_merge_stages_follows_the_plan_shape() {
    let big = polygen::workload::generate(&common::fixtures::small_config(5, 3, 64));
    let pqp = Pqp::for_scenario(&big);
    let physical = |expr: AlgebraExpr| pqp.compile(expr).unwrap().physical;
    let select = physical(parse_algebra(&polygen::workload::queries::select_query(1)).unwrap());
    assert_eq!(fused_merges(&select), vec![(3, vec![5])]);
    let sql = polygen::workload::queries::paper_shaped_sql(1);
    let paper_class = physical(pqp.translate_sql(&sql).unwrap());
    assert_eq!(fused_merges(&paper_class), vec![(4, vec![6])]);
    // Every stage before the first Project fuses; the Project stays.
    let chain = physical(
        parse_algebra("((PENTITY [CATEGORY <> \"C1\"]) [ENAME <> CATEGORY]) [ENAME, CATEGORY]")
            .unwrap(),
    );
    assert_eq!(
        fused_merges(&chain),
        vec![(3, vec![5, 6])],
        "{}",
        render_plan(&chain)
    );
    for expr in [
        "(PDETAIL [SCORE >= 0]) [ENAME = ENAME] PENTITY",
        "PENTITY [ENAME, CATEGORY]",
        "(PENTITY [ENAME, CATEGORY]) [CATEGORY = \"C1\"]",
    ] {
        let plan = physical(parse_algebra(expr).unwrap());
        assert_eq!(
            fused_merges(&plan),
            vec![],
            "{expr}:\n{}",
            render_plan(&plan)
        );
    }
    // The select class's merge as the answer.
    let root = PhysicalPlan::try_from_nodes(select.nodes[..4].to_vec(), 3).unwrap();
    assert_eq!(fused_merges(&root), vec![]);
    // The select class's merge feeding a second pipeline as well.
    let mut shared = select.nodes.clone();
    shared.push(shared[4].clone());
    assert!(matches!(
        PhysicalPlan::try_from_nodes(shared, 5),
        Err(PqpError::MalformedRow { row: 5, reason }) if reason.contains("R(4)")
    ));
}

/// EXPLAIN ANALYZE of a merge that runs its consumer's Select reads as
/// the unfused run did, row counts verbatim: the merge's `act=` counts
/// the rows it merged, the pipeline the rows the Select kept, and at 4
/// threads both ran split four ways. (The literals were rendered before
/// the fusion existed.) The merge's span says it ran the Select.
#[test]
fn analyzed_fused_merge_keeps_its_row_counts() {
    let big = polygen::workload::generate(&common::fixtures::small_config(5, 3, 64));
    let select = polygen::workload::queries::select_query(1);
    let leaves = "\
#0  Scan[S0] ENTITY_0  → R(1)  act=(_ µs, 40 rows)
#1  Scan[S1] ENTITY_1  → R(2)  act=(_ µs, 45 rows)
#2  Scan[S2] ENTITY_2  → R(3)  act=(_ µs, 35 rows)
";
    assert_snapshot(
        &analyzed_text_at(&big, &select, &[], 1),
        &format!(
            "{leaves}\
#3  HashMerge[PENTITY on ENAME, 3-way single pass] over R(1), R(2), R(3)  → R(4)  act=(_ µs, 64 rows)
#4  Pipeline over R(4) → Select[CATEGORY = C1]@R(5)  → R(5) ◀ answer  act=(_ µs, 5 rows)
(executed in _ µs)"
        ),
    );
    assert_snapshot(
        &analyzed_text_at(&big, &select, &[], 4),
        &format!(
            "{leaves}\
#3  HashMerge[PENTITY on ENAME, 3-way single pass] over R(1), R(2), R(3)  → R(4)  act=(_ µs, 64 rows, x4)
#4  Pipeline over R(4) → Select[CATEGORY = C1]@R(5)  → R(5) ◀ answer  act=(_ µs, 5 rows, x4)
(executed in _ µs)"
        ),
    );
    assert_snapshot(
        &analyzed_text("PORGANIZATION [INDUSTRY = \"Banking\"]", &[]),
        "\
#0  Scan[AD] BUSINESS  → R(1)  act=(_ µs, 9 rows)
#1  Scan[PD] CORPORATION  → R(2)  act=(_ µs, 7 rows)
#2  Scan[CD] FIRM  → R(3)  act=(_ µs, 10 rows)
#3  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(1), R(2), R(3)  → R(4)  act=(_ µs, 12 rows)
#4  Pipeline over R(4) → Select[INDUSTRY = Banking]@R(5)  → R(5) ◀ answer  act=(_ µs, 1 rows)
(executed in _ µs)",
    );
    let sql = polygen::workload::queries::paper_shaped_sql(1);
    let paper_class = Pqp::for_scenario(&big)
        .translate_sql(&sql)
        .unwrap()
        .to_string();
    assert_snapshot(
        &analyzed_text_at(&big, &paper_class, &[], 4),
        "\
#0  Scan[S0] DETAIL[DSCORE >= 50]  → R(1)  act=(_ µs, 997 rows)
#1  Scan[S0] ENTITY_0  → R(2)  act=(_ µs, 40 rows)
#2  Scan[S1] ENTITY_1  → R(3)  act=(_ µs, 45 rows)
#3  Scan[S2] ENTITY_2  → R(4)  act=(_ µs, 35 rows)
#4  HashMerge[PENTITY on ENAME, 3-way single pass] over R(2), R(3), R(4)  → R(5)  act=(_ µs, 64 rows, x4)
#5  Pipeline over R(5) → Select[CATEGORY = C1]@R(6)  → R(6)  act=(_ µs, 5 rows, x4)
#6  HashJoin[R(1).DNAME = R(6).ENAME, coalesce → ENAME] (build R(6), probe R(1))  → R(7)  act=(_ µs, 72 rows, x4)
#7  Pipeline over R(7) → Project[ENAME, CATEGORY]@R(8)  → R(8) ◀ answer  act=(_ µs, 5 rows)
(executed in _ µs)",
    );
    let pqp = Pqp::for_scenario(&big);
    let compiled = pqp.compile(parse_algebra(&select).unwrap()).unwrap();
    let trace = Trace::enabled();
    pqp.run_compiled_traced(&compiled, &trace).unwrap();
    let report = trace.report().expect("enabled recorder reports");
    let kernels: Vec<Option<&str>> = report
        .spans_named("exec/HashMerge")
        .map(|sp| sp.note_str("kernel"))
        .collect();
    assert_eq!(kernels, vec![Some("merge+select")]);
}

/// EXPLAIN ANALYZE over a join that reads a merge's late-built view
/// keeps the row counts the merge-then-join run had: the merge's `act=`
/// counts the rows it merged, a pipeline whose stages the merge ran
/// the rows they kept, the join the pairs it matched — at 1 and 4
/// threads, for the join class and the paper class. (Every literal was
/// rendered before the merge's answer was late-built.) The merged
/// cells are built by the join that writes them into its output, so
/// the HashJoin span carries the `kernel` note and the merge's names
/// only the stages it ran.
#[test]
fn analyzed_late_merge_keeps_its_row_counts() {
    let big = polygen::workload::generate(&common::fixtures::small_config(5, 3, 64));
    let join = polygen::workload::queries::join_query(50);
    let sql = polygen::workload::queries::paper_shaped_sql(2);
    let paper_class = Pqp::for_scenario(&big)
        .translate_sql(&sql)
        .unwrap()
        .to_string();
    let leaves = "\
#0  Scan[S0] DETAIL[DSCORE >= 50]  → R(1)  act=(_ µs, 997 rows)
#1  Scan[S0] ENTITY_0  → R(2)  act=(_ µs, 40 rows)
#2  Scan[S1] ENTITY_1  → R(3)  act=(_ µs, 45 rows)
#3  Scan[S2] ENTITY_2  → R(4)  act=(_ µs, 35 rows)
";
    for (threads, split) in [(1, ""), (4, ", x4")] {
        assert_snapshot(
            &analyzed_text_at(&big, &join, &[], threads),
            &format!(
                "{leaves}\
#4  HashMerge[PENTITY on ENAME, 3-way single pass] over R(2), R(3), R(4)  → R(5)  act=(_ µs, 64 rows{split})
#5  HashJoin[R(1).DNAME = R(5).ENAME, coalesce → ENAME] (build R(5), probe R(1))  → R(6)  act=(_ µs, 997 rows{split})
#6  Pipeline over R(6) → Project[ENAME, CATEGORY]@R(7)  → R(7) ◀ answer  act=(_ µs, 64 rows)
(executed in _ µs)"
            ),
        );
        assert_snapshot(
            &analyzed_text_at(&big, &paper_class, &[], threads),
            &format!(
                "{leaves}\
#4  HashMerge[PENTITY on ENAME, 3-way single pass] over R(2), R(3), R(4)  → R(5)  act=(_ µs, 64 rows{split})
#5  Pipeline over R(5) → Select[CATEGORY = C2]@R(6)  → R(6)  act=(_ µs, 7 rows{split})
#6  HashJoin[R(1).DNAME = R(6).ENAME, coalesce → ENAME] (build R(6), probe R(1))  → R(7)  act=(_ µs, 110 rows{split})
#7  Pipeline over R(7) → Project[ENAME, CATEGORY]@R(8)  → R(8) ◀ answer  act=(_ µs, 7 rows)
(executed in _ µs)"
            ),
        );
    }
    let pqp = Pqp::for_scenario(&big);
    for (expr, merge_kernel) in [(&join, None), (&paper_class, Some("merge+select"))] {
        let compiled = pqp.compile(parse_algebra(expr).unwrap()).unwrap();
        let trace = Trace::enabled();
        pqp.run_compiled_traced(&compiled, &trace).unwrap();
        let report = trace.report().expect("enabled recorder reports");
        let kernels = |name| -> Vec<Option<&str>> {
            report
                .spans_named(name)
                .map(|sp| sp.note_str("kernel"))
                .collect()
        };
        assert_eq!(
            kernels("exec/HashJoin"),
            vec![Some("join+project")],
            "{expr}"
        );
        assert_eq!(kernels("exec/HashMerge"), vec![merge_kernel], "{expr}");
    }
}
