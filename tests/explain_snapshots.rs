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
use polygen::pqp::prelude::*;
use polygen::sql::prelude::{parse_algebra, PAPER_EXPRESSION};
use std::sync::Arc;

/// Lower `expr` over the MIT scenario and render the physical plan.
fn plan_text(expr: &str, fuse: bool) -> String {
    let s = scenario::build();
    let registry = scenario_registry(&s);
    let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
    let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
    let plan = lower_plan(
        &iom,
        &registry,
        &s.dictionary,
        &PqpOptions {
            retain_intermediates: !fuse,
            ..PqpOptions::default()
        },
    )
    .unwrap();
    render_plan(&plan)
}

/// The same with secondary indexes declared: lower, run the pushdown
/// pass, render — and also render the physical cost estimate, the
/// lines EXPLAIN justifies the route with.
fn indexed_plan_and_cost(expr: &str, specs: &[IndexSpec]) -> (String, String) {
    let s = scenario::build();
    let registry = scenario_registry(&s);
    let catalog = IndexCatalog::build(specs, &registry, &s.dictionary).unwrap();
    let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
    let (_, iom) = interpret(&pom, s.dictionary.schema()).unwrap();
    let plan = lower_plan(
        &iom,
        &registry,
        &s.dictionary,
        &PqpOptions::default().with_threads(1),
    )
    .unwrap();
    let routed = route_index_scans(&plan, &catalog);
    let cost = estimate_physical(&routed, &registry).to_string();
    (render_plan(&routed), cost)
}

/// EXPLAIN ANALYZE over the MIT scenario, serial, with the measured
/// microsecond readings masked to `_`. Row counts, node order and the
/// cost model's `est=` column are deterministic and stay verbatim; only
/// the wall-clock side of `act=` varies run to run.
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
    mask_act_micros(&pqp.explain_analyze_compiled(&compiled).unwrap())
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
/// `executed in NN µs` → `executed in _ µs`. Estimates stay put.
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
        &plan_text(PAPER_EXPRESSION, true),
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
        &plan_text(PAPER_EXPRESSION, true),
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
    assert_snapshot(&plan_text(expr, true), golden);
    assert_snapshot(&lowered_at(expr, 4), golden);
}

/// The plan text, its fingerprint and its cost estimate are the same at
/// every thread count: none of them may claim a fan-out the run decides.
#[test]
fn compiled_plan_is_identical_at_every_thread_count() {
    let s = scenario::build();
    let at = |threads: usize| {
        let pqp = Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(threads));
        let physical = pqp
            .compile(parse_algebra(PAPER_EXPRESSION).unwrap())
            .unwrap()
            .physical;
        let cost = estimate_physical(&physical, pqp.registry()).to_string();
        (render_plan(&physical), physical.fingerprint(), cost)
    };
    let serial = at(1);
    for threads in [2, 4, 8] {
        assert_eq!(at(threads), serial, "threads = {threads}");
    }
}

/// Retention-mode lowering (no fusion): every Select/Restrict/Project row
/// keeps its own single-stage pipeline node.
#[test]
fn paper_plan_unfused_serial() {
    assert_snapshot(
        &plan_text(PAPER_EXPRESSION, false),
        "\
#0  Scan[AD] ALUMNUS[DEG = MBA]  → R(1)
#1  Scan[AD] CAREER  → R(2)
#2  HashJoin[R(1).AID# = R(2).AID#, coalesce → AID#] (build R(2), probe R(1))  → R(3)
#3  Scan[AD] BUSINESS  → R(4)
#4  Scan[PD] CORPORATION  → R(5)
#5  Scan[CD] FIRM  → R(6)
#6  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(4), R(5), R(6)  → R(7)
#7  HashJoin[R(3).BNAME = R(7).ONAME, coalesce → ONAME] (build R(7), probe R(3))  → R(8)
#8  Pipeline over R(8) → Restrict[CEO = ANAME]@R(9)  → R(9)
#9  Pipeline over R(9) → Project[ONAME, CEO]@R(10)  → R(10) ◀ answer",
    );
}

/// AntiJoin feeding a lone-Project pipeline, over a merge.
#[test]
fn antijoin_plan_serial() {
    assert_snapshot(
        &plan_text(
            "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
            true,
        ),
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
            true,
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
    let (plan, _) =
        indexed_plan_and_cost(PAPER_EXPRESSION, &[IndexSpec::hash("AD", "ALUMNUS", "DEG")]);
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
    let (ne, _) = indexed_plan_and_cost(
        "PALUMNUS [DEGREE <> \"MBA\"]",
        &[IndexSpec::hash("AD", "ALUMNUS", "DEG")],
    );
    assert_snapshot(
        &ne,
        "\
#0  Scan[AD] ALUMNUS[DEG <> MBA]  → R(1) ◀ answer",
    );
    let (range, _) = indexed_plan_and_cost(
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
    let (plan, _) = indexed_plan_and_cost(
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
/// the executor asks the same `is_batch_pipeline` predicate, so a
/// marked node runs on `ColumnBatch` (only retention mode, which has no
/// late-tagged leaves, walks it as rows).
#[test]
fn eligible_leaf_pipeline_announces_batch() {
    assert_snapshot(
        &plan_text("PCAREER [AID# = ONAME] [AID#, POSITION]", true),
        "\
#0  Scan[AD] CAREER[AID# = BNAME]  → R(1)
#1  Pipeline over R(1) → Project[AID#, POSITION]@R(2) [batch]  → R(2) ◀ answer",
    );
}

/// Columnar annotation, rejected: the paper plan's final pipeline reads
/// a HashJoin (an interior node, already `Arc`-shared streams), so it
/// stays on the row engine and renders without the `[batch]` marker —
/// see `paper_plan_fused_serial` above. The same holds for every
/// unfused (retention-mode) stage chain.
#[test]
fn interior_pipeline_stays_on_the_row_engine() {
    let shown = plan_text(PAPER_EXPRESSION, true);
    assert!(
        !shown.contains("[batch]"),
        "interior pipelines must not claim the columnar path:\n{shown}"
    );
}

/// The cost lines EXPLAIN justifies a route with: the probe is charged
/// probe + residual emission (no LQP shipping), strictly below the
/// full-scan estimate of the same query unindexed.
#[test]
fn index_cost_lines_justify_the_route() {
    let spec = [IndexSpec::hash("AD", "ALUMNUS", "DEG")];
    let (_, routed_cost) = indexed_plan_and_cost("PALUMNUS [DEGREE = \"MBA\"]", &spec);
    assert_snapshot(
        &routed_cost,
        "\
estimated cost: 2 µs, 0 tuples shipped from LQPs
  R(1): 2 µs, ~0 rows",
    );
    let (_, scan_cost) = indexed_plan_and_cost("PALUMNUS [DEGREE = \"MBA\"]", &[]);
    let total = |s: &str| -> f64 {
        s.split("estimated cost: ")
            .nth(1)
            .unwrap()
            .split(" µs")
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(
        total(&routed_cost) < total(&scan_cost),
        "the probe must cost below the scan: {routed_cost} vs {scan_cost}"
    );
}

/// EXPLAIN ANALYZE, the paper plan: every line carries the cost model's
/// `est=` next to the measured `act=`, and the actual row counts are the
/// materialized `R(n)` sizes from the golden tables (5 MBA alumni, 13
/// career rows, 9 merged organizations, the 1-row answer).
#[test]
fn analyzed_paper_plan_reports_est_and_act() {
    assert_snapshot(
        &analyzed_text(PAPER_EXPRESSION, &[]),
        "\
#0  Scan[AD] ALUMNUS[DEG = MBA]  → R(1)  est=(505 µs, ~1 rows)  act=(_ µs, 5 rows)
#1  Scan[AD] CAREER  → R(2)  est=(545 µs, ~9 rows)  act=(_ µs, 9 rows)
#2  HashJoin[R(1).AID# = R(2).AID#, coalesce → AID#] (build R(2), probe R(1))  → R(3)  est=(10 µs, ~9 rows)  act=(_ µs, 6 rows)
#3  Scan[AD] BUSINESS  → R(4)  est=(545 µs, ~9 rows)  act=(_ µs, 9 rows)
#4  Scan[PD] CORPORATION  → R(5)  est=(535 µs, ~7 rows)  act=(_ µs, 7 rows)
#5  Scan[CD] FIRM  → R(6)  est=(550 µs, ~10 rows)  act=(_ µs, 10 rows)
#6  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(4), R(5), R(6)  → R(7)  est=(26 µs, ~26 rows)  act=(_ µs, 12 rows)
#7  HashJoin[R(3).BNAME = R(7).ONAME, coalesce → ONAME] (build R(7), probe R(3))  → R(8)  est=(35 µs, ~26 rows)  act=(_ µs, 6 rows)
#8  Pipeline over R(8) → Restrict[CEO = ANAME]@R(9) → Project[ONAME, CEO]@R(10) (fused ×2)  → R(10) ◀ answer  est=(26 µs, ~8 rows)  act=(_ µs, 3 rows)
(estimated 2777 µs total, executed in _ µs)",
    );
}

/// EXPLAIN ANALYZE over the nested-loop θ-join.
#[test]
fn analyzed_theta_join() {
    assert_snapshot(
        &analyzed_text("PCAREER [AID# < AID#] PCAREER", &[]),
        "\
#0  Scan[AD] CAREER  → R(1)  est=(545 µs, ~9 rows)  act=(_ µs, 9 rows)
#1  Scan[AD] CAREER  → R(2)  est=(545 µs, ~9 rows)  act=(_ µs, 9 rows)
#2  NestedLoopJoin[R(2).AID# < R(1).AID#]  → R(3) ◀ answer  est=(81 µs, ~9 rows)  act=(_ µs, 35 rows)
(estimated 1171 µs total, executed in _ µs)",
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
#0  Scan[AD] BUSINESS  → R(1)  est=(545 µs, ~9 rows)  act=(_ µs, 9 rows)
#1  Scan[PD] CORPORATION  → R(2)  est=(535 µs, ~7 rows)  act=(_ µs, 7 rows)
#2  Scan[CD] FIRM  → R(3)  est=(550 µs, ~10 rows)  act=(_ µs, 10 rows)
#3  HashMerge[PORGANIZATION on ONAME, 3-way single pass] over R(1), R(2), R(3)  → R(4)  est=(26 µs, ~26 rows)  act=(_ µs, 12 rows)
#4  Scan[CD] FINANCE  → R(5)  est=(550 µs, ~10 rows)  act=(_ µs, 10 rows)
#5  AntiJoin[R(4).ONAME = R(5).FNAME]  → R(6)  est=(36 µs, ~13 rows)  act=(_ µs, 2 rows)
#6  Pipeline over R(6) → Project[ONAME]@R(7)  → R(7) ◀ answer  est=(13 µs, ~13 rows)  act=(_ µs, 2 rows)
(estimated 2255 µs total, executed in _ µs)",
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
#0  Scan[AD] ALUMNUS[DEG = MBA]  → R(1)  est=(505 µs, ~1 rows)  act=(_ µs, 5 rows)
#1  Scan[AD] ALUMNUS[DEG = MS]  → R(2)  est=(505 µs, ~1 rows)  act=(_ µs, 1 rows)
#2  Union[R(1), R(2)]  → R(3)  est=(2 µs, ~2 rows)  act=(_ µs, 6 rows)
#3  Scan[AD] ALUMNUS[DEG = MBA]  → R(4)  est=(505 µs, ~1 rows)  act=(_ µs, 5 rows)
#4  Difference[R(3), R(4)]  → R(5) ◀ answer  est=(2 µs, ~1 rows)  act=(_ µs, 1 rows)
(estimated 1519 µs total, executed in _ µs)",
    );
}

/// EXPLAIN ANALYZE over Intersect and Product.
#[test]
fn analyzed_intersect_and_product() {
    assert_snapshot(
        &analyzed_text("(PALUMNUS INTERSECT PALUMNUS) TIMES PFINANCE", &[]),
        "\
#0  Scan[AD] ALUMNUS  → R(1)  est=(540 µs, ~8 rows)  act=(_ µs, 8 rows)
#1  Scan[AD] ALUMNUS  → R(2)  est=(540 µs, ~8 rows)  act=(_ µs, 8 rows)
#2  Intersect[R(2), R(1)]  → R(3)  est=(16 µs, ~8 rows)  act=(_ µs, 8 rows)
#3  Scan[CD] FINANCE  → R(4)  est=(550 µs, ~10 rows)  act=(_ µs, 10 rows)
#4  Product[R(3), R(4)]  → R(5) ◀ answer  est=(80 µs, ~80 rows)  act=(_ µs, 80 rows)
(estimated 1726 µs total, executed in _ µs)",
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
#0  IndexScan[AD] ALUMNUS [ixscan AD.DEG = MBA] (hash)  → R(1) ◀ answer  est=(2 µs, ~0 rows)  act=(_ µs, 5 rows)
(estimated 2 µs total, executed in _ µs)",
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
        &plan_text("(PALUMNUS INTERSECT PALUMNUS) TIMES PFINANCE", true),
        "\
#0  Scan[AD] ALUMNUS  → R(1)
#1  Scan[AD] ALUMNUS  → R(2)
#2  Intersect[R(2), R(1)]  → R(3)
#3  Scan[CD] FINANCE  → R(4)
#4  Product[R(3), R(4)]  → R(5) ◀ answer",
    );
}
