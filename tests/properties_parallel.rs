//! Differential property tests for partition-parallel execution.
//!
//! For random federations, policies and thread counts P ∈ {1, 2, 4, 8},
//! the parallel physical engine must produce output — tuples *and* ONTJ
//! tags — identical to `execute_eager` and to the sequential physical
//! engine (byte-identical there, order included). The kernel-level
//! properties additionally drive `hash_merge_partitioned` and
//! `hash_equi_join_project` through their fallback paths:
//! duplicate non-nil keys inside an operand and Int/Float-mixed key
//! columns, both of which must take the reference route and still match.

mod common;

use common::fixtures::{
    assert_batch_matches, assert_parallel_matches, assert_same_bytes, compile, conflicted_config,
    small_config,
};
use polygen::catalog::prelude::scenario;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::core::algebra::merge::{hash_merge_partitioned, merge};
use polygen::core::algebra::{equi_join_coalesced, hash_equi_join_project};
use polygen::core::stream::ParallelOptions;
use polygen::core::{Cell, PolygenRelation, SourceId};
use polygen::flat::{Schema, Value};
use polygen::obs::trace::Trace;
use polygen::pqp::prelude::{
    execute_plan, lower_plan, PhysNode, PhysOp, PhysicalPlan, Pqp, PqpOptions, Route,
};
use polygen::sql::prelude::PAPER_EXPRESSION;
use polygen::workload;
use proptest::prelude::*;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A tagged relation named `name` with attributes `K, <name>_V`, one
/// tuple per `(key, value)` pair (`None` = nil key), all cells
/// originating from `source`. Keys are deliberately drawn from a tiny
/// space so duplicates (the fold-fallback trigger) are common.
fn keyed_relation(name: &str, source: u16, rows: &[(Option<i64>, i64, bool)]) -> PolygenRelation {
    let schema = Arc::new(
        Schema::from_parts(
            name,
            vec![Arc::from("K"), Arc::from(format!("{name}_V").as_str())],
            Vec::new(),
        )
        .unwrap(),
    );
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
            ]
        })
        .collect();
    PolygenRelation::from_tuples(schema, tuples).unwrap()
}

type KeyedRows = Vec<(Option<i64>, i64, bool)>;

/// Rows with keys in 0..6 (duplicates likely), occasional nils, and an
/// occasional Float key to force the Int/Float fallback.
fn keyed_rows() -> impl Strategy<Value = KeyedRows> {
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
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random expressions over random federations, across thread counts:
    /// parallel = sequential = eager, answer and trace, tags included.
    #[test]
    fn parallel_matches_eager_and_sequential(
        fed_seed in any::<u64>(),
        query_seed in any::<u64>(),
        depth in 1usize..4,
        sources in 2usize..5,
        tidx in 0usize..THREAD_COUNTS.len(),
    ) {
        // ≥ 64 entities so the parallel paths cross the executor's
        // small-input threshold and genuinely run partitioned.
        let config = small_config(fed_seed, sources, 64);
        let sc = workload::generate(&config);
        let expr = workload::queries::random_expression(&config, query_seed, depth);
        assert_parallel_matches(&sc, &expr.to_string(), ConflictPolicy::Strict, THREAD_COUNTS[tidx]);
    }

    /// Conflicting federations under every policy: the partitioned merge
    /// must demote losers exactly like the fold, and `Strict` must reject
    /// with the same error kind in all three engines.
    #[test]
    fn parallel_agrees_under_conflict_policies(
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
        assert_parallel_matches(&sc, "PENTITY [ENAME, CATEGORY]", policy, threads);
        assert_parallel_matches(&sc, "PENTITY [CATEGORY = \"C0\"]", policy, threads);
    }

    /// Kernel-level: the partitioned merge equals the ONTJ fold
    /// tuple-for-tuple (order included) on arbitrary small operands —
    /// including the duplicate-key and Int/Float-mixed-key inputs that
    /// take the fallback path inside `hash_merge_partitioned`.
    #[test]
    fn partitioned_merge_matches_fold_on_arbitrary_operands(
        a in keyed_rows(),
        b in keyed_rows(),
        c in keyed_rows(),
        tidx in 0usize..THREAD_COUNTS.len(),
    ) {
        let rels = [
            keyed_relation("A", 0, &a),
            keyed_relation("B", 1, &b),
            keyed_relation("C", 2, &c),
        ];
        // Per-operand value columns are disjoint, so non-key coalesces
        // never conflict; key coalesces only conflict on θ-equal
        // Int/Float pairs, which both paths must reject identically.
        let par = ParallelOptions::with_threads(THREAD_COUNTS[tidx]);
        match (
            merge(&rels, "K", ConflictPolicy::Strict),
            hash_merge_partitioned(&rels, "K", ConflictPolicy::Strict, par),
        ) {
            (Ok((fold, _)), Ok((parl, _, _))) => {
                prop_assert_eq!(fold.schema().attrs(), parl.schema().attrs());
                prop_assert_eq!(fold.tuples(), parl.tuples(), "order included");
            }
            (Err(_), Err(_)) => {}
            (f, p) => panic!(
                "fold {:?} vs partitioned {:?}",
                f.map(|_| ()),
                p.map(|_| ())
            ),
        }
    }

    /// Kernel-level: the partitioned join equals the reference coalesced
    /// equi-join tuple-for-tuple, duplicates, nils and the Int/Float
    /// fallback included.
    #[test]
    fn partitioned_join_matches_reference_on_arbitrary_inputs(
        l in keyed_rows(),
        r in keyed_rows(),
        tidx in 0usize..THREAD_COUNTS.len(),
    ) {
        let left = keyed_relation("L", 0, &l);
        let right = keyed_relation("R", 1, &r);
        let par = ParallelOptions::with_threads(THREAD_COUNTS[tidx]);
        match (
            equi_join_coalesced(&left, &right, "K", "K", "K"),
            hash_equi_join_project(&left, &right, "K", "K", "K", None, par),
        ) {
            (Ok(reference), Ok((parl, _, _))) => {
                prop_assert_eq!(reference.schema().attrs(), parl.schema().attrs());
                prop_assert_eq!(reference.tuples(), parl.tuples(), "order included");
            }
            (Err(_), Err(_)) => {}
            (f, p) => panic!(
                "reference {:?} vs partitioned {:?}",
                f.map(|_| ()),
                p.map(|_| ())
            ),
        }
    }
}

/// The paper's own pipeline across every thread count — scan, hash join,
/// hash merge, fused restrict+project and the alias machinery at once.
#[test]
fn paper_query_is_identical_across_thread_counts() {
    let s = scenario::build();
    for threads in THREAD_COUNTS {
        assert_parallel_matches(&s, PAPER_EXPRESSION, ConflictPolicy::Strict, threads);
    }
}

/// Set operations, anti-join and the θ fallback stay correct when the
/// engine around them runs parallel.
#[test]
fn set_ops_and_theta_joins_agree_in_parallel() {
    let s = scenario::build();
    for expr in [
        "(PALUMNUS [DEGREE = \"MBA\"]) UNION (PALUMNUS [DEGREE = \"MS\"])",
        "PALUMNUS MINUS (PALUMNUS [DEGREE = \"MBA\"])",
        "(PORGANIZATION ANTIJOIN [ONAME = ONAME] PFINANCE) [ONAME]",
        "PCAREER [AID# < AID#] PCAREER",
        "PALUMNUS TIMES PFINANCE",
    ] {
        assert_parallel_matches(&s, expr, ConflictPolicy::Strict, 4);
    }
}

/// A federation large enough that every parallel operator is actually
/// exercised above the small-input threshold, swept across thread counts
/// and a detail join (the probe side carries duplicate keys).
#[test]
fn large_federation_join_and_merge_across_thread_counts() {
    let config = small_config(0xfeed, 4, 200);
    let sc = workload::generate(&config);
    for threads in THREAD_COUNTS {
        assert_parallel_matches(
            &sc,
            "((PDETAIL [SCORE >= 40]) [ENAME = ENAME] PENTITY) [ENAME, CATEGORY]",
            ConflictPolicy::Strict,
            threads,
        );
    }
}

/// A join that runs the Project over it answers what the unfused join
/// and Project do: byte for byte with order against the eager
/// interpreter — on the answer and on the prefix that ends at the join,
/// which runs it whole — at every thread count — for projections that keep the join column,
/// drop it (the collapse then runs at one partition), reorder, take one
/// side only, or feed a later stage.
#[test]
fn fused_join_project_matches_the_unfused_run_across_thread_counts() {
    let sc = workload::generate(&small_config(0xfeed, 4, 200));
    let registry = polygen::lqp::scenario_registry(&sc);
    let join = "((PDETAIL [SCORE >= 40]) [ENAME = ENAME] PENTITY)";
    for expr in [
        format!("{join} [CATEGORY, ENAME]"),
        format!("{join} [CATEGORY]"),
        format!("{join} [SCORE, CATEGORY]"),
        format!("{join} [SCORE]"),
        format!("({join} [ENAME, CATEGORY]) [CATEGORY <> \"C1\"]"),
        "((PENTITY [CATEGORY = \"C0\"]) [ENAME = ENAME] PDETAIL) [SCORE]".to_string(),
    ] {
        let plan = lower_plan(
            &compile(&expr, sc.dictionary.schema()),
            &registry,
            &sc.dictionary,
        )
        .unwrap();
        let fused = (0..plan.nodes.len())
            .filter(|&i| matches!(plan.route(i), Some(Route::JoinProject { .. })));
        assert_eq!(fused.count(), 1, "`{expr}` runs its Project in the join");
        for threads in THREAD_COUNTS {
            assert_batch_matches(&sc, &expr, ConflictPolicy::Strict, threads);
            assert_parallel_matches(&sc, &expr, ConflictPolicy::Strict, threads);
        }
    }
}

/// `plan` with a stage-less Pipeline put between node `i` and its
/// consumer, rebuilt through `try_from_nodes`. The plan stays a tree
/// and answers the same, but a merge at `i` no longer has a consumer
/// that opens with Selects/Restricts, so it routes whole, and a
/// consumer with stages builds its view whole.
fn with_pass_through(plan: &PhysicalPlan, i: usize) -> PhysicalPlan {
    let moved = |j: usize| if j >= i { j + 1 } else { j };
    let mut nodes = Vec::with_capacity(plan.nodes.len() + 1);
    for (j, node) in plan.nodes.iter().enumerate() {
        let mut node = node.clone();
        if j > i {
            match &mut node.op {
                PhysOp::Scan { .. } | PhysOp::IndexScan { .. } => {}
                PhysOp::Pipeline { input, .. } => *input = moved(*input),
                PhysOp::HashMerge { inputs, .. } => {
                    inputs.iter_mut().for_each(|input| *input = moved(*input))
                }
                PhysOp::HashJoin { left, right, .. }
                | PhysOp::ThetaJoin { left, right, .. }
                | PhysOp::AntiJoin { left, right, .. }
                | PhysOp::Union { left, right }
                | PhysOp::Difference { left, right }
                | PhysOp::Intersect { left, right }
                | PhysOp::Product { left, right } => {
                    (*left, *right) = (moved(*left), moved(*right));
                }
            }
        }
        nodes.push(node);
        if j == i {
            nodes.push(PhysNode {
                row: plan.nodes[i].row,
                op: PhysOp::Pipeline {
                    input: i,
                    stages: Vec::new(),
                },
                schema: Arc::clone(&plan.nodes[i].schema),
            });
        }
    }
    PhysicalPlan::try_from_nodes(nodes, moved(plan.root)).expect("still a tree")
}

/// A merge that runs its consumer's Selects and Restricts answers what
/// the unfused merge and pipeline do: byte for byte with order against
/// the same plan run unfused (a stage-less pipeline put between its
/// merge and the stages, so the merge routes whole) and
/// against the eager interpreter — answer and every prefix — at every
/// thread count, under every conflict policy, over a federation with
/// conflicting sources.
#[test]
fn fused_merge_stages_match_the_unfused_run_across_thread_counts() {
    let exprs = [
        "PENTITY [CATEGORY = \"C1\"]",
        "(PENTITY [CATEGORY <> \"C1\"]) [ENAME <> CATEGORY]",
        "((PENTITY [CATEGORY >= \"C2\"]) [CATEGORY <> \"C3\"]) [CATEGORY]",
        "((PENTITY [CATEGORY = \"C0\"]) [ENAME = ENAME] PDETAIL) [SCORE]",
    ];
    for sc in [
        workload::generate(&small_config(0xfeed, 4, 200)),
        workload::generate(&conflicted_config(0xbeef, 3, 120)),
    ] {
        let registry = polygen::lqp::scenario_registry(&sc);
        for expr in exprs {
            let plan = lower_plan(
                &compile(expr, sc.dictionary.schema()),
                &registry,
                &sc.dictionary,
            )
            .unwrap();
            let merges_stages =
                |plan: &PhysicalPlan, i| matches!(plan.route(i), Some(Route::MergeStages { .. }));
            let fused: Vec<usize> = (0..plan.nodes.len())
                .filter(|&i| merges_stages(&plan, i))
                .collect();
            assert_eq!(fused.len(), 1, "`{expr}` runs its stages in the merge");
            let unfused = with_pass_through(&plan, fused[0]);
            assert!((0..unfused.nodes.len()).all(|i| !merges_stages(&unfused, i)));
            for policy in [
                ConflictPolicy::Strict,
                ConflictPolicy::PreferLeft,
                ConflictPolicy::PreferRight,
            ] {
                for threads in THREAD_COUNTS {
                    let options = PqpOptions {
                        conflict_policy: policy,
                        threads,
                        partitions: threads,
                        ..PqpOptions::default()
                    };
                    let run = |plan| {
                        execute_plan(
                            plan,
                            &registry,
                            &sc.dictionary,
                            None,
                            &options,
                            &Trace::disabled(),
                        )
                    };
                    match (run(&plan), run(&unfused)) {
                        (Ok(fused), Ok(unfused)) => assert_same_bytes(
                            &unfused,
                            &fused,
                            &format!("`{expr}` under {policy:?} at {threads} threads"),
                        ),
                        (Err(fused), Err(unfused)) => assert_eq!(
                            fused.to_string(),
                            unfused.to_string(),
                            "`{expr}` under {policy:?} at {threads} threads"
                        ),
                        (fused, unfused) => panic!(
                            "`{expr}` under {policy:?} at {threads} threads: fused {:?} vs unfused {:?}",
                            fused.map(|_| ()),
                            unfused.map(|_| ())
                        ),
                    }
                    assert_parallel_matches(&sc, expr, policy, threads);
                }
            }
        }
    }
}

/// A join over a merge reads the merge's late-built view in place and
/// builds only the merged cells it keeps. The production plan must
/// answer what the same plan answers with a stage-less pipeline after
/// every merge (so no merge runs its consumer's stages, and a consumer
/// with stages builds the view whole) and what the eager interpreter
/// answers — answer and every prefix — at every thread count, under
/// every conflict policy: the join and paper classes, the view on the
/// probe side, a join on a non-key merged column, and a merge joined to
/// a merge.
#[test]
fn late_built_merges_match_a_shared_merge_and_eager_across_thread_counts() {
    let paper_class = {
        let sc = workload::generate(&small_config(0xfeed, 4, 200));
        let sql = workload::queries::paper_shaped_sql(1);
        Pqp::for_scenario(&sc)
            .translate_sql(&sql)
            .unwrap()
            .to_string()
    };
    let exprs = [
        workload::queries::join_query(50),
        paper_class,
        "(PENTITY [ENAME = ENAME] (PDETAIL [SCORE >= 20])) [CATEGORY, SCORE]".to_string(),
        "((PENTITY [CATEGORY = \"C1\"]) [CATEGORY = CATEGORY] PENTITY) [ENAME, CATEGORY]"
            .to_string(),
    ];
    for sc in [
        workload::generate(&small_config(0xfeed, 4, 200)),
        workload::generate(&conflicted_config(0xbeef, 3, 120)),
    ] {
        let registry = polygen::lqp::scenario_registry(&sc);
        for expr in &exprs {
            let plan = lower_plan(
                &compile(expr, sc.dictionary.schema()),
                &registry,
                &sc.dictionary,
            )
            .unwrap();
            let merges: Vec<usize> = (0..plan.nodes.len())
                .filter(|&i| matches!(plan.nodes[i].op, PhysOp::HashMerge { .. }))
                .collect();
            assert!(!merges.is_empty(), "`{expr}` merges");
            // Later merges first, so the earlier indices stay put.
            let unfused = merges
                .iter()
                .rev()
                .fold(plan.clone(), |p, &m| with_pass_through(&p, m));
            for policy in [
                ConflictPolicy::Strict,
                ConflictPolicy::PreferLeft,
                ConflictPolicy::PreferRight,
            ] {
                for threads in THREAD_COUNTS {
                    let options = PqpOptions {
                        conflict_policy: policy,
                        threads,
                        partitions: threads,
                        ..PqpOptions::default()
                    };
                    let run = |plan| {
                        execute_plan(
                            plan,
                            &registry,
                            &sc.dictionary,
                            None,
                            &options,
                            &Trace::disabled(),
                        )
                    };
                    let what = format!("`{expr}` under {policy:?} at {threads} threads");
                    match (run(&plan), run(&unfused)) {
                        (Ok(late), Ok(unfused)) => assert_same_bytes(&unfused, &late, &what),
                        (Err(late), Err(unfused)) => {
                            assert_eq!(late.to_string(), unfused.to_string(), "{what}")
                        }
                        (late, unfused) => panic!(
                            "{what}: production {:?} vs unfused {:?}",
                            late.map(|_| ()),
                            unfused.map(|_| ())
                        ),
                    }
                    assert_parallel_matches(&sc, expr, policy, threads);
                }
            }
        }
    }
}
