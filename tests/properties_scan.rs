//! Differential property tests for zero-copy, late-tagged scans.
//!
//! The guarantee under test: **late tagging is invisible**. A Scan leaf
//! is the LQP's own rows plus one source id, and source tags come into
//! existence in the first kernel that builds an output cell — yet every
//! answer must be byte-identical (data, origin tags, intermediate tags,
//! tuple order, error kinds) to the eager reference interpreter, whose
//! leaves are `execute_tagged`-materialized, on every thread count.
//!
//! The federations here are deliberately hostile where the synthetic
//! workload generator is clean: domain rules that collapse rows, nil and
//! duplicate merge/join keys, Int/Float-mixed keys that force the
//! kernels' reference fallbacks, leaves read by several kernels, and
//! every `LocalOp` shape (retrieve / select / restrict / projection).
//!
//! A pushed-down select or restrict ships its survivors as ordinals over
//! the LQP's rows: the leaf shares those rows, and every reader — a
//! kernel, a gather, an index probe, a columnar batch — sees only the
//! selected ones, exactly as it saw the copy the LQP used to ship.

mod common;

use common::fixtures::{compile, same_error_kind, small_config};
use polygen::catalog::dictionary::DataDictionary;
use polygen::catalog::domain::{DomainMap, DomainRule};
use polygen::catalog::mapping::AttributeMapping;
use polygen::catalog::scenario::{self, LocalDatabase, Scenario};
use polygen::catalog::schema::PolygenSchema;
use polygen::catalog::scheme::PolygenScheme;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::core::algebra::join::{hash_equi_join_coalesced, hash_equi_join_project};
use polygen::core::algebra::merge::{hash_merge, hash_merge_partitioned};
use polygen::core::base::BaseRelation;
use polygen::core::batch::ColumnBatch;
use polygen::core::stream::ParallelOptions;
use polygen::core::{PolygenRelation, SourceId};
use polygen::flat::value::Cmp;
use polygen::flat::{Relation, Value};
use polygen::index::{IndexSpec, Probe, SourceIndex};
use polygen::lqp::engine::{LocalOp, Lqp};
use polygen::lqp::memory::InMemoryLqp;
use polygen::lqp::registry::LqpRegistry;
use polygen::obs::trace::Trace;
use polygen::pqp::prelude::*;
use polygen::serve::prelude::*;
use polygen::sql::prelude::{parse_algebra, PAPER_EXPRESSION};
use polygen::workload;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 4];
const POLICIES: [ConflictPolicy; 3] = [
    ConflictPolicy::Strict,
    ConflictPolicy::PreferLeft,
    ConflictPolicy::PreferRight,
];

/// `(key, value, float_key)`: the key is nil, an Int or (rarely) the
/// same number as a Float, drawn from a tiny space so duplicates and
/// cross-source matches are the norm.
type Rows = Vec<(Option<i64>, i64, bool)>;

fn rows(max: usize) -> impl Strategy<Value = Rows> {
    proptest::collection::vec(
        (
            prop_oneof![
                (0i64..6).prop_map(Some),
                (0i64..6).prop_map(Some),
                (0i64..6).prop_map(Some),
                Just(None),
            ],
            0i64..6,
            prop_oneof![
                Just(false),
                Just(false),
                Just(false),
                Just(false),
                Just(true)
            ],
        ),
        0..max,
    )
}

/// Keep the first row per non-nil key, and make every key an Int: what
/// the closed-form Merge needs to run at all (duplicate or Int/Float
/// mixed keys send it to the reference fold instead).
fn closed_form_keys(rows: &Rows) -> Rows {
    let mut seen = std::collections::HashSet::new();
    rows.iter()
        .filter(|(key, _, _)| key.is_none_or(|k| seen.insert(k)))
        .map(|&(key, v, _)| (key, v, false))
        .collect()
}

fn key_of(key: Option<i64>, float_key: bool) -> Value {
    match key {
        None => Value::Null,
        Some(k) if float_key => Value::float(k as f64),
        Some(k) => Value::int(k),
    }
}

/// A flat `(key, V, W)` relation under the given attribute names.
fn flat(name: &str, attrs: [&str; 3], rows: &Rows) -> Relation {
    let mut b = Relation::build(name, &attrs);
    for (key, v, float_key) in rows {
        b = b.vrow(vec![
            key_of(*key, *float_key),
            Value::int(*v),
            Value::str(format!("x, w{}", v % 3)),
        ]);
    }
    b.finish().unwrap()
}

/// The hostile federation: three sources feeding the merged scheme
/// `PT(K, V, W)` (every source contributes a different attribute subset)
/// and a single-source scheme `PD(DK, DV, DW)` to join against it.
/// `rule` picks the domain rules: none, a collapse (A's non-key columns
/// map to constants, so rows equal on `K` fold into one), an Int→Float
/// rewrite of B's keys and D's join keys (forcing the mixed-numeric
/// fallbacks), or a string rewrite on C. With `clean`, the merged
/// operands get closed-form keys (the detail relation stays hostile).
fn federation(a: &Rows, b: &Rows, c: &Rows, d: &Rows, rule: usize, clean: bool) -> Scenario {
    let tidy = |rows: &Rows| {
        if clean {
            closed_form_keys(rows)
        } else {
            rows.clone()
        }
    };
    let (a, b, c) = (&tidy(a), &tidy(b), &tidy(c));
    let ta = flat("TA", ["K", "V", "W"], a);
    let tb = {
        let idx = polygen::flat::algebra::project(&flat("TB", ["K", "V", "W"], b), &["K", "V"]);
        idx.unwrap()
    };
    let tc = {
        let idx = polygen::flat::algebra::project(&flat("TC", ["K", "V", "W"], c), &["K", "W"]);
        idx.unwrap()
    };
    let td = flat("D", ["DK", "DV", "DW"], d);
    let schema = PolygenSchema::new(vec![
        PolygenScheme::new(
            "PT",
            vec![
                (
                    "K",
                    AttributeMapping::of(&[("A", "TA", "K"), ("B", "TB", "K"), ("C", "TC", "K")]),
                ),
                (
                    "V",
                    AttributeMapping::of(&[("A", "TA", "V"), ("B", "TB", "V")]),
                ),
                (
                    "W",
                    AttributeMapping::of(&[("A", "TA", "W"), ("C", "TC", "W")]),
                ),
            ],
        ),
        PolygenScheme::new(
            "PD",
            vec![
                ("DK", AttributeMapping::of(&[("A", "D", "DK")])),
                ("DV", AttributeMapping::of(&[("A", "D", "DV")])),
                ("DW", AttributeMapping::of(&[("A", "D", "DW")])),
            ],
        ),
    ]);
    let mut domains = DomainMap::new();
    match rule {
        1 => {
            let to_zero: HashMap<Value, Value> =
                (0..6).map(|v| (Value::int(v), Value::int(0))).collect();
            domains.set("A", "TA", "V", DomainRule::Lookup(to_zero));
            let to_w: HashMap<Value, Value> = (0..3)
                .map(|w| (Value::str(format!("x, w{w}")), Value::str("w")))
                .collect();
            domains.set("A", "TA", "W", DomainRule::Lookup(to_w));
        }
        2 => {
            domains.set("B", "TB", "K", DomainRule::Scale(1.0));
            domains.set("A", "D", "DK", DomainRule::Scale(1.0));
        }
        3 => domains.set("C", "TC", "W", DomainRule::LastCommaToken),
        _ => {}
    }
    let mut dictionary = DataDictionary::with_parts(Default::default(), schema, domains);
    for name in ["A", "B", "C"] {
        dictionary.intern_source(name);
    }
    Scenario {
        dictionary,
        databases: vec![
            LocalDatabase {
                name: "A".into(),
                relations: vec![ta, td],
            },
            LocalDatabase {
                name: "B".into(),
                relations: vec![tb],
            },
            LocalDatabase {
                name: "C".into(),
                relations: vec![tc],
            },
        ],
    }
}

/// Queries covering every leaf consumer and every `LocalOp` shape: Merge
/// over plain retrieves, a pushed-down select / restrict / projection on
/// the single-source scheme, hash joins with a leaf on the left, the
/// right or both sides (a self-join scans its relation once per side), a
/// θ-join and the set operators (which materialize their leaves), and
/// pipelines directly over leaves.
const QUERIES: [&str; 12] = [
    "PT [V = 2]",
    "PT [K, W]",
    "PD [DV >= 2]",
    "PD [DK = DV]",
    "PD [DK, DW]",
    "PD [DV >= 1] [DK <= 4] [DK, DV]",
    "((PD [DV >= 1]) [DK = K] PT) [K, V]",
    "(PT [K = DK] PD) [DV <= 4]",
    "PD [DK = DK] PD",
    "PD [DK < DV] PD",
    "(PD [DV >= 1]) UNION (PD [DV >= 1] [DK <= 4])",
    "PD MINUS (PD [DK = DV])",
];

/// One compiled plan — late-tagged leaves, batch pipelines included —
/// must produce the same bytes at every thread count, equal to the eager
/// reference; rejections must agree in kind everywhere.
fn assert_late_tagging_invisible(sc: &Scenario, expr: &str, policy: ConflictPolicy) {
    let registry = polygen::lqp::scenario_registry(sc);
    let iom = compile(expr, sc.dictionary.schema());
    let eager = execute_eager(
        &iom,
        &registry,
        &sc.dictionary,
        &PqpOptions {
            conflict_policy: policy,
            ..PqpOptions::default()
        },
    );
    let plan = lower_plan(&iom, &registry, &sc.dictionary);
    let plan = match (plan, &eager) {
        (Ok(plan), _) => plan,
        (Err(pe), Err(ee)) => {
            assert!(same_error_kind(ee, &pe), "`{expr}`: {ee} vs {pe}");
            return;
        }
        (Err(pe), Ok(_)) => panic!("`{expr}` lowers with {pe} but the reference answers"),
    };
    for threads in THREAD_COUNTS {
        let got = execute_plan(
            &plan,
            &registry,
            &sc.dictionary,
            None,
            &PqpOptions {
                conflict_policy: policy,
                threads,
                partitions: threads,
                ..PqpOptions::default()
            },
            &Trace::disabled(),
        );
        let leg = format!("`{expr}` threads={threads}");
        match (&eager, got) {
            (Ok((want, _)), Ok(got)) => {
                assert_eq!(want.schema().attrs(), got.schema().attrs(), "{leg}");
                assert_eq!(want.tuples(), got.tuples(), "{leg}");
            }
            (Err(want), Err(got)) => {
                assert!(same_error_kind(want, &got), "{leg}: {want} vs {got}")
            }
            (want, got) => panic!(
                "{leg}: reference {} but engine {}",
                want.as_ref().map(|_| "answers").unwrap_or("rejects"),
                got.map(|_| "answers").unwrap_or("rejects"),
            ),
        }
    }
}

/// Self-joins: on a single-source scheme, on the three-source merged
/// scheme, and a θ self-join. Each side scans (and merges) its own copy.
const SELF_JOINS: [&str; 3] = [
    "PCAREER [AID# = AID#] PCAREER",
    "(PORGANIZATION [ONAME = ONAME] PORGANIZATION) [ONAME]",
    "PALUMNUS [AID# < AID#] PALUMNUS",
];

/// `expr` compiled on `pqp` is a tree: every node but the root is the
/// input of exactly one node, and the root of none. Returns whether the
/// expression compiled.
fn compiles_to_a_tree(pqp: &Pqp, expr: &str) -> bool {
    let Ok(compiled) = parse_algebra(expr)
        .map_err(PqpError::from)
        .and_then(|e| pqp.compile(e))
    else {
        return false;
    };
    let plan = &compiled.physical;
    let mut uses = vec![0usize; plan.nodes.len()];
    for node in &plan.nodes {
        for i in node.op.inputs() {
            uses[i] += 1;
        }
    }
    for (i, n) in uses.into_iter().enumerate() {
        assert_eq!(
            n,
            usize::from(i != plan.root),
            "`{expr}`: node #{i} is an input {n} times\n{}",
            render_plan(plan)
        );
    }
    true
}

/// One edit to a plan's public fields, as a caller could make after the
/// plan was built: `(kind, at, to)` picks the edit, the node and the new
/// value, which may point past the plan on purpose.
type Edit = (u8, usize, usize);

/// The `to`-th input of `op`, to re-point.
fn input_mut(op: &mut PhysOp, to: usize) -> Option<&mut usize> {
    match op {
        PhysOp::Scan { .. } | PhysOp::IndexScan { .. } => None,
        PhysOp::Pipeline { input, .. } => Some(input),
        PhysOp::HashMerge { inputs, .. } => {
            let k = to % inputs.len().max(1);
            inputs.get_mut(k)
        }
        PhysOp::HashJoin { left, right, .. }
        | PhysOp::ThetaJoin { left, right, .. }
        | PhysOp::AntiJoin { left, right, .. }
        | PhysOp::Union { left, right }
        | PhysOp::Difference { left, right }
        | PhysOp::Intersect { left, right }
        | PhysOp::Product { left, right } => Some(if to % 2 == 0 { left } else { right }),
    }
}

/// Apply one [`Edit`]: re-point an input, duplicate a consumer, change
/// the root, drop or add stages, or swap two nodes' operators.
fn apply_edit(plan: &mut PhysicalPlan, (kind, at, to): Edit) {
    let n = plan.nodes.len();
    let at = at % n;
    // A node index, up to two past the end.
    let other = to % (n + 2);
    match kind % 6 {
        0 => {
            if let Some(input) = input_mut(&mut plan.nodes[at].op, to) {
                *input = other;
            }
        }
        1 => {
            let twin = plan.nodes[at].clone();
            plan.nodes.push(twin);
        }
        2 => plan.root = other,
        3 => {
            if let PhysOp::Pipeline { stages, .. } = &mut plan.nodes[at].op {
                stages.truncate(to % (stages.len() + 1));
            }
        }
        4 => {
            let donor = plan.nodes.iter().find_map(|node| match &node.op {
                PhysOp::Pipeline { stages, .. } if !stages.is_empty() => {
                    Some(stages[to % stages.len()].clone())
                }
                _ => None,
            });
            if let (Some(stage), PhysOp::Pipeline { stages, .. }) = (donor, &mut plan.nodes[at].op)
            {
                stages.insert(to % (stages.len() + 1), stage);
            }
        }
        _ => {
            let swapped = other % n;
            let op = plan.nodes[swapped].op.clone();
            plan.nodes[swapped].op = std::mem::replace(&mut plan.nodes[at].op, op);
        }
    }
}

/// Compile `expr` on `pqp`, edit its plan, rebuild the edited nodes
/// through `try_from_nodes`, and run both the rebuilt plan and the
/// edited original at one and four threads, rendering and
/// fingerprinting each as EXPLAIN and the plan cache do. Each step may
/// answer or fail; none may panic.
fn survives_edits(pqp: &Pqp, expr: &str, edits: &[Edit]) {
    let Ok(compiled) = parse_algebra(expr)
        .map_err(PqpError::from)
        .and_then(|e| pqp.compile(e))
    else {
        return;
    };
    let mut edited = compiled.physical;
    for &e in edits {
        apply_edit(&mut edited, e);
    }
    let rebuilt = PhysicalPlan::try_from_nodes(edited.nodes.clone(), edited.root);
    for plan in std::iter::once(&edited).chain(rebuilt.as_ref().ok()) {
        describe(plan);
    }
    for threads in THREAD_COUNTS {
        let options = PqpOptions::default().with_threads(threads);
        for plan in std::iter::once(&edited).chain(rebuilt.as_ref().ok()) {
            let _ = execute_plan(
                plan,
                pqp.registry(),
                pqp.dictionary(),
                pqp.indexes().map(|c| c.as_ref()),
                &options,
                &Trace::disabled(),
            );
        }
    }
}

/// Everything that reads a plan without running it: EXPLAIN's text,
/// the plan cache's fingerprint and EXPLAIN ANALYZE's rendering.
/// Returns the rendered text.
fn describe(plan: &PhysicalPlan) -> String {
    let _ = plan.fingerprint();
    let _ = render_analyzed_plan(plan, &Default::default());
    render_plan(plan)
}

/// A plan whose answer pipeline was edited to read a node past the end
/// renders that input as `R(?)`: EXPLAIN, the fingerprint and EXPLAIN
/// ANALYZE describe it, as `execute_plan` refuses it, without a panic.
#[test]
fn edited_plans_describe_an_input_past_the_end() {
    let pqp = Pqp::for_scenario(&scenario::build());
    let mut plan = pqp
        .compile(parse_algebra(PAPER_EXPRESSION).unwrap())
        .unwrap()
        .physical;
    let root = plan.root;
    let PhysOp::Pipeline { input, .. } = &mut plan.nodes[root].op else {
        panic!("the paper's answer is a pipeline");
    };
    *input = 99;
    let text = describe(&plan);
    assert!(text.contains("Pipeline over R(?)"), "{text}");
    assert!(matches!(
        execute_plan(
            &plan,
            pqp.registry(),
            pqp.dictionary(),
            None,
            &PqpOptions::default(),
            &Trace::disabled(),
        ),
        Err(PqpError::MalformedRow { .. })
    ));
}

fn tagged(
    name: &str,
    attrs: [&str; 3],
    rows: &Rows,
    source: u16,
) -> (BaseRelation, PolygenRelation) {
    let base = BaseRelation::new(flat(name, attrs, rows), SourceId(source));
    let materialized = base.materialize();
    (base, materialized)
}

/// `execute_plan` answers a plan whose public fields were edited out of
/// shape with `MalformedRow`, never a panic: the join class's consumer
/// read twice, the root past the end, a merge reading a pipeline, and a
/// pipeline stripped of the stages its input runs for it.
/// `try_from_nodes` refuses every edit that leaves no tree, and a
/// merge over anything but leaves.
#[test]
fn edited_plans_are_malformed_not_panics() {
    let sc = workload::generate(&small_config(5, 3, 64));
    let pqp = Pqp::for_scenario(&sc);
    let plan_of = |expr: &str| pqp.compile(parse_algebra(expr).unwrap()).unwrap().physical;
    let run = |plan: &PhysicalPlan| {
        execute_plan(
            plan,
            pqp.registry(),
            pqp.dictionary(),
            None,
            &PqpOptions::default(),
            &Trace::disabled(),
        )
    };
    let malformed = |plan: &PhysicalPlan, what: &str| match run(plan) {
        Err(PqpError::MalformedRow { .. }) => {}
        other => panic!("{what}: {:?}", other.map(|r| r.len())),
    };
    let refused = |plan: &PhysicalPlan, what: &str| {
        let rebuilt = PhysicalPlan::try_from_nodes(plan.nodes.clone(), plan.root);
        assert!(
            matches!(rebuilt, Err(PqpError::MalformedRow { .. })),
            "{what}: try_from_nodes gave {rebuilt:?}"
        );
        malformed(plan, what);
    };
    // #0 Scan DETAIL, #1–#3 Scan ENTITY_*, #4 HashMerge, #5 HashJoin
    // (join+project), #6 Pipeline [Project] ◀ answer.
    let join = plan_of(&workload::queries::join_query(0));
    assert!(run(&join).is_ok());
    let mut shared = join.clone();
    shared.nodes.push(shared.nodes[6].clone());
    refused(&shared, "a second consumer of the join");
    let mut rootless = join.clone();
    rootless.root = 7;
    refused(&rootless, "a root past the end");
    let mut piped = join.clone();
    let PhysOp::HashMerge { inputs, .. } = &mut piped.nodes[4].op else {
        panic!("node #4 is the merge");
    };
    inputs[0] = 6;
    refused(&piped, "a merge reading a pipeline");
    let mut bare = join.clone();
    let PhysOp::Pipeline { stages, .. } = &mut bare.nodes[6].op else {
        panic!("node #6 is the pipeline");
    };
    stages.clear();
    malformed(&bare, "a join's Project dropped");
    // #0–#2 Scan ENTITY_*, #3 HashMerge (merge+select), #4 Pipeline
    // [Select] ◀ answer: without the Select, the merge has nothing to
    // run, and the plan must not answer every merged row.
    let mut unselected = plan_of(&workload::queries::select_query(1));
    let PhysOp::Pipeline { stages, .. } = &mut unselected.nodes[4].op else {
        panic!("node #4 is the pipeline");
    };
    stages.clear();
    malformed(&unselected, "a merge's Select dropped");
    // A merge over a pipeline that precedes it: a leaf put behind a
    // stage-less pipeline.
    let select = plan_of(&workload::queries::select_query(1));
    let mut nodes = select.nodes.clone();
    nodes.insert(
        1,
        PhysNode {
            row: nodes[0].row,
            op: PhysOp::Pipeline {
                input: 0,
                stages: Vec::new(),
            },
            schema: Arc::clone(&nodes[0].schema),
        },
    );
    nodes[4].op = match &select.nodes[3].op {
        PhysOp::HashMerge {
            scheme,
            key,
            relabels,
            ..
        } => PhysOp::HashMerge {
            inputs: vec![1, 2, 3],
            scheme: scheme.clone(),
            key: key.clone(),
            relabels: relabels.clone(),
        },
        other => panic!("node #3 is the merge, not {other:?}"),
    };
    nodes[5].op = match &select.nodes[4].op {
        PhysOp::Pipeline { stages, .. } => PhysOp::Pipeline {
            input: 4,
            stages: stages.clone(),
        },
        other => panic!("node #4 is the pipeline, not {other:?}"),
    };
    match PhysicalPlan::try_from_nodes(nodes, 5) {
        Err(PqpError::MalformedRow { reason, .. }) => {
            assert!(reason.contains("not a base retrieve"), "{reason}")
        }
        other => panic!("a merge over a pipeline built: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine level: over hostile federations every query shape answers
    /// identically on the late-tagged engine, on materialized leaves and
    /// on the eager reference.
    #[test]
    fn late_tagged_engine_matches_reference_and_materialized_leaves(
        a in rows(10),
        b in rows(10),
        c in rows(10),
        d in rows(40),
        (rule, policy_idx) in (0usize..4, 0usize..POLICIES.len()),
        clean in any::<bool>(),
    ) {
        let sc = federation(&a, &b, &c, &d, rule, clean);
        for expr in QUERIES {
            assert_late_tagging_invisible(&sc, expr, POLICIES[policy_idx]);
        }
    }

    /// Plans are trees: the paper query and the self-joins over the MIT
    /// federation, every `QUERIES` shape that compiles over a hostile
    /// federation, and random expressions over a generated one.
    #[test]
    fn compiled_plans_are_trees(
        a in rows(6),
        d in rows(6),
        (rule, clean) in (0usize..4, any::<bool>()),
        (query_seed, depth) in (any::<u64>(), 1usize..5),
    ) {
        let mit = Pqp::for_scenario(&scenario::build());
        for expr in std::iter::once(PAPER_EXPRESSION).chain(SELF_JOINS) {
            prop_assert!(compiles_to_a_tree(&mit, expr), "`{}` compiles", expr);
        }
        let hostile = Pqp::for_scenario(&federation(&a, &a, &a, &d, rule, clean));
        for expr in QUERIES {
            compiles_to_a_tree(&hostile, expr);
        }
        let config = small_config(query_seed, 3, 40);
        let generated = Pqp::for_scenario(&workload::generate(&config));
        let expr = workload::queries::random_expression(&config, query_seed, depth).to_string();
        prop_assert!(compiles_to_a_tree(&generated, &expr), "`{}` compiles", expr);
    }

    /// Kernel level: Merge over base relations equals Merge over their
    /// materializations — sequential and partitioned, every policy,
    /// through the closed form and through both reference fallbacks.
    #[test]
    fn merge_over_base_rows_equals_merge_over_tagged_tuples(
        a in rows(12),
        b in rows(12),
        c in rows(12),
        policy_idx in 0usize..POLICIES.len(),
        clean in any::<bool>(),
    ) {
        let (a, b, c) = if clean {
            (closed_form_keys(&a), closed_form_keys(&b), closed_form_keys(&c))
        } else {
            (a, b, c)
        };
        let (ba, ta) = tagged("A", ["K", "V", "W"], &a, 0);
        let (bb, tb) = tagged("B", ["K", "V", "X"], &b, 1);
        let (bc, tc) = tagged("C", ["K", "Y", "W"], &c, 2);
        let policy = POLICIES[policy_idx];
        let want = hash_merge(&[ta.clone(), tb.clone(), tc.clone()], "K", policy);
        let bases = [ba, bb, bc];
        let mut got = vec![hash_merge(&bases, "K", policy)];
        for threads in THREAD_COUNTS {
            let par = ParallelOptions { threads, partitions: threads.max(2) };
            let drop_used = |(m, c, _)| (m, c);
            got.push(hash_merge_partitioned(&bases, "K", policy, par).map(drop_used));
            got.push(
                hash_merge_partitioned(&[ta.clone(), tb.clone(), tc.clone()], "K", policy, par)
                    .map(drop_used),
            );
        }
        for got in got {
            match (&want, got) {
                (Ok((want, _)), Ok((got, _))) => prop_assert_eq!(want, &got),
                (Err(want), Err(got)) => prop_assert_eq!(
                    std::mem::discriminant(want),
                    std::mem::discriminant(&got)
                ),
                (want, got) => prop_assert!(false, "merge diverges: {:?} vs {:?}", want.is_ok(), got.is_ok()),
            }
        }
    }

    /// Kernel level: the coalesced equi-join with a base relation on the
    /// left, the right or both sides equals the join of the
    /// materializations, sequential and partitioned.
    #[test]
    fn join_over_base_rows_equals_join_over_tagged_tuples(
        l in rows(24),
        r in rows(24),
    ) {
        let (bl, tl) = tagged("L", ["K", "V", "W"], &l, 0);
        let (br, tr) = tagged("R", ["J", "X", "Y"], &r, 1);
        let want = hash_equi_join_coalesced(&tl, &tr, "K", "J", "J");
        let mut got = vec![
            hash_equi_join_coalesced(&bl, &br, "K", "J", "J"),
            hash_equi_join_coalesced(&bl, &tr, "K", "J", "J"),
            hash_equi_join_coalesced(&tl, &br, "K", "J", "J"),
        ];
        for threads in THREAD_COUNTS {
            let par = ParallelOptions { threads, partitions: threads.max(2) };
            let drop_used = |(j, _, _)| j;
            got.push(hash_equi_join_project(&bl, &br, "K", "J", "J", None, par).map(drop_used));
            got.push(hash_equi_join_project(&bl, &tr, "K", "J", "J", None, par).map(drop_used));
            got.push(hash_equi_join_project(&tl, &br, "K", "J", "J", None, par).map(drop_used));
            got.push(hash_equi_join_project(&tl, &tr, "K", "J", "J", None, par).map(drop_used));
        }
        for got in got {
            match (&want, got) {
                (Ok(want), Ok(got)) => prop_assert_eq!(want, &got),
                (Err(want), Err(got)) => prop_assert_eq!(
                    std::mem::discriminant(want),
                    std::mem::discriminant(&got)
                ),
                (want, got) => prop_assert!(false, "join diverges: {:?} vs {:?}", want.is_ok(), got.is_ok()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Plans are only built checked: random edits to compiled plans'
    /// public fields — the paper query and the self-joins over the MIT
    /// federation, every `QUERIES` shape over a hostile one, a random
    /// expression over a generated one — are accepted or rejected by
    /// `try_from_nodes`, and `execute_plan` answers or fails on the
    /// rebuilt plan and on the edited original alike. Nothing panics.
    #[test]
    fn edited_plans_never_panic(
        a in rows(6),
        d in rows(6),
        (rule, clean) in (0usize..4, any::<bool>()),
        (query_seed, depth) in (any::<u64>(), 1usize..5),
        edits in proptest::collection::vec((any::<u8>(), 0usize..64, 0usize..64), 1..4),
    ) {
        let mit = Pqp::for_scenario(&scenario::build());
        for expr in std::iter::once(PAPER_EXPRESSION).chain(SELF_JOINS) {
            survives_edits(&mit, expr, &edits);
        }
        let hostile = Pqp::for_scenario(&federation(&a, &a, &a, &d, rule, clean));
        for expr in QUERIES {
            survives_edits(&hostile, expr, &edits);
        }
        let config = small_config(query_seed, 3, 40);
        let generated = Pqp::for_scenario(&workload::generate(&config));
        let expr = workload::queries::random_expression(&config, query_seed, depth).to_string();
        survives_edits(&generated, &expr, &edits);
    }
}

/// A plain-retrieve Scan hands its consumers the rows the LQP holds —
/// the same allocation, not a copy — and Merge and Join consuming them
/// leave them where they are. Shipment counters advance exactly as they
/// did when every scan copied.
#[test]
fn plain_retrieve_leaves_share_the_lqps_rows() {
    let rows: Rows = (0..40).map(|i| (Some(i), i % 5, false)).collect();
    let held = flat("T", ["K", "V", "W"], &rows);
    let other = flat("U", ["K", "X", "Y"], &rows);
    let lqp = Arc::new(InMemoryLqp::new("A", vec![held.clone(), other]));
    let registry = LqpRegistry::new();
    registry.register(Arc::clone(&lqp) as Arc<dyn Lqp>);
    let mut dictionary = DataDictionary::new();
    dictionary.intern_source("A");

    let leaf = registry
        .scan("A", &LocalOp::retrieve("T"), &dictionary)
        .unwrap();
    assert!(Arc::ptr_eq(leaf.flat().shared_rows(), held.shared_rows()));
    assert_eq!(
        (lqp.counters().ops(), lqp.counters().tuples_shipped()),
        (1, 40)
    );
    let second = registry
        .scan("A", &LocalOp::retrieve("U"), &dictionary)
        .unwrap();
    assert_eq!(
        (lqp.counters().ops(), lqp.counters().tuples_shipped()),
        (2, 80)
    );

    // Consumers clone the leaf (pointer copies) and read it in place.
    let shared = leaf.clone();
    let relabeled = second.rename_attrs(&["K", "X", "Y"]).unwrap();
    let (merged, _) = hash_merge(&[shared, relabeled], "K", ConflictPolicy::Strict).unwrap();
    assert_eq!(merged.len(), 40);
    let joined = hash_equi_join_coalesced(&leaf, &second, "K", "K", "K").unwrap();
    assert_eq!(joined.len(), 40);
    assert!(Arc::ptr_eq(leaf.flat().shared_rows(), held.shared_rows()));
    assert_eq!(leaf.flat().rows(), held.rows());
    assert_eq!(
        leaf.materialize(),
        PolygenRelation::from_flat(&held, SourceId(0))
    );

    // A pushed-down select ships (and counts) only its survivors, and
    // `execute_tagged` is the scan, materialized.
    let op = LocalOp::select("T", "V", Cmp::Eq, Value::int(3));
    let survivors = registry.scan("A", &op, &dictionary).unwrap();
    assert_eq!(survivors.len(), 8);
    assert_eq!(
        (lqp.counters().ops(), lqp.counters().tuples_shipped()),
        (3, 88)
    );
    assert_eq!(
        registry.execute_tagged("A", &op, &dictionary).unwrap(),
        survivors.materialize()
    );
    assert_eq!(
        (lqp.counters().ops(), lqp.counters().tuples_shipped()),
        (4, 96)
    );
}

/// The scan a pushed-down `op` answered while the LQP copied its
/// survivors: the rows `keep` passes, copied, the domain rules applied,
/// every cell tagged.
fn copying_scan(
    held: &Relation,
    keep: impl Fn(&[Value]) -> bool,
    dictionary: &DataDictionary,
    source: SourceId,
) -> PolygenRelation {
    let copied = held.subset(|row| keep(row));
    let mapped = dictionary.domains().apply("A", &copied).unwrap();
    PolygenRelation::from_flat(&mapped, source)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A select, a restrict and both together, pushed down to an LQP
    /// with and without a value-rewriting domain rule: the scan
    /// materializes to the bytes the copying scan answered, ships (and
    /// counts) the same rows, and shares the LQP's rows unless a rule
    /// rewrote them. Gathering from it composes with its selection.
    #[test]
    fn selection_scans_answer_the_copying_scans_bytes(
        rows in rows(24),
        constant in 0i64..6,
        cmp in 0usize..4,
        rule in any::<bool>(),
        picks in proptest::collection::vec(0usize..24, 0..6),
    ) {
        let held = flat("T", ["K", "V", "W"], &rows);
        let lqp = Arc::new(InMemoryLqp::new("A", vec![held.clone()]));
        let registry = LqpRegistry::new();
        registry.register(Arc::clone(&lqp) as Arc<dyn Lqp>);
        let mut dictionary = DataDictionary::new();
        let source = dictionary.intern_source("A");
        if rule {
            dictionary.domains_mut().set("A", "T", "W", DomainRule::LastCommaToken);
        }
        let cmp = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Ge][cmp];
        let bound = Value::int(constant);
        let select = |row: &[Value]| row[1].satisfies(cmp, &bound);
        let restrict = |row: &[Value]| row[0].satisfies(Cmp::Le, &row[1]);
        let mut both = LocalOp::select("T", "V", cmp, bound.clone());
        both.restrict = Some(("K".into(), Cmp::Le, "V".into()));
        // (op, does it select, does it restrict)
        let cases = [
            (LocalOp::select("T", "V", cmp, bound.clone()), true, false),
            (LocalOp::restrict("T", "K", Cmp::Le, "V"), false, true),
            (both, true, true),
        ];
        for (op, selects, restricts) in cases {
            let keep = |row: &[Value]| (!selects || select(row)) && (!restricts || restrict(row));
            let want = copying_scan(&held, keep, &dictionary, source);
            let shipped = lqp.counters().tuples_shipped();
            let leaf = registry.scan("A", &op, &dictionary).unwrap();
            prop_assert_eq!(
                lqp.counters().tuples_shipped() - shipped,
                held.rows().iter().filter(|row| keep(row)).count() as u64,
                "{} ships its survivors", op
            );
            prop_assert_eq!(&leaf.materialize(), &want, "{}", op);
            prop_assert_eq!(&registry.execute_tagged("A", &op, &dictionary).unwrap(), &want);
            prop_assert_eq!(
                Arc::ptr_eq(leaf.flat().shared_rows(), held.shared_rows()),
                !rule,
                "{} shares the LQP's rows unless a rule rewrites them", op
            );
            let picked: Vec<u32> = {
                let mut seen = std::collections::HashSet::new();
                picks
                    .iter()
                    .filter(|&&i| i < leaf.len() && seen.insert(i))
                    .map(|&i| i as u32)
                    .collect()
            };
            let gathered: Vec<_> = picked
                .iter()
                .map(|&o| want.tuples()[o as usize].clone())
                .collect();
            prop_assert_eq!(leaf.gather(&picked).materialize().tuples(), gathered.as_slice());
            prop_assert_eq!(
                ColumnBatch::gather(&leaf, picked.clone()).into_relation().tuples(),
                gathered.as_slice()
            );
        }
    }
}

/// A pushed-down select ships ordinals, not copies: its leaf is the
/// LQP's stored rows themselves, counted as the survivors they stand
/// for, and an index probe gathers the same way — its leaf shares the
/// index's rows. A columnar batch gathered from either reads only the
/// selected rows.
#[test]
fn selection_leaves_share_the_stored_rows() {
    let rows: Rows = (0..40).map(|i| (Some(i % 8), i % 5, false)).collect();
    let held = flat("T", ["K", "V", "W"], &rows);
    let lqp = Arc::new(InMemoryLqp::new("A", vec![held.clone()]));
    let registry = LqpRegistry::new();
    registry.register(Arc::clone(&lqp) as Arc<dyn Lqp>);
    let mut dictionary = DataDictionary::new();
    let source = dictionary.intern_source("A");

    let op = LocalOp::select("T", "V", Cmp::Ge, Value::int(3));
    let leaf = registry.scan("A", &op, &dictionary).unwrap();
    assert!(Arc::ptr_eq(leaf.flat().shared_rows(), held.shared_rows()));
    assert_eq!(leaf.len(), 16);
    assert_eq!(lqp.counters().tuples_shipped(), 16);
    let want = copying_scan(
        &held,
        |row| row[1].satisfies(Cmp::Ge, &Value::int(3)),
        &dictionary,
        source,
    );
    assert_eq!(leaf.materialize(), want);

    let batch = ColumnBatch::gather(&leaf, vec![15, 0, 7]);
    assert_eq!(batch.ordinals(), &[15, 0, 7]);
    let picked = [15, 0, 7].map(|o: usize| want.tuples()[o].clone());
    assert_eq!(batch.into_relation().tuples(), picked.as_slice());

    let index = SourceIndex::build(IndexSpec::hash("A", "T", "K"), &registry, &dictionary).unwrap();
    let probed = index.probe_base(&Probe::Point(Value::int(3)));
    assert!(Arc::ptr_eq(
        probed.flat().shared_rows(),
        index.base().flat().shared_rows()
    ));
    let hits: Vec<_> = held
        .rows()
        .iter()
        .filter(|r| r[0] == Value::int(3))
        .collect();
    assert_eq!(probed.len(), hits.len());
    assert_eq!(
        probed.materialize(),
        index.probe_relation(&Probe::Point(Value::int(3)))
    );
    assert_eq!(
        index
            .probe_batch(&Probe::Point(Value::int(3)))
            .into_relation(),
        probed.materialize()
    );
    assert!(probed
        .materialize()
        .tuples()
        .iter()
        .all(|t| t[0].datum == Value::int(3)));
}

/// ROADMAP aim 3 — degrade per query, never per process: an LQP the
/// data dictionary never interned used to panic the executing thread at
/// the tagging boundary. It is a structured error in the LQP band now,
/// and the service answers the next query normally.
#[test]
fn uninterned_lqp_is_an_error_response_not_a_panic() {
    let mut sc = scenario::build();
    let mut dictionary = DataDictionary::with_parts(
        Default::default(),
        scenario::polygen_schema(),
        scenario::domain_map(),
    );
    // PD is registered as an LQP below, but never interned as a source.
    dictionary.intern_source("AD");
    dictionary.intern_source("CD");
    sc.dictionary = dictionary;
    let service = QueryService::for_scenario(&sc, ServeOptions::default());

    let refused = service.execute(Request::algebra("PSTUDENT [GPA >= 3]"));
    let Response::Error { code, message } = &refused else {
        panic!("expected an error response, got {refused:?}");
    };
    assert_eq!(*code, ErrorCode::Lqp);
    assert!(
        message.contains("PD") && message.contains("not interned"),
        "{message}"
    );

    let served = service.execute(Request::algebra("PALUMNUS [DEGREE = \"MBA\"]"));
    let answer = served
        .rows()
        .unwrap_or_else(|| panic!("the next query must answer normally, got {served:?}"));
    assert_eq!(answer.len(), 5);
}
