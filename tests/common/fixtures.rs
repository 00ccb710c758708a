//! Federation/scenario builders and engine-agreement assertions shared by
//! the property suites (`properties_executor`, `properties_pipeline`,
//! `properties_parallel`).
//!
//! The central assertion is [`assert_parallel_matches`]: one expression,
//! three engines — the eager row-by-row reference interpreter, the
//! sequential physical engine, and the partition-parallel physical engine
//! at a given thread count — must produce identical relations (data,
//! origin tags *and* intermediate tags), for the answer and for every
//! traced `R(n)`; and the sequential and parallel physical runs must be
//! byte-identical including tuple order.

use polygen::catalog::scenario::Scenario;
use polygen::catalog::schema::PolygenSchema;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::core::PolygenRelation;
use polygen::obs::trace::Trace;
use polygen::pqp::prelude::*;
use polygen::serve::request::{Request, Response, ResponseInfo};
use polygen::serve::QueryService;
use polygen::sql::prelude::parse_algebra;
use polygen::workload::{self, WorkloadConfig};
use std::sync::Arc;

/// A small, fast-to-generate federation config for property tests. The
/// entity pool stays ≥ 64 tuples so parallel runs actually cross the
/// executor's small-input threshold.
pub fn small_config(seed: u64, sources: usize, entities: usize) -> WorkloadConfig {
    WorkloadConfig::default()
        .with_seed(seed)
        .with_sources(sources)
        .with_entities(entities)
}

/// The same with a positive conflict rate, to exercise the resolution
/// policies (and the `Strict` rejection paths).
pub fn conflicted_config(seed: u64, sources: usize, entities: usize) -> WorkloadConfig {
    WorkloadConfig {
        conflict_rate: 0.3,
        ..small_config(seed, sources, entities)
    }
}

/// Serve a request that must answer rows: the answer and its info.
pub fn serve_rows(
    service: &QueryService,
    request: Request,
) -> (Arc<PolygenRelation>, ResponseInfo) {
    let text = request.text.clone();
    match service.execute(request) {
        Response::Rows { answer, info } => (answer, info),
        other => panic!("query `{text}` did not answer rows: {other:?}"),
    }
}

/// Generate the federation and stand up a PQP over it.
pub fn generate_pqp(config: &WorkloadConfig) -> (Scenario, Pqp) {
    let scenario = workload::generate(config);
    let pqp = Pqp::for_scenario(&scenario);
    (scenario, pqp)
}

/// Compile an algebra expression to its (unoptimized) IOM.
pub fn compile(expr: &str, schema: &PolygenSchema) -> Iom {
    let pom = analyze(&parse_algebra(expr).unwrap()).unwrap();
    interpret(&pom, schema).unwrap().1
}

/// Same error variant (and, for algebra errors, same inner variant) —
/// payloads may differ legitimately (the fold, the hash merge and the
/// partitioned merge detect the first conflict in different orders).
pub fn same_error_kind(a: &PqpError, b: &PqpError) -> bool {
    use std::mem::discriminant;
    if discriminant(a) != discriminant(b) {
        return false;
    }
    match (a, b) {
        (PqpError::Polygen(x), PqpError::Polygen(y)) => discriminant(x) == discriminant(y),
        _ => true,
    }
}

/// Run one expression through the eager reference interpreter, the
/// sequential physical engine and the partition-parallel physical engine
/// at `threads` workers, and assert they agree completely — answers and
/// every retained `R(n)` (tags included), with the two physical runs
/// additionally byte-identical in tuple order. Rejections must agree in
/// error kind across all three.
pub fn assert_parallel_matches(
    scenario: &Scenario,
    expr: &str,
    policy: ConflictPolicy,
    threads: usize,
) {
    let registry = polygen::lqp::scenario_registry(scenario);
    let iom = compile(expr, scenario.dictionary.schema());
    let opts = |threads: usize, retain: bool| PqpOptions {
        conflict_policy: policy,
        retain_intermediates: retain,
        threads,
        partitions: threads,
        ..PqpOptions::default()
    };
    let eager = execute_eager(&iom, &registry, &scenario.dictionary, &opts(1, false));
    let sequential = execute(&iom, &registry, &scenario.dictionary, &opts(1, false));
    let parallel = execute(&iom, &registry, &scenario.dictionary, &opts(threads, false));
    match (eager, sequential, parallel) {
        (Ok((eager, _)), Ok((seq, _)), Ok((parl, _))) => {
            assert!(
                eager.tagged_set_eq(&seq),
                "eager vs sequential diverge on `{expr}`:\n eager: {} rows\n sequential: {} rows",
                eager.len(),
                seq.len()
            );
            assert!(
                eager.tagged_set_eq(&parl),
                "eager vs parallel({threads}) diverge on `{expr}`:\n eager: {} rows\n parallel: {} rows",
                eager.len(),
                parl.len()
            );
            assert_eq!(
                seq.tuples(),
                parl.tuples(),
                "parallel({threads}) is not byte-identical to sequential on `{expr}`"
            );
            // Retained runs: every traced R(n) must match across engines.
            let (_, eager_trace) =
                execute_eager(&iom, &registry, &scenario.dictionary, &opts(1, true)).unwrap();
            let (_, seq_trace) =
                execute(&iom, &registry, &scenario.dictionary, &opts(1, true)).unwrap();
            let (_, parl_trace) =
                execute(&iom, &registry, &scenario.dictionary, &opts(threads, true)).unwrap();
            assert_eq!(eager_trace.results.len(), seq_trace.results.len());
            assert_eq!(eager_trace.results.len(), parl_trace.results.len());
            for (pr, rel) in &eager_trace.results {
                assert!(
                    rel.tagged_set_eq(seq_trace.result(*pr).expect("traced row")),
                    "sequential R({pr}) diverges on `{expr}`"
                );
                assert!(
                    rel.tagged_set_eq(parl_trace.result(*pr).expect("traced row")),
                    "parallel({threads}) R({pr}) diverges on `{expr}`"
                );
            }
        }
        (Err(ee), Err(se), Err(pe)) => {
            // All three reject (e.g. a strict conflict) — for the same
            // *kind* of reason, or an engine defect could hide behind an
            // unrelated error.
            assert!(
                same_error_kind(&ee, &se),
                "eager and sequential reject `{expr}` differently:\n eager: {ee}\n sequential: {se}"
            );
            assert!(
                same_error_kind(&ee, &pe),
                "eager and parallel({threads}) reject `{expr}` differently:\n eager: {ee}\n parallel: {pe}"
            );
        }
        (eager, sequential, parallel) => panic!(
            "engines disagree on success for `{expr}` (threads = {threads}):\n eager: {}\n sequential: {}\n parallel: {}",
            outcome(&eager),
            outcome(&sequential),
            outcome(&parallel)
        ),
    }
}

/// Sequential physical engine vs the eager reference (no parallelism) —
/// the pre-parallel differential contract.
pub fn assert_engines_agree(scenario: &Scenario, expr: &str, policy: ConflictPolicy) {
    assert_parallel_matches(scenario, expr, policy, 1);
}

/// Run one expression's production plan — whose eligible leaf pipelines
/// take the columnar batch kernels — against two references at `threads`
/// workers: the same plan walked in retention mode (leaves tagged
/// eagerly, every stage on the `TupleStream` row kernels) and the eager
/// interpreter. The production run must be byte-identical to the row
/// walk (data, tags *and* tuple order) and tag-set-equal to the eager
/// reference. Rejections must agree in error kind across all three.
pub fn assert_batch_matches(
    scenario: &Scenario,
    expr: &str,
    policy: ConflictPolicy,
    threads: usize,
) {
    let registry = polygen::lqp::scenario_registry(scenario);
    let iom = compile(expr, scenario.dictionary.schema());
    let opts = |retain: bool| PqpOptions {
        conflict_policy: policy,
        retain_intermediates: retain,
        threads,
        partitions: threads,
        ..PqpOptions::default()
    };
    let eager = execute_eager(&iom, &registry, &scenario.dictionary, &opts(false));
    let plan = lower_plan(&iom, &registry, &scenario.dictionary, &opts(false));
    let (row, batch) = match plan {
        Ok(plan) => {
            let run = |retain| {
                execute_plan(
                    &plan,
                    &registry,
                    &scenario.dictionary,
                    None,
                    &opts(retain),
                    &Trace::disabled(),
                )
            };
            (run(true), run(false))
        }
        Err(e) => (Err(e.clone()), Err(e)),
    };
    match (eager, row, batch) {
        (Ok((eager, _)), Ok((row, _)), Ok((batch, _))) => {
            assert!(
                eager.tagged_set_eq(&batch),
                "eager vs batch({threads}) diverge on `{expr}`:\n eager: {} rows\n batch: {} rows",
                eager.len(),
                batch.len()
            );
            assert_eq!(
                row.tuples(),
                batch.tuples(),
                "batch({threads}) is not byte-identical to the row walk on `{expr}`"
            );
        }
        (Err(ee), Err(re), Err(be)) => {
            assert!(
                same_error_kind(&ee, &re),
                "eager and row walk reject `{expr}` differently:\n eager: {ee}\n row: {re}"
            );
            assert!(
                same_error_kind(&ee, &be),
                "eager and batch({threads}) reject `{expr}` differently:\n eager: {ee}\n batch: {be}"
            );
        }
        (eager, row, batch) => panic!(
            "engines disagree on success for `{expr}` (threads = {threads}):\n eager: {}\n row: {}\n batch: {}",
            outcome(&eager),
            outcome(&row),
            outcome(&batch)
        ),
    }
}

fn outcome<T>(r: &Result<T, PqpError>) -> String {
    match r {
        Ok(_) => "Ok".to_string(),
        Err(e) => format!("Err({e})"),
    }
}
