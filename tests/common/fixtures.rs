//! Federation/scenario builders and engine-agreement assertions shared by
//! the property suites (`properties_executor`, `properties_pipeline`,
//! `properties_parallel`).
//!
//! The central assertion is [`assert_parallel_matches`]: one expression,
//! three engines — the eager row-by-row reference interpreter, the
//! sequential physical engine, and the partition-parallel physical engine
//! at a given thread count — must produce byte-identical relations
//! (schema, data, origin tags, intermediate tags and tuple order), for the
//! answer and for every `R(n)`, which the physical engine computes by
//! running the IOM's prefix `rows[..n]`.

use polygen::catalog::scenario::Scenario;
use polygen::catalog::schema::PolygenSchema;
use polygen::core::algebra::coalesce::ConflictPolicy;
use polygen::core::PolygenRelation;
use polygen::flat::{Relation, Schema};
use polygen::lqp::prelude::{Capabilities, InMemoryLqp, LocalOp, Lqp, LqpError};
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
        Response::Rows { answer, info } => (Arc::clone(answer.relation()), info),
        other => panic!("query `{text}` did not answer rows: {other:?}"),
    }
}

/// An LQP with a real source's relations whose every retrieve panics —
/// the fault a containment test swaps in through
/// `QueryService::update_source`.
pub struct PanickingLqp(InMemoryLqp);

impl Lqp for PanickingLqp {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn capabilities(&self) -> Capabilities {
        self.0.capabilities()
    }

    fn relation_names(&self) -> Vec<String> {
        self.0.relation_names()
    }

    fn schema_of(&self, relation: &str) -> Option<Arc<Schema>> {
        self.0.schema_of(relation)
    }

    fn row_count(&self, relation: &str) -> Option<usize> {
        self.0.row_count(relation)
    }

    fn execute(&self, op: &LocalOp) -> Result<Relation, LqpError> {
        panic!("injected fault: {} cannot retrieve {op}", self.0.name())
    }
}

/// `scenario`'s source `name` behind a [`PanickingLqp`].
pub fn panicking_source(scenario: &Scenario, name: &str) -> Arc<PanickingLqp> {
    let db = scenario
        .database(name)
        .expect("the scenario has the source");
    Arc::new(PanickingLqp(InMemoryLqp::new(name, db.relations.clone())))
}

/// Generate the federation and stand up a PQP over it.
pub fn generate_pqp(config: &WorkloadConfig) -> (Scenario, Pqp) {
    let scenario = workload::generate(config);
    let pqp = Pqp::for_scenario(&scenario);
    (scenario, pqp)
}

/// Compile algebra text on `pqp` and run it under the PQP's own engine
/// settings (conflict policy, threads, index catalog): the compiled
/// stages and the answer.
pub fn run_algebra(pqp: &Pqp, text: &str) -> Result<(CompiledQuery, PolygenRelation), PqpError> {
    let compiled = pqp.compile(parse_algebra(text)?)?;
    let answer = pqp.run_compiled(&compiled)?;
    Ok((compiled, answer))
}

/// Compile an algebra expression to its IOM (Table 3's form).
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
/// at `threads` workers, and assert they agree byte for byte — schema,
/// data, tags and tuple order — on the answer and on every intermediate
/// relation: the physical run (at 1 and at `threads` workers) of each
/// prefix `rows[..n]` of the IOM must equal eager's `R(n)`. Rejections
/// must agree in error kind across all three.
pub fn assert_parallel_matches(
    scenario: &Scenario,
    expr: &str,
    policy: ConflictPolicy,
    threads: usize,
) {
    let registry = polygen::lqp::scenario_registry(scenario);
    let iom = compile(expr, scenario.dictionary.schema());
    let opts = |threads: usize| PqpOptions {
        conflict_policy: policy,
        threads,
        partitions: threads,
        ..PqpOptions::default()
    };
    let eager = execute_eager(&iom, &registry, &scenario.dictionary, &opts(1));
    let sequential = run_iom(&iom, &registry, &scenario.dictionary, &opts(1));
    let parallel = run_iom(&iom, &registry, &scenario.dictionary, &opts(threads));
    match (eager, sequential, parallel) {
        (Ok((eager, trace)), Ok(seq), Ok(parl)) => {
            assert_same_bytes(&eager, &seq, &format!("sequential answer to `{expr}`"));
            assert_same_bytes(
                &eager,
                &parl,
                &format!("parallel({threads}) answer to `{expr}`"),
            );
            let counts = if threads == 1 { vec![1] } else { vec![1, threads] };
            for n in 1..iom.rows.len() {
                let prefix = Iom {
                    rows: iom.rows[..n].to_vec(),
                };
                let pr = iom.rows[n - 1].pr;
                let want = trace.result(pr).expect("eager keeps every R(n)");
                for &t in &counts {
                    let got = run_iom(&prefix, &registry, &scenario.dictionary, &opts(t))
                        .unwrap_or_else(|e| {
                            panic!("R({pr}) of `{expr}` fails at {t} threads but eager answers: {e}")
                        });
                    assert_same_bytes(want, &got, &format!("R({pr}) of `{expr}` at {t} threads"));
                }
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

/// Lower an IOM and run it on the physical engine, with no index
/// catalog and no trace.
pub fn run_iom(
    iom: &Iom,
    registry: &polygen::lqp::registry::LqpRegistry,
    dictionary: &polygen::catalog::dictionary::DataDictionary,
    options: &PqpOptions,
) -> Result<PolygenRelation, PqpError> {
    let plan = lower_plan(iom, registry, dictionary)?;
    let trace = polygen::obs::trace::Trace::disabled();
    execute_plan(&plan, registry, dictionary, None, options, &trace)
}

/// Byte-identity of two relations: schema, data, tags and tuple order.
pub fn assert_same_bytes(want: &PolygenRelation, got: &PolygenRelation, what: &str) {
    assert_eq!(want.schema(), got.schema(), "{what}: schemas diverge");
    assert_eq!(
        want.tuples(),
        got.tuples(),
        "{what}: not byte-identical to the eager reference"
    );
}

/// Sequential physical engine vs the eager reference (no parallelism) —
/// the pre-parallel differential contract.
pub fn assert_engines_agree(scenario: &Scenario, expr: &str, policy: ConflictPolicy) {
    assert_parallel_matches(scenario, expr, policy, 1);
}

/// Run one expression's production plan — whose eligible leaf pipelines
/// take the columnar batch kernels — at `threads` workers against the
/// eager interpreter: the answer must be byte-identical (schema, data,
/// tags and tuple order), and rejections must agree in error kind.
pub fn assert_batch_matches(
    scenario: &Scenario,
    expr: &str,
    policy: ConflictPolicy,
    threads: usize,
) {
    let registry = polygen::lqp::scenario_registry(scenario);
    let iom = compile(expr, scenario.dictionary.schema());
    let opts = PqpOptions {
        conflict_policy: policy,
        threads,
        partitions: threads,
        ..PqpOptions::default()
    };
    let eager = execute_eager(&iom, &registry, &scenario.dictionary, &opts);
    let batch = run_iom(&iom, &registry, &scenario.dictionary, &opts);
    match (eager, batch) {
        (Ok((eager, _)), Ok(batch)) => {
            assert_same_bytes(&eager, &batch, &format!("batch({threads}) answer to `{expr}`"));
        }
        (Err(ee), Err(be)) => {
            assert!(
                same_error_kind(&ee, &be),
                "eager and batch({threads}) reject `{expr}` differently:\n eager: {ee}\n batch: {be}"
            );
        }
        (eager, batch) => panic!(
            "engines disagree on success for `{expr}` (threads = {threads}):\n eager: {}\n batch: {}",
            outcome(&eager),
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
