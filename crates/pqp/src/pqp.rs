//! The Polygen Query Processor facade (Figure 2).
//!
//! Wires the pipeline together: SQL (or algebra text) → lowering → Syntax
//! Analyzer → POM → two-pass Polygen Operation Interpreter → IOM → Query
//! Optimizer → executor → tagged composite answer.

use crate::analyzer::analyze;
use crate::error::PqpError;
use crate::executor::{execute_plan, ExecutionTrace};
use crate::interpreter::interpret;
use crate::iom::Iom;
use crate::optimizer::{optimize, OptimizerReport};
use crate::plan::{lower as lower_plan, PhysicalPlan};
use crate::pom::Pom;
use polygen_catalog::dictionary::DataDictionary;
use polygen_catalog::scenario::Scenario;
use polygen_core::algebra::coalesce::ConflictPolicy;
use polygen_core::relation::PolygenRelation;
use polygen_core::stream::ParallelOptions;
use polygen_index::IndexCatalog;
use polygen_lqp::registry::LqpRegistry;
use polygen_lqp::scenario_registry;
use polygen_obs::trace::Trace;
use polygen_sql::algebra_expr::{parse_algebra, AlgebraExpr};
use polygen_sql::lower::{lower, LoweringOptions};
use polygen_sql::parser::parse_query;
use std::sync::Arc;

/// The engine configuration: the one statement of every execution
/// decision. The lowerer, the executor and the serving layer all read
/// it; the service overrides only `threads` per query, with the
/// allotment admission hands it.
#[derive(Debug, Clone, Copy)]
pub struct PqpOptions {
    /// SQL lowering mode (paper vs strict range variables).
    pub lowering: LoweringOptions,
    /// What Merge does when two sources disagree on a non-key attribute.
    pub conflict_policy: ConflictPolicy,
    /// Run the Query Optimizer (off reproduces the paper's "Table 3 used
    /// as a query execution plan … without further optimization").
    pub optimize: bool,
    /// Retain every `R(n)` in the [`ExecutionTrace`]. Off (the default),
    /// the lowerer fuses Select/Restrict/Project chains into pipelines
    /// and execution keeps only the final relation; on, lowering maps
    /// the plan 1:1 onto IOM rows and every `R(n)` materializes into the
    /// trace (a fused plan handed to the executor is still captured
    /// stage by stage) — the golden-table tests read Tables 4–9 this way.
    pub retain_intermediates: bool,
    /// Worker threads for partition-parallel operators (fused stage
    /// chains, hash joins, hash merges). `0` (the default) = auto: the
    /// `POLYGEN_THREADS` environment variable when set, otherwise
    /// [`std::thread::available_parallelism`]. `1` = exactly the
    /// sequential engine. Only execution reads it: answers, plans,
    /// EXPLAIN text and cost estimates are identical on every setting,
    /// and EXPLAIN ANALYZE shows the fan-out a node actually ran at.
    pub threads: usize,
    /// Hash/chunk partition count for parallel operators. `0` = the
    /// thread count; larger values over-partition, which rebalances
    /// key-skewed loads across the workers.
    pub partitions: usize,
}

impl Default for PqpOptions {
    fn default() -> Self {
        PqpOptions {
            lowering: LoweringOptions::default(),
            conflict_policy: ConflictPolicy::Strict,
            optimize: false,
            retain_intermediates: false,
            threads: 0,
            partitions: 0,
        }
    }
}

impl PqpOptions {
    /// Builder-style thread-count override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// `threads` and `partitions` with their `0` ("auto") values
    /// resolved — the most the executor fans an operator out to.
    pub fn parallelism(&self) -> ParallelOptions {
        ParallelOptions::resolved(self.threads, self.partitions)
    }
}

/// Everything the translation pipeline produced for one query.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The algebra expression (parsed or lowered).
    pub expr: AlgebraExpr,
    /// Table-1-style operation matrix.
    pub pom: Pom,
    /// The half-processed matrix after pass one (Table 2).
    pub half: Iom,
    /// The full IOM after pass two (Table 3).
    pub iom: Iom,
    /// The optimizer's output (equal to `iom` when optimization is off).
    pub plan: Iom,
    /// What the optimizer changed.
    pub optimizer_report: OptimizerReport,
    /// The physical operator DAG lowered from `plan` — what actually
    /// executes (hash joins, k-way hash merge, fused pipelines).
    pub physical: PhysicalPlan,
}

/// One executed query: the answer plus every intermediate relation.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The compiled pipeline stages.
    pub compiled: CompiledQuery,
    /// The tagged composite answer.
    pub answer: PolygenRelation,
    /// Per-row intermediate relations (Tables 4–9 for the paper query).
    pub trace: ExecutionTrace,
}

/// The PQP.
pub struct Pqp {
    dictionary: Arc<DataDictionary>,
    registry: Arc<LqpRegistry>,
    options: PqpOptions,
    indexes: Option<Arc<IndexCatalog>>,
}

impl Pqp {
    /// Build a PQP over a dictionary and an LQP registry.
    pub fn new(dictionary: Arc<DataDictionary>, registry: Arc<LqpRegistry>) -> Self {
        Pqp {
            dictionary,
            registry,
            options: PqpOptions::default(),
            indexes: None,
        }
    }

    /// Stand up the paper's MIT scenario end to end.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        let registry = Arc::new(scenario_registry(scenario));
        Pqp::new(Arc::new(scenario.dictionary.clone()), registry)
    }

    /// Override options.
    pub fn with_options(mut self, options: PqpOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a secondary-index catalog: [`Pqp::compile`] routes
    /// eligible Scan leaves onto it and [`Pqp::run_compiled`] probes it.
    /// The catalog must stay in sync with the registry's data — the
    /// serving layer guarantees this by owning both in one immutable
    /// snapshot; direct users rebuild the catalog when they swap LQPs.
    pub fn with_indexes(mut self, indexes: Arc<IndexCatalog>) -> Self {
        self.indexes = Some(indexes);
        self
    }

    /// The attached index catalog, if any.
    pub fn indexes(&self) -> Option<&Arc<IndexCatalog>> {
        self.indexes.as_ref()
    }

    /// The data dictionary.
    pub fn dictionary(&self) -> &DataDictionary {
        &self.dictionary
    }

    /// The LQP registry.
    pub fn registry(&self) -> &LqpRegistry {
        &self.registry
    }

    /// Current options.
    pub fn options(&self) -> PqpOptions {
        self.options
    }

    /// Translate SQL text into a polygen algebra expression using the
    /// polygen schema as the lowering resolver. The resolver borrows the
    /// dictionary's schema — no per-query clone of the whole
    /// `PolygenSchema` (this runs once per served query).
    pub fn translate_sql(&self, sql: &str) -> Result<AlgebraExpr, PqpError> {
        let query = parse_query(sql)?;
        let schema = self.dictionary.schema();
        let resolver = |rel: &str| -> Option<Vec<String>> {
            schema
                .scheme(rel)
                .map(|s| s.attr_names().map(str::to_string).collect())
        };
        Ok(lower(&query, &resolver, self.options.lowering)?)
    }

    /// Compile an algebra expression through POM, the two interpreter
    /// passes and the optimizer.
    pub fn compile(&self, expr: AlgebraExpr) -> Result<CompiledQuery, PqpError> {
        let pom = analyze(&expr)?;
        let (half, iom) = interpret(&pom, self.dictionary.schema())?;
        let (plan, optimizer_report) = if self.options.optimize {
            optimize(&iom, &self.registry, &self.dictionary)?
        } else {
            (iom.clone(), OptimizerReport::default())
        };
        let mut physical = lower_plan(&plan, &self.registry, &self.dictionary, &self.options)?;
        // Index pushdown: swap eligible Scan leaves for probes. Skipped
        // in retention mode — the golden-table trace expects every
        // `R(n)` to materialize from full scans.
        if let Some(catalog) = &self.indexes {
            if !self.options.retain_intermediates {
                physical = crate::plan::route_index_scans(&physical, catalog);
            }
        }
        Ok(CompiledQuery {
            expr,
            pom,
            half,
            iom,
            plan,
            optimizer_report,
            physical,
        })
    }

    /// Execute a *borrowed* compiled query — the reusable-plan-handle
    /// entry point. A plan cache compiles once and replays the same
    /// `CompiledQuery` across sessions. The plan carries no parallelism:
    /// the thread/partition knobs come from the executing PQP's options,
    /// so one cached plan serves every concurrency level.
    pub fn run_compiled(
        &self,
        compiled: &CompiledQuery,
    ) -> Result<(PolygenRelation, ExecutionTrace), PqpError> {
        self.run_compiled_traced(compiled, &Trace::disabled())
    }

    /// [`Pqp::run_compiled`] with a span recorder attached: an enabled
    /// `trace` collects one span per physical node (rows out, kernel
    /// taken, partitions). Execution is byte-identical either way —
    /// spans observe, never steer.
    pub fn run_compiled_traced(
        &self,
        compiled: &CompiledQuery,
        trace: &Trace,
    ) -> Result<(PolygenRelation, ExecutionTrace), PqpError> {
        execute_plan(
            &compiled.physical,
            &self.registry,
            &self.dictionary,
            self.indexes.as_deref(),
            &self.options,
            trace,
        )
    }

    /// Execute a compiled query on the physical-plan engine.
    pub fn run(&self, compiled: CompiledQuery) -> Result<QueryOutcome, PqpError> {
        let (answer, trace) = self.run_compiled(&compiled)?;
        Ok(QueryOutcome {
            compiled,
            answer,
            trace,
        })
    }

    /// EXPLAIN ANALYZE a compiled query: execute it under an enabled
    /// trace and render the physical tree with the cost model's
    /// estimates beside the measured per-node actuals
    /// (`est=(µs, ~rows)  act=(µs, rows)` on every line).
    pub fn explain_analyze_compiled(&self, compiled: &CompiledQuery) -> Result<String, PqpError> {
        let trace = Trace::enabled();
        self.run_compiled_traced(compiled, &trace)?;
        let report = trace.report().unwrap_or_default();
        Ok(crate::explain::render_analyzed_plan(
            &compiled.physical,
            &self.registry,
            &report,
        ))
    }

    /// EXPLAIN ANALYZE for SQL text (compile, execute traced, render).
    pub fn explain_analyze(&self, sql: &str) -> Result<String, PqpError> {
        let compiled = self.compile(self.translate_sql(sql)?)?;
        self.explain_analyze_compiled(&compiled)
    }

    /// SQL in, tagged composite answer out.
    pub fn query(&self, sql: &str) -> Result<QueryOutcome, PqpError> {
        let expr = self.translate_sql(sql)?;
        self.run(self.compile(expr)?)
    }

    /// Algebra-expression text in, tagged composite answer out.
    pub fn query_algebra(&self, text: &str) -> Result<QueryOutcome, PqpError> {
        let expr = parse_algebra(text)?;
        self.run(self.compile(expr)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_catalog::scenario;
    use polygen_flat::value::Value;
    use polygen_sql::algebra_expr::PAPER_EXPRESSION;

    const PAPER_SQL: &str = "SELECT ONAME, CEO \
        FROM PORGANIZATION, PALUMNUS \
        WHERE CEO = ANAME AND ONAME IN \
        (SELECT ONAME FROM PCAREER WHERE AID# IN \
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"MBA\"))";

    #[test]
    fn sql_and_algebra_paths_agree() {
        let s = scenario::build();
        let pqp = Pqp::for_scenario(&s);
        let via_sql = pqp.query(PAPER_SQL).unwrap();
        let via_algebra = pqp.query_algebra(PAPER_EXPRESSION).unwrap();
        assert!(via_sql.answer.tagged_set_eq(&via_algebra.answer));
        assert_eq!(via_sql.compiled.pom, via_algebra.compiled.pom);
    }

    #[test]
    fn optimizing_pqp_returns_same_answer() {
        let s = scenario::build();
        let naive = Pqp::for_scenario(&s);
        let opt = Pqp::for_scenario(&s).with_options(PqpOptions {
            optimize: true,
            ..PqpOptions::default()
        });
        let a = naive.query(PAPER_SQL).unwrap();
        let b = opt.query(PAPER_SQL).unwrap();
        assert!(a.answer.tagged_set_eq(&b.answer));
    }

    #[test]
    fn outcome_exposes_pipeline_stages() {
        let s = scenario::build();
        let pqp = Pqp::for_scenario(&s);
        let out = pqp.query_algebra(PAPER_EXPRESSION).unwrap();
        assert_eq!(out.compiled.pom.cardinality(), 5);
        assert_eq!(out.compiled.half.cardinality(), 5);
        assert_eq!(out.compiled.iom.cardinality(), 10);
        assert_eq!(out.answer.len(), 3);
        // Production default: fused physical plan, final-only trace.
        assert!(out.compiled.physical.fused_rows() > 0);
        assert_eq!(out.trace.results.len(), 1);
    }

    #[test]
    fn retained_outcome_exposes_full_trace() {
        let s = scenario::build();
        let pqp = Pqp::for_scenario(&s).with_options(PqpOptions {
            retain_intermediates: true,
            ..PqpOptions::default()
        });
        let out = pqp.query_algebra(PAPER_EXPRESSION).unwrap();
        assert_eq!(out.trace.results.len(), 10);
        assert_eq!(
            out.compiled.physical.fused_rows(),
            0,
            "retention disables fusion"
        );
        assert!(out.trace.result(10).unwrap().tagged_set_eq(&out.answer));
    }

    #[test]
    fn thread_knob_keeps_answers_and_plans_identical() {
        let s = scenario::build();
        let sequential = Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(1));
        let a = sequential.query_algebra(PAPER_EXPRESSION).unwrap();
        let shown = crate::plan::render_plan(&a.compiled.physical);
        for threads in [2usize, 4, 8] {
            let parallel =
                Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(threads));
            let b = parallel.query_algebra(PAPER_EXPRESSION).unwrap();
            assert!(
                a.answer.tagged_set_eq(&b.answer),
                "threads = {threads} changed the answer"
            );
            assert_eq!(
                crate::plan::render_plan(&b.compiled.physical),
                shown,
                "threads = {threads} changed the plan"
            );
        }
    }

    #[test]
    fn indexed_pqp_routes_and_matches_unindexed_byte_for_byte() {
        use polygen_index::{IndexCatalog, IndexSpec};
        use std::sync::Arc;
        let s = scenario::build();
        let plain = Pqp::for_scenario(&s);
        let catalog = Arc::new(
            IndexCatalog::build(
                &[
                    IndexSpec::hash("AD", "ALUMNUS", "DEG"),
                    IndexSpec::sorted("AD", "ALUMNUS", "AID#"),
                ],
                plain.registry(),
                plain.dictionary(),
            )
            .unwrap(),
        );
        for threads in [1usize, 4] {
            let indexed = Pqp::for_scenario(&s)
                .with_options(PqpOptions::default().with_threads(threads))
                .with_indexes(Arc::clone(&catalog));
            for expr in [
                PAPER_EXPRESSION,
                "PALUMNUS [DEGREE = \"MBA\"] [AID#, ANAME]",
                "PALUMNUS [AID# >= \"200\"] [AID# <= \"600\"]",
                "PALUMNUS [DEGREE <> \"MBA\"]",
            ] {
                let a = plain.query_algebra(expr).unwrap();
                let b = indexed.query_algebra(expr).unwrap();
                assert_eq!(
                    a.answer.tuples(),
                    b.answer.tuples(),
                    "indexed execution diverged on `{expr}` (threads = {threads})"
                );
            }
            // The selective queries actually routed.
            let routed = indexed
                .compile(parse_algebra("PALUMNUS [DEGREE = \"MBA\"]").unwrap())
                .unwrap();
            assert_eq!(routed.physical.index_scans(), 1);
        }
        // Retention mode (golden tables) never routes.
        let retained = Pqp::for_scenario(&s)
            .with_options(PqpOptions {
                retain_intermediates: true,
                ..PqpOptions::default()
            })
            .with_indexes(Arc::clone(&catalog));
        let out = retained.query_algebra(PAPER_EXPRESSION).unwrap();
        assert_eq!(out.compiled.physical.index_scans(), 0);
        assert_eq!(out.trace.results.len(), 10);
    }

    #[test]
    fn routed_plan_without_catalog_fails_loudly() {
        use polygen_index::{IndexCatalog, IndexSpec};
        use std::sync::Arc;
        let s = scenario::build();
        let indexed = Pqp::for_scenario(&s).with_indexes(Arc::new(
            IndexCatalog::build(
                &[IndexSpec::hash("AD", "ALUMNUS", "DEG")],
                Pqp::for_scenario(&s).registry(),
                &s.dictionary,
            )
            .unwrap(),
        ));
        let compiled = indexed
            .compile(parse_algebra("PALUMNUS [DEGREE = \"MBA\"]").unwrap())
            .unwrap();
        assert_eq!(compiled.physical.index_scans(), 1);
        // Executing the routed plan on a catalog-less PQP must not
        // silently fall back to scanning.
        let bare = Pqp::for_scenario(&s);
        let err = bare.run_compiled(&compiled).unwrap_err();
        assert!(err.to_string().contains("index"), "{err}");
    }

    #[test]
    fn answer_has_paper_tags() {
        let s = scenario::build();
        let pqp = Pqp::for_scenario(&s);
        let out = pqp.query_algebra(PAPER_EXPRESSION).unwrap();
        let reg = pqp.dictionary().registry();
        let (ad, pd, cd) = (
            reg.lookup("AD").unwrap(),
            reg.lookup("PD").unwrap(),
            reg.lookup("CD").unwrap(),
        );
        // Genentech, {AD, CD}, {AD, CD}
        let g = out
            .answer
            .cell("ONAME", &Value::str("Genentech"), "ONAME")
            .unwrap();
        assert!(g.origin.contains(ad) && g.origin.contains(cd) && !g.origin.contains(pd));
        assert!(g.intermediate.contains(ad) && g.intermediate.contains(cd));
        // Bob Swanson, {CD}, {AD, CD}
        let bs = out
            .answer
            .cell("ONAME", &Value::str("Genentech"), "CEO")
            .unwrap();
        assert_eq!(bs.datum, Value::str("Bob Swanson"));
        assert!(bs.origin.contains(cd) && !bs.origin.contains(ad));
        assert!(bs.intermediate.contains(ad) && bs.intermediate.contains(cd));
    }

    #[test]
    fn errors_propagate() {
        let s = scenario::build();
        let pqp = Pqp::for_scenario(&s);
        assert!(pqp.query("SELECT").is_err());
        assert!(pqp.query("SELECT X FROM NOPE").is_err());
        assert!(pqp.query_algebra("NOPE [X = 1]").is_err());
    }
}
