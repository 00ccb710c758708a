//! The Polygen Query Processor facade (Figure 2).
//!
//! Wires the pipeline together: SQL (or algebra text) → lowering → Syntax
//! Analyzer → POM → two-pass Polygen Operation Interpreter → IOM →
//! physical plan → executor → tagged composite answer. As in the paper,
//! Table 3's IOM is the query execution plan, run "without further
//! optimization".

use crate::analyzer::analyze;
use crate::error::PqpError;
use crate::executor::execute_plan;
use crate::interpreter::interpret;
use crate::iom::Iom;
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
use polygen_sql::algebra_expr::AlgebraExpr;
use polygen_sql::lower::{lower, LoweringOptions};
use polygen_sql::parser::parse_query;
use std::sync::Arc;

/// The engine configuration: the one statement of every execution
/// decision. SQL translation, the executor and the serving layer read
/// it (physical-plan lowering reads none of it); the service overrides
/// only `threads` per query, with the allotment admission hands it.
#[derive(Debug, Clone, Copy)]
pub struct PqpOptions {
    /// SQL lowering mode (paper vs strict range variables).
    pub lowering: LoweringOptions,
    /// What Merge does when two sources disagree on a non-key attribute.
    pub conflict_policy: ConflictPolicy,
    /// Worker threads for partition-parallel operators (fused stage
    /// chains, hash joins, hash merges). `0` (the default) = auto: the
    /// `POLYGEN_THREADS` environment variable when set, otherwise
    /// [`std::thread::available_parallelism`]. `1` = exactly the
    /// sequential engine. Only execution reads it: answers, plans and
    /// EXPLAIN text are identical on every setting,
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
    /// The physical operator tree lowered from `iom` — what actually
    /// executes (hash joins, k-way hash merge, fused pipelines).
    pub physical: PhysicalPlan,
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
    /// passes and physical-plan lowering.
    pub fn compile(&self, expr: AlgebraExpr) -> Result<CompiledQuery, PqpError> {
        let pom = analyze(&expr)?;
        let (half, iom) = interpret(&pom, self.dictionary.schema())?;
        let mut physical = lower_plan(&iom, &self.registry, &self.dictionary)?;
        // Index pushdown: swap eligible Scan leaves for probes.
        if let Some(catalog) = &self.indexes {
            crate::plan::route_index_scans(&mut physical, catalog);
        }
        Ok(CompiledQuery {
            expr,
            pom,
            half,
            iom,
            physical,
        })
    }

    /// Execute a *borrowed* compiled query — the reusable-plan-handle
    /// entry point. A plan cache compiles once and replays the same
    /// `CompiledQuery` across sessions. The plan carries no parallelism:
    /// the thread/partition knobs come from the executing PQP's options,
    /// so one cached plan serves every concurrency level.
    pub fn run_compiled(&self, compiled: &CompiledQuery) -> Result<PolygenRelation, PqpError> {
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
    ) -> Result<PolygenRelation, PqpError> {
        execute_plan(
            &compiled.physical,
            &self.registry,
            &self.dictionary,
            self.indexes.as_deref(),
            &self.options,
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygen_catalog::scenario;
    use polygen_flat::value::Value;
    use polygen_sql::algebra_expr::{parse_algebra, PAPER_EXPRESSION};

    const PAPER_SQL: &str = "SELECT ONAME, CEO \
        FROM PORGANIZATION, PALUMNUS \
        WHERE CEO = ANAME AND ONAME IN \
        (SELECT ONAME FROM PCAREER WHERE AID# IN \
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"MBA\"))";

    /// Compile algebra text and run it: the stages and the answer.
    fn run_algebra(pqp: &Pqp, text: &str) -> Result<(CompiledQuery, PolygenRelation), PqpError> {
        let compiled = pqp.compile(parse_algebra(text)?)?;
        let answer = pqp.run_compiled(&compiled)?;
        Ok((compiled, answer))
    }

    /// [`run_algebra`] for SQL text.
    fn run_sql(pqp: &Pqp, sql: &str) -> Result<(CompiledQuery, PolygenRelation), PqpError> {
        let compiled = pqp.compile(pqp.translate_sql(sql)?)?;
        let answer = pqp.run_compiled(&compiled)?;
        Ok((compiled, answer))
    }

    #[test]
    fn sql_and_algebra_paths_agree() {
        let s = scenario::build();
        let pqp = Pqp::for_scenario(&s);
        let (sql_compiled, via_sql) = run_sql(&pqp, PAPER_SQL).unwrap();
        let (alg_compiled, via_algebra) = run_algebra(&pqp, PAPER_EXPRESSION).unwrap();
        assert_eq!(via_sql.tuples(), via_algebra.tuples());
        assert_eq!(sql_compiled.pom, alg_compiled.pom);
    }

    #[test]
    fn outcome_exposes_pipeline_stages() {
        let s = scenario::build();
        let pqp = Pqp::for_scenario(&s);
        let (compiled, answer) = run_algebra(&pqp, PAPER_EXPRESSION).unwrap();
        assert_eq!(compiled.pom.cardinality(), 5);
        assert_eq!(compiled.half.cardinality(), 5);
        assert_eq!(compiled.iom.cardinality(), 10);
        assert_eq!(answer.len(), 3);
        // The one configuration: a fused physical plan.
        assert!(compiled.physical.fused_rows() > 0);
    }

    #[test]
    fn thread_knob_keeps_answers_and_plans_identical() {
        let s = scenario::build();
        let sequential = Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(1));
        let (compiled, a) = run_algebra(&sequential, PAPER_EXPRESSION).unwrap();
        let shown = crate::plan::render_plan(&compiled.physical);
        for threads in [2usize, 4, 8] {
            let parallel =
                Pqp::for_scenario(&s).with_options(PqpOptions::default().with_threads(threads));
            let (compiled, b) = run_algebra(&parallel, PAPER_EXPRESSION).unwrap();
            assert!(
                a.tagged_set_eq(&b),
                "threads = {threads} changed the answer"
            );
            assert_eq!(
                crate::plan::render_plan(&compiled.physical),
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
                let (_, a) = run_algebra(&plain, expr).unwrap();
                let (_, b) = run_algebra(&indexed, expr).unwrap();
                assert_eq!(
                    a.tuples(),
                    b.tuples(),
                    "indexed execution diverged on `{expr}` (threads = {threads})"
                );
            }
            // The selective queries actually routed.
            let routed = indexed
                .compile(parse_algebra("PALUMNUS [DEGREE = \"MBA\"]").unwrap())
                .unwrap();
            assert_eq!(routed.physical.index_scans(), 1);
        }
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
        let (_, answer) = run_algebra(&pqp, PAPER_EXPRESSION).unwrap();
        let reg = pqp.dictionary().registry();
        let (ad, pd, cd) = (
            reg.lookup("AD").unwrap(),
            reg.lookup("PD").unwrap(),
            reg.lookup("CD").unwrap(),
        );
        // Genentech, {AD, CD}, {AD, CD}
        let g = answer
            .cell("ONAME", &Value::str("Genentech"), "ONAME")
            .unwrap();
        assert!(g.origin.contains(ad) && g.origin.contains(cd) && !g.origin.contains(pd));
        assert!(g.intermediate.contains(ad) && g.intermediate.contains(cd));
        // Bob Swanson, {CD}, {AD, CD}
        let bs = answer
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
        assert!(run_sql(&pqp, "SELECT").is_err());
        assert!(run_sql(&pqp, "SELECT X FROM NOPE").is_err());
        assert!(run_algebra(&pqp, "NOPE [X = 1]").is_err());
    }
}
