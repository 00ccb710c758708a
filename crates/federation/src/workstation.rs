//! The CIS workstation — Figure 1 assembled.
//!
//! One object owning the whole dataflow: application schema → Application
//! Query Processor → PQP (Syntax Analyzer, Interpreter, Optimizer,
//! Executor) → LQPs → local databases, with the CIS Data Dictionary
//! shared throughout. This is the role the paper's "System P" prototype
//! was being built to play.

use crate::app_schema::AppSchema;
use crate::aqp::{translate_app_query, AqpError};
use polygen_catalog::scenario::Scenario;
use polygen_pqp::error::PqpError;
use polygen_pqp::explain::explain_with_cost;
use polygen_pqp::pqp::{Pqp, PqpOptions, QueryOutcome};
use std::fmt;

/// Workstation-level errors.
#[derive(Debug)]
pub enum CisError {
    /// Application-layer rewriting failed.
    Aqp(AqpError),
    /// The polygen pipeline failed.
    Pqp(PqpError),
    /// Declared secondary indexes failed to build.
    Index(polygen_index::IndexError),
}

impl fmt::Display for CisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CisError::Aqp(e) => write!(f, "{e}"),
            CisError::Pqp(e) => write!(f, "{e}"),
            CisError::Index(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CisError {}

impl From<AqpError> for CisError {
    fn from(e: AqpError) -> Self {
        CisError::Aqp(e)
    }
}
impl From<PqpError> for CisError {
    fn from(e: PqpError) -> Self {
        CisError::Pqp(e)
    }
}
impl From<polygen_index::IndexError> for CisError {
    fn from(e: polygen_index::IndexError) -> Self {
        CisError::Index(e)
    }
}

/// The workstation.
pub struct CisWorkstation {
    app_schema: AppSchema,
    pqp: Pqp,
}

impl CisWorkstation {
    /// Assemble over an application schema and a ready PQP.
    pub fn new(app_schema: AppSchema, pqp: Pqp) -> Self {
        CisWorkstation { app_schema, pqp }
    }

    /// Stand up the paper's scenario with a given application schema.
    pub fn for_scenario(scenario: &Scenario, app_schema: AppSchema) -> Self {
        CisWorkstation {
            app_schema,
            pqp: Pqp::for_scenario(scenario),
        }
    }

    /// Assemble over *shared* federation state — O(1) session setup.
    /// The dictionary and LQP registry are `Arc`-cloned, never
    /// deep-copied, so callers standing up many workstations (one per
    /// client session, one per test thread) pay two pointer copies
    /// instead of a catalog clone each. `polygen-serve` shares the same
    /// snapshot state but drives [`Pqp`] directly for its cache plumbing.
    pub fn shared(
        app_schema: AppSchema,
        dictionary: std::sync::Arc<polygen_catalog::dictionary::DataDictionary>,
        registry: std::sync::Arc<polygen_lqp::registry::LqpRegistry>,
    ) -> Self {
        CisWorkstation {
            app_schema,
            pqp: Pqp::new(dictionary, registry),
        }
    }

    /// Reconfigure the PQP.
    pub fn with_pqp_options(mut self, options: PqpOptions) -> Self {
        self.pqp = self.pqp.with_options(options);
        self
    }

    /// Declare secondary indexes over the workstation's sources: builds
    /// a catalog against current LQP data and attaches it to the PQP,
    /// which routes eligible selective scans onto probes. Answers are
    /// identical with or without indexes; EXPLAIN shows the `[ixscan]`
    /// routes. Re-declare after swapping an LQP's data — the catalog is
    /// a consistent point-in-time copy (the serving layer's snapshots
    /// automate this; see `polygen-serve`).
    pub fn with_indexes(mut self, specs: &[polygen_index::IndexSpec]) -> Result<Self, CisError> {
        let catalog =
            polygen_index::IndexCatalog::build(specs, self.pqp.registry(), self.pqp.dictionary())?;
        self.pqp = self.pqp.with_indexes(std::sync::Arc::new(catalog));
        Ok(self)
    }

    /// The application schema.
    pub fn app_schema(&self) -> &AppSchema {
        &self.app_schema
    }

    /// The underlying PQP (polygen-level access).
    pub fn pqp(&self) -> &Pqp {
        &self.pqp
    }

    /// Run an *application-level* query: rewrite through the application
    /// schema, then the full polygen pipeline. The answer's attribute
    /// names are polygen-level; source tags ride along untouched.
    pub fn query_app(&self, sql: &str) -> Result<QueryOutcome, CisError> {
        let polygen_query = translate_app_query(sql, &self.app_schema)?;
        Ok(self.pqp.query(&polygen_query.to_string())?)
    }

    /// Run a polygen-level SQL query directly.
    pub fn query_polygen(&self, sql: &str) -> Result<QueryOutcome, CisError> {
        Ok(self.pqp.query(sql)?)
    }

    /// Run a polygen algebra expression directly.
    pub fn query_algebra(&self, text: &str) -> Result<QueryOutcome, CisError> {
        Ok(self.pqp.query_algebra(text)?)
    }

    /// EXPLAIN an *application-level* query: rewrite through the
    /// application schema, run the pipeline, and render the full report —
    /// Tables 1–3, the lowered physical plan with fusion/join-strategy
    /// annotations, the tagged answer, provenance, and the plan-cost
    /// estimate over the physical tree.
    pub fn explain_app(&self, sql: &str) -> Result<String, CisError> {
        let polygen_query = translate_app_query(sql, &self.app_schema)?;
        let outcome = self.pqp.query(&polygen_query.to_string())?;
        Ok(explain_with_cost(
            &outcome,
            self.pqp.dictionary(),
            self.pqp.registry(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_schema::AppRelation;
    use polygen_catalog::scenario;
    use polygen_flat::value::Value;

    fn computerworld_schema() -> AppSchema {
        // Sullivan-Trainor's vocabulary for the ComputerWorld survey.
        let mut s = AppSchema::new();
        s.push(AppRelation::new(
            "COMPANIES",
            "PORGANIZATION",
            &[("COMPANY", "ONAME"), ("CHIEF", "CEO")],
        ));
        s.push(AppRelation::new(
            "SLOAN_GRADS",
            "PALUMNUS",
            &[("ID", "AID#"), ("GRAD", "ANAME"), ("DEGREE", "DEGREE")],
        ));
        s.push(AppRelation::new(
            "POSITIONS",
            "PCAREER",
            &[("ID", "AID#"), ("COMPANY", "ONAME")],
        ));
        s
    }

    #[test]
    fn end_to_end_application_query() {
        let s = scenario::build();
        let ws = CisWorkstation::for_scenario(&s, computerworld_schema());
        // The ComputerWorld question in the application vocabulary.
        let out = ws
            .query_app(
                "SELECT COMPANY, CHIEF FROM COMPANIES, SLOAN_GRADS \
                 WHERE CHIEF = GRAD AND COMPANY IN \
                 (SELECT COMPANY FROM POSITIONS WHERE ID IN \
                 (SELECT ID FROM SLOAN_GRADS WHERE DEGREE = \"MBA\"))",
            )
            .unwrap();
        assert_eq!(out.answer.len(), 3);
        assert!(out
            .answer
            .cell("ONAME", &Value::str("Citicorp"), "CEO")
            .is_some());
    }

    #[test]
    fn app_and_polygen_paths_agree() {
        let s = scenario::build();
        let ws = CisWorkstation::for_scenario(&s, computerworld_schema());
        let via_app = ws
            .query_app("SELECT COMPANY FROM COMPANIES WHERE CHIEF = \"John Reed\"")
            .unwrap();
        let via_polygen = ws
            .query_polygen("SELECT ONAME FROM PORGANIZATION WHERE CEO = \"John Reed\"")
            .unwrap();
        assert!(via_app.answer.tagged_set_eq(&via_polygen.answer));
    }

    #[test]
    fn explain_app_renders_physical_plan() {
        let s = scenario::build();
        let ws = CisWorkstation::for_scenario(&s, computerworld_schema());
        let report = ws
            .explain_app("SELECT COMPANY FROM COMPANIES WHERE CHIEF = \"John Reed\"")
            .unwrap();
        assert!(report.contains("== Physical plan =="));
        assert!(report.contains("HashMerge"), "merge strategy shown");
        assert!(report.contains("Plan cost estimate"));
        assert!(report.contains("Citicorp"), "answer rendered");
    }

    #[test]
    fn thread_knob_flows_through_workstation() {
        let s = scenario::build();
        let query = "SELECT COMPANY, CHIEF FROM COMPANIES, SLOAN_GRADS \
                     WHERE CHIEF = GRAD AND COMPANY IN \
                     (SELECT COMPANY FROM POSITIONS WHERE ID IN \
                     (SELECT ID FROM SLOAN_GRADS WHERE DEGREE = \"MBA\"))";
        let at = |threads| {
            CisWorkstation::for_scenario(&s, computerworld_schema())
                .with_pqp_options(PqpOptions::default().with_threads(threads))
        };
        let (sequential, parallel) = (at(1), at(4));
        let a = sequential.query_app(query).unwrap();
        let b = parallel.query_app(query).unwrap();
        assert!(a.answer.tagged_set_eq(&b.answer));
        assert_eq!(parallel.pqp().options().threads, 4);
        // EXPLAIN surfaces the partitioning annotations.
        let report = parallel.explain_app(query).unwrap();
        assert!(report.contains("[hash(ONAME) x4]"), "{report}");
        let serial_report = sequential.explain_app(query).unwrap();
        assert!(!serial_report.contains("[hash("));
    }

    #[test]
    fn shared_workstations_reuse_federation_state() {
        use polygen_lqp::scenario_registry;
        use std::sync::Arc;
        let s = scenario::build();
        let dictionary = Arc::new(s.dictionary.clone());
        let registry = Arc::new(scenario_registry(&s));
        // Many sessions over the same shared state: no catalog clones.
        let ws1 = CisWorkstation::shared(
            computerworld_schema(),
            Arc::clone(&dictionary),
            Arc::clone(&registry),
        );
        let ws2 = CisWorkstation::shared(computerworld_schema(), dictionary, registry);
        let a = ws1
            .query_app("SELECT COMPANY FROM COMPANIES WHERE CHIEF = \"John Reed\"")
            .unwrap();
        let b = ws2
            .query_app("SELECT COMPANY FROM COMPANIES WHERE CHIEF = \"John Reed\"")
            .unwrap();
        assert!(a.answer.tagged_set_eq(&b.answer));
        assert!(std::ptr::eq(ws1.pqp().dictionary(), ws2.pqp().dictionary()));
        assert!(std::ptr::eq(ws1.pqp().registry(), ws2.pqp().registry()));
    }

    #[test]
    fn declared_indexes_route_app_queries_and_explain_shows_it() {
        use polygen_index::IndexSpec;
        let s = scenario::build();
        let plain = CisWorkstation::for_scenario(&s, computerworld_schema());
        let indexed = CisWorkstation::for_scenario(&s, computerworld_schema())
            .with_indexes(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
            .unwrap();
        let query = "SELECT ID, GRAD FROM SLOAN_GRADS WHERE DEGREE = \"MBA\"";
        let a = plain.query_app(query).unwrap();
        let b = indexed.query_app(query).unwrap();
        assert_eq!(a.answer.tuples(), b.answer.tuples(), "byte-identical");
        assert_eq!(b.compiled.physical.index_scans(), 1);
        let report = indexed.explain_app(query).unwrap();
        assert!(report.contains("[ixscan AD.DEG = MBA] (hash)"), "{report}");
        // Unknown columns fail at declaration, not at query time.
        assert!(matches!(
            CisWorkstation::for_scenario(&s, computerworld_schema())
                .with_indexes(&[IndexSpec::hash("AD", "ALUMNUS", "NOPE")]),
            Err(CisError::Index(_))
        ));
    }

    #[test]
    fn app_errors_surface() {
        let s = scenario::build();
        let ws = CisWorkstation::for_scenario(&s, computerworld_schema());
        assert!(matches!(
            ws.query_app("SELECT X FROM NOPE"),
            Err(CisError::Aqp(_))
        ));
    }
}
