//! Query generation over the synthetic federation.
//!
//! Produces polygen algebra expressions (and SQL) of controlled shape for
//! the translator and end-to-end benches: select-only, select+join, and
//! deep chains mixing restricts, joins and projections.

use crate::config::WorkloadConfig;
use polygen_sql::algebra_expr::{parse_algebra, AlgebraExpr};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A category-select over the merged multi-source scheme:
/// `PENTITY [CATEGORY = "C<k>"]`.
pub fn select_query(category: usize) -> String {
    format!("PENTITY [CATEGORY = \"C{category}\"]")
}

/// The detail→entity join with a score filter, projected:
/// `((PDETAIL [SCORE >= s]) [ENAME = ENAME] PENTITY) [ENAME, CATEGORY]`.
pub fn join_query(min_score: i64) -> String {
    format!("((PDETAIL [SCORE >= {min_score}]) [ENAME = ENAME] PENTITY) [ENAME, CATEGORY]")
}

/// A point lookup on the single-source detail relation:
/// `PDETAIL [ENAME = "E<k>"]`. Lowers to an LQP select over
/// `S0.DETAIL.DNAME` — the shape a hash index serves in O(1) instead of
/// a full source sweep.
pub fn point_lookup(entity: usize) -> String {
    format!(
        "PDETAIL [ENAME = \"{}\"]",
        crate::generator::entity_name(entity)
    )
}

/// A bounded range scan on the detail score:
/// `PDETAIL [SCORE >= lo] [SCORE <= hi]`. The first conjunct ships to
/// the LQP, the second becomes a pipeline stage — the between shape a
/// sorted index folds into one range probe with a residual re-check.
pub fn range_scan(lo: i64, hi: i64) -> String {
    format!("PDETAIL [SCORE >= {lo}] [SCORE <= {hi}]")
}

/// A catalog read over the mediator's own windowed metric rollups:
/// ordinary SQL against the `sys` source, materialized from live
/// service state at admission (never served from the result cache).
pub fn sys_stats_query() -> String {
    "SELECT BUCKET, QUERIES, ERRORS, RESULT_HITS, P95_US FROM sys.stats".to_string()
}

/// A catalog read over the live-session registry — what every peer is
/// running *right now*, the issuing session included.
pub fn sys_sessions_query() -> String {
    "SELECT SESSION_ID, PEER, QUERIES, ROWS, LANG FROM sys.sessions".to_string()
}

/// The paper-query shape in SQL over the synthetic schema (an IN-subquery
/// feeding a join feeding a restrict feeding a project).
pub fn paper_shaped_sql(category: usize) -> String {
    format!(
        "SELECT ENAME, CATEGORY FROM PENTITY WHERE ENAME IN \
         (SELECT ENAME FROM PDETAIL WHERE SCORE >= 50) \
         AND CATEGORY = \"C{category}\""
    )
}

/// A random expression of `depth` chained operations starting from a
/// select on PENTITY; deterministic in `seed`.
pub fn random_expression(config: &WorkloadConfig, seed: u64, depth: usize) -> AlgebraExpr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = select_query(rng.random_range(0..config.categories));
    let mut joined_detail = false;
    for _ in 0..depth {
        match rng.random_range(0..3u32) {
            0 if !joined_detail => {
                text = format!(
                    "(PDETAIL [SCORE >= {}]) [ENAME = ENAME] ({text})",
                    rng.random_range(0..100)
                );
                joined_detail = true;
            }
            1 => {
                text = format!(
                    "({text}) [CATEGORY <> \"C{}\"]",
                    rng.random_range(0..config.categories)
                );
            }
            _ => {
                text = format!("({text}) [ENAME, CATEGORY]");
                // After a projection only these two attrs remain; stop
                // growing shapes that would reference dropped attrs.
                break;
            }
        }
    }
    parse_algebra(&text).expect("generated expression parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use polygen_core::relation::PolygenRelation;
    use polygen_serve::request::{Request, Response};
    use polygen_serve::{QueryService, ServeOptions};
    use std::sync::Arc;

    fn service(config: &WorkloadConfig) -> QueryService {
        QueryService::for_scenario(&generate(config), ServeOptions::default())
    }

    /// Serve a request that must answer rows.
    fn rows(service: &QueryService, request: Request) -> Arc<PolygenRelation> {
        match service.execute(request) {
            Response::Rows { answer, .. } => Arc::clone(answer.relation()),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn canned_queries_parse() {
        assert!(parse_algebra(&select_query(3)).is_ok());
        assert!(parse_algebra(&join_query(50)).is_ok());
        assert!(parse_algebra(&point_lookup(42)).is_ok());
        assert!(parse_algebra(&range_scan(10, 19)).is_ok());
    }

    #[test]
    fn index_classes_run_end_to_end() {
        let config = WorkloadConfig::default().with_entities(100).with_sources(3);
        let service = service(&config);
        let point = rows(&service, Request::algebra(point_lookup(0)));
        assert_eq!(point.schema().attrs().len(), 3);
        let range = rows(&service, Request::algebra(range_scan(0, 99)));
        assert_eq!(range.len(), config.detail_rows, "full score range");
        let narrow = rows(&service, Request::algebra(range_scan(40, 49)));
        assert!(narrow.len() < config.detail_rows);
    }

    #[test]
    fn generated_queries_run_end_to_end() {
        let config = WorkloadConfig::default().with_entities(100).with_sources(3);
        let service = service(&config);
        let out = rows(&service, Request::algebra(select_query(0)));
        assert!(!out.is_empty(), "C0 is the most frequent category");
        let out = rows(&service, Request::algebra(join_query(90)));
        assert_eq!(out.schema().attrs().len(), 2);
        let out = rows(&service, Request::sql(paper_shaped_sql(0)));
        assert_eq!(out.schema().attrs().len(), 2);
    }

    #[test]
    fn random_expressions_are_deterministic_and_executable() {
        let config = WorkloadConfig::default().with_entities(60);
        let service = service(&config);
        for seed in 0..8 {
            let a = random_expression(&config, seed, 4);
            let b = random_expression(&config, seed, 4);
            assert_eq!(a, b);
            let out = service.execute(Request::algebra(a.to_string()));
            assert!(
                matches!(out, Response::Rows { .. }),
                "seed {seed}: {a} failed: {out:?}"
            );
        }
    }
}
