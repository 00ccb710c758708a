//! Property-based tests for the query pipeline: parser round-trips,
//! SQL-vs-algebra agreement, and provenance on random synthetic
//! federations.

mod common;

use common::fixtures::{generate_pqp, run_algebra, small_config};
use polygen::pqp::prelude::*;
use polygen::sql::prelude::*;
use polygen::workload::{self, WorkloadConfig};
use proptest::prelude::*;

/// Random SQL queries over the MIT polygen schema (shape-constrained so
/// every generated query is lowerable).
fn sql_query() -> impl Strategy<Value = String> {
    let cat = prop_oneof![
        Just("High Tech".to_string()),
        Just("Banking".to_string()),
        Just("Hotel".to_string()),
    ];
    let deg = prop_oneof![Just("MBA".to_string()), Just("MS".to_string())];
    prop_oneof![
        cat.clone()
            .prop_map(|c| format!("SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = \"{c}\"")),
        deg.clone()
            .prop_map(|d| format!("SELECT ANAME FROM PALUMNUS WHERE DEGREE = \"{d}\"")),
        (cat.clone(), deg.clone()).prop_map(|(c, d)| format!(
            "SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = \"{c}\" AND ONAME IN \
             (SELECT ONAME FROM PCAREER WHERE AID# IN \
             (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"{d}\"))"
        )),
        (cat, deg).prop_map(|(c, d)| format!(
            "SELECT ONAME FROM PORGANIZATION WHERE INDUSTRY = \"{c}\" OR INDUSTRY = \"{d}\""
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SQL parse → print → parse is a fixpoint.
    #[test]
    fn sql_roundtrip(sql in sql_query()) {
        let q1 = parse_query(&sql).unwrap();
        let q2 = parse_query(&q1.to_string()).unwrap();
        prop_assert_eq!(q1, q2);
    }

    /// Algebra print → parse is a fixpoint on generated expressions.
    #[test]
    fn algebra_roundtrip(seed in any::<u64>(), depth in 1usize..5) {
        let config = WorkloadConfig::default();
        let expr = workload::queries::random_expression(&config, seed, depth);
        let reparsed = parse_algebra(&expr.to_string()).unwrap();
        prop_assert_eq!(expr, reparsed);
    }

    /// Every generated SQL query executes, and its lowered algebra text
    /// executes to the same tagged answer.
    #[test]
    fn sql_and_algebra_agree_on_mit(sql in sql_query()) {
        let s = polygen::catalog::prelude::scenario::build();
        let pqp = Pqp::for_scenario(&s);
        let compiled = pqp.compile(pqp.translate_sql(&sql).unwrap()).unwrap();
        let via_sql = pqp.run_compiled(&compiled).unwrap();
        let (_, via_alg) = run_algebra(&pqp, &compiled.expr.to_string()).unwrap();
        prop_assert!(via_sql.tagged_set_eq(&via_alg));
    }
}

proptest! {
    // Generated federations are heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Merged multi-source schemes carry complete provenance: with full
    /// coverage, every entity's key cell is tagged with every source.
    #[test]
    fn full_coverage_tags_every_source(fed_seed in any::<u64>(), sources in 2usize..5) {
        let config = small_config(fed_seed, sources, 20).with_coverage(1.0);
        let (_, pqp) = generate_pqp(&config);
        let (_, out) = run_algebra(&pqp, "PENTITY [ENAME, CATEGORY]").unwrap();
        prop_assert_eq!(out.len(), 20);
        for t in out.tuples() {
            prop_assert_eq!(t[0].origin.len(), sources, "key knows all sources");
        }
    }
}
