//! Integration tests for plan costing: the physical-plan estimator must
//! track reality in *direction* — remote feeds dominate, and the explain
//! report surfaces it.

mod common;

use common::fixtures::run_algebra;
use polygen::catalog::prelude::scenario;
use polygen::lqp::prelude::*;
use polygen::pqp::prelude::*;
use polygen::sql::prelude::{parse_algebra, PAPER_EXPRESSION};
use std::sync::Arc;

#[test]
fn estimated_shipping_matches_actual_within_reason() {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s);
    let compiled = pqp
        .compile(parse_algebra(PAPER_EXPRESSION).unwrap())
        .unwrap();
    let cost = estimate_physical(&compiled.physical, pqp.registry());
    // Actual shipped rows for the paper query: 5 (select) + 9 (CAREER) +
    // 9 + 7 + 10 (the three merge retrieves) = 40. The estimator assumes
    // 10% select selectivity (0.8 rows vs actual 5), so it must land in
    // the same decade, not on the number.
    assert!(
        cost.tuples_shipped > 30.0 && cost.tuples_shipped < 60.0,
        "estimate {} out of range",
        cost.tuples_shipped
    );
}

#[test]
fn remote_feed_shows_up_in_explain() {
    let s = scenario::build();
    let registry = LqpRegistry::new();
    for db in &s.databases {
        let inner = InMemoryLqp::new(&db.name, db.relations.clone());
        if db.name == "CD" {
            registry.register(Arc::new(CompensatingLqp::new(MenuDrivenLqp::new(
                inner,
                CostModel::slow_remote(),
            ))));
        } else {
            registry.register(Arc::new(inner));
        }
    }
    let registry = Arc::new(registry);
    let pqp = Pqp::new(Arc::new(s.dictionary.clone()), Arc::clone(&registry));
    let (compiled, answer) = run_algebra(&pqp, PAPER_EXPRESSION).unwrap();
    let report = explain(&compiled, &answer, pqp.dictionary(), &registry);
    assert!(report.contains("Plan cost estimate"));
    // With CD behind a transatlantic feed the estimate is dominated by
    // its fixed cost (250 ms per operation).
    let remote_cost = estimate_physical(&compiled.physical, &registry);
    let local_cost = estimate_physical(&compiled.physical, &polygen::lqp::scenario_registry(&s));
    assert!(remote_cost.total_us > local_cost.total_us * 10.0);
}
