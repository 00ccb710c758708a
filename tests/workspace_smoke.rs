//! Workspace-surface smoke test: the facade crate's `prelude` must keep
//! resolving the names downstream code (examples, benches, future crates)
//! imports, and the paper's MIT scenario must round-trip end-to-end
//! through one served query. This is the canary for manifest or re-export
//! regressions — it fails at compile time if a prelude item disappears.

use polygen::prelude::*;
use polygen::serve::{QueryService, Request, ServeOptions};

/// Every prelude family is touchable by name. Compile-time coverage: each
/// binding below comes from a different member crate's prelude via the
/// facade's single glob import.
#[test]
fn prelude_reexports_resolve() {
    // flat (untagged substrate)
    let builder: RelationBuilder = Relation::build("R", &["A"]);
    let rel: Relation = builder.row(&["x"]).finish().unwrap();
    assert_eq!(rel.len(), 1);
    let _cmp: Cmp = Cmp::Eq;
    let _val: Value = Value::str("x");
    // core (tagged model)
    let mut registry = SourceRegistry::new();
    let src: SourceId = registry.intern("AD");
    let set: SourceSet = [src].into_iter().collect();
    let cell: Cell = Cell::retrieved(Value::str("x"), src);
    assert!(set.contains(src) && cell.origin.contains(src));
    let _policy: ConflictPolicy = ConflictPolicy::Strict;
    // catalog (schemes, dictionary, MIT scenario)
    let scenario: Scenario = scenario::build();
    let _schema: &PolygenSchema = scenario.dictionary.schema();
    // lqp (local query processors)
    let lqp_registry: LqpRegistry = scenario_registry(&scenario);
    assert!(!lqp_registry.is_empty());
    // sql (front ends)
    let expr: AlgebraExpr = parse_algebra(PAPER_EXPRESSION).unwrap();
    assert!(!expr.to_string().is_empty());
    // pqp (the polygen query processor)
    let pqp: Pqp = Pqp::for_scenario(&scenario);
    let _options: PqpOptions = PqpOptions::default();
    let _ = &pqp;
}

/// The MIT scenario from `catalog::scenario` answers a real polygen query
/// through the query service and the full PQP pipeline: parse → two-pass
/// interpret → plan → execute across the three LQPs, with source tags
/// surviving the trip.
#[test]
fn mit_scenario_roundtrips_through_pqp() {
    let scenario = scenario::build();
    let service = QueryService::for_scenario(&scenario, ServeOptions::default());
    let out = service.execute(Request::sql(
        "SELECT CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND DEGREE = \"MBA\"",
    ));
    let answer = out.rows().unwrap_or_else(|| panic!("{out:?}"));
    assert_eq!(answer.len(), 3, "the paper's intro query finds 3 CEOs");
    // Source tagging round-trip: answers originate in the company database
    // and the alumni database mediated the join.
    let registry = scenario.dictionary.registry();
    let (ad, cd) = (
        registry.lookup("AD").expect("AD interned"),
        registry.lookup("CD").expect("CD interned"),
    );
    for tuple in answer.tuples() {
        assert!(tuple[0].origin.contains(cd), "CEO names originate in CD");
        assert!(tuple[0].intermediate.contains(ad), "AD mediated the query");
    }
}
