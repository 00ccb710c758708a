//! Integration tests spanning the full Figure 1 stack — application
//! schema → AQP → PQP → LQPs → local databases, served by the query
//! service — plus failure injection (capability-restricted feeds,
//! missing relations, conflict policies).

use polygen::catalog::prelude::*;
use polygen::core::prelude::ConflictPolicy;
use polygen::federation::prelude::*;
use polygen::flat::{Relation, Value};
use polygen::lqp::prelude::*;
use polygen::pqp::prelude::*;
use polygen::serve::prelude::*;
use polygen::sql::prelude::{parse_algebra, translate_app_query, AppRelation, AppSchema};
use std::sync::Arc;

fn app_schema() -> AppSchema {
    let mut s = AppSchema::new();
    s.push(AppRelation::new(
        "COMPANIES",
        "PORGANIZATION",
        &[
            ("COMPANY", "ONAME"),
            ("SECTOR", "INDUSTRY"),
            ("CHIEF", "CEO"),
            ("STATE", "HEADQUARTERS"),
        ],
    ));
    s.push(AppRelation::new(
        "GRADS",
        "PALUMNUS",
        &[("ID", "AID#"), ("GRAD", "ANAME"), ("DEGREE", "DEGREE")],
    ));
    s.push(AppRelation::new(
        "POSITIONS",
        "PCAREER",
        &[("ID", "AID#"), ("COMPANY", "ONAME"), ("ROLE", "POSITION")],
    ));
    s
}

/// The ComputerWorld question in the application vocabulary.
const COMPUTERWORLD: &str = "SELECT COMPANY, CHIEF FROM COMPANIES, GRADS \
     WHERE CHIEF = GRAD AND COMPANY IN \
     (SELECT COMPANY FROM POSITIONS WHERE ID IN \
     (SELECT ID FROM GRADS WHERE DEGREE = \"MBA\"))";

/// The service over the paper's scenario with the application schema.
fn app_service(s: &Scenario) -> QueryService {
    QueryService::for_scenario(s, ServeOptions::default()).with_app_schema(app_schema())
}

/// The service over a hand-built federation: the scenario's dictionary
/// with `registry`'s LQPs standing in for its local databases.
fn registry_service(s: &Scenario, registry: LqpRegistry) -> QueryService {
    let snapshot =
        FederationSnapshot::from_parts(Arc::new(s.dictionary.clone()), Arc::new(registry));
    QueryService::new(Federation::new(snapshot), ServeOptions::default())
}

/// The code and message of a response that must be an error.
fn error_of(response: &Response) -> (ErrorCode, &str) {
    match response {
        Response::Error { code, message } => (*code, message),
        other => panic!("expected an error, got {other:?}"),
    }
}

/// The complete Figure 1 dataflow with the paper's answer at the end.
#[test]
fn figure1_full_stack() {
    let s = scenario::build();
    let service = app_service(&s);
    let out = service.execute(Request::app(COMPUTERWORLD));
    let answer = out.rows().unwrap_or_else(|| panic!("{out:?}"));
    assert_eq!(answer.len(), 3);
    let cd = s.dictionary.registry().lookup("CD").unwrap();
    let reed = answer
        .cell("ONAME", &Value::str("Citicorp"), "CEO")
        .unwrap();
    assert_eq!(reed.datum, Value::str("John Reed"));
    assert!(reed.origin.contains(cd));
    // The application query and its polygen spelling are one query.
    let polygen = translate_app_query(COMPUTERWORLD, &app_schema()).unwrap();
    let direct = service.execute(Request::sql(polygen.to_string()));
    assert!(direct.info().unwrap().result_hit, "{direct:?}");
    // The application query's EXPLAIN renders the physical plan.
    let explained = service.execute(Request::app(COMPUTERWORLD).with_explain(true));
    let Response::Explain { plan, .. } = &explained else {
        panic!("expected a plan, got {explained:?}");
    };
    assert!(plan.contains("HashMerge"), "{plan}");
}

/// Declared indexes route application queries without changing a byte
/// of the answer, and the application query's EXPLAIN shows the route.
#[test]
fn application_queries_route_through_declared_indexes() {
    let s = scenario::build();
    let indexed = QueryService::for_scenario(&s, ServeOptions::default())
        .with_index_specs(&[IndexSpec::hash("AD", "ALUMNUS", "DEG")])
        .unwrap()
        .with_app_schema(app_schema());
    let query = "SELECT ID, GRAD FROM GRADS WHERE DEGREE = \"MBA\"";
    let plain = app_service(&s).execute(Request::app(query));
    let routed = indexed.execute(Request::app(query));
    assert_eq!(
        plain.rows().unwrap().tuples(),
        routed.rows().unwrap().tuples(),
        "byte-identical"
    );
    assert!(routed.info().unwrap().index_routed);
    let explained = indexed.execute(Request::app(query).with_explain(true));
    let Response::Explain { plan, .. } = &explained else {
        panic!("expected a plan, got {explained:?}");
    };
    assert!(plan.contains("[ixscan AD.DEG = MBA] (hash)"), "{plan}");
    // Unknown columns fail at declaration, not at query time.
    assert!(matches!(
        QueryService::for_scenario(&s, ServeOptions::default())
            .with_index_specs(&[IndexSpec::hash("AD", "ALUMNUS", "NOPE")]),
        Err(ServeError::Index(_))
    ));
}

/// A menu-driven (retrieve-only) commercial feed behind the compensating
/// adapter: same answers, zero native pushdown.
#[test]
fn menu_driven_feed_compensates() {
    let s = scenario::build();
    // CD becomes a Finsbury-style menu interface.
    let registry = LqpRegistry::new();
    for db in &s.databases {
        let inner = InMemoryLqp::new(&db.name, db.relations.clone());
        if db.name == "CD" {
            registry.register(Arc::new(CompensatingLqp::new(MenuDrivenLqp::new(inner))));
        } else {
            registry.register(Arc::new(inner));
        }
    }
    let paper = || Request::algebra(polygen::sql::prelude::PAPER_EXPRESSION);
    let out = registry_service(&s, registry).execute(paper());
    let answer = out.rows().unwrap_or_else(|| panic!("{out:?}"));
    assert_eq!(answer.len(), 3);
    // Against a plain registry the answers are tag-identical.
    let baseline = QueryService::for_scenario(&s, ServeOptions::default()).execute(paper());
    assert!(answer.tagged_set_eq(baseline.rows().unwrap()));
}

/// Without the compensating adapter, pushing a select to a menu-driven
/// LQP is a hard error the pipeline surfaces cleanly.
#[test]
fn menu_driven_feed_without_adapter_rejects_pushdown() {
    let s = scenario::build();
    let registry = LqpRegistry::new();
    for db in &s.databases {
        let inner = InMemoryLqp::new(&db.name, db.relations.clone());
        if db.name == "AD" {
            registry.register(Arc::new(MenuDrivenLqp::new(inner)));
        } else {
            registry.register(Arc::new(inner));
        }
    }
    // The interpreter pushes [DEGREE = "MBA"] to AD, which now refuses.
    let out =
        registry_service(&s, registry).execute(Request::algebra("PALUMNUS [DEGREE = \"MBA\"]"));
    let (code, message) = error_of(&out);
    assert_eq!(code, ErrorCode::Lqp);
    assert!(message.contains("cannot execute"), "{message}");
}

/// Missing local relations and unknown databases surface as typed errors.
#[test]
fn failure_injection_missing_pieces() {
    let s = scenario::build();
    // An LQP registry whose AD lacks the CAREER relation.
    let registry = LqpRegistry::new();
    for db in &s.databases {
        let relations: Vec<Relation> = db
            .relations
            .iter()
            .filter(|r| r.name() != "CAREER")
            .cloned()
            .collect();
        registry.register(Arc::new(InMemoryLqp::new(&db.name, relations)));
    }
    let out =
        registry_service(&s, registry).execute(Request::algebra("PALUMNUS [AID# = AID#] PCAREER"));
    let (code, message) = error_of(&out);
    assert_eq!(code, ErrorCode::Lqp);
    assert!(message.contains("has no relation `CAREER`"), "{message}");
}

/// Conflicting sources: Strict errors, PreferLeft resolves and demotes.
#[test]
fn conflict_policies_through_the_pipeline() {
    let mut s = scenario::build();
    // Make PD disagree with CD about Citicorp's headquarters state.
    for db in &mut s.databases {
        if db.name == "PD" {
            for rel in &mut db.relations {
                if rel.name() == "CORPORATION" {
                    let mut rows = rel.rows().to_vec();
                    for row in &mut rows {
                        if row[0] == Value::str("Citicorp") {
                            row[2] = Value::str("DE");
                        }
                    }
                    *rel = Relation::from_rows(Arc::clone(rel.schema()), rows).unwrap();
                }
            }
        }
    }
    const QUERY: &str = "PORGANIZATION [ONAME, HEADQUARTERS]";
    let strict = QueryService::for_scenario(&s, ServeOptions::default());
    let out = strict.execute(Request::algebra(QUERY));
    let (code, message) = error_of(&out);
    assert_eq!(code, ErrorCode::Algebra);
    assert!(message.contains("coalesce conflict"), "{message}");
    // The service serves only the strict policy; PreferLeft is an engine
    // setting of the PQP.
    let lenient = Pqp::for_scenario(&s).with_options(PqpOptions {
        conflict_policy: ConflictPolicy::PreferLeft,
        ..PqpOptions::default()
    });
    let compiled = lenient.compile(parse_algebra(QUERY).unwrap()).unwrap();
    let answer = lenient.run_compiled(&compiled).unwrap();
    let hq = answer
        .cell("ONAME", &Value::str("Citicorp"), "HEADQUARTERS")
        .unwrap();
    // PD is merged before CD (catalog order), so PD's DE wins under
    // PreferLeft, and CD is demoted to an intermediate source.
    assert_eq!(hq.datum, Value::str("DE"));
    let cd = s.dictionary.registry().lookup("CD").unwrap();
    assert!(hq.intermediate.contains(cd));
}

/// The cardinality audit and credibility ranking work over live LQPs.
#[test]
fn audits_and_credibility_over_live_federation() {
    let s = scenario::build();
    let registry = polygen::lqp::scenario_registry(&s);
    let report = audit_scheme("PORGANIZATION", &registry, &s.dictionary).unwrap();
    assert_eq!(report.total_keys, 12);
    assert_eq!(report.inconsistent_keys(), 8);

    let service = QueryService::for_scenario(&s, ServeOptions::default());
    let out = service.execute(Request::algebra("PORGANIZATION [ONAME, CEO]"));
    let answer = out.rows().unwrap_or_else(|| panic!("{out:?}"));
    let ranks = rank_tuples(answer, &s.dictionary);
    assert_eq!(ranks.len(), 12);
    // AD-backed tuples (credibility 0.9 floor) rank above CD-only data.
    let best = &answer.tuples()[ranks[0].0];
    let worst = &answer.tuples()[ranks[ranks.len() - 1].0];
    assert!(ranks[0].1 >= ranks[ranks.len() - 1].1);
    assert_ne!(best[0].datum, worst[0].datum);
}
