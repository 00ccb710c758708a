//! The paper's *introductory* query (§I) — simpler than §III's but it
//! exercises the interpreter branch the main example never reaches: a
//! Join whose left **and** right sides are both polygen schemes, so pass
//! two must retrieve the pass-one-localized left side ("separate LQP
//! operations need to be performed first before the requested polygen
//! operation is performed").

mod common;

use common::fixtures::serve_rows;
use polygen::catalog::prelude::scenario;
use polygen::core::PolygenRelation;
use polygen::flat::Value;
use polygen::pqp::prelude::*;
use polygen::serve::{QueryService, Request, ServeOptions};
use polygen::sql::prelude::parse_algebra;
use std::sync::Arc;

/// §I: "SELECT CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND
/// DEGREE = \"MBA\"" — CEOs with MIT MBAs, without the career-path
/// subquery.
const INTRO_SQL: &str = "SELECT CEO FROM PORGANIZATION, PALUMNUS \
     WHERE CEO = ANAME AND DEGREE = \"MBA\"";

/// The paper's federation as served, and one request's answer from it.
fn served(request: Request) -> (QueryService, Arc<PolygenRelation>) {
    let service = QueryService::for_scenario(&scenario::build(), ServeOptions::default());
    let (answer, _) = serve_rows(&service, request);
    (service, answer)
}

#[test]
fn intro_query_answer() {
    let (service, answer) = served(Request::sql(INTRO_SQL));
    // MBA alumni who are CEOs *of anything in the company directory*:
    // Bob Swanson, Stu Madnick, John Reed (same people as Table 9 — here
    // via the direct CEO = ANAME join rather than the career path).
    let data = answer.strip();
    assert_eq!(answer.len(), 3);
    for ceo in ["Bob Swanson", "Stu Madnick", "John Reed"] {
        assert!(data.contains(&[Value::str(ceo)]), "missing {ceo}");
    }
    // Data source: the CEO names originate in CD (FIRM); AD mediated the
    // selection (the MBA filter and the name equality) — "the query
    // result contains only the names of CEO which originated from the
    // Company Database, but the query processor also needs to access the
    // Alumni Database (an intermediate source)".
    let snapshot = service.federation().snapshot();
    let reg = snapshot.dictionary().registry();
    let (ad, cd) = (reg.lookup("AD").unwrap(), reg.lookup("CD").unwrap());
    for t in answer.tuples() {
        assert!(t[0].origin.contains(cd));
        assert!(t[0].intermediate.contains(ad), "AD must appear as mediator");
    }
}

#[test]
fn intro_query_plan_shape() {
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s);
    let compiled = pqp.compile(pqp.translate_sql(INTRO_SQL).unwrap()).unwrap();
    // Lowering: the MBA filter pushes into the PALUMNUS leaf, CEO = ANAME
    // becomes the join between the two schemes, the projection closes.
    // (The projected `CEO` is the join's coalesced column; the executor's
    // alias tracking keeps it referenceable and the projection restores
    // the requested name.)
    assert_eq!(
        compiled.expr.to_string(),
        "(PORGANIZATION [CEO = ANAME] (PALUMNUS [DEGREE = \"MBA\"])) [CEO]"
    );
    // The IOM retrieves+merges the three organization relations and joins
    // at the PQP.
    let ops: Vec<String> = compiled.iom.rows.iter().map(|r| r.op.to_string()).collect();
    assert_eq!(
        ops,
        vec![
            "Select",   // ALUMNUS[DEG = "MBA"] at AD
            "Retrieve", // BUSINESS
            "Retrieve", // CORPORATION
            "Retrieve", // FIRM
            "Merge", "Join", "Project"
        ]
    );
    let (lqp_rows, pqp_rows) = compiled.iom.routing_counts();
    assert_eq!((lqp_rows, pqp_rows), (4, 3));
}

/// The §I paper variant that joins both schemes *without* the select
/// pushed down — forces the pass-two "LHR and RHR both defined in the
/// polygen schema" branch.
#[test]
fn both_sides_polygen_join() {
    const BOTH: &str = "(PALUMNUS [ANAME = CEO] PORGANIZATION) [CEO, DEGREE]";
    let s = scenario::build();
    let pqp = Pqp::for_scenario(&s);
    let compiled = pqp.compile(parse_algebra(BOTH).unwrap()).unwrap();
    // Pass one localizes PALUMNUS to ALUMNUS@AD; pass two must retrieve
    // it before the PQP join with the merged organizations.
    let ops: Vec<String> = compiled.iom.rows.iter().map(|r| r.op.to_string()).collect();
    assert_eq!(
        ops,
        vec![
            "Retrieve", // BUSINESS
            "Retrieve", // CORPORATION
            "Retrieve", // FIRM
            "Merge", "Retrieve", // ALUMNUS — the pulled-up left side
            "Join", "Project"
        ]
    );
    // Every CEO in the answer is an alumnus; 4 alumni are CEOs of listed
    // organizations (McCauley is MIS Director, so excluded by data).
    let (_, answer) = served(Request::algebra(BOTH));
    assert_eq!(answer.len(), 4);
    let data = answer.strip();
    assert!(data.contains(&[Value::str("Ken Olsen"), Value::str("MS")]));
    assert!(data.contains(&[Value::str("John Reed"), Value::str("MBA")]));
}

/// Queries over the schemes the main example never touches: PSTUDENT
/// (float GPAs) and PINTERVIEW.
#[test]
fn student_and_interview_schemes() {
    let (service, strong) = served(Request::sql(
        "SELECT SNAME, GPA FROM PSTUDENT WHERE GPA >= 3.5",
    ));
    assert_eq!(strong.len(), 3); // Forea Wang, Yeuk Yuan, Mike Lavine
    let snapshot = service.federation().snapshot();
    let pd = snapshot.dictionary().registry().lookup("PD").unwrap();
    for t in strong.tuples() {
        assert!(t[0].origin.contains(pd));
        assert!(
            t[0].intermediate.is_empty(),
            "LQP select leaves no mediators"
        );
    }
    // Students interviewing with organizations known to the company DB.
    let (out, _) = serve_rows(
        &service,
        Request::algebra(
            "((PINTERVIEW [ONAME = ONAME] PFINANCE) [SID# = SID#] PSTUDENT) [SNAME, ONAME, PROFIT]",
        ),
    );
    let data = out.strip();
    assert!(
        data.len() >= 3,
        "IBM/Oracle/Banker's Trust/Citicorp interviews"
    );
    assert!(data
        .rows()
        .iter()
        .any(|r| r[0] == Value::str("Forea Wang") && r[1] == Value::str("IBM")));
}
