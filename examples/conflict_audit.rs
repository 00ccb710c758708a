//! Data-conflict detection and resolution — the research problem §V says
//! the polygen model was built to unlock ("many domain mismatch, semantic
//! reconciliation, and data conflict problems can be resolved
//! systematically using the data and intermediate source tags").
//!
//! We inject a disagreement between the Placement Database and the
//! Company Database about a headquarters location, then show the three
//! policies (strict failure, positional preference, credibility-driven
//! resolution) and the footnote-13 cardinality audit.
//!
//! ```sh
//! cargo run --example conflict_audit
//! ```

use polygen::catalog::prelude::scenario;
use polygen::core::prelude::*;
use polygen::federation::prelude::*;
use polygen::flat::{Relation, Value};
use polygen::lqp::prelude::*;
use polygen::pqp::prelude::*;
use polygen::serve::{QueryService, Request, Response, ServeOptions};
use polygen::sql::prelude::parse_algebra;
use std::sync::Arc;

fn main() {
    let mut s = scenario::build();
    // PD's analysts believe Citicorp moved to Delaware; CD disagrees.
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
    let reg = s.dictionary.registry().clone();
    let query = "PORGANIZATION [ONAME, HEADQUARTERS]";

    // Policy 1: strict — the federation as served refuses the merge with
    // an error carrying both values.
    let service = QueryService::for_scenario(&s, ServeOptions::default());
    match service.execute(Request::algebra(query)) {
        Response::Error { code, message } => {
            println!("strict policy refused the merge ({code}):\n  {message}\n")
        }
        other => unreachable!("the injected conflict must surface, got {other:?}"),
    }

    // Policy 2: positional preference — an engine setting of the PQP:
    // catalog order wins, loser demoted to an intermediate source (you can
    // still see it was consulted).
    let lenient = Pqp::for_scenario(&s).with_options(PqpOptions {
        conflict_policy: ConflictPolicy::PreferLeft,
        ..PqpOptions::default()
    });
    let compiled = lenient
        .compile(parse_algebra(query).expect("query parses"))
        .expect("query compiles");
    let answer = lenient.run_compiled(&compiled).expect("lenient merge");
    let hq = answer
        .cell("ONAME", &Value::str("Citicorp"), "HEADQUARTERS")
        .unwrap();
    println!(
        "PreferLeft kept {} — cell is {}\n",
        hq.datum,
        render_cell(hq, &reg)
    );

    // Policy 3: credibility — the dictionary ranks PD (0.8) above CD
    // (0.7), so PD's claim wins; swap the scores and CD wins instead.
    let lqps = scenario_registry(&s);
    let retrieve = |db: &str, rel: &str, names: &[&str]| {
        lqps.execute_tagged(db, &LocalOp::retrieve(rel), &s.dictionary)
            .unwrap()
            .rename_attrs(names)
            .unwrap()
    };
    let inputs = [
        retrieve("AD", "BUSINESS", &["ONAME", "INDUSTRY"]),
        retrieve("PD", "CORPORATION", &["ONAME", "INDUSTRY", "HEADQUARTERS"]),
        retrieve("CD", "FIRM", &["ONAME", "CEO", "HEADQUARTERS"]),
    ];
    let (merged, conflicts) =
        merge_by_credibility(&inputs, "ONAME", &s.dictionary).expect("credibility merge");
    println!(
        "credibility policy settled {} conflict(s):",
        conflicts.len()
    );
    for c in &conflicts {
        println!(
            "  {}: kept `{}`, rejected `{}` (decided by {})",
            c.attribute,
            c.chosen.datum,
            c.rejected.datum,
            c.decided_by.map_or("tie", |id| reg.name(id)),
        );
    }
    let hq = merged
        .cell("ONAME", &Value::str("Citicorp"), "HEADQUARTERS")
        .unwrap();
    println!("  Citicorp HQ now: {}\n", render_cell(hq, &reg));

    // Footnote 13: the cardinality-inconsistency audit. Which keys do the
    // three databases disagree on existing at all?
    let report = audit_scheme("PORGANIZATION", &lqps, &s.dictionary).expect("audit");
    println!("{report}");
    println!("organizations missing from some sources:");
    for (key, sources) in &report.key_presence {
        if sources.len() < 3 {
            println!("  {key}: only in {}", sources.join(", "));
        }
    }
}
