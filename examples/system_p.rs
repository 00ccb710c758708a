//! "System P" — an interactive shell for the polygen federation, named
//! after the prototype the paper's §V announces ("A Prototype, called
//! System P, is currently being developed to realize the polygen model
//! and the polygen query processing capability presented in this paper").
//!
//! ```sh
//! cargo run --example system_p            # interactive
//! echo 'SELECT ONAME, CEO FROM PORGANIZATION WHERE INDUSTRY = "Banking"' \
//!   | cargo run --example system_p        # piped
//! ```
//!
//! Commands:
//! * plain SQL — served by the query service, tagged answer printed;
//! * `\a <expr>` — serve a polygen algebra expression directly;
//! * `\explain <sql>` — the full POM/IOM/plan/provenance report;
//! * `\schema` — the polygen schema; `\tables` — the local databases;
//! * `\audit <scheme>` — the cardinality-inconsistency report;
//! * `\quit` — leave.

use polygen::catalog::prelude::scenario;
use polygen::core::prelude::*;
use polygen::federation::prelude::audit_scheme;
use polygen::pqp::explain::explain;
use polygen::pqp::prelude::*;
use polygen::serve::{QueryService, Request, Response, ServeOptions};
use std::io::{self, BufRead, Write};

/// `\explain`'s report: the compiled stages, the answer and its
/// provenance.
fn explain_sql(pqp: &Pqp, sql: &str) -> Result<String, PqpError> {
    let compiled = pqp.compile(pqp.translate_sql(sql)?)?;
    let answer = pqp.run_compiled(&compiled)?;
    Ok(explain(&compiled, &answer, pqp.dictionary()))
}

fn main() {
    let s = scenario::build();
    let service = QueryService::for_scenario(&s, ServeOptions::default());
    let pqp = Pqp::for_scenario(&s);
    let reg = pqp.dictionary().registry().clone();

    eprintln!("System P — polygen federation shell (MIT scenario: AD, PD, CD)");
    eprintln!(
        "type SQL, or \\a <algebra>, \\explain <sql>, \\schema, \\tables, \\audit <scheme>, \\quit"
    );
    let stdin = io::stdin();
    loop {
        eprint!("polygen> ");
        io::stderr().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        if line == "\\schema" {
            for scheme in pqp.dictionary().schema().schemes() {
                println!("{scheme}");
                for (pa, ma) in scheme.attrs() {
                    println!("  {pa} ↦ {ma}");
                }
            }
            continue;
        }
        if line == "\\tables" {
            for db in &s.databases {
                println!("{}:", db.name);
                for rel in &db.relations {
                    println!("  {} ({} rows)", rel.schema(), rel.len());
                }
            }
            continue;
        }
        if let Some(scheme) = line.strip_prefix("\\audit ") {
            match audit_scheme(scheme.trim(), pqp.registry(), pqp.dictionary()) {
                Ok(report) => println!("{report}"),
                Err(e) => println!("audit error: {e}"),
            }
            continue;
        }
        if let Some(sql) = line.strip_prefix("\\explain ") {
            match explain_sql(&pqp, sql.trim()) {
                Ok(report) => println!("{report}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        let request = match line.strip_prefix("\\a ") {
            Some(expr) => Request::algebra(expr.trim()),
            None => Request::sql(line),
        };
        match service.execute(request) {
            Response::Rows { answer, info } => {
                println!("{}", render_relation(&answer, &reg));
                let cached = if info.result_hit {
                    ", from the result cache"
                } else {
                    ""
                };
                println!("({} tuples{cached})", answer.len());
            }
            Response::Explain { plan, .. } => println!("{plan}"),
            Response::Empty => {}
            Response::Error { code, message } => println!("error: {message} [{code}]"),
        }
    }
    eprintln!("bye");
}
