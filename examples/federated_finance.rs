//! A financial-research scenario in the spirit of the paper's CISL
//! prototype (MIT internal databases federated with Finsbury's Dataline
//! and I.P. Sharp's Disclosure): find profitable companies run by MIT
//! alumni, then use the source tags to (a) bill the right data vendors,
//! (b) rank answers by source credibility, and (c) identify which feeds
//! were consulted without contributing data.
//!
//! ```sh
//! cargo run --example federated_finance
//! ```

use polygen::catalog::prelude::scenario;
use polygen::core::prelude::*;
use polygen::federation::prelude::*;
use polygen::flat::Value;
use polygen::serve::{QueryService, Request, ServeOptions};

fn main() {
    let s = scenario::build();
    let service = QueryService::for_scenario(&s, ServeOptions::default());
    let snapshot = service.federation().snapshot();
    let reg = snapshot.dictionary().registry();

    // Profitable (> $1B) organizations whose CEO is a known alumnus —
    // touches all three databases plus the FINANCE relation. The equi-join
    // coalesces CEO into ANAME (paper Table 7 convention: the right name
    // survives), but the executor's alias tracking keeps `CEO` and
    // `DEGREE` referenceable, and the final projection restores the
    // requested names.
    let out = service.execute(Request::algebra(
        "(((PFINANCE [PROFIT >= 1000]) [ONAME = ONAME] PORGANIZATION) \
          [CEO = ANAME] PALUMNUS) [ONAME, PROFIT, CEO, DEGREE]",
    ));
    let answer = out
        .rows()
        .unwrap_or_else(|| panic!("query failed: {out:?}"));
    println!("Billion-dollar companies with alumni CEOs:\n");
    println!("{}", render_relation(answer, reg));

    // (a) Billing: every source that contributed data or mediated it.
    let contributing = lineage::contributing_sources(answer);
    let names: Vec<&str> = contributing.iter().map(|id| reg.name(id)).collect();
    println!("databases to bill for this answer: {}\n", names.join(", "));

    // (b) Credibility ranking: the dictionary scores AD=0.9, PD=0.8,
    //     CD=0.7; each tuple is as credible as its weakest cell.
    println!("answers ranked by source credibility:");
    for (idx, score) in rank_tuples(answer, &s.dictionary) {
        let t = &answer.tuples()[idx];
        println!(
            "  {:.2}  {} (CEO {}, sources {})",
            score,
            t[0].datum,
            t[2].datum,
            reg.render_set(&polygen::core::tuple::origins_of(t))
        );
    }

    // (c) Consulted-but-silent feeds: purely intermediate sources.
    let purely = lineage::purely_intermediate_sources(answer);
    if purely.is_empty() {
        println!("\nno purely-intermediate sources in this answer");
    } else {
        let names: Vec<&str> = purely.iter().map(|id| reg.name(*id)).collect();
        println!(
            "\nconsulted but contributed no visible data: {}",
            names.join(", ")
        );
    }

    // Cell-level drill-down, §IV-style.
    let citicorp_profit = answer
        .cell("ONAME", &Value::str("Citicorp"), "PROFIT")
        .expect("Citicorp qualifies");
    println!(
        "\nCiticorp's profit figure {} came from {} via {}",
        citicorp_profit.datum,
        reg.render_set(&citicorp_profit.origin),
        reg.render_set(&citicorp_profit.intermediate)
    );
}
