//! Quickstart: build a two-source federation from scratch, ask it a
//! question, and read the provenance off the answer.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use polygen::catalog::prelude::*;
use polygen::core::prelude::*;
use polygen::flat::prelude::*;
use polygen::lqp::prelude::*;
use polygen::serve::{Federation, FederationSnapshot, QueryService, Request, ServeOptions};
use std::sync::Arc;

fn main() {
    // 1. Two local databases that partially overlap: a hedge fund's
    //    watchlist and a news vendor's company feed.
    let watchlist = Relation::build("WATCH", &["TICKER", "RATING"])
        .key(&["TICKER"])
        .row(&["IBM", "hold"])
        .row(&["AAPL", "buy"])
        .row(&["DEC", "sell"])
        .finish()
        .unwrap();
    let feed = Relation::build("COMPANIES", &["SYM", "NAME", "SECTOR"])
        .key(&["SYM"])
        .row(&["IBM", "International Business Machines", "High Tech"])
        .row(&["AAPL", "Apple Computer", "High Tech"])
        .row(&["BT", "Banker's Trust", "Finance"])
        .finish()
        .unwrap();

    // 2. Schema integration: one polygen scheme spanning both sources.
    let mut dictionary = DataDictionary::new();
    dictionary.intern_source("FUND");
    dictionary.intern_source("NEWS");
    dictionary.schema_mut().push(PolygenScheme::new(
        "PSECURITY",
        vec![
            (
                "TICKER",
                AttributeMapping::of(&[("FUND", "WATCH", "TICKER"), ("NEWS", "COMPANIES", "SYM")]),
            ),
            (
                "RATING",
                AttributeMapping::of(&[("FUND", "WATCH", "RATING")]),
            ),
            (
                "SECTOR",
                AttributeMapping::of(&[("NEWS", "COMPANIES", "SECTOR")]),
            ),
        ],
    ));

    // 3. Stand up LQPs and serve the federation through the PQP
    //    (Figure 1 in miniature).
    let registry = LqpRegistry::new();
    registry.register(Arc::new(InMemoryLqp::new("FUND", vec![watchlist])));
    registry.register(Arc::new(InMemoryLqp::new("NEWS", vec![feed])));
    let snapshot = FederationSnapshot::from_parts(Arc::new(dictionary), Arc::new(registry));
    let service = QueryService::new(Federation::new(snapshot), ServeOptions::default());

    // 4. Ask: which high-tech securities do we have ratings for?
    let out = service.execute(Request::sql(
        "SELECT TICKER, RATING, SECTOR FROM PSECURITY WHERE SECTOR = \"High Tech\"",
    ));
    let answer = out
        .rows()
        .unwrap_or_else(|| panic!("query failed: {out:?}"));

    // 5. Every cell tells you where it came from and which sources
    //    mediated its selection.
    let snapshot = service.federation().snapshot();
    let reg = snapshot.dictionary().registry();
    println!("answer:\n{}", render_relation(answer, reg));
    for col in lineage::column_provenance(answer) {
        println!(
            "{:>7}: origins {:<14} mediators {}",
            col.attribute,
            reg.render_set(&col.origins),
            reg.render_set(&col.intermediates)
        );
    }
    // The merged TICKER column originates from both sources; the SECTOR
    // select made NEWS a mediator of every surviving cell.
    let ibm = answer
        .cell("TICKER", &Value::str("IBM"), "TICKER")
        .expect("IBM present");
    assert_eq!(ibm.origin.len(), 2);
    assert!(!ibm.intermediate.is_empty());
    println!("\nIBM's ticker cell: {}", render_cell(ibm, reg));
}
