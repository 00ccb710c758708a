//! Scale study: the paper's three-database federation generalized to many
//! sources — "in a federated database environment with hundreds of
//! databases, the data source and intermediate source information can be
//! very valuable" (§IV). Generates seeded synthetic federations of
//! growing width, runs the same polygen query against each, and reports
//! merge fan-in, tag growth, routing and run time.
//!
//! ```sh
//! cargo run --release --example synthetic_scale
//! ```

use polygen::core::prelude::{lineage, PolygenRelation};
use polygen::pqp::prelude::*;
use polygen::sql::prelude::parse_algebra;
use polygen::workload::{self, queries, WorkloadConfig};
use std::time::Instant;

/// Compile algebra text on `pqp` and run it under the PQP's own engine
/// settings: the compiled stages and the answer.
fn run(pqp: &Pqp, text: &str) -> (CompiledQuery, PolygenRelation) {
    let compiled = pqp
        .compile(parse_algebra(text).expect("query parses"))
        .expect("query compiles");
    let answer = pqp.run_compiled(&compiled).expect("query runs");
    (compiled, answer)
}

fn main() {
    println!(
        "{:>8} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "sources", "rows", "answer", "lqp-rows", "pqp-rows", "ms"
    );
    for sources in [2usize, 4, 8, 16, 32] {
        let config = WorkloadConfig::default()
            .with_sources(sources)
            .with_entities(500)
            .with_coverage(0.5);
        let scenario = workload::generate(&config);
        let total_rows: usize = scenario
            .databases
            .iter()
            .flat_map(|d| d.relations.iter())
            .map(|r| r.len())
            .sum();
        let query = queries::join_query(40);

        let pqp = Pqp::for_scenario(&scenario);
        let t0 = Instant::now();
        let (compiled, answer) = run(&pqp, &query);
        let ms = t0.elapsed().as_secs_f64() * 1e3;

        let (lqp_rows, pqp_rows) = compiled.iom.routing_counts();
        println!(
            "{:>8} {:>9} {:>9} {:>10} {:>10} {:>12.2}",
            sources,
            total_rows,
            answer.len(),
            lqp_rows,
            pqp_rows,
            ms
        );
    }

    // Tag growth: a merged key cell in a K-source federation carries up
    // to K origins — the cost the sourceset_repr bench quantifies.
    println!("\ntag width in the merged PENTITY key column:");
    for sources in [2usize, 8, 32] {
        let config = WorkloadConfig::default()
            .with_sources(sources)
            .with_entities(200)
            .with_coverage(0.9);
        let scenario = workload::generate(&config);
        let pqp = Pqp::for_scenario(&scenario);
        let (_, answer) = run(&pqp, "PENTITY [ENAME, CATEGORY]");
        let cols = lineage::column_provenance(&answer);
        let max_width = answer
            .tuples()
            .iter()
            .map(|t| t[0].origin.len())
            .max()
            .unwrap_or(0);
        println!(
            "  {:>2} sources: key column origins span {} sources, max per-cell width {}",
            sources,
            cols[0].origins.len(),
            max_width
        );
    }
}
