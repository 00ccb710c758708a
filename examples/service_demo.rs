//! The mediator as a service: a synthetic federation served to a
//! concurrent client population with plan & tagged-result caching,
//! admission control, a shared thread budget — and a mid-run source
//! update invalidating exactly the answers that read the updated source.
//!
//! ```sh
//! cargo run --release --example service_demo
//! ```

use polygen::serve::prelude::*;
use polygen::serve::request::{ErrorCode, Request, Response};
use polygen::workload::{self, drive, ClientMix, WorkloadConfig};
use std::time::Duration;

fn main() {
    // 1. A 4-source federation over a shared entity pool, plus a detail
    //    relation for joins — the paper's shape at benchmark scale.
    let config = WorkloadConfig::default()
        .with_sources(4)
        .with_entities(2_000)
        .with_coverage(0.7);
    let scenario = workload::generate(&config);
    let service = QueryService::for_scenario(&scenario, ServeOptions::default());

    // 2. A closed-loop population: 6 clients, a weighted mix of
    //    category selects, detail joins and paper-shaped SQL, 1 ms of
    //    think time, each client on its own deterministic RNG stream.
    let mix = ClientMix::default()
        .with_clients(6)
        .with_queries_per_client(30)
        .with_think(Duration::from_millis(1));
    let run = |label: &str| {
        let report = drive(&mix, |_client, request| {
            // One entry point for every language: the script is Requests,
            // each gets a Response back — no per-language dispatch.
            match service.execute(request.clone()) {
                Response::Rows { answer, info } => (info.result_hit, answer.len()),
                other => panic!("generated queries serve, got {other:?}"),
            }
        });
        let hits = report
            .per_client
            .iter()
            .flatten()
            .filter(|(hit, _)| *hit)
            .count();
        println!(
            "{label}: {} queries from {} clients in {:?} ({:.0} q/s), {} served from result cache",
            report.queries,
            mix.clients,
            report.elapsed,
            report.qps(),
            hits
        );
    };

    println!("== Phase 1: cold caches ==");
    run("phase 1");
    let (plans, results) = service.cache_sizes();
    println!("cached: {plans} plans, {results} tagged answers\n");

    // 3. Source S1 refreshes upstream: its own measurements (the
    //    single-source VAL_1 column) change; the shared attributes stay
    //    consistent with the rest of the federation (the paper's
    //    conflict-free assumption). The version bump evicts exactly the
    //    plans/answers reading S1.
    println!("== Source update: S1 refreshes ==");
    let s1 = scenario
        .databases
        .iter()
        .find(|db| db.name == "S1")
        .expect("S1 exists");
    let refreshed: Vec<_> = s1
        .relations
        .iter()
        .map(|rel| {
            let attrs: Vec<&str> = rel.schema().attrs().iter().map(|a| a.as_ref()).collect();
            let val_col = attrs.iter().position(|a| a.starts_with("VAL_"));
            let mut b = polygen::flat::relation::Relation::build(rel.name(), &attrs);
            for row in rel.rows() {
                let mut row = row.clone();
                if let (Some(i), Some(polygen::flat::value::Value::Int(v))) =
                    (val_col, val_col.map(|i| &row[i]))
                {
                    row[i] = polygen::flat::value::Value::int(v + 1_000);
                }
                b = b.vrow(row);
            }
            b.finish().expect("refreshed relation rebuilds")
        })
        .collect();
    let version = service.update_source_relations("S1", refreshed);
    let (plans, results) = service.cache_sizes();
    println!(
        "S1 now at version {version}; caches kept {plans} plans, {results} answers \
         (entries reading S1 evicted)\n"
    );

    // 4. Same population again: queries not touching S1 still hit;
    //    queries reading S1 recompute against the new data, then the
    //    cache re-warms.
    println!("== Phase 2: after the update ==");
    run("phase 2");

    // 5. One answer with its provenance, straight off the hit path.
    let Response::Rows { answer, info } =
        service.execute(Request::algebra(workload::queries::select_query(0)))
    else {
        panic!("select serves")
    };
    println!(
        "\nsample answer: {} tuples for C0 (result_hit = {}, plan fingerprint {:016x})",
        answer.len(),
        info.result_hit,
        info.fingerprint
    );
    if let Some(tuple) = answer.tuples().first() {
        let reg = service
            .federation()
            .snapshot()
            .dictionary()
            .registry()
            .clone();
        println!(
            "first tuple: {}",
            polygen::core::render::render_tuple(tuple, &reg)
        );
    }

    // 6. Failures come back as structured `Response::Error` values with
    //    stable numeric codes — the same codes clients see on the wire —
    //    and the metrics bucket them by code, not by message text.
    println!("\n== Error taxonomy ==");
    for request in [
        Request::sql("SELEC CATEGORY FROM PENTITY"),
        Request::app("SELECT CATEGORY FROM PENTITY"),
        Request::algebra("NOPE [CATEGORY = \"C0\"]"),
    ] {
        match service.execute(request) {
            Response::Error { code, message } => {
                println!("  {:>3} {:<22} {message}", code.code(), code.mnemonic())
            }
            other => panic!("bad query must error, got {other:?}"),
        }
    }
    let snapshot = service.metrics();
    println!(
        "metrics bucket them: {} SqlSyntax, {} AppUnknownRelation, {} UnknownRelation, {} shed",
        snapshot.errors_with_code(ErrorCode::SqlSyntax),
        snapshot.errors_with_code(ErrorCode::AppUnknownRelation),
        snapshot.errors_with_code(ErrorCode::UnknownRelation),
        snapshot.shed()
    );

    println!("\n== Service metrics ==");
    println!("{}", service.metrics());
}
