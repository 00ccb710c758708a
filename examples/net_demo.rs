//! The front door end to end: an evented TCP server over a synthetic
//! federation, a closed-loop TCP client population threading between a
//! thousand parked idle sessions, and a single hand-driven client
//! showing the frame-level conversation — tagged rows, explain plans,
//! stable error codes.
//!
//! ```sh
//! cargo run --release --example net_demo
//! ```

use polygen::net::{NetClient, NetServer};
use polygen::serve::prelude::*;
use polygen::serve::request::{ErrorCode, ExplainOptions, Request, Response};
use polygen::workload::{self, drive, ClientMix, WorkloadConfig};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    // 1. Serve a 3-source federation on an ephemeral loopback port. One
    //    poller thread owns every connection socket and a small worker
    //    pool frames bytes and executes; admission control and the
    //    shared thread budget inside QueryService still bound the work.
    let config = WorkloadConfig::default()
        .with_sources(3)
        .with_entities(1_000);
    let scenario = workload::generate(&config);
    // A slow-query log wide enough that the hand-driven traced query
    // below survives the population's multi-millisecond entries.
    let service = Arc::new(QueryService::for_scenario(
        &scenario,
        ServeOptions::default().with_slow_log(256, Duration::ZERO),
    ));
    let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    println!("serving on {addr}\n");

    // 2. A closed-loop TCP population — the in-process driver's
    //    deterministic per-client scripts, each client a real socket
    //    connected before the run — plus a thousand *idle* connections
    //    parked for the whole run. Each idle session is one registration
    //    in the readiness poller, not a thread: the server stays an
    //    O(workers)-thread process.
    let mix = ClientMix::default()
        .with_clients(4)
        .with_queries_per_client(16)
        .with_think(Duration::from_millis(1));
    let idle: Vec<NetClient> = (0..1_000)
        .map(|_| NetClient::connect(addr).expect("park idle session"))
        .collect();
    let sessions: Vec<Mutex<NetClient>> = (0..mix.clients)
        .map(|_| Mutex::new(NetClient::connect(addr).expect("connect client")))
        .collect();
    let run = drive(&mix, |client, request| {
        sessions[client]
            .lock()
            .expect("each session has one client thread")
            .execute_frames(request)
            .expect("population runs")
    });
    println!(
        "population: {} queries from {} clients (+{} idle sessions parked) in {:?} ({:.0} q/s over TCP)",
        run.queries,
        mix.clients,
        idle.len(),
        run.elapsed,
        run.qps()
    );
    drop(idle);
    println!(
        "latency: p50 {} µs, p95 {} µs, p99 {} µs, max {} µs\n",
        run.latency.p50_micros(),
        run.latency.p95_micros(),
        run.latency.p99_micros(),
        run.latency.max_micros()
    );

    // 3. One client, by hand. Every answer carries its source tags; a
    //    repeated query comes back from the tagged-result cache
    //    byte-identical to the computed answer.
    let mut client = NetClient::connect(addr).expect("connect");
    let query = workload::queries::select_query(0);
    for attempt in ["first", "repeat"] {
        match client
            .execute(&Request::algebra(&query))
            .expect("select serves")
        {
            Response::Rows { answer, info } => println!(
                "{attempt}: {} tuples for C0 (result_hit = {}, {} worker threads)",
                answer.len(),
                info.result_hit,
                info.threads
            ),
            other => panic!("select must answer rows, got {other:?}"),
        }
    }

    // 4. Explain travels the same channel: the response is the plan
    //    text, not rows.
    match client
        .execute(&Request::sql(workload::queries::paper_shaped_sql(1)).with_explain(true))
        .expect("explain serves")
    {
        Response::Explain { plan, info } => println!(
            "\nexplain (plan_hit = {}): {} plan lines",
            info.plan_hit,
            plan.lines().count()
        ),
        other => panic!("explain must answer a plan, got {other:?}"),
    }

    // 5. Errors are structured frames with stable numeric codes — the
    //    connection survives and keeps serving.
    match client
        .execute(&Request::sql("SELEC CATEGORY FROM PENTITY"))
        .expect("errors are responses, not disconnects")
    {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::SqlSyntax);
            println!(
                "\nbad SQL: code {} ({}) — {message}",
                code.code(),
                code.mnemonic()
            );
        }
        other => panic!("bad SQL must error, got {other:?}"),
    }
    match client.execute(&Request::sql("   ")).expect("blank serves") {
        Response::Empty => println!("blank query: Response::Empty (still connected)"),
        other => panic!("blank must be Empty, got {other:?}"),
    }

    // 6. EXPLAIN ANALYZE executes and annotates every plan line with
    //    its measured actuals.
    match client
        .execute(
            &Request::sql(workload::queries::paper_shaped_sql(2))
                .with_explain_mode(ExplainOptions::Analyze),
        )
        .expect("analyze serves")
    {
        Response::Explain { plan, .. } => {
            println!("\nexplain analyze (act= on every node):");
            for line in plan.lines() {
                println!("  {line}");
            }
        }
        other => panic!("analyze must answer a plan, got {other:?}"),
    }

    // 7. A traced query leaves its full decode→queue→parse→plan→execute
    //    →flush waterfall in the slow-query log, and the whole stats
    //    surface — Prometheus exposition plus that log — is one
    //    `StatsRequest` frame away. The scrape is answered by the
    //    poller thread itself, so it works even with every worker busy.
    client
        .execute(&Request::algebra(&query).with_trace(true))
        .expect("traced query serves");
    let scrape = client.scrape_stats().expect("stats scrape serves");
    println!("\n== Live scrape (StatsRequest over the wire) ==");
    for line in scrape.lines().filter(|l| {
        l.starts_with("polygen_queries_total")
            || l.starts_with("polygen_result_hits_total")
            || l.starts_with("polygen_execute_micros_count")
            || l.starts_with("polygen_execute_micros_sum")
    }) {
        println!("{line}");
    }
    // The traced query's slowlog entry renders its span waterfall into
    // the scrape; find the chunk whose waterfall reaches net/flush.
    let lines: Vec<&str> = scrape.lines().collect();
    let mut printed = false;
    let mut i = 0;
    while i < lines.len() {
        if lines[i].starts_with("# slowlog ") {
            let mut j = i + 1;
            while j < lines.len() && lines[j].starts_with("#   ") {
                j += 1;
            }
            if lines[i..j].iter().any(|l| l.contains("net/flush")) {
                println!("\ntraced waterfall from the scrape:");
                for l in &lines[i..j] {
                    println!("{l}");
                }
                printed = true;
                break;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    assert!(
        printed,
        "traced wire query must leave its waterfall in the scrape"
    );

    // 8. The mediator is its own tagged source: `sys.*` relations
    //    answer through the same Query frames as user data — no new
    //    wire surface. Park a thousand idle sessions again and ask the
    //    server who is connected: every connection is one row in
    //    `sys.sessions`, materialized at admission (catalog reads
    //    bypass the result cache, so the answer is never stale).
    let parked: Vec<NetClient> = (0..1_000)
        .map(|_| NetClient::connect(addr).expect("park idle session"))
        .collect();
    match client
        .execute(&Request::sql(workload::queries::sys_sessions_query()))
        .expect("sys.sessions serves")
    {
        Response::Rows { answer, info } => {
            println!(
                "\nsys.sessions over the wire: {} live sessions (result_hit = {})",
                answer.len(),
                info.result_hit
            );
            assert!(
                answer.len() > parked.len(),
                "the parked population and this client are all visible"
            );
            assert!(!info.result_hit, "catalog answers are never cached");
        }
        other => panic!("sys.sessions must answer rows, got {other:?}"),
    }
    drop(parked);
    match client
        .execute(&Request::sql(workload::queries::sys_stats_query()))
        .expect("sys.stats serves")
    {
        Response::Rows { answer, .. } => {
            println!(
                "sys.stats over the wire: {} windowed rollup rows",
                answer.len()
            );
            assert!(!answer.is_empty(), "sys.stats has at least one window");
        }
        other => panic!("sys.stats must answer rows, got {other:?}"),
    }

    println!("\n== Server-side metrics ==");
    println!("{}", service.metrics());
    server.shutdown();
}
