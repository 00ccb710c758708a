//! Differential property tests for the wire layer (`polygen-net`).
//!
//! The guarantee under test: **the transport is invisible**. A TCP
//! session executing a workload script receives responses that are
//! byte-identical — schema, data, origin tags, intermediate tags, tuple
//! order, error codes — to the same script run in-process through
//! `QueryService::execute`, with only the timing-dependent `Summary`
//! frame allowed to differ. That holds across a mid-run source update,
//! and overload produces a structured `Overloaded` frame on a live
//! connection, never a dropped socket.
//!
//! Plus codec soundness: every frame kind round-trips bit-exactly, and
//! truncating or corrupting bytes yields errors, not panics.
//!
//! CI runs this suite under both `POLYGEN_THREADS=1` and `=4`, so wire
//! answers are checked against sequential and partition-parallel
//! execution alike.

mod common;

use common::fixtures::{panicking_source, small_config};
use polygen::core::cell::Cell;
use polygen::core::source::{SourceId, SourceSet};
use polygen::flat::relation::Relation;
use polygen::flat::value::Value;
use polygen::net::prelude::*;
use polygen::serve::prelude::*;
use polygen::serve::wire::codec::{CodecError, FramePoll, FrameReader, MAX_FRAME_LEN};
use polygen::serve::wire::{
    deterministic_bytes, request_frame, response_frames, response_from_frames, Frame,
};
use polygen::workload::{self, ClientMix, DriveReport, MixWeights, WorkloadConfig};
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A deterministic, seed-driven frame of any kind — the generator
/// behind the codec round-trip property. A tiny splitmix keeps the
/// content varied without pulling in an RNG crate.
fn arbitrary_frame(seed: u64) -> Frame {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let value = |v: u64| match v % 5 {
        0 => Value::Null,
        1 => Value::Bool(v % 2 == 0),
        2 => Value::Int(v as i64),
        3 => Value::float(v as f64 / 7.0),
        _ => Value::str(format!("s{v}")),
    };
    let source_set =
        |v: u64| SourceSet::from_ids((0..v % 4).map(|i| SourceId((v % 50) as u16 + i as u16)));
    let tuple = |v: u64| -> Vec<Cell> {
        (0..1 + v % 3)
            .map(|i| Cell::new(value(v ^ i), source_set(v >> 8), source_set(v >> 16)))
            .collect()
    };
    match next() % 10 {
        0 => Frame::Hello {
            version: (next() % 256) as u8,
        },
        1 => Frame::Query {
            lang: [Lang::Sql, Lang::Algebra, Lang::App][(next() % 3) as usize],
            explain: [
                ExplainOptions::Off,
                ExplainOptions::Plan,
                ExplainOptions::Analyze,
            ][(next() % 3) as usize],
            trace: next() % 2 == 0,
            text: format!("PENTITY [CAT = {}]", next() % 100),
        },
        2 => Frame::Schema {
            name: format!("R{}", next() % 10),
            attrs: (0..1 + next() % 4).map(|i| format!("A{i}")).collect(),
            key: vec![0],
        },
        3 => Frame::Rows {
            tuples: (0..next() % 5).map(|_| tuple(next())).collect(),
        },
        4 => Frame::Explain {
            plan: format!("Project\n  Scan S{}\n", next() % 5),
        },
        5 => Frame::Empty,
        6 => Frame::Error {
            code: (next() % 600) as u16,
            message: format!("err {}", next()),
        },
        7 => Frame::Summary {
            info: ResponseInfo {
                canonical: format!("canon {}", next()),
                fingerprint: next(),
                plan_hit: next() % 2 == 0,
                result_hit: next() % 2 == 0,
                index_routed: next() % 2 == 0,
                threads: (next() % 16) as usize,
                latency_micros: next() % 1_000_000,
            },
        },
        8 => Frame::StatsRequest,
        _ => Frame::Stats {
            text: format!(
                "# HELP polygen_queries_total Queries served.\npolygen_queries_total {}\n",
                next() % 1_000
            ),
        },
    }
}

/// Stand up a TCP server over a service built from `scenario`.
fn spawn_server(
    scenario: &polygen::catalog::scenario::Scenario,
    options: ServeOptions,
) -> (Arc<QueryService>, NetServer) {
    let service = Arc::new(QueryService::for_scenario(scenario, options));
    let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    (service, server)
}

/// The in-process baseline for one script query: frames of an uncached
/// `execute`, in the deterministic (summary-less) byte view.
fn baseline_bytes(service: &QueryService, q: &Request) -> Vec<u8> {
    deterministic_bytes(&response_frames(&service.execute(q.clone())))
}

/// Run `mix` over TCP with the workload driver: one `NetClient` per
/// client, connected before the run, each issuing its script
/// closed-loop. Every query's full response frame stream comes back in
/// script order.
fn drive_tcp(mix: &ClientMix, addr: SocketAddr) -> DriveReport<Vec<Frame>> {
    let sessions: Vec<Mutex<NetClient>> = (0..mix.clients)
        .map(|_| Mutex::new(NetClient::connect(addr).expect("connect")))
        .collect();
    workload::drive(mix, |client, request| {
        sessions[client]
            .lock()
            .expect("each session has one client thread")
            .execute_frames(request)
            .expect("TCP exchange")
    })
}

/// The decoder over the ledger's five class answers (select, join,
/// paper, point, range; seed 101, the point and range classes served by
/// the detail indexes): every proper prefix of every frame is
/// `Truncated` or `Corrupt`, and every frame with one byte inverted
/// decodes to an error or to a frame that re-encodes to exactly those
/// bytes. Nothing panics. The answers' tuples ride in `Rows` frames of
/// a few tuples each rather than the served 256, so that every cut and
/// flip of every tuple is tried in a quadratic number of decoded bytes
/// a debug build gets through.
#[test]
fn ledger_class_frames_survive_every_cut_and_flip() {
    const TUPLES_PER_FRAME: usize = 4;
    let scenario = workload::generate(&WorkloadConfig {
        seed: 101,
        sources: 3,
        entities: 4_000,
        detail_rows: 16_000,
        ..WorkloadConfig::default()
    });
    let service = QueryService::for_scenario(&scenario, ServeOptions::default().without_caches())
        .with_index_specs(&[
            polygen::index::IndexSpec::hash("S0", "DETAIL", "DNAME"),
            polygen::index::IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
        ])
        .expect("the ledger's detail indexes build");
    let classes = [
        Request::algebra(workload::queries::select_query(3)),
        Request::algebra(workload::queries::join_query(50)),
        Request::sql(workload::queries::paper_shaped_sql(3)),
        Request::algebra(workload::queries::point_lookup(7)),
        Request::algebra(workload::queries::range_scan(40, 49)),
    ];
    for request in classes {
        let response = service.execute(request.clone());
        let answer = response.rows().expect("every class answers rows");
        assert!(!answer.is_empty(), "`{}` answers no rows", request.text);
        let mut frames: Vec<Frame> = response_frames(&response)
            .into_iter()
            .filter(|f| !matches!(f, Frame::Rows { .. }))
            .collect();
        frames.extend(
            answer
                .tuples()
                .chunks(TUPLES_PER_FRAME)
                .map(|t| Frame::Rows { tuples: t.to_vec() }),
        );
        for frame in frames {
            let wire = frame.encode();
            let payload = &wire[4..];
            assert_eq!(Frame::decode(payload).as_ref(), Ok(&frame));
            for cut in 0..payload.len() {
                assert!(
                    matches!(
                        Frame::decode(&payload[..cut]),
                        Err(CodecError::Truncated | CodecError::Corrupt(_))
                    ),
                    "`{}`: a {cut}-byte prefix of a tag-{} frame decoded",
                    request.text,
                    frame.tag()
                );
            }
            let mut flipped = payload.to_vec();
            for at in 0..flipped.len() {
                flipped[at] = !flipped[at];
                if let Ok(back) = Frame::decode(&flipped) {
                    assert!(
                        back.encode()[4..] == flipped[..],
                        "`{}`: byte {at} of a tag-{} frame inverted decodes to a frame of \
                         other bytes",
                        request.text,
                        frame.tag()
                    );
                }
                flipped[at] = !flipped[at];
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Codec round trip: decode∘encode is the identity on every frame
    /// kind, and re-encoding the decoded frame is byte-identical.
    #[test]
    fn frames_round_trip_bit_exactly(seed in any::<u64>()) {
        let frame = arbitrary_frame(seed);
        let wire = frame.encode();
        let back = Frame::decode(&wire[4..]).expect("well-formed frame decodes");
        prop_assert_eq!(&back, &frame);
        prop_assert_eq!(back.encode(), wire);
    }

    /// Robustness: every strict prefix of a valid payload fails cleanly
    /// (no panic, no bogus success), as does appended garbage.
    #[test]
    fn truncated_and_padded_frames_error_cleanly(seed in any::<u64>()) {
        let frame = arbitrary_frame(seed);
        let payload = &frame.encode()[4..];
        for cut in 0..payload.len() {
            prop_assert!(
                Frame::decode(&payload[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
        }
        let mut padded = payload.to_vec();
        padded.push(0);
        prop_assert!(matches!(Frame::decode(&padded), Err(CodecError::Corrupt(_))));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole differential: a concurrent TCP population against a
    /// cached service receives byte-identical deterministic frames to a
    /// sequential in-process replay against an uncached service.
    #[test]
    fn tcp_responses_are_byte_identical_to_in_process(
        fed_seed in any::<u64>(),
        mix_seed in any::<u64>(),
        clients in 2usize..4,
    ) {
        let scenario = workload::generate(&small_config(fed_seed, 3, 72));
        let (_service, server) = spawn_server(&scenario, ServeOptions::default());
        let uncached =
            QueryService::for_scenario(&scenario, ServeOptions::default().without_caches());
        let mix = ClientMix::default()
            .with_seed(mix_seed)
            .with_clients(clients)
            .with_queries_per_client(6)
            .with_weights(MixWeights::with_index_lookups(2, 1));
        let run = drive_tcp(&mix, server.addr());
        prop_assert_eq!(run.queries, mix.total_queries());
        prop_assert_eq!(run.latency.count(), mix.total_queries());
        for (client, frames_per_query) in run.per_client.iter().enumerate() {
            let script = mix.script(client);
            prop_assert_eq!(frames_per_query.len(), script.len());
            for (i, (frames, q)) in frames_per_query.iter().zip(&script).enumerate() {
                prop_assert_eq!(
                    deterministic_bytes(frames),
                    baseline_bytes(&uncached, q),
                    "client {} query {} `{}`: wire bytes diverge from in-process",
                    client, i, q.text
                );
            }
        }
        server.shutdown();
    }

    /// The same guarantee across a mid-run source update, mirroring the
    /// serve suite's phase test: phase 1 over TCP, refresh one source on
    /// both services, phase 2 over TCP — each phase byte-identical to
    /// its in-process baseline.
    #[test]
    fn wire_stays_identical_across_source_update(
        fed_seed in any::<u64>(),
        mix_seed in any::<u64>(),
        delta in 1i64..1_000,
    ) {
        let scenario = workload::generate(&small_config(fed_seed, 3, 72));
        let (service, server) = spawn_server(&scenario, ServeOptions::default());
        let uncached =
            QueryService::for_scenario(&scenario, ServeOptions::default().without_caches());
        let mix = ClientMix::default()
            .with_seed(mix_seed)
            .with_clients(3)
            .with_queries_per_client(5);
        let refreshed = refreshed_relations(&scenario, "S1", delta);

        let check_phase = |label: &str| {
            let run = drive_tcp(&mix, server.addr());
            for (client, frames_per_query) in run.per_client.iter().enumerate() {
                for (i, (frames, q)) in
                    frames_per_query.iter().zip(&mix.script(client)).enumerate()
                {
                    prop_assert_eq!(
                        deterministic_bytes(frames),
                        baseline_bytes(&uncached, q),
                        "{}: client {} query {} diverged", label, client, i
                    );
                }
            }
        };

        check_phase("pre-update");
        service.update_source_relations("S1", refreshed.clone());
        uncached.update_source_relations("S1", refreshed);
        check_phase("post-update");
        // The update actually changed what the wire carries: cached
        // answers reading S1 were evicted, not replayed stale.
        prop_assert!(
            service.metrics().invalidated_results > 0,
            "update invalidated nothing"
        );
        server.shutdown();
    }
}

/// Was this frame stream answered from the result cache?
fn result_hit(frames: &[Frame]) -> bool {
    matches!(frames.last(), Some(Frame::Summary { info }) if info.result_hit)
}

/// `service`'s result-cache rows in `sys.cache`: canonical text → the
/// `BYTES` cell.
fn cached_result_bytes(service: &QueryService) -> Vec<(String, Value)> {
    let response = service.execute(Request::sql("SELECT CACHE, ENTRY, BYTES FROM sys.cache"));
    let answer = response.rows().expect("sys.cache answers rows");
    answer
        .tuples()
        .iter()
        .filter(|t| t[0].datum == Value::str("result"))
        .map(|t| (t[1].datum.to_string(), t[2].datum.clone()))
        .collect()
}

/// A service built by `make`, served over TCP on a loopback port.
fn served(make: &impl Fn(ServeOptions) -> QueryService) -> (Arc<QueryService>, NetServer) {
    let service = Arc::new(make(ServeOptions::default()));
    let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    (service, server)
}

/// Every route an answer can take through the result cache, against
/// `uncached`'s answer in the deterministic byte view. `wired` is
/// filled over TCP: a wire request caches the frames it sends, a second
/// one writes them again, and an in-process request decodes them.
/// `local` is filled in process, which caches the same frames, and then
/// answers a wire request from them. Each route must carry the uncached
/// answer's bytes, every repeat must be a result hit, and `sys.cache`
/// must report each of `wired`'s entries' `BYTES` as exactly its
/// `Schema` and `Rows` frames, and each of `local`'s as the same.
fn assert_cache_routes_match_uncached(
    uncached: &QueryService,
    wired: &(Arc<QueryService>, NetServer),
    local: &(Arc<QueryService>, NetServer),
    requests: &[Request],
) {
    let mut wired_client = NetClient::connect(wired.1.addr()).expect("connect");
    let mut local_client = NetClient::connect(local.1.addr()).expect("connect");
    let mut cached = std::collections::BTreeMap::new();
    for request in requests {
        let reference = uncached.execute(request.clone());
        let expected = deterministic_bytes(&response_frames(&reference));
        let rows = matches!(reference, Response::Rows { .. });
        let over_tcp = |client: &mut NetClient, route: &str| {
            let frames = client.execute_frames(request).expect("TCP exchange");
            assert_eq!(
                deterministic_bytes(&frames),
                expected,
                "{route}: `{}` diverges from the uncached answer",
                request.text
            );
            frames
        };
        let first = over_tcp(&mut wired_client, "wire, filling frames");
        let hit = over_tcp(&mut wired_client, "wire hit on frames");
        assert_eq!(result_hit(&hit), rows, "`{}`", request.text);
        let decoded = wired.0.execute(request.clone());
        assert_eq!(decoded.info().is_some_and(|i| i.result_hit), rows);
        assert_eq!(
            deterministic_bytes(&response_frames(&decoded)),
            expected,
            "in-process hit on frames: `{}`",
            request.text
        );
        local.0.execute(request.clone());
        let hit = over_tcp(&mut local_client, "wire hit on frames filled in process");
        assert_eq!(result_hit(&hit), rows, "`{}`", request.text);
        if let Some(Frame::Summary { info }) = first.last() {
            cached.insert(info.canonical.clone(), expected.len());
        }
    }
    let wired_bytes = cached_result_bytes(&wired.0);
    assert_eq!(wired_bytes.len(), cached.len());
    for (entry, bytes) in &wired_bytes {
        let len = cached[entry];
        assert_eq!(*bytes, Value::int(len as i64), "`{entry}` holds its frames");
    }
    let mut local_bytes = cached_result_bytes(&local.0);
    let mut wired_bytes = wired_bytes;
    local_bytes.sort();
    wired_bytes.sort();
    assert_eq!(
        local_bytes, wired_bytes,
        "an in-process fill caches the same frames"
    );
}

/// The cache routes over the ledger's five class answers (select,
/// join, paper, point, range; seed 101, the point and range classes
/// served by the detail indexes). Each class misses once per service.
#[test]
fn cache_routes_match_uncached_on_ledger_classes() {
    let scenario = workload::generate(&WorkloadConfig {
        seed: 101,
        sources: 3,
        entities: 4_000,
        detail_rows: 16_000,
        ..WorkloadConfig::default()
    });
    let make = |options| {
        QueryService::for_scenario(&scenario, options)
            .with_index_specs(&[
                polygen::index::IndexSpec::hash("S0", "DETAIL", "DNAME"),
                polygen::index::IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
            ])
            .expect("the ledger's detail indexes build")
    };
    let classes = [
        Request::algebra(workload::queries::select_query(3)),
        Request::algebra(workload::queries::join_query(50)),
        Request::sql(workload::queries::paper_shaped_sql(3)),
        Request::algebra(workload::queries::point_lookup(7)),
        Request::algebra(workload::queries::range_scan(40, 49)),
    ];
    let (wired, local) = (served(&make), served(&make));
    let uncached = make(ServeOptions::default().without_caches());
    assert_cache_routes_match_uncached(&uncached, &wired, &local, &classes);
    let (w, l) = (wired.0.metrics(), local.0.metrics());
    assert_eq!((w.result_misses, w.result_hits), (5, 10));
    assert_eq!((l.result_misses, l.result_hits), (5, 5));
    wired.1.shutdown();
    local.1.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The cache routes over a generated federation's scripted queries,
    /// then again after a source update, which purges frames entries
    /// exactly as it purges relations.
    #[test]
    fn cache_routes_match_uncached_on_generated_federations(
        fed_seed in any::<u64>(),
        mix_seed in any::<u64>(),
        delta in 1i64..1_000,
    ) {
        let scenario = workload::generate(&small_config(fed_seed, 3, 72));
        let script = ClientMix::default()
            .with_seed(mix_seed)
            .with_queries_per_client(8)
            .with_weights(MixWeights::with_index_lookups(2, 1))
            .script(0);
        let make = |options| QueryService::for_scenario(&scenario, options);
        let (wired, local) = (served(&make), served(&make));
        let uncached = make(ServeOptions::default().without_caches());
        assert_cache_routes_match_uncached(&uncached, &wired, &local, &script);
        let refreshed = refreshed_relations(&scenario, "S1", delta);
        for service in [&wired.0, &local.0] {
            service.update_source_relations("S1", refreshed.clone());
        }
        uncached.update_source_relations("S1", refreshed);
        let (w, l) = (wired.0.metrics(), local.0.metrics());
        prop_assert_eq!(w.invalidated_results, l.invalidated_results);
        prop_assert_eq!(wired.0.cache_sizes().1, local.0.cache_sizes().1);
        assert_cache_routes_match_uncached(&uncached, &wired, &local, &script);
        wired.1.shutdown();
        local.1.shutdown();
    }
}

/// Error codes cross the wire unchanged: for a gallery of failing
/// queries (every layer band) the TCP response carries exactly the code
/// in-process `execute` reports — and the connection survives to serve
/// the next query.
#[test]
fn error_codes_are_identical_over_the_wire() {
    let scenario = workload::generate(&small_config(11, 3, 64));
    let (service, server) = spawn_server(&scenario, ServeOptions::default());
    let mut session = NetClient::connect(server.addr()).expect("connect");
    let bad = [
        Request::sql("SELECT"),                   // 100 sql-syntax
        Request::sql("SELECT NOPE FROM NOWHERE"), // lowering band
        Request::algebra("ZZZ [CAT = 0]"),        // 303 unknown relation
        Request::algebra("PENTITY [NOPE = 1]"),   // 304 unresolved attribute
        Request::app("SELECT X FROM Y"),          // 2xx app band
        Request::algebra("PENTITY"),              // 302 bare relation
    ];
    for request in bad {
        let in_process = service.execute(request.clone());
        let code = in_process
            .error_code()
            .unwrap_or_else(|| panic!("`{}` should fail in-process", request.text));
        let over_wire = session.execute(&request).expect("transport stays healthy");
        assert_eq!(
            over_wire.error_code(),
            Some(code),
            "`{}`: wire and in-process codes diverge",
            request.text
        );
        assert!(over_wire.payload_eq(&in_process));
    }
    // The same connection still answers real queries afterwards.
    let answer = session
        .execute(&Request::algebra("PENTITY [CATEGORY = \"C0\"]"))
        .expect("healthy connection");
    assert!(matches!(answer, Response::Rows { .. }));
    // Blank text and EXPLAIN cross the wire too.
    assert_eq!(
        session.execute(&Request::sql("   ")).expect("blank"),
        Response::Empty
    );
    let explained = session
        .execute(&Request::algebra("PENTITY [CATEGORY = \"C0\"]").with_explain(true))
        .expect("explain");
    let in_process =
        service.execute(Request::algebra("PENTITY [CATEGORY = \"C0\"]").with_explain(true));
    assert!(explained.payload_eq(&in_process), "plan text matches");
    server.shutdown();
}

/// An overload-shedding episode: with admission capacity 1 and no
/// queue, two connections race for the single slot until one of them
/// observes a structured `Overloaded` (503) frame — a real frame on a
/// live socket, never an io error or disconnect — and both connections
/// still serve afterwards. Which side loses the race is scheduling
/// luck, so either observation ends the episode.
#[test]
fn overload_sheds_structured_frames_not_connections() {
    let scenario = workload::generate(&small_config(7, 3, 2_000));
    let (service, server) = spawn_server(
        &scenario,
        ServeOptions::default()
            .without_caches()
            .with_admission(1, 0),
    );
    let heavy = workload::queries::paper_shaped_sql(0);
    let cheap = Request::algebra("PENTITY [CATEGORY = \"C0\"]");
    let shed_seen = AtomicBool::new(false);
    let addr = server.addr();

    // Observe one request/response exchange: assert a shed is exactly
    // the structured single-frame form, flag it, and hand back the
    // decoded response.
    let exchange = |session: &mut NetClient, request: &Request, who: &str| -> Response {
        let frames = session
            .execute_frames(request)
            .unwrap_or_else(|e| panic!("{who} transport stays healthy: {e}"));
        let response = response_from_frames(&frames).expect("well-formed stream");
        if response.is_overloaded() {
            assert!(matches!(
                frames.as_slice(),
                [Frame::Error { code: 503, .. }]
            ));
            shed_seen.store(true, Ordering::SeqCst);
        } else {
            assert!(
                matches!(response, Response::Rows { .. }),
                "unexpected {who} response: {response:?}"
            );
        }
        response
    };

    let mut victim = NetClient::connect(addr).expect("victim connects");
    std::thread::scope(|scope| {
        let exchange = &exchange;
        let heavy = &heavy;
        let shed_seen = &shed_seen;
        // The occupant: heavy queries monopolizing the slot. It may
        // itself lose the race and be the one shed — that observation
        // counts too (and ends its loop via the flag).
        scope.spawn(move || {
            let mut session = NetClient::connect(addr).expect("occupant connects");
            for _ in 0..300 {
                if shed_seen.load(Ordering::SeqCst) {
                    break;
                }
                exchange(&mut session, &Request::sql(heavy.clone()), "occupant");
            }
            // The occupant's own socket survived the episode.
            exchange(
                &mut session,
                &Request::algebra("PENTITY [CATEGORY = \"C1\"]"),
                "occupant",
            );
        });
        // The victim: cheap queries on one long-lived connection until
        // either side has observed a shed (bounded so it cannot hang).
        for _ in 0..2_000 {
            if shed_seen.load(Ordering::SeqCst) {
                break;
            }
            exchange(&mut victim, &cheap, "victim");
        }
        assert!(
            shed_seen.load(Ordering::SeqCst),
            "no connection ever observed a shed frame"
        );
    });

    // The episode over, the same victim socket still serves...
    let served = victim.execute(&cheap).expect("post-episode transport");
    assert!(matches!(served, Response::Rows { .. }));
    // ...and so does a fresh connection.
    let mut fresh = NetClient::connect(addr).expect("reconnect");
    let served = fresh.execute(&cheap).expect("fresh transport");
    assert!(matches!(served, Response::Rows { .. }));
    let metrics = service.metrics();
    assert!(metrics.shed() > 0, "metrics bucket the shed under 503");
    assert_eq!(
        metrics.shed(),
        metrics.rejected,
        "taxonomy agrees with counter"
    );
    server.shutdown();
}

/// A deterministic "upstream refresh" of one source: every value in its
/// single-source `VAL_*` column shifts by `delta` (same helper as the
/// serve suite, so both differential tests refresh identically).
fn refreshed_relations(
    scenario: &polygen::catalog::scenario::Scenario,
    source: &str,
    delta: i64,
) -> Vec<Relation> {
    let db = scenario
        .databases
        .iter()
        .find(|db| db.name == source)
        .unwrap_or_else(|| panic!("source {source} missing"));
    db.relations
        .iter()
        .map(|rel| {
            let attrs: Vec<&str> = rel.schema().attrs().iter().map(|a| a.as_ref()).collect();
            let val_col = attrs.iter().position(|a| a.starts_with("VAL_"));
            let mut b = Relation::build(rel.name(), &attrs);
            for row in rel.rows() {
                let mut row = row.clone();
                if let (Some(i), Some(Value::Int(v))) = (val_col, val_col.map(|i| &row[i])) {
                    row[i] = Value::int(v + delta);
                }
                b = b.vrow(row);
            }
            b.finish().expect("refreshed relation rebuilds")
        })
        .collect()
}

/// The reassembled wire answer is not just byte-identical — it is a
/// full `PolygenRelation` equal to the in-process answer, tags and
/// schema included (i.e. the wire carries enough to reconstruct the
/// polygen model's objects, not just render them).
#[test]
fn wire_answers_reconstruct_the_full_tagged_relation() {
    let scenario = polygen::catalog::scenario::build();
    let (service, server) = spawn_server(&scenario, ServeOptions::default());
    let mut session = NetClient::connect(server.addr()).expect("connect");
    let sql = "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS \
               WHERE CEO = ANAME AND ONAME IN \
               (SELECT ONAME FROM PCAREER WHERE AID# IN \
               (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"MBA\"))";
    let over_wire = session.execute(&Request::sql(sql)).expect("wire answer");
    let in_process = service.execute(Request::sql(sql));
    let (a, b) = (over_wire.rows().unwrap(), in_process.rows().unwrap());
    assert_eq!(a.schema(), b.schema(), "schema (name, attrs, key) survives");
    assert_eq!(a.tuples(), b.tuples(), "tuples with all tags survive");
    // Schema reconstruction is deep: key designations round-trip.
    assert_eq!(a.schema().key(), b.schema().key());
    // And a second wire query hits the result cache server-side while
    // remaining byte-identical.
    let again = session.execute(&Request::sql(sql)).expect("warm answer");
    assert!(again.payload_eq(&over_wire));
    assert!(again.info().unwrap().result_hit, "server-side cache hit");
    server.shutdown();
}

/// The stats surface: `scrape_stats` fetches the live Prometheus
/// scrape over its own frame pair, and a traced wire query leaves a
/// complete decode → queue → parse/plan/execute → flush waterfall in
/// the slow-query log the scrape carries.
#[test]
fn stats_scrape_and_traced_waterfall_cross_the_wire() {
    let scenario = polygen::catalog::scenario::build();
    let (service, server) = spawn_server(&scenario, ServeOptions::default());
    let mut session = NetClient::connect(server.addr()).expect("connect");
    let sql = "SELECT ANAME FROM PALUMNUS WHERE DEGREE = \"MBA\"";
    let traced = session
        .execute(&Request::sql(sql).with_trace(true))
        .expect("traced query");
    let plain = service.execute(Request::sql(sql));
    assert!(traced.payload_eq(&plain), "tracing never changes answers");
    // The scrape crosses the wire: counters, histograms, slowlog. It is
    // answered by the poller thread, strictly after the traced
    // response's flush — so the waterfall below is already observed.
    let scrape = session.scrape_stats().expect("stats frame");
    assert!(scrape.contains("polygen_queries_total"), "{scrape}");
    assert!(
        scrape.contains("polygen_miss_latency_micros_bucket"),
        "{scrape}"
    );
    let slow = service.slow_queries();
    let waterfall = slow
        .iter()
        .find_map(|e| e.waterfall.as_deref())
        .expect("traced request was observed");
    for site in [
        "net/decode",
        "net/queue",
        "serve/parse",
        "serve/plan",
        "serve/execute",
        "net/flush",
    ] {
        assert!(waterfall.contains(site), "missing {site} in:\n{waterfall}");
    }
    // The same waterfall is visible to remote eyes via the scrape.
    assert!(scrape.contains("net/flush"), "{scrape}");
    // EXPLAIN ANALYZE crosses the wire as an Explain response with
    // per-node actuals.
    let analyzed = session
        .execute(&Request::sql(format!("EXPLAIN ANALYZE {sql}")))
        .expect("analyze");
    let Response::Explain { plan, .. } = &analyzed else {
        panic!("expected explain, got {analyzed:?}");
    };
    assert!(plan.contains("act=("), "{plan}");
    server.shutdown();
}

/// `sys.queries` tells the same story whichever route a request took.
/// Each case runs traced, in-process and over loopback TCP, against a
/// fresh service; its slow-log row must carry the cache outcome and
/// error code the service computed, and a non-zero `EXEC_US` exactly
/// where a plan executed. (The traced wire route used to log the zero
/// detail, and EXPLAIN ANALYZE logged it on every route.)
#[test]
fn sys_queries_rows_carry_the_same_facts_on_every_route() {
    let scenario = polygen::catalog::scenario::build();
    let options = || ServeOptions::default().with_slow_log(16, Duration::ZERO);
    let mba = "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS \
               WHERE CEO = ANAME AND ONAME IN \
               (SELECT ONAME FROM PCAREER WHERE AID# IN \
               (SELECT AID# FROM PALUMNUS WHERE DEGREE = \"MBA\"))";
    // The hot case is a respelling of the cold one: same canonical key,
    // so a result hit, but a `QUERY` text of its own to find its row by.
    let hot = mba.replacen(' ', "  ", 1);
    let analyzed = "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME";
    // (request, CACHE, ERROR_CODE, a plan executed)
    let cases = [
        (Request::sql(mba), "miss", 0, true),
        (Request::sql(&hot), "result", 0, false),
        (
            Request::sql(analyzed).with_explain_mode(ExplainOptions::Analyze),
            "miss",
            0,
            true,
        ),
        (Request::sql("SELECT"), "", 100, false),
    ];
    for over_tcp in [false, true] {
        let (service, server) = spawn_server(&scenario, options());
        let mut session = NetClient::connect(server.addr()).expect("connect");
        for (request, ..) in &cases {
            let request = request.clone().with_trace(true);
            if over_tcp {
                session.execute(&request).expect("wire response");
            } else {
                service.execute(request);
            }
        }
        // The poller answers a scrape strictly after the last response
        // flushed — which is when the transport observes its requests.
        session.scrape_stats().expect("stats frame");
        let log = service.execute(Request::sql(
            "SELECT ORDINAL, QUERY, EXEC_US, CACHE, ERROR_CODE FROM sys.queries",
        ));
        let log = log.rows().expect("catalog read serves");
        assert_eq!(log.len(), cases.len(), "one row per request");
        for (request, cache, code, executed) in &cases {
            let route = if over_tcp { "tcp" } else { "in-process" };
            let row = log
                .tuples()
                .iter()
                .find(|t| t[1].datum == Value::str(&request.text))
                .unwrap_or_else(|| panic!("{route}: no row for `{}`", request.text));
            assert_eq!(
                row[3].datum,
                Value::str(*cache),
                "{route}: `{}`",
                request.text
            );
            assert_eq!(
                row[4].datum,
                Value::int(*code),
                "{route}: `{}`",
                request.text
            );
            let Value::Int(exec_us) = row[2].datum else {
                panic!("EXEC_US is an integer");
            };
            assert_eq!(exec_us > 0, *executed, "{route}: `{}`", request.text);
        }
        server.shutdown();
    }
}

/// Concurrent TCP sessions with think time exercise the summary frame's
/// metrics fields sanely: positive latency, QPS, and a served count that
/// matches the metrics the service reports.
#[test]
fn summaries_and_metrics_agree_with_the_run() {
    let scenario = workload::generate(&small_config(3, 3, 72));
    let (service, server) = spawn_server(&scenario, ServeOptions::default());
    let mix = ClientMix::default()
        .with_clients(3)
        .with_queries_per_client(4)
        .with_think(Duration::from_millis(1));
    let run = drive_tcp(&mix, server.addr());
    assert_eq!(run.queries, 12);
    assert!(run.qps() > 0.0);
    assert!(run.latency.p99_micros() >= run.latency.p50_micros());
    for frames in run.per_client.iter().flatten() {
        let response = response_from_frames(frames).expect("stream");
        let info = response.info().expect("rows responses carry info");
        assert!(!info.canonical.is_empty());
        assert!(info.threads >= 1, "executed queries got worker threads");
    }
    assert_eq!(service.metrics().queries, 12);
    let addr = server.addr();
    server.shutdown();
    // After shutdown the port is closed: connecting errors rather than
    // producing a phantom session.
    assert!(NetClient::connect(addr).is_err());
}

/// Read one full response stream (frames up to and including the
/// terminal frame) from a raw socket — the hand-rolled client the
/// regression tests use to control exactly when bytes are read.
fn read_response(stream: &mut TcpStream, reader: &mut FrameReader) -> Vec<Frame> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut frames = Vec::new();
    loop {
        assert!(Instant::now() < deadline, "response never completed");
        match reader.poll(stream).expect("stream decodes") {
            FramePoll::Payload(payload) => {
                let frame = Frame::decode(payload).expect("frame decodes");
                let done = frame.is_terminal();
                frames.push(frame);
                if done {
                    return frames;
                }
            }
            FramePoll::Idle => continue,
            FramePoll::Closed => panic!("server hung up mid-response"),
        }
    }
}

/// Connect a raw socket and consume the greeting (a single non-terminal
/// `Hello` frame).
fn raw_session(addr: std::net::SocketAddr) -> (TcpStream, FrameReader) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let mut reader = FrameReader::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "greeting never arrived");
        match reader.poll(&mut stream).expect("greeting decodes") {
            FramePoll::Payload(payload) => {
                let frame = Frame::decode(payload).expect("frame decodes");
                assert!(matches!(frame, Frame::Hello { .. }));
                return (stream, reader);
            }
            FramePoll::Idle => continue,
            FramePoll::Closed => panic!("server hung up before greeting"),
        }
    }
}

/// Soak: ~1k concurrent idle connections are parked sessions, not
/// parked threads — the scripted traffic threading between them stays
/// byte-identical to in-process execution, the service's connection
/// gauge sees the whole population, and the server is still the same
/// O(workers)-thread process afterwards.
#[test]
fn soak_thousand_idle_connections_stay_serviceable() {
    let scenario = workload::generate(&small_config(21, 3, 72));
    let (service, server) = spawn_server(&scenario, ServeOptions::default());
    let uncached = QueryService::for_scenario(&scenario, ServeOptions::default().without_caches());
    let mix = ClientMix::default()
        .with_seed(21)
        .with_clients(2)
        .with_queries_per_client(4);
    let idle = 1_000;
    let parked: Vec<NetClient> = (0..idle)
        .map(|_| NetClient::connect(server.addr()).expect("park an idle session"))
        .collect();
    let run = drive_tcp(&mix, server.addr());
    drop(parked);
    assert_eq!(run.queries, mix.total_queries());
    // Every scripted answer, served while 1k sessions sat parked, is
    // still byte-identical to the in-process baseline.
    for (client, frames_per_query) in run.per_client.iter().enumerate() {
        for (frames, q) in frames_per_query.iter().zip(&mix.script(client)) {
            assert_eq!(
                deterministic_bytes(frames),
                baseline_bytes(&uncached, q),
                "client {client} diverged under the idle population"
            );
        }
    }
    // The connection gauge saw the full population (idle + scripted).
    let metrics = service.metrics();
    assert!(
        metrics.conns_peak_open >= (idle + mix.clients) as u64,
        "peak open {} never covered the parked population",
        metrics.conns_peak_open
    );
    assert_eq!(metrics.conns_backpressure_closed, 0);
    // The parked population dropped with the run; the poller reaps the
    // hangups promptly.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.open_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} sessions never reaped after the run",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// Regression: a client that pipelines thousands of `StatsRequest`
/// frames while draining the replies used to abort the whole server
/// process — the poller answered each buffered scrape by recursing into
/// its read path, one stack frame per frame, until the stack
/// overflowed. Every scrape must be answered, and the server must still
/// serve a fresh connection afterwards.
#[test]
fn a_scrape_flood_is_answered_and_the_server_survives() {
    const SCRAPES: usize = 10_000;
    let scenario = workload::generate(&small_config(3, 3, 72));
    let (_service, server) = spawn_server(&scenario, ServeOptions::default());
    let (mut stream, mut reader) = raw_session(server.addr());
    let mut replies = stream.try_clone().expect("clone");
    let drainer = std::thread::spawn(move || {
        for i in 0..SCRAPES {
            let frames = read_response(&mut replies, &mut reader);
            assert!(
                matches!(frames.as_slice(), [Frame::Stats { .. }]),
                "scrape {i} answered with {frames:?}"
            );
        }
    });
    stream
        .write_all(&Frame::StatsRequest.encode().repeat(SCRAPES))
        .expect("flood sent");
    drainer.join().expect("every scrape answered");
    let mut fresh = NetClient::connect(server.addr()).expect("the server survived");
    let served = fresh
        .execute(&Request::algebra("PENTITY [CATEGORY = \"C0\"]"))
        .expect("fresh query");
    assert!(matches!(served, Response::Rows { .. }));
    server.shutdown();
}

/// Regression: read-EOF used to close the connection with the answer
/// still queued, so a client that half-closes after sending its request
/// lost everything past what the loopback buffers had absorbed —
/// terminal frame included. The answer here (~13 MB) is well above what
/// those buffers hold while the client sleeps, and the client must read
/// all of it, then a clean end of stream.
#[test]
fn a_half_closed_peer_receives_its_whole_answer() {
    let scenario = workload::generate(&WorkloadConfig {
        detail_rows: 600,
        ..small_config(9, 3, 160)
    });
    let (service, server) = spawn_server(&scenario, ServeOptions::default());
    let request = Request::algebra("PENTITY TIMES PDETAIL");
    let want = deterministic_bytes(&response_frames(&service.execute(request.clone())));
    assert!(
        want.len() > 12 << 20,
        "answer of {} bytes is too small",
        want.len()
    );
    let (mut stream, _reader) = raw_session(server.addr());
    stream
        .write_all(&request_frame(&request).encode())
        .expect("query sent");
    stream.shutdown(Shutdown::Write).expect("half-close");
    std::thread::sleep(Duration::from_millis(200));
    let mut got = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let end = Instant::now() + Duration::from_secs(60);
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                assert!(Instant::now() < end, "the server never closed");
            }
            Err(e) => panic!("read failed after {} bytes: {e}", got.len()),
        }
    }
    assert!(
        got.len() > want.len(),
        "received {} of {} answer bytes",
        got.len(),
        want.len()
    );
    assert!(got[..want.len()] == want[..], "the answer arrived intact");
    // All that follows is the terminal Summary frame.
    let summary = Frame::decode(&got[want.len() + 4..]).expect("one whole frame");
    assert!(matches!(summary, Frame::Summary { .. }), "{summary:?}");
    server.shutdown();
}

/// Containment over the wire: a query whose source panics mid-retrieve
/// answers its own connection with a structured `Internal` (500) error
/// frame, and the *same* connection then answers its next request. (The
/// panic used to kill the worker thread, and the client waited forever.)
#[test]
fn a_panicking_query_answers_500_and_its_connection_serves_on() {
    let scenario = polygen::catalog::scenario::build();
    let (service, server) = spawn_server(&scenario, ServeOptions::default());
    service.update_source(panicking_source(&scenario, "CD"));
    let (mut stream, mut reader) = raw_session(server.addr());
    let doomed = Request::sql("SELECT ONAME, CEO FROM PORGANIZATION");
    stream
        .write_all(&request_frame(&doomed).encode())
        .expect("query sent");
    let frames = read_response(&mut stream, &mut reader);
    assert!(
        matches!(frames.as_slice(), [Frame::Error { code: 500, .. }]),
        "{frames:?}"
    );
    let healthy = Request::sql("SELECT ANAME FROM PALUMNUS WHERE DEGREE = \"MBA\"");
    stream
        .write_all(&request_frame(&healthy).encode())
        .expect("next query sent");
    let frames = read_response(&mut stream, &mut reader);
    let answer = response_from_frames(&frames).expect("well-formed stream");
    assert_eq!(answer.rows().map(|r| r.len()), Some(5), "{answer:?}");
    assert_eq!(service.metrics().errors_with_code(ErrorCode::Internal), 1);
    server.shutdown();
}

/// An answer the wire cannot carry fails its own request, not the
/// worker: one string cell just over `MAX_FRAME_LEN` makes a `Rows`
/// frame too long to send, and the connection gets a single terminal
/// `Internal` (500) frame, counted as a failure, then answers its next
/// request. (Encoding ran outside the service's panic containment and
/// asserted on the frame length, so the worker died and the client
/// waited forever.) A retry fails the same way and is no result hit:
/// an answer the wire cannot carry is never cached. (It was cached
/// before delivery failed, so every retry counted a hit and failed.)
/// In process the same answer answers its rows, and is not cached
/// either.
#[test]
fn an_answer_over_the_frame_cap_answers_500_and_its_connection_serves_on() {
    let scenario = polygen::catalog::scenario::build();
    let (service, server) = spawn_server(&scenario, ServeOptions::default());
    let huge = Value::str("x".repeat(MAX_FRAME_LEN as usize + 1));
    let relations = scenario
        .database("CD")
        .expect("the scenario has CD")
        .relations
        .iter()
        .map(|rel| {
            if rel.name() != "FIRM" {
                return rel.clone();
            }
            let rows = rel
                .rows()
                .iter()
                .map(|row| {
                    let mut row = row.clone();
                    if row[0] == Value::str("Ford") {
                        row[1] = huge.clone();
                    }
                    row
                })
                .collect();
            Relation::from_rows(Arc::clone(rel.schema()), rows).expect("FIRM rows")
        })
        .collect();
    drop(huge);
    service.update_source_relations("CD", relations);
    let (mut stream, mut reader) = raw_session(server.addr());
    let oversized = Request::sql("SELECT ONAME, CEO FROM PORGANIZATION");
    // Twice: an answer the wire cannot carry is never cached, so the
    // retry executes again and fails again, and neither is a hit.
    for _ in 0..2 {
        stream
            .write_all(&request_frame(&oversized).encode())
            .expect("query sent");
        let frames = read_response(&mut stream, &mut reader);
        assert!(
            matches!(frames.as_slice(), [Frame::Error { code: 500, .. }]),
            "{frames:?}"
        );
    }
    assert_eq!(service.metrics().result_hits, 0);
    assert_eq!(cached_result_bytes(&service), [], "no result entry");
    // In process the same answer still answers its rows, twice, and is
    // not cached either: neither request is a hit.
    for _ in 0..2 {
        let response = service.execute(oversized.clone());
        let Response::Rows { answer, info } = &response else {
            panic!("in process the oversized answer answers rows");
        };
        assert!(!info.result_hit);
        assert!(answer
            .tuples()
            .iter()
            .any(|t| matches!(&t[1].datum, Value::Str(s) if s.len() > MAX_FRAME_LEN as usize)));
    }
    assert_eq!(service.metrics().result_hits, 0);
    assert_eq!(cached_result_bytes(&service), [], "no result entry");
    let healthy = Request::sql("SELECT ANAME FROM PALUMNUS WHERE DEGREE = \"MBA\"");
    stream
        .write_all(&request_frame(&healthy).encode())
        .expect("next query sent");
    let frames = read_response(&mut stream, &mut reader);
    let answer = response_from_frames(&frames).expect("well-formed stream");
    assert_eq!(answer.rows().map(|r| r.len()), Some(5), "{answer:?}");
    // The service counts each undelivered answer once, as a failure: in
    // the metrics and in the connection's session row.
    assert_eq!(service.metrics().errors_with_code(ErrorCode::Internal), 2);
    let rows = service.sessions().snapshot();
    let [session] = rows.as_slice() else {
        panic!("one live session: {rows:?}");
    };
    assert_eq!((session.queries, session.rows, session.errors), (3, 5, 2));
    server.shutdown();
}

/// A census, not a check: how often does intra-query fan-out happen under
/// the ledger's TCP shape? Two closed-loop clients over two server
/// workers and a thread budget of two, `cold_mix`'s federation (seed 1,
/// 3 sources, 4 000 entities, 16 000 detail rows) and default mix with
/// caches off, for 15 s. Admission hands a query admitted while the other
/// client is idle `min(2/1, 2 - 0) = 2` threads, and `partitions: 0`
/// resolves to that. Every request is traced and the slow log keeps
/// them all, so the census reads (a) the share of responses whose
/// `ResponseInfo.threads` is 2 and (b) the share of `exec/HashJoin` and
/// `exec/HashMerge` spans that carry a `partitions` note. Run with
/// `cargo test --release --test properties_net -- --ignored --nocapture`.
#[test]
#[ignore = "a 15 s measurement that prints a census; it asserts nothing about timing"]
fn fan_out_census_over_the_ledger_shape() {
    const CLIENTS: usize = 2;
    let scenario = workload::generate(&WorkloadConfig {
        seed: 1,
        sources: 3,
        entities: 4_000,
        detail_rows: 16_000,
        ..WorkloadConfig::default()
    });
    let options = ServeOptions::default()
        .without_caches()
        .with_thread_budget(CLIENTS)
        .with_slow_log(usize::MAX, Duration::ZERO);
    let service = Arc::new(QueryService::for_scenario(&scenario, options));
    let server = NetServer::spawn_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerOptions { workers: CLIENTS },
    )
    .expect("bind");
    let mix = ClientMix {
        clients: CLIENTS,
        queries_per_client: 60_000,
        weights: MixWeights::default(),
        think: Duration::ZERO,
        seed: 1,
        categories: WorkloadConfig::default().categories,
        entities: 4_000,
        key_skew: 1.0,
    };
    let deadline = Instant::now() + Duration::from_secs(15);
    let threads: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (mix, addr) = (&mix, server.addr());
                scope.spawn(move || {
                    let mut session = NetClient::connect(addr).expect("connect");
                    let mut seen = Vec::new();
                    for mut request in mix.script(client) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        request.options.trace = true;
                        let frames = session.execute_frames(&request).expect("TCP exchange");
                        for frame in frames {
                            if let Frame::Summary { info } = frame {
                                seen.push(info.threads);
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    // Shutting down flushes every connection, so every request has been
    // observed by the slow log.
    server.shutdown();
    let share = |part: usize, whole: usize| part as f64 / whole.max(1) as f64;
    let two = threads.iter().filter(|&&t| t == 2).count();
    println!(
        "responses: {}; threads == 2: {two} ({:.3})",
        threads.len(),
        share(two, threads.len())
    );
    let reports = service.slow_queries();
    for op in ["exec/HashJoin", "exec/HashMerge"] {
        let spans: Vec<&str> = reports
            .iter()
            .filter_map(|r| r.waterfall.as_deref())
            .flat_map(str::lines)
            .filter(|line| line.trim_start().starts_with(op))
            .collect();
        let fanned = spans.iter().filter(|l| l.contains("partitions=")).count();
        println!(
            "{op}: {} spans; with a partitions note: {fanned} ({:.3})",
            spans.len(),
            share(fanned, spans.len())
        );
    }
    assert!(!threads.is_empty(), "the population answered");
}
