//! Heap allocations per served query, pinned as exact ceilings.
//!
//! A counting global allocator tallies, per thread, every allocation
//! and reallocation a `QueryService::execute` call makes. The service runs at a thread
//! budget of 1 with its caches off, so every query is translated,
//! compiled and executed on the calling thread, over the ledger's
//! federation: seed 101, 3 sources, 4 000 entities, 16 000 detail
//! rows. The point and range classes run on a second such service that
//! also holds the two `S0.DETAIL` indexes their workload declares, so
//! they are served by index probes. Each ledger class is served twice;
//! both runs must stay under the class's ceiling. The counts repeat to
//! within one allocation from run to run and between debug and release
//! builds, so a ceiling a few allocations above them catches any change
//! in what a query builds: a merge that builds the merged cells its
//! consumer drops, an `Arc` per tuple, a copy of a shared answer, a
//! scan or a probe that copies the rows it selects.
//!
//! Each class's answer is also decoded as a client decodes it, frame by
//! frame, under a ceiling of its own, and the join class's decoded
//! frames are reassembled into its answer under another. A miss that
//! fills the result cache and a result hit, each served as the server's
//! workers serve it, are counted for the join and point classes. And catalog reads
//! are counted on a service whose caches are full, where materializing
//! a `sys` relation the plan never scans would cost thousands.

use polygen::catalog::scenario::Scenario;
use polygen::index::IndexSpec;
use polygen::obs::trace::Trace;
use polygen::serve::wire::codec::FrameReader;
use polygen::serve::wire::{
    deterministic_bytes, response_frames, response_from_owned_frames, Frame,
};
use polygen::serve::{QueryService, Request, Response, ServeOptions};
use polygen::workload::{self, queries, WorkloadConfig};

/// Decode ceilings per class: the counts, plus 4. A decoded answer
/// allocates one vector per tuple, two per `Rows` frame and one per
/// string cell that does not repeat the string above it; nothing grows.
const DECODE_SELECT: u64 = 599;
const DECODE_JOIN: u64 = 9_941;
const DECODE_PAPER: u64 = 512;
const DECODE_POINT: u64 = 16;
const DECODE_RANGE: u64 = 3_244;
/// Catalog-read ceilings: the first read's count, plus 4. The first
/// read also compiles its plan and closes a `sys.stats` window, so a
/// second read stays under it whether or not its window closes.
const SYS_STATS: u64 = 315;
const SYS_SESSIONS: u64 = 299;
/// Wire result-hit ceilings: the counts, plus 4.
const WIRE_HIT_JOIN: u64 = 59;
const WIRE_HIT_POINT: u64 = 32;
/// Wire miss ceilings, caches on: the counts, plus 4. The miss executes,
/// encodes its answer once into the frames the cache keeps and writes
/// them; encoding it twice, or keeping its relation beside the frames,
/// costs more. The join misses are those of minimum scores 10, 50, 90.
const WIRE_MISS_POINT: u64 = 117;
const WIRE_MISS_JOIN: [u64; 3] = [4_373, 3_929, 1_789];

mod counting {
    //! The allocator itself: a pass-through to the system allocator
    //! that counts on the calling thread. The one place in the test
    //! suite that implements `GlobalAlloc`, hence the `unsafe` island
    //! under the workspace-wide `unsafe_code = "deny"`.
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn count() {
        // A const-initialized `Cell` has no destructor, so this never
        // fails; `try_with` keeps thread teardown safe regardless.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    /// Allocations made on this thread so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

    pub struct Counting;

    // SAFETY: every method forwards to `System` with the caller's
    // arguments unchanged; counting touches no allocator state.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, i.e. from `System`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A growing `Vec` pays for each resize: count it too.
            count();
            // SAFETY: as for `dealloc`, with the caller's new size.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Serve `request` twice on `service` and return the allocations of
/// each run, with the second run's response.
fn allocations_per_run(service: &QueryService, request: &Request) -> ([u64; 2], Response) {
    let mut last = None;
    let runs = [0, 1].map(|_| {
        let before = counting::allocations();
        let response = service.execute(request.clone());
        let after = counting::allocations();
        assert!(
            matches!(response, Response::Rows { .. }),
            "`{}` answered {response:?}",
            request.text
        );
        last = Some(response);
        after - before
    });
    (runs, last.expect("two runs"))
}

/// The allocations a client makes decoding `response`'s frames, each
/// encoded as the server writes it.
fn decode_allocations(response: &Response) -> u64 {
    let wire: Vec<Vec<u8>> = response_frames(response)
        .iter()
        .map(Frame::encode)
        .collect();
    let before = counting::allocations();
    for bytes in &wire {
        Frame::decode(&bytes[4..]).expect("a served frame decodes");
    }
    counting::allocations() - before
}

/// The ledger's federation: seed 101, 3 sources, 4 000 entities, 16 000
/// detail rows.
fn ledger() -> Scenario {
    workload::generate(&WorkloadConfig {
        seed: 101,
        sources: 3,
        entities: 4_000,
        detail_rows: 16_000,
        ..WorkloadConfig::default()
    })
}

/// `service` with the two `S0.DETAIL` indexes the point and range
/// classes are served by.
fn indexed(service: QueryService) -> QueryService {
    service
        .with_index_specs(&[
            IndexSpec::hash("S0", "DETAIL", "DNAME"),
            IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
        ])
        .expect("the ledger's detail indexes build")
}

/// Each ledger class, served and then decoded as a client decodes it:
/// the served query under one ceiling, the decode of its frames under
/// another. A decoded tuple is one vector of exactly its cells, and a
/// `Rows` frame one vector of exactly its tuples.
#[test]
fn served_queries_allocate_within_their_ceilings() {
    let scenario = ledger();
    let options = ServeOptions::default()
        .without_caches()
        .with_thread_budget(1);
    let service = QueryService::for_scenario(&scenario, options);
    let indexed = indexed(QueryService::for_scenario(&scenario, options));
    // (class, service, request, serve ceiling, decode ceiling)
    let classes = [
        (
            "select",
            &service,
            Request::algebra(queries::select_query(3)),
            598,
            DECODE_SELECT,
        ),
        (
            "join",
            &service,
            Request::algebra(queries::join_query(50)),
            3_898,
            DECODE_JOIN,
        ),
        (
            "paper",
            &service,
            Request::sql(queries::paper_shaped_sql(3)),
            854,
            DECODE_PAPER,
        ),
        (
            "point",
            &indexed,
            Request::algebra(queries::point_lookup(7)),
            106,
            DECODE_POINT,
        ),
        (
            "range",
            &indexed,
            Request::algebra(queries::range_scan(40, 49)),
            3_372,
            DECODE_RANGE,
        ),
    ];
    for (class, service, request, ceiling, decode_ceiling) in classes {
        let (runs, response) = allocations_per_run(service, &request);
        let decode = decode_allocations(&response);
        println!(
            "{class}: {runs:?} allocations (ceiling {ceiling}), decode {decode} (ceiling {decode_ceiling})"
        );
        for n in runs {
            assert!(
                n <= ceiling,
                "the {class} class allocated {n} times per served query, over its ceiling of {ceiling}"
            );
        }
        assert!(
            decode <= decode_ceiling,
            "decoding the {class} class's answer allocated {decode} times, over its ceiling of {decode_ceiling}"
        );
    }
}

/// A catalog read builds only the `sys` relations its plan scans. On a
/// service whose plan and result caches are full — `point_churn`'s
/// shape: both caches on, the detail indexes declared, more distinct
/// point lookups than either cache holds — a `sys.stats` and a
/// `sys.sessions` read each stay far under what materializing
/// `sys.cache`, a row per cached plan and result, allocates.
#[test]
fn catalog_reads_allocate_within_their_ceilings() {
    let options = ServeOptions::default().with_thread_budget(1);
    let service = indexed(QueryService::for_scenario(&ledger(), options));
    for entity in 0..1_100 {
        service.execute(Request::algebra(queries::point_lookup(entity)));
    }
    let (plans, results) = service.cache_sizes();
    assert_eq!(
        (plans, results),
        (options.plan_cache, options.result_cache),
        "both caches are full"
    );
    // (class, request, ceiling)
    let classes = [
        (
            "sys.stats",
            Request::sql(queries::sys_stats_query()),
            SYS_STATS,
        ),
        (
            "sys.sessions",
            Request::sql(queries::sys_sessions_query()),
            SYS_SESSIONS,
        ),
    ];
    for (class, request, ceiling) in classes {
        let (runs, _) = allocations_per_run(&service, &request);
        println!("{class}: {runs:?} allocations (ceiling {ceiling})");
        for n in runs {
            assert!(
                n <= ceiling,
                "a {class} read allocated {n} times, over its ceiling of {ceiling}"
            );
        }
    }
}

/// Reassembling the join class's decoded frames (3 460 tuples in 14
/// `Rows` batches) into its answer moves every tuple: the schema's
/// names, one exactly sized tuple vector and the shared answer, whatever
/// the row count. The ceiling is the count, plus 4. Copying each tuple
/// out of its batch cost one allocation per tuple.
#[test]
fn reassembling_an_answer_moves_its_tuples() {
    const REASSEMBLE_JOIN: u64 = 10;
    let scenario = ledger();
    let options = ServeOptions::default()
        .without_caches()
        .with_thread_budget(1);
    let service = QueryService::for_scenario(&scenario, options);
    let response = service.execute(Request::algebra(queries::join_query(50)));
    let frames = response_frames(&response);
    let before = counting::allocations();
    let reassembled = response_from_owned_frames(frames).expect("served frames reassemble");
    let n = counting::allocations() - before;
    println!("join: reassembly {n} allocations (ceiling {REASSEMBLE_JOIN})");
    assert!(reassembled.payload_eq(&response));
    assert!(
        n <= REASSEMBLE_JOIN,
        "reassembling the join class's answer allocated {n} times, over its ceiling of {REASSEMBLE_JOIN}"
    );
}

/// A result hit served as a server worker serves it writes the cached
/// frames and a fresh `Summary` into one buffer and builds no cell, so
/// its allocations do not grow with the answer: join-class queries
/// whose answers differ in size allocate alike, and the point class's
/// one row costs less only for its shorter query text. Each query is
/// first served the same way once, a miss under a ceiling of its own,
/// which caches its frames; the hit sends the miss's frames. Encoding
/// the join class's cells again cost a buffer regrowth per doubling of
/// its bytes.
#[test]
fn wire_result_hits_allocate_within_their_ceilings() {
    let options = ServeOptions::default().with_thread_budget(1);
    let service = indexed(QueryService::for_scenario(&ledger(), options));
    let served = |request: &Request| {
        let trace = Trace::disabled();
        let before = counting::allocations();
        let (miss, _) = service.execute_encoded(request, &trace, None);
        let misses = counting::allocations() - before;
        let before = counting::allocations();
        let (hit, _) = service.execute_encoded(request, &trace, None);
        let hits = counting::allocations() - before;
        let (miss, hit) = (decode_stream(&miss), decode_stream(&hit));
        assert_eq!(deterministic_bytes(&hit), deterministic_bytes(&miss));
        (misses, hits, miss.len())
    };
    let point = served(&Request::algebra(queries::point_lookup(7)));
    println!(
        "point: wire miss {} allocations (ceiling {WIRE_MISS_POINT}), \
         result hit {} (ceiling {WIRE_HIT_POINT})",
        point.0, point.1
    );
    assert!(
        point.0 <= WIRE_MISS_POINT,
        "a point wire miss allocated {}",
        point.0
    );
    assert!(
        point.1 <= WIRE_HIT_POINT,
        "a point wire hit allocated {}",
        point.1
    );
    let joins =
        [10, 50, 90].map(|min_score| served(&Request::algebra(queries::join_query(min_score))));
    println!(
        "join: wire (miss, hit, frames) {joins:?} \
         (ceilings: misses {WIRE_MISS_JOIN:?}, hits {WIRE_HIT_JOIN})"
    );
    assert!(joins[0].2 > joins[2].2, "the answers differ in size");
    for ((miss, hit, _), miss_ceiling) in joins.into_iter().zip(WIRE_MISS_JOIN) {
        assert!(
            miss <= miss_ceiling,
            "a join wire miss allocated {miss}, over {miss_ceiling}"
        );
        assert_eq!(
            hit, joins[1].1,
            "a join wire hit's allocations vary with its answer"
        );
        assert!(
            hit <= WIRE_HIT_JOIN,
            "a join wire hit allocated {hit}, over {WIRE_HIT_JOIN}"
        );
    }
    assert_eq!(service.metrics().result_hits, 4);
}

/// Every frame of a server's response stream.
fn decode_stream(bytes: &[u8]) -> Vec<Frame> {
    let mut reader = FrameReader::new();
    reader.push(bytes);
    let mut frames = Vec::new();
    while let Some(payload) = reader.next_frame().expect("whole frames") {
        frames.push(Frame::decode(payload).expect("a served frame decodes"));
    }
    frames
}
