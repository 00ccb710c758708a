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

use polygen::index::IndexSpec;
use polygen::serve::{QueryService, Request, Response, ServeOptions};
use polygen::workload::{self, queries, WorkloadConfig};

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

/// Serve `request` twice on a single-threaded, cache-less service over
/// the ledger's federation and return the allocations of each run.
fn allocations_per_run(service: &QueryService, request: &Request) -> [u64; 2] {
    [0, 1].map(|_| {
        let before = counting::allocations();
        let response = service.execute(request.clone());
        let after = counting::allocations();
        assert!(
            matches!(response, Response::Rows { .. }),
            "`{}` answered {response:?}",
            request.text
        );
        after - before
    })
}

#[test]
fn served_queries_allocate_within_their_ceilings() {
    let scenario = workload::generate(&WorkloadConfig {
        seed: 101,
        sources: 3,
        entities: 4_000,
        detail_rows: 16_000,
        ..WorkloadConfig::default()
    });
    let options = ServeOptions::default()
        .without_caches()
        .with_thread_budget(1);
    let service = QueryService::for_scenario(&scenario, options);
    let indexed = QueryService::for_scenario(&scenario, options)
        .with_index_specs(&[
            IndexSpec::hash("S0", "DETAIL", "DNAME"),
            IndexSpec::sorted("S0", "DETAIL", "DSCORE"),
        ])
        .expect("the ledger's detail indexes build");
    // (class, service, request, ceiling)
    let classes = [
        (
            "select",
            &service,
            Request::algebra(queries::select_query(3)),
            602,
        ),
        (
            "join",
            &service,
            Request::algebra(queries::join_query(50)),
            3_903,
        ),
        (
            "paper",
            &service,
            Request::sql(queries::paper_shaped_sql(3)),
            860,
        ),
        (
            "point",
            &indexed,
            Request::algebra(queries::point_lookup(7)),
            106,
        ),
        (
            "range",
            &indexed,
            Request::algebra(queries::range_scan(40, 49)),
            3_372,
        ),
    ];
    for (class, service, request, ceiling) in classes {
        let runs = allocations_per_run(service, &request);
        println!("{class}: {runs:?} allocations (ceiling {ceiling})");
        for n in runs {
            assert!(
                n <= ceiling,
                "the {class} class allocated {n} times per served query, over its ceiling of {ceiling}"
            );
        }
    }
}
