//! A scored warm `Embed` hit is a cache lookup: `handle_compute` answers
//! it without a single heap allocation, on every host and theorem, and so
//! does `handle_warm` alone. A `Simulate` whose workloads are all stored
//! on its entry is a lookup too, allocating only its reply's report list.
//! The whole path a connection thread runs for such a request — frame
//! read, decode, warm half, reply write — adds only the request payload
//! and the reply frame. And a `Simulate` that does run the engine runs on
//! its worker's, so it makes no allocation the size of the host's link
//! table.
//!
//! Allocation counts do not depend on the machine, so this gate holds on
//! any CI runner. The counting allocator tallies per thread, so the test
//! harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xtree_host::{HOST_HYPERCUBE, HOST_UNIVERSAL, HOST_XTREE};
use xtree_server::service::{handle_compute, handle_warm, Step};
use xtree_server::wire::{decode_request_host, read_frame, write_request_host, write_response};
use xtree_server::{Count, EmbeddingCache, Request, Response, ServerMetrics};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Allocations of at least [`BIG`] bytes.
    static BIG_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// What counts as a big allocation: 1 MiB.
const BIG: usize = 1 << 20;

fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    if size >= BIG {
        let _ = BIG_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`, and its result.
fn allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations of at least [`BIG`] bytes this thread makes in `f`.
fn big_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BIG_ALLOCS.with(Cell::get);
    let out = f();
    (BIG_ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn scored_warm_embed_hits_do_not_allocate() {
    for host in [HOST_XTREE, HOST_HYPERCUBE, HOST_UNIVERSAL] {
        for theorem in [1, 2] {
            let embed = Request::Embed {
                family: 5,
                nodes: 112,
                seed: 11,
                theorem,
            };
            let simulate = Request::Simulate {
                family: 5,
                nodes: 112,
                seed: 11,
                theorem,
                workload: 0,
            };
            // Both ways an entry gets its score: the first Embed misses
            // and scores, or a Simulate inserts and the first Embed hit
            // scores.
            for first in [&embed, &simulate] {
                let cache = EmbeddingCache::new(8);
                let metrics = ServerMetrics::new();
                handle_compute(first, host, &cache, &metrics);
                handle_compute(&embed, host, &cache, &metrics);
                let (n, resp) = allocs(|| handle_compute(&embed, host, &cache, &metrics));
                assert!(
                    matches!(resp, Response::EmbedOk { cached: true, .. }),
                    "host {host} theorem {theorem}: {resp:?}"
                );
                assert_eq!(
                    n, 0,
                    "host {host} theorem {theorem}: a scored warm hit allocated"
                );
                let (n, step) = allocs(|| handle_warm(&embed, host, &cache, &metrics));
                assert!(
                    matches!(step, Step::Reply(ref r) if *r == resp),
                    "host {host} theorem {theorem}: the warm half answers alone"
                );
                assert_eq!(
                    n, 0,
                    "host {host} theorem {theorem}: the warm half allocated"
                );
            }
        }
    }
}

#[test]
fn the_counter_sees_a_cold_request() {
    // Guards the gate above against a counter that never counts.
    let cache = EmbeddingCache::new(8);
    let req = Request::Embed {
        family: 5,
        nodes: 112,
        seed: 12,
        theorem: 1,
    };
    let (n, _) = allocs(|| handle_compute(&req, HOST_XTREE, &cache, &ServerMetrics::new()));
    assert!(n > 0, "a cold build allocates");
}

#[test]
fn memo_hit_simulates_allocate_only_the_reply() {
    for host in [HOST_XTREE, HOST_HYPERCUBE, HOST_UNIVERSAL] {
        for theorem in [1, 2] {
            let simulate = |workload| Request::Simulate {
                family: 5,
                nodes: 112,
                seed: 11,
                theorem,
                workload,
            };
            let cache = EmbeddingCache::new(8);
            let metrics = ServerMetrics::new();
            // Running all four workloads fills every slot.
            let cold = handle_compute(&simulate(255), host, &cache, &metrics);
            let Response::SimulateOk { reports, .. } = cold else {
                panic!("host {host} theorem {theorem}: {cold:?}");
            };
            for (workload, expect) in [(2, vec![reports[2].clone()]), (255, reports.clone())] {
                let hits = metrics.get(Count::SimMemoHits);
                let (n, resp) =
                    allocs(|| handle_compute(&simulate(workload), host, &cache, &metrics));
                assert_eq!(
                    resp,
                    Response::SimulateOk {
                        cached: true,
                        reports: expect
                    },
                    "host {host} theorem {theorem} workload {workload}"
                );
                assert_eq!(metrics.get(Count::SimMemoHits), hits + 1);
                assert!(
                    n <= 1,
                    "host {host} theorem {theorem} workload {workload}: a memo hit made {n} allocations"
                );
                let (n, step) = allocs(|| handle_warm(&simulate(workload), host, &cache, &metrics));
                assert!(
                    matches!(step, Step::Reply(Response::SimulateOk { cached: true, .. })),
                    "host {host} theorem {theorem} workload {workload}: the warm half answers alone"
                );
                assert!(
                    n <= 1,
                    "host {host} theorem {theorem} workload {workload}: the warm half made {n} allocations"
                );
            }
        }
    }
}

/// Allocations on a connection thread's path for one request frame:
/// `read_frame`, `decode_request_host`, `handle_warm`, `write_response`.
/// The request must be answered by its warm half.
fn connection_path_allocs(frame: &[u8], cache: &EmbeddingCache, metrics: &ServerMetrics) -> u64 {
    let (n, step) = allocs(|| {
        let payload = read_frame(&mut &frame[..]).unwrap().expect("one frame");
        let (req, _, host) = decode_request_host(&payload).unwrap();
        let step = handle_warm(&req, host.expect("host-tagged"), cache, metrics);
        if let Step::Reply(resp) = &step {
            write_response(&mut std::io::sink(), resp).unwrap();
        }
        step
    });
    assert!(
        matches!(step, Step::Reply(_)),
        "not answered by the warm half"
    );
    n
}

#[test]
fn warm_requests_allocate_only_their_frames_from_read_to_write() {
    for host in [HOST_XTREE, HOST_HYPERCUBE, HOST_UNIVERSAL] {
        for theorem in [1, 2] {
            let embed = Request::Embed {
                family: 5,
                nodes: 112,
                seed: 11,
                theorem,
            };
            let simulate = |workload| Request::Simulate {
                family: 5,
                nodes: 112,
                seed: 11,
                theorem,
                workload,
            };
            let cache = EmbeddingCache::new(8);
            let metrics = ServerMetrics::new();
            // Score the entry and fill every slot.
            handle_compute(&embed, host, &cache, &metrics);
            handle_compute(&simulate(255), host, &cache, &metrics);
            // The request payload and the reply frame; a Simulate adds its
            // report list.
            for (req, limit) in [(embed, 2), (simulate(2), 3), (simulate(255), 3)] {
                let mut frame = Vec::new();
                write_request_host(&mut frame, &req, None, Some(host)).unwrap();
                let n = connection_path_allocs(&frame, &cache, &metrics);
                assert!(
                    n <= limit,
                    "host {host} theorem {theorem} {req:?}: {n} allocations, limit {limit}"
                );
            }
        }
    }
}

#[test]
fn warm_simulates_reuse_the_worker_engine() {
    // Theorem 1's largest X(6) guest: the universal host there has
    // 504 080 directed links, 2 MB per 4-byte link buffer.
    let cache = EmbeddingCache::new(8);
    let metrics = ServerMetrics::new();
    let simulate = |workload| Request::Simulate {
        family: 4,
        nodes: 2032,
        seed: 13,
        theorem: 1,
        workload,
    };
    let (first, _) = big_allocs(|| handle_compute(&simulate(0), HOST_UNIVERSAL, &cache, &metrics));
    assert!(
        first > 0,
        "the first request builds the host and grows the engine"
    );
    // Another workload of the same guest: a cache hit whose slot is
    // empty, so it runs on the warmed engine.
    let hops = metrics.sim.snapshot().hops;
    let (n, warm) = big_allocs(|| handle_compute(&simulate(2), HOST_UNIVERSAL, &cache, &metrics));
    assert_eq!(metrics.get(Count::SimMemoHits), 0, "not a memo hit");
    assert!(metrics.sim.snapshot().hops > hops, "the engine ran");
    let cold = handle_compute(
        &simulate(2),
        HOST_UNIVERSAL,
        &EmbeddingCache::new(0),
        &ServerMetrics::new(),
    );
    let Response::SimulateOk { reports, .. } = cold else {
        panic!("expected SimulateOk, got {cold:?}");
    };
    assert_eq!(
        warm,
        Response::SimulateOk {
            cached: true,
            reports
        }
    );
    assert_eq!(
        n, 0,
        "a warm Simulate made {n} allocations of 1 MiB or more"
    );
}
