//! A simulation's allocations do not grow with the guest's depth.
//!
//! Rounds are built once per guest as flat arrays, so a 2 032-node path
//! (2 031 levels) must allocate no more often than a 2 032-node balanced
//! guest (10 levels), through `simulate_all_with`, every
//! `simulate_one_with`, and a policy-free `Session` run to completion
//! (which builds each workload's rounds once), on the X-tree and on the
//! universal host.
//!
//! Allocation counts do not depend on the machine, so this gate holds on
//! any CI runner. The counting allocator tallies per thread, so the test
//! harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use xtree_core::theorem1;
use xtree_host::{guest_map, AnyHost, HOST_UNIVERSAL, HOST_XTREE};
use xtree_sim::workload::WORKLOADS;
use xtree_sim::{simulate_all_with, simulate_one_with, FaultPlan, NopSink, Session};
use xtree_trees::TreeFamily;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Theorem 1's largest guest on X(6).
const NODES: usize = 2032;

/// Allocations of `simulate_all_with`, then of `simulate_one_with` for
/// each workload, then of a policy-free `Session` under an empty plan,
/// for `family`'s guest on host `tag`.
fn profile(family: TreeFamily, tag: u8) -> Vec<u64> {
    let tree = family.generate_seeded(NODES, 1);
    let emb = theorem1::embed(&tree).emb;
    assert_eq!(emb.height, 6);
    let net = AnyHost::for_xtree_height(tag, emb.height).unwrap();
    let map = guest_map(tag, &emb).unwrap();
    let mut counts = vec![allocs(|| {
        simulate_all_with(&net, &tree, &map, &mut NopSink).unwrap();
    })];
    for idx in 0..WORKLOADS.len() {
        counts.push(allocs(|| {
            simulate_one_with(&net, &tree, &map, idx, &mut NopSink).unwrap();
        }));
    }
    let session = Session::new(&net, &tree, map, FaultPlan::new(), None);
    counts.push(allocs(|| {
        session.run_to_completion_with(&mut NopSink).unwrap();
    }));
    counts
}

#[test]
fn deep_guests_allocate_no_more_than_shallow_ones() {
    for tag in [HOST_XTREE, HOST_UNIVERSAL] {
        let path = profile(TreeFamily::Path, tag);
        let balanced = profile(TreeFamily::Balanced, tag);
        for (k, (p, b)) in path.iter().zip(&balanced).enumerate() {
            let run = match k {
                0 => "all",
                5 => "session",
                _ => WORKLOADS[k - 1],
            };
            assert!(
                p <= b,
                "host {tag}, {run}: the path guest allocated {p} times, the balanced one {b}"
            );
        }
    }
}

#[test]
fn the_counter_sees_a_simulation() {
    // Guards the gate above against a counter that never counts.
    let counts = profile(TreeFamily::Path, HOST_XTREE);
    assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
}
