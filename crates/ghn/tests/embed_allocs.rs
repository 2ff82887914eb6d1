//! The inference embed allocates per call, never per node: its count is
//! the same for the smallest and the largest zoo model. Own file because
//! of the counting allocator (as in `tests/zoo_resolver.rs`).

use pddl_ghn::{Ghn, GhnConfig, Schedule};
use pddl_tensor::Rng;
use pddl_zoo::{resolve, CIFAR10};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations; everything else is the system
/// allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised, destructor-free thread-local, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn an_embed_allocates_the_same_for_the_smallest_and_the_largest_model() {
    let ghn = Ghn::new(GhnConfig::default(), &mut Rng::new(6));
    let small = resolve("alexnet", &CIFAR10).expect("zoo model");
    let large = resolve("densenet201", &CIFAR10).expect("zoo model");
    assert!(large.graph.num_nodes() > 20 * small.graph.num_nodes());

    let count = |g| {
        let sched = Schedule::new(g, ghn.cfg.s_max);
        // Once so that first-use registration of the metrics is not in the
        // count, then the call that is counted.
        ghn.embed_with_schedule(g, &sched);
        let before = ALLOCS.with(Cell::get);
        ghn.embed_with_schedule(g, &sched);
        ALLOCS.with(Cell::get) - before
    };
    let (b, a) = (count(&large.graph), count(&small.graph));
    // A count, not a timing: a buffer per node update or per edge makes
    // these differ by hundreds.
    assert_eq!(a, b, "alexnet {a} vs densenet201 {b} allocations");
    assert!(a <= 8, "{a} allocations in one embed");
}
