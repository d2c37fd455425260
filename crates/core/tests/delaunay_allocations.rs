//! The concurrent Delaunay insert path stays off the allocator: every
//! per-insert buffer is per-worker scratch, nothing is hashed, and a carved
//! cell's bucket buffer moves into a fan cell instead of being freed. What
//! is left is the arena's chunk spine and the two fan cells per insert that
//! inherit no buffer. A counting global allocator checks it; this file is
//! its own test binary, so nothing else allocates meanwhile.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::incremental::delaunay::{delaunay_reference, ConcurrentDelaunay};
use rsched_core::algorithms::incremental::insertion_order;
use rsched_core::framework::{ConcurrentAlgorithm, TaskOutcome};
use rsched_graph::geom::uniform_square;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting allocations.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to `System` unchanged; the counter is a
// statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the contract of `GlobalAlloc::alloc`, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the contract of `GlobalAlloc::dealloc`, forwarded below.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn label_order_inserts_allocate_less_than_once_each() {
    const N: u32 = 20_000;
    let pts = uniform_square(N as usize, 1 << 20, &mut StdRng::seed_from_u64(30));
    let pi = insertion_order(N as usize, 30);
    let expected = delaunay_reference(&pts, &pi);
    let alg = ConcurrentDelaunay::new(&pts, &pi);
    let insert = |positions: std::ops::Range<u32>| {
        for pos in positions {
            // Label order never blocks.
            assert_ne!(alg.try_process(pi.task_at(pos)), TaskOutcome::Blocked);
        }
    };
    // The first half grows the worker's scratch and the arena's chunks.
    insert(0..N / 2);
    let before = ALLOCS.load(Relaxed);
    insert(N / 2..N);
    let (allocs, inserts) = (ALLOCS.load(Relaxed) - before, (N - N / 2) as usize);
    assert!(allocs < inserts, "{allocs} allocations for {inserts} inserts");
    assert_eq!(alg.into_output(), expected);
}
