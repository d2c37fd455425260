//! The epoch backend keeps node traffic off the allocator: a run takes its
//! nodes from the list's pool, and a popped run goes back there as one
//! deferred chain once its grace period has passed. So steady-state churn
//! through `LockFreeMultiQueue<u32, Ebr>` allocates per block (and per
//! epoch collection), not per node. A counting global allocator checks it;
//! this file is its own test binary, so nothing else allocates meanwhile.

use rsched_queues::concurrent::LockFreeMultiQueue;
use rsched_queues::reclaim::Ebr;
use rsched_queues::ConcurrentScheduler;
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
fn steady_churn_allocates_per_block_not_per_node() {
    const RUN: usize = 64;
    const ROUNDS: usize = 10_000;
    let q = LockFreeMultiQueue::<u32, Ebr>::new_in(8);
    let batch: Vec<(u64, u32)> = (0..RUN as u32).map(|i| (u64::from(i), i)).collect();
    let mut out = Vec::with_capacity(RUN);
    let churn = |rounds: usize, out: &mut Vec<(u64, u32)>| {
        for _ in 0..rounds {
            q.insert_batch(&batch);
            while q.pop_batch(out, RUN) > 0 {
                out.clear();
            }
        }
    };
    // Warm up: the pools carve their blocks, the epoch bag grows.
    churn(ROUNDS / 10, &mut out);
    let before = ALLOCS.load(Relaxed);
    churn(ROUNDS, &mut out);
    let (allocs, nodes) = (ALLOCS.load(Relaxed) - before, ROUNDS * RUN);
    assert!(q.is_empty());
    assert!(allocs * 64 < nodes, "{allocs} allocations for {nodes} nodes through the lists");
}
