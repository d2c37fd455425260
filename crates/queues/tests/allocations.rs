//! Both bucket kinds keep their steady traffic off the allocator; a
//! counting global allocator checks each in turn. This file is its own test
//! binary with one `#[test]`, so nothing else allocates meanwhile.
//!
//! * Harris lists under EBR: a run takes its nodes from the list's pool,
//!   and a popped run goes back there as one deferred chain once its grace
//!   period has passed. So steady-state churn through
//!   `LockFreeMultiQueue<u32, Ebr>` allocates per block (and per epoch
//!   collection), not per node.
//! * Locked buckets: a bucket radix-sorts each full insert buffer
//!   (`MultiQueue::FLUSH_ENTRIES`, 4 096 entries) through scratch buffers it
//!   keeps, into a run of blocks taken from its slab, whose drained blocks
//!   are reused, so churn through `MultiQueue<u32>` allocates when the slab
//!   (or the small heap of run tails, or the sort's scratch on a bucket's
//!   first flush) outgrows its capacity — a logarithmic number of times as
//!   the backlog grows, and not at all once it stops growing — never per
//!   flush.

use rsched_queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched_queues::reclaim::Ebr;
use rsched_queues::ConcurrentScheduler;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting allocations and reallocations and the
/// bytes held.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to `System` unchanged; the counter is a
// statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the contract of `GlobalAlloc::alloc`, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the contract of `GlobalAlloc::dealloc`, forwarded below.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the contract of `GlobalAlloc::realloc`, forwarded below.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size, Relaxed);
        BYTES.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `realloc`, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Both pins in sequence, on the one test thread.
#[test]
fn churn_allocates_per_block_not_per_entry() {
    list_churn_allocates_per_block_not_per_node();
    locked_churn_allocates_with_the_slab_not_per_flush();
}

fn list_churn_allocates_per_block_not_per_node() {
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

fn locked_churn_allocates_with_the_slab_not_per_flush() {
    const RUN: usize = 64;
    const BUCKETS: usize = 4;
    // At least this many entries pass through a bucket per flush: its
    // insert buffer, read off the bucket so that the flush counts below
    // follow any change of its size. The sizes below are in its units, so
    // that growth and steady state each span some 250 and 1 250 flushes.
    const PER_FLUSH: usize = MultiQueue::<u32>::FLUSH_ENTRIES;
    const BACKLOG: usize = 256 * PER_FLUSH;
    const ROUNDS: usize = 20 * PER_FLUSH;
    let q = MultiQueue::<u32>::new(BUCKETS);
    let (mut next, mut batch, mut out) = (0u32, Vec::with_capacity(RUN), Vec::with_capacity(RUN));
    // Rising priorities: a bucket's insert buffer holds its newest entries
    // and a pop takes its oldest, so every entry is flushed into a run
    // before it is popped.
    let mut round = |pop: bool| {
        batch.clear();
        batch.extend((0..RUN).map(|_| {
            next += 1;
            (u64::from(next), next)
        }));
        q.insert_batch(&batch);
        let mut popped = 0;
        while pop && popped < RUN {
            popped += q.pop_batch(&mut out, RUN - popped);
            out.clear();
        }
    };
    round(true); // the thread's RNG and the first buffers

    // Growth: ~256 flushes while the slabs double their way up.
    let before = ALLOCS.load(Relaxed);
    (0..BACKLOG / RUN).for_each(|_| round(false));
    let (allocs, flushes) = (ALLOCS.load(Relaxed) - before, BACKLOG / PER_FLUSH - BUCKETS);
    assert_eq!(q.len(), BACKLOG);
    assert!(allocs * 4 < flushes, "{allocs} allocations for {flushes} flushes while growing");

    // Steady state: the backlog stays, and over a thousand more flushes
    // reuse the blocks their pops drained. A bucket's share of the backlog
    // wanders, so a slab may double once more, but the memory held does
    // not grow with the flushes.
    let (before, held) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    (0..ROUNDS).for_each(|_| round(true));
    let (allocs, flushes) = (ALLOCS.load(Relaxed) - before, ROUNDS * RUN / PER_FLUSH - BUCKETS);
    assert_eq!(q.len(), BACKLOG);
    assert!(allocs * 64 < flushes, "{allocs} allocations for {flushes} flushes in steady state");
    let grown = BYTES.load(Relaxed) as f64 / held as f64;
    assert!(grown <= 2.0, "the memory held grew {grown:.2}x in steady state");
}
